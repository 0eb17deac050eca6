//! Shared experiment configuration and the cached Fig.-3 benchmark grid,
//! which several tables (4, 6, 7) are derived from.

use green_automl_core::benchmark::{
    run_grid_checked, BenchmarkOptions, BenchmarkPoint, BudgetGrid,
};
use green_automl_dataset::{amlb39, DatasetMeta, MaterializeOptions};
use green_automl_systems::{all_systems, RunSpec};
use std::path::PathBuf;

/// Scale knobs of the reproduction.
///
/// The paper's full protocol (39 datasets × 10 runs × 7 systems × 4 budgets
/// took 28 compute-days on a 28-core machine). This reproduction runs the
/// same grid on a simulated testbed; `runs`, `n_datasets`, and
/// `devtune_iters` trade fidelity against wall-clock (documented in
/// EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpConfig {
    /// Repetitions per cell (paper: 10).
    pub runs: usize,
    /// Number of AMLB datasets used, in Table 2 order (paper: 39).
    pub n_datasets: usize,
    /// Search-budget grid, seconds (paper: 10/30/60/300).
    pub budgets: Vec<f64>,
    /// Bootstrap resamples for aggregate uncertainty.
    pub bootstrap: usize,
    /// Base seed.
    pub seed: u64,
    /// Dataset materialisation profile.
    pub materialize: MaterializeOptions,
    /// Meta-BO iterations for the development-stage tuner (paper: 300;
    /// our default scales 1/10 — the sweep in table9 keeps the paper's
    /// ratios).
    pub devtune_iters: usize,
    /// Representative-dataset count for the tuner (paper: 20).
    pub devtune_top_k: usize,
    /// Worker threads for the benchmark grid: `0` = one per available
    /// core, `1` = serial. Grid results are byte-identical at every
    /// setting (see `green_automl_core::executor`).
    pub parallelism: usize,
    /// Grid-wide evaluation memoisation (`--no-eval-cache` disables it).
    /// Purely a wall-clock optimisation: results are byte-identical either
    /// way (see `green_automl_ml::evalcache`).
    pub eval_cache: bool,
    /// Open-loop arrival rate for the `serve` experiment, requests per
    /// virtual second.
    pub serve_rps: f64,
    /// Requests in the replayed `serve` trace.
    pub serve_requests: usize,
    /// Simulated serving replicas for the `serve` experiment.
    pub serve_replicas: usize,
    /// p99 latency SLO the serving report is checked against, milliseconds.
    pub slo_ms: f64,
    /// Base arrival rate *per tenant* for the `fleet` experiment, requests
    /// per virtual second (shapes modulate around it).
    pub fleet_rps: f64,
    /// Requests each tenant sends in the `fleet` experiment.
    pub fleet_requests: usize,
    /// Checkpoint file for the shared benchmark grid: finished cells are
    /// flushed here as they complete, and a rerun of the same
    /// configuration resumes from them instead of recomputing (`None` =
    /// no checkpointing). See `green_automl_core::checkpoint`.
    pub checkpoint: Option<PathBuf>,
    /// Hosts in the simulated cluster of the `cluster` experiment
    /// (`--hosts`). The grid artefact is byte-identical at every host
    /// count; only the cluster report changes.
    pub hosts: usize,
    /// Override for the cluster chaos profile's host-crash probability
    /// (`--host-crash-p`; `None` keeps `FaultPlan::cluster_chaos`'s 4%).
    pub host_crash_p: Option<f64>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            runs: 3,
            n_datasets: 39,
            budgets: BudgetGrid::paper().to_vec(),
            bootstrap: 200,
            seed: 0,
            materialize: MaterializeOptions::benchmark(),
            devtune_iters: 30,
            devtune_top_k: 20,
            parallelism: 0,
            eval_cache: true,
            serve_rps: 500.0,
            serve_requests: 5_000,
            serve_replicas: 4,
            slo_ms: 50.0,
            fleet_rps: 500.0,
            fleet_requests: 2_000,
            checkpoint: None,
            hosts: 4,
            host_crash_p: None,
        }
    }
}

impl ExpConfig {
    /// The `repro` binary's default: the full budget grid on a 16-dataset
    /// spread with 2 runs per cell and 1/12-scaled tuner iterations —
    /// reproduces every shape in roughly half an hour of serial wall clock
    /// (`parallelism: 1`); with the default auto parallelism, grid-bound
    /// experiments scale with cores instead.
    /// (`ExpConfig::default()` is the full 39-dataset grid.)
    pub fn standard() -> Self {
        ExpConfig {
            runs: 2,
            n_datasets: 16,
            devtune_iters: 24,
            devtune_top_k: 12,
            ..Default::default()
        }
    }

    /// A fast profile: fewer datasets/runs, two budgets.
    pub fn fast() -> Self {
        ExpConfig {
            runs: 2,
            n_datasets: 10,
            budgets: vec![10.0, 60.0],
            bootstrap: 100,
            devtune_iters: 8,
            devtune_top_k: 6,
            ..Default::default()
        }
    }

    /// A smoke-test profile for unit tests.
    pub fn smoke() -> Self {
        ExpConfig {
            runs: 1,
            n_datasets: 2,
            budgets: vec![10.0],
            bootstrap: 20,
            materialize: MaterializeOptions::tiny(),
            devtune_iters: 2,
            devtune_top_k: 2,
            serve_requests: 400,
            fleet_requests: 250,
            ..Default::default()
        }
    }

    /// The datasets in play: exactly `min(n_datasets, 39)` rows, in
    /// Table 2 order.
    ///
    /// When truncating, spread the picks evenly over the table so both
    /// wide (early rows) and narrow (late rows) datasets stay represented.
    /// Evenly-spaced *indices* — `⌊i · (len−1) / (n−1)⌋` — always
    /// yield `n` distinct rows; the previous `step_by(ceil(len/n))`
    /// overshot for most `n` (e.g. `n = 16` stepped by 3 and returned only
    /// 13 of 39 rows).
    pub fn datasets(&self) -> Vec<DatasetMeta> {
        let all = amlb39();
        let n = self.n_datasets.min(all.len());
        if n == all.len() {
            return all;
        }
        if n <= 1 {
            return all.into_iter().take(n).collect();
        }
        (0..n)
            .map(|i| all[(i * (all.len() - 1)) / (n - 1)])
            .collect()
    }

    /// Benchmark options derived from this config.
    pub fn bench_options(&self) -> BenchmarkOptions {
        BenchmarkOptions {
            materialize: self.materialize,
            runs: self.runs,
            test_frac: 0.34,
            parallelism: self.parallelism,
            eval_cache: self.eval_cache,
        }
    }

    /// The base run specification (single core on the CPU testbed).
    pub fn base_spec(&self) -> RunSpec {
        RunSpec::single_core(self.budgets[0], self.seed)
    }
}

/// Lazily computed, shared Fig.-3 grid points.
#[derive(Debug, Default)]
pub struct SharedPoints {
    points: Option<Vec<BenchmarkPoint>>,
}

impl SharedPoints {
    /// The full system × dataset × budget × run grid, computed once.
    ///
    /// Runs fault-tolerantly: a panicking cell is reported to stderr and
    /// dropped rather than aborting every other cell, and when
    /// `cfg.checkpoint` is set a killed run resumes from its completed
    /// cells.
    pub fn grid(&mut self, cfg: &ExpConfig) -> &[BenchmarkPoint] {
        if self.points.is_none() {
            let systems = all_systems();
            let datasets = cfg.datasets();
            let grid = run_grid_checked(
                &systems,
                &datasets,
                &cfg.budgets,
                &cfg.base_spec(),
                &cfg.bench_options(),
                cfg.checkpoint.as_deref(),
            )
            .expect("ExpConfig produces a valid RunSpec");
            if grid.resumed_cells > 0 {
                eprintln!(
                    "grid: resumed {} completed cell(s) from {}",
                    grid.resumed_cells,
                    cfg.checkpoint
                        .as_deref()
                        .map(|p| p.display().to_string())
                        .unwrap_or_default()
                );
            }
            for failure in &grid.failures {
                eprintln!(
                    "grid: cell {} ({} on {}) failed: {}",
                    failure.cell, failure.system, failure.dataset, failure.message
                );
            }
            if grid.eval_cache_hits + grid.eval_cache_misses > 0 {
                eprintln!(
                    "grid: eval cache {} hit(s) / {} miss(es)",
                    grid.eval_cache_hits, grid.eval_cache_misses
                );
            }
            if grid.retried_cells + grid.speculated_cells + grid.requeued_cells > 0 {
                eprintln!(
                    "grid: cluster recovery {} retried / {} speculated / {} requeued cell(s)",
                    grid.retried_cells, grid.speculated_cells, grid.requeued_cells
                );
            }
            self.points = Some(grid.points);
        }
        self.points.as_deref().expect("just computed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_truncation_spreads_over_the_table() {
        let cfg = ExpConfig {
            n_datasets: 5,
            ..Default::default()
        };
        let ds = cfg.datasets();
        assert_eq!(ds.len(), 5);
        // Spread: both wide (early rows) and narrow (late rows) present.
        assert!(ds[0].features > 1000);
        assert!(ds.last().unwrap().features < 100);
    }

    #[test]
    fn full_config_keeps_all_39() {
        assert_eq!(ExpConfig::default().datasets().len(), 39);
    }

    #[test]
    fn every_requested_count_is_honoured_exactly() {
        // Regression: step_by(ceil(39/n)) used to overshoot — n = 16
        // returned only 13 datasets, so ExpConfig::standard() silently
        // benchmarked fewer datasets than advertised.
        for n in 1..=39usize {
            let cfg = ExpConfig {
                n_datasets: n,
                ..Default::default()
            };
            let ds = cfg.datasets();
            assert_eq!(ds.len(), n, "n_datasets: {n}");
            // All distinct, in Table 2 order.
            let ids: Vec<u32> = ds.iter().map(|m| m.openml_id).collect();
            let mut dedup = ids.clone();
            dedup.dedup();
            assert_eq!(ids, dedup, "duplicate rows for n = {n}");
        }
        // Counts beyond the table clamp to the full 39.
        let cfg = ExpConfig {
            n_datasets: 64,
            ..Default::default()
        };
        assert_eq!(cfg.datasets().len(), 39);
    }

    #[test]
    fn standard_profile_benchmarks_its_advertised_16() {
        assert_eq!(ExpConfig::standard().datasets().len(), 16);
    }

    #[test]
    fn shared_grid_is_cached() {
        let cfg = ExpConfig::smoke();
        let mut shared = SharedPoints::default();
        let n1 = shared.grid(&cfg).len();
        let n2 = shared.grid(&cfg).len();
        assert_eq!(n1, n2);
        assert!(n1 > 0);
        // 7 systems on 2 datasets at one 10s budget: ASKL 1 & 2 and TPOT
        // are excluded by their budget floors => 4 systems x 2 datasets.
        assert_eq!(n1, 8);
    }
}
