//! The development-stage optimiser of the paper's §2.5 (Fig. 2).
//!
//! To tune CAML's AutoML-system parameters for one search budget:
//!
//! 1. cluster the candidate dataset pool by metadata features (k-means) and
//!    keep the dataset closest to each centroid — the *top-k representative
//!    datasets*;
//! 2. run Bayesian optimisation over the AutoML-parameter space; each trial
//!    runs tuned-CAML and default-CAML (`runs_per_eval` times each, "to
//!    reduce the variance without introducing excessive computation
//!    overhead") on the representatives and scores the *relative
//!    improvement* `(acc_ω − acc_default) / max(acc_ω, acc_default)`
//!    averaged across datasets;
//! 3. prune trials whose running mean falls below the median of completed
//!    trials at the same dataset index (median pruning).
//!
//! Everything the tuner executes is metered: the summed execution energy is
//! the **development-stage cost** reported in Fig. 7 / Tables 8–9.
//!
//! The CAML runs are independent, so the tuner runs them on the worker
//! pool, in batches of runs the serial order is certain to compute: the
//! baseline is one batch, and a trial runs its datasets up to the first
//! one after which the pruner may fire ([`MedianPruner::may_prune`]) as
//! one batch, then the next stretch the same way. Each batch's results
//! are consumed in (dataset, run) order, so the outcome and its
//! development cost are bitwise the same at every worker count, and
//! nothing is computed and then thrown away.

use crate::benchmark::{run_once_with, BenchmarkOptions, PointMemo};
use crate::executor::{catch_cell, resolve_parallelism, run_indexed, CellOutcome};
use green_automl_dataset::{DatasetMeta, MaterializeOptions, MetaFeatures};
use green_automl_energy::{Measurement, OpCounts};
use green_automl_optim::{kmeans, representatives, BayesOpt, Config, ConfigSpace, MedianPruner};
use green_automl_systems::pipespace::{Bounds, Family};
use green_automl_systems::{Caml, CamlParams, RunSpec};

/// Tuner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevTuneOptions {
    /// The search budget (seconds) the AutoML parameters are tuned for —
    /// §2.5 notes the result is budget-specific.
    pub budget_s: f64,
    /// Representative datasets kept (paper: top-20 of 124).
    pub top_k: usize,
    /// Meta-BO iterations (paper: 300).
    pub bo_iters: usize,
    /// CAML repetitions per (trial, dataset) — paper: 2.
    pub runs_per_eval: usize,
    /// Dataset materialisation profile for the tuning runs.
    pub materialize: MaterializeOptions,
    /// Seed.
    pub seed: u64,
}

impl Default for DevTuneOptions {
    fn default() -> Self {
        DevTuneOptions {
            budget_s: 10.0,
            top_k: 20,
            bo_iters: 30,
            runs_per_eval: 2,
            materialize: MaterializeOptions::benchmark(),
            seed: 0,
        }
    }
}

/// The tuning result.
#[derive(Debug, Clone)]
pub struct DevTuneOutcome {
    /// The winning AutoML-system parameters.
    pub params: CamlParams,
    /// Total development-stage cost: summed over every CAML run the tuner
    /// executed, in the serial order at every worker count.
    pub development: Measurement,
    /// Relative-improvement meta-score of the winner.
    pub best_meta_score: f64,
    /// Mean tuned-CAML balanced accuracy on the representatives.
    pub best_accuracy: f64,
    /// Trials evaluated.
    pub n_trials: usize,
    /// Trials stopped early by median pruning.
    pub n_pruned: usize,
    /// Names of the representative datasets.
    pub representatives: Vec<String>,
}

/// The §2.5 tuner.
#[derive(Debug, Clone, Copy, Default)]
pub struct DevTuner;

/// The meta-space over CAML's AutoML-system parameters: family-inclusion
/// flags, the scaler flag, search-space bound ceilings, and the six system
/// parameters of §3.7.
pub fn meta_space() -> ConfigSpace {
    let mut s = ConfigSpace::new();
    for f in Family::all() {
        s = s.add_cat(f.name(), 2);
    }
    s.add_cat("scalers", 2)
        .add_int("depth_hi", 4, 18, false)
        .add_int("trees_hi", 8, 96, true)
        .add_int("gb_rounds_hi", 8, 60, true)
        .add_int("epochs_hi", 8, 45, false)
        .add_float("holdout_frac", 0.1, 0.45, false)
        .add_float("eval_fraction", 0.05, 0.3, false)
        .add_float("sampling_frac", 0.2, 1.0, false)
        .add_cat("refit", 2)
        .add_cat("resample_validation", 2)
        .add_cat("incremental_training", 2)
}

/// Decode a meta-configuration into [`CamlParams`].
pub fn decode_meta(c: &Config) -> CamlParams {
    let all = Family::all();
    let mut families: Vec<Family> = all
        .iter()
        .enumerate()
        .filter(|&(i, _)| c.cat(i) == 1)
        .map(|(_, &f)| f)
        .collect();
    if families.is_empty() {
        // An empty space is not executable; fall back to the two strongest
        // tabular families.
        families = vec![Family::GradientBoosting, Family::RandomForest];
    }
    let base = 9;
    let bounds = Bounds {
        depth: (2, c.int(base + 1).max(3)),
        n_trees: (4, c.int(base + 2).max(5)),
        gb_rounds: (5, c.int(base + 3).max(6)),
        epochs: (5, c.int(base + 4).max(6)),
        ..Bounds::default()
    };
    CamlParams {
        families,
        scalers: c.cat(base) == 1,
        bounds,
        holdout_frac: c.float(base + 5),
        eval_fraction: c.float(base + 6),
        sampling_frac: c.float(base + 7),
        refit: c.cat(base + 8) == 1,
        resample_validation: c.cat(base + 9) == 1,
        incremental_training: c.cat(base + 10) == 1,
        // Extensions are not part of the paper's tuned surface.
        early_stop_patience: None,
        energy_weight: 0.0,
    }
}

fn add_measurement(total: &mut Measurement, m: &Measurement) {
    total.duration_s += m.duration_s;
    total.energy.package_j += m.energy.package_j;
    total.energy.dram_j += m.energy.dram_j;
    total.energy.gpu_j += m.energy.gpu_j;
    total.ops += m.ops;
}

impl DevTuner {
    /// Pick the top-k representative datasets of `pool` by k-means over
    /// metadata features. Returns indices into `pool`.
    pub fn select_representatives(pool: &[DatasetMeta], k: usize, seed: u64) -> Vec<usize> {
        assert!(k >= 1 && k <= pool.len(), "k out of range");
        let feats: Vec<Vec<f64>> = pool
            .iter()
            .map(|m| MetaFeatures::from_meta(m).as_vec())
            .collect();
        let km = kmeans(&feats, k, 25, seed);
        representatives(&feats, &km)
    }

    /// Run the full tuning procedure over a fresh call-local
    /// [`PointMemo`], one worker per core; [`DevTuner::tune_with`] shares a
    /// run's memo and worker count instead.
    pub fn tune(pool: &[DatasetMeta], opts: &DevTuneOptions) -> DevTuneOutcome {
        Self::tune_with(pool, opts, Some(&PointMemo::default()), 0)
    }

    /// [`DevTuner::tune`] through the run's point `memo`. Tunes that share
    /// options, representatives or a trial prefix (Fig. 7 and Tables 5, 8
    /// and 9) then compute each shared CAML run once; its development
    /// energy is still summed every time the tuner executes it.
    ///
    /// The memo handle is also the run's evaluation-cache switch: `None`
    /// (what `SharedPoints::memo` returns under `--no-eval-cache`) computes
    /// every CAML run live, with no [`EvalCache`](green_automl_ml::EvalCache)
    /// inside its fit either. The outcome is bitwise the same either way.
    ///
    /// `parallelism` is the worker count (`0` = one per core, `1` = the
    /// serial order); the outcome, its development cost and the runs
    /// computed are the same at every setting.
    pub fn tune_with(
        pool: &[DatasetMeta],
        opts: &DevTuneOptions,
        memo: Option<&PointMemo>,
        parallelism: usize,
    ) -> DevTuneOutcome {
        assert!(
            opts.top_k >= 1 && opts.top_k <= pool.len(),
            "top_k out of range"
        );
        assert!(opts.bo_iters >= 1 && opts.runs_per_eval >= 1);

        let rep_idx = Self::select_representatives(pool, opts.top_k, opts.seed);
        let reps: Vec<DatasetMeta> = rep_idx.iter().map(|&i| pool[i]).collect();

        let mut development = Measurement::default();
        // Clustering bookkeeping is development work too.
        development.ops += OpCounts::scalar((pool.len() * opts.top_k * 6 * 25) as f64);

        let bench_opts = BenchmarkOptions {
            materialize: opts.materialize,
            runs: 1,
            test_frac: 0.34,
            parallelism: 1,
            eval_cache: memo.is_some(),
        };
        let runs = opts.runs_per_eval;
        let workers = resolve_parallelism(parallelism);
        // Run `system` `runs` times on each of `datasets` (run `r` at seed
        // `opts.seed ^ r·7919 ^ salt`) on the worker pool; the (execution,
        // accuracy) results come back in (dataset, run) order, and a
        // panicking run panics the tune with the first failure in that
        // order, its message intact.
        let run_batch = |system: &Caml, datasets: &[DatasetMeta], salt: u64| {
            let outcomes = run_indexed(datasets.len() * runs, workers, |i| {
                let seed = opts.seed ^ ((i % runs) as u64 * 7919) ^ salt;
                let spec = RunSpec::single_core(opts.budget_s, seed);
                catch_cell(|| {
                    let p = run_once_with(system, &datasets[i / runs], &spec, &bench_opts, memo);
                    (p.execution, p.balanced_accuracy)
                })
            });
            outcomes
                .into_iter()
                .map(|outcome| match outcome {
                    CellOutcome::Ok(result) => result,
                    CellOutcome::Failed(msg) => std::panic::resume_unwind(Box::new(msg)),
                })
                .collect::<Vec<(Measurement, f64)>>()
        };

        // Baseline: default CAML per (dataset, run-seed), in one batch.
        let default_caml = Caml::default();
        let baseline = run_batch(&default_caml, &reps, 0);
        for (execution, _) in &baseline {
            add_measurement(&mut development, execution);
        }
        let base_means: Vec<f64> = baseline
            .chunks(runs)
            .map(|per_dataset| per_dataset.iter().map(|(_, acc)| acc).sum::<f64>() / runs as f64)
            .collect();

        let mut bo = BayesOpt::new(meta_space(), opts.seed ^ 0xde7);
        bo.n_init = (opts.bo_iters / 4).clamp(3, 10);
        let mut pruner = MedianPruner::new(1, 4);
        let mut best: Option<(f64, f64, CamlParams)> = None; // (meta, acc, params)
        let mut n_pruned = 0usize;

        for trial in 0..opts.bo_iters {
            let (config, ops) = bo.suggest();
            development.ops += ops;
            let params = decode_meta(&config);
            let system = Caml::tuned(params.clone());

            let mut rel_sum = 0.0;
            let mut acc_sum = 0.0;
            let mut trajectory = Vec::with_capacity(reps.len());
            let mut pruned = false;
            let mut start = 0;
            // The pruner only changes between trials, so each batch ends
            // at the first dataset after which it may fire: every run in a
            // batch is one the serial order computes.
            while start < reps.len() && !pruned {
                let end = (start..reps.len())
                    .find(|&di| pruner.may_prune(di))
                    .unwrap_or(reps.len() - 1);
                let results = run_batch(&system, &reps[start..=end], (trial as u64) << 16);
                for (di, per_dataset) in (start..).zip(results.chunks(runs)) {
                    let mut tuned_mean = 0.0;
                    for (execution, accuracy) in per_dataset {
                        add_measurement(&mut development, execution);
                        tuned_mean += accuracy;
                    }
                    tuned_mean /= runs as f64;
                    let base_mean = base_means[di];
                    let rel = (tuned_mean - base_mean) / tuned_mean.max(base_mean).max(1e-9);
                    rel_sum += rel;
                    acc_sum += tuned_mean;
                    let running = rel_sum / (di + 1) as f64;
                    trajectory.push(running);
                    if pruner.should_prune(di, running) {
                        pruned = true;
                        n_pruned += 1;
                        break;
                    }
                }
                start = end + 1;
            }
            let evaluated = trajectory.len();
            let meta_score = rel_sum / evaluated.max(1) as f64;
            bo.observe(config, meta_score);
            if !pruned {
                pruner.record_completed(&trajectory);
                let acc = acc_sum / evaluated.max(1) as f64;
                if best.as_ref().is_none_or(|(s, _, _)| meta_score > *s) {
                    best = Some((meta_score, acc, params));
                }
            }
        }

        let (best_meta_score, best_accuracy, params) =
            best.unwrap_or((0.0, 0.0, CamlParams::default()));
        DevTuneOutcome {
            params,
            development,
            best_meta_score,
            best_accuracy,
            n_trials: opts.bo_iters,
            n_pruned,
            representatives: reps.iter().map(|m| m.name.to_string()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::dev_binary_pool;
    use green_automl_energy::hash::fnv1a;
    use green_automl_energy::rng::SplitMix64;

    fn tiny_opts() -> DevTuneOptions {
        DevTuneOptions {
            budget_s: 5.0,
            top_k: 3,
            bo_iters: 4,
            runs_per_eval: 1,
            materialize: MaterializeOptions::tiny(),
            seed: 0,
        }
    }

    #[test]
    fn representatives_are_distinct_and_spread() {
        let pool = dev_binary_pool();
        let reps = DevTuner::select_representatives(&pool, 10, 0);
        let set: std::collections::BTreeSet<usize> = reps.iter().copied().collect();
        assert_eq!(set.len(), 10);
        // Representatives should span small and large datasets.
        let sizes: Vec<usize> = reps.iter().map(|&i| pool[i].instances).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(*max > *min * 10, "spread too small: {sizes:?}");
    }

    #[test]
    fn meta_space_roundtrip() {
        let space = meta_space();
        assert_eq!(space.len(), 9 + 1 + 4 + 3 + 3);
        let mut rng = SplitMix64::seed_from_u64(0);
        for _ in 0..50 {
            let c = space.sample(&mut rng);
            let p = decode_meta(&c);
            assert!(!p.families.is_empty());
            assert!(p.bounds.depth.1 >= 3);
            assert!((0.1..=0.45).contains(&p.holdout_frac));
        }
    }

    #[test]
    fn empty_family_selection_falls_back() {
        let space = meta_space();
        let mut values = vec![0.0; space.len()];
        // All family flags zero.
        values[10] = 10.0; // depth_hi
        values[11] = 16.0;
        values[12] = 16.0;
        values[13] = 16.0;
        values[14] = 0.3;
        values[15] = 0.1;
        values[16] = 0.8;
        let p = decode_meta(&Config::from_values(values));
        assert_eq!(p.families.len(), 2);
    }

    #[test]
    fn tuner_runs_end_to_end_and_meters_development() {
        let pool = dev_binary_pool();
        let out = DevTuner::tune(&pool[..12], &tiny_opts());
        assert_eq!(out.representatives.len(), 3);
        assert_eq!(out.n_trials, 4);
        assert!(
            out.development.kwh() > 0.0,
            "development energy must be metered"
        );
        assert!(out.development.duration_s > 0.0);
        assert!(!out.params.families.is_empty());
        assert!(out.best_accuracy > 0.0);
    }

    /// The development measurement, best meta-score and best accuracy of
    /// `o`, as bits.
    fn outcome_bits(o: &DevTuneOutcome) -> [u64; 10] {
        let Measurement {
            duration_s,
            energy,
            ops,
        } = o.development;
        [
            duration_s,
            energy.package_j,
            energy.dram_j,
            energy.gpu_j,
            ops.scalar_flops,
            ops.matmul_flops,
            ops.tree_steps,
            ops.mem_bytes,
            o.best_meta_score,
            o.best_accuracy,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn an_uncached_tune_matches_a_cached_one_bit_for_bit() {
        let pool = dev_binary_pool();
        let cached = DevTuner::tune(&pool[..12], &tiny_opts());
        let uncached = DevTuner::tune_with(&pool[..12], &tiny_opts(), None, 1);
        assert_eq!(outcome_bits(&uncached), outcome_bits(&cached));
        assert_eq!(
            format!("{:?}", uncached.params),
            format!("{:?}", cached.params)
        );
        assert_eq!(
            (uncached.n_trials, uncached.n_pruned),
            (cached.n_trials, cached.n_pruned)
        );
        assert_eq!(uncached.representatives, cached.representatives);
    }

    #[test]
    fn more_iterations_cost_more_development_energy() {
        let pool = dev_binary_pool();
        let cheap = DevTuner::tune(&pool[..12], &tiny_opts());
        let mut more = tiny_opts();
        more.bo_iters = 8;
        let costly = DevTuner::tune(&pool[..12], &more);
        assert!(
            costly.development.kwh() > cheap.development.kwh(),
            "8 iters {:.4e} should cost more than 4 iters {:.4e}",
            costly.development.kwh(),
            cheap.development.kwh()
        );
    }

    /// Pinned from the serial tuner, before its runs moved onto the worker
    /// pool: 8 trials on 3 representatives, 2 runs each, and the median
    /// pruner stops 4 of them after their second dataset, so batches are
    /// cut where it may fire.
    #[test]
    fn devtune_bits_match_the_pinned_values() {
        let pool = dev_binary_pool();
        let opts = DevTuneOptions {
            bo_iters: 8,
            runs_per_eval: 2,
            ..tiny_opts()
        };
        for parallelism in [1, 2] {
            let memo = PointMemo::default();
            let out = DevTuner::tune_with(&pool[..12], &opts, Some(&memo), parallelism);
            assert_eq!(
                outcome_bits(&out),
                [
                    0x406d484befc6a6f2,
                    0x40b50b1ad02f142d,
                    0x4095f9501c63eaeb,
                    0x0000000000000000,
                    0x4258cc97073e8c46,
                    0x423808f6cdcf1800,
                    0x420067292e2d5888,
                    0x4207fc3293144444,
                    0x3f932dc05bc12213,
                    0x3feaa84939962f5d,
                ],
                "at {parallelism} worker(s)"
            );
            assert_eq!(
                fnv1a(format!("{:?}", out.params).bytes()),
                0xe3b9ebfeae28d73c
            );
            assert_eq!((out.n_trials, out.n_pruned), (8, 4));
            assert_eq!(out.representatives, ["dev-010", "dev-006", "dev-000"]);
            assert_eq!(memo.len(), 46, "6 baseline runs, 4 × 6 + 4 × 4 trial runs");
        }
    }
}
