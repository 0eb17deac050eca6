//! The three workloads: their inputs (built in the untimed set-up), one
//! timed repetition each, and the output checks every repetition runs.
//!
//! Each workload drives the library only through public entry points, from
//! this one process, with at most `nproc` worker threads.

use green_automl_core::benchmark::{run_grid_checked, BenchmarkOptions, BenchmarkPoint, GridRun};
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::{amlb39, dev_binary_pool, Dataset, DatasetMeta, MaterializeOptions};
use green_automl_energy::{CarbonProfile, FaultPlan, GridIntensity, StableHasher};
use green_automl_experiments::{all_experiment_ids, run_experiment, ExpConfig, SharedPoints};
use green_automl_serve::{
    run_fleet, serve, AutoscalePolicy, FleetConfig, FleetReport, FleetTrace, FleetTrafficConfig,
    RegionSpec, RouterPolicy, ServeConfig, ServingReport, Shape, TenantSpec, TenantTraffic,
    TrafficConfig, TrafficTrace,
};
use green_automl_systems::{all_systems, AutoGluon, AutoMlSystem, Caml, Flaml, Predictor, RunSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// What one timed repetition did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Program-level operations attempted: grid cells, experiment ids, or
    /// serving calls.
    pub attempted: usize,
    /// Operations that panicked, failed, or failed an output check.
    /// Simulated shed or failed requests are outputs, not failures.
    pub failed: usize,
    /// Digest of everything the repetition produced; repetitions of one
    /// invocation must agree on it.
    pub digest: u64,
    /// Per-part throughputs `(name, work units, wall seconds)` printed by
    /// name beside the end-to-end metrics.
    pub parts: Vec<(&'static str, usize, f64)>,
}

/// A workload: an untimed set-up that builds its inputs from the seed, and
/// a timed repetition over them.
pub trait Workload: Sized {
    fn setup(seed: u64, nproc: usize) -> Self;
    fn rep(&mut self) -> Outcome;
}

/// Stable short name of a system, as used in per-layer metric names.
pub fn short_name(system: &dyn AutoMlSystem) -> &'static str {
    use green_automl_systems::SystemId::*;
    match system.id() {
        TabPfn => "tabpfn",
        AutoGluon => "autogluon",
        AutoSklearn1 => "askl1",
        AutoSklearn2 => "askl2",
        Caml => "caml",
        Tpot => "tpot",
        Flaml => "flaml",
        _ => "other",
    }
}

/// Bitwise digest of a grid's points and failures: every float enters by
/// its bit pattern.
pub fn grid_digest(grid: &GridRun) -> u64 {
    let mut h = StableHasher::new(0x9e1d);
    h.write_usize(grid.points.len());
    for p in &grid.points {
        h.write_str(&p.system.to_string());
        h.write_str(&p.dataset);
        h.write_f64(p.budget_s);
        h.write_u64(p.seed);
        h.write_f64(p.balanced_accuracy);
        h.write_f64(p.execution.energy.total_joules());
        h.write_f64(p.execution.duration_s);
        h.write_f64(p.inference_kwh_per_row);
        h.write_usize(p.n_evaluations);
        h.write_f64(p.wasted_j);
    }
    h.write_usize(grid.failures.len());
    h.finish()
}

/// Output-check violations of one grid point: energies must be finite and
/// balanced accuracy must lie in [0, 1].
fn point_violations(p: &BenchmarkPoint) -> usize {
    let finite = [
        p.execution.energy.total_joules(),
        p.execution.duration_s,
        p.inference_kwh_per_row,
        p.inference_s_per_row,
        p.wasted_j,
    ]
    .iter()
    .all(|v| v.is_finite());
    usize::from(!finite || !(0.0..=1.0).contains(&p.balanced_accuracy))
}

// ---------------------------------------------------------------- grid

/// Search budgets of the grid workload, seconds. Nested budgets make a
/// share of evaluations eval-cache hits, so lookups run beside inserts.
pub const GRID_BUDGETS: [f64; 3] = [10.0, 30.0, 60.0];
/// Datasets of the grid workload, spread evenly over Table 2.
pub const GRID_DATASETS: usize = 4;

/// The seed of every search the benchmark times, whatever `--seed` says.
/// Wall time hangs on a few seed-dependent heavy cells: across five
/// workload seeds one grid call took 11–14 s and once 31 s, a repro pass
/// 3.4–4.5 s, and the serving calls 6.3–7.4 s (the fitted ensemble's size
/// differs). No run length the benchmark can afford averages that out, so
/// `grid`, `repro` and the `serve` fits use one fixed input; `--seed`
/// varies the `serve` traffic, replica crashes and carbon curves.
pub const FIXED_SEED: u64 = 0;

/// The grid's datasets: `GRID_DATASETS` rows spread evenly over Table 2
/// without its last row, `blood-transfusion-service-center`. On that
/// 4-feature dataset AutoSklearn2 at the 60 s budget takes ~50 s of wall
/// time for some run seeds (e.g. 1467) against ~0.1 s for most others, so
/// keeping it would make grid timings bimodal across workload seeds. The
/// serve workload still fits on it.
fn grid_datasets() -> Vec<DatasetMeta> {
    let all = amlb39();
    let rows = &all[..all.len() - 1];
    (0..GRID_DATASETS)
        .map(|i| rows[i * (rows.len() - 1) / (GRID_DATASETS - 1)])
        .collect()
}

/// One schedulable grid cell, in the library's reference serial order
/// (system → dataset → run → budget).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub system: usize,
    pub dataset: usize,
    pub seed: u64,
    /// `None` for a budget-free system, reported at every budget.
    pub budget_s: Option<f64>,
}

/// The grid workload: 7 systems × 4 datasets × 3 budgets × 1 run.
pub struct Grid {
    pub systems: Vec<Box<dyn AutoMlSystem>>,
    pub datasets: Vec<DatasetMeta>,
    pub spec: RunSpec,
    pub opts: BenchmarkOptions,
    pub cells: Vec<Cell>,
}

impl Grid {
    /// The enumerated cells expand to this many points.
    pub fn expected_points(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.budget_s.map_or(GRID_BUDGETS.len(), |_| 1))
            .sum()
    }

    /// One `run_grid_checked` call over the workload's grid.
    pub fn run(&self, checkpoint: Option<&Path>) -> GridRun {
        run_grid_checked(
            &self.systems,
            &self.datasets,
            &GRID_BUDGETS,
            &self.spec,
            &self.opts,
            checkpoint,
        )
        .expect("the grid workload's RunSpec is valid")
    }

    /// Output-check violations of one grid result.
    pub fn violations(&self, grid: &GridRun) -> usize {
        usize::from(grid.points.len() != self.expected_points())
            + grid.failures.len()
            + grid.points.iter().map(point_violations).sum::<usize>()
    }

    /// The materialisation options of one cell's dataset.
    pub fn materialize_opts(&self, cell: &Cell) -> MaterializeOptions {
        MaterializeOptions {
            seed: cell.seed,
            ..self.opts.materialize
        }
    }
}

impl Workload for Grid {
    fn setup(_seed: u64, nproc: usize) -> Grid {
        let systems = all_systems();
        let datasets = grid_datasets();
        let spec = RunSpec::single_core(GRID_BUDGETS[0], FIXED_SEED);
        let opts = BenchmarkOptions {
            materialize: MaterializeOptions::benchmark(),
            runs: 1,
            test_frac: 0.34,
            parallelism: nproc,
            eval_cache: true,
        };
        let mut cells = Vec::new();
        for (system, sys) in systems.iter().enumerate() {
            for (dataset, meta) in datasets.iter().enumerate() {
                for run in 0..opts.runs {
                    let seed = spec.seed ^ (run as u64 * 0x9e37) ^ meta.openml_id as u64;
                    let budgets: Vec<Option<f64>> = if sys.budget_free() {
                        vec![None]
                    } else {
                        GRID_BUDGETS
                            .iter()
                            .filter(|&&b| b >= sys.min_budget_s())
                            .map(|&b| Some(b))
                            .collect()
                    };
                    cells.extend(budgets.into_iter().map(|budget_s| Cell {
                        system,
                        dataset,
                        seed,
                        budget_s,
                    }));
                }
            }
        }
        let grid = Grid {
            systems,
            datasets,
            spec,
            opts,
            cells,
        };
        // Warm-up: synthesise every (dataset, seed) input the grid reads.
        for cell in &grid.cells {
            std::hint::black_box(
                grid.datasets[cell.dataset].materialize(&grid.materialize_opts(cell)),
            );
        }
        grid
    }

    fn rep(&mut self) -> Outcome {
        let grid = catch_unwind(AssertUnwindSafe(|| crate::probe::timed(|| self.run(None))));
        let (failed, points, digest, wall) = match &grid {
            Ok((g, wall)) => (self.violations(g), g.points.len(), grid_digest(g), *wall),
            Err(_) => (self.cells.len(), 0, 0, 0.0),
        };
        Outcome {
            attempted: self.cells.len(),
            failed: failed.min(self.cells.len()),
            digest,
            parts: vec![("points_per_s", points, wall)],
        }
    }
}

// --------------------------------------------------------------- serve

/// Replicas behind the single-tenant `serve` deployment.
pub const SERVE_REPLICAS: usize = 4;
/// Requests in the single-tenant Poisson trace.
pub const SERVE_REQUESTS: usize = 60_000;
/// Its arrival rate, requests per virtual second: high enough that the
/// queue deepens and queue-depth shedding fires on a few percent of the
/// requests (with chaos replica crashes retrying a few percent more).
pub const SERVE_RPS: f64 = 1_000.0;
/// Queue depth beyond which the scheduler sheds whole batches.
pub const SHED_QUEUE_DEPTH: usize = 32;
/// Requests each fleet tenant sends.
pub const FLEET_REQUESTS: usize = 30_000;
/// Base arrival rate per fleet tenant, requests per virtual second.
pub const FLEET_RPS: f64 = 500.0;
/// The p99 latency objective of every tenant, seconds.
pub const SLO_S: f64 = 0.05;

/// The serve workload: fitted tenants and pre-generated traces.
pub struct Serve {
    pub test: Dataset,
    /// The AutoGluon ensemble behind the single-tenant `serve` call.
    pub ensemble: Predictor,
    pub tenants: Vec<TenantSpec>,
    pub trace: TrafficTrace,
    pub fleet_trace: FleetTrace,
    pub serve_cfg: ServeConfig,
    pub fleet_cfg: FleetConfig,
    /// Wall seconds the set-up spent generating both traces.
    pub traffic_gen_s: f64,
}

/// The registry dataset the `serve` and `fleet` artefacts deploy on.
pub fn serving_split(seed: u64) -> (Dataset, Dataset) {
    let meta = amlb39()
        .into_iter()
        .find(|m| m.name == "blood-transfusion-service-center")
        .expect("the registry holds the serving dataset");
    let ds = meta.materialize(&MaterializeOptions::benchmark());
    train_test_split(&ds, 0.34, seed ^ 0x66_34)
}

/// FLAML, CAML and AutoGluon fitted at the 60 s budget, as fleet tenants.
pub fn fit_tenants(train: &Dataset, seed: u64) -> Vec<TenantSpec> {
    let spec = RunSpec::single_core(60.0, seed);
    let systems: Vec<Box<dyn AutoMlSystem>> = vec![
        Box::new(Flaml::default()),
        Box::new(Caml::default()),
        Box::new(AutoGluon::default()),
    ];
    systems
        .iter()
        .map(|s| TenantSpec::new(s.id().as_str(), s.fit(train, &spec).predictor, SLO_S))
        .collect()
}

/// The single-tenant Poisson trace and the three-tenant shaped fleet trace
/// (diurnal, burst, flash crowd).
pub fn traces(seed: u64, pool_rows: usize) -> (TrafficTrace, FleetTrace) {
    let trace = TrafficConfig {
        rps: SERVE_RPS,
        n_requests: SERVE_REQUESTS,
        seed: seed ^ 0x5e47e,
    }
    .generate(pool_rows);
    let day_s = FLEET_REQUESTS as f64 / FLEET_RPS;
    let shapes = [
        Shape::Diurnal {
            period_s: day_s,
            amplitude: 0.4,
            peak_s: 0.25 * day_s,
        },
        Shape::Burst {
            start_s: 0.45 * day_s,
            duration_s: 0.1 * day_s,
            factor: 3.0,
        },
        Shape::FlashCrowd {
            at_s: 0.7 * day_s,
            ramp_s: 0.05 * day_s,
            peak_factor: 6.0,
            decay_s: 0.08 * day_s,
        },
    ];
    let fleet_trace = FleetTrafficConfig {
        tenants: shapes
            .into_iter()
            .enumerate()
            .map(|(t, shape)| TenantTraffic {
                tenant: t as u32,
                rps: FLEET_RPS,
                shapes: vec![shape],
                n_requests: FLEET_REQUESTS,
                seed: seed ^ 0xf1ee7 ^ (t as u64) << 32,
            })
            .collect(),
    }
    .generate(pool_rows);
    (trace, fleet_trace)
}

/// The carbon-aware, elastically autoscaled three-region fleet.
fn fleet_config(seed: u64, nproc: usize) -> FleetConfig {
    let day_s = FLEET_REQUESTS as f64 / FLEET_RPS;
    let regions = [
        ("germany", GridIntensity::GERMANY),
        ("poland", GridIntensity::POLAND),
        ("sweden", GridIntensity::SWEDEN),
    ]
    .iter()
    .enumerate()
    .map(|(i, (name, grid))| {
        let mut carbon = CarbonProfile::seeded(*grid, seed ^ i as u64);
        carbon.peak_s *= day_s / CarbonProfile::DAY_S;
        carbon.period_s = day_s;
        RegionSpec::new(name, carbon, 1)
    })
    .collect();
    FleetConfig {
        autoscale: AutoscalePolicy::elastic(1, SERVE_REPLICAS),
        host_parallelism: nproc,
        ..FleetConfig::cpu_testbed(regions)
    }
    .with_router(RouterPolicy::CarbonAware {
        latency_slack_s: 0.5 * SLO_S,
    })
}

/// Output-check violations of the two serving reports: busy energy must be
/// positive, every request accounted for, and the fleet must have answered.
fn serve_violations(s: &Serve, single: &ServingReport, fleet: &FleetReport) -> usize {
    let fleet_busy: f64 = fleet.regions.iter().map(|r| r.busy_j).sum();
    // `> 0.0` is false for NaN, so a NaN energy fails too.
    let positive = |j: f64| j > 0.0;
    usize::from(!positive(single.busy_j) || single.n_requests != s.trace.len())
        + usize::from(
            !positive(fleet_busy)
                || fleet.predictions.is_empty()
                || fleet.n_requests != s.fleet_trace.requests.len(),
        )
}

fn serving_digest(single: &ServingReport, fleet: &FleetReport) -> u64 {
    let mut h = StableHasher::new(0x5e7e);
    for p in single.predictions.iter().chain(&fleet.predictions) {
        h.write_u64(u64::from(*p));
    }
    h.write_f64(single.busy_j);
    h.write_f64(single.wasted_j);
    h.write_usize(single.shed_requests);
    h.write_usize(single.retried_requests);
    h.write_str(&fleet.to_text());
    h.finish()
}

impl Serve {
    /// The two timed serving calls, each with its wall seconds.
    pub fn calls(&self) -> ((ServingReport, f64), (FleetReport, f64)) {
        let single =
            crate::probe::timed(|| serve(&self.ensemble, &self.test, &self.trace, &self.serve_cfg));
        let fleet = crate::probe::timed(|| {
            run_fleet(
                &self.tenants,
                &self.test,
                &self.fleet_trace,
                &self.fleet_cfg,
            )
        });
        (single, fleet)
    }

    /// Output-check violations and digest of one pair of serving reports.
    pub fn check(&self, single: &ServingReport, fleet: &FleetReport) -> (usize, u64) {
        (
            serve_violations(self, single, fleet),
            serving_digest(single, fleet),
        )
    }
}

impl Workload for Serve {
    fn setup(seed: u64, nproc: usize) -> Serve {
        // The deployed models are fixed (their size sets the cost of every
        // request); the seed varies the traffic, crashes and carbon curves.
        let (train, test) = serving_split(FIXED_SEED);
        let tenants = fit_tenants(&train, FIXED_SEED);
        let ensemble = tenants[2].predictor.clone();
        let ((trace, fleet_trace), traffic_gen_s) =
            crate::probe::timed(|| traces(seed, test.n_rows()));
        let serve_cfg = ServeConfig {
            host_parallelism: nproc,
            shed_queue_depth: SHED_QUEUE_DEPTH,
            ..ServeConfig::cpu_testbed(SERVE_REPLICAS)
        }
        .with_fault(FaultPlan::chaos(seed ^ 0xc4a06));
        Serve {
            test,
            ensemble,
            tenants,
            trace,
            fleet_trace,
            serve_cfg,
            fleet_cfg: fleet_config(seed, nproc),
            traffic_gen_s,
        }
    }

    fn rep(&mut self) -> Outcome {
        let calls = catch_unwind(AssertUnwindSafe(|| self.calls()));
        match calls {
            Ok(((single, single_s), (fleet, fleet_s))) => {
                let (failed, digest) = self.check(&single, &fleet);
                Outcome {
                    attempted: 2,
                    failed,
                    digest,
                    parts: vec![
                        ("serve_req_per_s", single.n_requests, single_s),
                        ("fleet_req_per_s", fleet.n_requests, fleet_s),
                    ],
                }
            }
            Err(_) => Outcome {
                attempted: 2,
                failed: 2,
                ..Outcome::default()
            },
        }
    }
}

// --------------------------------------------------------------- repro

/// The repro profile: every artefact at a reduced scale (see NOTES.md for
/// why this size), with the eval cache on and `nproc` workers.
pub fn repro_config(seed: u64, nproc: usize) -> ExpConfig {
    ExpConfig {
        seed,
        parallelism: nproc,
        eval_cache: true,
        ..ExpConfig::smoke()
    }
}

/// The repro workload: every experiment id in paper order through
/// `run_experiment`, one `SharedPoints` per pass, output to a temp dir.
pub struct Repro {
    pub cfg: ExpConfig,
    pub out: PathBuf,
}

/// One experiment: run, render and write it. `Err` when it panicked, was
/// unknown, rendered nothing, or failed to write.
pub fn run_one(
    id: &str,
    cfg: &ExpConfig,
    shared: &mut SharedPoints,
    out: &Path,
) -> Result<String, ()> {
    let output = catch_unwind(AssertUnwindSafe(|| run_experiment(id, cfg, shared)))
        .map_err(|_| ())?
        .ok_or(())?;
    let text = output.render_text();
    if text.is_empty() || output.write_to(out).is_err() {
        return Err(());
    }
    Ok(text)
}

impl Workload for Repro {
    fn setup(_seed: u64, nproc: usize) -> Repro {
        let cfg = repro_config(FIXED_SEED, nproc);
        let out = std::env::temp_dir().join("repro");
        std::fs::create_dir_all(&out).expect("create the repro output dir");
        // Warm-up: synthesise every dataset the pass reads — the grid's,
        // the tuner's pool and the serving split.
        for meta in cfg.datasets().into_iter().chain(dev_binary_pool()) {
            std::hint::black_box(meta.materialize(&cfg.materialize));
        }
        std::hint::black_box(serving_split(FIXED_SEED));
        Repro { cfg, out }
    }

    fn rep(&mut self) -> Outcome {
        let ids = all_experiment_ids();
        let mut shared = SharedPoints::default();
        let mut h = StableHasher::new(0x4e90);
        let mut failed = 0;
        for id in &ids {
            match run_one(id, &self.cfg, &mut shared, &self.out) {
                Ok(text) => h.write_str(&text),
                Err(()) => failed += 1,
            }
        }
        Outcome {
            attempted: ids.len(),
            failed,
            digest: h.finish(),
            parts: Vec::new(),
        }
    }
}
