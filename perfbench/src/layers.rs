//! The layer run (`--trace 1`): per-layer numbers, timed from the
//! benchmark's own code around the calls into each crate's public
//! functions. Nothing inside the library is instrumented, and the layer run
//! is a separate invocation from the timed runs, so it never perturbs an
//! end-to-end number. It is the same for every workload and always prints
//! every per-layer metric.

use crate::probe::{timed, Metric};
use crate::workloads::{
    repro_config, run_one, short_name, Grid, Serve, Workload, FIXED_SEED, GRID_BUDGETS,
};
use green_automl_core::cluster::{run_grid_cluster, ClusterOptions};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::{dev_binary_pool, Dataset};
use green_automl_energy::trace::span_id;
use green_automl_energy::{CostTracker, FaultPlan, SpanKind};
use green_automl_experiments::{all_experiment_ids, SharedPoints};
use green_automl_ml::metrics::balanced_accuracy;
use green_automl_ml::EvalCache;
use green_automl_systems::{all_systems, FitContext, RunSpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// On `grid`, the timed materialise + split + fit + predict calls must
/// cover at least this share of the serial layer pass's wall time.
const MIN_COVERAGE: f64 = 0.9;

/// Checks made during the layer run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("layer check failed: {what}");
        }
    }
}

/// One serial pass over the grid's cells through a shared [`EvalCache`],
/// calling `materialize`, `train_test_split`, `fit_with` and `predict`
/// directly so every count is exact.
#[derive(Debug, Default)]
struct SerialPass {
    wall_s: f64,
    /// Summed wall of the per-cell work (excludes loop bookkeeping).
    cells_s: f64,
    materialize_s: f64,
    materialize_calls: usize,
    split_s: f64,
    fit_s: Vec<f64>,
    evals: Vec<usize>,
    predict_s: Vec<f64>,
    /// Balanced accuracy per cell, in reference cell order.
    accuracy: Vec<f64>,
    hits: u64,
    misses: u64,
    spans: usize,
}

impl SerialPass {
    fn covered_s(&self) -> f64 {
        self.materialize_s
            + self.split_s
            + self.fit_s.iter().sum::<f64>()
            + self.predict_s.iter().sum::<f64>()
    }
}

fn serial_pass(grid: &Grid, trace: bool) -> SerialPass {
    let n = grid.systems.len();
    let mut p = SerialPass {
        fit_s: vec![0.0; n],
        evals: vec![0; n],
        predict_s: vec![0.0; n],
        ..SerialPass::default()
    };
    let cache = EvalCache::new();
    let ctx = FitContext::with_cache(&cache);
    // One materialisation per (dataset, seed), as the grid's dataset cache.
    let mut inputs: BTreeMap<(usize, u64), Dataset> = BTreeMap::new();
    let t0 = Instant::now();
    for cell in &grid.cells {
        let c0 = Instant::now();
        let system = grid.systems[cell.system].as_ref();
        let meta = &grid.datasets[cell.dataset];
        let spec = RunSpec {
            seed: cell.seed,
            budget_s: cell.budget_s.unwrap_or(GRID_BUDGETS[0]),
            trace,
            ..grid.spec
        };
        let ds = inputs.entry((cell.dataset, cell.seed)).or_insert_with(|| {
            let (ds, t) = timed(|| meta.materialize(&grid.materialize_opts(cell)));
            p.materialize_s += t;
            p.materialize_calls += 1;
            ds
        });
        let ((train, test), t) =
            timed(|| train_test_split(ds, grid.opts.test_frac, spec.seed ^ 0x66_34));
        p.split_s += t;
        let (run, t) = timed(|| system.fit_with(&train, &spec, &ctx));
        p.fit_s[cell.system] += t;
        p.evals[cell.system] += run.n_evaluations;
        // Inference on its own meter, traced the way the grid traces it.
        let mut inf = CostTracker::new(spec.device, spec.cores);
        if trace {
            inf.enable_tracing(span_id(spec.seed, system.id().stable_hash() ^ 0x1f62));
            inf.span_open(SpanKind::System, || system.id().to_string());
            inf.span_open(SpanKind::Stage, || "inference".to_string());
            inf.span_open(SpanKind::Dataset, || meta.name.to_string());
        }
        let (pred, t) = timed(|| run.predictor.predict(&test, &mut inf));
        p.predict_s[cell.system] += t;
        p.accuracy
            .push(balanced_accuracy(&test.labels, &pred, test.n_classes));
        p.spans += run.trace.map_or(0, |t| t.len()) + inf.take_trace().map_or(0, |t| t.len());
        p.cells_s += c0.elapsed().as_secs_f64();
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    (p.hits, p.misses) = cache.stats();
    p
}

/// A serial pass's accuracies in the grid's point order, as bit patterns
/// (a budget-free cell's one fit is reported at every budget).
fn point_order_bits(grid: &Grid, pass: &SerialPass) -> Vec<u64> {
    grid.cells
        .iter()
        .zip(&pass.accuracy)
        .flat_map(|(cell, a)| {
            let width = cell.budget_s.map_or(GRID_BUDGETS.len(), |_| 1);
            std::iter::repeat_n(a.to_bits(), width)
        })
        .collect()
}

fn grid_layers(nproc: usize, m: &mut Vec<Metric>, checks: &mut Checks) {
    let grid = Grid::setup(FIXED_SEED, nproc);

    // The untimed-run reference: the same parallel, untraced call the timed
    // runs make.
    let (reference, ref_s) = timed(|| grid.run(None));
    checks.check(
        grid.violations(&reference) == 0,
        "grid points are complete and valid",
    );

    // Checkpointing: the same call writing a journal, then a rerun that
    // resumes every cell from it.
    let dir = std::env::temp_dir().join("checkpoint");
    std::fs::create_dir_all(&dir).expect("create the checkpoint dir");
    let ckpt = dir.join("grid.ckpt");
    let (written, write_s) = timed(|| grid.run(Some(&ckpt)));
    let (resumed, resume_s) = timed(|| grid.run(Some(&ckpt)));
    checks.check(
        written.points == reference.points && resumed.points == reference.points,
        "checkpointed and resumed grids equal the plain grid",
    );
    checks.check(
        resumed.resumed_cells == grid.cells.len(),
        "the rerun resumes every cell",
    );
    let bytes: u64 = std::fs::read_dir(&dir)
        .expect("list the checkpoint dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|md| md.len())
        .sum();

    let plain = serial_pass(&grid, false);
    let traced = serial_pass(&grid, true);
    let expected: Vec<u64> = reference
        .points
        .iter()
        .map(|p| p.balanced_accuracy.to_bits())
        .collect();
    checks.check(
        point_order_bits(&grid, &plain) == expected,
        "layer-run accuracies are bit-equal to the timed grid's points",
    );
    checks.check(
        point_order_bits(&grid, &traced) == expected,
        "tracing leaves accuracies unchanged",
    );
    let coverage = plain.covered_s() / plain.wall_s;
    checks.check(
        coverage >= MIN_COVERAGE,
        "timed library calls cover >= 90% of the serial layer pass",
    );

    m.push(Metric::new("layer.grid_coverage", coverage, "ratio"));
    m.push(Metric::new(
        "layer.overhead_frac",
        plain.wall_s / ref_s - 1.0,
        "ratio",
    ));
    m.push(Metric::new(
        "dataset.materialize_s",
        plain.materialize_s,
        "s",
    ));
    m.push(Metric::new(
        "dataset.materialize_calls",
        plain.materialize_calls as f64,
        "count",
    ));
    m.push(Metric::new("dataset.split_s", plain.split_s, "s"));
    for (i, system) in grid.systems.iter().enumerate() {
        let name = short_name(system.as_ref());
        m.push(Metric::new(
            format!("automl.{name}.fit_s"),
            plain.fit_s[i],
            "s",
        ));
        m.push(Metric::new(
            format!("automl.{name}.evals"),
            plain.evals[i] as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("ml.{name}.predict_s"),
            plain.predict_s[i],
            "s",
        ));
    }
    let lookups = (plain.hits + plain.misses).max(1) as f64;
    m.push(Metric::new("evalcache.hits", plain.hits as f64, "count"));
    m.push(Metric::new(
        "evalcache.misses",
        plain.misses as f64,
        "count",
    ));
    m.push(Metric::new(
        "evalcache.hit_frac",
        plain.hits as f64 / lookups,
        "ratio",
    ));
    m.push(Metric::new(
        "executor.parallel_eff",
        plain.cells_s / (nproc as f64 * ref_s),
        "ratio",
    ));
    m.push(Metric::new("checkpoint.write_s", write_s - ref_s, "s"));
    m.push(Metric::new("checkpoint.resume_s", resume_s, "s"));
    m.push(Metric::new("checkpoint.bytes", bytes as f64, "bytes"));
    m.push(Metric::new(
        "energy.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        "ratio",
    ));
    m.push(Metric::new(
        "energy.trace_spans",
        traced.spans as f64,
        "count",
    ));
}

fn repro_layers(nproc: usize, m: &mut Vec<Metric>, checks: &mut Checks) {
    let cfg = repro_config(FIXED_SEED, nproc);
    let out = std::env::temp_dir().join("repro-layers");
    std::fs::create_dir_all(&out).expect("create the repro output dir");
    let mut shared = SharedPoints::default();
    for id in all_experiment_ids() {
        let (result, t) = timed(|| run_one(id, &cfg, &mut shared, &out));
        checks.check(
            result.is_ok(),
            &format!("experiment {id} returns and renders"),
        );
        m.push(Metric::new(format!("experiments.{id}_s"), t, "s"));
    }

    // One tuner run at the repro profile's options.
    let (tuned, t) = timed(|| {
        DevTuner::tune(
            &dev_binary_pool(),
            &DevTuneOptions {
                budget_s: cfg.budgets[0],
                top_k: cfg.devtune_top_k,
                bo_iters: cfg.devtune_iters,
                runs_per_eval: 2,
                materialize: cfg.materialize,
                seed: cfg.seed,
            },
        )
    });
    checks.check(tuned.n_trials > 0, "the tuner evaluated trials");
    m.push(Metric::new("devtune.tune_s", t, "s"));
    m.push(Metric::new(
        "devtune.trials",
        tuned.n_trials as f64,
        "count",
    ));
    m.push(Metric::new(
        "devtune.pruned",
        tuned.n_pruned as f64,
        "count",
    ));

    // The cluster artefact's chaos run: 4 hosts under host-level chaos,
    // journalled to per-host shards (compute plus placement simulation).
    let datasets: Vec<_> = cfg.datasets().into_iter().take(3).collect();
    let budgets: Vec<f64> = cfg.budgets.iter().copied().take(2).collect();
    let spec = cfg
        .base_spec()
        .with_fault(FaultPlan::cluster_chaos(cfg.seed ^ 0xc1a5));
    let dir = std::env::temp_dir().join("cluster");
    std::fs::create_dir_all(&dir).expect("create the cluster shard dir");
    let systems = all_systems();
    let run = || {
        run_grid_cluster(
            &systems,
            &datasets,
            &budgets,
            &spec,
            &cfg.bench_options(),
            &ClusterOptions::uniform(4),
            Some(&dir.join("cluster.ckpt")),
        )
        .expect("the cluster spec is valid")
    };
    let (fresh, t) = timed(run);
    let replayed = run();
    checks.check(
        replayed.grid.points == fresh.grid.points && replayed.grid.failures == fresh.grid.failures,
        "a cluster run resumed from its shards replays the same grid",
    );
    m.push(Metric::new("cluster.h4_chaos_s", t, "s"));
    m.push(Metric::new(
        "cluster.retried",
        fresh.grid.retried_cells as f64,
        "count",
    ));
    m.push(Metric::new(
        "cluster.speculated",
        fresh.grid.speculated_cells as f64,
        "count",
    ));
    m.push(Metric::new(
        "cluster.requeued",
        fresh.grid.requeued_cells as f64,
        "count",
    ));
}

fn serve_layers(seed: u64, nproc: usize, m: &mut Vec<Metric>, checks: &mut Checks) {
    let s = Serve::setup(seed, nproc);
    let ((single, scheduler_s), (fleet, fleet_s)) = s.calls();
    checks.check(s.check(&single, &fleet).0 == 0, "serving reports are valid");
    m.push(Metric::new("serve.traffic_gen_s", s.traffic_gen_s, "s"));
    m.push(Metric::new("serve.scheduler_s", scheduler_s, "s"));
    m.push(Metric::new(
        "serve.batches",
        single.n_batches as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.mean_batch_rows",
        single.mean_batch_rows(),
        "rows",
    ));
    m.push(Metric::new(
        "serve.retried",
        single.retried_requests as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.shed",
        single.shed_requests as f64,
        "count",
    ));
    m.push(Metric::new("serve.fleet_s", fleet_s, "s"));
    m.push(Metric::new(
        "fleet.batches",
        fleet.n_batches as f64,
        "count",
    ));
    m.push(Metric::new(
        "fleet.autoscale_events",
        fleet.events.len() as f64,
        "count",
    ));
    let regions = |f: fn(&green_automl_serve::RegionReport) -> usize| -> f64 {
        fleet.regions.iter().map(f).sum::<usize>() as f64
    };
    m.push(Metric::new(
        "fleet.cold_loads",
        regions(|r| r.cold_loads),
        "count",
    ));
    m.push(Metric::new(
        "fleet.evictions",
        regions(|r| r.evictions),
        "count",
    ));
}

/// The whole layer run: every per-layer metric, plus its own checks.
pub fn run(seed: u64, nproc: usize) -> (Vec<Metric>, Checks) {
    let mut m = Vec::new();
    let mut checks = Checks::default();
    let (_, t) = timed(|| grid_layers(nproc, &mut m, &mut checks));
    eprintln!("layer run: grid layers {t:.1} s");
    let (_, t) = timed(|| repro_layers(nproc, &mut m, &mut checks));
    eprintln!("layer run: repro layers {t:.1} s");
    let (_, t) = timed(|| serve_layers(seed, nproc, &mut m, &mut checks));
    eprintln!("layer run: serve layers {t:.1} s");
    (m, checks)
}
