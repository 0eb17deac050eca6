//! The measurement protocol of the paper's §3.1–§3.2.
//!
//! One [`BenchmarkPoint`] = one AutoML system run on one dataset under one
//! search budget with one seed: the dataset splits 66/34 into train/test,
//! the system fits on the training part (metering the execution stage on
//! its own tracker), the deployed predictor scores balanced accuracy on the
//! test part (metering inference on a second tracker), and per-prediction
//! energy is normalised by the *nominal* test-row count.

use crate::checkpoint;
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::{Dataset, DatasetMeta, MaterializeOptions};
use green_automl_energy::hash::fnv1a_p44;
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::trace::span_id;
use green_automl_energy::{CostTracker, Measurement, SpanKind, StableHasher, Trace};
use green_automl_ml::metrics::balanced_accuracy;
use green_automl_ml::EvalCache;
use green_automl_systems::{AutoMlSystem, FitContext, RunSpec, RunSpecError, SystemId};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The paper's search-budget grid: 10 s, 30 s, 1 min, 5 min.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetGrid;

impl BudgetGrid {
    /// The four budgets, seconds.
    pub fn paper() -> [f64; 4] {
        [10.0, 30.0, 60.0, 300.0]
    }
}

/// How to materialise datasets, repeat runs, and schedule the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchmarkOptions {
    /// Dataset materialisation profile.
    pub materialize: MaterializeOptions,
    /// Repetitions per (system, dataset, budget) cell (the paper uses 10).
    pub runs: usize,
    /// Test fraction of the 66/34 split.
    pub test_frac: f64,
    /// Worker threads for [`run_grid_checked`]: `0` = one per available core,
    /// `1` = serial. Results are byte-identical at every setting.
    pub parallelism: usize,
    /// Memoise evaluations in a grid-wide [`EvalCache`] (sweep-wide in
    /// [`run_sweep_with`]). Hits skip the real compute but replay the
    /// recorded virtual-energy charges, so every point is byte-identical
    /// with the cache on or off.
    pub eval_cache: bool,
}

impl Default for BenchmarkOptions {
    fn default() -> Self {
        BenchmarkOptions {
            materialize: MaterializeOptions::benchmark(),
            runs: 3,
            test_frac: 0.34,
            parallelism: 0,
            eval_cache: true,
        }
    }
}

impl BenchmarkOptions {
    /// A quick profile for tests.
    pub fn quick() -> Self {
        BenchmarkOptions {
            materialize: MaterializeOptions::tiny(),
            runs: 1,
            test_frac: 0.34,
            parallelism: 0,
            eval_cache: true,
        }
    }
}

/// One measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkPoint {
    /// System identity.
    pub system: SystemId,
    /// Dataset name.
    pub dataset: String,
    /// Requested budget, seconds.
    pub budget_s: f64,
    /// Run seed.
    pub seed: u64,
    /// Test balanced accuracy.
    pub balanced_accuracy: f64,
    /// Execution-stage measurement.
    pub execution: Measurement,
    /// Inference energy per prediction, kWh.
    pub inference_kwh_per_row: f64,
    /// Inference seconds per prediction.
    pub inference_s_per_row: f64,
    /// Models answering at inference.
    pub n_models: usize,
    /// Pipelines evaluated during search.
    pub n_evaluations: usize,
    /// Trials killed by injected faults during the search.
    pub n_trial_faults: usize,
    /// Energy charged to killed trials, Joules (a subset of `execution`).
    pub wasted_j: f64,
    /// Merged execution + inference trace when the spec enabled tracing
    /// (execution spans on track 0, inference spans on track 1). `None`
    /// when tracing was off or the point was replayed from a checkpoint.
    pub trace: Option<Trace>,
}

impl BenchmarkPoint {
    /// Bitwise fingerprint of everything the point reports: every float
    /// by its bit pattern (so one ulp, or `0.0` against `-0.0`, differs),
    /// every count, and the trace's JSONL. Equal fingerprints mean
    /// byte-identical points.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new(0xb0c4_9017);
        h.write_str(self.system.as_str());
        h.write_str(&self.dataset);
        h.write_f64(self.budget_s);
        h.write_u64(self.seed);
        h.write_f64(self.balanced_accuracy);
        let Measurement {
            duration_s,
            energy,
            ops,
        } = &self.execution;
        for v in [
            *duration_s,
            energy.package_j,
            energy.dram_j,
            energy.gpu_j,
            ops.scalar_flops,
            ops.matmul_flops,
            ops.tree_steps,
            ops.mem_bytes,
            self.inference_kwh_per_row,
            self.inference_s_per_row,
            self.wasted_j,
        ] {
            h.write_f64(v);
        }
        h.write_usize(self.n_models);
        h.write_usize(self.n_evaluations);
        h.write_usize(self.n_trial_faults);
        match &self.trace {
            Some(t) => {
                h.write_u64(1);
                h.write_str(&t.to_jsonl());
            }
            None => h.write_u64(0),
        }
        h.finish()
    }
}

/// A run-wide memo of benchmark points: one table from a cell's full key
/// to its [`BenchmarkPoint`], shared by every grid, [`run_once_with`] and
/// `DevTuner::tune_with` call of one run.
///
/// The key holds everything a point is a function of: the system's
/// configuration in its `Debug` form (which must show every field that
/// changes a fit — see [`AutoMlSystem`]), the dataset, the whole
/// `RunSpec` (budget, cores, device, seed, constraints, fault plan), the
/// materialisation options the run derives from its seed, and the test
/// fraction. A point is a pure function of its key (the equivalence
/// matrix proves it identical across jobs, hosts, cache, view and
/// checkpoint shapes), so a hit is a clone with nothing to replay. The key
/// is the full canonical string, not a hash of it, so a collision cannot
/// serve a wrong point. Lookups follow three rules:
///
/// - **Scoped to one run.** A memo lives only as long as its owner (the
///   experiments' `SharedPoints`, or a call-local memo in the entry points
///   that take none); a second memo recomputes every point.
/// - **Untraced, cached runs only.** A traced spec's point carries its
///   span trace, so it always computes and is never stored; with
///   `BenchmarkOptions::eval_cache` off nothing is served or stored.
/// - **First insert wins.** Points compute outside the lock; of two
///   workers that computed one key, the first insert stays. A cell that
///   panics inserts nothing.
///
/// The memo also carries the run's *unit layer*: the [`EvalCache`] that
/// [`run_layer_grid`] (the experiments' shared Fig.-3 grid) filled, kept
/// read-only for the rest of the run. Every later evaluation cache made
/// through the memo — a grid's, a sweep's, a computed point's in
/// [`run_once_with`] — is built over it ([`EvalCache::over`]), so a unit
/// the shared grid computed replays wherever the run meets it again,
/// priced by the live tracker. The layer holds exactly what the shared
/// grid's cache held when it ended; inserts stay in each grid's own cache
/// and die with it.
#[derive(Debug, Default)]
pub struct PointMemo {
    points: Mutex<HashMap<String, BenchmarkPoint>>,
    /// The run's unit layer, set once by [`run_layer_grid`].
    layer: OnceLock<Arc<EvalCache>>,
    /// Every cache the memo makes audits ([`PointMemo::audited`]).
    audited: bool,
}

impl PointMemo {
    /// A memo whose evaluation caches, its unit layer included, are
    /// [`EvalCache::audited`]: every hit on a unit recorded under another
    /// meter context is recomputed live and checked bit for bit. For
    /// tests; it serves what [`PointMemo::default`] would.
    pub fn audited() -> PointMemo {
        PointMemo {
            audited: true,
            ..PointMemo::default()
        }
    }

    /// A fresh evaluation cache for one grid, sweep or computed point of
    /// `memo`'s run: over the run's unit layer once [`run_layer_grid`] has
    /// set it, audited when the memo is, and a plain [`EvalCache::new`]
    /// without a memo.
    pub(crate) fn unit_cache(memo: Option<&PointMemo>) -> EvalCache {
        match memo {
            Some(memo) => match memo.layer.get() {
                Some(layer) => EvalCache::over(Arc::clone(layer)),
                None if memo.audited => EvalCache::audited(),
                None => EvalCache::new(),
            },
            None => EvalCache::new(),
        }
    }

    /// Hits the run's unit layer has served so far to the caches built
    /// over it (0 before [`run_layer_grid`] sets it). Observability only.
    pub fn layer_hits(&self) -> u64 {
        self.layer.get().map_or(0, |layer| layer.served_hits())
    }

    /// The canonical key of the point `system` yields on `meta` under
    /// `spec` and `opts`. Floats print as their shortest round-trip form,
    /// so distinct values give distinct keys.
    pub(crate) fn key(
        system: &dyn AutoMlSystem,
        meta: &DatasetMeta,
        spec: &RunSpec,
        opts: &BenchmarkOptions,
    ) -> String {
        format!(
            "{system:?}\n{meta:?}\n{spec:?}\n{:?}\n{:?}",
            materialize_options(spec, opts),
            opts.test_frac
        )
    }

    /// Points memoised so far.
    pub fn len(&self) -> usize {
        self.table().len()
    }

    /// `true` while nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.table().is_empty()
    }

    fn table(&self) -> std::sync::MutexGuard<'_, HashMap<String, BenchmarkPoint>> {
        self.points.lock().expect("point memo poisoned")
    }

    /// The point of (`system`, `meta`, `spec`, `opts`): a clone of the
    /// memoised one, or `compute`'s result, stored unless another insert
    /// won first. Without a memo, for a traced spec, or with the eval
    /// cache off, `compute` runs and nothing is stored.
    pub(crate) fn point(
        memo: Option<&PointMemo>,
        system: &dyn AutoMlSystem,
        meta: &DatasetMeta,
        spec: &RunSpec,
        opts: &BenchmarkOptions,
        compute: impl FnOnce() -> BenchmarkPoint,
    ) -> BenchmarkPoint {
        let Some(memo) = memo.filter(|_| opts.eval_cache && !spec.trace) else {
            return compute();
        };
        let key = PointMemo::key(system, meta, spec, opts);
        if let Some(point) = memo.table().get(&key) {
            return point.clone();
        }
        let point = compute();
        memo.table().entry(key).or_insert(point).clone()
    }
}

/// The materialisation options of a run: `opts`' profile at the run seed.
pub(crate) fn materialize_options(spec: &RunSpec, opts: &BenchmarkOptions) -> MaterializeOptions {
    MaterializeOptions {
        seed: spec.seed,
        ..opts.materialize
    }
}

/// Run `system` on `meta` under `spec_base` (budget/cores/device/
/// constraints) once, with `opts` controlling materialisation: a
/// [`run_once_with`] over a fresh call-local [`PointMemo`].
pub fn run_once(
    system: &dyn AutoMlSystem,
    meta: &DatasetMeta,
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
) -> BenchmarkPoint {
    run_once_with(system, meta, spec_base, opts, Some(&PointMemo::default()))
}

/// [`run_once`] through the run's point `memo` (`None` computes live).
///
/// A computed point materialises its dataset and, with `opts.eval_cache`
/// set, fits under a point-local [`EvalCache`], so duplicate evaluations
/// *within* the fit (revisited configs, repeated rungs) are still
/// memoised. That cache sits on the memo's unit layer once the run's
/// shared grid has set it ([`PointMemo`]), so a point whose units the
/// shared grid computed (a tuner run, a traced rerun) replays them; the
/// grid instead shares one cache across every cell through
/// [`run_once_in`].
pub fn run_once_with(
    system: &dyn AutoMlSystem,
    meta: &DatasetMeta,
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    memo: Option<&PointMemo>,
) -> BenchmarkPoint {
    PointMemo::point(memo, system, meta, spec_base, opts, || {
        let ds = meta.materialize(&materialize_options(spec_base, opts));
        let local = opts.eval_cache.then(|| PointMemo::unit_cache(memo));
        let ctx = match &local {
            Some(cache) => FitContext::with_cache(cache),
            None => FitContext::default(),
        };
        run_once_in(system, meta, &ds, spec_base, opts, &ctx)
    })
}

/// [`run_once`] on an already-materialised dataset under an explicit
/// [`FitContext`] — the grid calls this with a context pointing at its
/// shared, grid-wide [`EvalCache`].
pub fn run_once_in(
    system: &dyn AutoMlSystem,
    meta: &DatasetMeta,
    ds: &Dataset,
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    ctx: &FitContext<'_>,
) -> BenchmarkPoint {
    let (train, test) = train_test_split(ds, opts.test_frac, spec_base.seed ^ 0x66_34);

    let run = system.fit_with(&train, spec_base, ctx);

    // Inference stage on its own meter (and, when tracing, its own tracer
    // seeded apart from the execution tracer so merged span ids stay
    // unique).
    let mut inf = CostTracker::new(spec_base.device, spec_base.cores);
    if spec_base.trace {
        inf.enable_tracing(span_id(spec_base.seed, system.id().stable_hash() ^ 0x1f62));
        inf.span_open(SpanKind::System, || system.id().to_string());
        inf.span_open(SpanKind::Stage, || "inference".to_string());
        inf.span_open(SpanKind::Dataset, || meta.name.to_string());
    }
    let pred = run.predictor.predict(&test, &mut inf);
    let bal = balanced_accuracy(&test.labels, &pred, test.n_classes);
    let inf_m = inf.measurement();
    let nominal_rows = test.nominal_rows().max(1.0);

    // Execution spans keep track 0; inference spans render on track 1.
    let trace = match (run.trace, inf.take_trace()) {
        (exec, inference) if exec.is_none() && inference.is_none() => None,
        (exec, inference) => {
            let inference = inference.map(|mut t| {
                t.set_track(1);
                t
            });
            Some(Trace::merge(exec.into_iter().chain(inference)))
        }
    };

    BenchmarkPoint {
        system: system.id(),
        dataset: meta.name.to_string(),
        budget_s: spec_base.budget_s,
        seed: spec_base.seed,
        balanced_accuracy: bal,
        execution: run.execution,
        inference_kwh_per_row: inf_m.kwh() / nominal_rows,
        inference_s_per_row: inf_m.duration_s / nominal_rows,
        n_models: run.predictor.n_models(),
        n_evaluations: run.n_evaluations,
        n_trial_faults: run.n_trial_faults,
        wasted_j: run.wasted_j,
        trace,
    }
}

/// One schedulable unit of the grid: a (system, dataset, seed) fit that
/// yields one point (budgeted) or one point per budget (budget-free).
pub(crate) struct GridCell {
    pub(crate) system_idx: usize,
    pub(crate) dataset_idx: usize,
    pub(crate) seed: u64,
    /// `Some(b)` runs at budget `b`; `None` is the budget-free fit that
    /// Fig. 3 reports at every budget.
    pub(crate) budget_s: Option<f64>,
}

impl GridCell {
    /// The spec the cell runs under: `spec_base` at the cell's seed and
    /// budget. A budget-free cell runs at the grid's first budget (10 s
    /// when the list is empty).
    pub(crate) fn spec(&self, budgets: &[f64], spec_base: &RunSpec) -> RunSpec {
        RunSpec {
            seed: self.seed,
            budget_s: self
                .budget_s
                .unwrap_or_else(|| budgets.first().copied().unwrap_or(10.0)),
            ..*spec_base
        }
    }
}

/// One grid cell that panicked, with enough context to rerun it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Cell index in the reference serial enumeration.
    pub cell: usize,
    /// System identity.
    pub system: SystemId,
    /// Dataset name.
    pub dataset: String,
    /// Budget of the failed cell (`None` for a budget-free system).
    pub budget_s: Option<f64>,
    /// Run seed of the failed cell.
    pub seed: u64,
    /// The panic message.
    pub message: String,
}

/// The complete result of a fault-tolerant grid run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GridRun {
    /// Successful points, in the reference serial cell order.
    pub points: Vec<BenchmarkPoint>,
    /// Cells that panicked, recorded instead of aborting the grid.
    pub failures: Vec<CellFailure>,
    /// Cells replayed from the checkpoint instead of recomputed.
    pub resumed_cells: usize,
    /// Evaluation-cache hits across the whole grid. Observability only —
    /// never part of the determinism guarantee. Each budget chain (the
    /// cells of one system, dataset and seed) runs on one worker, so its
    /// counts do not depend on the job count; the total can vary with it
    /// only when two chains share a key and race to compute it.
    pub eval_cache_hits: u64,
    /// Evaluation-cache misses across the whole grid (same caveat as
    /// `eval_cache_hits`).
    pub eval_cache_misses: u64,
    /// Of `eval_cache_hits`, those on units recorded under another meter
    /// context (device, cores or profile override): in a sweep of context
    /// twins ([`run_sweep_with`]), what this grid reused from the grids
    /// before it, and any layer hit recorded in another context. Zero in
    /// a grid with a cache of its own and no layer under it, whose cells
    /// all share one context. Observability only, like the other counts.
    pub eval_cache_cross_context_hits: u64,
    /// Of `eval_cache_hits`, those the run's unit layer served: units the
    /// shared grid computed ([`PointMemo`]). Observability only.
    pub eval_cache_layer_hits: u64,
    /// Cell attempts lost to a simulated host crash mid-run and retried
    /// with backoff on a surviving host. Deterministic per cluster
    /// topology (and zero on a single host).
    pub retried_cells: usize,
    /// Cells speculatively re-executed because their host straggled past
    /// the deterministic deadline; the losing copy is charged as waste.
    pub speculated_cells: usize,
    /// Queued cells drained off a crashed host and re-sharded onto
    /// survivors (not counting the in-flight attempt, which `retried`
    /// covers).
    pub requeued_cells: usize,
}

impl GridRun {
    /// Bitwise fingerprint of the grid's scientific output: each point's
    /// [`BenchmarkPoint::fingerprint`] in order, then every field of every
    /// [`CellFailure`]. Scheduler telemetry (`resumed_cells`, the
    /// eval-cache counts, and the retry, speculation and requeue counters)
    /// is left out: it records how the grid ran, not what it measured.
    /// Equal fingerprints mean byte-identical grids.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new(0x96d1_f1e5);
        h.write_usize(self.points.len());
        for p in &self.points {
            h.write_u64(p.fingerprint());
        }
        h.write_usize(self.failures.len());
        for f in &self.failures {
            h.write_usize(f.cell);
            h.write_str(f.system.as_str());
            h.write_str(&f.dataset);
            match f.budget_s {
                Some(b) => {
                    h.write_u64(1);
                    h.write_f64(b);
                }
                None => h.write_u64(0),
            }
            h.write_u64(f.seed);
            h.write_str(&f.message);
        }
        h.finish()
    }
}

/// Enumerate grid cells in the reference serial order:
/// system → dataset → run → budget.
pub(crate) fn enumerate_cells(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
) -> Vec<GridCell> {
    let mut cells = Vec::new();
    for (system_idx, system) in systems.iter().enumerate() {
        for (dataset_idx, meta) in datasets.iter().enumerate() {
            for run in 0..opts.runs {
                let seed = spec_base.seed ^ (run as u64 * 0x9e37) ^ (meta.openml_id as u64);
                if system.budget_free() {
                    cells.push(GridCell {
                        system_idx,
                        dataset_idx,
                        seed,
                        budget_s: None,
                    });
                } else {
                    for &b in budgets {
                        if b < system.min_budget_s() {
                            continue;
                        }
                        cells.push(GridCell {
                            system_idx,
                            dataset_idx,
                            seed,
                            budget_s: Some(b),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Hash the identity of every point the grid yields, so a checkpoint file
/// refuses to replay cells of a differently-configured grid: each cell's
/// [`PointMemo::key`] in the reference order of `cells`, after the
/// budgets a budget-free cell's point is reported at.
///
/// Like the key, it **excludes** cluster topology and scheduling (hosts,
/// jobs, the eval cache): a shard written at one (hosts × jobs) shape must
/// replay at any other, because the points themselves are
/// placement-invariant.
pub(crate) fn grid_fingerprint(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    cells: &[GridCell],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
) -> u64 {
    let mut words: Vec<u64> = vec![3]; // format version
    words.extend(budgets.iter().map(|b| b.to_bits()));
    words.extend(cells.iter().map(|c| {
        let system = systems[c.system_idx].as_ref();
        let spec = c.spec(budgets, spec_base);
        fnv1a_p44(PointMemo::key(system, &datasets[c.dataset_idx], &spec, opts).bytes())
    }));
    checkpoint::fingerprint(&words)
}

/// Run the full grid fault-tolerantly: every system × dataset × budget ×
/// seed, with per-cell panic isolation and optional checkpoint/resume.
///
/// Budgets below a system's floor are skipped; TabPFN (budget-free) is
/// measured once per seed and reported at every budget, as in Fig. 3.
/// Cells are scheduled over `opts.parallelism` worker threads (0 = all
/// cores), the nested budgets of one (system, dataset, seed) in order on
/// one worker, and each (dataset, seed) pair is materialised once and
/// shared — but because every cell owns its own `CostTracker` and PRNG
/// streams are derived from the cell seed alone, the returned points are
/// **byte-identical, in the same order, at every parallelism setting**.
///
/// A cell that panics becomes a [`CellFailure`] in the result; the grid
/// itself never aborts. With `checkpoint_path` set, every finished cell is
/// flushed to disk as it completes and a rerun of the same grid replays
/// completed cells instead of recomputing them — a killed `repro` run
/// resumes where it died.
///
/// Runs over a fresh call-local [`PointMemo`]; [`run_grid_with`] shares a
/// run's memo instead.
pub fn run_grid_checked(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    checkpoint_path: Option<&Path>,
) -> Result<GridRun, RunSpecError> {
    run_grid_with(
        systems,
        datasets,
        budgets,
        spec_base,
        opts,
        checkpoint_path,
        Some(&PointMemo::default()),
    )
}

/// [`run_grid_checked`] through the run's point `memo`: every cell looks
/// its point up before computing it (`None` computes every cell).
pub fn run_grid_with(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    checkpoint_path: Option<&Path>,
    memo: Option<&PointMemo>,
) -> Result<GridRun, RunSpecError> {
    crate::cluster::run_grid_cluster_with(
        systems,
        datasets,
        budgets,
        spec_base,
        opts,
        &crate::cluster::ClusterOptions::single_host(),
        checkpoint_path,
        memo,
    )
    .map(|run| run.grid)
}

/// [`run_grid_with`] whose evaluation cache becomes `memo`'s unit layer
/// when the grid ends: every later cache of the run sits on it
/// ([`PointMemo`]). The experiments' shared Fig.-3 grid is the one
/// caller, so the layer holds exactly that grid's units; a checkpoint
/// resume computes, and so layers, only the cells it did not replay. Only
/// the first call on a memo sets the layer; a later one runs over it like
/// any grid. Without a memo, or with `opts.eval_cache` off, this is
/// [`run_grid_with`].
pub fn run_layer_grid(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    checkpoint_path: Option<&Path>,
    memo: Option<&PointMemo>,
) -> Result<GridRun, RunSpecError> {
    let eval_cache = opts
        .eval_cache
        .then(|| Arc::new(PointMemo::unit_cache(memo)));
    let grid = crate::cluster::run_grid_cluster_in(
        systems,
        datasets,
        budgets,
        spec_base,
        opts,
        &crate::cluster::ClusterOptions::single_host(),
        checkpoint_path,
        memo,
        eval_cache.as_deref(),
    )?
    .grid;
    if let (Some(memo), Some(cache)) = (memo, eval_cache) {
        // A second layer grid's cache already sits on the layer: drop it.
        let _ = memo.layer.set(cache);
    }
    Ok(grid)
}

/// Run one single-host grid per spec of `specs`, in order, over one
/// [`EvalCache`] that lives for the call: a sweep of context twins, the
/// same searches at several core counts, on a device and on its CPU-only
/// twin, or under several inference limits. Evaluation-unit keys carry no
/// meter context, so a unit one grid computed replays in the grids after
/// it, priced by their own trackers; each grid stays byte-identical to its
/// own [`run_grid_with`] call. Every spec is validated before any grid
/// runs, and each [`GridRun`]'s eval-cache counts are its own share.
///
/// Only context twins should share a cache: one kept across unrelated
/// grids holds every entry of all of them at once. What a whole run
/// shares is narrower: the sweep's cache sits on `memo`'s unit layer, the
/// read-only units of the run's shared grid ([`PointMemo`]), so the
/// sweep's first grid too replays what that grid computed.
pub fn run_sweep_with(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    specs: &[RunSpec],
    opts: &BenchmarkOptions,
    memo: Option<&PointMemo>,
) -> Result<Vec<GridRun>, RunSpecError> {
    let eval_cache = opts.eval_cache.then(|| PointMemo::unit_cache(memo));
    run_sweep_in(
        systems,
        datasets,
        budgets,
        specs,
        opts,
        memo,
        eval_cache.as_ref(),
    )
}

/// [`run_sweep_with`] over the caller's `eval_cache` (an
/// [`EvalCache::audited`] one, say), used only with `opts.eval_cache` set.
pub fn run_sweep_in(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    specs: &[RunSpec],
    opts: &BenchmarkOptions,
    memo: Option<&PointMemo>,
    eval_cache: Option<&EvalCache>,
) -> Result<Vec<GridRun>, RunSpecError> {
    for spec in specs {
        spec.validate()?;
    }
    specs
        .iter()
        .map(|spec| {
            crate::cluster::run_grid_cluster_in(
                systems,
                datasets,
                budgets,
                spec,
                opts,
                &crate::cluster::ClusterOptions::single_host(),
                None,
                memo,
                eval_cache,
            )
            .map(|run| run.grid)
        })
        .collect()
}

/// An aggregated cell of the benchmark grid.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedPoint {
    /// System identity.
    pub system: SystemId,
    /// Budget, seconds.
    pub budget_s: f64,
    /// Bootstrap mean of balanced accuracy across datasets/runs.
    pub balanced_accuracy: f64,
    /// Bootstrap std-dev of the accuracy mean.
    pub accuracy_std: f64,
    /// Mean execution energy, kWh.
    pub execution_kwh: f64,
    /// Mean actual execution duration, seconds.
    pub execution_s: f64,
    /// Std-dev of the actual execution duration.
    pub execution_s_std: f64,
    /// Mean inference energy per prediction, kWh.
    pub inference_kwh_per_row: f64,
    /// Mean inference seconds per prediction.
    pub inference_s_per_row: f64,
    /// Points aggregated.
    pub n_points: usize,
}

/// Aggregate raw points per (system, budget), reporting uncertainty "by
/// repeatedly sampling one result out of N runs with replacement" (§3.1).
pub fn average_points(
    points: &[BenchmarkPoint],
    bootstrap: usize,
    seed: u64,
) -> Vec<AveragedPoint> {
    let mut keys: Vec<(SystemId, f64)> = points.iter().map(|p| (p.system, p.budget_s)).collect();
    keys.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    keys.dedup();

    let mut rng = SplitMix64::seed_from_u64(seed);
    keys.into_iter()
        .map(|(system, budget_s)| {
            let cell: Vec<&BenchmarkPoint> = points
                .iter()
                .filter(|p| p.system == system && p.budget_s == budget_s)
                .collect();
            let n = cell.len().max(1);
            let mean = |f: &dyn Fn(&BenchmarkPoint) -> f64| -> f64 {
                cell.iter().map(|p| f(p)).sum::<f64>() / n as f64
            };
            // Bootstrap the accuracy mean.
            let mut boots = Vec::with_capacity(bootstrap.max(1));
            for _ in 0..bootstrap.max(1) {
                let s: f64 = (0..n)
                    .map(|_| cell[rng.gen_range(0..n)].balanced_accuracy)
                    .sum::<f64>()
                    / n as f64;
                boots.push(s);
            }
            let bmean = boots.iter().sum::<f64>() / boots.len() as f64;
            let bvar = boots.iter().map(|b| (b - bmean).powi(2)).sum::<f64>() / boots.len() as f64;

            let exec_s_mean = mean(&|p| p.execution.duration_s);
            let exec_s_var = cell
                .iter()
                .map(|p| (p.execution.duration_s - exec_s_mean).powi(2))
                .sum::<f64>()
                / n as f64;

            AveragedPoint {
                system,
                budget_s,
                balanced_accuracy: bmean,
                accuracy_std: bvar.sqrt(),
                execution_kwh: mean(&|p| p.execution.kwh()),
                execution_s: exec_s_mean,
                execution_s_std: exec_s_var.sqrt(),
                inference_kwh_per_row: mean(&|p| p.inference_kwh_per_row),
                inference_s_per_row: mean(&|p| p.inference_s_per_row),
                n_points: n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::amlb39;
    use green_automl_systems::{Caml, Flaml, TabPfn};

    fn small_meta() -> DatasetMeta {
        amlb39()
            .into_iter()
            .find(|m| m.name == "blood-transfusion-service-center")
            .unwrap()
    }

    #[test]
    fn run_once_produces_a_complete_point() {
        let sys = Flaml::default();
        let p = run_once(
            &sys,
            &small_meta(),
            &RunSpec::single_core(10.0, 0),
            &BenchmarkOptions::quick(),
        );
        assert_eq!(p.system, SystemId::Flaml);
        assert!(p.balanced_accuracy > 0.0);
        assert!(p.execution.kwh() > 0.0);
        assert!(p.inference_kwh_per_row > 0.0);
        assert!(p.n_models >= 1);
    }

    #[test]
    fn grid_skips_sub_minimum_budgets_and_expands_budget_free_systems() {
        let systems: Vec<Box<dyn AutoMlSystem>> = vec![
            Box::new(TabPfn::default()),
            Box::new(green_automl_systems::Tpot::default()),
        ];
        let datasets = vec![small_meta()];
        let grid = run_grid_checked(
            &systems,
            &datasets,
            &[10.0, 60.0],
            &RunSpec::single_core(10.0, 0),
            &BenchmarkOptions::quick(),
            None,
        )
        .unwrap();
        assert!(grid.failures.is_empty());
        let points = grid.points;
        // TabPFN reports at both budgets from one run; TPOT only at 60s.
        let tabpfn: Vec<_> = points
            .iter()
            .filter(|p| p.system == SystemId::TabPfn)
            .collect();
        let tpot: Vec<_> = points
            .iter()
            .filter(|p| p.system == SystemId::Tpot)
            .collect();
        assert_eq!(tabpfn.len(), 2);
        assert_eq!(tpot.len(), 1);
        assert_eq!(tpot[0].budget_s, 60.0);
    }

    #[test]
    fn averaging_reduces_to_means() {
        let sys = Caml::default();
        let opts = BenchmarkOptions {
            runs: 2,
            ..BenchmarkOptions::quick()
        };
        let grid = run_grid_checked(
            &[Box::new(sys) as Box<dyn AutoMlSystem>],
            &[small_meta()],
            &[10.0],
            &RunSpec::single_core(10.0, 0),
            &opts,
            None,
        )
        .unwrap();
        assert!(grid.failures.is_empty());
        let avg = average_points(&grid.points, 50, 0);
        assert_eq!(avg.len(), 1);
        let a = &avg[0];
        assert_eq!(a.n_points, 2);
        assert!(a.balanced_accuracy > 0.0 && a.balanced_accuracy <= 1.0);
        assert!(a.execution_s >= 10.0, "CAML uses its whole budget");
    }

    /// A one-point, one-failure grid whose every float field is distinct
    /// and whose zero fields can flip sign.
    fn fingerprinted_grid() -> GridRun {
        use green_automl_energy::tracker::EnergyBreakdown;
        use green_automl_energy::{OpCounts, Span};
        let energy = EnergyBreakdown {
            package_j: 120.5,
            dram_j: 8.25,
            gpu_j: 0.0,
        };
        let ops = OpCounts {
            scalar_flops: 1.5e9,
            matmul_flops: 0.0,
            tree_steps: 5.0e5,
            mem_bytes: 2.0e8,
        };
        let span = Span {
            id: 1,
            parent: None,
            kind: SpanKind::System,
            label: "FLAML".to_string(),
            track: 0,
            start_s: 0.0,
            end_s: 9.5,
            energy,
            ops,
            fault: None,
        };
        GridRun {
            points: vec![BenchmarkPoint {
                system: SystemId::Flaml,
                dataset: "blood".to_string(),
                budget_s: 10.0,
                seed: 7,
                balanced_accuracy: 0.75,
                execution: Measurement {
                    duration_s: 9.5,
                    energy,
                    ops,
                },
                inference_kwh_per_row: 1.0e-9,
                inference_s_per_row: 2.0e-5,
                n_models: 3,
                n_evaluations: 40,
                n_trial_faults: 1,
                wasted_j: 0.0,
                trace: Some(Trace { spans: vec![span] }),
            }],
            failures: vec![CellFailure {
                cell: 4,
                system: SystemId::Caml,
                dataset: "blood".to_string(),
                budget_s: Some(60.0),
                seed: 9,
                message: "boom".to_string(),
            }],
            ..GridRun::default()
        }
    }

    #[test]
    fn grid_fingerprint_changes_with_every_output_field_but_no_telemetry() {
        let base = fingerprinted_grid();
        let fp = base.fingerprint();
        let changed = |what: &str, edit: &dyn Fn(&mut GridRun)| {
            let mut g = base.clone();
            edit(&mut g);
            assert_ne!(g.fingerprint(), fp, "{what} must change the fingerprint");
        };

        type Field = fn(&mut BenchmarkPoint) -> &mut f64;
        let floats: [(&str, Field); 14] = [
            ("budget_s", |p| &mut p.budget_s),
            ("balanced_accuracy", |p| &mut p.balanced_accuracy),
            ("duration_s", |p| &mut p.execution.duration_s),
            ("package_j", |p| &mut p.execution.energy.package_j),
            ("dram_j", |p| &mut p.execution.energy.dram_j),
            ("gpu_j", |p| &mut p.execution.energy.gpu_j),
            ("scalar_flops", |p| &mut p.execution.ops.scalar_flops),
            ("matmul_flops", |p| &mut p.execution.ops.matmul_flops),
            ("tree_steps", |p| &mut p.execution.ops.tree_steps),
            ("mem_bytes", |p| &mut p.execution.ops.mem_bytes),
            ("inference_kwh_per_row", |p| &mut p.inference_kwh_per_row),
            ("inference_s_per_row", |p| &mut p.inference_s_per_row),
            ("wasted_j", |p| &mut p.wasted_j),
            ("trace span energy", |p| {
                &mut p.trace.as_mut().expect("traced").spans[0].energy.package_j
            }),
        ];
        for (name, field) in floats {
            changed(&format!("{name} + 1 ulp"), &|g| {
                let v = field(&mut g.points[0]);
                *v = f64::from_bits(v.to_bits() + 1);
            });
            changed(&format!("-{name}"), &|g| {
                let v = field(&mut g.points[0]);
                *v = -*v;
            });
        }
        changed("system", &|g| g.points[0].system = SystemId::Caml);
        changed("dataset", &|g| g.points[0].dataset.push('x'));
        changed("seed", &|g| g.points[0].seed += 1);
        changed("n_models", &|g| g.points[0].n_models += 1);
        changed("n_evaluations", &|g| g.points[0].n_evaluations += 1);
        changed("n_trial_faults", &|g| g.points[0].n_trial_faults += 1);
        changed("trace label", &|g| {
            g.points[0].trace.as_mut().expect("traced").spans[0]
                .label
                .push('x')
        });
        changed("dropped trace", &|g| g.points[0].trace = None);
        changed("point order", &|g| {
            let p = g.points[0].clone();
            g.points.push(p);
        });
        changed("failure cell", &|g| g.failures[0].cell += 1);
        changed("failure system", &|g| {
            g.failures[0].system = SystemId::Flaml
        });
        changed("failure dataset", &|g| g.failures[0].dataset.push('x'));
        changed("failure budget", &|g| g.failures[0].budget_s = None);
        changed("failure budget + 1 ulp", &|g| {
            g.failures[0].budget_s = Some(f64::from_bits(60f64.to_bits() + 1))
        });
        changed("failure seed", &|g| g.failures[0].seed += 1);
        changed("failure message", &|g| g.failures[0].message.push('!'));

        let telemetry = GridRun {
            resumed_cells: 1,
            eval_cache_hits: 2,
            eval_cache_misses: 3,
            eval_cache_cross_context_hits: 2,
            eval_cache_layer_hits: 2,
            retried_cells: 4,
            speculated_cells: 5,
            requeued_cells: 6,
            ..base.clone()
        };
        assert_eq!(telemetry.fingerprint(), fp, "telemetry is not output");
    }

    #[test]
    fn paper_budget_grid() {
        assert_eq!(BudgetGrid::paper(), [10.0, 30.0, 60.0, 300.0]);
    }

    /// Counts `fit` calls, so resume tests can prove replayed cells were
    /// not recomputed. With `explode_at` set, the fit at that budget
    /// panics (after being counted).
    struct Counting {
        inner: Flaml,
        fits: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        explode_at: Option<f64>,
    }

    /// Every field that changes a fit, and not the fit counter: the
    /// counter is instrumentation, and its live value in a memo key would
    /// turn every repeat lookup into a miss.
    impl std::fmt::Debug for Counting {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Counting")
                .field("inner", &self.inner)
                .field("explode_at", &self.explode_at)
                .finish_non_exhaustive()
        }
    }

    impl AutoMlSystem for Counting {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn design(&self) -> green_automl_systems::DesignCard {
            self.inner.design()
        }
        fn fit_with(
            &self,
            train: &Dataset,
            spec: &RunSpec,
            ctx: &FitContext<'_>,
        ) -> green_automl_systems::AutoMlRun {
            self.fits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.explode_at == Some(spec.budget_s) {
                panic!("simulated failure at budget {}", spec.budget_s);
            }
            self.inner.fit_with(train, spec, ctx)
        }
    }

    /// A system whose every fit panics — the grid must record it, not die.
    #[derive(Debug)]
    struct Explosive;

    impl AutoMlSystem for Explosive {
        fn name(&self) -> &'static str {
            "Explosive"
        }
        fn design(&self) -> green_automl_systems::DesignCard {
            green_automl_systems::DesignCard {
                system: SystemId::Custom("Explosive"),
                search_space: "-",
                search_init: "-",
                search: "-",
                ensembling: "-",
            }
        }
        fn fit_with(
            &self,
            _train: &Dataset,
            spec: &RunSpec,
            _ctx: &FitContext<'_>,
        ) -> green_automl_systems::AutoMlRun {
            panic!("simulated infrastructure failure at seed {}", spec.seed);
        }
    }

    fn tmp_ckpt(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("green-automl-benchmark-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn a_panicking_cell_is_recorded_and_the_grid_survives() {
        let systems: Vec<Box<dyn AutoMlSystem>> =
            vec![Box::new(Explosive), Box::new(TabPfn::default())];
        let run = run_grid_checked(
            &systems,
            &[small_meta()],
            &[10.0],
            &RunSpec::single_core(10.0, 0),
            &BenchmarkOptions::quick(),
            None,
        )
        .unwrap();
        assert_eq!(run.failures.len(), 1);
        let f = &run.failures[0];
        assert_eq!(f.system, SystemId::Custom("Explosive"));
        assert!(f.message.contains("simulated infrastructure failure"));
        // TabPFN's point is still there: the neighbour cell was unharmed.
        assert_eq!(run.points.len(), 1);
        assert_eq!(run.points[0].system, SystemId::TabPfn);
    }

    #[test]
    fn run_grid_checked_rejects_malformed_specs() {
        let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(TabPfn::default())];
        let bad = RunSpec {
            budget_s: -1.0,
            ..RunSpec::single_core(10.0, 0)
        };
        let err = run_grid_checked(
            &systems,
            &[small_meta()],
            &[10.0],
            &bad,
            &BenchmarkOptions::quick(),
            None,
        );
        assert!(err.is_err());
    }

    #[test]
    fn killed_grid_resumes_from_completed_cells() {
        let path = tmp_ckpt("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let fits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let opts = BenchmarkOptions {
            runs: 2,
            ..BenchmarkOptions::quick()
        };
        let spec = RunSpec::single_core(10.0, 0);
        let datasets = [small_meta()];
        let grid = |fits: &std::sync::Arc<std::sync::atomic::AtomicUsize>| {
            let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(Counting {
                inner: Flaml::default(),
                fits: std::sync::Arc::clone(fits),
                explode_at: None,
            })];
            run_grid_checked(&systems, &datasets, &[10.0], &spec, &opts, Some(&path)).unwrap()
        };

        // First run computes both cells and checkpoints them.
        let first = grid(&fits);
        assert_eq!(first.resumed_cells, 0);
        assert_eq!(fits.load(std::sync::atomic::Ordering::Relaxed), 2);

        // A rerun replays everything: zero new fits, identical points.
        let second = grid(&fits);
        assert_eq!(second.resumed_cells, 2);
        assert_eq!(fits.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(second.points, first.points);

        // Simulate a kill during cell 1: chop its records off the file.
        // Only that cell recomputes, and the merged result is unchanged.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text
            .lines()
            .filter(|l| {
                let c: Vec<&str> = l.split('\t').collect();
                c.len() < 2 || c[1] != "1"
            })
            .collect();
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();

        let third = grid(&fits);
        assert_eq!(third.resumed_cells, 1);
        assert_eq!(fits.load(std::sync::atomic::Ordering::Relaxed), 3);
        assert_eq!(third.points, first.points);
    }

    #[test]
    fn a_checkpoint_replays_only_a_grid_of_the_same_points() {
        use green_automl_energy::Device;
        use green_automl_systems::{CamlParams, Constraints};
        let path = tmp_ckpt("identity.ckpt");
        let _ = std::fs::remove_file(&path);
        let base = RunSpec::single_core(10.0, 3);
        // Untuned CAML under non-default parameters: its name is "CAML"
        // whatever the parameters, and its records replay.
        let run = |holdout_frac: f64, spec: &RunSpec, ckpt: Option<&Path>| {
            let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(Caml {
                params: CamlParams {
                    holdout_frac,
                    ..CamlParams::default()
                },
                tuned: false,
            })];
            let opts = BenchmarkOptions::quick();
            run_grid_checked(&systems, &[small_meta()], &[10.0], spec, &opts, ckpt).unwrap()
        };
        run(0.2, &base, Some(&path));
        assert_eq!(run(0.2, &base, Some(&path)).resumed_cells, 1);
        // The same one-cell grid on another device, under an inference
        // constraint, and with other parameters: each is another point, so
        // none may replay the journalled one.
        let gpu = RunSpec {
            device: Device::gpu_node(),
            ..base
        };
        let constrained = RunSpec {
            constraints: Constraints {
                max_inference_s_per_row: Some(1e-4),
            },
            ..base
        };
        for (holdout_frac, spec) in [(0.2, gpu), (0.2, constrained), (0.3, base)] {
            run(0.2, &base, Some(&path));
            let rerun = run(holdout_frac, &spec, Some(&path));
            assert_eq!(rerun.resumed_cells, 0, "{holdout_frac} {spec:?}");
            let fresh = run(holdout_frac, &spec, None);
            assert_eq!(rerun.fingerprint(), fresh.fingerprint());
        }
    }

    #[test]
    fn a_custom_system_replays_its_own_checkpoint() {
        use green_automl_systems::CamlParams;
        let path = tmp_ckpt("custom.ckpt");
        let _ = std::fs::remove_file(&path);
        // Tuned CAML's id is `SystemId::Custom("CAML(tuned)")`, a name no
        // `SystemId` parse knows: replay resolves it against the grid's
        // own system at the cell.
        let run = |ckpt: Option<&Path>| {
            let systems: Vec<Box<dyn AutoMlSystem>> =
                vec![Box::new(Caml::tuned(CamlParams::default()))];
            let spec = RunSpec::single_core(10.0, 3);
            let opts = BenchmarkOptions::quick();
            run_grid_checked(&systems, &[small_meta()], &[10.0], &spec, &opts, ckpt).unwrap()
        };
        let first = run(Some(&path));
        assert!(matches!(first.points[0].system, SystemId::Custom(_)));
        let rerun = run(Some(&path));
        assert_eq!(rerun.resumed_cells, 1);
        assert_eq!(rerun.fingerprint(), run(None).fingerprint());
    }

    #[test]
    fn memo_keys_change_with_every_keyed_field() {
        use green_automl_energy::fault::FaultPlan;
        use green_automl_energy::Device;
        use green_automl_systems::{AutoGluon, AutoGluonQuality, CamlParams};
        let meta = small_meta();
        let spec = RunSpec::single_core(10.0, 0);
        let opts = BenchmarkOptions::quick();
        let caml = Caml::default();
        let base = PointMemo::key(&caml, &meta, &spec, &opts);
        let mut seen = std::collections::HashSet::from([base.clone()]);
        let mut changed = |what: &str, key: String| {
            assert!(seen.insert(key), "{what} must change the key");
        };

        let tuned = Caml::tuned(CamlParams {
            holdout_frac: 0.3,
            ..CamlParams::default()
        });
        let refit = AutoGluon {
            quality: AutoGluonQuality::FasterInferenceRefit,
        };
        let systems: [(&str, &dyn AutoMlSystem); 4] = [
            ("tuned flag", &Caml::tuned(CamlParams::default())),
            ("tuned params", &tuned),
            ("system", &AutoGluon::default()),
            ("AutoGluon quality", &refit),
        ];
        for (what, system) in systems {
            changed(what, PointMemo::key(system, &meta, &spec, &opts));
        }
        let other = green_automl_dataset::amlb39()[0];
        changed("dataset", PointMemo::key(&caml, &other, &spec, &opts));

        type SpecEdit = fn(&mut RunSpec);
        let spec_edits: [(&str, SpecEdit); 7] = [
            ("budget", |s| s.budget_s = 30.0),
            ("budget + 1 ulp", |s| {
                s.budget_s = f64::from_bits(s.budget_s.to_bits() + 1)
            }),
            ("cores", |s| s.cores = 2),
            ("device", |s| s.device = Device::cluster_node()),
            ("seed", |s| s.seed = 1),
            ("constraints", |s| {
                s.constraints.max_inference_s_per_row = Some(4.0e-5)
            }),
            ("fault plan", |s| s.fault = FaultPlan::chaos(11)),
        ];
        for (what, edit) in spec_edits {
            let mut edited = spec;
            edit(&mut edited);
            changed(what, PointMemo::key(&caml, &meta, &edited, &opts));
        }
        type OptsEdit = fn(&mut BenchmarkOptions);
        let opts_edits: [(&str, OptsEdit); 2] = [
            ("materialisation", |o| o.materialize.max_rows += 1),
            ("test fraction", |o| o.test_frac = 0.3),
        ];
        for (what, edit) in opts_edits {
            let mut edited = opts;
            edit(&mut edited);
            changed(what, PointMemo::key(&caml, &meta, &spec, &edited));
        }

        // Scheduling and caching knobs are not part of a point.
        let knobs = BenchmarkOptions {
            parallelism: 3,
            runs: 5,
            eval_cache: false,
            ..opts
        };
        assert_eq!(PointMemo::key(&caml, &meta, &spec, &knobs), base);
    }

    /// A counting Flaml and its fit counter.
    fn counting(
        explode_at: Option<f64>,
    ) -> (Counting, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        let fits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let system = Counting {
            inner: Flaml::default(),
            fits: std::sync::Arc::clone(&fits),
            explode_at,
        };
        (system, fits)
    }

    #[test]
    fn traced_specs_and_uncached_runs_never_touch_the_memo() {
        let (system, fits) = counting(None);
        let n_fits = || fits.load(std::sync::atomic::Ordering::Relaxed);
        let memo = PointMemo::default();
        let traced = RunSpec::single_core(10.0, 0).with_trace();
        let opts = BenchmarkOptions::quick();
        let a = run_once_with(&system, &small_meta(), &traced, &opts, Some(&memo));
        let b = run_once_with(&system, &small_meta(), &traced, &opts, Some(&memo));
        assert_eq!(n_fits(), 2, "a traced point always computes");
        assert!(a.trace.is_some() && b.trace.is_some());
        assert!(memo.is_empty(), "a traced point is never stored");

        let uncached = BenchmarkOptions {
            eval_cache: false,
            ..opts
        };
        let spec = RunSpec::single_core(10.0, 0);
        for _ in 0..2 {
            run_once_with(&system, &small_meta(), &spec, &uncached, Some(&memo));
        }
        assert_eq!(n_fits(), 4, "with the eval cache off every point computes");
        assert!(memo.is_empty(), "with the eval cache off nothing is stored");
    }

    #[test]
    fn a_memo_hit_is_the_live_point_across_grids_and_single_runs() {
        let (system, fits) = counting(None);
        let n_fits = || fits.load(std::sync::atomic::Ordering::Relaxed);
        let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(system)];
        let system = systems[0].as_ref();
        let meta = small_meta();
        let spec = RunSpec::single_core(10.0, 0);
        let opts = BenchmarkOptions::quick();
        let memo = PointMemo::default();
        let grid = |memo: Option<&PointMemo>| {
            run_grid_with(&systems, &[meta], &[10.0], &spec, &opts, None, memo).unwrap()
        };

        let first = grid(Some(&memo));
        assert_eq!((n_fits(), memo.len()), (1, 1));
        let again = grid(Some(&memo));
        assert_eq!(n_fits(), 1, "the second grid is served from the memo");
        assert_eq!(again.fingerprint(), first.fingerprint());

        // The grid's cell is the point a single run at the cell's seed
        // asks for: a hit, bitwise equal to a live recompute.
        let cell_spec = RunSpec {
            seed: first.points[0].seed,
            ..spec
        };
        let hit = run_once_with(system, &meta, &cell_spec, &opts, Some(&memo));
        assert_eq!(n_fits(), 1);
        let live = run_once_with(system, &meta, &cell_spec, &opts, None);
        assert_eq!(n_fits(), 2);
        assert_eq!(hit.fingerprint(), live.fingerprint());
        assert_eq!(hit.fingerprint(), first.points[0].fingerprint());

        // A second memo is a second run: it recomputes.
        grid(Some(&PointMemo::default()));
        assert_eq!(n_fits(), 3);
    }

    #[test]
    fn a_panicking_cell_leaves_no_memo_entry() {
        let (system, fits) = counting(Some(30.0));
        let n_fits = || fits.load(std::sync::atomic::Ordering::Relaxed);
        let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(system)];
        let memo = PointMemo::default();
        let grid = || {
            run_grid_with(
                &systems,
                &[small_meta()],
                &[10.0, 30.0],
                &RunSpec::single_core(10.0, 0),
                &BenchmarkOptions::quick(),
                None,
                Some(&memo),
            )
            .unwrap()
        };
        let first = grid();
        assert_eq!(first.failures.len(), 1);
        assert_eq!(
            (n_fits(), memo.len()),
            (2, 1),
            "only the 10 s point is stored"
        );
        // A rerun serves the 10 s point and retries the panicking cell.
        let rerun = grid();
        assert_eq!(n_fits(), 3);
        assert_eq!(memo.len(), 1);
        assert_eq!(rerun.fingerprint(), first.fingerprint());
    }

    #[test]
    fn a_panic_mid_chain_fails_only_its_own_cell() {
        let fits = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let n_fits = || fits.load(std::sync::atomic::Ordering::Relaxed);
        let datasets = [small_meta()];
        let spec = RunSpec::single_core(10.0, 0);
        // One system on one dataset: a single 10/30/60 s budget chain
        // whose middle cell panics.
        let grid = |jobs: usize, path: Option<&Path>| {
            let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(Counting {
                inner: Flaml::default(),
                fits: std::sync::Arc::clone(&fits),
                explode_at: Some(30.0),
            })];
            let opts = BenchmarkOptions {
                parallelism: jobs,
                ..BenchmarkOptions::quick()
            };
            run_grid_checked(&systems, &datasets, &[10.0, 30.0, 60.0], &spec, &opts, path).unwrap()
        };

        let reference = grid(1, None);
        assert_eq!(reference.failures.len(), 1);
        assert_eq!(reference.failures[0].budget_s, Some(30.0));
        assert!(reference.failures[0].message.contains("at budget 30"));
        let kept: Vec<f64> = reference.points.iter().map(|p| p.budget_s).collect();
        assert_eq!(kept, [10.0, 60.0], "the chain runs on past its panic");
        for jobs in [2, 4] {
            let run = grid(jobs, None);
            assert_eq!(run.points, reference.points, "points @ {jobs} jobs");
            assert_eq!(run.failures, reference.failures, "failures @ {jobs} jobs");
        }

        // The failed cell is journalled like the others: a rerun replays
        // the whole chain and fits nothing.
        let path = tmp_ckpt("chain-panic.ckpt");
        let _ = std::fs::remove_file(&path);
        let first = grid(2, Some(&path));
        assert_eq!(first.points, reference.points);
        assert_eq!(first.failures, reference.failures);
        let fitted = n_fits();
        let rerun = grid(2, Some(&path));
        assert_eq!(rerun.resumed_cells, 3);
        assert_eq!(n_fits(), fitted, "a resumed chain makes no new fits");
        assert_eq!(rerun.points, reference.points);
        assert_eq!(rerun.failures, reference.failures);
    }
}
