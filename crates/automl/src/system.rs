//! The common surface of all simulated AutoML systems.

use crate::ensemble::{StackedEnsemble, WeightedEnsemble};
use crate::id::SystemId;
use green_automl_dataset::Dataset;
use green_automl_energy::fault::{FaultInjector, FaultPlan};
use green_automl_energy::trace::{span_id, SpanKind, Trace};
use green_automl_energy::{CostTracker, Device, Measurement, OpCounts, ParallelProfile};
use green_automl_ml::{CacheView, EvalCache, EvalScope, FittedPipeline, Matrix};

/// User-facing ML application constraints (paper §3.4 / Observation O3 —
/// CAML treats these as first-class citizens).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Maximum allowed inference seconds per instance (on the run's device
    /// and core allocation). `None` = unconstrained.
    pub max_inference_s_per_row: Option<f64>,
}

/// One AutoML execution request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Search-time budget in (virtual) seconds — the paper's grid is
    /// 10 s / 30 s / 1 min / 5 min.
    pub budget_s: f64,
    /// CPU cores allocated to the run.
    pub cores: usize,
    /// Machine model.
    pub device: Device,
    /// Seed; the paper repeats every experiment 10 times.
    pub seed: u64,
    /// Application constraints.
    pub constraints: Constraints,
    /// Injected-failure schedule for this run (`FaultPlan::default()` =
    /// no faults). Decisions derive from `(fault.seed, site)` only, so the
    /// same spec fails identically at every worker count.
    pub fault: FaultPlan,
    /// Record an energy [`Trace`] during the run (off by default). Tracing
    /// is zero-cost on the virtual timeline: it cannot change any measured
    /// number, only attach the span attribution to the run.
    pub trace: bool,
}

impl RunSpec {
    /// A single-core run on the paper's CPU testbed.
    pub fn single_core(budget_s: f64, seed: u64) -> RunSpec {
        RunSpec {
            budget_s,
            cores: 1,
            device: Device::xeon_gold_6132(),
            seed,
            constraints: Constraints::default(),
            fault: FaultPlan::disabled(),
            trace: false,
        }
    }

    /// The same spec with `plan` installed.
    pub fn with_fault(self, plan: FaultPlan) -> RunSpec {
        RunSpec {
            fault: plan,
            ..self
        }
    }

    /// The same spec with span tracing enabled.
    pub fn with_trace(self) -> RunSpec {
        RunSpec {
            trace: true,
            ..self
        }
    }

    /// Check the spec describes a physically meaningful run: a positive
    /// finite budget, at least one core, finite constraint values, and a
    /// valid fault plan. Invalid specs would otherwise surface as NaN
    /// energies or division panics deep inside a system's search loop.
    pub fn validate(&self) -> Result<(), RunSpecError> {
        if !(self.budget_s.is_finite() && self.budget_s > 0.0) {
            return Err(RunSpecError::NonPositiveBudget(self.budget_s));
        }
        if self.cores == 0 {
            return Err(RunSpecError::ZeroCores);
        }
        if let Some(v) = self.constraints.max_inference_s_per_row {
            if !(v.is_finite() && v > 0.0) {
                return Err(RunSpecError::NonFiniteConstraint(
                    "max_inference_s_per_row must be finite and positive",
                ));
            }
        }
        self.fault
            .validate()
            .map_err(RunSpecError::InvalidFaultPlan)
    }
}

/// Why a [`RunSpec`] was rejected by [`RunSpec::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunSpecError {
    /// `budget_s` was not a positive finite number of seconds.
    NonPositiveBudget(f64),
    /// `cores` was zero.
    ZeroCores,
    /// A constraint held a non-finite or non-positive value.
    NonFiniteConstraint(&'static str),
    /// The fault plan failed [`FaultPlan::validate`].
    InvalidFaultPlan(green_automl_energy::FaultPlanError),
}

impl std::fmt::Display for RunSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunSpecError::NonPositiveBudget(b) => {
                write!(f, "budget_s must be a positive finite duration, got {b}")
            }
            RunSpecError::ZeroCores => write!(f, "cores must be at least 1"),
            RunSpecError::NonFiniteConstraint(msg) => write!(f, "invalid constraint: {msg}"),
            RunSpecError::InvalidFaultPlan(msg) => write!(f, "invalid fault plan: {msg}"),
        }
    }
}

impl std::error::Error for RunSpecError {}

/// Fixed serialised-artefact overhead per deployed model (metadata,
/// framework runtime state) used by [`Predictor::memory_bytes`] — loosely
/// the size of a pickled scikit-learn estimator with empty buffers.
pub const ARTEFACT_OVERHEAD_BYTES: f64 = 64.0 * 1024.0;

/// What an AutoML run deploys for the inference stage.
#[derive(Debug, Clone, PartialEq)]
pub enum Predictor {
    /// One pipeline (FLAML, CAML, TPOT, TabPFN).
    Single(FittedPipeline),
    /// A weighted flat ensemble (AutoSklearn's Caruana selection).
    Ensemble(WeightedEnsemble),
    /// A bagged + stacked ensemble (AutoGluon).
    Stacked(StackedEnsemble),
    /// A constant-class fallback (e.g. TabPFN refusing > 10 classes).
    Constant {
        /// The class always predicted.
        class: u32,
        /// Size of the label space.
        n_classes: usize,
    },
}

// Deployed predictors cross thread boundaries in the parallel benchmark
// grid; keep them shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Predictor>();
    assert_send_sync::<AutoMlRun>();
    assert_send_sync::<RunSpec>();
};

impl Predictor {
    /// Hard-label predictions on a raw dataset.
    pub fn predict(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        match self {
            Predictor::Single(p) => p.predict(ds, tracker),
            Predictor::Ensemble(e) => e.predict(ds, tracker),
            Predictor::Stacked(s) => s.predict(ds, tracker),
            Predictor::Constant { class, .. } => {
                tracker.charge(
                    OpCounts::scalar(ds.n_rows() as f64 * ds.row_scale),
                    ParallelProfile::batch_inference(),
                );
                vec![*class; ds.n_rows()]
            }
        }
    }

    /// Hard-label predictions with batch-amortised framework dispatch: the
    /// per-prediction overhead every deployed model pays on a row-at-a-time
    /// request is charged once per batch (per model artefact) instead of
    /// once per row. Predictions are identical to [`Predictor::predict`];
    /// only the charged overhead differs — this is the path a micro-batching
    /// serving layer uses.
    pub fn predict_batch(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        match self {
            Predictor::Single(p) => p.predict_batch(ds, tracker),
            Predictor::Ensemble(e) => {
                green_automl_ml::models::argmax_rows(&e.predict_proba_batch(ds, tracker))
            }
            Predictor::Stacked(s) => {
                green_automl_ml::models::argmax_rows(&s.predict_proba_batch(ds, tracker))
            }
            // The constant predictor has no framework dispatch to amortise.
            c @ Predictor::Constant { .. } => c.predict(ds, tracker),
        }
    }

    /// Class probabilities on a raw dataset.
    pub fn predict_proba(&self, ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
        match self {
            Predictor::Single(p) => p.predict_proba(ds, tracker),
            Predictor::Ensemble(e) => e.predict_proba(ds, tracker),
            Predictor::Stacked(s) => s.predict_proba(ds, tracker),
            Predictor::Constant { class, n_classes } => {
                tracker.charge(
                    OpCounts::scalar(ds.n_rows() as f64 * ds.row_scale),
                    ParallelProfile::batch_inference(),
                );
                let mut m = Matrix::zeros(ds.n_rows(), *n_classes);
                for r in 0..ds.n_rows() {
                    m.set(r, *class as usize, 1.0);
                }
                m
            }
        }
    }

    /// Per-row inference operations (for constraint checks and per-
    /// prediction energy estimates).
    pub fn inference_ops_per_row(&self) -> OpCounts {
        match self {
            Predictor::Single(p) => p.inference_ops_per_row(),
            Predictor::Ensemble(e) => e.inference_ops_per_row(),
            Predictor::Stacked(s) => s.inference_ops_per_row(),
            Predictor::Constant { .. } => OpCounts::scalar(1.0),
        }
    }

    /// Number of trained models answering at inference (the paper's O1:
    /// ensembles cost an order of magnitude more energy here).
    pub fn n_models(&self) -> usize {
        match self {
            Predictor::Single(_) => 1,
            Predictor::Ensemble(e) => e.n_models(),
            Predictor::Stacked(s) => s.n_models(),
            Predictor::Constant { .. } => 0,
        }
    }

    /// Resident memory footprint of the deployment artefact, in bytes:
    /// 8 bytes per model parameter plus a fixed per-artefact overhead
    /// (serialised pipeline metadata, framework runtime state) for every
    /// model that answers queries. This is what a model registry charges as
    /// `mem_bytes` when cold-loading the predictor.
    pub fn memory_bytes(&self) -> f64 {
        let (params, artefacts) = match self {
            Predictor::Single(p) => (p.n_params(), 1),
            Predictor::Ensemble(e) => (e.n_params(), e.n_models()),
            Predictor::Stacked(s) => (s.n_params(), s.n_models()),
            Predictor::Constant { .. } => (0, 1),
        };
        params as f64 * 8.0 + artefacts as f64 * ARTEFACT_OVERHEAD_BYTES
    }

    /// Energy (kWh) to predict one instance on `cores` of `device`.
    pub fn inference_kwh_per_row(&self, device: Device, cores: usize) -> f64 {
        let mut probe = CostTracker::new(device, cores);
        probe.charge(
            self.inference_ops_per_row(),
            ParallelProfile::batch_inference(),
        );
        probe.measurement().kwh()
    }

    /// Seconds to predict one instance on `cores` of `device`.
    pub fn inference_s_per_row(&self, device: Device, cores: usize) -> f64 {
        let mut probe = CostTracker::new(device, cores);
        probe.charge(
            self.inference_ops_per_row(),
            ParallelProfile::batch_inference(),
        );
        probe.now()
    }
}

/// The outcome of one AutoML execution.
#[derive(Debug, Clone)]
pub struct AutoMlRun {
    /// The deployed predictor.
    pub predictor: Predictor,
    /// Execution-stage measurement (virtual time, energy, ops).
    pub execution: Measurement,
    /// Pipelines evaluated during search.
    pub n_evaluations: usize,
    /// The budget that was requested (actual time is in `execution`).
    pub budget_s: f64,
    /// Candidate evaluations killed by injected faults (crash / timeout /
    /// OOM) during this run.
    pub n_trial_faults: usize,
    /// Energy burned by trials that were killed before producing a usable
    /// model, Joules. Included in `execution` — this field attributes it.
    pub wasted_j: f64,
    /// The execution-stage span trace, when the spec enabled tracing.
    pub trace: Option<Trace>,
}

impl AutoMlRun {
    /// How far past its budget the system ran (Table 7), as a ratio.
    pub fn overshoot_ratio(&self) -> f64 {
        if self.budget_s <= 0.0 {
            1.0
        } else {
            self.execution.duration_s / self.budget_s
        }
    }
}

/// One row of the paper's Table 1: how a system implements each stage of
/// the AutoML process (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignCard {
    /// System identity.
    pub system: SystemId,
    /// Search-space design.
    pub search_space: &'static str,
    /// Search initialisation.
    pub search_init: &'static str,
    /// Search strategy.
    pub search: &'static str,
    /// Ensembling strategy.
    pub ensembling: &'static str,
}

/// A simulated AutoML system.
///
/// `Send + Sync` is a supertrait so the benchmark grid can fan
/// `&dyn AutoMlSystem` out across worker threads: a system must be a frozen
/// artefact during `fit` — any per-run state belongs in the run, not the
/// system.
pub trait AutoMlSystem: Send + Sync {
    /// Display name used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Typed identity. Defaults to resolving the display name, so a
    /// system outside the paper's roster (a test double) automatically
    /// becomes [`SystemId::Custom`]; the shipped systems override this
    /// with their variant directly.
    fn id(&self) -> SystemId {
        SystemId::from_name(self.name())
    }

    /// The system's Table 1 row.
    fn design(&self) -> DesignCard;

    /// Smallest supported budget (ASKL starts at 30 s, TPOT at 1 min; the
    /// paper omits smaller points for them).
    fn min_budget_s(&self) -> f64 {
        0.0
    }

    /// `true` if the system ignores search budgets entirely (TabPFN).
    fn budget_free(&self) -> bool {
        false
    }

    /// Run AutoML on a training dataset under `spec`, with shared run
    /// context (e.g. the grid-wide evaluation memo table). The context is
    /// an accelerator only: every number a system produces must be bitwise
    /// identical with `FitContext::default()`.
    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun;

    /// Run AutoML on a training dataset under `spec` without shared
    /// context (everything computed live).
    fn fit(&self, train: &Dataset, spec: &RunSpec) -> AutoMlRun {
        self.fit_with(train, spec, &FitContext::default())
    }

    /// Validate `spec`, then [`fit`](AutoMlSystem::fit). This is the entry
    /// point callers should prefer: a malformed spec comes back as a typed
    /// [`RunSpecError`] instead of a NaN-energy run or a panic mid-search.
    fn try_fit(&self, train: &Dataset, spec: &RunSpec) -> Result<AutoMlRun, RunSpecError> {
        spec.validate()?;
        Ok(self.fit(train, spec))
    }

    /// Validate `spec`, then [`fit_with`](AutoMlSystem::fit_with).
    fn try_fit_with(
        &self,
        train: &Dataset,
        spec: &RunSpec,
        ctx: &FitContext<'_>,
    ) -> Result<AutoMlRun, RunSpecError> {
        spec.validate()?;
        Ok(self.fit_with(train, spec, ctx))
    }
}

/// Shared, read-mostly context a caller hands to every fit in a benchmark
/// grid. Nothing in here may change any measured number — context only
/// makes runs cheaper to compute (real CPU), never different.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitContext<'a> {
    /// The grid-wide content-addressed evaluation memo table. `None`
    /// computes every evaluation live.
    pub eval_cache: Option<&'a EvalCache>,
    /// The executing host's view of the shared cache. The default view
    /// (coordinator, no horizon) sees everything; a cluster executor sets
    /// a frozen horizon for cells on a partitioned host. Views only
    /// change hit-vs-recompute, never a measured number.
    pub cache_view: CacheView,
}

impl<'a> FitContext<'a> {
    /// A context that memoises evaluations in `cache`.
    pub fn with_cache(cache: &'a EvalCache) -> FitContext<'a> {
        FitContext {
            eval_cache: Some(cache),
            cache_view: CacheView::default(),
        }
    }

    /// This context restricted to a host's [`CacheView`].
    pub fn viewed(self, view: CacheView) -> FitContext<'a> {
        FitContext {
            cache_view: view,
            ..self
        }
    }
}

/// The constant-class fallback deployed when every search candidate died:
/// always predict the training majority class. Never panics — the paper's
/// AMLB ancestry treats "framework returned no model" as a reportable
/// outcome, not an abort.
pub fn majority_class_predictor(train: &Dataset) -> Predictor {
    let counts = train.class_counts();
    let mut class = 0usize;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[class] {
            class = i;
        }
    }
    Predictor::Constant {
        class: class as u32,
        n_classes: train.n_classes,
    }
}

/// One system's search run: the execution-stage tracker, the eval scope,
/// and the fault tally, behind the one trial contract every search loop
/// follows.
///
/// [`Search::trial`] opens a `trial N` span and draws the trial's fate
/// from the spec's [`FaultPlan`], keyed by `(run seed, system name, trial
/// index)`, so the same trials die at every worker count regardless of
/// evaluation order. A killed trial burns its wasted energy (estimated
/// from the mean duration of the run's successful trials), closes its span
/// with the fault's tag and yields `None`; a live trial runs its body and
/// records its duration. [`Search::finish`] turns the run into an
/// [`AutoMlRun`].
///
/// When `spec.trace` is set, a tracer seeded from `(run seed, system)` is
/// attached and a `System` root span plus a `Stage` "execution" child are
/// opened; they close when [`Search::finish`] takes the trace, so the root
/// span covers the tracker's whole lifetime and its energy reconciles
/// **bitwise** with the run's [`Measurement`].
#[derive(Debug)]
pub struct Search<'a> {
    /// The execution-stage meter. Work outside trials (surrogate
    /// suggestions, ensembling, refits) charges it directly.
    pub tracker: CostTracker,
    /// The fit's memo scope, when the context installs a cache.
    pub scope: Option<EvalScope<'a>>,
    injector: Option<FaultInjector>,
    system: SystemId,
    run_seed: u64,
    budget_s: f64,
    next_trial: u64,
    n_faults: usize,
    n_ok: usize,
    sum_ok_s: f64,
    wasted_j: f64,
    default_trial_s: f64,
}

impl<'a> Search<'a> {
    /// Open the run of `id` on `train` under `spec`. Until a trial
    /// succeeds, a killed trial's duration is estimated as 1/20 of the
    /// budget (the search loop's natural trial granularity).
    pub fn new(id: SystemId, spec: &RunSpec, train: &Dataset, ctx: &FitContext<'a>) -> Search<'a> {
        Search::with_profile(id, spec, train, ctx, None)
    }

    /// [`Search::new`] with a system-wide `profile` override installed on
    /// the tracker before the eval scope is taken: the override is part of
    /// every memo key's context fingerprint.
    pub fn with_profile(
        id: SystemId,
        spec: &RunSpec,
        train: &Dataset,
        ctx: &FitContext<'a>,
        profile: Option<ParallelProfile>,
    ) -> Search<'a> {
        let mut tracker = CostTracker::new(spec.device, spec.cores);
        if spec.trace {
            tracker.enable_tracing(span_id(spec.seed, id.stable_hash()));
            tracker.span_open(SpanKind::System, || id.to_string());
            tracker.span_open(SpanKind::Stage, || "execution".to_string());
        }
        tracker.set_profile_override(profile);
        // Taken after the override: device, cores and override are all
        // part of the scope's context fingerprint.
        let scope = ctx
            .eval_cache
            .map(|c| EvalScope::new_with_view(c, ctx.cache_view, train, &tracker));
        let injector = (spec.fault.trial_fault_p() > 0.0).then(|| FaultInjector::new(spec.fault));
        Search {
            tracker,
            scope,
            injector,
            system: id,
            run_seed: spec.seed,
            budget_s: spec.budget_s,
            next_trial: 0,
            n_faults: 0,
            n_ok: 0,
            sum_ok_s: 0.0,
            wasted_j: 0.0,
            default_trial_s: (spec.budget_s / 20.0).max(1e-6),
        }
    }

    /// Estimate a killed trial's duration as `trial_s` until a trial
    /// succeeds — for budget-free systems (TabPFN), whose trial cost must
    /// not scale with the nominal budget.
    pub fn with_trial_estimate(self, trial_s: f64) -> Search<'a> {
        Search {
            default_trial_s: trial_s.max(1e-6),
            ..self
        }
    }

    /// Run the next trial. Opens a `trial N` span and draws the trial's
    /// fault. A killed trial charges the wasted fraction of a typical
    /// trial's duration as active compute, clamped to the budget (kills
    /// happen inside the allocation, pynisher-style), tags its span and
    /// returns `None`. Otherwise `body` runs with the tracker and the
    /// scope, its duration refines the waste estimate, and the span
    /// closes. The fault stream depends only on how many trials started.
    pub fn trial<T>(
        &mut self,
        body: impl FnOnce(&mut CostTracker, Option<&EvalScope<'a>>) -> T,
    ) -> Option<T> {
        let trial = self.next_trial;
        self.next_trial += 1;
        self.tracker
            .span_open(SpanKind::Trial, || format!("trial {trial}"));
        // Fault sites are keyed by the display name's bytes, so the
        // typed-id migration left every historical fault stream intact.
        let fault = self
            .injector
            .as_ref()
            .and_then(|inj| inj.trial_fault(self.run_seed, self.system.as_str(), trial));
        if let Some(fault) = fault {
            let typical_s = if self.n_ok > 0 {
                self.sum_ok_s / self.n_ok as f64
            } else {
                self.default_trial_s
            };
            let now = self.tracker.now();
            let target = (now + typical_s * fault.wasted_frac).min(self.budget_s.max(now));
            let before_j = self.tracker.measurement().energy.total_joules();
            burn_active_until(&mut self.tracker, target);
            self.wasted_j += self.tracker.measurement().energy.total_joules() - before_j;
            self.n_faults += 1;
            self.tracker.span_close_fault(fault.kind);
            return None;
        }
        let start = self.tracker.now();
        let out = body(&mut self.tracker, self.scope.as_ref());
        let duration_s = self.tracker.now() - start;
        if duration_s.is_finite() && duration_s > 0.0 {
            self.n_ok += 1;
            self.sum_ok_s += duration_s;
        }
        self.tracker.span_close();
        Some(out)
    }

    /// Trials started so far (killed or not).
    pub fn trials_started(&self) -> u64 {
        self.next_trial
    }

    /// Trials killed so far.
    pub fn n_faults(&self) -> usize {
        self.n_faults
    }

    /// Trials that ran to completion so far.
    pub fn n_ok(&self) -> usize {
        self.n_ok
    }

    /// End the run: the execution measurement, the fault tally and the
    /// trace, around the deployed `predictor`.
    pub fn finish(mut self, predictor: Predictor, n_evaluations: usize) -> AutoMlRun {
        AutoMlRun {
            predictor,
            execution: self.tracker.measurement(),
            n_evaluations,
            budget_s: self.budget_s,
            n_trial_faults: self.n_faults,
            wasted_j: self.wasted_j,
            trace: self.tracker.take_trace(),
        }
    }
}

/// Keep searching (charging active compute) until the virtual deadline —
/// used by systems that hold their allocation busy for the whole budget
/// even after our simulation has exhausted its evaluation cap. Charging
/// active work (rather than idling) keeps the power profile faithful.
pub fn burn_active_until(tracker: &mut CostTracker, deadline_s: f64) {
    let remaining = deadline_s - tracker.now();
    if remaining <= 0.0 {
        return;
    }
    let flops = remaining * tracker.device().cpu.scalar_flops_per_core;
    tracker.charge(OpCounts::scalar(flops), ParallelProfile::serial());
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::TaskSpec;
    use green_automl_ml::{ModelSpec, Pipeline};

    #[test]
    fn constant_predictor_predicts_its_class() {
        let ds = TaskSpec::new("t", 20, 3, 3).generate();
        let p = Predictor::Constant {
            class: 2,
            n_classes: 3,
        };
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        assert_eq!(p.predict(&ds, &mut t), vec![2; 20]);
        let proba = p.predict_proba(&ds, &mut t);
        assert_eq!(proba.get(0, 2), 1.0);
        assert_eq!(p.n_models(), 0);
    }

    #[test]
    fn single_predictor_reports_costs() {
        let ds = TaskSpec::new("t", 120, 4, 2).generate();
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let fitted = Pipeline::new(vec![], ModelSpec::GaussianNb).fit(&ds, &mut t, 0);
        let p = Predictor::Single(fitted);
        assert_eq!(p.n_models(), 1);
        assert!(p.inference_kwh_per_row(Device::xeon_gold_6132(), 1) > 0.0);
        assert!(p.inference_s_per_row(Device::xeon_gold_6132(), 1) > 0.0);
    }

    #[test]
    fn burn_active_fills_to_deadline_with_active_power() {
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        burn_active_until(&mut t, 10.0);
        assert!((t.now() - 10.0).abs() < 1e-9);
        let active = t.measurement().energy.total_joules();
        let mut idle = CostTracker::new(Device::xeon_gold_6132(), 1);
        idle.idle_for(10.0);
        assert!(active > idle.measurement().energy.total_joules());
        // Idempotent past the deadline.
        burn_active_until(&mut t, 5.0);
        assert!((t.now() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overshoot_ratio_is_duration_over_budget() {
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        t.idle_for(20.0);
        let run = AutoMlRun {
            predictor: Predictor::Constant {
                class: 0,
                n_classes: 2,
            },
            execution: t.measurement(),
            n_evaluations: 0,
            budget_s: 10.0,
            n_trial_faults: 0,
            wasted_j: 0.0,
            trace: None,
        };
        assert!((run.overshoot_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_malformed_specs_with_typed_errors() {
        let ok = RunSpec::single_core(10.0, 1);
        assert_eq!(ok.validate(), Ok(()));

        let mut bad = ok;
        bad.budget_s = 0.0;
        assert_eq!(bad.validate(), Err(RunSpecError::NonPositiveBudget(0.0)));
        bad.budget_s = f64::NAN;
        assert!(matches!(
            bad.validate(),
            Err(RunSpecError::NonPositiveBudget(_))
        ));

        let mut bad = ok;
        bad.cores = 0;
        assert_eq!(bad.validate(), Err(RunSpecError::ZeroCores));

        let mut bad = ok;
        bad.constraints.max_inference_s_per_row = Some(f64::INFINITY);
        assert!(matches!(
            bad.validate(),
            Err(RunSpecError::NonFiniteConstraint(_))
        ));

        let mut bad = ok;
        bad.fault.trial_crash_p = 2.0;
        assert!(matches!(
            bad.validate(),
            Err(RunSpecError::InvalidFaultPlan(_))
        ));

        // Errors render as human-readable messages.
        assert!(RunSpecError::ZeroCores.to_string().contains("cores"));
    }

    #[test]
    fn majority_class_fallback_picks_the_biggest_class() {
        let ds = TaskSpec::new("maj", 200, 4, 3).generate();
        let counts = ds.class_counts();
        let p = majority_class_predictor(&ds);
        match p {
            Predictor::Constant { class, n_classes } => {
                assert_eq!(n_classes, ds.n_classes);
                assert_eq!(
                    counts[class as usize],
                    *counts.iter().max().expect("non-empty"),
                );
            }
            other => panic!("expected a constant predictor, got {other:?}"),
        }
    }

    #[test]
    fn killed_trials_charge_wasted_energy_within_the_budget() {
        let train = TaskSpec::new("t", 20, 3, 2).generate();
        let spec = RunSpec::single_core(10.0, 3)
            .with_fault(green_automl_energy::fault::FaultPlan::total_failure(7));
        let mut search = Search::new(
            SystemId::Custom("Test"),
            &spec,
            &train,
            &FitContext::default(),
        );
        for _ in 0..4 {
            let ran = search.trial(|_, _| panic!("total-failure plan kills every trial"));
            assert!(ran.is_none());
        }
        assert_eq!(search.trials_started(), 4);
        assert!(
            search.tracker.now() <= 10.0 + 1e-9,
            "kills stay inside the budget"
        );
        // The wasted tally matches the tracker's total exactly: nothing else
        // was charged.
        let total = search.tracker.measurement().energy.total_joules();
        let run = search.finish(majority_class_predictor(&train), 0);
        assert_eq!(run.n_trial_faults, 4);
        assert!(run.wasted_j > 0.0);
        assert_eq!(run.wasted_j.to_bits(), total.to_bits());
    }

    #[test]
    fn trial_fates_do_not_depend_on_what_the_trials_do() {
        let train = TaskSpec::new("t", 20, 3, 2).generate();
        let spec = RunSpec::single_core(10.0, 3)
            .with_fault(green_automl_energy::fault::FaultPlan::chaos(21))
            .with_trace();
        let fates = |work: bool| {
            let id = SystemId::Custom("Interleave");
            let mut search = Search::new(id, &spec, &train, &FitContext::default());
            let fates: Vec<bool> = (0..50)
                .map(|i| {
                    search
                        .trial(|t, _| {
                            if work {
                                t.charge(
                                    OpCounts::scalar(1e6 * (i + 1) as f64),
                                    ParallelProfile::serial(),
                                );
                            }
                        })
                        .is_none()
                })
                .collect();
            (fates, search.finish(majority_class_predictor(&train), 0))
        };
        // Successful trials' durations refine the energy estimate but must
        // never change which trials die.
        let (idle, idle_run) = fates(false);
        let (busy, busy_run) = fates(true);
        assert_eq!(idle, busy);
        assert!(idle.iter().any(|&f| f) && idle.iter().any(|&f| !f));
        // Every trial has one span, labelled by its index and tagged iff
        // it was killed.
        for (fates, run) in [(&idle, idle_run), (&busy, busy_run)] {
            let trace = run.trace.expect("traced spec");
            let trials: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Trial)
                .collect();
            assert_eq!(trials.len(), 50);
            for (i, (span, &killed)) in trials.iter().zip(fates).enumerate() {
                assert_eq!(span.label, format!("trial {i}"));
                assert_eq!(span.fault.is_some(), killed);
            }
            assert_eq!(run.n_trial_faults, fates.iter().filter(|&&f| f).count());
        }
    }
}
