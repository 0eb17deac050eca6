//! # green-automl
//!
//! A holistic **energy benchmark for AutoML on tabular data** — a Rust
//! reproduction of *"How Green is AutoML for Tabular Data?"* (Neutatz,
//! Lindauer & Abedjan, EDBT 2025).
//!
//! The paper measures how much energy state-of-the-art AutoML systems
//! consume across the three Green-AutoML stages — *development*,
//! *execution*, and *inference* — on the 39-dataset AMLB suite, and derives
//! a guideline for picking the most energy-efficient system. This crate
//! re-exports the whole reproduction stack:
//!
//! * [`energy`] — the operation-accounted virtual power meter (the
//!   CodeCarbon/RAPL stand-in);
//! * [`dataset`] — synthetic materialisations of the AMLB datasets;
//! * [`ml`] — the from-scratch classifier/preprocessor substrate;
//! * [`optim`] — Bayesian optimisation, NSGA-II, median pruning;
//! * [`systems`] — the seven simulated AutoML systems (AutoGluon,
//!   AutoSklearn 1/2, FLAML, TabPFN, TPOT, CAML);
//! * [`core`] — the three-stage benchmark, the development-stage tuner, and
//!   the Fig.-8 guideline engine;
//! * [`serve`] — the energy-metered inference serving layer: model
//!   registry, traffic replay, SLO/carbon report, and one micro-batching
//!   fleet loop (carbon-aware regional routing, replica autoscaling,
//!   per-tenant energy budgets) that single-model serving calls with one
//!   tenant;
//! * [`experiments`] — one runner per paper table/figure (also available as
//!   the `repro` binary).
//!
//! ## Quickstart
//!
//! ```
//! use green_automl::prelude::*;
//!
//! // A small tabular task (or load your own CSV via `dataset::csv`).
//! let data = TaskSpec::new("demo", 300, 8, 2).generate();
//! let (train, test) = train_test_split(&data, 0.34, 0);
//!
//! // Run an AutoML system under a 30-virtual-second budget...
//! let run = Flaml::default().fit(&train, &RunSpec::single_core(30.0, 0));
//!
//! // ...and meter the inference stage separately.
//! let mut meter = CostTracker::new(Device::xeon_gold_6132(), 1);
//! let predictions = run.predictor.predict(&test, &mut meter);
//! let accuracy = balanced_accuracy(&test.labels, &predictions, test.n_classes);
//!
//! assert!(accuracy > 0.5);
//! assert!(run.execution.kwh() > 0.0);
//! assert!(meter.measurement().kwh() > 0.0);
//! ```

pub use green_automl_core as core;
pub use green_automl_dataset as dataset;
pub use green_automl_energy as energy;
pub use green_automl_experiments as experiments;
pub use green_automl_ml as ml;
pub use green_automl_optim as optim;
pub use green_automl_serve as serve;
pub use green_automl_systems as systems;

/// The most common imports in one place.
pub mod prelude {
    pub use green_automl_core::{
        recommend, run_grid_checked, run_grid_cluster, trillion_prediction_cost, BenchmarkOptions,
        CellFailure, ClusterGridRun, ClusterOptions, ClusterReport, DevTuneOptions, DevTuner,
        GridRun, HolisticReport, HostStats, Priority, Recommendation, ServingProfile, Stage,
        TaskProfile,
    };
    pub use green_automl_dataset::split::train_test_split;
    pub use green_automl_dataset::{
        amlb39, dev_binary_pool, Dataset, MaterializeOptions, TaskSpec,
    };
    pub use green_automl_energy::{
        CarbonProfile, CostTracker, Device, EmissionsEstimate, FaultInjector, FaultKind, FaultPlan,
        FaultPlanError, GridIntensity, Histogram, HostFault, Measurement, MetricsRegistry,
        OpCounts, Span, SpanKind, Trace, Tracer, TrialFault,
    };
    pub use green_automl_ml::metrics::balanced_accuracy;
    pub use green_automl_ml::{ModelSpec, Pipeline, PreprocSpec};
    pub use green_automl_serve::{
        run_fleet, serve, AutoscaleEvent, AutoscalePolicy, FleetConfig, FleetReport, FleetTrace,
        FleetTrafficConfig, ModelRegistry, RegionSpec, RouterPolicy, ScaleReason, ServeConfig,
        ServingReport, Shape, SloPolicy, TenantSpec, TenantTraffic, TrafficConfig,
    };
    pub use green_automl_systems::{
        all_systems, AutoGluon, AutoGluonQuality, AutoMlSystem, AutoSklearn1, AutoSklearn2, Caml,
        CamlParams, Constraints, Flaml, Predictor, RunSpec, RunSpecError, SystemId, TabPfn, Tpot,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_coherent() {
        let systems = all_systems();
        assert_eq!(systems.len(), 7);
        assert_eq!(amlb39().len(), 39);
        assert_eq!(SystemId::Flaml.to_string(), "FLAML");
        assert_eq!("TabPFN".parse::<SystemId>(), Ok(SystemId::TabPfn));
        assert_eq!(Trace::empty().spans.len(), 0);
        assert_eq!(RouterPolicy::CarbonBlind.name(), "carbon-blind");
        assert!(!AutoscalePolicy::pinned().wants_up(1_000, 1));
        assert_eq!(
            CarbonProfile::flat(GridIntensity::SWEDEN).intensity_at(0.0),
            GridIntensity::SWEDEN.kg_co2_per_kwh
        );
        let profile = TaskProfile {
            has_dev_compute: false,
            many_executions: false,
            budget_s: 60.0,
            n_classes: 2,
            gpu_available: false,
            priority: Priority::Accuracy,
            serving: None,
        };
        assert_eq!(recommend(&profile), Recommendation::AutoGluon);
    }
}
