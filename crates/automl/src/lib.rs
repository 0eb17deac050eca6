//! # green-automl-systems
//!
//! From-scratch Rust simulations of the seven AutoML configurations the
//! paper benchmarks, behind one [`AutoMlSystem`] trait:
//!
//! | System | Paper §2.2 | Module |
//! |---|---|---|
//! | AutoGluon 0.6.2 | predefined pipelines + bagging + stacking + Caruana | [`autogluon`] |
//! | AutoSklearn 1 (0.14.7) | BO + meta-learned warm start + Caruana top-50 | [`askl`] |
//! | AutoSklearn 2 (0.14.7) | BO + portfolio + fidelity schedule + Caruana | [`askl`] |
//! | FLAML 1.2.4 | cost-frugal search, single low-cost model | [`flaml`] |
//! | TabPFN 0.1.9 | zero-search in-context transformer | [`tabpfn`] |
//! | TPOT 0.11.7 | NSGA-II genetic programming, 5-fold CV | [`tpot`] |
//! | CAML | BO + successive halving + constraints, tunable parameters | [`caml`] |
//!
//! Every `fit` runs against a **virtual-clock budget** on a simulated
//! [`green_automl_energy::Device`] and returns both a deployable
//! [`Predictor`] and the execution-stage [`Measurement`]. The systems'
//! budget-adherence quirks from the paper's Table 7 are reproduced: CAML
//! strict, FLAML finishes its last model, AutoGluon estimates stacking
//! cost optimistically, AutoSklearn excludes ensembling from the budget,
//! TabPFN ignores budgets entirely.

pub mod askl;
pub mod autogluon;
pub mod baselines;
pub mod caml;
pub mod ensemble;
pub mod flaml;
pub mod id;
pub mod metastore;
pub mod pipespace;
pub mod system;
pub mod tabpfn;
pub mod tpot;

pub use askl::{AutoSklearn1, AutoSklearn2};
pub use autogluon::{AutoGluon, AutoGluonQuality};
pub use baselines::{GridSearchBaseline, RandomSearchBaseline};
pub use caml::{Caml, CamlParams};
pub use ensemble::{caruana_selection, StackedEnsemble, WeightedEnsemble};
pub use flaml::Flaml;
pub use id::{ParseSystemIdError, SystemId};
pub use system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, Constraints, DesignCard, FitContext,
    Predictor, RunSpec, RunSpecError, Search,
};
pub use tabpfn::TabPfn;
pub use tpot::Tpot;

/// All seven benchmarked system configurations, boxed, in the paper's
/// reporting order.
pub fn all_systems() -> Vec<Box<dyn AutoMlSystem>> {
    vec![
        Box::new(TabPfn::default()),
        Box::new(AutoGluon::default()),
        Box::new(AutoSklearn1::default()),
        Box::new(AutoSklearn2::default()),
        Box::new(Caml::default()),
        Box::new(Tpot::default()),
        Box::new(Flaml::default()),
    ]
}
