//! # green-automl-optim
//!
//! The search substrate underneath the simulated AutoML systems:
//!
//! * [`space`] — typed hyperparameter configuration spaces (float / int /
//!   categorical, optionally log-scaled);
//! * [`random`] and [`grid`] — the naive baselines the paper's §1 cites as
//!   the amortisation yardstick;
//! * [`bo`] — Bayesian optimisation with a random-forest surrogate and
//!   expected improvement (the SMAC recipe behind AutoSklearn and CAML);
//! * [`nsga2`] — the NSGA-II evolutionary loop behind TPOT;
//! * [`pruner`] — median pruning (used by the §2.5 development-stage tuner);
//! * [`kmeans`](mod@kmeans) — k-means++ clustering (representative-dataset selection).
//!
//! Search algorithms report the operations their own bookkeeping costs
//! (surrogate fits, sorting fronts) as [`green_automl_energy::OpCounts`] so
//! callers can charge them to a meter — in AutoML the optimiser itself is
//! part of the measured system.

pub mod bo;
pub mod grid;
pub mod kmeans;
pub mod nsga2;
pub mod pruner;
pub mod random;
pub mod space;

pub use bo::BayesOpt;
pub use kmeans::{kmeans, representatives};
pub use pruner::MedianPruner;
pub use space::{Config, ConfigSpace, ParamKind};
