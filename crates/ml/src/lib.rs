//! # green-automl-ml
//!
//! The op-charging ML substrate underneath the simulated AutoML systems.
//!
//! Everything the paper's systems search over is implemented here from
//! scratch: preprocessors (imputation, scaling, feature selection, PCA),
//! ten classifier families (CART decision trees, random forests, extra
//! trees, gradient boosting, k-NN, logistic regression, linear SVM, Gaussian
//! naive Bayes, MLP, and a TabPFN-style in-context attention model),
//! pipelines that chain them, balanced-accuracy metrics, and hold-out /
//! k-fold validation.
//!
//! Every training and prediction routine *charges* its operations into a
//! [`green_automl_energy::CostTracker`], multiplied by the dataset's
//! logical-size factor, so the energy a pipeline consumes is an emergent
//! property of the work it really does.
//!
//! ## Example
//!
//! ```
//! use green_automl_dataset::TaskSpec;
//! use green_automl_dataset::split::train_test_split;
//! use green_automl_energy::{CostTracker, Device};
//! use green_automl_ml::{metrics, Pipeline, PreprocSpec, ModelSpec, TreeParams};
//!
//! let data = TaskSpec::new("demo", 300, 8, 2).generate();
//! let (train, test) = train_test_split(&data, 0.34, 0);
//! let mut tracker = CostTracker::new(Device::xeon_gold_6132(), 1);
//!
//! let spec = Pipeline::new(
//!     vec![PreprocSpec::StandardScaler],
//!     ModelSpec::DecisionTree(TreeParams::default()),
//! );
//! let fitted = spec.fit(&train, &mut tracker, 0);
//! let preds = fitted.predict(&test, &mut tracker);
//! let acc = metrics::balanced_accuracy(&test.labels, &preds, test.n_classes);
//! assert!(acc > 0.5); // comfortably beats chance on a separable task
//! assert!(tracker.measurement().energy.total_joules() > 0.0);
//! ```

pub mod evalcache;
pub mod kernel;
pub mod matrix;
pub mod metrics;
pub mod models;
pub mod pipeline;
pub mod preprocess;
pub mod validation;

pub use evalcache::{CacheView, EvalCache, EvalKey, EvalScope};
pub use matrix::{Matrix, Shape};
pub use models::attention::AttentionParams;
pub use models::boosting::GbParams;
pub use models::forest::ForestParams;
pub use models::knn::KnnParams;
pub use models::linear::{LogisticParams, SvmParams};
pub use models::mlp::MlpParams;
pub use models::tree::TreeParams;
pub use models::{FittedModel, ModelSpec, Predict};
pub use pipeline::{Dispatch, FittedPipeline, Pipeline};
pub use preprocess::PreprocSpec;
