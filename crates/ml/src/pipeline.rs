//! ML pipelines: a preprocessor chain plus a classifier.
//!
//! The unit the AutoML systems search over. A [`Pipeline`] is a cheap,
//! cloneable *specification*; [`Pipeline::fit`] produces a
//! [`FittedPipeline`] that predicts on raw datasets and can report its
//! inference cost up front — the hook CAML's inference-time constraints
//! (paper §3.4) need.

use crate::kernel;
use crate::matrix::{
    charge_encode, encode, encode_values, encoded_shape, encoded_width, Matrix, Shape,
};
use crate::models::{
    answer_then_charge, argmax_rows, FittedModel, ModelSpec, Predict, Steps, Traversals,
};
use crate::preprocess::{FittedPreproc, PreprocSpec};
use green_automl_dataset::Dataset;
use green_automl_energy::{CostTracker, Device, OpCounts, ParallelProfile};

/// Per-prediction framework overhead (dispatch, batching, data marshalling
/// of the Python stacks the paper measures — amortised over batch
/// prediction), charged as scalar FLOPs.
pub const PREDICT_OVERHEAD_FLOPS: f64 = 2.0e4;

/// Per-fit framework overhead (pipeline assembly, process setup).
pub const FIT_OVERHEAD_FLOPS: f64 = 5.0e6;

/// How a predict pays the per-prediction framework overhead
/// ([`PREDICT_OVERHEAD_FLOPS`] per framework predict call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// One framework call per row: row-at-a-time requests (the default
    /// predict path).
    PerRow,
    /// One framework call per batch: a micro-batching serving layer.
    PerBatch,
}

impl Dispatch {
    /// Charge the dispatch overhead of `models` model artefacts answering
    /// a batch of `shape`.
    pub fn charge(self, models: usize, shape: Shape, tracker: &mut CostTracker) {
        let calls = match self {
            Dispatch::PerRow => shape.rows * models,
            Dispatch::PerBatch => models,
        };
        tracker.charge(
            OpCounts::scalar(PREDICT_OVERHEAD_FLOPS * calls as f64 * shape.row_scale),
            ParallelProfile::batch_inference(),
        );
    }
}

/// An unfitted pipeline specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Preprocessor chain (a mean imputer is prepended automatically if the
    /// chain does not start with one — models need NaN-free input).
    pub preprocs: Vec<PreprocSpec>,
    /// The classifier at the end of the chain.
    pub model: ModelSpec,
}

impl Pipeline {
    /// Build a pipeline specification.
    pub fn new(preprocs: Vec<PreprocSpec>, model: ModelSpec) -> Pipeline {
        Pipeline { preprocs, model }
    }

    /// A short human-readable description, e.g.
    /// `"standard_scaler -> random_forest"`.
    pub fn describe(&self) -> String {
        let mut parts: Vec<String> = self
            .preprocs
            .iter()
            .map(|p| match p {
                PreprocSpec::MeanImputer => "mean_imputer".to_string(),
                PreprocSpec::StandardScaler => "standard_scaler".to_string(),
                PreprocSpec::MinMaxScaler => "minmax_scaler".to_string(),
                PreprocSpec::SelectKBest { frac } => format!("select_k_best({frac:.2})"),
                PreprocSpec::Pca { frac } => format!("pca({frac:.2})"),
            })
            .collect();
        parts.push(self.model.family().to_string());
        parts.join(" -> ")
    }

    /// Fit on a dataset (encode, fit-transform the preprocessor chain, fit
    /// the model), charging all work to `tracker`.
    pub fn fit(&self, ds: &Dataset, tracker: &mut CostTracker, seed: u64) -> FittedPipeline {
        tracker.charge(
            OpCounts::scalar(FIT_OVERHEAD_FLOPS),
            ParallelProfile::serial(),
        );
        let mut x = encode(ds, tracker);
        let mut chain: Vec<PreprocSpec> = Vec::with_capacity(self.preprocs.len() + 1);
        if !matches!(self.preprocs.first(), Some(PreprocSpec::MeanImputer)) {
            chain.push(PreprocSpec::MeanImputer);
        }
        chain.extend(self.preprocs.iter().copied());

        let mut fitted_preprocs = Vec::with_capacity(chain.len());
        for spec in &chain {
            let f = spec.fit(&x, &ds.labels, ds.n_classes, tracker);
            x = f.transform_into(x, tracker);
            fitted_preprocs.push(f);
        }
        let model = self.model.fit(&x, &ds.labels, ds.n_classes, tracker, seed);
        FittedPipeline {
            spec: self.clone(),
            fitted_preprocs,
            model,
            n_classes: ds.n_classes,
            d_encoded: encoded_width(ds),
        }
    }
}

/// A fitted pipeline, ready to predict on raw datasets.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedPipeline {
    spec: Pipeline,
    fitted_preprocs: Vec<FittedPreproc>,
    model: FittedModel,
    n_classes: usize,
    d_encoded: usize,
}

impl FittedPipeline {
    /// Assemble a fitted pipeline from already-fitted parts (used by
    /// systems that construct deployment artefacts outside `Pipeline::fit`,
    /// e.g. model distillation).
    ///
    /// # Panics
    /// Panics if `n_classes < 2`.
    pub fn from_parts(
        spec: Pipeline,
        fitted_preprocs: Vec<FittedPreproc>,
        model: FittedModel,
        n_classes: usize,
        d_encoded: usize,
    ) -> FittedPipeline {
        assert!(n_classes >= 2, "need at least two classes");
        FittedPipeline {
            spec,
            fitted_preprocs,
            model,
            n_classes,
            d_encoded,
        }
    }

    /// The specification this pipeline was fitted from.
    pub fn spec(&self) -> &Pipeline {
        &self.spec
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The fitted classifier.
    pub fn model(&self) -> &FittedModel {
        &self.model
    }

    /// Class-probability predictions on a raw dataset.
    pub fn predict_proba(&self, ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
        self.predict_proba_with(ds, Dispatch::PerRow, tracker)
    }

    /// Class-probability predictions on a raw dataset, charging the
    /// framework dispatch overhead **once for the whole batch** rather than
    /// once per row.
    ///
    /// Row-at-a-time serving pays [`PREDICT_OVERHEAD_FLOPS`] on every
    /// request; a serving layer that coalesces requests into a micro-batch
    /// pays it once per batch, so per-row cost strictly decreases with batch
    /// size (the preprocessor chain and model work stay per-row). The
    /// predictions themselves are identical to [`FittedPipeline::predict`].
    pub fn predict_proba_batch(&self, ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
        self.predict_proba_with(ds, Dispatch::PerBatch, tracker)
    }

    fn predict_proba_with(
        &self,
        ds: &Dataset,
        dispatch: Dispatch,
        tracker: &mut CostTracker,
    ) -> Matrix {
        answer_then_charge(
            |walk| self.answer(ds, walk),
            |steps| self.charge(encoded_shape(ds), dispatch, steps, tracker),
        )
    }

    /// Class probabilities of every row of a raw dataset, recording tree
    /// visits in `walk`; charges nothing (see [`Predict::answer`]).
    pub fn answer(&self, ds: &Dataset, walk: &mut Traversals) -> Matrix {
        // The features live in a pooled scratch buffer (reused across
        // folds and batch-predict calls) that every element-wise stage
        // transforms in place; it goes back to the pool once the model
        // has answered.
        let shape = encoded_shape(ds);
        let mut x = encode_values(ds, kernel::take_matrix(shape.rows, shape.cols));
        for f in &self.fitted_preprocs {
            x = f.apply_into(x);
        }
        let proba = self.model.answer(&x, walk);
        kernel::give_matrix(x);
        proba
    }

    /// Issue, in order, every charge predicting a raw dataset whose
    /// encoded matrix has `shape` makes under `dispatch`: the encoding,
    /// the dispatch overhead, each preprocessor, the model.
    pub fn charge(
        &self,
        shape: Shape,
        dispatch: Dispatch,
        steps: &mut Steps<'_>,
        tracker: &mut CostTracker,
    ) {
        charge_encode(shape, tracker);
        dispatch.charge(1, shape, tracker);
        let mut shape = shape;
        for f in &self.fitted_preprocs {
            f.charge(shape, tracker);
            shape = shape.with_cols(f.output_cols(shape.cols));
        }
        self.model.charge(shape, steps, tracker);
    }

    /// Hard-label predictions on a raw dataset.
    pub fn predict(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        argmax_rows(&self.predict_proba(ds, tracker))
    }

    /// Hard-label predictions with batch-amortised dispatch overhead
    /// (see [`FittedPipeline::predict_proba_batch`]).
    pub fn predict_batch(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        argmax_rows(&self.predict_proba_batch(ds, tracker))
    }

    /// Per-row inference operations (framework overhead + preprocessor
    /// chain + model), computable *without* running a prediction — which is
    /// what constraint-aware search needs.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        let mut ops = OpCounts::scalar(PREDICT_OVERHEAD_FLOPS);
        let mut d = self.d_encoded;
        for f in &self.fitted_preprocs {
            ops += f.inference_ops_per_row(d);
            d = f.output_cols(d);
        }
        ops + self.model.inference_ops_per_row()
    }

    /// Estimated wall seconds to predict one instance on `cores` of
    /// `device` (used for inference-time constraints, paper Fig. 6).
    pub fn inference_seconds_per_row(&self, device: Device, cores: usize) -> f64 {
        let mut probe = CostTracker::new(device, cores);
        probe.charge(
            self.inference_ops_per_row(),
            ParallelProfile::batch_inference(),
        );
        probe.now()
    }

    /// Parameter-count proxy of the fitted model.
    pub fn n_params(&self) -> usize {
        self.model.n_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::tree::TreeParams;
    use crate::{metrics, MlpParams};
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    fn task() -> (Dataset, Dataset) {
        let mut spec = TaskSpec::new("p", 400, 8, 2);
        spec.cluster_sep = 2.2;
        spec.categorical_frac = 0.25;
        spec.missing_frac = 0.05;
        let ds = spec.generate();
        train_test_split(&ds, 0.34, 0)
    }

    #[test]
    fn full_pipeline_learns_with_missing_and_categorical_data() {
        let (train, test) = task();
        let mut t = tracker();
        let spec = Pipeline::new(
            vec![PreprocSpec::StandardScaler],
            ModelSpec::RandomForest(Default::default()),
        );
        let fitted = spec.fit(&train, &mut t, 0);
        let pred = fitted.predict(&test, &mut t);
        let bal = metrics::balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.8, "pipeline balanced accuracy {bal}");
    }

    #[test]
    fn imputer_is_prepended_automatically() {
        let (train, _) = task();
        let mut t = tracker();
        let spec = Pipeline::new(vec![], ModelSpec::GaussianNb);
        let fitted = spec.fit(&train, &mut t, 0);
        assert!(matches!(
            fitted.fitted_preprocs[0],
            FittedPreproc::MeanImputer { .. }
        ));
    }

    #[test]
    fn describe_is_readable() {
        let spec = Pipeline::new(
            vec![PreprocSpec::StandardScaler, PreprocSpec::Pca { frac: 0.5 }],
            ModelSpec::DecisionTree(TreeParams::default()),
        );
        assert_eq!(
            spec.describe(),
            "standard_scaler -> pca(0.50) -> decision_tree"
        );
    }

    #[test]
    fn inference_ops_match_constraint_estimates() {
        let (train, _) = task();
        let mut t = tracker();
        let light = Pipeline::new(vec![], ModelSpec::GaussianNb).fit(&train, &mut t, 0);
        let heavy = Pipeline::new(vec![], ModelSpec::RandomForest(Default::default()))
            .fit(&train, &mut t, 0);
        let dev = Device::xeon_gold_6132();
        let sl = light.inference_seconds_per_row(dev, 1);
        let sh = heavy.inference_seconds_per_row(dev, 1);
        assert!(sl > 0.0);
        assert!(sh > sl, "forest must be slower per row than NB");
    }

    #[test]
    fn per_prediction_overhead_sets_a_floor() {
        let (train, _) = task();
        let mut t = tracker();
        let fitted = Pipeline::new(vec![], ModelSpec::GaussianNb).fit(&train, &mut t, 0);
        let ops = fitted.inference_ops_per_row();
        assert!(ops.scalar_flops >= PREDICT_OVERHEAD_FLOPS);
    }

    #[test]
    fn mlp_pipeline_charges_gpu_eligible_flops() {
        let (train, test) = task();
        let mut t = tracker();
        let fitted = Pipeline::new(
            vec![PreprocSpec::StandardScaler],
            ModelSpec::Mlp(MlpParams {
                epochs: 5,
                ..Default::default()
            }),
        )
        .fit(&train, &mut t, 0);
        let _ = fitted.predict(&test, &mut t);
        assert!(t.measurement().ops.matmul_flops > 0.0);
    }

    #[test]
    fn batched_predictions_match_and_cost_less() {
        let (train, test) = task();
        let mut t = tracker();
        let fitted = Pipeline::new(
            vec![PreprocSpec::StandardScaler],
            ModelSpec::RandomForest(Default::default()),
        )
        .fit(&train, &mut t, 0);

        let mut row_t = tracker();
        let row_pred = fitted.predict(&test, &mut row_t);
        let mut batch_t = tracker();
        let batch_pred = fitted.predict_batch(&test, &mut batch_t);

        assert_eq!(row_pred, batch_pred);
        let saved = PREDICT_OVERHEAD_FLOPS * (test.n_rows() - 1) as f64;
        let d_flops = row_t.measurement().ops.scalar_flops - batch_t.measurement().ops.scalar_flops;
        assert!(
            (d_flops - saved).abs() < 1.0,
            "batch path must amortise exactly the dispatch overhead, got {d_flops} vs {saved}"
        );
    }

    #[test]
    fn predictions_are_deterministic_given_seed() {
        let (train, test) = task();
        let run = || {
            let mut t = tracker();
            let fitted = Pipeline::new(
                vec![PreprocSpec::StandardScaler],
                ModelSpec::RandomForest(Default::default()),
            )
            .fit(&train, &mut t, 7);
            fitted.predict(&test, &mut t)
        };
        assert_eq!(run(), run());
    }
}
