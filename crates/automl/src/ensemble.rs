//! Ensembling machinery: Caruana ensemble selection (used by AutoSklearn
//! and AutoGluon), weighted flat ensembles, and AutoGluon's bagged +
//! stacked architecture.

use green_automl_dataset::Dataset;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};
use green_automl_ml::matrix::{charge_encode, encode_values, encoded_shape, encoded_width};
use green_automl_ml::metrics::balanced_accuracy;
use green_automl_ml::models::{answer_then_charge, argmax_rows, Steps, Traversals};
use green_automl_ml::preprocess::FittedPreproc;
use green_automl_ml::{Dispatch, FittedModel, FittedPipeline, Matrix, Predict, Shape};

/// Caruana et al. (2004) greedy ensemble selection *with replacement*:
/// repeatedly add the candidate whose inclusion maximises the validation
/// balanced accuracy of the averaged probabilities. Returns one weight per
/// candidate (weights sum to 1; zero-weight candidates are dropped by the
/// ensemble constructors).
///
/// This step runs on the validation predictions of every evaluated model —
/// for large validation sets it "requires significant time and therefore
/// energy" (paper §3.2, the reason ASKL overshoots its budget) — so it
/// charges `tracker` accordingly.
pub fn caruana_selection(
    candidates: &[Matrix],
    labels: &[u32],
    n_classes: usize,
    iters: usize,
    tracker: &mut CostTracker,
) -> Vec<f64> {
    assert!(!candidates.is_empty(), "need at least one candidate");
    let n_val = labels.len();
    assert!(
        candidates
            .iter()
            .all(|m| m.rows() == n_val && m.cols() == n_classes),
        "candidate shape mismatch"
    );
    let mut counts = vec![0usize; candidates.len()];
    let mut sum = Matrix::zeros(n_val, n_classes);
    let mut total = 0usize;
    for _ in 0..iters.max(1) {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (ci, cand) in candidates.iter().enumerate() {
            // Score of (sum + cand) / (total + 1).
            let mut pred = Vec::with_capacity(n_val);
            for r in 0..n_val {
                let row_sum = sum.row(r);
                let row_c = cand.row(r);
                let mut arg = 0usize;
                let mut best_v = f64::NEG_INFINITY;
                for k in 0..n_classes {
                    let v = row_sum[k] + row_c[k];
                    if v > best_v {
                        best_v = v;
                        arg = k;
                    }
                }
                pred.push(arg as u32);
            }
            let score = balanced_accuracy(labels, &pred, n_classes);
            if score > best.1 {
                best = (ci, score);
            }
        }
        counts[best.0] += 1;
        total += 1;
        for r in 0..n_val {
            let c = candidates[best.0].row(r).to_vec();
            let dst = sum.row_mut(r);
            for (d, s) in dst.iter_mut().zip(c) {
                *d += s;
            }
        }
    }
    tracker.charge(
        OpCounts::scalar(
            (iters * candidates.len() * n_val * n_classes) as f64
                * candidates.first().map_or(1.0, |m| m.row_scale),
        ),
        ParallelProfile::model_training(),
    );
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// A weighted flat ensemble of fitted pipelines (AutoSklearn's deployment
/// artefact).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedEnsemble {
    members: Vec<(FittedPipeline, f64)>,
    n_classes: usize,
}

impl WeightedEnsemble {
    /// Build from pipelines and Caruana weights, dropping zero-weight
    /// members.
    ///
    /// # Panics
    /// Panics if lengths mismatch or every weight is zero.
    pub fn new(pipelines: Vec<FittedPipeline>, weights: &[f64], n_classes: usize) -> Self {
        assert_eq!(pipelines.len(), weights.len(), "weight/pipeline mismatch");
        let members: Vec<(FittedPipeline, f64)> = pipelines
            .into_iter()
            .zip(weights)
            .filter(|(_, &w)| w > 0.0)
            .map(|(p, &w)| (p, w))
            .collect();
        assert!(!members.is_empty(), "ensemble needs a non-zero weight");
        WeightedEnsemble { members, n_classes }
    }

    /// Weighted average of member probabilities.
    pub fn predict_proba(&self, ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
        answer_then_charge(
            |walk| self.answer(ds, walk),
            |steps| self.charge(encoded_shape(ds), Dispatch::PerRow, steps, tracker),
        )
    }

    /// Weighted average of the members' answers (see
    /// [`FittedPipeline::answer`]); charges nothing.
    pub(crate) fn answer(&self, ds: &Dataset, walk: &mut Traversals) -> Matrix {
        let mut out = Matrix::zeros(ds.n_rows(), self.n_classes);
        let wsum: f64 = self.members.iter().map(|(_, w)| w).sum();
        for (p, w) in &self.members {
            let proba = p.answer(ds, walk);
            for r in 0..out.rows() {
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(proba.row(r)) {
                    *d += w / wsum * s;
                }
            }
        }
        out
    }

    /// Every member's charges, in member order (see
    /// [`FittedPipeline::charge`]).
    pub(crate) fn charge(
        &self,
        shape: Shape,
        dispatch: Dispatch,
        steps: &mut Steps<'_>,
        tracker: &mut CostTracker,
    ) {
        for (p, _) in &self.members {
            p.charge(shape, dispatch, steps, tracker);
        }
    }

    /// Hard labels (argmax of the weighted average).
    pub fn predict(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        argmax_rows(&self.predict_proba(ds, tracker))
    }

    /// Sum of members' per-row costs — every member answers every query.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        self.members
            .iter()
            .map(|(p, _)| p.inference_ops_per_row())
            .sum::<OpCounts>()
            + OpCounts::scalar((self.members.len() * self.n_classes) as f64)
    }

    /// Distinct member pipelines.
    pub fn n_models(&self) -> usize {
        self.members.len()
    }

    /// Total parameter count across members (memory-footprint proxy).
    pub fn n_params(&self) -> usize {
        self.members.iter().map(|(p, _)| p.n_params()).sum()
    }
}

/// A k-fold-bagged model: AutoGluon trains one model per fold and averages
/// them at inference; "refit" collapses the bag into one model trained on
/// all data (the paper's Fig. 6 inference optimisation).
#[derive(Debug, Clone, PartialEq)]
pub struct BaggedModel {
    /// Fold models (length 1 after a refit).
    pub folds: Vec<FittedModel>,
    n_classes: usize,
}

impl BaggedModel {
    /// Wrap fold models.
    ///
    /// # Panics
    /// Panics if `folds` is empty.
    pub fn new(folds: Vec<FittedModel>, n_classes: usize) -> BaggedModel {
        assert!(!folds.is_empty(), "a bag needs at least one fold model");
        BaggedModel { folds, n_classes }
    }

    /// Average of the fold models' probabilities. Every fold model is a
    /// separate framework predict call, so each charges the per-prediction
    /// dispatch overhead — the mechanism that makes large bagged stacks an
    /// order of magnitude more expensive at inference (Observation O1).
    pub fn predict_proba(&self, x: &Matrix, tracker: &mut CostTracker) -> Matrix {
        answer_then_charge(
            |walk| self.answer(x, walk),
            |steps| self.charge(x.shape(), Dispatch::PerRow, steps, tracker),
        )
    }

    /// The fold models' average answer; charges nothing.
    pub(crate) fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for f in &self.folds {
            let p = f.answer(x, walk);
            for r in 0..out.rows() {
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(p.row(r)) {
                    *d += s;
                }
            }
        }
        let inv = 1.0 / self.folds.len() as f64;
        for v in out.as_mut_slice() {
            *v *= inv;
        }
        out
    }

    /// The bag's charges on an input of `shape`: one framework dispatch
    /// per fold model under `dispatch`, then each fold model's charges.
    pub(crate) fn charge(
        &self,
        shape: Shape,
        dispatch: Dispatch,
        steps: &mut Steps<'_>,
        tracker: &mut CostTracker,
    ) {
        dispatch.charge(self.folds.len(), shape, tracker);
        for f in &self.folds {
            f.charge(shape, steps, tracker);
        }
    }

    /// Sum of fold costs, including one framework dispatch per fold model.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        self.folds
            .iter()
            .map(FittedModel::inference_ops_per_row)
            .sum::<OpCounts>()
            + OpCounts::scalar(
                green_automl_ml::pipeline::PREDICT_OVERHEAD_FLOPS * self.folds.len() as f64,
            )
    }

    /// Total parameter count across fold models.
    pub fn n_params(&self) -> usize {
        self.folds.iter().map(FittedModel::n_params).sum()
    }
}

/// AutoGluon's deployment artefact: a preprocessing chain, a bagged first
/// layer, a bagged second (stacking) layer that sees the original features
/// *plus* every layer-1 probability, and Caruana weights over the layer-2
/// outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedEnsemble {
    /// Fitted preprocessing chain applied to the encoded features.
    pub preprocs: Vec<FittedPreproc>,
    /// First (base) layer.
    pub layer1: Vec<BaggedModel>,
    /// Second (stacker) layer; may be empty under tiny budgets.
    pub layer2: Vec<BaggedModel>,
    /// Caruana weights over the final layer's outputs.
    pub weights: Vec<f64>,
    n_classes: usize,
    d_encoded: usize,
}

impl StackedEnsemble {
    /// Assemble a stacked ensemble.
    ///
    /// # Panics
    /// Panics if `weights` does not match the final layer's length
    /// (layer 2, or layer 1 when layer 2 is empty).
    pub fn new(
        preprocs: Vec<FittedPreproc>,
        layer1: Vec<BaggedModel>,
        layer2: Vec<BaggedModel>,
        weights: Vec<f64>,
        n_classes: usize,
        d_encoded: usize,
    ) -> StackedEnsemble {
        let final_len = if layer2.is_empty() {
            layer1.len()
        } else {
            layer2.len()
        };
        assert_eq!(weights.len(), final_len, "weights/final-layer mismatch");
        assert!(!layer1.is_empty(), "need at least one base model");
        StackedEnsemble {
            preprocs,
            layer1,
            layer2,
            weights,
            n_classes,
            d_encoded,
        }
    }

    /// Layer-1 probabilities appended to the feature matrix (the stacking
    /// augmentation).
    pub fn augment(&self, x: &Matrix, tracker: &mut CostTracker) -> Matrix {
        answer_then_charge(
            |walk| self.augmented(x, walk),
            |steps| {
                for bag in &self.layer1 {
                    bag.charge(x.shape(), Dispatch::PerRow, steps, tracker);
                }
            },
        )
    }

    fn augmented(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        let extra = self.layer1.len() * self.n_classes;
        let mut out = Matrix::zeros(x.rows(), x.cols() + extra);
        out.row_scale = x.row_scale;
        out.feat_scale = x.feat_scale;
        for r in 0..x.rows() {
            out.row_mut(r)[..x.cols()].copy_from_slice(x.row(r));
        }
        for (mi, bag) in self.layer1.iter().enumerate() {
            let p = bag.answer(x, walk);
            for r in 0..x.rows() {
                let base = x.cols() + mi * self.n_classes;
                out.row_mut(r)[base..base + self.n_classes].copy_from_slice(p.row(r));
            }
        }
        out
    }

    /// Full stacked prediction.
    pub fn predict_proba(&self, ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
        answer_then_charge(
            |walk| self.answer(ds, walk),
            |steps| self.charge(encoded_shape(ds), Dispatch::PerRow, steps, tracker),
        )
    }

    /// The stack's answer on a raw dataset: encode and preprocess, answer
    /// layer 1 (and, through the augmented features, layer 2), and mix the
    /// final layer by the Caruana weights. Charges nothing.
    pub(crate) fn answer(&self, ds: &Dataset, walk: &mut Traversals) -> Matrix {
        let mut x = encode_values(ds, Matrix::zeros(ds.n_rows(), encoded_width(ds)));
        for p in &self.preprocs {
            x = p.apply_into(x);
        }
        let outputs: Vec<Matrix> = if self.layer2.is_empty() {
            self.layer1.iter().map(|b| b.answer(&x, walk)).collect()
        } else {
            let aug = self.augmented(&x, walk);
            self.layer2.iter().map(|b| b.answer(&aug, walk)).collect()
        };
        let wsum: f64 = self.weights.iter().sum::<f64>().max(1e-12);
        let mut out = Matrix::zeros(ds.n_rows(), self.n_classes);
        for (p, &w) in outputs.iter().zip(&self.weights) {
            if w <= 0.0 {
                continue;
            }
            for r in 0..out.rows() {
                let dst = out.row_mut(r);
                for (d, s) in dst.iter_mut().zip(p.row(r)) {
                    *d += w / wsum * s;
                }
            }
        }
        out
    }

    /// The stack's charges for a raw dataset whose encoded matrix has
    /// `shape`: the encoding and each preprocessor, every layer-1 bag on
    /// the features, then every layer-2 bag on the augmented features.
    pub(crate) fn charge(
        &self,
        shape: Shape,
        dispatch: Dispatch,
        steps: &mut Steps<'_>,
        tracker: &mut CostTracker,
    ) {
        charge_encode(shape, tracker);
        let mut shape = shape;
        for p in &self.preprocs {
            p.charge(shape, tracker);
            shape = shape.with_cols(p.output_cols(shape.cols));
        }
        for bag in &self.layer1 {
            bag.charge(shape, dispatch, steps, tracker);
        }
        let augmented = shape.with_cols(shape.cols + self.layer1.len() * self.n_classes);
        for bag in &self.layer2 {
            bag.charge(augmented, dispatch, steps, tracker);
        }
    }

    /// Hard labels.
    pub fn predict(&self, ds: &Dataset, tracker: &mut CostTracker) -> Vec<u32> {
        argmax_rows(&self.predict_proba(ds, tracker))
    }

    /// Per-row cost: preprocessing + every layer-1 fold + every layer-2
    /// fold. Note layer 1 always runs (its outputs feed layer 2) — this is
    /// the ">= one order of magnitude" inference-energy overhead of
    /// Observation O1.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        let mut ops = OpCounts::ZERO;
        let mut d = self.d_encoded;
        for p in &self.preprocs {
            ops += p.inference_ops_per_row(d);
            d = p.output_cols(d);
        }
        for b in &self.layer1 {
            ops += b.inference_ops_per_row();
        }
        for b in &self.layer2 {
            ops += b.inference_ops_per_row();
        }
        ops + OpCounts::scalar(((self.layer1.len() + self.layer2.len()) * self.n_classes) as f64)
    }

    /// Total fold models across both layers.
    pub fn n_models(&self) -> usize {
        self.layer1.iter().map(|b| b.folds.len()).sum::<usize>()
            + self.layer2.iter().map(|b| b.folds.len()).sum::<usize>()
    }

    /// Total parameter count across both layers (memory-footprint proxy).
    pub fn n_params(&self) -> usize {
        self.layer1.iter().map(BaggedModel::n_params).sum::<usize>()
            + self.layer2.iter().map(BaggedModel::n_params).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::Device;
    use green_automl_ml::{ModelSpec, Pipeline};

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    #[test]
    fn caruana_prefers_the_accurate_candidate() {
        let labels = vec![0u32, 0, 1, 1];
        // Candidate 0: perfect; candidate 1: always class 0.
        let perfect = Matrix::from_vec(vec![0.9, 0.1, 0.9, 0.1, 0.1, 0.9, 0.1, 0.9], 4, 2);
        let lazy = Matrix::from_vec([0.9, 0.1].repeat(4), 4, 2);
        let mut t = tracker();
        let w = caruana_selection(&[perfect, lazy], &labels, 2, 10, &mut t);
        assert!(w[0] > 0.8, "perfect candidate should dominate: {w:?}");
        assert!(t.measurement().energy.total_joules() > 0.0);
    }

    #[test]
    fn caruana_mixes_complementary_candidates() {
        let labels = vec![0u32, 1, 0, 1];
        // Candidate A is right on rows 0-1, candidate B on rows 2-3.
        let a = Matrix::from_vec(vec![0.9, 0.1, 0.1, 0.9, 0.4, 0.6, 0.6, 0.4], 4, 2);
        let b = Matrix::from_vec(vec![0.4, 0.6, 0.6, 0.4, 0.9, 0.1, 0.1, 0.9], 4, 2);
        let mut t = tracker();
        let w = caruana_selection(&[a, b], &labels, 2, 20, &mut t);
        assert!(w[0] > 0.1 && w[1] > 0.1, "both should contribute: {w:?}");
        assert!((w[0] + w[1] - 1.0).abs() < 1e-12);
    }

    fn fit_pipelines(n: usize) -> (Vec<FittedPipeline>, Dataset, Dataset) {
        let mut spec = TaskSpec::new("e", 240, 6, 2);
        spec.cluster_sep = 2.0;
        let ds = spec.generate();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let mut t = tracker();
        let pipes = (0..n)
            .map(|i| {
                Pipeline::new(vec![], ModelSpec::DecisionTree(Default::default()))
                    .fit(&train, &mut t, i as u64)
            })
            .collect();
        (pipes, train, test)
    }

    #[test]
    fn weighted_ensemble_predicts_and_charges_per_member() {
        let (pipes, _, test) = fit_pipelines(3);
        let ens = WeightedEnsemble::new(pipes, &[0.5, 0.5, 0.0], 2);
        assert_eq!(ens.n_models(), 2); // zero-weight member dropped
        let mut t1 = tracker();
        let _ = ens.predict(&test, &mut t1);
        // Two members must cost roughly twice one member.
        let (single, _, test2) = fit_pipelines(1);
        let solo = WeightedEnsemble::new(single, &[1.0], 2);
        let mut t2 = tracker();
        let _ = solo.predict(&test2, &mut t2);
        assert!(t1.now() > t2.now() * 1.5);
        assert!(ens.inference_ops_per_row().total() > solo.inference_ops_per_row().total() * 1.5);
    }

    #[test]
    #[should_panic(expected = "non-zero weight")]
    fn all_zero_weights_panic() {
        let (pipes, _, _) = fit_pipelines(1);
        let _ = WeightedEnsemble::new(pipes, &[0.0], 2);
    }

    #[test]
    fn stacked_ensemble_roundtrip() {
        use green_automl_ml::matrix::encode;
        use green_automl_ml::preprocess::PreprocSpec;
        let mut spec = TaskSpec::new("s", 300, 6, 2);
        spec.cluster_sep = 2.0;
        let ds = spec.generate();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let mut t = tracker();
        let x = encode(&train, &mut t);
        let imputer = PreprocSpec::MeanImputer.fit(&x, &train.labels, 2, &mut t);
        let x = imputer.transform(&x, &mut t);
        let mut rng_seed = 0u64;
        let mut bag = |x: &Matrix| {
            rng_seed += 1;
            BaggedModel::new(
                vec![
                    ModelSpec::DecisionTree(Default::default()).fit(
                        x,
                        &train.labels,
                        2,
                        &mut t,
                        rng_seed,
                    ),
                    ModelSpec::DecisionTree(Default::default()).fit(
                        x,
                        &train.labels,
                        2,
                        &mut t,
                        rng_seed + 100,
                    ),
                ],
                2,
            )
        };
        let l1 = vec![bag(&x), bag(&x)];
        // Build layer 2 on the augmented matrix.
        let partial = StackedEnsemble::new(
            vec![imputer.clone()],
            l1.clone(),
            vec![],
            vec![0.5, 0.5],
            2,
            x.cols(),
        );
        let aug = partial.augment(&x, &mut t);
        assert_eq!(aug.cols(), x.cols() + 2 * 2);
        let l2 = vec![BaggedModel::new(
            vec![ModelSpec::DecisionTree(Default::default()).fit(
                &aug,
                &train.labels,
                2,
                &mut t,
                9,
            )],
            2,
        )];
        let stacked = StackedEnsemble::new(vec![imputer], l1, l2, vec![1.0], 2, x.cols());
        assert_eq!(stacked.n_models(), 5);
        let mut ti = tracker();
        let pred = stacked.predict(&test, &mut ti);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.65, "stacked balanced accuracy {bal}");
        // Stacked inference must cost well above a single tree's.
        let mut ts = tracker();
        let x_test = encode(&test, &mut ts);
        let single_ops = stacked.layer1[0].folds[0].inference_ops_per_row().total();
        let _ = x_test;
        assert!(stacked.inference_ops_per_row().total() > single_ops * 4.0);
    }
}
