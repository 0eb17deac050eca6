//! Gradient-boosted shallow trees with a softmax objective.
//!
//! One regression tree per class per round, fit on the softmax residuals —
//! the classic multiclass gradient-boosting machine (the role LightGBM /
//! XGBoost play inside FLAML and AutoGluon).

use crate::matrix::{Matrix, Shape};
use crate::models::tree::{DecisionTree, Ranked, TreeParams};
use crate::models::{softmax_inplace, Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// Gradient-boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbParams {
    /// Boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Depth of the per-round regression trees.
    pub max_depth: usize,
    /// Row subsampling fraction per round, `(0, 1]`. Below 1.0 each round
    /// draws `n_sub = max(2, floor(n * subsample))` rows with replacement;
    /// at 1.0, or when `n_sub` reaches `n`, it takes every row once.
    pub subsample: f64,
}

impl Default for GbParams {
    fn default() -> Self {
        GbParams {
            n_rounds: 30,
            learning_rate: 0.15,
            max_depth: 3,
            subsample: 0.8,
        }
    }
}

/// A fitted gradient-boosting ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    /// `trees[round][class]`.
    trees: Vec<Vec<DecisionTree>>,
    base_logits: Vec<f64>,
    learning_rate: f64,
    n_classes: usize,
}

impl GradientBoosting {
    /// Fit the ensemble.
    pub fn fit(
        params: &GbParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> GradientBoosting {
        assert!(params.n_rounds >= 1, "need at least one round");
        assert!(
            params.subsample > 0.0 && params.subsample <= 1.0,
            "subsample must lie in (0, 1]"
        );
        // One tree per class per round: cap total tree count on many-class
        // problems (real GBM stacks do the same to stay tractable).
        let params = GbParams {
            n_rounds: params.n_rounds.min((600 / n_classes).max(3)),
            ..*params
        };
        let params = &params;
        let n = x.rows();
        // Base score: class log-priors.
        let mut counts = vec![1.0f64; n_classes]; // +1 smoothing
        for &l in y {
            counts[l as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let base_logits: Vec<f64> = counts.iter().map(|c| (c / total).ln()).collect();

        let mut logits = Matrix::zeros(n, n_classes);
        for i in 0..n {
            logits.row_mut(i).copy_from_slice(&base_logits);
        }
        let tree_params = TreeParams {
            max_depth: params.max_depth,
            min_samples_split: 8,
            min_samples_leaf: 3,
            max_features_frac: 0.8,
            random_thresholds: false,
        };

        let n_sub = ((n as f64 * params.subsample) as usize).max(2).min(n);
        // Every round's split lists come from one ranking of `x`.
        let ranked = Ranked::new(x);
        let mut trees = Vec::with_capacity(params.n_rounds);
        // Buffers reused across rounds (refilled before every use, so the
        // fitted ensemble is bitwise unchanged).
        let mut residuals = vec![vec![0.0f64; n]; n_classes];
        let mut p: Vec<f64> = Vec::with_capacity(n_classes);
        let mut rows: Vec<usize> = Vec::with_capacity(n);
        let mut ys: Vec<f64> = Vec::with_capacity(n_sub);
        for _ in 0..params.n_rounds {
            // Softmax residuals on the full data.
            for i in 0..n {
                p.clear();
                p.extend_from_slice(logits.row(i));
                softmax_inplace(&mut p);
                for (k, res) in residuals.iter_mut().enumerate() {
                    let target = if y[i] as usize == k { 1.0 } else { 0.0 };
                    res[i] = target - p[k];
                }
            }
            tracker.charge(
                OpCounts::scalar((n * n_classes * 4) as f64 * x.scale()),
                ParallelProfile::model_training(),
            );

            // Row subsample for this round.
            rows.clear();
            if n_sub < n {
                rows.extend((0..n_sub).map(|_| rng.gen_range(0..n)));
            } else {
                rows.extend(0..n);
            }
            let xs = x.take_rows(&rows);
            // Every class tree of the round fits `xs`: derive its lists once.
            let draw = ranked.shared_draw(&rows);

            let mut round = Vec::with_capacity(n_classes);
            for (k, res) in residuals.iter().enumerate() {
                ys.clear();
                ys.extend(rows.iter().map(|&r| res[r]));
                let tree = DecisionTree::fit_regressor_presorted(
                    &tree_params,
                    &xs,
                    &ys,
                    &draw,
                    tracker,
                    rng,
                    ParallelProfile::model_training(),
                );
                // Update logits on the full data.
                tree.visit_and_charge(x, tracker, |i, value| {
                    logits.row_mut(i)[k] += params.learning_rate * value[0];
                });
                round.push(tree);
            }
            trees.push(round);
        }
        GradientBoosting {
            trees,
            base_logits,
            learning_rate: params.learning_rate,
            n_classes,
        }
    }

    /// Per-row cost: one traversal per tree plus softmax.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        self.trees
            .iter()
            .flatten()
            .map(|t| t.inference_ops_per_row())
            .sum::<OpCounts>()
            + OpCounts::scalar(3.0 * self.n_classes as f64)
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().flatten().map(|t| t.n_nodes()).sum()
    }

    /// Boosting rounds fitted.
    pub fn n_rounds(&self) -> usize {
        self.trees.len()
    }
}

/// Class probabilities: one visit per tree, rounds in order and classes
/// within a round, then the softmax.
impl Predict for GradientBoosting {
    fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        let n = x.rows();
        let mut out = Matrix::zeros(n, self.n_classes);
        for i in 0..n {
            out.row_mut(i).copy_from_slice(&self.base_logits);
        }
        for round in &self.trees {
            for (k, tree) in round.iter().enumerate() {
                tree.visit_leaves(x, walk, |i, value| {
                    out.row_mut(i)[k] += self.learning_rate * value[0];
                });
            }
        }
        for i in 0..n {
            softmax_inplace(out.row_mut(i));
        }
        out
    }

    fn charge(&self, shape: Shape, steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        for _ in self.trees.iter().flatten() {
            DecisionTree::charge_visit(steps.next_visit(), shape.row_scale, tracker);
        }
        tracker.charge(
            OpCounts::scalar((shape.rows * self.n_classes * 3) as f64 * shape.row_scale),
            ParallelProfile::batch_inference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::assert_learns;
    use crate::models::ModelSpec;

    #[test]
    fn learns_binary_task() {
        assert_learns(&ModelSpec::GradientBoosting(GbParams::default()), 2, 0.85);
    }

    #[test]
    fn learns_multiclass_task() {
        assert_learns(&ModelSpec::GradientBoosting(GbParams::default()), 3, 0.7);
    }

    #[test]
    fn more_rounds_cost_more_to_fit_and_predict() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let fit = |rounds: usize| {
            let mut t = crate::models::testutil::tracker();
            let mut rng = SplitMix64::seed_from_u64(0);
            let gb = GradientBoosting::fit(
                &GbParams {
                    n_rounds: rounds,
                    ..Default::default()
                },
                &x,
                &y,
                2,
                &mut t,
                &mut rng,
            );
            (t.now(), gb.inference_ops_per_row().total())
        };
        let (t5, i5) = fit(5);
        let (t40, i40) = fit(40);
        assert!(t40 > t5 * 4.0);
        assert!(i40 > i5 * 4.0);
    }

    #[test]
    fn probabilities_are_normalised() {
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let gb = GradientBoosting::fit(&GbParams::default(), &x, &y, 3, &mut t, &mut rng);
        let p = gb.predict_proba(&xt, &mut t);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert_eq!(gb.n_rounds(), 30);
    }

    #[test]
    #[should_panic(expected = "subsample")]
    fn invalid_subsample_panics() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let _ = GradientBoosting::fit(
            &GbParams {
                subsample: 0.0,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            &mut rng,
        );
    }
}
