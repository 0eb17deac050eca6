//! Random forests and extremely randomised trees.
//!
//! Bootstrap aggregation over [`DecisionTree`]s with per-node feature
//! subsampling. Tree fitting charges with an *embarrassingly parallel*
//! profile — this is the workload that makes AutoGluon benefit from extra
//! cores in the paper's Fig. 5, in contrast to sequential Bayesian
//! optimisation.

use crate::matrix::{Matrix, Shape};
use crate::models::tree::{DecisionTree, Ranked, TreeParams};
use crate::models::{Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree parameters. [`ForestParams::default`] examines a constant
    /// 0.35 of the features at each node (`max_features_frac`).
    pub tree: TreeParams,
    /// Draw bootstrap samples (`false` trains each tree on the full data,
    /// extra-trees style).
    pub bootstrap: bool,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 48,
            tree: TreeParams {
                max_depth: 12,
                min_samples_split: 8,
                min_samples_leaf: 2,
                max_features_frac: 0.35,
                random_thresholds: false,
            },
            bootstrap: true,
        }
    }
}

impl ForestParams {
    /// FLAML-style "low cost" starting point: 5 trees, at most 10 leaves
    /// each (approximated by depth 4 with large leaves).
    pub fn low_cost() -> Self {
        ForestParams {
            n_trees: 5,
            tree: TreeParams {
                max_depth: 4,
                min_samples_split: 16,
                min_samples_leaf: 8,
                max_features_frac: 0.5,
                random_thresholds: false,
            },
            bootstrap: true,
        }
    }
}

/// A fitted forest.
#[derive(Debug, Clone, PartialEq)]
pub struct Forest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl Forest {
    /// Fit `params.n_trees` trees; `random_thresholds = true` gives extra
    /// trees.
    pub fn fit(
        params: &ForestParams,
        random_thresholds: bool,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> Forest {
        assert!(params.n_trees >= 1, "need at least one tree");
        let n = x.rows();
        let tree_params = TreeParams {
            random_thresholds,
            ..params.tree
        };
        // Every tree's split lists come from one ranking of `x`; without
        // bootstrap every tree fits all of `x` and they share one
        // derivation.
        let ranked = Ranked::new(x);
        let all_rows: Vec<usize> = (0..n).collect();
        let all = ranked.shared_draw(&all_rows);
        let trees = (0..params.n_trees)
            .map(|_| {
                if params.bootstrap {
                    let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                    let bx = x.take_rows(&rows);
                    let by: Vec<u32> = rows.iter().map(|&r| y[r]).collect();
                    DecisionTree::fit_classifier_presorted(
                        &tree_params,
                        &bx,
                        &by,
                        n_classes,
                        &ranked.draw(&rows),
                        tracker,
                        rng,
                        ParallelProfile::embarrassing(),
                    )
                } else {
                    DecisionTree::fit_classifier_presorted(
                        &tree_params,
                        x,
                        y,
                        n_classes,
                        &all,
                        tracker,
                        rng,
                        ParallelProfile::embarrassing(),
                    )
                }
            })
            .collect();
        Forest { trees, n_classes }
    }

    /// Per-row cost: one traversal per tree plus the averaging.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        self.trees
            .iter()
            .map(|t| t.inference_ops_per_row())
            .sum::<OpCounts>()
            + OpCounts::scalar((self.n_classes * self.trees.len()) as f64)
    }

    /// Total node count across trees.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes()).sum()
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Average the class distributions of all trees: one visit per tree.
impl Predict for Forest {
    fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_classes);
        for tree in &self.trees {
            tree.visit_leaves(x, walk, |r, value| {
                for (d, s) in out.row_mut(r).iter_mut().zip(value) {
                    *d += s;
                }
            });
        }
        let inv = 1.0 / self.trees.len() as f64;
        for v in out.as_mut_slice() {
            *v *= inv;
        }
        out
    }

    fn charge(&self, shape: Shape, steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        for _ in &self.trees {
            DecisionTree::charge_visit(steps.next_visit(), shape.row_scale, tracker);
        }
        tracker.charge(
            OpCounts::scalar(
                (shape.rows * self.n_classes * self.trees.len()) as f64 * shape.row_scale,
            ),
            ParallelProfile::batch_inference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{assert_learns, tracker};
    use crate::models::ModelSpec;
    use green_automl_energy::Device;

    #[test]
    fn random_forest_learns() {
        assert_learns(&ModelSpec::RandomForest(ForestParams::default()), 2, 0.85);
    }

    #[test]
    fn extra_trees_learn() {
        assert_learns(&ModelSpec::ExtraTrees(ForestParams::default()), 3, 0.6);
    }

    #[test]
    fn forest_beats_single_default_tree_on_noisy_multiclass() {
        let tree_acc = assert_learns(&ModelSpec::DecisionTree(Default::default()), 4, 0.5);
        let forest_acc = assert_learns(&ModelSpec::RandomForest(ForestParams::default()), 4, 0.5);
        assert!(
            forest_acc >= tree_acc - 0.02,
            "forest {forest_acc} should not trail tree {tree_acc}"
        );
    }

    #[test]
    fn low_cost_preset_is_much_cheaper() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let cost = |p: ForestParams| {
            let mut t = tracker();
            let mut rng = SplitMix64::seed_from_u64(0);
            let _ = Forest::fit(&p, false, &x, &y, 2, &mut t, &mut rng);
            t.now()
        };
        let full = cost(ForestParams::default());
        let low = cost(ForestParams::low_cost());
        assert!(low * 4.0 < full, "low-cost {low} vs default {full}");
    }

    #[test]
    fn inference_cost_grows_with_tree_count() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let fit = |n: usize| {
            let mut t = tracker();
            let mut rng = SplitMix64::seed_from_u64(0);
            Forest::fit(
                &ForestParams {
                    n_trees: n,
                    ..Default::default()
                },
                false,
                &x,
                &y,
                2,
                &mut t,
                &mut rng,
            )
        };
        let small = fit(5).inference_ops_per_row().total();
        let big = fit(50).inference_ops_per_row().total();
        assert!(big > small * 5.0);
    }

    #[test]
    fn forest_training_benefits_from_cores_energy_wise() {
        // The embarrassing-parallel profile means an 8-core fit finishes
        // faster and burns less total energy than a 1-core fit — the
        // AutoGluon side of the paper's Fig. 5.
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let run = |cores: usize| {
            let mut t = CostTracker::new(Device::xeon_gold_6132(), cores);
            let mut rng = SplitMix64::seed_from_u64(0);
            let _ = Forest::fit(&ForestParams::default(), false, &x, &y, 2, &mut t, &mut rng);
            let m = t.measurement();
            (m.duration_s, m.energy.total_joules())
        };
        let (t1, e1) = run(1);
        let (t8, e8) = run(8);
        assert!(t8 < t1 / 3.0, "8-core fit should be >3x faster");
        assert!(e8 < e1, "8-core fit should use less energy ({e8} vs {e1})");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let f = Forest::fit(&ForestParams::default(), false, &x, &y, 3, &mut t, &mut rng);
        let p = f.predict_proba(&xt, &mut t);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }
}
