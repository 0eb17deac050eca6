//! FLAML 1.2.4 — cost-frugal AutoML: start from very low-cost models on
//! small samples and escalate complexity only when it pays (paper §2.2:
//! "they start by evaluating low-cost models, e.g. a random forest with 5
//! trees with at most 10 leaves each, and they evaluate these models on
//! small training sets ... Once increasing model complexity does not yield
//! more accuracy gains, they increase the training set size").
//!
//! FLAML deploys a **single** model — the source of its lowest-of-all
//! inference energy in the paper's Fig. 3 — and "finishes evaluating the
//! last model that was started before hitting the time limit" (Table 7's
//! mild overshoot).

use crate::id::SystemId;
use crate::system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, DesignCard, FitContext, Predictor, RunSpec,
    Search,
};
use green_automl_dataset::Dataset;
use green_automl_energy::SpanKind;
use green_automl_ml::validation::{fit_scoped, holdout_eval_scoped};
use green_automl_ml::{ForestParams, GbParams, ModelSpec, Pipeline, PreprocSpec, TreeParams};

/// The FLAML simulator.
#[derive(Debug, Clone)]
pub struct Flaml {
    /// Starting training-sample size.
    pub initial_sample: usize,
    /// Hold-out validation fraction.
    pub val_frac: f64,
    /// Nominal feature count above which the feature-pruning preprocessor
    /// activates (the paper credits FLAML's strength on > 2k-feature data
    /// to "a feature pruning strategy").
    pub feature_prune_above: f64,
}

impl Default for Flaml {
    fn default() -> Self {
        Flaml {
            initial_sample: 64,
            val_frac: 0.25,
            feature_prune_above: 2000.0,
        }
    }
}

/// The complexity ladder per learner family: each rung is a strictly more
/// expensive (and potentially more accurate) configuration.
fn ladders() -> Vec<Vec<ModelSpec>> {
    let forest = |n_trees: usize, depth: usize| ForestParams {
        n_trees,
        tree: TreeParams {
            max_depth: depth,
            min_samples_leaf: 4,
            max_features_frac: 0.5,
            ..Default::default()
        },
        bootstrap: true,
    };
    vec![
        // Random forest: FLAML's canonical 5-tree starting point.
        vec![
            ModelSpec::RandomForest(forest(5, 4)),
            ModelSpec::RandomForest(forest(10, 6)),
            ModelSpec::RandomForest(forest(20, 9)),
            ModelSpec::RandomForest(forest(40, 12)),
            ModelSpec::RandomForest(forest(80, 15)),
        ],
        // Gradient boosting (the LightGBM role).
        vec![
            ModelSpec::GradientBoosting(GbParams {
                n_rounds: 5,
                learning_rate: 0.2,
                max_depth: 3,
                subsample: 0.9,
            }),
            ModelSpec::GradientBoosting(GbParams {
                n_rounds: 12,
                learning_rate: 0.15,
                max_depth: 3,
                subsample: 0.9,
            }),
            ModelSpec::GradientBoosting(GbParams {
                n_rounds: 25,
                learning_rate: 0.1,
                max_depth: 4,
                subsample: 0.85,
            }),
            ModelSpec::GradientBoosting(GbParams {
                n_rounds: 50,
                learning_rate: 0.08,
                max_depth: 5,
                subsample: 0.85,
            }),
        ],
        // Single trees (cheapest family).
        vec![
            ModelSpec::DecisionTree(TreeParams {
                max_depth: 4,
                ..Default::default()
            }),
            ModelSpec::DecisionTree(TreeParams {
                max_depth: 8,
                ..Default::default()
            }),
            ModelSpec::DecisionTree(TreeParams {
                max_depth: 14,
                ..Default::default()
            }),
        ],
    ]
}

impl AutoMlSystem for Flaml {
    fn name(&self) -> &'static str {
        "FLAML"
    }

    fn id(&self) -> SystemId {
        SystemId::Flaml
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::Flaml,
            search_space: "models",
            search_init: "low complexity models",
            search: "cost-based",
            ensembling: "-",
        }
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        let mut search = Search::new(self.id(), spec, train, ctx);
        let preprocs = if train.nominal_features() > self.feature_prune_above {
            vec![PreprocSpec::SelectKBest { frac: 0.2 }]
        } else {
            vec![]
        };

        let ladders = ladders();
        // Per-family rung currently reached.
        let mut rung = vec![0usize; ladders.len()];
        let mut exhausted = vec![false; ladders.len()];
        let mut sample = self.initial_sample.max(train.n_classes * 4);
        let mut best: Option<(f64, Pipeline)> = None;
        let mut n_evaluations = 0usize;
        let mut stalled_rounds = 0usize;

        // Cost-frugal loop: round-robin the families at their current rung;
        // each started evaluation runs to completion (Table 7 semantics).
        'outer: loop {
            let mut improved = false;
            for fam in 0..ladders.len() {
                if search.tracker.now() >= spec.budget_s {
                    break 'outer;
                }
                if exhausted[fam] && sample >= train.n_rows() {
                    continue;
                }
                let r = rung[fam].min(ladders[fam].len() - 1);
                let pipeline = Pipeline::new(preprocs.clone(), ladders[fam][r].clone());
                // An injected fault kills this family's trial: the wasted
                // work is billed and the search moves on without a score.
                let Some((score, _)) = search.trial(|tracker, scope| {
                    holdout_eval_scoped(
                        &pipeline,
                        train,
                        self.val_frac,
                        Some(sample),
                        spec.seed.wrapping_add(n_evaluations as u64),
                        tracker,
                        scope,
                    )
                }) else {
                    continue;
                };
                n_evaluations += 1;
                let better = best.as_ref().is_none_or(|(s, _)| score > *s + 1e-6);
                if better {
                    best = Some((score, pipeline));
                    improved = true;
                    // Escalate the winning family's complexity.
                    if rung[fam] + 1 < ladders[fam].len() {
                        rung[fam] += 1;
                    } else {
                        exhausted[fam] = true;
                    }
                } else if rung[fam] + 1 < ladders[fam].len() {
                    // Also climb occasionally so cheap families do not stall
                    // the ladder forever.
                    rung[fam] += 1;
                } else {
                    exhausted[fam] = true;
                }
            }
            if !improved {
                stalled_rounds += 1;
            } else {
                stalled_rounds = 0;
            }
            // Complexity no longer helps: grow the training sample.
            if stalled_rounds >= 1 && sample < train.n_rows() {
                sample = (sample * 2).min(train.n_rows());
                exhausted.iter_mut().for_each(|e| *e = false);
                stalled_rounds = 0;
            } else if stalled_rounds >= 2 && sample >= train.n_rows() {
                // Fully converged: FLAML idles out the rest of the budget
                // re-validating candidates (charged as active search).
                crate::system::burn_active_until(&mut search.tracker, spec.budget_s);
                break;
            }
            if n_evaluations >= ((spec.budget_s * 0.5) as usize).clamp(10, 150) {
                crate::system::burn_active_until(&mut search.tracker, spec.budget_s);
                break;
            }
        }

        // Final refit of the winner on the full training data — or, if
        // every started trial was killed, the constant-class fallback.
        search
            .tracker
            .span_open(SpanKind::Trial, || "refit".to_string());
        let predictor = match best {
            Some((_, winner)) => Predictor::Single(fit_scoped(
                &winner,
                train,
                &[],
                spec.seed,
                &mut search.tracker,
                search.scope.as_ref(),
            )),
            None => majority_class_predictor(train),
        };
        search.tracker.span_close();
        search.finish(predictor, n_evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::{CostTracker, Device};
    use green_automl_ml::metrics::balanced_accuracy;

    fn task() -> Dataset {
        let mut s = TaskSpec::new("fl-t", 260, 6, 2);
        s.cluster_sep = 2.1;
        s.generate().with_scales(8.0, 1.0)
    }

    #[test]
    fn deploys_a_single_model_that_learns() {
        let ds = task();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let run = Flaml::default().fit(&train, &RunSpec::single_core(30.0, 0));
        assert!(matches!(run.predictor, Predictor::Single(_)));
        assert_eq!(run.predictor.n_models(), 1);
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let pred = run.predictor.predict(&test, &mut t);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.7, "balanced accuracy {bal}");
    }

    #[test]
    fn inference_is_cheaper_than_an_ensemble_system() {
        let ds = task();
        let (train, _) = train_test_split(&ds, 0.34, 0);
        let spec = RunSpec::single_core(30.0, 1);
        let flaml = Flaml::default().fit(&train, &spec);
        let askl = crate::askl::AutoSklearn1::default().fit(&train, &spec);
        let dev = Device::xeon_gold_6132();
        assert!(
            flaml.predictor.inference_kwh_per_row(dev, 1)
                < askl.predictor.inference_kwh_per_row(dev, 1)
        );
    }

    #[test]
    fn budget_is_respected_modulo_last_model() {
        let train = task();
        let run = Flaml::default().fit(&train, &RunSpec::single_core(30.0, 2));
        // FLAML finishes the last started model: small overshoot only.
        assert!(
            run.overshoot_ratio() < 1.6,
            "overshoot {:.2} too large",
            run.overshoot_ratio()
        );
        assert!(run.execution.duration_s >= 29.0, "should use the budget");
    }

    #[test]
    fn wide_data_triggers_feature_pruning() {
        let mut s = TaskSpec::new("wide", 150, 40, 2);
        s.cluster_sep = 2.0;
        // Nominal width above the pruning threshold via feat_scale.
        let train = s.generate().with_scales(4.0, 100.0);
        let run = Flaml::default().fit(&train, &RunSpec::single_core(10.0, 0));
        if let Predictor::Single(p) = &run.predictor {
            assert!(
                p.spec().describe().contains("select_k_best"),
                "expected pruning in {}",
                p.spec().describe()
            );
        } else {
            panic!("expected single predictor");
        }
    }

    #[test]
    fn longer_budgets_do_not_reduce_evaluations() {
        let train = task();
        let short = Flaml::default().fit(&train, &RunSpec::single_core(10.0, 3));
        let long = Flaml::default().fit(&train, &RunSpec::single_core(120.0, 3));
        assert!(long.n_evaluations >= short.n_evaluations);
    }
}
