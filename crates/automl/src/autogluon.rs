//! AutoGluon-Tabular 0.6.2 — no search: a predefined model portfolio,
//! k-fold bagging, two stacking layers, and Caruana weighting of the final
//! layer (paper §2.2 / Table 1).
//!
//! Budget behaviour (Table 7): AutoGluon *estimates* whether the next model
//! fits in the remaining time from the cost of the previous one; estimates
//! are optimistic and a minimum stack is always trained, so small budgets
//! overshoot ("almost twice as long as specified" at 10 s).
//!
//! The `good_quality_faster_inference_only_refit` preset (paper Fig. 6) is
//! modelled by [`AutoGluonQuality::FasterInferenceRefit`]: after ensemble
//! selection every bagged model collapses into one model refit on all
//! training data, cutting inference cost ~k-fold at a small accuracy cost.

use crate::ensemble::{caruana_selection, BaggedModel, StackedEnsemble};
use crate::id::SystemId;
use crate::system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, DesignCard, FitContext, Predictor, RunSpec,
    Search,
};
use green_automl_dataset::Dataset;
use green_automl_energy::{CostTracker, SpanKind};
use green_automl_ml::evalcache::{self, kind, memo};
use green_automl_ml::matrix::encode;
use green_automl_ml::models::{ModelSpec, Predict};
use green_automl_ml::preprocess::PreprocSpec;
use green_automl_ml::{
    EvalScope, ForestParams, GbParams, KnnParams, LogisticParams, Matrix, MlpParams, TreeParams,
};

/// Quality preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AutoGluonQuality {
    /// `best_quality`: keep the full bagged stack at inference.
    #[default]
    Best,
    /// `good_quality_faster_inference_only_refit`: collapse each bag into a
    /// single refit model after selection.
    FasterInferenceRefit,
    /// Extension (paper §5: "distilling the large stacking models of
    /// AutoGluon with a DNN", Fakoor et al. 2020): train one MLP student on
    /// the stack's predictions and deploy only the student — the cheapest
    /// inference of the three presets.
    Distill,
}

/// The AutoGluon simulator.
#[derive(Debug, Clone, Default)]
pub struct AutoGluon {
    /// Inference/quality preset.
    pub quality: AutoGluonQuality,
}

/// Bagging folds (AutoGluon's default k-fold bagging).
const N_FOLDS: usize = 5;

/// The hand-picked layer-1 portfolio, cheap models first (AutoGluon trains
/// in a fixed order and stops when the budget estimate runs out).
fn layer1_portfolio() -> Vec<ModelSpec> {
    vec![
        ModelSpec::Knn(KnnParams {
            k: 5,
            ..Default::default()
        }),
        ModelSpec::Knn(KnnParams {
            k: 13,
            distance_weighted: false,
            ..Default::default()
        }),
        ModelSpec::GradientBoosting(GbParams {
            n_rounds: 20,
            learning_rate: 0.12,
            max_depth: 4,
            subsample: 0.9,
        }),
        ModelSpec::RandomForest(ForestParams::default()),
        ModelSpec::ExtraTrees(ForestParams::default()),
        ModelSpec::GradientBoosting(GbParams {
            n_rounds: 40,
            learning_rate: 0.08,
            max_depth: 6,
            subsample: 0.85,
        }),
        ModelSpec::Logistic(LogisticParams::default()),
        ModelSpec::Mlp(MlpParams {
            hidden1: 32,
            epochs: 25,
            ..Default::default()
        }),
    ]
}

/// The layer-2 (stacker) portfolio.
fn layer2_portfolio() -> Vec<ModelSpec> {
    vec![
        ModelSpec::GradientBoosting(GbParams {
            n_rounds: 25,
            learning_rate: 0.1,
            max_depth: 4,
            subsample: 0.9,
        }),
        ModelSpec::RandomForest(ForestParams {
            n_trees: 32,
            tree: TreeParams {
                max_depth: 10,
                max_features_frac: 0.4,
                ..Default::default()
            },
            bootstrap: true,
        }),
        ModelSpec::Logistic(LogisticParams::default()),
    ]
}

/// Stratified fold indices at the row level (`fold[i]` ∈ `0..k`).
fn fold_assignment(labels: &[u32], n_classes: usize, k: usize) -> Vec<usize> {
    let mut per_class_counter = vec![0usize; n_classes];
    labels
        .iter()
        .map(|&l| {
            let f = per_class_counter[l as usize] % k;
            per_class_counter[l as usize] += 1;
            f
        })
        .collect()
}

/// Train a k-fold bag of `spec`, returning the bag and its out-of-fold
/// probability matrix.
///
/// One fold — model fit plus out-of-fold probabilities — is one memo unit
/// (the fold span stays outside it). `x_fp` identifies the matrix content
/// under the scope's training set.
#[allow(clippy::too_many_arguments)]
fn bag_with_oof(
    spec: &ModelSpec,
    x: &Matrix,
    x_fp: u64,
    y: &[u32],
    n_classes: usize,
    folds: &[usize],
    k: usize,
    tracker: &mut CostTracker,
    seed: u64,
    scope: Option<&EvalScope<'_>>,
) -> (BaggedModel, Matrix) {
    let mut oof = Matrix::zeros(x.rows(), n_classes);
    oof.row_scale = x.row_scale;
    let mut models = Vec::with_capacity(k);
    let model_fp = evalcache::fingerprint_model(spec);
    for fold in 0..k {
        tracker.span_open(SpanKind::Fold, || format!("fold {fold}"));
        let mut train_rows: Vec<usize> = (0..x.rows()).filter(|&r| folds[r] != fold).collect();
        let val_rows: Vec<usize> = (0..x.rows()).filter(|&r| folds[r] == fold).collect();
        if train_rows.is_empty() {
            // Degenerate tiny split: train in-sample rather than crash.
            train_rows = (0..x.rows()).collect();
        }
        let fold_seed = seed.wrapping_add(fold as u64);
        let fold_unit = |t: &mut CostTracker| {
            let xt = x.take_rows(&train_rows);
            let yt: Vec<u32> = train_rows.iter().map(|&r| y[r]).collect();
            let model = spec.fit(&xt, &yt, n_classes, t, fold_seed);
            let proba = if val_rows.is_empty() {
                Matrix::zeros(0, n_classes)
            } else {
                let xv = x.take_rows(&val_rows);
                model.predict_proba(&xv, t)
            };
            (model, proba)
        };
        let fold_key = |sc: &EvalScope<'_>| {
            sc.key(
                kind::FOLD_FIT,
                model_fp,
                &[x_fp, fold as u64, k as u64, fold_seed],
                x.rows() as u64,
            )
        };
        let (model, p) = memo(scope, tracker, fold_key, fold_unit);
        for (i, &r) in val_rows.iter().enumerate() {
            oof.row_mut(r).copy_from_slice(p.row(i));
        }
        models.push(model);
        tracker.span_close();
    }
    (BaggedModel::new(models, n_classes), oof)
}

/// Bag `spec`, optionally on a stratified row subsample (`rows_frac < 1`,
/// AutoGluon's big-data behaviour). For subsampled bags the out-of-fold
/// matrix is approximated by the bag's predictions on the full data (the
/// sampled rows are in-bag — acceptable for the stacker, exactly as
/// AutoGluon's `sample_weight`-free subsampling behaves).
#[allow(clippy::too_many_arguments)]
fn bag_subsampled(
    spec: &ModelSpec,
    x: &Matrix,
    x_fp: u64,
    y: &[u32],
    n_classes: usize,
    folds: &[usize],
    k: usize,
    rows_frac: f64,
    tracker: &mut CostTracker,
    seed: u64,
    scope: Option<&EvalScope<'_>>,
) -> (BaggedModel, Matrix) {
    if rows_frac >= 1.0 {
        return bag_with_oof(spec, x, x_fp, y, n_classes, folds, k, tracker, seed, scope);
    }
    // Never shrink below what k-fold bagging needs (a few rows per fold).
    let min_rows = (4 * k).min(x.rows()).max(1);
    let step = ((1.0 / rows_frac).round().max(1.0) as usize)
        .min(x.rows() / min_rows)
        .max(1);
    let rows: Vec<usize> = (0..x.rows()).step_by(step).collect();
    let xs = x.take_rows(&rows);
    // The subsample derives from `x` by its step width alone.
    let xs_fp = evalcache::split_word(0x5b, &[x_fp, step as u64]);
    let ys: Vec<u32> = rows.iter().map(|&r| y[r]).collect();
    let sub_folds = fold_assignment(&ys, n_classes, k);
    let (bag, _) = bag_with_oof(
        spec, &xs, xs_fp, &ys, n_classes, &sub_folds, k, tracker, seed, scope,
    );
    let oof = bag.predict_proba(x, tracker);
    (bag, oof)
}

impl AutoMlSystem for AutoGluon {
    fn name(&self) -> &'static str {
        match self.quality {
            AutoGluonQuality::Best => "AutoGluon",
            AutoGluonQuality::FasterInferenceRefit => "AutoGluon(refit)",
            AutoGluonQuality::Distill => "AutoGluon(distill)",
        }
    }

    fn id(&self) -> SystemId {
        match self.quality {
            AutoGluonQuality::Best => SystemId::AutoGluon,
            AutoGluonQuality::FasterInferenceRefit => SystemId::AutoGluonRefit,
            AutoGluonQuality::Distill => SystemId::Custom("AutoGluon(distill)"),
        }
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::AutoGluon,
            search_space: "predefined pipelines",
            search_init: "manual",
            search: "predefined pipelines",
            ensembling: "Caruana & bagging & stacking",
        }
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        // AutoGluon parallelises its fold/bag training across all allocated
        // cores — "an embarrassingly parallel workload" (paper §3.3); the
        // system-level profile overrides the per-model ones.
        let profile = green_automl_energy::ParallelProfile::embarrassing();
        let mut search = Search::with_profile(self.id(), spec, train, ctx, Some(profile));
        let y = &train.labels;
        let k = N_FOLDS.min(train.n_rows().max(2) / 2).max(2);
        let folds = fold_assignment(y, train.n_classes, k);

        let x_raw = encode(train, &mut search.tracker);
        let imputer = PreprocSpec::MeanImputer.fit(&x_raw, y, train.n_classes, &mut search.tracker);
        let x = imputer.transform(&x_raw, &mut search.tracker);
        // Matrix fingerprints key the memo units; uncached fits skip them.
        let cached = search.scope.is_some();
        let fingerprint = |m: &Matrix| {
            if cached {
                evalcache::fingerprint_matrix(m)
            } else {
                0
            }
        };
        let x_fp = fingerprint(&x);

        // Train one stack layer on `m`: bag each portfolio model in order
        // while the (optimistic) estimate says it fits. At least
        // `min_models` bags always train — but on data subsampled to
        // roughly fit the window, as the real system does for large
        // datasets. Estimation error is what produces Table 7's overshoot.
        // A faulted trial loses its model (AutoGluon logs the failure and
        // trains the next one). Returns the bags, their out-of-fold
        // matrices and the portfolio index each bag trained from.
        let scale = train.scale();
        let train_layer = |search: &mut Search,
                           portfolio: Vec<ModelSpec>,
                           m: &Matrix,
                           m_fp: u64,
                           min_models: usize,
                           seed: &dyn Fn(usize) -> u64| {
            let mut bags: Vec<BaggedModel> = Vec::new();
            let mut oofs: Vec<Matrix> = Vec::new();
            let mut trained_idx: Vec<usize> = Vec::new();
            for (i, model) in portfolio.into_iter().enumerate() {
                let must_train = bags.len() < min_models;
                let remaining = (spec.budget_s - search.tracker.now()).max(0.0);
                let est = k as f64
                    * model.estimate_fit_seconds(
                        m.rows(),
                        m.cols(),
                        train.n_classes,
                        scale,
                        spec.device,
                        spec.cores,
                    );
                if !must_train && est * 0.6 > remaining {
                    break;
                }
                let window = remaining.max(spec.budget_s * 0.4) * 2.0;
                let rows_frac = if must_train && est > window {
                    (window / est).clamp(0.02, 1.0)
                } else {
                    1.0
                };
                let trained = search.trial(|tracker, scope| {
                    bag_subsampled(
                        &model,
                        m,
                        m_fp,
                        y,
                        train.n_classes,
                        &folds,
                        k,
                        rows_frac,
                        tracker,
                        seed(i),
                        scope,
                    )
                });
                if let Some((bag, oof)) = trained {
                    bags.push(bag);
                    oofs.push(oof);
                    trained_idx.push(i);
                }
            }
            (bags, oofs, trained_idx)
        };

        // Layer 1 always trains two bags.
        let (layer1, l1_oof, l1_idx) =
            train_layer(&mut search, layer1_portfolio(), &x, x_fp, 2, &|i| {
                spec.seed.wrapping_add(i as u64 * 31)
            });

        // Layer 2 trains on features ++ layer-1 OOF probabilities; at least
        // one stacker is always trained (this is where the 10 s budget
        // overshoot comes from).
        let mut aug = Matrix::zeros(x.rows(), x.cols() + layer1.len() * train.n_classes);
        aug.row_scale = x.row_scale;
        aug.feat_scale = x.feat_scale;
        for r in 0..x.rows() {
            aug.row_mut(r)[..x.cols()].copy_from_slice(x.row(r));
            for (mi, oof) in l1_oof.iter().enumerate() {
                let base = x.cols() + mi * train.n_classes;
                aug.row_mut(r)[base..base + train.n_classes].copy_from_slice(oof.row(r));
            }
        }
        let aug_fp = fingerprint(&aug);
        let (layer2, l2_oof, l2_idx) =
            train_layer(&mut search, layer2_portfolio(), &aug, aug_fp, 1, &|i| {
                spec.seed.wrapping_add(1000 + i as u64)
            });

        // Faults can leave the stack without any layer-2 model: nothing can
        // be ensembled, so the constant-class fallback deploys instead of
        // panicking inside Caruana selection.
        if layer2.is_empty() {
            return search.finish(majority_class_predictor(train), layer1.len());
        }

        // Caruana weights over the layer-2 out-of-fold predictions.
        let tracker = &mut search.tracker;
        tracker.span_open(SpanKind::Trial, || "ensemble".to_string());
        let weights = caruana_selection(&l2_oof, y, train.n_classes, 25, tracker);
        tracker.span_close();
        let n_evaluations = layer1.len() + layer2.len();

        // Distillation preset: build the full stack's training-set
        // predictions, then train one MLP student on them and deploy only
        // the student (Fakoor et al. 2020 / the paper's §5).
        if self.quality == AutoGluonQuality::Distill {
            tracker.span_open(SpanKind::Trial, || "distill".to_string());
            let stacked = StackedEnsemble::new(
                vec![imputer.clone()],
                layer1,
                layer2,
                weights,
                train.n_classes,
                x.cols(),
            );
            let teacher_proba = stacked.predict_proba(train, tracker);
            let pseudo: Vec<u32> = green_automl_ml::models::argmax_rows(&teacher_proba);
            let student_spec = ModelSpec::Mlp(MlpParams {
                hidden1: 48,
                hidden2: 16,
                epochs: 35,
                lr: 0.02,
                batch: 32,
            });
            let student =
                student_spec.fit(&x, &pseudo, train.n_classes, tracker, spec.seed ^ 0xd157);
            let deployed = green_automl_ml::FittedPipeline::from_parts(
                green_automl_ml::Pipeline::new(vec![], student_spec),
                vec![imputer],
                student,
                train.n_classes,
                x.cols(),
            );
            tracker.span_close();
            return search.finish(Predictor::Single(deployed), n_evaluations);
        }

        // Refit preset: collapse each bag into one model trained on all data.
        let (layer1, layer2) = match self.quality {
            AutoGluonQuality::Best | AutoGluonQuality::Distill => (layer1, layer2),
            AutoGluonQuality::FasterInferenceRefit => {
                tracker.span_open(SpanKind::Trial, || "refit".to_string());
                // Collapse each bag: refit the portfolio model it trained
                // from once on the full training data (one model replaces
                // k fold models), seeded by its portfolio index. A killed
                // trial leaves no bag, so positions and indices part ways
                // after one. Each collapse fit is a memo unit of its own.
                let scope = search.scope.as_ref();
                let refit_one =
                    |model: &ModelSpec, m: &Matrix, m_fp: u64, seed: u64, t: &mut CostTracker| {
                        memo(
                            scope,
                            t,
                            |sc| {
                                sc.key(
                                    kind::REFIT,
                                    evalcache::fingerprint_model(model),
                                    &[m_fp, seed],
                                    m.rows() as u64,
                                )
                            },
                            |t| model.fit(m, y, train.n_classes, t, seed),
                        )
                    };
                let portfolio1 = layer1_portfolio();
                let mut l1 = Vec::new();
                for &i in &l1_idx {
                    let seed = spec.seed ^ (i as u64 + 7);
                    let m = refit_one(&portfolio1[i], &x, x_fp, seed, tracker);
                    l1.push(BaggedModel::new(vec![m], train.n_classes));
                }
                let portfolio2 = layer2_portfolio();
                let mut l2 = Vec::new();
                for &i in &l2_idx {
                    let seed = spec.seed ^ (i as u64 + 77);
                    let m = refit_one(&portfolio2[i], &aug, aug_fp, seed, tracker);
                    l2.push(BaggedModel::new(vec![m], train.n_classes));
                }
                tracker.span_close();
                (l1, l2)
            }
        };

        let stacked = StackedEnsemble::new(
            vec![imputer],
            layer1,
            layer2,
            weights,
            train.n_classes,
            x.cols(),
        );

        search.finish(Predictor::Stacked(stacked), n_evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::Device;
    use green_automl_ml::metrics::balanced_accuracy;

    fn task() -> Dataset {
        let mut s = TaskSpec::new("ag-t", 260, 6, 2);
        s.cluster_sep = 2.1;
        s.generate().with_scales(8.0, 1.0)
    }

    #[test]
    fn builds_a_stacked_predictor_that_learns() {
        let ds = task();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let run = AutoGluon::default().fit(&train, &RunSpec::single_core(60.0, 0));
        assert!(matches!(run.predictor, Predictor::Stacked(_)));
        assert!(run.predictor.n_models() >= 10, "bagged stack expected");
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let pred = run.predictor.predict(&test, &mut t);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.7, "balanced accuracy {bal}");
    }

    #[test]
    fn small_budgets_overshoot_like_table7() {
        // A heavily charged dataset (large logical scale) with a budget
        // smaller than the committed minimum stack: AutoGluon must overrun,
        // as in Table 7's 22 s actual for a 10 s budget.
        let mut s = TaskSpec::new("ag-big", 260, 6, 2);
        s.cluster_sep = 2.1;
        let train = s.generate().with_scales(200.0, 1.0);
        let run = AutoGluon::default().fit(&train, &RunSpec::single_core(4.0, 1));
        assert!(
            run.overshoot_ratio() > 1.2,
            "AutoGluon should overshoot (Table 7), got {:.2}",
            run.overshoot_ratio()
        );
    }

    #[test]
    fn larger_budgets_train_more_models() {
        let train = task();
        let small = AutoGluon::default().fit(&train, &RunSpec::single_core(10.0, 2));
        let large = AutoGluon::default().fit(&train, &RunSpec::single_core(600.0, 2));
        assert!(large.n_evaluations >= small.n_evaluations);
        assert!(large.n_evaluations >= 8, "full portfolio should train");
    }

    #[test]
    fn refit_preset_slashes_inference_cost() {
        let train = task();
        let spec = RunSpec::single_core(120.0, 3);
        let best = AutoGluon::default().fit(&train, &spec);
        let refit = AutoGluon {
            quality: AutoGluonQuality::FasterInferenceRefit,
        }
        .fit(&train, &spec);
        let dev = Device::xeon_gold_6132();
        let e_best = best.predictor.inference_kwh_per_row(dev, 1);
        let e_refit = refit.predictor.inference_kwh_per_row(dev, 1);
        assert!(
            e_refit < e_best * 0.55,
            "refit should cut inference energy substantially: {e_refit:.3e} vs {e_best:.3e}"
        );
    }

    #[test]
    fn refit_collapses_the_bags_that_trained_when_trials_die() {
        use green_automl_energy::fault::{FaultInjector, FaultPlan};
        use green_automl_ml::FittedModel;
        let family = |m: &FittedModel| match m {
            FittedModel::Knn(_) => "knn",
            FittedModel::Boosting(_) => "gb",
            FittedModel::Forest(_) => "forest",
            FittedModel::Linear(_) => "linear",
            FittedModel::Mlp(_) => "mlp",
            other => panic!("not a layer-1 family: {other:?}"),
        };
        let train = TaskSpec::new("ag-refit", 200, 5, 2).generate();
        let refit = AutoGluon {
            quality: AutoGluonQuality::FasterInferenceRefit,
        };
        // The collapse refits on the imputed encoding of the training set.
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let x_raw = encode(&train, &mut t);
        let x = PreprocSpec::MeanImputer
            .fit(&x_raw, &train.labels, train.n_classes, &mut t)
            .transform(&x_raw, &mut t);
        let portfolio = layer1_portfolio();
        let mut shifted = 0;
        for plan_seed in [11, 17, 25] {
            let spec = RunSpec::single_core(60.0, 0).with_fault(FaultPlan::chaos(plan_seed));
            let run = refit.fit(&train, &spec);
            let Predictor::Stacked(stack) = &run.predictor else {
                panic!(
                    "plan {plan_seed}: expected a stack, got {:?}",
                    run.predictor
                );
            };
            // Layer-1 trial i bags portfolio model i, so the trained bags
            // are the first `layer1.len()` trials the plan left alive.
            let injector = FaultInjector::new(spec.fault);
            let trained: Vec<usize> = (0..)
                .filter(|&i| {
                    injector
                        .trial_fault(spec.seed, refit.id().as_str(), i as u64)
                        .is_none()
                })
                .take(stack.layer1.len())
                .collect();
            if trained.iter().enumerate().any(|(pos, &i)| pos != i) {
                shifted += 1;
            }
            let deployed: Vec<&FittedModel> = stack
                .layer1
                .iter()
                .map(|bag| {
                    assert_eq!(bag.folds.len(), 1, "refit collapses every bag");
                    &bag.folds[0]
                })
                .collect();
            let expected: Vec<FittedModel> = trained
                .iter()
                .map(|&i| {
                    let seed = spec.seed ^ (i as u64 + 7);
                    portfolio[i].fit(&x, &train.labels, train.n_classes, &mut t, seed)
                })
                .collect();
            let families = |ms: &[&FittedModel]| ms.iter().map(|m| family(m)).collect::<Vec<_>>();
            assert_eq!(
                families(&deployed),
                families(&expected.iter().collect::<Vec<_>>()),
                "plan {plan_seed}: layer-1 families of trained bags {trained:?}"
            );
            // Equal fitted models: same family order, same k-NN `k`, same
            // refit seed.
            assert!(
                deployed.iter().copied().eq(expected.iter()),
                "plan {plan_seed}: layer 1 must refit the trained bags {trained:?}"
            );
        }
        assert!(shifted > 0, "some plan must kill a layer-1 trial early");
    }

    #[test]
    fn distillation_yields_single_model_inference_with_comparable_accuracy() {
        let ds = task();
        let (train, test) = train_test_split(&ds, 0.34, 5);
        let spec = RunSpec::single_core(120.0, 5);
        let best = AutoGluon::default().fit(&train, &spec);
        let distilled = AutoGluon {
            quality: AutoGluonQuality::Distill,
        }
        .fit(&train, &spec);
        assert_eq!(distilled.predictor.n_models(), 1);
        let dev = Device::xeon_gold_6132();
        let e_best = best.predictor.inference_kwh_per_row(dev, 1);
        let e_stu = distilled.predictor.inference_kwh_per_row(dev, 1);
        assert!(
            e_stu < e_best * 0.2,
            "student inference {e_stu:.3e} should be <20% of the stack's {e_best:.3e}"
        );
        let mut t = CostTracker::new(dev, 1);
        let acc_best = balanced_accuracy(&test.labels, &best.predictor.predict(&test, &mut t), 2);
        let acc_stu =
            balanced_accuracy(&test.labels, &distilled.predictor.predict(&test, &mut t), 2);
        assert!(
            acc_stu > acc_best - 0.12,
            "student accuracy {acc_stu:.3} too far below teacher {acc_best:.3}"
        );
    }

    #[test]
    fn stacked_inference_is_an_order_above_single_models() {
        // Observation O1: ensembling systems need >= 10x the inference
        // energy of a single model.
        let ds = task();
        let (train, _) = train_test_split(&ds, 0.34, 0);
        let run = AutoGluon::default().fit(&train, &RunSpec::single_core(60.0, 4));
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let single = green_automl_ml::Pipeline::new(
            vec![],
            green_automl_ml::ModelSpec::GradientBoosting(Default::default()),
        )
        .fit(&train, &mut t, 0);
        let dev = Device::xeon_gold_6132();
        let ratio = run.predictor.inference_kwh_per_row(dev, 1)
            / Predictor::Single(single).inference_kwh_per_row(dev, 1);
        assert!(ratio > 5.0, "stack/single inference ratio {ratio:.1}");
    }
}
