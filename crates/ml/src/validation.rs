//! Validation strategies the AutoML systems choose from.
//!
//! The paper's systems differ exactly here: most use hold-out validation,
//! TPOT uses 5-fold cross-validation (which the paper blames for its low
//! 5-minute accuracy), and CAML re-samples the hold-out split per Bayesian-
//! optimisation iteration to avoid overfitting the validation set.

use crate::evalcache::{self, kind, memo, EvalScope};
use crate::matrix::Matrix;
use crate::metrics::balanced_accuracy;
use crate::models::argmax_rows;
use crate::pipeline::{FittedPipeline, Pipeline};
use green_automl_dataset::split::{stratified_kfold, train_test_split};
use green_automl_dataset::Dataset;
use green_automl_energy::CostTracker;

/// Fit on a hold-out split and score on the remaining validation part.
///
/// Returns the validation balanced accuracy and the fitted pipeline (fitted
/// on the *training part only*; call [`refit`] to use all data afterwards).
///
/// # Panics
/// Panics if `val_frac` is outside `(0, 1)`.
pub fn holdout_eval(
    spec: &Pipeline,
    ds: &Dataset,
    val_frac: f64,
    seed: u64,
    tracker: &mut CostTracker,
) -> (f64, FittedPipeline) {
    let (train, val) = train_test_split(ds, val_frac, seed);
    let fitted = spec.fit(&train, tracker, seed);
    let pred = fitted.predict(&val, tracker);
    let score = balanced_accuracy(&val.labels, &pred, ds.n_classes);
    (score, fitted)
}

/// Hold-out evaluation on a *sample* of the training data (FLAML's and
/// CAML's fidelity mechanism): only the first `n_sample` rows participate.
pub fn holdout_eval_sampled(
    spec: &Pipeline,
    ds: &Dataset,
    val_frac: f64,
    n_sample: usize,
    seed: u64,
    tracker: &mut CostTracker,
) -> (f64, FittedPipeline) {
    let ds_small;
    let ds_ref = if n_sample < ds.n_rows() {
        ds_small = ds.head(n_sample.max(ds.n_classes * 2));
        &ds_small
    } else {
        ds
    };
    holdout_eval(spec, ds_ref, val_frac, seed, tracker)
}

/// k-fold cross-validation score (mean balanced accuracy over folds). Fits
/// `k` pipelines — `k` times the energy of one hold-out evaluation, which is
/// exactly the cost structure that hurts TPOT in the paper.
///
/// # Panics
/// Panics if `k < 2`.
pub fn cv_eval(
    spec: &Pipeline,
    ds: &Dataset,
    k: usize,
    seed: u64,
    tracker: &mut CostTracker,
) -> f64 {
    let folds = stratified_kfold(ds, k, seed);
    let mut total = 0.0;
    for (i, (train, val)) in folds.iter().enumerate() {
        let fitted = spec.fit(train, tracker, seed.wrapping_add(i as u64));
        let pred = fitted.predict(val, tracker);
        total += balanced_accuracy(&val.labels, &pred, ds.n_classes);
    }
    total / k as f64
}

/// Refit a pipeline specification on the full dataset (train + validation),
/// the paper's "refit" AutoML parameter (Table 5).
pub fn refit(
    spec: &Pipeline,
    ds: &Dataset,
    seed: u64,
    tracker: &mut CostTracker,
) -> FittedPipeline {
    spec.fit(ds, tracker, seed)
}

/// [`holdout_eval`]/[`holdout_eval_sampled`] with optional memoisation.
///
/// With `scope: None` this is exactly the live evaluation. With a scope,
/// the unit is looked up by `(pipeline, scope data, val_frac + seed,
/// n_sample)`; a hit replays the recorded energy and returns the memoised
/// score and fitted pipeline — bitwise identical to recomputing.
///
/// `ds` must be the dataset the scope was created over (its fingerprint is
/// the key's data component; the split and sample derive from it).
pub fn holdout_eval_scoped(
    spec: &Pipeline,
    ds: &Dataset,
    val_frac: f64,
    n_sample: Option<usize>,
    seed: u64,
    tracker: &mut CostTracker,
    scope: Option<&EvalScope<'_>>,
) -> (f64, FittedPipeline) {
    memo(
        scope,
        tracker,
        |sc| {
            sc.key(
                kind::HOLDOUT,
                evalcache::fingerprint_pipeline(spec),
                &[seed, val_frac.to_bits()],
                n_sample.map_or(u64::MAX, |n| n as u64),
            )
        },
        |t| match n_sample {
            Some(n) => holdout_eval_sampled(spec, ds, val_frac, n, seed, t),
            None => holdout_eval(spec, ds, val_frac, seed, t),
        },
    )
}

/// [`cv_eval`] with optional memoisation (see [`holdout_eval_scoped`]).
pub fn cv_eval_scoped(
    spec: &Pipeline,
    ds: &Dataset,
    k: usize,
    seed: u64,
    tracker: &mut CostTracker,
    scope: Option<&EvalScope<'_>>,
) -> f64 {
    memo(
        scope,
        tracker,
        |sc| {
            sc.key(
                kind::CROSS_VAL,
                evalcache::fingerprint_pipeline(spec),
                &[seed],
                k as u64,
            )
        },
        |t| cv_eval(spec, ds, k, seed, t),
    )
}

/// Fit on `tr`, predict class probabilities on `val`, and score balanced
/// accuracy — the evaluation unit of systems that keep validation
/// probabilities for post-hoc ensembling (AutoSklearn's Caruana pool).
/// Optional memoisation as in [`holdout_eval_scoped`]; `data_words`
/// identifies how `(tr, val)` derive from the scope's training set
/// (split seeds, subsample sizes).
pub fn proba_eval_scoped(
    spec: &Pipeline,
    tr: &Dataset,
    val: &Dataset,
    data_words: &[u64],
    seed: u64,
    tracker: &mut CostTracker,
    scope: Option<&EvalScope<'_>>,
) -> (f64, FittedPipeline, Matrix) {
    memo(
        scope,
        tracker,
        |sc| {
            let mut words = vec![seed];
            words.extend_from_slice(data_words);
            sc.key(
                kind::PROBA_EVAL,
                evalcache::fingerprint_pipeline(spec),
                &words,
                tr.n_rows() as u64,
            )
        },
        |t| {
            let fitted = spec.fit(tr, t, seed);
            let proba = fitted.predict_proba(val, t);
            let pred = argmax_rows(&proba);
            let score = balanced_accuracy(&val.labels, &pred, val.n_classes);
            (score, fitted, proba)
        },
    )
}

/// Bare [`Pipeline::fit`] with optional memoisation. `data_words`
/// identifies how `ds` derives from the scope's training set (empty when
/// `ds` *is* the scope's training set; sampling seeds and row counts when
/// it is a derived subset).
pub fn fit_scoped(
    spec: &Pipeline,
    ds: &Dataset,
    data_words: &[u64],
    seed: u64,
    tracker: &mut CostTracker,
    scope: Option<&EvalScope<'_>>,
) -> FittedPipeline {
    memo(
        scope,
        tracker,
        |sc| {
            let mut words = vec![seed];
            words.extend_from_slice(data_words);
            sc.key(
                kind::FIT,
                evalcache::fingerprint_pipeline(spec),
                &words,
                ds.n_rows() as u64,
            )
        },
        |t| spec.fit(ds, t, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelSpec;
    use crate::preprocess::PreprocSpec;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::Device;

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    fn task() -> Dataset {
        let mut spec = TaskSpec::new("v", 300, 6, 2);
        spec.cluster_sep = 2.2;
        spec.generate()
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(
            vec![PreprocSpec::StandardScaler],
            ModelSpec::DecisionTree(Default::default()),
        )
    }

    #[test]
    fn holdout_scores_above_chance() {
        let ds = task();
        let (score, fitted) = holdout_eval(&pipeline(), &ds, 0.33, 0, &mut tracker());
        assert!(score > 0.7, "holdout score {score}");
        assert_eq!(fitted.n_classes(), 2);
    }

    #[test]
    fn cv_costs_about_k_times_holdout() {
        let ds = task();
        let mut th = tracker();
        let _ = holdout_eval(&pipeline(), &ds, 0.2, 0, &mut th);
        let mut tc = tracker();
        let _ = cv_eval(&pipeline(), &ds, 5, 0, &mut tc);
        let ratio = tc.now() / th.now();
        assert!(
            (3.0..8.0).contains(&ratio),
            "5-fold CV should cost ~5x a holdout eval, got {ratio:.2}x"
        );
    }

    #[test]
    fn sampled_eval_is_cheaper() {
        // Use a model heavy enough that the constant fit overhead does not
        // dominate the comparison.
        let heavy = Pipeline::new(
            vec![PreprocSpec::StandardScaler],
            ModelSpec::RandomForest(Default::default()),
        );
        let ds = task();
        let mut tfull = tracker();
        let _ = holdout_eval(&heavy, &ds, 0.33, 0, &mut tfull);
        let mut tsmall = tracker();
        let _ = holdout_eval_sampled(&heavy, &ds, 0.33, 60, 0, &mut tsmall);
        assert!(
            tsmall.now() < tfull.now() * 0.7,
            "sampled {} vs full {}",
            tsmall.now(),
            tfull.now()
        );
    }

    #[test]
    fn resampled_validation_varies_with_seed() {
        // CAML reshuffles the validation split per BO iteration; different
        // seeds must actually produce different splits/scores sometimes.
        let ds = task();
        let scores: Vec<f64> = (0..6)
            .map(|s| holdout_eval(&pipeline(), &ds, 0.33, s, &mut tracker()).0)
            .collect();
        let distinct: std::collections::BTreeSet<u64> =
            scores.iter().map(|s| s.to_bits()).collect();
        assert!(
            distinct.len() > 1,
            "scores identical across seeds: {scores:?}"
        );
    }

    #[test]
    fn refit_uses_all_rows() {
        let ds = task();
        let mut t = tracker();
        let fitted = refit(&pipeline(), &ds, 0, &mut t);
        // A refit model must predict the training data well.
        let pred = fitted.predict(&ds, &mut t);
        let bal = crate::metrics::balanced_accuracy(&ds.labels, &pred, 2);
        assert!(bal > 0.8);
    }
}
