//! The naive search baselines AutoML is measured against.
//!
//! The paper's §1 frames advanced AutoML systems as an *investment* whose
//! development energy "amortizes in comparison to more simple, inefficient
//! search strategies, such as grid or random search" (citing Bergstra &
//! Bengio 2012 and Turner et al. 2020). These two systems make that
//! comparison runnable: the same pipeline space as CAML, no surrogate, no
//! meta-learning, no ensembling.

use crate::id::SystemId;
use crate::pipespace::PipelineSpace;
use crate::system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, DesignCard, FitContext, Predictor, RunSpec,
    Search,
};
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::Dataset;
use green_automl_energy::SpanKind;
use green_automl_ml::validation::{fit_scoped, proba_eval_scoped};
use green_automl_optim::grid::grid;
use green_automl_optim::random::RandomSearch;
use green_automl_optim::Config;

/// Random search over the CAML pipeline space with hold-out validation.
#[derive(Debug, Clone)]
pub struct RandomSearchBaseline {
    /// Hold-out validation fraction.
    pub val_frac: f64,
}

impl Default for RandomSearchBaseline {
    fn default() -> Self {
        RandomSearchBaseline { val_frac: 0.33 }
    }
}

/// Grid search over a coarse factorisation of the same space.
#[derive(Debug, Clone)]
pub struct GridSearchBaseline {
    /// Points per continuous axis of the grid.
    pub resolution: usize,
    /// Hold-out validation fraction.
    pub val_frac: f64,
}

impl Default for GridSearchBaseline {
    fn default() -> Self {
        GridSearchBaseline {
            resolution: 2,
            val_frac: 0.33,
        }
    }
}

/// Shared evaluation loop: fit each suggested config on the training part,
/// score on the validation part, keep the best, honour the budget. Trials
/// killed by the spec's fault plan burn their partial work and are skipped.
fn search_loop<I: Iterator<Item = Config>>(
    id: SystemId,
    configs: I,
    train: &Dataset,
    spec: &RunSpec,
    val_frac: f64,
    ctx: &FitContext<'_>,
) -> AutoMlRun {
    let mut search = Search::new(id, spec, train, ctx);
    let space = PipelineSpace::caml();
    let split_seed = spec.seed ^ 0xba5e;
    let split_words = [split_seed, val_frac.to_bits()];
    let (tr, val) = train_test_split(train, val_frac, split_seed);
    let eval_cap = ((spec.budget_s * 0.4) as usize).clamp(8, 120);

    let mut best: Option<(f64, green_automl_ml::Pipeline)> = None;
    let mut n_evaluations = 0usize;
    for config in configs {
        if search.tracker.now() >= spec.budget_s || n_evaluations >= eval_cap {
            break;
        }
        let scored = search.trial(|tracker, scope| {
            let pipeline = space.decode(&config);
            // Same charges as fit + predict: `predict` is argmax over
            // `predict_proba`, which is what the memoised unit records.
            let (score, _, _) = proba_eval_scoped(
                &pipeline,
                &tr,
                &val,
                &split_words,
                spec.seed ^ n_evaluations as u64,
                tracker,
                scope,
            );
            (score, pipeline)
        });
        let Some((score, pipeline)) = scored else {
            continue;
        };
        if best.as_ref().is_none_or(|(s, _)| score > *s) {
            best = Some((score, pipeline));
        }
        n_evaluations += 1;
    }
    crate::system::burn_active_until(&mut search.tracker, spec.budget_s);

    search
        .tracker
        .span_open(SpanKind::Trial, || "refit".to_string());
    let refit = |search: &mut Search<'_>, pipeline: &green_automl_ml::Pipeline| {
        Predictor::Single(fit_scoped(
            pipeline,
            &tr,
            &split_words,
            spec.seed ^ 0xdeb,
            &mut search.tracker,
            search.scope.as_ref(),
        ))
    };
    let predictor = match best {
        Some((_, winner)) => refit(&mut search, &winner),
        // Every candidate died: deploy the constant-class fallback rather
        // than refitting a model the search never validated.
        None if search.n_faults() > 0 => majority_class_predictor(train),
        None => refit(
            &mut search,
            &green_automl_ml::Pipeline::new(vec![], green_automl_ml::ModelSpec::GaussianNb),
        ),
    };
    search.tracker.span_close();
    search.finish(predictor, n_evaluations)
}

impl AutoMlSystem for RandomSearchBaseline {
    fn name(&self) -> &'static str {
        "RandomSearch"
    }

    fn id(&self) -> SystemId {
        SystemId::RandomSearch
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::RandomSearch,
            search_space: "data p. & models",
            search_init: "random",
            search: "random",
            ensembling: "-",
        }
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        let space = PipelineSpace::caml();
        let mut rs = RandomSearch::new(space.space().clone(), spec.seed);
        let stream = std::iter::from_fn(move || Some(rs.suggest()));
        search_loop(self.id(), stream, train, spec, self.val_frac, ctx)
    }
}

impl AutoMlSystem for GridSearchBaseline {
    fn name(&self) -> &'static str {
        "GridSearch"
    }

    fn id(&self) -> SystemId {
        SystemId::GridSearch
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::GridSearch,
            search_space: "data p. & models",
            search_init: "grid",
            search: "grid",
            ensembling: "-",
        }
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        let space = PipelineSpace::caml();
        let cells = grid(space.space(), self.resolution.max(2));
        search_loop(
            self.id(),
            cells.into_iter(),
            train,
            spec,
            self.val_frac,
            ctx,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caml::Caml;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::CostTracker;
    use green_automl_ml::metrics::balanced_accuracy;

    fn task() -> Dataset {
        let mut s = TaskSpec::new("base-t", 260, 6, 2);
        s.cluster_sep = 2.1;
        s.generate().with_scales(8.0, 1.0)
    }

    #[test]
    fn random_search_runs_and_learns() {
        use green_automl_dataset::split::train_test_split;
        let ds = task();
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let run = RandomSearchBaseline::default().fit(&train, &RunSpec::single_core(30.0, 0));
        assert!(run.n_evaluations >= 1);
        let mut t = CostTracker::new(green_automl_energy::Device::xeon_gold_6132(), 1);
        let pred = run.predictor.predict(&test, &mut t);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.6, "random search balanced accuracy {bal}");
    }

    #[test]
    fn grid_search_enumerates_deterministically() {
        let train = task();
        let a = GridSearchBaseline::default().fit(&train, &RunSpec::single_core(20.0, 1));
        let b = GridSearchBaseline::default().fit(&train, &RunSpec::single_core(20.0, 1));
        assert_eq!(a.n_evaluations, b.n_evaluations);
    }

    #[test]
    fn caml_matches_or_beats_random_search_on_average() {
        // The premise the amortisation argument rests on: guided search is
        // at least as good as random under the same budget.
        use green_automl_dataset::split::train_test_split;
        let mut caml_sum = 0.0;
        let mut rnd_sum = 0.0;
        let n = 4;
        for seed in 0..n {
            let mut s = TaskSpec::new("cmp", 240, 6, 2);
            s.cluster_sep = 1.8;
            s.label_noise = 0.08;
            let ds = s.generate().with_scales(8.0, 1.0);
            let (train, test) = train_test_split(&ds, 0.34, seed);
            let spec = RunSpec::single_core(60.0, seed);
            let mut t = CostTracker::new(green_automl_energy::Device::xeon_gold_6132(), 1);
            let c = Caml::default().fit(&train, &spec);
            caml_sum += balanced_accuracy(&test.labels, &c.predictor.predict(&test, &mut t), 2);
            let r = RandomSearchBaseline::default().fit(&train, &spec);
            rnd_sum += balanced_accuracy(&test.labels, &r.predictor.predict(&test, &mut t), 2);
        }
        assert!(
            caml_sum >= rnd_sum - 0.06 * n as f64,
            "CAML ({:.3}) should not trail random search ({:.3}) meaningfully",
            caml_sum / n as f64,
            rnd_sum / n as f64
        );
    }

    #[test]
    fn baselines_use_their_budget() {
        let train = task();
        let run = RandomSearchBaseline::default().fit(&train, &RunSpec::single_core(30.0, 2));
        assert!(run.execution.duration_s >= 30.0);
    }
}
