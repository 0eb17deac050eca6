//! TabPFN 0.1.9 — few-shot AutoML: no search space, no initialisation, no
//! search (paper Table 1 shows "-" in every stage but ensembling). Fitting
//! loads a frozen meta-trained transformer and memorises the training data;
//! every prediction forward-passes that data through the network.
//!
//! Limits of the official implementation are reproduced: at most 10 classes
//! (beyond which the system falls back to a majority-class predictor —
//! the cause of TabPFN's low average balanced accuracy in Fig. 3) and
//! at most 1 000 in-context training instances.

use crate::id::SystemId;
use crate::system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, DesignCard, FitContext, Predictor, RunSpec,
    Search,
};
use green_automl_dataset::Dataset;
use green_automl_energy::SpanKind;
use green_automl_ml::validation::fit_scoped;
use green_automl_ml::{AttentionParams, ModelSpec, Pipeline};

/// The TabPFN simulator.
#[derive(Debug, Clone)]
pub struct TabPfn {
    /// Parameters of the in-context attention model.
    pub params: AttentionParams,
    /// Class cap of the official implementation.
    pub max_classes: usize,
}

impl Default for TabPfn {
    fn default() -> Self {
        TabPfn {
            params: AttentionParams::default(),
            max_classes: 10,
        }
    }
}

impl AutoMlSystem for TabPfn {
    fn name(&self) -> &'static str {
        "TabPFN"
    }

    fn id(&self) -> SystemId {
        SystemId::TabPfn
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::TabPfn,
            search_space: "-",
            search_init: "-",
            search: "-",
            ensembling: "unweighted ensemble",
        }
    }

    fn budget_free(&self) -> bool {
        true
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        // TabPFN's single "trial" is the in-context fit itself. The wasted-
        // work estimate is the system's fixed ~0.3 s execution (Table 7),
        // not a budget fraction — TabPFN is budget-free, so its fault cost
        // must not scale with the nominal budget either.
        let mut search = Search::new(self.id(), spec, train, ctx).with_trial_estimate(0.3);
        if train.n_classes > self.max_classes {
            // The official implementation "only supports up to 10 classes";
            // the benchmark then falls back to the majority class.
            // Even the refusal costs the checkpoint load.
            search
                .tracker
                .span_open(SpanKind::Trial, || "refusal".to_string());
            search.tracker.charge(
                green_automl_energy::OpCounts::mem(1.0e8),
                green_automl_energy::ParallelProfile::serial(),
            );
            search.tracker.span_close();
            return search.finish(majority_class_predictor(train), 0);
        }

        let fitted = search.trial(|tracker, scope| {
            fit_scoped(
                &Pipeline::new(vec![], ModelSpec::InContextAttention(self.params)),
                train,
                &[],
                spec.seed,
                tracker,
                scope,
            )
        });
        match fitted {
            Some(fitted) => search.finish(Predictor::Single(fitted), 1),
            None => search.finish(majority_class_predictor(train), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::split::train_test_split;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::{CostTracker, Device};
    use green_automl_ml::metrics::balanced_accuracy;

    fn task(classes: usize) -> Dataset {
        let mut s = TaskSpec::new("pfn-t", 260, 6, classes);
        s.cluster_sep = 2.2;
        s.generate()
    }

    #[test]
    fn execution_ignores_the_budget_and_is_fast() {
        let train = task(2);
        let short = TabPfn::default().fit(&train, &RunSpec::single_core(10.0, 0));
        let long = TabPfn::default().fit(&train, &RunSpec::single_core(300.0, 0));
        // Same execution time regardless of budget (Table 7: 0.29 s at
        // every setting), well under a virtual second.
        assert!((short.execution.duration_s - long.execution.duration_s).abs() < 1e-9);
        assert!(short.execution.duration_s < 2.0);
        assert!(TabPfn::default().budget_free());
    }

    #[test]
    fn learns_small_binary_tasks() {
        let ds = task(2);
        let (train, test) = train_test_split(&ds, 0.34, 0);
        let run = TabPfn::default().fit(&train, &RunSpec::single_core(10.0, 0));
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let pred = run.predictor.predict(&test, &mut t);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.65, "balanced accuracy {bal}");
    }

    #[test]
    fn refuses_more_than_ten_classes() {
        let train = task(12);
        let run = TabPfn::default().fit(&train, &RunSpec::single_core(10.0, 0));
        assert!(matches!(run.predictor, Predictor::Constant { .. }));
        assert_eq!(run.n_evaluations, 0);
    }

    #[test]
    fn inference_energy_is_orders_above_flaml() {
        // The headline asymmetry: TabPFN's per-prediction energy dwarfs a
        // single small model's (paper Fig. 3 right / Table 4).
        let ds = task(2);
        let (train, _) = train_test_split(&ds, 0.34, 0);
        let spec = RunSpec::single_core(30.0, 0);
        let pfn = TabPfn::default().fit(&train, &spec);
        let flaml = crate::flaml::Flaml::default().fit(&train, &spec);
        let dev = Device::xeon_gold_6132();
        let ratio = pfn.predictor.inference_kwh_per_row(dev, 1)
            / flaml.predictor.inference_kwh_per_row(dev, 1);
        assert!(ratio > 20.0, "TabPFN/FLAML inference ratio {ratio:.0}x");
    }

    #[test]
    fn execution_energy_is_least_among_systems() {
        let ds = task(2);
        let (train, _) = train_test_split(&ds, 0.34, 0);
        let spec = RunSpec::single_core(30.0, 0);
        let pfn = TabPfn::default().fit(&train, &spec);
        let flaml = crate::flaml::Flaml::default().fit(&train, &spec);
        assert!(
            pfn.execution.kwh() < flaml.execution.kwh() / 10.0,
            "TabPFN execution {:.3e} kWh should be far below FLAML {:.3e} kWh",
            pfn.execution.kwh(),
            flaml.execution.kwh()
        );
    }
}
