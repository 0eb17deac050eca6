//! CAML (Neutatz, Lindauer & Abedjan, VLDB J. 2023) — constraint-aware
//! AutoML: Bayesian optimisation with random initialisation, successive-
//! halving-style incremental training, optional validation-split
//! resampling, and ML-application constraints (inference time) as
//! first-class citizens.
//!
//! CAML is the paper's vehicle for the development stage (§2.5/§3.7): its
//! AutoML-system parameters — search-space composition, hold-out fraction,
//! evaluation fraction, sampling, refit, validation resampling, incremental
//! training — are all exposed in [`CamlParams`] so the meta-tuner can
//! optimise them per search budget (Table 5). CAML "strictly adheres to the
//! search time" (Table 7) and "searches always until the search budget is
//! exhausted" (§3.2.1).

use crate::id::SystemId;
use crate::pipespace::{Bounds, Family, PipelineSpace, PreprocChoices};
use crate::system::{
    majority_class_predictor, AutoMlRun, AutoMlSystem, DesignCard, FitContext, Predictor, RunSpec,
    Search,
};
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::Dataset;
use green_automl_energy::{CostTracker, ParallelProfile, SpanKind};
use green_automl_ml::evalcache::{self, kind, memo};
use green_automl_ml::metrics::balanced_accuracy;
use green_automl_ml::validation::fit_scoped;
use green_automl_ml::{EvalScope, FittedPipeline};
use green_automl_optim::BayesOpt;

/// CAML's tunable AutoML-system parameters: the search-space definition
/// plus the six system parameters enumerated in the paper's §3.7.
#[derive(Debug, Clone, PartialEq)]
pub struct CamlParams {
    /// Included model families (search-space pruning — Table 5 shows tuned
    /// spaces keep only a few families at small budgets).
    pub families: Vec<Family>,
    /// Whether scaler choice is part of the space.
    pub scalers: bool,
    /// Numeric hyperparameter ranges.
    pub bounds: Bounds,
    /// ① Hold-out validation fraction.
    pub holdout_frac: f64,
    /// ② Evaluation fraction: the maximum share of the budget before a
    /// single evaluation is stopped.
    pub eval_fraction: f64,
    /// ③ Sampling: fraction of training instances used for the whole run.
    pub sampling_frac: f64,
    /// ④ Refit the winner on the merged training + validation data.
    pub refit: bool,
    /// ⑤ Random validation-set re-splitting per BO iteration.
    pub resample_validation: bool,
    /// ⑥ Incremental training (successive-halving-style sample growth
    /// inside each evaluation).
    pub incremental_training: bool,
    /// Extension (paper §3.8): stop the search once the incumbent has not
    /// improved for this many consecutive evaluations, instead of burning
    /// the rest of the budget — "especially for smaller datasets, early
    /// stopping should be enforced to save energy". `None` reproduces the
    /// paper's measured behaviour (search until the budget is exhausted).
    pub early_stop_patience: Option<usize>,
    /// Extension (paper §1: "we can incorporate this constraint in the
    /// objective function \[47\]"): weight of the inference-energy penalty in
    /// the search objective, `score − weight · (kWh/prediction · 1e9)`.
    /// `0` reproduces the paper's accuracy-only objective.
    pub energy_weight: f64,
}

impl Default for CamlParams {
    fn default() -> Self {
        CamlParams {
            families: Family::all(),
            scalers: true,
            bounds: Bounds::default(),
            holdout_frac: 0.33,
            eval_fraction: 0.1,
            sampling_frac: 1.0,
            refit: false,
            resample_validation: false,
            incremental_training: true,
            early_stop_patience: None,
            energy_weight: 0.0,
        }
    }
}

impl CamlParams {
    /// Count of independently tunable entries this struct exposes to the
    /// development-stage tuner (family flags + scaler flag + bound
    /// endpoints + the six system parameters).
    pub fn n_tunable() -> usize {
        9  // family inclusion flags
        + 1  // scaler flag
        + 10 * 2 // Bounds endpoints
        + 6 // system parameters
    }
}

/// The CAML simulator.
#[derive(Debug, Clone, Default)]
pub struct Caml {
    /// System parameters (defaults reproduce the paper's untuned CAML).
    pub params: CamlParams,
    /// Marks the tuned variant for display purposes.
    pub tuned: bool,
}

impl Caml {
    /// The development-stage-tuned variant (paper's "CAML(tuned)").
    pub fn tuned(params: CamlParams) -> Caml {
        Caml {
            params,
            tuned: true,
        }
    }
}

struct BestEval {
    pipeline: green_automl_ml::Pipeline,
    score: f64,
}

impl AutoMlSystem for Caml {
    fn name(&self) -> &'static str {
        if self.tuned {
            "CAML(tuned)"
        } else {
            "CAML"
        }
    }

    fn design(&self) -> DesignCard {
        DesignCard {
            system: SystemId::Caml,
            search_space: "data p. & models",
            search_init: "random",
            search: "BO & successive halving",
            ensembling: "-",
        }
    }

    fn fit_with(&self, train: &Dataset, spec: &RunSpec, ctx: &FitContext<'_>) -> AutoMlRun {
        let p = &self.params;
        // The tuned variant keeps its own id (`Custom("CAML(tuned)")` via
        // the trait default) so its fault stream stays distinct.
        let mut search = Search::new(self.id(), spec, train, ctx);

        // ③ Upfront sampling. `keep_word` records the derivation from the
        // scope's training set for memo keys (`u64::MAX` = no sampling).
        let sampled;
        let mut keep_word = u64::MAX;
        let data = if p.sampling_frac < 1.0 {
            let keep = ((train.n_rows() as f64 * p.sampling_frac) as usize)
                .max(train.n_classes * 2)
                .min(train.n_rows());
            keep_word = keep as u64;
            sampled = train.head(keep);
            &sampled
        } else {
            train
        };

        let space = PipelineSpace::new(
            p.families.clone(),
            PreprocChoices {
                scalers: p.scalers,
                feature_preprocs: false,
            },
            p.bounds,
        );
        let mut bo = BayesOpt::new(space.space().clone(), spec.seed);
        bo.n_init = 10; // "CAML first evaluates 10 random ML pipelines"

        let eval_cap = ((spec.budget_s * 0.4) as usize).clamp(8, 120);
        let mut best: Option<BestEval> = None;
        let mut n_evaluations = 0usize;
        let mut stall = 0usize;
        let mut stopped_early = false;
        let holdout = p.holdout_frac.clamp(0.1, 0.5);
        let (tr_fixed, val_fixed) = train_test_split(data, holdout, spec.seed ^ 0xca31);

        while search.tracker.now() < spec.budget_s && n_evaluations < eval_cap {
            let (config, ops) = bo.suggest();
            search.tracker.charge(ops, ParallelProfile::serial());
            let pipeline = space.decode(&config);
            let outcome = search.trial(|tracker, scope| {
                // ⑤ Validation resampling.
                let resplit;
                let split_seed = if p.resample_validation {
                    spec.seed ^ 0xca31 ^ (n_evaluations as u64 + 1)
                } else {
                    spec.seed ^ 0xca31
                };
                let (tr, val) = if p.resample_validation {
                    resplit = train_test_split(data, holdout, split_seed);
                    (&resplit.0, &resplit.1)
                } else {
                    (&tr_fixed, &val_fixed)
                };

                let eval_deadline =
                    tracker.now() + p.eval_fraction.clamp(0.01, 1.0) * spec.budget_s;

                // ⑥ Incremental training ladder (10 instances per class, then
                // x4 per rung), pruning poor pipelines — and pipelines that
                // violate the inference-time constraint — at the cheapest rung.
                // The first rung shrinks until its *estimated* cost fits the
                // per-evaluation window, and later rungs only start if they are
                // estimated to fit — CAML's strict budget adherence (Table 7)
                // even on heavily charged datasets.
                let eval_budget = p.eval_fraction.clamp(0.01, 1.0) * spec.budget_s;
                let d_enc = green_automl_ml::matrix::encoded_width(tr);
                let rung_fits = |n: usize| {
                    pipeline.model.estimate_fit_seconds(
                        n,
                        d_enc,
                        val.n_classes,
                        tr.scale(),
                        spec.device,
                        spec.cores,
                    ) <= eval_budget
                };
                let fidelities: Vec<usize> = if p.incremental_training {
                    let floor = (2 * val.n_classes).max(8).min(tr.n_rows());
                    let mut n = (10 * val.n_classes).min(tr.n_rows());
                    while n > floor && !rung_fits(n) {
                        n = (n / 2).max(floor);
                    }
                    let mut ladder = vec![n];
                    while n < tr.n_rows() && rung_fits((n * 4).min(tr.n_rows())) {
                        n = (n * 4).min(tr.n_rows());
                        ladder.push(n);
                    }
                    ladder
                } else {
                    vec![tr.n_rows()]
                };

                let mut rung_fit: Option<(f64, FittedPipeline)> = None;
                for (rung, &n_rows) in fidelities.iter().enumerate() {
                    // Strict budget adherence: never start a rung past the
                    // budget (Table 7: CAML 301.4s for a 300s budget).
                    if rung > 0 && tracker.now() >= spec.budget_s {
                        break;
                    }
                    let sub = tr.head(n_rows);
                    let eval_seed = spec.seed ^ n_evaluations as u64;
                    // One rung = fit + early constraint check + validation
                    // scoring (successive halving "prunes ML pipelines that
                    // violate constraints"). The fit and the scoring are
                    // memo units keyed by the rung's data alone; the check
                    // reads the device and cores, so it runs live between
                    // them. A pruned rung has still charged its fit.
                    let words = [eval_seed, keep_word, split_seed, holdout.to_bits()];
                    let rung_key = |kind: u64| {
                        let pipeline = &pipeline;
                        move |sc: &EvalScope<'_>| {
                            let fp = evalcache::fingerprint_pipeline(pipeline);
                            sc.key(kind, fp, &words, n_rows as u64)
                        }
                    };
                    let fitted = memo(scope, tracker, rung_key(kind::RUNG), |t| {
                        pipeline.fit(&sub, t, eval_seed)
                    });
                    if let Some(limit) = spec.constraints.max_inference_s_per_row {
                        if fitted.inference_seconds_per_row(spec.device, spec.cores) > limit {
                            rung_fit = None;
                            break;
                        }
                    }
                    let score = memo(scope, tracker, rung_key(kind::RUNG_SCORE), |t| {
                        let pred = fitted.predict(val, t);
                        balanced_accuracy(&val.labels, &pred, val.n_classes)
                    });
                    rung_fit = Some((score, fitted));

                    // Prune pipelines that are clearly losing at low fidelity.
                    if rung + 1 < fidelities.len() {
                        if let Some(b) = &best {
                            if score < b.score * 0.7 {
                                break;
                            }
                        }
                    }
                    // ② Evaluation fraction: stop when the per-eval budget is
                    // spent.
                    if tracker.now() > eval_deadline {
                        break;
                    }
                }
                rung_fit
            });
            // Injected fault: the evaluation process died. Score the
            // config as failed for BO and move on.
            let Some(rung_fit) = outcome else {
                bo.observe(config, 0.0);
                continue;
            };

            let score = match rung_fit {
                Some((score, fitted)) => {
                    // Energy-aware objective (extension): penalise costly
                    // inference so Pareto-cheaper pipelines win ties.
                    let adjusted = if p.energy_weight > 0.0 {
                        let mut probe = CostTracker::new(spec.device, spec.cores);
                        probe.charge(
                            fitted.inference_ops_per_row(),
                            green_automl_energy::ParallelProfile::batch_inference(),
                        );
                        score - p.energy_weight * probe.measurement().kwh() * 1e9
                    } else {
                        score
                    };
                    if best.as_ref().is_none_or(|b| adjusted > b.score) {
                        best = Some(BestEval {
                            pipeline: pipeline.clone(),
                            score: adjusted,
                        });
                        stall = 0;
                    } else {
                        stall += 1;
                    }
                    adjusted
                }
                None => {
                    stall += 1;
                    0.0 // constraint violation
                }
            };
            bo.observe(config, score);
            n_evaluations += 1;
            if let Some(patience) = p.early_stop_patience {
                if stall >= patience {
                    stopped_early = true;
                    break;
                }
            }
        }

        // Every started evaluation was killed by a fault: nothing was ever
        // scored, so deploy the constant-class fallback (still consuming the
        // budget — CAML holds its allocation either way).
        if best.is_none() && search.n_faults() > 0 {
            if !stopped_early {
                crate::system::burn_active_until(&mut search.tracker, spec.budget_s);
            }
            return search.finish(majority_class_predictor(train), n_evaluations);
        }

        let winner = best.map(|b| b.pipeline).unwrap_or_else(|| {
            // No pipeline satisfied the constraints: fall back to the
            // cheapest possible model.
            green_automl_ml::Pipeline::new(vec![], green_automl_ml::ModelSpec::GaussianNb)
        });

        // Final training of the winner: on the training part only, or — ④
        // refit — on the merged training + validation data. The sample is
        // capped to what a reserved 20% budget slice can afford, preserving
        // strict adherence on heavily charged datasets.
        search
            .tracker
            .span_open(SpanKind::Trial, || "refit".to_string());
        let final_data = if p.refit { data } else { &tr_fixed };
        let final_budget = 0.2 * spec.budget_s;
        let d_enc = green_automl_ml::matrix::encoded_width(final_data);
        let mut n_final = final_data.n_rows();
        let floor = (2 * final_data.n_classes).max(8).min(final_data.n_rows());
        while n_final > floor
            && winner.model.estimate_fit_seconds(
                n_final,
                d_enc,
                final_data.n_classes,
                final_data.scale(),
                spec.device,
                spec.cores,
            ) > final_budget
        {
            n_final = (n_final / 2).max(floor);
        }
        let final_sub;
        let final_ref = if n_final < final_data.n_rows() {
            final_sub = final_data.head(n_final);
            &final_sub
        } else {
            final_data
        };
        let mut deployed = fit_scoped(
            &winner,
            final_ref,
            &[
                keep_word,
                p.refit as u64,
                spec.seed ^ 0xca31,
                holdout.to_bits(),
            ],
            spec.seed ^ 0xf17,
            &mut search.tracker,
            search.scope.as_ref(),
        );
        // A refit on more data may nudge a model past the inference limit
        // (e.g. k-NN stores more rows); fall back to the training-part fit.
        if let Some(limit) = spec.constraints.max_inference_s_per_row {
            if deployed.inference_seconds_per_row(spec.device, spec.cores) > limit {
                let shrunk = final_ref.head((final_ref.n_rows() / 2).max(floor));
                deployed =
                    deployed
                        .spec()
                        .clone()
                        .fit(&shrunk, &mut search.tracker, spec.seed ^ 0xf18);
            }
        }
        search.tracker.span_close();

        // CAML holds its allocation and keeps searching until the budget is
        // fully consumed (the final fit above happens within the window) —
        // unless the early-stopping extension fired, in which case the
        // remaining budget is the energy saved.
        if !stopped_early {
            crate::system::burn_active_until(&mut search.tracker, spec.budget_s);
        }
        search.finish(Predictor::Single(deployed), n_evaluations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Constraints;
    use green_automl_dataset::split::train_test_split as tts;
    use green_automl_dataset::TaskSpec;
    use green_automl_energy::Device;

    fn task() -> Dataset {
        let mut s = TaskSpec::new("caml-t", 260, 6, 2);
        s.cluster_sep = 2.1;
        s.generate().with_scales(8.0, 1.0)
    }

    #[test]
    fn adheres_strictly_to_the_budget() {
        let train = task();
        for budget in [10.0, 30.0] {
            let run = Caml::default().fit(&train, &RunSpec::single_core(budget, 0));
            let ratio = run.overshoot_ratio();
            // Table 7: 10.47 +- 0.05 for 10 s => within ~10%.
            assert!(
                (1.0..1.15).contains(&ratio),
                "budget {budget}: overshoot ratio {ratio:.3}"
            );
        }
    }

    #[test]
    fn uses_the_full_budget() {
        let train = task();
        let run = Caml::default().fit(&train, &RunSpec::single_core(30.0, 1));
        assert!(run.execution.duration_s >= 30.0);
    }

    #[test]
    fn single_model_learns() {
        let ds = task();
        let (train, test) = tts(&ds, 0.34, 0);
        let run = Caml::default().fit(&train, &RunSpec::single_core(120.0, 2));
        assert_eq!(run.predictor.n_models(), 1);
        let mut t = CostTracker::new(Device::xeon_gold_6132(), 1);
        let pred = run.predictor.predict(&test, &mut t);
        let bal = balanced_accuracy(&test.labels, &pred, 2);
        assert!(bal > 0.7, "balanced accuracy {bal}");
    }

    #[test]
    fn inference_constraint_is_respected() {
        let ds = task();
        let (train, _) = tts(&ds, 0.34, 0);
        let dev = Device::xeon_gold_6132();
        let mut spec = RunSpec::single_core(30.0, 3);
        let unconstrained = Caml::default().fit(&train, &spec);
        let free_cost = unconstrained.predictor.inference_s_per_row(dev, 1);

        // Constrain to a fraction of the unconstrained pipeline's latency,
        // but never below the framework-dispatch floor every pipeline pays.
        let mut floor_probe = CostTracker::new(dev, 1);
        let floor_pipe = green_automl_ml::Pipeline::new(
            vec![],
            green_automl_ml::ModelSpec::GaussianNb,
        )
        .fit(&train, &mut floor_probe, 0);
        let floor = floor_pipe.inference_seconds_per_row(dev, 1);
        let limit = (free_cost * 0.5).max(floor * 1.3);
        spec.constraints = Constraints {
            max_inference_s_per_row: Some(limit),
        };
        let constrained = Caml::default().fit(&train, &spec);
        let got = constrained.predictor.inference_s_per_row(dev, 1);
        assert!(
            got <= limit * 1.01,
            "constrained latency {got:.3e} exceeds limit {limit:.3e}"
        );
    }

    #[test]
    fn tighter_constraints_save_inference_energy() {
        // Paper Fig. 6: lowering the inference-time limit cuts energy at
        // some accuracy cost.
        let ds = task();
        let (train, _) = tts(&ds, 0.34, 0);
        let dev = Device::xeon_gold_6132();
        let run = |limit: Option<f64>| {
            let mut spec = RunSpec::single_core(30.0, 4);
            spec.constraints = Constraints {
                max_inference_s_per_row: limit,
            };
            Caml::default()
                .fit(&train, &spec)
                .predictor
                .inference_kwh_per_row(dev, 1)
        };
        let free = run(None);
        let tight = run(Some(free / 3.0 * 1e5)); // generous limit, sanity
        let very_tight = run(Some(1e-7));
        // The fallback model may differ from the free winner by the cost of
        // its (tiny) scoring arithmetic; allow that epsilon.
        assert!(
            very_tight <= free * 1.05,
            "constraint should not raise energy: {very_tight:.3e} vs {free:.3e}"
        );
        let _ = tight;
    }

    #[test]
    fn sampling_and_refit_parameters_apply() {
        let train = task();
        let mut params = CamlParams {
            sampling_frac: 0.3,
            refit: true,
            resample_validation: true,
            incremental_training: false,
            ..Default::default()
        };
        params.families = vec![Family::DecisionTree, Family::GaussianNb];
        let run = Caml::tuned(params).fit(&train, &RunSpec::single_core(10.0, 5));
        assert_eq!(run.predictor.n_models(), 1);
        assert!(run.n_evaluations >= 1);
    }

    #[test]
    fn tunable_surface_is_documented() {
        // 9 + 1 + 20 + 6 entries — the simulator's analogue of the paper's
        // 192-parameter surface (see EXPERIMENTS.md for the mapping).
        assert_eq!(CamlParams::n_tunable(), 36);
    }

    #[test]
    fn tuned_variant_reports_its_name() {
        assert_eq!(Caml::default().name(), "CAML");
        assert_eq!(Caml::tuned(CamlParams::default()).name(), "CAML(tuned)");
    }
}
