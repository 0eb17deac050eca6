//! Graceful degradation end to end: under a 100%-failure [`FaultPlan`]
//! every AutoML system still deploys a servable constant-class fallback,
//! injected faults only ever *add* energy — the productive (clean)
//! accounting is bitwise unchanged underneath the waste — and every
//! killed trial leaves exactly one fault-tagged span in the trace.

use green_automl::prelude::*;
use green_automl::systems::{GridSearchBaseline, RandomSearchBaseline};

#[test]
fn every_killed_trial_leaves_one_fault_tagged_trial_span() {
    let train = TaskSpec::new("trial-contract", 120, 4, 3).generate();
    let mut systems = all_systems();
    systems.push(Box::new(RandomSearchBaseline::default()));
    systems.push(Box::new(GridSearchBaseline::default()));
    for plan in [FaultPlan::chaos(5), FaultPlan::total_failure(5)] {
        let mut faults = 0;
        for system in &systems {
            let name = system.name();
            // Each system's smallest paper budget (10 s, or its floor).
            let budget_s = system.min_budget_s().max(10.0);
            let spec = RunSpec::single_core(budget_s, 5)
                .with_fault(plan)
                .with_trace();
            let run = system.fit(&train, &spec);
            let trace = run.trace.expect("traced spec yields a trace");
            let trials: Vec<&Span> = trace
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Trial && s.label.starts_with("trial "))
                .collect();
            for (i, span) in trials.iter().enumerate() {
                assert_eq!(span.label, format!("trial {i}"), "{name}: trials in order");
            }
            let tagged = trace.spans.iter().filter(|s| s.fault.is_some());
            assert!(
                tagged.clone().all(|s| s.kind == SpanKind::Trial),
                "{name}: only trials are killed"
            );
            assert_eq!(
                tagged.count(),
                run.n_trial_faults,
                "{name} under {plan:?}: one fault-tagged span per killed trial"
            );
            if plan.trial_crash_p == 1.0 {
                assert_eq!(run.n_trial_faults, trials.len(), "{name}: every trial dies");
            }
            faults += run.n_trial_faults;
        }
        assert!(faults > 0, "{plan:?} killed no trial");
    }
}

#[test]
fn total_failure_degrades_every_system_to_a_servable_constant_predictor() {
    let data = TaskSpec::new("fault-deg", 240, 6, 3).generate();
    let (train, test) = train_test_split(&data, 0.34, 9);
    // 60 s clears every budget floor; the plan then kills every trial.
    let spec = RunSpec::single_core(60.0, 9).with_fault(FaultPlan::total_failure(9));
    let trace = TrafficConfig {
        rps: 200.0,
        n_requests: 200,
        seed: 3,
    }
    .generate(test.n_rows());

    for system in all_systems() {
        let name = system.name();
        // Search: every candidate dies, yet the run completes with the
        // majority-class fallback and an honest energy bill.
        let run = system.fit(&train, &spec);
        assert!(run.n_trial_faults > 0, "{name}: every trial must die");
        assert!(
            run.wasted_j > 0.0,
            "{name}: killed trials still cost energy"
        );
        assert!(
            matches!(run.predictor, Predictor::Constant { .. }),
            "{name}: expected the constant-class fallback, got {:?} models",
            run.predictor.n_models()
        );
        assert_eq!(run.predictor.n_models(), 0, "{name}");

        // Serving: the degraded deployment still answers the full trace.
        let report = serve(&run.predictor, &test, &trace, &ServeConfig::cpu_testbed(2));
        assert_eq!(report.n_requests, 200, "{name}");
        assert_eq!(report.predictions.len(), 200, "{name}");
        assert_eq!(report.failed_requests, 0, "{name}");
        let class = report.predictions[0];
        assert!(
            report.predictions.iter().all(|&p| p == class),
            "{name}: the fallback must answer with one class"
        );
    }

    // Guideline: the recommendation engine is independent of the wrecked
    // search, so the end-to-end pipeline (search → guideline → serving)
    // keeps producing a usable answer after a total search loss.
    let profile = TaskProfile {
        has_dev_compute: false,
        many_executions: true,
        budget_s: 60.0,
        n_classes: 3,
        gpu_available: false,
        priority: Priority::FastInference,
        serving: None,
    };
    assert_eq!(recommend(&profile), Recommendation::Flaml);
}

#[test]
fn faults_add_wasted_energy_without_touching_productive_accounting() {
    let data = TaskSpec::new("fault-conserve", 300, 6, 3).generate();
    let (train, test) = train_test_split(&data, 0.34, 21);
    let run = Flaml::default().fit(&train, &RunSpec::single_core(10.0, 21));
    let trace = TrafficConfig {
        rps: 400.0,
        n_requests: 600,
        seed: 21,
    }
    .generate(test.n_rows());

    let clean_cfg = ServeConfig::cpu_testbed(3);
    let clean = serve(&run.predictor, &test, &trace, &clean_cfg);
    let chaos = serve(
        &run.predictor,
        &test,
        &trace,
        &clean_cfg.with_fault(FaultPlan::chaos(21)),
    );

    // The faults fired and every request still completed.
    assert!(chaos.retried_requests > 0, "crashes must force retries");
    assert_eq!(chaos.failed_requests, 0, "retries must absorb the crashes");
    assert!(chaos.wasted_j > 0.0, "crashed attempts must be billed");

    // Conservation: completed work is charged identically to the clean
    // run — faults add a separate wasted term, they never perturb it.
    assert_eq!(chaos.predictions, clean.predictions);
    assert_eq!(chaos.busy_j.to_bits(), clean.busy_j.to_bits());

    // The total decomposes exactly, with no hidden rounding.
    let recomposed = chaos.busy_j + chaos.idle_j + chaos.wasted_j;
    assert_eq!(chaos.total_joules().to_bits(), recomposed.to_bits());
    assert!(chaos.total_joules() > clean.total_joules());
}
