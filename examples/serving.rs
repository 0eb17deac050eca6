//! Serving AutoML models under load: the inference stage as a service.
//!
//! Trains two deployments on an AMLB registry dataset — FLAML (a single
//! cheap pipeline) and AutoGluon (a weighted multi-layer stack) — puts them
//! behind the model registry, and replays the *same* 10k-request traffic
//! trace against each through the micro-batching scheduler. The report
//! makes the paper's inference-stage finding operational: the ensemble pays
//! an order of magnitude more energy per request, visible directly in the
//! per-deployment Joules, latency percentiles, and grid carbon.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use green_automl::prelude::*;
use green_automl::serve::fleet::{CORES_PER_REPLICA, MAX_BATCH, MAX_DELAY_S};

fn main() {
    // One registry dataset, materialised at benchmark scale.
    let meta = amlb39()
        .into_iter()
        .find(|m| m.name == "blood-transfusion-service-center")
        .expect("registry dataset");
    let data = meta.materialize(&MaterializeOptions::benchmark());
    let (train, test) = train_test_split(&data, 0.34, 42);
    println!(
        "dataset: {} ({} train rows, {} features)\n",
        meta.name,
        train.n_rows(),
        train.n_features()
    );

    // Train both deployments at the one-minute budget.
    let spec = RunSpec::single_core(60.0, 42);
    let deployments = vec![
        ("FLAML", Flaml::default().fit(&train, &spec)),
        ("AutoGluon", AutoGluon::default().fit(&train, &spec)),
    ];

    // Host them in one registry; the first fetch is a cold load whose
    // memory traffic is charged to the deployment's meter.
    let mut registry = ModelRegistry::unbounded();
    for (name, run) in &deployments {
        let mb = registry.register(name, run.predictor.clone()) / 1e6;
        println!("registered {name:<10} ({mb:.2} MB artefact)");
    }

    // One shared open-loop trace: 10k requests at 500 rps, rows drawn from
    // the held-out split.
    let trace = TrafficConfig {
        rps: 500.0,
        n_requests: 10_000,
        seed: 42,
    }
    .generate(test.n_rows());
    let cfg = ServeConfig::cpu_testbed(4);
    let slo = SloPolicy::latency_only(0.05);

    println!(
        "\ntrace: {} requests at {:.0} rps, {} replicas, batch <= {} or {:.0} ms\n",
        trace.len(),
        500.0,
        cfg.replicas,
        MAX_BATCH,
        MAX_DELAY_S * 1e3
    );
    println!(
        "{:<10} {:>11} {:>12} {:>9} {:>9} {:>11} {:>9} {:>9}",
        "system", "cold_load_j", "busy_j/req", "p50_ms", "p99_ms", "mean_batch", "g_co2", "slo"
    );
    let mut reports: Vec<(&str, ServingReport)> = Vec::new();
    for (name, _) in &deployments {
        let mut loader = CostTracker::new(cfg.device, CORES_PER_REPLICA);
        let predictor = registry.fetch(name, &mut loader).expect("registered");
        let report = serve(&predictor, &test, &trace, &cfg);
        let verdict = report.check(&slo);
        println!(
            "{name:<10} {:>11.4} {:>12.3e} {:>9.2} {:>9.2} {:>11.1} {:>9.4} {:>9}",
            loader.measurement().energy.total_joules(),
            report.busy_joules_per_request(),
            report.latency.p50_s * 1e3,
            report.latency.p99_s * 1e3,
            report.mean_batch_rows(),
            report.emissions(GridIntensity::GERMANY).kg_co2 * 1e3,
            if verdict.passed() { "pass" } else { "FAIL" },
        );
        reports.push((name, report));
    }

    let flaml = reports[0].1.busy_joules_per_request();
    let gluon = reports[1].1.busy_joules_per_request();
    println!(
        "\nAutoGluon's stack pays {:.1}x FLAML's marginal energy per request",
        gluon / flaml
    );
    println!("at identical traffic — the paper's O1 gap, measured at the");
    println!("serving layer instead of in a row-at-a-time loop.");
}
