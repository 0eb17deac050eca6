//! The serving layer's headline guarantee: [`run_fleet`] fans batch
//! inference out over host threads, but batch formation is pure, every
//! batch owns its tracker, and dispatch (routing, autoscaling, shedding,
//! fault injection, every float accumulation) is strictly serial — so the
//! [`FleetReport`] is **byte-identical** at every `host_parallelism`
//! setting, clean or chaos-faulted. Asserted three ways: structural
//! equality (`PartialEq` covers every field, energies included), the
//! canonical `to_text` serialisation, and the span trace's JSONL sink.
//!
//! Single-model [`serve`] is a one-tenant `run_fleet` call, so its
//! [`ServingReport`] carries the same guarantee; the second half of this
//! suite checks it field by field, bit for bit.

use green_automl::prelude::*;

fn fixture() -> (Dataset, Vec<TenantSpec>, FleetTrace) {
    let data = TaskSpec::new("fleet-eq", 300, 6, 3).generate();
    let (train, test) = train_test_split(&data, 0.34, 19);
    let spec = RunSpec::single_core(10.0, 19);
    let tenants = vec![
        TenantSpec::new("flaml", Flaml::default().fit(&train, &spec).predictor, 0.5),
        TenantSpec::new(
            "autogluon",
            AutoGluon::default().fit(&train, &spec).predictor,
            0.5,
        ),
    ];
    let trace = FleetTrafficConfig {
        tenants: vec![
            TenantTraffic {
                tenant: 0,
                rps: 400.0,
                shapes: vec![Shape::Diurnal {
                    period_s: 0.75,
                    amplitude: 0.4,
                    peak_s: 0.2,
                }],
                n_requests: 300,
                seed: 91,
            },
            TenantTraffic {
                tenant: 1,
                rps: 400.0,
                shapes: vec![Shape::FlashCrowd {
                    at_s: 0.4,
                    ramp_s: 0.05,
                    peak_factor: 5.0,
                    decay_s: 0.08,
                }],
                n_requests: 300,
                seed: 92,
            },
        ],
    }
    .generate(test.n_rows());
    (test, tenants, trace)
}

fn config(host_parallelism: usize, fault: FaultPlan) -> FleetConfig {
    let regions = vec![
        RegionSpec::new(
            "germany",
            CarbonProfile::seeded(GridIntensity::GERMANY, 1),
            1,
        ),
        RegionSpec::new("poland", CarbonProfile::seeded(GridIntensity::POLAND, 2), 1),
        RegionSpec::new("sweden", CarbonProfile::seeded(GridIntensity::SWEDEN, 3), 1),
    ];
    let mut cfg = FleetConfig::cpu_testbed(regions)
        .with_autoscale(AutoscalePolicy::elastic(1, 4))
        .with_fault(fault)
        .with_trace();
    cfg.host_parallelism = host_parallelism;
    cfg
}

fn assert_identical(ctx: &str, serial: &FleetReport, parallel: &FleetReport) {
    // Structural equality covers every field bit-for-bit through the
    // derived PartialEq (floats compare by value; to_text below catches
    // -0.0 vs 0.0 or NaN-payload drift through the {:?} rendering).
    assert_eq!(serial, parallel, "{ctx}: FleetReport fields");
    assert_eq!(serial.to_text(), parallel.to_text(), "{ctx}: to_text");
    let (a, b) = (
        serial.trace.as_ref().expect("trace on"),
        parallel.trace.as_ref().expect("trace on"),
    );
    assert_eq!(a.to_jsonl(), b.to_jsonl(), "{ctx}: trace jsonl");
}

#[test]
fn fleet_report_is_byte_identical_at_every_worker_count_clean() {
    let (pool, tenants, trace) = fixture();
    let serial = run_fleet(&tenants, &pool, &trace, &config(1, FaultPlan::disabled()));
    assert!(serial.n_batches > 0, "fixture must do real work");
    assert!(
        !serial.events.is_empty(),
        "fixture must exercise the autoscaler"
    );
    for workers in [2, 4, 8] {
        let parallel = run_fleet(
            &tenants,
            &pool,
            &trace,
            &config(workers, FaultPlan::disabled()),
        );
        assert_identical(&format!("clean @ {workers}"), &serial, &parallel);
    }
}

#[test]
fn fleet_report_is_byte_identical_at_every_worker_count_under_chaos() {
    let (pool, tenants, trace) = fixture();
    let plan = FaultPlan::chaos(5);
    let serial = run_fleet(&tenants, &pool, &trace, &config(1, plan));
    assert!(
        serial.tenants.iter().any(|t| t.retried_requests > 0),
        "chaos plan must actually crash a replica"
    );
    for workers in [2, 4, 8] {
        let parallel = run_fleet(&tenants, &pool, &trace, &config(workers, plan));
        assert_identical(&format!("chaos @ {workers}"), &serial, &parallel);
    }
}

#[test]
fn auto_host_parallelism_matches_serial_too() {
    // `0` = one host thread per available core — the default.
    let (pool, tenants, trace) = fixture();
    let serial = run_fleet(&tenants, &pool, &trace, &config(1, FaultPlan::disabled()));
    let auto = run_fleet(&tenants, &pool, &trace, &config(0, FaultPlan::disabled()));
    assert_identical("clean @ auto", &serial, &auto);
}

// ------------------------------------------------------------- serve ----

fn deployments() -> (Dataset, Vec<(&'static str, Predictor)>) {
    let data = TaskSpec::new("serve-eq", 300, 6, 3).generate();
    let (train, test) = train_test_split(&data, 0.34, 11);
    let spec = RunSpec::single_core(10.0, 11);
    let preds = vec![
        ("FLAML", Flaml::default().fit(&train, &spec).predictor),
        (
            "AutoGluon",
            AutoGluon::default().fit(&train, &spec).predictor,
        ),
    ];
    (test, preds)
}

fn serve_at(
    predictor: &Predictor,
    pool: &Dataset,
    cfg: ServeConfig,
    host_parallelism: usize,
) -> ServingReport {
    let trace = TrafficConfig {
        rps: 400.0,
        n_requests: 600,
        seed: 77,
    }
    .generate(pool.n_rows());
    let cfg = ServeConfig {
        host_parallelism,
        ..cfg
    };
    serve(predictor, pool, &trace, &cfg)
}

/// Compare every report field bit-exactly (floats via `to_bits`, so
/// `-0.0` vs `0.0` or NaN payloads would also be caught).
fn assert_reports_identical(ctx: &str, serial: &ServingReport, parallel: &ServingReport) {
    assert_eq!(serial.n_requests, parallel.n_requests, "{ctx}: n_requests");
    assert_eq!(serial.n_batches, parallel.n_batches, "{ctx}: n_batches");
    assert_eq!(
        serial.predictions, parallel.predictions,
        "{ctx}: predictions"
    );
    assert_eq!(
        serial.max_queue_depth, parallel.max_queue_depth,
        "{ctx}: max_queue_depth"
    );
    let counts = [
        (
            "retried",
            serial.retried_requests,
            parallel.retried_requests,
        ),
        ("shed", serial.shed_requests, parallel.shed_requests),
        ("failed", serial.failed_requests, parallel.failed_requests),
    ];
    for (name, a, b) in counts {
        assert_eq!(a, b, "{ctx}: {name}");
    }
    let bits = [
        (
            "latency.p50_s",
            serial.latency.p50_s,
            parallel.latency.p50_s,
        ),
        (
            "latency.p95_s",
            serial.latency.p95_s,
            parallel.latency.p95_s,
        ),
        (
            "latency.p99_s",
            serial.latency.p99_s,
            parallel.latency.p99_s,
        ),
        (
            "latency.mean_s",
            serial.latency.mean_s,
            parallel.latency.mean_s,
        ),
        (
            "latency.max_s",
            serial.latency.max_s,
            parallel.latency.max_s,
        ),
        (
            "mean_queue_depth",
            serial.mean_queue_depth,
            parallel.mean_queue_depth,
        ),
        ("busy_j", serial.busy_j, parallel.busy_j),
        ("idle_j", serial.idle_j, parallel.idle_j),
        ("wasted_j", serial.wasted_j, parallel.wasted_j),
        ("makespan_s", serial.makespan_s, parallel.makespan_s),
        (
            "ops.scalar_flops",
            serial.ops.scalar_flops,
            parallel.ops.scalar_flops,
        ),
        (
            "ops.matmul_flops",
            serial.ops.matmul_flops,
            parallel.ops.matmul_flops,
        ),
        (
            "ops.tree_steps",
            serial.ops.tree_steps,
            parallel.ops.tree_steps,
        ),
        (
            "ops.mem_bytes",
            serial.ops.mem_bytes,
            parallel.ops.mem_bytes,
        ),
    ];
    for (name, a, b) in bits {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {name} ({a} vs {b})");
    }
}

#[test]
fn serving_report_is_bit_identical_at_every_worker_count() {
    let (pool, preds) = deployments();
    let cfg = ServeConfig::cpu_testbed(3);
    for (name, predictor) in &preds {
        let serial = serve_at(predictor, &pool, cfg, 1);
        assert!(serial.busy_j > 0.0, "{name}: report must do real work");
        for workers in [2, 8] {
            let parallel = serve_at(predictor, &pool, cfg, workers);
            assert_reports_identical(&format!("{name} @ {workers}"), &serial, &parallel);
        }
    }
}

#[test]
fn serving_auto_host_parallelism_matches_serial_too() {
    // `0` = one host thread per available core — the default.
    let (pool, preds) = deployments();
    let (name, predictor) = &preds[1];
    let cfg = ServeConfig::cpu_testbed(3);
    let serial = serve_at(predictor, &pool, cfg, 1);
    let auto = serve_at(predictor, &pool, cfg, 0);
    assert_reports_identical(&format!("{name} @ auto"), &serial, &auto);
}

#[test]
fn shedding_serving_report_is_bit_identical_at_every_worker_count_under_chaos() {
    let (pool, preds) = deployments();
    let cfg = ServeConfig {
        shed_queue_depth: 12,
        ..ServeConfig::cpu_testbed(3).with_fault(FaultPlan::chaos(5))
    };
    for (name, predictor) in &preds {
        let serial = serve_at(predictor, &pool, cfg, 1);
        assert!(serial.shed_requests > 0, "{name}: fixture must shed");
        assert!(serial.retried_requests > 0, "{name}: fixture must crash");
        for workers in [2, 8, 0] {
            let parallel = serve_at(predictor, &pool, cfg, workers);
            assert_reports_identical(
                &format!("{name} shed+chaos @ {workers}"),
                &serial,
                &parallel,
            );
        }
    }
}
