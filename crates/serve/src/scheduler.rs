//! Single-model serving: the one-tenant entry point onto the fleet loop.
//!
//! [`serve`] replays one open-loop trace against one deployed model on a
//! fixed pool of `replicas` simulated replicas. It is a thin projection of
//! [`run_fleet`]: one tenant, one region with a flat carbon profile, the
//! carbon-blind router, and a pinned pool. Batch formation, host-parallel
//! execution, crash retry with backoff, load shedding and idle pricing all
//! live in [`crate::fleet`], so the single-model and fleet reports cannot
//! drift apart.

use green_automl_core::fault::FaultPlan;
use green_automl_dataset::Dataset;
use green_automl_energy::{CarbonProfile, Device, GridIntensity};
use green_automl_systems::Predictor;

use crate::autoscale::AutoscalePolicy;
use crate::fleet::{run_fleet, FleetConfig, RegionSpec, TenantSpec};
use crate::report::ServingReport;
use crate::router::RouterPolicy;
use crate::traffic::{FleetRequest, FleetTrace, TrafficTrace};

/// How the serving layer batches and executes requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// A batch dispatches as soon as it holds this many requests.
    pub max_batch: usize,
    /// …or as soon as this much virtual time has passed since the batch's
    /// first arrival, whichever comes first.
    pub max_delay_s: f64,
    /// Simulated serving replicas executing batches concurrently. More
    /// replicas cut queueing latency but burn more idle power — changing
    /// this changes the report (it is part of the deployment), unlike
    /// `host_parallelism`.
    pub replicas: usize,
    /// Cores allocated to each replica.
    pub cores_per_replica: usize,
    /// Hardware model the replicas run on.
    pub device: Device,
    /// Host threads used to execute batch inference while *building* the
    /// report (`0` = one per available core). Purely an execution detail:
    /// the report is byte-identical at every setting.
    pub host_parallelism: usize,
    /// Seeded fault plan; its `replica_crash_p` / `replica_restart_s`
    /// drive mid-batch replica crashes (the trial probabilities are
    /// ignored here). Disabled by default.
    pub fault: FaultPlan,
    /// Redispatch attempts after a replica crash before the batch's
    /// requests count as failed.
    pub max_retries: usize,
    /// First retry waits this long after the crash; each further retry
    /// doubles it (capped by `backoff_cap_s`). Virtual seconds.
    pub backoff_base_s: f64,
    /// Upper bound on the exponential backoff, virtual seconds.
    pub backoff_cap_s: f64,
    /// Shed a whole batch at dispatch when the backlog at its start
    /// instant is deeper than this (`0` = never shed); the rule is
    /// [`FleetConfig::shed_queue_depth`]. Shed requests are never executed
    /// and cost no energy.
    pub shed_queue_depth: usize,
    /// Record a span trace of the run: one `Replica` span per replica
    /// and one `Batch` span per dispatch attempt. Like
    /// `host_parallelism`, this never changes any measured number — it
    /// only adds the `trace` field to the report.
    pub trace: bool,
}

impl ServeConfig {
    /// A single-core-replica deployment on the paper's CPU testbed with the
    /// given replica count. Fault injection off, three retries, no
    /// load shedding.
    pub fn cpu_testbed(replicas: usize) -> ServeConfig {
        ServeConfig {
            max_batch: 32,
            max_delay_s: 0.02,
            replicas,
            cores_per_replica: 1,
            device: Device::xeon_gold_6132(),
            host_parallelism: 0,
            fault: FaultPlan::disabled(),
            max_retries: 3,
            backoff_base_s: 0.05,
            backoff_cap_s: 1.0,
            shed_queue_depth: 0,
            trace: false,
        }
    }

    /// The same deployment with a fault plan installed.
    pub fn with_fault(mut self, fault: FaultPlan) -> ServeConfig {
        self.fault = fault;
        self
    }

    /// The same deployment with span tracing on.
    pub fn with_trace(mut self) -> ServeConfig {
        self.trace = true;
        self
    }
}

/// Replay `trace` against `predictor`, drawing request feature rows from
/// `pool`, and aggregate the run into a [`ServingReport`].
///
/// The run is one [`run_fleet`] call — a single tenant in a single region
/// whose pool stays at `cfg.replicas`, with every batching, device, fault,
/// retry, shedding and trace setting copied across — projected onto that
/// tenant and that region. It inherits the fleet's guarantees: the report
/// is byte-identical at every `cfg.host_parallelism`, with or without
/// fault injection; crashed batches retry with capped exponential backoff
/// and count as failed only when their retries run out. An empty trace
/// (e.g. a zero-rate [`TrafficConfig`](crate::traffic::TrafficConfig))
/// yields an all-zero report.
///
/// # Panics
/// Panics if the trace references rows outside `pool`, or if
/// `cfg.replicas` is zero.
pub fn serve(
    predictor: &Predictor,
    pool: &Dataset,
    trace: &TrafficTrace,
    cfg: &ServeConfig,
) -> ServingReport {
    let fleet_trace = FleetTrace {
        requests: trace
            .requests
            .iter()
            .map(|r| FleetRequest {
                id: r.id,
                tenant: 0,
                arrival_s: r.arrival_s,
                row: r.row,
            })
            .collect(),
        pool_rows: trace.pool_rows,
    };
    // The SLO lives on `ServingReport::check`, so the tenant's own
    // objective never binds.
    let tenants = [TenantSpec::new("model", predictor.clone(), f64::INFINITY)];
    let fleet_cfg = FleetConfig {
        regions: vec![RegionSpec::new(
            "serve",
            CarbonProfile::flat(GridIntensity::GERMANY),
            cfg.replicas,
        )],
        router: RouterPolicy::CarbonBlind,
        autoscale: AutoscalePolicy::pinned(),
        max_batch: cfg.max_batch,
        max_delay_s: cfg.max_delay_s,
        device: cfg.device,
        cores_per_replica: cfg.cores_per_replica,
        host_parallelism: cfg.host_parallelism,
        fault: cfg.fault,
        max_retries: cfg.max_retries,
        backoff_base_s: cfg.backoff_base_s,
        backoff_cap_s: cfg.backoff_cap_s,
        shed_queue_depth: cfg.shed_queue_depth,
        trace: cfg.trace,
    };
    let fleet = run_fleet(&tenants, pool, &fleet_trace, &fleet_cfg);
    let (t, r) = (&fleet.tenants[0], &fleet.regions[0]);
    ServingReport {
        n_requests: fleet.n_requests,
        n_batches: fleet.n_batches,
        latency: t.latency,
        mean_queue_depth: fleet.mean_queue_depth,
        max_queue_depth: fleet.max_queue_depth,
        busy_j: r.busy_j,
        idle_j: r.idle_j,
        makespan_s: fleet.makespan_s,
        ops: r.ops,
        retried_requests: t.retried_requests,
        shed_requests: t.shed_requests,
        failed_requests: t.failed_requests,
        wasted_j: r.wasted_j,
        predictions: fleet.predictions,
        trace: fleet.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SloPolicy;
    use crate::traffic::TrafficConfig;
    use green_automl_energy::{FaultKind, OpCounts, Span, SpanKind};

    #[test]
    fn serving_a_constant_predictor_reports_sane_numbers() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 100.0,
            n_requests: 200,
            seed: 5,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 1,
            n_classes: 2,
        };
        let report = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(2));
        assert_eq!(report.n_requests, 200);
        assert_eq!(report.predictions, vec![1u32; 200]);
        assert!(report.busy_j > 0.0);
        assert!(report.idle_j > 0.0, "two replicas at 100 rps must idle");
        assert!(report.latency.p50_s > 0.0);
        assert!(report.latency.p99_s >= report.latency.p50_s);
        assert!(report.makespan_s >= trace.requests.last().unwrap().arrival_s);
        let answered = report.predictions.iter().filter(|&&p| p == 1).count();
        assert_eq!(answered + report.shed_requests, report.n_requests);
    }

    #[test]
    fn an_empty_trace_serves_to_an_all_zero_report() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 10, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 0.0,
            n_requests: 50,
            seed: 3,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 0,
            n_classes: 2,
        };
        let report = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(2));
        assert_eq!(report.n_requests, 0);
        assert_eq!(report.n_batches, 0);
        assert!(report.predictions.is_empty());
        assert_eq!(report.total_joules(), 0.0);
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.latency, crate::report::LatencyStats::empty());
        assert_eq!(report.joules_per_request(), 0.0);
        assert_eq!(report.throughput_rps(), 0.0);
    }

    #[test]
    fn replica_crashes_waste_energy_but_requests_still_complete() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 300.0,
            n_requests: 400,
            seed: 11,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 1,
            n_classes: 2,
        };
        let clean = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(3));
        let faulty_cfg =
            ServeConfig::cpu_testbed(3).with_fault(green_automl_core::fault::FaultPlan::chaos(21));
        let faulty = serve(&p, &pool, &trace, &faulty_cfg);

        assert!(faulty.wasted_j > 0.0, "chaos plan must crash something");
        assert!(faulty.retried_requests > 0);
        assert_eq!(faulty.failed_requests, 0, "3 retries ride out 5% crashes");
        assert_eq!(faulty.shed_requests, 0, "shedding is off by default");
        // Every request still gets the same answer as the clean run…
        assert_eq!(faulty.predictions, clean.predictions);
        // …every batch eventually executes exactly once, so the productive
        // energy is bitwise the work of the clean run; crashes only add.
        assert_eq!(faulty.busy_j.to_bits(), clean.busy_j.to_bits());
        assert!(faulty.total_joules() > clean.total_joules());
        assert!(faulty.latency.p99_s >= clean.latency.p99_s);
    }

    #[test]
    fn certain_crashes_exhaust_retries_into_failed_requests() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 20, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 100.0,
            n_requests: 60,
            seed: 4,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 0,
            n_classes: 2,
        };
        let mut cfg = ServeConfig::cpu_testbed(2);
        cfg.fault = green_automl_core::fault::FaultPlan {
            seed: 9,
            replica_crash_p: 1.0,
            replica_restart_s: 0.1,
            ..green_automl_core::fault::FaultPlan::disabled()
        };
        let report = serve(&p, &pool, &trace, &cfg);
        assert_eq!(report.failed_requests, 60, "every attempt crashes");
        assert_eq!(report.retried_requests, 0);
        assert_eq!(report.busy_j, 0.0, "nothing ever completed");
        assert!(report.wasted_j > 0.0);
        assert_eq!(report.latency, crate::report::LatencyStats::empty());
        // Nothing was answered, so the empty latency summary's p99 of 0
        // must not pass a latency objective.
        let verdict = report.check(&SloPolicy::latency_only(0.05));
        assert!(!verdict.latency_ok && !verdict.passed());
    }

    #[test]
    fn deep_queues_shed_whole_batches_without_energy() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 30, 4, 2).generate();
        // A single replica at a very high arrival rate builds a deep queue.
        let trace = TrafficConfig {
            rps: 100_000.0,
            n_requests: 600,
            seed: 8,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 1,
            n_classes: 2,
        };
        let unshed = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(1));
        assert!(unshed.max_queue_depth > 4, "need real queueing to shed");
        let mut cfg = ServeConfig::cpu_testbed(1);
        cfg.shed_queue_depth = 4;
        let shed = serve(&p, &pool, &trace, &cfg);
        assert!(shed.shed_requests > 0);
        assert_eq!(shed.failed_requests, 0);
        assert!(
            shed.busy_j < unshed.busy_j,
            "shed batches must not burn compute"
        );
        let answered = shed.predictions.iter().filter(|&&p| p == 1).count();
        assert_eq!(answered + shed.shed_requests, 600);
    }

    #[test]
    fn traces_are_deterministic_and_reconcile_with_the_report() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 300.0,
            n_requests: 200,
            seed: 7,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 1,
            n_classes: 2,
        };
        let base = ServeConfig::cpu_testbed(2);
        assert!(serve(&p, &pool, &trace, &base).trace.is_none());

        let traced_cfg = base.with_trace();
        let report = serve(&p, &pool, &trace, &traced_cfg);
        // Tracing never changes a measured number.
        let untraced = serve(&p, &pool, &trace, &base);
        assert_eq!(report.busy_j.to_bits(), untraced.busy_j.to_bits());
        assert_eq!(report.predictions, untraced.predictions);

        // The serialized trace is byte-identical at every host worker count.
        let mut wide = traced_cfg;
        wide.host_parallelism = 7;
        let wide_report = serve(&p, &pool, &trace, &wide);
        let t = report.trace.expect("tracing was on");
        assert_eq!(
            t.to_jsonl(),
            wide_report.trace.expect("tracing was on").to_jsonl()
        );

        // One Replica root per replica; batch spans sum bitwise to busy_j
        // and replica (idle) spans to idle_j — same accumulation order.
        assert_eq!(t.roots().count(), 2);
        let span_busy = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Batch && s.fault.is_none())
            .fold(0.0f64, |acc, s| acc + s.energy.total_joules());
        assert_eq!(span_busy.to_bits(), report.busy_j.to_bits());
        let span_idle = t
            .roots()
            .fold(0.0f64, |acc, s| acc + s.energy.total_joules());
        assert_eq!(span_idle.to_bits(), report.idle_j.to_bits());
    }

    #[test]
    fn crashed_attempts_appear_as_fault_tagged_batch_spans() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 300.0,
            n_requests: 400,
            seed: 11,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 1,
            n_classes: 2,
        };
        let cfg = ServeConfig::cpu_testbed(3)
            .with_fault(green_automl_core::fault::FaultPlan::chaos(21))
            .with_trace();
        let report = serve(&p, &pool, &trace, &cfg);
        assert!(report.wasted_j > 0.0);
        let t = report.trace.expect("tracing was on");
        let crashed: Vec<&Span> = t
            .spans
            .iter()
            .filter(|s| s.fault == Some(FaultKind::Crash))
            .collect();
        assert!(!crashed.is_empty(), "chaos must tag crashed attempts");
        assert!(crashed.iter().all(|s| s.kind == SpanKind::Batch));
        // Crashed attempts cost energy but never report completed ops.
        assert!(crashed.iter().all(|s| s.energy.total_joules() > 0.0));
        assert!(crashed.iter().all(|s| s.ops == OpCounts::ZERO));
        // Every span hangs off a replica root, and ids are unique.
        let roots: Vec<u64> = t.roots().map(|s| s.id).collect();
        assert_eq!(roots.len(), 3);
        assert!(t
            .spans
            .iter()
            .all(|s| s.parent.is_none() || roots.contains(&s.parent.unwrap())));
        let mut ids: Vec<u64> = t.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), t.len());
    }

    #[test]
    fn more_replicas_trade_idle_energy_for_latency() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 30, 4, 2).generate();
        let trace = TrafficConfig {
            rps: 2000.0,
            n_requests: 400,
            seed: 9,
        }
        .generate(pool.n_rows());
        let p = Predictor::Constant {
            class: 0,
            n_classes: 2,
        };
        let one = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(1));
        let eight = serve(&p, &pool, &trace, &ServeConfig::cpu_testbed(8));
        assert!(eight.latency.p99_s <= one.latency.p99_s);
        // Busy energy is the same work either way.
        assert!((one.busy_j - eight.busy_j).abs() < 1e-9);
    }
}
