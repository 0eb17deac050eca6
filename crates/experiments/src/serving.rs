//! `serve` — the paper's inference-stage findings *under load*.
//!
//! Every system trains on the same registry dataset at the 1-minute budget
//! (the largest floor across systems), deploys its best model into a
//! [`ModelRegistry`], and then the **same** seeded open-loop traffic trace
//! is replayed against each deployment through the micro-batching
//! scheduler. The resulting table shows Observation O1 — ensembles pay an
//! order of magnitude more energy per request than single-model
//! deployments — and re-derives the Fig. 4 TabPFN crossover from *served*
//! (batched, queued) energies instead of the per-row constant.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::ExpConfig;
use green_automl_core::amortize::crossover_predictions;
use green_automl_core::executor::{resolve_parallelism, run_indexed};
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::{amlb39, Dataset};
use green_automl_energy::{CostTracker, Device, GridIntensity};
use green_automl_serve::fleet::{CORES_PER_REPLICA, MAX_BATCH, MAX_DELAY_S};
use green_automl_serve::{
    serve, ModelRegistry, ServeConfig, ServingReport, SloPolicy, TrafficConfig,
};
use green_automl_systems::{
    all_systems, AutoGluon, AutoGluonQuality, AutoMlRun, AutoMlSystem, RunSpec, SystemId,
};

/// Joules per kilowatt-hour.
const J_PER_KWH: f64 = 3.6e6;

/// The registry dataset every deployment trains on (shared with the
/// `fleet` experiment, so both serve the same held-out pool).
pub(crate) fn serving_dataset(cfg: &ExpConfig) -> (Dataset, Dataset) {
    let meta = amlb39()
        .into_iter()
        .find(|m| m.name == "blood-transfusion-service-center")
        .expect("registry contains the serving dataset");
    let ds = meta.materialize(&cfg.materialize);
    train_test_split(&ds, 0.34, cfg.seed ^ 0x66_34)
}

/// Run the serving comparison.
pub fn run(cfg: &ExpConfig) -> ExperimentOutput {
    let (train, test) = serving_dataset(cfg);

    // The seven systems plus AutoGluon's faster-inference refit preset —
    // the paper's Fig. 6 deployment fix — all at the 1-minute budget (the
    // smallest point every budget floor admits).
    let mut systems: Vec<Box<dyn AutoMlSystem>> = all_systems();
    systems.push(Box::new(AutoGluon {
        quality: AutoGluonQuality::FasterInferenceRefit,
    }));
    // TabPFN runs on the GPU node — the paper's recommended setting
    // (Table 3); everything else deploys on the CPU testbed.
    let device_for = |id: SystemId| {
        if id == SystemId::TabPfn {
            Device::gpu_node()
        } else {
            Device::xeon_gold_6132()
        }
    };
    // Not a grid: these fits return deployable predictors, not points.
    let fitted: Vec<(SystemId, AutoMlRun)> =
        run_indexed(systems.len(), resolve_parallelism(cfg.parallelism), |i| {
            let id = systems[i].id();
            let spec = RunSpec {
                device: device_for(id),
                ..RunSpec::single_core(60.0, cfg.seed)
            };
            (id, systems[i].fit(&train, &spec))
        });

    // One registry hosts every deployment; each fetch below is a cold load
    // charged to that deployment's account.
    let mut registry = ModelRegistry::unbounded();
    for (id, run) in &fitted {
        registry.register(id.as_str(), run.predictor.clone());
    }

    let trace = TrafficConfig {
        rps: cfg.serve_rps,
        n_requests: cfg.serve_requests,
        seed: cfg.seed ^ 0x5e47e,
    }
    .generate(test.n_rows());
    let slo = SloPolicy::latency_only(cfg.slo_ms / 1e3);

    let mut rows = Vec::new();
    let mut served: Vec<(SystemId, &AutoMlRun, ServingReport)> = Vec::new();
    for (id, run) in &fitted {
        let serve_cfg = ServeConfig {
            host_parallelism: cfg.parallelism,
            device: device_for(*id),
            ..ServeConfig::cpu_testbed(cfg.serve_replicas)
        };
        let mut load_tracker = CostTracker::new(serve_cfg.device, CORES_PER_REPLICA);
        let predictor = registry
            .fetch(id.as_str(), &mut load_tracker)
            .expect("just registered");
        let report = serve(&predictor, &test, &trace, &serve_cfg);
        let verdict = report.check(&slo);
        rows.push(vec![
            id.to_string(),
            predictor.n_models().to_string(),
            fmt(predictor.memory_bytes() / 1e6),
            fmt(load_tracker.measurement().energy.total_joules()),
            fmt(run.execution.kwh()),
            fmt(report.busy_joules_per_request()),
            fmt(report.joules_per_request()),
            fmt(report.latency.p50_s * 1e3),
            fmt(report.latency.p99_s * 1e3),
            fmt(report.mean_batch_rows()),
            fmt(report.throughput_rps()),
            fmt(report.kwh()),
            fmt(report.emissions(GridIntensity::GERMANY).kg_co2 * 1e3),
            if verdict.passed() { "yes" } else { "no" }.to_string(),
        ]);
        served.push((*id, run, report));
    }
    let main = Table::new(
        "serve: one traffic trace against every deployment",
        vec![
            "system",
            "n_models",
            "mem_mb",
            "cold_load_j",
            "exec_kwh",
            "busy_j_per_req",
            "total_j_per_req",
            "p50_ms",
            "p99_ms",
            "mean_batch",
            "throughput_rps",
            "kwh",
            "g_co2",
            "slo_pass",
        ],
        rows,
    );

    let mut notes = Vec::new();

    // O1 under load: marginal (busy) Joules per request, best single-model
    // deployment vs best ensemble deployment.
    let best_by = |pred: &dyn Fn(usize) -> bool| {
        served
            .iter()
            .filter(|(_, run, _)| pred(run.predictor.n_models()))
            .map(|(id, _, rep)| (*id, rep.busy_joules_per_request()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite energies"))
    };
    let single = best_by(&|n| n <= 1);
    let ensemble = best_by(&|n| n > 1);
    if let (Some((s_name, s_j)), Some((e_name, e_j))) = (single, ensemble) {
        notes.push(format!(
            "cheapest ensemble ({e_name}) pays {:.1}x the energy per request of the \
             cheapest single-model deployment ({s_name}) (paper O1: >= 10x)",
            e_j / s_j
        ));
    }

    // Fig. 4 under load: cumulative energy = execution + n_requests x
    // served-energy/request; where does TabPFN stop being cheapest?
    let mut cross_rows = Vec::new();
    if let Some((_, pfn_run, pfn_rep)) = served.iter().find(|(n, _, _)| *n == SystemId::TabPfn) {
        let pfn_exec = pfn_run.execution.kwh();
        let pfn_req = pfn_rep.busy_joules_per_request() / J_PER_KWH;
        for other in [SystemId::Flaml, SystemId::Caml, SystemId::AutoGluonRefit] {
            if let Some((_, o_run, o_rep)) = served.iter().find(|(n, _, _)| *n == other) {
                let o_req = o_rep.busy_joules_per_request() / J_PER_KWH;
                match crossover_predictions(pfn_exec, pfn_req, o_run.execution.kwh(), o_req) {
                    Some(n) if n > 0.0 => {
                        cross_rows.push(vec!["TabPFN".to_string(), other.to_string(), fmt(n)]);
                        notes.push(format!(
                            "under load, TabPFN stays cheapest up to ~{n:.0} requests vs {other} \
                             (paper Fig. 4: ~26k)"
                        ));
                    }
                    Some(_) => notes.push(format!(
                        "{other} dominates TabPFN under load (cheaper execution and per-request)"
                    )),
                    None => {}
                }
            }
        }
    }
    let cross = Table::new(
        "serve: cumulative-energy crossovers under load",
        vec![
            "cheap_execution_system",
            "cheap_inference_system",
            "crossover_requests",
        ],
        cross_rows,
    );

    notes.push(format!(
        "trace: {} requests at {:.0} rps (seed {}), {} replica(s), batch <= {} or {:.0} ms, \
         SLO p99 <= {:.0} ms",
        cfg.serve_requests,
        cfg.serve_rps,
        cfg.seed,
        cfg.serve_replicas,
        MAX_BATCH,
        MAX_DELAY_S * 1e3,
        cfg.slo_ms
    ));

    ExperimentOutput {
        id: "serve",
        files: Vec::new(),
        tables: vec![main, cross],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_reproduces_the_papers_shape_at_smoke_scale() {
        let out = run(&ExpConfig::smoke());
        assert_eq!(out.tables.len(), 2);
        // Seven systems + the refit preset.
        assert_eq!(out.tables[0].rows.len(), 8);
        // TabPFN crosses over at least one searcher under load.
        assert!(
            !out.tables[1].rows.is_empty(),
            "no crossover found: {:?}",
            out.notes
        );
        for row in &out.tables[1].rows {
            let n: f64 = row[2].parse().unwrap_or_else(|_| {
                row[2]
                    .replace("e", "E")
                    .parse::<f64>()
                    .expect("numeric crossover")
            });
            // Acceptance band: the served crossover lands where the paper's
            // per-row constant puts it — 10^4..10^5 requests.
            assert!(
                (1e4..=1e5).contains(&n),
                "crossover {n} outside the 1e4..1e5 band"
            );
        }
        // The O1 gap note exists and reports a >= 10x ratio.
        let gap = out
            .notes
            .iter()
            .find(|n| n.contains("cheapest ensemble"))
            .expect("O1 note");
        let ratio: f64 = gap
            .split("pays ")
            .nth(1)
            .and_then(|s| s.split('x').next())
            .and_then(|s| s.parse().ok())
            .expect("ratio in note");
        assert!(ratio >= 10.0, "ensemble gap only {ratio:.1}x: {gap}");
    }
}
