//! `chaos` — energy under failure.
//!
//! The paper's protocol assumes every AutoML run completes; real AMLB
//! campaigns lose trials to crashes, timeouts, and OOM kills. This
//! artefact reruns a reduced benchmark grid and a serving trace under the
//! seeded [`FaultPlan::chaos`] profile and reports, per system, how much
//! energy the injected failures waste on top of the productive spend.
//! Fault decisions are pure functions of (seed, site), so a chaos run is
//! as reproducible as a clean one: `tests/fault_equivalence.rs` proves
//! the faulted grid byte-identical at every worker count, and
//! `tests/fleet_equivalence.rs` does the same for the faulted serving
//! report.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::benchmark::run_grid_with;
use green_automl_core::fault::FaultPlan;
use green_automl_dataset::split::train_test_split;
use green_automl_dataset::DatasetMeta;
use green_automl_serve::{serve, ServeConfig, ServingReport, TrafficConfig};
use green_automl_systems::{all_systems, AutoMlSystem, Flaml};

/// Joules per kilowatt-hour.
const J_PER_KWH: f64 = 3.6e6;

/// The chaos grid is deliberately small — the point is failure behaviour,
/// not Fig.-3 coverage.
fn chaos_scope(cfg: &ExpConfig) -> (Vec<DatasetMeta>, Vec<f64>) {
    let datasets: Vec<DatasetMeta> = cfg.datasets().into_iter().take(4).collect();
    let budgets: Vec<f64> = cfg.budgets.iter().copied().take(2).collect();
    (datasets, budgets)
}

/// Run the chaos artefact, its grid through the run's memo.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let plan = FaultPlan::chaos(cfg.seed ^ 0xc4a05);
    let (datasets, budgets) = chaos_scope(cfg);
    let systems = all_systems();
    let spec = cfg.base_spec().with_fault(plan);
    let opts = cfg.bench_options();

    let grid = run_grid_with(
        &systems,
        &datasets,
        &budgets,
        &spec,
        &opts,
        None,
        shared.memo(cfg),
    )
    .expect("chaos spec is valid");

    let mut rows = Vec::new();
    let mut total_faults = 0usize;
    for system in &systems {
        let id = system.id();
        let pts: Vec<_> = grid.points.iter().filter(|p| p.system == id).collect();
        let failed = grid.failures.iter().filter(|f| f.system == id).count();
        let n = pts.len();
        let faults: usize = pts.iter().map(|p| p.n_trial_faults).sum();
        total_faults += faults;
        let wasted_j: f64 = pts.iter().map(|p| p.wasted_j).sum();
        let exec_kwh: f64 = pts.iter().map(|p| p.execution.kwh()).sum();
        let mean_acc: f64 = pts.iter().map(|p| p.balanced_accuracy).sum::<f64>() / n.max(1) as f64;
        rows.push(vec![
            id.to_string(),
            n.to_string(),
            failed.to_string(),
            faults.to_string(),
            fmt(wasted_j),
            fmt(wasted_j / J_PER_KWH / exec_kwh.max(1e-30) * 100.0),
            fmt(exec_kwh),
            fmt(mean_acc),
        ]);
    }
    let grid_table = Table::new(
        "chaos: search energy under injected trial faults",
        vec![
            "system",
            "points",
            "failed_cells",
            "trial_faults",
            "wasted_j",
            "wasted_pct",
            "exec_kwh",
            "mean_bal_acc",
        ],
        rows,
    );

    // Serving under replica crashes: one deployment, the same trace, clean
    // vs chaos.
    let ds = datasets[0].materialize(&cfg.materialize);
    let (train, test) = train_test_split(&ds, 0.34, cfg.seed ^ 0x66_34);
    let fit = Flaml::default().fit(&train, &spec);
    let trace = TrafficConfig {
        rps: cfg.serve_rps,
        n_requests: cfg.serve_requests.min(1_000),
        seed: cfg.seed ^ 0xc4a06,
    }
    .generate(test.n_rows());
    let clean_cfg = ServeConfig::cpu_testbed(cfg.serve_replicas);
    let chaos_cfg = clean_cfg.with_fault(plan);
    let clean = serve(&fit.predictor, &test, &trace, &clean_cfg);
    let chaos = serve(&fit.predictor, &test, &trace, &chaos_cfg);

    let serve_row = |label: &str, r: &ServingReport| {
        vec![
            label.to_string(),
            r.n_requests.to_string(),
            r.retried_requests.to_string(),
            r.shed_requests.to_string(),
            r.failed_requests.to_string(),
            fmt(r.busy_j),
            fmt(r.wasted_j),
            fmt(r.kwh()),
            fmt(r.latency.p99_s * 1e3),
        ]
    };
    let serve_table = Table::new(
        "chaos: the same trace served clean vs under replica crashes",
        vec![
            "deployment",
            "requests",
            "retried",
            "shed",
            "failed",
            "busy_j",
            "wasted_j",
            "kwh",
            "p99_ms",
        ],
        vec![
            serve_row("FLAML (clean)", &clean),
            serve_row("FLAML (chaos)", &chaos),
        ],
    );

    let mut notes = vec![
        format!(
            "fault plan: seed {}, trial crash/timeout/oom {:.0}%/{:.0}%/{:.0}%, \
             replica crash {:.0}% with {:.2}s restart",
            plan.seed,
            plan.trial_crash_p * 100.0,
            plan.trial_timeout_p * 100.0,
            plan.trial_oom_p * 100.0,
            plan.replica_crash_p * 100.0,
            plan.replica_restart_s
        ),
        format!(
            "search: {total_faults} injected trial faults; every system still deployed a \
             predictor (constant-class fallback covers total loss)"
        ),
    ];
    if chaos.failed_requests == 0 {
        notes.push(format!(
            "serving: all {} requests answered despite {} retried; crashes added {} J wasted \
             on top of the clean run's busy energy (bitwise unchanged: {})",
            chaos.n_requests,
            chaos.retried_requests,
            fmt(chaos.wasted_j),
            chaos.busy_j.to_bits() == clean.busy_j.to_bits()
        ));
    } else {
        notes.push(format!(
            "serving: {} of {} requests failed after exhausting retries",
            chaos.failed_requests, chaos.n_requests
        ));
    }

    ExperimentOutput {
        id: "chaos",
        files: Vec::new(),
        tables: vec![grid_table, serve_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_reports_faults_and_survives_at_smoke_scale() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        assert_eq!(out.tables.len(), 2);
        // One row per system; at least one system saw an injected fault.
        assert_eq!(out.tables[0].rows.len(), 7);
        let faults: usize = out.tables[0]
            .rows
            .iter()
            .map(|r| r[3].parse::<usize>().unwrap())
            .sum();
        assert!(faults > 0, "chaos plan must kill some trials");
        assert!(out.notes[0].starts_with("fault plan: seed"));
        assert!(out.notes[1].contains("injected trial faults"));
        // Serving rows: clean run wastes nothing, chaos run reports faults.
        let clean = &out.tables[1].rows[0];
        let chaos = &out.tables[1].rows[1];
        assert_eq!(clean[2], "0", "clean run must not retry");
        assert_eq!(clean[6].parse::<f64>().unwrap(), 0.0);
        assert!(chaos[6].parse::<f64>().unwrap() >= 0.0);
    }
}
