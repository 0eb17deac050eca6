//! `cluster` — the multi-host executor artefact.
//!
//! Runs a reduced benchmark grid on simulated clusters of 1, 2 and 4
//! hosts at the configured `--jobs`, twice: clean, and under the seeded
//! [`FaultPlan::cluster_chaos`] profile (host crashes, stragglers,
//! partitions on top of trial faults). Each row of the shape table shows
//! the run's [`GridRun::fingerprint`](green_automl_core::benchmark::GridRun::fingerprint)
//! beside its makespan, network and wasted energy, and fault counters.
//! The fingerprint is the same on every row of a plan: the grid is
//! byte-identical at every (hosts × jobs) shape, which
//! `tests/cluster_equivalence.rs` proves over the full {1,2,4}² sweep,
//! together with jobs-invariant cluster reports and per-shard kill/resume.
//!
//! The per-host table shows where the Joules went on the headline
//! `--hosts` topology: busy/transfer/wasted/overhead/idle energy, bytes
//! shipped, and the crash/retry/speculation counters the scheduler's
//! robustness machinery produced.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::cluster::{run_grid_cluster_with, ClusterGridRun, ClusterOptions};
use green_automl_core::fault::FaultPlan;
use green_automl_dataset::DatasetMeta;
use green_automl_energy::MetricsRegistry;
use green_automl_systems::{all_systems, RunSpec};

/// The host counts the grid runs at, each at the configured `--jobs`.
const HOSTS: [usize; 3] = [1, 2, 4];

/// The cluster grid is deliberately small: the point is scheduler
/// behaviour, not Fig.-3 coverage.
fn cluster_scope(cfg: &ExpConfig) -> (Vec<DatasetMeta>, Vec<f64>) {
    let datasets: Vec<DatasetMeta> = cfg.datasets().into_iter().take(3).collect();
    let budgets: Vec<f64> = cfg.budgets.iter().copied().take(2).collect();
    (datasets, budgets)
}

/// Run the cluster artefact. Each plan's cells compute once, at the
/// first host count (the clean ones not at all once the shared grid has
/// run); the other host counts read them from the run's memo and replay
/// only the placement simulation.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let (datasets, budgets) = cluster_scope(cfg);
    let systems = all_systems();
    let opts = cfg.bench_options();
    let clean_spec = cfg.base_spec();
    let mut chaos_plan = FaultPlan::cluster_chaos(cfg.seed ^ 0xc1a5);
    if let Some(p) = cfg.host_crash_p {
        chaos_plan.host_crash_p = p;
    }
    let chaos_spec = clean_spec.with_fault(chaos_plan);

    let run_hosts = |spec: &RunSpec, hosts: usize| -> ClusterGridRun {
        run_grid_cluster_with(
            &systems,
            &datasets,
            &budgets,
            spec,
            &opts,
            &ClusterOptions::uniform(hosts),
            None,
            shared.memo(cfg),
        )
        .expect("cluster spec is valid")
    };

    let mut shape_rows = Vec::new();
    let mut chaos_runs = Vec::new();
    for (label, spec) in [("clean", &clean_spec), ("chaos", &chaos_spec)] {
        for hosts in HOSTS {
            let run = run_hosts(spec, hosts);
            let r = &run.report;
            shape_rows.push(vec![
                label.to_string(),
                hosts.to_string(),
                format!("{:016x}", run.grid.fingerprint()),
                fmt(r.makespan_s),
                fmt(r.transfer_j),
                fmt(r.wasted_j),
                r.host_crashes.to_string(),
                r.stragglers.to_string(),
                r.partitions.to_string(),
                run.grid.retried_cells.to_string(),
                run.grid.requeued_cells.to_string(),
                run.grid.speculated_cells.to_string(),
            ]);
            if label == "chaos" {
                chaos_runs.push(run);
            }
        }
    }

    let shapes_table = Table::new(
        "cluster: the same grid at 1, 2 and 4 hosts, clean and chaos",
        vec![
            "plan",
            "hosts",
            "grid_bits",
            "makespan_s",
            "transfer_j",
            "wasted_j",
            "crashes",
            "stragglers",
            "partitions",
            "retried",
            "requeued",
            "speculated",
        ],
        shape_rows,
    );

    // The headline topology for the per-host breakdown.
    let headline = chaos_runs
        .into_iter()
        .find(|r| r.report.n_hosts == cfg.hosts)
        .unwrap_or_else(|| run_hosts(&chaos_spec, cfg.hosts));
    let report = &headline.report;
    let host_rows = report
        .hosts
        .iter()
        .map(|h| {
            vec![
                h.host.to_string(),
                h.device.clone(),
                if h.crashed { "yes" } else { "no" }.to_string(),
                h.cells_run.to_string(),
                fmt(h.busy_s),
                fmt(h.busy_j),
                fmt(h.transfer_j),
                fmt(h.wasted_j),
                fmt(h.overhead_j),
                fmt(h.idle_j),
                fmt(h.bytes_in),
                fmt(h.bytes_out),
                h.retried.to_string(),
                h.speculated.to_string(),
                h.requeued.to_string(),
            ]
        })
        .collect();
    let hosts_table = Table::new(
        format!(
            "cluster: per-host accounting under chaos ({} hosts, {} cells)",
            report.n_hosts, report.scheduled_cells
        ),
        vec![
            "host",
            "device",
            "crashed",
            "cells",
            "busy_s",
            "busy_j",
            "transfer_j",
            "wasted_j",
            "overhead_j",
            "idle_j",
            "bytes_in",
            "bytes_out",
            "retried",
            "speculated",
            "requeued",
        ],
        host_rows,
    );

    let mut registry = MetricsRegistry::new();
    report.export_metrics(&mut registry);
    let files = vec![
        ("cluster.report.txt".to_string(), report.to_text()),
        ("cluster.trace.jsonl".to_string(), report.trace.to_jsonl()),
        ("cluster.metrics.txt".to_string(), registry.render_text()),
    ];

    let notes = vec![
        format!(
            "chaos plan: host crash {:.0}% / straggler {:.0}% (x{:.0} slowdown) / \
             partition {:.0}% ({:.1}s) on top of the trial-fault chaos profile",
            chaos_plan.host_crash_p * 100.0,
            chaos_plan.host_straggler_p * 100.0,
            chaos_plan.host_straggler_slowdown,
            chaos_plan.host_partition_p * 100.0,
            chaos_plan.host_partition_s
        ),
        format!(
            "headline topology ({} hosts): {} crashes, {} stragglers, {} partitions -> \
             {} retried / {} requeued / {} speculated cell(s), {} J shipped over the wire, \
             {} J wasted; every one of the {} scheduled cells still completed",
            report.n_hosts,
            report.host_crashes,
            report.stragglers,
            report.partitions,
            report.retried_cells,
            report.requeued_cells,
            report.speculated_cells,
            fmt(report.transfer_j),
            fmt(report.wasted_j),
            report.scheduled_cells
        ),
    ];

    ExperimentOutput {
        id: "cluster",
        files,
        tables: vec![shapes_table, hosts_table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_artefact_reports_every_host_count() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        assert_eq!(out.id, "cluster");
        assert_eq!(out.tables.len(), 2);
        // 2 plans x 3 host counts.
        let rows = &out.tables[0].rows;
        assert_eq!(rows.len(), 6);
        // One grid per plan: its fingerprint is the same on every host row.
        for plan in rows.chunks(3) {
            assert!(plan
                .iter()
                .all(|r| r[0] == plan[0][0] && r[2] == plan[0][2]));
        }
        // Per-host table covers the default 4-host headline topology.
        assert_eq!(out.tables[1].rows.len(), 4);
        let names: Vec<&str> = out.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "cluster.report.txt",
                "cluster.trace.jsonl",
                "cluster.metrics.txt"
            ]
        );
        assert!(out.files[1].1.lines().count() >= 4, "trace has host spans");
    }
}
