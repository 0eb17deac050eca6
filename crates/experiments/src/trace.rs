//! `trace` — the span-level energy flamegraph artefact.
//!
//! Runs AutoGluon, FLAML, and TabPFN (plus a CAML(tuned) run whose
//! development stage is actually paid for) with tracing on, and renders
//! where the Joules go: a per-stage development / execution / inference
//! attribution table, a per-span-kind flamegraph table, and the raw trace
//! in two sink formats — JSONL (one span per line) and Chrome
//! `trace_event` JSON (load `trace.chrome.json` in `chrome://tracing` or
//! Perfetto to see the flamegraph).
//!
//! `tests/trace_determinism.rs` proves the serialized trace byte-identical
//! at every worker count, and every execution root span bitwise equal to the
//! run-level [`Measurement`](green_automl_energy::Measurement) the tables
//! are built from.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::benchmark::{run_grid_with, run_once_with, BenchmarkPoint};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::dev_binary_pool;
use green_automl_energy::{MetricsRegistry, Trace};
use green_automl_systems::{AutoGluon, AutoMlSystem, Caml, Flaml, SystemId, TabPfn};
use std::collections::BTreeMap;

/// The systems traced by this artefact (all budget-feasible at 10 s).
const TARGETS: [SystemId; 3] = [SystemId::AutoGluon, SystemId::Flaml, SystemId::TabPfn];

/// One traced run per target system, in [`TARGETS`] order.
fn pick(points: &[BenchmarkPoint]) -> Vec<(SystemId, Trace)> {
    TARGETS
        .iter()
        .filter_map(|&id| {
            points
                .iter()
                .find(|p| p.system == id)
                .and_then(|p| p.trace.clone().map(|t| (id, t)))
        })
        .collect()
}

/// Merge per-system traces into one, two tracks per system (execution on
/// the even track, inference on the odd one) so the Chrome view shows
/// every system side by side.
fn merge_tracks<'a>(traces: impl IntoIterator<Item = &'a (SystemId, Trace)>) -> Trace {
    Trace::merge(traces.into_iter().enumerate().map(|(i, (_, t))| {
        let mut t = t.clone();
        for s in &mut t.spans {
            s.track += (i as u32) * 2;
        }
        t
    }))
}

/// Run the trace artefact. Its traced runs always compute (a traced
/// point carries its spans, so the memo bypasses it); the CAML tune
/// repeats Fig. 7's and reads the run's memo.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let budget = cfg.budgets[0];
    let spec = cfg.base_spec().with_trace();
    let opts = cfg.bench_options();
    let meta = cfg.datasets()[0];

    let systems: Vec<Box<dyn AutoMlSystem>> = vec![
        Box::new(AutoGluon::default()),
        Box::new(Flaml::default()),
        Box::new(TabPfn::default()),
    ];

    let memo = shared.memo(cfg);
    let grid = run_grid_with(&systems, &[meta], &[budget], &spec, &opts, None, memo)
        .expect("ExpConfig produces a valid RunSpec");
    let points = grid.points;
    let picked = pick(&points);

    // CAML(tuned): the one deployment whose development stage costs real
    // energy — the off-the-shelf systems ship with development = 0 by the
    // paper's accounting (§3.7).
    let tune_opts = DevTuneOptions {
        budget_s: budget,
        top_k: cfg.devtune_top_k,
        bo_iters: cfg.devtune_iters,
        runs_per_eval: 2,
        materialize: cfg.materialize,
        seed: cfg.seed,
    };
    let outcome = DevTuner::tune_with(&dev_binary_pool(), &tune_opts, memo, cfg.parallelism);
    let dev_kwh = outcome.development.kwh();
    let tuned = run_once_with(
        &Caml::tuned(outcome.params.clone()),
        &meta,
        &spec,
        &opts,
        memo,
    );
    let tuned_trace = tuned.trace.clone().expect("traced spec yields a trace");

    // Per-stage attribution: development / execution / inference.
    let mut stage_rows = Vec::new();
    for &id in &TARGETS {
        let pts: Vec<&BenchmarkPoint> = points.iter().filter(|p| p.system == id).collect();
        let n = pts.len().max(1) as f64;
        stage_rows.push(vec![
            id.to_string(),
            fmt(0.0),
            fmt(pts.iter().map(|p| p.execution.kwh()).sum::<f64>() / n),
            fmt(pts.iter().map(|p| p.inference_kwh_per_row).sum::<f64>() / n),
        ]);
    }
    stage_rows.push(vec![
        "CAML(tuned)".to_string(),
        fmt(dev_kwh),
        fmt(tuned.execution.kwh()),
        fmt(tuned.inference_kwh_per_row),
    ]);
    let stages = Table::new(
        format!(
            "trace: per-stage energy attribution on {} at {budget:.0}s",
            meta.name
        ),
        vec![
            "system",
            "development_kwh",
            "execution_kwh",
            "inference_kwh_per_prediction",
        ],
        stage_rows,
    );

    // Span flamegraph, folded by kind. Spans nest (System > Stage >
    // Dataset > Trial > Fold), so each kind row is that level's inclusive
    // energy; the share is against the run's root total.
    let mut flame_rows = Vec::new();
    let mut all = picked.clone();
    all.push((SystemId::Custom("CAML(tuned)"), tuned_trace));
    for (id, t) in &all {
        let total = t.root_energy().total_joules().max(1e-30);
        let mut by_kind: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &t.spans {
            let e = by_kind.entry(s.kind.as_str()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.energy.total_joules();
        }
        for (kind, (count, joules)) in by_kind {
            flame_rows.push(vec![
                id.to_string(),
                kind.to_string(),
                count.to_string(),
                fmt(joules),
                fmt(joules / total * 100.0),
            ]);
        }
    }
    let flame = Table::new(
        "trace: span energy by kind (inclusive — spans nest)",
        vec!["system", "kind", "spans", "energy_j", "share_pct"],
        flame_rows,
    );

    // Sinks: one merged trace across all four runs, plus the folded
    // metrics view.
    let merged = merge_tracks(&all);
    let mut registry = MetricsRegistry::new();
    registry.record_trace(&merged);
    let files = vec![
        ("trace.jsonl".to_string(), merged.to_jsonl()),
        ("trace.chrome.json".to_string(), merged.to_chrome_trace()),
        ("trace.metrics.txt".to_string(), registry.render_text()),
    ];

    let mut notes = vec![
        format!(
            "{} spans across {} runs ({:.3} J total); load trace.chrome.json in \
             chrome://tracing or Perfetto for the flamegraph",
            registry.counter("spans_total"),
            all.len(),
            merged.root_energy().total_joules()
        ),
        format!(
            "development stage: CAML(tuned) paid {dev_kwh:.3e} kWh of tuning energy; \
             off-the-shelf systems carry development = 0 by the paper's accounting"
        ),
    ];
    if !grid.failures.is_empty() {
        notes.push(format!(
            "{} grid cell(s) failed; a failed system's stage row reads 0 and its trace is missing",
            grid.failures.len()
        ));
    }

    ExperimentOutput {
        id: "trace",
        files,
        tables: vec![stages, flame],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_artefact_emits_sinks_and_attribution() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        assert_eq!(out.id, "trace");
        assert_eq!(out.tables.len(), 2);
        // Three off-the-shelf systems plus CAML(tuned).
        assert_eq!(out.tables[0].rows.len(), 4);
        // Only CAML(tuned) pays a development cost.
        assert_eq!(out.tables[0].rows[0][1], "0");
        assert!(out.tables[0].rows[3][1].parse::<f64>().unwrap() > 0.0);
        let names: Vec<&str> = out.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["trace.jsonl", "trace.chrome.json", "trace.metrics.txt"]
        );
        let jsonl = &out.files[0].1;
        assert!(jsonl.lines().count() > 8, "merged trace has spans");
        assert!(out.notes[0].contains("spans across 4 runs"));
    }
}
