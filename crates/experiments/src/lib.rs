//! # green-automl-experiments
//!
//! The reproduction harness: one runner per table and figure of
//! *"How Green is AutoML for Tabular Data?"* (EDBT 2025).
//!
//! | Runner | Paper artefact |
//! |---|---|
//! | [`table1`] | Table 1 — AutoML strategy design matrix |
//! | [`table2`] | Table 2 — the 39 AMLB datasets |
//! | [`fig3`] | Fig. 3 — execution/inference energy vs balanced accuracy (+ §3.2.1 dataset-level analysis) |
//! | [`fig4`] | Fig. 4 — total energy vs number of predictions (TabPFN crossover) |
//! | [`fig5`] | Fig. 5 — parallelism: accuracy & energy across 1/2/4/8 cores |
//! | [`fig6`] | Fig. 6 — inference-time constraints (CAML) and refit (AutoGluon) |
//! | [`fig7`] | Fig. 7 — development + execution + inference incl. CAML(tuned) |
//! | [`fig8`] | Fig. 8 — the guideline flowchart |
//! | [`table3`] | Table 3 — GPU vs CPU ratios |
//! | [`table4`] | Table 4 — trillion-prediction cost |
//! | [`table5`] | Table 5 — tuned AutoML parameters per budget |
//! | [`table6`] | Table 6 — 5 min worse than 1 min (overfitting counts) |
//! | [`table7`] | Table 7 — actual vs specified execution time |
//! | [`table8`] | Table 8 — top-k representative datasets sweep |
//! | [`table9`] | Table 9 — BO-iteration sweep |
//! | [`serving`] | `serve` — one traffic trace replayed against every system's deployment (O1 / Fig. 4 under load) |
//! | [`chaos`] | `chaos` — energy under injected faults (crash/timeout/OOM trials, replica crashes), with determinism asserted |
//! | [`cluster`] | `cluster` — the multi-host executor under host-level chaos (crash/straggler/partition): grid bytes asserted identical at every (hosts × jobs) shape, kill/resume per shard, per-host energy accounting |
//! | [`fleet`] | `fleet` — multi-tenant multi-region serving: carbon-blind vs carbon-aware routing, elastic replica pools, seeded diurnal grid curves |
//! | [`trace`] | `trace` — span-level energy flamegraph (per-stage attribution + JSONL / Chrome `trace_event` sinks), byte-identical at every `--jobs` |
//!
//! All runners consume an [`ExpConfig`] controlling scale (the paper's full
//! protocol — 39 datasets × 10 runs × 28 compute-days — is reproduced in
//! *shape* at reduced repetition counts; see EXPERIMENTS.md) and return
//! [`report::ExperimentOutput`]s that render to text and CSV.

pub mod chaos;
pub mod cli;
pub mod cluster;
pub mod figs;
pub mod fleet;
pub mod report;
pub mod serving;
pub mod suite;
pub mod tables;
pub mod trace;

pub use cli::{CliArgs, CliError};
pub use figs::{fig3, fig4, fig5, fig6, fig7, fig8};
pub use green_automl_core::executor::resolve_parallelism;
pub use report::{ExperimentOutput, Table};
pub use suite::{ExpConfig, SharedPoints};
pub use tables::{table1, table2, table3, table4, table5, table6, table7, table8, table9};

/// Every experiment id, in the paper's order of appearance.
pub fn all_experiment_ids() -> Vec<&'static str> {
    vec![
        "table1", "table2", "fig3", "fig4", "fig5", "fig6", "table3", "table4", "fig7", "table5",
        "table6", "fig8", "table7", "table8", "table9", "serve", "fleet", "chaos", "cluster",
        "trace",
    ]
}

/// Run one experiment by id (reusing `shared` grid points where possible).
pub fn run_experiment(
    id: &str,
    cfg: &ExpConfig,
    shared: &mut SharedPoints,
) -> Option<ExperimentOutput> {
    match id {
        "table1" => Some(table1::run()),
        "table2" => Some(table2::run(cfg)),
        "fig3" => Some(fig3::run(cfg, shared)),
        "fig4" => Some(fig4::run(cfg, shared)),
        "fig5" => Some(fig5::run(cfg)),
        "fig6" => Some(fig6::run(cfg)),
        "fig7" => Some(fig7::run(cfg, shared)),
        "fig8" => Some(fig8::run()),
        "table3" => Some(table3::run(cfg)),
        "table4" => Some(table4::run(cfg, shared)),
        "table5" => Some(table5::run(cfg)),
        "table6" => Some(table6::run(cfg, shared)),
        "table7" => Some(table7::run(cfg, shared)),
        "table8" => Some(table8::run(cfg)),
        "table9" => Some(table9::run(cfg)),
        "serve" => Some(serving::run(cfg)),
        "fleet" => Some(fleet::run(cfg)),
        "chaos" => Some(chaos::run(cfg)),
        "cluster" => Some(cluster::run(cfg)),
        "trace" => Some(trace::run(cfg)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        let cfg = ExpConfig::smoke();
        let mut shared = SharedPoints::default();
        assert!(run_experiment("table1", &cfg, &mut shared).is_some());
        // Fig 8's decision table enumerates the guideline's branches.
        let fig8 = run_experiment("fig8", &cfg, &mut shared).expect("fig8");
        let rows: usize = fig8.tables.iter().map(|t| t.rows.len()).sum();
        assert!(rows > 10, "fig8 rendered only {rows} rows");
        assert!(run_experiment("nope", &cfg, &mut shared).is_none());
        assert_eq!(all_experiment_ids().len(), 20);
    }
}
