//! The run-wide point memo and its unit layer move no byte: at the smoke
//! profile, every artefact whose benchmark points or evaluation units the
//! memo shares renders the same text, CSV and extra files whether the ids
//! run in one `repro` pass through one `SharedPoints` (plain or audited),
//! or each alone in a fresh `SharedPoints` with the eval cache, and so the
//! memo, off.

use green_automl::experiments::{run_experiment, ExpConfig, ExperimentOutput, SharedPoints};
use std::sync::OnceLock;

/// The ids whose grids, sweeps, cluster runs or tunes share points or
/// units, in paper order. `fig3` comes first: its shared grid writes the
/// unit layer every later id reads.
const IDS: [&str; 11] = [
    "fig3", "fig5", "fig6", "table3", "fig7", "table5", "table8", "table9", "chaos", "cluster",
    "trace",
];

/// Everything an artefact writes: its text, one CSV per table, and its
/// extra files.
type Rendered = (String, Vec<String>, Vec<(String, String)>);

fn rendered(out: ExperimentOutput) -> Rendered {
    let csv = out.tables.iter().map(|t| t.render_csv()).collect();
    (out.render_text(), csv, out.files)
}

/// Each id run alone, with the eval cache and the memo off, computed once
/// per test process.
fn uncached() -> &'static [Rendered] {
    static ALONE: OnceLock<Vec<Rendered>> = OnceLock::new();
    ALONE.get_or_init(|| {
        let cfg = ExpConfig {
            eval_cache: false,
            ..ExpConfig::smoke()
        };
        IDS.iter()
            .map(|id| {
                let mut alone = SharedPoints::default();
                let out = rendered(run_experiment(id, &cfg, &mut alone).expect("known id"));
                assert!(alone.memo(&cfg).is_none());
                out
            })
            .collect()
    })
}

/// Run every id through `shared` in order and compare each with its
/// uncached render; returns the hits the run's unit layer served to each.
fn run_and_compare(mut shared: SharedPoints) -> Vec<u64> {
    let cfg = ExpConfig::smoke();
    let layer_hits = |shared: &SharedPoints| shared.memo(&cfg).expect("cache on").layer_hits();
    let mut served = Vec::new();
    for (id, alone) in IDS.iter().zip(uncached()) {
        let before = layer_hits(&shared);
        let (text, csv, files) = rendered(run_experiment(id, &cfg, &mut shared).expect("known id"));
        served.push(layer_hits(&shared) - before);
        assert_eq!(&text, &alone.0, "{id}: text");
        assert_eq!(&csv, &alone.1, "{id}: CSV");
        assert_eq!(&files, &alone.2, "{id}: files");
    }
    let memo = shared.memo(&cfg).expect("the eval cache is on");
    assert!(!memo.is_empty(), "the run memoised its points");
    served
}

/// The layer hits `id` was served in a run whose per-id counts are
/// `served`.
fn served_to(served: &[u64], id: &str) -> u64 {
    served[IDS.iter().position(|i| *i == id).expect("an id of IDS")]
}

#[test]
fn one_memo_per_run_renders_the_bytes_of_isolated_uncached_runs() {
    let served = run_and_compare(SharedPoints::default());
    assert_eq!(
        served_to(&served, "fig3"),
        0,
        "the shared grid writes the layer"
    );
    for id in ["fig5", "fig6", "table3", "chaos", "cluster", "trace"] {
        assert!(
            served_to(&served, id) > 0,
            "{id}: the run's unit layer served no hit"
        );
    }
}

#[test]
fn an_audited_layer_recomputes_every_cross_context_layer_hit_bit_for_bit() {
    // An audit that finds other value or charge bits panics its cell,
    // which the artefact reports as a failed cell, so its render differs.
    let served = run_and_compare(SharedPoints::audited());
    // fig5's 1-core cells are shared-grid points, so every unit its 2-,
    // 4- and 8-core grids take from the layer is a 1-core CPU unit hit in
    // another context; so is every one table3's T4 and CPU-only grids
    // take. The audit recomputed each of them.
    for id in ["fig5", "table3"] {
        assert!(
            served_to(&served, id) > 0,
            "{id}: no cross-context layer hit was audited"
        );
    }
}
