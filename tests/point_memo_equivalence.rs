//! The run-wide point memo moves no byte: at the smoke profile, every
//! artefact whose benchmark points the memo shares renders the same text,
//! CSV and extra files whether the ids run in one `repro` pass through one
//! `SharedPoints`, or each alone in a fresh `SharedPoints` with the eval
//! cache, and so the memo, off.

use green_automl::experiments::{run_experiment, ExpConfig, ExperimentOutput, SharedPoints};

/// The ids whose grids, cluster sweeps or tunes share points, in paper
/// order.
const IDS: [&str; 10] = [
    "fig3", "fig5", "fig6", "fig7", "table5", "table8", "table9", "chaos", "cluster", "trace",
];

/// Everything an artefact writes: its text, one CSV per table, and its
/// extra files.
fn rendered(out: ExperimentOutput) -> (String, Vec<String>, Vec<(String, String)>) {
    let csv = out.tables.iter().map(|t| t.render_csv()).collect();
    (out.render_text(), csv, out.files)
}

#[test]
fn one_memo_per_run_renders_the_bytes_of_isolated_uncached_runs() {
    let cfg = ExpConfig::smoke();
    let mut shared = SharedPoints::default();
    let memoised: Vec<_> = IDS
        .iter()
        .map(|id| rendered(run_experiment(id, &cfg, &mut shared).expect("known id")))
        .collect();
    let memo = shared.memo(&cfg).expect("the eval cache is on");
    assert!(!memo.is_empty(), "the run memoised its points");

    let uncached = ExpConfig {
        eval_cache: false,
        ..cfg
    };
    for (id, (text, csv, files)) in IDS.iter().zip(memoised) {
        let mut alone = SharedPoints::default();
        let (alone_text, alone_csv, alone_files) =
            rendered(run_experiment(id, &uncached, &mut alone).expect("known id"));
        assert!(alone.memo(&uncached).is_none());
        assert_eq!(alone_text, text, "{id}: text");
        assert_eq!(alone_csv, csv, "{id}: CSV");
        assert_eq!(alone_files, files, "{id}: files");
    }
}
