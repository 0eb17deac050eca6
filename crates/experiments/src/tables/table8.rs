//! Table 8 — development-stage tuning with different numbers of top-k
//! representative datasets (§3.11): accuracy vs tuning cost.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::dev_binary_pool;

/// The paper's sweep of representative-dataset counts.
pub const TOP_K: [usize; 3] = [10, 20, 40];

/// Sweep top-k (scaled down proportionally under small configs). Tunes
/// share their baseline runs on common representatives, and the
/// configured k repeats Fig. 7's 10 s tune, through the run's memo.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let pool = dev_binary_pool();
    // Respect smoke/fast configs: scale the sweep around devtune_top_k.
    let ks: Vec<usize> = if cfg.devtune_top_k >= 20 {
        TOP_K.to_vec()
    } else {
        vec![
            (cfg.devtune_top_k / 2).max(1),
            cfg.devtune_top_k,
            (cfg.devtune_top_k * 2).min(pool.len()),
        ]
    };

    let mut rows = Vec::new();
    let mut outcomes = Vec::new();
    for &k in &ks {
        let out = DevTuner::tune_with(
            &pool,
            &DevTuneOptions {
                budget_s: 10.0, // the paper sweeps at the 10s budget
                top_k: k,
                bo_iters: cfg.devtune_iters,
                runs_per_eval: 2,
                materialize: cfg.materialize,
                seed: cfg.seed,
            },
            shared.memo(cfg),
            cfg.parallelism,
        );
        rows.push(vec![
            k.to_string(),
            fmt(out.best_accuracy * 100.0),
            fmt(out.development.kwh()),
            fmt(out.development.duration_s / 3600.0),
        ]);
        outcomes.push((k, out));
    }
    let table = Table::new(
        "Table 8: tuning with top-k representative datasets (10s budget)",
        vec![
            "top-k Datasets",
            "Balanced Accuracy (%)",
            "Energy (kWh)",
            "Time (h)",
        ],
        rows,
    );

    let mut notes = Vec::new();
    if let (Some((k0, first)), Some((k2, last))) = (outcomes.first(), outcomes.last()) {
        notes.push(format!(
            "tuning energy grows {:.1}x from k={k0} to k={k2} (paper: 0.43 -> 4.88 kWh, ~11x)",
            last.development.kwh() / first.development.kwh().max(1e-30)
        ));
    }
    ExperimentOutput {
        id: "table8",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_datasets_cost_more_energy() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        let rows = &out.tables[0].rows;
        assert_eq!(rows.len(), 3);
        let kwh: Vec<f64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(kwh[2] > kwh[0], "k sweep energies {kwh:?}");
    }
}
