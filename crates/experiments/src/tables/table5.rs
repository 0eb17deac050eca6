//! Table 5 — the tuned AutoML-system parameters per search budget (§3.7):
//! the pruned hyperparameter search space and the six system-parameter
//! settings the development-stage tuner chose.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::dev_binary_pool;

/// The budgets the paper prints tuned parameters for.
pub const BUDGETS: [f64; 3] = [30.0, 60.0, 300.0];

/// Tune per budget and dump the chosen parameters. Each tune repeats one
/// of Fig. 7's with identical options, so once Fig. 7 has run, the run's
/// memo serves every CAML run.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let pool = dev_binary_pool();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let budgets: Vec<f64> = BUDGETS
        .iter()
        .copied()
        .filter(|b| cfg.budgets.contains(b))
        .collect();
    let budgets = if budgets.is_empty() {
        cfg.budgets.clone()
    } else {
        budgets
    };

    let mut family_counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for &budget in &budgets {
        let outcome = DevTuner::tune_with(
            &pool,
            &DevTuneOptions {
                budget_s: budget,
                top_k: cfg.devtune_top_k,
                bo_iters: cfg.devtune_iters,
                runs_per_eval: 2,
                materialize: cfg.materialize,
                seed: cfg.seed,
            },
            shared.memo(cfg),
            cfg.parallelism,
        );
        let p = &outcome.params;
        for f in &p.families {
            *family_counts.entry(f.name()).or_insert(0) += 1;
        }
        rows.push(vec![
            fmt(budget),
            p.families
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join("+"),
            format!(
                "depth<={} trees<={} rounds<={} epochs<={}",
                p.bounds.depth.1, p.bounds.n_trees.1, p.bounds.gb_rounds.1, p.bounds.epochs.1
            ),
            fmt(p.holdout_frac),
            fmt(p.eval_fraction),
            fmt(p.sampling_frac),
            p.refit.to_string(),
            p.resample_validation.to_string(),
            p.incremental_training.to_string(),
        ]);
    }
    // Families chosen for multiple budgets (the paper's blue highlighting).
    let recurrent: Vec<String> = family_counts
        .iter()
        .filter(|&(_, c)| *c >= 2)
        .map(|(f, c)| format!("{f} (chosen {c}x)"))
        .collect();
    if !recurrent.is_empty() {
        notes.push(format!(
            "recurrently chosen families: {}",
            recurrent.join(", ")
        ));
    }

    let table = Table::new(
        "Table 5: tuned CAML AutoML-system parameters per search budget",
        vec![
            "budget_s",
            "families",
            "hyperparameter space",
            "holdout_frac",
            "eval_fraction",
            "sampling_frac",
            "refit",
            "resample_validation",
            "incremental_training",
        ],
        rows,
    );
    ExperimentOutput {
        id: "table5",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumps_one_row_per_budget_with_system_params() {
        let cfg = ExpConfig::smoke();
        let out = run(&cfg, &SharedPoints::default());
        assert_eq!(out.tables[0].rows.len(), cfg.budgets.len());
        let row = &out.tables[0].rows[0];
        assert!(!row[1].is_empty(), "families column populated");
        assert!(row[6] == "true" || row[6] == "false");
    }
}
