//! Fig. 7 — the holistic three-stage picture (§3.7): development-stage
//! tuning of CAML's AutoML parameters per search budget, the resulting
//! CAML(tuned) execution/inference profile against every other system, and
//! the amortisation point of the development energy.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::amortize::runs_to_amortize;
use green_automl_core::benchmark::{average_points, run_grid_with};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::dev_binary_pool;
use green_automl_systems::{AutoMlSystem, Caml, SystemId};

/// Run the development-stage experiment.
pub fn run(cfg: &ExpConfig, shared: &mut SharedPoints) -> ExperimentOutput {
    let pool = dev_binary_pool();
    let datasets = cfg.datasets();
    let opts = cfg.bench_options();

    let mut tuned_rows = Vec::new();
    let mut notes = Vec::new();
    let mut failed = 0;

    // Baseline grid (all systems) from the shared Fig.-3 points.
    let base_avg = average_points(shared.grid(cfg), cfg.bootstrap, cfg.seed);

    for &budget in &cfg.budgets {
        // 1. Tune CAML's AutoML parameters for this budget on the top-k
        //    representative binary datasets (the development stage).
        let tune_opts = DevTuneOptions {
            budget_s: budget,
            top_k: cfg.devtune_top_k,
            bo_iters: cfg.devtune_iters,
            runs_per_eval: 2,
            materialize: cfg.materialize,
            seed: cfg.seed,
        };
        let outcome = DevTuner::tune_with(&pool, &tune_opts, shared.memo(cfg), cfg.parallelism);
        let dev_kwh = outcome.development.kwh();

        // 2. Execute CAML(tuned) on the benchmark datasets at this budget.
        let tuned: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(Caml::tuned(outcome.params.clone()))];
        let grid = run_grid_with(
            &tuned,
            &datasets,
            &[budget],
            &cfg.base_spec(),
            &opts,
            None,
            shared.memo(cfg),
        )
        .expect("ExpConfig produces a valid RunSpec");
        failed += grid.failures.len();
        let avg = average_points(&grid.points, cfg.bootstrap, cfg.seed);
        let Some(t) = avg.first() else { continue };

        tuned_rows.push(vec![
            fmt(budget),
            fmt(t.balanced_accuracy),
            fmt(t.execution_kwh),
            fmt(t.inference_kwh_per_row),
            fmt(dev_kwh),
            outcome.n_pruned.to_string(),
            outcome
                .params
                .families
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join("+"),
        ]);

        // 3. Amortisation: runs of tuned CAML needed to repay the tuning
        //    energy, given the per-run saving vs default CAML.
        if let Some(d) = base_avg
            .iter()
            .find(|a| a.system == SystemId::Caml && a.budget_s == budget)
        {
            if let Some(runs) = runs_to_amortize(dev_kwh, d.execution_kwh, t.execution_kwh) {
                notes.push(format!(
                    "budget {budget:.0}s: development cost {dev_kwh:.3} kWh amortises after {runs:.0} tuned runs (paper: 885 runs at 5min)"
                ));
            } else {
                notes.push(format!(
                    "budget {budget:.0}s: tuned CAML did not save execution energy vs default in this sample"
                ));
            }
            if t.balanced_accuracy > d.balanced_accuracy {
                notes.push(format!(
                    "budget {budget:.0}s: CAML(tuned) beats default CAML by {:.1}% balanced accuracy",
                    (t.balanced_accuracy - d.balanced_accuracy) * 100.0
                ));
            }
        }
    }

    if failed > 0 {
        notes.push(format!(
            "{failed} CAML(tuned) grid cell(s) failed; their budgets average the remaining cells"
        ));
    }

    let tuned_table = Table::new(
        "Fig 7: CAML(tuned) per budget — accuracy, execution/inference energy, development cost",
        vec![
            "budget_s",
            "balanced_accuracy",
            "execution_kwh",
            "inference_kwh_per_prediction",
            "development_kwh",
            "pruned_trials",
            "tuned_families",
        ],
        tuned_rows,
    );

    // Context: the other systems at the same budgets (from the shared grid).
    let context_rows = base_avg
        .iter()
        .map(|a| {
            vec![
                a.system.to_string(),
                fmt(a.budget_s),
                fmt(a.balanced_accuracy),
                fmt(a.execution_kwh),
                fmt(a.inference_kwh_per_row),
            ]
        })
        .collect();
    let context = Table::new(
        "Fig 7: baseline systems (development cost = 0 by the paper's accounting)",
        vec![
            "system",
            "budget_s",
            "balanced_accuracy",
            "execution_kwh",
            "inference_kwh_per_prediction",
        ],
        context_rows,
    );

    ExperimentOutput {
        id: "fig7",
        files: Vec::new(),
        tables: vec![tuned_table, context],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_produces_rows_and_development_energy() {
        let cfg = ExpConfig::smoke();
        let mut shared = SharedPoints::default();
        let out = run(&cfg, &mut shared);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows.len(), cfg.budgets.len());
        // Development energy column must be positive.
        let dev: f64 = out.tables[0].rows[0][4].parse().unwrap();
        assert!(dev > 0.0);
    }
}
