//! Table 9 — development-stage tuning with different Bayesian-optimisation
//! iteration counts (§3.11): more iterations cost more energy and
//! eventually overfit the representative datasets.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{ExpConfig, SharedPoints};
use green_automl_core::devtune::{DevTuneOptions, DevTuner};
use green_automl_dataset::dev_binary_pool;

/// Sweep BO iterations around the configured default with the paper's
/// ratios (75 : 150 : 300 : 600 = 1/4 : 1/2 : 1 : 2 of the default 300).
/// Sweeps that share a trial prefix compute it once, through the run's
/// memo.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let pool = dev_binary_pool();
    let base = cfg.devtune_iters.max(4);
    let iters = [base / 4, base / 2, base, base * 2];

    let mut rows = Vec::new();
    let mut kwh_series = Vec::new();
    for &n in &iters {
        let out = DevTuner::tune_with(
            &pool,
            &DevTuneOptions {
                budget_s: 10.0,
                top_k: cfg.devtune_top_k,
                bo_iters: n.max(1),
                runs_per_eval: 2,
                materialize: cfg.materialize,
                seed: cfg.seed,
            },
            shared.memo(cfg),
            cfg.parallelism,
        );
        rows.push(vec![
            n.max(1).to_string(),
            fmt(out.best_accuracy * 100.0),
            fmt(out.development.kwh()),
            fmt(out.development.duration_s / 3600.0),
        ]);
        kwh_series.push(out.development.kwh());
    }
    let table = Table::new(
        format!(
            "Table 9: tuning with different BO iteration counts (10s budget; paper uses 75/150/300/600, ours scale 1:{})",
            (300 / base.max(1)).max(1)
        ),
        vec!["BO iterations", "Balanced Accuracy (%)", "Energy (kWh)", "Time (h)"],
        rows,
    );
    let notes = vec![format!(
        "tuning energy grows {:.1}x from the smallest to the largest iteration count (paper: 0.74 -> 3.46 kWh, ~4.7x)",
        kwh_series.last().unwrap_or(&0.0) / kwh_series.first().unwrap_or(&1.0).max(1e-30)
    )];
    ExperimentOutput {
        id: "table9",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_grows_with_iterations() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        let rows = &out.tables[0].rows;
        assert_eq!(rows.len(), 4);
        let kwh: Vec<f64> = rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(
            kwh.last().unwrap() > kwh.first().unwrap(),
            "iteration sweep energies {kwh:?}"
        );
    }
}
