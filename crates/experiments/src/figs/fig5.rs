//! Fig. 5 — impact of parallelism: balanced accuracy and execution energy
//! of CAML and AutoGluon across 1 / 2 / 4 / 8 cores (§3.3 / Observation
//! O4: one core is Pareto-optimal for sequential BO, multiple cores for
//! embarrassingly parallel bagging).

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::ExpConfig;
use green_automl_core::benchmark::run_grid_checked;
use green_automl_systems::{AutoGluon, AutoMlSystem, Caml, RunSpec, SystemId};

/// Core counts swept (each physical CPU of the testbed has two cores).
pub const CORE_GRID: [usize; 4] = [1, 2, 4, 8];

/// Run the parallelism sweep.
pub fn run(cfg: &ExpConfig) -> ExperimentOutput {
    let datasets = cfg.datasets();
    // A subset keeps the sweep affordable; shapes are per-system anyway.
    let datasets = &datasets[..datasets.len().min(8)];
    let opts = cfg.bench_options();

    let mut rows = Vec::new();
    let mut per_sys_core: Vec<(String, usize, f64, f64, f64)> = Vec::new();
    let mut failed = 0;
    for cores in CORE_GRID {
        let spec = RunSpec {
            cores,
            ..cfg.base_spec()
        };
        let systems: Vec<Box<dyn AutoMlSystem>> =
            vec![Box::new(Caml::default()), Box::new(AutoGluon::default())];
        let grid = run_grid_checked(&systems, datasets, &cfg.budgets, &spec, &opts, None)
            .expect("ExpConfig produces a valid RunSpec");
        failed += grid.failures.len();
        let points = grid.points;
        for sys in [SystemId::Caml, SystemId::AutoGluon] {
            for &b in &cfg.budgets {
                let cell: Vec<_> = points
                    .iter()
                    .filter(|p| p.system == sys && p.budget_s == b)
                    .collect();
                if cell.is_empty() {
                    continue;
                }
                let n = cell.len() as f64;
                let acc = cell.iter().map(|p| p.balanced_accuracy).sum::<f64>() / n;
                let kwh = cell.iter().map(|p| p.execution.kwh()).sum::<f64>() / n;
                let secs = cell.iter().map(|p| p.execution.duration_s).sum::<f64>() / n;
                rows.push(vec![
                    sys.to_string(),
                    cores.to_string(),
                    fmt(b),
                    fmt(acc),
                    fmt(kwh),
                    fmt(secs),
                ]);
                per_sys_core.push((sys.to_string(), cores, b, acc, kwh));
            }
        }
    }
    let table = Table::new(
        "Fig 5: accuracy and execution energy across CPU cores",
        vec![
            "system",
            "cores",
            "budget_s",
            "balanced_accuracy",
            "execution_kwh",
            "execution_s",
        ],
        rows,
    );

    // Findings at the largest budget.
    let bmax = cfg.budgets.last().copied().unwrap_or(0.0);
    let kwh_of = |sys: &str, cores: usize| {
        per_sys_core
            .iter()
            .find(|(s, c, b, _, _)| s == sys && *c == cores && *b == bmax)
            .map(|(_, _, _, _, k)| *k)
    };
    let mut notes = Vec::new();
    if let (Some(c1), Some(c8)) = (kwh_of("CAML", 1), kwh_of("CAML", 8)) {
        notes.push(format!(
            "CAML on 8 cores uses {:.2}x the energy of 1 core (paper: up to 2.7x) — 1 core is Pareto-optimal",
            c8 / c1.max(1e-30)
        ));
    }
    if let (Some(a1), Some(a8)) = (kwh_of("AutoGluon", 1), kwh_of("AutoGluon", 8)) {
        notes.push(format!(
            "AutoGluon on 8 cores uses {:.2}x the energy of 1 core — parallel bagging makes more cores {} energy-efficient",
            a8 / a1.max(1e-30),
            if a8 < a1 { "MORE" } else { "not" }
        ));
    }
    if failed > 0 {
        notes.push(format!(
            "{failed} grid cell(s) failed; their rows average the remaining cells"
        ));
    }
    ExperimentOutput {
        id: "fig5",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caml_wastes_energy_on_extra_cores_autogluon_does_not() {
        let cfg = ExpConfig::smoke();
        let out = run(&cfg);
        // Extract per-system 1-core vs 8-core energies from the table.
        let kwh = |sys: &str, cores: &str| -> f64 {
            out.tables[0]
                .rows
                .iter()
                .filter(|r| r[0] == sys && r[1] == cores)
                .map(|r| r[4].parse::<f64>().unwrap())
                .sum()
        };
        let caml_ratio = kwh("CAML", "8") / kwh("CAML", "1");
        // Tiny smoke datasets are partially work-bound, which compresses
        // the ratio below the paper's budget-bound 2.7x; the full profile
        // reproduces the larger gap.
        assert!(
            caml_ratio > 1.15,
            "CAML 8-core/1-core energy ratio {caml_ratio:.2} should exceed 1.15"
        );
        let ag_ratio = kwh("AutoGluon", "8") / kwh("AutoGluon", "1");
        assert!(
            ag_ratio < caml_ratio,
            "AutoGluon should benefit more from cores than CAML ({ag_ratio:.2} vs {caml_ratio:.2})"
        );
    }

    use green_automl_core::benchmark::run_once;

    #[test]
    fn run_once_is_exercised_for_doc_parity() {
        // Keep the imported helper honest (used by other figures too).
        let cfg = ExpConfig::smoke();
        let meta = cfg.datasets()[0];
        let p = run_once(
            &Caml::default(),
            &meta,
            &cfg.base_spec(),
            &cfg.bench_options(),
        );
        assert_eq!(p.system, SystemId::Caml);
    }
}
