//! Fig. 6 — configuring AutoML systems for inference (§3.4 / Observation
//! O3): CAML with inference-time constraints of 0.001–0.003 s/instance,
//! and AutoGluon's `good_quality_faster_inference_only_refit` preset.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{note_eval_cache, ExpConfig, SharedPoints};
use green_automl_core::benchmark::{run_grid_with, run_sweep_with, GridRun};
use green_automl_systems::{AutoGluon, AutoGluonQuality, AutoMlSystem, Caml, Constraints, RunSpec};

/// The constraint sweep, seconds per instance. The paper used 1–3 ms on
/// its Python testbed; our simulated pipelines predict in the 10–300 µs
/// range, so the grid is scaled to the same *relative* position within the
/// achievable latency band (the shape — tighter limit, less energy, less
/// accuracy — is what reproduces).
pub const CONSTRAINTS: [f64; 3] = [2.0e-5, 4.0e-5, 8.0e-5];

/// Run the inference-configuration sweep. Its unconstrained CAML and
/// best-quality AutoGluon cells are shared-grid cells, served from the
/// run's memo once the grid has computed them. The four CAML variants
/// share one eval cache: their fits do not depend on the limit, which is
/// checked live after each one.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let datasets = cfg.datasets();
    let datasets = &datasets[..datasets.len().min(8)];
    let opts = cfg.bench_options();

    let mut rows = Vec::new();
    let mut summaries: Vec<(String, f64, f64)> = Vec::new(); // (variant, acc, inf kwh)
    let mut failed = 0;

    let mut record = |label: String, grid: GridRun| {
        note_eval_cache(&format!("fig6: {label}"), &grid);
        failed += grid.failures.len();
        let points = grid.points;
        let n = points.len() as f64;
        let acc = points.iter().map(|p| p.balanced_accuracy).sum::<f64>() / n;
        let inf = points.iter().map(|p| p.inference_kwh_per_row).sum::<f64>() / n;
        let inf_s = points.iter().map(|p| p.inference_s_per_row).sum::<f64>() / n;
        rows.push(vec![label.clone(), fmt(acc), fmt(inf), fmt(inf_s)]);
        summaries.push((label, acc, inf));
    };

    let limits = std::iter::once(None).chain(CONSTRAINTS.map(Some));
    let caml_specs: Vec<RunSpec> = limits
        .clone()
        .map(|limit| RunSpec {
            constraints: Constraints {
                max_inference_s_per_row: limit,
            },
            ..cfg.base_spec()
        })
        .collect();
    let caml_grids = run_sweep_with(
        &[Box::<Caml>::default() as Box<dyn AutoMlSystem>],
        datasets,
        &cfg.budgets,
        &caml_specs,
        &opts,
        shared.memo(cfg),
    )
    .expect("ExpConfig produces a valid RunSpec");
    for (limit, grid) in limits.zip(caml_grids) {
        let label = match limit {
            None => "CAML (unconstrained)".to_string(),
            Some(limit) => format!("CAML (<= {limit}s/inst)"),
        };
        record(label, grid);
    }
    for (label, quality) in [
        ("AutoGluon (best quality)", AutoGluonQuality::Best),
        (
            "AutoGluon (faster inference, refit)",
            AutoGluonQuality::FasterInferenceRefit,
        ),
    ] {
        let grid = run_grid_with(
            &[Box::new(AutoGluon { quality }) as Box<dyn AutoMlSystem>],
            datasets,
            &cfg.budgets,
            &cfg.base_spec(),
            &opts,
            None,
            shared.memo(cfg),
        )
        .expect("ExpConfig produces a valid RunSpec");
        record(label.to_string(), grid);
    }

    let table = Table::new(
        "Fig 6: inference-optimised configurations",
        vec![
            "variant",
            "balanced_accuracy",
            "inference_kwh_per_prediction",
            "inference_s_per_prediction",
        ],
        rows,
    );

    let mut notes = Vec::new();
    let get = |label: &str| summaries.iter().find(|(l, _, _)| l.starts_with(label));
    if let (Some((_, acc_f, inf_f)), Some((_, acc_c, inf_c))) =
        (get("CAML (unconstrained)"), get("CAML (<= 0.00002"))
    {
        notes.push(format!(
            "tightest CAML constraint saves {:.0}% inference energy at {:.1}% accuracy cost (paper: up to 69% / 6%)",
            (1.0 - inf_c / inf_f.max(1e-30)) * 100.0,
            (acc_f - acc_c) * 100.0
        ));
    }
    if let (Some((_, acc_b, inf_b)), Some((_, acc_r, inf_r))) =
        (get("AutoGluon (best"), get("AutoGluon (faster"))
    {
        notes.push(format!(
            "AutoGluon refit saves {:.0}% inference energy at {:.1}% accuracy cost (paper: up to 79% / 5%)",
            (1.0 - inf_r / inf_b.max(1e-30)) * 100.0,
            (acc_b - acc_r) * 100.0
        ));
    }
    if failed > 0 {
        notes.push(format!(
            "{failed} grid cell(s) failed; their variants average the remaining cells"
        ));
    }

    ExperimentOutput {
        id: "fig6",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_reduce_inference_energy() {
        let cfg = ExpConfig::smoke();
        let out = run(&cfg, &SharedPoints::default());
        let inf = |label: &str| -> f64 {
            out.tables[0]
                .rows
                .iter()
                .find(|r| r[0].starts_with(label))
                .map(|r| r[2].parse::<f64>().unwrap())
                .unwrap()
        };
        assert!(
            inf("CAML (<= 0.00002") <= inf("CAML (unconstrained)") * 1.001,
            "constraint must not raise inference energy"
        );
        assert!(
            inf("AutoGluon (faster") < inf("AutoGluon (best"),
            "refit must cut inference energy"
        );
        assert_eq!(out.tables[0].rows.len(), 6);
    }
}
