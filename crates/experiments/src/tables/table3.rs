//! Table 3 — GPU vs CPU (§3.5): AutoGluon and TabPFN on the T4 node, each
//! metric reported as the ratio `GPU result / CPU-only result`.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::suite::{note_eval_cache, ExpConfig, SharedPoints};
use green_automl_core::benchmark::run_sweep_with;
use green_automl_energy::Device;
use green_automl_systems::{AutoGluon, AutoMlSystem, RunSpec, TabPfn};

/// Run both systems on both device variants and report the ratios. Each
/// system's two grids share one eval cache, so the CPU-only twin replays
/// the GPU node's fits, priced on its own device; that cache sits on the
/// run's unit layer, so both grids also replay the fits the shared grid
/// computed on one CPU core.
pub fn run(cfg: &ExpConfig, shared: &SharedPoints) -> ExperimentOutput {
    let datasets = cfg.datasets();
    // TabPFN needs <= 10 classes; keep it honest by filtering.
    let datasets: Vec<_> = datasets
        .into_iter()
        .filter(|m| m.classes <= 10)
        .take(8)
        .collect();
    let budget = 300.0; // the paper compares at the 5-minute budget
    let opts = cfg.bench_options();

    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut failed = 0;
    let systems: Vec<Box<dyn AutoMlSystem>> =
        vec![Box::new(AutoGluon::default()), Box::new(TabPfn::default())];
    let specs = [Device::gpu_node(), Device::gpu_node_cpu_only()].map(|device| RunSpec {
        cores: device.cpu.cores,
        device,
        ..cfg.base_spec()
    });
    for system in &systems {
        let mut agg = [[0.0f64; 2]; 4]; // [exec kwh, exec s, inf kwh, inf s] x [gpu, cpu]
        let grids = run_sweep_with(
            std::slice::from_ref(system),
            &datasets,
            &[budget],
            &specs,
            &opts,
            shared.memo(cfg),
        )
        .expect("ExpConfig produces a valid RunSpec");
        for (di, (grid, spec)) in grids.iter().zip(&specs).enumerate() {
            let label = format!("table3: {} on {}", system.name(), spec.device.name);
            note_eval_cache(&label, grid);
            failed += grid.failures.len();
            for p in &grid.points {
                agg[0][di] += p.execution.kwh();
                agg[1][di] += p.execution.duration_s;
                agg[2][di] += p.inference_kwh_per_row;
                agg[3][di] += p.inference_s_per_row;
            }
        }
        let ratio = |i: usize| agg[i][0] / agg[i][1].max(1e-30);
        rows.push(vec![
            system.name().to_string(),
            fmt(ratio(0)),
            fmt(ratio(1)),
            fmt(ratio(2)),
            fmt(ratio(3)),
        ]);
        notes.push(format!(
            "{}: GPU/CPU inference energy ratio {:.2} (paper: {})",
            system.name(),
            ratio(2),
            if system.name() == "TabPFN" {
                "0.13"
            } else {
                "2.39"
            }
        ));
    }
    if failed > 0 {
        notes.push(format!(
            "{failed} grid cell(s) failed; their ratios sum the remaining cells"
        ));
    }

    let table = Table::new(
        "Table 3: GPU/CPU-only ratios at the 5-minute budget",
        vec![
            "System",
            "Execution Energy (GPU/CPU)",
            "Execution Time (GPU/CPU)",
            "Inference Energy (GPU/CPU)",
            "Inference Time (GPU/CPU)",
        ],
        rows,
    );
    ExperimentOutput {
        id: "table3",
        files: Vec::new(),
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_helps_tabpfn_inference_and_hurts_autogluon_energy() {
        let out = run(&ExpConfig::smoke(), &SharedPoints::default());
        let get = |sys: &str, col: usize| -> f64 {
            out.tables[0]
                .rows
                .iter()
                .find(|r| r[0] == sys)
                .map(|r| r[col].parse().unwrap())
                .unwrap()
        };
        // TabPFN: transformer inference offloads => big energy/time wins.
        assert!(
            get("TabPFN", 3) < 0.8,
            "TabPFN GPU inference energy ratio should be < 0.8"
        );
        assert!(
            get("TabPFN", 4) < 0.5,
            "TabPFN GPU inference time ratio should be < 0.5"
        );
        // AutoGluon: tree models cannot use the GPU, which idles => worse
        // energy on both stages.
        assert!(
            get("AutoGluon", 1) > 1.0,
            "AutoGluon GPU execution energy should cost more"
        );
        assert!(
            get("AutoGluon", 3) > 1.0,
            "AutoGluon GPU inference energy should cost more"
        );
    }
}
