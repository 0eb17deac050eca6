//! `fleet` — many models, many tenants, simulated grid regions.
//!
//! Three systems train on the serving dataset and deploy as fleet
//! *tenants* (FLAML and CAML as light single-model deployments, AutoGluon
//! as the heavy ensemble). A shaped multi-tenant traffic mix — a diurnal
//! cycle, a sustained burst, and a flash crowd — is replayed against three
//! simulated grid regions (Germany, Poland, Sweden) whose carbon intensity
//! follows seeded diurnal curves compressed so one full "day" fits the
//! trace. The same trace runs under carbon-blind and carbon-aware routing
//! and the report compares kg CO₂ at equal SLO compliance; a third,
//! chaos-faulted carbon-aware run shows that injected replica crashes
//! change energy but not predictions. `tests/fleet_equivalence.rs` proves
//! the [`FleetReport`] byte-identical at every `host_parallelism`, clean
//! and chaos-faulted.

use crate::report::{fmt, ExperimentOutput, Table};
use crate::serving::serving_dataset;
use crate::suite::ExpConfig;
use green_automl_core::executor::{resolve_parallelism, run_indexed};
use green_automl_energy::{CarbonProfile, FaultPlan, GridIntensity};
use green_automl_serve::{
    run_fleet, AutoscalePolicy, FleetConfig, FleetReport, FleetTrafficConfig, RegionSpec,
    RouterPolicy, ScaleReason, Shape, TenantSpec, TenantTraffic,
};
use green_automl_systems::{AutoGluon, AutoMlSystem, Caml, Flaml, RunSpec};

/// A seeded diurnal carbon curve with its day compressed to `day_s`, so
/// the trace actually sweeps the whole cycle instead of sampling one
/// quasi-constant instant of an 86 400 s day.
fn compressed_day(grid: GridIntensity, seed: u64, day_s: f64) -> CarbonProfile {
    let mut c = CarbonProfile::seeded(grid, seed);
    c.peak_s *= day_s / CarbonProfile::DAY_S;
    c.period_s = day_s;
    c
}

/// Run the fleet comparison.
pub fn run(cfg: &ExpConfig) -> ExperimentOutput {
    let (train, test) = serving_dataset(cfg);
    let spec = RunSpec::single_core(60.0, cfg.seed);
    let systems: Vec<Box<dyn AutoMlSystem>> = vec![
        Box::new(Flaml::default()),
        Box::new(Caml::default()),
        Box::new(AutoGluon::default()),
    ];
    let slo_s = cfg.slo_ms / 1e3;
    let fitted = run_indexed(systems.len(), resolve_parallelism(cfg.parallelism), |i| {
        systems[i].fit(&train, &spec).predictor
    });
    let tenants: Vec<TenantSpec> = systems
        .iter()
        .zip(fitted)
        .map(|(s, predictor)| TenantSpec::new(s.id().as_str(), predictor, slo_s))
        .collect();

    // Nominal trace length — the compressed "day" every carbon curve and
    // traffic shape is scaled to.
    let day_s = cfg.fleet_requests as f64 / cfg.fleet_rps;
    let shapes_for = |tenant: usize| -> Vec<Shape> {
        match tenant {
            0 => vec![Shape::Diurnal {
                period_s: day_s,
                amplitude: 0.4,
                peak_s: 0.25 * day_s,
            }],
            1 => vec![Shape::Burst {
                start_s: 0.45 * day_s,
                duration_s: 0.1 * day_s,
                factor: 3.0,
            }],
            _ => vec![Shape::FlashCrowd {
                at_s: 0.7 * day_s,
                ramp_s: 0.05 * day_s,
                peak_factor: 6.0,
                decay_s: 0.08 * day_s,
            }],
        }
    };
    let trace = FleetTrafficConfig {
        tenants: (0..tenants.len())
            .map(|t| TenantTraffic {
                tenant: t as u32,
                rps: cfg.fleet_rps,
                shapes: shapes_for(t),
                n_requests: cfg.fleet_requests,
                seed: cfg.seed ^ 0xf1ee7 ^ (t as u64) << 32,
            })
            .collect(),
    }
    .generate(test.n_rows());

    // Region 0 is the paper's home grid, so the carbon-blind router's
    // index tie-break lands there; the carbon-aware router has to
    // *discover* the Swedish grid on its own.
    let grids = [
        ("germany", GridIntensity::GERMANY),
        ("poland", GridIntensity::POLAND),
        ("sweden", GridIntensity::SWEDEN),
    ];
    let regions: Vec<RegionSpec> = grids
        .iter()
        .enumerate()
        .map(|(i, (name, grid))| {
            RegionSpec::new(name, compressed_day(*grid, cfg.seed ^ i as u64, day_s), 1)
        })
        .collect();
    let base = FleetConfig {
        autoscale: AutoscalePolicy::elastic(1, cfg.serve_replicas.max(2)),
        host_parallelism: cfg.parallelism,
        ..FleetConfig::cpu_testbed(regions)
    };
    // Half the SLO as routing slack: the aware router may never trade more
    // latency than the latency objective has room for.
    let aware_policy = RouterPolicy::CarbonAware {
        latency_slack_s: 0.5 * slo_s,
    };

    let blind = run_fleet(
        &tenants,
        &test,
        &trace,
        &base.clone().with_router(RouterPolicy::CarbonBlind),
    );
    let aware_cfg = base.clone().with_router(aware_policy);
    let aware = run_fleet(&tenants, &test, &trace, &aware_cfg);
    let chaos = run_fleet(
        &tenants,
        &test,
        &trace,
        &aware_cfg.with_fault(FaultPlan::chaos(cfg.seed ^ 0xc4)),
    );

    let runs: Vec<(&str, &FleetReport)> = vec![
        ("carbon-blind", &blind),
        ("carbon-aware", &aware),
        ("carbon-aware+chaos", &chaos),
    ];

    let comparison = Table::new(
        "fleet: carbon-blind vs carbon-aware routing, same trace",
        vec![
            "policy",
            "batches",
            "kwh",
            "kg_co2",
            "co2_saved_pct",
            "eur",
            "slo_tenants",
            "worst_p99_ms",
            "mean_queue",
            "makespan_s",
        ],
        runs.iter()
            .map(|(name, r)| {
                let saved = if r.kg_co2() < blind.kg_co2() {
                    100.0 * (1.0 - r.kg_co2() / blind.kg_co2())
                } else {
                    0.0
                };
                let worst_p99 = r
                    .tenants
                    .iter()
                    .map(|t| t.latency.p99_s)
                    .fold(0.0, f64::max);
                vec![
                    name.to_string(),
                    r.n_batches.to_string(),
                    fmt(r.kwh()),
                    fmt(r.kg_co2()),
                    fmt(saved),
                    fmt(r.cost_eur()),
                    format!("{}/{}", r.slo_compliant_tenants(), r.tenants.len()),
                    fmt(worst_p99 * 1e3),
                    fmt(r.mean_queue_depth),
                    fmt(r.makespan_s),
                ]
            })
            .collect(),
    );

    let region_rows = runs
        .iter()
        .flat_map(|(name, r)| {
            r.regions.iter().map(move |reg| {
                vec![
                    name.to_string(),
                    reg.name.clone(),
                    reg.batches.to_string(),
                    fmt(reg.busy_j),
                    fmt(reg.idle_j),
                    fmt(reg.wasted_j),
                    fmt(reg.cold_load_j),
                    fmt(reg.kg_co2 * 1e3),
                    reg.peak_replicas.to_string(),
                    reg.final_replicas.to_string(),
                    reg.cold_loads.to_string(),
                    reg.evictions.to_string(),
                ]
            })
        })
        .collect();
    let per_region = Table::new(
        "fleet: per-region energy and carbon",
        vec![
            "policy",
            "region",
            "batches",
            "busy_j",
            "idle_j",
            "wasted_j",
            "cold_load_j",
            "g_co2",
            "peak_replicas",
            "final_replicas",
            "cold_loads",
            "evictions",
        ],
        region_rows,
    );

    let tenant_rows = runs
        .iter()
        .flat_map(|(name, r)| {
            let tenants = &tenants;
            r.tenants.iter().map(move |t| {
                vec![
                    name.to_string(),
                    t.name.clone(),
                    tenants[t.tenant as usize].predictor.n_models().to_string(),
                    t.n_requests.to_string(),
                    fmt(t.latency.p50_s * 1e3),
                    fmt(t.latency.p99_s * 1e3),
                    if t.slo_ok { "pass" } else { "FAIL" }.to_string(),
                    fmt(t.attributed_j),
                    t.retried_requests.to_string(),
                    t.failed_requests.to_string(),
                    t.budget_denials.to_string(),
                ]
            })
        })
        .collect();
    let per_tenant = Table::new(
        "fleet: per-tenant latency, SLO, attributed energy",
        vec![
            "policy",
            "tenant",
            "n_models",
            "requests",
            "p50_ms",
            "p99_ms",
            "slo",
            "attributed_j",
            "retried",
            "failed",
            "budget_denials",
        ],
        tenant_rows,
    );

    let count = |r: &FleetReport, reason: ScaleReason| {
        r.events.iter().filter(|e| e.reason == reason).count()
    };
    let events = Table::new(
        "fleet: autoscale events",
        vec!["policy", "queue_depth_up", "idle_down", "budget_denied"],
        runs.iter()
            .map(|(name, r)| {
                vec![
                    name.to_string(),
                    count(r, ScaleReason::QueueDepthUp).to_string(),
                    count(r, ScaleReason::IdleDown).to_string(),
                    count(r, ScaleReason::BudgetDenied).to_string(),
                ]
            })
            .collect(),
    );

    let mut notes = Vec::new();
    notes.push(format!(
        "carbon-aware routing emits {} kg CO2 vs {} kg carbon-blind on the same trace \
         — {:.1}% saved at equal SLO compliance ({}/{} tenants vs {}/{})",
        fmt(aware.kg_co2()),
        fmt(blind.kg_co2()),
        100.0 * (1.0 - aware.kg_co2() / blind.kg_co2()),
        aware.slo_compliant_tenants(),
        aware.tenants.len(),
        blind.slo_compliant_tenants(),
        blind.tenants.len(),
    ));
    notes.push(format!(
        "total energy stays within routing noise: {} kWh blind vs {} kWh aware \
         (regions share one device, so moving a batch moves its CO2, not its Joules)",
        fmt(blind.kwh()),
        fmt(aware.kwh())
    ));
    notes.push(format!(
        "chaos faults degrade gracefully: predictions {} the clean run's, \
         energy {} J vs {} J clean",
        if chaos.predictions == aware.predictions {
            "identical to"
        } else {
            "DIFFER from"
        },
        fmt(chaos.total_joules()),
        fmt(aware.total_joules())
    ));
    notes.push(format!(
        "trace: {} tenants x {} requests at {:.0} rps base (seed {}); shapes: diurnal \
         (FLAML), 3x burst (CAML), 6x flash crowd (AutoGluon); regions germany/poland/sweden \
         with seeded diurnal carbon curves compressed to the {:.1} s trace; elastic 1-{} \
         replicas per region; routing slack {:.0} ms; SLO p99 <= {:.0} ms",
        tenants.len(),
        cfg.fleet_requests,
        cfg.fleet_rps,
        cfg.seed,
        day_s,
        cfg.serve_replicas.max(2),
        0.5 * cfg.slo_ms,
        cfg.slo_ms
    ));

    ExperimentOutput {
        id: "fleet",
        tables: vec![comparison, per_region, per_tenant, events],
        notes,
        files: vec![
            ("fleet.blind.txt".to_string(), blind.to_text()),
            ("fleet.aware.txt".to_string(), aware.to_text()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(out: &ExperimentOutput, table: usize, row: usize, col: usize) -> f64 {
        out.tables[table].rows[row][col]
            .replace('e', "E")
            .parse()
            .expect("numeric cell")
    }

    #[test]
    fn fleet_carbon_aware_beats_blind_at_smoke_scale() {
        let out = run(&ExpConfig::smoke());
        assert_eq!(out.tables.len(), 4);
        // Three policies in the comparison, 3 regions x 3 policies, 3
        // tenants x 3 policies.
        assert_eq!(out.tables[0].rows.len(), 3);
        assert_eq!(out.tables[1].rows.len(), 9);
        assert_eq!(out.tables[2].rows.len(), 9);
        // The headline: aware emits less CO2 than blind at equal SLO
        // compliance.
        let blind_kg = cell(&out, 0, 0, 3);
        let aware_kg = cell(&out, 0, 1, 3);
        assert!(
            aware_kg < blind_kg,
            "carbon-aware ({aware_kg} kg) must beat carbon-blind ({blind_kg} kg)"
        );
        assert_eq!(
            out.tables[0].rows[0][6], out.tables[0].rows[1][6],
            "SLO compliance must match across policies"
        );
        // Chaos adds energy but not wrong answers.
        let chaos_note = out
            .notes
            .iter()
            .find(|n| n.contains("chaos"))
            .expect("chaos note");
        assert!(chaos_note.contains("identical to"), "{chaos_note}");
        // Canonical per-policy reports ride along as artefact files.
        assert_eq!(out.files.len(), 2);
        assert!(out.files[0].1.starts_with("fleet-report v1"));
    }
}
