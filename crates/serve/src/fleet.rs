//! The serving fleet: many models, many tenants, simulated grid regions.
//!
//! [`run_fleet`] is the crate's one serving loop: each *tenant* deploys
//! one model under a latency SLO and an energy budget; each *region*
//! hosts an elastic replica pool, a model registry with an LRU residency
//! cap, and a seeded time-varying carbon profile. A router
//! decides per batch which region executes it ([`RouterPolicy`]), and an
//! autoscaler grows and shrinks each region's pool under queue pressure
//! ([`AutoscalePolicy`]), with scale-ups charged as cold model loads and
//! refused when they would blow the triggering tenant's energy budget.
//! The single-model [`serve`](crate::scheduler::serve) entry point is a
//! one-tenant, one-region, pinned-pool call of the same loop.
//!
//! ## Determinism argument
//!
//! Serving runs in three deterministic phases:
//!
//! 1. **Batch formation** is per-tenant and pure in the trace: each
//!    tenant's consecutive requests coalesce until the batch holds
//!    `max_batch` rows or `max_delay_s` has passed since its first
//!    arrival, and the per-tenant plans merge into one global dispatch
//!    order sorted by `(seal time, tenant)`.
//! 2. **Batch execution** fans out over host threads, one private
//!    [`CostTracker`] per batch. Every region runs the same [`Device`], so
//!    a batch's duration and Joules are known *before* any routing
//!    decision — execution never depends on phase 3, which is what lets it
//!    parallelise.
//! 3. **Dispatch** is strictly serial in merged order: queue-depth
//!    sampling, autoscale decisions, routing, load shedding, registry
//!    fetches, fault injection (pure in `(fault seed, batch index,
//!    attempt)`), and every floating-point accumulation happen in one
//!    deterministic sequence.
//!
//! Consequently a [`FleetReport`] — predictions, per-tenant SLOs,
//! per-region Joules and kg CO₂, the autoscale event log, the span trace —
//! is byte-identical at every `host_parallelism`, clean or chaos-faulted.
//!
//! ## Carbon accounting
//!
//! Busy, wasted, and cold-load energy convert to CO₂ at the routed
//! region's mean intensity over the exact virtual interval the work
//! occupied ([`CarbonProfile::mean_intensity`] is closed-form, not
//! sampled). Replica idle energy uses the mean intensity over the
//! replica's powered interval — an approximation (idle moments are not
//! subtracted from busy moments inside the interval) that is still a pure
//! function of the schedule. Regions differ only in carbon profile,
//! replica counts, and registry capacity — never in device — so moving a
//! batch across regions moves its CO₂, not its Joules.

use std::sync::Arc;

use green_automl_core::executor;
use green_automl_core::fault::{FaultInjector, FaultPlan};
use green_automl_dataset::Dataset;
use green_automl_energy::trace::span_id;
use green_automl_energy::{
    CarbonProfile, CostTracker, Device, EnergyBreakdown, FaultKind, OpCounts, ParallelProfile,
    Span, SpanKind, Trace, EUR_PER_KWH,
};
use green_automl_systems::Predictor;

use crate::autoscale::{AutoscaleEvent, AutoscalePolicy, ScaleReason};
use crate::registry::ModelRegistry;
use crate::report::LatencyStats;
use crate::router::{route, RegionView, RouterPolicy};
use crate::traffic::FleetTrace;

/// Joules per kilowatt-hour.
const J_PER_KWH: f64 = 3.6e6;

/// One tenant's deployment: a model, a latency SLO, an energy budget.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant (and model) name; must be unique across the fleet.
    pub name: String,
    /// The deployed model.
    pub predictor: Predictor,
    /// p99 latency objective, seconds.
    pub p99_slo_s: f64,
    /// Attributed-energy budget; scale-ups on this tenant's behalf are
    /// denied once their attributed Joules would exceed it. Infinite by
    /// default.
    pub energy_budget_j: f64,
}

impl TenantSpec {
    /// A tenant with an unlimited energy budget.
    pub fn new(name: &str, predictor: Predictor, p99_slo_s: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            predictor,
            p99_slo_s,
            energy_budget_j: f64::INFINITY,
        }
    }

    /// The same tenant with a finite energy budget, Joules.
    pub fn with_budget_j(mut self, budget_j: f64) -> TenantSpec {
        self.energy_budget_j = budget_j;
        self
    }
}

/// One simulated grid region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionSpec {
    /// Region name for reports.
    pub name: String,
    /// The region's (possibly time-varying) grid carbon intensity.
    pub carbon: CarbonProfile,
    /// Replicas active at t = 0.
    pub initial_replicas: usize,
    /// Residency cap of the region's model registry, bytes.
    pub registry_capacity_bytes: f64,
}

impl RegionSpec {
    /// A region with an unbounded model registry.
    pub fn new(name: &str, carbon: CarbonProfile, initial_replicas: usize) -> RegionSpec {
        assert!(initial_replicas >= 1, "a region needs at least one replica");
        RegionSpec {
            name: name.to_string(),
            carbon,
            initial_replicas,
            registry_capacity_bytes: f64::INFINITY,
        }
    }

    /// The same region with a finite registry residency cap.
    pub fn with_registry_capacity(mut self, bytes: f64) -> RegionSpec {
        self.registry_capacity_bytes = bytes;
        self
    }
}

/// The fleet deployment: regions, routing, autoscaling, batching, faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The simulated regions.
    pub regions: Vec<RegionSpec>,
    /// How batches pick a region.
    pub router: RouterPolicy,
    /// How each region's replica pool scales.
    pub autoscale: AutoscalePolicy,
    /// A batch dispatches once it holds this many requests…
    pub max_batch: usize,
    /// …or once this much time has passed since its first arrival.
    pub max_delay_s: f64,
    /// Hardware model every replica in every region runs on (shared by
    /// design; see the module docs).
    pub device: Device,
    /// Cores per replica.
    pub cores_per_replica: usize,
    /// Host threads executing batch inference while *building* the report
    /// (`0` = one per core). Never changes the report.
    pub host_parallelism: usize,
    /// Seeded fault plan; `replica_crash_p` / `replica_restart_s` drive
    /// mid-batch crashes.
    pub fault: FaultPlan,
    /// Redispatch attempts after a crash before a batch counts as failed.
    pub max_retries: usize,
    /// First-retry backoff, doubling per attempt, virtual seconds.
    pub backoff_base_s: f64,
    /// Backoff cap, virtual seconds.
    pub backoff_cap_s: f64,
    /// Shed a batch whole at its first dispatch attempt when the backlog
    /// at its start instant — requests arrived by then, minus those in
    /// earlier batches — is deeper than this (`0` = never shed). A shed
    /// batch is never fetched or executed, so it costs no energy.
    pub shed_queue_depth: usize,
    /// Record a span trace (one `Replica` span per powered replica
    /// interval, one `Batch` span per dispatch attempt). Never changes a
    /// measured number.
    pub trace: bool,
}

impl FleetConfig {
    /// A fleet on the paper's CPU testbed: carbon-aware routing with 100ms
    /// slack, elastic pools of 1–8 replicas, batches of up to 32 rows or
    /// 20 ms, three retries, no load shedding, faults off.
    pub fn cpu_testbed(regions: Vec<RegionSpec>) -> FleetConfig {
        FleetConfig {
            regions,
            router: RouterPolicy::CarbonAware {
                latency_slack_s: 0.1,
            },
            autoscale: AutoscalePolicy::elastic(1, 8),
            max_batch: 32,
            max_delay_s: 0.02,
            device: Device::xeon_gold_6132(),
            cores_per_replica: 1,
            host_parallelism: 0,
            fault: FaultPlan::disabled(),
            max_retries: 3,
            backoff_base_s: 0.05,
            backoff_cap_s: 1.0,
            shed_queue_depth: 0,
            trace: false,
        }
    }

    /// The same fleet under a different routing policy.
    pub fn with_router(mut self, router: RouterPolicy) -> FleetConfig {
        self.router = router;
        self
    }

    /// The same fleet under a different autoscaling policy.
    pub fn with_autoscale(mut self, autoscale: AutoscalePolicy) -> FleetConfig {
        self.autoscale = autoscale;
        self
    }

    /// The same fleet with a fault plan installed.
    pub fn with_fault(mut self, fault: FaultPlan) -> FleetConfig {
        self.fault = fault;
        self
    }

    /// The same fleet with span tracing on.
    pub fn with_trace(mut self) -> FleetConfig {
        self.trace = true;
        self
    }
}

/// Per-tenant outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant id (index into the spec slice).
    pub tenant: u32,
    /// Tenant name.
    pub name: String,
    /// Requests this tenant sent.
    pub n_requests: usize,
    /// Latency summary over the tenant's completed requests.
    pub latency: LatencyStats,
    /// The SLO the tenant asked for.
    pub p99_slo_s: f64,
    /// `true` when the observed p99 meets the SLO and no request failed
    /// or was shed.
    pub slo_ok: bool,
    /// Energy attributed to the tenant: batch execution, crash waste,
    /// cold model loads, and scale-up loads on its behalf. Joules. Shared
    /// replica idle power is *not* attributed (it belongs to the fleet).
    pub attributed_j: f64,
    /// Requests that completed only after at least one crash.
    pub retried_requests: usize,
    /// Requests whose batch exhausted its retries.
    pub failed_requests: usize,
    /// Requests shed at dispatch (see [`FleetConfig::shed_queue_depth`]).
    pub shed_requests: usize,
    /// Scale-ups denied because of this tenant's energy budget.
    pub budget_denials: usize,
}

/// Per-region outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Batches that completed here.
    pub batches: usize,
    /// Energy spent computing completed batches, Joules.
    pub busy_j: f64,
    /// Operations of the completed batches.
    pub ops: OpCounts,
    /// Static energy of powered replicas waiting for work, Joules.
    pub idle_j: f64,
    /// Energy thrown away by crashed attempts, Joules.
    pub wasted_j: f64,
    /// Energy spent paging model artefacts (registry cold loads, startup
    /// warming, autoscale cold loads), Joules.
    pub cold_load_j: f64,
    /// CO₂ of all the above under the region's time-varying intensity, kg.
    pub kg_co2: f64,
    /// Replica-seconds of powered capacity.
    pub replica_seconds: f64,
    /// Most replicas ever active at once.
    pub peak_replicas: usize,
    /// Replicas active when the run ended.
    pub final_replicas: usize,
    /// Registry cold loads (startup warming included).
    pub cold_loads: usize,
    /// Registry evictions.
    pub evictions: usize,
}

impl RegionReport {
    /// All of the region's energy, Joules.
    pub fn total_joules(&self) -> f64 {
        self.busy_j + self.idle_j + self.wasted_j + self.cold_load_j
    }
}

/// Everything one fleet run produced. `PartialEq` covers every field
/// (energies included) and [`FleetReport::to_text`] is a canonical
/// serialisation: the determinism suite asserts both across
/// `host_parallelism` counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Requests across all tenants.
    pub n_requests: usize,
    /// Micro-batches dispatched.
    pub n_batches: usize,
    /// Hard-label prediction per request in merged-trace order (failed
    /// and shed requests keep a `0` placeholder).
    pub predictions: Vec<u32>,
    /// Virtual time from t = 0, when the replicas power up and idle
    /// pricing starts, to the last batch completion or replica restart,
    /// seconds.
    pub makespan_s: f64,
    /// Mean queue depth sampled at batch seal instants.
    pub mean_queue_depth: f64,
    /// Deepest queue observed.
    pub max_queue_depth: usize,
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Per-region outcomes, in region order.
    pub regions: Vec<RegionReport>,
    /// The autoscale decision log, in decision order.
    pub events: Vec<AutoscaleEvent>,
    /// Span trace when [`FleetConfig::trace`] was on.
    pub trace: Option<Trace>,
}

impl FleetReport {
    /// Fleet-wide energy, Joules.
    pub fn total_joules(&self) -> f64 {
        self.regions.iter().map(RegionReport::total_joules).sum()
    }

    /// Fleet-wide energy, kWh.
    pub fn kwh(&self) -> f64 {
        self.total_joules() / J_PER_KWH
    }

    /// Fleet-wide emissions under each region's own grid, kg CO₂.
    pub fn kg_co2(&self) -> f64 {
        self.regions.iter().map(|r| r.kg_co2).sum()
    }

    /// Electricity cost at the paper's flat tariff, €.
    pub fn cost_eur(&self) -> f64 {
        self.kwh() * EUR_PER_KWH
    }

    /// Tenants whose SLO held.
    pub fn slo_compliant_tenants(&self) -> usize {
        self.tenants.iter().filter(|t| t.slo_ok).count()
    }

    /// Canonical plain-text serialisation. Floats render via Rust's
    /// shortest-round-trip formatting, so two reports are byte-identical
    /// iff they are bit-identical; predictions compress to an FNV-1a
    /// digest to keep the text bounded.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("fleet-report v1\n");
        out.push_str(&format!(
            "requests={} batches={} makespan_s={:?} mean_queue={:?} max_queue={}\n",
            self.n_requests,
            self.n_batches,
            self.makespan_s,
            self.mean_queue_depth,
            self.max_queue_depth
        ));
        out.push_str(&format!(
            "predictions=fnv1a:{:016x}\n",
            green_automl_energy::hash::fnv1a(self.predictions.iter().flat_map(|p| p.to_le_bytes()))
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant {} name={} requests={} p50_s={:?} p99_s={:?} slo={} attributed_j={:?} retried={} failed={} denials={}\n",
                t.tenant,
                t.name,
                t.n_requests,
                t.latency.p50_s,
                t.latency.p99_s,
                if t.slo_ok { "pass" } else { "FAIL" },
                t.attributed_j,
                t.retried_requests,
                t.failed_requests,
                t.budget_denials
            ));
        }
        for (ri, r) in self.regions.iter().enumerate() {
            out.push_str(&format!(
                "region {} name={} batches={} busy_j={:?} idle_j={:?} wasted_j={:?} cold_load_j={:?} kg_co2={:?} replica_s={:?} peak={} final={} cold_loads={} evictions={}\n",
                ri,
                r.name,
                r.batches,
                r.busy_j,
                r.idle_j,
                r.wasted_j,
                r.cold_load_j,
                r.kg_co2,
                r.replica_seconds,
                r.peak_replicas,
                r.final_replicas,
                r.cold_loads,
                r.evictions
            ));
        }
        out.push_str(&format!("events {}\n", self.events.len()));
        for e in &self.events {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "total_j={:?} kwh={:?} kg_co2={:?} eur={:?}\n",
            self.total_joules(),
            self.kwh(),
            self.kg_co2(),
            self.cost_eur()
        ));
        out
    }
}

/// A planned micro-batch of one tenant's requests. `first`/`len` index the
/// tenant's own request-index list, not the merged trace.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FleetBatch {
    tenant: usize,
    first: usize,
    len: usize,
    close_s: f64,
}

/// Phase 1: per-tenant batch formation, merged by `(seal time, tenant)`.
fn form_fleet_batches(
    trace: &FleetTrace,
    tenant_reqs: &[Vec<usize>],
    max_batch: usize,
    max_delay_s: f64,
) -> Vec<FleetBatch> {
    assert!(max_batch >= 1, "max_batch must be at least 1");
    assert!(
        max_delay_s >= 0.0 && max_delay_s.is_finite(),
        "max_delay_s must be finite and non-negative"
    );
    let mut merged = Vec::new();
    for (tenant, idxs) in tenant_reqs.iter().enumerate() {
        let arrival = |i: usize| trace.requests[idxs[i]].arrival_s;
        let mut first = 0usize;
        while first < idxs.len() {
            let deadline = arrival(first) + max_delay_s;
            let mut len = 1usize;
            while len < max_batch && first + len < idxs.len() && arrival(first + len) <= deadline {
                len += 1;
            }
            let close_s = if len == max_batch {
                arrival(first + len - 1)
            } else {
                deadline
            };
            merged.push(FleetBatch {
                tenant,
                first,
                len,
                close_s,
            });
            first += len;
        }
    }
    // Per-tenant close times are strictly ordered, so (close_s, tenant) is
    // a total deterministic order across the fleet.
    merged.sort_by(|a, b| {
        a.close_s
            .partial_cmp(&b.close_s)
            .expect("finite seal times")
            .then(a.tenant.cmp(&b.tenant))
    });
    merged
}

/// A replica's powered interval: `[start_s, end_s)` of one activation.
struct Interval {
    region: usize,
    slot: usize,
    seq: u64,
    start_s: f64,
    end_s: f64, // NaN while the replica is still powered
    busy_s: f64,
}

/// One replica slot in a region's pool.
struct Slot {
    active: bool,
    free_s: f64,
    interval: usize, // index of the current (or last) powered interval
}

/// Serve a multi-tenant [`FleetTrace`] across the configured regions.
///
/// Tenant ids in the trace index `tenants`; every tenant's model is
/// registered (and warmed) in every region's registry at startup, priced
/// as cold loads at t = 0. A crashed batch retries with capped exponential
/// backoff and counts as failed only when its retries run out.
///
/// # Panics
/// Panics if the trace references unknown tenants or rows outside `pool`,
/// if tenant names collide, or if the config is degenerate (no regions,
/// zero replicas).
pub fn run_fleet(
    tenants: &[TenantSpec],
    pool: &Dataset,
    trace: &FleetTrace,
    cfg: &FleetConfig,
) -> FleetReport {
    assert!(!tenants.is_empty(), "need at least one tenant");
    assert!(!cfg.regions.is_empty(), "need at least one region");
    assert!(cfg.autoscale.min_replicas >= 1, "min_replicas must be >= 1");
    for (i, a) in tenants.iter().enumerate() {
        assert!(
            tenants[i + 1..].iter().all(|b| b.name != a.name),
            "tenant name {:?} appears twice",
            a.name
        );
    }
    assert!(
        trace
            .requests
            .iter()
            .all(|r| (r.tenant as usize) < tenants.len()),
        "trace references a tenant outside the spec slice"
    );
    assert!(
        trace.pool_rows <= pool.n_rows(),
        "trace was generated for a larger row pool ({} > {})",
        trace.pool_rows,
        pool.n_rows()
    );
    let n_regions = cfg.regions.len();

    // Cold-load price of each tenant's artefact (used for scale-up charges
    // and budget checks) — a pure function of the model and the device.
    let load_cost_j: Vec<f64> = tenants
        .iter()
        .map(|t| {
            let mut probe = CostTracker::new(cfg.device, cfg.cores_per_replica);
            probe.charge(
                OpCounts::mem(t.predictor.memory_bytes()),
                ParallelProfile::serial(),
            );
            probe.measurement().energy.total_joules()
        })
        .collect();

    // Phase 1: per-tenant plans merged into the global dispatch order.
    let tenant_reqs: Vec<Vec<usize>> = (0..tenants.len())
        .map(|t| trace.tenant_requests(t as u32))
        .collect();
    let batches = form_fleet_batches(trace, &tenant_reqs, cfg.max_batch, cfg.max_delay_s);

    // Phase 2: host-parallel execution; regions share one device, so
    // durations and Joules are routing-independent.
    let workers = executor::resolve_parallelism(cfg.host_parallelism);
    let executed = executor::run_indexed(batches.len(), workers, |bi| {
        let b = &batches[bi];
        let rows: Vec<usize> = tenant_reqs[b.tenant][b.first..b.first + b.len]
            .iter()
            .map(|&ri| trace.requests[ri].row)
            .collect();
        let mut ds = pool.take_rows(&rows);
        ds.row_scale = 1.0;
        let mut tracker = CostTracker::new(cfg.device, cfg.cores_per_replica);
        let preds = tenants[b.tenant].predictor.predict_batch(&ds, &mut tracker);
        (preds, tracker.measurement())
    });

    // Phase 3 state. Everything below runs serially in merged batch order.
    let injector = (cfg.fault.replica_crash_p > 0.0).then(|| FaultInjector::new(cfg.fault));
    let trace_seed = cfg.fault.seed ^ 0x666c_6574; // "flet"
    let mut span_seq: u64 = 0;
    let mut batch_spans: Vec<Span> = Vec::new();

    let mut intervals: Vec<Interval> = Vec::new();
    let mut slots: Vec<Vec<Slot>> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    let mut peak: Vec<usize> = Vec::new();
    let mut last_event_s: Vec<f64> = vec![f64::NEG_INFINITY; n_regions];
    for (ri, spec) in cfg.regions.iter().enumerate() {
        let mut pool = Vec::new();
        for slot in 0..spec.initial_replicas {
            intervals.push(Interval {
                region: ri,
                slot,
                seq: span_seq,
                start_s: 0.0,
                end_s: f64::NAN,
                busy_s: 0.0,
            });
            span_seq += 1;
            pool.push(Slot {
                active: true,
                free_s: 0.0,
                interval: intervals.len() - 1,
            });
        }
        slots.push(pool);
        active.push(spec.initial_replicas);
        peak.push(spec.initial_replicas);
    }

    // Per-region accumulators (summed serially for bit-stable totals).
    let mut region_busy_j = vec![0.0f64; n_regions];
    let mut region_ops = vec![OpCounts::ZERO; n_regions];
    let mut region_wasted_j = vec![0.0f64; n_regions];
    let mut region_cold_j = vec![0.0f64; n_regions];
    let mut region_co2 = vec![0.0f64; n_regions];
    let mut region_batches = vec![0usize; n_regions];
    let mut attributed = vec![0.0f64; tenants.len()];
    let mut denials = vec![0usize; tenants.len()];
    let mut tenant_retried = vec![0usize; tenants.len()];
    let mut tenant_failed = vec![0usize; tenants.len()];
    let mut tenant_shed = vec![0usize; tenants.len()];
    let mut events: Vec<AutoscaleEvent> = Vec::new();

    // Every region registers and warms every tenant's model at startup:
    // residency starts from one deterministic access event (see
    // `ModelRegistry::warm_all`), priced at the t = 0 grid intensity.
    // Residency is per region, but the artefact is one shared copy.
    let artefacts: Vec<Arc<Predictor>> = tenants
        .iter()
        .map(|t| Arc::new(t.predictor.clone()))
        .collect();
    let mut registries: Vec<ModelRegistry> = Vec::new();
    for spec in &cfg.regions {
        let mut reg = ModelRegistry::with_capacity_bytes(spec.registry_capacity_bytes);
        for (t, ts) in tenants.iter().enumerate() {
            reg.register_for_tenant(&ts.name, t as u32, Arc::clone(&artefacts[t]));
        }
        registries.push(reg);
    }
    for ri in 0..n_regions {
        let mut warm = CostTracker::new(cfg.device, cfg.cores_per_replica);
        registries[ri].warm_all(&mut warm);
        let e = warm.measurement().energy.total_joules();
        region_cold_j[ri] += e;
        region_co2[ri] += cfg.regions[ri].carbon.kg_co2(e / J_PER_KWH, 0.0, 0.0);
        // Warming loads each artefact exactly once, so the region's warm
        // energy splits across tenants at their per-model load price.
        for (t, &cost) in load_cost_j.iter().enumerate() {
            attributed[t] += cost;
        }
    }

    let n = trace.len();
    let mut latencies = vec![f64::NAN; n];
    let mut predictions = vec![0u32; n];
    let mut arrived = 0usize;
    let mut dispatched = 0usize;
    let mut depth_sum = 0usize;
    let mut max_depth = 0usize;
    let mut makespan = 0.0f64;

    for (bi, (b, (preds, meas))) in batches.iter().zip(&executed).enumerate() {
        let t_seal = b.close_s;

        // Queue depth is sampled at the seal instant — seal times are
        // sorted, so one arrivals pointer suffices and the sample never
        // depends on routing.
        while arrived < n && trace.requests[arrived].arrival_s <= t_seal {
            arrived += 1;
        }
        let earlier = dispatched;
        let depth = arrived - earlier;
        depth_sum += depth;
        max_depth = max_depth.max(depth);
        dispatched += b.len;

        // Housekeeping: at most one idle scale-down per region per seal
        // instant, cooldown permitting. The victim is the longest-idle
        // active replica (ties by slot index).
        for ri in 0..n_regions {
            if t_seal - last_event_s[ri] < cfg.autoscale.cooldown_s {
                continue;
            }
            let victim = slots[ri]
                .iter()
                .enumerate()
                .filter(|(_, s)| s.active)
                .min_by(|(i, a), (j, b)| {
                    a.free_s
                        .partial_cmp(&b.free_s)
                        .expect("finite free times")
                        .then(i.cmp(j))
                })
                .map(|(i, _)| i);
            if let Some(si) = victim {
                let idle_s = t_seal - slots[ri][si].free_s;
                if cfg.autoscale.wants_down(idle_s, active[ri]) {
                    let iv = slots[ri][si].interval;
                    intervals[iv].end_s = t_seal;
                    slots[ri][si].active = false;
                    active[ri] -= 1;
                    events.push(AutoscaleEvent {
                        t_s: t_seal,
                        region: ri,
                        tenant: None,
                        from: active[ri] + 1,
                        to: active[ri],
                        reason: ScaleReason::IdleDown,
                    });
                    last_event_s[ri] = t_seal;
                }
            }
        }

        let mut runnable = t_seal;
        let mut crashed_attempts = 0usize;
        let mut completed = false;
        for attempt in 0..=cfg.max_retries {
            // Route: each region is viewed as (earliest free replica,
            // intensity at the would-be start).
            let views: Vec<RegionView> = (0..n_regions)
                .map(|ri| {
                    let ef = slots[ri]
                        .iter()
                        .filter(|s| s.active)
                        .map(|s| s.free_s)
                        .fold(f64::INFINITY, f64::min);
                    RegionView {
                        earliest_free_s: ef,
                        intensity: cfg.regions[ri].carbon.intensity_at(runnable.max(ef)),
                    }
                })
                .collect();
            let ri = route(&cfg.router, runnable, meas.duration_s, &views);

            // Autoscaling reacts to the queue sampled at the seal — once
            // per batch, on the routed region, budget permitting.
            if attempt == 0
                && cfg.autoscale.wants_up(depth, active[ri])
                && t_seal - last_event_s[ri] >= cfg.autoscale.cooldown_s
            {
                let t_id = b.tenant;
                if attributed[t_id] + load_cost_j[t_id] <= tenants[t_id].energy_budget_j {
                    // Reuse the lowest inactive slot or grow the pool; the
                    // fresh replica cold-loads the triggering tenant's
                    // artefact at the current intensity.
                    let si = match slots[ri].iter().position(|s| !s.active) {
                        Some(si) => si,
                        None => {
                            slots[ri].push(Slot {
                                active: false,
                                free_s: t_seal,
                                interval: usize::MAX,
                            });
                            slots[ri].len() - 1
                        }
                    };
                    intervals.push(Interval {
                        region: ri,
                        slot: si,
                        seq: span_seq,
                        start_s: t_seal,
                        end_s: f64::NAN,
                        busy_s: 0.0,
                    });
                    span_seq += 1;
                    slots[ri][si] = Slot {
                        active: true,
                        free_s: t_seal,
                        interval: intervals.len() - 1,
                    };
                    active[ri] += 1;
                    peak[ri] = peak[ri].max(active[ri]);
                    region_cold_j[ri] += load_cost_j[t_id];
                    attributed[t_id] += load_cost_j[t_id];
                    region_co2[ri] += cfg.regions[ri].carbon.kg_co2(
                        load_cost_j[t_id] / J_PER_KWH,
                        t_seal,
                        t_seal,
                    );
                    events.push(AutoscaleEvent {
                        t_s: t_seal,
                        region: ri,
                        tenant: Some(t_id as u32),
                        from: active[ri] - 1,
                        to: active[ri],
                        reason: ScaleReason::QueueDepthUp,
                    });
                } else {
                    denials[t_id] += 1;
                    events.push(AutoscaleEvent {
                        t_s: t_seal,
                        region: ri,
                        tenant: Some(t_id as u32),
                        from: active[ri],
                        to: active[ri],
                        reason: ScaleReason::BudgetDenied,
                    });
                }
                last_event_s[ri] = t_seal;
            }

            // Pick the replica that starts the batch soonest; among
            // replicas that tie on start (all already free), prefer the
            // most recently used. Packing work onto warm replicas is what
            // lets cold ones accumulate idle time for the autoscaler to
            // reclaim — earliest-free round-robin would keep every replica
            // lukewarm forever. Final ties break by slot index.
            let si = slots[ri]
                .iter()
                .enumerate()
                .filter(|(_, s)| s.active)
                .min_by(|(i, a), (j, b)| {
                    let sa = runnable.max(a.free_s);
                    let sb = runnable.max(b.free_s);
                    sa.partial_cmp(&sb)
                        .expect("finite free times")
                        .then(b.free_s.partial_cmp(&a.free_s).expect("finite free times"))
                        .then(i.cmp(j))
                })
                .map(|(i, _)| i)
                .expect("min_replicas >= 1 keeps every region non-empty");
            let start = runnable.max(slots[ri][si].free_s);

            // Load shedding judges the backlog at the dispatch instant.
            // Once autoscaling adds replicas, first-attempt starts are not
            // monotone, so arrivals are counted by binary search rather
            // than a forward-only pointer.
            if attempt == 0 && cfg.shed_queue_depth > 0 {
                let arrived_by_start = trace.requests.partition_point(|r| r.arrival_s <= start);
                if arrived_by_start - earlier > cfg.shed_queue_depth {
                    tenant_shed[b.tenant] += b.len;
                    break;
                }
            }

            // Serving fetches the tenant's model from the region registry;
            // a non-resident artefact (capacity thrash) pages back in here.
            let mut fetch = CostTracker::new(cfg.device, cfg.cores_per_replica);
            registries[ri]
                .fetch(&tenants[b.tenant].name, &mut fetch)
                .expect("every tenant model is registered in every region");
            let fetch_j = fetch.measurement().energy.total_joules();
            if fetch_j > 0.0 {
                region_cold_j[ri] += fetch_j;
                attributed[b.tenant] += fetch_j;
                region_co2[ri] += cfg.regions[ri]
                    .carbon
                    .kg_co2(fetch_j / J_PER_KWH, start, start);
            }

            // A crash runs `done_frac` of the batch and throws it away; a
            // completion runs all of it.
            let crash = injector
                .as_ref()
                .and_then(|inj| inj.replica_crash(cfg.fault.seed, bi as u64, attempt as u64));
            let frac = crash.unwrap_or(1.0);
            let end_s = start + frac * meas.duration_s;
            let ej = frac * meas.energy.total_joules();
            let iv = slots[ri][si].interval;
            intervals[iv].busy_s += frac * meas.duration_s;
            attributed[b.tenant] += ej;
            region_co2[ri] += cfg.regions[ri].carbon.kg_co2(ej / J_PER_KWH, start, end_s);
            if crash.is_some() {
                // The replica is unavailable while it restarts.
                slots[ri][si].free_s = end_s + cfg.fault.replica_restart_s;
                region_wasted_j[ri] += ej;
            } else {
                slots[ri][si].free_s = end_s;
                for (offset, &req_idx) in tenant_reqs[b.tenant][b.first..b.first + b.len]
                    .iter()
                    .enumerate()
                {
                    let req = &trace.requests[req_idx];
                    latencies[req.id] = end_s - req.arrival_s;
                    predictions[req.id] = preds[offset];
                }
                region_busy_j[ri] += ej;
                region_ops[ri] += meas.ops;
                region_batches[ri] += 1;
            }
            makespan = makespan.max(slots[ri][si].free_s);
            if cfg.trace {
                let name = &tenants[b.tenant].name;
                let (label, ops, fault) = match crash {
                    Some(_) => (
                        format!("batch {bi} tenant {name} attempt {attempt}"),
                        OpCounts::ZERO,
                        Some(FaultKind::Crash),
                    ),
                    None => (
                        format!("batch {bi} tenant {name} ({} rows)", b.len),
                        meas.ops,
                        None,
                    ),
                };
                batch_spans.push(Span {
                    id: span_id(trace_seed, span_seq),
                    parent: Some(span_id(trace_seed, intervals[iv].seq)),
                    kind: SpanKind::Batch,
                    label,
                    track: ((ri as u32) << 16) | si as u32,
                    start_s: start,
                    end_s,
                    energy: EnergyBreakdown {
                        package_j: frac * meas.energy.package_j,
                        dram_j: frac * meas.energy.dram_j,
                        gpu_j: frac * meas.energy.gpu_j,
                    },
                    ops,
                    fault,
                });
                span_seq += 1;
            }
            if crash.is_none() {
                completed = true;
                break;
            }
            let backoff =
                (cfg.backoff_base_s * (1u64 << attempt.min(32)) as f64).min(cfg.backoff_cap_s);
            runnable = end_s + backoff;
            crashed_attempts += 1;
        }
        if completed {
            if crashed_attempts > 0 {
                tenant_retried[b.tenant] += b.len;
            }
        } else if crashed_attempts > 0 {
            tenant_failed[b.tenant] += b.len;
        }
    }

    // Close still-powered intervals at the makespan, then price idleness:
    // a replica's powered time minus its busy time burns static power at
    // the mean intensity of its powered interval.
    let mut region_idle_j = vec![0.0f64; n_regions];
    let mut region_replica_s = vec![0.0f64; n_regions];
    let mut replica_spans: Vec<Span> = Vec::new();
    for iv in &mut intervals {
        if iv.end_s.is_nan() {
            iv.end_s = makespan;
        }
        let powered_s = (iv.end_s - iv.start_s).max(0.0);
        region_replica_s[iv.region] += powered_s;
        let idle_s = (powered_s - iv.busy_s).max(0.0);
        let mut idle_energy = EnergyBreakdown::default();
        if idle_s > 0.0 {
            let mut idle = CostTracker::new(cfg.device, cfg.cores_per_replica);
            idle.idle_for(idle_s);
            idle_energy = idle.measurement().energy;
            region_idle_j[iv.region] += idle_energy.total_joules();
            region_co2[iv.region] += cfg.regions[iv.region].carbon.kg_co2(
                idle_energy.total_joules() / J_PER_KWH,
                iv.start_s,
                iv.end_s,
            );
        }
        if cfg.trace {
            replica_spans.push(Span {
                id: span_id(trace_seed, iv.seq),
                parent: None,
                kind: SpanKind::Replica,
                label: format!("{} replica {}", cfg.regions[iv.region].name, iv.slot),
                track: ((iv.region as u32) << 16) | iv.slot as u32,
                start_s: iv.start_s,
                end_s: iv.end_s,
                energy: idle_energy,
                ops: OpCounts::ZERO,
                fault: None,
            });
        }
    }

    // Aggregate per tenant.
    let tenant_reports: Vec<TenantReport> = tenants
        .iter()
        .enumerate()
        .map(|(t, spec)| {
            let lats: Vec<f64> = tenant_reqs[t]
                .iter()
                .map(|&i| latencies[trace.requests[i].id])
                .filter(|l| !l.is_nan())
                .collect();
            let latency = if lats.is_empty() {
                LatencyStats::empty()
            } else {
                LatencyStats::from_latencies(&lats)
            };
            TenantReport {
                tenant: t as u32,
                name: spec.name.clone(),
                n_requests: tenant_reqs[t].len(),
                latency,
                p99_slo_s: spec.p99_slo_s,
                slo_ok: latency.meets_p99(spec.p99_slo_s, tenant_failed[t] + tenant_shed[t]),
                attributed_j: attributed[t],
                retried_requests: tenant_retried[t],
                failed_requests: tenant_failed[t],
                shed_requests: tenant_shed[t],
                budget_denials: denials[t],
            }
        })
        .collect();

    let region_reports: Vec<RegionReport> = cfg
        .regions
        .iter()
        .enumerate()
        .map(|(ri, spec)| {
            let stats = registries[ri].stats();
            RegionReport {
                name: spec.name.clone(),
                batches: region_batches[ri],
                busy_j: region_busy_j[ri],
                ops: region_ops[ri],
                idle_j: region_idle_j[ri],
                wasted_j: region_wasted_j[ri],
                cold_load_j: region_cold_j[ri],
                kg_co2: region_co2[ri],
                replica_seconds: region_replica_s[ri],
                peak_replicas: peak[ri],
                final_replicas: active[ri],
                cold_loads: stats.cold_loads,
                evictions: stats.evictions,
            }
        })
        .collect();

    FleetReport {
        n_requests: n,
        n_batches: batches.len(),
        predictions,
        makespan_s: makespan,
        mean_queue_depth: if batches.is_empty() {
            0.0
        } else {
            depth_sum as f64 / batches.len() as f64
        },
        max_queue_depth: max_depth,
        tenants: tenant_reports,
        regions: region_reports,
        events,
        trace: cfg.trace.then(|| {
            replica_spans.extend(batch_spans);
            Trace {
                spans: replica_spans,
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{FleetRequest, FleetTrafficConfig, Shape, TenantTraffic};
    use green_automl_energy::GridIntensity;

    /// A fleet trace from `(tenant, arrival)` pairs already in
    /// `(arrival, tenant)` order.
    fn trace_at(arrivals: &[(u32, f64)]) -> FleetTrace {
        FleetTrace {
            requests: arrivals
                .iter()
                .enumerate()
                .map(|(id, &(tenant, arrival_s))| FleetRequest {
                    id,
                    tenant,
                    arrival_s,
                    row: 0,
                })
                .collect(),
            pool_rows: 1,
        }
    }

    /// The merged batch plan of `trace`, tenants in id order.
    fn plan(trace: &FleetTrace, max_batch: usize, max_delay_s: f64) -> Vec<FleetBatch> {
        let tenant_reqs: Vec<Vec<usize>> = trace
            .tenant_ids()
            .into_iter()
            .map(|t| trace.tenant_requests(t))
            .collect();
        form_fleet_batches(trace, &tenant_reqs, max_batch, max_delay_s)
    }

    fn batch(tenant: usize, first: usize, len: usize, close_s: f64) -> FleetBatch {
        FleetBatch {
            tenant,
            first,
            len,
            close_s,
        }
    }

    #[test]
    fn full_batches_seal_on_arrival_and_stragglers_wait_out_the_timer() {
        let trace = trace_at(&[(0, 0.0), (0, 0.001), (0, 0.002), (0, 0.5)]);
        assert_eq!(
            plan(&trace, 3, 0.01),
            vec![batch(0, 0, 3, 0.002), batch(0, 3, 1, 0.51)]
        );
    }

    #[test]
    fn zero_delay_degenerates_to_row_at_a_time() {
        let trace = trace_at(&[(0, 0.0), (0, 0.1), (0, 0.2)]);
        let b = plan(&trace, 32, 0.0);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|x| x.len == 1));
    }

    #[test]
    fn tenant_plans_merge_by_seal_time_then_tenant() {
        // Tenant 0's lone request waits out the timer and seals at 0.01;
        // tenant 1's second pair fills up and seals on its last arrival,
        // also exactly 0.01. The tie goes to the lower tenant id, and
        // tenant 1's earlier full batch still dispatches first.
        let trace = trace_at(&[
            (0, 0.0),
            (1, 0.004),
            (1, 0.005),
            (1, 0.008),
            (1, 0.01),
            (0, 0.02),
        ]);
        assert_eq!(
            plan(&trace, 2, 0.01),
            vec![
                batch(1, 0, 2, 0.005),
                batch(0, 0, 1, 0.01),
                batch(1, 2, 2, 0.01),
                batch(0, 1, 1, 0.03),
            ]
        );
    }

    fn two_tenants() -> Vec<TenantSpec> {
        vec![
            TenantSpec::new(
                "alpha",
                Predictor::Constant {
                    class: 0,
                    n_classes: 2,
                },
                0.5,
            ),
            TenantSpec::new(
                "beta",
                Predictor::Constant {
                    class: 1,
                    n_classes: 2,
                },
                0.5,
            ),
        ]
    }

    fn two_regions() -> Vec<RegionSpec> {
        vec![
            RegionSpec::new("sweden", CarbonProfile::flat(GridIntensity::SWEDEN), 2),
            RegionSpec::new("poland", CarbonProfile::flat(GridIntensity::POLAND), 2),
        ]
    }

    fn mix(n_each: usize, rps: f64) -> FleetTrafficConfig {
        FleetTrafficConfig {
            tenants: vec![
                TenantTraffic {
                    tenant: 0,
                    rps,
                    shapes: vec![],
                    n_requests: n_each,
                    seed: 1,
                },
                TenantTraffic {
                    tenant: 1,
                    rps,
                    shapes: vec![],
                    n_requests: n_each,
                    seed: 2,
                },
            ],
        }
    }

    #[test]
    fn every_request_gets_its_tenants_answer() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = mix(150, 100.0).generate(pool.n_rows());
        let cfg = FleetConfig::cpu_testbed(two_regions());
        let report = run_fleet(&two_tenants(), &pool, &trace, &cfg);
        assert_eq!(report.n_requests, 300);
        for r in &trace.requests {
            assert_eq!(report.predictions[r.id], r.tenant, "tenant {}", r.tenant);
        }
        assert_eq!(report.slo_compliant_tenants(), 2);
        assert!(report.total_joules() > 0.0);
        assert!(report.kg_co2() > 0.0);
        assert!(report.makespan_s > 0.0);
        // Busy work landed somewhere; idle power burned everywhere.
        assert!(report.regions.iter().map(|r| r.batches).sum::<usize>() > 0);
        assert!(report.regions.iter().all(|r| r.replica_seconds > 0.0));
        // Startup warming cold-loaded both models in both regions.
        assert!(report.regions.iter().all(|r| r.cold_loads >= 2));
    }

    #[test]
    fn reports_are_identical_across_host_parallelism() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = mix(120, 200.0).generate(pool.n_rows());
        let mut cfg = FleetConfig::cpu_testbed(two_regions()).with_trace();
        cfg.host_parallelism = 1;
        let one = run_fleet(&two_tenants(), &pool, &trace, &cfg);
        cfg.host_parallelism = 3;
        let three = run_fleet(&two_tenants(), &pool, &trace, &cfg);
        assert_eq!(one, three);
        assert_eq!(one.to_text(), three.to_text());
    }

    #[test]
    fn carbon_aware_routing_cuts_co2_without_breaking_the_slo() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        // Constant predictors execute a 32-row batch in ~16ns of virtual
        // time, so genuine replica contention needs arrival rates on the
        // same scale: at 2.5e8 rps per tenant the single Swedish replica
        // is busy at ~25% of dispatch instants. The blind router spills
        // those batches into dirty Poland; the aware one happily waits
        // (the backlog is nanoseconds against 100ms of slack).
        let trace = mix(400, 2.5e8).generate(pool.n_rows());
        let tenants = two_tenants();
        let regions = vec![
            RegionSpec::new("sweden", CarbonProfile::flat(GridIntensity::SWEDEN), 1),
            RegionSpec::new("poland", CarbonProfile::flat(GridIntensity::POLAND), 1),
        ];
        let base = FleetConfig::cpu_testbed(regions).with_autoscale(AutoscalePolicy::pinned());
        let blind = run_fleet(
            &tenants,
            &pool,
            &trace,
            &base.clone().with_router(RouterPolicy::CarbonBlind),
        );
        let aware = run_fleet(
            &tenants,
            &pool,
            &trace,
            &base.with_router(RouterPolicy::CarbonAware {
                latency_slack_s: 0.1,
            }),
        );
        assert!(
            aware.kg_co2() < blind.kg_co2(),
            "aware {} vs blind {}",
            aware.kg_co2(),
            blind.kg_co2()
        );
        assert_eq!(aware.slo_compliant_tenants(), blind.slo_compliant_tenants());
        // The aware router shifts batches toward the clean region.
        assert!(aware.regions[0].batches > blind.regions[0].batches);
        // Moving batches moves CO₂, not Joules: busy totals match bitwise.
        let busy = |r: &FleetReport| r.regions.iter().fold(0.0, |a, x| a + x.busy_j);
        assert!((busy(&aware) - busy(&blind)).abs() < 1e-9);
    }

    #[test]
    fn queue_pressure_scales_up_and_idleness_scales_back_down() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        // A flash crowd on tenant 0 forces a deep queue, then silence.
        let trace = FleetTrafficConfig {
            tenants: vec![TenantTraffic {
                tenant: 0,
                rps: 100.0,
                // A short, sharp crowd: ~half the requests land in its
                // ~0.3s window, the rest trickle out over seconds of
                // post-crowd tail so idleness is actually observable.
                shapes: vec![Shape::FlashCrowd {
                    at_s: 0.5,
                    ramp_s: 0.1,
                    peak_factor: 40.0,
                    decay_s: 0.1,
                }],
                n_requests: 1_200,
                seed: 3,
            }],
        }
        .generate(pool.n_rows());
        let tenants = vec![two_tenants().swap_remove(0)];
        let regions = vec![RegionSpec::new(
            "sweden",
            CarbonProfile::flat(GridIntensity::SWEDEN),
            1,
        )];
        let mut autoscale = AutoscalePolicy::elastic(1, 6);
        autoscale.idle_s_down = 0.2;
        let cfg = FleetConfig::cpu_testbed(regions).with_autoscale(autoscale);
        let report = run_fleet(&tenants, &pool, &trace, &cfg);
        assert!(
            report
                .events
                .iter()
                .any(|e| e.reason == ScaleReason::QueueDepthUp),
            "flash crowd must trigger scale-up: {:?}",
            report.events
        );
        assert!(report.regions[0].peak_replicas > 1);
        assert!(
            report
                .events
                .iter()
                .any(|e| e.reason == ScaleReason::IdleDown),
            "post-crowd idleness must scale back down"
        );
        assert!(report.regions[0].final_replicas < report.regions[0].peak_replicas);
    }

    #[test]
    fn an_exhausted_energy_budget_denies_scale_up() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = FleetTrafficConfig {
            tenants: vec![TenantTraffic {
                tenant: 0,
                rps: 5_000.0,
                shapes: vec![],
                n_requests: 800,
                seed: 4,
            }],
        }
        .generate(pool.n_rows());
        // A budget of zero can never afford a scale-up cold load.
        let tenants = vec![TenantSpec::new(
            "starved",
            Predictor::Constant {
                class: 0,
                n_classes: 2,
            },
            10.0,
        )
        .with_budget_j(0.0)];
        let regions = vec![RegionSpec::new(
            "germany",
            CarbonProfile::flat(GridIntensity::GERMANY),
            1,
        )];
        let cfg = FleetConfig::cpu_testbed(regions).with_autoscale(AutoscalePolicy::elastic(1, 8));
        let report = run_fleet(&tenants, &pool, &trace, &cfg);
        assert!(report.tenants[0].budget_denials > 0);
        assert!(report
            .events
            .iter()
            .all(|e| e.reason != ScaleReason::QueueDepthUp));
        assert_eq!(report.regions[0].peak_replicas, 1);
    }

    #[test]
    fn chaos_faults_degrade_gracefully_and_only_add_energy() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = mix(200, 300.0).generate(pool.n_rows());
        let tenants = two_tenants();
        let base =
            FleetConfig::cpu_testbed(two_regions()).with_autoscale(AutoscalePolicy::pinned());
        let clean = run_fleet(&tenants, &pool, &trace, &base);
        let chaotic = run_fleet(
            &tenants,
            &pool,
            &trace,
            &base.with_fault(FaultPlan::chaos(21)),
        );
        assert!(chaotic.regions.iter().any(|r| r.wasted_j > 0.0));
        assert!(chaotic.tenants.iter().any(|t| t.retried_requests > 0));
        assert_eq!(
            chaotic
                .tenants
                .iter()
                .map(|t| t.failed_requests)
                .sum::<usize>(),
            0
        );
        assert_eq!(chaotic.predictions, clean.predictions);
        assert!(chaotic.total_joules() > clean.total_joules());
    }

    #[test]
    fn shedding_alone_fails_the_slo() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        // ~10 requests per 20 ms batch window: batches deeper than the
        // threshold at dispatch shed, the rest complete in microseconds.
        let trace = FleetTrafficConfig {
            tenants: vec![TenantTraffic {
                tenant: 0,
                rps: 500.0,
                shapes: vec![],
                n_requests: 600,
                seed: 6,
            }],
        }
        .generate(pool.n_rows());
        let tenants = vec![two_tenants().swap_remove(1)];
        let regions = vec![RegionSpec::new(
            "sweden",
            CarbonProfile::flat(GridIntensity::SWEDEN),
            1,
        )];
        let mut cfg = FleetConfig::cpu_testbed(regions).with_autoscale(AutoscalePolicy::pinned());
        let clean = run_fleet(&tenants, &pool, &trace, &cfg);
        cfg.shed_queue_depth = 10;
        let report = run_fleet(&tenants, &pool, &trace, &cfg);
        let t = &report.tenants[0];
        assert!(t.shed_requests > 0 && t.shed_requests < t.n_requests);
        assert_eq!(t.failed_requests, 0);
        assert!(t.latency.p99_s <= t.p99_slo_s, "answered requests are fast");
        assert!(clean.tenants[0].slo_ok);
        assert!(!t.slo_ok, "a shed request misses the latency objective");
        // Every request is either answered by the class-1 model or shed,
        // and shed batches burn no compute.
        let answered = report.predictions.iter().filter(|&&p| p == 1).count();
        assert_eq!(answered + t.shed_requests, t.n_requests);
        assert!(report.regions[0].busy_j < clean.regions[0].busy_j);
    }

    #[test]
    fn an_empty_trace_still_reports_the_warmed_deployment() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 10, 4, 2).generate();
        let trace = FleetTrafficConfig {
            tenants: vec![TenantTraffic {
                tenant: 0,
                rps: 0.0,
                shapes: vec![],
                n_requests: 0,
                seed: 0,
            }],
        }
        .generate(pool.n_rows());
        let tenants = vec![two_tenants().swap_remove(0)];
        let cfg = FleetConfig::cpu_testbed(two_regions());
        let report = run_fleet(&tenants, &pool, &trace, &cfg);
        assert_eq!(report.n_requests, 0);
        assert_eq!(report.n_batches, 0);
        assert_eq!(report.makespan_s, 0.0);
        // Startup warming still happened (it is part of the deployment).
        assert!(report.regions.iter().all(|r| r.cold_load_j > 0.0));
        assert!(report.events.is_empty());
    }

    #[test]
    fn registry_thrash_under_a_tight_cap_shows_up_as_cold_loads() {
        let pool = green_automl_dataset::TaskSpec::new("pool", 40, 4, 2).generate();
        let trace = mix(150, 400.0).generate(pool.n_rows());
        let tenants = two_tenants();
        let probe = tenants[0].predictor.memory_bytes();
        // Each region fits exactly ONE model: alternating tenants thrash.
        let regions =
            vec![
                RegionSpec::new("tight", CarbonProfile::flat(GridIntensity::GERMANY), 2)
                    .with_registry_capacity(1.5 * probe),
            ];
        let cfg = FleetConfig::cpu_testbed(regions).with_autoscale(AutoscalePolicy::pinned());
        let report = run_fleet(&tenants, &pool, &trace, &cfg);
        assert!(report.regions[0].evictions > 0, "one-model cap must thrash");
        assert!(report.regions[0].cold_loads > 2);
        assert!(report.regions[0].cold_load_j > 0.0);
    }
}
