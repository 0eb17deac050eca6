//! Simulated multi-host cluster execution of the benchmark grid.
//!
//! [`run_grid_cluster`] generalises the single-host work queue in
//! [`executor`](crate::executor) into a deterministic cluster: grid cells
//! are sharded across [`HostSpec`]s (each with its own
//! [`Device`](green_automl_energy::Device) profile and per-host virtual
//! clock), dataset shipping / result collection / cache synchronisation
//! are charged as virtual Joules through a [`NetworkModel`], and
//! host-level faults ([`HostFault`]: crash, straggler, partition) are
//! decided by the same pure hash-of-(seed, site) scheme as every other
//! failure in the workspace.
//!
//! ## The two-phase discipline
//!
//! The headline guarantee — `GridRun` points, span traces, and checkpoint
//! fingerprints **byte-identical at every (hosts × jobs) shape, clean and
//! chaos-faulted** — falls out of the same structure the serving fleet
//! uses:
//!
//! 1. **Compute phase** (real threads): every scheduled cell is computed
//!    exactly once over `opts.parallelism` workers. Workers take *budget
//!    chains* — the cells of one (system, dataset, seed), smallest budget
//!    first — so nested budgets replay their shared trial prefix from the
//!    eval cache rather than computing it twice on two workers at once.
//!    A cell's result is a pure function of its spec — neither the chain
//!    nor the placement can touch it. Cells on a host whose attempt-0
//!    site draws a partition run under a *frozen* [`CacheView`] taken at
//!    the cell's own start: they genuinely cannot see entries other hosts
//!    published after the partition started, which can only turn would-be
//!    cache hits into recomputes — bitwise invisible by the eval-cache
//!    energy-conservation rule. Each completed cell is journalled to its
//!    primary host's shard checkpoint the moment it finishes.
//! 2. **Placement phase** (strictly serial simulation): a deterministic
//!    event loop replays the schedule over virtual time — per-host
//!    clocks, hash sharding, transfers, host faults, capped-backoff
//!    retry, speculation — consuming the durations and energies the
//!    compute phase recorded. Everything it produces (the
//!    [`ClusterReport`], its trace, the retry counters) is a pure
//!    function of (cells, topology, fault plan), independent of how many
//!    worker threads phase 1 used.
//!
//! ## Scheduler robustness
//!
//! * A **crashed** host (never host 0 — the coordinator holds the
//!   datasets, results, and cache) burns the in-flight attempt's partial
//!   energy as `wasted_j` and dies; the lost attempt is re-queued with
//!   capped exponential backoff and its queued cells are re-sharded onto
//!   survivors.
//! * A **straggler** is detected by deterministic deadline accounting
//!   (slowdown beyond `straggler_deadline`); the cell is speculatively
//!   re-executed on the next alive host, first completion wins by a
//!   pinned total order (finish-time bits, then host id), and the
//!   loser's burn is charged as `wasted_j`.
//! * A **partitioned** host keeps computing locally (its cache hits
//!   replay locally) and delivers results — plus the cache entries it
//!   must reconcile — only when the partition heals.

use crate::benchmark::{
    enumerate_cells, grid_fingerprint, run_once_in, BenchmarkOptions, BenchmarkPoint, CellFailure,
    GridRun,
};
use crate::checkpoint::{self, shard_path, Checkpoint};
use crate::executor::{self, CellOutcome, DatasetCache};
use green_automl_dataset::{DatasetMeta, MaterializeOptions};
use green_automl_energy::hash::fnv1a_p44;
use green_automl_energy::trace::span_id;
use green_automl_energy::tracker::EnergyBreakdown;
use green_automl_energy::{
    Device, FaultInjector, FaultKind, HostFault, MetricsRegistry, OpCounts, Span, SpanKind,
    StableHasher, Trace,
};
use green_automl_ml::{CacheView, EvalCache};
use green_automl_systems::{AutoMlSystem, FitContext, RunSpec, RunSpecError};
use std::collections::{HashSet, VecDeque};
use std::path::Path;

/// Domain tag for primary shard placement.
const TAG_SHARD: u64 = 0x7421_a11a_5f4e_0010;
/// Domain tag for re-shard targets after a host crash.
const TAG_RESHARD: u64 = 0x7421_a11a_5f4e_0011;
/// Domain tag for cluster trace span ids (disjoint from every per-cell
/// tracer seed, so merged traces keep unique ids).
const TAG_CLUSTER_TRACE: u64 = 0x636c_7573; // "clus"

/// Serialized size charged per collected benchmark point.
const RESULT_BYTES_PER_POINT: f64 = 256.0;
/// Serialized size charged per eval-cache entry a rejoining host syncs.
const SYNC_BYTES_PER_EVAL: f64 = 4096.0;

/// One simulated machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpec {
    /// The host's device (power/throughput) profile.
    pub device: Device,
    /// Cores the host exposes to the scheduler.
    pub cores: usize,
}

impl HostSpec {
    /// Host 0's profile: the paper's CPU testbed, colocated with the
    /// dataset store, result sink, and cache authority.
    pub fn coordinator() -> HostSpec {
        HostSpec {
            device: Device::xeon_gold_6132(),
            cores: 28,
        }
    }

    /// A commodity worker node.
    pub fn worker() -> HostSpec {
        HostSpec {
            device: Device::cluster_node(),
            cores: 16,
        }
    }
}

/// Virtual network cost model: every byte shipped between hosts costs
/// wall-clock seconds (latency + bandwidth) and Joules (NIC + switch
/// energy), charged to the non-coordinator endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Sustained throughput, bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Fixed per-transfer latency, seconds.
    pub latency_s: f64,
    /// Transfer energy, Joules per byte.
    pub joules_per_byte: f64,
}

impl NetworkModel {
    /// A 10 GbE fabric: 1.25 GB/s, 0.5 ms RTT, 20 nJ/byte.
    pub fn ten_gbe() -> NetworkModel {
        NetworkModel {
            bandwidth_bytes_per_s: 1.25e9,
            latency_s: 5.0e-4,
            joules_per_byte: 2.0e-8,
        }
    }

    /// Virtual seconds to move `bytes`.
    pub fn transfer_s(&self, bytes: f64) -> f64 {
        self.latency_s + bytes / self.bandwidth_bytes_per_s
    }

    /// Virtual Joules to move `bytes`.
    pub fn transfer_j(&self, bytes: f64) -> f64 {
        self.joules_per_byte * bytes
    }
}

/// Cluster topology and scheduler policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOptions {
    /// The hosts, in id order. Host 0 is the coordinator: crash- and
    /// partition-immune (it *is* the store every transfer talks to).
    pub hosts: Vec<HostSpec>,
    /// The interconnect cost model.
    pub network: NetworkModel,
    /// A cell whose slowdown factor reaches this bound is declared a
    /// straggler and speculatively re-executed on another alive host.
    pub straggler_deadline: f64,
    /// Base of the capped exponential backoff for crash-lost attempts.
    pub backoff_base_s: f64,
    /// Exponent cap: backoff is `base * 2^min(attempt, cap)` seconds.
    pub backoff_cap: u32,
}

impl ClusterOptions {
    /// The degenerate one-host cluster [`run_grid_checked`] runs on —
    /// behaviourally identical to the pre-cluster executor.
    ///
    /// [`run_grid_checked`]: crate::benchmark::run_grid_checked
    pub fn single_host() -> ClusterOptions {
        ClusterOptions::uniform(1)
    }

    /// A coordinator plus `n_hosts - 1` workers with alternating
    /// commodity / GPU-node-without-GPU device profiles.
    pub fn uniform(n_hosts: usize) -> ClusterOptions {
        let mut hosts = vec![HostSpec::coordinator()];
        for h in 1..n_hosts.max(1) {
            hosts.push(if h % 2 == 1 {
                HostSpec::worker()
            } else {
                HostSpec {
                    device: Device::gpu_node_cpu_only(),
                    cores: 8,
                }
            });
        }
        ClusterOptions {
            hosts,
            network: NetworkModel::ten_gbe(),
            straggler_deadline: 3.0,
            backoff_base_s: 0.5,
            backoff_cap: 6,
        }
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }
}

/// Per-host accounting of one cluster run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostStats {
    /// Host id (0 = coordinator).
    pub host: usize,
    /// Device name.
    pub device: String,
    /// Cells this host completed (wins only, not wasted attempts).
    pub cells_run: usize,
    /// Local compute seconds (including slowed and wasted attempts).
    pub busy_s: f64,
    /// Final local clock (death instant for a crashed host).
    pub clock_s: f64,
    /// Joules burned computing winning attempts at nominal speed.
    pub busy_j: f64,
    /// Joules moved over the network (datasets in, results/sync out).
    pub transfer_j: f64,
    /// Joules burned by crash-killed and speculation-losing attempts.
    pub wasted_j: f64,
    /// Straggler surcharge: Joules beyond the nominal cost of the
    /// attempts that still won.
    pub overhead_j: f64,
    /// Joules idled away waiting for work or the grid's end.
    pub idle_j: f64,
    /// Bytes received (dataset shipping).
    pub bytes_in: f64,
    /// Bytes sent (result collection + cache sync).
    pub bytes_out: f64,
    /// Whether the host crashed during the run.
    pub crashed: bool,
    /// Attempts this host lost to its own crash.
    pub retried: usize,
    /// Speculative copies launched *because this host straggled*.
    pub speculated: usize,
    /// Queued cells drained off this host when it crashed.
    pub requeued: usize,
}

impl HostStats {
    /// Total Joules attributed to the host.
    pub fn total_j(&self) -> f64 {
        self.busy_j + self.transfer_j + self.wasted_j + self.overhead_j + self.idle_j
    }
}

/// The deterministic outcome of the placement phase: per-host accounting,
/// fault/retry totals, and the cluster-level span trace. A pure function
/// of (cells, topology, fault plan) — independent of `--jobs`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterReport {
    /// Number of hosts simulated.
    pub n_hosts: usize,
    /// Cells scheduled this run (excludes checkpoint-replayed cells).
    pub scheduled_cells: usize,
    /// Virtual completion time of the whole grid, seconds.
    pub makespan_s: f64,
    /// Per-host accounting, in host-id order.
    pub hosts: Vec<HostStats>,
    /// Attempts lost to host crashes and retried with backoff.
    pub retried_cells: usize,
    /// Queued cells re-sharded off crashed hosts.
    pub requeued_cells: usize,
    /// Cells speculatively re-executed for straggling.
    pub speculated_cells: usize,
    /// Straggler faults drawn (speculated or merely slowed).
    pub stragglers: usize,
    /// Partition faults drawn.
    pub partitions: usize,
    /// Hosts that crashed.
    pub host_crashes: usize,
    /// Faults drawn against the immune coordinator and suppressed.
    pub suppressed_faults: usize,
    /// Cells whose compute ran under a frozen (partitioned) cache view.
    pub cache_frozen_cells: usize,
    /// Total network Joules.
    pub transfer_j: f64,
    /// Total wasted Joules (crash-killed + speculation losers).
    pub wasted_j: f64,
    /// Cluster-level span trace: one `Host` span per host, one `Trial`
    /// span per executed attempt, one `Transfer` span per shipment.
    pub trace: Trace,
}

impl ClusterReport {
    /// Canonical text rendering (deterministic: every float through
    /// bit-exact `{:.6}` of values that are themselves deterministic).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster: {} hosts, {} cells, makespan {:.6} s\n",
            self.n_hosts, self.scheduled_cells, self.makespan_s
        ));
        out.push_str(&format!(
            "faults: {} crashes, {} stragglers, {} partitions, {} suppressed\n",
            self.host_crashes, self.stragglers, self.partitions, self.suppressed_faults
        ));
        out.push_str(&format!(
            "recovery: {} retried, {} requeued, {} speculated, {} frozen-view\n",
            self.retried_cells, self.requeued_cells, self.speculated_cells, self.cache_frozen_cells
        ));
        out.push_str(&format!(
            "energy: transfer {:.6} J, wasted {:.6} J\n",
            self.transfer_j, self.wasted_j
        ));
        for h in &self.hosts {
            out.push_str(&format!(
                "host {} [{}]{}: {} cells, busy {:.6} s, clock {:.6} s, \
                 busy {:.6} J, transfer {:.6} J, wasted {:.6} J, overhead {:.6} J, \
                 idle {:.6} J, in {} B, out {} B, retried {}, speculated {}, requeued {}\n",
                h.host,
                h.device,
                if h.crashed { " CRASHED" } else { "" },
                h.cells_run,
                h.busy_s,
                h.clock_s,
                h.busy_j,
                h.transfer_j,
                h.wasted_j,
                h.overhead_j,
                h.idle_j,
                h.bytes_in,
                h.bytes_out,
                h.retried,
                h.speculated,
                h.requeued,
            ));
        }
        out
    }

    /// FNV fingerprint of the canonical text plus the serialized trace —
    /// equal fingerprints mean byte-identical reports.
    pub fn fingerprint(&self) -> u64 {
        checkpoint::fingerprint(&[
            fnv1a_p44(self.to_text().bytes()),
            fnv1a_p44(self.trace.to_jsonl().bytes()),
        ])
    }

    /// Export the report's counters into a metrics registry.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("cluster_hosts", self.n_hosts as u64);
        reg.inc("cluster_scheduled_cells", self.scheduled_cells as u64);
        reg.inc("cluster_retried_cells", self.retried_cells as u64);
        reg.inc("cluster_requeued_cells", self.requeued_cells as u64);
        reg.inc("cluster_speculated_cells", self.speculated_cells as u64);
        reg.inc("cluster_stragglers", self.stragglers as u64);
        reg.inc("cluster_partitions", self.partitions as u64);
        reg.inc("cluster_host_crashes", self.host_crashes as u64);
        reg.inc("cluster_suppressed_faults", self.suppressed_faults as u64);
        reg.inc("cluster_cache_frozen_cells", self.cache_frozen_cells as u64);
        reg.add("cluster_makespan_s", self.makespan_s);
        reg.add("cluster_transfer_j", self.transfer_j);
        reg.add("cluster_wasted_j", self.wasted_j);
        for h in &self.hosts {
            reg.add("cluster_host_total_j", h.total_j());
        }
    }
}

/// A cluster grid run: the placement-invariant [`GridRun`] artefact plus
/// the topology-dependent [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGridRun {
    /// The grid output — byte-identical at every (hosts × jobs) shape.
    pub grid: GridRun,
    /// The cluster accounting — deterministic per topology.
    pub report: ClusterReport,
}

/// The primary shard placement of reference cell `cell`: a pure hash of
/// (grid seed, cell index), so placement never depends on `--jobs`.
fn primary_host(seed: u64, cell: usize, n_hosts: usize) -> usize {
    if n_hosts <= 1 {
        return 0;
    }
    let mut h = StableHasher::new(TAG_SHARD);
    h.write_u64(seed);
    h.write_u64(cell as u64);
    (h.finish() % n_hosts as u64) as usize
}

/// The re-shard target (an index into the alive-host list) for an attempt
/// drained off a crashed host.
fn reshard_slot(seed: u64, cell: usize, attempt: u64, n_alive: usize) -> usize {
    let mut h = StableHasher::new(TAG_RESHARD);
    h.write_u64(seed);
    h.write_u64(cell as u64);
    h.write_u64(attempt);
    (h.finish() % n_alive.max(1) as u64) as usize
}

/// What the placement phase needs to know about one computed cell.
struct CellSim {
    /// Reference serial cell index.
    cell: usize,
    /// Human label for trace spans.
    label: String,
    /// Dataset identity for once-per-host shipping.
    dataset_idx: usize,
    /// Serialized dataset size, bytes.
    dataset_bytes: f64,
    /// Serialized result size, bytes.
    result_bytes: f64,
    /// Reference-device execution duration, seconds.
    duration_s: f64,
    /// Pipelines evaluated (drives cache-sync volume on rejoin).
    n_evaluations: usize,
}

/// One queued execution attempt.
struct Attempt {
    /// Index into the schedule's `CellSim` list.
    k: usize,
    /// Attempt number (0 = first execution).
    attempt: u64,
    /// Earliest virtual start (crash backoff).
    not_before: f64,
}

/// Mutable per-host state of the placement simulation.
struct SimHost {
    spec: HostSpec,
    clock: f64,
    alive: bool,
    /// Seconds spent computing or transferring (for idle accounting).
    active_s: f64,
    shipped: HashSet<usize>,
    queue: VecDeque<Attempt>,
    stats: HostStats,
}

impl SimHost {
    /// Cores the cell's spec actually occupies here.
    fn alloc(&self, spec_cores: usize) -> usize {
        spec_cores.min(self.spec.device.cpu.cores).max(1)
    }

    /// Package+DRAM Watts while computing one cell.
    fn busy_w(&self, spec_cores: usize) -> f64 {
        let a = self.alloc(spec_cores);
        self.spec.device.cpu_power_w(a, a as f64)
    }

    /// Package+DRAM Watts while idle.
    fn idle_w(&self) -> f64 {
        self.spec.device.cpu_power_w(0, 0.0)
    }
}

/// The strictly serial placement simulation. See the module docs.
struct Sim<'a> {
    hosts: Vec<SimHost>,
    cluster: &'a ClusterOptions,
    injector: &'a FaultInjector,
    spec_cores: usize,
    /// Reference-device per-core rate, for the host speed factor.
    ref_core_rate: f64,
    trace_seed: u64,
    next_seq: u64,
    spans: Vec<Span>,
    report: ClusterReport,
}

impl<'a> Sim<'a> {
    fn new(cluster: &'a ClusterOptions, spec: &RunSpec, injector: &'a FaultInjector) -> Sim<'a> {
        let hosts = cluster
            .hosts
            .iter()
            .enumerate()
            .map(|(h, &spec_h)| SimHost {
                spec: spec_h,
                clock: 0.0,
                alive: true,
                active_s: 0.0,
                shipped: HashSet::new(),
                queue: VecDeque::new(),
                stats: HostStats {
                    host: h,
                    device: spec_h.device.name.to_string(),
                    ..HostStats::default()
                },
            })
            .collect();
        Sim {
            hosts,
            cluster,
            injector,
            spec_cores: spec.cores,
            ref_core_rate: spec.device.cpu.scalar_flops_per_core,
            trace_seed: spec.seed ^ TAG_CLUSTER_TRACE,
            // Host spans take sequence numbers 0..n; event spans follow.
            next_seq: cluster.hosts.len() as u64,
            spans: Vec::new(),
            report: ClusterReport {
                n_hosts: cluster.hosts.len(),
                ..ClusterReport::default()
            },
        }
    }

    /// The pre-assigned id of host `h`'s root span.
    fn host_span_id(&self, h: usize) -> u64 {
        span_id(self.trace_seed, h as u64)
    }

    fn next_span_id(&mut self) -> u64 {
        let id = span_id(self.trace_seed, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// This cell's duration on host `h` (reference duration scaled by the
    /// per-core throughput ratio).
    fn local_duration(&self, h: usize, ref_duration_s: f64) -> f64 {
        ref_duration_s * self.ref_core_rate / self.hosts[h].spec.device.cpu.scalar_flops_per_core
    }

    /// Charge a transfer touching non-coordinator host `h` starting at
    /// `at`, and return its completion time. Time and Joules land on `h`
    /// (the coordinator's NIC is assumed concurrent).
    fn transfer(&mut self, h: usize, at: f64, bytes: f64, inbound: bool, label: String) -> f64 {
        let dur = self.cluster.network.transfer_s(bytes);
        let joules = self.cluster.network.transfer_j(bytes);
        let id = self.next_span_id();
        let parent = self.host_span_id(h);
        let host = &mut self.hosts[h];
        host.active_s += dur;
        host.stats.transfer_j += joules;
        if inbound {
            host.stats.bytes_in += bytes;
        } else {
            host.stats.bytes_out += bytes;
        }
        self.report.transfer_j += joules;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            kind: SpanKind::Transfer,
            label,
            track: h as u32,
            start_s: at,
            end_s: at + dur,
            energy: EnergyBreakdown {
                package_j: joules,
                dram_j: 0.0,
                gpu_j: 0.0,
            },
            ops: OpCounts::ZERO,
            fault: None,
        });
        at + dur
    }

    /// Ship `sim`'s dataset to host `h` if it has not been shipped yet;
    /// returns the time the data is resident given a start at `at`.
    fn ensure_dataset(&mut self, h: usize, at: f64, sim: &CellSim) -> f64 {
        if h == 0 || self.hosts[h].shipped.contains(&sim.dataset_idx) {
            return at;
        }
        self.hosts[h].shipped.insert(sim.dataset_idx);
        self.transfer(
            h,
            at,
            sim.dataset_bytes,
            true,
            format!("ship d{} -> host {h}", sim.dataset_idx),
        )
    }

    /// Record one executed attempt as a `Trial` span.
    #[allow(clippy::too_many_arguments)]
    fn attempt_span(
        &mut self,
        h: usize,
        sim: &CellSim,
        attempt: u64,
        start: f64,
        end: f64,
        joules: f64,
        fault: Option<FaultKind>,
    ) {
        let id = self.next_span_id();
        self.spans.push(Span {
            id,
            parent: Some(self.host_span_id(h)),
            kind: SpanKind::Trial,
            label: format!("{} a{attempt}", sim.label),
            track: h as u32,
            start_s: start,
            end_s: end,
            energy: EnergyBreakdown {
                package_j: joules,
                dram_j: 0.0,
                gpu_j: 0.0,
            },
            ops: OpCounts::ZERO,
            fault,
        });
    }

    /// The next alive host after `h` in ring order, excluding `h`.
    fn ring_next_alive(&self, h: usize) -> Option<usize> {
        let n = self.hosts.len();
        (1..n).map(|d| (h + d) % n).find(|&c| self.hosts[c].alive)
    }

    /// Deliver a completed cell's result from host `h` at local time
    /// `at`, plus `sync_bytes` of cache reconciliation, and count the cell
    /// as run on `h`; returns the delivery completion time on `h`'s clock.
    fn deliver(&mut self, h: usize, at: f64, sim: &CellSim, sync_bytes: f64) -> f64 {
        self.hosts[h].stats.cells_run += 1;
        if h == 0 {
            return at; // results are born on the coordinator
        }
        self.transfer(
            h,
            at,
            sim.result_bytes + sync_bytes,
            false,
            format!("collect {} <- host {h}", sim.label),
        )
    }

    /// Run the event loop over `sims`, with each cell seeded on its
    /// primary host, and finalize the report.
    fn run(mut self, sims: &[CellSim], grid_seed: u64) -> ClusterReport {
        let n_hosts = self.hosts.len();
        for (k, sim) in sims.iter().enumerate() {
            let home = primary_host(grid_seed, sim.cell, n_hosts);
            self.hosts[home].queue.push_back(Attempt {
                k,
                attempt: 0,
                not_before: 0.0,
            });
        }
        self.report.scheduled_cells = sims.len();

        loop {
            // Pick the alive host whose next attempt can start earliest
            // (ties broken by host id — the pinned total order).
            let mut best: Option<(f64, usize)> = None;
            for (h, host) in self.hosts.iter().enumerate() {
                if !host.alive || host.queue.is_empty() {
                    continue;
                }
                let front = host.queue.front().expect("non-empty queue");
                let start = host.clock.max(front.not_before);
                if best.is_none_or(|(bs, _)| start < bs) {
                    best = Some((start, h));
                }
            }
            let Some((start, h)) = best else { break };
            let at = self.hosts[h].queue.pop_front().expect("picked non-empty");
            let sim = &sims[at.k];
            self.hosts[h].clock = start;

            let start = self.ensure_dataset(h, start, sim);
            self.hosts[h].clock = start;

            let fault = match self
                .injector
                .host_fault(h as u64, sim.cell as u64, at.attempt)
            {
                // The coordinator cannot crash away from itself or
                // partition from its own store; count and suppress.
                Some(HostFault::Crash { .. }) | Some(HostFault::Partition { .. }) if h == 0 => {
                    self.report.suppressed_faults += 1;
                    None
                }
                f => f,
            };

            let local_d = self.local_duration(h, sim.duration_s);
            let busy_w = self.hosts[h].busy_w(self.spec_cores);

            match fault {
                Some(HostFault::Crash { wasted_frac }) => {
                    let burn_s = wasted_frac * local_d;
                    let crash_t = start + burn_s;
                    self.report.host_crashes += 1;
                    self.report.retried_cells += 1;
                    self.report.wasted_j += busy_w * burn_s;
                    self.attempt_span(
                        h,
                        sim,
                        at.attempt,
                        start,
                        crash_t,
                        busy_w * burn_s,
                        Some(FaultKind::Crash),
                    );
                    {
                        let host = &mut self.hosts[h];
                        host.alive = false;
                        host.clock = crash_t;
                        host.active_s += burn_s;
                        host.stats.crashed = true;
                        host.stats.wasted_j += busy_w * burn_s;
                        host.stats.busy_s += burn_s;
                        host.stats.retried += 1;
                    }
                    // Re-queue the lost attempt with capped exponential
                    // backoff, then drain the dead host's queue onto
                    // survivors by hash re-sharding.
                    let backoff = self.cluster.backoff_base_s
                        * f64::from(1u32 << at.attempt.min(self.cluster.backoff_cap as u64) as u32);
                    let alive: Vec<usize> = (0..n_hosts).filter(|&c| self.hosts[c].alive).collect();
                    let retry_to =
                        alive[reshard_slot(grid_seed, sim.cell, at.attempt + 1, alive.len())];
                    self.hosts[retry_to].queue.push_back(Attempt {
                        k: at.k,
                        attempt: at.attempt + 1,
                        not_before: crash_t + backoff,
                    });
                    let drained: Vec<Attempt> = self.hosts[h].queue.drain(..).collect();
                    self.hosts[h].stats.requeued += drained.len();
                    self.report.requeued_cells += drained.len();
                    for q in drained {
                        let target =
                            alive[reshard_slot(grid_seed, sims[q.k].cell, q.attempt, alive.len())];
                        self.hosts[target].queue.push_back(Attempt {
                            not_before: q.not_before.max(crash_t),
                            ..q
                        });
                    }
                }
                Some(HostFault::Straggler { slowdown }) => {
                    self.report.stragglers += 1;
                    let slowed = local_d * slowdown;
                    let t_primary = start + slowed;
                    let copy_host = self.ring_next_alive(h);
                    let speculate =
                        slowdown >= self.cluster.straggler_deadline && copy_host.is_some();
                    if speculate {
                        let h2 = copy_host.expect("speculate requires a copy host");
                        self.report.speculated_cells += 1;
                        self.hosts[h].stats.speculated += 1;
                        // The deadline accountant notices the primary is
                        // `straggler_deadline`× over plan and launches the
                        // copy — no fault draw for the copy itself.
                        let detect = start + local_d * self.cluster.straggler_deadline;
                        let copy_start = self.hosts[h2].clock.max(detect);
                        let copy_start = self.ensure_dataset(h2, copy_start, sim);
                        let local_d2 = self.local_duration(h2, sim.duration_s);
                        let busy_w2 = self.hosts[h2].busy_w(self.spec_cores);
                        let t_copy = copy_start + local_d2;
                        // First completion wins by the pinned total order
                        // (finish bits, then host id).
                        let primary_wins = (t_primary.to_bits(), h) < (t_copy.to_bits(), h2);
                        self.attempt_span(
                            h,
                            sim,
                            at.attempt,
                            start,
                            t_primary,
                            busy_w * slowed,
                            None,
                        );
                        self.attempt_span(
                            h2,
                            sim,
                            at.attempt,
                            copy_start,
                            t_copy,
                            busy_w2 * local_d2,
                            None,
                        );
                        {
                            let host = &mut self.hosts[h];
                            host.clock = t_primary;
                            host.active_s += slowed;
                            host.stats.busy_s += slowed;
                        }
                        {
                            let host2 = &mut self.hosts[h2];
                            host2.clock = t_copy;
                            host2.active_s += local_d2;
                            host2.stats.busy_s += local_d2;
                        }
                        if primary_wins {
                            self.hosts[h].stats.busy_j += busy_w * local_d;
                            self.hosts[h].stats.overhead_j += busy_w * (slowed - local_d);
                            self.hosts[h2].stats.wasted_j += busy_w2 * local_d2;
                            self.report.wasted_j += busy_w2 * local_d2;
                            let t = self.deliver(h, t_primary, sim, 0.0);
                            self.hosts[h].clock = t;
                        } else {
                            self.hosts[h2].stats.busy_j += busy_w2 * local_d2;
                            self.hosts[h].stats.wasted_j += busy_w * slowed;
                            self.report.wasted_j += busy_w * slowed;
                            let t = self.deliver(h2, t_copy, sim, 0.0);
                            self.hosts[h2].clock = t;
                        }
                    } else {
                        // Under the deadline (or nowhere to speculate):
                        // the cell just runs slow; the surcharge is
                        // overhead, not waste.
                        self.attempt_span(
                            h,
                            sim,
                            at.attempt,
                            start,
                            t_primary,
                            busy_w * slowed,
                            None,
                        );
                        {
                            let host = &mut self.hosts[h];
                            host.clock = t_primary;
                            host.active_s += slowed;
                            host.stats.busy_s += slowed;
                            host.stats.busy_j += busy_w * local_d;
                            host.stats.overhead_j += busy_w * (slowed - local_d);
                        }
                        let t = self.deliver(h, t_primary, sim, 0.0);
                        self.hosts[h].clock = t;
                    }
                }
                Some(HostFault::Partition { duration_s }) => {
                    self.report.partitions += 1;
                    let finish = start + local_d;
                    self.attempt_span(h, sim, at.attempt, start, finish, busy_w * local_d, None);
                    {
                        let host = &mut self.hosts[h];
                        host.active_s += local_d;
                        host.stats.busy_s += local_d;
                        host.stats.busy_j += busy_w * local_d;
                    }
                    // The host keeps computing behind the partition; the
                    // result — and the cache entries it must reconcile —
                    // leave only once the partition heals.
                    let rejoin = finish.max(start + duration_s);
                    let sync_bytes = sim.n_evaluations as f64 * SYNC_BYTES_PER_EVAL;
                    let t = self.deliver(h, rejoin, sim, sync_bytes);
                    self.hosts[h].clock = t.max(finish);
                }
                None => {
                    let finish = start + local_d;
                    self.attempt_span(h, sim, at.attempt, start, finish, busy_w * local_d, None);
                    {
                        let host = &mut self.hosts[h];
                        host.clock = finish;
                        host.active_s += local_d;
                        host.stats.busy_s += local_d;
                        host.stats.busy_j += busy_w * local_d;
                    }
                    let t = self.deliver(h, finish, sim, 0.0);
                    self.hosts[h].clock = t;
                }
            }
        }

        // Finalize: makespan, idle energy, host root spans.
        let makespan = self.hosts.iter().map(|h| h.clock).fold(0.0f64, f64::max);
        self.report.makespan_s = makespan;
        let mut host_spans = Vec::with_capacity(n_hosts);
        for h in 0..n_hosts {
            let end = if self.hosts[h].alive {
                makespan
            } else {
                self.hosts[h].clock
            };
            let idle = (end - self.hosts[h].active_s).max(0.0) * self.hosts[h].idle_w();
            let host = &mut self.hosts[h];
            host.stats.idle_j = idle;
            host.stats.clock_s = host.clock;
            host_spans.push(Span {
                id: span_id(self.trace_seed, h as u64),
                parent: None,
                kind: SpanKind::Host,
                label: format!("host {h} ({})", host.spec.device.name),
                track: h as u32,
                start_s: 0.0,
                end_s: end,
                energy: EnergyBreakdown {
                    package_j: host.stats.total_j(),
                    dram_j: 0.0,
                    gpu_j: 0.0,
                },
                ops: OpCounts::ZERO,
                fault: host.stats.crashed.then_some(FaultKind::Crash),
            });
        }
        // Root spans first, then events in simulation order.
        host_spans.extend(std::mem::take(&mut self.spans));
        self.report.trace = Trace { spans: host_spans };
        self.report.hosts = self.hosts.into_iter().map(|h| h.stats).collect();
        self.report
    }
}

/// Run the benchmark grid on a simulated cluster.
///
/// The compute phase executes every scheduled cell once over
/// `opts.parallelism` real worker threads (sharing one [`DatasetCache`]
/// and, when enabled, one cross-host [`EvalCache`]), one budget chain per
/// task, journalling each completed cell to its primary host's shard
/// checkpoint. The placement phase then simulates the cluster schedule —
/// per-host clocks, network transfers, host faults, retry/speculation —
/// over virtual time.
///
/// The returned [`ClusterGridRun::grid`] is **byte-identical at every
/// (hosts × jobs) shape**, clean and chaos-faulted; the
/// [`ClusterGridRun::report`] is deterministic per topology.
pub fn run_grid_cluster(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    budgets: &[f64],
    spec_base: &RunSpec,
    opts: &BenchmarkOptions,
    cluster: &ClusterOptions,
    checkpoint_path: Option<&Path>,
) -> Result<ClusterGridRun, RunSpecError> {
    spec_base.validate()?;
    assert!(
        !cluster.hosts.is_empty(),
        "a cluster needs at least one host"
    );
    let n_hosts = cluster.hosts.len();
    let cells = enumerate_cells(systems, datasets, budgets, spec_base, opts);
    let injector = FaultInjector::new(spec_base.fault);

    // One shard checkpoint per host; an unwritable shard degrades to a
    // plain run for the cells it would have journalled.
    let shards: Vec<Option<Checkpoint>> = match checkpoint_path {
        Some(path) => {
            let fp = grid_fingerprint(systems, datasets, budgets, spec_base, opts);
            (0..n_hosts)
                .map(|h| Checkpoint::open(&shard_path(path, h, n_hosts), fp).ok())
                .collect()
        }
        None => (0..n_hosts).map(|_| None).collect(),
    };
    // A completed cell replays from *any* shard, so journals survive a
    // topology change between runs as long as the shard files exist.
    let replay = |i: usize| shards.iter().flatten().find_map(|c| c.completed(i));

    let todo: Vec<usize> = (0..cells.len()).filter(|&i| replay(i).is_none()).collect();
    let resumed_cells = cells.len() - todo.len();

    let workers = executor::resolve_parallelism(opts.parallelism);
    let ds_cache = DatasetCache::new();
    // One cross-host evaluation memo table for the whole grid. The cache
    // (and each host's view of it) cannot change any point: hits replay
    // the recorded charges bitwise.
    let eval_cache = opts.eval_cache.then(EvalCache::new);

    // Is this cell's primary host partitioned at its first attempt? Pure
    // in (plan, topology, cell) — known before the cell starts, so the
    // compute phase can run it under the frozen view the simulated host
    // would actually hold.
    let frozen_home = |i: usize| -> Option<usize> {
        let home = primary_host(spec_base.seed, i, n_hosts);
        (home != 0
            && matches!(
                injector.host_fault(home as u64, i as u64, 0),
                Some(HostFault::Partition { .. })
            ))
        .then_some(home)
    };

    // ---- Phase 1: compute every scheduled cell (real parallelism). ----
    // One cell: panic-isolated, with its own frozen-view check at cell
    // start, journalled to its home shard the moment it finishes.
    let run_cell = |i: usize| -> CellOutcome<Vec<BenchmarkPoint>> {
        let cell = &cells[i];
        let home = primary_host(spec_base.seed, i, n_hosts);
        let outcome = executor::catch_cell(|| {
            let system = systems[cell.system_idx].as_ref();
            let meta = &datasets[cell.dataset_idx];
            let spec = RunSpec {
                seed: cell.seed,
                budget_s: cell
                    .budget_s
                    .unwrap_or_else(|| budgets.first().copied().unwrap_or(10.0)),
                ..*spec_base
            };
            let m_opts = MaterializeOptions {
                seed: spec.seed,
                ..opts.materialize
            };
            let ds = ds_cache.materialize(meta, &m_opts);
            let view = match (&eval_cache, frozen_home(i)) {
                (Some(c), Some(home)) => CacheView {
                    host: home as u64,
                    horizon: Some(c.current_epoch()),
                },
                _ => CacheView {
                    host: home as u64,
                    horizon: None,
                },
            };
            let ctx = match &eval_cache {
                Some(c) => FitContext::with_cache(c).viewed(view),
                None => FitContext::default(),
            };
            let point = run_once_in(system, meta, &ds, &spec, opts, &ctx);
            match cell.budget_s {
                Some(_) => vec![point],
                None => budgets
                    .iter()
                    .map(|&b| {
                        let mut p = point.clone();
                        p.budget_s = b;
                        p
                    })
                    .collect(),
            }
        });
        if let Some(ck) = &shards[home] {
            // Flush the sealed cell immediately: kill-safety beats a
            // write error here, which only costs a future resume.
            let _ = match &outcome {
                CellOutcome::Ok(points) => ck.record_points(i, points),
                CellOutcome::Failed(message) => ck.record_failure(i, message),
            };
        }
        outcome
    };
    // Workers take budget chains, not single cells: the consecutive `todo`
    // cells of one (system, dataset, seed), run in ascending-budget order.
    // Nested budgets replay one trial prefix, so each larger budget hits
    // what its chain's smaller ones just cached instead of recomputing it
    // on another worker at the same time.
    let budget_of = |i: usize| cells[i].budget_s.unwrap_or(0.0);
    let chains: Vec<Vec<usize>> = todo
        .chunk_by(|&a, &b| {
            let (a, b) = (&cells[a], &cells[b]);
            (a.system_idx, a.dataset_idx, a.seed) == (b.system_idx, b.dataset_idx, b.seed)
        })
        .map(|chain| {
            let mut chain = chain.to_vec();
            chain.sort_by(|&a, &b| budget_of(a).total_cmp(&budget_of(b)));
            chain
        })
        .collect();
    let mut ran: Vec<(usize, CellOutcome<Vec<BenchmarkPoint>>)> =
        executor::run_indexed(chains.len(), workers, |c| {
            chains[c]
                .iter()
                .map(|&i| (i, run_cell(i)))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    // Back into `todo` order, so nothing below sees the chains.
    ran.sort_unstable_by_key(|&(i, _)| i);
    let fresh: Vec<CellOutcome<Vec<BenchmarkPoint>>> =
        ran.into_iter().map(|(_, outcome)| outcome).collect();

    // ---- Phase 2: serial placement simulation over virtual time. ----
    let sims: Vec<CellSim> = todo
        .iter()
        .zip(&fresh)
        .map(|(&i, outcome)| {
            let cell = &cells[i];
            let meta = &datasets[cell.dataset_idx];
            let system = systems[cell.system_idx].as_ref();
            let rows = meta.instances.min(opts.materialize.max_rows);
            let feats = meta.features.min(opts.materialize.max_features);
            let label = format!(
                "{}/{}/s{}{}",
                system.name(),
                meta.name,
                cell.seed,
                cell.budget_s.map(|b| format!("/b{b}")).unwrap_or_default()
            );
            let (duration_s, result_bytes, n_evaluations) = match outcome {
                CellOutcome::Ok(points) => {
                    let first = points.first();
                    (
                        first.map_or(0.0, |p| p.execution.duration_s),
                        RESULT_BYTES_PER_POINT * points.len() as f64,
                        first.map_or(0, |p| p.n_evaluations),
                    )
                }
                CellOutcome::Failed(message) => (
                    // A crashed cell is assumed to die at its budget; it
                    // ships only the panic message home.
                    cell.budget_s
                        .unwrap_or_else(|| budgets.first().copied().unwrap_or(10.0)),
                    64.0 + message.len() as f64,
                    0,
                ),
            };
            CellSim {
                cell: i,
                label,
                dataset_idx: cell.dataset_idx,
                dataset_bytes: (rows * (feats + 1) * 8) as f64,
                result_bytes,
                duration_s,
                n_evaluations,
            }
        })
        .collect();

    let mut report = Sim::new(cluster, spec_base, &injector).run(&sims, spec_base.seed);
    report.cache_frozen_cells = todo.iter().filter(|&&i| frozen_home(i).is_some()).count();

    // ---- Reassemble the grid in the reference serial cell order. ----
    let mut fresh_iter = fresh.into_iter();
    let (eval_cache_hits, eval_cache_misses) = eval_cache.as_ref().map_or((0, 0), EvalCache::stats);
    let mut grid = GridRun {
        resumed_cells,
        eval_cache_hits,
        eval_cache_misses,
        retried_cells: report.retried_cells,
        speculated_cells: report.speculated_cells,
        requeued_cells: report.requeued_cells,
        ..GridRun::default()
    };
    for (i, cell) in cells.iter().enumerate() {
        let (points, failure) = match replay(i) {
            Some(done) => (done.points.clone(), done.failure.clone()),
            None => match fresh_iter.next().expect("one outcome per scheduled cell") {
                CellOutcome::Ok(points) => (points, None),
                CellOutcome::Failed(message) => (Vec::new(), Some(message)),
            },
        };
        grid.points.extend(points);
        if let Some(message) = failure {
            grid.failures.push(CellFailure {
                cell: i,
                system: systems[cell.system_idx].id(),
                dataset: datasets[cell.dataset_idx].name.to_string(),
                budget_s: cell.budget_s,
                seed: cell.seed,
                message,
            });
        }
    }
    Ok(ClusterGridRun { grid, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::amlb39;
    use green_automl_energy::FaultPlan;
    use green_automl_systems::{Flaml, TabPfn};

    fn small_meta() -> Vec<DatasetMeta> {
        amlb39()
            .into_iter()
            .filter(|m| m.name == "blood-transfusion-service-center" || m.name == "vehicle")
            .collect()
    }

    fn systems() -> Vec<Box<dyn AutoMlSystem>> {
        vec![Box::new(Flaml::default()), Box::new(TabPfn::default())]
    }

    fn spec(fault: FaultPlan) -> RunSpec {
        RunSpec {
            fault,
            ..RunSpec::single_core(10.0, 7)
        }
    }

    fn opts(jobs: usize) -> BenchmarkOptions {
        BenchmarkOptions {
            runs: 2,
            parallelism: jobs,
            ..BenchmarkOptions::quick()
        }
    }

    #[test]
    fn network_model_charges_latency_and_bytes() {
        let net = NetworkModel::ten_gbe();
        assert!(net.transfer_s(0.0) == net.latency_s);
        assert!(net.transfer_s(1.25e9) > 1.0);
        assert_eq!(net.transfer_j(1e6), 0.02);
    }

    #[test]
    fn primary_placement_is_pure_and_spread() {
        let a: Vec<usize> = (0..64).map(|c| primary_host(9, c, 4)).collect();
        let b: Vec<usize> = (0..64).map(|c| primary_host(9, c, 4)).collect();
        assert_eq!(a, b);
        for h in 0..4 {
            assert!(a.contains(&h), "host {h} never used");
        }
        assert!((0..64).all(|c| primary_host(9, c, 1) == 0));
    }

    #[test]
    fn single_host_cluster_matches_run_grid_checked() {
        let run = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(FaultPlan::default()),
            &opts(2),
            &ClusterOptions::single_host(),
            None,
        )
        .unwrap();
        assert_eq!(run.report.n_hosts, 1);
        assert_eq!(run.report.host_crashes, 0);
        assert_eq!(run.grid.retried_cells, 0);
        assert_eq!(run.report.hosts[0].cells_run, run.report.scheduled_cells);
        assert!(run.report.transfer_j == 0.0, "no network on one host");
        assert!(run.report.makespan_s > 0.0);
        // Host span + one trial span per cell.
        assert_eq!(run.report.trace.len(), 1 + run.report.scheduled_cells);
    }

    #[test]
    fn multi_host_grid_is_byte_identical_to_single_host() {
        let base = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(FaultPlan::default()),
            &opts(1),
            &ClusterOptions::single_host(),
            None,
        )
        .unwrap();
        for hosts in [2, 4] {
            let run = run_grid_cluster(
                &systems(),
                &small_meta(),
                &[10.0],
                &spec(FaultPlan::default()),
                &opts(hosts),
                &ClusterOptions::uniform(hosts),
                None,
            )
            .unwrap();
            assert_eq!(run.grid, base.grid, "{hosts} hosts changed the grid");
            assert!(run.report.transfer_j > 0.0, "workers must pay transfers");
            assert_eq!(run.report.n_hosts, hosts);
        }
    }

    #[test]
    fn cluster_chaos_recovers_and_reports_waste() {
        let chaos = FaultPlan {
            host_crash_p: 0.25,
            host_straggler_p: 0.2,
            host_straggler_slowdown: 4.0,
            host_partition_p: 0.2,
            host_partition_s: 3.0,
            ..FaultPlan::default()
        };
        let clean = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(FaultPlan::default()),
            &opts(2),
            &ClusterOptions::uniform(4),
            None,
        )
        .unwrap();
        let run = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(chaos),
            &opts(2),
            &ClusterOptions::uniform(4),
            None,
        )
        .unwrap();
        // Host faults never change the grid artefact...
        assert_eq!(run.grid.points, clean.grid.points);
        // ...but the cluster accounting records the damage and recovery.
        let r = &run.report;
        assert!(
            r.host_crashes + r.stragglers + r.partitions > 0,
            "chaos must fire"
        );
        assert!(r.retried_cells >= r.host_crashes);
        assert!(r.wasted_j > 0.0 || r.host_crashes == 0);
        let delivered: usize = r.hosts.iter().map(|h| h.cells_run).sum();
        assert_eq!(delivered, r.scheduled_cells, "every cell must complete");
        // And the report itself is reproducible.
        let again = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(chaos),
            &opts(4),
            &ClusterOptions::uniform(4),
            None,
        )
        .unwrap();
        assert_eq!(again.report, run.report, "report must be jobs-invariant");
        assert_eq!(again.report.fingerprint(), run.report.fingerprint());
    }

    #[test]
    fn report_text_and_metrics_are_complete() {
        let run = run_grid_cluster(
            &systems(),
            &small_meta(),
            &[10.0],
            &spec(FaultPlan::default()),
            &opts(2),
            &ClusterOptions::uniform(2),
            None,
        )
        .unwrap();
        let text = run.report.to_text();
        assert!(text.contains("cluster: 2 hosts"));
        assert!(text.contains("host 0 ["));
        assert!(text.contains("host 1 ["));
        let mut reg = MetricsRegistry::new();
        run.report.export_metrics(&mut reg);
        assert_eq!(reg.counter("cluster_hosts"), 2);
        assert_eq!(
            reg.counter("cluster_scheduled_cells"),
            run.report.scheduled_cells as u64
        );
        assert!(reg.sum("cluster_makespan_s") > 0.0);
    }
}
