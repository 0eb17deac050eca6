//! The cost tracker: converts charged operations into virtual time and
//! energy, playing the role CodeCarbon + RAPL play in the paper.

use crate::clock::VirtualClock;
use crate::device::Device;
use crate::fault::FaultKind;
use crate::ops::OpCounts;
use crate::parallel::ParallelProfile;
use crate::trace::{SpanKind, Trace, Tracer};

/// Accumulated energy split into RAPL-like measurement domains.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// CPU package domain (cores + uncore), Joules.
    pub package_j: f64,
    /// DRAM domain, Joules.
    pub dram_j: f64,
    /// GPU domain (zero on CPU-only devices), Joules.
    pub gpu_j: f64,
}

impl EnergyBreakdown {
    /// Total energy across all domains, Joules.
    #[inline]
    pub fn total_joules(&self) -> f64 {
        self.package_j + self.dram_j + self.gpu_j
    }

    /// Total energy across all domains, kWh.
    #[inline]
    pub fn total_kwh(&self) -> f64 {
        crate::joules_to_kwh(self.total_joules())
    }

    /// Domain-wise difference `self - earlier` — the same naming
    /// convention as [`Measurement::since`], so all span accounting goes
    /// through one subtraction path.
    #[must_use]
    pub fn since(&self, earlier: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            package_j: self.package_j - earlier.package_j,
            dram_j: self.dram_j - earlier.dram_j,
            gpu_j: self.gpu_j - earlier.gpu_j,
        }
    }
}

/// A snapshot of a tracker: elapsed virtual time, energy, and raw op counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Measurement {
    /// Virtual seconds elapsed.
    pub duration_s: f64,
    /// Energy consumed per domain.
    pub energy: EnergyBreakdown,
    /// Raw operations executed.
    pub ops: OpCounts,
}

impl Measurement {
    /// The measurement between `earlier` and `self` (component-wise delta).
    #[must_use]
    pub fn since(&self, earlier: &Measurement) -> Measurement {
        Measurement {
            duration_s: self.duration_s - earlier.duration_s,
            energy: self.energy.since(&earlier.energy),
            ops: OpCounts {
                scalar_flops: self.ops.scalar_flops - earlier.ops.scalar_flops,
                matmul_flops: self.ops.matmul_flops - earlier.ops.matmul_flops,
                tree_steps: self.ops.tree_steps - earlier.ops.tree_steps,
                mem_bytes: self.ops.mem_bytes - earlier.ops.mem_bytes,
            },
        }
    }

    /// Total energy, kWh — the paper's reporting unit.
    #[inline]
    pub fn kwh(&self) -> f64 {
        self.energy.total_kwh()
    }
}

/// One recorded [`CostTracker::charge`]: the op counts and the
/// *callee-chosen* parallel profile (before any override resolution).
///
/// A sequence of `ChargeRec`s captured while computing an evaluation is
/// the exact virtual-energy cost of that evaluation: replaying it through
/// [`CostTracker::replay`] advances the clock and the meter bitwise
/// identically to re-running the computation on the replaying tracker,
/// in whatever configuration (device, cores, profile override) that
/// tracker is — provided the computation never read the configuration or
/// the clock, so that it would charge the same records there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeRec {
    /// Operations charged.
    pub ops: OpCounts,
    /// Parallel profile as passed by the callee (pre-override).
    pub profile: ParallelProfile,
}

/// The virtual power meter.
///
/// A `CostTracker` is created per measured activity (one AutoML run, one
/// inference pass) with a [`Device`] and a number of allocated cores. Code
/// under measurement calls [`CostTracker::charge`] with the operations it
/// performed; the tracker advances its [`VirtualClock`] and integrates power
/// over the resulting duration.
///
/// ## Accounting model
///
/// For a charge of ops with parallel profile `p` on `c` allocated cores:
///
/// * CPU work in single-core-seconds
///   `w = scalar/tp_scalar + tree/tp_tree [+ matmul/tp_matmul if no GPU]`
/// * memory time `t_mem = bytes / bandwidth` (shared resource, not
///   core-scaled)
/// * GPU time `t_gpu = matmul / gpu_throughput` (if a GPU is present)
/// * duration `d = amdahl(w, p, c) + t_mem + t_gpu`
/// * package energy `(base + alloc_w·c) · d + busy_w · w` — dynamic energy is
///   work-conserving (independent of `c`), static energy scales with
///   allocation; this reproduces the paper's Fig. 5 energy/parallelism
///   trade-off.
/// * DRAM energy `idle_w · d + bytes · J_per_byte`
/// * GPU energy `idle_w · d + (active_w − idle_w) · t_gpu` — a present-but-
///   unused GPU still draws idle power (paper Table 3, AutoGluon row).
#[derive(Debug, Clone)]
pub struct CostTracker {
    device: Device,
    cores: usize,
    clock: VirtualClock,
    energy: EnergyBreakdown,
    ops: OpCounts,
    profile_override: Option<ParallelProfile>,
    tracer: Option<Box<Tracer>>,
    recorder: Option<Vec<ChargeRec>>,
}

impl CostTracker {
    /// Create a tracker for a job allocated `cores` cores on `device`.
    ///
    /// # Panics
    /// Panics if `cores` is zero or exceeds the device's core count.
    pub fn new(device: Device, cores: usize) -> Self {
        assert!(cores >= 1, "a job needs at least one core");
        assert!(
            cores <= device.cpu.cores,
            "cannot allocate {cores} cores on a {}-core device",
            device.cpu.cores
        );
        CostTracker {
            device,
            cores,
            clock: VirtualClock::new(),
            energy: EnergyBreakdown::default(),
            ops: OpCounts::ZERO,
            profile_override: None,
            tracer: None,
            recorder: None,
        }
    }

    /// Start capturing every subsequent charge as a [`ChargeRec`] (for the
    /// evaluation-memoisation layer). While recording, [`CostTracker::idle_for`],
    /// [`CostTracker::idle_until`] and [`CostTracker::set_profile_override`]
    /// panic: a recorded unit must be replayable from its charges alone, and
    /// those calls depend on (or mutate) tracker state outside the record.
    ///
    /// # Panics
    /// Panics if a recording is already in progress (units never nest).
    pub fn start_recording(&mut self) {
        assert!(self.recorder.is_none(), "charge recordings must not nest");
        self.recorder = Some(Vec::new());
    }

    /// Stop capturing and return the recorded charge sequence.
    ///
    /// # Panics
    /// Panics if no recording is in progress.
    pub fn finish_recording(&mut self) -> Vec<ChargeRec> {
        self.recorder
            .take()
            .expect("finish_recording without start_recording")
    }

    /// Replay a recorded charge sequence: advances the clock and the meter
    /// exactly as re-running the recorded computation on this tracker
    /// would. Each record is priced under this tracker's device, cores and
    /// profile override, so a recording made in another configuration
    /// replays exactly too, as long as the computation read none of them
    /// (the memoisation layer's units never do).
    pub fn replay(&mut self, recs: &[ChargeRec]) {
        for rec in recs {
            self.charge(rec.ops, rec.profile);
        }
    }

    /// Attach a span [`Tracer`] whose ids derive from `seed` (use the run
    /// seed for reproducible traces). Until this is called, every span
    /// hook below is a no-op, so untraced hot paths pay nothing.
    ///
    /// Tracing never touches the clock or the meter: enabling it cannot
    /// change any measured number.
    pub fn enable_tracing(&mut self, seed: u64) {
        self.tracer = Some(Box::new(Tracer::new(seed)));
    }

    /// Whether a tracer is attached.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Open a span at the current measurement snapshot. The label closure
    /// only runs when tracing is enabled, so hot paths never allocate for
    /// a disabled tracer. No-op without a tracer.
    pub fn span_open(&mut self, kind: SpanKind, label: impl FnOnce() -> String) {
        if self.tracer.is_none() {
            return;
        }
        let snap = self.measurement();
        if let Some(t) = self.tracer.as_mut() {
            t.open(kind, label(), snap);
        }
    }

    /// Close the innermost open span at the current snapshot. No-op
    /// without a tracer.
    ///
    /// # Panics
    /// Panics if tracing is enabled and no span is open.
    pub fn span_close(&mut self) {
        self.span_close_with(None);
    }

    /// Close the innermost open span, tagging it with the injected fault
    /// that ended it. No-op without a tracer.
    ///
    /// # Panics
    /// Panics if tracing is enabled and no span is open.
    pub fn span_close_fault(&mut self, fault: FaultKind) {
        self.span_close_with(Some(fault));
    }

    fn span_close_with(&mut self, fault: Option<FaultKind>) {
        if self.tracer.is_none() {
            return;
        }
        let snap = self.measurement();
        if let Some(t) = self.tracer.as_mut() {
            t.close(snap, fault);
        }
    }

    /// Detach the tracer and return its finished [`Trace`] (any spans
    /// still open are closed at the current snapshot). `None` when
    /// tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let snap = self.measurement();
        self.tracer.take().map(|t| t.finish(snap))
    }

    /// Override the parallel profile of every subsequent [`CostTracker::charge`]
    /// (pass `None` to restore callee-chosen profiles). Systems that
    /// parallelise at a *coarser* grain than the library calls they make —
    /// AutoGluon running its bagging folds concurrently — use this so the
    /// system-level parallelism, not the per-model profile, governs time
    /// and energy.
    pub fn set_profile_override(&mut self, profile: Option<ParallelProfile>) {
        assert!(
            self.recorder.is_none(),
            "profile overrides must not change inside a recorded unit"
        );
        self.profile_override = profile;
    }

    /// The currently active profile override, if any. It applies to
    /// replayed charge records exactly as to live charges.
    #[inline]
    pub fn profile_override(&self) -> Option<ParallelProfile> {
        self.profile_override
    }

    /// The device this tracker models.
    #[inline]
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Cores allocated to the measured job.
    #[inline]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Current virtual time, seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    /// Charge `ops` of work with the given parallel profile, advancing the
    /// clock and integrating energy.
    ///
    /// # Panics
    /// Panics (in debug builds) on non-finite or negative op counts.
    pub fn charge(&mut self, ops: OpCounts, profile: ParallelProfile) {
        debug_assert!(ops.is_valid(), "invalid op counts: {ops:?}");
        if ops.is_zero() {
            return;
        }
        if let Some(rec) = self.recorder.as_mut() {
            rec.push(ChargeRec { ops, profile });
        }
        let profile = self.profile_override.unwrap_or(profile);
        let cpu = &self.device.cpu;

        let mut w =
            ops.scalar_flops / cpu.scalar_flops_per_core + ops.tree_steps / cpu.tree_steps_per_core;
        let mut t_gpu = 0.0;
        match self.device.gpu {
            Some(gpu) => t_gpu = ops.matmul_flops / gpu.matmul_flops,
            None => w += ops.matmul_flops / cpu.matmul_flops_per_core,
        }
        let t_mem = ops.mem_bytes / cpu.mem_bandwidth;

        let duration = profile.duration_s(w, self.cores) + t_mem + t_gpu;

        let static_w = cpu.base_idle_w + cpu.core_allocated_w * self.cores as f64;
        self.energy.package_j += static_w * duration + cpu.core_busy_w * w;
        self.energy.dram_j += cpu.dram_idle_w * duration + ops.mem_bytes * cpu.dram_joules_per_byte;
        if let Some(gpu) = self.device.gpu {
            self.energy.gpu_j += gpu.idle_w * duration + (gpu.active_w - gpu.idle_w) * t_gpu;
        }

        self.ops += ops;
        self.clock.advance(duration);
    }

    /// Let the job sit idle for `secs` virtual seconds (e.g. a strict-budget
    /// system that has exhausted its candidate evaluations but holds its
    /// allocation until the budget elapses).
    pub fn idle_for(&mut self, secs: f64) {
        assert!(
            self.recorder.is_none(),
            "idling inside a recorded unit is not replayable"
        );
        assert!(
            secs.is_finite() && secs >= 0.0,
            "idle duration must be non-negative"
        );
        if secs == 0.0 {
            return;
        }
        let cpu = &self.device.cpu;
        let static_w = cpu.base_idle_w + cpu.core_allocated_w * self.cores as f64;
        self.energy.package_j += static_w * secs;
        self.energy.dram_j += cpu.dram_idle_w * secs;
        if let Some(gpu) = self.device.gpu {
            self.energy.gpu_j += gpu.idle_w * secs;
        }
        self.clock.advance(secs);
    }

    /// Idle until the absolute virtual instant `t` (no-op if already past).
    pub fn idle_until(&mut self, t: f64) {
        // `dt > 0.0` is false for NaN, which would silently no-op and mask
        // a poisoned deadline upstream; fail loudly like `idle_for` does.
        debug_assert!(!t.is_nan(), "idle_until deadline must not be NaN");
        let dt = t - self.clock.now();
        if dt > 0.0 {
            self.idle_for(dt);
        }
    }

    /// Snapshot of everything measured so far.
    pub fn measurement(&self) -> Measurement {
        Measurement {
            duration_s: self.clock.now(),
            energy: self.energy,
            ops: self.ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    #[test]
    fn zero_charge_is_free() {
        let mut t = tracker();
        t.charge(OpCounts::ZERO, ParallelProfile::serial());
        assert_eq!(t.now(), 0.0);
        assert_eq!(t.measurement().energy.total_joules(), 0.0);
    }

    #[test]
    fn charging_advances_time_and_energy() {
        let mut t = tracker();
        t.charge(OpCounts::scalar(2.0e9), ParallelProfile::serial());
        // 2e9 scalar flops at 2e9 flops/s/core = 1 virtual second.
        assert!((t.now() - 1.0).abs() < 1e-9);
        let m = t.measurement();
        // One busy core on the Gold 6132: 10 + 5 + 8 (pkg) + 6 (dram) = 29 W.
        assert!((m.energy.total_joules() - 29.0).abs() < 1e-6);
    }

    #[test]
    fn matmul_runs_on_cpu_without_gpu_and_gpu_with() {
        let ops = OpCounts::matmul(6.0e11);
        let mut cpu_only = CostTracker::new(Device::gpu_node_cpu_only(), 1);
        cpu_only.charge(ops, ParallelProfile::serial());
        let mut with_gpu = CostTracker::new(Device::gpu_node(), 1);
        with_gpu.charge(ops, ParallelProfile::serial());
        // The T4 executes this ~50x faster than one 2 GHz core.
        assert!(with_gpu.now() < cpu_only.now() / 10.0);
        // And the GPU domain records energy only in the GPU run.
        assert_eq!(cpu_only.measurement().energy.gpu_j, 0.0);
        assert!(with_gpu.measurement().energy.gpu_j > 0.0);
    }

    #[test]
    fn unused_gpu_still_draws_idle_power() {
        // Tree-heavy work on the GPU node: the GPU never executes a kernel
        // but burns idle power for the full duration (paper Table 3).
        let mut t = CostTracker::new(Device::gpu_node(), 1);
        t.charge(OpCounts::tree(4.6e8), ParallelProfile::serial());
        let m = t.measurement();
        assert!((m.duration_s - 1.0).abs() < 1e-9);
        assert!((m.energy.gpu_j - 13.0).abs() < 1e-6);
    }

    #[test]
    fn dynamic_energy_is_work_conserving_across_cores() {
        // Same work on 1 vs 8 cores: duration shrinks, dynamic energy equal,
        // static energy grows with allocation.
        let ops = OpCounts::scalar(2.0e10);
        let mut t1 = CostTracker::new(Device::xeon_gold_6132(), 1);
        let mut t8 = CostTracker::new(Device::xeon_gold_6132(), 8);
        t1.charge(ops, ParallelProfile::embarrassing());
        t8.charge(ops, ParallelProfile::embarrassing());
        assert!(t8.now() < t1.now() / 3.0);
        // For fully-busy parallel work, more cores finish faster and the
        // static power does not have time to accumulate: energy drops.
        assert!(t8.measurement().energy.total_joules() < t1.measurement().energy.total_joules());
    }

    #[test]
    fn sequential_work_on_many_cores_wastes_energy() {
        // Serial work holds 8 cores for the same duration as 1 core: the
        // energy ratio must land in the paper's ~2.7x band (Fig. 5, CAML).
        let ops = OpCounts::scalar(2.0e10);
        let mut t1 = CostTracker::new(Device::xeon_gold_6132(), 1);
        let mut t8 = CostTracker::new(Device::xeon_gold_6132(), 8);
        t1.charge(ops, ParallelProfile::serial());
        t8.charge(ops, ParallelProfile::serial());
        assert_eq!(t1.now(), t8.now());
        let ratio = t8.measurement().energy.total_joules() / t1.measurement().energy.total_joules();
        assert!(
            (1.8..=3.2).contains(&ratio),
            "ratio {ratio:.2} outside band"
        );
    }

    #[test]
    fn idle_burns_static_power_only() {
        let mut t = tracker();
        t.idle_for(10.0);
        let m = t.measurement();
        assert_eq!(m.duration_s, 10.0);
        // 10 + 5 (pkg static) + 6 (dram) = 21 W for 10 s.
        assert!((m.energy.total_joules() - 210.0).abs() < 1e-6);
        assert_eq!(m.ops, OpCounts::ZERO);
    }

    #[test]
    fn idle_until_is_idempotent() {
        let mut t = tracker();
        t.idle_until(5.0);
        let e = t.measurement().energy.total_joules();
        t.idle_until(5.0);
        t.idle_until(4.0);
        assert_eq!(t.measurement().energy.total_joules(), e);
        assert_eq!(t.now(), 5.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "idle_until deadline must not be NaN")]
    fn idle_until_rejects_nan_deadlines() {
        // A NaN deadline fails the `dt > 0.0` guard and used to no-op
        // silently, hiding the corrupted deadline from the caller.
        tracker().idle_until(f64::NAN);
    }

    #[test]
    fn idle_until_rejects_infinite_deadlines_via_idle_for() {
        // +inf is caught one level down by idle_for's finiteness assert.
        let r = std::panic::catch_unwind(|| {
            let mut t = tracker();
            t.idle_until(f64::INFINITY);
        });
        assert!(r.is_err(), "an infinite deadline must not pass silently");
    }

    #[test]
    fn profile_override_governs_charges() {
        let ops = OpCounts::scalar(2.0e10);
        let mut plain = CostTracker::new(Device::xeon_gold_6132(), 8);
        plain.charge(ops, ParallelProfile::serial());
        let mut overridden = CostTracker::new(Device::xeon_gold_6132(), 8);
        overridden.set_profile_override(Some(ParallelProfile::embarrassing()));
        overridden.charge(ops, ParallelProfile::serial());
        assert!(
            overridden.now() < plain.now() / 3.0,
            "override should parallelise the serial charge"
        );
        // Clearing the override restores callee profiles.
        overridden.set_profile_override(None);
        let before = overridden.now();
        overridden.charge(ops, ParallelProfile::serial());
        assert!(overridden.now() - before > plain.now() / 2.0);
    }

    #[test]
    fn measurement_since_subtracts() {
        let mut t = tracker();
        t.charge(OpCounts::scalar(2.0e9), ParallelProfile::serial());
        let mid = t.measurement();
        t.charge(OpCounts::scalar(2.0e9), ParallelProfile::serial());
        let d = t.measurement().since(&mid);
        assert!((d.duration_s - 1.0).abs() < 1e-9);
        assert!((d.ops.scalar_flops - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn tracing_is_measurement_neutral_and_reconciles_bitwise() {
        let ops = OpCounts::scalar(3.0e9);
        let mut plain = tracker();
        plain.charge(ops, ParallelProfile::serial());
        plain.idle_for(0.5);

        let mut traced = tracker();
        traced.enable_tracing(42);
        traced.span_open(crate::trace::SpanKind::System, || "sys".to_string());
        traced.span_open(crate::trace::SpanKind::Trial, || "trial 0".to_string());
        traced.charge(ops, ParallelProfile::serial());
        traced.span_close();
        traced.idle_for(0.5);
        traced.span_close();

        // Tracing never perturbs the measurement…
        let (p, t) = (plain.measurement(), traced.measurement());
        assert_eq!(p.duration_s.to_bits(), t.duration_s.to_bits());
        assert_eq!(p.energy.package_j.to_bits(), t.energy.package_j.to_bits());

        // …and the root span reconciles bitwise with the run total.
        let trace = traced.take_trace().expect("tracing enabled");
        assert_eq!(trace.len(), 2);
        let root = trace.roots().next().unwrap();
        assert_eq!(
            root.energy.package_j.to_bits(),
            t.energy.package_j.to_bits()
        );
        assert_eq!(root.energy.dram_j.to_bits(), t.energy.dram_j.to_bits());
        assert_eq!(root.energy.gpu_j.to_bits(), t.energy.gpu_j.to_bits());
        assert_eq!(root.end_s.to_bits(), t.duration_s.to_bits());
        // A second take returns nothing: the tracer is detached.
        assert!(traced.take_trace().is_none());
    }

    #[test]
    fn span_hooks_are_noops_without_a_tracer() {
        let mut t = tracker();
        assert!(!t.tracing_enabled());
        t.span_open(crate::trace::SpanKind::Trial, || {
            panic!("label closure must not run while tracing is disabled")
        });
        t.span_close();
        assert!(t.take_trace().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = CostTracker::new(Device::xeon_gold_6132(), 0);
    }

    #[test]
    fn energy_and_time_are_monotone() {
        let mut rng = SplitMix64::seed_from_u64(0xe4e);
        for _ in 0..32 {
            let n = rng.gen_range(1..20usize);
            let mut t = tracker();
            let mut last_e = 0.0;
            let mut last_t = 0.0;
            for _ in 0..n {
                t.charge(
                    OpCounts::scalar(rng.gen_range(1e3..1e10f64)),
                    ParallelProfile::serial(),
                );
                let m = t.measurement();
                assert!(m.duration_s > last_t);
                assert!(m.energy.total_joules() > last_e);
                last_t = m.duration_s;
                last_e = m.energy.total_joules();
            }
        }
    }

    #[test]
    fn charge_is_additive() {
        let mut rng = SplitMix64::seed_from_u64(0xadd);
        for _ in 0..64 {
            let a = rng.gen_range(1e3..1e10f64);
            let b = rng.gen_range(1e3..1e10f64);
            let mut split = tracker();
            split.charge(OpCounts::scalar(a), ParallelProfile::serial());
            split.charge(OpCounts::scalar(b), ParallelProfile::serial());
            let mut joint = tracker();
            joint.charge(OpCounts::scalar(a + b), ParallelProfile::serial());
            let (ms, mj) = (split.measurement(), joint.measurement());
            assert!((ms.duration_s - mj.duration_s).abs() < 1e-9 * mj.duration_s.max(1.0));
            assert!(
                (ms.energy.total_joules() - mj.energy.total_joules()).abs()
                    < 1e-9 * mj.energy.total_joules().max(1.0)
            );
        }
    }

    #[test]
    fn replaying_a_recording_reproduces_the_meter_bitwise() {
        let mut rng = SplitMix64::seed_from_u64(0x4ec);
        for _ in 0..16 {
            let charges: Vec<(f64, ParallelProfile)> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    let p = if rng.gen_range(0..2u32) == 0 {
                        ParallelProfile::serial()
                    } else {
                        ParallelProfile::model_training()
                    };
                    (rng.gen_range(1e3..1e9f64), p)
                })
                .collect();

            let mut live = tracker();
            live.start_recording();
            for &(f, p) in &charges {
                live.charge(OpCounts::scalar(f), p);
            }
            let recs = live.finish_recording();
            assert_eq!(recs.len(), charges.len());

            let mut replayed = tracker();
            replayed.replay(&recs);
            let (a, b) = (live.measurement(), replayed.measurement());
            assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
            assert_eq!(a.energy.package_j.to_bits(), b.energy.package_j.to_bits());
            assert_eq!(a.energy.dram_j.to_bits(), b.energy.dram_j.to_bits());
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn recording_keeps_callee_profiles_for_overridden_trackers() {
        // Record under an override; the record keeps the callee profile, so
        // a replay in any configuration — another override, none, other
        // cores, another device — charges what the callee would there.
        let ops = OpCounts::scalar(2.0e10);
        let mut recording = CostTracker::new(Device::xeon_gold_6132(), 8);
        recording.set_profile_override(Some(ParallelProfile::embarrassing()));
        recording.start_recording();
        recording.charge(ops, ParallelProfile::serial());
        let recs = recording.finish_recording();
        assert_eq!(recs[0].profile, ParallelProfile::serial());

        let configurations = || {
            let mut overridden = CostTracker::new(Device::xeon_gold_6132(), 8);
            overridden.set_profile_override(Some(ParallelProfile::embarrassing()));
            [
                overridden,
                CostTracker::new(Device::xeon_gold_6132(), 8),
                CostTracker::new(Device::xeon_gold_6132(), 1),
                CostTracker::new(Device::gpu_node(), 4),
            ]
        };
        for (mut live, mut replayed) in configurations().into_iter().zip(configurations()) {
            live.charge(ops, ParallelProfile::serial());
            replayed.replay(&recs);
            assert_eq!(live.now().to_bits(), replayed.now().to_bits());
            let (a, b) = (live.measurement().energy, replayed.measurement().energy);
            assert_eq!(a.total_joules().to_bits(), b.total_joules().to_bits());
        }
    }

    #[test]
    fn zero_charges_are_not_recorded() {
        let mut t = tracker();
        t.start_recording();
        t.charge(OpCounts::ZERO, ParallelProfile::serial());
        assert!(t.finish_recording().is_empty());
    }

    #[test]
    #[should_panic(expected = "must not nest")]
    fn nested_recordings_panic() {
        let mut t = tracker();
        t.start_recording();
        t.start_recording();
    }

    #[test]
    #[should_panic(expected = "not replayable")]
    fn idling_while_recording_panics() {
        let mut t = tracker();
        t.start_recording();
        t.idle_for(1.0);
    }

    #[test]
    #[should_panic(expected = "must not change inside")]
    fn override_change_while_recording_panics() {
        let mut t = tracker();
        t.start_recording();
        t.set_profile_override(None);
    }

    #[test]
    fn more_cores_never_increase_duration() {
        let mut rng = SplitMix64::seed_from_u64(0xc0e5);
        for _ in 0..64 {
            let flops = rng.gen_range(1e6..1e11f64);
            let c = rng.gen_range(1..28usize);
            let mut t1 = CostTracker::new(Device::xeon_gold_6132(), c);
            let mut t2 = CostTracker::new(Device::xeon_gold_6132(), c + 1);
            t1.charge(OpCounts::scalar(flops), ParallelProfile::model_training());
            t2.charge(OpCounts::scalar(flops), ParallelProfile::model_training());
            assert!(t2.now() <= t1.now() + 1e-12);
        }
    }
}
