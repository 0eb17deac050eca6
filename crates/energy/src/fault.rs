//! Seeded, deterministic fault injection.
//!
//! The real systems the paper measures live with failure as a constant:
//! AutoSklearn and TPOT kill trial pipelines via time/memory limits
//! (pynisher), AMLB reports per-framework failure rates as a first-class
//! benchmark column, and the Green-AutoML agenda (Tornede et al. 2023)
//! calls out energy wasted on failed runs as an unreported cost. This
//! module injects those failures into the simulation *deterministically*:
//! every decision is a pure function of `(plan seed, site id)`, where the
//! site id encodes the run seed, the system name, and the trial (or batch
//! attempt) index. Nothing is drawn from shared mutable PRNG state, so a
//! parallel schedule cannot reorder decisions — grid results and serving
//! reports stay **byte-identical at every worker count**, faults included.
//!
//! Three layers consume this module:
//!
//! * search — each AutoML system asks [`FaultInjector::trial_fault`] before
//!   evaluating a candidate; a faulted trial burns (wasted) energy and is
//!   skipped;
//! * grid — `green_automl_core::benchmark` threads a [`FaultPlan`] through
//!   `RunSpec` so every cell derives the same decisions at every
//!   parallelism setting;
//! * serving — `green_automl_serve::fleet` asks
//!   [`FaultInjector::replica_crash`] per batch dispatch attempt to decide
//!   replica crashes (retried with capped exponential virtual-time
//!   backoff).

use crate::hash::{fnv1a, mix64};
use crate::rng::SplitMix64;

/// How an injected trial fault kills a candidate evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The trial process dies partway through (segfault, lost worker).
    Crash,
    /// The per-trial time limit fires: the full trial window is spent
    /// before the kill (pynisher-style wall-clock limit).
    Timeout,
    /// The memory limit kills the trial partway through its fit.
    OomKill,
}

impl FaultKind {
    /// Stable lowercase name used by trace sinks and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Timeout => "timeout",
            FaultKind::OomKill => "oom",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One injected trial failure: what killed the candidate and how much of a
/// typical trial's work had already been performed (and is now wasted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialFault {
    /// The failure mode.
    pub kind: FaultKind,
    /// Fraction of a typical trial's duration burned before the kill, in
    /// `[0, 1]`. Timeouts always waste the full window (`1.0`).
    pub wasted_frac: f64,
}

/// A host-level failure in the simulated cluster, decided per
/// `(host, cell, attempt)` site by [`FaultInjector::host_fault`]. One site
/// draws at most one fault, so a host never crashes *and* straggles on the
/// same attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostFault {
    /// The host dies mid-cell and stays dead for the rest of the run; the
    /// in-flight cell had burned `wasted_frac` of its work when it died.
    Crash {
        /// Fraction of the cell's work burned before the crash, in `[0, 1)`.
        wasted_frac: f64,
    },
    /// The host executes this attempt `slowdown`× slower than nominal
    /// (thermal throttling, noisy neighbour, failing disk).
    Straggler {
        /// Duration multiplier, `> 1`.
        slowdown: f64,
    },
    /// The host is unreachable for `duration_s` virtual seconds starting
    /// at the attempt: it keeps computing locally against its last-seen
    /// cache view, and its results (plus a cache sync) deliver on rejoin.
    Partition {
        /// Virtual seconds the host stays unreachable.
        duration_s: f64,
    },
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`] — the typed
/// counterpart of `RunSpecError`, threaded through the `repro` CLI so a
/// malformed `--host-crash-p` names its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// The named probability field was not a finite value in `[0, 1]`.
    NonProbability(&'static str),
    /// The three trial fault classes sum past 1.
    TrialSumExceedsOne,
    /// The named duration field was not finite and non-negative.
    NegativeDuration(&'static str),
    /// `host_straggler_slowdown` was not finite and `> 1`.
    NonPositiveSlowdown,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::NonProbability(field) => {
                write!(f, "{field} must be a finite probability in [0, 1]")
            }
            FaultPlanError::TrialSumExceedsOne => {
                write!(f, "trial fault probabilities must sum to at most 1")
            }
            FaultPlanError::NegativeDuration(field) => {
                write!(f, "{field} must be finite and non-negative")
            }
            FaultPlanError::NonPositiveSlowdown => {
                write!(
                    f,
                    "host_straggler_slowdown must be finite and greater than 1"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative fault schedule. `Default` is fully disabled — zero
/// probability everywhere — so a plain `RunSpec` behaves exactly as before
/// fault injection existed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream. Independent from the run seed: the same
    /// workload under two plan seeds fails at different sites.
    pub seed: u64,
    /// Per-trial probability of a [`FaultKind::Crash`].
    pub trial_crash_p: f64,
    /// Per-trial probability of a [`FaultKind::Timeout`].
    pub trial_timeout_p: f64,
    /// Per-trial probability of an [`FaultKind::OomKill`].
    pub trial_oom_p: f64,
    /// Per-dispatch-attempt probability that the serving replica executing
    /// a batch crashes mid-batch.
    pub replica_crash_p: f64,
    /// Virtual seconds a crashed replica needs to restart before accepting
    /// work again.
    pub replica_restart_s: f64,
    /// Per-(host, cell, attempt) probability of a [`HostFault::Crash`] in
    /// the simulated cluster (the coordinator, host 0, is immune: its
    /// crash decisions are suppressed so the grid always completes).
    pub host_crash_p: f64,
    /// Per-attempt probability of a [`HostFault::Straggler`].
    pub host_straggler_p: f64,
    /// Duration multiplier a straggling attempt runs at (`> 1`).
    pub host_straggler_slowdown: f64,
    /// Per-attempt probability of a [`HostFault::Partition`].
    pub host_partition_p: f64,
    /// Virtual seconds a partitioned host stays unreachable.
    pub host_partition_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            trial_crash_p: 0.0,
            trial_timeout_p: 0.0,
            trial_oom_p: 0.0,
            replica_crash_p: 0.0,
            replica_restart_s: 0.25,
            host_crash_p: 0.0,
            host_straggler_p: 0.0,
            host_straggler_slowdown: 4.0,
            host_partition_p: 0.0,
            host_partition_s: 2.0,
        }
    }
}

impl FaultPlan {
    /// The no-fault plan (same as `Default`).
    pub fn disabled() -> FaultPlan {
        FaultPlan::default()
    }

    /// A moderate chaos profile used by the `repro chaos` artefact: every
    /// trial/replica fault class enabled at realistic AMLB-like rates.
    /// Host-level faults stay off — see [`FaultPlan::cluster_chaos`].
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            trial_crash_p: 0.10,
            trial_timeout_p: 0.05,
            trial_oom_p: 0.05,
            replica_crash_p: 0.05,
            replica_restart_s: 0.25,
            ..FaultPlan::default()
        }
    }

    /// The [`FaultPlan::chaos`] profile plus host-level chaos for the
    /// simulated cluster: crashes, 4× stragglers, and 2-second partitions
    /// at rates high enough that a small grid sees every class.
    pub fn cluster_chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            host_crash_p: 0.04,
            host_straggler_p: 0.08,
            host_straggler_slowdown: 4.0,
            host_partition_p: 0.06,
            host_partition_s: 2.0,
            ..FaultPlan::chaos(seed)
        }
    }

    /// A plan under which **every** trial dies — exercises the
    /// constant-class fallback path end to end.
    pub fn total_failure(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            trial_crash_p: 1.0,
            ..FaultPlan::default()
        }
    }

    /// `true` if any fault class has non-zero probability.
    pub fn is_active(&self) -> bool {
        self.trial_crash_p > 0.0
            || self.trial_timeout_p > 0.0
            || self.trial_oom_p > 0.0
            || self.replica_crash_p > 0.0
            || self.host_fault_p() > 0.0
    }

    /// Combined per-attempt host fault probability.
    pub fn host_fault_p(&self) -> f64 {
        self.host_crash_p + self.host_straggler_p + self.host_partition_p
    }

    /// Combined per-trial failure probability.
    pub fn trial_fault_p(&self) -> f64 {
        self.trial_crash_p + self.trial_timeout_p + self.trial_oom_p
    }

    /// Check every probability is a finite value in `[0, 1]` (with the
    /// three trial classes summing to at most 1), every duration is finite
    /// and non-negative, and the straggler slowdown exceeds 1. Returns a
    /// typed [`FaultPlanError`] naming the offending field.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let p01 = |p: f64, field: &'static str| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(FaultPlanError::NonProbability(field))
            }
        };
        p01(self.trial_crash_p, "trial_crash_p")?;
        p01(self.trial_timeout_p, "trial_timeout_p")?;
        p01(self.trial_oom_p, "trial_oom_p")?;
        if self.trial_fault_p() > 1.0 {
            return Err(FaultPlanError::TrialSumExceedsOne);
        }
        p01(self.replica_crash_p, "replica_crash_p")?;
        if !(self.replica_restart_s.is_finite() && self.replica_restart_s >= 0.0) {
            return Err(FaultPlanError::NegativeDuration("replica_restart_s"));
        }
        p01(self.host_crash_p, "host_crash_p")?;
        p01(self.host_straggler_p, "host_straggler_p")?;
        p01(self.host_partition_p, "host_partition_p")?;
        if !(self.host_straggler_slowdown.is_finite() && self.host_straggler_slowdown > 1.0) {
            return Err(FaultPlanError::NonPositiveSlowdown);
        }
        if !(self.host_partition_s.is_finite() && self.host_partition_s >= 0.0) {
            return Err(FaultPlanError::NegativeDuration("host_partition_s"));
        }
        Ok(())
    }
}

/// Domain tag separating trial sites from replica sites, so a trial and a
/// batch attempt with the same indices never share a decision.
const TAG_TRIAL: u64 = 0x7421_a11a_5f4e_0001;
/// Domain tag for serving replica crash sites.
const TAG_REPLICA: u64 = 0x7421_a11a_5f4e_0002;
/// Domain tag for cluster host fault sites.
const TAG_HOST: u64 = 0x7421_a11a_5f4e_0003;

/// Stateless decision oracle over a [`FaultPlan`]. Cloning or sharing an
/// injector is free: every query re-derives its answer from the site id
/// alone, so call order and thread placement are irrelevant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan this injector answers for.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Derive the per-site PRNG: hash-chain the plan seed with the site
    /// components, then seed a private SplitMix64 stream.
    fn site_rng(&self, components: [u64; 3], tag: u64) -> SplitMix64 {
        let mut h = mix64(self.plan.seed ^ tag);
        for c in components {
            h = mix64(h ^ c);
        }
        SplitMix64::seed_from_u64(h)
    }

    /// Decide the fate of one search trial. The site is
    /// `(run seed, system name, trial index)` — byte-identical decisions at
    /// every worker count and call order.
    pub fn trial_fault(&self, run_seed: u64, system: &str, trial: u64) -> Option<TrialFault> {
        let p_crash = self.plan.trial_crash_p;
        let p_timeout = self.plan.trial_timeout_p;
        let p_oom = self.plan.trial_oom_p;
        if p_crash + p_timeout + p_oom <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng([run_seed, fnv1a(system.bytes()), trial], TAG_TRIAL);
        let u = rng.next_f64();
        let kind = if u < p_crash {
            FaultKind::Crash
        } else if u < p_crash + p_timeout {
            FaultKind::Timeout
        } else if u < p_crash + p_timeout + p_oom {
            FaultKind::OomKill
        } else {
            return None;
        };
        let wasted_frac = match kind {
            // A timeout spends the whole trial window before the kill.
            FaultKind::Timeout => 1.0,
            // Crashes and OOM kills strike partway through.
            FaultKind::Crash | FaultKind::OomKill => rng.next_f64(),
        };
        Some(TrialFault { kind, wasted_frac })
    }

    /// Decide the fate of cluster host `host` executing attempt `attempt`
    /// of grid cell `cell`. The site is `(host, cell, attempt)`, so the
    /// decision is known *before* the attempt starts (the scheduler uses
    /// attempt-0 decisions to pick cache views) and is independent of how
    /// many jobs execute the grid — byte-identical at every (hosts × jobs)
    /// shape. At most one fault class fires per site.
    pub fn host_fault(&self, host: u64, cell: u64, attempt: u64) -> Option<HostFault> {
        let p_crash = self.plan.host_crash_p;
        let p_straggle = self.plan.host_straggler_p;
        let p_partition = self.plan.host_partition_p;
        if p_crash + p_straggle + p_partition <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng([host, cell, attempt], TAG_HOST);
        let u = rng.next_f64();
        if u < p_crash {
            Some(HostFault::Crash {
                wasted_frac: rng.next_f64(),
            })
        } else if u < p_crash + p_straggle {
            Some(HostFault::Straggler {
                slowdown: self.plan.host_straggler_slowdown,
            })
        } else if u < p_crash + p_straggle + p_partition {
            Some(HostFault::Partition {
                duration_s: self.plan.host_partition_s,
            })
        } else {
            None
        }
    }

    /// Decide whether the replica executing dispatch attempt `attempt` of
    /// batch `batch` crashes mid-batch; returns the completed fraction of
    /// the batch at the crash instant. The site is
    /// `(stream seed, batch index, attempt index)`.
    pub fn replica_crash(&self, stream: u64, batch: u64, attempt: u64) -> Option<f64> {
        if self.plan.replica_crash_p <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng([stream, batch, attempt], TAG_REPLICA);
        if rng.next_f64() < self.plan.replica_crash_p {
            Some(rng.next_f64())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        let inj = FaultInjector::new(plan);
        for trial in 0..100 {
            assert!(inj.trial_fault(7, "FLAML", trial).is_none());
            assert!(inj.replica_crash(7, trial, 0).is_none());
        }
    }

    #[test]
    fn decisions_are_pure_functions_of_the_site() {
        let inj = FaultInjector::new(FaultPlan::chaos(42));
        // Query in two different orders; answers must match exactly.
        let forward: Vec<Option<TrialFault>> =
            (0..200).map(|t| inj.trial_fault(9, "TPOT", t)).collect();
        let backward: Vec<Option<TrialFault>> = (0..200)
            .rev()
            .map(|t| inj.trial_fault(9, "TPOT", t))
            .collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|f| f.is_some()), "chaos plan must fire");
        assert!(forward.iter().any(|f| f.is_none()), "and must not always");
    }

    #[test]
    fn sites_are_independent() {
        let inj = FaultInjector::new(FaultPlan::chaos(1));
        // Different systems / run seeds / trial indices see different
        // streams (some decision must differ over a long window).
        let a: Vec<_> = (0..300).map(|t| inj.trial_fault(0, "FLAML", t)).collect();
        let b: Vec<_> = (0..300).map(|t| inj.trial_fault(0, "CAML", t)).collect();
        let c: Vec<_> = (0..300).map(|t| inj.trial_fault(1, "FLAML", t)).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fault_rate_tracks_the_plan() {
        let plan = FaultPlan {
            seed: 3,
            trial_crash_p: 0.2,
            trial_timeout_p: 0.1,
            trial_oom_p: 0.1,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let n = 4000u64;
        let hits = (0..n)
            .filter(|&t| inj.trial_fault(0, "ASKL", t).is_some())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.4).abs() < 0.05, "empirical fault rate {rate}");
    }

    #[test]
    fn timeouts_waste_the_full_window() {
        let plan = FaultPlan {
            seed: 5,
            trial_timeout_p: 1.0,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::new(plan);
        let f = inj.trial_fault(0, "FLAML", 0).expect("certain fault");
        assert_eq!(f.kind, FaultKind::Timeout);
        assert_eq!(f.wasted_frac, 1.0);
    }

    #[test]
    fn total_failure_kills_everything() {
        let inj = FaultInjector::new(FaultPlan::total_failure(11));
        for t in 0..50 {
            let f = inj.trial_fault(4, "AutoGluon", t).expect("all trials die");
            assert_eq!(f.kind, FaultKind::Crash);
            assert!((0.0..1.0).contains(&f.wasted_frac));
        }
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let bad_p = FaultPlan {
            trial_crash_p: 1.5,
            ..FaultPlan::default()
        };
        assert!(bad_p.validate().is_err());
        let bad_sum = FaultPlan {
            trial_crash_p: 0.6,
            trial_timeout_p: 0.6,
            ..FaultPlan::default()
        };
        assert!(bad_sum.validate().is_err());
        let bad_nan = FaultPlan {
            replica_crash_p: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(bad_nan.validate().is_err());
        let bad_restart = FaultPlan {
            replica_restart_s: -1.0,
            ..FaultPlan::default()
        };
        assert!(bad_restart.validate().is_err());
        assert!(FaultPlan::chaos(0).validate().is_ok());
        assert!(FaultPlan::total_failure(0).validate().is_ok());
    }

    #[test]
    fn validation_errors_are_typed_and_named() {
        let bad_host = FaultPlan {
            host_crash_p: 2.0,
            ..FaultPlan::default()
        };
        assert_eq!(
            bad_host.validate(),
            Err(FaultPlanError::NonProbability("host_crash_p"))
        );
        let bad_sum = FaultPlan {
            trial_crash_p: 0.6,
            trial_timeout_p: 0.6,
            ..FaultPlan::default()
        };
        assert_eq!(bad_sum.validate(), Err(FaultPlanError::TrialSumExceedsOne));
        let bad_partition = FaultPlan {
            host_partition_s: f64::NEG_INFINITY,
            ..FaultPlan::default()
        };
        assert_eq!(
            bad_partition.validate(),
            Err(FaultPlanError::NegativeDuration("host_partition_s"))
        );
        let bad_slowdown = FaultPlan {
            host_straggler_slowdown: 1.0,
            ..FaultPlan::default()
        };
        assert_eq!(
            bad_slowdown.validate(),
            Err(FaultPlanError::NonPositiveSlowdown)
        );
        // The message names the offending field for CLI surfacing.
        let msg = bad_host.validate().unwrap_err().to_string();
        assert!(msg.contains("host_crash_p"), "message was {msg:?}");
        assert!(FaultPlan::cluster_chaos(0).validate().is_ok());
    }

    #[test]
    fn host_faults_are_pure_functions_of_the_site() {
        let inj = FaultInjector::new(FaultPlan::cluster_chaos(21));
        let forward: Vec<Option<HostFault>> =
            (0..400).map(|c| inj.host_fault(c % 4, c, c % 3)).collect();
        let again: Vec<Option<HostFault>> = (0..400)
            .rev()
            .map(|c| inj.host_fault(c % 4, c, c % 3))
            .collect();
        let again: Vec<_> = again.into_iter().rev().collect();
        assert_eq!(forward, again);
        // Different hosts and attempts draw from independent streams.
        let h0: Vec<_> = (0..400).map(|c| inj.host_fault(0, c, 0)).collect();
        let h1: Vec<_> = (0..400).map(|c| inj.host_fault(1, c, 0)).collect();
        let a1: Vec<_> = (0..400).map(|c| inj.host_fault(0, c, 1)).collect();
        assert_ne!(h0, h1);
        assert_ne!(h0, a1);
    }

    #[test]
    fn cluster_chaos_fires_every_host_fault_class() {
        let inj = FaultInjector::new(FaultPlan::cluster_chaos(4));
        let draws: Vec<HostFault> = (0..4000)
            .filter_map(|c| inj.host_fault(c % 8, c, 0))
            .collect();
        assert!(draws.iter().any(
            |f| matches!(f, HostFault::Crash { wasted_frac } if (0.0..1.0).contains(wasted_frac))
        ));
        assert!(draws
            .iter()
            .any(|f| matches!(f, HostFault::Straggler { slowdown } if *slowdown > 1.0)));
        assert!(draws
            .iter()
            .any(|f| matches!(f, HostFault::Partition { duration_s } if *duration_s > 0.0)));
        let rate = draws.len() as f64 / 4000.0;
        let want = FaultPlan::cluster_chaos(4).host_fault_p();
        assert!(
            (rate - want).abs() < 0.03,
            "empirical host fault rate {rate}"
        );
        // The plain chaos plan leaves hosts untouched — committed chaos
        // artefacts must stay byte-identical.
        let plain = FaultInjector::new(FaultPlan::chaos(4));
        assert!((0..400).all(|c| plain.host_fault(c % 8, c, 0).is_none()));
    }

    #[test]
    fn replica_crashes_are_deterministic_and_rate_faithful() {
        let inj = FaultInjector::new(FaultPlan::chaos(9));
        let n = 4000u64;
        let a: Vec<Option<f64>> = (0..n).map(|b| inj.replica_crash(2, b, 0)).collect();
        let b: Vec<Option<f64>> = (0..n).map(|b| inj.replica_crash(2, b, 0)).collect();
        assert_eq!(a, b);
        let rate = a.iter().filter(|c| c.is_some()).count() as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.02, "empirical crash rate {rate}");
        // Crash fractions are valid progress points.
        assert!(a.iter().flatten().all(|frac| (0.0..1.0).contains(frac)));
    }
}
