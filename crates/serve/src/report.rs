//! Per-request accounting: latency percentiles, queue depth, energy per
//! request, and SLO verdicts with a carbon budget.

use green_automl_energy::{EmissionsEstimate, GridIntensity, OpCounts, Trace};

/// Joules per kilowatt-hour.
const J_PER_KWH: f64 = 3.6e6;

/// Virtual-clock latency summary over a served trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Median request latency, seconds.
    pub p50_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_s: f64,
    /// 99th-percentile latency, seconds.
    pub p99_s: f64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Worst request, seconds.
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarise per-request latencies (arrival → completion, seconds).
    /// Percentiles use the nearest-rank method on a sorted copy.
    ///
    /// # Panics
    /// Panics if `latencies` is empty or contains non-finite values.
    pub fn from_latencies(latencies: &[f64]) -> LatencyStats {
        assert!(!latencies.is_empty(), "no latencies to summarise");
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite latency"));
        let rank = |p: f64| {
            let idx = ((p * sorted.len() as f64).ceil() as usize).max(1) - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        LatencyStats {
            p50_s: rank(0.50),
            p95_s: rank(0.95),
            p99_s: rank(0.99),
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_s: *sorted.last().expect("non-empty"),
        }
    }

    /// The all-zero summary of a run that completed no requests (an empty
    /// trace, or every batch shed or failed).
    pub fn empty() -> LatencyStats {
        LatencyStats {
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            mean_s: 0.0,
            max_s: 0.0,
        }
    }

    /// The latency objective of every serving verdict: p99 within
    /// `limit_s` **and** no request unanswered. A failed or shed request
    /// misses any limit, so a run that answered nothing cannot pass on the
    /// empty summary's p99 of 0.
    pub(crate) fn meets_p99(&self, limit_s: f64, unanswered: usize) -> bool {
        unanswered == 0 && self.p99_s <= limit_s
    }
}

/// Everything one serving run produced, aggregated. Two runs of the same
/// trace through the same deployment are expected to compare equal — the
/// serving determinism test relies on `PartialEq` covering every field,
/// energies included.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Requests served.
    pub n_requests: usize,
    /// Micro-batches formed (shed and failed batches included).
    pub n_batches: usize,
    /// Hard-label prediction per request, in request order. Shed and
    /// failed requests keep a `0` placeholder (they were never answered;
    /// `shed_requests` / `failed_requests` count them).
    pub predictions: Vec<u32>,
    /// Latency summary over completed requests.
    pub latency: LatencyStats,
    /// Mean queue depth sampled at batch seal instants: requests arrived
    /// by the seal minus those in earlier batches. This is the fleet
    /// autoscaler's input; load shedding judges the backlog at the
    /// dispatch instant instead (see
    /// [`FleetConfig::shed_queue_depth`](crate::fleet::FleetConfig::shed_queue_depth)).
    pub mean_queue_depth: f64,
    /// Deepest queue sampled at a batch seal instant.
    pub max_queue_depth: usize,
    /// Energy spent computing completed batches, Joules.
    pub busy_j: f64,
    /// Static energy of replicas waiting for work over the makespan, Joules.
    pub idle_j: f64,
    /// Virtual time from t = 0, when the replicas power up and idle
    /// pricing starts, to the last batch completion or replica restart,
    /// seconds.
    pub makespan_s: f64,
    /// Total operations of the completed batches.
    pub ops: OpCounts,
    /// Requests that completed only after at least one replica crash.
    pub retried_requests: usize,
    /// Requests shed at dispatch because the queue was over the shedding
    /// threshold — never executed, so they cost no energy.
    pub shed_requests: usize,
    /// Requests whose batch exhausted its retries without completing.
    pub failed_requests: usize,
    /// Energy burnt by batch executions a replica crash threw away, Joules.
    pub wasted_j: f64,
    /// Span trace of the run when [`ServeConfig::trace`] was on: one
    /// `Replica` span per replica plus one `Batch` span per dispatch
    /// attempt (crashed attempts carry a fault tag). `None` when tracing
    /// was off.
    ///
    /// [`ServeConfig::trace`]: crate::scheduler::ServeConfig::trace
    pub trace: Option<Trace>,
}

impl ServingReport {
    /// Busy + idle + crash-wasted energy, Joules.
    pub fn total_joules(&self) -> f64 {
        self.busy_j + self.idle_j + self.wasted_j
    }

    /// Total energy, kWh.
    pub fn kwh(&self) -> f64 {
        self.total_joules() / J_PER_KWH
    }

    /// Total energy attributed per request, Joules (idle included — an
    /// over-provisioned replica pool shows up here).
    pub fn joules_per_request(&self) -> f64 {
        if self.n_requests == 0 {
            0.0
        } else {
            self.total_joules() / self.n_requests as f64
        }
    }

    /// Busy energy per request, Joules — the marginal cost of one
    /// prediction, which is what the paper's O1 ensemble-vs-refit gap is
    /// about.
    pub fn busy_joules_per_request(&self) -> f64 {
        if self.n_requests == 0 {
            0.0
        } else {
            self.busy_j / self.n_requests as f64
        }
    }

    /// Sustained throughput over the makespan, requests per second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_s > 0.0 {
            self.n_requests as f64 / self.makespan_s
        } else {
            0.0
        }
    }

    /// Mean rows per executed batch.
    pub fn mean_batch_rows(&self) -> f64 {
        if self.n_batches == 0 {
            0.0
        } else {
            self.n_requests as f64 / self.n_batches as f64
        }
    }

    /// CO₂ / € footprint of the run under `grid`.
    pub fn emissions(&self, grid: GridIntensity) -> EmissionsEstimate {
        EmissionsEstimate::from_kwh(self.kwh(), grid)
    }

    /// Check this run against an SLO policy.
    pub fn check(&self, slo: &SloPolicy) -> SloReport {
        let emissions = self.emissions(slo.grid);
        let unanswered = self.failed_requests + self.shed_requests;
        SloReport {
            latency_ok: self.latency.meets_p99(slo.p99_latency_s, unanswered),
            energy_ok: slo.energy_budget_kwh.is_none_or(|cap| self.kwh() <= cap),
            carbon_ok: slo
                .carbon_budget_kg
                .is_none_or(|cap| emissions.kg_co2 <= cap),
            emissions,
        }
    }
}

/// A service-level objective: a latency bound plus optional energy and
/// carbon budgets for the whole trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// p99 request latency must not exceed this, seconds.
    pub p99_latency_s: f64,
    /// Total energy budget for the trace, kWh (`None` = unbounded).
    pub energy_budget_kwh: Option<f64>,
    /// Total emissions budget for the trace, kg CO₂ (`None` = unbounded).
    pub carbon_budget_kg: Option<f64>,
    /// Grid used for the carbon conversion.
    pub grid: GridIntensity,
}

impl SloPolicy {
    /// A latency-only SLO on the paper's German grid.
    pub fn latency_only(p99_latency_s: f64) -> SloPolicy {
        SloPolicy {
            p99_latency_s,
            energy_budget_kwh: None,
            carbon_budget_kg: None,
            grid: GridIntensity::GERMANY,
        }
    }
}

/// The verdict of [`ServingReport::check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloReport {
    /// p99 latency within bound, and no request failed or was shed.
    pub latency_ok: bool,
    /// Energy within budget.
    pub energy_ok: bool,
    /// Emissions within budget.
    pub carbon_ok: bool,
    /// The footprint the carbon verdict was computed from.
    pub emissions: EmissionsEstimate,
}

impl SloReport {
    /// `true` if every objective holds.
    pub fn passed(&self) -> bool {
        self.latency_ok && self.energy_ok && self.carbon_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let lat: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_latencies(&lat);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencyStats::from_latencies(&[0.25]);
        assert_eq!(s.p50_s, 0.25);
        assert_eq!(s.p99_s, 0.25);
    }

    fn report() -> ServingReport {
        ServingReport {
            n_requests: 1000,
            n_batches: 100,
            predictions: vec![0; 1000],
            latency: LatencyStats::from_latencies(&[0.01, 0.02, 0.03]),
            mean_queue_depth: 2.0,
            max_queue_depth: 5,
            busy_j: 1800.0,
            idle_j: 1800.0,
            makespan_s: 10.0,
            ops: OpCounts::ZERO,
            retried_requests: 0,
            shed_requests: 0,
            failed_requests: 0,
            wasted_j: 0.0,
            trace: None,
        }
    }

    #[test]
    fn empty_latency_stats_are_all_zero() {
        let s = LatencyStats::empty();
        assert_eq!(s.p50_s, 0.0);
        assert_eq!(s.p99_s, 0.0);
        assert_eq!(s.mean_s, 0.0);
        assert_eq!(s.max_s, 0.0);
    }

    #[test]
    fn wasted_energy_counts_toward_the_total() {
        let r = ServingReport {
            wasted_j: 400.0,
            ..report()
        };
        assert_eq!(r.total_joules(), 4000.0);
    }

    #[test]
    fn energy_accounting_adds_up() {
        let r = report();
        assert_eq!(r.total_joules(), 3600.0);
        assert!((r.kwh() - 0.001).abs() < 1e-12);
        assert!((r.joules_per_request() - 3.6).abs() < 1e-12);
        assert!((r.busy_joules_per_request() - 1.8).abs() < 1e-12);
        assert!((r.throughput_rps() - 100.0).abs() < 1e-12);
        assert!((r.mean_batch_rows() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn slo_check_covers_all_three_axes() {
        let r = report();
        let pass = r.check(&SloPolicy {
            p99_latency_s: 0.05,
            energy_budget_kwh: Some(0.01),
            carbon_budget_kg: Some(1.0),
            grid: GridIntensity::GERMANY,
        });
        assert!(pass.passed());
        let tight_latency = r.check(&SloPolicy::latency_only(0.02));
        assert!(!tight_latency.latency_ok && !tight_latency.passed());
        let tight_energy = r.check(&SloPolicy {
            p99_latency_s: 0.05,
            energy_budget_kwh: Some(1e-6),
            carbon_budget_kg: None,
            grid: GridIntensity::GERMANY,
        });
        assert!(!tight_energy.energy_ok);
        let tight_carbon = r.check(&SloPolicy {
            p99_latency_s: 0.05,
            energy_budget_kwh: None,
            carbon_budget_kg: Some(1e-9),
            grid: GridIntensity::GERMANY,
        });
        assert!(!tight_carbon.carbon_ok);
        // An unanswered request misses any latency limit, even when every
        // answered one was fast.
        for unanswered in [
            ServingReport {
                failed_requests: 1,
                ..report()
            },
            ServingReport {
                shed_requests: 1,
                ..report()
            },
        ] {
            let verdict = unanswered.check(&SloPolicy::latency_only(0.05));
            assert!(!verdict.latency_ok && !verdict.passed());
        }
        // Emissions use the requested grid.
        assert_eq!(
            tight_carbon.emissions.kg_co2,
            r.kwh() * GridIntensity::GERMANY.kg_co2_per_kwh
        );
    }
}
