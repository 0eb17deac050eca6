//! The virtual clock that stands in for wall-clock time.
//!
//! All budget enforcement in the simulated AutoML systems (search times of
//! 10 s, 30 s, 1 min, 5 min — exactly the paper's grid) operates on virtual
//! seconds derived from charged operations, never on real wall time. This
//! keeps experiments deterministic and lets a 28-compute-day study finish in
//! seconds of real time while preserving every budget-related behaviour
//! (any-time search, overshoot, strict adherence — paper Table 7).

/// A monotonically advancing clock measured in virtual seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VirtualClock {
    now_s: f64,
}

impl VirtualClock {
    /// A clock starting at zero virtual seconds.
    #[inline]
    pub fn new() -> Self {
        VirtualClock { now_s: 0.0 }
    }

    /// Current virtual time in seconds since creation.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Advance by `dt` virtual seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or not finite — time never flows backwards.
    #[inline]
    pub fn advance(&mut self, dt: f64) {
        assert!(
            dt.is_finite() && dt >= 0.0,
            "virtual clock must advance by a finite, non-negative duration (got {dt})"
        );
        self.now_s += dt;
    }

    /// Advance the clock to the absolute virtual instant `t` if `t` lies in
    /// the future; no-op otherwise. Returns the duration actually waited.
    #[inline]
    pub fn advance_to(&mut self, t: f64) -> f64 {
        if t > self.now_s {
            let dt = t - self.now_s;
            self.now_s = t;
            dt
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(1.5);
        c.advance(2.5);
        assert_eq!(c.now(), 4.0);
    }

    #[test]
    fn advance_to_future_and_past() {
        let mut c = VirtualClock::new();
        assert_eq!(c.advance_to(10.0), 10.0);
        assert_eq!(c.advance_to(5.0), 0.0);
        assert_eq!(c.now(), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0);
    }

    #[test]
    fn monotone_under_any_advances() {
        let mut rng = SplitMix64::seed_from_u64(0xc10c);
        for _ in 0..32 {
            let n = rng.gen_range(0..50usize);
            let mut c = VirtualClock::new();
            let mut prev = 0.0;
            for _ in 0..n {
                c.advance(rng.gen_range(0.0..1e6f64));
                assert!(c.now() >= prev);
                prev = c.now();
            }
        }
    }
}
