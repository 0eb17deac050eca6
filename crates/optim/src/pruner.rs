//! Median pruning — the early-termination rule of the §2.5 development-
//! stage tuner ("for poor-performing AutoML parameters, evaluating a few
//! datasets is sufficient to detect that the parameters are not performing
//! well. To leverage this insight, we use median pruning").

/// Tracks intermediate values of completed trials and prunes a running
/// trial whose intermediate value falls below the median of completed
/// trials at the same step.
#[derive(Debug, Clone, Default)]
pub struct MedianPruner {
    /// `history[step]` = intermediate values of completed trials at `step`.
    history: Vec<Vec<f64>>,
    /// Trials must survive this many steps before pruning applies.
    pub warmup_steps: usize,
    /// At least this many completed trials are needed before pruning.
    pub min_trials: usize,
}

impl MedianPruner {
    /// A pruner with the given warm-up (steps exempt from pruning) and
    /// minimum completed-trial count.
    pub fn new(warmup_steps: usize, min_trials: usize) -> MedianPruner {
        MedianPruner {
            history: Vec::new(),
            warmup_steps,
            min_trials,
        }
    }

    /// Could a running trial be pruned after `step`, whatever its value?
    /// True once `step` is past the warm-up and at least `min_trials`
    /// completed trials reached it. It reads only the pruner's state, so it
    /// is known before the trial runs: where it is false,
    /// [`should_prune`](Self::should_prune) is false for every value.
    pub fn may_prune(&self, step: usize) -> bool {
        step >= self.warmup_steps
            && self
                .history
                .get(step)
                .is_some_and(|values| values.len() >= self.min_trials)
    }

    /// Should a running trial with `value` at `step` be pruned?
    /// (Higher values are better.)
    pub fn should_prune(&self, step: usize, value: f64) -> bool {
        self.may_prune(step) && value < median(&self.history[step])
    }

    /// Record the intermediate trajectory of a *completed* trial
    /// (`trajectory[step]` = value at that step).
    pub fn record_completed(&mut self, trajectory: &[f64]) {
        for (step, &v) in trajectory.iter().enumerate() {
            if self.history.len() <= step {
                self.history.resize(step + 1, Vec::new());
            }
            self.history[step].push(v);
        }
    }

    /// Completed trials recorded at step 0.
    pub fn n_completed(&self) -> usize {
        self.history.first().map_or(0, Vec::len)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_energy::rng::SplitMix64;

    #[test]
    fn no_pruning_without_history() {
        let p = MedianPruner::new(0, 1);
        assert!(!p.should_prune(0, -100.0));
    }

    #[test]
    fn prunes_below_median() {
        let mut p = MedianPruner::new(0, 2);
        p.record_completed(&[0.5, 0.6]);
        p.record_completed(&[0.7, 0.8]);
        p.record_completed(&[0.9, 0.95]);
        // Median at step 0 is 0.7.
        assert!(p.should_prune(0, 0.5));
        assert!(!p.should_prune(0, 0.8));
        // Median at step 1 is 0.8.
        assert!(p.should_prune(1, 0.7));
    }

    #[test]
    fn warmup_steps_are_exempt() {
        let mut p = MedianPruner::new(2, 1);
        p.record_completed(&[0.9, 0.9, 0.9]);
        assert!(!p.should_prune(0, 0.0));
        assert!(!p.should_prune(1, 0.0));
        assert!(p.should_prune(2, 0.0));
    }

    #[test]
    fn min_trials_gate() {
        let mut p = MedianPruner::new(0, 3);
        p.record_completed(&[0.9]);
        p.record_completed(&[0.9]);
        assert!(!p.should_prune(0, 0.0), "only two completed trials");
        p.record_completed(&[0.9]);
        assert!(p.should_prune(0, 0.0));
    }

    #[test]
    fn median_handles_even_counts() {
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn may_prune_agrees_with_pruning_the_worst_value_on_random_histories() {
        let mut rng = SplitMix64::seed_from_u64(0x9e1);
        let mut seen = [0usize; 2];
        for _ in 0..500 {
            let mut p = MedianPruner::new(rng.gen_range(0..4usize), rng.gen_range(0..5usize));
            for _ in 0..rng.gen_range(0..8usize) {
                let trajectory: Vec<f64> = (0..rng.gen_range(0..6usize))
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                p.record_completed(&trajectory);
            }
            for step in 0..8 {
                let may = p.may_prune(step);
                assert_eq!(
                    may,
                    p.should_prune(step, f64::NEG_INFINITY),
                    "step {step} of {p:?}"
                );
                seen[usize::from(may)] += 1;
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both answers drawn: {seen:?}");
    }

    #[test]
    fn pruning_saves_most_bad_trials_in_a_sweep() {
        // Simulate 20 trials whose quality is known: bad trials should be
        // pruned at step 0 once enough good ones completed.
        let mut p = MedianPruner::new(0, 5);
        let mut pruned = 0;
        for t in 0..20 {
            let quality = if t % 2 == 0 { 0.9 } else { 0.3 };
            if p.should_prune(0, quality) {
                pruned += 1;
                continue;
            }
            p.record_completed(&[quality, quality]);
        }
        assert!(pruned >= 6, "only {pruned} trials pruned");
    }
}
