//! The development-stage tuner is the same at every worker count: with
//! its CAML runs on 1, 2 or 4 workers, and with the run's point memo or
//! without it, a tune whose median pruner fires returns the same
//! development cost, winner, scores, pruning count and representatives,
//! bit for bit. With the memo it also stores the same number of points at
//! every worker count: the batches compute exactly the runs the serial
//! tuner computes, and none speculatively.

use green_automl::core::benchmark::PointMemo;
use green_automl::core::devtune::{DevTuneOptions, DevTuneOutcome, DevTuner};
use green_automl::dataset::{dev_binary_pool, MaterializeOptions};
use green_automl::energy::Measurement;

/// 8 trials on 3 representatives, 2 runs each: the pruner stops some
/// trials after their second dataset, so trials past the first few run in
/// more than one batch.
fn pruning_opts() -> DevTuneOptions {
    DevTuneOptions {
        budget_s: 5.0,
        top_k: 3,
        bo_iters: 8,
        runs_per_eval: 2,
        materialize: MaterializeOptions::tiny(),
        seed: 0,
    }
}

/// Everything a tune returns, with its floats as bits.
fn fingerprint(o: &DevTuneOutcome) -> (Vec<u64>, String, usize, usize, Vec<String>) {
    let Measurement {
        duration_s,
        energy,
        ops,
    } = o.development;
    let bits = [
        duration_s,
        energy.package_j,
        energy.dram_j,
        energy.gpu_j,
        ops.scalar_flops,
        ops.matmul_flops,
        ops.tree_steps,
        ops.mem_bytes,
        o.best_meta_score,
        o.best_accuracy,
    ]
    .map(f64::to_bits)
    .to_vec();
    (
        bits,
        format!("{:?}", o.params),
        o.n_trials,
        o.n_pruned,
        o.representatives.clone(),
    )
}

#[test]
fn tunes_are_bit_identical_and_compute_the_same_runs_at_every_worker_count() {
    let pool = dev_binary_pool();
    let opts = pruning_opts();

    let serial_memo = PointMemo::default();
    let serial = DevTuner::tune_with(&pool[..12], &opts, Some(&serial_memo), 1);
    assert!(serial.n_pruned >= 1, "the pruner must cut a batch");
    assert!(serial.n_pruned < serial.n_trials);
    let reference = fingerprint(&serial);

    for workers in [1, 2, 4] {
        let memo = PointMemo::default();
        let memoised = DevTuner::tune_with(&pool[..12], &opts, Some(&memo), workers);
        assert_eq!(
            fingerprint(&memoised),
            reference,
            "memo, {workers} worker(s)"
        );
        assert_eq!(
            memo.len(),
            serial_memo.len(),
            "{workers} worker(s) computed other runs than the serial tuner"
        );

        let live = DevTuner::tune_with(&pool[..12], &opts, None, workers);
        assert_eq!(
            fingerprint(&live),
            reference,
            "no memo, {workers} worker(s)"
        );
    }
}
