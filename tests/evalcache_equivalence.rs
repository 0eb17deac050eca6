//! The evaluation cache's headline guarantee: memoisation is **invisible**
//! in every artefact. A cache hit skips the real compute but replays the
//! exact virtual-energy charges the cold evaluation recorded, so the full
//! grid output — points, span traces, checkpoint records — is bitwise
//! identical with the cache on or off, at 1 or N workers, on a clean run
//! and under an active chaos [`FaultPlan`].

use green_automl::core::benchmark::BenchmarkPoint;
use green_automl::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 9;

/// One traced multi-budget grid: two nested budgets so the 60 s cells
/// repeat the 10 s cells' deterministic trial prefixes — the redundancy
/// the cache exists to collapse.
fn grid(workers: usize, eval_cache: bool, fault: Option<FaultPlan>) -> GridRun {
    let systems = all_systems();
    let datasets: Vec<_> = amlb39().into_iter().take(2).collect();
    let budgets = [10.0, 60.0];
    let mut spec = RunSpec::single_core(10.0, SEED).with_trace();
    if let Some(plan) = fault {
        spec = spec.with_fault(plan);
    }
    let opts = BenchmarkOptions {
        materialize: MaterializeOptions::tiny(),
        runs: 1,
        test_frac: 0.34,
        parallelism: workers,
        eval_cache,
    };
    run_grid_checked(&systems, &datasets, &budgets, &spec, &opts, None)
        .expect("the equivalence spec is valid")
}

/// Every float in a point, as raw bit patterns (`-0.0` vs `0.0` or NaN
/// payload differences would be caught).
fn point_bits(p: &BenchmarkPoint) -> [u64; 13] {
    [
        p.budget_s.to_bits(),
        p.balanced_accuracy.to_bits(),
        p.execution.duration_s.to_bits(),
        p.execution.energy.package_j.to_bits(),
        p.execution.energy.dram_j.to_bits(),
        p.execution.energy.gpu_j.to_bits(),
        p.execution.ops.scalar_flops.to_bits(),
        p.execution.ops.matmul_flops.to_bits(),
        p.execution.ops.tree_steps.to_bits(),
        p.execution.ops.mem_bytes.to_bits(),
        p.inference_kwh_per_row.to_bits(),
        p.inference_s_per_row.to_bits(),
        p.wasted_j.to_bits(),
    ]
}

fn assert_grids_identical(ctx: &str, reference: &GridRun, other: &GridRun) {
    assert_eq!(
        reference.points.len(),
        other.points.len(),
        "{ctx}: point count"
    );
    for (i, (a, b)) in reference.points.iter().zip(&other.points).enumerate() {
        assert_eq!(
            point_bits(a),
            point_bits(b),
            "{ctx}[{i}]: float bits ({} on {})",
            a.system,
            a.dataset
        );
        // Serialized traces compare the full span tree — ids, nesting,
        // labels, and per-span energy — byte for byte.
        let (ta, tb) = (a.trace.as_ref(), b.trace.as_ref());
        assert_eq!(
            ta.map(Trace::to_jsonl),
            tb.map(Trace::to_jsonl),
            "{ctx}[{i}]: trace ({} on {})",
            a.system,
            a.dataset
        );
    }
    // Structural equality last: covers every remaining field (system,
    // dataset, seed, n_models, n_evaluations, fault counters).
    assert_eq!(reference.points, other.points, "{ctx}: full points");
    assert_eq!(reference.failures, other.failures, "{ctx}: failures");
}

#[test]
fn clean_grid_is_bit_identical_with_cache_on_or_off_at_every_worker_count() {
    let reference = grid(1, false, None);
    assert!(!reference.points.is_empty());
    assert_eq!(
        reference.eval_cache_hits + reference.eval_cache_misses,
        0,
        "a disabled cache must observe nothing"
    );

    let cached_serial = grid(1, true, None);
    assert!(
        cached_serial.eval_cache_hits > 0,
        "the nested-budget grid must actually hit the cache"
    );
    assert_grids_identical("cache on @ 1 worker", &reference, &cached_serial);

    for workers in [4, 8] {
        assert_grids_identical(
            &format!("cache off @ {workers} workers"),
            &reference,
            &grid(workers, false, None),
        );
        assert_grids_identical(
            &format!("cache on @ {workers} workers"),
            &reference,
            &grid(workers, true, None),
        );
    }
}

#[test]
fn faulted_grid_is_bit_identical_with_cache_on_or_off_at_every_worker_count() {
    let reference = grid(1, false, Some(FaultPlan::chaos(SEED)));
    let faults: usize = reference.points.iter().map(|p| p.n_trial_faults).sum();
    assert!(faults > 0, "the chaos plan must actually kill trials");

    let cached_serial = grid(1, true, Some(FaultPlan::chaos(SEED)));
    assert!(
        cached_serial.eval_cache_hits > 0,
        "surviving trials must still hit the cache under chaos"
    );
    assert_grids_identical("chaos, cache on @ 1 worker", &reference, &cached_serial);

    for workers in [4, 8] {
        assert_grids_identical(
            &format!("chaos, cache on @ {workers} workers"),
            &reference,
            &grid(workers, true, Some(FaultPlan::chaos(SEED))),
        );
    }
}

/// AutoGluon alone on two datasets at nested budgets: two budget chains
/// that train on different data, so no key is shared between chains.
fn autogluon_chains(workers: usize) -> GridRun {
    let systems: Vec<Box<dyn AutoMlSystem>> = vec![Box::new(AutoGluon::default())];
    let datasets: Vec<_> = amlb39().into_iter().take(2).collect();
    let opts = BenchmarkOptions {
        materialize: MaterializeOptions::tiny(),
        runs: 1,
        test_frac: 0.34,
        parallelism: workers,
        eval_cache: true,
    };
    run_grid_checked(
        &systems,
        &datasets,
        &[10.0, 30.0, 60.0],
        &RunSpec::single_core(10.0, SEED),
        &opts,
        None,
    )
    .expect("the equivalence spec is valid")
}

#[test]
fn budget_chains_keep_the_serial_cache_counts_at_every_worker_count() {
    let serial = autogluon_chains(1);
    assert!(serial.eval_cache_hits > 0, "nested budgets must hit");
    for workers in [2, 4] {
        let parallel = autogluon_chains(workers);
        assert_grids_identical(&format!("{workers} workers"), &serial, &parallel);
        // Each chain runs its budgets in order on one worker, so the
        // 30 s and 60 s cells replay the 10 s prefix instead of racing it.
        assert_eq!(
            (parallel.eval_cache_hits, parallel.eval_cache_misses),
            (serial.eval_cache_hits, serial.eval_cache_misses),
            "{workers} workers: cache hits/misses"
        );
    }
}

// ---------------------------------------------------------- checkpoint ----

fn tmp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("green-automl-evalcache-eq");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// Checkpoint records are flushed in completion order, which is
/// scheduling-dependent — but each *record* must be byte-identical, so the
/// sorted line sets agree.
fn sorted_ckpt_lines(path: &PathBuf) -> Vec<String> {
    let mut lines: Vec<String> = std::fs::read_to_string(path)
        .expect("checkpoint written")
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

#[test]
fn checkpoint_records_are_identical_with_cache_on_or_off() {
    let systems = all_systems();
    let datasets: Vec<_> = amlb39().into_iter().take(1).collect();
    let budgets = [10.0, 60.0];
    let spec = RunSpec::single_core(10.0, SEED);
    let run = |workers: usize, eval_cache: bool, path: &PathBuf| {
        let opts = BenchmarkOptions {
            materialize: MaterializeOptions::tiny(),
            runs: 1,
            test_frac: 0.34,
            parallelism: workers,
            eval_cache,
        };
        run_grid_checked(&systems, &datasets, &budgets, &spec, &opts, Some(path))
            .expect("valid spec");
    };

    let cold = tmp_ckpt("cold.ckpt");
    run(1, false, &cold);
    let cached = tmp_ckpt("cached.ckpt");
    run(4, true, &cached);

    // Same grid fingerprint header, same sealed cell records — the cache
    // (and the schedule) leave no trace in the persisted artefact.
    assert_eq!(sorted_ckpt_lines(&cold), sorted_ckpt_lines(&cached));
}
