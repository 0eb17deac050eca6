#![allow(missing_docs)]
//! The evaluation-cache perf baseline: times the multi-budget benchmark
//! grid cold (memoisation off), fresh (memoisation on, cache starts
//! empty), and warm (cache pre-populated by an identical pass), serial and
//! parallel, and writes the machine-readable `BENCH_grid.json` at the
//! workspace root — the committed perf-trajectory point CI compares
//! against (see `.github/workflows/ci.yml`). The fresh passes' cache
//! counters are recorded too: serial as `hits`/`misses`, the last parallel
//! pass as `parallel_hits`/`parallel_misses`.
//!
//! The grid's nested budgets repeat each system's deterministic trial
//! prefix, so the fresh pass already collapses real work; the warm pass is
//! the steady state a resumed or repeated protocol run sees. Results are
//! byte-identical in every mode — the cache-on and cache-off rows of
//! `tests/evalcache_equivalence.rs` prove it — so this benchmark is purely a
//! wall-clock story.

use green_automl_core::benchmark::{run_once_in, BenchmarkOptions};
use green_automl_core::{run_grid_checked, EvalCache};
use green_automl_dataset::{amlb39, DatasetMeta, MaterializeOptions};
use green_automl_systems::{all_systems, AutoMlSystem, FitContext, RunSpec};
use std::time::Instant;

const SEED: u64 = 0;
const BUDGETS: [f64; 3] = [10.0, 30.0, 60.0];
const N_DATASETS: usize = 2;
const RUNS: usize = 1;

fn opts(parallelism: usize, eval_cache: bool) -> BenchmarkOptions {
    BenchmarkOptions {
        materialize: MaterializeOptions::tiny(),
        runs: RUNS,
        test_frac: 0.34,
        parallelism,
        eval_cache,
    }
}

/// Wall-clock of one full grid, plus its cache counters.
fn time_grid(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    parallelism: usize,
    eval_cache: bool,
) -> (f64, u64, u64) {
    let spec = RunSpec::single_core(BUDGETS[0], SEED);
    let t0 = Instant::now();
    let run = run_grid_checked(
        systems,
        datasets,
        &BUDGETS,
        &spec,
        &opts(parallelism, eval_cache),
        None,
    )
    .expect("bench spec is valid");
    let wall = t0.elapsed().as_secs_f64();
    assert!(!run.points.is_empty());
    (wall, run.eval_cache_hits, run.eval_cache_misses)
}

/// Serial per-cell pass under an explicit shared cache; returns wall-clock.
/// Two calls with the same cache give the populate and warm passes.
fn time_cells(
    systems: &[Box<dyn AutoMlSystem>],
    datasets: &[DatasetMeta],
    cache: &EvalCache,
) -> f64 {
    let opts = opts(1, true);
    let ctx = FitContext::with_cache(cache);
    let t0 = Instant::now();
    for system in systems {
        for meta in datasets {
            for run in 0..RUNS {
                let seed = SEED ^ (run as u64 * 0x9e37) ^ (meta.openml_id as u64);
                let m_opts = MaterializeOptions {
                    seed,
                    ..opts.materialize
                };
                let ds = meta.materialize(&m_opts);
                if system.budget_free() {
                    let spec = RunSpec {
                        seed,
                        ..RunSpec::single_core(BUDGETS[0], seed)
                    };
                    run_once_in(system.as_ref(), meta, &ds, &spec, &opts, &ctx);
                } else {
                    for &b in &BUDGETS {
                        if b < system.min_budget_s() {
                            continue;
                        }
                        let spec = RunSpec {
                            seed,
                            ..RunSpec::single_core(b, seed)
                        };
                        run_once_in(system.as_ref(), meta, &ds, &spec, &opts, &ctx);
                    }
                }
            }
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Best of `reps` timings of `f`.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let systems = all_systems();
    let datasets: Vec<DatasetMeta> = amlb39().into_iter().take(N_DATASETS).collect();

    // Untimed warm-up materializes every dataset so no mode pays it.
    time_grid(&systems, &datasets, 0, true);

    let reps = 3;
    let cold_serial = best_of(reps, || time_grid(&systems, &datasets, 1, false).0);
    let cold_parallel = best_of(reps, || time_grid(&systems, &datasets, 0, false).0);
    let mut hits = 0;
    let mut misses = 0;
    let fresh_serial = best_of(reps, || {
        let (w, h, m) = time_grid(&systems, &datasets, 1, true);
        (hits, misses) = (h, m);
        w
    });
    // Parallel counts are reported, not gated: two budget chains may
    // share a key, so they need not equal the serial ones.
    let mut par_hits = 0;
    let mut par_misses = 0;
    let fresh_parallel = best_of(reps, || {
        let (w, h, m) = time_grid(&systems, &datasets, 0, true);
        (par_hits, par_misses) = (h, m);
        w
    });
    let warm_serial = best_of(reps, || {
        let cache = EvalCache::new();
        time_cells(&systems, &datasets, &cache); // populate (untimed role)
        time_cells(&systems, &datasets, &cache) // steady state
    });

    let fresh_speedup = cold_serial / fresh_serial;
    let warm_speedup = cold_serial / warm_serial;
    let json = format!(
        "{{\n  \"bench\": \"grid\",\n  \"config\": {{ \"systems\": {}, \"datasets\": {}, \
         \"runs\": {}, \"budgets\": [10, 30, 60] }},\n  \"wall_s\": {{\n    \
         \"cold_serial\": {cold_serial:.4},\n    \"fresh_serial\": {fresh_serial:.4},\n    \
         \"warm_serial\": {warm_serial:.4},\n    \"cold_parallel\": {cold_parallel:.4},\n    \
         \"fresh_parallel\": {fresh_parallel:.4}\n  }},\n  \"speedup\": {{\n    \
         \"fresh_vs_cold_serial\": {fresh_speedup:.3},\n    \
         \"warm_vs_cold_serial\": {warm_speedup:.3}\n  }},\n  \"cache\": {{ \"hits\": {hits}, \
         \"misses\": {misses}, \"parallel_hits\": {par_hits}, \
         \"parallel_misses\": {par_misses} }}\n}}\n",
        systems.len(),
        datasets.len(),
        RUNS,
    );
    print!("{json}");
    println!(
        "grid: fresh {fresh_speedup:.2}x, warm {warm_speedup:.2}x vs cold \
         ({hits} hits / {misses} misses serial, {par_hits} / {par_misses} parallel)"
    );

    // CARGO_MANIFEST_DIR is crates/bench; the baseline lives at the
    // workspace root next to the other committed artefacts.
    let out = std::env::var("BENCH_GRID_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_grid.json",
            env!("CARGO_MANIFEST_DIR") // compile-time fallback for plain ./grid runs
        )
    });
    std::fs::write(&out, &json).expect("write BENCH_grid.json");
    println!("wrote {out}");
}
