#![allow(missing_docs)]
//! The kernel-layer perf baseline: microbenches the shared `ml::kernel`
//! primitives (cache-blocked matmul vs the naive reference), times the
//! rewritten model predict paths and the tree family's fit and ensemble
//! predict paths (forest and boosting fits also on a tie-heavy 165 × 86
//! matrix shaped like the grid's), and re-times the evaluation grid so the
//! raw-speed pass shows up in the committed perf trajectory. Writes the
//! machine-readable `BENCH_kernels.json` at the workspace root — the
//! committed point CI compares against (see `.github/workflows/ci.yml`).
//!
//! The `seed_*` constants are the grid timings measured on the reference
//! machine at the last commit *before* the kernel layer existed (same
//! best-of-3 protocol as `benches/grid.rs`); `grid_fresh_vs_seed_cold` is
//! the headline number — what a fresh memoised grid run costs today
//! relative to a cold pre-kernel run.
//!
//! Every kernel keeps the naive ascending summation order at any block
//! size, so this benchmark is purely a wall-clock story: predictions are
//! bitwise identical to the pre-kernel substrate (the `ml` unit tests and
//! the equivalence suites prove it).

use green_automl_core::{run_grid_checked, BenchmarkOptions};
use green_automl_dataset::{amlb39, DatasetMeta, MaterializeOptions, TaskSpec};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, Device};
use green_automl_ml::{
    kernel, matrix, AttentionParams, KnnParams, Matrix, MlpParams, ModelSpec, Predict,
};
use green_automl_systems::{all_systems, AutoMlSystem, RunSpec};
use std::hint::black_box;
use std::time::Instant;

/// Grid cold-serial wall seconds on the reference machine at the seed
/// commit (pre-kernel substrate, best of 3).
const SEED_COLD_SERIAL: f64 = 0.5472;
/// Grid fresh-serial wall seconds on the reference machine at the seed
/// commit (pre-kernel substrate, best of 3).
const SEED_FRESH_SERIAL: f64 = 0.4204;

const SEED: u64 = 0;
const BUDGETS: [f64; 3] = [10.0, 30.0, 60.0];
const N_DATASETS: usize = 2;

fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

// --- Matmul microbench ---------------------------------------------------

/// Time `reps` calls of `f` and return seconds per call.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn random_matrix(rows: usize, cols: usize, rng: &mut SplitMix64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0f64);
    }
    m
}

/// Blocked-vs-naive matmul at an awkward (non-multiple-of-block) shape;
/// returns (blocked s/call, naive s/call, gflops of the blocked kernel).
fn bench_matmul() -> (f64, f64, f64) {
    let (m, k, n) = (176, 160, 144);
    let mut rng = SplitMix64::seed_from_u64(42);
    let a = random_matrix(m, k, &mut rng);
    let b = random_matrix(k, n, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let reps = 40;
    let blocked = best_of(3, || per_call(reps, || kernel::matmul(&a, &b, &mut out)));
    let naive = best_of(3, || {
        per_call(reps, || kernel::matmul_naive(&a, &b, &mut out))
    });
    let gflops = 2.0 * (m * k * n) as f64 / blocked / 1e9;
    (blocked, naive, gflops)
}

// --- Model predict timings ----------------------------------------------

/// A synthetic task encoded once: 600 train rows, 200 query rows, 16 cols.
fn task() -> (Matrix, Vec<u32>, Matrix) {
    let ds = TaskSpec::new("kernel-bench", 800, 16, 3).generate();
    let mut t = tracker();
    let x = matrix::encode(&ds, &mut t);
    let train: Vec<usize> = (0..600).collect();
    let test: Vec<usize> = (600..800).collect();
    (
        x.take_rows(&train),
        train.iter().map(|&r| ds.labels[r]).collect(),
        x.take_rows(&test),
    )
}

fn tracker() -> CostTracker {
    CostTracker::new(Device::xeon_gold_6132(), 1)
}

/// Seconds per predict_proba batch over the 200-row query set.
fn bench_models() -> (f64, f64, f64) {
    let (x, y, xt) = task();
    let mut t = tracker();

    let attn = green_automl_ml::models::attention::InContextAttention::fit(
        &AttentionParams::default(),
        &x,
        &y,
        3,
        &mut t,
        SEED,
    );
    let attention_s = best_of(3, || {
        per_call(4, || {
            let _ = attn.predict_proba(&xt, &mut tracker());
        })
    });

    let knn =
        green_automl_ml::models::knn::Knn::fit(&KnnParams::default(), &x, &y, 3, &mut t, SEED);
    let knn_s = best_of(3, || {
        per_call(8, || {
            let _ = knn.predict_proba(&xt, &mut tracker());
        })
    });

    let mut rng = SplitMix64::seed_from_u64(SEED);
    let mlp = green_automl_ml::models::mlp::Mlp::fit(
        &MlpParams {
            hidden2: 24,
            ..Default::default()
        },
        &x,
        &y,
        3,
        &mut t,
        &mut rng,
    );
    let mlp_s = best_of(3, || {
        per_call(16, || {
            let _ = mlp.predict_proba(&xt, &mut tracker());
        })
    });

    (attention_s, knn_s, mlp_s)
}

/// A fit matrix shaped like the ones the evaluation grid's tree learners
/// fit: 165 rows of 20 features, 60% categorical, one-hot encoded to 86
/// columns in which 90% of adjacent sorted values tie; 2 classes.
fn grid_shaped_task() -> (Matrix, Vec<u32>) {
    let ds = TaskSpec {
        categorical_frac: 0.6,
        ..TaskSpec::new("grid-shaped", 165, 20, 2)
    }
    .generate();
    let x = matrix::encode(&ds, &mut tracker());
    assert_eq!((x.rows(), x.cols()), (165, 86), "grid-shaped fixture");
    (x, ds.labels)
}

/// Seconds per default forest and boosting fit on [`grid_shaped_task`].
fn bench_grid_shaped_fits() -> [f64; 2] {
    let (x, y) = grid_shaped_task();
    [
        ModelSpec::RandomForest(Default::default()),
        ModelSpec::GradientBoosting(Default::default()),
    ]
    .map(|spec| {
        best_of(3, || {
            per_call(4, || {
                black_box(spec.fit(black_box(&x), &y, 2, &mut tracker(), SEED));
            })
        })
    })
}

/// Seconds per fit of each tree family (tree, forest, extra trees,
/// boosting) on the 600 training rows, and per predict_proba batch of the
/// forest and the boosting ensemble over the 200-row query set.
fn bench_trees() -> ([f64; 4], [f64; 2]) {
    let (x, y, xt) = task();
    let specs = [
        (ModelSpec::DecisionTree(Default::default()), 16),
        (ModelSpec::RandomForest(Default::default()), 2),
        (ModelSpec::ExtraTrees(Default::default()), 4),
        (ModelSpec::GradientBoosting(Default::default()), 2),
    ];
    let fit_s = specs.clone().map(|(spec, reps)| {
        best_of(3, || {
            per_call(reps, || {
                black_box(spec.fit(black_box(&x), &y, 3, &mut tracker(), SEED));
            })
        })
    });
    let [_, (forest, _), _, (boosting, _)] = specs;
    let predict_s = [forest, boosting].map(|spec| {
        let model = spec.fit(&x, &y, 3, &mut tracker(), SEED);
        best_of(3, || {
            per_call(8, || {
                black_box(model.predict_proba(black_box(&xt), &mut tracker()));
            })
        })
    });
    (fit_s, predict_s)
}

// --- Grid re-timing ------------------------------------------------------

fn opts(eval_cache: bool) -> BenchmarkOptions {
    BenchmarkOptions {
        materialize: MaterializeOptions::tiny(),
        runs: 1,
        test_frac: 0.34,
        parallelism: 1,
        eval_cache,
    }
}

fn time_grid(systems: &[Box<dyn AutoMlSystem>], datasets: &[DatasetMeta], eval_cache: bool) -> f64 {
    let spec = RunSpec::single_core(BUDGETS[0], SEED);
    let t0 = Instant::now();
    let run = run_grid_checked(systems, datasets, &BUDGETS, &spec, &opts(eval_cache), None)
        .expect("bench spec is valid");
    let wall = t0.elapsed().as_secs_f64();
    assert!(!run.points.is_empty());
    wall
}

fn main() {
    let (matmul_blocked, matmul_naive, matmul_gflops) = bench_matmul();
    let matmul_speedup = matmul_naive / matmul_blocked;

    let (attention_s, knn_s, mlp_s) = bench_models();
    let ([tree_fit_s, forest_fit_s, extra_fit_s, boosting_fit_s], [forest_s, boosting_s]) =
        bench_trees();
    let [forest_grid_fit_s, boosting_grid_fit_s] = bench_grid_shaped_fits();

    let systems = all_systems();
    let datasets: Vec<DatasetMeta> = amlb39().into_iter().take(N_DATASETS).collect();
    time_grid(&systems, &datasets, true); // untimed warm-up (materialization)
    let grid_cold = best_of(3, || time_grid(&systems, &datasets, false));
    let grid_fresh = best_of(3, || time_grid(&systems, &datasets, true));

    let fresh_vs_seed_cold = SEED_COLD_SERIAL / grid_fresh;
    let cold_vs_seed_cold = SEED_COLD_SERIAL / grid_cold;
    let fresh_vs_seed_fresh = SEED_FRESH_SERIAL / grid_fresh;

    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"config\": {{ \"matmul\": [176, 160, 144], \
         \"task\": [800, 16, 3], \"grid_shaped_task\": [165, 86, 2], \
         \"grid_datasets\": {n_ds}, \"budgets\": [10, 30, 60] }},\n  \
         \"matmul\": {{\n    \"blocked_s\": {matmul_blocked:.6},\n    \
         \"naive_s\": {matmul_naive:.6},\n    \"speedup\": {matmul_speedup:.3},\n    \
         \"gflops\": {matmul_gflops:.2}\n  }},\n  \"predict_s\": {{\n    \
         \"attention\": {attention_s:.4},\n    \"knn\": {knn_s:.4},\n    \
         \"mlp\": {mlp_s:.4},\n    \"forest\": {forest_s:.4},\n    \
         \"boosting\": {boosting_s:.4}\n  }},\n  \"fit_s\": {{\n    \
         \"tree\": {tree_fit_s:.4},\n    \"forest\": {forest_fit_s:.4},\n    \
         \"extra_trees\": {extra_fit_s:.4},\n    \"boosting\": {boosting_fit_s:.4},\n    \
         \"forest_grid_shaped\": {forest_grid_fit_s:.4},\n    \
         \"boosting_grid_shaped\": {boosting_grid_fit_s:.4}\n  }},\n  \
         \"grid_wall_s\": {{\n    \
         \"cold_serial\": {grid_cold:.4},\n    \"fresh_serial\": {grid_fresh:.4},\n    \
         \"seed_cold_serial\": {SEED_COLD_SERIAL:.4},\n    \
         \"seed_fresh_serial\": {SEED_FRESH_SERIAL:.4}\n  }},\n  \"speedup\": {{\n    \
         \"grid_fresh_vs_seed_cold\": {fresh_vs_seed_cold:.3},\n    \
         \"grid_cold_vs_seed_cold\": {cold_vs_seed_cold:.3},\n    \
         \"grid_fresh_vs_seed_fresh\": {fresh_vs_seed_fresh:.3}\n  }}\n}}\n",
        n_ds = datasets.len(),
    );
    print!("{json}");
    println!(
        "kernels: matmul {matmul_speedup:.2}x blocked-vs-naive ({matmul_gflops:.1} GFLOP/s), \
         grid fresh {fresh_vs_seed_cold:.2}x vs seed cold"
    );

    let out = std::env::var("BENCH_KERNELS_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_kernels.json",
            env!("CARGO_MANIFEST_DIR") // compile-time fallback for plain runs
        )
    });
    std::fs::write(&out, &json).expect("write BENCH_kernels.json");
    println!("wrote {out}");
}
