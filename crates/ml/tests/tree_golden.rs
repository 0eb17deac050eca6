//! Golden bits for the tree family.
//!
//! Seeded fits of `DecisionTree`, `RandomForest`, `ExtraTrees` and
//! `GradientBoosting` (binary and 4-class) on a fixture with heavily tied
//! values, `-0.0`/`+0.0` mixes, a constant column and — through the
//! forests' bootstrap and boosting's row subsample — duplicated rows. The
//! `_all_rows` cases (a forest without bootstrap, boosting at `subsample`
//! 1.0) fit every tree on every row of the fixture. Every number below is
//! an IEEE-754 bit pattern (or an exact count): a change to the split
//! search, the node layout or the predict loops that moves a single bit
//! of a prediction, a per-row inference cost, a size proxy, or a charged
//! fit/predict `Measurement` fails here. The CI runs this file in release mode too, so
//! optimised float codegen cannot move a bit unseen either.
//!
//! On a mismatch the test prints the whole actual table in source form.

use green_automl_energy::{CostTracker, Device, Measurement, SplitMix64, StableHasher};
use green_automl_ml::{ForestParams, GbParams, Matrix, ModelSpec, Predict, TreeParams};

/// Rows of `d = 6` features: continuous, five tied levels, signed zeros
/// (`-0.0`, `+0.0`, `±1`), tie-heavy integers, noise, and a constant.
/// Labels come from a noisy linear score cut into `k` classes.
fn fixture(n: usize, k: usize, seed: u64) -> (Matrix, Vec<u32>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * 6);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.next_f64() * 4.0 - 2.0;
        let b = rng.gen_range(0..5usize) as f64 * 0.5;
        let z = [-0.0, 0.0, 1.0, -1.0][rng.gen_range(0..4usize)];
        let c = if rng.gen_bool(0.3) {
            -0.0
        } else {
            (rng.next_f64() * 8.0).floor()
        };
        let e = rng.next_f64();
        data.extend([a, b, z, c, e, 1.5]);
        let score = a + 0.8 * b - z + 0.3 * c + 0.5 * e;
        let label = if k == 2 {
            u32::from(score > 1.0)
        } else {
            [-0.5, 1.0, 2.5].iter().filter(|&&cut| score > cut).count() as u32
        };
        y.push(if rng.gen_bool(0.08) {
            rng.gen_range(0..k) as u32
        } else {
            label
        });
    }
    let mut x = Matrix::from_vec(data, n, 6);
    x.row_scale = 2.0;
    x.feat_scale = 1.5;
    (x, y)
}

fn specs() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("tree", ModelSpec::DecisionTree(TreeParams::default())),
        (
            "deep_tree",
            ModelSpec::DecisionTree(TreeParams {
                max_depth: 30,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features_frac: 0.5,
                random_thresholds: false,
            }),
        ),
        ("forest", ModelSpec::RandomForest(ForestParams::default())),
        (
            "extra_trees",
            ModelSpec::ExtraTrees(ForestParams::default()),
        ),
        ("boosting", ModelSpec::GradientBoosting(GbParams::default())),
        (
            "forest_all_rows",
            ModelSpec::RandomForest(ForestParams {
                bootstrap: false,
                ..ForestParams::default()
            }),
        ),
        (
            "boosting_all_rows",
            ModelSpec::GradientBoosting(GbParams {
                subsample: 1.0,
                ..GbParams::default()
            }),
        ),
    ]
}

fn measurement_bits(m: &Measurement) -> [u64; 8] {
    [
        m.duration_s.to_bits(),
        m.energy.package_j.to_bits(),
        m.energy.dram_j.to_bits(),
        m.energy.gpu_j.to_bits(),
        m.ops.scalar_flops.to_bits(),
        m.ops.matmul_flops.to_bits(),
        m.ops.tree_steps.to_bits(),
        m.ops.mem_bytes.to_bits(),
    ]
}

/// One fitted case, every field bit-exact.
#[derive(Debug, PartialEq)]
struct Golden {
    name: &'static str,
    k: usize,
    /// `StableHasher` digest of the `to_bits` of every predicted
    /// probability, row-major, on the held-out fixture.
    pred: u64,
    /// `inference_ops_per_row`: scalar, matmul, tree, mem.
    ops_per_row: [u64; 4],
    n_params: usize,
    /// Fit and predict measurements: duration, package/DRAM/GPU Joules,
    /// scalar/matmul/tree/mem ops.
    fit: [u64; 8],
    predict: [u64; 8],
}

fn run(name: &'static str, spec: &ModelSpec, k: usize) -> Golden {
    let (x, y) = fixture(300, k, 11 + k as u64);
    let (xt, _) = fixture(90, k, 97 + k as u64);
    let mut tracker = CostTracker::new(Device::xeon_gold_6132(), 4);
    let model = spec.fit(&x, &y, k, &mut tracker, 7);
    let fit = tracker.measurement();
    let proba = model.predict_proba(&xt, &mut tracker);
    let predict = tracker.measurement().since(&fit);
    let mut h = StableHasher::new(0x7eee);
    for &p in proba.as_slice() {
        h.write_u64(p.to_bits());
    }
    let ops = model.inference_ops_per_row();
    Golden {
        name,
        k,
        pred: h.finish(),
        ops_per_row: [
            ops.scalar_flops.to_bits(),
            ops.matmul_flops.to_bits(),
            ops.tree_steps.to_bits(),
            ops.mem_bytes.to_bits(),
        ],
        n_params: model.n_params(),
        fit: measurement_bits(&fit),
        predict: measurement_bits(&predict),
    }
}

fn hex(words: &[u64]) -> String {
    let items: Vec<String> = words.iter().map(|w| format!("{w:#018x}")).collect();
    format!("[{}]", items.join(", "))
}

fn source_form(g: &Golden) -> String {
    format!(
        "    Golden {{ name: {:?}, k: {}, pred: {:#018x}, n_params: {},\n        \
         ops_per_row: {},\n        fit: {},\n        predict: {} }},",
        g.name,
        g.k,
        g.pred,
        g.n_params,
        hex(&g.ops_per_row),
        hex(&g.fit),
        hex(&g.predict),
    )
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    Golden { name: "tree", k: 2, pred: 0xc58a4309cb979b47, n_params: 45,
        ops_per_row: [0x0000000000000000, 0x0000000000000000, 0x405e000000000000, 0x0000000000000000],
        fit: [0x3f1a998862c2538e, 0x3f723c867bdf0605, 0x3f43f3264a11beaa, 0x0000000000000000, 0x410d78f4af57d817, 0x0000000000000000, 0x40e0338000000000, 0x0000000000000000],
        predict: [0x3ee51ad643b23b80, 0x3f415af20bbfaaa0, 0x3f0fa841658b5940, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d0ae0000000000, 0x0000000000000000] },
    Golden { name: "tree", k: 4, pred: 0x4a578dda62b7c542, n_params: 73,
        ops_per_row: [0x0000000000000000, 0x0000000000000000, 0x406b800000000000, 0x0000000000000000],
        fit: [0x3f2252512c388052, 0x3f791f3d0424fbb4, 0x3f4b7b79c254c07b, 0x0000000000000000, 0x4115792c94517d9c, 0x0000000000000000, 0x40e380c000000000, 0x0000000000000000],
        predict: [0x3eeb15da068acf10, 0x3f4645f41645b798, 0x3f14506384e81b48, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d5680000000000, 0x0000000000000000] },
    Golden { name: "deep_tree", k: 2, pred: 0x85197407a153851f, n_params: 119,
        ops_per_row: [0x0000000000000000, 0x0000000000000000, 0x4066800000000000, 0x0000000000000000],
        fit: [0x3f0dc7a34915eae6, 0x3f646aaa3b69a37e, 0x3f3655ba76d0702c, 0x0000000000000000, 0x40ff02f0e8783f9a, 0x0000000000000000, 0x40d4850000000000, 0x0000000000000000],
        predict: [0x3ee9c0386495b8b8, 0x3f452d048ea28408, 0x3f13502a4b704a88, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d45a0000000000, 0x0000000000000000] },
    Golden { name: "deep_tree", k: 4, pred: 0xbe637ff100bee8c1, n_params: 215,
        ops_per_row: [0x0000000000000000, 0x0000000000000000, 0x406e000000000000, 0x0000000000000000],
        fit: [0x3f14fc3756eef9d9, 0x3f6cc63d834854a0, 0x3f3f7a53026676c6, 0x0000000000000000, 0x410731e29ed954a0, 0x0000000000000000, 0x40d9b30000000000, 0x0000000000000000],
        predict: [0x3eef9546a3a86638, 0x3f49f8cf8a166ed8, 0x3f17aff4fabe4cb0, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x40d8f60000000000, 0x0000000000000000] },
    Golden { name: "forest", k: 2, pred: 0x65cba06c72fa9b08, n_params: 2554,
        ops_per_row: [0x4058000000000000, 0x0000000000000000, 0x40be3c0000000000, 0x0000000000000000],
        fit: [0x3f546d050b167bff, 0x3fb232e237add82b, 0x3f7ea38790a1b9fd, 0x0000000000000000, 0x41551281ba78b8f1, 0x0000000000000000, 0x412a884800000000, 0x0000000000000000],
        predict: [0x3f40a5cfd847ecae, 0x3f9b61479f0ec540, 0x3f68f8b7c46be302, 0x0000000000000000, 0x40d0e00000000000, 0x0000000000000000, 0x412a27f000000000, 0x0000000000000000] },
    Golden { name: "forest", k: 4, pred: 0xbb34ae3d9cd7d4e1, n_params: 3916,
        ops_per_row: [0x4068000000000000, 0x0000000000000000, 0x40c3100000000000, 0x0000000000000000],
        fit: [0x3f5ce07847d9f0f4, 0x3fb9ba723ad754e6, 0x3f85a85a35e374b6, 0x0000000000000000, 0x415fa4558b0c53fa, 0x0000000000000000, 0x4130889100000000, 0x0000000000000000],
        predict: [0x3f4471d7143b4e04, 0x3fa0cff92f95de3c, 0x3f6eaac29e58f504, 0x0000000000000000, 0x40e0e00000000000, 0x0000000000000000, 0x412fffe000000000, 0x0000000000000000] },
    Golden { name: "extra_trees", k: 2, pred: 0xf8955411fb53b802, n_params: 3686,
        ops_per_row: [0x4058000000000000, 0x0000000000000000, 0x40c2700000000000, 0x0000000000000000],
        fit: [0x3f4a37eef779ea23, 0x3fa75c1c5d06a585, 0x3f73a9f3399b6f98, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x4138be3e00000000, 0x0000000000000000],
        predict: [0x3f434eb3c3f5bb05, 0x3f9fc11edbb94f2a, 0x3f6cf60da5f09880, 0x0000000000000000, 0x40d0e00000000000, 0x0000000000000000, 0x412e5c3000000000, 0x0000000000000000] },
    Golden { name: "extra_trees", k: 4, pred: 0x670b72338d575000, n_params: 4576,
        ops_per_row: [0x4068000000000000, 0x0000000000000000, 0x40c2a20000000000, 0x0000000000000000],
        fit: [0x3f4d3667611ff09e, 0x3faa0702b30e6dc9, 0x3f75e8cd88d7f476, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x413b919500000000, 0x0000000000000000],
        predict: [0x3f4527225595cf60, 0x3fa1650ed0e5cebd, 0x3f6fbab38060b710, 0x0000000000000000, 0x40e0e00000000000, 0x0000000000000000, 0x41308f3800000000, 0x0000000000000000] },
    Golden { name: "boosting", k: 2, pred: 0xa8b08d9181a7fddb, n_params: 798,
        ops_per_row: [0x4018000000000000, 0x0000000000000000, 0x40aba80000000000, 0x0000000000000000],
        fit: [0x3f7093e97caf99f3, 0x3fc8156b7cbfd387, 0x3f98ddde3b0766e6, 0x0000000000000000, 0x415bd377603024d5, 0x0000000000000000, 0x41457d7700000000, 0x0000000000000000],
        predict: [0x3f37a87bd8002440, 0x3f9374766a32db20, 0x3f61be5ce2001ae8, 0x0000000000000000, 0x4090e00000000000, 0x0000000000000000, 0x4122b01000000000, 0x0000000000000000] },
    Golden { name: "boosting", k: 4, pred: 0x3db76e87b6ad45ae, n_params: 1490,
        ops_per_row: [0x4028000000000000, 0x0000000000000000, 0x40bbbc0000000000, 0x0000000000000000],
        fit: [0x3f808b9da7451997, 0x3fd808697a96be60, 0x3fa8d16c7ae7a653, 0x0000000000000000, 0x416be3ff2fa9d512, 0x0000000000000000, 0x41555c2a80000000, 0x0000000000000000],
        predict: [0x3f47a060bfdc8b80, 0x3fa36dcbfda5a6c8, 0x3f71b8488fe56900, 0x0000000000000000, 0x40a0e00000000000, 0x0000000000000000, 0x4132a9a800000000, 0x0000000000000000] },
    Golden { name: "forest_all_rows", k: 2, pred: 0xa0610363b1a4aef1, n_params: 3006,
        ops_per_row: [0x4058000000000000, 0x0000000000000000, 0x40bef00000000000, 0x0000000000000000],
        fit: [0x3f55c68d4166d32a, 0x3fb366bdc72085ee, 0x3f8054e9f10d1e5f, 0x0000000000000000, 0x41565831cb2037e9, 0x0000000000000000, 0x412c92fc00000000, 0x0000000000000000],
        predict: [0x3f41b180918e3048, 0x3f9d198ad8f3dc84, 0x3f6a8a40da554870, 0x0000000000000000, 0x40d0e00000000000, 0x0000000000000000, 0x412bcf1000000000, 0x0000000000000000] },
    Golden { name: "forest_all_rows", k: 4, pred: 0xa1fb64854074a7a5, n_params: 4466,
        ops_per_row: [0x4068000000000000, 0x0000000000000000, 0x40c46e0000000000, 0x0000000000000000],
        fit: [0x3f5eae66301d8dd7, 0x3fbb56028d2338e8, 0x3f8702cca4162a63, 0x0000000000000000, 0x4160c6a9a9c9d079, 0x0000000000000000, 0x4131a5a600000000, 0x0000000000000000],
        predict: [0x3f45d05e4112c64e, 0x3fa1f0399ec151c4, 0x3f705c46b0ce14b6, 0x0000000000000000, 0x40e0e00000000000, 0x0000000000000000, 0x413114f800000000, 0x0000000000000000] },
    Golden { name: "boosting_all_rows", k: 2, pred: 0x39268e858c370dcb, n_params: 874,
        ops_per_row: [0x4018000000000000, 0x0000000000000000, 0x40ac200000000000, 0x0000000000000000],
        fit: [0x3f741976b0c7ba8d, 0x3fccf8a61b32e082, 0x3f9e2632092b97d4, 0x0000000000000000, 0x4161f4963568b513, 0x0000000000000000, 0x4147bab600000000, 0x0000000000000000],
        predict: [0x3f38d62dd7525b60, 0x3f946c8eaf505060, 0x3f62a0a2617dc470, 0x0000000000000000, 0x4090e00000000000, 0x0000000000000000, 0x41239e8000000000, 0x0000000000000000] },
    Golden { name: "boosting_all_rows", k: 4, pred: 0x899ed4fb4e0afb2f, n_params: 1540,
        ops_per_row: [0x4028000000000000, 0x0000000000000000, 0x40bb300000000000, 0x0000000000000000],
        fit: [0x3f835acd812d3a18, 0x3fdbe01aff1b6044, 0x3fad083441c3d714, 0x0000000000000000, 0x417171785f37e042, 0x0000000000000000, 0x415690f980000000, 0x0000000000000000],
        predict: [0x3f47857d8285b3d0, 0x3fa357afa84e2370, 0x3f71a41e21e446b0, 0x0000000000000000, 0x40a0e00000000000, 0x0000000000000000, 0x4132946800000000, 0x0000000000000000] },
];

#[test]
fn tree_family_bits_are_frozen() {
    let actual: Vec<Golden> = specs()
        .iter()
        .flat_map(|(name, spec)| [2, 4].map(|k| run(name, spec, k)))
        .collect();
    if actual.as_slice() != GOLDEN {
        let table: Vec<String> = actual.iter().map(source_form).collect();
        panic!(
            "tree-family bits moved; actual table:\n{}",
            table.join("\n")
        );
    }
}
