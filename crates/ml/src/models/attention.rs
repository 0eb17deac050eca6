//! A TabPFN-style in-context attention classifier.
//!
//! TabPFN (Hollmann et al., ICLR 2023) is a transformer meta-trained on
//! synthetic datasets: *fitting* on a new dataset is just loading the frozen
//! model and storing the training examples, while *every prediction*
//! forward-passes the training set through the network. That asymmetry —
//! near-zero execution energy, very high inference energy — drives several
//! of the paper's headline findings (Fig. 3, Fig. 4's ~26k-prediction
//! crossover, Table 3's GPU speed-up, Table 4's top row).
//!
//! We cannot meta-train a 26M-parameter transformer in-session, so this
//! model substitutes *frozen, deterministically seeded* weights (a random
//! feature projection plus per-layer mixing matrices — a Johnson-
//! Lindenstrauss-style learned-metric kernel): the same code path, the same
//! cost structure, honest (if weaker) predictive behaviour on small tasks.
//! Operations are charged at the cost of the real architecture
//! ([`CHARGED`]: 12 layers, d=512, 16 permutation-ensemble passes), which is
//! what a user of TabPFN 0.1.9 pays; the locally *computed* network is a
//! reduced instance ([`AttentionParams`]) so tests stay fast.
//!
//! The computed forward pass runs entirely on the shared [`crate::kernel`]
//! primitives: embedding and attention refinement are cache-blocked
//! matmuls over scratch-arena matrices (no per-row allocation), with the
//! kernel module's fixed-summation-order contract keeping every prediction
//! bitwise deterministic.

use crate::kernel;
use crate::matrix::{Matrix, Shape};
use crate::models::{Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// The architecture whose cost is charged (TabPFN 0.1.9-like).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargedArch {
    /// Transformer layers.
    pub layers: f64,
    /// Model width.
    pub d_model: f64,
    /// Feed-forward width.
    pub d_ff: f64,
    /// Permutation-ensemble forward passes per prediction batch.
    pub ensemble_passes: f64,
    /// Parameter count (for the model-load cost and size reporting).
    pub n_params: f64,
}

/// TabPFN 0.1.9's published architecture scale (the default
/// `N_ensemble_configurations` of that release is small — 3–4 permutation
/// passes; the per-prediction cost this yields reproduces both the paper's
/// Table 4 magnitude and its Fig. 4 crossover decade).
pub const CHARGED: ChargedArch = ChargedArch {
    layers: 12.0,
    d_model: 512.0,
    d_ff: 1024.0,
    ensemble_passes: 4.0,
    n_params: 25.8e6,
};

/// Parameters of the locally computed (reduced) in-context model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionParams {
    /// Working embedding width of the computed model.
    pub d_model: usize,
    /// Attention refinement layers actually computed.
    pub n_layers: usize,
    /// Permutation-ensemble passes actually computed (averaged).
    pub passes: usize,
    /// Maximum stored context rows (TabPFN was "mainly developed for
    /// datasets with up to 1k instances"); larger training sets are
    /// subsampled (seeded uniform sample, not a row prefix).
    pub max_context: usize,
    /// Attention temperature multiplier.
    pub temperature: f64,
}

impl Default for AttentionParams {
    fn default() -> Self {
        AttentionParams {
            d_model: 24,
            n_layers: 2,
            passes: 2,
            max_context: 1000,
            temperature: 4.0,
        }
    }
}

/// A "loaded" in-context attention model holding its training context.
#[derive(Debug, Clone, PartialEq)]
pub struct InContextAttention {
    params: AttentionParams,
    /// Standardised context features (raw space).
    context: Matrix,
    context_labels: Vec<u32>,
    feat_means: Vec<f64>,
    feat_stds: Vec<f64>,
    n_classes: usize,
}

/// Cost of deserialising the pretrained checkpoint (once per fit).
const LOAD_SCALAR_FLOPS: f64 = 5.0e8;

impl InContextAttention {
    /// "Fit": load the frozen model and memorise (a seeded uniform
    /// subsample of) the training data. No search, no gradient steps — the
    /// paper's point. `seed` keys the subsample derivation; it is unused
    /// when the training set fits within `max_context`.
    pub fn fit(
        params: &AttentionParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        seed: u64,
    ) -> InContextAttention {
        assert!(params.d_model >= 2, "d_model must be >= 2");
        assert!(params.n_layers >= 1 && params.passes >= 1);
        let keep = x.rows().min(params.max_context);
        let rows =
            kernel::subsample_rows(x.rows(), keep, kernel::subsample_seed(seed, x.rows(), keep));
        let context = x.take_rows(&rows);
        let context_labels: Vec<u32> = rows.iter().map(|&r| y[r]).collect();

        // Standardisation statistics over the context, per-column over the
        // *non-NaN* entries: sums and squared deviations divide by each
        // column's observed count, not the row count, so missing-value
        // columns are not biased toward zero.
        let d = x.cols();
        let mut means = vec![0.0; d];
        let mut counts = vec![0usize; d];
        let mut stds = vec![0.0; d];
        for r in 0..keep {
            for ((c, &v), cnt) in context.row(r).iter().enumerate().zip(counts.iter_mut()) {
                let _ = c;
                if !v.is_nan() {
                    *cnt += 1;
                }
            }
            for (c, &v) in context.row(r).iter().enumerate() {
                if !v.is_nan() {
                    means[c] += v;
                }
            }
        }
        for (m, &cnt) in means.iter_mut().zip(&counts) {
            *m /= cnt.max(1) as f64;
        }
        for r in 0..keep {
            for (c, &v) in context.row(r).iter().enumerate() {
                if !v.is_nan() {
                    stds[c] += (v - means[c]).powi(2);
                }
            }
        }
        for (s, &cnt) in stds.iter_mut().zip(&counts) {
            *s = (*s / cnt.max(1) as f64).sqrt().max(1e-9);
        }

        // Checkpoint load + context standardisation — the entirety of the
        // execution-stage cost.
        tracker.charge(
            OpCounts::scalar(LOAD_SCALAR_FLOPS + (keep * d) as f64 * 2.0)
                + OpCounts::mem(CHARGED.n_params * 4.0),
            ParallelProfile::model_training(),
        );

        InContextAttention {
            params: *params,
            context,
            context_labels,
            feat_means: means,
            feat_stds: stds,
            n_classes,
        }
    }

    /// Per-column standardisation statistics `(means, stds)` computed over
    /// the non-NaN context entries.
    pub fn standardisation(&self) -> (&[f64], &[f64]) {
        (&self.feat_means, &self.feat_stds)
    }

    /// FLOPs the full-size architecture spends on a batch of `m` queries.
    fn charged_batch_flops(&self, m: usize) -> f64 {
        let n = self.context.rows() as f64;
        let m = m as f64;
        let a = CHARGED;
        let tokens = n + m;
        // Per layer: context self-attention, query→context cross-attention,
        // and the per-token projections + feed-forward.
        let attn = 2.0 * n * n * a.d_model + 2.0 * m * n * a.d_model;
        let dense = tokens * (4.0 * a.d_model * a.d_model + 2.0 * a.d_model * a.d_ff);
        a.ensemble_passes * (a.layers * (attn + dense) + tokens * a.d_model * 2.0)
    }

    /// Per-row inference cost at the charged architecture (amortising the
    /// context self-attention over a 512-row batch, TabPFN's default
    /// chunking).
    pub fn inference_ops_per_row(&self) -> OpCounts {
        const CHUNK: f64 = 512.0;
        let per_chunk = self.charged_batch_flops(CHUNK as usize);
        OpCounts::matmul(per_chunk / CHUNK)
    }

    /// Size of the (charged) pretrained model.
    pub fn n_params(&self) -> usize {
        CHARGED.n_params as usize
    }

    /// Rows kept as in-context examples.
    pub fn context_rows(&self) -> usize {
        self.context.rows()
    }

    /// Standardise a matrix into a pooled scratch matrix; missing entries
    /// contribute zero (they are mean-valued under the learned metric).
    fn standardized(&self, x: &Matrix) -> Matrix {
        let (n, d) = (x.rows(), x.cols());
        let mut out = kernel::take_matrix(n, d);
        for r in 0..n {
            let src = x.row(r);
            let dst = out.row_mut(r);
            for c in 0..d {
                let v = src[c];
                dst[c] = if v.is_nan() {
                    0.0
                } else {
                    (v - self.feat_means[c]) / self.feat_stds[c]
                };
            }
        }
        out
    }
}

/// One attention refinement over a whole query batch: scaled-dot scores
/// against the keys (`matmul_transb`, both operands row-major), row
/// softmax, attention-weighted key summaries and the frozen residual mix
/// as blocked matmuls — every output element keeps the naive ascending
/// summation order, so the batched form is bitwise identical to the old
/// row-at-a-time loop.
fn attention_refine(
    queries: &Matrix,
    keys: &Matrix,
    mix: &Matrix,
    temperature: f64,
    scores: &mut Matrix,
    summary: &mut Matrix,
    out: &mut Matrix,
) {
    let (nq, d) = (queries.rows(), queries.cols());
    let scale = temperature / (d as f64).sqrt();
    kernel::matmul_transb(queries, keys, scores);
    for r in 0..nq {
        let srow = scores.row_mut(r);
        for s in srow.iter_mut() {
            *s *= scale;
        }
        kernel::softmax_row(srow);
    }
    // Attention-weighted key summary, then the residual mix through the
    // frozen matrix.
    kernel::matmul(scores, keys, summary);
    kernel::matmul(summary, mix, out);
    for r in 0..nq {
        let q = queries.row(r);
        let dst = out.row_mut(r);
        for (c, v) in dst.iter_mut().enumerate() {
            *v = 0.75 * q[c] + 0.25 * *v;
        }
        normalize_row(dst);
    }
}

/// Fill a frozen-weight matrix in place (JL-style scaled uniform draws,
/// same draw order as the original per-allocation constructor).
fn fill_random(m: &mut Matrix, rng: &mut SplitMix64) {
    let scale = (1.0 / m.rows() as f64).sqrt();
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0f64) * scale;
    }
}

fn normalize_rows(m: &mut Matrix) {
    for r in 0..m.rows() {
        normalize_row(m.row_mut(r));
    }
}

fn normalize_row(row: &mut [f64]) {
    let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for v in row {
            *v /= norm;
        }
    }
}

/// Forward-pass the context and the query batch; average the
/// permutation-ensemble passes. The whole pass is batched matmuls over
/// pooled scratch matrices — nothing allocates per row.
impl Predict for InContextAttention {
    fn answer(&self, x: &Matrix, _walk: &mut Traversals) -> Matrix {
        let m = x.rows();
        let n_ctx = self.context.rows();
        let d_in = self.context.cols();
        let dm = self.params.d_model;
        assert_eq!(x.cols(), d_in, "query width must match context width");

        let mut out = Matrix::zeros(m, self.n_classes);

        // Standardised inputs are pass-invariant: build them once.
        let xz_ctx = self.standardized(&self.context);
        let xz_test = self.standardized(x);

        // Scratch matrices reused across passes and layers (and, via the
        // thread-local arena, across folds and batch-predict calls).
        let mut proj = kernel::take_matrix(d_in, dm);
        let mut mixes: Vec<Matrix> = (0..self.params.n_layers)
            .map(|_| kernel::take_matrix(dm, dm))
            .collect();
        let mut e_ctx = kernel::take_matrix(n_ctx, dm);
        let mut e_test = kernel::take_matrix(m, dm);
        let mut r_ctx = kernel::take_matrix(n_ctx, dm);
        let mut r_test = kernel::take_matrix(m, dm);
        let mut sum_ctx = kernel::take_matrix(n_ctx, dm);
        let mut sum_test = kernel::take_matrix(m, dm);
        let mut sc_ctx = kernel::take_matrix(n_ctx, n_ctx);
        let mut sc_test = kernel::take_matrix(m, n_ctx);

        for pass in 0..self.params.passes {
            // Frozen "meta-trained" weights: deterministic per pass.
            let mut wrng = SplitMix64::seed_from_u64(0x7ab_f17 + pass as u64);
            fill_random(&mut proj, &mut wrng);
            for mix in &mut mixes {
                fill_random(mix, &mut wrng);
            }

            kernel::matmul(&xz_ctx, &proj, &mut e_ctx);
            normalize_rows(&mut e_ctx);
            kernel::matmul(&xz_test, &proj, &mut e_test);
            normalize_rows(&mut e_test);
            for mix in &mixes {
                attention_refine(
                    &e_ctx,
                    &e_ctx,
                    mix,
                    self.params.temperature,
                    &mut sc_ctx,
                    &mut sum_ctx,
                    &mut r_ctx,
                );
                std::mem::swap(&mut e_ctx, &mut r_ctx);
                attention_refine(
                    &e_test,
                    &e_ctx,
                    mix,
                    self.params.temperature,
                    &mut sc_test,
                    &mut sum_test,
                    &mut r_test,
                );
                std::mem::swap(&mut e_test, &mut r_test);
            }

            // Label head: attend from each query to the context labels.
            let scale = self.params.temperature / (dm as f64).sqrt();
            kernel::matmul_transb(&e_test, &e_ctx, &mut sc_test);
            for r in 0..m {
                let scores = sc_test.row_mut(r);
                for s in scores.iter_mut() {
                    *s *= scale;
                }
                kernel::softmax_row(scores);
                let votes = out.row_mut(r);
                for (i, &w) in scores.iter().enumerate() {
                    votes[self.context_labels[i] as usize] += w;
                }
            }
        }
        for mtx in [
            proj, e_ctx, e_test, r_ctx, r_test, sum_ctx, sum_test, sc_ctx, sc_test, xz_ctx, xz_test,
        ] {
            kernel::give_matrix(mtx);
        }
        for mix in mixes {
            kernel::give_matrix(mix);
        }

        let inv = 1.0 / self.params.passes as f64;
        for v in out.as_mut_slice() {
            *v *= inv;
        }
        out
    }

    fn charge(&self, shape: Shape, _steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        // Charge the real architecture's cost for this batch, extrapolated
        // to the nominal prediction count.
        let batch = self.charged_batch_flops(shape.rows);
        tracker.charge(
            OpCounts::matmul(batch * shape.row_scale),
            ParallelProfile::batch_inference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{assert_learns, tracker};
    use crate::models::ModelSpec;

    #[test]
    fn learns_binary_task() {
        assert_learns(
            &ModelSpec::InContextAttention(AttentionParams::default()),
            2,
            0.7,
        );
    }

    #[test]
    fn fit_is_nearly_free_but_inference_is_expensive() {
        // The defining TabPFN asymmetry (paper Fig. 3): execution energy is
        // negligible, inference energy is orders of magnitude above other
        // models'.
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(2);
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        let fit_time = t.now();
        assert!(
            fit_time < 1.0,
            "fit should take well under a virtual second"
        );
        let _ = model.predict_proba(&xt, &mut t);
        let predict_time = t.now() - fit_time;
        assert!(
            predict_time > fit_time * 5.0,
            "inference {predict_time}s should dwarf fit {fit_time}s"
        );
    }

    #[test]
    fn inference_cost_is_orders_above_a_tree() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = tracker();
        let attn = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        let mut rng = SplitMix64::seed_from_u64(0);
        let tree = crate::models::tree::DecisionTree::fit_classifier(
            &Default::default(),
            &x,
            &y,
            2,
            &mut t,
            &mut rng,
            ParallelProfile::model_training(),
        );
        // Compare virtual seconds of the per-row op bundles on the same
        // device (tree steps and matmul flops have different throughputs).
        let secs = |ops: OpCounts| {
            let mut probe = tracker();
            probe.charge(ops, ParallelProfile::serial());
            probe.now()
        };
        let ratio = secs(attn.inference_ops_per_row()) / secs(tree.inference_ops_per_row());
        assert!(
            ratio > 100.0,
            "attention per-row inference should be >>100x a tree's, got {ratio:.1}x"
        );
    }

    #[test]
    fn context_is_capped_at_1k_rows() {
        let x = Matrix::zeros(3000, 4);
        let y: Vec<u32> = (0..3000).map(|i| (i % 2) as u32).collect();
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        assert_eq!(model.context_rows(), 1000);
    }

    #[test]
    fn oversized_context_subsample_covers_ordered_classes() {
        // 3000 rows sorted by class: a row-prefix "subsample" would store
        // class 0 only. The seeded uniform subsample must cover both.
        let x = Matrix::zeros(3000, 4);
        let y: Vec<u32> = (0..3000).map(|i| u32::from(i >= 1500)).collect();
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        assert_eq!(model.context_rows(), 1000);
        let ones = model.context_labels.iter().filter(|&&l| l == 1).count();
        let zeros = model.context_labels.len() - ones;
        assert!(
            ones >= 300 && zeros >= 300,
            "class-biased context: {zeros} zeros / {ones} ones"
        );
        // Same seed, same subsample; different seed, different subsample.
        let again = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        assert_eq!(model.context_labels, again.context_labels);
        let other = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 1);
        assert_ne!(model.context_labels, other.context_labels);
    }

    #[test]
    fn standardisation_divides_by_per_column_nan_counts() {
        // Hand-computed case: col 0 = [1, NaN, 3] -> mean 2, std 1 (over
        // the 2 observed values); col 1 = [2, 4, 6] -> mean 4,
        // std sqrt(8/3). The old code divided both by the row count 3,
        // biasing col 0 toward zero (mean 4/3).
        let x = Matrix::from_vec(vec![1.0, 2.0, f64::NAN, 4.0, 3.0, 6.0], 3, 2);
        let y = vec![0, 1, 0];
        let mut t = tracker();
        let p = AttentionParams::default();
        let model = InContextAttention::fit(&p, &x, &y, 2, &mut t, 0);
        let (means, stds) = model.standardisation();
        assert!((means[0] - 2.0).abs() < 1e-12, "mean {}", means[0]);
        assert!((stds[0] - 1.0).abs() < 1e-12, "std {}", stds[0]);
        assert!((means[1] - 4.0).abs() < 1e-12);
        assert!((stds[1] - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn standardisation_matches_reference_under_random_nans() {
        // Property-style seeded loop: per-column mean/std over non-NaN
        // entries must match an independently computed reference.
        for case in 0..20u64 {
            let mut rng = SplitMix64::seed_from_u64(0xa11ce ^ case);
            let (n, d) = (40, 5);
            let mut data = Vec::with_capacity(n * d);
            for _ in 0..n * d {
                if rng.gen_bool(0.3) {
                    data.push(f64::NAN);
                } else {
                    data.push(rng.gen_range(-5.0..5.0f64));
                }
            }
            let x = Matrix::from_vec(data, n, d);
            let y = vec![0u32; n];
            let mut t = tracker();
            let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
            let (means, stds) = model.standardisation();
            for c in 0..d {
                let vals: Vec<f64> = (0..n)
                    .map(|r| x.get(r, c))
                    .filter(|v| !v.is_nan())
                    .collect();
                let cnt = vals.len().max(1) as f64;
                let mean = vals.iter().sum::<f64>() / cnt;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / cnt;
                let std = var.sqrt().max(1e-9);
                assert!(
                    (means[c] - mean).abs() < 1e-9,
                    "case {case} col {c}: mean {} vs reference {mean}",
                    means[c]
                );
                assert!(
                    (stds[c] - std).abs() < 1e-9,
                    "case {case} col {c}: std {} vs reference {std}",
                    stds[c]
                );
            }
        }
    }

    #[test]
    fn charged_ops_are_gpu_eligible() {
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(2);
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        let before = t.measurement().ops;
        let _ = model.predict_proba(&xt, &mut t);
        let delta = t.measurement().ops;
        assert!(delta.matmul_flops > before.matmul_flops);
        assert_eq!(delta.tree_steps, 0.0);
    }

    #[test]
    fn probabilities_are_normalised() {
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 3, &mut t, 0);
        let p = model.predict_proba(&xt, &mut t);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn predictions_are_bitwise_deterministic_across_calls() {
        // Scratch-arena reuse must not perturb a byte: the second call runs
        // on recycled buffers and must reproduce the first exactly.
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 3, &mut t, 0);
        let a = model.predict_proba(&xt, &mut t);
        let b = model.predict_proba(&xt, &mut t);
        assert_eq!(a, b);
    }

    #[test]
    fn reported_size_matches_charged_architecture() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = tracker();
        let model = InContextAttention::fit(&AttentionParams::default(), &x, &y, 2, &mut t, 0);
        assert_eq!(model.n_params(), CHARGED.n_params as usize);
    }
}
