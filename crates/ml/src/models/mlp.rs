//! A multi-layer perceptron with ReLU hidden layers and a softmax head,
//! trained by mini-batch SGD with momentum.
//!
//! Its operations are charged as `matmul_flops`, so on the GPU testbed this
//! family (and the attention model) offloads while tree models cannot —
//! the mechanism behind the paper's Table 3.
//!
//! The forward pass runs on the shared [`crate::kernel`] primitives:
//! per-sample dots during SGD, cache-blocked batched matmuls at predict
//! time (weights are stored `out x in`, so the batched form is
//! [`kernel::matmul_transb`] — bitwise identical to the per-row dot loop).

use crate::kernel;
use crate::matrix::{Matrix, Shape};
use crate::models::{softmax_inplace, Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// MLP hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpParams {
    /// First hidden-layer width.
    pub hidden1: usize,
    /// Second hidden-layer width (0 disables the layer).
    pub hidden2: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden1: 48,
            hidden2: 0,
            epochs: 30,
            lr: 0.02,
            batch: 32,
        }
    }
}

/// One dense layer: weights `out x in` + bias.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    w: Matrix,
    b: Vec<f64>,
}

impl Dense {
    fn new(d_in: usize, d_out: usize, rng: &mut SplitMix64) -> Dense {
        let scale = (2.0 / d_in as f64).sqrt();
        let mut w = Matrix::zeros(d_out, d_in);
        for v in w.as_mut_slice() {
            *v = (rng.gen_range(-1.0..1.0f64)) * scale;
        }
        Dense {
            w,
            b: vec![0.0; d_out],
        }
    }

    fn forward(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.b.len(), 0.0);
        kernel::gemv_t(&self.w, input, out);
        for (v, &b) in out.iter_mut().zip(&self.b) {
            *v += b;
        }
    }

    /// Batched forward: `out[r] = b + W · a[r]` for every row at once.
    fn forward_batch(&self, a: &Matrix, out: &mut Matrix) {
        kernel::matmul_transb(a, &self.w, out);
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(&self.b) {
                *v += b;
            }
        }
    }

    fn flops(&self) -> f64 {
        2.0 * (self.w.rows() * self.w.cols()) as f64
    }
}

/// A fitted MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    n_classes: usize,
}

impl Mlp {
    /// Train with mini-batch SGD (per-sample updates inside shuffled
    /// batches; momentum-free for simplicity and determinism).
    pub fn fit(
        params: &MlpParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
    ) -> Mlp {
        assert!(params.hidden1 >= 1, "hidden1 must be >= 1");
        assert!(params.epochs >= 1, "need at least one epoch");
        let (n, d) = (x.rows(), x.cols());
        let mut dims = vec![d, params.hidden1];
        if params.hidden2 > 0 {
            dims.push(params.hidden2);
        }
        dims.push(n_classes);
        let mut layers: Vec<Dense> = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();

        let mut order: Vec<usize> = (0..n).collect();
        let mut activations: Vec<Vec<f64>> = vec![Vec::new(); layers.len() + 1];
        // Gradient buffers, reused across samples and epochs.
        let mut delta: Vec<f64> = Vec::new();
        let mut next_delta: Vec<f64> = Vec::new();
        for epoch in 0..params.epochs {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let step = params.lr / (1.0 + 0.05 * epoch as f64);
            for &i in &order {
                // Forward.
                activations[0].clear();
                activations[0].extend_from_slice(x.row(i));
                for (l, layer) in layers.iter().enumerate() {
                    let (head, tail) = activations.split_at_mut(l + 1);
                    layer.forward(&head[l], &mut tail[0]);
                    if l + 1 < layers.len() {
                        for v in tail[0].iter_mut() {
                            *v = v.max(0.0); // ReLU
                        }
                    }
                }
                // Softmax + cross-entropy gradient at the head.
                let last = activations.len() - 1;
                delta.clear();
                delta.extend_from_slice(&activations[last]);
                softmax_inplace(&mut delta);
                delta[y[i] as usize] -= 1.0;
                // Backward. Layer 0's input is the raw features, so its
                // gradient is never computed: nothing would read it.
                for l in (0..layers.len()).rev() {
                    let input = &activations[l];
                    let propagate = l > 0;
                    if propagate {
                        next_delta.clear();
                        next_delta.resize(input.len(), 0.0);
                    }
                    {
                        let layer = &mut layers[l];
                        for o in 0..layer.b.len() {
                            let g = delta[o];
                            let row = layer.w.row_mut(o);
                            // Two axpy-shaped passes (gradient propagation
                            // off the pre-update weights, then the weight
                            // step) — same values as one fused loop, but
                            // each pass vectorizes cleanly.
                            if propagate {
                                for (nd, &w) in next_delta.iter_mut().zip(row.iter()) {
                                    *nd += w * g;
                                }
                            }
                            let gs = step * g;
                            for (w, &xv) in row.iter_mut().zip(input) {
                                *w -= gs * xv;
                            }
                            layer.b[o] -= step * g;
                        }
                    }
                    if propagate {
                        // ReLU derivative w.r.t. pre-activation sign.
                        for (nd, &a) in next_delta.iter_mut().zip(&activations[l]) {
                            if a <= 0.0 {
                                *nd = 0.0;
                            }
                        }
                        std::mem::swap(&mut delta, &mut next_delta);
                    }
                }
            }
        }
        let flops_per_row: f64 = layers.iter().map(Dense::flops).sum();
        tracker.charge(
            OpCounts::matmul(3.0 * flops_per_row * (n * params.epochs) as f64 * x.scale()),
            ParallelProfile::model_training(),
        );
        Mlp { layers, n_classes }
    }

    /// Per-row inference cost (dense forward pass).
    pub fn inference_ops_per_row(&self) -> OpCounts {
        OpCounts::matmul(self.layers.iter().map(Dense::flops).sum())
    }

    /// Weight count.
    pub fn n_weights(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }
}

/// Class-probability predictions: one blocked matmul per layer over
/// the whole batch, on pooled scratch matrices.
impl Predict for Mlp {
    fn answer(&self, x: &Matrix, _walk: &mut Traversals) -> Matrix {
        let n = x.rows();
        let mut out = Matrix::zeros(n, self.n_classes);
        let n_layers = self.layers.len();
        let mut cur = kernel::take_matrix(n, self.layers[0].b.len());
        self.layers[0].forward_batch(x, &mut cur);
        if n_layers > 1 {
            for v in cur.as_mut_slice() {
                *v = v.max(0.0);
            }
        }
        for (l, layer) in self.layers.iter().enumerate().skip(1) {
            let mut next = kernel::take_matrix(n, layer.b.len());
            layer.forward_batch(&cur, &mut next);
            if l + 1 < n_layers {
                for v in next.as_mut_slice() {
                    *v = v.max(0.0);
                }
            }
            kernel::give_matrix(std::mem::replace(&mut cur, next));
        }
        for r in 0..n {
            let row = cur.row_mut(r);
            softmax_inplace(row);
            out.row_mut(r).copy_from_slice(row);
        }
        kernel::give_matrix(cur);
        out
    }

    fn charge(&self, shape: Shape, _steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        let flops_per_row: f64 = self.layers.iter().map(Dense::flops).sum();
        tracker.charge(
            OpCounts::matmul(flops_per_row * shape.rows as f64 * shape.row_scale),
            ParallelProfile::batch_inference(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::assert_learns;
    use crate::models::ModelSpec;

    #[test]
    fn learns_binary_task() {
        assert_learns(&ModelSpec::Mlp(MlpParams::default()), 2, 0.75);
    }

    #[test]
    fn learns_multiclass_task() {
        assert_learns(&ModelSpec::Mlp(MlpParams::default()), 3, 0.55);
    }

    #[test]
    fn solves_xor_unlike_a_linear_model() {
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..400 {
            let a = if i % 2 == 0 { -1.0 } else { 1.0 };
            let b = if (i / 2) % 2 == 0 { -1.0 } else { 1.0 };
            let ji = (i as f64 * 0.013).sin() * 0.05;
            data.extend([a + ji, b - ji]);
            y.push(u32::from((a > 0.0) != (b > 0.0)));
        }
        let x = Matrix::from_vec(data, 400, 2);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(3);
        let mlp = Mlp::fit(
            &MlpParams {
                hidden1: 16,
                epochs: 80,
                lr: 0.05,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            &mut rng,
        );
        let acc = crate::metrics::accuracy(
            &y,
            &crate::models::argmax_rows(&mlp.predict_proba(&x, &mut t)),
        );
        assert!(acc > 0.95, "MLP should solve XOR, got {acc}");
    }

    #[test]
    fn batched_predict_matches_per_row_forward_bitwise() {
        // The blocked batched forward must reproduce the sequential
        // per-row dot loop exactly (same summation order per output).
        let ((x, y), (xt, _)) = crate::models::testutil::separable_task(3);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(11);
        let mlp = Mlp::fit(
            &MlpParams {
                hidden2: 12,
                ..Default::default()
            },
            &x,
            &y,
            3,
            &mut t,
            &mut rng,
        );
        let batched = mlp.predict_proba(&xt, &mut t);
        let mut reference = Matrix::zeros(xt.rows(), 3);
        let mut buf_in: Vec<f64>;
        let mut buf_out: Vec<f64> = Vec::new();
        for r in 0..xt.rows() {
            buf_in = xt.row(r).to_vec();
            for (l, layer) in mlp.layers.iter().enumerate() {
                layer.forward(&buf_in, &mut buf_out);
                if l + 1 < mlp.layers.len() {
                    for v in buf_out.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                std::mem::swap(&mut buf_in, &mut buf_out);
            }
            softmax_inplace(&mut buf_in);
            reference.row_mut(r).copy_from_slice(&buf_in);
        }
        assert_eq!(batched, reference);
    }

    #[test]
    fn charges_matmul_flops_not_tree_steps() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let _ = Mlp::fit(&MlpParams::default(), &x, &y, 2, &mut t, &mut rng);
        let ops = t.measurement().ops;
        assert!(ops.matmul_flops > 0.0);
        assert_eq!(ops.tree_steps, 0.0);
    }

    #[test]
    fn deeper_network_has_more_weights() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut t = crate::models::testutil::tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let shallow = Mlp::fit(&MlpParams::default(), &x, &y, 2, &mut t, &mut rng);
        let deep = Mlp::fit(
            &MlpParams {
                hidden2: 32,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut t,
            &mut rng,
        );
        assert!(deep.n_weights() > shallow.n_weights());
        assert!(deep.inference_ops_per_row().total() > shallow.inference_ops_per_row().total());
    }

    #[test]
    fn mlp_bits_match_the_pinned_values() {
        // (classes, input columns, hidden1, hidden2, epochs, digest): one
        // and two hidden layers, a one-neuron layer, a one-column input
        // and 10 classes.
        #[rustfmt::skip]
        const CASES: [(usize, usize, usize, usize, usize, u64); 5] = [
            (2, 8, 48, 0, 3, 0xc95311bf1f532853),
            (3, 8, 16, 12, 4, 0xd3ee1a04dec0e6fe),
            (10, 8, 5, 7, 2, 0x872f9af9cdd8a6c3),
            (2, 8, 1, 0, 5, 0x7c6e933271c5c336),
            (3, 1, 9, 4, 3, 0xbde7d5d010a63bb5),
        ];
        let actual: Vec<u64> = CASES
            .iter()
            .map(|&(k, cols, hidden1, hidden2, epochs, _)| {
                let ((x, y), (xt, _)) = crate::models::testutil::separable_task(k);
                let first_cols = |m: &Matrix| {
                    let data = (0..m.rows()).flat_map(|r| m.row(r)[..cols].to_vec());
                    Matrix::from_vec(data.collect(), m.rows(), cols)
                };
                let (x, xt) = (first_cols(&x), first_cols(&xt));
                let mut t = crate::models::testutil::tracker();
                let mut rng = SplitMix64::seed_from_u64((k * 100 + hidden1) as u64);
                let params = MlpParams {
                    hidden1,
                    hidden2,
                    epochs,
                    ..Default::default()
                };
                let mlp = Mlp::fit(&params, &x, &y, k, &mut t, &mut rng);
                let mut h = green_automl_energy::StableHasher::new(0x31a9);
                for layer in &mlp.layers {
                    for &v in layer.w.as_slice().iter().chain(&layer.b) {
                        h.write_f64(v);
                    }
                }
                let m = t.measurement();
                for v in [m.duration_s, m.energy.package_j, m.ops.matmul_flops] {
                    h.write_f64(v);
                }
                for &v in mlp.predict_proba(&xt, &mut t).as_slice() {
                    h.write_f64(v);
                }
                h.write_u64(rng.next_u64());
                h.finish()
            })
            .collect();
        let want: Vec<u64> = CASES.iter().map(|c| c.5).collect();
        assert_eq!(actual, want, "MLP bits moved: {actual:#018x?}");
    }
}
