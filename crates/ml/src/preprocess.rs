//! Data and feature preprocessors.
//!
//! Mirrors the preprocessor families in AutoSklearn's search space (§2.3 of
//! the paper: "data/feature preprocessors"): mean imputation, standard and
//! min-max scaling, univariate feature selection (the mechanism behind
//! FLAML's feature pruning for wide datasets), and PCA. Every routine
//! charges its operations at the dataset's nominal scale.

use crate::matrix::{Matrix, Shape};
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// An unfitted preprocessor choice (part of a pipeline's search space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PreprocSpec {
    /// Replace missing numeric cells by the column mean. Always implicitly
    /// first in a pipeline.
    MeanImputer,
    /// Standardise columns to zero mean / unit variance.
    StandardScaler,
    /// Rescale columns to `[0, 1]`.
    MinMaxScaler,
    /// Keep the `frac` best columns by ANOVA-style F-score.
    SelectKBest {
        /// Fraction of columns kept, `(0, 1]`.
        frac: f64,
    },
    /// Project onto the top principal components.
    Pca {
        /// Fraction of columns kept as components, `(0, 1]` (capped at 16
        /// components).
        frac: f64,
    },
}

/// A fitted preprocessor ready to transform matrices.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedPreproc {
    /// Fitted mean imputer.
    MeanImputer {
        /// Per-column means over non-missing entries.
        means: Vec<f64>,
    },
    /// Fitted standard scaler.
    StandardScaler {
        /// Per-column means.
        means: Vec<f64>,
        /// Per-column standard deviations (≥ tiny epsilon).
        stds: Vec<f64>,
    },
    /// Fitted min-max scaler.
    MinMaxScaler {
        /// Per-column minima.
        mins: Vec<f64>,
        /// Per-column ranges (≥ tiny epsilon).
        ranges: Vec<f64>,
    },
    /// Fitted feature selector.
    SelectKBest {
        /// Indices of retained columns.
        cols: Vec<usize>,
    },
    /// Fitted PCA projection.
    Pca {
        /// Training-column means subtracted before projection.
        mean: Vec<f64>,
        /// `k x d` component matrix.
        components: Matrix,
    },
}

impl PreprocSpec {
    /// Fit this preprocessor on training data.
    pub fn fit(
        &self,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
    ) -> FittedPreproc {
        let (n, d) = (x.rows(), x.cols());
        let cells = (n * d) as f64 * x.scale();
        match *self {
            PreprocSpec::MeanImputer => {
                tracker.charge(
                    OpCounts::scalar(2.0 * cells),
                    ParallelProfile::model_training(),
                );
                let means = column_means_ignoring_nan(x);
                FittedPreproc::MeanImputer { means }
            }
            PreprocSpec::StandardScaler => {
                tracker.charge(
                    OpCounts::scalar(3.0 * cells),
                    ParallelProfile::model_training(),
                );
                let means = column_means_ignoring_nan(x);
                let mut stds = vec![0.0; d];
                for r in 0..n {
                    let row = x.row(r);
                    for c in 0..d {
                        if !row[c].is_nan() {
                            stds[c] += (row[c] - means[c]).powi(2);
                        }
                    }
                }
                for s in &mut stds {
                    *s = (*s / n.max(1) as f64).sqrt().max(1e-9);
                }
                FittedPreproc::StandardScaler { means, stds }
            }
            PreprocSpec::MinMaxScaler => {
                tracker.charge(
                    OpCounts::scalar(2.0 * cells),
                    ParallelProfile::model_training(),
                );
                let mut mins = vec![f64::INFINITY; d];
                let mut maxs = vec![f64::NEG_INFINITY; d];
                for r in 0..n {
                    let row = x.row(r);
                    for c in 0..d {
                        if !row[c].is_nan() {
                            mins[c] = mins[c].min(row[c]);
                            maxs[c] = maxs[c].max(row[c]);
                        }
                    }
                }
                let ranges = mins
                    .iter()
                    .zip(&maxs)
                    .map(|(lo, hi)| (hi - lo).max(1e-9))
                    .collect();
                for m in &mut mins {
                    if !m.is_finite() {
                        *m = 0.0;
                    }
                }
                FittedPreproc::MinMaxScaler { mins, ranges }
            }
            PreprocSpec::SelectKBest { frac } => {
                assert!(frac > 0.0 && frac <= 1.0, "frac must lie in (0, 1]");
                tracker.charge(
                    OpCounts::scalar(4.0 * cells)
                        + OpCounts::scalar((d as f64) * (d as f64).log2().max(1.0)),
                    ParallelProfile::model_training(),
                );
                let scores = anova_f_scores(x, y, n_classes);
                let k = ((d as f64 * frac).ceil() as usize).clamp(1, d);
                let mut idx: Vec<usize> = (0..d).collect();
                idx.sort_by(|&a, &b| {
                    scores[b]
                        .partial_cmp(&scores[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut cols: Vec<usize> = idx.into_iter().take(k).collect();
                cols.sort_unstable();
                FittedPreproc::SelectKBest { cols }
            }
            PreprocSpec::Pca { frac } => {
                assert!(frac > 0.0 && frac <= 1.0, "frac must lie in (0, 1]");
                let k = ((d as f64 * frac).ceil() as usize).clamp(1, 16.min(d));
                const POWER_ITERS: usize = 12;
                tracker.charge(
                    OpCounts::matmul((POWER_ITERS * k) as f64 * 2.0 * cells),
                    ParallelProfile::model_training(),
                );
                let (mean, components) = pca_power_iteration(x, k, POWER_ITERS);
                FittedPreproc::Pca { mean, components }
            }
        }
    }
}

impl FittedPreproc {
    /// Transform a matrix (training or inference data).
    pub fn transform(&self, x: &Matrix, tracker: &mut CostTracker) -> Matrix {
        self.charge(x.shape(), tracker);
        self.apply(x)
    }

    /// Transform an *owned* matrix, reusing its buffer where the transform
    /// is element-wise (imputer, scalers). Charges exactly the same
    /// operations as [`FittedPreproc::transform`] and produces the same
    /// values — the only difference is that the element-wise variants skip
    /// the clone-per-stage allocation, which is the hottest allocation
    /// site in pipeline fitting and batch prediction.
    pub fn transform_into(&self, x: Matrix, tracker: &mut CostTracker) -> Matrix {
        self.charge(x.shape(), tracker);
        self.apply_into(x)
    }

    /// [`FittedPreproc::transform`]'s values, charging nothing.
    fn apply(&self, x: &Matrix) -> Matrix {
        match self {
            FittedPreproc::MeanImputer { .. }
            | FittedPreproc::StandardScaler { .. }
            | FittedPreproc::MinMaxScaler { .. } => self.apply_into(x.clone()),
            FittedPreproc::SelectKBest { cols } => x.select_cols(cols),
            FittedPreproc::Pca { mean, components } => {
                let (n, d) = (x.rows(), x.cols());
                let k = components.rows();
                let mut out = Matrix::zeros(n, k);
                out.row_scale = x.row_scale;
                out.feat_scale = x.feat_scale;
                for r in 0..n {
                    for ki in 0..k {
                        let comp = components.row(ki);
                        let mut dot = 0.0;
                        let row = x.row(r);
                        for c in 0..d.min(comp.len()) {
                            dot += (row[c] - mean[c]) * comp[c];
                        }
                        out.set(r, ki, dot);
                    }
                }
                out
            }
        }
    }

    /// [`FittedPreproc::transform_into`]'s values, charging nothing.
    pub fn apply_into(&self, mut x: Matrix) -> Matrix {
        let (n, d) = (x.rows(), x.cols());
        match self {
            FittedPreproc::MeanImputer { means } => {
                for r in 0..n {
                    let row = x.row_mut(r);
                    for c in 0..d.min(means.len()) {
                        if row[c].is_nan() {
                            row[c] = means[c];
                        }
                    }
                }
                x
            }
            FittedPreproc::StandardScaler { means, stds } => {
                for r in 0..n {
                    let row = x.row_mut(r);
                    for c in 0..d.min(means.len()) {
                        row[c] = (row[c] - means[c]) / stds[c];
                    }
                }
                x
            }
            FittedPreproc::MinMaxScaler { mins, ranges } => {
                for r in 0..n {
                    let row = x.row_mut(r);
                    for c in 0..d.min(mins.len()) {
                        row[c] = (row[c] - mins[c]) / ranges[c];
                    }
                }
                x
            }
            // Shape-changing transforms allocate a fresh matrix either way.
            FittedPreproc::SelectKBest { .. } | FittedPreproc::Pca { .. } => self.apply(&x),
        }
    }

    /// The transform's charge on an input of `shape`; its output has
    /// [`FittedPreproc::output_cols`] columns and the same scales.
    pub fn charge(&self, shape: Shape, tracker: &mut CostTracker) {
        let cells = (shape.rows * shape.cols) as f64 * shape.scale();
        let ops = match self {
            FittedPreproc::MeanImputer { .. } => OpCounts::scalar(cells),
            FittedPreproc::StandardScaler { .. } | FittedPreproc::MinMaxScaler { .. } => {
                OpCounts::scalar(2.0 * cells)
            }
            FittedPreproc::SelectKBest { cols } => {
                OpCounts::mem((shape.rows * cols.len()) as f64 * 8.0 * shape.scale())
            }
            FittedPreproc::Pca { components, .. } => {
                OpCounts::matmul(2.0 * cells * components.rows() as f64)
            }
        };
        tracker.charge(ops, ParallelProfile::batch_inference());
    }

    /// Per-row inference operations of this transform on `d` input columns —
    /// used for inference-time constraint checks before running anything.
    pub fn inference_ops_per_row(&self, d: usize) -> OpCounts {
        match self {
            FittedPreproc::MeanImputer { .. } => OpCounts::scalar(d as f64),
            FittedPreproc::StandardScaler { .. } | FittedPreproc::MinMaxScaler { .. } => {
                OpCounts::scalar(2.0 * d as f64)
            }
            FittedPreproc::SelectKBest { cols } => OpCounts::mem(cols.len() as f64 * 8.0),
            FittedPreproc::Pca { components, .. } => {
                OpCounts::matmul(2.0 * (components.rows() * d) as f64)
            }
        }
    }

    /// Number of output columns given `d` input columns.
    pub fn output_cols(&self, d: usize) -> usize {
        match self {
            FittedPreproc::MeanImputer { .. }
            | FittedPreproc::StandardScaler { .. }
            | FittedPreproc::MinMaxScaler { .. } => d,
            FittedPreproc::SelectKBest { cols } => cols.len(),
            FittedPreproc::Pca { components, .. } => components.rows(),
        }
    }
}

fn column_means_ignoring_nan(x: &Matrix) -> Vec<f64> {
    let (n, d) = (x.rows(), x.cols());
    let mut sums = vec![0.0; d];
    let mut counts = vec![0usize; d];
    for r in 0..n {
        let row = x.row(r);
        for c in 0..d {
            if !row[c].is_nan() {
                sums[c] += row[c];
                counts[c] += 1;
            }
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// Per-column ANOVA-style F-score: between-class variance of class means
/// over within-class variance.
fn anova_f_scores(x: &Matrix, y: &[u32], n_classes: usize) -> Vec<f64> {
    let (n, d) = (x.rows(), x.cols());
    let mut class_sums = vec![vec![0.0; d]; n_classes];
    let mut class_counts = vec![0usize; n_classes];
    for r in 0..n {
        class_counts[y[r] as usize] += 1;
        let row = x.row(r);
        for c in 0..d {
            if !row[c].is_nan() {
                class_sums[y[r] as usize][c] += row[c];
            }
        }
    }
    let grand = column_means_ignoring_nan(x);
    let mut between = vec![0.0; d];
    for k in 0..n_classes {
        if class_counts[k] == 0 {
            continue;
        }
        for c in 0..d {
            let m = class_sums[k][c] / class_counts[k] as f64;
            between[c] += class_counts[k] as f64 * (m - grand[c]).powi(2);
        }
    }
    let mut within = vec![0.0; d];
    for r in 0..n {
        let k = y[r] as usize;
        if class_counts[k] == 0 {
            continue;
        }
        let row = x.row(r);
        for c in 0..d {
            if !row[c].is_nan() {
                let m = class_sums[k][c] / class_counts[k] as f64;
                within[c] += (row[c] - m).powi(2);
            }
        }
    }
    between
        .iter()
        .zip(&within)
        .map(|(&b, &w)| b / w.max(1e-12))
        .collect()
}

/// Top-`k` principal components via power iteration with deflation.
/// Returns (column means, k×d component matrix).
fn pca_power_iteration(x: &Matrix, k: usize, iters: usize) -> (Vec<f64>, Matrix) {
    let (n, d) = (x.rows(), x.cols());
    let mean = column_means_ignoring_nan(x);
    // Centered copy with NaN treated as mean (zero after centering).
    let mut centered = Matrix::zeros(n, d);
    for r in 0..n {
        let src = x.row(r);
        let dst = centered.row_mut(r);
        for c in 0..d {
            dst[c] = if src[c].is_nan() {
                0.0
            } else {
                src[c] - mean[c]
            };
        }
    }
    let mut components = Matrix::zeros(k, d);
    for ki in 0..k {
        // Deterministic pseudo-random start vector.
        let mut v: Vec<f64> = (0..d)
            .map(|c| (((ki * 31 + c * 17 + 7) % 97) as f64 / 97.0) - 0.5)
            .collect();
        normalize(&mut v);
        for _ in 0..iters {
            // w = X^T (X v), four rows per pass.
            let mut w = vec![0.0; d];
            let mut r = 0;
            while r + 4 <= n {
                let rows = [r, r + 1, r + 2, r + 3].map(|r| centered.row(r));
                power_step(rows, &v, &mut w);
                r += 4;
            }
            for r in r..n {
                power_step([centered.row(r)], &v, &mut w);
            }
            // Deflate against previous components.
            for prev in 0..ki {
                let p = components.row(prev);
                let dot: f64 = w.iter().zip(p).map(|(a, b)| a * b).sum();
                for c in 0..d {
                    w[c] -= dot * p[c];
                }
            }
            if normalize(&mut w) < 1e-12 {
                break;
            }
            v = w;
        }
        components.row_mut(ki).copy_from_slice(&v);
    }
    (mean, components)
}

/// Add the `L` rows' terms of one power step to `w`: `w += Σ row·(row·v)`.
///
/// Each row's dot with `v` is its own chain over ascending columns, from
/// `-0.0` as the iterator sum it replaced started; then every `w[c]` adds
/// the rows' terms in row order. So a pass over four rows at a time adds
/// exactly the addends, in exactly the order, of a pass computing all of
/// `Xv` and then `Xᵀ(Xv)` row by row, while the rows are still in cache
/// and the four dots overlap.
fn power_step<const L: usize>(rows: [&[f64]; L], v: &[f64], w: &mut [f64]) {
    let mut xv = [-0.0; L];
    for (c, &vc) in v.iter().enumerate() {
        for l in 0..L {
            xv[l] += rows[l][c] * vc;
        }
    }
    for (c, wc) in w.iter_mut().enumerate() {
        for l in 0..L {
            *wc += rows[l][c] * xv[l];
        }
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-12 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_energy::rng::SplitMix64;
    use green_automl_energy::{Device, StableHasher};

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    fn toy() -> (Matrix, Vec<u32>) {
        // Column 0 separates classes; column 1 is noise; column 2 has a NaN.
        let x = Matrix::from_vec(
            vec![
                0.0,
                5.0,
                1.0, //
                0.1,
                -3.0,
                f64::NAN, //
                10.0,
                4.0,
                3.0, //
                10.1,
                -2.0,
                5.0,
            ],
            4,
            3,
        );
        (x, vec![0, 0, 1, 1])
    }

    #[test]
    fn imputer_fills_nan_with_mean() {
        let (x, y) = toy();
        let mut tr = tracker();
        let f = PreprocSpec::MeanImputer.fit(&x, &y, 2, &mut tr);
        let out = f.transform(&x, &mut tr);
        // Mean of col 2 over non-missing = (1+3+5)/3 = 3.
        assert!((out.get(1, 2) - 3.0).abs() < 1e-12);
        assert!(out.as_slice().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn standard_scaler_standardises() {
        let (x, y) = toy();
        let mut tr = tracker();
        let f = PreprocSpec::StandardScaler.fit(&x, &y, 2, &mut tr);
        let out = f.transform(&x, &mut tr);
        let col: Vec<f64> = out.col(0);
        let mean: f64 = col.iter().sum::<f64>() / 4.0;
        let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let (x, y) = toy();
        let mut tr = tracker();
        let f = PreprocSpec::MinMaxScaler.fit(&x, &y, 2, &mut tr);
        let out = f.transform(&x, &mut tr);
        for c in 0..2 {
            let col = out.col(c);
            assert!(col.iter().all(|&v| (-1e-9..=1.0 + 1e-9).contains(&v)));
        }
    }

    #[test]
    fn select_k_best_keeps_discriminative_column() {
        let (x, y) = toy();
        let mut tr = tracker();
        let f = PreprocSpec::SelectKBest { frac: 0.3 }.fit(&x, &y, 2, &mut tr);
        match &f {
            FittedPreproc::SelectKBest { cols } => assert_eq!(cols, &vec![0]),
            _ => unreachable!(),
        }
        let out = f.transform(&x, &mut tr);
        assert_eq!(out.cols(), 1);
        assert_eq!(out.col(0), x.col(0));
    }

    #[test]
    fn pca_first_component_captures_variance_direction() {
        // Data varies overwhelmingly along column 0.
        let mut x = Matrix::zeros(50, 3);
        for r in 0..50 {
            x.set(r, 0, r as f64);
            x.set(r, 1, (r % 3) as f64 * 0.01);
            x.set(r, 2, 0.5);
        }
        let y = vec![0u32; 50];
        let mut tr = tracker();
        let f = PreprocSpec::Pca { frac: 0.3 }.fit(&x, &y, 2, &mut tr);
        match &f {
            FittedPreproc::Pca { components, .. } => {
                assert_eq!(components.rows(), 1);
                assert!(
                    components.get(0, 0).abs() > 0.99,
                    "first PC should align with col 0"
                );
            }
            _ => unreachable!(),
        }
        let out = f.transform(&x, &mut tr);
        assert_eq!(out.cols(), 1);
    }

    #[test]
    fn transforms_charge_energy_at_scale() {
        let (mut x, y) = toy();
        let mut t1 = tracker();
        let f = PreprocSpec::StandardScaler.fit(&x, &y, 2, &mut t1);
        let base = {
            let mut t = tracker();
            let _ = f.transform(&x, &mut t);
            t.measurement().energy.total_joules()
        };
        x.row_scale = 50.0;
        let scaled = {
            let mut t = tracker();
            let _ = f.transform(&x, &mut t);
            t.measurement().energy.total_joules()
        };
        assert!(scaled > base * 20.0);
    }

    #[test]
    fn output_cols_are_consistent() {
        let (x, y) = toy();
        let mut tr = tracker();
        for spec in [
            PreprocSpec::MeanImputer,
            PreprocSpec::StandardScaler,
            PreprocSpec::MinMaxScaler,
            PreprocSpec::SelectKBest { frac: 0.7 },
            PreprocSpec::Pca { frac: 0.7 },
        ] {
            let f = spec.fit(&x, &y, 2, &mut tr);
            let out = f.transform(&x, &mut tr);
            assert_eq!(out.cols(), f.output_cols(x.cols()), "{spec:?}");
            assert!(
                !f.inference_ops_per_row(x.cols()).is_zero()
                    || matches!(spec, PreprocSpec::SelectKBest { .. })
            );
        }
    }

    /// A seeded `n x d` matrix of signed zeros, small integers and
    /// continuous values with a few NaN cells. Columns from `rank` on are
    /// scaled copies of the first `rank`, so the matrix has rank `rank`.
    fn pca_fixture(n: usize, d: usize, rank: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                let v = if c >= rank {
                    x.get(r, c % rank) * (c + 1) as f64
                } else if rng.gen_bool(0.03) {
                    f64::NAN
                } else if rng.gen_bool(0.3) {
                    [-0.0, 0.0, 1.0, -2.0][rng.gen_range(0..4usize)]
                } else {
                    rng.next_f64() * 6.0 - 3.0
                };
                x.set(r, c, v);
            }
        }
        x
    }

    /// Cross-commit golden of PCA fits: per case, the digest of the bits
    /// of the column means, the components and the transformed training
    /// matrix. The cases cover row counts that are not multiples of 4 (and
    /// below 4), `d = 1`, a rank-deficient matrix whose later components
    /// stop early, and the 16-component cap.
    #[test]
    fn pca_bits_match_the_pinned_values() {
        // (n, d, rank, frac, digest)
        #[rustfmt::skip]
        const CASES: [(usize, usize, usize, f64, u64); 6] = [
            (37, 5, 5, 0.6, 0x18ca5841049024c1),
            (10, 1, 1, 1.0, 0xc93bdfbfde3159ed),
            (3, 4, 4, 1.0, 0x96be81a3b98d7210),
            (23, 7, 3, 1.0, 0x0a1e27b92ca080d3),
            (41, 20, 20, 1.0, 0x4e24d3298b25ab45),
            (64, 9, 6, 0.5, 0xcd637aecf2c4c67e),
        ];
        let actual: Vec<u64> = CASES
            .iter()
            .map(|&(n, d, rank, frac, _)| {
                let x = pca_fixture(n, d, rank, (n * 100 + d) as u64);
                let y = vec![0u32; n];
                let mut tr = tracker();
                let f = PreprocSpec::Pca { frac }.fit(&x, &y, 2, &mut tr);
                let out = f.transform(&x, &mut tr);
                let FittedPreproc::Pca { mean, components } = &f else {
                    unreachable!()
                };
                let mut h = StableHasher::new(0x9ca);
                for &v in mean
                    .iter()
                    .chain(components.as_slice())
                    .chain(out.as_slice())
                {
                    h.write_f64(v);
                }
                h.finish()
            })
            .collect();
        let want: Vec<u64> = CASES.iter().map(|c| c.4).collect();
        assert_eq!(actual, want, "PCA bits moved: {actual:#018x?}");
    }

    #[test]
    #[should_panic(expected = "frac")]
    fn zero_frac_panics() {
        let (x, y) = toy();
        let _ = PreprocSpec::SelectKBest { frac: 0.0 }.fit(&x, &y, 2, &mut tracker());
    }
}
