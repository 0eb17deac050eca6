//! Shared compute kernels for the model substrate.
//!
//! Every hot numeric loop in the model zoo funnels through this module:
//! a cache-blocked, autovectorizable matmul (plain and B-transposed), fused
//! dot/axpy/softmax-row primitives, and a thread-local scratch arena that
//! lets inner loops stop allocating across folds and batch-predict calls.
//!
//! ## Determinism contract
//!
//! Kernels are *bitwise deterministic*: for every output element the
//! floating-point summation order is fixed — ascending along the shared
//! (`k`) dimension — at **every** block size. Blocking tiles only the
//! output-space loops (`i`, and the `k` loop in ascending block order), so
//! [`matmul`] is bitwise identical to the naive three-loop reference
//! [`matmul_naive`] no matter how `BLOCK_ROWS` / `BLOCK_K` are chosen, and
//! the grid/trace/serving byte-identity invariants hold unchanged at every
//! worker count. No kernel reads uninitialised or stale memory: scratch
//! buffers are zero-filled on checkout.
//!
//! ## Scratch lifetime rules
//!
//! [`take_vec`]/[`give_vec`] check buffers out of (and back into) a
//! bounded thread-local pool. Checkout *moves* the `Vec` to the caller, so
//! two live buffers can never alias; a buffer handed back is reused by
//! later checkouts on the same thread — across rows, folds, and
//! batch-predict calls. [`ScratchBuf`] is the RAII variant that returns
//! its buffer on drop.

use crate::matrix::Matrix;
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::StableHasher;
use std::cell::RefCell;

/// Row-block size for [`matmul`] (output rows processed per tile).
pub const BLOCK_ROWS: usize = 32;
/// Shared-dimension block size for [`matmul`].
pub const BLOCK_K: usize = 128;
/// Column-block size for [`matmul_transb`] (B rows kept hot per tile).
pub const BLOCK_COLS: usize = 32;

/// `out = a · b` — cache-blocked, autovectorizable matrix product.
///
/// Uses the `i-k-j` loop order: the inner loop is an axpy over a row of
/// `b`, which is contiguous in memory and vectorizes, while each output
/// element still accumulates its `k` contributions in strictly ascending
/// order. Bitwise identical to [`matmul_naive`] at every block size.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, kd) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(kd, b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.rows(), m, "matmul output row mismatch");
    assert_eq!(out.cols(), n, "matmul output col mismatch");
    out.as_mut_slice().fill(0.0);
    let mut ii = 0;
    while ii < m {
        let i_end = (ii + BLOCK_ROWS).min(m);
        // k blocks ascend, and k ascends within a block, so each output
        // element sees its addends in the naive order.
        let mut kk = 0;
        while kk < kd {
            let k_end = (kk + BLOCK_K).min(kd);
            for i in ii..i_end {
                let arow = a.row(i);
                let orow = out.row_mut(i);
                for k in kk..k_end {
                    let aik = arow[k];
                    let brow = b.row(k);
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
            kk = k_end;
        }
        ii = i_end;
    }
}

/// Naive `i-j-k` reference product (column-strided access to `b`).
///
/// Kept as the bitwise-equivalence oracle for [`matmul`] and as the
/// "before" side of the kernel microbenches.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_naive(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, kd) = (a.rows(), a.cols());
    let n = b.cols();
    assert_eq!(kd, b.rows(), "matmul inner dimension mismatch");
    assert_eq!(out.rows(), m, "matmul output row mismatch");
    assert_eq!(out.cols(), n, "matmul output col mismatch");
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let mut acc = 0.0;
            for (k, &av) in arow.iter().enumerate() {
                acc += av * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
}

/// `out[i][j] = dot(a.row(i), b.row(j))` — product against a transposed
/// `b` stored row-major (`b` is `n x k`), blocked so a tile of `b` rows
/// stays cache-hot across a tile of `a` rows.
///
/// This is the natural GEMM shape for dense layers whose weights are
/// stored `(out x in)`: both operands stream row-major. Each output is a
/// [`dot`]: ascending `k` order from `+0.0`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn matmul_transb(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    let (m, kd) = (a.rows(), a.cols());
    let n = b.rows();
    assert_eq!(kd, b.cols(), "matmul_transb inner dimension mismatch");
    assert_eq!(out.rows(), m, "matmul_transb output row mismatch");
    assert_eq!(out.cols(), n, "matmul_transb output col mismatch");
    let mut jj = 0;
    while jj < n {
        let j_end = (jj + BLOCK_COLS).min(n);
        for i in 0..m {
            let arow = a.row(i);
            let orow = out.row_mut(i);
            for j in jj..j_end {
                orow[j] = dot(arow, b.row(j));
            }
        }
        jj = j_end;
    }
}

/// Fused dot product: the products added in ascending order to `+0.0`.
///
/// That equals `x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>()` bit for
/// bit except in one case: the iterator sum starts from `-0.0`, so when
/// the slices are empty or every product is `-0.0` it returns `-0.0` where
/// `dot` returns `+0.0` (any other first addend absorbs either seed).
/// Callers that replaced such a sum keep its `-0.0` start themselves.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// Matrix-vector product `out[o] = dot(w.row(o), x)` with `w` stored
/// `out x in` (the transposed-B convention of [`matmul_transb`]).
///
/// Rows are processed four at a time sharing one pass over `x`: each
/// output keeps its own zero-seeded ascending-`k` accumulator, so every
/// `out[o]` is bitwise identical to [`dot`] — the four independent
/// dependency chains only hide FP-add latency. This is the per-sample
/// hot loop of SGD training (a latency-bound place where the blocked
/// [`matmul`] has no batch dimension to work with).
#[inline]
pub fn gemv_t(w: &Matrix, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(w.cols(), x.len());
    debug_assert_eq!(w.rows(), out.len());
    let mut o = 0;
    while o + 4 <= out.len() {
        let (r0, r1, r2, r3) = (w.row(o), w.row(o + 1), w.row(o + 2), w.row(o + 3));
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        for ((((&xv, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            a0 += w0 * xv;
            a1 += w1 * xv;
            a2 += w2 * xv;
            a3 += w3 * xv;
        }
        out[o] = a0;
        out[o + 1] = a1;
        out[o + 2] = a2;
        out[o + 3] = a3;
        o += 4;
    }
    for (v, r) in out[o..].iter_mut().zip(o..) {
        *v = dot(w.row(r), x);
    }
}

/// `y += alpha * x`, element-wise (vectorizable: independent lanes).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (o, &v) in y.iter_mut().zip(x) {
        *o += alpha * v;
    }
}

/// Squared Euclidean distance, fused single pass, ascending order from
/// `+0.0`.
#[inline]
pub fn sq_dist(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let d = a - b;
        acc += d * d;
    }
    acc
}

/// Squared distances from every row of `m` to `query`:
/// `out[t] = sq_dist(m.row(t), query)`.
///
/// Rows are processed four at a time sharing one pass over `query`, as
/// [`gemv_t`] does for [`dot`]: each row keeps its own `+0.0`-seeded
/// ascending accumulator, so every `out[t]` is bitwise identical to
/// [`sq_dist`]. Remainder rows fall back to it. This is k-NN's per-query
/// hot loop.
#[inline]
pub fn sq_dists(m: &Matrix, query: &[f64], out: &mut [f64]) {
    debug_assert_eq!(m.cols(), query.len());
    debug_assert_eq!(m.rows(), out.len());
    let mut t = 0;
    while t + 4 <= out.len() {
        let (r0, r1, r2, r3) = (m.row(t), m.row(t + 1), m.row(t + 2), m.row(t + 3));
        let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
        for ((((&q, &v0), &v1), &v2), &v3) in query.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let (d0, d1, d2, d3) = (v0 - q, v1 - q, v2 - q, v3 - q);
            a0 += d0 * d0;
            a1 += d1 * d1;
            a2 += d2 * d2;
            a3 += d3 * d3;
        }
        out[t..t + 4].copy_from_slice(&[a0, a1, a2, a3]);
        t += 4;
    }
    for (v, r) in out[t..].iter_mut().zip(t..) {
        *v = sq_dist(m.row(r), query);
    }
}

/// Numerically stable in-place softmax over one row: fused max / exp /
/// normalise. An all-`-inf` (or empty-sum) row degrades to uniform.
#[inline]
pub fn softmax_row(v: &mut [f64]) {
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    } else {
        let u = 1.0 / v.len() as f64;
        v.fill(u);
    }
}

// --- Scratch arena -------------------------------------------------------

/// Pool-size cap: buffers beyond this are dropped instead of retained.
const POOL_MAX: usize = 32;

/// Retained-bytes cap per thread: a returned buffer that would lift the
/// pool's total capacity past it is dropped, so a burst of large returns
/// cannot pin more than this. It fits the largest scratch set in the zoo
/// (in-context attention at its 1000-row context: an 8 MB score matrix
/// and its companions), so that still recycles.
const POOL_MAX_BYTES: usize = 16 << 20;

thread_local! {
    static POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// Check a zero-filled `f64` buffer of length `len` out of the
/// thread-local pool (allocating only if the pool has nothing suitable).
/// Pair with [`give_vec`] to enable reuse, or let it drop to release.
pub fn take_vec(len: usize) -> Vec<f64> {
    let mut buf = POOL
        .with(|p| {
            let mut pool = p.borrow_mut();
            // Prefer the smallest retained buffer that already fits.
            let mut best: Option<usize> = None;
            for (i, b) in pool.iter().enumerate() {
                if b.capacity() >= len && best.is_none_or(|j| b.capacity() < pool[j].capacity()) {
                    best = Some(i);
                }
            }
            best.map(|i| pool.swap_remove(i))
        })
        .unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Return a buffer to the thread-local pool for later [`take_vec`] reuse.
/// It is dropped instead when the pool already holds `POOL_MAX` (32)
/// buffers or when keeping it would lift the pool past `POOL_MAX_BYTES`
/// (16 MiB).
pub fn give_vec(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        let held: usize = pool.iter().map(Vec::capacity).sum();
        let fits = (held + buf.capacity()) * std::mem::size_of::<f64>() <= POOL_MAX_BYTES;
        if pool.len() < POOL_MAX && fits {
            pool.push(buf);
        }
    });
}

/// Bytes of capacity the calling thread's pool retains.
#[cfg(test)]
fn pooled_bytes() -> usize {
    POOL.with(|p| p.borrow().iter().map(Vec::capacity).sum::<usize>()) * std::mem::size_of::<f64>()
}

/// RAII scratch buffer: zero-filled on checkout, returned to the pool on
/// drop. Derefs to `[f64]`.
pub struct ScratchBuf {
    buf: Vec<f64>,
}

/// Check out an RAII scratch buffer of length `len` (see [`take_vec`]).
pub fn scratch(len: usize) -> ScratchBuf {
    ScratchBuf { buf: take_vec(len) }
}

impl std::ops::Deref for ScratchBuf {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        give_vec(std::mem::take(&mut self.buf));
    }
}

/// Check a zero-filled pooled matrix of shape `rows x cols` out of the
/// scratch arena. Recycle it with [`give_matrix`].
pub fn take_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(take_vec(rows * cols), rows, cols)
}

/// Return a matrix's buffer to the scratch arena.
pub fn give_matrix(m: Matrix) {
    give_vec(m.into_vec());
}

// --- Seeded subsampling --------------------------------------------------

/// Domain tag for subsample-seed derivation words.
const TAG_SUBSAMPLE: u64 = 0x5ab5_a31e_0f00_b1a5;

/// Derive the RNG seed for a row subsample, keyed — like split ids — by
/// the exact derivation words: model seed, population size, sample size.
pub fn subsample_seed(seed: u64, n_rows: usize, keep: usize) -> u64 {
    let mut h = StableHasher::new(TAG_SUBSAMPLE);
    h.write_u64(seed);
    h.write_usize(n_rows);
    h.write_usize(keep);
    h.finish()
}

/// A seeded uniform row subsample: `keep` distinct indices drawn without
/// replacement from `0..n_rows` (partial Fisher–Yates over SplitMix64),
/// returned in ascending order so downstream iteration stays row-major.
///
/// When `keep >= n_rows` this is the identity — callers that previously
/// took an unshuffled prefix keep bitwise-identical behaviour whenever no
/// subsampling happens.
pub fn subsample_rows(n_rows: usize, keep: usize, seed: u64) -> Vec<usize> {
    if keep >= n_rows {
        return (0..n_rows).collect();
    }
    let mut idx: Vec<usize> = (0..n_rows).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in 0..keep {
        let j = i + rng.bounded_u64((n_rows - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(keep);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-2.0..2.0f64);
        }
        m
    }

    #[test]
    fn blocked_matmul_is_bitwise_naive_at_awkward_sizes() {
        // Sizes straddle the block boundaries (smaller, equal, larger,
        // non-multiples) so every tiling edge case is exercised.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (BLOCK_ROWS, BLOCK_K, 7),
            (BLOCK_ROWS + 1, BLOCK_K + 3, BLOCK_COLS + 5),
            (70, 257, 33),
        ] {
            let a = random_matrix(m, k, 11 + m as u64);
            let b = random_matrix(k, n, 97 + n as u64);
            let mut blocked = Matrix::zeros(m, n);
            let mut naive = Matrix::zeros(m, n);
            matmul(&a, &b, &mut blocked);
            matmul_naive(&a, &b, &mut naive);
            for (x, y) in blocked.as_slice().iter().zip(naive.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} diverged");
            }
        }
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let a = random_matrix(17, 9, 5);
        let bt = random_matrix(13, 9, 6); // stored (n x k)
        let mut b = Matrix::zeros(9, 13);
        for r in 0..13 {
            for c in 0..9 {
                b.set(c, r, bt.get(r, c));
            }
        }
        let mut via_transb = Matrix::zeros(17, 13);
        let mut via_naive = Matrix::zeros(17, 13);
        matmul_transb(&a, &bt, &mut via_transb);
        matmul_naive(&a, &b, &mut via_naive);
        for (x, y) in via_transb.as_slice().iter().zip(via_naive.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn dot_matches_iterator_sum_bitwise() {
        let a = random_matrix(1, 301, 7);
        let b = random_matrix(1, 301, 8);
        let expect: f64 = a.row(0).iter().zip(b.row(0)).map(|(x, y)| x * y).sum();
        assert_eq!(dot(a.row(0), b.row(0)).to_bits(), expect.to_bits());
    }

    #[test]
    fn dot_starts_from_plus_zero_where_the_iterator_sum_starts_from_minus_zero() {
        let sum = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
        // Empty, and every product -0.0: the two seeds show.
        let neg: [f64; 2] = [-0.0, 2.0];
        let pos: [f64; 2] = [1.0, -0.0];
        for (x, y) in [(&[][..], &[][..]), (&neg[..], &pos[..])] {
            assert_eq!(dot(x, y).to_bits(), 0.0f64.to_bits());
            assert_eq!(sum(x, y).to_bits(), (-0.0f64).to_bits());
        }
        // A +0.0 product, or any non-zero one, absorbs either seed.
        let (x, y) = ([-0.0, 0.0], [1.0, 1.0]);
        assert_eq!(dot(&x, &y).to_bits(), sum(&x, &y).to_bits());
    }

    #[test]
    fn gemv_t_matches_per_row_dot_bitwise() {
        // Both a 4-multiple and a remainder-tail row count.
        for rows in [8usize, 7, 3, 1] {
            let w = random_matrix(rows, 33, 21);
            let x = random_matrix(1, 33, 22);
            let mut out = vec![0.0; rows];
            gemv_t(&w, x.row(0), &mut out);
            for (r, &got) in out.iter().enumerate() {
                assert_eq!(got.to_bits(), dot(w.row(r), x.row(0)).to_bits());
            }
        }
    }

    #[test]
    fn sq_dists_match_per_row_sq_dist_bitwise() {
        // 4-multiples and remainder tails, with signed zeros and ties.
        for rows in [8usize, 7, 3, 1, 0] {
            let mut m = random_matrix(rows, 13, 31);
            if rows > 1 {
                m.row_mut(1).fill(-0.0);
            }
            let mut q = random_matrix(1, 13, 32);
            q.row_mut(0)[..4].fill(0.0);
            let mut out = vec![f64::NAN; rows];
            sq_dists(&m, q.row(0), &mut out);
            for (r, &got) in out.iter().enumerate() {
                assert_eq!(got.to_bits(), sq_dist(m.row(r), q.row(0)).to_bits());
            }
        }
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(2.0, &[10.0, 20.0, 30.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0, 63.0]);
    }

    #[test]
    fn sq_dist_is_squared_euclidean() {
        assert_eq!(sq_dist(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
        assert_eq!(sq_dist(&[], &[]), 0.0);
    }

    #[test]
    fn softmax_row_matches_models_softmax_contract() {
        let mut v = vec![1000.0, 1001.0, 999.0];
        softmax_row(&mut v);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(v[1] > v[0] && v[0] > v[2]);
        let mut z = vec![f64::NEG_INFINITY; 4];
        softmax_row(&mut z);
        assert!(z.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }

    #[test]
    fn scratch_checkouts_never_alias() {
        // Ownership makes aliasing impossible; this documents the contract
        // by writing through two live checkouts and checking independence.
        let mut a = scratch(64);
        let mut b = scratch(64);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0));
        assert!(b.iter().all(|&v| v == 2.0));
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn scratch_is_zeroed_on_reuse() {
        {
            let mut a = scratch(16);
            a.fill(9.0);
        } // returned to pool dirty
        let b = scratch(16);
        assert!(b.iter().all(|&v| v == 0.0), "stale scratch leaked");
    }

    #[test]
    fn pool_reuses_returned_buffers() {
        let a = take_vec(1024);
        let ptr = a.as_ptr();
        give_vec(a);
        let b = take_vec(512); // fits in the retained capacity
        assert_eq!(b.as_ptr(), ptr, "pool should hand back the same buffer");
        give_vec(b);
    }

    #[test]
    fn a_burst_of_large_returns_pins_at_most_the_byte_cap() {
        POOL.with(|p| p.borrow_mut().clear());
        // Each buffer holds a little under a quarter of the cap, so four
        // are kept and the rest of the burst is dropped; a buffer larger
        // than the cap is never kept. (Capacity alone counts, so the
        // buffers need not be touched.)
        let quarter = POOL_MAX_BYTES / 4 / std::mem::size_of::<f64>() - 8;
        for _ in 0..8 {
            give_vec(Vec::with_capacity(quarter));
        }
        give_vec(Vec::with_capacity(
            POOL_MAX_BYTES / std::mem::size_of::<f64>() + 1,
        ));
        let held = pooled_bytes();
        assert!(held <= POOL_MAX_BYTES, "pool pins {held} bytes");
        assert!(
            held >= 3 * POOL_MAX_BYTES / 4,
            "pool kept too little: {held}"
        );
        // Small buffers still fit beside them.
        give_vec(Vec::with_capacity(4));
        assert!(pooled_bytes() > held);
        POOL.with(|p| p.borrow_mut().clear());
    }

    #[test]
    fn pooled_matrix_round_trips() {
        let m = take_matrix(4, 3);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        give_matrix(m);
    }

    #[test]
    fn subsample_is_uniformish_distinct_and_sorted() {
        let s = subsample_rows(1000, 100, 42);
        assert_eq!(s.len(), 100);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        // Uniform over the whole range, not a prefix: the mean index of a
        // uniform 100-of-1000 sample concentrates near 500.
        let mean = s.iter().sum::<usize>() as f64 / 100.0;
        assert!(
            (350.0..650.0).contains(&mean),
            "subsample looks prefix-biased: mean index {mean}"
        );
    }

    #[test]
    fn subsample_identity_when_keep_covers_population() {
        assert_eq!(subsample_rows(5, 5, 9), vec![0, 1, 2, 3, 4]);
        assert_eq!(subsample_rows(5, 8, 9), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn subsample_is_seed_deterministic_and_seed_sensitive() {
        assert_eq!(subsample_rows(500, 50, 7), subsample_rows(500, 50, 7));
        assert_ne!(subsample_rows(500, 50, 7), subsample_rows(500, 50, 8));
        // Derivation keying: different (n, keep) derive different seeds.
        assert_ne!(subsample_seed(7, 500, 50), subsample_seed(7, 501, 50));
        assert_ne!(subsample_seed(7, 500, 50), subsample_seed(7, 500, 51));
    }
}
