//! CART decision trees (classification and regression).
//!
//! The shared workhorse underneath single trees, random forests, extra
//! trees, and gradient boosting. Gini impurity for classification, variance
//! reduction for regression, exhaustive sorted-scan split search (or random
//! thresholds in extra-trees mode), optional per-node feature subsampling.
//!
//! The sorted scan never sorts at a node, and an ensemble never sorts per
//! tree: every feature column of the ensemble's fit matrix is ranked once
//! (`RankTable`), each tree derives the sorted lists of the rows it fits
//! from those ranks by a counting sort, and each split stably partitions
//! the lists into its two children. A fitted tree is one flat pre-order
//! node array plus one leaf-value array.

use crate::matrix::{Matrix, Shape};
use crate::models::{answer_then_charge, Predict, Steps, Traversals};
use green_automl_energy::rng::SplitMix64;
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};
use std::cell::OnceCell;

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child.
    pub min_samples_leaf: usize,
    /// Fraction of features examined per node, `(0, 1]`: each node samples
    /// `ceil(d * max_features_frac)` features without replacement. The
    /// single-tree default examines every feature; forests default to
    /// 0.35 and boosting uses 0.8.
    pub max_features_frac: f64,
    /// Extra-trees mode: draw one random threshold per feature instead of
    /// scanning all cut points.
    pub random_thresholds: bool,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 8,
            min_samples_leaf: 3,
            max_features_frac: 1.0,
            random_thresholds: false,
        }
    }
}

/// `Node::feature` of a leaf.
const LEAF: u32 = u32::MAX;

/// One node of the flat pre-order layout. A split's left child is always
/// the next node, so only the right child is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Node {
    /// Split threshold (`0.0` for a leaf).
    threshold: f64,
    /// Split feature, or [`LEAF`].
    feature: u32,
    /// Split: index of the right child. Leaf: offset of its `n_outputs`
    /// values in `DecisionTree::leaf_values`.
    next: u32,
}

/// Random tree traversal is cache-hostile compared with the sequential
/// scans of training: each inference step costs this many training-grade
/// tree steps (pointer chase + cache miss vs streaming scan).
pub const TRAVERSAL_PENALTY: f64 = 20.0;

/// A fitted CART tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    /// Class distribution (classification) or the scalar value
    /// (regression) of every leaf, `n_outputs` values each.
    leaf_values: Vec<f64>,
    n_outputs: usize,
    max_depth_seen: usize,
    d_in: usize,
}

/// Narrow an index into a `u32` node field.
fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("tree index exceeds u32")
}

/// Pack `(value, row)` into one sortable integer: the high 64 bits order
/// exactly like the `f64` value (sign-magnitude flip, `-0.0` collapsed
/// onto `+0.0` so zero ties keep pure row order), the low 64 bits are the
/// row index. An unstable integer sort on these keys reproduces the
/// stable value-sort's `(value, row)` total order — branchlessly, which
/// is 2-3x faster than a comparator-based float sort.
#[inline]
fn pack(v: f64, r: usize) -> u128 {
    let v = if v == 0.0 { 0.0 } else { v };
    let b = v.to_bits();
    let key = if b >> 63 == 1 { !b } else { b | (1 << 63) };
    ((key as u128) << 64) | r as u128
}

#[inline]
fn unpack_value(p: u128) -> f64 {
    let key = (p >> 64) as u64;
    let b = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    f64::from_bits(b)
}

#[inline]
fn unpack_row(p: u128) -> usize {
    p as u64 as usize
}

/// One sorted-list entry: the value's rank in the high 32 bits, the row in
/// the low 32. Integer order on entries is `(rank, row)` order, which is
/// the packed keys' `(value, row)` order.
#[inline]
fn entry(rank: u32, row: usize) -> u64 {
    (u64::from(rank) << 32) | row as u64
}

#[inline]
fn entry_rank(e: u64) -> usize {
    (e >> 32) as usize
}

#[inline]
fn entry_row(e: u64) -> usize {
    e as u32 as usize
}

/// Every feature column of a fit matrix sorted once, as dense ranks: rows
/// whose packed value keys are equal share a rank, and ranks ascend with
/// the key. Column `f`'s ranks sit at `ranks[f * n..(f + 1) * n]` (by
/// row), its distinct values in ascending order at
/// `values[starts[f]..starts[f + 1]]` (each decoded from its packed key,
/// so `-0.0` reads as `+0.0`, as the packed scan read it).
///
/// Any matrix whose rows are drawn from this one — with duplicates, in any
/// order — gets its sorted lists from [`RankTable::derive`] without a
/// comparison sort.
#[derive(Debug)]
struct RankTable {
    n: usize,
    ranks: Vec<u32>,
    values: Vec<f64>,
    starts: Vec<usize>,
}

impl RankTable {
    /// Rank every column of `x`: one packed-key sort per column.
    fn new(x: &Matrix) -> RankTable {
        let (n, d) = (x.rows(), x.cols());
        let mut ranks = vec![0u32; n * d];
        let mut values = Vec::new();
        let mut starts = Vec::with_capacity(d + 1);
        let mut keys = Vec::with_capacity(n);
        for f in 0..d {
            keys.clear();
            keys.extend((0..n).map(|r| pack(x.get(r, f), r)));
            keys.sort_unstable();
            let start = values.len();
            starts.push(start);
            let col = &mut ranks[f * n..(f + 1) * n];
            let (mut last, mut rank) = (None, 0);
            for &k in &keys {
                if last != Some(k >> 64) {
                    last = Some(k >> 64);
                    rank = narrow(values.len() - start);
                    values.push(unpack_value(k));
                }
                col[unpack_row(k)] = rank;
            }
        }
        starts.push(values.len());
        RankTable {
            n,
            ranks,
            values,
            starts,
        }
    }

    /// Column `f`'s distinct values in ascending order, indexed by rank.
    fn values(&self, f: usize) -> &[f64] {
        &self.values[self.starts[f]..self.starts[f + 1]]
    }

    /// The sorted lists of `x.take_rows(rows)`, where `x` is the ranked
    /// matrix: feature `f`'s `rows.len()` entries sit at
    /// `lists[f * rows.len()..]` in ascending `(rank, row)` order, `row`
    /// being the position in `rows`. A stable counting sort on rank over
    /// ascending positions: equal ranks keep ascending row order, exactly
    /// as the packed `(value, row)` keys of the gathered matrix sort.
    fn derive(&self, rows: &[usize]) -> Vec<u64> {
        let m = rows.len();
        // Every row index below `m` fits an entry's low half.
        narrow(m);
        let d = self.starts.len() - 1;
        let mut lists = vec![0; m * d];
        let mut drawn: Vec<u32> = Vec::with_capacity(m);
        let mut slots: Vec<u32> = Vec::new();
        for f in 0..d {
            let ranks = &self.ranks[f * self.n..(f + 1) * self.n];
            let out = &mut lists[f * m..(f + 1) * m];
            drawn.clear();
            drawn.extend(rows.iter().map(|&r| ranks[r]));
            // Count each rank, then turn the counts into each rank's first
            // slot.
            slots.clear();
            slots.resize(self.starts[f + 1] - self.starts[f], 0);
            for &k in &drawn {
                slots[k as usize] += 1;
            }
            let mut at = 0;
            for slot in &mut slots {
                let count = *slot;
                *slot = at;
                at += count;
            }
            for (row, &k) in drawn.iter().enumerate() {
                let slot = &mut slots[k as usize];
                out[*slot as usize] = entry(k, row);
                *slot += 1;
            }
        }
        lists
    }
}

/// A fit matrix whose [`RankTable`] is built on first use, so a fit whose
/// trees never scan sorted values (extra trees, or roots that stop at
/// once) never sorts. Forests and boosting rank their fit matrix once and
/// fit every tree on a [`Draw`] of its rows.
pub(crate) struct Ranked<'a> {
    x: &'a Matrix,
    table: OnceCell<RankTable>,
}

impl<'a> Ranked<'a> {
    pub(crate) fn new(x: &'a Matrix) -> Ranked<'a> {
        Ranked {
            x,
            table: OnceCell::new(),
        }
    }

    fn table(&self) -> &RankTable {
        self.table.get_or_init(|| RankTable::new(self.x))
    }

    /// Rows `rows` (duplicates allowed, in draw order) for one tree, which
    /// derives its own lists.
    pub(crate) fn draw(&'a self, rows: &'a [usize]) -> Draw<'a> {
        Draw {
            ranked: self,
            rows,
            shared: None,
        }
    }

    /// Rows `rows` for several trees (boosting's per-class trees, or every
    /// tree of a forest without bootstrap): the lists are derived once, on
    /// first use, and each tree partitions its own copy.
    pub(crate) fn shared_draw(&'a self, rows: &'a [usize]) -> Draw<'a> {
        Draw {
            shared: Some(OnceCell::new()),
            ..self.draw(rows)
        }
    }
}

/// The rows a tree fits, drawn from a [`Ranked`] matrix `x`: the tree's fit
/// matrix must be `x.take_rows(rows)`.
pub(crate) struct Draw<'a> {
    ranked: &'a Ranked<'a>,
    rows: &'a [usize],
    shared: Option<OnceCell<Vec<u64>>>,
}

impl Draw<'_> {
    /// The draw's sorted lists, for one tree to partition.
    fn lists(&self) -> Vec<u64> {
        let table = self.ranked.table();
        match &self.shared {
            None => table.derive(self.rows),
            Some(memo) => memo.get_or_init(|| table.derive(self.rows)).clone(),
        }
    }

    /// Feature `f`'s distinct values, indexed by rank.
    fn values(&self, f: usize) -> &[f64] {
        self.ranked.table().values(f)
    }
}

struct FitCtx<'a> {
    x: &'a Matrix,
    /// Where `x`'s rows were drawn from; the source of `lists`.
    draw: &'a Draw<'a>,
    params: &'a TreeParams,
    /// Per-row class label (classification) or target (regression).
    targets: Targets<'a>,
    steps: f64,
    scalar: f64,
    /// Row ids in ascending order within each node's segment
    /// `[start, end)`: a split stably partitions its segment into the
    /// left child's rows followed by the right child's.
    rows: Vec<usize>,
    /// The sorted feature lists, partitioned in lockstep with `rows`:
    /// feature `f`'s [`entry`]s for segment `[start, end)` sit at
    /// `lists[f * n + start..f * n + end]` in `(rank, row)` order. Empty
    /// in extra-trees mode, which never scans sorted values.
    lists: Vec<u64>,
    /// Split direction of each row of the node being partitioned.
    goes_left: Vec<bool>,
    /// Right-side spill buffers of the stable partitions.
    spill: Vec<u64>,
    spill_rows: Vec<usize>,
    /// Regression target sum and sum of squares of the node being split.
    sum: f64,
    sq: f64,
    /// Scratch reused across the whole build. Perf only: every buffer is
    /// refilled before each use, so fitted trees are bitwise unchanged.
    feats: Vec<usize>,
    cl: Vec<f64>,
    cr: Vec<f64>,
    ct: Vec<f64>,
}

enum Targets<'a> {
    Classes { y: &'a [u32], k: usize },
    Regression { y: &'a [f64] },
}

impl FitCtx<'_> {
    /// Whether a node of `n` rows at `depth` becomes a leaf without a
    /// split search.
    fn stops(&self, depth: usize, n: usize, impurity: f64) -> bool {
        depth >= self.params.max_depth || n < self.params.min_samples_split || impurity < 1e-12
    }

    /// Fill the totals every feature's scan of segment `[start, end)`
    /// starts from: class counts in `ct`, or the target sum and sum of
    /// squares accumulated over the rows in ascending order.
    fn fill_totals(&mut self, start: usize, end: usize) {
        let rows = &self.rows[start..end];
        match self.targets {
            Targets::Classes { y, k } => {
                self.ct.clear();
                self.ct.resize(k, 0.0);
                for &r in rows {
                    self.ct[y[r] as usize] += 1.0;
                }
            }
            Targets::Regression { y } => {
                self.sum = rows.iter().map(|&r| y[r]).sum();
                self.sq = rows.iter().map(|&r| y[r] * y[r]).sum();
            }
        }
    }
}

/// Stable partition of `seg` by `left_of`: the left entries, in order,
/// then the right entries, in order. `keep` says which sides a child will
/// read (`(left, right)`); an unread side is left as garbage, which lets
/// a child that will be a leaf skip its share of the writes. Branchless:
/// every entry is written to both candidate slots.
fn stable_partition<T: Copy + Default>(
    seg: &mut [T],
    left_of: impl Fn(T) -> bool,
    spill: &mut Vec<T>,
    keep: (bool, bool),
) {
    match keep {
        (true, true) => {
            if spill.len() < seg.len() {
                spill.resize(seg.len(), T::default());
            }
            let (mut l, mut r) = (0, 0);
            for i in 0..seg.len() {
                let v = seg[i];
                let left = left_of(v);
                seg[l] = v;
                spill[r] = v;
                l += usize::from(left);
                r += usize::from(!left);
            }
            seg[l..].copy_from_slice(&spill[..r]);
        }
        (true, false) => {
            let mut l = 0;
            for i in 0..seg.len() {
                let v = seg[i];
                seg[l] = v;
                l += usize::from(left_of(v));
            }
        }
        (false, true) => {
            // Compact the right entries towards the end, scanning
            // backwards: the write slot never trails the read slot.
            let mut w = seg.len();
            for i in (0..seg.len()).rev() {
                let v = seg[i];
                seg[w - 1] = v;
                w -= usize::from(!left_of(v));
            }
        }
        (false, false) => {}
    }
}

impl DecisionTree {
    /// Fit a classification tree. `profile` controls how the charged work
    /// parallelises (forests pass an embarrassingly parallel profile).
    pub fn fit_classifier(
        params: &TreeParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
        profile: ParallelProfile,
    ) -> DecisionTree {
        let ranked = Ranked::new(x);
        let rows: Vec<usize> = (0..x.rows()).collect();
        Self::fit_classifier_presorted(
            params,
            x,
            y,
            n_classes,
            &ranked.draw(&rows),
            tracker,
            rng,
            profile,
        )
    }

    /// Fit a regression tree.
    pub fn fit_regressor(
        params: &TreeParams,
        x: &Matrix,
        y: &[f64],
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
        profile: ParallelProfile,
    ) -> DecisionTree {
        let ranked = Ranked::new(x);
        let rows: Vec<usize> = (0..x.rows()).collect();
        Self::fit_regressor_presorted(params, x, y, &ranked.draw(&rows), tracker, rng, profile)
    }

    /// [`DecisionTree::fit_classifier`] on `x`, which must be the rows of
    /// `draw` (`x.take_rows(rows)` of the ranked matrix): the split lists
    /// come from the ranked matrix's table, so the tree sorts nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_classifier_presorted(
        params: &TreeParams,
        x: &Matrix,
        y: &[u32],
        n_classes: usize,
        draw: &Draw<'_>,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
        profile: ParallelProfile,
    ) -> DecisionTree {
        assert_eq!(x.rows(), y.len(), "row/label mismatch");
        Self::fit_inner(
            params,
            x,
            Targets::Classes { y, k: n_classes },
            draw,
            tracker,
            rng,
            profile,
        )
    }

    /// [`DecisionTree::fit_regressor`] on `x`, which must be the rows of
    /// `draw`: the split lists come from the ranked matrix's table (gradient
    /// boosting's per-class trees of a round share one derivation of them
    /// through a [`Ranked::shared_draw`]).
    pub(crate) fn fit_regressor_presorted(
        params: &TreeParams,
        x: &Matrix,
        y: &[f64],
        draw: &Draw<'_>,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
        profile: ParallelProfile,
    ) -> DecisionTree {
        assert_eq!(x.rows(), y.len(), "row/target mismatch");
        Self::fit_inner(
            params,
            x,
            Targets::Regression { y },
            draw,
            tracker,
            rng,
            profile,
        )
    }

    fn fit_inner(
        params: &TreeParams,
        x: &Matrix,
        targets: Targets<'_>,
        draw: &Draw<'_>,
        tracker: &mut CostTracker,
        rng: &mut SplitMix64,
        profile: ParallelProfile,
    ) -> DecisionTree {
        assert_eq!(x.rows(), draw.rows.len(), "draw/matrix rows mismatch");
        assert_eq!(x.cols(), draw.ranked.x.cols(), "draw/matrix cols mismatch");
        assert!(params.max_depth >= 1, "max_depth must be >= 1");
        assert!(
            params.max_features_frac > 0.0 && params.max_features_frac <= 1.0,
            "max_features_frac must lie in (0, 1]"
        );
        let n_outputs = match targets {
            Targets::Classes { k, .. } => k,
            Targets::Regression { .. } => 1,
        };
        let n = x.rows();
        let mut ctx = FitCtx {
            x,
            draw,
            params,
            targets,
            steps: 0.0,
            scalar: 0.0,
            rows: (0..n).collect(),
            lists: Vec::new(),
            goes_left: vec![false; n],
            spill: Vec::new(),
            spill_rows: Vec::new(),
            sum: 0.0,
            sq: 0.0,
            feats: Vec::new(),
            cl: Vec::new(),
            cr: Vec::new(),
            ct: Vec::new(),
        };
        let impurity = Self::impurity(&mut ctx, 0, n);
        if !params.random_thresholds && !ctx.stops(0, n, impurity) {
            ctx.lists = draw.lists();
        }
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            leaf_values: Vec::new(),
            n_outputs,
            max_depth_seen: 0,
            d_in: x.cols(),
        };
        tree.build(&mut ctx, 0, n, 0, impurity, rng);
        tree.nodes.shrink_to_fit();
        tree.leaf_values.shrink_to_fit();
        tracker.charge(
            (OpCounts::tree(ctx.steps) + OpCounts::scalar(ctx.scalar)) * x.scale(),
            profile,
        );
        tree
    }

    /// Push a leaf for segment `[start, end)`. The leaf value is computed
    /// only for nodes that actually terminate; it is a pure value (no
    /// charges, no RNG draws).
    fn push_leaf(&mut self, ctx: &FitCtx<'_>, start: usize, end: usize) {
        let rows = &ctx.rows[start..end];
        let offset = self.leaf_values.len();
        let n = rows.len().max(1) as f64;
        match ctx.targets {
            Targets::Classes { y, k } => {
                self.leaf_values.resize(offset + k, 0.0);
                let counts = &mut self.leaf_values[offset..];
                for &r in rows {
                    counts[y[r] as usize] += 1.0;
                }
                counts.iter_mut().for_each(|c| *c /= n);
            }
            Targets::Regression { y } => {
                self.leaf_values
                    .push(rows.iter().map(|&r| y[r]).sum::<f64>() / n);
            }
        }
        self.nodes.push(Node {
            threshold: 0.0,
            feature: LEAF,
            next: narrow(offset),
        });
    }

    /// Grow the subtree of segment `[start, end)` (whose impurity the
    /// caller computed) in pre-order.
    fn build(
        &mut self,
        ctx: &mut FitCtx<'_>,
        start: usize,
        end: usize,
        depth: usize,
        impurity: f64,
        rng: &mut SplitMix64,
    ) {
        self.max_depth_seen = self.max_depth_seen.max(depth);
        let n = end - start;
        if ctx.stops(depth, n, impurity) {
            return self.push_leaf(ctx, start, end);
        }

        let d = ctx.x.cols();
        let n_feats = ((d as f64 * ctx.params.max_features_frac).ceil() as usize).clamp(1, d);
        // Sample features without replacement (partial Fisher-Yates) in the
        // reused scratch buffer.
        let mut feats = std::mem::take(&mut ctx.feats);
        feats.clear();
        feats.extend(0..d);
        for i in 0..n_feats {
            let j = rng.gen_range(i..d);
            feats.swap(i, j);
        }
        feats.truncate(n_feats);

        if !ctx.params.random_thresholds {
            ctx.fill_totals(start, end);
        }
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
        for &f in &feats {
            let candidate = if ctx.params.random_thresholds {
                Self::random_split(ctx, start, end, f, rng, impurity)
            } else {
                Self::best_split(ctx, start, end, f, impurity)
            };
            if let Some((thr, gain)) = candidate {
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
        }
        #[cfg(test)]
        tests::assert_oracle_pick(ctx, start, end, &feats, impurity, best);
        ctx.feats = feats;

        let Some((feature, threshold, gain)) = best else {
            return self.push_leaf(ctx, start, end);
        };
        if gain <= 1e-12 {
            return self.push_leaf(ctx, start, end);
        }

        let mut nl = 0;
        for &r in &ctx.rows[start..end] {
            let left = ctx.x.get(r, feature) <= threshold;
            ctx.goes_left[r] = left;
            nl += usize::from(left);
        }
        let nr = n - nl;
        ctx.steps += n as f64;
        if nl < ctx.params.min_samples_leaf || nr < ctx.params.min_samples_leaf {
            return self.push_leaf(ctx, start, end);
        }

        // Children see their rows in parent order, and each feature list
        // stays in `(rank, row)` order: exactly the slices the per-node
        // gather-and-sort produced.
        let FitCtx {
            rows,
            goes_left,
            spill_rows,
            ..
        } = &mut *ctx;
        let goes_left = &*goes_left;
        stable_partition(
            &mut rows[start..end],
            |r| goes_left[r],
            spill_rows,
            (true, true),
        );
        let mid = start + nl;
        let imp_l = Self::impurity(ctx, start, mid);
        let imp_r = Self::impurity(ctx, mid, end);
        if !ctx.lists.is_empty() {
            let keep = (
                !ctx.stops(depth + 1, nl, imp_l),
                !ctx.stops(depth + 1, nr, imp_r),
            );
            let stride = ctx.x.rows();
            let FitCtx {
                lists,
                goes_left,
                spill,
                ..
            } = &mut *ctx;
            let goes_left = &*goes_left;
            for f in 0..d {
                stable_partition(
                    &mut lists[f * stride + start..f * stride + end],
                    |e| goes_left[entry_row(e)],
                    spill,
                    keep,
                );
            }
        }

        // Reserve this node's slot; the left child lands right after it.
        let me = self.nodes.len();
        self.nodes.push(Node {
            threshold: 0.0,
            feature: LEAF,
            next: 0,
        });
        self.build(ctx, start, mid, depth + 1, imp_l, rng);
        let right = self.nodes.len();
        self.build(ctx, mid, end, depth + 1, imp_r, rng);
        self.nodes[me] = Node {
            threshold,
            feature: narrow(feature),
            next: narrow(right),
        };
    }

    /// Exhaustive sorted-scan search for the best threshold on feature `f`
    /// over segment `[start, end)`.
    ///
    /// The feature's list segment is already in `(rank, row)` order, so
    /// the scan reads it directly: equal ranks are equal values, and a
    /// threshold is the midpoint of two adjacent ranks' values. The
    /// charges still model a per-node `n log n` sort, a scan step per row
    /// and the per-row target arithmetic. `parent` is the node impurity
    /// and the totals come from [`FitCtx::fill_totals`]; both are pure
    /// values.
    fn best_split(
        ctx: &mut FitCtx<'_>,
        start: usize,
        end: usize,
        f: usize,
        parent: f64,
    ) -> Option<(f64, f64)> {
        let n = end - start;
        let FitCtx {
            x,
            draw,
            targets,
            steps,
            scalar,
            lists,
            sum,
            sq,
            cl,
            cr,
            ct,
            ..
        } = ctx;
        let stride = x.rows();
        let vals = &lists[f * stride + start..f * stride + end];
        let values = draw.values(f);
        let threshold =
            |i: usize| 0.5 * (values[entry_rank(vals[i])] + values[entry_rank(vals[i + 1])]);
        *scalar += n as f64 * (n as f64).log2().max(1.0); // sort
        *steps += n as f64; // scan

        match targets {
            Targets::Classes { y, k } => {
                let (left_counts, right_counts, total_counts) = (cl, cr, &*ct);
                left_counts.clear();
                left_counts.resize(*k, 0.0);
                right_counts.clear();
                right_counts.resize(*k, 0.0);
                let mut best: Option<(f64, f64)> = None;
                for i in 0..n - 1 {
                    left_counts[y[entry_row(vals[i])] as usize] += 1.0;
                    if entry_rank(vals[i]) == entry_rank(vals[i + 1]) {
                        continue;
                    }
                    let nl = (i + 1) as f64;
                    let nr = (n - i - 1) as f64;
                    let gl = gini(left_counts, nl);
                    for (rc, (t, l)) in right_counts
                        .iter_mut()
                        .zip(total_counts.iter().zip(&*left_counts))
                    {
                        *rc = t - l;
                    }
                    let gr = gini(right_counts, nr);
                    let gain = parent - (nl * gl + nr * gr) / n as f64;
                    let thr = threshold(i);
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((thr, gain));
                    }
                }
                *scalar += (n * *k) as f64;
                best
            }
            Targets::Regression { y } => {
                let (total_sum, total_sq) = (*sum, *sq);
                let mut ls = 0.0;
                let mut lq = 0.0;
                let mut best: Option<(f64, f64)> = None;
                for i in 0..n - 1 {
                    let v = y[entry_row(vals[i])];
                    ls += v;
                    lq += v * v;
                    if entry_rank(vals[i]) == entry_rank(vals[i + 1]) {
                        continue;
                    }
                    let nl = (i + 1) as f64;
                    let nr = (n - i - 1) as f64;
                    let var_l = (lq - ls * ls / nl).max(0.0);
                    let rs = total_sum - ls;
                    let rq = total_sq - lq;
                    let var_r = (rq - rs * rs / nr).max(0.0);
                    let gain = parent - (var_l + var_r) / n as f64;
                    let thr = threshold(i);
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((thr, gain));
                    }
                }
                *scalar += 4.0 * n as f64;
                best
            }
        }
    }

    /// Extra-trees split: one uniformly random threshold in the value range
    /// of feature `f` over segment `[start, end)`.
    ///
    /// `parent` is the node impurity computed by the caller. The sides are
    /// filtered passes over the rows in order, so every accumulated sum
    /// sees its rows in ascending order.
    fn random_split(
        ctx: &mut FitCtx<'_>,
        start: usize,
        end: usize,
        f: usize,
        rng: &mut SplitMix64,
        parent: f64,
    ) -> Option<(f64, f64)> {
        let FitCtx {
            x,
            targets,
            steps,
            rows,
            cl,
            cr,
            ..
        } = ctx;
        let rows = &rows[start..end];
        let n = rows.len();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &r in rows {
            let v = x.get(r, f);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        *steps += n as f64;
        if hi <= lo {
            return None;
        }
        let thr = rng.gen_range(lo..hi);
        *steps += n as f64;
        let goes_left = |r: usize| x.get(r, f) <= thr;
        let (nl, nr, weighted_child) = match targets {
            Targets::Classes { y, k } => {
                let (left, right) = (cl, cr);
                left.clear();
                left.resize(*k, 0.0);
                right.clear();
                right.resize(*k, 0.0);
                let (mut nl, mut nr) = (0usize, 0usize);
                for &r in rows {
                    if goes_left(r) {
                        left[y[r] as usize] += 1.0;
                        nl += 1;
                    } else {
                        right[y[r] as usize] += 1.0;
                        nr += 1;
                    }
                }
                let child = nl as f64 * gini(left, nl as f64) + nr as f64 * gini(right, nr as f64);
                (nl, nr, child)
            }
            Targets::Regression { y } => {
                let side_sse = |want_left: bool| {
                    let side = rows.iter().copied().filter(|&r| goes_left(r) == want_left);
                    let cnt = side.clone().count();
                    if cnt == 0 {
                        return (0usize, 0.0);
                    }
                    let mean = side.clone().map(|r| y[r]).sum::<f64>() / cnt as f64;
                    let sse = side.map(|r| (y[r] - mean).powi(2)).sum::<f64>() / cnt as f64;
                    (cnt, sse)
                };
                let (nl, sse_l) = side_sse(true);
                let (nr, sse_r) = side_sse(false);
                (nl, nr, nl as f64 * sse_l + nr as f64 * sse_r)
            }
        };
        if nl == 0 || nr == 0 {
            return None;
        }
        Some((thr, parent - weighted_child / n as f64))
    }

    /// Gini impurity or target variance of segment `[start, end)`.
    fn impurity(ctx: &mut FitCtx<'_>, start: usize, end: usize) -> f64 {
        let FitCtx {
            targets, rows, ct, ..
        } = ctx;
        let rows = &rows[start..end];
        match targets {
            Targets::Classes { y, k } => {
                let counts = ct;
                counts.clear();
                counts.resize(*k, 0.0);
                for &r in rows {
                    counts[y[r] as usize] += 1.0;
                }
                gini(counts, rows.len() as f64)
            }
            Targets::Regression { y } => {
                let n = rows.len() as f64;
                let mean: f64 = rows.iter().map(|&r| y[r]).sum::<f64>() / n;
                rows.iter().map(|&r| (y[r] - mean).powi(2)).sum::<f64>() / n
            }
        }
    }

    /// The leaf `row` lands in (offset of its values) and the path length.
    #[inline]
    fn leaf_of(&self, row: &[f64]) -> (usize, usize) {
        let mut i = 0usize;
        let mut depth = 0usize;
        loop {
            let node = self.nodes[i];
            if node.feature == LEAF {
                return (node.next as usize, depth);
            }
            depth += 1;
            i = if row[node.feature as usize] <= node.threshold {
                i + 1
            } else {
                node.next as usize
            };
        }
    }

    /// Route every row of `x` to its leaf, call `visit(row, leaf values)`,
    /// and record the visit's traversal steps in `walk`.
    pub(crate) fn visit_leaves(
        &self,
        x: &Matrix,
        walk: &mut Traversals,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        walk.record(x.rows(), |r| {
            let (offset, depth) = self.leaf_of(x.row(r));
            visit(r, &self.leaf_values[offset..offset + self.n_outputs]);
            depth.max(1)
        });
    }

    /// The charge of one tree visit whose rows took `steps` traversal
    /// steps in all, at the cache-hostile traversal rate.
    pub(crate) fn charge_visit(steps: u64, row_scale: f64, tracker: &mut CostTracker) {
        tracker.charge(
            OpCounts::tree(steps as f64 * TRAVERSAL_PENALTY * row_scale),
            ParallelProfile::batch_inference(),
        );
    }

    /// [`DecisionTree::visit_leaves`], then the visit's charge.
    pub(crate) fn visit_and_charge(
        &self,
        x: &Matrix,
        tracker: &mut CostTracker,
        visit: impl FnMut(usize, &[f64]),
    ) {
        answer_then_charge(
            |walk| self.visit_leaves(x, walk, visit),
            |steps| Self::charge_visit(steps.next_visit(), x.row_scale, tracker),
        );
    }

    /// Regression predictions (one value per row).
    pub fn predict_value(&self, x: &Matrix, tracker: &mut CostTracker) -> Vec<f64> {
        let mut out = Vec::with_capacity(x.rows());
        self.visit_and_charge(x, tracker, |_, value| out.push(value[0]));
        out
    }

    /// Per-row inference cost: one traversal of the (deepest) path, at the
    /// cache-hostile traversal rate.
    pub fn inference_ops_per_row(&self) -> OpCounts {
        OpCounts::tree(self.max_depth_seen.max(1) as f64 * TRAVERSAL_PENALTY)
    }

    /// Node count (size proxy).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Deepest path length observed during fitting.
    pub fn depth(&self) -> usize {
        self.max_depth_seen
    }

    /// Input width the tree was trained on.
    pub fn d_in(&self) -> usize {
        self.d_in
    }
}

/// Class-probability predictions (classification trees): one visit.
impl Predict for DecisionTree {
    fn answer(&self, x: &Matrix, walk: &mut Traversals) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.n_outputs);
        self.visit_leaves(x, walk, |r, value| {
            out.row_mut(r).copy_from_slice(value);
        });
        out
    }

    fn charge(&self, shape: Shape, steps: &mut Steps<'_>, tracker: &mut CostTracker) {
        Self::charge_visit(steps.next_visit(), shape.row_scale, tracker);
    }
}

fn gini(counts: &[f64], n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    1.0 - counts.iter().map(|c| (c / n).powi(2)).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::testutil::{assert_learns, tracker};
    use crate::models::ModelSpec;

    /// The per-node gather-and-sort split search the presorted lists
    /// replaced, kept as the reference the fast path must match bit for
    /// bit (as `kernel::matmul_naive` is kept for the blocked matmul). It
    /// recomputes its totals per feature and charges nothing.
    fn best_split_reference(
        x: &Matrix,
        targets: &Targets<'_>,
        rows: &[usize],
        f: usize,
        parent: f64,
    ) -> Option<(f64, f64)> {
        let n = rows.len();
        let mut vals: Vec<u128> = rows.iter().map(|&r| pack(x.get(r, f), r)).collect();
        vals.sort_unstable();
        let mut best: Option<(f64, f64)> = None;
        match targets {
            Targets::Classes { y, k } => {
                let mut total_counts = vec![0.0; *k];
                for &r in rows {
                    total_counts[y[r] as usize] += 1.0;
                }
                let mut left_counts = vec![0.0; *k];
                let mut right_counts = vec![0.0; *k];
                for i in 0..n - 1 {
                    left_counts[y[unpack_row(vals[i])] as usize] += 1.0;
                    if vals[i] >> 64 == vals[i + 1] >> 64 {
                        continue;
                    }
                    let nl = (i + 1) as f64;
                    let nr = (n - i - 1) as f64;
                    let gl = gini(&left_counts, nl);
                    for c in 0..*k {
                        right_counts[c] = total_counts[c] - left_counts[c];
                    }
                    let gr = gini(&right_counts, nr);
                    let gain = parent - (nl * gl + nr * gr) / n as f64;
                    let thr = 0.5 * (unpack_value(vals[i]) + unpack_value(vals[i + 1]));
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((thr, gain));
                    }
                }
            }
            Targets::Regression { y } => {
                let total_sum: f64 = rows.iter().map(|&r| y[r]).sum();
                let total_sq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
                let (mut ls, mut lq) = (0.0, 0.0);
                for i in 0..n - 1 {
                    let v = y[unpack_row(vals[i])];
                    ls += v;
                    lq += v * v;
                    if vals[i] >> 64 == vals[i + 1] >> 64 {
                        continue;
                    }
                    let nl = (i + 1) as f64;
                    let nr = (n - i - 1) as f64;
                    let var_l = (lq - ls * ls / nl).max(0.0);
                    let rs = total_sum - ls;
                    let rq = total_sq - lq;
                    let var_r = (rq - rs * rs / nr).max(0.0);
                    let gain = parent - (var_l + var_r) / n as f64;
                    let thr = 0.5 * (unpack_value(vals[i]) + unpack_value(vals[i + 1]));
                    if best.is_none_or(|(_, g)| gain > g) {
                        best = Some((thr, gain));
                    }
                }
            }
        }
        best
    }

    thread_local! {
        /// Nodes whose presorted pick was checked against the reference.
        static ORACLE_NODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Called by every sorted-scan split search in test builds: the
    /// reference must pick the same `(feature, threshold bits, gain bits)`
    /// over the node's sampled features.
    pub(super) fn assert_oracle_pick(
        ctx: &FitCtx<'_>,
        start: usize,
        end: usize,
        feats: &[usize],
        parent: f64,
        pick: Option<(usize, f64, f64)>,
    ) {
        if ctx.params.random_thresholds {
            return;
        }
        let rows = &ctx.rows[start..end];
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in feats {
            if let Some((thr, gain)) = best_split_reference(ctx.x, &ctx.targets, rows, f, parent) {
                if best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, thr, gain));
                }
            }
        }
        let bits = |p: Option<(usize, f64, f64)>| p.map(|(f, t, g)| (f, t.to_bits(), g.to_bits()));
        assert_eq!(
            bits(pick),
            bits(best),
            "presorted pick differs on rows {rows:?}"
        );
        ORACLE_NODES.with(|c| c.set(c.get() + 1));
    }

    /// A value drawn from a small pool full of ties and signed zeros.
    fn tied_value(rng: &mut SplitMix64) -> f64 {
        const POOL: [f64; 8] = [-0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 2.0, 1e-300];
        if rng.gen_bool(0.7) {
            POOL[rng.gen_range(0..POOL.len())]
        } else {
            (rng.next_f64() * 6.0).floor() - 3.0
        }
    }

    /// Rows drawn from an `n`-row matrix the three ways the fits draw
    /// them: every row once (single trees, forests without bootstrap,
    /// boosting at `subsample` 1.0), `n` draws with replacement (a
    /// forest's bootstrap), or fewer than `n` draws with replacement (a
    /// boosting round's subsample).
    fn draw_rows(way: usize, n: usize, gen: &mut SplitMix64) -> Vec<usize> {
        let draws = match way {
            0 => return (0..n).collect(),
            1 => n,
            _ => gen.gen_range(1..n.max(2)),
        };
        (0..draws).map(|_| gen.gen_range(0..n)).collect()
    }

    #[test]
    fn derived_lists_match_the_sorted_keys_of_every_draw() {
        let mut gen = SplitMix64::seed_from_u64(0xd3a5);
        for case in 0..240 {
            let n = gen.gen_range(2..120usize);
            let d = gen.gen_range(1..6usize);
            // `d` tie-heavy columns with signed zeros, then a constant one.
            let mut data = Vec::with_capacity(n * (d + 1));
            for _ in 0..n {
                data.extend((0..d).map(|_| tied_value(&mut gen)));
                data.push(-0.0);
            }
            let x = Matrix::from_vec(data, n, d + 1);
            let rows = draw_rows(case % 3, n, &mut gen);
            let table = RankTable::new(&x);
            let lists = table.derive(&rows);
            let m = rows.len();
            assert_eq!(lists.len(), m * x.cols(), "case {case}");
            let xs = x.take_rows(&rows);
            for f in 0..x.cols() {
                let values = table.values(f);
                // Equal ranks are equal keys, and only equal keys.
                assert!(
                    values.windows(2).all(|w| pack(w[0], 0) < pack(w[1], 0)),
                    "case {case}, feature {f}: values not strictly ascending"
                );
                let mut keys: Vec<u128> = (0..m).map(|r| pack(xs.get(r, f), r)).collect();
                keys.sort_unstable();
                let want: Vec<(u64, usize)> = keys
                    .iter()
                    .map(|&k| (unpack_value(k).to_bits(), unpack_row(k)))
                    .collect();
                let got: Vec<(u64, usize)> = lists[f * m..(f + 1) * m]
                    .iter()
                    .map(|&e| (values[entry_rank(e)].to_bits(), entry_row(e)))
                    .collect();
                assert_eq!(got, want, "case {case}, feature {f}, rows {rows:?}");
            }
        }
    }

    #[test]
    fn presorted_split_search_matches_the_gather_and_sort_reference() {
        let before = ORACLE_NODES.with(|c| c.get());
        let mut gen = SplitMix64::seed_from_u64(0x5eed);
        for case in 0..120 {
            let n = gen.gen_range(2..160usize);
            let d = gen.gen_range(1..7usize);
            let data: Vec<f64> = (0..n * d).map(|_| tied_value(&mut gen)).collect();
            let parent = Matrix::from_vec(data, n, d);
            // Half the cases fit every row of `parent`, the other half a
            // bootstrap or subsample draw from it, with lists derived from
            // the parent's table as forests and boosting derive them.
            let way = if case % 4 < 2 { 0 } else { 1 + (case / 4) % 2 };
            let rows = draw_rows(way, n, &mut gen);
            let x = parent.take_rows(&rows);
            let ranked = Ranked::new(&parent);
            let params = TreeParams {
                max_depth: gen.gen_range(1..9usize),
                min_samples_split: gen.gen_range(2..6usize),
                min_samples_leaf: gen.gen_range(1..3usize),
                max_features_frac: [0.35, 0.8, 1.0][case % 3],
                random_thresholds: false,
            };
            let mut rng = SplitMix64::seed_from_u64(case as u64);
            let profile = ParallelProfile::model_training();
            if case % 2 == 1 {
                let k = gen.gen_range(2..5usize);
                let labels: Vec<u32> = (0..n).map(|_| gen.gen_range(0..k) as u32).collect();
                let y: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
                let _ = DecisionTree::fit_classifier_presorted(
                    &params,
                    &x,
                    &y,
                    k,
                    &ranked.draw(&rows),
                    &mut tracker(),
                    &mut rng,
                    profile,
                );
            } else {
                // Two regression targets through one shared draw, as
                // gradient boosting fits its per-class trees. Half the
                // targets are continuous, so the order of a tie group's
                // running sums moves bits.
                let draw = ranked.shared_draw(&rows);
                for _ in 0..2 {
                    let target: Vec<f64> = (0..n)
                        .map(|_| {
                            if gen.gen_bool(0.5) {
                                tied_value(&mut gen)
                            } else {
                                gen.next_f64()
                            }
                        })
                        .collect();
                    let y: Vec<f64> = rows.iter().map(|&r| target[r]).collect();
                    let _ = DecisionTree::fit_regressor_presorted(
                        &params,
                        &x,
                        &y,
                        &draw,
                        &mut tracker(),
                        &mut rng,
                        profile,
                    );
                }
            }
        }
        let checked = ORACLE_NODES.with(|c| c.get()) - before;
        assert!(checked > 500, "only {checked} nodes were checked");
    }

    #[test]
    fn stable_partition_keeps_order_on_every_kept_side() {
        let v: Vec<usize> = (0..40).collect();
        let left = |i: usize| i % 3 == 1;
        let want_l: Vec<usize> = v.iter().copied().filter(|&i| left(i)).collect();
        let want_r: Vec<usize> = v.iter().copied().filter(|&i| !left(i)).collect();
        let nl = want_l.len();
        for keep in [(true, true), (true, false), (false, true)] {
            let mut seg = v.clone();
            stable_partition(&mut seg, left, &mut Vec::new(), keep);
            if keep.0 {
                assert_eq!(seg[..nl], want_l[..], "{keep:?}");
            }
            if keep.1 {
                assert_eq!(seg[nl..], want_r[..], "{keep:?}");
            }
        }
    }

    #[test]
    fn learns_separable_binary_task() {
        assert_learns(&ModelSpec::DecisionTree(TreeParams::default()), 2, 0.8);
    }

    #[test]
    fn learns_multiclass_task() {
        assert_learns(&ModelSpec::DecisionTree(TreeParams::default()), 4, 0.6);
    }

    #[test]
    fn depth_limit_is_respected() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let mut rng = SplitMix64::seed_from_u64(0);
        let params = TreeParams {
            max_depth: 2,
            ..Default::default()
        };
        let t = DecisionTree::fit_classifier(
            &params,
            &x,
            &y,
            2,
            &mut tracker(),
            &mut rng,
            ParallelProfile::model_training(),
        );
        assert!(t.depth() <= 2);
        assert!(t.n_nodes() <= 7);
    }

    #[test]
    fn stump_on_xor_like_data_fails_but_deeper_tree_succeeds() {
        // XOR needs depth >= 2: a stump cannot separate it.
        let mut data = Vec::new();
        let mut y = Vec::new();
        for i in 0..200 {
            let a = (i % 2) as f64;
            let b = ((i / 2) % 2) as f64;
            data.extend([a + 0.01 * (i as f64 % 7.0), b]);
            y.push((a as u32) ^ (b as u32));
        }
        let x = Matrix::from_vec(data, 200, 2);
        let mut rng = SplitMix64::seed_from_u64(1);
        let stump = DecisionTree::fit_classifier(
            &TreeParams {
                max_depth: 1,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut tracker(),
            &mut rng,
            ParallelProfile::model_training(),
        );
        let deep = DecisionTree::fit_classifier(
            &TreeParams {
                max_depth: 4,
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            },
            &x,
            &y,
            2,
            &mut tracker(),
            &mut rng,
            ParallelProfile::model_training(),
        );
        let mut t = tracker();
        let acc_stump = crate::metrics::accuracy(
            &y,
            &crate::models::argmax_rows(&stump.predict_proba(&x, &mut t)),
        );
        let acc_deep = crate::metrics::accuracy(
            &y,
            &crate::models::argmax_rows(&deep.predict_proba(&x, &mut t)),
        );
        assert!(acc_stump < 0.8, "stump should fail XOR, got {acc_stump}");
        assert!(
            acc_deep > 0.95,
            "deep tree should solve XOR, got {acc_deep}"
        );
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let n = 100;
        let x = Matrix::from_vec((0..n).map(|i| i as f64).collect(), n, 1);
        let y: Vec<f64> = (0..n).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let mut rng = SplitMix64::seed_from_u64(0);
        let t = DecisionTree::fit_regressor(
            &TreeParams::default(),
            &x,
            &y,
            &mut tracker(),
            &mut rng,
            ParallelProfile::model_training(),
        );
        let mut tr = tracker();
        let pred = t.predict_value(&x, &mut tr);
        assert!((pred[10] - 1.0).abs() < 0.2);
        assert!((pred[90] - 5.0).abs() < 0.2);
    }

    #[test]
    fn pure_nodes_become_leaves() {
        let x = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 4, 1);
        let y = vec![0, 0, 0, 0];
        let mut rng = SplitMix64::seed_from_u64(0);
        let t = DecisionTree::fit_classifier(
            &TreeParams::default(),
            &x,
            &y,
            2,
            &mut tracker(),
            &mut rng,
            ParallelProfile::model_training(),
        );
        assert_eq!(t.n_nodes(), 1);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn training_cost_scales_with_charging_factor() {
        let ((mut x, y), _) = crate::models::testutil::separable_task(2);
        let mut rng = SplitMix64::seed_from_u64(0);
        let mut t1 = tracker();
        let _ = DecisionTree::fit_classifier(
            &TreeParams::default(),
            &x,
            &y,
            2,
            &mut t1,
            &mut rng,
            ParallelProfile::model_training(),
        );
        x.row_scale = 100.0;
        let mut t2 = tracker();
        let mut rng = SplitMix64::seed_from_u64(0);
        let _ = DecisionTree::fit_classifier(
            &TreeParams::default(),
            &x,
            &y,
            2,
            &mut t2,
            &mut rng,
            ParallelProfile::model_training(),
        );
        assert!(
            t2.now() > t1.now() * 50.0,
            "scaled fit must cost ~100x the time"
        );
    }

    #[test]
    fn extra_trees_mode_is_cheaper_to_fit() {
        let ((x, y), _) = crate::models::testutil::separable_task(2);
        let fit = |random: bool| {
            let mut rng = SplitMix64::seed_from_u64(0);
            let mut t = tracker();
            let _ = DecisionTree::fit_classifier(
                &TreeParams {
                    random_thresholds: random,
                    ..Default::default()
                },
                &x,
                &y,
                2,
                &mut t,
                &mut rng,
                ParallelProfile::model_training(),
            );
            t.now()
        };
        assert!(
            fit(true) < fit(false),
            "random thresholds should be cheaper"
        );
    }
}
