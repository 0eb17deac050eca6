//! A small row-major dense matrix plus the dataset encoder.
//!
//! The encoder turns a column-oriented [`Dataset`] into the numeric feature
//! matrix models consume: numeric columns pass through (missing stays `NaN`
//! for a downstream imputer), categorical columns one-hot encode (missing
//! encodes as all-zeros). The matrix carries the dataset's logical-size
//! charging factor so models can scale the operations they report.

use green_automl_dataset::{ColumnData, Dataset};
use green_automl_energy::{CostTracker, OpCounts, ParallelProfile};

/// What a predict-path charge reads of the matrix it runs on: everything
/// but the values. A predict's charges are a function of its model and
/// this shape alone (plus the tree traversal totals its answer pass
/// records), so a batch can be priced without its values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-axis logical-size charging factor.
    pub row_scale: f64,
    /// Feature-axis logical-size charging factor.
    pub feat_scale: f64,
}

impl Shape {
    /// Combined logical-size charging factor (as [`Matrix::scale`]).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.row_scale * self.feat_scale
    }

    /// The same shape with `rows` rows.
    #[must_use]
    pub fn with_rows(self, rows: usize) -> Shape {
        Shape { rows, ..self }
    }

    /// The same shape with `cols` columns.
    #[must_use]
    pub fn with_cols(self, cols: usize) -> Shape {
        Shape { cols, ..self }
    }
}

/// Row-major dense `f64` matrix with a logical-size charging factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    /// Row-axis logical-size charging factor inherited from the dataset.
    pub row_scale: f64,
    /// Feature-axis logical-size charging factor inherited from the dataset.
    pub feat_scale: f64,
}

impl Matrix {
    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Matrix {
            data,
            rows,
            cols,
            row_scale: 1.0,
            feat_scale: 1.0,
        }
    }

    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
            row_scale: 1.0,
            feat_scale: 1.0,
        }
    }

    /// Combined logical-size charging factor.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.row_scale * self.feat_scale
    }

    /// The matrix's [`Shape`].
    #[inline]
    pub fn shape(&self) -> Shape {
        Shape {
            rows: self.rows,
            cols: self.cols,
            row_scale: self.row_scale,
            feat_scale: self.feat_scale,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Select rows into a new matrix (rows may repeat).
    #[must_use]
    pub fn take_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            data,
            rows: rows.len(),
            cols: self.cols,
            row_scale: self.row_scale,
            feat_scale: self.feat_scale,
        }
    }

    /// Keep only the given columns, in the given order.
    #[must_use]
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * cols.len());
        for r in 0..self.rows {
            let row = self.row(r);
            data.extend(cols.iter().map(|&c| row[c]));
        }
        Matrix {
            data,
            rows: self.rows,
            cols: cols.len(),
            row_scale: self.row_scale,
            feat_scale: self.feat_scale,
        }
    }

    /// Raw buffer access (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer access (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, yielding its row-major buffer (used by the
    /// kernel scratch arena to recycle matrix storage).
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// Width of the encoded matrix for a dataset (numeric columns + one-hot
/// expansion of categorical columns, cardinality capped at
/// [`MAX_ONE_HOT`] to bound blow-up, as real AutoML encoders do).
pub fn encoded_width(ds: &Dataset) -> usize {
    ds.columns
        .iter()
        .map(|c| match &c.data {
            ColumnData::Numeric(_) => 1,
            ColumnData::Categorical { cardinality, .. } => (*cardinality as usize).min(MAX_ONE_HOT),
        })
        .sum()
}

/// Cardinality cap for one-hot expansion; rarer categories share the last
/// indicator column.
pub const MAX_ONE_HOT: usize = 16;

/// Encode a dataset into its numeric feature matrix, charging the memory
/// traffic of the materialisation at nominal scale.
pub fn encode(ds: &Dataset, tracker: &mut CostTracker) -> Matrix {
    let m = encode_values(ds, Matrix::zeros(ds.n_rows(), encoded_width(ds)));
    charge_encode(m.shape(), tracker);
    m
}

/// The [`Shape`] of `encode(ds)`.
pub fn encoded_shape(ds: &Dataset) -> Shape {
    Shape {
        rows: ds.n_rows(),
        cols: encoded_width(ds),
        row_scale: ds.row_scale,
        feat_scale: ds.feat_scale,
    }
}

/// [`encode`]'s values, charging nothing, written into `m`: a zero-filled
/// matrix of `ds`'s rows and encoded width (fresh, or a pooled one from
/// [`crate::kernel::take_matrix`]), which takes `ds`'s scales.
///
/// # Panics
/// Panics if `m` has another row count or width.
pub fn encode_values(ds: &Dataset, mut m: Matrix) -> Matrix {
    assert_eq!(
        (m.rows(), m.cols()),
        (ds.n_rows(), encoded_width(ds)),
        "encode target shape mismatch"
    );
    m.row_scale = ds.row_scale;
    m.feat_scale = ds.feat_scale;

    let mut base = 0usize;
    for col in &ds.columns {
        match &col.data {
            ColumnData::Numeric(values) => {
                for (r, &v) in values.iter().enumerate() {
                    m.set(r, base, v);
                }
                base += 1;
            }
            ColumnData::Categorical { codes, cardinality } => {
                let w = (*cardinality as usize).min(MAX_ONE_HOT);
                for (r, &code) in codes.iter().enumerate() {
                    if code != green_automl_dataset::CAT_MISSING {
                        let slot = (code as usize).min(w - 1);
                        m.set(r, base + slot, 1.0);
                    }
                }
                base += w;
            }
        }
    }
    m
}

/// [`encode`]'s charge for a matrix of `shape`: the memory traffic of
/// reading the nominal-size table and writing the encoded matrix.
pub fn charge_encode(shape: Shape, tracker: &mut CostTracker) {
    let bytes = (shape.rows * shape.cols) as f64 * 8.0 * shape.scale();
    tracker.charge(OpCounts::mem(bytes), ParallelProfile::batch_inference());
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::{Column, TaskSpec};
    use green_automl_energy::Device;

    fn tracker() -> CostTracker {
        CostTracker::new(Device::xeon_gold_6132(), 1)
    }

    #[test]
    fn basic_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.col(2), vec![0.0, 5.0]);
    }

    #[test]
    fn take_and_select() {
        let m = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let t = m.take_rows(&[1, 1, 0]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[4.0, 5.0, 6.0]);
        let s = m.select_cols(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_buffer_panics() {
        let _ = Matrix::from_vec(vec![1.0], 2, 3);
    }

    #[test]
    fn encode_one_hots_categoricals() {
        let ds = green_automl_dataset::Dataset::new(
            "t",
            vec![
                Column::numeric("x", vec![1.5, f64::NAN]),
                Column::categorical("c", vec![2, green_automl_dataset::CAT_MISSING], 3),
            ],
            vec![0, 1],
            2,
        );
        let mut tr = tracker();
        let m = encode(&ds, &mut tr);
        assert_eq!(m.cols(), 4); // 1 numeric + 3 one-hot
        assert_eq!(m.row(0), &[1.5, 0.0, 0.0, 1.0]);
        // Missing numeric stays NaN (for the imputer); missing categorical
        // encodes as all-zeros.
        assert!(m.get(1, 0).is_nan());
        assert_eq!(&m.row(1)[1..], &[0.0, 0.0, 0.0]);
        assert!(tr.measurement().energy.total_joules() > 0.0);
    }

    #[test]
    fn high_cardinality_is_capped() {
        let codes: Vec<u32> = (0..100u32).collect();
        let ds = green_automl_dataset::Dataset::new(
            "t",
            vec![Column::categorical("c", codes, 100)],
            vec![0; 50].into_iter().chain(vec![1; 50]).collect(),
            2,
        );
        let m = encode(&ds, &mut tracker());
        assert_eq!(m.cols(), MAX_ONE_HOT);
        // Code 99 lands in the shared last slot.
        assert_eq!(m.get(99, MAX_ONE_HOT - 1), 1.0);
    }

    #[test]
    fn encode_charges_at_nominal_scale() {
        let ds = TaskSpec::new("t", 100, 4, 2).generate();
        let scaled = ds.clone().with_scales(10.0, 1.0);
        let mut t1 = tracker();
        let mut t2 = tracker();
        let _ = encode(&ds, &mut t1);
        let _ = encode(&scaled, &mut t2);
        let e1 = t1.measurement().energy.total_joules();
        let e2 = t2.measurement().energy.total_joules();
        assert!(
            e2 > e1 * 5.0,
            "scaled encode should cost ~10x: {e1} vs {e2}"
        );
    }

    #[test]
    fn encoded_width_matches_encode() {
        let mut spec = TaskSpec::new("t", 60, 10, 3);
        spec.categorical_frac = 0.5;
        let ds = spec.generate();
        let m = encode(&ds, &mut tracker());
        assert_eq!(m.cols(), encoded_width(&ds));
        assert_eq!(m.rows(), 60);
    }
}
