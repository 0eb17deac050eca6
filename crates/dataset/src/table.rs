//! Column-oriented tabular datasets with numeric and categorical features.

/// Sentinel for a missing categorical value.
pub const CAT_MISSING: u32 = u32::MAX;

/// The values of one feature column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Continuous values; missing entries are `NaN`.
    Numeric(Vec<f64>),
    /// Category codes in `0..cardinality`; missing entries are
    /// [`CAT_MISSING`].
    Categorical {
        /// Per-row category codes.
        codes: Vec<u32>,
        /// Number of distinct categories (excluding missing).
        cardinality: u32,
    },
}

impl ColumnData {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Numeric(v) => v.len(),
            ColumnData::Categorical { codes, .. } => codes.len(),
        }
    }

    /// `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if the row at `i` is missing.
    pub fn is_missing(&self, i: usize) -> bool {
        match self {
            ColumnData::Numeric(v) => v[i].is_nan(),
            ColumnData::Categorical { codes, .. } => codes[i] == CAT_MISSING,
        }
    }

    /// Select the given rows into a new column (rows may repeat).
    #[must_use]
    pub fn take(&self, rows: &[usize]) -> ColumnData {
        match self {
            ColumnData::Numeric(v) => ColumnData::Numeric(rows.iter().map(|&r| v[r]).collect()),
            ColumnData::Categorical { codes, cardinality } => ColumnData::Categorical {
                codes: rows.iter().map(|&r| codes[r]).collect(),
                cardinality: *cardinality,
            },
        }
    }
}

/// A named feature column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Feature name.
    pub name: String,
    /// Stored values.
    pub data: ColumnData,
}

impl Column {
    /// A numeric column.
    pub fn numeric(name: impl Into<String>, values: Vec<f64>) -> Column {
        Column {
            name: name.into(),
            data: ColumnData::Numeric(values),
        }
    }

    /// A categorical column.
    pub fn categorical(name: impl Into<String>, codes: Vec<u32>, cardinality: u32) -> Column {
        Column {
            name: name.into(),
            data: ColumnData::Categorical { codes, cardinality },
        }
    }

    /// `true` if the column is categorical.
    pub fn is_categorical(&self) -> bool {
        matches!(self.data, ColumnData::Categorical { .. })
    }
}

/// A labelled tabular classification dataset.
///
/// Storage is column-oriented. Labels are class codes in `0..n_classes`.
/// `row_scale` and `feat_scale` are the logical-size charging factors
/// (nominal size ÷ materialised size along each axis); both are `1.0` for
/// datasets materialised at full size. The ML substrate multiplies charged
/// operations by [`Dataset::scale`], their product.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Dataset name (matches the paper's Table 2 where applicable).
    pub name: String,
    /// Feature columns, all of equal length.
    pub columns: Vec<Column>,
    /// Class labels, one per row.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub n_classes: usize,
    /// Nominal rows ÷ materialised rows (≥ 1).
    pub row_scale: f64,
    /// Nominal features ÷ materialised features (≥ 1).
    pub feat_scale: f64,
}

impl Dataset {
    /// Build a dataset, validating shape invariants.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths, labels mismatch the row
    /// count, a label is out of range, or `scale < 1`.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<Column>,
        labels: Vec<u32>,
        n_classes: usize,
    ) -> Dataset {
        let ds = Dataset {
            name: name.into(),
            columns,
            labels,
            n_classes,
            row_scale: 1.0,
            feat_scale: 1.0,
        };
        ds.validate();
        ds
    }

    /// Set the logical-size charging factors.
    ///
    /// # Panics
    /// Panics if either factor is `< 1` or not finite.
    #[must_use]
    pub fn with_scales(mut self, row_scale: f64, feat_scale: f64) -> Dataset {
        assert!(
            row_scale.is_finite() && row_scale >= 1.0,
            "row_scale must be >= 1"
        );
        assert!(
            feat_scale.is_finite() && feat_scale >= 1.0,
            "feat_scale must be >= 1"
        );
        self.row_scale = row_scale;
        self.feat_scale = feat_scale;
        self
    }

    /// Combined logical-size charging factor (`row_scale * feat_scale`).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.row_scale * self.feat_scale
    }

    /// Nominal row count implied by the charging factor.
    #[inline]
    pub fn nominal_rows(&self) -> f64 {
        self.n_rows() as f64 * self.row_scale
    }

    /// Nominal feature count implied by the charging factor.
    #[inline]
    pub fn nominal_features(&self) -> f64 {
        self.n_features() as f64 * self.feat_scale
    }

    fn validate(&self) {
        let n = self.labels.len();
        for c in &self.columns {
            assert_eq!(
                c.data.len(),
                n,
                "column '{}' has {} rows, labels have {}",
                c.name,
                c.data.len(),
                n
            );
        }
        assert!(self.n_classes >= 2, "need at least two classes");
        assert!(
            self.labels.iter().all(|&l| (l as usize) < self.n_classes),
            "label out of range"
        );
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// Number of categorical feature columns.
    pub fn n_categorical(&self) -> usize {
        self.columns.iter().filter(|c| c.is_categorical()).count()
    }

    /// Per-class instance counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }

    /// Select the given rows into a new dataset (rows may repeat — this is
    /// also the bootstrap-sampling primitive used by bagging).
    #[must_use]
    pub fn take_rows(&self, rows: &[usize]) -> Dataset {
        Dataset {
            name: self.name.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    name: c.name.clone(),
                    data: c.data.take(rows),
                })
                .collect(),
            labels: rows.iter().map(|&r| self.labels[r]).collect(),
            n_classes: self.n_classes,
            row_scale: self.row_scale,
            feat_scale: self.feat_scale,
        }
    }

    /// The first `n` rows (used by incremental-training fidelity schedules).
    #[must_use]
    pub fn head(&self, n: usize) -> Dataset {
        let n = n.min(self.n_rows());
        let rows: Vec<usize> = (0..n).collect();
        self.take_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec![
                Column::numeric("x", vec![1.0, 2.0, f64::NAN, 4.0]),
                Column::categorical("c", vec![0, 1, CAT_MISSING, 0], 2),
            ],
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn shape_accessors() {
        let d = toy();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_categorical(), 1);
        assert_eq!(d.class_counts(), vec![2, 2]);
        assert_eq!(d.scale(), 1.0);
    }

    #[test]
    fn missingness_detection() {
        let d = toy();
        assert!(!d.columns[0].data.is_missing(0));
        assert!(d.columns[0].data.is_missing(2));
        assert!(d.columns[1].data.is_missing(2));
    }

    #[test]
    fn take_rows_repeats_and_reorders() {
        let d = toy();
        let s = d.take_rows(&[3, 3, 0]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.labels, vec![1, 1, 0]);
        match &s.columns[0].data {
            ColumnData::Numeric(v) => assert_eq!(&v[..], &[4.0, 4.0, 1.0]),
            _ => unreachable!(),
        }
    }

    #[test]
    fn head_truncates() {
        let d = toy();
        assert_eq!(d.head(2).n_rows(), 2);
        assert_eq!(d.head(100).n_rows(), 4);
    }

    #[test]
    #[should_panic(expected = "rows")]
    fn ragged_columns_panic() {
        let _ = Dataset::new("bad", vec![Column::numeric("x", vec![1.0])], vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_out_of_range_panics() {
        let _ = Dataset::new("bad", vec![Column::numeric("x", vec![1.0])], vec![5], 2);
    }

    #[test]
    fn scale_roundtrip() {
        let d = toy().with_scales(12.5, 2.0);
        assert_eq!(d.scale(), 25.0);
        assert_eq!(d.nominal_rows(), 4.0 * 12.5);
        assert_eq!(d.nominal_features(), 2.0 * 2.0);
        // take_rows preserves the charging factors.
        assert_eq!(d.take_rows(&[0]).scale(), 25.0);
    }

    #[test]
    #[should_panic(expected = "row_scale")]
    fn sub_unit_scale_panics() {
        let _ = toy().with_scales(0.5, 1.0);
    }
}
