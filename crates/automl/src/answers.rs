//! Answer once, price many: a deployed predictor's answers for a fixed
//! set of rows, from which any batch of those rows is priced without
//! predicting it again.
//!
//! Every model answers a row independently of the other rows of its batch,
//! and every charge of [`Predictor::predict_batch`] depends only on the
//! batch's shape except tree traversal, which charges the sum of the
//! batch rows' path lengths per tree visit. An [`AnswerTable`] runs one
//! answer pass over all its rows and keeps each row's label and per-visit
//! path length; [`AnswerTable::price`] gathers a batch's labels, sums its
//! rows' path lengths per visit (exact integers, so the `f64` charge is
//! bit for bit the one a predict would issue) and runs the predictor's
//! charge walk into the caller's tracker. The labels, the charge sequence
//! and hence the [`Measurement`](green_automl_energy::Measurement) equal
//! those of `predict_batch` on a dataset of exactly the batch's rows.

use green_automl_dataset::Dataset;
use green_automl_energy::CostTracker;
use green_automl_ml::matrix::encoded_shape;
use green_automl_ml::models::{Steps, Traversals};
use green_automl_ml::{Dispatch, Shape};

use crate::system::Predictor;

/// One predictor's answers for every row of one dataset.
///
/// Memory: a `u32` label per row plus a `u16` path length per row and
/// tree visit — `rows × (4 + 2 × visits)` bytes, where a visit is one tree
/// routing the input once (an AutoGluon stack visits each layer-1 tree
/// once and each layer-2 tree once).
#[derive(Debug, Clone)]
pub struct AnswerTable<'p> {
    predictor: &'p Predictor,
    shape: Shape,
    labels: Vec<u32>,
    visits: usize,
    /// Row-major: row `r`'s path lengths are `steps[r * visits..][..visits]`.
    steps: Vec<u16>,
}

impl<'p> AnswerTable<'p> {
    /// Answer every row of `ds` with `predictor` in one pass. Charges
    /// nothing.
    ///
    /// # Panics
    /// Panics if `ds` has no rows.
    pub fn new(predictor: &'p Predictor, ds: &Dataset) -> AnswerTable<'p> {
        let rows = ds.n_rows();
        assert!(rows > 0, "an answer table needs at least one row");
        let mut walk = Traversals::PerRow(Vec::new());
        let labels = predictor.answer(ds, &mut walk);
        let Traversals::PerRow(by_visit) = walk else {
            unreachable!("answer passes only append")
        };
        // The pass records visit by visit; pricing sums rows, so store
        // each row's path lengths contiguously.
        let visits = by_visit.len() / rows;
        let mut steps = vec![0u16; by_visit.len()];
        for (v, visit) in by_visit.chunks_exact(rows).enumerate() {
            for (r, &s) in visit.iter().enumerate() {
                steps[r * visits + v] = s;
            }
        }
        AnswerTable {
            predictor,
            shape: encoded_shape(ds),
            labels,
            visits,
            steps,
        }
    }

    /// The labels of table rows `rows` (repeats allowed, in order), after
    /// issuing into `tracker` every charge `predict_batch` issues on a
    /// dataset of exactly those rows.
    ///
    /// # Panics
    /// Panics if a row is outside the table.
    pub fn price(&self, rows: &[usize], tracker: &mut CostTracker) -> Vec<u32> {
        let mut totals = vec![0u64; self.visits];
        for &r in rows {
            let row = &self.steps[r * self.visits..(r + 1) * self.visits];
            for (t, &s) in totals.iter_mut().zip(row) {
                *t += u64::from(s);
            }
        }
        let mut steps = Steps::new(&totals);
        self.predictor.charge(
            self.shape.with_rows(rows.len()),
            Dispatch::PerBatch,
            &mut steps,
            tracker,
        );
        assert!(steps.is_done(), "every tree visit is charged");
        rows.iter().map(|&r| self.labels[r]).collect()
    }
}
