//! Trial chaos's rows of the equivalence matrix (`tests/matrix`): with a
//! seeded chaos `FaultPlan` active, the grid is byte-identical at every
//! worker count, two runs a cell. Injected failures are a function of
//! `(seed, site)` only, never of thread scheduling, so a chaos run is as
//! replayable as a clean one.

mod matrix;

use matrix::{check, outcome, reference, trial_faults, Grid::*, Row, BASE};

#[test]
fn faulted_grid_is_bit_identical_at_every_worker_count() {
    let rows = check(&[4, 8].map(|jobs| Row {
        grid: Chaos,
        jobs,
        trace: false,
        ..BASE
    }));
    let serial = &outcome(reference(rows[0].0)).run.grid;
    assert!(trial_faults(serial) > 0, "the chaos plan must kill trials");
}
