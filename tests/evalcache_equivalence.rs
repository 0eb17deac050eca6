//! The evaluation cache's rows of the equivalence matrix (`tests/matrix`):
//! memoisation is invisible in every artefact. A hit skips the compute
//! but replays the charges the cold evaluation recorded, so points,
//! traces and journals are byte-identical with the cache on or off, at 1
//! or N workers, on a clean run and under trial chaos; and budget chains
//! keep the serial cache counts at every worker count.

mod matrix;

use matrix::{check, outcome, reference, trial_faults, Ckpt::*, Grid::*, Outcome, Row, BASE};

/// A disabled cache observes nothing, and an enabled one hits: nested
/// budgets replay their chain's trial prefix.
fn assert_cache_counts(rows: &[(Row, &'static Outcome)]) {
    let references = rows
        .iter()
        .map(|(row, _)| (reference(*row), outcome(reference(*row))));
    for (row, o) in rows.iter().copied().chain(references) {
        let grid = &o.run.grid;
        if row.cache {
            assert!(grid.eval_cache_hits > 0, "{row:?}: the cache never hit");
        } else {
            let observed = grid.eval_cache_hits + grid.eval_cache_misses;
            assert_eq!(observed, 0, "{row:?}: a disabled cache observed");
        }
    }
}

#[test]
fn clean_grid_is_bit_identical_with_cache_on_or_off_at_every_worker_count() {
    let shapes = [(1, true), (4, false), (8, true)];
    assert_cache_counts(&check(&shapes.map(|(jobs, cache)| Row {
        jobs,
        cache,
        ..BASE
    })));
}

#[test]
fn faulted_grid_is_bit_identical_with_cache_on_or_off_at_every_worker_count() {
    let shapes = [(1, true), (8, false)];
    let rows = check(&shapes.map(|(jobs, cache)| Row {
        grid: Chaos,
        jobs,
        cache,
        ..BASE
    }));
    // Surviving trials still hit the cache under chaos.
    assert_cache_counts(&rows);
    let serial = &outcome(reference(rows[0].0)).run.grid;
    assert!(trial_faults(serial) > 0, "the chaos plan must kill trials");
}

#[test]
fn checkpoint_records_are_identical_with_cache_on_or_off() {
    // Same header, same sealed records: neither the cache nor the
    // schedule leaves a trace in the persisted artefact.
    assert_cache_counts(&check(&[
        Row {
            jobs: 4,
            ckpt: Fresh,
            ..BASE
        },
        Row {
            hosts: 4,
            jobs: 2,
            cache: false,
            ckpt: Fresh,
            ..BASE
        },
    ]));
}

#[test]
fn budget_chains_keep_the_serial_cache_counts_at_every_worker_count() {
    let rows = check(&[1, 2, 4].map(|jobs| Row {
        grid: Chains,
        jobs,
        trace: false,
        ..BASE
    }));
    let counts = |o: &Outcome| (o.run.grid.eval_cache_hits, o.run.grid.eval_cache_misses);
    let serial = counts(rows[0].1);
    assert!(serial.0 > 0, "nested budgets must hit");
    for (row, o) in &rows {
        // Each chain runs its budgets in order on one worker, so the
        // 30 s and 60 s cells replay the 10 s prefix instead of racing it.
        assert_eq!(counts(o), serial, "{} jobs: cache hits/misses", row.jobs);
    }
}
