//! Tracing's rows of the equivalence matrix (`tests/matrix`): a grid's
//! span traces are byte-identical at every worker count, on a clean run
//! and under trial chaos (the fingerprint hashes each point's trace
//! JSONL, which holds every field both trace sinks render). Every
//! execution root span reconciles bitwise with the measurement the
//! tables are built from: tracing observes the virtual timeline, it
//! never perturbs it.

mod matrix;

use matrix::{assert_same_grid, check, outcome, outcomes, reference, Grid, Grid::*, Row, BASE};

#[test]
fn clean_grid_trace_is_byte_identical_at_every_worker_count() {
    check(&[4, 8].map(|jobs| Row { jobs, ..BASE }));
}

#[test]
fn faulted_grid_trace_is_byte_identical_at_every_worker_count() {
    let rows = check(&[4, 8].map(|jobs| Row {
        grid: Chaos,
        jobs,
        ..BASE
    }));
    // The chaos plan bites: some spans carry a fault tag.
    let serial = &outcome(reference(rows[0].0)).run.grid;
    let spans = serial.points.iter().filter_map(|p| p.trace.as_ref());
    let tagged = spans.flat_map(|t| &t.spans).filter(|s| s.fault.is_some());
    assert!(tagged.count() > 0, "the chaos plan must tag some spans");
}

/// The traced serial, uncached reference of `grid`.
fn traced_reference(grid: Grid) -> Row {
    reference(Row { grid, ..BASE })
}

#[test]
fn execution_root_spans_reconcile_bitwise_with_the_measurement() {
    let rows = [traced_reference(Clean), traced_reference(Chaos)];
    for (row, o) in rows.iter().zip(outcomes(&rows)) {
        for p in &o.run.grid.points {
            let t = p.trace.as_ref().expect("tracing was on");
            // Execution spans render on track 0, inference on track 1.
            let root = t.roots().find(|r| r.track == 0).expect("a root span");
            let (a, b) = (root.energy, p.execution.energy);
            assert_eq!(
                [a.package_j, a.dram_j, a.gpu_j, root.ops.scalar_flops].map(f64::to_bits),
                [b.package_j, b.dram_j, b.gpu_j, p.execution.ops.scalar_flops].map(f64::to_bits),
                "{row:?}: {} on {}",
                p.system,
                p.dataset
            );
        }
    }
}

#[test]
fn tracing_never_perturbs_the_measured_numbers() {
    let traced = traced_reference(Clean);
    let plain = Row {
        trace: false,
        ..traced
    };
    let [traced, plain] = [traced, plain].map(|row| &outcome(row).run.grid);
    let mut stripped = traced.clone();
    for p in &mut stripped.points {
        assert!(p.trace.take().is_some(), "an untraced point");
    }
    assert_same_grid("traced, then stripped", plain, &stripped);
}
