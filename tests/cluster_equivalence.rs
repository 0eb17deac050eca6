//! The cluster executor's rows of the equivalence matrix (`tests/matrix`):
//! the grid is byte-identical at every (hosts x jobs) shape in {1,2,4}²,
//! on a clean run and under host chaos, and so are its shard journals
//! across topologies; the cluster report is a function of the topology
//! alone; and a host-chaos run killed mid-grid (one shard torn mid-line,
//! the others cut) resumes at another job count to the same grid and the
//! same sealed records.

mod matrix;

use matrix::{
    check, outcome, reference, sweep, trial_faults, Ckpt::*, Grid::*, Outcome, Row, BASE,
};
use std::collections::HashMap;

/// Every jobs count at one host count must reproduce the cluster report
/// byte for byte.
fn assert_reports_depend_on_the_topology_alone(rows: &[(Row, &Outcome)]) {
    let mut first = HashMap::new();
    for (row, o) in rows {
        let fp = o.run.report.fingerprint();
        let &mut (jobs, want) = first.entry(row.hosts).or_insert((row.jobs, fp));
        assert_eq!(fp, want, "{row:?}: report differs from {jobs} jobs");
    }
}

#[test]
fn clean_grid_is_bit_identical_at_every_hosts_x_jobs_shape() {
    let rows = check(&sweep(Clean));
    assert_reports_depend_on_the_topology_alone(&rows);
    // Multi-host clean runs still pay for dataset shipping and result
    // collection: the network is real, the science is unchanged.
    for (row, o) in rows.iter().filter(|(row, _)| row.hosts > 1) {
        let report = &o.run.report;
        assert!(report.transfer_j > 0.0, "{row:?}: workers must ship bytes");
        assert_eq!(report.host_crashes, 0, "{row:?}: a clean run crashed");
        let delivered: usize = report.hosts.iter().map(|h| h.cells_run).sum();
        assert_eq!(delivered, report.scheduled_cells, "{row:?}");
    }
}

#[test]
fn chaos_grid_is_bit_identical_at_every_hosts_x_jobs_shape() {
    let rows = check(&sweep(HostChaos));
    assert_reports_depend_on_the_topology_alone(&rows);
    for (row, o) in &rows {
        let (report, grid) = (&o.run.report, &o.run.grid);
        // Host chaos layers on the trial-chaos profile.
        assert!(trial_faults(grid) > 0, "{row:?}: trial chaos must fire");
        if row.hosts == 1 {
            assert_eq!(grid.retried_cells, 0, "{row:?}: one host never retries");
        }
        if row.hosts == 4 {
            let faults = report.host_crashes + report.stragglers + report.partitions;
            assert!(faults > 0, "{row:?}: host chaos must fire");
            assert!(grid.retried_cells >= report.host_crashes, "{row:?}");
        }
    }
}

#[test]
fn checkpoint_records_and_fingerprints_are_identical_across_topologies() {
    // The grid fingerprint excludes the topology, so every shard of every
    // shape opens under the reference's header, and the union of sealed
    // records is the same however it was sharded.
    check(&[(1, 2), (2, 4), (4, 1)].map(|(hosts, jobs)| Row {
        hosts,
        jobs,
        ckpt: Fresh,
        ..BASE
    }));
}

#[test]
fn killed_chaos_cluster_resumes_per_shard_to_the_same_bytes() {
    // Killed at 4 hosts x 2 jobs, resumed at 4 jobs and replayed at 1: the
    // resumed grid, its replay and its sealed records match the reference.
    let killed = Row {
        grid: HostChaos,
        hosts: 4,
        jobs: 2,
        trace: false,
        ckpt: Killed,
        ..BASE
    };
    let o = check(&[killed])[0].1;
    let cells = outcome(reference(killed)).run.report.scheduled_cells;
    let resumed = o.run.grid.resumed_cells;
    assert!(
        resumed > 0,
        "damaged shards must still replay their sealed prefix"
    );
    assert!(
        resumed < cells,
        "the cut cells must be recomputed, not replayed"
    );
    // A further resume finds every cell sealed again: the repaired
    // journals are complete despite the torn write.
    let replay = o.replay.as_ref().expect("killed rows replay");
    assert_eq!(replay.resumed_cells, cells);
}
