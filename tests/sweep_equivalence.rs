//! The context sweeps' rows of the equivalence matrix (`tests/matrix`): a
//! sweep of context twins (`fig5`'s core counts, `table3`'s device pair,
//! `fig6`'s CAML limits, and a CAML limit that binds on 1 core but not on
//! 8) yields the same grids with one eval cache shared across the sweep, a
//! cache per grid and no cache, at 1 and 2 workers. Evaluation-unit keys
//! carry no meter context, so the shared cache serves a unit recorded in
//! one context to the grids after it, priced by their own trackers; an
//! audited cache recomputes each such hit live and checks its bits.

mod matrix;

use green_automl::core::benchmark::run_sweep_with;
use green_automl::experiments::ExpConfig;
use green_automl::prelude::*;
use matrix::{
    check_sweeps, sweep_inputs, sweep_outcome, Caches, Caches::*, Sweep, Sweep::*, SweepRow,
};

/// `sweep` with `caches` at 1 and 2 workers.
fn rows(sweep: Sweep, caches: Caches) -> [SweepRow; 2] {
    [1, 2].map(|jobs| SweepRow {
        sweep,
        caches,
        jobs,
    })
}

#[test]
fn context_sweeps_are_bit_identical_with_shared_per_grid_and_no_caches() {
    let rows: Vec<SweepRow> = [Cores, Devices]
        .into_iter()
        .flat_map(|sweep| [Shared, PerGrid, Off].map(|caches| rows(sweep, caches)))
        .flatten()
        .collect();
    check_sweeps(&rows);
}

#[test]
fn later_grids_of_a_shared_sweep_hit_units_recorded_in_earlier_contexts() {
    for sweep in [Cores, Devices, Binding] {
        let shared = sweep_outcome(SweepRow {
            sweep,
            caches: Shared,
            jobs: 1,
        });
        let per_grid = sweep_outcome(SweepRow {
            sweep,
            caches: PerGrid,
            jobs: 1,
        });
        assert_eq!(shared[0].eval_cache_cross_context_hits, 0, "{sweep:?}");
        for (i, grid) in shared.iter().enumerate().skip(1) {
            assert!(
                grid.eval_cache_cross_context_hits > 0,
                "{sweep:?} grid {i}: nothing reused from an earlier context"
            );
        }
        for grid in per_grid {
            assert_eq!(grid.eval_cache_cross_context_hits, 0, "{sweep:?}");
        }
        let misses = |grids: &[GridRun]| grids.iter().map(|g| g.eval_cache_misses).sum::<u64>();
        assert!(
            misses(shared) < misses(per_grid),
            "{sweep:?}: sharing computed no fewer units"
        );
    }
    // Limits are no meter context: fig6's grids share fits, all in one.
    let limits = sweep_outcome(SweepRow {
        sweep: Limits,
        caches: Shared,
        jobs: 1,
    });
    assert!(limits.iter().all(|g| g.eval_cache_cross_context_hits == 0));
    assert!(limits[2..].iter().all(|g| g.eval_cache_hits > 0));
}

#[test]
fn audited_smoke_sweeps_recompute_every_cross_context_hit_bit_for_bit() {
    let rows = [Cores, Devices, Limits, Binding].map(|sweep| SweepRow {
        sweep,
        caches: Audited,
        jobs: 2,
    });
    for (row, grids) in check_sweeps(&rows) {
        if row.sweep != Limits {
            let audited: u64 = grids.iter().map(|g| g.eval_cache_cross_context_hits).sum();
            assert!(audited > 0, "{row:?}: no cross-context hit was audited");
        }
    }
}

#[test]
fn a_limit_that_binds_on_one_core_but_not_on_eight_keeps_each_grid_as_run_alone() {
    check_sweeps(&[rows(Binding, Shared), rows(Binding, PerGrid)].concat());
    // The limit changes the 1-core grid and leaves the 8-core one as the
    // unconstrained search would run it.
    let sweep = sweep_inputs(Binding);
    let unconstrained: Vec<RunSpec> = sweep
        .specs
        .into_iter()
        .map(|spec| RunSpec {
            constraints: Constraints::default(),
            ..spec
        })
        .collect();
    let opts = BenchmarkOptions {
        eval_cache: false,
        ..ExpConfig::smoke().bench_options()
    };
    let free = run_sweep_with(
        &sweep.systems,
        &sweep.datasets,
        &sweep.budgets,
        &unconstrained,
        &opts,
        None,
    )
    .expect("valid specs");
    let limited = sweep_outcome(SweepRow {
        sweep: Binding,
        caches: Off,
        jobs: 1,
    });
    assert_ne!(limited[0].fingerprint(), free[0].fingerprint());
    assert_eq!(limited[1].fingerprint(), free[1].fingerprint());
}
