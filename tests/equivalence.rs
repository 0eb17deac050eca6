//! The smoke profile's rows of the equivalence matrix (`tests/matrix` is
//! the harness and lists every suite's rows): `repro`'s
//! `ExpConfig::smoke()` grid is byte-identical to its serial, uncached,
//! single-host reference at auto (one worker per core) and oversubscribed
//! job counts.

mod matrix;

use matrix::{check, Grid::*, Row, BASE};

#[test]
fn the_smoke_profile_is_bit_identical_at_auto_and_oversubscribed_jobs() {
    check(&[0, 2, 8].map(|jobs| Row {
        grid: Smoke,
        jobs,
        trace: false,
        ..BASE
    }));
}
