//! # green-automl-bench
//!
//! Benchmark harness: substrate microbenches and ablations for the design
//! decisions called out in DESIGN.md, plus the two committed perf
//! baselines CI gates (`grid` writes `BENCH_grid.json`, `kernels` writes
//! `BENCH_kernels.json`). End-to-end wall time of the paper artefacts is
//! measured by the `perfbench` package, whose `repro` workload times every
//! experiment id.
//!
//! The harness is a small in-repo timer (see [`harness`]) rather than
//! Criterion, so `cargo bench` works in hermetic/offline builds with no
//! external registry dependencies.
//!
//! Run everything with `cargo bench --workspace`; one target with e.g.
//! `cargo bench -p green-automl-bench --bench grid`.

pub mod harness;
