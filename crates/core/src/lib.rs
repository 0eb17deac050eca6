//! # green-automl-core
//!
//! The paper's primary contribution, as a library: a **holistic
//! three-stage energy benchmark for AutoML on tabular data**.
//!
//! * [`stages`] — the Green-AutoML stage taxonomy (development / execution /
//!   inference, Tornede et al. 2023) and holistic per-run reports;
//! * [`benchmark`] — the measurement protocol of §3.1/§3.2: run a system on
//!   a dataset under a search budget, score balanced accuracy on the 34%
//!   test split, and meter execution and inference energy separately; its
//!   [`PointMemo`] computes each point once per run, however many grids,
//!   cluster sweeps and tunes ask for it, and keeps the shared grid's
//!   evaluation units as the run's read-only unit layer
//!   ([`run_layer_grid`]);
//! * [`devtune`] — the §2.5 development-stage optimiser: k-means
//!   representative-dataset selection, Bayesian optimisation over CAML's
//!   AutoML-system parameters, median pruning, and the relative-improvement
//!   meta-objective;
//! * [`executor`] — the work-queue scheduler and dataset-materialization
//!   cache that let [`benchmark::run_grid_checked`] use every core while
//!   staying byte-identical to the serial run, plus the per-cell panic
//!   isolation ([`executor::catch_cell`]) behind the grid's fault
//!   tolerance;
//! * [`EvalCache`] (from `ml::evalcache`) — the grid-wide (for a sweep
//!   of context twins, [`run_sweep_with`], sweep-wide) content-addressed
//!   evaluation memo table, over the run's unit layer once there is one,
//!   whose hits skip real compute but replay the recorded virtual-energy
//!   charges, keeping every artefact byte-identical with the cache on or
//!   off;
//! * [`cluster`] — the simulated multi-host executor: grid cells sharded
//!   across hosts with per-host device profiles and clocks, network
//!   transfer costs in virtual Joules, host-level chaos (crash /
//!   straggler / partition) with retry, speculation, and shard
//!   checkpoints — while the grid artefact stays byte-identical at every
//!   (hosts × jobs) shape;
//! * [`checkpoint`] — crash-safe per-cell persistence so a killed grid
//!   run resumes from its completed cells;
//! * [`amortize`] — the cross-stage break-even analyses (Fig. 4's
//!   prediction-count crossover, §3.7's 885-run development amortisation);
//! * [`trillion`] — the Table 4 trillion-prediction cost estimator;
//! * [`guideline`] — the Fig. 8 system-selection flowchart as an executable
//!   decision procedure.

pub mod amortize;
pub mod benchmark;
pub mod checkpoint;
pub mod cluster;
pub mod devtune;
pub mod executor;
pub mod guideline;
pub mod stages;
pub mod trillion;

/// The workspace's deterministic PRNG (re-exported from
/// `green-automl-energy` so hermetic builds need no external `rand`).
pub use green_automl_energy::rng;

/// Seeded, deterministic fault injection (re-exported from
/// `green-automl-energy` so the AutoML systems and the serving layer share
/// one decision oracle without a dependency cycle).
pub use green_automl_energy::fault;

pub use amortize::{crossover_predictions, runs_to_amortize, total_kwh};
pub use benchmark::{
    average_points, run_grid_checked, run_grid_with, run_layer_grid, run_sweep_in, run_sweep_with,
    BenchmarkOptions, BenchmarkPoint, BudgetGrid, CellFailure, GridRun, PointMemo,
};
pub use checkpoint::Checkpoint;
pub use cluster::{
    run_grid_cluster, run_grid_cluster_with, ClusterGridRun, ClusterOptions, ClusterReport,
    HostStats,
};
pub use devtune::{DevTuneOptions, DevTuneOutcome, DevTuner};
pub use executor::{run_indexed, CellOutcome, DatasetCache};
pub use green_automl_ml::EvalCache;
pub use guideline::{recommend, Priority, Recommendation, ServingProfile, TaskProfile};
pub use stages::{HolisticReport, Stage, StageMeasurement};
pub use trillion::{trillion_prediction_cost, TrillionCost, TRILLION};
