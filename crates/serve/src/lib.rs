//! Energy-metered inference serving on the virtual clock.
//!
//! The paper's sharpest findings are inference-stage findings — ensembling
//! costs ≥10× per prediction (Observation O1), TabPFN's total-energy
//! crossover sits at ~26k predictions (Fig. 4), and Table 4 prices 10¹²
//! predictions in kWh/CO₂/€ — yet those numbers only bind once a trained
//! model actually *serves* traffic. This crate turns any deployed
//! [`Predictor`](green_automl_systems::Predictor) into a metered prediction
//! service:
//!
//! * [`registry`] — a model registry with per-model memory accounting and an
//!   LRU residency cap; cold loads charge `mem_bytes` through the
//!   [`CostTracker`](green_automl_energy::CostTracker).
//! * [`traffic`] — a seeded open-loop generator: Poisson-like interarrivals
//!   from the in-tree SplitMix64, feature rows drawn from a held-out split.
//! * [`scheduler`] — [`serve`], the single-model entry point: one trace,
//!   one model, a fixed pool of replicas. It is a one-tenant call of the
//!   fleet loop below, not a loop of its own.
//! * [`report`] — per-request latency percentiles, queue depth, Joules per
//!   request, and an SLO check with a carbon budget via
//!   `green_automl_energy::carbon`.
//!
//! The **fleet layer** is the one serving loop, for many models, many
//! tenants, and simulated grid regions:
//!
//! * [`fleet`] — [`run_fleet`] micro-batches a multi-tenant trace
//!   (`MAX_BATCH` / `MAX_DELAY_S`), fans the expensive per-batch inference
//!   out over host threads with the same ownership discipline as
//!   `green_automl_core::executor`, and dispatches serially across regions
//!   with per-region registries, elastic replica pools, crash retry, load
//!   shedding, and time-varying carbon intensity. Its [`FleetReport`] is
//!   byte-identical at every host worker count.
//! * [`router`] — carbon-blind vs. carbon-aware regional dispatch.
//! * [`autoscale`] — queue-depth/idle-time hysteresis with energy-budget
//!   denials, all logged deterministically.

pub mod autoscale;
pub mod fleet;
pub mod registry;
pub mod report;
pub mod router;
pub mod scheduler;
pub mod traffic;

pub use autoscale::{AutoscaleEvent, AutoscalePolicy, ScaleReason};
pub use fleet::{
    run_fleet, FleetConfig, FleetReport, RegionReport, RegionSpec, TenantReport, TenantSpec,
};
pub use registry::{ModelRegistry, RegistryStats};
pub use report::{LatencyStats, ServingReport, SloPolicy, SloReport};
pub use router::{route, RegionView, RouterPolicy};
pub use scheduler::{serve, ServeConfig};
pub use traffic::{
    FleetRequest, FleetTrace, FleetTrafficConfig, Request, Shape, TenantTraffic, TrafficConfig,
    TrafficTrace,
};
