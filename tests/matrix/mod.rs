//! The equivalence matrix: the benchmark grid is byte-identical at every
//! jobs, hosts, eval-cache, fault-plan, trace and checkpoint shape.
//!
//! A [`Row`] runs one grid on the cluster executor. [`check`] compares
//! it, through [`GridRun::fingerprint`], with the serial, uncached,
//! single-host run of the same grid, and names the first differing point
//! on a mismatch; checkpointed rows also compare their shard journals
//! with the reference's. Each suite that includes this module holds the
//! rows of the invariant it is named after, plus the named checks that
//! are not comparisons:
//!
//! | suite | rows | named checks |
//! |---|---|---|
//! | `equivalence` | `ExpConfig::smoke()` at jobs 0/2/8 | |
//! | `cluster_equivalence` | clean and host-chaos (hosts x jobs) sweeps, journals across topologies, a killed host-chaos run | reports depend on the topology alone, faults fire, the torn-write resume |
//! | `evalcache_equivalence` | clean and trial-chaos rows with the cache on and off, journals across the cache, budget chains | cache hit and miss counts |
//! | `fault_equivalence` | untraced trial chaos, two runs a cell | trials are killed |
//! | `trace_determinism` | traced clean and trial-chaos rows | spans carry faults, root spans reconcile, tracing never perturbs |
//! | `sweep_equivalence` | context sweeps ([`SweepRow`]) with one shared, an audited, per-grid or no eval cache | later grids hit earlier contexts' units, the limit binds on 1 core only |
//!
//! A [`SweepRow`] runs a sweep of context twins, one grid per meter
//! context, and [`check_sweeps`] compares each of its grids with the
//! serial, uncached sweep's.
//!
//! Every row and reference is computed once per test process.
#![allow(dead_code)]

use green_automl::core::benchmark::{run_grid_with, run_sweep_in, run_sweep_with, BenchmarkPoint};
use green_automl::core::checkpoint::shard_path;
use green_automl::core::executor::{resolve_parallelism, run_indexed};
use green_automl::core::EvalCache;
use green_automl::dataset::DatasetMeta;
use green_automl::experiments::{fig5, fig6, ExpConfig};
use green_automl::prelude::*;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub const SEED: u64 = 11;

/// The grid a row runs: systems, datasets, budgets, runs and fault plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Grid {
    /// `ExpConfig::smoke()` as configured: its datasets, its one budget,
    /// seed 0.
    Smoke,
    /// Every system on two datasets at nested 10 s / 60 s budgets.
    Clean,
    /// `Clean` under the trial-fault `FaultPlan::chaos`, two runs a cell.
    Chaos,
    /// `Clean` under host chaos amplified so that crashes, stragglers and
    /// partitions all fire on this small grid.
    HostChaos,
    /// AutoGluon alone at 10/30/60 s: two budget chains on different
    /// data, so no key is shared between chains.
    Chains,
}

/// What a row does with its checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ckpt {
    /// No checkpoint.
    Off,
    /// A fresh journal, compared with the reference's.
    Fresh,
    /// A journal written at the row's jobs and killed mid-grid (shard 0
    /// torn mid-line, the other shards cut at their last record), resumed
    /// at 4 jobs and replayed again at 1, as a user re-running with
    /// another `--jobs` would; the resumed journal is compared with the
    /// reference's.
    Killed,
}

/// One matrix row: a grid and the shape it runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Row {
    pub grid: Grid,
    pub hosts: usize,
    pub jobs: usize,
    pub cache: bool,
    pub trace: bool,
    pub ckpt: Ckpt,
}

/// The row the others are written against: the clean grid, serial on one
/// host, cached and traced, without a checkpoint.
pub const BASE: Row = Row {
    grid: Grid::Clean,
    hosts: 1,
    jobs: 1,
    cache: true,
    trace: true,
    ckpt: Ckpt::Off,
};

/// The cluster sweep of `grid`: every (hosts x jobs) shape in {1, 2, 4}^2,
/// traced, with the cache on.
pub fn sweep(grid: Grid) -> Vec<Row> {
    [1, 2, 4]
        .into_iter()
        .flat_map(|hosts| {
            [1, 2, 4].map(|jobs| Row {
                grid,
                hosts,
                jobs,
                ..BASE
            })
        })
        .collect()
}

/// The serial, uncached, single-host run `row` is compared with.
pub fn reference(row: Row) -> Row {
    Row {
        hosts: 1,
        jobs: 1,
        cache: false,
        ckpt: Ckpt::Fresh,
        ..row
    }
}

/// Run `row`'s grid, journalling to `ckpt` when given.
fn run(row: Row, ckpt: Option<&Path>) -> ClusterGridRun {
    let smoke = ExpConfig::smoke();
    let systems = match row.grid {
        Grid::Chains => vec![Box::new(AutoGluon::default()) as Box<dyn AutoMlSystem>],
        _ => all_systems(),
    };
    let (datasets, budgets) = match row.grid {
        Grid::Smoke => (smoke.datasets(), smoke.budgets.clone()),
        Grid::Chains => (amlb39()[..2].to_vec(), vec![10.0, 30.0, 60.0]),
        _ => (amlb39()[..2].to_vec(), vec![10.0, 60.0]),
    };
    let mut spec = match row.grid {
        Grid::Smoke => smoke.base_spec(),
        Grid::Chaos => RunSpec::single_core(10.0, SEED).with_fault(FaultPlan::chaos(SEED)),
        Grid::HostChaos => RunSpec::single_core(10.0, SEED).with_fault(FaultPlan {
            host_crash_p: 0.20,
            host_straggler_p: 0.20,
            host_straggler_slowdown: 4.0,
            host_partition_p: 0.15,
            host_partition_s: 2.0,
            ..FaultPlan::chaos(SEED)
        }),
        _ => RunSpec::single_core(10.0, SEED),
    };
    if row.trace {
        spec = spec.with_trace();
    }
    let opts = BenchmarkOptions {
        runs: if row.grid == Grid::Chaos {
            2
        } else {
            smoke.runs
        },
        parallelism: row.jobs,
        eval_cache: row.cache,
        ..smoke.bench_options()
    };
    run_grid_cluster(
        &systems,
        &datasets,
        &budgets,
        &spec,
        &opts,
        &ClusterOptions::uniform(row.hosts),
        ckpt,
    )
    .expect("the matrix specs are valid")
}

/// Shard headers and the sorted union of sealed records: what a journal
/// holds, whatever the topology that wrote it.
pub struct Journal {
    pub headers: Vec<String>,
    pub records: Vec<String>,
}

fn journal(path: &Path, hosts: usize) -> Journal {
    let mut headers = Vec::new();
    let mut records = Vec::new();
    for h in 0..hosts {
        let text = std::fs::read_to_string(shard_path(path, h, hosts)).expect("shard written");
        let mut lines = text.lines();
        headers.push(lines.next().expect("shard header").to_string());
        records.extend(lines.filter(|l| !l.is_empty()).map(str::to_string));
    }
    records.sort();
    Journal { headers, records }
}

/// Kill a journalled run mid-grid: shard 0 loses the second half of its
/// last line (a torn write, no trailing newline), every other shard its
/// last two lines. Returns the lines the kill leaves unsealed: the records
/// after a shard's last `done` marker, and the torn fragment. A resume
/// keeps them in the journal (the checkpoint parser ignores them) unless
/// no sealed cell is left in the shard, which then starts afresh.
fn tear(path: &Path, hosts: usize) -> Vec<String> {
    let mut unsealed = Vec::new();
    for h in 0..hosts {
        let shard = shard_path(path, h, hosts);
        let text = std::fs::read_to_string(&shard).expect("shard written");
        let lines: Vec<&str> = text.lines().collect();
        let (keep, torn) = if h == 0 {
            let keep = lines.len().saturating_sub(1).max(1);
            (keep, Some(&lines[keep][..lines[keep].len() / 2]))
        } else {
            (lines.len().saturating_sub(2).max(1), None)
        };
        let kept = &lines[..keep];
        if let Some(done) = kept.iter().rposition(|l| l.starts_with("done\t")) {
            unsealed.extend(kept[done + 1..].iter().chain(&torn).map(|l| l.to_string()));
        }
        let damaged = match torn {
            Some(torn) => format!("{}\n{torn}", kept.join("\n")),
            None => format!("{}\n", kept.join("\n")),
        };
        std::fs::write(&shard, damaged).expect("rewrite the damaged shard");
    }
    unsealed
}

/// One computed row.
pub struct Outcome {
    pub run: ClusterGridRun,
    /// The journal of a checkpointed row: a `Killed` row's after its
    /// resume, less the lines the kill left unsealed.
    pub journal: Option<Journal>,
    /// A `Killed` row's second resume, which should replay every cell.
    pub replay: Option<GridRun>,
}

fn compute(row: Row) -> Outcome {
    if row.ckpt == Ckpt::Off {
        return Outcome {
            run: run(row, None),
            journal: None,
            replay: None,
        };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "green-automl-matrix-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create the checkpoint dir");
    let ckpt = dir.join("grid.ckpt");
    let outcome = if row.ckpt == Ckpt::Fresh {
        Outcome {
            run: run(row, Some(&ckpt)),
            journal: Some(journal(&ckpt, row.hosts)),
            replay: None,
        }
    } else {
        run(row, Some(&ckpt));
        let unsealed = tear(&ckpt, row.hosts);
        let resumed = run(Row { jobs: 4, ..row }, Some(&ckpt));
        let mut journal = journal(&ckpt, row.hosts);
        for line in unsealed {
            let i = journal.records.iter().position(|r| *r == line);
            journal
                .records
                .remove(i.expect("the resume keeps unsealed lines"));
        }
        Outcome {
            run: resumed,
            journal: Some(journal),
            replay: Some(run(Row { jobs: 1, ..row }, Some(&ckpt)).grid),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Values computed once per key and shared by every test of the process.
type Cells<K, V> = OnceLock<Mutex<HashMap<K, &'static OnceLock<V>>>>;

/// The value of `key` in `cells`, computed on first use.
fn once<K: Copy + Eq + Hash, V>(
    cells: &'static Cells<K, V>,
    key: K,
    compute: impl FnOnce(K) -> V,
) -> &'static V {
    let cell = *cells
        .get_or_init(Default::default)
        .lock()
        .expect("no panic while the map is locked")
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(OnceLock::new())));
    cell.get_or_init(|| compute(key))
}

/// `row`'s outcome, computed on first use and shared by every test of the
/// process.
pub fn outcome(row: Row) -> &'static Outcome {
    static CELLS: Cells<Row, Outcome> = OnceLock::new();
    once(&CELLS, row, compute)
}

/// The outcomes of `rows`, computed over one worker per core.
pub fn outcomes(rows: &[Row]) -> Vec<&'static Outcome> {
    run_indexed(rows.len(), resolve_parallelism(0), |i| outcome(rows[i]))
}

/// Compute `rows` and their references over one worker per core, then
/// assert each row byte-identical to its reference: the grid, a killed
/// row's replay, and a checkpointed row's journal. Returns the rows'
/// outcomes.
pub fn check(rows: &[Row]) -> Vec<(Row, &'static Outcome)> {
    let mut all = rows.to_vec();
    for &row in rows {
        if !all.contains(&reference(row)) {
            all.push(reference(row));
        }
    }
    outcomes(&all);
    for &row in rows {
        let (o, reference) = (outcome(row), outcome(reference(row)));
        assert!(!reference.run.grid.points.is_empty(), "{row:?}: no points");
        assert_same_grid(&format!("{row:?}"), &reference.run.grid, &o.run.grid);
        if let Some(replay) = &o.replay {
            assert_same_grid(&format!("{row:?} replay"), &reference.run.grid, replay);
        }
        if let Some(journal) = &o.journal {
            let expected = reference.journal.as_ref().expect("references journal");
            assert!(!expected.records.is_empty(), "{row:?}: empty journal");
            for header in &journal.headers {
                assert_eq!(header, &expected.headers[0], "{row:?}: shard header");
            }
            assert_eq!(journal.records, expected.records, "{row:?}: records");
        }
    }
    rows.iter().map(|&row| (row, outcome(row))).collect()
}

/// Assert `other` is byte-identical to `reference`, naming the first
/// differing point (or the failures) when it is not.
pub fn assert_same_grid(ctx: &str, reference: &GridRun, other: &GridRun) {
    if reference.fingerprint() == other.fingerprint() {
        return;
    }
    let name = |p: Option<&BenchmarkPoint>| match p {
        Some(p) => format!(
            "{} on {} at {} s, seed {}",
            p.system, p.dataset, p.budget_s, p.seed
        ),
        None => "no point".to_string(),
    };
    let n = reference.points.len().max(other.points.len());
    let Some(i) = (0..n).find(|&i| {
        reference.points.get(i).map(BenchmarkPoint::fingerprint)
            != other.points.get(i).map(BenchmarkPoint::fingerprint)
    }) else {
        panic!(
            "{ctx}: failures differ: {:?} vs {:?}",
            reference.failures, other.failures
        )
    };
    let (want, got) = (name(reference.points.get(i)), name(other.points.get(i)));
    if want == got {
        panic!("{ctx}: point {i} ({got}) differs from the reference");
    }
    panic!("{ctx}: point {i} is {got}, the reference has {want}");
}

/// Trial faults across a grid's points.
pub fn trial_faults(grid: &GridRun) -> usize {
    grid.points.iter().map(|p| p.n_trial_faults).sum()
}

/// A sweep of context twins at the smoke profile: the same searches in
/// several meter contexts, one grid per spec, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sweep {
    /// `fig5`'s: CAML and AutoGluon at 1, 2, 4 and 8 cores.
    Cores,
    /// `table3`'s: AutoGluon and TabPFN at 300 s on the GPU node, then on
    /// its CPU-only twin.
    Devices,
    /// `fig6`'s: CAML unconstrained, then under each inference limit.
    Limits,
    /// CAML under [`BINDING_LIMIT`] on 1 core, then on 8.
    Binding,
}

/// An inference limit, seconds per row, that prunes some of CAML's
/// smoke-profile rungs on 1 core and none on 8: a pipeline's per-row time
/// falls about 4x from 1 to 8 cores, so a fit the 1-core grid pruned
/// passes the 8-core grid's check and is scored there for the first time.
pub const BINDING_LIMIT: f64 = 1e-5;

/// What a sweep runs: one grid of `systems` x `datasets` x `budgets`
/// per spec.
pub struct SweepInputs {
    pub systems: Vec<Box<dyn AutoMlSystem>>,
    pub datasets: Vec<DatasetMeta>,
    pub budgets: Vec<f64>,
    pub specs: Vec<RunSpec>,
}

/// The systems, datasets, budgets and specs of `sweep`.
pub fn sweep_inputs(sweep: Sweep) -> SweepInputs {
    let smoke = ExpConfig::smoke();
    let base = smoke.base_spec();
    let limited = |cores: usize, limit: Option<f64>| RunSpec {
        cores,
        constraints: Constraints {
            max_inference_s_per_row: limit,
        },
        ..base
    };
    let caml = || vec![Box::new(Caml::default()) as Box<dyn AutoMlSystem>];
    let smoke_grid = |systems, specs| SweepInputs {
        systems,
        datasets: smoke.datasets(),
        budgets: smoke.budgets.clone(),
        specs,
    };
    match sweep {
        Sweep::Cores => smoke_grid(
            vec![Box::new(Caml::default()), Box::new(AutoGluon::default())],
            fig5::CORE_GRID.map(|cores| limited(cores, None)).to_vec(),
        ),
        Sweep::Devices => SweepInputs {
            systems: vec![Box::new(AutoGluon::default()), Box::new(TabPfn::default())],
            datasets: smoke
                .datasets()
                .into_iter()
                .filter(|m| m.classes <= 10)
                .collect(),
            budgets: vec![300.0],
            specs: [Device::gpu_node(), Device::gpu_node_cpu_only()]
                .map(|device| RunSpec {
                    cores: device.cpu.cores,
                    device,
                    ..base
                })
                .to_vec(),
        },
        Sweep::Limits => smoke_grid(
            caml(),
            std::iter::once(None)
                .chain(fig6::CONSTRAINTS.map(Some))
                .map(|limit| limited(1, limit))
                .collect(),
        ),
        Sweep::Binding => smoke_grid(
            caml(),
            vec![
                limited(1, Some(BINDING_LIMIT)),
                limited(8, Some(BINDING_LIMIT)),
            ],
        ),
    }
}

/// How a sweep row caches evaluation units.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Caches {
    /// One cache for the whole sweep (`run_sweep_with`).
    Shared,
    /// One [`EvalCache::audited`] cache for the whole sweep, which
    /// recomputes every cross-context hit live and checks its bits.
    Audited,
    /// A fresh cache per grid (`run_grid_with` per spec).
    PerGrid,
    /// No cache.
    Off,
}

/// One sweep row: a sweep, its caches and its worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SweepRow {
    pub sweep: Sweep,
    pub caches: Caches,
    pub jobs: usize,
}

/// The serial, uncached sweep `row` is compared with.
pub fn sweep_reference(row: SweepRow) -> SweepRow {
    SweepRow {
        caches: Caches::Off,
        jobs: 1,
        ..row
    }
}

fn run_sweep(row: SweepRow) -> Vec<GridRun> {
    let SweepInputs {
        systems,
        datasets,
        budgets,
        specs,
    } = sweep_inputs(row.sweep);
    let opts = BenchmarkOptions {
        parallelism: row.jobs,
        eval_cache: row.caches != Caches::Off,
        ..ExpConfig::smoke().bench_options()
    };
    let grids = match row.caches {
        Caches::PerGrid => specs
            .iter()
            .map(|spec| run_grid_with(&systems, &datasets, &budgets, spec, &opts, None, None))
            .collect(),
        Caches::Audited => {
            let audited = EvalCache::audited();
            run_sweep_in(
                &systems,
                &datasets,
                &budgets,
                &specs,
                &opts,
                None,
                Some(&audited),
            )
        }
        Caches::Shared | Caches::Off => {
            run_sweep_with(&systems, &datasets, &budgets, &specs, &opts, None)
        }
    };
    grids.expect("the sweep specs are valid")
}

/// `row`'s grids, computed on first use and shared by every test of the
/// process.
pub fn sweep_outcome(row: SweepRow) -> &'static [GridRun] {
    static CELLS: Cells<SweepRow, Vec<GridRun>> = OnceLock::new();
    once(&CELLS, row, run_sweep).as_slice()
}

/// Compute `rows` and their references over one worker per core, then
/// assert each grid of each row byte-identical to the reference's (a
/// failed audit is a failed cell, so it shows up here too). Returns the
/// rows' grids.
pub fn check_sweeps(rows: &[SweepRow]) -> Vec<(SweepRow, &'static [GridRun])> {
    let mut all = rows.to_vec();
    for &row in rows {
        if !all.contains(&sweep_reference(row)) {
            all.push(sweep_reference(row));
        }
    }
    run_indexed(all.len(), resolve_parallelism(0), |i| sweep_outcome(all[i]));
    for &row in rows {
        let (grids, reference) = (sweep_outcome(row), sweep_outcome(sweep_reference(row)));
        assert_eq!(grids.len(), reference.len(), "{row:?}: one grid per spec");
        for (i, (reference, grid)) in reference.iter().zip(grids).enumerate() {
            assert!(!reference.points.is_empty(), "{row:?} grid {i}: no points");
            assert!(
                reference.failures.is_empty(),
                "{row:?} grid {i}: {:?}",
                reference.failures
            );
            assert_same_grid(&format!("{row:?} grid {i}"), reference, grid);
        }
    }
    rows.iter().map(|&row| (row, sweep_outcome(row))).collect()
}
