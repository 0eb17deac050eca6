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
//!
//! Every row and reference is computed once per test process.
#![allow(dead_code)]

use green_automl::core::benchmark::BenchmarkPoint;
use green_automl::core::checkpoint::shard_path;
use green_automl::core::executor::{resolve_parallelism, run_indexed};
use green_automl::experiments::ExpConfig;
use green_automl::prelude::*;
use std::collections::HashMap;
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

/// `row`'s outcome, computed on first use and shared by every test of the
/// process.
pub fn outcome(row: Row) -> &'static Outcome {
    type Cells = Mutex<HashMap<Row, &'static OnceLock<Outcome>>>;
    static CELLS: OnceLock<Cells> = OnceLock::new();
    let cell = *CELLS
        .get_or_init(Default::default)
        .lock()
        .expect("no panic while the map is locked")
        .entry(row)
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| compute(row))
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
