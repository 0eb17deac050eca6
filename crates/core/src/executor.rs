//! Work-queue execution of independent benchmark cells.
//!
//! The paper's protocol is a 39-dataset × 7-system × 4-budget × N-run grid
//! that took 28 compute-days on a 28-core Xeon — yet every cell is
//! independent: it owns its own [`CostTracker`](green_automl_energy::CostTracker),
//! so virtual-energy accounting cannot observe which thread (or in what
//! order) a cell ran. This module exploits that: [`run_indexed`] fans tasks
//! out over `std::thread` workers pulling indices from a shared atomic
//! counter, and reassembles results **in task-index order**, so a parallel
//! grid is byte-identical to the serial one.
//!
//! [`DatasetCache`] removes the other serial-loop waste: `run_once`
//! materializes its dataset per cell, a 7-system × 4-budget redundancy per
//! (dataset, seed). The cache synthesizes each (meta, options, seed)
//! combination once and shares it via `Arc`.

use green_automl_dataset::{Dataset, DatasetMeta, MaterializeOptions};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Resolve a `parallelism` knob: `0` means one worker per available core,
/// any other value is used as given.
pub fn resolve_parallelism(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Run `task(0..n_tasks)` on `workers` threads and return the results in
/// index order — the parallel schedule is unobservable in the output.
///
/// `workers == 1` (or a single task) runs inline with no thread overhead,
/// which is the reference serial schedule the equivalence tests compare
/// against.
pub fn run_indexed<T, F>(n_tasks: usize, workers: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers >= 1, "need at least one worker");
    if workers == 1 || n_tasks <= 1 {
        return (0..n_tasks).map(task).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_tasks) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let result = task(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("scope joined every worker, so every slot is filled")
        })
        .collect()
}

/// What became of one grid cell: a result, or the panic that killed it.
///
/// A poisoned cell must not abort the grid — 28 compute-days of siblings
/// may be riding on the same run. [`catch_cell`] converts a cell's panic
/// into a recorded `Failed` so the caller can report it and keep every
/// other cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// The task completed and produced a value.
    Ok(T),
    /// The task panicked; the payload is the panic message (or a
    /// placeholder when the payload was not a string).
    Failed(String),
}

/// Render a panic payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one cell body under [`catch_unwind`], converting a panic into
/// [`CellOutcome::Failed`] with its message.
pub fn catch_cell<T>(f: impl FnOnce() -> T) -> CellOutcome<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => CellOutcome::Ok(v),
        Err(payload) => CellOutcome::Failed(panic_message(payload)),
    }
}

/// Cache key: the dataset identity plus everything `materialize` reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    openml_id: u32,
    name: &'static str,
    instances: usize,
    features: usize,
    classes: usize,
    max_rows: usize,
    min_rows_per_class: usize,
    max_features: usize,
    max_row_frac_bits: u64,
    seed: u64,
}

impl CacheKey {
    fn new(meta: &DatasetMeta, opts: &MaterializeOptions) -> CacheKey {
        CacheKey {
            openml_id: meta.openml_id,
            name: meta.name,
            instances: meta.instances,
            features: meta.features,
            classes: meta.classes,
            max_rows: opts.max_rows,
            min_rows_per_class: opts.min_rows_per_class,
            max_features: opts.max_features,
            max_row_frac_bits: opts.max_row_frac.to_bits(),
            seed: opts.seed,
        }
    }
}

/// A concurrent, deterministic dataset materialization cache.
///
/// Each (meta, options, seed) combination is synthesized exactly once —
/// workers needing the same dataset block on its `OnceLock` rather than
/// duplicating the synthesis, while workers needing *different* datasets
/// proceed in parallel (the map lock is only held for the lookup).
#[derive(Debug, Default)]
pub struct DatasetCache {
    map: Mutex<HashMap<CacheKey, Arc<OnceLock<Arc<Dataset>>>>>,
}

impl DatasetCache {
    /// An empty cache.
    pub fn new() -> DatasetCache {
        DatasetCache::default()
    }

    /// Materialize `meta` under `opts`, or return the shared copy if an
    /// identical materialization already ran.
    pub fn materialize(&self, meta: &DatasetMeta, opts: &MaterializeOptions) -> Arc<Dataset> {
        let key = CacheKey::new(meta, opts);
        let slot = {
            let mut map = self.map.lock().expect("dataset cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(meta.materialize(opts))))
    }

    /// Number of distinct materializations performed so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("dataset cache poisoned").len()
    }

    /// `true` if nothing has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_dataset::amlb39;

    #[test]
    fn serial_and_parallel_schedules_agree() {
        let squares: Vec<usize> = run_indexed(100, 1, |i| i * i);
        for workers in [2, 4, 8] {
            assert_eq!(run_indexed(100, workers, |i| i * i), squares);
        }
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(run_indexed(3, 16, |i| i), vec![0, 1, 2]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn zero_parallelism_resolves_to_all_cores() {
        assert!(resolve_parallelism(0) >= 1);
        assert_eq!(resolve_parallelism(3), 3);
    }

    #[test]
    fn a_panicking_task_is_recorded_not_propagated() {
        let outcomes = run_indexed(5, 2, |i| {
            catch_cell(|| match i {
                1 => panic!("a static message"),
                2 => panic!("cell {i} poisoned"),
                3 => std::panic::panic_any(7_u8),
                _ => i * 10,
            })
        });
        assert_eq!(outcomes[0], CellOutcome::Ok(0));
        assert_eq!(outcomes[1], CellOutcome::Failed("a static message".into()));
        assert_eq!(outcomes[2], CellOutcome::Failed("cell 2 poisoned".into()));
        assert_eq!(
            outcomes[3],
            CellOutcome::Failed("non-string panic payload".into())
        );
        assert_eq!(outcomes[4], CellOutcome::Ok(40));
    }

    #[test]
    fn cache_materializes_each_combination_once() {
        let cache = DatasetCache::new();
        let metas = amlb39();
        let meta = &metas[38];
        let opts = MaterializeOptions::tiny();
        let a = cache.materialize(meta, &opts);
        let b = cache.materialize(meta, &opts);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc");
        assert_eq!(cache.len(), 1);

        let other_seed = MaterializeOptions { seed: 1, ..opts };
        let c = cache.materialize(meta, &other_seed);
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_dataset_equals_direct_materialization() {
        let cache = DatasetCache::new();
        let metas = amlb39();
        let meta = &metas[38];
        let opts = MaterializeOptions::tiny();
        assert_eq!(*cache.materialize(meta, &opts), meta.materialize(&opts));
    }

    #[test]
    fn concurrent_lookups_share_one_materialization() {
        let cache = DatasetCache::new();
        let metas = amlb39();
        let meta = metas[38];
        let opts = MaterializeOptions::tiny();
        let datasets = run_indexed(16, 8, |_| cache.materialize(&meta, &opts));
        assert_eq!(cache.len(), 1);
        for ds in &datasets[1..] {
            assert!(Arc::ptr_eq(&datasets[0], ds));
        }
    }
}
