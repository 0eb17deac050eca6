//! Crash-safe checkpointing for the benchmark grid.
//!
//! A full paper-scale grid is 28 compute-days; a killed process must not
//! forfeit its completed cells. [`Checkpoint`] persists each finished grid
//! cell to an append-only text file the moment it completes, and on the
//! next run [`benchmark::run_grid_checked`](crate::benchmark::run_grid_checked)
//! replays those cells instead of recomputing them.
//!
//! ## Format
//!
//! The file is line-oriented, tab-separated, append-only:
//!
//! ```text
//! green-automl-checkpoint v1 <fingerprint>
//! point <cell> <system> <dataset> <seed> <ints...> <f64s as hex bits...>
//! done  <cell> <n_points>
//! fail  <cell> <panic message>
//! done  <cell> 0
//! ```
//!
//! Every `f64` is stored as the big-endian hex of its bit pattern
//! (`{:016x}` of `to_bits`), so a replayed cell is **byte-identical** to a
//! recomputed one — the checkpoint cannot perturb the determinism
//! guarantees the equivalence tests assert.
//!
//! ## Kill-safety
//!
//! A cell counts as completed only when its `done` marker is present and
//! its record count matches. A process killed mid-write leaves a torn
//! final line with no `done` marker; the loader discards it and the cell
//! reruns. The fingerprint in the header hashes the grid configuration
//! (systems, datasets, budgets, seeds, fault plan); a mismatch means the
//! file belongs to a different grid and is silently started fresh.

use crate::benchmark::BenchmarkPoint;
use green_automl_energy::hash::fnv1a_p44;
use green_automl_energy::{Measurement, OpCounts};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

const HEADER_PREFIX: &str = "green-automl-checkpoint v1 ";

/// [`fnv1a_p44`] over a word sequence's little-endian bytes — the
/// grid-configuration fingerprint. Names fold in as their own
/// [`fnv1a_p44`] words.
pub fn fingerprint(words: &[u64]) -> u64 {
    fnv1a_p44(words.iter().flat_map(|w| w.to_le_bytes()))
}

/// The replayable outcome of a completed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedCell {
    /// Points the cell produced (empty when the cell failed).
    pub points: Vec<BenchmarkPoint>,
    /// The recorded panic message, if the cell failed.
    pub failure: Option<String>,
}

/// An open checkpoint file: the cells already completed by earlier runs,
/// plus an append-only writer for the cells this run completes.
#[derive(Debug)]
pub struct Checkpoint {
    completed: HashMap<usize, CompletedCell>,
    writer: Mutex<BufWriter<File>>,
}

fn fmt_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn point_line(cell: usize, p: &BenchmarkPoint) -> String {
    let f = [
        p.budget_s,
        p.balanced_accuracy,
        p.execution.duration_s,
        p.execution.energy.package_j,
        p.execution.energy.dram_j,
        p.execution.energy.gpu_j,
        p.execution.ops.scalar_flops,
        p.execution.ops.matmul_flops,
        p.execution.ops.tree_steps,
        p.execution.ops.mem_bytes,
        p.inference_kwh_per_row,
        p.inference_s_per_row,
        p.wasted_j,
    ];
    let hex: Vec<String> = f.iter().map(|&x| fmt_f64(x)).collect();
    format!(
        "point\t{cell}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        p.system,
        p.dataset,
        p.seed,
        p.n_models,
        p.n_evaluations,
        p.n_trial_faults,
        hex.join("\t"),
    )
}

fn parse_point(fields: &[&str]) -> Option<(usize, BenchmarkPoint)> {
    // point cell system dataset seed n_models n_evals n_faults + 13 f64s
    if fields.len() != 21 {
        return None;
    }
    let cell: usize = fields[1].parse().ok()?;
    let mut f = [0.0f64; 13];
    for (slot, s) in f.iter_mut().zip(&fields[8..]) {
        *slot = parse_f64(s)?;
    }
    Some((
        cell,
        BenchmarkPoint {
            // Unknown system names (e.g. a removed test double) fail the
            // parse and the cell simply recomputes.
            system: fields[2].parse().ok()?,
            dataset: fields[3].to_string(),
            seed: fields[4].parse().ok()?,
            n_models: fields[5].parse().ok()?,
            n_evaluations: fields[6].parse().ok()?,
            n_trial_faults: fields[7].parse().ok()?,
            budget_s: f[0],
            balanced_accuracy: f[1],
            execution: Measurement {
                duration_s: f[2],
                energy: green_automl_energy::tracker::EnergyBreakdown {
                    package_j: f[3],
                    dram_j: f[4],
                    gpu_j: f[5],
                },
                ops: OpCounts {
                    scalar_flops: f[6],
                    matmul_flops: f[7],
                    tree_steps: f[8],
                    mem_bytes: f[9],
                },
            },
            inference_kwh_per_row: f[10],
            inference_s_per_row: f[11],
            wasted_j: f[12],
            // Traces are not persisted; replayed points carry none. The
            // `repro trace` artefact always recomputes, so this never
            // perturbs trace determinism.
            trace: None,
        },
    ))
}

/// Parse the body of an existing checkpoint file into its completed cells.
/// Torn or malformed trailing records are ignored, not errors.
fn parse_body(body: &str) -> HashMap<usize, CompletedCell> {
    let mut pending_points: HashMap<usize, Vec<BenchmarkPoint>> = HashMap::new();
    let mut pending_fail: HashMap<usize, String> = HashMap::new();
    let mut completed = HashMap::new();
    for line in body.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.first().copied() {
            Some("point") => {
                if let Some((cell, p)) = parse_point(&fields) {
                    pending_points.entry(cell).or_default().push(p);
                }
            }
            Some("fail") if fields.len() >= 3 => {
                if let Ok(cell) = fields[1].parse::<usize>() {
                    pending_fail.insert(cell, fields[2..].join("\t"));
                }
            }
            Some("done") if fields.len() == 3 => {
                let (cell, n) = match (fields[1].parse::<usize>(), fields[2].parse::<usize>()) {
                    (Ok(c), Ok(n)) => (c, n),
                    _ => continue,
                };
                let mut points = pending_points.remove(&cell).unwrap_or_default();
                let failure = pending_fail.remove(&cell);
                // The marker seals the cell only when every record it
                // promises actually parsed — a torn write stays incomplete.
                // More points than promised means the file also carries an
                // orphaned earlier attempt (a crash tore its `done` away
                // and the cell was re-journalled); each block is written
                // atomically under the writer lock, so the *last* `n`
                // records are the block this marker seals.
                if points.len() >= n && (n > 0 || failure.is_some()) {
                    let points = points.split_off(points.len() - n);
                    completed.insert(cell, CompletedCell { points, failure });
                }
            }
            _ => {}
        }
    }
    completed
}

impl Checkpoint {
    /// Open (or create) the checkpoint at `path` for a grid whose
    /// configuration hashes to `fp`.
    ///
    /// If the file exists and its header fingerprint matches, completed
    /// cells are loaded for replay and new records append. On a missing
    /// file or a fingerprint mismatch the file is started fresh.
    pub fn open(path: &Path, fp: u64) -> std::io::Result<Checkpoint> {
        let header = format!("{HEADER_PREFIX}{fp:016x}");
        let mut torn_tail = false;
        let completed = match File::open(path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                torn_tail = !text.is_empty() && !text.ends_with('\n');
                match text.split_once('\n') {
                    Some((first, body)) if first.trim_end() == header => parse_body(body),
                    _ => HashMap::new(),
                }
            }
            Err(_) => HashMap::new(),
        };
        let file = if completed.is_empty() {
            let mut f = File::create(path)?;
            writeln!(f, "{header}")?;
            f
        } else {
            let mut f = OpenOptions::new().append(true).open(path)?;
            if torn_tail {
                // A record cut mid-line by a crash has no trailing
                // newline; seal it so the first new append starts on a
                // fresh line instead of concatenating into garbage (the
                // parser ignores the blank line this leaves behind).
                f.write_all(b"\n")?;
            }
            f
        };
        Ok(Checkpoint {
            completed,
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The cell's recorded outcome from an earlier run, if it completed.
    pub fn completed(&self, cell: usize) -> Option<&CompletedCell> {
        self.completed.get(&cell)
    }

    /// Number of cells completed by earlier runs.
    pub fn n_completed(&self) -> usize {
        self.completed.len()
    }

    /// Lock the append writer, recovering from poison.
    ///
    /// A grid worker that panics *while holding* this lock (a `catch_cell`
    /// boundary sits above every caller, so a mid-`write_all` panic is the
    /// realistic case) poisons the mutex. Panicking in turn here would let
    /// one dead shard writer take down checkpointing — and therefore
    /// resume — for every other worker in the run. Instead we take the
    /// inner writer back, seal whatever torn partial line the panicker
    /// left with a newline (the loader ignores blank lines, and a sealed
    /// torn record parses as malformed and is discarded, so the cell
    /// simply recomputes), and clear the poison flag for later callers.
    fn writer(&self) -> MutexGuard<'_, BufWriter<File>> {
        match self.writer.lock() {
            Ok(w) => w,
            Err(poisoned) => {
                let mut w = poisoned.into_inner();
                let _ = w.write_all(b"\n");
                self.writer.clear_poison();
                w
            }
        }
    }

    /// Persist a successful cell: its points plus the sealing `done`
    /// marker, written and flushed atomically with respect to other cells.
    pub fn record_points(&self, cell: usize, points: &[BenchmarkPoint]) -> std::io::Result<()> {
        let mut block = String::new();
        for p in points {
            block.push_str(&point_line(cell, p));
            block.push('\n');
        }
        block.push_str(&format!("done\t{cell}\t{}\n", points.len()));
        let mut w = self.writer();
        w.write_all(block.as_bytes())?;
        w.flush()
    }

    /// Persist a failed cell: the panic message (newlines and tabs
    /// flattened) plus its `done` marker.
    pub fn record_failure(&self, cell: usize, message: &str) -> std::io::Result<()> {
        let clean: String = message
            .chars()
            .map(|c| if c == '\n' || c == '\t' { ' ' } else { c })
            .collect();
        let block = format!("fail\t{cell}\t{clean}\ndone\t{cell}\t0\n");
        let mut w = self.writer();
        w.write_all(block.as_bytes())?;
        w.flush()
    }
}

/// The checkpoint path of host `host` in an `n_hosts`-wide cluster run.
///
/// A single-host run keeps the caller's path untouched, so `--checkpoint`
/// files written before the cluster executor existed resume unchanged.
/// Multi-host runs give each host its own journal file (`grid.ckpt.h0`,
/// `grid.ckpt.h1`, …) sharing one grid fingerprint: a killed run resumes
/// per shard, and because the fingerprint excludes topology, shards
/// written at one (hosts × jobs) shape replay at any other.
pub fn shard_path(path: &Path, host: usize, n_hosts: usize) -> PathBuf {
    if n_hosts <= 1 {
        return path.to_path_buf();
    }
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(&format!(".h{host}"));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_automl_energy::tracker::EnergyBreakdown;

    fn sample_point(seed: u64) -> BenchmarkPoint {
        BenchmarkPoint {
            system: green_automl_systems::SystemId::Flaml,
            dataset: "blood-transfusion-service-center".to_string(),
            budget_s: 10.0,
            seed,
            balanced_accuracy: 0.731_234_567_891,
            execution: Measurement {
                duration_s: 10.25,
                energy: EnergyBreakdown {
                    package_j: 291.125,
                    dram_j: 61.5,
                    gpu_j: 0.0,
                },
                ops: OpCounts {
                    scalar_flops: 2.0e10,
                    matmul_flops: 1.0e9,
                    tree_steps: 3.0e8,
                    mem_bytes: 4.0e9,
                },
            },
            inference_kwh_per_row: 1.234e-9,
            inference_s_per_row: 5.678e-6,
            n_models: 1,
            n_evaluations: 17,
            n_trial_faults: 2,
            wasted_j: 13.0625,
            trace: None,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("green-automl-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn points_round_trip_bitwise() {
        let p = sample_point(42);
        let line = point_line(7, &p);
        let fields: Vec<&str> = line.split('\t').collect();
        let (cell, q) = parse_point(&fields).expect("round trip");
        assert_eq!(cell, 7);
        assert_eq!(q.balanced_accuracy.to_bits(), p.balanced_accuracy.to_bits());
        assert_eq!(
            q.execution.energy.package_j.to_bits(),
            p.execution.energy.package_j.to_bits()
        );
        assert_eq!(q.wasted_j.to_bits(), p.wasted_j.to_bits());
        assert_eq!(format!("{q:?}"), format!("{p:?}"));
    }

    #[test]
    fn open_record_reopen_replays_completed_cells() {
        let path = tmp("roundtrip.ckpt");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint(&[1, 2, 3]);
        {
            let ck = Checkpoint::open(&path, fp).unwrap();
            assert_eq!(ck.n_completed(), 0);
            ck.record_points(0, &[sample_point(1), sample_point(2)])
                .unwrap();
            ck.record_failure(1, "cell 1 poisoned:\n\tdetails").unwrap();
        }
        let ck = Checkpoint::open(&path, fp).unwrap();
        assert_eq!(ck.n_completed(), 2);
        assert_eq!(ck.completed(0).unwrap().points.len(), 2);
        assert_eq!(ck.completed(0).unwrap().points[1].seed, 2);
        let fail = ck.completed(1).unwrap();
        assert!(fail.points.is_empty());
        assert_eq!(fail.failure.as_deref(), Some("cell 1 poisoned:  details"));
        assert!(ck.completed(2).is_none());
    }

    #[test]
    fn torn_trailing_record_is_discarded() {
        let path = tmp("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint(&[9]);
        {
            let ck = Checkpoint::open(&path, fp).unwrap();
            ck.record_points(0, &[sample_point(1)]).unwrap();
            ck.record_points(1, &[sample_point(2)]).unwrap();
        }
        // Simulate a kill mid-write: drop the final `done` marker and half
        // of the last point line.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let truncated = format!(
            "{}\n{}",
            lines[..lines.len() - 2].join("\n"),
            &lines[lines.len() - 2][..20]
        );
        std::fs::write(&path, truncated).unwrap();

        let ck = Checkpoint::open(&path, fp).unwrap();
        assert_eq!(ck.n_completed(), 1, "only the sealed cell survives");
        assert!(ck.completed(0).is_some());
        assert!(ck.completed(1).is_none());
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let path = tmp("mismatch.ckpt");
        let _ = std::fs::remove_file(&path);
        {
            let ck = Checkpoint::open(&path, fingerprint(&[1])).unwrap();
            ck.record_points(0, &[sample_point(1)]).unwrap();
        }
        let ck = Checkpoint::open(&path, fingerprint(&[2])).unwrap();
        assert_eq!(ck.n_completed(), 0, "other grid's cells must not replay");
        // And the stale file was truncated, so reopening under the new
        // fingerprint still finds a valid (empty) checkpoint.
        let again = Checkpoint::open(&path, fingerprint(&[2])).unwrap();
        assert_eq!(again.n_completed(), 0);
    }

    #[test]
    fn poisoned_writer_recovers_and_later_cells_still_checkpoint() {
        let path = tmp("poison.ckpt");
        let _ = std::fs::remove_file(&path);
        let fp = fingerprint(&[77]);
        let ck = std::sync::Arc::new(Checkpoint::open(&path, fp).unwrap());

        // A worker writes a partial (unsealed) record and dies holding the
        // writer lock — the mutex is now poisoned mid-line.
        let ck2 = std::sync::Arc::clone(&ck);
        let _ = std::thread::spawn(move || {
            let mut w = ck2.writer.lock().unwrap();
            w.write_all(b"point\t5\ttorn-partial").unwrap();
            w.flush().unwrap();
            panic!("worker dies holding the checkpoint writer");
        })
        .join();
        assert!(ck.writer.is_poisoned());

        // Surviving workers keep journaling: the poisoned lock is
        // recovered, the torn line sealed, and later records land intact.
        ck.record_points(0, &[sample_point(3)]).unwrap();
        assert!(!ck.writer.is_poisoned());
        ck.record_failure(1, "late failure").unwrap();
        drop(ck);

        let ck = Checkpoint::open(&path, fp).unwrap();
        assert_eq!(ck.n_completed(), 2);
        assert_eq!(ck.completed(0).unwrap().points[0].seed, 3);
        assert_eq!(
            ck.completed(1).unwrap().failure.as_deref(),
            Some("late failure")
        );
        assert!(ck.completed(5).is_none(), "torn record must not seal");
    }

    #[test]
    fn shard_paths_are_stable_and_single_host_is_untouched() {
        let base = Path::new("/tmp/run/grid.ckpt");
        assert_eq!(shard_path(base, 0, 1), base);
        assert_eq!(shard_path(base, 0, 4), Path::new("/tmp/run/grid.ckpt.h0"));
        assert_eq!(shard_path(base, 3, 4), Path::new("/tmp/run/grid.ckpt.h3"));
        // Shards of different hosts never collide.
        assert_ne!(shard_path(base, 1, 2), shard_path(base, 0, 2));
    }

    #[test]
    fn fingerprints_differ_when_any_word_changes() {
        let base = fingerprint(&[1, 2, 3]);
        assert_ne!(base, fingerprint(&[1, 2, 4]));
        assert_ne!(base, fingerprint(&[3, 2, 1]));
        assert_ne!(base, fingerprint(&[1, 2]));
        assert_eq!(base, fingerprint(&[1, 2, 3]));
    }
}
