//! The repository benchmark: times the library's public entry points on
//! three workloads and checks their outputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro|grid|serve> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` sets the workload up several times, then repeats its timed
//! part until `--seconds` have passed and prints the end-to-end metrics
//! (medians over the repetitions). `--trace 1` runs the separate layer run
//! instead and prints the per-layer metrics. Every metric is printed by
//! name and unit; the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 1 when
//! any output check fails and 2 on a malformed command line. See NOTES.md
//! for why each workload and metric exists.

mod layers;
mod probe;
mod workloads;

use probe::{json_line, measure, median, timed, Metric};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Grid, Repro, Serve, Workload};

/// Set-ups per timed invocation; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str =
    "usage: perfbench --workload <repro|grid|serve> [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["repro", "grid", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// What one invocation measured.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Set the workload up `SETUPS` times, then repeat its timed part until
/// `seconds` have passed (at least once).
fn timed_runs<W: Workload>(seed: u64, seconds: f64, nproc: usize) -> Report {
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let (built, t) = timed(|| W::setup(seed, nproc));
        setup_s.push(t);
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up");

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut parts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut digests = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (outcome, wall, cpu) = measure(|| workload.rep());
        println!(
            "rep {}: wall {wall:.4} s, cpu {cpu:.2} s, failed {}, digest {:016x}",
            walls.len(),
            outcome.failed,
            outcome.digest
        );
        walls.push(wall);
        cpus.push(cpu);
        for (name, work, s) in outcome.parts {
            parts.entry(name).or_default().push(work as f64 / s);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        digests.push(outcome.digest);
    }
    // Every repetition of one invocation must produce the same outputs.
    attempted += 1;
    if digests.iter().any(|&d| d != digests[0]) {
        eprintln!("output digests differ across repetitions: {digests:x?}");
        failed += 1;
    }
    println!(
        "digest {:016x}; {} repetition(s), {} set-up(s); medians below",
        digests[0],
        walls.len(),
        setup_s.len()
    );
    for (name, values) in &parts {
        println!("metric {name} = {} 1/s", median(values));
    }
    println!(
        "metric failed_frac = {} ratio",
        failed as f64 / attempted as f64
    );
    Report {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", median(&walls), "s"),
            Metric::new("cpu_s", median(&cpus), "s"),
            Metric::new("peak_rss_mb", probe::peak_rss_mb(), "MiB"),
            Metric::new("setup_s", median(&setup_s), "s"),
        ],
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Keep every file the library writes (artefacts, checkpoints) inside
    // the working directory, and remove it afterwards.
    let tmp = std::env::current_dir()
        .expect("the working directory exists")
        .join(".bench_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    std::env::set_var("TMPDIR", &tmp);

    let nproc = probe::nproc();
    println!("{}", probe::context_line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        let (metrics, checks) = layers::run(args.seed, nproc);
        Report {
            attempted: checks.attempted,
            failed: checks.failed,
            metrics,
        }
    } else {
        match args.workload.as_str() {
            "repro" => timed_runs::<Repro>(args.seed, args.seconds, nproc),
            "grid" => timed_runs::<Grid>(args.seed, args.seconds, nproc),
            _ => timed_runs::<Serve>(args.seed, args.seconds, nproc),
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(tmp.parent().expect("scratch dir has a parent"));

    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = finite && report.failed == 0;
    let metrics: Vec<Metric> = report
        .metrics
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                m
            } else {
                Metric::new(m.name, 0.0, m.unit)
            }
        })
        .collect();
    println!(
        "{}",
        json_line(correct, report.attempted.max(1), report.failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
