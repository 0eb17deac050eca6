//! Process probes read from `/proc` (no extra crates, so the build stays
//! offline), the run context printed beside every result, and the metric,
//! statistics and JSON helpers the report needs.

use std::time::Instant;

/// Clock ticks per second of the times in `/proc/<pid>/stat` (`USER_HZ`,
/// part of the Linux user-space ABI: always 100).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, all threads
/// included (10 ms resolution).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; every field after its
    // closing parenthesis is space-separated, starting at field 3.
    let close = stat
        .rfind(')')
        .expect("/proc/self/stat has a command field");
    let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
    let field = |n: usize| -> f64 {
        fields[n - 3]
            .parse()
            .expect("/proc/self/stat times are integers")
    };
    (field(14) + field(15)) / USER_HZ
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kb / 1024.0
}

/// Worker threads the benchmark may use: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The context every result is recorded with.
pub fn context_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "context: nproc={} cpu=\"{}\" rustc=\"{}\" git={} profile={}",
        nproc(),
        cpu,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_GIT_REV"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Wall seconds and CPU seconds spent in `f`, with its result.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, cpu_s() - cpu0)
}

/// Wall seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The result line: one JSON object, printed last on stdout.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
