//! Deterministic span tracing over the virtual power meter.
//!
//! The paper's contribution is *attributing* energy to stages; a bare
//! [`CostTracker`](crate::CostTracker) only knows end-of-run totals. This
//! module adds the attribution layer: code under measurement opens and
//! closes **spans** — typed, nestable intervals keyed by a [`SpanKind`] —
//! and every closed span carries the domain-wise [`EnergyBreakdown`] delta,
//! the virtual-time interval, and the [`OpCounts`] of everything charged
//! inside it (its whole subtree).
//!
//! ## Determinism invariants
//!
//! The trace is as reproducible as the measurement itself:
//!
//! * **Timestamps** come from the [`VirtualClock`](crate::VirtualClock),
//!   never the wall clock.
//! * **Span ids** are pure functions of the tracer seed and the span's
//!   open sequence number ([`span_id`]), so ids survive re-runs and do not
//!   depend on thread scheduling.
//! * **Serialisation** ([`Trace::to_jsonl`], [`Trace::to_chrome_trace`])
//!   formats every `f64` with Rust's shortest-round-trip `Display`, which
//!   is a deterministic function of the bit pattern.
//!
//! Together these make the serialized trace of a parallel benchmark grid
//! byte-identical at every worker count — the observability output inherits
//! the equivalence guarantees of the numbers it explains.

use crate::fault::FaultKind;
use crate::hash::mix64;
use crate::ops::OpCounts;
use crate::tracker::{EnergyBreakdown, Measurement};

/// What a span measures — the trace's typed vocabulary.
///
/// Ordering follows nesting depth in a typical run (a `System` span
/// contains `Stage` spans, which contain `Trial` spans, …), but any
/// nesting is legal: the tracer only records what the call sites open.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// One AutoML system's whole `fit` (the execution stage root).
    System,
    /// One Green-AutoML stage: development, execution, or inference.
    Stage,
    /// One search trial (a pipeline evaluation, a bagged model training).
    Trial,
    /// One cross-validation or bagging fold inside a trial.
    Fold,
    /// Work attributed to one dataset (e.g. the inference pass on it).
    Dataset,
    /// One micro-batch executed by the serving layer.
    Batch,
    /// One serving replica's lifetime (busy + idle).
    Replica,
    /// One cluster host's lifetime in a simulated multi-host grid run.
    Host,
    /// One network transfer (dataset shipping, result collection,
    /// cache sync) between cluster hosts.
    Transfer,
}

impl SpanKind {
    /// All kinds, in declaration order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::System,
        SpanKind::Stage,
        SpanKind::Trial,
        SpanKind::Fold,
        SpanKind::Dataset,
        SpanKind::Batch,
        SpanKind::Replica,
        SpanKind::Host,
        SpanKind::Transfer,
    ];

    /// Stable lowercase name used by the sinks.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::System => "system",
            SpanKind::Stage => "stage",
            SpanKind::Trial => "trial",
            SpanKind::Fold => "fold",
            SpanKind::Dataset => "dataset",
            SpanKind::Batch => "batch",
            SpanKind::Replica => "replica",
            SpanKind::Host => "host",
            SpanKind::Transfer => "transfer",
        }
    }
}

impl std::fmt::Display for SpanKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One closed span: a typed virtual-time interval with the energy, ops,
/// and fault outcome of its subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Deterministic id ([`span_id`] of the tracer seed and open order).
    pub id: u64,
    /// Id of the enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// What this span measures.
    pub kind: SpanKind,
    /// Human-readable label ("FLAML", "trial 17", "batch 3", …).
    pub label: String,
    /// Render lane for exporters (0 within one tracker; merged traces
    /// assign one lane per source so concurrent timelines do not overlap).
    pub track: u32,
    /// Virtual start time, seconds.
    pub start_s: f64,
    /// Virtual end time, seconds.
    pub end_s: f64,
    /// Domain-wise energy charged between open and close (subtree total).
    pub energy: EnergyBreakdown,
    /// Operations charged between open and close (subtree total).
    pub ops: OpCounts,
    /// The injected fault that ended this span, if any.
    pub fault: Option<FaultKind>,
}

impl Span {
    /// Virtual duration, seconds.
    #[inline]
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Domain-separation tag for span ids (ASCII "span").
const TAG_SPAN: u64 = 0x7370_616e;

/// The deterministic id of the `seq`-th span opened by a tracer seeded
/// with `seed`: the SplitMix64 finaliser fault injection also uses, under
/// its own tag. Pure, schedule-independent, and never zero in practice.
#[inline]
pub fn span_id(seed: u64, seq: u64) -> u64 {
    mix64(seed ^ mix64(seq.wrapping_add(1) ^ TAG_SPAN))
}

/// Records spans against a [`CostTracker`](crate::CostTracker)'s
/// measurement snapshots.
///
/// The tracker owns the tracer and feeds it [`Measurement`] snapshots on
/// open/close; the tracer itself never touches the clock or the meter, so
/// **tracing is zero-cost on the virtual timeline** — enabling it cannot
/// change any measured number.
#[derive(Debug, Clone)]
pub struct Tracer {
    seed: u64,
    next_seq: u64,
    spans: Vec<Span>,
    /// Stack of open spans: (index into `spans`, snapshot at open).
    open: Vec<(usize, Measurement)>,
}

impl Tracer {
    /// A tracer whose span ids derive from `seed` (use the run seed).
    pub fn new(seed: u64) -> Tracer {
        Tracer {
            seed,
            next_seq: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span at the state captured by `snapshot`.
    pub fn open(&mut self, kind: SpanKind, label: String, snapshot: Measurement) {
        let id = span_id(self.seed, self.next_seq);
        self.next_seq += 1;
        let parent = self.open.last().map(|&(i, _)| self.spans[i].id);
        let idx = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            kind,
            label,
            track: 0,
            start_s: snapshot.duration_s,
            end_s: snapshot.duration_s,
            energy: EnergyBreakdown::default(),
            ops: OpCounts::ZERO,
            fault: None,
        });
        self.open.push((idx, snapshot));
    }

    /// Close the innermost open span at `snapshot`, recording the delta
    /// since its open and the fault that ended it (if any).
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn close(&mut self, snapshot: Measurement, fault: Option<FaultKind>) {
        let (idx, opened) = self.open.pop().expect("span_close without an open span");
        let d = snapshot.since(&opened);
        let span = &mut self.spans[idx];
        span.end_s = snapshot.duration_s;
        span.energy = d.energy;
        span.ops = d.ops;
        span.fault = fault;
    }

    /// Number of spans still open.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Close any spans still open at `snapshot` and return the finished
    /// trace, in span-open order.
    pub fn finish(mut self, snapshot: Measurement) -> Trace {
        while !self.open.is_empty() {
            self.close(snapshot, None);
        }
        Trace { spans: self.spans }
    }
}

/// A finished sequence of spans, in span-open order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// All recorded spans.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace.
    pub fn empty() -> Trace {
        Trace::default()
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The root spans (those without a parent), in open order.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Sum of the root spans' energy.
    ///
    /// For a trace whose single root covers the tracker's whole lifetime
    /// this is **bitwise equal** to the tracker's final
    /// [`EnergyBreakdown`]: the root's delta is `final − 0`, and IEEE-754
    /// subtraction of zero is exact.
    pub fn root_energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for s in self.roots() {
            total.package_j += s.energy.package_j;
            total.dram_j += s.energy.dram_j;
            total.gpu_j += s.energy.gpu_j;
        }
        total
    }

    /// Shift every span by `dt` virtual seconds (used to re-base a
    /// tracker-local trace onto a global timeline, e.g. a serving batch
    /// onto its dispatch instant).
    pub fn shift(&mut self, dt: f64) {
        for s in &mut self.spans {
            s.start_s += dt;
            s.end_s += dt;
        }
    }

    /// Assign every span to render lane `track`.
    pub fn set_track(&mut self, track: u32) {
        for s in &mut self.spans {
            s.track = track;
        }
    }

    /// Concatenate traces in iteration order. Span ids stay unique as
    /// long as the sources were seeded distinctly; parent links are
    /// source-local, so merging never re-parents anything.
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut spans = Vec::new();
        for t in traces {
            spans.extend(t.spans);
        }
        Trace { spans }
    }

    /// Serialize as JSON Lines: one span object per line, fields in a
    /// fixed order, `f64`s via shortest-round-trip `Display`. Identical
    /// traces serialize to identical bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str("{\"id\":\"");
            out.push_str(&format!("{:016x}", s.id));
            out.push_str("\",\"parent\":");
            match s.parent {
                Some(p) => out.push_str(&format!("\"{p:016x}\"")),
                None => out.push_str("null"),
            }
            out.push_str(",\"kind\":\"");
            out.push_str(s.kind.as_str());
            out.push_str("\",\"label\":\"");
            out.push_str(&json_escape(&s.label));
            out.push_str("\",\"track\":");
            out.push_str(&s.track.to_string());
            push_f64_field(&mut out, "start_s", s.start_s);
            push_f64_field(&mut out, "end_s", s.end_s);
            push_f64_field(&mut out, "package_j", s.energy.package_j);
            push_f64_field(&mut out, "dram_j", s.energy.dram_j);
            push_f64_field(&mut out, "gpu_j", s.energy.gpu_j);
            push_f64_field(&mut out, "scalar_flops", s.ops.scalar_flops);
            push_f64_field(&mut out, "matmul_flops", s.ops.matmul_flops);
            push_f64_field(&mut out, "tree_steps", s.ops.tree_steps);
            push_f64_field(&mut out, "mem_bytes", s.ops.mem_bytes);
            out.push_str(",\"fault\":");
            match s.fault {
                Some(k) => {
                    out.push('"');
                    out.push_str(k.as_str());
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        out
    }

    /// Export in the Chrome `trace_event` JSON format (load in
    /// `chrome://tracing` or Perfetto): one complete (`"ph":"X"`) event
    /// per span, timestamps in microseconds of virtual time, one `tid`
    /// per render lane. Deterministic for the same reason as
    /// [`Trace::to_jsonl`].
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            out.push_str(&json_escape(&s.label));
            out.push_str("\",\"cat\":\"");
            out.push_str(s.kind.as_str());
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            out.push_str(&format!("{}", s.start_s * 1e6));
            out.push_str(",\"dur\":");
            out.push_str(&format!("{}", s.duration_s() * 1e6));
            out.push_str(",\"pid\":0,\"tid\":");
            out.push_str(&s.track.to_string());
            out.push_str(",\"args\":{");
            out.push_str(&format!("\"id\":\"{:016x}\"", s.id));
            push_f64_field(&mut out, "package_j", s.energy.package_j);
            push_f64_field(&mut out, "dram_j", s.energy.dram_j);
            push_f64_field(&mut out, "gpu_j", s.energy.gpu_j);
            if let Some(k) = s.fault {
                out.push_str(",\"fault\":\"");
                out.push_str(k.as_str());
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Append `,"name":value` with deterministic f64 formatting.
fn push_f64_field(out: &mut String, name: &str, value: f64) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    out.push_str(&format!("{value}"));
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(t: f64, pkg: f64) -> Measurement {
        Measurement {
            duration_s: t,
            energy: EnergyBreakdown {
                package_j: pkg,
                dram_j: 0.0,
                gpu_j: 0.0,
            },
            ops: OpCounts::ZERO,
        }
    }

    #[test]
    fn spans_nest_and_carry_subtree_deltas() {
        let mut tr = Tracer::new(7);
        tr.open(SpanKind::System, "sys".into(), meas(0.0, 0.0));
        tr.open(SpanKind::Trial, "trial 0".into(), meas(1.0, 10.0));
        tr.close(meas(2.0, 25.0), None);
        let t = tr.finish(meas(3.0, 30.0));

        assert_eq!(t.len(), 2);
        let sys = &t.spans[0];
        let trial = &t.spans[1];
        assert_eq!(sys.parent, None);
        assert_eq!(trial.parent, Some(sys.id));
        assert_eq!(trial.start_s, 1.0);
        assert_eq!(trial.end_s, 2.0);
        assert_eq!(trial.energy.package_j, 15.0);
        // The root span covers the whole lifetime and reconciles exactly.
        assert_eq!(sys.duration_s(), 3.0);
        assert_eq!(t.root_energy().package_j.to_bits(), 30.0f64.to_bits());
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut tr = Tracer::new(1);
        tr.open(SpanKind::System, "sys".into(), meas(0.0, 0.0));
        tr.open(SpanKind::Trial, "t".into(), meas(1.0, 5.0));
        assert_eq!(tr.open_depth(), 2);
        let t = tr.finish(meas(4.0, 9.0));
        assert!(t.spans.iter().all(|s| s.end_s == 4.0));
    }

    #[test]
    fn span_ids_are_pure_in_seed_and_sequence() {
        assert_eq!(span_id(42, 0), span_id(42, 0));
        assert_ne!(span_id(42, 0), span_id(42, 1));
        assert_ne!(span_id(42, 0), span_id(43, 0));
    }

    #[test]
    fn fault_tags_survive_serialisation() {
        let mut tr = Tracer::new(3);
        tr.open(SpanKind::Trial, "doomed".into(), meas(0.0, 0.0));
        tr.close(meas(0.5, 2.0), Some(FaultKind::OomKill));
        let t = tr.finish(meas(0.5, 2.0));
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"fault\":\"oom\""));
        assert!(jsonl.contains("\"kind\":\"trial\""));
        let chrome = t.to_chrome_trace();
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"fault\":\"oom\""));
    }

    #[test]
    fn serialisation_is_reproducible() {
        let build = || {
            let mut tr = Tracer::new(11);
            tr.open(SpanKind::System, "s \"x\"\n".into(), meas(0.0, 0.0));
            tr.open(SpanKind::Trial, "t".into(), meas(0.25, 1.5));
            tr.close(meas(0.75, 3.25), None);
            tr.finish(meas(1.0, 4.0))
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_chrome_trace(), b.to_chrome_trace());
        // Escapes keep each span on one line.
        assert_eq!(a.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn merge_shift_and_track_compose() {
        let mut a = {
            let mut tr = Tracer::new(1);
            tr.open(SpanKind::Batch, "b0".into(), meas(0.0, 0.0));
            tr.finish(meas(1.0, 2.0))
        };
        a.shift(10.0);
        a.set_track(3);
        let b = {
            let mut tr = Tracer::new(2);
            tr.open(SpanKind::Batch, "b1".into(), meas(0.0, 0.0));
            tr.finish(meas(1.0, 2.0))
        };
        let m = Trace::merge([a, b]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.spans[0].start_s, 10.0);
        assert_eq!(m.spans[0].track, 3);
        assert_eq!(m.spans[1].start_s, 0.0);
        assert_ne!(m.spans[0].id, m.spans[1].id);
    }
}
