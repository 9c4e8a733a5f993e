//! Deterministic solver observability: tick-stamped span events, phase
//! attribution and pluggable [`TraceSink`]s.
//!
//! Everything in this module is metered in **deterministic ticks** (see
//! [`DeterministicClock`]) — never wall time —
//! so traces are as reproducible as the solves they observe. The design
//! splits into three layers:
//!
//! * **Span events** ([`SpanEvent`], [`SpanKind`]): every unit of solver
//!   work — a presolve pass, the root LP, a cut round, a dive, a node
//!   expansion, a basis refactorisation, an LNS round — is recorded as
//!   one flat, tick-stamped event. Events are buffered per worker (plain
//!   `Vec` pushes on the hot path, no locking, no clock interaction) and
//!   merged in **fixed worker order** when the solve ends, so
//!   [`ParallelMode::Deterministic`](crate::ParallelMode) traces are
//!   byte-identical run-to-run at a fixed thread count.
//! * **Phase breakdown** ([`PhaseBreakdown`], [`Phase`]): every
//!   deterministic tick the solver charges is attributed to the phase
//!   that spent it (presolve / root LP / cuts / dives / tree / LNS),
//!   so the per-phase tick totals sum to the run's `det_time` — the
//!   split rides on every [`SolveResult`](crate::SolveResult), traced
//!   or not.
//! * **Sinks** ([`TraceSink`]): a ring buffer ([`RingSink`]) and a
//!   JSONL writer ([`JsonlSink`]), which also writes the periodic
//!   progress rows ([`ProgressRow`]). Installed through
//!   [`SolverConfig::with_trace`](crate::SolverConfig::with_trace) as a
//!   shared [`TraceHandle`]; with no sink installed the solver records
//!   nothing and its results stay bit-identical to an untraced build.
//!
//! The std-only constraint is deliberate: like the `crates/compat` stubs,
//! this subsystem must build without the `tracing` ecosystem, so the
//! event model is a plain struct and the JSONL writer is hand-rolled.
//!
//! # Lock-order contract
//!
//! The shared `sink` (`Mutex<dyn TraceSink>` inside [`TraceHandle`]) is
//! the only lock this module touches, and per the workspace lock-order
//! contract (`docs/lock_order.md`, proven by `croxmap-lint`'s
//! `lock-order` pass) it is acquired **only while holding no other
//! lock**: sink emission happens after worker buffers are drained, never
//! under `parallel.rs`'s deque or exchange guards. Keep it that way —
//! a sink callback that reached back into the exchange would add a
//! `sink → inner` edge to the committed graph and invite a cycle.

use crate::clock::DeterministicClock;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The span taxonomy: which unit of solver work an event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One root presolve run (`count` = reduction rounds).
    PresolvePass,
    /// The first root relaxation solve (`count` = LP iterations,
    /// `value` = root objective).
    RootLp,
    /// One root cutting-plane round: separate + `add_rows` + re-solve
    /// (`count` = cuts appended, `value` = root objective after).
    CutRound,
    /// One root dive — batch rounding or assignment (`count` = 1 when an
    /// incumbent was found, `value` = its objective).
    Dive,
    /// One branch-and-bound node expansion (`count` = LP iterations,
    /// `value` = the node's LP bound).
    NodeExpand,
    /// Basis refactorisations performed inside one LP solve
    /// (`count` = refactorisations, `ticks` = their metered work).
    Refactor,
    /// One large-neighbourhood-search round (`count` = 1 when it
    /// improved the incumbent, `value` = the objective after).
    LnsRound,
}

impl SpanKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::PresolvePass,
        SpanKind::RootLp,
        SpanKind::CutRound,
        SpanKind::Dive,
        SpanKind::NodeExpand,
        SpanKind::Refactor,
        SpanKind::LnsRound,
    ];

    /// Stable snake_case name (the JSONL `kind` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::PresolvePass => "presolve_pass",
            SpanKind::RootLp => "root_lp",
            SpanKind::CutRound => "cut_round",
            SpanKind::Dive => "dive",
            SpanKind::NodeExpand => "node_expand",
            SpanKind::Refactor => "refactor",
            SpanKind::LnsRound => "lns_round",
        }
    }

    /// Parses a [`SpanKind::name`] back to the kind.
    #[must_use]
    pub fn parse(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The solver phases every deterministic tick is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Root presolve reductions.
    Presolve,
    /// The first root relaxation solve.
    RootLp,
    /// Root cutting-plane rounds (separation, row growth, re-solves).
    Cuts,
    /// Root dives for a first incumbent.
    Dive,
    /// The branch-and-bound tree (sequential or parallel).
    Tree,
    /// Large-neighbourhood-search rounds (sequential polish or racing
    /// workers).
    Lns,
    /// Ticks charged outside any attributed phase (driver overhead).
    Other,
}

impl Phase {
    /// Number of phases (the breakdown array length).
    pub const COUNT: usize = 7;

    /// Every phase, in attribution order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Presolve,
        Phase::RootLp,
        Phase::Cuts,
        Phase::Dive,
        Phase::Tree,
        Phase::Lns,
        Phase::Other,
    ];

    /// Stable snake_case name (the JSONL / bench-row field prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Presolve => "presolve",
            Phase::RootLp => "root_lp",
            Phase::Cuts => "cuts",
            Phase::Dive => "dive",
            Phase::Tree => "tree",
            Phase::Lns => "lns",
            Phase::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Presolve => 0,
            Phase::RootLp => 1,
            Phase::Cuts => 2,
            Phase::Dive => 3,
            Phase::Tree => 4,
            Phase::Lns => 5,
            Phase::Other => 6,
        }
    }
}

/// Deterministic ticks and operation counts split by [`Phase`]. Carried
/// on every [`SolveResult`](crate::SolveResult); after
/// [`PhaseBreakdown::finalize`] the phase ticks sum exactly to the run's
/// total (`Other` absorbs unattributed driver overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    ticks: [u64; Phase::COUNT],
    counts: [u64; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Attributes `ticks` of work and `count` operations to `phase`.
    pub fn add(&mut self, phase: Phase, ticks: u64, count: u64) {
        let i = phase.index();
        self.ticks[i] = self.ticks[i].saturating_add(ticks);
        self.counts[i] = self.counts[i].saturating_add(count);
    }

    /// Ticks attributed to `phase`.
    #[must_use]
    pub fn ticks(&self, phase: Phase) -> u64 {
        self.ticks[phase.index()]
    }

    /// Deterministic seconds attributed to `phase`.
    #[must_use]
    pub fn seconds(&self, phase: Phase) -> f64 {
        DeterministicClock::ticks_to_seconds(self.ticks(phase))
    }

    /// Operations counted in `phase` (LP solves, rounds, …).
    #[must_use]
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.index()]
    }

    /// Sum of all phase ticks, `Other` included.
    #[must_use]
    pub fn total_ticks(&self) -> u64 {
        self.ticks.iter().fold(0u64, |a, &t| a.saturating_add(t))
    }

    /// Sum of the ticks attributed to a real phase (everything except
    /// `Other`).
    #[must_use]
    pub fn attributed_ticks(&self) -> u64 {
        self.total_ticks().saturating_sub(self.ticks(Phase::Other))
    }

    /// Accumulates another breakdown (parallel workers fold into the
    /// root's).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for i in 0..Phase::COUNT {
            self.ticks[i] = self.ticks[i].saturating_add(other.ticks[i]);
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
        }
    }

    /// Charges the gap between the run's clock total and the attributed
    /// ticks to `Other`, so the phase ticks sum to `total_ticks` exactly.
    pub fn finalize(&mut self, clock_total: u64) {
        let attributed = self.attributed_ticks();
        self.ticks[Phase::Other.index()] = clock_total.saturating_sub(attributed);
    }
}

/// One tick-stamped span: a closed unit of solver work.
///
/// `start_ticks` is the emitting worker's *local* deterministic clock at
/// the span's start; `worker` is `0` for the root/sequential context and
/// `1..=n` for parallel tree workers; `seq` increments per worker, so
/// `(worker, seq)` orders the merged stream totally and
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// What unit of work this span covers.
    pub kind: SpanKind,
    /// Emitting worker (`0` = root/sequential context).
    pub worker: u32,
    /// Per-worker emission index.
    pub seq: u64,
    /// Worker-local deterministic clock at span start.
    pub start_ticks: u64,
    /// Deterministic work metered inside the span.
    pub ticks: u64,
    /// Kind-specific count (see [`SpanKind`]).
    pub count: u64,
    /// Kind-specific value (objective / bound); `NaN` when not
    /// applicable.
    pub value: f64,
}

/// Writes `v` as a JSON number, or `null` when not finite (JSON has no
/// `inf`/`NaN` literals).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

impl SpanEvent {
    /// The event as one JSONL line (no trailing newline):
    /// `{"type":"span","kind":…,"worker":…,"seq":…,"start_ticks":…,"ticks":…,"count":…,"value":…}`.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"type\":\"span\",\"kind\":\"{}\",\"worker\":{},\"seq\":{},\"start_ticks\":{},\"ticks\":{},\"count\":{},\"value\":",
            self.kind.name(),
            self.worker,
            self.seq,
            self.start_ticks,
            self.ticks,
            self.count,
        );
        push_json_f64(&mut s, self.value);
        s.push('}');
        s
    }
}

/// One periodic progress row: the global search state at a deterministic
/// timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressRow {
    /// Deterministic seconds elapsed.
    pub det_seconds: f64,
    /// Nodes expanded so far.
    pub nodes: u64,
    /// Open nodes still queued.
    pub open: u64,
    /// Incumbent objective, if any.
    pub incumbent: Option<f64>,
    /// Best bound of the open frontier (`-inf` before the root solves).
    pub bound: f64,
}

impl ProgressRow {
    /// The row as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"type\":\"progress\",\"det_seconds\":");
        push_json_f64(&mut s, self.det_seconds);
        s.push_str(&format!(",\"nodes\":{},\"open\":{}", self.nodes, self.open));
        s.push_str(",\"incumbent\":");
        push_json_f64(&mut s, self.incumbent.unwrap_or(f64::NAN));
        s.push_str(",\"bound\":");
        push_json_f64(&mut s, self.bound);
        s.push('}');
        s
    }
}

/// Renders a [`PhaseBreakdown`] as one JSONL line (no trailing newline):
/// `{"type":"phases","presolve_ticks":…,"presolve_count":…,…,"total_ticks":…}`.
#[must_use]
pub fn phases_json_line(phases: &PhaseBreakdown) -> String {
    let mut s = String::from("{\"type\":\"phases\"");
    for p in Phase::ALL {
        s.push_str(&format!(
            ",\"{}_ticks\":{},\"{}_count\":{}",
            p.name(),
            phases.ticks(p),
            p.name(),
            phases.count(p)
        ));
    }
    s.push_str(&format!(",\"total_ticks\":{}}}", phases.total_ticks()));
    s
}

/// Receives the trace of one solve. `record` gets every span event, in
/// the deterministic merged order; `progress` gets periodic progress
/// rows *live* during the search; `finish` gets the final phase breakdown.
///
/// `Send` is a supertrait so a shared sink can be driven from the
/// parallel coordinator thread.
pub trait TraceSink: Send {
    /// One span event (called in deterministic merged order at the end
    /// of the solve).
    fn record(&mut self, event: &SpanEvent);

    /// One periodic progress row (called live during the search).
    fn progress(&mut self, row: &ProgressRow) {
        let _ = row;
    }

    /// The solve finished with this phase breakdown.
    fn finish(&mut self, phases: &PhaseBreakdown) {
        let _ = phases;
    }
}

/// A bounded in-memory sink: keeps the most recent `capacity` span
/// events plus the final phase breakdown.
pub struct RingSink {
    capacity: usize,
    events: VecDeque<SpanEvent>,
    dropped: u64,
    phases: Option<PhaseBreakdown>,
}

impl RingSink {
    /// A ring over the most recent `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        RingSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            phases: None,
        }
    }

    /// The buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> &VecDeque<SpanEvent> {
        &self.events
    }

    /// Events evicted by the capacity bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The last finished solve's phase breakdown, if any.
    #[must_use]
    pub fn phases(&self) -> Option<&PhaseBreakdown> {
        self.phases.as_ref()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &SpanEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }

    fn finish(&mut self, phases: &PhaseBreakdown) {
        self.phases = Some(*phases);
    }
}

/// Streams the trace as JSON Lines: one `span` object per event, one
/// `progress` object per progress row, one final `phases` object. Write
/// errors are swallowed (tracing must never fail a solve); check
/// [`JsonlSink::write_errors`] if delivery matters.
pub struct JsonlSink<W: Write> {
    out: W,
    write_errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A JSONL sink over any writer (a file, a `Vec<u8>`, …).
    #[must_use]
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            write_errors: 0,
        }
    }

    /// Borrows the underlying writer (e.g. to inspect a buffer).
    #[must_use]
    pub fn get_ref(&self) -> &W {
        &self.out
    }

    /// Unwraps the underlying writer.
    #[must_use]
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Lines that failed to write.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    fn line(&mut self, line: &str) {
        if writeln!(self.out, "{line}").is_err() {
            self.write_errors += 1;
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &SpanEvent) {
        self.line(&event.to_json_line());
    }

    fn progress(&mut self, row: &ProgressRow) {
        self.line(&row.to_json_line());
    }

    fn finish(&mut self, phases: &PhaseBreakdown) {
        self.line(&phases_json_line(phases));
        let _ = self.out.flush();
    }
}

/// A cloneable, thread-safe handle to one shared [`TraceSink`], as stored
/// in [`SolverConfig`](crate::SolverConfig). The solver locks the sink
/// briefly per delivery; per-worker span buffers keep the hot path free
/// of this lock entirely.
///
/// Delivery recovers from lock poisoning instead of panicking: a sink
/// that panicked once already propagated that panic on its own thread,
/// and observability must not compound the crash by taking down the
/// threads that merely try to report afterwards.
#[derive(Clone)]
pub struct TraceHandle {
    sink: Arc<Mutex<dyn TraceSink>>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

impl TraceHandle {
    /// Wraps an owned sink.
    #[must_use]
    pub fn new(sink: impl TraceSink + 'static) -> Self {
        TraceHandle {
            sink: Arc::new(Mutex::new(sink)),
        }
    }

    /// Wraps a sink the caller keeps shared access to (e.g. to inspect a
    /// [`RingSink`] after the solve).
    #[must_use]
    pub fn shared(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        TraceHandle { sink }
    }

    /// Delivers one progress row.
    pub fn progress(&self, row: &ProgressRow) {
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .progress(row);
    }

    /// Delivers the merged span stream, in order.
    pub fn record_all(&self, events: &[SpanEvent]) {
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for ev in events {
            sink.record(ev);
        }
    }

    /// Delivers the final phase breakdown.
    pub fn finish(&self, phases: &PhaseBreakdown) {
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .finish(phases);
    }
}

/// Per-worker span buffer: cheap `Vec` pushes on the hot path, merged in
/// fixed worker order into the sink when the solve ends.
pub(crate) struct TraceBuf {
    worker: u32,
    seq: u64,
    pub(crate) events: Vec<SpanEvent>,
}

impl TraceBuf {
    pub(crate) fn new(worker: u32) -> Self {
        TraceBuf {
            worker,
            seq: 0,
            events: Vec::new(),
        }
    }

    pub(crate) fn set_worker(&mut self, worker: u32) {
        self.worker = worker;
    }

    pub(crate) fn emit(
        &mut self,
        kind: SpanKind,
        start_ticks: u64,
        ticks: u64,
        count: u64,
        value: f64,
    ) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(SpanEvent {
            kind,
            worker: self.worker,
            seq,
            start_ticks,
            ticks,
            count,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_kind_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn phase_breakdown_finalize_sums_to_total() {
        let mut p = PhaseBreakdown::default();
        p.add(Phase::RootLp, 100, 1);
        p.add(Phase::Tree, 250, 7);
        p.finalize(400);
        assert_eq!(p.ticks(Phase::Other), 50);
        assert_eq!(p.total_ticks(), 400);
        assert_eq!(p.attributed_ticks(), 350);
        assert_eq!(p.count(Phase::Tree), 7);
    }

    #[test]
    fn ring_sink_bounds_memory() {
        let mut ring = RingSink::new(2);
        for seq in 0..5u64 {
            ring.record(&SpanEvent {
                kind: SpanKind::NodeExpand,
                worker: 0,
                seq,
                start_ticks: seq,
                ticks: 1,
                count: 1,
                value: 0.0,
            });
        }
        assert_eq!(ring.events().len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(ring.events()[0].seq, 3);
    }

    #[test]
    fn jsonl_lines_are_well_formed() {
        let ev = SpanEvent {
            kind: SpanKind::CutRound,
            worker: 0,
            seq: 3,
            start_ticks: 10,
            ticks: 90,
            count: 4,
            value: f64::NAN,
        };
        assert_eq!(
            ev.to_json_line(),
            "{\"type\":\"span\",\"kind\":\"cut_round\",\"worker\":0,\"seq\":3,\
             \"start_ticks\":10,\"ticks\":90,\"count\":4,\"value\":null}"
        );
        let row = ProgressRow {
            det_seconds: 0.5,
            nodes: 128,
            open: 9,
            incumbent: None,
            bound: f64::NEG_INFINITY,
        };
        assert_eq!(
            row.to_json_line(),
            "{\"type\":\"progress\",\"det_seconds\":0.5,\"nodes\":128,\"open\":9,\
             \"incumbent\":null,\"bound\":null}"
        );
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev);
        sink.finish(&PhaseBreakdown::default());
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("{\"type\":\"phases\""));
    }

    #[test]
    fn trace_buf_orders_events_per_worker() {
        let mut buf = TraceBuf::new(2);
        buf.emit(SpanKind::NodeExpand, 0, 5, 1, 1.0);
        buf.emit(SpanKind::Refactor, 5, 2, 1, f64::NAN);
        assert_eq!(buf.events.len(), 2);
        assert_eq!(buf.events[0].seq, 0);
        assert_eq!(buf.events[1].seq, 1);
        assert!(buf.events.iter().all(|e| e.worker == 2));
    }
}
