//! Zero-dependency structured tracing and metrics for the TetrisLock
//! workspace.
//!
//! `qobs` is the observability substrate every other crate instruments
//! against: it provides **spans** (monotonic wall-clock timing with
//! parent/child nesting), **counters**, and **histograms**, recorded
//! through a thread-safe global subscriber, plus a JSON-lines trace
//! emitter and the tooling to validate ([`schema`]) and summarize
//! ([`report`]) the traces it writes.
//!
//! # Levels
//!
//! Recording is gated by a global [`Level`], initialised lazily from the
//! `QOBS` environment variable (`off`, `counters`, `spans`, `full`;
//! anything else — including unset — means `off`):
//!
//! - `off` — every instrumentation call is a single relaxed atomic load.
//! - `counters` — counters and histograms accumulate; nothing is emitted
//!   until [`flush`].
//! - `spans` — additionally, span guards emit one JSON line per span.
//! - `full` — additionally, fine-grained [`event`]s (per-decision
//!   diagnostics) are emitted.
//!
//! # Trace output
//!
//! Nothing is written anywhere until a sink is installed with
//! [`set_trace_file`] or [`set_trace_memory`]. The emitted format is
//! JSON lines: one flat (non-nested) JSON object per line, with a
//! `"type"` field of `meta`, `span`, `counter`, `histogram`, or `event`.
//! See `docs/observability.md` for the full event model and [`schema`]
//! for the machine-checked contract.
//!
//! # Example
//!
//! ```
//! qobs::reset_metrics();
//! qobs::set_level(qobs::Level::Full);
//! let sink = qobs::set_trace_memory();
//! qobs::run_meta(&[("tool", qobs::AttrValue::from("doctest"))]);
//! static OPS: qobs::Counter = qobs::Counter::new("doctest.ops");
//! {
//!     let _span = qobs::span("doctest.work").attr("size", 3u64);
//!     OPS.incr();
//! }
//! qobs::flush();
//! let trace = sink.contents();
//! qobs::schema::validate_trace(&trace).unwrap();
//! qobs::clear_trace();
//! qobs::set_level(qobs::Level::Off);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod report;
pub mod schema;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version stamp written into every `meta` line; bump when the line
/// format changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Level
// ---------------------------------------------------------------------------

/// How much the global subscriber records. Ordered: each level includes
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Record nothing; instrumentation cost is one relaxed atomic load.
    Off = 0,
    /// Accumulate counters and histograms (emitted on [`flush`]).
    Counters = 1,
    /// Additionally emit one JSON line per span.
    Spans = 2,
    /// Additionally emit fine-grained per-decision [`event`]s.
    Full = 3,
}

impl Level {
    /// Parse a `QOBS` environment value. Unrecognised values (and the
    /// empty string) mean [`Level::Off`]; matching is case-insensitive.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "counters" => Level::Counters,
            "spans" => Level::Spans,
            "full" => Level::Full,
            _ => Level::Off,
        }
    }

    /// The canonical lower-case name (`"off"`, `"counters"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Counters => "counters",
            Level::Spans => "spans",
            Level::Full => "full",
        }
    }

    fn from_u8(raw: u8) -> Level {
        match raw {
            1 => Level::Counters,
            2 => Level::Spans,
            3 => Level::Full,
            _ => Level::Off,
        }
    }
}

const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

/// The current recording level. Lazily initialised from the `QOBS`
/// environment variable on first query unless [`set_level`] ran first.
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == LEVEL_UNINIT {
        init_level_from_env()
    } else {
        Level::from_u8(raw)
    }
}

#[cold]
fn init_level_from_env() -> Level {
    let parsed = std::env::var("QOBS")
        .map(|v| Level::parse(&v))
        .unwrap_or(Level::Off);
    // A concurrent set_level (or another env init) may have won; keep
    // whatever is installed by the time we re-read.
    let _ = LEVEL.compare_exchange(
        LEVEL_UNINIT,
        parsed as u8,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Set the recording level programmatically, overriding `QOBS`.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// True when the current level is at least `min`. This is the hot-path
/// guard: with `QOBS=off` it is a single relaxed load and compare.
#[inline]
pub fn enabled(min: Level) -> bool {
    level() >= min
}

// ---------------------------------------------------------------------------
// Attribute values
// ---------------------------------------------------------------------------

/// A span/event attribute value. Constructed via `From` impls so call
/// sites can pass strings, integers, floats, and bools directly.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string attribute (JSON string).
    Str(String),
    /// An unsigned integer attribute (JSON number).
    UInt(u64),
    /// A float attribute (JSON number; non-finite values emit as 0).
    Float(f64),
    /// A boolean attribute (JSON `true`/`false`).
    Bool(bool),
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::UInt(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// A named monotonic counter. Declare as a `static`; the first increment
/// at `counters` level or above registers it with the global subscriber
/// so [`flush`] and [`counter_snapshot`] can see it.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Create a counter. `const` so it can live in a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n`. No-op below [`Level::Counters`].
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled(Level::Counters) {
            return;
        }
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one. No-op below [`Level::Counters`].
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            COUNTERS.lock().unwrap().push(self);
        }
    }
}

/// Snapshot of all registered counters as `(name, value)`, sorted by
/// name for deterministic output.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<_> = COUNTERS
        .lock()
        .unwrap()
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A named duration histogram tracking count, sum, and max in
/// microseconds. Declare as a `static`, like [`Counter`].
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    registered: AtomicBool,
}

/// One histogram's aggregate state, as returned by
/// [`histogram_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, microseconds.
    pub sum_us: u64,
    /// Largest single sample, microseconds.
    pub max_us: u64,
}

impl Histogram {
    /// Create a histogram. `const` so it can live in a `static`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one duration in microseconds. No-op below
    /// [`Level::Counters`].
    #[inline]
    pub fn record_us(&'static self, us: u64) {
        if !enabled(Level::Counters) {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            HISTOGRAMS.lock().unwrap().push(self);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The current aggregate state.
    pub fn stats(&self) -> HistogramStats {
        HistogramStats {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of all registered histograms as `(name, stats)`, sorted by
/// name.
pub fn histogram_snapshot() -> Vec<(&'static str, HistogramStats)> {
    let mut out: Vec<_> = HISTOGRAMS
        .lock()
        .unwrap()
        .iter()
        .map(|h| (h.name, h.stats()))
        .collect();
    out.sort_unstable_by_key(|&(name, _)| name);
    out
}

/// Zero every registered counter and histogram and drop all recorded
/// timing samples. For tests and repeated in-process runs; does not
/// touch the level or the trace sink.
pub fn reset_metrics() {
    for c in COUNTERS.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS.lock().unwrap().iter() {
        h.count.store(0, Ordering::Relaxed);
        h.sum_us.store(0, Ordering::Relaxed);
        h.max_us.store(0, Ordering::Relaxed);
    }
    SAMPLES.lock().unwrap().clear();
}

// ---------------------------------------------------------------------------
// Trace sink
// ---------------------------------------------------------------------------

enum SinkKind {
    File(BufWriter<File>),
    Memory(Arc<Mutex<String>>),
}

static SINK: Mutex<Option<SinkKind>> = Mutex::new(None);

/// Handle to an in-memory trace buffer installed by
/// [`set_trace_memory`]; lets tests read back what was emitted.
pub struct MemorySink(Arc<Mutex<String>>);

impl MemorySink {
    /// Everything emitted so far.
    pub fn contents(&self) -> String {
        self.0.lock().unwrap().clone()
    }

    /// Discard everything emitted so far.
    pub fn clear(&self) {
        self.0.lock().unwrap().clear();
    }
}

/// Direct trace output to `path` (truncating it). Replaces any
/// previously installed sink.
pub fn set_trace_file(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().unwrap() = Some(SinkKind::File(BufWriter::new(file)));
    Ok(())
}

/// Direct trace output to an in-memory buffer and return a handle to
/// it. Replaces any previously installed sink.
pub fn set_trace_memory() -> MemorySink {
    let buf = Arc::new(Mutex::new(String::new()));
    *SINK.lock().unwrap() = Some(SinkKind::Memory(Arc::clone(&buf)));
    MemorySink(buf)
}

/// Remove the trace sink (flushing a file sink first). Subsequent
/// emissions are dropped.
pub fn clear_trace() {
    let mut guard = SINK.lock().unwrap();
    if let Some(SinkKind::File(w)) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
}

fn emit_line(line: &str) {
    let mut guard = SINK.lock().unwrap();
    match guard.as_mut() {
        Some(SinkKind::File(w)) => {
            let _ = writeln!(w, "{line}");
        }
        Some(SinkKind::Memory(buf)) => {
            let mut buf = buf.lock().unwrap();
            buf.push_str(line);
            buf.push('\n');
        }
        None => {}
    }
}

fn sink_present() -> bool {
    SINK.lock().unwrap().is_some()
}

/// Emit one `counter` line per registered counter and one `histogram`
/// line per registered histogram (at `counters` level or above), then
/// flush a file sink to disk. Call once at the end of a run; calling it
/// repeatedly re-emits the cumulative totals.
pub fn flush() {
    if enabled(Level::Counters) && sink_present() {
        for (name, value) in counter_snapshot() {
            let mut o = json::Obj::new("counter");
            o.field_str("name", name);
            o.field_u64("value", value);
            emit_line(&o.finish());
        }
        for (name, stats) in histogram_snapshot() {
            let mut o = json::Obj::new("histogram");
            o.field_str("name", name);
            o.field_u64("count", stats.count);
            o.field_u64("sum_us", stats.sum_us);
            o.field_u64("max_us", stats.max_us);
            emit_line(&o.finish());
        }
    }
    let mut guard = SINK.lock().unwrap();
    if let Some(SinkKind::File(w)) = guard.as_mut() {
        let _ = w.flush();
    }
}

/// Emit the run-metadata line that heads a trace: `schema_version`, the
/// active level, and any caller-provided attributes (the CLI records
/// the command, argv, and the resolved qsim worker count here). No-op
/// below [`Level::Counters`].
pub fn run_meta(attrs: &[(&'static str, AttrValue)]) {
    if !enabled(Level::Counters) {
        return;
    }
    let mut o = json::Obj::new("meta");
    o.field_u64("schema_version", SCHEMA_VERSION);
    o.field_str("level", level().name());
    for (key, value) in attrs {
        o.field_attr(key, value);
    }
    emit_line(&o.finish());
}

/// Emit a fine-grained diagnostic event (one JSON line). No-op below
/// [`Level::Full`]; also requires an installed sink.
pub fn event(name: &'static str, attrs: &[(&'static str, AttrValue)]) {
    if !enabled(Level::Full) || !sink_present() {
        return;
    }
    let mut o = json::Obj::new("event");
    o.field_str("name", name);
    o.field_u64("thread", thread_index());
    for (key, value) in attrs {
        o.field_attr(key, value);
    }
    emit_line(&o.finish());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_IDX: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_IDX: u64 = NEXT_THREAD_IDX.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn thread_index() -> u64 {
    THREAD_IDX.with(|idx| *idx)
}

struct SpanInner {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    start_us: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII guard for a timed span. Created by [`span`] / [`span_at`];
/// emits one `span` JSON line on drop (when recording is active and a
/// sink is installed). Nesting is tracked per thread: a span created
/// while another is open on the same thread records it as its parent.
#[must_use = "a span measures the scope it is alive in; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Attach an attribute (builder style). No-op on a disabled span.
    pub fn attr(mut self, key: &'static str, value: impl Into<AttrValue>) -> Span {
        if let Some(inner) = self.inner.as_mut() {
            inner.attrs.push((key, value.into()));
        }
        self
    }
}

/// Open a span at the default [`Level::Spans`] gate. Returns an inert
/// guard (zero further cost) below that level.
pub fn span(name: &'static str) -> Span {
    span_at(Level::Spans, name)
}

/// Open a span gated at an explicit level — e.g. `span_at(Level::Full,
/// ...)` for high-frequency spans that would swamp a `spans`-level
/// trace.
pub fn span_at(min: Level, name: &'static str) -> Span {
    if !enabled(min) {
        return Span { inner: None };
    }
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Span {
        inner: Some(SpanInner {
            name,
            id,
            parent,
            start,
            start_us,
            attrs: Vec::new(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed_us = inner.start.elapsed().as_micros() as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Usually the top of the stack; tolerate out-of-order drops.
            if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                stack.remove(pos);
            }
        });
        if !sink_present() {
            return;
        }
        let mut o = json::Obj::new("span");
        o.field_str("name", inner.name);
        o.field_u64("id", inner.id);
        if let Some(parent) = inner.parent {
            o.field_u64("parent", parent);
        }
        o.field_u64("thread", thread_index());
        o.field_u64("start_us", inner.start_us);
        o.field_u64("elapsed_us", elapsed_us);
        for (key, value) in &inner.attrs {
            o.field_attr(key, value);
        }
        emit_line(&o.finish());
    }
}

// ---------------------------------------------------------------------------
// Timing samples (perf emitters)
// ---------------------------------------------------------------------------

static SAMPLES: Mutex<BTreeMap<String, Vec<f64>>> = Mutex::new(BTreeMap::new());

/// Record one wall-clock sample (milliseconds) under `name` in the
/// global sample store. Unlike counters, samples are *not* level-gated:
/// they are explicit measurements taken by the perf emitters, not
/// ambient instrumentation.
pub fn record_sample_ms(name: &str, ms: f64) {
    SAMPLES
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .push(ms);
}

/// All samples recorded under `name`, in recording order.
pub fn sample_values_ms(name: &str) -> Vec<f64> {
    SAMPLES
        .lock()
        .unwrap()
        .get(name)
        .cloned()
        .unwrap_or_default()
}

/// Median of the samples recorded under `name` (`None` when there are
/// none).
pub fn sample_median_ms(name: &str) -> Option<f64> {
    let mut values = sample_values_ms(name);
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Some(values[values.len() / 2])
}

/// Run `f` `warmup` times unmeasured, then `reps` more times recording
/// each duration as a sample under `name`, and return the median in
/// milliseconds. This is the shared timing loop behind the `perfdump`
/// emitters, so `BENCH_*.json` numbers and live qobs samples can never
/// disagree.
pub fn time_median_ms<F: FnMut()>(name: &str, warmup: usize, reps: usize, mut f: F) -> f64 {
    for _ in 0..warmup {
        f();
    }
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        record_sample_ms(name, start.elapsed().as_secs_f64() * 1e3);
    }
    sample_median_ms(name).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The level/sink/registry state is process-global; tests that touch
    // it serialize on this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn level_parse_names() {
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("COUNTERS"), Level::Counters);
        assert_eq!(Level::parse(" spans "), Level::Spans);
        assert_eq!(Level::parse("Full"), Level::Full);
        assert_eq!(Level::parse("bogus"), Level::Off);
        assert_eq!(Level::parse(""), Level::Off);
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Off < Level::Counters);
        assert!(Level::Counters < Level::Spans);
        assert!(Level::Spans < Level::Full);
    }

    #[test]
    fn counters_gate_on_level() {
        let _guard = lock();
        static C: Counter = Counter::new("test.lib.gated");
        set_level(Level::Off);
        let before = C.get();
        C.incr();
        assert_eq!(C.get(), before, "off level must not record");
        set_level(Level::Counters);
        C.add(3);
        assert_eq!(C.get(), before + 3);
        set_level(Level::Off);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let _guard = lock();
        static H: Histogram = Histogram::new("test.lib.hist");
        set_level(Level::Counters);
        reset_metrics();
        H.record_us(10);
        H.record_us(30);
        H.record_us(20);
        let stats = H.stats();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.sum_us, 60);
        assert_eq!(stats.max_us, 30);
        set_level(Level::Off);
    }

    #[test]
    fn span_nesting_and_emission() {
        let _guard = lock();
        set_level(Level::Spans);
        let sink = set_trace_memory();
        {
            let _outer = span("test.outer").attr("k", "v");
            let _inner = span("test.inner");
        }
        clear_trace();
        set_level(Level::Off);
        let trace = sink.contents();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 2, "two span lines, got: {trace}");
        // Inner drops (and emits) first.
        let inner = json::parse_line(lines[0]).unwrap();
        let outer = json::parse_line(lines[1]).unwrap();
        assert_eq!(inner.get_str("name"), Some("test.inner"));
        assert_eq!(outer.get_str("name"), Some("test.outer"));
        assert_eq!(inner.get_u64("parent"), outer.get_u64("id"));
        assert_eq!(outer.get_str("k"), Some("v"));
        assert!(outer.get_u64("parent").is_none());
    }

    #[test]
    fn events_require_full_level() {
        let _guard = lock();
        let sink = set_trace_memory();
        set_level(Level::Spans);
        event("test.ev", &[("x", AttrValue::from(1u64))]);
        assert!(sink.contents().is_empty());
        set_level(Level::Full);
        event("test.ev", &[("x", AttrValue::from(1u64))]);
        clear_trace();
        set_level(Level::Off);
        let trace = sink.contents();
        assert_eq!(trace.lines().count(), 1);
        let parsed = json::parse_line(trace.lines().next().unwrap()).unwrap();
        assert_eq!(parsed.get_str("type"), Some("event"));
        assert_eq!(parsed.get_u64("x"), Some(1));
    }

    #[test]
    fn flush_emits_counters_and_meta_heads_trace() {
        let _guard = lock();
        static C: Counter = Counter::new("test.lib.flush");
        set_level(Level::Counters);
        reset_metrics();
        let sink = set_trace_memory();
        run_meta(&[("tool", AttrValue::from("unit"))]);
        C.add(7);
        flush();
        clear_trace();
        set_level(Level::Off);
        let trace = sink.contents();
        let first = json::parse_line(trace.lines().next().unwrap()).unwrap();
        assert_eq!(first.get_str("type"), Some("meta"));
        assert_eq!(first.get_u64("schema_version"), Some(SCHEMA_VERSION));
        assert!(
            trace
                .lines()
                .filter_map(|l| json::parse_line(l).ok())
                .any(|o| o.get_str("name") == Some("test.lib.flush")
                    && o.get_u64("value") == Some(7)),
            "flushed counter missing: {trace}"
        );
    }

    #[test]
    fn sample_store_median() {
        let _guard = lock();
        reset_metrics();
        record_sample_ms("test.case", 3.0);
        record_sample_ms("test.case", 1.0);
        record_sample_ms("test.case", 2.0);
        assert_eq!(sample_median_ms("test.case"), Some(2.0));
        assert_eq!(sample_median_ms("test.missing"), None);
        let med = time_median_ms("test.timed", 0, 3, || {
            std::hint::black_box(0);
        });
        assert!(med >= 0.0);
        assert_eq!(sample_values_ms("test.timed").len(), 3);
    }
}
