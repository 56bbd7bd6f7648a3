//! The hierarchical span tracer.
//!
//! A [`Span`] is an RAII guard: opening pushes its id onto the current
//! thread's span stack (so nested spans parent automatically), dropping
//! records a [`SpanRecord`] with monotonic start/duration timestamps.
//! Records go to an optional JSON-lines stream writer (env `DOOD_TRACE`)
//! and/or the in-memory sink drained by [`capture`].
//!
//! When tracing is disabled every constructor returns an inert guard after
//! a single relaxed atomic load; no allocation, no clock read.

use super::{json_escape, now_ns, thread_ord, trace_gate_set};
use crate::fxhash::FxHashMap;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// One closed span, as exported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (monotone, 1-based).
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Dense ordinal of the thread the span ran on ([`super::thread_ord`]).
    pub thread: u64,
    /// Site name (`layer.operation`, e.g. `oql.join`).
    pub name: String,
    /// Optional dynamic label (rule name, subdatabase name, …).
    pub label: Option<String>,
    /// Start, in monotonic ns since the process obs epoch.
    pub start_ns: u64,
    /// Wall-clock duration in ns.
    pub dur_ns: u64,
    /// Integer attributes (cardinalities, counts), in insertion order.
    pub attrs: Vec<(String, i64)>,
}

impl SpanRecord {
    /// End timestamp (`start_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    /// An attribute's value, by key.
    pub fn attr(&self, key: &str) -> Option<i64> {
        self.attrs.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"id\":");
        s.push_str(&self.id.to_string());
        s.push_str(",\"parent\":");
        match self.parent {
            Some(p) => s.push_str(&p.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"thread\":");
        s.push_str(&self.thread.to_string());
        s.push_str(",\"name\":\"");
        s.push_str(&json_escape(&self.name));
        s.push('"');
        if let Some(l) = &self.label {
            s.push_str(",\"label\":\"");
            s.push_str(&json_escape(l));
            s.push('"');
        }
        s.push_str(",\"start_ns\":");
        s.push_str(&self.start_ns.to_string());
        s.push_str(",\"dur_ns\":");
        s.push_str(&self.dur_ns.to_string());
        if !self.attrs.is_empty() {
            s.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('"');
                s.push_str(&json_escape(k));
                s.push_str("\":");
                s.push_str(&v.to_string());
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Parse one JSON line produced by [`SpanRecord::to_json_line`]. The
    /// parser is deliberately minimal (this exact flat shape plus one
    /// nested integer map), so the trace validator needs no JSON
    /// dependency.
    pub fn from_json_line(line: &str) -> Result<SpanRecord, String> {
        let mut p = JsonParser::new(line);
        p.expect(b'{')?;
        let mut rec = SpanRecord {
            id: 0,
            parent: None,
            thread: 0,
            name: String::new(),
            label: None,
            start_ns: 0,
            dur_ns: 0,
            attrs: Vec::new(),
        };
        let mut saw_id = false;
        loop {
            p.ws();
            if p.eat(b'}') {
                break;
            }
            let key = p.string()?;
            p.ws();
            p.expect(b':')?;
            p.ws();
            match key.as_str() {
                "id" => {
                    rec.id = p.integer()? as u64;
                    saw_id = true;
                }
                "parent" => {
                    if p.eat_word("null") {
                        rec.parent = None;
                    } else {
                        rec.parent = Some(p.integer()? as u64);
                    }
                }
                "thread" => rec.thread = p.integer()? as u64,
                "name" => rec.name = p.string()?,
                "label" => rec.label = Some(p.string()?),
                "start_ns" => rec.start_ns = p.integer()? as u64,
                "dur_ns" => rec.dur_ns = p.integer()? as u64,
                "attrs" => {
                    p.expect(b'{')?;
                    loop {
                        p.ws();
                        if p.eat(b'}') {
                            break;
                        }
                        let k = p.string()?;
                        p.ws();
                        p.expect(b':')?;
                        p.ws();
                        let v = p.integer()?;
                        rec.attrs.push((k, v));
                        p.ws();
                        if !p.eat(b',') {
                            p.ws();
                            p.expect(b'}')?;
                            break;
                        }
                    }
                }
                other => return Err(format!("unknown key `{other}`")),
            }
            p.ws();
            if !p.eat(b',') {
                p.ws();
                p.expect(b'}')?;
                break;
            }
        }
        if !saw_id || rec.name.is_empty() {
            return Err("span line missing `id` or `name`".into());
        }
        Ok(rec)
    }
}

/// A tiny cursor-based parser for the span-record JSON shape (shared with
/// the [`super::account`] report parser).
pub(super) struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    pub(super) fn new(line: &'a str) -> Self {
        JsonParser { b: line.as_bytes(), i: 0 }
    }

    pub(super) fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    pub(super) fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.b[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            true
        } else {
            false
        }
    }

    pub(super) fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    /// A JSON number as f64 (integer, fraction, exponent).
    pub(super) fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected number at byte {start}"));
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse().map_err(|e| format!("bad number `{s}`: {e}"))
    }

    pub(super) fn integer(&mut self) -> Result<i64, String> {
        let neg = self.eat(b'-');
        let start = self.i;
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected integer at byte {start}"));
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        let v: i64 = s.parse().map_err(|e| format!("bad integer `{s}`: {e}"))?;
        Ok(if neg { -v } else { v })
    }

    pub(super) fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or("truncated \\u escape")?;
                            let n = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Copy a full UTF-8 sequence starting at `c`.
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let bytes =
                        self.b.get(self.i..self.i + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(bytes).map_err(|_| "bad UTF-8")?);
                    self.i += len;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Span guards
// ---------------------------------------------------------------------

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static CAPTURE_DEPTH: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn sink() -> &'static Mutex<Vec<SpanRecord>> {
    static S: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

fn stream() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static S: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(None))
}

/// Mirrors `stream().is_some()` so the emit hot path (every closed span
/// when only the flight recorder is on) can skip the writer mutex.
static STREAM_ON: AtomicBool = AtomicBool::new(false);

/// First-read initializer for the trace gate: honours `DOOD_TRACE` /
/// `DOOD_TRACE_FILE`, installing a stream writer when requested, and folds
/// in the flight recorder (`DOOD_FLIGHT`) — recorded spans must be live.
pub(super) fn env_init() -> bool {
    if !super::env_flag("DOOD_TRACE") {
        return super::recorder::is_enabled();
    }
    let mut w = stream().lock().unwrap();
    if w.is_none() {
        *w = Some(match std::env::var("DOOD_TRACE_FILE") {
            Ok(path) => match std::fs::File::create(&path) {
                Ok(f) => Box::new(std::io::BufWriter::new(f)) as Box<dyn Write + Send>,
                Err(e) => {
                    eprintln!("obs: cannot open DOOD_TRACE_FILE `{path}`: {e}; using stderr");
                    Box::new(std::io::stderr())
                }
            },
            Err(_) => Box::new(std::io::stderr()),
        });
        STREAM_ON.store(true, Ordering::Relaxed);
    }
    true
}

/// Recompute the trace gate from its inputs (env stream, explicit stream,
/// active captures, the flight recorder).
pub(super) fn recompute_gate() {
    // Fold the environment in first so dropping the last capture cannot
    // mask a `DOOD_TRACE=1` stream that was never initialized.
    let env_on = super::trace_enabled();
    let on = env_on
        || CAPTURE_DEPTH.load(Ordering::SeqCst) > 0
        || stream().lock().unwrap().is_some()
        || super::recorder::is_enabled();
    trace_gate_set(on);
}

/// Install a JSON-lines stream writer: every closed span is written as one
/// line. Replaces any previous writer and enables tracing.
pub fn stream_to(w: Box<dyn Write + Send>) {
    let _ = super::trace_enabled(); // settle env state first
    *stream().lock().unwrap() = Some(w);
    STREAM_ON.store(true, Ordering::Relaxed);
    trace_gate_set(true);
}

/// Stream spans to a file at `path` (created/truncated, buffered).
pub fn stream_to_path(path: &str) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    stream_to(Box::new(std::io::BufWriter::new(f)));
    Ok(())
}

/// Flush the stream writer, if any (call before process exit — the writer
/// is buffered).
pub fn flush_stream() {
    if let Some(w) = stream().lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

/// The open state of an enabled span guard.
struct Active {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<String>,
    start_ns: u64,
    attrs: Vec<(&'static str, i64)>,
}

/// An RAII span guard. Inert (all methods no-ops) when tracing was
/// disabled at open time.
pub struct Span {
    inner: Option<Box<Active>>,
}

/// Open a span named `name`, parented to the current thread's innermost
/// open span. Inert when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !super::trace_enabled() {
        return Span { inner: None };
    }
    open(name)
}

#[cold]
fn open(name: &'static str) -> Span {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current_span_id();
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        inner: Some(Box::new(Active {
            id,
            parent,
            name,
            label: None,
            start_ns: now_ns(),
            attrs: Vec::new(),
        })),
    }
}

/// The innermost open span id on this thread, if any.
pub fn current_span_id() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

impl Span {
    /// Whether this guard is live (tracing was enabled at open time).
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id (None when inert).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|a| a.id)
    }

    /// Attach an integer attribute (cardinality, count). No-op when inert.
    pub fn attr(&mut self, key: &'static str, v: i64) {
        if let Some(a) = &mut self.inner {
            a.attrs.push((key, v));
        }
    }

    /// Attach a dynamic label, computed lazily so the disabled path never
    /// allocates. No-op when inert.
    pub fn label(&mut self, f: impl FnOnce() -> String) {
        if let Some(a) = &mut self.inner {
            a.label = Some(f());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.inner.take() else { return };
        let dur_ns = now_ns().saturating_sub(a.start_ns);
        STACK.with(|s| {
            let mut st = s.borrow_mut();
            // Guards normally close LIFO; tolerate out-of-order drops.
            if let Some(pos) = st.iter().rposition(|&x| x == a.id) {
                st.remove(pos);
            }
        });
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            thread: thread_ord(),
            name: a.name.to_string(),
            label: a.label,
            start_ns: a.start_ns,
            dur_ns,
            attrs: a.attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        emit(rec);
    }
}

fn emit(rec: SpanRecord) {
    if STREAM_ON.load(Ordering::Relaxed) {
        let mut w = stream().lock().unwrap();
        if let Some(w) = w.as_mut() {
            let _ = writeln!(w, "{}", rec.to_json_line());
        }
    }
    let capturing = CAPTURE_DEPTH.load(Ordering::SeqCst) > 0;
    if super::recorder::is_enabled() {
        if capturing {
            super::recorder::record(&rec);
        } else {
            // The ring is the only consumer: move the record instead of
            // cloning its name/label/attr allocations.
            super::recorder::record_owned(rec);
            return;
        }
    }
    if capturing {
        sink().lock().unwrap().push(rec);
    }
}

/// Run `f` with tracing force-enabled and return its result together with
/// the spans closed *under* the capture (descendants of an internal root
/// span, which is itself excluded). Concurrent captures on other threads
/// are unaffected: each capture extracts only its own descendants from the
/// shared sink, so parallel tests never contaminate each other.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<SpanRecord>) {
    let _ = super::trace_enabled(); // settle env state first
    CAPTURE_DEPTH.fetch_add(1, Ordering::SeqCst);
    trace_gate_set(true);
    let root = span("capture");
    let root_id = root.id().expect("capture forced the gate on");
    let result = f();
    drop(root);
    let mut kept = Vec::new();
    {
        let mut s = sink().lock().unwrap();
        let parent_of: FxHashMap<u64, Option<u64>> =
            s.iter().map(|r| (r.id, r.parent)).collect();
        let mut verdict: FxHashMap<u64, bool> = FxHashMap::default();
        // Is `id` the capture root or one of its descendants?
        fn descends(
            id: u64,
            root: u64,
            parent_of: &FxHashMap<u64, Option<u64>>,
            verdict: &mut FxHashMap<u64, bool>,
        ) -> bool {
            if id == root {
                return true;
            }
            if let Some(&v) = verdict.get(&id) {
                return v;
            }
            let v = match parent_of.get(&id) {
                Some(Some(p)) => descends(*p, root, parent_of, verdict),
                _ => false,
            };
            verdict.insert(id, v);
            v
        }
        let mut rest = Vec::with_capacity(s.len());
        for r in s.drain(..) {
            if r.id != root_id && descends(r.id, root_id, &parent_of, &mut verdict) {
                kept.push(r);
            } else if r.id != root_id {
                rest.push(r);
            }
        }
        *s = rest;
    }
    if CAPTURE_DEPTH.fetch_sub(1, Ordering::SeqCst) == 1 {
        recompute_gate();
    }
    kept.sort_by_key(|r| (r.start_ns, r.id));
    (result, kept)
}

// ---------------------------------------------------------------------
// Trace validation
// ---------------------------------------------------------------------

/// Summary statistics of a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of span records.
    pub spans: usize,
    /// Records with no in-trace parent (including severed links).
    pub roots: usize,
    /// Deepest parent chain within the trace.
    pub max_depth: usize,
    /// Parent links severed by [`ValidateMode::Flight`] (ordering or
    /// nesting violations tolerated as truncation artifacts; always 0 in
    /// strict mode).
    pub severed: usize,
}

/// How strictly [`validate_trace_with`] treats structural violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidateMode {
    /// A complete `DOOD_TRACE=1` export: ordering or nesting violations
    /// are errors.
    Strict,
    /// A flight-recorder ring dump: the window may begin mid-span and
    /// per-thread stripes may truncate independently, so a parent link
    /// that violates ordering or nesting is *severed* (the child becomes
    /// a root, counted in [`TraceStats::severed`]) instead of failing the
    /// whole trace. Parse errors and duplicate ids still fail — the ring
    /// only ever holds whole, unique records.
    Flight,
}

/// Validate a JSON-lines trace export (as produced under `DOOD_TRACE=1`):
/// every non-empty line parses, span ids are unique, every span closed
/// before its parent (children precede parents in the export), and child
/// intervals nest inside their parent's interval.
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    validate_trace_with(text, ValidateMode::Strict)
}

/// [`validate_trace`] with an explicit tolerance mode (see
/// [`ValidateMode`]).
pub fn validate_trace_with(text: &str, mode: ValidateMode) -> Result<TraceStats, String> {
    let mut recs: Vec<SpanRecord> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let r = SpanRecord::from_json_line(line)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        recs.push(r);
    }
    let mut by_id: FxHashMap<u64, usize> = FxHashMap::default();
    for (i, r) in recs.iter().enumerate() {
        if by_id.insert(r.id, i).is_some() {
            return Err(format!("duplicate span id {}", r.id));
        }
    }
    let mut roots = 0usize;
    let mut severed = 0usize;
    // Resolved parent index per record; `None` for roots and severed links.
    let mut link: Vec<Option<usize>> = vec![None; recs.len()];
    for (i, r) in recs.iter().enumerate() {
        let Some(pid) = r.parent else {
            roots += 1;
            continue;
        };
        let Some(&pi) = by_id.get(&pid) else {
            // Parent still open when the stream was cut (e.g. a span
            // enclosing the whole program): counts as a root.
            roots += 1;
            continue;
        };
        let p = &recs[pi];
        if pi < i {
            match mode {
                ValidateMode::Strict => {
                    return Err(format!(
                        "span {} closed after its parent {} (child lines must precede parents)",
                        r.id, pid
                    ));
                }
                ValidateMode::Flight => {
                    severed += 1;
                    roots += 1;
                    continue;
                }
            }
        }
        if r.start_ns < p.start_ns || r.end_ns() > p.end_ns() {
            match mode {
                ValidateMode::Strict => {
                    return Err(format!(
                        "span {} [{}..{}] escapes parent {} [{}..{}]",
                        r.id,
                        r.start_ns,
                        r.end_ns(),
                        pid,
                        p.start_ns,
                        p.end_ns()
                    ));
                }
                ValidateMode::Flight => {
                    severed += 1;
                    roots += 1;
                    continue;
                }
            }
        }
        link[i] = Some(pi);
    }
    // Depth via the resolved links (acyclic — every surviving link points
    // to a later line — but hop-capped anyway).
    let mut max_depth = 0usize;
    for i in 0..recs.len() {
        let mut d = 1usize;
        let mut cur = link[i];
        while let Some(pi) = cur {
            d += 1;
            if d > recs.len() + 1 {
                return Err(format!("parent cycle through span {}", recs[i].id));
            }
            cur = link[pi];
        }
        max_depth = max_depth.max(d);
    }
    Ok(TraceStats { spans: recs.len(), roots, max_depth, severed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_are_inert() {
        // The default state in tests (no DOOD_TRACE, no capture).
        if super::super::trace_enabled() {
            return; // environment forced tracing on; nothing to assert
        }
        let mut sp = span("test.inert");
        assert!(!sp.on());
        assert!(sp.id().is_none());
        sp.attr("k", 1);
        sp.label(|| unreachable!("label closure must not run when inert"));
        assert!(current_span_id().is_none());
    }

    #[test]
    fn capture_collects_nested_spans() {
        let ((), spans) = capture(|| {
            let mut a = span("test.outer");
            a.attr("n", 7);
            a.label(|| "lbl".to_string());
            {
                let _b = span("test.inner");
            }
        });
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.attr("n"), Some(7));
        assert_eq!(outer.label.as_deref(), Some("lbl"));
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns() <= outer.end_ns());
    }

    #[test]
    fn capture_isolation_across_threads() {
        // Two concurrent captures must each see only their own spans.
        let t = std::thread::spawn(|| {
            capture(|| {
                for _ in 0..50 {
                    let _s = span("test.thread_b");
                }
            })
            .1
        });
        let (_, a) = capture(|| {
            for _ in 0..50 {
                let _s = span("test.thread_a");
            }
        });
        let b = t.join().unwrap();
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|s| s.name == "test.thread_a"));
        assert_eq!(b.len(), 50);
        assert!(b.iter().all(|s| s.name == "test.thread_b"));
    }

    #[test]
    fn json_round_trip() {
        let rec = SpanRecord {
            id: 42,
            parent: Some(7),
            thread: 3,
            name: "oql.join".into(),
            label: Some("Context \"x\"".into()),
            start_ns: 1000,
            dur_ns: 500,
            attrs: vec![("rows_in".into(), 40), ("rows_out".into(), -1)],
        };
        let line = rec.to_json_line();
        assert_eq!(SpanRecord::from_json_line(&line).unwrap(), rec);
        let no_parent = SpanRecord { parent: None, label: None, attrs: vec![], ..rec };
        let line = no_parent.to_json_line();
        assert_eq!(SpanRecord::from_json_line(&line).unwrap(), no_parent);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(SpanRecord::from_json_line("not json").is_err());
        assert!(SpanRecord::from_json_line("{\"id\":1}").is_err()); // no name
        assert!(SpanRecord::from_json_line("{\"name\":\"x\"}").is_err()); // no id
    }

    #[test]
    fn validate_accepts_own_export() {
        let ((), spans) = capture(|| {
            let _a = span("test.a");
            let _b = span("test.b");
        });
        let text: String =
            spans.iter().map(|s| s.to_json_line() + "\n").collect();
        // Export in close order (children before parents), as the stream
        // writer would.
        let mut by_close: Vec<&SpanRecord> = spans.iter().collect();
        // Ids increase with open order, so on an end-time tie the child
        // (higher id) still sorts before its parent.
        by_close.sort_by_key(|r| (r.end_ns(), std::cmp::Reverse(r.id)));
        let text_closed: String =
            by_close.iter().map(|s| s.to_json_line() + "\n").collect();
        let stats = validate_trace(&text_closed).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.roots, 1);
        assert_eq!(stats.max_depth, 2);
        // start-order export violates close-before-parent and is rejected
        // strictly — but flight mode severs the bad link instead.
        assert!(validate_trace(&text).is_err());
        let lenient = validate_trace_with(&text, ValidateMode::Flight).unwrap();
        assert_eq!(lenient.spans, 2);
        assert_eq!(lenient.severed, 1);
        assert_eq!(lenient.roots, 2);
    }

    #[test]
    fn flight_mode_tolerates_truncated_forests() {
        let ((), spans) = capture(|| {
            let _a = span("test.trunc.outer");
            let _b = span("test.trunc.mid");
            let _c = span("test.trunc.inner");
        });
        let mut by_close: Vec<&SpanRecord> = spans.iter().collect();
        by_close.sort_by_key(|r| (r.end_ns(), std::cmp::Reverse(r.id)));
        // A ring dump that lost the oldest record (the innermost span
        // closed first): the remaining spans still validate in both modes
        // (missing parents are roots), and dropping a *middle* record
        // leaves the inner span pointing at a gone parent — also fine.
        let tail: String =
            by_close[1..].iter().map(|s| s.to_json_line() + "\n").collect();
        let stats = validate_trace_with(&tail, ValidateMode::Flight).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.severed, 0);
        let gap: String = [by_close[0], by_close[2]]
            .iter()
            .map(|s| s.to_json_line() + "\n")
            .collect();
        let stats = validate_trace_with(&gap, ValidateMode::Flight).unwrap();
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.roots, 2, "orphaned child counts as a root");
        // An interval-escaping child is severed, not fatal.
        let parent = SpanRecord {
            id: 900_001,
            parent: None,
            thread: 0,
            name: "p".into(),
            label: None,
            start_ns: 100,
            dur_ns: 10,
            attrs: vec![],
        };
        let child = SpanRecord {
            id: 900_002,
            parent: Some(900_001),
            start_ns: 90,
            dur_ns: 5,
            name: "c".into(),
            ..parent.clone()
        };
        let text = format!("{}\n{}\n", child.to_json_line(), parent.to_json_line());
        assert!(validate_trace(&text).is_err());
        let stats = validate_trace_with(&text, ValidateMode::Flight).unwrap();
        assert_eq!(stats.severed, 1);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let parent = SpanRecord {
            id: 1,
            parent: None,
            thread: 0,
            name: "p".into(),
            label: None,
            start_ns: 100,
            dur_ns: 10,
            attrs: vec![],
        };
        let child = SpanRecord {
            id: 2,
            parent: Some(1),
            name: "c".into(),
            start_ns: 90,
            dur_ns: 5,
            ..parent.clone()
        };
        let text = format!("{}\n{}\n", child.to_json_line(), parent.to_json_line());
        assert!(validate_trace(&text).unwrap_err().contains("escapes"));
    }
}
