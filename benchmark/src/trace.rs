//! The benchmark's own span recorder (choosing-metrics §4): one span per
//! call into an engine layer, made from the benchmark's files. Spans stay
//! in memory and are written out when the run ends. A layer's self time is
//! its span's duration minus the part its child spans cover; allocations
//! are attributed the same way.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// The engine layers a span can belong to — this repository's modules, in
/// pipeline order. Every per-layer metric is printed for each of these.
pub const LAYERS: [&str; 18] = [
    "workload.populate",
    "store.save",
    "store.load",
    "store.update",
    "oql.lex",
    "oql.parse",
    "oql.resolve",
    "oql.plan",
    "oql.eval",
    "oql.where",
    "oql.table",
    "rules.parse",
    "rules.analyze",
    "rules.absint",
    "rules.register",
    "rules.derive",
    "rules.propagate",
    "rules.query",
];

/// Layers that can run during a pass's set-up; `setup.<layer>.self_ms` is
/// printed for each.
pub const SETUP_LAYERS: [&str; 8] = [
    "workload.populate",
    "store.save",
    "store.load",
    "rules.parse",
    "rules.analyze",
    "rules.absint",
    "rules.register",
    "rules.derive",
];

/// `Span::op` of spans recorded while the run builds its inputs (once).
pub const OP_BUILD: i32 = -2;
/// `Span::op` of spans recorded during a pass's set-up.
pub const OP_SETUP: i32 = -1;

/// Work counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Patterns produced by `Evaluator::eval`.
    EvalPatterns,
    /// Rows produced by `build_table`.
    TableRows,
    /// Store events handed to `propagate`.
    PropagateEvents,
    /// Subdatabases `propagate` reported as re-derived.
    PropagateRederived,
    /// `propagate` calls.
    PropagateCalls,
    /// `propagate` calls that re-derived nothing.
    PropagateNoop,
    /// Bytes of dump text given to `load_full`.
    LoadBytes,
    /// Bytes of query text given to the OQL parser.
    ParseBytes,
}
const COUNTS: usize = Count::ParseBytes as usize + 1;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Timed pass the span belongs to.
    pub pass: u32,
    /// Op index, or [`OP_SETUP`] / [`OP_BUILD`].
    pub op: i32,
    /// Id of the enclosing span, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
    /// Allocations made by this span itself (children excluded).
    pub allocs: u64,
    /// Bytes requested by this span itself (children excluded).
    pub bytes: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    allocs0: u64,
    bytes0: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// A handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Token(Option<u32>);

/// The recorder. When off, `enter`/`exit`/`count` return at once without
/// reading the clock, so the untraced run pays one branch per boundary.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: u32,
    pass: u32,
    op: i32,
    stack: Vec<Open>,
    pub spans: Vec<Span>,
    counts: [u64; COUNTS],
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false, 0)
    }

    /// A recording tracer with room for `capacity` spans, so that its own
    /// growth does not show up in the allocation counts it reports.
    pub fn on(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    fn new(on: bool, capacity: usize) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: 0,
            pass: 0,
            op: OP_BUILD,
            stack: Vec::with_capacity(if on { 16 } else { 0 }),
            spans: Vec::with_capacity(capacity),
            counts: [0; COUNTS],
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag the spans that follow with a pass and an op index.
    pub fn at(&mut self, pass: u32, op: i32) {
        self.pass = pass;
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.on {
            return Token(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let (allocs0, bytes0) = alloc::snapshot();
        self.stack.push(Open {
            id,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            allocs0,
            bytes0,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
        Token(Some(id))
    }

    pub fn exit(&mut self, tok: Token) {
        let Some(id) = tok.0 else { return };
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let (allocs1, bytes1) = alloc::snapshot();
        // An op that returned early through `?` leaves inner spans open;
        // close them with the outer one.
        while let Some(open) = self.stack.pop() {
            let dur = end_ns - open.start_ns;
            let allocs = allocs1 - open.allocs0;
            let bytes = bytes1 - open.bytes0;
            let parent = self.stack.last_mut().map(|p| {
                p.child_ns += dur;
                p.child_allocs += allocs;
                p.child_bytes += bytes;
                p.id
            });
            self.spans.push(Span {
                id: open.id,
                pass: self.pass,
                op: self.op,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                self_ns: dur.saturating_sub(open.child_ns),
                allocs: allocs.saturating_sub(open.child_allocs),
                bytes: bytes.saturating_sub(open.child_bytes),
            });
            if open.id == id {
                break;
            }
        }
    }

    /// Take `by_ns` off the self time of the most recently closed span: the
    /// time it spent redoing work that the span before it measured on its
    /// own. (The traced path calls `analyze_bounds`, `analyze` and
    /// `register` one after the other, and each runs the one before it
    /// again internally.) Returns the closed span's duration, for the next
    /// call in such a sequence.
    pub fn discount_last(&mut self, by_ns: u64) -> u64 {
        match self.spans.last_mut() {
            Some(s) if self.on => {
                s.self_ns = s.self_ns.saturating_sub(by_ns);
                s.end_ns - s.start_ns
            }
            _ => 0,
        }
    }

    pub fn count(&mut self, what: Count, by: usize) {
        if self.on {
            self.counts[what as usize] += by as u64;
        }
    }

    pub fn counted(&self, what: Count) -> u64 {
        self.counts[what as usize]
    }

    pub fn reset_counts(&mut self) {
        self.counts = [0; COUNTS];
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{},\"pass\":{},\"op\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"allocs\":{},\"bytes\":{}}}",
                s.id, s.pass, s.op, s.name, s.start_ns, s.end_ns, s.self_ns, s.allocs, s.bytes
            );
        }
        out
    }
}

/// Run `$e` inside a span named `$name` on tracer `$t`.
#[macro_export]
macro_rules! span {
    ($t:expr, $name:expr, $e:expr) => {{
        let tok = $t.enter($name);
        let r = $e;
        $t.exit(tok);
        r
    }};
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
}

/// Totals per entry of `layers` over the spans `keep` selects. Spans whose
/// name is not a layer (the per-op root spans) are left out.
pub fn layer_totals(
    spans: &[Span],
    layers: &[&'static str],
    keep: impl Fn(&Span) -> bool,
) -> Vec<LayerTotals> {
    let mut out = vec![LayerTotals::default(); layers.len()];
    for s in spans.iter().filter(|s| keep(s)) {
        if let Some(i) = layers.iter().position(|l| *l == s.name) {
            let t = &mut out[i];
            t.calls += 1;
            t.self_ns += s.self_ns;
            t.allocs += s.allocs;
            t.bytes += s.bytes;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(16);
        t.at(1, 7);
        let outer = t.enter("rules.query");
        spin(200);
        let a = t.enter("oql.eval");
        spin(300);
        t.exit(a);
        let b = t.enter("oql.table");
        let v: Vec<u64> = Vec::with_capacity(100);
        spin(100);
        t.exit(b);
        drop(v);
        t.exit(outer);

        assert_eq!(t.spans.len(), 3);
        let by = |n: &str| t.spans.iter().find(|s| s.name == n).unwrap().clone();
        let (outer, eval, table) = (by("rules.query"), by("oql.eval"), by("oql.table"));
        let dur = |s: &Span| s.end_ns - s.start_ns;
        assert_eq!(eval.self_ns, dur(&eval));
        assert_eq!(outer.self_ns, dur(&outer) - dur(&eval) - dur(&table));
        assert_eq!(eval.parent, Some(outer.id));
        assert_eq!(table.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.self_ns >= 200_000 && outer.self_ns < dur(&outer));
        // The Vec was allocated inside `oql.table`. (Other tests allocate
        // on their own threads meanwhile, so only a lower bound is exact.)
        assert!(table.allocs >= 1 && table.bytes >= 800);
        assert!(t.spans.iter().all(|s| s.pass == 1 && s.op == 7));
    }

    #[test]
    fn exit_closes_spans_an_early_return_left_open() {
        let mut t = Tracer::on(16);
        let outer = t.enter("rules.query");
        let _leaked = t.enter("oql.parse");
        t.exit(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "oql.parse");
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let r = span!(t, "oql.eval", 41 + 1);
        t.count(Count::TableRows, 5);
        assert_eq!(r, 42);
        assert!(t.spans.is_empty());
        assert_eq!(t.counted(Count::TableRows), 0);
    }

    #[test]
    fn layer_totals_skip_roots_and_filter() {
        let mut t = Tracer::on(16);
        t.at(1, OP_SETUP);
        span!(t, "store.load", spin(50));
        t.at(1, 0);
        let root = t.enter("op.join3");
        span!(t, "oql.eval", spin(50));
        span!(t, "oql.eval", spin(50));
        t.exit(root);
        let ops = layer_totals(&t.spans, &LAYERS, |s| s.op >= 0);
        let eval = ops[LAYERS.iter().position(|l| *l == "oql.eval").unwrap()];
        assert_eq!(eval.calls, 2);
        assert!(eval.self_ns >= 100_000);
        assert_eq!(ops.iter().map(|l| l.calls).sum::<u64>(), 2);
        let setup = layer_totals(&t.spans, &SETUP_LAYERS, |s| s.op == OP_SETUP);
        assert_eq!(setup.iter().map(|l| l.calls).sum::<u64>(), 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut t = Tracer::on(4);
        span!(t, "store.load", ());
        let text = t.to_jsonl("univ_query");
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        for key in [
            "\"id\":",
            "\"op\":",
            "\"parent\":null",
            "\"name\":\"store.load\"",
            "\"self_ns\":",
            "\"bytes\":",
        ] {
            assert!(line.contains(key), "{key} missing in {line}");
        }
    }
}
