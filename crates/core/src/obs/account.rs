//! `obs::account` — per-query resource accounting and the slow-query log
//! (DESIGN.md §13).
//!
//! A query or maintenance pass opens an accounting [`Scope`]; while it is
//! the innermost open scope, the engine's aggregate instrumentation sites
//! (span execution, closure fixpoints, delta application) add their
//! counters to it through [`active`]. Closing the scope produces a
//! [`QueryReport`] — rows scanned, patterns built, per-stage estimated vs.
//! actual cardinalities, closure rounds, delta edits, wall time — and, if
//! the run exceeded the `DOOD_SLOWLOG_US` threshold, appends the report as
//! one JSON line to the slow-query log (`DOOD_SLOWLOG_FILE`, default
//! stderr) together with the compiled plan snapshot, and asks the flight
//! recorder to dump its ring ([`super::recorder::dump_on_anomaly`]).
//!
//! Cost contract: accounting is armed only when something can consume the
//! reports — `DOOD_SLOWLOG_US` in the environment or [`set_enabled`] —
//! because a scope is not free (per-stage labels, a plan snapshot, the
//! report on close). When disarmed, [`begin`] returns an inert scope
//! without evaluating its label, [`active`] stays `None` everywhere, and
//! every instrumentation site costs one relaxed atomic load. When armed,
//! accounting happens per join *stage*, never per row.

use super::{json_escape, now_ns};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum per-stage detail rows kept in one [`Account`]; later stages are
/// dropped (aggregate counters still accumulate).
pub const MAX_STAGES: usize = 64;

/// One pipeline stage's estimated vs. actual cardinalities.
#[derive(Debug, Clone, PartialEq)]
pub struct StageObs {
    /// Stage label, e.g. `scan s0` or `step s0->s1`.
    pub stage: String,
    /// The cost model's estimated rows for this stage when the plan was
    /// chosen.
    pub est: f64,
    /// Candidate rows actually scanned.
    pub scanned: u64,
    /// Rows surviving the stage's predicate/membership filters.
    pub kept: u64,
}

/// Accumulating resource counters for one query or maintenance pass.
#[derive(Debug)]
pub struct Account {
    kind: &'static str,
    label: String,
    start_ns: u64,
    rows_scanned: AtomicU64,
    patterns_built: AtomicU64,
    closure_rounds: AtomicU64,
    delta_inserted: AtomicU64,
    delta_removed: AtomicU64,
    stages: Mutex<Vec<StageObs>>,
    plan: Mutex<Option<String>>,
}

impl Account {
    fn new(kind: &'static str, label: String) -> Self {
        Account {
            kind,
            label,
            start_ns: now_ns(),
            rows_scanned: AtomicU64::new(0),
            patterns_built: AtomicU64::new(0),
            closure_rounds: AtomicU64::new(0),
            delta_inserted: AtomicU64::new(0),
            delta_removed: AtomicU64::new(0),
            stages: Mutex::new(Vec::new()),
            plan: Mutex::new(None),
        }
    }

    /// Count candidate rows scanned by a pipeline stage.
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    /// Count extension patterns materialized into a result.
    pub fn add_patterns_built(&self, n: u64) {
        self.patterns_built.fetch_add(n, Ordering::Relaxed);
    }

    /// Count closure fixpoint rounds run.
    pub fn add_closure_rounds(&self, n: u64) {
        self.closure_rounds.fetch_add(n, Ordering::Relaxed);
    }

    /// Count delta-maintenance pattern insertions and removals.
    pub fn add_delta_edits(&self, inserted: u64, removed: u64) {
        self.delta_inserted.fetch_add(inserted, Ordering::Relaxed);
        self.delta_removed.fetch_add(removed, Ordering::Relaxed);
    }

    /// Append one stage's estimated-vs-actual cardinalities. Capped at
    /// [`MAX_STAGES`] entries per account so unbounded closures (one stage
    /// per frontier round) cannot grow a report without limit; the counter
    /// totals keep accumulating regardless.
    pub fn add_stage(&self, stage: String, est: f64, scanned: u64, kept: u64) {
        let mut stages = self.stages.lock().unwrap();
        if stages.len() < MAX_STAGES {
            stages.push(StageObs { stage, est, scanned, kept });
        }
    }

    /// Attach the compiled plan snapshot (`CompiledContext::describe()`).
    /// Last writer wins: a maintenance pass evaluating several rules keeps
    /// the most recent plan.
    pub fn set_plan(&self, describe: String) {
        *self.plan.lock().unwrap() = Some(describe);
    }

    fn report(&self) -> QueryReport {
        QueryReport {
            kind: self.kind.to_string(),
            label: self.label.clone(),
            wall_us: now_ns().saturating_sub(self.start_ns) / 1_000,
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            patterns_built: self.patterns_built.load(Ordering::Relaxed),
            closure_rounds: self.closure_rounds.load(Ordering::Relaxed),
            delta_inserted: self.delta_inserted.load(Ordering::Relaxed),
            delta_removed: self.delta_removed.load(Ordering::Relaxed),
            stages: self.stages.lock().unwrap().clone(),
            plan: self.plan.lock().unwrap().clone(),
        }
    }
}

// ---------------------------------------------------------------------
// The scope stack
// ---------------------------------------------------------------------

/// Fast gate: true iff at least one scope is open anywhere.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether accounting scopes are live at all.
static ACCOUNT_GATE: super::Gate = super::Gate::new();

fn env_init() -> bool {
    std::env::var_os("DOOD_SLOWLOG_US").is_some()
}

/// Whether accounting is armed: `DOOD_SLOWLOG_US` present in the
/// environment (the slow-query log is the standing consumer) or
/// [`set_enabled`]. One relaxed atomic load after the first call.
#[inline]
pub fn is_enabled() -> bool {
    ACCOUNT_GATE.is_on(env_init)
}

/// Programmatically arm or disarm accounting (overrides the
/// `DOOD_SLOWLOG_US` environment default). Scopes already open stay live.
pub fn set_enabled(on: bool) {
    ACCOUNT_GATE.set(on);
}

fn stack() -> &'static Mutex<Vec<Arc<Account>>> {
    static S: OnceLock<Mutex<Vec<Arc<Account>>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

/// The innermost open account, if any. One relaxed atomic load when no
/// scope is open — the instrumentation sites' disabled-path cost.
#[inline]
pub fn active() -> Option<Arc<Account>> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    stack().lock().unwrap().last().cloned()
}

/// RAII accounting scope: closing produces the [`QueryReport`] and feeds
/// the slow-query log.
pub struct Scope {
    acc: Option<Arc<Account>>,
}

/// Open an accounting scope for a query (`kind = "query"`) or maintenance
/// pass (`kind = "maintain"`). The label closure is only evaluated when
/// accounting is armed ([`is_enabled`]); otherwise the scope is inert and
/// this costs one relaxed atomic load.
pub fn begin(kind: &'static str, label: impl FnOnce() -> String) -> Scope {
    if !is_enabled() {
        return Scope { acc: None };
    }
    let acc = Arc::new(Account::new(kind, label()));
    let mut st = stack().lock().unwrap();
    st.push(acc.clone());
    ACTIVE.store(true, Ordering::Relaxed);
    drop(st);
    Scope { acc: Some(acc) }
}

impl Scope {
    /// The scope's account (to attach a plan snapshot from the outside);
    /// `None` when the scope is inert (accounting disarmed at open).
    pub fn account(&self) -> Option<&Arc<Account>> {
        self.acc.as_ref()
    }

    /// Close the scope and return the report without consulting the
    /// slow-query log (tests and explicit surfaces); `None` when inert.
    pub fn finish_report(mut self) -> Option<QueryReport> {
        let acc = self.acc.take()?;
        let rep = acc.report();
        unregister(&acc);
        Some(rep)
    }
}

fn unregister(acc: &Arc<Account>) {
    let mut st = stack().lock().unwrap();
    if let Some(pos) = st.iter().rposition(|a| Arc::ptr_eq(a, acc)) {
        st.remove(pos);
    }
    if st.is_empty() {
        ACTIVE.store(false, Ordering::Relaxed);
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        let Some(acc) = self.acc.take() else { return };
        let rep = acc.report();
        unregister(&acc);
        maybe_log_slow(&rep);
    }
}

// ---------------------------------------------------------------------
// The slow-query log
// ---------------------------------------------------------------------

struct SlowCfg {
    /// Threshold in µs; `None` disables the log. `Some(0)` logs every run.
    thresh: Option<u64>,
    /// Override sink; `None` falls through to `DOOD_SLOWLOG_FILE` / stderr.
    sink: Option<Box<dyn Write + Send>>,
}

fn slowcfg() -> &'static Mutex<SlowCfg> {
    static S: OnceLock<Mutex<SlowCfg>> = OnceLock::new();
    S.get_or_init(|| {
        let thresh = std::env::var("DOOD_SLOWLOG_US")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        let sink: Option<Box<dyn Write + Send>> =
            match std::env::var("DOOD_SLOWLOG_FILE") {
                Ok(path) => match std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                {
                    Ok(f) => Some(Box::new(f)),
                    Err(e) => {
                        eprintln!(
                            "obs: cannot open DOOD_SLOWLOG_FILE `{path}`: {e}; using stderr"
                        );
                        None
                    }
                },
                Err(_) => None,
            };
        Mutex::new(SlowCfg { thresh, sink })
    })
}

/// Override the slow-query threshold (µs); `None` disables the log.
/// Overrides the `DOOD_SLOWLOG_US` environment default.
pub fn set_slowlog_threshold(us: Option<u64>) {
    slowcfg().lock().unwrap().thresh = us;
}

/// Append slow-query records to `path` instead of the environment default.
pub fn slowlog_to_path(path: &str) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    slowcfg().lock().unwrap().sink = Some(Box::new(f));
    Ok(())
}

fn maybe_log_slow(rep: &QueryReport) {
    let mut cfg = slowcfg().lock().unwrap();
    let Some(thresh) = cfg.thresh else { return };
    if rep.wall_us < thresh {
        return;
    }
    let line = rep.to_json_line();
    match cfg.sink.as_mut() {
        Some(w) => {
            let _ = writeln!(w, "{line}");
            let _ = w.flush(); // slow queries are rare; keep the log durable
        }
        None => eprintln!("{line}"),
    }
    drop(cfg);
    if super::metrics_enabled() {
        super::metrics::counter("obs.slowlog.records").inc();
    }
    super::recorder::dump_on_anomaly(&format!(
        "slow {} `{}`: {}us >= {}us",
        rep.kind, rep.label, rep.wall_us, thresh
    ));
}

// ---------------------------------------------------------------------
// QueryReport
// ---------------------------------------------------------------------

/// The closed-scope resource report — the slow-query log's record shape.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// `query` or `maintain`.
    pub kind: String,
    /// Query/context name, or the maintenance pass label.
    pub label: String,
    /// Wall time, µs.
    pub wall_us: u64,
    /// Candidate rows scanned across all pipeline stages.
    pub rows_scanned: u64,
    /// Extension patterns materialized.
    pub patterns_built: u64,
    /// Closure fixpoint rounds run.
    pub closure_rounds: u64,
    /// Delta-maintenance pattern insertions.
    pub delta_inserted: u64,
    /// Delta-maintenance pattern removals.
    pub delta_removed: u64,
    /// Per-stage estimated vs. actual cardinalities, in execution order.
    pub stages: Vec<StageObs>,
    /// The compiled plan snapshot (`describe()`), when one was executed.
    pub plan: Option<String>,
}

impl QueryReport {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"kind\":\"{}\",\"label\":\"{}\",\"wall_us\":{},\
             \"rows_scanned\":{},\"patterns_built\":{},\"closure_rounds\":{},\
             \"delta_inserted\":{},\"delta_removed\":{}",
            json_escape(&self.kind),
            json_escape(&self.label),
            self.wall_us,
            self.rows_scanned,
            self.patterns_built,
            self.closure_rounds,
            self.delta_inserted,
            self.delta_removed,
        ));
        s.push_str(",\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"stage\":\"{}\",\"est\":{},\"scanned\":{},\"kept\":{}}}",
                json_escape(&st.stage),
                st.est,
                st.scanned,
                st.kept
            ));
        }
        s.push(']');
        if let Some(p) = &self.plan {
            s.push_str(&format!(",\"plan\":\"{}\"", json_escape(p)));
        }
        s.push('}');
        s
    }

    /// Parse one JSON line produced by [`QueryReport::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<QueryReport, String> {
        let mut p = super::trace::JsonParser::new(line);
        p.expect(b'{')?;
        let mut rep = QueryReport {
            kind: String::new(),
            label: String::new(),
            wall_us: 0,
            rows_scanned: 0,
            patterns_built: 0,
            closure_rounds: 0,
            delta_inserted: 0,
            delta_removed: 0,
            stages: Vec::new(),
            plan: None,
        };
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
                "kind" => rep.kind = p.string()?,
                "label" => rep.label = p.string()?,
                "wall_us" => rep.wall_us = p.integer()? as u64,
                "rows_scanned" => rep.rows_scanned = p.integer()? as u64,
                "patterns_built" => rep.patterns_built = p.integer()? as u64,
                "closure_rounds" => rep.closure_rounds = p.integer()? as u64,
                "delta_inserted" => rep.delta_inserted = p.integer()? as u64,
                "delta_removed" => rep.delta_removed = p.integer()? as u64,
                "plan" => rep.plan = Some(p.string()?),
                "stages" => {
                    p.expect(b'[')?;
                    p.ws();
                    if !p.eat(b']') {
                        loop {
                            p.ws();
                            p.expect(b'{')?;
                            let mut st = StageObs {
                                stage: String::new(),
                                est: 0.0,
                                scanned: 0,
                                kept: 0,
                            };
                            loop {
                                p.ws();
                                if p.eat(b'}') {
                                    break;
                                }
                                let k = p.string()?;
                                p.ws();
                                p.expect(b':')?;
                                p.ws();
                                match k.as_str() {
                                    "stage" => st.stage = p.string()?,
                                    "est" => st.est = p.number()?,
                                    "scanned" => st.scanned = p.integer()? as u64,
                                    "kept" => st.kept = p.integer()? as u64,
                                    other => {
                                        return Err(format!("unknown stage key `{other}`"))
                                    }
                                }
                                p.ws();
                                if !p.eat(b',') {
                                    p.ws();
                                    p.expect(b'}')?;
                                    break;
                                }
                            }
                            rep.stages.push(st);
                            p.ws();
                            if !p.eat(b',') {
                                p.ws();
                                p.expect(b']')?;
                                break;
                            }
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
        if rep.kind.is_empty() {
            return Err("report line missing `kind`".into());
        }
        Ok(rep)
    }

    /// Human-readable rendering (the `doodprof --slowlog` surface).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "-- slow {} `{}`  wall={}us\n",
            self.kind, self.label, self.wall_us
        ));
        out.push_str(&format!(
            "   rows_scanned={} patterns_built={} closure_rounds={} \
             delta=+{}/-{}\n",
            self.rows_scanned,
            self.patterns_built,
            self.closure_rounds,
            self.delta_inserted,
            self.delta_removed,
        ));
        for st in &self.stages {
            out.push_str(&format!(
                "   stage {}: est={:.1} scanned={} kept={}\n",
                st.stage, st.est, st.scanned, st.kept
            ));
        }
        if let Some(p) = &self.plan {
            out.push_str("   plan:\n");
            for line in p.lines() {
                out.push_str("     ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scope stack is process-global; serialize the tests that use it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disarmed_begin_is_inert() {
        let _g = lock();
        set_enabled(false);
        let scope = begin("query", || unreachable!("label must stay lazy"));
        assert!(active().is_none(), "inert scope must not register");
        assert!(scope.account().is_none());
        assert!(scope.finish_report().is_none());
    }

    #[test]
    fn scope_accumulates_and_reports() {
        let _g = lock();
        set_enabled(true);
        assert!(active().is_none(), "no scope open at test start");
        let scope = begin("query", || "t1".into());
        let acc = active().expect("scope open");
        acc.add_rows_scanned(10);
        acc.add_patterns_built(4);
        acc.add_closure_rounds(2);
        acc.add_delta_edits(3, 1);
        acc.add_stage("scan s0".into(), 12.5, 10, 8);
        acc.set_plan("span [0,2) anchor=s0".into());
        let rep = scope.finish_report().expect("armed scope reports");
        set_enabled(false);
        assert_eq!(rep.kind, "query");
        assert_eq!(rep.label, "t1");
        assert_eq!(rep.rows_scanned, 10);
        assert_eq!(rep.patterns_built, 4);
        assert_eq!(rep.closure_rounds, 2);
        assert_eq!((rep.delta_inserted, rep.delta_removed), (3, 1));
        assert_eq!(rep.stages.len(), 1);
        assert_eq!(rep.plan.as_deref(), Some("span [0,2) anchor=s0"));
    }

    #[test]
    fn nested_scopes_route_to_innermost() {
        let _g = lock();
        set_enabled(true);
        let outer = begin("maintain", || "outer".into());
        {
            let inner = begin("query", || "inner".into());
            active().unwrap().add_rows_scanned(5);
            let rep = inner.finish_report().expect("armed scope reports");
            assert_eq!(rep.rows_scanned, 5);
        }
        active().unwrap().add_rows_scanned(7);
        let rep = outer.finish_report().expect("armed scope reports");
        set_enabled(false);
        assert_eq!(rep.rows_scanned, 7, "inner counts stay with inner");
    }

    #[test]
    fn report_json_round_trips() {
        let rep = QueryReport {
            kind: "query".into(),
            label: "Context \"x\"".into(),
            wall_us: 1234,
            rows_scanned: 100,
            patterns_built: 40,
            closure_rounds: 3,
            delta_inserted: 5,
            delta_removed: 2,
            stages: vec![
                StageObs { stage: "scan s0".into(), est: 12.5, scanned: 10, kept: 8 },
                StageObs { stage: "step s0->s1".into(), est: 3.0, scanned: 24, kept: 20 },
            ],
            plan: Some("span [0,2) anchor=s0 cost=12.5\n  scan s0 est=12".into()),
        };
        let line = rep.to_json_line();
        assert_eq!(QueryReport::from_json_line(&line).unwrap(), rep);
        let no_plan = QueryReport { plan: None, stages: vec![], ..rep };
        let line = no_plan.to_json_line();
        assert_eq!(QueryReport::from_json_line(&line).unwrap(), no_plan);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(QueryReport::from_json_line("nope").is_err());
        assert!(QueryReport::from_json_line("{\"label\":\"x\"}").is_err()); // no kind
    }
}
