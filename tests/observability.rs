//! Observability-layer integration tests (DESIGN.md §8): parallel and
//! sequential evaluation agree on every semantic metric, disabled gates
//! keep the instrumented paths inert, captured profiles expose the
//! per-operator cardinalities, and exported traces always validate.
//!
//! Every test that evaluates in-process serializes on a shared lock: the
//! metrics registry is process-global, so a query run by an unlocked test
//! while another test has the gate on lands in that test's totals. The
//! tests that only spawn `doodprof`/`doodlint` touch another process's
//! registry and stay unlocked.

use dood::core::ids::{AssocId, Oid};
use dood::core::obs::{self, metrics, trace};
use dood::core::obs::metrics::MetricSnapshot;
use dood::core::pool::ChunkPool;
use dood::core::propcheck::check;
use dood::core::subdb::SubdbRegistry;
use dood::oql::eval::{fan_key_assoc, Evaluator};
use dood::oql::resolve::resolve_context;
use dood::oql::Parser;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::workload::university;
use std::sync::{Mutex, MutexGuard};

/// Serializes every test that enables, reads or (by evaluating in-process)
/// writes the global metrics registry.
fn metrics_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn eval_rows(db: &dood::store::Database, src: &str, pool: ChunkPool) -> usize {
    let reg = SubdbRegistry::new();
    let e = Parser::parse_context_expr(src).unwrap();
    let r = resolve_context(&e, db.schema(), &reg).unwrap();
    Evaluator::new(&r, db, &reg).unwrap().with_pool(pool).eval("t").len()
}

/// The semantic (non-timing, non-pool) metrics of a snapshot, as
/// comparable `(name, value)` pairs. Pool metrics (chunk counts, worker
/// timings) legitimately differ across thread counts; everything else —
/// join evaluations, predicate selectivity, subsumption eliminations,
/// index probes, rule deltas — must not.
fn semantic_metrics(snaps: &[MetricSnapshot]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for s in snaps {
        if s.name().starts_with("pool.") {
            continue;
        }
        match s {
            MetricSnapshot::Counter { name, value } => out.push((name.clone(), *value)),
            MetricSnapshot::Gauge { .. } => {}
            MetricSnapshot::Histogram { name, count, sum, .. } => {
                out.push((format!("{name}.count"), *count));
                out.push((format!("{name}.sum"), *sum));
            }
        }
    }
    out
}

/// Parallel evaluation must report the same semantic metric totals as the
/// sequential path: the instrumentation counts work done, not how it was
/// scheduled (ISSUE 5 acceptance).
#[test]
fn parallel_metric_totals_equal_sequential() {
    let _g = metrics_lock();
    obs::set_metrics_enabled(true);
    let db = university::populate(university::Size::small(), 42);
    let exprs = [
        "Teacher * Section * Course",
        "Department * Course * Section * Student",
        "Course ^*",
        "{Teacher * Section} * Course",
    ];
    for src in exprs {
        metrics::reset_all();
        let seq_rows = eval_rows(&db, src, ChunkPool::with_threads(1));
        let seq = semantic_metrics(&metrics::snapshot());

        metrics::reset_all();
        // cutoff 0 forces the chunked path even on small candidate sets.
        let par_rows = eval_rows(&db, src, ChunkPool::with_threads(4).cutoff(0));
        let par = semantic_metrics(&metrics::snapshot());

        assert_eq!(seq_rows, par_rows, "rows differ for `{src}`");
        assert_eq!(seq, par, "metric totals differ for `{src}`");
        assert!(
            seq.iter().any(|(n, v)| n == "oql.join.evals" && *v > 0)
                || src.contains('^'),
            "no join evaluations recorded for `{src}`: {seq:?}"
        );
    }
    metrics::reset_all();
    obs::set_metrics_enabled(false);
}

/// With both gates off, spans are inert guards and no counter moves:
/// the disabled path must stay observable-free (the <2% overhead bench
/// E15 measures the residual cost of these checks).
#[test]
fn disabled_gates_keep_instrumentation_inert() {
    let _g = metrics_lock();
    obs::set_metrics_enabled(false);
    metrics::reset_all();
    let before = semantic_metrics(&metrics::snapshot());

    let sp = trace::span("observability.test");
    assert!(!sp.on(), "span must be inert outside capture/stream");
    assert!(sp.id().is_none());
    drop(sp);

    let db = university::populate(university::Size::small(), 7);
    let rows = eval_rows(&db, "Teacher * Section * Course", ChunkPool::with_threads(2).cutoff(0));
    assert!(rows > 0);

    let after = semantic_metrics(&metrics::snapshot());
    assert_eq!(before, after, "metrics moved while disabled");
}

/// `run_query_profiled` returns a profile tree whose operator nodes carry
/// the deterministic cardinalities the paper's §4 query produces: the
/// rule-derivation span, the if-context join with its input/output rows,
/// and the query row count.
#[test]
fn profile_tree_exposes_operator_cardinalities() {
    let _g = metrics_lock();
    let db = university::populate(university::Size::small(), 42);
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
        .unwrap();
    let q = Parser::parse_query("context TC:Teacher * TC:Course display").unwrap();
    let (out, profile) = engine.run_query_profiled(&q).unwrap();
    assert!(!out.table.is_empty());

    let query = profile.find("rules.query").expect("rules.query span");
    assert_eq!(query.attr("rows"), Some(out.table.len() as i64));
    let derive = profile.find("rules.derive").expect("rules.derive span");
    assert_eq!(derive.attr("rules"), Some(1));
    let rule = profile.find("rules.rule").expect("rules.rule span");
    assert!(rule.attr("ctx_rows").unwrap_or(0) > 0);
    let join = profile.find("oql.join").expect("oql.join span");
    assert!(join.attr("rows_in").is_some());
    assert!(join.attr("rows_out").is_some());
    let ctx = profile.find("oql.context").expect("oql.context span");
    assert!(ctx.attr("rows_out").unwrap_or(-1) >= 0);

    // Determinism: same seed, same tree shape and cardinalities.
    let db2 = university::populate(university::Size::small(), 42);
    let mut engine2 = RuleEngine::new(db2);
    engine2
        .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
        .unwrap();
    let (out2, profile2) = engine2.run_query_profiled(&q).unwrap();
    assert_eq!(out.table.len(), out2.table.len());
    assert_eq!(profile.node_count(), profile2.node_count());
    assert_eq!(
        profile.find("oql.join").unwrap().attr("rows_out"),
        profile2.find("oql.join").unwrap().attr("rows_out")
    );
}

/// Property: any capture over a random university workload exports to a
/// JSON-lines trace that [`trace::validate_trace`] accepts — children
/// close before parents, ids are unique, intervals nest (ISSUE 5
/// satellite). Replay failures with `DOOD_PROP_SEED=<seed>`.
#[test]
fn exported_traces_always_validate() {
    let _g = metrics_lock();
    check("exported_traces_always_validate", 12, |g| {
        let seed = g.range(0u64..1000);
        let threads = [1usize, 2, 4][g.range(0..3) as usize];
        let db = university::populate(university::Size::small(), seed);
        let pool = ChunkPool::with_threads(threads).cutoff(0);
        let (rows, spans) = trace::capture(|| {
            eval_rows(&db, "Department * Course * Section * Student", pool)
                + eval_rows(&db, "Course ^*", ChunkPool::with_threads(1))
        });
        assert!(!spans.is_empty(), "capture produced no spans");

        // Stream order is close order: children before parents. Ties on
        // end_ns break toward the later-opened (inner) span.
        let mut by_close = spans.clone();
        by_close.sort_by_key(|r| (r.end_ns(), std::cmp::Reverse(r.id)));
        let text: String =
            by_close.iter().map(|r| r.to_json_line() + "\n").collect();
        let stats = trace::validate_trace(&text).expect("exported trace must validate");
        assert_eq!(stats.spans, spans.len());
        assert!(stats.roots >= 1);
        assert!(stats.max_depth >= 2, "expected nested spans, got {stats:?}");
        assert!(rows < usize::MAX);

        // Round-trip: parse-back equals the original records.
        for r in &by_close {
            let back = trace::SpanRecord::from_json_line(&r.to_json_line()).unwrap();
            assert_eq!(&back, r);
        }
    });
}

/// The `doodprof` CLI end-to-end: profile the builtin university program,
/// check the deterministic §4 cardinalities, then validate its own trace
/// export (ISSUE 5 acceptance).
#[test]
fn doodprof_cli_university_roundtrip() {
    let exe = env!("CARGO_BIN_EXE_doodprof");
    let dir = std::env::temp_dir().join(format!("doodprof-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.jsonl");

    let out = std::process::Command::new(exe)
        .args(["--builtin", "university", "--trace-out"])
        .arg(&trace_path)
        .output()
        .expect("run doodprof");
    assert!(out.status.success(), "doodprof failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== export Teacher_course ==  rows=11"), "{text}");
    assert!(text.contains("== query Q41 ==  rows=1"), "{text}");
    assert!(text.contains("oql.join"), "{text}");
    assert!(text.contains("rows_in="), "{text}");

    let validate = std::process::Command::new(exe)
        .arg("--validate")
        .arg(&trace_path)
        .output()
        .expect("run doodprof --validate");
    assert!(
        validate.status.success(),
        "trace export did not validate: {}",
        String::from_utf8_lossy(&validate.stderr)
    );
    let vtext = String::from_utf8_lossy(&validate.stdout);
    assert!(vtext.contains(": ok —"), "{vtext}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// End to end: a `DOOD_SLOWLOG_US=0` doodprof run must append one
/// [`obs::account::QueryReport`] JSON line per derivation/query, at least
/// one carrying the compiled-plan snapshot and per-stage estimated vs.
/// actual cardinalities, and `doodprof --slowlog` must render the file
/// (tentpole acceptance: a forced-slow run produces slow records).
#[test]
fn slowlog_e2e_records_plans_and_stages() {
    let exe = env!("CARGO_BIN_EXE_doodprof");
    let dir = std::env::temp_dir().join(format!("doodprof-slowlog-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("slow.jsonl");

    let out = std::process::Command::new(exe)
        .args(["--builtin", "university"])
        .env("DOOD_SLOWLOG_US", "0")
        .env("DOOD_SLOWLOG_FILE", &log)
        .output()
        .expect("run doodprof with slowlog armed");
    assert!(out.status.success(), "doodprof failed: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&log).expect("slowlog file written");
    let reports: Vec<obs::account::QueryReport> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| obs::account::QueryReport::from_json_line(l).expect("parseable slow record"))
        .collect();
    assert!(!reports.is_empty(), "threshold 0 must log every accounted run");
    assert!(reports.iter().any(|r| r.kind == "query"), "no query record: {text}");

    // At least one record must carry the compiled plan snapshot plus
    // per-stage estimated-vs-actual cardinalities.
    let planned = reports
        .iter()
        .find(|r| r.plan.is_some() && !r.stages.is_empty())
        .expect("no record with plan + stages");
    assert!(planned.plan.as_deref().unwrap().starts_with("plan\n"), "{:?}", planned.plan);
    assert!(planned.stages.iter().any(|s| s.est >= 0.0 && s.scanned >= s.kept));
    assert!(planned.rows_scanned > 0);

    // The renderer accepts its own log.
    let rendered = std::process::Command::new(exe)
        .arg("--slowlog")
        .arg(&log)
        .output()
        .expect("run doodprof --slowlog");
    assert!(rendered.status.success(), "{}", String::from_utf8_lossy(&rendered.stderr));
    let rtext = String::from_utf8_lossy(&rendered.stdout);
    assert!(rtext.contains("-- slow "), "{rtext}");
    assert!(rtext.contains("slow record(s)"), "{rtext}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: enabling the flight recorder must not change evaluation
/// results at any thread count — the ring only observes closed spans
/// (tentpole acceptance). Replay failures with `DOOD_PROP_SEED=<seed>`.
#[test]
fn recorder_on_equals_off_across_threads() {
    let _g = metrics_lock();
    check("recorder_on_equals_off_across_threads", 9, |g| {
        let seed = g.range(0u64..1000);
        let threads = [1usize, 2, 4][g.range(0..3) as usize];
        let db = university::populate(university::Size::small(), seed);
        let reg = SubdbRegistry::new();
        let eval = |src: &str| {
            let e = Parser::parse_context_expr(src).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            Evaluator::new(&r, &db, &reg)
                .unwrap()
                .with_pool(ChunkPool::with_threads(threads).cutoff(0))
                .eval("t")
                .to_vec()
        };
        for src in ["Teacher * Section * Course", "Course ^*"] {
            obs::recorder::set_enabled(false);
            let off = eval(src);
            obs::recorder::set_enabled(true);
            let on = eval(src);
            obs::recorder::set_enabled(false);
            obs::recorder::clear();
            assert_eq!(off, on, "recorder changed results for `{src}` at {threads} thread(s)");
        }
    });
}

/// Scrambled statistics must trip the plan-drift watchdog during seeding,
/// force drift-flagged caches to re-seed (re-plan) instead of delta-apply
/// on subsequent maintenance, keep maintained results equal to
/// from-scratch derivation throughout, and converge — replans stop once
/// the EWMA statistics re-enter the band (tentpole acceptance).
#[test]
fn drift_watchdog_replans_and_converges() {
    let _g = metrics_lock();
    obs::set_metrics_enabled(true);
    metrics::reset_all();
    obs::stats::clear();

    let db = university::populate(university::Size::scaled(2), 42);
    // Scramble every association's fan-out statistic to an absurd value so
    // the first compiled plan's estimates are far outside DOOD_DRIFT_BAND.
    for i in 0..db.schema().assoc_count() {
        let id = AssocId::from(i as u32);
        obs::stats::set(&fan_key_assoc(id, true), 512.0);
        obs::stats::set(&fan_key_assoc(id, false), 512.0);
    }

    let mut e = RuleEngine::new(db);
    e.add_rule("R1", "if context Teacher * Section * Course then TSC (Teacher, Course)")
        .unwrap();
    e.set_policy("TSC", EvalPolicy::PreEvaluated);
    e.subdb("TSC").unwrap();
    assert!(
        metrics::counter("oql.plan.drift").get() > 0,
        "scrambled stats must trip the watchdog during seeding"
    );

    // Churn the teaching links: each propagate must keep the maintained
    // copy exact while flagged caches re-seed against corrected stats.
    let mut last_replans = 0u64;
    let mut stable_rounds = 0u32;
    for round in 0..30usize {
        poke_teaches(&mut e, round);
        e.propagate().unwrap();
        let current = e.registry().subdb("TSC").expect("TSC materialized").to_vec();
        let fresh = e.derive_fresh("TSC").unwrap().to_vec();
        assert_eq!(current, fresh, "maintained TSC diverged in round {round}");
        let replans = metrics::counter("rules.maintain.replans").get();
        if replans == last_replans {
            stable_rounds += 1;
            if stable_rounds >= 3 {
                break;
            }
        } else {
            stable_rounds = 0;
            last_replans = replans;
        }
    }
    assert!(
        metrics::counter("rules.maintain.replans").get() > 0,
        "a drift-flagged cache must force a re-seed"
    );
    assert!(
        stable_rounds >= 3,
        "replans kept firing after 30 rounds: stats never converged"
    );

    metrics::reset_all();
    obs::set_metrics_enabled(false);
    obs::stats::clear();
}

/// Flip one random Teaches link per round (associate on even rounds,
/// dissociate on odd), so every propagate has a real delta to maintain.
fn poke_teaches(e: &mut RuleEngine, k: usize) {
    let db = e.db_mut();
    let teacher = db.schema().class_by_name("Teacher").unwrap();
    let section = db.schema().class_by_name("Section").unwrap();
    let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
    let ts: Vec<Oid> = db.extent(teacher).collect();
    let ss: Vec<Oid> = db.extent(section).collect();
    let (t, s) = (ts[k % ts.len()], ss[(k * 7 + 1) % ss.len()]);
    if k % 2 == 0 {
        let _ = db.associate(teaches, t, s);
    } else {
        let _ = db.dissociate(teaches, t, s);
    }
}

/// `doodlint --json` emits one parseable JSON object per diagnostic on
/// stdout and moves the summary to stderr (ISSUE 5 satellite).
#[test]
fn doodlint_json_output() {
    let exe = env!("CARGO_BIN_EXE_doodlint");
    let dir = std::env::temp_dir().join(format!("doodlint-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.dood");
    std::fs::write(
        &bad,
        "schema builtin university\n\nrule R1:\n  if context Teachr * Section\n  then X (Teachr)\n",
    )
    .unwrap();

    let out = std::process::Command::new(exe)
        .arg("--json")
        .arg(&bad)
        .output()
        .expect("run doodlint");
    assert_eq!(out.status.code(), Some(1), "lint errors must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "expected JSON diagnostics, got: {stdout}");
    for line in &lines {
        assert!(line.starts_with("{\"file\":"), "not a JSON diagnostic: {line}");
        assert!(line.ends_with('}'), "not a JSON diagnostic: {line}");
        assert!(line.contains("\"severity\":"), "{line}");
        assert!(line.contains("\"code\":"), "{line}");
    }
    assert!(stderr.contains("program(s) checked"), "summary must be on stderr: {stderr}");
    assert!(!stdout.contains("program(s) checked"), "summary leaked to stdout: {stdout}");

    // A clean builtin program emits no JSON objects and exits 0.
    let ok = std::process::Command::new(exe)
        .args(["--json", "--builtin"])
        .output()
        .expect("run doodlint --builtin");
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).trim().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
