//! Observability-layer integration tests (DESIGN.md §8): repeated
//! evaluations of one query agree on every semantic metric, disabled gates
//! keep the instrumented paths inert, captured profiles expose the
//! per-operator cardinalities, and exported traces always validate.
//!
//! Every test that evaluates in-process serializes on a shared lock: the
//! metrics registry is process-global, so a query run by an unlocked test
//! while another test has the gate on lands in that test's totals. The
//! tests that only spawn `doodprof`/`doodlint` touch another process's
//! registry and stay unlocked.

use dood::core::ids::Oid;
use dood::core::obs::{self, metrics, trace};
use dood::core::obs::metrics::MetricSnapshot;
use dood::core::propcheck::check;
use dood::core::subdb::SubdbRegistry;
use dood::oql::eval::Evaluator;
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

fn eval_rows(db: &dood::store::Database, src: &str) -> usize {
    let reg = SubdbRegistry::new();
    let e = Parser::parse_context_expr(src).unwrap();
    let r = resolve_context(&e, db.schema(), &reg).unwrap();
    Evaluator::new(&r, db, &reg).unwrap().eval("t").len()
}

/// The semantic (non-timing) metrics of a snapshot, as comparable
/// `(name, value)` pairs: join evaluations, predicate selectivity,
/// subsumption eliminations, index probes, rule deltas.
fn semantic_metrics(snaps: &[MetricSnapshot]) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for s in snaps {
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

/// Two runs of the same query must report the same semantic metric
/// totals: the instrumentation counts work done, which depends only on the
/// query and the data.
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
        let first_rows = eval_rows(&db, src);
        let first = semantic_metrics(&metrics::snapshot());

        metrics::reset_all();
        let second_rows = eval_rows(&db, src);
        let second = semantic_metrics(&metrics::snapshot());

        assert_eq!(first_rows, second_rows, "rows differ for `{src}`");
        assert_eq!(first, second, "metric totals differ for `{src}`");
        assert!(
            first.iter().any(|(n, v)| n == "oql.join.evals" && *v > 0)
                || src.contains('^'),
            "no join evaluations recorded for `{src}`: {first:?}"
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
    let rows = eval_rows(&db, "Teacher * Section * Course");
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
        let db = university::populate(university::Size::small(), seed);
        let (rows, spans) = trace::capture(|| {
            eval_rows(&db, "Department * Course * Section * Student")
                + eval_rows(&db, "Course ^*")
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
/// results — the ring only observes closed spans. Replay failures with
/// `DOOD_PROP_SEED=<seed>`.
#[test]
fn recorder_on_equals_off_across_threads() {
    let _g = metrics_lock();
    check("recorder_on_equals_off_across_threads", 9, |g| {
        let seed = g.range(0u64..1000);
        let db = university::populate(university::Size::small(), seed);
        let reg = SubdbRegistry::new();
        let eval = |src: &str| {
            let e = Parser::parse_context_expr(src).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            Evaluator::new(&r, &db, &reg).unwrap().eval("t").to_vec()
        };
        for src in ["Teacher * Section * Course", "Course ^*"] {
            obs::recorder::set_enabled(false);
            let off = eval(src);
            obs::recorder::set_enabled(true);
            let on = eval(src);
            obs::recorder::set_enabled(false);
            obs::recorder::clear();
            assert_eq!(off, on, "recorder changed results for `{src}`");
        }
    });
}

/// A plan cached at seeding orders its delta steps from the counts at
/// each step, not from those it was seeded with. `TSC` is seeded while
/// only every fourth `Teaches` link exists, then `Teaches` grows past one
/// link per section over 30 rounds. The maintained copy equals a fresh
/// derivation every round, and at the end the seeded plan orders a
/// Section-anchored delta step exactly as a plan compiled from the final
/// counts does — differently from how it ordered it at seeding.
#[test]
fn drift_watchdog_replans_and_converges() {
    // Evaluates in-process, so it would leak counts into a locked test's
    // metric totals while that test has the gate on.
    let _g = metrics_lock();
    let mut db = university::populate(university::Size::small(), 42);
    let teacher = db.schema().class_by_name("Teacher").unwrap();
    let section = db.schema().class_by_name("Section").unwrap();
    let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
    let ts: Vec<Oid> = db.extent(teacher).collect();
    let ss: Vec<Oid> = db.extent(section).collect();
    let links: Vec<(Oid, Oid)> =
        ts.iter().flat_map(|&t| db.neighbors(teaches, t, true).iter().map(move |&s| (t, s))).collect();
    for (i, &(t, s)) in links.iter().enumerate() {
        if i % 4 != 0 {
            db.dissociate(teaches, t, s).unwrap();
        }
    }

    let mut e = RuleEngine::new(db);
    e.add_rule("R1", "if context Teacher * Section * Course then TSC (Teacher, Course)")
        .unwrap();
    e.set_policy("TSC", EvalPolicy::PreEvaluated);
    e.subdb("TSC").unwrap();
    let expr = Parser::parse_context_expr("Teacher * Section * Course").unwrap();
    let ctx = resolve_context(&expr, e.db().schema(), e.registry()).unwrap();
    // Steps of the delta plan anchored at Section (slot 1), one dirty object.
    let order = |ev: &Evaluator| -> Vec<(usize, usize)> {
        ev.delta_plan(0, 3, 1, 1).steps.iter().map(|st| (st.from_slot, st.to_slot)).collect()
    };
    let seeded = Evaluator::new(&ctx, e.db(), e.registry()).unwrap();
    let seeded_order = order(&seeded);
    let seeded = seeded.plan_handle();

    let per_round = 2 * ss.len() / 30 + 2;
    for round in 0..30usize {
        let db = e.db_mut();
        for j in 0..per_round {
            let k = round * per_round + j;
            let (t, s) = (ts[k % ts.len()], ss[(k / ts.len() + k) % ss.len()]);
            if !db.linked(teaches, t, s) {
                db.associate(teaches, t, s).unwrap();
            }
        }
        e.propagate().unwrap();
        let current = e.registry().subdb("TSC").expect("TSC materialized").to_vec();
        let fresh = e.derive_fresh("TSC").unwrap().to_vec();
        assert_eq!(current, fresh, "maintained TSC diverged in round {round}");
    }
    assert!(e.db().link_count(teaches) > ss.len(), "Teaches did not outgrow the sections");
    let cached = Evaluator::with_compiled(&ctx, e.db(), e.registry(), seeded).unwrap();
    let costed = Evaluator::new(&ctx, e.db(), e.registry()).unwrap();
    assert_eq!(order(&cached), order(&costed), "cached plan ignored the final counts");
    assert_ne!(order(&costed), seeded_order, "growth never changed the delta order");
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
