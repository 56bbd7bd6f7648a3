//! Determinism of the parallel evaluation paths (DESIGN.md §6): the
//! chunk-partitioned span join, the partial-group-map aggregation, and
//! stratum-parallel forward maintenance must produce results identical to
//! the sequential evaluator at every thread count — and the sequential
//! evaluator's to the spec-level interpreter of `tests/common/spec_eval.rs`.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

#[path = "common/spec_eval.rs"]
mod spec_eval;

use dood::core::pool::ChunkPool;
use dood::core::propcheck::check;
use dood::core::subdb::{ExtPattern, Subdatabase, SubdbRegistry};
use dood::oql::eval::Evaluator;
use dood::oql::resolve::resolve_context;
use dood::oql::Parser;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::store::Database;
use dood::workload::university;
use spec_eval::{rows_of, spec_query};

const CASES: usize = 16;

/// Context expressions over the university schema exercising inner joins,
/// braces, non-association, conditions, and transitive closure.
const EXPRS: &[&str] = &[
    "Teacher * Section * Course",
    "Course * Section * Teacher",
    "{Teacher * Section} * Course",
    "Department * Course * Section * Student",
    "Student ! Section",
    "Teacher * Section * Course [c# >= 5000]",
    "Course ^*",
];

fn eval_with(db: &Database, reg: &SubdbRegistry, src: &str, pool: ChunkPool) -> Vec<ExtPattern> {
    let e = Parser::parse_context_expr(src).unwrap();
    let r = resolve_context(&e, db.schema(), reg).unwrap();
    Evaluator::new(&r, db, reg).unwrap().with_pool(pool).eval("t").to_vec()
}

/// The partitioned span join is byte-identical to the sequential path at
/// every thread count, on random populations and expressions, and the
/// sequential path returns the spec's patterns.
#[test]
fn parallel_span_join_equals_sequential() {
    check("parallel_span_join_equals_sequential", CASES, |g| {
        let seed = g.range(0u64..1000);
        let factor = g.range(1u64..4) as usize;
        let db = university::populate(university::Size::scaled(factor), seed);
        let reg = SubdbRegistry::new();
        let src = EXPRS[g.range(0..EXPRS.len() as u64) as usize];
        // cutoff 0 forces the chunked path even on small candidate sets.
        let sequential = eval_with(&db, &reg, src, ChunkPool::with_threads(1));
        let spec = spec_query(&db, &reg, src);
        let as_rows: Vec<_> = sequential.iter().map(|p| p.components().to_vec()).collect();
        assert_eq!(as_rows, spec, "engine != spec, expr={src}");
        for threads in [2, 4, 8] {
            let parallel =
                eval_with(&db, &reg, src, ChunkPool::with_threads(threads).cutoff(0));
            assert_eq!(sequential, parallel, "threads={threads} expr={src}");
        }
    });
}

/// The engine's cost-based join order and the spec interpreter's fixed
/// left-to-right one return the same patterns on random workloads. (The
/// statistics registry is process-global, so the orders the engine picks
/// here vary with how this binary's tests interleave.)
#[test]
fn planner_modes_agree_on_random_workloads() {
    check("planner_modes_agree_on_random_workloads", CASES, |g| {
        let seed = g.range(0u64..1000);
        let db = university::populate(university::Size::small(), seed);
        let reg = SubdbRegistry::new();
        for src in EXPRS {
            let e = Parser::parse_context_expr(src).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            let engine = rows_of(&Evaluator::new(&r, &db, &reg).unwrap().eval("t"));
            assert_eq!(engine, spec_query(&db, &reg, src), "expr={src}");
        }
    });
}

/// Grouped aggregation through the partial-group-map merge agrees with
/// the expected group semantics at any configured thread count.
#[test]
fn parallel_aggregation_equals_sequential() {
    check("parallel_aggregation_equals_sequential", CASES, |g| {
        let seed = g.range(0u64..1000);
        let factor = g.range(1u64..3) as usize;
        let threshold = g.range(1u64..30);
        let db = university::populate(university::Size::scaled(factor), seed);
        let reg = SubdbRegistry::new();
        let oql = dood::oql::Oql::new();
        let q = Parser::parse_query(&format!(
            "context Department * Course * Section * Student \
             where count(Student by Course) > {threshold}"
        ))
        .unwrap();
        let run = |threads: &str| {
            std::env::set_var("DOOD_THREADS", threads);
            let out = oql.run(&db, &reg, &q).unwrap().subdb.to_vec();
            std::env::remove_var("DOOD_THREADS");
            out
        };
        let one = run("1");
        let four = run("4");
        assert_eq!(one, four, "threshold={threshold}");
    });
}

/// Stratum-parallel forward maintenance commits the same registry contents
/// as single-threaded propagation, and both match from-scratch derivation.
#[test]
fn parallel_forward_maintenance_is_deterministic() {
    check("parallel_forward_maintenance_is_deterministic", CASES, |g| {
        let seed = g.range(0u64..1000);
        let results: Vec<Vec<Vec<ExtPattern>>> = ["1", "4"]
            .iter()
            .map(|threads| {
                std::env::set_var("DOOD_THREADS", threads);
                let db = university::populate(university::Size::small(), seed);
                let mut engine = RuleEngine::new(db);
                // Two independent results (one stratum) plus a dependent one.
                engine
                    .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
                    .unwrap();
                engine
                    .add_rule("R2", "if context Course * Section * Student then CS (Course, Student)")
                    .unwrap();
                engine
                    .add_rule("R3", "if context TC:Course * Section then TCS (Course, Section)")
                    .unwrap();
                for name in ["TC", "CS", "TCS"] {
                    engine.set_policy(name, EvalPolicy::PreEvaluated);
                    engine.subdb(name).unwrap();
                }
                // A batch of random updates, then forward chaining.
                let teacher = engine.db().schema().class_by_name("Teacher").unwrap();
                let n_new = g.range(1u64..4);
                for _ in 0..n_new {
                    engine.db_mut().new_object(teacher).unwrap();
                }
                let rederived = engine.propagate().unwrap();
                assert!(!rederived.is_empty());
                for name in ["TC", "CS", "TCS"] {
                    assert!(engine.is_consistent(name).unwrap(), "{name} stale");
                }
                std::env::remove_var("DOOD_THREADS");
                let mut out = Vec::new();
                for name in ["TC", "CS", "TCS"] {
                    out.push(engine.registry().subdb(name).unwrap().to_vec());
                }
                out
            })
            .collect();
        assert_eq!(results[0], results[1]);
    });
}

/// The read path shared across pool workers must be `Sync` (tentpole
/// audit): `&Database`, `&SubdbRegistry`, and subdatabases cross thread
/// boundaries in the span join and stratum fan-out.
#[test]
fn read_path_types_are_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<SubdbRegistry>();
    assert_send_sync::<Subdatabase>();
    assert_send_sync::<ExtPattern>();
    assert_send_sync::<ChunkPool>();
}
