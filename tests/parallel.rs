//! The evaluator against independent references: the span join against
//! the spec-level interpreter of `tests/common/spec_eval.rs`, grouped
//! aggregation against the rebuilding WHERE filter of
//! `tests/common/result_oracle.rs`, and stratum-wise forward maintenance
//! against from-scratch derivation and against a second identical run.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

#[path = "common/spec_eval.rs"]
mod spec_eval;

#[allow(dead_code)]
#[path = "common/result_oracle.rs"]
mod result_oracle;

use dood::core::propcheck::check;
use dood::core::subdb::{ExtPattern, Subdatabase, SubdbRegistry};
use dood::oql::eval::Evaluator;
use dood::oql::resolve::resolve_context;
use dood::oql::Parser;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::store::Database;
use dood::workload::university;
use result_oracle::apply_where_rebuilding;
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

fn eval(db: &Database, reg: &SubdbRegistry, src: &str) -> Subdatabase {
    let e = Parser::parse_context_expr(src).unwrap();
    let r = resolve_context(&e, db.schema(), reg).unwrap();
    Evaluator::new(&r, db, reg).unwrap().eval("t")
}

/// The span join returns the spec's patterns on random populations and
/// expressions.
#[test]
fn parallel_span_join_equals_sequential() {
    check("parallel_span_join_equals_sequential", CASES, |g| {
        let seed = g.range(0u64..1000);
        let factor = g.range(1u64..4) as usize;
        let db = university::populate(university::Size::scaled(factor), seed);
        let reg = SubdbRegistry::new();
        let src = EXPRS[g.range(0..EXPRS.len() as u64) as usize];
        assert_eq!(rows_of(&eval(&db, &reg, src)), spec_query(&db, &reg, src), "expr={src}");
    });
}

/// The engine's cost-based join order and the spec interpreter's fixed
/// left-to-right one return the same patterns on random workloads. (The
/// engine's orders follow each random population's counts.)
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

/// Grouped aggregation through the query pipeline agrees with the
/// rebuilding filter's hash-map grouping over the same context.
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
        let engine = oql.run(&db, &reg, &q).unwrap().subdb.to_vec();
        let mut oracle = eval(&db, &reg, "Department * Course * Section * Student");
        apply_where_rebuilding(&mut oracle, &q.where_, &db).unwrap();
        assert_eq!(engine, oracle.to_vec(), "threshold={threshold}");
    });
}

/// Stratum-wise forward maintenance matches from-scratch derivation, and
/// two identical runs commit the same registry contents.
#[test]
fn parallel_forward_maintenance_is_deterministic() {
    check("parallel_forward_maintenance_is_deterministic", CASES, |g| {
        let seed = g.range(0u64..1000);
        let n_new = g.range(1u64..4);
        let results: Vec<Vec<Vec<ExtPattern>>> = (0..2)
            .map(|_| {
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
                for _ in 0..n_new {
                    engine.db_mut().new_object(teacher).unwrap();
                }
                let rederived = engine.propagate().unwrap();
                assert!(!rederived.is_empty());
                for name in ["TC", "CS", "TCS"] {
                    assert!(engine.is_consistent(name).unwrap(), "{name} stale");
                }
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

/// The read path stays `Send + Sync`, so callers can share a database and
/// its derived subdatabases across their own threads.
#[test]
fn read_path_types_are_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<SubdbRegistry>();
    assert_send_sync::<Subdatabase>();
    assert_send_sync::<ExtPattern>();
}
