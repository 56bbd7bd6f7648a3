//! Paper §5 — association pattern subexpressions (braces + subsumption,
//! Query 5.1) and the transitive closure operation (rules R6 and R7).

mod common;
#[path = "common/spec_eval.rs"]
mod spec_eval;

use common::{assert_patterns, patterns_of, s};
use dood::core::ids::Oid;
use dood::core::subdb::SubdbRegistry;
use dood::core::value::Value;
use dood::oql::resolve::resolve_context;
use dood::oql::Oql;
use dood::rules::{Program, RuleEngine};
use dood::store::Database;
use dood::workload::figures::fig_5_1;
use dood::workload::{programs, university};
use spec_eval::{spec_eval, Row};

/// §5.1's exact example: "if the original database contains only the two
/// patterns (a1,b5,c5,d5) and (b2,c2), then the expression A * {B * C} * D
/// returns the extensional patterns (a1,b5,c5,d5) and (b2,c2). The
/// extensional pattern (b5,c5) will not appear independently in the result
/// since it already appears as a part of (a1,b5,c5,d5)."
#[test]
fn braces_subsumption_a_b_c_d() {
    let (db, names) = fig_5_1();
    let reg = SubdbRegistry::new();
    let out = Oql::new().query(&db, &reg, "context A * {B * C} * D").unwrap();
    assert_patterns(
        &out.subdb,
        vec![
            vec![s(names["a1"]), s(names["b5"]), s(names["c5"]), s(names["d5"])],
            vec![None, s(names["b2"]), s(names["c2"]), None],
        ],
    );
}

/// Nested subexpressions: `{{A} * B} * C` identifies the pattern types (A),
/// (A,B) and (A,B,C) (paper §5.1).
#[test]
fn nested_braces_pattern_types() {
    let (db, names) = fig_5_1();
    let reg = SubdbRegistry::new();
    // Over the §5.1 instance: a1 extends all the way to c5, so only the
    // full (A,B,C) pattern survives for a1's chain.
    let out = Oql::new().query(&db, &reg, "context {{A} * B} * C").unwrap();
    assert_patterns(
        &out.subdb,
        vec![vec![s(names["a1"]), s(names["b5"]), s(names["c5"])]],
    );
    // Add an A object with no B: it survives as an (A) pattern.
    let mut db = db;
    let a_cls = db.schema().class_by_name("A").unwrap();
    let lonely = db.new_object(a_cls).unwrap();
    let out2 = Oql::new().query(&db, &reg, "context {{A} * B} * C").unwrap();
    assert_patterns(
        &out2.subdb,
        vec![
            vec![s(names["a1"]), s(names["b5"]), s(names["c5"])],
            vec![s(lonely), None, None],
        ],
    );
}

/// Query 5.1: "Display the SS's of all graduate students whether they have
/// advisors or not, and for those graduate students who have advisors
/// display their advisors' names … each tuple contains a Grad's SS and
/// either a faculty name or a Null value if the student has no advisor."
#[test]
fn query_5_1_braces() {
    let (db, pop) = university::populate_with_handles(university::Size::small(), 3);
    let reg = SubdbRegistry::new();
    let out = Oql::new()
        .query(
            &db,
            &reg,
            "context {{Grad} * Advising} * Faculty select Grad[SS], Faculty[name] display",
        )
        .unwrap();
    // Every grad appears.
    let grads_in_result = out.subdb.extent_of("Grad").unwrap();
    assert_eq!(grads_in_result.len(), pop.grads.len());
    // Advised grads carry a faculty; unadvised ones carry Nulls.
    let advising_cls = db.schema().class_by_name("Advising").unwrap();
    let advisee = db.schema().own_link_by_name(advising_cls, "Advisee").unwrap();
    for p in out.subdb.patterns() {
        let g = p.get(0).expect("grad slot never Null here");
        let advised = !db.neighbors(advisee, g, false).is_empty();
        assert_eq!(p.get(1).is_some(), advised, "pattern {p}");
        assert_eq!(p.get(2).is_some(), advised, "pattern {p}");
    }
    // And the table has exactly the two selected columns.
    assert_eq!(out.table.columns, vec!["Grad.SS", "Faculty.name"]);
    assert!(out
        .table
        .rows
        .iter()
        .any(|r| r[1] == Value::Null), "some grad should lack an advisor");
}

/// Build the deterministic grad-teaching-grad instance used by R6/R7:
/// g1 (a TA) teaches a section in which g2 is enrolled; g2 (also a TA)
/// teaches a section in which g3 is enrolled.
fn grad_chain_db() -> (Database, [Oid; 3]) {
    let mut db = Database::new(university::schema());
    let s = db.schema_arc();
    let person = s.class_by_name("Person").unwrap();
    let student = s.class_by_name("Student").unwrap();
    let teacher = s.class_by_name("Teacher").unwrap();
    let grad = s.class_by_name("Grad").unwrap();
    let ta = s.class_by_name("TA").unwrap();
    let course = s.class_by_name("Course").unwrap();
    let section = s.class_by_name("Section").unwrap();
    let teaches = s.own_link_by_name(teacher, "Teaches").unwrap();
    let enrolls = s.own_link_by_name(student, "Enrolls").unwrap();
    let sc = s.own_link_by_name(section, "Course").unwrap();

    let mk_grad = |i: usize, db: &mut Database| {
        let p = db.new_object(person).unwrap();
        db.set_attr(p, "name", Value::str(format!("g{i}"))).unwrap();
        db.set_attr(p, "SS", Value::str(format!("ss{i}"))).unwrap();
        let st = db.specialize(p, student).unwrap();
        let g = db.specialize(st, grad).unwrap();
        (p, st, g)
    };
    let (p1, _st1, g1) = mk_grad(1, &mut db);
    let (p2, st2, g2) = mk_grad(2, &mut db);
    let (_p3, st3, g3) = mk_grad(3, &mut db);

    // g1 and g2 are TAs (Teacher + Grad perspectives).
    let t1 = db.specialize(p1, teacher).unwrap();
    let ta1 = db.specialize(g1, ta).unwrap();
    db.add_perspective(t1, ta1).unwrap();
    let t2 = db.specialize(p2, teacher).unwrap();
    let ta2 = db.specialize(g2, ta).unwrap();
    db.add_perspective(t2, ta2).unwrap();

    let c = db.new_object(course).unwrap();
    let s1 = db.new_object(section).unwrap();
    let s2 = db.new_object(section).unwrap();
    db.associate(sc, s1, c).unwrap();
    db.associate(sc, s2, c).unwrap();
    db.associate(teaches, t1, s1).unwrap();
    db.associate(teaches, t2, s2).unwrap();
    db.associate(enrolls, st2, s1).unwrap();
    db.associate(enrolls, st3, s2).unwrap();
    (db, [g1, g2, g3])
}

/// Rule R6: "Derive the Grad_teaching_grad hierarchy … the intensional
/// pattern of the derived subdatabase is determined at runtime."
#[test]
fn rule_r6_closure() {
    let (db, [g1, g2, g3]) = grad_chain_db();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R6",
            "if context Grad * TA * Teacher * Section * Student ^* \
             then Grad_teaching_grad (Grad, Grad_*)",
        )
        .unwrap();
    let sd = engine.subdb("Grad_teaching_grad").unwrap();
    // Runtime intension: Grad, Grad_1, Grad_2 (g1 → g2 → g3).
    assert_eq!(sd.intension.width(), 3);
    assert_eq!(
        sd.intension.slots.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
        vec!["Grad", "Grad_1", "Grad_2"]
    );
    // Maximal chains: (g1,g2,g3); g2's chain (g2,g3) and g3 alone remain as
    // distinct roots (they are not positional parts of the longer chain).
    assert_patterns(
        sd,
        vec![
            vec![s(g1), s(g2), s(g3)],
            vec![s(g2), s(g3), None],
            vec![s(g3), None, None],
        ],
    );
}

/// Rule R7: "Derive a subdatabase which contains only the 1st level and 3rd
/// level in the grad-teaching-grad hierarchy" — `(Grad, Grad_2)`.
#[test]
fn rule_r7_levels() {
    let (db, [g1, g2, g3]) = grad_chain_db();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R7",
            "if context Grad * TA * Teacher * Section * Student ^* \
             then First_and_third (Grad, Grad_2)",
        )
        .unwrap();
    let sd = engine.subdb("First_and_third").unwrap();
    assert_eq!(sd.intension.width(), 2);
    assert_patterns(
        sd,
        vec![
            vec![s(g1), s(g3)],
            vec![s(g2), None],
            vec![s(g3), None],
        ],
    );
}

/// R7 over a population whose grad-teaching-grad chains all stop before
/// the third level (the builtin university database, seed 8): `Grad_2` is
/// a slot that is Null in every pattern, not an unknown target — whether a
/// named level exists is up to the data, as for a `Grad_*` family, so the
/// rule's legality is not. The result is the spec evaluator's R7 context
/// projected by hand, and what `derive_fresh` derives.
#[test]
fn rule_r7_level_the_data_does_not_reach() {
    let db = programs::builtin_database("university", 8).expect("builtin database");
    let (program, parse_diags) = Program::parse(programs::UNIVERSITY);
    assert!(parse_diags.is_empty(), "{parse_diags:?}");
    let r7 = &program.rules.iter().find(|r| r.rule.name == "R7").expect("R7").rule;
    let ctx = resolve_context(&r7.context, db.schema(), &SubdbRegistry::new()).unwrap();
    let chains = spec_eval(&ctx, &db, &SubdbRegistry::new());
    assert!(
        chains.iter().all(|row| row.len() < 3),
        "the seed must stop every chain before Grad_2"
    );
    // THEN (Grad, Grad_2): project, drop all-Null rows and strict parts.
    let mut projected: Vec<Row> =
        chains.iter().map(|row| vec![row[0], row.get(2).copied().flatten()]).collect();
    projected.retain(|row| row.iter().any(Option::is_some));
    projected.sort();
    projected.dedup();
    let part = |a: &Row, b: &Row| a != b && a.iter().zip(b).all(|(x, y)| x.is_none() || x == y);
    let want: Vec<Row> =
        projected.iter().filter(|a| !projected.iter().any(|b| part(a, b))).cloned().collect();
    assert!(!want.is_empty());

    let mut engine = RuleEngine::new(db);
    engine.register(&program).expect("the builtin program registers");
    let sd = engine.subdb("First_and_third").expect("R7 derives");
    let names: Vec<&str> = sd.intension.slots.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["Grad", "Grad_2"]);
    assert_eq!(patterns_of(sd), want);
    let fresh = engine.derive_fresh("First_and_third").expect("the oracle derives");
    assert_eq!(patterns_of(&fresh), want);
}

/// Bounded iteration `^N`: N traversals produce at most N+1 levels
/// ("an optional number N following the sign causes the underlying system
/// to traverse the cycle N times").
#[test]
fn bounded_iteration_limits_depth() {
    let (db, [g1, g2, _g3]) = grad_chain_db();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R6b",
            "if context Grad * TA * Teacher * Section * Student ^1 \
             then One_level (Grad, Grad_*)",
        )
        .unwrap();
    let sd = engine.subdb("One_level").unwrap();
    assert_eq!(sd.intension.width(), 2);
    assert!(sd.patterns().any(|p| p.components() == [s(g1), s(g2)]));
}

/// Prerequisite chains: the `Course ^*` closure over the Prereq
/// self-association, queried through OQL directly.
#[test]
fn course_prereq_closure() {
    let db = university::populate(university::Size::medium(), 5);
    let reg = SubdbRegistry::new();
    let out = Oql::new().query(&db, &reg, "context Course ^*").unwrap();
    let sd = out.subdb;
    // Every course appears as a root.
    let course_cls = db.schema().class_by_name("Course").unwrap();
    assert_eq!(sd.slot_extent(0).len(), db.extent_size(course_cls));
    // Chains follow Prereq links: verify each consecutive pair is linked.
    let prereq = db.schema().own_link_by_name(course_cls, "Prereq").unwrap();
    for p in sd.patterns() {
        for w in 0..p.width() - 1 {
            if let (Some(a), Some(b)) = (p.get(w), p.get(w + 1)) {
                assert!(db.linked(prereq, a, b), "chain step {a} -> {b} not a Prereq link");
            }
        }
    }
    assert!(sd.intension.width() >= 2, "population should contain prereq chains");
}
