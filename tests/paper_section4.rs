//! Paper §4 — the deductive rule language: rule R1 / Fig. 4.3, the induced
//! generalization association (Figs. 4.1/4.2), rules R2–R5, and the
//! backward-chaining Query 4.1.

mod common;

use common::{assert_patterns, s};
use dood::core::ids::Oid;
use dood::core::value::Value;
use dood::rules::RuleEngine;
use dood::workload::figures::fig_3_1;
use dood::workload::university::{self, Size};

/// Rule R1 / Fig. 4.3: `Teacher_course(Teacher, Course)` derived through
/// Section. "A direct association is derived between the instances t1 and
/// c1 … because t1 and c1 are associated through s2."
#[test]
fn rule_r1_fig_4_3() {
    let (db, names) = fig_3_1();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R1",
            "if context Teacher * Section * Course then Teacher_course (Teacher, Course)",
        )
        .unwrap();
    let sd = engine.subdb("Teacher_course").unwrap();
    // Fig. 4.3b: derived links t1–c1, t2–c1, t2–c2; Section dropped.
    assert_eq!(sd.intension.width(), 2);
    assert!(sd.intension.has_edge(0, 1));
    assert_patterns(
        sd,
        vec![
            vec![s(names["t1"]), s(names["c1"])],
            vec![s(names["t2"]), s(names["c1"])],
            vec![s(names["t2"]), s(names["c2"])],
        ],
    );
    // The derived direct association is queryable even though the base
    // schema has no Teacher–Course association (closure property).
    let out = engine
        .query("context Teacher_course:Teacher * Teacher_course:Course select name, title display")
        .unwrap();
    assert_eq!(out.table.len(), 3);
}

/// §4.2: restricting inherited attributes in the THEN clause makes the
/// others inaccessible ("the attribute Name will not be accessible from the
/// class Teacher_course:Teacher").
#[test]
fn attribute_restriction_enforced_in_queries() {
    let (db, _) = fig_3_1();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R1",
            "if context Teacher * Section * Course \
             then Bad_tc (Teacher [section#], Course)",
        )
        .unwrap(); // parses…
    assert!(engine.subdb("Bad_tc").is_err()); // …but section# is not a Teacher attribute
    engine
        .add_rule(
            "R1b",
            "if context Teacher * Section * Course \
             then Teacher_course (Teacher [name], Course)",
        )
        .unwrap();
    // Accessible attribute works…
    assert!(engine
        .query("context Teacher_course:Teacher * Teacher_course:Course select Teacher[name]")
        .is_ok());
    // …odd one out: selecting an attribute outside the restriction fails.
    let err = engine
        .query("context Teacher_course:Teacher * Teacher_course:Course select Teacher[title]")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("title"), "unexpected error: {msg}");
}

/// Rules R2 + R3: `Suggest_offer` via grouped COUNT, then `Deps_need_res`
/// reading the derived subdatabase through the induced generalization
/// ("Suggest_offer:Course … inherits the aggregation link to the base class
/// Department, hence Department * Suggest_offer:Course is legal").
#[test]
fn rules_r2_r3_chain() {
    let (db, pop) = university::populate_with_handles(Size::medium(), 7);
    let mut engine = RuleEngine::new(db);
    // The paper's threshold is 39 students; the synthetic population is
    // smaller, so the threshold scales down — the mechanism is identical.
    engine
        .add_rule(
            "R2",
            "if context Department [name = 'CIS'] * Course * Section * Student \
             where count(Student by Course) > 10 \
             then Suggest_offer (Course)",
        )
        .unwrap();
    engine
        .add_rule(
            "R3",
            "if context Department * Suggest_offer:Course \
             then Deps_need_res (Department) \
             where count(Suggest_offer:Course by Department) > 2",
        )
        .unwrap();

    // Oracle for R2 computed directly against the store.
    let db = engine.db();
    let schema = db.schema();
    let course_cls = schema.class_by_name("Course").unwrap();
    let section_cls = schema.class_by_name("Section").unwrap();
    let student_cls = schema.class_by_name("Student").unwrap();
    let sc = schema.own_link_by_name(section_cls, "Course").unwrap();
    let enrolls = schema.own_link_by_name(student_cls, "Enrolls").unwrap();
    let cd = schema.own_link_by_name(course_cls, "Department").unwrap();
    let cis = pop.departments[0];
    let mut expected: Vec<Oid> = Vec::new();
    for c in db.extent(course_cls) {
        if db.neighbors(cd, c, true) != [cis] {
            continue;
        }
        let mut students: std::collections::BTreeSet<Oid> = Default::default();
        for &sec in db.neighbors(sc, c, false) {
            students.extend(db.neighbors(enrolls, sec, false).iter().copied());
        }
        if students.len() > 10 {
            expected.push(c);
        }
    }
    assert!(!expected.is_empty(), "workload must produce popular CIS courses");

    let sd = engine.subdb("Suggest_offer").unwrap();
    let actual: Vec<Oid> = sd.slot_extent(0).into_iter().collect();
    assert_eq!(actual, expected);

    // R3 reads R2's output (inference chain; closure property).
    let deps = engine.subdb("Deps_need_res").unwrap();
    let dep_count = deps.slot_extent(0).len();
    let expected_dep = usize::from(expected.len() > 2);
    assert_eq!(dep_count, expected_dep);
}

/// Rules R4 + R5 derive into the same subdatabase: "May_teach will contain
/// the union of the two sets of extensional patterns derived by the two
/// rules." (R5 is phrased on the TA perspective so both rules agree on the
/// derived class list — the union semantics require one intension.)
#[test]
fn rules_r4_r5_union() {
    let (db, _) = university::populate_with_handles(Size::medium(), 7);
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R2",
            "if context Department [name = 'CIS'] * Course * Section * Student \
             where count(Student by Course) > 10 then Suggest_offer (Course)",
        )
        .unwrap();
    engine
        .add_rule(
            "R4",
            "if context TA * Teacher * Section * Suggest_offer:Course \
             then May_teach (TA, Course)",
        )
        .unwrap();
    engine
        .add_rule(
            "R5",
            "if context TA * Grad * Transcript [grade <= 'B'] * Course [c# < 5000] \
             then May_teach (TA, Course)",
        )
        .unwrap();
    let may = engine.subdb("May_teach").unwrap().clone();

    // Each rule alone derives a subset; the union is their set union.
    let r4_only = {
        let rule = engine.rules().iter().find(|r| r.name == "R4").unwrap().clone();
        dood::rules::apply_rule(&rule, engine.db(), engine.registry()).unwrap()
    };
    let r5_only = {
        let rule = engine.rules().iter().find(|r| r.name == "R5").unwrap().clone();
        dood::rules::apply_rule(&rule, engine.db(), engine.registry()).unwrap()
    };
    let mut expected: std::collections::BTreeSet<_> = r4_only.patterns().collect();
    expected.extend(r5_only.patterns());
    let actual: std::collections::BTreeSet<_> = may.patterns().collect();
    assert_eq!(actual, expected);
    assert!(!may.is_empty(), "population should contain eligible TAs");
}

/// Query 4.1: the full backward-chaining cascade. "Since TA is referenced
/// in the query in the context of May_teach, rules R4 and R5 will be
/// triggered … But in order to derive May_teach, the subdatabase
/// Suggest_offer … must be derived. This causes rule R2 … to be triggered."
#[test]
fn query_4_1_backward_chain() {
    let (db, _) = university::populate_with_handles(Size::medium(), 7);
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule(
            "R2",
            "if context Department [name = 'CIS'] * Course * Section * Student \
             where count(Student by Course) > 10 then Suggest_offer (Course)",
        )
        .unwrap();
    engine
        .add_rule(
            "R4",
            "if context TA * Teacher * Section * Suggest_offer:Course \
             then May_teach (TA, Course)",
        )
        .unwrap();
    engine
        .add_rule(
            "R5",
            "if context TA * Grad * Transcript [grade <= 'B'] * Course [c# < 5000] \
             then May_teach (TA, Course)",
        )
        .unwrap();
    // Nothing derived yet.
    assert!(engine.registry().is_empty());
    let out = engine
        .query(
            "context Faculty * Advising * May_teach:TA [GPA < 3.5] \
             select TA[name], Faculty[name] display",
        )
        .unwrap();
    // The cascade materialized both derived subdatabases.
    assert!(engine.registry().subdb("May_teach").is_some());
    assert!(engine.registry().subdb("Suggest_offer").is_some());
    assert_eq!(out.table.columns, vec!["TA.name", "Faculty.name"]);
    // Oracle: every returned TA is advised, has GPA < 3.5 and is in
    // May_teach's TA extent.
    let may_tas = engine.registry().subdb("May_teach").unwrap().slot_extent(0);
    let db = engine.db();
    for p in out.subdb.patterns() {
        let ta = p.get(2).unwrap();
        assert!(may_tas.contains(&ta));
        let gpa = db.attr(ta, "GPA").unwrap().as_f64().unwrap();
        assert!(gpa < 3.5);
    }
}

/// §4.1 / Fig. 4.2: the induced generalization lets classes of *different*
/// derived subdatabases join through their common ancestor's derived
/// association (`SD1:A * SD2:C`).
#[test]
fn induced_generalization_cross_subdb_join() {
    let (db, names) = fig_3_1();
    let mut engine = RuleEngine::new(db);
    // SD: the derived Teacher—Course association (like Fig. 4.1's SD).
    engine
        .add_rule("RSD", "if context Teacher * Section * Course then SD (Teacher, Course)")
        .unwrap();
    // SD1: teachers of SD named t1 or t2; SD2: courses of SD numbered ≥ 2000.
    engine
        .add_rule("RSD1", "if context SD:Teacher [name <= 't2'] then SD1 (Teacher)")
        .unwrap();
    engine
        .add_rule("RSD2", "if context SD:Course [c# >= 2000] then SD2 (Course)")
        .unwrap();
    let out = engine.query("context SD1:Teacher * SD2:Course").unwrap();
    // Join through SD's derived patterns: only (t2, c2) qualifies
    // (t1's course c1 has c# 1000).
    assert_patterns(&out.subdb, vec![vec![s(names["t2"]), s(names["c2"])]]);
}

/// §4: "the set of instances of a target class is a subset of the set of
/// instances of the source class from which it is derived" — and queries on
/// the base classes are unaffected by derivations.
#[test]
fn derived_extents_are_subsets() {
    let (db, _) = fig_3_1();
    let teacher_cls = db.schema().class_by_name("Teacher").unwrap();
    let base_teachers: Vec<Oid> = db.extent(teacher_cls).collect();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
        .unwrap();
    let sd = engine.subdb("TC").unwrap();
    let derived: Vec<Oid> = sd.slot_extent(0).into_iter().collect();
    assert!(derived.iter().all(|o| base_teachers.contains(o)));
    assert!(derived.len() < base_teachers.len());
}

/// A derived subdatabase can itself be queried with further intra-class
/// conditions and attributes (uniform operability — the closure property's
/// point).
#[test]
fn derived_subdb_uniformly_operable() {
    let (db, names) = fig_3_1();
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule("R1", "if context Teacher * Section * Course then TC (Teacher, Course)")
        .unwrap();
    let out = engine
        .query("context TC:Teacher * TC:Course [c# >= 2000] select name display")
        .unwrap();
    assert_patterns(&out.subdb, vec![vec![s(names["t2"]), s(names["c2"])]]);
    assert_eq!(out.table.rows.row(0)[0], Value::str("t2"));
}
