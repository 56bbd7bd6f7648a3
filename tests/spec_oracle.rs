//! The reference evaluator (`tests/common/spec_eval.rs`) checked against
//! the paper, not against the engine: every expected set below is written
//! out by hand from PAPER.md's figures and worked examples. The engine is
//! held to the same figures by `tests/paper_section*.rs`; the propchecks in
//! `tests/{plan,closure_plan,parallel,incremental}.rs` then hold the engine
//! to this evaluator on random data.

#[path = "common/spec_eval.rs"]
mod spec_eval;

use dood::core::ids::Oid;
use dood::core::schema::SchemaBuilder;
use dood::core::subdb::SubdbRegistry;
use dood::core::value::Value;
use dood::rules::RuleEngine;
use dood::store::Database;
use dood::workload::figures::{fig_3_1, fig_5_1};
use dood::workload::university;
use spec_eval::{spec_query, Row};

/// Look a figure's instance names up into one expected pattern; `-` is Null.
fn row(names: &dood::core::fxhash::FxHashMap<String, Oid>, comps: &[&str]) -> Row {
    comps
        .iter()
        .map(|&c| if c == "-" { None } else { Some(names[c]) })
        .collect()
}

#[track_caller]
fn assert_rows(actual: Vec<Row>, mut expected: Vec<Row>) {
    expected.sort();
    assert_eq!(actual, expected);
}

/// Fig. 3.2 / Query 3.1: "(t4) is not included in the result because its
/// Section component is Null; similarly the pattern (s5) is not included".
#[test]
fn query_3_1_pairs() {
    let (db, n) = fig_3_1();
    let reg = SubdbRegistry::new();
    assert_rows(
        spec_query(&db, &reg, "Teacher * Section"),
        vec![
            row(&n, &["t1", "s2"]),
            row(&n, &["t2", "s3"]),
            row(&n, &["t3", "s4"]),
        ],
    );
    // §3.2: the three-way association keeps the (Teacher, Section, Course)
    // patterns only.
    assert_rows(
        spec_query(&db, &reg, "Teacher * Section * Course"),
        vec![
            row(&n, &["t1", "s2", "c1"]),
            row(&n, &["t2", "s3", "c1"]),
            row(&n, &["t2", "s3", "c2"]),
        ],
    );
}

/// Fig. 3.1b's five pattern types — (Teacher, Section, Course), (Teacher,
/// Section), (Section, Course), (Teacher), (Course) — come back under the
/// two ways of bracing the chain; a partial pattern appears only where it
/// is not part of a larger one (§5.1).
#[test]
fn fig_3_1b_pattern_types_under_braces() {
    let (db, n) = fig_3_1();
    let reg = SubdbRegistry::new();
    assert_rows(
        spec_query(&db, &reg, "{{Teacher} * {Section}} * {Course}"),
        vec![
            row(&n, &["t1", "s2", "c1"]),
            row(&n, &["t2", "s3", "c1"]),
            row(&n, &["t2", "s3", "c2"]),
            row(&n, &["t3", "s4", "-"]), // (Teacher, Section)
            row(&n, &["t4", "-", "-"]),  // (Teacher)
            row(&n, &["-", "s5", "-"]),  // s5-c4 is not a braced pair here
            row(&n, &["-", "-", "c3"]),  // (Course)
            row(&n, &["-", "-", "c4"]),
        ],
    );
    assert_rows(
        spec_query(&db, &reg, "{Teacher} * {{Section} * {Course}}"),
        vec![
            row(&n, &["t1", "s2", "c1"]),
            row(&n, &["t2", "s3", "c1"]),
            row(&n, &["t2", "s3", "c2"]),
            row(&n, &["-", "s5", "c4"]), // (Section, Course)
            row(&n, &["t3", "-", "-"]),  // t3-s4 is not a braced pair here
            row(&n, &["t4", "-", "-"]),
            row(&n, &["-", "s4", "-"]),
            row(&n, &["-", "-", "c3"]),
        ],
    );
}

/// §5.1's example: over the instance {(a1,b5,c5,d5), (b2,c2)}, "the
/// expression A * {B * C} * D returns the extensional patterns
/// (a1,b5,c5,d5) and (b2,c2). The extensional pattern (b5,c5) will not
/// appear independently".
#[test]
fn section_5_1_subsumption_example() {
    let (db, n) = fig_5_1();
    let reg = SubdbRegistry::new();
    assert_rows(
        spec_query(&db, &reg, "A * {B * C} * D"),
        vec![
            row(&n, &["a1", "b5", "c5", "d5"]),
            row(&n, &["-", "b2", "c2", "-"]),
        ],
    );
}

/// §3.2: `!` relates the instance pairs that are *not* associated, and an
/// intra-class condition restricts the instances an occurrence ranges over.
#[test]
fn non_association_and_intra_class_condition() {
    let (db, n) = fig_3_1();
    let reg = SubdbRegistry::new();
    // 4 teachers × 4 sections, minus t1-s2, t2-s3, t3-s4.
    assert_rows(
        spec_query(&db, &reg, "Teacher ! Section"),
        vec![
            row(&n, &["t1", "s3"]),
            row(&n, &["t1", "s4"]),
            row(&n, &["t1", "s5"]),
            row(&n, &["t2", "s2"]),
            row(&n, &["t2", "s4"]),
            row(&n, &["t2", "s5"]),
            row(&n, &["t3", "s2"]),
            row(&n, &["t3", "s3"]),
            row(&n, &["t3", "s5"]),
            row(&n, &["t4", "s2"]),
            row(&n, &["t4", "s3"]),
            row(&n, &["t4", "s4"]),
            row(&n, &["t4", "s5"]),
        ],
    );
    // c# is 1000 × the course's index.
    assert_rows(
        spec_query(&db, &reg, "Section * Course [c# >= 2000]"),
        vec![row(&n, &["s3", "c2"]), row(&n, &["s5", "c4"])],
    );
    assert_rows(
        spec_query(&db, &reg, "Section * Course [not c# = 1000 and c# < 4000]"),
        vec![row(&n, &["s3", "c2"])],
    );
}

/// Figs. 4.1/4.2, set up as `tests/paper_section4.rs` does: SD derives the
/// Teacher–Course association through Section, SD1 and SD2 select from
/// SD's classes, and `SD1:Teacher * SD2:Course` joins through SD's
/// extensional patterns (the induced generalization).
#[test]
fn fig_4_2_derived_edge_join() {
    let (db, n) = fig_3_1();
    let mut engine = RuleEngine::new(db);
    for (name, src) in [
        (
            "RSD",
            "if context Teacher * Section * Course then SD (Teacher, Course)",
        ),
        (
            "RSD1",
            "if context SD:Teacher [name <= 't2'] then SD1 (Teacher)",
        ),
        (
            "RSD2",
            "if context SD:Course [c# >= 2000] then SD2 (Course)",
        ),
    ] {
        engine.add_rule(name, src).unwrap();
    }
    engine.subdb("SD1").unwrap();
    engine.subdb("SD2").unwrap();
    let (db, reg) = (engine.db(), engine.registry());
    // Fig. 4.3b: the derived links are t1–c1, t2–c1, t2–c2.
    assert_rows(
        spec_query(db, reg, "SD:Teacher * SD:Course"),
        vec![
            row(&n, &["t1", "c1"]),
            row(&n, &["t2", "c1"]),
            row(&n, &["t2", "c2"]),
        ],
    );
    // SD1 holds t1 and t2, SD2 holds c2 alone (c1's c# is 1000).
    assert_rows(
        spec_query(db, reg, "SD1:Teacher * SD2:Course"),
        vec![row(&n, &["t2", "c2"])],
    );
    assert_rows(
        spec_query(db, reg, "SD1:Teacher ! SD2:Course"),
        vec![row(&n, &["t1", "c2"])],
    );
}

/// The §5.2 instance of `tests/paper_section5.rs`: g1 (a TA) teaches a
/// section in which g2 is enrolled; g2 (also a TA) teaches a section in
/// which g3 is enrolled.
fn grad_chain_db() -> (Database, [Oid; 3]) {
    let mut db = Database::new(university::schema());
    let s = db.schema_arc();
    let class = |name: &str| s.class_by_name(name).unwrap();
    let (person, student, teacher) = (class("Person"), class("Student"), class("Teacher"));
    let (grad, ta, section) = (class("Grad"), class("TA"), class("Section"));
    let teaches = s.own_link_by_name(teacher, "Teaches").unwrap();
    let enrolls = s.own_link_by_name(student, "Enrolls").unwrap();
    let mut people = Vec::new();
    for i in 1..=3 {
        let p = db.new_object(person).unwrap();
        db.set_attr(p, "name", Value::str(format!("g{i}"))).unwrap();
        let st = db.specialize(p, student).unwrap();
        let g = db.specialize(st, grad).unwrap();
        people.push((p, st, g));
    }
    let mut teaching = Vec::new();
    for &(p, _, g) in &people[..2] {
        let t = db.specialize(p, teacher).unwrap();
        let as_ta = db.specialize(g, ta).unwrap();
        db.add_perspective(t, as_ta).unwrap();
        let sec = db.new_object(section).unwrap();
        db.associate(teaches, t, sec).unwrap();
        teaching.push(sec);
    }
    db.associate(enrolls, people[1].1, teaching[0]).unwrap();
    db.associate(enrolls, people[2].1, teaching[1]).unwrap();
    (db, [people[0].2, people[1].2, people[2].2])
}

/// Rule R6's context: the hierarchy is g1 → g2 → g3, its "intensional
/// pattern … determined at runtime"; `^N` traverses the cycle N times.
#[test]
fn section_5_2_grad_teaching_grad() {
    let (db, [g1, g2, g3]) = grad_chain_db();
    let reg = SubdbRegistry::new();
    let s = Some;
    assert_rows(
        spec_query(&db, &reg, "Grad * TA * Teacher * Section * Student ^*"),
        vec![
            vec![s(g1), s(g2), s(g3)],
            vec![s(g2), s(g3), None],
            vec![s(g3), None, None],
        ],
    );
    assert_rows(
        spec_query(&db, &reg, "Grad * TA * Teacher * Section * Student ^1"),
        vec![vec![s(g1), s(g2)], vec![s(g2), s(g3)], vec![s(g3), None]],
    );
    assert_rows(
        spec_query(&db, &reg, "Grad * TA * Teacher * Section * Student ^2"),
        vec![
            vec![s(g1), s(g2), s(g3)],
            vec![s(g2), s(g3), None],
            vec![s(g3), None, None],
        ],
    );
}

/// Cyclic instance data (which the paper assumes away): a → b → c → a with
/// a tail c → d. A hierarchy stops where it would revisit an instance.
#[test]
fn section_5_2_cyclic_data_is_cut() {
    let mut b = SchemaBuilder::new();
    b.e_class("N");
    b.aggregate_named("N", "N", "Next");
    let mut db = Database::new(b.build().unwrap());
    let n = db.schema().class_by_name("N").unwrap();
    let next = db.schema().own_link_by_name(n, "Next").unwrap();
    let [a, b, c, d] = [(); 4].map(|_| db.new_object(n).unwrap());
    for (x, y) in [(a, b), (b, c), (c, a), (c, d)] {
        db.associate(next, x, y).unwrap();
    }
    let reg = SubdbRegistry::new();
    let s = Some;
    assert_rows(
        spec_query(&db, &reg, "N ^*"),
        vec![
            vec![s(a), s(b), s(c), s(d)],
            vec![s(b), s(c), s(a), None],
            vec![s(b), s(c), s(d), None],
            vec![s(c), s(a), s(b), None],
            vec![s(c), s(d), None, None],
            vec![s(d), None, None, None],
        ],
    );
    assert_rows(
        spec_query(&db, &reg, "N ^1"),
        vec![
            vec![s(a), s(b)],
            vec![s(b), s(c)],
            vec![s(c), s(a)],
            vec![s(c), s(d)],
            vec![s(d), None],
        ],
    );
}
