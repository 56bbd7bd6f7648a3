//! Paper §3 — subdatabases and OQL: Fig. 3.1, Fig. 3.2 / Query 3.1, and
//! Query 3.2, each checked against the outputs the paper states.

mod common;

use common::{assert_patterns, s};
use dood::core::subdb::{PatternType, SubdbRegistry};
use dood::oql::Oql;
use dood::workload::figures::fig_3_1;
use dood::workload::university;

/// Fig. 3.1b: the subdatabase SDB's extensional diagram (constructed as
/// data — the figure is a given instance, not a query result) exhibits
/// exactly the five pattern types the paper enumerates: (Teacher, Section,
/// Course), (Teacher, Section), (Section, Course), (Teacher) and (Course).
#[test]
fn fig_3_1_pattern_types() {
    use dood::core::subdb::{ExtPattern, Intension, SlotDef, Subdatabase};
    let (db, names) = fig_3_1();
    let schema = db.schema();
    let mut int = Intension::new(vec![
        SlotDef::base("Teacher", schema.class_by_name("Teacher").unwrap()),
        SlotDef::base("Section", schema.class_by_name("Section").unwrap()),
        SlotDef::base("Course", schema.class_by_name("Course").unwrap()),
    ]);
    int.add_edge(0, 1);
    int.add_edge(1, 2);
    let mut sdb = Subdatabase::new("SDB", int);
    let n = |k: &str| Some(names[k]);
    for pat in [
        vec![n("t1"), n("s2"), n("c1")],
        vec![n("t2"), n("s3"), n("c1")],
        vec![n("t2"), n("s3"), n("c2")],
        vec![n("t3"), n("s4"), None],
        vec![None, n("s5"), n("c4")],
        vec![n("t4"), None, None],
        vec![None, None, n("c3")],
    ] {
        sdb.insert(ExtPattern::new(pat));
    }
    let census = sdb.pattern_types();
    let mut type_names: Vec<(String, usize)> = census
        .iter()
        .map(|(&t, &n)| (sdb.intension.type_name(t), n))
        .collect();
    type_names.sort();
    assert_eq!(
        type_names,
        vec![
            ("(Course)".to_string(), 1), // c3 (c4 appears with s5)
            ("(Section, Course)".to_string(), 1),
            ("(Teacher)".to_string(), 1),
            ("(Teacher, Section)".to_string(), 1),
            ("(Teacher, Section, Course)".to_string(), 3),
        ]
    );
    // Subsumption leaves the instance untouched: every listed pattern is
    // maximal.
    let before = sdb.len();
    sdb.retain_maximal();
    assert_eq!(sdb.len(), before);
}

/// The brace query `{{Teacher} * {Section}} * {Course}` over the Fig. 3.1
/// base data reconstructs the teacher-side pattern types of the figure,
/// with subsumption dropping every partial that is part of a full chain.
#[test]
fn fig_3_1_braces_reconstruct_partial_patterns() {
    let (db, names) = fig_3_1();
    let reg = SubdbRegistry::new();
    let out = Oql::new()
        .query(&db, &reg, "context {{Teacher} * {Section}} * {Course}")
        .unwrap();
    let sd = out.subdb;
    // Full patterns of the figure: (t1,s2,c1), (t2,s3,c1), (t2,s3,c2).
    let full: Vec<_> = sd
        .patterns()
        .filter(|p| p.pattern_type() == PatternType(0b111))
        .collect();
    assert_eq!(full.len(), 3);
    let expect = [
        vec![s(names["t1"]), s(names["s2"]), s(names["c1"])],
        vec![s(names["t2"]), s(names["s3"]), s(names["c1"])],
        vec![s(names["t2"]), s(names["s3"]), s(names["c2"])],
    ];
    for e in &expect {
        assert!(full.iter().any(|p| p.components() == e.as_slice()));
    }
    // (t3, s4) survives as a (Teacher, Section) pattern; t4 as (Teacher).
    assert!(sd
        .patterns()
        .any(|p| p.components() == [s(names["t3"]), s(names["s4"]), None]));
    assert!(sd
        .patterns()
        .any(|p| p.components() == [s(names["t4"]), None, None]));
    // t1 alone was subsumed by its full chain.
    assert!(!sd.patterns().any(|p| p.components() == [s(names["t1"]), None, None]));
}

/// Query 3.1: `context Teacher * Section … display` returns the pairs
/// {(t1,s2), (t2,s3), (t3,s4)} — "the extensional pattern (t4) … is not
/// included in the result because its Section component is Null; similarly
/// the pattern (s5) is not included" (Fig. 3.2).
#[test]
fn query_3_1() {
    let (db, names) = fig_3_1();
    let reg = SubdbRegistry::new();
    let out = Oql::new()
        .query(&db, &reg, "context Teacher * Section select name, section# display")
        .unwrap();
    assert_patterns(
        &out.subdb,
        vec![
            vec![s(names["t1"]), s(names["s2"])],
            vec![s(names["t2"]), s(names["s3"])],
            vec![s(names["t3"]), s(names["s4"])],
        ],
    );
    // "The result of the Display operation is a binary table in which each
    // tuple contains a name value and a section# value."
    assert_eq!(out.table.columns, vec!["name", "section#"]);
    assert_eq!(out.table.len(), 3);
    let names_col: Vec<String> =
        out.table.column("name").unwrap().iter().map(|v| v.to_string()).collect();
    assert_eq!(names_col, vec!["t1", "t2", "t3"]);
}

/// Query 3.1 applied through the full SDB context: the association operator
/// over three classes returns only the (Teacher, Section, Course) patterns.
#[test]
fn association_operator_three_way() {
    let (db, _) = fig_3_1();
    let reg = SubdbRegistry::new();
    let out = Oql::new()
        .query(&db, &reg, "context Teacher * Section * Course")
        .unwrap();
    assert_eq!(out.subdb.len(), 3);
    assert!(out
        .subdb
        .patterns()
        .all(|p| p.pattern_type() == PatternType(0b111)));
}

/// Query 3.2: intra-class condition on `c#`, three-way context, `print`.
/// "Print the Department names for all departments that offer 6000-level
/// courses that have current offerings (sections). Also print the titles of
/// these courses and the textbooks used in each section."
#[test]
fn query_3_2() {
    let db = university::populate(university::Size::medium(), 42);
    let reg = SubdbRegistry::new();
    let out = Oql::new()
        .query(
            &db,
            &reg,
            "context Department * Course [c# >= 6000 and c# < 7000] * Section \
             select name, title, textbook print",
        )
        .unwrap();
    assert_eq!(out.table.columns, vec!["name", "title", "textbook"]);
    // Oracle: walk the store by hand.
    let schema = db.schema();
    let course = schema.class_by_name("Course").unwrap();
    let section = schema.class_by_name("Section").unwrap();
    let sc = schema.own_link_by_name(section, "Course").unwrap();
    let cd = schema.own_link_by_name(course, "Department").unwrap();
    let mut expected = 0;
    for sec in db.extent(section) {
        for &c in db.neighbors(sc, sec, true) {
            let n = db.attr(c, "c#").unwrap().as_i64().unwrap();
            if (6000..7000).contains(&n) && !db.neighbors(cd, c, true).is_empty() {
                expected += 1;
            }
        }
    }
    assert_eq!(out.subdb.len(), expected);
    assert!(expected > 0, "workload should include 6000-level offerings");
    // The operation output is a rendered table.
    assert!(out.op_results[0].1.contains("rows)"));
}

/// The paper's constraint note (§3.1 footnote): a non-null constraint on
/// Section→Course would flag s4; the waived schema reports it via
/// constraint checking rather than rejecting the data.
#[test]
fn fig_3_1_constraint_note() {
    use dood::core::schema::SchemaBuilder;
    use dood::core::value::DType;
    let mut b = SchemaBuilder::new();
    b.e_class("Section");
    b.e_class("Course");
    b.d_class("section#", DType::Int);
    b.attr_named("Section", "section#", "section#");
    b.aggregate_single("Section", "Course");
    b.required();
    let mut db = dood::store::Database::new(b.build().unwrap());
    let section = db.schema().class_by_name("Section").unwrap();
    let course = db.schema().class_by_name("Course").unwrap();
    let s4 = db.new_object(section).unwrap();
    let ok = db.new_object(section).unwrap();
    let c1 = db.new_object(course).unwrap();
    let link = db.schema().own_link_by_name(section, "Course").unwrap();
    db.associate(link, ok, c1).unwrap();
    let violations = db.check_constraints();
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains(&s4.to_string()));
}

/// Inter-class WHERE comparison (paper §3.2: "comparisons between some
/// descriptive attributes of two classes, if these attributes are
/// type-comparable").
#[test]
fn where_inter_class_comparison() {
    let (db, names) = fig_3_1();
    let reg = SubdbRegistry::new();
    // Compare course number against section number scaled — contrived but
    // type-correct (both Int).
    let out = Oql::new()
        .query(
            &db,
            &reg,
            "context Section * Course where Course.c# > Section.section# select title display",
        )
        .unwrap();
    // All four (section, course) pairs satisfy c# (1000..4000) > section#.
    assert_eq!(out.subdb.len(), 4);
    // And a filtering literal variant.
    let out2 = Oql::new()
        .query(&db, &reg, "context Section * Course where Course.c# <= 1000")
        .unwrap();
    // Only c1 (c# = 1000) qualifies; it has two sections (s2, s3).
    assert_patterns(
        &out2.subdb,
        vec![
            vec![s(names["s2"]), s(names["c1"])],
            vec![s(names["s3"]), s(names["c1"])],
        ],
    );
}
