//! Soundness of the compiled join pipelines (DESIGN.md §10): the engine
//! must produce exactly the patterns of the spec-level interpreter in
//! `tests/common/spec_eval.rs` (nested loops written from PAPER.md §3–§5; no
//! plan, index, cache or statistics) — on all three paper schemas and on
//! databases of opposite skew, which the planner orders differently.
//! Plans may change with the data; results may not, and plans never change
//! with history. Where `datalog::translate` covers the query, the Datalog
//! engine is a third, cross-formalism witness. Plus golden EXPLAIN plan
//! snapshots for the E1/E6/E7 context shapes, pinning the planner's chosen
//! join orders.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

#[path = "common/spec_eval.rs"]
mod spec_eval;

use dood::core::propcheck::{check, Gen};
use dood::core::schema::SchemaBuilder;
use dood::core::subdb::SubdbRegistry;
use dood::core::value::{DType, Value};
use dood::datalog;
use dood::oql::parser::Parser;
use dood::oql::resolve::resolve_context;
use dood::oql::Evaluator;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::store::Database;
use dood::workload::{cad, company, social, university};
use spec_eval::{rows_of, spec_query, Row};
use std::collections::BTreeSet;

const CASES: usize = 6;

/// Evaluate `query` through the engine.
fn engine_rows(db: &Database, reg: &SubdbRegistry, query: &str) -> Vec<Row> {
    let expr = Parser::parse_context_expr(query).unwrap();
    let resolved = resolve_context(&expr, db.schema(), reg).unwrap();
    rows_of(&Evaluator::new(&resolved, db, reg).unwrap().eval("x"))
}

/// The plan the engine compiles for `query`, as `describe()` renders it.
fn plan_of(db: &Database, reg: &SubdbRegistry, query: &str) -> String {
    let expr = Parser::parse_context_expr(query).unwrap();
    let resolved = resolve_context(&expr, db.schema(), reg).unwrap();
    Evaluator::new(&resolved, db, reg).unwrap().plan_handle().describe()
}

/// Assert the engine's patterns for `query` are the spec's, which it
/// returns.
fn assert_equiv(db: &Database, reg: &SubdbRegistry, query: &str) -> Vec<Row> {
    let spec = spec_query(db, reg, query);
    assert_eq!(engine_rows(db, reg, query), spec, "engine != spec for `{query}`");
    spec
}

/// Context expressions per schema: association chains, braces, `!` edges,
/// and intra-class conditions — the operator mix the pipeline fuses. The
/// doubly conditioned chains put a condition on a non-anchor stage
/// whichever end the planner starts from.
const UNIVERSITY_QUERIES: &[&str] = &[
    "Teacher * Section * Course",
    "{Teacher * Section} * Course",
    "Department * Course * Section * Student",
    "Teacher ! Section",
    "Section * Course [c# >= 6000]",
    "Student * Section * Course * Department [name = 'CIS']",
    "Department [name = 'CIS'] * Course [c# >= 3000] * Section",
    "Department [name = 'CIS'] * Grad",
];
const COMPANY_QUERIES: &[&str] = &[
    "Employee * Department",
    "Employee [salary >= 100000] * Project",
    "{Employee * Department} * Project",
    "Department ! Project",
    "Employee [salary < 100000] * Project [budget >= 500]",
];
const CAD_QUERIES: &[&str] = &["Supplier * Part", "Supplier ! Part [cost >= 50]"];

/// A BOM with three suppliers, each supplying every third part
/// (`cad::build_bom` creates none, which would leave the Supplier queries
/// with nothing to bind).
fn bom_with_suppliers(shape: cad::BomShape, seed: u64) -> Database {
    let mut db = cad::build_bom(shape, seed).0;
    let supplier = db.schema().class_by_name("Supplier").unwrap();
    let supplies = db.schema().own_link_by_name(supplier, "Supplies").unwrap();
    let parts: Vec<_> = db.extent(db.schema().class_by_name("Part").unwrap()).collect();
    for i in 0..3 {
        let s = db.new_object(supplier).unwrap();
        for &p in parts.iter().skip((seed as usize + i) % 3).step_by(3) {
            db.associate(supplies, s, p).unwrap();
        }
    }
    db
}

/// The small university, plus Grad perspectives given late, last student
/// first, to every student who had none. A late Grad's OID is larger than
/// every first-made Grad's and than the late Grads of later students, so
/// descending Student → Grad from a department's students (which come in
/// OID order) yields Grads out of order: the join for `Department * Grad`,
/// anchored at slot 0, emits unsorted rows.
fn university_late_grads(seed: u64) -> Database {
    let (mut db, pop) = university::populate_with_handles(university::Size::small(), seed);
    let grad = db.schema().class_by_name("Grad").unwrap();
    for &st in pop.students.iter().rev() {
        let _ = db.specialize(st, grad);
    }
    db
}

fn dbs(seed: u64) -> Vec<(Database, &'static [&'static str])> {
    let bom = cad::BomShape { depth: 3, fanout: 3, roots: 2, share_per_mille: 300 };
    vec![
        (university_late_grads(seed), UNIVERSITY_QUERIES),
        (company::populate(company::CompanySize::small(), seed).0, COMPANY_QUERIES),
        (bom_with_suppliers(bom, seed), CAD_QUERIES),
    ]
}

/// "interp" is the spec-level interpreter of `tests/common/spec_eval.rs`.
#[test]
fn compiled_equals_interp_across_schemas_and_threads() {
    check("compiled_equals_interp_across_schemas_and_threads", CASES, |g| {
        let seed = g.range(0u64..100);
        for (db, queries) in dbs(seed) {
            let reg = SubdbRegistry::new();
            for q in queries {
                assert_equiv(&db, &reg, q);
            }
        }
    });
}

/// The inherited-association case above keeps its shape: the join anchors
/// at Department, slot 0, and the store hands CIS's Grads out of OID order,
/// so the span's rows reach the sort unsorted.
#[test]
fn inherited_association_rows_arrive_unsorted_at_slot_0() {
    for seed in [0, 1, 42] {
        let db = university_late_grads(seed);
        let reg = SubdbRegistry::new();
        let plan = plan_of(&db, &reg, "Department [name = 'CIS'] * Grad");
        assert!(plan.contains("anchor=Department"), "anchor moved:\n{plan}");
        let schema = db.schema();
        let (dept, grad) =
            (schema.class_by_name("Department").unwrap(), schema.class_by_name("Grad").unwrap());
        let edge = schema.resolve_edge(dept, grad).unwrap();
        let cis = db.extent(dept).next().unwrap();
        assert!(!db.traverse(cis, &edge).is_sorted(), "seed {seed}: CIS's Grads come sorted");
    }
}

/// A three-class chain `A --AB--> B --BC--> C` of `a`, `b` and `c`
/// objects: each B is linked to one random A and, mostly, one random C, so
/// the fan-outs out of A and C are about `b / a` and `b / c`. Every class
/// carries an integer `v` for conditions.
fn skewed_chain(g: &mut Gen, a: usize, b: usize, c: usize) -> Database {
    let mut sb = SchemaBuilder::new();
    for class in ["A", "B", "C"] {
        sb.e_class(class);
    }
    sb.d_class("v", DType::Int);
    for class in ["A", "B", "C"] {
        sb.attr(class, "v");
    }
    sb.aggregate_named("A", "B", "AB");
    sb.aggregate_named("B", "C", "BC");
    let mut db = Database::new(sb.build().expect("chain schema valid"));
    let mut make = |db: &mut Database, class: &str, n: usize| -> Vec<_> {
        let cls = db.schema().class_by_name(class).unwrap();
        (0..n)
            .map(|_| {
                let o = db.new_object(cls).unwrap();
                db.set_attr(o, "v", Value::Int(g.range(0i64..10))).unwrap();
                o
            })
            .collect()
    };
    let (xs, ys, zs) = (make(&mut db, "A", a), make(&mut db, "B", b), make(&mut db, "C", c));
    let ab = db.schema().own_link_by_name(db.schema().class_by_name("A").unwrap(), "AB").unwrap();
    let bc = db.schema().own_link_by_name(db.schema().class_by_name("B").unwrap(), "BC").unwrap();
    for &y in &ys {
        db.associate(ab, xs[g.range(0..a)], y).unwrap();
        if g.bool(0.9) {
            db.associate(bc, y, zs[g.range(0..c)]).unwrap();
        }
    }
    db
}

const SKEW_QUERIES: &[&str] = &[
    "A * B * C",
    "{A * B} * C",
    "A [v >= 3] * B * C [v < 7]",
    "A ! B * C",
];

/// Skewed data changes plans, not results: two databases of opposite
/// association skew live in one process, at least one query is ordered
/// differently over them, and every query agrees with the spec on both.
#[test]
fn random_stats_change_plans_not_results() {
    check("random_stats_change_plans_not_results", CASES, |g| {
        let (few, many, mid) = (g.range(1usize..4), g.range(20usize..40), g.range(30usize..60));
        let left = skewed_chain(g, few, mid, many);
        let right = skewed_chain(g, many, mid, few);
        let reg = SubdbRegistry::new();
        let differ = SKEW_QUERIES
            .iter()
            .filter(|q| plan_of(&left, &reg, q) != plan_of(&right, &reg, q))
            .count();
        assert!(differ > 0, "opposite skew never changed a plan");
        for db in [&left, &right] {
            for q in SKEW_QUERIES {
                assert_equiv(db, &reg, q);
            }
        }
    });
}

/// Plans are a function of the data alone: every corpus query compiles to
/// a byte-identical plan on its first run and after 100 mixed runs of the
/// corpus (full evaluations and delta evaluations, interleaved across the
/// three schemas).
#[test]
fn plans_are_history_free() {
    let seed = 42;
    let dbs = dbs(seed);
    let reg = SubdbRegistry::new();
    let plans = |dbs: &[(Database, &[&str])]| -> Vec<String> {
        dbs.iter().flat_map(|(db, qs)| qs.iter().map(|q| plan_of(db, &reg, q))).collect()
    };
    let first = plans(&dbs);
    let corpus: Vec<(&Database, &str)> =
        dbs.iter().flat_map(|(db, qs)| qs.iter().map(move |q| (db, *q))).collect();
    for i in 0..100 {
        let (db, q) = corpus[(i * 7) % corpus.len()];
        let expr = Parser::parse_context_expr(q).unwrap();
        let resolved = resolve_context(&expr, db.schema(), &reg).unwrap();
        let ev = Evaluator::new(&resolved, db, &reg).unwrap();
        if i % 3 == 0 {
            let mut dirty: Vec<_> =
                ev.eval("x").patterns().filter_map(|p| p.get(0)).take(3).collect();
            dirty.sort_unstable();
            dirty.dedup();
            ev.eval_delta("x", &dirty);
        } else {
            ev.eval("x");
        }
    }
    assert_eq!(plans(&dbs), first, "a plan changed with history");
}

/// An index-served condition is costed by an exact count over the ordered
/// index: the indexed slot anchors the join while few objects pass, and
/// stops anchoring once most do.
#[test]
fn index_count_moves_the_anchor() {
    let mut g = Gen::from_seed(7);
    // 10 As, 100 Bs with `v` in 0..10, each B under one A.
    let mut db = skewed_chain(&mut g, 10, 100, 1);
    let b = db.schema().class_by_name("B").unwrap();
    db.create_attr_index(b, "v").unwrap();
    let reg = SubdbRegistry::new();
    let anchor = |query: &str| {
        let expr = Parser::parse_context_expr(query).unwrap();
        let resolved = resolve_context(&expr, db.schema(), &reg).unwrap();
        let plan = Evaluator::new(&resolved, &db, &reg).unwrap().plan_handle();
        assert!(plan.describe().contains("B[ix]"), "index not used:\n{}", plan.describe());
        plan.spans[0].anchor
    };
    assert_eq!(anchor("A * B [v >= 9]"), 1, "a small count anchors at the indexed slot");
    assert_eq!(anchor("A * B [v >= 0]"), 0, "a large count does not");
    for q in ["A * B [v >= 9]", "A * B [v >= 0]"] {
        assert_equiv(&db, &reg, q);
    }
}

/// The pairs `(head, later component)` of a set of closure chains: who
/// reaches whom.
fn reach_pairs(rows: &[Row]) -> BTreeSet<(u64, u64)> {
    let mut out = BTreeSet::new();
    for row in rows {
        let head = row[0].expect("a chain starts at its root");
        out.extend(row[1..].iter().flatten().map(|o| (head.raw(), o.raw())));
    }
    out
}

/// A database, a pure association chain over it, and the chain's links as
/// `(owning class, link name)`, left to right.
type AssocChain<'a> = (&'a Database, &'a str, &'a [(&'a str, &'a str)]);

/// Three formalisms, one answer: the engine, the spec interpreter and the
/// Datalog engine over `datalog::translate`'s flat encoding (the encoding
/// the benchmark's pass-0 oracle uses) agree on pure association chains and
/// on who reaches whom under `^*`.
#[test]
fn compiled_equals_spec_equals_datalog() {
    let (v, atom) = (datalog::v, datalog::Atom::new);
    check("compiled_equals_spec_equals_datalog", CASES, |g| {
        let seed = g.range(0u64..100);
        let reg = SubdbRegistry::new();
        let uni = university::populate(university::Size::small(), seed);
        let co = company::populate(company::CompanySize::small(), seed).0;
        let bom = bom_with_suppliers(cad::BomShape::small(), seed);
        let soc = social::build_graph(social::SocialShape::small(), seed).0;

        // `C0 * C1 * … * Cn` over the named links, each owned by its left
        // class: chain(X0, …, Xn) :- l0(X0, X1), …, l(n-1)(X(n-1), Xn).
        let chains: [AssocChain; 3] = [
            (&uni, "Teacher * Section * Course", &[("Teacher", "Teaches"), ("Section", "Course")]),
            (&co, "Employee * Department", &[("Employee", "WorksIn")]),
            (&bom, "Supplier * Part", &[("Supplier", "Supplies")]),
        ];
        for (db, query, links) in chains {
            let mut tr = datalog::translate(db);
            let body = links
                .iter()
                .enumerate()
                .map(|(i, (owner, link))| {
                    let owner = db.schema().class_by_name(owner).unwrap();
                    let assoc = db.schema().own_link_by_name(owner, link).unwrap();
                    let p = datalog::translate::assoc_pred(&mut tr, db, assoc);
                    atom(p, vec![v(i as u32), v(i as u32 + 1)])
                })
                .collect();
            let chain = tr.program.pred("chain");
            tr.program.rule(atom(chain, (0..=links.len() as u32).map(v).collect()), body);
            let (facts, _) = datalog::seminaive(&tr.program, &tr.edb);
            let flat: BTreeSet<Vec<u64>> = facts.tuples(chain).cloned().collect();
            let spec: BTreeSet<Vec<u64>> = assert_equiv(db, &reg, query)
                .iter()
                .map(|r| r.iter().map(|o| o.expect("full pattern").raw()).collect())
                .collect();
            assert_eq!(spec, flat, "spec != datalog for `{query}`");
        }

        // reach(X, Y) :- l(X, Y).  reach(X, Z) :- reach(X, Y), l(Y, Z).
        for (db, query, class, link) in
            [(&soc, "Person ^*", "Person", "Follows"), (&bom, "Part ^*", "Part", "Component")]
        {
            let mut tr = datalog::translate(db);
            let owner = db.schema().class_by_name(class).unwrap();
            let assoc = db.schema().own_link_by_name(owner, link).unwrap();
            let edge = datalog::translate::assoc_pred(&mut tr, db, assoc);
            let reach = tr.program.pred("reach");
            tr.program.rule(atom(reach, vec![v(0), v(1)]), vec![atom(edge, vec![v(0), v(1)])]);
            tr.program.rule(
                atom(reach, vec![v(0), v(2)]),
                vec![atom(reach, vec![v(0), v(1)]), atom(edge, vec![v(1), v(2)])],
            );
            let (facts, _) = datalog::seminaive(&tr.program, &tr.edb);
            // A chain never revisits an instance, so nobody reaches itself.
            let flat: BTreeSet<(u64, u64)> =
                facts.tuples(reach).filter(|t| t[0] != t[1]).map(|t| (t[0], t[1])).collect();
            let spec = assert_equiv(db, &reg, query);
            assert_eq!(reach_pairs(&spec), flat, "spec != datalog for `{query}`");
        }
    });
}

/// Incremental forward maintenance runs delta evaluations through the
/// cached compiled plan; the maintained subdatabases must equal a fresh
/// re-derivation after every step and, at the end of the schedule, the
/// spec interpreter ("interp") on the final database — both rules target
/// their whole context and have no WHERE.
#[test]
fn delta_maintenance_compiled_equals_interp() {
    check("delta_maintenance_compiled_equals_interp", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops = g.vec(2..8, |g| g.range(0usize..64));
        let rules = [
            ("Ra", "REa", "Employee * Department", "(Employee, Department)"),
            ("Rb", "REb", "REa:Employee * Project", "(Employee, Project)"),
        ];
        let (db, _) = company::populate(company::CompanySize::small(), seed);
        let mut e = RuleEngine::new(db);
        for (rule, subdb, context, target) in rules {
            e.add_rule(rule, &format!("if context {context} then {subdb} {target}")).unwrap();
        }
        for (_, s, ..) in rules {
            e.set_policy(s, EvalPolicy::PreEvaluated);
        }
        for (_, s, ..) in rules {
            e.subdb(s).unwrap();
        }
        for (i, &k) in ops.iter().enumerate() {
            let db = e.db_mut();
            let employee = db.schema().class_by_name("Employee").unwrap();
            let project = db.schema().class_by_name("Project").unwrap();
            let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
            let emp = db.extent(employee).nth(k % db.extent_size(employee)).unwrap();
            let p = db.new_object(project).unwrap();
            db.set_attr(p, "budget", Value::Int(i as i64)).unwrap();
            db.associate(assigned, emp, p).unwrap();
            e.propagate().unwrap();
            for (_, s, ..) in rules {
                let rows = rows_of(e.registry().subdb(s).unwrap());
                assert_eq!(rows, rows_of(&e.derive_fresh(s).unwrap()), "{s}: maintained != fresh");
            }
        }
        for (_, s, context, _) in rules {
            let rows = rows_of(e.registry().subdb(s).unwrap());
            let spec = spec_query(e.db(), e.registry(), context);
            assert_eq!(rows, spec, "{s}: maintained != spec");
        }
    });
}

/// Golden plans for the E1/E6/E7 context shapes over the university
/// schema (estimates from the store's counts). A planner change that re-orders these joins shows up here
/// as a readable diff, with `doodprof --plan` as the investigation tool.
#[test]
fn golden_plans_e1_e6_e7() {
    let db = university::populate(university::Size::small(), 42);
    let reg = SubdbRegistry::new();
    let e1 = plan_of(&db, &reg, "Teacher * Section * Course");
    let e6 = plan_of(&db, &reg, "{Teacher * Section} * Course");
    let e7 = plan_of(&db, &reg, "Department * Course * Section * Student");
    assert_eq!(
        e1,
        "plan\n  span [0,3) anchor=Course cost=29 rows=12\n    scan Course est=8\n    step Course->Section est=9\n    step Section->Teacher est=12\n",
        "E1 golden plan drifted:\n{e1}"
    );
    // The brace group compiles a second, prefix-only span: the retention
    // pass evaluates `{Teacher * Section}` on its own to decide which
    // partial patterns survive subsumption.
    assert_eq!(
        e6,
        "plan\n  span [0,3) anchor=Course cost=29 rows=12\n    scan Course est=8\n    step Course->Section est=9\n    step Section->Teacher est=12\n  span [0,2) anchor=Teacher cost=21 rows=12\n    scan Teacher est=9\n    step Teacher->Section est=12\n",
        "E6 golden plan drifted:\n{e6}"
    );
    assert_eq!(
        e7,
        "plan\n  span [0,4) anchor=Department cost=70 rows=51\n    scan Department est=2\n    step Department->Course est=8\n    step Course->Section est=9\n    step Section->Student est=51\n",
        "E7 golden plan drifted:\n{e7}"
    );
}
