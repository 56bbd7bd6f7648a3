//! Soundness of the closure kernel (DESIGN.md §11): it must agree with the
//! spec-level interpreter of `tests/common/spec_eval.rs` (§5.2 by naive
//! iteration) — on every closure shape (bounded `^N`, unbounded `^*`,
//! conditioned slot-0), over all four closure-bearing schemas. And
//! incremental fixpoint maintenance (provenance-carrying
//! delta closure in `rules::maintain`) must land on exactly the
//! subdatabases a fresh recomputation produces, under arbitrary
//! insert/delete/attr-flip schedules — and, for a rule that keeps its whole
//! context, on what the spec interpreter says of the final database. Plus
//! golden closure-plan `describe()` snapshots pinning the
//! fan-out/rounds/reach estimates.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

#[path = "common/spec_eval.rs"]
mod spec_eval;

use dood::core::ids::Oid;
use dood::core::propcheck::{check, Gen};
use dood::core::schema::SchemaBuilder;
use dood::core::subdb::SubdbRegistry;
use dood::core::value::{DType, Value};
use dood::oql::parser::Parser;
use dood::oql::resolve::resolve_context;
use dood::oql::Evaluator;
use dood::rules::{EvalPolicy, RuleEngine};
use dood::store::Database;
use dood::workload::{cad, social, university};
use spec_eval::{rows_of, spec_eval, spec_query};

const CASES: usize = 4;

/// A minimal self-association schema (`N --Next--> N`) whose instances the
/// maintenance schedules mutate freely: the smallest graph where frontier
/// rounds, cycle cuts, and support-count GC all occur.
fn cyclic_db(nodes: usize) -> Database {
    let mut b = SchemaBuilder::new();
    b.e_class("N");
    b.d_class("v", DType::Int);
    b.attr("N", "v");
    b.aggregate_named("N", "N", "Next");
    let mut db = Database::new(b.build().expect("cyclic schema valid"));
    let n = db.schema().class_by_name("N").unwrap();
    let next = db.schema().own_link_by_name(n, "Next").unwrap();
    let mut prev = None;
    for i in 0..nodes {
        let o = db.new_object(n).unwrap();
        db.set_attr(o, "v", Value::Int(i as i64)).unwrap();
        if let Some(p) = prev {
            db.associate(next, p, o).unwrap();
        }
        prev = Some(o);
    }
    db
}

/// Closure context expressions per schema: unbounded, bounded, and
/// slot-0-conditioned variants — the shapes the kernel specializes.
const UNIVERSITY_QUERIES: &[&str] = &[
    "Grad * TA * Teacher * Section * Student ^*",
    "Grad * TA * Teacher * Section * Student ^2",
];
const CAD_QUERIES: &[&str] = &["Part ^*", "Part ^3", "Part [cost >= 20] ^*"];
const CYCLIC_QUERIES: &[&str] = &["N ^*", "N ^2", "N [v >= 2] ^*"];
const SOCIAL_QUERIES: &[&str] = &["Person ^*", "Person ^4", "Person [score >= 50] ^*"];

fn dbs(seed: u64) -> Vec<(Database, &'static [&'static str])> {
    vec![
        (university::populate(university::Size::small(), seed), UNIVERSITY_QUERIES),
        (cad::build_bom(cad::BomShape::small(), seed).0, CAD_QUERIES),
        (cyclic_db(8), CYCLIC_QUERIES),
        (social::build_graph(social::SocialShape::small(), seed).0, SOCIAL_QUERIES),
    ]
}

/// Evaluate `query` through the fixpoint kernel and through the spec
/// interpreter; assert identical pattern sets.
fn assert_equiv(db: &Database, reg: &SubdbRegistry, query: &str) {
    let expr = Parser::parse_context_expr(query).unwrap();
    let resolved = resolve_context(&expr, db.schema(), reg).unwrap();
    let spec = spec_eval(&resolved, db, reg);
    let ev = Evaluator::new(&resolved, db, reg).unwrap();
    assert_eq!(rows_of(&ev.eval("x")), spec, "kernel != spec for `{query}`");
}

/// "interp" is the spec-level interpreter of `tests/common/spec_eval.rs`.
#[test]
fn compiled_closure_equals_interp_across_schemas_and_threads() {
    check("compiled_closure_equals_interp_across_schemas_and_threads", CASES, |g| {
        let seed = g.range(0u64..100);
        for (db, queries) in dbs(seed) {
            let reg = SubdbRegistry::new();
            for q in queries {
                assert_equiv(&db, &reg, q);
            }
        }
    });
}

/// One mutation of a self-association graph, chosen by `(kind, k)`:
/// attach a new node, add an edge (possibly closing a cycle), delete a
/// node (detaching its links), or flip an attribute (dirtying conditions
/// and WHERE verdicts without touching structure).
fn mutate(db: &mut Database, class: &str, link: &str, attr: &str, kind: usize, k: usize) {
    let cls = db.schema().class_by_name(class).unwrap();
    let assoc = db.schema().own_link_by_name(cls, link).unwrap();
    let pop: Vec<Oid> = db.extent(cls).collect();
    match kind {
        0 => {
            let o = db.new_object(cls).unwrap();
            db.set_attr(o, attr, Value::Int(k as i64 % 100)).unwrap();
            let from = pop[k % pop.len()];
            db.associate(assoc, from, o).unwrap();
        }
        1 => {
            let a = pop[k % pop.len()];
            let b = pop[(k / 7 + 1) % pop.len()];
            if a != b && !db.linked(assoc, a, b) {
                db.associate(assoc, a, b).unwrap();
            }
        }
        2 => {
            if pop.len() > 2 {
                db.delete_object(pop[k % pop.len()]).unwrap();
            }
        }
        _ => {
            let o = pop[k % pop.len()];
            db.set_attr(o, attr, Value::Int(k as i64 % 100 - 30)).unwrap();
        }
    }
}

/// Register closure `rules` over `db`, derive `subdbs`, apply the
/// mutation schedule propagating after each step, check every maintained
/// subdatabase against its from-scratch derivation after each, and return
/// the engine in its final state.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    db: Database,
    class: &str,
    link: &str,
    attr: &str,
    rules: &[(&str, &str)],
    subdbs: &[&str],
    ops: &[(usize, usize)],
) -> RuleEngine {
    let mut e = RuleEngine::new(db);
    for (name, src) in rules {
        e.add_rule(name, src).unwrap();
    }
    for s in subdbs {
        e.set_policy(*s, EvalPolicy::PreEvaluated);
    }
    for s in subdbs {
        e.subdb(s).unwrap();
    }
    for &(kind, k) in ops {
        mutate(e.db_mut(), class, link, attr, kind, k);
        e.propagate().unwrap();
        for s in subdbs {
            let fresh = e.derive_fresh(s).unwrap();
            assert_eq!(rows_of(e.registry().subdb(s).unwrap()), rows_of(&fresh), "{s} != fresh");
        }
    }
    e
}

/// One case of `closure_maintenance_incremental_equals_fresh_cyclic`.
fn cyclic_schedule(g: &mut Gen) {
    let ops: Vec<(usize, usize)> = g.vec(3..9, |g| (g.range(0usize..4), g.range(0usize..64)));
    // A plain chain-collecting rule plus a conditioned + WHERE-guarded
    // one: the latter exercises the stale-verdict recheck path when an
    // attr flip dirties a retained chain.
    let rules: &[(&str, &str)] = &[
        ("R1", "if context N ^* then T (N, N_*)"),
        ("R2", "if context N [v < 60] ^* where N.v >= 0 then U (N, N_*)"),
    ];
    let maintained = run_schedule(cyclic_db(6), "N", "Next", "v", rules, &["T", "U"], &ops);
    // R1 keeps its whole context and has no WHERE.
    let spec = spec_query(maintained.db(), maintained.registry(), "N ^*");
    assert_eq!(rows_of(maintained.registry().subdb("T").unwrap()), spec, "T != spec");
}

#[test]
fn closure_maintenance_incremental_equals_fresh_cyclic() {
    check("closure_maintenance_incremental_equals_fresh_cyclic", CASES, cyclic_schedule);
}

/// Regression: a schedule after which every chain has length 1. A family
/// target `N_*` over such a closure covers no level — it derives the empty
/// level instead of failing with `UnknownTarget`.
#[test]
fn closure_of_width_one_derives_the_empty_family_level() {
    cyclic_schedule(&mut Gen::from_seed(13904107186047154181));
}

#[test]
fn closure_maintenance_incremental_equals_fresh_social() {
    check("closure_maintenance_incremental_equals_fresh_social", CASES, |g| {
        let seed = g.range(0u64..100);
        let ops: Vec<(usize, usize)> =
            g.vec(3..8, |g| (g.range(0usize..4), g.range(0usize..64)));
        let rules: &[(&str, &str)] =
            &[("RS", "if context Person ^* then Reach (Person, Person_*)")];
        let db = social::build_graph(social::SocialShape::small(), seed).0;
        let maintained =
            run_schedule(db, "Person", "Follows", "score", rules, &["Reach"], &ops);
        let spec = spec_query(maintained.db(), maintained.registry(), "Person ^*");
        assert_eq!(rows_of(maintained.registry().subdb("Reach").unwrap()), spec, "Reach != spec");
    });
}

/// Regression: a `^*` rule over a follow chain longer than 64 people. The
/// closure result is as wide as the chain, so a pattern or intension limit
/// of 64 slots aborted the derivation; an edge written into the middle of
/// the chain, and later a deletion there, are maintained exactly as a
/// fresh derivation computes them.
#[test]
fn closure_over_a_chain_longer_than_64_is_maintained() {
    let mut db = Database::new(social::schema());
    let person = db.schema().class_by_name("Person").unwrap();
    let follows = db.schema().own_link_by_name(person, "Follows").unwrap();
    let mut chain = Vec::new();
    for i in 0..72 {
        let o = db.new_object(person).unwrap();
        db.set_attr(o, "score", Value::Int(i % 100)).unwrap();
        if let Some(&prev) = chain.last() {
            db.associate(follows, prev, o).unwrap();
        }
        chain.push(o);
    }
    let side: Vec<Oid> = (0..6).map(|_| db.new_object(person).unwrap()).collect();
    for w in side.windows(2) {
        db.associate(follows, w[0], w[1]).unwrap();
    }
    let mut e = RuleEngine::new(db);
    e.add_rule("RS", "if context Person ^* then Reach (Person, Person_*)").unwrap();
    e.set_policy("Reach", EvalPolicy::PreEvaluated);
    assert_eq!(e.subdb("Reach").unwrap().intension.width(), 72);
    let check = |e: &mut RuleEngine| {
        e.propagate().unwrap();
        let fresh = e.derive_fresh("Reach").unwrap();
        assert_eq!(rows_of(e.registry().subdb("Reach").unwrap()), rows_of(&fresh));
        fresh.intension.width()
    };
    // Into the middle: the side chain hangs off person 35, and the side
    // chain's tail follows person 36 (a second route into the long tail).
    e.db_mut().associate(follows, chain[35], side[0]).unwrap();
    e.db_mut().associate(follows, side[5], chain[36]).unwrap();
    assert_eq!(check(&mut e), 36 + 6 + 36);
    e.db_mut().delete_object(chain[20]).unwrap();
    assert_eq!(check(&mut e), 15 + 6 + 36);
}

/// Golden closure plans (estimates from the store's counts): a cost-model
/// change that moves the fan-out, round, or reach estimates shows up here
/// as a readable diff, with `doodprof --plan` as the investigation tool.
#[test]
fn golden_closure_plans() {
    let plan_of = |db: &Database, query: &str| {
        let reg = SubdbRegistry::new();
        let expr = Parser::parse_context_expr(query).unwrap();
        let resolved = resolve_context(&expr, db.schema(), &reg).unwrap();
        Evaluator::new(&resolved, db, &reg).unwrap().plan_handle().describe()
    };
    let social_db = social::build_graph(social::SocialShape::small(), 42).0;
    let cad_db = cad::build_bom(cad::BomShape::small(), 42).0;
    let unbounded = plan_of(&social_db, "Person ^*");
    let bounded = plan_of(&social_db, "Person ^2");
    let part = plan_of(&cad_db, "Part ^*");
    assert_eq!(
        unbounded,
        "plan\n  span [0,1) anchor=Person cost=26 rows=26\n    scan Person est=26\n  closure ^* cycle=Person fan=1.15 est_rounds=23 est_reach=26\n",
        "social `^*` golden plan drifted:\n{unbounded}"
    );
    assert_eq!(
        bounded,
        "plan\n  span [0,1) anchor=Person cost=26 rows=26\n    scan Person est=26\n  closure ^2 cycle=Person fan=1.15 est_rounds=2 est_reach=26\n",
        "social `^2` golden plan drifted:\n{bounded}"
    );
    assert_eq!(
        part,
        "plan\n  span [0,1) anchor=Part cost=30 rows=30\n    scan Part est=30\n  closure ^* cycle=Part fan=0.93 est_rounds=30 est_reach=30\n",
        "cad `^*` golden plan drifted:\n{part}"
    );
}
