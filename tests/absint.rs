//! Soundness tests for the abstract interpreter (`dood::rules::absint`):
//! static bounds must **dominate** every observed cardinality — a derived
//! subdatabase may never hold more patterns than `rows_hi`, a slot extent
//! may never exceed `slot_hi`, and closure reach may never exceed the
//! schema-derived `reach_hi`. A propcheck property stresses the same
//! contract over random instances and random (sometimes unsatisfiable)
//! predicates forced through the engine's *unchecked* `add_rule` path:
//! anything flagged `E017` statically must derive an empty extent.
//!
//! Driven by the in-repo seeded harness (`dood::core::propcheck`); replay
//! a reported failure with `DOOD_PROP_SEED=<seed> cargo test <name>`.

use dood::core::fxhash::FxHashSet;
use dood::core::ids::Oid;
use dood::core::propcheck::check;
use dood::oql::resolve::resolve_context;
use dood::oql::Evaluator;
use dood::rules::absint::{analyze_bounds, CardEnv};
use dood::rules::program::Program;
use dood::rules::RuleEngine;
use dood::workload::programs;

const CASES: usize = 24;

/// Parse a builtin program and build its seeded database.
fn setup(name: &str, seed: u64) -> (Program, dood::store::Database) {
    let text = programs::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| t)
        .unwrap_or_else(|| panic!("no builtin program `{name}`"));
    let (prog, diags) = Program::parse(text);
    assert!(diags.is_empty(), "{diags:?}");
    let db = programs::builtin_database(name, seed)
        .unwrap_or_else(|| panic!("no builtin population for `{name}`"));
    (prog, db)
}

/// Every builtin program's derived subdatabases stay within the abstract
/// interpreter's worst-case row bounds, computed over a snapshot of the
/// loaded base extents (`CardEnv::from_db`).
#[test]
fn static_bounds_dominate_builtin_corpus() {
    for name in ["university", "company", "cad", "social"] {
        for seed in [1u64, 7, 42] {
            let (prog, db) = setup(name, seed);
            let analysis =
                analyze_bounds(&prog, db.schema(), &FxHashSet::default(), &CardEnv::from_db(&db));
            assert!(analysis.diags.is_empty(), "{name}: {:?}", analysis.diags);
            let mut engine = RuleEngine::new(db);
            engine.register(&prog).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (subdb, &hi) in &analysis.subdb_hi {
                let observed = engine
                    .subdb(subdb)
                    .unwrap_or_else(|e| panic!("{name}/{subdb}: {e}"))
                    .len() as f64;
                assert!(
                    observed <= hi,
                    "{name}/{subdb} (seed {seed}): observed {observed} rows > static bound {hi}"
                );
            }
        }
    }
}

/// Closure reach bounds: the distinct objects a `^*` closure touches can
/// never exceed the traversed class's extent (`reach_hi`), and a `^N`
/// chain over identity edges is bound by depth 1.
#[test]
fn closure_reach_bounds_cover_observed() {
    for (name, rule, subdb) in [("cad", "RX", "Explosion"), ("social", "RS", "Reach")] {
        let (prog, db) = setup(name, 7);
        let analysis =
            analyze_bounds(&prog, db.schema(), &FxHashSet::default(), &CardEnv::from_db(&db));
        let b = analysis.bounds_for(rule).unwrap_or_else(|| panic!("{name}: no bounds for {rule}"));
        let closure = b.closure.as_ref().unwrap_or_else(|| panic!("{rule}: no closure bounds"));
        assert!(closure.levels.is_none(), "{rule} is `^*`, not `^N`");
        let mut engine = RuleEngine::new(db);
        engine.register(&prog).unwrap();
        let sd = engine.subdb(subdb).unwrap();
        let mut reached: std::collections::BTreeSet<Oid> = Default::default();
        let width = sd.intension.width();
        for slot in 0..width {
            reached.extend(sd.slot_extent(slot));
        }
        assert!(
            reached.len() as f64 <= closure.reach_hi,
            "{name}/{subdb}: {} distinct objects > reach bound {}",
            reached.len(),
            closure.reach_hi
        );
    }
}

/// Plans are per database, never per process: registering (and deriving)
/// a program on one engine leaves every plan another engine compiles
/// unchanged — registration installs nothing the planner reads.
#[test]
fn register_installs_static_priors() {
    let (prog, db) = setup("university", 7);
    let mut mine = RuleEngine::new(db);
    mine.register(&prog).unwrap();
    for pr in &prog.rules {
        mine.subdb(&pr.rule.target_subdb).unwrap();
    }
    let plans = |e: &RuleEngine| -> Vec<String> {
        prog.rules
            .iter()
            .map(|pr| {
                let ctx = resolve_context(&pr.rule.context, e.db().schema(), e.registry()).unwrap();
                Evaluator::new(&ctx, e.db(), e.registry()).unwrap().plan_handle().describe()
            })
            .collect()
    };
    let before = plans(&mine);
    let (_, other_db) = setup("university", 42);
    let mut other = RuleEngine::new(other_db);
    other.register(&prog).unwrap();
    for pr in &prog.rules {
        other.subdb(&pr.rule.target_subdb).unwrap();
    }
    assert_eq!(plans(&mine), before, "another engine's registration moved a plan");
}

/// The chain catalogue for the propcheck: valid university join chains
/// with the occurrence (by index) that carries a random predicate, and
/// that occurrence's integer attribute.
const CHAINS: &[(&[&str], usize, &str)] = &[
    (&["Teacher", "Section", "Course"], 2, "c#"),
    (&["Teacher", "Section", "Student"], 1, "section#"),
    (&["Section", "Course"], 1, "c#"),
];

/// Random single-rule programs over random university instances: the
/// static bounds computed *before* derivation dominate what derivation
/// actually produces, and anything flagged statically unsatisfiable
/// (`E017`) derives an empty extent even through the unchecked
/// `add_rule` path (no analyzer gate).
#[test]
fn static_bounds_are_sound_on_random_programs() {
    check("static_bounds_are_sound_on_random_programs", CASES, |g| {
        let seed = g.range(0u64..500);
        let (names, pred_at, attr) = CHAINS[g.range(0..CHAINS.len() as u64) as usize];
        let k1 = g.range(0u64..9000) as i64;
        let k2 = g.range(0u64..9000) as i64;
        let pred = match g.range(0u64..5) {
            0 => String::new(),
            1 => format!(" [{attr} < {k1}]"),
            // Random two-sided range: unsatisfiable whenever k2 <= k1+1.
            2 => format!(" [{attr} > {k1} and {attr} < {k2}]"),
            // Double point constraint: unsatisfiable unless k1 == k2.
            3 => format!(" [{attr} = {k1} and {attr} = {k2}]"),
            _ => format!(" [{attr} >= {k1} and {attr} <= {k1}]"),
        };
        let ctx: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if i == pred_at {
                    format!("{n}{pred}")
                } else {
                    (*n).to_string()
                }
            })
            .collect();
        let ctx = ctx.join(" * ");
        let target = names.join(", ");
        let text = format!(
            "schema builtin university\n\nrule R:\n  if context {ctx}\n  then T ({target})\n"
        );
        let (prog, diags) = Program::parse(&text);
        assert!(diags.is_empty(), "parse of generated program failed: {diags:?}\n{text}");

        let db = dood::workload::university::populate(
            dood::workload::university::Size::small(),
            seed,
        );
        let analysis =
            analyze_bounds(&prog, db.schema(), &FxHashSet::default(), &CardEnv::from_db(&db));
        let b = analysis.bounds_for("R").expect("bounds for R").clone();
        let flagged = analysis.diags.iter().any(|d| d.code == "E017");
        assert_eq!(flagged, b.empty, "E017 flag and `empty` bound disagree on:\n{text}");

        // The unchecked path: no analyzer gate between parse and derive.
        let mut engine = RuleEngine::new(db);
        engine
            .add_rule("R", &format!("if context {ctx} then T ({target})"))
            .unwrap();
        let sd = engine.subdb("T").unwrap();
        let rows = sd.len() as f64;
        assert!(rows <= b.rows_hi, "observed {rows} rows > static bound {}\n{text}", b.rows_hi);
        for (i, &hi) in b.slot_hi.iter().enumerate() {
            let ext = sd.slot_extent(i).len() as f64;
            assert!(ext <= hi, "slot {i}: extent {ext} > static bound {hi}\n{text}");
        }
        if flagged {
            assert_eq!(
                sd.len(),
                0,
                "statically-unsatisfiable rule derived {} patterns:\n{text}",
                sd.len()
            );
        }
    });
}
