//! Shared setup for what is left of the evaluation suite: the fixtures of
//! the paper-claim experiments E1–E8 (one row-printing entry each in the
//! `report` binary) and of the gates in `benches/`, which run on the in-repo
//! [`harness`].

#![warn(missing_docs)]

pub mod harness;

use dood_core::subdb::SubdbRegistry;
use dood_datalog as datalog;
use dood_datalog::Atom;
use dood_oql::Oql;
use dood_rules::{ChainStrategy, ControlMode, EvalPolicy, RuleEngine};
use dood_store::Database;
use dood_workload::{cad, company, university};

/// E1 fixture: a scaled university database plus the two query engines'
/// inputs for the three-way association `Teacher * Section * Course`.
pub struct AssocFixture {
    /// The object database.
    pub db: Database,
    /// Empty registry (base-data query).
    pub registry: SubdbRegistry,
    /// Translated flat facts + program computing `tsc(T,S,C)`.
    pub datalog: (datalog::Program, datalog::FactDb, datalog::Pred),
}

/// Build the E1 fixture at a population scale factor.
pub fn assoc_fixture(factor: usize) -> AssocFixture {
    let db = university::populate(university::Size::scaled(factor), 42);
    let mut t = datalog::translate(&db);
    let teacher = db.schema().class_by_name("Teacher").unwrap();
    let section = db.schema().class_by_name("Section").unwrap();
    let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
    let of = db.schema().own_link_by_name(section, "Course").unwrap();
    let teaches_p = datalog::translate::assoc_pred(&mut t, &db, teaches);
    let of_p = datalog::translate::assoc_pred(&mut t, &db, of);
    let tsc = t.program.pred("tsc");
    t.program.rule(
        Atom::new(tsc, vec![datalog::v(0), datalog::v(1), datalog::v(2)]),
        vec![
            Atom::new(teaches_p, vec![datalog::v(0), datalog::v(1)]),
            Atom::new(of_p, vec![datalog::v(1), datalog::v(2)]),
        ],
    );
    AssocFixture {
        db,
        registry: SubdbRegistry::new(),
        datalog: (t.program, t.edb, tsc),
    }
}

/// E1: run the OQL three-way association; returns the pattern count.
pub fn assoc_dood(f: &AssocFixture) -> usize {
    Oql::new()
        .query(&f.db, &f.registry, "context Teacher * Section * Course")
        .expect("E1 query")
        .subdb
        .len()
}

/// E1: run the Datalog equivalent; returns the derived tuple count.
pub fn assoc_datalog(f: &AssocFixture) -> usize {
    let (program, edb, tsc) = &f.datalog;
    let (db, _) = datalog::seminaive(program, edb);
    db.count(*tsc)
}

/// E2 fixture: a BOM plus the Datalog reachability program.
pub struct ClosureFixture {
    /// The BOM database.
    pub db: Database,
    /// Empty registry.
    pub registry: SubdbRegistry,
    /// Program + facts + the `reach` predicate.
    pub datalog: (datalog::Program, datalog::FactDb, datalog::Pred),
}

/// Build the E2 fixture.
pub fn closure_fixture(depth: usize, fanout: usize) -> ClosureFixture {
    let (db, _) = cad::build_bom(
        cad::BomShape { depth, fanout, roots: 2, share_per_mille: 300 },
        7,
    );
    let mut t = datalog::translate(&db);
    let part = db.schema().class_by_name("Part").unwrap();
    let comp = db.schema().own_link_by_name(part, "Component").unwrap();
    let comp_p = datalog::translate::assoc_pred(&mut t, &db, comp);
    let reach = t.program.pred("reach");
    t.program.rule(
        Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
        vec![Atom::new(comp_p, vec![datalog::v(0), datalog::v(1)])],
    );
    t.program.rule(
        Atom::new(reach, vec![datalog::v(0), datalog::v(2)]),
        vec![
            Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
            Atom::new(comp_p, vec![datalog::v(1), datalog::v(2)]),
        ],
    );
    ClosureFixture { db, registry: SubdbRegistry::new(), datalog: (t.program, t.edb, reach) }
}

/// E2: dood looping closure (`Part ^*`); returns the chain count.
pub fn closure_dood(f: &ClosureFixture) -> usize {
    Oql::new()
        .query(&f.db, &f.registry, "context Part ^*")
        .expect("E2 query")
        .subdb
        .len()
}

/// E2: Datalog recursive reachability; returns the fact count.
pub fn closure_datalog(f: &ClosureFixture) -> usize {
    let (program, edb, reach) = &f.datalog;
    let (db, _) = datalog::seminaive(program, edb);
    db.count(*reach)
}

/// E3/E4 fixture: the §6 pipeline over the company domain.
pub fn pipeline_engine(employees: usize, seed: u64) -> RuleEngine {
    let (db, _) = company::populate(company::CompanySize::scaled(employees), seed);
    let mut engine = RuleEngine::new(db);
    engine
        .add_rule("Ra", "if context Employee * Department then REa (Employee, Department)")
        .unwrap();
    engine
        .add_rule("Rb", "if context REa:Employee * Project then REb (Employee, Project)")
        .unwrap();
    engine
        .add_rule("Rc", "if context REb:Employee * REb:Project then REc (Project)")
        .unwrap();
    engine
        .add_rule("Rd", "if context REc:Project * Department then REd (Department)")
        .unwrap();
    engine
}

/// One update step for E3/E4: reassign an employee to a fresh project.
pub fn pipeline_update(engine: &mut RuleEngine, i: usize) {
    let db = engine.db_mut();
    let employee = db.schema().class_by_name("Employee").unwrap();
    let project = db.schema().class_by_name("Project").unwrap();
    let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
    let e = db.extent(employee).nth(i % db.extent_size(employee)).unwrap();
    let p = db.new_object(project).unwrap();
    db.set_attr(p, "budget", dood_core::value::Value::Int(i as i64)).unwrap();
    db.associate(assigned, e, p).unwrap();
}

/// E3: run a workload of `updates` updates and `queries` queries under the
/// given policy for the whole pipeline; returns total query result rows
/// (to keep the optimizer honest).
pub fn chaining_workload(
    engine: &mut RuleEngine,
    policy: EvalPolicy,
    updates: usize,
    queries: usize,
) -> usize {
    for s in ["REa", "REb", "REc", "REd"] {
        engine.set_policy(s, policy);
    }
    let mut rows = 0;
    let rounds = updates.max(queries);
    for i in 0..rounds {
        if i < updates {
            pipeline_update(engine, i);
            engine.propagate().unwrap();
        }
        if i < queries {
            rows += engine
                .query("context REd:Department select dname")
                .unwrap()
                .table
                .len();
        }
    }
    rows
}

/// E4: run one update+query round in rule-oriented mode with the paper's
/// problematic strategy mix; returns whether REc/REd stayed consistent.
pub fn rule_oriented_round(engine: &mut RuleEngine, i: usize) -> bool {
    engine.set_mode(ControlMode::RuleOriented);
    engine.set_strategy("Ra", ChainStrategy::Backward);
    engine.set_strategy("Rb", ChainStrategy::Backward);
    engine.set_strategy("Rc", ChainStrategy::Forward);
    engine.set_strategy("Rd", ChainStrategy::Forward);
    pipeline_update(engine, i);
    engine.propagate().unwrap();
    engine.is_consistent("REd").unwrap() && engine.is_consistent("REc").unwrap()
}

/// E5 fixture: a linear generalization chain `C0 ⊒ C1 ⊒ … ⊒ Cdepth` with an
/// attribute at the root and an association partner at the top.
pub fn inherit_fixture(depth: usize, instances: usize) -> Database {
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::{DType, Value};
    let mut b = SchemaBuilder::new();
    b.e_class("Partner");
    b.d_class("v", DType::Int);
    for i in 0..=depth {
        b.e_class(format!("C{i}"));
        if i > 0 {
            b.generalize(format!("C{}", i - 1), format!("C{i}"));
        }
    }
    b.attr("C0", "v");
    b.aggregate_named("C0", "Partner", "Link");
    let mut db = Database::new(b.build().unwrap());
    let c0 = db.schema().class_by_name("C0").unwrap();
    let partner = db.schema().class_by_name("Partner").unwrap();
    let link = db.schema().own_link_by_name(c0, "Link").unwrap();
    for i in 0..instances {
        let root = db.new_object(c0).unwrap();
        db.set_attr(root, "v", Value::Int(i as i64)).unwrap();
        let p = db.new_object(partner).unwrap();
        db.associate(link, root, p).unwrap();
        let mut cur = root;
        for d in 1..=depth {
            let cls = db.schema().class_by_name(&format!("C{d}")).unwrap();
            cur = db.specialize(cur, cls).unwrap();
        }
    }
    db
}

/// E5: query the deepest subclass against Partner (forces climbing the
/// whole chain per instance); returns the pattern count.
pub fn inherit_query(db: &Database, depth: usize) -> usize {
    let reg = SubdbRegistry::new();
    Oql::new()
        .query(db, &reg, &format!("context C{depth} * Partner"))
        .expect("E5 query")
        .subdb
        .len()
}

/// E6: plain vs braced three-way chains over the university data; returns
/// (plain patterns, braced patterns).
pub fn braces_pair(db: &Database) -> (usize, usize) {
    let reg = SubdbRegistry::new();
    let oql = Oql::new();
    let plain = oql
        .query(db, &reg, "context Teacher * Section * Course")
        .expect("plain")
        .subdb
        .len();
    let braced = oql
        .query(db, &reg, "context {Teacher * Section} * Course")
        .expect("braced")
        .subdb
        .len();
    (plain, braced)
}

/// E7: grouped aggregation (rule R2's COUNT) at scale; returns qualifying
/// pattern count.
pub fn aggregate_query(db: &Database, threshold: i64) -> usize {
    let reg = SubdbRegistry::new();
    Oql::new()
        .query(
            db,
            &reg,
            &format!(
                "context Department * Course * Section * Student \
                 where count(Student by Course) > {threshold}"
            ),
        )
        .expect("E7 query")
        .subdb
        .len()
}

/// E15 population scale: the smallest factor that pushes the university
/// database past 100k objects (factor 1 ≈ 2.5k objects).
pub const E15_FACTOR: usize = 41;

/// E15 fixture: the E1 association workload's database at
/// [`E15_FACTOR`] scale, where one query runs for milliseconds.
pub fn e15_fixture() -> (Database, SubdbRegistry) {
    let db = university::populate(university::Size::scaled(E15_FACTOR), 42);
    (db, SubdbRegistry::new())
}

/// E15: the E1 association query against an explicit database; returns the
/// pattern count.
pub fn assoc_query(db: &Database, registry: &SubdbRegistry) -> usize {
    Oql::new()
        .query(db, registry, "context Teacher * Section * Course")
        .expect("E15 query")
        .subdb
        .len()
}

/// Median wall-clock time of `runs` executions, in microseconds. The
/// shared timing primitive of the row-printing binaries (`report`,
/// `ablations`); the bench targets use the [`harness`] instead.
pub fn time_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// E8 fixture: chain EDB for naive-vs-semi-naive.
pub fn tc_program_and_edb(n: u64) -> (datalog::Program, datalog::FactDb) {
    let mut p = datalog::Program::new();
    let edge = p.pred("edge");
    let path = p.pred("path");
    p.rule(
        Atom::new(path, vec![datalog::v(0), datalog::v(1)]),
        vec![Atom::new(edge, vec![datalog::v(0), datalog::v(1)])],
    );
    p.rule(
        Atom::new(path, vec![datalog::v(0), datalog::v(2)]),
        vec![
            Atom::new(path, vec![datalog::v(0), datalog::v(1)]),
            Atom::new(edge, vec![datalog::v(1), datalog::v(2)]),
        ],
    );
    let mut edb = datalog::FactDb::new();
    for i in 1..n {
        edb.insert(edge, vec![i, i + 1]);
    }
    (p, edb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_engines_agree() {
        let f = assoc_fixture(1);
        assert_eq!(assoc_dood(&f), assoc_datalog(&f));
    }

    #[test]
    fn e2_runs() {
        let f = closure_fixture(3, 2);
        assert!(closure_dood(&f) > 0);
        assert!(closure_datalog(&f) > 0);
    }

    #[test]
    fn e3_policies_give_same_answers() {
        let mut pre = pipeline_engine(40, 1);
        let mut post = pipeline_engine(40, 1);
        let a = chaining_workload(&mut pre, EvalPolicy::PreEvaluated, 3, 3);
        let b = chaining_workload(&mut post, EvalPolicy::PostEvaluated, 3, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn e4_rule_oriented_goes_stale() {
        let mut engine = pipeline_engine(40, 2);
        engine.query("context REd:Department").unwrap();
        assert!(!rule_oriented_round(&mut engine, 0));
    }

    #[test]
    fn e5_inherit_scales() {
        let db = inherit_fixture(4, 10);
        assert_eq!(inherit_query(&db, 4), 10);
    }

    #[test]
    fn e6_braced_superset() {
        let db = university::populate(university::Size::small(), 9);
        let (plain, braced) = braces_pair(&db);
        assert!(braced >= plain);
    }

    #[test]
    fn e7_aggregate_monotone() {
        let db = university::populate(university::Size::small(), 9);
        assert!(aggregate_query(&db, 0) >= aggregate_query(&db, 3));
    }

    #[test]
    fn e8_fixpoints() {
        let (p, edb) = tc_program_and_edb(20);
        let (a, _) = datalog::naive(&p, &edb);
        let (b, _) = datalog::seminaive(&p, &edb);
        let path = p.try_pred("path").unwrap();
        assert_eq!(a.count(path), b.count(path));
    }
}
