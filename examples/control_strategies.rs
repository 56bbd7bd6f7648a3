//! Control strategies (paper §6): the POSTGRES rule-oriented restriction
//! and the inconsistency it causes, versus the paper's result-oriented
//! strategy — demonstrated on the Ra…Rd / REa…REd pipeline.
//!
//! ```sh
//! cargo run --example control_strategies
//! ```

use dood::core::value::Value;
use dood::rules::{ChainStrategy, ControlMode, EvalPolicy, RuleEngine};
use dood::workload::company::{self, CompanySize};

fn build_engine() -> RuleEngine {
    let (db, _) = company::populate(CompanySize::small(), 21);
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

/// Hire an employee onto a brand-new project: an update that must flow
/// through the whole pipeline.
fn hire(engine: &mut RuleEngine) {
    let db = engine.db_mut();
    let employee = db.schema().class_by_name("Employee").unwrap();
    let department = db.schema().class_by_name("Department").unwrap();
    let project = db.schema().class_by_name("Project").unwrap();
    let works_in = db.schema().own_link_by_name(employee, "WorksIn").unwrap();
    let assigned = db.schema().own_link_by_name(employee, "AssignedTo").unwrap();
    let sponsors = db.schema().own_link_by_name(department, "Sponsors").unwrap();
    let d = db.extent(department).next().unwrap();
    let p = db.new_object(project).unwrap();
    db.set_attr(p, "budget", Value::Int(1)).unwrap();
    db.associate(sponsors, d, p).unwrap();
    let e = db.new_object(employee).unwrap();
    db.set_attr(e, "ename", Value::str("new-hire")).unwrap();
    db.associate(works_in, e, d).unwrap();
    db.associate(assigned, e, p).unwrap();
}

fn report(engine: &RuleEngine, label: &str) {
    print!("{label}: ");
    for s in ["REa", "REb", "REc", "REd"] {
        let state = match engine.registry().subdb(s) {
            None => "—".to_string(),
            Some(sd) => {
                let fresh = engine.is_consistent(s).unwrap();
                format!("{}{}", sd.len(), if fresh { "" } else { "(STALE)" })
            }
        };
        print!("{s}={state}  ");
    }
    println!();
}

fn main() {
    // ---------------------------------------------------------------
    // 1. Rule-oriented control (POSTGRES-style): Ra/Rb backward, Rc/Rd
    //    forward. The paper: "a forward chaining rule cannot read any data
    //    written by backward chaining rules".
    // ---------------------------------------------------------------
    println!("== Rule-oriented control (POSTGRES-style) ==");
    let mut engine = build_engine();
    engine.set_mode(ControlMode::RuleOriented);
    engine.set_strategy("Ra", ChainStrategy::Backward);
    engine.set_strategy("Rb", ChainStrategy::Backward);
    engine.set_strategy("Rc", ChainStrategy::Forward);
    engine.set_strategy("Rd", ChainStrategy::Forward);
    engine.query("context REd:Department").unwrap();
    report(&engine, "after bootstrap query  ");
    hire(&mut engine);
    engine.propagate().unwrap();
    report(&engine, "after update + propagate");
    println!(
        "→ Rc/Rd could not re-run (their backward-derived inputs are gone), \
         so REc/REd are inconsistent with the base data.\n"
    );

    // ---------------------------------------------------------------
    // 2. Result-oriented control (the paper's strategy): declare REd
    //    pre-evaluated and REb post-evaluated. The same rules now run
    //    forward when maintaining REd and backward when deriving REb.
    // ---------------------------------------------------------------
    println!("== Result-oriented control (the paper's strategy) ==");
    let mut engine = build_engine();
    engine.set_policy("REd", EvalPolicy::PreEvaluated);
    engine.set_policy("REc", EvalPolicy::PreEvaluated);
    // REa/REb default to post-evaluated.
    engine.query("context REd:Department").unwrap();
    report(&engine, "after bootstrap query  ");
    hire(&mut engine);
    engine.propagate().unwrap();
    report(&engine, "after update + propagate");
    println!(
        "→ REd/REc were forward-maintained through fresh sources; \
         REa/REb are stale and will be caught up on demand."
    );
    engine.query("context REb:Employee * REb:Project").unwrap();
    report(&engine, "after querying REb      ");
    println!("→ every materialized result is consistent.");
}
