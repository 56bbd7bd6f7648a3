//! Transitive closure as looping (paper §5.2): course prerequisite chains
//! and the CAD bill-of-materials part explosion, with the Datalog baseline
//! computing the same reachability for comparison.
//!
//! ```sh
//! cargo run --example transitive_closure
//! ```

use dood::core::subdb::SubdbRegistry;
use dood::datalog::{self, Atom};
use dood::oql::Oql;
use dood::workload::{cad, university};

fn main() {
    // --- Course prerequisite chains -----------------------------------
    let db = university::populate(university::Size::medium(), 5);
    let reg = SubdbRegistry::new();
    let oql = Oql::new();

    // `Course ^*`: iterate the Prereq cycle until Null — the paper's
    // looping formulation of transitive closure.
    let out = oql.query(&db, &reg, "context Course ^*").expect("closure query");
    let sd = &out.subdb;
    println!("== Course prerequisite closure (`context Course ^*`) ==");
    println!(
        "runtime intension: {} (depth determined by the data, paper §5.2)",
        sd.intension
    );
    let longest = sd
        .patterns()
        .map(|p| p.arity())
        .max()
        .unwrap_or(0);
    println!("chains: {}, longest chain: {} courses\n", sd.len(), longest);

    // Bounded iteration: `^2` visits at most two prerequisite levels.
    let out2 = oql.query(&db, &reg, "context Course ^2").expect("bounded closure");
    println!(
        "`context Course ^2` limits the intension to {} levels.\n",
        out2.subdb.intension.width()
    );

    // --- CAD part explosion -------------------------------------------
    let shape = cad::BomShape { depth: 6, fanout: 3, roots: 3, share_per_mille: 150 };
    let (bom, roots) = cad::build_bom(shape, 11);
    let part = bom.schema().class_by_name("Part").unwrap();
    println!("== CAD bill of materials ==");
    println!(
        "{} parts, {} component links, {} root assemblies",
        bom.extent_size(part),
        bom.link_count(bom.schema().own_link_by_name(part, "Component").unwrap()),
        roots.len()
    );

    let out = oql.query(&bom, &reg, "context Part ^*").expect("part explosion");
    let chains = &out.subdb;
    let mut pairs: std::collections::BTreeSet<(u64, u64)> = Default::default();
    for p in chains.patterns() {
        let chain: Vec<_> = p.components().iter().flatten().copied().collect();
        for i in 0..chain.len() {
            for j in i + 1..chain.len() {
                pairs.insert((chain[i].raw(), chain[j].raw()));
            }
        }
    }
    println!(
        "part explosion: {} maximal chains, {} (assembly, subpart) reachability pairs",
        chains.len(),
        pairs.len()
    );

    // --- The Datalog baseline computes the same reachability -----------
    let mut t = datalog::translate(&bom);
    let comp = bom.schema().own_link_by_name(part, "Component").unwrap();
    let comp_pred = datalog::translate::assoc_pred(&mut t, &bom, comp);
    let reach = t.program.pred("reach");
    t.program.rule(
        Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
        vec![Atom::new(comp_pred, vec![datalog::v(0), datalog::v(1)])],
    );
    t.program.rule(
        Atom::new(reach, vec![datalog::v(0), datalog::v(2)]),
        vec![
            Atom::new(reach, vec![datalog::v(0), datalog::v(1)]),
            Atom::new(comp_pred, vec![datalog::v(1), datalog::v(2)]),
        ],
    );
    let (fixpoint, stats) = datalog::seminaive(&t.program, &t.edb);
    println!(
        "datalog baseline: {} reach facts in {} semi-naive iterations",
        fixpoint.count(reach),
        stats.iterations
    );
    assert_eq!(fixpoint.count(reach), pairs.len(), "both engines must agree");
    println!("both engines agree on the reachability set.");
}
