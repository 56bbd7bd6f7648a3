//! Ablation of a DESIGN.md marked (✦) design decision: **E10** — ordered
//! attribute indexes vs full extent scans for intra-class conditions.
//!
//! ```sh
//! cargo run --release -p dood-bench --bin ablations
//! ```

use dood_bench::time_us;
use dood_core::subdb::SubdbRegistry;
use dood_workload::university;

fn main() {
    println!("# dood ablation report\n");

    // ------------------------------------------------------------------
    // E10 — attribute indexes for intra-class conditions.
    // ------------------------------------------------------------------
    println!("## E10 — ordered attribute index vs full extent scan\n");
    println!("| scale | hits | scan (us) | indexed (us) | speedup |");
    println!("|---|---|---|---|---|");
    for factor in [1usize, 2, 4] {
        let mut db = university::populate(university::Size::scaled(factor), 13);
        let reg = SubdbRegistry::new();
        let oql = dood_oql::Oql::new();
        // Selective predicate: one course-number bucket.
        let q = "context Section * Course [c# >= 6000] select title";
        let n = oql.query(&db, &reg, q).unwrap().subdb.len();
        let t_scan = time_us(5, || oql.query(&db, &reg, q).unwrap().subdb.len());
        let course = db.schema().class_by_name("Course").unwrap();
        db.create_attr_index(course, "c#").unwrap();
        let n_ix = oql.query(&db, &reg, q).unwrap().subdb.len();
        assert_eq!(n, n_ix, "index must not change results");
        let t_ix = time_us(5, || oql.query(&db, &reg, q).unwrap().subdb.len());
        println!("| {factor} | {n} | {t_scan:.0} | {t_ix:.0} | {:.2}x |", t_scan / t_ix);
    }

    println!("\nDone.");
}
