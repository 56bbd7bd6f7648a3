//! Ablations of DESIGN.md's marked (✦) design decisions:
//!
//! * **E10** — ordered attribute indexes vs full extent scans for
//!   intra-class conditions;
//! * **E13** — the parallel span join's sequential-fallback cutoff
//!   (`ChunkPool::cutoff`): sweep the anchor-candidate threshold below
//!   which evaluation stays inline.
//!
//! ```sh
//! cargo run --release -p dood-bench --bin ablations
//! ```

use dood_bench::time_us;
use dood_core::pool::ChunkPool;
use dood_core::subdb::SubdbRegistry;
use dood_oql::parser::Parser;
use dood_oql::resolve::resolve_context;
use dood_oql::Evaluator;
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

    // ------------------------------------------------------------------
    // E13 — chunk-size cutoff for the parallel span join. A 4-thread pool
    // is forced so the cutoff (not the machine's core count) decides
    // whether the chunked path engages; `seq` rows pin the single-thread
    // baseline the cutoff falls back to.
    // ------------------------------------------------------------------
    println!("\n## E13 — parallel span-join cutoff sweep (4-thread pool)\n");
    println!("| scale | candidates | cutoff | query (us) | vs seq |");
    println!("|---|---|---|---|---|");
    for factor in [4usize, 16] {
        let db = university::populate(university::Size::scaled(factor), 13);
        let reg = SubdbRegistry::new();
        let expr = Parser::parse_context_expr("Teacher * Section * Course").unwrap();
        let resolved = resolve_context(&expr, db.schema(), &reg).unwrap();
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let candidates = db.extent_size(teacher);
        let run = |pool: ChunkPool| {
            Evaluator::new(&resolved, &db, &reg).unwrap().with_pool(pool).eval("x").len()
        };
        let n_seq = run(ChunkPool::with_threads(1));
        let t_seq = time_us(5, || run(ChunkPool::with_threads(1)));
        println!("| {factor} | {candidates} | seq | {t_seq:.0} | 1.00x |");
        for cutoff in [0usize, 64, 256, 1024, 4096] {
            let pool = ChunkPool::with_threads(4).cutoff(cutoff);
            assert_eq!(run(pool), n_seq, "cutoff must not change results");
            let t = time_us(5, || run(pool));
            println!("| {factor} | {candidates} | {cutoff} | {t:.0} | {:.2}x |", t_seq / t);
        }
    }

    println!("\nDone.");
}
