//! The evaluation report: one table per paper-claim experiment (E1–E8 of
//! DESIGN.md), printed in the form recorded in EXPERIMENTS.md Part 2 — the
//! one regenerator of those tables.
//!
//! ```sh
//! cargo run --release -p dood-bench --bin report
//! ```
//!
//! It takes a few quick wall-clock medians per cell so the whole suite
//! finishes in seconds and the *shape* of every result is visible at a
//! glance; what a query costs end to end and per layer is `benchmark/`'s
//! question, not this binary's.

use dood_bench::*;
use dood_rules::{ControlMode, EvalPolicy};
use dood_workload::university;

fn header(title: &str) {
    println!("\n## {title}\n");
}

fn main() {
    println!("# dood evaluation report");
    println!("(median of 5 runs per cell; debug/release per build profile)");

    // ---------------- E1 ----------------
    header("E1 — association operator vs Datalog join (Teacher * Section * Course)");
    println!("| scale | objects | patterns | dood (us) | datalog (us) | ratio |");
    println!("|---|---|---|---|---|---|");
    for factor in [1usize, 2, 4] {
        let f = assoc_fixture(factor);
        let n = assoc_dood(&f);
        assert_eq!(n, assoc_datalog(&f));
        let td = time_us(5, || assoc_dood(&f));
        let tl = time_us(5, || assoc_datalog(&f));
        println!(
            "| {factor} | {} | {n} | {td:.0} | {tl:.0} | {:.1}x |",
            f.db.object_count(),
            tl / td
        );
    }

    // ---------------- E2 ----------------
    header("E2 — transitive closure: looping (^*) vs recursive Datalog");
    println!("| shape | parts | chains | reach pairs | dood (us) | datalog (us) | ratio |");
    println!("|---|---|---|---|---|---|---|");
    for (depth, fanout) in [(4usize, 2usize), (8, 2), (12, 2), (6, 3)] {
        let f = closure_fixture(depth, fanout);
        let part = f.db.schema().class_by_name("Part").unwrap();
        let chains = closure_dood(&f);
        let pairs = closure_datalog(&f);
        let td = time_us(5, || closure_dood(&f));
        let tl = time_us(5, || closure_datalog(&f));
        println!(
            "| d{depth} f{fanout} | {} | {chains} | {pairs} | {td:.0} | {tl:.0} | {:.1}x |",
            f.db.extent_size(part),
            tl / td
        );
    }

    // ---------------- E3 ----------------
    header("E3 — chaining strategy vs workload mix (pipeline REa→REd)");
    println!("| workload | post-eval (us) | pre-eval (us) | winner |");
    println!("|---|---|---|---|");
    for (label, updates, queries) in
        [("query-heavy (1u/20q)", 1usize, 20usize), ("update-heavy (20u/1q)", 20, 1), ("mixed (10u/10q)", 10, 10)]
    {
        let t_post = time_us(5, || {
            let mut e = pipeline_engine(100, 3);
            chaining_workload(&mut e, EvalPolicy::PostEvaluated, updates, queries)
        });
        let t_pre = time_us(5, || {
            let mut e = pipeline_engine(100, 3);
            chaining_workload(&mut e, EvalPolicy::PreEvaluated, updates, queries)
        });
        let winner = if t_pre < t_post { "pre" } else { "post" };
        println!("| {label} | {t_post:.0} | {t_pre:.0} | {winner} |");
    }

    // ---------------- E4 ----------------
    header("E4 — control strategies: staleness and cost per update round");
    println!("| strategy | round (us) | REc/REd consistent after update? |");
    println!("|---|---|---|");
    {
        let t = time_us(5, || {
            let mut e = pipeline_engine(100, 4);
            e.set_mode(ControlMode::ResultOriented);
            for s in ["REa", "REb", "REc", "REd"] {
                e.set_policy(s, EvalPolicy::PreEvaluated);
            }
            e.query("context REd:Department").unwrap();
            pipeline_update(&mut e, 1);
            e.propagate().unwrap();
            e.is_consistent("REd").unwrap() && e.is_consistent("REc").unwrap()
        });
        let mut e = pipeline_engine(100, 4);
        e.set_mode(ControlMode::ResultOriented);
        for s in ["REa", "REb", "REc", "REd"] {
            e.set_policy(s, EvalPolicy::PreEvaluated);
        }
        e.query("context REd:Department").unwrap();
        pipeline_update(&mut e, 1);
        e.propagate().unwrap();
        let ok = e.is_consistent("REd").unwrap() && e.is_consistent("REc").unwrap();
        println!("| result-oriented (all pre) | {t:.0} | {ok} |");
    }
    {
        let t = time_us(5, || {
            let mut e = pipeline_engine(100, 4);
            e.query("context REd:Department").unwrap();
            rule_oriented_round(&mut e, 1)
        });
        let mut e = pipeline_engine(100, 4);
        e.query("context REd:Department").unwrap();
        let ok = rule_oriented_round(&mut e, 1);
        println!("| rule-oriented (POSTGRES mix) | {t:.0} | {ok} |");
    }

    // ---------------- E5 ----------------
    header("E5 — inheritance-path resolution across generalization depth");
    println!("| depth | patterns | query (us) |");
    println!("|---|---|---|");
    for depth in [2usize, 8, 16, 32] {
        let db = inherit_fixture(depth, 500);
        let n = inherit_query(&db, depth);
        let t = time_us(5, || inherit_query(&db, depth));
        println!("| {depth} | {n} | {t:.0} |");
    }

    // ---------------- E6 ----------------
    header("E6 — brace (outer-pattern) overhead vs plain association");
    println!("| scale | plain patterns | braced patterns | plain (us) | braced (us) | overhead |");
    println!("|---|---|---|---|---|---|");
    for factor in [1usize, 2, 4] {
        let db = university::populate(university::Size::scaled(factor), 6);
        let reg = dood_core::subdb::SubdbRegistry::new();
        let oql = dood_oql::Oql::new();
        let (plain_n, braced_n) = braces_pair(&db);
        let tp = time_us(5, || {
            oql.query(&db, &reg, "context Teacher * Section * Course").unwrap().subdb.len()
        });
        let tb = time_us(5, || {
            oql.query(&db, &reg, "context {Teacher * Section} * Course").unwrap().subdb.len()
        });
        println!(
            "| {factor} | {plain_n} | {braced_n} | {tp:.0} | {tb:.0} | {:.2}x |",
            tb / tp
        );
    }

    // ---------------- E7 ----------------
    header("E7 — grouped aggregation (COUNT … BY …, rule R2)");
    println!("| scale | qualifying patterns | query (us) |");
    println!("|---|---|---|");
    for factor in [1usize, 2, 4] {
        let db = university::populate(university::Size::scaled(factor), 8);
        let n = aggregate_query(&db, 10);
        let t = time_us(5, || aggregate_query(&db, 10));
        println!("| {factor} | {n} | {t:.0} |");
    }

    // ---------------- E8 ----------------
    header("E8 — Datalog baseline: naive vs semi-naive fixpoints");
    println!("| chain length | facts | naive (us) | semi-naive (us) | speedup |");
    println!("|---|---|---|---|---|");
    for n in [16u64, 32, 64] {
        let (p, edb) = tc_program_and_edb(n);
        let facts = dood_datalog::naive(&p, &edb).0.total();
        let tn = time_us(5, || dood_datalog::naive(&p, &edb).0.total());
        let ts = time_us(5, || dood_datalog::seminaive(&p, &edb).0.total());
        println!("| {n} | {facts} | {tn:.0} | {ts:.0} | {:.1}x |", tn / ts);
    }

    println!("\nDone.");
}
