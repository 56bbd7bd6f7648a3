//! E19 — abstract interpretation (DESIGN.md §12): throughput of
//! `analyze_bounds` — the analyzer's walk plus the numeric bounds, the
//! on-demand path behind `doodlint --absint` and `doodprof --plan` — over
//! the builtin corpus and synthetic rule chains.
//!
//! Verdict: `analyze_bounds` on the 200-rule chain must stay within
//! `NS_PER_RULE_BUDGET` per rule (the base analyzer ran at ~2 µs/rule when
//! E14 last measured it).
//!
//! Prints `PASS`/`WARN`; exits nonzero on a miss only under
//! `DOOD_BENCH_STRICT=1` (`scripts/ci.sh` runs the smoke always and the
//! strict full run under `DOOD_E19_FULL=1`).

use dood_bench::harness::{fmt_ns, strict, Harness};
use dood_core::fxhash::FxHashSet;
use dood_rules::absint::{analyze_bounds, CardEnv};
use dood_rules::program::Program;
use dood_workload::{programs, university};

/// Per-rule analysis budget for `analyze_bounds` on the 200-rule chain.
/// The base analyzer ran at ~2 µs/rule (E14); `analyze_bounds` runs that
/// walk and then bounds every context it resolved, so it gets twice that.
const NS_PER_RULE_BUDGET: f64 = 4_000.0;

/// A synthetic chain program: `C0` reads base
/// classes, each `Ci` reads `Ci-1`.
fn chain_program(n: usize) -> Program {
    let mut src = String::new();
    src.push_str("rule C0:\n  if context Teacher * Section then S0 (Teacher, Section)\n");
    for i in 1..n {
        src.push_str(&format!(
            "rule C{i}:\n  if context S{}:Teacher * S{}:Section then S{i} (Teacher, Section)\n",
            i - 1,
            i - 1
        ));
    }
    src.push_str(&format!("export S{}\n", n - 1));
    let (prog, diags) = Program::parse(&src);
    assert!(diags.is_empty(), "{diags:?}");
    prog
}

fn main() {
    let mut h = Harness::new("e19_absint");
    let none = FxHashSet::default();
    let env = CardEnv::unknown();

    // Analysis throughput: the builtin corpus and synthetic chains.
    for (name, text) in programs::all() {
        let schema = programs::builtin_schema(name).expect("builtin");
        let (prog, diags) = Program::parse(text);
        assert!(diags.is_empty());
        h.bench(&format!("analyze/{name}"), || {
            let a = analyze_bounds(&prog, &schema, &none, &env);
            assert!(a.diags.is_empty(), "{:?}", a.diags);
            a.rules.len()
        });
    }
    let schema = university::schema();
    for n in [10usize, 50, 200] {
        let prog = chain_program(n);
        h.bench(&format!("chain/{n}rules"), || {
            let a = analyze_bounds(&prog, &schema, &none, &env);
            assert!(a.diags.is_empty(), "{:?}", a.diags);
            a.rules.len()
        });
    }
    check_verdict(&h);
}

/// Print the throughput verdict.
fn check_verdict(h: &Harness) {
    if h.smoke() {
        println!("# e19 throughput verdict skipped (smoke mode: timings are not meaningful)");
        return;
    }
    let Some(total) = h.median_ns("chain/200rules") else {
        println!("# e19 throughput check skipped (chain/200rules filtered out)");
        return;
    };
    let per_rule = total / 200.0;
    let verdict = if per_rule <= NS_PER_RULE_BUDGET { "PASS" } else { "WARN" };
    println!(
        "# e19 absint throughput: {verdict} — {} per rule on chain/200 (budget {})",
        fmt_ns(per_rule),
        fmt_ns(NS_PER_RULE_BUDGET)
    );
    if verdict == "WARN" && strict() {
        eprintln!("# e19: verdict missed under DOOD_BENCH_STRICT=1");
        std::process::exit(1);
    }
}
