//! E19 — abstract interpretation (DESIGN.md §12): analysis throughput of
//! `rules::absint`, and the cold-start plan-quality experiment — with the stats registry empty,
//! do static priors recover the warmed-stats join order?
//!
//! Plan quality is measured **deterministically** in the warmed cost
//! model, not in wall-clock: for each shape we warm the EWMA registry by
//! executing the context, freeze the warmed `CompiledContext` W, then
//! replan cold (schema fallbacks) and cold+priors (`install_priors`), and
//! recost each candidate's spans under W's inputs
//! (`CompiledContext::recost_span`). `ratio = cost(candidate) /
//! cost(warmed)`; the warmed plan is the optimum of its own model, so
//! every ratio is ≥ 1.
//!
//! Verdicts:
//!
//! * **absint throughput** — `analyze_bounds` on the 200-rule chain must
//!   stay within `NS_PER_RULE_BUDGET` per rule (the base analyzer ran at
//!   ~2 µs/rule when E14 last measured it);
//! * **cold-start plan quality** — static-prior plans within 1.2× the
//!   warmed plan cost on the e1/e6/e7 shapes.
//!
//! Prints `PASS`/`WARN`; exits nonzero on a miss only under
//! `DOOD_BENCH_STRICT=1` (`scripts/ci.sh` runs the smoke always and the
//! strict full run under `DOOD_E19_FULL=1`).

use dood_bench::harness::{fmt_ns, strict, Harness};
use dood_core::fxhash::FxHashSet;
use dood_core::obs::stats;
use dood_core::subdb::SubdbRegistry;
use dood_oql::parser::Parser;
use dood_oql::plan::CompiledContext;
use dood_oql::resolve::resolve_context;
use dood_oql::Evaluator;
use dood_rules::absint::{analyze_bounds, CardEnv};
use dood_rules::install_priors;
use dood_rules::program::Program;
use dood_store::Database;
use dood_workload::{programs, university};

/// Per-rule analysis budget for `analyze_bounds` on the 200-rule chain.
/// The base analyzer ran at ~2 µs/rule (E14); the abstract interpreter
/// re-walks every context with interval arithmetic on top, so it gets
/// twice that.
const NS_PER_RULE_BUDGET: f64 = 4_000.0;

/// Allowed static-prior overhead over the warmed-stats plan cost.
const PLAN_BUDGET: f64 = 1.2;

/// Population scale for the plan-quality experiment (large enough that
/// every scan clears the registry's minimum-sample threshold).
const FACTOR: usize = 4;

/// The plan-quality shapes: the e1/e6/e7 trio (gated), plus a skewed chain
/// and a social follow-hop (reported).
const SHAPES: &[(&str, &str, &str, bool)] = &[
    ("e1", "university", "Teacher * Section * Course", true),
    ("e6", "university", "{Teacher * Section} * Course", true),
    ("e7", "university", "Department * Course * Section * Student", true),
    ("skew", "university", "Student * Section * Course * Department [name = 'CIS']", false),
    ("social", "social", "Person * Person [score >= 50]", false),
];

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

/// One shape's cold-start result: cost ratios over the warmed optimum.
struct Quality {
    name: &'static str,
    gated: bool,
    prior: f64,
    bare: f64,
}

/// Replan `resolved` under the current stats-registry state and return
/// the compiled plan.
fn plan_under(
    db: &Database,
    resolved: &dood_oql::resolve::ResolvedContext,
    reg: &SubdbRegistry,
) -> std::sync::Arc<CompiledContext> {
    Evaluator::new(resolved, db, reg).unwrap().plan_handle()
}

/// Run the cold-start experiment for one shape.
fn quality_of(
    name: &'static str,
    gated: bool,
    db: &Database,
    query: &str,
    prior_program: &Program,
) -> Quality {
    let reg = SubdbRegistry::new();
    let expr = Parser::parse_context_expr(query).unwrap();
    let resolved = resolve_context(&expr, db.schema(), &reg).unwrap();

    // Warm the registry by executing the shape, then freeze the warmed
    // plan — the optimum of the warmed cost model.
    stats::clear();
    {
        let ev = Evaluator::new(&resolved, db, &reg).unwrap();
        for _ in 0..3 {
            ev.eval("x");
        }
    }
    let warm = plan_under(db, &resolved, &reg);
    let warm_cost: f64 = warm.spans.iter().map(|s| s.est_cost).sum();
    let recost = |p: &CompiledContext| p.spans.iter().map(|s| warm.recost_span(s)).sum::<f64>();

    // Cold, schema fallbacks only.
    stats::clear();
    let bare = plan_under(db, &resolved, &reg);
    // Cold + static priors from the abstract interpreter.
    install_priors(prior_program, db.schema());
    let prior = plan_under(db, &resolved, &reg);
    stats::clear();

    Quality {
        name,
        gated,
        prior: recost(&prior) / warm_cost.max(1e-9),
        bare: recost(&bare) / warm_cost.max(1e-9),
    }
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
    // Prior installation is on the register hot path; track it too.
    {
        let (prog, _) = Program::parse(programs::UNIVERSITY);
        h.bench("install_priors/university", || {
            install_priors(&prog, &schema);
            stats::clear();
        });
    }

    // Cold-start plan quality (deterministic: cost-model ratios).
    let uni = university::populate(university::Size::scaled(FACTOR), 42);
    let social = programs::builtin_database("social", 42).expect("social population");
    let mut quality = Vec::new();
    for &(name, which, query, gated) in SHAPES {
        let db = if which == "social" { &social } else { &uni };
        // The prior source: the shape as a one-rule program (targets are
        // irrelevant to `install_priors`; only occurrence predicates and
        // the schema's association cardinalities matter).
        let first = query.split(['*', '{', ' ']).find(|w| !w.is_empty()).unwrap();
        let text = format!("rule R:\n  if context {query}\n  then T ({first})\n");
        let (prog, diags) = Program::parse(&text);
        assert!(diags.is_empty(), "{name}: {diags:?}");
        quality.push(quality_of(name, gated, db, query, &prog));
    }

    check_verdicts(&h, &quality);
}

/// Print the throughput and plan-quality verdicts.
fn check_verdicts(h: &Harness, quality: &[Quality]) {
    let mut strict_fail = false;

    // Plan quality is cost-model arithmetic — meaningful even in smoke.
    let mut gated_ok = 0usize;
    let mut gated_n = 0usize;
    for q in quality {
        println!(
            "# e19 {}: static-prior {:.2}x, bare-cold {:.2}x of warmed plan cost",
            q.name, q.prior, q.bare
        );
        if q.gated {
            gated_n += 1;
            if q.prior <= PLAN_BUDGET {
                gated_ok += 1;
            }
        }
    }
    let verdict = if gated_ok == gated_n { "PASS" } else { "WARN" };
    println!(
        "# e19 cold-start plan quality: {verdict} — {gated_ok}/{gated_n} gated shapes ≤ {PLAN_BUDGET:.1}x warmed"
    );
    strict_fail |= verdict == "WARN";

    if h.smoke() {
        println!("# e19 throughput verdict skipped (smoke mode: timings are not meaningful)");
    } else {
        match h.median_ns("chain/200rules") {
            Some(total) => {
                let per_rule = total / 200.0;
                let verdict = if per_rule <= NS_PER_RULE_BUDGET { "PASS" } else { "WARN" };
                println!(
                    "# e19 absint throughput: {verdict} — {} per rule on chain/200 (budget {})",
                    fmt_ns(per_rule),
                    fmt_ns(NS_PER_RULE_BUDGET)
                );
                strict_fail |= verdict == "WARN";
            }
            None => println!("# e19 throughput check skipped (chain/200rules filtered out)"),
        }
    }

    if strict_fail && strict() {
        eprintln!("# e19: verdict missed under DOOD_BENCH_STRICT=1");
        std::process::exit(1);
    }
}
