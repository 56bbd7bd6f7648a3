//! `doodprof` — EXPLAIN ANALYZE for `.dood` rule programs.
//!
//! ```text
//! doodprof [--builtin NAME | FILE.dood] [--seed N] [--metrics] [--json]
//!          [--plan] [--trace-out FILE] [--validate FILE]
//! ```
//!
//! Loads a rule program (a file, or a built-in workload program by name),
//! populates its builtin schema with a small seeded instance set, registers
//! the rules, then derives every `export` and runs every `query` under span
//! capture — printing one profile tree per derivation and query: per-operator
//! wall times, join input/output cardinalities, predicate selectivities,
//! subsumption-elimination counts, per-rule context/target sizes.
//!
//! * `--seed N` — population seed (default 42); profiles are deterministic
//!   per seed (wall times vary, cardinalities do not).
//! * `--metrics` — also enable the metrics registry and dump it (plus event
//!   log subscriber stats) after the run.
//! * `--json` — machine-readable output: one JSON object per profile (and
//!   per metric, under `--metrics`; per plan, under `--plan`).
//! * `--plan` — also print each compiled join pipeline (DESIGN.md §10):
//!   one block per executed `oql.join` span, with the planner's estimated
//!   cardinality next to the measured scanned/kept counts per stage, so
//!   misestimates are visible at a glance. Each executed closure
//!   (DESIGN.md §11) gets one line: its roots and the nodes expanded.
//! * `--trace-out FILE` — additionally stream every closed span to `FILE`
//!   as JSON lines (same format as `DOOD_TRACE=1`).
//! * `--flight` — keep the in-memory flight recorder populated during the
//!   run and print its merged ring (JSON lines plus a summary) afterwards
//!   (DESIGN.md §13). With `--validate`, switch to flight-tolerant
//!   validation instead (a bounded ring legally truncates forests).
//! * `--slowlog FILE` — don't profile; render a `DOOD_SLOWLOG_FILE`
//!   JSON-lines slow-query log as human-readable per-query reports.
//! * `--validate FILE` — don't profile; check that `FILE` is a well-formed
//!   JSON-lines trace (parseable, unique ids, children close before and
//!   nest inside their parents) and print its stats.

use dood::core::diag;
use dood::core::obs;
use dood::core::obs::profile::Profile;
use dood::rules::absint::{self, Analysis};
use dood::rules::program::{Program, SchemaRef};
use dood::rules::RuleEngine;
use dood::store::Database;
use dood::workload::programs;
use std::process::ExitCode;

const USAGE: &str = "usage: doodprof [--builtin NAME | FILE.dood] [--seed N] [--metrics] [--json] [--plan] [--trace-out FILE] [--flight] [--slowlog FILE] [--validate FILE]
  --builtin NAME    profile a built-in workload program
                    (university | company | cad | social)
  --seed N          population seed (default 42)
  --metrics         enable and dump the metrics registry after the run
  --json            machine-readable output (one JSON object per line)
  --plan            also print each compiled join pipeline with estimated
                    vs. measured cardinalities per stage, and each closure
                    with its roots and expanded nodes
  --trace-out FILE  also stream spans to FILE as JSON lines
  --flight          keep the flight recorder on and dump its ring after the
                    run; with --validate, use flight-tolerant validation
  --slowlog FILE    render a JSON-lines slow-query log as text and exit
  --validate FILE   validate a JSON-lines trace export and exit";

fn main() -> ExitCode {
    let mut file: Option<String> = None;
    let mut builtin: Option<String> = None;
    let mut seed: u64 = 42;
    let mut metrics = false;
    let mut json = false;
    let mut plan = false;
    let mut trace_out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut flight = false;
    let mut slowlog: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--builtin" => match args.next() {
                Some(n) => builtin = Some(n),
                None => return usage_err("`--builtin` needs a name"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => seed = n,
                None => return usage_err("`--seed` needs an integer"),
            },
            "--metrics" => metrics = true,
            "--json" => json = true,
            "--plan" => plan = true,
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p),
                None => return usage_err("`--trace-out` needs a path"),
            },
            "--validate" => match args.next() {
                Some(p) => validate = Some(p),
                None => return usage_err("`--validate` needs a path"),
            },
            "--flight" => flight = true,
            "--slowlog" => match args.next() {
                Some(p) => slowlog = Some(p),
                None => return usage_err("`--slowlog` needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_err(&format!("unknown flag `{other}`"));
            }
            f => {
                if file.replace(f.to_string()).is_some() {
                    return usage_err("at most one FILE.dood");
                }
            }
        }
    }

    if let Some(path) = validate {
        return run_validate(&path, flight);
    }
    if let Some(path) = slowlog {
        return run_slowlog(&path, json);
    }

    let (name, src) = match (&builtin, &file) {
        (Some(n), None) => {
            match programs::all().into_iter().find(|(pn, _)| pn == n) {
                Some((pn, text)) => (format!("builtin:{pn}"), text.to_string()),
                None => return usage_err(&format!("unknown builtin program `{n}`")),
            }
        }
        (None, Some(f)) => match std::fs::read_to_string(f) {
            Ok(text) => (f.clone(), text),
            Err(e) => {
                eprintln!("doodprof: {f}: {e}");
                return ExitCode::from(2);
            }
        },
        _ => return usage_err("need exactly one of --builtin NAME or FILE.dood"),
    };

    let (program, diags) = Program::parse(&src);
    if diag::has_errors(&diags) {
        eprintln!("{}", diag::render_all(&diags, &name, &src));
        return ExitCode::FAILURE;
    }
    let db = match load_database(&program, &builtin, seed) {
        Ok(db) => db,
        Err(msg) => {
            eprintln!("doodprof: {name}: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if metrics {
        obs::set_metrics_enabled(true);
    }
    if flight {
        obs::recorder::set_enabled(true);
    }
    if let Some(path) = &trace_out {
        if let Err(e) = obs::trace::stream_to_path(path) {
            eprintln!("doodprof: {path}: {e}");
            return ExitCode::from(2);
        }
    }

    let mut engine = RuleEngine::new(db);
    match engine.register(&program) {
        Ok(ds) => {
            if !ds.is_empty() {
                eprintln!("{}", diag::render_all(&ds, &name, &src));
            }
        }
        Err(e) => {
            eprintln!("doodprof: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // `--plan` adds a static column: the abstract interpreter's worst-case
    // row bounds over a snapshot of the loaded extents, matched to each
    // join's slot span so static / estimated / measured line up per stage.
    let analysis = plan.then(|| {
        let mut ext: dood::core::fxhash::FxHashSet<String> = Default::default();
        ext.extend(program.externs.iter().cloned());
        absint::analyze_bounds(
            &program,
            engine.db().schema(),
            &ext,
            &absint::CardEnv::from_db(engine.db()),
        )
    });

    let mut failed = false;
    for (export, _) in &program.exports {
        let (rows, spans) = obs::trace::capture(|| engine.subdb(export).map(|sd| sd.len()));
        match rows {
            Ok(rows) => {
                let profile = Profile::single(&spans);
                emit("export", export, rows, &profile, json);
                if plan {
                    emit_plans("export", export, &profile, json, analysis.as_ref());
                }
            }
            Err(e) => {
                eprintln!("doodprof: export {export}: {e}");
                failed = true;
            }
        }
    }
    for pq in &program.queries {
        match engine.run_query_profiled(&pq.query) {
            Ok((out, profile)) => {
                emit("query", &pq.name, out.table.len(), &profile, json);
                if plan {
                    emit_plans("query", &pq.name, &profile, json, analysis.as_ref());
                }
            }
            Err(e) => {
                eprintln!("doodprof: query {}: {e}", pq.name);
                failed = true;
            }
        }
    }

    if metrics {
        dump_metrics(&engine, json);
    }
    if flight {
        dump_flight(json);
    }
    obs::trace::flush_stream();
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("doodprof: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Print one profiled section: a header + tree in text mode, one JSON
/// object in `--json` mode.
fn emit(kind: &str, name: &str, rows: usize, profile: &Profile, json: bool) {
    if json {
        println!(
            "{{\"kind\":\"{kind}\",\"name\":\"{}\",\"rows\":{rows},\"profile\":{}}}",
            obs::json_escape(name),
            profile.to_json()
        );
    } else {
        println!("== {kind} {name} ==  rows={rows}");
        print!("{}", profile.render());
        println!();
    }
}

/// `--plan`: extract every compiled join pipeline from a profile tree —
/// the `oql.join` nodes carrying `oql.plan.scan` / `oql.plan.step`
/// children — plus every closure (`oql.closure`, its roots and expanded
/// nodes), and print static (abstract interpretation) vs. estimated (cost
/// model) vs. measured cardinalities per stage.
fn emit_plans(kind: &str, name: &str, profile: &Profile, json: bool, analysis: Option<&Analysis>) {
    // Each join is attributed to the nearest enclosing `rules.rule` span's
    // label (the rule name) so its slot indices can be matched against the
    // abstract interpreter's bounds; joins outside any rule span (query
    // contexts) belong to the profiled section itself.
    fn collect<'a>(
        p: &'a Profile,
        owner: &'a str,
        out: &mut Vec<(&'a Profile, &'a str)>,
        closures: &mut Vec<&'a Profile>,
    ) {
        let owner = if p.name == "rules.rule" {
            p.label.as_deref().unwrap_or(owner)
        } else {
            owner
        };
        if p.name == "oql.join" && p.children.iter().any(|c| c.name.starts_with("oql.plan.")) {
            out.push((p, owner));
        }
        if p.name == "oql.closure" {
            closures.push(p);
        }
        for c in &p.children {
            collect(c, owner, out, closures);
        }
    }
    let mut joins = Vec::new();
    let mut closures = Vec::new();
    collect(profile, name, &mut joins, &mut closures);
    for (ji, (j, owner)) in joins.iter().enumerate() {
        let a = |k: &str| j.attr(k).unwrap_or(-1);
        let bounds = analysis.and_then(|an| an.bounds_for(owner));
        // The static bound after each stage: the bound of the contiguous
        // slot range the pipeline has covered so far.
        let mut cur: Option<(usize, usize)> = None;
        let mut static_of = |slot: i64| -> Option<f64> {
            let b = bounds?;
            let s = usize::try_from(slot).ok()?;
            if s >= b.slot_hi.len() {
                return None;
            }
            let (lo, hi) = match cur {
                None => (s, s + 1),
                Some((lo, hi)) => (lo.min(s), hi.max(s + 1)),
            };
            cur = Some((lo, hi));
            Some(b.range_hi(lo, hi))
        };
        if json {
            let mut stages = String::new();
            for (si, c) in
                j.children.iter().filter(|c| c.name.starts_with("oql.plan.")).enumerate()
            {
                if si > 0 {
                    stages.push(',');
                }
                let op = c.name.strip_prefix("oql.plan.").unwrap_or(&c.name);
                stages.push_str(&format!(
                    "{{\"op\":\"{}\",\"label\":\"{}\",\"slot\":{},\"est\":{},\"rows\":{}",
                    obs::json_escape(op),
                    obs::json_escape(c.label.as_deref().unwrap_or("")),
                    c.attr("slot").unwrap_or(-1),
                    c.attr("est").unwrap_or(-1),
                    c.attr("rows").unwrap_or(-1),
                ));
                if let Some(s) = c.attr("scanned") {
                    stages.push_str(&format!(",\"scanned\":{s}"));
                }
                if let Some(st) = c.attr("slot").and_then(&mut static_of) {
                    if st.is_finite() {
                        stages.push_str(&format!(",\"static\":{}", st.round() as i64));
                    }
                }
                stages.push('}');
            }
            println!(
                "{{\"kind\":\"plan\",\"of\":\"{kind}\",\"name\":\"{}\",\"owner\":\"{}\",\
                 \"join\":{ji},\"lo\":{},\"hi\":{},\"anchor\":{},\"rows_in\":{},\
                 \"rows_out\":{},\"stages\":[{stages}]}}",
                obs::json_escape(name),
                obs::json_escape(owner),
                a("lo"),
                a("hi"),
                a("anchor"),
                a("rows_in"),
                a("rows_out"),
            );
        } else {
            println!(
                "-- plan {kind} {name} join#{ji}: span [{},{}) anchor=slot{} rows {} -> {}",
                a("lo"),
                a("hi"),
                a("anchor"),
                a("rows_in"),
                a("rows_out"),
            );
            for c in j.children.iter().filter(|c| c.name.starts_with("oql.plan.")) {
                let label = c.label.as_deref().unwrap_or("?");
                let stat = c
                    .attr("slot")
                    .and_then(&mut static_of)
                    .map(|s| format!(" static<={}", absint::show_bound(s)))
                    .unwrap_or_default();
                match c.name.as_str() {
                    "oql.plan.scan" => println!(
                        "   scan {label} {stat} est={} rows={}",
                        c.attr("est").unwrap_or(-1),
                        c.attr("rows").unwrap_or(-1),
                    ),
                    _ => println!(
                        "   step {label} {stat} est={} scanned={} rows={}",
                        c.attr("est").unwrap_or(-1),
                        c.attr("scanned").unwrap_or(-1),
                        c.attr("rows").unwrap_or(-1),
                    ),
                }
            }
            println!();
        }
    }
    for (ci, cl) in closures.iter().enumerate() {
        let (roots, steps) = (cl.attr("roots").unwrap_or(-1), cl.attr("steps").unwrap_or(-1));
        if json {
            println!(
                "{{\"kind\":\"closure\",\"of\":\"{kind}\",\"name\":\"{}\",\"closure\":{ci},\
                 \"roots\":{roots},\"steps\":{steps}}}",
                obs::json_escape(name),
            );
        } else {
            println!("-- closure {kind} {name} #{ci}: roots={roots} steps={steps}");
            println!();
        }
    }
}

/// Build the instance database the program runs against.
fn load_database(
    program: &Program,
    builtin: &Option<String>,
    seed: u64,
) -> Result<Database, String> {
    if let Some(n) = builtin {
        return programs::builtin_database(n, seed)
            .ok_or_else(|| format!("no builtin population for `{n}`"));
    }
    match &program.schema {
        Some(SchemaRef::Builtin { name, .. }) => programs::builtin_database(name, seed)
            .ok_or_else(|| format!("no builtin population for schema `{name}`")),
        Some(SchemaRef::Inline { text, .. }) => {
            // An inline schema has no generator: profile over an empty
            // extension (cardinalities will be zero, the plan shape won't).
            dood::core::schema::text::parse_schema(text)
                .map(Database::new)
                .map_err(|e| format!("inline schema: {e}"))
        }
        None => Err("program has no `schema` directive".to_string()),
    }
}

/// Dump the metrics registry and the event log's subscriber accounting.
fn dump_metrics(engine: &RuleEngine, json: bool) {
    let snap = obs::metrics::snapshot();
    if json {
        print!("{}", obs::metrics::to_json_lines(&snap));
        for (name, acked, lag) in engine.db().events().subscriber_stats() {
            println!(
                "{{\"metric\":\"store.events.subscriber\",\"name\":\"{}\",\"acked\":{acked},\"lag\":{lag}}}",
                obs::json_escape(&name)
            );
        }
    } else {
        println!("-- metrics --");
        print!("{}", obs::metrics::render_text(&snap));
        let log = engine.db().events();
        println!(
            "events: seq={} retained={} dropped={} subscribers={}",
            log.seq(),
            log.retained(),
            log.dropped(),
            log.subscriber_count()
        );
        for (name, acked, lag) in log.subscriber_stats() {
            println!("  subscriber {name}: acked={acked} lag={lag}");
        }
    }
}

/// `--validate`: parse and structurally check a JSON-lines trace export.
/// With `--flight`, use the flight-tolerant mode: a bounded ring legally
/// drops span ancestors, so escaped children are severed into extra roots
/// instead of rejected.
fn run_validate(path: &str, flight: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("doodprof: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if flight {
        obs::trace::ValidateMode::Flight
    } else {
        obs::trace::ValidateMode::Strict
    };
    match obs::trace::validate_trace_with(&text, mode) {
        Ok(stats) => {
            println!(
                "{path}: ok — {} span(s), {} root(s), max depth {}, {} severed",
                stats.spans, stats.roots, stats.max_depth, stats.severed
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: invalid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flight` after a profiling run: print the recorder's merged ring —
/// JSON span lines in `--json` mode, a rendered summary plus the lines in
/// text mode — and a trailing `flight:` summary with the drop count.
fn dump_flight(json: bool) {
    let (records, dropped) = obs::recorder::dump();
    if !json {
        println!("-- flight recorder --");
    }
    for r in &records {
        println!("{}", r.to_json_line());
    }
    let summary = format!("flight: {} span(s) in ring, {} overwritten", records.len(), dropped);
    if json {
        println!(
            "{{\"kind\":\"flight\",\"spans\":{},\"overwritten\":{dropped}}}",
            records.len()
        );
    } else {
        println!("{summary}");
    }
}

/// `--slowlog FILE`: render a slow-query log (JSON lines of
/// [`obs::account::QueryReport`]) as human-readable per-query blocks, or
/// echo the validated JSON in `--json` mode.
fn run_slowlog(path: &str, json: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("doodprof: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match obs::account::QueryReport::from_json_line(line) {
            Ok(rep) => {
                n += 1;
                if json {
                    println!("{}", rep.to_json_line());
                } else {
                    print!("{}", rep.render_text());
                }
            }
            Err(e) => {
                eprintln!("{path}:{}: bad slowlog record: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    if !json {
        println!("{path}: {n} slow record(s)");
    }
    ExitCode::SUCCESS
}
