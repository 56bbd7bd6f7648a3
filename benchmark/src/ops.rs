//! What every workload is made of: the `Workload` interface the run loop
//! drives, and the engine operations — set-up, query, write — each once as
//! the engine's own entry point and once decomposed into its layers for
//! the traced run.

use crate::gen::{apply, Fnv, Update};
use crate::span;
use crate::trace::{Count, Tracer};
use dood::core::fxhash::FxHashSet;
use dood::core::obs;
use dood::oql::resolve::resolve_context;
use dood::oql::table::build_table;
use dood::oql::wherec::apply_where;
use dood::oql::{Evaluator, Parser, QueryOutput};
use dood::rules::absint::CardEnv;
use dood::rules::engine::referenced_subdbs;
use dood::rules::{analyze, analyze_bounds, EvalPolicy, Program, RuleEngine};
use dood::store::load_full;

/// What an op returned. Kept until its digest has been taken, outside the
/// timed window. One is alive at a time, so the size of the largest variant
/// costs nothing, and boxing it would put an allocation into the window.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    Query(QueryOutput),
    /// The subdatabases `propagate` reported as re-derived.
    Write(Vec<String>),
    /// A whole-pipeline op, already reduced to its digest.
    Pipeline(u64),
}

/// One benchmark workload. `build` makes the inputs from the seed, once per
/// run; every pass then calls `setup` and `warm` and runs ops `0..n_ops()`
/// in order against the state they left.
pub trait Workload: Sized {
    type State;
    const NAME: &'static str;
    /// Op classes, for the `class.<name>.p50_ms` metrics.
    const CLASSES: &'static [&'static str];

    fn build(seed: u64, smoke: bool, t: &mut Tracer) -> Result<Self, String>;
    /// The input size, printed beside the throughput.
    fn input_size(&self) -> String;
    fn n_ops(&self) -> usize;
    fn class_of(&self, i: usize) -> &'static str;
    fn setup(&self, t: &mut Tracer) -> Result<Self::State, String>;
    /// Untimed and untraced work of every pass between its set-up and its
    /// op loop: what a long-running process would have done before the
    /// requests measured here arrive.
    fn warm(&self, _st: &mut Self::State) -> Result<(), String> {
        Ok(())
    }
    fn run_op(&self, st: &mut Self::State, i: usize, t: &mut Tracer) -> Result<Outcome, String>;
    /// Row count and row hash of what the op produced (and, for a write,
    /// of the state it left), compared between passes.
    fn digest(&self, st: &Self::State, out: &Outcome) -> u64;
    /// Pass-0 oracle for the state `setup` produced.
    fn check_setup(&self, st: &mut Self::State) -> Result<(), String>;
    /// Pass-0 oracle for op `i`, called right after it ran.
    fn check_op(&self, st: &mut Self::State, i: usize, out: &Outcome) -> Result<(), String>;
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A pass's set-up for an engine workload: forget planner statistics, load
/// the dump, parse and register the program, declare `pre` pre-evaluated
/// and derive each of them.
pub fn setup_engine(
    dump: &str,
    program: &str,
    pre: &[&str],
    t: &mut Tracer,
) -> Result<RuleEngine, String> {
    obs::stats::clear();
    t.count(Count::LoadBytes, dump.len());
    let db = span!(t, "store.load", load_full(dump)).map_err(err)?;
    let mut engine = RuleEngine::new(db);
    register_program(&mut engine, program, t)?;
    for name in pre {
        engine.set_policy(*name, EvalPolicy::PreEvaluated);
    }
    for name in pre {
        span!(t, "rules.derive", engine.derive(name)).map_err(err)?;
    }
    Ok(engine)
}

/// Parse a program and register it. `register` runs `rules::analyze`, which
/// runs `analyze_bounds`; the traced path first calls those two on their
/// own and takes each one's time off the next, so that the three self times
/// add up to what `register` costs.
pub fn register_program(
    engine: &mut RuleEngine,
    program: &str,
    t: &mut Tracer,
) -> Result<Program, String> {
    let (prog, diags) = span!(t, "rules.parse", Program::parse(program));
    if let Some(d) = diags.first() {
        return Err(format!("program does not parse: {}", d.message));
    }
    let mut inner_ns = 0;
    if t.is_on() {
        let external = FxHashSet::default();
        let schema = engine.db().schema();
        span!(
            t,
            "rules.absint",
            analyze_bounds(&prog, schema, &external, &CardEnv::unknown())
        );
        inner_ns = t.discount_last(0);
        span!(t, "rules.analyze", analyze(&prog, schema, &external));
        inner_ns = t.discount_last(inner_ns);
    }
    span!(t, "rules.register", engine.register(&prog)).map_err(err)?;
    t.discount_last(inner_ns);
    Ok(prog)
}

/// Run a query from text: through `RuleEngine::query` when untraced,
/// through its layers when traced.
pub fn query(engine: &mut RuleEngine, src: &str, t: &mut Tracer) -> Result<QueryOutput, String> {
    if !t.is_on() {
        return engine.query(src).map_err(err);
    }
    let root = t.enter("rules.query");
    let out = query_decomposed(engine, src, t);
    t.exit(root);
    out
}

/// `RuleEngine::query` and `Oql::run`, call for call, with a span around
/// each layer's entry point.
fn query_decomposed(
    engine: &mut RuleEngine,
    src: &str,
    t: &mut Tracer,
) -> Result<QueryOutput, String> {
    t.count(Count::ParseBytes, src.len());
    let mut parser = span!(t, "oql.lex", Parser::new(src)).map_err(err)?;
    let q = span!(t, "oql.parse", {
        let q = parser.query();
        if q.is_ok() && !parser.at_eof() {
            return Err(format!("unexpected `{}` after the query", parser.peek()));
        }
        q
    })
    .map_err(err)?;
    let subdbs = referenced_subdbs(&q);
    if !subdbs.is_empty() {
        span!(
            t,
            "rules.derive",
            subdbs.iter().try_for_each(|s| engine.derive(s))
        )
        .map_err(err)?;
    }
    let (db, registry) = (engine.db(), engine.registry());
    let resolved = span!(
        t,
        "oql.resolve",
        resolve_context(&q.context, db.schema(), registry)
    )
    .map_err(err)?;
    let evaluator = span!(t, "oql.plan", Evaluator::new(&resolved, db, registry)).map_err(err)?;
    let mut subdb = span!(t, "oql.eval", evaluator.eval("Context"));
    t.count(Count::EvalPatterns, subdb.len());
    span!(t, "oql.where", apply_where(&mut subdb, &q.where_, db)).map_err(err)?;
    let table = span!(t, "oql.table", build_table(&subdb, &q.select, db)).map_err(err)?;
    t.count(Count::TableRows, table.len());
    // The built-in operations of `Oql::new`; rendering is the table
    // module's work.
    let op_results = span!(
        t,
        "oql.table",
        q.ops
            .iter()
            .map(|op| match op.as_str() {
                "display" | "print" => Ok((op.clone(), table.to_string())),
                "count" => Ok((op.clone(), table.len().to_string())),
                other => Err(format!("unknown operation `{other}`")),
            })
            .collect::<Result<Vec<_>, _>>()
    )?;
    Ok(QueryOutput {
        subdb,
        table,
        op_results,
    })
}

/// Pass-0 oracle for a query op: the path that did not produce `out` —
/// the decomposed one if `RuleEngine::query` did (`out_traced` false), and
/// the other way round — returns the same subdatabase and the same table.
pub fn check_query(
    engine: &mut RuleEngine,
    src: &str,
    out: &QueryOutput,
    out_traced: bool,
) -> Result<(), String> {
    let mut other_path = if out_traced {
        Tracer::off()
    } else {
        Tracer::on(16)
    };
    let other = query(engine, src, &mut other_path)?;
    if other.subdb.to_vec() != out.subdb.to_vec() {
        return Err(format!(
            "`{src}`: the traced and the untraced path return different subdatabases"
        ));
    }
    if other.table != out.table || other.op_results != out.op_results {
        return Err(format!(
            "`{src}`: the traced and the untraced path return different tables"
        ));
    }
    Ok(())
}

/// Apply a batch of base updates and run forward chaining.
pub fn write(
    engine: &mut RuleEngine,
    batch: &[Update],
    t: &mut Tracer,
) -> Result<Vec<String>, String> {
    let seq0 = engine.db().seq();
    for u in batch {
        span!(t, "store.update", apply(engine.db_mut(), u))?;
    }
    t.count(Count::PropagateEvents, (engine.db().seq() - seq0) as usize);
    let rederived = span!(t, "rules.propagate", engine.propagate()).map_err(err)?;
    t.count(Count::PropagateCalls, 1);
    t.count(Count::PropagateRederived, rederived.len());
    t.count(Count::PropagateNoop, usize::from(rederived.is_empty()));
    Ok(rederived)
}

/// Pass-0 oracle for a write op: every maintained subdatabase equals its
/// from-scratch derivation.
pub fn check_maintained(engine: &RuleEngine, pre: &[&str]) -> Result<(), String> {
    for name in pre {
        let kept = engine
            .registry()
            .subdb(name)
            .ok_or_else(|| format!("{name} is not materialized"))?;
        let fresh = engine.derive_fresh(name).map_err(err)?;
        if kept.to_vec() != fresh.to_vec() {
            return Err(format!(
                "{name}: maintained copy ({} patterns) differs from derive_fresh ({})",
                kept.len(),
                fresh.len()
            ));
        }
    }
    Ok(())
}

/// Digest of a query result: pattern count, columns, and every row. Rows
/// come sorted from `build_table`, so hashing them in order is hashing the
/// sorted rows.
pub fn digest_query(out: &QueryOutput) -> u64 {
    let mut h = Fnv::new();
    h.u64(out.subdb.len() as u64);
    h.u64(out.table.len() as u64);
    for c in &out.table.columns {
        h.str(c);
    }
    for row in &out.table.rows {
        for v in row {
            h.value(v);
        }
    }
    for (op, text) in &out.op_results {
        h.str(op);
        h.u64(text.len() as u64);
    }
    h.0
}

/// Digest of a write: what `propagate` re-derived, and the size of the
/// store and of every maintained subdatabase afterwards.
pub fn digest_write(engine: &RuleEngine, rederived: &[String], pre: &[&str]) -> u64 {
    let mut h = Fnv::new();
    for name in rederived {
        h.str(name);
    }
    h.u64(engine.db().object_count() as u64);
    h.u64(engine.db().seq());
    for name in pre {
        h.u64(
            engine
                .registry()
                .subdb(name)
                .map_or(u64::MAX, |s| s.len() as u64),
        );
    }
    h.0
}
