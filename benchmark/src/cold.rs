//! `cold_pipeline`: every op is the whole pipeline on a small input — load
//! the dump, parse, analyze and register the program, derive every export,
//! run each program query from text, apply one base update, propagate. The
//! data is tiny, so lexer, parser, analyzer, abstract interpreter, planner
//! and `store::dump` carry the time and the steady-state kernels almost
//! none: front-end work shows here and nowhere else, and cold-start
//! planning (no EWMA observations) is paid by every op.

use crate::gen::{class, extent, link, pick, stratified, Fnv, Update};
use crate::ops::{self, err, Outcome, Workload};
use crate::span;
use crate::trace::{Count, Tracer};
use dood::core::obs;
use dood::core::rng::Rng;
use dood::rules::RuleEngine;
use dood::store::{load_full, save_full, Database};
use dood::workload::{cad, company, programs, social, university};

/// Dumps, programs and base updates are one fixed set (see
/// `univ::DATASET_SEED`); `--seed` picks the order of the ops.
const DATASET_SEED: u64 = 0x00D0_0D23;
const INPUTS: usize = 64;
const SMOKE_INPUTS: usize = 12;
/// Every input runs exactly four times a pass, so that every seed runs the
/// same multiset of ops; 240 ops would leave it to the seed which 16 inputs
/// run only three times.
const OPS: usize = 4 * INPUTS;

const CLASSES: [&str; 3] = ["cold_builtin", "cold_chain8", "cold_chain32"];

/// What one pipeline op is given: only text and an update list.
pub struct Input {
    dump: String,
    program: String,
    queries: Vec<String>,
    update: Vec<Update>,
}

/// The query bodies of a `.dood` program, as text.
pub fn program_queries(program: &str) -> Vec<String> {
    const DIRECTIVES: [&str; 6] = ["rule ", "query ", "export ", "schema ", "extern ", "allow "];
    let mut queries = Vec::new();
    let mut open: Option<String> = None;
    for line in program.lines() {
        let l = line.trim();
        if DIRECTIVES.iter().any(|d| l.starts_with(d)) {
            queries.extend(open.take());
            if l.starts_with("query ") {
                open = Some(String::new());
            }
        } else if let Some(body) = &mut open {
            if !l.starts_with("--") {
                body.push_str(l);
                body.push(' ');
            }
        }
    }
    queries.extend(open);
    queries
}

/// A seeded derivation chain of `rules` rules over the company schema:
/// every rule reads the subdatabase the rule before it derives.
pub fn chain_program(rng: &mut Rng, rules: usize) -> String {
    let mut text = String::from("-- Synthetic derivation chain.\nschema builtin company\n\n");
    text.push_str(
        "rule C0:\n  if context Employee * Department\n  then S0 (Employee, Department)\n\n",
    );
    for i in 1..rules {
        let src = format!("S{}", i - 1);
        let context = match rng.random_range(0..5) {
            0 | 1 => format!("{src}:Employee * {src}:Department"),
            2 | 3 => format!(
                "{src}:Employee [salary > {}] * {src}:Department",
                rng.random_range(30i64..60) * 1000
            ),
            _ => format!("{src}:Employee * {src}:Department * Project"),
        };
        text.push_str(&format!(
            "rule C{i}:\n  if context {context}\n  then S{i} (Employee, Department)\n\n"
        ));
    }
    let last = format!("S{}", rules - 1);
    text.push_str(&format!(
        "query QC:\n  context {last}:Employee * {last}:Department\n  \
         select Employee [ename], Department [dname]\n  display\n\nexport {last}\n"
    ));
    text
}

/// Input `i` of the fixed set: its population and its program.
fn population(i: usize, t: &mut Tracer) -> (Database, String) {
    let seed = DATASET_SEED + i as u64;
    let big = (i / 6) % 2 == 1;
    let mut rng = Rng::seed_from_u64(seed);
    let company_db = |t: &mut Tracer, size: company::CompanySize| {
        span!(t, "workload.populate", company::populate(size, seed)).0
    };
    let company_size = if big {
        company::CompanySize::scaled(60)
    } else {
        company::CompanySize::small()
    };
    match i % 6 {
        0 => {
            // `small()` with enough TAs among enough grads that the R6/R7
            // closure reaches the third level R7 projects.
            let small = university::Size {
                students: 30,
                grad_per_mille: 500,
                tas: 6,
                ..university::Size::small()
            };
            let medium = university::Size {
                departments: 3,
                courses_per_dept: 8,
                teachers: 20,
                students: 150,
                tas: 8,
                ras: 5,
                faculty: 8,
                advisings: 25,
                ..university::Size::medium()
            };
            let size = if big { medium } else { small };
            let db = span!(t, "workload.populate", university::populate(size, seed));
            (db, programs::UNIVERSITY.to_string())
        }
        1 => (company_db(t, company_size), programs::COMPANY.to_string()),
        2 => {
            let shape = if big {
                cad::BomShape {
                    depth: 4,
                    fanout: 3,
                    roots: 2,
                    share_per_mille: 200,
                }
            } else {
                cad::BomShape::small()
            };
            let db = span!(t, "workload.populate", cad::build_bom(shape, seed)).0;
            (db, programs::CAD.to_string())
        }
        3 => {
            let shape = if big {
                social::SocialShape {
                    influencers: 3,
                    fanout: 3,
                    depth: 6,
                    cycle_per_mille: 300,
                }
            } else {
                social::SocialShape::small()
            };
            let db = span!(t, "workload.populate", social::build_graph(shape, seed)).0;
            (db, programs::SOCIAL.to_string())
        }
        // Long chains run on the small company only: the op is about the
        // 8 or 32 rules, not about their rows.
        4 => (company_db(t, company_size), chain_program(&mut rng, 8)),
        _ => (
            company_db(t, company::CompanySize::small()),
            chain_program(&mut rng, 32),
        ),
    }
}

/// One base update that the input's exports depend on, among the objects
/// of `db` (a load of the input's dump).
fn base_update(kind: usize, db: &mut Database, rng: &mut Rng) -> Vec<Update> {
    match kind {
        0 => {
            let (students, sections) = (extent(db, "Student"), extent(db, "Section"));
            let assoc = link(db, "Student", "Enrolls");
            vec![Update::Associate {
                assoc,
                from: *pick(rng, &students),
                to: *pick(rng, &sections),
            }]
        }
        2 => {
            // A new part under an existing one keeps the BOM acyclic.
            let part = class(db, "Part");
            let parent = *pick(rng, &extent(db, "Part"));
            let oid = db.new_object(part).expect("entity class");
            let assoc = link(db, "Part", "Component");
            vec![
                Update::New {
                    class: part,
                    expect: oid,
                },
                Update::Associate {
                    assoc,
                    from: parent,
                    to: oid,
                },
            ]
        }
        3 => {
            // A new person, followed by an existing one.
            let person = class(db, "Person");
            let from = *pick(rng, &extent(db, "Person"));
            let oid = db.new_object(person).expect("entity class");
            let assoc = link(db, "Person", "Follows");
            vec![
                Update::New {
                    class: person,
                    expect: oid,
                },
                Update::Associate {
                    assoc,
                    from,
                    to: oid,
                },
            ]
        }
        _ => {
            let (employees, projects) = (extent(db, "Employee"), extent(db, "Project"));
            let assoc = link(db, "Employee", "AssignedTo");
            vec![Update::Associate {
                assoc,
                from: *pick(rng, &employees),
                to: *pick(rng, &projects),
            }]
        }
    }
}

/// Generate the inputs and check that each dump survives a round trip:
/// `save_full(load_full(d)) == d`.
fn make_inputs(count: usize, t: &mut Tracer) -> Result<Vec<Input>, String> {
    let mut rng = Rng::seed_from_u64(DATASET_SEED);
    (0..count)
        .map(|i| {
            let (db, program) = population(i, t);
            let dump = span!(t, "store.save", save_full(&db));
            t.count(Count::LoadBytes, dump.len());
            let mut loaded = span!(t, "store.load", load_full(&dump)).map_err(err)?;
            if span!(t, "store.save", save_full(&loaded)) != dump {
                return Err(format!("input {i}: the dump does not survive a round trip"));
            }
            let update = base_update(i % 6, &mut loaded, &mut rng);
            Ok(Input {
                queries: program_queries(&program),
                dump,
                program,
                update,
            })
        })
        .collect()
}

/// The whole pipeline on one input. With `check`, also apply the pass-0
/// oracles: both query paths agree, and every export, derived again after
/// the update, equals its from-scratch derivation.
fn pipeline(input: &Input, t: &mut Tracer, check: bool) -> Result<u64, String> {
    obs::stats::clear();
    t.count(Count::LoadBytes, input.dump.len());
    let db = span!(t, "store.load", load_full(&input.dump)).map_err(err)?;
    let mut engine = RuleEngine::new(db);
    let program = ops::register_program(&mut engine, &input.program, t)?;
    let exports: Vec<&str> = program
        .exports
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    let mut h = Fnv::new();
    // No policy is declared: a cold start runs on the defaults, so exports
    // are post-evaluated, derived here on demand, and the closing
    // `propagate` invalidates them.
    for name in &exports {
        span!(t, "rules.derive", engine.derive(name)).map_err(err)?;
        h.u64(
            engine
                .registry()
                .subdb(name)
                .map_or(u64::MAX, |s| s.len() as u64),
        );
    }
    for q in &input.queries {
        let out = ops::query(&mut engine, q, t)?;
        h.u64(ops::digest_query(&out));
        if check {
            ops::check_query(&mut engine, q, &out, t.is_on())?;
        }
    }
    let rederived = ops::write(&mut engine, &input.update, t)?;
    h.u64(ops::digest_write(&engine, &rederived, &[]));
    if check {
        // Deriving again after the update gives the from-scratch result.
        for name in &exports {
            engine.derive(name).map_err(err)?;
        }
        ops::check_maintained(&engine, &exports)?;
    }
    Ok(h.0)
}

/// Which input each of `n` ops runs on: every input equally often, in
/// seeded order.
fn op_order(seed: u64, inputs: usize, n: usize) -> Vec<usize> {
    let all: Vec<usize> = (0..inputs).collect();
    stratified(&mut Rng::seed_from_u64(seed), &all, n)
}

pub struct ColdPipeline {
    /// Which input each op runs on.
    order: Vec<usize>,
    inputs: usize,
    dump_bytes: usize,
}

impl Workload for ColdPipeline {
    type State = Vec<Input>;
    const NAME: &'static str = "cold_pipeline";
    const CLASSES: &'static [&'static str] = &CLASSES;

    fn build(seed: u64, smoke: bool, t: &mut Tracer) -> Result<Self, String> {
        let inputs = if smoke { SMOKE_INPUTS } else { INPUTS };
        let order = op_order(seed, inputs, if smoke { crate::n_ops(true) } else { OPS });
        let dump_bytes = make_inputs(inputs, t)?.iter().map(|i| i.dump.len()).sum();
        Ok(ColdPipeline {
            order,
            inputs,
            dump_bytes,
        })
    }

    fn input_size(&self) -> String {
        format!(
            "{} inputs (4 builtin + 2 chain programs in turn, small and medium populations), {:.2} MB of dumps",
            self.inputs,
            self.dump_bytes as f64 / 1e6
        )
    }

    fn n_ops(&self) -> usize {
        self.order.len()
    }

    /// By the program of the op's input (see `population`).
    fn class_of(&self, i: usize) -> &'static str {
        match self.order[i] % 6 {
            4 => "cold_chain8",
            5 => "cold_chain32",
            _ => "cold_builtin",
        }
    }

    /// Set-up is generating and round-trip-verifying the input dumps.
    fn setup(&self, t: &mut Tracer) -> Result<Vec<Input>, String> {
        make_inputs(self.inputs, t)
    }

    fn run_op(&self, st: &mut Vec<Input>, i: usize, t: &mut Tracer) -> Result<Outcome, String> {
        pipeline(&st[self.order[i]], t, false).map(Outcome::Pipeline)
    }

    fn digest(&self, _st: &Vec<Input>, out: &Outcome) -> u64 {
        match out {
            Outcome::Pipeline(d) => *d,
            _ => unreachable!("cold_pipeline only runs pipeline ops"),
        }
    }

    fn check_setup(&self, st: &mut Vec<Input>) -> Result<(), String> {
        match st.iter().find(|i| i.queries.is_empty()) {
            Some(i) => Err(format!("no query found in program:\n{}", i.program)),
            None => Ok(()),
        }
    }

    /// Re-run the op traced and with the oracles on; it must return what
    /// the untraced op returned.
    fn check_op(&self, st: &mut Vec<Input>, i: usize, out: &Outcome) -> Result<(), String> {
        let input = &st[self.order[i]];
        let traced = pipeline(input, &mut Tracer::on(256), true)?;
        match out {
            Outcome::Pipeline(d) if *d == traced => Ok(()),
            _ => Err("the traced, checked re-run returns another digest".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood::rules::Program;

    #[test]
    fn finds_the_queries_of_the_builtin_programs() {
        for (name, text) in programs::all() {
            let (program, diags) = Program::parse(text);
            assert!(diags.is_empty());
            let found = program_queries(text);
            assert_eq!(found.len(), program.queries.len(), "{name}");
            for (text, parsed) in found.iter().zip(&program.queries) {
                assert_eq!(
                    dood::oql::Parser::parse_query(text).unwrap(),
                    parsed.query,
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn chain_programs_are_seeded_and_register_cleanly() {
        let text = |seed, n| chain_program(&mut Rng::seed_from_u64(seed), n);
        assert_eq!(text(1, 32), text(1, 32));
        assert_ne!(text(1, 32), text(2, 32));
        for n in [8, 32] {
            let (program, diags) = Program::parse(&text(9, n));
            assert!(diags.is_empty(), "{diags:?}");
            assert_eq!(program.rules.len(), n);
            let (db, _) = company::populate(company::CompanySize::small(), 3);
            let mut engine = RuleEngine::new(db);
            engine.register(&program).expect("no analyzer error");
            assert!(!engine.subdb(&format!("S{}", n - 1)).unwrap().is_empty());
        }
    }

    #[test]
    fn inputs_are_fixed_and_the_seed_orders_the_ops() {
        let make = || make_inputs(12, &mut Tracer::off()).unwrap();
        let (a, b) = (make(), make());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| { x.dump == y.dump && x.program == y.program && x.update == y.update }));
        let order = |seed| op_order(seed, INPUTS, OPS);
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        // Every seed runs every input exactly four times.
        for input in 0..INPUTS {
            assert_eq!(order(2).iter().filter(|&&i| i == input).count(), 4);
        }
    }
}
