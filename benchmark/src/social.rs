//! `social_closure`: the closure kernel and closure maintenance do the
//! work — incremental `Reach` maintenance under edge writes, reads over the
//! maintained closure, and ad-hoc closures evaluated from scratch. Joins,
//! aggregation and tables are negligible, so this is the bypass workload
//! for `univ_query` optimisations and the target for closure ones.

use crate::gen::{apply, class, extent, link, pick, shuffle, stratified, Update};
use crate::ops::{self, err, Outcome, Workload};
use crate::span;
use crate::trace::Tracer;
use dood::core::ids::{AssocId, ClassId, Oid};
use dood::core::rng::Rng;
use dood::core::value::Value;
use dood::datalog;
use dood::rules::RuleEngine;
use dood::store::{load_full, save_full, Database};
use dood::workload::{programs, social};
use std::collections::BTreeSet;

/// One fixed graph per workload (see `univ::DATASET_SEED`).
const DATASET_SEED: u64 = 0x00D0_0D22;

/// Deep chains, fan-out, three branches in ten cycling back. Small for the
/// reason `univ::SCALE` is.
fn shape(smoke: bool) -> social::SocialShape {
    if smoke {
        social::SocialShape {
            influencers: 2,
            fanout: 3,
            depth: 6,
            cycle_per_mille: 300,
        }
    } else {
        social::SocialShape {
            influencers: 3,
            fanout: 4,
            depth: 16,
            cycle_per_mille: 300,
        }
    }
}

const PRE: [&str; 1] = ["Reach"];

const CLASSES: [&str; 3] = ["edge_write", "reach_read", "closure_cold"];

const REACH_READS: [&str; 5] = [
    "context Reach:Person [score >= 50] * Reach:Person_1 select Person [pname], Person_1 [pname] display",
    "context Reach:Person [score >= 70] * Reach:Person_1 select Person [pname], Person_1 [pname] display",
    "context Reach:Person [score >= 90] * Reach:Person_1 select Person [pname], Person_1 [pname] display",
    "context Reach:Person * Reach:Person_1 * Reach:Person_2 select Person [pname], Person_2 [score] display",
    "context Reach:Person * Reach:Person_3 select Person [pname], Person_3 [pname] display",
];

const COLD_CLOSURES: [&str; 4] = [
    "context Person [score >= 10] ^* select Person [pname], Person_1 [pname] display",
    "context Person [score >= 20] ^* select Person [pname], Person_1 [pname] display",
    "context Person [score >= 30] ^* select Person [pname], Person_1 [pname] display",
    "context Person ^3 select Person [pname], Person_3 [pname] display",
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// A new person, followed by an existing one.
    NewPerson,
    /// An existing person follows someone who follows nobody, which makes
    /// chains one level longer. An edge into the middle of the graph joins
    /// whole chains end to end, and the engine stops at 64 levels (it panics:
    /// `intension limited to 64 slots`), so such an edge is not a workload on
    /// which no operation fails.
    Follow,
    /// Remove an existing edge, cutting every chain through it.
    Unfollow,
}
/// Every kind equally often: ISSUE 14 lists the kinds without weights.
const KINDS: [Kind; 3] = [Kind::NewPerson, Kind::Follow, Kind::Unfollow];

pub enum SocialOp {
    Write(Vec<Update>),
    Read(&'static str, &'static str),
}

struct EdgeGen {
    db: Database,
    person: ClassId,
    follows: AssocId,
    people: Vec<Oid>,
}

impl EdgeGen {
    fn new(db: Database) -> Self {
        EdgeGen {
            people: extent(&db, "Person"),
            person: class(&db, "Person"),
            follows: link(&db, "Person", "Follows"),
            db,
        }
    }

    fn push(&mut self, batch: &mut Vec<Update>, u: Update) {
        apply(&mut self.db, &u).expect("generated update is valid");
        batch.push(u);
    }

    fn follows_nobody(&self, p: Oid) -> bool {
        self.db.neighbors(self.follows, p, true).is_empty()
    }

    fn one(&mut self, rng: &mut Rng, kind: Kind, batch: &mut Vec<Update>) {
        let follows = self.follows;
        match kind {
            Kind::NewPerson => {
                let from = *pick(rng, &self.people);
                let oid = self.db.new_object(self.person).expect("entity class");
                batch.push(Update::New {
                    class: self.person,
                    expect: oid,
                });
                let name = Value::str(format!("new-{}", oid.raw()));
                self.push(
                    batch,
                    Update::SetAttr {
                        oid,
                        name: "pname",
                        value: name,
                    },
                );
                let score = Value::Int(rng.random_range(0i64..100));
                self.push(
                    batch,
                    Update::SetAttr {
                        oid,
                        name: "score",
                        value: score,
                    },
                );
                self.push(
                    batch,
                    Update::Associate {
                        assoc: follows,
                        from,
                        to: oid,
                    },
                );
                self.people.push(oid);
            }
            Kind::Follow => {
                let (from, to) = loop {
                    let (a, s) = (*pick(rng, &self.people), *pick(rng, &self.people));
                    if a != s && self.follows_nobody(s) && !self.db.linked(follows, a, s) {
                        break (a, s);
                    }
                };
                self.push(
                    batch,
                    Update::Associate {
                        assoc: follows,
                        from,
                        to,
                    },
                );
            }
            Kind::Unfollow => {
                let (from, to) = loop {
                    let a = *pick(rng, &self.people);
                    if let Some(&b) = self.db.neighbors(follows, a, true).last() {
                        break (a, b);
                    }
                };
                self.push(
                    batch,
                    Update::Dissociate {
                        assoc: follows,
                        from,
                        to,
                    },
                );
            }
        }
    }
}

/// `n` ops: 50 % edge writes of 1–4 updates, 30 % reads over `Reach`,
/// 20 % closures from scratch. The write batches and the position of every
/// op class are the data set's script (see `univ::DATASET_SEED`); `seed`
/// decides which read of a class runs at which of the class's positions.
pub fn social_ops(seed: u64, n: usize, db: Database) -> Vec<SocialOp> {
    let (writes, reads) = (n / 2, n * 3 / 10);
    let mut script = Rng::seed_from_u64(DATASET_SEED);
    let sizes = stratified(&mut script, &[1usize, 2, 3, 4], writes);
    let kinds = stratified(&mut script, &KINDS, sizes.iter().sum());
    let mut layout: Vec<&'static str> = Vec::with_capacity(n);
    layout.extend(std::iter::repeat_n("edge_write", writes));
    layout.extend(std::iter::repeat_n("reach_read", reads));
    layout.extend(std::iter::repeat_n("closure_cold", n - writes - reads));
    shuffle(&mut script, &mut layout);
    let mut rng = Rng::seed_from_u64(seed);
    let mut reach = stratified(&mut rng, &REACH_READS, reads).into_iter();
    let mut cold = stratified(&mut rng, &COLD_CLOSURES, n - writes - reads).into_iter();

    // Writes are generated in script order, each against the graph the
    // writes before it leave behind.
    let mut gen = EdgeGen::new(db);
    let (mut sizes, mut kinds) = (sizes.into_iter(), kinds.into_iter());
    layout
        .into_iter()
        .map(|class| match class {
            "edge_write" => {
                let mut batch = Vec::new();
                for _ in 0..sizes.next().expect("one per write") {
                    gen.one(
                        &mut script,
                        kinds.next().expect("one per update"),
                        &mut batch,
                    );
                }
                SocialOp::Write(batch)
            }
            "reach_read" => SocialOp::Read(class, reach.next().expect("one per read")),
            _ => SocialOp::Read(class, cold.next().expect("one per closure")),
        })
        .collect()
}

pub struct SocialClosure {
    dump: String,
    people: usize,
    ops: Vec<SocialOp>,
}

/// Every `(root, reached)` pair the chains of `Reach` spell out.
fn reach_pairs(engine: &RuleEngine) -> Result<BTreeSet<(u64, u64)>, String> {
    let reach = engine
        .registry()
        .subdb("Reach")
        .ok_or("Reach is not materialized")?;
    let mut pairs = BTreeSet::new();
    for p in reach.patterns() {
        let chain = p.components();
        if let Some(root) = chain[0] {
            pairs.extend(chain[1..].iter().flatten().map(|x| (root.raw(), x.raw())));
        }
    }
    Ok(pairs)
}

impl Workload for SocialClosure {
    type State = RuleEngine;
    const NAME: &'static str = "social_closure";
    const CLASSES: &'static [&'static str] = &CLASSES;

    fn build(seed: u64, smoke: bool, t: &mut Tracer) -> Result<Self, String> {
        let shape = shape(smoke);
        let (db, _) = span!(
            t,
            "workload.populate",
            social::build_graph(shape, DATASET_SEED)
        );
        let dump = span!(t, "store.save", save_full(&db));
        let scratch = load_full(&dump).map_err(err)?;
        let ops = social_ops(seed, crate::n_ops(smoke), scratch);
        Ok(SocialClosure {
            dump,
            people: shape.people(),
            ops,
        })
    }

    fn input_size(&self) -> String {
        format!(
            "{} people, {:.2} MB dump",
            self.people,
            self.dump.len() as f64 / 1e6
        )
    }

    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn class_of(&self, i: usize) -> &'static str {
        match self.ops[i] {
            SocialOp::Write(_) => "edge_write",
            SocialOp::Read(class, _) => class,
        }
    }

    fn setup(&self, t: &mut Tracer) -> Result<RuleEngine, String> {
        ops::setup_engine(&self.dump, programs::SOCIAL, &PRE, t)
    }

    fn run_op(&self, st: &mut RuleEngine, i: usize, t: &mut Tracer) -> Result<Outcome, String> {
        match &self.ops[i] {
            SocialOp::Write(batch) => ops::write(st, batch, t).map(Outcome::Write),
            SocialOp::Read(_, text) => ops::query(st, text, t).map(Outcome::Query),
        }
    }

    fn digest(&self, st: &RuleEngine, out: &Outcome) -> u64 {
        match out {
            Outcome::Query(q) => ops::digest_query(q),
            Outcome::Write(rederived) => ops::digest_write(st, rederived, &PRE),
            Outcome::Pipeline(_) => unreachable!("social_closure runs no pipeline op"),
        }
    }

    /// The pairs `Reach` spells out are the pairs Datalog's recursive
    /// `reach` derives from the flat translation of the same dump. (Datalog
    /// also derives `reach(x, x)` for `x` on a cycle; a chain stops before
    /// it would repeat its root.)
    fn check_setup(&self, st: &mut RuleEngine) -> Result<(), String> {
        ops::check_maintained(st, &PRE)?;
        let dood = reach_pairs(st)?;
        let db = st.db();
        let mut tr = datalog::translate(db);
        let edge = datalog::translate::assoc_pred(&mut tr, db, link(db, "Person", "Follows"));
        let reach = tr.program.pred("reach");
        let (v, atom) = (datalog::v, datalog::Atom::new);
        tr.program.rule(
            atom(reach, vec![v(0), v(1)]),
            vec![atom(edge, vec![v(0), v(1)])],
        );
        tr.program.rule(
            atom(reach, vec![v(0), v(2)]),
            vec![atom(reach, vec![v(0), v(1)]), atom(edge, vec![v(1), v(2)])],
        );
        let (facts, _) = datalog::seminaive(&tr.program, &tr.edb);
        let flat: BTreeSet<(u64, u64)> = facts
            .tuples(reach)
            .filter(|t| t[0] != t[1])
            .map(|t| (t[0], t[1]))
            .collect();
        if dood == flat {
            Ok(())
        } else {
            Err(format!(
                "Reach spells {} pairs, Datalog derives {}",
                dood.len(),
                flat.len()
            ))
        }
    }

    fn check_op(&self, st: &mut RuleEngine, i: usize, out: &Outcome) -> Result<(), String> {
        match (&self.ops[i], out) {
            (SocialOp::Write(_), _) => ops::check_maintained(st, &PRE),
            (SocialOp::Read(_, text), Outcome::Query(q)) => ops::check_query(st, text, q, false),
            _ => unreachable!("a read returns a query outcome"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn social_ops_repeat_for_a_seed_and_differ_between_seeds() {
        let db = || {
            load_full(&save_full(
                &social::build_graph(shape(true), DATASET_SEED).0,
            ))
            .unwrap()
        };
        let writes = |ops: &[SocialOp]| -> Vec<Update> {
            ops.iter()
                .flat_map(|op| match op {
                    SocialOp::Write(b) => b.clone(),
                    SocialOp::Read(..) => Vec::new(),
                })
                .collect()
        };
        let (a, b, c) = (
            social_ops(3, 40, db()),
            social_ops(3, 40, db()),
            social_ops(4, 40, db()),
        );
        let shape = |ops: &[SocialOp]| -> Vec<Option<&'static str>> {
            ops.iter()
                .map(|op| match op {
                    SocialOp::Write(_) => None,
                    SocialOp::Read(_, q) => Some(*q),
                })
                .collect()
        };
        assert_eq!(shape(&a), shape(&b));
        assert_ne!(shape(&a), shape(&c));
        // The script of writes is the data set's, whatever the seed.
        assert_eq!(writes(&a), writes(&b));
        assert_eq!(writes(&a), writes(&c));
        let count = |class: &str| {
            a.iter()
                .filter(|op| matches!(op, SocialOp::Read(k, _) if *k == class))
                .count()
        };
        assert_eq!((count("reach_read"), count("closure_cold")), (12, 8));
        let mut replay = db();
        for u in writes(&a) {
            apply(&mut replay, &u).unwrap();
        }
    }
}
