//! The reference evaluator the engine is checked against: a context
//! expression evaluated the way PAPER.md §3–§5 words it, with no plan, no
//! index, no cache and no statistics.
//!
//! * §3.2 — `A * B` keeps the instance pairs that are associated, `A ! B`
//!   the pairs that are not; an intra-class condition restricts the
//!   instances a class occurrence ranges over, and an unknown comparison
//!   (Null, missing perspective, incomparable types) drops the instance.
//! * §4.1 — `SD:C` ranges over the instances `C` has in the derived
//!   subdatabase `SD`; two occurrences descending from one subdatabase are
//!   associated where one of its extensional patterns holds both.
//! * §5.1 — every braced subexpression is evaluated on its own as well; a
//!   pattern "will not appear independently in the result if it is part of
//!   a larger extensional pattern".
//! * §5.2 — `^*` traverses the cycle "until Null values are obtained", `^N`
//!   N times; the result holds the root-to-leaf instance hierarchies. An
//!   instance already on a chain is not visited again (the paper assumes
//!   acyclic data; the cut is what keeps cyclic data finite).
//!
//! Everything is nested loops over `Database::extent`, left to right. It
//! takes a [`ResolvedContext`] because name and edge resolution are the
//! resolver's job, not an evaluation strategy; from `dood::oql` it uses the
//! parser, the resolver's output types and the AST, nothing else.

#![allow(dead_code)] // each test binary uses its own subset

use dood::core::ids::Oid;
use dood::core::subdb::{Subdatabase, SubdbRegistry};
use dood::oql::ast::{CmpOp, PatOp, Pred};
use dood::oql::parser::Parser;
use dood::oql::resolve::{resolve_context, REdgeKind, ResolvedContext};
use dood::store::Database;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One extensional pattern: a component per slot, `None` = Null.
pub type Row = Vec<Option<Oid>>;

struct Spec<'a> {
    ctx: &'a ResolvedContext,
    db: &'a Database,
    reg: &'a SubdbRegistry,
}

impl Spec<'_> {
    fn source(&self, subdb: &str) -> &Subdatabase {
        self.reg
            .subdb(subdb)
            .expect("resolved against this registry")
    }

    /// An intra-class condition on one instance.
    fn holds(&self, pred: &Pred, oid: Oid) -> bool {
        match pred {
            Pred::Cmp { attr, op, value } => {
                let stored = self
                    .db
                    .attr(oid, attr)
                    .expect("attribute of the occurrence's class");
                match stored.compare(&value.to_value()) {
                    None => false,
                    Some(ord) => match op {
                        CmpOp::Eq => ord == Ordering::Equal,
                        CmpOp::Neq => ord != Ordering::Equal,
                        CmpOp::Lt => ord == Ordering::Less,
                        CmpOp::Le => ord != Ordering::Greater,
                        CmpOp::Gt => ord == Ordering::Greater,
                        CmpOp::Ge => ord != Ordering::Less,
                    },
                }
            }
            Pred::And(a, b) => self.holds(a, oid) && self.holds(b, oid),
            Pred::Or(a, b) => self.holds(a, oid) || self.holds(b, oid),
            Pred::Not(p) => !self.holds(p, oid),
        }
    }

    /// The instances a class occurrence ranges over, ascending.
    fn instances(&self, slot: usize) -> Vec<Oid> {
        let s = &self.ctx.slots[slot];
        let source = s.derived.as_ref().map(|(subdb, class)| {
            let sd = self.source(subdb);
            (sd, sd.intension.slot_by_name(class).expect("resolved slot"))
        });
        self.db
            .extent(s.base)
            .filter(|&o| source.is_none_or(|(sd, i)| sd.patterns().any(|p| p.get(i) == Some(o))))
            .filter(|&o| s.cond.as_ref().is_none_or(|p| self.holds(p, o)))
            .collect()
    }

    /// Whether `x` (left operand) is associated with `y` (right operand).
    fn linked(&self, kind: &REdgeKind, x: Oid, y: Oid) -> bool {
        match kind {
            REdgeKind::Base(edge) => self.db.edge_links(x, edge, y),
            REdgeKind::Derived { subdb, a, b } => self
                .source(subdb)
                .patterns()
                .any(|p| p.get(*a) == Some(x) && p.get(*b) == Some(y)),
        }
    }

    /// Every binding of the occurrences `lo..hi` that satisfies the
    /// operators between them.
    fn join(&self, lo: usize, hi: usize) -> Vec<Vec<Oid>> {
        let mut rows: Vec<Vec<Oid>> = self.instances(lo).into_iter().map(|o| vec![o]).collect();
        for slot in lo + 1..hi {
            let edge = &self.ctx.edges[slot - 1];
            let right = self.instances(slot);
            let mut next = Vec::new();
            for row in &rows {
                let x = *row.last().expect("rows are never empty");
                for &y in &right {
                    if self.linked(&edge.kind, x, y) == (edge.op == PatOp::Assoc) {
                        let mut r = row.clone();
                        r.push(y);
                        next.push(r);
                    }
                }
            }
            rows = next;
        }
        rows
    }

    /// §5.1: the whole expression and each braced subexpression, every
    /// pattern widened with Nulls to the expression's width.
    fn flat(&self) -> Vec<Row> {
        let width = self.ctx.slots.len();
        let mut out = Vec::new();
        for &(lo, hi) in &self.ctx.spans {
            for bound in self.join(lo, hi) {
                let mut row = vec![None; width];
                for (i, o) in bound.into_iter().enumerate() {
                    row[lo + i] = Some(o);
                }
                out.push(row);
            }
        }
        out
    }

    /// §5.2: the instance hierarchies of a cyclic expression.
    fn closure(&self, iterations: Option<u32>, cycle: &REdgeKind) -> Vec<Row> {
        let n = self.ctx.slots.len();
        let roots = self.instances(0);
        // One traversal of the cycle from `r`: the chain joined from `r`,
        // then back over the cycle edge to an instance of the first class.
        let chain_rows = self.join(0, n);
        let step: BTreeMap<Oid, Vec<Oid>> = roots
            .iter()
            .map(|&r| {
                let from_r = || chain_rows.iter().filter(move |row| row[0] == r);
                let reached = |s: &Oid| from_r().any(|row| self.linked(cycle, row[n - 1], *s));
                (r, roots.iter().copied().filter(reached).collect())
            })
            .collect();
        // Iterate: each round traverses the cycle once more from every
        // hierarchy that is still growing, until none is.
        let mut growing: Vec<Vec<Oid>> = roots.iter().map(|&r| vec![r]).collect();
        let mut done: Vec<Vec<Oid>> = Vec::new();
        let mut round = 0u32;
        while !growing.is_empty() {
            let mut next = Vec::new();
            for chain in growing {
                let tip = chain.last().expect("chains are never empty");
                let reached: Vec<Oid> = if iterations.is_some_and(|cap| round >= cap) {
                    Vec::new()
                } else {
                    step[tip]
                        .iter()
                        .copied()
                        .filter(|s| !chain.contains(s))
                        .collect()
                };
                if reached.is_empty() {
                    done.push(chain);
                } else {
                    for s in reached {
                        let mut c = chain.clone();
                        c.push(s);
                        next.push(c);
                    }
                }
            }
            growing = next;
            round += 1;
        }
        let width = done.iter().map(Vec::len).max().unwrap_or(1);
        done.into_iter()
            .map(|chain| {
                let mut row: Row = chain.into_iter().map(Some).collect();
                row.resize(width, None);
                row
            })
            .collect()
    }
}

/// `a` binds nothing `b` does not, and `b` binds more.
fn is_part(a: &Row, b: &Row) -> bool {
    a != b && a.iter().zip(b).all(|(x, y)| x.is_none() || x == y)
}

/// The extensional patterns of `ctx` over `db` and the derived
/// subdatabases in `reg`, sorted, without duplicates.
pub fn spec_eval(ctx: &ResolvedContext, db: &Database, reg: &SubdbRegistry) -> Vec<Row> {
    let spec = Spec { ctx, db, reg };
    let mut rows = match &ctx.closure {
        None => spec.flat(),
        Some((spec_c, cycle)) => spec.closure(spec_c.iterations, cycle),
    };
    rows.sort();
    rows.dedup();
    // A pattern without a Null is part of nothing, which spares the common
    // brace-free query the quadratic scan.
    rows.iter()
        .filter(|a| !(a.contains(&None) && rows.iter().any(|b| is_part(a, b))))
        .cloned()
        .collect()
}

/// Parse and resolve `src`, then [`spec_eval`] it.
pub fn spec_query(db: &Database, reg: &SubdbRegistry, src: &str) -> Vec<Row> {
    let expr = Parser::parse_context_expr(src).expect("context expression parses");
    let ctx = resolve_context(&expr, db.schema(), reg).expect("context expression resolves");
    spec_eval(&ctx, db, reg)
}

/// A subdatabase's patterns in the shape and order [`spec_eval`] returns.
pub fn rows_of(sd: &Subdatabase) -> Vec<Row> {
    sd.patterns().map(|p| p.components().to_vec()).collect()
}
