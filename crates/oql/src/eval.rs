//! Evaluation of resolved context expressions: association-pattern matching
//! (paper §3.2), brace retention with subsumption (§5.1), and cyclic
//! iteration / transitive closure (§5.2).
//!
//! The evaluator produces a [`Subdatabase`]: the Context subdatabase the
//! paper's queries and rules operate on.

use crate::ast::{CmpOp, Pred};
use crate::error::QueryError;
use crate::plan::{CompileParts, CompiledContext, EdgeInfo, PlanInputs, SpanPlan};
use crate::resolve::{REdgeKind, RSlot, ResolvedContext};
use dood_core::error::ResolveError;
use dood_core::ids::Oid;
use dood_core::schema::{ResolvedAttr, ResolvedEdge};
use dood_core::obs;
use dood_core::subdb::{
    Intension, RowBlocks, Row, RowRun, RowStore, SlotDef, SlotExtent, SlotPair, SlotSource,
    Subdatabase, SubdbRegistry,
};
use dood_core::value::Value;
use dood_store::Database;
use std::sync::Arc;

/// A compiled intra-class predicate: attribute references are resolved.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    Cmp { attr: ResolvedAttr, op: CmpOp, value: Value },
    And(Box<CPred>, Box<CPred>),
    Or(Box<CPred>, Box<CPred>),
    Not(Box<CPred>),
}

impl CPred {
    fn eval(&self, db: &Database, oid: Oid) -> bool {
        match self {
            CPred::Cmp { attr, op, value } => {
                // Missing perspective / Null / incomparable: unknown ⇒ drop
                db.attr_ref(oid, attr)
                    .and_then(|v| v.compare(value))
                    .is_some_and(|ord| op.test(ord))
            }
            CPred::And(a, b) => a.eval(db, oid) && b.eval(db, oid),
            CPred::Or(a, b) => a.eval(db, oid) || b.eval(db, oid),
            CPred::Not(p) => !p.eval(db, oid),
        }
    }
}

/// Compile a predicate against a slot's base class, enforcing the slot's
/// attribute accessibility restriction (paper §4.2). Pure schema work — no
/// extensional data is touched, so static analysis can call it too.
fn compile_pred(
    pred: &Pred,
    slot: &RSlot,
    schema: &dood_core::schema::Schema,
) -> Result<CPred, QueryError> {
    match pred {
        Pred::Cmp { attr, op, value } => {
            if let Some(filter) = &slot.attr_filter {
                if !filter.iter().any(|a| a == attr) {
                    return Err(QueryError::Resolve(ResolveError::AttributeNotAccessible {
                        class: slot.name.clone(),
                        attr: attr.clone(),
                    }));
                }
            }
            let resolved = schema.resolve_attr(slot.base, attr)?;
            Ok(CPred::Cmp { attr: resolved, op: *op, value: value.to_value() })
        }
        Pred::And(a, b) => Ok(CPred::And(
            Box::new(compile_pred(a, slot, schema)?),
            Box::new(compile_pred(b, slot, schema)?),
        )),
        Pred::Or(a, b) => Ok(CPred::Or(
            Box::new(compile_pred(a, slot, schema)?),
            Box::new(compile_pred(b, slot, schema)?),
        )),
        Pred::Not(p) => Ok(CPred::Not(Box::new(compile_pred(p, slot, schema)?))),
    }
}

/// A slot's membership constraint.
///
/// Derived slots point straight into their source subdatabase's counted
/// slot extent ([`Subdatabase::counted_extent`]), built once per source
/// content version and shared by every evaluation against it (the
/// incremental-maintenance hot path constructs an evaluator per delta
/// step).
enum Members<'a> {
    /// Base-class slot: no membership restriction beyond the class extent.
    Open,
    /// Derived slot: membership is the source's extent of that slot.
    Indexed(&'a SlotExtent),
}

/// The evaluator for one resolved context expression.
pub struct Evaluator<'a> {
    ctx: &'a ResolvedContext,
    db: &'a Database,
    /// The compiled form: predicates, hints, owned edge info, and the
    /// cost-ordered span plans. Shared (via [`Evaluator::plan_handle`])
    /// with rule caches so delta steps skip recompilation.
    plan: Arc<CompiledContext>,
    /// Per slot: the membership constraint (see [`Members`]).
    memberships: Vec<Members<'a>>,
    /// Per edge, the closure's cycle edge last (see [`Self::cycle_edge`]):
    /// a derived edge bound to its source. Empty when no edge is derived.
    derived: Vec<Option<DerivedEdge<'a>>>,
}

/// A derived edge bound to its source subdatabase's index.
#[derive(Clone, Copy)]
struct DerivedEdge<'a> {
    /// The source's slot pair.
    pair: &'a SlotPair,
    /// Whether the edge's left→right runs against the pair's stored
    /// `min < max` orientation.
    flip: bool,
    /// Per direction (backward, forward): whether the slot a step lands in
    /// takes its membership from the source slot the partners come from,
    /// so that every partner is a member.
    lands: [bool; 2],
}

/// A pre-resolved index range scan for a slot condition.
#[derive(Debug, Clone)]
pub(crate) struct IndexScan {
    class: dood_core::ids::ClassId,
    attr: dood_core::ids::AssocId,
    op: CmpOp,
    value: Value,
}

impl IndexScan {
    /// The comparison as a range over the ordered index.
    fn bounds(&self) -> (std::ops::Bound<&Value>, std::ops::Bound<&Value>) {
        use std::ops::Bound::*;
        let v = &self.value;
        match self.op {
            CmpOp::Eq => (Included(v), Included(v)),
            CmpOp::Lt => (Unbounded, Excluded(v)),
            CmpOp::Le => (Unbounded, Included(v)),
            CmpOp::Gt => (Excluded(v), Unbounded),
            CmpOp::Ge => (Included(v), Unbounded),
            CmpOp::Neq => unreachable!("`!=` is never index-served"),
        }
    }

    /// The slot's candidate OIDs, straight from the ordered index.
    fn scan(&self, db: &Database) -> Option<Vec<Oid>> {
        let (lo, hi) = self.bounds();
        Some(db.attr_index(self.class, self.attr)?.range_scan(lo, hi))
    }

    /// How many candidates [`scan`](Self::scan) returns, counted over the
    /// index without collecting them: the planner's selectivity input.
    fn count(&self, db: &Database) -> Option<usize> {
        let (lo, hi) = self.bounds();
        Some(db.attr_index(self.class, self.attr)?.count(lo, hi))
    }
}

/// Detect an index-backed pre-filter for a compiled condition: a single
/// comparison other than `!=` (which keeps nearly everything, so scanning
/// is as good) on an attribute declared directly on the slot's base class
/// (no perspective climbing), with an index present in the store.
fn index_hint(slot_base: dood_core::ids::ClassId, cond: &CPred, db: &Database) -> Option<IndexScan> {
    match cond {
        CPred::Cmp { attr, op, value }
            if attr.up_chain.is_empty() && attr.owner == slot_base && *op != CmpOp::Neq =>
        {
            db.attr_index(slot_base, attr.attr)?;
            Some(IndexScan { class: slot_base, attr: attr.attr, op: *op, value: value.clone() })
        }
        _ => None,
    }
}

/// Bind derived slots and edges to their source subdatabases' access
/// indexes ([`Subdatabase::counted_extent`], [`Subdatabase::slot_pair`]).
/// Shared by [`Evaluator::new`] and [`Evaluator::with_compiled`].
#[allow(clippy::type_complexity)]
fn bind_sources<'a>(
    ctx: &'a ResolvedContext,
    registry: &'a SubdbRegistry,
) -> Result<(Vec<Members<'a>>, Vec<Option<DerivedEdge<'a>>>), QueryError> {
    let mut memberships = Vec::with_capacity(ctx.slots.len());
    for slot in &ctx.slots {
        match &slot.derived {
            Some((subdb, slot_name)) => {
                let entry = registry
                    .get(subdb)
                    .ok_or_else(|| QueryError::UnknownSubdb(subdb.clone()))?;
                let idx = entry.subdb.intension.slot_by_name(slot_name).ok_or_else(
                    || QueryError::UnknownSubdbClass {
                        subdb: subdb.clone(),
                        class: slot_name.clone(),
                    },
                )?;
                let extent = entry.subdb.counted_extent(idx).expect("a slot of the source");
                memberships.push(Members::Indexed(extent));
            }
            None => memberships.push(Members::Open),
        }
    }
    let kinds = ctx.edges.iter().map(|e| &e.kind).chain(ctx.closure.as_ref().map(|(_, k)| k));
    let derived = match kinds.clone().any(|k| matches!(k, REdgeKind::Derived { .. })) {
        true => kinds
            .enumerate()
            .map(|(i, k)| {
                let REdgeKind::Derived { subdb, a, b } = k else { return Ok(None) };
                let entry = registry
                    .get(subdb)
                    .ok_or_else(|| QueryError::UnknownSubdb(subdb.clone()))?;
                let (pair, flip) = entry
                    .subdb
                    .slot_pair(*a, *b)
                    .expect("resolved derived edge joins two distinct slots");
                // Edge `i` joins slots `i` and `i + 1`; the cycle edge lands
                // nowhere this holds for.
                let from_source = |slot: usize, of: usize| {
                    let name = &entry.subdb.intension.slots[of].name;
                    let source = ctx.slots.get(slot).and_then(|s| s.derived.as_ref());
                    i < ctx.edges.len() && source.is_some_and(|(s, n)| s == subdb && n == name)
                };
                let lands = [from_source(i, *a), from_source(i + 1, *b)];
                Ok(Some(DerivedEdge { pair, flip, lands }))
            })
            .collect::<Result<_, QueryError>>()?,
        false => Vec::new(),
    };
    Ok((memberships, derived))
}

/// Selectivity of a condition no index answers: the one constant the cost
/// model has for it.
const DEFAULT_SEL_COND: f64 = 0.33;

/// The cost-model inputs for `ctx` as the store counts them now: extent
/// sizes and link counts for base slots and associations, slot extents and
/// pair counts of the source's index for derived ones, and an exact count
/// over the ordered attribute index for an index-served condition. Plans
/// are therefore a function of the current data alone, never of what ran
/// before.
fn plan_inputs(
    ctx: &ResolvedContext,
    db: &Database,
    memberships: &[Members<'_>],
    derived: &[Option<DerivedEdge<'_>>],
    preds: &[Option<CPred>],
    hints: &[Option<IndexScan>],
) -> PlanInputs {
    let n = ctx.slots.len();
    let cards: Vec<f64> = (0..n)
        .map(|i| match &memberships[i] {
            Members::Open => db.extent_size(ctx.slots[i].base) as f64,
            Members::Indexed(extent) => extent.len() as f64,
        })
        .collect();
    let sels: Vec<f64> = (0..n)
        .map(|i| match (&hints[i], &preds[i]) {
            (Some(h), _) => {
                h.count(db).map_or(DEFAULT_SEL_COND, |hits| hits as f64 / cards[i].max(1.0))
            }
            (None, Some(_)) => DEFAULT_SEL_COND,
            (None, None) => 1.0,
        })
        .collect();
    let constrained: Vec<bool> = (0..n)
        .map(|i| preds[i].is_some() || !matches!(memberships[i], Members::Open))
        .collect();
    let hinted: Vec<bool> = hints.iter().map(Option::is_some).collect();
    let mut fwd_fan = Vec::with_capacity(ctx.edges.len());
    let mut rev_fan = Vec::with_capacity(ctx.edges.len());
    for (i, e) in ctx.edges.iter().enumerate() {
        let (f, r) = match &e.kind {
            REdgeKind::Base(ResolvedEdge::Assoc { assoc, forward, .. }) => {
                (assoc_fan(db, *assoc, *forward), assoc_fan(db, *assoc, !*forward))
            }
            REdgeKind::Base(ResolvedEdge::Identity { .. }) => (1.0, 1.0),
            REdgeKind::Derived { .. } => {
                let pairs = pair_count(derived, i);
                (pairs / cards[i].max(1.0), pairs / cards[i + 1].max(1.0))
            }
        };
        fwd_fan.push(f);
        rev_fan.push(r);
    }
    PlanInputs { cards, sels, fwd_fan, rev_fan, constrained, hinted }
}

/// Distinct co-bindings of derived edge `edge` (0 if it is not bound).
fn pair_count(derived: &[Option<DerivedEdge<'_>>], edge: usize) -> f64 {
    derived.get(edge).copied().flatten().map_or(0.0, |d| d.pair.pair_count() as f64)
}

/// Average neighbours per instance when traversing `assoc` in direction
/// `forward` (its own from→to orientation): links over the source extent.
fn assoc_fan(db: &Database, assoc: dood_core::ids::AssocId, forward: bool) -> f64 {
    let def = db.schema().assoc(assoc);
    let from = if forward { def.from } else { def.to };
    db.link_count(assoc) as f64 / db.extent_size(from).max(1) as f64
}

/// Lower a resolved context to its compiled form: read the cost-model
/// inputs from the store, pre-direct base edges, and order every
/// retention span.
fn build_plan(
    ctx: &ResolvedContext,
    db: &Database,
    memberships: &[Members<'_>],
    derived: &[Option<DerivedEdge<'_>>],
    preds: Vec<Option<CPred>>,
    hints: Vec<Option<IndexScan>>,
) -> CompiledContext {
    let inputs = plan_inputs(ctx, db, memberships, derived, &preds, &hints);
    let edges = ctx
        .edges
        .iter()
        .map(|e| {
            let nonassoc = matches!(e.op, crate::ast::PatOp::NonAssoc);
            match &e.kind {
                REdgeKind::Base(edge) => EdgeInfo {
                    nonassoc,
                    flat: match edge {
                        ResolvedEdge::Assoc { up_x, assoc, forward, up_y }
                            if up_x.is_empty() && up_y.is_empty() =>
                        {
                            Some((*assoc, *forward))
                        }
                        _ => None,
                    },
                    fwd: Some(edge.clone()),
                    rev: Some(reverse_edge(edge)),
                },
                REdgeKind::Derived { .. } => EdgeInfo { nonassoc, flat: None, fwd: None, rev: None },
            }
        })
        .collect();
    // Cyclic contexts get a closure stage: the `^N` cap, and the cycle
    // edge's fan-out for the plan's description.
    let closure = ctx.closure.as_ref().map(|(spec, kind)| crate::plan::ClosureParts {
        est_fan: match kind {
            REdgeKind::Base(ResolvedEdge::Assoc { assoc, forward, .. }) => {
                assoc_fan(db, *assoc, *forward)
            }
            REdgeKind::Base(ResolvedEdge::Identity { .. }) => 1.0,
            REdgeKind::Derived { .. } => {
                pair_count(derived, ctx.edges.len()) / inputs.cards[0].max(1.0)
            }
        },
        max_levels: spec.iterations.map(|i| i as usize + 1),
    });
    let parts = CompileParts {
        preds,
        hints,
        edges,
        slot_names: ctx.slots.iter().map(|s| s.name.clone()).collect(),
        span_bounds: ctx.spans.clone(),
        closure,
    };
    crate::plan::compile(parts, inputs)
}

impl<'a> Evaluator<'a> {
    /// Prepare an evaluator: compiles predicates into a cost-ordered
    /// [`CompiledContext`] (DESIGN.md §10) and binds derived slots and
    /// edges to their source subdatabases' access indexes
    /// ([`Subdatabase::counted_extent`], [`Subdatabase::slot_pair`]).
    /// Construction is O(1) in source size when
    /// the indexes already exist — the steady state for incremental rule
    /// maintenance, which constructs an evaluator per delta step against
    /// slowly-changing registered sources (and can skip even the
    /// compilation via [`Evaluator::with_compiled`]).
    pub fn new(
        ctx: &'a ResolvedContext,
        db: &'a Database,
        registry: &'a SubdbRegistry,
    ) -> Result<Self, QueryError> {
        let (memberships, derived) = bind_sources(ctx, registry)?;
        let mut preds = Vec::with_capacity(ctx.slots.len());
        for slot in &ctx.slots {
            preds.push(match &slot.cond {
                Some(p) => Some(compile_pred(p, slot, db.schema())?),
                None => None,
            });
        }
        let hints: Vec<Option<IndexScan>> = ctx
            .slots
            .iter()
            .zip(&preds)
            .map(|(slot, cond)| {
                // Index filtering only applies to base-class slots (derived
                // membership already narrows candidates).
                if slot.derived.is_some() {
                    return None;
                }
                cond.as_ref().and_then(|c| index_hint(slot.base, c, db))
            })
            .collect();
        let plan = Arc::new(build_plan(ctx, db, &memberships, &derived, preds, hints));
        Ok(Evaluator { ctx, db, plan, memberships, derived })
    }

    /// Prepare an evaluator around an already-compiled context (the rule
    /// cache hot path): binds sources but skips predicate compilation,
    /// hint detection, and plan ordering entirely. The plan must have been
    /// compiled for the same resolved context.
    pub fn with_compiled(
        ctx: &'a ResolvedContext,
        db: &'a Database,
        registry: &'a SubdbRegistry,
        plan: Arc<CompiledContext>,
    ) -> Result<Self, QueryError> {
        let (memberships, derived) = bind_sources(ctx, registry)?;
        Ok(Evaluator { ctx, db, plan, memberships, derived })
    }

    /// The compiled form, shareable with rule caches (cheap `Arc` clone).
    pub fn plan_handle(&self) -> Arc<CompiledContext> {
        Arc::clone(&self.plan)
    }

    /// The join order [`eval_delta`](Self::eval_delta) runs span
    /// `[lo, hi)` in when `card` dirty objects restrict `slot`: anchored
    /// at the restricted slot (the semi-naive delta anchor) instead of
    /// reusing the full-evaluation order, and costed from the counts now,
    /// so a plan cached at seeding still orders its delta steps for the
    /// data as it is.
    pub fn delta_plan(&self, lo: usize, hi: usize, slot: usize, card: usize) -> SpanPlan {
        self.plan.delta_span(lo, hi, slot, card as f64, self.inputs())
    }

    /// The cost-model inputs as the store and the bound sources count
    /// them now.
    fn inputs(&self) -> PlanInputs {
        plan_inputs(
            self.ctx,
            self.db,
            &self.memberships,
            &self.derived,
            &self.plan.preds,
            &self.plan.hints,
        )
    }

    /// Whether `oid` is currently a live instance of `slot`'s base class.
    /// Dirty sets deliberately keep deleted oids (so cached patterns that
    /// reference them are invalidated); a deleted or differently-classed
    /// oid must never *bind* a slot, or a slot-restricted re-derivation
    /// could resurrect patterns through the other slots.
    fn live_in_slot(&self, slot: usize, oid: Oid) -> bool {
        self.db.class_of(oid).is_ok_and(|c| c == self.ctx.slots[slot].base)
    }

    /// Semi-naive delta evaluation for incremental forward maintenance: the
    /// union, over every retention span and every slot of that span, of the
    /// span join with the slot's candidates restricted to `dirty` — i.e.
    /// every currently-valid pattern with **at least one delta-bound slot**.
    ///
    /// Deleted (or re-classified) oids in `dirty` cannot bind a slot and are
    /// skipped; their stale patterns are dropped by the caller's clean-keep
    /// pass. Returns the rows as one run, sorted and distinct: the joins
    /// emit a pattern with several dirty slots once per slot, and the run,
    /// sized from the joins' blocks, is sorted and deduplicated. No
    /// subsumption filtering is applied here — the caller unions the delta
    /// with the retained clean patterns first and re-filters. Not defined
    /// for cyclic (closure) contexts.
    pub fn eval_delta(&self, name: &str, dirty: &[Oid]) -> RowRun {
        debug_assert!(self.ctx.closure.is_none(), "closure contexts are re-derived in full");
        let width = self.ctx.slots.len();
        let mut sp = obs::trace::span("oql.delta");
        sp.label(|| name.to_string());
        sp.attr("dirty", dirty.len() as i64);
        let mut run = if width == 2
            && self.ctx.spans.as_slice() == [(0usize, 2usize)]
            && self.ctx.edges.len() == 1
            && matches!(self.ctx.edges[0].op, crate::ast::PatOp::Assoc)
        {
            // Binary single-span associative contexts — the paper's common
            // association-pair shape — emit their delta rows straight off
            // the edge: for each dirty oid qualifying for a slot, its
            // accepted partners across the (single) edge, walked once to
            // count the rows and once to write them. This skips the
            // generic join planner's row buffers; the row set is identical.
            let edge = &self.ctx.edges[0].kind;
            let each = |emit: &mut dyn FnMut([Oid; 2])| {
                for slot in 0..2usize {
                    let other = 1 - slot;
                    for &o in dirty {
                        if !self.live_in_slot(slot, o) || !self.accepts(slot, o) {
                            continue;
                        }
                        self.step(0, edge, o, slot == 0, |n| {
                            if self.accepts(other, n) {
                                emit(if slot == 0 { [o, n] } else { [n, o] });
                            }
                        });
                    }
                }
            };
            let mut n = 0;
            each(&mut |_| n += 1);
            let mut run = RowRun::with_capacity(2, n);
            each(&mut |[a, b]| run.push(&[Some(a), Some(b)]));
            run
        } else {
            // Every restricted slot's join writes its full-width rows into
            // one set of blocks, gathered once all are in so the run is
            // sized once. The delta plan anchors at the restricted slot, so
            // its candidates are the dirty oids that can bind it, which
            // stay ascending.
            let mut joins = RowBlocks::new(width);
            for &(lo, hi) in &self.ctx.spans {
                for slot in lo..hi {
                    let restricted: Vec<Oid> = dirty
                        .iter()
                        .copied()
                        .filter(|&o| self.live_in_slot(slot, o) && self.member_ok(slot, o))
                        .collect();
                    if restricted.is_empty() {
                        continue;
                    }
                    let dsp = self.delta_plan(lo, hi, slot, restricted.len());
                    self.exec_span(&dsp, self.passing(slot, restricted), &mut joins);
                }
            }
            let mut run = RowRun::with_capacity(width, joins.len());
            for r in joins.iter() {
                run.push(r.components());
            }
            run
        };
        let joined = run.len() as u64;
        run.sort();
        sp.attr("rows_out", joined as i64);
        if obs::metrics_enabled() {
            obs::metrics::counter("oql.delta.evals").inc();
            obs::metrics::counter("oql.delta.rows_out").add(joined);
        }
        run
    }

    /// Whether `oid` satisfies `slot`'s membership constraint.
    fn member_ok(&self, slot: usize, oid: Oid) -> bool {
        match &self.memberships[slot] {
            Members::Open => true,
            Members::Indexed(extent) => extent.contains(oid),
        }
    }

    /// Whether `oid` qualifies for `slot` (derived membership + intra-class
    /// condition; class correctness is guaranteed by traversal).
    fn accepts(&self, slot: usize, oid: Oid) -> bool {
        self.member_ok(slot, oid) && self.cond_ok(slot, oid)
    }

    /// Whether `oid` passes `slot`'s intra-class condition.
    fn cond_ok(&self, slot: usize, oid: Oid) -> bool {
        match &self.plan.preds[slot] {
            Some(p) => p.eval(self.db, oid),
            None => true,
        }
    }

    /// All qualifying instances of a slot, ascending.
    fn candidates(&self, slot: usize) -> Vec<Oid> {
        // E10: serve selective single-comparison conditions from the
        // store's ordered attribute index when one exists.
        if let Some(scan) = &self.plan.hints[slot] {
            if let Some(mut hits) = scan.scan(self.db) {
                hits.sort_unstable();
                if obs::metrics_enabled() {
                    obs::metrics::counter("oql.index_scan.served").inc();
                }
                return hits;
            }
        }
        let base: Vec<Oid> = match &self.memberships[slot] {
            Members::Open => self.db.extent(self.ctx.slots[slot].base).collect(),
            Members::Indexed(extent) => {
                let mut oids = Vec::with_capacity(extent.len());
                oids.extend(extent.oids());
                oids
            }
        };
        self.passing(slot, base)
    }

    /// The oids of `base` that pass `slot`'s intra-class condition.
    fn passing(&self, slot: usize, base: Vec<Oid>) -> Vec<Oid> {
        match &self.plan.preds[slot] {
            Some(p) => {
                let scanned = base.len();
                let kept: Vec<Oid> =
                    base.into_iter().filter(|&o| p.eval(self.db, o)).collect();
                if obs::metrics_enabled() {
                    obs::metrics::counter("oql.pred.scanned").add(scanned as u64);
                    obs::metrics::counter("oql.pred.kept").add(kept.len() as u64);
                }
                kept
            }
            None => base,
        }
    }

    /// Edge `edge` bound to its source, if it is derived.
    fn derived_edge(&self, edge: usize) -> Option<DerivedEdge<'a>> {
        self.derived.get(edge).copied().flatten()
    }

    /// The index of the closure's cycle edge, after the context's edges.
    fn cycle_edge(&self) -> usize {
        self.ctx.edges.len()
    }

    /// Traverse edge `edge_idx` from `oid`, handing each neighbour to
    /// `visit` in ascending order; `forward` follows left→right. A plain
    /// association walks the store's neighbour slice and a derived edge a
    /// head range of its slot pair; only an inherited or identity chain is
    /// traversed into a new list.
    fn step(
        &self,
        edge_idx: usize,
        kind: &REdgeKind,
        oid: Oid,
        forward: bool,
        visit: impl FnMut(Oid),
    ) {
        match kind {
            REdgeKind::Base(ResolvedEdge::Assoc { up_x, assoc, forward: f, up_y })
                if up_x.is_empty() && up_y.is_empty() =>
            {
                self.db.neighbors(*assoc, oid, forward == *f).iter().copied().for_each(visit)
            }
            REdgeKind::Base(edge) => {
                let next = match forward {
                    true => self.db.traverse(oid, edge),
                    false => self.db.traverse(oid, &reverse_edge(edge)),
                };
                next.into_iter().for_each(visit)
            }
            REdgeKind::Derived { .. } => {
                if let Some(d) = self.derived_edge(edge_idx) {
                    d.pair.neighbors(oid, forward ^ d.flip).for_each(visit)
                }
            }
        }
    }

    fn links(&self, edge_idx: usize, kind: &REdgeKind, x: Oid, y: Oid) -> bool {
        match kind {
            REdgeKind::Base(edge) => self.db.edge_links(x, edge, y),
            REdgeKind::Derived { .. } => self.derived_edge(edge_idx).is_some_and(|d| match d.flip {
                false => d.pair.contains(x, y),
                true => d.pair.contains(y, x),
            }),
        }
    }

    /// Execute one compiled span plan from the anchor's candidates `cands`
    /// through the fused DFS pipeline. Appends the bound rows to `out`,
    /// full-width and unsorted: every cell of the span's slots `lo..hi`
    /// bound, every other cell Null. The DFS visits candidates and
    /// neighbors in a fixed order, so the output order is deterministic.
    ///
    /// Emits the `oql.join` span with per-stage `oql.plan.*` children
    /// carrying estimated vs. measured cardinalities (the EXPLAIN ANALYZE
    /// payload `doodprof --plan` renders).
    fn exec_span(&self, sp: &SpanPlan, cands: Vec<Oid>, out: &mut RowBlocks) {
        let mut tsp = obs::trace::span("oql.join");
        tsp.attr("lo", sp.lo as i64);
        tsp.attr("hi", sp.hi as i64);
        tsp.attr("anchor", sp.anchor as i64);
        tsp.attr("rows_in", cands.len() as i64);
        // `!` stages enumerate the target slot's candidates; hoist each
        // list once per span instead of once per row.
        let na: Vec<Option<Vec<Oid>>> = sp
            .steps
            .iter()
            .map(|st| if st.nonassoc { Some(self.candidates(st.to_slot)) } else { None })
            .collect();
        let before = out.len();
        let (scanned, kept) = self.exec_span_rows(sp, &cands, &na, out);
        let rows_out = (out.len() - before) as u64;
        tsp.attr("rows_out", rows_out as i64);
        if let Some(a) = obs::account::active() {
            a.add_rows_scanned(cands.len() as u64 + scanned.iter().sum::<u64>());
            a.add_stage(
                format!("scan {}", self.plan.slot_names[sp.anchor]),
                sp.est_anchor,
                cands.len() as u64,
                cands.len() as u64,
            );
            for (i, st) in sp.steps.iter().enumerate() {
                a.add_stage(
                    format!(
                        "step {}{}{}",
                        self.plan.slot_names[st.from_slot],
                        if st.nonassoc { "!" } else { "->" },
                        self.plan.slot_names[st.to_slot]
                    ),
                    st.est_rows,
                    scanned[i],
                    kept[i],
                );
            }
        }
        if tsp.on() {
            let mut c = obs::trace::span("oql.plan.scan");
            c.label(|| self.plan.slot_names[sp.anchor].clone());
            c.attr("slot", sp.anchor as i64);
            c.attr("est", sp.est_anchor.round() as i64);
            c.attr("rows", cands.len() as i64);
            drop(c);
            for (i, st) in sp.steps.iter().enumerate() {
                let mut c = obs::trace::span("oql.plan.step");
                c.label(|| {
                    format!(
                        "{}{}{}",
                        self.plan.slot_names[st.from_slot],
                        if st.nonassoc { "!" } else { "->" },
                        self.plan.slot_names[st.to_slot]
                    )
                });
                c.attr("slot", st.to_slot as i64);
                c.attr("est", st.est_rows.round() as i64);
                c.attr("scanned", scanned[i] as i64);
                c.attr("rows", kept[i] as i64);
                drop(c);
            }
        }
        if obs::metrics_enabled() {
            obs::metrics::counter("oql.join.evals").inc();
            obs::metrics::counter("oql.join.rows_out").add(rows_out);
        }
    }

    /// The compiled span pipeline over a subset of the anchor's
    /// candidates. Appends the bound rows to `out` (full-width, Null
    /// outside `lo..hi`) and returns per-stage `(scanned, kept)` counters.
    fn exec_span_rows(
        &self,
        sp: &SpanPlan,
        cands: &[Oid],
        na: &[Option<Vec<Oid>>],
        out: &mut RowBlocks,
    ) -> (Vec<u64>, Vec<u64>) {
        let mut scanned = vec![0u64; sp.steps.len()];
        let mut kept = vec![0u64; sp.steps.len()];
        let mut row = vec![None; out.width()];
        for &o in cands {
            row[sp.anchor] = Some(o);
            self.exec_steps(sp, na, &mut row, 0, out, &mut scanned, &mut kept);
        }
        (scanned, kept)
    }

    /// One DFS level of the fused pipeline: traverse the stage's edge from
    /// the already-bound source slot, filter (membership + predicate),
    /// bind the target slot in the slot-indexed row buffer, and recurse.
    /// Rows are copied out at the leaves only, already full-width, onto the
    /// end of the output blocks — no per-row allocation, no per-stage row
    /// materialization or reorder pass.
    #[allow(clippy::too_many_arguments)]
    fn exec_steps(
        &self,
        sp: &SpanPlan,
        na: &[Option<Vec<Oid>>],
        row: &mut [Option<Oid>],
        depth: usize,
        out: &mut RowBlocks,
        scanned: &mut [u64],
        kept: &mut [u64],
    ) {
        if depth == sp.steps.len() {
            out.push(row);
            return;
        }
        let st = &sp.steps[depth];
        let from = row[st.from_slot].expect("a step starts at a bound slot");
        if st.nonassoc {
            // "A ! B": pairs whose instances are NOT associated.
            let kind = &self.ctx.edges[st.edge].kind;
            for &next in na[depth].as_ref().expect("hoisted ! candidates") {
                scanned[depth] += 1;
                let linked = if st.forward {
                    self.links(st.edge, kind, from, next)
                } else {
                    self.links(st.edge, kind, next, from)
                };
                if !linked {
                    kept[depth] += 1;
                    row[st.to_slot] = Some(next);
                    self.exec_steps(sp, na, row, depth + 1, out, scanned, kept);
                }
            }
            return;
        }
        // A partner over a derived edge is bound in the source slot it
        // comes from, so a slot whose membership is that slot's extent
        // takes it without a lookup.
        let derived = self.derived_edge(st.edge);
        let member = derived.is_some_and(|d| d.lands[usize::from(st.forward)])
            && matches!(self.memberships[st.to_slot], Members::Indexed(_));
        let visit = |next: Oid| {
            scanned[depth] += 1;
            if (member || self.member_ok(st.to_slot, next)) && self.cond_ok(st.to_slot, next) {
                kept[depth] += 1;
                row[st.to_slot] = Some(next);
                self.exec_steps(sp, na, row, depth + 1, out, scanned, kept);
            }
        };
        let info = &self.plan.edges[st.edge];
        if let Some((assoc, f)) = info.flat {
            // Plain association: zero-alloc neighbor slice from the store.
            self.db.neighbors(assoc, from, st.forward == f).iter().copied().for_each(visit)
        } else if let Some(fwd) = &info.fwd {
            // Chained base edge, pre-directed at compile time (no per-row
            // edge reversal).
            let e = if st.forward { fwd } else { info.rev.as_ref().expect("rev precomputed") };
            self.db.traverse(from, e).into_iter().for_each(visit)
        } else if let Some(d) = derived {
            d.pair.neighbors(from, st.forward ^ d.flip).for_each(visit)
        }
    }

    /// Evaluate a non-cyclic context: all retention spans joined, unioned,
    /// and subsumption-filtered.
    fn eval_flat(&self, name: &str, sp: &mut obs::trace::Span) -> Subdatabase {
        let mut sd = Subdatabase::new(name, self.intension());
        // Every span writes full-width rows, Null outside its slots, into
        // one set of blocks, so rows of different spans compare as the
        // patterns they are. The blocks become the extension's leaves, the
        // rows sorted first unless they came strictly ascending. A span
        // repeating an earlier one's slots adds nothing, so it is not run:
        // its `oql.join` span names the span it repeats.
        let spans = &self.plan.spans;
        let mut rows = RowBlocks::new(sd.intension.width());
        let mut shapes = 0;
        for (s, span) in spans.iter().enumerate() {
            match spans[..s].iter().position(|t| (t.lo, t.hi) == (span.lo, span.hi)) {
                None => {
                    self.exec_span(span, self.candidates(span.anchor), &mut rows);
                    shapes += 1;
                }
                Some(first) => {
                    let mut tsp = obs::trace::span("oql.join");
                    tsp.attr("lo", span.lo as i64);
                    tsp.attr("hi", span.hi as i64);
                    tsp.attr("repeats", first as i64);
                }
            }
        }
        sd.set_blocks(rows);
        // One span's patterns all have one type, so none is a strict part
        // of another: subsumption can drop something only between spans.
        let before = sd.len();
        if shapes > 1 {
            sd.retain_maximal();
        }
        let subsumed = before - sd.len();
        sp.attr("subsumed", subsumed as i64);
        if subsumed > 0 && obs::metrics_enabled() {
            obs::metrics::counter("oql.subsume.eliminated").add(subsumed as u64);
        }
        sd
    }

    /// The intensional pattern of the (non-cyclic) result.
    fn intension(&self) -> Intension {
        let mut int = Intension::new(
            self.ctx
                .slots
                .iter()
                .map(|s| SlotDef {
                    name: s.name.clone(),
                    base: s.base,
                    source: match &s.derived {
                        Some((subdb, slot)) => {
                            SlotSource::Derived { subdb: subdb.clone(), slot: slot.clone() }
                        }
                        None => SlotSource::Base,
                    },
                    attrs: s.attr_filter.clone(),
                })
                .collect(),
        );
        for i in 0..self.ctx.edges.len() {
            int.add_edge(i, i + 1);
        }
        int
    }

    /// Evaluate the context expression into a subdatabase named `name`.
    pub fn eval(&self, name: &str) -> Subdatabase {
        let mut sp = obs::trace::span("oql.context");
        sp.label(|| name.to_string());
        let sd = match &self.ctx.closure {
            None => self.eval_flat(name, &mut sp),
            Some(_) => self.eval_closure_kernel(name, &mut sp).0,
        };
        sp.attr("rows_out", sd.len() as i64);
        if let Some(a) = obs::account::active() {
            a.add_patterns_built(sd.len() as u64);
        }
        sd
    }

    /// The runtime intension of a closure result at the given width:
    /// `C, C_1, …, C_{width-1}` over the cycle class (§5.2), consecutive
    /// slots linked.
    pub fn closure_intension(&self, width: usize) -> Intension {
        let cls = &self.ctx.slots[0];
        let slot_defs: Vec<SlotDef> = (0..width)
            .map(|lvl| SlotDef {
                name: if lvl == 0 { cls.name.clone() } else { format!("{}_{lvl}", cls.name) },
                base: cls.base,
                source: match &cls.derived {
                    Some((subdb, slot)) => {
                        SlotSource::Derived { subdb: subdb.clone(), slot: slot.clone() }
                    }
                    None => SlotSource::Base,
                },
                attrs: cls.attr_filter.clone(),
            })
            .collect();
        let mut int = Intension::new(slot_defs);
        for i in 0..width.saturating_sub(1) {
            int.add_edge(i, i + 1);
        }
        int
    }

    /// Hoisted `!`-stage candidate lists for the compiled chain span
    /// (computed once per expansion, not once per node).
    fn closure_na(&self) -> Vec<Option<Vec<Oid>>> {
        let chain = &self.plan.closure.as_ref().expect("closure plan").chain;
        chain
            .steps
            .iter()
            .map(|st| if st.nonassoc { Some(self.candidates(st.to_slot)) } else { None })
            .collect()
    }

    /// Compute the successor relation of a batch of slot-0 nodes: run the
    /// fused chain join with the batch as (unchecked) anchor candidates,
    /// then the cycle step from each produced row's last slot, filtered by
    /// slot 0's acceptance — one batched join, not a re-join per node.
    /// Returns the `(node, successor)` rows, sorted and distinct, so a
    /// node's list is its head range. Under `^0` no chain reads a list,
    /// and none is computed.
    ///
    /// The cycle step lands in slot 0's class, so a successor that passes
    /// slot 0's membership and condition is itself a root: expanding the
    /// roots once gives the whole successor relation, and no successor
    /// ever needs a list of its own beyond the one it has as a root.
    pub fn closure_succ_batch(&self, nodes: &[Oid]) -> RowRun {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "batch ascending and distinct");
        let mut out = RowRun::new(2);
        let capped = self.plan.closure.as_ref().is_some_and(|c| c.max_levels == Some(1));
        if nodes.is_empty() || capped {
            return out;
        }
        let n = self.ctx.slots.len();
        let (_, cycle) = self.ctx.closure.as_ref().expect("closure context");
        let mut push_succs = |node: Oid, last: Oid| {
            self.step(self.cycle_edge(), cycle, last, true, |s| {
                if self.accepts(0, s) {
                    debug_assert!(self.live_in_slot(0, s), "a successor is a root");
                    out.push(&[Some(node), Some(s)]);
                }
            })
        };
        if n == 1 {
            // Single-slot chain: the cycle step is the whole join.
            nodes.iter().for_each(|&o| push_succs(o, o));
        } else {
            let chain = &self.plan.closure.as_ref().expect("closure plan").chain;
            let mut rows = RowBlocks::new(n);
            self.exec_span_rows(chain, nodes, &self.closure_na(), &mut rows);
            for row in rows.iter() {
                let first = row.get(0).expect("a chain row is bound");
                push_succs(first, row.get(n - 1).expect("a chain row is bound"));
            }
        }
        out.sort();
        out
    }

    /// The successor relation: the roots are the slot-0 candidates, and
    /// one expansion of them gives every list the chain walk can read (see
    /// [`closure_succ_batch`](Self::closure_succ_batch)).
    fn closure_fixpoint(&self) -> ClosureState {
        let mut tsp = obs::trace::span("oql.closure");
        let roots = self.candidates(0);
        tsp.attr("roots", roots.len() as i64);
        let pairs = self.closure_succ_batch(&roots);
        let expand = self.plan.closure.as_ref().expect("closure plan").max_levels != Some(1)
            && !roots.is_empty();
        let steps = if expand { roots.len() as u64 } else { 0 };
        let mut succ = RowStore::new(2);
        succ.set_run(&pairs);
        tsp.attr("steps", steps as i64);
        if obs::metrics_enabled() {
            obs::metrics::counter("oql.closure.steps").add(steps);
        }
        if let Some(a) = obs::account::active() {
            a.add_closure_rounds(u64::from(expand));
            a.add_rows_scanned(steps);
        }
        ClosureState { succ, roots }
    }

    /// The DFS over the successor relation from `roots` that yields the
    /// maximal root-to-leaf chains (per-path cycle cut, `^N` length cap).
    /// `succ` must hold the list of every node the walk can reach below
    /// the cap: [`closure_fixpoint`](Self::closure_fixpoint) expands every
    /// slot-0 candidate and a successor is always one, and the incremental
    /// path keeps the list of every root. With `roots` ascending and
    /// distinct, the chains come out ascending and distinct.
    fn chain_walk<'s>(
        &self,
        roots: &'s [Oid],
        succ: &RowStore,
        buf: &'s mut WalkBuffers,
    ) -> ChainWalk<'s> {
        let max_levels = self.plan.closure.as_ref().and_then(|c| c.max_levels);
        ChainWalk::new(roots, succ, max_levels, buf)
    }

    /// The maximal chains from `roots` (see
    /// [`chain_walk`](Self::chain_walk)) in one flat buffer: a counting
    /// walk sizes it exactly, a second walk writes it. The walk runs in
    /// `buf`.
    pub fn closure_chains(&self, roots: &[Oid], succ: &RowStore, buf: &mut WalkBuffers) -> Chains {
        let (mut chains, mut cells) = (0, 0);
        let mut walk = self.chain_walk(roots, succ, buf);
        while let Some(c) = walk.next_chain() {
            (chains, cells) = (chains + 1, cells + c.len());
        }
        let mut out = Chains::with_capacity(chains, cells);
        walk.rewind();
        while let Some(c) = walk.next_chain() {
            out.push(c.iter().copied());
        }
        out
    }

    /// Evaluate a cyclic expression (DESIGN.md §11): builds the instance
    /// hierarchies of §5.2 by one batched expansion of the roots into the
    /// successor relation, then one DFS emitting maximal chains. The runtime
    /// intension is `C, C_1, …, C_k` where `C` is the cycle class and `k`
    /// is data-dependent ("the intensional pattern of the derived
    /// subdatabase is determined at runtime") or capped by the `^N`
    /// iteration count. Patterns are the *maximal* root-to-leaf chains
    /// (shorter chains are parts of longer ones and are dropped, matching
    /// the paper's braced iteration semantics); cyclic data is cut rather
    /// than diverging (the paper assumes acyclic instance relationships).
    /// Returns the provenance state alongside the result so rule caches
    /// can maintain the fixpoint incrementally.
    fn eval_closure_kernel(
        &self,
        name: &str,
        sp: &mut obs::trace::Span,
    ) -> (Subdatabase, ClosureState) {
        let state = self.closure_fixpoint();
        sp.attr("roots", state.roots.len() as i64);
        // The chains go straight from the walk into the result's leaves: a
        // counting walk gives their number and the width, a second one
        // writes them, in order, so no chain is held anywhere else.
        let (mut chains, mut width) = (0, 1);
        let mut buf = WalkBuffers::default();
        let mut walk = self.chain_walk(&state.roots, &state.succ, &mut buf);
        while let Some(c) = walk.next_chain() {
            (chains, width) = (chains + 1, width.max(c.len()));
        }
        sp.attr("chains", chains as i64);
        sp.attr("width", width as i64);
        let mut sd = Subdatabase::new(name, self.closure_intension(width));
        walk.rewind();
        sd.set_sorted_rows(chains, |row| {
            for (c, &o) in row.iter_mut().zip(walk.next_chain().expect("counted")) {
                *c = Some(o);
            }
        });
        (sd, state)
    }

    /// Evaluate a closure context, returning the result *and* the
    /// successor-relation provenance ([`ClosureState`]) that
    /// `rules::maintain` caches for incremental fixpoint maintenance.
    pub fn eval_closure_state(&self, name: &str) -> (Subdatabase, ClosureState) {
        let mut sp = obs::trace::span("oql.context");
        sp.label(|| name.to_string());
        let (sd, state) = self.eval_closure_kernel(name, &mut sp);
        sp.attr("rows_out", sd.len() as i64);
        if let Some(a) = obs::account::active() {
            a.add_patterns_built(sd.len() as u64);
        }
        (sd, state)
    }

    /// Whether `oid` can currently seed a chain (live instance of the
    /// cycle class passing slot 0's membership + condition).
    pub fn closure_root_ok(&self, oid: Oid) -> bool {
        self.live_in_slot(0, oid) && self.accepts(0, oid)
    }

    /// The slot-0 nodes whose successor lists may differ from a cached
    /// fixpoint, given the dirty object set: for each chain position `k`,
    /// join the chain prefix `[0, k+1)` backward from the dirty objects
    /// that can bind position `k` (anchor unchecked — a flipped condition
    /// or dead membership must still tear down old derivations), plus, at
    /// the last position, the reverse-cycle predecessors of dirty slot-0
    /// objects (an acceptance flip on `s` changes every list that reaches
    /// `s` over the cycle edge). Completeness follows from the leftmost
    /// change position of any vanished or appearing derivation row: all
    /// positions strictly left of it are intact in current data, so the
    /// backward join from the dirty witness reaches the origin.
    pub fn closure_affected(&self, dirty: &[Oid]) -> Vec<Oid> {
        let n = self.ctx.slots.len();
        let (_, cycle) = self.ctx.closure.as_ref().expect("closure context");
        let mut out: Vec<Oid> = Vec::new();
        let mut inputs = None;
        for k in 0..n {
            let mut anchor: Vec<Oid> =
                dirty.iter().copied().filter(|&o| self.live_in_slot(k, o)).collect();
            if k == n - 1 {
                for o in dirty.iter().copied().filter(|&o| self.live_in_slot(0, o)) {
                    self.step(self.cycle_edge(), cycle, o, false, |l| {
                        if self.live_in_slot(n - 1, l) {
                            anchor.push(l);
                        }
                    });
                }
                anchor.sort_unstable();
                anchor.dedup();
            }
            if anchor.is_empty() {
                continue;
            }
            if k == 0 {
                out.extend(anchor);
                continue;
            }
            let inputs = inputs.get_or_insert_with(|| self.inputs());
            let spp = crate::plan::plan_span_anchored(0, k + 1, k, inputs, &self.plan.edges);
            let na: Vec<Option<Vec<Oid>>> = spp
                .steps
                .iter()
                .map(|st| if st.nonassoc { Some(self.candidates(st.to_slot)) } else { None })
                .collect();
            let mut rows = RowBlocks::new(n);
            self.exec_span_rows(&spp, &anchor, &na, &mut rows);
            out.extend(rows.iter().map(|r| r.get(0).expect("a prefix row is bound")));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Closure chains in one flat buffer: the nodes of every chain back to
/// back, and where each chain ends.
#[derive(Debug)]
pub struct Chains {
    cells: Vec<Oid>,
    ends: Vec<u32>,
}

impl Chains {
    /// An empty buffer with room for exactly `chains` chains of `cells`
    /// nodes in all.
    pub fn with_capacity(chains: usize, cells: usize) -> Self {
        Chains { cells: Vec::with_capacity(cells), ends: Vec::with_capacity(chains) }
    }

    /// Append a chain.
    pub fn push(&mut self, chain: impl IntoIterator<Item = Oid>) {
        self.cells.extend(chain);
        self.ends.push(u32::try_from(self.cells.len()).expect("at most 2^32 chain nodes"));
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there is no chain.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Chain `i`.
    pub fn get(&self, i: usize) -> &[Oid] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.cells[start..self.ends[i] as usize]
    }

    /// Every chain, in buffer order.
    pub fn iter(&self) -> impl Iterator<Item = &[Oid]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

/// The buffers of a chain walk. A caller that walks again and again (a
/// closure rule's cache) keeps them, so that once they have grown a walk
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct WalkBuffers {
    /// The nodes the walk can reach from its roots, ascending, each with
    /// where its list starts and ends in `edges`.
    heads: Vec<(Oid, u32, u32)>,
    /// Every reached node's successors, each with the index of its own
    /// list in `heads`.
    edges: Vec<(Oid, u32)>,
    /// The current path (first a stack of nodes to expand).
    path: Vec<Oid>,
    /// Per node on the path: the next edge of its list to try, the end of
    /// the list, and whether it has had a child.
    rest: Vec<(u32, u32, bool)>,
}

/// The depth-first walk behind [`Evaluator::chain_walk`], one maximal
/// chain per [`ChainWalk::next_chain`] call. The lists of the nodes the
/// roots reach are read once, when the walk starts, into a flat copy in
/// which each edge names the position of its successor's own list, so that
/// entering a node over an edge is O(1) and only a root's list is searched
/// for; a walk from a few roots copies only what they reach. The state is
/// the current path and, per node on it, the rest of its list still to try
/// (none at the length cap) and whether it has had a child. A node is a
/// leaf when none of the successors left to it is off the path — which
/// includes a node with no successor row at all.
struct ChainWalk<'s> {
    buf: &'s mut WalkBuffers,
    max_levels: Option<usize>,
    all_roots: &'s [Oid],
    roots: std::slice::Iter<'s, Oid>,
    /// The path ends in the leaf handed out last, to be popped first.
    at_leaf: bool,
}

impl<'s> ChainWalk<'s> {
    fn new(
        roots: &'s [Oid],
        succ: &RowStore,
        max_levels: Option<usize>,
        buf: &'s mut WalkBuffers,
    ) -> Self {
        let next = |r: (Row<'_>, ())| r.0.get(1).expect("an edge row is bound");
        let at = |i: usize| u32::try_from(i).expect("at most 2^32 successor rows");
        let find = |heads: &[(Oid, u32, u32)], o: &Oid| heads.binary_search_by_key(o, |h| h.0);
        let WalkBuffers { heads, edges, path, rest } = buf;
        (heads.clear(), edges.clear(), path.clear(), rest.clear());
        // A depth-first search from the roots, with `path` as its stack,
        // copies each node's list as it takes the node off the stack.
        heads.extend(roots.iter().map(|&r| (r, 0, 0)));
        path.extend_from_slice(roots);
        while let Some(node) = path.pop() {
            let start = edges.len();
            edges.extend(succ.head_range(Some(node)).map(|r| (next(r), 0)));
            for &(s, _) in &edges[start..] {
                if let Err(i) = find(heads, &s) {
                    heads.insert(i, (s, 0, 0));
                    path.push(s);
                }
            }
            let i = find(heads, &node).expect("a node taken off the stack is reached");
            (heads[i].1, heads[i].2) = (at(start), at(edges.len()));
        }
        for (s, list) in edges.iter_mut() {
            *list = at(find(heads, s).expect("a successor is reached"));
        }
        ChainWalk { buf, max_levels, all_roots: roots, roots: roots.iter(), at_leaf: false }
    }

    /// Start a finished walk over from the first root, keeping the path's
    /// buffers.
    fn rewind(&mut self) {
        debug_assert!(self.buf.path.is_empty(), "rewound in mid-walk");
        self.roots = self.all_roots.iter();
    }

    /// Put `node`, whose list is `list`, on the path.
    fn enter(&mut self, node: Oid, list: u32) {
        let WalkBuffers { heads, path, rest, .. } = &mut *self.buf;
        path.push(node);
        let (start, end) = match self.max_levels.is_some_and(|m| path.len() >= m) {
            true => (0, 0),
            false => (heads[list as usize].1, heads[list as usize].2),
        };
        rest.push((start, end, false));
    }

    /// The next maximal chain, root first.
    fn next_chain(&mut self) -> Option<&[Oid]> {
        if std::mem::take(&mut self.at_leaf) {
            self.buf.path.pop();
            self.buf.rest.pop();
        }
        loop {
            let WalkBuffers { heads, edges, path, rest } = &mut *self.buf;
            let Some((start, end, had_child)) = rest.last_mut() else {
                let &root = self.roots.next()?;
                let list = heads.binary_search_by_key(&root, |h| h.0);
                self.enter(root, list.expect("a root is reached") as u32);
                continue;
            };
            let list = &edges[*start as usize..*end as usize];
            match list.iter().position(|(n, _)| !path.contains(n)) {
                Some(k) => {
                    let (next, its) = list[k];
                    (*start, *had_child) = (*start + k as u32 + 1, true);
                    self.enter(next, its);
                }
                None if *had_child => {
                    path.pop();
                    rest.pop();
                }
                None => {
                    self.at_leaf = true;
                    return Some(&self.buf.path);
                }
            }
        }
    }
}

/// The successor relation a closure fixpoint computed, exposed as
/// provenance for incremental maintenance: `rules::maintain` caches it per
/// closure rule and extends/prunes it on deltas instead of recomputing the
/// fixpoint (DESIGN.md §11).
#[derive(Debug, Clone)]
pub struct ClosureState {
    /// The `(node, successor)` rows: per expanded node, its successors
    /// (the chain join from the node plus the cycle step, slot-0-filtered)
    /// as one head range.
    pub succ: RowStore,
    /// The root set the chains started from (sorted slot-0 candidates).
    pub roots: Vec<Oid>,
}

/// Invert a resolved edge for right-to-left traversal.
fn reverse_edge(e: &dood_core::schema::ResolvedEdge) -> dood_core::schema::ResolvedEdge {
    use dood_core::schema::ResolvedEdge::*;
    match e {
        Assoc { up_x, assoc, forward, up_y } => Assoc {
            up_x: up_y.clone(),
            assoc: *assoc,
            forward: !forward,
            up_y: up_x.clone(),
        },
        Identity { up_x, down_y } => Identity {
            up_x: down_y.iter().rev().copied().collect(),
            down_y: up_x.iter().rev().copied().collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;
    use crate::resolve::resolve_context;
    use dood_core::schema::SchemaBuilder;
    use dood_core::subdb::{ExtPattern, Row};
    use dood_core::value::DType;
    use std::collections::BTreeSet;

    /// A miniature database: teachers teach sections of courses.
    fn setup() -> (Database, SubdbRegistry) {
        let mut b = SchemaBuilder::new();
        b.e_class("Teacher");
        b.e_class("Section");
        b.e_class("Course");
        b.d_class("c#", DType::Int);
        b.attr_named("Course", "c#", "c#");
        b.aggregate_named("Teacher", "Section", "Teaches");
        b.aggregate_single("Section", "Course");
        let mut db = Database::new(b.build().unwrap());
        let s = db.schema_arc();
        let teacher = s.class_by_name("Teacher").unwrap();
        let section = s.class_by_name("Section").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let teaches = s.own_link_by_name(teacher, "Teaches").unwrap();
        let of_course = s.own_link_by_name(section, "Course").unwrap();
        // t1 -> s1 -> c1 ; t2 -> s2 -> c1 ; t3 -> s3 (no course) ; c2 alone.
        let t1 = db.new_object(teacher).unwrap();
        let t2 = db.new_object(teacher).unwrap();
        let t3 = db.new_object(teacher).unwrap();
        let s1 = db.new_object(section).unwrap();
        let s2 = db.new_object(section).unwrap();
        let s3 = db.new_object(section).unwrap();
        let c1 = db.new_object(course).unwrap();
        let c2 = db.new_object(course).unwrap();
        db.set_attr(c1, "c#", Value::Int(6100)).unwrap();
        db.set_attr(c2, "c#", Value::Int(5100)).unwrap();
        db.associate(teaches, t1, s1).unwrap();
        db.associate(teaches, t2, s2).unwrap();
        db.associate(teaches, t3, s3).unwrap();
        db.associate(of_course, s1, c1).unwrap();
        db.associate(of_course, s2, c1).unwrap();
        (db, SubdbRegistry::new())
    }

    fn eval(src: &str, db: &Database, reg: &SubdbRegistry) -> Subdatabase {
        let e = Parser::parse_context_expr(src).unwrap();
        let r = resolve_context(&e, db.schema(), reg).unwrap();
        Evaluator::new(&r, db, reg).unwrap().eval("test")
    }

    /// Nested braces over the same classes give two retention spans over
    /// the same slots; the second adds no pattern.
    #[test]
    fn repeated_brace_span_adds_nothing() {
        let (db, reg) = setup();
        let e = Parser::parse_context_expr("{{Teacher}} * Section * Course").unwrap();
        let r = resolve_context(&e, db.schema(), &reg).unwrap();
        assert_eq!(r.spans, vec![(0, 3), (0, 1), (0, 1)]);
        let twice = Evaluator::new(&r, &db, &reg).unwrap().eval("test");
        let once = eval("{Teacher} * Section * Course", &db, &reg);
        assert_eq!(twice.to_vec(), once.to_vec());
    }

    #[test]
    fn association_operator_inner_join() {
        let (db, reg) = setup();
        let sd = eval("Teacher * Section * Course", &db, &reg);
        // Only the two fully-connected chains survive (t3's section has no
        // course).
        assert_eq!(sd.len(), 2);
        assert!(sd.patterns().all(|p| p.pattern_type().arity() == 3));
    }

    #[test]
    fn intra_class_condition_filters() {
        let (db, reg) = setup();
        let sd = eval("Section * Course [c# >= 6000 and c# < 7000]", &db, &reg);
        assert_eq!(sd.len(), 2); // both sections of c1 (6100)
        let sd2 = eval("Section * Course [c# < 6000]", &db, &reg);
        assert_eq!(sd2.len(), 0); // c2 has no sections
    }

    /// `{Teacher * Section} * Course`: teacher-section pairs survive even
    /// without a course, unless part of a full chain. Subsumption between
    /// the two spans drops exactly the covered partials: `(t1, s1)` and
    /// `(t2, s2)` go, `(t3, s3)`, whose section has no course, stays.
    #[test]
    fn braces_retain_partial_patterns() {
        let (db, reg) = setup();
        let full = eval("Teacher * Section * Course", &db, &reg).to_vec();
        let pairs = eval("Teacher * Section", &db, &reg).to_vec();
        let (covered, kept): (Vec<_>, Vec<_>) = pairs
            .iter()
            .map(|p| ExtPattern::new([p.get(0), p.get(1), None]))
            .partition(|partial| full.iter().any(|f| partial.is_part_of(f)));
        assert_eq!((covered.len(), kept.len()), (2, 1));
        let mut want: Vec<ExtPattern> = full.into_iter().chain(kept).collect();
        want.sort();
        assert_eq!(eval("{Teacher * Section} * Course", &db, &reg).to_vec(), want);
    }

    /// A one-span context skips the subsumption pass; its extension is the
    /// span's raw join rows built by `set_patterns` and then filtered by
    /// `retain_maximal`. The queries anchor where the planner likes, so
    /// some runs arrive unsorted.
    #[test]
    fn one_span_extension_equals_set_patterns_then_retain_maximal() {
        let (db, reg) = setup();
        let queries = ["Teacher * Section * Course", "Section ! Course", "Section * Course [c# >= 6000]"];
        for q in queries {
            let e = Parser::parse_context_expr(q).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            let ev = Evaluator::new(&r, &db, &reg).unwrap();
            assert_eq!(ev.plan.spans.len(), 1, "{q}");
            let mut want = Subdatabase::new("test", ev.intension());
            let mut rows = RowBlocks::new(want.intension.width());
            let span = &ev.plan.spans[0];
            ev.exec_span(span, ev.candidates(span.anchor), &mut rows);
            want.set_patterns(rows.iter());
            want.retain_maximal();
            assert!(!want.is_empty(), "{q}");
            assert_eq!(ev.eval("test").to_vec(), want.to_vec(), "{q}");
        }
    }

    #[test]
    fn non_association_operator() {
        let (db, reg) = setup();
        // Sections NOT of any course paired with every course? The paper's
        // `!` relates instance pairs that are not associated.
        let sd = eval("Section ! Course", &db, &reg);
        // s1: not linked to c2 → (s1,c2); s2: (s2,c2); s3: (s3,c1),(s3,c2).
        assert_eq!(sd.len(), 4);
    }

    #[test]
    fn closure_until_null() {
        // Prerequisite chain: c1 <- c2 <- c3 (c3's prereq is c2, …).
        let mut b = SchemaBuilder::new();
        b.e_class("Course");
        b.aggregate_named("Course", "Course", "Prereq");
        let mut db = Database::new(b.build().unwrap());
        let course = db.schema().class_by_name("Course").unwrap();
        let prereq = db.schema().assocs()[0].id;
        let c1 = db.new_object(course).unwrap();
        let c2 = db.new_object(course).unwrap();
        let c3 = db.new_object(course).unwrap();
        db.associate(prereq, c3, c2).unwrap();
        db.associate(prereq, c2, c1).unwrap();
        let reg = SubdbRegistry::new();
        let sd = eval("Course ^*", &db, &reg);
        // Maximal chains: (c3,c2,c1) plus roots c1 (no prereq) and c2?
        // c2's chain (c2,c1) is part of (c3,c2,c1)? No — "part of" compares
        // positionally: (c2,c1,Null) vs (c3,c2,c1) differ at slot 0, so both
        // remain. c1 alone: (c1,Null,Null).
        assert_eq!(sd.intension.width(), 3);
        assert_eq!(sd.len(), 3);
        let widths: Vec<u32> = sd.patterns().map(|p| p.pattern_type().arity()).collect();
        assert_eq!(widths.iter().sum::<u32>(), 6); // 3 + 2 + 1
    }

    #[test]
    fn closure_bounded_iterations() {
        let mut b = SchemaBuilder::new();
        b.e_class("Course");
        b.aggregate_named("Course", "Course", "Prereq");
        let mut db = Database::new(b.build().unwrap());
        let course = db.schema().class_by_name("Course").unwrap();
        let prereq = db.schema().assocs()[0].id;
        let cs: Vec<Oid> = (0..5).map(|_| db.new_object(course).unwrap()).collect();
        for w in cs.windows(2) {
            db.associate(prereq, w[0], w[1]).unwrap();
        }
        let reg = SubdbRegistry::new();
        let sd = eval("Course ^2", &db, &reg);
        // Max chain length = 3 slots (level 0 + 2 iterations).
        assert_eq!(sd.intension.width(), 3);
        assert!(sd.patterns().all(|p| p.pattern_type().arity() <= 3));
    }

    #[test]
    fn closure_cycle_protection() {
        // a -> b -> a: cyclic instance data must terminate.
        let mut b = SchemaBuilder::new();
        b.e_class("N");
        b.aggregate_named("N", "N", "next");
        let mut db = Database::new(b.build().unwrap());
        let n = db.schema().class_by_name("N").unwrap();
        let next = db.schema().assocs()[0].id;
        let x = db.new_object(n).unwrap();
        let y = db.new_object(n).unwrap();
        db.associate(next, x, y).unwrap();
        db.associate(next, y, x).unwrap();
        let reg = SubdbRegistry::new();
        let sd = eval("N ^*", &db, &reg);
        // Chains (x,y) and (y,x), cut at revisit.
        assert_eq!(sd.intension.width(), 2);
        assert_eq!(sd.len(), 2);
    }

    #[test]
    fn dfs_chains_ends_a_chain_at_a_node_without_a_successor_list() {
        // 1 -> {2, 3}, 3 -> {1} (cut on the path); 2 has no list at all.
        let c = |v: &[u64]| v.iter().map(|&o| Oid::from_raw(o)).collect::<Vec<_>>();
        let mut edges = RowRun::new(2);
        for (n, s) in [(1, 2), (1, 3), (3, 1)] {
            edges.push(&[Some(Oid::from_raw(n)), Some(Oid::from_raw(s))]);
        }
        let mut succ = RowStore::new(2);
        succ.set_run(&edges);
        let walk = |roots: &[Oid], max: Option<usize>| {
            let mut buf = WalkBuffers::default();
            let mut walk = ChainWalk::new(roots, &succ, max, &mut buf);
            let mut out: Vec<Vec<Oid>> = Vec::new();
            while let Some(c) = walk.next_chain() {
                out.push(c.to_vec());
            }
            assert!(walk.next_chain().is_none(), "the walk stays done");
            walk.rewind();
            assert_eq!(walk.next_chain().map(<[Oid]>::to_vec), out.first().cloned(), "rewound");
            out
        };
        assert_eq!(walk(&c(&[1]), None), vec![c(&[1, 2]), c(&[1, 3])]);
        assert_eq!(walk(&c(&[2]), None), vec![c(&[2])]);
        assert_eq!(walk(&c(&[1]), Some(1)), vec![c(&[1])]);
        assert_eq!(walk(&c(&[1, 3]), Some(2)), vec![c(&[1, 2]), c(&[1, 3]), c(&[3, 1])]);
        assert_eq!(walk(&c(&[3]), None), vec![c(&[3, 1, 2])]);
    }

    /// The chains of a depth-first walk over `adj` from `roots`, written the
    /// plain way: recursion, a cycle cut per path, the length cap, a chain
    /// per node that has no child.
    fn reference_chains(
        roots: &[Oid],
        adj: &std::collections::BTreeMap<Oid, Vec<Oid>>,
        max: Option<usize>,
    ) -> Vec<Vec<Oid>> {
        fn go(
            path: &mut Vec<Oid>,
            adj: &std::collections::BTreeMap<Oid, Vec<Oid>>,
            max: Option<usize>,
            out: &mut Vec<Vec<Oid>>,
        ) {
            let mut had_child = false;
            if max.is_none_or(|m| path.len() < m) {
                let node = *path.last().expect("a non-empty path");
                for &s in adj.get(&node).map_or(&[][..], Vec::as_slice) {
                    if !path.contains(&s) {
                        had_child = true;
                        path.push(s);
                        go(path, adj, max, out);
                        path.pop();
                    }
                }
            }
            if !had_child {
                out.push(path.clone());
            }
        }
        let mut out = Vec::new();
        for &r in roots {
            go(&mut vec![r], adj, max, &mut out);
        }
        out
    }

    /// A walk that reaches many nodes, over a 2 000-node chain with a back
    /// edge, numbered up and numbered down, and over a binary tree with
    /// back edges, from one root and from several, with and without a
    /// cap, gives the chains of the plain recursive walk — one buffer
    /// reused for every walk.
    #[test]
    fn walks_that_reach_many_nodes_give_the_plain_walks_chains() {
        let o = Oid::from_raw;
        let chain = |up: bool| -> Vec<(u64, u64)> {
            let id = |i: u64| if up { i } else { 2001 - i };
            let mut edges: Vec<(u64, u64)> = (1..2000).map(|i| (id(i), id(i + 1))).collect();
            edges.push((id(2000), id(1000)));
            edges
        };
        let tree: Vec<(u64, u64)> = (1..64u64)
            .flat_map(|i| [(i, 2 * i), (i, 2 * i + 1), (i, (i * 7) % 63 + 1)])
            .collect();
        let mut buf = WalkBuffers::default();
        for (edges, roots) in [
            (chain(true), vec![1]),
            (chain(false), vec![2000]),
            (chain(false), vec![1, 1500]),
            (tree.clone(), vec![1]),
            (tree, vec![3, 17, 40]),
        ] {
            let mut adj: std::collections::BTreeMap<Oid, Vec<Oid>> = Default::default();
            let mut run = RowRun::new(2);
            for &(n, s) in &edges {
                adj.entry(o(n)).or_default().push(o(s));
                run.push(&[Some(o(n)), Some(o(s))]);
            }
            run.sort();
            for list in adj.values_mut() {
                list.sort_unstable();
                list.dedup();
            }
            let mut succ = RowStore::new(2);
            succ.set_run(&run);
            let roots: Vec<Oid> = roots.into_iter().map(o).collect();
            for max in [None, Some(5)] {
                let mut walk = ChainWalk::new(&roots, &succ, max, &mut buf);
                let mut got: Vec<Vec<Oid>> = Vec::new();
                while let Some(c) = walk.next_chain() {
                    got.push(c.to_vec());
                }
                assert_eq!(got, reference_chains(&roots, &adj, max), "roots {roots:?}, cap {max:?}");
            }
        }
    }

    #[test]
    fn planner_anchor_choice_does_not_change_result() {
        let (db, reg) = setup();
        // Evaluate both orientations; counts must agree.
        let a = eval("Teacher * Section * Course", &db, &reg);
        let b = eval("Course * Section * Teacher", &db, &reg);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn index_backed_candidates_match_scan(){
        // E10 ablation correctness: with and without an ordered attribute
        // index, intra-class conditions return identical results.
        let (mut db, reg) = setup();
        let scanned = eval("Section * Course [c# >= 6000 and c# < 7000]", &db, &reg);
        let scanned_single = eval("Section * Course [c# >= 6000]", &db, &reg);
        let course = db.schema().class_by_name("Course").unwrap();
        db.create_attr_index(course, "c#").unwrap();
        // The compound predicate is not index-served (still correct)…
        let after = eval("Section * Course [c# >= 6000 and c# < 7000]", &db, &reg);
        assert_eq!(scanned.to_vec(), after.to_vec());
        // …the single comparison is.
        let e = Parser::parse_context_expr("Section * Course [c# >= 6000]").unwrap();
        let r = resolve_context(&e, db.schema(), &reg).unwrap();
        let ev = Evaluator::new(&r, &db, &reg).unwrap();
        assert!(ev.plan.hints.iter().any(|h| h.is_some()), "index hint should fire");
        assert_eq!(ev.eval("x").to_vec(), scanned_single.to_vec());
    }

    #[test]
    fn eval_delta_never_binds_dead_or_foreign_oids() {
        // A deleted oid must not bind a slot: a delta evaluation with the
        // deleted object in the dirty set returns nothing (it cannot
        // resurrect patterns through the other slots).
        let (mut db, reg) = setup();
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let t1 = db.extent(teacher).next().unwrap();
        db.delete_object(t1).unwrap();
        let e = Parser::parse_context_expr("Teacher * Section * Course").unwrap();
        let r = resolve_context(&e, db.schema(), &reg).unwrap();
        let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &[t1]);
        assert!(delta.is_empty(), "deleted oid bound a slot");
        // A live oid binds the slots of its own class only.
        let course = db.schema().class_by_name("Course").unwrap();
        let c = db.extent(course).next().unwrap();
        let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &[c]);
        assert!(!delta.is_empty());
        assert!(delta.iter().all(|p| p.get(2) == Some(c)), "wrong-class oid bound a slot");
    }

    #[test]
    fn eval_delta_matches_restricted_full() {
        // eval_delta(dirty) must equal exactly the full-evaluation patterns
        // that contain at least one dirty component (before subsumption),
        // as a strictly ascending run: a row with two dirty slots is joined
        // twice and returned once. "Teacher * Section" and "Section *
        // Course" take the binary fast path; the braced contexts have more
        // than one retention span.
        let (db, reg) = setup();
        let first = |class: &str| db.extent(db.schema().class_by_name(class).unwrap()).next();
        let (t1, s1, c1) =
            (first("Teacher").unwrap(), first("Section").unwrap(), first("Course").unwrap());
        for src in [
            "Teacher * Section * Course",
            "{Teacher * Section} * Course",
            "Teacher * {Section * Course}",
            "Teacher * Section",
            "Section * Course",
        ] {
            let e = Parser::parse_context_expr(src).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            let full = Evaluator::new(&r, &db, &reg).unwrap().eval("x");
            // Dirty sets are sorted, distinct runs.
            for mut dirty in [vec![t1], vec![t1, s1, t1], vec![c1, s1], vec![c1, s1, t1]] {
                dirty.sort_unstable();
                dirty.dedup();
                let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &dirty);
                assert!(
                    delta.iter().zip(delta.iter().skip(1)).all(|(a, b)| a < b),
                    "{src}: the run is not strictly ascending: {delta:?}"
                );
                let touches =
                    |p: &Row<'_>| p.components().iter().flatten().any(|o| dirty.contains(o));
                let expect: BTreeSet<_> =
                    full.patterns().filter(touches).map(|p| p.to_pattern()).collect();
                let got: BTreeSet<_> = delta.iter().map(|p| p.to_pattern()).collect();
                if src.contains('{') {
                    // The delta may retain rows the full eval subsumed away;
                    // every expected (maximal) row must be present.
                    assert!(expect.is_subset(&got), "{src}: delta missed rows");
                } else {
                    assert_eq!(got, expect, "{src}: delta differs from the restricted full eval");
                }
                // And every delta row touches the dirty set.
                assert!(delta.iter().all(|p| touches(&p)), "{src}: a row binds no dirty object");
            }
        }
    }

    #[test]
    fn eval_delta_empty_dirty_is_empty() {
        let (db, reg) = setup();
        let e = Parser::parse_context_expr("Teacher * Section * Course").unwrap();
        let r = resolve_context(&e, db.schema(), &reg).unwrap();
        let delta =
            Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &[]);
        assert!(delta.is_empty());
    }
}
