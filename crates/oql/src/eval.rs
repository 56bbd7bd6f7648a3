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
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::Oid;
use dood_core::schema::{ResolvedAttr, ResolvedEdge};
use dood_core::obs;
use dood_core::subdb::{
    ExtPattern, Intension, SlotAdj, SlotDef, SlotSource, Subdatabase, SubdbIndex, SubdbRegistry,
};
use dood_core::value::Value;
use dood_store::Database;
use std::collections::BTreeSet;
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
/// Derived slots point straight into their source subdatabase's
/// [`SubdbIndex`], so constructing an evaluator never materializes an
/// extent — the index is built once per source content version and shared
/// by every evaluation against it (the incremental-maintenance hot path
/// constructs an evaluator per delta step).
enum Members<'a> {
    /// Base-class slot: no membership restriction beyond the class extent.
    Open,
    /// Derived slot: membership is the given slot of the source's index.
    Indexed(&'a SubdbIndex, usize),
    /// Explicitly restricted (delta evaluation).
    Fixed(BTreeSet<Oid>),
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
    /// Adjacency for derived edges, keyed by edge index (`usize::MAX` keys
    /// the closure cycle edge): a borrow of the source index's slot-pair
    /// adjacency plus whether the edge's left→right direction is flipped
    /// relative to the stored orientation.
    derived_adj: FxHashMap<usize, (&'a SlotAdj, bool)>,
    /// Per slot: working copy of the plan's index-backed candidate
    /// pre-filters (E10); restrictions clear entries without touching the
    /// shared plan.
    index_scan: Vec<Option<IndexScan>>,
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
/// indexes ([`Subdatabase::index`]). Shared by [`Evaluator::new`] and
/// [`Evaluator::with_compiled`].
#[allow(clippy::type_complexity)]
fn bind_sources<'a>(
    ctx: &'a ResolvedContext,
    registry: &'a SubdbRegistry,
) -> Result<(Vec<Members<'a>>, FxHashMap<usize, (&'a SlotAdj, bool)>), QueryError> {
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
                memberships.push(Members::Indexed(entry.subdb.index(), idx));
            }
            None => memberships.push(Members::Open),
        }
    }
    let mut derived_adj = FxHashMap::default();
    let edge_adj = |subdb: &String, a: usize, b: usize| -> Result<(&'a SlotAdj, bool), QueryError> {
        let entry = registry
            .get(subdb)
            .ok_or_else(|| QueryError::UnknownSubdb(subdb.clone()))?;
        Ok(entry
            .subdb
            .pair_adj(a, b)
            .expect("resolved derived edge joins two distinct slots"))
    };
    for (i, e) in ctx.edges.iter().enumerate() {
        if let REdgeKind::Derived { subdb, a, b } = &e.kind {
            derived_adj.insert(i, edge_adj(subdb, *a, *b)?);
        }
    }
    if let Some((_, REdgeKind::Derived { subdb, a, b })) = &ctx.closure {
        derived_adj.insert(usize::MAX, edge_adj(subdb, *a, *b)?);
    }
    Ok((memberships, derived_adj))
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
    derived_adj: &FxHashMap<usize, (&SlotAdj, bool)>,
    preds: &[Option<CPred>],
    hints: &[Option<IndexScan>],
) -> PlanInputs {
    let n = ctx.slots.len();
    let cards: Vec<f64> = (0..n)
        .map(|i| match &memberships[i] {
            Members::Open => db.extent_size(ctx.slots[i].base) as f64,
            Members::Indexed(ix, s) => ix.slot_len(*s) as f64,
            Members::Fixed(set) => set.len() as f64,
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
                let pairs = derived_adj.get(&i).map_or(0.0, |&(adj, _)| adj.pair_count() as f64);
                (pairs / cards[i].max(1.0), pairs / cards[i + 1].max(1.0))
            }
        };
        fwd_fan.push(f);
        rev_fan.push(r);
    }
    PlanInputs { cards, sels, fwd_fan, rev_fan, constrained, hinted }
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
    derived_adj: &FxHashMap<usize, (&SlotAdj, bool)>,
    preds: Vec<Option<CPred>>,
    hints: Vec<Option<IndexScan>>,
) -> CompiledContext {
    let inputs = plan_inputs(ctx, db, memberships, derived_adj, &preds, &hints);
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
    // Cyclic contexts get a fixpoint stage: the cycle edge's fan-out
    // drives the planner's view of rounds and reachable-set size.
    let closure = ctx.closure.as_ref().map(|(spec, kind)| crate::plan::ClosureParts {
        est_fan: match kind {
            REdgeKind::Base(ResolvedEdge::Assoc { assoc, forward, .. }) => {
                assoc_fan(db, *assoc, *forward)
            }
            REdgeKind::Base(ResolvedEdge::Identity { .. }) => 1.0,
            REdgeKind::Derived { .. } => {
                let pairs =
                    derived_adj.get(&usize::MAX).map_or(0.0, |&(adj, _)| adj.pair_count() as f64);
                pairs / inputs.cards[0].max(1.0)
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
    /// ([`Subdatabase::index`]). Construction is O(1) in source size when
    /// the indexes already exist — the steady state for incremental rule
    /// maintenance, which constructs an evaluator per delta step against
    /// slowly-changing registered sources (and can skip even the
    /// compilation via [`Evaluator::with_compiled`]).
    pub fn new(
        ctx: &'a ResolvedContext,
        db: &'a Database,
        registry: &'a SubdbRegistry,
    ) -> Result<Self, QueryError> {
        let (memberships, derived_adj) = bind_sources(ctx, registry)?;
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
        let plan = Arc::new(build_plan(ctx, db, &memberships, &derived_adj, preds, hints));
        let index_scan = plan.hints.clone();
        Ok(Evaluator {
            ctx,
            db,
            plan,
            memberships,
            derived_adj,
            index_scan,
        })
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
        let (memberships, derived_adj) = bind_sources(ctx, registry)?;
        let index_scan = plan.hints.clone();
        Ok(Evaluator {
            ctx,
            db,
            plan,
            memberships,
            derived_adj,
            index_scan,
        })
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
            &self.derived_adj,
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
    /// pass. Returns bare rows in deterministic (span, slot, join) order; a
    /// pattern with several dirty slots appears once per slot — callers
    /// merging into a pattern set absorb the duplicates. No subsumption
    /// filtering is applied here — the caller unions the delta with the
    /// retained clean patterns first and re-filters. Not defined for cyclic
    /// (closure) contexts.
    pub fn eval_delta(&mut self, name: &str, dirty: &BTreeSet<Oid>) -> Vec<ExtPattern> {
        debug_assert!(self.ctx.closure.is_none(), "closure contexts are re-derived in full");
        let width = self.ctx.slots.len();
        let mut sp = obs::trace::span("oql.delta");
        sp.label(|| name.to_string());
        sp.attr("dirty", dirty.len() as i64);
        let mut rows_out: Vec<ExtPattern> = Vec::new();
        // Binary single-span associative contexts — the paper's common
        // association-pair shape — emit their delta rows straight off the
        // edge: for each dirty oid qualifying for a slot, its accepted
        // partners across the (single) edge. This skips the generic join
        // planner's row buffers; the produced row set is identical.
        if width == 2
            && self.ctx.spans.as_slice() == [(0usize, 2usize)]
            && self.ctx.edges.len() == 1
            && matches!(self.ctx.edges[0].op, crate::ast::PatOp::Assoc)
        {
            // `self.ctx` is a shared `&'a` reference, so the edge borrow is
            // independent of the `&mut self` receiver.
            let edge = &self.ctx.edges[0].kind;
            for slot in 0..2usize {
                let other = 1 - slot;
                for &o in dirty {
                    if !self.live_in_slot(slot, o) || !self.accepts(slot, o) {
                        continue;
                    }
                    for n in self.step(0, edge, o, slot == 0) {
                        if self.accepts(other, n) {
                            rows_out.push(ExtPattern::new(if slot == 0 {
                                vec![Some(o), Some(n)]
                            } else {
                                vec![Some(n), Some(o)]
                            }));
                        }
                    }
                }
            }
            sp.attr("rows_out", rows_out.len() as i64);
            if obs::metrics_enabled() {
                obs::metrics::counter("oql.delta.evals").inc();
                obs::metrics::counter("oql.delta.rows_out").add(rows_out.len() as u64);
            }
            return rows_out;
        }
        let spans = self.ctx.spans.clone();
        let mut row: Vec<Option<Oid>> = vec![None; width];
        for (lo, hi) in spans {
            row.fill(None);
            for slot in lo..hi {
                let restricted: BTreeSet<Oid> = dirty
                    .iter()
                    .copied()
                    .filter(|&o| self.live_in_slot(slot, o) && self.member_ok(slot, o))
                    .collect();
                if restricted.is_empty() {
                    continue;
                }
                let dsp = self.delta_plan(lo, hi, slot, restricted.len());
                let saved_m = std::mem::replace(
                    &mut self.memberships[slot],
                    Members::Fixed(restricted),
                );
                let saved_ix = self.index_scan[slot].take();
                let rows = self.exec_span(&dsp);
                rows_out.reserve(rows.len() / (hi - lo));
                for r in rows.chunks_exact(hi - lo) {
                    rows_out.push(pattern_of(&mut row, lo, r));
                }
                self.memberships[slot] = saved_m;
                self.index_scan[slot] = saved_ix;
            }
        }
        sp.attr("rows_out", rows_out.len() as i64);
        if obs::metrics_enabled() {
            obs::metrics::counter("oql.delta.evals").inc();
            obs::metrics::counter("oql.delta.rows_out").add(rows_out.len() as u64);
        }
        rows_out
    }

    /// Whether `oid` satisfies `slot`'s membership constraint.
    fn member_ok(&self, slot: usize, oid: Oid) -> bool {
        match &self.memberships[slot] {
            Members::Open => true,
            Members::Indexed(ix, s) => ix.slot_contains(*s, oid),
            Members::Fixed(set) => set.contains(&oid),
        }
    }

    /// Whether `oid` qualifies for `slot` (derived membership + intra-class
    /// condition; class correctness is guaranteed by traversal).
    fn accepts(&self, slot: usize, oid: Oid) -> bool {
        self.member_ok(slot, oid)
            && match &self.plan.preds[slot] {
                Some(p) => p.eval(self.db, oid),
                None => true,
            }
    }

    /// All qualifying instances of a slot, ascending.
    fn candidates(&self, slot: usize) -> Vec<Oid> {
        // E10: serve selective single-comparison conditions from the
        // store's ordered attribute index when one exists.
        if let Some(scan) = &self.index_scan[slot] {
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
            Members::Indexed(ix, s) => {
                let mut v: Vec<Oid> = ix.slot_oids(*s).collect();
                v.sort_unstable();
                v
            }
            Members::Fixed(set) => set.iter().copied().collect(),
        };
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

    /// Traverse edge `edge_idx` from `oid`; `forward` follows left→right.
    fn step(&self, edge_idx: usize, kind: &REdgeKind, oid: Oid, forward: bool) -> Vec<Oid> {
        match kind {
            REdgeKind::Base(edge) => {
                if forward {
                    self.db.traverse(oid, edge)
                } else {
                    self.db.traverse(oid, &reverse_edge(edge))
                }
            }
            REdgeKind::Derived { .. } => self
                .derived_adj
                .get(&edge_idx)
                .map(|&(adj, flip)| adj.neighbors(oid, forward ^ flip).to_vec())
                .unwrap_or_default(),
        }
    }

    fn links(&self, edge_idx: usize, kind: &REdgeKind, x: Oid, y: Oid) -> bool {
        match kind {
            REdgeKind::Base(edge) => self.db.edge_links(x, edge, y),
            REdgeKind::Derived { .. } => self
                .derived_adj
                .get(&edge_idx)
                .is_some_and(|&(adj, flip)| adj.neighbors(x, !flip).binary_search(&y).is_ok()),
        }
    }

    /// Execute one compiled span plan: anchor scan, then the fused DFS
    /// pipeline. Returns the bound rows as one flat buffer, `hi - lo` oids
    /// a row in slot order. The DFS visits candidates and neighbors in a
    /// fixed order, so the output order is deterministic.
    ///
    /// Emits the `oql.join` span with per-stage `oql.plan.*` children
    /// carrying estimated vs. measured cardinalities (the EXPLAIN ANALYZE
    /// payload `doodprof --plan` renders).
    fn exec_span(&self, sp: &SpanPlan) -> Vec<Oid> {
        let mut tsp = obs::trace::span("oql.join");
        tsp.attr("lo", sp.lo as i64);
        tsp.attr("hi", sp.hi as i64);
        tsp.attr("anchor", sp.anchor as i64);
        let cands = self.candidates(sp.anchor);
        tsp.attr("rows_in", cands.len() as i64);
        // `!` stages enumerate the target slot's candidates; hoist each
        // list once per span instead of once per row.
        let na: Vec<Option<Vec<Oid>>> = sp
            .steps
            .iter()
            .map(|st| if st.nonassoc { Some(self.candidates(st.to_slot)) } else { None })
            .collect();
        let (rows, scanned, kept) = self.exec_span_rows(sp, &cands, &na);
        let rows_out = (rows.len() / (sp.hi - sp.lo)) as u64;
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
        rows
    }

    /// The compiled span pipeline over a subset of the anchor's
    /// candidates. Returns the bound rows (one flat buffer, `hi - lo` oids
    /// a row in slot order) plus per-stage `(scanned, kept)` counters.
    fn exec_span_rows(
        &self,
        sp: &SpanPlan,
        cands: &[Oid],
        na: &[Option<Vec<Oid>>],
    ) -> (Vec<Oid>, Vec<u64>, Vec<u64>) {
        let mut out = Vec::new();
        let mut scanned = vec![0u64; sp.steps.len()];
        let mut kept = vec![0u64; sp.steps.len()];
        let mut row = vec![Oid(0); sp.hi - sp.lo];
        for &o in cands {
            row[sp.anchor - sp.lo] = o;
            self.exec_steps(sp, na, &mut row, 0, &mut out, &mut scanned, &mut kept);
        }
        (out, scanned, kept)
    }

    /// One DFS level of the fused pipeline: traverse the stage's edge from
    /// the already-bound source slot, filter (membership + predicate),
    /// bind the target slot in the slot-indexed row buffer, and recurse.
    /// Rows are copied out at the leaves only, already in slot order, onto
    /// the end of the flat output — no per-row allocation, no per-stage
    /// row materialization or reorder pass.
    #[allow(clippy::too_many_arguments)]
    fn exec_steps(
        &self,
        sp: &SpanPlan,
        na: &[Option<Vec<Oid>>],
        row: &mut [Oid],
        depth: usize,
        out: &mut Vec<Oid>,
        scanned: &mut [u64],
        kept: &mut [u64],
    ) {
        if depth == sp.steps.len() {
            out.extend_from_slice(row);
            return;
        }
        let st = &sp.steps[depth];
        let from = row[st.from_slot - sp.lo];
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
                    row[st.to_slot - sp.lo] = next;
                    self.exec_steps(sp, na, row, depth + 1, out, scanned, kept);
                }
            }
            return;
        }
        let info = &self.plan.edges[st.edge];
        let owned: Vec<Oid>;
        let neighbors: &[Oid] = if let Some((assoc, f)) = info.flat {
            // Plain association: zero-alloc neighbor slice from the store.
            self.db.neighbors(assoc, from, if st.forward { f } else { !f })
        } else if let Some(fwd) = &info.fwd {
            // Chained base edge, pre-directed at compile time (no per-row
            // edge reversal).
            let e = if st.forward { fwd } else { info.rev.as_ref().expect("rev precomputed") };
            owned = self.db.traverse(from, e);
            &owned
        } else {
            self.derived_adj
                .get(&st.edge)
                .map(|&(adj, flip)| adj.neighbors(from, st.forward ^ flip))
                .unwrap_or(&[])
        };
        for &next in neighbors {
            scanned[depth] += 1;
            if self.accepts(st.to_slot, next) {
                kept[depth] += 1;
                row[st.to_slot - sp.lo] = next;
                self.exec_steps(sp, na, row, depth + 1, out, scanned, kept);
            }
        }
    }

    /// Evaluate a non-cyclic context: all retention spans joined, widened,
    /// unioned, and subsumption-filtered.
    fn eval_flat(&self, name: &str, sp: &mut obs::trace::Span) -> Subdatabase {
        let width = self.ctx.slots.len();
        let mut sd = Subdatabase::new(name, self.intension());
        // Collect every span's rows first and bulk-build the pattern set:
        // `set_patterns` collects through `BTreeSet::from_iter`, whose
        // sort-then-bulk-load path beats one-at-a-time tree inserts by a
        // wide margin on join-sized extensions.
        let spans = &self.plan.spans;
        let flats: Vec<Vec<Oid>> = spans.iter().map(|span| self.exec_span(span)).collect();
        let total = spans.iter().zip(&flats).map(|(sp, f)| f.len() / (sp.hi - sp.lo)).sum();
        let mut all: Vec<ExtPattern> = Vec::with_capacity(total);
        let mut row: Vec<Option<Oid>> = vec![None; width];
        for (span, flat) in spans.iter().zip(&flats) {
            row.fill(None);
            for r in flat.chunks_exact(span.hi - span.lo) {
                all.push(pattern_of(&mut row, span.lo, r));
            }
        }
        drop(flats);
        sd.set_patterns(all);
        let before = sd.len();
        sd.retain_maximal();
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
    /// (computed once per fixpoint, not once per round).
    fn closure_na(&self) -> Vec<Option<Vec<Oid>>> {
        let chain = &self.plan.closure.as_ref().expect("closure plan").chain;
        chain
            .steps
            .iter()
            .map(|st| if st.nonassoc { Some(self.candidates(st.to_slot)) } else { None })
            .collect()
    }

    /// Compute the successor lists for a batch of slot-0 nodes: run the
    /// fused chain join with the batch as (unchecked) anchor candidates,
    /// then the cycle step from each produced row's last slot, filtered by
    /// slot 0's acceptance — one batched join, not a re-join per node.
    /// Returns one `(node, sorted deduped successors)` entry per input
    /// node, in input order.
    fn closure_expand(&self, nodes: &[Oid], na: &[Option<Vec<Oid>>]) -> Vec<(Oid, Vec<Oid>)> {
        let n = self.ctx.slots.len();
        let (_, cycle) = self.ctx.closure.as_ref().expect("closure context");
        let mut out: Vec<(Oid, Vec<Oid>)> =
            nodes.iter().map(|&o| (o, Vec::new())).collect();
        if n == 1 {
            // Single-slot chain: the cycle step is the whole join.
            for (o, succs) in out.iter_mut() {
                succs.extend(
                    self.step(usize::MAX, cycle, *o, true)
                        .into_iter()
                        .filter(|&s| self.accepts(0, s)),
                );
            }
        } else {
            let chain = &self.plan.closure.as_ref().expect("closure plan").chain;
            let pos: FxHashMap<Oid, usize> =
                nodes.iter().enumerate().map(|(i, &o)| (o, i)).collect();
            let (rows, _, _) = self.exec_span_rows(chain, nodes, na);
            for row in rows.chunks_exact(n) {
                let i = pos[&row[0]];
                let last = row[n - 1];
                for s in self.step(usize::MAX, cycle, last, true) {
                    if self.accepts(0, s) {
                        out[i].1.push(s);
                    }
                }
            }
        }
        for (_, succs) in out.iter_mut() {
            succs.sort_unstable();
            succs.dedup();
        }
        out
    }

    /// Batched successor computation, one entry per node in input order.
    /// Nodes must be live instances of the cycle class; exposed for
    /// incremental maintenance.
    pub fn closure_succ_batch(&self, nodes: &[Oid]) -> Vec<(Oid, Vec<Oid>)> {
        if nodes.is_empty() {
            return Vec::new();
        }
        self.closure_expand(nodes, &self.closure_na())
    }

    /// The semi-naive fixpoint: starting from the slot-0 candidate set,
    /// expand only the nodes discovered in the previous round (the delta
    /// frontier) until no new nodes appear — or until the
    /// `^N` round bound, past which no successor list can be consulted (a
    /// node at chain position `p` has fixpoint depth ≤ `p`, and the DFS
    /// only reads successors at positions ≤ `N - 1`).
    fn closure_fixpoint(&self, state: &mut ClosureState) {
        let plan = self.plan.closure.as_ref().expect("closure plan");
        let mut tsp = obs::trace::span("oql.closure");
        tsp.attr("est_rounds", plan.est_rounds.round() as i64);
        tsp.attr("est_reach", plan.est_reach.round() as i64);
        let na = self.closure_na();
        state.roots = self.candidates(0);
        tsp.attr("roots", state.roots.len() as i64);
        let mut frontier: Vec<Oid> = state.roots.clone();
        let mut visited: FxHashSet<Oid> = frontier.iter().copied().collect();
        let mut rounds: u64 = 0;
        let mut steps: u64 = 0;
        while !frontier.is_empty() {
            if plan.max_levels.is_some_and(|m| rounds >= m.saturating_sub(1) as u64) {
                break;
            }
            if obs::metrics_enabled() {
                obs::metrics::histogram("oql.closure.frontier").record(frontier.len() as u64);
            }
            let results = self.closure_expand(&frontier, &na);
            steps += frontier.len() as u64;
            let mut next: Vec<Oid> = Vec::new();
            for (node, succs) in results {
                for &s in &succs {
                    if visited.insert(s) {
                        next.push(s);
                    }
                }
                state.succ.insert(node, succs);
            }
            next.sort_unstable();
            if tsp.on() {
                let mut c = obs::trace::span("oql.closure.round");
                c.attr("round", rounds as i64);
                c.attr("frontier", frontier.len() as i64);
                c.attr("new", next.len() as i64);
            }
            frontier = next;
            rounds += 1;
        }
        tsp.attr("rounds", rounds as i64);
        tsp.attr("reach", visited.len() as i64);
        tsp.attr("steps", steps as i64);
        if obs::metrics_enabled() {
            obs::metrics::counter("oql.closure.steps").add(steps);
        }
        if let Some(a) = obs::account::active() {
            a.add_closure_rounds(rounds);
            a.add_rows_scanned(steps);
        }
    }

    /// DFS the successor relation from `roots`, emitting the maximal
    /// root-to-leaf chains (per-path cycle cut, `^N` length cap). `succ`
    /// must hold a list for every node the walk can reach below the cap:
    /// [`closure_fixpoint`](Self::closure_fixpoint) expands every slot-0
    /// candidate and a successor is always one, and the incremental path
    /// expands every newly reachable node before it calls this.
    pub fn closure_chains(
        &self,
        roots: &[Oid],
        succ: &FxHashMap<Oid, Vec<Oid>>,
    ) -> Vec<Vec<Oid>> {
        let max_levels = self
            .ctx
            .closure
            .as_ref()
            .and_then(|(spec, _)| spec.iterations.map(|i| i as usize + 1));
        let mut chains = Vec::new();
        let mut path: Vec<Oid> = Vec::new();
        for &root in roots {
            dfs_chains(root, &mut path, succ, max_levels, &mut chains);
            debug_assert!(path.is_empty());
        }
        chains
    }

    /// Materialize closure chains into a subdatabase: bulk sorted pattern
    /// load, **no subsumption pass** — a chain is emitted only when its tip
    /// has no admissible successor, so no emitted chain is a positional
    /// prefix of another from the same root, and chains from different
    /// roots differ at slot 0.
    pub fn closure_subdb(&self, name: &str, chains: Vec<Vec<Oid>>) -> Subdatabase {
        let width = chains.iter().map(Vec::len).max().unwrap_or(1);
        let mut sd = Subdatabase::new(name, self.closure_intension(width));
        sd.set_patterns(chain_patterns(chains, width));
        sd
    }

    /// Evaluate a cyclic expression (DESIGN.md §11): builds the instance
    /// hierarchies of §5.2 by a frontier fixpoint over the successor
    /// relation, then one DFS emitting maximal chains. The runtime
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
        let mut state = ClosureState::default();
        self.closure_fixpoint(&mut state);
        sp.attr("roots", state.roots.len() as i64);
        let chains = self.closure_chains(&state.roots, &state.succ);
        state.width = chains.iter().map(Vec::len).max().unwrap_or(1);
        sp.attr("chains", chains.len() as i64);
        sp.attr("width", state.width as i64);
        let sd = self.closure_subdb(name, chains);
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
    pub fn closure_affected(&self, dirty: &BTreeSet<Oid>) -> Vec<Oid> {
        let n = self.ctx.slots.len();
        let (_, cycle) = self.ctx.closure.as_ref().expect("closure context");
        let mut out: Vec<Oid> = Vec::new();
        let mut inputs = None;
        for k in 0..n {
            let mut anchor: Vec<Oid> =
                dirty.iter().copied().filter(|&o| self.live_in_slot(k, o)).collect();
            if k == n - 1 {
                let rev = dirty
                    .iter()
                    .copied()
                    .filter(|&o| self.live_in_slot(0, o))
                    .flat_map(|o| self.step(usize::MAX, cycle, o, false))
                    .filter(|&l| self.live_in_slot(n - 1, l));
                anchor.extend(rev);
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
            let (rows, _, _) = self.exec_span_rows(&spp, &anchor, &na);
            out.extend(rows.chunks_exact(k + 1).map(|r| r[0]));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One DFS level of [`Evaluator::closure_chains`]: the successor list is
/// walked in place. A node is a leaf when it is at the length cap, or when
/// none of its successors is off the path — which includes a node with no
/// successor list at all, in every build.
fn dfs_chains(
    node: Oid,
    path: &mut Vec<Oid>,
    succ: &FxHashMap<Oid, Vec<Oid>>,
    max_levels: Option<usize>,
    out: &mut Vec<Vec<Oid>>,
) {
    path.push(node);
    let mut leaf = true;
    if max_levels.is_none_or(|m| path.len() < m) {
        for &n in succ.get(&node).map_or(&[][..], Vec::as_slice) {
            if !path.contains(&n) {
                leaf = false;
                dfs_chains(n, path, succ, max_levels, out);
            }
        }
    }
    if leaf {
        out.push(path.clone());
    }
    path.pop();
}

/// One pattern from a flat row bound at slots `lo..lo + r.len()`, built in
/// the reused full-width `row`, whose other slots the caller keeps Null.
fn pattern_of(row: &mut [Option<Oid>], lo: usize, r: &[Oid]) -> ExtPattern {
    for (c, &o) in row[lo..lo + r.len()].iter_mut().zip(r) {
        *c = Some(o);
    }
    ExtPattern::new(&*row)
}

/// Closure chains as patterns of `width` slots, Null-padded: one pattern
/// each, built in one reused row into a pre-sized vector. Each chain is
/// freed once its pattern exists, so the two are never all held at once.
pub fn chain_patterns(chains: Vec<Vec<Oid>>, width: usize) -> Vec<ExtPattern> {
    let mut row: Vec<Option<Oid>> = vec![None; width];
    let mut out = Vec::with_capacity(chains.len());
    for chain in chains {
        row[chain.len()..].fill(None);
        out.push(pattern_of(&mut row, 0, &chain));
    }
    out
}

/// The successor relation a closure fixpoint computed, exposed as
/// provenance for incremental maintenance: `rules::maintain` caches it per
/// closure rule and extends/prunes it on deltas instead of recomputing the
/// fixpoint (DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct ClosureState {
    /// Per expanded node: its sorted, deduped successor list (the chain
    /// join from the node plus the cycle step, slot-0-filtered). Nodes
    /// with no successors carry an empty list.
    pub succ: FxHashMap<Oid, Vec<Oid>>,
    /// The root set the chains started from (sorted slot-0 candidates).
    pub roots: Vec<Oid>,
    /// The result's intension width (longest chain).
    pub width: usize,
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
    use dood_core::value::DType;

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

    #[test]
    fn braces_retain_partial_patterns() {
        let (db, reg) = setup();
        // {Teacher * Section} * Course: teacher-section pairs survive even
        // without a course, unless part of a full chain.
        let sd = eval("{Teacher * Section} * Course", &db, &reg);
        let types = sd.pattern_types();
        assert_eq!(sd.len(), 3);
        assert_eq!(types.len(), 2); // (T,S,C) ×2 and (T,S) ×1
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
        let succ: FxHashMap<Oid, Vec<Oid>> =
            [(Oid(1), vec![Oid(2), Oid(3)]), (Oid(3), vec![Oid(1)])].into_iter().collect();
        let mut path = Vec::new();
        let mut out = Vec::new();
        dfs_chains(Oid(1), &mut path, &succ, None, &mut out);
        assert_eq!(out, vec![vec![Oid(1), Oid(2)], vec![Oid(1), Oid(3)]]);
        assert!(path.is_empty());
        out.clear();
        dfs_chains(Oid(2), &mut path, &succ, None, &mut out);
        assert_eq!(out, vec![vec![Oid(2)]]);
        out.clear();
        dfs_chains(Oid(1), &mut path, &succ, Some(1), &mut out);
        assert_eq!(out, vec![vec![Oid(1)]]);
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
        assert!(ev.index_scan.iter().any(|h| h.is_some()), "index hint should fire");
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
        let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &BTreeSet::from([t1]));
        assert!(delta.is_empty(), "deleted oid bound a slot");
        // A live oid binds the slots of its own class only.
        let course = db.schema().class_by_name("Course").unwrap();
        let c = db.extent(course).next().unwrap();
        let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &BTreeSet::from([c]));
        assert!(!delta.is_empty());
        assert!(delta.iter().all(|p| p.get(2) == Some(c)), "wrong-class oid bound a slot");
    }

    #[test]
    fn eval_delta_matches_restricted_full() {
        // eval_delta(dirty) must equal exactly the full-evaluation patterns
        // that contain at least one dirty component (before subsumption).
        let (db, reg) = setup();
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let t1 = db.extent(teacher).next().unwrap();
        for src in ["Teacher * Section * Course", "{Teacher * Section} * Course"] {
            let e = Parser::parse_context_expr(src).unwrap();
            let r = resolve_context(&e, db.schema(), &reg).unwrap();
            let full = Evaluator::new(&r, &db, &reg).unwrap().eval("x");
            let dirty = BTreeSet::from([t1]);
            let delta = Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &dirty);
            let expect: BTreeSet<_> = full
                .patterns()
                .filter(|p| p.components().iter().flatten().any(|o| dirty.contains(o)))
                .cloned()
                .collect();
            let got: BTreeSet<_> = delta.iter().cloned().collect();
            // The delta may retain rows the full eval subsumed away; every
            // expected (maximal) row must be present.
            assert!(expect.is_subset(&got), "{src}: delta missed rows");
            // And every delta row touches the dirty set.
            assert!(got
                .iter()
                .all(|p| p.components().iter().flatten().any(|o| dirty.contains(o))));
        }
    }

    #[test]
    fn eval_delta_empty_dirty_is_empty() {
        let (db, reg) = setup();
        let e = Parser::parse_context_expr("Teacher * Section * Course").unwrap();
        let r = resolve_context(&e, db.schema(), &reg).unwrap();
        let delta =
            Evaluator::new(&r, &db, &reg).unwrap().eval_delta("x", &BTreeSet::new());
        assert!(delta.is_empty());
    }
}
