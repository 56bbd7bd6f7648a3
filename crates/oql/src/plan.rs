//! Compilation of resolved context expressions into fused join pipelines
//! with cost-based join ordering (DESIGN.md §10).
//!
//! [`crate::eval::Evaluator`] lowers each retention span of a
//! [`crate::resolve::ResolvedContext`] into a [`SpanPlan`]: an anchor scan
//! followed by a sequence of fused [`PlanStep`] stages, each collapsing
//! association traversal, membership check, and intra-class predicate into
//! one operator. The compiled form owns all its data (predicates are
//! compiled, base edges are pre-reversed for backward traversal), so a
//! [`CompiledContext`] is cached per rule inside `rules::maintain`'s
//! `RuleCache` and shared across delta steps behind an `Arc`.
//!
//! Join order is an *interval extension* problem: slots form a path graph
//! (edge `i` connects slots `i`, `i+1`), and any cross-product-free order
//! is an anchor plus a left/right interleaving — `n · 2^(n-1)` orders for
//! an `n`-slot span. [`plan_span`] enumerates them exhaustively for the
//! spans the paper's queries produce (greedy frontier extension beyond
//! [`MAX_EXHAUSTIVE`] slots), costing each order from the store's own
//! counts (extents, link counts, source-index slot extents and pair
//! counts, ordered-index range counts).
//!
//! Plans never change results, only effort: every order produces the same
//! pattern set (`tests/plan.rs` pins the engine to the spec-level reference
//! evaluator of `tests/common/spec_eval.rs` over databases of opposite
//! skew, which plan differently).

use crate::eval::{CPred, IndexScan};
use dood_core::ids::AssocId;
use dood_core::schema::ResolvedEdge;

/// Spans no wider than this are planned by exhaustive enumeration
/// (`n · 2^(n-1)` orders ≤ 2304 cost evaluations); wider spans fall back
/// to greedy frontier extension.
pub const MAX_EXHAUSTIVE: usize = 9;

/// Cost-model inputs for one context: per-slot cardinalities and
/// selectivities, per-edge fan-outs, all read from the store's counts at
/// plan time. Purely advisory — inputs steer order choice, never results.
#[derive(Debug, Clone)]
pub struct PlanInputs {
    /// Per slot: candidate count before any condition (extent size,
    /// derived-slot index size, or restriction size).
    pub cards: Vec<f64>,
    /// Per slot: estimated fraction of candidates passing the slot's
    /// intra-class condition (1.0 when unconditioned).
    pub sels: Vec<f64>,
    /// Per edge: average fan-out traversing left→right.
    pub fwd_fan: Vec<f64>,
    /// Per edge: average fan-out traversing right→left.
    pub rev_fan: Vec<f64>,
    /// Per slot: whether anything constrains the slot's candidates below
    /// its full extent (condition, index hint, derived membership, or an
    /// explicit restriction). Drives the W106 cross-product lint.
    pub constrained: Vec<bool>,
    /// Per slot: whether an ordered-index pre-filter serves the condition
    /// (anchor scans then cost output-size instead of extent-size).
    pub hinted: Vec<bool>,
}

impl PlanInputs {
    /// Effective candidate estimate for a slot (cardinality × selectivity).
    fn eff(&self, slot: usize) -> f64 {
        self.cards[slot] * self.sels[slot]
    }
}

/// Owned traversal info for one edge, resolved at compile time so the
/// executor never re-derives (or re-reverses) edges per row.
#[derive(Debug, Clone)]
pub(crate) struct EdgeInfo {
    /// `!` edge (non-association).
    pub nonassoc: bool,
    /// Plain association with no generalization climbing: `(assoc,
    /// forward)` — served straight from the store's neighbor lists.
    pub flat: Option<(AssocId, bool)>,
    /// Base edge oriented left→right (`None` for derived edges).
    pub fwd: Option<ResolvedEdge>,
    /// The same edge pre-reversed for right→left traversal.
    pub rev: Option<ResolvedEdge>,
}

/// One fused pipeline stage: traverse an edge from a bound slot, filter by
/// membership + predicate, bind the target slot.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Slot already bound when this stage runs.
    pub from_slot: usize,
    /// Slot this stage binds.
    pub to_slot: usize,
    /// Index of the traversed edge (connects `min(from,to)`,
    /// `min(from,to)+1` in the path graph).
    pub edge: usize,
    /// Whether traversal runs left→right (`to_slot > from_slot`).
    pub forward: bool,
    /// `!` stage: enumerates the target's candidates and keeps unlinked
    /// pairs instead of traversing neighbors.
    pub nonassoc: bool,
    /// Estimated bindings surviving this stage.
    pub est_rows: f64,
    /// Unconstrained cross-product stage: a `!` traversal whose target
    /// candidates are a full unconditioned extent (W106).
    pub cross: bool,
}

/// The compiled closure stage for a cyclic (`^*`) context: the full chain
/// span lowered once, anchored at slot 0 so the root batch seeds it
/// directly, plus the cycle edge's fan-out. Executed as one batched
/// expansion of the roots in `eval` (DESIGN.md §11).
#[derive(Debug, Clone)]
pub struct ClosurePlan {
    /// The chain join `[0, n)` anchored at slot 0, run with the roots as
    /// the (unchecked) anchor candidates.
    pub chain: SpanPlan,
    /// Estimated per-node fan-out of the cycle edge (links, or a derived
    /// edge's pairs, over the source extent).
    pub est_fan: f64,
    /// `^N` bound as a chain-length cap in slots (`N + 1`); `None` = until
    /// Null.
    pub max_levels: Option<usize>,
}

/// What the evaluator hands [`compile`] to build a [`ClosurePlan`].
pub(crate) struct ClosureParts {
    pub est_fan: f64,
    pub max_levels: Option<usize>,
}

/// The compiled join pipeline for one retention span `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct SpanPlan {
    /// Span start (slot index, inclusive).
    pub lo: usize,
    /// Span end (exclusive).
    pub hi: usize,
    /// The anchor slot whose candidates seed the pipeline.
    pub anchor: usize,
    /// Estimated anchor candidates (after its condition).
    pub est_anchor: f64,
    /// Estimated total work for the whole span (scan + per-stage costs).
    pub est_cost: f64,
    /// The fused stages, in execution order (`hi - lo - 1` of them).
    pub steps: Vec<PlanStep>,
}

/// A fully compiled context: predicates, index hints, owned edge info, and
/// a cost-ordered [`SpanPlan`] per retention span. Owns everything, so it
/// is cached per rule (behind an `Arc`) and reused across delta steps.
#[derive(Debug, Clone)]
pub struct CompiledContext {
    pub(crate) preds: Vec<Option<CPred>>,
    pub(crate) hints: Vec<Option<IndexScan>>,
    pub(crate) edges: Vec<EdgeInfo>,
    pub(crate) slot_names: Vec<String>,
    /// The plan per retention span (same order as the resolved context's
    /// span list: full span first).
    pub spans: Vec<SpanPlan>,
    /// The closure stage for cyclic (`^*`) contexts.
    pub closure: Option<ClosurePlan>,
}

/// Everything the evaluator hands to [`compile`] besides the cost inputs.
pub(crate) struct CompileParts {
    pub preds: Vec<Option<CPred>>,
    pub hints: Vec<Option<IndexScan>>,
    pub edges: Vec<EdgeInfo>,
    pub slot_names: Vec<String>,
    pub span_bounds: Vec<(usize, usize)>,
    pub closure: Option<ClosureParts>,
}

/// Compile: order every retention span with `inputs`.
pub(crate) fn compile(parts: CompileParts, inputs: PlanInputs) -> CompiledContext {
    let spans: Vec<SpanPlan> = parts
        .span_bounds
        .iter()
        .map(|&(lo, hi)| plan_span(lo, hi, &inputs, &parts.edges))
        .collect();
    // A closure's chain span is anchored at slot 0: the roots seed it.
    let closure = parts.closure.map(|c| ClosurePlan {
        chain: plan_span_anchored(0, parts.slot_names.len(), 0, &inputs, &parts.edges),
        est_fan: c.est_fan,
        max_levels: c.max_levels,
    });
    CompiledContext {
        preds: parts.preds,
        hints: parts.hints,
        edges: parts.edges,
        slot_names: parts.slot_names,
        spans,
        closure,
    }
}

impl CompiledContext {
    /// An ad-hoc plan for a delta evaluation of span `[lo, hi)` with
    /// `slot`'s candidates restricted to `card` dirty objects: the anchor
    /// is forced to the restricted slot (semi-naive evaluation starts from
    /// the delta) and the remaining order is costed around it from
    /// `inputs`, the counts at this step. A cached plan so follows data
    /// growth with no threshold and no observation stream.
    pub(crate) fn delta_span(
        &self,
        lo: usize,
        hi: usize,
        slot: usize,
        card: f64,
        mut inputs: PlanInputs,
    ) -> SpanPlan {
        inputs.cards[slot] = card;
        inputs.sels[slot] = 1.0; // the restriction set is pre-filtered
        inputs.constrained[slot] = true;
        inputs.hinted[slot] = false;
        plan_span_anchored(lo, hi, slot, &inputs, &self.edges)
    }

    /// A deterministic plain-text rendering of the plan tree: one line per
    /// span and stage with estimated cardinalities. The golden EXPLAIN
    /// snapshot format (`tests/plan.rs`) and the static half of
    /// `doodprof --plan`.
    pub fn describe(&self) -> String {
        let mut out = String::from("plan\n");
        for s in &self.spans {
            out.push_str(&format!(
                "  span [{},{}) anchor={} cost={:.0} rows={:.0}\n",
                s.lo, s.hi, self.slot_names[s.anchor], s.est_cost, s.est_rows()
            ));
            let anchor_marks = self.slot_marks(s.anchor);
            out.push_str(&format!(
                "    scan {}{} est={:.0}\n",
                self.slot_names[s.anchor], anchor_marks, s.est_anchor
            ));
            for st in &s.steps {
                let op = if st.nonassoc { "!" } else { "->" };
                out.push_str(&format!(
                    "    step {}{}{}{}{} est={:.0}\n",
                    self.slot_names[st.from_slot],
                    op,
                    self.slot_names[st.to_slot],
                    self.slot_marks(st.to_slot),
                    if st.cross { " (cross)" } else { "" },
                    st.est_rows
                ));
            }
        }
        if let Some(c) = &self.closure {
            out.push_str(&format!(
                "  closure ^{} cycle={} fan={:.2}\n",
                match c.max_levels {
                    Some(m) => (m - 1).to_string(),
                    None => "*".to_string(),
                },
                self.slot_names[0],
                c.est_fan
            ));
        }
        out
    }

    /// Condition / index-hint markers for a slot, as rendered in
    /// [`describe`](Self::describe).
    fn slot_marks(&self, slot: usize) -> &'static str {
        match (&self.hints[slot], &self.preds[slot]) {
            (Some(_), _) => "[ix]",
            (None, Some(_)) => "[cond]",
            (None, None) => "",
        }
    }
}

impl SpanPlan {
    /// Estimated output rows of the whole span (last stage's estimate, or
    /// the anchor's when the span has a single slot).
    pub fn est_rows(&self) -> f64 {
        self.steps.last().map_or(self.est_anchor, |s| s.est_rows)
    }
}

/// Cost one stage: extending `rows` bindings across `edge` in direction
/// `forward` into `to`. Returns `(stage cost, surviving rows)`.
fn step_cost(
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
    edge: usize,
    to: usize,
    forward: bool,
    rows: f64,
) -> (f64, f64) {
    if edges[edge].nonassoc {
        // `!` enumerates the target's (filtered) candidates per row and
        // keeps unlinked pairs — nearly all of them, in practice.
        let per_row = inputs.eff(to).max(1.0);
        (rows * per_row, rows * inputs.eff(to))
    } else {
        let fan = if forward { inputs.fwd_fan[edge] } else { inputs.rev_fan[edge] };
        (rows * fan.max(1.0), rows * fan * inputs.sels[to])
    }
}

/// Materialize the order "`anchor`, then extend per `dirs`" into costed
/// steps. `dirs[i]` = extend the frontier right (`true`) or left.
fn steps_for(
    lo: usize,
    hi: usize,
    anchor: usize,
    dirs: &[bool],
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
) -> SpanPlan {
    let est_anchor = inputs.eff(anchor);
    // The anchor scan costs a full extent filter unless index-served.
    let mut cost = if inputs.hinted[anchor] { est_anchor } else { inputs.cards[anchor] };
    let mut rows = est_anchor;
    let (mut l, mut r) = (anchor, anchor);
    let mut steps = Vec::with_capacity(dirs.len());
    for &right in dirs {
        let (from, to, edge, forward) =
            if right { (r, r + 1, r, true) } else { (l, l - 1, l - 1, false) };
        let (c, next) = step_cost(inputs, edges, edge, to, forward, rows);
        cost += c;
        steps.push(PlanStep {
            from_slot: from,
            to_slot: to,
            edge,
            forward,
            nonassoc: edges[edge].nonassoc,
            est_rows: next,
            cross: edges[edge].nonassoc && !inputs.constrained[to],
        });
        rows = next;
        if right {
            r += 1;
        } else {
            l -= 1;
        }
    }
    debug_assert!(l == lo && r == hi - 1 && steps.len() == hi - lo - 1);
    SpanPlan { lo, hi, anchor, est_anchor, est_cost: cost, steps }
}

/// Exhaustive search over interleavings for a fixed anchor, with
/// cost-bound pruning. Returns the best plan no costlier than `bound`.
fn search_dirs(
    lo: usize,
    hi: usize,
    anchor: usize,
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
    bound: f64,
) -> Option<SpanPlan> {
    let n = hi - lo - 1;
    let mut best: Option<(f64, Vec<bool>)> = None;
    let mut dirs: Vec<bool> = Vec::with_capacity(n);
    // Iterative DFS over (frontier, rows, cost) states; `true` branches
    // (extend right) are explored first, and strict `<` comparison keeps
    // the first-found minimum — fully deterministic.
    fn rec(
        lo: usize,
        hi: usize,
        l: usize,
        r: usize,
        rows: f64,
        cost: f64,
        inputs: &PlanInputs,
        edges: &[EdgeInfo],
        dirs: &mut Vec<bool>,
        best: &mut Option<(f64, Vec<bool>)>,
        bound: f64,
    ) {
        let limit = best.as_ref().map_or(bound, |(c, _)| (*c).min(bound));
        if cost >= limit {
            return; // costs only grow
        }
        if l == lo && r == hi - 1 {
            *best = Some((cost, dirs.clone()));
            return;
        }
        if r + 1 < hi {
            let (c, next) = step_cost(inputs, edges, r, r + 1, true, rows);
            dirs.push(true);
            rec(lo, hi, l, r + 1, next, cost + c, inputs, edges, dirs, best, bound);
            dirs.pop();
        }
        if l > lo {
            let (c, next) = step_cost(inputs, edges, l - 1, l - 1, false, rows);
            dirs.push(false);
            rec(lo, hi, l - 1, r, next, cost + c, inputs, edges, dirs, best, bound);
            dirs.pop();
        }
    }
    let scan = if inputs.hinted[anchor] { inputs.eff(anchor) } else { inputs.cards[anchor] };
    rec(
        lo,
        hi,
        anchor,
        anchor,
        inputs.eff(anchor),
        scan,
        inputs,
        edges,
        &mut dirs,
        &mut best,
        bound,
    );
    best.map(|(_, dirs)| steps_for(lo, hi, anchor, &dirs, inputs, edges))
}

/// Greedy frontier extension from a fixed anchor (wide spans): at each
/// point take the cheaper of the two frontier extensions (ties extend
/// right).
fn greedy_dirs(
    lo: usize,
    hi: usize,
    anchor: usize,
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
) -> SpanPlan {
    let mut dirs = Vec::with_capacity(hi - lo - 1);
    let (mut l, mut r) = (anchor, anchor);
    let mut rows = inputs.eff(anchor);
    while !(l == lo && r == hi - 1) {
        let right = if r + 1 >= hi {
            false
        } else if l == lo {
            true
        } else {
            let (cr, _) = step_cost(inputs, edges, r, r + 1, true, rows);
            let (cl, _) = step_cost(inputs, edges, l - 1, l - 1, false, rows);
            cr <= cl
        };
        let (_, next) = if right {
            step_cost(inputs, edges, r, r + 1, true, rows)
        } else {
            step_cost(inputs, edges, l - 1, l - 1, false, rows)
        };
        dirs.push(right);
        rows = next;
        if right {
            r += 1;
        } else {
            l -= 1;
        }
    }
    steps_for(lo, hi, anchor, &dirs, inputs, edges)
}

/// Order one span: the cheapest anchor + interleaving under `inputs`.
pub(crate) fn plan_span(
    lo: usize,
    hi: usize,
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
) -> SpanPlan {
    debug_assert!(lo < hi);
    if hi - lo > MAX_EXHAUSTIVE {
        let anchor = (lo..hi)
            .min_by(|&a, &b| inputs.eff(a).partial_cmp(&inputs.eff(b)).expect("finite cards"))
            .expect("non-empty span");
        return greedy_dirs(lo, hi, anchor, inputs, edges);
    }
    let mut best: Option<SpanPlan> = None;
    for anchor in lo..hi {
        let bound = best.as_ref().map_or(f64::INFINITY, |b| b.est_cost);
        if let Some(p) = search_dirs(lo, hi, anchor, inputs, edges, bound) {
            best = Some(p);
        }
    }
    best.expect("at least one order exists")
}

/// Order one span with the anchor fixed (delta evaluation restricted to a
/// slot): exhaustive over interleavings when narrow enough, greedy
/// otherwise.
pub(crate) fn plan_span_anchored(
    lo: usize,
    hi: usize,
    anchor: usize,
    inputs: &PlanInputs,
    edges: &[EdgeInfo],
) -> SpanPlan {
    debug_assert!(lo <= anchor && anchor < hi);
    if hi - lo > MAX_EXHAUSTIVE {
        return greedy_dirs(lo, hi, anchor, inputs, edges);
    }
    search_dirs(lo, hi, anchor, inputs, edges, f64::INFINITY)
        .expect("at least one order exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic path of `n` plain-assoc edges with the given inputs.
    fn chain(n: usize) -> Vec<EdgeInfo> {
        (0..n)
            .map(|_| EdgeInfo { nonassoc: false, flat: None, fwd: None, rev: None })
            .collect()
    }

    fn inputs(cards: &[f64], fan: f64) -> PlanInputs {
        let n = cards.len();
        PlanInputs {
            cards: cards.to_vec(),
            sels: vec![1.0; n],
            fwd_fan: vec![fan; n - 1],
            rev_fan: vec![fan; n - 1],
            constrained: vec![false; n],
            hinted: vec![false; n],
        }
    }

    #[test]
    fn cost_based_anchors_at_selective_slot() {
        // Slot 2 is tiny; the best order must seed there.
        let inp = inputs(&[1000.0, 1000.0, 3.0], 2.0);
        let p = plan_span(0, 3, &inp, &chain(2));
        assert_eq!(p.anchor, 2);
        assert_eq!(p.steps.len(), 2);
        // Extensions walk left from the anchor.
        assert_eq!((p.steps[0].from_slot, p.steps[0].to_slot), (2, 1));
        assert!(!p.steps[0].forward);
        assert!(p.est_cost < 100.0, "cheap plan expected, got {}", p.est_cost);
    }

    #[test]
    fn selectivity_moves_the_anchor() {
        // Raw cards equal, but slot 1's condition keeps 1% of candidates:
        // the planner anchors there.
        let mut inp = inputs(&[100.0, 100.0, 100.0], 3.0);
        inp.sels[1] = 0.01;
        inp.constrained[1] = true;
        assert_eq!(plan_span(0, 3, &inp, &chain(2)).anchor, 1);
    }

    #[test]
    fn anchored_plan_respects_the_anchor() {
        let inp = inputs(&[1000.0, 1000.0, 1.0], 2.0);
        let p = plan_span_anchored(0, 3, 0, &inp, &chain(2));
        assert_eq!(p.anchor, 0);
        assert_eq!(p.steps.len(), 2);
    }

    #[test]
    fn greedy_handles_wide_spans() {
        let n = MAX_EXHAUSTIVE + 3;
        let cards: Vec<f64> = (0..n).map(|i| 10.0 + i as f64).collect();
        let inp = inputs(&cards, 1.5);
        let p = plan_span(0, n, &inp, &chain(n - 1));
        assert_eq!(p.steps.len(), n - 1);
        // Every slot bound exactly once.
        let mut seen: Vec<usize> = p.steps.iter().map(|s| s.to_slot).collect();
        seen.push(p.anchor);
        seen.sort_unstable();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn cross_product_stage_is_flagged() {
        let mut edges = chain(2);
        edges[1].nonassoc = true;
        let mut inp = inputs(&[10.0, 10.0, 10.0], 2.0);
        // Anchored at slot 0 the `!` stage binds slot 2.
        let p = plan_span_anchored(0, 3, 0, &inp, &edges);
        let na = p.steps.iter().find(|s| s.nonassoc).unwrap();
        assert!(na.cross, "unconstrained ! target must flag cross");
        // A constrained target is not a cross product.
        inp.constrained[2] = true;
        inp.sels[2] = 0.1;
        let p = plan_span_anchored(0, 3, 0, &inp, &edges);
        assert!(p.steps.iter().all(|s| !s.cross));
    }

    #[test]
    fn exhaustive_is_no_costlier_than_any_anchored_order() {
        let inp = inputs(&[7.0, 300.0, 2.0, 40.0], 5.0);
        let edges = chain(3);
        let cost = plan_span(0, 4, &inp, &edges).est_cost;
        for anchor in 0..4 {
            let forced = plan_span_anchored(0, 4, anchor, &inp, &edges).est_cost;
            assert!(cost <= forced + 1e-9, "anchor {anchor}: {cost} > {forced}");
        }
    }
}
