//! `rules::absint` — a multi-pass abstract interpreter over analyzed rule
//! programs (DESIGN.md §12).
//!
//! Everything here is decidable (or soundly boundable) from the **schema
//! and program text alone** — no extensional data is touched unless the
//! caller supplies a [`CardEnv`] snapshot:
//!
//! 1. **Predicate lattice** — every intra-class condition and WHERE
//!    comparison is abstracted into a per-attribute interval with excluded
//!    points ([`Ival`]): constant comparisons fold, comparison chains
//!    narrow (Int-aware: `x > 3 and x < 4` is empty over integers), and
//!    `and`/`or`/`not` trees go through NNF→DNF with a disjunct cap, so
//!    satisfiability of attribute-vs-literal predicates is decided
//!    *exactly* within the atom domain. Contradictions are `E017`; a later
//!    condition implied by the constraints already accumulated is `W108`.
//! 2. **Abstract cardinalities** — schema-derived per-slot candidate
//!    bounds and per-edge fan-out bounds (`Single` cardinality → 1,
//!    generalization identity → 1, `Many` → link count or ∞) are
//!    propagated through each context's join chain: any contiguous slot
//!    range gets a worst-case row bound (minimum over anchor choices of
//!    the directed fan product). Rule extents are bounded by the sum over
//!    retention spans; derived-subdatabase bounds flow topologically into
//!    downstream rules. Reading a provably-empty derived source is
//!    `E018`; an unconstrained chain crossing several wide (Many)
//!    association edges is the `W109` join-blowup warning.
//! 3. **Null-flow** — brace retention (`{...}`) leaves slots outside the
//!    retained span Null, and a WHERE comparison referencing such a slot
//!    drops every retained pattern, so those spans contribute **zero** to
//!    the extent bound (the quantitative side of the `W104` lint).
//! 4. **Closure reach/depth** — a `^*`/`^N` context's family reach is
//!    bounded by the seed class's extent, and a closure whose chain *and*
//!    cycle-back edges are all generalization identities reaches fixpoint
//!    at level 1 — so `^N` with `N >= 2` is a provably dead tail (`W110`).
//!
//! Soundness is machine-checked: `tests/absint.rs` asserts observed
//! runtime cardinalities never exceed the static bounds across all builtin
//! schemas and populations.

use crate::analyze::{shape, Shape};
use crate::ast::{Rule, TargetItem};
use crate::depgraph::DepGraph;
use crate::program::{Program, ProgramRule};
use dood_core::diag::{Diagnostic, Span};
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::{AssocId, ClassId};
use dood_core::schema::{Cardinality, ResolvedEdge, Schema};
use dood_core::value::{DType, Value};
use dood_oql::ast::{AggFunc, ClassRef, CmpOp, CmpRhs, PatOp, Pred, WhereCond};
use dood_store::Database;

/// Cap on DNF disjuncts; predicates exceeding it are conservatively
/// assumed satisfiable (no diagnostic, no narrowing).
const MAX_DNF: usize = 64;

/// Cap on the excluded-point scan deciding finite-integer emptiness.
const MAX_NE_SCAN: i64 = 64;

/// Wide-edge threshold for the W109 join-blowup lint: a non-closure
/// context whose chain crosses at least this many Many-cardinality
/// association edges with **no** constrained slot has a worst-case extent
/// that grows multiplicatively with every wide edge.
const W109_WIDE_EDGES: usize = 2;

// ====================================================================
// Interval lattice over attribute values
// ====================================================================

/// An abstract attribute value: an interval with excluded points, over one
/// attribute's declared value type. `None` endpoints are unbounded.
#[derive(Debug, Clone, PartialEq)]
pub struct Ival {
    lo: Option<(Value, bool)>,
    hi: Option<(Value, bool)>,
    ne: Vec<Value>,
    dtype: Option<DType>,
}

impl Ival {
    /// The unconstrained interval.
    pub fn top(dtype: Option<DType>) -> Self {
        Ival { lo: None, hi: None, ne: Vec::new(), dtype }
    }

    /// The interval one comparison atom admits.
    pub fn from_cmp(op: CmpOp, value: &Value, dtype: Option<DType>) -> Self {
        let mut iv = Ival::top(dtype);
        match op {
            CmpOp::Eq => {
                iv.lo = Some((value.clone(), true));
                iv.hi = Some((value.clone(), true));
            }
            CmpOp::Neq => iv.ne.push(value.clone()),
            CmpOp::Lt => iv.hi = Some((value.clone(), false)),
            CmpOp::Le => iv.hi = Some((value.clone(), true)),
            CmpOp::Gt => iv.lo = Some((value.clone(), false)),
            CmpOp::Ge => iv.lo = Some((value.clone(), true)),
        }
        iv.normalize();
        iv
    }

    /// Integer narrowing: over an `Int` attribute, numeric bounds tighten
    /// to the nearest admissible integer (`> 3` ⇒ `>= 4`, `< 4.5` ⇒
    /// `<= 4`), making `x > 3 and x < 4` decidably empty.
    fn normalize(&mut self) {
        if self.dtype != Some(DType::Int) {
            return;
        }
        if let Some((v, incl)) = &self.lo {
            if let Some(x) = v.as_f64() {
                let n = if *incl { x.ceil() } else { x.floor() + 1.0 };
                self.lo = Some((Value::Int(n as i64), true));
            }
        }
        if let Some((v, incl)) = &self.hi {
            if let Some(x) = v.as_f64() {
                let n = if *incl { x.floor() } else { x.ceil() - 1.0 };
                self.hi = Some((Value::Int(n as i64), true));
            }
        }
    }

    /// Greatest lower bound: the conjunction of two constraints.
    pub fn intersect(&self, other: &Ival) -> Ival {
        let lo = tighter(&self.lo, &other.lo, true);
        let hi = tighter(&self.hi, &other.hi, false);
        let mut ne = self.ne.clone();
        for v in &other.ne {
            if !ne.iter().any(|w| w.compare(v) == Some(std::cmp::Ordering::Equal)) {
                ne.push(v.clone());
            }
        }
        let mut iv = Ival { lo, hi, ne, dtype: self.dtype.or(other.dtype) };
        iv.normalize();
        iv
    }

    /// Whether no value satisfies the constraint: inverted bounds, a point
    /// that is excluded, incomparable (mixed-type) bounds, or a finite
    /// integer range fully covered by excluded points.
    pub fn is_empty(&self) -> bool {
        use std::cmp::Ordering::*;
        if let (Some((l, li)), Some((h, hi_i))) = (&self.lo, &self.hi) {
            match l.compare(h) {
                Some(Greater) | None => return true,
                Some(Equal) => {
                    if !(*li && *hi_i) || self.excludes(l) {
                        return true;
                    }
                }
                Some(Less) => {}
            }
            if self.dtype == Some(DType::Int) {
                if let (Value::Int(a), Value::Int(b)) = (l, h) {
                    if b - a < MAX_NE_SCAN && (*a..=*b).all(|i| self.excludes(&Value::Int(i))) {
                        return true;
                    }
                }
            }
        }
        false
    }

    fn excludes(&self, v: &Value) -> bool {
        self.ne.iter().any(|w| w.compare(v) == Some(std::cmp::Ordering::Equal))
    }

    fn admits(&self, v: &Value) -> bool {
        use std::cmp::Ordering::*;
        if let Some((l, incl)) = &self.lo {
            match v.compare(l) {
                Some(Less) | None => return false,
                Some(Equal) if !incl => return false,
                _ => {}
            }
        }
        if let Some((h, incl)) = &self.hi {
            match v.compare(h) {
                Some(Greater) | None => return false,
                Some(Equal) if !incl => return false,
                _ => {}
            }
        }
        !self.excludes(v)
    }

    /// Whether every value admitted by `env` is admitted by `self` — i.e.
    /// the constraint `self` adds no information on top of `env` (the
    /// `W108` subsumption test). Conservative: `false` when unsure.
    pub fn subsumes(&self, env: &Ival) -> bool {
        if !bound_covers(&self.lo, &env.lo, true) || !bound_covers(&self.hi, &env.hi, false) {
            return false;
        }
        self.ne.iter().all(|v| !env.admits(v))
    }

    /// Whether the interval carries any constraint at all.
    fn constrained(&self) -> bool {
        self.lo.is_some() || self.hi.is_some() || !self.ne.is_empty()
    }

}

/// Pick the tighter of two optional bounds (`is_lo`: larger lower bounds
/// are tighter; smaller upper bounds are tighter).
fn tighter(
    a: &Option<(Value, bool)>,
    b: &Option<(Value, bool)>,
    is_lo: bool,
) -> Option<(Value, bool)> {
    use std::cmp::Ordering::*;
    match (a, b) {
        (None, x) => x.clone(),
        (x, None) => x.clone(),
        (Some((va, ia)), Some((vb, ib))) => match va.compare(vb) {
            Some(Equal) => Some((va.clone(), *ia && *ib)),
            Some(Less) => Some(if is_lo { (vb.clone(), *ib) } else { (va.clone(), *ia) }),
            Some(Greater) => Some(if is_lo { (va.clone(), *ia) } else { (vb.clone(), *ib) }),
            // Incomparable (mixed types): keep `a`; `is_empty` catches the
            // contradiction via the lo/hi comparison.
            None => Some((va.clone(), *ia)),
        },
    }
}

/// Whether bound `outer` is at least as permissive as bound `inner`.
fn bound_covers(
    outer: &Option<(Value, bool)>,
    inner: &Option<(Value, bool)>,
    is_lo: bool,
) -> bool {
    use std::cmp::Ordering::*;
    match (outer, inner) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some((vo, io)), Some((vi, ii))) => match vo.compare(vi) {
            Some(Equal) => *io || !*ii,
            Some(Less) => is_lo,
            Some(Greater) => !is_lo,
            None => false,
        },
    }
}

/// Least upper bound of two intervals (union hull; exclusions only survive
/// when shared).
fn hull2(a: &Ival, b: &Ival) -> Ival {
    let lo = looser(&a.lo, &b.lo, true);
    let hi = looser(&a.hi, &b.hi, false);
    let ne: Vec<Value> = a.ne.iter().filter(|v| b.excludes(v)).cloned().collect();
    Ival { lo, hi, ne, dtype: a.dtype.or(b.dtype) }
}

fn looser(
    a: &Option<(Value, bool)>,
    b: &Option<(Value, bool)>,
    is_lo: bool,
) -> Option<(Value, bool)> {
    use std::cmp::Ordering::*;
    match (a, b) {
        (None, _) | (_, None) => None,
        (Some((va, ia)), Some((vb, ib))) => match va.compare(vb) {
            Some(Equal) => Some((va.clone(), *ia || *ib)),
            Some(Less) => Some(if is_lo { (va.clone(), *ia) } else { (vb.clone(), *ib) }),
            Some(Greater) => Some(if is_lo { (vb.clone(), *ib) } else { (va.clone(), *ia) }),
            None => None,
        },
    }
}

// ====================================================================
// Predicate trees: NNF → DNF over comparison atoms
// ====================================================================

/// One comparison atom of a normalized predicate.
#[derive(Clone)]
struct Atom {
    attr: String,
    op: CmpOp,
    value: Value,
}

fn negate_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Neq,
        CmpOp::Neq => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// Expand a predicate into DNF (disjuncts of atom conjunctions), pushing
/// negation to the leaves. Returns `None` when the expansion exceeds
/// [`MAX_DNF`] — the caller must then assume satisfiability.
fn dnf(pred: &Pred, neg: bool) -> Option<Vec<Vec<Atom>>> {
    match (pred, neg) {
        (Pred::Cmp { attr, op, value }, n) => {
            let op = if n { negate_op(*op) } else { *op };
            Some(vec![vec![Atom { attr: attr.clone(), op, value: value.to_value() }]])
        }
        (Pred::Not(p), n) => dnf(p, !n),
        // De Morgan: not(a and b) = not a or not b.
        (Pred::And(a, b), false) | (Pred::Or(a, b), true) => {
            let (da, db) = (dnf(a, neg)?, dnf(b, neg)?);
            if da.len().saturating_mul(db.len()) > MAX_DNF {
                return None;
            }
            let mut out = Vec::with_capacity(da.len() * db.len());
            for x in &da {
                for y in &db {
                    let mut c = x.clone();
                    c.extend(y.iter().cloned());
                    out.push(c);
                }
            }
            Some(out)
        }
        (Pred::Or(a, b), false) | (Pred::And(a, b), true) => {
            let mut out = dnf(a, neg)?;
            out.extend(dnf(b, neg)?);
            if out.len() > MAX_DNF {
                return None;
            }
            Some(out)
        }
    }
}

/// The per-attribute abstraction of one predicate: overall satisfiability
/// (exact up to the DNF cap) plus, for each attribute constrained by
/// *every* satisfiable disjunct, the hull of its intervals (sound for
/// narrowing).
struct PredAbs {
    sat: bool,
    hull: FxHashMap<String, Ival>,
}

/// Abstract a predicate tree; `dtype_of` resolves each attribute's
/// declared value type (`None` leaves the atom type-unconstrained rather
/// than guessing).
fn abstract_pred(pred: &Pred, dtype_of: &dyn Fn(&str) -> Option<DType>) -> PredAbs {
    let Some(disjuncts) = dnf(pred, false) else {
        return PredAbs { sat: true, hull: FxHashMap::default() };
    };
    let mut sat_envs: Vec<FxHashMap<String, Ival>> = Vec::new();
    for conj in &disjuncts {
        let mut env: FxHashMap<String, Ival> = FxHashMap::default();
        let mut ok = true;
        for a in conj {
            let dt = dtype_of(&a.attr);
            let iv = Ival::from_cmp(a.op, &a.value, dt);
            let cur = env.entry(a.attr.clone()).or_insert_with(|| Ival::top(dt));
            *cur = cur.intersect(&iv);
            if cur.is_empty() {
                ok = false;
                break;
            }
        }
        if ok {
            sat_envs.push(env);
        }
    }
    if sat_envs.is_empty() {
        return PredAbs { sat: false, hull: FxHashMap::default() };
    }
    let mut hull: FxHashMap<String, Ival> = FxHashMap::default();
    if let Some(first) = sat_envs.first() {
        'attrs: for (attr, iv0) in first {
            let mut acc = iv0.clone();
            for env in &sat_envs[1..] {
                let Some(iv) = env.get(attr) else { continue 'attrs };
                acc = hull2(&acc, iv);
            }
            hull.insert(attr.clone(), acc);
        }
    }
    PredAbs { sat: true, hull }
}

// ====================================================================
// Cardinality environment
// ====================================================================

/// The extensional snapshot bounds are computed against:
/// [`CardEnv::unknown`] (pure schema reasoning — extents and link counts
/// are ∞) or a live [`Database`] snapshot (bounds become finite and
/// `doodprof --plan` can compare them to measured rows).
pub struct CardEnv {
    extents: Option<FxHashMap<ClassId, f64>>,
    links: Option<FxHashMap<AssocId, f64>>,
}

impl CardEnv {
    /// Pure schema reasoning: every extent and link count is unbounded.
    pub fn unknown() -> Self {
        CardEnv { extents: None, links: None }
    }

    /// Snapshot a database's extent and link-count sizes.
    pub fn from_db(db: &Database) -> Self {
        let schema = db.schema();
        let extents = (0..schema.class_count())
            .map(|i| {
                let id = ClassId(i as u32);
                (id, db.extent_size(id) as f64)
            })
            .collect();
        let links =
            schema.assocs().iter().map(|a| (a.id, db.link_count(a.id) as f64)).collect();
        CardEnv { extents: Some(extents), links: Some(links) }
    }

    fn extent_hi(&self, class: Option<ClassId>) -> f64 {
        match (&self.extents, class) {
            (Some(m), Some(c)) => m.get(&c).copied().unwrap_or(f64::INFINITY),
            _ => f64::INFINITY,
        }
    }

    fn links_hi(&self, assoc: AssocId) -> f64 {
        match &self.links {
            Some(m) => m.get(&assoc).copied().unwrap_or(f64::INFINITY),
            None => f64::INFINITY,
        }
    }
}

/// `0 × ∞ = 0` multiplication (an empty slot annihilates any fan-out).
fn mul_b(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Render a bound with `*` for ∞ (the `doodlint --absint` table format).
pub fn show_bound(v: f64) -> String {
    if v.is_infinite() {
        "*".to_string()
    } else {
        format!("{v:.0}")
    }
}

// ====================================================================
// Per-rule bounds
// ====================================================================

/// Closure reach/depth bounds for a cyclic context.
#[derive(Debug, Clone)]
pub struct ClosureBounds {
    /// Bound on distinct objects across all closure levels of the family
    /// (the seed class's extent bound).
    pub reach_hi: f64,
    /// Bound on the deepest level the fixpoint can populate; `1.0` when
    /// every chain and cycle edge is a generalization identity.
    pub depth_hi: f64,
    /// The declared `^N` level bound, when one was written.
    pub levels: Option<u32>,
}

/// The abstract-interpretation result for one rule or query context.
#[derive(Debug, Clone)]
pub struct RuleBounds {
    /// Rule or query name.
    pub owner: String,
    /// Slot display names, in context order.
    pub slot_names: Vec<String>,
    /// Per slot: worst-case candidate count (0 when the slot's predicate
    /// is unsatisfiable or its source subdatabase is provably empty).
    pub slot_hi: Vec<f64>,
    /// Per edge: fan-out bound traversing left→right.
    pub fan_fwd: Vec<f64>,
    /// Per edge: fan-out bound traversing right→left.
    pub fan_rev: Vec<f64>,
    /// Worst-case extent bound (sum over retention spans, null-flow-aware).
    pub rows_hi: f64,
    /// Closure bounds, for cyclic contexts.
    pub closure: Option<ClosureBounds>,
    /// Whether the context is provably empty.
    pub empty: bool,
    /// Whether this entry is a query (no target subdatabase).
    pub is_query: bool,
}

impl RuleBounds {
    /// Worst-case rows after binding the contiguous slot range `[lo, hi)`:
    /// the minimum over anchor choices of the directed fan product. The
    /// per-step static column of `doodprof --plan` reads this (a compiled
    /// plan's bound set is always a contiguous range — join orders are
    /// interval extensions).
    pub fn range_hi(&self, lo: usize, hi: usize) -> f64 {
        assert!(lo < hi && hi <= self.slot_hi.len());
        range_hi_of(&self.slot_hi, &self.fan_fwd, &self.fan_rev, lo, hi)
    }

    /// One table row per slot/edge: the `doodlint --absint` rendering.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} {}: rows<={}{}\n",
            if self.is_query { "query" } else { "rule" },
            self.owner,
            show_bound(self.rows_hi),
            if self.empty { " (EMPTY)" } else { "" },
        );
        for (i, name) in self.slot_names.iter().enumerate() {
            out.push_str(&format!("  slot {name}: card<={}\n", show_bound(self.slot_hi[i])));
            if i + 1 < self.slot_names.len() {
                out.push_str(&format!(
                    "  edge {}-{}: fan<={}/{}\n",
                    name,
                    self.slot_names[i + 1],
                    show_bound(self.fan_fwd[i]),
                    show_bound(self.fan_rev[i]),
                ));
            }
        }
        if let Some(c) = &self.closure {
            out.push_str(&format!(
                "  closure: reach<={} depth<={}{}\n",
                show_bound(c.reach_hi),
                show_bound(c.depth_hi),
                match c.levels {
                    Some(n) => format!(" (declared ^{n})"),
                    None => String::new(),
                },
            ));
        }
        out
    }
}

/// Worst-case rows for a contiguous slot range.
fn range_hi_of(slot_hi: &[f64], fan_fwd: &[f64], fan_rev: &[f64], lo: usize, hi: usize) -> f64 {
    let mut best = f64::INFINITY;
    for anchor in lo..hi {
        let mut rows = slot_hi[anchor];
        // Extend right then left; the bound product is order-independent.
        for j in anchor..hi - 1 {
            rows = mul_b(rows, fan_fwd[j].min(slot_hi[j + 1]));
        }
        for j in (lo..anchor).rev() {
            rows = mul_b(rows, fan_rev[j].min(slot_hi[j]));
        }
        best = best.min(rows);
    }
    best
}

/// The whole program's abstract interpretation: per-context bounds plus
/// the diagnostics the pass derives from them.
pub struct Analysis {
    /// Bounds per rule (declaration order) then query (declaration order).
    pub rules: Vec<RuleBounds>,
    /// E017/E018/W108/W109/W110 diagnostics, unsorted.
    pub diags: Vec<Diagnostic>,
    /// Derived-subdatabase extent bounds (sums over deriving rules).
    pub subdb_hi: FxHashMap<String, f64>,
}

impl Analysis {
    /// The bounds entry for a rule or query name.
    pub fn bounds_for(&self, owner: &str) -> Option<&RuleBounds> {
        self.rules.iter().find(|r| r.owner == owner)
    }
}

// ====================================================================
// The interpreter
// ====================================================================

/// Run the abstract interpreter over a program.
pub fn analyze_bounds(
    program: &Program,
    schema: &Schema,
    external: &FxHashSet<String>,
    env: &CardEnv,
) -> Analysis {
    let mut it = Interp {
        prog: program,
        schema,
        external,
        layouts: FxHashMap::default(),
        subdb_hi: FxHashMap::default(),
        out: Vec::new(),
        diags: Vec::new(),
    };
    it.run(env);
    Analysis { rules: it.out, diags: it.diags, subdb_hi: it.subdb_hi }
}

/// The diagnostics-only entry point `rules::analyze` folds in: pure
/// schema reasoning (no extensional data). The program's own `extern`
/// directives are honored in addition to `external`.
pub fn diagnostics(
    program: &Program,
    schema: &Schema,
    external: &FxHashSet<String>,
) -> Vec<Diagnostic> {
    let mut ext = external.clone();
    ext.extend(program.externs.iter().cloned());
    analyze_bounds(program, schema, &ext, &CardEnv::unknown()).diags
}

/// A derived subdatabase's statically-known slot layout.
struct Layout {
    slot_names: Vec<String>,
    bases: Vec<Option<ClassId>>,
    attrs: Vec<Option<Vec<String>>>,
}

/// A resolved context occurrence.
struct Occ<'a> {
    name: String,
    subdb: Option<String>,
    base: Option<ClassId>,
    attr_filter: Option<Vec<String>>,
    pred: Option<&'a Pred>,
    span: Span,
}

struct Interp<'a> {
    prog: &'a Program,
    schema: &'a Schema,
    external: &'a FxHashSet<String>,
    layouts: FxHashMap<String, Layout>,
    subdb_hi: FxHashMap<String, f64>,
    out: Vec<RuleBounds>,
    diags: Vec<Diagnostic>,
}

impl<'a> Interp<'a> {
    fn err(&mut self, code: &'static str, msg: String, span: Span, owner: &str) {
        let d = Diagnostic::error(code, msg).with_span(span, &self.prog.source).with_owner(owner);
        self.diags.push(d);
    }

    fn warn(&mut self, code: &'static str, msg: String, span: Span, owner: &str, note: &str) {
        let d = Diagnostic::warning(code, msg)
            .with_span(span, &self.prog.source)
            .with_owner(owner)
            .with_note(note);
        self.diags.push(d);
    }

    fn run(&mut self, env: &CardEnv) {
        // Rule processing order: topological when stratified (so source
        // subdatabase bounds exist before readers); declaration order on a
        // cycle (the analyzer reports the cycle separately).
        let rules: Vec<Rule> = self.prog.rules.iter().map(|r| r.rule.clone()).collect();
        let graph = DepGraph::build(&rules);
        let order: Vec<usize> = match graph.topo_order() {
            Ok(names) => {
                let mut out = Vec::new();
                for n in &names {
                    out.extend(graph.rules_for(n).iter().copied());
                }
                out
            }
            Err(_) => (0..self.prog.rules.len()).collect(),
        };
        let mut computed: Vec<(usize, RuleBounds)> = Vec::new();
        for ri in order {
            let pr = &self.prog.rules[ri];
            let b = self.interp_rule(pr, env);
            *self.subdb_hi.entry(pr.rule.target_subdb.clone()).or_insert(0.0) += b.rows_hi;
            self.record_layout(pr);
            computed.push((ri, b));
        }
        computed.sort_by_key(|(ri, _)| *ri);
        self.out.extend(computed.into_iter().map(|(_, b)| b));
        let queries = self.prog.queries.iter();
        for q in queries {
            let sh = shape(&q.query.context.seq);
            let occs = self.resolve_occs(&sh, &q.occurrences);
            let b = self.interp_context(
                &q.name,
                &sh,
                &occs,
                q.query.context.closure.as_ref().map(|c| c.iterations),
                &q.query.where_,
                &q.wheres,
                env,
                true,
            );
            self.out.push(b);
        }
    }

    fn interp_rule(&mut self, pr: &'a ProgramRule, env: &CardEnv) -> RuleBounds {
        let rule = &pr.rule;
        let sh = shape(&rule.context.seq);
        let occs = self.resolve_occs(&sh, &pr.spans.occurrences);
        self.interp_context(
            &rule.name,
            &sh,
            &occs,
            rule.context.closure.as_ref().map(|c| c.iterations),
            &rule.where_,
            &pr.spans.wheres,
            env,
            false,
        )
    }

    /// Record the target subdatabase's slot layout (first deriving rule
    /// wins, matching the analyzer's layout convention).
    fn record_layout(&mut self, pr: &'a ProgramRule) {
        let rule = &pr.rule;
        if self.layouts.contains_key(&rule.target_subdb) {
            return;
        }
        let sh = shape(&rule.context.seq);
        let mut slot_names = Vec::new();
        let mut bases = Vec::new();
        let mut attrs = Vec::new();
        for t in &rule.targets {
            if let TargetItem::Class { class, attrs: a } = t {
                let base = sh
                    .occs
                    .iter()
                    .find(|(c, _)| c.name == class.name)
                    .and_then(|(c, _)| self.base_of(c));
                bases.push(base);
                slot_names.push(class.name.clone());
                attrs.push(a.clone());
            }
        }
        self.layouts.insert(rule.target_subdb.clone(), Layout { slot_names, bases, attrs });
    }

    /// The base class a name denotes: the class itself, or (for a closure
    /// alias like `Part_1`) its family class.
    fn class_of(&self, name: &str) -> Option<ClassId> {
        self.schema.try_class_by_name(name).or_else(|| {
            let (family, level) = ClassRef::split_alias(name);
            if level > 0 {
                self.schema.try_class_by_name(family)
            } else {
                None
            }
        })
    }

    fn base_of(&self, cref: &ClassRef) -> Option<ClassId> {
        match &cref.subdb {
            Some(sd) => match self.layouts.get(sd.as_str()) {
                Some(l) => l
                    .slot_names
                    .iter()
                    .position(|n| *n == cref.name)
                    .and_then(|i| l.bases[i])
                    .or_else(|| self.class_of(&cref.name)),
                None => self.class_of(&cref.name),
            },
            None => self.class_of(&cref.name),
        }
    }

    fn resolve_occs(&self, sh: &Shape<'a>, spans: &[Span]) -> Vec<Occ<'a>> {
        sh.occs
            .iter()
            .enumerate()
            .map(|(i, (cref, pred))| {
                let attr_filter = cref.subdb.as_ref().and_then(|sd| {
                    let l = self.layouts.get(sd.as_str())?;
                    let idx = l.slot_names.iter().position(|n| *n == cref.name)?;
                    l.attrs[idx].clone()
                });
                Occ {
                    name: cref.name.clone(),
                    subdb: cref.subdb.clone(),
                    base: self.base_of(cref),
                    attr_filter,
                    pred: *pred,
                    span: spans.get(i).copied().unwrap_or_default(),
                }
            })
            .collect()
    }

    /// Resolve an attribute's declared type on an occurrence, respecting
    /// the attribute filter a deriving rule's THEN clause imposed.
    fn dtype_on(&self, occ: &Occ<'_>, attr: &str) -> Option<DType> {
        if let Some(f) = &occ.attr_filter {
            if !f.iter().any(|a| a == attr) {
                return None;
            }
        }
        let base = occ.base?;
        self.schema.resolve_attr(base, attr).ok().and_then(|ra| self.schema.attr_dtype(ra.attr))
    }

    #[allow(clippy::too_many_arguments)]
    fn interp_context(
        &mut self,
        owner: &str,
        sh: &Shape<'_>,
        occs: &[Occ<'_>],
        closure: Option<Option<u32>>,
        wheres: &[WhereCond],
        where_spans: &[Span],
        env: &CardEnv,
        is_query: bool,
    ) -> RuleBounds {
        let n = occs.len();
        // ---- Pass 1: predicate lattice per slot -----------------------
        let mut slot_env: Vec<FxHashMap<String, Ival>> = Vec::with_capacity(n);
        let mut slot_unsat = vec![false; n];
        for (i, occ) in occs.iter().enumerate() {
            let mut envmap = FxHashMap::default();
            if let Some(p) = occ.pred {
                let abs = abstract_pred(p, &|attr| self.dtype_on(occ, attr));
                if !abs.sat {
                    slot_unsat[i] = true;
                    self.err(
                        "E017",
                        format!(
                            "condition on `{}` is statically unsatisfiable: no value of \
                             the constrained attributes can satisfy it",
                            occ.name
                        ),
                        occ.span,
                        owner,
                    );
                } else {
                    envmap = abs.hull;
                }
            }
            slot_env.push(envmap);
        }
        // ---- Pass 2: WHERE narrowing (E017 / W108) --------------------
        let mut where_unsat = false;
        for (wi, cond) in wheres.iter().enumerate() {
            let span = where_spans.get(wi).copied().unwrap_or_default();
            where_unsat |=
                self.interp_where(owner, cond, span, occs, &mut slot_env, &mut slot_unsat);
        }
        // ---- Pass 3: abstract cardinalities ---------------------------
        let mut slot_hi = Vec::with_capacity(n);
        for (i, occ) in occs.iter().enumerate() {
            let raw = match &occ.subdb {
                Some(sd) if self.external.contains(sd.as_str()) => f64::INFINITY,
                Some(sd) => match self.subdb_hi.get(sd.as_str()).copied() {
                    Some(v) => {
                        if v == 0.0 {
                            self.err(
                                "E018",
                                format!(
                                    "statically-empty context: subdatabase `{sd}` is \
                                     provably empty (no deriving rule can produce a \
                                     pattern)"
                                ),
                                occ.span,
                                owner,
                            );
                        }
                        v
                    }
                    None => f64::INFINITY,
                },
                None => env.extent_hi(occ.base),
            };
            slot_hi.push(if slot_unsat[i] { 0.0 } else { raw });
        }
        // ---- Edge fan-out bounds + wide-edge count --------------------
        let mut fan_fwd = Vec::new();
        let mut fan_rev = Vec::new();
        let mut wide_edges = 0usize;
        for i in 0..n.saturating_sub(1) {
            let (f, r, wide) = self.edge_fans(&occs[i], &occs[i + 1], sh.ops[i], &slot_hi, i, env);
            if wide {
                wide_edges += 1;
            }
            fan_fwd.push(f);
            fan_rev.push(r);
        }
        // ---- W109: join blowup ---------------------------------------
        let constrained = (0..n).any(|i| occs[i].pred.is_some() || occs[i].subdb.is_some());
        if closure.is_none() && !constrained && wide_edges >= W109_WIDE_EDGES && n >= 3 {
            self.warn(
                "W109",
                format!(
                    "join blowup: the chain crosses {wide_edges} wide (Many-cardinality) \
                     association edges with no narrowing condition on any slot; the \
                     worst-case extent grows multiplicatively"
                ),
                occs[0].span,
                owner,
                "add a `[...]` condition or read from a restricted subdatabase",
            );
        }
        // ---- Retention spans + null-flow ------------------------------
        let mut spans: Vec<(usize, usize)> = vec![(0, n)];
        for &(lo, hi) in &sh.groups {
            if !(lo == 0 && hi + 1 == n) {
                spans.push((lo, hi + 1));
            }
        }
        let where_slots = where_cmp_slots(wheres, occs);
        let mut rows_hi = 0.0f64;
        for &(lo, hi) in &spans {
            // Null-flow: a WHERE comparison referencing a slot outside this
            // retained span sees Null there and drops every retained
            // pattern — the span contributes nothing.
            if where_slots.iter().any(|&s| s < lo || s >= hi) {
                continue;
            }
            if lo < hi {
                rows_hi += range_hi_of(&slot_hi, &fan_fwd, &fan_rev, lo, hi);
            }
        }
        if where_unsat {
            rows_hi = 0.0;
        }
        // ---- Closure bounds (reach / depth, W110) ---------------------
        let closure_bounds = if let Some(levels) = closure {
            let all_identity = n > 0 && self.closure_all_identity(occs);
            let depth_hi =
                if all_identity { 1.0 } else { levels.map_or(f64::INFINITY, |l| l as f64) };
            if all_identity {
                if let Some(l) = levels {
                    if l >= 2 {
                        self.warn(
                            "W110",
                            format!(
                                "closure bound `^{l}` provably exceeds the schema reach: \
                                 every chain and cycle edge is a generalization \
                                 identity, so the fixpoint terminates at level 1 and \
                                 levels 2..{l} are dead"
                            ),
                            occs[0].span,
                            owner,
                            "`^1` (or no bound at all) derives the same result",
                        );
                    }
                }
            }
            // Chain counts are not usefully boundable for closures, but
            // emptiness still propagates: an empty chain slot (or an
            // unsatisfiable WHERE) kills every chain at every level.
            let chain_empty = slot_hi.iter().any(|&h| h == 0.0) || where_unsat;
            rows_hi = if chain_empty { 0.0 } else { f64::INFINITY };
            Some(ClosureBounds {
                reach_hi: env.extent_hi(occs.first().and_then(|o| o.base)),
                depth_hi,
                levels,
            })
        } else {
            None
        };
        RuleBounds {
            owner: owner.to_string(),
            slot_names: occs.iter().map(|o| o.name.clone()).collect(),
            slot_hi,
            fan_fwd,
            fan_rev,
            rows_hi,
            closure: closure_bounds,
            empty: rows_hi == 0.0,
            is_query,
        }
    }

    /// Narrow slot environments through one WHERE condition, reporting
    /// E017 (contradiction) and W108 (subsumption). Returns whether the
    /// condition is unsatisfiable — it then empties the whole context
    /// (`apply_where` drops even retained patterns).
    fn interp_where(
        &mut self,
        owner: &str,
        cond: &WhereCond,
        span: Span,
        occs: &[Occ<'_>],
        slot_env: &mut [FxHashMap<String, Ival>],
        slot_unsat: &mut [bool],
    ) -> bool {
        match cond {
            WhereCond::Cmp { left: (cref, attr), op, right: CmpRhs::Lit(lit) } => {
                let Some(si) = find_occ(occs, cref) else { return false };
                let Some(dt) = self.dtype_on(&occs[si], attr) else {
                    return false; // unresolvable: the analyzer reports it
                };
                let iv = Ival::from_cmp(*op, &lit.to_value(), Some(dt));
                if iv.is_empty() {
                    slot_unsat[si] = true;
                    self.err(
                        "E017",
                        format!(
                            "WHERE condition on `{cref}.{attr}` is statically \
                             unsatisfiable on its own"
                        ),
                        span,
                        owner,
                    );
                    return true;
                }
                let cur =
                    slot_env[si].entry(attr.clone()).or_insert_with(|| Ival::top(Some(dt)));
                let subsumed = iv.subsumes(cur) && cur.constrained();
                let narrowed = cur.intersect(&iv);
                let contradiction = narrowed.is_empty();
                *cur = narrowed;
                if subsumed {
                    self.warn(
                        "W108",
                        format!(
                            "WHERE condition on `{cref}.{attr}` is subsumed by the \
                             constraints already established on that attribute: it can \
                             never drop a pattern"
                        ),
                        span,
                        owner,
                        "remove it, or tighten the earlier condition",
                    );
                }
                if contradiction {
                    slot_unsat[si] = true;
                    self.err(
                        "E017",
                        format!(
                            "WHERE condition on `{cref}.{attr}` contradicts the \
                             constraints already established for `{}`",
                            occs[si].name
                        ),
                        span,
                        owner,
                    );
                    return true;
                }
                false
            }
            WhereCond::Cmp { .. } => false, // attr-vs-attr: no static verdict
            WhereCond::Agg { func: AggFunc::Count, op, value, .. } => {
                // A COUNT is a non-negative integer: a threshold excluding
                // all of [0, ∞) is impossible; one admitting all of it is
                // vacuous.
                let iv = Ival::from_cmp(*op, &value.to_value(), Some(DType::Int));
                let nonneg = Ival::from_cmp(CmpOp::Ge, &Value::Int(0), Some(DType::Int));
                if iv.intersect(&nonneg).is_empty() {
                    self.err(
                        "E017",
                        "WHERE count(...) threshold is statically unsatisfiable: a \
                         count is never negative"
                            .to_string(),
                        span,
                        owner,
                    );
                    true
                } else {
                    if iv.subsumes(&nonneg) {
                        self.warn(
                            "W108",
                            "WHERE count(...) threshold is vacuous: every count \
                             satisfies it"
                                .to_string(),
                            span,
                            owner,
                            "every group passes this threshold",
                        );
                    }
                    false
                }
            }
            WhereCond::Agg { .. } => false, // sum/avg/min/max: no static bounds
        }
    }

    /// Fan-out bounds for one edge in both directions, plus whether the
    /// edge is wide (a Many-cardinality association — both traversal
    /// directions can exceed 1 in the worst case).
    fn edge_fans(
        &self,
        a: &Occ<'_>,
        b: &Occ<'_>,
        op: PatOp,
        slot_hi: &[f64],
        edge: usize,
        env: &CardEnv,
    ) -> (f64, f64, bool) {
        if matches!(op, PatOp::NonAssoc) {
            // `!` keeps unlinked pairs: per row, up to the whole opposite
            // candidate set. (W106 owns the lint for this shape.)
            return (slot_hi[edge + 1], slot_hi[edge], false);
        }
        // Two slots of the same derived subdatabase: adjacency through the
        // source's patterns, bounded by its pattern count.
        if a.subdb.is_some() && a.subdb == b.subdb {
            let hi = a
                .subdb
                .as_deref()
                .and_then(|sd| self.subdb_hi.get(sd).copied())
                .unwrap_or(f64::INFINITY);
            return (hi, hi, false);
        }
        let (Some(ca), Some(cb)) = (a.base, b.base) else {
            return (f64::INFINITY, f64::INFINITY, false);
        };
        match self.schema.resolve_edge(ca, cb) {
            Ok(ResolvedEdge::Identity { .. }) => (1.0, 1.0, false),
            Ok(ResolvedEdge::Assoc { assoc, forward, .. }) => {
                let def = self.schema.assoc(assoc);
                // A direct generalization link is identity-valued: the
                // subclass object *is* the superclass object, so the fan
                // is 1 both ways regardless of declared cardinality.
                if def.is_generalization() {
                    return (1.0, 1.0, false);
                }
                let links = env.links_hi(assoc);
                // `forward` = this edge's left→right traversal follows the
                // association's own from→to orientation; `Single` bounds
                // exactly that direction. Generalization climbing on
                // either side is identity-valued (fan × 1).
                let narrow = def.cardinality == Cardinality::Single;
                let (f, r) = if forward {
                    (if narrow { 1.0 } else { links }, links)
                } else {
                    (links, if narrow { 1.0 } else { links })
                };
                (f, r, !narrow)
            }
            Err(_) => (f64::INFINITY, f64::INFINITY, false),
        }
    }

    /// Whether every chain edge *and* the cycle-back edge of a closure
    /// resolve to generalization identities (the sound W110 case: the
    /// fixpoint reaches every member at level 1).
    fn closure_all_identity(&self, occs: &[Occ<'_>]) -> bool {
        let n = occs.len();
        let ident = |x: &Occ<'_>, y: &Occ<'_>| -> bool {
            match (x.base, y.base) {
                (Some(a), Some(b)) => match self.schema.resolve_edge(a, b) {
                    Ok(ResolvedEdge::Identity { .. }) => true,
                    Ok(ResolvedEdge::Assoc { assoc, .. }) => {
                        self.schema.assoc(assoc).is_generalization()
                    }
                    Err(_) => false,
                },
                _ => false,
            }
        };
        (0..n - 1).all(|i| ident(&occs[i], &occs[i + 1])) && ident(&occs[n - 1], &occs[0])
    }
}

/// The unique occurrence a WHERE operand names, when unambiguous.
fn find_occ(occs: &[Occ<'_>], cref: &ClassRef) -> Option<usize> {
    let hits: Vec<usize> = occs
        .iter()
        .enumerate()
        .filter(|(_, o)| {
            o.name == cref.name
                && cref.subdb.as_ref().is_none_or(|s| o.subdb.as_deref() == Some(s))
        })
        .map(|(i, _)| i)
        .collect();
    if hits.len() == 1 {
        Some(hits[0])
    } else {
        None
    }
}

/// Slot indices referenced by WHERE comparisons (null-flow tracking).
fn where_cmp_slots(wheres: &[WhereCond], occs: &[Occ<'_>]) -> Vec<usize> {
    let mut out = Vec::new();
    for c in wheres {
        if let WhereCond::Cmp { left: (cref, _), right, .. } = c {
            out.extend(find_occ(occs, cref));
            if let CmpRhs::Attr(rc, _) = right {
                out.extend(find_occ(occs, rc));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_oql::ast::Literal;

    fn iv(op: CmpOp, v: i64) -> Ival {
        Ival::from_cmp(op, &Value::Int(v), Some(DType::Int))
    }

    fn cmp(attr: &str, op: CmpOp, v: i64) -> Pred {
        Pred::Cmp { attr: attr.into(), op, value: Literal::Int(v) }
    }

    #[test]
    fn integer_narrowing_detects_gap_contradictions() {
        // x > 3 and x < 4 over Int is empty; over Real it is not.
        let a = iv(CmpOp::Gt, 3).intersect(&iv(CmpOp::Lt, 4));
        assert!(a.is_empty());
        let ar = Ival::from_cmp(CmpOp::Gt, &Value::Real(3.0), Some(DType::Real))
            .intersect(&Ival::from_cmp(CmpOp::Lt, &Value::Real(4.0), Some(DType::Real)));
        assert!(!ar.is_empty());
    }

    #[test]
    fn point_exclusion_empties_singletons() {
        assert!(iv(CmpOp::Eq, 5).intersect(&iv(CmpOp::Neq, 5)).is_empty());
        assert!(!iv(CmpOp::Eq, 5).intersect(&iv(CmpOp::Neq, 6)).is_empty());
    }

    #[test]
    fn finite_int_range_covered_by_exclusions() {
        let a = iv(CmpOp::Ge, 1)
            .intersect(&iv(CmpOp::Le, 2))
            .intersect(&iv(CmpOp::Neq, 1))
            .intersect(&iv(CmpOp::Neq, 2));
        assert!(a.is_empty());
    }

    #[test]
    fn subsumption_is_directional() {
        let env = iv(CmpOp::Gt, 10); // normalized to x >= 11
        assert!(iv(CmpOp::Gt, 5).subsumes(&env), "x > 5 adds nothing to x >= 11");
        assert!(!iv(CmpOp::Gt, 20).subsumes(&env), "x > 20 narrows x >= 11");
        assert!(iv(CmpOp::Neq, 3).subsumes(&env), "x != 3 adds nothing to x >= 11");
        assert!(!iv(CmpOp::Neq, 12).subsumes(&env), "x != 12 cuts into x >= 11");
    }

    #[test]
    fn string_intervals_order() {
        let le_b = Ival::from_cmp(CmpOp::Le, &Value::str("B"), Some(DType::Str));
        let ge_c = Ival::from_cmp(CmpOp::Ge, &Value::str("C"), Some(DType::Str));
        assert!(le_b.intersect(&ge_c).is_empty());
        let ge_a = Ival::from_cmp(CmpOp::Ge, &Value::str("A"), Some(DType::Str));
        assert!(!le_b.intersect(&ge_a).is_empty());
    }

    #[test]
    fn dnf_handles_or_and_not() {
        // (x < 2 or x > 8) and x = 5 is unsatisfiable.
        let p = Pred::And(
            Box::new(Pred::Or(
                Box::new(cmp("x", CmpOp::Lt, 2)),
                Box::new(cmp("x", CmpOp::Gt, 8)),
            )),
            Box::new(cmp("x", CmpOp::Eq, 5)),
        );
        assert!(!abstract_pred(&p, &|_| Some(DType::Int)).sat);
        // not(x >= 0 and x <= 10) and x = 5 is also unsatisfiable.
        let q = Pred::And(
            Box::new(Pred::Not(Box::new(Pred::And(
                Box::new(cmp("x", CmpOp::Ge, 0)),
                Box::new(cmp("x", CmpOp::Le, 10)),
            )))),
            Box::new(cmp("x", CmpOp::Eq, 5)),
        );
        assert!(!abstract_pred(&q, &|_| Some(DType::Int)).sat);
        // The satisfiable variant stays satisfiable.
        let r = Pred::And(
            Box::new(Pred::Or(
                Box::new(cmp("x", CmpOp::Lt, 2)),
                Box::new(cmp("x", CmpOp::Gt, 8)),
            )),
            Box::new(cmp("x", CmpOp::Eq, 9)),
        );
        assert!(abstract_pred(&r, &|_| Some(DType::Int)).sat);
    }

    #[test]
    fn hull_of_disjunction_is_loose() {
        // x = 1 or x = 9: the hull is [1, 9]; satisfiable.
        let p = Pred::Or(Box::new(cmp("x", CmpOp::Eq, 1)), Box::new(cmp("x", CmpOp::Eq, 9)));
        let abs = abstract_pred(&p, &|_| Some(DType::Int));
        assert!(abs.sat);
        let h = &abs.hull["x"];
        assert!(h.admits(&Value::Int(5)), "hull is the loose union");
        assert!(!h.admits(&Value::Int(0)));
        assert!(!h.admits(&Value::Int(10)));
    }

    #[test]
    fn range_bound_anchors_and_annihilates() {
        // [1000, 10, 1000] with a Single left edge and a capped-wide right
        // edge: the bound is finite; any zero slot annihilates it.
        let slot_hi = [1000.0, 10.0, 1000.0];
        let fan_fwd = [1.0, f64::INFINITY];
        let fan_rev = [f64::INFINITY, 1.0];
        let b = range_hi_of(&slot_hi, &fan_fwd, &fan_rev, 0, 3);
        assert!(b.is_finite());
        assert_eq!(range_hi_of(&[0.0, 10.0, 1000.0], &fan_fwd, &fan_rev, 0, 3), 0.0);
        // A sub-range ignores slots outside it.
        assert_eq!(range_hi_of(&slot_hi, &fan_fwd, &fan_rev, 1, 2), 10.0);
    }

    #[test]
    fn mul_b_guards_zero_times_infinity() {
        assert_eq!(mul_b(0.0, f64::INFINITY), 0.0);
        assert_eq!(mul_b(f64::INFINITY, 0.0), 0.0);
        assert_eq!(mul_b(2.0, 3.0), 6.0);
    }

    #[test]
    fn show_bound_renders_infinity_as_star() {
        assert_eq!(show_bound(f64::INFINITY), "*");
        assert_eq!(show_bound(42.0), "42");
    }
}
