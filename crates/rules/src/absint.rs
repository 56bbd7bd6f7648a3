//! `rules::absint` — abstract interpretation of analyzed rule programs
//! (DESIGN.md §12), in two stages over the analyzer's one resolution.
//!
//! **In the analyzer's walk** (schema only, every `analyze`/`register`):
//!
//! 1. **Predicate lattice** — every intra-class condition and WHERE
//!    comparison is abstracted into a per-attribute interval with excluded
//!    points ([`Ival`]): constant comparisons fold, comparison chains
//!    narrow (Int-aware: `x > 3 and x < 4` is empty over integers), and
//!    `and`/`or`/`not` trees go through NNF→DNF with a disjunct cap, so
//!    satisfiability of attribute-vs-literal predicates is decided
//!    *exactly* within the atom domain. Contradictions are `E017`; a later
//!    condition implied by the constraints already accumulated is `W108`.
//! 2. **Emptiness** — a context is provably empty when a predicate or
//!    WHERE condition admits nothing, or it reads a provably-empty derived
//!    subdatabase (`E018`); the flag flows to readers in topological
//!    order. Brace retention counts (null-flow, below).
//! 3. **Schema shape** — an unconstrained chain crossing several wide
//!    (Many) association edges is the `W109` join-blowup warning; a
//!    closure whose chain *and* cycle-back edges are all generalization
//!    identities reaches fixpoint at level 1, so `^N` with `N >= 2` is a
//!    provably dead tail (`W110`).
//!
//! **On demand** ([`analyze_bounds`], against a [`CardEnv`]): per-slot
//! candidate bounds and per-edge fan-out bounds (`Single` cardinality → 1,
//! generalization identity → 1, `Many` → link count or ∞) are propagated
//! through each context's join chain: any contiguous slot range gets a
//! worst-case row bound (minimum over anchor choices of the directed fan
//! product). Rule extents are bounded by the sum over retention spans —
//! null-flow: a span that a WHERE comparison reads outside of sees Null
//! there and contributes **zero** (the quantitative side of `W104`) — and
//! derived-subdatabase bounds flow topologically into downstream rules.
//! A `^*`/`^N` context's family reach is bounded by the seed class's
//! extent.
//!
//! Soundness is machine-checked: `tests/absint.rs` asserts observed
//! runtime cardinalities never exceed the static bounds across all builtin
//! schemas and populations, and pins the bound tables of the builtin
//! corpus.

use crate::analyze::{Analyzer, Context, Edge, OccInfo, Shape};
use crate::program::Program;
use dood_core::diag::{Diagnostic, Span};
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::{AssocId, ClassId};
use dood_core::schema::{Cardinality, Schema};
use dood_core::value::{DType, Value};
use dood_oql::ast::{AggFunc, CmpOp, CmpRhs, PatOp, Pred, WhereCond};
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
/// the analyzer's abstract-interpretation diagnostics.
pub struct Analysis {
    /// Bounds per rule (declaration order) then query (declaration order).
    pub rules: Vec<RuleBounds>,
    /// E017/E018/W108/W109/W110 diagnostics from the schema alone (the
    /// same whatever the [`CardEnv`]), unsorted.
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
// Numeric bounds, on demand
// ====================================================================

/// Bound every rule and query of a program against `env`: run the
/// analyzer, then, over the contexts it resolved and in its walk order
/// (topological for rules, so source bounds exist before their readers),
/// slot candidates, edge fans, rows, derived-subdatabase extents and
/// closure reach/depth. The program's own `extern` directives are honored
/// in addition to `external`. The diagnostics are the analyzer's
/// schema-only abstract-interpretation codes, whatever `env`.
pub fn analyze_bounds(
    program: &Program,
    schema: &Schema,
    external: &FxHashSet<String>,
    env: &CardEnv,
) -> Analysis {
    let a = Analyzer::run(program, schema, external);
    let mut subdb_hi: FxHashMap<String, f64> = FxHashMap::default();
    let mut rules = Vec::with_capacity(program.rules.len());
    let mut queries = Vec::with_capacity(program.queries.len());
    for ctx in &a.contexts {
        let b = a.bounds(ctx, env, &subdb_hi);
        match ctx.target {
            Some(t) => {
                *subdb_hi.entry(t.to_string()).or_insert(0.0) += b.rows_hi;
                rules.push((ctx.index, b));
            }
            None => queries.push(b),
        }
    }
    rules.sort_by_key(|(i, _)| *i);
    let rules = rules.into_iter().map(|(_, b)| b).chain(queries).collect();
    Analysis { rules, diags: a.absint, subdb_hi }
}

/// The retention spans of a context that can contribute rows: the whole
/// chain and each `{...}` group, less every span a WHERE comparison reads
/// outside of — it sees Null there and drops each retained pattern
/// (null-flow).
fn kept_spans<'c>(ctx: &'c Context<'_>) -> impl Iterator<Item = (usize, usize)> + 'c {
    let n = ctx.occs.len();
    let groups = ctx.sh.groups.iter().map(|&(lo, hi)| (lo, hi + 1));
    std::iter::once((0, n)).chain(groups.filter(move |&s| s != (0, n))).filter(|&(lo, hi)| {
        !ctx.occs.iter().enumerate().any(|(i, o)| o.in_where && (i < lo || i >= hi))
    })
}

impl Analyzer<'_> {
    /// One context's numeric bounds, given the extents of the derived
    /// subdatabases bounded so far.
    fn bounds(
        &self,
        ctx: &Context<'_>,
        env: &CardEnv,
        subdb_hi: &FxHashMap<String, f64>,
    ) -> RuleBounds {
        let occs = &ctx.occs;
        let source_hi = |sd: &str| subdb_hi.get(sd).copied().unwrap_or(f64::INFINITY);
        let slot_hi: Vec<f64> = occs
            .iter()
            .map(|o| match o.subdb {
                _ if o.unsat => 0.0,
                Some(sd) if self.external.contains(sd) => f64::INFINITY,
                Some(sd) => source_hi(sd),
                None => env.extent_hi(o.base),
            })
            .collect();
        let (fan_fwd, fan_rev): (Vec<f64>, Vec<f64>) = (0..occs.len().saturating_sub(1))
            .map(|i| {
                let (a, b) = (&occs[i], &occs[i + 1]);
                if ctx.sh.ops[i] == PatOp::NonAssoc {
                    // `!` keeps unlinked pairs: per row, up to the whole
                    // opposite candidate set. (W106 owns the lint.)
                    (slot_hi[i + 1], slot_hi[i])
                } else if let Some(sd) = a.subdb.filter(|_| a.subdb == b.subdb) {
                    // Two slots of one derived subdatabase: adjacency
                    // through its patterns, bounded by their count.
                    (source_hi(sd), source_hi(sd))
                } else {
                    self.fans(a.edge, env)
                }
            })
            .unzip();
        let mut rows_hi = kept_spans(ctx)
            .filter(|&(lo, hi)| lo < hi)
            .map(|(lo, hi)| range_hi_of(&slot_hi, &fan_fwd, &fan_rev, lo, hi))
            .sum::<f64>();
        if ctx.where_unsat {
            rows_hi = 0.0;
        }
        let closure = ctx.closure.map(|levels| {
            // Chain counts are not usefully boundable for closures, but
            // emptiness still propagates: an empty chain slot (or an
            // unsatisfiable WHERE) kills every chain at every level.
            let chain_empty = slot_hi.contains(&0.0) || ctx.where_unsat;
            rows_hi = if chain_empty { 0.0 } else { f64::INFINITY };
            ClosureBounds {
                reach_hi: env.extent_hi(occs.first().and_then(|o| o.base)),
                depth_hi: if ctx.identity_closure {
                    1.0
                } else {
                    levels.map_or(f64::INFINITY, |l| l as f64)
                },
                levels,
            }
        });
        RuleBounds {
            owner: ctx.owner.to_string(),
            slot_names: occs.iter().map(|o| o.name.to_string()).collect(),
            slot_hi,
            fan_fwd,
            fan_rev,
            rows_hi,
            closure,
            empty: rows_hi == 0.0,
            is_query: ctx.target.is_none(),
        }
    }

    /// Fan-out bounds of a resolved edge, traversing left→right and
    /// right→left.
    fn fans(&self, edge: Edge, env: &CardEnv) -> (f64, f64) {
        let Edge::Assoc { assoc, forward } = edge else {
            return if edge == Edge::Identity { (1.0, 1.0) } else { (f64::INFINITY, f64::INFINITY) };
        };
        let def = self.schema.assoc(assoc);
        // A direct generalization link is identity-valued: the subclass
        // object *is* the superclass object, so the fan is 1 both ways
        // regardless of declared cardinality.
        if def.is_generalization() {
            return (1.0, 1.0);
        }
        let links = env.links_hi(assoc);
        // `forward` = this edge's left→right traversal follows the
        // association's own from→to orientation; `Single` bounds exactly
        // that direction. Generalization climbing on either side is
        // identity-valued (fan × 1).
        let narrow = if def.cardinality == Cardinality::Single { 1.0 } else { links };
        if forward {
            (narrow, links)
        } else {
            (links, narrow)
        }
    }
}

// ====================================================================
// Diagnostics in the analyzer's walk
// ====================================================================

impl Analyzer<'_> {
    /// An attribute's declared type on an occurrence, respecting the
    /// attribute filter a deriving rule's THEN clause imposed.
    fn dtype_on(&self, occ: &OccInfo<'_>, attr: &str) -> Option<DType> {
        if occ.filter.is_some_and(|f| !f.iter().any(|a| a == attr)) {
            return None;
        }
        let base = occ.base?;
        self.schema.resolve_attr(base, attr).ok().and_then(|ra| self.schema.attr_dtype(ra.attr))
    }

    /// Abstract an occurrence's `[...]` condition into per-attribute
    /// intervals; E017 when no value satisfies it.
    pub(crate) fn interpret_condition(&mut self, occ: &mut OccInfo<'_>, owner: &str) {
        let Some(p) = occ.pred else { return };
        let abs = abstract_pred(p, &|attr| self.dtype_on(occ, attr));
        if abs.sat {
            occ.env = abs.hull;
            return;
        }
        occ.unsat = true;
        let msg = format!(
            "condition on `{}` is statically unsatisfiable: no value of the constrained \
             attributes can satisfy it",
            occ.name
        );
        self.finding(Diagnostic::error("E017", msg), occ.span, owner);
    }

    /// Narrow through one WHERE condition, reporting E017 (contradiction)
    /// and W108 (subsumption). `operand` is a comparison's resolved left
    /// occurrence and its attribute's type. Returns whether the condition
    /// is unsatisfiable — it then empties the whole context (`apply_where`
    /// drops even retained patterns).
    pub(crate) fn interpret_where(
        &mut self,
        cond: &WhereCond,
        operand: Option<(&mut OccInfo<'_>, DType)>,
        span: Span,
        owner: &str,
    ) -> bool {
        match cond {
            WhereCond::Cmp { left: (cref, attr), op, right: CmpRhs::Lit(lit) } => {
                // Unresolvable: the base passes report it.
                let Some((occ, dt)) = operand else { return false };
                let iv = Ival::from_cmp(*op, &lit.to_value(), Some(dt));
                if iv.is_empty() {
                    occ.unsat = true;
                    let msg = format!(
                        "WHERE condition on `{cref}.{attr}` is statically unsatisfiable on \
                         its own"
                    );
                    self.finding(Diagnostic::error("E017", msg), span, owner);
                    return true;
                }
                let cur = occ.env.entry(attr.clone()).or_insert_with(|| Ival::top(Some(dt)));
                let subsumed = iv.subsumes(cur) && cur.constrained();
                *cur = cur.intersect(&iv);
                let contradiction = cur.is_empty();
                if subsumed {
                    let msg = format!(
                        "WHERE condition on `{cref}.{attr}` is subsumed by the constraints \
                         already established on that attribute: it can never drop a pattern"
                    );
                    let d = Diagnostic::warning("W108", msg)
                        .with_note("remove it, or tighten the earlier condition");
                    self.finding(d, span, owner);
                }
                if contradiction {
                    occ.unsat = true;
                    let msg = format!(
                        "WHERE condition on `{cref}.{attr}` contradicts the constraints \
                         already established for `{}`",
                        occ.name
                    );
                    self.finding(Diagnostic::error("E017", msg), span, owner);
                }
                contradiction
            }
            WhereCond::Cmp { .. } => false, // attr-vs-attr: no static verdict
            WhereCond::Agg { func: AggFunc::Count, op, value, .. } => {
                // A COUNT is a non-negative integer: a threshold excluding
                // all of [0, ∞) is impossible; one admitting all of it is
                // vacuous.
                let iv = Ival::from_cmp(*op, &value.to_value(), Some(DType::Int));
                let nonneg = Ival::from_cmp(CmpOp::Ge, &Value::Int(0), Some(DType::Int));
                if iv.intersect(&nonneg).is_empty() {
                    let msg = "WHERE count(...) threshold is statically unsatisfiable: a \
                               count is never negative";
                    self.finding(Diagnostic::error("E017", msg), span, owner);
                    return true;
                }
                if iv.subsumes(&nonneg) {
                    let msg = "WHERE count(...) threshold is vacuous: every count satisfies it";
                    let d = Diagnostic::warning("W108", msg)
                        .with_note("every group passes this threshold");
                    self.finding(d, span, owner);
                }
                false
            }
            WhereCond::Agg { .. } => false, // sum/avg/min/max: no static bounds
        }
    }

    /// W109: a non-closure chain of three or more slots, none of them
    /// conditioned or read from a subdatabase, that crosses at least
    /// [`W109_WIDE_EDGES`] wide (Many-cardinality association) edges.
    pub(crate) fn lint_join_blowup(&mut self, sh: &Shape<'_>, occs: &[OccInfo<'_>], owner: &str) {
        let constrained = occs.iter().any(|o| o.pred.is_some() || o.subdb.is_some());
        if constrained || occs.len() < 3 {
            return;
        }
        let wide = |i: usize| match occs[i].edge {
            Edge::Assoc { assoc, .. } if sh.ops[i] == PatOp::Assoc => {
                let def = self.schema.assoc(assoc);
                !def.is_generalization() && def.cardinality != Cardinality::Single
            }
            _ => false,
        };
        let wide_edges = (0..sh.ops.len()).filter(|&i| wide(i)).count();
        if wide_edges < W109_WIDE_EDGES {
            return;
        }
        let msg = format!(
            "join blowup: the chain crosses {wide_edges} wide (Many-cardinality) association \
             edges with no narrowing condition on any slot; the worst-case extent grows \
             multiplicatively"
        );
        let d = Diagnostic::warning("W109", msg)
            .with_note("add a `[...]` condition or read from a restricted subdatabase");
        self.finding(d, occs[0].span, owner);
    }

    /// Whether every chain edge and the cycle-back edge `back` of a
    /// closure is a generalization identity — the fixpoint then reaches
    /// every member at level 1, and W110 flags a `^N` bound with `N >= 2`
    /// as a provably dead tail.
    pub(crate) fn identity_closure(
        &mut self,
        occs: &[OccInfo<'_>],
        back: Edge,
        levels: Option<u32>,
        owner: &str,
    ) -> bool {
        let identity = |e: Edge| match e {
            Edge::Identity => true,
            Edge::Assoc { assoc, .. } => self.schema.assoc(assoc).is_generalization(),
            Edge::Open => false,
        };
        let chain = &occs[..occs.len() - 1];
        if !(chain.iter().all(|o| identity(o.edge)) && identity(back)) {
            return false;
        }
        if let Some(l) = levels.filter(|&l| l >= 2) {
            let msg = format!(
                "closure bound `^{l}` provably exceeds the schema reach: every chain and cycle \
                 edge is a generalization identity, so the fixpoint terminates at level 1 and \
                 levels 2..{l} are dead"
            );
            let d = Diagnostic::warning("W110", msg)
                .with_note("`^1` (or no bound at all) derives the same result");
            self.finding(d, occs[0].span, owner);
        }
        true
    }

    /// Whether a rule's context is provably empty on every database — what
    /// `rows_hi == 0` is under [`CardEnv::unknown`], where every bound is
    /// 0 or ∞: an unsatisfiable WHERE, or in every kept span an empty slot
    /// or an empty source linking two of its own slots (a zero fan).
    /// Closures ignore spans and fans: any empty slot empties every level.
    pub(crate) fn provably_empty(&self, ctx: &Context<'_>) -> bool {
        let empty_source = |sd: &str| self.subdbs.get(sd).is_some_and(|i| i.empty == Some(true));
        let slot_empty = |o: &OccInfo<'_>| {
            o.unsat || o.subdb.is_some_and(|sd| !self.external.contains(sd) && empty_source(sd))
        };
        if ctx.where_unsat {
            return true;
        }
        if ctx.closure.is_some() {
            return ctx.occs.iter().any(slot_empty);
        }
        let zero_fan = |i: usize| {
            let (a, b) = (&ctx.occs[i], &ctx.occs[i + 1]);
            ctx.sh.ops[i] == PatOp::Assoc && a.subdb == b.subdb && a.subdb.is_some_and(empty_source)
        };
        kept_spans(ctx).all(|(lo, hi)| {
            lo == hi || ctx.occs[lo..hi].iter().any(slot_empty) || (lo..hi - 1).any(zero_fan)
        })
    }
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
