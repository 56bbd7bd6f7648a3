//! Semi-naive incremental forward maintenance (DESIGN.md §9).
//!
//! The paper's forward chaining "runs the relevant deductive rules to
//! maintain the consistency between the derived subdatabase and the
//! original database" but does not prescribe *how*. This module implements
//! event-log-driven delta maintenance: given the set of *dirty* objects
//! touched by an update batch (closed over perspective/identity links),
//! every cached context pattern either
//!
//! 1. contains no dirty object — it cannot have changed and is kept; or
//! 2. contains a dirty object — it is found through the cache's posting
//!    list and dropped, and every pattern with at least one delta-bound
//!    slot is re-derived by the semi-naive restricted join
//!    [`Evaluator::eval_delta`]. A row dropped and re-derived identically
//!    is no edit.
//!
//! The context edits then run through the WHERE clause one condition at a
//! time, each turning the edits of its input into the edits of its output:
//! a comparison has per-pattern verdicts; an aggregate keeps, per group,
//! the multiplicities of its distinct targets and a cached verdict,
//! re-evaluates exactly the groups an edit touches, and emits the member
//! rows of a group whose verdict flipped. Deletion is handled by
//! *derivation counts*: the target is the projection of the post-WHERE
//! context, so each target pattern carries the number of context patterns
//! deriving it; a target pattern dies exactly when its count reaches zero.
//! A step costs O(dirty-touched patterns) whatever the size of the context.
//!
//! Cyclic (closure) contexts carry the fixpoint's successor-relation
//! provenance ([`Evaluator::eval_closure_state`]) in the cache: a delta
//! recomputes the successor lists of the affected slot-0 nodes only, extends
//! the frontier from newly reachable nodes, prunes unsupported ones, and
//! re-runs the chain DFS for exactly the roots whose chains can have changed
//! ([`MaintainPlan::Closure`]); the chain edits take the same WHERE and
//! target stages.

use crate::ast::Rule;
use crate::derive::{project, target_layout};
use crate::error::RuleError;
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::Oid;
use dood_core::obs;
use dood_core::subdb::{is_part, ExtPattern, HeadRange, Row, RowRun, Subdatabase, SubdbRegistry};
use dood_oql::ast::WhereCond;
use dood_oql::eval::Evaluator;
use dood_oql::plan::CompiledContext;
use dood_oql::resolve::{resolve_context, REdgeKind, ResolvedContext};
use dood_oql::wherec::{apply_cond, AggCond, Applied, CmpCond};
use dood_store::Database;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How a rule can be maintained under updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintainPlan {
    /// Acyclic context: dirty-bound patterns are re-derived, the WHERE
    /// conditions turn context edits into post-WHERE edits, and the target
    /// follows by derivation counts.
    Delta,
    /// Cyclic (closure) context: the cached successor-relation provenance
    /// is patched around the dirty objects and only the chains of affected
    /// roots are re-derived (DESIGN.md §11); WHERE and target as `Delta`.
    Closure,
}

/// Classify a rule for incremental maintenance. A family target needs no
/// plan of its own: over an acyclic context its slots are fixed like any
/// other target's ([`crate::derive::target_layout`]).
pub fn plan_for(rule: &Rule) -> MaintainPlan {
    if rule.context.closure.is_some() {
        MaintainPlan::Closure
    } else {
        MaintainPlan::Delta
    }
}

/// Expand an update batch's touched objects over the identity links: a
/// pattern slot may hold a different perspective of the touched object.
/// Deleted oids are *kept* — they invalidate cached patterns referencing
/// them — but can never re-bind a slot ([`Evaluator::eval_delta`] drops
/// non-live oids).
pub fn dirty_closure(db: &Database, touched: impl IntoIterator<Item = Oid>) -> BTreeSet<Oid> {
    // Deleted objects have no closure but stay dirty (they seed the set).
    db.perspective_closure_set(touched)
}

/// Split a WHERE clause at the first aggregate condition. The comparisons
/// before it see the whole context and share one cached output set; from
/// the first aggregate on, every condition keeps its own verdict state.
/// Conditions apply in written order — an aggregate groups over the
/// currently-filtered set — so the split preserves the original order.
fn split_where(conds: &[WhereCond]) -> (&[WhereCond], &[WhereCond]) {
    let cut = conds
        .iter()
        .position(|w| matches!(w, WhereCond::Agg { .. }))
        .unwrap_or(conds.len());
    conds.split_at(cut)
}

/// The cached fixpoint provenance of a closure rule: the successor
/// relation the chains are a function of, plus the support structure that
/// localizes deletion. `succ` holds every node the fixpoint expanded;
/// `pred` is its exact inverse; a node is *supported* while some successor
/// list still reaches it or it seeds chains itself (root). Chain-length
/// counts make the result width an O(1) question on every delta.
#[derive(Debug, Clone)]
struct ClosureCache {
    succ: FxHashMap<Oid, Vec<Oid>>,
    pred: FxHashMap<Oid, Vec<Oid>>,
    /// Sorted slot-0 candidates as of `at_seq`.
    roots: Vec<Oid>,
    /// The cached result's intension width (longest chain).
    width: usize,
    /// Chains per length; the max live key is the width.
    len_counts: FxHashMap<usize, u32>,
}

impl ClosureCache {
    fn new(state: dood_oql::eval::ClosureState, sd: &Subdatabase) -> Self {
        let mut pred: FxHashMap<Oid, Vec<Oid>> = FxHashMap::default();
        for (&n, list) in &state.succ {
            for &s in list {
                pred.entry(s).or_default().push(n);
            }
        }
        for v in pred.values_mut() {
            v.sort_unstable();
        }
        let mut roots = state.roots;
        roots.sort_unstable();
        let mut len_counts: FxHashMap<usize, u32> = FxHashMap::default();
        for p in sd.patterns() {
            *len_counts.entry(p.arity()).or_insert(0) += 1;
        }
        ClosureCache { succ: state.succ, pred, roots, width: state.width, len_counts }
    }

    fn is_root(&self, o: Oid) -> bool {
        self.roots.binary_search(&o).is_ok()
    }

    /// Supported = still derivable: some predecessor's list reaches it, or
    /// it is a root.
    fn supported(&self, o: Oid) -> bool {
        self.pred.get(&o).is_some_and(|v| !v.is_empty()) || self.is_root(o)
    }

    fn pred_insert(&mut self, node: Oid, from: Oid) {
        let v = self.pred.entry(node).or_default();
        if let Err(i) = v.binary_search(&from) {
            v.insert(i, from);
        }
    }

    /// Remove one support edge; returns whether `node` just lost its last
    /// predecessor (a GC candidate unless it is a root).
    fn pred_remove(&mut self, node: Oid, from: Oid) -> bool {
        if let Some(v) = self.pred.get_mut(&node) {
            if let Ok(i) = v.binary_search(&from) {
                v.remove(i);
                return v.is_empty();
            }
        }
        false
    }

    /// Install a recomputed successor list: diff against the cached one,
    /// patching `pred` edge by edge. Nodes that just became reachable go to
    /// `frontier`, nodes that may have lost their last support to
    /// `drained`, and `seeds` records every node whose list changed (the
    /// reverse-reachability seeds for the chain re-derivation).
    fn apply_list(
        &mut self,
        node: Oid,
        new: Vec<Oid>,
        seeds: &mut Vec<Oid>,
        frontier: &mut Vec<Oid>,
        drained: &mut Vec<Oid>,
    ) {
        let (old, known) = match self.succ.get(&node) {
            Some(v) => (v.clone(), true),
            None => (Vec::new(), false),
        };
        if known && old == new {
            return;
        }
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            match (old.get(i), new.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                    if self.pred_remove(a, node) {
                        drained.push(a);
                    }
                    i += 1;
                }
                (_, Some(&b)) => {
                    self.pred_insert(b, node);
                    if !self.succ.contains_key(&b) {
                        frontier.push(b);
                    }
                    j += 1;
                }
                _ => unreachable!("loop condition"),
            }
        }
        self.succ.insert(node, new);
        seeds.push(node);
    }
}

/// End of a posting chain.
const NIL: u32 = u32::MAX;

/// The cache-owned posting list of a cached context: oid → the rows binding
/// it, so a delta step finds the dirty-bound rows, a partial row's covers
/// and parts, and a flipped group's members without scanning the context.
/// Flat: the rows are copied into one vector, and each (row, slot) entry is
/// a node of its oid's doubly linked chain, threaded through two more
/// vectors — an edit allocates nothing.
#[derive(Debug, Clone)]
struct Posting {
    width: usize,
    /// The indexed rows, `width` components each; a freed row is all `None`.
    rows: Vec<Option<Oid>>,
    /// Freed rows, reused by the next insertion.
    free: Vec<u32>,
    /// Per entry (`row * width + slot`): the next and previous entry of the
    /// chain of the oid it binds.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Per oid: the first entry of its chain and the chain's length.
    chains: FxHashMap<Oid, (u32, u32)>,
}

impl Posting {
    fn build(ctx: &Subdatabase) -> Self {
        let width = ctx.intension.width();
        let entries = ctx.len() * width;
        let mut posting = Posting {
            width,
            rows: Vec::with_capacity(entries),
            free: Vec::new(),
            next: Vec::with_capacity(entries),
            prev: Vec::with_capacity(entries),
            chains: FxHashMap::default(),
        };
        for p in ctx.patterns() {
            posting.insert(p.components());
        }
        posting
    }

    fn row(&self, entry: u32) -> &[Option<Oid>] {
        let start = entry as usize / self.width * self.width;
        &self.rows[start..start + self.width]
    }

    /// Index a row; the caller keeps rows distinct.
    fn insert(&mut self, p: &[Option<Oid>]) {
        debug_assert_eq!(p.len(), self.width);
        let start = match self.free.pop() {
            Some(row) => row as usize * self.width,
            None => {
                let start = self.rows.len();
                assert!(start + self.width < NIL as usize, "posting list limited to 2^32 entries");
                self.rows.resize(start + self.width, None);
                self.next.resize(start + self.width, NIL);
                self.prev.resize(start + self.width, NIL);
                start
            }
        };
        for (slot, &c) in p.iter().enumerate() {
            let entry = (start + slot) as u32;
            self.rows[start + slot] = c;
            let Some(oid) = c else { continue };
            let chain = self.chains.entry(oid).or_insert((NIL, 0));
            self.next[entry as usize] = chain.0;
            self.prev[entry as usize] = NIL;
            if chain.0 != NIL {
                self.prev[chain.0 as usize] = entry;
            }
            *chain = (entry, chain.1 + 1);
        }
    }

    /// The first entry of the shortest chain among `comps`' bound
    /// components: every row binding all of them is on it. `None` if one of
    /// them is bound by no row (or `comps` binds nothing).
    fn shortest_chain(&self, comps: &[Option<Oid>]) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None;
        for oid in comps.iter().flatten() {
            let &(first, len) = self.chains.get(oid)?;
            if best.is_none_or(|(_, l)| len < l) {
                best = Some((first, len));
            }
        }
        best.map(|(first, _)| first)
    }

    /// The rows on the chain starting at `entry`, once per entry.
    fn chain(&self, mut entry: u32) -> impl Iterator<Item = &[Option<Oid>]> + '_ {
        std::iter::from_fn(move || {
            (entry != NIL).then(|| {
                let row = self.row(entry);
                entry = self.next[entry as usize];
                row
            })
        })
    }

    /// The rows binding `oid`, once per slot that binds it.
    fn rows_of(&self, oid: Oid) -> impl Iterator<Item = &[Option<Oid>]> + '_ {
        self.chain(self.chains.get(&oid).map_or(NIL, |c| c.0))
    }

    /// How many rows [`Posting::rows_of`] yields for `oid`.
    fn chain_len(&self, oid: Oid) -> usize {
        self.chains.get(&oid).map_or(0, |c| c.1 as usize)
    }

    /// Un-index a row; whether it was indexed.
    fn remove(&mut self, p: &[Option<Oid>]) -> bool {
        let Some(mut entry) = self.shortest_chain(p) else { return false };
        while entry != NIL && self.row(entry) != p {
            entry = self.next[entry as usize];
        }
        if entry == NIL {
            return false;
        }
        let start = entry as usize / self.width * self.width;
        for e in start..start + self.width {
            let Some(oid) = self.rows[e].take() else { continue };
            let (next, prev) = (self.next[e], self.prev[e]);
            if next != NIL {
                self.prev[next as usize] = prev;
            }
            if prev != NIL {
                self.next[prev as usize] = next;
            }
            let chain = self.chains.get_mut(&oid).expect("a bound entry is on its oid's chain");
            if prev == NIL {
                chain.0 = next;
            }
            chain.1 -= 1;
            if chain.1 == 0 {
                self.chains.remove(&oid);
            }
        }
        self.free.push((start / self.width) as u32);
        true
    }

    /// Whether an indexed row strictly covers the partial row `r`. A cover
    /// binds every component `r` binds, so it is on each of their chains.
    fn covers(&self, r: &[Option<Oid>]) -> bool {
        self.shortest_chain(r).is_some_and(|e| self.chain(e).any(|q| is_part(r, q)))
    }

    /// The indexed rows that are strict parts of `r`, sorted and distinct.
    /// A part binds a subset of `r`'s components, so it is on the chain of
    /// one of them; the chains are walked once to size the run and once to
    /// fill it.
    fn parts_of(&self, r: &[Option<Oid>]) -> RowRun {
        let parts = || r.iter().flatten().flat_map(|&o| self.rows_of(o)).filter(|q| is_part(q, r));
        let mut run = RowRun::with_capacity(self.width, parts().count());
        for q in parts() {
            run.push(q);
        }
        run.sort();
        run
    }
}

/// One group of an aggregate condition's input: how many rows are in it,
/// its distinct targets (ascending) with the number of rows contributing
/// each, and the verdict as of the cache's `at_seq`.
#[derive(Debug, Clone, Default)]
struct Group {
    rows: u32,
    targets: Vec<(Oid, u32)>,
    verdict: bool,
}

impl Group {
    fn add(&mut self, target: Option<Oid>) {
        self.rows += 1;
        if let Some(t) = target {
            match self.targets.binary_search_by_key(&t, |e| e.0) {
                Ok(i) => self.targets[i].1 += 1,
                Err(i) => self.targets.insert(i, (t, 1)),
            }
        }
    }

    fn del(&mut self, target: Option<Oid>) {
        self.rows -= 1;
        if let Some(i) = target.and_then(|t| self.targets.binary_search_by_key(&t, |e| e.0).ok()) {
            self.targets[i].1 -= 1;
            if self.targets[i].1 == 0 {
                self.targets.remove(i);
            }
        }
    }
}

/// The verdict state of one WHERE condition from the first aggregate on.
/// A stage's input is the previous stage's output (the prefix output for
/// the first); [`Stage::step`] turns exact edits of the one into exact
/// edits of the other.
#[derive(Debug, Clone)]
enum Stage {
    /// A comparison after an aggregate: the input rows it rejects.
    Cmp { cond: CmpCond, rejected: FxHashSet<ExtPattern> },
    /// An aggregate and its groups.
    Agg { cond: AggCond, groups: Groups },
}

/// The groups of an aggregate stage. Seeding records only which groups
/// passed; the cache's first delta step builds the groups from the stage's
/// input as of `at_seq` and takes their verdicts from that list.
#[derive(Debug, Clone)]
enum Groups {
    /// The passing groups, ascending.
    Seeded(Vec<Oid>),
    Built(FxHashMap<Oid, Group>),
}

impl Stage {
    /// Whether `r`, a row of this stage's input, is in its output.
    fn admits(&self, r: Row<'_>) -> bool {
        match self {
            Stage::Cmp { rejected, .. } => !rejected.contains(r.components()),
            Stage::Agg { cond, groups } => cond.group_of(r).is_some_and(|g| match groups {
                Groups::Seeded(passing) => passing.binary_search(&g).is_ok(),
                Groups::Built(groups) => groups.get(&g).is_some_and(|g| g.verdict),
            }),
        }
    }

    /// Fold the input edits `rem`/`add` — sorted runs, rewritten in place
    /// into the output edits. `members(cond, g, emit)` emits the rows of
    /// group `g` in the stage's *new* input; it is asked only for groups
    /// whose verdict flipped.
    fn step(
        &mut self,
        rem: &mut RowRun,
        add: &mut RowRun,
        db: &Database,
        stats: &mut StepStats,
        members: impl Fn(&AggCond, Oid, &mut dyn FnMut(&[Option<Oid>])),
    ) {
        let (cond, groups) = match self {
            Stage::Cmp { cond, rejected } => {
                rem.retain(|p| !rejected.remove(p.components()));
                add.retain(|p| {
                    let ok = cond.passes(p, db);
                    if !ok {
                        rejected.insert(p.to_pattern());
                    }
                    ok
                });
                return;
            }
            Stage::Agg { cond, groups: Groups::Built(groups) } => (&*cond, groups),
            Stage::Agg { .. } => unreachable!("groups are built before the first step"),
        };
        // Every group of a removed or added row is re-evaluated — rows whose
        // attributes may have changed arrive as both — so a verdict that
        // flips on an attribute alone is caught.
        let mut touched: Vec<Oid> = Vec::with_capacity(rem.len() + add.len());
        rem.retain(|p| {
            let Some(g) = cond.group_of(p) else { return false };
            let group = groups.get_mut(&g).expect("an input row is counted in its group");
            group.del(cond.target_of(p));
            touched.push(g);
            // Verdicts still are the old ones: the row was in the output
            // iff its group passed.
            group.verdict
        });
        add.retain(|p| {
            let Some(g) = cond.group_of(p) else { return false };
            groups.entry(g).or_default().add(cond.target_of(p));
            touched.push(g);
            true
        });
        touched.sort_unstable();
        touched.dedup();
        stats.groups_touched += touched.len();
        let (mut lit, mut doused): (Vec<Oid>, Vec<Oid>) = (Vec::new(), Vec::new());
        for g in touched {
            let group = groups.get_mut(&g).expect("touched groups exist");
            let verdict = group.rows > 0 && cond.passes(group.targets.iter().map(|&(t, _)| t), db);
            match (group.verdict, verdict) {
                (false, true) => lit.push(g),
                (true, false) => doused.push(g),
                _ => {}
            }
            group.verdict = verdict;
            if group.rows == 0 {
                groups.remove(&g);
            }
        }
        // The members of a doused group that were in the old input too
        // leave the output: the ones removed from the input are in `rem`
        // already, and the ones that only now joined it — rows of `add` —
        // never were in it.
        for &g in &doused {
            members(cond, g, &mut |p| {
                if !add.contains(p) {
                    rem.push(p);
                }
            });
        }
        // A group that stays as it was passes its own added rows through or
        // holds them back; a flipped group moves with all its members.
        let flipped = |g: &Oid| lit.binary_search(g).is_ok() || doused.binary_search(g).is_ok();
        add.retain(|p| {
            let g = cond.group_of(p).expect("ungrouped rows were dropped above");
            !flipped(&g) && groups.get(&g).is_some_and(|g| g.verdict)
        });
        for &g in &lit {
            members(cond, g, &mut |p| add.push(p));
        }
        rem.sort();
        add.sort();
    }
}

/// The WHERE clause and THEN projection of a rule over its cached context:
/// verdict state per condition, and the derivation counts the target is
/// maintained by.
#[derive(Debug, Clone)]
struct Filter {
    /// The comparisons before the first aggregate.
    prefix: Vec<CmpCond>,
    /// The context after the prefix; `None` without one (the context
    /// itself serves). Per-pattern verdicts here are stable for clean
    /// patterns.
    post: Option<Subdatabase>,
    /// The conditions from the first aggregate on.
    stages: Vec<Stage>,
    /// Whether any condition reads attribute values, so that a row whose
    /// objects were touched must be re-checked even if it was re-derived
    /// identically.
    reads_attrs: bool,
    /// The context slots the THEN clause projects onto (`None`: Null).
    slots: Vec<Option<usize>>,
    /// Derivation counts: target projection → number of post-WHERE context
    /// patterns deriving it. Ordered, so the keys of one head are a range.
    counts: BTreeMap<ExtPattern, u32>,
}

impl Filter {
    /// Apply the rule's WHERE clause and THEN projection to a freshly
    /// evaluated context. Returns the filter state, the number of context
    /// rows left after the whole WHERE clause, and the target: the maximal
    /// keys of the derivation counts, each context row projected once.
    fn derive(
        rule: &Rule,
        ctx: &Subdatabase,
        db: &Database,
    ) -> Result<(Filter, usize, Subdatabase), RuleError> {
        let (pre_conds, suf_conds) = split_where(&rule.where_);
        let mut prefix = Vec::with_capacity(pre_conds.len());
        let mut post = None;
        if !pre_conds.is_empty() {
            let mut sd = ctx.clone();
            for cond in pre_conds {
                match apply_cond(&mut sd, cond, db).map_err(RuleError::Query)? {
                    Applied::Cmp(cmp) => prefix.push(cmp),
                    Applied::Agg(..) => unreachable!("the prefix ends before the first aggregate"),
                }
            }
            post = Some(sd);
        }
        let mut stages = Vec::with_capacity(suf_conds.len());
        let mut full = None;
        if !suf_conds.is_empty() {
            let mut sd = post.as_ref().unwrap_or(ctx).clone();
            for cond in suf_conds {
                let input = matches!(cond, WhereCond::Cmp { .. }).then(|| sd.clone());
                stages.push(match apply_cond(&mut sd, cond, db).map_err(RuleError::Query)? {
                    Applied::Agg(cond, passing) => {
                        Stage::Agg { cond, groups: Groups::Seeded(passing) }
                    }
                    Applied::Cmp(cond) => {
                        let input = input.expect("cloned for a comparison");
                        let rejected = input
                            .patterns()
                            .filter(|p| !sd.contains(p))
                            .map(Row::to_pattern)
                            .collect();
                        Stage::Cmp { cond, rejected }
                    }
                });
            }
            full = Some(sd);
        }
        let reads_attrs = !prefix.is_empty()
            || stages.iter().any(|s| match s {
                Stage::Cmp { .. } => true,
                Stage::Agg { cond, .. } => cond.reads_attrs(),
            });
        let full = full.as_ref().or(post.as_ref()).unwrap_or(ctx);
        let layout = target_layout(rule, &ctx.intension, db)?;
        // Each row is projected into one reused key; a key is boxed only
        // when it is new, and the target's rows are copied from the keys,
        // which are sorted and distinct already.
        let mut counts: BTreeMap<ExtPattern, u32> = BTreeMap::new();
        let mut key: Vec<Option<Oid>> = Vec::with_capacity(layout.slots.len());
        for p in full.patterns() {
            key.clear();
            key.extend(project(p.components(), &layout.slots));
            if key.iter().all(Option::is_none) {
                continue;
            }
            match counts.get_mut(key.as_slice()) {
                Some(c) => *c += 1,
                None => {
                    counts.insert(ExtPattern::new(key.as_slice()), 1);
                }
            }
        }
        let mut target = Subdatabase::new(rule.target_subdb.clone(), layout.intension);
        let mut keys = counts.keys();
        target.set_sorted_rows(counts.len(), |row| {
            row.copy_from_slice(keys.next().expect("one key per row").components());
        });
        target.retain_maximal();
        let ctx_rows = full.len();
        let slots = layout.slots;
        Ok((Filter { prefix, post, stages, reads_attrs, slots, counts }, ctx_rows, target))
    }

    /// Whether the rule has no WHERE clause.
    fn is_empty(&self) -> bool {
        self.prefix.is_empty() && self.stages.is_empty()
    }

    /// Build the groups of every aggregate stage that still lacks them,
    /// from the stage inputs as cached — before a step's edits are folded
    /// in — with the verdicts recorded at seeding.
    fn build_groups(&mut self, ctx: &Subdatabase) {
        let base = self.post.as_ref().unwrap_or(ctx);
        for k in 0..self.stages.len() {
            let (done, rest) = self.stages.split_at_mut(k);
            let Stage::Agg { cond, groups } = &mut rest[0] else { continue };
            let Groups::Seeded(passing) = groups else { continue };
            let mut built: FxHashMap<Oid, Group> = FxHashMap::default();
            for r in base.patterns().filter(|r| done.iter().all(|s| s.admits(*r))) {
                if let Some(g) = cond.group_of(r) {
                    built.entry(g).or_default().add(cond.target_of(r));
                }
            }
            for g in passing {
                built.get_mut(g).expect("a passing group has rows").verdict = true;
            }
            *groups = Groups::Built(built);
        }
    }
}

/// The per-rule state carried between maintenance steps. The target it
/// maintains is the caller's: [`delta_apply`] patches it in place.
#[derive(Debug, Clone)]
pub struct RuleCache {
    /// The IF-context before any WHERE condition (post-subsumption).
    ctx_pre: Subdatabase,
    /// The context's posting list, built by the cache's first delta step
    /// and kept in step with `ctx_pre` from then on.
    posting: Option<Posting>,
    /// WHERE verdict state and derivation counts.
    filter: Filter,
    /// Event-log sequence number the cache reflects. A delta application
    /// is sound iff every event after `at_seq` is covered by the dirty set.
    pub at_seq: u64,
    /// The engine epoch ([`crate::RuleEngine`]) the cache last stepped at:
    /// a source whose content changed after it must reach the next step as
    /// dirty objects, or the cache re-seeds. Set by the engine.
    pub at_epoch: u64,
    /// The rule's resolved context, computed once at seeding. Resolution
    /// depends on the schema and the sources' *intensions* only — both
    /// fixed for the lifetime of a rule program — so delta steps reuse it.
    resolved: ResolvedContext,
    /// The compiled join pipeline (DESIGN.md §10), captured at seeding:
    /// delta steps skip predicate compilation and plan ordering and only
    /// re-anchor per restricted slot.
    plan: Arc<CompiledContext>,
    /// Fixpoint provenance for [`MaintainPlan::Closure`] rules.
    closure: Option<ClosureCache>,
}

impl RuleCache {
    /// The subdatabases the cached context reads: the memberships of its
    /// derived slots and the pairs of its derived edges.
    pub fn sources(&self) -> impl Iterator<Item = &str> {
        let r = &self.resolved;
        let slots = r.slots.iter().filter_map(|s| s.derived.as_ref().map(|(sd, _)| sd.as_str()));
        let edges = r.edges.iter().map(|e| &e.kind).chain(r.closure.as_ref().map(|(_, k)| k));
        slots.chain(edges.filter_map(|k| match k {
            REdgeKind::Derived { subdb, .. } => Some(subdb.as_str()),
            REdgeKind::Base(_) => None,
        }))
    }

    /// Build what only delta steps need, on the first of them: the posting
    /// list (an acyclic context finds its dirty-bound rows through it; a
    /// closure context needs it only to re-check rows and list group
    /// members, i.e. under a WHERE clause) and the aggregate groups.
    fn ensure_delta_state(&mut self) {
        if self.posting.is_none() && (self.closure.is_none() || !self.filter.is_empty()) {
            self.posting = Some(Posting::build(&self.ctx_pre));
        }
        self.filter.build_groups(&self.ctx_pre);
    }

    /// Edit the cached context, and its posting list with it.
    fn ctx_insert(&mut self, p: &[Option<Oid>]) {
        if let Some(posting) = self.posting.as_mut().filter(|_| !self.ctx_pre.contains(p)) {
            posting.insert(p);
        }
        self.ctx_pre.insert(p);
    }

    fn ctx_remove(&mut self, p: &[Option<Oid>]) {
        if self.ctx_pre.remove(p) {
            if let Some(posting) = &mut self.posting {
                posting.remove(p);
            }
        }
    }

    /// The cached context rows binding a dirty object, as a sorted run
    /// sized from the dirty objects' posting-chain lengths.
    fn dirty_bound(&self, dirty: &BTreeSet<Oid>) -> RowRun {
        let posting = self.posting.as_ref().expect("built by ensure_delta_state");
        let rows = dirty.iter().map(|&o| posting.chain_len(o)).sum();
        let mut run = RowRun::with_capacity(posting.width, rows);
        for &o in dirty {
            for row in posting.rows_of(o) {
                run.push(row);
            }
        }
        run.sort();
        run
    }

    /// Stages 3–4, shared by the flat and closure delta paths: run the
    /// exact context edits — `dropped` rows gone, `added` rows new, `kept`
    /// rows still there but binding a dirty object, each a sorted run —
    /// through the WHERE conditions, then maintain the target by
    /// derivation counts.
    fn refresh(
        &mut self,
        target: &mut Subdatabase,
        db: &Database,
        dropped: RowRun,
        added: RowRun,
        kept: RowRun,
        stats: &mut StepStats,
    ) -> DeltaOutcome {
        let RuleCache { ctx_pre, posting, filter, .. } = self;
        let Filter { prefix, post, stages, reads_attrs, slots, counts } = filter;
        // A kept row's attributes may have changed: it re-enters as a
        // removal plus an addition, so every verdict it takes part in is
        // re-evaluated. Without attribute-reading conditions it is no edit.
        let (mut rem, mut add) = (dropped, added);
        if *reads_attrs && !kept.is_empty() {
            rem.append(&kept);
            rem.sort();
            add.append(&kept);
            add.sort();
        }
        // 3. WHERE prefix: clean patterns keep their cached verdict (their
        //    attributes are untouched); only the added rows are checked.
        if let Some(post) = post {
            rem.retain(|p| post.remove(p));
            add.retain(|p| prefix.iter().all(|c| c.passes(p, db)));
            for p in add.iter() {
                post.insert(p);
            }
        }
        let base = post.as_ref().unwrap_or(ctx_pre);
        for k in 0..stages.len() {
            let (done, rest) = stages.split_at_mut(k);
            let in_input = |r: Row<'_>| done.iter().all(|s| s.admits(r));
            rest[0].step(&mut rem, &mut add, db, stats, |cond, g, emit| match cond.by_slot() {
                None => base.patterns().filter(|r| in_input(*r)).for_each(|r| emit(r.components())),
                Some(by) => {
                    let posting = posting.as_ref().expect("built by ensure_delta_state");
                    posting
                        .rows_of(g)
                        .filter(|row| row[by] == Some(g))
                        .filter(|r| (post.is_none() || base.contains(r)) && in_input(Row::new(r)))
                        .for_each(emit)
                }
            });
        }
        // 4. Target.
        count_target(slots, counts, target, &rem, &add)
    }
}

/// Derive a rule from scratch and build its maintenance cache; returns the
/// cache and the target it maintains. Span and metric output matches
/// [`crate::derive::apply_rule`] (one `rules.rule` span with
/// `ctx_rows`/`target_rows`).
pub fn seed_cache(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
) -> Result<(RuleCache, Subdatabase), RuleError> {
    let mut sp = obs::trace::span("rules.rule");
    sp.label(|| rule.name.clone());
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.rule.applications").inc();
    }
    let resolved =
        resolve_context(&rule.context, db.schema(), registry).map_err(RuleError::Query)?;
    let ev = Evaluator::new(&resolved, db, registry).map_err(RuleError::Query)?;
    let plan = ev.plan_handle();
    if let Some(a) = obs::account::active() {
        a.set_plan(plan.describe());
    }
    let (ctx_pre, closure) = if plan_for(rule) == MaintainPlan::Closure {
        // Closure rules evaluate through the compiled kernel so the cache
        // captures the fixpoint's successor-relation provenance.
        let (sd, state) = ev.eval_closure_state("if-context");
        let cc = ClosureCache::new(state, &sd);
        (sd, Some(cc))
    } else {
        (ev.eval("if-context"), None)
    };
    let (filter, ctx_rows, target) = Filter::derive(rule, &ctx_pre, db)?;
    sp.attr("ctx_rows", ctx_rows as i64);
    sp.attr("target_rows", target.len() as i64);
    let cache = RuleCache {
        ctx_pre,
        posting: None,
        filter,
        at_seq: db.seq(),
        at_epoch: 0,
        resolved,
        plan,
        closure,
    };
    Ok((cache, target))
}

/// The exact target-pattern edits one delta step made to the target it
/// patched, each a sorted run. Their components are the content delta fed
/// to downstream rules' dirty sets; a union of several rules (R4/R5)
/// replays them onto its registered union.
#[derive(Debug, Default)]
pub struct DeltaOutcome {
    /// Target patterns added by this step.
    pub inserted: RowRun,
    /// Target patterns removed by this step.
    pub removed: RowRun,
}

impl DeltaOutcome {
    /// Whether the target changed at all.
    pub fn changed(&self) -> bool {
        !self.inserted.is_empty() || !self.removed.is_empty()
    }
}

/// The work one delta step did, in rows and groups — reported on its
/// `rules.rule` span, and what the work-proportionality test bounds.
#[derive(Debug, Default)]
struct StepStats {
    /// Rows the restricted re-join (or the chain re-derivation) returned.
    delta_rows: usize,
    /// Cached context rows found bound to a dirty object (or headed by a
    /// root whose chains are re-derived).
    dropped: usize,
    /// Aggregate groups re-evaluated, over all conditions.
    groups_touched: usize,
}

/// Whether a pattern has any unbound slot. Only partial patterns can take
/// part in strict subsumption (`is_part_of` requires a strict pattern-type
/// subtype, so two fully-bound patterns relate only by equality).
fn is_partial(p: &[Option<Oid>]) -> bool {
    p.iter().any(Option::is_none)
}

/// Apply one delta step **in place**: refresh the cache (context, WHERE
/// verdicts, derivation counts) and `target` — the target as of
/// `cache.at_seq`, as seeded and stepped — given the perspective-closed
/// dirty set covering every event since `cache.at_seq`, and return the
/// exact target edits. On error `target` is as it was (the cache is not:
/// drop it and re-seed). The whole step is O(dirty-touched patterns), not
/// O(context): clean patterns are never scanned, copied, re-checked, or
/// re-counted. The caller must ensure that every change to the rule's
/// derived sources since `at_seq` is reflected in `dirty`.
pub fn delta_apply(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    target: &mut Subdatabase,
    dirty: &BTreeSet<Oid>,
) -> Result<DeltaOutcome, RuleError> {
    let plan = plan_for(rule);
    let mut sp = obs::trace::span("rules.rule");
    sp.label(|| rule.name.clone());
    sp.attr("delta", 1);
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.rule.delta_applications").inc();
    }
    cache.ensure_delta_state();
    let mut stats = StepStats::default();
    let out = if plan == MaintainPlan::Closure {
        delta_apply_closure(rule, db, registry, cache, target, dirty, &mut stats)?
    } else {
        delta_apply_flat(db, registry, cache, target, dirty, &mut stats)?
    };
    cache.at_seq = db.seq();
    sp.attr("delta_rows", stats.delta_rows as i64);
    sp.attr("dropped", stats.dropped as i64);
    sp.attr("groups_touched", stats.groups_touched as i64);
    sp.attr("ctx_rows", cache.filter.post.as_ref().unwrap_or(&cache.ctx_pre).len() as i64);
    sp.attr("target_rows", target.len() as i64);
    Ok(out)
}

/// The non-closure delta step: semi-naive restricted re-join around the
/// dirty patterns (stages 1–2), then the shared WHERE/target refresh.
fn delta_apply_flat(
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    target: &mut Subdatabase,
    dirty: &BTreeSet<Oid>,
    stats: &mut StepStats,
) -> Result<DeltaOutcome, RuleError> {
    // 1. The cached rows binding a dirty object, off the posting list.
    let bound = cache.dirty_bound(dirty);
    stats.dropped = bound.len();
    // A context that is one retention span over all its slots holds full
    // rows only, so nothing is ever subsumed: a clean row stays exactly as
    // valid as it was, and a row that is new binds a dirty object —
    // re-binding `dirty` finds all of them. Under braces a shorter pattern
    // resurfaces when its subsumer dies; all its components are inside
    // that subsumer, so there the re-binding set widens to every component
    // of a dirty-bound row.
    let width = cache.ctx_pre.intension.width();
    let full_rows_only = cache.resolved.spans.as_slice() == [(0, width)];
    let rebind: Cow<BTreeSet<Oid>> = if full_rows_only {
        Cow::Borrowed(dirty)
    } else {
        let mut wide = dirty.clone();
        for p in bound.iter() {
            wide.extend(p.components().iter().flatten().copied());
        }
        Cow::Owned(wide)
    };

    // 2. Semi-naive delta: every valid pattern with a delta-bound slot. A
    //    bound row that comes back is kept, not an edit.
    let delta = Evaluator::with_compiled(&cache.resolved, db, registry, Arc::clone(&cache.plan))
        .map_err(RuleError::Query)?
        .eval_delta(&cache.ctx_pre.name, &rebind);
    stats.delta_rows = delta.len();
    let (mut dropped, fresh, mut kept) = bound.split_common(delta);
    for p in dropped.iter() {
        cache.ctx_remove(p.components());
    }
    let mut added = RowRun::with_capacity(width, fresh.len());
    for r in fresh.iter().map(Row::components) {
        if !full_rows_only {
            // Merge under subsumption. The wider re-binding set re-derives
            // clean rows too; a partial row may hide under a retained one;
            // and a retained (necessarily partial) row that `r` strictly
            // covers goes.
            let posting = cache.posting.as_ref().expect("built by ensure_delta_state");
            if cache.ctx_pre.contains(r) || (is_partial(r) && posting.covers(r)) {
                continue;
            }
            for q in posting.parts_of(r).iter().map(Row::components) {
                cache.ctx_remove(q);
                if !added.remove(q) {
                    kept.remove(q);
                    dropped.push(q);
                }
            }
        }
        cache.ctx_insert(r);
        // `fresh` is ascending, so `added` stays sorted.
        added.push(r);
    }
    dropped.sort();
    Ok(cache.refresh(target, db, dropped, added, kept, stats))
}

/// The closure delta step (DESIGN.md §11). The cached chains are a pure
/// function of (successor relation, root set), so the step maintains those
/// two and re-derives only the chains that can have changed:
///
/// 1. *Roots*: only dirty objects can change root status.
/// 2. *Successor lists*: [`Evaluator::closure_affected`] names every
///    slot-0 node whose list may differ (backward prefix joins from the
///    dirty objects at each chain position, plus reverse-cycle
///    predecessors of dirty slot-0 objects); the lists of those that were
///    part of the fixpoint (or just became roots) are recomputed in one
///    batched join, diffed edge-by-edge into the support structure.
/// 3. *Frontier*: successors that just became reachable extend the
///    fixpoint exactly as in the cold kernel, one delta round at a time.
/// 4. *GC*: nodes whose last support died (no predecessor list reaches
///    them, not a root) leave the provenance, cascading.
/// 5. *Re-derivation*: a chain changes only if some node on it changed
///    its list, and the chain's prefix up to the first such node consists
///    of unchanged edges — so reverse reachability over the *updated*
///    predecessor map from the changed nodes, intersected with the root
///    set (plus added/dropped roots), is exactly the set of roots whose
///    chains must be re-run. Their old chains are dropped, the DFS re-runs
///    from them alone, and the edits flow through the shared WHERE/target
///    refresh. Retained chains touching a dirty object re-check their
///    WHERE-prefix verdict (attributes may have flipped).
///
/// If the longest chain length changed, the result intension changes width
/// and every cached pattern re-shapes: the step falls back to rebuilding
/// the post/target caches from the patched chain set (still no fixpoint
/// recompute) and reports `rules.maintain.closure_recompute` instead of
/// `rules.maintain.closure_delta`.
fn delta_apply_closure(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    target: &mut Subdatabase,
    dirty: &BTreeSet<Oid>,
    stats: &mut StepStats,
) -> Result<DeltaOutcome, RuleError> {
    let ev = Evaluator::with_compiled(&cache.resolved, db, registry, Arc::clone(&cache.plan))
        .map_err(RuleError::Query)?;
    let mut cc = cache.closure.take().expect("closure cache seeded with the rule");

    // 1. Root delta.
    let mut root_adds: Vec<Oid> = Vec::new();
    let mut root_drops: Vec<Oid> = Vec::new();
    for &o in dirty {
        match (cc.is_root(o), ev.closure_root_ok(o)) {
            (false, true) => root_adds.push(o),
            (true, false) => root_drops.push(o),
            _ => {}
        }
    }
    for &o in &root_drops {
        if let Ok(i) = cc.roots.binary_search(&o) {
            cc.roots.remove(i);
        }
    }
    for &o in &root_adds {
        if let Err(i) = cc.roots.binary_search(&o) {
            cc.roots.insert(i, o);
        }
    }

    // 2. Recompute the affected successor lists.
    let affected = ev.closure_affected(dirty);
    let recompute: Vec<Oid> = affected
        .into_iter()
        .filter(|o| cc.succ.contains_key(o) || cc.is_root(*o))
        .collect();
    let mut seeds: Vec<Oid> = Vec::new();
    let mut frontier: Vec<Oid> = Vec::new();
    let mut drained: Vec<Oid> = Vec::new();
    for (node, list) in ev.closure_succ_batch(&recompute) {
        cc.apply_list(node, list, &mut seeds, &mut frontier, &mut drained);
    }

    // 3. Delta-frontier expansion of newly reachable nodes.
    loop {
        frontier.sort_unstable();
        frontier.dedup();
        frontier.retain(|o| !cc.succ.contains_key(o));
        if frontier.is_empty() {
            break;
        }
        if obs::metrics_enabled() {
            obs::metrics::histogram("oql.closure.frontier").record(frontier.len() as u64);
        }
        let mut next: Vec<Oid> = Vec::new();
        for (node, list) in ev.closure_succ_batch(&frontier) {
            cc.apply_list(node, list, &mut seeds, &mut next, &mut drained);
        }
        frontier = next;
    }

    // 4. Cascade GC of unsupported nodes.
    drained.extend(root_drops.iter().copied());
    while let Some(o) = drained.pop() {
        if cc.supported(o) || !cc.succ.contains_key(&o) {
            continue;
        }
        let list = cc.succ.remove(&o).unwrap_or_default();
        cc.pred.remove(&o);
        for s in list {
            if cc.pred_remove(s, o) {
                drained.push(s);
            }
        }
    }

    // 5. Roots whose chains must be re-derived: reverse reachability from
    //    the changed nodes, plus explicit root adds (an unchanged node that
    //    became a root seeds new chains without any list edit).
    seeds.sort_unstable();
    seeds.dedup();
    let mut visited: FxHashSet<Oid> = seeds.iter().copied().collect();
    let mut queue: Vec<Oid> = seeds;
    while let Some(o) = queue.pop() {
        if let Some(preds) = cc.pred.get(&o) {
            for &p in preds {
                if visited.insert(p) {
                    queue.push(p);
                }
            }
        }
    }
    let mut redo_roots: Vec<Oid> =
        visited.iter().copied().filter(|o| cc.is_root(*o)).collect();
    redo_roots.extend(root_adds.iter().copied());
    redo_roots.sort_unstable();
    redo_roots.dedup();
    let mut drop_roots: Vec<Oid> = redo_roots.iter().chain(&root_drops).copied().collect();
    drop_roots.sort_unstable();
    drop_roots.dedup();

    // The cached chains of redo and dropped roots go: one head range of the
    // ordered context per root, ascending, counted first to size the run.
    let heads = || drop_roots.iter().flat_map(|&root| cache.ctx_pre.head_range(Some(root)));
    let mut dropped = RowRun::with_capacity(cache.ctx_pre.intension.width(), heads().count());
    for p in heads() {
        dropped.push(p.components());
    }
    stats.dropped = dropped.len();
    let new_chains = ev.closure_chains(&redo_roots, &cc.succ);
    stats.delta_rows = new_chains.len();
    for p in dropped.iter() {
        let c = cc.len_counts.entry(p.arity()).or_insert(0);
        *c = c.saturating_sub(1);
    }
    for c in new_chains.iter() {
        *cc.len_counts.entry(c.len()).or_insert(0) += 1;
    }
    let new_width =
        cc.len_counts.iter().filter(|&(_, &n)| n > 0).map(|(&l, _)| l).max().unwrap_or(1);

    if new_width != cc.width {
        // The longest chain length changed: the result intension re-shapes
        // and every cached pattern with it. Rebuild the caches from the
        // patched chain set — the provenance survives, the fixpoint is
        // still not recomputed. The rows that stay join the new chains in
        // their buffer, which is grown once to fit them.
        if obs::metrics_enabled() {
            obs::metrics::counter("rules.maintain.closure_recompute").inc();
        }
        for p in dropped.iter() {
            cache.ctx_pre.remove(p);
        }
        let mut chains = new_chains;
        let cells = cache.ctx_pre.patterns().map(Row::arity).sum();
        chains.reserve_exact(cache.ctx_pre.len(), cells);
        for p in cache.ctx_pre.patterns() {
            chains.push(p.components().iter().flatten().copied());
        }
        let next_pre = ev.closure_subdb(&cache.ctx_pre.name, &chains);
        cc.width = new_width;
        cache.closure = Some(cc);
        cache.ctx_pre = next_pre;
        cache.posting = None;
        let (filter, _, next) = Filter::derive(rule, &cache.ctx_pre, db)?;
        let out = target_diff(target, &next);
        cache.filter = filter;
        *target = next;
        return Ok(out);
    }

    if obs::metrics_enabled() {
        obs::metrics::counter("rules.maintain.closure_delta").inc();
    }
    // Each chain as a Null-padded row. Re-derived chains that came back
    // identical net out (a redo root whose subtree was mostly intact) —
    // they are cancelled before the caches are touched, so the
    // WHERE/target stage sees only real edits.
    let mut added = RowRun::with_capacity(cc.width, new_chains.len());
    for c in new_chains.iter() {
        added.push_with(|row| {
            for (cell, &o) in row.iter_mut().zip(c) {
                *cell = Some(o);
            }
        });
    }
    added.sort();
    let (dropped, added, _) = dropped.split_common(added);
    for p in dropped.iter() {
        cache.ctx_remove(p.components());
    }
    for p in added.iter() {
        cache.ctx_insert(p.components());
    }
    cache.closure = Some(cc);
    // Chains that stay — cancelled or untouched — but bind a dirty object
    // keep their structure, not necessarily their attributes: under
    // attribute-reading conditions they re-check their verdicts.
    let kept = if cache.filter.reads_attrs {
        let mut kept = cache.dirty_bound(dirty);
        kept.retain(|p| !added.contains(p));
        kept
    } else {
        RowRun::new(added.width())
    };
    Ok(cache.refresh(target, db, dropped, added, kept, stats))
}

/// The edits that turn `old` into `new`, two targets of a rule: the rows
/// only in `old` are removed, those only in `new` inserted. Both
/// extensions are walked in order, once to size the two runs and once to
/// fill them.
fn target_diff(old: &Subdatabase, new: &Subdatabase) -> DeltaOutcome {
    let walk = |emit: &mut dyn FnMut(bool, Row<'_>)| {
        let (mut a, mut b) = (old.patterns().peekable(), new.patterns().peekable());
        loop {
            let order = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            match order {
                Ordering::Less => emit(true, a.next().expect("peeked")),
                Ordering::Greater => emit(false, b.next().expect("peeked")),
                Ordering::Equal => {
                    a.next();
                    b.next();
                }
            }
        }
    };
    let (mut removed, mut inserted) = (0, 0);
    walk(&mut |gone, _| if gone { removed += 1 } else { inserted += 1 });
    let mut out = DeltaOutcome {
        removed: RowRun::with_capacity(old.intension.width(), removed),
        inserted: RowRun::with_capacity(new.intension.width(), inserted),
    };
    walk(&mut |gone, row| {
        if gone { &mut out.removed } else { &mut out.inserted }.push(row.components())
    });
    out
}

/// Count-maintained target update: adjust derivation counts by the
/// post-WHERE edits, then patch the target — which always holds exactly the
/// maximal elements of the live count keys — by the keys whose count
/// crossed zero. Births run before deaths so a death's resurrection scan
/// sees the final cover.
///
/// The part-of relation pins every bound slot of the part — slot 0
/// included — so a cover, eviction, or resurrection scan can only ever
/// match patterns whose head equals the key's head (or is unbound). Target
/// and counts are ordered, so those are head ranges, walked in place:
/// family-projected closure targets hold thousands of mostly-partial chain
/// patterns, and full scans would dominate the step.
fn count_target(
    slots: &[Option<usize>],
    counts: &mut BTreeMap<ExtPattern, u32>,
    target: &mut Subdatabase,
    removed: &RowRun,
    added: &RowRun,
) -> DeltaOutcome {
    let mut out =
        DeltaOutcome { inserted: RowRun::new(slots.len()), removed: RowRun::new(slots.len()) };
    // Each edit is projected into one reused key; a key is boxed only when
    // it enters the counts.
    let mut key: Vec<Option<Oid>> = Vec::with_capacity(slots.len());
    let project_into = |p: Row<'_>, key: &mut Vec<Option<Oid>>| {
        key.clear();
        key.extend(project(p.components(), slots));
    };
    // Removals first. A key whose count reaches zero stays in the counts,
    // at zero, until the additions are in: a key that dies and is re-born
    // in the same step nets out by its count alone.
    for p in removed.iter() {
        project_into(p, &mut key);
        if let Some(c) = counts.get_mut(key.as_slice()) {
            *c -= 1;
        }
    }
    // Additions. A key new to the counts is a birth, applied to the target
    // at once: a covered (or already present) key stays implicit, and an
    // uncovered one evicts the target members it strictly covers.
    for p in added.iter() {
        project_into(p, &mut key);
        if key.iter().all(Option::is_none) {
            continue;
        }
        if let Some(c) = counts.get_mut(key.as_slice()) {
            *c += 1;
            continue;
        }
        counts.insert(ExtPattern::new(key.as_slice()), 1);
        if target.contains(&key) || (is_partial(&key) && covered(target, &key)) {
            continue;
        }
        let first = out.removed.len();
        for h in part_heads(&key) {
            for q in target.head_range(h).filter(|q| q.is_part_of(&key)) {
                out.removed.push(q.components());
            }
        }
        for i in first..out.removed.len() {
            target.remove(out.removed.row(i));
        }
        target.insert(&key);
        out.inserted.push(&key);
    }
    // Deaths, after every birth, so that a resurrection scan sees the final
    // cover: each key still at zero leaves the counts and the target.
    for p in removed.iter() {
        project_into(p, &mut key);
        if counts.get(key.as_slice()) != Some(&0) {
            continue;
        }
        counts.remove(key.as_slice());
        if !target.remove(&key) {
            continue; // was covered by a live key: nothing visible changed
        }
        // Resurrect the maximal live keys the dead pattern was covering
        // (strictly part of it, hence partial). Keys still at zero die in
        // this loop too.
        let cands: Vec<&ExtPattern> = part_heads(&key)
            .flat_map(|h| counts.range::<[Option<Oid>], _>(HeadRange::of(h).bounds()))
            .filter(|&(k, &c)| {
                let open = !target.contains(k) && !covered(target, k.components());
                c > 0 && k.is_part_of(&key) && open
            })
            .map(|(k, _)| k)
            .collect();
        for k in &cands {
            if cands.iter().any(|d| k.is_part_of(d)) {
                continue;
            }
            target.insert(k);
            out.inserted.push(k.components());
        }
        out.removed.push(&key);
    }
    out.inserted.sort();
    out.removed.sort();
    out
}

/// Whether `key` is strictly part of any target pattern.
fn covered(target: &Subdatabase, key: &[Option<Oid>]) -> bool {
    match key[0] {
        Some(h) => target.head_range(Some(h)).any(|q| is_part(key, q.components())),
        None => target.patterns().any(|q| is_part(key, q.components())),
    }
}

/// The heads a strict part of `key` can have: `key`'s own, and unbound.
fn part_heads(key: &[Option<Oid>]) -> impl Iterator<Item = Option<Oid>> {
    key[0].map(Some).into_iter().chain([None])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::apply_rule;
    use crate::parser::parse_rule;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::{DType, Value};

    fn setup() -> (Database, Vec<Oid>, Vec<Oid>) {
        let mut b = SchemaBuilder::new();
        b.e_class("A");
        b.e_class("B");
        b.d_class("v", DType::Int);
        b.attr("A", "v");
        b.aggregate("A", "B");
        let mut db = Database::new(b.build().unwrap());
        let a_cls = db.schema().class_by_name("A").unwrap();
        let b_cls = db.schema().class_by_name("B").unwrap();
        let link = db.schema().own_link_by_name(a_cls, "B").unwrap();
        let avec: Vec<Oid> = (0..5).map(|_| db.new_object(a_cls).unwrap()).collect();
        let bvec: Vec<Oid> = (0..5).map(|_| db.new_object(b_cls).unwrap()).collect();
        for i in 0..5 {
            db.set_attr(avec[i], "v", Value::Int(i as i64)).unwrap();
            db.associate(link, avec[i], bvec[i]).unwrap();
        }
        (db, avec, bvec)
    }

    fn dirty_since(db: &Database, mark: u64) -> BTreeSet<Oid> {
        dirty_closure(db, db.events().since(mark).iter().flat_map(|e| e.touched_oids()))
    }

    #[test]
    fn plans_cover_the_rule_space() {
        let plan = |src: &str| plan_for(&parse_rule("r", src).unwrap());
        assert_eq!(plan("if context A * B then T (A, B)"), MaintainPlan::Delta);
        assert_eq!(plan("if context A * B where A.v > 1 then T (A)"), MaintainPlan::Delta);
        assert_eq!(plan("if context {A} * B then T (A)"), MaintainPlan::Delta);
        // Aggregates keep group state; they are no plan of their own.
        assert_eq!(
            plan("if context A * B where count(B by A) > 1 then T (A)"),
            MaintainPlan::Delta
        );
        // Closure contexts maintain the fixpoint provenance incrementally.
        assert_eq!(plan("if context A ^* then T (A, A_*)"), MaintainPlan::Closure);
    }

    /// The posting list answers exactly what a scan of the rows answers,
    /// through insertions, removals and row reuse.
    #[test]
    fn posting_list_matches_a_scan() {
        use dood_core::subdb::{Intension, SlotDef};
        let p = |v: &[Option<u64>]| {
            ExtPattern::new(v.iter().map(|o| o.map(Oid::from_raw)).collect::<Vec<_>>())
        };
        let cls = dood_core::ids::ClassId(0);
        let int = Intension::new(vec![
            SlotDef::base("A", cls),
            SlotDef::base("B", cls),
            SlotDef::base("C", cls),
        ]);
        let mut sd = Subdatabase::new("ctx", int);
        for row in [
            p(&[Some(1), Some(2), Some(3)]),
            p(&[Some(1), Some(2), None]),
            p(&[Some(1), Some(4), Some(3)]),
            p(&[None, Some(2), Some(5)]),
            p(&[Some(6), Some(6), None]), // one oid in two slots
        ] {
            sd.insert(row);
        }
        let mut posting = Posting::build(&sd);
        let check = |posting: &Posting, sd: &Subdatabase| {
            for o in 1..8u64 {
                let mut got: Vec<ExtPattern> =
                    posting.rows_of(Oid::from_raw(o)).map(ExtPattern::new).collect();
                got.sort_unstable();
                got.dedup();
                let want: Vec<ExtPattern> = sd
                    .patterns()
                    .filter(|q| q.components().contains(&Some(Oid::from_raw(o))))
                    .map(Row::to_pattern)
                    .collect();
                assert_eq!(got, want, "rows of o{o}");
            }
        };
        check(&posting, &sd);
        let partial = p(&[Some(1), Some(2), None]);
        assert!(posting.covers(partial.components()), "(1,2,3) covers (1,2,Null)");
        assert!(!posting.covers(p(&[Some(1), Some(9), None]).components()));
        assert!(!posting.covers(p(&[None, Some(4), Some(5)]).components()));
        let parts = posting.parts_of(p(&[Some(1), Some(2), Some(3)]).components());
        assert_eq!(parts.iter().map(Row::to_pattern).collect::<Vec<_>>(), vec![partial.clone()]);
        assert!(posting.parts_of(partial.components()).is_empty());

        for gone in [p(&[Some(1), Some(2), Some(3)]), p(&[Some(6), Some(6), None])] {
            assert!(posting.remove(gone.components()));
            assert!(!posting.remove(gone.components()), "already gone");
            sd.remove(&gone);
        }
        assert!(!posting.covers(partial.components()));
        check(&posting, &sd);
        // The freed rows are reused.
        let entries = posting.rows.len();
        for row in [p(&[Some(7), Some(2), Some(3)]), p(&[Some(1), None, Some(7)])] {
            posting.insert(row.components());
            sd.insert(row);
        }
        assert_eq!(posting.rows.len(), entries);
        check(&posting, &sd);
    }

    /// delta_apply after a mixed batch (associate, dissociate, create,
    /// attribute flip) reproduces the from-scratch derivation exactly —
    /// for plain, braced, filtered, and aggregate rules.
    #[test]
    fn delta_matches_full_after_updates() {
        for src in [
            "if context A * B then T (A, B)",
            "if context {A} * B then T (A, B)",
            "if context A [v >= 2] * B then T (A)",
            "if context A * B where A.v >= 1 then T (A, B)",
            "if context A * B where count(B by A) > 1 then T (A)",
            "if context A * B where count(B) > 5 then T (A)",
            "if context A * B where sum(A.v by B) >= 2 then T (B)",
            "if context A * B where avg(A.v) > 2.0 then T (A, B)",
            "if context A * B where max(A.v by B) < 50 then T (A)",
            "if context A * B where count(B by A) >= 1 and A.v >= 1 then T (A)",
            "if context A * B where count(A by B) >= 1 and min(A.v) >= 0 then T (B)",
            "if context {A} * B where count(B by A) >= 1 then T (A, B)",
        ] {
            let (mut db, avec, bvec) = setup();
            let rule = parse_rule("r", src).unwrap();
            let reg = SubdbRegistry::new();
            let (mut cache, mut target) = seed_cache(&rule, &db, &reg).unwrap();
            let mut mirror = target.clone();

            let a_cls = db.schema().class_by_name("A").unwrap();
            let b_cls = db.schema().class_by_name("B").unwrap();
            let link = db.schema().own_link_by_name(a_cls, "B").unwrap();
            let mark = db.seq();
            db.associate(link, avec[0], bvec[1]).unwrap();
            db.dissociate(link, avec[2], bvec[2]).unwrap();
            db.set_attr(avec[3], "v", Value::Int(99)).unwrap();
            let na = db.new_object(a_cls).unwrap();
            let nb = db.new_object(b_cls).unwrap();
            db.associate(link, na, nb).unwrap();

            let dirty = dirty_since(&db, mark);
            let out = delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
            let full = apply_rule(&rule, &db, &reg).unwrap();
            assert_eq!(target.to_vec(), full.to_vec(), "target diverged for `{src}`");
            // Replaying the reported edits reproduces the new target.
            for p in out.removed.iter() {
                assert!(mirror.remove(p), "removed edit not present for `{src}`");
            }
            for p in out.inserted.iter() {
                mirror.insert(p);
            }
            assert_eq!(mirror.to_vec(), full.to_vec(), "edits diverged for `{src}`");
            // The refreshed cache is itself a valid base for another step.
            let mark = db.seq();
            db.dissociate(link, avec[0], bvec[0]).unwrap();
            let dirty = dirty_since(&db, mark);
            delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
            let full2 = apply_rule(&rule, &db, &reg).unwrap();
            assert_eq!(target.to_vec(), full2.to_vec(), "second step diverged for `{src}`");
        }
    }

    /// Deleting an object must remove every pattern referencing it and must
    /// not resurrect patterns through the deleted object's former
    /// neighbours (the `dirty_closure`-keeps-deleted-oids regression).
    #[test]
    fn delete_then_delta_does_not_resurrect() {
        let (mut db, avec, _bvec) = setup();
        let rule = parse_rule("r", "if context {A} * B then T (A, B)").unwrap();
        let reg = SubdbRegistry::new();
        let (mut cache, mut target) = seed_cache(&rule, &db, &reg).unwrap();
        let mark = db.seq();
        db.delete_object(avec[1]).unwrap();
        delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty_since(&db, mark)).unwrap();
        let full = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(target.to_vec(), full.to_vec());
        assert!(target
            .patterns()
            .all(|p| p.components().iter().flatten().all(|&o| o != avec[1])));
    }

    /// Counting deletion: two context patterns projecting onto the same
    /// target pattern — removing one keeps the target alive, removing both
    /// kills it.
    #[test]
    fn counting_keeps_multiply_derived_targets() {
        let (mut db, avec, bvec) = setup();
        let a_cls = db.schema().class_by_name("A").unwrap();
        let link = db.schema().own_link_by_name(a_cls, "B").unwrap();
        // a0 now derives through b0 and b1.
        db.associate(link, avec[0], bvec[1]).unwrap();
        let rule = parse_rule("r", "if context A * B then T (A)").unwrap();
        let reg = SubdbRegistry::new();
        let (mut cache, mut target) = seed_cache(&rule, &db, &reg).unwrap();
        assert!(target.patterns().any(|p| p.get(0) == Some(avec[0])));

        let mark = db.seq();
        db.dissociate(link, avec[0], bvec[0]).unwrap();
        let dirty = dirty_since(&db, mark);
        let one = delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
        assert!(target.patterns().any(|p| p.get(0) == Some(avec[0])), "count 2→1 kept");
        assert!(!one.changed(), "count 2→1 is invisible in the target");

        let mark = db.seq();
        db.dissociate(link, avec[0], bvec[1]).unwrap();
        let dirty = dirty_since(&db, mark);
        let zero = delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
        assert!(target.patterns().all(|p| p.get(0) != Some(avec[0])), "count 1→0 dies");
        assert!(zero.removed.iter().any(|p| p.get(0) == Some(avec[0])));
        assert_eq!(target.to_vec(), apply_rule(&rule, &db, &reg).unwrap().to_vec());
    }

    /// A prerequisite-style self-association for closure rules: five nodes
    /// in a chain n0 → n1 → … → n4.
    fn setup_cyclic() -> (Database, Vec<Oid>) {
        let mut b = SchemaBuilder::new();
        b.e_class("N");
        b.d_class("v", DType::Int);
        b.attr("N", "v");
        b.aggregate_named("N", "N", "Next");
        let mut db = Database::new(b.build().unwrap());
        let n_cls = db.schema().class_by_name("N").unwrap();
        let next = db.schema().own_link_by_name(n_cls, "Next").unwrap();
        let ns: Vec<Oid> = (0..5).map(|_| db.new_object(n_cls).unwrap()).collect();
        for (i, &n) in ns.iter().enumerate() {
            db.set_attr(n, "v", Value::Int(i as i64)).unwrap();
        }
        for w in ns.windows(2) {
            db.associate(next, w[0], w[1]).unwrap();
        }
        (db, ns)
    }

    /// Closure delta maintenance reproduces the from-scratch derivation
    /// after edge insertion (width growth), deletion (width shrink), cycle
    /// creation, attribute flips, and object deletion — and the reported
    /// edits replay exactly.
    #[test]
    fn closure_delta_matches_full_after_updates() {
        for src in [
            "if context N ^* then T (N, N_*)",
            "if context N ^2 then T (N, N_*)",
            "if context N [v < 99] ^* then T (N, N_*)",
            "if context N ^* where N.v >= 0 then T (N, N_*)",
        ] {
            let (mut db, ns) = setup_cyclic();
            let rule = parse_rule("r", src).unwrap();
            let reg = SubdbRegistry::new();
            let (mut cache, mut target) = seed_cache(&rule, &db, &reg).unwrap();
            let n_cls = db.schema().class_by_name("N").unwrap();
            let next = db.schema().own_link_by_name(n_cls, "Next").unwrap();

            // A batch that extends the longest chain, forks a branch, and
            // flips an attribute.
            let mark = db.seq();
            let n5 = db.new_object(n_cls).unwrap();
            db.set_attr(n5, "v", Value::Int(5)).unwrap();
            db.associate(next, ns[4], n5).unwrap();
            db.associate(next, ns[1], ns[3]).unwrap();
            db.set_attr(ns[2], "v", Value::Int(99)).unwrap();
            let mut mirror = target.clone();
            let dirty = dirty_since(&db, mark);
            let out = delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
            let full = apply_rule(&rule, &db, &reg).unwrap();
            assert_eq!(target.to_vec(), full.to_vec(), "insert step diverged for `{src}`");
            // Replay the reported edits as the engine does: a width change
            // re-shapes the intension, so the maintained copy is taken
            // wholesale there.
            if mirror.intension.width() != target.intension.width() {
                mirror = target.clone();
            } else {
                for p in out.removed.iter() {
                    assert!(mirror.remove(p), "removed edit not present for `{src}`");
                }
                for p in out.inserted.iter() {
                    mirror.insert(p);
                }
            }
            assert_eq!(mirror.to_vec(), full.to_vec(), "edits diverged for `{src}`");

            // Deletion batch: cut the chain and delete a mid node.
            let mark = db.seq();
            db.dissociate(next, ns[4], n5).unwrap();
            db.delete_object(ns[3]).unwrap();
            let dirty = dirty_since(&db, mark);
            delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
            let full = apply_rule(&rule, &db, &reg).unwrap();
            assert_eq!(target.to_vec(), full.to_vec(), "delete step diverged for `{src}`");

            // Cycle creation: n2 → n0 closes a loop.
            let mark = db.seq();
            db.associate(next, ns[2], ns[0]).unwrap();
            let dirty = dirty_since(&db, mark);
            delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty).unwrap();
            let full = apply_rule(&rule, &db, &reg).unwrap();
            assert_eq!(target.to_vec(), full.to_vec(), "cycle step diverged for `{src}`");
        }
    }

    /// An isolated edge flip far from the chain tips keeps the width and
    /// takes the provenance-patch path (no width rebuild): the cache still
    /// converges to the from-scratch result.
    #[test]
    fn closure_delta_stable_width_patch() {
        let (mut db, ns) = setup_cyclic();
        let n_cls = db.schema().class_by_name("N").unwrap();
        let next = db.schema().own_link_by_name(n_cls, "Next").unwrap();
        // A second, disjoint two-node chain keeps a stable width witness.
        let m0 = db.new_object(n_cls).unwrap();
        let m1 = db.new_object(n_cls).unwrap();
        for (i, &m) in [m0, m1].iter().enumerate() {
            db.set_attr(m, "v", Value::Int(10 + i as i64)).unwrap();
        }
        db.associate(next, m0, m1).unwrap();
        let rule = parse_rule("r", "if context N ^* then T (N, N_*)").unwrap();
        let reg = SubdbRegistry::new();
        let (mut cache, mut target) = seed_cache(&rule, &db, &reg).unwrap();
        let mark = db.seq();
        db.dissociate(next, m0, m1).unwrap();
        db.associate(next, m1, m0).unwrap();
        delta_apply(&rule, &db, &reg, &mut cache, &mut target, &dirty_since(&db, mark)).unwrap();
        let full = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(target.to_vec(), full.to_vec());
        assert_eq!(cache.ctx_pre.intension.width(), 5, "width must not have changed");
        // Untouched chains' provenance survives: ns[0] still reaches ns[1].
        assert!(cache.closure.as_ref().unwrap().succ[&ns[0]].contains(&ns[1]));
    }

    #[test]
    fn dirty_closure_includes_perspectives() {
        let mut b = SchemaBuilder::new();
        b.e_class("Person");
        b.e_class("Student");
        b.generalize("Person", "Student");
        let mut db = Database::new(b.build().unwrap());
        let person = db.schema().class_by_name("Person").unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let p = db.new_object(person).unwrap();
        let st = db.specialize(p, student).unwrap();
        let d = dirty_closure(&db, [p]);
        assert!(d.contains(&p) && d.contains(&st));
    }
}
