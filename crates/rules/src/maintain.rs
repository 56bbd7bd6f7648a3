//! Semi-naive incremental forward maintenance (DESIGN.md §9).
//!
//! The paper's forward chaining "runs the relevant deductive rules to
//! maintain the consistency between the derived subdatabase and the
//! original database" but does not prescribe *how*. This module implements
//! event-log-driven delta maintenance: given the *dirty* objects touched by
//! an update batch (closed over perspective/identity links) as a sorted,
//! distinct run of oids ([`dirty_closure`]), every cached context pattern
//! either
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
//! The counts are one flat shape, a [`RowCounts`] — sorted rows in flat
//! leaves with a `u32` count beside each — and a comparison's rejected
//! rows are the same store without the counts: a key is a row, not a box.
//! A step costs O(dirty-touched patterns) whatever the size of the context.
//!
//! Seeding is the same step from empty — semi-naive evaluation's first
//! round, whose delta is the whole input: the evaluated context enters an
//! empty filter, so one implementation of WHERE builds the verdict state
//! and maintains it. The prefix is checked once per context row and only
//! the rows it passes are copied, into the post-prefix set; the later
//! conditions take those rows as one addition run. The sets that start
//! empty are built in bulk: the post-prefix context, the derivation counts
//! (the projected keys sorted and run-length counted) and the target (the
//! same keys, cut to the maximal ones); the posting list waits for the
//! first delta step.
//!
//! Cyclic (closure) contexts carry the successor relation as
//! provenance ([`Evaluator::eval_closure_state`]) in the cache: a delta
//! recomputes the successor lists of the affected slot-0 nodes only, drops
//! the lists of roots that stopped being roots, and re-runs the chain DFS
//! for exactly the roots whose chains can have changed
//! ([`MaintainPlan::Closure`]); the chain edits take the same WHERE and
//! target stages. When the longest chain changes length, the cached rows
//! gain or lose all-Null level columns in place ([`RuleCache::reshape`]).

use crate::ast::Rule;
use crate::derive::{project, target_layout};
use crate::error::RuleError;
use dood_core::fxhash::FxHashMap;
use dood_core::ids::Oid;
use dood_core::obs;
use dood_core::subdb::{
    is_part, Intension, Row, RowCounts, RowRun, RowStore, Subdatabase, SubdbRegistry,
};
use dood_oql::eval::{Evaluator, WalkBuffers};
use dood_oql::plan::CompiledContext;
use dood_oql::resolve::{resolve_context, REdgeKind, ResolvedContext};
use dood_oql::wherec::{bind_cond, AggCond, BoundCond, CmpCond};
use dood_store::{Database, UpdateEvent};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt::Debug;
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

/// The dirty set of an update batch: the objects its events touched,
/// expanded over the identity links — a pattern slot may hold a different
/// perspective of a touched object — as a sorted, distinct run. Deleted
/// oids are *kept* — they invalidate cached patterns referencing them — but
/// can never re-bind a slot ([`Evaluator::eval_delta`] drops non-live
/// oids).
pub fn dirty_closure(db: &Database, events: &[UpdateEvent]) -> Vec<Oid> {
    // An event touches at most two objects.
    let mut touched = Vec::with_capacity(2 * events.len());
    touched.extend(events.iter().flat_map(UpdateEvent::touched_oids));
    db.perspective_closure_set(touched)
}

/// The cached provenance of a closure rule: the successor relation the
/// chains are a function of, plus its inverse, which localizes chain
/// re-derivation. `succ` holds the `(node, successor)` rows of every root
/// (none under `^0`), and every row names only roots; `pred` holds the
/// same edges as `(successor, node)` rows. Chain-length counts make the
/// result width an O(1) question on every delta.
#[derive(Debug, Clone)]
struct ClosureCache {
    succ: RowStore,
    pred: RowStore,
    /// Sorted slot-0 candidates as of `at_seq`.
    roots: Vec<Oid>,
    /// Chains per length, indexed by length; the last entry is non-zero
    /// and its index is the result's width.
    len_counts: Vec<u32>,
    /// The chain walk's buffers, kept from step to step.
    walk: WalkBuffers,
}

impl ClosureCache {
    fn new(state: dood_oql::eval::ClosureState, sd: &Subdatabase) -> Self {
        let mut edges = RowRun::with_capacity(2, state.succ.len());
        for r in state.succ.iter() {
            edges.push(r.components());
        }
        edges.flip();
        edges.sort();
        let mut pred = RowStore::new(2);
        pred.set_run(&edges);
        let mut roots = state.roots;
        roots.sort_unstable();
        let (len_counts, walk) = (Vec::new(), WalkBuffers::default());
        let mut cc = ClosureCache { succ: state.succ, pred, roots, len_counts, walk };
        cc.count_chains(sd.patterns().map(Row::arity), true);
        cc
    }

    fn is_root(&self, o: Oid) -> bool {
        self.roots.binary_search(&o).is_ok()
    }

    /// Count chains of the given lengths in (`add`) or out, and drop the
    /// trailing zero counts.
    fn count_chains(&mut self, lens: impl Iterator<Item = usize>, add: bool) {
        for len in lens {
            if len >= self.len_counts.len() {
                self.len_counts.resize(len + 1, 0);
            }
            let c = &mut self.len_counts[len];
            *c = if add { *c + 1 } else { c.checked_sub(1).expect("a chain counted in") };
        }
        while self.len_counts.last() == Some(&0) {
            self.len_counts.pop();
        }
    }

    /// The result's width: the longest chain's length, 1 with no chain.
    fn width(&self) -> usize {
        self.len_counts.len().saturating_sub(1).max(1)
    }

    /// Install a recomputed successor list, ascending: diff it against the
    /// node's head range of `succ` and patch both relations edge by edge.
    /// Whether the list changed; `edits` is scratch.
    fn apply_list(
        &mut self,
        node: Oid,
        new: impl Iterator<Item = Oid>,
        edits: &mut Vec<(Oid, bool)>,
    ) -> bool {
        edits.clear();
        let mut old = self.succ.head_range(Some(node)).map(|(r, _)| second(r)).peekable();
        let mut new = new.peekable();
        loop {
            match (old.peek(), new.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) if a == b => {
                    old.next();
                    new.next();
                }
                (Some(&a), b) if b.is_none_or(|&b| a < b) => {
                    edits.push((a, false));
                    old.next();
                }
                (_, Some(&b)) => {
                    edits.push((b, true));
                    new.next();
                }
                _ => unreachable!("one side is left"),
            }
        }
        for &(succ, insert) in edits.iter() {
            let (fwd, back) = ([Some(node), Some(succ)], [Some(succ), Some(node)]);
            if insert {
                self.succ.insert(&fwd);
                self.pred.insert(&back);
            } else {
                self.succ.remove(&fwd);
                self.pred.remove(&back);
            }
        }
        !edits.is_empty()
    }
}

/// The second cell of a bound pair row.
fn second(r: Row<'_>) -> Oid {
    r.get(1).expect("an edge row is bound")
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
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Group {
    rows: u32,
    targets: Vec<(Oid, u32)>,
    verdict: bool,
    /// Set while a step adds the group's first rows: it has no member in
    /// the step's old input.
    born: bool,
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
    Cmp { cond: CmpCond, rejected: RowStore },
    /// An aggregate and its groups.
    Agg { cond: AggCond, groups: FxHashMap<Oid, Group> },
}

impl Stage {
    /// Whether `r`, a row of this stage's input, is in its output.
    fn admits(&self, r: Row<'_>) -> bool {
        match self {
            Stage::Cmp { rejected, .. } => !rejected.contains(r.components()),
            Stage::Agg { cond, groups } => {
                cond.group_of(r).is_some_and(|g| groups.get(&g).is_some_and(|g| g.verdict))
            }
        }
    }

    /// Fold the input edits `rem`/`add` — sorted runs, rewritten in place
    /// into the output edits. `members(cond, g, emit)` emits the rows of
    /// group `g` in the stage's *new* input; it is asked only for groups
    /// whose verdict flipped and that had members before the step, so the
    /// seed step, where every group is born, never asks.
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
                        rejected.insert(p.components());
                    }
                    ok
                });
                return;
            }
            Stage::Agg { cond, groups } => (&*cond, groups),
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
            let born = || Group { born: true, ..Group::default() };
            groups.entry(g).or_insert_with(born).add(cond.target_of(p));
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
            // A group born in this step has no member in the old input: its
            // added rows are all its members, and they pass through below
            // as those of a group that stays as it was.
            match (group.verdict, verdict) {
                (false, true) if !group.born => lit.push(g),
                (true, false) => doused.push(g),
                _ => {}
            }
            group.verdict = verdict;
            group.born = false;
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
/// maintained by. The comparisons before the first aggregate see the whole
/// context and share one cached output set; from the first aggregate on,
/// every condition keeps its own verdict state. Conditions apply in written
/// order: an aggregate groups over the currently-filtered set.
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
    /// patterns deriving it, as rows with a count lane. Ordered, so the keys
    /// of one head are a range.
    counts: RowCounts,
}

impl Filter {
    /// The state the seed step starts from: the rule's conditions bound to
    /// the intension `int` of the context `name`, with nothing admitted,
    /// rejected, grouped or counted yet; and the empty target it maintains.
    fn new(
        rule: &Rule,
        name: &str,
        int: &Intension,
        db: &Database,
    ) -> Result<(Filter, Subdatabase), RuleError> {
        let (mut prefix, mut stages) = (Vec::new(), Vec::new());
        for cond in &rule.where_ {
            match bind_cond(cond, int, db.schema()).map_err(RuleError::Query)? {
                BoundCond::Cmp(cond) if stages.is_empty() => prefix.push(cond),
                BoundCond::Cmp(cond) => {
                    stages.push(Stage::Cmp { cond, rejected: RowStore::new(int.width()) })
                }
                BoundCond::Agg(cond) => {
                    stages.push(Stage::Agg { cond, groups: Default::default() })
                }
            }
        }
        let reads_attrs = !prefix.is_empty()
            || stages.iter().any(|s| match s {
                Stage::Cmp { .. } => true,
                Stage::Agg { cond, .. } => cond.reads_attrs(),
            });
        let post = (!prefix.is_empty()).then(|| Subdatabase::new(name, int.clone()));
        let layout = target_layout(rule, int, db)?;
        let target = Subdatabase::new(rule.target_subdb.clone(), layout.intension);
        let slots = layout.slots;
        let counts = RowCounts::new(slots.len());
        Ok((Filter { prefix, post, stages, reads_attrs, slots, counts }, target))
    }

    /// Whether the rule has no WHERE clause.
    fn is_empty(&self) -> bool {
        self.prefix.is_empty() && self.stages.is_empty()
    }
}

/// The per-rule state carried between maintenance steps. The rule's target
/// is the visible keys of its derivation counts ([`RuleCache::visible`]);
/// the registered result is the caller's, and [`delta_apply`] patches it in
/// place when it is the rule's alone.
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

    /// The rule's target: the maximal keys of its derivation counts, which
    /// carry the visible mark, ascending.
    pub(crate) fn visible(&self) -> impl Iterator<Item = Row<'_>> {
        self.filter.counts.entries().filter(|&(_, c)| shown(c)).map(|(k, _)| k)
    }

    /// Whether `p` is a visible key of the rule's counts.
    pub(crate) fn shows(&self, p: Row<'_>) -> bool {
        self.filter.counts.is_visible(p.components())
    }

    /// The intension of the rule's target over the cached context, laid out
    /// afresh ([`target_layout`]).
    pub(crate) fn target_intension(
        &self,
        rule: &Rule,
        db: &Database,
    ) -> Result<Intension, RuleError> {
        Ok(target_layout(rule, &self.ctx_pre.intension, db)?.intension)
    }

    /// Build the posting list, which only delta steps need, on the first of
    /// them: an acyclic context finds its dirty-bound rows through it; a
    /// closure context needs it only to re-check rows and list group
    /// members, i.e. under a WHERE clause.
    fn ensure_posting(&mut self) {
        if self.posting.is_none() && (self.closure.is_none() || !self.filter.is_empty()) {
            self.posting = Some(Posting::build(&self.ctx_pre));
        }
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
    fn dirty_bound(&self, dirty: &[Oid]) -> RowRun {
        let posting = self.posting.as_ref().expect("built by ensure_posting");
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
    /// derivation counts, writing its edits into `target` if one is given.
    fn refresh(
        &mut self,
        target: Option<&mut Subdatabase>,
        db: &Database,
        dropped: RowRun,
        added: RowRun,
        kept: RowRun,
        stats: &mut StepStats,
    ) -> DeltaOutcome {
        let (rem, add) = self.where_edits(db, dropped, added, kept, stats);
        count_target(&self.filter.slots, &mut self.filter.counts, target, &rem, &add)
    }

    /// Stage 3 of a delta step: turn the context edits into the post-WHERE
    /// edits, removals and additions.
    fn where_edits(
        &mut self,
        db: &Database,
        dropped: RowRun,
        added: RowRun,
        kept: RowRun,
        stats: &mut StepStats,
    ) -> (RowRun, RowRun) {
        let Filter { prefix, post, reads_attrs, .. } = &mut self.filter;
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
            if post.is_empty() {
                // From empty the set is built in bulk.
                let mut rows = add.iter();
                post.set_sorted_rows(add.len(), |row| {
                    row.copy_from_slice(rows.next().expect("one row per slot").components())
                });
            } else {
                for p in add.iter() {
                    post.insert(p);
                }
            }
        }
        self.stage_edits(db, &mut rem, &mut add, stats);
        (rem, add)
    }

    /// The conditions from the first aggregate on, shared by the seed and
    /// the delta steps: rewrite the post-prefix edits in place into the
    /// post-WHERE edits.
    fn stage_edits(
        &mut self,
        db: &Database,
        rem: &mut RowRun,
        add: &mut RowRun,
        stats: &mut StepStats,
    ) {
        let RuleCache { ctx_pre, posting, filter, .. } = self;
        let Filter { post, stages, .. } = filter;
        let base = post.as_ref().unwrap_or(ctx_pre);
        for k in 0..stages.len() {
            let (done, rest) = stages.split_at_mut(k);
            let in_input = |r: Row<'_>| done.iter().all(|s| s.admits(r));
            rest[0].step(rem, add, db, stats, |cond, g, emit| match cond.by_slot() {
                None => base.patterns().filter(|r| in_input(*r)).for_each(|r| emit(r.components())),
                Some(by) => {
                    let posting = posting.as_ref().expect("built by ensure_posting");
                    posting
                        .rows_of(g)
                        .filter(|row| row[by] == Some(g))
                        .filter(|r| (post.is_none() || base.contains(r)) && in_input(Row::new(r)))
                        .for_each(emit)
                }
            });
        }
    }

    /// The seed step, semi-naive evaluation's first round: the whole
    /// cached context through the empty filter of [`Filter::new`], into
    /// its empty `target`. The prefix is checked once per context row, and
    /// only the passing rows are copied, straight into the post-prefix set;
    /// only the stages from the first aggregate on take an addition run,
    /// of the post-prefix rows. Returns how many context rows pass the
    /// WHERE clause.
    fn seed(&mut self, target: &mut Subdatabase, db: &Database) -> usize {
        let RuleCache { ctx_pre, filter, .. } = self;
        let Filter { prefix, post, stages, slots, counts, .. } = filter;
        if let Some(post) = post.as_mut() {
            let pass: Vec<bool> =
                ctx_pre.patterns().map(|p| prefix.iter().all(|c| c.passes(p, db))).collect();
            let mut rows = ctx_pre.patterns().zip(&pass).filter_map(|(p, &ok)| ok.then_some(p));
            post.set_sorted_rows(pass.iter().filter(|&&ok| ok).count(), |row| {
                row.copy_from_slice(rows.next().expect("one passing row per slot").components())
            });
        }
        let base = post.as_ref().unwrap_or(ctx_pre);
        if stages.is_empty() {
            count_from_empty(slots, counts, target, base.len(), || base.patterns());
            return base.len();
        }
        let width = base.intension.width();
        let mut add = RowRun::with_capacity(width, base.len());
        for p in base.patterns() {
            add.push(p.components());
        }
        self.stage_edits(db, &mut RowRun::new(width), &mut add, &mut StepStats::default());
        let Filter { slots, counts, .. } = &mut self.filter;
        count_from_empty(slots, counts, target, add.len(), || add.iter());
        add.len()
    }

    /// Give a closure cache, and the `target` it maintains if one is given,
    /// the closure intension `int` of another width. `next` is the filter bound to
    /// `int` by [`Filter::new`], with the empty target of its layout, so the
    /// conditions and the layout are re-bound without touching a row. The
    /// columns that come or go are Null in every row (DESIGN.md §11), so
    /// each store keeps its order, verdicts and counts, and takes one pass
    /// of cell copies ([`RowStore::reshape`]); the groups move as they are.
    fn reshape(
        &mut self,
        int: Intension,
        next: (Filter, Subdatabase),
        target: Option<&mut Subdatabase>,
    ) {
        let (next, shape) = next;
        let from = self.ctx_pre.intension.width();
        let ctx_cols: Vec<Option<usize>> =
            (0..int.width()).map(|i| (i < from).then_some(i)).collect();
        // A target column takes the old one that projects the same context
        // slot; a level the old context did not have is Null.
        let was = |s: usize| self.filter.slots.iter().position(|&o| o == Some(s));
        let key_cols: Vec<Option<usize>> = next.slots.iter().map(|s| s.and_then(was)).collect();
        let old = std::mem::replace(&mut self.filter, next);
        for (stage, old) in self.filter.stages.iter_mut().zip(old.stages) {
            match (stage, old) {
                (Stage::Cmp { rejected, .. }, Stage::Cmp { rejected: mut kept, .. }) => {
                    kept.reshape(&ctx_cols);
                    *rejected = kept;
                }
                (Stage::Agg { groups, .. }, Stage::Agg { groups: kept, .. }) => *groups = kept,
                _ => unreachable!("the stages of one rule"),
            }
        }
        self.filter.post = old.post.map(|mut post| {
            post.reshape(int.clone(), &ctx_cols);
            post
        });
        self.filter.counts = old.counts;
        self.filter.counts.reshape(&key_cols);
        if let Some(target) = target {
            target.reshape(shape.intension, &key_cols);
        }
        self.ctx_pre.reshape(int, &ctx_cols);
        if self.posting.is_some() {
            self.posting = Some(Posting::build(&self.ctx_pre));
        }
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
    let (filter, mut target) = Filter::new(rule, &ctx_pre.name, &ctx_pre.intension, db)?;
    let mut cache = RuleCache {
        ctx_pre,
        posting: None,
        filter,
        at_seq: db.seq(),
        at_epoch: 0,
        resolved,
        plan,
        closure,
    };
    let ctx_rows = cache.seed(&mut target, db);
    sp.attr("ctx_rows", ctx_rows as i64);
    sp.attr("target_rows", target.len() as i64);
    Ok((cache, target))
}

/// Check `cache`, stepped to the store's current state, against a cache
/// seeded afresh from the same store and registry, after its own
/// invariants — every live derivation count is at least 1, and the visible
/// marks are on exactly the maximal keys: context rows, a closure's roots,
/// successor and predecessor edges and chain counts per length, rows past
/// the prefix, each later condition's rejected rows or groups, derivation
/// counts with their marks, and target rows. The error names the first
/// difference.
pub(crate) fn audit_cache(
    rule: &Rule,
    cache: &RuleCache,
    db: &Database,
    registry: &SubdbRegistry,
) -> Result<(), String> {
    let counts = &cache.filter.counts;
    if let Some((key, _)) = counts.entries().find(|&(_, c)| c & !RowCounts::VISIBLE == 0) {
        return Err(format!("derivation count: {key:?} is kept at 0"));
    }
    let (fresh, fresh_target) =
        seed_cache(rule, db, registry).map_err(|e| format!("seeding failed: {e}"))?;
    let mut maximal = Subdatabase::new(rule.target_subdb.clone(), fresh_target.intension.clone());
    let mut keys = counts.iter();
    maximal.set_sorted_rows(counts.len(), |row| {
        row.copy_from_slice(keys.next().expect("one key per row").components())
    });
    maximal.retain_maximal();
    first_diff("visible key against the maximal keys", cache.visible(), maximal.patterns())?;

    first_diff("context row", cache.ctx_pre.patterns(), fresh.ctx_pre.patterns())?;
    if let (Some(a), Some(b)) = (&cache.closure, &fresh.closure) {
        first_diff("closure root", &a.roots, &b.roots)?;
        first_diff("closure successor edge", a.succ.iter(), b.succ.iter())?;
        first_diff("closure predecessor edge", a.pred.iter(), b.pred.iter())?;
        first_diff("closure chains of a length", &a.len_counts, &b.len_counts)?;
    }
    let (kept, seeded) = (&cache.filter, &fresh.filter);
    let (a, b) = (kept.post.iter(), seeded.post.iter());
    let (a, b) = (a.flat_map(Subdatabase::patterns), b.flat_map(Subdatabase::patterns));
    first_diff("row past the prefix", a, b)?;
    fn sorted<T: Ord>(items: impl IntoIterator<Item = T>) -> Vec<T> {
        let mut v: Vec<T> = items.into_iter().collect();
        v.sort_unstable();
        v
    }
    for (k, (a, b)) in kept.stages.iter().zip(&seeded.stages).enumerate() {
        let at = kept.prefix.len() + k;
        match (a, b) {
            (Stage::Cmp { rejected: a, .. }, Stage::Cmp { rejected: b, .. }) => {
                first_diff(&format!("condition {at}: rejected row"), a.iter(), b.iter())?
            }
            (Stage::Agg { groups: a, .. }, Stage::Agg { groups: b, .. }) => {
                first_diff(&format!("condition {at}: group"), sorted(a), sorted(b))?
            }
            _ => unreachable!("the stages of one rule"),
        }
    }
    first_diff("derivation count", counts.entries(), seeded.counts.entries())?;
    first_diff("target row", cache.visible(), fresh_target.patterns())
}

/// The first position at which two sequences differ, as an error naming
/// `what` and both sides (`None`: that side ended there).
pub(crate) fn first_diff<T: PartialEq + Debug>(
    what: &str,
    maintained: impl IntoIterator<Item = T>,
    seeded: impl IntoIterator<Item = T>,
) -> Result<(), String> {
    let (mut a, mut b) = (maintained.into_iter(), seeded.into_iter());
    loop {
        match (a.next(), b.next()) {
            (None, None) => return Ok(()),
            (x, y) if x == y => {}
            (x, y) => return Err(format!("{what}: maintained {x:?}, seeded {y:?}")),
        }
    }
}

/// The exact edits one delta step made to a rule's target, its visible
/// keys: each a sorted run, the two disjoint. Their components are the
/// content delta fed to downstream rules' dirty sets; a union of several
/// rules (R4/R5) writes the net of its rules' edits into its registered
/// union.
#[derive(Debug, Default)]
pub struct DeltaOutcome {
    /// Target patterns added by this step.
    pub inserted: RowRun,
    /// Target patterns removed by this step.
    pub removed: RowRun,
    /// A closure's change of width, `(from, to)`: the longest chain changed
    /// length, and the context and the target were re-shaped in place
    /// (DESIGN.md §11). The edits are rows of the target's wider shape: a
    /// widening re-shapes before the patch step, a narrowing after it.
    pub reshape: Option<(usize, usize)>,
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
/// verdicts, derivation counts and their visible marks) and, if one is
/// given, `target` — the rule's registered result as of `cache.at_seq` —
/// given the perspective-closed dirty set covering every event since
/// `cache.at_seq`, a sorted, distinct run (checked in debug builds), and
/// return the exact target edits. On error `target` is as it was (the
/// cache is not: drop it and re-seed).
/// The whole step is O(dirty-touched patterns), not O(context): clean
/// patterns are never scanned, copied, re-checked, or re-counted. The
/// caller must ensure that every change to the rule's derived sources
/// since `at_seq` is reflected in `dirty`.
pub fn delta_apply(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    mut target: Option<&mut Subdatabase>,
    dirty: &[Oid],
) -> Result<DeltaOutcome, RuleError> {
    debug_assert!(dirty.is_sorted_by(|a, b| a < b), "a dirty set is a sorted, distinct run");
    let plan = plan_for(rule);
    let mut sp = obs::trace::span("rules.rule");
    sp.label(|| rule.name.clone());
    sp.attr("delta", 1);
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.rule.delta_applications").inc();
    }
    cache.ensure_posting();
    let mut stats = StepStats::default();
    let out = if plan == MaintainPlan::Closure {
        delta_apply_closure(rule, db, registry, cache, target.as_deref_mut(), dirty, &mut stats)?
    } else {
        delta_apply_flat(db, registry, cache, target.as_deref_mut(), dirty, &mut stats)?
    };
    cache.at_seq = db.seq();
    sp.attr("delta_rows", stats.delta_rows as i64);
    sp.attr("dropped", stats.dropped as i64);
    sp.attr("groups_touched", stats.groups_touched as i64);
    sp.attr("ctx_rows", cache.filter.post.as_ref().unwrap_or(&cache.ctx_pre).len() as i64);
    if let Some(target) = target {
        sp.attr("target_rows", target.len() as i64);
    }
    Ok(out)
}

/// The non-closure delta step: semi-naive restricted re-join around the
/// dirty patterns (stages 1–2), then the shared WHERE/target refresh.
fn delta_apply_flat(
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    target: Option<&mut Subdatabase>,
    dirty: &[Oid],
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
    // of a dirty-bound row, sorted once with the dirty run.
    let width = cache.ctx_pre.intension.width();
    let full_rows_only = cache.resolved.spans.as_slice() == [(0, width)];
    let rebind: Cow<[Oid]> = if full_rows_only {
        Cow::Borrowed(dirty)
    } else {
        let cells = || bound.iter().flat_map(|p| p.components().iter().flatten().copied());
        let mut wide = Vec::with_capacity(dirty.len() + cells().count());
        wide.extend_from_slice(dirty);
        wide.extend(cells());
        wide.sort_unstable();
        wide.dedup();
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
            let posting = cache.posting.as_ref().expect("built by ensure_posting");
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
///    cached (or just became roots) are recomputed in one batched join,
///    diffed edge-by-edge into the inverse relation. A successor is always
///    a root, so every list still names only roots and no node needs a
///    list of its own beyond the one it has as a root.
/// 3. *Dropped roots*: each one's list and its inverse edges leave the
///    provenance. No list names a dropped root, so nothing else goes.
/// 4. *Re-derivation*: a chain changes only if some node on it changed
///    its list, and the chain's prefix up to the first such node consists
///    of unchanged edges — so reverse reachability over the *updated*
///    predecessor map from the changed nodes, intersected with the root
///    set (plus added/dropped roots), is exactly the set of roots whose
///    chains must be re-run. Their old chains are dropped, the DFS re-runs
///    from them alone, and the edits flow through the shared WHERE/target
///    refresh. Retained chains touching a dirty object re-check their
///    WHERE-prefix verdict (attributes may have flipped).
/// 5. *Width*: if the longest chain changed length, the cache and the
///    target are re-shaped in place ([`RuleCache::reshape`]) — widened
///    before the patch step, narrowed after it — and the outcome says so
///    ([`DeltaOutcome::reshape`]); its edits are the patch step's alone.
///
/// Every step counts `rules.maintain.closure_delta`.
fn delta_apply_closure(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
    cache: &mut RuleCache,
    mut target: Option<&mut Subdatabase>,
    dirty: &[Oid],
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

    // 2. Recompute the affected successor lists of the current roots.
    let mut recompute = ev.closure_affected(dirty);
    recompute.retain(|&o| cc.is_root(o));
    let lists = ev.closure_succ_batch(&recompute);
    let (mut seeds, mut edits) = (Vec::new(), Vec::new());
    let mut at = 0;
    for &node in &recompute {
        let start = at;
        while at < lists.len() && lists.row(at).get(0) == Some(node) {
            at += 1;
        }
        let new = (start..at).map(|i| second(lists.row(i)));
        if cc.apply_list(node, new, &mut edits) {
            seeds.push(node);
        }
    }

    // 3. Dropped roots leave the provenance.
    for &o in &root_drops {
        cc.apply_list(o, std::iter::empty(), &mut edits);
    }
    debug_assert!(
        cc.succ.iter().all(|r| cc.is_root(r.get(0).unwrap()) && cc.is_root(second(r))),
        "only roots have lists, and every list names only roots"
    );

    // 4. Roots whose chains must be re-derived: reverse reachability from
    //    the changed nodes, plus explicit root adds (an unchanged node that
    //    became a root seeds new chains without any list edit). A node that
    //    is reached has a list, so it is a root: one mark per root records
    //    it, and the marked roots come out ascending.
    let marks = if seeds.is_empty() && root_adds.is_empty() { 0 } else { cc.roots.len() };
    let mut redo = vec![false; marks];
    let root_at = |o: Oid| cc.roots.binary_search(&o).expect("a node with a list is a root");
    for &o in &seeds {
        redo[root_at(o)] = true;
    }
    let mut queue: Vec<Oid> = seeds;
    while let Some(o) = queue.pop() {
        for (r, _) in cc.pred.head_range(Some(o)) {
            let i = root_at(second(r));
            if !redo[i] {
                redo[i] = true;
                queue.push(second(r));
            }
        }
    }
    for &o in &root_adds {
        redo[root_at(o)] = true;
    }
    let redo_roots: Vec<Oid> =
        cc.roots.iter().zip(&redo).filter_map(|(&o, &redo)| redo.then_some(o)).collect();
    let mut drop_roots: Vec<Oid> = redo_roots.iter().chain(&root_drops).copied().collect();
    drop_roots.sort_unstable();
    drop_roots.dedup();

    // The chain lengths lose the cached chains of redo and dropped roots
    // and gain the re-derived ones; the longest is the new width.
    let new_chains = ev.closure_chains(&redo_roots, &cc.succ, &mut cc.walk);
    stats.delta_rows = new_chains.len();
    cc.count_chains(new_chains.iter().map(<[Oid]>::len), true);
    cc.count_chains(chains_of(&cache.ctx_pre, &drop_roots).map(Row::arity), false);
    let new_width = cc.width();

    // 5. Width: if the longest chain changed length, the result intension
    //    gains or loses levels. The filter is re-bound to the new intension
    //    first, so a failure leaves `target` as it was; the cache and the
    //    target are re-shaped before the patch step on a widening, after it
    //    on a narrowing, so the patch runs in the wider of the two shapes.
    let width = cache.ctx_pre.intension.width();
    let reshape = (new_width != width).then_some((width, new_width));
    let int = reshape.map(|_| ev.closure_intension(new_width));
    let bind = |int: Intension| Filter::new(rule, &cache.ctx_pre.name, &int, db).map(|f| (f, int));
    let mut next = int.map(bind).transpose()?;
    if reshape.is_some_and(|(from, to)| to > from) {
        let (filter, int) = next.take().expect("bound above");
        cache.reshape(int, filter, target.as_deref_mut());
    }
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.maintain.closure_delta").inc();
    }
    // Each chain as a Null-padded row. Re-derived chains that came back
    // identical net out (a redo root whose subtree was mostly intact) —
    // they are cancelled before the caches are touched, so the
    // WHERE/target stage sees only real edits. The old chains are counted
    // first to size their run.
    let width = cache.ctx_pre.intension.width();
    let mut dropped = RowRun::with_capacity(width, chains_of(&cache.ctx_pre, &drop_roots).count());
    for p in chains_of(&cache.ctx_pre, &drop_roots) {
        dropped.push(p.components());
    }
    stats.dropped = dropped.len();
    let mut added = RowRun::with_capacity(width, new_chains.len());
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
    let mut out = cache.refresh(target.as_deref_mut(), db, dropped, added, kept, stats);
    if let Some((filter, int)) = next {
        cache.reshape(int, filter, target);
    }
    out.reshape = reshape;
    Ok(out)
}

/// The cached chains of `roots`, ascending roots: one head range of the
/// ordered context each.
fn chains_of<'a>(ctx: &'a Subdatabase, roots: &'a [Oid]) -> impl Iterator<Item = Row<'a>> + 'a {
    roots.iter().flat_map(|&root| ctx.head_range(Some(root)))
}

/// Count-maintained target update: adjust derivation counts by the
/// post-WHERE edits, then mark visible exactly the maximal live keys — the
/// target — by the keys whose count crossed zero, and write the edits into
/// `target`, the registered entry, if one is given. Births run before
/// deaths so a death's resurrection scan sees the final cover.
///
/// The part-of relation pins every bound slot of the part — slot 0
/// included — so a cover, eviction, or resurrection scan can only ever
/// match keys whose head equals the key's head (or is unbound). The counts
/// are ordered, so those are head ranges, walked in place: family-projected
/// closure targets hold thousands of mostly-partial chain patterns, and
/// full scans would dominate the step.
fn count_target(
    slots: &[Option<usize>],
    counts: &mut RowCounts,
    target: Option<&mut Subdatabase>,
    removed: &RowRun,
    added: &RowRun,
) -> DeltaOutcome {
    let w = slots.len();
    let (mut inserted, mut gone) = (RowRun::new(w), RowRun::new(w));
    // Each edit is projected into one reused key.
    let mut key: Vec<Option<Oid>> = Vec::with_capacity(slots.len());
    let project_into = |p: Row<'_>, key: &mut Vec<Option<Oid>>| {
        key.clear();
        key.extend(project(p.components(), slots));
    };
    // Removals first. A key whose count reaches zero stays in the counts,
    // at zero and as visible as it was, until the additions are in: a key
    // that dies and is re-born in the same step nets out by its count alone.
    for p in removed.iter() {
        project_into(p, &mut key);
        counts.decrement(&key);
    }
    // Additions. A key new to the counts is a birth, shown at once: a
    // covered key stays hidden, and an uncovered one hides the visible keys
    // it strictly covers. A key that projects nothing (all Null) is never
    // counted.
    for p in added.iter() {
        project_into(p, &mut key);
        if is_null(&key) || !counts.increment(&key) {
            continue;
        }
        if is_partial(&key) && covered(counts, &key) {
            continue;
        }
        let first = gone.len();
        for h in part_heads(&key) {
            for (q, c) in counts.head_range(h) {
                if shown(c) && q.is_part_of(&key) {
                    gone.push(q.components());
                }
            }
        }
        for i in first..gone.len() {
            counts.set_visible(gone.row(i).components(), false);
        }
        counts.set_visible(&key, true);
        inserted.push(&key);
    }
    // Deaths, after every birth, so that a resurrection scan sees the final
    // cover: each key still at zero leaves the counts, and the target if it
    // was visible.
    let mut hidden = false;
    for p in removed.iter() {
        project_into(p, &mut key);
        let Some(c) = counts.get(&key).filter(|c| c & !RowCounts::VISIBLE == 0) else {
            continue;
        };
        counts.remove(&key);
        if !shown(c) {
            continue; // was covered by a live key: nothing visible changed
        }
        // Show the maximal live keys the dead key was covering (strictly
        // part of it, hence partial): those no other of them covers. Keys
        // still at zero die in this loop too. The cheap tests go first: the
        // cover walk is a head range. The others leave `inserted` below.
        let first = inserted.len();
        for h in part_heads(&key) {
            for (k, c) in counts.head_range(h) {
                let live = c & !RowCounts::VISIBLE > 0;
                if live && !shown(c) && k.is_part_of(&key) && !covered(counts, k.components()) {
                    inserted.push(k.components());
                }
            }
        }
        for i in first..inserted.len() {
            let k = inserted.row(i);
            let maximal = !(first..inserted.len()).any(|j| k.is_part_of(inserted.row(j)));
            counts.set_visible(k.components(), maximal);
            hidden |= !maximal;
        }
        gone.push(&key);
    }
    inserted.sort();
    gone.sort();
    // A key born and then evicted is in both runs, and no edit.
    let (removed, mut inserted, _) = gone.split_common(inserted);
    if hidden {
        inserted.retain(|k| counts.is_visible(k.components()));
    }
    if let Some(target) = target {
        for p in removed.iter() {
            target.remove(p);
        }
        for p in inserted.iter() {
            target.insert(p);
        }
    }
    DeltaOutcome { inserted, removed, reshape: None }
}

/// Whether a count lane value marks its key visible.
fn shown(c: u32) -> bool {
    c & RowCounts::VISIBLE != 0
}

/// The target stage of the seed step, from empty counts into an empty
/// target. The post-WHERE rows, `n` of them as `rows` yields them, are
/// projected onto keys and run-length counted into the counts; the target
/// is built in bulk from the same sorted distinct keys and cut to the
/// maximal ones, where births one at a time would take a cover and
/// eviction scan per key, and then marked visible in the counts by one
/// merge walk. Keys that come ascending — an order-preserving projection
/// of the sorted rows — are counted straight from the rows; others are
/// projected into one run, which is sorted first.
fn count_from_empty<'r, I: Iterator<Item = Row<'r>>>(
    slots: &[Option<usize>],
    counts: &mut RowCounts,
    target: &mut Subdatabase,
    n: usize,
    rows: impl Fn() -> I,
) {
    debug_assert!(counts.is_empty() && target.is_empty(), "the seed step starts from empty");
    let key = |p: Row<'r>| project(p.components(), slots);
    let keyed = || rows().filter(|p| key(*p).any(|c| c.is_some()));
    let steps = || keyed().zip(keyed().skip(1)).map(|(a, b)| key(a).cmp(key(b)));
    if steps().all(Ordering::is_le) {
        let distinct =
            steps().filter(|o| o.is_lt()).count() + usize::from(keyed().next().is_some());
        let mut keyed = keyed().peekable();
        counts.build(distinct, |cells| {
            let first = keyed.next().expect("one key per distinct key");
            for (cell, c) in cells.iter_mut().zip(key(first)) {
                *cell = c;
            }
            let mut count = 1;
            while keyed.next_if(|p| key(*p).eq(cells.iter().copied())).is_some() {
                count += 1;
            }
            count
        });
    } else {
        let mut keys = RowRun::with_capacity(slots.len(), n);
        for p in keyed() {
            keys.push_with(|cells| {
                for (cell, c) in cells.iter_mut().zip(key(p)) {
                    *cell = c;
                }
            });
        }
        counts.set_counted(&mut keys);
    }
    let mut keys = counts.entries();
    target.set_sorted_rows(counts.len(), |row| {
        row.copy_from_slice(keys.next().expect("one key per row").0.components());
    });
    target.retain_maximal();
    counts.mark_visible(target.patterns());
}

/// Whether `key` is strictly part of any visible key.
fn covered(counts: &RowCounts, key: &[Option<Oid>]) -> bool {
    let cover = |(q, c): (Row<'_>, u32)| shown(c) && is_part(key, q.components());
    match key[0] {
        Some(h) => counts.head_range(Some(h)).any(cover),
        None => counts.entries().any(cover),
    }
}

/// Whether a key projects nothing: every cell Null.
fn is_null(key: &[Option<Oid>]) -> bool {
    key.iter().all(Option::is_none)
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

    fn dirty_since(db: &Database, mark: u64) -> Vec<Oid> {
        dirty_closure(db, db.events().since(mark))
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
        use dood_core::subdb::{ExtPattern, Intension, SlotDef};
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
            let out = delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty).unwrap();
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
            delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty).unwrap();
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
        delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty_since(&db, mark))
            .unwrap();
        let full = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(target.to_vec(), full.to_vec());
        assert!(target.patterns().all(|p| p.components().iter().flatten().all(|&o| o != avec[1])));
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
        let one = delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty).unwrap();
        assert!(target.patterns().any(|p| p.get(0) == Some(avec[0])), "count 2→1 kept");
        assert!(one.inserted.is_empty() && one.removed.is_empty(), "count 2→1 is invisible");

        let mark = db.seq();
        db.dissociate(link, avec[0], bvec[1]).unwrap();
        let dirty = dirty_since(&db, mark);
        let zero = delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty).unwrap();
        assert!(target.patterns().all(|p| p.get(0) != Some(avec[0])), "count 1→0 dies");
        assert!(zero.removed.iter().any(|p| p.get(0) == Some(avec[0])));
        assert_eq!(target.to_vec(), apply_rule(&rule, &db, &reg).unwrap().to_vec());
    }

    /// `count_target` against a model that shares no code with the row
    /// stores: the context rows present as a `BTreeSet`, the counts as a
    /// `BTreeMap`, the target as the maximal keys found by brute force. A
    /// seed through `count_from_empty`, then random runs of removals and
    /// additions over partial keys (a row can leave and come back in one
    /// run); after every run the counts, their visible marks, the returned
    /// edits and the written entry must match the model.
    #[test]
    fn count_target_matches_a_model() {
        use dood_core::propcheck::{check, Gen};
        use dood_core::subdb::SlotDef;
        use std::collections::{BTreeMap, BTreeSet};
        type Cells = Vec<Option<Oid>>;
        fn maximal(counts: &BTreeMap<Cells, u32>) -> BTreeSet<Cells> {
            let part = |a: &Cells, b: &Cells| {
                a != b && a.iter().zip(b).all(|(x, y)| x.is_none() || x == y)
            };
            counts.keys().filter(|k| !counts.keys().any(|q| part(k, q))).cloned().collect()
        }
        fn run_of(rows: &BTreeSet<Cells>, width: usize) -> RowRun {
            let mut run = RowRun::new(width);
            rows.iter().for_each(|r| run.push(r));
            run.sort();
            run
        }
        let set = |run: &RowRun| -> BTreeSet<Cells> {
            run.iter().map(|r| r.components().to_vec()).collect()
        };
        check("count_target_matches_a_model", 64, |g| {
            // Context rows are four cells wide, and the key is three of them,
            // so several rows derive one key; a permuted key comes unsorted.
            let slots =
                if g.bool(0.5) { [Some(0), Some(1), Some(2)] } else { [Some(2), Some(0), Some(1)] };
            let row = |g: &mut Gen| -> Cells {
                let mut cell = || g.bool(0.7).then(|| Oid::from_raw(g.range(1..4u64)));
                vec![cell(), cell(), cell(), Some(Oid::from_raw(1 + u64::from(g.bool(0.5))))]
            };
            let model = |present: &BTreeSet<Cells>| {
                let mut counts: BTreeMap<Cells, u32> = BTreeMap::new();
                for r in present {
                    let key: Cells = slots.iter().map(|s| s.and_then(|i| r[i])).collect();
                    if key.iter().any(Option::is_some) {
                        *counts.entry(key).or_default() += 1;
                    }
                }
                counts
            };
            let cls = dood_core::ids::ClassId(0);
            let int = Intension::new(["A", "B", "C"].map(|n| SlotDef::base(n, cls)).to_vec());
            let mut target = Subdatabase::new("T", int);
            let mut counts = RowCounts::new(3);
            let mut present: BTreeSet<Cells> = (0..g.range(0..12usize)).map(|_| row(g)).collect();
            let seed = run_of(&present, 4);
            count_from_empty(&slots, &mut counts, &mut target, seed.len(), || seed.iter());
            for _ in 0..g.range(1..10usize) {
                let before = maximal(&model(&present));
                let gone: BTreeSet<Cells> =
                    present.iter().filter(|_| g.bool(0.3)).cloned().collect();
                present.retain(|r| !gone.contains(r));
                let mut came: BTreeSet<Cells> = (0..g.range(0..6usize)).map(|_| row(g)).collect();
                came.extend(gone.iter().filter(|_| g.bool(0.3)).cloned());
                came.retain(|r| !present.contains(r));
                present.extend(came.iter().cloned());
                let out = count_target(
                    &slots,
                    &mut counts,
                    Some(&mut target),
                    &run_of(&gone, 4),
                    &run_of(&came, 4),
                );
                let want = model(&present);
                let after = maximal(&want);
                let kept: BTreeMap<Cells, u32> = counts
                    .entries()
                    .map(|(k, c)| (k.components().to_vec(), c & !RowCounts::VISIBLE))
                    .collect();
                assert_eq!(kept, want, "counts");
                let shown: BTreeSet<Cells> = counts
                    .entries()
                    .filter(|&(_, c)| shown(c))
                    .map(|(k, _)| k.components().to_vec())
                    .collect();
                assert_eq!(shown, after, "visible marks");
                let wrote: BTreeSet<Cells> =
                    target.patterns().map(|p| p.components().to_vec()).collect();
                assert_eq!(wrote, after, "written entry");
                assert_eq!(set(&out.inserted), &after - &before, "inserted edits");
                assert_eq!(set(&out.removed), &before - &after, "removed edits");
            }
        });
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
    /// edits replay exactly, a change of width included: the replayed copy
    /// gains its Null levels before the edits and loses them after.
    #[test]
    fn closure_delta_matches_full_after_updates() {
        let mut reshapes = Vec::new();
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
            let mut step = |db: &Database, mark: u64, what: &str| {
                let mut mirror = target.clone();
                let dirty = dirty_since(db, mark);
                let out =
                    delta_apply(&rule, db, &reg, &mut cache, Some(&mut target), &dirty).unwrap();
                let full = apply_rule(&rule, db, &reg).unwrap();
                assert_eq!(target.to_vec(), full.to_vec(), "{what} step diverged for `{src}`");
                let widen = |mirror: &mut Subdatabase| {
                    let from = mirror.intension.width();
                    let cols = (0..full.intension.width()).map(|i| (i < from).then_some(i));
                    mirror.reshape(full.intension.clone(), &cols.collect::<Vec<_>>());
                };
                if out.reshape.is_some_and(|(from, to)| to > from) {
                    widen(&mut mirror);
                }
                for p in out.removed.iter() {
                    assert!(mirror.remove(p), "removed edit not present for `{src}`");
                }
                for p in out.inserted.iter() {
                    mirror.insert(p);
                }
                if out.reshape.is_some_and(|(from, to)| to < from) {
                    widen(&mut mirror);
                }
                assert_eq!(mirror.to_vec(), full.to_vec(), "{what} edits diverged for `{src}`");
                out.reshape
            };

            // A batch that extends the longest chain, forks a branch, and
            // flips an attribute.
            let mark = db.seq();
            let n5 = db.new_object(n_cls).unwrap();
            db.set_attr(n5, "v", Value::Int(5)).unwrap();
            db.associate(next, ns[4], n5).unwrap();
            db.associate(next, ns[1], ns[3]).unwrap();
            db.set_attr(ns[2], "v", Value::Int(99)).unwrap();
            reshapes.extend(step(&db, mark, "insert"));

            // Deletion batch: cut the chain and delete a mid node.
            let mark = db.seq();
            db.dissociate(next, ns[4], n5).unwrap();
            db.delete_object(ns[3]).unwrap();
            reshapes.extend(step(&db, mark, "delete"));

            // Cycle creation: n2 → n0 closes a loop.
            let mark = db.seq();
            db.associate(next, ns[2], ns[0]).unwrap();
            reshapes.extend(step(&db, mark, "cycle"));
        }
        assert!(reshapes.iter().any(|(from, to)| to > from), "a step widens: {reshapes:?}");
        assert!(reshapes.iter().any(|(from, to)| to < from), "a step narrows: {reshapes:?}");
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
        delta_apply(&rule, &db, &reg, &mut cache, Some(&mut target), &dirty_since(&db, mark))
            .unwrap();
        let full = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(target.to_vec(), full.to_vec());
        assert_eq!(cache.ctx_pre.intension.width(), 5, "width must not have changed");
        // Untouched chains' provenance survives: ns[0] still reaches ns[1].
        assert!(cache.closure.as_ref().unwrap().succ.contains(&[Some(ns[0]), Some(ns[1])]));
    }

    #[test]
    fn dirty_closure_includes_perspectives() {
        let mut b = SchemaBuilder::new();
        b.e_class("Person");
        b.e_class("Student");
        b.generalize("Person", "Student");
        b.d_class("v", DType::Int);
        b.attr("Person", "v");
        let mut db = Database::new(b.build().unwrap());
        let person = db.schema().class_by_name("Person").unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let p = db.new_object(person).unwrap();
        let st = db.specialize(p, student).unwrap();
        let mark = db.seq();
        db.set_attr(p, "v", Value::Int(1)).unwrap();
        db.set_attr(p, "v", Value::Int(2)).unwrap();
        let mut want = vec![p, st];
        want.sort_unstable();
        assert_eq!(dirty_since(&db, mark), want, "sorted, distinct, both perspectives");
    }
}
