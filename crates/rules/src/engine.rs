//! The deductive engine: rule registration, backward and forward chaining,
//! and the **result-oriented control strategy** of paper §6.
//!
//! Two control modes are implemented:
//!
//! * [`ControlMode::ResultOriented`] (the paper's contribution): each
//!   *derived subdatabase* is declared pre-evaluated (materialized and
//!   forward-maintained on every update) or post-evaluated (computed on
//!   demand when a query needs it). "The same rule may follow the forward
//!   or backward chaining strategy depending on whether the derived
//!   subdatabase is to be pre- or post-evaluated."
//! * [`ControlMode::RuleOriented`] (the POSTGRES strategy the paper
//!   critiques): each *rule* is fixed forward or backward. A forward rule
//!   reading backward-derived data silently consumes a stale or missing
//!   copy, so downstream pre-computed results can become inconsistent with
//!   the base data — reproduced by the `Ra…Rd` scenario tests.
//!
//! Forward chaining steps every affected rule cache over one dirty set:
//! the objects the update batch touched, closed over the identity links,
//! as a sorted, distinct `Vec<Oid>` lent to each step as `&[Oid]`. Every
//! commit that changes a result merges the oids of its edits, closed the
//! same way, into that run (extend, stable sort, dedup), so a later
//! stratum's steps see the derived changes; a cache that sat out earlier
//! propagates, or a read's catch-up, merges the events it missed into a
//! rule-local run.

use crate::ast::Rule;
use crate::depgraph::DepGraph;
use crate::derive::{apply_rule, layouts_compatible};
use crate::error::RuleError;
use crate::maintain::{
    audit_cache, delta_apply, dirty_closure, first_diff, seed_cache, DeltaOutcome, RuleCache,
};
use crate::parser::parse_rule;
use crate::program::Program;
use dood_core::diag::Diagnostic;
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::{ClassId, Oid};
use dood_core::obs;
use dood_core::obs::profile::Profile;
use dood_core::subdb::{RegistryEntry, Row, RowRun, Subdatabase, SubdbRegistry};
use dood_oql::ast::{ClassRef, Query, SelectItem, WhereCond};
use dood_oql::{Oql, QueryOutput};
use dood_store::{Database, SubscriberId};
use std::borrow::Cow;
use std::sync::Arc;

/// Per-result evaluation policy (result-oriented control, paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalPolicy {
    /// Materialized and kept up to date by forward chaining.
    PreEvaluated,
    /// Computed on demand by backward chaining; an update leaves it stale
    /// until a read catches it up.
    PostEvaluated,
}

/// Per-rule chaining strategy (rule-oriented control, POSTGRES-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStrategy {
    /// Re-run when read data changes; result materialized.
    Forward,
    /// Run when the derived data is requested; result not preserved.
    Backward,
}

/// Which control strategy governs chaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMode {
    /// The paper's result-oriented strategy.
    ResultOriented,
    /// The POSTGRES rule-oriented strategy (for comparison).
    RuleOriented,
}

/// One subdatabase's maintenance state, pulled out of the engine for a
/// stratum step or a catch-up: its rules' delta caches, each with its
/// rule's index, and its registry entry, stale or not. A rule's target is
/// the visible keys of its cache's derivation counts, so the entry is the
/// result's one copy, a single rule's target or the union of a union's
/// (R4/R5). The step mutates all of it in place; `put_back` drains it back.
/// Caches are boxed, in the engine too, so a rule that never derives costs
/// its slot a pointer.
struct MaintainState {
    caches: Vec<(usize, Box<RuleCache>)>,
    entry: Option<RegistryEntry>,
}

/// The value under `rule` in a list of per-rule state.
fn of_rule<T>(list: &mut [(usize, T)], rule: usize) -> Option<&mut T> {
    list.iter_mut().find(|(i, _)| *i == rule).map(|(_, v)| v)
}

/// What maintaining one subdatabase produced, for the commit: the refreshed
/// entry, its epochs still those of its last change, and the content
/// change, if any, as the component oids of its delta — `Some(None)` when
/// no before-image existed, so readers must re-seed.
struct Maintained {
    entry: RegistryEntry,
    change: Option<Option<Vec<Oid>>>,
}

impl Maintained {
    /// `entry` after in-place edits: `edits` are the patterns added or
    /// removed. Their oids are gathered into one exact-sized vector, then
    /// sorted and deduplicated.
    fn edited<'a>(entry: RegistryEntry, edits: impl Iterator<Item = Row<'a>> + Clone) -> Self {
        let oids = || edits.clone().flat_map(|p| p.components().iter().flatten().copied());
        let mut diff: Vec<Oid> = Vec::with_capacity(oids().count());
        diff.extend(oids());
        diff.sort_unstable();
        diff.dedup();
        let change = (!diff.is_empty()).then_some(Some(diff));
        Maintained { entry, change }
    }

    /// A whole new result in place of `old`.
    fn replaced(old: Option<RegistryEntry>, subdb: Subdatabase) -> Self {
        let Some(old) = old else {
            let (derived_at, changed_at, changed_before, stale) = (0, 0, 0, false);
            let entry = RegistryEntry { subdb, derived_at, changed_at, changed_before, stale };
            return Maintained { entry, change: Some(None) };
        };
        let change = (!old.subdb.patterns().eq(subdb.patterns()))
            .then(|| Some(old.subdb.diff_components(&subdb)));
        Maintained { entry: RegistryEntry { subdb, ..old }, change }
    }
}

/// The deductive object-oriented database engine: an object store, a rule
/// set, the registry of derived subdatabases, and OQL.
pub struct RuleEngine {
    db: Database,
    oql: Oql,
    rules: Vec<Rule>,
    /// Shared so that a loop over its strata, order or dependency lists
    /// can hold a handle while it mutates the engine.
    graph: Arc<DepGraph>,
    registry: SubdbRegistry,
    policies: FxHashMap<String, EvalPolicy>,
    strategies: FxHashMap<String, ChainStrategy>,
    mode: ControlMode,
    /// Event-log watermark up to which forward chaining has run.
    watermark: u64,
    /// Per rule: the base classes its IF clause reads (hierarchy-closed).
    base_reads: Vec<FxHashSet<ClassId>>,
    /// Per-rule maintenance caches (context, WHERE verdicts, derivation
    /// counts), indexed as `rules`: rules are only ever appended, so an
    /// index names one rule for the engine's lifetime.
    caches: Vec<Option<Box<RuleCache>>>,
    /// Monotone count of registry commits that changed a result's content.
    /// Entries record the epoch of their last change and caches the epoch
    /// they last stepped at, so a cache can tell whether a source moved
    /// since. The store's sequence number cannot tell: a cache stepped by a
    /// read between updates and `propagate`, and a source that propagate
    /// then commits, reflect the same one.
    epoch: u64,
    /// Treat analyzer warnings as fatal in [`RuleEngine::register`].
    strict: bool,
    /// Dirty objects of the update batch being propagated, when any, as a
    /// sorted, distinct run. Grows as maintained subdatabases commit
    /// content diffs.
    current_dirty: Option<Vec<Oid>>,
    /// Event-log watermark the current dirty set starts from: a rule cache
    /// at `at_seq >= dirty_from` can be delta-advanced by `current_dirty`.
    dirty_from: u64,
    /// Engine epoch the current dirty set starts from: the content deltas
    /// of the commits after it are in `current_dirty`.
    dirty_epoch: u64,
    /// Forward targets skipped by the last effective propagate because a
    /// backward-derived source was absent (rule-oriented mode) — these are
    /// now silently stale, per the paper's POSTGRES critique.
    stale_skips: Vec<String>,
    /// The engine's subscription in the store's event log: acknowledged up
    /// to the forward-chaining watermark, so log compaction never drops an
    /// unconsumed event and `doodprof --metrics` can report engine lag.
    events_sub: SubscriberId,
}

impl RuleEngine {
    /// Wrap a database with an empty rule set (result-oriented mode;
    /// results default to post-evaluated).
    pub fn new(mut db: Database) -> Self {
        // Events logged before the engine exists (population) are base
        // facts, not updates to propagate.
        let watermark = db.seq();
        let events_sub = db.events_mut().subscribe("rules.engine");
        RuleEngine {
            db,
            oql: Oql::new(),
            rules: Vec::new(),
            graph: Arc::default(),
            registry: SubdbRegistry::new(),
            policies: FxHashMap::default(),
            strategies: FxHashMap::default(),
            mode: ControlMode::ResultOriented,
            watermark,
            base_reads: Vec::new(),
            caches: Vec::new(),
            epoch: 0,
            current_dirty: None,
            dirty_from: watermark,
            dirty_epoch: 0,
            stale_skips: Vec::new(),
            strict: false,
            events_sub,
        }
    }

    /// Forward targets the last effective propagate left silently stale
    /// because a backward-derived source was absent (rule-oriented mode
    /// only — the inconsistency the paper's §6 critique predicts).
    pub fn stale_skips(&self) -> &[String] {
        &self.stale_skips
    }

    /// Static strategy diagnostics for the registered rules under the
    /// current rule-oriented strategy assignment — currently W105: a
    /// forward rule reading a backward-derived source.
    pub fn strategy_diagnostics(&self) -> Vec<Diagnostic> {
        crate::analyze::lint_forward_reads_backward(&self.rules, &self.graph, &self.strategies)
    }

    /// Read access to the store.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the store. After mutating, call
    /// [`RuleEngine::propagate`] to run forward chaining.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The derived-subdatabase registry.
    pub fn registry(&self) -> &SubdbRegistry {
        &self.registry
    }

    /// The OQL engine (to register user-defined operations).
    pub fn oql_mut(&mut self) -> &mut Oql {
        &mut self.oql
    }

    /// The registered rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Switch control mode.
    pub fn set_mode(&mut self, mode: ControlMode) {
        self.mode = mode;
    }

    /// Declare a derived subdatabase pre- or post-evaluated
    /// (result-oriented mode). Default: post-evaluated.
    pub fn set_policy(&mut self, subdb: impl Into<String>, policy: EvalPolicy) {
        self.policies.insert(subdb.into(), policy);
    }

    /// Fix a rule's chaining strategy (rule-oriented mode). Default:
    /// backward.
    pub fn set_strategy(&mut self, rule: impl Into<String>, strategy: ChainStrategy) {
        self.strategies.insert(rule.into(), strategy);
    }

    fn policy(&self, subdb: &str) -> EvalPolicy {
        self.policies.get(subdb).copied().unwrap_or(EvalPolicy::PostEvaluated)
    }

    /// The chaining strategy governing a subdatabase in rule-oriented mode:
    /// the strategy of its (first) deriving rule.
    fn subdb_strategy(&self, subdb: &str) -> ChainStrategy {
        self.graph
            .rules_for(subdb)
            .first()
            .map(|&i| {
                self.strategies
                    .get(&self.rules[i].name)
                    .copied()
                    .unwrap_or(ChainStrategy::Backward)
            })
            .unwrap_or(ChainStrategy::Backward)
    }

    /// Register a rule from source text. This is the *unchecked* path: the
    /// rule is parsed and the dependency graph kept acyclic, but no static
    /// analysis runs (resolution errors surface at derivation time). Use
    /// [`RuleEngine::register`] for the analyzed path.
    pub fn add_rule(&mut self, name: &str, src: &str) -> Result<(), RuleError> {
        let rule = parse_rule(name, src)?;
        self.add_rules([rule])
    }

    /// Append rules, then build the dependency graph once and reject a
    /// duplicate name or a cyclic rule set eagerly. All or nothing: on
    /// error the rules, their base reads and the graph are as they were.
    fn add_rules(&mut self, rules: impl IntoIterator<Item = Rule>) -> Result<(), RuleError> {
        let before = self.rules.len();
        let pushed = rules.into_iter().try_for_each(|rule| {
            if self.rules.iter().any(|r| r.name == rule.name) {
                return Err(RuleError::DuplicateRule(rule.name));
            }
            self.base_reads.push(self.rule_base_reads(&rule));
            self.rules.push(rule);
            Ok(())
        });
        let graph = DepGraph::build(&self.rules);
        if let Err(e) = pushed.and_then(|()| graph.topo_order_ref().map(drop)) {
            self.rules.truncate(before);
            self.base_reads.truncate(before);
            return Err(e);
        }
        self.graph = Arc::new(graph);
        self.caches.resize_with(self.rules.len(), || None);
        Ok(())
    }

    /// Treat analyzer warnings as fatal in [`RuleEngine::register`].
    pub fn set_strict(&mut self, on: bool) {
        self.strict = on;
    }

    /// Register a whole rule program through the static analyzer
    /// ([`crate::analyze`]). Subdatabases already known to the engine —
    /// registered externally or derived by previously added rules — are
    /// legal sources for the program's rules.
    ///
    /// On success every rule of the program is added and the (non-fatal)
    /// diagnostics are returned. If the analyzer reports any error — or any
    /// warning under [`RuleEngine::set_strict`] — the program is rejected
    /// *before any rule is added*, so no derivation can ever run over an
    /// ill-typed, unsafe, or unstratifiable program. A program the analyzer
    /// passes but the registered rules make cyclic is rejected whole, too.
    pub fn register(&mut self, program: &Program) -> Result<Vec<Diagnostic>, RuleError> {
        let mut external: FxHashSet<String> =
            self.registry.names().into_iter().map(str::to_string).collect();
        for r in &self.rules {
            external.insert(r.target_subdb.clone());
        }
        let mut diags = crate::analyze::analyze(program, self.db.schema(), &external);
        for pr in &program.rules {
            if self.rules.iter().any(|r| r.name == pr.rule.name) {
                diags.push(
                    Diagnostic::error(
                        "E016",
                        format!("rule `{}` is already registered", pr.rule.name),
                    )
                    .with_span(pr.header, &program.source)
                    .with_owner(pr.rule.name.clone()),
                );
            }
        }
        dood_core::diag::sort(&mut diags);
        if dood_core::diag::has_errors(&diags) || (self.strict && !diags.is_empty()) {
            return Err(RuleError::Analysis(diags));
        }
        self.add_rules(program.rules.iter().map(|pr| pr.rule.clone()))?;
        Ok(diags)
    }

    /// Base classes a rule's IF clause reads, closed over the
    /// generalization hierarchy (an update to any perspective of an object
    /// can affect patterns observed through another perspective).
    fn rule_base_reads(&self, rule: &Rule) -> FxHashSet<ClassId> {
        let mut out = FxHashSet::default();
        let schema = self.db.schema();
        rule.context.seq.for_each_class(&mut |class| {
            if class.subdb.is_none() {
                let (family, lvl) = ClassRef::split_alias(&class.name);
                let id = schema.try_class_by_name(&class.name);
                out.extend(id.or_else(|| (lvl > 0).then(|| schema.try_class_by_name(family))?));
            }
        });
        // Hierarchy closure: ancestors and descendants.
        let mut closed = out.clone();
        for &c in &out {
            for (anc, _) in self.db.schema().ancestors(c) {
                closed.insert(anc);
            }
            // Descendants via BFS.
            let mut frontier = vec![c];
            while let Some(cur) = frontier.pop() {
                for &sub in self.db.schema().direct_subs(cur) {
                    if closed.insert(sub) {
                        frontier.push(sub);
                    }
                }
            }
        }
        closed
    }

    // ------------------------------------------------------------------
    // Backward chaining
    // ------------------------------------------------------------------

    /// Whether a derived subdatabase must be (re)computed before use: it is
    /// absent or stale, or it is computed on demand and the store has moved
    /// since it was.
    fn needs_derivation(&self, name: &str) -> bool {
        let on_demand = match self.mode {
            ControlMode::ResultOriented => self.policy(name) == EvalPolicy::PostEvaluated,
            ControlMode::RuleOriented => self.subdb_strategy(name) == ChainStrategy::Backward,
        };
        if on_demand {
            !self.registry.is_fresh(name, self.db.seq())
        } else {
            self.registry.subdb(name).is_none()
        }
    }

    /// Ensure `name` (and, recursively, its sources) is derived and fresh
    /// per the governing policy — the backward chaining entry point
    /// ("in order to derive May_teach, the subdatabase Suggest_offer …
    /// must be derived; this causes rule R2 … to be triggered").
    pub fn derive(&mut self, name: &str) -> Result<(), RuleError> {
        if !self.graph.is_derived(name) {
            if self.registry.subdb(name).is_some() {
                return Ok(());
            }
            return Err(RuleError::UnderivableSubdb(name.to_string()));
        }
        if !self.needs_derivation(name) {
            return Ok(());
        }
        let graph = Arc::clone(&self.graph);
        for dep in graph.deps_of(name) {
            if graph.is_derived(dep) {
                self.derive(dep)?;
            } else if self.registry.subdb(dep).is_none() {
                return Err(RuleError::UnderivableSubdb(dep.clone()));
            }
        }
        self.run_rules_for(name)
    }

    /// Bring `name` up to date from its kept copy and rule caches — the
    /// catch-up of a stale or out-of-date result, inside a propagate or on
    /// a read — and commit it.
    fn run_rules_for(&mut self, name: &str) -> Result<(), RuleError> {
        let mut state = self.take_state(name);
        // Lend the dirty set of a propagate under way, as the stratum loop
        // does.
        let dirty = self.current_dirty.take();
        let result = self.maintain_subdb(name, &mut state, dirty.as_deref());
        self.current_dirty = dirty;
        self.put_back(state, result)
    }

    /// Pull `name`'s maintenance state — its rules' caches and its entry,
    /// stale or not — out of the engine, so that a step can mutate it while
    /// the engine stays read-only.
    fn take_state(&mut self, name: &str) -> MaintainState {
        let idxs = self.graph.rules_for(name);
        let mut caches = Vec::with_capacity(idxs.len());
        for &i in idxs {
            caches.extend(self.caches[i].take().map(|c| (i, c)));
        }
        MaintainState { caches, entry: self.registry.take(name) }
    }

    /// Return a maintenance step's state to the engine. On success the
    /// caches go back and the result is committed. On error no
    /// cache goes back — one may have stepped past the entry — so the rules
    /// re-seed next time, and the entry is restored as it was, but stale:
    /// it no longer reflects the events the failed step consumed.
    fn put_back(
        &mut self,
        state: MaintainState,
        result: Result<Maintained, RuleError>,
    ) -> Result<(), RuleError> {
        let Maintained { mut entry, change } = match result {
            Ok(m) => m,
            Err(e) => {
                if let Some(mut entry) = state.entry {
                    entry.stale = true;
                    self.registry.insert(entry);
                }
                return Err(e);
            }
        };
        for (i, cache) in state.caches {
            self.caches[i] = Some(cache);
        }
        entry.derived_at = self.db.seq();
        entry.stale = false;
        if let Some(diff) = change {
            if obs::metrics_enabled() {
                obs::metrics::counter("rules.rederived").inc();
                obs::metrics::histogram("rules.delta_rows").record(entry.subdb.len() as u64);
            }
            self.epoch += 1;
            // A reader stepping later in this propagate gets the change
            // through the dirty set, if it was folded in; a reader that saw
            // the change before misses nothing then.
            let folded = self.fold_commit_delta(diff);
            entry.changed_before = if folded { entry.changed_at } else { self.epoch };
            entry.changed_at = self.epoch;
        } else if obs::metrics_enabled() {
            obs::metrics::counter("rules.maintain.unchanged").inc();
        }
        self.registry.insert(entry);
        Ok(())
    }

    /// Fold a committed content delta — the component oids of the patterns
    /// that came or went — into the running dirty set of the propagate under
    /// way (perspective-closed, merged into the sorted run), so downstream
    /// rules' delta steps see source-extent changes: aggregate verdict flips
    /// can add or drop target patterns whose components were never
    /// base-dirty. Returns whether the delta is in the dirty set: not
    /// outside a propagate, nor when it is unknown (no before-image).
    fn fold_commit_delta(&mut self, diff: Option<Vec<Oid>>) -> bool {
        match (self.current_dirty.as_mut(), diff) {
            (Some(dirty), Some(d)) => {
                if !d.is_empty() {
                    // Two ascending runs: the stable sort merges them.
                    dirty.extend(self.db.perspective_closure_set(d));
                    dirty.sort();
                    dirty.dedup();
                }
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Forward chaining
    // ------------------------------------------------------------------

    /// Consume new update events and run forward chaining per the current
    /// control mode. Returns the names of re-derived subdatabases.
    pub fn propagate(&mut self) -> Result<Vec<String>, RuleError> {
        let prev_watermark = self.watermark;
        let events = self.db.events().since(prev_watermark);
        let n_events = events.len();
        // Classes touched by the batch, and — for delta maintenance — the
        // objects, read off the borrowed log slice.
        let mut touched: FxHashSet<ClassId> = FxHashSet::default();
        for e in events {
            touched.extend(e.touched_classes(self.db.schema()));
        }
        if n_events > 0 {
            self.current_dirty = Some(dirty_closure(&self.db, events));
        }
        self.watermark = self.db.seq();
        self.db.events_mut().ack(self.events_sub, self.watermark);
        let mut sp = obs::trace::span("rules.propagate");
        sp.attr("events", n_events as i64);
        if obs::metrics_enabled() {
            obs::metrics::counter("rules.propagate.runs").inc();
        }
        if n_events == 0 {
            sp.attr("rederived", 0);
            return Ok(Vec::new());
        }
        let _acct = obs::account::begin("maintain", || format!("propagate events={n_events}"));
        self.stale_skips.clear();
        self.dirty_from = prev_watermark;
        self.dirty_epoch = self.epoch;
        // Dirty subdatabases: derived by a rule reading a touched class.
        let mut dirty: FxHashSet<String> = FxHashSet::default();
        for (i, rule) in self.rules.iter().enumerate() {
            if !self.base_reads[i].is_disjoint(&touched) {
                dirty.insert(rule.target_subdb.clone());
            }
        }
        let affected: FxHashSet<String> = {
            let mut a = self.graph.affected_by(&dirty);
            a.extend(dirty);
            a
        };
        let result = match self.mode {
            ControlMode::ResultOriented => self.propagate_result_oriented(&affected),
            ControlMode::RuleOriented => self.propagate_rule_oriented(&affected),
        };
        self.current_dirty = None;
        let rederived = result?;
        sp.attr("rederived", rederived.len() as i64);
        Ok(rederived)
    }

    /// Rule-oriented (POSTGRES-style) propagation, in topological order.
    fn propagate_rule_oriented(
        &mut self,
        affected: &FxHashSet<String>,
    ) -> Result<Vec<String>, RuleError> {
        let mut rederived = Vec::new();
        let graph = Arc::clone(&self.graph);
        for name in graph.topo_order_ref()? {
            if !affected.contains(name) {
                continue;
            }
            match self.subdb_strategy(name) {
                ChainStrategy::Forward => {
                    // POSTGRES restriction: a forward rule reads its
                    // sources *as materialized right now*. If a source is
                    // backward-derived (stale or absent), the rule cannot
                    // run and the target stays stale — recorded in
                    // `stale_skips` and the `rules.maintain.stale_skip`
                    // metric rather than silently dropped.
                    let sources_present =
                        graph.deps_of(name).iter().all(|d| self.registry.subdb(d).is_some());
                    if sources_present {
                        self.run_rules_for(name)?;
                        rederived.push(name.clone());
                    } else {
                        if !self.stale_skips.contains(name) {
                            self.stale_skips.push(name.clone());
                        }
                        if obs::metrics_enabled() {
                            obs::metrics::counter("rules.maintain.stale_skip").inc();
                        }
                    }
                }
                ChainStrategy::Backward => {
                    // Backward results are not kept current across updates:
                    // the next request catches them up.
                    self.registry.mark_stale(name);
                }
            }
        }
        Ok(rederived)
    }

    /// Result-oriented propagation: stratum-by-stratum semi-naive delta
    /// maintenance (DESIGN.md §9). Post-evaluated results go stale. Within
    /// a stratum, every pre-evaluated member is stepped against the same
    /// dirty set and the read-only store and registry, then all are
    /// committed in order; every commit's content delta feeds the dirty
    /// set of later strata.
    fn propagate_result_oriented(
        &mut self,
        affected: &FxHashSet<String>,
    ) -> Result<Vec<String>, RuleError> {
        let mut rederived: Vec<String> = Vec::new();
        let graph = Arc::clone(&self.graph);
        for (stratum_idx, stratum) in graph.strata_ref()?.iter().enumerate() {
            let mut ssp = obs::trace::span("rules.stratum");
            ssp.attr("index", stratum_idx as i64);
            let mut batch: Vec<String> = Vec::new();
            for name in stratum {
                if !affected.contains(name) {
                    continue;
                }
                match self.policy(name) {
                    // Forward-maintained by this stratum's step.
                    EvalPolicy::PreEvaluated => batch.push(name.clone()),
                    // Stale; the next read catches it up.
                    EvalPolicy::PostEvaluated => self.registry.mark_stale(name),
                }
            }
            if batch.is_empty() {
                continue;
            }
            // Ensure sources fresh, dependency-first: each catch-up folds
            // its content delta into the dirty set *before* any reader's
            // delta step runs.
            for dep in graph.transitive_deps(&batch)? {
                if self.needs_derivation(&dep) {
                    self.derive(&dep)?;
                }
            }
            ssp.attr("subdbs", batch.len() as i64);
            // Lend the dirty set to the steps (reinstalled below before the
            // commit loop extends it) instead of cloning per stratum.
            let dirty = self.current_dirty.take().unwrap_or_default();
            // Step every member before committing any, so all of them see
            // the same dirty set. Same-stratum members never read one
            // another (their sources live in strictly earlier strata), so
            // a member's entry being out of the registry is invisible to
            // the others' steps.
            let stepped: Vec<_> = batch
                .into_iter()
                .map(|name| {
                    let mut state = self.take_state(&name);
                    let result = self.maintain_subdb(&name, &mut state, Some(&dirty));
                    (name, state, result)
                })
                .collect();
            self.current_dirty = Some(dirty);
            let mut first_err: Option<RuleError> = None;
            for (name, state, result) in stepped {
                match self.put_back(state, result) {
                    Ok(()) => rederived.push(name),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
        }
        let order = graph.topo_order_ref()?;
        let pos: FxHashMap<&str, usize> =
            order.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        rederived.sort_unstable_by_key(|n| pos[n.as_str()]);
        Ok(rederived)
    }

    /// Refresh `name`'s maintenance state — delta where the caches allow,
    /// seeding otherwise — *without* touching the engine. `&self` stays
    /// read-only; all mutation lands in the taken-out `state`. Returns the
    /// refreshed result plus what the commit needs to know. `dirty` is the
    /// perspective-closed dirty set of the propagate under way, if any.
    ///
    /// Every rule steps or seeds against the one entry. A single rule
    /// patches it in place, a closure's change of width included. The rules
    /// of a union (R4/R5) step without it, and once all have stepped their
    /// net edits are written into it: a rule's removal applies only while no
    /// rule of the union still shows the pattern, and an insertion only
    /// where the union lacked it. After a seed, or a closure's re-shape in a
    /// union, the union is re-formed from its rules' visible keys and
    /// compared with the entry, which no step has touched.
    fn maintain_subdb(
        &self,
        name: &str,
        state: &mut MaintainState,
        dirty: Option<&[Oid]>,
    ) -> Result<Maintained, RuleError> {
        let idxs = self.graph.rules_for(name);
        debug_assert!(!idxs.is_empty());
        let mut sp = obs::trace::span("rules.derive");
        sp.label(|| name.to_string());
        sp.attr("rules", idxs.len() as i64);
        let union = idxs.len() > 1;
        let (mut edits, mut seeded, mut reform) = (None::<DeltaOutcome>, None, false);
        for &i in idxs {
            let rule = &self.rules[i];
            let stepped = match (of_rule(&mut state.caches, i), state.entry.as_mut()) {
                (Some(cache), Some(entry)) => {
                    self.step(rule, cache, (!union).then_some(&mut entry.subdb), dirty)?
                }
                _ => None,
            };
            let Some(out) = stepped else {
                seeded = Some(self.seed(i, &mut state.caches)?);
                reform = true;
                continue;
            };
            reform |= union && out.reshape.is_some();
            match &mut edits {
                None => edits = Some(out),
                Some(all) => {
                    all.inserted.append(&out.inserted);
                    all.removed.append(&out.removed);
                }
            }
        }
        let maintained = match edits.filter(|_| !reform) {
            Some(mut edits) => {
                let mut entry = state.entry.take().expect("every rule stepped against it");
                if union {
                    let (sd, caches) = (&mut entry.subdb, &state.caches);
                    edits.removed.sort();
                    edits.inserted.sort();
                    let shown = |p: Row<'_>| caches.iter().any(|(_, c)| c.shows(p));
                    edits.removed.retain(|p| !shown(p) && sd.remove(p));
                    edits.inserted.retain(|p| sd.insert(p));
                }
                Maintained::edited(entry, edits.inserted.iter().chain(edits.removed.iter()))
            }
            None => {
                // A single rule's seeded target is its result.
                let sd = match seeded {
                    Some(sd) if !union => sd,
                    _ => self.reform(name, idxs, |i| {
                        &*state.caches.iter().find(|(j, _)| *j == i).expect("a cache per rule").1
                    })?,
                };
                Maintained::replaced(state.entry.take(), sd)
            }
        };
        sp.attr("rows_out", maintained.entry.subdb.len() as i64);
        Ok(maintained)
    }

    /// A union (R4/R5) re-formed from its rules' visible keys — "May_teach
    /// will contain the union of the two sets of extensional patterns
    /// derived by the two rules", each set as it is, with no cut to the
    /// maximal patterns — laid out as its first rule's target: the rules
    /// must agree on the layout.
    fn reform<'c>(
        &self,
        name: &str,
        idxs: &[usize],
        cache: impl Fn(usize) -> &'c RuleCache,
    ) -> Result<Subdatabase, RuleError> {
        let layout = cache(idxs[0]).target_intension(&self.rules[idxs[0]], &self.db)?;
        for &i in &idxs[1..] {
            if !layouts_compatible(&layout, &cache(i).target_intension(&self.rules[i], &self.db)?) {
                return Err(RuleError::TargetLayoutMismatch {
                    subdb: name.to_string(),
                    rule: self.rules[i].name.clone(),
                });
            }
        }
        let rows = idxs.iter().map(|&i| cache(i).visible().count()).sum();
        let mut run = RowRun::with_capacity(layout.width(), rows);
        for &i in idxs {
            cache(i).visible().for_each(|k| run.push(k.components()));
        }
        let mut sd = Subdatabase::new(name, layout);
        sd.set_rows(run);
        Ok(sd)
    }

    /// The union of a subdatabase's rule targets (R4/R5), given with the
    /// indices of their rules: the rules must agree on its layout.
    fn union_of<'s>(
        &self,
        name: &str,
        parts: impl IntoIterator<Item = (usize, &'s Subdatabase)>,
    ) -> Result<Subdatabase, RuleError> {
        let mut acc: Option<Subdatabase> = None;
        for (i, sd) in parts {
            match &mut acc {
                None => acc = Some(sd.clone()),
                Some(prev) if layouts_compatible(&prev.intension, &sd.intension) => {
                    prev.union_from(sd)
                }
                Some(_) => {
                    return Err(RuleError::TargetLayoutMismatch {
                        subdb: name.to_string(),
                        rule: self.rules[i].name.clone(),
                    })
                }
            }
        }
        Ok(acc.expect("at least one rule"))
    }

    /// Advance `cache`, and the result `target` if one is given, by one
    /// delta step, if the events since the cache's last step allow one
    /// (`None`: re-seed).
    fn step(
        &self,
        rule: &Rule,
        cache: &mut RuleCache,
        target: Option<&mut Subdatabase>,
        dirty: Option<&[Oid]>,
    ) -> Result<Option<DeltaOutcome>, RuleError> {
        let Some(step_dirty) = self.step_dirty(cache, dirty) else { return Ok(None) };
        let out = delta_apply(rule, &self.db, &self.registry, cache, target, &step_dirty)?;
        cache.at_epoch = self.epoch;
        if let Some(a) = obs::account::active() {
            a.add_delta_edits(out.inserted.len() as u64, out.removed.len() as u64);
        }
        Ok(Some(out))
    }

    /// Seed the cache of rule `rule` into `caches`; returns the target it
    /// maintains.
    fn seed(
        &self,
        rule: usize,
        caches: &mut Vec<(usize, Box<RuleCache>)>,
    ) -> Result<Subdatabase, RuleError> {
        let (mut cache, sd) = seed_cache(&self.rules[rule], &self.db, &self.registry)?;
        cache.at_epoch = self.epoch;
        match of_rule(caches, rule) {
            Some(slot) => **slot = cache,
            None => caches.push((rule, Box::new(cache))),
        }
        Ok(sd)
    }

    /// The dirty set a rule's cache can be delta-advanced by, if any:
    /// every store event since its `at_seq` — the propagate's dirty set
    /// covers those after `dirty_from`, the event log the rest — plus every
    /// change of a source since it last stepped, which only a propagate's
    /// dirty set can carry. `None` — re-seed — when the log was compacted
    /// past `at_seq` or a source changed outside that dirty set since the
    /// cache last stepped.
    fn step_dirty<'d>(
        &self,
        cache: &RuleCache,
        dirty: Option<&'d [Oid]>,
    ) -> Option<Cow<'d, [Oid]>> {
        let source_moved = cache.sources().any(|s| {
            self.registry.get(s).is_none_or(|e| {
                let uncovered = if dirty.is_some() && e.changed_at > self.dirty_epoch {
                    e.changed_before
                } else {
                    e.changed_at
                };
                uncovered > cache.at_epoch
            })
        });
        if source_moved {
            // A source delta the cache cannot see: re-seed.
            return None;
        }
        match dirty {
            Some(d) if cache.at_seq >= self.dirty_from => Some(Cow::Borrowed(d)),
            _ if cache.at_seq < self.db.events().dropped() => None,
            _ => {
                // The cache sat out earlier propagates, or this is a read:
                // replay the events it missed into a rule-local dirty set.
                let mut full = dirty_closure(&self.db, self.db.events().since(cache.at_seq));
                full.extend(dirty.into_iter().flatten().copied());
                full.sort();
                full.dedup();
                Some(Cow::Owned(full))
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Run an OQL query, backward-chaining any derived subdatabases it
    /// references (paper §4.3 / Query 4.1).
    pub fn query(&mut self, src: &str) -> Result<QueryOutput, RuleError> {
        let q = dood_oql::Parser::parse_query(src)?;
        self.run_query(&q)
    }

    /// Run a parsed OQL query, backward-chaining any derived subdatabases
    /// it references.
    pub fn run_query(&mut self, q: &Query) -> Result<QueryOutput, RuleError> {
        let mut sp = obs::trace::span("rules.query");
        let subdbs = referenced_subdbs(q);
        if !subdbs.is_empty() {
            let _acct = obs::account::begin("derive", || subdbs.join(","));
            for subdb in &subdbs {
                self.derive(subdb)?;
            }
        }
        let out = self.oql.run(&self.db, &self.registry, q)?;
        sp.attr("rows", out.table.len() as i64);
        Ok(out)
    }

    /// Run a parsed query under span capture, returning the output and its
    /// EXPLAIN ANALYZE [`Profile`] tree (backward-chained derivations
    /// included).
    pub fn run_query_profiled(
        &mut self,
        q: &Query,
    ) -> Result<(QueryOutput, Profile), RuleError> {
        let (res, spans) = obs::trace::capture(|| self.run_query(q));
        Ok((res?, Profile::single(&spans)))
    }

    /// Materialize and return a derived subdatabase (backward chaining).
    pub fn subdb(&mut self, name: &str) -> Result<&Subdatabase, RuleError> {
        self.derive(name)?;
        Ok(self.registry.subdb(name).expect("derive registered it"))
    }

    /// Recompute `name` and all its sources from scratch in a scratch
    /// registry and compare with the currently registered copy — the
    /// consistency oracle used to demonstrate the §6 staleness scenario.
    pub fn is_consistent(&self, name: &str) -> Result<bool, RuleError> {
        let Some(current) = self.registry.subdb(name) else {
            // Absent ≠ inconsistent when the result is computed on demand.
            // Under a rule-oriented *forward* strategy, though, the copy
            // "is always kept available" — absence is staleness.
            let forward_required = self.mode == ControlMode::RuleOriented
                && self.graph.is_derived(name)
                && self.subdb_strategy(name) == ChainStrategy::Forward;
            return Ok(!forward_required);
        };
        let fresh = self.derive_fresh(name)?;
        Ok(fresh.to_vec() == current.to_vec())
    }

    /// Check that no watermark the engine keeps (its own, `dirty_from`, a
    /// rule cache's `at_seq`) is past the store's sequence number; every
    /// registered subdatabase's access index, if it is built, against one
    /// built afresh, and its rows against the union of its rules' visible
    /// keys, where every rule has a cache; and every rule cache that is
    /// current — stepped at the store's sequence number, with no source
    /// changed since — against its own invariants (its visible keys are
    /// exactly the maximal count keys) and a cache seeded afresh from the
    /// same store and registry. The error names the rule or the
    /// subdatabase, and the first difference.
    pub fn audit(&self) -> Result<(), String> {
        let seq = self.db.seq();
        let caches = self.rules.iter().zip(&self.caches).filter_map(|(r, c)| {
            Some((format!("rule {}: cache at_seq", r.name), c.as_ref()?.at_seq))
        });
        let engine = [("engine watermark", self.watermark), ("dirty_from", self.dirty_from)];
        let engine = engine.map(|(what, at)| (what.to_string(), at));
        for (what, at) in engine.into_iter().chain(caches) {
            if at > seq {
                return Err(format!("{what} {at} is past the store's sequence number {seq}"));
            }
        }
        for name in self.registry.names() {
            let sd = self.registry.subdb(name).expect("a listed entry");
            sd.check_index().map_err(|e| format!("subdatabase {name}: index {e}"))?;
            let idxs = self.graph.rules_for(name);
            if !idxs.is_empty() && idxs.iter().all(|&i| self.caches[i].is_some()) {
                let cache = |i: usize| &**self.caches[i].as_ref().expect("checked above");
                let union = self
                    .reform(name, idxs, cache)
                    .map_err(|e| format!("subdatabase {name}: {e}"))?;
                first_diff("row against its rules' visible keys", sd.patterns(), union.patterns())
                    .map_err(|e| format!("subdatabase {name}: {e}"))?;
            }
        }
        for (i, rule) in self.rules.iter().enumerate() {
            let Some(cache) = &self.caches[i] else { continue };
            let moved = cache
                .sources()
                .any(|s| self.registry.get(s).is_none_or(|e| e.changed_at > cache.at_epoch));
            if cache.at_seq != self.db.seq() || moved {
                continue;
            }
            audit_cache(rule, cache, &self.db, &self.registry)
                .map_err(|e| format!("rule {}: {e}", rule.name))?;
        }
        Ok(())
    }

    /// Compute `name` from scratch (ignoring all cached results).
    pub fn derive_fresh(&self, name: &str) -> Result<Subdatabase, RuleError> {
        let mut scratch = SubdbRegistry::new();
        // Seed with registered-but-not-derived (external) subdatabases.
        for n in self.registry.names() {
            if !self.graph.is_derived(n) {
                let e = self.registry.get(n).expect("listed");
                scratch.put(e.subdb.clone(), e.derived_at);
            }
        }
        self.derive_into(name, &mut scratch)?;
        Ok(scratch.subdb(name).expect("derived").clone())
    }

    fn derive_into(&self, name: &str, scratch: &mut SubdbRegistry) -> Result<(), RuleError> {
        if scratch.subdb(name).is_some() {
            return Ok(());
        }
        if !self.graph.is_derived(name) {
            return Err(RuleError::UnderivableSubdb(name.to_string()));
        }
        for dep in self.graph.deps_of(name) {
            if self.graph.is_derived(dep) {
                self.derive_into(dep, scratch)?;
            } else if scratch.subdb(dep).is_none() {
                return Err(RuleError::UnderivableSubdb(dep.clone()));
            }
        }
        let idxs = self.graph.rules_for(name);
        let targets: Vec<Subdatabase> = idxs
            .iter()
            .map(|&i| apply_rule(&self.rules[i], &self.db, scratch))
            .collect::<Result<_, _>>()?;
        let sd = self.union_of(name, idxs.iter().copied().zip(&targets))?;
        scratch.put(sd, self.db.seq());
        Ok(())
    }
}

/// The derived subdatabases a query references (context, WHERE, SELECT).
pub fn referenced_subdbs(q: &Query) -> Vec<String> {
    let mut out = Vec::new();
    q.context.seq.for_each_class(&mut |c| out.extend(c.subdb.clone()));
    let selected = q.select.iter().filter_map(|s| match s {
        SelectItem::ClassAttrs(c, _) | SelectItem::Class(c) => Some(c),
        SelectItem::Attr(_) => None,
    });
    let named = q.where_.iter().flat_map(WhereCond::classes).chain(selected);
    out.extend(named.filter_map(|c| c.subdb.clone()));
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::schema::SchemaBuilder;

    #[test]
    fn audit_fails_on_a_watermark_past_the_store() {
        let mut b = SchemaBuilder::new();
        b.e_class("A");
        let mut engine = RuleEngine::new(Database::new(b.build().unwrap()));
        engine.add_rule("r", "if context A then T (A)").unwrap();
        engine.derive("T").unwrap();
        assert_eq!(engine.audit(), Ok(()));
        engine.caches[0].as_mut().expect("a cache").at_seq += 1;
        let err = engine.audit().unwrap_err();
        assert!(err.starts_with("rule r: cache at_seq 1 is past"), "{err}");
    }
}
