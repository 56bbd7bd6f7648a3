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

use crate::ast::Rule;
use crate::depgraph::DepGraph;
use crate::derive::{apply_rule, layouts_compatible};
use crate::error::RuleError;
use crate::maintain::{
    delta_apply, dirty_closure, plan_for, seed_cache, DeltaOutcome, MaintainPlan, RuleCache,
};
use crate::parser::parse_rule;
use crate::program::Program;
use dood_core::diag::Diagnostic;
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::{ClassId, Oid};
use dood_core::obs;
use dood_core::obs::profile::Profile;
use dood_core::pool::ChunkPool;
use dood_core::subdb::{RegistryEntry, Subdatabase, SubdbRegistry};
use dood_oql::ast::{ClassRef, Item, Query, SelectItem, Seq, WhereCond};
use dood_oql::{Oql, QueryOutput};
use dood_store::{Database, SubscriberId};
use std::borrow::Cow;
use std::collections::BTreeSet;

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
/// stratum's parallel fan-out or a catch-up: its rules' delta caches plus
/// its registry entry, stale or not. The worker mutates all of it in place;
/// `put_back` drains it back.
struct MaintainState {
    caches: FxHashMap<String, RuleCache>,
    entry: Option<RegistryEntry>,
}

/// What maintaining one subdatabase produced, for the commit.
enum Maintained {
    /// Content unchanged: the entry, with the epochs of its last change.
    Unchanged(RegistryEntry),
    /// Content changed at a new epoch. `prior` is the `changed_at` of the
    /// copy it replaces; `diff` holds the delta's component oids when known
    /// — `None` means no before-image existed and readers must re-seed.
    Changed { sd: Subdatabase, prior: u64, diff: Option<Vec<Oid>> },
}

/// The deductive object-oriented database engine: an object store, a rule
/// set, the registry of derived subdatabases, and OQL.
pub struct RuleEngine {
    db: Database,
    oql: Oql,
    rules: Vec<Rule>,
    graph: DepGraph,
    registry: SubdbRegistry,
    policies: FxHashMap<String, EvalPolicy>,
    strategies: FxHashMap<String, ChainStrategy>,
    mode: ControlMode,
    /// Event-log watermark up to which forward chaining has run.
    watermark: u64,
    /// Per rule: the base classes its IF clause reads (hierarchy-closed).
    base_reads: Vec<FxHashSet<ClassId>>,
    /// Per-rule maintenance caches (context, WHERE verdicts, derivation
    /// counts, target) keyed by rule name.
    caches: FxHashMap<String, RuleCache>,
    /// Monotone count of registry commits that changed a result's content.
    /// Entries record the epoch of their last change and caches the epoch
    /// they last stepped at, so a cache can tell whether a source moved
    /// since. The store's sequence number cannot tell: a cache stepped by a
    /// read between updates and `propagate`, and a source that propagate
    /// then commits, reflect the same one.
    epoch: u64,
    /// Treat analyzer warnings as fatal in [`RuleEngine::register`].
    strict: bool,
    /// Dirty objects of the update batch being propagated, when any. Grows
    /// as maintained subdatabases commit content diffs.
    current_dirty: Option<BTreeSet<Oid>>,
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
            graph: DepGraph::default(),
            registry: SubdbRegistry::new(),
            policies: FxHashMap::default(),
            strategies: FxHashMap::default(),
            mode: ControlMode::ResultOriented,
            watermark,
            base_reads: Vec::new(),
            caches: FxHashMap::default(),
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
        crate::analyze::lint_forward_reads_backward(&self.rules, &self.strategies)
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
        self.add_parsed_rule(rule)
    }

    fn add_parsed_rule(&mut self, rule: Rule) -> Result<(), RuleError> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(RuleError::DuplicateRule(rule.name));
        }
        let reads = self.rule_base_reads(&rule);
        self.rules.push(rule);
        self.base_reads.push(reads);
        self.graph = DepGraph::build(&self.rules);
        // Reject cyclic rule sets eagerly.
        self.graph.topo_order()?;
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
    /// ill-typed, unsafe, or unstratifiable program.
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
        for pr in &program.rules {
            self.add_parsed_rule(pr.rule.clone())?;
        }
        // Static planner priors: abstract-interpretation selectivity and
        // fan-out estimates, consulted by the cost model only until real
        // observations warm the corresponding stats keys.
        crate::absint::install_priors(program, self.db.schema());
        Ok(diags)
    }

    /// Base classes a rule's IF clause reads, closed over the
    /// generalization hierarchy (an update to any perspective of an object
    /// can affect patterns observed through another perspective).
    fn rule_base_reads(&self, rule: &Rule) -> FxHashSet<ClassId> {
        let mut out = FxHashSet::default();
        fn walk(seq: &Seq, schema: &dood_core::schema::Schema, out: &mut FxHashSet<ClassId>) {
            let item = |i: &Item, out: &mut FxHashSet<ClassId>| match i {
                Item::Class { class, .. } if class.subdb.is_none() => {
                    let name = &class.name;
                    let id = schema.try_class_by_name(name).or_else(|| {
                        let (family, lvl) = ClassRef::split_alias(name);
                        (lvl > 0).then(|| schema.try_class_by_name(family)).flatten()
                    });
                    if let Some(id) = id {
                        out.insert(id);
                    }
                }
                Item::Class { .. } => {}
                Item::Group(g) => walk(g, schema, out),
            };
            item(&seq.first, out);
            for (_, i) in &seq.rest {
                item(i, out);
            }
        }
        walk(&rule.context.seq, self.db.schema(), &mut out);
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
        for dep in self.graph.deps_of(name).to_vec() {
            if self.graph.is_derived(&dep) {
                self.derive(&dep)?;
            } else if self.registry.subdb(&dep).is_none() {
                return Err(RuleError::UnderivableSubdb(dep));
            }
        }
        self.run_rules_for(name)
    }

    /// Bring `name` up to date from its kept copy and rule caches — the
    /// catch-up of a stale or out-of-date result, inside a propagate or on
    /// a read — and commit it.
    fn run_rules_for(&mut self, name: &str) -> Result<(), RuleError> {
        let mut state = self.take_state(name);
        // Lend the dirty set of a propagate under way, as the stratum
        // fan-out does.
        let dirty = self.current_dirty.take();
        let result = self.maintain_subdb(name, &mut state, dirty.as_ref());
        self.current_dirty = dirty;
        self.put_back(state, result)
    }

    /// Pull `name`'s maintenance state — its rules' caches and its entry,
    /// stale or not — out of the engine, so that a step can mutate it while
    /// the engine stays read-only.
    fn take_state(&mut self, name: &str) -> MaintainState {
        let mut caches = FxHashMap::default();
        for &i in self.graph.rules_for(name) {
            let rn = &self.rules[i].name;
            if let Some(c) = self.caches.remove(rn) {
                caches.insert(rn.clone(), c);
            }
        }
        MaintainState { caches, entry: self.registry.take(name) }
    }

    /// Return a maintenance step's state to the engine. On success the
    /// caches go back and the result is committed. On error no cache goes
    /// back — one may have stepped past the copy — so the rules re-seed
    /// next time, and the copy is restored as it was, but stale: it no
    /// longer reflects the events the failed step consumed.
    fn put_back(
        &mut self,
        state: MaintainState,
        result: Result<Maintained, RuleError>,
    ) -> Result<(), RuleError> {
        let maintained = match result {
            Ok(m) => m,
            Err(e) => {
                if let Some(mut entry) = state.entry {
                    entry.stale = true;
                    self.registry.insert(entry);
                }
                return Err(e);
            }
        };
        self.caches.extend(state.caches);
        let derived_at = self.db.seq();
        match maintained {
            Maintained::Unchanged(mut entry) => {
                if obs::metrics_enabled() {
                    obs::metrics::counter("rules.maintain.unchanged").inc();
                }
                entry.derived_at = derived_at;
                entry.stale = false;
                self.registry.insert(entry);
            }
            Maintained::Changed { sd, prior, diff } => {
                if obs::metrics_enabled() {
                    obs::metrics::counter("rules.rederived").inc();
                    obs::metrics::histogram("rules.delta_rows").record(sd.len() as u64);
                }
                self.epoch += 1;
                // A reader stepping later in this propagate gets the change
                // through the dirty set, if it was folded in; a reader that
                // saw `prior` misses nothing then.
                let changed_before = if self.fold_commit_delta(diff) { prior } else { self.epoch };
                self.registry.insert(RegistryEntry {
                    subdb: sd,
                    derived_at,
                    changed_at: self.epoch,
                    changed_before,
                    stale: false,
                });
            }
        }
        Ok(())
    }

    /// Fold a committed content delta — the component oids of the patterns
    /// that came or went — into the running dirty set of the propagate under
    /// way (perspective-closed), so downstream rules' delta steps see
    /// source-extent changes: aggregate verdict flips can add or drop target
    /// patterns whose components were never base-dirty. Returns whether the
    /// delta is in the dirty set: not outside a propagate, nor when it is
    /// unknown (no before-image).
    fn fold_commit_delta(&mut self, diff: Option<Vec<Oid>>) -> bool {
        match (self.current_dirty.as_mut(), diff) {
            (Some(dirty), Some(d)) => {
                if !d.is_empty() {
                    dirty.extend(dirty_closure(&self.db, d));
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
            let oids = events.iter().flat_map(|e| e.touched_oids());
            self.current_dirty = Some(dirty_closure(&self.db, oids));
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
        for name in self.graph.topo_order()? {
            if !affected.contains(&name) {
                continue;
            }
            match self.subdb_strategy(&name) {
                ChainStrategy::Forward => {
                    // POSTGRES restriction: a forward rule reads its
                    // sources *as materialized right now*. If a source is
                    // backward-derived (stale or absent), the rule cannot
                    // run and the target stays stale — recorded in
                    // `stale_skips` and the `rules.maintain.stale_skip`
                    // metric rather than silently dropped.
                    let sources_present = self
                        .graph
                        .deps_of(&name)
                        .iter()
                        .all(|d| self.registry.subdb(d).is_some());
                    if sources_present {
                        self.run_rules_for(&name)?;
                        rederived.push(name);
                    } else {
                        if !self.stale_skips.contains(&name) {
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
                    self.registry.mark_stale(&name);
                }
            }
        }
        Ok(rederived)
    }

    /// Result-oriented propagation: stratum-by-stratum semi-naive delta
    /// maintenance (DESIGN.md §9). Post-evaluated results go stale. Within
    /// a stratum, pre-evaluated members are maintained concurrently
    /// against the read-only store and registry and committed in
    /// deterministic order; every commit's content delta feeds the dirty
    /// set of later strata.
    fn propagate_result_oriented(
        &mut self,
        affected: &FxHashSet<String>,
    ) -> Result<Vec<String>, RuleError> {
        let mut rederived: Vec<String> = Vec::new();
        let pool = ChunkPool::from_env();
        for (stratum_idx, stratum) in self.graph.strata()?.into_iter().enumerate() {
            let mut ssp = obs::trace::span("rules.stratum");
            ssp.attr("index", stratum_idx as i64);
            let mut batch: Vec<String> = Vec::new();
            for name in stratum {
                if !affected.contains(&name) {
                    continue;
                }
                match self.policy(&name) {
                    // Forward-maintain: collected for this stratum's
                    // parallel fan-out.
                    EvalPolicy::PreEvaluated => batch.push(name),
                    // Stale; the next read catches it up.
                    EvalPolicy::PostEvaluated => self.registry.mark_stale(&name),
                }
            }
            if batch.is_empty() {
                continue;
            }
            // Ensure sources fresh, dependency-first: each catch-up folds
            // its content delta into the dirty set *before* any reader's
            // delta step runs.
            for dep in self.graph.transitive_deps(&batch)? {
                if self.needs_derivation(&dep) {
                    self.derive(&dep)?;
                }
            }
            ssp.attr("subdbs", batch.len() as i64);
            // Lend the dirty set to the fan-out (reinstalled below before
            // the commit loop extends it) instead of cloning per stratum.
            let dirty = self.current_dirty.take().unwrap_or_default();
            // Pull each member's maintenance state out of the engine so
            // every worker owns its item and can mutate it in place.
            // Same-stratum members never read one another (their sources
            // live in strictly earlier strata), so removing the registry
            // entries here is invisible to the fan-out.
            let items: Vec<(String, std::sync::Mutex<MaintainState>)> = batch
                .into_iter()
                .map(|name| {
                    let state = self.take_state(&name);
                    (name, std::sync::Mutex::new(state))
                })
                .collect();
            let results = pool.par_map(&items, |(name, state)| {
                let mut st = state.lock().expect("maintain state lock");
                self.maintain_subdb(name, &mut st, Some(&dirty))
            });
            self.current_dirty = Some(dirty);
            let mut first_err: Option<RuleError> = None;
            for ((name, state), result) in items.into_iter().zip(results) {
                let state = state.into_inner().expect("maintain state lock");
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
        let order = self.graph.topo_order()?;
        let pos: FxHashMap<&str, usize> =
            order.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        rederived.sort_unstable_by_key(|n| pos[n.as_str()]);
        Ok(rederived)
    }

    /// Refresh `name`'s maintenance state — delta where the caches allow,
    /// seeding otherwise — *without* touching the engine. `&self` stays
    /// read-only, so same-stratum results run on separate threads; all
    /// mutation lands in the worker-owned `state`. Returns the refreshed
    /// copy plus what the commit needs to know. `dirty` is the
    /// perspective-closed dirty set of the propagate under way, if any.
    fn maintain_subdb(
        &self,
        name: &str,
        state: &mut MaintainState,
        dirty: Option<&BTreeSet<Oid>>,
    ) -> Result<Maintained, RuleError> {
        let idxs = self.graph.rules_for(name);
        debug_assert!(!idxs.is_empty());
        let mut sp = obs::trace::span("rules.derive");
        sp.label(|| name.to_string());
        sp.attr("rules", idxs.len() as i64);

        // Step every rule: by delta where its cache allows, by seeding (or,
        // for a recomputing rule, from scratch) otherwise. The copy is
        // refreshed by edit replay iff every rule took a delta step.
        let mut outs: Vec<DeltaOutcome> = Vec::with_capacity(idxs.len());
        let mut recomputed: FxHashMap<usize, Subdatabase> = FxHashMap::default();
        for &i in idxs {
            let rule = &self.rules[i];
            if plan_for(rule) == MaintainPlan::Recompute {
                recomputed.insert(i, apply_rule(rule, &self.db, &self.registry)?);
                continue;
            }
            let step_dirty =
                state.caches.get(&rule.name).and_then(|cache| self.step_dirty(cache, dirty));
            match (step_dirty, state.caches.get_mut(&rule.name)) {
                (Some(step_dirty), Some(cache)) => {
                    let out = delta_apply(rule, &self.db, &self.registry, cache, &step_dirty)?;
                    cache.at_epoch = self.epoch;
                    account_delta(&out);
                    outs.push(out);
                }
                (_, cache) => {
                    if cache.is_some_and(|c| c.needs_replan()) {
                        note_replan();
                    }
                    let mut cache = seed_cache(rule, &self.db, &self.registry)?;
                    cache.at_epoch = self.epoch;
                    state.caches.insert(rule.name.clone(), cache);
                }
            }
        }
        let targets: Vec<&Subdatabase> = idxs
            .iter()
            .map(|i| match recomputed.get(i) {
                Some(sd) => sd,
                None => &state.caches[&self.rules[*i].name].target,
            })
            .collect();

        // Hot path: every rule stepped and there is a copy to refresh. The
        // steps' exact edits are replayed onto it in O(|edits|) — no
        // context-sized clone, rebuild, or compare anywhere on this path.
        // A closure delta that changed the longest chain re-shaped the
        // target intension; edit replay cannot cross that.
        let replay = outs.len() == idxs.len()
            && state.entry.as_ref().is_some_and(|e| {
                targets.iter().all(|t| t.intension.width() == e.subdb.intension.width())
            });
        if replay {
            let mut entry = state.entry.take().expect("checked above");
            let sd = &mut entry.subdb;
            let mut diff: BTreeSet<Oid> = BTreeSet::new();
            // Removals first, and only of patterns no rule of the union
            // derives any more; then the insertions.
            for p in outs.iter().flat_map(|out| &out.removed) {
                if !targets.iter().any(|t| t.contains(p)) && sd.remove(p) {
                    diff.extend(p.components().iter().flatten().copied());
                }
            }
            for p in outs.iter().flat_map(|out| &out.inserted) {
                if sd.insert(p.clone()) {
                    diff.extend(p.components().iter().flatten().copied());
                }
            }
            debug_assert!(
                targets.len() > 1 || sd.patterns().eq(targets[0].patterns()),
                "registered copy diverged from maintained target for {name}"
            );
            sp.attr("rows_out", sd.len() as i64);
            if diff.is_empty() {
                return Ok(Maintained::Unchanged(entry));
            }
            let diff = Some(diff.into_iter().collect());
            return Ok(Maintained::Changed { sd: entry.subdb, prior: entry.changed_at, diff });
        }

        // Otherwise: the union of the rules' results, compared with the
        // copy it replaces.
        let mut acc: Option<Subdatabase> = None;
        for (&i, &sd) in idxs.iter().zip(&targets) {
            acc = Some(match acc {
                None => sd.clone(),
                Some(mut prev) => {
                    if !layouts_compatible(&prev, sd) {
                        return Err(RuleError::TargetLayoutMismatch {
                            subdb: name.to_string(),
                            rule: self.rules[i].name.clone(),
                        });
                    }
                    prev.union_from(sd);
                    prev
                }
            });
        }
        let sd = acc.expect("at least one rule ran");
        sp.attr("rows_out", sd.len() as i64);
        Ok(match state.entry.take() {
            Some(old) if old.subdb.patterns().eq(sd.patterns()) => Maintained::Unchanged(old),
            Some(old) => {
                let diff = old.subdb.diff_components(&sd);
                Maintained::Changed { sd, prior: old.changed_at, diff: Some(diff) }
            }
            None => Maintained::Changed { sd, prior: 0, diff: None },
        })
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
        dirty: Option<&'d BTreeSet<Oid>>,
    ) -> Option<Cow<'d, BTreeSet<Oid>>> {
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
        if source_moved || cache.needs_replan() {
            // A source delta the cache cannot see, or a drift-flagged plan:
            // re-seed (and thereby re-plan).
            return None;
        }
        match dirty {
            Some(d) if cache.at_seq >= self.dirty_from => Some(Cow::Borrowed(d)),
            _ if cache.at_seq < self.db.events().dropped() => None,
            _ => {
                // The cache sat out earlier propagates, or this is a read:
                // replay the events it missed into a rule-local dirty set.
                let missed =
                    self.db.events().since(cache.at_seq).iter().flat_map(|e| e.touched_oids());
                let mut full = dirty_closure(&self.db, missed);
                full.extend(dirty.into_iter().flatten().copied());
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

    /// Parse and run a query under span capture (see
    /// [`run_query_profiled`](Self::run_query_profiled)).
    pub fn query_profiled(&mut self, src: &str) -> Result<(QueryOutput, Profile), RuleError> {
        let q = dood_oql::Parser::parse_query(src)?;
        self.run_query_profiled(&q)
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
        let mut acc: Option<Subdatabase> = None;
        for &i in self.graph.rules_for(name) {
            let sd = apply_rule(&self.rules[i], &self.db, scratch)?;
            acc = Some(match acc {
                None => sd,
                Some(mut prev) => {
                    if !layouts_compatible(&prev, &sd) {
                        return Err(RuleError::TargetLayoutMismatch {
                            subdb: name.to_string(),
                            rule: self.rules[i].name.clone(),
                        });
                    }
                    prev.union_from(&sd);
                    prev
                }
            });
        }
        scratch.put(acc.expect("at least one rule"), self.db.seq());
        Ok(())
    }
}

/// Fold one delta step's exact edits into the active accounting scope, if
/// any. One relaxed atomic load when no scope is open.
fn account_delta(out: &DeltaOutcome) {
    if let Some(a) = obs::account::active() {
        a.add_delta_edits(out.inserted.len() as u64, out.removed.len() as u64);
    }
}

/// Count a drift-forced cache re-seed: the plan-drift watchdog flagged the
/// cached compiled plan, so the delta path was bypassed and the rule is
/// re-planned against the corrected statistics.
fn note_replan() {
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.maintain.replans").inc();
    }
}

/// The derived subdatabases a query references (context, WHERE, SELECT).
pub fn referenced_subdbs(q: &Query) -> Vec<String> {
    let mut out = Vec::new();
    fn walk(seq: &Seq, out: &mut Vec<String>) {
        let item = |i: &Item, out: &mut Vec<String>| match i {
            Item::Class { class, .. } => {
                if let Some(s) = &class.subdb {
                    out.push(s.clone());
                }
            }
            Item::Group(g) => walk(g, out),
        };
        item(&seq.first, out);
        for (_, i) in &seq.rest {
            item(i, out);
        }
    }
    walk(&q.context.seq, &mut out);
    let push_ref = |c: &ClassRef, out: &mut Vec<String>| {
        if let Some(s) = &c.subdb {
            out.push(s.clone());
        }
    };
    for w in &q.where_ {
        match w {
            WhereCond::Agg { target, by, .. } => {
                push_ref(target, &mut out);
                if let Some(b) = by {
                    push_ref(b, &mut out);
                }
            }
            WhereCond::Cmp { left, right, .. } => {
                push_ref(&left.0, &mut out);
                if let dood_oql::ast::CmpRhs::Attr(c, _) = right {
                    push_ref(c, &mut out);
                }
            }
        }
    }
    for s in &q.select {
        match s {
            SelectItem::ClassAttrs(c, _) | SelectItem::Class(c) => push_ref(c, &mut out),
            SelectItem::Attr(_) => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}
