//! `dood-analyze`: the schema-aware static analyzer for rule programs.
//!
//! Runs over a parsed [`Program`] and the OSAM* schema **without touching
//! extensional data**, in four passes:
//!
//! 1. **Type checking** — every context-expression class exists (`E001`),
//!    qualified references name derivable subdatabases and their classes
//!    (`E002`/`E003`), `*`/`!`-linked pairs share a unique association
//!    (`E004`/`E005`), and `[...]` / WHERE predicates reference real
//!    attributes with comparable value types (`E006`–`E010`).
//! 2. **Safety / range restriction** — every slot of the derived
//!    association pattern is bound by a positive (`*`) context atom; an
//!    occurrence constrained only by `!` edges cannot safely feed a THEN
//!    target (`E013`, warning `W101` otherwise). THEN targets must name
//!    IF-clause classes (`E011`) and union rules must agree on the target
//!    layout (`E012`).
//! 3. **Stratification** — rule dependency cycles are rejected with the
//!    full named cycle path (`E014`), and cycles that pass through a
//!    negated (`!`) read of a derived subdatabase are flagged as
//!    negation-through-derivation (`E015`).
//! 4. **Lints** — dead rules (`W102`), duplicate rule bodies (`W103`),
//!    Null-propagation from `{...}` brace retention into `=` comparisons
//!    (`W104`), `!` edges whose best static plan is still an
//!    unconstrained cross-product stage (`W106`), and unbounded `^*`
//!    closures whose cycle-back edge re-traverses an association already
//!    on the chain (`W107`). A strategy-aware lint,
//!    `W105` (a forward rule reading a
//!    backward-derived source, the paper's §6 staleness hazard), runs
//!    separately via [`lint_forward_reads_backward`] because it needs the
//!    engine's rule-oriented strategy assignment, not just the program
//!    text.
//!
//! The abstract interpretation's schema-only codes (`E017`, `E018`,
//! `W108`–`W110`, [`crate::absint`]) are computed in the same walk and
//! kept only when the base passes find no error. That walk is the one
//! static resolution of a program: numeric bounds
//! ([`crate::absint::analyze_bounds`]) are computed on demand over the
//! contexts it resolved, never on the way to registration.
//!
//! The analyzer is deliberately conservative where runtime resolution is
//! richer than its static model: edges between two occurrences qualified by
//! the *same* derived subdatabase, and closure-level alias slots (`Grad_2`)
//! of open (family-targeted) subdatabases, are accepted without a verdict.

use crate::absint::Ival;
use crate::ast::{Rule, TargetItem};
use crate::depgraph::DepGraph;
use crate::derive::target_names;
use crate::engine::referenced_subdbs;
use crate::error::RuleError;
use crate::program::{Program, ProgramRule};
use dood_core::diag::{self, Diagnostic, Span};
use dood_core::error::ResolveError;
use dood_core::fxhash::{FxHashMap, FxHashSet};
use dood_core::ids::{AssocId, ClassId};
use dood_core::schema::{ResolvedEdge, Schema};
use dood_core::value::DType;
use dood_oql::ast::{
    AggFunc, ClassRef, ClosureSpec, CmpOp, CmpRhs, Item, Literal, PatOp, Pred, Seq, WhereCond,
};

/// Analyze a program against a schema. `external` names subdatabases that
/// are registered outside the program (the engine's registry); references
/// to them are legal even though no program rule derives them. The
/// program's own `extern` directives are honored in addition.
///
/// Returns all diagnostics, sorted by source position.
pub fn analyze(
    program: &Program,
    schema: &Schema,
    external: &FxHashSet<String>,
) -> Vec<Diagnostic> {
    let a = Analyzer::run(program, schema, external);
    let mut diags = a.diags;
    // The abstract-interpretation codes (E017/E018/W108-W110) only count on
    // programs the base passes can make sense of: the lattice assumes
    // resolvable classes and coherent layouts.
    if !diag::has_errors(&diags) {
        diags.extend(a.absint);
    }
    // `allow <CODE>` directives suppress warning-severity diagnostics (a
    // lint opt-out); errors are never suppressible.
    if !program.allows.is_empty() {
        diags.retain(|d| {
            d.severity != diag::Severity::Warning
                || !program.allows.iter().any(|c| c == d.code)
        });
    }
    diag::sort(&mut diags);
    diags
}

/// W105: flag every forward-chaining rule that reads a subdatabase whose
/// deriving rule is backward-chaining. Under rule-oriented control the
/// forward rule "will not be triggered to update the result" when its
/// backward source is absent (paper §6's POSTGRES critique) — the target
/// goes silently stale. `graph` is the dependency graph of `rules`. Rules
/// without an entry in `strategies` default to backward, matching the
/// engine.
pub fn lint_forward_reads_backward(
    rules: &[Rule],
    graph: &DepGraph,
    strategies: &FxHashMap<String, crate::engine::ChainStrategy>,
) -> Vec<Diagnostic> {
    use crate::engine::ChainStrategy;
    let rule_strategy = |r: &Rule| {
        strategies.get(&r.name).copied().unwrap_or(ChainStrategy::Backward)
    };
    let subdb_strategy = |name: &str| {
        graph
            .rules_for(name)
            .first()
            .map(|&i| rule_strategy(&rules[i]))
            .unwrap_or(ChainStrategy::Backward)
    };
    let mut out = Vec::new();
    for r in rules {
        if rule_strategy(r) != ChainStrategy::Forward {
            continue;
        }
        for read in r.reads() {
            if graph.is_derived(&read) && subdb_strategy(&read) == ChainStrategy::Backward {
                out.push(
                    Diagnostic::warning(
                        "W105",
                        format!(
                            "forward rule `{}` reads backward-derived `{read}`: \
                             `{}` goes silently stale whenever `{read}` is absent",
                            r.name, r.target_subdb
                        ),
                    )
                    .with_owner(r.name.clone())
                    .with_note(
                        "make the source's rule forward too, or use result-oriented control",
                    ),
                );
            }
        }
    }
    out
}

/// One slot of a statically-modelled derived subdatabase.
struct SlotInfo<'a> {
    name: &'a str,
    base: Option<ClassId>,
    attrs: Option<&'a [String]>,
}

/// The static intension of a derived subdatabase.
pub(crate) struct SubdbInfo<'a> {
    /// Full THEN-clause name list of the first deriving rule (families as
    /// `base_*`), for layout comparison.
    names: Vec<String>,
    /// Non-family slots, in order.
    slots: Vec<SlotInfo<'a>>,
    /// Whether a family target (`C_*`) makes the slot set open-ended.
    open: bool,
    /// Whether every deriving rule walked so far is provably empty; `None`
    /// until the first one is walked. The topological walk order walks all
    /// of them before any reader, which then gets E018.
    pub(crate) empty: Option<bool>,
}

/// How the edge between two occurrences resolved against the schema.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Edge {
    /// No static resolution: two slots of one derived subdatabase, an
    /// unresolved class, an E004/E005 error, or no next occurrence.
    Open,
    /// A generalization identity.
    Identity,
    /// An association (ordinary or generalization); `forward` when the
    /// left occurrence is at its `from` end.
    Assoc { assoc: AssocId, forward: bool },
}

/// A resolved context occurrence and its abstract value.
pub(crate) struct OccInfo<'a> {
    pub(crate) name: &'a str,
    pub(crate) subdb: Option<&'a str>,
    pub(crate) base: Option<ClassId>,
    /// Attribute restriction inherited from the source subdatabase slot.
    pub(crate) filter: Option<&'a [String]>,
    /// The intra-class `[...]` condition.
    pub(crate) pred: Option<&'a Pred>,
    pub(crate) span: Span,
    /// How the edge to the next occurrence resolved.
    pub(crate) edge: Edge,
    /// Per-attribute intervals the condition and the WHERE comparisons
    /// walked so far admit.
    pub(crate) env: FxHashMap<String, Ival>,
    /// Whether those constraints admit no value (E017).
    pub(crate) unsat: bool,
    /// Whether a WHERE comparison reads this occurrence (null-flow).
    pub(crate) in_where: bool,
}

/// One rule's or query's context as the walk resolved it: what the numeric
/// stage of [`crate::absint::analyze_bounds`] reads.
pub(crate) struct Context<'a> {
    /// Rule or query name.
    pub(crate) owner: &'a str,
    /// Declaration index among the program's rules, or among its queries.
    pub(crate) index: usize,
    /// The derived subdatabase; `None` for a query.
    pub(crate) target: Option<&'a str>,
    pub(crate) sh: Shape<'a>,
    pub(crate) occs: Vec<OccInfo<'a>>,
    /// `Some(levels)` for a cyclic context (`None` levels for `^*`).
    pub(crate) closure: Option<Option<u32>>,
    /// Whether every chain and cycle-back edge of the closure is a
    /// generalization identity (the fixpoint stops at level 1).
    pub(crate) identity_closure: bool,
    /// Whether a WHERE condition admits nothing (E017).
    pub(crate) where_unsat: bool,
}

/// The flattened shape of a context expression.
pub(crate) struct Shape<'a> {
    occs: Vec<(&'a ClassRef, Option<&'a Pred>)>,
    /// Operator between occurrence `i` and `i+1`.
    pub(crate) ops: Vec<PatOp>,
    /// Inclusive occurrence-index ranges covered by `{...}` groups.
    pub(crate) groups: Vec<(usize, usize)>,
}

fn shape(seq: &Seq) -> Shape<'_> {
    fn walk<'a>(seq: &'a Seq, sh: &mut Shape<'a>) {
        visit(&seq.first, sh);
        for (op, it) in &seq.rest {
            sh.ops.push(*op);
            visit(it, sh);
        }
    }
    fn visit<'a>(i: &'a Item, sh: &mut Shape<'a>) {
        match i {
            Item::Class { class, cond } => sh.occs.push((class, cond.as_ref())),
            Item::Group(g) => {
                let start = sh.occs.len();
                walk(g, sh);
                if sh.occs.len() > start {
                    sh.groups.push((start, sh.occs.len() - 1));
                }
            }
        }
    }
    let mut sh = Shape { occs: Vec::new(), ops: Vec::new(), groups: Vec::new() };
    walk(seq, &mut sh);
    sh
}

/// The one static resolution of a program: every pass below, and the
/// abstract interpretation's lints ([`crate::absint`]), run in a single
/// walk over the rules in topological order and then the queries.
pub(crate) struct Analyzer<'a> {
    prog: &'a Program,
    pub(crate) schema: &'a Schema,
    pub(crate) external: FxHashSet<String>,
    graph: DepGraph,
    pub(crate) subdbs: FxHashMap<&'a str, SubdbInfo<'a>>,
    diags: Vec<Diagnostic>,
    /// E017/E018/W108-W110, kept apart from the base passes' findings.
    pub(crate) absint: Vec<Diagnostic>,
    /// Every rule's context in walk order, then every query's.
    pub(crate) contexts: Vec<Context<'a>>,
}

impl<'a> Analyzer<'a> {
    /// Walk a program; `external` is extended by its `extern` directives.
    pub(crate) fn run(prog: &'a Program, schema: &'a Schema, external: &FxHashSet<String>) -> Self {
        let mut external = external.clone();
        external.extend(prog.externs.iter().cloned());
        let mut a = Analyzer {
            prog,
            schema,
            external,
            graph: DepGraph::build(prog.rules.iter().map(|pr| &pr.rule)),
            subdbs: FxHashMap::default(),
            diags: Vec::new(),
            absint: Vec::new(),
            contexts: Vec::with_capacity(prog.rules.len() + prog.queries.len()),
        };
        a.check_duplicate_names();
        a.collect_layouts();
        for ri in a.check_stratification() {
            let ctx = a.check_rule(ri);
            a.contexts.push(ctx);
        }
        for (qi, q) in prog.queries.iter().enumerate() {
            let sh = shape(&q.query.context.seq);
            let mut occs = a.resolve_occurrences(&sh, &q.occurrences, &q.name);
            let closure = q.query.context.closure.as_ref();
            let identity_closure = a.check_edges(&sh, &mut occs, closure, &q.name);
            let where_unsat = a.check_wheres(&q.query.where_, &sh, &mut occs, &q.wheres, &q.name);
            a.contexts.push(Context {
                owner: &q.name,
                index: qi,
                target: None,
                sh,
                occs,
                closure: closure.map(|c| c.iterations),
                identity_closure,
                where_unsat,
            });
        }
        a.check_exports();
        a.lint_dead_rules();
        a.lint_duplicates();
        a
    }

    fn src(&self) -> &str {
        &self.prog.source
    }

    fn place(&self, d: Diagnostic, span: Span, owner: &str) -> Diagnostic {
        d.with_span(span, &self.prog.source).with_owner(owner)
    }

    fn err(&mut self, code: &'static str, msg: String, span: Span, owner: &str) {
        let d = self.place(Diagnostic::error(code, msg), span, owner);
        self.diags.push(d);
    }

    fn warn(&mut self, code: &'static str, msg: String, span: Span, owner: &str) {
        let d = self.place(Diagnostic::warning(code, msg), span, owner);
        self.diags.push(d);
    }

    /// File an abstract-interpretation finding (see [`Analyzer::absint`]).
    pub(crate) fn finding(&mut self, d: Diagnostic, span: Span, owner: &str) {
        let d = self.place(d, span, owner);
        self.absint.push(d);
    }

    // ----------------------------------------------------------------
    // Setup passes
    // ----------------------------------------------------------------

    fn check_duplicate_names(&mut self) {
        let mut seen: FxHashSet<&str> = FxHashSet::default();
        let mut dups = Vec::new();
        for pr in &self.prog.rules {
            if !seen.insert(&pr.rule.name) {
                dups.push((pr.rule.name.clone(), pr.header));
            }
        }
        for (name, span) in dups {
            self.err("E016", format!("duplicate rule name `{name}`"), span, &name);
        }
    }

    /// Record each derived subdatabase's slot layout; flag union rules that
    /// disagree on it (E012).
    fn collect_layouts(&mut self) {
        let prog = self.prog;
        for pr in &prog.rules {
            let names = target_names(&pr.rule);
            let open = pr.rule.targets.iter().any(|t| matches!(t, TargetItem::Family { .. }));
            match self.subdbs.get(pr.rule.target_subdb.as_str()) {
                None => {
                    let slots = pr
                        .rule
                        .targets
                        .iter()
                        .filter_map(|t| match t {
                            TargetItem::Class { class, attrs } => Some(SlotInfo {
                                name: &class.name,
                                base: None,
                                attrs: attrs.as_deref(),
                            }),
                            TargetItem::Family { .. } => None,
                        })
                        .collect();
                    self.subdbs.insert(
                        &pr.rule.target_subdb,
                        SubdbInfo { names, slots, open, empty: None },
                    );
                }
                Some(info) => {
                    if info.names != names {
                        let (subdb, name) = (&pr.rule.target_subdb, &pr.rule.name);
                        self.err(
                            "E012",
                            format!(
                                "rule `{name}` derives `{subdb}` with class list ({}) but an \
                                 earlier rule derives it with ({})",
                                names.join(", "),
                                info.names.join(", "),
                            ),
                            pr.spans.target_subdb,
                            name,
                        );
                    }
                }
            }
        }
    }

    /// Topological processing order of rule indices; on a cycle, emit
    /// E014/E015 with the named path and fall back to declaration order.
    fn check_stratification(&mut self) -> Vec<usize> {
        match self.graph.topo_order_ref() {
            Ok(order) => {
                order.iter().flat_map(|name| self.graph.rules_for(name).iter().copied()).collect()
            }
            Err(RuleError::CyclicRules(path)) => {
                self.report_cycle(&path);
                (0..self.prog.rules.len()).collect()
            }
            Err(_) => (0..self.prog.rules.len()).collect(),
        }
    }

    fn report_cycle(&mut self, path: &[String]) {
        let mut negative = false;
        let mut notes = Vec::new();
        let mut owner = None;
        for w in path.windows(2) {
            let (p, q) = (&w[0], &w[1]);
            // `p` depends on `q`: find a deriving rule that reads `q`.
            for &ri in self.graph.rules_for(p) {
                let pr = &self.prog.rules[ri];
                if pr.rule.reads().iter().any(|r| r == q) {
                    let neg = negated_reads(&pr.rule).contains(q.as_str());
                    negative |= neg;
                    notes.push(format!(
                        "`{p}` reads `{q}` in rule `{}`{}",
                        pr.rule.name,
                        if neg { " through a `!` (negated) edge" } else { "" },
                    ));
                    if owner.is_none() {
                        owner = Some((pr.rule.name.clone(), pr.header));
                    }
                    break;
                }
            }
        }
        let (code, what): (&'static str, _) = if negative {
            ("E015", "negation-through-derivation cycle")
        } else {
            ("E014", "cyclic rule dependencies")
        };
        let mut d = Diagnostic::error(
            code,
            format!(
                "{what}: {}; recursion must use the `^*` closure construct instead",
                path.join(" -> ")
            ),
        );
        if let Some((name, span)) = owner {
            d = d.with_span(span, self.src()).with_owner(name);
        }
        for n in notes {
            d = d.with_note(n);
        }
        self.diags.push(d);
    }

    // ----------------------------------------------------------------
    // Per-rule checks
    // ----------------------------------------------------------------

    fn check_rule(&mut self, ri: usize) -> Context<'a> {
        let pr = &self.prog.rules[ri];
        let rule = &pr.rule;
        let name = rule.name.as_str();
        let sh = shape(&rule.context.seq);
        let mut occs = self.resolve_occurrences(&sh, &pr.spans.occurrences, name);
        let closure = rule.context.closure.as_ref();
        let identity_closure = self.check_edges(&sh, &mut occs, closure, name);
        let target_use = self.check_targets(pr, &occs, closure.is_some());
        self.check_safety(pr, &sh, &occs, closure.is_some(), &target_use);
        let where_unsat = self.check_wheres(&rule.where_, &sh, &mut occs, &pr.spans.wheres, name);
        self.fill_slot_bases(pr, &occs);
        let ctx = Context {
            owner: name,
            index: ri,
            target: Some(&rule.target_subdb),
            sh,
            occs,
            closure: closure.map(|c| c.iterations),
            identity_closure,
            where_unsat,
        };
        let empty = self.provably_empty(&ctx);
        if let Some(info) = self.subdbs.get_mut(rule.target_subdb.as_str()) {
            info.empty = Some(info.empty.unwrap_or(true) && empty);
        }
        ctx
    }

    /// Resolve every context occurrence to a base class, reporting
    /// E001/E002/E003 as needed, and E018 for a read of a provably-empty
    /// subdatabase; type-check and abstract each `[...]` condition.
    fn resolve_occurrences(
        &mut self,
        sh: &Shape<'a>,
        spans: &[Span],
        owner: &str,
    ) -> Vec<OccInfo<'a>> {
        let mut out = Vec::with_capacity(sh.occs.len());
        for (i, &(cref, pred)) in sh.occs.iter().enumerate() {
            let span = spans.get(i).copied().unwrap_or_default();
            let base;
            let mut filter = None;
            match cref.subdb.as_deref() {
                Some(sd) => {
                    if let Some(info) = self.subdbs.get(sd) {
                        let empty = info.empty == Some(true) && !self.external.contains(sd);
                        match info.slots.iter().find(|s| s.name == cref.name) {
                            Some(slot) => {
                                base = slot.base;
                                filter = slot.attrs;
                            }
                            None if info.open => {
                                // Open (family-targeted) subdatabase: alias
                                // levels exist only at runtime; resolve the
                                // base class by family name, no verdict on
                                // slot existence.
                                base = self.class_of(&cref.name);
                            }
                            None => {
                                self.err(
                                    "E003",
                                    format!("subdatabase `{sd}` has no class `{}`", cref.name),
                                    span,
                                    owner,
                                );
                                base = self.class_of(&cref.name);
                            }
                        }
                        if empty {
                            self.finding(
                                Diagnostic::error(
                                    "E018",
                                    format!(
                                        "statically-empty context: subdatabase `{sd}` is \
                                         provably empty (no deriving rule can produce a \
                                         pattern)"
                                    ),
                                ),
                                span,
                                owner,
                            );
                        }
                    } else if self.external.contains(sd) {
                        // Externally-registered subdatabase: slots unknown
                        // statically; resolve the base best-effort.
                        base = self.class_of(&cref.name);
                    } else {
                        self.err(
                            "E002",
                            format!(
                                "no rule derives subdatabase `{sd}` and it is not registered"
                            ),
                            span,
                            owner,
                        );
                        base = self.class_of(&cref.name);
                    }
                }
                None => {
                    base = self.class_of(&cref.name);
                    if base.is_none() {
                        self.err(
                            "E001",
                            format!("unknown class `{}`", cref.name),
                            span,
                            owner,
                        );
                    }
                }
            }
            out.push(OccInfo {
                name: &cref.name,
                subdb: cref.subdb.as_deref(),
                base,
                filter,
                pred,
                span,
                edge: Edge::Open,
                env: FxHashMap::default(),
                unsat: false,
                in_where: false,
            });
        }
        // Intra-class predicates: type checks, then the interval lattice.
        for occ in &mut out {
            if let Some(p) = occ.pred {
                self.check_pred(p, occ.base, occ.filter, occ.span, owner);
                self.interpret_condition(occ, owner);
            }
        }
        out
    }

    /// The base class a name denotes: the class itself, or (for a closure
    /// alias like `Part_1`) its family class.
    fn class_of(&self, name: &str) -> Option<ClassId> {
        self.schema.try_class_by_name(name).or_else(|| {
            let (family, level) = ClassRef::split_alias(name);
            (level > 0).then(|| self.schema.try_class_by_name(family)).flatten()
        })
    }

    /// Recursively type-check an intra-class predicate against a class.
    fn check_pred(
        &mut self,
        pred: &Pred,
        base: Option<ClassId>,
        filter: Option<&[String]>,
        span: Span,
        owner: &str,
    ) {
        match pred {
            Pred::And(a, b) | Pred::Or(a, b) => {
                self.check_pred(a, base, filter, span, owner);
                self.check_pred(b, base, filter, span, owner);
            }
            Pred::Not(p) => self.check_pred(p, base, filter, span, owner),
            Pred::Cmp { attr, value, .. } => {
                if let Some(dt) = self.check_attr(base, filter, attr, span, owner) {
                    self.check_comparable(dt, Some(literal_dtype(value)), attr, span, owner);
                }
            }
        }
    }

    /// Resolve an attribute on a class (reporting E006/E008) and return its
    /// value type when known.
    fn check_attr(
        &mut self,
        base: Option<ClassId>,
        filter: Option<&[String]>,
        attr: &str,
        span: Span,
        owner: &str,
    ) -> Option<DType> {
        let base = base?;
        if let Some(list) = filter {
            if !list.iter().any(|a| a == attr) {
                let class = self.schema.class(base).name.clone();
                self.err(
                    "E008",
                    format!(
                        "attribute `{attr}` of `{class}` was projected away by the deriving \
                         rule's THEN clause and is not accessible here"
                    ),
                    span,
                    owner,
                );
                return None;
            }
        }
        match self.schema.resolve_attr(base, attr) {
            Ok(ra) => self.schema.attr_dtype(ra.attr),
            Err(e) => {
                self.err("E006", e.to_string(), span, owner);
                None
            }
        }
    }

    /// Report E007 when two value types cannot be compared.
    fn check_comparable(
        &mut self,
        left: DType,
        right: Option<DType>,
        what: &str,
        span: Span,
        owner: &str,
    ) {
        let Some(right) = right else { return };
        let numeric = |d: DType| matches!(d, DType::Int | DType::Real);
        if left != right && !(numeric(left) && numeric(right)) {
            self.err(
                "E007",
                format!("`{what}` has type {left} but is compared with a {right} value"),
                span,
                owner,
            );
        }
    }

    /// Check every association-pattern edge (E004/E005), including the
    /// closure's cycle-back edge, and record how each resolved; lint
    /// unavoidable cross products (W106), unbounded closures that
    /// re-traverse a chain association (W107), join blowup (W109) and dead
    /// closure levels (W110). Returns whether the context is an identity
    /// closure.
    fn check_edges(
        &mut self,
        sh: &Shape<'_>,
        occs: &mut [OccInfo<'_>],
        closure: Option<&ClosureSpec>,
        owner: &str,
    ) -> bool {
        for i in 0..sh.ops.len() {
            occs[i].edge = self.check_edge(&occs[i], &occs[i + 1], owner);
            // W106: a `!` edge is evaluated as a complement scan of the
            // target slot's extent. The planner may direct it either way,
            // so one conditioned (or subdatabase-restricted) endpoint is
            // enough to bound it — but when *both* endpoints are
            // unconstrained, every join order pays a full cross-product
            // stage over the two extents.
            if matches!(sh.ops[i], PatOp::NonAssoc) {
                let unconstrained = |k: usize| occs[k].pred.is_none() && occs[k].subdb.is_none();
                if unconstrained(i) && unconstrained(i + 1) {
                    self.warn(
                        "W106",
                        format!(
                            "`!` between unconditioned `{}` and `{}` is an \
                             unconstrained cross-product stage under every join \
                             order; add a `[...]` condition to either side",
                            occs[i].name,
                            occs[i + 1].name
                        ),
                        occs[i].span,
                        owner,
                    );
                }
            }
        }
        let Some(spec) = closure else {
            self.lint_join_blowup(sh, occs, owner);
            return false;
        };
        let n = occs.len();
        let back = match n {
            0 => return false,
            1 => self.check_edge(&occs[0], &occs[0], owner),
            _ => self.check_edge(&occs[n - 1], &occs[0], owner),
        };
        // W107: an unbounded closure whose cycle-back edge re-traverses an
        // association already on the chain walks a schema-cyclic loop — any
        // data cycle through it multiplies the emitted chains, bounded only
        // by the per-chain cycle cut. A `^N` bound caps the fixpoint instead.
        if let Edge::Assoc { assoc: back_assoc, .. } = back {
            let on_chain = occs[..n - 1]
                .iter()
                .any(|o| matches!(o.edge, Edge::Assoc { assoc, .. } if assoc == back_assoc));
            if n >= 2 && spec.iterations.is_none() && on_chain {
                self.warn(
                    "W107",
                    format!(
                        "unbounded `^*` re-traverses association `{}` already \
                         on the chain: chain count is limited only by the \
                         cycle cut; consider a `^N` iteration bound",
                        self.schema.assoc(back_assoc).name
                    ),
                    occs[0].span,
                    owner,
                );
            }
        }
        self.identity_closure(occs, back, spec.iterations, owner)
    }

    /// How the edge between two occurrences resolves; E004/E005 when it
    /// does not. Two slots of one derived subdatabase are linked by the
    /// derived direct associations, which runtime resolution handles.
    fn check_edge(&mut self, a: &OccInfo<'_>, b: &OccInfo<'_>, owner: &str) -> Edge {
        if a.subdb.is_some() && a.subdb == b.subdb {
            return Edge::Open;
        }
        let (Some(ca), Some(cb)) = (a.base, b.base) else { return Edge::Open };
        match self.schema.resolve_edge(ca, cb) {
            Ok(ResolvedEdge::Assoc { assoc, forward, .. }) => Edge::Assoc { assoc, forward },
            Ok(ResolvedEdge::Identity { .. }) => Edge::Identity,
            Err(e @ ResolveError::Ambiguous { .. }) => {
                self.err("E004", e.to_string(), a.span, owner);
                Edge::Open
            }
            Err(e) => {
                self.err("E005", e.to_string(), a.span, owner);
                Edge::Open
            }
        }
    }

    /// Validate THEN-clause targets (E011); returns the set of occurrence
    /// indices used by targets (for the safety pass).
    fn check_targets(
        &mut self,
        pr: &ProgramRule,
        occs: &[OccInfo<'_>],
        closed: bool,
    ) -> FxHashSet<usize> {
        let rule = &pr.rule;
        let name = rule.name.as_str();
        let mut used = FxHashSet::default();
        for (ti, t) in rule.targets.iter().enumerate() {
            let span = pr.spans.targets.get(ti).copied().unwrap_or(pr.spans.target_subdb);
            match t {
                TargetItem::Class { class, attrs } => {
                    let matches: Vec<usize> = occs
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| names_occurrence(class, o))
                        .map(|(i, _)| i)
                        .collect();
                    match matches.len() {
                        0 => {
                            let (family, level) = ClassRef::split_alias(&class.name);
                            let alias_ok = closed
                                && level >= 1
                                && occs.iter().any(|o| o.name == family);
                            if !alias_ok {
                                self.err(
                                    "E011",
                                    format!(
                                        "target `{class}` is not a class of the IF clause"
                                    ),
                                    span,
                                    name,
                                );
                            }
                        }
                        1 => {
                            used.insert(matches[0]);
                            if let Some(list) = attrs {
                                let base = occs[matches[0]].base;
                                for a in list {
                                    self.check_attr(base, None, a, span, name);
                                }
                            }
                        }
                        _ => {
                            self.err(
                                "E011",
                                format!(
                                    "target `{class}` matches {} classes of the IF clause; \
                                     qualify it",
                                    matches.len()
                                ),
                                span,
                                name,
                            );
                        }
                    }
                }
                TargetItem::Family { base } => {
                    if !closed {
                        self.err(
                            "E011",
                            format!(
                                "family target `{base}_*` requires a cyclic (`^*`) IF clause"
                            ),
                            span,
                            name,
                        );
                    } else if let Some(i) = occs.iter().position(|o| o.name == base.as_str()) {
                        used.insert(i);
                    } else {
                        self.err(
                            "E011",
                            format!("family target `{base}_*` has no base class `{base}` \
                                     in the IF clause"),
                            span,
                            name,
                        );
                    }
                }
            }
        }
        used
    }

    /// Safety / range restriction: an occurrence constrained only by `!`
    /// edges has no positive binding. Feeding a THEN target from it is an
    /// error (E013); otherwise it draws a warning (W101).
    fn check_safety(
        &mut self,
        pr: &ProgramRule,
        sh: &Shape<'_>,
        occs: &[OccInfo],
        closed: bool,
        target_use: &FxHashSet<usize>,
    ) {
        let name = pr.rule.name.as_str();
        let n = occs.len();
        for i in 0..n {
            if n == 1 {
                break; // a single-class context is its class extent: bound.
            }
            let mut bound = false;
            if i > 0 && sh.ops[i - 1] == PatOp::Assoc {
                bound = true;
            }
            if i < sh.ops.len() && sh.ops[i] == PatOp::Assoc {
                bound = true;
            }
            // The closure's cycle-back edge is a positive association.
            if closed && (i == 0 || i == n - 1) {
                bound = true;
            }
            if bound {
                continue;
            }
            let occ = &occs[i];
            if target_use.contains(&i) {
                self.err(
                    "E013",
                    format!(
                        "target class `{}` is bound only by `!` (non-association) edges; \
                         a derived slot needs a positive `*` binding",
                        occ.name
                    ),
                    occ.span,
                    &name,
                );
            } else {
                self.warn(
                    "W101",
                    format!(
                        "class `{}` is bound only by `!` (non-association) edges",
                        occ.name
                    ),
                    occ.span,
                    &name,
                );
            }
        }
    }

    /// WHERE-condition checks: operands must name IF-clause classes (E009),
    /// attributes must resolve (E006/E008) with comparable types (E007),
    /// and SUM/AVG need numeric attributes (E010). Also the W104
    /// Null-propagation lint for brace retention, and the interval lattice
    /// (E017/W108). Returns whether some condition admits nothing.
    fn check_wheres(
        &mut self,
        conds: &[WhereCond],
        sh: &Shape<'_>,
        occs: &mut [OccInfo<'_>],
        spans: &[Span],
        owner: &str,
    ) -> bool {
        let mut unsat = false;
        for (wi, cond) in conds.iter().enumerate() {
            let span = spans.get(wi).copied().unwrap_or_default();
            // The left operand of a comparison and its attribute's type.
            let mut operand = None;
            match cond {
                WhereCond::Agg { func, target, attr, by, op: _, value } => {
                    let t = self.match_operand(occs, target, span, owner);
                    if let Some(b) = by {
                        self.match_operand(occs, b, span, owner);
                    }
                    let dt = match (t, attr) {
                        (Some(ti), Some(a)) => {
                            let (base, filter) = (occs[ti].base, occs[ti].filter);
                            self.check_attr(base, filter, a, span, owner)
                        }
                        _ => None,
                    };
                    match func {
                        AggFunc::Count => {
                            // COUNT yields an integer whatever it counts.
                            self.check_comparable(
                                DType::Int,
                                Some(literal_dtype(value)),
                                "count(...)",
                                span,
                                owner,
                            );
                        }
                        AggFunc::Sum | AggFunc::Avg => {
                            if let Some(dt) = dt {
                                if !matches!(dt, DType::Int | DType::Real) {
                                    let a = attr.as_deref().unwrap_or("?");
                                    self.err(
                                        "E010",
                                        format!(
                                            "{func:?}(...) needs a numeric attribute, but \
                                             `{a}` has type {dt}"
                                        ),
                                        span,
                                        owner,
                                    );
                                } else {
                                    self.check_comparable(
                                        dt,
                                        Some(literal_dtype(value)),
                                        attr.as_deref().unwrap_or("?"),
                                        span,
                                        owner,
                                    );
                                }
                            }
                        }
                        AggFunc::Min | AggFunc::Max => {
                            if let Some(dt) = dt {
                                self.check_comparable(
                                    dt,
                                    Some(literal_dtype(value)),
                                    attr.as_deref().unwrap_or("?"),
                                    span,
                                    owner,
                                );
                            }
                        }
                    }
                }
                WhereCond::Cmp { left: (cref, attr), op, right } => {
                    let li = self.match_operand(occs, cref, span, owner);
                    let ldt = li.and_then(|i| {
                        let (base, filter) = (occs[i].base, occs[i].filter);
                        self.check_attr(base, filter, attr, span, owner)
                    });
                    let rdt = match right {
                        CmpRhs::Lit(l) => Some(literal_dtype(l)),
                        CmpRhs::Attr(rc, ra) => {
                            let ri = self.match_operand(occs, rc, span, owner);
                            ri.and_then(|i| {
                                occs[i].in_where = true;
                                let (base, filter) = (occs[i].base, occs[i].filter);
                                self.check_attr(base, filter, ra, span, owner)
                            })
                        }
                    };
                    if let Some(ldt) = ldt {
                        self.check_comparable(ldt, rdt, &format!("{cref}.{attr}"), span, owner);
                    }
                    // W104: brace retention injects Null into slots outside
                    // the retained span; `=` never matches Null, so such
                    // retained patterns are silently dropped here.
                    if *op == CmpOp::Eq {
                        if let Some(i) = li {
                            if sh.groups.iter().any(|&(lo, hi)| i < lo || i > hi) {
                                self.warn(
                                    "W104",
                                    format!(
                                        "`{{...}}` retention can leave `{cref}` Null in \
                                         retained patterns, and `=` never matches Null; \
                                         those patterns are dropped by this comparison"
                                    ),
                                    span,
                                    owner,
                                );
                            }
                        }
                    }
                    if let Some(i) = li {
                        occs[i].in_where = true;
                    }
                    operand = li.zip(ldt);
                }
            }
            let operand = operand.map(|(i, dt)| (&mut occs[i], dt));
            unsat |= self.interpret_where(cond, operand, span, owner);
        }
        unsat
    }

    /// Match a WHERE operand to a context occurrence (E009 on failure).
    fn match_operand(
        &mut self,
        occs: &[OccInfo<'_>],
        r: &ClassRef,
        span: Span,
        owner: &str,
    ) -> Option<usize> {
        let mut matches = occs.iter().enumerate().filter(|(_, o)| names_occurrence(r, o));
        let (first, more) = (matches.next(), matches.count());
        match (first, more) {
            (Some((i, _)), 0) => Some(i),
            (None, _) => {
                // Closure alias levels (`Grad_2`) are legal operands when
                // the family class appears in a cyclic context.
                let (family, level) = ClassRef::split_alias(&r.name);
                let alias_ok = level >= 1 && occs.iter().any(|o| o.name == family);
                if !alias_ok {
                    self.err(
                        "E009",
                        format!("WHERE operand `{r}` is not a class of the context"),
                        span,
                        owner,
                    );
                }
                None
            }
            (Some(_), _) => {
                self.err(
                    "E009",
                    format!("WHERE operand `{r}` matches several context classes; qualify it"),
                    span,
                    owner,
                );
                None
            }
        }
    }

    /// After checking a rule, back-fill the base classes of its target
    /// subdatabase's slots (E012 when union rules disagree on a base).
    fn fill_slot_bases(&mut self, pr: &ProgramRule, occs: &[OccInfo<'_>]) {
        let rule = &pr.rule;
        // Each non-family target takes its occurrence's base.
        let bases = rule.targets.iter().filter_map(|t| match t {
            TargetItem::Class { class, .. } => {
                Some(occs.iter().find(|o| names_occurrence(class, o)).and_then(|o| o.base))
            }
            TargetItem::Family { .. } => None,
        });
        let mut mismatch = None;
        if let Some(info) = self.subdbs.get_mut(rule.target_subdb.as_str()) {
            for (slot, base) in info.slots.iter_mut().zip(bases) {
                match (slot.base, base) {
                    (None, Some(b)) => slot.base = Some(b),
                    (Some(prev), Some(b)) if prev != b => {
                        mismatch = Some((slot.name, prev, b));
                    }
                    _ => {}
                }
            }
        }
        if let Some((slot, prev, b)) = mismatch {
            let (prev, b) = (&self.schema.class(prev).name, &self.schema.class(b).name);
            let msg = format!(
                "rule `{}` derives slot `{slot}` of `{}` from class `{b}`, but an \
                 earlier rule derives it from `{prev}`",
                rule.name, rule.target_subdb
            );
            self.err("E012", msg, pr.spans.target_subdb, &rule.name);
        }
    }

    // ----------------------------------------------------------------
    // Program-level checks and lints
    // ----------------------------------------------------------------

    fn check_exports(&mut self) {
        let prog = self.prog;
        for (name, span) in &prog.exports {
            if !self.subdbs.contains_key(name.as_str()) && !self.external.contains(name) {
                self.err(
                    "E002",
                    format!("exported subdatabase `{name}` is derived by no rule"),
                    *span,
                    "export",
                );
            }
        }
    }

    /// W102: rules deriving subdatabases that no query, export, or live
    /// downstream rule ever reads. Only meaningful when the program states
    /// its outputs (has at least one query or export).
    fn lint_dead_rules(&mut self) {
        if self.prog.queries.is_empty() && self.prog.exports.is_empty() {
            return;
        }
        let mut live: FxHashSet<String> = FxHashSet::default();
        let mut frontier: Vec<String> = Vec::new();
        for (name, _) in &self.prog.exports {
            frontier.push(name.clone());
        }
        for q in &self.prog.queries {
            frontier.extend(referenced_subdbs(&q.query));
        }
        while let Some(name) = frontier.pop() {
            if !live.insert(name.clone()) {
                continue;
            }
            for dep in self.graph.deps_of(&name) {
                frontier.push(dep.clone());
            }
        }
        let mut dead = Vec::new();
        for pr in &self.prog.rules {
            if !live.contains(&pr.rule.target_subdb) {
                dead.push((
                    pr.rule.name.clone(),
                    pr.rule.target_subdb.clone(),
                    pr.header,
                ));
            }
        }
        for (rule, subdb, span) in dead {
            self.warn(
                "W102",
                format!(
                    "dead rule: `{subdb}` is never read by a query, an export, or a \
                     live downstream rule"
                ),
                span,
                &rule,
            );
        }
    }

    /// W103: two rules with identical bodies (same context, WHERE, target
    /// subdatabase, and targets).
    fn lint_duplicates(&mut self) {
        let rules = &self.prog.rules;
        let mut dups = Vec::new();
        for j in 1..rules.len() {
            for i in 0..j {
                let (a, b) = (&rules[i].rule, &rules[j].rule);
                // Cheapest comparison first: most pairs differ in target.
                if a.target_subdb == b.target_subdb
                    && a.targets == b.targets
                    && a.where_ == b.where_
                    && a.context == b.context
                {
                    dups.push((b.name.clone(), a.name.clone(), rules[j].header));
                    break;
                }
            }
        }
        for (dup, orig, span) in dups {
            self.warn(
                "W103",
                format!("rule `{dup}` duplicates the body of rule `{orig}`"),
                span,
                &dup,
            );
        }
    }
}

/// Subdatabases a rule reads exclusively through occurrences whose every
/// incident edge is `!` (non-association) — the negated reads that make a
/// dependency cycle a negation-through-derivation cycle (E015).
fn negated_reads(rule: &Rule) -> FxHashSet<String> {
    let sh = shape(&rule.context.seq);
    let n = sh.occs.len();
    let mut positive: FxHashSet<&str> = FxHashSet::default();
    let mut negative: FxHashSet<&str> = FxHashSet::default();
    for (i, (cref, _)) in sh.occs.iter().enumerate() {
        let Some(sd) = &cref.subdb else { continue };
        let mut any_pos = n == 1;
        if i > 0 && sh.ops[i - 1] == PatOp::Assoc {
            any_pos = true;
        }
        if i < sh.ops.len() && sh.ops[i] == PatOp::Assoc {
            any_pos = true;
        }
        if rule.context.closure.is_some() && (i == 0 || i == n - 1) {
            any_pos = true;
        }
        if any_pos {
            positive.insert(sd.as_str());
        } else {
            negative.insert(sd.as_str());
        }
    }
    negative
        .into_iter()
        .filter(|s| !positive.contains(s))
        .map(|s| s.to_string())
        .collect()
}

/// Whether a class reference names an occurrence: the same class, and the
/// same subdatabase when the reference is qualified.
fn names_occurrence(r: &ClassRef, o: &OccInfo<'_>) -> bool {
    o.name == r.name && r.subdb.as_ref().is_none_or(|s| o.subdb == Some(s.as_str()))
}

fn literal_dtype(l: &Literal) -> DType {
    match l {
        Literal::Int(_) => DType::Int,
        Literal::Real(_) => DType::Real,
        Literal::Str(_) => DType::Str,
    }
}

// ====================================================================
// Diagnostic code documentation
// ====================================================================

/// Documentation for one diagnostic code — the single source of truth
/// behind `doodlint --explain`, `doodlint --allow` validation, and the
/// README code table.
pub struct CodeDoc {
    /// The code, e.g. `"E004"`.
    pub code: &'static str,
    /// Its severity class.
    pub severity: diag::Severity,
    /// One-line summary (README table cell).
    pub summary: &'static str,
    /// A short paragraph for `--explain`: what triggers it and what to do.
    pub detail: &'static str,
}

/// Every diagnostic code the rule toolchain can emit, in code order.
pub fn codes() -> &'static [CodeDoc] {
    use diag::Severity::{Error, Warning};
    const CODES: &[CodeDoc] = &[
        CodeDoc {
            code: "E001",
            severity: Error,
            summary: "unknown class in a context expression",
            detail: "An unqualified occurrence names a class the schema does not \
                     declare (closure family aliases like `Part_2` resolve through \
                     their family class).",
        },
        CodeDoc {
            code: "E002",
            severity: Error,
            summary: "reference to an underivable subdatabase",
            detail: "A qualified occurrence (`Subdb:Class`) names a subdatabase that no \
                     rule in scope derives and that is not declared `extern`.",
        },
        CodeDoc {
            code: "E003",
            severity: Error,
            summary: "class not in the subdatabase's derived layout",
            detail: "A qualified occurrence names a class that the deriving rule's THEN \
                     clause does not place in the target subdatabase.",
        },
        CodeDoc {
            code: "E004",
            severity: Error,
            summary: "no association between a linked pair",
            detail: "Two occurrences joined by `*` or `!` have no association (or \
                     generalization path) connecting their classes in the schema.",
        },
        CodeDoc {
            code: "E005",
            severity: Error,
            summary: "ambiguous association between a linked pair",
            detail: "More than one schema association connects the pair, and the \
                     expression does not disambiguate which one is meant.",
        },
        CodeDoc {
            code: "E006",
            severity: Error,
            summary: "unknown attribute",
            detail: "A `[...]` condition or WHERE operand references an attribute the \
                     class (or its generalization ancestors) does not declare.",
        },
        CodeDoc {
            code: "E007",
            severity: Error,
            summary: "incomparable value types",
            detail: "A comparison mixes value types that have no common order (e.g. a \
                     string attribute against an integer literal); Int and Real \
                     inter-compare freely.",
        },
        CodeDoc {
            code: "E008",
            severity: Error,
            summary: "attribute projected away by the deriving rule",
            detail: "A qualified occurrence uses an attribute that the deriving rule's \
                     THEN clause explicitly projected out of the target subdatabase.",
        },
        CodeDoc {
            code: "E009",
            severity: Error,
            summary: "query operand does not match the context",
            detail: "A SELECT/display operand names a class (or attribute) that the \
                     query's context expression does not bind.",
        },
        CodeDoc {
            code: "E010",
            severity: Error,
            summary: "ill-typed aggregation",
            detail: "A WHERE aggregate is mis-applied: `sum`/`avg` over a non-numeric \
                     attribute, or a threshold of a type the aggregate cannot produce.",
        },
        CodeDoc {
            code: "E011",
            severity: Error,
            summary: "THEN target not bound by the IF clause",
            detail: "A THEN-clause class (or its attribute restriction) does not appear \
                     as a positive occurrence in the rule's context expression.",
        },
        CodeDoc {
            code: "E012",
            severity: Error,
            summary: "union rules disagree on the target layout",
            detail: "Two rules derive the same subdatabase with incompatible THEN \
                     layouts (different classes or attribute restrictions); union \
                     semantics require an agreed layout.",
        },
        CodeDoc {
            code: "E013",
            severity: Error,
            summary: "derived slot bound only by `!` edges",
            detail: "A THEN target's occurrence is constrained only by non-association \
                     (`!`) edges, so the derivation is not range-restricted; bind it \
                     with at least one positive `*` edge.",
        },
        CodeDoc {
            code: "E014",
            severity: Error,
            summary: "cyclic rule dependencies",
            detail: "Rule derivations form a dependency cycle (the full named path is \
                     reported); stratify the program to break it.",
        },
        CodeDoc {
            code: "E015",
            severity: Error,
            summary: "negation through a derivation cycle",
            detail: "A dependency cycle passes through a negated (`!`) read of a \
                     derived subdatabase — the classic unstratifiable-negation shape.",
        },
        CodeDoc {
            code: "E016",
            severity: Error,
            summary: "duplicate rule name",
            detail: "Two rules in the program share a name; rule names must be unique \
                     (subdatabase names may be shared — that is union semantics).",
        },
        CodeDoc {
            code: "E017",
            severity: Error,
            summary: "statically-unsatisfiable predicate",
            detail: "Abstract interpretation proved a `[...]` condition or WHERE \
                     comparison admits no value: contradictory bounds (`x > 3 and \
                     x < 4` over Int), an excluded point (`x = 5 and x != 5`), or a \
                     threshold outside an aggregate's domain (`count(...) < 0`). The \
                     rule can never produce a pattern.",
        },
        CodeDoc {
            code: "E018",
            severity: Error,
            summary: "statically-empty context",
            detail: "A rule or query reads a derived subdatabase that abstract \
                     interpretation proved empty (every deriving rule has an \
                     unsatisfiable predicate or an empty source of its own), so this \
                     context is provably empty too.",
        },
        CodeDoc {
            code: "P001",
            severity: Error,
            summary: "malformed program directive or section header",
            detail: "The program scanner could not parse a directive (`schema`, \
                     `export`, `extern`, `allow`, a rule or query header). The rest of \
                     the program is still scanned, but the offending line is skipped.",
        },
        CodeDoc {
            code: "W101",
            severity: Warning,
            summary: "occurrence bound only by `!` edges",
            detail: "A non-target occurrence is constrained only by non-association \
                     edges; it ranges over the whole extent minus linked pairs, which \
                     is rarely what was meant.",
        },
        CodeDoc {
            code: "W102",
            severity: Warning,
            summary: "dead rule",
            detail: "The rule's target subdatabase is never read by a query, an \
                     export, or a live downstream rule.",
        },
        CodeDoc {
            code: "W103",
            severity: Warning,
            summary: "duplicate rule bodies",
            detail: "Two rules have structurally identical IF/WHERE/THEN bodies; the \
                     second contributes nothing under union semantics.",
        },
        CodeDoc {
            code: "W104",
            severity: Warning,
            summary: "brace-retention Null reaches a comparison",
            detail: "A WHERE `=` comparison references a slot outside a `{...}` \
                     retention group; retained patterns carry Null there and are \
                     silently dropped by the comparison.",
        },
        CodeDoc {
            code: "W105",
            severity: Warning,
            summary: "forward rule reads a backward-derived source",
            detail: "Under rule-oriented control a forward-chaining rule reading a \
                     backward-derived subdatabase goes silently stale when the source \
                     is absent (the paper's §6 staleness hazard).",
        },
        CodeDoc {
            code: "W106",
            severity: Warning,
            summary: "`!` edge evaluates as a cross product",
            detail: "The best static plan for a non-association edge is still an \
                     unconstrained cross-product stage; add conditions to narrow one \
                     side.",
        },
        CodeDoc {
            code: "W107",
            severity: Warning,
            summary: "unbounded closure re-traverses an association",
            detail: "A `^*` closure's cycle-back edge re-traverses an association \
                     already on the chain, a shape that often loops over the same \
                     links; bound it with `^N` if unintended.",
        },
        CodeDoc {
            code: "W108",
            severity: Warning,
            summary: "predicate subsumed by earlier constraints",
            detail: "Abstract interpretation proved a WHERE condition is implied by \
                     the constraints already established on the same attribute (or is \
                     vacuous over an aggregate's domain): it can never drop a pattern.",
        },
        CodeDoc {
            code: "W109",
            severity: Warning,
            summary: "join blowup",
            detail: "A non-closure chain crosses two or more wide (Many-cardinality) \
                     association edges with no narrowing condition on any slot; the \
                     worst-case extent grows multiplicatively with every wide edge.",
        },
        CodeDoc {
            code: "W110",
            severity: Warning,
            summary: "closure bound provably exceeds schema reach",
            detail: "Every chain and cycle edge of the `^N` closure is a \
                     generalization identity, so the fixpoint terminates at level 1 \
                     and the declared levels beyond it are provably dead.",
        },
    ];
    CODES
}

/// Look up one code's documentation (`doodlint --explain`).
pub fn explain(code: &str) -> Option<&'static CodeDoc> {
    let up = code.to_ascii_uppercase();
    codes().iter().find(|c| c.code == up)
}
