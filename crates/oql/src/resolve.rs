//! Name and edge resolution: from the parsed AST to a [`ResolvedContext`]
//! ready for evaluation.
//!
//! Resolution handles:
//! * base classes, auto-aliases (`Course_1` → base `Course`, paper §5.2),
//!   and subdatabase-qualified classes (`Suggest_offer:Course`, §4.1);
//! * adjacency edges, preferring a **derived direct association** when both
//!   operands descend (through chains of induced generalizations) from
//!   slots of one common subdatabase whose intension connects them — this
//!   is how `SD1:A * SD2:C` works in Fig. 4.2 — and falling back to
//!   base-schema resolution (inheritance rules of §3.2) otherwise;
//! * brace structure → *retention spans* (paper §5.1): the full expression
//!   plus, recursively, each braced subexpression;
//! * the closure marker `^*`/`^N` (paper §5.2), whose cycle edge connects
//!   the last class occurrence back to the first.

use crate::ast::{ClassRef, ClosureSpec, ContextExpr, Item, PatOp, Pred, Seq};
use crate::error::QueryError;
use dood_core::ids::ClassId;
use dood_core::schema::{ResolvedEdge, Schema};
use dood_core::subdb::{SlotSource, SubdbRegistry};

/// The most class occurrences a non-closure context may have: each of its
/// patterns has a one-word [`dood_core::subdb::PatternType`]. A closure
/// result is as wide as its longest chain and has no such bound.
pub const MAX_CONTEXT_SLOTS: usize = 64;

/// A resolved class occurrence.
#[derive(Debug, Clone)]
pub struct RSlot {
    /// Display name (possibly alias-suffixed).
    pub name: String,
    /// Base class of the occurrence.
    pub base: ClassId,
    /// `Some((subdb, slot_name))` when the occurrence ranges over a derived
    /// subdatabase's class rather than the base extent.
    pub derived: Option<(String, String)>,
    /// Attribute accessibility restriction inherited from the derived
    /// slot's THEN clause, if any (`None` = all attributes).
    pub attr_filter: Option<Vec<String>>,
    /// Intra-class condition (uncompiled; attribute resolution happens at
    /// evaluation against the base class).
    pub cond: Option<Pred>,
}

/// How an adjacency edge is traversed.
#[derive(Debug, Clone)]
pub enum REdgeKind {
    /// Resolved against the base schema (paper §3.2 semantics).
    Base(ResolvedEdge),
    /// Traversed through the extensional patterns of a derived subdatabase
    /// whose intension directly associates the two (ancestor) slots.
    Derived {
        /// The common ancestor subdatabase.
        subdb: String,
        /// Slot index of the left operand's ancestor in that subdatabase.
        a: usize,
        /// Slot index of the right operand's ancestor.
        b: usize,
    },
}

/// A resolved adjacency edge.
#[derive(Debug, Clone)]
pub struct REdge {
    /// `*` or `!`.
    pub op: PatOp,
    /// Traversal strategy.
    pub kind: REdgeKind,
}

/// The fully resolved context expression.
#[derive(Debug, Clone)]
pub struct ResolvedContext {
    /// Class occurrences in order.
    pub slots: Vec<RSlot>,
    /// `slots.len() - 1` adjacency edges.
    pub edges: Vec<REdge>,
    /// Retention spans `[lo, hi)`, full span first.
    pub spans: Vec<(usize, usize)>,
    /// Closure: `(spec, cycle edge from last slot back to slot 0)`.
    pub closure: Option<(ClosureSpec, REdgeKind)>,
}

/// The ancestry chain of a class occurrence through induced generalizations:
/// `[(subdb, slot_name), …]` from the occurrence's own subdatabase to the
/// slot that ranges over the base class. The names are borrowed from the
/// registry, so a chain level costs no allocation.
fn source_chain<'r>(
    registry: &'r SubdbRegistry,
    subdb: &str,
    slot_name: &str,
) -> Result<Vec<(&'r str, &'r str)>, QueryError> {
    let mut out = Vec::new();
    let (mut cur_subdb, mut cur_slot) = (subdb, slot_name);
    loop {
        let (s, slot_idx) = registry.resolve_qualified(cur_subdb, cur_slot).ok_or_else(|| {
            match registry.subdb(cur_subdb) {
                None => QueryError::UnknownSubdb(cur_subdb.to_string()),
                Some(_) => QueryError::UnknownSubdbClass {
                    subdb: cur_subdb.to_string(),
                    class: cur_slot.to_string(),
                },
            }
        })?;
        let def = &s.intension.slots[slot_idx];
        out.push((s.name.as_str(), def.name.as_str()));
        match &def.source {
            SlotSource::Base => break,
            SlotSource::Derived { subdb, slot } => (cur_subdb, cur_slot) = (subdb, slot),
        }
    }
    Ok(out)
}

/// Resolve a class reference to a slot.
fn resolve_classref(
    class: &ClassRef,
    cond: Option<Pred>,
    schema: &Schema,
    registry: &SubdbRegistry,
) -> Result<RSlot, QueryError> {
    match &class.subdb {
        Some(subdb) => {
            let (s, idx) = registry.resolve_qualified(subdb, &class.name).ok_or_else(|| {
                match registry.subdb(subdb) {
                    None => QueryError::UnknownSubdb(subdb.clone()),
                    Some(_) => QueryError::UnknownSubdbClass {
                        subdb: subdb.clone(),
                        class: class.name.clone(),
                    },
                }
            })?;
            let def = &s.intension.slots[idx];
            Ok(RSlot {
                name: class.name.clone(),
                base: def.base,
                derived: Some((subdb.clone(), class.name.clone())),
                attr_filter: def.attrs.clone(),
                cond,
            })
        }
        None => {
            // Base class, possibly alias-suffixed.
            if let Some(id) = schema.try_class_by_name(&class.name) {
                return Ok(RSlot {
                    name: class.name.clone(),
                    base: id,
                    derived: None,
                    attr_filter: None,
                    cond,
                });
            }
            let (family, level) = ClassRef::split_alias(&class.name);
            if level > 0 {
                if let Some(id) = schema.try_class_by_name(family) {
                    return Ok(RSlot {
                        name: class.name.clone(),
                        base: id,
                        derived: None,
                        attr_filter: None,
                        cond,
                    });
                }
            }
            Err(QueryError::Resolve(dood_core::error::ResolveError::UnknownClass(
                class.name.clone(),
            )))
        }
    }
}

/// Resolve the edge between two adjacent slots.
pub fn resolve_adjacency(
    a: &RSlot,
    b: &RSlot,
    schema: &Schema,
    registry: &SubdbRegistry,
) -> Result<REdgeKind, QueryError> {
    // Derived direct association through a common ancestor subdatabase
    // (inner-most common ancestor wins; paper Fig. 4.2).
    if let (Some((sa, na)), Some((sb, nb))) = (&a.derived, &b.derived) {
        let chain_a = source_chain(registry, sa, na)?;
        let chain_b = source_chain(registry, sb, nb)?;
        for &(s_a, n_a) in &chain_a {
            for &(s_b, n_b) in &chain_b {
                if s_a == s_b {
                    let sd = registry.subdb(s_a).expect("chain entries are registered");
                    let (Some(ia), Some(ib)) = (
                        sd.intension.slot_by_name(n_a),
                        sd.intension.slot_by_name(n_b),
                    ) else {
                        continue;
                    };
                    if sd.intension.has_edge(ia, ib) {
                        return Ok(REdgeKind::Derived { subdb: s_a.to_string(), a: ia, b: ib });
                    }
                }
            }
        }
    }
    // Half-derived case: one side derived, check whether its ancestor
    // subdatabase connects a slot of the same name as the base side … not
    // applicable: base classes live in the original database. Fall through.
    let edge = schema.resolve_edge(a.base, b.base)?;
    Ok(REdgeKind::Base(edge))
}

/// Flatten a [`Seq`] (recursively) into slots, edges and retention spans.
fn flatten(
    seq: &Seq,
    schema: &Schema,
    registry: &SubdbRegistry,
    slots: &mut Vec<RSlot>,
    edges: &mut Vec<(PatOp, usize)>, // (op, left slot index); edge i connects i, i+1
    spans: &mut Vec<(usize, usize)>,
) -> Result<(), QueryError> {
    let handle_item = |item: &Item,
                           slots: &mut Vec<RSlot>,
                           edges: &mut Vec<(PatOp, usize)>,
                           spans: &mut Vec<(usize, usize)>|
     -> Result<(), QueryError> {
        match item {
            Item::Class { class, cond } => {
                slots.push(resolve_classref(class, cond.clone(), schema, registry)?);
                Ok(())
            }
            Item::Group(inner) => {
                let lo = slots.len();
                flatten(inner, schema, registry, slots, edges, spans)?;
                let hi = slots.len();
                spans.push((lo, hi));
                Ok(())
            }
        }
    };
    handle_item(&seq.first, slots, edges, spans)?;
    for (op, item) in &seq.rest {
        let left = slots.len() - 1;
        handle_item(item, slots, edges, spans)?;
        edges.push((*op, left));
    }
    Ok(())
}

/// Resolve a context expression.
pub fn resolve_context(
    expr: &ContextExpr,
    schema: &Schema,
    registry: &SubdbRegistry,
) -> Result<ResolvedContext, QueryError> {
    let mut slots = Vec::new();
    let mut raw_edges = Vec::new();
    let mut spans = Vec::new();
    flatten(&expr.seq, schema, registry, &mut slots, &mut raw_edges, &mut spans)?;
    if slots.is_empty() {
        return Err(QueryError::Semantic("empty context expression".into()));
    }
    if expr.closure.is_none() && slots.len() > MAX_CONTEXT_SLOTS {
        return Err(QueryError::ContextTooWide { slots: slots.len(), max: MAX_CONTEXT_SLOTS });
    }
    // Flattened edges connect consecutive slots: the paper's linear pattern
    // expressions associate the last class of one element with the first of
    // the next; after flattening, that is always (i, i+1). Nested groups
    // push their inner edges before the enclosing edge, so order by the
    // left slot.
    raw_edges.sort_by_key(|(_, l)| *l);
    debug_assert!(raw_edges.iter().enumerate().all(|(i, (_, l))| *l == i));
    let mut edges = Vec::with_capacity(raw_edges.len());
    for (i, (op, _)) in raw_edges.iter().enumerate() {
        let kind = resolve_adjacency(&slots[i], &slots[i + 1], schema, registry)?;
        edges.push(REdge { op: *op, kind });
    }
    // Retention spans: full expression first, then brace spans
    // innermost-last (flatten pushes inner before outer; ordering does not
    // matter for evaluation, only membership).
    let mut all_spans = vec![(0usize, slots.len())];
    all_spans.extend(spans.into_iter().filter(|&(lo, hi)| !(lo == 0 && hi == slots.len())));

    let closure = match expr.closure {
        None => None,
        Some(spec) => {
            // The cycle edge connects the last class occurrence back to the
            // first. A single-occurrence expression (`Course ^*`) cycles
            // over a self-loop association (Prereq-style closures).
            let last = slots.len() - 1;
            let kind = resolve_adjacency(&slots[last], &slots[0], schema, registry)?;
            Some((spec, kind))
        }
    };
    Ok(ResolvedContext { slots, edges, spans: all_spans, closure })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;
    use dood_core::schema::SchemaBuilder;
    use dood_core::subdb::{Intension, SlotDef, Subdatabase};
    use dood_core::value::DType;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        for c in ["Department", "Course", "Section", "Teacher", "Student"] {
            b.e_class(c);
        }
        b.d_class("name", DType::Str);
        b.d_class("c#", DType::Int);
        b.attr("Department", "name");
        b.attr_named("Course", "c#", "c#");
        b.aggregate("Department", "Course");
        b.aggregate_single("Section", "Course");
        b.aggregate_named("Teacher", "Section", "Teaches");
        b.aggregate_named("Student", "Section", "Enrolls");
        b.aggregate_named("Course", "Course", "Prereq");
        b.build().unwrap()
    }

    fn ctx(src: &str, schema: &Schema, reg: &SubdbRegistry) -> ResolvedContext {
        let e = Parser::parse_context_expr(src).unwrap();
        resolve_context(&e, schema, reg).unwrap()
    }

    #[test]
    fn base_chain_resolution() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let r = ctx("Teacher * Section * Course", &s, &reg);
        assert_eq!(r.slots.len(), 3);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.spans, vec![(0, 3)]);
        assert!(r.closure.is_none());
        assert!(matches!(r.edges[0].kind, REdgeKind::Base(_)));
    }

    #[test]
    fn alias_resolution() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let r = ctx("Course * Course_1", &s, &reg);
        assert_eq!(r.slots[1].name, "Course_1");
        assert_eq!(r.slots[1].base, r.slots[0].base);
    }

    #[test]
    fn brace_spans() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let r = ctx("Department * {Course * Section} * Teacher", &s, &reg);
        assert_eq!(r.spans, vec![(0, 4), (1, 3)]);
        let r2 = ctx("{{Department} * Course} * Section", &s, &reg);
        assert_eq!(r2.spans, vec![(0, 3), (0, 1), (0, 2)]);
    }

    #[test]
    fn qualified_slot_and_derived_membership() {
        let s = schema();
        let mut reg = SubdbRegistry::new();
        let course = s.class_by_name("Course").unwrap();
        let sd = Subdatabase::new(
            "Suggest_offer",
            Intension::new(vec![SlotDef::base("Course", course)]),
        );
        reg.put(sd, 0);
        let r = ctx("Department * Suggest_offer:Course", &s, &reg);
        assert_eq!(r.slots[1].derived.as_ref().unwrap().0, "Suggest_offer");
        // The edge falls back to the base Department—Course association.
        assert!(matches!(r.edges[0].kind, REdgeKind::Base(_)));
    }

    #[test]
    fn derived_edge_through_common_ancestor() {
        // Fig. 4.2: SD derives a direct Teacher—Course edge; SD1:Teacher and
        // SD2:Course (derived from SD) join through SD's patterns.
        let s = schema();
        let teacher = s.class_by_name("Teacher").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let mut reg = sd_registry(&s);
        reg.put(induced("SD1", "SD", "Teacher", teacher), 0);
        reg.put(induced("SD2", "SD", "Course", course), 0);
        assert_eq!(derived_edge(&ctx("SD1:Teacher * SD2:Course", &s, &reg)), ("SD", 0, 1));
    }

    /// A slot induced from `parent`'s slot of the same name.
    fn induced_slot(parent: &str, slot: &str, base: ClassId) -> SlotDef {
        SlotDef {
            name: slot.to_string(),
            base,
            source: SlotSource::Derived { subdb: parent.into(), slot: slot.to_string() },
            attrs: None,
        }
    }

    /// A one-slot subdatabase whose slot is induced from `parent`'s.
    fn induced(name: &str, parent: &str, slot: &str, base: ClassId) -> Subdatabase {
        Subdatabase::new(name, Intension::new(vec![induced_slot(parent, slot, base)]))
    }

    /// `SD` with a direct Teacher—Course edge, as in Fig. 4.2.
    fn sd_registry(s: &Schema) -> SubdbRegistry {
        let teacher = s.class_by_name("Teacher").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let mut int_sd = Intension::new(vec![
            SlotDef::base("Teacher", teacher),
            SlotDef::base("Course", course),
        ]);
        int_sd.add_edge(0, 1);
        let mut reg = SubdbRegistry::new();
        reg.put(Subdatabase::new("SD", int_sd), 0);
        reg
    }

    fn derived_edge(r: &ResolvedContext) -> (&str, usize, usize) {
        match &r.edges[0].kind {
            REdgeKind::Derived { subdb, a, b } => (subdb.as_str(), *a, *b),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn derived_edge_through_a_two_level_chain() {
        // SD → SD1 → SD1b on the Teacher side, SD → SD2 on the Course side:
        // the walk climbs two induced generalizations to reach SD.
        let s = schema();
        let teacher = s.class_by_name("Teacher").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let mut reg = sd_registry(&s);
        reg.put(induced("SD1", "SD", "Teacher", teacher), 0);
        reg.put(induced("SD1b", "SD1", "Teacher", teacher), 0);
        reg.put(induced("SD2", "SD", "Course", course), 0);
        assert_eq!(derived_edge(&ctx("SD1b:Teacher * SD2:Course", &s, &reg)), ("SD", 0, 1));
        assert_eq!(derived_edge(&ctx("SD2:Course * SD1b:Teacher", &s, &reg)), ("SD", 1, 0));
    }

    #[test]
    fn innermost_common_ancestor_wins() {
        // SD and SDm both connect Teacher and Course; SDa and SDb descend
        // from SDm (which descends from SD), so SDm's patterns carry the
        // edge. SDm lays its slots out the other way round, so the slot
        // indices tell the two ancestors apart too.
        let s = schema();
        let teacher = s.class_by_name("Teacher").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let mut reg = sd_registry(&s);
        let mut int_m = Intension::new(vec![
            induced_slot("SD", "Course", course),
            induced_slot("SD", "Teacher", teacher),
        ]);
        int_m.add_edge(0, 1);
        reg.put(Subdatabase::new("SDm", int_m), 0);
        reg.put(induced("SDa", "SDm", "Teacher", teacher), 0);
        reg.put(induced("SDb", "SDm", "Course", course), 0);
        assert_eq!(derived_edge(&ctx("SDa:Teacher * SDb:Course", &s, &reg)), ("SDm", 1, 0));
        // Reading SDm's slots directly resolves through SDm itself.
        assert_eq!(derived_edge(&ctx("SDm:Teacher * SDm:Course", &s, &reg)), ("SDm", 1, 0));
    }

    #[test]
    fn broken_ancestry_chain_is_a_typed_error() {
        let s = schema();
        let teacher = s.class_by_name("Teacher").unwrap();
        let course = s.class_by_name("Course").unwrap();
        let mut reg = sd_registry(&s);
        reg.put(induced("SD2", "SD", "Course", course), 0);
        // A chain through a subdatabase the registry does not hold.
        reg.put(induced("Orphan", "Gone", "Teacher", teacher), 0);
        let e = Parser::parse_context_expr("Orphan:Teacher * SD2:Course").unwrap();
        let err = resolve_context(&e, &s, &reg).unwrap_err();
        assert_eq!(err, QueryError::UnknownSubdb("Gone".into()));
        assert_eq!(err.to_string(), "unknown subdatabase `Gone`");
        // A chain through a registered subdatabase that lacks the slot.
        reg.put(induced("Stray", "SD", "Section", course), 0);
        let e = Parser::parse_context_expr("SD2:Course * Stray:Section").unwrap();
        let err = resolve_context(&e, &s, &reg).unwrap_err();
        let want = QueryError::UnknownSubdbClass { subdb: "SD".into(), class: "Section".into() };
        assert_eq!(err, want);
        assert_eq!(err.to_string(), "subdatabase `SD` has no class `Section`");
    }

    #[test]
    fn closure_cycle_edge() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let r = ctx("Course ^*", &s, &reg);
        let (spec, kind) = r.closure.as_ref().unwrap();
        assert_eq!(spec.iterations, None);
        assert!(matches!(kind, REdgeKind::Base(_)));
    }

    #[test]
    fn non_closure_context_wider_than_64_slots_is_a_typed_error() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let chain = |n: usize| {
            let mut src = "Course".to_string();
            for i in 1..n {
                src.push_str(&format!(" * Course_{i}"));
            }
            src
        };
        assert_eq!(ctx(&chain(MAX_CONTEXT_SLOTS), &s, &reg).slots.len(), MAX_CONTEXT_SLOTS);
        let wide = Parser::parse_context_expr(&chain(MAX_CONTEXT_SLOTS + 1)).unwrap();
        assert_eq!(
            resolve_context(&wide, &s, &reg).unwrap_err(),
            QueryError::ContextTooWide { slots: 65, max: 64 }
        );
        // A closure result's width is its longest chain, not its slot
        // count: the same occurrences under `^*` resolve.
        let closure = format!("{} ^*", chain(MAX_CONTEXT_SLOTS + 1));
        assert_eq!(ctx(&closure, &s, &reg).slots.len(), 65);
    }

    #[test]
    fn unknown_names_error() {
        let s = schema();
        let reg = SubdbRegistry::new();
        let e = Parser::parse_context_expr("Nope * Course").unwrap();
        assert!(matches!(
            resolve_context(&e, &s, &reg),
            Err(QueryError::Resolve(_))
        ));
        let e2 = Parser::parse_context_expr("Nope:Course * Department").unwrap();
        assert!(matches!(
            resolve_context(&e2, &s, &reg),
            Err(QueryError::UnknownSubdb(_))
        ));
    }
}
