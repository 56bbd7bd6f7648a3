//! Applying one rule: evaluate the IF clause, then build the target
//! subdatabase per the THEN clause (paper §4.2).
//!
//! The THEN clause:
//! * retains only the referenced classes ("other unreferenced classes will
//!   not be retained");
//! * derives **new direct associations** between the retained classes
//!   (Fig. 4.3a: Teacher—Course, though associated only through Section in
//!   the operand);
//! * restricts inherited attributes when an attribute list is given;
//! * keeps, per slot, the source-class bookkeeping that constitutes the
//!   **induced generalization association** (§4.1).

use crate::ast::{Rule, TargetItem};
use crate::error::RuleError;
use dood_core::obs;
use dood_oql::ast::ClassRef;
use dood_oql::eval_context;
use dood_oql::wherec::find_slot;
use dood_core::subdb::{Intension, Subdatabase, SubdbRegistry};
use dood_store::Database;

/// Evaluate `rule` against the database and the already-derived sources in
/// `registry`, producing the target subdatabase (not yet registered).
pub fn apply_rule(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
) -> Result<Subdatabase, RuleError> {
    let mut sp = obs::trace::span("rules.rule");
    sp.label(|| rule.name.clone());
    if obs::metrics_enabled() {
        obs::metrics::counter("rules.rule.applications").inc();
    }
    let ctx = eval_rule_context(rule, db, registry)?;
    sp.attr("ctx_rows", ctx.len() as i64);
    let target = project_targets(rule, &ctx, db)?;
    sp.attr("target_rows", target.len() as i64);
    Ok(target)
}

/// Evaluate just the IF clause (context + WHERE) of a rule, returning the
/// unprojected context subdatabase. Exposed for incremental maintenance,
/// which caches the context to keep the evidence for projected-away
/// intermediate classes.
pub fn eval_rule_context(
    rule: &Rule,
    db: &Database,
    registry: &SubdbRegistry,
) -> Result<Subdatabase, RuleError> {
    eval_context(&rule.context, &rule.where_, db, registry, "if-context")
        .map_err(RuleError::Query)
}

/// Resolve a rule's THEN-clause targets to context-slot indices (in target
/// order, families expanded). Exposed for incremental maintenance, which
/// counts projections of context patterns onto these slots.
pub fn target_slots(rule: &Rule, intension: &Intension) -> Result<Vec<usize>, RuleError> {
    let mut slots: Vec<usize> = Vec::new();
    for t in &rule.targets {
        match t {
            TargetItem::Class { class, .. } => {
                slots.push(find_slot(intension, class).map_err(|_| {
                    RuleError::UnknownTarget { rule: rule.name.clone(), target: class.to_string() }
                })?);
            }
            TargetItem::Family { base } => slots.extend(family_slots(rule, intension, base)?),
        }
    }
    Ok(slots)
}

/// The context slots a `base_*` target covers. Paper R6: "the second
/// argument Grad* stands for Grad_1, Grad_2, …" — the family covers levels
/// ≥ 1; level 0 is referenced by its plain name. How many levels there are
/// is up to the data: a closure whose chains all stop at level 0 covers
/// none, which is an empty family, not an error.
fn family_slots(rule: &Rule, intension: &Intension, base: &str) -> Result<Vec<usize>, RuleError> {
    let family = intension.slots_of_family(base);
    let levels: Vec<usize> =
        family.iter().copied().filter(|&i| intension.slots[i].name != base).collect();
    if levels.is_empty() && (family.is_empty() || rule.context.closure.is_none()) {
        return Err(RuleError::UnknownTarget {
            rule: rule.name.clone(),
            target: format!("{base}_*"),
        });
    }
    Ok(levels)
}

/// Build the target subdatabase from an evaluated IF-context.
pub fn project_targets(
    rule: &Rule,
    ctx: &Subdatabase,
    db: &Database,
) -> Result<Subdatabase, RuleError> {
    let mut slots: Vec<usize> = Vec::new();
    let mut restrictions: Vec<Option<Vec<String>>> = Vec::new();
    for t in &rule.targets {
        match t {
            TargetItem::Class { class, attrs } => {
                let slot = find_slot(&ctx.intension, class).map_err(|_| {
                    RuleError::UnknownTarget { rule: rule.name.clone(), target: class.to_string() }
                })?;
                // Validate the attribute restriction against the base class.
                if let Some(list) = attrs {
                    for a in list {
                        db.schema()
                            .resolve_attr(ctx.intension.slots[slot].base, a)
                            .map_err(|e| RuleError::Query(e.into()))?;
                    }
                }
                slots.push(slot);
                restrictions.push(attrs.clone());
            }
            TargetItem::Family { base } => {
                for s in family_slots(rule, &ctx.intension, base)? {
                    slots.push(s);
                    restrictions.push(None);
                }
            }
        }
    }
    let mut out = ctx.project(&rule.target_subdb, &slots);
    // Intersect attribute restrictions.
    for (i, restriction) in restrictions.iter().enumerate() {
        if let Some(list) = restriction {
            let def = &mut out.intension.slots[i];
            def.attrs = Some(match def.attrs.take() {
                None => list.clone(),
                Some(existing) => list.iter().filter(|a| existing.contains(a)).cloned().collect(),
            });
        }
    }
    // Derived direct associations between consecutive target classes.
    for i in 0..out.intension.width().saturating_sub(1) {
        out.intension.add_edge(i, i + 1);
    }
    // Projection may produce all-Null rows (a retained brace-span pattern
    // whose classes were all projected away) and newly-subsumed parts.
    let keep: Vec<_> = out
        .patterns()
        .filter(|p| p.arity() > 0)
        .cloned()
        .collect();
    out.set_patterns(keep);
    out.retain_maximal();
    Ok(out)
}

/// Check that two rules deriving the same subdatabase agree on the slot
/// layout (names), so their unions are meaningful (R4/R5 semantics).
pub fn layouts_compatible(a: &Subdatabase, b: &Subdatabase) -> bool {
    a.intension.slots.len() == b.intension.slots.len()
        && a.intension
            .slots
            .iter()
            .zip(&b.intension.slots)
            .all(|(x, y)| x.name == y.name && x.base == y.base)
}

/// The target-slot *names* a rule will produce, without evaluating it
/// (families expand at runtime, represented here as `base_*`). Used for
/// cheap layout pre-checks.
pub fn target_names(rule: &Rule) -> Vec<String> {
    rule.targets
        .iter()
        .map(|t| match t {
            TargetItem::Class { class, .. } => class.name.clone(),
            TargetItem::Family { base } => format!("{base}_*"),
        })
        .collect()
}

/// A [`ClassRef`] to each derived class of a subdatabase (helper for
/// callers constructing follow-up queries).
pub fn derived_refs(sd: &Subdatabase) -> Vec<ClassRef> {
    sd.intension
        .slots
        .iter()
        .map(|s| ClassRef::qualified(sd.name.clone(), s.name.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rule;
    use dood_core::schema::SchemaBuilder;
    use dood_core::value::{DType, Value};

    /// Teacher–Section–Course mini-world mirroring Fig. 3.1.
    fn setup() -> Database {
        let mut b = SchemaBuilder::new();
        b.e_class("Teacher");
        b.e_class("Section");
        b.e_class("Course");
        b.d_class("name", DType::Str);
        b.d_class("Degree", DType::Str);
        b.attr("Teacher", "name");
        b.attr("Teacher", "Degree");
        b.aggregate_named("Teacher", "Section", "Teaches");
        b.aggregate_single("Section", "Course");
        let mut db = Database::new(b.build().unwrap());
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let section = db.schema().class_by_name("Section").unwrap();
        let course = db.schema().class_by_name("Course").unwrap();
        let teaches = db.schema().own_link_by_name(teacher, "Teaches").unwrap();
        let of = db.schema().own_link_by_name(section, "Course").unwrap();
        let t1 = db.new_object(teacher).unwrap();
        let s1 = db.new_object(section).unwrap();
        let s2 = db.new_object(section).unwrap();
        let c1 = db.new_object(course).unwrap();
        db.set_attr(t1, "name", Value::str("smith")).unwrap();
        db.associate(teaches, t1, s1).unwrap();
        db.associate(teaches, t1, s2).unwrap();
        db.associate(of, s1, c1).unwrap();
        db.associate(of, s2, c1).unwrap();
        db
    }

    #[test]
    fn rule_r1_projects_and_derives_direct_edge() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let rule = parse_rule(
            "R1",
            "if context Teacher * Section * Course then Teacher_course (Teacher, Course)",
        )
        .unwrap();
        let sd = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(sd.name, "Teacher_course");
        assert_eq!(sd.intension.width(), 2);
        // t1 teaches two sections of c1 → one derived pattern.
        assert_eq!(sd.len(), 1);
        assert!(sd.intension.has_edge(0, 1));
        assert_eq!(sd.intension.slots[0].name, "Teacher");
    }

    #[test]
    fn attribute_restriction_recorded() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let rule = parse_rule(
            "R1b",
            "if context Teacher * Section * Course \
             then Teacher_course (Teacher [Degree], Course)",
        )
        .unwrap();
        let sd = apply_rule(&rule, &db, &reg).unwrap();
        assert_eq!(sd.intension.slots[0].attrs, Some(vec!["Degree".to_string()]));
        assert!(sd.intension.slots[0].attr_accessible("Degree"));
        assert!(!sd.intension.slots[0].attr_accessible("name"));
    }

    #[test]
    fn unknown_attr_in_restriction_errors() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let rule = parse_rule(
            "bad",
            "if context Teacher * Section then T (Teacher [salary])",
        )
        .unwrap();
        assert!(apply_rule(&rule, &db, &reg).is_err());
    }

    #[test]
    fn unknown_target_errors() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let rule =
            parse_rule("bad", "if context Teacher * Section then T (Course)").unwrap();
        assert!(matches!(
            apply_rule(&rule, &db, &reg),
            Err(RuleError::UnknownTarget { .. })
        ));
    }

    #[test]
    fn layout_compatibility() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let r1 = parse_rule(
            "a",
            "if context Teacher * Section * Course then X (Teacher, Course)",
        )
        .unwrap();
        let r2 = parse_rule(
            "b",
            "if context Teacher * Section then X (Teacher, Section)",
        )
        .unwrap();
        let s1 = apply_rule(&r1, &db, &reg).unwrap();
        let s2 = apply_rule(&r2, &db, &reg).unwrap();
        assert!(!layouts_compatible(&s1, &s2));
        assert!(layouts_compatible(&s1, &s1));
    }

    #[test]
    fn derived_refs_are_qualified() {
        let db = setup();
        let reg = SubdbRegistry::new();
        let rule = parse_rule(
            "R1",
            "if context Teacher * Section * Course then TC (Teacher, Course)",
        )
        .unwrap();
        let sd = apply_rule(&rule, &db, &reg).unwrap();
        let refs = derived_refs(&sd);
        assert_eq!(refs[0].to_string(), "TC:Teacher");
        assert_eq!(refs[1].to_string(), "TC:Course");
    }
}
