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
use dood_core::ids::Oid;
use dood_core::subdb::{Intension, RowRun, SlotDef, Subdatabase, SubdbRegistry};
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

/// Where a rule's THEN clause takes each target slot from, and the target
/// intension: a function of the rule and the context *intension* only.
#[derive(Debug, Clone)]
pub struct TargetLayout {
    /// Per target slot, the context slot it projects; `None` for a named
    /// closure level the data's chains do not reach, Null in every pattern.
    pub slots: Vec<Option<usize>>,
    /// The retained slots with their attribute restrictions, the context's
    /// edges between them, and a derived direct association between each
    /// pair of consecutive target classes.
    pub intension: Intension,
}

/// Lay out a rule's THEN clause over a context intension (families
/// expanded, attribute restrictions validated against the base class);
/// [`project_targets`] and incremental maintenance both build through it.
pub fn target_layout(
    rule: &Rule,
    ctx: &Intension,
    db: &Database,
) -> Result<TargetLayout, RuleError> {
    let mut slots: Vec<Option<usize>> = Vec::new();
    let mut defs: Vec<SlotDef> = Vec::new();
    for t in &rule.targets {
        match t {
            TargetItem::Class { class, attrs } => {
                let (slot, mut def) = match find_slot(ctx, class) {
                    Ok(i) => (Some(i), ctx.slots[i].clone()),
                    Err(_) => (
                        None,
                        absent_level(rule, ctx, class).ok_or_else(|| RuleError::UnknownTarget {
                            rule: rule.name.clone(),
                            target: class.to_string(),
                        })?,
                    ),
                };
                if let Some(list) = attrs {
                    for a in list {
                        db.schema()
                            .resolve_attr(def.base, a)
                            .map_err(|e| RuleError::Query(e.into()))?;
                    }
                    def.attrs = Some(match def.attrs.take() {
                        None => list.clone(),
                        Some(existing) => {
                            list.iter().filter(|a| existing.contains(a)).cloned().collect()
                        }
                    });
                }
                slots.push(slot);
                defs.push(def);
            }
            TargetItem::Family { base } => {
                for s in family_slots(rule, ctx, base)? {
                    slots.push(Some(s));
                    defs.push(ctx.slots[s].clone());
                }
            }
        }
    }
    let mut intension = Intension::new(defs);
    let at = |s: u16| slots.iter().position(|&t| t == Some(s as usize));
    for e in &ctx.edges {
        if let (Some(a), Some(b)) = (at(e.a), at(e.b)) {
            intension.add_edge(a, b);
        }
    }
    for i in 0..intension.width().saturating_sub(1) {
        intension.add_edge(i, i + 1);
    }
    Ok(TargetLayout { slots, intension })
}

/// The cells of a context row projected onto a layout's target slots, for
/// the caller to write where the projected row goes.
pub fn project<'a>(
    row: &'a [Option<Oid>],
    slots: &'a [Option<usize>],
) -> impl Iterator<Item = Option<Oid>> + 'a {
    slots.iter().map(|s| s.and_then(|i| row[i]))
}

/// The slot of a named closure level (`Grad_2`) that the data's chains do
/// not reach, so the evaluated context has none: whether a level exists is
/// up to the data, as for a `base_*` family, so the rule stays legal and
/// the level is Null in every pattern.
fn absent_level(rule: &Rule, ctx: &Intension, class: &ClassRef) -> Option<SlotDef> {
    let (family, level) = ClassRef::split_alias(&class.name);
    if rule.context.closure.is_none() || level == 0 {
        return None;
    }
    let level0 = ClassRef { subdb: class.subdb.clone(), name: family.to_string() };
    let cycle = &ctx.slots[find_slot(ctx, &level0).ok().filter(|&i| i == 0)?];
    Some(SlotDef { name: class.name.clone(), ..cycle.clone() })
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
    let layout = target_layout(rule, &ctx.intension, db)?;
    let mut out = Subdatabase::new(rule.target_subdb.clone(), layout.intension);
    // The rows are projected into one run. Projection may produce
    // all-Null rows (a retained brace-span pattern whose classes were all
    // projected away), which are left out, and newly-subsumed parts.
    let mut run = RowRun::with_capacity(layout.slots.len(), ctx.len());
    for p in ctx.patterns() {
        run.push_with(|row| {
            for (c, o) in row.iter_mut().zip(project(p.components(), &layout.slots)) {
                *c = o;
            }
        });
    }
    run.retain(|r| r.components().iter().any(Option::is_some));
    out.set_rows(run);
    out.retain_maximal();
    Ok(out)
}

/// Check that two rules deriving the same subdatabase agree on the slot
/// layout (names), so their unions are meaningful (R4/R5 semantics).
pub fn layouts_compatible(a: &Intension, b: &Intension) -> bool {
    a.slots.len() == b.slots.len()
        && a.slots.iter().zip(&b.slots).all(|(x, y)| x.name == y.name && x.base == y.base)
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
        assert!(!layouts_compatible(&s1.intension, &s2.intension));
        assert!(layouts_compatible(&s1.intension, &s1.intension));
    }
}
