//! The WHERE subclause: inter-class comparisons and aggregation conditions
//! (paper §3.2), applied to a Context subdatabase.
//!
//! "The Where subclause further causes the extensional patterns that do not
//! satisfy some conditions to be dropped from the Context subdatabase."
//! Conditions bind against the *result* intension, so they also work on the
//! runtime-determined intensions of closure queries (`Grad_2`, …).

use crate::ast::{AggFunc, ClassRef, CmpRhs, WhereCond};
use crate::error::QueryError;
use dood_core::error::ResolveError;
use dood_core::ids::Oid;
use dood_core::obs;
use dood_core::pool::ChunkPool;
use dood_core::schema::{ResolvedAttr, Schema};
use dood_core::subdb::{ExtPattern, Intension, SlotSource, Subdatabase};
use dood_core::value::Value;
use dood_store::Database;

/// The stats key one WHERE condition's observed selectivity is recorded
/// under (`oql.wsel.*`): a fingerprint of the condition's AST shape, so a
/// structurally identical condition in any query or rule shares the
/// estimate. Static analysis (`rules::absint`) installs priors at the same
/// keys; `doodprof --plan` joins static, estimated, and measured values on
/// them.
pub fn where_sel_key(cond: &WhereCond) -> String {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{cond:?}").hash(&mut h);
    format!("oql.wsel.{:016x}", h.finish())
}

/// Minimum input rows before a WHERE stage feeds the stats registry —
/// tiny pattern sets produce noisy selectivity ratios.
const WSEL_MIN_ROWS: usize = 4;

/// Record one WHERE stage's observed keep-fraction.
fn observe_wsel(cond: &WhereCond, rows_in: usize, rows_out: usize) {
    if rows_in >= WSEL_MIN_ROWS {
        obs::stats::observe(&where_sel_key(cond), rows_out as f64 / rows_in as f64);
    }
}

/// Find the unique slot a class reference denotes within an intension.
pub fn find_slot(int: &Intension, cref: &ClassRef) -> Result<usize, QueryError> {
    let mut hits = Vec::new();
    for (i, s) in int.slots.iter().enumerate() {
        if s.name != cref.name {
            continue;
        }
        if let Some(q) = &cref.subdb {
            let matches = matches!(&s.source, SlotSource::Derived { subdb, .. } if subdb == q);
            if !matches {
                continue;
            }
        }
        hits.push(i);
    }
    match hits.len() {
        1 => Ok(hits[0]),
        0 => Err(QueryError::Resolve(ResolveError::UnknownClass(cref.to_string()))),
        _ => Err(QueryError::AmbiguousAttribute(cref.to_string())),
    }
}

/// Resolve an attribute on a slot, enforcing the slot's accessibility
/// restriction.
pub fn slot_attr(
    int: &Intension,
    slot: usize,
    attr: &str,
    schema: &Schema,
) -> Result<ResolvedAttr, QueryError> {
    let def = &int.slots[slot];
    if !def.attr_accessible(attr) {
        return Err(QueryError::Resolve(ResolveError::AttributeNotAccessible {
            class: def.name.clone(),
            attr: attr.to_string(),
        }));
    }
    Ok(schema.resolve_attr(def.base, attr)?)
}

/// One `(group, target)` pair of an aggregation: the `by` slot's object
/// (one constant for an ungrouped aggregate) and the target slot's, if any.
type GroupTarget = (Oid, Option<Oid>);

/// Compute one group's aggregate and test it against the threshold. `run`
/// is the group's sorted, distinct pairs: its distinct targets, after at
/// most one `None` for patterns without one.
fn agg_passes(
    func: &AggFunc,
    tattr: &Option<ResolvedAttr>,
    run: &[GroupTarget],
    op: &crate::ast::CmpOp,
    threshold: &Value,
    db: &Database,
) -> bool {
    let targets = run.iter().filter_map(|&(_, t)| t);
    let agg: Value = match (func, tattr) {
        (AggFunc::Count, None) => Value::Int(targets.count() as i64),
        (f, attr_opt) => {
            // Non-null attribute values of the distinct targets (COUNT with
            // an attribute counts non-null values).
            let a = attr_opt.as_ref().expect("parser enforces attr");
            let vals = targets.filter_map(|o| db.attr_ref(o, a).and_then(Value::as_f64));
            match f {
                AggFunc::Count => Value::Int(vals.count() as i64),
                AggFunc::Sum => Value::Real(vals.sum()),
                AggFunc::Avg => {
                    let mut n = 0usize;
                    let sum: f64 = vals.inspect(|_| n += 1).sum();
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Real(sum / n as f64)
                    }
                }
                AggFunc::Min => vals.reduce(f64::min).map_or(Value::Null, Value::Real),
                AggFunc::Max => vals.reduce(f64::max).map_or(Value::Null, Value::Real),
            }
        }
    };
    match agg.compare(threshold) {
        Some(ord) => op.test(ord),
        None => false,
    }
}

/// Drop the patterns `keep` rejects, in place, and record the stage's
/// cardinalities and selectivity.
fn filter(
    sd: &mut Subdatabase,
    cond: &WhereCond,
    sp: &mut obs::trace::Span,
    keep: impl FnMut(&ExtPattern) -> bool,
) {
    let rows_in = sd.len();
    let dropped = sd.retain(keep);
    sp.attr("rows_out", sd.len() as i64);
    observe_wsel(cond, rows_in, sd.len());
    if dropped > 0 && obs::metrics_enabled() {
        obs::metrics::counter("oql.where.dropped").add(dropped as u64);
    }
}

/// Apply WHERE conditions (conjunctive), dropping non-satisfying patterns.
pub fn apply_where(
    sd: &mut Subdatabase,
    conds: &[WhereCond],
    db: &Database,
) -> Result<(), QueryError> {
    for cond in conds {
        match cond {
            WhereCond::Cmp { left, op, right } => {
                let mut sp = obs::trace::span("oql.where.cmp");
                sp.attr("rows_in", sd.len() as i64);
                let lslot = find_slot(&sd.intension, &left.0)?;
                let lattr = slot_attr(&sd.intension, lslot, &left.1, db.schema())?;
                enum Rhs {
                    Attr(usize, ResolvedAttr),
                    Lit(Value),
                }
                let rhs = match right {
                    CmpRhs::Lit(l) => Rhs::Lit(l.to_value()),
                    CmpRhs::Attr(c, a) => {
                        let rslot = find_slot(&sd.intension, c)?;
                        let rattr = slot_attr(&sd.intension, rslot, a, db.schema())?;
                        Rhs::Attr(rslot, rattr)
                    }
                };
                // An absent component or perspective reads as no value, and
                // so does Null: the comparison is unknown, the pattern goes.
                filter(sd, cond, &mut sp, |p| {
                    let lv = p.get(lslot).and_then(|lo| db.attr_ref(lo, &lattr));
                    let rv = match &rhs {
                        Rhs::Lit(v) => Some(v),
                        Rhs::Attr(rslot, rattr) => {
                            p.get(*rslot).and_then(|ro| db.attr_ref(ro, rattr))
                        }
                    };
                    lv.zip(rv)
                        .and_then(|(lv, rv)| lv.compare(rv))
                        .is_some_and(|ord| op.test(ord))
                });
            }
            WhereCond::Agg { func, target, attr, by, op, value } => {
                let mut sp = obs::trace::span("oql.where.agg");
                sp.attr("rows_in", sd.len() as i64);
                let tslot = find_slot(&sd.intension, target)?;
                let tattr = match attr {
                    Some(a) => Some(slot_attr(&sd.intension, tslot, a, db.schema())?),
                    None => None,
                };
                let bslot = match by {
                    Some(b) => Some(find_slot(&sd.intension, b)?),
                    None => None,
                };
                // A pattern's group: the `by` slot's object (none: the
                // pattern is ungrouped and cannot qualify), or the one
                // group of an aggregate without `by`.
                let ungrouped = Oid(0);
                let group_of = |p: &ExtPattern| match bslot {
                    Some(bs) => p.get(bs),
                    None => Some(ungrouped),
                };
                // Sorted and deduplicated, the pairs list every group's
                // distinct targets in one run. Patterns arrive sorted, so a
                // pair often repeats the one before it.
                let mut pairs: Vec<GroupTarget> = Vec::with_capacity(sd.len());
                for p in sd.patterns() {
                    if let Some(g) = group_of(p) {
                        let pair = (g, p.get(tslot));
                        if pairs.last() != Some(&pair) {
                            pairs.push(pair);
                        }
                    }
                }
                pairs.sort_unstable();
                pairs.dedup();
                let runs: Vec<&[GroupTarget]> = pairs.chunk_by(|a, b| a.0 == b.0).collect();
                sp.attr("groups", runs.len() as i64);
                let threshold = value.to_value();
                // Aggregates per group are independent; compute them
                // chunk-parallel. Chunks come back in order, so `passing`
                // is sorted whatever the thread count.
                let passing: Vec<Oid> = ChunkPool::from_env()
                    .par_chunk_map(&runs, |chunk| {
                        chunk
                            .iter()
                            .filter(|run| agg_passes(func, &tattr, run, op, &threshold, db))
                            .map(|run| run[0].0)
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                let mut last = (None, false);
                filter(sd, cond, &mut sp, |p| {
                    let g = group_of(p);
                    if g != last.0 {
                        last = (g, g.is_some_and(|g| passing.binary_search(&g).is_ok()));
                    }
                    last.1
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::Parser;
    use dood_core::ids::ClassId;
    use dood_core::schema::SchemaBuilder;
    use dood_core::subdb::SlotDef;
    use dood_core::value::DType;

    fn setup() -> (Database, Subdatabase) {
        let mut b = SchemaBuilder::new();
        b.e_class("Course");
        b.e_class("Student");
        b.d_class("credits", DType::Int);
        b.attr("Course", "credits");
        b.aggregate("Course", "Student"); // direct for simplicity
        let mut db = Database::new(b.build().unwrap());
        let course = db.schema().class_by_name("Course").unwrap();
        let student = db.schema().class_by_name("Student").unwrap();
        let enrolls = db.schema().assocs().iter().find(|a| a.name == "Student").unwrap().id;
        let c1 = db.new_object(course).unwrap();
        let c2 = db.new_object(course).unwrap();
        db.set_attr(c1, "credits", Value::Int(3)).unwrap();
        db.set_attr(c2, "credits", Value::Int(4)).unwrap();
        let students: Vec<_> = (0..5).map(|_| db.new_object(student).unwrap()).collect();
        // c1 gets 3 students, c2 gets 2.
        let mut int = Intension::new(vec![
            SlotDef::base("Course", course),
            SlotDef::base("Student", student),
        ]);
        int.add_edge(0, 1);
        let mut sd = Subdatabase::new("ctx", int);
        for (i, &s) in students.iter().enumerate() {
            let c = if i < 3 { c1 } else { c2 };
            db.associate(enrolls, c, s).unwrap();
            sd.insert(ExtPattern::new(vec![Some(c), Some(s)]));
        }
        (db, sd)
    }

    fn conds(src: &str) -> Vec<WhereCond> {
        // Parse through a dummy query.
        let q = Parser::parse_query(&format!("context A * B where {src}")).unwrap();
        q.where_
    }

    #[test]
    fn count_by_group() {
        let (db, mut sd) = setup();
        apply_where(&mut sd, &conds("count(Student by Course) > 2"), &db).unwrap();
        // Only c1's group (3 students) passes.
        assert_eq!(sd.len(), 3);
    }

    #[test]
    fn count_global() {
        let (db, mut sd) = setup();
        let mut sd2 = sd.clone();
        apply_where(&mut sd, &conds("count(Student) = 5"), &db).unwrap();
        assert_eq!(sd.len(), 5);
        apply_where(&mut sd2, &conds("count(Student) > 5"), &db).unwrap();
        assert_eq!(sd2.len(), 0);
    }

    #[test]
    fn attr_literal_comparison() {
        let (db, mut sd) = setup();
        apply_where(&mut sd, &conds("Course.credits >= 4"), &db).unwrap();
        assert_eq!(sd.len(), 2); // c2's two students
    }

    #[test]
    fn sum_and_avg() {
        let (db, mut sd) = setup();
        let mut sd2 = sd.clone();
        // Each group has one course; sum(credits by Course) is that course's
        // credits.
        apply_where(&mut sd, &conds("sum(Course.credits by Course) >= 4"), &db).unwrap();
        assert_eq!(sd.len(), 2);
        apply_where(&mut sd2, &conds("avg(Course.credits) > 3.0"), &db).unwrap();
        assert_eq!(sd2.len(), 5); // global avg = 3.5
    }

    #[test]
    fn min_max() {
        let (db, mut sd) = setup();
        let mut sd2 = sd.clone();
        apply_where(&mut sd, &conds("min(Course.credits) = 3"), &db).unwrap();
        assert_eq!(sd.len(), 5);
        apply_where(&mut sd2, &conds("max(Course.credits by Course) < 4"), &db).unwrap();
        assert_eq!(sd2.len(), 3);
    }

    #[test]
    fn unknown_slot_errors() {
        let (db, mut sd) = setup();
        assert!(apply_where(&mut sd, &conds("Teacher.x = 1"), &db).is_err());
    }

    #[test]
    fn find_slot_qualified() {
        let course = ClassId(0);
        let mut int = Intension::new(vec![SlotDef::base("Course", course)]);
        int.slots[0].source =
            SlotSource::Derived { subdb: "Suggest_offer".into(), slot: "Course".into() };
        assert!(find_slot(&int, &ClassRef::qualified("Suggest_offer", "Course")).is_ok());
        assert!(find_slot(&int, &ClassRef::qualified("Other", "Course")).is_err());
        assert!(find_slot(&int, &ClassRef::base("Course")).is_ok());
    }
}
