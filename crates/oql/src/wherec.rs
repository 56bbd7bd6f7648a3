//! The WHERE subclause: inter-class comparisons and aggregation conditions
//! (paper §3.2), applied to a Context subdatabase.
//!
//! "The Where subclause further causes the extensional patterns that do not
//! satisfy some conditions to be dropped from the Context subdatabase."
//! Conditions bind against the *result* intension, so they also work on the
//! runtime-determined intensions of closure queries (`Grad_2`, …).

use crate::ast::{AggFunc, ClassRef, CmpOp, CmpRhs, WhereCond};
use crate::error::QueryError;
use dood_core::error::ResolveError;
use dood_core::ids::Oid;
use dood_core::obs;
use dood_core::schema::{ResolvedAttr, Schema};
use dood_core::subdb::{Intension, Row, SlotSource, Subdatabase};
use dood_core::value::Value;
use dood_store::Database;

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

/// A comparison condition bound to the slots of one intension: the
/// per-pattern verdict, shared by [`apply_where`] and by incremental rule
/// maintenance, which re-checks single patterns.
#[derive(Debug, Clone)]
pub struct CmpCond {
    lslot: usize,
    lattr: ResolvedAttr,
    op: CmpOp,
    rhs: Rhs,
}

#[derive(Debug, Clone)]
enum Rhs {
    Attr(usize, ResolvedAttr),
    Lit(Value),
}

impl CmpCond {
    /// Whether `p` satisfies the comparison. An absent component or
    /// perspective reads as no value, and so does Null: the comparison is
    /// unknown, the pattern goes.
    pub fn passes(&self, p: Row<'_>, db: &Database) -> bool {
        let lv = p.get(self.lslot).and_then(|lo| db.attr_ref(lo, &self.lattr));
        let rv = match &self.rhs {
            Rhs::Lit(v) => Some(v),
            Rhs::Attr(rslot, rattr) => p.get(*rslot).and_then(|ro| db.attr_ref(ro, rattr)),
        };
        lv.zip(rv).and_then(|(lv, rv)| lv.compare(rv)).is_some_and(|ord| self.op.test(ord))
    }
}

/// An aggregation condition bound to the slots of one intension: which
/// group and target a pattern contributes, and a group's verdict given its
/// distinct targets. Shared by [`apply_where`], which regroups the whole
/// set, and by incremental rule maintenance, which keeps the groups.
#[derive(Debug, Clone)]
pub struct AggCond {
    func: AggFunc,
    tslot: usize,
    tattr: Option<ResolvedAttr>,
    bslot: Option<usize>,
    op: CmpOp,
    threshold: Value,
}

impl AggCond {
    /// The one group of an aggregate without `by`: any constant will do,
    /// since groups are keyed only by [`AggCond::group_of`].
    const UNGROUPED: Oid = Oid::MIN;

    /// A pattern's group: the `by` slot's object (none: the pattern is
    /// ungrouped and cannot qualify), or one constant without `by`.
    pub fn group_of(&self, p: Row<'_>) -> Option<Oid> {
        match self.bslot {
            Some(bs) => p.get(bs),
            None => Some(Self::UNGROUPED),
        }
    }

    /// The object a pattern contributes to its group's aggregate, if any.
    pub fn target_of(&self, p: Row<'_>) -> Option<Oid> {
        p.get(self.tslot)
    }

    /// The `by` slot; `None` for an ungrouped aggregate.
    pub fn by_slot(&self) -> Option<usize> {
        self.bslot
    }

    /// Whether the verdict reads attribute values (every aggregate but a
    /// plain `count(X …)`), so that it can flip without any pattern
    /// joining or leaving the group.
    pub fn reads_attrs(&self) -> bool {
        self.tattr.is_some()
    }

    /// Compute one group's aggregate over its distinct targets — in
    /// ascending order, which fixes the floating-point sum — and test it
    /// against the threshold.
    pub fn passes(&self, targets: impl Iterator<Item = Oid>, db: &Database) -> bool {
        let agg: Value = match (&self.func, &self.tattr) {
            (AggFunc::Count, None) => Value::Int(targets.count() as i64),
            (f, attr_opt) => {
                // Non-null attribute values of the distinct targets (COUNT
                // with an attribute counts non-null values).
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
        match agg.compare(&self.threshold) {
            Some(ord) => self.op.test(ord),
            None => false,
        }
    }
}

/// A WHERE condition bound to the slots of one intension.
enum BoundCond {
    Cmp(CmpCond),
    Agg(AggCond),
}

/// Bind a condition's class references and attributes against `int`.
fn bind_cond(
    cond: &WhereCond,
    int: &Intension,
    schema: &Schema,
) -> Result<BoundCond, QueryError> {
    Ok(match cond {
        WhereCond::Cmp { left, op, right } => {
            let lslot = find_slot(int, &left.0)?;
            let lattr = slot_attr(int, lslot, &left.1, schema)?;
            let rhs = match right {
                CmpRhs::Lit(l) => Rhs::Lit(l.to_value()),
                CmpRhs::Attr(c, a) => {
                    let rslot = find_slot(int, c)?;
                    Rhs::Attr(rslot, slot_attr(int, rslot, a, schema)?)
                }
            };
            BoundCond::Cmp(CmpCond { lslot, lattr, op: *op, rhs })
        }
        WhereCond::Agg { func, target, attr, by, op, value } => {
            let tslot = find_slot(int, target)?;
            let tattr = match attr {
                Some(a) => Some(slot_attr(int, tslot, a, schema)?),
                None => None,
            };
            let bslot = match by {
                Some(b) => Some(find_slot(int, b)?),
                None => None,
            };
            BoundCond::Agg(AggCond {
                func: *func,
                tslot,
                tattr,
                bslot,
                op: *op,
                threshold: value.to_value(),
            })
        }
    })
}

/// Drop the patterns `keep` rejects, in place, and record the stage's
/// output cardinality.
fn filter(sd: &mut Subdatabase, sp: &mut obs::trace::Span, keep: impl FnMut(Row<'_>) -> bool) {
    let dropped = sd.retain(keep);
    sp.attr("rows_out", sd.len() as i64);
    if dropped > 0 && obs::metrics_enabled() {
        obs::metrics::counter("oql.where.dropped").add(dropped as u64);
    }
}

/// What one applied condition leaves behind for a caller that will
/// maintain its verdicts: the bound condition and, for an aggregate, the
/// groups that passed, ascending.
#[derive(Debug)]
pub enum Applied {
    /// A comparison; its verdicts are per pattern.
    Cmp(CmpCond),
    /// An aggregate and its passing groups.
    Agg(AggCond, Vec<Oid>),
}

/// Apply one WHERE condition, dropping non-satisfying patterns.
pub fn apply_cond(
    sd: &mut Subdatabase,
    cond: &WhereCond,
    db: &Database,
) -> Result<Applied, QueryError> {
    let mut sp = obs::trace::span(match cond {
        WhereCond::Cmp { .. } => "oql.where.cmp",
        WhereCond::Agg { .. } => "oql.where.agg",
    });
    sp.attr("rows_in", sd.len() as i64);
    match bind_cond(cond, &sd.intension, db.schema())? {
        BoundCond::Cmp(cmp) => {
            filter(sd, &mut sp, |p| cmp.passes(p, db));
            Ok(Applied::Cmp(cmp))
        }
        BoundCond::Agg(agg) => {
            // Sorted and deduplicated, the pairs list every group's
            // distinct targets in one run. Patterns arrive sorted, so a
            // pair often repeats the one before it.
            let mut pairs: Vec<GroupTarget> = Vec::with_capacity(sd.len());
            for p in sd.patterns() {
                if let Some(g) = agg.group_of(p) {
                    let pair = (g, agg.target_of(p));
                    if pairs.last() != Some(&pair) {
                        pairs.push(pair);
                    }
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            // A run: its group's distinct targets, after at most one `None`
            // for patterns without one. Runs come in group order, so
            // `passing` is sorted.
            let mut groups = 0i64;
            let passing: Vec<Oid> = pairs
                .chunk_by(|a, b| a.0 == b.0)
                .inspect(|_| groups += 1)
                .filter(|run| agg.passes(run.iter().filter_map(|&(_, t)| t), db))
                .map(|run| run[0].0)
                .collect();
            sp.attr("groups", groups);
            let mut last = (None, false);
            filter(sd, &mut sp, |p| {
                let g = agg.group_of(p);
                if g != last.0 {
                    last = (g, g.is_some_and(|g| passing.binary_search(&g).is_ok()));
                }
                last.1
            });
            Ok(Applied::Agg(agg, passing))
        }
    }
}

/// Apply WHERE conditions (conjunctive), dropping non-satisfying patterns.
pub fn apply_where(
    sd: &mut Subdatabase,
    conds: &[WhereCond],
    db: &Database,
) -> Result<(), QueryError> {
    for cond in conds {
        apply_cond(sd, cond, db)?;
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
            sd.insert([Some(c), Some(s)]);
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
