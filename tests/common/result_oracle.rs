//! The result stage as it was before it became late-materialising, kept as
//! the oracle of `tests/result_stage.rs`: the row-wise table builder
//! (`build_table` with `Table::normalize`), the byte-measuring renderer, and
//! the WHERE filter that cloned every kept pattern, rebuilt the set and
//! grouped aggregates in a hash map of `BTreeSet`s. Moved here verbatim
//! from `crates/oql/src/{table,wherec}.rs`; only the spans, counters and
//! statistics feed are gone, and what were methods of `Table` are
//! functions. Shares the resolution helpers (`find_slot`, `slot_attr`)
//! with the code it checks and nothing else.

use dood::core::fxhash::FxHashMap;
use dood::core::ids::Oid;
use dood::core::schema::ResolvedAttr;
use dood::core::subdb::Subdatabase;
use dood::core::value::Value;
use dood::oql::ast::{AggFunc, ClassRef, CmpRhs, SelectItem, WhereCond};
use dood::oql::table::Table;
use dood::oql::wherec::{find_slot, slot_attr};
use dood::oql::QueryError;
use dood::store::{Database, OrdValue};
use std::collections::BTreeSet;
use std::fmt;

fn normalize(t: &mut Table) {
    t.rows
        .sort_by(|a, b| {
            a.iter()
                .map(|v| OrdValue(v.clone()))
                .cmp(b.iter().map(|v| OrdValue(v.clone())))
        });
    t.rows.dedup();
}

/// The old `Display`: widths measured in bytes, a `String` per cell.
pub struct ByteWidths<'a>(pub &'a Table);

impl fmt::Display for ByteWidths<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.0.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .0
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:<w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.0.columns)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &rendered {
            line(f, row)?;
        }
        writeln!(f, "({} rows)", self.0.rows.len())
    }
}

/// A resolved output column.
enum Column {
    Attr { slot: usize, attr: ResolvedAttr, header: String },
    Class { slot: usize, header: String },
}

/// Build the output table for a subdatabase under a SELECT clause. An empty
/// clause selects every slot's accessible attributes (the paper's default:
/// "the descriptive attributes of a class that appears in a subdatabase
/// also appear with it by default").
pub fn build_table_rowwise(
    sd: &Subdatabase,
    select: &[SelectItem],
    db: &Database,
) -> Result<Table, QueryError> {
    let schema = db.schema();
    let int = &sd.intension;
    let mut cols: Vec<Column> = Vec::new();
    if select.is_empty() {
        for (i, slot) in int.slots.iter().enumerate() {
            for r in schema.inherited_attrs(slot.base) {
                let name = &schema.assoc(r.attr).name;
                if !slot.attr_accessible(name) {
                    continue;
                }
                cols.push(Column::Attr {
                    slot: i,
                    attr: r.clone(),
                    header: format!("{}.{}", slot.name, name),
                });
            }
        }
    } else {
        for item in select {
            match item {
                SelectItem::ClassAttrs(cref, attrs) => {
                    let slot = find_slot(int, cref)?;
                    for a in attrs {
                        let resolved = slot_attr(int, slot, a, schema)?;
                        cols.push(Column::Attr {
                            slot,
                            attr: resolved,
                            header: format!("{}.{a}", int.slots[slot].name),
                        });
                    }
                }
                SelectItem::Class(cref) => {
                    let slot = find_slot(int, cref)?;
                    cols.push(Column::Class { slot, header: int.slots[slot].name.clone() });
                }
                SelectItem::Attr(name) => {
                    // A bare identifier: a slot name, or an attribute of a
                    // unique slot.
                    if let Ok(slot) = find_slot(int, &ClassRef::base(name.clone())) {
                        cols.push(Column::Class { slot, header: int.slots[slot].name.clone() });
                        continue;
                    }
                    let mut hits = Vec::new();
                    for (i, slot) in int.slots.iter().enumerate() {
                        if !slot.attr_accessible(name) {
                            continue;
                        }
                        if let Ok(r) = schema.resolve_attr(slot.base, name) {
                            hits.push((i, r));
                        }
                    }
                    match hits.len() {
                        1 => {
                            let (slot, attr) = hits.pop().expect("len checked");
                            cols.push(Column::Attr { slot, attr, header: name.clone() });
                        }
                        0 => {
                            return Err(QueryError::Resolve(
                                dood::core::error::ResolveError::UnknownAttribute {
                                    class: "<context>".into(),
                                    attr: name.clone(),
                                },
                            ))
                        }
                        _ => return Err(QueryError::AmbiguousAttribute(name.clone())),
                    }
                }
            }
        }
    }
    let columns: Vec<String> = cols
        .iter()
        .map(|c| match c {
            Column::Attr { header, .. } | Column::Class { header, .. } => header.clone(),
        })
        .collect();
    let mut rows = Vec::with_capacity(sd.len());
    for p in sd.patterns() {
        let row: Vec<Value> = cols
            .iter()
            .map(|c| match c {
                Column::Attr { slot, attr, .. } => match p.get(*slot) {
                    Some(oid) => db.attr_resolved(oid, attr),
                    None => Value::Null,
                },
                Column::Class { slot, .. } => match p.get(*slot) {
                    Some(oid) => Value::str(oid.to_string()),
                    None => Value::Null,
                },
            })
            .collect();
        rows.push(row);
    }
    let mut t = Table { columns, rows };
    normalize(&mut t);
    Ok(t)
}

/// Compute one group's aggregate over its distinct target OIDs and test it
/// against the threshold.
fn agg_passes(
    func: &AggFunc,
    tattr: &Option<ResolvedAttr>,
    targets: &BTreeSet<Oid>,
    op: &dood::oql::ast::CmpOp,
    threshold: &Value,
    db: &Database,
) -> bool {
    let agg: Value = match (func, tattr) {
        (AggFunc::Count, None) => Value::Int(targets.len() as i64),
        (f, attr_opt) => {
            // Collect non-null attribute values of distinct targets (COUNT
            // with an attribute counts non-null values).
            let vals: Vec<f64> = targets
                .iter()
                .filter_map(|&o| {
                    let a = attr_opt.as_ref().expect("parser enforces attr");
                    db.attr_resolved(o, a).as_f64()
                })
                .collect();
            match f {
                AggFunc::Count => Value::Int(vals.len() as i64),
                AggFunc::Sum => Value::Real(vals.iter().sum()),
                AggFunc::Avg => {
                    if vals.is_empty() {
                        Value::Null
                    } else {
                        Value::Real(vals.iter().sum::<f64>() / vals.len() as f64)
                    }
                }
                AggFunc::Min => vals
                    .iter()
                    .copied()
                    .fold(None::<f64>, |m, v| Some(m.map_or(v, |x| x.min(v))))
                    .map_or(Value::Null, Value::Real),
                AggFunc::Max => vals
                    .iter()
                    .copied()
                    .fold(None::<f64>, |m, v| Some(m.map_or(v, |x| x.max(v))))
                    .map_or(Value::Null, Value::Real),
            }
        }
    };
    match agg.compare(threshold) {
        Some(ord) => op.test(ord),
        None => false,
    }
}

/// Apply WHERE conditions (conjunctive), dropping non-satisfying patterns.
pub fn apply_where_rebuilding(
    sd: &mut Subdatabase,
    conds: &[WhereCond],
    db: &Database,
) -> Result<(), QueryError> {
    for cond in conds {
        match cond {
            WhereCond::Cmp { left, op, right } => {
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
                let keep: Vec<_> = sd
                    .patterns()
                    .filter(|p| {
                        let Some(lo) = p.get(lslot) else { return false };
                        let lv = db.attr_resolved(lo, &lattr);
                        let rv = match &rhs {
                            Rhs::Lit(v) => v.clone(),
                            Rhs::Attr(rslot, rattr) => match p.get(*rslot) {
                                Some(ro) => db.attr_resolved(ro, rattr),
                                None => Value::Null,
                            },
                        };
                        match lv.compare(&rv) {
                            Some(ord) => op.test(ord),
                            None => false,
                        }
                    })
                    .cloned()
                    .collect();
                sd.set_patterns(keep);
            }
            WhereCond::Agg { func, target, attr, by, op, value } => {
                let tslot = find_slot(&sd.intension, target)?;
                let tattr = match attr {
                    Some(a) => Some(slot_attr(&sd.intension, tslot, a, db.schema())?),
                    None => None,
                };
                let bslot = match by {
                    Some(b) => Some(find_slot(&sd.intension, b)?),
                    None => None,
                };
                // Accumulate per group: distinct target OIDs, then aggregate.
                let mut groups: FxHashMap<Option<Oid>, BTreeSet<Oid>> = FxHashMap::default();
                for p in sd.patterns() {
                    let key = match bslot {
                        Some(bs) => match p.get(bs) {
                            Some(o) => Some(o),
                            None => continue, // ungrouped pattern: cannot qualify
                        },
                        None => None,
                    };
                    if let Some(t) = p.get(tslot) {
                        groups.entry(key).or_default().insert(t);
                    } else {
                        groups.entry(key).or_default();
                    }
                }
                let threshold = value.to_value();
                let passes: FxHashMap<Option<Oid>, bool> = groups
                    .iter()
                    .map(|(key, targets)| {
                        (*key, agg_passes(func, &tattr, targets, op, &threshold, db))
                    })
                    .collect();
                let keep: Vec<_> = sd
                    .patterns()
                    .filter(|p| {
                        let key = match bslot {
                            Some(bs) => match p.get(bs) {
                                Some(o) => Some(o),
                                None => return false,
                            },
                            None => None,
                        };
                        passes.get(&key).copied().unwrap_or(false)
                    })
                    .cloned()
                    .collect();
                sd.set_patterns(keep);
            }
        }
    }
    Ok(())
}

