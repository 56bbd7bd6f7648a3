//! The SELECT subclause and tabular output.
//!
//! "If the Display/Print operation is specified in the operation clause it
//! causes the values of the descriptive attributes identified by the Select
//! subclause to be displayed/printed in a tabular form" (paper §3.2). The
//! result of Query 3.1 is "a binary table in which each tuple contains a
//! name value and a section# value".
//!
//! A table is built late (DESIGN.md, "Result stage: late materialisation"):
//! patterns are projected as integer codes, sorted and deduplicated as
//! integers, and attribute values are read once per distinct object and
//! cloned only into the rows that survive.

use crate::ast::{ClassRef, SelectItem};
use crate::error::QueryError;
use crate::wherec::{find_slot, slot_attr};
use dood_core::ids::Oid;
use dood_core::schema::ResolvedAttr;
use dood_core::subdb::Subdatabase;
use dood_core::value::Value;
use dood_store::{ord_cmp, Database};
use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::Index;

/// A rendered, deduplicated, deterministically ordered result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, sorted and deduplicated.
    pub rows: Rows,
}

/// A table's rows: one flat run of cells, `width` per row, and the row
/// count, which a table without columns needs on its own. `rows[i]` is row
/// `i` as a slice, and iteration yields the rows in order.
#[derive(Clone, Default)]
pub struct Rows {
    width: usize,
    len: usize,
    cells: Vec<Value>,
}

impl Rows {
    /// `len` rows of `width` cells each, laid out row after row.
    fn from_cells(width: usize, len: usize, cells: Vec<Value>) -> Self {
        assert_eq!(cells.len(), width * len, "{len} rows of {width} cells");
        Rows { width, len, cells }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, in order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { rows: self, next: 0 }
    }
}

impl From<Vec<Vec<Value>>> for Rows {
    /// Rows from one vector per row. Panics unless all have one width.
    fn from(rows: Vec<Vec<Value>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|r| r.len() == width), "table rows of unequal width");
        let len = rows.len();
        Rows::from_cells(width, len, rows.into_iter().flatten().collect())
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.cells[i * self.width..(i + 1) * self.width]
    }
}

/// Equal row counts and equal cells: with the count, the cells fix the
/// width of any non-empty table.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.cells == other.cells
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The rows of a [`Rows`], in order.
#[derive(Clone)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let rows = self.rows;
        (self.next < rows.len).then(|| {
            self.next += 1;
            &rows.cells[(self.next - 1) * rows.width..self.next * rows.width]
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [Value];
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Values of one column, by header name.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| &r[idx]).collect())
    }
}

/// Write `n` bytes of `pattern` (a run of one ASCII character).
fn fill(f: &mut fmt::Formatter<'_>, pattern: &str, mut n: usize) -> fmt::Result {
    while n > 0 {
        let k = n.min(pattern.len());
        f.write_str(&pattern[..k])?;
        n -= k;
    }
    Ok(())
}

const SPACES: &str = "                                ";
const DASHES: &str = "--------------------------------";

/// ` text<padding> |`, `text` left-aligned in `width` columns.
fn cell(f: &mut fmt::Formatter<'_>, text: &str, chars: usize, width: usize) -> fmt::Result {
    f.write_str(" ")?;
    f.write_str(text)?;
    fill(f, SPACES, width - chars + 1)?;
    f.write_str("|")
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Widths are in chars, as the padding is. A string cell is written
        // from where it is; every other cell is formatted once, into
        // `scratch`. `cells` holds, per cell, where its text ends in
        // `scratch` and how many chars it has.
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        let mut scratch = String::new();
        let mut cells: Vec<(usize, usize)> =
            Vec::with_capacity(self.rows.len() * self.columns.len());
        for row in &self.rows {
            for (v, w) in row.iter().zip(&mut widths) {
                let text = match v {
                    Value::Str(s) => &**s,
                    _ => {
                        let start = scratch.len();
                        write!(scratch, "{v}")?;
                        &scratch[start..]
                    }
                };
                let chars = text.chars().count();
                *w = (*w).max(chars);
                cells.push((scratch.len(), chars));
            }
        }
        f.write_str("|")?;
        for (c, &w) in self.columns.iter().zip(&widths) {
            cell(f, c, c.chars().count(), w)?;
        }
        f.write_str("\n|")?;
        for &w in &widths {
            fill(f, DASHES, w + 2)?;
            f.write_str("|")?;
        }
        f.write_str("\n")?;
        let (mut cells, mut at) = (cells.iter(), 0);
        for row in &self.rows {
            f.write_str("|")?;
            for ((v, &w), &(end, chars)) in row.iter().zip(&widths).zip(&mut cells) {
                let text = match v {
                    Value::Str(s) => &**s,
                    _ => &scratch[at..end],
                };
                at = end;
                cell(f, text, chars, w)?;
            }
            f.write_str("\n")?;
        }
        writeln!(f, "({} rows)", self.rows.len())
    }
}

/// A resolved output column.
enum Column {
    Attr { slot: usize, attr: ResolvedAttr, header: String },
    Class { slot: usize, header: String },
}

impl Column {
    fn slot(&self) -> usize {
        match self {
            Column::Attr { slot, .. } | Column::Class { slot, .. } => *slot,
        }
    }
}

/// Build the output table for a subdatabase under a SELECT clause. An empty
/// clause selects every slot's accessible attributes (the paper's default:
/// "the descriptive attributes of a class that appears in a subdatabase
/// also appear with it by default").
pub fn build_table(
    sd: &Subdatabase,
    select: &[SelectItem],
    db: &Database,
) -> Result<Table, QueryError> {
    let cols = resolve_columns(sd, select, db)?;
    let rows =
        project_encoded(sd, &cols, db).unwrap_or_else(|| project_rowwise(sd, &cols, db));
    let columns = cols
        .into_iter()
        .map(|c| match c {
            Column::Attr { header, .. } | Column::Class { header, .. } => header,
        })
        .collect();
    Ok(Table { columns, rows })
}

/// The columns a SELECT clause names, in order.
fn resolve_columns(
    sd: &Subdatabase,
    select: &[SelectItem],
    db: &Database,
) -> Result<Vec<Column>, QueryError> {
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
                                dood_core::error::ResolveError::UnknownAttribute {
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
    Ok(cols)
}

/// What an absent pattern component and a missing perspective read as.
static NULL: Value = Value::Null;

/// One column of the encoded projection.
struct Encoded<'a> {
    /// Which of the used slots the column reads.
    slot_ix: usize,
    /// Dense rank, in [`ord_cmp`] order, of the column's value for each
    /// entry of the slot's dictionary; `rank[0]` is an absent component's.
    rank: Vec<u32>,
    /// One value per rank.
    rep: Vec<&'a Value>,
    /// The column's weight in a pattern's key.
    stride: u64,
}

/// Whether `v`, which follows `prev` in [`ord_cmp`] order, starts a new
/// rank; equal values share one. `None` when ranks cannot stand for the
/// values: `==`, which deduplicates rows, disagrees with the order on this
/// pair (`Int(3)` and `Real(3.0)`, `0.0` and `-0.0`, two integers that
/// round to one `f64`) or denies that `v` equals itself (NaN).
fn starts_rank(prev: Option<&Value>, v: &Value) -> Option<bool> {
    if matches!(v, Value::Real(r) if r.is_nan()) {
        return None;
    }
    let Some(prev) = prev else { return Some(true) };
    let same = ord_cmp(prev, v) == Ordering::Equal;
    (same == (prev == v)).then_some(!same)
}

/// Dictionary-encoded projection: per used slot the sorted distinct OIDs,
/// per column one value read for each of them and its dense rank, per
/// pattern one mixed-radix key of ranks (first column most significant).
/// Sorting and deduplicating the keys sorts and deduplicates the rows;
/// values are cloned for the keys that remain. `None` when ranks cannot
/// stand for some column's values ([`starts_rank`]) or the keys do not fit
/// a `u64`.
fn project_encoded(sd: &Subdatabase, cols: &[Column], db: &Database) -> Option<Rows> {
    let n = sd.len();
    // Dictionary positions and ranks are `u32`s.
    u32::try_from(n).ok()?;
    // The slots some column reads, and which of them each column does.
    let mut slots: Vec<usize> = Vec::with_capacity(cols.len());
    let slot_ix: Vec<usize> = cols
        .iter()
        .map(|c| {
            slots.iter().position(|&s| s == c.slot()).unwrap_or_else(|| {
                slots.push(c.slot());
                slots.len() - 1
            })
        })
        .collect();

    // Dictionaries. Patterns arrive sorted, so runs of one OID are common
    // in the leading slots and are not stored twice.
    let mut dicts: Vec<Vec<Oid>> = slots.iter().map(|_| Vec::with_capacity(n)).collect();
    let mut absent = vec![false; slots.len()];
    for p in sd.patterns() {
        for ((&s, dict), absent) in slots.iter().zip(&mut dicts).zip(&mut absent) {
            match p.get(s) {
                Some(o) if dict.last() != Some(&o) => dict.push(o),
                Some(_) => {}
                None => *absent = true,
            }
        }
    }
    for dict in &mut dicts {
        dict.sort_unstable();
        dict.dedup();
    }

    // OID columns show the OID's text, which sorts as text.
    let oid_text: Vec<Vec<Value>> = cols
        .iter()
        .zip(&slot_ix)
        .map(|(c, &k)| match c {
            Column::Class { .. } => dicts[k].iter().map(|o| Value::str(o.to_string())).collect(),
            Column::Attr { .. } => Vec::new(),
        })
        .collect();

    let mut enc: Vec<Encoded<'_>> = Vec::with_capacity(cols.len());
    for ((c, text), &slot_ix) in cols.iter().zip(&oid_text).zip(&slot_ix) {
        let dict = &dicts[slot_ix];
        let mut order: Vec<(&Value, u32)> = Vec::with_capacity(dict.len() + 1);
        if absent[slot_ix] {
            order.push((&NULL, 0));
        }
        match c {
            Column::Attr { attr, .. } => order.extend(
                dict.iter()
                    .zip(1..)
                    .map(|(&o, at)| (db.attr_ref(o, attr).unwrap_or(&NULL), at)),
            ),
            Column::Class { .. } => order.extend(text.iter().zip(1..)),
        }
        order.sort_unstable_by(|a, b| ord_cmp(a.0, b.0));
        let mut rank = vec![0u32; dict.len() + 1];
        let mut rep: Vec<&Value> = Vec::with_capacity(order.len());
        for &(v, at) in &order {
            if starts_rank(rep.last().copied(), v)? {
                rep.push(v);
            }
            rank[at as usize] = rep.len() as u32 - 1;
        }
        enc.push(Encoded { slot_ix, rank, rep, stride: 1 });
    }
    let mut stride = 1u64;
    for e in enc.iter_mut().rev() {
        e.stride = stride;
        stride = stride.checked_mul(e.rep.len().max(1) as u64)?;
    }

    // Keys. A pattern's components are looked up in the dictionaries once
    // per slot; the lookup of the previous pattern is tried first.
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut at: Vec<(Option<Oid>, u32)> = vec![(None, 0); slots.len()];
    for p in sd.patterns() {
        for ((&s, dict), at) in slots.iter().zip(&dicts).zip(&mut at) {
            let o = p.get(s);
            if o != at.0 {
                let found = o.map_or(0, |o| {
                    1 + dict.binary_search(&o).expect("gathered from these patterns")
                });
                *at = (o, found as u32);
            }
        }
        let key = enc
            .iter()
            .map(|e| e.rank[at[e.slot_ix].1 as usize] as u64 * e.stride)
            .sum();
        if keys.last() != Some(&key) {
            keys.push(key);
        }
    }
    keys.sort_unstable();
    keys.dedup();

    let mut cells = Vec::with_capacity(keys.len() * enc.len());
    for &key in &keys {
        let mut key = key;
        cells.extend(enc.iter().map(|e| {
            let digit = key / e.stride;
            key -= digit * e.stride;
            e.rep[digit as usize].clone()
        }));
    }
    Some(Rows::from_cells(enc.len(), keys.len(), cells))
}

/// Row-wise projection, which defines what "sorted and deduplicated" means:
/// one row of values per pattern, rows sorted (stably) by [`ord_cmp`]
/// column by column, adjacent rows that are `==` collapsed as `Vec::dedup`
/// does. The rows are projected into one flat buffer and sorted by index;
/// the survivors' values are moved, not cloned, into the result.
fn project_rowwise(sd: &Subdatabase, cols: &[Column], db: &Database) -> Rows {
    let w = cols.len();
    let mut cells: Vec<Value> = Vec::with_capacity(sd.len() * w);
    for p in sd.patterns() {
        cells.extend(cols.iter().map(|c| match (c, p.get(c.slot())) {
            (_, None) => Value::Null,
            (Column::Attr { attr, .. }, Some(o)) => {
                db.attr_ref(o, attr).cloned().unwrap_or(Value::Null)
            }
            (Column::Class { .. }, Some(o)) => Value::str(o.to_string()),
        }));
    }
    let row = |i: usize| &cells[i * w..(i + 1) * w];
    let mut order: Vec<usize> = (0..sd.len()).collect();
    order.sort_by(|&a, &b| {
        row(a)
            .iter()
            .zip(row(b))
            .map(|(x, y)| ord_cmp(x, y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    order.dedup_by(|a, b| row(*a) == row(*b));
    let mut out = Vec::with_capacity(order.len() * w);
    for &i in &order {
        out.extend(cells[i * w..(i + 1) * w].iter_mut().map(|v| std::mem::replace(v, Value::Null)));
    }
    Rows::from_cells(w, order.len(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::ids::Oid;
    use dood_core::schema::SchemaBuilder;
    use dood_core::subdb::{ExtPattern, Intension, SlotDef};
    use dood_core::value::DType;

    fn setup() -> (Database, Subdatabase) {
        let mut b = SchemaBuilder::new();
        b.e_class("Teacher");
        b.e_class("Section");
        b.d_class("name", DType::Str);
        b.d_class("section#", DType::Int);
        b.attr("Teacher", "name");
        b.attr_named("Section", "section#", "section#");
        b.aggregate_named("Teacher", "Section", "Teaches");
        let mut db = Database::new(b.build().unwrap());
        let teacher = db.schema().class_by_name("Teacher").unwrap();
        let section = db.schema().class_by_name("Section").unwrap();
        let t1 = db.new_object(teacher).unwrap();
        let t2 = db.new_object(teacher).unwrap();
        let s1 = db.new_object(section).unwrap();
        let s2 = db.new_object(section).unwrap();
        db.set_attr(t1, "name", Value::str("smith")).unwrap();
        db.set_attr(t2, "name", Value::str("jones")).unwrap();
        db.set_attr(s1, "section#", Value::Int(1)).unwrap();
        db.set_attr(s2, "section#", Value::Int(2)).unwrap();
        let mut int = Intension::new(vec![
            SlotDef::base("Teacher", teacher),
            SlotDef::base("Section", section),
        ]);
        int.add_edge(0, 1);
        let mut sd = Subdatabase::new("ctx", int);
        sd.insert(ExtPattern::new(vec![Some(t1), Some(s1)]));
        sd.insert(ExtPattern::new(vec![Some(t2), Some(s2)]));
        (db, sd)
    }

    #[test]
    fn bare_attrs_resolve_uniquely() {
        let (db, sd) = setup();
        let t = build_table(
            &sd,
            &[SelectItem::Attr("name".into()), SelectItem::Attr("section#".into())],
            &db,
        )
        .unwrap();
        assert_eq!(t.columns, vec!["name", "section#"]);
        assert_eq!(t.len(), 2);
        // Sorted by name: jones before smith.
        assert_eq!(t.rows[0][0], Value::str("jones"));
    }

    #[test]
    fn class_attrs_and_oid_columns() {
        let (db, sd) = setup();
        let t = build_table(
            &sd,
            &[
                SelectItem::ClassAttrs(ClassRef::base("Teacher"), vec!["name".into()]),
                SelectItem::Class(ClassRef::base("Section")),
            ],
            &db,
        )
        .unwrap();
        assert_eq!(t.columns, vec!["Teacher.name", "Section"]);
        assert!(matches!(t.rows[0][1], Value::Str(_)));
    }

    #[test]
    fn default_select_takes_all_attrs() {
        let (db, sd) = setup();
        let t = build_table(&sd, &[], &db).unwrap();
        assert_eq!(t.columns, vec!["Teacher.name", "Section.section#"]);
    }

    #[test]
    fn null_slots_render_null() {
        let (db, mut sd) = setup();
        sd.insert(ExtPattern::new(vec![Some(Oid::from_raw(1)), None]));
        let t = build_table(&sd, &[SelectItem::Attr("section#".into())], &db).unwrap();
        assert!(t.rows.iter().any(|r| r[0] == Value::Null));
    }

    #[test]
    fn duplicate_rows_collapse() {
        let (db, sd) = setup();
        // Selecting a constant-ish column (both teachers' sections exist) —
        // select only teacher names, with two patterns per teacher.
        let mut sd2 = sd.clone();
        sd2.insert(ExtPattern::new(vec![sd.patterns().next().unwrap().get(0), None]));
        let t = build_table(&sd2, &[SelectItem::Attr("name".into())], &db).unwrap();
        assert_eq!(t.len(), 2); // deduplicated
    }

    #[test]
    fn render_contains_headers_and_counts() {
        let (db, sd) = setup();
        let t = build_table(&sd, &[SelectItem::Attr("name".into())], &db).unwrap();
        let s = t.to_string();
        assert!(s.contains("name"));
        assert!(s.contains("(2 rows)"));
        assert!(s.contains("smith"));
    }

    #[test]
    fn ambiguous_bare_attr_rejected() {
        let (db, sd) = setup();
        // Add a second Teacher slot: 'name' is now ambiguous.
        let mut int = sd.intension.clone();
        int.slots.push(SlotDef::base("Teacher_1", int.slots[0].base));
        let sd2 = Subdatabase::new("x", Intension::new(int.slots));
        let r = build_table(&sd2, &[SelectItem::Attr("name".into())], &db);
        assert!(matches!(r, Err(QueryError::AmbiguousAttribute(_))));
    }

    #[test]
    fn rendered_text_is_what_it_was() {
        let (db, sd) = setup();
        let t = build_table(&sd, &[], &db).unwrap();
        assert_eq!(
            t.to_string(),
            "| Teacher.name | Section.section# |\n\
             |--------------|------------------|\n\
             | jones        | 2                |\n\
             | smith        | 1                |\n\
             (2 rows)\n"
        );
        let empty = Table { columns: vec!["a".into()], rows: Rows::default() };
        assert_eq!(empty.to_string(), "| a |\n|---|\n(0 rows)\n");
    }

    /// Padding counts chars, so widths must: a cell or header that is not
    /// ASCII used to widen its column and the rule line by its extra bytes.
    #[test]
    fn widths_count_chars_not_bytes() {
        let t = Table {
            columns: vec!["naïve".into(), "n".into()],
            rows: vec![
                vec![Value::str("Zoë Müller"), Value::Int(1)],
                vec![Value::str("日本"), Value::Real(2.5)],
                vec![Value::str("a long ASCII name"), Value::Null],
            ]
            .into(),
        };
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "| naïve             | n    |");
        assert_eq!(lines[1], "|-------------------|------|");
        assert_eq!(lines[2], "| Zoë Müller        | 1    |");
        assert_eq!(lines[3], "| 日本                | 2.5  |");
        assert_eq!(lines[4], "| a long ASCII name | Null |");
        let width = lines[0].chars().count();
        assert!(lines[..5].iter().all(|l| l.chars().count() == width), "{text}");
    }

    /// A class X with a Real attribute `r` and an Int attribute `a`, one
    /// object per `(r, a)` given, and a one-slot subdatabase of them all.
    fn numbers(values: &[(Value, i64)]) -> (Database, Subdatabase) {
        let mut b = SchemaBuilder::new();
        b.e_class("X");
        b.d_class("r", DType::Real);
        b.d_class("a", DType::Int);
        b.attr("X", "r");
        b.attr("X", "a");
        let mut db = Database::new(b.build().unwrap());
        let x = db.schema().class_by_name("X").unwrap();
        let mut sd = Subdatabase::new("xs", Intension::new(vec![SlotDef::base("X", x)]));
        for (r, a) in values {
            let o = db.new_object(x).unwrap();
            db.set_attr(o, "r", r.clone()).unwrap();
            db.set_attr(o, "a", Value::Int(*a)).unwrap();
            sd.insert(ExtPattern::new(vec![Some(o)]));
        }
        (db, sd)
    }

    fn x_attrs(attrs: &[&str]) -> Vec<SelectItem> {
        vec![SelectItem::ClassAttrs(
            ClassRef::base("X"),
            attrs.iter().map(|a| a.to_string()).collect(),
        )]
    }

    #[test]
    fn equal_values_of_different_objects_share_a_rank() {
        let (db, sd) = numbers(&[(Value::Real(1.5), 7), (Value::Real(1.5), 7), (Value::Real(0.5), 7)]);
        let cols = resolve_columns(&sd, &x_attrs(&["r", "a"]), &db).unwrap();
        let rows = project_encoded(&sd, &cols, &db).expect("ranks stand for these values");
        assert_eq!(
            rows,
            Rows::from(vec![
                vec![Value::Real(0.5), Value::Int(7)],
                vec![Value::Real(1.5), Value::Int(7)]
            ])
        );
        assert_eq!(rows, project_rowwise(&sd, &cols, &db));
    }

    /// Values `==` calls equal and the order tells apart (or the reverse)
    /// go through the row-wise projection, which collapses them as
    /// `Vec::dedup` always has: adjacent rows only.
    #[test]
    fn values_ranks_cannot_stand_for_take_the_rowwise_path() {
        for odd in [
            vec![Value::Int(3), Value::Real(3.0)],
            vec![Value::Real(0.0), Value::Real(-0.0)],
            vec![Value::Real(f64::NAN)],
        ] {
            let values: Vec<(Value, i64)> = odd.iter().map(|v| (v.clone(), 1)).collect();
            let (db, sd) = numbers(&values);
            let cols = resolve_columns(&sd, &x_attrs(&["r"]), &db).unwrap();
            assert!(project_encoded(&sd, &cols, &db).is_none(), "{odd:?}");
        }
        let (db, sd) = numbers(&[(Value::Int(3), 1), (Value::Real(3.0), 1), (Value::Int(3), 2)]);
        let t = build_table(&sd, &x_attrs(&["r", "a"]), &db).unwrap();
        // (3, 1) and (3.0, 1) are adjacent and collapse; (3, 2) sorts
        // between them and the first and would have kept them apart.
        assert_eq!(
            format!("{:?}", t.rows),
            "[[Int(3), Int(1)], [Int(3), Int(2)], [Real(3.0), Int(1)]]"
        );
        let (db, sd) = numbers(&[(Value::Int(3), 1), (Value::Real(3.0), 1)]);
        let t = build_table(&sd, &x_attrs(&["r", "a"]), &db).unwrap();
        assert_eq!(format!("{:?}", t.rows), "[[Int(3), Int(1)]]");
    }

    #[test]
    fn keys_wider_than_64_bits_take_the_rowwise_path() {
        let values: Vec<(Value, i64)> = (0..200).map(|i| (Value::Real(1.0), i)).collect();
        let (db, sd) = numbers(&values);
        // 200 distinct values in each of 8 columns fit (2^61.2), in 9 not.
        let cols = resolve_columns(&sd, &x_attrs(&["a"; 8]), &db).unwrap();
        assert!(project_encoded(&sd, &cols, &db).is_some());
        let select = x_attrs(&["a"; 9]);
        let cols = resolve_columns(&sd, &select, &db).unwrap();
        assert!(project_encoded(&sd, &cols, &db).is_none());
        let t = build_table(&sd, &select, &db).unwrap();
        assert_eq!(t.len(), 200);
        assert_eq!(t.rows[199], vec![Value::Int(199); 9]);
    }

    /// A table rebuilt from its rows, one vector each, is the same table
    /// and renders the same text.
    fn round_trips(t: &Table) -> String {
        let rows: Vec<Vec<Value>> = t.rows.iter().map(<[Value]>::to_vec).collect();
        let again = Table { columns: t.columns.clone(), rows: rows.into() };
        assert_eq!(&again, t);
        assert_eq!(format!("{:?}", again.rows), format!("{:?}", t.rows));
        let text = t.to_string();
        assert_eq!(again.to_string(), text);
        text
    }

    /// Without columns every pattern projects to the one empty row, which
    /// the table still counts.
    #[test]
    fn zero_column_table_round_trips_through_display() {
        let (db, sd) = numbers(&[(Value::Real(1.0), 1), (Value::Real(2.0), 2)]);
        let cols = resolve_columns(&sd, &x_attrs(&[]), &db).unwrap();
        assert_eq!(project_encoded(&sd, &cols, &db).unwrap(), project_rowwise(&sd, &cols, &db));
        let t = build_table(&sd, &x_attrs(&[]), &db).unwrap();
        assert_eq!((t.len(), t.rows[0].len()), (1, 0));
        assert_eq!(format!("{:?}", t.rows), "[[]]");
        assert_eq!(round_trips(&t), "|\n|\n|\n(1 rows)\n");
        let (db, sd) = numbers(&[]);
        let t = build_table(&sd, &x_attrs(&[]), &db).unwrap();
        assert!(t.is_empty());
        assert_eq!(round_trips(&t), "|\n|\n(0 rows)\n");
    }

    #[test]
    fn wide_key_fallback_table_round_trips_through_display() {
        let values: Vec<(Value, i64)> = (0..200).map(|i| (Value::Real(1.0), i)).collect();
        let (db, sd) = numbers(&values);
        let select = x_attrs(&["a"; 9]);
        let t = build_table(&sd, &select, &db).unwrap();
        let text = round_trips(&t);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 203);
        assert_eq!(lines[2], format!("|{}", " 0   |".repeat(9)));
        assert_eq!(lines[201], format!("|{}", " 199 |".repeat(9)));
        assert_eq!(lines[202], "(200 rows)");
    }

    #[test]
    fn column_accessor() {
        let (db, sd) = setup();
        let t = build_table(&sd, &[SelectItem::Attr("name".into())], &db).unwrap();
        assert_eq!(t.column("name").unwrap().len(), 2);
        assert!(t.column("nope").is_none());
    }
}
