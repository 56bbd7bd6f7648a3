//! The SELECT subclause and tabular output.
//!
//! "If the Display/Print operation is specified in the operation clause it
//! causes the values of the descriptive attributes identified by the Select
//! subclause to be displayed/printed in a tabular form" (paper §3.2). The
//! result of Query 3.1 is "a binary table in which each tuple contains a
//! name value and a section# value".
//!
//! A table is built late and stays dictionary-encoded (DESIGN.md, "Result
//! stage: late materialisation"): patterns are projected as integer codes,
//! sorted and deduplicated as integers, and attribute values are read once
//! per distinct object, ranked once per column and cloned once per
//! distinct value. A row is a code per column into that column's values,
//! and `display` measures and formats each distinct value once.

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

/// A table's rows, dictionary-encoded: per column the values its cells
/// take, and per cell a `u32` code into its column's values, row after
/// row. The row count stands on its own, as a table without columns needs
/// it. [`Rows::row`] is one row as a [`TableRow`], and iteration yields
/// the rows in order.
#[derive(Clone, Default)]
pub struct Rows {
    /// Number of rows.
    len: usize,
    /// Per column, the values its cells take. The encoded projection keeps
    /// each distinct value once, in its order; rows built any other way
    /// keep one value per cell.
    values: Vec<Vec<Value>>,
    /// `len * values.len()` codes.
    codes: Vec<u32>,
}

impl Rows {
    /// `len` rows whose cells are, column by column, the values of
    /// `columns` in order: one value per cell.
    fn by_row(len: usize, columns: Vec<Vec<Value>>) -> Self {
        assert!(columns.iter().all(|c| c.len() == len), "{len} rows a column");
        let at = u32::try_from(len).expect("at most 2^32 rows");
        let codes = (0..at).flat_map(|r| std::iter::repeat_n(r, columns.len())).collect();
        Rows { len, values: columns, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> TableRow<'_> {
        assert!(i < self.len, "row {i} of {}", self.len);
        let w = self.values.len();
        TableRow { values: &self.values, codes: &self.codes[i * w..(i + 1) * w] }
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
        let mut columns: Vec<Vec<Value>> =
            (0..width).map(|_| Vec::with_capacity(rows.len())).collect();
        let len = rows.len();
        for row in rows {
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v);
            }
        }
        Rows::by_row(len, columns)
    }
}

/// Equal row counts and equal cells, by value.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().zip(other).all(|(a, b)| a.iter().eq(b))
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a [`Rows`]: its codes and the columns' values they index.
#[derive(Clone, Copy)]
pub struct TableRow<'a> {
    values: &'a [Vec<Value>],
    codes: &'a [u32],
}

impl<'a> TableRow<'a> {
    /// Number of cells.
    pub fn len(self) -> usize {
        self.codes.len()
    }

    /// Cell `c`.
    pub fn get(self, c: usize) -> &'a Value {
        &self.values[c][self.codes[c] as usize]
    }

    /// The cells, in column order.
    pub fn iter(self) -> Cells<'a> {
        Cells { values: self.values.iter(), codes: self.codes.iter() }
    }
}

impl Index<usize> for TableRow<'_> {
    type Output = Value;

    fn index(&self, c: usize) -> &Value {
        self.get(c)
    }
}

impl<'a> IntoIterator for TableRow<'a> {
    type Item = &'a Value;
    type IntoIter = Cells<'a>;

    fn into_iter(self) -> Cells<'a> {
        self.iter()
    }
}

impl fmt::Debug for TableRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The cells of a [`TableRow`], in column order.
#[derive(Clone)]
pub struct Cells<'a> {
    values: std::slice::Iter<'a, Vec<Value>>,
    codes: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Cells<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        Some(&self.values.next()?[*self.codes.next()? as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.codes.size_hint()
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// The rows of a [`Rows`], in order.
#[derive(Clone)]
pub struct RowIter<'a> {
    rows: &'a Rows,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = TableRow<'a>;

    fn next(&mut self) -> Option<TableRow<'a>> {
        (self.next < self.rows.len).then(|| {
            self.next += 1;
            self.rows.row(self.next - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows.len - self.next;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = TableRow<'a>;
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
        Some(self.rows.iter().map(|r| r.get(idx)).collect())
    }

    /// The table as text: a header line, a rule, a line per row and the
    /// row count, columns padded to their widest cell in chars. Each
    /// column value is measured once, not once per cell that shows it,
    /// and a value that is not a string is formatted once, into one
    /// buffer of its texts' exact length, from which its cells copy it.
    /// The text is written into one allocation of its exact length.
    pub fn render(&self) -> String {
        let values = &self.rows.values;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.chars().count()).collect();
        // Per value of every column, column after column: where its text
        // ends in `texts` (a string's text is its own, and takes none) and
        // its length in chars.
        let mut side: Vec<(u32, u32)> = Vec::with_capacity(values.iter().map(Vec::len).sum());
        let measured: usize =
            values.iter().flatten().filter(|v| !matches!(v, Value::Str(_))).map(text_len).sum();
        let mut texts = String::with_capacity(measured);
        // Bytes beyond one per char, over every header and cell.
        let mut extra: usize = self.columns.iter().map(|c| c.len() - c.chars().count()).sum();
        let mut base = 0;
        for (c, (column, w)) in values.iter().zip(&mut widths).enumerate() {
            let mut wide = false;
            for v in column {
                let start = texts.len();
                let text = match v {
                    Value::Str(s) => s.as_ref(),
                    _ => {
                        write!(texts, "{v}").expect("formatting into a String");
                        &texts[start..]
                    }
                };
                let chars = text.chars().count();
                (*w, wide) = ((*w).max(chars), wide || text.len() != chars);
                let end = u32::try_from(texts.len()).expect("at most 4 GiB of text");
                side.push((end, chars as u32));
            }
            if wide {
                // Some value of the column has more bytes than chars: its
                // excess counts once per cell that shows it.
                for r in &self.rows {
                    let i = base + r.codes[c] as usize;
                    extra += cell_text(&texts, &side, r.get(c), i).len() - side[i].1 as usize;
                }
            }
            base += column.len();
        }
        debug_assert_eq!(texts.len(), measured, "the measured texts");
        // A line is `|`, ` cell |` per column and a newline; the last one
        // is `(n rows)` and a newline.
        let line: usize = 2 + widths.iter().map(|w| w + 3).sum::<usize>();
        let n = self.rows.len();
        let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let len = line * (n + 2) + extra + digits + 8;
        let mut out = String::with_capacity(len);
        out.push('|');
        for (c, &w) in self.columns.iter().zip(&widths) {
            cell(&mut out, c, c.chars().count(), w);
        }
        out.push_str("\n|");
        for &w in &widths {
            out.extend(std::iter::repeat_n('-', w + 2));
            out.push('|');
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            let mut base = 0;
            for ((column, &code), &w) in values.iter().zip(row.codes).zip(&widths) {
                let i = base + code as usize;
                let text = cell_text(&texts, &side, &column[code as usize], i);
                cell(&mut out, text, side[i].1 as usize, w);
                base += column.len();
            }
            out.push('\n');
        }
        writeln!(out, "({n} rows)").expect("formatting into a String");
        debug_assert_eq!(out.len(), len, "the measured length");
        out
    }
}

/// Append ` text<padding> |`, `text` of `chars` chars left-aligned in
/// `width` chars.
fn cell(out: &mut String, text: &str, chars: usize, width: usize) {
    out.push(' ');
    out.push_str(text);
    out.extend(std::iter::repeat_n(' ', width - chars + 1));
    out.push('|');
}

/// The text of `v`, value `i` in `render`'s side table: a string's own, any
/// other value's the run of `texts` that ends where its entry says.
fn cell_text<'a>(texts: &'a str, side: &[(u32, u32)], v: &'a Value, i: usize) -> &'a str {
    match v {
        Value::Str(s) => s,
        _ => &texts[i.checked_sub(1).map_or(0, |p| side[p].0 as usize)..side[i].0 as usize],
    }
}

/// The length in bytes of `v`'s text, counted without writing it.
fn text_len(v: &Value) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut n = Count(0);
    write!(n, "{v}").expect("counting never fails");
    n.0
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
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
struct Encoded {
    /// Which of the used slots the column reads.
    slot_ix: usize,
    /// Where the column's ranks start in the columns' one run of ranks:
    /// the dense rank, in [`ord_cmp`] order, of the column's value for
    /// each code of the slot's dictionary, the first an absent component's.
    ranks: usize,
    /// The column's weight in a pattern's key.
    stride: u64,
}

/// One used slot's dictionary: its OIDs ascending, coded 1 + their place
/// (0 codes an absent component); whether a pattern lacks the slot; and
/// the code of each OID the slot changes to, in the order the changes
/// come. Slot 0's changes come ascending, so its `n`th is code `n + 1`.
/// The key pass keeps in `at` the slot's last component, how many changes
/// it has met and the last one's code.
struct Dict {
    oids: Vec<Oid>,
    absent: bool,
    changes: Option<Vec<u32>>,
    at: (Option<Oid>, usize, u32),
}

/// Gather slot `s`'s changes (each component unlike the previous
/// pattern's) into `scratch` and build its [`Dict`]. Another slot than 0
/// sorts its changes tagged with their order, so that the sort which makes
/// the dictionary also codes each change. `None` if an OID leaves no room
/// for the tag.
fn dict(sd: &Subdatabase, s: usize, scratch: &mut Vec<u64>) -> Option<Dict> {
    scratch.clear();
    let (mut absent, mut last, mut first) = (false, None, true);
    for leaf in sd.leaves() {
        for &o in leaf[s..].iter().step_by(sd.intension.width()) {
            if o != last || first {
                (last, first) = (o, false);
                match o {
                    Some(o) => scratch.push(o.raw()),
                    None => absent = true,
                }
            }
        }
    }
    let oids = |raw: &[u64]| raw.iter().map(|&o| Oid::from_raw(o)).collect();
    if s == 0 {
        return Some(Dict { oids: oids(scratch), absent, changes: None, at: (None, 0, 0) });
    }
    let tag = u64::BITS - (scratch.len() as u64 | 1).leading_zeros();
    for (i, o) in scratch.iter_mut().enumerate() {
        *o = o.checked_shl(tag).filter(|t| t >> tag == *o)? | i as u64;
    }
    scratch.sort_unstable();
    // The distinct OIDs move to the front as they are met.
    let (mut changes, mut distinct) = (vec![0; scratch.len()], 0);
    for i in 0..scratch.len() {
        let (o, at) = (scratch[i] >> tag, scratch[i] & ((1 << tag) - 1));
        distinct += usize::from(distinct == 0 || scratch[distinct - 1] != o);
        scratch[distinct - 1] = o;
        changes[at as usize] = distinct as u32;
    }
    let changes = Some(changes);
    Some(Dict { oids: oids(&scratch[..distinct]), absent, changes, at: (None, 0, 0) })
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

/// Dictionary-encoded projection: per used slot the sorted distinct OIDs
/// and the code of each change ([`Dict`]), per column one value read for
/// each of them and its dense rank, per pattern one mixed-radix key of
/// ranks (first column most significant). Sorting and deduplicating the
/// keys sorts and deduplicates the rows; a row's codes are its key's
/// digits, and each column keeps one clone of each of its distinct values.
/// The extension is read from its leaves, once per used slot and once for
/// the keys. `None` when ranks cannot stand for some column's values
/// ([`starts_rank`]), an OID does not fit beside its tag, or the keys do
/// not fit a `u64`.
fn project_encoded(sd: &Subdatabase, cols: &[Column], db: &Database) -> Option<Rows> {
    let n = sd.len();
    // Dictionary positions and ranks are `u32`s.
    u32::try_from(n).ok()?;
    // The slots some column reads, and which of them each column does.
    let mut slots: Vec<usize> = Vec::with_capacity(cols.len());
    let mut enc: Vec<Encoded> = cols
        .iter()
        .map(|c| {
            let slot_ix = slots.iter().position(|&s| s == c.slot()).unwrap_or_else(|| {
                slots.push(c.slot());
                slots.len() - 1
            });
            Encoded { slot_ix, ranks: 0, stride: 1 }
        })
        .collect();
    // Dictionaries, gathered in one scratch sized to the pattern count and
    // copied out at their exact size.
    let mut scratch: Vec<u64> = Vec::with_capacity(n);
    let mut dicts: Vec<Dict> =
        slots.iter().map(|&s| dict(sd, s, &mut scratch)).collect::<Option<_>>()?;

    // OID columns show the OID's text, which sorts as text.
    let oid_text: Vec<Vec<Value>> = cols
        .iter()
        .zip(&enc)
        .map(|(c, e)| match c {
            Column::Class { .. } => {
                dicts[e.slot_ix].oids.iter().map(|o| Value::str(o.to_string())).collect()
            }
            Column::Attr { .. } => Vec::new(),
        })
        .collect();

    // Ranks. A column's entries (an absent component's Null first, then a
    // value per dictionary entry) are sorted by `ord_cmp` in one buffer
    // that serves every column.
    let largest = dicts.iter().map(|d| d.oids.len() + 1).max().unwrap_or(0);
    let mut order: Vec<(&Value, u32)> = Vec::with_capacity(largest);
    let mut ranks: Vec<u32> = vec![0; enc.iter().map(|e| dicts[e.slot_ix].oids.len() + 1).sum()];
    let mut values: Vec<Vec<Value>> = Vec::with_capacity(cols.len());
    let mut start = 0;
    for ((c, text), e) in cols.iter().zip(&oid_text).zip(&mut enc) {
        let Dict { oids: dict, absent, .. } = &dicts[e.slot_ix];
        order.clear();
        if *absent {
            order.push((&NULL, 0));
        }
        match c {
            Column::Attr { attr, .. } => order.extend(
                dict.iter().zip(1..).map(|(&o, at)| (db.attr_ref(o, attr).unwrap_or(&NULL), at)),
            ),
            Column::Class { .. } => order.extend(text.iter().zip(1..)),
        }
        order.sort_unstable_by(|a, b| ord_cmp(a.0, b.0));
        let rank = &mut ranks[start..start + dict.len() + 1];
        let mut distinct = 0;
        for (i, &(v, at)) in order.iter().enumerate() {
            if starts_rank(i.checked_sub(1).map(|p| order[p].0), v)? {
                distinct += 1;
            }
            rank[at as usize] = distinct - 1;
        }
        let mut column: Vec<Value> = Vec::with_capacity(distinct as usize);
        for &(v, at) in &order {
            if rank[at as usize] as usize == column.len() {
                column.push(v.clone());
            }
        }
        values.push(column);
        e.ranks = start;
        start += dict.len() + 1;
    }
    let mut stride = 1u64;
    for (e, column) in enc.iter_mut().zip(&values).rev() {
        e.stride = stride;
        stride = stride.checked_mul(column.len().max(1) as u64)?;
    }

    // Keys, in the dictionaries' scratch. A component that differs from
    // the previous pattern's is the slot's next change, whose code its
    // dictionary kept.
    let keys = &mut scratch;
    keys.clear();
    if slots.is_empty() {
        // No column: one empty row, if there is a pattern.
        keys.extend((n > 0).then_some(0));
    }
    let mut first = true;
    let w = sd.intension.width();
    for leaf in sd.leaves() {
        for row in leaf.chunks_exact(w) {
            let mut changed = false;
            for (&s, dict) in slots.iter().zip(&mut dicts) {
                let (o, at) = (row[s], &mut dict.at);
                if o != at.0 || first {
                    let code = match (o, &dict.changes) {
                        (None, _) => 0,
                        (Some(_), None) => at.1 as u32 + 1,
                        (Some(_), Some(codes)) => codes[at.1],
                    };
                    *at = (o, at.1 + usize::from(o.is_some()), code);
                    changed = true;
                }
            }
            first = false;
            if changed {
                let key = enc
                    .iter()
                    .map(|e| ranks[e.ranks + dicts[e.slot_ix].at.2 as usize] as u64 * e.stride)
                    .sum();
                if keys.last() != Some(&key) {
                    keys.push(key);
                }
            }
        }
    }
    keys.sort_unstable();
    keys.dedup();

    let mut codes = Vec::with_capacity(keys.len() * enc.len());
    for &key in keys.iter() {
        let mut key = key;
        codes.extend(enc.iter().map(|e| {
            let digit = key / e.stride;
            key -= digit * e.stride;
            digit as u32
        }));
    }
    Some(Rows { len: keys.len(), values, codes })
}

/// Row-wise projection, which defines what "sorted and deduplicated" means:
/// one row of values per pattern, rows sorted (stably) by [`ord_cmp`]
/// column by column, adjacent rows that are `==` collapsed as `Vec::dedup`
/// does. The rows are projected into one flat buffer and sorted by index;
/// the survivors' values are moved, not cloned, into the result, one value
/// per cell.
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
    let mut columns: Vec<Vec<Value>> = (0..w).map(|_| Vec::with_capacity(order.len())).collect();
    for &i in &order {
        for (column, v) in columns.iter_mut().zip(&mut cells[i * w..(i + 1) * w]) {
            column.push(std::mem::replace(v, Value::Null));
        }
    }
    Rows::by_row(order.len(), columns)
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
        assert_eq!(t.rows.row(0)[0], Value::str("jones"));
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
        assert!(matches!(t.rows.row(0)[1], Value::Str(_)));
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
        assert!(t.rows.row(199).iter().eq(&vec![Value::Int(199); 9]));
    }

    /// A table rebuilt from its rows, one vector each, is the same table
    /// and renders the same text.
    fn round_trips(t: &Table) -> String {
        let rows: Vec<Vec<Value>> = t.rows.iter().map(|r| r.iter().cloned().collect()).collect();
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
        assert_eq!((t.len(), t.rows.row(0).len()), (1, 0));
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
