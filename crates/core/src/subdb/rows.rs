//! The row stores: a sorted, duplicate-free sequence of `width`-cell rows,
//! chunked into flat leaves — a subdatabase's extension, a rule's rejected
//! rows, and, with a count beside each row, a rule's derivation counts.
//!
//! Each leaf is one `Vec<Option<Oid>>` of whole rows, and the leaves follow
//! each other in row order, so a walk is a slice walk and a point lookup is
//! two binary searches (over the leaves' last rows, then inside one leaf).
//! A leaf holds at most [`Lane::LEAF_CELLS`] cells — or one row, if a row
//! is wider than that — so a point edit moves at most one leaf's cells. A bulk
//! build sizes every leaf to exactly the rows it gets: many results are
//! tiny, and a leaf sized to the cap would mostly be slack. A span join's
//! [`RowBlocks`] are the exception: its blocks become leaves as they are,
//! and each may carry up to its own size in slack. A leaf then grows by
//! insertion as a `Vec` does, splits in half when it is full, and is
//! dropped when it empties.
//!
//! A leaf carries a [`Lane`] beside its cells: one value per row, in row
//! order, which splits, grows and drains with its leaf. A set
//! ([`RowStore`]) has the empty lane `()`, which stores nothing; the
//! derivation counts ([`RowCounts`]) have a `u32` per row, whose top bit
//! marks the row *visible* ([`RowCounts::VISIBLE`]).
//!
//! Width 0 stores no cells and no lane: such a store holds at most one
//! (empty) row, which `len` alone records.

use crate::ids::Oid;
use crate::subdb::pattern::Row;
use crate::subdb::run::RowRun;
use std::cmp::Ordering;
use std::fmt;

/// The values a leaf keeps beside its rows, one per row and in row order;
/// every edit of the leaf's rows edits its lane at the same row index.
pub trait Lane: Clone {
    /// The value kept per row.
    type Value: Copy + Default + fmt::Debug;
    /// Cells a leaf holds at most. A split leaves both halves with room
    /// for a full leaf, so a store that takes point inserts all its life
    /// keeps smaller leaves than one that is mostly built in bulk.
    const LEAF_CELLS: usize;
    /// An empty lane with room for `rows` values.
    fn with_capacity(rows: usize) -> Self;
    /// The value of row `row`.
    fn get(&self, row: usize) -> Self::Value;
    /// Append a value for a new last row.
    fn push(&mut self, value: Self::Value);
    /// Insert a value for a new row `row`.
    fn insert(&mut self, row: usize, value: Self::Value);
    /// Drop the value of row `row`.
    fn remove(&mut self, row: usize);
    /// Move the values from row `row` on into a new lane with room for
    /// `room` values.
    fn split_off(&mut self, row: usize, room: usize) -> Self;
    /// Make room for `rows` more values.
    fn reserve_exact(&mut self, rows: usize);
    /// Copy the value of row `from` to row `to` (`to <= from`).
    fn move_row(&mut self, from: usize, to: usize);
    /// Keep the first `rows` values.
    fn truncate(&mut self, rows: usize);
}

/// The empty lane of a set: nothing is stored, and every edit is free.
impl Lane for () {
    type Value = ();
    /// 2 KB of 8-byte cells.
    const LEAF_CELLS: usize = 256;
    fn with_capacity(_: usize) {}
    fn get(&self, _: usize) {}
    fn push(&mut self, _: ()) {}
    fn insert(&mut self, _: usize, _: ()) {}
    fn remove(&mut self, _: usize) {}
    fn split_off(&mut self, _: usize, _: usize) {}
    fn reserve_exact(&mut self, _: usize) {}
    fn move_row(&mut self, _: usize, _: usize) {}
    fn truncate(&mut self, _: usize) {}
}

/// The count lane of [`RowCounts`].
impl Lane for Vec<u32> {
    type Value = u32;
    /// 1 KB of 8-byte cells: derivation counts take a point insert per
    /// birth, and a closure's counts take many.
    const LEAF_CELLS: usize = 128;
    fn with_capacity(rows: usize) -> Self {
        Vec::with_capacity(rows)
    }
    fn get(&self, row: usize) -> u32 {
        self[row]
    }
    fn push(&mut self, value: u32) {
        Vec::push(self, value)
    }
    fn insert(&mut self, row: usize, value: u32) {
        Vec::insert(self, row, value)
    }
    fn remove(&mut self, row: usize) {
        Vec::remove(self, row);
    }
    fn split_off(&mut self, row: usize, room: usize) -> Self {
        let mut right = Vec::with_capacity(room);
        right.extend_from_slice(&self[row..]);
        self.truncate(row);
        right
    }
    fn reserve_exact(&mut self, rows: usize) {
        Vec::reserve_exact(self, rows)
    }
    fn move_row(&mut self, from: usize, to: usize) {
        self[to] = self[from];
    }
    fn truncate(&mut self, rows: usize) {
        Vec::truncate(self, rows)
    }
}

/// One leaf: whole rows, and their lane.
#[derive(Clone)]
struct Leaf<L> {
    cells: Vec<Option<Oid>>,
    lane: L,
}

/// Sorted, deduplicated rows in chunked flat leaves, each row with a lane
/// value (see the module docs). `RowStore` alone is a set of rows.
#[derive(Clone, Default)]
pub struct RowStore<L: Lane = ()> {
    width: usize,
    len: usize,
    leaves: Vec<Leaf<L>>,
}

/// Rows with a `u32` count each: a rule's derivation counts, target
/// projection → how many post-WHERE context rows derive it. A key is a
/// row in a leaf, not a box. The lane's top bit is a mark beside the count,
/// [`RowCounts::VISIBLE`]: a rule sets it on exactly the keys its target
/// shows, so the target is the marked keys and no second store.
pub type RowCounts = RowStore<Vec<u32>>;

/// Where a row is, or would go: the leaf, and the row's index in it.
struct Slot {
    leaf: usize,
    row: usize,
    found: bool,
}

impl<L: Lane> RowStore<L> {
    /// An empty store of `width`-cell rows; allocates nothing.
    pub fn new(width: usize) -> Self {
        RowStore { width, len: 0, leaves: Vec::new() }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows a leaf holds at most.
    fn cap(&self) -> usize {
        (L::LEAF_CELLS / self.width).max(1)
    }

    /// Row `i` of `leaf`.
    fn row_of<'a>(&self, leaf: &'a [Option<Oid>], i: usize) -> &'a [Option<Oid>] {
        &leaf[i * self.width..(i + 1) * self.width]
    }

    /// The first row position at which `before` turns false; `before` must
    /// hold on a (possibly empty) prefix of the rows and nowhere after it.
    #[inline]
    fn partition(&self, before: impl Fn(&[Option<Oid>]) -> bool) -> (usize, usize) {
        let w = self.width;
        // The index's widths search their rows as arrays.
        match w {
            1 => return self.partition_rows::<1>(|r| before(r)),
            2 => return self.partition_rows::<2>(|r| before(r)),
            _ => {}
        }
        let leaf = self.leaves.partition_point(|l| before(&l.cells[l.cells.len() - w..]));
        let Some(Leaf { cells, .. }) = self.leaves.get(leaf) else { return (leaf, 0) };
        let (mut lo, mut hi) = (0, cells.len() / w);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if before(self.row_of(cells, mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (leaf, lo)
    }

    /// [`Self::partition`] for a store of width `W`.
    #[inline]
    fn partition_rows<const W: usize>(
        &self,
        before: impl Fn(&[Option<Oid>; W]) -> bool,
    ) -> (usize, usize) {
        fn rows<L, const W: usize>(l: &Leaf<L>) -> &[[Option<Oid>; W]] {
            l.cells.as_chunks::<W>().0
        }
        let leaf = self.leaves.partition_point(|l| rows::<L, W>(l).last().is_some_and(&before));
        let row = self.leaves.get(leaf).map_or(0, |l| rows::<L, W>(l).partition_point(&before));
        (leaf, row)
    }

    /// Where `row` is or would be inserted. `width` must be non-zero.
    fn locate(&self, row: &[Option<Oid>]) -> Slot {
        // The index's widths compare cells, not slices.
        let (leaf, i) = match *row {
            [x] => self.partition(|r| r[0] < x),
            [x, y] => self.partition(|r| (r[0], r[1]) < (x, y)),
            _ => self.partition(|r| r < row),
        };
        let at = |l: &Leaf<L>| l.cells.get(i * row.len()..).is_some_and(|c| c.starts_with(row));
        let found = self.leaves.get(leaf).is_some_and(at);
        Slot { leaf, row: i, found }
    }

    /// Where `row` is, if the store holds it.
    fn find(&self, row: &[Option<Oid>]) -> Option<Slot> {
        (self.width > 0 && row.len() == self.width).then(|| self.locate(row)).filter(|s| s.found)
    }

    /// Whether the store holds `row`.
    pub fn contains(&self, row: &[Option<Oid>]) -> bool {
        if self.width == 0 {
            return self.len == 1 && row.is_empty();
        }
        self.find(row).is_some()
    }

    /// Insert `row`, absent, with `value` at `slot`, where [`Self::locate`]
    /// put it. `width` must be non-zero.
    fn put(&mut self, slot: Slot, row: &[Option<Oid>], value: L::Value) {
        debug_assert!(!slot.found);
        let w = self.width;
        let Slot { mut leaf, row: mut at, .. } = slot;
        self.len += 1;
        let single = || {
            let mut lane = L::with_capacity(1);
            lane.push(value);
            Leaf { cells: row.to_vec(), lane }
        };
        if self.leaves.is_empty() {
            self.leaves.push(single());
            return;
        }
        if leaf == self.leaves.len() {
            // Past the last row: append to the last leaf.
            leaf -= 1;
            at = self.leaves[leaf].cells.len() / w;
        }
        let cap = self.cap();
        if self.leaves[leaf].cells.len() / w == cap {
            if cap == 1 {
                self.leaves.insert(leaf + at, single());
                return;
            }
            // The upper half moves to a new leaf with room for a full one.
            let mid = cap / 2;
            let left = &mut self.leaves[leaf];
            let mut cells = Vec::with_capacity(cap * w);
            cells.extend_from_slice(&left.cells[mid * w..]);
            left.cells.truncate(mid * w);
            let lane = left.lane.split_off(mid, cap);
            self.leaves.insert(leaf + 1, Leaf { cells, lane });
            if at > mid {
                leaf += 1;
                at -= mid;
            }
        }
        let Leaf { cells, lane } = &mut self.leaves[leaf];
        if cells.len() == cells.capacity() {
            // Grow as a `Vec` does, doubling, but never past the cap.
            let rows = cells.len() / w;
            let more = rows.min(cap - rows).max(1);
            cells.reserve_exact(more * w);
            lane.reserve_exact(more);
        }
        cells.splice(at * w..at * w, row.iter().copied());
        lane.insert(at, value);
    }

    /// Remove a row; whether it was present.
    pub fn remove(&mut self, row: &[Option<Oid>]) -> bool {
        let w = self.width;
        if w == 0 {
            let present = self.len == 1 && row.is_empty();
            if present {
                self.len = 0;
            }
            return present;
        }
        let Some(slot) = self.find(row) else { return false };
        self.cut(slot);
        true
    }

    /// Remove the row at `slot`, where [`Self::find`] found it.
    fn cut(&mut self, Slot { leaf, row: at, .. }: Slot) {
        let w = self.width;
        self.len -= 1;
        let Leaf { cells, lane } = &mut self.leaves[leaf];
        cells.drain(at * w..(at + 1) * w);
        lane.remove(at);
        if cells.is_empty() {
            self.leaves.remove(leaf);
        }
    }

    /// Every row with its lane value, ascending.
    pub fn entries(&self) -> Entries<'_, L> {
        Entries { store: self, leaf: 0, at: 0, head: None, zero: self.len }
    }

    /// Every row, ascending.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + Clone + '_ {
        self.entries().map(|(row, _)| row)
    }

    /// The rows leaf by leaf, ascending: each leaf one flat run of whole
    /// rows, `width` cells a row. A width-0 store has no leaves.
    pub fn leaves(&self) -> impl Iterator<Item = &[Option<Oid>]> + '_ {
        self.leaves.iter().map(|l| l.cells.as_slice())
    }

    /// The rows whose slot 0 holds `head`, with their lane values,
    /// ascending: one contiguous range, found by one binary search and
    /// ended by the first row with another head.
    pub fn head_range(&self, head: Option<Oid>) -> Entries<'_, L> {
        if self.width == 0 {
            return Entries { store: self, leaf: 0, at: 0, head: None, zero: 0 };
        }
        let (leaf, at) = self.partition(|r| r[0] < head);
        Entries { store: self, leaf, at, head: Some(head), zero: 0 }
    }

    /// Keep the rows `keep` accepts, leaf by leaf in place; emptied leaves
    /// go. Returns how many rows were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(Row<'_>) -> bool) -> usize {
        let w = self.width;
        let before = self.len;
        if w == 0 {
            if self.len == 1 && !keep(Row::new(&[])) {
                self.len = 0;
            }
            return before - self.len;
        }
        for Leaf { cells, lane } in &mut self.leaves {
            let mut kept = 0;
            for i in 0..cells.len() / w {
                if keep(Row::new(&cells[i * w..(i + 1) * w])) {
                    cells.copy_within(i * w..(i + 1) * w, kept * w);
                    lane.move_row(i, kept);
                    kept += 1;
                }
            }
            self.len -= cells.len() / w - kept;
            cells.truncate(kept * w);
            lane.truncate(kept);
        }
        self.leaves.retain(|l| !l.cells.is_empty());
        before - self.len
    }

    /// Replace the contents with `n` rows, written in ascending order by
    /// `fill` into cells that start out Null; `fill` returns the row's lane
    /// value. Every leaf is sized to exactly the rows it gets. Panics if a
    /// row does not sort strictly after the one before it.
    pub fn build(&mut self, n: usize, mut fill: impl FnMut(&mut [Option<Oid>]) -> L::Value) {
        let w = self.width;
        self.len = n;
        self.leaves = Vec::new();
        if w == 0 {
            assert!(n <= 1, "a store of width 0 holds at most one row, not {n}");
            if n == 1 {
                fill(&mut []);
            }
            return;
        }
        let cap = self.cap();
        self.leaves.reserve_exact(n.div_ceil(cap));
        for start in (0..n).step_by(cap) {
            let rows = cap.min(n - start);
            let mut leaf = Leaf { cells: vec![None; rows * w], lane: L::with_capacity(rows) };
            for i in 0..rows {
                leaf.lane.push(fill(&mut leaf.cells[i * w..(i + 1) * w]));
                let prev = match i {
                    0 => self.leaves.last().map(|l| &l.cells[l.cells.len() - w..]),
                    _ => Some(&leaf.cells[(i - 1) * w..i * w]),
                };
                if let Some(p) = prev {
                    let row = &leaf.cells[i * w..(i + 1) * w];
                    assert!(p < row, "rows must be built in strictly ascending order");
                }
            }
            self.leaves.push(leaf);
        }
    }

    /// Give every row a new shape, keeping its lane value: cell `j` of the
    /// new row is cell `cols[j]` of the old one, or Null. One pass of cell
    /// copies into exact-sized leaves, with no sort: adding or dropping a
    /// column that is Null in every row keeps the rows' order, and the
    /// caller keeps to that (a cell `cols` drops must be Null, which debug
    /// builds check; the build panics on rows out of order).
    pub fn reshape(&mut self, cols: &[Option<usize>]) {
        // The leading columns that stay where they are copy as one slice.
        let same = cols.iter().enumerate().take_while(|&(j, &c)| c == Some(j)).count();
        if same == cols.len() && same == self.width {
            return;
        }
        let old = std::mem::replace(self, RowStore::new(cols.len()));
        let mut entries = old.entries();
        self.build(old.len, |cells| {
            let (row, value) = entries.next().expect("one entry per row");
            let row = row.components();
            let dropped_null = (0..row.len()).all(|i| row[i].is_none() || cols.contains(&Some(i)));
            debug_assert!(dropped_null, "a dropped cell is Null");
            cells[..same].copy_from_slice(&row[..same]);
            for (cell, col) in cells[same..].iter_mut().zip(&cols[same..]) {
                *cell = col.and_then(|i| row[i]);
            }
            value
        });
    }
}

impl RowStore {
    /// Insert a row of the store's width; whether it was new.
    pub fn insert(&mut self, row: &[Option<Oid>]) -> bool {
        debug_assert_eq!(row.len(), self.width);
        if self.width == 0 {
            let new = self.len == 0;
            self.len = 1;
            return new;
        }
        let slot = self.locate(row);
        if slot.found {
            return false;
        }
        self.put(slot, row, ());
        true
    }

    /// Replace the contents with the rows of `run`, sorted and distinct
    /// ([`RowRun::sort`]), copied once into exact-sized leaves. Panics on
    /// a run of another width, or one out of order.
    pub fn set_run(&mut self, run: &RowRun) {
        assert_eq!(run.width(), self.width, "a run of another width");
        let mut rows = run.iter();
        self.build(run.len(), |cells| {
            cells.copy_from_slice(rows.next().expect("one row per slot").components());
        });
    }

    /// Replace the contents with the distinct rows of `blocks`, a writer of
    /// the store's width: its blocks become the leaves. Strictly ascending
    /// rows are kept as they are. Others are gathered into one exact-sized
    /// run, sorted and deduplicated there, and written back into the
    /// blocks in order, each filled to its capacity; blocks left empty go.
    pub fn set_blocks(&mut self, mut blocks: RowBlocks) {
        let w = self.width;
        assert_eq!(blocks.width, w, "blocks of another width");
        if !blocks.ascending {
            let mut run = RowRun::with_capacity(w, blocks.len);
            blocks.iter().for_each(|r| run.push(r.components()));
            run.sort();
            blocks.len = run.len();
            let mut rows = run.iter();
            for Leaf { cells, .. } in &mut blocks.blocks {
                cells.clear();
                while cells.len() < cells.capacity() {
                    let Some(r) = rows.next() else { break };
                    cells.extend_from_slice(r.components());
                }
            }
            blocks.blocks.retain(|b| !b.cells.is_empty());
        }
        (self.len, self.leaves) = (blocks.len, blocks.blocks);
    }

    /// The sorted union of two stores of one width, built exact-sized:
    /// one pass counts the distinct rows, a second writes them.
    pub fn union(&self, other: &RowStore) -> RowStore {
        debug_assert_eq!(self.width, other.width);
        let mut out = RowStore::new(self.width);
        let union = || Union { a: self.iter().peekable(), b: other.iter().peekable() };
        let mut rows = union();
        out.build(union().count(), |cells| {
            cells.copy_from_slice(rows.next().expect("counted").components());
        });
        out
    }
}

/// Derivation counts. A key is never all Null, so a counted row has at
/// least one cell: the edits below need a non-zero width. A count lives in
/// the lane's low 31 bits; the edits keep the [`RowCounts::VISIBLE`] mark.
impl RowCounts {
    /// The lane bit that marks a key visible; the rest of a lane value is
    /// the key's count.
    pub const VISIBLE: u32 = 1 << 31;

    /// The lane value of `row` — its count, possibly zero between a step's
    /// decrements and its deaths, and its [`RowCounts::VISIBLE`] mark — if
    /// the store holds it.
    pub fn get(&self, row: &[Option<Oid>]) -> Option<u32> {
        self.find(row).map(|s| self.leaves[s.leaf].lane[s.row])
    }

    /// Whether the store holds `row` and it is marked visible.
    pub fn is_visible(&self, row: &[Option<Oid>]) -> bool {
        self.find(row).is_some_and(|s| self.leaves[s.leaf].lane[s.row] & Self::VISIBLE != 0)
    }

    /// Mark `row` visible or not; a row the store does not hold is left
    /// alone.
    pub fn set_visible(&mut self, row: &[Option<Oid>], on: bool) {
        if let Some(s) = self.find(row) {
            let lane = &mut self.leaves[s.leaf].lane[s.row];
            *lane = if on { *lane | Self::VISIBLE } else { *lane & !Self::VISIBLE };
        }
    }

    /// Mark visible each of `rows`, ascending and every one held by the
    /// store: one merge walk of the leaves. Panics on a row the store does
    /// not hold.
    pub fn mark_visible<'a>(&mut self, rows: impl IntoIterator<Item = Row<'a>>) {
        let w = self.width;
        let (mut leaf, mut at) = (0, 0);
        for row in rows {
            loop {
                let Leaf { cells, lane } = self.leaves.get_mut(leaf).expect("a held row");
                if at * w == cells.len() {
                    (leaf, at) = (leaf + 1, 0);
                    continue;
                }
                at += 1;
                if cells[(at - 1) * w..at * w] == *row.components() {
                    lane[at - 1] |= Self::VISIBLE;
                    break;
                }
            }
        }
    }

    /// Count one more derivation of `row`; whether the row is new to the
    /// store, born at 1 and not visible.
    pub fn increment(&mut self, row: &[Option<Oid>]) -> bool {
        assert!(self.width > 0 && row.len() == self.width, "a counted row of width {}", row.len());
        let slot = self.locate(row);
        if slot.found {
            let lane = &mut self.leaves[slot.leaf].lane[slot.row];
            debug_assert!(*lane & !Self::VISIBLE < !Self::VISIBLE, "a count fits in 31 bits");
            *lane += 1;
            return false;
        }
        self.put(slot, row, 1);
        true
    }

    /// Count one derivation of `row` fewer; its new count, or `None` if the
    /// store does not hold it. A row at zero stays, mark and all, until it
    /// is removed.
    pub fn decrement(&mut self, row: &[Option<Oid>]) -> Option<u32> {
        let s = self.find(row)?;
        let lane = &mut self.leaves[s.leaf].lane[s.row];
        let count = (*lane & !Self::VISIBLE).checked_sub(1).expect("a derivation count below zero");
        *lane = *lane & Self::VISIBLE | count;
        Some(count)
    }

    /// Count one derivation of `row` fewer, and remove it at zero; whether
    /// it went. A row the store does not hold is left alone.
    pub fn release(&mut self, row: &[Option<Oid>]) -> bool {
        let Some(s) = self.find(row) else { return false };
        let lane = &mut self.leaves[s.leaf].lane[s.row];
        let count = (*lane & !Self::VISIBLE).checked_sub(1).expect("a derivation count below zero");
        *lane = *lane & Self::VISIBLE | count;
        if count == 0 {
            self.cut(s);
        }
        count == 0
    }

    /// Replace the contents with the distinct rows of `run`, each counted
    /// by its copies in the run: the run is sorted in place, keeping its
    /// duplicates, and run-length counted into exact-sized leaves.
    pub fn set_counted(&mut self, run: &mut RowRun) {
        assert_eq!(run.width(), self.width, "a run of another width");
        assert!(self.width > 0 || run.is_empty(), "counted rows have at least one cell");
        run.order();
        let n = run.len();
        let distinct =
            (1..n).filter(|&i| run.row(i - 1) != run.row(i)).count() + usize::from(n > 0);
        let mut i = 0;
        self.build(distinct, |cells| {
            let row = run.row(i);
            cells.copy_from_slice(row.components());
            let start = i;
            while i < n && run.row(i) == row {
                i += 1;
            }
            u32::try_from(i - start).ok().filter(|&c| c < Self::VISIBLE).expect("a count fits")
        });
    }
}

/// A span join's output: rows of one non-zero width appended one at a
/// time, in any order, into blocks that are never reallocated and that a
/// [`RowStore`] takes as its leaves ([`RowStore::set_blocks`]). The first
/// block holds four rows and each next one twice the rows of the one
/// before, up to a leaf's cap: a three-row span allocates one small block,
/// and a large one at most a leaf's worth of slack. The writer keeps
/// whether its rows are strictly ascending so far.
pub struct RowBlocks {
    width: usize,
    len: usize,
    blocks: Vec<Leaf<()>>,
    ascending: bool,
}

impl RowBlocks {
    /// An empty writer of `width`-cell rows; allocates nothing.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "span rows have at least one cell");
        RowBlocks { width, len: 0, blocks: Vec::new(), ascending: true }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row has been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row. Panics on a row of another width.
    pub fn push(&mut self, row: &[Option<Oid>]) {
        let w = self.width;
        assert_eq!(row.len(), w, "a row of width {} among rows of width {w}", row.len());
        self.len += 1;
        let rows = match self.blocks.last_mut() {
            Some(Leaf { cells, .. }) => {
                self.ascending &= cells[cells.len() - w..] < *row;
                if cells.len() < cells.capacity() {
                    return cells.extend_from_slice(row);
                }
                2 * cells.len() / w
            }
            None => 4,
        };
        let mut cells = Vec::with_capacity(rows.min((<() as Lane>::LEAF_CELLS / w).max(1)) * w);
        cells.extend_from_slice(row);
        self.blocks.push(Leaf { cells, lane: () });
    }

    /// Every row, in write order.
    pub fn iter(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        self.blocks.iter().flat_map(|b| b.cells.chunks_exact(self.width)).map(Row::new)
    }
}

/// The distinct rows of two ascending row runs, ascending.
struct Union<I: Iterator> {
    a: std::iter::Peekable<I>,
    b: std::iter::Peekable<I>,
}

impl<'a, I: Iterator<Item = Row<'a>>> Iterator for Union<I> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => self.a.next(),
                Ordering::Greater => self.b.next(),
                Ordering::Equal => {
                    self.b.next();
                    self.a.next()
                }
            },
            (Some(_), None) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }
}

impl<L: Lane> fmt::Debug for RowStore<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.entries()).finish()
    }
}

/// A run of a store's rows with their lane values, ascending: from a
/// (leaf, row) position to the last row, or, given a `head`, to the last
/// row whose slot 0 holds it. A width-0 store instead yields `zero` empty
/// rows.
#[derive(Clone)]
pub struct Entries<'a, L: Lane> {
    store: &'a RowStore<L>,
    leaf: usize,
    at: usize,
    head: Option<Option<Oid>>,
    zero: usize,
}

impl<'a, L: Lane> Iterator for Entries<'a, L> {
    type Item = (Row<'a>, L::Value);

    fn next(&mut self) -> Option<Self::Item> {
        let w = self.store.width;
        if w == 0 {
            self.zero = self.zero.checked_sub(1)?;
            return Some((Row::new(&[]), L::Value::default()));
        }
        let Leaf { cells, lane } = self.store.leaves.get(self.leaf)?;
        let row = &cells[self.at * w..(self.at + 1) * w];
        if self.head.is_some_and(|h| row[0] != h) {
            return None;
        }
        let entry = (Row::new(row), lane.get(self.at));
        self.at += 1;
        if self.at * w == cells.len() {
            self.leaf += 1;
            self.at = 0;
        }
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{check, Gen};
    use std::collections::BTreeMap;

    type Model = BTreeMap<Vec<Option<Oid>>, u32>;

    fn cell(g: &mut Gen) -> Option<Oid> {
        match g.range(0..10u32) {
            0 => None,
            1 => Some(Oid::MIN),
            2 => Some(Oid::MAX),
            _ => Some(Oid::from_raw(g.range(2..12u64))),
        }
    }

    /// The store's rows and counts, and that its leaves are well formed:
    /// none empty, none over the cap, one count per row.
    fn entries(store: &RowCounts) -> Vec<(Vec<Option<Oid>>, u32)> {
        let w = store.width;
        for Leaf { cells, lane } in &store.leaves {
            assert!(!cells.is_empty() && cells.len() / w <= store.cap(), "leaf size");
            assert_eq!(lane.len(), cells.len() / w, "one count per row");
        }
        assert_eq!(store.leaves.iter().map(|l| l.lane.len()).sum::<usize>(), store.len());
        store.entries().map(|(r, c)| (r.components().to_vec(), c)).collect()
    }

    fn want(model: &Model, keep: impl Fn(&[Option<Oid>]) -> bool) -> Vec<(Vec<Option<Oid>>, u32)> {
        model.iter().filter(|(k, _)| keep(k)).map(|(k, &c)| (k.clone(), c)).collect()
    }

    /// Derivation counts against a `BTreeMap` of component vectors written
    /// here: built in bulk from a run with duplicates, then incremented,
    /// decremented, grown by new rows, shrunk by removals, read by head
    /// range and filtered in place, at widths 1, 3, 9 and 40. Widths 9 and
    /// 40 hold 14 and 3 rows per leaf, so leaves split and are dropped.
    #[test]
    fn counts_match_a_btreemap_model() {
        check("counts_match_a_btreemap_model", 64, |g| {
            for width in [1, 3, 9, 40] {
                let row = |g: &mut Gen| -> Vec<Option<Oid>> {
                    (0..width).map(|i| if i < 3 { cell(g) } else { None }).collect()
                };
                let mut model = Model::new();
                let mut run = RowRun::new(width);
                for _ in 0..g.range(0..120usize) {
                    let r = row(g);
                    run.push(&r);
                    *model.entry(r).or_insert(0) += 1;
                }
                let mut store = RowCounts::new(width);
                store.set_counted(&mut run);
                assert_eq!(entries(&store), want(&model, |_| true), "bulk");

                for _ in 0..g.range(0..120usize) {
                    let r = row(g);
                    match (g.range(0..4u32), model.get(&r).copied()) {
                        (0 | 1, c) => {
                            assert_eq!(store.increment(&r), c.is_none(), "increment");
                            *model.entry(r.clone()).or_insert(0) += 1;
                        }
                        (2, Some(c)) if c > 0 => {
                            assert_eq!(store.decrement(&r), Some(c - 1), "decrement");
                            model.insert(r.clone(), c - 1);
                        }
                        (2, None) => assert_eq!(store.decrement(&r), None, "decrement"),
                        (_, c) => {
                            assert_eq!(store.remove(&r), c.is_some(), "remove");
                            model.remove(&r);
                        }
                    }
                    assert_eq!(store.get(&r), model.get(&r).copied(), "get");
                    assert_eq!(store.contains(&r), model.contains_key(&r), "contains");
                }
                assert_eq!(entries(&store), want(&model, |_| true), "edits");
                assert_eq!(store.len(), model.len());

                let heads = model.keys().map(|k| k[0]).chain([None, cell(g)]);
                for head in heads.collect::<Vec<_>>() {
                    let got: Vec<_> =
                        store.head_range(head).map(|(r, c)| (r.components().to_vec(), c)).collect();
                    assert_eq!(got, want(&model, |k| k[0] == head), "head range of {head:?}");
                }

                let gone = cell(g);
                let dropped = store.retain(|r| r.get(0) != gone);
                let before = model.len();
                model.retain(|k, _| k[0] != gone);
                assert_eq!(dropped, before - model.len(), "retain");
                assert_eq!(entries(&store), want(&model, |_| true), "retain");
            }
        });
    }

    /// Re-shaping counted rows at widths 1, 3 and 9: Null columns put in
    /// at random places keep every row's order and count, each row reads
    /// as the model's row with those Nulls in, and leaves are cut to the
    /// new width's cap; narrowing back gives the same store.
    #[test]
    fn reshape_widens_and_narrows_back() {
        check("reshape_widens_and_narrows_back", 64, |g| {
            for width in [1, 3, 9] {
                let mut model = Model::new();
                let mut run = RowRun::new(width);
                for _ in 0..g.range(0..120usize) {
                    let r: Vec<Option<Oid>> = (0..width).map(|_| cell(g)).collect();
                    run.push(&r);
                    *model.entry(r).or_insert(0) += 1;
                }
                let mut store = RowCounts::new(width);
                store.set_counted(&mut run);
                let mut cols: Vec<Option<usize>> = (0..width).map(Some).collect();
                for _ in 0..g.range(1..40usize) {
                    let at = g.range(0..cols.len() + 1);
                    cols.insert(at, None);
                }
                store.reshape(&cols);
                let wide = |k: &[Option<Oid>]| cols.iter().map(|i| i.and_then(|i| k[i])).collect();
                let widened: Vec<_> = model.iter().map(|(k, &c)| (wide(k), c)).collect();
                assert_eq!(entries(&store), widened, "widened by {cols:?}");
                let back: Vec<Option<usize>> =
                    (0..width).map(|i| cols.iter().position(|&c| c == Some(i))).collect();
                store.reshape(&back);
                assert_eq!(entries(&store), want(&model, |_| true), "narrowed back");
            }
        });
    }
}
