//! The row store behind a subdatabase's extension: a sorted, duplicate-free
//! sequence of `width`-cell rows, chunked into flat leaves.
//!
//! Each leaf is one `Vec<Option<Oid>>` of whole rows, and the leaves follow
//! each other in row order, so a walk is a slice walk and a point lookup is
//! two binary searches (over the leaves' last rows, then inside one leaf).
//! A leaf holds at most [`LEAF_CELLS`] cells — or one row, if a row is
//! wider than that — so a point edit moves at most one leaf's cells. A bulk
//! build sizes every leaf to exactly the rows it gets: many results are
//! tiny, and a leaf sized to the cap would mostly be slack. A leaf then
//! grows by insertion as a `Vec` does, splits in half when it is full, and
//! is dropped when it empties.
//!
//! Width 0 stores no cells: such an extension holds at most one (empty)
//! row, which `len` alone records.

use crate::ids::Oid;
use crate::subdb::pattern::Row;
use std::cmp::Ordering;
use std::fmt;

/// Cells per leaf: 2 KB of 8-byte cells.
const LEAF_CELLS: usize = 256;

/// Sorted, deduplicated rows in chunked flat leaves (see the module docs).
#[derive(Clone, Default)]
pub(crate) struct RowStore {
    width: usize,
    len: usize,
    leaves: Vec<Vec<Option<Oid>>>,
}

/// Where a row is, or would go: the leaf, and the row's index in it.
struct Slot {
    leaf: usize,
    row: usize,
    found: bool,
}

impl RowStore {
    /// An empty store of `width`-cell rows; allocates nothing.
    pub(crate) fn new(width: usize) -> Self {
        RowStore { width, len: 0, leaves: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Rows a leaf holds at most.
    fn cap(&self) -> usize {
        (LEAF_CELLS / self.width).max(1)
    }

    /// Row `i` of `leaf`.
    fn row_of<'a>(&self, leaf: &'a [Option<Oid>], i: usize) -> &'a [Option<Oid>] {
        &leaf[i * self.width..(i + 1) * self.width]
    }

    /// The first row position at which `before` turns false; `before` must
    /// hold on a (possibly empty) prefix of the rows and nowhere after it.
    fn partition(&self, before: impl Fn(&[Option<Oid>]) -> bool) -> (usize, usize) {
        let w = self.width;
        let leaf = self.leaves.partition_point(|l| before(&l[l.len() - w..]));
        let Some(cells) = self.leaves.get(leaf) else { return (leaf, 0) };
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

    /// Where `row` is or would be inserted. `width` must be non-zero.
    fn locate(&self, row: &[Option<Oid>]) -> Slot {
        let (leaf, i) = self.partition(|r| r < row);
        let found = self.leaves.get(leaf).is_some_and(|cells| self.row_of(cells, i) == row);
        Slot { leaf, row: i, found }
    }

    pub(crate) fn contains(&self, row: &[Option<Oid>]) -> bool {
        if self.width == 0 {
            return self.len == 1 && row.is_empty();
        }
        row.len() == self.width && self.locate(row).found
    }

    /// Insert a row of the store's width; whether it was new.
    pub(crate) fn insert(&mut self, row: &[Option<Oid>]) -> bool {
        debug_assert_eq!(row.len(), self.width);
        let w = self.width;
        if w == 0 {
            let new = self.len == 0;
            self.len = 1;
            return new;
        }
        let Slot { mut leaf, row: mut at, found } = self.locate(row);
        if found {
            return false;
        }
        self.len += 1;
        if self.leaves.is_empty() {
            self.leaves.push(row.to_vec());
            return true;
        }
        if leaf == self.leaves.len() {
            // Past the last row: append to the last leaf.
            leaf -= 1;
            at = self.leaves[leaf].len() / w;
        }
        let cap = self.cap();
        if self.leaves[leaf].len() / w == cap {
            if cap == 1 {
                self.leaves.insert(leaf + at, row.to_vec());
                return true;
            }
            // The upper half moves to a new leaf with room for a full one.
            let mid = cap / 2;
            let mut right = Vec::with_capacity(cap * w);
            right.extend_from_slice(&self.leaves[leaf][mid * w..]);
            self.leaves[leaf].truncate(mid * w);
            self.leaves.insert(leaf + 1, right);
            if at > mid {
                leaf += 1;
                at -= mid;
            }
        }
        let cells = &mut self.leaves[leaf];
        if cells.len() == cells.capacity() {
            // Grow as a `Vec` does, doubling, but never past the cap.
            cells.reserve_exact(cells.len().min(cap * w - cells.len()).max(w));
        }
        cells.splice(at * w..at * w, row.iter().copied());
        true
    }

    /// Remove a row; whether it was present.
    pub(crate) fn remove(&mut self, row: &[Option<Oid>]) -> bool {
        let w = self.width;
        if w == 0 {
            let present = self.len == 1 && row.is_empty();
            if present {
                self.len = 0;
            }
            return present;
        }
        if row.len() != w {
            return false;
        }
        let Slot { leaf, row: at, found } = self.locate(row);
        if !found {
            return false;
        }
        self.len -= 1;
        let cells = &mut self.leaves[leaf];
        cells.drain(at * w..(at + 1) * w);
        if cells.is_empty() {
            self.leaves.remove(leaf);
        }
        true
    }

    /// Every row, ascending.
    pub(crate) fn iter(&self) -> Rows<'_> {
        Rows { store: self, leaf: 0, at: 0, end: (self.leaves.len(), 0), zero: self.len }
    }

    /// The rows whose slot 0 holds `head`, ascending: one contiguous range.
    pub(crate) fn head_range(&self, head: Option<Oid>) -> Rows<'_> {
        if self.width == 0 {
            return Rows { store: self, leaf: 0, at: 0, end: (0, 0), zero: 0 };
        }
        let (leaf, at) = self.partition(|r| r[0] < head);
        let end = self.partition(|r| r[0] <= head);
        Rows { store: self, leaf, at: at * self.width, end: (end.0, end.1 * self.width), zero: 0 }
    }

    /// Keep the rows `keep` accepts, leaf by leaf in place; emptied leaves
    /// go. Returns how many rows were dropped.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(Row<'_>) -> bool) -> usize {
        let w = self.width;
        let before = self.len;
        if w == 0 {
            if self.len == 1 && !keep(Row::new(&[])) {
                self.len = 0;
            }
            return before - self.len;
        }
        for cells in &mut self.leaves {
            let mut kept = 0;
            for i in 0..cells.len() / w {
                if keep(Row::new(&cells[i * w..(i + 1) * w])) {
                    cells.copy_within(i * w..(i + 1) * w, kept * w);
                    kept += 1;
                }
            }
            self.len -= cells.len() / w - kept;
            cells.truncate(kept * w);
        }
        self.leaves.retain(|cells| !cells.is_empty());
        before - self.len
    }

    /// Replace the contents with `n` rows, written in ascending order by
    /// `fill` into cells that start out Null. Every leaf is sized to
    /// exactly the rows it gets. Panics if a row does not sort strictly
    /// after the one before it.
    pub(crate) fn build(&mut self, n: usize, mut fill: impl FnMut(&mut [Option<Oid>])) {
        let w = self.width;
        self.len = n;
        self.leaves = Vec::new();
        if w == 0 {
            assert!(n <= 1, "an extension of width 0 holds at most one row, not {n}");
            if n == 1 {
                fill(&mut []);
            }
            return;
        }
        let cap = self.cap();
        self.leaves.reserve_exact(n.div_ceil(cap));
        let mut prev: Option<(usize, usize)> = None;
        for start in (0..n).step_by(cap) {
            let rows = cap.min(n - start);
            self.leaves.push(vec![None; rows * w]);
            let leaf = self.leaves.len() - 1;
            for i in 0..rows {
                fill(&mut self.leaves[leaf][i * w..(i + 1) * w]);
                if let Some((pl, pi)) = prev {
                    let (p, r) =
                        (&self.leaves[pl][pi * w..][..w], &self.leaves[leaf][i * w..][..w]);
                    assert!(p < r, "rows must be built in strictly ascending order");
                }
                prev = Some((leaf, i));
            }
        }
    }

    /// The sorted union of two stores of one width, built exact-sized:
    /// one pass counts the distinct rows, a second writes them.
    pub(crate) fn union(&self, other: &RowStore) -> RowStore {
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

/// The distinct rows of two ascending row runs, ascending.
struct Union<'a> {
    a: std::iter::Peekable<Rows<'a>>,
    b: std::iter::Peekable<Rows<'a>>,
}

impl<'a> Iterator for Union<'a> {
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

impl fmt::Debug for RowStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A run of a store's rows, ascending: from a (leaf, cell) position up to
/// an exclusive end position. A width-0 store instead yields `zero` empty
/// rows.
pub(crate) struct Rows<'a> {
    store: &'a RowStore,
    leaf: usize,
    at: usize,
    end: (usize, usize),
    zero: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        let w = self.store.width;
        if w == 0 {
            self.zero = self.zero.checked_sub(1)?;
            return Some(Row::new(&[]));
        }
        if (self.leaf, self.at) >= self.end {
            return None;
        }
        let cells = &self.store.leaves[self.leaf];
        let row = Row::new(&cells[self.at..self.at + w]);
        self.at += w;
        if self.at == cells.len() {
            self.leaf += 1;
            self.at = 0;
        }
        Some(row)
    }
}
