//! Row runs: the short-lived row lists of a maintenance step — a delta
//! join's output, the rows bound to a dirty object, the edits one WHERE
//! condition passes on, a target's edits — as one flat buffer of
//! `width`-cell rows.
//!
//! A run is filled by [`RowRun::push`] in any order and made sorted and
//! duplicate-free by [`RowRun::sort`]; from then on it is read
//! through the borrowed [`Row`] view, searched by binary search, and split
//! or filtered in place. No operation allocates per row: a buffer is sized
//! once by its producer, or reused.

use crate::ids::Oid;
use crate::subdb::pattern::Row;
use std::cmp::Ordering;
use std::fmt;

/// Rows of one width in one flat `Vec` (see the module docs).
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RowRun {
    width: usize,
    /// Row count; kept apart from the cells so that width 0 works.
    len: usize,
    cells: Vec<Option<Oid>>,
}

impl RowRun {
    /// An empty run of `width`-cell rows; allocates nothing.
    pub fn new(width: usize) -> Self {
        RowRun {
            width,
            len: 0,
            cells: Vec::new(),
        }
    }

    /// An empty run with room for exactly `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        RowRun {
            width,
            len: 0,
            cells: Vec::with_capacity(width * rows),
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a row. The run is unsorted until the next [`RowRun::sort`].
    /// Panics on a row of another width.
    pub fn push(&mut self, row: &[Option<Oid>]) {
        assert_eq!(
            row.len(),
            self.width,
            "a row of width {} in a run of width {}",
            row.len(),
            self.width
        );
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Append a row of Null cells and let `fill` write it in place.
    pub fn push_with(&mut self, fill: impl FnOnce(&mut [Option<Oid>])) {
        let at = self.cells.len();
        self.cells.resize(at + self.width, None);
        self.len += 1;
        fill(&mut self.cells[at..]);
    }

    /// Append every row of `other`, a run of the same width, with room made
    /// for exactly them. Unsorted until the next [`RowRun::sort`].
    pub fn append(&mut self, other: &RowRun) {
        assert_eq!(
            other.width, self.width,
            "runs of widths {} and {}",
            other.width, self.width
        );
        self.cells.reserve_exact(other.cells.len());
        self.cells.extend_from_slice(&other.cells);
        self.len += other.len;
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        Row::new(&self.cells[i * self.width..(i + 1) * self.width])
    }

    /// Every row, in run order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Sort the rows ascending and drop duplicates. An already strictly
    /// ascending run is only checked. Rows of up to eight cells are sorted
    /// in place as arrays, allocating nothing; wider rows are sorted by
    /// index and gathered into one new buffer of the same size.
    pub fn sort(&mut self) {
        let (w, n) = (self.width, self.len);
        if (1..n).all(|i| self.row(i - 1) < self.row(i)) {
            return;
        }
        if w == 0 {
            self.len = 1;
            return;
        }
        fn arrays<const W: usize>(cells: &mut [Option<Oid>]) {
            cells.as_chunks_mut::<W>().0.sort_unstable();
        }
        match w {
            1 => arrays::<1>(&mut self.cells),
            2 => arrays::<2>(&mut self.cells),
            3 => arrays::<3>(&mut self.cells),
            4 => arrays::<4>(&mut self.cells),
            5 => arrays::<5>(&mut self.cells),
            6 => arrays::<6>(&mut self.cells),
            7 => arrays::<7>(&mut self.cells),
            8 => arrays::<8>(&mut self.cells),
            _ => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_unstable_by(|&a, &b| self.row(a).cmp(&self.row(b)));
                let mut sorted = Vec::with_capacity(self.cells.len());
                for i in order {
                    sorted.extend_from_slice(self.row(i).components());
                }
                self.cells = sorted;
            }
        }
        let cells = &mut self.cells;
        let mut kept = 1;
        for i in 1..n {
            if cells[i * w..][..w] != cells[(kept - 1) * w..][..w] {
                cells.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Keep the first `rows` rows.
    fn truncate(&mut self, rows: usize) {
        self.len = rows;
        self.cells.truncate(rows * self.width);
    }

    /// Where `row` is, or would go, in a sorted run.
    fn search(&self, row: &[Option<Oid>]) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.row(mid).components().cmp(row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Whether a sorted run holds `row`: one binary search.
    pub fn contains(&self, row: impl AsRef<[Option<Oid>]>) -> bool {
        self.search(row.as_ref()).is_ok()
    }

    /// Remove `row` from a sorted run, shifting the rows after it down;
    /// whether it was there.
    pub fn remove(&mut self, row: impl AsRef<[Option<Oid>]>) -> bool {
        let Ok(i) = self.search(row.as_ref()) else {
            return false;
        };
        self.cells.drain(i * self.width..(i + 1) * self.width);
        self.len -= 1;
        true
    }

    /// Keep the rows `keep` accepts, in order, compacting in place.
    pub fn retain(&mut self, mut keep: impl FnMut(Row<'_>) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(self.row(i)) {
                self.cells.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Split two sorted runs of one width into (only in `self`, only in
    /// `other`, in both). A counting pass sizes the three; the smallest is
    /// the one new buffer, sized exactly, and the other two are `self` and
    /// `other` compacted in place — the common rows are a subsequence of
    /// either input.
    pub fn split_common(mut self, mut other: RowRun) -> (RowRun, RowRun, RowRun) {
        assert_eq!(
            other.width, self.width,
            "runs of widths {} and {}",
            other.width, self.width
        );
        let order = |a: &RowRun, b: &RowRun, i: usize, j: usize| match (i < a.len, j < b.len) {
            (true, true) => a.row(i).cmp(&b.row(j)),
            (true, false) => Ordering::Less,
            _ => Ordering::Greater,
        };
        let (mut i, mut j, mut common) = (0, 0, 0);
        while i < self.len && j < other.len {
            match order(&self, &other, i, j) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => (i, j, common) = (i + 1, j + 1, common + 1),
            }
        }
        // Which output gets the new buffer: 0, 1 or 2 for only-in-self,
        // only-in-other, both.
        let sizes = [self.len - common, other.len - common, common];
        let fresh = (0..3).min_by_key(|&k| sizes[k]).expect("three outputs");
        let w = self.width;
        let mut new = RowRun::with_capacity(w, sizes[fresh]);
        let (mut i, mut j, mut kept_a, mut kept_b) = (0, 0, 0, 0);
        while i < self.len || j < other.len {
            let step = order(&self, &other, i, j);
            // The output this row goes to, and whether it is read from `self`.
            let (out, from_a) = match step {
                Ordering::Less => (0, true),
                Ordering::Greater => (1, false),
                Ordering::Equal => (2, fresh != 1),
            };
            let at = if from_a { i } else { j };
            if out == fresh {
                new.push(if from_a { self.row(at) } else { other.row(at) }.components());
            } else if from_a {
                self.cells.copy_within(at * w..(at + 1) * w, kept_a * w);
                kept_a += 1;
            } else {
                other.cells.copy_within(at * w..(at + 1) * w, kept_b * w);
                kept_b += 1;
            }
            i += usize::from(step != Ordering::Greater);
            j += usize::from(step != Ordering::Less);
        }
        self.truncate(kept_a);
        other.truncate(kept_b);
        match fresh {
            0 => (new, other, self),
            1 => (self, new, other),
            _ => (self, other, new),
        }
    }
}

impl fmt::Debug for RowRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{check, Gen};
    use std::collections::BTreeSet;

    type Model = BTreeSet<Vec<Option<Oid>>>;

    fn cell(g: &mut Gen) -> Option<Oid> {
        match g.range(0..8u32) {
            0 => None,
            1 => Some(Oid::MIN),
            2 => Some(Oid::MAX),
            _ => Some(Oid::from_raw(g.range(2..6u64))),
        }
    }

    /// A run built from `rows` in the given order, then sorted.
    fn run_of(width: usize, rows: &[Vec<Option<Oid>>]) -> RowRun {
        let mut run = RowRun::new(width);
        for r in rows {
            run.push(r);
        }
        run.sort();
        run
    }

    fn rows_of(run: &RowRun) -> Vec<Vec<Option<Oid>>> {
        run.iter().map(|r| r.components().to_vec()).collect()
    }

    /// Runs against a `BTreeSet` of component vectors written here: built
    /// from unsorted rows with duplicates, searched, edited, and split
    /// three ways, at widths 1, 2, 5 and 40, with Null cells, `Oid::MIN` and
    /// `Oid::MAX`.
    #[test]
    fn runs_match_a_btreeset_model() {
        check("runs_match_a_btreeset_model", 64, |g| {
            for width in [1, 2, 5, 40] {
                // Few distinct cells per row, so duplicates are common; the
                // pool repeats rows on purpose.
                let pool: Vec<Vec<Option<Oid>>> = g.vec(1..12, |g| {
                    (0..width)
                        .map(|i| if i < 3 { cell(g) } else { None })
                        .collect()
                });
                let pick = |g: &mut Gen| g.choose(&pool).clone();
                let a_rows: Vec<Vec<Option<Oid>>> =
                    (0..g.range(0..30usize)).map(|_| pick(g)).collect();
                let b_rows: Vec<Vec<Option<Oid>>> =
                    (0..g.range(0..30usize)).map(|_| pick(g)).collect();
                let a_model: Model = a_rows.iter().cloned().collect();
                let b_model: Model = b_rows.iter().cloned().collect();
                let a = run_of(width, &a_rows);
                let b = run_of(width, &b_rows);
                assert_eq!(
                    rows_of(&a),
                    a_model.iter().cloned().collect::<Vec<_>>(),
                    "sort"
                );
                assert_eq!(a.len(), a_model.len());
                assert!(
                    a.iter().zip(a.iter().skip(1)).all(|(x, y)| x < y),
                    "strictly ascending"
                );
                for r in pool.iter().chain(&b_rows) {
                    assert_eq!(a.contains(r), a_model.contains(r), "contains");
                }
                // A sorted run sorts to itself.
                let mut again = a.clone();
                again.sort();
                assert_eq!(again, a);

                let (only_a, only_b, both) = a.clone().split_common(b.clone());
                let want =
                    |s: BTreeSet<&Vec<Option<Oid>>>| s.into_iter().cloned().collect::<Vec<_>>();
                assert_eq!(
                    rows_of(&only_a),
                    want(a_model.difference(&b_model).collect()),
                    "only a"
                );
                assert_eq!(
                    rows_of(&only_b),
                    want(b_model.difference(&a_model).collect()),
                    "only b"
                );
                assert_eq!(
                    rows_of(&both),
                    want(a_model.intersection(&b_model).collect()),
                    "both"
                );

                let mut edited = a.clone();
                let mut model = a_model.clone();
                for r in b_rows.iter().take(5) {
                    assert_eq!(edited.remove(r), model.remove(r), "remove");
                }
                let gone = pick(g);
                edited.retain(|r| r.components() != gone.as_slice());
                model.remove(&gone);
                edited.append(&b);
                edited.sort();
                model.extend(b_model.iter().cloned());
                assert_eq!(
                    rows_of(&edited),
                    model.into_iter().collect::<Vec<_>>(),
                    "edits"
                );
            }
        });
    }

    #[test]
    fn width_zero_holds_at_most_one_row() {
        let mut run = RowRun::new(0);
        run.push(&[]);
        run.push(&[]);
        run.sort();
        assert_eq!(run.len(), 1);
        assert!(run.contains([]));
        let (a, b, both) = run.clone().split_common(run);
        assert_eq!((a.len(), b.len(), both.len()), (0, 0, 1));
    }
}
