//! Incrementally-maintained access structures over a subdatabase's
//! extension: per-slot counted extents and per-slot-pair counted
//! co-bindings, all of them row stores ([`crate::subdb::RowCounts`]).
//!
//! Pattern matching against a *derived* subdatabase needs two things per
//! evaluation: the membership extent of each slot ("which oids appear
//! here") and the co-bindings of slot pairs ("which (x, y) exist").
//! Re-materializing those is O(patterns) per evaluation — ruinous for
//! incremental forward maintenance, which evaluates a small delta against
//! large, slowly-changing sources on every update batch. So each slot
//! extent and each slot pair is built once per content version, on its
//! first request ([`Subdatabase::counted_extent`],
//! [`Subdatabase::slot_pair`]) — a context over a wide derived subdatabase
//! reads a few of its w slots and w(w−1)/2 pairs — and only what was built
//! is kept current by `insert`/`remove` point updates. A build sorts one
//! run of the bound cells and counts it into leaves
//! ([`RowCounts::set_counted`]).
//!
//! Everything is *counted*: several patterns can bind the same oid in a
//! slot (or repeat a pair co-binding) while differing elsewhere, so a
//! single pattern removal must not erase an extent or pair entry that
//! other patterns still justify.
//!
//! [`Subdatabase::counted_extent`]: crate::subdb::Subdatabase::counted_extent
//! [`Subdatabase::slot_pair`]: crate::subdb::Subdatabase::slot_pair

use crate::ids::Oid;
use crate::subdb::rows::RowCounts;
use crate::subdb::run::RowRun;
use std::sync::OnceLock;

/// The co-bindings of two slots `a < b`: the distinct `(x, y)` rows with
/// their multiplicities, and the same as `(y, x)` rows, so that a
/// neighbour read either way is one head range.
#[derive(Debug, Clone)]
pub struct SlotPair {
    fwd: RowCounts,
    rev: RowCounts,
}

impl SlotPair {
    /// The pair over a run of `(x, y)` co-bindings, duplicates counted.
    fn build(run: &mut RowRun) -> Self {
        let (mut fwd, mut rev) = (RowCounts::new(2), RowCounts::new(2));
        fwd.set_counted(run);
        run.flip();
        rev.set_counted(run);
        SlotPair { fwd, rev }
    }

    /// Partners of `oid`, ascending: slot-`b` partners when `forward`,
    /// slot-`a` partners otherwise.
    pub fn neighbors(&self, oid: Oid, forward: bool) -> impl Iterator<Item = Oid> + '_ {
        let rows = if forward { &self.fwd } else { &self.rev };
        rows.head_range(Some(oid)).map(|(r, _)| r.get(1).expect("a co-binding is bound"))
    }

    /// Whether some pattern binds `x` in slot `a` and `y` in slot `b`.
    pub fn contains(&self, x: Oid, y: Oid) -> bool {
        self.fwd.contains(&[Some(x), Some(y)])
    }

    /// Number of distinct `(x, y)` co-bindings — the derived edge's "link
    /// count", used by the cost-based planner's fan-out fallback.
    pub fn pair_count(&self) -> usize {
        self.fwd.len()
    }

    fn add(&mut self, x: Oid, y: Oid) {
        self.fwd.increment(&[Some(x), Some(y)]);
        self.rev.increment(&[Some(y), Some(x)]);
    }

    fn del(&mut self, x: Oid, y: Oid) {
        self.fwd.release(&[Some(x), Some(y)]);
        self.rev.release(&[Some(y), Some(x)]);
    }
}

/// The distinct oids one slot binds, as width-1 rows, each counted by the
/// patterns binding it.
#[derive(Debug, Clone)]
pub struct SlotExtent(RowCounts);

impl SlotExtent {
    /// Whether any pattern binds `oid` here.
    pub fn contains(&self, oid: Oid) -> bool {
        self.0.contains(&[Some(oid)])
    }

    /// The distinct oids bound here, ascending.
    pub fn oids(&self) -> impl Iterator<Item = Oid> + '_ {
        self.0.iter().map(|r| r.get(0).expect("an extent row is bound"))
    }

    /// Number of distinct oids bound here.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no pattern binds this slot.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The index over a subdatabase's extension: the counted extents of the
/// slots, and the counted co-bindings of the slot pairs `a < b`, asked for
/// so far.
#[derive(Debug, Clone)]
pub struct SubdbIndex {
    /// One cell per slot.
    slots: Vec<OnceLock<SlotExtent>>,
    /// One cell per pair `a < b`, row-major over the strict upper triangle.
    pairs: Vec<OnceLock<SlotPair>>,
}

impl SubdbIndex {
    /// An index over `width` slots with nothing built yet.
    pub(crate) fn new(width: usize) -> Self {
        SubdbIndex {
            slots: vec![OnceLock::new(); width],
            pairs: vec![OnceLock::new(); width * width.saturating_sub(1) / 2],
        }
    }

    /// The cell of pair `a < b`.
    fn cell(&self, a: usize, b: usize) -> usize {
        let w = self.slots.len();
        a * (2 * w - a - 1) / 2 + (b - a - 1)
    }

    /// The slot pairs `a < b`, in cell order.
    fn pair_slots(&self) -> impl Iterator<Item = (usize, usize)> {
        let w = self.slots.len();
        (0..w).flat_map(move |a| (a + 1..w).map(move |b| (a, b)))
    }

    /// Fold one inserted pattern into the built extents and pairs.
    pub(crate) fn add(&mut self, comps: &[Option<Oid>]) {
        for (extent, c) in self.slots.iter_mut().zip(comps) {
            if let (Some(SlotExtent(counts)), Some(_)) = (extent.get_mut(), c) {
                counts.increment(std::slice::from_ref(c));
            }
        }
        for ((a, b), pair) in self.pair_slots().zip(&mut self.pairs) {
            if let (Some(pair), Some(x), Some(y)) = (pair.get_mut(), comps[a], comps[b]) {
                pair.add(x, y);
            }
        }
    }

    /// Fold one removed pattern out of the built extents and pairs.
    pub(crate) fn del(&mut self, comps: &[Option<Oid>]) {
        for (extent, c) in self.slots.iter_mut().zip(comps) {
            if let (Some(SlotExtent(counts)), Some(_)) = (extent.get_mut(), c) {
                counts.release(std::slice::from_ref(c));
            }
        }
        for ((a, b), pair) in self.pair_slots().zip(&mut self.pairs) {
            if let (Some(pair), Some(x), Some(y)) = (pair.get_mut(), comps[a], comps[b]) {
                pair.del(x, y);
            }
        }
    }

    /// The counted extent of `slot`, `None` for a slot out of range. An
    /// extent not asked for before is built from `patterns`, which must
    /// yield the indexed extension, through one run of the bound cells.
    pub(crate) fn extent<'a>(
        &self,
        slot: usize,
        patterns: impl Iterator<Item = &'a [Option<Oid>]> + Clone,
    ) -> Option<&SlotExtent> {
        let extent = self.slots.get(slot)?.get_or_init(|| {
            let bound = patterns.filter(|p| p[slot].is_some());
            let mut run = RowRun::with_capacity(1, bound.clone().count());
            for p in bound {
                run.push(&p[slot..=slot]);
            }
            let mut counts = RowCounts::new(1);
            counts.set_counted(&mut run);
            SlotExtent(counts)
        });
        Some(extent)
    }

    /// The co-bindings of slots `a` and `b` (any order), with a flag
    /// telling the caller whether its notion of "forward" (`a` → `b`)
    /// is flipped relative to the stored `min < max` orientation. `None`
    /// for `a == b` or a slot out of range. A pair not asked for before is
    /// built from `patterns`, which must yield the indexed extension,
    /// through one run of the co-bindings.
    pub(crate) fn pair<'a>(
        &self,
        a: usize,
        b: usize,
        patterns: impl Iterator<Item = &'a [Option<Oid>]> + Clone,
    ) -> Option<(&SlotPair, bool)> {
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || hi >= self.slots.len() {
            return None;
        }
        let pair = self.pairs[self.cell(lo, hi)].get_or_init(|| {
            let bound = patterns.filter(|p| p[lo].is_some() && p[hi].is_some());
            let mut run = RowRun::with_capacity(2, bound.clone().count());
            for p in bound {
                run.push(&[p[lo], p[hi]]);
            }
            SlotPair::build(&mut run)
        });
        Some((pair, a > b))
    }

    /// Compare every built extent and pair with one built afresh over
    /// `patterns`, the indexed extension, counts included and pairs both
    /// ways. The error names the first difference.
    pub(crate) fn check<'a>(
        &self,
        patterns: impl Iterator<Item = &'a [Option<Oid>]> + Clone,
    ) -> Result<(), String> {
        let fresh = SubdbIndex::new(self.slots.len());
        for (s, kept) in self.slots.iter().enumerate() {
            let Some(SlotExtent(kept)) = kept.get() else { continue };
            let SlotExtent(built) = fresh.extent(s, patterns.clone()).expect("a slot in range");
            same(&format!("slot {s} extent"), kept, built)?;
        }
        for (a, b) in self.pair_slots() {
            let Some(kept) = self.pairs[self.cell(a, b)].get() else { continue };
            let (built, _) = fresh.pair(a, b, patterns.clone()).expect("a pair of two slots");
            same(&format!("pair ({a}, {b})"), &kept.fwd, &built.fwd)?;
            same(&format!("pair ({a}, {b}) reversed"), &kept.rev, &built.rev)?;
        }
        Ok(())
    }
}

/// `Err` naming `what` and both stores unless they hold the same rows
/// with the same counts.
fn same(what: &str, kept: &RowCounts, built: &RowCounts) -> Result<(), String> {
    match kept.len() == built.len() && kept.entries().eq(built.entries()) {
        true => Ok(()),
        false => Err(format!("{what}: maintained {kept:?}, rebuilt {built:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{check, Gen};
    use std::collections::{BTreeMap, BTreeSet};

    type Pattern = Vec<Option<Oid>>;

    fn p(v: &[Option<u64>]) -> Pattern {
        v.iter().map(|o| o.map(Oid::from_raw)).collect()
    }

    fn rows(ext: &BTreeSet<Pattern>) -> impl Iterator<Item = &[Option<Oid>]> + Clone {
        ext.iter().map(Vec::as_slice)
    }

    /// One model case: an index over `before` with the slots `slots` and
    /// the pairs `pairs` asked for at once, then `edits` (`true` inserts)
    /// applied to it and to a `BTreeSet` extension. After every edit the
    /// built extents and pairs are held against counts taken from the
    /// model. At the end, only what was asked for may have been built;
    /// then every other slot and pair is asked for, built from the edited
    /// extension, and held against the model too.
    fn case(
        width: usize,
        before: &[Pattern],
        slots: &[usize],
        pairs: &[(usize, usize)],
        edits: &[(Pattern, bool)],
    ) {
        let mut ext: BTreeSet<Pattern> = before.iter().cloned().collect();
        let ix = SubdbIndex::new(width);
        for &s in slots {
            ix.extent(s, rows(&ext)).expect("a slot in range");
        }
        for &(a, b) in pairs {
            ix.pair(a, b, rows(&ext)).expect("two slots in range");
        }
        let mut ix = ix;
        agree(&ix, &ext);
        for (row, insert) in edits {
            match insert {
                true if ext.insert(row.clone()) => ix.add(row),
                false if ext.remove(row) => ix.del(row),
                _ => {}
            }
            agree(&ix, &ext);
        }
        fn built<T>(cells: &[OnceLock<T>]) -> usize {
            cells.iter().filter(|c| c.get().is_some()).count()
        }
        let asked: BTreeSet<(usize, usize)> =
            pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        assert_eq!(
            built(&ix.slots),
            slots.iter().collect::<BTreeSet<_>>().len(),
            "edits build no slot"
        );
        assert_eq!(built(&ix.pairs), asked.len(), "edits build no pair");
        for a in 0..width {
            ix.extent(a, rows(&ext)).expect("a slot in range");
            for b in 0..width {
                assert_eq!(
                    ix.pair(a, b, rows(&ext)).map(|(_, flip)| flip),
                    (a != b).then_some(a > b)
                );
            }
        }
        assert!(ix.extent(width, rows(&ext)).is_none(), "a slot out of range");
        assert!(ix.pair(0, width, rows(&ext)).is_none(), "a slot out of range");
        agree(&ix, &ext);
        assert_eq!(ix.check(rows(&ext)), Ok(()));
    }

    /// The built extents and pairs against counts taken from the extension,
    /// pairs read both ways.
    fn agree(ix: &SubdbIndex, ext: &BTreeSet<Pattern>) {
        let probes: Vec<Oid> = (1..14).map(Oid::from_raw).chain([Oid::MAX]).collect();
        for (s, extent) in ix.slots.iter().enumerate() {
            let Some(extent) = extent.get() else { continue };
            let mut model: BTreeMap<Oid, u32> = BTreeMap::new();
            for o in ext.iter().filter_map(|r| r[s]) {
                *model.entry(o).or_insert(0) += 1;
            }
            let counts: Vec<(Oid, u32)> =
                extent.0.entries().map(|(r, c)| (r.get(0).unwrap(), c)).collect();
            assert_eq!(counts, model.iter().map(|(&o, &c)| (o, c)).collect::<Vec<_>>(), "slot {s}");
            assert_eq!(extent.len(), model.len(), "len of slot {s}");
            assert!(extent.oids().eq(model.keys().copied()), "oids of slot {s}");
            for &o in &probes {
                assert_eq!(extent.contains(o), model.contains_key(&o), "slot {s} contains {o:?}");
            }
        }
        for (a, b) in ix.pair_slots() {
            let Some(pair) = ix.pairs[ix.cell(a, b)].get() else { continue };
            let mut model: BTreeMap<(Oid, Oid), u32> = BTreeMap::new();
            for r in ext {
                if let (Some(x), Some(y)) = (r[a], r[b]) {
                    *model.entry((x, y)).or_insert(0) += 1;
                }
            }
            let key = |r: crate::subdb::Row<'_>| (r.get(0).unwrap(), r.get(1).unwrap());
            let counts: Vec<((Oid, Oid), u32)> =
                pair.fwd.entries().map(|(r, c)| (key(r), c)).collect();
            assert_eq!(
                counts,
                model.iter().map(|(&k, &c)| (k, c)).collect::<Vec<_>>(),
                "({a}, {b})"
            );
            assert_eq!(pair.pair_count(), model.len(), "pair_count ({a}, {b})");
            for &o in &probes {
                let fwd = model.keys().filter(|k| k.0 == o).map(|k| k.1);
                let mut back: Vec<Oid> = model.keys().filter(|k| k.1 == o).map(|k| k.0).collect();
                back.sort_unstable();
                assert!(pair.neighbors(o, true).eq(fwd), "({a}, {b}) from {o:?}");
                assert!(pair.neighbors(o, false).eq(back), "({b}, {a}) from {o:?}");
                for &y in &probes {
                    assert_eq!(pair.contains(o, y), model.contains_key(&(o, y)), "contains");
                }
            }
        }
    }

    fn cell(g: &mut Gen) -> Option<Oid> {
        match g.range(0..8u32) {
            0 | 1 => None,
            2 => Some(Oid::MAX),
            _ => Some(Oid::from_raw(g.range(1..8u64))),
        }
    }

    /// The index against a `BTreeMap` model at widths 1, 2, 3 and 5:
    /// extents and pairs built before the edits and first asked for after
    /// them, inserts and removals (few distinct oids, so co-bindings repeat
    /// across patterns), every read. Two fixed cases come first: a repeated
    /// co-binding that outlives one of its two patterns, and a pair built
    /// before the edits beside pairs built after them.
    #[test]
    fn index_matches_a_btreemap_model() {
        case(
            3,
            &[
                p(&[Some(1), Some(2), Some(3)]),
                p(&[Some(1), Some(2), Some(4)]),
                p(&[None, Some(5), Some(3)]),
            ],
            &[0, 1, 2],
            &[(1, 0)],
            &[(p(&[Some(1), Some(2), Some(3)]), false), (p(&[Some(1), Some(2), Some(4)]), false)],
        );
        case(
            3,
            &[
                p(&[Some(1), Some(2), None]),
                p(&[Some(1), Some(3), Some(9)]),
                p(&[Some(4), Some(2), Some(9)]),
            ],
            &[1],
            &[(0, 1)],
            &[(p(&[Some(1), Some(3), Some(9)]), false), (p(&[Some(7), Some(2), Some(8)]), true)],
        );
        check("index_matches_a_btreemap_model", 64, |g| {
            for width in [1, 2, 3, 5] {
                let row = |g: &mut Gen| -> Pattern { (0..width).map(|_| cell(g)).collect() };
                let before: Vec<Pattern> = (0..g.range(0..40usize)).map(|_| row(g)).collect();
                let slots: Vec<usize> =
                    (0..g.range(0..3usize)).map(|_| g.range(0..width)).collect();
                let pairs: Vec<(usize, usize)> = (0..g.range(0..3usize))
                    .map(|_| (g.range(0..width), g.range(0..width)))
                    .filter(|(a, b)| a != b)
                    .collect();
                let mut edits = Vec::new();
                for _ in 0..g.range(0..40usize) {
                    let r = match before.is_empty() || g.bool(0.5) {
                        true => row(g),
                        false => g.choose(&before).clone(),
                    };
                    edits.push((r, g.bool(0.5)));
                }
                case(width, &before, &slots, &pairs, &edits);
            }
        });
    }
}
