//! Subdatabases: an intensional pattern plus a set of extensional patterns
//! (paper §3.1). This is the closed universe of the rule language: "the
//! world of subdatabases is closed under this rule-based language".

use crate::ids::Oid;
use crate::subdb::index::{SlotAdj, SubdbIndex};
use crate::subdb::intension::Intension;
use crate::subdb::pattern::{ExtPattern, PatternType, Row};
use crate::subdb::rows::RowStore;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

/// A subdatabase: "a portion of the original database … an intensional
/// association pattern and a set of extensional association patterns".
#[derive(Debug)]
pub struct Subdatabase {
    /// Unique name (the `subdatabase-id` of a rule's THEN clause).
    pub name: String,
    /// The intensional pattern.
    pub intension: Intension,
    /// The extensional patterns: sorted, distinct rows of the intension's
    /// width, in chunked flat leaves.
    patterns: RowStore,
    /// Lazily-built access index (see [`SubdbIndex`]). `insert`/`remove`
    /// keep it current once built; bulk mutators discard it; clones start
    /// without one and rebuild on demand.
    index: OnceLock<SubdbIndex>,
}

impl Clone for Subdatabase {
    fn clone(&self) -> Self {
        // The index is derived state and usually not wanted by the clone
        // (e.g. a snapshot taken before mutation); let it rebuild lazily.
        Subdatabase {
            name: self.name.clone(),
            intension: self.intension.clone(),
            patterns: self.patterns.clone(),
            index: OnceLock::new(),
        }
    }
}

impl Subdatabase {
    /// An empty subdatabase over the given intension; allocates nothing for
    /// its extension.
    pub fn new(name: impl Into<String>, intension: Intension) -> Self {
        let patterns = RowStore::new(intension.width());
        Subdatabase { name: name.into(), intension, patterns, index: OnceLock::new() }
    }

    /// Panic unless a row of `width` cells fits this extension.
    fn check_width(&self, width: usize) {
        let own = self.intension.width();
        assert!(
            width == own,
            "subdatabase {}: a pattern of width {width} does not fit its width {own}",
            self.name
        );
    }

    /// The extension's access index (counted slot extents; slot-pair
    /// adjacency through [`Subdatabase::pair_adj`]), built on first use and
    /// kept current by `insert` and `remove`. Bulk mutators (`set_patterns`,
    /// `set_rows`, `set_sorted_rows`, `retain`, `retain_maximal`,
    /// `union_from`) discard it, so a later call rebuilds from scratch.
    pub fn index(&self) -> &SubdbIndex {
        self.index.get_or_init(|| {
            SubdbIndex::build(self.intension.width(), self.patterns.iter().map(Row::components))
        })
    }

    /// The counted adjacency between slots `a` and `b` of the access index
    /// (any order; the flag says whether the caller's "forward" `a` → `b`
    /// is flipped relative to the stored `min < max` orientation). Built on
    /// the pair's first request, point-maintained afterwards.
    pub fn pair_adj(&self, a: usize, b: usize) -> Option<(&SlotAdj, bool)> {
        self.index().pair_adj(a, b, self.patterns.iter().map(Row::components))
    }

    /// Number of extensional patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the extension is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.len() == 0
    }

    /// Insert a pattern (set semantics: duplicates collapse). Returns
    /// whether the pattern was new. Panics on a width mismatch.
    pub fn insert(&mut self, p: impl AsRef<[Option<Oid>]>) -> bool {
        let row = p.as_ref();
        self.check_width(row.len());
        if !self.patterns.insert(row) {
            return false;
        }
        if let Some(ix) = self.index.get_mut() {
            ix.add(row);
        }
        true
    }

    /// Iterate patterns in deterministic (lexicographic) order.
    pub fn patterns(&self) -> impl Iterator<Item = Row<'_>> {
        self.patterns.iter()
    }

    /// The patterns whose slot 0 holds `head`, in order: one contiguous
    /// range of the ordered extension, found without scanning the rest.
    pub fn head_range(&self, head: Option<Oid>) -> impl Iterator<Item = Row<'_>> {
        self.patterns.head_range(head)
    }

    /// Whether the extension contains this exact pattern.
    pub fn contains(&self, p: impl AsRef<[Option<Oid>]>) -> bool {
        self.patterns.contains(p.as_ref())
    }

    /// Remove an exact pattern. Returns whether it was present.
    pub fn remove(&mut self, p: impl AsRef<[Option<Oid>]>) -> bool {
        let row = p.as_ref();
        let removed = self.patterns.remove(row);
        if removed {
            if let Some(ix) = self.index.get_mut() {
                ix.del(row);
            }
        }
        removed
    }

    /// The distinct oids appearing in patterns present in exactly one of
    /// the two extensions — the objects an incremental maintenance step
    /// must treat as changed downstream. Both pattern sets iterate in
    /// lexicographic order, so a single merge pass finds the symmetric
    /// difference.
    pub fn diff_components(&self, other: &Subdatabase) -> Vec<Oid> {
        let mut out = BTreeSet::new();
        let mut a = self.patterns.iter().peekable();
        let mut b = other.patterns.iter().peekable();
        let absorb = |p: Row<'_>, out: &mut BTreeSet<Oid>| {
            out.extend(p.components().iter().flatten().copied());
        };
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) => match x.cmp(&y) {
                    std::cmp::Ordering::Less => {
                        absorb(x, &mut out);
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        absorb(y, &mut out);
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        a.next();
                        b.next();
                    }
                },
                (Some(&x), None) => {
                    absorb(x, &mut out);
                    a.next();
                }
                (None, Some(&y)) => {
                    absorb(y, &mut out);
                    b.next();
                }
                (None, None) => break,
            }
        }
        out.into_iter().collect()
    }

    /// Collect patterns into a vector.
    pub fn to_vec(&self) -> Vec<ExtPattern> {
        self.patterns.iter().map(Row::to_pattern).collect()
    }

    /// Replace the full pattern set: the patterns, in any order and with
    /// duplicates, are gathered into one flat buffer and built by
    /// [`Subdatabase::set_rows`]. Panics on a pattern of the wrong width.
    pub fn set_patterns<P: AsRef<[Option<Oid>]>>(&mut self, ps: impl IntoIterator<Item = P>) {
        let mut cells = Vec::new();
        let mut n = 0;
        for p in ps {
            let row = p.as_ref();
            self.check_width(row.len());
            cells.extend_from_slice(row);
            n += 1;
        }
        self.set_rows(n, &cells);
    }

    /// Replace the full pattern set with `n` rows given as one flat buffer
    /// of `n × width` cells, in any order and with duplicates: the rows are
    /// sorted by index and copied once into exact-sized leaves. Panics if
    /// the buffer is not `n` rows of this extension's width.
    pub fn set_rows(&mut self, n: usize, cells: &[Option<Oid>]) {
        let w = self.intension.width();
        assert!(
            cells.len() == n * w,
            "subdatabase {}: {} cells are not {n} rows of its width {w}",
            self.name,
            cells.len()
        );
        let row = |i: u32| &cells[i as usize * w..(i as usize + 1) * w];
        let mut order: Vec<u32> = (0..u32::try_from(n).expect("at most 2^32 rows")).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        let mut next = order.iter();
        self.set_sorted_rows(order.len(), |out| {
            out.copy_from_slice(row(*next.next().expect("one row per slot")));
        });
    }

    /// Replace the full pattern set with `n` rows that `fill` writes, one
    /// call per row, in strictly ascending order, into the store's own
    /// cells (which start out Null): the bulk build with no intermediate
    /// copy, for producers that already emit sorted rows. Every leaf is
    /// sized to exactly the rows it gets. Panics if a row does not sort
    /// strictly after the one before it.
    pub fn set_sorted_rows(&mut self, n: usize, fill: impl FnMut(&mut [Option<Oid>])) {
        self.patterns.build(n, fill);
        self.index = OnceLock::new();
    }

    /// Keep the patterns `keep` accepts, in place: nothing is cloned and the
    /// rows are not re-sorted. Returns how many were dropped; the index is
    /// discarded only if that is not zero.
    pub fn retain(&mut self, keep: impl FnMut(Row<'_>) -> bool) -> usize {
        let dropped = self.patterns.retain(keep);
        if dropped > 0 {
            self.index = OnceLock::new();
        }
        dropped
    }

    /// The distinct instances appearing in a slot — the extent of that
    /// target class ("the set of instances of a target class is a subset of
    /// the set of instances of the source class", paper §4).
    pub fn slot_extent(&self, slot: usize) -> BTreeSet<Oid> {
        self.patterns.iter().filter_map(|p| p.get(slot)).collect()
    }

    /// Extent of a slot by name.
    pub fn extent_of(&self, slot_name: &str) -> Option<BTreeSet<Oid>> {
        self.intension.slot_by_name(slot_name).map(|i| self.slot_extent(i))
    }

    /// The distinct pattern types present, with pattern counts — the paper
    /// enumerates "the five extensional pattern types present in the
    /// extensional diagram of Figure 3.1b".
    pub fn pattern_types(&self) -> BTreeMap<PatternType, usize> {
        let mut out = BTreeMap::new();
        for p in self.patterns.iter() {
            *out.entry(p.pattern_type()).or_insert(0) += 1;
        }
        out
    }

    /// Drop every pattern that is a strict part of another pattern (paper
    /// §5.1 subsumption). A pattern of type `s` is a part of one of type `t`
    /// iff `s` is a strict subtype of `t` and both bind the same oids on
    /// `s`'s slots. So the patterns are grouped by type, and one strict
    /// subtype at a time gets one sorted flat buffer of its supertypes'
    /// patterns projected onto its slots: a pattern of that type goes iff
    /// its own bound oids are found there by binary search. O(types² +
    /// patterns · types · log patterns) with a fixed number of allocations,
    /// none per pattern or per type. A type is a non-null mask of
    /// `⌈width / 64⌉` words, so any width works.
    pub fn retain_maximal(&mut self) {
        let words = self.intension.width().div_ceil(64).max(1);
        // The distinct types (`words` mask words each, in order of first
        // appearance), their pattern counts, and each pattern's type.
        let mut types: Vec<u64> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut tag: Vec<u32> = Vec::with_capacity(self.patterns.len());
        for p in self.patterns.iter() {
            let at = types.len();
            types.resize(at + words, 0);
            for (i, c) in p.components().iter().enumerate() {
                if c.is_some() {
                    types[at + i / 64] |= 1 << (i % 64);
                }
            }
            let t = match types.chunks_exact(words).position(|m| m == &types[at..]) {
                Some(t) if t * words < at => {
                    types.truncate(at);
                    t
                }
                _ => {
                    counts.push(0);
                    counts.len() - 1
                }
            };
            counts[t] += 1;
            tag.push(t as u32);
        }
        let n = counts.len();
        let mask = |t: usize| &types[t * words..(t + 1) * words];
        // `sub[s * n + t]`: type `s` is a strict subtype of type `t`.
        let sub: Vec<bool> = (0..n * n)
            .map(|st| {
                let (s, t) = (st / n, st % n);
                s != t && mask(s).iter().zip(mask(t)).all(|(a, b)| a & b == *a)
            })
            .collect();
        // Per type: how many supertype patterns project onto it.
        let rows: Vec<usize> =
            (0..n).map(|s| (0..n).filter(|&t| sub[s * n + t]).map(|t| counts[t]).sum()).collect();
        let arity = |t: usize| mask(t).iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let Some(most) = (0..n).filter(|&s| rows[s] > 0).map(|s| rows[s] * arity(s)).max() else {
            return;
        };
        let mut proj: Vec<Oid> = Vec::with_capacity(most);
        let mut sorted: Vec<u32> = Vec::with_capacity(rows.iter().copied().max().unwrap_or(0));
        let mut dead = vec![false; self.patterns.len()];
        for s in (0..n).filter(|&s| rows[s] > 0) {
            let (m, k) = (mask(s), arity(s));
            proj.clear();
            for (p, &t) in self.patterns.iter().zip(&tag) {
                if sub[s * n + t as usize] {
                    proj.extend(
                        p.components()
                            .iter()
                            .enumerate()
                            .filter(|&(i, _)| m[i / 64] >> (i % 64) & 1 == 1)
                            .map(|(_, c)| c.expect("a supertype binds its subtype's slots")),
                    );
                }
            }
            let row = |r: u32| &proj[r as usize * k..(r as usize + 1) * k];
            sorted.clear();
            sorted.extend(0..rows[s] as u32);
            sorted.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            // A pattern's bound oids, in slot order, are its projection onto
            // its own type.
            for ((p, &t), d) in self.patterns.iter().zip(&tag).zip(dead.iter_mut()) {
                if t as usize == s {
                    let key = || p.components().iter().flatten();
                    *d = sorted.binary_search_by(|&r| row(r).iter().cmp(key())).is_ok();
                }
            }
        }
        let mut dead = dead.into_iter();
        self.retain(|_| !dead.next().expect("one verdict per pattern"));
    }

    /// Union another subdatabase's patterns into this one. Both rules R4
    /// and R5 "derive extensional patterns into the same subdatabase
    /// May_teach … May_teach will contain the union of the two sets"
    /// (paper §4.2). The intensions must have identical slot names.
    pub fn union_from(&mut self, other: &Subdatabase) {
        self.check_width(other.intension.width());
        debug_assert_eq!(
            self.intension.slots.iter().map(|s| &s.name).collect::<Vec<_>>(),
            other.intension.slots.iter().map(|s| &s.name).collect::<Vec<_>>(),
            "union requires identical slot layout"
        );
        self.patterns = self.patterns.union(&other.patterns);
        self.index = OnceLock::new();
    }

    /// Project onto the given slots, producing a new subdatabase with a
    /// narrower intension (used by rule THEN clauses). Duplicate projected
    /// patterns collapse.
    pub fn project(&self, name: impl Into<String>, slots: &[usize]) -> Subdatabase {
        let slot_defs = slots.iter().map(|&i| self.intension.slots[i].clone()).collect();
        let mut intension = Intension::new(slot_defs);
        // Preserve derived edges whose endpoints are both retained.
        for e in &self.intension.edges {
            if let (Some(a), Some(b)) = (
                slots.iter().position(|&s| s == e.a as usize),
                slots.iter().position(|&s| s == e.b as usize),
            ) {
                intension.add_edge(a, b);
            }
        }
        let mut out = Subdatabase::new(name, intension);
        let mut cells = Vec::with_capacity(self.len() * slots.len());
        for p in self.patterns.iter() {
            cells.extend(slots.iter().map(|&i| p.get(i)));
        }
        out.set_rows(self.len(), &cells);
        out
    }
}

impl fmt::Display for Subdatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "subdatabase {} {}", self.name, self.intension)?;
        for p in self.patterns.iter() {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClassId;
    use crate::subdb::intension::SlotDef;

    fn subdb() -> Subdatabase {
        let mut i = Intension::new(vec![
            SlotDef::base("A", ClassId(0)),
            SlotDef::base("B", ClassId(1)),
            SlotDef::base("C", ClassId(2)),
        ]);
        i.add_edge(0, 1);
        i.add_edge(1, 2);
        Subdatabase::new("S", i)
    }

    fn p(v: &[Option<u64>]) -> ExtPattern {
        ExtPattern::new(v.iter().map(|o| o.map(Oid::from_raw)).collect::<Vec<_>>())
    }

    #[test]
    fn insert_dedups() {
        let mut s = subdb();
        assert!(s.insert(p(&[Some(1), Some(2), None])));
        assert!(!s.insert(p(&[Some(1), Some(2), None])));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slot_extents() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), Some(3)]));
        s.insert(p(&[Some(1), Some(4), None]));
        let a = s.extent_of("A").unwrap();
        assert_eq!(a.len(), 1);
        let b = s.extent_of("B").unwrap();
        assert_eq!(b.len(), 2);
        let c = s.extent_of("C").unwrap();
        assert_eq!(c.len(), 1);
        assert!(s.extent_of("Z").is_none());
    }

    #[test]
    fn pattern_type_census() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), Some(3)]));
        s.insert(p(&[Some(9), Some(2), None]));
        s.insert(p(&[None, Some(5), Some(6)]));
        let census = s.pattern_types();
        assert_eq!(census.len(), 3);
        assert_eq!(census[&PatternType(0b111)], 1);
        assert_eq!(census[&PatternType(0b011)], 1);
        assert_eq!(census[&PatternType(0b110)], 1);
    }

    #[test]
    fn retain_maximal_drops_parts() {
        // Paper §5.1: (b5,c5) dropped because part of (a1,b5,c5,d5);
        // (b2,c2) retained.
        let i = Intension::new(vec![
            SlotDef::base("A", ClassId(0)),
            SlotDef::base("B", ClassId(1)),
            SlotDef::base("C", ClassId(2)),
            SlotDef::base("D", ClassId(3)),
        ]);
        let mut s = Subdatabase::new("X", i);
        s.insert(p(&[Some(1), Some(5), Some(6), Some(7)]));
        s.insert(p(&[None, Some(5), Some(6), None]));
        s.insert(p(&[None, Some(2), Some(3), None]));
        s.retain_maximal();
        assert_eq!(s.len(), 2);
        assert!(s.patterns().all(|p| p.get(1) != Some(Oid::from_raw(5)) || p.get(0).is_some()));
    }

    #[test]
    fn union_semantics() {
        let mut a = subdb();
        a.insert(p(&[Some(1), Some(2), Some(3)]));
        let mut b = subdb();
        b.insert(p(&[Some(1), Some(2), Some(3)]));
        b.insert(p(&[Some(4), Some(5), Some(6)]));
        a.union_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn project_keeps_edges_and_collapses() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), Some(3)]));
        s.insert(p(&[Some(1), Some(9), Some(3)]));
        let t = s.project("T", &[0, 2]);
        assert_eq!(t.len(), 1); // both project to (1, 3)
        assert_eq!(t.intension.width(), 2);
        // No original edge between A and C, so no retained edges.
        assert!(t.intension.edges.is_empty());
        let u = s.project("U", &[0, 1]);
        assert!(u.intension.has_edge(0, 1));
    }

    #[test]
    fn diff_components_symmetric() {
        let mut a = subdb();
        a.insert(p(&[Some(1), Some(2), Some(3)]));
        a.insert(p(&[Some(4), Some(5), None]));
        let mut b = subdb();
        b.insert(p(&[Some(1), Some(2), Some(3)])); // shared — not a diff
        b.insert(p(&[Some(7), Some(8), Some(9)]));
        let d = a.diff_components(&b);
        assert_eq!(d, [4, 5, 7, 8, 9].map(Oid::from_raw));
        assert_eq!(a.diff_components(&b), b.diff_components(&a));
        assert!(a.diff_components(&a).is_empty());
    }

    #[test]
    fn head_range_is_the_patterns_with_that_head() {
        let mut s = subdb();
        let all = [
            p(&[None, Some(5), Some(6)]),
            p(&[None, Some(7), None]),
            p(&[Some(1), Some(1), None]),
            p(&[Some(2), Some(2), Some(3)]),
            p(&[Some(2), Some(4), None]),
            p(&[Some(3), None, None]),
            p(&[Some(u64::MAX), Some(2), Some(3)]),
        ];
        s.set_patterns(all.iter().cloned());
        for head in [None, Some(1), Some(2), Some(3), Some(4), Some(u64::MAX)] {
            let head = head.map(Oid::from_raw);
            let got: Vec<Row<'_>> = s.head_range(head).collect();
            let want: Vec<Row<'_>> =
                all.iter().filter(|q| q.get(0) == head).map(ExtPattern::as_row).collect();
            assert_eq!(got, want, "head {head:?}");
        }
    }

    #[test]
    fn contains_exact_pattern() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), None]));
        assert!(s.contains(p(&[Some(1), Some(2), None])));
        assert!(!s.contains(p(&[Some(1), None, None])));
    }

    #[test]
    fn index_survives_point_edits_and_bulk_invalidation() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), Some(3)]));
        s.insert(p(&[Some(1), Some(4), None]));
        // Build, then point-edit: the maintained index must match a rebuild.
        assert_eq!(s.index().slot_len(1), 2);
        s.insert(p(&[Some(7), Some(2), Some(3)]));
        s.remove(p(&[Some(1), Some(4), None]));
        assert_eq!(s.index().slot_len(0), 2);
        assert!(!s.index().slot_contains(1, Oid::from_raw(4)));
        let (adj, flip) = s.pair_adj(1, 0).unwrap();
        assert!(flip);
        let mut back: Vec<Oid> = adj.neighbors(Oid::from_raw(2), false).to_vec();
        back.sort_unstable();
        assert_eq!(back, vec![Oid::from_raw(1), Oid::from_raw(7)]);
        // Bulk mutation discards and a fresh call rebuilds.
        s.set_patterns([p(&[Some(9), Some(9), Some(9)])]);
        assert_eq!(s.index().slot_len(0), 1);
        assert!(s.index().slot_contains(2, Oid::from_raw(9)));
        // Clones start without an index and rebuild on demand.
        let c = s.clone();
        assert!(c.index().slot_contains(0, Oid::from_raw(9)));
    }

    #[test]
    fn retain_equals_filter_and_set_patterns() {
        let all = [
            p(&[Some(1), Some(2), Some(3)]),
            p(&[Some(1), Some(4), None]),
            p(&[None, Some(5), Some(6)]),
            p(&[Some(7), Some(2), Some(3)]),
        ];
        let keeps: [fn(Row<'_>) -> bool; 4] = [
            |_| true,
            |_| false,
            |q| q.get(0) == Some(Oid::from_raw(1)),
            |q| q.get(2).is_some(),
        ];
        for keep in keeps {
            let mut a = subdb();
            a.set_patterns(all.iter().cloned());
            let mut b = a.clone();
            let dropped = a.retain(keep);
            b.set_patterns(all.iter().filter(|q| keep(q.as_row())));
            assert_eq!(a.to_vec(), b.to_vec());
            assert_eq!(dropped, all.len() - b.len());
            // The index a later reader builds describes what was kept.
            assert_eq!(a.index().slot_len(1), b.index().slot_len(1));
        }
    }

    #[test]
    fn retain_drops_the_index_only_when_it_removes() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), Some(3)]));
        s.insert(p(&[Some(1), Some(4), None]));
        s.index();
        assert_eq!(s.retain(|_| true), 0);
        assert!(s.index.get().is_some(), "nothing removed: the index is still valid");
        assert_eq!(s.retain(|q| q.get(1) != Some(Oid::from_raw(4))), 1);
        assert!(s.index.get().is_none(), "a removal must discard the index");
        assert!(!s.index().slot_contains(1, Oid::from_raw(4)));
        assert_eq!(s.index().slot_len(0), 1);
    }

    /// A subdatabase of `width` base slots.
    fn of_width(width: usize) -> Subdatabase {
        let slots = (0..width).map(|i| SlotDef::base(format!("S{i}"), ClassId(0))).collect();
        Subdatabase::new("W", Intension::new(slots))
    }

    #[test]
    #[should_panic(expected = "subdatabase S: a pattern of width 2 does not fit its width 3")]
    fn insert_checks_the_width() {
        subdb().insert([Some(Oid::from_raw(1)), None]);
    }

    #[test]
    #[should_panic(expected = "subdatabase S: a pattern of width 4 does not fit its width 3")]
    fn set_patterns_checks_the_width() {
        subdb().set_patterns([p(&[Some(1), None, None]), p(&[Some(1), None, None, None])]);
    }

    #[test]
    #[should_panic(expected = "subdatabase S: 5 cells are not 2 rows of its width 3")]
    fn set_rows_checks_the_width() {
        subdb().set_rows(2, &[Some(Oid::from_raw(1)); 5]);
    }

    #[test]
    #[should_panic(expected = "subdatabase S: a pattern of width 2 does not fit its width 3")]
    fn union_from_checks_the_width() {
        let mut other = of_width(2);
        other.insert([Some(Oid::from_raw(1)), None]);
        subdb().union_from(&other);
    }

    #[test]
    #[should_panic(expected = "rows must be built in strictly ascending order")]
    fn set_sorted_rows_checks_the_order() {
        let mut rows =
            [[Some(Oid::from_raw(2)), None, None], [Some(Oid::from_raw(1)), None, None]].into_iter();
        subdb().set_sorted_rows(2, |row| row.copy_from_slice(&rows.next().unwrap()));
    }

    /// The extension against a `BTreeSet` of component vectors, written
    /// here and sharing no code with the row store: seeded random runs of
    /// every edit and read, at widths 0, 1, 3 and 80, long enough to split
    /// leaves and to empty them again, with Null, `Oid::MIN` and `Oid::MAX`
    /// heads.
    #[test]
    fn extension_matches_a_btreeset_model() {
        use crate::propcheck::{check, Gen};
        type Model = BTreeSet<Vec<Option<Oid>>>;

        fn cell(g: &mut Gen, spread: u64) -> Option<Oid> {
            match g.range(0..10u32) {
                0 => None,
                1 => Some(Oid::MIN),
                2 => Some(Oid::MAX),
                _ => Some(Oid::from_raw(g.range(1..spread))),
            }
        }
        // Few distinct heads, so that one head's rows span several leaves;
        // a width-1 row is all head, so there heads must be many.
        fn row(g: &mut Gen, width: usize) -> Vec<Option<Oid>> {
            let heads = if width == 1 { 4000 } else { 6 };
            (0..width).map(|i| cell(g, if i == 0 { heads } else { 40 })).collect()
        }
        fn rows(g: &mut Gen, width: usize, n: usize) -> Vec<Vec<Option<Oid>>> {
            (0..n).map(|_| row(g, width)).collect()
        }
        fn part(a: &[Option<Oid>], b: &[Option<Oid>]) -> bool {
            let bound = |r: &[Option<Oid>]| r.iter().filter(|c| c.is_some()).count();
            a.iter().zip(b).all(|(x, y)| x.is_none() || x == y) && bound(a) < bound(b)
        }
        fn agree(sd: &Subdatabase, model: &Model, step: &str) {
            let got: Vec<Vec<Option<Oid>>> =
                sd.patterns().map(|p| p.components().to_vec()).collect();
            let want: Vec<Vec<Option<Oid>>> = model.iter().cloned().collect();
            assert_eq!(got, want, "after {step}");
            assert_eq!(sd.len(), model.len(), "len after {step}");
        }

        check("extension_matches_a_btreeset_model", 8, |g| {
            for width in [0, 1, 3, 80] {
                let mut sd = of_width(width);
                let mut model = Model::new();
                let big: usize = if width == 1 { 700 } else { 260 };
                for _ in 0..g.range(150..300usize) {
                    let step = match g.range(0..100u32) {
                        0..=39 => {
                            let r = row(g, width);
                            assert_eq!(sd.insert(&r), model.insert(r), "insert");
                            "insert"
                        }
                        40..=59 => {
                            let r = match model.iter().nth(g.range(0..model.len().max(1))) {
                                Some(r) if g.bool(0.8) => r.clone(),
                                _ => row(g, width),
                            };
                            assert_eq!(sd.remove(&r), model.remove(&r), "remove");
                            "remove"
                        }
                        60..=69 => {
                            let r = row(g, width);
                            assert_eq!(sd.contains(&r), model.contains(&r), "contains");
                            "contains"
                        }
                        70..=79 => {
                            for head in [None, Some(Oid::MIN), Some(Oid::MAX), cell(g, 6)] {
                                let got: Vec<Vec<Option<Oid>>> =
                                    sd.head_range(head).map(|p| p.components().to_vec()).collect();
                                let want: Vec<Vec<Option<Oid>>> = model
                                    .iter()
                                    .filter(|r| width > 0 && r[0] == head)
                                    .cloned()
                                    .collect();
                                assert_eq!(got, want, "head_range({head:?})");
                            }
                            "head_range"
                        }
                        80..=84 => {
                            let k = g.range(2..5u64);
                            let keep = |r: &[Option<Oid>]| {
                                r.iter().flatten().map(|o| o.raw() % k).sum::<u64>() % k != 0
                            };
                            let dropped = sd.retain(|p| keep(p.components()));
                            let before = model.len();
                            model.retain(|r| keep(r));
                            assert_eq!(dropped, before - model.len(), "retain count");
                            "retain"
                        }
                        85..=88 => {
                            let n = g.range(0..big);
                            let new = rows(g, width, n);
                            sd.set_patterns(&new);
                            model = new.into_iter().collect();
                            "set_patterns"
                        }
                        89..=91 => {
                            sd = sd.clone();
                            "clone"
                        }
                        92..=96 => {
                            let mut other = of_width(width);
                            let n = g.range(0..big / 2);
                            for r in rows(g, width, n) {
                                other.insert(&r);
                                model.insert(r);
                            }
                            sd.union_from(&other);
                            "union_from"
                        }
                        _ => {
                            sd.retain_maximal();
                            let all: Vec<Vec<Option<Oid>>> = model.iter().cloned().collect();
                            model.retain(|a| !all.iter().any(|b| part(a, b)));
                            "retain_maximal"
                        }
                    };
                    agree(&sd, &model, step);
                }
            }
        });
    }

    #[test]
    fn display_lists_patterns() {
        let mut s = subdb();
        s.insert(p(&[Some(1), Some(2), None]));
        let text = s.to_string();
        assert!(text.contains("subdatabase S"));
        assert!(text.contains("(o1, o2, Null)"));
    }
}
