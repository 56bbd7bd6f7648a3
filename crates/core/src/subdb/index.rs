//! Incrementally-maintained access structures over a subdatabase's
//! extension: per-slot counted extents and per-slot-pair counted
//! adjacency.
//!
//! Pattern matching against a *derived* subdatabase needs two things per
//! evaluation: the membership extent of each slot ("which oids appear
//! here") and the adjacency between slot pairs ("which co-bindings exist").
//! Re-materializing those is O(patterns) per evaluation — ruinous for
//! incremental forward maintenance, which evaluates a small delta against
//! large, slowly-changing sources on every update batch. The index is
//! instead built once per content version ([`Subdatabase::index`]) and
//! kept current by `insert`/`remove` point updates, so steady-state
//! evaluations pay O(1) to access it. Slot extents are built with the
//! index; a slot pair's adjacency is built on its first request
//! ([`Subdatabase::pair_adj`]) — a context over a wide derived subdatabase
//! traverses one or two of its w(w−1)/2 pairs — and only built pairs are
//! point-maintained.
//!
//! Everything is *counted*: several patterns can bind the same oid in a
//! slot (or repeat a pair co-binding) while differing elsewhere, so a
//! single pattern removal must not erase an extent or adjacency entry
//! that other patterns still justify.
//!
//! [`Subdatabase::index`]: crate::subdb::Subdatabase::index
//! [`Subdatabase::pair_adj`]: crate::subdb::Subdatabase::pair_adj

use crate::fxhash::FxHashMap;
use crate::ids::Oid;
use std::sync::OnceLock;

/// Counted directional adjacency between two slots `a < b`: the distinct
/// `(x, y)` co-bindings with their multiplicities, plus ascending neighbor
/// lists both ways for O(1) traversal.
#[derive(Debug, Clone, Default)]
pub struct SlotAdj {
    counts: FxHashMap<(Oid, Oid), u32>,
    fwd: FxHashMap<Oid, Vec<Oid>>,
    rev: FxHashMap<Oid, Vec<Oid>>,
}

impl SlotAdj {
    /// Neighbors of `oid`, ascending: slot-`b` partners when `forward`,
    /// slot-`a` partners otherwise.
    pub fn neighbors(&self, oid: Oid, forward: bool) -> &[Oid] {
        let m = if forward { &self.fwd } else { &self.rev };
        m.get(&oid).map_or(&[], |v| v.as_slice())
    }

    /// Number of distinct `(x, y)` co-bindings — the derived edge's "link
    /// count", used by the cost-based planner's fan-out fallback.
    pub fn pair_count(&self) -> usize {
        self.counts.len()
    }

    fn add(&mut self, x: Oid, y: Oid) {
        let c = self.counts.entry((x, y)).or_insert(0);
        *c += 1;
        if *c == 1 {
            let v = self.fwd.entry(x).or_default();
            if let Err(i) = v.binary_search(&y) {
                v.insert(i, y);
            }
            let v = self.rev.entry(y).or_default();
            if let Err(i) = v.binary_search(&x) {
                v.insert(i, x);
            }
        }
    }

    fn del(&mut self, x: Oid, y: Oid) {
        let Some(c) = self.counts.get_mut(&(x, y)) else { return };
        *c -= 1;
        if *c > 0 {
            return;
        }
        self.counts.remove(&(x, y));
        if let Some(v) = self.fwd.get_mut(&x) {
            if let Ok(i) = v.binary_search(&y) {
                v.remove(i);
            }
            if v.is_empty() {
                self.fwd.remove(&x);
            }
        }
        if let Some(v) = self.rev.get_mut(&y) {
            if let Ok(i) = v.binary_search(&x) {
                v.remove(i);
            }
            if v.is_empty() {
                self.rev.remove(&y);
            }
        }
    }
}

/// The index over a subdatabase's extension: counted slot extents, and
/// counted adjacency for the ordered slot pairs `a < b` asked for so far.
#[derive(Debug, Clone)]
pub struct SubdbIndex {
    slots: Vec<FxHashMap<Oid, u32>>,
    /// One cell per pair `a < b`, row-major over the strict upper triangle.
    adj: Vec<OnceLock<SlotAdj>>,
}

impl SubdbIndex {
    /// Build the slot extents over an extension (one pass); pairs follow
    /// on demand.
    pub(crate) fn build<'a>(
        width: usize,
        patterns: impl Iterator<Item = &'a [Option<Oid>]>,
    ) -> Self {
        let mut ix = SubdbIndex {
            slots: vec![FxHashMap::default(); width],
            adj: vec![OnceLock::new(); width * width.saturating_sub(1) / 2],
        };
        for p in patterns {
            ix.add(p);
        }
        ix
    }

    /// The cell of pair `a < b`.
    fn cell(&self, a: usize, b: usize) -> usize {
        let w = self.slots.len();
        a * (2 * w - a - 1) / 2 + (b - a - 1)
    }

    /// The built pairs, each with its slots.
    fn built_mut(&mut self) -> impl Iterator<Item = (usize, usize, &mut SlotAdj)> {
        let w = self.slots.len();
        let pairs = (0..w).flat_map(move |a| (a + 1..w).map(move |b| (a, b)));
        pairs.zip(&mut self.adj).filter_map(|((a, b), c)| c.get_mut().map(|adj| (a, b, adj)))
    }

    /// Fold one inserted pattern in.
    pub(crate) fn add(&mut self, comps: &[Option<Oid>]) {
        for (i, c) in comps.iter().enumerate() {
            if let Some(o) = c {
                *self.slots[i].entry(*o).or_insert(0) += 1;
            }
        }
        for (a, b, adj) in self.built_mut() {
            if let (Some(x), Some(y)) = (comps[a], comps[b]) {
                adj.add(x, y);
            }
        }
    }

    /// Fold one removed pattern out.
    pub(crate) fn del(&mut self, comps: &[Option<Oid>]) {
        for (i, c) in comps.iter().enumerate() {
            if let Some(o) = c {
                if let Some(n) = self.slots[i].get_mut(o) {
                    *n -= 1;
                    if *n == 0 {
                        self.slots[i].remove(o);
                    }
                }
            }
        }
        for (a, b, adj) in self.built_mut() {
            if let (Some(x), Some(y)) = (comps[a], comps[b]) {
                adj.del(x, y);
            }
        }
    }

    /// Whether any pattern binds `oid` in `slot`.
    pub fn slot_contains(&self, slot: usize, oid: Oid) -> bool {
        self.slots[slot].contains_key(&oid)
    }

    /// The distinct oids bound in `slot` (unordered).
    pub fn slot_oids(&self, slot: usize) -> impl Iterator<Item = Oid> + '_ {
        self.slots[slot].keys().copied()
    }

    /// Number of distinct oids bound in `slot`.
    pub fn slot_len(&self, slot: usize) -> usize {
        self.slots[slot].len()
    }

    /// The adjacency between slots `a` and `b` (any order), with a flag
    /// telling the caller whether its notion of "forward" (`a` → `b`)
    /// is flipped relative to the stored `min < max` orientation. `None`
    /// for `a == b` or a slot out of range. A pair not asked for before is
    /// built from `patterns`, which must yield the indexed extension.
    pub(crate) fn pair_adj<'a>(
        &self,
        a: usize,
        b: usize,
        patterns: impl Iterator<Item = &'a [Option<Oid>]>,
    ) -> Option<(&SlotAdj, bool)> {
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi || hi >= self.slots.len() {
            return None;
        }
        let adj = self.adj[self.cell(lo, hi)].get_or_init(|| {
            let mut adj = SlotAdj::default();
            for p in patterns {
                if let (Some(x), Some(y)) = (p[lo], p[hi]) {
                    adj.add(x, y);
                }
            }
            adj
        });
        Some((adj, a > b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[Option<u64>]) -> Vec<Option<Oid>> {
        v.iter().map(|o| o.map(Oid)).collect()
    }

    #[test]
    fn counted_extents_and_adjacency() {
        let pats = [
            p(&[Some(1), Some(2), Some(3)]),
            p(&[Some(1), Some(2), Some(4)]), // repeats (1,2) in slots 0,1
            p(&[None, Some(5), Some(3)]),
        ];
        let mut ix = SubdbIndex::build(3, pats.iter().map(Vec::as_slice));
        assert!(ix.slot_contains(0, Oid(1)));
        assert!(!ix.slot_contains(0, Oid(5)));
        assert_eq!(ix.slot_len(1), 2);
        let (adj, flip) = ix.pair_adj(0, 1, pats.iter().map(Vec::as_slice)).unwrap();
        assert!(!flip);
        assert_eq!(adj.neighbors(Oid(1), true), &[Oid(2)]);
        let (adj, flip) = ix.pair_adj(1, 0, pats.iter().map(Vec::as_slice)).unwrap();
        assert!(flip);
        assert_eq!(adj.neighbors(Oid(2), false), &[Oid(1)]);
        assert!(ix.pair_adj(1, 1, pats.iter().map(Vec::as_slice)).is_none());
        assert!(ix.pair_adj(0, 3, pats.iter().map(Vec::as_slice)).is_none());

        // Removing one of the two (1,2) co-binders keeps the edge…
        ix.del(&pats[0]);
        let (adj, _) = ix.pair_adj(0, 1, pats[1..].iter().map(Vec::as_slice)).unwrap();
        assert_eq!(adj.neighbors(Oid(1), true), &[Oid(2)]);
        assert!(ix.slot_contains(2, Oid(3))); // still bound by pats[2]
        // …and removing the second erases it.
        ix.del(&pats[1]);
        let (adj, _) = ix.pair_adj(0, 1, pats[2..].iter().map(Vec::as_slice)).unwrap();
        assert!(adj.neighbors(Oid(1), true).is_empty());
        assert!(!ix.slot_contains(0, Oid(1)));
        assert!(ix.slot_contains(1, Oid(5)));
    }

    /// Pairs are built on their first request and point-maintained from
    /// then on; a pair first asked for after the edits is built from the
    /// edited extension. Either way it equals the pair of a fresh index.
    #[test]
    fn lazily_built_pairs_match_rebuild() {
        let before = [
            p(&[Some(1), Some(2), None]),
            p(&[Some(1), Some(3), Some(9)]),
            p(&[Some(4), Some(2), Some(9)]),
        ];
        let added = p(&[Some(7), Some(2), Some(8)]);
        let after = [before[0].clone(), before[2].clone(), added.clone()];
        let mut ix = SubdbIndex::build(3, before.iter().map(Vec::as_slice));
        // (0, 1) is built now and maintained through the edits; (0, 2) and
        // (1, 2) are not built yet and must not be touched by them.
        ix.pair_adj(0, 1, before.iter().map(Vec::as_slice)).unwrap();
        ix.del(&before[1]);
        ix.add(&added);
        assert_eq!(ix.adj.iter().filter(|c| c.get().is_some()).count(), 1);
        let fresh = SubdbIndex::build(3, after.iter().map(Vec::as_slice));
        for s in 0..3 {
            let mut a: Vec<Oid> = ix.slot_oids(s).collect();
            let mut b: Vec<Oid> = fresh.slot_oids(s).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "slot {s}");
        }
        for (a, b) in [(0, 1), (0, 2), (1, 2)] {
            let (ia, _) = ix.pair_adj(a, b, after.iter().map(Vec::as_slice)).unwrap();
            let (fa, _) = fresh.pair_adj(a, b, after.iter().map(Vec::as_slice)).unwrap();
            assert_eq!(ia.pair_count(), fa.pair_count(), "pair ({a}, {b})");
            for o in fresh.slot_oids(a) {
                assert_eq!(ia.neighbors(o, true), fa.neighbors(o, true));
            }
            for o in fresh.slot_oids(b) {
                assert_eq!(ia.neighbors(o, false), fa.neighbors(o, false));
            }
        }
    }
}
