//! Bidirectional association (link) indexes.
//!
//! One index per association type; each direction maps an OID to its
//! neighbour OIDs in ascending order. A key's sole neighbour lives inline in
//! its map entry, so the one-to-one and many-to-one links that dominate a
//! schema (a perspective's parent, a section's course) allocate nothing of
//! their own; a second neighbour spills into a vector. Sorted neighbours
//! give deterministic iteration (reproducible query results and benchmarks)
//! and O(log n) membership.

use dood_core::fxhash::FxHashMap;
use dood_core::ids::Oid;
use std::collections::hash_map::Entry;
use std::slice;

/// The neighbours of one key, ascending: a sole one inline, or a vector.
#[derive(Debug, Clone)]
enum Adj {
    One(Oid),
    Many(Vec<Oid>),
}

impl Adj {
    fn as_slice(&self) -> &[Oid] {
        match self {
            Adj::One(o) => slice::from_ref(o),
            Adj::Many(v) => v,
        }
    }
}

/// Links of a single association, indexed in both directions.
#[derive(Debug, Default, Clone)]
pub struct AssocIndex {
    fwd: FxHashMap<Oid, Adj>,
    rev: FxHashMap<Oid, Adj>,
    links: usize,
}

impl AssocIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index holding exactly the links in `pairs`, built in bulk: the
    /// pairs are sorted once per direction and deduplicated once, and each
    /// direction's map is sized to its keys before it is filled. `pairs` is
    /// left deduplicated, in an unspecified order.
    pub fn from_pairs(pairs: &mut Vec<(Oid, Oid)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        let fwd = Self::side_of_sorted(pairs, false);
        pairs.sort_unstable_by_key(|&(from, to)| (to, from));
        let rev = Self::side_of_sorted(pairs, true);
        AssocIndex { fwd, rev, links: pairs.len() }
    }

    /// One direction's map from distinct pairs in ascending order, each read
    /// as `(key, neighbour)`, or as `(neighbour, key)` when `flip`.
    fn side_of_sorted(pairs: &[(Oid, Oid)], flip: bool) -> FxHashMap<Oid, Adj> {
        let kv = |&(a, b): &(Oid, Oid)| if flip { (b, a) } else { (a, b) };
        let same_key = |x: &(Oid, Oid), y: &(Oid, Oid)| kv(x).0 == kv(y).0;
        let keys = pairs.chunk_by(same_key).count();
        let mut map = FxHashMap::with_capacity_and_hasher(keys, Default::default());
        for run in pairs.chunk_by(same_key) {
            let adj = match run {
                [p] => Adj::One(kv(p).1),
                _ => {
                    // The capacity inserts one by one would have reached,
                    // so that the next insert costs what it would there.
                    let mut v = Vec::with_capacity(run.len().max(4).next_power_of_two());
                    v.extend(run.iter().map(|p| kv(p).1));
                    Adj::Many(v)
                }
            };
            map.insert(kv(&run[0]).0, adj);
        }
        map
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links
    }

    /// Whether there are no links.
    pub fn is_empty(&self) -> bool {
        self.links == 0
    }

    fn insert_side(map: &mut FxHashMap<Oid, Adj>, key: Oid, val: Oid) -> bool {
        let adj = match map.entry(key) {
            Entry::Vacant(e) => {
                e.insert(Adj::One(val));
                return true;
            }
            Entry::Occupied(e) => e.into_mut(),
        };
        match adj {
            Adj::One(o) if *o == val => false,
            Adj::One(o) => {
                // Room for four, as a vector's first growth gives: no key
                // pays more allocations than a vector from the start would.
                let mut v = Vec::with_capacity(4);
                v.extend(if *o < val { [*o, val] } else { [val, *o] });
                *adj = Adj::Many(v);
                true
            }
            Adj::Many(v) => match v.binary_search(&val) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, val);
                    true
                }
            },
        }
    }

    fn remove_side(map: &mut FxHashMap<Oid, Adj>, key: Oid, val: Oid) -> bool {
        let Some(adj) = map.get_mut(&key) else { return false };
        let emptied = match adj {
            Adj::One(o) if *o == val => true,
            Adj::One(_) => return false,
            // A spilled list keeps its vector down to one neighbour, so
            // that a key whose degree swings round 2 does not re-allocate.
            Adj::Many(v) => match v.binary_search(&val) {
                Ok(pos) => {
                    v.remove(pos);
                    v.is_empty()
                }
                Err(_) => return false,
            },
        };
        if emptied {
            map.remove(&key);
        }
        true
    }

    /// Insert a link. Returns whether it was new.
    pub fn insert(&mut self, from: Oid, to: Oid) -> bool {
        let new = Self::insert_side(&mut self.fwd, from, to);
        if new {
            Self::insert_side(&mut self.rev, to, from);
            self.links += 1;
        }
        new
    }

    /// Remove a link. Returns whether it existed.
    pub fn remove(&mut self, from: Oid, to: Oid) -> bool {
        let existed = Self::remove_side(&mut self.fwd, from, to);
        if existed {
            Self::remove_side(&mut self.rev, to, from);
            self.links -= 1;
        }
        existed
    }

    /// Whether the link exists.
    pub fn contains(&self, from: Oid, to: Oid) -> bool {
        self.targets(from).binary_search(&to).is_ok()
    }

    /// Targets linked from `from` (sorted).
    pub fn targets(&self, from: Oid) -> &[Oid] {
        self.fwd.get(&from).map_or(&[], |v| v.as_slice())
    }

    /// Sources linked to `to` (sorted).
    pub fn sources(&self, to: Oid) -> &[Oid] {
        self.rev.get(&to).map_or(&[], |v| v.as_slice())
    }

    /// Neighbours in the chosen direction.
    pub fn neighbors(&self, oid: Oid, forward: bool) -> &[Oid] {
        if forward {
            self.targets(oid)
        } else {
            self.sources(oid)
        }
    }

    /// Out-degree of `from`.
    pub fn out_degree(&self, from: Oid) -> usize {
        self.targets(from).len()
    }

    /// Remove every link touching `oid` (both directions), returning the
    /// removed `(from, to)` pairs — needed for cascade deletion and event
    /// emission.
    pub fn detach(&mut self, oid: Oid) -> Vec<(Oid, Oid)> {
        let mut removed = Vec::new();
        if let Some(tos) = self.fwd.remove(&oid) {
            for &to in tos.as_slice() {
                Self::remove_side(&mut self.rev, to, oid);
                self.links -= 1;
                removed.push((oid, to));
            }
        }
        if let Some(froms) = self.rev.remove(&oid) {
            for &from in froms.as_slice() {
                Self::remove_side(&mut self.fwd, from, oid);
                self.links -= 1;
                removed.push((from, oid));
            }
        }
        removed
    }

    /// Iterate all links as `(from, to)` pairs, deterministically ordered.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, Oid)> + '_ {
        let mut keys: Vec<Oid> = self.fwd.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter().flat_map(move |k| {
            self.fwd[&k].as_slice().iter().map(move |&t| (k, t))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_core::propcheck::{check, Gen};
    use std::collections::BTreeSet;

    type Model = BTreeSet<(Oid, Oid)>;

    fn oid(g: &mut Gen) -> Oid {
        Oid::from_raw(g.range(1..7u64))
    }

    /// `ix` holds exactly `model`, read every way the index answers.
    fn assert_matches(ix: &AssocIndex, model: &Model) {
        let all: Vec<(Oid, Oid)> = model.iter().copied().collect();
        assert_eq!(ix.iter().collect::<Vec<_>>(), all, "iter");
        assert_eq!(ix.len(), model.len(), "len");
        assert_eq!(ix.is_empty(), model.is_empty(), "is_empty");
        for a in (1..8).map(Oid::from_raw) {
            let targets: Vec<Oid> = all.iter().filter(|p| p.0 == a).map(|p| p.1).collect();
            let sources: Vec<Oid> = all.iter().filter(|p| p.1 == a).map(|p| p.0).collect();
            assert_eq!(ix.targets(a), targets, "targets of {a}");
            assert_eq!(ix.sources(a), sources, "sources of {a}");
            assert_eq!(ix.neighbors(a, true), targets);
            assert_eq!(ix.neighbors(a, false), sources);
            assert_eq!(ix.out_degree(a), targets.len(), "out_degree of {a}");
            for b in (1..8).map(Oid::from_raw) {
                assert_eq!(ix.contains(a, b), model.contains(&(a, b)), "contains {a} {b}");
            }
        }
    }

    /// One random insert, remove or detach, on the index and on the model.
    fn step(g: &mut Gen, ix: &mut AssocIndex, model: &mut Model) {
        let (a, b) = (oid(g), oid(g));
        match g.range(0..8u32) {
            0..=3 => assert_eq!(ix.insert(a, b), model.insert((a, b)), "insert {a} {b}"),
            4..=6 => assert_eq!(ix.remove(a, b), model.remove(&(a, b)), "remove {a} {b}"),
            _ => {
                let mut removed = ix.detach(a);
                removed.sort_unstable();
                let touching = |p: &(Oid, Oid)| p.0 == a || p.1 == a;
                let want: Vec<(Oid, Oid)> = model.iter().copied().filter(touching).collect();
                model.retain(|p| !touching(p));
                assert_eq!(removed, want, "detach {a}");
            }
        }
        assert_matches(ix, model);
    }

    /// The index against a `BTreeSet` of pairs over random inserts,
    /// removes and detaches (self-links included, degrees swinging between
    /// the inline neighbour and a spilled list); then the same links built
    /// by `from_pairs` from shuffled pairs with duplicates, and edited on.
    #[test]
    fn index_matches_a_btreeset_model() {
        check("index_matches_a_btreeset_model", 128, |g| {
            let (mut ix, mut model) = (AssocIndex::new(), Model::new());
            for _ in 0..g.range(0..60usize) {
                step(g, &mut ix, &mut model);
            }
            let mut pairs: Vec<(Oid, Oid)> = model.iter().copied().collect();
            if !pairs.is_empty() {
                let again = g.vec(0..10, |g| *g.choose(&pairs));
                pairs.extend(again);
            }
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, g.range(0..=i));
            }
            let mut bulk = AssocIndex::from_pairs(&mut pairs);
            assert_matches(&bulk, &model);
            assert_eq!(bulk.iter().collect::<Vec<_>>(), ix.iter().collect::<Vec<_>>());
            for _ in 0..g.range(0..30usize) {
                step(g, &mut bulk, &mut model);
            }
        });
    }

    #[test]
    fn insert_remove_contains() {
        let mut ix = AssocIndex::new();
        assert!(ix.insert(Oid::from_raw(1), Oid::from_raw(2)));
        assert!(!ix.insert(Oid::from_raw(1), Oid::from_raw(2)));
        assert!(ix.contains(Oid::from_raw(1), Oid::from_raw(2)));
        assert_eq!(ix.len(), 1);
        assert!(ix.remove(Oid::from_raw(1), Oid::from_raw(2)));
        assert!(!ix.remove(Oid::from_raw(1), Oid::from_raw(2)));
        assert!(ix.is_empty());
    }

    #[test]
    fn neighbors_sorted_and_bidirectional() {
        let mut ix = AssocIndex::new();
        ix.insert(Oid::from_raw(1), Oid::from_raw(30));
        ix.insert(Oid::from_raw(1), Oid::from_raw(10));
        ix.insert(Oid::from_raw(1), Oid::from_raw(20));
        ix.insert(Oid::from_raw(2), Oid::from_raw(10));
        assert_eq!(ix.targets(Oid::from_raw(1)), [10, 20, 30].map(Oid::from_raw));
        assert_eq!(ix.sources(Oid::from_raw(10)), &[Oid::from_raw(1), Oid::from_raw(2)]);
        assert_eq!(ix.neighbors(Oid::from_raw(1), true).len(), 3);
        assert_eq!(ix.neighbors(Oid::from_raw(10), false).len(), 2);
        assert_eq!(ix.out_degree(Oid::from_raw(1)), 3);
        assert_eq!(ix.out_degree(Oid::from_raw(9)), 0);
    }

    #[test]
    fn detach_removes_both_directions() {
        let mut ix = AssocIndex::new();
        ix.insert(Oid::from_raw(1), Oid::from_raw(2));
        ix.insert(Oid::from_raw(3), Oid::from_raw(1));
        ix.insert(Oid::from_raw(4), Oid::from_raw(5));
        let mut removed = ix.detach(Oid::from_raw(1));
        removed.sort_unstable();
        assert_eq!(removed, [(1, 2), (3, 1)].map(|(a, b)| (Oid::from_raw(a), Oid::from_raw(b))));
        assert_eq!(ix.len(), 1);
        assert!(ix.targets(Oid::from_raw(1)).is_empty());
        assert!(ix.sources(Oid::from_raw(2)).is_empty());
    }

    #[test]
    fn iter_deterministic() {
        let mut ix = AssocIndex::new();
        ix.insert(Oid::from_raw(2), Oid::from_raw(9));
        ix.insert(Oid::from_raw(1), Oid::from_raw(8));
        ix.insert(Oid::from_raw(1), Oid::from_raw(7));
        let all: Vec<(Oid, Oid)> = ix.iter().collect();
        let want = [(1, 7), (1, 8), (2, 9)].map(|(a, b)| (Oid::from_raw(a), Oid::from_raw(b)));
        assert_eq!(all, want);
    }
}
