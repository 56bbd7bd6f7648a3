//! Bidirectional association (link) indexes.
//!
//! One index per association type; each direction maps an OID to a sorted
//! vector of neighbour OIDs. Sorted vectors give deterministic iteration
//! (reproducible query results and benchmarks) and O(log n) membership.

use dood_core::fxhash::FxHashMap;
use dood_core::ids::Oid;

/// Links of a single association, indexed in both directions.
#[derive(Debug, Default, Clone)]
pub struct AssocIndex {
    fwd: FxHashMap<Oid, Vec<Oid>>,
    rev: FxHashMap<Oid, Vec<Oid>>,
    links: usize,
}

impl AssocIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links
    }

    /// Whether there are no links.
    pub fn is_empty(&self) -> bool {
        self.links == 0
    }

    fn insert_side(map: &mut FxHashMap<Oid, Vec<Oid>>, key: Oid, val: Oid) -> bool {
        let v = map.entry(key).or_default();
        match v.binary_search(&val) {
            Ok(_) => false,
            Err(pos) => {
                v.insert(pos, val);
                true
            }
        }
    }

    fn remove_side(map: &mut FxHashMap<Oid, Vec<Oid>>, key: Oid, val: Oid) -> bool {
        if let Some(v) = map.get_mut(&key) {
            if let Ok(pos) = v.binary_search(&val) {
                v.remove(pos);
                if v.is_empty() {
                    map.remove(&key);
                }
                return true;
            }
        }
        false
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
        self.fwd
            .get(&from)
            .is_some_and(|v| v.binary_search(&to).is_ok())
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
        self.fwd.get(&from).map_or(0, |v| v.len())
    }

    /// Remove every link touching `oid` (both directions), returning the
    /// removed `(from, to)` pairs — needed for cascade deletion and event
    /// emission.
    pub fn detach(&mut self, oid: Oid) -> Vec<(Oid, Oid)> {
        let mut removed = Vec::new();
        if let Some(tos) = self.fwd.remove(&oid) {
            for to in tos {
                Self::remove_side(&mut self.rev, to, oid);
                self.links -= 1;
                removed.push((oid, to));
            }
        }
        if let Some(froms) = self.rev.remove(&oid) {
            for from in froms {
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
            self.fwd[&k].iter().map(move |&t| (k, t))
        })
    }

    /// Number of distinct source OIDs.
    pub fn source_count(&self) -> usize {
        self.fwd.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
