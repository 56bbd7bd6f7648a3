//! The registry of derived subdatabases.
//!
//! Classes of derived subdatabases are referenced as `Subdb:Class` — "by
//! qualifying the class name with the subdatabase name using a colon"
//! (paper §4.1). The registry resolves such qualified references and keeps,
//! per entry, what the rule engine needs to bring an out-of-date result up
//! to date: the store sequence number it reflects, the engine epochs of its
//! last content changes, and whether it is *stale*. A stale entry is kept
//! only as the base of a catch-up; every reader sees it as absent.

use crate::fxhash::FxHashMap;
use crate::subdb::subdatabase::Subdatabase;

/// A registry entry: the materialized subdatabase plus its freshness
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct RegistryEntry {
    /// The derived subdatabase.
    pub subdb: Subdatabase,
    /// Store event sequence number the content reflects.
    pub derived_at: u64,
    /// Engine epoch of the commit that last changed the content.
    pub changed_at: u64,
    /// The last change a reader stepping inside the commit's propagate does
    /// not get as a content delta: `changed_at` itself, unless that commit
    /// folded its delta into the propagate's dirty set, in which case the
    /// change before it.
    pub changed_before: u64,
    /// Out of date: kept for a catch-up, absent to readers.
    pub stale: bool,
}

/// Registry of derived subdatabases, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct SubdbRegistry {
    entries: FxHashMap<String, RegistryEntry>,
}

impl SubdbRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a fresh derived subdatabase whose content changed
    /// at epoch 0.
    pub fn put(&mut self, subdb: Subdatabase, derived_at: u64) {
        self.insert(RegistryEntry {
            subdb,
            derived_at,
            changed_at: 0,
            changed_before: 0,
            stale: false,
        });
    }

    /// Insert or replace an entry.
    pub fn insert(&mut self, entry: RegistryEntry) {
        self.entries.insert(entry.subdb.name.clone(), entry);
    }

    /// Get a fresh entry by subdatabase name.
    pub fn get(&self, name: &str) -> Option<&RegistryEntry> {
        self.entries.get(name).filter(|e| !e.stale)
    }

    /// Get a fresh subdatabase by name.
    pub fn subdb(&self, name: &str) -> Option<&Subdatabase> {
        self.get(name).map(|e| &e.subdb)
    }

    /// Remove an entry, stale or not (to refresh it and insert it again).
    pub fn take(&mut self, name: &str) -> Option<RegistryEntry> {
        self.entries.remove(name)
    }

    /// Mark an entry, if any, stale: readers stop seeing it, a catch-up
    /// starts from it.
    pub fn mark_stale(&mut self, name: &str) {
        if let Some(e) = self.entries.get_mut(name) {
            e.stale = true;
        }
    }

    /// Whether a fresh entry exists and reflects the store at or after
    /// sequence number `seq`.
    pub fn is_fresh(&self, name: &str, seq: u64) -> bool {
        self.get(name).is_some_and(|e| e.derived_at >= seq)
    }

    /// Names of fresh subdatabases, sorted (deterministic).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> =
            self.entries.iter().filter(|(_, e)| !e.stale).map(|(n, _)| n.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Resolve a `Subdb:Class` qualified reference to (subdatabase, slot
    /// index).
    pub fn resolve_qualified(&self, subdb: &str, class: &str) -> Option<(&Subdatabase, usize)> {
        let s = self.subdb(subdb)?;
        let slot = s.intension.slot_by_name(class)?;
        Some((s, slot))
    }

    /// Number of entries, stale ones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no entry at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clear all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClassId;
    use crate::subdb::intension::{Intension, SlotDef};

    fn sd(name: &str) -> Subdatabase {
        Subdatabase::new(
            name,
            Intension::new(vec![
                SlotDef::base("Teacher", ClassId(0)),
                SlotDef::base("Course", ClassId(1)),
            ]),
        )
    }

    #[test]
    fn put_get_take() {
        let mut r = SubdbRegistry::new();
        r.put(sd("Teacher_course"), 3);
        assert!(r.get("Teacher_course").is_some());
        assert_eq!(r.get("Teacher_course").unwrap().derived_at, 3);
        assert!(r.subdb("Nope").is_none());
        assert!(r.take("Teacher_course").is_some());
        assert!(r.is_empty());
    }

    #[test]
    fn freshness() {
        let mut r = SubdbRegistry::new();
        r.put(sd("S"), 5);
        assert!(r.is_fresh("S", 5));
        assert!(r.is_fresh("S", 4));
        assert!(!r.is_fresh("S", 6));
        assert!(!r.is_fresh("T", 0));
    }

    #[test]
    fn stale_entries_are_absent_to_readers() {
        let mut r = SubdbRegistry::new();
        r.put(sd("S"), 5);
        r.put(sd("T"), 5);
        r.mark_stale("S");
        r.mark_stale("U");
        assert!(r.get("S").is_none() && r.subdb("S").is_none());
        assert!(!r.is_fresh("S", 0));
        assert!(r.resolve_qualified("S", "Course").is_none());
        assert_eq!(r.names(), vec!["T"]);
        // Still there for a catch-up.
        let e = r.take("S").unwrap();
        assert!(e.stale && e.derived_at == 5);
    }

    #[test]
    fn qualified_resolution() {
        let mut r = SubdbRegistry::new();
        r.put(sd("Teacher_course"), 0);
        let (s, slot) = r.resolve_qualified("Teacher_course", "Course").unwrap();
        assert_eq!(s.name, "Teacher_course");
        assert_eq!(slot, 1);
        assert!(r.resolve_qualified("Teacher_course", "Section").is_none());
        assert!(r.resolve_qualified("Nope", "Course").is_none());
    }

    #[test]
    fn names_sorted() {
        let mut r = SubdbRegistry::new();
        r.put(sd("b"), 0);
        r.put(sd("a"), 0);
        assert_eq!(r.names(), vec!["a", "b"]);
    }
}
