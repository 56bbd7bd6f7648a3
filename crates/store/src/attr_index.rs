//! Ordered secondary indexes on descriptive attributes.
//!
//! Used to accelerate intra-class conditions such as
//! `Course [c# >= 6000 and c# < 7000]` (paper Query 3.2). Values are keyed
//! by a total order (floats via `total_cmp`), so range scans are exact and
//! deterministic.

use dood_core::ids::Oid;
use dood_core::value::Value;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::ops::Bound;

/// A totally-ordered wrapper over [`Value`] usable as a BTreeMap key.
/// Ordering: Null < Bool < Int/Real (numeric order, mixed) < Str.
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Real(_) => 2,
        Value::Str(_) => 3,
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        ord_cmp(&self.0, &other.0)
    }
}

/// The [`OrdValue`] order on borrowed values, for callers that sort or rank
/// values they do not own.
pub fn ord_cmp(a: &Value, b: &Value) -> Ordering {
    match rank(a).cmp(&rank(b)) {
        Ordering::Equal => match (a, b) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            (Value::Str(x), Value::Str(y)) => x.as_ref().cmp(y.as_ref()),
            _ => {
                // Numeric: compare as f64 with total ordering; equal
                // numerics tie-break Int before Real for determinism.
                let fx = a.as_f64().expect("numeric rank");
                let fy = b.as_f64().expect("numeric rank");
                fx.total_cmp(&fy).then_with(|| {
                    let ix = matches!(a, Value::Int(_));
                    let iy = matches!(b, Value::Int(_));
                    iy.cmp(&ix)
                })
            }
        },
        o => o,
    }
}

/// An ordered index from attribute value to the set of objects holding it.
#[derive(Debug, Default, Clone)]
pub struct AttrIndex {
    map: BTreeMap<OrdValue, BTreeSet<Oid>>,
    entries: usize,
}

impl AttrIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of (value, oid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Record that `oid` holds `value`.
    pub fn insert(&mut self, value: Value, oid: Oid) {
        if self.map.entry(OrdValue(value)).or_default().insert(oid) {
            self.entries += 1;
        }
    }

    /// Remove the record that `oid` holds `value`.
    pub fn remove(&mut self, value: &Value, oid: Oid) {
        let key = OrdValue(value.clone());
        if let Some(set) = self.map.get_mut(&key) {
            if set.remove(&oid) {
                self.entries -= 1;
            }
            if set.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// Objects with exactly this value.
    pub fn eq_scan(&self, value: &Value) -> Vec<Oid> {
        self.map
            .get(&OrdValue(value.clone()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Objects whose value falls within the bounds (null-valued entries are
    /// never returned: predicate semantics treat Null as unknown).
    pub fn range_scan(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<Oid> {
        let conv = |b: Bound<&Value>| match b {
            Bound::Included(v) => Bound::Included(OrdValue(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(OrdValue(v.clone())),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (k, set) in self.map.range((conv(lo), conv(hi))) {
            if k.0.is_null() {
                continue;
            }
            out.extend(set.iter().copied());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ord_value_total_order() {
        let mut vals = vec![
            OrdValue(Value::str("b")),
            OrdValue(Value::Int(2)),
            OrdValue(Value::Null),
            OrdValue(Value::Real(1.5)),
            OrdValue(Value::Bool(true)),
            OrdValue(Value::str("a")),
        ];
        vals.sort();
        let shape: Vec<String> = vals.iter().map(|v| v.0.to_string()).collect();
        assert_eq!(shape, vec!["Null", "true", "1.5", "2", "a", "b"]);
    }

    #[test]
    fn insert_remove_eq_scan() {
        let mut ix = AttrIndex::new();
        ix.insert(Value::Int(5), Oid(1));
        ix.insert(Value::Int(5), Oid(2));
        ix.insert(Value::Int(7), Oid(3));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.eq_scan(&Value::Int(5)), vec![Oid(1), Oid(2)]);
        ix.remove(&Value::Int(5), Oid(1));
        assert_eq!(ix.eq_scan(&Value::Int(5)), vec![Oid(2)]);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn range_scan_bounds() {
        let mut ix = AttrIndex::new();
        for (v, o) in [(5000, 1), (6000, 2), (6500, 3), (7000, 4)] {
            ix.insert(Value::Int(v), Oid(o));
        }
        // Paper Query 3.2: c# >= 6000 and c# < 7000.
        let hits = ix.range_scan(
            Bound::Included(&Value::Int(6000)),
            Bound::Excluded(&Value::Int(7000)),
        );
        assert_eq!(hits, vec![Oid(2), Oid(3)]);
    }

    #[test]
    fn range_scan_skips_null() {
        let mut ix = AttrIndex::new();
        ix.insert(Value::Null, Oid(1));
        ix.insert(Value::Int(1), Oid(2));
        let hits = ix.range_scan(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(hits, vec![Oid(2)]);
    }

    #[test]
    fn mixed_numeric_ordering() {
        let mut ix = AttrIndex::new();
        ix.insert(Value::Real(1.5), Oid(1));
        ix.insert(Value::Int(2), Oid(2));
        let hits = ix.range_scan(Bound::Included(&Value::Int(1)), Bound::Excluded(&Value::Int(2)));
        assert_eq!(hits, vec![Oid(1)]);
    }
}
