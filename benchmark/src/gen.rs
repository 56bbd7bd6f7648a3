//! Seeded input generation shared by the workloads: stratified draws, base
//! updates as data, and result digests.

use dood::core::ids::{AssocId, ClassId, Oid};
use dood::core::rng::Rng;
use dood::core::value::Value;
use dood::store::Database;

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// `n` draws from `pool`, each element the same number of times (up to a
/// remainder), in seeded order. Equal seeds give equal lists; different
/// seeds give the same multiset in a different order, so the total work of
/// a run does not depend on the luck of the draw.
pub fn stratified<T: Clone>(rng: &mut Rng, pool: &[T], n: usize) -> Vec<T> {
    assert!(!pool.is_empty());
    let mut out: Vec<T> = Vec::with_capacity(n);
    while out.len() < n {
        let mut round = pool.to_vec();
        shuffle(rng, &mut round);
        round.truncate(n - out.len());
        out.extend(round);
    }
    shuffle(rng, &mut out);
    out
}

/// A seeded element of a non-empty slice.
pub fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> &'a T {
    &items[rng.random_range(0..items.len())]
}

/// A class of a builtin workload schema, by name.
pub fn class(db: &Database, name: &str) -> ClassId {
    db.schema()
        .class_by_name(name)
        .expect("a class of the workload's schema")
}

/// An association a class declares, by name.
pub fn link(db: &Database, class_name: &str, name: &str) -> AssocId {
    db.schema()
        .own_link_by_name(class(db, class_name), name)
        .expect("a link of the workload's schema")
}

/// The direct instances of a class, in OID order.
pub fn extent(db: &Database, class_name: &str) -> Vec<Oid> {
    db.extent(class(db, class_name)).collect()
}

/// One primitive store mutation, with every id already resolved against
/// the schema a `load_full` of the run's dump produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    Associate {
        assoc: AssocId,
        from: Oid,
        to: Oid,
    },
    Dissociate {
        assoc: AssocId,
        from: Oid,
        to: Oid,
    },
    SetAttr {
        oid: Oid,
        name: &'static str,
        value: Value,
    },
    Delete {
        oid: Oid,
    },
    /// Create an object; the store must hand out exactly `expect`, which
    /// later updates of the same list refer to.
    New {
        class: ClassId,
        expect: Oid,
    },
}

/// Apply one update through the store's public mutators.
pub fn apply(db: &mut Database, u: &Update) -> Result<(), String> {
    let r = match u {
        Update::Associate { assoc, from, to } => db.associate(*assoc, *from, *to),
        Update::Dissociate { assoc, from, to } => db.dissociate(*assoc, *from, *to),
        Update::SetAttr { oid, name, value } => db.set_attr(*oid, name, value.clone()),
        Update::Delete { oid } => db.delete_object(*oid),
        Update::New { class, expect } => match db.new_object(*class) {
            Ok(got) if got == *expect => Ok(()),
            Ok(got) => {
                return Err(format!(
                    "new object got {got}, the op list expects {expect}"
                ))
            }
            Err(e) => Err(e),
        },
    };
    r.map_err(|e| format!("{u:?}: {e}"))
}

/// FNV-1a, the digest's mixing function.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u64(0),
            Value::Int(i) => {
                self.u64(1);
                self.u64(*i as u64);
            }
            Value::Real(r) => {
                self.u64(2);
                self.u64(r.to_bits());
            }
            Value::Str(s) => {
                self.u64(3);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u64(4);
                self.u64(u64::from(*b));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_is_balanced_and_seeded() {
        let pool = ["a", "b", "c", "d", "e"];
        let a = stratified(&mut Rng::seed_from_u64(1), &pool, 30);
        let b = stratified(&mut Rng::seed_from_u64(1), &pool, 30);
        let c = stratified(&mut Rng::seed_from_u64(2), &pool, 30);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for p in pool {
            assert_eq!(a.iter().filter(|x| **x == p).count(), 6);
            assert_eq!(c.iter().filter(|x| **x == p).count(), 6);
        }
        // A remainder is spread over distinct elements.
        let d = stratified(&mut Rng::seed_from_u64(3), &pool, 7);
        assert_eq!(d.len(), 7);
        assert!(pool
            .iter()
            .all(|p| (1..=2).contains(&d.iter().filter(|x| *x == p).count())));
    }

    #[test]
    fn digest_tells_values_apart() {
        let h = |v: &Value| {
            let mut f = Fnv::new();
            f.value(v);
            f.0
        };
        assert_ne!(h(&Value::Int(1)), h(&Value::Real(1.0)));
        assert_ne!(h(&Value::str("ab")), h(&Value::str("ba")));
        assert_eq!(h(&Value::str("ab")), h(&Value::str("ab")));
        assert_ne!(h(&Value::Null), h(&Value::Bool(false)));
    }
}
