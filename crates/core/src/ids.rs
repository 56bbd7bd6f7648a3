//! Identifier newtypes.
//!
//! OSAM* requires that "each object is assumed to have a unique object
//! identifier (OID)" (paper §1). Objects get a `NonZeroU64` newtype and
//! schema-level entities (classes, associations) `u32` newtypes, which keeps
//! hot join state small (perf-book: smaller integers for indices).
//!
//! No OID is 0, so `Option<Oid>` — the cell of every flat row, run and chain
//! buffer, where `None` is Null — is 8 bytes by the language's guaranteed
//! niche layout, with no sentinel value in the code.

use std::fmt;
use std::num::NonZeroU64;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $repr);

        impl $name {
            /// The raw integer value.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// Construct from a raw integer value.
            #[inline]
            pub const fn from_raw(raw: $repr) -> Self {
                Self(raw)
            }

            /// The index form, for dense-vector addressing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                Self(raw)
            }
        }
    };
}

/// A system-generated unique object identifier (paper §2: "Each object of
/// an E-class is represented by a system-generated unique object identifier
/// (OID)"). Never 0; ordered as its raw integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(NonZeroU64);

const _: () = assert!(std::mem::size_of::<Oid>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Oid>>() == 8);

impl Oid {
    /// The least OID, `o1`.
    pub const MIN: Oid = Oid(NonZeroU64::MIN);
    /// The greatest OID.
    pub const MAX: Oid = Oid(NonZeroU64::MAX);

    /// The OID with this raw value, or `None` for 0 — for untrusted input.
    #[inline]
    pub const fn new(raw: u64) -> Option<Oid> {
        match NonZeroU64::new(raw) {
            Some(n) => Some(Oid(n)),
            None => None,
        }
    }

    /// The OID with this raw value, for literals and tests.
    ///
    /// # Panics
    /// If `raw` is 0.
    #[inline]
    pub const fn from_raw(raw: u64) -> Oid {
        match Oid::new(raw) {
            Some(oid) => oid,
            None => panic!("OID 0 is not an object identifier"),
        }
    }

    /// The raw integer value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0.get()
    }

    /// The index form, for dense-vector addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.raw() as usize
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

id_newtype!(
    /// Identifies an object class (E-class or D-class) within a schema.
    ClassId,
    u32,
    "c"
);

id_newtype!(
    /// Identifies an association (link type) within a schema.
    AssocId,
    u32,
    "a"
);

/// Monotonic OID generator. OIDs are never reused, even after object
/// deletion, so dangling references are detectable rather than silently
/// re-bound. It issues `o1` up to `o{u64::MAX - 1}` and then nothing: it
/// never wraps round, and never issues [`Oid::MAX`], which a reloaded store
/// could not resume after.
#[derive(Debug)]
pub struct OidGen {
    next: u64,
}

impl OidGen {
    /// A generator whose first OID is `o1`.
    pub fn new() -> Self {
        Self { next: 1 }
    }

    /// Resume generation after `watermark` (used when reloading a store).
    pub fn starting_after(watermark: Oid) -> Self {
        Self { next: watermark.raw().saturating_add(1) }
    }
}

impl Iterator for OidGen {
    type Item = Oid;

    /// Allocate the next OID, or `None` once every OID has been issued.
    #[inline]
    fn next(&mut self) -> Option<Oid> {
        let oid = Oid::new(self.next).filter(|&o| o != Oid::MAX)?;
        self.next += 1;
        Some(oid)
    }
}

impl Default for OidGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propcheck::{check, Gen};

    #[test]
    fn oids_are_monotonic_and_unique() {
        let mut g = OidGen::new();
        let a = g.next().unwrap();
        let b = g.next().unwrap();
        let c = g.next().unwrap();
        assert!(a < b && b < c);
        assert_eq!(a, Oid::MIN);
    }

    /// Resuming continues after the watermark, stops before `Oid::MAX`,
    /// and never wraps round.
    #[test]
    fn starting_after_resumes() {
        let mut g = OidGen::starting_after(Oid::from_raw(100));
        assert_eq!(g.next(), Some(Oid::from_raw(101)));
        let mut g = OidGen::starting_after(Oid::from_raw(u64::MAX - 2));
        assert_eq!(g.next(), Some(Oid::from_raw(u64::MAX - 1)));
        assert_eq!((g.next(), g.next()), (None, None));
        assert_eq!(OidGen::starting_after(Oid::MAX).next(), None);
    }

    /// The sort, merge and split code of the row store and row runs compares
    /// `Option<Oid>` cells: their order must be the raw integers' order, with
    /// Null below every OID.
    #[test]
    fn oid_order_is_raw_order_with_null_first() {
        check("oid_order_is_raw_order_with_null_first", 256, |g| {
            let raw = |g: &mut Gen| {
                if g.bool(0.5) {
                    g.range(1..=u64::MAX)
                } else {
                    *g.choose(&[1, 2, 3, u64::MAX - 1, u64::MAX])
                }
            };
            let (a, b) = (raw(g), raw(g));
            let (x, y) = (Oid::from_raw(a), Oid::from_raw(b));
            assert_eq!(x.cmp(&y), a.cmp(&b), "{a} vs {b}");
            assert_eq!(Some(x).cmp(&Some(y)), a.cmp(&b));
            assert!(None < Some(x) && None < Some(y));
            assert_eq!(x.raw(), a);
            assert_eq!(Oid::new(a), Some(x));
            assert_eq!(Oid::new(0), None);
        });
    }

    #[test]
    fn display_forms() {
        assert_eq!(Oid::from_raw(7).to_string(), "o7");
        assert_eq!(ClassId(3).to_string(), "c3");
        assert_eq!(AssocId(9).to_string(), "a9");
    }

    #[test]
    fn raw_round_trip() {
        let id = ClassId::from_raw(12);
        assert_eq!(id.raw(), 12);
        assert_eq!(id.index(), 12);
        let oid = Oid::from_raw(12);
        assert_eq!((oid.raw(), oid.index()), (12, 12));
        assert_eq!((Oid::MIN.raw(), Oid::MAX.raw()), (1, u64::MAX));
        assert!(std::panic::catch_unwind(|| Oid::from_raw(0)).is_err());
    }
}
