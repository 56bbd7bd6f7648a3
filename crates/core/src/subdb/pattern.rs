//! Extensional association patterns.
//!
//! "An extensional pattern can be represented as a tuple of OIDs" (paper
//! §3.1); a component may be Null (the pattern `(t3, s4)` "whose Course
//! component is Null"). The **extensional pattern type** is "the common
//! template that is shared by several extensional patterns", denoted by a
//! tuple of class names; we represent a type as the bitmask of non-null
//! slots of the owning intension. A pattern itself has no width limit (a
//! closure result is as wide as its longest chain); the one-word
//! [`PatternType`] describes the patterns of a non-closure context, which
//! the resolver caps at 64 slots.

use crate::ids::Oid;
use std::fmt;

/// A pattern type: bitmask over the slots of an intension (bit i set ⇔ slot
/// i is non-null), for patterns of at most 64 slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternType(pub u64);

impl PatternType {
    /// The empty type (all components Null).
    pub const EMPTY: PatternType = PatternType(0);

    /// Whether slot `i` is non-null in this type.
    #[inline]
    pub fn has(self, i: usize) -> bool {
        (self.0 >> i) & 1 == 1
    }

    /// Number of non-null slots.
    #[inline]
    pub fn arity(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate the slot indices present in this type, ascending.
    pub fn slots(self) -> impl Iterator<Item = usize> {
        let bits = self.0;
        (0..64usize).filter(move |&i| (bits >> i) & 1 == 1)
    }
}

/// An extensional association pattern: one `Option<Oid>` per slot of the
/// owning intension.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtPattern {
    components: Box<[Option<Oid>]>,
}

impl ExtPattern {
    /// Build from components.
    pub fn new(components: impl Into<Box<[Option<Oid>]>>) -> Self {
        Self { components: components.into() }
    }

    /// An all-null pattern of the given width.
    pub fn nulls(width: usize) -> Self {
        Self::new(vec![None; width])
    }

    /// Convenience: build from raw OIDs (all non-null).
    pub fn full(oids: impl IntoIterator<Item = Oid>) -> Self {
        Self::new(oids.into_iter().map(Some).collect::<Vec<_>>())
    }

    /// Number of slots.
    #[inline]
    pub fn width(&self) -> usize {
        self.components.len()
    }

    /// Component at slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Oid> {
        self.components[i]
    }

    /// All components.
    #[inline]
    pub fn components(&self) -> &[Option<Oid>] {
        &self.components
    }

    /// Set slot `i` (builder-style use during evaluation).
    pub fn set(&mut self, i: usize, oid: Option<Oid>) {
        self.components[i] = oid;
    }

    /// Number of non-null slots.
    #[inline]
    pub fn arity(&self) -> usize {
        self.as_row().arity()
    }

    /// The pattern's type: the bitmask of non-null slots. Panics on a
    /// pattern wider than 64 slots, which only a closure result can be
    /// (the engine itself never asks for the type of one).
    pub fn pattern_type(&self) -> PatternType {
        self.as_row().pattern_type()
    }

    /// Whether this pattern is a strict *part* of `other`: `other` agrees on
    /// every non-null component of `self` and has strictly more non-null
    /// components. The paper drops such patterns: "an extensional pattern of
    /// a certain specified type will not appear independently in the result
    /// if it is part of a larger extensional pattern" (§5.1).
    pub fn is_part_of(&self, other: impl AsRef<[Option<Oid>]>) -> bool {
        self.as_row().is_part_of(other)
    }

    /// This pattern as a borrowed row, the form a subdatabase hands out.
    #[inline]
    pub fn as_row(&self) -> Row<'_> {
        Row::new(&self.components)
    }
}

/// [`ExtPattern::is_part_of`] on bare component rows of equal width: `b`
/// agrees with every non-null component of `a` and binds strictly more.
pub fn is_part(a: &[Option<Oid>], b: &[Option<Oid>]) -> bool {
    let mut wider = false;
    for pair in a.iter().zip(b) {
        match pair {
            (Some(x), Some(y)) if x == y => {}
            (None, Some(_)) => wider = true,
            (None, None) => {}
            _ => return false,
        }
    }
    wider
}

impl AsRef<[Option<Oid>]> for ExtPattern {
    fn as_ref(&self) -> &[Option<Oid>] {
        &self.components
    }
}

/// A borrowed extensional pattern: one row of a subdatabase's extension,
/// read in place. It orders, compares and hashes as its component slice,
/// exactly as [`ExtPattern`] does, and [`Row::to_pattern`] copies it out.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row<'a> {
    components: &'a [Option<Oid>],
}

impl<'a> Row<'a> {
    /// View a component slice as a row.
    #[inline]
    pub fn new(components: &'a [Option<Oid>]) -> Self {
        Row { components }
    }

    /// Number of slots.
    #[inline]
    pub fn width(self) -> usize {
        self.components.len()
    }

    /// Component at slot `i`.
    #[inline]
    pub fn get(self, i: usize) -> Option<Oid> {
        self.components[i]
    }

    /// All components, borrowed from the extension.
    #[inline]
    pub fn components(self) -> &'a [Option<Oid>] {
        self.components
    }

    /// Number of non-null slots.
    #[inline]
    pub fn arity(self) -> usize {
        self.components.iter().filter(|c| c.is_some()).count()
    }

    /// The row's type, as [`ExtPattern::pattern_type`].
    pub fn pattern_type(self) -> PatternType {
        assert!(self.width() <= 64, "a pattern type spans at most 64 slots");
        let mut bits = 0u64;
        for (i, c) in self.components.iter().enumerate() {
            if c.is_some() {
                bits |= 1 << i;
            }
        }
        PatternType(bits)
    }

    /// Whether this row is a strict part of `other`, as
    /// [`ExtPattern::is_part_of`].
    pub fn is_part_of(self, other: impl AsRef<[Option<Oid>]>) -> bool {
        let other = other.as_ref();
        debug_assert_eq!(self.width(), other.len());
        is_part(self.components, other)
    }

    /// An owned copy.
    pub fn to_pattern(self) -> ExtPattern {
        ExtPattern::new(self.components)
    }
}

impl AsRef<[Option<Oid>]> for Row<'_> {
    fn as_ref(&self) -> &[Option<Oid>] {
        self.components
    }
}

impl PartialEq<ExtPattern> for Row<'_> {
    fn eq(&self, other: &ExtPattern) -> bool {
        self.components == other.components()
    }
}

impl PartialEq<Row<'_>> for ExtPattern {
    fn eq(&self, other: &Row<'_>) -> bool {
        self.components() == other.components
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.components).finish()
    }
}

impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match c {
                Some(oid) => write!(f, "{oid}")?,
                None => f.write_str("Null")?,
            }
        }
        f.write_str(")")
    }
}

impl fmt::Display for ExtPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_row().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[Option<u64>]) -> ExtPattern {
        ExtPattern::new(v.iter().map(|o| o.map(Oid::from_raw)).collect::<Vec<_>>())
    }

    #[test]
    fn pattern_type_bits() {
        let pat = p(&[Some(1), None, Some(3)]);
        let t = pat.pattern_type();
        assert!(t.has(0) && !t.has(1) && t.has(2));
        assert_eq!(t.arity(), 2);
        assert_eq!(pat.arity(), 2);
        assert_eq!(t.slots().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn part_of_requires_agreement() {
        // Paper §5.1: (b5, c5) is part of (a1, b5, c5, d5).
        let small = p(&[None, Some(5), Some(6), None]);
        let big = p(&[Some(1), Some(5), Some(6), Some(7)]);
        assert!(small.is_part_of(&big));
        // Same shape, different OIDs: not a part.
        let other = p(&[Some(1), Some(5), Some(99), Some(7)]);
        assert!(!small.is_part_of(&other));
        // A pattern is not part of itself.
        assert!(!big.is_part_of(&big));
    }

    #[test]
    fn display_with_nulls() {
        let pat = p(&[Some(3), None]);
        assert_eq!(pat.to_string(), "(o3, Null)");
    }

    #[test]
    fn full_and_nulls_constructors() {
        assert_eq!(ExtPattern::full([Oid::from_raw(1), Oid::from_raw(2)]).arity(), 2);
        assert_eq!(ExtPattern::nulls(3).pattern_type(), PatternType::EMPTY);
    }
}

impl From<u64> for PatternType {
    fn from(bits: u64) -> Self {
        PatternType(bits)
    }
}
