//! Intensional association patterns.
//!
//! "The intensional association pattern of a subdatabase is represented as a
//! network of E-classes and their associations" (paper §3.1). Each class
//! occurrence is a **slot**; the same base class may occur several times
//! under different alias names (`Grad`, `Grad_1`, `Grad_2` … in transitive
//! closure, §5.2).
//!
//! Every slot records the base class it ultimately specializes and,
//! when derived by a rule, the subdatabase it was derived *from* — the
//! **induced generalization association** of §4.1: "between every target
//! class and its source class there is a generalization association that is
//! induced by the deductive rule".

use crate::ids::ClassId;
use std::fmt;

/// Where a slot's class was derived from (the source end of the induced
/// generalization association).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotSource {
    /// The slot ranges over a base class of the original database.
    Base,
    /// The slot's class was derived from class `slot` of subdatabase
    /// `subdb` — the induced generalization's superclass is `subdb:slot`.
    Derived {
        /// Source subdatabase name.
        subdb: String,
        /// Source slot (class occurrence) name within that subdatabase.
        slot: String,
    },
}

/// One class occurrence in an intensional pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotDef {
    /// Display name: the class name, possibly alias-suffixed (`Grad_2`).
    pub name: String,
    /// The base class this slot's instances belong to.
    pub base: ClassId,
    /// Source of the induced generalization (paper §4.1).
    pub source: SlotSource,
    /// Inherited descriptive attributes retained on this target class, by
    /// name; `None` means all are inherited (paper §4.2: "otherwise all
    /// attributes are inherited, i.e. the default is all attributes").
    pub attrs: Option<Vec<String>>,
}

impl SlotDef {
    /// A base-class slot inheriting all attributes.
    pub fn base(name: impl Into<String>, base: ClassId) -> Self {
        SlotDef { name: name.into(), base, source: SlotSource::Base, attrs: None }
    }

    /// Whether attribute `attr` is accessible on this target class.
    pub fn attr_accessible(&self, attr: &str) -> bool {
        match &self.attrs {
            None => true,
            Some(list) => list.iter().any(|a| a == attr),
        }
    }
}

/// A derived direct association between two slots of an intension. "Since
/// Teacher and Course in the operand database are not directly associated
/// but are associated through Section, a new direct association is derived
/// between them in the resulting subdatabase" (paper §4.2, Fig. 4.3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntEdge {
    /// Left slot index.
    pub a: u16,
    /// Right slot index.
    pub b: u16,
}

/// The intensional pattern: slots plus derived direct associations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Intension {
    /// Class occurrences, in pattern-component order.
    pub slots: Vec<SlotDef>,
    /// Derived direct associations among slots.
    pub edges: Vec<IntEdge>,
}

impl Intension {
    /// Build an intension with no edges.
    pub fn new(slots: Vec<SlotDef>) -> Self {
        Intension { slots, edges: Vec::new() }
    }

    /// Number of slots (pattern width).
    pub fn width(&self) -> usize {
        self.slots.len()
    }

    /// Find a slot index by its display name.
    pub fn slot_by_name(&self, name: &str) -> Option<usize> {
        self.slots.iter().position(|s| s.name == name)
    }

    /// All slot indices whose name is `base` or `base_<k>` (alias levels),
    /// ascending by level — used by the paper's `Grad_*` ("Grad*") target
    /// notation whose intension "is determined at runtime".
    pub fn slots_of_family(&self, base: &str) -> Vec<usize> {
        let prefix = format!("{base}_");
        let mut found: Vec<(u32, usize)> = Vec::new();
        for (i, s) in self.slots.iter().enumerate() {
            if s.name == base {
                found.push((0, i));
            } else if let Some(rest) = s.name.strip_prefix(&prefix) {
                if let Ok(level) = rest.parse::<u32>() {
                    found.push((level, i));
                }
            }
        }
        found.sort_unstable();
        found.into_iter().map(|(_, i)| i).collect()
    }

    /// Add a derived direct association between two slots.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        debug_assert!(a < self.width() && b < self.width());
        let e = IntEdge { a: a as u16, b: b as u16 };
        if !self.edges.contains(&e) {
            self.edges.push(e);
        }
    }

    /// Whether two slots are directly associated in this intension.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges.iter().any(|e| {
            (e.a as usize == a && e.b as usize == b) || (e.a as usize == b && e.b as usize == a)
        })
    }

    /// Render a pattern type of this intension as the paper does:
    /// `(Teacher, Section, Course)`.
    pub fn type_name(&self, ty: crate::subdb::pattern::PatternType) -> String {
        let names: Vec<&str> =
            ty.slots().map(|i| self.slots[i].name.as_str()).collect();
        format!("({})", names.join(", "))
    }
}

impl fmt::Display for Intension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", s.name)?;
        }
        write!(f, "]")?;
        if !self.edges.is_empty() {
            write!(f, " edges: ")?;
            for (i, e) in self.edges.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(
                    f,
                    "{}-{}",
                    self.slots[e.a as usize].name, self.slots[e.b as usize].name
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subdb::pattern::PatternType;

    fn intension() -> Intension {
        let mut i = Intension::new(vec![
            SlotDef::base("Teacher", ClassId(0)),
            SlotDef::base("Section", ClassId(1)),
            SlotDef::base("Course", ClassId(2)),
        ]);
        i.add_edge(0, 1);
        i.add_edge(1, 2);
        i
    }

    #[test]
    fn slot_lookup() {
        let i = intension();
        assert_eq!(i.slot_by_name("Section"), Some(1));
        assert_eq!(i.slot_by_name("Nope"), None);
        assert_eq!(i.width(), 3);
    }

    #[test]
    fn edges_are_symmetric_and_deduped() {
        let mut i = intension();
        assert!(i.has_edge(0, 1));
        assert!(i.has_edge(1, 0));
        assert!(!i.has_edge(0, 2));
        i.add_edge(0, 1);
        assert_eq!(i.edges.len(), 2);
    }

    #[test]
    fn family_slots_sorted_by_level() {
        let i = Intension::new(vec![
            SlotDef::base("Grad", ClassId(0)),
            SlotDef::base("TA", ClassId(1)),
            SlotDef::base("Grad_1", ClassId(0)),
            SlotDef::base("Grad_2", ClassId(0)),
        ]);
        assert_eq!(i.slots_of_family("Grad"), vec![0, 2, 3]);
        assert_eq!(i.slots_of_family("TA"), vec![1]);
    }

    #[test]
    fn type_name_rendering() {
        let i = intension();
        assert_eq!(i.type_name(PatternType(0b011)), "(Teacher, Section)");
        assert_eq!(i.type_name(PatternType(0b111)), "(Teacher, Section, Course)");
    }

    #[test]
    fn attr_restriction() {
        let mut s = SlotDef::base("Teacher", ClassId(0));
        assert!(s.attr_accessible("Name"));
        s.attrs = Some(vec!["SS".into(), "Degree".into()]);
        assert!(s.attr_accessible("SS"));
        assert!(!s.attr_accessible("Name"));
    }
}
