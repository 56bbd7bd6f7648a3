//! Error types for the core data model.

use crate::ids::{AssocId, ClassId, Oid};
use std::fmt;

/// Errors arising from schema construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SchemaError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// A class name was not found.
    UnknownClass(String),
    /// An association name was not found on the given class.
    UnknownAssoc { class: String, assoc: String },
    /// Two links emanating from the same class share a name.
    DuplicateAssocName { class: String, assoc: String },
    /// A D-class may not have outgoing associations.
    DClassWithOutgoingAssoc { class: String },
    /// Generalization must connect E-classes.
    GeneralizationOnDClass { class: String },
    /// The generalization graph must be acyclic.
    GeneralizationCycle { class: String },
    /// An aggregation to a D-class (descriptive attribute) must emanate from
    /// an E-class.
    AttributeOnDClass { class: String },
    /// Association endpoints must exist.
    DanglingAssoc { assoc: String },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateClass(n) => write!(f, "duplicate class name `{n}`"),
            SchemaError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            SchemaError::UnknownAssoc { class, assoc } => {
                write!(f, "class `{class}` has no association `{assoc}`")
            }
            SchemaError::DuplicateAssocName { class, assoc } => {
                write!(f, "class `{class}` declares association `{assoc}` twice")
            }
            SchemaError::DClassWithOutgoingAssoc { class } => {
                write!(f, "D-class `{class}` may not have outgoing associations")
            }
            SchemaError::GeneralizationOnDClass { class } => {
                write!(f, "generalization involving D-class `{class}` is not allowed")
            }
            SchemaError::GeneralizationCycle { class } => {
                write!(f, "generalization cycle through class `{class}`")
            }
            SchemaError::AttributeOnDClass { class } => {
                write!(f, "descriptive attribute declared on D-class `{class}`")
            }
            SchemaError::DanglingAssoc { assoc } => {
                write!(f, "association `{assoc}` references a missing class")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// Errors arising from resolving an association-pattern edge between two
/// classes (paper §3.2: inheritance along generalization paths, ambiguity
/// when "a class inherits the status of being related to another class along
/// different generalization paths").
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ResolveError {
    /// The two classes are not associated, directly or through inheritance.
    NotAssociated { from: String, to: String },
    /// More than one distinct inheritance path relates the classes; the
    /// query must name an intermediate class to disambiguate (paper's
    /// `TA * Section` example).
    Ambiguous {
        from: String,
        to: String,
        /// Human-readable descriptions of the candidate paths.
        candidates: Vec<String>,
    },
    /// A named class does not exist.
    UnknownClass(String),
    /// A named attribute does not exist on (or is not inherited by) a class.
    UnknownAttribute { class: String, attr: String },
    /// An attribute exists but was projected away by a rule's THEN clause
    /// (paper §4.2: "the attribute Name will not be accessible").
    AttributeNotAccessible { class: String, attr: String },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NotAssociated { from, to } => {
                write!(f, "classes `{from}` and `{to}` are not associated")
            }
            ResolveError::Ambiguous { from, to, candidates } => {
                write!(
                    f,
                    "association between `{from}` and `{to}` is ambiguous; \
                     candidates: {}; name an intermediate class to disambiguate",
                    candidates.join(", ")
                )
            }
            ResolveError::UnknownClass(n) => write!(f, "unknown class `{n}`"),
            ResolveError::UnknownAttribute { class, attr } => {
                write!(f, "class `{class}` has no attribute `{attr}`")
            }
            ResolveError::AttributeNotAccessible { class, attr } => {
                write!(f, "attribute `{attr}` of `{class}` is not accessible here")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// Errors raised by instance-level (extensional) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum StoreError {
    /// The OID does not denote a live object.
    NoSuchObject(Oid),
    /// Objects are created only in E-classes; this class is a D-class.
    NotEntityClass(ClassId),
    /// Every object identifier has been issued.
    OidsExhausted,
    /// The association does not exist.
    NoSuchAssoc(AssocId),
    /// The objects' classes do not match the association's endpoints.
    AssocEndpointMismatch { assoc: AssocId, from: Oid, to: Oid },
    /// A single-valued association already carries a link from this object.
    CardinalityViolation { assoc: AssocId, from: Oid },
    /// Attempted to set an attribute value of the wrong type.
    TypeMismatch { class: ClassId, attr: AssocId },
    /// A value was written to an attribute not defined on the object's class.
    NoSuchAttribute { class: ClassId, attr: String },
    /// An object may have at most one perspective object per subclass.
    DuplicateSpecialization { oid: Oid, subclass: ClassId },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchObject(oid) => write!(f, "no such object {oid}"),
            StoreError::NotEntityClass(c) => {
                write!(f, "class {c} is not an entity class, so it has no objects of its own")
            }
            StoreError::OidsExhausted => write!(f, "no object identifier is left to issue"),
            StoreError::NoSuchAssoc(a) => write!(f, "no such association {a}"),
            StoreError::AssocEndpointMismatch { assoc, from, to } => write!(
                f,
                "objects {from} -> {to} do not match endpoints of association {assoc}"
            ),
            StoreError::CardinalityViolation { assoc, from } => write!(
                f,
                "association {assoc} is single-valued but {from} already has a link"
            ),
            StoreError::TypeMismatch { class, attr } => {
                write!(f, "type mismatch writing attribute {attr} of class {class}")
            }
            StoreError::NoSuchAttribute { class, attr } => {
                write!(f, "class {class} has no attribute `{attr}`")
            }
            StoreError::DuplicateSpecialization { oid, subclass } => write!(
                f,
                "object {oid} already has a perspective object in subclass {subclass}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}
