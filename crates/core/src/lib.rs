//! # dood-core
//!
//! The structural layer of **dood**, a reproduction of *"A Rule-based
//! Language for Deductive Object-Oriented Databases"* (Alashqur, Su & Lam,
//! ICDE 1990): the OSAM* object-oriented semantic association model and the
//! subdatabase algebra the deductive language is closed under.
//!
//! * [`schema`] — classes (E/D), the five association types, generalization
//!   hierarchies with inheritance and ambiguity resolution, S-diagrams.
//! * [`subdb`] — subdatabases: intensional patterns, extensional patterns
//!   with Null components, pattern types, subsumption, the induced
//!   generalization bookkeeping, and the derived-subdatabase registry.
//! * [`value`] / [`ids`] — D-class values and identifier newtypes.
//! * [`fxhash`] — in-tree Fx hashing for integer-keyed hot maps.
//! * [`rng`] / [`propcheck`] — in-tree seedable PRNG and property-test
//!   driver, keeping the workspace free of external dependencies.
//! * [`diag`] — source spans, severities, and the plain-text diagnostic
//!   renderer shared by the parsers, the static analyzer, and `doodlint`.
//! * [`obs`] — the hermetic observability layer: span tracing, metrics,
//!   and the EXPLAIN ANALYZE profile trees rendered by `doodprof`.

#![warn(missing_docs)]

pub mod diag;
pub mod error;
pub mod fxhash;
pub mod ids;
pub mod obs;
pub mod propcheck;
pub mod rng;
pub mod schema;
pub mod subdb;
pub mod value;

pub use error::{ResolveError, SchemaError, StoreError};
pub use ids::{AssocId, ClassId, Oid, OidGen};
pub use value::{DType, Value};
