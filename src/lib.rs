//! # dood — a Deductive Object-Oriented Database
//!
//! A from-scratch Rust reproduction of *"A Rule-based Language for
//! Deductive Object-Oriented Databases"* (A. M. Alashqur, S. Y. W. Su,
//! H. Lam — ICDE 1990).
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`core`] — the OSAM* structural model (classes, the five association
//!   types, generalization/inheritance) and the subdatabase algebra.
//! * [`store`] — the extensional object store: extents, attributes,
//!   association indexes, perspective (identity) links, events.
//! * [`oql`] — the OQL query language: association pattern expressions,
//!   braces, WHERE aggregation, SELECT, display, transitive closure.
//! * [`rules`] — the deductive rule language: `IF … THEN Subdb(…)`,
//!   backward/forward chaining, result-oriented control.
//! * [`datalog`] — a semi-naive Datalog baseline for the evaluation suite.
//! * [`workload`] — generators: the paper's university schema (Fig. 2.1),
//!   its worked-example instances, and CAD/company domains.
//!
//! ## Quickstart
//!
//! ```
//! use dood::rules::RuleEngine;
//! use dood::workload::university;
//!
//! // Build the paper's university database (Fig. 2.1) with a small,
//! // deterministic population.
//! let db = university::populate(university::Size::small(), 42);
//! let mut engine = RuleEngine::new(db);
//!
//! // Rule R1 (paper §4.2): teachers teach courses through sections.
//! engine
//!     .add_rule(
//!         "R1",
//!         "if context Teacher * Section * Course \
//!          then Teacher_course (Teacher, Course)",
//!     )
//!     .unwrap();
//!
//! // Query the derived subdatabase (backward chaining runs R1).
//! let out = engine
//!     .query("context Teacher_course:Teacher * Teacher_course:Course \
//!             select Teacher[name], Course[title] display")
//!     .unwrap();
//! assert!(!out.table.is_empty());
//! ```

pub use dood_core as core;
pub use dood_datalog as datalog;
pub use dood_oql as oql;
pub use dood_rules as rules;
pub use dood_store as store;
pub use dood_workload as workload;
