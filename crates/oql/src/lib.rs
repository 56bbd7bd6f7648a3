//! # dood-oql
//!
//! OQL — the object-oriented query language of Alashqur, Su & Lam — over the
//! `dood` object store: association pattern expressions with the `*` and `!`
//! operators, intra-class conditions, brace subexpressions with subsumption
//! (outer-join-like retention), WHERE aggregation (`COUNT … BY …`), SELECT
//! projection, tabular `display`/`print`, and cyclic iteration / transitive
//! closure (`^*`, `^N`).
//!
//! Pipeline: [`parser::Parser`] → [`resolve::resolve_context`] →
//! [`plan`] (compiled, cost-ordered join pipelines) → [`eval::Evaluator`]
//! → [`wherec::apply_where`] → [`table::build_table`] → [`engine::Oql`]
//! operations.

#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod printer;
pub mod resolve;
pub mod table;
pub mod token;
pub mod wherec;

pub use engine::{eval_context, Oql, QueryOutput};
pub use eval::{ClosureState, Evaluator, WalkBuffers};
pub use plan::{ClosurePlan, CompiledContext};
pub use error::{ParseError, QueryError};
pub use parser::Parser;
pub use table::Table;
