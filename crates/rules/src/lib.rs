//! # dood-rules
//!
//! The deductive rule language of Alashqur, Su & Lam over the `dood` object
//! store and OQL: `IF context … THEN Subdb(Class, …)` rules that derive new
//! subdatabases (closed under the language), induced generalization
//! bookkeeping, multi-rule union semantics, backward and forward chaining,
//! and the result-oriented control strategy of §6 (with the POSTGRES
//! rule-oriented strategy implemented for comparison).

#![warn(missing_docs)]

pub mod absint;
pub mod analyze;
pub mod ast;
pub mod depgraph;
pub mod derive;
pub mod engine;
pub mod error;
pub mod maintain;
pub mod parser;
pub mod program;

pub use absint::{analyze_bounds, Analysis, CardEnv, RuleBounds};
pub use analyze::analyze;
pub use ast::{Rule, TargetItem};
pub use depgraph::DepGraph;
pub use derive::{apply_rule, eval_rule_context, project_targets};
pub use maintain::{
    delta_apply, dirty_closure, plan_for, seed_cache, DeltaOutcome, MaintainPlan, RuleCache,
};
pub use engine::{ChainStrategy, ControlMode, EvalPolicy, RuleEngine};
pub use error::RuleError;
pub use parser::{parse_rule, parse_rule_spanned, RuleSpans};
pub use program::{Program, ProgramQuery, ProgramRule, SchemaRef};
