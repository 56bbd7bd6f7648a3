//! Abstract syntax of deductive rules (paper §4.2).
//!
//! ```text
//! if context <association pattern expression>
//!    [where <conditions>]
//! then <subdatabase-id> ( <target> [, <target>]* )
//! ```
//!
//! A target is a class occurrence of the IF clause, optionally with an
//! attribute list in brackets ("if a target class … is to inherit only a
//! subset of the descriptive attributes of its source class, then these
//! attributes should be listed in brackets"), or a *family* `C_*` denoting
//! all closure levels of `C` (the paper writes `Grad*`; its intension "is
//! determined at runtime").

use dood_oql::ast::{ClassRef, ContextExpr, WhereCond};
use std::fmt;

/// One item of a THEN clause's argument list.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetItem {
    /// A class occurrence, with an optional inherited-attribute restriction.
    Class {
        /// The class (matched against the context intension's slot names).
        class: ClassRef,
        /// Retained attributes; `None` = all (the paper's default).
        attrs: Option<Vec<String>>,
    },
    /// `C_*`: every closure level of family `C` (paper R6's `Grad*`).
    Family {
        /// The family's base name.
        base: String,
    },
}

impl fmt::Display for TargetItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetItem::Class { class, attrs } => {
                write!(f, "{class}")?;
                if let Some(a) = attrs {
                    write!(f, "[{}]", a.join(", "))?;
                }
                Ok(())
            }
            TargetItem::Family { base } => write!(f, "{base}_*"),
        }
    }
}

/// A deductive rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name (unique within a rule set; e.g. "R2").
    pub name: String,
    /// The IF clause's context expression.
    pub context: ContextExpr,
    /// The WHERE subclause conditions.
    pub where_: Vec<WhereCond>,
    /// Name of the derived (target) subdatabase.
    pub target_subdb: String,
    /// The target classes retained in the derived subdatabase.
    pub targets: Vec<TargetItem>,
}

impl Rule {
    /// The names of derived subdatabases this rule *reads* (qualified class
    /// references in its IF clause and WHERE subclause).
    pub fn reads(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.context.seq.for_each_class(&mut |c| out.extend(c.subdb.clone()));
        let conds = self.where_.iter().flat_map(WhereCond::classes);
        out.extend(conds.filter_map(|c| c.subdb.clone()));
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule {}: if context … then {}(", self.name, self.target_subdb)?;
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_oql::parser::Parser;

    #[test]
    fn reads_collects_qualified_subdbs() {
        let context =
            Parser::parse_context_expr("TA * Teacher * Section * Suggest_offer:Course").unwrap();
        let rule = Rule {
            name: "R4".into(),
            context,
            where_: vec![],
            target_subdb: "May_teach".into(),
            targets: vec![],
        };
        assert_eq!(rule.reads(), vec!["Suggest_offer".to_string()]);
    }

    #[test]
    fn reads_deduplicates() {
        let context = Parser::parse_context_expr("S:A * S:B").unwrap();
        let rule = Rule {
            name: "r".into(),
            context,
            where_: vec![],
            target_subdb: "T".into(),
            targets: vec![],
        };
        assert_eq!(rule.reads(), vec!["S".to_string()]);
    }

    #[test]
    fn display_form() {
        let context = Parser::parse_context_expr("A * B").unwrap();
        let rule = Rule {
            name: "R1".into(),
            context,
            where_: vec![],
            target_subdb: "X".into(),
            targets: vec![
                TargetItem::Class {
                    class: ClassRef::base("A"),
                    attrs: Some(vec!["ss".into()]),
                },
                TargetItem::Family { base: "B".into() },
            ],
        };
        assert_eq!(rule.to_string(), "rule R1: if context … then X(A[ss], B_*)");
    }
}
