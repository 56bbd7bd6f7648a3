//! Parser for deductive rules.
//!
//! ```text
//! rule   := 'if' 'context' expr [where] 'then' IDENT '(' target (',' target)* ')' [where]
//! target := classref [ '[' IDENT (',' IDENT)* ']' ]  |  IDENT_ '*'
//! ```
//!
//! The WHERE subclause may appear either between the context expression and
//! `then` (rules R2, R3 in the paper) or after the THEN clause (rule R1's
//! schematic form) — both bind to the IF clause. The family target `C_*`
//! (the paper's `Grad*`) selects every closure level of `C`.

use crate::ast::{Rule, TargetItem};
use dood_core::diag::Span;
use dood_oql::error::ParseError;
use dood_oql::parser::Parser as OqlParser;
use dood_oql::token::Token;

/// Source spans of a parsed rule's parts, for analyzer diagnostics. All
/// offsets are relative to the rule source passed to [`parse_rule_spanned`];
/// embedders (the `.dood` program loader) shift them to absolute positions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSpans {
    /// Context class occurrences, in textual (flatten) order.
    pub occurrences: Vec<Span>,
    /// WHERE conditions, in textual order.
    pub wheres: Vec<Span>,
    /// THEN-clause targets, in order.
    pub targets: Vec<Span>,
    /// The THEN-clause subdatabase name.
    pub target_subdb: Span,
}

impl RuleSpans {
    /// All spans shifted right by `by` bytes.
    pub fn shifted(&self, by: usize) -> RuleSpans {
        RuleSpans {
            occurrences: self.occurrences.iter().map(|s| s.shifted(by)).collect(),
            wheres: self.wheres.iter().map(|s| s.shifted(by)).collect(),
            targets: self.targets.iter().map(|s| s.shifted(by)).collect(),
            target_subdb: self.target_subdb.shifted(by),
        }
    }
}

/// Parse one rule. `name` is the rule's identifier in the rule set.
pub fn parse_rule(name: &str, src: &str) -> Result<Rule, ParseError> {
    parse_rule_spanned(name, src).map(|(r, _)| r)
}

/// Parse one rule, also returning the source spans of its parts.
pub fn parse_rule_spanned(name: &str, src: &str) -> Result<(Rule, RuleSpans), ParseError> {
    let mut p = OqlParser::new(src)?;
    let mut spans = RuleSpans::default();
    let inner = |p: &mut OqlParser, spans: &mut RuleSpans| -> Result<Rule, ParseError> {
        p.expect(&Token::If)?;
        p.expect(&Token::Context)?;
        let context = p.context_expr()?;
        let mut where_ = Vec::new();
        if matches!(p.peek(), Token::Where) {
            p.advance();
            where_ = p.where_conds()?;
        }
        p.expect(&Token::Then)?;
        let subdb_start = p.at();
        let target_subdb = p.ident()?;
        spans.target_subdb = p.span_since(subdb_start);
        p.expect(&Token::LParen)?;
        let mut targets = vec![target_item(p, spans)?];
        while matches!(p.peek(), Token::Comma) {
            p.advance();
            targets.push(target_item(p, spans)?);
        }
        p.expect(&Token::RParen)?;
        if matches!(p.peek(), Token::Where) {
            p.advance();
            let mut more = p.where_conds()?;
            where_.append(&mut more);
        }
        if !p.at_eof() {
            return Err(ParseError::new(p.at(), format!("unexpected `{}`", p.peek())));
        }
        Ok(Rule { name: name.to_string(), context, where_, target_subdb, targets })
    };
    let rule = inner(&mut p, &mut spans).map_err(|e| p.locate(e))?;
    spans.occurrences = p.occurrence_spans().to_vec();
    spans.wheres = p.where_spans().to_vec();
    Ok((rule, spans))
}

fn target_item(p: &mut OqlParser, spans: &mut RuleSpans) -> Result<TargetItem, ParseError> {
    let start = p.at();
    let item = target_item_inner(p)?;
    spans.targets.push(p.span_since(start));
    Ok(item)
}

fn target_item_inner(p: &mut OqlParser) -> Result<TargetItem, ParseError> {
    let class = p.classref()?;
    // `Grad_*` lexes as Ident("Grad_") Star.
    if class.subdb.is_none() && class.name.ends_with('_') && matches!(p.peek(), Token::Star) {
        p.advance();
        let base = class.name.trim_end_matches('_').to_string();
        return Ok(TargetItem::Family { base });
    }
    let attrs = if matches!(p.peek(), Token::LBracket) {
        p.advance();
        let mut out = vec![p.ident()?];
        while matches!(p.peek(), Token::Comma) {
            p.advance();
            out.push(p.ident()?);
        }
        p.expect(&Token::RBracket)?;
        Some(out)
    } else {
        None
    };
    Ok(TargetItem::Class { class, attrs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dood_oql::ast::WhereCond;

    #[test]
    fn rule_r1() {
        // Paper R1: derive Teacher_course through Section.
        let r = parse_rule(
            "R1",
            "if context Teacher * Section * Course then Teacher_course (Teacher, Course)",
        )
        .unwrap();
        assert_eq!(r.target_subdb, "Teacher_course");
        assert_eq!(r.targets.len(), 2);
        assert!(r.where_.is_empty());
        assert_eq!(r.context.seq.class_count(), 3);
    }

    #[test]
    fn rule_r1_attr_restriction() {
        // "then Teacher_course (Teacher [SS, Degree], Course)".
        let r = parse_rule(
            "R1b",
            "if context Teacher * Section * Course \
             then Teacher_course (Teacher [SS, Degree], Course)",
        )
        .unwrap();
        match &r.targets[0] {
            TargetItem::Class { attrs: Some(a), .. } => {
                assert_eq!(a, &vec!["SS".to_string(), "Degree".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn rule_r2_where_before_then() {
        let r = parse_rule(
            "R2",
            "if context Department [name = 'CIS'] * Course * Section * Student \
             where count(Student by Course) > 39 \
             then Suggest_offer (Course)",
        )
        .unwrap();
        assert_eq!(r.where_.len(), 1);
        assert!(matches!(r.where_[0], WhereCond::Agg { .. }));
        assert_eq!(r.target_subdb, "Suggest_offer");
    }

    #[test]
    fn rule_where_after_then() {
        // Paper R3 places the WHERE after the THEN clause.
        let r = parse_rule(
            "R3",
            "if context Department * Suggest_offer:Course \
             then Deps_need_res (Department) \
             where count(Suggest_offer:Course by Department) > 20",
        )
        .unwrap();
        assert_eq!(r.where_.len(), 1);
        assert_eq!(r.reads(), vec!["Suggest_offer".to_string()]);
    }

    #[test]
    fn family_target() {
        // Paper R6: then Grad_teaching_grad (Grad, Grad_*).
        let r = parse_rule(
            "R6",
            "if context Grad * TA * Teacher * Section * Student ^* \
             then Grad_teaching_grad (Grad, Grad_*)",
        )
        .unwrap();
        assert_eq!(r.targets.len(), 2);
        assert!(matches!(&r.targets[1], TargetItem::Family { base } if base == "Grad"));
        assert!(r.context.closure.is_some());
    }

    #[test]
    fn level_target() {
        // Paper R7: first and third levels.
        let r = parse_rule(
            "R7",
            "if context Grad * TA * Teacher * Section * Student ^* \
             then First_and_third (Grad, Grad_2)",
        )
        .unwrap();
        match &r.targets[1] {
            TargetItem::Class { class, .. } => assert_eq!(class.name, "Grad_2"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn syntax_errors() {
        assert!(parse_rule("x", "context A * B then T (A)").is_err()); // missing if
        assert!(parse_rule("x", "if context A * B then T").is_err()); // missing (
        assert!(parse_rule("x", "if context A * B then T (A) extra").is_err());
        assert!(parse_rule("x", "if context A * B then T ()").is_err());
    }
}
