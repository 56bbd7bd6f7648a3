//! Recursive-descent parser for OQL query blocks.
//!
//! Grammar (paper §3.2, §5; `^*`/`^N` replaces the superscript iteration
//! sign):
//!
//! ```text
//! query    := 'context' expr [where] [select] ops
//! expr     := seq [ '^' ('*' | INT) ]
//! seq      := item (('*' | '!') item)*
//! item     := classref [ '[' pred ']' ]  |  '{' seq '}'
//! classref := IDENT [ ':' IDENT ]
//! pred     := orp ; orp := andp ('or' andp)* ; andp := unit ('and' unit)*
//! unit     := 'not' unit | '(' pred ')' | IDENT cmp literal
//! where    := 'where' cond ('and' cond)*
//! cond     := AGG '(' classref ['.' IDENT] ['by' classref] ')' cmp literal
//!           | classref '.' IDENT cmp (classref '.' IDENT | literal)
//! select   := 'select' sitem (',' sitem)*
//! sitem    := classref '[' IDENT (',' IDENT)* ']' | classref | IDENT
//! ops      := IDENT*            -- 'display', 'print', or registered names
//! ```
//!
//! Note: in `select name, section# display`, the missing comma before
//! `display` ends the Select subclause; the trailing identifiers form the
//! Operation clause.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::lex;
use crate::token::{Spanned, Token};
use dood_core::diag::Span;

/// Parser state over a token stream.
///
/// Alongside the AST the parser records *span side-tables*: the source span
/// of every context class occurrence (in textual order, matching the
/// flatten order used by resolution) and of every WHERE condition. The
/// static analyzer uses these to anchor diagnostics without weighing the
/// AST down with positions.
pub struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    src: String,
    occ_spans: Vec<Span>,
    where_spans: Vec<Span>,
}

impl Parser {
    /// Create a parser for a source string.
    pub fn new(src: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            toks: lex(src).map_err(|e| e.located(src))?,
            pos: 0,
            src: src.to_string(),
            occ_spans: Vec::new(),
            where_spans: Vec::new(),
        })
    }

    /// The current token.
    pub fn peek(&self) -> &Token {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    /// Current source offset (for error reporting).
    pub fn at(&self) -> usize {
        self.toks[self.pos].at
    }

    /// End offset of the most recently consumed token.
    pub fn prev_end(&self) -> usize {
        self.toks[self.pos.saturating_sub(1)].end
    }

    /// The span from `start` (a prior [`Parser::at`] mark) to the end of
    /// the last consumed token.
    pub fn span_since(&self, start: usize) -> Span {
        Span::new(start, self.prev_end().max(start))
    }

    /// The source text being parsed.
    pub fn src(&self) -> &str {
        &self.src
    }

    /// Fill line/column on an error using this parser's source.
    pub fn locate(&self, e: ParseError) -> ParseError {
        e.located(&self.src)
    }

    /// Spans of context class occurrences recorded so far, in textual
    /// (flatten) order.
    pub fn occurrence_spans(&self) -> &[Span] {
        &self.occ_spans
    }

    /// Spans of WHERE conditions recorded so far, in textual order.
    pub fn where_spans(&self) -> &[Span] {
        &self.where_spans
    }

    /// Advance past the current token (never past the end of input).
    pub fn advance(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    /// Advance and return a copy of the consumed token.
    pub fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        self.advance();
        t
    }

    /// Consume the expected token or error.
    pub fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.peek() == t {
            self.advance();
            Ok(())
        } else {
            Err(ParseError::new(self.at(), format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    /// Consume an identifier.
    pub fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Token::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(ParseError::new(self.at(), format!("expected identifier, found `{other}`"))),
        }
    }

    /// Whether all input was consumed.
    pub fn at_eof(&self) -> bool {
        matches!(self.peek(), Token::Eof)
    }

    // --------------------------------------------------------------
    // Entry points
    // --------------------------------------------------------------

    /// Parse a complete query block.
    pub fn parse_query(src: &str) -> Result<Query, ParseError> {
        let mut p = Parser::new(src)?;
        let q = p.query().map_err(|e| p.locate(e))?;
        if !p.at_eof() {
            return Err(p.locate(ParseError::new(p.at(), format!("unexpected `{}`", p.peek()))));
        }
        Ok(q)
    }

    /// Parse just a context expression (used by the rule parser).
    pub fn parse_context_expr(src: &str) -> Result<ContextExpr, ParseError> {
        let mut p = Parser::new(src)?;
        let e = p.context_expr().map_err(|e| p.locate(e))?;
        if !p.at_eof() {
            return Err(p.locate(ParseError::new(p.at(), format!("unexpected `{}`", p.peek()))));
        }
        Ok(e)
    }

    /// Parse the body of a query after `context` has been consumed
    /// (shared with the rule parser, whose IF clause is a context clause).
    pub fn query(&mut self) -> Result<Query, ParseError> {
        self.expect(&Token::Context)?;
        let context = self.context_expr()?;
        let where_ = if matches!(self.peek(), Token::Where) {
            self.advance();
            self.where_conds()?
        } else {
            Vec::new()
        };
        let select = if matches!(self.peek(), Token::Select) {
            self.advance();
            self.select_items()?
        } else {
            Vec::new()
        };
        let mut ops = Vec::new();
        while let Token::Ident(_) = self.peek() {
            ops.push(self.ident()?);
        }
        Ok(Query { context, where_, select, ops })
    }

    // --------------------------------------------------------------
    // Context expressions
    // --------------------------------------------------------------

    /// Parse `seq [^closure]`.
    pub fn context_expr(&mut self) -> Result<ContextExpr, ParseError> {
        let seq = self.seq()?;
        let closure = if matches!(self.peek(), Token::Caret) {
            self.advance();
            match self.bump() {
                Token::Star => Some(ClosureSpec { iterations: None }),
                Token::Int(n) if n > 0 => Some(ClosureSpec { iterations: Some(n as u32) }),
                other => {
                    return Err(ParseError::new(
                        self.at(),
                        format!("expected `*` or a positive iteration count after `^`, found `{other}`"),
                    ))
                }
            }
        } else {
            None
        };
        Ok(ContextExpr { seq, closure })
    }

    fn seq(&mut self) -> Result<Seq, ParseError> {
        let first = Box::new(self.item()?);
        let mut rest = Vec::new();
        loop {
            let op = match self.peek() {
                Token::Star => {
                    // `^*` is handled by context_expr; a `*` directly before
                    // EOF/clause keywords would be a syntax error caught by
                    // item().
                    PatOp::Assoc
                }
                Token::Bang => PatOp::NonAssoc,
                _ => break,
            };
            self.advance();
            rest.push((op, self.item()?));
        }
        Ok(Seq { first, rest })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        match self.peek() {
            Token::LBrace => {
                self.advance();
                let inner = self.seq()?;
                self.expect(&Token::RBrace)?;
                Ok(Item::Group(inner))
            }
            Token::Ident(_) => {
                let start = self.at();
                let class = self.classref()?;
                let cond = if matches!(self.peek(), Token::LBracket) {
                    self.advance();
                    let p = self.pred()?;
                    self.expect(&Token::RBracket)?;
                    Some(p)
                } else {
                    None
                };
                self.occ_spans.push(self.span_since(start));
                Ok(Item::Class { class, cond })
            }
            other => Err(ParseError::new(
                self.at(),
                format!("expected a class name or `{{`, found `{other}`"),
            )),
        }
    }

    /// Parse a possibly-qualified class reference.
    pub fn classref(&mut self) -> Result<ClassRef, ParseError> {
        let first = self.ident()?;
        if matches!(self.peek(), Token::Colon) {
            self.advance();
            let name = self.ident()?;
            Ok(ClassRef { subdb: Some(first), name })
        } else {
            Ok(ClassRef { subdb: None, name: first })
        }
    }

    // --------------------------------------------------------------
    // Predicates
    // --------------------------------------------------------------

    fn pred(&mut self) -> Result<Pred, ParseError> {
        let mut left = self.pred_and()?;
        while matches!(self.peek(), Token::Or) {
            self.advance();
            let right = self.pred_and()?;
            left = Pred::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_and(&mut self) -> Result<Pred, ParseError> {
        let mut left = self.pred_unit()?;
        while matches!(self.peek(), Token::And) {
            self.advance();
            let right = self.pred_unit()?;
            left = Pred::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn pred_unit(&mut self) -> Result<Pred, ParseError> {
        match self.peek() {
            Token::Not => {
                self.advance();
                Ok(Pred::Not(Box::new(self.pred_unit()?)))
            }
            Token::LParen => {
                self.advance();
                let p = self.pred()?;
                self.expect(&Token::RParen)?;
                Ok(p)
            }
            Token::Ident(_) => {
                let attr = self.ident()?;
                let op = self.cmp_op()?;
                let value = self.literal()?;
                Ok(Pred::Cmp { attr, op, value })
            }
            other => Err(ParseError::new(
                self.at(),
                format!("expected a predicate, found `{other}`"),
            )),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Token::Eq => CmpOp::Eq,
            Token::Neq => CmpOp::Neq,
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            other => {
                return Err(ParseError::new(
                    self.at(),
                    format!("expected a comparison operator, found `{other}`"),
                ))
            }
        };
        self.advance();
        Ok(op)
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        let negate = if matches!(self.peek(), Token::Minus) {
            self.advance();
            true
        } else {
            false
        };
        match self.bump() {
            Token::Int(i) => Ok(Literal::Int(if negate { -i } else { i })),
            Token::Real(r) => Ok(Literal::Real(if negate { -r } else { r })),
            Token::Str(s) if !negate => Ok(Literal::Str(s)),
            other => Err(ParseError::new(self.at(), format!("expected a literal, found `{other}`"))),
        }
    }

    // --------------------------------------------------------------
    // WHERE subclause
    // --------------------------------------------------------------

    /// Parse `cond (and cond)*` of a WHERE subclause.
    pub fn where_conds(&mut self) -> Result<Vec<WhereCond>, ParseError> {
        let start = self.at();
        let mut out = vec![self.where_cond()?];
        self.where_spans.push(self.span_since(start));
        while matches!(self.peek(), Token::And) {
            self.advance();
            let start = self.at();
            out.push(self.where_cond()?);
            self.where_spans.push(self.span_since(start));
        }
        Ok(out)
    }

    fn where_cond(&mut self) -> Result<WhereCond, ParseError> {
        // Aggregation: IDENT '(' … — distinguished by the '('.
        let agg = match (self.peek(), self.peek2()) {
            (Token::Ident(name), Token::LParen) => AggFunc::from_name(name),
            _ => None,
        };
        if let Some(func) = agg {
            self.advance(); // func name
            self.advance(); // (
            let target = self.classref()?;
            let attr = if matches!(self.peek(), Token::Dot) {
                self.advance();
                Some(self.ident()?)
            } else {
                None
            };
            let by = if matches!(self.peek(), Token::By) {
                self.advance();
                Some(self.classref()?)
            } else {
                None
            };
            self.expect(&Token::RParen)?;
            let op = self.cmp_op()?;
            let value = self.literal()?;
            if func != AggFunc::Count && attr.is_none() {
                return Err(ParseError::new(
                    self.at(),
                    "SUM/AVG/MIN/MAX require an attribute (Class.attr)",
                ));
            }
            return Ok(WhereCond::Agg { func, target, attr, by, op, value });
        }
        // Inter-class or attribute/literal comparison: classref '.' attr …
        let class = self.classref()?;
        self.expect(&Token::Dot)?;
        let attr = self.ident()?;
        let op = self.cmp_op()?;
        let right = match self.peek() {
            Token::Int(_) | Token::Real(_) | Token::Str(_) | Token::Minus => {
                CmpRhs::Lit(self.literal()?)
            }
            Token::Ident(_) => {
                let rc = self.classref()?;
                self.expect(&Token::Dot)?;
                let ra = self.ident()?;
                CmpRhs::Attr(rc, ra)
            }
            other => {
                return Err(ParseError::new(
                    self.at(),
                    format!("expected a literal or Class.attr, found `{other}`"),
                ))
            }
        };
        Ok(WhereCond::Cmp { left: (class, attr), op, right })
    }

    // --------------------------------------------------------------
    // SELECT subclause
    // --------------------------------------------------------------

    fn select_items(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut out = vec![self.select_item()?];
        while matches!(self.peek(), Token::Comma) {
            self.advance();
            out.push(self.select_item()?);
        }
        Ok(out)
    }

    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        let first = self.classref()?;
        if matches!(self.peek(), Token::LBracket) {
            self.advance();
            let mut attrs = vec![self.ident()?];
            while matches!(self.peek(), Token::Comma) {
                self.advance();
                attrs.push(self.ident()?);
            }
            self.expect(&Token::RBracket)?;
            Ok(SelectItem::ClassAttrs(first, attrs))
        } else if first.subdb.is_some() {
            Ok(SelectItem::Class(first))
        } else {
            // A bare identifier: attribute or class, resolved later. We
            // default to Attr; resolution promotes to Class when the name
            // names a slot.
            Ok(SelectItem::Attr(first.name))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_3_1() {
        // Paper Query 3.1.
        let q = Parser::parse_query("context Teacher * Section select name, section# display")
            .unwrap();
        assert_eq!(q.context.seq.class_count(), 2);
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.ops, vec!["display"]);
        assert!(q.where_.is_empty());
    }

    #[test]
    fn query_3_2_intra_conditions() {
        // Paper Query 3.2.
        let q = Parser::parse_query(
            "context Department * Course [c# >= 6000 and c# < 7000] * Section \
             select name, title, textbook print",
        )
        .unwrap();
        assert_eq!(q.context.seq.class_count(), 3);
        let (_, item) = &q.context.seq.rest[0];
        match item {
            Item::Class { class, cond } => {
                assert_eq!(class.name, "Course");
                assert!(matches!(cond, Some(Pred::And(_, _))));
            }
            _ => panic!("expected class item"),
        }
        assert_eq!(q.ops, vec!["print"]);
    }

    #[test]
    fn rule_r2_where_aggregate() {
        let q = Parser::parse_query(
            "context Department [name = 'CIS'] * Course * Section * Student \
             where count(Student by Course) > 39",
        )
        .unwrap();
        match &q.where_[0] {
            WhereCond::Agg { func, target, by, op, value, attr } => {
                assert_eq!(*func, AggFunc::Count);
                assert_eq!(target.name, "Student");
                assert_eq!(by.as_ref().unwrap().name, "Course");
                assert_eq!(*op, CmpOp::Gt);
                assert_eq!(*value, Literal::Int(39));
                assert!(attr.is_none());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn qualified_classes_and_select_brackets() {
        // Paper Query 4.1 (reformulated textual syntax).
        let q = Parser::parse_query(
            "context Faculty * Advising * May_teach:TA [GPA < 3.5] \
             select TA[name], Faculty[name] display",
        )
        .unwrap();
        match &q.select[0] {
            SelectItem::ClassAttrs(c, attrs) => {
                assert_eq!(c.name, "TA");
                assert_eq!(attrs, &vec!["name".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let last = &q.context.seq.rest[1].1;
        match last {
            Item::Class { class, .. } => {
                assert_eq!(class.subdb.as_deref(), Some("May_teach"));
                assert_eq!(class.name, "TA");
            }
            _ => panic!("expected class"),
        }
    }

    #[test]
    fn braces_query_5_1() {
        let q = Parser::parse_query(
            "context {{Grad} * Advising} * Faculty select Grad[SS], Faculty[name] display",
        )
        .unwrap();
        match &*q.context.seq.first {
            Item::Group(outer) => match &*outer.first {
                Item::Group(inner) => assert_eq!(inner.class_count(), 1),
                _ => panic!("expected nested group"),
            },
            _ => panic!("expected group"),
        }
    }

    #[test]
    fn closure_markers() {
        let e = Parser::parse_context_expr("Grad * TA * Teacher * Section * Student ^*").unwrap();
        assert_eq!(e.closure, Some(ClosureSpec { iterations: None }));
        let e2 = Parser::parse_context_expr("A * B * C ^3").unwrap();
        assert_eq!(e2.closure, Some(ClosureSpec { iterations: Some(3) }));
        assert!(Parser::parse_context_expr("A * B ^0").is_err());
    }

    #[test]
    fn non_association_operator() {
        let e = Parser::parse_context_expr("Teacher ! Section").unwrap();
        assert_eq!(e.seq.rest[0].0, PatOp::NonAssoc);
    }

    #[test]
    fn inter_class_comparison() {
        let q = Parser::parse_query(
            "context A * B where A.x = B.y and A.z > 3",
        )
        .unwrap();
        assert_eq!(q.where_.len(), 2);
        assert!(matches!(&q.where_[0], WhereCond::Cmp { right: CmpRhs::Attr(_, _), .. }));
        assert!(matches!(&q.where_[1], WhereCond::Cmp { right: CmpRhs::Lit(_), .. }));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Parser::parse_query("context A * B }").is_err());
        assert!(Parser::parse_query("A * B").is_err()); // missing 'context'
        assert!(Parser::parse_context_expr("A * ").is_err());
        assert!(Parser::parse_context_expr("{A * B").is_err());
    }

    #[test]
    fn select_stops_without_comma() {
        let q = Parser::parse_query("context A * B select x display count").unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.ops, vec!["display", "count"]);
    }

    #[test]
    fn pred_precedence_or_over_and() {
        let q = Parser::parse_query("context A [x = 1 or y = 2 and z = 3]").unwrap();
        match &*q.context.seq.first {
            Item::Class { cond: Some(Pred::Or(_, rhs)), .. } => {
                assert!(matches!(**rhs, Pred::And(_, _)));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn not_and_parens() {
        let q = Parser::parse_query("context A [not (x = 1)]").unwrap();
        match &*q.context.seq.first {
            Item::Class { cond: Some(Pred::Not(_)), .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
