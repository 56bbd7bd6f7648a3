//! Tokens of the OQL / rule-language surface syntax.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // paired delimiters & comparison variants are self-describing
pub enum Token {
    /// Identifier: class, attribute, subdatabase or operation name.
    /// Identifiers may contain `#` (the paper's `c#`, `section#`).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// Single-quoted string literal.
    Str(String),
    /// `*` — the association pattern operator.
    Star,
    /// `!` — the non-association pattern operator.
    Bang,
    /// `{` `}` — association pattern subexpressions (paper §5.1).
    LBrace,
    RBrace,
    /// `[` `]` — intra-class conditions / attribute lists.
    LBracket,
    RBracket,
    /// `(` `)`.
    LParen,
    RParen,
    /// `:` — subdatabase qualification (`Suggest_offer:Course`).
    Colon,
    /// `,`.
    Comma,
    /// `.` — attribute access in WHERE (`Teacher.name`).
    Dot,
    /// `^` — the iteration ("superscript") marker of §5.2: `^*` or `^3`.
    Caret,
    /// `-` — unary minus in literals.
    Minus,
    /// Comparison operators.
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    /// Keywords (case-insensitive in the source).
    If,
    Then,
    Context,
    Where,
    Select,
    And,
    Or,
    Not,
    By,
    /// End of input.
    Eof,
}

impl Token {
    /// Keyword for an identifier spelling, if any.
    pub fn keyword(s: &str) -> Option<Token> {
        [
            ("if", Token::If),
            ("then", Token::Then),
            ("context", Token::Context),
            ("where", Token::Where),
            ("select", Token::Select),
            ("and", Token::And),
            ("or", Token::Or),
            ("not", Token::Not),
            ("by", Token::By),
        ]
        .into_iter()
        .find(|(k, _)| s.eq_ignore_ascii_case(k))
        .map(|(_, t)| t)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Real(r) => write!(f, "{r}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Star => f.write_str("*"),
            Token::Bang => f.write_str("!"),
            Token::LBrace => f.write_str("{"),
            Token::RBrace => f.write_str("}"),
            Token::LBracket => f.write_str("["),
            Token::RBracket => f.write_str("]"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Colon => f.write_str(":"),
            Token::Comma => f.write_str(","),
            Token::Dot => f.write_str("."),
            Token::Caret => f.write_str("^"),
            Token::Minus => f.write_str("-"),
            Token::Eq => f.write_str("="),
            Token::Neq => f.write_str("!="),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
            Token::If => f.write_str("if"),
            Token::Then => f.write_str("then"),
            Token::Context => f.write_str("context"),
            Token::Where => f.write_str("where"),
            Token::Select => f.write_str("select"),
            Token::And => f.write_str("and"),
            Token::Or => f.write_str("or"),
            Token::Not => f.write_str("not"),
            Token::By => f.write_str("by"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// A token with its source span (for error messages and diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub tok: Token,
    /// Start byte offset in the source.
    pub at: usize,
    /// End byte offset (exclusive).
    pub end: usize,
}
