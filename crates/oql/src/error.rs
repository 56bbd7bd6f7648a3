//! OQL error types.

use dood_core::diag::line_col;
use dood_core::error::ResolveError;
use std::fmt;

/// A syntax error with source position. `line`/`col` are 1-based and filled
/// by [`ParseError::located`]; they stay 0 (unknown) for errors created
/// without source access, in which case the byte offset is reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the source.
    pub at: usize,
    /// Message.
    pub msg: String,
    /// 1-based line (0 = unknown).
    pub line: u32,
    /// 1-based column (0 = unknown).
    pub col: u32,
}

impl ParseError {
    /// New parse error at a byte offset (position not yet resolved).
    pub fn new(at: usize, msg: impl Into<String>) -> Self {
        ParseError { at, msg: msg.into(), line: 0, col: 0 }
    }

    /// Resolve `at` to a line/column against the source text.
    pub fn located(mut self, src: &str) -> Self {
        let (line, col) = line_col(src, self.at);
        self.line = line;
        self.col = col;
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "syntax error at line {}, column {}: {}", self.line, self.col, self.msg)
        } else {
            write!(f, "syntax error at offset {}: {}", self.at, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

/// Any error raised while preparing or executing a query.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum QueryError {
    /// Syntax error.
    Parse(ParseError),
    /// Name/edge resolution error (unknown class, ambiguity, …).
    Resolve(ResolveError),
    /// Reference to a subdatabase that is not registered.
    UnknownSubdb(String),
    /// Reference to a class that is not a slot of the named subdatabase.
    UnknownSubdbClass { subdb: String, class: String },
    /// A select/where item could not be attributed to a unique class
    /// (paper §4.3: qualify the attribute with its class name).
    AmbiguousAttribute(String),
    /// The expression has a structural problem (e.g. closure over a
    /// non-cyclic expression).
    Semantic(String),
    /// An operation name is not registered.
    UnknownOperation(String),
    /// A non-closure context with more class occurrences than a pattern
    /// type can describe ([`crate::resolve::MAX_CONTEXT_SLOTS`]).
    ContextTooWide { slots: usize, max: usize },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Resolve(e) => write!(f, "{e}"),
            QueryError::UnknownSubdb(s) => write!(f, "unknown subdatabase `{s}`"),
            QueryError::UnknownSubdbClass { subdb, class } => {
                write!(f, "subdatabase `{subdb}` has no class `{class}`")
            }
            QueryError::AmbiguousAttribute(a) => write!(
                f,
                "attribute `{a}` is ambiguous; qualify it as Class[{a}]"
            ),
            QueryError::Semantic(m) => write!(f, "{m}"),
            QueryError::UnknownOperation(o) => write!(f, "unknown operation `{o}`"),
            QueryError::ContextTooWide { slots, max } => write!(
                f,
                "context expression has {slots} class occurrences; at most {max} are supported \
                 outside a closure"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<ResolveError> for QueryError {
    fn from(e: ResolveError) -> Self {
        QueryError::Resolve(e)
    }
}
