//! The `.dood` rule-program file format.
//!
//! A program bundles a schema reference, deductive rules, queries, and
//! export declarations into one analyzable unit:
//!
//! ```text
//! -- §4 example program
//! schema builtin university
//!
//! rule R1:
//!   if context Teacher * Section * Course
//!   then Teacher_course (Teacher, Course)
//!
//! query Q1:
//!   context Teacher_course:Teacher * Teacher_course:Course display
//!
//! export Teacher_course
//! ```
//!
//! Directives start a line (leading whitespace allowed): `schema builtin
//! <name>`, `schema inline … end` (a [`dood_core::schema::text`] block),
//! `extern <Subdb> …` (externally registered subdatabases), `rule <NAME>:`,
//! `query <NAME>:`, and `export <Subdb> …`. A rule or query body extends
//! from the `:` to the next directive. `--` comments and blank lines are
//! skipped. Parsing is error-tolerant: each malformed section becomes a
//! diagnostic and loading continues, so the analyzer can report every
//! problem in one run.

use crate::ast::Rule;
use crate::parser::{parse_rule_spanned, RuleSpans};
use dood_core::diag::{Diagnostic, Span};
use dood_oql::ast::Query;
use dood_oql::parser::Parser as OqlParser;

/// How a program names its schema.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaRef {
    /// `schema builtin <name>` — resolved by the embedder (e.g. `doodlint`
    /// maps `university`/`company`/`cad` to the workload schemas).
    Builtin {
        /// The builtin schema name.
        name: String,
        /// Span of the name in the program source.
        span: Span,
    },
    /// `schema inline … end` — a textual schema DDL block.
    Inline {
        /// The DDL text (between the `schema inline` and `end` lines).
        text: String,
        /// Byte offset of the DDL text in the program source.
        offset: usize,
    },
}

/// A rule with its source anchoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRule {
    /// The parsed rule.
    pub rule: Rule,
    /// Spans of the rule's parts, absolute in the program source.
    pub spans: RuleSpans,
    /// Span of the rule name in the `rule NAME:` header.
    pub header: Span,
}

/// A named query with its source anchoring.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramQuery {
    /// The query's name (from `query NAME:`).
    pub name: String,
    /// The parsed query.
    pub query: Query,
    /// Context occurrence spans, absolute, in flatten order.
    pub occurrences: Vec<Span>,
    /// WHERE condition spans, absolute, in textual order.
    pub wheres: Vec<Span>,
    /// Span of the query name in the header.
    pub header: Span,
}

/// A parsed `.dood` program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The full program source (diagnostic rendering needs it).
    pub source: String,
    /// The schema reference, when declared.
    pub schema: Option<SchemaRef>,
    /// Externally-registered subdatabase names (`extern` directives).
    pub externs: Vec<String>,
    /// The rules, in declaration order.
    pub rules: Vec<ProgramRule>,
    /// The queries, in declaration order.
    pub queries: Vec<ProgramQuery>,
    /// Exported subdatabase names with their spans.
    pub exports: Vec<(String, Span)>,
    /// Warning codes suppressed by `allow` directives (uppercased).
    pub allows: Vec<String>,
}

/// One raw directive found by the line scanner.
enum Section {
    SchemaBuiltin { name: String, span: Span },
    SchemaInline { text: String, offset: usize },
    Extern { names: Vec<(String, Span)> },
    Export { names: Vec<(String, Span)> },
    Allow { codes: Vec<String> },
    Body { kind: BodyKind, name: String, header: Span, body_start: usize, body_end: usize },
}

#[derive(PartialEq)]
enum BodyKind {
    Rule,
    Query,
}

impl Program {
    /// Parse a program. Malformed sections are reported as diagnostics
    /// (code `P001`) and skipped; the rest of the program still loads.
    pub fn parse(source: &str) -> (Program, Vec<Diagnostic>) {
        let mut prog = Program { source: source.to_string(), ..Program::default() };
        let mut diags = Vec::new();
        let sections = scan(source, &mut diags);
        for s in sections {
            match s {
                Section::SchemaBuiltin { name, span } => {
                    if prog.schema.is_some() {
                        diags.push(
                            Diagnostic::error("P001", "duplicate `schema` directive")
                                .with_span(span, source),
                        );
                    } else {
                        prog.schema = Some(SchemaRef::Builtin { name, span });
                    }
                }
                Section::SchemaInline { text, offset } => {
                    if prog.schema.is_some() {
                        diags.push(
                            Diagnostic::error("P001", "duplicate `schema` directive")
                                .with_span(Span::point(offset), source),
                        );
                    } else {
                        prog.schema = Some(SchemaRef::Inline { text, offset });
                    }
                }
                Section::Extern { names } => {
                    prog.externs.extend(names.into_iter().map(|(n, _)| n));
                }
                Section::Export { names } => prog.exports.extend(names),
                Section::Allow { codes } => prog.allows.extend(codes),
                Section::Body { kind, name, header, body_start, body_end } => {
                    let body = &source[body_start..body_end];
                    match kind {
                        BodyKind::Rule => match parse_rule_spanned(&name, body) {
                            Ok((rule, spans)) => prog.rules.push(ProgramRule {
                                rule,
                                spans: spans.shifted(body_start),
                                header,
                            }),
                            Err(e) => diags.push(
                                Diagnostic::error("P001", e.msg.clone())
                                    .with_span(Span::point(e.at + body_start), source)
                                    .with_owner(&name),
                            ),
                        },
                        BodyKind::Query => match parse_query_spanned(body) {
                            Ok((query, occ, whs)) => prog.queries.push(ProgramQuery {
                                name,
                                query,
                                occurrences: occ.iter().map(|s| s.shifted(body_start)).collect(),
                                wheres: whs.iter().map(|s| s.shifted(body_start)).collect(),
                                header,
                            }),
                            Err(e) => diags.push(
                                Diagnostic::error("P001", e.msg.clone())
                                    .with_span(Span::point(e.at + body_start), source)
                                    .with_owner(&name),
                            ),
                        },
                    }
                }
            }
        }
        (prog, diags)
    }

    /// Build a program from `(name, rule-source)` pairs plus exports — a
    /// convenience for embedders that already hold rule texts (the engine
    /// tests, the propcheck generator). Equivalent to synthesizing the
    /// `.dood` text and parsing it, so all spans are real.
    pub fn from_rules(rules: &[(&str, &str)], exports: &[&str]) -> (Program, Vec<Diagnostic>) {
        let mut src = String::new();
        for (name, body) in rules {
            src.push_str(&format!("rule {name}:\n  {body}\n"));
        }
        for e in exports {
            src.push_str(&format!("export {e}\n"));
        }
        Program::parse(&src)
    }
}

/// Parse a query body, returning its occurrence and WHERE spans.
fn parse_query_spanned(
    src: &str,
) -> Result<(Query, Vec<Span>, Vec<Span>), dood_oql::error::ParseError> {
    let mut p = OqlParser::new(src)?;
    let q = p.query().map_err(|e| p.locate(e))?;
    if !p.at_eof() {
        return Err(p.locate(dood_oql::error::ParseError::new(
            p.at(),
            format!("unexpected `{}`", p.peek()),
        )));
    }
    Ok((q, p.occurrence_spans().to_vec(), p.where_spans().to_vec()))
}

/// Split the source into directive sections.
fn scan(source: &str, diags: &mut Vec<Diagnostic>) -> Vec<Section> {
    // Line starts, with each line's directive classification.
    let mut out = Vec::new();
    let lines: Vec<(usize, &str)> = line_offsets(source);
    let mut i = 0;
    while i < lines.len() {
        let (off, line) = lines[i];
        let trimmed = line.trim_start();
        let indent = off + (line.len() - trimmed.len());
        if trimmed.is_empty() || trimmed.starts_with("--") {
            i += 1;
            continue;
        }
        let lower = directive(first_word(trimmed)).unwrap_or("");
        match lower {
            "schema" => {
                let rest = trimmed["schema".len()..].trim();
                if let Some(name) = rest.strip_prefix("builtin") {
                    let name = name.trim();
                    if name.is_empty() {
                        diags.push(
                            Diagnostic::error("P001", "`schema builtin` needs a schema name")
                                .with_span(Span::point(indent), source),
                        );
                    } else {
                        let start = off + line.rfind(name).unwrap_or(0);
                        out.push(Section::SchemaBuiltin {
                            name: name.to_string(),
                            span: Span::new(start, start + name.len()),
                        });
                    }
                    i += 1;
                } else if rest == "inline" {
                    // Collect until a line that is exactly `end`.
                    let body_start = lines.get(i + 1).map_or(source.len(), |(o, _)| *o);
                    let mut j = i + 1;
                    while j < lines.len() && lines[j].1.trim() != "end" {
                        j += 1;
                    }
                    if j == lines.len() {
                        diags.push(
                            Diagnostic::error("P001", "`schema inline` block missing `end`")
                                .with_span(Span::point(indent), source),
                        );
                        i = j;
                    } else {
                        let body_end = lines[j].0;
                        out.push(Section::SchemaInline {
                            text: source[body_start..body_end].to_string(),
                            offset: body_start,
                        });
                        i = j + 1;
                    }
                } else {
                    diags.push(
                        Diagnostic::error(
                            "P001",
                            "expected `schema builtin <name>` or `schema inline`",
                        )
                        .with_span(Span::point(indent), source),
                    );
                    i += 1;
                }
            }
            "allow" => {
                let codes: Vec<String> = trimmed["allow".len()..]
                    .split_whitespace()
                    .take_while(|w| !w.starts_with("--"))
                    .map(|w| w.to_ascii_uppercase())
                    .collect();
                if codes.is_empty() {
                    diags.push(
                        Diagnostic::error("P001", "`allow` needs a diagnostic code")
                            .with_span(Span::point(indent), source),
                    );
                } else {
                    out.push(Section::Allow { codes });
                }
                i += 1;
            }
            "export" | "extern" => {
                let kw_len = lower.len();
                let mut names = Vec::new();
                let mut cursor = indent + kw_len;
                for word in trimmed[kw_len..].split_whitespace() {
                    if word.starts_with("--") {
                        break;
                    }
                    let start = off
                        + line[cursor - off..].find(word).map_or(0, |p| p + cursor - off);
                    names.push((word.to_string(), Span::new(start, start + word.len())));
                    cursor = start + word.len();
                }
                if names.is_empty() {
                    diags.push(
                        Diagnostic::error("P001", format!("`{lower}` needs a subdatabase name"))
                            .with_span(Span::point(indent), source),
                    );
                } else if lower == "export" {
                    out.push(Section::Export { names });
                } else {
                    out.push(Section::Extern { names });
                }
                i += 1;
            }
            "rule" | "query" => {
                let kind = if lower == "rule" { BodyKind::Rule } else { BodyKind::Query };
                let rest = trimmed[lower.len()..].trim_start();
                let Some(colon) = rest.find(':') else {
                    diags.push(
                        Diagnostic::error("P001", format!("`{lower}` header needs `NAME:`"))
                            .with_span(Span::point(indent), source),
                    );
                    i += 1;
                    continue;
                };
                let name = rest[..colon].trim().to_string();
                if name.is_empty() || name.contains(char::is_whitespace) {
                    diags.push(
                        Diagnostic::error("P001", format!("invalid {lower} name `{name}`"))
                            .with_span(Span::point(indent), source),
                    );
                    i += 1;
                    continue;
                }
                let name_start = indent + (trimmed.len() - rest.len());
                let header = Span::new(name_start, name_start + name.trim_end().len());
                // Body: remainder of this line after ':' plus following
                // lines up to the next directive.
                let body_start = name_start + colon + 1;
                let mut j = i + 1;
                while j < lines.len() && !is_directive(lines[j].1) {
                    j += 1;
                }
                let body_end = lines.get(j).map_or(source.len(), |(o, _)| *o);
                out.push(Section::Body { kind, name, header, body_start, body_end });
                i = j;
            }
            _ => {
                diags.push(
                    Diagnostic::error(
                        "P001",
                        format!("unknown directive `{}`", first_word(trimmed)),
                    )
                    .with_span(Span::point(indent), source),
                );
                i += 1;
            }
        }
    }
    out
}

fn line_offsets(source: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut off = 0;
    for line in source.split_inclusive('\n') {
        out.push((off, line.trim_end_matches(['\n', '\r'])));
        off += line.len();
    }
    out
}

fn first_word(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or("")
}

/// The directive keyword `word` spells in any letter case, in lower case.
fn directive(word: &str) -> Option<&'static str> {
    ["schema", "export", "extern", "allow", "rule", "query"]
        .into_iter()
        .find(|k| word.eq_ignore_ascii_case(k))
}

fn is_directive(line: &str) -> bool {
    let t = line.trim_start();
    let w = first_word(t);
    match directive(w) {
        Some("rule" | "query") => t[w.len()..].contains(':'),
        Some(_) => true,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "\
-- demo program
schema builtin university

rule R1:
  if context Teacher * Section * Course
  then Teacher_course (Teacher, Course)

rule R2: if context Department * Course then Dc (Course)

query Q1:
  context Teacher_course:Teacher * Teacher_course:Course display

extern Ext_sd
export Teacher_course Dc
";

    #[test]
    fn parses_sections() {
        let (p, diags) = Program::parse(PROG);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(matches!(&p.schema, Some(SchemaRef::Builtin { name, .. }) if name == "university"));
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].rule.name, "R1");
        assert_eq!(p.rules[1].rule.target_subdb, "Dc");
        assert_eq!(p.queries.len(), 1);
        assert_eq!(p.queries[0].name, "Q1");
        assert_eq!(p.externs, vec!["Ext_sd".to_string()]);
        let exports: Vec<&str> = p.exports.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(exports, vec!["Teacher_course", "Dc"]);
    }

    #[test]
    fn spans_are_absolute() {
        let (p, diags) = Program::parse(PROG);
        assert!(diags.is_empty());
        // R1's first occurrence span points at "Teacher" inside the program.
        let s = p.rules[0].spans.occurrences[0];
        assert_eq!(&PROG[s.start..s.end], "Teacher");
        let t = p.rules[0].spans.target_subdb;
        assert_eq!(&PROG[t.start..t.end], "Teacher_course");
        // Header names.
        let h = p.rules[1].header;
        assert_eq!(&PROG[h.start..h.end], "R2");
        let q = p.queries[0].occurrences[0];
        assert_eq!(&PROG[q.start..q.end], "Teacher_course:Teacher");
    }

    #[test]
    fn bad_rule_reports_and_continues() {
        let src = "rule R1:\n  if context A * then T (A)\nrule R2: if context A * B then U (A)\n";
        let (p, diags) = Program::parse(src);
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].rule.name, "R2");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "P001");
        assert!(diags[0].line > 0);
    }

    #[test]
    fn unknown_directive_diagnosed() {
        let (_, diags) = Program::parse("frobnicate everything\n");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("frobnicate"));
    }

    #[test]
    fn inline_schema_block() {
        let src = "schema inline\neclass A\neclass B\nend\nrule R: if context A * B then T (A)\n";
        let (p, diags) = Program::parse(src);
        assert!(diags.is_empty(), "{diags:?}");
        match &p.schema {
            Some(SchemaRef::Inline { text, .. }) => {
                assert!(text.contains("eclass A"));
                assert!(!text.contains("end"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn from_rules_builds_program() {
        let (p, diags) =
            Program::from_rules(&[("R1", "if context A * B then T (A)")], &["T"]);
        assert!(diags.is_empty());
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.exports.len(), 1);
    }
}
