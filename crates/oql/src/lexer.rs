//! Lexer for OQL queries and deductive rules.

use crate::error::ParseError;
use crate::token::{Spanned, Token};

/// Tokenize a source string. Identifiers may contain letters, digits, `_`
/// and `#` (`c#`, `section#`); they must not start with a digit. `--`
/// starts a line comment.
pub fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(token_estimate(bytes));
    let mut i = 0;
    while i < bytes.len() {
        // Chars are decoded properly so multibyte input errors cleanly
        // instead of slicing mid-codepoint.
        let c = src[i..].chars().next().expect("i is on a char boundary");
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '-' => {
                out.push(Spanned { tok: Token::Minus, at: i, end: i + 1 });
                i += 1;
            }
            '*' => {
                out.push(Spanned { tok: Token::Star, at: i, end: i + 1 });
                i += 1;
            }
            '{' => {
                out.push(Spanned { tok: Token::LBrace, at: i, end: i + 1 });
                i += 1;
            }
            '}' => {
                out.push(Spanned { tok: Token::RBrace, at: i, end: i + 1 });
                i += 1;
            }
            '[' => {
                out.push(Spanned { tok: Token::LBracket, at: i, end: i + 1 });
                i += 1;
            }
            ']' => {
                out.push(Spanned { tok: Token::RBracket, at: i, end: i + 1 });
                i += 1;
            }
            '(' => {
                out.push(Spanned { tok: Token::LParen, at: i, end: i + 1 });
                i += 1;
            }
            ')' => {
                out.push(Spanned { tok: Token::RParen, at: i, end: i + 1 });
                i += 1;
            }
            ':' => {
                out.push(Spanned { tok: Token::Colon, at: i, end: i + 1 });
                i += 1;
            }
            ',' => {
                out.push(Spanned { tok: Token::Comma, at: i, end: i + 1 });
                i += 1;
            }
            '^' => {
                out.push(Spanned { tok: Token::Caret, at: i, end: i + 1 });
                i += 1;
            }
            '.' => {
                out.push(Spanned { tok: Token::Dot, at: i, end: i + 1 });
                i += 1;
            }
            '=' => {
                out.push(Spanned { tok: Token::Eq, at: i, end: i + 1 });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { tok: Token::Neq, at: i, end: i + 2 });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Token::Bang, at: i, end: i + 1 });
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { tok: Token::Le, at: i, end: i + 2 });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Spanned { tok: Token::Neq, at: i, end: i + 2 });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Token::Lt, at: i, end: i + 1 });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { tok: Token::Ge, at: i, end: i + 2 });
                    i += 2;
                } else {
                    out.push(Spanned { tok: Token::Gt, at: i, end: i + 1 });
                    i += 1;
                }
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match src[i..].chars().next() {
                        None => {
                            return Err(ParseError::new(start, "unterminated string literal"))
                        }
                        Some('\'') => {
                            // Doubled quote escapes a quote.
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(ch) => {
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                out.push(Spanned { tok: Token::Str(s), at: start, end: i });
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A decimal point followed by a digit makes it a real
                // (a lone `.` is the attribute-access dot).
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[start..i];
                    let v: f64 = text
                        .parse()
                        .map_err(|_| ParseError::new(start, "invalid real literal"))?;
                    out.push(Spanned { tok: Token::Real(v), at: start, end: i });
                } else {
                    let text = &src[start..i];
                    let v: i64 = text
                        .parse()
                        .map_err(|_| ParseError::new(start, "invalid integer literal"))?;
                    out.push(Spanned { tok: Token::Int(v), at: start, end: i });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while let Some(ch) = src[i..].chars().next() {
                    if ch.is_alphanumeric() || ch == '_' || ch == '#' {
                        i += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let tok = Token::keyword(text).unwrap_or_else(|| Token::Ident(text.to_string()));
                out.push(Spanned { tok, at: start, end: i });
            }
            other => {
                let _ = other.len_utf8(); // multibyte symbols reach here too
                return Err(ParseError::new(i, format!("unexpected character `{other}`")));
            }
        }
    }
    out.push(Spanned { tok: Token::Eof, at: src.len(), end: src.len() });
    Ok(out)
}

/// How many tokens `src` makes, near enough to size the token vector
/// once: one per run of word bytes, one per other byte that is not blank,
/// and the end. Two-byte operators, reals, comments and strings count
/// more; a number that runs into a word (`3x`) counts less.
fn token_estimate(bytes: &[u8]) -> usize {
    let word = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'#') || !b.is_ascii();
    let mut prev_word = false;
    let mut n = 1;
    for &b in bytes {
        let w = word(b);
        n += usize::from(if w { !prev_word } else { !b.is_ascii_whitespace() });
        prev_word = w;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn plain_text_sizes_the_tokens_once() {
        let q = "context A * B where count(B by A) > 8 select A [name], B [title] display";
        for src in ["", q, "if context Person ^*\n  then Reach (Person, Person_*)"] {
            let toks = lex(src).unwrap();
            assert_eq!(toks.capacity(), toks.len(), "{src}");
        }
    }

    #[test]
    fn basic_query() {
        let t = toks("context Teacher * Section display");
        assert_eq!(
            t,
            vec![
                Token::Context,
                Token::Ident("Teacher".into()),
                Token::Star,
                Token::Ident("Section".into()),
                Token::Ident("display".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn hash_identifiers_and_ranges() {
        let t = toks("Course [c# >= 6000 and c# < 7000]");
        assert!(t.contains(&Token::Ident("c#".into())));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Lt));
        assert!(t.contains(&Token::And));
    }

    #[test]
    fn string_literals_and_escapes() {
        assert_eq!(toks("'CIS'")[0], Token::Str("CIS".into()));
        assert_eq!(toks("'o''brien'")[0], Token::Str("o'brien".into()));
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn numbers_int_and_real() {
        assert_eq!(toks("42")[0], Token::Int(42));
        assert_eq!(toks("3.5")[0], Token::Real(3.5));
        // A dot not followed by a digit is attribute access.
        assert_eq!(toks("3.x")[0..3], [Token::Int(3), Token::Dot, Token::Ident("x".into())]);
    }

    #[test]
    fn closure_markers() {
        assert_eq!(toks("^*")[0..2], [Token::Caret, Token::Star]);
        assert_eq!(toks("^3")[0..2], [Token::Caret, Token::Int(3)]);
    }

    #[test]
    fn bang_vs_neq() {
        assert_eq!(toks("A ! B")[1], Token::Bang);
        assert_eq!(toks("x != 1")[1], Token::Neq);
        assert_eq!(toks("x <> 1")[1], Token::Neq);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(toks("CONTEXT Where SELECT")[0..3], [Token::Context, Token::Where, Token::Select]);
    }

    #[test]
    fn identifiers_containing_keywords_stay_identifiers() {
        for word in ["Order", "ifx", "Android", "Byline", "Notes", "Selection", "thenceforth"] {
            for spelling in [word.to_string(), word.to_uppercase(), word.to_lowercase()] {
                assert_eq!(toks(&spelling)[0], Token::Ident(spelling.clone()), "{spelling}");
            }
        }
        assert_eq!(toks("oR bY nOt")[0..3], [Token::Or, Token::By, Token::Not]);
    }

    #[test]
    fn comments_skipped() {
        let t = toks("context -- this is a comment\n Teacher");
        assert_eq!(t, vec![Token::Context, Token::Ident("Teacher".into()), Token::Eof]);
    }

    #[test]
    fn qualified_names() {
        let t = toks("Suggest_offer:Course");
        assert_eq!(
            t[0..3],
            [
                Token::Ident("Suggest_offer".into()),
                Token::Colon,
                Token::Ident("Course".into())
            ]
        );
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(lex("a $ b").is_err());
    }
}
