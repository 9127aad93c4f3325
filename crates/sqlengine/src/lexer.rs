//! SQL lexer.

use crate::error::SqlError;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords are matched in the
    /// parser; the lexer keeps the raw text).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (unescaped).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Operator and punctuation tokens.
#[allow(missing_docs)] // variants are self-describing symbol names
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    LParen,
    RParen,
    Comma,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Dot,
}

impl Token {
    /// Is this token the given keyword (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Lex SQL text into tokens.
pub fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                toks.push(Token::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                toks.push(Token::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                toks.push(Token::Symbol(Sym::Comma));
                i += 1;
            }
            ';' => {
                toks.push(Token::Symbol(Sym::Semicolon));
                i += 1;
            }
            '*' => {
                toks.push(Token::Symbol(Sym::Star));
                i += 1;
            }
            '+' => {
                toks.push(Token::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                toks.push(Token::Symbol(Sym::Minus));
                i += 1;
            }
            '/' => {
                toks.push(Token::Symbol(Sym::Slash));
                i += 1;
            }
            '%' => {
                toks.push(Token::Symbol(Sym::Percent));
                i += 1;
            }
            '.' => {
                toks.push(Token::Symbol(Sym::Dot));
                i += 1;
            }
            '=' => {
                toks.push(Token::Symbol(Sym::Eq));
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                toks.push(Token::Symbol(Sym::Neq));
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token::Symbol(Sym::Le));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    toks.push(Token::Symbol(Sym::Neq));
                    i += 2;
                } else {
                    toks.push(Token::Symbol(Sym::Lt));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push(Token::Symbol(Sym::Ge));
                    i += 2;
                } else {
                    toks.push(Token::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '\'' => {
                // String literal with '' escaping. A quote is ASCII, so
                // the runs between quotes are whole chars: copy each in
                // one piece.
                let mut s = String::new();
                let start = i;
                i += 1;
                let mut run = i;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(SqlError::Lex {
                                message: "unterminated string".into(),
                                offset: start,
                            });
                        }
                        Some(b'\'') => {
                            s.push_str(&input[run..i]);
                            if bytes.get(i + 1) == Some(&b'\'') {
                                s.push('\'');
                                i += 2;
                                run = i;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => i += 1,
                    }
                }
                toks.push(Token::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && (bytes[i + 1] as char).is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    toks.push(Token::Float(text.parse().map_err(|_| SqlError::Lex {
                        message: format!("bad float {text}"),
                        offset: start,
                    })?));
                } else {
                    toks.push(Token::Int(text.parse().map_err(|_| SqlError::Lex {
                        message: format!("bad int {text}"),
                        offset: start,
                    })?));
                }
            }
            c if c.is_alphabetic() || c == '_' || c == '"' => {
                if c == '"' {
                    // Quoted identifier.
                    let start = i;
                    i += 1;
                    let id_start = i;
                    while i < bytes.len() && bytes[i] != b'"' {
                        i += 1;
                    }
                    if i >= bytes.len() {
                        return Err(SqlError::Lex {
                            message: "unterminated quoted identifier".into(),
                            offset: start,
                        });
                    }
                    toks.push(Token::Ident(input[id_start..i].to_string()));
                    i += 1;
                } else {
                    let start = i;
                    while i < bytes.len() {
                        let c = bytes[i] as char;
                        if c.is_alphanumeric() || c == '_' {
                            i += utf8_len(bytes[i]);
                        } else {
                            break;
                        }
                    }
                    toks.push(Token::Ident(input[start..i].to_string()));
                }
            }
            other => {
                return Err(SqlError::Lex {
                    message: format!("unexpected character {other:?}"),
                    offset: i,
                })
            }
        }
    }
    Ok(toks)
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select() {
        let toks = lex("SELECT a, b FROM t WHERE x >= 10.5;").unwrap();
        assert!(toks.contains(&Token::Ident("SELECT".into())));
        assert!(toks.contains(&Token::Symbol(Sym::Ge)));
        assert!(toks.contains(&Token::Float(10.5)));
        assert!(toks.last() == Some(&Token::Symbol(Sym::Semicolon)));
    }

    #[test]
    fn string_escaping() {
        let toks = lex("'o''brien'").unwrap();
        assert_eq!(toks, vec![Token::Str("o'brien".into())]);
        // Escapes at both ends, next to multi-byte chars, and an empty literal.
        let toks = lex("'''héllo'' ''wörld''' ''").unwrap();
        assert_eq!(toks, vec![Token::Str("'héllo' 'wörld'".into()), Token::Str(String::new())]);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(lex("'abc"), Err(SqlError::Lex { .. })));
    }

    #[test]
    fn neq_both_spellings() {
        assert_eq!(lex("a != b").unwrap()[1], Token::Symbol(Sym::Neq));
        assert_eq!(lex("a <> b").unwrap()[1], Token::Symbol(Sym::Neq));
    }

    #[test]
    fn line_comment_skipped() {
        let toks = lex("SELECT 1 -- trailing comment\n+ 2").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn qualified_name() {
        let toks = lex("t.col").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("t".into()),
                Token::Symbol(Sym::Dot),
                Token::Ident("col".into())
            ]
        );
    }

    #[test]
    fn quoted_identifier() {
        let toks = lex("\"Weird Name\"").unwrap();
        assert_eq!(toks, vec![Token::Ident("Weird Name".into())]);
    }

    #[test]
    fn unicode_in_strings() {
        let toks = lex("'北京 café'").unwrap();
        assert_eq!(toks, vec![Token::Str("北京 café".into())]);
    }

    #[test]
    fn bad_char_errors() {
        assert!(lex("SELECT @").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42").unwrap(), vec![Token::Int(42)]);
        assert_eq!(lex("4.25").unwrap(), vec![Token::Float(4.25)]);
        // "4." lexes as int then dot (SQL-ish behaviour for ranges).
        assert_eq!(lex("4.").unwrap(), vec![Token::Int(4), Token::Symbol(Sym::Dot)]);
    }
}
