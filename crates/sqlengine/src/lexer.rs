//! SQL tokenizer.

use crate::error::SqlError;

/// A SQL token. Keywords are recognised case-insensitively and carried in
/// upper case; identifiers preserve their original case but compare
/// case-insensitively during binding.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Ident(String),
    Keyword(String),
    Number(String),
    String(String),
    Param, // ?
    Comma,
    LParen,
    RParen,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Concat, // ||
    Semicolon,
}

const KEYWORDS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "HAVING",
    "ORDER",
    "ASC",
    "DESC",
    "LIMIT",
    "OFFSET",
    "INSERT",
    "INTO",
    "VALUES",
    "UPDATE",
    "SET",
    "DELETE",
    "CREATE",
    "TABLE",
    "DROP",
    "INDEX",
    "PRIMARY",
    "KEY",
    "NOT",
    "NULL",
    "UNIQUE",
    "DEFAULT",
    "CHECK",
    "REFERENCES",
    "FOREIGN",
    "AND",
    "OR",
    "IN",
    "IS",
    "LIKE",
    "BETWEEN",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "END",
    "JOIN",
    "INNER",
    "LEFT",
    "OUTER",
    "ON",
    "AS",
    "DISTINCT",
    "ALL",
    "TRUE",
    "FALSE",
    "EXISTS",
    "IF",
    "UNION",
    "CROSS",
];

/// Tokenize a SQL statement.
pub fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => pos += 1,
            b'-' if bytes.get(pos + 1) == Some(&b'-') => {
                // Line comment.
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b',' => {
                out.push(Token::Comma);
                pos += 1;
            }
            b'(' => {
                out.push(Token::LParen);
                pos += 1;
            }
            b')' => {
                out.push(Token::RParen);
                pos += 1;
            }
            b'.' => {
                if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) {
                    let (t, n) = lex_number(bytes, pos)?;
                    out.push(t);
                    pos = n;
                } else {
                    out.push(Token::Dot);
                    pos += 1;
                }
            }
            b'*' => {
                out.push(Token::Star);
                pos += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                pos += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                pos += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                pos += 1;
            }
            b'%' => {
                out.push(Token::Percent);
                pos += 1;
            }
            b'?' => {
                out.push(Token::Param);
                pos += 1;
            }
            b';' => {
                out.push(Token::Semicolon);
                pos += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                pos += 1;
            }
            b'|' if bytes.get(pos + 1) == Some(&b'|') => {
                out.push(Token::Concat);
                pos += 2;
            }
            b'<' => match bytes.get(pos + 1) {
                Some(b'=') => {
                    out.push(Token::Le);
                    pos += 2;
                }
                Some(b'>') => {
                    out.push(Token::Ne);
                    pos += 2;
                }
                _ => {
                    out.push(Token::Lt);
                    pos += 1;
                }
            },
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    pos += 2;
                } else {
                    out.push(Token::Gt);
                    pos += 1;
                }
            }
            b'!' if bytes.get(pos + 1) == Some(&b'=') => {
                out.push(Token::Ne);
                pos += 2;
            }
            b'\'' => {
                // String literal with '' escaping.
                pos += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(pos) {
                        Some(b'\'') => {
                            if bytes.get(pos + 1) == Some(&b'\'') {
                                s.push('\'');
                                pos += 2;
                            } else {
                                pos += 1;
                                break;
                            }
                        }
                        Some(&c) => {
                            // Collect a UTF-8 code point.
                            let len = utf8_len(c);
                            s.push_str(&String::from_utf8_lossy(&bytes[pos..pos + len]));
                            pos += len;
                        }
                        None => return Err(SqlError::syntax("unterminated string literal")),
                    }
                }
                out.push(Token::String(s));
            }
            b'"' => {
                // Quoted identifier.
                pos += 1;
                let start = pos;
                while pos < bytes.len() && bytes[pos] != b'"' {
                    pos += 1;
                }
                if pos == bytes.len() {
                    return Err(SqlError::syntax("unterminated quoted identifier"));
                }
                out.push(Token::Ident(String::from_utf8_lossy(&bytes[start..pos]).into_owned()));
                pos += 1;
            }
            b'0'..=b'9' => {
                let (t, n) = lex_number(bytes, pos)?;
                out.push(t);
                pos = n;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                while pos < bytes.len()
                    && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'_')
                {
                    pos += 1;
                }
                let word = String::from_utf8_lossy(&bytes[start..pos]).into_owned();
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    out.push(Token::Keyword(upper));
                } else {
                    out.push(Token::Ident(word));
                }
            }
            other => {
                return Err(SqlError::syntax(format!(
                    "unexpected character '{}' in SQL",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn lex_number(bytes: &[u8], start: usize) -> Result<(Token, usize), SqlError> {
    let mut pos = start;
    let mut seen_dot = false;
    while pos < bytes.len() {
        match bytes[pos] {
            b'0'..=b'9' => pos += 1,
            b'.' if !seen_dot => {
                seen_dot = true;
                pos += 1;
            }
            b'e' | b'E' => {
                pos += 1;
                if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                    pos += 1;
                }
                while pos < bytes.len() && bytes[pos].is_ascii_digit() {
                    pos += 1;
                }
                break;
            }
            _ => break,
        }
    }
    Ok((Token::Number(String::from_utf8_lossy(&bytes[start..pos]).into_owned()), pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_select() {
        let t = tokenize("SELECT a, b FROM t WHERE x >= 1.5").unwrap();
        assert_eq!(t[0], Token::Keyword("SELECT".into()));
        assert_eq!(t[1], Token::Ident("a".into()));
        assert!(t.contains(&Token::Ge));
        assert!(t.contains(&Token::Number("1.5".into())));
    }

    #[test]
    fn case_insensitive_keywords() {
        let t = tokenize("select FROM Where").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Keyword("FROM".into()),
                Token::Keyword("WHERE".into())
            ]
        );
    }

    #[test]
    fn string_escaping() {
        let t = tokenize("'it''s'").unwrap();
        assert_eq!(t, vec![Token::String("it's".into())]);
        assert!(tokenize("'open").is_err());
    }

    #[test]
    fn quoted_identifiers() {
        let t = tokenize("\"My Table\"").unwrap();
        assert_eq!(t, vec![Token::Ident("My Table".into())]);
    }

    #[test]
    fn comments_skipped() {
        let t = tokenize("SELECT 1 -- trailing\n, 2").unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn operators() {
        let t = tokenize("<> != <= >= = < > || ?").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ne,
                Token::Ne,
                Token::Le,
                Token::Ge,
                Token::Eq,
                Token::Lt,
                Token::Gt,
                Token::Concat,
                Token::Param
            ]
        );
    }

    #[test]
    fn numbers() {
        let t = tokenize("1 2.5 .5 1e3 2.5E-2").unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t[2], Token::Number(".5".into()));
    }

    #[test]
    fn unicode_in_strings() {
        let t = tokenize("'héllo 世界'").unwrap();
        assert_eq!(t, vec![Token::String("héllo 世界".into())]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT @").is_err());
    }
}
