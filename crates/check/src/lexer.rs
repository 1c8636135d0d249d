//! A minimal Rust token scanner.
//!
//! The checks in this crate only need four token classes — identifiers,
//! string literals, punctuation and everything-else — but they need them
//! *correctly*: an `.unwrap()` inside a comment or a string must not
//! count as a call, a brace inside a string must not unbalance `#[cfg(test)]`
//! stripping, and `'a'` (a char) must not be confused with `'a` (a
//! lifetime). This scanner handles exactly those cases and nothing more;
//! it is not a general Rust lexer.

/// Token classes the checks care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw `r#ident` forms).
    Ident,
    /// A string literal; `text` holds the (lightly unescaped) content.
    Str,
    /// A single punctuation byte; `text` holds it verbatim.
    Punct,
}

/// One token plus the 1-based line it starts on and the brace depth it
/// sits at (0 = module level). A `{` carries the depth *outside* it and
/// a `}` the depth outside the block it closes, so the body of a block
/// is exactly the tokens with depth greater than its delimiters'.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: usize,
    pub depth: usize,
}

impl Token {
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }

    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == word
    }
}

/// Tokenise `src`, dropping comments and whitespace.
pub fn tokenize(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line = 1;
    let mut depth = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if b.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                let start_line = line;
                let (text, next, lines) = scan_string(bytes, i + 1);
                tokens.push(Token { kind: TokenKind::Str, text, line: start_line, depth });
                line += lines;
                i = next;
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                let start_line = line;
                let hash_start = if b == b'b' { i + 2 } else { i + 1 };
                let hashes = count_hashes(bytes, hash_start);
                let (text, next, lines) = scan_raw_string(bytes, hash_start + hashes + 1, hashes);
                tokens.push(Token { kind: TokenKind::Str, text, line: start_line, depth });
                line += lines;
                i = next;
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                let start_line = line;
                let (text, next, lines) = scan_string(bytes, i + 2);
                tokens.push(Token { kind: TokenKind::Str, text, line: start_line, depth });
                line += lines;
                i = next;
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                i = skip_char_literal(bytes, i + 2);
            }
            b'\'' => {
                if char_literal_follows(bytes, i + 1) {
                    i = skip_char_literal(bytes, i + 1);
                } else {
                    // A lifetime: consume the identifier after the quote.
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                }
            }
            _ if b == b'_' || b.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                // `r#ident` raw identifiers: the `r#` was not a raw string
                // (checked above), so a lone `#` between `r` and an ident
                // only occurs in that form and is skipped here.
                let mut text = &src[start..i];
                if text == "r" && bytes.get(i) == Some(&b'#') && char_starts_ident(bytes, i + 1) {
                    let word_start = i + 1;
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    text = &src[word_start..i];
                }
                tokens.push(Token { kind: TokenKind::Ident, text: text.to_string(), line, depth });
            }
            _ if b.is_ascii_digit() => {
                // Numbers are irrelevant to every check; consume greedily.
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
            }
            _ => {
                let at = match b {
                    b'{' => {
                        depth += 1;
                        depth - 1
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        depth
                    }
                    _ => depth,
                };
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (b as char).to_string(),
                    line,
                    depth: at,
                });
                i += 1;
            }
        }
    }
    tokens
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

fn char_starts_ident(bytes: &[u8], i: usize) -> bool {
    bytes.get(i).is_some_and(|&b| b == b'_' || b.is_ascii_alphabetic())
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    let j = if bytes[i] == b'b' {
        if bytes.get(i + 1) != Some(&b'r') {
            return false;
        }
        i + 2
    } else {
        i + 1
    };
    let hashes = count_hashes(bytes, j);
    bytes.get(j + hashes) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> usize {
    let start = i;
    while bytes.get(i) == Some(&b'#') {
        i += 1;
    }
    i - start
}

/// Scan a non-raw string body starting just after the opening quote.
/// Returns (content, index past closing quote, newlines crossed).
fn scan_string(bytes: &[u8], mut i: usize) -> (String, usize, usize) {
    let mut out = String::new();
    let mut lines = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return (out, i + 1, lines),
            b'\\' => {
                match bytes.get(i + 1) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    // Other escapes (\u{..}, \0, line continuations) never
                    // occur in the vocabularies being checked; keep the
                    // raw bytes so the literal simply fails any lookup.
                    Some(&c) => {
                        out.push('\\');
                        out.push(c as char);
                    }
                    None => {}
                }
                i += 2;
            }
            b'\n' => {
                lines += 1;
                out.push('\n');
                i += 1;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    (out, i, lines)
}

/// Scan a raw string body; the closing delimiter is `"` plus `hashes` `#`s.
fn scan_raw_string(bytes: &[u8], mut i: usize, hashes: usize) -> (String, usize, usize) {
    let mut out = String::new();
    let mut lines = 0;
    while i < bytes.len() {
        if bytes[i] == b'"'
            && bytes[i + 1..].iter().take(hashes).filter(|&&b| b == b'#').count() == hashes
        {
            return (out, i + 1 + hashes, lines);
        }
        if bytes[i] == b'\n' {
            lines += 1;
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    (out, i, lines)
}

fn skip_char_literal(bytes: &[u8], mut i: usize) -> usize {
    if bytes.get(i) == Some(&b'\\') {
        i += 2; // escape plus escaped byte; covers \' \\ \n \u's opening
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1; // tail of \u{...} forms
        }
        return i + 1;
    }
    // A plain char, possibly multi-byte UTF-8: scan to the closing quote.
    while i < bytes.len() && bytes[i] != b'\'' {
        i += 1;
    }
    i + 1
}

/// Does a char literal (as opposed to a lifetime) start at `i`, just
/// after an opening `'`? `'a'` is a char; `'a` in `&'a str` is not.
fn char_literal_follows(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i) {
        Some(b'\\') => true,
        Some(&b) if b != b'\'' => {
            // Find the end of what would be the char's content.
            let mut j = i + 1;
            if !b.is_ascii() {
                while j < bytes.len() && bytes[j] & 0xC0 == 0x80 {
                    j += 1;
                }
            }
            bytes.get(j) == Some(&b'\'')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_strings_punct() {
        let toks = kinds(r#"let x = "hi"; "#);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "let".into()),
                (TokenKind::Ident, "x".into()),
                (TokenKind::Punct, "=".into()),
                (TokenKind::Str, "hi".into()),
                (TokenKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn comments_are_dropped() {
        let toks = kinds("a // \"not a string\"\n/* b /* nested */ */ c");
        assert_eq!(toks, vec![(TokenKind::Ident, "a".into()), (TokenKind::Ident, "c".into())]);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let toks = kinds(r##"r#"a "quoted" b"# "esc\"aped" "##);
        assert_eq!(
            toks,
            vec![(TokenKind::Str, "a \"quoted\" b".into()), (TokenKind::Str, "esc\"aped".into()),]
        );
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("&'a str 'x' '\\n' b'z'");
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Str).collect();
        assert!(strs.is_empty());
        let idents: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Ident).map(|(_, t)| t.as_str()).collect();
        assert_eq!(idents, vec!["str"]);
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let toks = tokenize("a\n\"x\ny\"\nb");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2); // the string starts on line 2
        assert_eq!(toks[2].line, 4); // b lands after the embedded newline
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("r#type x");
        assert_eq!(toks, vec![(TokenKind::Ident, "type".into()), (TokenKind::Ident, "x".into())]);
    }

    #[test]
    fn raw_strings_with_more_hashes_and_byte_raw_strings() {
        // A `"#` inside the body must not close an `r##"…"##` string,
        // and `br#"…"#` is a (byte) string, not idents.
        let toks = kinds(r###"r##"has "# inside"## br#"bytes"# x"###);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Str, "has \"# inside".into()),
                (TokenKind::Str, "bytes".into()),
                (TokenKind::Ident, "x".into()),
            ]
        );
    }

    #[test]
    fn raw_string_hides_comment_openers_and_quotes() {
        // Without raw-string handling, the `//` and `/*` in the body
        // would swallow the rest of the file and hide `after`.
        let toks = kinds("r#\"// not a comment /* still not\"# after");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Str, "// not a comment /* still not".into()),
                (TokenKind::Ident, "after".into()),
            ]
        );
    }

    #[test]
    fn nested_block_comments_hide_their_contents_entirely() {
        // The literal inside the nested comment must not surface: the
        // inner `/*` has to nest, not terminate at the first `*/`.
        let toks = kinds("before /* outer \"lit1\" /* inner \"lit2\" */ \"lit3\" */ after");
        assert_eq!(
            toks,
            vec![(TokenKind::Ident, "before".into()), (TokenKind::Ident, "after".into())]
        );
    }

    #[test]
    fn block_comment_line_counting_spans_nesting() {
        let toks = tokenize("/* line1\n/* line2\n*/ line3\n*/ x");
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].line, 4);
    }

    #[test]
    fn lifetime_ticks_do_not_eat_following_tokens() {
        // `'a` in a generic position must leave `, 'b>` intact, and a
        // lifetime before a string must not turn the string into a char.
        let toks = kinds("fn f<'a, 'b>(x: &'a str) -> &'b str { \"lit\" }");
        let strs: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Str).map(|(_, t)| t.as_str()).collect();
        assert_eq!(strs, vec!["lit"]);
        let idents: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Ident).map(|(_, t)| t.as_str()).collect();
        assert_eq!(idents, vec!["fn", "f", "x", "str", "str"]);
    }

    #[test]
    fn labelled_loops_and_static_lifetimes_stay_punct_free() {
        let toks = kinds("'outer: loop { break 'outer; } &'static str");
        let idents: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Ident).map(|(_, t)| t.as_str()).collect();
        // The labels are consumed with their ticks; only real idents stay.
        assert_eq!(idents, vec!["loop", "break", "str"]);
    }

    #[test]
    fn depth_tracks_braces() {
        let toks = tokenize("a { b { c } d } e");
        let depths: Vec<(String, usize)> = toks.iter().map(|t| (t.text.clone(), t.depth)).collect();
        assert_eq!(
            depths,
            vec![
                ("a".to_string(), 0),
                ("{".to_string(), 0),
                ("b".to_string(), 1),
                ("{".to_string(), 1),
                ("c".to_string(), 2),
                ("}".to_string(), 1),
                ("d".to_string(), 1),
                ("}".to_string(), 0),
                ("e".to_string(), 0),
            ]
        );
    }

    #[test]
    fn depth_ignores_braces_inside_strings_comments_and_chars() {
        let toks = tokenize("{ \"}\" /* } */ '{' r#\"}\"# x }");
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!(x.depth, 1, "string/comment/char braces must not change depth");
        assert_eq!(toks.last().unwrap().depth, 0, "the real closer returns to 0");
    }

    #[test]
    fn unbalanced_closers_saturate_at_zero() {
        let toks = tokenize("} } a");
        assert_eq!(toks.last().unwrap().depth, 0);
    }
}
