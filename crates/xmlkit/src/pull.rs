//! The XML reader: a namespace-aware pull (event) parser.
//!
//! [`PullParser`] is the crate's one lexer. It yields a stream of
//! [`PullEvent`]s, so a reply decoder reads a 200 KB WebRowSet page cell
//! by cell as the bytes stream past and nothing outlives its event;
//! [`crate::parse`] builds its element tree from the same stream.
//!
//! The inner loop lexes over `&[u8]` and borrows from the input wherever
//! the bytes can be used verbatim:
//!
//! - name tokens are `&str` slices of the input;
//! - text segments and attribute values lex to [`Cow::Borrowed`] unless
//!   they contain an entity reference (the only case that needs rewriting);
//! - namespace scopes are a flat vector of `(prefix, uri)` bindings with
//!   per-element truncation marks instead of a stack of hash maps;
//! - line/column positions are computed lazily, only when an error is
//!   actually reported, so the hot path never counts newlines.
//!
//! Element and attribute names are resolved against the scope at their
//! start tag: an undeclared prefix or a malformed qualified name is an
//! error whoever reads the document. Nesting is capped at
//! [`crate::parser::MAX_DEPTH`].
//!
//! Whitespace-only text and comments are skipped and CDATA arrives as
//! text; meaningful whitespace travels in attributes on the DAIS wire, so
//! nothing is lost. The tree builder reads the unfiltered tokens instead.

use crate::parser::{XmlError, MAX_DEPTH};
use dais_util::intern::{intern, IStr};
use std::borrow::Cow;

/// One parse event. `Start` carries the resolved namespace and the
/// local name borrowed from the input; the element's attributes are
/// available through [`PullParser::attr`] until the next event.
#[derive(Debug, Clone, PartialEq)]
pub enum PullEvent<'a> {
    /// An element opened. For an empty element (`<x/>`), the matching
    /// [`PullEvent::End`] is delivered by the next call.
    Start { namespace: IStr, local: &'a str },
    /// Character data (text or CDATA) inside the current element.
    Text(Cow<'a, str>),
    /// The most recently opened element closed.
    End,
}

/// One lexical item before [`PullParser::next`] filters it: the tree
/// builder keeps the prefix, comments, CDATA sections and whitespace-only
/// text that the public event stream drops or folds into text.
pub(crate) enum Token<'a> {
    Start { namespace: IStr, prefix: &'a str, local: &'a str },
    Text(Cow<'a, str>),
    CData(&'a str),
    Comment(&'a str),
    End,
}

/// An attribute of the most recent start tag, its name resolved.
pub(crate) struct Attr<'a> {
    /// The name as written, for [`PullParser::attr`].
    pub(crate) raw: &'a str,
    pub(crate) namespace: IStr,
    pub(crate) prefix: &'a str,
    pub(crate) local: &'a str,
    pub(crate) value: Cow<'a, str>,
}

/// Namespace scope: a flat list of `(prefix, uri)` bindings beside the
/// stack of open elements, each recording where its declarations start.
/// Lookup walks the list backwards, so inner declarations shadow outer
/// ones; popping an element truncates back to its mark. No per-element
/// map allocation.
struct NsScope<'a> {
    bindings: Vec<(&'a str, IStr)>,
    /// Raw (prefixed) name of each open element, for close-tag checks,
    /// and its mark in `bindings`.
    open: Vec<(&'a str, usize)>,
    /// The empty namespace of unprefixed attributes.
    none: IStr,
}

impl<'a> NsScope<'a> {
    fn new() -> Self {
        let none = IStr::default();
        NsScope {
            bindings: vec![
                // The xml prefix is implicitly bound per the namespaces rec.
                ("xml", intern("http://www.w3.org/XML/1998/namespace")),
                // Default namespace: none.
                ("", none.clone()),
            ],
            open: Vec::new(),
            none,
        }
    }

    fn push(&mut self, name: &'a str) {
        self.open.push((name, self.bindings.len()));
    }

    fn pop(&mut self) {
        // The base scope (xml prefix, empty default) must survive, so an
        // unbalanced pop is a no-op rather than an empty list.
        if let Some((_, mark)) = self.open.pop() {
            self.bindings.truncate(mark);
        }
    }

    fn declare(&mut self, prefix: &'a str, uri: IStr) {
        self.bindings.push((prefix, uri));
    }

    /// Split a raw name into `(namespace, prefix, local)`. An unprefixed
    /// element takes the default namespace; an unprefixed attribute is in
    /// no namespace.
    fn resolve(&self, raw: &'a str, attribute: bool) -> Result<(IStr, &'a str, &'a str), String> {
        let (prefix, local) = match raw.split_once(':') {
            None => ("", raw),
            Some((p, l)) if !p.is_empty() && !l.is_empty() && !l.contains(':') => (p, l),
            _ => return Err(format!("malformed qualified name '{raw}'")),
        };
        if attribute && prefix.is_empty() {
            return Ok((self.none.clone(), prefix, local));
        }
        match self.bindings.iter().rev().find(|(p, _)| *p == prefix) {
            Some((_, uri)) => Ok((uri.clone(), prefix, local)),
            None => Err(format!("undeclared namespace prefix '{prefix}'")),
        }
    }
}

/// A byte that may start a name (and continue one).
const NAME_START: u8 = 1;
/// A byte that may continue a name but not start one.
const NAME_CHAR: u8 = 2;

/// How each byte may appear in a name; 0 ends one. Bytes of multibyte
/// characters (`>= 0x80`) are name bytes, so a name never ends inside
/// a character.
static NAME_BYTE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 {
            NAME_START
        } else if c.is_ascii_digit() || matches!(c, b'-' | b'.' | b':') {
            NAME_CHAR
        } else {
            0
        };
        b += 1;
    }
    table
};

/// The index of the first byte of `bytes` that is one of `needles`,
/// scanning a word at a time: a byte equal to `n` is a zero byte of
/// `word ^ n·0x0101…`, and the lowest zero byte of `x` is the lowest set
/// bit of `(x - 0x0101…) & !x & 0x8080…` (a borrow can only mark bytes
/// above a true zero). The lexer's text and attribute scans and the
/// writer's escaping share it.
pub(crate) fn find_any<const N: usize>(bytes: &[u8], needles: [u8; N]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let hits = needles.iter().fold(0, |hits, &n| {
            let x = word ^ (ONES * u64::from(n));
            hits | (x.wrapping_sub(ONES) & !x & (ONES << 7))
        });
        if hits != 0 {
            return Some(i * 8 + hits.trailing_zeros() as usize / 8);
        }
    }
    tail.iter().position(|b| needles.contains(b)).map(|i| words.len() * 8 + i)
}

/// The pull parser. Create with [`PullParser::new`], then drive with
/// [`next`](Self::next) until it returns `Ok(None)` (document done).
pub struct PullParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    scope: NsScope<'a>,
    /// The just-started element self-closed: deliver `End` next.
    pending_end: bool,
    /// The root element has closed; only trailing misc may remain.
    done: bool,
    /// Attributes of the most recent `Start` (xmlns declarations
    /// excluded — they go into the scope).
    pub(crate) attrs: Vec<Attr<'a>>,
}

impl<'a> PullParser<'a> {
    /// Start parsing a document; consumes the prolog immediately.
    pub fn new(input: &'a str) -> Result<Self, XmlError> {
        let mut p = PullParser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            scope: NsScope::new(),
            pending_end: false,
            done: false,
            attrs: Vec::new(),
        };
        p.skip_prolog()?;
        Ok(p)
    }

    /// The next event, or `None` when the document is fully consumed.
    /// Not `Iterator::next`: events borrow the input and errors must
    /// surface per call, which the trait's signature cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<PullEvent<'a>>, XmlError> {
        loop {
            let event = match self.lex::<true>()? {
                None => return Ok(None),
                Some(Token::Start { namespace, local, .. }) => {
                    PullEvent::Start { namespace, local }
                }
                Some(Token::Text(t)) => PullEvent::Text(t),
                Some(Token::CData(t)) => PullEvent::Text(Cow::Borrowed(t)),
                Some(Token::Comment(_)) => continue,
                Some(Token::End) => PullEvent::End,
            };
            return Ok(Some(event));
        }
    }

    /// Look up an attribute of the most recent `Start` event by its raw
    /// (as-written) name. Valid until the next call to `next`.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|a| a.raw == name).map(|a| a.value.as_ref())
    }

    /// Skip the rest of the current element: consumes events until the
    /// `End` matching the most recent `Start` has been delivered.
    pub fn skip_element(&mut self) -> Result<(), XmlError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.lex::<true>()? {
                Some(Token::Start { .. }) => depth += 1,
                Some(Token::End) => depth -= 1,
                Some(_) => {}
                None => return self.err("unexpected end of input while skipping an element"),
            }
        }
        Ok(())
    }

    /// The current element's character data, consuming its `End`:
    /// borrowed from the input when it is a single segment, accumulated
    /// across segments (entities, CDATA, comments) otherwise. Child
    /// elements are rejected — this is for leaf cells whose content is
    /// text only.
    pub fn text_content(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let mut text = Cow::Borrowed("");
        loop {
            let segment = match self.lex::<true>()? {
                Some(Token::Text(t)) => t,
                Some(Token::CData(t)) => Cow::Borrowed(t),
                Some(Token::Comment(_)) => continue,
                Some(Token::End) => return Ok(text),
                Some(Token::Start { local, .. }) => {
                    return self.err(format!("unexpected child element <{local}> in a text cell"))
                }
                None => return self.err("unexpected end of input in a text cell"),
            };
            if text.is_empty() {
                text = segment;
            } else {
                text.to_mut().push_str(&segment);
            }
        }
    }

    /// The raw (as-written) name of the innermost open element.
    pub fn open_name(&self) -> Option<&'a str> {
        self.scope.open.last().map(|&(name, _)| name)
    }

    /// Open the element if the input continues with exactly
    /// `<prefix:local>` (`<local>` for an empty prefix), as
    /// [`next`](Self::next) would: the scope grows and the attributes
    /// clear. Otherwise consume nothing and return false. The caller
    /// vouches that `prefix` is bound to the namespace it means.
    pub fn open_exact(&mut self, prefix: &str, local: &str) -> bool {
        let Some(end) = self.exact_start(prefix, local) else { return false };
        self.scope.push(&self.text[self.pos + 1..end - 1]);
        self.attrs.clear();
        self.pos = end;
        true
    }

    /// Read `<prefix:local>text</prefix:local>`, its text one escape-free
    /// segment, as one leaf that clears the attributes, or consume nothing
    /// and return `None`. Whitespace-only text reads as `""`, as
    /// [`text_content`](Self::text_content) reads it.
    pub fn exact_leaf(&mut self, prefix: &str, local: &str) -> Option<&'a str> {
        let start = self.exact_start(prefix, local)?;
        let len = find_any(&self.bytes[start..], [b'<', b'&'])?;
        let end = self.exact_tag(start + len, b"</", prefix, local)?;
        let text = &self.text[start..start + len];
        self.attrs.clear();
        self.pos = end;
        self.done = self.scope.open.is_empty();
        // `trim` only where the first byte is not a visible ASCII one.
        let blank = !text.bytes().next().is_some_and(|b| b.is_ascii_graphic());
        Some(if blank && text.trim().is_empty() { "" } else { text })
    }

    /// The end of `<prefix:local>` at the current position; `None`
    /// wherever the general path would first owe an `End`, read trailing
    /// misc or refuse the depth, so an exact step never accepts what it
    /// refuses.
    fn exact_start(&self, prefix: &str, local: &str) -> Option<usize> {
        if self.pending_end || self.done || self.scope.open.len() >= MAX_DEPTH {
            return None;
        }
        self.exact_tag(self.pos, b"<", prefix, local)
    }

    /// The end of `lt` `prefix:local` `>` if the input holds exactly it at
    /// `at`, matched piecewise.
    fn exact_tag(&self, at: usize, lt: &[u8], prefix: &str, local: &str) -> Option<usize> {
        let mut rest = self.bytes.get(at..)?.strip_prefix(lt)?;
        if !prefix.is_empty() {
            rest = rest.strip_prefix(prefix.as_bytes())?.strip_prefix(b":")?;
        }
        rest = rest.strip_prefix(local.as_bytes())?.strip_prefix(b">")?;
        Some(self.bytes.len() - rest.len())
    }

    /// The next token, unfiltered, or `None` once the document element
    /// has closed and only whitespace and comments followed it.
    pub(crate) fn step(&mut self) -> Result<Option<Token<'a>>, XmlError> {
        self.lex::<false>()
    }

    /// [`step`](Self::step); with `FILTER`, comments and whitespace-only
    /// text are consumed here instead of handed back, so each
    /// [`next`](Self::next) on the reply decoders' hot path is one pass.
    fn lex<const FILTER: bool>(&mut self) -> Result<Option<Token<'a>>, XmlError> {
        if self.pending_end {
            self.pending_end = false;
            return Ok(Some(self.close()));
        }
        if self.done {
            // Trailing misc: whitespace and comments only.
            loop {
                self.skip_ws();
                if !self.starts_with("<!--") {
                    break;
                }
                self.parse_comment()?;
            }
            if self.pos != self.bytes.len() {
                return self.err("content after document element");
            }
            return Ok(None);
        }
        loop {
            // After the prolog, only the document element's start tag may come.
            let Some(&(name, _)) = self.scope.open.last() else {
                return self.parse_start_tag().map(Some);
            };
            return match self.peek() {
                Some(b'<') => match self.bytes.get(self.pos + 1) {
                    Some(b'/') => {
                        self.advance(2);
                        self.close_tag_name(name)?;
                        self.skip_ws();
                        self.expect(b'>')?;
                        Ok(Some(self.close()))
                    }
                    Some(b'!') if self.starts_with("<!--") => {
                        let comment = self.parse_comment()?;
                        if FILTER {
                            continue;
                        }
                        Ok(Some(Token::Comment(comment)))
                    }
                    Some(b'!') if self.starts_with("<![CDATA[") => {
                        self.advance(9);
                        let start = self.pos;
                        let Some(end) = self.find("]]>") else {
                            self.pos = self.bytes.len();
                            return self.err("unterminated CDATA section");
                        };
                        self.pos = end + 3;
                        Ok(Some(Token::CData(&self.text[start..end])))
                    }
                    _ => self.parse_start_tag().map(Some),
                },
                Some(_) => {
                    let text = self.parse_text()?;
                    if FILTER && text.trim().is_empty() {
                        continue;
                    }
                    Ok(Some(Token::Text(text)))
                }
                None => self.err(format!("unexpected end of input inside <{name}>")),
            };
        }
    }

    /// Pop the innermost open element.
    fn close(&mut self) -> Token<'a> {
        self.scope.pop();
        self.done = self.scope.open.is_empty();
        Token::End
    }

    /// Report an error at the current position. Line/column are derived
    /// here, on the cold path, by one scan of the consumed prefix.
    pub(crate) fn err<T>(&self, msg: impl Into<String>) -> Result<T, XmlError> {
        let upto = &self.bytes[..self.pos];
        let line = 1 + upto.iter().filter(|&&b| b == b'\n').count();
        let column = match upto.iter().rposition(|&b| b == b'\n') {
            Some(nl) => self.pos - nl,
            None => self.pos + 1,
        };
        Err(XmlError { message: msg.into(), line, column })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    /// Byte offset of the next occurrence of `delim` at or after the
    /// current position, if any.
    fn find(&self, delim: &str) -> Option<usize> {
        let d = delim.as_bytes();
        self.bytes[self.pos..].windows(d.len()).position(|w| w == d).map(|i| self.pos + i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn skip_prolog(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?xml") {
                match self.find("?>") {
                    Some(end) => self.pos = end + 2,
                    None => {
                        self.pos = self.bytes.len();
                        return self.err("unterminated XML declaration");
                    }
                }
            } else if self.starts_with("<!--") {
                self.parse_comment()?;
            } else if self.starts_with("<!DOCTYPE") {
                return self.err("DOCTYPE is not supported");
            } else {
                return Ok(());
            }
        }
    }

    fn parse_comment(&mut self) -> Result<&'a str, XmlError> {
        self.advance(4); // <!--
        let start = self.pos;
        match self.find("-->") {
            Some(end) => {
                self.pos = end + 3;
                Ok(&self.text[start..end])
            }
            None => {
                self.pos = self.bytes.len();
                self.err("unterminated comment")
            }
        }
    }

    /// Parse a name token (possibly prefixed), borrowed from the input.
    /// Names end at an ASCII delimiter, so the slice boundaries always
    /// fall on character boundaries.
    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        if self.bytes.get(start).is_none_or(|&b| NAME_BYTE[b as usize] != NAME_START) {
            return self.err("expected a name");
        }
        let rest = &self.bytes[start + 1..];
        let len = rest.iter().position(|&b| NAME_BYTE[b as usize] == 0).unwrap_or(rest.len());
        self.pos = start + 1 + len;
        Ok(&self.text[start..self.pos])
    }

    /// Consume the name of a close tag, which must be `open`, the raw
    /// name of the innermost open element. The common case is one slice
    /// compare; anything else is lexed as a name, so a mismatch reports
    /// what [`parse_name`](Self::parse_name) would have read.
    fn close_tag_name(&mut self, open: &str) -> Result<(), XmlError> {
        let end = self.pos + open.len();
        if self.bytes.get(self.pos..end) == Some(open.as_bytes())
            && self.bytes.get(end).is_none_or(|&b| NAME_BYTE[b as usize] == 0)
        {
            self.pos = end;
            return Ok(());
        }
        let close = self.parse_name()?;
        if close != open {
            return self.err(format!("mismatched close tag </{close}> for <{open}>"));
        }
        Ok(())
    }

    fn parse_start_tag(&mut self) -> Result<Token<'a>, XmlError> {
        if self.scope.open.len() >= MAX_DEPTH {
            return self.err(format!("element nesting exceeds the maximum depth of {MAX_DEPTH}"));
        }
        self.expect(b'<')?;
        let raw_name = self.parse_name()?;
        self.scope.push(raw_name);
        self.attrs.clear();
        // Collect attributes as written, registering xmlns declarations;
        // names resolve once the whole tag's declarations are in scope.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                Some(_) => {
                    let an = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let av = self.parse_attr_value()?;
                    if an == "xmlns" {
                        self.scope.declare("", intern(&av));
                    } else if let Some(p) = an.strip_prefix("xmlns:") {
                        if p.is_empty() {
                            return self.err("empty namespace prefix declaration");
                        }
                        if av.is_empty() {
                            return self.err("cannot bind a prefix to the empty namespace");
                        }
                        self.scope.declare(p, intern(&av));
                    } else {
                        if self.attrs.iter().any(|a| a.raw == an) {
                            return self.err(format!("duplicate attribute '{an}'"));
                        }
                        let namespace = self.scope.none.clone();
                        self.attrs.push(Attr {
                            raw: an,
                            namespace,
                            prefix: "",
                            local: an,
                            value: av,
                        });
                    }
                }
                None => return self.err("unexpected end of input in tag"),
            }
        }
        let (namespace, prefix, local) = match self.scope.resolve(raw_name, false) {
            Ok(name) => name,
            Err(msg) => return self.err(msg),
        };
        let scope = &self.scope;
        let resolved = self.attrs.iter_mut().try_for_each(|a| {
            (a.namespace, a.prefix, a.local) = scope.resolve(a.raw, true)?;
            Ok::<(), String>(())
        });
        if let Err(msg) = resolved {
            return self.err(msg);
        }
        if self.peek() == Some(b'/') {
            self.pos += 1;
            self.expect(b'>')?;
            self.pending_end = true;
        } else {
            self.expect(b'>')?;
        }
        Ok(Token::Start { namespace, prefix, local })
    }

    /// Character data up to the next `<`. Escape-free segments borrow
    /// straight from the input; only entity references force a rebuild.
    fn parse_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let start = self.pos;
        self.pos = self.scan_to([b'<', b'&']);
        if self.peek() != Some(b'&') {
            return Ok(Cow::Borrowed(&self.text[start..self.pos]));
        }
        // A reference is never shorter than the character it stands
        // for, so the raw segment bounds the decoded one.
        let mut out = String::with_capacity(self.scan_to([b'<']) - start);
        out.push_str(&self.text[start..self.pos]);
        while self.peek() == Some(b'&') {
            out.push(self.parse_entity()?);
            let run = self.pos;
            self.pos = self.scan_to([b'<', b'&']);
            out.push_str(&self.text[run..self.pos]);
        }
        Ok(Cow::Owned(out))
    }

    /// The offset of the first of `needles` at or after the current
    /// position, or the end of input.
    fn scan_to<const N: usize>(&self, needles: [u8; N]) -> usize {
        find_any(&self.bytes[self.pos..], needles).map_or(self.bytes.len(), |i| self.pos + i)
    }

    /// A quoted attribute value. Escape-free values borrow straight from
    /// the input; only entity references force a rebuild.
    fn parse_attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                q
            }
            _ => return self.err("expected quoted attribute value"),
        };
        let start = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            let run = self.pos;
            self.pos = self.scan_to([quote, b'&', b'<']);
            match self.peek() {
                Some(b'&') => {
                    let out = decoded.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    out.push(self.parse_entity()?);
                }
                Some(b'<') => return self.err("'<' is not allowed in attribute values"),
                Some(_) => {
                    let value = match decoded {
                        None => Cow::Borrowed(&self.text[start..self.pos]),
                        Some(mut out) => {
                            out.push_str(&self.text[run..self.pos]);
                            Cow::Owned(out)
                        }
                    };
                    self.pos += 1;
                    return Ok(value);
                }
                None => return self.err("unterminated attribute value"),
            }
        }
    }

    fn parse_entity(&mut self) -> Result<char, XmlError> {
        self.expect(b'&')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                break;
            }
            if self.pos - start > 10 {
                return self.err("unterminated entity reference");
            }
            self.pos += 1;
        }
        let name = &self.text[start..self.pos];
        self.expect(b';')?;
        match name {
            "amp" => Ok('&'),
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "quot" => Ok('"'),
            "apos" => Ok('\''),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or(())
                    .or_else(|_| self.err(format!("invalid character reference &{name};")))
            }
            _ if name.starts_with('#') => name[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or(())
                .or_else(|_| self.err(format!("invalid character reference &{name};"))),
            _ => self.err(format!("unknown entity &{name};")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(input: &str) -> Vec<String> {
        let mut p = PullParser::new(input).unwrap();
        let mut out = Vec::new();
        while let Some(ev) = p.next().unwrap() {
            out.push(match ev {
                PullEvent::Start { namespace, local } => format!("<{namespace}|{local}"),
                PullEvent::Text(t) => format!("'{t}'"),
                PullEvent::End => ">".to_string(),
            });
        }
        out
    }

    #[test]
    fn simple_event_stream() {
        assert_eq!(drain("<r><a>1</a><b/></r>"), ["<|r", "<|a", "'1'", ">", "<|b", ">", ">"]);
    }

    #[test]
    fn namespaces_resolve_and_scope() {
        let evs = drain("<p:r xmlns:p='urn:a' xmlns='urn:d'><c/><p:c/></p:r>");
        assert_eq!(evs, ["<urn:a|r", "<urn:d|c", ">", "<urn:a|c", ">", ">"]);
    }

    #[test]
    fn attributes_are_available_after_start() {
        let mut p = PullParser::new("<r a='1' b='x &amp; y'><c/></r>").unwrap();
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { .. })));
        assert_eq!(p.attr("a"), Some("1"));
        assert_eq!(p.attr("b"), Some("x & y"));
        assert_eq!(p.attr("missing"), None);
        // Attrs are replaced by the next Start.
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { .. })));
        assert_eq!(p.attr("a"), None);
    }

    #[test]
    fn entities_decode_in_text() {
        assert_eq!(drain("<r>x &gt; y &#65;&#x42;</r>"), ["<|r", "'x > y AB'", ">"]);
    }

    #[test]
    fn whitespace_between_elements_is_skipped() {
        assert_eq!(drain("<r>\n  <a>x</a>\n</r>"), ["<|r", "<|a", "'x'", ">", ">"]);
    }

    #[test]
    fn comments_and_cdata() {
        assert_eq!(
            drain("<!-- head --><r><!-- mid --><![CDATA[a<b]]></r><!-- tail -->"),
            ["<|r", "'a<b'", ">"]
        );
    }

    #[test]
    fn skip_element_consumes_the_subtree() {
        let mut p = PullParser::new("<r><skip><deep><er/>text</deep></skip><keep/></r>").unwrap();
        p.next().unwrap(); // <r
        p.next().unwrap(); // <skip
        p.skip_element().unwrap();
        match p.next().unwrap() {
            Some(PullEvent::Start { local, .. }) => assert_eq!(local, "keep"),
            other => panic!("expected <keep>, got {other:?}"),
        }
    }

    #[test]
    fn text_content_borrows_one_segment_and_accumulates_several() {
        let mut p = PullParser::new(
            "<r><c>plain</c><c>a&amp;b</c><c>x<!-- c --><![CDATA[<y>]]>z</c><c/></r>",
        )
        .unwrap();
        p.next().unwrap(); // <r
        let mut cells = Vec::new();
        while let Some(PullEvent::Start { .. }) = p.next().unwrap() {
            cells.push(p.text_content().unwrap());
        }
        assert!(matches!(cells[0], Cow::Borrowed("plain")));
        assert_eq!(cells, ["plain", "a&b", "x<y>z", ""]);
        assert!(p.next().unwrap().is_none()); // </r> came as the loop's End
        let mut p = PullParser::new("<r><c>t<d/></c></r>").unwrap();
        p.next().unwrap();
        p.next().unwrap();
        assert!(p.text_content().unwrap_err().message.contains("child element <d>"));
    }

    #[test]
    fn exact_steps_take_only_the_exact_shape() {
        let mut p = PullParser::new(
            "<w:r xmlns:w='urn:w' a='1'><w:row><w:c>1</w:c><w:c> \n</w:c><w:c>a&amp;b</w:c>\
             <w:c a='2'>x</w:c><w:c>y</w:c ></w:row><w:row/><w:row><w:c/></w:row>\
             <w:row b='3'><w:c>z</w:c></w:row></w:r>",
        )
        .unwrap();
        p.next().unwrap();
        assert_eq!((p.open_name(), p.attr("a")), (Some("w:r"), Some("1")));
        assert!(!p.open_exact("w", "ro") && !p.open_exact("", "row"));
        assert!(p.open_exact("w", "row"));
        assert_eq!((p.open_name(), p.attr("a")), (Some("w:row"), None));
        assert_eq!(p.exact_leaf("w", "c"), Some("1"));
        assert_eq!(p.exact_leaf("w", "c"), Some(""), "whitespace reads as text_content does");
        // An entity, an attribute, a spaced close tag: the general path.
        for (text, attr) in [("a&b", None), ("x", Some("2")), ("y", None)] {
            assert_eq!(p.exact_leaf("w", "c"), None);
            assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { local: "c", .. })));
            assert_eq!((p.text_content().unwrap().as_ref(), p.attr("a")), (text, attr));
        }
        assert_eq!(p.exact_leaf("w", "c"), None, "the row's end tag comes first");
        assert_eq!(p.next().unwrap(), Some(PullEvent::End));
        // A self-closed row is the general path's, and so is the `End` it
        // owes before the next row may open.
        assert!(!p.open_exact("w", "row"));
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { local: "row", .. })));
        assert!(!p.open_exact("w", "row"));
        assert_eq!(p.next().unwrap(), Some(PullEvent::End));
        assert!(p.open_exact("w", "row"));
        assert_eq!(p.exact_leaf("w", "c"), None);
        p.skip_element().unwrap();
        // A leaf read through the exact step clears its row's attributes.
        assert!(!p.open_exact("w", "row"));
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { local: "row", .. })));
        assert_eq!(p.attr("b"), Some("3"));
        assert_eq!((p.exact_leaf("w", "c"), p.attr("b")), (Some("z"), None));

        // Nothing opens after the document element has closed.
        let mut p = PullParser::new("<r/><c>1</c>").unwrap();
        p.next().unwrap();
        p.next().unwrap();
        assert!(p.exact_leaf("", "c").is_none() && !p.open_exact("", "c"));
        assert!(p.next().unwrap_err().message.contains("after document element"));
        // Nor past the depth cap.
        let deep = "<d>".repeat(MAX_DEPTH) + "<c>1</c>";
        let mut p = PullParser::new(&deep).unwrap();
        for _ in 0..MAX_DEPTH {
            p.next().unwrap();
        }
        assert!(p.exact_leaf("", "c").is_none() && !p.open_exact("", "c"));
        assert!(p.next().unwrap_err().message.contains("depth"));
    }

    /// The result of reading `doc` to its end: `Ok` or the error message.
    fn verdict(doc: &str) -> Result<(), String> {
        let mut p = PullParser::new(doc).map_err(|e| e.message)?;
        while p.next().map_err(|e| e.message)?.is_some() {}
        Ok(())
    }

    #[test]
    fn close_tags_match_whole_names() {
        for (doc, expected) in [
            ("<a></a>", Ok(())),
            ("<a></a \n>", Ok(())),
            ("<a></ab>", Err("mismatched close tag </ab> for <a>")),
            ("<ab></a>", Err("mismatched close tag </a> for <ab>")),
            ("<a></a.b>", Err("mismatched close tag </a.b> for <a>")),
            ("<a></a:b>", Err("mismatched close tag </a:b> for <a>")),
            ("<a></é>", Err("mismatched close tag </é> for <a>")),
            ("<a></aé>", Err("mismatched close tag </aé> for <a>")),
            ("<a></>", Err("expected a name")),
            ("<a></a", Err("expected '>'")),
            ("<a></a/>", Err("expected '>'")),
        ] {
            assert_eq!(verdict(doc), expected.map_err(String::from), "{doc}");
        }
    }

    #[test]
    fn word_scans_find_delimiters_at_every_offset() {
        for len in 0..20 {
            for at in 0..=len {
                let expected = format!("{}&{}", "x".repeat(at), "y".repeat(len - at));
                let raw = expected.replace('&', "&amp;");
                let doc = format!("<r a='{raw}' b=\"{}\">{raw}</r>", "z".repeat(len));
                let mut p = PullParser::new(&doc).unwrap();
                p.next().unwrap();
                assert_eq!(p.attr("a"), Some(expected.as_str()));
                assert_eq!(p.attr("b"), Some("z".repeat(len).as_str()));
                assert_eq!(p.next().unwrap(), Some(PullEvent::Text(Cow::Owned(expected))));
                let bad = format!("<r a='{}<'/>", "x".repeat(at));
                let err = PullParser::new(&bad).unwrap().next().unwrap_err();
                assert_eq!(
                    (err.message.as_str(), err.column),
                    ("'<' is not allowed in attribute values", at + 7)
                );
            }
        }
    }

    #[test]
    fn malformed_documents_error() {
        for bad in [
            "<r><a></r></a>",
            "<r a='1' a='2'/>",
            "<p:r/>",
            "<r>&nbsp;</r>",
            "<r/><r/>",
            "<!DOCTYPE r><r/>",
            "<r",
            "<r p:a='1'/>",
            "<r a:='1'/>",
            "<r a:b:c='1'/>",
            "<r xmlns:p='urn:p' p:a='1' q:b='2'/>",
        ] {
            let mut p = match PullParser::new(bad) {
                Ok(p) => p,
                Err(_) => continue,
            };
            let mut errored = false;
            for _ in 0..64 {
                match p.next() {
                    Err(_) => {
                        errored = true;
                        break;
                    }
                    Ok(None) => break,
                    Ok(Some(_)) => {}
                }
            }
            assert!(errored, "expected a parse error for {bad:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let mut doc = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            doc.push_str("<d>");
        }
        let mut p = PullParser::new(&doc).unwrap();
        let mut errored = false;
        for _ in 0..(MAX_DEPTH + 4) {
            if let Err(e) = p.next() {
                assert!(e.message.contains("depth"), "{e}");
                errored = true;
                break;
            }
        }
        assert!(errored);
    }

    #[test]
    fn agrees_with_the_tree_parser_on_wire_shaped_documents() {
        // The streamed decoder and the tree parser must see the same
        // logical content for the document shapes the wire produces.
        let doc = "<w:root xmlns:w='urn:w'><w:row a='1'><w:cell>v &lt; 2</w:cell>\
                   <w:cell null='true'/></w:row></w:root>";
        let tree = crate::parse(doc).unwrap();
        assert_eq!(
            drain(doc),
            [
                "<urn:w|root",
                "<urn:w|row",
                "<urn:w|cell",
                "'v < 2'",
                ">",
                "<urn:w|cell",
                ">",
                ">",
                ">"
            ]
        );
        assert_eq!(tree.name.local, "root");
    }
}
