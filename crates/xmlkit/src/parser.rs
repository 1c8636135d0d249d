//! The tree reader: [`parse`] and [`parse_preserving`] build an
//! [`XmlElement`] from the tokens of the crate's one lexer,
//! [`PullParser`].
//!
//! The lexer resolves namespace prefixes to URIs as it goes, so the
//! resulting tree carries expanded [`QName`]s and no longer depends on the
//! particular prefixes used on the wire. Namespace *declarations* are not
//! kept in the tree; the serialiser re-derives them (see [`crate::writer`]).
//! Names are interned into [`IStr`]s as the tree is built, so recurring
//! protocol names resolve to `Arc`-shared strings without allocating.

use crate::name::QName;
use crate::node::{Attribute, XmlElement, XmlNode};
use crate::pull::{PullParser, Token};
use dais_util::intern::{intern, IStr};
use std::fmt;

/// An XML well-formedness or namespace error, with 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub message: String,
    pub line: usize,
    pub column: usize,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Parse a document, dropping whitespace-only text nodes that sit between
/// elements (the right default for protocol messages).
pub fn parse(input: &str) -> Result<XmlElement, XmlError> {
    build(input, true)
}

/// Parse a document preserving all character data exactly.
pub fn parse_preserving(input: &str) -> Result<XmlElement, XmlError> {
    build(input, false)
}

/// Maximum element nesting depth. DAIS protocol messages are shallow;
/// the cap turns stack-exhaustion attacks from hostile documents into
/// clean parse errors (the XPath arena and serialiser recurse over
/// element depth).
pub const MAX_DEPTH: usize = 128;

fn qname(namespace: IStr, prefix: &str, local: &str) -> QName {
    QName { namespace, local: intern(local), prefix: intern(prefix) }
}

/// Build the tree from the lexer's tokens. Before the document element
/// the lexer yields only its start tag; after it, only the end of input.
fn build(input: &str, strip_ws: bool) -> Result<XmlElement, XmlError> {
    let mut lexer = PullParser::new(input)?;
    let mut root = None;
    while let Some(token) = lexer.step()? {
        if let Token::Start { namespace, prefix, local } = token {
            root = Some(read_element(&mut lexer, qname(namespace, prefix, local), strip_ws)?);
        }
    }
    root.map_or_else(|| lexer.err("no document element"), Ok)
}

/// The element whose start tag the lexer just read, through its end tag.
/// Recursion is bounded by the lexer's [`MAX_DEPTH`] check.
fn read_element(
    lexer: &mut PullParser<'_>,
    name: QName,
    strip_ws: bool,
) -> Result<XmlElement, XmlError> {
    let attributes = lexer
        .attrs
        .drain(..)
        .map(|a| Attribute {
            name: qname(a.namespace, a.prefix, a.local),
            value: a.value.into_owned(),
        })
        .collect();
    let mut element = XmlElement { name, attributes, children: Vec::new() };
    loop {
        let child = match lexer.step()? {
            Some(Token::Start { namespace, prefix, local }) => {
                XmlNode::Element(read_element(lexer, qname(namespace, prefix, local), strip_ws)?)
            }
            Some(Token::End) | None => return Ok(element),
            Some(Token::Text(t)) if strip_ws && t.trim().is_empty() => continue,
            Some(Token::Text(t)) => XmlNode::Text(t.into_owned()),
            Some(Token::CData(t)) => XmlNode::CData(t.to_owned()),
            Some(Token::Comment(t)) => XmlNode::Comment(t.to_owned()),
        };
        element.children.push(child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pull::PullEvent;
    use std::borrow::Cow;

    #[test]
    fn parses_simple_document() {
        let e = parse("<r><a>1</a><b/></r>").unwrap();
        assert_eq!(e.name.local, "r");
        assert_eq!(e.elements().count(), 2);
        assert_eq!(e.child("", "a").unwrap().text(), "1");
    }

    #[test]
    fn resolves_namespaces() {
        let e = parse("<p:r xmlns:p='urn:a' xmlns='urn:d'><c/><p:c/></p:r>").unwrap();
        assert!(e.name.is("urn:a", "r"));
        assert!(e.child("urn:d", "c").is_some());
        assert!(e.child("urn:a", "c").is_some());
        // An attribute prefix may be declared after its use in the tag.
        let e = parse("<r q:a='1' xmlns:q='urn:q'/>").unwrap();
        assert_eq!(e.attribute_ns("urn:q", "a"), Some("1"));
        assert_eq!(e.attributes[0].name.prefix, "q");
    }

    #[test]
    fn default_namespace_does_not_apply_to_attributes() {
        let e = parse("<r xmlns='urn:d' a='1'/>").unwrap();
        assert_eq!(e.attribute("a"), Some("1"));
        assert!(e.attribute_ns("urn:d", "a").is_none());
    }

    #[test]
    fn namespace_scoping_and_shadowing() {
        let e = parse("<r xmlns:p='urn:1'><c xmlns:p='urn:2'><p:x/></c><p:y/></r>").unwrap();
        let c = e.child("", "c").unwrap();
        assert!(c.child("urn:2", "x").is_some());
        assert!(e.child("urn:1", "y").is_some());
    }

    #[test]
    fn undeclared_prefix_is_an_error() {
        assert!(parse("<p:r/>").is_err());
        assert!(parse("<r p:a='1'/>").is_err());
    }

    #[test]
    fn entities_decode() {
        let e = parse("<r a='&lt;&amp;&quot;'>x &gt; y &#65;&#x42;</r>").unwrap();
        assert_eq!(e.attribute("a"), Some("<&\""));
        assert_eq!(e.text(), "x > y AB");
    }

    #[test]
    fn unknown_entity_is_error() {
        assert!(parse("<r>&nbsp;</r>").is_err());
    }

    #[test]
    fn cdata_sections() {
        let e = parse_preserving("<r><![CDATA[<not & parsed>]]></r>").unwrap();
        assert_eq!(e.text(), "<not & parsed>");
        assert!(matches!(e.children[0], XmlNode::CData(_)));
    }

    #[test]
    fn comments_preserved() {
        let e = parse("<r><!-- hi --><a/></r>").unwrap();
        assert!(matches!(e.children[0], XmlNode::Comment(_)));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn duplicate_attribute_error() {
        assert!(parse("<r a='1' a='2'/>").is_err());
    }

    #[test]
    fn whitespace_stripping_modes() {
        let src = "<r>\n  <a>x</a>\n</r>";
        assert_eq!(parse(src).unwrap().children.len(), 1);
        assert_eq!(parse_preserving(src).unwrap().children.len(), 3);
    }

    #[test]
    fn prolog_and_trailing_misc() {
        let e = parse("<?xml version='1.0'?>\n<!-- head --><r/><!-- tail -->\n").unwrap();
        assert_eq!(e.name.local, "r");
    }

    #[test]
    fn content_after_root_is_error() {
        assert!(parse("<r/><r/>").is_err());
    }

    #[test]
    fn doctype_rejected() {
        assert!(parse("<!DOCTYPE r><r/>").is_err());
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = parse("<r>\n  <bad").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_columns_are_tracked() {
        // Error surfaces at the unexpected '<' inside the attribute value,
        // column 7 of line 1 (1-based).
        let err = parse("<r a='<'/>").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));
    }

    #[test]
    fn text_coalesced_across_entities() {
        let e = parse("<r>a&amp;b</r>").unwrap();
        assert_eq!(e.children.len(), 1);
        assert_eq!(e.text(), "a&b");
    }

    /// A lexer positioned just after the document element's start tag.
    fn lexer_in_root(doc: &str) -> PullParser<'_> {
        let mut p = PullParser::new(doc).unwrap();
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Start { .. })));
        p
    }

    #[test]
    fn escape_free_text_lexes_borrowed() {
        let mut p = lexer_in_root("<r>plain segment</r>");
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Text(Cow::Borrowed("plain segment")))));
        let mut p = lexer_in_root("<r>a&amp;b</r>");
        assert!(matches!(p.next().unwrap(), Some(PullEvent::Text(Cow::Owned(_)))));
    }

    #[test]
    fn escape_free_attr_values_lex_borrowed() {
        let p = lexer_in_root("<r a='no escapes here'/>");
        assert!(matches!(p.attrs[0].value, Cow::Borrowed("no escapes here")));
        let p = lexer_in_root("<r a='one &lt; two'/>");
        assert!(matches!(p.attrs[0].value, Cow::Owned(_)));
    }

    #[test]
    fn parsed_names_are_interned() {
        use dais_util::intern::IStr;
        let a = parse("<Envelope xmlns='http://schemas.xmlsoap.org/soap/envelope/'/>").unwrap();
        let b = parse("<Envelope xmlns='http://schemas.xmlsoap.org/soap/envelope/'/>").unwrap();
        assert!(IStr::ptr_eq(&a.name.local, &b.name.local));
        assert!(IStr::ptr_eq(&a.name.namespace, &b.name.namespace));
    }

    #[test]
    fn multibyte_text_and_names_survive() {
        let e = parse("<r\u{e9}><c>caf\u{e9} \u{2603}</c></r\u{e9}>").unwrap();
        assert_eq!(e.name.local, "r\u{e9}");
        assert_eq!(e.child("", "c").unwrap().text(), "caf\u{e9} \u{2603}");
    }
}
