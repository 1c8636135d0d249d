//! XML serialisation.
//!
//! The tree model carries expanded names only, so the serialiser derives
//! the namespace declarations: walking the tree it keeps the in-scope
//! `prefix → uri` bindings and emits an `xmlns`/`xmlns:p` declaration at
//! the first element where a binding is needed. Prefixes come from each
//! [`QName`]'s preferred prefix; clashes (same prefix bound to a different
//! URI in scope) are resolved by generating `ns1`, `ns2`, ….
//!
//! Serialisation targets any [`XmlSink`] — `String` for the classic
//! [`to_string`] API, `Vec<u8>` for the wire path's
//! [`to_bytes_into`], which appends into a caller-supplied (typically
//! pooled) buffer after one [`estimated_size`] reservation so steady-state
//! traffic serialises without regrowth. [`XmlWriter`] streams a document
//! out element-by-element without ever building the tree; its output for
//! tree fragments (via [`XmlWriter::element`]) is byte-identical to the
//! tree serialiser because it *is* the tree serialiser, run in the
//! streamed scope.

use crate::name::QName;
use crate::node::{XmlElement, XmlNode};
use crate::pull::find_any;
use dais_util::intern::{intern, IStr};

/// Serialise compactly (no added whitespace).
pub fn to_string(element: &XmlElement) -> String {
    let mut out = String::with_capacity(estimated_size(element));
    write_element(&mut out, element, &mut base_scope());
    out
}

/// Serialise compactly, appending UTF-8 bytes to `out`. Produces exactly
/// the bytes of [`to_string`]; the buffer is grown once up front from the
/// size-estimation pass, so a reused (pooled) buffer reaches steady state
/// with no reallocation.
pub fn to_bytes_into(element: &XmlElement, out: &mut Vec<u8>) {
    out.reserve(estimated_size(element));
    write_element(out, element, &mut base_scope());
}

/// Estimate the compact serialised size of `element` in bytes: exact for
/// markup and escape-free content, slightly low when escaping or
/// namespace declarations expand the output. Used as a `reserve` hint.
pub fn estimated_size(element: &XmlElement) -> usize {
    let name = element.name.prefix.len() + element.name.local.len() + 1;
    // `<name ...>` + `</name>` (or `/>`), plus slack for declarations.
    let mut n = 2 * name + 6;
    for a in &element.attributes {
        // ` name="value"`
        n += a.name.prefix.len() + a.name.local.len() + a.value.len() + 5;
    }
    for c in &element.children {
        n += match c {
            XmlNode::Element(e) => estimated_size(e),
            XmlNode::Text(t) => t.len(),
            XmlNode::CData(t) => t.len() + 12,
            XmlNode::Comment(t) => t.len() + 7,
        };
    }
    n
}

/// An output target for the serialiser: `String` or `Vec<u8>` (UTF-8).
pub trait XmlSink {
    fn push_str(&mut self, s: &str);
    fn push(&mut self, c: char);
}

impl XmlSink for String {
    fn push_str(&mut self, s: &str) {
        self.push_str(s);
    }

    fn push(&mut self, c: char) {
        self.push(c);
    }
}

impl XmlSink for Vec<u8> {
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    fn push(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    }
}

/// Scope is a stack of (prefix, uri) bindings; later entries shadow earlier.
type Scope = Vec<(IStr, IStr)>;

fn base_scope() -> Scope {
    vec![(IStr::default(), IStr::default())]
}

fn lookup<'a>(scope: &'a Scope, prefix: &str) -> Option<&'a IStr> {
    scope.iter().rev().find(|(p, _)| *p == prefix).map(|(_, u)| u)
}

/// Choose a prefix for `name`, adding a declaration if necessary, and
/// return the prefix to serialise with.
fn assign_prefix(
    name: &QName,
    is_attribute: bool,
    scope: &mut Scope,
    decls: &mut Vec<(IStr, IStr)>,
) -> IStr {
    if name.namespace.is_empty() {
        // No namespace. For elements the default namespace must not be
        // bound to a URI in scope; if it is, that only happens when a
        // parent declared one — re-declare the empty default.
        if !is_attribute {
            if let Some(uri) = lookup(scope, "") {
                if !uri.is_empty() {
                    scope.push((IStr::default(), IStr::default()));
                    decls.push((IStr::default(), IStr::default()));
                }
            }
        }
        return IStr::default();
    }

    // Attributes cannot use the default (empty) prefix for a namespace.
    let preferred =
        if name.prefix.is_empty() && is_attribute { intern("ns") } else { name.prefix.clone() };

    // Already bound to the right URI?
    if lookup(scope, &preferred).is_some_and(|u| *u == name.namespace)
        && !(is_attribute && preferred.is_empty())
    {
        return preferred;
    }
    // Is some other prefix already bound to this URI?
    if let Some((p, _)) =
        scope.iter().rev().find(|(p, u)| *u == name.namespace && !(is_attribute && p.is_empty()))
    {
        // Make sure that binding is not shadowed.
        if lookup(scope, p).is_some_and(|u| *u == name.namespace) {
            return p.clone();
        }
    }
    // Need a new declaration; avoid clobbering an in-scope binding of
    // the preferred prefix to a different URI.
    let mut prefix = preferred;
    if !prefix.is_empty() && lookup(scope, &prefix).is_some() {
        let base = prefix.clone();
        let mut n = 1;
        while lookup(scope, &prefix).is_some() {
            prefix = IStr::from(format!("{base}{n}"));
            n += 1;
        }
    }
    scope.push((prefix.clone(), name.namespace.clone()));
    decls.push((prefix.clone(), name.namespace.clone()));
    prefix
}

fn push_name<S: XmlSink>(out: &mut S, prefix: &str, local: &str) {
    if !prefix.is_empty() {
        out.push_str(prefix);
        out.push(':');
    }
    out.push_str(local);
}

fn write_decls<S: XmlSink>(out: &mut S, decls: &[(IStr, IStr)]) {
    for (prefix, uri) in decls {
        if prefix.is_empty() {
            out.push_str(" xmlns=\"");
        } else {
            out.push_str(" xmlns:");
            out.push_str(prefix);
            out.push_str("=\"");
        }
        escape_into(uri, true, out);
        out.push('"');
    }
}

fn write_element<S: XmlSink>(out: &mut S, element: &XmlElement, scope: &mut Scope) {
    let scope_mark = scope.len();
    let mut decls: Vec<(IStr, IStr)> = Vec::new();

    // Resolve element prefix.
    let elem_prefix = assign_prefix(&element.name, false, scope, &mut decls);
    // Resolve attribute prefixes (attributes may not use the default ns).
    let attr_prefixes: Vec<IStr> = element
        .attributes
        .iter()
        .map(|a| assign_prefix(&a.name, true, scope, &mut decls))
        .collect();

    out.push('<');
    push_name(out, &elem_prefix, &element.name.local);
    write_decls(out, &decls);
    for (attr, prefix) in element.attributes.iter().zip(&attr_prefixes) {
        out.push(' ');
        push_name(out, prefix, &attr.name.local);
        out.push_str("=\"");
        escape_into(&attr.value, true, out);
        out.push('"');
    }

    if element.children.is_empty() {
        out.push_str("/>");
        scope.truncate(scope_mark);
        return;
    }
    out.push('>');
    for child in &element.children {
        match child {
            XmlNode::Element(e) => write_element(out, e, scope),
            XmlNode::Text(t) => escape_into(t, false, out),
            XmlNode::CData(t) => {
                out.push_str("<![CDATA[");
                out.push_str(t);
                out.push_str("]]>");
            }
            XmlNode::Comment(t) => {
                out.push_str("<!--");
                out.push_str(t);
                out.push_str("-->");
            }
        }
    }
    out.push_str("</");
    push_name(out, &elem_prefix, &element.name.local);
    out.push('>');
    scope.truncate(scope_mark);
}

/// A streaming, compact XML writer: open elements, write attributes and
/// text, close them — without building an [`XmlElement`] tree first.
///
/// Namespace handling matches the tree serialiser: declarations are
/// derived from the expanded names as they stream past, and whole tree
/// fragments written via [`element`](Self::element) come out byte-for-byte
/// as the tree serialiser would emit them in the same scope. The one
/// divergence is a *namespaced* attribute whose binding is not yet in
/// scope ([`attr_qname`](Self::attr_qname)): its declaration is emitted
/// inline, just before the attribute, rather than grouped with the
/// element-name declarations. Wire-path documents only use un-namespaced
/// attributes, so their streamed bytes are identical to the tree form.
///
/// The closing `>` of a start tag is deferred until content (or the
/// matching [`end`](Self::end)) arrives, so childless elements serialise
/// in the self-closing `<name/>` form exactly like the tree writer.
pub struct XmlWriter<'s, S: XmlSink> {
    out: &'s mut S,
    scope: Scope,
    frames: Vec<Frame>,
    tag_open: bool,
}

struct Frame {
    prefix: IStr,
    local: IStr,
    scope_mark: usize,
}

impl<'s, S: XmlSink> XmlWriter<'s, S> {
    /// A writer appending compact XML to `out`.
    pub fn new(out: &'s mut S) -> Self {
        XmlWriter { out, scope: base_scope(), frames: Vec::new(), tag_open: false }
    }

    /// Open an element; emits `<name` plus any namespace declaration the
    /// name needs. Attributes may follow until content is written.
    pub fn start(&mut self, name: &QName) {
        self.seal_tag();
        let scope_mark = self.scope.len();
        let mut decls: Vec<(IStr, IStr)> = Vec::new();
        let prefix = assign_prefix(name, false, &mut self.scope, &mut decls);
        self.out.push('<');
        push_name(self.out, &prefix, &name.local);
        write_decls(self.out, &decls);
        self.frames.push(Frame { prefix, local: name.local.clone(), scope_mark });
        self.tag_open = true;
    }

    /// Write an un-namespaced attribute on the just-opened element.
    pub fn attr(&mut self, name: &str, value: &str) {
        debug_assert!(self.tag_open, "attr() outside a start tag");
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_into(value, true, self.out);
        self.out.push('"');
    }

    /// Write a namespaced attribute on the just-opened element. A binding
    /// not yet in scope is declared inline before the attribute.
    pub fn attr_qname(&mut self, name: &QName, value: &str) {
        debug_assert!(self.tag_open, "attr_qname() outside a start tag");
        let mut decls: Vec<(IStr, IStr)> = Vec::new();
        let prefix = assign_prefix(name, true, &mut self.scope, &mut decls);
        write_decls(self.out, &decls);
        self.out.push(' ');
        push_name(self.out, &prefix, &name.local);
        self.out.push_str("=\"");
        escape_into(value, true, self.out);
        self.out.push('"');
    }

    /// Write escaped character data inside the current element.
    pub fn text(&mut self, text: &str) {
        self.seal_tag();
        escape_into(text, false, self.out);
    }

    /// Write a whole tree fragment as a child, in the streamed scope.
    pub fn element(&mut self, element: &XmlElement) {
        self.seal_tag();
        write_element(self.out, element, &mut self.scope);
    }

    /// Splice pre-serialised markup into the stream verbatim (no
    /// escaping). The fragment must be well-formed on its own and carry
    /// its own namespace declarations: the surrounding scope is neither
    /// consulted nor extended, so a fragment that relies on an outer
    /// binding — or declares a prefix the enclosing document also uses
    /// for a *different* URI — would serialise differently than the tree
    /// writer. Wire-path fragments (WS-DAIR response bodies) are
    /// self-contained, which is what makes envelope raw-body splicing
    /// byte-identical.
    pub fn raw(&mut self, fragment: &str) {
        self.seal_tag();
        self.out.push_str(fragment);
    }

    /// Write `value` escaped as attribute text: the value of an attribute
    /// whose name and opening quote were spliced with [`raw`](Self::raw),
    /// escaped exactly as [`attr`](Self::attr) escapes it.
    pub fn attr_text(&mut self, value: &str) {
        escape_into(value, true, self.out);
    }

    /// The prefix the innermost open element was written with: the one
    /// actually bound to its namespace in this scope, which is not the
    /// preferred prefix when that was taken (`wrs` → `wrs1`) or the
    /// namespace was already bound to another prefix. Empty for an
    /// unprefixed element, or when no element is open.
    pub fn prefix(&self) -> &str {
        self.frames.last().map_or("", |frame| &frame.prefix)
    }

    /// Close the current element: `/>` if it had no content, `</name>`
    /// otherwise. Bindings it declared go out of scope.
    pub fn end(&mut self) {
        #[expect(clippy::expect_used, reason = "an unbalanced end() is a caller bug")]
        let frame = self.frames.pop().expect("XmlWriter::end without a matching start");
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            self.out.push_str("</");
            push_name(self.out, &frame.prefix, &frame.local);
            self.out.push('>');
        }
        self.scope.truncate(frame.scope_mark);
    }

    /// Finish writing. Panics (debug) if elements remain open.
    pub fn finish(self) {
        debug_assert!(self.frames.is_empty(), "XmlWriter dropped with open elements");
    }

    fn seal_tag(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }
}

/// Escape text for element content or attribute values. Escape-free runs
/// are found a word at a time and copied as whole slices; only the
/// escaped byte itself is rewritten.
fn escape_into<S: XmlSink>(s: &str, in_attribute: bool, out: &mut S) {
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        let rest = &bytes[start..];
        let found = if in_attribute {
            find_any(rest, [b'&', b'<', b'>', b'"', b'\n', b'\t'])
        } else {
            find_any(rest, [b'&', b'<', b'>'])
        };
        let Some(i) = found else { break };
        let at = start + i;
        out.push_str(&s[start..at]);
        out.push_str(match bytes[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\n' => "&#10;",
            _ => "&#9;", // the last attribute needle
        });
        start = at + 1;
    }
    if start < s.len() {
        out.push_str(&s[start..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::XmlElement;

    fn roundtrip(e: &XmlElement) -> XmlElement {
        parse(&to_string(e)).unwrap()
    }

    #[test]
    fn simple_roundtrip() {
        let e = XmlElement::new_local("r")
            .with_attr("a", "v<&\"")
            .with_child(XmlElement::new_local("c").with_text("x & y < z"));
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn namespaced_roundtrip() {
        let e = XmlElement::new("urn:a", "p", "r")
            .with_child(XmlElement::new("urn:b", "q", "c").with_text("t"))
            .with_child(XmlElement::new("urn:a", "p", "d"));
        let rt = roundtrip(&e);
        assert_eq!(rt, e);
        // The second urn:a child should not trigger a new declaration.
        let s = to_string(&e);
        assert_eq!(s.matches("xmlns:p=").count(), 1);
    }

    #[test]
    fn default_namespace_emitted() {
        let e = XmlElement::new("urn:a", "", "r");
        let s = to_string(&e);
        assert!(s.contains("xmlns=\"urn:a\""), "{s}");
        assert_eq!(roundtrip(&e), e);
    }

    #[test]
    fn no_namespace_child_inside_default_ns_parent() {
        let e = XmlElement::new("urn:a", "", "r").with_child(XmlElement::new_local("c"));
        let rt = roundtrip(&e);
        assert_eq!(rt, e, "{}", to_string(&e));
    }

    #[test]
    fn prefix_clash_renames() {
        // Same preferred prefix bound to two URIs in nested scopes.
        let e = XmlElement::new("urn:a", "p", "r").with_child(XmlElement::new("urn:b", "p", "c"));
        let rt = roundtrip(&e);
        assert_eq!(rt, e, "{}", to_string(&e));
    }

    #[test]
    fn namespaced_attributes() {
        let mut e = XmlElement::new_local("r");
        e.set_attr_ns(crate::QName::new("urn:a", "p", "attr"), "v");
        let rt = roundtrip(&e);
        assert_eq!(rt.attribute_ns("urn:a", "attr"), Some("v"));
    }

    #[test]
    fn attribute_in_ns_with_empty_prefix_gets_generated_prefix() {
        let mut e = XmlElement::new_local("r");
        e.set_attr_ns(crate::QName::new("urn:a", "", "attr"), "v");
        let rt = roundtrip(&e);
        assert_eq!(rt.attribute_ns("urn:a", "attr"), Some("v"));
    }

    #[test]
    fn cdata_roundtrip() {
        let e = crate::parse_preserving("<r><![CDATA[a<b]]></r>").unwrap();
        let s = to_string(&e);
        assert!(s.contains("<![CDATA[a<b]]>"));
        assert_eq!(crate::parse_preserving(&s).unwrap(), e);
    }

    #[test]
    fn empty_element_uses_self_closing_form() {
        assert_eq!(to_string(&XmlElement::new_local("r")), "<r/>");
    }

    #[test]
    fn to_bytes_into_matches_to_string() {
        let e = XmlElement::new("urn:a", "p", "r")
            .with_attr("a", "x & y\n")
            .with_child(XmlElement::new("urn:b", "", "c").with_text("1 < 2"))
            .with_child(XmlElement::new_local("d"));
        let mut buf = Vec::new();
        to_bytes_into(&e, &mut buf);
        assert_eq!(buf, to_string(&e).into_bytes());
    }

    #[test]
    fn to_bytes_into_appends() {
        let mut buf = b"prefix:".to_vec();
        to_bytes_into(&XmlElement::new_local("r"), &mut buf);
        assert_eq!(buf, b"prefix:<r/>");
    }

    #[test]
    fn estimated_size_is_close_for_escape_free_documents() {
        let e = XmlElement::new_local("root")
            .with_attr("a", "value")
            .with_child(XmlElement::new_local("child").with_text("some text"));
        let actual = to_string(&e).len();
        let estimate = estimated_size(&e);
        assert!(estimate >= actual, "estimate {estimate} below actual {actual}");
        assert!(estimate <= actual + 16, "estimate {estimate} far above actual {actual}");
    }

    #[test]
    fn escaping_rewrites_each_special_byte_at_every_offset() {
        let reference = |s: &str, in_attribute: bool| -> String {
            s.chars()
                .map(|c| match c {
                    '&' => "&amp;".to_string(),
                    '<' => "&lt;".to_string(),
                    '>' => "&gt;".to_string(),
                    '"' if in_attribute => "&quot;".to_string(),
                    '\n' if in_attribute => "&#10;".to_string(),
                    '\t' if in_attribute => "&#9;".to_string(),
                    c => c.to_string(),
                })
                .collect()
        };
        for len in 1..20 {
            for at in 0..len {
                for special in ['&', '<', '>', '"', '\n', '\t', 'é'] {
                    let s: String = (0..len)
                        .map(|i| if i == at || i == len - 1 { special } else { 'x' })
                        .collect();
                    for in_attribute in [false, true] {
                        let mut out = String::new();
                        escape_into(&s, in_attribute, &mut out);
                        assert_eq!(out, reference(&s, in_attribute), "{s:?} {in_attribute}");
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_writer_matches_tree_writer() {
        // The envelope shape the wire path streams: nested namespaced
        // frames with tree fragments written inside them.
        let header = XmlElement::new("urn:wsa", "wsa", "To").with_text("bus://x");
        let payload = XmlElement::new("urn:req", "q", "Req")
            .with_attr("language", "urn:sql")
            .with_text("SELECT 'a<b&c'");

        let tree = XmlElement::new("urn:env", "env", "Envelope")
            .with_child(XmlElement::new("urn:env", "env", "Header").with_child(header.clone()))
            .with_child(XmlElement::new("urn:env", "env", "Body").with_child(payload.clone()));

        let mut streamed = String::new();
        let mut w = XmlWriter::new(&mut streamed);
        w.start(&QName::new("urn:env", "env", "Envelope"));
        w.start(&QName::new("urn:env", "env", "Header"));
        w.element(&header);
        w.end();
        w.start(&QName::new("urn:env", "env", "Body"));
        w.element(&payload);
        w.end();
        w.end();
        w.finish();
        assert_eq!(streamed, to_string(&tree));
    }

    #[test]
    fn streaming_writer_childless_elements_self_close() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.start(&QName::local("r"));
        w.start(&QName::local("empty"));
        w.attr("k", "a\"b");
        w.end();
        w.start(&QName::local("full"));
        w.text("x < y");
        w.end();
        w.end();
        w.finish();
        assert_eq!(out, "<r><empty k=\"a&quot;b\"/><full>x &lt; y</full></r>");
    }

    #[test]
    fn streaming_writer_scopes_namespace_declarations() {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.start(&QName::new("urn:a", "p", "r"));
        w.start(&QName::new("urn:a", "p", "c"));
        w.end();
        w.end();
        w.finish();
        // One declaration, on the root; the child reuses it.
        assert_eq!(out, "<p:r xmlns:p=\"urn:a\"><p:c/></p:r>");
    }
}
