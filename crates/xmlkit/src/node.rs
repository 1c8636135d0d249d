//! The XML tree model: elements, attributes and child nodes.

use crate::name::QName;
use dais_util::intern::IStr;

/// An attribute on an element. Attribute names follow the same expanded
/// naming rules as element names; un-prefixed attributes are in no
/// namespace (per the XML namespaces recommendation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    pub name: QName,
    pub value: String,
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    Element(XmlElement),
    /// Character data (entity references already resolved).
    Text(String),
    /// A CDATA section; semantically text, kept distinct so serialisation
    /// can preserve the section form.
    CData(String),
    Comment(String),
}

impl XmlNode {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&XmlElement> {
        match self {
            XmlNode::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The textual content if this node is text or CDATA.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            XmlNode::Text(t) | XmlNode::CData(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: a name, attributes and ordered children.
///
/// Elements are plain values: cheap to build, clone and compare. Structural
/// equality ignores nothing — two elements are equal iff names, attributes
/// (in order) and children (in order) are equal. Protocol code that wants
/// whitespace-insensitive comparison should parse with [`crate::parse`]
/// (which drops ignorable whitespace) or call [`XmlElement::normalized`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    pub name: QName,
    pub attributes: Vec<Attribute>,
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Create an empty element in no namespace.
    pub fn new_local(local: impl Into<IStr>) -> Self {
        XmlElement { name: QName::local(local), ..Default::default() }
    }

    /// Create an empty element with a namespaced name.
    pub fn new(
        namespace: impl Into<IStr>,
        prefix: impl Into<IStr>,
        local: impl Into<IStr>,
    ) -> Self {
        XmlElement { name: QName::new(namespace, prefix, local), ..Default::default() }
    }

    /// Builder: add an attribute (no namespace) and return `self`.
    pub fn with_attr(mut self, name: impl Into<IStr>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element and return `self`.
    pub fn with_child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Builder: append a text node and return `self`.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Set (or replace) an un-namespaced attribute.
    pub fn set_attr(&mut self, name: impl Into<IStr>, value: impl Into<String>) {
        let name = QName::local(name);
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute { name, value });
        }
    }

    /// Set (or replace) a namespaced attribute.
    pub fn set_attr_ns(&mut self, name: QName, value: impl Into<String>) {
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute { name, value });
        }
    }

    /// Look up an un-namespaced attribute value.
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name.namespace.is_empty() && a.name.local == name)
            .map(|a| a.value.as_str())
    }

    /// Look up a namespaced attribute value.
    pub fn attribute_ns(&self, namespace: &str, local: &str) -> Option<&str> {
        self.attributes.iter().find(|a| a.name.is(namespace, local)).map(|a| a.value.as_str())
    }

    /// Append a child element.
    pub fn push(&mut self, child: XmlElement) {
        self.children.push(XmlNode::Element(child));
    }

    /// Append a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(XmlNode::Text(text.into()));
    }

    /// Iterate over child elements.
    pub fn elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// First child element with the given expanded name.
    pub fn child(&self, namespace: &str, local: &str) -> Option<&XmlElement> {
        self.elements().find(|e| e.name.is(namespace, local))
    }

    /// All child elements with the given expanded name.
    pub fn children_named<'a>(
        &'a self,
        namespace: &'a str,
        local: &'a str,
    ) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.elements().filter(move |e| e.name.is(namespace, local))
    }

    /// The *string value* of this element per XPath: the concatenation of
    /// all descendant text, in document order.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                XmlNode::Text(t) | XmlNode::CData(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
                XmlNode::Comment(_) => {}
            }
        }
    }

    /// Text of the first child element with the given expanded name, if any.
    pub fn child_text(&self, namespace: &str, local: &str) -> Option<String> {
        self.child(namespace, local).map(XmlElement::text)
    }

    /// A copy with whitespace-only text nodes removed (recursively) and
    /// remaining text trimmed when it sits beside element siblings. This
    /// yields the canonical form used for message comparison in tests.
    pub fn normalized(&self) -> XmlElement {
        let has_elem = self.children.iter().any(|c| matches!(c, XmlNode::Element(_)));
        let mut out = XmlElement {
            name: self.name.clone(),
            attributes: self.attributes.clone(),
            children: Vec::with_capacity(self.children.len()),
        };
        for c in &self.children {
            match c {
                XmlNode::Element(e) => out.children.push(XmlNode::Element(e.normalized())),
                XmlNode::Text(t) | XmlNode::CData(t) => {
                    if t.trim().is_empty() {
                        // Whitespace-only text is never significant in
                        // protocol messages (matches `parse`'s default).
                    } else if has_elem {
                        out.children.push(XmlNode::Text(t.trim().to_string()));
                    } else {
                        out.children.push(XmlNode::Text(t.clone()));
                    }
                }
                XmlNode::Comment(_) => {}
            }
        }
        out
    }

    /// Number of descendant nodes (elements + text + comments), used by
    /// size-sensitive experiments.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(|c| match c {
                XmlNode::Element(e) => e.node_count(),
                _ => 1,
            })
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XmlElement {
        XmlElement::new_local("root")
            .with_attr("id", "1")
            .with_child(XmlElement::new_local("a").with_text("one"))
            .with_child(XmlElement::new("urn:x", "x", "b").with_text("two"))
    }

    #[test]
    fn builder_and_navigation() {
        let e = sample();
        assert_eq!(e.attribute("id"), Some("1"));
        assert_eq!(e.child("", "a").unwrap().text(), "one");
        assert_eq!(e.child("urn:x", "b").unwrap().text(), "two");
        assert!(e.child("urn:y", "b").is_none());
        assert_eq!(e.elements().count(), 2);
    }

    #[test]
    fn string_value_concatenates_descendants() {
        let e = XmlElement::new_local("r")
            .with_text("a")
            .with_child(XmlElement::new_local("c").with_text("b"))
            .with_text("c");
        assert_eq!(e.text(), "abc");
    }

    #[test]
    fn set_attr_replaces() {
        let mut e = XmlElement::new_local("r");
        e.set_attr("k", "1");
        e.set_attr("k", "2");
        assert_eq!(e.attributes.len(), 1);
        assert_eq!(e.attribute("k"), Some("2"));
    }

    #[test]
    fn normalized_strips_ignorable_whitespace() {
        let e = XmlElement::new_local("r")
            .with_text("\n  ")
            .with_child(XmlElement::new_local("c").with_text("  keep  "))
            .with_text("\n");
        let n = e.normalized();
        assert_eq!(n.children.len(), 1);
        // text inside a text-only element is preserved verbatim
        assert_eq!(n.child("", "c").unwrap().text(), "  keep  ");
    }

    #[test]
    fn child_text_helper() {
        let e = sample();
        assert_eq!(e.child_text("", "a").as_deref(), Some("one"));
        assert_eq!(e.child_text("", "zz"), None);
    }

    #[test]
    fn node_count_counts_all() {
        // root + a + text + b + text = 5
        assert_eq!(sample().node_count(), 5);
    }

    #[test]
    fn children_named_filters() {
        let e = XmlElement::new_local("r")
            .with_child(XmlElement::new_local("i").with_text("1"))
            .with_child(XmlElement::new_local("j"))
            .with_child(XmlElement::new_local("i").with_text("2"));
        let texts: Vec<String> = e.children_named("", "i").map(|c| c.text()).collect();
        assert_eq!(texts, vec!["1", "2"]);
    }
}
