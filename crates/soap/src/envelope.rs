//! The SOAP envelope model.

use dais_xml::{estimated_size, ns, parse, QName, XmlElement, XmlError, XmlWriter};

/// A SOAP envelope: optional header blocks and exactly one body payload.
///
/// DAIS direct/indirect request messages are single-element body payloads;
/// WS-Addressing blocks (To, Action, MessageID, reference parameters)
/// travel in the header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Envelope {
    pub header: Vec<XmlElement>,
    pub body: Vec<XmlElement>,
    /// Pre-serialised body content for the streaming fast path: a
    /// self-contained, already-escaped XML fragment spliced verbatim
    /// inside `soap:Body` by [`Envelope::to_bytes_into`]. Mutually
    /// exclusive with `body` by construction ([`Envelope::with_raw_body`]
    /// starts empty); [`Envelope::payload`] sees only tree payloads, so
    /// raw envelopes exist to be serialised, not inspected.
    raw_body: Option<String>,
}

impl Envelope {
    /// An envelope with a single body payload and no headers.
    pub fn with_body(payload: XmlElement) -> Self {
        Envelope { header: Vec::new(), body: vec![payload], raw_body: None }
    }

    /// An envelope whose body is a pre-serialised XML fragment, spliced
    /// verbatim into `soap:Body` at serialisation time. The fragment
    /// must be well-formed, already escaped, and self-contained (its
    /// namespace declarations travel inside it) — exactly what the
    /// streaming rowset writer produces. This is the zero-rebuild server
    /// path: handlers stream a response once and the bus never builds or
    /// walks a tree for it.
    pub fn with_raw_body(fragment: String) -> Self {
        Envelope { header: Vec::new(), body: Vec::new(), raw_body: Some(fragment) }
    }

    /// The pre-serialised body fragment, when this envelope was built by
    /// [`Envelope::with_raw_body`].
    pub fn raw_body(&self) -> Option<&str> {
        self.raw_body.as_deref()
    }

    /// Add a header block.
    pub fn add_header(&mut self, block: XmlElement) {
        self.header.push(block);
    }

    /// Builder form of [`Envelope::add_header`].
    pub fn with_header(mut self, block: XmlElement) -> Self {
        self.header.push(block);
        self
    }

    /// The first (usually only) body element. `None` for raw-body
    /// envelopes: their content is opaque bytes until parsed back.
    pub fn payload(&self) -> Option<&XmlElement> {
        self.body.first()
    }

    /// Take the first body element by value — the no-clone counterpart
    /// of [`Envelope::payload`] for consumers done with the envelope.
    pub fn into_payload(self) -> Option<XmlElement> {
        self.body.into_iter().next()
    }

    /// First header block with the given expanded name.
    pub fn header_block(&self, namespace: &str, local: &str) -> Option<&XmlElement> {
        self.header.iter().find(|h| h.name.is(namespace, local))
    }

    /// Serialise to bytes (what the bus transports), appending to a
    /// caller-supplied, typically pooled, buffer. Streams the envelope
    /// frame and writes header/body blocks directly, with no intermediate
    /// envelope tree. This is the only serialiser; there is no owned-bytes
    /// twin to call on the wire path by mistake:
    ///
    /// ```compile_fail
    /// let bytes = dais_soap::Envelope::default().to_bytes();
    /// ```
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        let content: usize =
            self.header.iter().chain(&self.body).map(estimated_size).sum::<usize>()
                + self.raw_body.as_ref().map_or(0, |r| r.len());
        out.reserve(content + 128);
        let mut w = XmlWriter::new(out);
        w.start(&QName::new(ns::SOAP_ENV, "soap", "Envelope"));
        if !self.header.is_empty() {
            w.start(&QName::new(ns::SOAP_ENV, "soap", "Header"));
            for h in &self.header {
                w.element(h);
            }
            w.end();
        }
        w.start(&QName::new(ns::SOAP_ENV, "soap", "Body"));
        for b in &self.body {
            w.element(b);
        }
        if let Some(raw) = &self.raw_body {
            // Splice the pre-serialised fragment: byte-identical to the
            // tree path because the fragment carries its own namespace
            // declarations (wsdair/wrs never collide with the outer
            // soap/wsa scope) and was escaped by the same writer.
            w.raw(raw);
        }
        w.end();
        w.end();
        w.finish();
    }

    /// Parse an envelope from a wire element, consuming it. The header
    /// and body children are *moved* out of the tree instead of deep
    /// cloned — on the response path a 200 KB rowset page would
    /// otherwise be copied a second time just to change its owner.
    pub fn from_xml_owned(mut root: XmlElement) -> Result<Envelope, EnvelopeError> {
        if !root.name.is(ns::SOAP_ENV, "Envelope") {
            return Err(EnvelopeError::new(format!("expected soap:Envelope, found {}", root.name)));
        }
        let mut header = Vec::new();
        let mut body = None;
        for node in root.children.drain(..) {
            let dais_xml::XmlNode::Element(el) = node else { continue };
            if el.name.is(ns::SOAP_ENV, "Header") {
                header = take_child_elements(el);
            } else if el.name.is(ns::SOAP_ENV, "Body") && body.is_none() {
                body = Some(take_child_elements(el));
            }
        }
        let body = body.ok_or_else(|| EnvelopeError::new("envelope has no soap:Body"))?;
        Ok(Envelope { header, body, raw_body: None })
    }

    /// Parse from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Envelope, EnvelopeError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| EnvelopeError::new(format!("envelope is not UTF-8: {e}")))?;
        let root = parse(text).map_err(EnvelopeError::from)?;
        Envelope::from_xml_owned(root)
    }
}

/// Move the element children out of `el`, dropping text and comments —
/// the owning counterpart of `elements().cloned()`.
fn take_child_elements(mut el: XmlElement) -> Vec<XmlElement> {
    el.children
        .drain(..)
        .filter_map(|n| match n {
            dais_xml::XmlNode::Element(e) => Some(e),
            _ => None,
        })
        .collect()
}

/// A malformed-envelope error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeError {
    pub message: String,
}

impl EnvelopeError {
    fn new(message: impl Into<String>) -> Self {
        EnvelopeError { message: message.into() }
    }
}

impl From<XmlError> for EnvelopeError {
    fn from(e: XmlError) -> Self {
        EnvelopeError { message: e.to_string() }
    }
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SOAP envelope error: {}", self.message)
    }
}

impl std::error::Error for EnvelopeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_xml::to_string;

    fn bytes(env: &Envelope) -> Vec<u8> {
        let mut out = Vec::new();
        env.to_bytes_into(&mut out);
        out
    }

    fn payload() -> XmlElement {
        XmlElement::new(ns::WSDAI, "wsdai", "GetDataResourcePropertyDocumentRequest").with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAbstractName").with_text("urn:r1"),
        )
    }

    #[test]
    fn roundtrip_through_bytes() {
        let env = Envelope::with_body(payload())
            .with_header(XmlElement::new(ns::WSA, "wsa", "Action").with_text("urn:op"));
        let rt = Envelope::from_bytes(&bytes(&env)).unwrap();
        assert_eq!(rt, env);
    }

    #[test]
    fn headerless_envelope_omits_header_element() {
        let env = Envelope::with_body(payload());
        assert!(!String::from_utf8(bytes(&env)).unwrap().contains("Header"));
        assert_eq!(Envelope::from_bytes(&bytes(&env)).unwrap(), env);
    }

    /// The one serialiser appends: a caller's prefix survives, and a
    /// cleared, reused buffer serialises again without growing.
    #[test]
    fn serialisation_appends_to_the_callers_buffer() {
        let env = Envelope::with_body(payload());
        let mut buf = b"prefix".to_vec();
        env.to_bytes_into(&mut buf);
        assert!(buf.starts_with(b"prefix"));
        assert_eq!(&buf[6..], &bytes(&env)[..]);
        buf.clear();
        let capacity = buf.capacity();
        env.to_bytes_into(&mut buf);
        assert_eq!(buf.capacity(), capacity);
        assert_eq!(buf, bytes(&env));
    }

    #[test]
    fn header_block_lookup() {
        let env = Envelope::with_body(payload())
            .with_header(XmlElement::new(ns::WSA, "wsa", "To").with_text("urn:svc"));
        assert_eq!(env.header_block(ns::WSA, "To").unwrap().text(), "urn:svc");
        assert!(env.header_block(ns::WSA, "Action").is_none());
    }

    #[test]
    fn missing_body_is_error() {
        let xml = format!("<soap:Envelope xmlns:soap='{}'/>", ns::SOAP_ENV);
        assert!(Envelope::from_bytes(xml.as_bytes()).is_err());
    }

    #[test]
    fn wrong_root_is_error() {
        assert!(Envelope::from_bytes(b"<NotAnEnvelope/>").is_err());
    }

    #[test]
    fn malformed_xml_is_error() {
        assert!(Envelope::from_bytes(b"<soap:Envelope").is_err());
    }

    #[test]
    fn streamed_bytes_match_tree_serialisation() {
        let action = XmlElement::new(ns::WSA, "wsa", "Action").with_text("urn:op");
        let frame = |header: &str| {
            format!(
                "<soap:Envelope xmlns:soap=\"{}\">{header}<soap:Body>{}</soap:Body></soap:Envelope>",
                ns::SOAP_ENV,
                to_string(&payload())
            )
        };
        let with_header = Envelope::with_body(payload()).with_header(action.clone());
        let headerless = Envelope::with_body(payload());
        for (env, header) in [
            (with_header, format!("<soap:Header>{}</soap:Header>", to_string(&action))),
            (headerless, String::new()),
        ] {
            assert_eq!(bytes(&env), frame(&header).into_bytes());
            let mut appended = b"x".to_vec();
            env.to_bytes_into(&mut appended);
            assert_eq!(&appended[1..], &bytes(&env)[..]);
        }
    }

    #[test]
    fn raw_body_envelope_splices_byte_identically() {
        // A fragment serialised up front, spliced raw, must produce the
        // same wire bytes as the tree path carrying the parsed fragment.
        let fragment_el = payload();
        let raw = Envelope::with_raw_body(to_string(&fragment_el));
        let tree = Envelope::with_body(fragment_el);
        assert_eq!(bytes(&raw), bytes(&tree));
        // With a header on both (the tracing RelatesTo shape).
        let hdr = XmlElement::new(ns::WSA, "wsa", "RelatesTo").with_text("urn:msg");
        let raw = Envelope::with_raw_body(to_string(&payload())).with_header(hdr.clone());
        let tree = Envelope::with_body(payload()).with_header(hdr);
        assert_eq!(bytes(&raw), bytes(&tree));
        // And the raw form reads back as the tree form.
        assert_eq!(Envelope::from_bytes(&bytes(&raw)).unwrap(), tree);
    }

    #[test]
    fn into_payload_takes_the_first_body_element() {
        let env = Envelope::with_body(payload());
        let p = env.into_payload().unwrap();
        assert!(p.name.is(ns::WSDAI, "GetDataResourcePropertyDocumentRequest"));
        assert!(Envelope::default().into_payload().is_none());
    }

    #[test]
    fn payload_accessor() {
        let env = Envelope::with_body(payload());
        assert!(env
            .payload()
            .unwrap()
            .name
            .is(ns::WSDAI, "GetDataResourcePropertyDocumentRequest"));
    }
}
