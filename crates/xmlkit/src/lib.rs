//! # dais-xml
//!
//! XML infoset model, parser, serialiser and an XPath 1.0 subset engine.
//!
//! Everything in the DAIS specification family is expressed as XML: SOAP
//! envelopes, WS-Addressing endpoint references, property documents,
//! WebRowSet-encoded relational results and, of course, the XML data
//! resources themselves. This crate is the shared substrate for all of
//! that. It deliberately implements a *namespace-aware subset* of XML 1.0
//! sufficient for protocol work:
//!
//! * elements, attributes, character data, CDATA sections and comments;
//! * namespace declarations (`xmlns` / `xmlns:prefix`) with prefix
//!   resolution at parse time and automatic re-declaration at
//!   serialisation time;
//! * the five predefined entities plus decimal/hex character references.
//!
//! It does **not** implement DTDs, processing instructions or external
//! entities — none of which appear in DAIS messages (and external
//! entities are a well-known security hazard for service endpoints).
//!
//! One lexer reads every document: [`PullParser`] streams events to the
//! reply decoders, and [`parse`] builds an [`XmlElement`] tree from the
//! same lexer's tokens, so the two accept and reject the same inputs.
//!
//! The [`xpath`] module implements the XPath 1.0 subset used by
//! WS-ResourceProperties `QueryResourceProperties` and by the WS-DAIX
//! `XPathExecute` operation.
//!
//! ## Quick example
//!
//! ```
//! use dais_xml::parse;
//!
//! let doc = parse("<a xmlns='urn:x'><b attr='1'>hi</b></a>").unwrap();
//! assert_eq!(doc.name.local, "a");
//! assert_eq!(doc.name.namespace, "urn:x");
//! let b = doc.child("urn:x", "b").unwrap();
//! assert_eq!(b.attribute("attr"), Some("1"));
//! assert_eq!(b.text(), "hi");
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod name;
pub mod node;
pub mod parser;
pub mod pull;
pub mod writer;
pub mod xpath;

pub use dais_util::intern::IStr;
pub use name::QName;
pub use node::{Attribute, XmlElement, XmlNode};
pub use parser::{parse, parse_preserving, XmlError};
pub use pull::{PullEvent, PullParser};
pub use writer::{estimated_size, to_bytes_into, to_string, XmlSink, XmlWriter};
pub use xpath::{XPathContext, XPathError, XPathExpr, XPathValue};

/// Well-known namespace URIs used throughout the DAIS stack.
pub mod ns {
    /// SOAP 1.1 envelope namespace.
    pub const SOAP_ENV: &str = "http://schemas.xmlsoap.org/soap/envelope/";
    /// WS-Addressing 1.0 core namespace.
    pub const WSA: &str = "http://www.w3.org/2005/08/addressing";
    /// WS-DAI core specification namespace.
    pub const WSDAI: &str = "http://www.ggf.org/namespaces/2005/12/WS-DAI";
    /// WS-DAIR relational realisation namespace.
    pub const WSDAIR: &str = "http://www.ggf.org/namespaces/2005/12/WS-DAIR";
    /// WS-DAIX XML realisation namespace.
    pub const WSDAIX: &str = "http://www.ggf.org/namespaces/2005/12/WS-DAIX";
    /// WS-ResourceProperties namespace.
    pub const WSRF_RP: &str = "http://docs.oasis-open.org/wsrf/rp-2";
    /// WS-ResourceLifetime namespace.
    pub const WSRF_RL: &str = "http://docs.oasis-open.org/wsrf/rl-2";
    /// CIM (Common Information Model) XML rendering namespace.
    pub const CIM: &str = "http://schemas.dmtf.org/wbem/wscim/1/cim-schema/2";
    /// WebRowSet-style dataset namespace.
    pub const ROWSET: &str = "http://java.sun.com/xml/ns/jdbc";
}
