//! # dais-daix
//!
//! The WS-DAIX XML realisation of the DAIS specifications.
//!
//! The paper (§4.3, §6) summarises the XML realisation as following "the
//! same principles" as WS-DAIR: it provides "support for querying XML
//! data resources using XQuery, XPath, XUpdate as well as operations that
//! manipulate collections and others that provide access to service
//! managed data resources". That is exactly this crate's inventory:
//!
//! * **XMLCollectionAccess** — document management (`AddDocuments`,
//!   `GetDocuments`, `RemoveDocuments`), sub-collection management
//!   (`CreateSubcollection`, `RemoveSubcollection`) and
//!   `GetCollectionPropertyDocument`;
//! * **XPathAccess / XQueryAccess / XUpdateAccess** — `XPathExecute`,
//!   `XQueryExecute` and `XUpdateExecute` against a collection;
//! * **XPathFactory / XQueryFactory** — the indirect access pattern:
//!   evaluate a query and expose the result sequence as a derived,
//!   service-managed *sequence resource*;
//! * **SequenceAccess** — `GetItems` (paged retrieval) and
//!   `GetSequencePropertyDocument`.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod client;
pub mod messages;
pub mod resources;
pub mod service;

pub use client::XmlClient;
pub use messages::actions;
pub use resources::{SequenceResource, XmlCollectionResource};
pub use service::{XmlService, XmlServiceOptions};

/// Query-language URIs advertised in `GenericQueryLanguage`.
pub mod languages {
    pub const XPATH: &str = "http://www.w3.org/TR/xpath";
    pub const XQUERY: &str = "http://www.w3.org/TR/xquery";
    pub const XUPDATE: &str = "http://www.xmldb.org/xupdate";
}
