//! # dais-xmldb
//!
//! An XML database: named collections of XML documents with XPath
//! querying, an XQuery FLWOR subset and XUpdate modifications.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The WS-DAIX realisation of the DAIS specifications assumes an existing
//! XML database (the Xindice/eXist generation) offering collections,
//! XPath/XQuery querying and XUpdate document modification. This crate
//! implements that substrate: a hierarchical collection tree holding
//! parsed XML documents, queried through the `dais-xml` XPath engine, an
//! XQuery FLWOR evaluator sufficient for the WS-DAIX `XQueryExecute`
//! operation, and the XUpdate operation set for `XUpdateExecute`.
//!
//! ```
//! use dais_xmldb::XmlDatabase;
//!
//! let db = XmlDatabase::new("demo");
//! db.create_collection("library").unwrap();
//! db.add_document("library", "b1", "<book><title>TP</title></book>").unwrap();
//! let hits = db.xpath_query("library", "/book/title").unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod store;
pub mod xquery;
pub mod xupdate;

pub use store::{XmlDatabase, XmlDbError};
pub use xquery::{XQuery, XQueryItem};
pub use xupdate::apply_xupdate;
