//! # dais-dair
//!
//! The WS-DAIR relational realisation of the DAIS specifications
//! (paper §4): WS-DAI core properties and message patterns extended for
//! relational data resources.
//!
//! The realisation follows Figure 6's interface inventory:
//!
//! * **SQLAccess** — `SQLExecute` (direct access, Figure 2) and
//!   `GetSQLPropertyDocument`;
//! * **SQLFactory** — `SQLExecuteFactory` (indirect access, Figure 3):
//!   runs a statement, materialises (or, for `Sensitivity=Sensitive`
//!   resources, re-evaluates on demand) an *SQL response* resource and
//!   returns its EPR;
//! * **ResponseAccess** — `GetSQLResponsePropertyDocument`,
//!   `GetSQLRowset`, `GetSQLUpdateCount`, `GetSQLReturnValue`,
//!   `GetSQLOutputParameter`, `GetSQLCommunicationArea`,
//!   `GetSQLResponseItem`;
//! * **ResponseFactory** — `SQLRowsetFactory`: derives a rowset resource
//!   from a response (the middle hop of the Figure 5 pipeline);
//! * **RowsetAccess** — `GetTuples` (paged retrieval) and
//!   `GetRowsetPropertyDocument`.
//!
//! Rowset data is carried in the WebRowSet XML format advertised through
//! the `DatasetMap` property; responses embed the SQL communication area
//! exactly as Figure 2 prescribes; the `CIMDescription` property carries
//! the CIM rendering of the catalog (§4.2).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod client;
pub mod messages;
pub mod properties;
pub mod resources;
pub mod service;

pub use client::SqlClient;
pub use messages::{actions, SqlResponseData};
pub use resources::{RowsetResource, SqlDataResource, SqlResponseResource};
pub use service::{RelationalService, RelationalServiceOptions};
