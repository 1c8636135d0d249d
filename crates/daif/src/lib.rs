//! # dais-daif
//!
//! A **files realisation** of the DAIS specifications — the extension the
//! paper names as in-flight future work: "there are preliminary drafts of
//! documents that aim to extend the base DAIS interfaces to deal with
//! object databases and files" (§4.1) and "different groups are exploring
//! the development of additional realisations for object databases,
//! ontologies and files" (§6).
//!
//! The realisation follows the family's structure exactly, which is the
//! paper's main extensibility claim — a new data model plugs in by
//! extending the WS-DAI core, not by re-inventing it:
//!
//! * a *directory* is the externally managed data resource (like a
//!   database / XML collection);
//! * **FileAccess** — `ReadFile`, `WriteFile`, `DeleteFile`, `ListFiles`
//!   and `GetFilePropertyDocument`;
//! * **FileFactory** — `FileSelectFactory`: derive a service-managed
//!   *file-set* resource from a glob-style selection, returned by EPR
//!   (the indirect access pattern);
//! * **FileSetAccess** — `GetFileSetMembers` (paged) over the derived set.
//!
//! File contents travel base64-encoded in message bodies; the store is an
//! in-memory tree, standing in for a grid file system exactly as the
//! other substrates stand in for DBMSs (see DESIGN.md).

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod base64;
pub mod client;
pub mod resources;
pub mod service;
pub mod store;

pub use client::FileClient;
pub use resources::{DirectoryResource, FileSetResource};
pub use service::{FileService, FileServiceOptions};
pub use store::{FileStore, FileStoreError};

/// SOAP action URIs for the WS-DAIF operations.
pub mod actions {
    dais_soap::actions! {
        READ_FILE = "http://www.ggf.org/namespaces/2005/12/WS-DAIF/ReadFile", Read;
        WRITE_FILE = "http://www.ggf.org/namespaces/2005/12/WS-DAIF/WriteFile", Write;
        DELETE_FILE = "http://www.ggf.org/namespaces/2005/12/WS-DAIF/DeleteFile", Write;
        LIST_FILES = "http://www.ggf.org/namespaces/2005/12/WS-DAIF/ListFiles", Read;
        GET_FILE_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIF/GetFilePropertyDocument", Read;
        FILE_SELECT_FACTORY =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIF/FileSelectFactory", Write;
        GET_FILE_SET_MEMBERS =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIF/GetFileSetMembers", Read;
    }
}

/// The WS-DAIF namespace (following the family's naming pattern).
pub const WSDAIF_NS: &str = "http://www.ggf.org/namespaces/2005/12/WS-DAIF";
