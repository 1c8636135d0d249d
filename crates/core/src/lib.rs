//! # dais-core
//!
//! The WS-DAI core specification: data resources, abstract names,
//! property documents, the direct and indirect access patterns, and the
//! model-independent operations every DAIS data service offers.
//!
//! This crate is the paper's primary contribution rendered as a library:
//!
//! * **Naming** (§3): every data resource has a unique, persistent
//!   *abstract name* (a URI), carried in the body of every message —
//!   whether or not WSRF addressing is also in use ([`name`]).
//! * **Resources** (§3): externally managed vs service managed resources,
//!   with parent links for derived data ([`resource`]).
//! * **Properties** (§4.2): the core property document — static
//!   properties (`DataResourceAbstractName`, `ParentDataResource`,
//!   `DataResourceManagement`, `ConcurrentAccess`, `DatasetMap`,
//!   `ConfigurationMap`, `GenericQueryLanguage`) and configurable ones
//!   (`DataResourceDescription`, `Readable`, `Writeable`,
//!   `TransactionInitiation`, `TransactionIsolation`, `Sensitivity`)
//!   ([`properties`]).
//! * **Core operations** (§4.3, Figure 6): `GetDataResourcePropertyDocument`,
//!   `DestroyDataResource`, `GenericQuery`, and the optional
//!   CoreResourceList pair `GetResourceList` / `Resolve` ([`service`]).
//! * **Access patterns** (Figures 1–3): direct access helpers and the
//!   factory plumbing for indirect access — derived resources configured
//!   by a `ConfigurationDocument` and addressed by an EPR whose reference
//!   parameters carry the abstract name ([`factory`]).
//! * **WSRF layering** (§5, Figure 7): strictly additive registration of
//!   the WS-ResourceProperties / WS-ResourceLifetime operations over the
//!   same registry ([`service::register_wsrf_ops`]).
//!
//! Realisations (WS-DAIR in `dais-dair`, WS-DAIX in `dais-daix`) extend
//! these types with model-specific properties and operations, exactly as
//! the specification family is structured.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod builder;
pub mod client;
pub mod dais_client;
pub mod factory;
pub mod messages;
pub mod monitoring;
pub mod name;
pub mod properties;
pub mod registry;
pub mod resource;
pub mod resource_ref;
pub mod service;

pub use builder::ClientBuilder;
pub use client::CoreClient;
pub use dais_client::DaisClient;
pub use factory::{mint_resource_epr, DerivedResourceConfig, FactoryRequest};
pub use monitoring::MonitoringResource;
pub use name::{AbstractName, NameGenerator};
pub use properties::{
    ConfigurationDocument, ConfigurationMap, CoreProperties, DatasetMap, PropertyName, Sensitivity,
    TransactionInitiation, TransactionIsolation,
};
pub use registry::ResourceRegistry;
pub use resource::{DataResource, ResourceManagement, Target};
pub use resource_ref::{InvalidRef, ResourceRef};
pub use service::{
    register_core_ops, register_op, register_property_document, register_wsrf_ops, Requires,
    ServiceContext, ServiceSkeleton,
};
