//! # dais-wsrf
//!
//! The Web Services Resource Framework pieces DAIS layers over (paper §5,
//! Figure 7): **WS-ResourceProperties** (fine-grained access to a
//! resource's property document) and **WS-ResourceLifetime** (immediate
//! destruction and scheduled, soft-state termination).
//!
//! DAIS deliberately works with or without WSRF: without it a consumer
//! can only fetch the *whole* property document and must destroy
//! resources explicitly; with it, individual properties become
//! addressable and resources can carry termination times. This crate
//! supplies the WSRF half; `dais-core` wires it onto data services.
//!
//! Time is abstracted behind [`Clock`] so soft-state expiry is
//! deterministic in tests and experiments.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod clock;
pub mod lifetime;
pub mod properties;

pub use clock::{Clock, ManualClock, SystemClock};
pub use lifetime::{LifetimeError, LifetimeRegistry};
pub use properties::{
    delete_property, get_property, insert_property, query_properties, update_property,
    PropertyError,
};

/// SOAP action URIs for the WSRF operations, as registered on a
/// WSRF-enabled data service.
pub mod actions {
    dais_soap::actions! {
        GET_RESOURCE_PROPERTY = "http://docs.oasis-open.org/wsrf/rpw-2/GetResourceProperty", Read;
        GET_MULTIPLE_RESOURCE_PROPERTIES =
            "http://docs.oasis-open.org/wsrf/rpw-2/GetMultipleResourceProperties", Read;
        QUERY_RESOURCE_PROPERTIES =
            "http://docs.oasis-open.org/wsrf/rpw-2/QueryResourceProperties", Read;
        SET_RESOURCE_PROPERTIES =
            "http://docs.oasis-open.org/wsrf/rpw-2/SetResourceProperties", Write;
        DESTROY =
            "http://docs.oasis-open.org/wsrf/rlw-2/ImmediateResourceTermination/Destroy", Write;
        SET_TERMINATION_TIME =
            "http://docs.oasis-open.org/wsrf/rlw-2/ScheduledResourceTermination/SetTerminationTime",
            Write;
    }
}
