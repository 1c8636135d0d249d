//! The consumer-side plumbing shared by every typed DAIS client.
//!
//! `CoreClient`, `SqlClient`, `XmlClient` and `FileClient` all wrap the
//! same [`ServiceClient`]. [`DaisClient`] is what they share: a typed
//! client only names its raw client, and is built one way, through
//! [`ClientBuilder`](crate::builder::ClientBuilder), which layers retry
//! onto the raw client before wrapping it. Which operations retry is not
//! the client's business: each [`Action`](dais_soap::Action) carries its
//! own access class, and only reads are re-sent. Sends that are not a
//! typed operation — one pipelined request, a batch — go through
//! [`service`](DaisClient::service).

use dais_soap::addressing::Epr;
use dais_soap::bus::Bus;
use dais_soap::client::ServiceClient;

/// The shared shape of a typed DAIS consumer.
pub trait DaisClient: Sized {
    /// The raw SOAP client every typed operation goes through.
    fn service(&self) -> &ServiceClient;

    /// Wrap an already-configured raw client. This is the one true
    /// constructor — [`ClientBuilder`](crate::builder::ClientBuilder)
    /// terminates here.
    fn from_service(service: ServiceClient) -> Self;

    /// Start assembling a client:
    /// `CoreClient::builder().bus(..).resource(&r).retry(..).build()`.
    fn builder() -> crate::builder::ClientBuilder<Self> {
        crate::builder::ClientBuilder::new()
    }

    /// The bound EPR.
    fn epr(&self) -> &Epr {
        self.service().epr()
    }

    /// The underlying bus.
    fn bus(&self) -> &Bus {
        self.service().bus()
    }
}
