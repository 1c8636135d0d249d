//! The consumer-side plumbing shared by every typed DAIS client.
//!
//! `CoreClient`, `SqlClient`, `XmlClient` and `FileClient` all wrap the
//! same [`ServiceClient`] and used to copy-paste the retry/EPR/bus
//! accessors four times. [`DaisClient`] hoists that plumbing into one
//! trait: a typed client only names its raw client, and inherits retry
//! layering plus the pipelined batch entry points. Which operations
//! retry is not the client's business: each [`Action`] carries its own
//! access class, and only reads are re-sent. The old inherent methods
//! survive as thin wrappers over these defaults, so existing call sites
//! compile unchanged.

use dais_soap::addressing::Epr;
use dais_soap::bus::Bus;
use dais_soap::client::{CallError, PendingReply, ServiceClient};
use dais_soap::retry::{RetryConfig, RetryPolicy};
use dais_soap::Action;
use dais_xml::XmlElement;

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

    /// Mutable access to the raw client, for layering retry.
    fn service_mut(&mut self) -> &mut ServiceClient;

    /// Layer retry over this client. Only read actions are re-sent.
    fn with_retry(self, policy: RetryPolicy) -> Self {
        self.with_retry_config(RetryConfig::new(policy))
    }

    /// Layer retry with a caller-assembled configuration (custom sleep
    /// function).
    fn with_retry_config(mut self, config: RetryConfig) -> Self {
        let inner = self.service().clone().with_retry(config);
        *self.service_mut() = inner;
        self
    }

    /// The bound EPR.
    fn epr(&self) -> &Epr {
        self.service().epr()
    }

    /// The underlying bus.
    fn bus(&self) -> &Bus {
        self.service().bus()
    }

    /// Send one request without waiting for its reply (the pipelined
    /// path; see [`ServiceClient::call_async`]).
    fn call_async(&self, action: Action, payload: XmlElement) -> Result<PendingReply, CallError> {
        self.service().call_async(action, payload)
    }

    /// Send one action against many payloads with up to `window`
    /// requests in flight, in input order (see
    /// [`ServiceClient::request_pipelined`]). The typed batch entry
    /// points (`execute_many`, `read_files`, …) are wrappers over this.
    fn request_pipelined(
        &self,
        action: Action,
        payloads: Vec<XmlElement>,
        window: usize,
    ) -> Vec<Result<XmlElement, CallError>> {
        self.service().request_pipelined(action, payloads, window)
    }
}
