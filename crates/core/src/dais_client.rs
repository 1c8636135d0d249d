//! The consumer-side plumbing shared by every typed DAIS client.
//!
//! `CoreClient`, `SqlClient`, `XmlClient` and `FileClient` all wrap the
//! same [`ServiceClient`] and used to copy-paste the retry/EPR/bus
//! accessors four times. [`DaisClient`] hoists that plumbing into one
//! trait: a typed client only names its raw client and its protocol
//! layer's idempotent action set, and inherits retry layering plus the
//! pipelined batch entry points. The old inherent methods survive as
//! thin wrappers over these defaults, so existing call sites compile
//! unchanged.

use dais_soap::addressing::Epr;
use dais_soap::bus::Bus;
use dais_soap::client::{CallError, PendingReply, ServiceClient};
use dais_soap::retry::{IdempotencySet, RetryConfig, RetryPolicy};
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

    /// The actions this client's protocol layer may safely re-send.
    fn default_idempotent_actions() -> IdempotencySet;

    /// Layer retry over this client for its protocol layer's read
    /// operations ([`Self::default_idempotent_actions`]).
    fn with_retry(self, policy: RetryPolicy) -> Self {
        self.with_retry_config(RetryConfig::new(policy, Self::default_idempotent_actions()))
    }

    /// Layer retry with a caller-assembled configuration (custom
    /// idempotency set or sleep function).
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
    fn call_async(&self, action: &str, payload: XmlElement) -> Result<PendingReply, CallError> {
        self.service().call_async(action, payload)
    }

    /// Send one action against many payloads with up to `window`
    /// requests in flight, in input order (see
    /// [`ServiceClient::request_pipelined`]). The typed batch entry
    /// points (`execute_many`, `read_files`, …) are wrappers over this.
    fn request_pipelined(
        &self,
        action: &str,
        payloads: Vec<XmlElement>,
        window: usize,
    ) -> Vec<Result<XmlElement, CallError>> {
        self.service().request_pipelined(action, payloads, window)
    }
}
