//! One builder for every typed client.
//!
//! A typed client is built one way: a bus, one target (an address, a
//! [`ResourceRef`] or an EPR), and optionally a transport and a retry
//! layer, assembled by [`ClientBuilder`]:
//!
//! ```
//! use dais_core::{CoreClient, DaisClient, ResourceRef};
//! use dais_soap::bus::Bus;
//!
//! let bus = Bus::new();
//! let r: ResourceRef = "dais://svc/urn:dais:svc:db:0".parse().unwrap();
//! let client = CoreClient::builder().bus(bus).resource(&r).build();
//! # let _ = client;
//! ```
//!
//! The same shape works for `SqlClient`, `XmlClient` and `FileClient`
//! (anything implementing [`DaisClient`]).

use crate::dais_client::DaisClient;
use crate::resource_ref::ResourceRef;
use dais_soap::addressing::Epr;
use dais_soap::bus::Bus;
use dais_soap::client::ServiceClient;
use dais_soap::retry::{RetryConfig, RetryPolicy};
use dais_soap::Transport;
use std::marker::PhantomData;
use std::sync::Arc;

enum Target {
    None,
    Address(String),
    Epr(Epr),
}

/// Assembles a typed client from its parts; obtain one via
/// [`DaisClient::builder`]. `bus` plus one target (`address`,
/// `resource` or `epr`) are required; everything else is optional.
pub struct ClientBuilder<C: DaisClient> {
    bus: Option<Bus>,
    target: Target,
    transport: Option<Arc<dyn Transport>>,
    retry: Option<RetryConfig>,
    _client: PhantomData<C>,
}

impl<C: DaisClient> Default for ClientBuilder<C> {
    fn default() -> ClientBuilder<C> {
        ClientBuilder {
            bus: None,
            target: Target::None,
            transport: None,
            retry: None,
            _client: PhantomData,
        }
    }
}

impl<C: DaisClient> ClientBuilder<C> {
    pub fn new() -> ClientBuilder<C> {
        ClientBuilder::default()
    }

    /// The bus requests travel on. Required.
    pub fn bus(mut self, bus: Bus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Bind to a raw service address (`bus://svc`). Prefer
    /// [`resource`](Self::resource) when you hold a [`ResourceRef`].
    pub fn address(mut self, address: impl Into<String>) -> Self {
        self.target = Target::Address(address.into());
        self
    }

    /// Bind to the endpoint a [`ResourceRef`] names. The ref's abstract
    /// name still travels per-request; this sets where requests go.
    pub fn resource(mut self, r: &ResourceRef) -> Self {
        self.target = Target::Address(r.endpoint_address());
        self
    }

    /// Bind through an EPR obtained from a factory or `Resolve`.
    pub fn epr(mut self, epr: Epr) -> Self {
        self.target = Target::Epr(epr);
        self
    }

    /// Reach the service over `transport` (installed on the bus at
    /// `build`): the split-deployment bind, where the service registry
    /// lives behind a [`TcpServer`](dais_soap::TcpServer) rather than
    /// in this process.
    pub fn transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Layer retry over the client's read operations.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(RetryConfig::new(policy));
        self
    }

    /// Layer retry with a caller-assembled configuration (custom sleep
    /// function). Overrides [`retry`](Self::retry).
    pub fn retry_config(mut self, config: RetryConfig) -> Self {
        self.retry = Some(config);
        self
    }

    /// Assemble the client.
    ///
    /// # Panics
    /// If no bus or no target was supplied — these are programming
    /// errors, not runtime conditions.
    pub fn build(self) -> C {
        #[expect(clippy::expect_used, reason = "a documented `# Panics` programming error")]
        let bus = self.bus.expect("ClientBuilder::build: a bus is required — call .bus(..)");
        if let Some(transport) = self.transport {
            bus.set_transport(transport);
        }
        let service = match self.target {
            Target::Address(address) => ServiceClient::new(bus, address),
            Target::Epr(epr) => ServiceClient::from_epr(bus, epr),
            Target::None => panic!(
                "ClientBuilder::build: a target is required — call .address(..), .resource(..) or .epr(..)"
            ),
        };
        C::from_service(match self.retry {
            Some(config) => service.with_retry(config),
            None => service,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::CoreClient;

    #[test]
    fn builds_from_address_and_resource_ref() {
        let bus = Bus::new();
        let r: ResourceRef = "dais://svc/urn:dais:svc:db:0".parse().unwrap();
        let a = CoreClient::builder().bus(bus.clone()).address("bus://svc").build();
        let b = CoreClient::builder().bus(bus).resource(&r).build();
        assert_eq!(a.epr().address, b.epr().address);
    }

    #[test]
    fn retry_is_layered_at_build() {
        let bus = Bus::new();
        let client =
            CoreClient::builder().bus(bus).address("bus://svc").retry(RetryPolicy::new(3)).build();
        assert!(client.service().retry_config().is_some());
    }

    #[test]
    #[should_panic(expected = "a bus is required")]
    fn missing_bus_is_a_programming_error() {
        let _ = CoreClient::builder().address("bus://svc").build();
    }

    #[test]
    #[should_panic(expected = "a target is required")]
    fn missing_target_is_a_programming_error() {
        let _ = CoreClient::builder().bus(Bus::new()).build();
    }
}
