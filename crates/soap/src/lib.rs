//! # dais-soap
//!
//! SOAP 1.1-style messaging for the DAIS stack: envelope model, faults,
//! WS-Addressing endpoint references, a service trait, and an in-process
//! message bus that plays the role of the HTTP transport.
//!
//! ## Substitution note (see DESIGN.md)
//!
//! The DAIS specifications assume a conventional SOAP-over-HTTP stack.
//! Rust's SOAP/WSDL ecosystem is immature, so this crate implements the
//! envelope layer directly. Below the serialise→route→parse boundary a
//! [`Transport`] carries the bytes: the default in-process path hands
//! them straight to the bus registry (the deterministic test/chaos
//! transport), while [`TcpTransport`] frames them onto real `std::net`
//! sockets. Crucially no path hands object references between client
//! and service: every message is serialised to XML bytes, routed, and
//! re-parsed at the receiving side. All marshalling costs and
//! message-structure bugs are therefore still exercised, and the bus
//! meters bytes in both directions ([`BusStats`]) which the paper-figure
//! experiments use to quantify data movement.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod action;
pub mod addressing;
pub mod bus;
pub mod client;
pub mod envelope;
pub mod executor;
pub mod fault;
pub mod interceptor;
pub mod retry;
pub mod service;
pub mod tcp;
pub mod transport;

pub use action::{Access, Action};
pub use addressing::Epr;
pub use bus::Endpoint;
pub use bus::{Bus, BusError, BusStats, StatsSnapshot, WeakBus};
pub use client::{CallError, PendingReply, ServiceClient};
pub use envelope::Envelope;
pub use executor::{BusExecutor, ExchangeOutcome, ExecMode, ExecutorConfig, Pending};
pub use fault::{DaisFault, Fault, FaultCode};
pub use interceptor::{FaultInjector, FaultPolicy, Intercept, Interceptor};
pub use retry::{RetryConfig, RetryPolicy};
pub use service::{SoapDispatcher, SoapService};
pub use tcp::{TcpConfig, TcpServer, TcpServerConfig, TcpTransport};
pub use transport::{InProcessTransport, Transport};
