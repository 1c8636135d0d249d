//! The transport seam: where serialised request bytes leave the caller
//! and serialised response bytes come back.
//!
//! [`Bus::call`](crate::bus::Bus::call) owns everything *above* this
//! line — the interceptor chain, fault injection, tracer spans,
//! WS-Addressing correlation, and [`BusStats`](crate::bus::BusStats)
//! billing — so every [`Transport`] exhibits the same observable
//! behaviour: identical span trees, identical stats deltas, identical
//! wire bytes. Below the line a transport only moves bytes. The
//! in-process implementation here hands them straight to the bus
//! registry on the calling thread; [`TcpTransport`](crate::tcp) frames
//! them onto a real socket.

use crate::bus::{Bus, BusError, BusInner};
use std::sync::Weak;

/// One request/response byte exchange below the serialise→route→parse
/// boundary.
pub trait Transport: Send + Sync {
    /// Carry one serialised request to `to` and write the serialised
    /// response into `response` (which arrives empty; a transport may
    /// also swap in an owned buffer). Transport-level failures map onto
    /// the existing [`BusError`] taxonomy. SOAP faults are *not*
    /// errors — they come back as fault envelopes in `response`,
    /// exactly as the in-process bus returns them.
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError>;

    /// Does this transport carry requests addressed to `to`? The bus
    /// serves unrouted addresses from its local registry.
    fn routes(&self, to: &str) -> bool;

    /// Short diagnostic name (`"in-process"`, `"tcp"`).
    fn name(&self) -> &'static str;
}

/// The deterministic test/chaos transport: bytes loop through the bus's
/// own registry on the calling thread — byte-for-byte what the bus does
/// with no transport installed. Installing it explicitly exists for the
/// cross-transport conformance suite, which must run both transports
/// under one code path.
pub struct InProcessTransport {
    bus: Weak<BusInner>,
}

impl InProcessTransport {
    /// A transport serving from `bus`'s registry. Holds a weak handle
    /// (as executor workers do), so a bus carrying its own transport
    /// cannot leak a keep-alive cycle.
    pub fn new(bus: &Bus) -> InProcessTransport {
        InProcessTransport { bus: bus.downgrade() }
    }

    fn bus(&self) -> Result<Bus, BusError> {
        self.bus.upgrade().map(Bus::from_inner).ok_or_else(|| {
            BusError::ConnectionLost("bus dropped behind the in-process transport".into())
        })
    }
}

impl Transport for InProcessTransport {
    fn call(
        &self,
        to: &str,
        action: &str,
        request: &[u8],
        response: &mut Vec<u8>,
    ) -> Result<(), BusError> {
        self.bus()?.serve_wire(to, action, request, response)
    }

    fn routes(&self, to: &str) -> bool {
        self.bus.upgrade().map(|inner| Bus::from_inner(inner).has_endpoint(to)).unwrap_or(false)
    }

    fn name(&self) -> &'static str {
        "in-process"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;
    use crate::service::SoapDispatcher;
    use dais_xml::XmlElement;
    use std::sync::Arc;

    mod actions {
        crate::actions! {
            ECHO = "urn:echo", Read;
        }
    }

    fn echo_bus() -> Bus {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        bus
    }

    #[test]
    fn in_process_transport_serves_from_the_registry() {
        let bus = echo_bus();
        let t = InProcessTransport::new(&bus);
        assert_eq!(t.name(), "in-process");
        assert!(t.routes("bus://svc"));
        assert!(!t.routes("bus://nope"));

        let env = Envelope::with_body(XmlElement::new_local("m").with_text("x"));
        let mut request = Vec::new();
        env.to_bytes_into(&mut request);
        let mut response = Vec::new();
        t.call("bus://svc", "urn:echo", &request, &mut response).unwrap();
        assert_eq!(Envelope::from_bytes(&response).unwrap(), env);
    }

    #[test]
    fn installed_transport_is_behaviour_identical_to_none() {
        let plain = echo_bus();
        let via_transport = echo_bus();
        via_transport.set_transport(Arc::new(InProcessTransport::new(&via_transport)));
        assert_eq!(via_transport.transport_name(), Some("in-process"));

        let env = Envelope::with_body(XmlElement::new_local("m").with_text("same"));
        let a = plain.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        let b = via_transport.call("bus://svc", "urn:echo", &env).unwrap().unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.stats(), via_transport.stats());

        via_transport.clear_transport();
        assert_eq!(via_transport.transport_name(), None);
    }

    #[test]
    fn dropped_bus_surfaces_as_connection_lost() {
        let t = {
            let bus = echo_bus();
            InProcessTransport::new(&bus)
        };
        let mut out = Vec::new();
        assert!(matches!(
            t.call("bus://svc", "urn:echo", b"<e/>", &mut out),
            Err(BusError::ConnectionLost(_))
        ));
        assert!(!t.routes("bus://svc"));
    }
}
