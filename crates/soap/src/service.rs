//! The service side: a trait for SOAP endpoints and an action dispatcher.

use crate::action::Action;
use crate::envelope::Envelope;
use crate::fault::Fault;
use std::collections::HashMap;
use std::sync::Arc;

/// A SOAP endpoint. Implementations receive the parsed envelope and the
/// SOAP action and either return a response envelope or a fault (which the
/// bus renders as a fault envelope).
///
/// Handlers run on whichever thread carries the request across the
/// transport seam: the caller's thread (inline mode), an executor worker
/// (queued mode), or a [`TcpServer`](crate::tcp::TcpServer) connection
/// thread. Executor workers and server connection threads are marked as
/// worker threads, so a handler that calls back into the bus runs that
/// nested call inline — a handler must be `Send + Sync` and free of
/// thread-affine state, but never needs to worry about executor-queue
/// deadlock.
pub trait SoapService: Send + Sync {
    fn handle(&self, action: &str, request: &Envelope) -> Result<Envelope, Fault>;

    /// The SOAP actions this endpoint understands (used by conformance
    /// tests and the Figure-6 operation inventory experiment).
    fn actions(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Type of a boxed operation handler.
pub type Handler = Arc<dyn Fn(&Envelope) -> Result<Envelope, Fault> + Send + Sync>;

/// A dispatcher mapping SOAP actions to handlers. DAIS services are
/// assembled by registering each interface's operations onto one of these
/// ("the proposed interfaces may be used in isolation or in conjunction
/// with others", paper §4.3).
#[derive(Default, Clone)]
pub struct SoapDispatcher {
    handlers: HashMap<&'static str, Handler>,
}

impl SoapDispatcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a handler for an action. Later registrations replace
    /// earlier ones (used by the thick-wrapper experiment to intercept).
    /// The action is an inventory [`Action`]; a string literal does not
    /// type-check here:
    ///
    /// ```compile_fail
    /// let mut d = dais_soap::SoapDispatcher::new();
    /// d.register("urn:x", |req: &dais_soap::Envelope| Ok(req.clone()));
    /// ```
    pub fn register<F>(&mut self, action: Action, handler: F)
    where
        F: Fn(&Envelope) -> Result<Envelope, Fault> + Send + Sync + 'static,
    {
        self.handlers.insert(action.uri(), Arc::new(handler));
    }

    /// Does this dispatcher know the action?
    pub fn supports(&self, action: &str) -> bool {
        self.handlers.contains_key(action)
    }

    /// All registered actions, sorted for stable output.
    pub fn actions(&self) -> Vec<String> {
        let mut v: Vec<String> = self.handlers.keys().map(|a| a.to_string()).collect();
        v.sort();
        v
    }
}

impl SoapService for SoapDispatcher {
    fn handle(&self, action: &str, request: &Envelope) -> Result<Envelope, Fault> {
        match self.handlers.get(action) {
            Some(h) => h(request),
            None => Err(Fault::client(format!("unknown SOAP action '{action}'"))),
        }
    }

    fn actions(&self) -> Vec<String> {
        SoapDispatcher::actions(self)
    }
}

impl std::fmt::Debug for SoapDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoapDispatcher").field("actions", &self.actions()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_xml::XmlElement;

    mod actions {
        crate::actions! {
            ECHO = "urn:echo", Read;
            A = "a", Read;
            B = "b", Read;
            URN_A = "urn:a", Read;
            URN_B = "urn:b", Read;
            URN_C = "urn:c", Read;
            URN_D = "urn:d", Read;
            X = "urn:x", Read;
            Y = "urn:y", Read;
        }
    }

    #[test]
    fn dispatches_by_action() {
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req| Ok(req.clone()));
        let env = Envelope::with_body(XmlElement::new_local("m"));
        assert_eq!(d.handle("urn:echo", &env).unwrap(), env);
        assert!(d.handle("urn:nope", &env).is_err());
    }

    #[test]
    fn reregistration_replaces() {
        let mut d = SoapDispatcher::new();
        d.register(actions::A, |_| Ok(Envelope::with_body(XmlElement::new_local("one"))));
        d.register(actions::A, |_| Ok(Envelope::with_body(XmlElement::new_local("two"))));
        let out = d.handle("a", &Envelope::default()).unwrap();
        assert_eq!(out.payload().unwrap().name.local, "two");
        assert_eq!(d.actions().len(), 1);
    }

    #[test]
    fn actions_sorted() {
        let mut d = SoapDispatcher::new();
        d.register(actions::B, |_| Ok(Envelope::default()));
        d.register(actions::A, |_| Ok(Envelope::default()));
        assert_eq!(d.actions(), vec!["a", "b"]);
        assert!(d.supports("a"));
    }

    #[test]
    fn unknown_action_is_a_client_fault_naming_the_action() {
        let d = SoapDispatcher::new();
        let err = d.handle("urn:nope", &Envelope::default()).unwrap_err();
        assert_eq!(err.code, crate::fault::FaultCode::Client);
        assert!(err.dais.is_none(), "dispatcher faults carry no DAIS classification");
        assert!(err.reason.contains("unknown SOAP action"));
        assert!(err.reason.contains("urn:nope"));
    }

    #[test]
    fn actions_ordering_is_stable_across_insertion_orders() {
        let names = [actions::URN_C, actions::URN_A, actions::URN_B, actions::URN_D];
        let mut forward = SoapDispatcher::new();
        for n in names {
            forward.register(n, |_| Ok(Envelope::default()));
        }
        let mut reverse = SoapDispatcher::new();
        for n in names.iter().rev() {
            reverse.register(*n, |_| Ok(Envelope::default()));
        }
        assert_eq!(forward.actions(), reverse.actions());
        assert_eq!(forward.actions(), vec!["urn:a", "urn:b", "urn:c", "urn:d"]);
    }

    #[test]
    fn every_advertised_action_dispatches() {
        let mut d = SoapDispatcher::new();
        d.register(actions::X, |_| Ok(Envelope::default()));
        d.register(actions::Y, |_| Ok(Envelope::default()));
        for action in d.actions() {
            assert!(d.supports(&action));
            // Dispatch must reach the handler, not the unknown-action arm.
            assert!(d.handle(&action, &Envelope::default()).is_ok());
        }
    }
}
