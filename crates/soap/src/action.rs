//! SOAP actions as typed values.
//!
//! Each DAIS port type is a fixed table of operations (Figure 6 for
//! WS-DAIR). An [`Action`] is one row of such a table: the action URI a
//! request carries in its WS-Addressing `Action` header, plus its
//! [`Access`] class — whether re-sending it after an ambiguous failure is
//! safe. Each family declares its table once with
//! [`actions!`](crate::actions!); the dispatcher registers handlers by
//! `Action`, the client sends by `Action` and takes its retry
//! eligibility from the same value, so a bare string reaches neither.

use std::fmt;

/// How an operation treats resource state, which decides whether a
/// client may re-send it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Only reads: re-sending is safe.
    Read,
    /// Mutates state or mints a derived resource: never re-sent.
    Write,
    /// The payload decides (`SQLExecute`: a SELECT reads, an INSERT
    /// writes). Re-sent only when the caller vouches for the payload, via
    /// [`ServiceClient::request_bytes`](crate::ServiceClient::request_bytes).
    Statement,
}

/// One operation of a port type: its action URI and [`Access`] class.
/// Values come only from an [`actions!`](crate::actions!) inventory; a
/// string does not stand in for one at the client, so a misspelt URI
/// cannot be sent:
///
/// ```compile_fail
/// let client = dais_soap::ServiceClient::new(dais_soap::Bus::new(), "bus://svc");
/// let q = dais_xml::XmlElement::new_local("q");
/// let _ = client.request("http://www.ggf.org/namespaces/2005/12/WS-DAIR/GetTupels", q);
/// ```
///
/// nor at the dispatcher (see
/// [`SoapDispatcher::register`](crate::SoapDispatcher::register)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Action {
    uri: &'static str,
    access: Access,
}

impl Action {
    /// The constructor behind [`actions!`](crate::actions!); declare
    /// actions there.
    #[doc(hidden)]
    pub const fn __define(uri: &'static str, access: Access) -> Action {
        Action { uri, access }
    }

    /// The action URI, byte for byte as it travels on the wire.
    pub const fn uri(self) -> &'static str {
        self.uri
    }

    /// How the action treats resource state.
    pub const fn access(self) -> Access {
        self.access
    }

    /// Whether the action, whatever its payload, may be re-sent after an
    /// ambiguous failure: only an [`Access::Read`] action may.
    pub const fn resendable(self) -> bool {
        matches!(self.access, Access::Read)
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.uri)
    }
}

/// Declare an action inventory: each `NAME = "uri", Access;` line becomes
/// a `pub const NAME: Action`, and `pub const ALL: &[Action]` lists them
/// all in declaration order.
///
/// ```
/// mod actions {
///     dais_soap::actions! {
///         GET_THING = "http://example.org/ns/GetThing", Read;
///         DELETE_THING = "http://example.org/ns/DeleteThing", Write;
///     }
/// }
/// assert_eq!(actions::ALL, &[actions::GET_THING, actions::DELETE_THING]);
/// assert_eq!(actions::GET_THING.access(), dais_soap::Access::Read);
/// ```
#[macro_export]
macro_rules! actions {
    ($($name:ident = $uri:literal, $access:ident;)+) => {
        $(
            pub const $name: $crate::Action =
                $crate::Action::__define($uri, $crate::Access::$access);
        )+
        /// Every action of this inventory, in declaration order.
        // A test-local inventory may never read its own `ALL`.
        #[allow(dead_code)]
        pub const ALL: &[$crate::Action] = &[$($name),+];
    };
}
