//! SOAP faults and the DAIS fault taxonomy.
//!
//! The WS-DAI specification defines a family of faults raised by data
//! services (invalid resource name, invalid query language, and so on).
//! They are carried as standard SOAP `Fault` body elements with the DAIS
//! fault name in the detail section.

use dais_xml::{ns, XmlElement};

/// SOAP 1.1 fault code classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCode {
    /// The message was malformed or names an unknown operation — the
    /// consumer's mistake (`soap:Client`).
    Client,
    /// The service failed to process a well-formed request (`soap:Server`).
    Server,
}

impl FaultCode {
    fn as_str(self) -> &'static str {
        match self {
            FaultCode::Client => "soap:Client",
            FaultCode::Server => "soap:Server",
        }
    }
}

/// The DAIS fault vocabulary (WS-DAI §Faults plus realisation additions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DaisFault {
    /// The abstract name does not identify a resource known to the service.
    InvalidResourceName,
    /// The resource exists but cannot currently be reached.
    DataResourceUnavailable,
    /// The requested query language is not in `GenericQueryLanguage`.
    InvalidLanguage,
    /// The query/update expression failed to parse or execute.
    InvalidExpression,
    /// The requested dataset format is not in the `DatasetMap`.
    InvalidDatasetFormat,
    /// The requested port type is not in the `ConfigurationMap`.
    InvalidPortType,
    /// A configuration document requested an unsupported property value.
    InvalidConfigurationDocument,
    /// The resource is not readable / writeable as required by the request.
    NotAuthorized,
    /// The service will not accept new work at present.
    ServiceBusy,
    /// Generic processing failure inside the service.
    ServiceError,
}

impl DaisFault {
    /// Every variant, in declaration order.
    pub const ALL: &'static [DaisFault] = &[
        DaisFault::InvalidResourceName,
        DaisFault::DataResourceUnavailable,
        DaisFault::InvalidLanguage,
        DaisFault::InvalidExpression,
        DaisFault::InvalidDatasetFormat,
        DaisFault::InvalidPortType,
        DaisFault::InvalidConfigurationDocument,
        DaisFault::NotAuthorized,
        DaisFault::ServiceBusy,
        DaisFault::ServiceError,
    ];

    pub fn name(self) -> &'static str {
        match self {
            DaisFault::InvalidResourceName => "InvalidResourceNameFault",
            DaisFault::DataResourceUnavailable => "DataResourceUnavailableFault",
            DaisFault::InvalidLanguage => "InvalidLanguageFault",
            DaisFault::InvalidExpression => "InvalidExpressionFault",
            DaisFault::InvalidDatasetFormat => "InvalidDatasetFormatFault",
            DaisFault::InvalidPortType => "InvalidPortTypeFault",
            DaisFault::InvalidConfigurationDocument => "InvalidConfigurationDocumentFault",
            DaisFault::NotAuthorized => "NotAuthorizedFault",
            DaisFault::ServiceBusy => "ServiceBusyFault",
            DaisFault::ServiceError => "ServiceErrorFault",
        }
    }

    fn from_name(name: &str) -> Option<DaisFault> {
        Some(match name {
            "InvalidResourceNameFault" => DaisFault::InvalidResourceName,
            "DataResourceUnavailableFault" => DaisFault::DataResourceUnavailable,
            "InvalidLanguageFault" => DaisFault::InvalidLanguage,
            "InvalidExpressionFault" => DaisFault::InvalidExpression,
            "InvalidDatasetFormatFault" => DaisFault::InvalidDatasetFormat,
            "InvalidPortTypeFault" => DaisFault::InvalidPortType,
            "InvalidConfigurationDocumentFault" => DaisFault::InvalidConfigurationDocument,
            "NotAuthorizedFault" => DaisFault::NotAuthorized,
            "ServiceBusyFault" => DaisFault::ServiceBusy,
            "ServiceErrorFault" => DaisFault::ServiceError,
            _ => return None,
        })
    }

    fn code(self) -> FaultCode {
        match self {
            DaisFault::DataResourceUnavailable
            | DaisFault::ServiceBusy
            | DaisFault::ServiceError => FaultCode::Server,
            _ => FaultCode::Client,
        }
    }
}

/// A SOAP fault, optionally classified with a DAIS fault name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    pub code: FaultCode,
    pub reason: String,
    pub dais: Option<DaisFault>,
}

impl Fault {
    /// A DAIS-classified fault.
    pub fn dais(kind: DaisFault, reason: impl Into<String>) -> Self {
        Fault { code: kind.code(), reason: reason.into(), dais: Some(kind) }
    }

    /// A bare client fault (malformed message, unknown operation).
    pub fn client(reason: impl Into<String>) -> Self {
        Fault { code: FaultCode::Client, reason: reason.into(), dais: None }
    }

    /// A bare server fault.
    pub fn server(reason: impl Into<String>) -> Self {
        Fault { code: FaultCode::Server, reason: reason.into(), dais: None }
    }

    /// True when this fault carries the given DAIS classification.
    pub fn is(&self, kind: DaisFault) -> bool {
        self.dais == Some(kind)
    }

    /// Render as the SOAP `Fault` body element.
    pub fn to_xml(&self) -> XmlElement {
        let mut fault = XmlElement::new(ns::SOAP_ENV, "soap", "Fault");
        fault.push(XmlElement::new_local("faultcode").with_text(self.code.as_str()));
        fault.push(XmlElement::new_local("faultstring").with_text(&self.reason));
        if let Some(d) = self.dais {
            let detail = XmlElement::new_local("detail").with_child(XmlElement::new(
                ns::WSDAI,
                "wsdai",
                d.name(),
            ));
            fault.push(detail);
        }
        fault
    }

    /// Recognise a fault in a response body, if present.
    pub fn from_xml(element: &XmlElement) -> Option<Fault> {
        if !element.name.is(ns::SOAP_ENV, "Fault") {
            return None;
        }
        let code = match element.child_text("", "faultcode").as_deref() {
            Some("soap:Server") => FaultCode::Server,
            _ => FaultCode::Client,
        };
        let reason = element.child_text("", "faultstring").unwrap_or_default();
        let dais = element
            .child("", "detail")
            .and_then(|d| d.elements().next())
            .and_then(|e| DaisFault::from_name(&e.name.local));
        Some(Fault { code, reason, dais })
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.dais {
            Some(d) => write!(f, "{} ({}): {}", d.name(), self.code.as_str(), self.reason),
            None => write!(f, "{}: {}", self.code.as_str(), self.reason),
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dais_fault_roundtrip() {
        let f = Fault::dais(DaisFault::InvalidResourceName, "no such resource urn:x");
        let rt = Fault::from_xml(&f.to_xml()).unwrap();
        assert_eq!(rt, f);
        assert!(rt.is(DaisFault::InvalidResourceName));
        assert_eq!(rt.code, FaultCode::Client);
    }

    #[test]
    fn server_faults_classified() {
        let f = Fault::dais(DaisFault::ServiceBusy, "overloaded");
        assert_eq!(f.code, FaultCode::Server);
        let rt = Fault::from_xml(&f.to_xml()).unwrap();
        assert_eq!(rt.code, FaultCode::Server);
    }

    #[test]
    fn bare_fault_roundtrip() {
        let f = Fault::client("unknown operation");
        let rt = Fault::from_xml(&f.to_xml()).unwrap();
        assert_eq!(rt, f);
        assert!(rt.dais.is_none());
    }

    #[test]
    fn non_fault_elements_ignored() {
        assert!(Fault::from_xml(&XmlElement::new_local("NotAFault")).is_none());
    }

    /// Lists every variant through an exhaustive `match`: a variant added
    /// to the enum fails to compile here until it is listed, and
    /// `all_fault_names_roundtrip` then fails until `DaisFault::ALL`
    /// lists it too.
    macro_rules! every_variant {
        ($($variant:ident),+ $(,)?) => {{
            fn _exhaustive(kind: DaisFault) {
                match kind {
                    $(DaisFault::$variant => {})+
                }
            }
            [$(DaisFault::$variant),+]
        }};
    }

    #[test]
    fn all_fault_names_roundtrip() {
        let every = every_variant![
            InvalidResourceName,
            DataResourceUnavailable,
            InvalidLanguage,
            InvalidExpression,
            InvalidDatasetFormat,
            InvalidPortType,
            InvalidConfigurationDocument,
            NotAuthorized,
            ServiceBusy,
            ServiceError,
        ];
        assert_eq!(DaisFault::ALL, every);
        let mut names = std::collections::BTreeSet::new();
        for &kind in DaisFault::ALL {
            assert_eq!(DaisFault::from_name(kind.name()), Some(kind));
            assert!(names.insert(kind.name()), "{kind:?} reuses the name {}", kind.name());
        }
    }
}
