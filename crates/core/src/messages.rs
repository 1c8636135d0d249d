//! WS-DAI message names, SOAP actions, and request/response helpers.
//!
//! Every DAIS request body carries the target resource's
//! `DataResourceAbstractName` (paper §3 and §5: mandated "so that the
//! messaging framework is the same regardless of whether WSRF is used or
//! not"). Helpers here build and pick apart those message shapes so the
//! realisations share one implementation of the pattern in Figure 2.

use crate::name::AbstractName;
use crate::properties::names;
use dais_soap::client::CallError;
use dais_soap::fault::{DaisFault, Fault};
use dais_xml::{ns, XmlElement};

/// SOAP action URIs for the WS-DAI core operations (Figure 6).
pub mod actions {
    dais_soap::actions! {
        GET_DATA_RESOURCE_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAI/GetDataResourcePropertyDocument", Read;
        DESTROY_DATA_RESOURCE =
            "http://www.ggf.org/namespaces/2005/12/WS-DAI/DestroyDataResource", Write;
        GENERIC_QUERY = "http://www.ggf.org/namespaces/2005/12/WS-DAI/GenericQuery", Read;
        GET_RESOURCE_LIST = "http://www.ggf.org/namespaces/2005/12/WS-DAI/GetResourceList", Read;
        RESOLVE = "http://www.ggf.org/namespaces/2005/12/WS-DAI/Resolve", Read;
    }
}

/// Build a request element carrying the mandatory abstract name.
pub fn request(local: &str, resource: &AbstractName) -> XmlElement {
    XmlElement::new(ns::WSDAI, "wsdai", local)
        .with_child(names::DATA_RESOURCE_ABSTRACT_NAME.element().with_text(resource.as_str()))
}

/// Extract the mandatory abstract name from a request body, faulting with
/// `InvalidResourceName` when absent or malformed.
pub fn extract_resource_name(body: &XmlElement) -> Result<AbstractName, Fault> {
    let text = names::DATA_RESOURCE_ABSTRACT_NAME.text_in(body).ok_or_else(|| {
        Fault::dais(
            DaisFault::InvalidResourceName,
            "request body carries no wsdai:DataResourceAbstractName",
        )
    })?;
    AbstractName::new(text.trim().to_string())
        .map_err(|e| Fault::dais(DaisFault::InvalidResourceName, e.to_string()))
}

/// Extract the `DataFormatURI` of a direct-access request, if present.
pub fn extract_format_uri(body: &XmlElement) -> Option<String> {
    body.child_text(ns::WSDAI, "DataFormatURI").map(|t| t.trim().to_string())
}

/// Extract the `PortTypeQName` of an indirect-access (factory) request.
pub fn extract_port_type(body: &XmlElement) -> Option<String> {
    names::PORT_TYPE_QNAME.text_in(body).map(|t| t.trim().to_string())
}

/// The `wsdai:PropertyDocument` a `Get…PropertyDocument` response
/// carries.
pub fn property_document(response: &XmlElement) -> Result<&XmlElement, CallError> {
    names::PROPERTY_DOCUMENT
        .find_in(response)
        .ok_or_else(|| CallError::UnexpectedResponse("no PropertyDocument in response".into()))
}

/// Build a `GenericQueryRequest`.
pub fn generic_query_request(
    resource: &AbstractName,
    language: &str,
    expression: &str,
) -> XmlElement {
    request("GenericQueryRequest", resource)
        .with_child(names::GENERIC_QUERY_LANGUAGE.element().with_text(language))
        .with_child(XmlElement::new(ns::WSDAI, "wsdai", "GenericExpression").with_text(expression))
}

/// Parse the language/expression pair from a `GenericQueryRequest`.
pub fn parse_generic_query(body: &XmlElement) -> Result<(String, String), Fault> {
    let language = names::GENERIC_QUERY_LANGUAGE
        .text_in(body)
        .ok_or_else(|| Fault::dais(DaisFault::InvalidLanguage, "missing GenericQueryLanguage"))?;
    let expression = body
        .child_text(ns::WSDAI, "GenericExpression")
        .ok_or_else(|| Fault::dais(DaisFault::InvalidExpression, "missing GenericExpression"))?;
    Ok((language, expression))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_carries_abstract_name() {
        let name = AbstractName::new("urn:dais:x:r:1").unwrap();
        let req = request("GetDataResourcePropertyDocumentRequest", &name);
        assert_eq!(extract_resource_name(&req).unwrap(), name);
    }

    #[test]
    fn missing_name_faults() {
        let body = XmlElement::new(ns::WSDAI, "wsdai", "SomeRequest");
        let fault = extract_resource_name(&body).unwrap_err();
        assert!(fault.is(DaisFault::InvalidResourceName));
    }

    #[test]
    fn malformed_name_faults() {
        let body = XmlElement::new(ns::WSDAI, "wsdai", "SomeRequest").with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAbstractName").with_text("not a uri"),
        );
        assert!(extract_resource_name(&body).unwrap_err().is(DaisFault::InvalidResourceName));
    }

    #[test]
    fn generic_query_roundtrip() {
        let name = AbstractName::new("urn:dais:x:r:1").unwrap();
        let req = generic_query_request(&name, "urn:sql:92", "SELECT 1");
        let (lang, expr) = parse_generic_query(&req).unwrap();
        assert_eq!(lang, "urn:sql:92");
        assert_eq!(expr, "SELECT 1");
        assert_eq!(extract_resource_name(&req).unwrap(), name);
    }

    #[test]
    fn optional_fields() {
        let name = AbstractName::new("urn:dais:x:r:1").unwrap();
        let mut req = request("X", &name);
        assert_eq!(extract_format_uri(&req), None);
        assert_eq!(extract_port_type(&req), None);
        req.push(XmlElement::new(ns::WSDAI, "wsdai", "DataFormatURI").with_text("urn:fmt"));
        req.push(XmlElement::new(ns::WSDAI, "wsdai", "PortTypeQName").with_text("wsdair:PT"));
        assert_eq!(extract_format_uri(&req).as_deref(), Some("urn:fmt"));
        assert_eq!(extract_port_type(&req).as_deref(), Some("wsdair:PT"));
    }
}
