//! WS-DAIX message forms and SOAP action URIs.

use dais_core::messages as core_messages;
use dais_core::AbstractName;
use dais_soap::fault::{DaisFault, Fault};
use dais_xml::{ns, XmlElement};

/// SOAP action URIs for the WS-DAIX operations.
pub mod actions {
    dais_soap::actions! {
        ADD_DOCUMENTS = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/AddDocuments", Write;
        GET_DOCUMENTS = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetDocuments", Read;
        REMOVE_DOCUMENTS = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/RemoveDocuments", Write;
        CREATE_SUBCOLLECTION =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/CreateSubcollection", Write;
        REMOVE_SUBCOLLECTION =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/RemoveSubcollection", Write;
        GET_COLLECTION_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetCollectionPropertyDocument", Read;
        XPATH_EXECUTE = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XPathExecute", Read;
        XQUERY_EXECUTE = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XQueryExecute", Read;
        XUPDATE_EXECUTE = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XUpdateExecute", Write;
        XPATH_EXECUTE_FACTORY =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XPathExecuteFactory", Write;
        XQUERY_EXECUTE_FACTORY =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/XQueryExecuteFactory", Write;
        GET_ITEMS = "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetItems", Read;
        GET_SEQUENCE_PROPERTY_DOCUMENT =
            "http://www.ggf.org/namespaces/2005/12/WS-DAIX/GetSequencePropertyDocument", Read;
    }
}

/// Build an `AddDocumentsRequest` with `(name, document)` pairs.
pub fn add_documents_request(
    resource: &AbstractName,
    documents: &[(String, XmlElement)],
) -> XmlElement {
    let mut req = core_messages::request("AddDocumentsRequest", resource);
    for (name, doc) in documents {
        req.push(
            XmlElement::new(ns::WSDAIX, "wsdaix", "Document")
                .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentName").with_text(name))
                .with_child(
                    XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentContent")
                        .with_child(doc.clone()),
                ),
        );
    }
    req
}

/// Parse the `(name, document)` pairs of an `AddDocumentsRequest`.
pub fn parse_add_documents(body: &XmlElement) -> Result<Vec<(String, XmlElement)>, Fault> {
    let mut out = Vec::new();
    for d in body.children_named(ns::WSDAIX, "Document") {
        let name = d
            .child_text(ns::WSDAIX, "DocumentName")
            .ok_or_else(|| Fault::client("Document missing DocumentName"))?;
        let content = d
            .child(ns::WSDAIX, "DocumentContent")
            .and_then(|c| c.elements().next())
            .ok_or_else(|| Fault::client("Document missing DocumentContent"))?;
        out.push((name, content.clone()));
    }
    if out.is_empty() {
        return Err(Fault::client("AddDocuments carries no Document elements"));
    }
    Ok(out)
}

/// Build a request carrying a list of document names.
pub fn document_names_request(
    message: &str,
    resource: &AbstractName,
    names: &[&str],
) -> XmlElement {
    let mut req = core_messages::request(message, resource);
    for n in names {
        req.push(XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentName").with_text(*n));
    }
    req
}

/// Parse the document names out of a request body.
pub fn parse_document_names(body: &XmlElement) -> Vec<String> {
    body.children_named(ns::WSDAIX, "DocumentName").map(|e| e.text()).collect()
}

/// Build a query-execution request (`XPathExecuteRequest` etc.).
pub fn query_request(message: &str, resource: &AbstractName, expression: &str) -> XmlElement {
    core_messages::request(message, resource)
        .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "Expression").with_text(expression))
}

/// Parse the expression out of a query request.
pub fn parse_expression(body: &XmlElement) -> Result<String, Fault> {
    body.child_text(ns::WSDAIX, "Expression")
        .ok_or_else(|| Fault::dais(DaisFault::InvalidExpression, "missing wsdaix:Expression"))
}

/// Build an `XUpdateExecuteRequest` carrying a modifications document.
pub fn xupdate_request(resource: &AbstractName, modifications: XmlElement) -> XmlElement {
    core_messages::request("XUpdateExecuteRequest", resource).with_child(modifications)
}

/// Build a `GetItemsRequest` (paged sequence retrieval).
pub fn get_items_request(resource: &AbstractName, start: usize, count: usize) -> XmlElement {
    core_messages::request("GetItemsRequest", resource)
        .with_child(
            XmlElement::new(ns::WSDAIX, "wsdaix", "StartPosition").with_text(start.to_string()),
        )
        .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "Count").with_text(count.to_string()))
}

/// Parse `(start, count)` from a `GetItemsRequest`.
pub fn parse_get_items(body: &XmlElement) -> Result<(usize, usize), Fault> {
    let start = body
        .child_text(ns::WSDAIX, "StartPosition")
        .and_then(|t| t.trim().parse().ok())
        .ok_or_else(|| Fault::client("GetItems missing StartPosition"))?;
    let count = body
        .child_text(ns::WSDAIX, "Count")
        .and_then(|t| t.trim().parse().ok())
        .ok_or_else(|| Fault::client("GetItems missing Count"))?;
    Ok((start, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name() -> AbstractName {
        AbstractName::new("urn:dais:x:coll:0").unwrap()
    }

    #[test]
    fn add_documents_roundtrip() {
        let docs = vec![
            ("a".to_string(), XmlElement::new_local("one").with_text("1")),
            ("b".to_string(), XmlElement::new_local("two")),
        ];
        let req = add_documents_request(&name(), &docs);
        let parsed = parse_add_documents(&req).unwrap();
        assert_eq!(parsed, docs);
    }

    #[test]
    fn add_documents_validation() {
        let empty = dais_core::messages::request("AddDocumentsRequest", &name());
        assert!(parse_add_documents(&empty).is_err());
        let missing_content = empty.clone().with_child(
            XmlElement::new(ns::WSDAIX, "wsdaix", "Document")
                .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentName").with_text("a")),
        );
        assert!(parse_add_documents(&missing_content).is_err());
    }

    #[test]
    fn document_names_roundtrip() {
        let req = document_names_request("GetDocumentsRequest", &name(), &["a", "b"]);
        assert_eq!(parse_document_names(&req), vec!["a", "b"]);
    }

    #[test]
    fn query_request_roundtrip() {
        let req = query_request("XPathExecuteRequest", &name(), "//book[price > 3]");
        assert_eq!(parse_expression(&req).unwrap(), "//book[price > 3]");
        let bad = dais_core::messages::request("XPathExecuteRequest", &name());
        assert!(parse_expression(&bad).is_err());
    }

    #[test]
    fn get_items_roundtrip() {
        let req = get_items_request(&name(), 5, 10);
        assert_eq!(parse_get_items(&req).unwrap(), (5, 10));
    }
}
