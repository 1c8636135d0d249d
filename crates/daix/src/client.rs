//! Consumer-side typed client for WS-DAIX services.

use crate::messages::{self, actions};
use dais_core::properties::names;
use dais_core::{AbstractName, CoreClient, DaisClient};
use dais_soap::addressing::Epr;
use dais_soap::client::{CallError, PendingReply, ServiceClient};
use dais_xml::{ns, XmlElement};

/// A typed consumer of WS-DAIX services.
#[derive(Clone)]
pub struct XmlClient {
    core: CoreClient,
}

impl XmlClient {
    /// The WS-DAI core operations.
    pub fn core(&self) -> &CoreClient {
        &self.core
    }

    /// `AddDocuments`: returns per-document `(name, status)` pairs.
    pub fn add_documents(
        &self,
        collection: &AbstractName,
        documents: &[(String, XmlElement)],
    ) -> Result<Vec<(String, String)>, CallError> {
        let req = messages::add_documents_request(collection, documents);
        let response = self.service().request(actions::ADD_DOCUMENTS, req)?;
        Ok(response
            .children_named(ns::WSDAIX, "Result")
            .map(|r| {
                (
                    r.attribute("name").unwrap_or_default().to_string(),
                    r.attribute("status").unwrap_or_default().to_string(),
                )
            })
            .collect())
    }

    /// `GetDocuments` one document per request, keeping up to `window`
    /// requests in flight on the pipelined path; one result per name,
    /// in input order. Use this over [`get_documents`](Self::get_documents)
    /// when the documents are large enough that marshalling them all in
    /// one response is the bottleneck.
    pub fn get_documents_pipelined(
        &self,
        collection: &AbstractName,
        names: &[&str],
        window: usize,
    ) -> Vec<Result<XmlElement, CallError>> {
        let payloads = names
            .iter()
            .map(|name| {
                messages::document_names_request("GetDocumentsRequest", collection, &[*name])
            })
            .collect();
        self.service()
            .request_pipelined(actions::GET_DOCUMENTS, payloads, window, PendingReply::wait)
            .into_iter()
            .map(|result| {
                let response = result?;
                let content = response
                    .children_named(ns::WSDAIX, "Document")
                    .next()
                    .and_then(|d| d.child(ns::WSDAIX, "DocumentContent"))
                    .and_then(|c| c.elements().next())
                    .cloned();
                content
                    .ok_or_else(|| CallError::UnexpectedResponse("no Document in response".into()))
            })
            .collect()
    }

    /// `GetDocuments`: fetch named documents (all when `names` is empty).
    pub fn get_documents(
        &self,
        collection: &AbstractName,
        names: &[&str],
    ) -> Result<Vec<(String, XmlElement)>, CallError> {
        let req = messages::document_names_request("GetDocumentsRequest", collection, names);
        let response = self.service().request(actions::GET_DOCUMENTS, req)?;
        let mut out = Vec::new();
        for d in response.children_named(ns::WSDAIX, "Document") {
            let name = d
                .child_text(ns::WSDAIX, "DocumentName")
                .ok_or_else(|| CallError::UnexpectedResponse("Document missing name".into()))?;
            let content = d
                .child(ns::WSDAIX, "DocumentContent")
                .and_then(|c| c.elements().next())
                .cloned()
                .ok_or_else(|| CallError::UnexpectedResponse("Document missing content".into()))?;
            out.push((name, content));
        }
        Ok(out)
    }

    /// `RemoveDocuments`: returns the number removed.
    pub fn remove_documents(
        &self,
        collection: &AbstractName,
        names: &[&str],
    ) -> Result<u64, CallError> {
        let req = messages::document_names_request("RemoveDocumentsRequest", collection, names);
        let response = self.service().request(actions::REMOVE_DOCUMENTS, req)?;
        response
            .child_text(ns::WSDAIX, "RemovedCount")
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| CallError::UnexpectedResponse("no RemovedCount".into()))
    }

    /// `CreateSubcollection`: returns the abstract name of the new
    /// collection resource.
    pub fn create_subcollection(
        &self,
        collection: &AbstractName,
        name: &str,
    ) -> Result<AbstractName, CallError> {
        let req = dais_core::messages::request("CreateSubcollectionRequest", collection)
            .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "CollectionName").with_text(name));
        let response = self.service().request(actions::CREATE_SUBCOLLECTION, req)?;
        let text = names::DATA_RESOURCE_ABSTRACT_NAME
            .text_in(&response)
            .ok_or_else(|| CallError::UnexpectedResponse("no abstract name in response".into()))?;
        AbstractName::new(text).map_err(|e| CallError::UnexpectedResponse(e.to_string()))
    }

    /// `RemoveSubcollection`.
    pub fn remove_subcollection(
        &self,
        collection: &AbstractName,
        name: &str,
    ) -> Result<(), CallError> {
        let req = dais_core::messages::request("RemoveSubcollectionRequest", collection)
            .with_child(XmlElement::new(ns::WSDAIX, "wsdaix", "CollectionName").with_text(name));
        self.service().request(actions::REMOVE_SUBCOLLECTION, req).map(|_| ())
    }

    /// `GetCollectionPropertyDocument`.
    pub fn get_collection_property_document(
        &self,
        collection: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = dais_core::messages::request("GetCollectionPropertyDocumentRequest", collection);
        let response = self.service().request(actions::GET_COLLECTION_PROPERTY_DOCUMENT, req)?;
        dais_core::messages::property_document(&response).cloned()
    }

    fn items_of(response: &XmlElement) -> Vec<XmlElement> {
        response
            .children_named(ns::WSDAIX, "Item")
            .filter_map(|i| i.elements().next().cloned())
            .collect()
    }

    /// `XPathExecute` (direct access).
    pub fn xpath(
        &self,
        collection: &AbstractName,
        expression: &str,
    ) -> Result<Vec<XmlElement>, CallError> {
        let req = messages::query_request("XPathExecuteRequest", collection, expression);
        let response = self.service().request(actions::XPATH_EXECUTE, req)?;
        Ok(Self::items_of(&response))
    }

    /// `XQueryExecute` (direct access).
    pub fn xquery(
        &self,
        collection: &AbstractName,
        expression: &str,
    ) -> Result<Vec<XmlElement>, CallError> {
        let req = messages::query_request("XQueryExecuteRequest", collection, expression);
        let response = self.service().request(actions::XQUERY_EXECUTE, req)?;
        Ok(Self::items_of(&response))
    }

    /// `XUpdateExecute`: returns the number of nodes modified.
    pub fn xupdate(
        &self,
        collection: &AbstractName,
        modifications: XmlElement,
    ) -> Result<u64, CallError> {
        let req = messages::xupdate_request(collection, modifications);
        let response = self.service().request(actions::XUPDATE_EXECUTE, req)?;
        response
            .child_text(ns::WSDAIX, "ModifiedCount")
            .and_then(|t| t.trim().parse().ok())
            .ok_or_else(|| CallError::UnexpectedResponse("no ModifiedCount".into()))
    }

    /// `XPathExecuteFactory` (indirect access) — EPR of the derived
    /// sequence resource.
    pub fn xpath_factory(
        &self,
        collection: &AbstractName,
        expression: &str,
    ) -> Result<Epr, CallError> {
        let req = messages::query_request("XPathExecuteFactoryRequest", collection, expression);
        let response = self.service().request(actions::XPATH_EXECUTE_FACTORY, req)?;
        dais_core::factory::parse_factory_response(&response).map_err(CallError::Fault)
    }

    /// `XQueryExecuteFactory` (indirect access).
    pub fn xquery_factory(
        &self,
        collection: &AbstractName,
        expression: &str,
    ) -> Result<Epr, CallError> {
        let req = messages::query_request("XQueryExecuteFactoryRequest", collection, expression);
        let response = self.service().request(actions::XQUERY_EXECUTE_FACTORY, req)?;
        dais_core::factory::parse_factory_response(&response).map_err(CallError::Fault)
    }

    /// `GetItems` on a sequence resource.
    pub fn get_items(
        &self,
        sequence: &AbstractName,
        start: usize,
        count: usize,
    ) -> Result<Vec<XmlElement>, CallError> {
        let req = messages::get_items_request(sequence, start, count);
        let response = self.service().request(actions::GET_ITEMS, req)?;
        Ok(Self::items_of(&response))
    }

    /// `GetSequencePropertyDocument`.
    pub fn get_sequence_property_document(
        &self,
        sequence: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = dais_core::messages::request("GetSequencePropertyDocumentRequest", sequence);
        let response = self.service().request(actions::GET_SEQUENCE_PROPERTY_DOCUMENT, req)?;
        dais_core::messages::property_document(&response).cloned()
    }
}

impl DaisClient for XmlClient {
    fn service(&self) -> &ServiceClient {
        self.core.service()
    }

    fn from_service(service: ServiceClient) -> XmlClient {
        XmlClient { core: CoreClient::from_service(service) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{XmlService, XmlServiceOptions};
    use dais_soap::bus::Bus;
    use dais_xml::parse;
    use dais_xmldb::XmlDatabase;

    fn setup() -> (Bus, XmlClient, AbstractName) {
        let bus = Bus::new();
        let db = XmlDatabase::new("library");
        let svc = XmlService::launch(&bus, "bus://xml", db, XmlServiceOptions::default());
        let client = XmlClient::builder().bus(bus.clone()).address("bus://xml").build();
        (bus, client, svc.root_collection)
    }

    fn book(title: &str, price: u32) -> XmlElement {
        parse(&format!("<book><title>{title}</title><price>{price}</price></book>")).unwrap()
    }

    #[test]
    fn document_lifecycle() {
        let (_, client, root) = setup();
        let results = client
            .add_documents(&root, &[("b1".into(), book("TP", 50)), ("b2".into(), book("DDIA", 40))])
            .unwrap();
        assert!(results.iter().all(|(_, s)| s == "Success"));
        // Duplicate insert reports DocumentExists without failing the batch.
        let results = client.add_documents(&root, &[("b1".into(), book("TP", 50))]).unwrap();
        assert_eq!(results[0].1, "DocumentExists");

        let docs = client.get_documents(&root, &[]).unwrap();
        assert_eq!(docs.len(), 2);
        let docs = client.get_documents(&root, &["b2"]).unwrap();
        assert_eq!(docs[0].0, "b2");

        assert_eq!(client.remove_documents(&root, &["b1"]).unwrap(), 1);
        assert!(client.remove_documents(&root, &["b1"]).is_err()); // already gone
    }

    #[test]
    fn pipelined_document_fetch() {
        let (bus, client, root) = setup();
        let batch: Vec<(String, XmlElement)> =
            (0..6).map(|i| (format!("d{i}"), book(&format!("T{i}"), i))).collect();
        client.add_documents(&root, &batch).unwrap();
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(4).seed(23));
        let names: Vec<String> = (0..6).map(|i| format!("d{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let docs = client.get_documents_pipelined(&root, &refs, 4);
        for (i, doc) in docs.into_iter().enumerate() {
            let doc = doc.unwrap();
            assert_eq!(doc.child_text("", "title").as_deref(), Some(format!("T{i}").as_str()));
        }
        // A missing document fails its slot without poisoning the batch.
        let mixed = client.get_documents_pipelined(&root, &["d0", "ghost"], 2);
        assert!(mixed[0].is_ok());
        assert!(mixed[1].is_err());
        bus.shutdown_executor();
    }

    #[test]
    fn subcollections_become_resources() {
        let (_, client, root) = setup();
        let archive = client.create_subcollection(&root, "archive").unwrap();
        // The new resource answers collection operations.
        client.add_documents(&archive, &[("old".into(), book("OLD", 1))]).unwrap();
        let docs = client.get_documents(&archive, &[]).unwrap();
        assert_eq!(docs.len(), 1);
        // Parent's property document counts it.
        let doc = client.get_collection_property_document(&root).unwrap();
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfSubcollections").as_deref(), Some("1"));
        // Both collections listed (plus the service's monitoring resource).
        assert_eq!(client.core().get_resource_list().unwrap().len(), 3);
        client.remove_subcollection(&root, "archive").unwrap();
        // The store no longer has it; the dangling resource faults on use.
        assert!(client.get_documents(&archive, &[]).is_err());
    }

    #[test]
    fn xpath_and_xquery_direct_access() {
        let (_, client, root) = setup();
        client
            .add_documents(&root, &[("b1".into(), book("TP", 50)), ("b2".into(), book("DDIA", 40))])
            .unwrap();
        let hits = client.xpath(&root, "/book[price > 45]/title").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text(), "TP");

        // XQuery runs per document, concatenated in document-name order
        // (b1 then b2); the where clause filters across the collection.
        let items = client
            .xquery(&root, "for $b in /book where $b/price < 45 return <t>{$b/title/text()}</t>")
            .unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].text(), "DDIA");

        let err = client.xpath(&root, "///").unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidExpression));
    }

    #[test]
    fn xupdate_through_service() {
        let (_, client, root) = setup();
        client.add_documents(&root, &[("b1".into(), book("TP", 50))]).unwrap();
        let mods = parse(&format!(
            "<xu:modifications xmlns:xu='{}'>\
               <xu:update select='/book/price'>10</xu:update>\
             </xu:modifications>",
            dais_xmldb::xupdate::XUPDATE_NS
        ))
        .unwrap();
        assert_eq!(client.xupdate(&root, mods).unwrap(), 1);
        let prices = client.xpath(&root, "/book/price").unwrap();
        assert_eq!(prices[0].text(), "10");
    }

    #[test]
    fn indirect_access_sequences() {
        let (bus, client, root) = setup();
        client
            .add_documents(
                &root,
                &[
                    ("b1".into(), book("TP", 50)),
                    ("b2".into(), book("DDIA", 40)),
                    ("b3".into(), book("OSTEP", 0)),
                ],
            )
            .unwrap();
        let epr = client.xpath_factory(&root, "/book/title").unwrap();
        let seq_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        let c2 = XmlClient::builder().bus(bus).epr(epr).build();
        let doc = c2.get_sequence_property_document(&seq_name).unwrap();
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfItems").as_deref(), Some("3"));
        let page = c2.get_items(&seq_name, 0, 2).unwrap();
        assert_eq!(page.len(), 2);
        let page = c2.get_items(&seq_name, 2, 5).unwrap();
        assert_eq!(page.len(), 1);
        // Sequences are snapshots: adding documents later does not grow them.
        client.add_documents(&root, &[("b4".into(), book("NEW", 9))]).unwrap();
        let doc = c2.get_sequence_property_document(&seq_name).unwrap();
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfItems").as_deref(), Some("3"));
    }

    #[test]
    fn xquery_factory_sequences() {
        let (_, client, root) = setup();
        client
            .add_documents(&root, &[("b1".into(), book("TP", 50)), ("b2".into(), book("DDIA", 40))])
            .unwrap();
        let epr = client
            .xquery_factory(&root, "for $b in /book where $b/price > 45 return $b/title")
            .unwrap();
        let seq = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        let items = client.get_items(&seq, 0, 10).unwrap();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].text(), "TP");
    }

    #[test]
    fn generic_query_on_collections() {
        let (_, client, root) = setup();
        client.add_documents(&root, &[("b1".into(), book("TP", 50))]).unwrap();
        let hits = client.core().generic_query(&root, crate::languages::XPATH, "/book").unwrap();
        assert_eq!(hits.len(), 1);
        let err = client.core().generic_query(&root, "urn:sql", "SELECT 1").unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidLanguage));
    }

    #[test]
    fn wrong_resource_kind_faults() {
        let (_, client, root) = setup();
        // GetItems against a collection resource.
        let err = client.get_items(&root, 0, 1).unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidResourceName));
    }
}
