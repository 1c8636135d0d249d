//! XML resource kinds: collections (externally managed) and query result
//! sequences (service managed).

use crate::languages;
use dais_core::properties::{names, ResourceManagementKind};
use dais_core::{
    AbstractName, ConfigurationDocument, ConfigurationMap, CoreProperties, DataResource, DatasetMap,
};
use dais_soap::fault::{DaisFault, Fault};
use dais_xml::{ns, QName, XPathContext, XmlElement};
use dais_xmldb::{XQuery, XQueryItem, XmlDatabase, XmlDbError};
use std::sync::Arc;

/// Map a store error to the DAIS fault taxonomy.
pub fn xmldb_fault(e: XmlDbError) -> Fault {
    match &e {
        XmlDbError::NoSuchCollection(_) | XmlDbError::NoSuchDocument(_) => {
            Fault::dais(DaisFault::InvalidResourceName, e.to_string())
        }
        XmlDbError::Query(_) => Fault::dais(DaisFault::InvalidExpression, e.to_string()),
        _ => Fault::dais(DaisFault::ServiceError, e.to_string()),
    }
}

/// An XML collection exposed as a data resource. The collection lives in
/// the wrapped [`XmlDatabase`]; destroying the resource severs the
/// service relationship without deleting the data (externally managed).
pub struct XmlCollectionResource {
    properties: Arc<CoreProperties>,
    db: XmlDatabase,
    path: String,
}

impl XmlCollectionResource {
    pub fn new(
        name: AbstractName,
        db: XmlDatabase,
        path: impl Into<String>,
    ) -> XmlCollectionResource {
        let path = path.into();
        let mut properties = CoreProperties::new(name, ResourceManagementKind::ExternallyManaged);
        properties.description = format!("XML collection '{path}' in database '{}'", db.name());
        properties.writeable = true;
        properties.generic_query_languages =
            vec![languages::XPATH.to_string(), languages::XQUERY.to_string()];
        properties.dataset_maps.push(DatasetMap {
            message: QName::new(ns::WSDAIX, "wsdaix", "XPathExecuteRequest"),
            dataset_format: "http://www.w3.org/TR/xpath#node-sequence".to_string(),
        });
        for message in ["XPathExecuteFactoryRequest", "XQueryExecuteFactoryRequest"] {
            properties.configuration_maps.push(ConfigurationMap::snapshot(
                QName::new(ns::WSDAIX, "wsdaix", message),
                QName::new(ns::WSDAIX, "wsdaix", "SequenceAccessPT"),
            ));
        }
        XmlCollectionResource { properties: Arc::new(properties), db, path }
    }

    /// Apply `configuration` to the resource's configurable properties —
    /// e.g. `Writeable=false` publishes it read-only.
    pub fn configured(mut self, configuration: &ConfigurationDocument) -> Self {
        Arc::make_mut(&mut self.properties).apply_configuration(configuration);
        self
    }

    pub fn database(&self) -> &XmlDatabase {
        &self.db
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// Evaluate an XPath over every document in the collection.
    pub fn xpath(&self, expression: &str) -> Result<Vec<XmlElement>, Fault> {
        self.db.xpath_query(&self.path, expression).map_err(xmldb_fault)
    }

    /// Evaluate an XQuery over every document, concatenating per-document
    /// result sequences in document-name order.
    pub fn xquery(&self, expression: &str) -> Result<Vec<XQueryItem>, Fault> {
        let query = XQuery::parse(expression).map_err(xmldb_fault)?;
        self.db.xquery_query(&self.path, &query, &XPathContext::default()).map_err(xmldb_fault)
    }

    /// Apply an XUpdate modifications document to every document in the
    /// collection; returns the total number of nodes touched.
    pub fn xupdate(&self, modifications: &XmlElement) -> Result<usize, Fault> {
        let names = self.db.list_documents(&self.path).map_err(xmldb_fault)?;
        let mut touched = 0;
        for name in names {
            let mut doc = self.db.get_document(&self.path, &name).map_err(xmldb_fault)?;
            let n = dais_xmldb::apply_xupdate(&mut doc, modifications, &Default::default())
                .map_err(xmldb_fault)?;
            if n > 0 {
                self.db.replace_document(&self.path, &name, doc).map_err(xmldb_fault)?;
                touched += n;
            }
        }
        Ok(touched)
    }
}

impl DataResource for XmlCollectionResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        if let Ok((documents, subcollections)) = self.db.collection_counts(&self.path) {
            doc.push(names::NUMBER_OF_DOCUMENTS.element().with_text(documents.to_string()));
            doc.push(
                names::NUMBER_OF_SUBCOLLECTIONS.element().with_text(subcollections.to_string()),
            );
        }
        doc.push(names::COLLECTION_PATH.element().with_text(&self.path));
        doc
    }

    fn generic_query(&self, language: &str, expression: &str) -> Result<Vec<XmlElement>, Fault> {
        match language {
            l if l == languages::XPATH => self.xpath(expression),
            l if l == languages::XQUERY => {
                Ok(self.xquery(expression)?.iter().map(XQueryItem::to_element).collect())
            }
            other => Err(Fault::dais(
                DaisFault::InvalidLanguage,
                format!("language '{other}' is not supported by XML collections"),
            )),
        }
    }
}

/// A derived, service-managed sequence of query result items, created by
/// the XPath/XQuery factories and consumed through `GetItems`.
pub struct SequenceResource {
    properties: Arc<CoreProperties>,
    items: Vec<XmlElement>,
}

impl SequenceResource {
    pub fn new(properties: CoreProperties, items: Vec<XmlElement>) -> SequenceResource {
        SequenceResource { properties: Arc::new(properties), items }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// A page of items.
    pub fn items(&self, start: usize, count: usize) -> &[XmlElement] {
        let end = (start + count).min(self.items.len());
        if start >= self.items.len() {
            &[]
        } else {
            &self.items[start..end]
        }
    }
}

impl DataResource for SequenceResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        doc.push(names::NUMBER_OF_ITEMS.element().with_text(self.items.len().to_string()));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> XmlDatabase {
        let db = XmlDatabase::new("xtest");
        db.create_collection("lib").unwrap();
        db.add_document("lib", "b1", "<book><title>TP</title><price>50</price></book>").unwrap();
        db.add_document("lib", "b2", "<book><title>DDIA</title><price>40</price></book>").unwrap();
        db
    }

    fn collection() -> XmlCollectionResource {
        XmlCollectionResource::new(AbstractName::new("urn:dais:x:coll:0").unwrap(), db(), "lib")
    }

    #[test]
    fn xpath_over_collection() {
        let c = collection();
        let hits = c.xpath("/book[price > 45]/title").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].text(), "TP");
        assert!(c.xpath("///").unwrap_err().is(DaisFault::InvalidExpression));
    }

    #[test]
    fn xquery_over_collection() {
        let c = collection();
        let items = c
            .xquery("for $b in /book where $b/price > 30 return <hit>{$b/title/text()}</hit>")
            .unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].string_value(), "TP"); // b1 before b2
    }

    #[test]
    fn xupdate_over_collection() {
        let c = collection();
        let mods = dais_xml::parse(&format!(
            "<xu:modifications xmlns:xu='{}'>\
               <xu:update select='/book/price'>1</xu:update>\
             </xu:modifications>",
            dais_xmldb::xupdate::XUPDATE_NS
        ))
        .unwrap();
        let touched = c.xupdate(&mods).unwrap();
        assert_eq!(touched, 2);
        let prices = c.xpath("/book/price").unwrap();
        assert!(prices.iter().all(|p| p.text() == "1"));
    }

    #[test]
    fn generic_query_languages() {
        let c = collection();
        assert_eq!(c.generic_query(languages::XPATH, "/book").unwrap().len(), 2);
        assert_eq!(
            c.generic_query(languages::XQUERY, "for $b in /book return $b/title").unwrap().len(),
            2
        );
        assert!(c.generic_query("urn:sql", "SELECT").unwrap_err().is(DaisFault::InvalidLanguage));
    }

    #[test]
    fn collection_property_document() {
        let c = collection();
        let doc = c.property_document();
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfDocuments").as_deref(), Some("2"));
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfSubcollections").as_deref(), Some("0"));
        assert_eq!(doc.child_text(ns::WSDAIX, "CollectionPath").as_deref(), Some("lib"));
        // Core properties present too.
        assert!(doc.child(ns::WSDAI, "GenericQueryLanguage").is_some());
    }

    #[test]
    fn sequence_resource_pages() {
        let items: Vec<XmlElement> =
            (0..5).map(|i| XmlElement::new_local("i").with_text(i.to_string())).collect();
        let props = CoreProperties::new(
            AbstractName::new("urn:dais:x:seq:0").unwrap(),
            ResourceManagementKind::ServiceManaged,
        );
        let s = SequenceResource::new(props, items);
        assert_eq!(s.len(), 5);
        assert_eq!(s.items(0, 2).len(), 2);
        assert_eq!(s.items(4, 10).len(), 1);
        assert_eq!(s.items(9, 1).len(), 0);
        let doc = s.property_document();
        assert_eq!(doc.child_text(ns::WSDAIX, "NumberOfItems").as_deref(), Some("5"));
    }
}
