//! The collection tree and the thread-safe database façade.

use crate::xquery::{XQuery, XQueryItem};
use dais_util::sync::RwLock;
use dais_xml::xpath::{DocumentFilter, DocumentIndex, IndexedValue, XPathNode};
use dais_xml::{parse, XPathContext, XPathExpr, XmlElement};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised by the XML store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlDbError {
    NoSuchCollection(String),
    CollectionExists(String),
    NoSuchDocument(String),
    DocumentExists(String),
    InvalidName(String),
    Xml(String),
    Query(String),
}

impl fmt::Display for XmlDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlDbError::NoSuchCollection(c) => write!(f, "no such collection: {c}"),
            XmlDbError::CollectionExists(c) => write!(f, "collection already exists: {c}"),
            XmlDbError::NoSuchDocument(d) => write!(f, "no such document: {d}"),
            XmlDbError::DocumentExists(d) => write!(f, "document already exists: {d}"),
            XmlDbError::InvalidName(n) => write!(f, "invalid name: {n}"),
            XmlDbError::Xml(m) => write!(f, "XML error: {m}"),
            XmlDbError::Query(m) => write!(f, "query error: {m}"),
        }
    }
}

impl std::error::Error for XmlDbError {}

/// A collection: documents plus subcollections, both name-keyed.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    documents: BTreeMap<String, XmlElement>,
    subcollections: BTreeMap<String, Collection>,
}

impl Collection {
    fn resolve(&self, path: &[&str]) -> Option<&Collection> {
        match path.split_first() {
            None => Some(self),
            Some((head, rest)) => self.subcollections.get(*head).and_then(|c| c.resolve(rest)),
        }
    }

    fn resolve_mut(&mut self, path: &[&str]) -> Option<&mut Collection> {
        match path.split_first() {
            None => Some(self),
            Some((head, rest)) => {
                self.subcollections.get_mut(*head).and_then(|c| c.resolve_mut(rest))
            }
        }
    }

    fn document_count_recursive(&self) -> usize {
        self.documents.len()
            + self.subcollections.values().map(Collection::document_count_recursive).sum::<usize>()
    }
}

fn split_path(path: &str) -> Vec<&str> {
    path.split('/').filter(|s| !s.is_empty()).collect()
}

fn valid_segment(s: &str) -> bool {
    !s.is_empty() && !s.contains('/') && s.trim() == s
}

/// A thread-safe XML database. Cloning shares state.
#[derive(Clone)]
pub struct XmlDatabase {
    name: String,
    root: Arc<RwLock<Collection>>,
}

impl XmlDatabase {
    pub fn new(name: impl Into<String>) -> XmlDatabase {
        XmlDatabase { name: name.into(), root: Arc::new(RwLock::new(Collection::default())) }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Create a collection at `path`; all ancestors must already exist
    /// except the final segment.
    pub fn create_collection(&self, path: &str) -> Result<(), XmlDbError> {
        let segments = split_path(path);
        let Some((last, ancestors)) = segments.split_last() else {
            return Err(XmlDbError::InvalidName(path.to_string()));
        };
        if !valid_segment(last) {
            return Err(XmlDbError::InvalidName((*last).to_string()));
        }
        let mut root = self.root.write();
        let parent = root
            .resolve_mut(ancestors)
            .ok_or_else(|| XmlDbError::NoSuchCollection(ancestors.join("/")))?;
        if parent.subcollections.contains_key(*last) {
            return Err(XmlDbError::CollectionExists(path.to_string()));
        }
        parent.subcollections.insert((*last).to_string(), Collection::default());
        Ok(())
    }

    /// Remove a collection (and everything beneath it).
    pub fn remove_collection(&self, path: &str) -> Result<(), XmlDbError> {
        let segments = split_path(path);
        let Some((last, ancestors)) = segments.split_last() else {
            return Err(XmlDbError::InvalidName(path.to_string()));
        };
        let mut root = self.root.write();
        let parent = root
            .resolve_mut(ancestors)
            .ok_or_else(|| XmlDbError::NoSuchCollection(ancestors.join("/")))?;
        parent
            .subcollections
            .remove(*last)
            .map(|_| ())
            .ok_or_else(|| XmlDbError::NoSuchCollection(path.to_string()))
    }

    pub fn has_collection(&self, path: &str) -> bool {
        self.root.read().resolve(&split_path(path)).is_some()
    }

    /// Names of the subcollections of `path`.
    pub fn list_collections(&self, path: &str) -> Result<Vec<String>, XmlDbError> {
        let root = self.root.read();
        let c = root
            .resolve(&split_path(path))
            .ok_or_else(|| XmlDbError::NoSuchCollection(path.to_string()))?;
        Ok(c.subcollections.keys().cloned().collect())
    }

    /// Add a document (parsed from text) to a collection.
    pub fn add_document(&self, collection: &str, name: &str, xml: &str) -> Result<(), XmlDbError> {
        let doc = parse(xml).map_err(|e| XmlDbError::Xml(e.to_string()))?;
        self.add_document_element(collection, name, doc)
    }

    /// Add an already-parsed document.
    pub fn add_document_element(
        &self,
        collection: &str,
        name: &str,
        doc: XmlElement,
    ) -> Result<(), XmlDbError> {
        if !valid_segment(name) {
            return Err(XmlDbError::InvalidName(name.to_string()));
        }
        let mut root = self.root.write();
        let c = root
            .resolve_mut(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        if c.documents.contains_key(name) {
            return Err(XmlDbError::DocumentExists(name.to_string()));
        }
        c.documents.insert(name.to_string(), doc);
        Ok(())
    }

    /// Replace a document wholesale (used by XUpdate).
    pub fn replace_document(
        &self,
        collection: &str,
        name: &str,
        doc: XmlElement,
    ) -> Result<(), XmlDbError> {
        let mut root = self.root.write();
        let c = root
            .resolve_mut(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        if !c.documents.contains_key(name) {
            return Err(XmlDbError::NoSuchDocument(name.to_string()));
        }
        c.documents.insert(name.to_string(), doc);
        Ok(())
    }

    pub fn get_document(&self, collection: &str, name: &str) -> Result<XmlElement, XmlDbError> {
        let root = self.root.read();
        let c = root
            .resolve(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        c.documents.get(name).cloned().ok_or_else(|| XmlDbError::NoSuchDocument(name.to_string()))
    }

    pub fn remove_document(&self, collection: &str, name: &str) -> Result<(), XmlDbError> {
        let mut root = self.root.write();
        let c = root
            .resolve_mut(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        c.documents
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| XmlDbError::NoSuchDocument(name.to_string()))
    }

    /// Names of the documents directly in `collection`.
    pub fn list_documents(&self, collection: &str) -> Result<Vec<String>, XmlDbError> {
        let root = self.root.read();
        let c = root
            .resolve(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        Ok(c.documents.keys().cloned().collect())
    }

    /// How many documents and how many subcollections are directly in
    /// `collection`, read under one guard.
    pub fn collection_counts(&self, collection: &str) -> Result<(usize, usize), XmlDbError> {
        let root = self.root.read();
        let c = root
            .resolve(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        Ok((c.documents.len(), c.subcollections.len()))
    }

    /// Total number of documents in the database.
    pub fn document_count(&self) -> usize {
        self.root.read().document_count_recursive()
    }

    /// Run an XPath expression over every document in a collection
    /// (non-recursive), concatenating node results in document-name order.
    pub fn xpath_query(
        &self,
        collection: &str,
        xpath: &str,
    ) -> Result<Vec<XmlElement>, XmlDbError> {
        self.xpath_query_with(collection, xpath, &XPathContext::default())
    }

    /// As [`XmlDatabase::xpath_query`] with namespace/variable bindings.
    /// Only the documents the expression's
    /// [`XPathExpr::document_filter`] admits are indexed, in one reused
    /// buffer, under one read guard, and a selected node is cloned once,
    /// into the answer. A scalar result is one `<value>` per document.
    pub fn xpath_query_with(
        &self,
        collection: &str,
        xpath: &str,
        ctx: &XPathContext,
    ) -> Result<Vec<XmlElement>, XmlDbError> {
        let expr = XPathExpr::parse(xpath).map_err(|e| XmlDbError::Query(e.to_string()))?;
        let mut out = Vec::new();
        self.for_each_indexed(collection, expr.document_filter(), |index| {
            let value = expr
                .evaluate_in(index, index.root(), &[], ctx)
                .map_err(|e| XmlDbError::Query(e.to_string()))?;
            let IndexedValue::Nodes(ids) = value else {
                // Scalar results are wrapped so collection queries always
                // return elements (one per document).
                out.push(XmlElement::new_local("value").with_text(index.string(&value)));
                return Ok(());
            };
            for id in ids {
                match index.detach(id) {
                    XPathNode::Element(e) | XPathNode::Root(e) => out.push(e),
                    XPathNode::Text(t) => out.push(XmlElement::new_local("text").with_text(t)),
                    XPathNode::Attribute { name, value } => out.push(
                        XmlElement::new_local("attribute")
                            .with_attr("name", name.lexical())
                            .with_text(value),
                    ),
                    XPathNode::Comment(_) => {}
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Run an XQuery over every document in a collection (non-recursive),
    /// concatenating the per-document result sequences in document-name
    /// order. Documents are filtered and indexed as by
    /// [`XmlDatabase::xpath_query_with`]; the answer is the one
    /// [`XQuery::execute_with`] gives document by document.
    pub fn xquery_query(
        &self,
        collection: &str,
        query: &XQuery,
        ctx: &XPathContext,
    ) -> Result<Vec<XQueryItem>, XmlDbError> {
        let mut items = Vec::new();
        self.for_each_indexed(collection, query.document_filter(), |index| {
            query.execute_in(index, ctx, &mut items)
        })?;
        Ok(items)
    }

    /// Lay out each document of `collection` that `filter` admits (every
    /// document, without one) in one reused index, in name order and
    /// under one read guard, and hand it to `visit`. The first error
    /// ends the walk.
    fn for_each_indexed(
        &self,
        collection: &str,
        filter: Option<DocumentFilter<'_>>,
        mut visit: impl FnMut(&DocumentIndex<'_>) -> Result<(), XmlDbError>,
    ) -> Result<(), XmlDbError> {
        let root = self.root.read();
        let c = root
            .resolve(&split_path(collection))
            .ok_or_else(|| XmlDbError::NoSuchCollection(collection.to_string()))?;
        let mut index: Option<DocumentIndex> = None;
        for doc in c.documents.values() {
            if filter.is_some_and(|f| !f.admits(doc)) {
                continue;
            }
            let index = match &mut index {
                Some(index) => {
                    index.reindex(doc);
                    index
                }
                None => index.insert(DocumentIndex::new(doc)),
            };
            visit(index)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> XmlDatabase {
        let db = XmlDatabase::new("test");
        db.create_collection("lib").unwrap();
        db.create_collection("lib/archive").unwrap();
        db.add_document("lib", "b1", "<book year='2001'><title>A</title></book>").unwrap();
        db.add_document("lib", "b2", "<book year='2005'><title>B</title></book>").unwrap();
        db.add_document("lib/archive", "old", "<book year='1990'><title>C</title></book>").unwrap();
        db
    }

    #[test]
    fn collection_management() {
        let db = seeded();
        assert!(db.has_collection("lib"));
        assert!(db.has_collection("lib/archive"));
        assert!(!db.has_collection("nope"));
        assert_eq!(db.list_collections("lib").unwrap(), vec!["archive"]);
        assert_eq!(db.list_collections("").unwrap(), vec!["lib"]);
        assert_eq!(db.document_count(), 3);
        db.remove_collection("lib/archive").unwrap();
        assert_eq!(db.document_count(), 2);
        assert!(db.remove_collection("lib/archive").is_err());
    }

    #[test]
    fn collection_creation_errors() {
        let db = seeded();
        assert_eq!(
            db.create_collection("lib").unwrap_err(),
            XmlDbError::CollectionExists("lib".into())
        );
        assert!(matches!(
            db.create_collection("missing/child"),
            Err(XmlDbError::NoSuchCollection(_))
        ));
        assert!(matches!(db.create_collection(""), Err(XmlDbError::InvalidName(_))));
    }

    #[test]
    fn document_management() {
        let db = seeded();
        assert_eq!(db.list_documents("lib").unwrap(), vec!["b1", "b2"]);
        let doc = db.get_document("lib", "b1").unwrap();
        assert_eq!(doc.child_text("", "title").as_deref(), Some("A"));
        assert!(matches!(db.get_document("lib", "zz"), Err(XmlDbError::NoSuchDocument(_))));
        assert!(matches!(
            db.add_document("lib", "b1", "<dup/>"),
            Err(XmlDbError::DocumentExists(_))
        ));
        assert!(matches!(db.add_document("lib", "bad", "<unclosed"), Err(XmlDbError::Xml(_))));
        db.remove_document("lib", "b1").unwrap();
        assert!(db.get_document("lib", "b1").is_err());
    }

    #[test]
    fn replace_document() {
        let db = seeded();
        let new_doc = parse("<book year='2020'><title>A2</title></book>").unwrap();
        db.replace_document("lib", "b1", new_doc.clone()).unwrap();
        assert_eq!(db.get_document("lib", "b1").unwrap(), new_doc);
        assert!(db.replace_document("lib", "zz", new_doc).is_err());
    }

    #[test]
    fn xpath_over_collection() {
        let db = seeded();
        let titles = db.xpath_query("lib", "/book/title").unwrap();
        assert_eq!(titles.len(), 2);
        let hits = db.xpath_query("lib", "/book[@year > 2003]").unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].child_text("", "title").as_deref(), Some("B"));
        // Archive not searched (non-recursive).
        assert_eq!(db.xpath_query("lib", "/book[@year < 2000]").unwrap().len(), 0);
        assert_eq!(db.xpath_query("lib/archive", "/book").unwrap().len(), 1);
    }

    #[test]
    fn xpath_scalar_results_wrapped() {
        let db = seeded();
        let counts = db.xpath_query("lib", "count(/book/title)").unwrap();
        assert_eq!(counts.len(), 2); // one per document
        assert_eq!(counts[0].text(), "1");
    }

    #[test]
    fn xpath_errors_are_reported() {
        let db = seeded();
        assert!(matches!(db.xpath_query("lib", "///"), Err(XmlDbError::Query(_))));
        assert!(matches!(db.xpath_query("none", "/x"), Err(XmlDbError::NoSuchCollection(_))));
    }

    #[test]
    fn concurrent_access() {
        let db = seeded();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for j in 0..25 {
                        let name = format!("t{i}_{j}");
                        db.add_document("lib", &name, "<x/>").unwrap();
                        let _ = db.xpath_query("lib", "/book").unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.document_count(), 3 + 100);
    }
}
