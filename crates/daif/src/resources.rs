//! File resource kinds: directories (externally managed) and derived
//! file sets (service managed).

use crate::store::FileStore;
use crate::WSDAIF_NS;
use dais_core::properties::ResourceManagementKind;
use dais_core::{
    AbstractName, ConfigurationDocument, ConfigurationMap, CoreProperties, DataResource,
};
use dais_xml::{QName, XmlElement};
use std::sync::Arc;

/// A directory (glob scope) in a file store, exposed as a data resource.
pub struct DirectoryResource {
    properties: Arc<CoreProperties>,
    store: FileStore,
    /// Paths served by this resource must match `scope` (empty = all).
    scope: String,
}

impl DirectoryResource {
    pub fn new(
        name: AbstractName,
        store: FileStore,
        scope: impl Into<String>,
    ) -> DirectoryResource {
        let scope = scope.into();
        let mut properties = CoreProperties::new(name, ResourceManagementKind::ExternallyManaged);
        properties.description = if scope.is_empty() {
            "file store root".to_string()
        } else {
            format!("file store scope '{scope}'")
        };
        properties.writeable = true;
        properties.configuration_maps.push(ConfigurationMap::snapshot(
            QName::new(WSDAIF_NS, "wsdaif", "FileSelectFactoryRequest"),
            QName::new(WSDAIF_NS, "wsdaif", "FileSetAccessPT"),
        ));
        DirectoryResource { properties: Arc::new(properties), store, scope }
    }

    /// Apply `configuration` to the resource's configurable properties —
    /// e.g. `Writeable=false` publishes it read-only.
    pub fn configured(mut self, configuration: &ConfigurationDocument) -> Self {
        Arc::make_mut(&mut self.properties).apply_configuration(configuration);
        self
    }

    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Is `path` inside this resource's scope?
    pub fn in_scope(&self, path: &str) -> bool {
        self.scope.is_empty() || path.starts_with(&format!("{}/", self.scope)) || path == self.scope
    }

    /// Files visible through this resource matching `pattern`.
    pub fn select(&self, pattern: &str) -> Vec<(String, usize)> {
        self.store.select(pattern).into_iter().filter(|(p, _)| self.in_scope(p)).collect()
    }
}

impl DataResource for DirectoryResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        let files = self.select("");
        doc.push(
            XmlElement::new(WSDAIF_NS, "wsdaif", "NumberOfFiles")
                .with_text(files.len().to_string()),
        );
        doc.push(
            XmlElement::new(WSDAIF_NS, "wsdaif", "TotalBytes")
                .with_text(files.iter().map(|(_, s)| s).sum::<usize>().to_string()),
        );
        doc.push(XmlElement::new(WSDAIF_NS, "wsdaif", "Scope").with_text(&self.scope));
        doc
    }
}

/// A derived, service-managed set of file references (path + size),
/// created by `FileSelectFactory` and paged with `GetFileSetMembers`.
pub struct FileSetResource {
    properties: Arc<CoreProperties>,
    members: Vec<(String, usize)>,
}

impl FileSetResource {
    pub fn new(properties: CoreProperties, members: Vec<(String, usize)>) -> FileSetResource {
        FileSetResource { properties: Arc::new(properties), members }
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    pub fn members(&self, start: usize, count: usize) -> &[(String, usize)] {
        let end = (start + count).min(self.members.len());
        if start >= self.members.len() {
            &[]
        } else {
            &self.members[start..end]
        }
    }
}

impl DataResource for FileSetResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        let mut doc = self.properties.to_xml();
        doc.push(
            XmlElement::new(WSDAIF_NS, "wsdaif", "NumberOfFiles")
                .with_text(self.members.len().to_string()),
        );
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> FileStore {
        let fs = FileStore::new();
        fs.write("data/a.csv", vec![1, 2, 3]).unwrap();
        fs.write("data/b.csv", vec![4]).unwrap();
        fs.write("other/c.txt", vec![5, 6]).unwrap();
        fs
    }

    #[test]
    fn scoped_selection() {
        let root = DirectoryResource::new(AbstractName::new("urn:f:root").unwrap(), store(), "");
        assert_eq!(root.select("").len(), 3);
        let data =
            DirectoryResource::new(AbstractName::new("urn:f:data").unwrap(), store(), "data");
        assert_eq!(data.select("").len(), 2);
        assert_eq!(data.select("data/a.*").len(), 1);
        assert!(!data.in_scope("other/c.txt"));
        assert!(data.in_scope("data/a.csv"));
    }

    #[test]
    fn property_documents() {
        let root = DirectoryResource::new(AbstractName::new("urn:f:root").unwrap(), store(), "");
        let doc = root.property_document();
        assert_eq!(doc.child_text(WSDAIF_NS, "NumberOfFiles").as_deref(), Some("3"));
        assert_eq!(doc.child_text(WSDAIF_NS, "TotalBytes").as_deref(), Some("6"));
        // Core properties intact.
        assert!(doc.child(dais_xml::ns::WSDAI, "DataResourceAbstractName").is_some());
    }

    #[test]
    fn file_sets_page() {
        let members = vec![("a".to_string(), 1), ("b".to_string(), 2), ("c".to_string(), 3)];
        let props = CoreProperties::new(
            AbstractName::new("urn:f:set").unwrap(),
            ResourceManagementKind::ServiceManaged,
        );
        let set = FileSetResource::new(props, members);
        assert_eq!(set.len(), 3);
        assert_eq!(set.members(0, 2).len(), 2);
        assert_eq!(set.members(2, 5).len(), 1);
        assert_eq!(set.members(9, 1).len(), 0);
        assert_eq!(
            set.property_document().child_text(WSDAIF_NS, "NumberOfFiles").as_deref(),
            Some("3")
        );
    }
}
