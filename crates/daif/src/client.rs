//! Consumer-side typed client for WS-DAIF file services.

use crate::{actions, base64, WSDAIF_NS};
use dais_core::messages as core_messages;
use dais_core::{AbstractName, CoreClient, DaisClient};
use dais_soap::addressing::Epr;
use dais_soap::client::{CallError, PendingReply, ServiceClient};
use dais_xml::XmlElement;

/// A typed consumer of WS-DAIF services. Wraps [`CoreClient`] (all the
/// WS-DAI core operations remain available through [`FileClient::core`]).
#[derive(Clone)]
pub struct FileClient {
    core: CoreClient,
}

impl FileClient {
    /// The WS-DAI core operations.
    pub fn core(&self) -> &CoreClient {
        &self.core
    }

    fn path_request(resource: &AbstractName, local: &str, path: &str) -> XmlElement {
        core_messages::request(local, resource)
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text(path))
    }

    fn members_of(response: &XmlElement) -> Vec<(String, u64)> {
        response
            .children_named(WSDAIF_NS, "File")
            .map(|f| {
                let size = f.attribute("size").and_then(|s| s.parse().ok()).unwrap_or(0);
                (f.text(), size)
            })
            .collect()
    }

    /// `ReadFile`: the decoded contents of one file.
    pub fn read_file(&self, resource: &AbstractName, path: &str) -> Result<Vec<u8>, CallError> {
        let response = self
            .service()
            .request(actions::READ_FILE, Self::path_request(resource, "ReadFileRequest", path))?;
        let encoded = response
            .child_text(WSDAIF_NS, "Contents")
            .ok_or_else(|| CallError::UnexpectedResponse("no Contents in response".into()))?;
        base64::decode(&encoded).map_err(CallError::UnexpectedResponse)
    }

    /// `ReadFile` against many paths at once, keeping up to `window`
    /// requests in flight on the pipelined path; one decoded contents
    /// per path, in input order.
    pub fn read_files(
        &self,
        resource: &AbstractName,
        paths: &[&str],
        window: usize,
    ) -> Vec<Result<Vec<u8>, CallError>> {
        let payloads =
            paths.iter().map(|p| Self::path_request(resource, "ReadFileRequest", p)).collect();
        self.service()
            .request_pipelined(actions::READ_FILE, payloads, window, PendingReply::wait)
            .into_iter()
            .map(|result| {
                let encoded = result?.child_text(WSDAIF_NS, "Contents").ok_or_else(|| {
                    CallError::UnexpectedResponse("no Contents in response".into())
                })?;
                base64::decode(&encoded).map_err(CallError::UnexpectedResponse)
            })
            .collect()
    }

    /// `WriteFile`: store `contents` at `path`, returning the new size.
    pub fn write_file(
        &self,
        resource: &AbstractName,
        path: &str,
        contents: &[u8],
    ) -> Result<u64, CallError> {
        let req = Self::path_request(resource, "WriteFileRequest", path).with_child(
            XmlElement::new(WSDAIF_NS, "wsdaif", "Contents").with_text(base64::encode(contents)),
        );
        let response = self.service().request(actions::WRITE_FILE, req)?;
        response
            .child_text(WSDAIF_NS, "Size")
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| CallError::UnexpectedResponse("no Size in response".into()))
    }

    /// `DeleteFile`.
    pub fn delete_file(&self, resource: &AbstractName, path: &str) -> Result<(), CallError> {
        self.service()
            .request(actions::DELETE_FILE, Self::path_request(resource, "DeleteFileRequest", path))
            .map(|_| ())
    }

    /// `ListFiles` matching a glob-style pattern: `(path, size)` pairs.
    pub fn list_files(
        &self,
        resource: &AbstractName,
        pattern: &str,
    ) -> Result<Vec<(String, u64)>, CallError> {
        let req = core_messages::request("ListFilesRequest", resource)
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Pattern").with_text(pattern));
        let response = self.service().request(actions::LIST_FILES, req)?;
        Ok(Self::members_of(&response))
    }

    /// `GetFilePropertyDocument`: the raw property document XML.
    pub fn get_file_property_document(
        &self,
        resource: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let req = core_messages::request("GetFilePropertyDocumentRequest", resource);
        let response = self.service().request(actions::GET_FILE_PROPERTY_DOCUMENT, req)?;
        core_messages::property_document(&response).cloned()
    }

    /// `FileSelectFactory`: derive a file-set resource from a selection
    /// (the indirect access pattern) and return its EPR.
    pub fn file_select_factory(
        &self,
        resource: &AbstractName,
        pattern: &str,
    ) -> Result<Epr, CallError> {
        let req = core_messages::request("FileSelectFactoryRequest", resource)
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Pattern").with_text(pattern));
        let response = self.service().request(actions::FILE_SELECT_FACTORY, req)?;
        dais_core::factory::parse_factory_response(&response).map_err(CallError::Fault)
    }

    /// `GetFileSetMembers`: one page of a derived file-set.
    pub fn get_file_set_members(
        &self,
        file_set: &AbstractName,
        start: usize,
        count: usize,
    ) -> Result<Vec<(String, u64)>, CallError> {
        let req = core_messages::request("GetFileSetMembersRequest", file_set)
            .with_child(
                XmlElement::new(WSDAIF_NS, "wsdaif", "StartPosition").with_text(start.to_string()),
            )
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Count").with_text(count.to_string()));
        let response = self.service().request(actions::GET_FILE_SET_MEMBERS, req)?;
        Ok(Self::members_of(&response))
    }
}

impl DaisClient for FileClient {
    fn service(&self) -> &ServiceClient {
        self.core.service()
    }

    fn from_service(service: ServiceClient) -> FileClient {
        FileClient { core: CoreClient::from_service(service) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FileStore;
    use crate::{FileService, FileServiceOptions};
    use dais_soap::bus::Bus;

    fn setup() -> (Bus, FileClient, AbstractName) {
        let bus = Bus::new();
        let store = FileStore::new();
        store.write("data/a.csv", b"1,2,3".to_vec()).unwrap();
        store.write("data/b.csv", b"4,5".to_vec()).unwrap();
        store.write("readme.txt", b"hello".to_vec()).unwrap();
        let svc = FileService::launch(&bus, "bus://files", store, FileServiceOptions::default());
        (bus.clone(), FileClient::builder().bus(bus).address("bus://files").build(), svc.root)
    }

    #[test]
    fn typed_read_write_delete() {
        let (_, client, root) = setup();
        assert_eq!(client.write_file(&root, "new/file.bin", &[0, 1, 2, 255]).unwrap(), 4);
        assert_eq!(client.read_file(&root, "new/file.bin").unwrap(), vec![0, 1, 2, 255]);
        client.delete_file(&root, "new/file.bin").unwrap();
        assert!(client.read_file(&root, "new/file.bin").is_err());
    }

    #[test]
    fn typed_listing_and_properties() {
        let (_, client, root) = setup();
        let files = client.list_files(&root, "data/*.csv").unwrap();
        assert_eq!(files, vec![("data/a.csv".into(), 5), ("data/b.csv".into(), 3)]);
        let doc = client.get_file_property_document(&root).unwrap();
        assert_eq!(doc.child_text(WSDAIF_NS, "NumberOfFiles").as_deref(), Some("3"));
    }

    #[test]
    fn typed_factory_and_paging() {
        let (bus, client, root) = setup();
        let epr = client.file_select_factory(&root, "data/*").unwrap();
        let set = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
        let via_epr = FileClient::builder().bus(bus).epr(epr).build();
        let page = via_epr.get_file_set_members(&set, 1, 5).unwrap();
        assert_eq!(page, vec![("data/b.csv".into(), 3)]);
    }

    #[test]
    fn read_files_pipelines_a_batch() {
        let (bus, client, root) = setup();
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(4).seed(31));
        let results =
            client.read_files(&root, &["readme.txt", "data/a.csv", "missing.bin", "data/b.csv"], 3);
        assert_eq!(results[0].as_deref().unwrap(), b"hello");
        assert!(results[2].is_err(), "missing file fails its slot only");
        assert!(results[1].is_ok() && results[3].is_ok());
        bus.shutdown_executor();
    }

    #[test]
    fn retrying_client_reads_through_core() {
        let (bus, _, root) = setup();
        let client = FileClient::builder()
            .bus(bus)
            .address("bus://files")
            .retry(dais_soap::retry::RetryPolicy::new(3))
            .build();
        // The retry layer is pass-through on a healthy service.
        assert_eq!(client.read_file(&root, "readme.txt").unwrap(), b"hello");
        let props = client.core().get_property_document(&root).unwrap();
        assert!(props.readable);
    }
}
