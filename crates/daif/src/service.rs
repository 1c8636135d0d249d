//! Service-side registration of the WS-DAIF interfaces, plus an
//! assembled single-address file data service.

use crate::actions;
use crate::base64;
use crate::resources::{DirectoryResource, FileSetResource};
use crate::store::FileStore;
use crate::WSDAIF_NS;
use dais_core::{
    register_op, register_property_document, FactoryRequest, NameGenerator, Requires,
    ServiceContext, ServiceSkeleton,
};
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_wsrf::LifetimeRegistry;
use dais_xml::{QName, XmlElement};
use std::sync::Arc;

fn path_of(body: &XmlElement) -> Result<String, Fault> {
    body.child_text(WSDAIF_NS, "Path").ok_or_else(|| Fault::client("missing wsdaif:Path"))
}

/// The request's path, refused when it lies outside `dir`'s scope.
fn scoped_path(body: &XmlElement, dir: &DirectoryResource) -> Result<String, Fault> {
    let path = path_of(body)?;
    if !dir.in_scope(&path) {
        return Err(Fault::dais(DaisFault::NotAuthorized, "path is outside this resource's scope"));
    }
    Ok(path)
}

/// `File` elements listing `(path, size)` pairs.
fn push_files<'a>(response: &mut XmlElement, files: impl IntoIterator<Item = &'a (String, usize)>) {
    for (path, size) in files {
        response.push(
            XmlElement::new(WSDAIF_NS, "wsdaif", "File")
                .with_attr("size", size.to_string())
                .with_text(path.clone()),
        );
    }
}

/// Register the **FileAccess** interface.
pub fn register_file_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let op = |body: &XmlElement, dir: &DirectoryResource| {
        let path = scoped_path(body, dir)?;
        let contents = dir
            .store()
            .read(&path)
            .map_err(|e| Fault::dais(DaisFault::InvalidExpression, e.to_string()))?;
        Ok(Envelope::with_body(
            XmlElement::new(WSDAIF_NS, "wsdaif", "ReadFileResponse")
                .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text(path))
                .with_child(
                    XmlElement::new(WSDAIF_NS, "wsdaif", "Contents")
                        .with_text(base64::encode(&contents)),
                ),
        ))
    };
    register_op(dispatcher, &ctx, actions::READ_FILE, Requires::Readable, op);

    let op = |body: &XmlElement, dir: &DirectoryResource| {
        let path = scoped_path(body, dir)?;
        let contents = body
            .child_text(WSDAIF_NS, "Contents")
            .ok_or_else(|| Fault::client("missing wsdaif:Contents"))?;
        let bytes =
            base64::decode(&contents).map_err(|e| Fault::dais(DaisFault::InvalidExpression, e))?;
        let size = dir
            .store()
            .write(&path, bytes)
            .map_err(|e| Fault::dais(DaisFault::InvalidExpression, e.to_string()))?;
        Ok(Envelope::with_body(
            XmlElement::new(WSDAIF_NS, "wsdaif", "WriteFileResponse").with_child(
                XmlElement::new(WSDAIF_NS, "wsdaif", "Size").with_text(size.to_string()),
            ),
        ))
    };
    register_op(dispatcher, &ctx, actions::WRITE_FILE, Requires::Writeable, op);

    let op = |body: &XmlElement, dir: &DirectoryResource| {
        let path = path_of(body)?;
        dir.store()
            .delete(&path)
            .map_err(|e| Fault::dais(DaisFault::InvalidExpression, e.to_string()))?;
        Ok(Envelope::with_body(XmlElement::new(WSDAIF_NS, "wsdaif", "DeleteFileResponse")))
    };
    register_op(dispatcher, &ctx, actions::DELETE_FILE, Requires::Writeable, op);

    let op = |body: &XmlElement, dir: &DirectoryResource| {
        let pattern = body.child_text(WSDAIF_NS, "Pattern").unwrap_or_default();
        let mut response = XmlElement::new(WSDAIF_NS, "wsdaif", "ListFilesResponse");
        push_files(&mut response, &dir.select(&pattern));
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::LIST_FILES, Requires::Readable, op);

    register_property_document::<DirectoryResource>(
        dispatcher,
        &ctx,
        actions::GET_FILE_PROPERTY_DOCUMENT,
        XmlElement::new(WSDAIF_NS, "wsdaif", "GetFilePropertyDocumentResponse"),
    );
}

/// Register the **FileFactory** + **FileSetAccess** interfaces.
pub fn register_file_factory(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    target: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    let op = move |body: &XmlElement, dir: &DirectoryResource| {
        let message = QName::new(WSDAIF_NS, "wsdaif", "FileSelectFactoryRequest");
        let factory = FactoryRequest::negotiate(body, dir, message)?;
        let pattern = body.child_text(WSDAIF_NS, "Pattern").unwrap_or_default();
        let members = dir.select(&pattern);
        factory.finish(&target, &names, "file-set", |properties| {
            Ok(FileSetResource::new(properties, members))
        })
    };
    register_op(dispatcher, &ctx, actions::FILE_SELECT_FACTORY, Requires::Readable, op);

    let op = |body: &XmlElement, set: &FileSetResource| {
        let start = body
            .child_text(WSDAIF_NS, "StartPosition")
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(0usize);
        let count = body
            .child_text(WSDAIF_NS, "Count")
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(usize::MAX);
        let mut response = XmlElement::new(WSDAIF_NS, "wsdaif", "GetFileSetMembersResponse");
        push_files(&mut response, set.members(start, count));
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_FILE_SET_MEMBERS, Requires::Readable, op);
}

/// Options for assembling a file data service.
#[derive(Default)]
pub struct FileServiceOptions {
    pub wsrf: Option<Arc<LifetimeRegistry>>,
}

/// A fully-assembled single-address WS-DAIF data service.
pub struct FileService {
    pub ctx: Arc<ServiceContext>,
    pub names: Arc<NameGenerator>,
    /// The abstract name of the root directory resource.
    pub root: dais_core::AbstractName,
    /// The abstract name of the service's monitoring resource, whose
    /// property document is the live observability view of its endpoint.
    pub monitoring: dais_core::AbstractName,
}

impl FileService {
    pub fn launch(
        bus: &Bus,
        address: &str,
        store: FileStore,
        options: FileServiceOptions,
    ) -> FileService {
        let mut s = ServiceSkeleton::new(address, options.wsrf, None);
        let (ctx, names) = (s.ctx.clone(), s.names.clone());
        register_file_access(&mut s.dispatcher, ctx.clone());
        register_file_factory(&mut s.dispatcher, ctx.clone(), ctx.clone(), names.clone());
        let root = names.mint("directory");
        let monitoring = s.serve(bus, Arc::new(DirectoryResource::new(root.clone(), store, "")));
        FileService { ctx, names, root, monitoring }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_core::messages as core_messages;
    use dais_core::{AbstractName, DaisClient};
    use dais_soap::client::ServiceClient;

    fn setup() -> (Bus, ServiceClient, AbstractName) {
        let bus = Bus::new();
        let store = FileStore::new();
        store.write("data/a.csv", b"1,2,3".to_vec()).unwrap();
        store.write("data/b.csv", b"4,5".to_vec()).unwrap();
        store.write("readme.txt", b"hello".to_vec()).unwrap();
        let svc = FileService::launch(&bus, "bus://files", store, FileServiceOptions::default());
        (bus.clone(), ServiceClient::new(bus, "bus://files"), svc.root)
    }

    fn req(name: &AbstractName, local: &str) -> XmlElement {
        core_messages::request(local, name)
    }

    #[test]
    fn read_write_delete_over_the_wire() {
        let (_, client, root) = setup();
        // Write.
        let body = req(&root, "WriteFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("new/file.bin"))
            .with_child(
                XmlElement::new(WSDAIF_NS, "wsdaif", "Contents")
                    .with_text(base64::encode(&[0, 1, 2, 255])),
            );
        let resp = client.request(actions::WRITE_FILE, body).unwrap();
        assert_eq!(resp.child_text(WSDAIF_NS, "Size").as_deref(), Some("4"));
        // Read back.
        let body = req(&root, "ReadFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("new/file.bin"));
        let resp = client.request(actions::READ_FILE, body).unwrap();
        let bytes = base64::decode(&resp.child_text(WSDAIF_NS, "Contents").unwrap()).unwrap();
        assert_eq!(bytes, vec![0, 1, 2, 255]);
        // Delete.
        let body = req(&root, "DeleteFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("new/file.bin"));
        client.request(actions::DELETE_FILE, body).unwrap();
        let body = req(&root, "ReadFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("new/file.bin"));
        assert!(client.request(actions::READ_FILE, body).is_err());
    }

    #[test]
    fn list_with_patterns() {
        let (_, client, root) = setup();
        let body = req(&root, "ListFilesRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Pattern").with_text("data/*.csv"));
        let resp = client.request(actions::LIST_FILES, body).unwrap();
        let files: Vec<String> = resp.children_named(WSDAIF_NS, "File").map(|f| f.text()).collect();
        assert_eq!(files, vec!["data/a.csv", "data/b.csv"]);
        assert_eq!(
            resp.children_named(WSDAIF_NS, "File").next().unwrap().attribute("size"),
            Some("5")
        );
    }

    #[test]
    fn property_document() {
        let (_, client, root) = setup();
        let resp = client
            .request(
                actions::GET_FILE_PROPERTY_DOCUMENT,
                req(&root, "GetFilePropertyDocumentRequest"),
            )
            .unwrap();
        let doc = resp.child(dais_xml::ns::WSDAI, "PropertyDocument").unwrap();
        assert_eq!(doc.child_text(WSDAIF_NS, "NumberOfFiles").as_deref(), Some("3"));
        assert_eq!(doc.child_text(WSDAIF_NS, "TotalBytes").as_deref(), Some("13"));
        // 5+3+5
    }

    #[test]
    fn file_set_factory_and_paging() {
        let (_, client, root) = setup();
        let body = req(&root, "FileSelectFactoryRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Pattern").with_text("data/*"));
        let resp = client.request(actions::FILE_SELECT_FACTORY, body).unwrap();
        let epr = dais_core::factory::parse_factory_response(&resp).unwrap();
        let set_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();

        let body = req(&set_name, "GetFileSetMembersRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "StartPosition").with_text("1"))
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Count").with_text("5"));
        let resp = client.request(actions::GET_FILE_SET_MEMBERS, body).unwrap();
        let files: Vec<String> = resp.children_named(WSDAIF_NS, "File").map(|f| f.text()).collect();
        assert_eq!(files, vec!["data/b.csv"]);
    }

    #[test]
    fn bad_paths_and_encodings_fault() {
        let (_, client, root) = setup();
        let body = req(&root, "WriteFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("../escape"))
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Contents").with_text("QQ=="));
        assert!(client.request(actions::WRITE_FILE, body).is_err());

        let body = req(&root, "WriteFileRequest")
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Path").with_text("ok.bin"))
            .with_child(XmlElement::new(WSDAIF_NS, "wsdaif", "Contents").with_text("!!notbase64"));
        assert!(client.request(actions::WRITE_FILE, body).is_err());
    }

    #[test]
    fn core_operations_work_on_file_resources() {
        let (bus, _, root) = setup();
        let core = dais_core::CoreClient::builder().bus(bus).address("bus://files").build();
        let props = core.get_property_document(&root).unwrap();
        assert!(props.writeable);
        let list = core.get_resource_list().unwrap();
        assert!(list.contains(&root), "root directory listed");
        assert_eq!(list.len(), 2, "root + monitoring resource");
        let epr = core.resolve(&root).unwrap();
        assert_eq!(epr.address, "bus://files");
    }
}
