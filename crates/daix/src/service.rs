//! Service-side registration of the WS-DAIX interfaces.

use crate::messages::{self, actions};
use crate::resources::{xmldb_fault, SequenceResource, XmlCollectionResource};
use dais_core::properties::names::DATA_RESOURCE_ABSTRACT_NAME;
use dais_core::{
    register_op, register_property_document, FactoryRequest, NameGenerator, Requires,
    ServiceContext, ServiceSkeleton,
};
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_wsrf::LifetimeRegistry;
use dais_xml::{ns, QName, XmlElement};
use dais_xmldb::XmlDatabase;
use std::sync::Arc;

/// The path of the subcollection a request names, under `collection`.
fn subcollection_path(
    body: &XmlElement,
    collection: &XmlCollectionResource,
) -> Result<String, Fault> {
    let name = body
        .child_text(ns::WSDAIX, "CollectionName")
        .ok_or_else(|| Fault::client("missing wsdaix:CollectionName"))?;
    Ok(if collection.path().is_empty() { name } else { format!("{}/{}", collection.path(), name) })
}

/// Register the **XMLCollectionAccess** interface.
///
/// `CreateSubcollection` both creates the collection in the store and
/// registers a new data resource representing it (returning the new
/// resource's abstract name in the response).
pub fn register_collection_access(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let documents = messages::parse_add_documents(body)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "AddDocumentsResponse");
        for (name, doc) in documents {
            let outcome = collection.database().add_document_element(collection.path(), &name, doc);
            let status = match outcome {
                Ok(()) => "Success",
                Err(dais_xmldb::XmlDbError::DocumentExists(_)) => "DocumentExists",
                Err(e) => return Err(xmldb_fault(e)),
            };
            response.push(
                XmlElement::new(ns::WSDAIX, "wsdaix", "Result")
                    .with_attr("name", name)
                    .with_attr("status", status),
            );
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::ADD_DOCUMENTS, Requires::Writeable, op);

    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "GetDocumentsResponse");
        let requested = messages::parse_document_names(body);
        let names: Vec<String> = if requested.is_empty() {
            collection.database().list_documents(collection.path()).map_err(xmldb_fault)?
        } else {
            requested
        };
        for name in names {
            let doc = collection
                .database()
                .get_document(collection.path(), &name)
                .map_err(xmldb_fault)?;
            response.push(
                XmlElement::new(ns::WSDAIX, "wsdaix", "Document")
                    .with_child(
                        XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentName").with_text(name),
                    )
                    .with_child(
                        XmlElement::new(ns::WSDAIX, "wsdaix", "DocumentContent").with_child(doc),
                    ),
            );
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_DOCUMENTS, Requires::Readable, op);

    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let mut removed = 0;
        for name in messages::parse_document_names(body) {
            collection.database().remove_document(collection.path(), &name).map_err(xmldb_fault)?;
            removed += 1;
        }
        Ok(Envelope::with_body(
            XmlElement::new(ns::WSDAIX, "wsdaix", "RemoveDocumentsResponse").with_child(
                XmlElement::new(ns::WSDAIX, "wsdaix", "RemovedCount")
                    .with_text(removed.to_string()),
            ),
        ))
    };
    register_op(dispatcher, &ctx, actions::REMOVE_DOCUMENTS, Requires::Writeable, op);

    let c = ctx.clone();
    let op = move |body: &XmlElement, collection: &XmlCollectionResource| {
        let path = subcollection_path(body, collection)?;
        collection.database().create_collection(&path).map_err(xmldb_fault)?;
        // Register a data resource for the new collection.
        let abstract_name = names.mint("collection");
        let sub =
            XmlCollectionResource::new(abstract_name.clone(), collection.database().clone(), path);
        c.add_resource(Arc::new(sub));
        Ok(Envelope::with_body(
            XmlElement::new(ns::WSDAIX, "wsdaix", "CreateSubcollectionResponse").with_child(
                DATA_RESOURCE_ABSTRACT_NAME.element().with_text(abstract_name.as_str()),
            ),
        ))
    };
    register_op(dispatcher, &ctx, actions::CREATE_SUBCOLLECTION, Requires::Writeable, op);

    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let path = subcollection_path(body, collection)?;
        collection.database().remove_collection(&path).map_err(xmldb_fault)?;
        Ok(Envelope::with_body(XmlElement::new(
            ns::WSDAIX,
            "wsdaix",
            "RemoveSubcollectionResponse",
        )))
    };
    register_op(dispatcher, &ctx, actions::REMOVE_SUBCOLLECTION, Requires::Writeable, op);

    register_property_document::<XmlCollectionResource>(
        dispatcher,
        &ctx,
        actions::GET_COLLECTION_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIX, "wsdaix", "GetCollectionPropertyDocumentResponse"),
    );
}

/// Register the **XPathAccess**, **XQueryAccess** and **XUpdateAccess**
/// direct-access interfaces.
pub fn register_query_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let expression = messages::parse_expression(body)?;
        let hits = collection.xpath(&expression)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "XPathExecuteResponse");
        for h in hits {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(h));
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::XPATH_EXECUTE, Requires::Readable, op);

    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let expression = messages::parse_expression(body)?;
        let items = collection.xquery(&expression)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "XQueryExecuteResponse");
        for i in items {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(i.to_element()));
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::XQUERY_EXECUTE, Requires::Readable, op);

    let op = |body: &XmlElement, collection: &XmlCollectionResource| {
        let modifications =
            body.child(dais_xmldb::xupdate::XUPDATE_NS, "modifications").ok_or_else(|| {
                Fault::dais(DaisFault::InvalidExpression, "missing xupdate:modifications document")
            })?;
        let touched = collection.xupdate(modifications)?;
        Ok(Envelope::with_body(
            XmlElement::new(ns::WSDAIX, "wsdaix", "XUpdateExecuteResponse").with_child(
                XmlElement::new(ns::WSDAIX, "wsdaix", "ModifiedCount")
                    .with_text(touched.to_string()),
            ),
        ))
    };
    register_op(dispatcher, &ctx, actions::XUPDATE_EXECUTE, Requires::Writeable, op);
}

/// Register the **XPathFactory** / **XQueryFactory** indirect-access
/// interfaces; derived sequence resources land on `target`.
pub fn register_query_factories(
    dispatcher: &mut SoapDispatcher,
    ctx: Arc<ServiceContext>,
    target: Arc<ServiceContext>,
    names: Arc<NameGenerator>,
) {
    for (action, message, is_xquery) in [
        (actions::XPATH_EXECUTE_FACTORY, "XPathExecuteFactoryRequest", false),
        (actions::XQUERY_EXECUTE_FACTORY, "XQueryExecuteFactoryRequest", true),
    ] {
        let t = target.clone();
        let n = names.clone();
        let op = move |body: &XmlElement, collection: &XmlCollectionResource| {
            let message = QName::new(ns::WSDAIX, "wsdaix", message);
            let factory = FactoryRequest::negotiate(body, collection, message)?;
            let expression = messages::parse_expression(body)?;
            let items: Vec<XmlElement> = if is_xquery {
                collection
                    .xquery(&expression)?
                    .iter()
                    .map(dais_xmldb::XQueryItem::to_element)
                    .collect()
            } else {
                collection.xpath(&expression)?
            };
            factory.finish(&t, &n, "sequence", |properties| {
                Ok(SequenceResource::new(properties, items))
            })
        };
        register_op(dispatcher, &ctx, action, Requires::Readable, op);
    }
}

/// Register the **SequenceAccess** interface (`GetItems`,
/// `GetSequencePropertyDocument`).
pub fn register_sequence_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let op = |body: &XmlElement, sequence: &SequenceResource| {
        let (start, count) = messages::parse_get_items(body)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "GetItemsResponse");
        for item in sequence.items(start, count) {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(item.clone()));
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GET_ITEMS, Requires::Readable, op);

    register_property_document::<SequenceResource>(
        dispatcher,
        &ctx,
        actions::GET_SEQUENCE_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAIX, "wsdaix", "GetSequencePropertyDocumentResponse"),
    );
}

/// Options for assembling an XML data service.
#[derive(Default)]
pub struct XmlServiceOptions {
    /// Enable the WSRF layer with this lifetime registry.
    pub wsrf: Option<Arc<LifetimeRegistry>>,
}

/// A fully-assembled single-address XML data service serving one
/// [`XmlDatabase`]: its root collection is registered as the initial data
/// resource, and `CreateSubcollection` grows the resource set.
pub struct XmlService {
    pub ctx: Arc<ServiceContext>,
    pub names: Arc<NameGenerator>,
    /// The abstract name of the root collection resource.
    pub root_collection: dais_core::AbstractName,
    /// The abstract name of the service's monitoring resource, whose
    /// property document is the live observability view of its endpoint.
    pub monitoring: dais_core::AbstractName,
}

impl XmlService {
    pub fn launch(
        bus: &Bus,
        address: &str,
        db: XmlDatabase,
        options: XmlServiceOptions,
    ) -> XmlService {
        let mut s = ServiceSkeleton::new(address, options.wsrf, None);
        let (ctx, names) = (s.ctx.clone(), s.names.clone());
        register_collection_access(&mut s.dispatcher, ctx.clone(), names.clone());
        register_query_access(&mut s.dispatcher, ctx.clone());
        register_query_factories(&mut s.dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_sequence_access(&mut s.dispatcher, ctx.clone());
        let root_collection = names.mint("collection");
        let root = XmlCollectionResource::new(root_collection.clone(), db, "");
        let monitoring = s.serve(bus, Arc::new(root));
        XmlService { ctx, names, root_collection, monitoring }
    }
}
