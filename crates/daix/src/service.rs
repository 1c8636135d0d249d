//! Service-side registration of the WS-DAIX interfaces.

use crate::messages::{self, actions};
use crate::resources::{xmldb_fault, SequenceResource, XmlCollectionResource};
use dais_core::factory::{factory_response, mint_resource_epr, DerivedResourceConfig};
use dais_core::properties::names;
use dais_core::{
    register_core_ops, register_wsrf_ops, NameGenerator, ResourceRegistry, ServiceContext,
};
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_wsrf::LifetimeRegistry;
use dais_xml::{ns, QName, XmlElement};
use dais_xmldb::XmlDatabase;
use std::sync::Arc;

fn payload(request: &Envelope) -> Result<&XmlElement, Fault> {
    request.payload().ok_or_else(|| Fault::client("request has an empty SOAP body"))
}

fn respond(element: XmlElement) -> Result<Envelope, Fault> {
    Ok(Envelope::with_body(element))
}

fn as_collection(
    resource: &Arc<dyn dais_core::DataResource>,
) -> Result<&XmlCollectionResource, Fault> {
    resource.as_any().downcast_ref::<XmlCollectionResource>().ok_or_else(|| {
        Fault::dais(DaisFault::InvalidResourceName, "resource is not an XML collection")
    })
}

fn as_sequence(resource: &Arc<dyn dais_core::DataResource>) -> Result<&SequenceResource, Fault> {
    resource.as_any().downcast_ref::<SequenceResource>().ok_or_else(|| {
        Fault::dais(DaisFault::InvalidResourceName, "resource is not a sequence resource")
    })
}

fn require_writeable(resource: &Arc<dyn dais_core::DataResource>) -> Result<(), Fault> {
    if !resource.core_properties().writeable {
        return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not writeable"));
    }
    Ok(())
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
    let c = ctx.clone();
    dispatcher.register(actions::ADD_DOCUMENTS, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        require_writeable(&resource)?;
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
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::GET_DOCUMENTS, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        if !resource.core_properties().readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
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
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::REMOVE_DOCUMENTS, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        require_writeable(&resource)?;
        let mut removed = 0;
        for name in messages::parse_document_names(body) {
            collection.database().remove_document(collection.path(), &name).map_err(xmldb_fault)?;
            removed += 1;
        }
        respond(XmlElement::new(ns::WSDAIX, "wsdaix", "RemoveDocumentsResponse").with_child(
            XmlElement::new(ns::WSDAIX, "wsdaix", "RemovedCount").with_text(removed.to_string()),
        ))
    });

    let c = ctx.clone();
    let n = names.clone();
    dispatcher.register(actions::CREATE_SUBCOLLECTION, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        require_writeable(&resource)?;
        let name = body
            .child_text(ns::WSDAIX, "CollectionName")
            .ok_or_else(|| Fault::client("missing wsdaix:CollectionName"))?;
        let path = if collection.path().is_empty() {
            name.clone()
        } else {
            format!("{}/{}", collection.path(), name)
        };
        collection.database().create_collection(&path).map_err(xmldb_fault)?;
        // Register a data resource for the new collection.
        let abstract_name = n.mint("collection");
        let sub =
            XmlCollectionResource::new(abstract_name.clone(), collection.database().clone(), path);
        c.add_resource(Arc::new(sub));
        respond(XmlElement::new(ns::WSDAIX, "wsdaix", "CreateSubcollectionResponse").with_child(
            names::DATA_RESOURCE_ABSTRACT_NAME.element().with_text(abstract_name.as_str()),
        ))
    });

    let c = ctx.clone();
    dispatcher.register(actions::REMOVE_SUBCOLLECTION, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        require_writeable(&resource)?;
        let name = body
            .child_text(ns::WSDAIX, "CollectionName")
            .ok_or_else(|| Fault::client("missing wsdaix:CollectionName"))?;
        let path = if collection.path().is_empty() {
            name.clone()
        } else {
            format!("{}/{}", collection.path(), name)
        };
        collection.database().remove_collection(&path).map_err(xmldb_fault)?;
        respond(XmlElement::new(ns::WSDAIX, "wsdaix", "RemoveSubcollectionResponse"))
    });

    let c = ctx;
    dispatcher.register(actions::GET_COLLECTION_PROPERTY_DOCUMENT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        as_collection(&resource)?;
        let mut response =
            XmlElement::new(ns::WSDAIX, "wsdaix", "GetCollectionPropertyDocumentResponse");
        response.push(resource.property_document());
        respond(response)
    });
}

/// Register the **XPathAccess**, **XQueryAccess** and **XUpdateAccess**
/// direct-access interfaces.
pub fn register_query_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let c = ctx.clone();
    dispatcher.register(actions::XPATH_EXECUTE, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        if !resource.core_properties().readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
        let expression = messages::parse_expression(body)?;
        let hits = collection.xpath(&expression)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "XPathExecuteResponse");
        for h in hits {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(h));
        }
        respond(response)
    });

    let c = ctx.clone();
    dispatcher.register(actions::XQUERY_EXECUTE, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        if !resource.core_properties().readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
        let expression = messages::parse_expression(body)?;
        let items = collection.xquery(&expression)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "XQueryExecuteResponse");
        for i in items {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(i.to_element()));
        }
        respond(response)
    });

    let c = ctx;
    dispatcher.register(actions::XUPDATE_EXECUTE, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let collection = as_collection(&resource)?;
        require_writeable(&resource)?;
        let modifications =
            body.child(dais_xmldb::xupdate::XUPDATE_NS, "modifications").ok_or_else(|| {
                Fault::dais(DaisFault::InvalidExpression, "missing xupdate:modifications document")
            })?;
        let touched = collection.xupdate(modifications)?;
        respond(XmlElement::new(ns::WSDAIX, "wsdaix", "XUpdateExecuteResponse").with_child(
            XmlElement::new(ns::WSDAIX, "wsdaix", "ModifiedCount").with_text(touched.to_string()),
        ))
    });
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
        let c = ctx.clone();
        let t = target.clone();
        let n = names.clone();
        dispatcher.register(action, move |req: &Envelope| {
            let body = payload(req)?;
            let resource = c.resolve_resource(body)?;
            let collection = as_collection(&resource)?;
            let props = resource.core_properties();
            if !props.readable {
                return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
            }
            let config = DerivedResourceConfig::from_request(body)?;
            let message_qname = QName::new(ns::WSDAIX, "wsdaix", message);
            let (_port, effective) =
                config.resolve_against(&props.configuration_maps, &message_qname)?;

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

            let name = n.mint("sequence");
            let derived = config.derived_properties(name.clone(), &effective);
            t.add_resource(Arc::new(SequenceResource::new(derived, items)));
            let epr = mint_resource_epr(&t.address, &name);
            respond(factory_response(
                &format!("{}Response", message.trim_end_matches("Request")),
                ns::WSDAIX,
                "wsdaix",
                &epr,
            ))
        });
    }
}

/// Register the **SequenceAccess** interface (`GetItems`,
/// `GetSequencePropertyDocument`).
pub fn register_sequence_access(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    let c = ctx.clone();
    dispatcher.register(actions::GET_ITEMS, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        let sequence = as_sequence(&resource)?;
        if !resource.core_properties().readable {
            return Err(Fault::dais(DaisFault::NotAuthorized, "resource is not readable"));
        }
        let (start, count) = messages::parse_get_items(body)?;
        let mut response = XmlElement::new(ns::WSDAIX, "wsdaix", "GetItemsResponse");
        for item in sequence.items(start, count) {
            response.push(XmlElement::new(ns::WSDAIX, "wsdaix", "Item").with_child(item.clone()));
        }
        respond(response)
    });

    let c = ctx;
    dispatcher.register(actions::GET_SEQUENCE_PROPERTY_DOCUMENT, move |req: &Envelope| {
        let body = payload(req)?;
        let resource = c.resolve_resource(body)?;
        as_sequence(&resource)?;
        let mut response =
            XmlElement::new(ns::WSDAIX, "wsdaix", "GetSequencePropertyDocumentResponse");
        response.push(resource.property_document());
        respond(response)
    });
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
        let registry = ResourceRegistry::new();
        let ctx = Arc::new(ServiceContext {
            address: address.to_string(),
            registry,
            lifetime: options.wsrf,
            query_rewriter: None,
        });
        let names =
            Arc::new(NameGenerator::new(address.trim_start_matches("bus://").replace('/', "-")));

        let mut dispatcher = SoapDispatcher::new();
        register_core_ops(&mut dispatcher, ctx.clone());
        if ctx.lifetime.is_some() {
            register_wsrf_ops(&mut dispatcher, ctx.clone());
        }
        register_collection_access(&mut dispatcher, ctx.clone(), names.clone());
        register_query_access(&mut dispatcher, ctx.clone());
        register_query_factories(&mut dispatcher, ctx.clone(), ctx.clone(), names.clone());
        register_sequence_access(&mut dispatcher, ctx.clone());
        bus.register(address, Arc::new(dispatcher));

        let root_collection = names.mint("collection");
        ctx.add_resource(Arc::new(XmlCollectionResource::new(root_collection.clone(), db, "")));

        // Minted after the data resource so existing names are stable.
        let monitoring = names.mint("monitoring");
        ctx.add_resource(Arc::new(dais_core::MonitoringResource::new(
            monitoring.clone(),
            bus.clone(),
            address,
        )));

        XmlService { ctx, names, root_collection, monitoring }
    }
}
