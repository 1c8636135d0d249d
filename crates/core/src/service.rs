//! Service-side assembly: the realisation skeleton every DAIS data
//! service shares, the core WS-DAI operations and the optional WSRF
//! layer, registered onto a SOAP dispatcher.
//!
//! DAIS does not prescribe how interfaces combine into services (§4.3:
//! "the proposed interfaces may be used in isolation or in conjunction
//! with others"), so this module exposes *registrars*: a realisation
//! builds a [`dais_soap::SoapDispatcher`], calls [`register_core_ops`]
//! (and optionally [`register_wsrf_ops`], Figure 7) and then registers
//! its own realisation-specific operations — each through
//! [`register_op`], which resolves the target, checks its kind and
//! enforces the access the operation declares ([`Requires`]).
//! [`ServiceSkeleton`] is the launch they all share.

use crate::messages::{self, actions};
use crate::monitoring::MonitoringResource;
use crate::name::{AbstractName, NameGenerator};
use crate::properties::{names, CoreProperties};
use crate::registry::ResourceRegistry;
use crate::resource::{DataResource, Target};
use dais_soap::addressing::Epr;
use dais_soap::bus::Bus;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::service::SoapDispatcher;
use dais_soap::Action;
use dais_wsrf::{lifetime, properties as wsrf_props, LifetimeRegistry};
use dais_xml::{ns, QName, XPathContext, XPathValue, XmlElement};
use std::sync::Arc;

/// A hook that may rewrite `(language, expression)` before execution —
/// the "thick wrapper" of §2.1 ("at liberty to intercept, parse,
/// translate or redirect such language statements"). `None` is the thin
/// wrapper: statements pass through untouched.
pub type QueryRewriter = Arc<dyn Fn(&str, &str) -> (String, String) + Send + Sync>;

/// The access an operation needs from its target: the WS-DAI `Readable`
/// and `Writeable` properties (§4.2), enforced here and nowhere else.
/// DESIGN.md §5 maps every action to its requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requires {
    /// Metadata and lifetime operations: property documents, resolution.
    Nothing,
    /// Operations that serve data from the target.
    Readable,
    /// Operations that change the target's data.
    Writeable,
}

impl Requires {
    /// `Ok` when `properties` grant this access, else [`refusal`](Self::refusal).
    pub fn check(self, properties: &CoreProperties) -> Result<(), Fault> {
        let granted = match self {
            Requires::Nothing => true,
            Requires::Readable => properties.readable,
            Requires::Writeable => properties.writeable,
        };
        if granted {
            Ok(())
        } else {
            Err(self.refusal())
        }
    }

    /// The `NotAuthorizedFault` a target lacking this access raises.
    pub fn refusal(self) -> Fault {
        let reason = match self {
            Requires::Writeable => "resource is not writeable",
            _ => "resource is not readable",
        };
        Fault::dais(DaisFault::NotAuthorized, reason)
    }
}

/// Everything the operation handlers need about their data service.
pub struct ServiceContext {
    /// The bus address consumers reach this service at (used to mint EPRs).
    pub address: String,
    pub registry: ResourceRegistry,
    /// Present when the WSRF layer is enabled: soft-state lifetimes.
    pub lifetime: Option<Arc<LifetimeRegistry>>,
    /// Optional thick-wrapper statement rewriter.
    pub query_rewriter: Option<QueryRewriter>,
}

impl ServiceContext {
    pub fn new(address: impl Into<String>, registry: ResourceRegistry) -> Arc<ServiceContext> {
        Arc::new(ServiceContext {
            address: address.into(),
            registry,
            lifetime: None,
            query_rewriter: None,
        })
    }

    pub fn with_wsrf(
        address: impl Into<String>,
        registry: ResourceRegistry,
        lifetime: Arc<LifetimeRegistry>,
    ) -> Arc<ServiceContext> {
        Arc::new(ServiceContext {
            address: address.into(),
            registry,
            lifetime: Some(lifetime),
            query_rewriter: None,
        })
    }

    /// Resolve by abstract name, honouring soft-state expiry when the
    /// WSRF layer is active.
    pub fn resolve_by_name(&self, name: &AbstractName) -> Result<Arc<dyn DataResource>, Fault> {
        if let Some(lifetime) = &self.lifetime {
            // Expired soft-state resources are unavailable and reaped.
            if lifetime.termination_time(name.as_str()).is_ok() && !lifetime.is_alive(name.as_str())
            {
                let _ = lifetime.destroy(name.as_str());
                self.registry.remove(name);
                return Err(Fault::dais(
                    DaisFault::DataResourceUnavailable,
                    format!("resource {name} has passed its termination time"),
                ));
            }
        }
        self.registry.get(name).ok_or_else(|| {
            Fault::dais(DaisFault::InvalidResourceName, format!("no resource named {name}"))
        })
    }

    /// Resolve `name` as a resource of kind `T` that grants `requires`:
    /// another kind is an `InvalidResourceNameFault`, missing access a
    /// `NotAuthorizedFault`.
    pub fn resolve_as<T: Target + ?Sized>(
        &self,
        name: &AbstractName,
        requires: Requires,
    ) -> Result<Arc<T>, Fault> {
        let resource = T::narrow(self.resolve_by_name(name)?).ok_or_else(|| {
            let kind = std::any::type_name::<T>().rsplit("::").next().unwrap_or_default();
            Fault::dais(DaisFault::InvalidResourceName, format!("resource {name} is not a {kind}"))
        })?;
        requires.check(&resource.core_properties())?;
        Ok(resource)
    }

    /// Register a resource, also tracking its lifetime when WSRF is on.
    pub fn add_resource(&self, resource: Arc<dyn DataResource>) {
        if let Some(lifetime) = &self.lifetime {
            lifetime.register(resource.abstract_name().as_str());
        }
        self.registry.register(resource);
    }

    /// Destroy the service–resource relationship (the core
    /// `DestroyDataResource` semantics of §4.3).
    pub fn destroy_resource(&self, name: &AbstractName) -> Result<(), Fault> {
        if let Some(lifetime) = &self.lifetime {
            let _ = lifetime.destroy(name.as_str());
        }
        self.registry.remove(name).map(|_| ()).ok_or_else(|| {
            Fault::dais(DaisFault::InvalidResourceName, format!("no resource named {name}"))
        })
    }

    /// Reap every expired soft-state resource (the sweeper of §5).
    /// Returns the abstract names removed.
    pub fn sweep_expired(&self) -> Vec<String> {
        let Some(lifetime) = &self.lifetime else { return Vec::new() };
        let expired = lifetime.sweep();
        for name in &expired {
            if let Ok(n) = AbstractName::new(name.clone()) {
                self.registry.remove(&n);
            }
        }
        expired
    }
}

fn body_of(request: &Envelope) -> Result<&XmlElement, Fault> {
    request.payload().ok_or_else(|| Fault::client("request has an empty SOAP body"))
}

/// Register `handler` for `action`. Each request's target is resolved
/// through [`ServiceContext::resolve_as`] — kind `T`, access `requires` —
/// before the handler sees the request body and the typed target.
pub fn register_op<T, H>(
    dispatcher: &mut SoapDispatcher,
    ctx: &Arc<ServiceContext>,
    action: Action,
    requires: Requires,
    handler: H,
) where
    T: Target + ?Sized,
    H: Fn(&XmlElement, &T) -> Result<Envelope, Fault> + Send + Sync + 'static,
{
    let c = ctx.clone();
    dispatcher.register(action, move |req: &Envelope| {
        let body = body_of(req)?;
        let resource = c.resolve_as::<T>(&messages::extract_resource_name(body)?, requires)?;
        handler(body, &resource)
    });
}

/// Register a `Get…PropertyDocument` operation for targets of kind `T`:
/// the reply is `response` holding the target's property document.
pub fn register_property_document<T: Target + ?Sized>(
    dispatcher: &mut SoapDispatcher,
    ctx: &Arc<ServiceContext>,
    action: Action,
    response: XmlElement,
) {
    register_op(dispatcher, ctx, action, Requires::Nothing, move |_, resource: &T| {
        let mut reply = response.clone();
        reply.push(resource.property_document());
        Ok(Envelope::with_body(reply))
    });
}

/// The launch every single-address data service shares: its context,
/// the name generator derived from its address, and a dispatcher already
/// holding the core operations (plus the WSRF layer when a lifetime
/// registry is given). The realisation registers its own operations on
/// `dispatcher`, then [`serve`](Self::serve)s.
pub struct ServiceSkeleton {
    pub ctx: Arc<ServiceContext>,
    pub names: Arc<NameGenerator>,
    pub dispatcher: SoapDispatcher,
}

impl ServiceSkeleton {
    pub fn new(
        address: &str,
        lifetime: Option<Arc<LifetimeRegistry>>,
        query_rewriter: Option<QueryRewriter>,
    ) -> ServiceSkeleton {
        let ctx = Arc::new(ServiceContext {
            address: address.to_string(),
            registry: ResourceRegistry::new(),
            lifetime,
            query_rewriter,
        });
        let names =
            Arc::new(NameGenerator::new(address.trim_start_matches("bus://").replace('/', "-")));
        let mut dispatcher = SoapDispatcher::new();
        register_core_ops(&mut dispatcher, ctx.clone());
        if ctx.lifetime.is_some() {
            register_wsrf_ops(&mut dispatcher, ctx.clone());
        }
        ServiceSkeleton { ctx, names, dispatcher }
    }

    /// Put the dispatcher on `bus`, add the data resource, then mint and
    /// add the monitoring resource — minted after the data resource so
    /// existing names stay stable. Returns the monitoring resource's name.
    pub fn serve(self, bus: &Bus, data: Arc<dyn DataResource>) -> AbstractName {
        let ServiceSkeleton { ctx, names, dispatcher } = self;
        bus.register(ctx.address.as_str(), Arc::new(dispatcher));
        ctx.add_resource(data);
        let monitoring = names.mint("monitoring");
        ctx.add_resource(Arc::new(MonitoringResource::new(
            monitoring.clone(),
            bus,
            ctx.address.as_str(),
        )));
        monitoring
    }
}

/// Register the CoreDataAccess and CoreResourceList operations (Figure 6).
pub fn register_core_ops(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    register_property_document::<dyn DataResource>(
        dispatcher,
        &ctx,
        actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
        XmlElement::new(ns::WSDAI, "wsdai", "GetDataResourcePropertyDocumentResponse"),
    );

    let c = ctx.clone();
    dispatcher.register(actions::DESTROY_DATA_RESOURCE, move |req: &Envelope| {
        let name = messages::extract_resource_name(body_of(req)?)?;
        c.destroy_resource(&name)?;
        Ok(Envelope::with_body(XmlElement::new(ns::WSDAI, "wsdai", "DestroyDataResourceResponse")))
    });

    let c = ctx.clone();
    let op = move |body: &XmlElement, resource: &dyn DataResource| {
        let (language, expression) = messages::parse_generic_query(body)?;
        let props = resource.core_properties();
        Requires::Readable.check(&props)?;
        if !props.generic_query_languages.iter().any(|l| l == &language) {
            return Err(Fault::dais(
                DaisFault::InvalidLanguage,
                format!("language '{language}' is not in GenericQueryLanguage"),
            ));
        }
        let (language, expression) = match &c.query_rewriter {
            Some(rw) => rw(&language, &expression),
            None => (language, expression),
        };
        let results = resource.generic_query(&language, &expression)?;
        let mut response = XmlElement::new(ns::WSDAI, "wsdai", "GenericQueryResponse");
        for r in results {
            response.push(r);
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::GENERIC_QUERY, Requires::Nothing, op);

    let c = ctx.clone();
    dispatcher.register(actions::GET_RESOURCE_LIST, move |_req: &Envelope| {
        let mut response = XmlElement::new(ns::WSDAI, "wsdai", "GetResourceListResponse");
        for name in c.registry.names() {
            response.push(names::DATA_RESOURCE_ABSTRACT_NAME.element().with_text(name.as_str()));
        }
        Ok(Envelope::with_body(response))
    });

    // Resolve() maps a known abstract name to an EPR.
    let address = ctx.address.clone();
    let op = move |_: &XmlElement, resource: &dyn DataResource| {
        let epr = Epr::for_resource(&address, resource.abstract_name().as_str());
        let mut response = XmlElement::new(ns::WSDAI, "wsdai", "ResolveResponse");
        response.push(epr.to_xml_named(XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAddress")));
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, actions::RESOLVE, Requires::Nothing, op);
}

/// Resolve a lexical property QName using the canonical DAIS prefixes.
fn property_qname(lexical: &str) -> QName {
    match lexical.trim().split_once(':') {
        Some(("wsdai", l)) => QName::new(ns::WSDAI, "wsdai", l),
        Some(("wsdair", l)) => QName::new(ns::WSDAIR, "wsdair", l),
        Some(("wsdaix", l)) => QName::new(ns::WSDAIX, "wsdaix", l),
        Some((p, l)) => QName::new("", p, l),
        None => QName::local(lexical.trim()),
    }
}

/// The XPath namespace context for property queries: the canonical DAIS
/// prefixes are pre-bound.
fn property_query_context() -> XPathContext {
    XPathContext::new()
        .with_namespace("wsdai", ns::WSDAI)
        .with_namespace("wsdair", ns::WSDAIR)
        .with_namespace("wsdaix", ns::WSDAIX)
}

/// Register the WSRF operations over the same registry (Figure 7). This
/// is strictly additive: the core operations behave identically with or
/// without this call, which is exactly the upgrade path §5 describes.
pub fn register_wsrf_ops(dispatcher: &mut SoapDispatcher, ctx: Arc<ServiceContext>) {
    use dais_wsrf::actions as wsrf_actions;

    let op = |body: &XmlElement, resource: &dyn DataResource| {
        let lexical = body
            .child_text(ns::WSRF_RP, "ResourceProperty")
            .ok_or_else(|| Fault::client("missing wsrf-rp:ResourceProperty"))?;
        let qname = property_qname(&lexical);
        let document = resource.property_document();
        let found = wsrf_props::get_property(&document, &qname);
        if found.is_empty() {
            return Err(Fault::client(format!("unknown resource property '{lexical}'")));
        }
        let mut response = XmlElement::new(ns::WSRF_RP, "wsrf-rp", "GetResourcePropertyResponse");
        for f in found {
            response.push(f);
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, wsrf_actions::GET_RESOURCE_PROPERTY, Requires::Nothing, op);

    let op = |body: &XmlElement, resource: &dyn DataResource| {
        let document = resource.property_document();
        let mut response =
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "GetMultipleResourcePropertiesResponse");
        for p in body.children_named(ns::WSRF_RP, "ResourceProperty") {
            let qname = property_qname(&p.text());
            for f in wsrf_props::get_property(&document, &qname) {
                response.push(f);
            }
        }
        Ok(Envelope::with_body(response))
    };
    let action = wsrf_actions::GET_MULTIPLE_RESOURCE_PROPERTIES;
    register_op(dispatcher, &ctx, action, Requires::Nothing, op);

    let op = |body: &XmlElement, resource: &dyn DataResource| {
        let query = body
            .child_text(ns::WSRF_RP, "QueryExpression")
            .ok_or_else(|| Fault::client("missing wsrf-rp:QueryExpression"))?;
        let document = resource.property_document();
        let value = wsrf_props::query_properties(&document, &query, &property_query_context())
            .map_err(|e| Fault::dais(DaisFault::InvalidExpression, e.to_string()))?;
        let mut response =
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "QueryResourcePropertiesResponse");
        match value {
            XPathValue::NodeSet(nodes) => {
                for n in nodes {
                    match n {
                        dais_xml::xpath::XPathNode::Element(e)
                        | dais_xml::xpath::XPathNode::Root(e) => response.push(e),
                        dais_xml::xpath::XPathNode::Attribute { value, .. } => {
                            response.push_text(value)
                        }
                        dais_xml::xpath::XPathNode::Text(t) => response.push_text(t),
                        dais_xml::xpath::XPathNode::Comment(_) => {}
                    }
                }
            }
            other => response.push_text(other.to_xpath_string()),
        }
        Ok(Envelope::with_body(response))
    };
    register_op(dispatcher, &ctx, wsrf_actions::QUERY_RESOURCE_PROPERTIES, Requires::Nothing, op);

    let op = |body: &XmlElement, resource: &dyn DataResource| {
        let mut touched = 0usize;
        for update in body.children_named(ns::WSRF_RP, "Update") {
            for property in update.elements() {
                resource.set_property(property)?;
                touched += 1;
            }
        }
        for verb in ["Insert", "Delete"] {
            if body.child(ns::WSRF_RP, verb).is_some() {
                return Err(Fault::client(format!(
                    "SetResourceProperties {verb} is not supported; DAIS property \
                     documents have a fixed shape — use Update"
                )));
            }
        }
        if touched == 0 {
            return Err(Fault::client("SetResourceProperties carried no wsrf-rp:Update entries"));
        }
        Ok(Envelope::with_body(XmlElement::new(
            ns::WSRF_RP,
            "wsrf-rp",
            "SetResourcePropertiesResponse",
        )))
    };
    register_op(dispatcher, &ctx, wsrf_actions::SET_RESOURCE_PROPERTIES, Requires::Nothing, op);

    let c = ctx.clone();
    let op = move |body: &XmlElement, resource: &dyn DataResource| {
        let name = resource.abstract_name().as_str();
        let lifetime = c
            .lifetime
            .as_ref()
            .ok_or_else(|| Fault::server("lifetime management is not enabled on this service"))?;
        let requested = lifetime::parse_set_termination_time(body).ok_or_else(|| {
            Fault::client("missing RequestedLifetimeDuration or nil RequestedTerminationTime")
        })?;
        let new_time = lifetime
            .set_termination_in(name, requested)
            .map_err(|e| Fault::dais(DaisFault::InvalidResourceName, e.to_string()))?;
        Ok(Envelope::with_body(lifetime::set_termination_time_response(new_time, lifetime.now())))
    };
    register_op(dispatcher, &ctx, wsrf_actions::SET_TERMINATION_TIME, Requires::Nothing, op);

    let c = ctx;
    dispatcher.register(wsrf_actions::DESTROY, move |req: &Envelope| {
        let name = messages::extract_resource_name(body_of(req)?)?;
        c.destroy_resource(&name)?;
        Ok(Envelope::with_body(XmlElement::new(ns::WSRF_RL, "wsrf-rl", "DestroyResponse")))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::ResourceManagementKind;
    use crate::resource::StaticResource;
    use dais_soap::bus::Bus;
    use dais_soap::client::ServiceClient;
    use dais_wsrf::ManualClock;

    fn make_service(wsrf: bool) -> (Bus, Arc<ServiceContext>, Arc<ManualClock>) {
        let bus = Bus::new();
        let registry = ResourceRegistry::new();
        let clock = ManualClock::new();
        let ctx = if wsrf {
            ServiceContext::with_wsrf(
                "bus://svc",
                registry,
                Arc::new(LifetimeRegistry::new(clock.clone())),
            )
        } else {
            ServiceContext::new("bus://svc", registry)
        };
        let mut d = SoapDispatcher::new();
        register_core_ops(&mut d, ctx.clone());
        if wsrf {
            register_wsrf_ops(&mut d, ctx.clone());
        }
        bus.register("bus://svc", Arc::new(d));

        let mut props = CoreProperties::new(
            AbstractName::new("urn:dais:svc:db:0").unwrap(),
            ResourceManagementKind::ExternallyManaged,
        );
        props.description = "test resource".into();
        ctx.add_resource(Arc::new(StaticResource::new(
            props,
            vec![XmlElement::new_local("payload").with_text("hello")],
        )));
        (bus, ctx, clock)
    }

    fn client(bus: &Bus) -> ServiceClient {
        ServiceClient::new(bus.clone(), "bus://svc")
    }

    fn name_req(local: &str) -> XmlElement {
        messages::request(local, &AbstractName::new("urn:dais:svc:db:0").unwrap())
    }

    #[test]
    fn get_property_document() {
        let (bus, _, _) = make_service(false);
        let resp = client(&bus)
            .request(
                actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
                name_req("GetDataResourcePropertyDocumentRequest"),
            )
            .unwrap();
        let doc = resp.child(ns::WSDAI, "PropertyDocument").unwrap();
        assert_eq!(
            doc.child_text(ns::WSDAI, "DataResourceAbstractName").as_deref(),
            Some("urn:dais:svc:db:0")
        );
        assert_eq!(
            doc.child_text(ns::WSDAI, "DataResourceDescription").as_deref(),
            Some("test resource")
        );
    }

    #[test]
    fn generic_query_roundtrip() {
        let (bus, _, _) = make_service(false);
        let req = messages::generic_query_request(
            &AbstractName::new("urn:dais:svc:db:0").unwrap(),
            "urn:echo",
            "",
        );
        let resp = client(&bus).request(actions::GENERIC_QUERY, req).unwrap();
        assert_eq!(resp.child("", "payload").unwrap().text(), "hello");
    }

    #[test]
    fn generic_query_language_validation() {
        let (bus, _, _) = make_service(false);
        let req = messages::generic_query_request(
            &AbstractName::new("urn:dais:svc:db:0").unwrap(),
            "urn:nope",
            "",
        );
        let err = client(&bus).request(actions::GENERIC_QUERY, req).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::InvalidLanguage));
    }

    #[test]
    fn unknown_resource_faults() {
        let (bus, _, _) = make_service(false);
        let req = messages::request(
            "GetDataResourcePropertyDocumentRequest",
            &AbstractName::new("urn:dais:svc:db:999").unwrap(),
        );
        let err =
            client(&bus).request(actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT, req).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::InvalidResourceName));
    }

    #[test]
    fn resource_list_and_resolve() {
        let (bus, _, _) = make_service(false);
        let resp = client(&bus)
            .request(
                actions::GET_RESOURCE_LIST,
                XmlElement::new(ns::WSDAI, "wsdai", "GetResourceListRequest"),
            )
            .unwrap();
        let names: Vec<String> =
            resp.children_named(ns::WSDAI, "DataResourceAbstractName").map(|e| e.text()).collect();
        assert_eq!(names, vec!["urn:dais:svc:db:0"]);

        let resp = client(&bus).request(actions::RESOLVE, name_req("ResolveRequest")).unwrap();
        let addr = resp.child(ns::WSDAI, "DataResourceAddress").unwrap();
        let epr = Epr::from_xml(addr).unwrap();
        assert_eq!(epr.address, "bus://svc");
        assert_eq!(epr.resource_abstract_name().as_deref(), Some("urn:dais:svc:db:0"));
    }

    #[test]
    fn destroy_data_resource() {
        let (bus, ctx, _) = make_service(false);
        client(&bus)
            .request(actions::DESTROY_DATA_RESOURCE, name_req("DestroyDataResourceRequest"))
            .unwrap();
        assert!(ctx.registry.is_empty());
        // Second destroy faults.
        let err = client(&bus)
            .request(actions::DESTROY_DATA_RESOURCE, name_req("DestroyDataResourceRequest"))
            .unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::InvalidResourceName));
    }

    #[test]
    fn wsrf_fine_grained_property_access() {
        let (bus, _, _) = make_service(true);
        let mut req = name_req("GetResourcePropertyRequest");
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text("wsdai:Readable"),
        );
        let resp = client(&bus).request(dais_wsrf::actions::GET_RESOURCE_PROPERTY, req).unwrap();
        assert_eq!(resp.child_text(ns::WSDAI, "Readable").as_deref(), Some("true"));
        // Unknown property name.
        let mut req = name_req("GetResourcePropertyRequest");
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text("wsdai:Bogus"),
        );
        assert!(client(&bus).request(dais_wsrf::actions::GET_RESOURCE_PROPERTY, req).is_err());
    }

    #[test]
    fn wsrf_multiple_and_query() {
        let (bus, _, _) = make_service(true);
        let mut req = name_req("GetMultipleResourcePropertiesRequest");
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text("wsdai:Readable"),
        );
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty")
                .with_text("wsdai:Writeable"),
        );
        let resp = client(&bus)
            .request(dais_wsrf::actions::GET_MULTIPLE_RESOURCE_PROPERTIES, req)
            .unwrap();
        assert_eq!(resp.elements().count(), 2);

        let mut req = name_req("QueryResourcePropertiesRequest");
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "QueryExpression")
                .with_text("count(//wsdai:GenericQueryLanguage)"),
        );
        let resp =
            client(&bus).request(dais_wsrf::actions::QUERY_RESOURCE_PROPERTIES, req).unwrap();
        assert_eq!(resp.text(), "1");
    }

    #[test]
    fn wsrf_soft_state_lifetime() {
        let (bus, ctx, clock) = make_service(true);
        // Set a 1000 ms lease.
        let mut req = name_req("SetTerminationTime");
        req.push(
            XmlElement::new(ns::WSRF_RL, "wsrf-rl", "RequestedLifetimeDuration").with_text("1000"),
        );
        let resp = client(&bus).request(dais_wsrf::actions::SET_TERMINATION_TIME, req).unwrap();
        assert_eq!(resp.child_text(ns::WSRF_RL, "NewTerminationTime").as_deref(), Some("1000"));

        // Still alive before expiry.
        client(&bus)
            .request(
                actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
                name_req("GetDataResourcePropertyDocumentRequest"),
            )
            .unwrap();

        clock.advance(1001);
        let err = client(&bus)
            .request(
                actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
                name_req("GetDataResourcePropertyDocumentRequest"),
            )
            .unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::DataResourceUnavailable));
        // Expired resource was reaped on access.
        assert!(ctx.registry.is_empty());
    }

    #[test]
    fn sweeper_reaps_expired_resources() {
        let (_, ctx, clock) = make_service(true);
        ctx.lifetime.as_ref().unwrap().set_termination_in("urn:dais:svc:db:0", Some(10)).unwrap();
        clock.advance(11);
        let swept = ctx.sweep_expired();
        assert_eq!(swept, vec!["urn:dais:svc:db:0"]);
        assert!(ctx.registry.is_empty());
        assert!(ctx.sweep_expired().is_empty());
    }

    #[test]
    fn wsrf_set_resource_properties() {
        let (bus, _, _) = make_service(true);
        let mut req = name_req("SetResourcePropertiesRequest");
        req.push(XmlElement::new(ns::WSRF_RP, "wsrf-rp", "Update").with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "DataResourceDescription").with_text("renamed"),
        ));
        client(&bus).request(dais_wsrf::actions::SET_RESOURCE_PROPERTIES, req).unwrap();
        let resp = client(&bus)
            .request(
                actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
                name_req("GetDataResourcePropertyDocumentRequest"),
            )
            .unwrap();
        let doc = resp.child(ns::WSDAI, "PropertyDocument").unwrap();
        assert_eq!(
            doc.child_text(ns::WSDAI, "DataResourceDescription").as_deref(),
            Some("renamed")
        );

        // Read-only properties refuse the update.
        let mut req = name_req("SetResourcePropertiesRequest");
        req.push(XmlElement::new(ns::WSRF_RP, "wsrf-rp", "Update").with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAbstractName").with_text("urn:new"),
        ));
        let err =
            client(&bus).request(dais_wsrf::actions::SET_RESOURCE_PROPERTIES, req).unwrap_err();
        assert_eq!(err.dais_fault(), Some(DaisFault::NotAuthorized));

        // Insert/Delete are rejected: the property document shape is fixed.
        let mut req = name_req("SetResourcePropertiesRequest");
        req.push(XmlElement::new(ns::WSRF_RP, "wsrf-rp", "Insert").with_child(XmlElement::new(
            ns::WSDAI,
            "wsdai",
            "Extra",
        )));
        assert!(client(&bus).request(dais_wsrf::actions::SET_RESOURCE_PROPERTIES, req).is_err());
    }

    #[test]
    fn wsrf_destroy_via_lifetime_port() {
        let (bus, ctx, _) = make_service(true);
        client(&bus).request(dais_wsrf::actions::DESTROY, name_req("Destroy")).unwrap();
        assert!(ctx.registry.is_empty());
    }

    #[test]
    fn thick_wrapper_rewrites_statements() {
        let bus = Bus::new();
        let registry = ResourceRegistry::new();
        let mut ctx = ServiceContext {
            address: "bus://svc".into(),
            registry,
            lifetime: None,
            query_rewriter: None,
        };
        // The thick wrapper swaps the expression for a canned one.
        ctx.query_rewriter =
            Some(Arc::new(|lang: &str, _expr: &str| (lang.to_string(), "rewritten".to_string())));
        let ctx = Arc::new(ctx);
        let mut d = SoapDispatcher::new();
        register_core_ops(&mut d, ctx.clone());
        bus.register("bus://svc", Arc::new(d));

        // A resource that echoes its expression back.
        struct EchoExpr(CoreProperties);
        impl DataResource for EchoExpr {
            fn abstract_name(&self) -> &AbstractName {
                &self.0.abstract_name
            }
            fn core_properties(&self) -> Arc<CoreProperties> {
                Arc::new(self.0.clone())
            }
            fn generic_query(&self, _l: &str, e: &str) -> Result<Vec<XmlElement>, Fault> {
                Ok(vec![XmlElement::new_local("expr").with_text(e)])
            }
        }
        let mut props = CoreProperties::new(
            AbstractName::new("urn:dais:svc:db:0").unwrap(),
            ResourceManagementKind::ExternallyManaged,
        );
        props.generic_query_languages.push("urn:echo".into());
        ctx.add_resource(Arc::new(EchoExpr(props)));

        let req = messages::generic_query_request(
            &AbstractName::new("urn:dais:svc:db:0").unwrap(),
            "urn:echo",
            "original",
        );
        let resp =
            ServiceClient::new(bus, "bus://svc").request(actions::GENERIC_QUERY, req).unwrap();
        assert_eq!(resp.child("", "expr").unwrap().text(), "rewritten");
    }

    #[test]
    fn wsrf_is_additive_core_ops_identical() {
        // The same request yields the same property document with and
        // without the WSRF layer (§5's upgrade-path claim).
        let (bus_plain, _, _) = make_service(false);
        let (bus_wsrf, _, _) = make_service(true);
        let req = name_req("GetDataResourcePropertyDocumentRequest");
        let a = client(&bus_plain)
            .request(actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT, req.clone())
            .unwrap();
        let b =
            client(&bus_wsrf).request(actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT, req).unwrap();
        assert_eq!(a, b);
        // But the WSRF op only exists on the WSRF service.
        let mut preq = name_req("GetResourcePropertyRequest");
        preq.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text("wsdai:Readable"),
        );
        assert!(client(&bus_plain)
            .request(dais_wsrf::actions::GET_RESOURCE_PROPERTY, preq)
            .is_err());
    }
}
