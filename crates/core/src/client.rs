//! Consumer-side typed client for the WS-DAI core operations.

use crate::dais_client::DaisClient;
use crate::messages::{self, actions};
use crate::name::AbstractName;
use crate::properties::{names, CoreProperties};
use dais_soap::addressing::Epr;
use dais_soap::client::{CallError, PendingReply, ServiceClient};
use dais_xml::{ns, XmlElement};

/// A consumer of a DAIS data service ("an application that exploits a
/// data service to access a data resource", §3).
#[derive(Clone)]
pub struct CoreClient {
    inner: ServiceClient,
}

impl CoreClient {
    /// `GetDataResourcePropertyDocument` against many resources at
    /// once, keeping up to `window` requests in flight on the pipelined
    /// path; one result per resource, in input order.
    pub fn get_property_documents(
        &self,
        resources: &[AbstractName],
        window: usize,
    ) -> Vec<Result<CoreProperties, CallError>> {
        let payloads = resources
            .iter()
            .map(|r| messages::request("GetDataResourcePropertyDocumentRequest", r))
            .collect();
        self.inner
            .request_pipelined(
                actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
                payloads,
                window,
                PendingReply::wait,
            )
            .into_iter()
            .map(|result| {
                let response = result?;
                let doc = messages::property_document(&response)?;
                CoreProperties::from_xml(doc).map_err(CallError::UnexpectedResponse)
            })
            .collect()
    }

    /// `GetDataResourcePropertyDocument`: the whole property document.
    pub fn get_property_document(
        &self,
        resource: &AbstractName,
    ) -> Result<CoreProperties, CallError> {
        let response = self.inner.request(
            actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
            messages::request("GetDataResourcePropertyDocumentRequest", resource),
        )?;
        let doc = messages::property_document(&response)?;
        CoreProperties::from_xml(doc).map_err(CallError::UnexpectedResponse)
    }

    /// The raw property document XML (realisations read extension
    /// properties out of it).
    pub fn get_property_document_xml(
        &self,
        resource: &AbstractName,
    ) -> Result<XmlElement, CallError> {
        let response = self.inner.request(
            actions::GET_DATA_RESOURCE_PROPERTY_DOCUMENT,
            messages::request("GetDataResourcePropertyDocumentRequest", resource),
        )?;
        messages::property_document(&response).cloned()
    }

    /// `DestroyDataResource`.
    pub fn destroy(&self, resource: &AbstractName) -> Result<(), CallError> {
        self.inner
            .request(
                actions::DESTROY_DATA_RESOURCE,
                messages::request("DestroyDataResourceRequest", resource),
            )
            .map(|_| ())
    }

    /// `GenericQuery` in one of the advertised languages.
    pub fn generic_query(
        &self,
        resource: &AbstractName,
        language: &str,
        expression: &str,
    ) -> Result<Vec<XmlElement>, CallError> {
        let response = self.inner.request(
            actions::GENERIC_QUERY,
            messages::generic_query_request(resource, language, expression),
        )?;
        Ok(response.elements().cloned().collect())
    }

    /// `GetResourceList` (CoreResourceList).
    pub fn get_resource_list(&self) -> Result<Vec<AbstractName>, CallError> {
        let response = self.inner.request(
            actions::GET_RESOURCE_LIST,
            XmlElement::new(ns::WSDAI, "wsdai", "GetResourceListRequest"),
        )?;
        names::DATA_RESOURCE_ABSTRACT_NAME
            .all_in(&response)
            .map(|e| {
                AbstractName::new(e.text())
                    .map_err(|err| CallError::UnexpectedResponse(err.to_string()))
            })
            .collect()
    }

    /// `Resolve` (CoreResourceList): abstract name → EPR.
    pub fn resolve(&self, resource: &AbstractName) -> Result<Epr, CallError> {
        let response =
            self.inner.request(actions::RESOLVE, messages::request("ResolveRequest", resource))?;
        let addr = response
            .child(ns::WSDAI, "DataResourceAddress")
            .ok_or_else(|| CallError::UnexpectedResponse("no DataResourceAddress".into()))?;
        Epr::from_xml(addr).ok_or_else(|| CallError::UnexpectedResponse("malformed EPR".into()))
    }

    // -- WSRF-layer calls (only meaningful against WSRF-enabled services) --

    /// WSRF `GetResourceProperty` by lexical QName (`wsdai:Readable`).
    pub fn get_resource_property(
        &self,
        resource: &AbstractName,
        lexical_qname: &str,
    ) -> Result<Vec<XmlElement>, CallError> {
        let mut req = messages::request("GetResourcePropertyRequest", resource);
        req.push(
            XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text(lexical_qname),
        );
        let response = self.inner.request(dais_wsrf::actions::GET_RESOURCE_PROPERTY, req)?;
        Ok(response.elements().cloned().collect())
    }

    /// WSRF `GetMultipleResourceProperties`: fetch several properties
    /// (by lexical QName) in one round trip.
    pub fn get_multiple_resource_properties(
        &self,
        resource: &AbstractName,
        lexical_qnames: &[&str],
    ) -> Result<Vec<XmlElement>, CallError> {
        let mut req = messages::request("GetMultipleResourcePropertiesRequest", resource);
        for q in lexical_qnames {
            req.push(XmlElement::new(ns::WSRF_RP, "wsrf-rp", "ResourceProperty").with_text(*q));
        }
        let response =
            self.inner.request(dais_wsrf::actions::GET_MULTIPLE_RESOURCE_PROPERTIES, req)?;
        Ok(response.elements().cloned().collect())
    }

    /// WSRF `QueryResourceProperties` with an XPath expression.
    pub fn query_resource_properties(
        &self,
        resource: &AbstractName,
        xpath: &str,
    ) -> Result<XmlElement, CallError> {
        let mut req = messages::request("QueryResourcePropertiesRequest", resource);
        req.push(XmlElement::new(ns::WSRF_RP, "wsrf-rp", "QueryExpression").with_text(xpath));
        self.inner.request(dais_wsrf::actions::QUERY_RESOURCE_PROPERTIES, req)
    }

    /// WSRF `SetResourceProperties`: update the given property elements
    /// on the resource. Only configurable properties are accepted; the
    /// service faults with `NotAuthorized` for read-only ones.
    pub fn set_resource_properties(
        &self,
        resource: &AbstractName,
        updates: &[XmlElement],
    ) -> Result<(), CallError> {
        let mut req = messages::request("SetResourcePropertiesRequest", resource);
        let mut update = XmlElement::new(ns::WSRF_RP, "wsrf-rp", "Update");
        for u in updates {
            update.push(u.clone());
        }
        req.push(update);
        self.inner.request(dais_wsrf::actions::SET_RESOURCE_PROPERTIES, req).map(|_| ())
    }

    /// WSRF `SetTerminationTime` with a lifetime duration in clock
    /// milliseconds (`None` clears scheduled termination).
    pub fn set_termination_time(
        &self,
        resource: &AbstractName,
        duration_millis: Option<u64>,
    ) -> Result<Option<u64>, CallError> {
        let mut req = messages::request("SetTerminationTime", resource);
        match duration_millis {
            Some(d) => req.push(
                XmlElement::new(ns::WSRF_RL, "wsrf-rl", "RequestedLifetimeDuration")
                    .with_text(d.to_string()),
            ),
            None => {
                let mut t = XmlElement::new(ns::WSRF_RL, "wsrf-rl", "RequestedTerminationTime");
                t.set_attr("nil", "true");
                req.push(t);
            }
        }
        let response = self.inner.request(dais_wsrf::actions::SET_TERMINATION_TIME, req)?;
        let new_time = response.child(ns::WSRF_RL, "NewTerminationTime").and_then(|e| {
            if e.attribute("nil") == Some("true") {
                None
            } else {
                e.text().trim().parse::<u64>().ok()
            }
        });
        Ok(new_time)
    }

    /// WSRF `Destroy` (ImmediateResourceTermination).
    pub fn wsrf_destroy(&self, resource: &AbstractName) -> Result<(), CallError> {
        self.inner
            .request(dais_wsrf::actions::DESTROY, messages::request("Destroy", resource))
            .map(|_| ())
    }
}

impl DaisClient for CoreClient {
    fn service(&self) -> &ServiceClient {
        &self.inner
    }

    fn from_service(service: ServiceClient) -> CoreClient {
        CoreClient { inner: service }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::ResourceManagementKind;
    use crate::registry::ResourceRegistry;
    use crate::resource::StaticResource;
    use crate::service::{register_core_ops, register_wsrf_ops, ServiceContext};
    use dais_soap::bus::Bus;
    use dais_soap::service::SoapDispatcher;
    use dais_wsrf::{LifetimeRegistry, ManualClock};
    use std::sync::Arc;

    fn setup() -> (Bus, CoreClient, AbstractName, Arc<ManualClock>) {
        let bus = Bus::new();
        let clock = ManualClock::new();
        let ctx = ServiceContext::with_wsrf(
            "bus://svc",
            ResourceRegistry::new(),
            Arc::new(LifetimeRegistry::new(clock.clone())),
        );
        let mut d = SoapDispatcher::new();
        register_core_ops(&mut d, ctx.clone());
        register_wsrf_ops(&mut d, ctx.clone());
        bus.register("bus://svc", Arc::new(d));

        let name = AbstractName::new("urn:dais:svc:db:0").unwrap();
        let props = CoreProperties::new(name.clone(), ResourceManagementKind::ExternallyManaged);
        ctx.add_resource(Arc::new(StaticResource::new(
            props,
            vec![XmlElement::new_local("row").with_text("1")],
        )));
        (bus.clone(), CoreClient::builder().bus(bus).address("bus://svc").build(), name, clock)
    }

    #[test]
    fn typed_property_document() {
        let (_, client, name, _) = setup();
        let props = client.get_property_document(&name).unwrap();
        assert_eq!(props.abstract_name, name);
        assert!(props.readable);
    }

    #[test]
    fn typed_generic_query() {
        let (_, client, name, _) = setup();
        let rows = client.generic_query(&name, "urn:echo", "").unwrap();
        assert_eq!(rows.len(), 1);
        let err = client.generic_query(&name, "urn:nope", "").unwrap_err();
        assert_eq!(err.dais_fault(), Some(dais_soap::fault::DaisFault::InvalidLanguage));
    }

    #[test]
    fn list_resolve_and_epr_binding() {
        let (bus, client, name, _) = setup();
        assert_eq!(client.get_resource_list().unwrap(), vec![name.clone()]);
        let epr = client.resolve(&name).unwrap();
        assert_eq!(epr.resource_abstract_name().as_deref(), Some(name.as_str()));
        // A client bound through the EPR works identically.
        let via_epr = CoreClient::builder().bus(bus).epr(epr).build();
        let props = via_epr.get_property_document(&name).unwrap();
        assert_eq!(props.abstract_name, name);
    }

    #[test]
    fn wsrf_property_and_lifetime_calls() {
        let (_, client, name, clock) = setup();
        let vals = client.get_resource_property(&name, "wsdai:ConcurrentAccess").unwrap();
        assert_eq!(vals[0].text(), "true");
        let result = client.query_resource_properties(&name, "//wsdai:Readable").unwrap();
        assert_eq!(result.elements().count(), 1);

        let t = client.set_termination_time(&name, Some(500)).unwrap();
        assert_eq!(t, Some(500));
        clock.advance(501);
        assert!(client.get_property_document(&name).is_err());
    }

    #[test]
    fn batched_property_documents() {
        let (bus, client, name, _) = setup();
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(2).seed(41));
        let missing = AbstractName::new("urn:dais:svc:db:404").unwrap();
        let results = client.get_property_documents(&[name.clone(), missing, name.clone()], 2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].as_ref().unwrap().abstract_name, name);
        assert!(results[1].is_err(), "unknown resource fails its slot only");
        assert_eq!(results[2].as_ref().unwrap().abstract_name, name);
        bus.shutdown_executor();
    }

    #[test]
    fn trait_accessors_match_inherent_state() {
        let (bus, client, _, _) = setup();
        assert_eq!(DaisClient::epr(&client).address, "bus://svc");
        assert!(std::ptr::eq(DaisClient::bus(&client).obs(), bus.obs()));
        // Retry is layered by the builder, onto the raw client.
        let client = CoreClient::builder()
            .bus(bus)
            .address("bus://svc")
            .retry(dais_soap::retry::RetryPolicy::new(3))
            .build();
        assert!(client.service().retry_config().is_some());
    }

    #[test]
    fn transport_bound_client_behaves_like_a_local_bind() {
        let (bus, _, name, _) = setup();
        let client = CoreClient::builder()
            .bus(bus.clone())
            .transport(Arc::new(dais_soap::InProcessTransport::new(&bus)))
            .address("bus://svc")
            .build();
        assert_eq!(bus.transport_name(), Some("in-process"));
        let props = client.get_property_document(&name).unwrap();
        assert_eq!(props.abstract_name, name);
        bus.clear_transport();
        assert_eq!(bus.transport_name(), None);
    }

    #[test]
    fn destroy_roundtrip() {
        let (_, client, name, _) = setup();
        client.destroy(&name).unwrap();
        assert!(client.get_property_document(&name).is_err());
        assert!(client.destroy(&name).is_err());
    }
}
