//! The data resource abstraction (paper §3).

use crate::name::AbstractName;
use crate::properties::{names, CoreProperties, PropertyName};
use dais_soap::fault::{DaisFault, Fault};
use dais_xml::XmlElement;
use std::any::Any;
use std::sync::Arc;

pub use crate::properties::ResourceManagementKind as ResourceManagement;

/// Anything a data service can represent: "any entity that can act as a
/// source or sink of data". Realisations implement this for their
/// resource kinds (relational databases, SQL responses, rowsets, XML
/// collections, query sequences…). The `Any` supertrait lets a handler
/// recover the concrete kind it serves ([`Target`]).
pub trait DataResource: Any + Send + Sync {
    /// The unique, persistent abstract name.
    fn abstract_name(&self) -> &AbstractName;

    /// The WS-DAI core properties: a shared snapshot, so reading one flag
    /// copies nothing.
    fn core_properties(&self) -> Arc<CoreProperties>;

    /// The full property document: the core properties plus any
    /// realisation-specific extension properties.
    fn property_document(&self) -> XmlElement {
        self.core_properties().to_xml()
    }

    /// Service the model-independent `GenericQuery` operation. The
    /// default rejects every language; realisations override for the
    /// languages they advertise in `GenericQueryLanguage`.
    fn generic_query(&self, language: &str, _expression: &str) -> Result<Vec<XmlElement>, Fault> {
        Err(Fault::dais(
            DaisFault::InvalidLanguage,
            format!("query language '{language}' is not supported by this resource"),
        ))
    }

    /// Service one property update from the WSRF `SetResourceProperties`
    /// operation (Figure 7). The default refuses: most DAIS properties
    /// are descriptive and read-only. Resources with configurable
    /// properties override this for the subset they accept.
    fn set_property(&self, property: &XmlElement) -> Result<(), Fault> {
        Err(Fault::dais(
            DaisFault::NotAuthorized,
            format!("property '{}' is read-only on this resource", property.name.local),
        ))
    }
}

/// What an operation can ask resolution for: one concrete resource kind,
/// or `dyn DataResource` for an operation that serves every kind.
pub trait Target: DataResource {
    /// `resource` as this kind, or `None` when it is another kind.
    fn narrow(resource: Arc<dyn DataResource>) -> Option<Arc<Self>>;
}

impl<T: DataResource> Target for T {
    fn narrow(resource: Arc<dyn DataResource>) -> Option<Arc<T>> {
        (resource as Arc<dyn Any + Send + Sync>).downcast().ok()
    }
}

impl Target for dyn DataResource {
    fn narrow(resource: Arc<dyn DataResource>) -> Option<Arc<Self>> {
        Some(resource)
    }
}

/// A trivial in-memory resource used by tests and the thin examples: it
/// stores a property set and a fixed payload served via `GenericQuery`
/// with the pseudo-language `urn:echo`. Its description and access
/// flags are configurable through WSRF `SetResourceProperties`.
pub struct StaticResource {
    /// The abstract name is immutable for the resource's lifetime, so it
    /// is kept outside the lock and served without synchronisation.
    name: AbstractName,
    properties: dais_util::sync::RwLock<Arc<CoreProperties>>,
    payload: Vec<XmlElement>,
}

impl StaticResource {
    pub fn new(mut properties: CoreProperties, payload: Vec<XmlElement>) -> StaticResource {
        if !properties.generic_query_languages.iter().any(|l| l == "urn:echo") {
            properties.generic_query_languages.push("urn:echo".to_string());
        }
        StaticResource {
            name: properties.abstract_name.clone(),
            properties: dais_util::sync::RwLock::new(Arc::new(properties)),
            payload,
        }
    }
}

impl DataResource for StaticResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.read().clone()
    }

    fn set_property(&self, property: &XmlElement) -> Result<(), Fault> {
        let parse_flag = |p: &XmlElement| match p.text().trim() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(Fault::dais(
                DaisFault::InvalidConfigurationDocument,
                format!("'{other}' is not a boolean for {}", p.name.local),
            )),
        };
        let mut guard = self.properties.write();
        let props = Arc::make_mut(&mut guard);
        match PropertyName::of(&property.name) {
            Some(names::DATA_RESOURCE_DESCRIPTION) => {
                props.description = property.text().trim().to_string()
            }
            Some(names::READABLE) => props.readable = parse_flag(property)?,
            Some(names::WRITEABLE) => props.writeable = parse_flag(property)?,
            _ => {
                return Err(Fault::dais(
                    DaisFault::NotAuthorized,
                    format!("property '{}' is read-only on this resource", property.name.local),
                ))
            }
        }
        Ok(())
    }

    fn generic_query(&self, language: &str, _expression: &str) -> Result<Vec<XmlElement>, Fault> {
        if language == "urn:echo" {
            Ok(self.payload.clone())
        } else {
            Err(Fault::dais(
                DaisFault::InvalidLanguage,
                format!("query language '{language}' is not supported by this resource"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::ResourceManagementKind;

    fn make() -> StaticResource {
        let props = CoreProperties::new(
            AbstractName::new("urn:dais:t:r:0").unwrap(),
            ResourceManagementKind::ServiceManaged,
        );
        StaticResource::new(props, vec![XmlElement::new_local("data").with_text("42")])
    }

    #[test]
    fn serves_echo_queries() {
        let r = make();
        let out = r.generic_query("urn:echo", "").unwrap();
        assert_eq!(out[0].text(), "42");
        let err = r.generic_query("urn:sql:92", "SELECT 1").unwrap_err();
        assert!(err.is(DaisFault::InvalidLanguage));
    }

    #[test]
    fn advertises_echo_language() {
        let r = make();
        assert!(r.core_properties().generic_query_languages.contains(&"urn:echo".to_string()));
    }

    #[test]
    fn property_document_defaults_to_core() {
        let r = make();
        let doc = r.property_document();
        assert!(doc.name.is(dais_xml::ns::WSDAI, "PropertyDocument"));
    }

    #[test]
    fn downcasting_works() {
        let r: Arc<dyn DataResource> = Arc::new(make());
        assert!(<dyn DataResource>::narrow(r.clone()).is_some());
        assert!(StaticResource::narrow(r.clone()).is_some());
        assert!(crate::monitoring::MonitoringResource::narrow(r).is_none());
    }
}
