//! Indirect-access plumbing (paper Figure 3): derived resources created
//! by factory operations, configured by a `ConfigurationDocument`, and
//! addressed by an EPR whose reference parameters carry the abstract name.

use crate::messages;
use crate::name::{AbstractName, NameGenerator};
use crate::properties::{names, ConfigurationDocument, ConfigurationMap, CoreProperties};
use crate::resource::DataResource;
use crate::service::ServiceContext;
use dais_soap::addressing::Epr;
use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_xml::{ns, QName, XmlElement};
use std::sync::Arc;

/// What a factory request asked for: the port type the consumer wants the
/// derived resource served through, and configurable property overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedResourceConfig {
    pub parent: AbstractName,
    /// Lexical QName of the requested access port type, if any.
    pub requested_port_type: Option<String>,
    pub configuration: ConfigurationDocument,
}

impl DerivedResourceConfig {
    /// Parse the common factory-request fields (Figure 3: abstract name,
    /// optional `PortTypeQName`, optional `ConfigurationDocument`).
    pub fn from_request(body: &XmlElement) -> Result<DerivedResourceConfig, Fault> {
        let parent = messages::extract_resource_name(body)?;
        let requested_port_type = messages::extract_port_type(body);
        let configuration = match names::CONFIGURATION_DOCUMENT.find_in(body) {
            Some(el) => ConfigurationDocument::from_xml(el)
                .map_err(|e| Fault::dais(DaisFault::InvalidConfigurationDocument, e))?,
            None => ConfigurationDocument::default(),
        };
        Ok(DerivedResourceConfig { parent, requested_port_type, configuration })
    }

    /// Validate against the parent's `ConfigurationMap` for `message`:
    /// the requested port type (if named) must be the advertised one, and
    /// the map's defaults are merged under the request's overrides.
    /// Returns the port type to serve and the effective configuration.
    pub fn resolve_against(
        &self,
        maps: &[ConfigurationMap],
        message: &QName,
    ) -> Result<(QName, ConfigurationDocument), Fault> {
        let map = maps.iter().find(|m| &m.message == message).ok_or_else(|| {
            Fault::dais(
                DaisFault::InvalidPortType,
                format!("service has no ConfigurationMap for message {message}"),
            )
        })?;
        if let Some(requested) = &self.requested_port_type {
            if requested != &map.port_type.lexical() {
                return Err(Fault::dais(
                    DaisFault::InvalidPortType,
                    format!(
                        "requested port type '{requested}' is not available; the ConfigurationMap offers '{}'",
                        map.port_type.lexical()
                    ),
                ));
            }
        }
        Ok((map.port_type.clone(), map.defaults.overridden_by(&self.configuration)))
    }

    /// Build the core properties of the derived (service-managed)
    /// resource: parented to this request's target, configured by the
    /// effective configuration document.
    pub fn derived_properties(
        &self,
        name: AbstractName,
        effective: &ConfigurationDocument,
    ) -> CoreProperties {
        let mut props =
            CoreProperties::new(name, crate::properties::ResourceManagementKind::ServiceManaged);
        props.parent = Some(self.parent.clone());
        props.apply_configuration(effective);
        props
    }
}

/// A factory request (Figure 3) negotiated against its target: parsed,
/// and its configuration resolved against the target's
/// `ConfigurationMap` for `message`. The realisation does its
/// model-specific work, then [`finish`](Self::finish)es.
pub struct FactoryRequest {
    config: DerivedResourceConfig,
    effective: ConfigurationDocument,
    message: QName,
}

impl FactoryRequest {
    pub fn negotiate(
        body: &XmlElement,
        target: &dyn DataResource,
        message: QName,
    ) -> Result<FactoryRequest, Fault> {
        let config = DerivedResourceConfig::from_request(body)?;
        let maps = &target.core_properties().configuration_maps;
        let (_port, effective) = config.resolve_against(maps, &message)?;
        Ok(FactoryRequest { config, effective, message })
    }

    /// Mint a `kind` name on `names`, let `build` make the derived
    /// resource from its properties, register it on `on`, and answer
    /// with its EPR in the message's `…Response` element.
    pub fn finish<R: DataResource>(
        self,
        on: &ServiceContext,
        names: &NameGenerator,
        kind: &str,
        build: impl FnOnce(CoreProperties) -> Result<R, Fault>,
    ) -> Result<Envelope, Fault> {
        let name = names.mint(kind);
        on.add_resource(Arc::new(build(
            self.config.derived_properties(name.clone(), &self.effective),
        )?));
        let local = self.message.local.trim_end_matches("Request");
        Ok(Envelope::with_body(factory_response(
            &format!("{local}Response"),
            &self.message.namespace,
            &self.message.prefix,
            &mint_resource_epr(&on.address, &name),
        )))
    }
}

/// Mint the EPR for a resource served at `service_address`, with the
/// abstract name in the reference parameters (§3: "a data resource
/// address … which also contains the abstract name of the data resource
/// in its reference parameters").
pub fn mint_resource_epr(service_address: &str, name: &AbstractName) -> Epr {
    Epr::for_resource(service_address, name.as_str())
}

/// Build the standard factory response: the EPR wrapped as
/// `wsdai:DataResourceAddress` inside a named response element.
pub fn factory_response(
    response_name: &str,
    namespace: &str,
    prefix: &str,
    epr: &Epr,
) -> XmlElement {
    let mut response = XmlElement::new(namespace, prefix, response_name);
    response.push(epr.to_xml_named(XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAddress")));
    response
}

/// Extract the EPR from a factory response.
pub fn parse_factory_response(response: &XmlElement) -> Result<Epr, Fault> {
    let addr = response
        .child(ns::WSDAI, "DataResourceAddress")
        .ok_or_else(|| Fault::client("factory response carries no DataResourceAddress"))?;
    Epr::from_xml(addr).ok_or_else(|| Fault::client("malformed DataResourceAddress"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::Sensitivity;

    fn map() -> ConfigurationMap {
        ConfigurationMap {
            message: QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
            port_type: QName::new(ns::WSDAIR, "wsdair", "SQLResponseAccessPT"),
            defaults: ConfigurationDocument {
                readable: Some(true),
                writeable: Some(false),
                sensitivity: Some(Sensitivity::Insensitive),
                ..Default::default()
            },
        }
    }

    fn request_body(port: Option<&str>) -> XmlElement {
        let mut body = messages::request(
            "SQLExecuteFactoryRequest",
            &AbstractName::new("urn:dais:svc:db:0").unwrap(),
        );
        if let Some(p) = port {
            body.push(XmlElement::new(ns::WSDAI, "wsdai", "PortTypeQName").with_text(p));
        }
        body.push(
            ConfigurationDocument { description: Some("derived".into()), ..Default::default() }
                .to_xml(),
        );
        body
    }

    #[test]
    fn parses_factory_request() {
        let config =
            DerivedResourceConfig::from_request(&request_body(Some("wsdair:SQLResponseAccessPT")))
                .unwrap();
        assert_eq!(config.parent.as_str(), "urn:dais:svc:db:0");
        assert_eq!(config.requested_port_type.as_deref(), Some("wsdair:SQLResponseAccessPT"));
        assert_eq!(config.configuration.description.as_deref(), Some("derived"));
    }

    #[test]
    fn resolves_port_type_and_defaults() {
        let config = DerivedResourceConfig::from_request(&request_body(None)).unwrap();
        let (port, effective) = config
            .resolve_against(
                &[map()],
                &QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
            )
            .unwrap();
        assert_eq!(port.lexical(), "wsdair:SQLResponseAccessPT");
        // Defaults from the map, overrides from the request.
        assert_eq!(effective.readable, Some(true));
        assert_eq!(effective.description.as_deref(), Some("derived"));
        assert_eq!(effective.sensitivity, Some(Sensitivity::Insensitive));
    }

    #[test]
    fn wrong_port_type_faults() {
        let config =
            DerivedResourceConfig::from_request(&request_body(Some("wsdair:SomethingElse")))
                .unwrap();
        let err = config
            .resolve_against(
                &[map()],
                &QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
            )
            .unwrap_err();
        assert!(err.is(DaisFault::InvalidPortType));
    }

    #[test]
    fn unknown_message_faults() {
        let config = DerivedResourceConfig::from_request(&request_body(None)).unwrap();
        let err = config
            .resolve_against(
                &[map()],
                &QName::new(ns::WSDAIX, "wsdaix", "XPathExecuteFactoryRequest"),
            )
            .unwrap_err();
        assert!(err.is(DaisFault::InvalidPortType));
    }

    #[test]
    fn invalid_configuration_faults() {
        let mut body = messages::request(
            "SQLExecuteFactoryRequest",
            &AbstractName::new("urn:dais:svc:db:0").unwrap(),
        );
        body.push(
            XmlElement::new(ns::WSDAI, "wsdai", "ConfigurationDocument")
                .with_child(XmlElement::new(ns::WSDAI, "wsdai", "Readable").with_text("perhaps")),
        );
        let err = DerivedResourceConfig::from_request(&body).unwrap_err();
        assert!(err.is(DaisFault::InvalidConfigurationDocument));
    }

    #[test]
    fn derived_properties_are_service_managed_and_parented() {
        let config = DerivedResourceConfig::from_request(&request_body(None)).unwrap();
        let (_, effective) = config
            .resolve_against(
                &[map()],
                &QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
            )
            .unwrap();
        let props = config
            .derived_properties(AbstractName::new("urn:dais:svc:response:7").unwrap(), &effective);
        assert_eq!(props.management, crate::properties::ResourceManagementKind::ServiceManaged);
        assert_eq!(props.parent.as_ref().unwrap().as_str(), "urn:dais:svc:db:0");
        assert_eq!(props.description, "derived");
        assert!(!props.writeable);
    }

    #[test]
    fn factory_response_roundtrip() {
        let epr = mint_resource_epr("bus://svc2", &AbstractName::new("urn:dais:svc:r:1").unwrap());
        let response = factory_response("SQLExecuteFactoryResponse", ns::WSDAIR, "wsdair", &epr);
        assert!(response.name.is(ns::WSDAIR, "SQLExecuteFactoryResponse"));
        let parsed = parse_factory_response(&response).unwrap();
        assert_eq!(parsed, epr);
        assert_eq!(parsed.resource_abstract_name().as_deref(), Some("urn:dais:svc:r:1"));
    }
}
