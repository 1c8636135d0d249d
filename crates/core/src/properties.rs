//! The WS-DAI core property document (paper §4.2, Figure 4), and the
//! inventory of property names every DAIS property document is built
//! from.

use crate::name::AbstractName;
use dais_xml::{ns, QName, XmlElement};

/// The expanded name of one property: a line of the paper's property
/// tables. Only the [`names`] inventory builds one, so a property
/// document can hold no name the tables do not list. A made-up name
/// does not compile:
///
/// ```compile_fail
/// use dais_core::properties::PropertyName;
/// let made_up =
///     PropertyName { namespace: "urn:x", prefix: "x", local: "MadeUpProperty" };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropertyName {
    namespace: &'static str,
    prefix: &'static str,
    local: &'static str,
}

impl PropertyName {
    /// A new, empty element of this name.
    pub fn element(self) -> XmlElement {
        XmlElement::new(self.namespace, self.prefix, self.local)
    }

    /// The first child of `parent` with this name.
    pub fn find_in(self, parent: &XmlElement) -> Option<&XmlElement> {
        parent.child(self.namespace, self.local)
    }

    /// The text of the first child of `parent` with this name.
    pub fn text_in(self, parent: &XmlElement) -> Option<String> {
        parent.child_text(self.namespace, self.local)
    }

    /// Every child of `parent` with this name, in document order.
    pub fn all_in(self, parent: &XmlElement) -> impl Iterator<Item = &XmlElement> {
        parent.children_named(self.namespace, self.local)
    }

    /// The inventory entry `name` spells, if any.
    pub fn of(name: &QName) -> Option<PropertyName> {
        names::ALL.iter().copied().find(|p| name.is(p.namespace, p.local))
    }
}

/// The property inventory: Figure 4's WS-DAI core properties, the
/// WS-DAIR extension groupings, the WS-DAIX collection and sequence
/// properties, and the structural elements property and configuration
/// documents are built from. Each line is `CONST = prefix:LocalName`.
pub mod names {
    use super::PropertyName;
    use dais_xml::ns;

    macro_rules! inventory {
        ($($name:ident = $prefix:ident : $local:ident;)*) => {
            $(
                #[doc = concat!("`", stringify!($prefix), ":", stringify!($local), "`")]
                pub const $name: PropertyName = PropertyName {
                    namespace: inventory!(@ns $prefix),
                    prefix: stringify!($prefix),
                    local: stringify!($local),
                };
            )*
            /// Every name above, in declaration order.
            pub const ALL: &[PropertyName] = &[$($name),*];
        };
        (@ns wsdai) => { ns::WSDAI };
        (@ns wsdair) => { ns::WSDAIR };
        (@ns wsdaix) => { ns::WSDAIX };
    }

    inventory! {
        // WS-DAI core properties, static then configurable.
        DATA_RESOURCE_ABSTRACT_NAME = wsdai:DataResourceAbstractName;
        PARENT_DATA_RESOURCE = wsdai:ParentDataResource;
        DATA_RESOURCE_MANAGEMENT = wsdai:DataResourceManagement;
        CONCURRENT_ACCESS = wsdai:ConcurrentAccess;
        DATASET_MAP = wsdai:DatasetMap;
        CONFIGURATION_MAP = wsdai:ConfigurationMap;
        GENERIC_QUERY_LANGUAGE = wsdai:GenericQueryLanguage;
        DATA_RESOURCE_DESCRIPTION = wsdai:DataResourceDescription;
        READABLE = wsdai:Readable;
        WRITEABLE = wsdai:Writeable;
        TRANSACTION_INITIATION = wsdai:TransactionInitiation;
        TRANSACTION_ISOLATION = wsdai:TransactionIsolation;
        SENSITIVITY = wsdai:Sensitivity;
        // Structural elements of property and configuration documents.
        PROPERTY_DOCUMENT = wsdai:PropertyDocument;
        CONFIGURATION_DOCUMENT = wsdai:ConfigurationDocument;
        MESSAGE_NAME = wsdai:MessageName;
        DATASET_FORMAT_URI = wsdai:DatasetFormatURI;
        PORT_TYPE_QNAME = wsdai:PortTypeQName;
        // WS-DAIR SQLAccessDescription.
        CIM_DESCRIPTION = wsdair:CIMDescription;
        NUMBER_OF_TABLES = wsdair:NumberOfTables;
        // WS-DAIR SQLResponseDescription.
        NUMBER_OF_SQL_ROWSETS = wsdair:NumberOfSQLRowsets;
        NUMBER_OF_SQL_UPDATE_COUNTS = wsdair:NumberOfSQLUpdateCounts;
        NUMBER_OF_SQL_RETURN_VALUES = wsdair:NumberOfSQLReturnValues;
        NUMBER_OF_SQL_OUTPUT_PARAMETERS = wsdair:NumberOfSQLOutputParameters;
        // WS-DAIR SQLRowsetDescription.
        NUMBER_OF_ROWS = wsdair:NumberOfRows;
        ROW_SCHEMA = wsdair:RowSchema;
        // WS-DAIX collection and sequence properties.
        NUMBER_OF_DOCUMENTS = wsdaix:NumberOfDocuments;
        NUMBER_OF_SUBCOLLECTIONS = wsdaix:NumberOfSubcollections;
        COLLECTION_PATH = wsdaix:CollectionPath;
        NUMBER_OF_ITEMS = wsdaix:NumberOfItems;
    }

    /// Figure 4's WS-DAI core properties, in property-document order.
    pub const CORE: &[PropertyName] = &[
        DATA_RESOURCE_ABSTRACT_NAME,
        PARENT_DATA_RESOURCE,
        DATA_RESOURCE_MANAGEMENT,
        CONCURRENT_ACCESS,
        DATASET_MAP,
        CONFIGURATION_MAP,
        GENERIC_QUERY_LANGUAGE,
        DATA_RESOURCE_DESCRIPTION,
        READABLE,
        WRITEABLE,
        TRANSACTION_INITIATION,
        TRANSACTION_ISOLATION,
        SENSITIVITY,
    ];
}

/// Whether the resource's lifetime is controlled by the service (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceManagementKind {
    ExternallyManaged,
    ServiceManaged,
}

impl ResourceManagementKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ResourceManagementKind::ExternallyManaged => "ExternallyManaged",
            ResourceManagementKind::ServiceManaged => "ServiceManaged",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ExternallyManaged" => Some(Self::ExternallyManaged),
            "ServiceManaged" => Some(Self::ServiceManaged),
            _ => None,
        }
    }
}

/// Transactional behaviour on message arrival (§4.2: "there is no
/// transactional support, an atomic transaction is initiated on the
/// arrival of each message or the message corresponds to a transactional
/// context which is under the control of the consumer").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransactionInitiation {
    NotSupported,
    #[default]
    TransactionalPerMessage,
    TransactionalFromContext,
}

impl TransactionInitiation {
    pub fn as_str(self) -> &'static str {
        match self {
            TransactionInitiation::NotSupported => "NotSupported",
            TransactionInitiation::TransactionalPerMessage => "TransactionalPerMessage",
            TransactionInitiation::TransactionalFromContext => "TransactionalFromContext",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "NotSupported" => Some(Self::NotSupported),
            "TransactionalPerMessage" => Some(Self::TransactionalPerMessage),
            "TransactionalFromContext" => Some(Self::TransactionalFromContext),
            _ => None,
        }
    }
}

/// Isolation of concurrent transactions (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransactionIsolation {
    NotSupported,
    #[default]
    ReadUncommitted,
    ReadCommitted,
    RepeatableRead,
    Serializable,
}

impl TransactionIsolation {
    pub fn as_str(self) -> &'static str {
        match self {
            TransactionIsolation::NotSupported => "NotSupported",
            TransactionIsolation::ReadUncommitted => "ReadUncommitted",
            TransactionIsolation::ReadCommitted => "ReadCommitted",
            TransactionIsolation::RepeatableRead => "RepeatableRead",
            TransactionIsolation::Serializable => "Serializable",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "NotSupported" => Some(Self::NotSupported),
            "ReadUncommitted" => Some(Self::ReadUncommitted),
            "ReadCommitted" => Some(Self::ReadCommitted),
            "RepeatableRead" => Some(Self::RepeatableRead),
            "Serializable" => Some(Self::Serializable),
            _ => None,
        }
    }
}

/// Whether derived data reflects later changes to its parent (§4.2:
/// "whether changes in the parent data resource will be reflected in the
/// derived data or not").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sensitivity {
    /// A materialised copy: parent changes are not visible.
    #[default]
    Insensitive,
    /// View-like: re-evaluated against the parent on access.
    Sensitive,
}

impl Sensitivity {
    pub fn as_str(self) -> &'static str {
        match self {
            Sensitivity::Insensitive => "Insensitive",
            Sensitivity::Sensitive => "Sensitive",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "Insensitive" => Some(Self::Insensitive),
            "Sensitive" => Some(Self::Sensitive),
            _ => None,
        }
    }
}

/// One `DatasetMap` entry: for a given request message, the data format
/// URI the service can return (§4.2: "there will be one of these elements
/// for each possible supported return type").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetMap {
    /// The request message this mapping applies to (e.g. `SQLExecuteRequest`).
    pub message: QName,
    /// The format URI (e.g. the WebRowSet namespace).
    pub dataset_format: String,
}

/// One `ConfigurationMap` entry: for a factory message, the port type of
/// the data service that will serve the derived resource, plus the default
/// configurable property values (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigurationMap {
    pub message: QName,
    pub port_type: QName,
    pub defaults: ConfigurationDocument,
}

impl ConfigurationMap {
    /// The map every factory in the family advertises: the derived
    /// resource is served through `port_type`, and defaults to Readable,
    /// not Writeable, and an Insensitive snapshot.
    pub fn snapshot(message: QName, port_type: QName) -> ConfigurationMap {
        let defaults = ConfigurationDocument {
            readable: Some(true),
            writeable: Some(false),
            sensitivity: Some(Sensitivity::Insensitive),
            ..Default::default()
        };
        ConfigurationMap { message, port_type, defaults }
    }
}

/// The configurable property values a consumer may set when creating a
/// derived resource through the indirect access pattern (§4.2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigurationDocument {
    pub description: Option<String>,
    pub readable: Option<bool>,
    pub writeable: Option<bool>,
    pub transaction_initiation: Option<TransactionInitiation>,
    pub transaction_isolation: Option<TransactionIsolation>,
    pub sensitivity: Option<Sensitivity>,
}

impl ConfigurationDocument {
    /// Overlay `other` on `self`: fields set in `other` win.
    pub fn overridden_by(&self, other: &ConfigurationDocument) -> ConfigurationDocument {
        ConfigurationDocument {
            description: other.description.clone().or_else(|| self.description.clone()),
            readable: other.readable.or(self.readable),
            writeable: other.writeable.or(self.writeable),
            transaction_initiation: other.transaction_initiation.or(self.transaction_initiation),
            transaction_isolation: other.transaction_isolation.or(self.transaction_isolation),
            sensitivity: other.sensitivity.or(self.sensitivity),
        }
    }

    /// Serialise as a `wsdai:ConfigurationDocument` element.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = names::CONFIGURATION_DOCUMENT.element();
        if let Some(d) = &self.description {
            el.push(names::DATA_RESOURCE_DESCRIPTION.element().with_text(d));
        }
        if let Some(r) = self.readable {
            el.push(names::READABLE.element().with_text(r.to_string()));
        }
        if let Some(w) = self.writeable {
            el.push(names::WRITEABLE.element().with_text(w.to_string()));
        }
        if let Some(t) = self.transaction_initiation {
            el.push(names::TRANSACTION_INITIATION.element().with_text(t.as_str()));
        }
        if let Some(t) = self.transaction_isolation {
            el.push(names::TRANSACTION_ISOLATION.element().with_text(t.as_str()));
        }
        if let Some(s) = self.sensitivity {
            el.push(names::SENSITIVITY.element().with_text(s.as_str()));
        }
        el
    }

    /// Parse from XML; unknown enum values yield `Err` (the
    /// `InvalidConfigurationDocument` fault at the service boundary).
    pub fn from_xml(el: &XmlElement) -> Result<ConfigurationDocument, String> {
        let mut doc = ConfigurationDocument {
            description: names::DATA_RESOURCE_DESCRIPTION.text_in(el),
            ..Default::default()
        };
        if let Some(t) = names::READABLE.text_in(el) {
            doc.readable = Some(t.trim().parse().map_err(|_| format!("bad Readable value '{t}'"))?);
        }
        if let Some(t) = names::WRITEABLE.text_in(el) {
            doc.writeable =
                Some(t.trim().parse().map_err(|_| format!("bad Writeable value '{t}'"))?);
        }
        if let Some(t) = names::TRANSACTION_INITIATION.text_in(el) {
            doc.transaction_initiation = Some(
                TransactionInitiation::parse(t.trim())
                    .ok_or_else(|| format!("bad TransactionInitiation value '{t}'"))?,
            );
        }
        if let Some(t) = names::TRANSACTION_ISOLATION.text_in(el) {
            doc.transaction_isolation = Some(
                TransactionIsolation::parse(t.trim())
                    .ok_or_else(|| format!("bad TransactionIsolation value '{t}'"))?,
            );
        }
        if let Some(t) = names::SENSITIVITY.text_in(el) {
            doc.sensitivity = Some(
                Sensitivity::parse(t.trim())
                    .ok_or_else(|| format!("bad Sensitivity value '{t}'"))?,
            );
        }
        Ok(doc)
    }
}

/// The complete set of WS-DAI core properties for one resource.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProperties {
    // -- static properties --
    pub abstract_name: AbstractName,
    pub parent: Option<AbstractName>,
    pub management: ResourceManagementKind,
    pub concurrent_access: bool,
    pub dataset_maps: Vec<DatasetMap>,
    pub configuration_maps: Vec<ConfigurationMap>,
    pub generic_query_languages: Vec<String>,
    // -- configurable properties --
    pub description: String,
    pub readable: bool,
    pub writeable: bool,
    pub transaction_initiation: TransactionInitiation,
    pub transaction_isolation: TransactionIsolation,
    pub sensitivity: Sensitivity,
}

impl CoreProperties {
    /// Sensible defaults for a fresh resource.
    pub fn new(abstract_name: AbstractName, management: ResourceManagementKind) -> CoreProperties {
        CoreProperties {
            abstract_name,
            parent: None,
            management,
            concurrent_access: true,
            dataset_maps: Vec::new(),
            configuration_maps: Vec::new(),
            generic_query_languages: Vec::new(),
            description: String::new(),
            readable: true,
            writeable: false,
            transaction_initiation: TransactionInitiation::default(),
            transaction_isolation: TransactionIsolation::default(),
            sensitivity: Sensitivity::default(),
        }
    }

    /// Apply a configuration document to the configurable properties.
    pub fn apply_configuration(&mut self, config: &ConfigurationDocument) {
        if let Some(d) = &config.description {
            self.description = d.clone();
        }
        if let Some(r) = config.readable {
            self.readable = r;
        }
        if let Some(w) = config.writeable {
            self.writeable = w;
        }
        if let Some(t) = config.transaction_initiation {
            self.transaction_initiation = t;
        }
        if let Some(t) = config.transaction_isolation {
            self.transaction_isolation = t;
        }
        if let Some(s) = config.sensitivity {
            self.sensitivity = s;
        }
    }

    /// Does the `DatasetMap` advertise `format` for `message`?
    pub fn supports_format(&self, message: &QName, format: &str) -> bool {
        self.dataset_maps.iter().any(|m| &m.message == message && m.dataset_format == format)
    }

    /// Serialise the property document: a `wsdai:PropertyDocument` whose
    /// children are the individual properties (ready for WSRF layering).
    pub fn to_xml(&self) -> XmlElement {
        let mut doc = names::PROPERTY_DOCUMENT.element();
        doc.push(
            names::DATA_RESOURCE_ABSTRACT_NAME.element().with_text(self.abstract_name.as_str()),
        );
        let parent = names::PARENT_DATA_RESOURCE.element();
        doc.push(match &self.parent {
            Some(p) => parent.with_text(p.as_str()),
            None => parent,
        });
        doc.push(names::DATA_RESOURCE_MANAGEMENT.element().with_text(self.management.as_str()));
        doc.push(names::CONCURRENT_ACCESS.element().with_text(self.concurrent_access.to_string()));
        for m in &self.dataset_maps {
            doc.push(
                names::DATASET_MAP
                    .element()
                    .with_child(names::MESSAGE_NAME.element().with_text(m.message.lexical()))
                    .with_child(names::DATASET_FORMAT_URI.element().with_text(&m.dataset_format)),
            );
        }
        for m in &self.configuration_maps {
            doc.push(
                names::CONFIGURATION_MAP
                    .element()
                    .with_child(names::MESSAGE_NAME.element().with_text(m.message.lexical()))
                    .with_child(names::PORT_TYPE_QNAME.element().with_text(m.port_type.lexical()))
                    .with_child(m.defaults.to_xml()),
            );
        }
        for l in &self.generic_query_languages {
            doc.push(names::GENERIC_QUERY_LANGUAGE.element().with_text(l));
        }
        doc.push(names::DATA_RESOURCE_DESCRIPTION.element().with_text(&self.description));
        doc.push(names::READABLE.element().with_text(self.readable.to_string()));
        doc.push(names::WRITEABLE.element().with_text(self.writeable.to_string()));
        doc.push(
            names::TRANSACTION_INITIATION.element().with_text(self.transaction_initiation.as_str()),
        );
        doc.push(
            names::TRANSACTION_ISOLATION.element().with_text(self.transaction_isolation.as_str()),
        );
        doc.push(names::SENSITIVITY.element().with_text(self.sensitivity.as_str()));
        doc
    }

    /// Parse a property document back into the typed form.
    pub fn from_xml(doc: &XmlElement) -> Result<CoreProperties, String> {
        let name_text = names::DATA_RESOURCE_ABSTRACT_NAME
            .text_in(doc)
            .ok_or("missing DataResourceAbstractName")?;
        let abstract_name = AbstractName::new(name_text).map_err(|e| e.to_string())?;
        let parent = match names::PARENT_DATA_RESOURCE.text_in(doc) {
            Some(t) if !t.is_empty() => Some(AbstractName::new(t).map_err(|e| e.to_string())?),
            _ => None,
        };
        let management = names::DATA_RESOURCE_MANAGEMENT
            .text_in(doc)
            .and_then(|t| ResourceManagementKind::parse(t.trim()))
            .ok_or("missing or invalid DataResourceManagement")?;
        let mut props = CoreProperties::new(abstract_name, management);
        props.parent = parent;
        props.concurrent_access = names::CONCURRENT_ACCESS
            .text_in(doc)
            .and_then(|t| t.trim().parse().ok())
            .unwrap_or(true);
        for m in names::DATASET_MAP.all_in(doc) {
            props.dataset_maps.push(DatasetMap {
                message: parse_lexical_qname(&names::MESSAGE_NAME.text_in(m).unwrap_or_default()),
                dataset_format: names::DATASET_FORMAT_URI.text_in(m).unwrap_or_default(),
            });
        }
        for m in names::CONFIGURATION_MAP.all_in(doc) {
            props.configuration_maps.push(ConfigurationMap {
                message: parse_lexical_qname(&names::MESSAGE_NAME.text_in(m).unwrap_or_default()),
                port_type: parse_lexical_qname(
                    &names::PORT_TYPE_QNAME.text_in(m).unwrap_or_default(),
                ),
                defaults: names::CONFIGURATION_DOCUMENT
                    .find_in(m)
                    .map(ConfigurationDocument::from_xml)
                    .transpose()?
                    .unwrap_or_default(),
            });
        }
        props.generic_query_languages =
            names::GENERIC_QUERY_LANGUAGE.all_in(doc).map(|e| e.text()).collect();
        props.description = names::DATA_RESOURCE_DESCRIPTION.text_in(doc).unwrap_or_default();
        props.readable =
            names::READABLE.text_in(doc).and_then(|t| t.trim().parse().ok()).unwrap_or(true);
        props.writeable =
            names::WRITEABLE.text_in(doc).and_then(|t| t.trim().parse().ok()).unwrap_or(false);
        if let Some(t) = names::TRANSACTION_INITIATION.text_in(doc) {
            props.transaction_initiation =
                TransactionInitiation::parse(t.trim()).ok_or("invalid TransactionInitiation")?;
        }
        if let Some(t) = names::TRANSACTION_ISOLATION.text_in(doc) {
            props.transaction_isolation =
                TransactionIsolation::parse(t.trim()).ok_or("invalid TransactionIsolation")?;
        }
        if let Some(t) = names::SENSITIVITY.text_in(doc) {
            props.sensitivity = Sensitivity::parse(t.trim()).ok_or("invalid Sensitivity")?;
        }
        Ok(props)
    }
}

/// Parse a `prefix:local` lexical QName; the prefix is preserved but the
/// namespace is resolved by well-known prefixes (wsdai/wsdair/wsdaix).
/// Message and port-type names in property documents use these canonical
/// prefixes throughout this implementation.
fn parse_lexical_qname(lexical: &str) -> QName {
    match lexical.split_once(':') {
        Some((p, l)) => {
            let namespace = match p {
                "wsdai" => ns::WSDAI,
                "wsdair" => ns::WSDAIR,
                "wsdaix" => ns::WSDAIX,
                _ => "",
            };
            QName::new(namespace, p, l)
        }
        None => QName::local(lexical),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreProperties {
        let mut p = CoreProperties::new(
            AbstractName::new("urn:dais:svc:db:0").unwrap(),
            ResourceManagementKind::ExternallyManaged,
        );
        p.parent = Some(AbstractName::new("urn:dais:svc:parent:0").unwrap());
        p.generic_query_languages = vec!["urn:sql:92".to_string()];
        p.dataset_maps.push(DatasetMap {
            message: QName::new(ns::WSDAIR, "wsdair", "SQLExecuteRequest"),
            dataset_format: ns::ROWSET.to_string(),
        });
        p.configuration_maps.push(ConfigurationMap {
            message: QName::new(ns::WSDAIR, "wsdair", "SQLExecuteFactoryRequest"),
            port_type: QName::new(ns::WSDAIR, "wsdair", "SQLResponseAccessPT"),
            defaults: ConfigurationDocument {
                readable: Some(true),
                writeable: Some(false),
                sensitivity: Some(Sensitivity::Insensitive),
                ..Default::default()
            },
        });
        p.description = "orders database".into();
        p
    }

    #[test]
    fn property_document_roundtrip() {
        let p = sample();
        let doc = p.to_xml();
        let rt = CoreProperties::from_xml(&doc).unwrap();
        assert_eq!(rt, p);
    }

    #[test]
    fn roundtrip_through_text() {
        let p = sample();
        let text = dais_xml::to_string(&p.to_xml());
        let rt = CoreProperties::from_xml(&dais_xml::parse(&text).unwrap()).unwrap();
        assert_eq!(rt, p);
    }

    #[test]
    fn document_contains_all_core_properties() {
        let doc = sample().to_xml();
        for local in [
            "DataResourceAbstractName",
            "ParentDataResource",
            "DataResourceManagement",
            "ConcurrentAccess",
            "DatasetMap",
            "ConfigurationMap",
            "GenericQueryLanguage",
            "DataResourceDescription",
            "Readable",
            "Writeable",
            "TransactionInitiation",
            "TransactionIsolation",
            "Sensitivity",
        ] {
            assert!(doc.child(ns::WSDAI, local).is_some(), "missing property {local}");
        }
    }

    #[test]
    fn configuration_document_roundtrip() {
        let c = ConfigurationDocument {
            description: Some("derived".into()),
            readable: Some(true),
            writeable: Some(false),
            transaction_initiation: Some(TransactionInitiation::NotSupported),
            transaction_isolation: Some(TransactionIsolation::ReadUncommitted),
            sensitivity: Some(Sensitivity::Sensitive),
        };
        let rt = ConfigurationDocument::from_xml(&c.to_xml()).unwrap();
        assert_eq!(rt, c);
        // Empty config is valid and empty.
        let empty = ConfigurationDocument::default();
        assert_eq!(ConfigurationDocument::from_xml(&empty.to_xml()).unwrap(), empty);
    }

    #[test]
    fn configuration_document_rejects_bad_values() {
        let el = XmlElement::new(ns::WSDAI, "wsdai", "ConfigurationDocument")
            .with_child(XmlElement::new(ns::WSDAI, "wsdai", "Readable").with_text("maybe"));
        assert!(ConfigurationDocument::from_xml(&el).is_err());
        let el = XmlElement::new(ns::WSDAI, "wsdai", "ConfigurationDocument")
            .with_child(XmlElement::new(ns::WSDAI, "wsdai", "Sensitivity").with_text("Psychic"));
        assert!(ConfigurationDocument::from_xml(&el).is_err());
    }

    #[test]
    fn overlay_semantics() {
        let base = ConfigurationDocument {
            readable: Some(true),
            writeable: Some(false),
            sensitivity: Some(Sensitivity::Insensitive),
            ..Default::default()
        };
        let request = ConfigurationDocument {
            writeable: Some(true),
            description: Some("mine".into()),
            ..Default::default()
        };
        let merged = base.overridden_by(&request);
        assert_eq!(merged.readable, Some(true)); // from base
        assert_eq!(merged.writeable, Some(true)); // overridden
        assert_eq!(merged.description.as_deref(), Some("mine"));
        assert_eq!(merged.sensitivity, Some(Sensitivity::Insensitive));
    }

    #[test]
    fn apply_configuration_sets_only_present_fields() {
        let mut p = sample();
        p.apply_configuration(&ConfigurationDocument {
            writeable: Some(true),
            ..Default::default()
        });
        assert!(p.writeable);
        assert!(p.readable); // untouched
        assert_eq!(p.description, "orders database"); // untouched
    }

    #[test]
    fn supports_format_consults_dataset_map() {
        let p = sample();
        let msg = QName::new(ns::WSDAIR, "wsdair", "SQLExecuteRequest");
        assert!(p.supports_format(&msg, ns::ROWSET));
        assert!(!p.supports_format(&msg, "urn:csv"));
        assert!(!p.supports_format(&QName::local("Other"), ns::ROWSET));
    }

    /// The inventory spells exactly the property vocabulary the retired
    /// `unknown-property-name` lint held `properties.rs` files to, plus
    /// the WS-DAIX properties it never saw. Every local name is an
    /// upper-camel NCName and every expanded name is distinct.
    #[test]
    fn inventory_reproduces_the_retired_canonical_list() {
        let retired = [
            "DataResourceAbstractName",
            "ParentDataResource",
            "DataResourceManagement",
            "ConcurrentAccess",
            "DatasetMap",
            "ConfigurationMap",
            "GenericQueryLanguage",
            "DataResourceDescription",
            "Readable",
            "Writeable",
            "TransactionInitiation",
            "TransactionIsolation",
            "Sensitivity",
            "PropertyDocument",
            "ConfigurationDocument",
            "MessageName",
            "DatasetFormatURI",
            "PortTypeQName",
            "CIMDescription",
            "NumberOfTables",
            "NumberOfSQLRowsets",
            "NumberOfSQLUpdateCounts",
            "NumberOfSQLReturnValues",
            "NumberOfSQLOutputParameters",
            "NumberOfRows",
            "RowSchema",
        ];
        let daix =
            ["NumberOfDocuments", "NumberOfSubcollections", "CollectionPath", "NumberOfItems"];
        let locals: Vec<&str> = names::ALL.iter().map(|p| p.local).collect();
        assert_eq!(locals, retired.iter().chain(&daix).copied().collect::<Vec<_>>());
        for p in names::ALL {
            let first = p.local.chars().next().unwrap();
            assert!(first.is_ascii_uppercase() && dais_xml::name::is_ncname(p.local), "{p:?}");
            assert_eq!(PropertyName::of(&p.element().name), Some(*p));
        }
        let expanded: std::collections::HashSet<_> =
            names::ALL.iter().map(|p| (p.namespace, p.local)).collect();
        assert_eq!(expanded.len(), names::ALL.len(), "duplicate inventory line");
        assert_eq!(PropertyName::of(&QName::new(ns::WSDAIR, "wsdair", "Readable")), None);
    }

    /// Each enum variant spells one value of its space and parses back to
    /// itself; the spellings are the value spaces of the paper's property
    /// tables. The matches are exhaustive, so a new variant must be added
    /// here to compile.
    #[test]
    fn enum_parsing() {
        use ResourceManagementKind as M;
        use Sensitivity as S;
        use TransactionInitiation as I;
        use TransactionIsolation as L;
        let management = [M::ExternallyManaged, M::ServiceManaged].map(|v| match v {
            M::ExternallyManaged | M::ServiceManaged => {
                (v.as_str(), M::parse(v.as_str()).map(M::as_str))
            }
        });
        let initiation = [I::NotSupported, I::TransactionalPerMessage, I::TransactionalFromContext]
            .map(|v| match v {
                I::NotSupported | I::TransactionalPerMessage | I::TransactionalFromContext => {
                    (v.as_str(), I::parse(v.as_str()).map(I::as_str))
                }
            });
        let isolation = [
            L::NotSupported,
            L::ReadUncommitted,
            L::ReadCommitted,
            L::RepeatableRead,
            L::Serializable,
        ]
        .map(|v| match v {
            L::NotSupported
            | L::ReadUncommitted
            | L::ReadCommitted
            | L::RepeatableRead
            | L::Serializable => (v.as_str(), L::parse(v.as_str()).map(L::as_str)),
        });
        let sensitivity = [S::Insensitive, S::Sensitive].map(|v| match v {
            S::Insensitive | S::Sensitive => (v.as_str(), S::parse(v.as_str()).map(S::as_str)),
        });
        let spelled: Vec<(&str, Option<&str>)> =
            management.into_iter().chain(initiation).chain(isolation).chain(sensitivity).collect();
        for (s, back) in &spelled {
            assert_eq!(*back, Some(*s), "{s} does not parse back to itself");
        }
        let values: Vec<&str> = spelled.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            values,
            [
                "ExternallyManaged",
                "ServiceManaged",
                "NotSupported",
                "TransactionalPerMessage",
                "TransactionalFromContext",
                "NotSupported",
                "ReadUncommitted",
                "ReadCommitted",
                "RepeatableRead",
                "Serializable",
                "Insensitive",
                "Sensitive",
            ]
        );
        assert_eq!(TransactionIsolation::parse("nope"), None);
    }
}
