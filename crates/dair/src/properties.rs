//! The WS-DAIR extension property groups (paper Figure 4).
//!
//! Figure 4 shows the core WS-DAI properties alongside the different SQL
//! extension groupings, which "reflect the possible service interfaces
//! that can be used to access different types of relational data". This
//! module records that inventory so conformance tests (experiment E4) can
//! check every advertised property actually appears in the documents the
//! services serve.

/// The WS-DAI core property local names (all in the WS-DAI namespace).
pub const CORE_PROPERTIES: &[&str] = &[
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
];

/// Extension properties of the SQLAccessDescription grouping (served with
/// the database resource's property document).
pub const SQL_ACCESS_PROPERTIES: &[&str] = &["CIMDescription", "NumberOfTables"];

/// Extension properties of the SQLResponseDescription grouping.
pub const SQL_RESPONSE_PROPERTIES: &[&str] = &[
    "NumberOfSQLRowsets",
    "NumberOfSQLUpdateCounts",
    "NumberOfSQLReturnValues",
    "NumberOfSQLOutputParameters",
];

/// Extension properties of the SQLRowsetDescription grouping.
pub const SQL_ROWSET_PROPERTIES: &[&str] = &["NumberOfRows", "RowSchema"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{RowsetResource, SqlDataResource, SqlResponseResource};
    use dais_core::properties::ResourceManagementKind;
    use dais_core::{AbstractName, CoreProperties, DataResource};
    use dais_sql::parser::parse_statement;
    use dais_sql::Database;
    use dais_xml::ns;

    fn db() -> Database {
        let db = Database::new("x");
        db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);").unwrap();
        db
    }

    #[test]
    fn database_document_carries_core_and_access_groups() {
        let r = SqlDataResource::new(AbstractName::new("urn:d:db:0").unwrap(), db());
        let doc = r.property_document();
        for p in CORE_PROPERTIES {
            assert!(doc.child(ns::WSDAI, p).is_some(), "missing core property {p}");
        }
        for p in SQL_ACCESS_PROPERTIES {
            assert!(doc.child(ns::WSDAIR, p).is_some(), "missing SQL access property {p}");
        }
    }

    #[test]
    fn response_document_carries_response_group() {
        let props = CoreProperties::new(
            AbstractName::new("urn:d:r:0").unwrap(),
            ResourceManagementKind::ServiceManaged,
        );
        let r = SqlResponseResource::create(
            props,
            &db(),
            &parse_statement("SELECT * FROM t").unwrap(),
            &[],
        )
        .unwrap();
        let doc = r.property_document();
        for p in SQL_RESPONSE_PROPERTIES {
            assert!(doc.child(ns::WSDAIR, p).is_some(), "missing response property {p}");
        }
    }

    #[test]
    fn rowset_document_carries_rowset_group() {
        let rowset = db().execute("SELECT * FROM t", &[]).unwrap().rowset().unwrap().clone();
        let props = CoreProperties::new(
            AbstractName::new("urn:d:rs:0").unwrap(),
            ResourceManagementKind::ServiceManaged,
        );
        let r = RowsetResource::new(props, rowset);
        let doc = r.property_document();
        for p in SQL_ROWSET_PROPERTIES {
            assert!(doc.child(ns::WSDAIR, p).is_some(), "missing rowset property {p}");
        }
    }
}
