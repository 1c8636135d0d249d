//! The WS-DAIR extension property groups (paper Figure 4).
//!
//! Figure 4 shows the core WS-DAI properties alongside the different SQL
//! extension groupings, which "reflect the possible service interfaces
//! that can be used to access different types of relational data". This
//! module records that inventory so conformance tests (experiment E4) can
//! check every advertised property actually appears in the documents the
//! services serve. The names themselves are lines of the one inventory,
//! [`dais_core::properties::names`].

use dais_core::properties::names::*;
use dais_core::PropertyName;

/// The WS-DAI core properties.
pub const CORE_PROPERTIES: &[PropertyName] = CORE;

/// Extension properties of the SQLAccessDescription grouping (served with
/// the database resource's property document).
pub const SQL_ACCESS_PROPERTIES: &[PropertyName] = &[CIM_DESCRIPTION, NUMBER_OF_TABLES];

/// Extension properties of the SQLResponseDescription grouping.
pub const SQL_RESPONSE_PROPERTIES: &[PropertyName] = &[
    NUMBER_OF_SQL_ROWSETS,
    NUMBER_OF_SQL_UPDATE_COUNTS,
    NUMBER_OF_SQL_RETURN_VALUES,
    NUMBER_OF_SQL_OUTPUT_PARAMETERS,
];

/// Extension properties of the SQLRowsetDescription grouping.
pub const SQL_ROWSET_PROPERTIES: &[PropertyName] = &[NUMBER_OF_ROWS, ROW_SCHEMA];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{RowsetResource, SqlDataResource, SqlResponseResource};
    use dais_core::properties::ResourceManagementKind;
    use dais_core::{AbstractName, CoreProperties, DataResource};
    use dais_sql::parser::parse_statement;
    use dais_sql::Database;

    fn db() -> Database {
        let db = Database::new("x");
        db.execute_script("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);").unwrap();
        db
    }

    /// Every property the three WS-DAIR documents serve is a line of the
    /// inventory, from the core group or the document's own grouping.
    #[test]
    fn served_documents_hold_only_inventory_names() {
        let db = db();
        let props = |n: &str| {
            CoreProperties::new(
                AbstractName::new(n).unwrap(),
                ResourceManagementKind::ServiceManaged,
            )
        };
        let stmt = parse_statement("SELECT * FROM t").unwrap();
        let rowset = db.execute("SELECT * FROM t", &[]).unwrap().rowset().unwrap().clone();
        let documents = [
            (
                SqlDataResource::new(AbstractName::new("urn:d:db:0").unwrap(), db.clone())
                    .property_document(),
                SQL_ACCESS_PROPERTIES,
            ),
            (
                SqlResponseResource::create(props("urn:d:r:0"), &db, &stmt, &[])
                    .unwrap()
                    .property_document(),
                SQL_RESPONSE_PROPERTIES,
            ),
            (
                RowsetResource::new(props("urn:d:rs:0"), rowset).property_document(),
                SQL_ROWSET_PROPERTIES,
            ),
        ];
        for (doc, group) in documents {
            for child in doc.elements() {
                let name = PropertyName::of(&child.name)
                    .unwrap_or_else(|| panic!("{} is not in the inventory", child.name));
                assert!(
                    CORE_PROPERTIES.contains(&name) || group.contains(&name),
                    "{name:?} is outside this document's groups"
                );
            }
        }
    }

    #[test]
    fn database_document_carries_core_and_access_groups() {
        let r = SqlDataResource::new(AbstractName::new("urn:d:db:0").unwrap(), db());
        let doc = r.property_document();
        for p in CORE_PROPERTIES {
            assert!(p.find_in(&doc).is_some(), "missing core property {p:?}");
        }
        for p in SQL_ACCESS_PROPERTIES {
            assert!(p.find_in(&doc).is_some(), "missing SQL access property {p:?}");
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
            assert!(p.find_in(&doc).is_some(), "missing response property {p:?}");
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
            assert!(p.find_in(&doc).is_some(), "missing rowset property {p:?}");
        }
    }
}
