//! # dais-cim
//!
//! A CIM-style XML rendering of relational metadata.
//!
//! The paper (§2.3, §4.2) describes the DAIS-WG working with the DMTF to
//! "extend the coverage of the CIM database model to include relational
//! metadata from the SQL standard", with an XML rendering used for the
//! WS-DAIR `CIMDescription` property. The DMTF deliverable never shipped
//! in the paper's timeframe; this crate implements the obvious shape of
//! that rendering over the `dais-sql` catalog: `CIM_Database` containing
//! `CIM_Table`s with `CIM_Column`s (type, nullability, defaults),
//! `CIM_UniqueConstraint`s (primary keys and unique columns),
//! `CIM_ForeignKey`s and `CIM_Index`es.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use dais_sql::Database;
use dais_xml::{ns, XmlElement};

/// Render the full CIM description of a database's catalog.
///
/// The output is deterministic: tables sorted by name, columns in
/// declaration order.
pub fn cim_description(db: &Database) -> XmlElement {
    let mut root = XmlElement::new(ns::CIM, "cim", "CIM_Database").with_attr("Name", db.name());
    db.with_storage(|storage| {
        let mut names = storage.table_names();
        names.sort();
        for name in names {
            if let Ok(table) = storage.table(&name) {
                root.push(render_table(table));
            }
        }
    });
    root
}

fn render_table(table: &dais_sql::storage::Table) -> XmlElement {
    let schema = &table.schema;
    let mut t = XmlElement::new(ns::CIM, "cim", "CIM_Table").with_attr("Name", &schema.name);
    for (i, c) in schema.columns.iter().enumerate() {
        let mut col = XmlElement::new(ns::CIM, "cim", "CIM_Column")
            .with_attr("Name", &c.name)
            .with_attr("DataType", c.ty.name())
            .with_attr("Nullable", (!c.not_null).to_string())
            .with_attr("OrdinalPosition", (i + 1).to_string());
        if let Some(d) = &c.default {
            col.set_attr("DefaultValue", d.to_display_string());
        }
        t.push(col);
    }
    if !schema.primary_key.is_empty() {
        let mut pk = XmlElement::new(ns::CIM, "cim", "CIM_UniqueConstraint")
            .with_attr("Name", format!("pk_{}", schema.name))
            .with_attr("PrimaryKey", "true");
        for &i in &schema.primary_key {
            pk.push(
                XmlElement::new(ns::CIM, "cim", "CIM_ColumnRef")
                    .with_attr("Name", &schema.columns[i].name),
            );
        }
        t.push(pk);
    }
    for (i, c) in schema.columns.iter().enumerate() {
        if c.unique && !schema.primary_key.contains(&i) {
            t.push(
                XmlElement::new(ns::CIM, "cim", "CIM_UniqueConstraint")
                    .with_attr("Name", format!("uq_{}_{}", schema.name, c.name))
                    .with_attr("PrimaryKey", "false")
                    .with_child(
                        XmlElement::new(ns::CIM, "cim", "CIM_ColumnRef").with_attr("Name", &c.name),
                    ),
            );
        }
        if let Some((ftable, fcolumn)) = &c.references {
            t.push(
                XmlElement::new(ns::CIM, "cim", "CIM_ForeignKey")
                    .with_attr("Name", format!("fk_{}_{}", schema.name, c.name))
                    .with_attr("Column", &c.name)
                    .with_attr("ReferencedTable", ftable)
                    .with_attr("ReferencedColumn", fcolumn),
            );
        }
    }
    for idx in &schema.indexes {
        t.push(
            XmlElement::new(ns::CIM, "cim", "CIM_Index")
                .with_attr("Name", &idx.name)
                .with_attr("Column", &schema.columns[idx.column].name)
                .with_attr("Unique", idx.unique.to_string()),
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let db = Database::new("orders_db");
        db.execute_script(
            "CREATE TABLE dept (id INTEGER PRIMARY KEY, name VARCHAR NOT NULL UNIQUE);
             CREATE TABLE emp (
                 id INTEGER PRIMARY KEY,
                 name VARCHAR NOT NULL,
                 salary DOUBLE DEFAULT 1.5,
                 dept_id INTEGER REFERENCES dept (id)
             );
             CREATE INDEX i_dept ON emp (dept_id);",
        )
        .unwrap();
        db
    }

    #[test]
    fn renders_database_and_tables() {
        let doc = cim_description(&db());
        assert!(doc.name.is(ns::CIM, "CIM_Database"));
        assert_eq!(doc.attribute("Name"), Some("orders_db"));
        let tables: Vec<&str> =
            doc.children_named(ns::CIM, "CIM_Table").filter_map(|t| t.attribute("Name")).collect();
        assert_eq!(tables, vec!["dept", "emp"]); // sorted
    }

    #[test]
    fn renders_columns_with_metadata() {
        let doc = cim_description(&db());
        let emp = doc
            .children_named(ns::CIM, "CIM_Table")
            .find(|t| t.attribute("Name") == Some("emp"))
            .unwrap();
        let cols: Vec<&XmlElement> = emp.children_named(ns::CIM, "CIM_Column").collect();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].attribute("Name"), Some("id"));
        assert_eq!(cols[0].attribute("Nullable"), Some("false"));
        assert_eq!(cols[2].attribute("DataType"), Some("DOUBLE"));
        assert_eq!(cols[2].attribute("DefaultValue"), Some("1.5"));
        assert_eq!(cols[3].attribute("OrdinalPosition"), Some("4"));
    }

    #[test]
    fn renders_constraints_and_indexes() {
        let doc = cim_description(&db());
        let emp = doc
            .children_named(ns::CIM, "CIM_Table")
            .find(|t| t.attribute("Name") == Some("emp"))
            .unwrap();
        let pk = emp
            .children_named(ns::CIM, "CIM_UniqueConstraint")
            .find(|c| c.attribute("PrimaryKey") == Some("true"))
            .unwrap();
        assert_eq!(pk.child(ns::CIM, "CIM_ColumnRef").unwrap().attribute("Name"), Some("id"));

        let fk = emp.child(ns::CIM, "CIM_ForeignKey").unwrap();
        assert_eq!(fk.attribute("ReferencedTable"), Some("dept"));
        assert_eq!(fk.attribute("ReferencedColumn"), Some("id"));

        let idx = emp.child(ns::CIM, "CIM_Index").unwrap();
        assert_eq!(idx.attribute("Name"), Some("i_dept"));
        assert_eq!(idx.attribute("Unique"), Some("false"));

        let dept = doc
            .children_named(ns::CIM, "CIM_Table")
            .find(|t| t.attribute("Name") == Some("dept"))
            .unwrap();
        let uq = dept
            .children_named(ns::CIM, "CIM_UniqueConstraint")
            .find(|c| c.attribute("PrimaryKey") == Some("false"))
            .unwrap();
        assert_eq!(uq.child(ns::CIM, "CIM_ColumnRef").unwrap().attribute("Name"), Some("name"));
    }

    #[test]
    fn output_parses_back() {
        let text = dais_xml::to_string(&cim_description(&db()));
        let parsed = dais_xml::parse(&text).unwrap();
        assert_eq!(parsed.children_named(ns::CIM, "CIM_Table").count(), 2);
    }

    #[test]
    fn empty_database_renders_empty_description() {
        let doc = cim_description(&Database::new("empty"));
        assert_eq!(doc.elements().count(), 0);
    }
}
