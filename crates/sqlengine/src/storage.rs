//! In-memory heap tables with primary-key and secondary index maintenance.

use crate::catalog::{IndexMeta, TableSchema};
use crate::error::{SqlError, SqlErrorKind};
use crate::value::{GroupKey, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// A stored row id. Monotonic per table; row ids are stable across updates
/// and reused only when a failed statement reinstates a deleted row.
pub type RowId = u64;

/// Row ids read off an index, in key order.
pub type IndexRows<'a> = Box<dyn DoubleEndedIterator<Item = RowId> + 'a>;

/// One table: schema, rows and index structures.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    rows: BTreeMap<RowId, Vec<Value>>,
    next_rowid: RowId,
    /// Primary key index (composite keys supported), ordered as
    /// `Value::total_cmp` orders the key values. Empty if no PK.
    pk_index: BTreeMap<Vec<GroupKey>, RowId>,
    /// Unique single-column indexes: ordinal → value-key → rowid.
    /// NULLs are not indexed (SQL: NULLs never conflict).
    unique_indexes: HashMap<usize, HashMap<GroupKey, RowId>>,
    /// Non-unique secondary indexes: ordinal → value-key → rowids.
    secondary_indexes: HashMap<usize, HashMap<GroupKey, Vec<RowId>>>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Table {
        let mut unique_indexes = HashMap::new();
        let mut secondary_indexes = HashMap::new();
        for (i, c) in schema.columns.iter().enumerate() {
            if c.unique && !schema.primary_key.contains(&i) {
                unique_indexes.insert(i, HashMap::new());
            }
        }
        for idx in &schema.indexes {
            if idx.unique {
                unique_indexes.entry(idx.column).or_default();
            } else {
                secondary_indexes.entry(idx.column).or_default();
            }
        }
        Table {
            schema,
            rows: BTreeMap::new(),
            next_rowid: 1,
            pk_index: BTreeMap::new(),
            unique_indexes,
            secondary_indexes,
        }
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Iterate rows in insertion (rowid) order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Vec<Value>)> {
        self.rows.iter().map(|(k, v)| (*k, v))
    }

    pub fn get(&self, rowid: RowId) -> Option<&Vec<Value>> {
        self.rows.get(&rowid)
    }

    /// The one index lookup: ids of the rows whose key in column
    /// `ordinal` lies between `lower` and `upper`. A single-column
    /// primary key answers any range, in key order; a unique or
    /// secondary index answers one key (`lower` and `upper` the same
    /// included key). `None` when no index on the column can answer.
    /// NULLs are never indexed, so never found.
    pub fn index_rows(
        &self,
        ordinal: usize,
        lower: Bound<GroupKey>,
        upper: Bound<GroupKey>,
    ) -> Option<IndexRows<'_>> {
        use Bound::{Excluded, Included};
        if self.schema.primary_key == [ordinal] {
            // `BTreeMap::range` panics on an inverted range.
            if let (Included(lo) | Excluded(lo), Included(hi) | Excluded(hi)) = (&lower, &upper) {
                if lo > hi || (lo == hi && matches!((&lower, &upper), (Excluded(_), Excluded(_)))) {
                    return Some(Box::new(std::iter::empty()));
                }
            }
            let range = (lower.map(|k| vec![k]), upper.map(|k| vec![k]));
            return Some(Box::new(self.pk_index.range(range).map(|(_, &id)| id)));
        }
        let (Included(key), Included(same)) = (&lower, &upper) else { return None };
        if key != same {
            return None;
        }
        if let Some(m) = self.unique_indexes.get(&ordinal) {
            return Some(Box::new(m.get(key).copied().into_iter()));
        }
        let ids = self.secondary_indexes.get(&ordinal)?.get(key);
        Some(Box::new(ids.into_iter().flatten().copied()))
    }

    /// Does any row hold `value` in column `ordinal`? (FK existence check.)
    pub fn contains_value(&self, ordinal: usize, value: &Value) -> bool {
        if value.is_null() {
            return false;
        }
        let key = value.group_key();
        match self.index_rows(ordinal, Bound::Included(key.clone()), Bound::Included(key)) {
            Some(mut ids) => ids.next().is_some(),
            None => self.rows.values().any(|r| r[ordinal] == *value),
        }
    }

    fn pk_key(&self, row: &[Value]) -> Option<Vec<GroupKey>> {
        if self.schema.primary_key.is_empty() {
            return None;
        }
        Some(self.schema.primary_key.iter().map(|&i| row[i].group_key()).collect())
    }

    /// Validate uniqueness of `row` against existing rows, ignoring
    /// `except` (used when updating a row in place).
    fn check_unique(&self, row: &[Value], except: Option<RowId>) -> Result<(), SqlError> {
        if let Some(key) = self.pk_key(row) {
            if self.schema.primary_key.iter().any(|&i| row[i].is_null()) {
                return Err(SqlError::new(
                    SqlErrorKind::NotNullViolation,
                    format!("primary key of table {} cannot be NULL", self.schema.name),
                ));
            }
            if let Some(&existing) = self.pk_index.get(&key) {
                if Some(existing) != except {
                    return Err(SqlError::new(
                        SqlErrorKind::UniqueViolation,
                        format!("duplicate primary key in table {}", self.schema.name),
                    ));
                }
            }
        }
        for (&ordinal, index) in &self.unique_indexes {
            if row[ordinal].is_null() {
                continue;
            }
            if let Some(&existing) = index.get(&row[ordinal].group_key()) {
                if Some(existing) != except {
                    return Err(SqlError::new(
                        SqlErrorKind::UniqueViolation,
                        format!(
                            "duplicate value for unique column {}.{}",
                            self.schema.name, self.schema.columns[ordinal].name
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    fn index_insert(&mut self, rowid: RowId, row: &[Value]) {
        if let Some(key) = self.pk_key(row) {
            self.pk_index.insert(key, rowid);
        }
        for (&ordinal, index) in &mut self.unique_indexes {
            if !row[ordinal].is_null() {
                index.insert(row[ordinal].group_key(), rowid);
            }
        }
        for (&ordinal, index) in &mut self.secondary_indexes {
            if !row[ordinal].is_null() {
                index.entry(row[ordinal].group_key()).or_default().push(rowid);
            }
        }
    }

    fn index_remove(&mut self, rowid: RowId, row: &[Value]) {
        if let Some(key) = self.pk_key(row) {
            self.pk_index.remove(&key);
        }
        for (&ordinal, index) in &mut self.unique_indexes {
            if !row[ordinal].is_null() {
                index.remove(&row[ordinal].group_key());
            }
        }
        for (&ordinal, index) in &mut self.secondary_indexes {
            if !row[ordinal].is_null() {
                if let Some(ids) = index.get_mut(&row[ordinal].group_key()) {
                    ids.retain(|&id| id != rowid);
                }
            }
        }
    }

    /// Insert a fully-typed row (constraint checks for uniqueness happen
    /// here; NOT NULL / CHECK / FK are the executor's responsibility).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, SqlError> {
        debug_assert_eq!(row.len(), self.schema.columns.len());
        self.check_unique(&row, None)?;
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.index_insert(rowid, &row);
        self.rows.insert(rowid, row);
        Ok(rowid)
    }

    /// Reinstate a previously deleted row at its old id (rollback path).
    pub fn reinsert(&mut self, rowid: RowId, row: Vec<Value>) {
        self.index_insert(rowid, &row);
        self.rows.insert(rowid, row);
        self.next_rowid = self.next_rowid.max(rowid + 1);
    }

    /// Delete a row, returning its values.
    pub fn delete(&mut self, rowid: RowId) -> Option<Vec<Value>> {
        let row = self.rows.remove(&rowid)?;
        self.index_remove(rowid, &row);
        Some(row)
    }

    /// Replace a row in place, returning the old values.
    pub fn update(&mut self, rowid: RowId, new_row: Vec<Value>) -> Result<Vec<Value>, SqlError> {
        debug_assert_eq!(new_row.len(), self.schema.columns.len());
        let Some(old) = self.rows.get(&rowid).cloned() else {
            return Err(SqlError::new(SqlErrorKind::InvalidParameter, "no such row"));
        };
        self.check_unique(&new_row, Some(rowid))?;
        self.index_remove(rowid, &old);
        self.index_insert(rowid, &new_row);
        self.rows.insert(rowid, new_row);
        Ok(old)
    }

    /// Add a secondary index over existing data.
    pub fn create_index(&mut self, meta: IndexMeta) -> Result<(), SqlError> {
        if meta.unique {
            let mut index: HashMap<GroupKey, RowId> = HashMap::new();
            for (rowid, row) in &self.rows {
                if row[meta.column].is_null() {
                    continue;
                }
                if index.insert(row[meta.column].group_key(), *rowid).is_some() {
                    return Err(SqlError::new(
                        SqlErrorKind::UniqueViolation,
                        format!("cannot create unique index {}: duplicate values exist", meta.name),
                    ));
                }
            }
            self.unique_indexes.insert(meta.column, index);
        } else {
            let mut index: HashMap<GroupKey, Vec<RowId>> = HashMap::new();
            for (rowid, row) in &self.rows {
                if !row[meta.column].is_null() {
                    index.entry(row[meta.column].group_key()).or_default().push(*rowid);
                }
            }
            self.secondary_indexes.insert(meta.column, index);
        }
        self.schema.indexes.push(meta);
        Ok(())
    }
}

/// All tables of one database, keyed by lower-cased name.
#[derive(Debug, Default, Clone)]
pub struct Storage {
    tables: HashMap<String, Table>,
}

impl Storage {
    pub fn new() -> Storage {
        Storage::default()
    }

    pub fn table(&self, name: &str) -> Result<&Table, SqlError> {
        self.tables.get(&name.to_ascii_lowercase()).ok_or_else(|| {
            SqlError::new(SqlErrorKind::UndefinedTable, format!("no such table: {name}"))
        })
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, SqlError> {
        self.tables.get_mut(&name.to_ascii_lowercase()).ok_or_else(|| {
            SqlError::new(SqlErrorKind::UndefinedTable, format!("no such table: {name}"))
        })
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    pub fn add_table(&mut self, table: Table) -> Result<(), SqlError> {
        let key = table.schema.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::new(
                SqlErrorKind::DuplicateTable,
                format!("table {} already exists", table.schema.name),
            ));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    pub fn remove_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(&name.to_ascii_lowercase())
    }

    /// Table names, sorted (stable metadata output).
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.values().map(|t| t.schema.name.clone()).collect();
        v.sort();
        v
    }

    /// All tables (for FK reverse checks and metadata export).
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnMeta;
    use crate::value::SqlType;

    fn schema() -> TableSchema {
        TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnMeta {
                    name: "id".into(),
                    ty: SqlType::Integer,
                    not_null: true,
                    unique: false,
                    default: None,
                    references: None,
                },
                ColumnMeta {
                    name: "email".into(),
                    ty: SqlType::Varchar,
                    not_null: false,
                    unique: true,
                    default: None,
                    references: None,
                },
            ],
            primary_key: vec![0],
            checks: Vec::new(),
            indexes: Vec::new(),
        }
    }

    fn row(id: i64, email: Option<&str>) -> Vec<Value> {
        vec![Value::Int(id), email.map(|e| Value::Str(e.into())).unwrap_or(Value::Null)]
    }

    /// Equality through [`Table::index_rows`].
    fn lookup(t: &Table, ordinal: usize, value: Value) -> Option<Vec<RowId>> {
        let key = value.group_key();
        Some(t.index_rows(ordinal, Bound::Included(key.clone()), Bound::Included(key))?.collect())
    }

    fn pk(t: &Table, id: i64) -> Option<RowId> {
        lookup(t, 0, Value::Int(id)).unwrap().first().copied()
    }

    #[test]
    fn insert_scan_get() {
        let mut t = Table::new(schema());
        let r1 = t.insert(row(1, Some("a@x"))).unwrap();
        let r2 = t.insert(row(2, Some("b@x"))).unwrap();
        assert_ne!(r1, r2);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(r1).unwrap()[0], Value::Int(1));
        let ids: Vec<RowId> = t.scan().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![r1, r2]);
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = Table::new(schema());
        t.insert(row(1, None)).unwrap();
        let err = t.insert(row(1, None)).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::UniqueViolation);
        let err = t.insert(vec![Value::Null, Value::Null]).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::NotNullViolation);
    }

    #[test]
    fn unique_column_allows_multiple_nulls() {
        let mut t = Table::new(schema());
        t.insert(row(1, None)).unwrap();
        t.insert(row(2, None)).unwrap();
        t.insert(row(3, Some("x@x"))).unwrap();
        let err = t.insert(row(4, Some("x@x"))).unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::UniqueViolation);
    }

    #[test]
    fn pk_lookup() {
        let mut t = Table::new(schema());
        t.insert(row(7, None)).unwrap();
        let rid = pk(&t, 7).unwrap();
        assert_eq!(t.get(rid).unwrap()[0], Value::Int(7));
        assert_eq!(lookup(&t, 0, Value::Double(7.0)), Some(vec![rid]));
        assert!(pk(&t, 8).is_none());
        t.delete(rid).unwrap();
        assert!(pk(&t, 7).is_none());
    }

    /// The primary key walks in key order — exactly, past 2^53 — over
    /// any range, and an inverted or empty range is empty, not a panic.
    #[test]
    fn pk_range_walks_in_key_order() {
        use Bound::{Excluded, Included, Unbounded};
        let mut t = Table::new(schema());
        let two53 = 1_i64 << 53;
        for id in [two53 + 1, 5, -3, two53, 9] {
            t.insert(row(id, None)).unwrap();
        }
        let ids = |lo: Bound<GroupKey>, hi: Bound<GroupKey>| -> Vec<Value> {
            let walk = t.index_rows(0, lo, hi).unwrap();
            walk.map(|id| t.get(id).unwrap()[0].clone()).collect()
        };
        let k = |v: Value| v.group_key();
        let all: Vec<Value> = [-3, 5, 9, two53, two53 + 1].map(Value::Int).into();
        assert_eq!(ids(Unbounded, Unbounded), all);
        assert_eq!(ids(Excluded(k(Value::Double(4.5))), Included(k(Value::Int(9)))), all[1..3]);
        assert_eq!(ids(Included(k(Value::Int(two53 + 1))), Unbounded), all[4..]);
        assert_eq!(ids(Excluded(k(Value::Int(9))), Excluded(k(Value::Int(9)))), []);
        assert_eq!(ids(Included(k(Value::Int(10))), Included(k(Value::Int(2)))), []);
        // Hash indexes answer equality only.
        assert!(t.index_rows(1, Unbounded, Unbounded).is_none());
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(1, Some("old@x"))).unwrap();
        t.insert(row(2, Some("other@x"))).unwrap();
        let old = t.update(rid, row(1, Some("new@x"))).unwrap();
        assert_eq!(old[1], Value::Str("old@x".into()));
        // old email is free again
        t.insert(row(3, Some("old@x"))).unwrap();
        // but the new one conflicts
        assert!(t.insert(row(4, Some("new@x"))).is_err());
        // updating into an existing unique value fails
        let rid2 = pk(&t, 2).unwrap();
        assert!(t.update(rid2, row(2, Some("new@x"))).is_err());
        // updating a row to keep its own value is fine
        t.update(rid, row(1, Some("new@x"))).unwrap();
    }

    #[test]
    fn delete_and_reinsert_roundtrip() {
        let mut t = Table::new(schema());
        let rid = t.insert(row(1, Some("a@x"))).unwrap();
        let removed = t.delete(rid).unwrap();
        assert_eq!(t.row_count(), 0);
        t.reinsert(rid, removed);
        assert_eq!(t.row_count(), 1);
        assert_eq!(pk(&t, 1), Some(rid));
        assert_eq!(lookup(&t, 1, Value::Str("a@x".into())), Some(vec![rid]));
        assert!(t.delete(999).is_none());
    }

    #[test]
    fn secondary_index_lookup() {
        let mut s2 = schema();
        s2.columns[1].unique = false; // duplicates expected below
        let mut t = Table::new(s2);
        for i in 0..10 {
            t.insert(row(i, Some(&format!("u{}@x", i % 3)))).unwrap();
        }
        assert!(lookup(&t, 1, Value::Str("u0@x".into())).is_none());
        t.create_index(IndexMeta { name: "i_email".into(), column: 1, unique: false }).unwrap();
        let hits = lookup(&t, 1, Value::Str("u0@x".into())).unwrap();
        assert_eq!(hits.len(), 4); // 0,3,6,9
        assert_eq!(lookup(&t, 1, Value::Str("nope".into())), Some(vec![]));
    }

    #[test]
    fn unique_index_creation_detects_duplicates() {
        let mut s2 = schema();
        s2.columns[1].unique = false;
        let mut t = Table::new(s2);
        t.insert(row(1, Some("dup@x"))).unwrap();
        t.insert(row(2, Some("dup@x"))).unwrap();
        let err = t
            .create_index(IndexMeta { name: "u_email".into(), column: 1, unique: true })
            .unwrap_err();
        assert_eq!(err.kind, SqlErrorKind::UniqueViolation);
    }

    #[test]
    fn storage_table_management() {
        let mut s = Storage::new();
        s.add_table(Table::new(schema())).unwrap();
        assert!(s.has_table("T")); // case-insensitive
        assert!(s.table("t").is_ok());
        assert!(s.add_table(Table::new(schema())).is_err());
        assert_eq!(s.table_names(), vec!["t"]);
        assert!(s.remove_table("t").is_some());
        assert!(s.table("t").is_err());
    }

    #[test]
    fn contains_value_for_fk_checks() {
        let mut t = Table::new(schema());
        t.insert(row(5, None)).unwrap();
        assert!(t.contains_value(0, &Value::Int(5)));
        assert!(!t.contains_value(0, &Value::Int(6)));
        assert!(!t.contains_value(0, &Value::Null));
    }
}
