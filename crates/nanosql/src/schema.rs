//! Catalog: databases, tables, columns, foreign keys.
//!
//! Besides the relational essentials, the catalog carries the metadata
//! the RTS paper's schema-linking story revolves around: per-column
//! natural-language **descriptions** (which BIRD provides and whose
//! absence causes the Figure 1(b) failures) and a DDL pretty-printer,
//! since RTS presents schemas to users "in a DDL format" (§4.3, user
//! study discussion).

use crate::error::{Error, Result};
use crate::storage::TableData;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Column data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
}

impl DataType {
    /// SQL spelling used by the DDL printer.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Int => "INTEGER",
            DataType::Float => "REAL",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOLEAN",
        }
    }

    /// Does `v` inhabit this type? NULL inhabits every type; ints are
    /// accepted where floats are expected (SQL numeric widening).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Float, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }
}

/// A column definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub primary_key: bool,
    /// BIRD-style natural-language description ("type of education
    /// offered" for `EdOps`). Empty = missing metadata, the failure mode
    /// of Figure 1(b).
    pub description: String,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        Self {
            name: name.into(),
            ty,
            primary_key: false,
            description: String::new(),
        }
    }

    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self
    }

    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }
}

/// A foreign-key edge `from_table.from_column → to_table.to_column`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    pub from_table: String,
    pub from_column: String,
    pub to_table: String,
    pub to_column: String,
}

/// A table schema (no data; see [`crate::storage::TableData`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Optional one-line table description.
    pub description: String,
}

impl TableSchema {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            columns: Vec::new(),
            description: String::new(),
        }
    }

    /// Builder-style column append.
    pub fn column(mut self, col: ColumnDef) -> Self {
        self.columns.push(col);
        self
    }

    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.description = d.into();
        self
    }

    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Render as `CREATE TABLE` DDL, with descriptions as trailing `--`
    /// comments when present (the format RTS shows to humans).
    pub fn to_ddl(&self) -> String {
        let mut out = format!("CREATE TABLE {} (\n", self.name);
        for (i, col) in self.columns.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&col.name);
            out.push(' ');
            out.push_str(col.ty.sql_name());
            if col.primary_key {
                out.push_str(" PRIMARY KEY");
            }
            if i + 1 < self.columns.len() {
                out.push(',');
            }
            if !col.description.is_empty() {
                out.push_str(" -- ");
                out.push_str(&col.description);
            }
            out.push('\n');
        }
        out.push_str(");");
        out
    }
}

/// An in-memory database: schemas, foreign keys, and row data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    tables: Vec<TableSchema>,
    data: Vec<TableData>,
    foreign_keys: Vec<ForeignKey>,
    /// Domain tag (e.g. "formula_1", "california_schools") used by the
    /// workload generator and reporting.
    pub domain: String,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tables: Vec::new(),
            data: Vec::new(),
            foreign_keys: Vec::new(),
            domain: String::new(),
        }
    }

    /// Register a table. Fails on duplicate names or empty column lists.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if schema.columns.is_empty() {
            return Err(Error::Catalog(format!(
                "table {} has no columns",
                schema.name
            )));
        }
        if self.table(&schema.name).is_some() {
            return Err(Error::Catalog(format!("duplicate table {}", schema.name)));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &schema.columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(Error::Catalog(format!(
                    "duplicate column {} in table {}",
                    c.name, schema.name
                )));
            }
        }
        self.data.push(TableData::new(schema.columns.len()));
        self.tables.push(schema);
        Ok(())
    }

    /// Declare a foreign key; both endpoints must exist.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let from = self
            .table(&fk.from_table)
            .ok_or_else(|| Error::UnknownTable(fk.from_table.clone()))?;
        if from.column_index(&fk.from_column).is_none() {
            return Err(Error::UnknownColumn(format!(
                "{}.{}",
                fk.from_table, fk.from_column
            )));
        }
        let to = self
            .table(&fk.to_table)
            .ok_or_else(|| Error::UnknownTable(fk.to_table.clone()))?;
        if to.column_index(&fk.to_column).is_none() {
            return Err(Error::UnknownColumn(format!(
                "{}.{}",
                fk.to_table, fk.to_column
            )));
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// Insert one row (type-checked against the schema).
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        let idx = self
            .table_index(table)
            .ok_or_else(|| Error::UnknownTable(table.to_string()))?;
        let schema = &self.tables[idx];
        if row.len() != schema.columns.len() {
            return Err(Error::Catalog(format!(
                "arity mismatch inserting into {}: got {}, want {}",
                table,
                row.len(),
                schema.columns.len()
            )));
        }
        for (v, c) in row.iter().zip(&schema.columns) {
            if !c.ty.admits(v) {
                return Err(Error::Type(format!(
                    "value {v} does not fit column {}.{} of type {}",
                    table,
                    c.name,
                    c.ty.sql_name()
                )));
            }
        }
        self.data[idx].push(row);
        Ok(())
    }

    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables
            .iter()
            .position(|t| t.name.eq_ignore_ascii_case(name))
    }

    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.table_index(name).map(|i| &self.tables[i])
    }

    pub fn table_data(&self, name: &str) -> Option<&TableData> {
        self.table_index(name).map(|i| &self.data[i])
    }

    /// The rows of the table at catalog index `idx`.
    pub(crate) fn table_data_at(&self, idx: usize) -> &TableData {
        &self.data[idx]
    }

    pub fn tables(&self) -> &[TableSchema] {
        &self.tables
    }

    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Foreign keys touching `table` (either direction).
    pub fn foreign_keys_of<'a>(
        &'a self,
        table: &'a str,
    ) -> impl Iterator<Item = &'a ForeignKey> + 'a {
        self.foreign_keys.iter().filter(move |fk| {
            fk.from_table.eq_ignore_ascii_case(table) || fk.to_table.eq_ignore_ascii_case(table)
        })
    }

    /// Total row count across tables.
    pub fn total_rows(&self) -> usize {
        self.data.iter().map(|d| d.len()).sum()
    }

    /// Full-schema DDL dump (every table).
    pub fn to_ddl(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.to_ddl());
            out.push('\n');
        }
        for fk in &self.foreign_keys {
            out.push_str(&format!(
                "-- FOREIGN KEY {}.{} REFERENCES {}.{}\n",
                fk.from_table, fk.from_column, fk.to_table, fk.to_column
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_db() -> Database {
        let mut db = Database::new("f1");
        db.create_table(
            TableSchema::new("races")
                .column(ColumnDef::new("raceId", DataType::Int).primary_key())
                .column(ColumnDef::new("name", DataType::Text).description("race name")),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("lapTimes")
                .column(ColumnDef::new("raceId", DataType::Int))
                .column(ColumnDef::new("lap", DataType::Int))
                .column(ColumnDef::new("time", DataType::Float)),
        )
        .unwrap();
        db.add_foreign_key(ForeignKey {
            from_table: "lapTimes".into(),
            from_column: "raceId".into(),
            to_table: "races".into(),
            to_column: "raceId".into(),
        })
        .unwrap();
        db
    }

    #[test]
    fn create_and_lookup() {
        let db = demo_db();
        assert!(db.table("races").is_some());
        assert!(db.table("RACES").is_some(), "lookup is case-insensitive");
        assert!(db.table("pitstops").is_none());
        assert_eq!(db.table("lapTimes").unwrap().columns.len(), 3);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = demo_db();
        let err = db
            .create_table(TableSchema::new("races").column(ColumnDef::new("x", DataType::Int)))
            .unwrap_err();
        assert!(matches!(err, Error::Catalog(_)));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut db = Database::new("d");
        let err = db
            .create_table(
                TableSchema::new("t")
                    .column(ColumnDef::new("a", DataType::Int))
                    .column(ColumnDef::new("A", DataType::Text)),
            )
            .unwrap_err();
        assert!(matches!(err, Error::Catalog(_)));
    }

    #[test]
    fn insert_type_checked() {
        let mut db = demo_db();
        db.insert("races", vec![Value::Int(1), Value::text("Monaco")])
            .unwrap();
        let err = db
            .insert("races", vec![Value::text("oops"), Value::text("x")])
            .unwrap_err();
        assert!(matches!(err, Error::Type(_)));
        let err = db.insert("races", vec![Value::Int(2)]).unwrap_err();
        assert!(matches!(err, Error::Catalog(_)));
        // Int widens into Float column.
        db.insert(
            "lapTimes",
            vec![Value::Int(1), Value::Int(1), Value::Int(90)],
        )
        .unwrap();
        // NULL fits everywhere.
        db.insert("lapTimes", vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        assert_eq!(db.total_rows(), 3);
    }

    #[test]
    fn foreign_key_endpoints_validated() {
        let mut db = demo_db();
        let err = db
            .add_foreign_key(ForeignKey {
                from_table: "lapTimes".into(),
                from_column: "nope".into(),
                to_table: "races".into(),
                to_column: "raceId".into(),
            })
            .unwrap_err();
        assert!(matches!(err, Error::UnknownColumn(_)));
        assert_eq!(db.foreign_keys_of("races").count(), 1);
    }

    #[test]
    fn ddl_rendering_includes_descriptions() {
        let db = demo_db();
        let ddl = db.table("races").unwrap().to_ddl();
        assert!(ddl.contains("CREATE TABLE races"));
        assert!(ddl.contains("raceId INTEGER PRIMARY KEY"));
        assert!(ddl.contains("-- race name"));
        let full = db.to_ddl();
        assert!(full.contains("FOREIGN KEY lapTimes.raceId REFERENCES races.raceId"));
    }
}
