//! # nanosql — a small in-memory relational engine
//!
//! The RTS paper measures text-to-SQL systems by **execution accuracy
//! (EX)**: run the predicted SQL and the gold SQL against the database
//! and compare result sets. Reproducing that requires an actual SQL
//! engine; `nanosql` is that engine, built from scratch:
//!
//! * typed [`value::Value`]s with SQL three-valued NULL semantics,
//! * a catalog of tables/columns/foreign keys ([`schema`]) with
//!   BIRD-style per-column natural-language descriptions (the metadata
//!   the paper's Figure 1(b) shows being *missing* when linking fails),
//! * row storage ([`storage`]),
//! * a SQL AST ([`ast`]) with pretty-printing,
//! * a recursive-descent parser ([`parser`]) for the emitted dialect
//!   (`SELECT [DISTINCT] … FROM … [JOIN … ON …] [WHERE …] [GROUP BY …]
//!   [HAVING …] [ORDER BY …] [LIMIT n]`),
//! * a name-resolving planner ([`plan`]) and an executor that borrows
//!   the stored rows and copies only the output cells ([`exec`]),
//! * multiset result comparison for EX ([`result`]).
//!
//! ```
//! use nanosql::{Database, exec::execute_sql};
//! use nanosql::schema::{TableSchema, ColumnDef, DataType};
//! use nanosql::value::Value;
//!
//! let mut db = Database::new("demo");
//! db.create_table(
//!     TableSchema::new("races")
//!         .column(ColumnDef::new("raceId", DataType::Int).primary_key())
//!         .column(ColumnDef::new("name", DataType::Text)),
//! ).unwrap();
//! db.insert("races", vec![Value::Int(1), Value::text("Monaco GP")]).unwrap();
//! db.insert("races", vec![Value::Int(2), Value::text("Suzuka GP")]).unwrap();
//!
//! let result = execute_sql(&db, "SELECT name FROM races WHERE raceId = 2").unwrap();
//! assert_eq!(result.rows[0][0], Value::text("Suzuka GP"));
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod result;
pub mod schema;
pub mod storage;
pub mod value;

pub use error::{Error, Result};
pub use result::QueryResult;
pub use schema::{ColumnDef, DataType, Database, TableSchema};
pub use value::Value;
