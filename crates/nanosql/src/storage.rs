//! Row storage.
//!
//! A table's data is a flat `Vec` of rows. The executor never copies
//! them while it runs: scans and joins carry row indices into these
//! vectors, output rows borrow their cells, and only a returned
//! `QueryResult` clones them; an EX check clones none. Datasets here
//! are thousands of rows, not billions, so simple beats clever:
//! contiguous rows, no pages, no indexes — a full scan *is* the access
//! path.

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Column-count-checked row container for one table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TableData {
    arity: usize,
    rows: Vec<Vec<Value>>,
}

impl TableData {
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            rows: Vec::new(),
        }
    }

    /// Append a row. Arity is validated by the catalog before calling;
    /// the debug assertion catches internal misuse.
    pub fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.rows.push(row);
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn arity(&self) -> usize {
        self.arity
    }

    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    pub fn iter(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iterate() {
        let mut t = TableData::new(2);
        t.push(vec![Value::Int(1), Value::text("a")]);
        t.push(vec![Value::Int(2), Value::text("b")]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.arity(), 2);
        let firsts: Vec<&Value> = t.iter().map(|r| &r[0]).collect();
        assert_eq!(firsts, vec![&Value::Int(1), &Value::Int(2)]);
    }

    #[test]
    fn empty_table() {
        let t = TableData::new(3);
        assert!(t.is_empty());
        assert_eq!(t.rows().len(), 0);
    }
}
