//! Query results and execution-accuracy comparison.
//!
//! The paper's downstream metric is **execution accuracy (EX)**: a
//! predicted query is correct iff its execution result matches the gold
//! query's result on the same database (§4.2, after BIRD/Spider). The
//! comparison used by those benchmarks is *set-valued*: row order is
//! ignored unless the gold query itself orders its output, and float
//! values are compared with tolerance. [`results_match`] implements
//! exactly that.

use crate::exec::execute_sql;
use crate::schema::Database;
use crate::value::{RowKey, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The output of a query: column names plus rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// Whether the producing query had an ORDER BY (order is semantic).
    pub ordered: bool,
}

impl QueryResult {
    pub fn empty() -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            ordered: false,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Multiset of the rows under group-key equality, used for unordered
    /// comparison. The keys borrow the rows.
    fn multiset(&self) -> HashMap<RowKey<'_, Value>, usize> {
        let mut counts = HashMap::with_capacity(self.rows.len());
        for row in &self.rows {
            *counts.entry(RowKey(row.as_slice())).or_insert(0) += 1;
        }
        counts
    }
}

/// Do two results denote the same answer?
///
/// * Column *names* are ignored (benchmarks compare values only — the
///   gold query and a model query rarely agree on aliases).
/// * Arity must match.
/// * If `gold.ordered`, rows must match as a sequence; otherwise as a
///   multiset.
/// * Values compare via [`Value::group_key`], which buckets floats to
///   1e-9 so aggregate round-off does not flip EX.
pub fn results_match(gold: &QueryResult, pred: &QueryResult) -> bool {
    if gold.n_cols() != pred.n_cols() {
        return false;
    }
    if gold.rows.len() != pred.rows.len() {
        return false;
    }
    if gold.ordered {
        gold.rows
            .iter()
            .zip(&pred.rows)
            .all(|(g, p)| RowKey(g.as_slice()) == RowKey(p.as_slice()))
    } else {
        gold.multiset() == pred.multiset()
    }
}

/// Outcome of comparing a predicted SQL string against gold on a DB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecOutcome {
    /// Results matched.
    Correct,
    /// Both executed; results differ.
    WrongResult,
    /// Predicted query failed to parse/bind/execute.
    PredictionError,
    /// The *gold* query failed — a workload bug, surfaced loudly.
    GoldError,
}

impl ExecOutcome {
    pub fn is_correct(self) -> bool {
        self == ExecOutcome::Correct
    }
}

/// Execute gold and predicted SQL and compare (the EX primitive).
///
/// A prediction spelled exactly like the gold query executes once:
/// execution is deterministic and [`results_match`] is reflexive (its
/// keys are integers, bit patterns and text, so even a NaN matches
/// itself), so the second execution could only repeat the first.
pub fn execution_accuracy(db: &Database, gold_sql: &str, pred_sql: &str) -> ExecOutcome {
    let gold = match execute_sql(db, gold_sql) {
        Ok(r) => r,
        Err(_) => return ExecOutcome::GoldError,
    };
    if pred_sql == gold_sql {
        return ExecOutcome::Correct;
    }
    let pred = match execute_sql(db, pred_sql) {
        Ok(r) => r,
        Err(_) => return ExecOutcome::PredictionError,
    };
    if results_match(&gold, &pred) {
        ExecOutcome::Correct
    } else {
        ExecOutcome::WrongResult
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("t")
                .column(ColumnDef::new("id", DataType::Int).primary_key())
                .column(ColumnDef::new("grp", DataType::Text))
                .column(ColumnDef::new("x", DataType::Float)),
        )
        .unwrap();
        for (id, g, x) in [(1, "a", 1.5), (2, "a", 2.5), (3, "b", 10.0)] {
            db.insert("t", vec![Value::Int(id), Value::text(g), Value::Float(x)])
                .unwrap();
        }
        db
    }

    fn qr(rows: Vec<Vec<Value>>, ordered: bool) -> QueryResult {
        QueryResult {
            columns: vec!["c".into(); rows.first().map_or(0, |r| r.len())],
            rows,
            ordered,
        }
    }

    #[test]
    fn unordered_match_ignores_row_order() {
        let a = qr(vec![vec![Value::Int(1)], vec![Value::Int(2)]], false);
        let b = qr(vec![vec![Value::Int(2)], vec![Value::Int(1)]], false);
        assert!(results_match(&a, &b));
    }

    #[test]
    fn ordered_match_requires_sequence() {
        let a = qr(vec![vec![Value::Int(1)], vec![Value::Int(2)]], true);
        let b = qr(vec![vec![Value::Int(2)], vec![Value::Int(1)]], true);
        assert!(!results_match(&a, &b));
    }

    #[test]
    fn multiset_counts_duplicates() {
        let a = qr(vec![vec![Value::Int(1)], vec![Value::Int(1)]], false);
        let b = qr(vec![vec![Value::Int(1)]], false);
        assert!(!results_match(&a, &b), "row counts differ");
    }

    #[test]
    fn arity_mismatch_fails() {
        let a = qr(vec![vec![Value::Int(1), Value::Int(2)]], false);
        let b = qr(vec![vec![Value::Int(1)]], false);
        assert!(!results_match(&a, &b));
    }

    #[test]
    fn float_tolerance() {
        let a = qr(vec![vec![Value::Float(0.1 + 0.2)]], false);
        let b = qr(vec![vec![Value::Float(0.3)]], false);
        assert!(results_match(&a, &b));
    }

    #[test]
    fn large_floats_do_not_collide() {
        // Scaled by 1e9 both overflow i64; they must still differ.
        let a = qr(vec![vec![Value::Float(1e10 + 0.5)]], false);
        let b = qr(vec![vec![Value::Float(2e10 + 0.5)]], false);
        assert!(!results_match(&a, &b));
        assert!(results_match(&a, &a.clone()));
    }

    #[test]
    fn int_float_unification() {
        let a = qr(vec![vec![Value::Int(3)]], false);
        let b = qr(vec![vec![Value::Float(3.0)]], false);
        assert!(results_match(&a, &b), "SUM(int) may come back float");
    }

    #[test]
    fn execution_accuracy_outcomes() {
        let db = db();
        assert_eq!(
            execution_accuracy(&db, "SELECT grp FROM t", "SELECT grp FROM t"),
            ExecOutcome::Correct
        );
        assert_eq!(
            execution_accuracy(&db, "SELECT grp FROM t", "SELECT grp FROM t WHERE x > 2"),
            ExecOutcome::WrongResult
        );
        assert_eq!(
            execution_accuracy(&db, "SELECT grp FROM t", "SELECT nope FROM t"),
            ExecOutcome::PredictionError
        );
        assert_eq!(
            execution_accuracy(&db, "SELECT nope FROM t", "SELECT grp FROM t"),
            ExecOutcome::GoldError
        );
    }

    #[test]
    fn equivalent_queries_match_despite_aliasing() {
        let db = db();
        assert_eq!(
            execution_accuracy(
                &db,
                "SELECT grp, SUM(x) FROM t GROUP BY grp",
                "SELECT grp, SUM(x) AS total FROM t GROUP BY grp"
            ),
            ExecOutcome::Correct
        );
    }

    #[test]
    fn ordered_gold_vs_reordered_prediction() {
        let db = db();
        // Gold orders ascending; predicted orders descending → EX fails.
        assert_eq!(
            execution_accuracy(
                &db,
                "SELECT id FROM t ORDER BY x",
                "SELECT id FROM t ORDER BY x DESC"
            ),
            ExecOutcome::WrongResult
        );
    }
}
