//! Query results and execution-accuracy comparison.
//!
//! The paper's downstream metric is **execution accuracy (EX)**: a
//! predicted query is correct iff its execution result matches the gold
//! query's result on the same database (§4.2, after BIRD/Spider). The
//! comparison used by those benchmarks is *set-valued*: row order is
//! ignored unless the gold query itself orders its output, and float
//! values are compared with tolerance. [`results_match`] implements
//! exactly that.
//!
//! [`execution_accuracy`] applies the same rule in place: it compares
//! the executor's rows, which borrow the database's cells, and builds
//! no [`QueryResult`] and no column name. Its multiset comparison counts
//! the gold rows in an `Index` under the engine's one fixed hasher.

use crate::exec::rows;
use crate::index::{hash_row, rows_eq, Index};
use crate::parser::parse;
use crate::plan::{bind_unnamed, Plan};
use crate::schema::Database;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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
    gold.n_cols() == pred.n_cols()
        && rows_match(
            gold.ordered,
            gold.rows.iter().map(|r| r.as_slice()),
            pred.rows.iter().map(|r| r.as_slice()),
        )
}

/// The row half of [`results_match`], over rows of any cells that read
/// as values.
fn rows_match<'g, 'p, G, P>(
    ordered: bool,
    gold: impl ExactSizeIterator<Item = &'g [G]>,
    mut pred: impl ExactSizeIterator<Item = &'p [P]>,
) -> bool
where
    G: Borrow<Value> + 'g,
    P: Borrow<Value> + 'p,
{
    if gold.len() != pred.len() {
        return false;
    }
    // One row is a multiset of one.
    if ordered || gold.len() == 1 {
        return gold.zip(pred).all(|(g, p)| rows_eq(g, p));
    }
    // Count each distinct gold row, then take the predicted rows off.
    let mut index = Index::with_capacity(gold.len());
    let mut distinct: Vec<(&[G], usize)> = Vec::new();
    for g in gold {
        match index.find_or_insert(hash_row(g), |id| rows_eq(distinct[id].0, g)) {
            (_, true) => distinct.push((g, 1)),
            (id, false) => distinct[id].1 += 1,
        }
    }
    pred.all(
        |p| match index.find(hash_row(p), |id| rows_eq(distinct[id].0, p)) {
            Some(id) if distinct[id].1 > 0 => {
                distinct[id].1 -= 1;
                true
            }
            _ => false,
        },
    )
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

/// Execute gold and predicted SQL and compare (the EX primitive), by
/// [`results_match`]'s rule, without materialising either result.
///
/// A prediction spelled exactly like the gold query executes once:
/// execution is deterministic and [`results_match`] is reflexive (its
/// keys are integers, bit patterns and text, so even a NaN matches
/// itself), so the second execution could only repeat the first.
pub fn execution_accuracy(db: &Database, gold_sql: &str, pred_sql: &str) -> ExecOutcome {
    let Ok(gold_plan) = plan_sql(db, gold_sql) else {
        return ExecOutcome::GoldError;
    };
    let Ok(gold) = rows(db, &gold_plan) else {
        return ExecOutcome::GoldError;
    };
    if pred_sql == gold_sql {
        return ExecOutcome::Correct;
    }
    let Ok(pred_plan) = plan_sql(db, pred_sql) else {
        return ExecOutcome::PredictionError;
    };
    let Ok(pred) = rows(db, &pred_plan) else {
        return ExecOutcome::PredictionError;
    };
    if gold.width() == pred.width() && rows_match(gold.ordered, gold.iter(), pred.iter()) {
        ExecOutcome::Correct
    } else {
        ExecOutcome::WrongResult
    }
}

/// Parse and bind, leaving the plan's output names unset.
fn plan_sql(db: &Database, sql: &str) -> crate::Result<Plan> {
    bind_unnamed(db, &parse(sql)?)
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
