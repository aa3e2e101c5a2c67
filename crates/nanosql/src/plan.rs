//! Logical planning: resolve a parsed [`SelectStmt`] against a
//! [`Database`] catalog into a bound, index-addressed plan the executor
//! can run without further name lookups.
//!
//! Binding happens in two phases, mirroring SQL semantics:
//!
//! * **row phase** — expressions evaluated against a joined input row
//!   (WHERE, join keys, GROUP BY expressions, aggregate arguments):
//!   column references become absolute indices into the concatenated row.
//! * **output phase** — expressions evaluated per *group* in aggregated
//!   queries (projections, HAVING, ORDER BY): aggregate calls become
//!   references into the computed aggregate list, subtrees syntactically
//!   equal to a GROUP BY expression become group-key references, and any
//!   other bare column is rejected ("must appear in GROUP BY"), exactly
//!   the check real engines perform.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::schema::Database;
use crate::value::Value;

/// A bound expression: columns are absolute row indices; in the output
/// phase aggregates and group keys are positional references.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    ColumnIdx(usize),
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// Output phase: value of the i-th computed aggregate.
    AggRef(usize),
    /// Output phase: value of the i-th GROUP BY expression.
    GroupKeyRef(usize),
}

/// A bound aggregate: `arg = None` is `COUNT(*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAgg {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
}

/// One join step: probe-side absolute key index, build-side table index
/// in the catalog, build-side local key index, and the join kind.
#[derive(Debug, Clone)]
pub struct JoinStep {
    pub kind: JoinKind,
    pub table_idx: usize,
    /// Key index into the accumulated (left) row.
    pub probe_key: usize,
    /// Key index local to the build (right) table's row.
    pub build_key: usize,
}

/// Fully bound physical plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Catalog index of the FROM table.
    pub base_table_idx: usize,
    pub joins: Vec<JoinStep>,
    pub filter: Option<BoundExpr>,
    /// Set iff the query aggregates (explicit GROUP BY or any aggregate).
    pub aggregate: Option<AggregatePlan>,
    pub projections: Vec<BoundExpr>,
    pub output_names: Vec<String>,
    pub distinct: bool,
    /// `(expr, descending)` pairs; output-phase exprs when aggregated.
    pub order_by: Vec<(BoundExpr, bool)>,
    pub limit: Option<u64>,
}

/// Aggregation sub-plan.
#[derive(Debug, Clone)]
pub struct AggregatePlan {
    /// Row-phase GROUP BY expressions (may be empty: global aggregate).
    pub group_by: Vec<BoundExpr>,
    pub aggs: Vec<BoundAgg>,
    /// Output-phase HAVING predicate.
    pub having: Option<BoundExpr>,
}

/// Name-resolution scope: the tables contributing to the joined row.
struct Scope<'a> {
    db: &'a Database,
    /// `(table name, catalog index, absolute column offset)`.
    entries: Vec<(String, usize, usize)>,
    width: usize,
}

impl<'a> Scope<'a> {
    fn new(db: &'a Database) -> Self {
        Scope {
            db,
            entries: Vec::new(),
            width: 0,
        }
    }

    fn add_table(&mut self, name: &str) -> Result<usize> {
        let idx = self
            .db
            .table_index(name)
            .ok_or_else(|| Error::UnknownTable(name.into()))?;
        let arity = self.db.tables()[idx].columns.len();
        self.entries
            .push((self.db.tables()[idx].name.clone(), idx, self.width));
        self.width += arity;
        Ok(idx)
    }

    /// Resolve a column reference to an absolute index in the joined row.
    fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        match &c.table {
            Some(t) => {
                let (_, tidx, offset) = self
                    .entries
                    .iter()
                    .find(|(name, _, _)| name.eq_ignore_ascii_case(t))
                    .ok_or_else(|| Error::UnknownTable(t.clone()))?;
                let schema = &self.db.tables()[*tidx];
                let cidx = schema
                    .column_index(&c.column)
                    .ok_or_else(|| Error::UnknownColumn(format!("{t}.{}", c.column)))?;
                Ok(offset + cidx)
            }
            None => {
                let mut hit = None;
                for (name, tidx, offset) in &self.entries {
                    if let Some(cidx) = self.db.tables()[*tidx].column_index(&c.column) {
                        if hit.is_some() {
                            return Err(Error::AmbiguousColumn(c.column.clone()));
                        }
                        hit = Some((name.clone(), offset + cidx));
                    }
                }
                hit.map(|(_, i)| i)
                    .ok_or_else(|| Error::UnknownColumn(c.column.clone()))
            }
        }
    }
}

/// Row-phase binding: every column becomes an absolute index; aggregate
/// calls are illegal here (caller extracts them first).
fn bind_row_expr(scope: &Scope, e: &Expr) -> Result<BoundExpr> {
    Ok(match e {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column(c) => BoundExpr::ColumnIdx(scope.resolve(c)?),
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(bind_row_expr(scope, left)?),
            right: Box::new(bind_row_expr(scope, right)?),
        },
        Expr::Not(inner) => BoundExpr::Not(Box::new(bind_row_expr(scope, inner)?)),
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind_row_expr(scope, expr)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind_row_expr(scope, expr)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind_row_expr(scope, expr)?),
            list: list.clone(),
            negated: *negated,
        },
        Expr::Agg { .. } => {
            return Err(Error::Type("aggregate not allowed in this context".into()))
        }
    })
}

/// Output-phase binding for aggregated queries: group-by subtrees →
/// `GroupKeyRef`, aggregate calls → `AggRef` (registering their bound
/// arguments in `aggs`), anything else recurses; stray columns error.
fn bind_output_expr(
    scope: &Scope,
    e: &Expr,
    group_by: &[Expr],
    aggs: &mut Vec<BoundAgg>,
    agg_sources: &mut Vec<Expr>,
) -> Result<BoundExpr> {
    // A subtree that *is* a group-by expression is a key lookup.
    if let Some(i) = group_by.iter().position(|g| g == e) {
        return Ok(BoundExpr::GroupKeyRef(i));
    }
    Ok(match e {
        Expr::Agg {
            func,
            arg,
            distinct,
        } => {
            // Reuse an identical aggregate if already registered (SELECT
            // MIN(x), MIN(x) computes once).
            if let Some(i) = agg_sources.iter().position(|s| s == e) {
                return Ok(BoundExpr::AggRef(i));
            }
            let bound_arg = match arg {
                Some(a) => Some(bind_row_expr(scope, a)?),
                None => None,
            };
            aggs.push(BoundAgg {
                func: *func,
                arg: bound_arg,
                distinct: *distinct,
            });
            agg_sources.push(e.clone());
            BoundExpr::AggRef(aggs.len() - 1)
        }
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Column(c) => {
            return Err(Error::Type(format!(
                "column {c} must appear in GROUP BY or inside an aggregate"
            )))
        }
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(bind_output_expr(scope, left, group_by, aggs, agg_sources)?),
            right: Box::new(bind_output_expr(scope, right, group_by, aggs, agg_sources)?),
        },
        Expr::Not(inner) => BoundExpr::Not(Box::new(bind_output_expr(
            scope,
            inner,
            group_by,
            aggs,
            agg_sources,
        )?)),
        Expr::IsNull { expr, negated } => BoundExpr::IsNull {
            expr: Box::new(bind_output_expr(scope, expr, group_by, aggs, agg_sources)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => BoundExpr::Like {
            expr: Box::new(bind_output_expr(scope, expr, group_by, aggs, agg_sources)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => BoundExpr::InList {
            expr: Box::new(bind_output_expr(scope, expr, group_by, aggs, agg_sources)?),
            list: list.clone(),
            negated: *negated,
        },
    })
}

/// Bind a statement into an executable [`Plan`].
pub fn bind(db: &Database, stmt: &SelectStmt) -> Result<Plan> {
    if stmt.projections.is_empty() {
        return Err(Error::Type(
            "SELECT requires at least one projection".into(),
        ));
    }
    let mut scope = Scope::new(db);
    let base_table_idx = scope.add_table(&stmt.from)?;

    let mut joins = Vec::with_capacity(stmt.joins.len());
    for j in &stmt.joins {
        // The probe key must resolve against tables already in scope;
        // the build key against the new table. Accept either writing
        // order (`a.id = b.id` or `b.id = a.id`).
        let new_idx = db
            .table_index(&j.table)
            .ok_or_else(|| Error::UnknownTable(j.table.clone()))?;
        let resolve_pair = |in_scope: &ColumnRef,
                            on_new: &ColumnRef,
                            scope: &Scope|
         -> Result<(usize, usize)> {
            let probe = scope.resolve(in_scope)?;
            let build = db.tables()[new_idx]
                .column_index(&on_new.column)
                .ok_or_else(|| Error::UnknownColumn(format!("{}.{}", j.table, on_new.column)))?;
            // If qualified, the build side must actually name the joined table.
            if let Some(t) = &on_new.table {
                if !t.eq_ignore_ascii_case(&j.table) {
                    return Err(Error::Type(format!(
                        "join condition must reference joined table {}, got {t}",
                        j.table
                    )));
                }
            }
            Ok((probe, build))
        };
        let names_new = |c: &ColumnRef| {
            c.table
                .as_deref()
                .is_some_and(|t| t.eq_ignore_ascii_case(&j.table))
        };
        let (probe_key, build_key) = if names_new(&j.right) {
            resolve_pair(&j.left, &j.right, &scope)?
        } else if names_new(&j.left) {
            resolve_pair(&j.right, &j.left, &scope)?
        } else {
            return Err(Error::Type(format!(
                "join ON clause must reference joined table {}",
                j.table
            )));
        };
        scope.add_table(&j.table)?;
        joins.push(JoinStep {
            kind: j.kind,
            table_idx: new_idx,
            probe_key,
            build_key,
        });
    }

    let filter = stmt
        .where_clause
        .as_ref()
        .map(|w| bind_row_expr(&scope, w))
        .transpose()?;

    let has_agg = stmt.projections.iter().any(|p| p.expr.contains_agg())
        || stmt.having.as_ref().is_some_and(|h| h.contains_agg())
        || stmt.order_by.iter().any(|o| o.expr.contains_agg());
    let grouped = !stmt.group_by.is_empty() || has_agg || stmt.having.is_some();

    let output_names: Vec<String> = stmt.projections.iter().map(|p| p.output_name()).collect();

    if grouped {
        let group_by_bound: Vec<BoundExpr> = stmt
            .group_by
            .iter()
            .map(|g| bind_row_expr(&scope, g))
            .collect::<Result<_>>()?;
        let mut aggs = Vec::new();
        let mut agg_sources = Vec::new();
        let projections: Vec<BoundExpr> = stmt
            .projections
            .iter()
            .map(|p| bind_output_expr(&scope, &p.expr, &stmt.group_by, &mut aggs, &mut agg_sources))
            .collect::<Result<_>>()?;
        let having = stmt
            .having
            .as_ref()
            .map(|h| bind_output_expr(&scope, h, &stmt.group_by, &mut aggs, &mut agg_sources))
            .transpose()?;
        let order_by: Vec<(BoundExpr, bool)> = stmt
            .order_by
            .iter()
            .map(|o| {
                bind_output_expr(&scope, &o.expr, &stmt.group_by, &mut aggs, &mut agg_sources)
                    .map(|b| (b, o.desc))
            })
            .collect::<Result<_>>()?;
        Ok(Plan {
            base_table_idx,
            joins,
            filter,
            aggregate: Some(AggregatePlan {
                group_by: group_by_bound,
                aggs,
                having,
            }),
            projections,
            output_names,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
        })
    } else {
        let projections: Vec<BoundExpr> = stmt
            .projections
            .iter()
            .map(|p| bind_row_expr(&scope, &p.expr))
            .collect::<Result<_>>()?;
        let order_by: Vec<(BoundExpr, bool)> = stmt
            .order_by
            .iter()
            .map(|o| bind_row_expr(&scope, &o.expr).map(|b| (b, o.desc)))
            .collect::<Result<_>>()?;
        Ok(Plan {
            base_table_idx,
            joins,
            filter,
            aggregate: None,
            projections,
            output_names,
            distinct: stmt.distinct,
            order_by,
            limit: stmt.limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    fn db() -> Database {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("races")
                .column(ColumnDef::new("raceId", DataType::Int).primary_key())
                .column(ColumnDef::new("name", DataType::Text)),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("lapTimes")
                .column(ColumnDef::new("raceId", DataType::Int))
                .column(ColumnDef::new("lap", DataType::Int))
                .column(ColumnDef::new("time", DataType::Float)),
        )
        .unwrap();
        db
    }

    #[test]
    fn binds_qualified_and_bare_columns() {
        let db = db();
        let plan = bind(
            &db,
            &parse("SELECT races.name FROM races WHERE raceId = 1").unwrap(),
        )
        .unwrap();
        assert_eq!(plan.projections, vec![BoundExpr::ColumnIdx(1)]);
        assert!(matches!(
            plan.filter,
            Some(BoundExpr::Binary { ref left, .. }) if **left == BoundExpr::ColumnIdx(0)
        ));
    }

    #[test]
    fn join_offsets_are_absolute() {
        let db = db();
        let plan = bind(
            &db,
            &parse(
                "SELECT lapTimes.time FROM races JOIN lapTimes ON races.raceId = lapTimes.raceId",
            )
            .unwrap(),
        )
        .unwrap();
        // races has 2 columns, so lapTimes.time is absolute index 2+2=4.
        assert_eq!(plan.projections, vec![BoundExpr::ColumnIdx(4)]);
        assert_eq!(plan.joins[0].probe_key, 0);
        assert_eq!(plan.joins[0].build_key, 0);
    }

    #[test]
    fn join_sides_can_be_swapped() {
        let db = db();
        let plan = bind(
            &db,
            &parse(
                "SELECT lapTimes.time FROM races JOIN lapTimes ON lapTimes.raceId = races.raceId",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(plan.joins[0].probe_key, 0);
        assert_eq!(plan.joins[0].build_key, 0);
    }

    #[test]
    fn ambiguous_bare_column_is_error() {
        let db = db();
        let err = bind(
            &db,
            &parse("SELECT raceId FROM races JOIN lapTimes ON races.raceId = lapTimes.raceId")
                .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::AmbiguousColumn(_)));
    }

    #[test]
    fn unknown_names_error() {
        let db = db();
        assert!(matches!(
            bind(&db, &parse("SELECT x FROM nope").unwrap()),
            Err(Error::UnknownTable(_))
        ));
        assert!(matches!(
            bind(&db, &parse("SELECT nope FROM races").unwrap()),
            Err(Error::UnknownColumn(_))
        ));
    }

    #[test]
    fn grouped_binding_classifies_expressions() {
        let db = db();
        let plan = bind(
            &db,
            &parse(
                "SELECT name, COUNT(*), MIN(time) FROM races \
                 JOIN lapTimes ON races.raceId = lapTimes.raceId \
                 GROUP BY name HAVING COUNT(*) > 1 ORDER BY MIN(time)",
            )
            .unwrap(),
        )
        .unwrap();
        let agg = plan.aggregate.as_ref().unwrap();
        assert_eq!(agg.group_by.len(), 1);
        // COUNT(*) and MIN(time): two distinct aggregates, COUNT reused
        // by HAVING, MIN reused by ORDER BY.
        assert_eq!(agg.aggs.len(), 2);
        assert_eq!(plan.projections[0], BoundExpr::GroupKeyRef(0));
        assert_eq!(plan.projections[1], BoundExpr::AggRef(0));
        assert_eq!(plan.projections[2], BoundExpr::AggRef(1));
        assert_eq!(plan.order_by[0].0, BoundExpr::AggRef(1));
    }

    #[test]
    fn bare_column_outside_group_by_is_rejected() {
        let db = db();
        let err = bind(
            &db,
            &parse("SELECT name, COUNT(*) FROM races GROUP BY raceId").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Type(_)), "{err:?}");
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let db = db();
        let plan = bind(&db, &parse("SELECT COUNT(*) FROM races").unwrap()).unwrap();
        let agg = plan.aggregate.as_ref().unwrap();
        assert!(agg.group_by.is_empty());
        assert_eq!(agg.aggs.len(), 1);
    }

    #[test]
    fn join_on_unrelated_tables_is_error() {
        let db = db();
        let err = bind(
            &db,
            &parse("SELECT name FROM races JOIN lapTimes ON races.raceId = races.raceId").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Type(_)));
    }
}
