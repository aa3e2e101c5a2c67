//! SQL abstract syntax tree and pretty-printer.
//!
//! The dialect covers everything the workload generator emits and the
//! paper's benchmark queries need: single-table and multi-way equi-join
//! SELECTs with DISTINCT, WHERE, GROUP BY/HAVING, ORDER BY and LIMIT;
//! scalar expressions with arithmetic, comparisons, boolean logic,
//! LIKE, IN-lists and IS \[NOT\] NULL; aggregates COUNT/SUM/AVG/MIN/MAX
//! (with DISTINCT and `COUNT(*)`).
//!
//! `Display` renders canonical SQL text; [`crate::parser`] parses it
//! back, and the two round-trip (tested property-style in the parser).

use crate::value::{write_quoted, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// Binding power for the pretty-printer/parser (higher = tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A (possibly qualified) column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        Self {
            table: Some(table.into()),
            column: column.into(),
        }
    }

    pub fn bare(column: impl Into<String>) -> Self {
        Self {
            table: None,
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Scalar / boolean / aggregate expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    Literal(Value),
    Column(ColumnRef),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Value>,
        negated: bool,
    },
    /// `arg = None` means `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    pub fn col(table: impl Into<String>, column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(table, column))
    }

    pub fn bare_col(column: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(column))
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    pub fn agg(func: AggFunc, arg: Expr) -> Expr {
        Expr::Agg {
            func,
            arg: Some(Box::new(arg)),
            distinct: false,
        }
    }

    pub fn count_star() -> Expr {
        Expr::Agg {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }
    }

    /// Does this expression (sub)tree contain an aggregate call?
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Column(_) => false,
            Expr::Binary { left, right, .. } => left.contains_agg() || right.contains_agg(),
            Expr::Not(e) => e.contains_agg(),
            Expr::IsNull { expr, .. } => expr.contains_agg(),
            Expr::Like { expr, .. } => expr.contains_agg(),
            Expr::InList { expr, .. } => expr.contains_agg(),
        }
    }

    /// Collect every column referenced anywhere in the tree.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::InList { expr, .. } => expr.collect_columns(out),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Binary { op, left, right } => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                left.fmt_prec(f, prec)?;
                write!(f, " {} ", op.sql())?;
                // Right side binds one tighter so chains print left-assoc.
                right.fmt_prec(f, prec + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Not(e) => {
                write!(f, "NOT ")?;
                e.fmt_prec(f, 6)
            }
            Expr::IsNull { expr, negated } => {
                expr.fmt_prec(f, 6)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                expr.fmt_prec(f, 6)?;
                write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
                write_quoted(f, pattern)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                expr.fmt_prec(f, 6)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Expr::Agg {
                func,
                arg,
                distinct,
            } => {
                write!(f, "{}(", func.sql())?;
                if *distinct {
                    write!(f, "DISTINCT ")?;
                }
                match arg {
                    Some(a) => a.fmt_prec(f, 0)?,
                    None => write!(f, "*")?,
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Join flavour. The generator emits INNER and LEFT joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinKind {
    Inner,
    Left,
}

/// One `JOIN table ON left = right` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinClause {
    pub kind: JoinKind,
    pub table: String,
    pub left: ColumnRef,
    pub right: ColumnRef,
}

/// A projection with optional alias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    pub fn plain(expr: Expr) -> Self {
        Self { expr, alias: None }
    }

    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        Self {
            expr,
            alias: Some(alias.into()),
        }
    }

    /// Output column name: alias if present, else the printed expression.
    pub fn output_name(&self) -> String {
        self.alias.clone().unwrap_or_else(|| self.expr.to_string())
    }
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: String,
    pub joins: Vec<JoinClause>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl SelectStmt {
    /// Minimal statement scaffold: `SELECT <nothing> FROM <table>`.
    pub fn from_table(table: impl Into<String>) -> Self {
        Self {
            distinct: false,
            projections: Vec::new(),
            from: table.into(),
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// All table names mentioned in FROM/JOIN, in clause order.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = Vec::with_capacity(1 + self.joins.len());
        out.push(self.from.as_str());
        out.extend(self.joins.iter().map(|j| j.table.as_str()));
        out
    }

    /// Every column reference in the statement (projections, join keys,
    /// predicates, grouping, ordering) — the ground truth for *column
    /// linking* in the RTS sense.
    pub fn referenced_columns(&self) -> Vec<ColumnRef> {
        let mut refs: Vec<&ColumnRef> = Vec::new();
        for p in &self.projections {
            p.expr.collect_columns(&mut refs);
        }
        for j in &self.joins {
            refs.push(&j.left);
            refs.push(&j.right);
        }
        if let Some(w) = &self.where_clause {
            w.collect_columns(&mut refs);
        }
        for g in &self.group_by {
            g.collect_columns(&mut refs);
        }
        if let Some(h) = &self.having {
            h.collect_columns(&mut refs);
        }
        for o in &self.order_by {
            o.expr.collect_columns(&mut refs);
        }
        let mut owned: Vec<ColumnRef> = refs.into_iter().cloned().collect();
        owned.sort_by(|a, b| (a.table.as_deref(), &a.column).cmp(&(b.table.as_deref(), &b.column)));
        owned.dedup();
        owned
    }
}

impl fmt::Display for SelectStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        if self.projections.is_empty() {
            write!(f, "*")?;
        }
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p.expr)?;
            if let Some(a) = &p.alias {
                write!(f, " AS {a}")?;
            }
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            let kw = match j.kind {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            write!(f, " {kw} {} ON {} = {}", j.table, j.left, j.right)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    write!(f, " DESC")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_precedence_printing() {
        // (a + b) * c needs parens; a + b * c does not.
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::bare_col("a"), Expr::bare_col("b")),
            Expr::bare_col("c"),
        );
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = Expr::binary(
            BinOp::Add,
            Expr::bare_col("a"),
            Expr::binary(BinOp::Mul, Expr::bare_col("b"), Expr::bare_col("c")),
        );
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn boolean_precedence_printing() {
        let e = Expr::binary(
            BinOp::Or,
            Expr::eq(Expr::bare_col("x"), Expr::lit(Value::Int(1))),
            Expr::and(
                Expr::eq(Expr::bare_col("y"), Expr::lit(Value::Int(2))),
                Expr::eq(Expr::bare_col("z"), Expr::lit(Value::Int(3))),
            ),
        );
        assert_eq!(e.to_string(), "x = 1 OR y = 2 AND z = 3");
    }

    #[test]
    fn full_statement_rendering() {
        let mut stmt = SelectStmt::from_table("lapTimes");
        stmt.projections
            .push(SelectItem::plain(Expr::col("races", "name")));
        stmt.projections.push(SelectItem::aliased(
            Expr::agg(AggFunc::Min, Expr::col("lapTimes", "time")),
            "fastest",
        ));
        stmt.joins.push(JoinClause {
            kind: JoinKind::Inner,
            table: "races".into(),
            left: ColumnRef::new("lapTimes", "raceId"),
            right: ColumnRef::new("races", "raceId"),
        });
        stmt.where_clause = Some(Expr::eq(
            Expr::col("lapTimes", "lap"),
            Expr::lit(Value::Int(1)),
        ));
        stmt.group_by.push(Expr::col("races", "name"));
        stmt.order_by.push(OrderByItem {
            expr: Expr::agg(AggFunc::Min, Expr::col("lapTimes", "time")),
            desc: false,
        });
        stmt.limit = Some(1);
        assert_eq!(
            stmt.to_string(),
            "SELECT races.name, MIN(lapTimes.time) AS fastest FROM lapTimes \
             JOIN races ON lapTimes.raceId = races.raceId WHERE lapTimes.lap = 1 \
             GROUP BY races.name ORDER BY MIN(lapTimes.time) LIMIT 1"
        );
    }

    #[test]
    fn referenced_columns_dedup_and_sort() {
        let mut stmt = SelectStmt::from_table("t");
        stmt.projections
            .push(SelectItem::plain(Expr::col("t", "b")));
        stmt.projections
            .push(SelectItem::plain(Expr::col("t", "a")));
        stmt.where_clause = Some(Expr::eq(Expr::col("t", "a"), Expr::lit(Value::Int(1))));
        let cols = stmt.referenced_columns();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].column, "a");
        assert_eq!(cols[1].column, "b");
    }

    #[test]
    fn contains_agg() {
        assert!(Expr::count_star().contains_agg());
        assert!(Expr::binary(
            BinOp::Gt,
            Expr::agg(AggFunc::Sum, Expr::bare_col("x")),
            Expr::lit(Value::Int(10))
        )
        .contains_agg());
        assert!(!Expr::bare_col("x").contains_agg());
    }

    #[test]
    fn in_list_and_like_printing() {
        let e = Expr::InList {
            expr: Box::new(Expr::bare_col("x")),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: true,
        };
        assert_eq!(e.to_string(), "x NOT IN (1, 2)");
        let e = Expr::Like {
            expr: Box::new(Expr::bare_col("name")),
            pattern: "Mon%".into(),
            negated: false,
        };
        assert_eq!(e.to_string(), "name LIKE 'Mon%'");
    }

    #[test]
    fn is_null_printing() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::bare_col("x")),
            negated: true,
        };
        assert_eq!(e.to_string(), "x IS NOT NULL");
    }
}
