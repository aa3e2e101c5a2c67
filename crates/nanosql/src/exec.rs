//! Query execution.
//!
//! The executor runs the bound plan as a pipeline that borrows from the
//! stored rows until projection: scan → hash-join* → filter →
//! (group/aggregate → having) → project → distinct → sort → limit.
//!
//! * Scan and join produce row-index tuples, one index per plan table
//!   (the FROM table, then each joined table), in one flat `Vec`, so a
//!   query without joins allocates nothing per row. LEFT JOIN pads a
//!   probe row that matches nothing with `NULL_ROW`, which reads as
//!   NULL in every column. Joins build a hash table on the newly joined
//!   table, keyed by [`Value::group_key`] with the text borrowed, and
//!   probe it with the accumulated tuples; NULL join keys never match
//!   (SQL semantics).
//! * Expressions evaluate to `Cow<Value>`: literals, columns, group keys
//!   and aggregates are borrowed, computed values are owned.
//! * Grouping and DISTINCT hash borrowed rows under the same key;
//!   groups keep first-seen order.
//! * Output cells are copied once, when the result rows are built after
//!   DISTINCT, ORDER BY and LIMIT.
//!
//! Predicates run after all joins, so exactly the rows of the joined
//! input are evaluated: a predicate pushed below a join could raise a
//! type error on a row the join would have dropped.

use crate::ast::{JoinKind, SelectStmt};
use crate::error::{Error, Result};
use crate::parser::parse;
use crate::plan::{bind, AggregatePlan, BoundAgg, BoundExpr, JoinStep, Plan};
use crate::result::QueryResult;
use crate::schema::Database;
use crate::value::{GroupKey, RowKey, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Row index of LEFT JOIN's NULL pad in a tuple.
const NULL_ROW: usize = usize::MAX;

/// End of a build-row chain in [`hash_join`].
const CHAIN_END: usize = usize::MAX;

/// The cell every column of a [`NULL_ROW`] reads as.
static NULL: Value = Value::Null;

/// The plan's tables, and where each column of the joined row lives.
struct Input<'a> {
    /// Rows of each plan table: the FROM table, then one per join.
    tables: Vec<&'a [Vec<Value>]>,
    /// Joined-row column → (plan table, column within that table's rows).
    columns: Vec<(usize, usize)>,
}

impl<'a> Input<'a> {
    fn new(db: &'a Database, plan: &Plan) -> Result<Self> {
        let catalog_idxs =
            std::iter::once(plan.base_table_idx).chain(plan.joins.iter().map(|j| j.table_idx));
        let mut input = Input {
            tables: Vec::with_capacity(plan.joins.len() + 1),
            columns: Vec::new(),
        };
        for (table, idx) in catalog_idxs.enumerate() {
            let name = &db.tables()[idx].name;
            let data = db
                .table_data(name)
                .ok_or_else(|| Error::Execution(format!("missing data for {name}")))?;
            input.tables.push(data.rows());
            input.columns.extend((0..data.arity()).map(|c| (table, c)));
        }
        Ok(input)
    }

    /// The cell at joined-row column `col` of `tuple`.
    fn cell(&self, tuple: &[usize], col: usize) -> &'a Value {
        let (table, c) = self.columns[col];
        let rows: &'a [Vec<Value>] = self.tables[table];
        match tuple[table] {
            NULL_ROW => &NULL,
            row => &rows[row][c],
        }
    }
}

/// The joined input: `width` row indices per tuple, one per plan table.
struct Tuples {
    width: usize,
    idx: Vec<usize>,
}

impl Tuples {
    fn len(&self) -> usize {
        self.idx.len() / self.width
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, usize> {
        self.idx.chunks_exact(self.width)
    }
}

/// Evaluation context: the joined input tuple, and (in the output phase)
/// the group keys and aggregate results.
struct EvalCtx<'a> {
    input: &'a Input<'a>,
    tuple: &'a [usize],
    group_keys: &'a [Cow<'a, Value>],
    agg_values: &'a [Cow<'a, Value>],
}

impl<'a> EvalCtx<'a> {
    fn row(input: &'a Input<'a>, tuple: &'a [usize]) -> Self {
        EvalCtx {
            input,
            tuple,
            group_keys: &[],
            agg_values: &[],
        }
    }
}

/// Truth value under SQL three-valued logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    fn from_value(v: &Value) -> Result<Truth> {
        match v {
            Value::Null => Ok(Truth::Unknown),
            Value::Bool(true) => Ok(Truth::True),
            Value::Bool(false) => Ok(Truth::False),
            // Numeric truthiness (SQLite-style): nonzero = true.
            Value::Int(i) => Ok(if *i != 0 { Truth::True } else { Truth::False }),
            Value::Float(f) => Ok(if *f != 0.0 { Truth::True } else { Truth::False }),
            Value::Text(_) => Err(Error::Type("text value used as boolean".into())),
        }
    }

    fn to_value(self) -> Value {
        match self {
            Truth::True => Value::Bool(true),
            Truth::False => Value::Bool(false),
            Truth::Unknown => Value::Null,
        }
    }

    fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single character), case
/// sensitive.
///
/// Iterative: on a mismatch it retries only from the most recent `%`,
/// one text character further on, so it takes O(|text|·|pattern|)
/// steps and constant stack however many `%` the pattern has. Literal
/// pattern characters compare byte by byte; `_`, `%` and the retry
/// move the text position a whole UTF-8 character, so it only ever
/// meets `_` and `%` on a character boundary.
fn like_match(text: &str, pattern: &str) -> bool {
    // Byte length of the UTF-8 character a lead byte starts.
    let char_len = |lead: u8| (lead.leading_ones() as usize).max(1);
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let (mut ti, mut pi) = (0, 0);
    // Pattern position after the last `%`, and the text position that
    // `%` currently stops at.
    let mut retry: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                retry = Some((pi, ti));
            }
            Some(b'_') => {
                pi += 1;
                ti += char_len(t[ti]);
            }
            Some(&c) if c == t[ti] => {
                pi += 1;
                ti += 1;
            }
            _ => match retry {
                Some((after, stop)) => {
                    pi = after;
                    ti = stop + char_len(t[stop]);
                    retry = Some((after, ti));
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

/// Evaluate an expression, borrowing literals, columns, group keys and
/// aggregates; only computed values are owned.
fn eval<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'a>) -> Result<Cow<'a, Value>> {
    Ok(match expr {
        BoundExpr::Literal(v) => Cow::Borrowed(v),
        BoundExpr::ColumnIdx(i) => Cow::Borrowed(ctx.input.cell(ctx.tuple, *i)),
        BoundExpr::GroupKeyRef(i) => Cow::Borrowed(&*ctx.group_keys[*i]),
        BoundExpr::AggRef(i) => Cow::Borrowed(&*ctx.agg_values[*i]),
        computed => Cow::Owned(compute(computed, ctx)?),
    })
}

/// The operators of [`eval`], which build new values.
fn compute<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'a>) -> Result<Value> {
    use crate::ast::BinOp::*;
    Ok(match expr {
        BoundExpr::Literal(_)
        | BoundExpr::ColumnIdx(_)
        | BoundExpr::GroupKeyRef(_)
        | BoundExpr::AggRef(_) => eval(expr, ctx)?.into_owned(),
        BoundExpr::Not(inner) => Truth::from_value(&*eval(inner, ctx)?)?.not().to_value(),
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, ctx)?;
            Value::Bool(v.is_null() != *negated)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            match &*v {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Bool(like_match(s, pattern) != *negated),
                other => return Err(Error::Type(format!("LIKE on non-text value {other}"))),
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                match v.sql_eq(item) {
                    Some(true) => {
                        found = true;
                        break;
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if found {
                Value::Bool(!*negated)
            } else if saw_null {
                Value::Null // x IN (…, NULL) is unknown when no match
            } else {
                Value::Bool(*negated)
            }
        }
        BoundExpr::Binary { op, left, right } => {
            match op {
                And => {
                    // Short-circuit-aware three-valued AND/OR.
                    let l = Truth::from_value(&*eval(left, ctx)?)?;
                    if l == Truth::False {
                        return Ok(Value::Bool(false));
                    }
                    let r = Truth::from_value(&*eval(right, ctx)?)?;
                    return Ok(l.and(r).to_value());
                }
                Or => {
                    let l = Truth::from_value(&*eval(left, ctx)?)?;
                    if l == Truth::True {
                        return Ok(Value::Bool(true));
                    }
                    let r = Truth::from_value(&*eval(right, ctx)?)?;
                    return Ok(l.or(r).to_value());
                }
                _ => {}
            }
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            match op {
                Eq | Ne | Lt | Le | Gt | Ge => match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => {
                        let b = match op {
                            Eq => ord.is_eq(),
                            Ne => !ord.is_eq(),
                            Lt => ord.is_lt(),
                            Le => ord.is_le(),
                            Gt => ord.is_gt(),
                            Ge => ord.is_ge(),
                            _ => unreachable!(),
                        };
                        Value::Bool(b)
                    }
                },
                Add | Sub | Mul | Div => {
                    if l.is_null() || r.is_null() {
                        return Ok(Value::Null);
                    }
                    // Integer arithmetic stays integral except division.
                    if let (Value::Int(a), Value::Int(b)) = (&*l, &*r) {
                        return Ok(match op {
                            Add => Value::Int(a.wrapping_add(*b)),
                            Sub => Value::Int(a.wrapping_sub(*b)),
                            Mul => Value::Int(a.wrapping_mul(*b)),
                            Div => {
                                if *b == 0 {
                                    Value::Null // SQLite: x/0 is NULL
                                } else {
                                    Value::Float(*a as f64 / *b as f64)
                                }
                            }
                            _ => unreachable!(),
                        });
                    }
                    let (af, bf) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => return Err(Error::Type("arithmetic on non-numeric value".into())),
                    };
                    match op {
                        Add => Value::Float(af + bf),
                        Sub => Value::Float(af - bf),
                        Mul => Value::Float(af * bf),
                        Div => {
                            if bf == 0.0 {
                                Value::Null
                            } else {
                                Value::Float(af / bf)
                            }
                        }
                        _ => unreachable!(),
                    }
                }
                And | Or => unreachable!("handled above"),
            }
        }
    })
}

/// Evaluate a predicate; NULL/unknown filters the row out (SQL WHERE).
fn eval_predicate<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'a>) -> Result<bool> {
    Ok(Truth::from_value(&*eval(expr, ctx)?)? == Truth::True)
}

/// Tuples of the FROM table, with each join folded in.
fn scan_and_join(input: &Input, plan: &Plan) -> Tuples {
    let mut tuples = Tuples {
        width: 1,
        idx: (0..input.tables[0].len()).collect(),
    };
    for (j, step) in plan.joins.iter().enumerate() {
        tuples = hash_join(input, &tuples, step, j + 1);
    }
    tuples
}

/// Join plan table `table` onto `probe`: each probe tuple, in order,
/// extended by each matching build row, in row order.
fn hash_join(input: &Input, probe: &Tuples, step: &JoinStep, table: usize) -> Tuples {
    let build = input.tables[table];
    // Build side: key → (first, last) row of a chain through `next`.
    // NULL keys excluded (never match).
    let mut chains: HashMap<GroupKey<&str>, (usize, usize)> = HashMap::with_capacity(build.len());
    let mut next = vec![CHAIN_END; build.len()];
    for (i, row) in build.iter().enumerate() {
        let key = &row[step.build_key];
        if !key.is_null() {
            chains
                .entry(key.key())
                .and_modify(|(_, last)| {
                    next[*last] = i;
                    *last = i;
                })
                .or_insert((i, i));
        }
    }

    let width = probe.width + 1;
    let mut out = Vec::with_capacity(probe.idx.len() + probe.len());
    for tuple in probe.iter() {
        let key = input.cell(tuple, step.probe_key);
        let first = if key.is_null() {
            None
        } else {
            chains.get(&key.key()).map(|&(first, _)| first)
        };
        match first {
            Some(mut i) => {
                while i != CHAIN_END {
                    out.extend_from_slice(tuple);
                    out.push(i);
                    i = next[i];
                }
            }
            None if step.kind == JoinKind::Left => {
                out.extend_from_slice(tuple);
                out.push(NULL_ROW);
            }
            None => {}
        }
    }
    Tuples { width, idx: out }
}

/// Keep the tuples `pred` holds for, in order, compacting in place.
fn filter(input: &Input, mut rows: Tuples, pred: &BoundExpr) -> Result<Tuples> {
    let width = rows.width;
    let mut kept = 0;
    for r in 0..rows.len() {
        let tuple = &rows.idx[r * width..(r + 1) * width];
        if eval_predicate(pred, &EvalCtx::row(input, tuple))? {
            rows.idx
                .copy_within(r * width..(r + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.idx.truncate(kept * width);
    Ok(rows)
}

/// Aggregate accumulator for one (group, aggregate) pair; MIN and MAX
/// borrow the argument cell they hold.
struct AggState<'c> {
    count: u64,
    sum: f64,
    saw_float: bool,
    min: Option<&'c Value>,
    max: Option<&'c Value>,
    distinct_seen: Option<HashSet<GroupKey<&'c str>>>,
}

impl<'c> AggState<'c> {
    fn new(distinct: bool) -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            saw_float: false,
            min: None,
            max: None,
            distinct_seen: distinct.then(HashSet::new),
        }
    }

    fn update(&mut self, v: &'c Value) {
        if v.is_null() {
            return; // aggregates skip NULLs
        }
        if let Some(seen) = &mut self.distinct_seen {
            if !seen.insert(v.key()) {
                return;
            }
        }
        self.count += 1;
        if let Some(f) = v.as_f64() {
            self.sum += f;
            if matches!(v, Value::Float(_)) {
                self.saw_float = true;
            }
        }
        let replace_min = self
            .min
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less));
        if replace_min {
            self.min = Some(v);
        }
        let replace_max = self
            .max
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater));
        if replace_max {
            self.max = Some(v);
        }
    }

    fn finish(&self, agg: &BoundAgg) -> Cow<'c, Value> {
        use crate::ast::AggFunc::*;
        let extreme = |v: Option<&'c Value>| v.map_or(Cow::Owned(Value::Null), Cow::Borrowed);
        Cow::Owned(match agg.func {
            Count => Value::Int(self.count as i64),
            Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum)
                } else {
                    Value::Int(self.sum as i64)
                }
            }
            Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            Min => return extreme(self.min),
            Max => return extreme(self.max),
        })
    }
}

/// Evaluate, row by row, the GROUP BY expressions and then the aggregate
/// arguments: `group_by.len()` key cells and `aggs.len()` argument cells
/// per row (NULL for `COUNT(*)`, which reads none).
type RowCells<'a> = (Vec<Cow<'a, Value>>, Vec<Cow<'a, Value>>);

fn eval_row_cells<'a>(
    input: &'a Input<'a>,
    rows: &'a Tuples,
    agg_plan: &'a AggregatePlan,
) -> Result<RowCells<'a>> {
    let mut keys = Vec::with_capacity(rows.len() * agg_plan.group_by.len());
    let mut args = Vec::with_capacity(rows.len() * agg_plan.aggs.len());
    for tuple in rows.iter() {
        let ctx = EvalCtx::row(input, tuple);
        for g in &agg_plan.group_by {
            keys.push(eval(g, &ctx)?);
        }
        for agg in &agg_plan.aggs {
            args.push(match &agg.arg {
                Some(arg) => eval(arg, &ctx)?,
                None => Cow::Borrowed(&NULL),
            });
        }
    }
    Ok((keys, args))
}

/// Groups in first-seen order: the input row that opened each, and its
/// finished aggregates, `aggs.len()` per group.
struct Groups<'c> {
    first_rows: Vec<usize>,
    agg_values: Vec<Cow<'c, Value>>,
}

fn group<'c>(
    keys: &'c [Cow<'c, Value>],
    args: &'c [Cow<'c, Value>],
    n_rows: usize,
    agg_plan: &AggregatePlan,
) -> Groups<'c> {
    let (n_keys, n_aggs) = (agg_plan.group_by.len(), agg_plan.aggs.len());
    let fresh = || agg_plan.aggs.iter().map(|a| AggState::new(a.distinct));
    let mut index: HashMap<RowKey<'c, Cow<'c, Value>>, usize> = HashMap::new();
    let mut first_rows = Vec::new();
    let mut states: Vec<AggState<'c>> = Vec::new();
    for r in 0..n_rows {
        let key = RowKey(&keys[r * n_keys..(r + 1) * n_keys]);
        let g = *index.entry(key).or_insert_with(|| {
            first_rows.push(r);
            states.extend(fresh());
            first_rows.len() - 1
        });
        let row_args = &args[r * n_aggs..(r + 1) * n_aggs];
        let group_states = &mut states[g * n_aggs..(g + 1) * n_aggs];
        for ((agg, state), arg) in agg_plan.aggs.iter().zip(group_states).zip(row_args) {
            match agg.arg {
                // COUNT(*): every row counts, including NULL-heavy ones.
                None => state.count += 1,
                Some(_) => state.update(arg),
            }
        }
    }
    // Global aggregate over an empty input still yields one group.
    if n_rows == 0 && n_keys == 0 {
        first_rows.push(0);
        states.extend(fresh());
    }
    let agg_values = states
        .iter()
        .zip(agg_plan.aggs.iter().cycle())
        .map(|(s, a)| s.finish(a))
        .collect();
    Groups {
        first_rows,
        agg_values,
    }
}

/// The projected cells and ORDER BY keys of the result rows, borrowed
/// where the expressions allow; only [`Output::into_rows`] copies.
#[derive(Default)]
struct Output<'a> {
    n_rows: usize,
    cells: Vec<Cow<'a, Value>>,
    sort_keys: Vec<Cow<'a, Value>>,
}

impl<'a> Output<'a> {
    fn push(&mut self, plan: &'a Plan, ctx: &EvalCtx<'a>) -> Result<()> {
        for p in &plan.projections {
            self.cells.push(eval(p, ctx)?);
        }
        for (o, _) in &plan.order_by {
            self.sort_keys.push(eval(o, ctx)?);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// DISTINCT, ORDER BY and LIMIT over row ordinals, then one copy of
    /// each surviving cell.
    fn into_rows(self, plan: &Plan) -> Vec<Vec<Value>> {
        let width = plan.projections.len();
        let n_keys = plan.order_by.len();
        let row = |i: usize| &self.cells[i * width..(i + 1) * width];
        let sort_key = |i: usize| &self.sort_keys[i * n_keys..(i + 1) * n_keys];
        let mut order: Vec<usize> = (0..self.n_rows).collect();

        // DISTINCT on the projected row.
        if plan.distinct {
            let mut seen = HashSet::with_capacity(order.len());
            order.retain(|&i| seen.insert(RowKey(row(i))));
        }

        // ORDER BY: stable sort on the evaluated keys, NULLs first.
        if n_keys > 0 {
            order.sort_by(|&a, &b| {
                for ((x, y), (_, desc)) in sort_key(a).iter().zip(sort_key(b)).zip(&plan.order_by) {
                    let ord = x.total_cmp(y);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        // LIMIT.
        if let Some(limit) = plan.limit {
            order.truncate(limit as usize);
        }

        order
            .into_iter()
            .map(|i| row(i).iter().map(|cell| Value::clone(cell)).collect())
            .collect()
    }
}

/// Execute a bound plan.
pub fn execute_plan(db: &Database, plan: &Plan) -> Result<QueryResult> {
    let input = Input::new(db, plan)?;
    let mut rows = scan_and_join(&input, plan);
    if let Some(f) = &plan.filter {
        rows = filter(&input, rows, f)?;
    }

    let result_rows = match &plan.aggregate {
        Some(agg_plan) => {
            let mut out = Output::default();
            let (keys, args) = eval_row_cells(&input, &rows, agg_plan)?;
            let groups = group(&keys, &args, rows.len(), agg_plan);
            let (n_keys, n_aggs) = (agg_plan.group_by.len(), agg_plan.aggs.len());
            for (g, &first) in groups.first_rows.iter().enumerate() {
                let ctx = EvalCtx {
                    input: &input,
                    tuple: &[],
                    group_keys: &keys[first * n_keys..(first + 1) * n_keys],
                    agg_values: &groups.agg_values[g * n_aggs..(g + 1) * n_aggs],
                };
                if let Some(h) = &agg_plan.having {
                    if !eval_predicate(h, &ctx)? {
                        continue;
                    }
                }
                out.push(plan, &ctx)?;
            }
            out.into_rows(plan)
        }
        None => {
            let mut out = Output::default();
            for tuple in rows.iter() {
                out.push(plan, &EvalCtx::row(&input, tuple))?;
            }
            out.into_rows(plan)
        }
    };

    Ok(QueryResult {
        columns: plan.output_names.clone(),
        rows: result_rows,
        ordered: !plan.order_by.is_empty(),
    })
}

#[cfg(test)]
mod parity;
#[cfg(test)]
mod reference;

/// Bind and execute a parsed statement.
pub fn execute(db: &Database, stmt: &SelectStmt) -> Result<QueryResult> {
    let plan = bind(db, stmt)?;
    execute_plan(db, &plan)
}

/// Parse, bind and execute SQL text.
pub fn execute_sql(db: &Database, sql: &str) -> Result<QueryResult> {
    execute(db, &parse(sql)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, DataType, TableSchema};

    /// Small Formula-1 flavoured database echoing the paper's Figure 1a.
    fn f1_db() -> Database {
        let mut db = Database::new("formula_1");
        db.create_table(
            TableSchema::new("races")
                .column(ColumnDef::new("raceId", DataType::Int).primary_key())
                .column(ColumnDef::new("name", DataType::Text))
                .column(ColumnDef::new("year", DataType::Int)),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("lapTimes")
                .column(ColumnDef::new("raceId", DataType::Int))
                .column(ColumnDef::new("lap", DataType::Int))
                .column(ColumnDef::new("time", DataType::Float)),
        )
        .unwrap();
        for (id, name, year) in [
            (1, "Monaco GP", 2021),
            (2, "Suzuka GP", 2021),
            (3, "Monza GP", 2022),
        ] {
            db.insert(
                "races",
                vec![Value::Int(id), Value::text(name), Value::Int(year)],
            )
            .unwrap();
        }
        for (rid, lap, time) in [
            (1, 1, 92.3),
            (1, 2, 91.1),
            (2, 1, 88.4),
            (2, 2, 89.0),
            (3, 1, 85.2),
        ] {
            db.insert(
                "lapTimes",
                vec![Value::Int(rid), Value::Int(lap), Value::Float(time)],
            )
            .unwrap();
        }
        db
    }

    fn run(db: &Database, sql: &str) -> QueryResult {
        execute_sql(db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    #[test]
    fn select_filter_project() {
        let db = f1_db();
        let r = run(&db, "SELECT name FROM races WHERE year = 2021");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn order_by_and_limit() {
        let db = f1_db();
        let r = run(
            &db,
            "SELECT name FROM races ORDER BY year DESC, name LIMIT 1",
        );
        assert_eq!(r.rows, vec![vec![Value::text("Monza GP")]]);
    }

    #[test]
    fn paper_figure1a_query() {
        // "the race with the minimum first lap time" — the gold query of
        // Figure 1(a).
        let db = f1_db();
        let r = run(
            &db,
            "SELECT races.name FROM lapTimes JOIN races ON lapTimes.raceId = races.raceId \
             WHERE lapTimes.lap = 1 ORDER BY lapTimes.time LIMIT 1",
        );
        assert_eq!(r.rows, vec![vec![Value::text("Monza GP")]]);
    }

    #[test]
    fn inner_join_drops_unmatched() {
        let mut db = f1_db();
        db.insert(
            "races",
            vec![Value::Int(9), Value::text("Ghost GP"), Value::Int(2023)],
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT DISTINCT races.name FROM races JOIN lapTimes ON races.raceId = lapTimes.raceId",
        );
        assert_eq!(r.rows.len(), 3, "Ghost GP has no laps");
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut db = f1_db();
        db.insert(
            "races",
            vec![Value::Int(9), Value::text("Ghost GP"), Value::Int(2023)],
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT races.name FROM races LEFT JOIN lapTimes ON races.raceId = lapTimes.raceId \
             WHERE lapTimes.raceId IS NULL",
        );
        assert_eq!(r.rows, vec![vec![Value::text("Ghost GP")]]);
    }

    #[test]
    fn group_by_aggregates() {
        let db = f1_db();
        let r = run(
            &db,
            "SELECT races.name, COUNT(*), MIN(lapTimes.time) FROM races \
             JOIN lapTimes ON races.raceId = lapTimes.raceId \
             GROUP BY races.name ORDER BY races.name",
        );
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::text("Monaco GP"));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(91.1));
    }

    #[test]
    fn having_filters_groups() {
        let db = f1_db();
        let r = run(
            &db,
            "SELECT races.name FROM races JOIN lapTimes ON races.raceId = lapTimes.raceId \
             GROUP BY races.name HAVING COUNT(*) > 1 ORDER BY races.name",
        );
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn global_aggregates() {
        let db = f1_db();
        let r = run(&db, "SELECT COUNT(*), AVG(time), MAX(lap) FROM lapTimes");
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(5));
        let avg = r.rows[0][1].as_f64().unwrap();
        assert!((avg - 89.2).abs() < 1e-9, "avg {avg}");
        assert_eq!(r.rows[0][2], Value::Int(2));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = f1_db();
        let r = run(
            &db,
            "SELECT COUNT(*), MIN(time) FROM lapTimes WHERE lap > 99",
        );
        assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn count_distinct() {
        let db = f1_db();
        let r = run(&db, "SELECT COUNT(DISTINCT raceId) FROM lapTimes");
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn aggregates_skip_nulls() {
        let mut db = f1_db();
        db.insert("lapTimes", vec![Value::Int(1), Value::Int(3), Value::Null])
            .unwrap();
        let r = run(&db, "SELECT COUNT(time), COUNT(*) FROM lapTimes");
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.rows[0][1], Value::Int(6));
    }

    #[test]
    fn distinct_projection() {
        let db = f1_db();
        let r = run(&db, "SELECT DISTINCT year FROM races");
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn where_null_comparison_filters_out() {
        let mut db = f1_db();
        db.insert("lapTimes", vec![Value::Int(1), Value::Int(4), Value::Null])
            .unwrap();
        // NULL time fails both time > 90 and NOT(time > 90).
        let a = run(&db, "SELECT COUNT(*) FROM lapTimes WHERE time > 90");
        let b = run(&db, "SELECT COUNT(*) FROM lapTimes WHERE NOT time > 90");
        let total = run(&db, "SELECT COUNT(*) FROM lapTimes");
        let a = a.rows[0][0].as_f64().unwrap();
        let b = b.rows[0][0].as_f64().unwrap();
        let total = total.rows[0][0].as_f64().unwrap();
        assert_eq!(
            a + b + 1.0,
            total,
            "NULL row must fall through both predicates"
        );
    }

    #[test]
    fn arithmetic_and_division() {
        let db = f1_db();
        let r = run(&db, "SELECT time * 2 + 1 FROM lapTimes WHERE raceId = 3");
        assert_eq!(r.rows[0][0], Value::Float(171.4));
        let r = run(&db, "SELECT lap / 0 FROM lapTimes WHERE raceId = 3");
        assert_eq!(r.rows[0][0], Value::Null, "division by zero yields NULL");
    }

    #[test]
    fn like_and_in() {
        let db = f1_db();
        let r = run(
            &db,
            "SELECT name FROM races WHERE name LIKE 'Mon%' ORDER BY name",
        );
        assert_eq!(r.rows.len(), 2);
        let r = run(
            &db,
            "SELECT name FROM races WHERE raceId IN (1, 3) ORDER BY raceId",
        );
        assert_eq!(r.rows[0][0], Value::text("Monaco GP"));
        assert_eq!(r.rows.len(), 2);
        let r = run(&db, "SELECT name FROM races WHERE name LIKE '_onaco GP'");
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn three_way_join() {
        let mut db = f1_db();
        db.create_table(
            TableSchema::new("circuits")
                .column(ColumnDef::new("circuitId", DataType::Int).primary_key())
                .column(ColumnDef::new("country", DataType::Text)),
        )
        .unwrap();
        db.create_table(
            TableSchema::new("raceCircuits")
                .column(ColumnDef::new("raceId", DataType::Int))
                .column(ColumnDef::new("circuitId", DataType::Int)),
        )
        .unwrap();
        db.insert("circuits", vec![Value::Int(10), Value::text("Italy")])
            .unwrap();
        db.insert("raceCircuits", vec![Value::Int(3), Value::Int(10)])
            .unwrap();
        let r = run(
            &db,
            "SELECT circuits.country FROM races \
             JOIN raceCircuits ON races.raceId = raceCircuits.raceId \
             JOIN circuits ON raceCircuits.circuitId = circuits.circuitId",
        );
        assert_eq!(r.rows, vec![vec![Value::text("Italy")]]);
    }

    #[test]
    fn null_join_keys_never_match() {
        let mut db = f1_db();
        db.insert(
            "lapTimes",
            vec![Value::Null, Value::Int(1), Value::Float(80.0)],
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT COUNT(*) FROM lapTimes JOIN races ON lapTimes.raceId = races.raceId",
        );
        assert_eq!(r.rows[0][0], Value::Int(5), "NULL raceId row must not join");
    }

    #[test]
    fn like_matcher_unit() {
        assert!(like_match("Monaco GP", "Mon%"));
        assert!(like_match("Monaco GP", "%GP"));
        assert!(like_match("Monaco GP", "%aco%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("x%y", "x%y"));
        assert!(like_match("abcbc", "a%bc"));
        assert!(!like_match("abcbd", "a%bc"));
        assert!(like_match("aXbYc", "a%b%c"));
        assert!(like_match("ab", "%%_%"));
        // `_` is one character, however many bytes encode it.
        assert!(like_match("café", "caf_"));
        assert!(like_match("é", "_"));
        assert!(!like_match("é", "__"));
        assert!(like_match("a☕b🦀", "a_b_"));
        assert!(like_match("☕☕x", "%_x"));
        assert!(!like_match("☕", "%__"));
    }

    #[test]
    fn like_does_not_backtrack_exponentially() {
        // A recursive backtracker tries ~C(200, 7) splits here.
        let text = "a".repeat(200);
        assert!(!like_match(&text, "%a%a%a%a%a%a%a%b"));
        assert!(like_match(&text, "%a%a%a%a%a%a%a%"));
    }

    #[test]
    fn multibyte_literals_match_stored_text() {
        let mut db = f1_db();
        db.insert(
            "races",
            vec![Value::Int(4), Value::text("Café GP ☕"), Value::Int(2024)],
        )
        .unwrap();
        let r = run(&db, "SELECT raceId FROM races WHERE name = 'Café GP ☕'");
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
        let r = run(&db, "SELECT raceId FROM races WHERE name LIKE 'Caf% ☕'");
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
        let r = run(&db, "SELECT raceId FROM races WHERE name LIKE '%é%'");
        assert_eq!(r.rows, vec![vec![Value::Int(4)]]);
    }
}
