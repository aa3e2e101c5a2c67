//! Query execution.
//!
//! The executor runs the bound plan as a pipeline that borrows from the
//! stored rows throughout: scan → hash-join* → filter →
//! (group/aggregate → having) → project → distinct → sort → limit.
//!
//! * Scan and join produce row-index tuples, one index per plan table
//!   (the FROM table, then each joined table), in one flat `Vec`, so a
//!   query without joins allocates nothing per row. LEFT JOIN pads a
//!   probe row that matches nothing with `NULL_ROW`, which reads as
//!   NULL in every column. Joins chain the newly joined table's rows by
//!   key under [`Value::group_key`] equality and probe the chains with
//!   the accumulated tuples; NULL join keys never match (SQL semantics).
//!   A chain is found by its key's offset when the build keys are dense
//!   integers (every join of generated traffic: a foreign key into a
//!   primary key), through an `Index` otherwise.
//! * Expressions evaluate to `Cow<Value>`: literals, columns, group keys
//!   and aggregates are borrowed, computed values are owned. Conditions
//!   evaluate straight to a truth value.
//! * Aggregation evaluates each row's GROUP BY keys and aggregate
//!   arguments straight into the group accumulators; a group keeps its
//!   first row's key cells, and groups keep first-seen order. `COUNT(*)`
//!   reads no cell.
//! * Output rows (`Rows`) borrow database and plan cells and own only
//!   computed ones; DISTINCT, ORDER BY and LIMIT reorder row ordinals.
//!   ORDER BY with a smaller LIMIT selects the first rows, then sorts
//!   only those, when the keys are totally ordered; else it sorts all.
//!   [`execute_plan`] copies the surviving cells into a [`QueryResult`];
//!   EX ([`crate::result::execution_accuracy`]) compares the rows in
//!   place and copies nothing.
//! * Every hashed step (join, GROUP BY, DISTINCT, aggregate DISTINCT)
//!   uses the one fixed hasher and table of `crate::index`.
//!
//! Predicates run after all joins, so exactly the rows of the joined
//! input are evaluated: a predicate pushed below a join could raise a
//! type error on a row the join would have dropped.

use crate::ast::{AggFunc, BinOp, JoinKind, SelectStmt};
use crate::error::{Error, Result};
use crate::index::{hash_row, hash_value, rows_eq, Index};
use crate::parser::parse;
use crate::plan::{bind, AggregatePlan, BoundExpr, JoinStep, Plan};
use crate::result::QueryResult;
use crate::schema::Database;
use crate::value::{GroupKey, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

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
    fn new(db: &'a Database, plan: &Plan) -> Self {
        let catalog_idxs =
            std::iter::once(plan.base_table_idx).chain(plan.joins.iter().map(|j| j.table_idx));
        let mut input = Input {
            tables: Vec::with_capacity(plan.joins.len() + 1),
            columns: Vec::new(),
        };
        for (table, idx) in catalog_idxs.enumerate() {
            let data = db.table_data_at(idx);
            input.tables.push(data.rows());
            input.columns.extend((0..data.arity()).map(|c| (table, c)));
        }
        input
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
/// the group's key cells and finished aggregates. Cells live for `'a`,
/// the database and the plan; the context itself only for `'e`.
struct EvalCtx<'e, 'a> {
    input: &'e Input<'a>,
    tuple: &'e [usize],
    group_keys: &'e [Cow<'a, Value>],
    agg_values: &'e [Cow<'a, Value>],
}

impl<'e, 'a> EvalCtx<'e, 'a> {
    fn row(input: &'e Input<'a>, tuple: &'e [usize]) -> Self {
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
    fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    fn from_value(v: &Value) -> Result<Truth> {
        match v {
            Value::Null => Ok(Truth::Unknown),
            Value::Bool(b) => Ok(Truth::from_bool(*b)),
            // Numeric truthiness (SQLite-style): nonzero = true.
            Value::Int(i) => Ok(Truth::from_bool(*i != 0)),
            Value::Float(f) => Ok(Truth::from_bool(*f != 0.0)),
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
///
/// Always inlined: left to itself the compiler calls it out of line from
/// [`truth`], which made a text-equality filter about twice as slow.
#[inline(always)]
fn eval<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'_, 'a>) -> Result<Cow<'a, Value>> {
    Ok(match expr {
        BoundExpr::Literal(v) => Cow::Borrowed(v),
        BoundExpr::ColumnIdx(i) => Cow::Borrowed(ctx.input.cell(ctx.tuple, *i)),
        computed => computed_eval(computed, ctx)?,
    })
}

/// The rest of [`eval`], kept out of line so that [`eval`] stays small
/// enough to inline into the per-row loops: inlined, this made every
/// filter slower.
#[inline(never)]
fn computed_eval<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'_, 'a>) -> Result<Cow<'a, Value>> {
    use BinOp::*;
    Ok(match expr {
        BoundExpr::GroupKeyRef(i) => ctx.group_keys[*i].clone(),
        BoundExpr::AggRef(i) => ctx.agg_values[*i].clone(),
        BoundExpr::Binary {
            op: op @ (Add | Sub | Mul | Div),
            left,
            right,
        } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            Cow::Owned(arithmetic(*op, &l, &r)?)
        }
        condition @ (BoundExpr::Binary {
            op: Eq | Ne | Lt | Le | Gt | Ge | And | Or,
            ..
        }
        | BoundExpr::Not(_)
        | BoundExpr::IsNull { .. }
        | BoundExpr::Like { .. }
        | BoundExpr::InList { .. }) => Cow::Owned(truth(condition, ctx)?.to_value()),
        BoundExpr::Literal(_) | BoundExpr::ColumnIdx(_) => unreachable!("eval borrows these"),
    })
}

/// `l op r` for an arithmetic `op`.
fn arithmetic(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic stays integral except division.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            Add => Value::Int(a.wrapping_add(*b)),
            Sub => Value::Int(a.wrapping_sub(*b)),
            Mul => Value::Int(a.wrapping_mul(*b)),
            _ if *b == 0 => Value::Null, // SQLite: x/0 is NULL
            _ => Value::Float(*a as f64 / *b as f64),
        });
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(Error::Type("arithmetic on non-numeric value".into()));
    };
    Ok(match op {
        Add => Value::Float(a + b),
        Sub => Value::Float(a - b),
        Mul => Value::Float(a * b),
        _ if b == 0.0 => Value::Null,
        _ => Value::Float(a / b),
    })
}

/// The truth value of an expression: `Truth::from_value` of its
/// [`eval`], computed without building the boolean for conditions.
fn truth<'a>(expr: &'a BoundExpr, ctx: &EvalCtx<'_, 'a>) -> Result<Truth> {
    use BinOp::*;
    Ok(match expr {
        BoundExpr::Not(inner) => truth(inner, ctx)?.not(),
        BoundExpr::IsNull { expr, negated } => {
            Truth::from_bool(eval(expr, ctx)?.is_null() != *negated)
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => match &*eval(expr, ctx)? {
            Value::Null => Truth::Unknown,
            Value::Text(s) => Truth::from_bool(like_match(s, pattern) != *negated),
            other => return Err(Error::Type(format!("LIKE on non-text value {other}"))),
        },
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, ctx)?;
            if v.is_null() {
                return Ok(Truth::Unknown);
            }
            let mut saw_null = false;
            for item in list {
                match v.sql_eq(item) {
                    Some(true) => return Ok(Truth::from_bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Truth::Unknown // x IN (…, NULL) is unknown when no match
            } else {
                Truth::from_bool(*negated)
            }
        }
        // Short-circuit-aware three-valued AND/OR.
        BoundExpr::Binary {
            op: And,
            left,
            right,
        } => match truth(left, ctx)? {
            Truth::False => Truth::False,
            l => l.and(truth(right, ctx)?),
        },
        BoundExpr::Binary {
            op: Or,
            left,
            right,
        } => match truth(left, ctx)? {
            Truth::True => Truth::True,
            l => l.or(truth(right, ctx)?),
        },
        BoundExpr::Binary {
            op: op @ (Eq | Ne),
            left,
            right,
        } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            match l.sql_eq(&r) {
                None => Truth::Unknown,
                Some(eq) => Truth::from_bool(eq == (*op == Eq)),
            }
        }
        BoundExpr::Binary {
            op: op @ (Lt | Le | Gt | Ge),
            left,
            right,
        } => {
            let l = eval(left, ctx)?;
            let r = eval(right, ctx)?;
            match l.sql_cmp(&r) {
                None => Truth::Unknown,
                Some(ord) => Truth::from_bool(match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    _ => ord.is_ge(),
                }),
            }
        }
        // Values: cells, literals, group keys, aggregates, arithmetic.
        value @ (BoundExpr::Literal(_)
        | BoundExpr::ColumnIdx(_)
        | BoundExpr::GroupKeyRef(_)
        | BoundExpr::AggRef(_)
        | BoundExpr::Binary {
            op: Add | Sub | Mul | Div,
            ..
        }) => Truth::from_value(&*eval(value, ctx)?)?,
    })
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
    let key_of = |row: usize| &build[row][step.build_key];
    // Build side: each distinct key's (first, last) row, chained in row
    // order through `next`; NULL keys excluded (never match). A key's
    // chain is found by its offset when the keys are dense integers (a
    // foreign key into a primary key), by an `Index` otherwise.
    let dense = dense_span(build.iter().map(|row| &row[step.build_key]));
    let mut index = Index::default();
    let mut chains = vec![(CHAIN_END, CHAIN_END); dense.map_or(0, |(_, len)| len)];
    let mut next = vec![CHAIN_END; build.len()];
    for i in 0..build.len() {
        let key = key_of(i);
        if key.is_null() {
            continue;
        }
        let id = match dense {
            Some((min, len)) => offset(key, min, len).expect("dense keys span every key"),
            None => {
                let k = key.key();
                let (id, new) =
                    index.find_or_insert(hash_value(key), |id| key_of(chains[id].0).key() == k);
                if new {
                    chains.push((CHAIN_END, CHAIN_END));
                }
                id
            }
        };
        match chains[id] {
            (CHAIN_END, _) => chains[id] = (i, i),
            (_, last) => {
                next[last] = i;
                chains[id].1 = i;
            }
        }
    }

    let width = probe.width + 1;
    let mut out = Vec::with_capacity(probe.idx.len() + probe.len());
    for tuple in probe.iter() {
        let key = input.cell(tuple, step.probe_key);
        let id = match dense {
            _ if key.is_null() => None,
            Some((min, len)) => offset(key, min, len),
            None => {
                let k = key.key();
                index.find(hash_value(key), |id| key_of(chains[id].0).key() == k)
            }
        };
        match id.map(|id| chains[id].0) {
            Some(mut i) if i != CHAIN_END => {
                while i != CHAIN_END {
                    out.extend_from_slice(tuple);
                    out.push(i);
                    i = next[i];
                }
            }
            _ if step.kind == JoinKind::Left => {
                out.extend_from_slice(tuple);
                out.push(NULL_ROW);
            }
            _ => {}
        }
    }
    Tuples { width, idx: out }
}

/// `(min, max - min + 1)` of the join keys when every one but NULL is
/// an integer key ([`Value::key`]) and they span at most about twice
/// their count, so that a table indexed by offset stays small.
fn dense_span<'v>(keys: impl Iterator<Item = &'v Value>) -> Option<(i64, usize)> {
    let (mut min, mut max, mut n) = (i64::MAX, i64::MIN, 0u64);
    for key in keys {
        match key.key() {
            GroupKey::Null => {}
            GroupKey::Int(k) => {
                min = min.min(k);
                max = max.max(k);
                n += 1;
            }
            _ => return None,
        }
    }
    let span = u64::try_from(max.checked_sub(min)?).ok()? + 1;
    (n > 0 && span <= 2 * n + 16).then_some((min, span as usize))
}

/// The offset of `key` in a dense span from `min`: `None` for a key
/// that is not an integer key or falls outside, so matches no build key.
fn offset(key: &Value, min: i64, len: usize) -> Option<usize> {
    match key.key() {
        GroupKey::Int(k) => usize::try_from(k.checked_sub(min)?)
            .ok()
            .filter(|&off| off < len),
        _ => None,
    }
}

/// Keep the tuples `pred` holds for, in order, compacting in place.
fn filter(input: &Input, mut rows: Tuples, pred: &BoundExpr) -> Result<Tuples> {
    let width = rows.width;
    let mut kept = 0;
    for r in 0..rows.len() {
        let tuple = &rows.idx[r * width..(r + 1) * width];
        if truth(pred, &EvalCtx::row(input, tuple))? == Truth::True {
            rows.idx
                .copy_within(r * width..(r + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.idx.truncate(kept * width);
    Ok(rows)
}

/// The values an aggregate's DISTINCT has let through.
#[derive(Default)]
struct Distinct<'a> {
    index: Index,
    values: Vec<Cow<'a, Value>>,
}

impl<'a> Distinct<'a> {
    /// Whether `v` is new, recording it if so.
    fn insert(&mut self, v: Cow<'a, Value>) -> bool {
        let k = v.key();
        let values = &self.values;
        let (_, new) = self
            .index
            .find_or_insert(hash_value(&v), |id| values[id].key() == k);
        if new {
            self.values.push(v);
        }
        new
    }
}

/// Aggregate accumulator for one (group, aggregate) pair. MIN and MAX
/// keep the argument cell they hold, borrowed where it was.
struct AggState<'a> {
    count: u64,
    sum: f64,
    saw_float: bool,
    extreme: Option<Cow<'a, Value>>,
    distinct: Option<Distinct<'a>>,
}

impl<'a> AggState<'a> {
    fn new(distinct: bool) -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            saw_float: false,
            extreme: None,
            distinct: distinct.then(Distinct::default),
        }
    }

    fn update(&mut self, func: AggFunc, v: Cow<'a, Value>) {
        if v.is_null() {
            return; // aggregates skip NULLs
        }
        if let Some(seen) = &mut self.distinct {
            if !seen.insert(v.clone()) {
                return;
            }
        }
        self.count += 1;
        let wanted = match func {
            AggFunc::Count => return,
            AggFunc::Sum | AggFunc::Avg => {
                if let Some(f) = v.as_f64() {
                    self.sum += f;
                    self.saw_float |= matches!(*v, Value::Float(_));
                }
                return;
            }
            AggFunc::Min => Ordering::Less,
            AggFunc::Max => Ordering::Greater,
        };
        if self
            .extreme
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(wanted))
        {
            self.extreme = Some(v);
        }
    }

    fn finish(self, func: AggFunc) -> Cow<'a, Value> {
        Cow::Owned(match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum)
                } else {
                    Value::Int(self.sum as i64)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => return self.extreme.unwrap_or(Cow::Owned(Value::Null)),
        })
    }
}

/// Groups in first-seen order: each group's first row's key cells,
/// `group_by.len()` per group, and its finished aggregates,
/// `aggs.len()` per group.
struct Groups<'a> {
    len: usize,
    keys: Vec<Cow<'a, Value>>,
    values: Vec<Cow<'a, Value>>,
}

/// Group the rows, evaluating row by row the GROUP BY expressions and
/// then the aggregate arguments straight into the accumulators.
fn aggregate<'a>(
    input: &Input<'a>,
    rows: &Tuples,
    agg_plan: &'a AggregatePlan,
) -> Result<Groups<'a>> {
    let (n_keys, n_aggs) = (agg_plan.group_by.len(), agg_plan.aggs.len());
    let fresh = || agg_plan.aggs.iter().map(|a| AggState::new(a.distinct));
    let mut index = Index::default();
    let mut keys: Vec<Cow<'a, Value>> = Vec::new();
    let mut states: Vec<AggState<'a>> = Vec::new();
    let mut row_keys: Vec<Cow<'a, Value>> = Vec::with_capacity(n_keys);
    for tuple in rows.iter() {
        let ctx = EvalCtx::row(input, tuple);
        row_keys.clear();
        for g in &agg_plan.group_by {
            row_keys.push(eval(g, &ctx)?);
        }
        let group_keys = |g: usize| &keys[g * n_keys..(g + 1) * n_keys];
        let (g, new) =
            index.find_or_insert(hash_row(&row_keys), |g| rows_eq(group_keys(g), &row_keys));
        if new {
            keys.append(&mut row_keys);
            states.extend(fresh());
        }
        for (agg, state) in agg_plan.aggs.iter().zip(&mut states[g * n_aggs..]) {
            match &agg.arg {
                // COUNT(*): every row counts, including NULL-heavy ones.
                None => state.count += 1,
                Some(arg) => state.update(agg.func, eval(arg, &ctx)?),
            }
        }
    }
    let mut len = index.len();
    // Global aggregate over an empty input still yields one group.
    if len == 0 && n_keys == 0 {
        len = 1;
        states.extend(fresh());
    }
    let values = states
        .into_iter()
        .zip(agg_plan.aggs.iter().cycle())
        .map(|(s, a)| s.finish(a.func))
        .collect();
    Ok(Groups { len, keys, values })
}

/// The rows a plan produces, as evaluated: `width` cells per row,
/// borrowed from the database or the plan where the expressions allow
/// and owned where computed, and the ordinals of the rows that survive
/// DISTINCT, ORDER BY and LIMIT, in output order.
pub(crate) struct Rows<'a> {
    width: usize,
    cells: Vec<Cow<'a, Value>>,
    order: Vec<usize>,
    /// Whether the plan has an ORDER BY (order is semantic).
    pub(crate) ordered: bool,
}

impl<'a> Rows<'a> {
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// The rows, in output order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = &[Cow<'a, Value>]> {
        self.order
            .iter()
            .map(|&i| &self.cells[i * self.width..(i + 1) * self.width])
    }
}

/// The projected cells and ORDER BY keys of the output rows, in
/// evaluation order.
struct Output<'a> {
    n_rows: usize,
    cells: Vec<Cow<'a, Value>>,
    sort_keys: Vec<Cow<'a, Value>>,
}

impl<'a> Output<'a> {
    /// Room for `n_rows` rows.
    fn with_capacity(plan: &Plan, n_rows: usize) -> Self {
        Output {
            n_rows: 0,
            cells: Vec::with_capacity(n_rows * plan.projections.len()),
            sort_keys: Vec::with_capacity(n_rows * plan.order_by.len()),
        }
    }

    fn push(&mut self, plan: &'a Plan, ctx: &EvalCtx<'_, 'a>) -> Result<()> {
        for p in &plan.projections {
            self.cells.push(eval(p, ctx)?);
        }
        for (o, _) in &plan.order_by {
            self.sort_keys.push(eval(o, ctx)?);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// DISTINCT, ORDER BY and LIMIT over row ordinals.
    fn finish(self, plan: &Plan) -> Rows<'a> {
        let width = plan.projections.len();
        let n_keys = plan.order_by.len();
        let row = |i: usize| &self.cells[i * width..(i + 1) * width];

        // DISTINCT on the projected row: the first of each.
        let mut order: Vec<usize> = if plan.distinct {
            let mut index = Index::with_capacity(self.n_rows);
            let mut firsts: Vec<usize> = Vec::new();
            for i in 0..self.n_rows {
                let (_, new) =
                    index.find_or_insert(hash_row(row(i)), |id| rows_eq(row(firsts[id]), row(i)));
                if new {
                    firsts.push(i);
                }
            }
            firsts
        } else {
            (0..self.n_rows).collect()
        };

        // ORDER BY: stable sort on the evaluated keys, NULLs first.
        if n_keys > 0 {
            let keys: Vec<&Value> = self.sort_keys.iter().map(|k| &**k).collect();
            let key = |i: usize| &keys[i * n_keys..(i + 1) * n_keys];
            let cmp = |&a: &usize, &b: &usize| {
                for ((x, y), (_, desc)) in key(a).iter().zip(key(b)).zip(&plan.order_by) {
                    let ord = x.total_cmp(y);
                    if ord != Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                Ordering::Equal
            };
            match plan.limit.map(|limit| limit as usize) {
                // Under a total order, the stable sort's first `limit`
                // rows are the `limit` least by (keys, ordinal), as
                // `order` is ascending: select those, sort only them.
                Some(limit) if limit < order.len() && keys.iter().all(|k| totally_ordered(k)) => {
                    let by_rank = |a: &usize, b: &usize| cmp(a, b).then(a.cmp(b));
                    if limit > 0 {
                        order.select_nth_unstable_by(limit - 1, by_rank);
                    }
                    order.truncate(limit);
                    order.sort_unstable_by(by_rank);
                }
                _ => order.sort_by(cmp),
            }
        }

        // LIMIT.
        if let Some(limit) = plan.limit {
            order.truncate(limit as usize);
        }

        Rows {
            width,
            cells: self.cells,
            order,
            ordered: n_keys > 0,
        }
    }
}

/// Whether [`Value::total_cmp`] orders `v` consistently with every other
/// value: all but integers too large for an `f64` to hold exactly,
/// which compare with floats through a rounded twin.
fn totally_ordered(v: &Value) -> bool {
    !matches!(v, Value::Int(i) if i.unsigned_abs() > 1 << f64::MANTISSA_DIGITS)
}

/// Run a bound plan into rows that borrow the database and the plan.
pub(crate) fn rows<'a>(db: &'a Database, plan: &'a Plan) -> Result<Rows<'a>> {
    let input = Input::new(db, plan);
    let mut tuples = scan_and_join(&input, plan);
    if let Some(f) = &plan.filter {
        tuples = filter(&input, tuples, f)?;
    }

    let out = match &plan.aggregate {
        Some(agg_plan) => {
            let groups = aggregate(&input, &tuples, agg_plan)?;
            let mut out = Output::with_capacity(plan, groups.len);
            let (n_keys, n_aggs) = (agg_plan.group_by.len(), agg_plan.aggs.len());
            for g in 0..groups.len {
                let ctx = EvalCtx {
                    input: &input,
                    tuple: &[],
                    group_keys: &groups.keys[g * n_keys..(g + 1) * n_keys],
                    agg_values: &groups.values[g * n_aggs..(g + 1) * n_aggs],
                };
                if let Some(h) = &agg_plan.having {
                    if truth(h, &ctx)? != Truth::True {
                        continue;
                    }
                }
                out.push(plan, &ctx)?;
            }
            out
        }
        None => {
            let mut out = Output::with_capacity(plan, tuples.len());
            for tuple in tuples.iter() {
                out.push(plan, &EvalCtx::row(&input, tuple))?;
            }
            out
        }
    };
    Ok(out.finish(plan))
}

/// Execute a bound plan.
pub fn execute_plan(db: &Database, plan: &Plan) -> Result<QueryResult> {
    let rows = rows(db, plan)?;
    Ok(QueryResult {
        columns: plan.output_names.clone(),
        rows: rows
            .iter()
            .map(|row| row.iter().map(|cell| Value::clone(cell)).collect())
            .collect(),
        ordered: rows.ordered,
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
