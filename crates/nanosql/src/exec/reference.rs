//! The materialising executor this crate shipped before the borrowed
//! pipeline, kept verbatim as the oracle of the executor ≡ reference
//! proptest in [`super::tests`]. It clones every input row through scan,
//! join and filter; nothing outside the tests calls it.

use super::Truth;
use crate::error::{Error, Result};
use crate::plan::{AggregatePlan, BoundAgg, BoundExpr, JoinStep, Plan};
use crate::result::QueryResult;
use crate::schema::Database;
use crate::value::{GroupKey, Value};
use std::collections::{HashMap, HashSet};

/// Evaluation context: the joined input row, and (in the output phase)
/// the group keys and aggregate results.
struct EvalCtx<'a> {
    row: &'a [Value],
    group_keys: &'a [Value],
    agg_values: &'a [Value],
}

impl<'a> EvalCtx<'a> {
    fn row(row: &'a [Value]) -> Self {
        EvalCtx {
            row,
            group_keys: &[],
            agg_values: &[],
        }
    }

    fn group(group_keys: &'a [Value], agg_values: &'a [Value]) -> Self {
        EvalCtx {
            row: &[],
            group_keys,
            agg_values,
        }
    }
}

/// SQL LIKE with `%` (any run) and `_` (any single char), case sensitive.
pub(super) fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => {
                // Try every split point, including the empty one.
                (0..=t.len()).any(|i| rec(&t[i..], &p[1..]))
            }
            Some(b'_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(&c) => t.first() == Some(&c) && rec(&t[1..], &p[1..]),
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

fn eval(expr: &BoundExpr, ctx: &EvalCtx) -> Result<Value> {
    use crate::ast::BinOp::*;
    Ok(match expr {
        BoundExpr::Literal(v) => v.clone(),
        BoundExpr::ColumnIdx(i) => ctx.row[*i].clone(),
        BoundExpr::GroupKeyRef(i) => ctx.group_keys[*i].clone(),
        BoundExpr::AggRef(i) => ctx.agg_values[*i].clone(),
        BoundExpr::Not(inner) => Truth::from_value(&eval(inner, ctx)?)?.not().to_value(),
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
            match v {
                Value::Null => Value::Null,
                Value::Text(s) => Value::Bool(like_match(&s, pattern) != *negated),
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
                    let l = Truth::from_value(&eval(left, ctx)?)?;
                    if l == Truth::False {
                        return Ok(Value::Bool(false));
                    }
                    let r = Truth::from_value(&eval(right, ctx)?)?;
                    return Ok(l.and(r).to_value());
                }
                Or => {
                    let l = Truth::from_value(&eval(left, ctx)?)?;
                    if l == Truth::True {
                        return Ok(Value::Bool(true));
                    }
                    let r = Truth::from_value(&eval(right, ctx)?)?;
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
                    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
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
fn eval_predicate(expr: &BoundExpr, ctx: &EvalCtx) -> Result<bool> {
    Ok(Truth::from_value(&eval(expr, ctx)?)? == Truth::True)
}

/// Materialise the FROM table and fold in each join.
fn scan_and_join(db: &Database, plan: &Plan) -> Result<Vec<Vec<Value>>> {
    let base = &db.tables()[plan.base_table_idx];
    let data = db
        .table_data(&base.name)
        .ok_or_else(|| Error::Execution(format!("missing data for {}", base.name)))?;
    let mut rows: Vec<Vec<Value>> = data.rows().to_vec();

    for step in &plan.joins {
        rows = hash_join(db, rows, step)?;
    }
    Ok(rows)
}

fn hash_join(db: &Database, probe: Vec<Vec<Value>>, step: &JoinStep) -> Result<Vec<Vec<Value>>> {
    let build_schema = &db.tables()[step.table_idx];
    let build_data = db
        .table_data(&build_schema.name)
        .ok_or_else(|| Error::Execution(format!("missing data for {}", build_schema.name)))?;

    // Build side: key → row indices. NULL keys excluded (never match).
    let mut table: HashMap<GroupKey, Vec<usize>> = HashMap::with_capacity(build_data.len());
    for (i, row) in build_data.iter().enumerate() {
        let key = &row[step.build_key];
        if !key.is_null() {
            table.entry(key.group_key()).or_default().push(i);
        }
    }

    let mut out = Vec::with_capacity(probe.len());
    for row in probe {
        let key = &row[step.probe_key];
        let matches = if key.is_null() {
            None
        } else {
            table.get(&key.group_key())
        };
        match matches {
            Some(idxs) => {
                for &i in idxs {
                    let mut joined = row.clone();
                    joined.extend_from_slice(&build_data.rows()[i]);
                    out.push(joined);
                }
            }
            None => {
                if step.kind == crate::ast::JoinKind::Left {
                    let mut joined = row.clone();
                    joined.extend(std::iter::repeat_with(|| Value::Null).take(build_data.arity()));
                    out.push(joined);
                }
            }
        }
    }
    Ok(out)
}

/// Aggregate accumulator for one (group, aggregate) pair.
struct AggState {
    count: u64,
    sum: f64,
    saw_float: bool,
    min: Option<Value>,
    max: Option<Value>,
    distinct_seen: Option<HashSet<GroupKey>>,
}

impl AggState {
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

    fn update(&mut self, v: &Value) {
        if v.is_null() {
            return; // aggregates skip NULLs
        }
        if let Some(seen) = &mut self.distinct_seen {
            if !seen.insert(v.group_key()) {
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
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Less));
        if replace_min {
            self.min = Some(v.clone());
        }
        let replace_max = self
            .max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(std::cmp::Ordering::Greater));
        if replace_max {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self, agg: &BoundAgg) -> Value {
        use crate::ast::AggFunc::*;
        match agg.func {
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
            Min => self.min.clone().unwrap_or(Value::Null),
            Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

fn run_aggregation(
    rows: &[Vec<Value>],
    agg_plan: &AggregatePlan,
) -> Result<Vec<(Vec<Value>, Vec<Value>)>> {
    // Group rows. Key = evaluated GROUP BY expressions.
    let mut groups: HashMap<Vec<GroupKey>, (Vec<Value>, Vec<AggState>)> = HashMap::new();
    let mut order: Vec<Vec<GroupKey>> = Vec::new(); // first-seen order, deterministic

    for row in rows {
        let ctx = EvalCtx::row(row);
        let mut key_vals = Vec::with_capacity(agg_plan.group_by.len());
        for g in &agg_plan.group_by {
            key_vals.push(eval(g, &ctx)?);
        }
        let key: Vec<GroupKey> = key_vals.iter().map(Value::group_key).collect();
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (
                key_vals.clone(),
                agg_plan
                    .aggs
                    .iter()
                    .map(|a| AggState::new(a.distinct))
                    .collect(),
            )
        });
        for (agg, state) in agg_plan.aggs.iter().zip(entry.1.iter_mut()) {
            match &agg.arg {
                None => {
                    // COUNT(*): every row counts, including NULL-heavy ones.
                    state.count += 1;
                }
                Some(arg) => {
                    let v = eval(arg, &ctx)?;
                    state.update(&v);
                }
            }
        }
    }

    // Global aggregate over an empty input still yields one group.
    if groups.is_empty() && agg_plan.group_by.is_empty() {
        let states: Vec<AggState> = agg_plan
            .aggs
            .iter()
            .map(|a| AggState::new(a.distinct))
            .collect();
        let agg_values: Vec<Value> = agg_plan
            .aggs
            .iter()
            .zip(&states)
            .map(|(a, s)| s.finish(a))
            .collect();
        return Ok(vec![(Vec::new(), agg_values)]);
    }

    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let (key_vals, states) = groups.remove(&key).expect("group vanished");
        let agg_values: Vec<Value> = agg_plan
            .aggs
            .iter()
            .zip(&states)
            .map(|(a, s)| s.finish(a))
            .collect();
        out.push((key_vals, agg_values));
    }
    Ok(out)
}

/// Execute a bound plan.
pub fn execute_plan(db: &Database, plan: &Plan) -> Result<QueryResult> {
    let rows = scan_and_join(db, plan)?;

    // Filter.
    let mut filtered: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
    match &plan.filter {
        Some(f) => {
            for row in rows {
                if eval_predicate(f, &EvalCtx::row(&row))? {
                    filtered.push(row);
                }
            }
        }
        None => filtered = rows,
    }

    // Project (+aggregate) into (output row, sort key) pairs.
    let mut produced: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    match &plan.aggregate {
        Some(agg_plan) => {
            for (key_vals, agg_values) in run_aggregation(&filtered, agg_plan)? {
                let ctx = EvalCtx::group(&key_vals, &agg_values);
                if let Some(h) = &agg_plan.having {
                    if !eval_predicate(h, &ctx)? {
                        continue;
                    }
                }
                let mut out_row = Vec::with_capacity(plan.projections.len());
                for p in &plan.projections {
                    out_row.push(eval(p, &ctx)?);
                }
                let mut sort_key = Vec::with_capacity(plan.order_by.len());
                for (o, _) in &plan.order_by {
                    sort_key.push(eval(o, &ctx)?);
                }
                produced.push((out_row, sort_key));
            }
        }
        None => {
            for row in &filtered {
                let ctx = EvalCtx::row(row);
                let mut out_row = Vec::with_capacity(plan.projections.len());
                for p in &plan.projections {
                    out_row.push(eval(p, &ctx)?);
                }
                let mut sort_key = Vec::with_capacity(plan.order_by.len());
                for (o, _) in &plan.order_by {
                    sort_key.push(eval(o, &ctx)?);
                }
                produced.push((out_row, sort_key));
            }
        }
    }

    // DISTINCT on the projected row.
    if plan.distinct {
        let mut seen: HashSet<Vec<GroupKey>> = HashSet::with_capacity(produced.len());
        produced.retain(|(row, _)| seen.insert(row.iter().map(Value::group_key).collect()));
    }

    // ORDER BY: stable sort on the evaluated keys, NULLs first.
    if !plan.order_by.is_empty() {
        let descs: Vec<bool> = plan.order_by.iter().map(|(_, d)| *d).collect();
        produced.sort_by(|(_, ka), (_, kb)| {
            for ((a, b), desc) in ka.iter().zip(kb.iter()).zip(&descs) {
                let ord = a.total_cmp(b);
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
        produced.truncate(limit as usize);
    }

    Ok(QueryResult {
        columns: plan.output_names.clone(),
        rows: produced.into_iter().map(|(row, _)| row).collect(),
        ordered: !plan.order_by.is_empty(),
    })
}
