//! The borrowed executor against the materialising [`reference`] one, on
//! random small databases and random statements over them.
//!
//! Tables hold NULLs, duplicate join keys, Int/Float twins (`1` and
//! `1.0` are one join key) and short texts. Statements draw 0–2 INNER or
//! LEFT joins, WHERE trees of AND/OR/NOT/IS NULL/IN/LIKE and
//! comparisons, GROUP BY/HAVING or plain projections, DISTINCT, ORDER
//! BY and LIMIT. Some of them raise type errors on some rows (text in
//! arithmetic, LIKE on numbers, text as a boolean), so the first
//! failing row must match too. Results are compared by their `Debug`
//! text, which tells `Int(1)` from `Float(1.0)` and keeps row order.

use super::{execute_plan, execute_sql, like_match, reference};
use crate::parser::parse;
use crate::plan::bind;
use crate::result::{execution_accuracy, results_match, ExecOutcome};
use crate::schema::{ColumnDef, DataType, Database, TableSchema};
use crate::value::Value;
use proptest::prelude::*;

const TABLES: [&str; 3] = ["t0", "t1", "t2"];
const COLUMNS: [&str; 5] = ["id", "k", "name", "x", "flag"];

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
    &items[rng.below(items.len())]
}

fn chance(rng: &mut TestRng, p: f64) -> bool {
    rng.next_f64() < p
}

/// `id` and `k` cells of [`random_db`]: a few small integer keys, and
/// Int/Float twins.
const IDS: [Value; 5] = [
    Value::Int(0),
    Value::Int(1),
    Value::Int(2),
    Value::Int(3),
    Value::Int(4),
];
const KEYS: [Value; 6] = [
    Value::Int(1),
    Value::Int(2),
    Value::Float(1.0),
    Value::Float(2.0),
    Value::Float(2.5),
    Value::Null,
];

/// Cells for [`wide_keys_match_the_reference`]: integer join keys that
/// span too widely to index by offset or overflow the span, and
/// integers beyond 2^53 beside the floats they round to, which
/// `Value::total_cmp` does not order transitively.
const WIDE_IDS: [Value; 9] = [
    Value::Int(0),
    Value::Int(1),
    Value::Int(2),
    Value::Int(-7),
    Value::Int(1000),
    Value::Int(i64::MIN),
    Value::Int(i64::MAX),
    Value::Int(1 << 53),
    Value::Int((1 << 53) + 1),
];
const WIDE_KEYS: [Value; 8] = [
    Value::Int(1),
    Value::Float(1.0),
    Value::Int(1 << 53),
    Value::Int((1 << 53) + 1),
    Value::Float(9_007_199_254_740_992.0),
    Value::Int(-(1 << 53) - 1),
    Value::Float(-9_007_199_254_740_992.0),
    Value::Null,
];

fn random_db(rng: &mut TestRng) -> Database {
    random_db_from(rng, &IDS, &KEYS)
}

/// Up to 7 rows in each table, with `id` and `k` drawn from `ids` and
/// `keys`.
fn random_db_from(rng: &mut TestRng, ids: &[Value], keys: &[Value]) -> Database {
    let mut db = Database::new("random");
    for t in TABLES {
        db.create_table(
            TableSchema::new(t)
                .column(ColumnDef::new("id", DataType::Int))
                .column(ColumnDef::new("k", DataType::Float))
                .column(ColumnDef::new("name", DataType::Text))
                .column(ColumnDef::new("x", DataType::Float))
                .column(ColumnDef::new("flag", DataType::Bool)),
        )
        .expect("fresh table");
        for _ in 0..rng.below(8) {
            let id = pick(rng, ids).clone();
            let k = pick(rng, keys).clone();
            let name = match *pick(rng, &["a", "ab", "b", "ba", "abc", "é", ""]) {
                _ if chance(rng, 0.15) => Value::Null,
                s => Value::text(s),
            };
            let x = match rng.below(4) {
                0 => Value::Null,
                1 => Value::Int(rng.below(7) as i64 - 3),
                _ => Value::Float((rng.below(13) as f64 - 6.0) / 4.0),
            };
            let flag = *pick(rng, &[Some(true), Some(false), None]);
            let flag = flag.map_or(Value::Null, Value::Bool);
            db.insert(t, vec![id, k, name, x, flag])
                .expect("row fits the schema");
        }
    }
    db
}

/// Random SQL over `db`'s tables; columns are always qualified.
struct StmtGen<'r> {
    rng: &'r mut TestRng,
    scope: Vec<&'static str>,
}

impl StmtGen<'_> {
    fn col(&mut self) -> String {
        let t = *pick(self.rng, &self.scope);
        format!("{t}.{}", pick(self.rng, &COLUMNS))
    }

    fn literal(&mut self) -> String {
        pick(
            self.rng,
            &["1", "2", "0", "-1", "1.5", "'a'", "'é'", "NULL", "TRUE"],
        )
        .to_string()
    }

    fn operand(&mut self) -> String {
        match self.rng.below(6) {
            0 => self.literal(),
            1 => format!("{} + {}", self.col(), self.literal()),
            2 => format!("{} * {}", self.col(), self.col()),
            3 => format!("{} / {}", self.col(), self.literal()),
            _ => self.col(),
        }
    }

    fn predicate(&mut self, depth: usize) -> String {
        let leaf = depth == 0 || chance(self.rng, 0.4);
        if !leaf {
            return match self.rng.below(3) {
                0 => format!(
                    "({} AND {})",
                    self.predicate(depth - 1),
                    self.predicate(depth - 1)
                ),
                1 => format!(
                    "({} OR {})",
                    self.predicate(depth - 1),
                    self.predicate(depth - 1)
                ),
                _ => format!("NOT {}", self.predicate(depth - 1)),
            };
        }
        let not = if chance(self.rng, 0.3) { "NOT " } else { "" };
        match self.rng.below(6) {
            0 => format!("{} IS {not}NULL", self.col()),
            1 => {
                let pattern = pick(self.rng, &["a%", "%b", "_b%", "%", "a_c", "%é", "%a%a%"]);
                format!("{} {not}LIKE '{pattern}'", self.col())
            }
            2 => {
                let list: Vec<String> = (0..1 + self.rng.below(3))
                    .map(|_| {
                        let items = ["1", "2", "-1", "1.5", "-2.5", "'a'", "'é'", "NULL"];
                        pick(self.rng, &items).to_string()
                    })
                    .collect();
                format!("{} {not}IN ({})", self.col(), list.join(", "))
            }
            // A bare column or literal as a boolean.
            3 if chance(self.rng, 0.3) => self.operand(),
            _ => {
                let op = pick(self.rng, &["=", "<>", "<", "<=", ">", ">="]);
                format!("{} {op} {}", self.operand(), self.operand())
            }
        }
    }

    fn agg(&mut self) -> String {
        match self.rng.below(6) {
            0 => "COUNT(*)".into(),
            1 => format!("COUNT(DISTINCT {})", self.col()),
            2 => format!("SUM({})", self.col()),
            3 => format!("AVG({})", self.operand()),
            4 => format!("MIN({})", self.col()),
            _ => format!("MAX({})", self.col()),
        }
    }

    /// A projection of an ungrouped query: mostly values, sometimes a
    /// predicate, so that projections raise every kind of type error.
    fn item(&mut self) -> String {
        if chance(self.rng, 0.2) {
            self.predicate(1)
        } else {
            self.operand()
        }
    }

    /// ORDER BY keys: projected items, or expressions of their own, whose
    /// errors must surface in the same order as the reference's.
    fn order_by(&mut self, items: &[String], grouped: bool) -> String {
        let keys: Vec<String> = (0..1 + self.rng.below(2))
            .map(|_| {
                let key = match self.rng.below(3) {
                    0 if grouped => self.agg(),
                    0 => self.item(),
                    _ => pick(self.rng, items).clone(),
                };
                let dir = if chance(self.rng, 0.5) { " DESC" } else { "" };
                format!("{key}{dir}")
            })
            .collect();
        format!(" ORDER BY {}", keys.join(", "))
    }

    fn statement(&mut self) -> String {
        let mut tables = TABLES.to_vec();
        let from = tables.remove(self.rng.below(tables.len()));
        self.scope = vec![from];
        let mut sql = String::new();
        for _ in 0..self.rng.below(3) {
            let joined = tables.remove(self.rng.below(tables.len()));
            let kind = if chance(self.rng, 0.5) {
                "LEFT JOIN"
            } else {
                "JOIN"
            };
            let probe = *pick(self.rng, &self.scope);
            let key = pick(self.rng, &["k", "k", "id"]);
            sql += &format!(" {kind} {joined} ON {probe}.{key} = {joined}.{key}");
            self.scope.push(joined);
        }
        if chance(self.rng, 0.7) {
            sql += &format!(" WHERE {}", self.predicate(2));
        }
        let distinct = if chance(self.rng, 0.25) {
            "DISTINCT "
        } else {
            ""
        };
        let grouped = chance(self.rng, 0.4);
        let items: Vec<String> = if grouped {
            let group_by: Vec<String> = (0..self.rng.below(3)).map(|_| self.col()).collect();
            let mut items = group_by.clone();
            items.extend((0..1 + self.rng.below(2)).map(|_| self.agg()));
            if !group_by.is_empty() {
                sql += &format!(" GROUP BY {}", group_by.join(", "));
            }
            if chance(self.rng, 0.3) {
                let op = pick(self.rng, &["=", ">", "<"]);
                sql += &format!(" HAVING {} {op} {}", self.agg(), self.literal());
            }
            items
        } else {
            (0..1 + self.rng.below(3)).map(|_| self.item()).collect()
        };
        if chance(self.rng, 0.6) {
            sql += &self.order_by(&items, grouped);
        }
        if chance(self.rng, 0.3) {
            sql += &format!(" LIMIT {}", self.rng.below(5));
        }
        format!("SELECT {distinct}{} FROM {from}{sql}", items.join(", "))
    }
}

/// A random database and a random statement over it.
fn random_case(seed: u64) -> (Database, String) {
    let mut rng = TestRng::new(seed);
    let db = random_db(&mut rng);
    let sql = StmtGen {
        rng: &mut rng,
        scope: Vec::new(),
    }
    .statement();
    (db, sql)
}

/// A random database and two statements over it: a gold one, and a
/// prediction that is another random statement, the gold spelled
/// differently (same answer), or text that does not parse.
fn random_pair(seed: u64) -> (Database, String, String) {
    let mut rng = TestRng::new(seed);
    let db = random_db(&mut rng);
    let statement = |rng: &mut TestRng| {
        StmtGen {
            rng,
            scope: Vec::new(),
        }
        .statement()
    };
    let gold = statement(&mut rng);
    let pred = match rng.below(6) {
        0 => format!("{gold} "),
        1 => gold.replacen("SELECT", "SELECT SELECT", 1),
        _ => statement(&mut rng),
    };
    (db, gold, pred)
}

/// EX with both results materialised by the reference executor and
/// compared by `results_match`.
fn reference_ex(db: &Database, gold_sql: &str, pred_sql: &str) -> ExecOutcome {
    let run = |sql: &str| reference::execute_plan(db, &bind(db, &parse(sql)?)?);
    let Ok(gold) = run(gold_sql) else {
        return ExecOutcome::GoldError;
    };
    let Ok(pred) = run(pred_sql) else {
        return ExecOutcome::PredictionError;
    };
    if results_match(&gold, &pred) {
        ExecOutcome::Correct
    } else {
        ExecOutcome::WrongResult
    }
}

/// EX by executing both statements, as `execution_accuracy` does for
/// every pair of different strings.
fn two_execution_ex(db: &Database, gold_sql: &str, pred_sql: &str) -> ExecOutcome {
    let Ok(gold) = execute_sql(db, gold_sql) else {
        return ExecOutcome::GoldError;
    };
    let Ok(pred) = execute_sql(db, pred_sql) else {
        return ExecOutcome::PredictionError;
    };
    if results_match(&gold, &pred) {
        ExecOutcome::Correct
    } else {
        ExecOutcome::WrongResult
    }
}

/// A random database, a random statement over it, and the outcomes of
/// the borrowed executor and of the reference as `Debug` text. `None`
/// when the statement does not bind.
fn run_both(seed: u64) -> Option<(String, String, String)> {
    let (db, sql) = random_case(seed);
    run_both_on(&db, sql)
}

fn run_both_on(db: &Database, sql: String) -> Option<(String, String, String)> {
    let stmt = parse(&sql).unwrap_or_else(|e| panic!("generated SQL must parse: {sql}: {e}"));
    let plan = bind(db, &stmt).ok()?;
    let fast = format!("{:?}", execute_plan(db, &plan));
    let oracle = format!("{:?}", reference::execute_plan(db, &plan));
    Some((sql, fast, oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn executor_matches_materialising_reference(seed in any::<u64>()) {
        if let Some((sql, fast, oracle)) = run_both(seed) {
            prop_assert_eq!(fast, oracle, "{}", sql);
        }
    }

    /// Joins whose integer keys are sparse or overflow a span, and ORDER
    /// BY … LIMIT over keys that are not totally ordered, take the
    /// executor's general paths and still match the reference.
    #[test]
    fn wide_keys_match_the_reference(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let db = random_db_from(&mut rng, &WIDE_IDS, &WIDE_KEYS);
        let sql = if chance(&mut rng, 0.5) {
            StmtGen { rng: &mut rng, scope: Vec::new() }.statement()
        } else {
            let t = pick(&mut rng, &TABLES);
            let desc = if chance(&mut rng, 0.5) { " DESC" } else { "" };
            let limit = rng.below(5);
            format!("SELECT {t}.id, {t}.k FROM {t} ORDER BY {t}.k{desc} LIMIT {limit}")
        };
        if let Some((sql, fast, oracle)) = run_both_on(&db, sql) {
            prop_assert_eq!(fast, oracle, "{}", sql);
        }
    }

    /// EX of a statement against itself executes it once; that must
    /// equal executing it twice and comparing, because results match
    /// themselves.
    #[test]
    fn identical_sql_ex_matches_two_executions(seed in any::<u64>()) {
        let (db, sql) = random_case(seed);
        if let Ok(r) = execute_sql(&db, &sql) {
            prop_assert!(results_match(&r, &r), "{}", sql);
        }
        prop_assert_eq!(
            execution_accuracy(&db, &sql, &sql),
            two_execution_ex(&db, &sql, &sql),
            "{}", sql
        );
    }

    /// EX of two different statements, either of which may fail to
    /// parse, bind or execute, equals EX over the reference's
    /// materialised results.
    #[test]
    fn differing_sql_ex_matches_the_reference(seed in any::<u64>()) {
        let (db, gold, pred) = random_pair(seed);
        prop_assert_eq!(
            execution_accuracy(&db, &gold, &pred),
            reference_ex(&db, &gold, &pred),
            "gold: {}\npred: {}", gold, pred
        );
    }

    #[test]
    fn like_matches_recursive_reference(
        text in "[ab%_]{0,8}",
        pattern in "[ab%_]{0,6}",
    ) {
        prop_assert_eq!(
            like_match(&text, &pattern),
            reference::like_match(&text, &pattern),
            "{:?} LIKE {:?}", text, pattern
        );
    }
}

/// The pairs reach every EX outcome.
#[test]
fn random_pairs_reach_every_outcome() {
    let mut counts = [0usize; 4];
    for seed in 0..500 {
        let (db, gold, pred) = random_pair(seed);
        counts[reference_ex(&db, &gold, &pred) as usize] += 1;
    }
    // Correct, WrongResult, PredictionError, GoldError.
    assert!(counts.iter().all(|&n| n > 25), "{counts:?}");
}

/// The generator reaches what the proptest is meant to cover: joins,
/// grouping, non-empty results and rows that raise errors.
#[test]
fn statement_generator_covers_the_grammar() {
    let (mut bound, mut rows, mut errors, mut left, mut grouped) = (0, 0, 0, 0, 0);
    for seed in 0..500 {
        let Some((sql, fast, _)) = run_both(seed) else {
            continue;
        };
        bound += 1;
        if fast.starts_with("Err") {
            errors += 1;
        } else if !fast.contains("rows: []") {
            rows += 1;
        }
        left += sql.contains("LEFT JOIN") as usize;
        grouped += ["COUNT(", "SUM(", "AVG(", "MIN(", "MAX("]
            .iter()
            .any(|agg| sql.contains(agg)) as usize;
    }
    assert!(bound > 400, "{bound} of 500 statements bound");
    assert!(rows > 100, "{rows} non-empty results");
    assert!(errors > 50, "{errors} execution errors");
    assert!(left > 100, "{left} LEFT JOINs");
    assert!(grouped > 100, "{grouped} aggregated statements");
}
