//! Criterion benches for the SQL engine: parsing, planning, execution
//! and EX comparison on generated workloads.
//!
//! `nanosql/execution_accuracy_dev` is shaped like evaluation traffic:
//! every dev instance's gold SQL against a simulated generator's SQL
//! for it (the gold query or a corruption of it), each pair parsed,
//! bound, executed and compared as one EX check.

use benchgen::BenchmarkProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use nanosql::exec::{execute, execute_sql};
use nanosql::plan::bind;
use nanosql::result::{execution_accuracy, ExecOutcome};
use rts_core::sqlgen::{ProvidedSchema, SqlGenModel};
use std::hint::black_box;

fn setup() -> benchgen::Benchmark {
    BenchmarkProfile::bird_like().scaled(0.01).generate(13)
}

fn bench_parse(c: &mut Criterion) {
    let bench = setup();
    let sqls: Vec<String> = bench
        .split
        .dev
        .iter()
        .take(50)
        .map(|i| i.gold_sql.to_string())
        .collect();
    c.bench_function("nanosql/parse_50_stmts", |b| {
        b.iter(|| {
            for s in &sqls {
                black_box(nanosql::parser::parse(s).unwrap());
            }
        })
    });
}

fn bench_bind(c: &mut Criterion) {
    let bench = setup();
    let work: Vec<_> = bench
        .split
        .dev
        .iter()
        .take(50)
        .map(|i| (bench.database(&i.db_name).unwrap(), i.gold_sql.clone()))
        .collect();
    c.bench_function("nanosql/bind_50_stmts", |b| {
        b.iter(|| {
            for (db, stmt) in &work {
                black_box(bind(db, stmt).unwrap());
            }
        })
    });
}

fn bench_execute(c: &mut Criterion) {
    let bench = setup();
    let work: Vec<_> = bench
        .split
        .dev
        .iter()
        .take(20)
        .map(|i| (bench.database(&i.db_name).unwrap(), i.gold_sql.clone()))
        .collect();
    c.bench_function("nanosql/execute_20_stmts", |b| {
        b.iter(|| {
            for (db, stmt) in &work {
                black_box(execute(db, stmt).unwrap());
            }
        })
    });
}

fn bench_execution_accuracy(c: &mut Criterion) {
    let bench = setup();
    let inst = &bench.split.dev[0];
    let db = bench.database(&inst.db_name).unwrap();
    let gold = inst.gold_sql.to_string();
    c.bench_function("nanosql/execution_accuracy", |b| {
        b.iter(|| black_box(execution_accuracy(db, &gold, &gold)))
    });
    // Sanity outside the timing loop.
    assert!(execute_sql(db, &gold).is_ok());
}

fn bench_execution_accuracy_dev(c: &mut Criterion) {
    let bench = setup();
    let generator = SqlGenModel::deepseek_7b("bird", 9);
    let work: Vec<_> = bench
        .split
        .dev
        .iter()
        .map(|inst| {
            let meta = bench.meta(&inst.db_name).unwrap();
            let predicted = generator.generate(inst, &ProvidedSchema::full(meta), meta);
            (
                bench.database(&inst.db_name).unwrap(),
                inst.gold_sql.to_string(),
                predicted.to_string(),
            )
        })
        .collect();
    // Sanity outside the timing loop: the gold side always executes.
    for (db, gold, pred) in &work {
        assert_ne!(execution_accuracy(db, gold, pred), ExecOutcome::GoldError);
    }
    c.bench_function("nanosql/execution_accuracy_dev", |b| {
        b.iter(|| {
            for (db, gold, pred) in &work {
                black_box(execution_accuracy(db, gold, pred));
            }
        })
    });
}

criterion_group!(
    benches,
    bench_parse,
    bench_bind,
    bench_execute,
    bench_execution_accuracy,
    bench_execution_accuracy_dev
);
criterion_main!(benches);
