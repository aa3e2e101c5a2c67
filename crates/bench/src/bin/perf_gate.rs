//! CI perf gate: compare a fresh `BENCH_rts.json` snapshot against the
//! committed baseline and fail when any stage's per-instance time
//! regresses beyond the tolerance.
//!
//! ```text
//! perf_gate <baseline.json> <fresh.json> [tolerance]
//! ```
//!
//! The tolerance defaults to 2.0 (a stage may be up to 2× slower than
//! the committed record before the gate trips) — deliberately generous
//! so shared CI runners don't flake — and can also be set via
//! `RTS_PERF_GATE_TOLERANCE`. Stages present in only one record are
//! reported but never fail the gate (stage renames land together with a
//! regenerated baseline). Exits non-zero on regression.
//!
//! Records are only comparable when measured under the same workload
//! scale, worker count, and **synthesis corpus** (`corpus` field;
//! absent = v1, from before corpus versioning) — any mismatch is a
//! gate-configuration error and exits 2, never a silent pass.
//!
//! The `serving` section is gated too — on two robust quantities:
//! p99 submit-to-done latency (its own, extra-generous tolerance:
//! `RTS_PERF_GATE_SERVING_TOLERANCE`, default 4.0, plus 1 ms absolute
//! grace, because these are wall-clock numbers under concurrency on a
//! shared runner) and a context-cache hit-rate floor (baseline − 0.10
//! — a hit-rate collapse is a logic regression, not scheduling noise).
//! The same record-mismatch refusal applies as for stages: serving
//! sections measured under different workload shapes (workers,
//! clients, queue, request count, tenancy knobs, fault plan) are
//! incomparable and exit 2, as does a fresh record that dropped the
//! section while the baseline has one. A baseline predating the
//! serving section simply reports the fresh numbers un-gated. Fault
//! *recovery counters* are outcomes, not knobs: the gate tolerates
//! them (an absent fault sub-record ≡ a disabled plan, so pre-chaos
//! baselines keep gating) and renders them with the rest of the
//! serving section.

use rts_bench::report::{compare_perf, OpenLoopRecord, PerfReport, ServingRecord};

/// The workload-shape knobs that make two serving sections comparable.
/// Tenancy knobs are normalized so a pre-tenancy baseline (no sub-
/// record) compares equal to a fresh record that ran with the
/// single-tenant defaults — only an actually different workload
/// (quotas, timeouts, stalls, budgets change latencies by design)
/// triggers the refusal.
#[allow(clippy::type_complexity)]
fn serving_shape(
    s: &ServingRecord,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    Option<u64>,
    ShapeTenancy,
    ShapeFault,
) {
    (
        s.workers,
        s.clients,
        s.queue_capacity,
        // The hit-rate floor is only meaningful at the same cache size.
        s.cache_capacity,
        s.n_requests,
        s.deadline_ms.map(|ms| ms.to_bits()),
        s.tenancy.as_ref().map_or((1, 0, 0, None, 0), |t| {
            (
                t.tenants,
                t.quota_max_in_flight,
                t.quota_max_parked,
                t.feedback_timeout_ms.map(|ms| ms.to_bits()),
                t.parked_bytes_budget,
            )
        }),
        // A fault-injected run measures recovery machinery on the hot
        // path — incomparable to a fault-free baseline. An absent
        // sub-record ≡ a disabled plan (pre-chaos baselines still
        // gate). The recovery *counters* are deliberately not part of
        // the shape: they are outcomes, tolerated and rendered, not
        // knobs.
        s.fault
            .as_ref()
            .map(|f| (f.seed, f.step_panic_rate.to_bits())),
    )
}

type ShapeTenancy = (usize, usize, usize, Option<u64>, u64);
type ShapeFault = Option<(u64, u64)>;

/// The workload-shape knobs that make two open-loop sections
/// comparable: the engine geometry, the simulated population, the
/// schedule seed, and the exact swept rates. Throughput and knee
/// latency measured under a different shape are incomparable.
#[allow(clippy::type_complexity)]
fn open_loop_shape(
    o: &OpenLoopRecord,
) -> (
    usize,
    usize,
    usize,
    usize,
    u64,
    usize,
    u64,
    usize,
    usize,
    Vec<u64>,
) {
    (
        o.shards,
        o.workers_per_shard,
        o.users,
        o.tenants,
        o.zipf_s.to_bits(),
        o.requests_per_point,
        o.seed,
        o.queue_capacity,
        o.cache_capacity,
        o.points.iter().map(|p| p.offered_rps.to_bits()).collect(),
    )
}

/// Gate the open-loop section: peak throughput must hold at least half
/// the baseline's (throughput collapse is a logic/scaling regression,
/// not runner noise at this margin), and the knee p99 gets the same
/// generous wall-clock treatment as serving p99. Returns the failed
/// checks (empty = pass).
fn gate_open_loop(
    baseline: &OpenLoopRecord,
    fresh: &OpenLoopRecord,
    tolerance: f64,
) -> Vec<&'static str> {
    let mut failures = Vec::new();
    let peak_floor = baseline.peak_throughput_rps / 2.0;
    println!(
        "open-loop peak {:>10.1} r/s baseline → {:>8.1} r/s fresh (floor {:.1} r/s)  {}",
        baseline.peak_throughput_rps,
        fresh.peak_throughput_rps,
        peak_floor,
        if fresh.peak_throughput_rps >= peak_floor {
            "ok"
        } else {
            "REGRESSED"
        }
    );
    if fresh.peak_throughput_rps < peak_floor {
        failures.push("open_loop/peak_throughput_rps");
    }
    // Same 1 ms absolute grace as serving: sub-millisecond knees are
    // scheduler noise territory.
    let knee_limit = baseline.knee_p99_ms * tolerance + 1.0;
    println!(
        "open-loop knee {:>10.3} ms baseline → {:>8.3} ms fresh (limit {:.3} ms)  {}",
        baseline.knee_p99_ms,
        fresh.knee_p99_ms,
        knee_limit,
        if fresh.knee_p99_ms <= knee_limit {
            "ok"
        } else {
            "REGRESSED"
        }
    );
    if fresh.knee_p99_ms > knee_limit {
        failures.push("open_loop/knee_p99_ms");
    }
    failures
}

/// Outcome of gating the serving section: the failed checks (empty =
/// pass). `None` = nothing comparable to gate.
fn gate_serving(
    baseline: &ServingRecord,
    fresh: &ServingRecord,
    tolerance: f64,
) -> Vec<&'static str> {
    let mut failures = Vec::new();
    // 1 ms absolute grace: at sub-millisecond baselines the ratio is
    // scheduler noise, not signal.
    let p99_limit = baseline.p99_ms * tolerance + 1.0;
    println!(
        "serving p99    {:>10.3} ms baseline → {:>10.3} ms fresh (limit {:.3} ms)  {}",
        baseline.p99_ms,
        fresh.p99_ms,
        p99_limit,
        if fresh.p99_ms <= p99_limit {
            "ok"
        } else {
            "REGRESSED"
        }
    );
    if fresh.p99_ms > p99_limit {
        failures.push("serving/p99_ms");
    }
    let hit_floor = (baseline.cache_hit_rate - 0.10).max(0.0);
    println!(
        "serving cache  {:>9.1}% baseline → {:>9.1}% fresh (floor {:.1}%)  {}",
        baseline.cache_hit_rate * 100.0,
        fresh.cache_hit_rate * 100.0,
        hit_floor * 100.0,
        if fresh.cache_hit_rate >= hit_floor {
            "ok"
        } else {
            "REGRESSED"
        }
    );
    if fresh.cache_hit_rate < hit_floor {
        failures.push("serving/cache_hit_rate");
    }
    failures
}

fn load(path: &str) -> PerfReport {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read perf record {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse perf record {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: perf_gate <baseline.json> <fresh.json> [tolerance]");
        std::process::exit(2);
    }
    let baseline = load(&args[1]);
    let fresh = load(&args[2]);
    let tolerance = args
        .get(3)
        .cloned()
        .or_else(|| std::env::var("RTS_PERF_GATE_TOLERANCE").ok())
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(2.0);

    // Per-instance times are only comparable when the two records were
    // measured under the same workload scale and worker count — a
    // 4-thread fresh run against a serial baseline would hide a 4x
    // regression. A mismatch is a gate-configuration error, not a pass.
    if baseline.scale != fresh.scale || baseline.threads != fresh.threads {
        eprintln!(
            "perf gate MISCONFIGURED: baseline (scale {}, threads {}) and fresh \
             (scale {}, threads {}) records are not comparable — pin RTS_SCALE / \
             RTS_THREADS to the committed baseline's values or regenerate it",
            baseline.scale, baseline.threads, fresh.scale, fresh.threads
        );
        std::process::exit(2);
    }

    // Same refusal for the synthesis corpus: v2 re-keys the hidden-state
    // streams precisely to change trace_gen's cost profile, so stage
    // times measured under different corpora are incomparable by
    // construction. A record without the field predates corpus
    // versioning and reads as v1 (corpus_tag's fallback).
    if baseline.corpus_tag() != fresh.corpus_tag() {
        eprintln!(
            "perf gate MISCONFIGURED: baseline (corpus {}) and fresh (corpus {}) \
             records were measured under different synthesis corpora and are not \
             comparable — regenerate the baseline under the current corpus",
            baseline.corpus_tag(),
            fresh.corpus_tag()
        );
        std::process::exit(2);
    }

    println!(
        "== perf gate: fresh vs committed baseline (tolerance {tolerance:.2}x, \
         baseline scale {}, fresh scale {})",
        baseline.scale, fresh.scale
    );
    println!(
        "{:<36} {:>14} {:>14} {:>8}  verdict",
        "stage", "baseline µs", "fresh µs", "ratio"
    );
    let comparisons = compare_perf(&baseline, &fresh, tolerance);
    for c in &comparisons {
        println!(
            "{:<36} {:>14.1} {:>14.1} {:>7.2}x  {}",
            c.stage,
            c.baseline_us,
            c.fresh_us,
            c.ratio,
            if c.regressed { "REGRESSED" } else { "ok" }
        );
    }
    for b in &baseline.stages {
        if !fresh.stages.iter().any(|f| f.stage == b.stage) {
            println!("{:<36} (baseline-only stage — skipped)", b.stage);
        }
    }
    for f in &fresh.stages {
        if !baseline.stages.iter().any(|b| b.stage == f.stage) {
            println!("{:<36} (new stage — no baseline yet)", f.stage);
        }
    }

    let mut regressions: Vec<&str> = comparisons
        .iter()
        .filter(|c| c.regressed)
        .map(|c| c.stage.as_str())
        .collect();

    let serving_tolerance = std::env::var("RTS_PERF_GATE_SERVING_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(4.0);
    match (&baseline.serving, &fresh.serving) {
        (Some(b), Some(f)) => {
            // Same refusal rule as stages: latencies measured under a
            // different workload shape — worker/client counts, queue
            // bound, request count, deadline, any tenancy knob
            // (quotas, feedback timeout, parked budget all change
            // latencies by design), or a fault plan (injected panics
            // and retries change latencies by design too) — are
            // incomparable. A config error, not a pass.
            if serving_shape(b) != serving_shape(f) {
                eprintln!(
                    "perf gate MISCONFIGURED: serving sections are not comparable — \
                     baseline ({} workers, {} clients, queue {}, {} requests, \
                     deadline {:?} ms, tenancy {:?}, fault {:?}) vs fresh \
                     ({} workers, {} clients, queue {}, {} requests, \
                     deadline {:?} ms, tenancy {:?}, fault {:?}); pin the \
                     workload shape to the committed baseline's or regenerate it",
                    b.workers,
                    b.clients,
                    b.queue_capacity,
                    b.n_requests,
                    b.deadline_ms,
                    serving_shape(b).6,
                    serving_shape(b).7,
                    f.workers,
                    f.clients,
                    f.queue_capacity,
                    f.n_requests,
                    f.deadline_ms,
                    serving_shape(f).6,
                    serving_shape(f).7,
                );
                std::process::exit(2);
            }
            println!(
                "== serving gate (p99 tolerance {serving_tolerance:.2}x + 1 ms, \
                 cache-hit floor baseline − 0.10):"
            );
            regressions.extend(gate_serving(b, f, serving_tolerance));
            print!("{}", f.render());
        }
        (Some(_), None) => {
            // The serving section is gated now: a fresh record that
            // silently dropped it would un-gate it forever.
            eprintln!(
                "perf gate MISCONFIGURED: committed baseline has a serving section \
                 but the fresh record has none — the perf bin must run its serving \
                 workload (or regenerate the baseline without one)"
            );
            std::process::exit(2);
        }
        (None, Some(s)) => {
            println!("serving section (new — no baseline yet, not gated):");
            print!("{}", s.render());
        }
        (None, None) => {}
    }

    match (&baseline.open_loop, &fresh.open_loop) {
        (Some(b), Some(f)) => {
            if open_loop_shape(b) != open_loop_shape(f) {
                eprintln!(
                    "perf gate MISCONFIGURED: open-loop sections are not comparable — \
                     baseline ({} shards x {} workers, {} users / {} tenants, zipf {}, \
                     {} req/point, seed {:#x}, queue {}, cache {}, rates {:?}) vs fresh \
                     ({} shards x {} workers, {} users / {} tenants, zipf {}, \
                     {} req/point, seed {:#x}, queue {}, cache {}, rates {:?}); pin the \
                     sweep shape to the committed baseline's or regenerate it",
                    b.shards,
                    b.workers_per_shard,
                    b.users,
                    b.tenants,
                    b.zipf_s,
                    b.requests_per_point,
                    b.seed,
                    b.queue_capacity,
                    b.cache_capacity,
                    b.points.iter().map(|p| p.offered_rps).collect::<Vec<_>>(),
                    f.shards,
                    f.workers_per_shard,
                    f.users,
                    f.tenants,
                    f.zipf_s,
                    f.requests_per_point,
                    f.seed,
                    f.queue_capacity,
                    f.cache_capacity,
                    f.points.iter().map(|p| p.offered_rps).collect::<Vec<_>>(),
                );
                std::process::exit(2);
            }
            println!(
                "== open-loop gate (peak floor baseline/2, knee p99 tolerance \
                 {serving_tolerance:.2}x + 1 ms):"
            );
            regressions.extend(gate_open_loop(b, f, serving_tolerance));
            print!("{}", f.render());
        }
        (Some(_), None) => {
            // Same refusal as serving: silently dropping the section
            // would un-gate scale-out forever.
            eprintln!(
                "perf gate MISCONFIGURED: committed baseline has an open_loop section \
                 but the fresh record has none — the perf bin must run its open-loop \
                 sweep (or regenerate the baseline without one)"
            );
            std::process::exit(2);
        }
        (None, Some(o)) => {
            println!("open-loop section (new — no baseline yet, not gated):");
            print!("{}", o.render());
        }
        (None, None) => {}
    }
    if regressions.is_empty() {
        println!(
            "perf gate passed: {} comparable stages within {tolerance:.2}x",
            comparisons.len()
        );
    } else {
        eprintln!(
            "perf gate FAILED: {} stage(s) regressed beyond {tolerance:.2}x: {}",
            regressions.len(),
            regressions.join(", ")
        );
        std::process::exit(1);
    }
}
