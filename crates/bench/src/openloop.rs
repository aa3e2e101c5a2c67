//! Open-loop load harness for the serving engine.
//!
//! The closed-loop driver ([`crate::serving`]) couples offered load to
//! service capacity: each client waits for its previous request before
//! submitting the next, so the engine is never offered more than it
//! can serve and saturation is invisible. This module is the opposite
//! discipline — **open loop**: arrivals follow a seeded Poisson
//! process whose rate is fixed *in advance*, independent of how fast
//! the engine answers. Sweeping that rate upward traces the
//! throughput-vs-latency curve and exposes the *saturation knee*, the
//! highest offered rate the engine still sustains (achieved ≥ 90% of
//! offered); past it, the schedule lags and latency grows without
//! bound.
//!
//! Determinism is split down the middle, deliberately:
//!
//! * **The schedule is virtual-clock and pure.** [`build_schedule`] is
//!   a function of the seed alone — SplitMix64 exponential
//!   inter-arrival gaps, Zipf-skewed simulated users mapped onto
//!   tenants, Zipf-skewed database popularity, uniform instance choice
//!   within a database. Same seed, same `Vec<Arrival>`, byte for byte,
//!   on any machine. The `rts-analyze` determinism pass covers this
//!   module to keep it that way.
//! * **Execution and measurement are wall-clock and are not.** A load
//!   *harness* must pace real submissions against a real engine and
//!   time real completions; every `Instant::now()` below is that
//!   deliberate real-time measurement, individually waived with a
//!   reasoned clock annotation. What stays deterministic under load is
//!   the
//!   *outcomes*: per-request results are pure functions of `(instance,
//!   seed)` plus oracle resolutions, so a sweep's outcome keys are
//!   byte-identical across shard counts, worker counts, and machine
//!   speed — only the latency numbers move. The driver's parity
//!   self-check and the `sharded_engine_matches_single_shard` proptest
//!   both lean on [`SweepResult::outcomes`] for exactly this.
//!
//! Latency is measured from the request's *scheduled* arrival, not its
//! actual submit: when the submitter falls behind past saturation, the
//! lag lands in the tail percentiles instead of silently vanishing —
//! the standard defense against coordinated omission.

use crate::report::{OpenLoopPoint, OpenLoopRecord};
use rts_core::abstention::MitigationPolicy;
use rts_core::bpp::Mbpp;
use rts_core::human::HumanOracle;
use rts_core::session::resolve_flag;
use rts_serve::{
    ClientEvent, Engine, LatencySummary, ServeConfig, ServeEngine, SubmitError, TenantId, TicketId,
};
use simlm::SchemaLinker;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Shape of one open-loop sweep.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Simulated-user population; each arrival is attributed to a
    /// Zipf-sampled user (user 0 hottest).
    pub users: u32,
    /// Tenants the users map onto (`user % tenants`).
    pub tenants: u32,
    /// Zipf exponent for both the user and the database popularity
    /// skew. 0 = uniform; BIRD-ish production skew is around 1.1.
    pub zipf_s: f64,
    /// Arrivals generated per sweep point.
    pub requests_per_point: usize,
    /// Offered rates to sweep, req/s ascending.
    pub rates_rps: Vec<f64>,
    /// Collector threads draining completions (the open-loop analogue
    /// of closed-loop clients: they answer feedback and time
    /// completions, but never gate submission).
    pub collectors: usize,
    /// Engine configuration, including the shard count and the
    /// total worker count.
    pub serve: ServeConfig,
    /// Oracle the collectors answer feedback queries with.
    pub oracle: HumanOracle,
    /// Schedule seed — arrivals are a pure function of it.
    pub seed: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        Self {
            users: 200,
            tenants: 4,
            zipf_s: 1.1,
            requests_per_point: 60,
            rates_rps: vec![400.0, 1200.0, 3600.0],
            collectors: 4,
            serve: ServeConfig {
                workers: 2,
                shards: 2,
                queue_capacity: 32,
                cache_capacity: 8,
                ..ServeConfig::default()
            },
            oracle: HumanOracle::new(rts_core::human::Expertise::Expert, 9),
            seed: 0xC0FFEE,
        }
    }
}

/// Zipf(s) sampler over ranks `0..n` by inverse-CDF lookup. Rank 0 is
/// the most popular. Built once per schedule; sampling is a binary
/// search over the precomputed CDF, no floating-point accumulation at
/// sample time.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Self { cdf }
    }

    /// Map a uniform `u ∈ [0, 1)` onto a rank.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One scheduled request of the virtual-clock arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the run at which this request is due.
    pub at: Duration,
    /// Simulated user it is attributed to.
    pub user: u32,
    /// Tenant the submit is tagged with (`user % tenants`).
    pub tenant: TenantId,
    /// Index into the driver's instance slice.
    pub instance: usize,
}

/// Group instance indices by database in first-appearance order (a
/// plain linear scan — deliberately no hash map, so group order is a
/// pure function of the instance slice and the schedule stays
/// deterministic).
pub fn group_by_database(instances: &[benchgen::Instance]) -> Vec<(String, Vec<usize>)> {
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, inst) in instances.iter().enumerate() {
        match groups.iter_mut().find(|(db, _)| *db == inst.db_name) {
            Some((_, members)) => members.push(i),
            None => groups.push((inst.db_name.clone(), vec![i])),
        }
    }
    groups
}

/// Generate the Poisson arrival schedule for one sweep point: a pure
/// function of `seed` (and the static shape arguments). Inter-arrival
/// gaps are exponential with mean `1/rate_rps`; the user and the
/// database are Zipf-skewed, the instance uniform within its database.
pub fn build_schedule(
    seed: u64,
    rate_rps: f64,
    n_requests: usize,
    users: u32,
    tenants: u32,
    zipf_s: f64,
    groups: &[(String, Vec<usize>)],
) -> Vec<Arrival> {
    assert!(rate_rps > 0.0, "open loop needs a positive arrival rate");
    assert!(!groups.is_empty(), "open loop needs a database population");
    let mut rng = tinynn::rng::SplitMix64::new(seed);
    let user_zipf = Zipf::new(users.max(1) as usize, zipf_s);
    let db_zipf = Zipf::new(groups.len(), zipf_s);
    let mut t = 0.0_f64;
    let mut schedule = Vec::with_capacity(n_requests);
    for _ in 0..n_requests {
        // Inverse-CDF exponential gap; next_f64 ∈ [0, 1) keeps the
        // log argument strictly positive.
        t += -(1.0 - rng.next_f64()).ln() / rate_rps;
        let user = user_zipf.sample(rng.next_f64()) as u32;
        let (_, members) = &groups[db_zipf.sample(rng.next_f64())];
        let instance = members[rng.next_below(members.len())];
        schedule.push(Arrival {
            at: Duration::from_secs_f64(t),
            user,
            tenant: user % tenants.max(1),
            instance,
        });
    }
    schedule
}

/// What one sweep produced: the measured record plus, per point, the
/// latency-free outcome key of every arrival (in schedule order) —
/// the byte-identity surface the parity checks compare across shard
/// counts.
#[derive(Debug)]
pub struct SweepResult {
    pub record: OpenLoopRecord,
    /// `outcomes[point][arrival_index]` — see [`outcome_key`].
    pub outcomes: Vec<Vec<String>>,
}

/// The latency-free fingerprint of one served request: everything a
/// deterministic run pins (joint outcome and degrade flags), nothing
/// wall-clock measurement moves. Two runs of the same schedule against
/// any shard/worker geometry must produce identical keys per arrival.
pub fn outcome_key(o: &rts_serve::ServeOutcome) -> String {
    format!(
        "{:?}|shed={},timed={},faulted={},drained={},rounds={}",
        o.outcome, o.shed, o.timed_out, o.faulted, o.drained, o.n_feedback
    )
}

/// A completion job handed from the submitter to the collectors: the
/// arrival index, the live ticket, and the *scheduled* arrival instant
/// latency is measured from.
struct Job {
    idx: usize,
    ticket: TicketId,
    sched: Instant,
}

/// Submitter → collector handoff: a bounded-by-workload queue plus a
/// close flag, under one lock with a condvar.
struct CollectQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Run one sweep point: pace `arrivals` against a fresh
/// [`ServeEngine`], drain every completion, and measure.
#[allow(clippy::too_many_arguments)]
fn run_point(
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    metas: &[benchgen::schemagen::DbMeta],
    instances: &[benchgen::Instance],
    config: &OpenLoopConfig,
    arrivals: &[Arrival],
    offered_rps: f64,
) -> (OpenLoopPoint, Vec<String>, rts_serve::ServingStats, u64) {
    let engine = ServeEngine::new(
        model,
        mbpp_tables,
        mbpp_columns,
        metas,
        config.serve.clone(),
    );
    let n = arrivals.len();
    let shared = (
        parking_lot::Mutex::new(CollectQueue {
            jobs: VecDeque::new(),
            closed: false,
        }),
        parking_lot::Condvar::new(),
    );
    let (results, wall) = crossbeam::thread::scope(|s| {
        let eng = &engine;
        for _ in 0..eng.config().workers {
            s.spawn(move |_| eng.worker_loop());
        }
        let collectors: Vec<_> = (0..config.collectors.max(1))
            .map(|_| {
                let shared = &shared;
                let oracle = &config.oracle;
                s.spawn(move |_| collector_loop(eng, instances, arrivals, oracle, shared))
            })
            .collect();

        // rts-allow(clock): the open-loop harness paces the seeded
        // virtual-clock schedule against real time by design — the
        // schedule itself is pure, only its execution is wall-clock.
        let start = Instant::now();
        for (idx, a) in arrivals.iter().enumerate() {
            let target = start + a.at;
            loop {
                // rts-allow(clock): real-time pacing toward the
                // scheduled arrival instant (measurement, not logic).
                let now = Instant::now();
                if now >= target {
                    break;
                }
                std::thread::sleep(target - now);
            }
            let inst = &instances[a.instance];
            let ticket = loop {
                match eng.submit(a.tenant, inst) {
                    Ok(t) => break t,
                    Err(SubmitError::QueueFull { .. } | SubmitError::QuotaExceeded { .. }) => {
                        // Open loop never drops: a bounced admission
                        // is retried until the owning shard has room;
                        // the bounce count and the schedule lag are
                        // the measurement.
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    Err(e) => {
                        panic!("schedule instances always have metadata: {e}")
                    }
                }
            };
            let mut q = shared.0.lock();
            q.jobs.push_back(Job {
                idx,
                ticket,
                sched: target,
            });
            shared.1.notify_one();
            drop(q);
        }
        {
            let mut q = shared.0.lock();
            q.closed = true;
            shared.1.notify_all();
        }
        let mut results: Vec<Option<(f64, String)>> = vec![None; n];
        for c in collectors {
            for (idx, latency_ms, key) in c.join().expect("open-loop collector panicked") {
                assert!(
                    results[idx].replace((latency_ms, key)).is_none(),
                    "arrival {idx} collected twice"
                );
            }
        }
        // Wall time of the point — the denominator of achieved
        // throughput.
        let wall = start.elapsed();
        eng.shutdown();
        (results, wall)
    })
    .expect("open-loop scope panicked");

    let stats = engine.stats();
    // Self-checks every harness run enforces, not just the CI legs:
    // zero drops and eager state release survive the open-loop path.
    assert_eq!(
        stats.completed, n as u64,
        "open loop must complete every scheduled arrival (degrade, never drop)"
    );
    // The gauges sum over shards, so zero here is zero on every shard.
    assert_eq!(stats.parked_sessions_now, 0, "parked sessions stranded");
    assert_eq!(stats.parked_bytes_now, 0, "parked bytes still billed");
    assert_eq!(stats.checkpoint_bytes_now, 0, "checkpoint bytes held");
    let mut latencies = Vec::with_capacity(n);
    let mut keys = Vec::with_capacity(n);
    for (idx, slot) in results.into_iter().enumerate() {
        let (latency_ms, key) = slot.unwrap_or_else(|| panic!("arrival {idx} never completed"));
        latencies.push(latency_ms);
        keys.push(key);
    }
    let summary = LatencySummary::from_samples(&latencies);
    let wall_s = wall.as_secs_f64().max(1e-9);
    let point = OpenLoopPoint {
        offered_rps,
        achieved_rps: n as f64 / wall_s,
        p50_ms: summary.p50_ms,
        p95_ms: summary.p95_ms,
        p99_ms: summary.p99_ms,
        mean_ms: summary.mean_ms,
        max_ms: summary.max_ms,
        completed: stats.completed,
        shed: stats.shed,
        timed_out: stats.timed_out_to_abstention,
        rejected_submits: stats.rejected + stats.rejected_quota,
        wall_ms: wall_s * 1e3,
    };
    let steals = engine.steals();
    (point, keys, stats, steals)
}

/// One collector: pop completion jobs, drive each ticket to `Done`
/// (answering every feedback suspension with the oracle), and time it
/// from its scheduled arrival. Generic over the serving surface — the
/// open-loop discipline does not care whether the ticket is local.
fn collector_loop<E: Engine>(
    engine: &E,
    instances: &[benchgen::Instance],
    arrivals: &[Arrival],
    oracle: &HumanOracle,
    shared: &(parking_lot::Mutex<CollectQueue>, parking_lot::Condvar),
) -> Vec<(usize, f64, String)> {
    let policy = MitigationPolicy::Human(oracle);
    let mut out = Vec::new();
    loop {
        let job = {
            let mut q = shared.0.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.closed {
                    break None;
                }
                shared.1.wait(&mut q);
            }
        };
        let Some(job) = job else {
            return out;
        };
        let inst = &instances[arrivals[job.idx].instance];
        loop {
            match engine.wait_event(job.ticket) {
                ClientEvent::NeedsFeedback { query, .. } => {
                    let resolution = resolve_flag(&policy, inst, &query);
                    // A racing feedback timeout may have retired the
                    // flag already; the typed error is the protocol.
                    let _ = engine.resolve(job.ticket, &query, resolution);
                }
                ClientEvent::Done(outcome) => {
                    // rts-allow(clock): completion timestamp — latency
                    // is measured from the scheduled arrival so
                    // schedule lag shows up in the tail.
                    let done = Instant::now();
                    let latency_ms = done.saturating_duration_since(job.sched).as_secs_f64() * 1e3;
                    out.push((job.idx, latency_ms, outcome_key(&outcome)));
                    break;
                }
                ClientEvent::Retired => {
                    panic!("open-loop ticket {} retired before Done", job.ticket)
                }
            }
        }
    }
}

/// Sweep the configured arrival rates against fresh engines
/// (one per point, so points never warm each other's caches) and
/// assemble the [`OpenLoopRecord`]. Steals and cache counters
/// accumulate across points; the knee is the highest offered rate
/// still achieving ≥ 90%, falling back to the first point when even
/// the lowest rate saturates.
pub fn run_sweep(
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    metas: &[benchgen::schemagen::DbMeta],
    instances: &[benchgen::Instance],
    config: &OpenLoopConfig,
) -> SweepResult {
    assert!(!config.rates_rps.is_empty(), "empty rate sweep");
    let groups = group_by_database(instances);
    let mut points = Vec::with_capacity(config.rates_rps.len());
    let mut outcomes = Vec::with_capacity(config.rates_rps.len());
    let mut steals = 0u64;
    let mut cache = rts_core::context::ContextCacheStats::default();
    for (k, &rate) in config.rates_rps.iter().enumerate() {
        // Each point gets its own schedule stream, derived from the
        // sweep seed and the point index so points are independent but
        // jointly reproducible.
        let point_seed = config.seed ^ (0xA11CE + k as u64);
        let schedule = build_schedule(
            point_seed,
            rate,
            config.requests_per_point,
            config.users,
            config.tenants,
            config.zipf_s,
            &groups,
        );
        let (point, keys, stats, point_steals) = run_point(
            model,
            mbpp_tables,
            mbpp_columns,
            metas,
            instances,
            config,
            &schedule,
            rate,
        );
        steals += point_steals;
        cache.absorb(stats.cache);
        points.push(point);
        outcomes.push(keys);
    }
    let peak_throughput_rps = points.iter().map(|p| p.achieved_rps).fold(0.0, f64::max);
    let (knee_offered_rps, knee_p99_ms) = points
        .iter()
        .rfind(|p| p.achieved_rps >= 0.9 * p.offered_rps)
        .or(points.first())
        .map(|p| (p.offered_rps, p.p99_ms))
        .expect("at least one sweep point");
    let shards = config.serve.shards.max(1);
    SweepResult {
        record: OpenLoopRecord {
            shards,
            workers_per_shard: config.serve.workers.div_ceil(shards).max(1),
            users: config.users as usize,
            tenants: config.tenants as usize,
            zipf_s: config.zipf_s,
            requests_per_point: config.requests_per_point,
            seed: config.seed,
            queue_capacity: config.serve.queue_capacity,
            cache_capacity: config.serve.cache_capacity,
            points,
            peak_throughput_rps,
            knee_offered_rps,
            knee_p99_ms,
            steals,
            cache_hit_rate: cache.hit_rate(),
        },
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_groups() -> Vec<(String, Vec<usize>)> {
        vec![
            ("db_a".into(), vec![0, 1, 2]),
            ("db_b".into(), vec![3, 4]),
            ("db_c".into(), vec![5]),
        ]
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let groups = demo_groups();
        let a = build_schedule(42, 800.0, 200, 50, 4, 1.1, &groups);
        let b = build_schedule(42, 800.0, 200, 50, 4, 1.1, &groups);
        assert_eq!(a, b, "same seed must reproduce the schedule exactly");
        let c = build_schedule(43, 800.0, 200, 50, 4, 1.1, &groups);
        assert_ne!(a, c, "a different seed must move the schedule");

        let mut prev = Duration::ZERO;
        for arr in &a {
            assert!(arr.at >= prev, "arrival times must be non-decreasing");
            prev = arr.at;
            assert!(arr.user < 50);
            assert!(arr.tenant < 4);
            assert!(arr.instance < 6, "instance index out of population");
        }
        // Mean inter-arrival of a Poisson(800/s) stream over 200
        // arrivals is 1/800 s; the sample mean should be within a
        // loose 3x band (seeded, so this is a fixed number, not flaky).
        let span = a.last().unwrap().at.as_secs_f64();
        let mean_gap = span / 200.0;
        assert!(
            (1.0 / 2400.0..1.0 / 270.0).contains(&mean_gap),
            "mean gap {mean_gap} implausible for 800 req/s"
        );
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(10, 1.1);
        let mut rng = tinynn::rng::SplitMix64::new(7);
        let mut counts = [0usize; 10];
        for _ in 0..4000 {
            counts[z.sample(rng.next_f64())] += 1;
        }
        assert!(
            counts[0] > counts[9] * 3,
            "rank 0 ({}) must dominate rank 9 ({}) under zipf 1.1",
            counts[0],
            counts[9]
        );
        assert!(
            counts.iter().all(|&c| c > 0),
            "every rank must be reachable"
        );

        let uniform = Zipf::new(4, 0.0);
        assert_eq!(uniform.sample(0.0), 0);
        assert_eq!(uniform.sample(0.26), 1);
        assert_eq!(uniform.sample(0.99), 3);
        // Degenerate populations and u at the boundary stay in range.
        assert_eq!(Zipf::new(1, 1.5).sample(0.999), 0);
        assert_eq!(Zipf::new(0, 1.5).sample(0.5), 0);
    }

    #[test]
    fn grouping_preserves_first_appearance_order() {
        let bench = benchgen::BenchmarkProfile::bird_like()
            .scaled(0.03)
            .generate(5);
        let groups = group_by_database(&bench.split.dev);
        assert!(!groups.is_empty());
        let total: usize = groups.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, bench.split.dev.len(), "grouping must partition");
        // First group is the first instance's database, and every
        // member index actually belongs to its group's database.
        assert_eq!(groups[0].0, bench.split.dev[0].db_name);
        for (db, members) in &groups {
            for &i in members {
                assert_eq!(&bench.split.dev[i].db_name, db);
            }
        }
    }
}
