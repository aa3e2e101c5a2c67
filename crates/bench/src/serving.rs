//! Closed-loop workload driver for the `rts-serve` engine.
//!
//! Simulates production traffic against a [`ServeEngine`]: a pool of
//! client threads, each owning a slice of the instance set and tagged
//! with a [`TenantId`], submits joint-linking requests, answers every
//! `NeedsFeedback` suspension with the human oracle, and measures
//! submit-to-completion latency. "Closed loop" = each client has one
//! request in flight at a time, so offered load tracks service
//! capacity and the engine's queues show realistic depth instead of
//! unbounded backlog.
//!
//! Multi-tenant shapes: [`WorkloadConfig::tenants`] spreads the
//! clients over N tenants (round-robin), exercising the fair queue and
//! per-tenant quotas, and [`WorkloadConfig::stall_tenant`] marks one
//! tenant's clients as *never answering feedback* — their flagged
//! requests only complete through the engine's feedback timeout
//! (park → abstain), which is exactly what the CI smoke leg asserts.
//!
//! The `serve_driver` binary runs it and prints the resulting
//! [`ServingRecord`] as its self-checking CI smoke leg.

use crate::report::{FaultRecord, ServingRecord, TenancyRecord};
use rts_core::abstention::MitigationPolicy;
use rts_core::bpp::Mbpp;
use rts_core::human::HumanOracle;
use rts_core::pipeline::JointOutcome;
use rts_core::session::resolve_flag;
use rts_serve::{drive_closed_loop, Engine, ServeConfig, ServeEngine, TenantId};
use simlm::SchemaLinker;
use std::time::{Duration, Instant};

/// Workload shape.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Passes each client makes over its instance slice (≥ 2 gives the
    /// context cache a warm pass to show hits).
    pub rounds: usize,
    /// Distinct tenants; client `c` submits as tenant `c % tenants`.
    pub tenants: usize,
    /// A tenant whose clients never answer feedback: its flagged
    /// requests complete only through the engine's feedback timeout.
    /// Requires `serve.feedback_timeout` to be set, or those clients
    /// would wait forever.
    pub stall_tenant: Option<TenantId>,
    /// Engine configuration (workers, queue bound, quotas, deadline,
    /// feedback timeout, parked budget, cache).
    pub serve: ServeConfig,
    /// The oracle clients answer feedback queries with.
    pub oracle: HumanOracle,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            clients: 4,
            rounds: 2,
            tenants: 1,
            stall_tenant: None,
            serve: ServeConfig::default(),
            oracle: HumanOracle::new(rts_core::human::Expertise::Expert, 9),
        }
    }
}

/// One served request, as the client observed it.
#[derive(Debug, Clone)]
pub struct ServedRequest {
    pub tenant: TenantId,
    pub instance: u64,
    pub outcome: JointOutcome,
    /// Deadline shedding degraded a stage to abstention.
    pub shed: bool,
    /// A feedback timeout resolved a flag to abstention.
    pub timed_out: bool,
    /// An unrecoverable fault degraded the request to abstention
    /// (recovered faults leave outcomes identical and do not set this).
    pub faulted: bool,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Per-request outcomes in client completion order.
    pub outcomes: Vec<ServedRequest>,
    /// The engine's counter snapshot at drain.
    pub stats: rts_serve::ServingStats,
    /// Whole-workload wall time.
    pub wall: Duration,
    /// Requests submitted (`instances × rounds`).
    pub n_requests: usize,
}

/// Drive a closed-loop workload: build the engine, spawn its workers
/// plus `config.clients` client threads, run `rounds` passes over
/// `instances`, drain, and snapshot the stats.
pub fn run_workload(
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    metas: &[benchgen::schemagen::DbMeta],
    instances: &[benchgen::Instance],
    config: &WorkloadConfig,
) -> WorkloadResult {
    assert!(
        config.clients > 0 && config.rounds > 0 && config.tenants > 0,
        "empty workload"
    );
    assert!(
        config.stall_tenant.is_none() || config.serve.feedback_timeout.is_some(),
        "a stalled tenant without a feedback timeout would wait forever"
    );
    let engine = ServeEngine::new(
        model,
        mbpp_tables,
        mbpp_columns,
        metas,
        config.serve.clone(),
    );
    let t0 = Instant::now();
    let outcomes: Vec<ServedRequest> = crossbeam::thread::scope(|s| {
        for _ in 0..engine.config().workers {
            s.spawn(|_| engine.worker_loop());
        }
        let collected = run_clients(&engine, instances, config);
        engine.shutdown();
        collected
    })
    .expect("workload scope panicked");
    let wall = t0.elapsed();
    WorkloadResult {
        outcomes,
        stats: engine.stats(),
        wall,
        n_requests: instances.len() * config.rounds,
    }
}

/// Spawn `config.clients` closed-loop client threads against any
/// [`Engine`] — the in-process engine or the `rts-client` wire client
/// — and collect every served request. The caller owns the engine's
/// lifecycle (workers, shutdown); this is only the client side, which
/// is exactly what the wire driver reuses against a remote server.
pub fn run_clients<E: Engine>(
    engine: &E,
    instances: &[benchgen::Instance],
    config: &WorkloadConfig,
) -> Vec<ServedRequest> {
    let per_client: Vec<Vec<benchgen::Instance>> = (0..config.clients)
        .map(|c| {
            instances
                .iter()
                .skip(c)
                .step_by(config.clients)
                .cloned()
                .collect()
        })
        .collect();
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .iter()
            .enumerate()
            .map(|(c, slice)| {
                let oracle = &config.oracle;
                let rounds = config.rounds;
                let tenant = (c % config.tenants) as TenantId;
                let stalled = config.stall_tenant == Some(tenant);
                s.spawn(move |_| client_loop(engine, tenant, stalled, slice, oracle, rounds))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("workload client panicked"))
            .collect()
    })
    .expect("workload scope panicked")
}

/// One client: submit each owned instance `rounds` times as `tenant`
/// through the shared [`drive_closed_loop`] protocol (bounced
/// admissions retried, every feedback suspension answered with the
/// oracle). A stalled client *stalls* instead of answering — it
/// re-polls until the engine's feedback timeout completes the request.
fn client_loop<E: Engine>(
    engine: &E,
    tenant: TenantId,
    stalled: bool,
    instances: &[benchgen::Instance],
    oracle: &HumanOracle,
    rounds: usize,
) -> Vec<ServedRequest> {
    let policy = MitigationPolicy::Human(oracle);
    let mut out = Vec::with_capacity(instances.len() * rounds);
    for _ in 0..rounds {
        let served = drive_closed_loop(engine, tenant, instances, |inst, query| {
            if stalled {
                // Never answer; the park-to-abstention timeout will
                // complete the request.
                None
            } else {
                // `Stale` is a legal race under feedback timeouts or
                // injected loss/delay — the driver absorbs it and the
                // next poll picks up the current state.
                Some(resolve_flag(&policy, inst, query))
            }
        });
        out.extend(served.into_iter().map(|(instance, done)| ServedRequest {
            tenant,
            instance,
            outcome: done.outcome,
            shed: done.shed,
            timed_out: done.timed_out,
            faulted: done.faulted,
        }));
    }
    out
}

/// Flatten a workload run into the printable [`ServingRecord`].
pub fn serving_record(result: &WorkloadResult, config: &WorkloadConfig) -> ServingRecord {
    let s = &result.stats;
    let wall_ms = result.wall.as_secs_f64() * 1e3;
    ServingRecord {
        workers: config.serve.workers,
        clients: config.clients,
        queue_capacity: config.serve.queue_capacity,
        cache_capacity: config.serve.cache_capacity,
        deadline_ms: config.serve.deadline.map(|d| d.as_secs_f64() * 1e3),
        n_requests: result.n_requests,
        completed: s.completed,
        shed: s.shed,
        rejected_submits: s.rejected,
        feedback_rounds: s.feedback_rounds,
        p50_ms: s.latency.p50_ms,
        p95_ms: s.latency.p95_ms,
        p99_ms: s.latency.p99_ms,
        mean_ms: s.latency.mean_ms,
        max_ms: s.latency.max_ms,
        throughput_rps: if wall_ms > 0.0 {
            s.completed as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        queue_depth_max: s.queue_depth_max,
        queue_depth_mean: s.queue_depth_mean,
        cache_hits: s.cache.hits,
        cache_misses: s.cache.misses,
        cache_evictions: s.cache.evictions,
        cache_hit_rate: s.cache.hit_rate(),
        parked_bytes_peak: s.parked_bytes_peak as u64,
        parked_sessions_peak: s.parked_sessions_peak as u64,
        wall_ms,
        tenancy: TenancyRecord {
            tenants: config.tenants,
            quota_max_in_flight: config.serve.quota.max_in_flight,
            quota_max_parked: config.serve.quota.max_parked,
            feedback_timeout_ms: config.serve.feedback_timeout.map(|t| t.as_secs_f64() * 1e3),
            parked_bytes_budget: config.serve.parked_bytes_budget as u64,
            rejected_quota: s.rejected_quota,
            timed_out_to_abstention: s.timed_out_to_abstention,
            checkpoints: s.checkpoints,
            restores: s.restores,
            checkpoint_bytes_peak: s.checkpoint_bytes_peak as u64,
            tenant_in_flight_peak: s.tenant_in_flight_peak,
        },
        fault: config.serve.fault.is_enabled().then(|| FaultRecord {
            seed: config.serve.fault.seed,
            step_panic_rate: config.serve.fault.rate_of(rts_serve::FaultSite::StepPanic),
            panics_recovered: s.panics_recovered,
            panics_to_abstention: s.panics_to_abstention,
            corrupt_checkpoints_recovered: s.corrupt_checkpoints_recovered,
            context_build_fallbacks: s.context_build_fallbacks,
            feedback_lost: s.feedback_lost,
            feedback_delayed: s.feedback_delayed,
            drained_to_abstention: s.drained_to_abstention,
        }),
    }
}
