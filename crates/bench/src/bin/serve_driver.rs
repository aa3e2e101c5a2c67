//! Closed-loop workload driver for the `rts-serve` engine, standalone.
//!
//! ```text
//! RTS_SCALE=0.03 cargo run --release -p rts-bench --bin serve_driver
//! ```
//!
//! Trains the usual artefacts, then drives a mixed joint-linking
//! workload (concurrent clients, human feedback on every suspension)
//! through the serving engine and prints the serving record. Knobs:
//!
//! * `RTS_SERVE_CLIENTS` (default 4) — closed-loop client threads;
//! * `RTS_SERVE_ROUNDS` (default 2) — passes over the dev split;
//! * `RTS_SERVE_TENANTS` (default 1) — distinct tenants, clients
//!   assigned round-robin;
//! * `RTS_SERVE_QUOTA` (default off) — per-tenant max in-flight;
//!   bounced submissions are retried (quota backpressure protocol);
//! * `RTS_SERVE_QUEUE` (default 16) — admission-queue bound;
//! * `RTS_SERVE_CACHE` (default 8) — context-cache capacity/target;
//! * `RTS_SERVE_DEADLINE_MS` (default off) — per-request budget;
//!   expired requests degrade to abstention instead of dropping;
//! * `RTS_SERVE_FEEDBACK_TIMEOUT_MS` (default off) — park-to-abstain
//!   feedback timeout;
//! * `RTS_SERVE_STALL_TENANT` (default off) — this tenant's clients
//!   never answer feedback; its flagged requests must complete through
//!   the feedback timeout;
//! * `RTS_SERVE_PARKED_BUDGET` (default off) — live parked-bytes
//!   budget; past it parked sessions are checkpointed out of memory;
//! * `RTS_SERVE_FAULT_SEED` (default off) — arm the deterministic
//!   fault-injection plan under this schedule seed (worker step
//!   panics, corrupt checkpoint decodes, failed context builds,
//!   lost/delayed feedback — see `rts_serve::fault`);
//! * `RTS_SERVE_FAULT_RATE` (default 0.05) — per-site trip
//!   probability when the plan is armed;
//! * `RTS_THREADS` — engine worker threads (as everywhere).
//!
//! The driver is self-verifying before it exits:
//! * zero drops — every submitted request completes, however it was
//!   degraded (shed, quota-bounced-then-retried, timed out, faulted);
//! * fairness — no tenant ever exceeded its in-flight quota;
//! * stalled tenants — every timed-out request abstained, and only the
//!   stalled tenant timed out; with a stall configured at least one
//!   timeout must actually fire;
//! * memory — parked bytes and checkpoint bytes return to 0 after the
//!   drain (per-ticket state is released eagerly, not at engine drop);
//! * chaos — with a fault plan armed, injected step panics actually
//!   fired and were recovered (the counters prove the machinery ran),
//!   and every faulted request degraded to abstention;
//! * outcome parity — with no deadline in play, each request's joint
//!   outcome equals the batch runtime's for the same instance (timed-
//!   out requests abstain by design and are skipped): the serve engine
//!   must never change answers, only when they arrive. Under an armed
//!   fault plan the check covers every *unfaulted* request — recovery
//!   must be invisible in the answers.

use rts_bench::serving::{run_workload, serving_record, WorkloadConfig};
use rts_core::abstention::{LinkScratch, MitigationPolicy, RtsConfig};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::pipeline::run_joint_linking_in;
use rts_serve::{FaultPlan, ServeConfig, TenantId, TenantQuota};
use simlm::{LinkTarget, SchemaLinker};
use std::time::Duration;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_ms(key: &str) -> Option<Duration> {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ms| Duration::from_secs_f64(ms / 1e3))
}

fn main() {
    let scale = std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = rts_bench::env_seed();

    let t0 = std::time::Instant::now();
    let bench = benchgen::BenchmarkProfile::bird_like()
        .scaled(scale)
        .generate(seed);
    let linker = SchemaLinker::new("bird", seed ^ 0x11CC);
    let probe_cfg = MbppConfig {
        probe: ProbeConfig {
            epochs: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let ds_t = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 400);
    let ds_c = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, 400);
    let mbpp_t = Mbpp::train(&ds_t, &probe_cfg);
    let mbpp_c = Mbpp::train(&ds_c, &probe_cfg);
    eprintln!(
        "[serve_driver] setup (benchmark + mBPPs) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let tenants = env_usize("RTS_SERVE_TENANTS", 1);
    let quota = env_usize("RTS_SERVE_QUOTA", 0);
    let stall_tenant: Option<TenantId> = std::env::var("RTS_SERVE_STALL_TENANT")
        .ok()
        .and_then(|v| v.parse().ok());
    let fault = match std::env::var("RTS_SERVE_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(fault_seed) => {
            let rate = std::env::var("RTS_SERVE_FAULT_RATE")
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.05);
            // Injected panics are scheduled, not bugs: keep their
            // backtraces out of the log (genuine panics still print).
            rts_serve::fault::silence_injected_panics();
            eprintln!("[serve_driver] chaos: fault plan armed (seed {fault_seed}, rate {rate})");
            FaultPlan::seeded(fault_seed, rate)
        }
        None => FaultPlan::disabled(),
    };
    let fault_enabled = fault.is_enabled();
    let config = WorkloadConfig {
        clients: env_usize("RTS_SERVE_CLIENTS", 4),
        rounds: env_usize("RTS_SERVE_ROUNDS", 2),
        tenants,
        stall_tenant,
        serve: ServeConfig {
            queue_capacity: env_usize("RTS_SERVE_QUEUE", 16),
            cache_capacity: env_usize("RTS_SERVE_CACHE", 8),
            quota: TenantQuota {
                max_in_flight: quota,
                max_parked: 0,
            },
            deadline: env_ms("RTS_SERVE_DEADLINE_MS"),
            feedback_timeout: env_ms("RTS_SERVE_FEEDBACK_TIMEOUT_MS"),
            parked_bytes_budget: env_usize("RTS_SERVE_PARKED_BUDGET", 0),
            fault,
            rts: RtsConfig { seed },
            ..ServeConfig::default()
        },
        oracle: HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE),
    };

    let instances = &bench.split.dev;
    let result = run_workload(&linker, &mbpp_t, &mbpp_c, &bench.metas, instances, &config);
    let record = serving_record(&result, &config);
    print!("{}", record.render());

    // Self-check 1: degrade, never drop — whatever the knobs did.
    assert_eq!(
        record.completed as usize, result.n_requests,
        "every request must complete (shed/timeout degrade, never drop)"
    );

    // Self-check 2: fairness — the engine never let any tenant exceed
    // its in-flight quota, however hard its clients pushed.
    if quota > 0 {
        assert!(
            result.stats.tenant_in_flight_peak <= quota,
            "fairness violated: a tenant reached {} in flight with quota {quota}",
            result.stats.tenant_in_flight_peak,
        );
        eprintln!(
            "[serve_driver] fairness: peak per-tenant in-flight {} ≤ quota {quota} \
             ({} quota bounces retried)",
            result.stats.tenant_in_flight_peak, result.stats.rejected_quota,
        );
    }

    // Self-check 3: stalled tenants time out into abstention. Every
    // timed-out request must have abstained (the degrade-never-drop
    // contract — hard assert); a *non*-stalled tenant timing out is
    // possible on a contended runner (its prompt answer can still lose
    // the scheduling race against the park deadline), so that is
    // reported, not failed.
    if let Some(stalled) = stall_tenant {
        let stalled_timeouts = result
            .outcomes
            .iter()
            .filter(|r| r.tenant == stalled && r.timed_out)
            .count();
        assert!(
            stalled_timeouts > 0,
            "a stalled tenant must hit the feedback timeout at least once"
        );
        for r in &result.outcomes {
            if r.timed_out {
                assert!(
                    r.outcome.abstained(),
                    "timed-out request must abstain (instance {})",
                    r.instance
                );
            }
        }
        let bystander_timeouts = result
            .outcomes
            .iter()
            .filter(|r| r.tenant != stalled && r.timed_out)
            .count();
        if bystander_timeouts > 0 {
            eprintln!(
                "[serve_driver] note: {bystander_timeouts} non-stalled request(s) also \
                 timed out (scheduling noise; their answers were dropped, not misapplied)"
            );
        }
        eprintln!(
            "[serve_driver] stall: tenant {stalled} had {stalled_timeouts} requests \
             time out to abstention ({} total engine timeouts); zero drops across \
             all tenants",
            result.stats.timed_out_to_abstention,
        );
    }

    // Self-check 4: parked state is released eagerly — after the drain
    // the engine holds no session memory, live or checkpointed.
    assert_eq!(
        result.stats.parked_sessions_now, 0,
        "drained engine still holds parked sessions"
    );
    assert_eq!(
        result.stats.parked_bytes_now, 0,
        "drained engine still bills parked bytes"
    );
    assert_eq!(
        result.stats.checkpoint_bytes_now, 0,
        "drained engine still holds checkpoint bytes"
    );
    if config.serve.parked_bytes_budget > 0 {
        eprintln!(
            "[serve_driver] checkpointing: {} parked sessions evicted to bytes, {} restored, \
             peak {} checkpoint B (budget {} B); parked bytes back to 0 after drain",
            result.stats.checkpoints,
            result.stats.restores,
            result.stats.checkpoint_bytes_peak,
            config.serve.parked_bytes_budget,
        );
    }

    // Self-check 5: chaos — an armed fault plan must actually have
    // exercised the recovery machinery, and every unrecoverable fault
    // must have degraded to abstention (never a drop — check 1 already
    // proved completion).
    if fault_enabled {
        let stats = &result.stats;
        assert!(
            stats.panics_recovered > 0,
            "an armed step-panic site must fire on this workload"
        );
        for r in &result.outcomes {
            if r.faulted {
                assert!(
                    r.outcome.abstained(),
                    "faulted request must abstain (instance {})",
                    r.instance
                );
            }
        }
        let faulted = result.outcomes.iter().filter(|r| r.faulted).count();
        eprintln!(
            "[serve_driver] chaos: {} step panics recovered ({} tickets degraded to \
             faulted abstention), {} corrupt checkpoints salvaged, {} context-build \
             fallbacks, feedback {} lost / {} delayed; {faulted} faulted outcomes, \
             zero drops, gauges drained",
            stats.panics_recovered,
            stats.panics_to_abstention,
            stats.corrupt_checkpoints_recovered,
            stats.context_build_fallbacks,
            stats.feedback_lost,
            stats.feedback_delayed,
        );
    } else {
        assert!(
            result.outcomes.iter().all(|r| !r.faulted),
            "no fault plan, nothing may fault"
        );
    }

    // Self-check 6: outcome parity against the batch runtime — only
    // meaningful where nothing was degraded by wall-clock effects
    // (deadlines shed whole stages, so those runs are excluded;
    // timed-out requests are skipped individually). Under an armed
    // fault plan, *recovered* faults must be invisible: every
    // unfaulted, untimed request still answers exactly like the batch
    // run.
    if config.serve.deadline.is_none() {
        let contexts = LinkContexts::build(&bench);
        let policy = MitigationPolicy::Human(&config.oracle);
        let mut scratch = LinkScratch::default();
        let mut checked = 0usize;
        for r in &result.outcomes {
            assert!(!r.shed, "no deadline, nothing may shed");
            if config.serve.feedback_timeout.is_none() {
                assert!(!r.timed_out, "no timeout, nothing should time out");
            }
            if r.faulted || r.timed_out {
                // Degraded by an unrecoverable injected fault or a
                // park timeout: abstained by design (asserted above),
                // not batch-comparable.
                continue;
            }
            checked += 1;
            let inst = instances
                .iter()
                .find(|i| i.id == r.instance)
                .expect("known id");
            let batch = run_joint_linking_in(
                &linker,
                &mbpp_t,
                &mbpp_c,
                inst,
                &bench,
                &contexts,
                &policy,
                &config.serve.rts,
                &mut scratch,
            );
            assert_eq!(
                format!("{:?}", r.outcome),
                format!("{batch:?}"),
                "serve/batch outcome mismatch on instance {}",
                r.instance
            );
        }
        eprintln!(
            "[serve_driver] outcome parity: {checked}/{} served requests ≡ batch runtime",
            result.outcomes.len()
        );
    }
}
