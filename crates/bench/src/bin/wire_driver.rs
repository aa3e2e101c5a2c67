//! Closed-loop workload driver for `rts-served`, over the wire.
//!
//! ```text
//! RTS_SCALE=0.03 cargo run --release -p rts-served &            # server
//! RTS_SCALE=0.03 cargo run --release -p rts-bench --bin wire_driver
//! ```
//!
//! The TCP twin of `serve_driver`: rebuilds the same deterministic
//! corpus from the same `RTS_SCALE`/`RTS_SEED` recipe (the wire
//! submits instance *ids*; the `HelloAck` fingerprint proves both
//! processes mean the same instances by them), connects an
//! [`rts_client::RtsClient`], and drives the identical closed-loop
//! multi-client workload through the [`rts_serve::Engine`] trait —
//! the exact code path `serve_driver` runs in-process, now crossing a
//! socket.
//!
//! Knobs: `RTS_WIRE_ADDR` (default `127.0.0.1:7878`) plus the
//! workload subset of the `RTS_SERVE_*` family (`CLIENTS`, `ROUNDS`,
//! `TENANTS`, `STALL_TENANT`) — engine-side knobs live on the server
//! process and must be set there. `RTS_WIRE_PARITY=1` additionally
//! replays every request through the local batch runtime and asserts
//! byte-identical outcomes (requires the server to run without
//! deadline/fault knobs, i.e. nothing wall-clock may degrade).
//!
//! Self-checks mirror `serve_driver`: zero drops, timed-out requests
//! abstain, and the server's gauges drain to zero — read over the
//! wire via `Stats`. On success the driver asks the server to shut
//! down, so a CI leg can wait on both processes.

use rts_bench::serving::{run_clients, WorkloadConfig};
use rts_client::RtsClient;
use rts_core::abstention::{LinkScratch, MitigationPolicy, RtsConfig};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::pipeline::run_joint_linking_in;
use rts_serve::wire::corpus_fingerprint;
use rts_serve::{Engine, ServeConfig, TenantId};
use simlm::{LinkTarget, SchemaLinker};
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// How long the driver keeps redialing a server that is still
/// training its artefacts before giving up.
const CONNECT_BUDGET: Duration = Duration::from_secs(300);

fn main() {
    let scale: f64 = std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = rts_bench::env_seed();
    let addr = std::env::var("RTS_WIRE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());

    let t0 = Instant::now();
    let bench = benchgen::BenchmarkProfile::bird_like()
        .scaled(scale)
        .generate(seed);
    let linker = SchemaLinker::new("bird", seed ^ 0x11CC);
    let fingerprint = corpus_fingerprint("bird", scale, seed, linker.corpus());
    eprintln!(
        "[wire_driver] corpus ready in {:.1}s; fingerprint {fingerprint}",
        t0.elapsed().as_secs_f64()
    );

    // The server trains its artefacts after binding, so the handshake
    // can take a while to answer; keep redialing within the budget.
    let deadline = Instant::now() + CONNECT_BUDGET;
    let client = loop {
        match RtsClient::connect(&addr, Some(&fingerprint)) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "server at {addr} never became ready: {e}"
                );
                eprintln!("[wire_driver] waiting for {addr}: {e}");
                std::thread::sleep(Duration::from_millis(500));
            }
        }
    };
    eprintln!(
        "[wire_driver] connected to {addr} as session {:?}",
        client.session_id()
    );

    let tenants = env_usize("RTS_SERVE_TENANTS", 1);
    let stall_tenant: Option<TenantId> = std::env::var("RTS_SERVE_STALL_TENANT")
        .ok()
        .and_then(|v| v.parse().ok());
    let config = WorkloadConfig {
        clients: env_usize("RTS_SERVE_CLIENTS", 4),
        rounds: env_usize("RTS_SERVE_ROUNDS", 2),
        tenants,
        stall_tenant,
        // Engine knobs live on the server; this copy only shapes the
        // client pool (and the stall check below tolerates both).
        serve: ServeConfig {
            feedback_timeout: stall_tenant.map(|_| Duration::from_millis(1)),
            ..ServeConfig::default()
        },
        oracle: HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE),
    };

    let instances = &bench.split.dev;
    let t1 = Instant::now();
    let outcomes = run_clients(&client, instances, &config);
    let wall = t1.elapsed();
    let n_requests = instances.len() * config.rounds;

    // Self-check 1: degrade, never drop — every submitted request
    // came back with an outcome, across the socket.
    assert_eq!(
        outcomes.len(),
        n_requests,
        "every request must complete over the wire"
    );
    for r in &outcomes {
        if r.timed_out {
            assert!(
                r.outcome.abstained(),
                "timed-out request must abstain (instance {})",
                r.instance
            );
        }
    }

    // Self-check 2: the server's gauges drained to zero — read over
    // the wire, proving Stats round-trips and the engine holds no
    // session memory after the workload.
    let stats = client.stats();
    assert!(
        stats.completed as usize >= n_requests,
        "server completed {} < {n_requests} driven requests",
        stats.completed
    );
    assert_eq!(stats.parked_sessions_now, 0, "server still parks sessions");
    assert_eq!(stats.parked_bytes_now, 0, "server still bills parked bytes");
    assert_eq!(
        stats.checkpoint_bytes_now, 0,
        "server still holds checkpoint bytes"
    );
    eprintln!(
        "[wire_driver] {} requests in {:.1}s over the wire; server completed {}, gauges drained",
        n_requests,
        wall.as_secs_f64(),
        stats.completed
    );

    // Self-check 3 (opt-in): byte-identical outcome parity against the
    // local batch runtime — the wire must never change answers, only
    // where they are computed.
    if std::env::var("RTS_WIRE_PARITY").is_ok_and(|v| v == "1") {
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
        let contexts = LinkContexts::build(&bench);
        let policy = MitigationPolicy::Human(&config.oracle);
        let rts = RtsConfig { seed };
        let mut scratch = LinkScratch::default();
        let mut checked = 0usize;
        for r in &outcomes {
            if r.timed_out || r.faulted || r.shed {
                continue;
            }
            let Some(inst) = instances.iter().find(|i| i.id == r.instance) else {
                panic!("served an unknown instance id {}", r.instance);
            };
            let batch = run_joint_linking_in(
                &linker,
                &mbpp_t,
                &mbpp_c,
                inst,
                &bench,
                &contexts,
                &policy,
                &rts,
                &mut scratch,
            );
            assert_eq!(
                format!("{:?}", r.outcome),
                format!("{batch:?}"),
                "wire/batch outcome mismatch on instance {}",
                r.instance
            );
            checked += 1;
        }
        eprintln!(
            "[wire_driver] outcome parity: {checked}/{} wire requests ≡ batch runtime",
            outcomes.len()
        );
    }

    // Done: ask the server to drain and end the session cleanly.
    client.shutdown();
    client.bye();
    eprintln!("[wire_driver] server asked to shut down; bye");
}
