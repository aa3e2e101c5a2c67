//! `rts-served` — the standalone serving daemon.
//!
//! ```text
//! RTS_SCALE=0.03 cargo run --release -p rts-served
//! ```
//!
//! Rebuilds the deterministic corpus and trains the model artefacts
//! exactly like `serve_driver` (same `RTS_SCALE`/`RTS_SEED` recipe —
//! the wire submits instance *ids*, so client and server must agree on
//! what the ids mean; the `HelloAck` fingerprint guards that), then
//! fronts a [`rts_serve::ServeEngine`] with the framed TCP protocol
//! of `PROTOCOL.md`.
//!
//! Knobs, beyond the `RTS_SERVE_*` engine set documented on
//! `serve_driver`:
//!
//! * `RTS_SERVED_ADDR` (default `127.0.0.1:7878`) — listen address;
//! * `RTS_SERVED_SHARDS` (default 1) — database shards;
//! * `RTS_THREADS` — engine worker threads in total (as everywhere).
//!
//! The daemon exits 0 after a client sends `Shutdown` and every
//! connection has drained.

use rts_core::abstention::RtsConfig;
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_serve::wire::corpus_fingerprint;
use rts_serve::{ServeConfig, ServeEngine, TenantQuota};
use rts_served::Server;
use simlm::{LinkTarget, SchemaLinker};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
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

fn main() -> ExitCode {
    let scale: f64 = std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = rts_bench::env_seed();
    let addr = std::env::var("RTS_SERVED_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());

    // Bind before the (slow) training so a launcher that polls the
    // port learns "starting" from connection-refused → accepted-but-
    // slow-HelloAck rather than a long refusal window.
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("[rts-served] cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("[rts-served] listening on {addr}; training artefacts…");

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
        "[rts-served] setup (benchmark + mBPPs) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let config = ServeConfig {
        shards: env_usize("RTS_SERVED_SHARDS", 1),
        queue_capacity: env_usize("RTS_SERVE_QUEUE", 16),
        cache_capacity: env_usize("RTS_SERVE_CACHE", 8),
        quota: TenantQuota {
            max_in_flight: env_usize("RTS_SERVE_QUOTA", 0),
            max_parked: 0,
        },
        deadline: env_ms("RTS_SERVE_DEADLINE_MS"),
        feedback_timeout: env_ms("RTS_SERVE_FEEDBACK_TIMEOUT_MS"),
        parked_bytes_budget: env_usize("RTS_SERVE_PARKED_BUDGET", 0),
        rts: RtsConfig { seed },
        ..ServeConfig::default()
    };

    let fingerprint = corpus_fingerprint("bird", scale, seed, linker.corpus());
    let engine = Arc::new(ServeEngine::with_artifacts(
        Arc::new(linker),
        Arc::new(mbpp_t),
        Arc::new(mbpp_c),
        bench.metas.iter().cloned().map(Arc::new).collect(),
        config,
    ));
    // The whole corpus is addressable by id — which split a client
    // drives is its business, not the daemon's.
    let corpus = bench
        .split
        .train
        .iter()
        .chain(bench.split.dev.iter())
        .chain(bench.split.test.iter())
        .cloned();
    let server = Server::new(Arc::clone(&engine), fingerprint, corpus);

    let config = engine.config();
    eprintln!(
        "[rts-served] serving: {} shard(s), {} worker(s) total",
        config.shards, config.workers
    );
    let result = crossbeam::thread::scope(|s| {
        for _ in 0..config.workers {
            s.spawn(|_| engine.worker_loop());
        }
        server.serve(listener)
    });
    match result {
        Ok(Ok(())) => {
            eprintln!("[rts-served] drained; exiting");
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("[rts-served] accept loop failed: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("[rts-served] worker scope panicked");
            ExitCode::FAILURE
        }
    }
}
