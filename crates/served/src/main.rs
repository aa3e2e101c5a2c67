//! `rts-served` — the standalone serving daemon.
//!
//! ```text
//! RTS_SCALE=0.03 cargo run --release -p rts-served
//! ```
//!
//! Rebuilds the deterministic corpus and trains the model artefacts
//! from `RTS_SCALE` (default 0.03) and `RTS_SEED` — the wire submits
//! instance *ids*, so client and server must agree on what the ids
//! mean; the `HelloAck` fingerprint guards that — then fronts a
//! [`rts_serve::ServeEngine`] with the framed TCP protocol of
//! `PROTOCOL.md`.
//!
//! Knobs:
//!
//! * `RTS_SERVED_ADDR` (default `127.0.0.1:7878`) — listen address;
//! * `RTS_SERVED_SHARDS` (default 1) — database shards;
//! * `RTS_SERVE_QUEUE` (default 16) — admission-queue bound;
//! * `RTS_SERVE_CACHE` (default 8) — context-cache capacity per
//!   shard and target;
//! * `RTS_SERVE_QUOTA` (default off) — per-tenant max in flight;
//! * `RTS_SERVE_DEADLINE_MS` (default off) — per-request budget;
//!   expired requests degrade to abstention;
//! * `RTS_SERVE_FEEDBACK_TIMEOUT_MS` (default off) — park-to-abstain
//!   feedback timeout;
//! * `RTS_SERVE_PARKED_BUDGET` (default off) — parked-bytes budget;
//!   past it parked checkpoints are encoded to bytes;
//! * `RTS_THREADS` — engine worker threads in total (as everywhere).
//!
//! A millisecond knob that is negative, NaN, infinite or too large for
//! a `Duration` reads as unset, like one that does not parse.
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

/// The corpus and merge-RNG seed: `RTS_SEED` in decimal, by default
/// the paper experiments' `0xC0FFEE`.
fn env_seed() -> u64 {
    parse_seed(std::env::var("RTS_SEED").ok().as_deref())
}

fn parse_seed(value: Option<&str>) -> u64 {
    value.and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE)
}

fn env_ms(key: &str) -> Option<Duration> {
    parse_ms(std::env::var(key).ok().as_deref())
}

/// A millisecond budget, or `None` (off) for a value that is missing,
/// unparsable, negative, NaN, infinite or too large for a `Duration`.
fn parse_ms(value: Option<&str>) -> Option<Duration> {
    let ms = value?.parse::<f64>().ok()?;
    Duration::try_from_secs_f64(ms / 1e3).ok()
}

fn main() -> ExitCode {
    let scale: f64 = std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.03);
    let seed = env_seed();
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

#[cfg(test)]
mod tests {
    use super::{parse_ms, parse_seed};
    use std::time::Duration;

    #[test]
    fn seed_defaults_to_c0ffee_and_parses_a_decimal_override() {
        assert_eq!(parse_seed(None), 0xC0FFEE);
        assert_eq!(parse_seed(Some("12648430")), 0xC0FFEE);
        assert_eq!(parse_seed(Some("42")), 42);
        assert_eq!(parse_seed(Some("0x2A")), 0xC0FFEE, "decimal only");
    }

    #[test]
    fn millisecond_budgets_parse_and_bad_values_read_as_unset() {
        assert_eq!(parse_ms(Some("250")), Some(Duration::from_millis(250)));
        assert_eq!(parse_ms(Some("0.5")), Some(Duration::from_micros(500)));
        for bad in ["-5", "nan", "inf", "1e300", "soon"] {
            assert_eq!(parse_ms(Some(bad)), None, "{bad}");
        }
        assert_eq!(parse_ms(None), None);
    }
}
