//! Open-loop load driver for the `rts-serve` engine, standalone.
//!
//! ```text
//! RTS_SCALE=0.03 RTS_OL_RATES=50,150 cargo run --release -p rts-bench --bin openloop_driver
//! ```
//!
//! Trains the usual artefacts, then sweeps a seeded Poisson arrival
//! schedule (Zipf user/database skew — see `rts_bench::openloop`)
//! across the configured offered rates against a sharded
//! [`ServeEngine`](rts_serve::ServeEngine) and prints the open-loop
//! record. Knobs:
//!
//! * `RTS_OL_RATES` (default `400,1200,3600`) — comma-separated
//!   offered rates, req/s ascending;
//! * `RTS_OL_REQUESTS` (default 60) — arrivals per sweep point;
//! * `RTS_OL_USERS` (default 200) — simulated-user population;
//! * `RTS_OL_TENANTS` (default 4) — tenants the users map onto;
//! * `RTS_OL_ZIPF` (default 1.1) — popularity-skew exponent;
//! * `RTS_OL_SHARDS` (default 2) — shards of the engine under test;
//! * `RTS_OL_QUEUE` (default 32) / `RTS_OL_CACHE` (default 8) —
//!   per-shard admission-queue and context-cache bounds;
//! * `RTS_OL_COLLECTORS` (default 4) — completion-collector threads;
//! * `RTS_THREADS` — total engine workers;
//! * `RTS_OL_PARITY=1` — rerun the first sweep point unsharded and
//!   assert per-arrival outcome keys are byte-identical.
//!
//! The harness itself asserts zero drops and drained gauges after
//! every point (see `openloop::run_point`); the driver adds the
//! sharded ≡ single-shard parity check on top, which is what the
//! `open-loop` CI smoke leg runs.

use rts_bench::openloop::{run_sweep, OpenLoopConfig};
use rts_core::abstention::RtsConfig;
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::human::{Expertise, HumanOracle};
use rts_serve::ServeConfig;
use simlm::{LinkTarget, SchemaLinker};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_rates() -> Vec<f64> {
    let rates: Vec<f64> = std::env::var("RTS_OL_RATES")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|r| r.trim().parse().expect("RTS_OL_RATES: bad rate"))
                .collect()
        })
        .unwrap_or_else(|| vec![400.0, 1200.0, 3600.0]);
    assert!(
        !rates.is_empty(),
        "RTS_OL_RATES must name at least one rate"
    );
    assert!(
        rates.windows(2).all(|w| w[0] < w[1]),
        "RTS_OL_RATES must ascend (the knee search assumes it)"
    );
    rates
}

fn main() {
    let scale = env_f64("RTS_SCALE", 0.03);
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
        "[openloop_driver] setup (benchmark + mBPPs) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let config = OpenLoopConfig {
        users: env_usize("RTS_OL_USERS", 200) as u32,
        tenants: env_usize("RTS_OL_TENANTS", 4) as u32,
        zipf_s: env_f64("RTS_OL_ZIPF", 1.1),
        requests_per_point: env_usize("RTS_OL_REQUESTS", 60),
        rates_rps: env_rates(),
        collectors: env_usize("RTS_OL_COLLECTORS", 4),
        serve: ServeConfig {
            shards: env_usize("RTS_OL_SHARDS", 2),
            queue_capacity: env_usize("RTS_OL_QUEUE", 32),
            cache_capacity: env_usize("RTS_OL_CACHE", 8),
            rts: RtsConfig { seed },
            ..ServeConfig::default()
        },
        oracle: HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE),
        seed,
    };

    let instances = &bench.split.dev;
    let sweep = run_sweep(&linker, &mbpp_t, &mbpp_c, &bench.metas, instances, &config);
    print!("{}", sweep.record.render());

    // Sanity the harness's own zero-drop accounting end to end: every
    // point completed exactly its schedule (run_point hard-asserts the
    // per-point and per-shard invariants as it goes).
    for (point, keys) in sweep.record.points.iter().zip(&sweep.outcomes) {
        assert_eq!(point.completed as usize, config.requests_per_point);
        assert_eq!(keys.len(), config.requests_per_point);
    }

    // Parity: the sharded run must be byte-identical per request to an
    // unsharded run of the same schedule — worker placement and cache
    // partitioning may move latency, never answers.
    if std::env::var("RTS_OL_PARITY").is_ok_and(|v| v == "1") {
        let single = OpenLoopConfig {
            rates_rps: vec![config.rates_rps[0]],
            serve: ServeConfig {
                shards: 1,
                ..config.serve.clone()
            },
            ..config.clone()
        };
        let baseline = run_sweep(&linker, &mbpp_t, &mbpp_c, &bench.metas, instances, &single);
        let sharded_keys = &sweep.outcomes[0];
        let single_keys = &baseline.outcomes[0];
        assert_eq!(sharded_keys.len(), single_keys.len());
        for (i, (a, b)) in sharded_keys.iter().zip(single_keys).enumerate() {
            assert_eq!(
                a, b,
                "sharded/single-shard outcome mismatch at arrival {i} \
                 (rate {} req/s)",
                config.rates_rps[0]
            );
        }
        eprintln!(
            "[openloop_driver] parity: {} shards ≡ 1 shard on {} arrivals at {} req/s",
            config.serve.shards,
            single_keys.len(),
            config.rates_rps[0]
        );
    }
}
