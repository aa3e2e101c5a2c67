//! Serving quickstart: the online engine end to end on a tiny
//! benchmark — submit, suspend on feedback, resolve, complete.
//!
//! ```text
//! cargo run --release --example serving_quickstart
//! ```
//!
//! Where `quickstart` drives one blocking linking call, this example
//! shows the production shape: an `rts-serve` engine with a worker
//! pool, a client submitting joint-linking requests, sessions parking
//! on each mBPP flag (`NeedsFeedback`) until the client answers, and
//! the serving stats (latency percentiles, context-cache hit rate,
//! parked-session memory) at drain.

use rts::benchgen::BenchmarkProfile;
use rts::core::abstention::{MitigationPolicy, RtsConfig};
use rts::core::bpp::{Mbpp, MbppConfig};
use rts::core::branching::BranchDataset;
use rts::core::human::{Expertise, HumanOracle};
use rts::core::session::resolve_flag;
use rts::serve::{ClientEvent, Engine, ServeConfig, ServeEngine};
use rts::simlm::{LinkTarget, SchemaLinker};

fn main() {
    // 1. A BIRD-shaped workload and the trained artefacts (both link
    //    targets — the engine chains tables → columns per request).
    let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(42);
    let linker = SchemaLinker::new("bird", 7);
    let ds_t = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 150);
    let ds_c = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, 150);
    let mbpp_t = Mbpp::train(&ds_t, &MbppConfig::default());
    let mbpp_c = Mbpp::train(&ds_c, &MbppConfig::default());

    // 2. The serving engine: 2 workers, bounded admission, a
    //    per-tenant quota, lazy per-database context cache. No
    //    contexts exist yet — each tenant pays its own cold start on
    //    first request.
    let config = ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 4,
        // Fairness: no tenant may hold more than 4 requests in flight;
        // beyond that *it* gets QuotaExceeded while others keep going.
        quota: rts::serve::TenantQuota { max_in_flight: 4 },
        rts: RtsConfig::default(),
        ..ServeConfig::default()
    };
    let engine = ServeEngine::new(&linker, &mbpp_t, &mbpp_c, &bench.metas, config);

    // 3. A (simulated) expert answers whatever the sessions ask.
    let oracle = HumanOracle::new(Expertise::Expert, 1);
    let policy = MitigationPolicy::Human(&oracle);

    let instances: Vec<&rts::benchgen::Instance> = bench.split.dev.iter().take(12).collect();
    crossbeam::thread::scope(|s| {
        for _ in 0..engine.config().workers {
            s.spawn(|_| engine.worker_loop());
        }

        // 4. The client loop: submit → wait → (resolve feedback)* → done.
        //    A parked request holds no worker — the pool keeps serving
        //    other tickets while this one waits for its human.
        let mut suspensions = 0usize;
        for inst in &instances {
            // Every submission is tagged with its tenant (tenant 0
            // here — a real front-end maps API keys to TenantIds).
            let ticket = engine.submit(0, inst).expect("queue has room");
            loop {
                match engine.wait_event(ticket) {
                    ClientEvent::NeedsFeedback { target, query } => {
                        if suspensions == 0 {
                            println!(
                                "ticket {ticket}: suspended on a {target:?} flag \
                                 (round {}, implicated {:?})",
                                query.round, query.implicated
                            );
                        }
                        suspensions += 1;
                        let resolution = resolve_flag(&policy, inst, &query);
                        if suspensions == 1 {
                            println!("ticket {ticket}: resolving with {resolution:?}");
                        }
                        engine
                            .resolve(ticket, &query, resolution)
                            .expect("no timeouts or faults configured");
                    }
                    ClientEvent::Done(done) => {
                        if suspensions > 0 && done.n_feedback > 0 {
                            println!(
                                "ticket {ticket}: done — tables {:?} / columns {:?} \
                                 after {} feedback round(s), {:.2} ms\n",
                                done.outcome.tables.predicted,
                                done.outcome.columns.predicted,
                                done.n_feedback,
                                done.latency.as_secs_f64() * 1e3,
                            );
                        }
                        break;
                    }
                    ClientEvent::Retired => {
                        unreachable!("ticket {ticket} retired while its client still waits")
                    }
                }
            }
        }
        engine.shutdown();
        println!(
            "served {} requests, {suspensions} suspensions total",
            instances.len()
        );
    })
    .expect("serving scope panicked");

    // 5. The engine's accounting — the same numbers a remote client
    //    reads with the wire `Stats` request.
    let stats = engine.stats();
    println!(
        "latency p50/p95/p99: {:.2}/{:.2}/{:.2} ms, cache hit rate {:.0}%, \
         peak parked {} sessions ({} B)",
        stats.latency.p50_ms,
        stats.latency.p95_ms,
        stats.latency.p99_ms,
        stats.cache.hit_rate() * 100.0,
        stats.parked_sessions_peak,
        stats.parked_bytes_peak,
    );
    assert_eq!(stats.completed, instances.len() as u64);
}
