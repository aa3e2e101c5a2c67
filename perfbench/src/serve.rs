//! The `serve` path: the in-process engine behind the `Engine` trait,
//! one worker thread and one closed-loop client.

use crate::client::Names;
use crate::world::{self, World};
use rts_serve::{ServeConfig, ServeEngine, ServingStats};

/// Context-cache capacity per link target: well below the 48
/// databases, so the Zipf tail keeps building and evicting contexts.
pub const CACHE_CAPACITY: usize = 8;

pub const NAMES: Names = Names {
    request: "serve.request",
    submit: "serve.submit",
    first_event: "serve.first_event",
    oracle: "serve.oracle",
    resolve: "serve.resolve",
    next_event: "serve.next_event",
};

pub fn engine(world: &World) -> ServeEngine {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 16,
        cache_capacity: CACHE_CAPACITY,
        // Past one byte every parked session is checkpointed, so each
        // feedback round pays encode → decode → restore.
        parked_bytes_budget: 1,
        rts: world::rts_config(),
        ..ServeConfig::default()
    };
    ServeEngine::new(
        &world.linker,
        &world.mbpp_t,
        &world.mbpp_c,
        &world.bench.metas,
        config,
    )
}

/// Run `client` against `engine` with its worker thread alive, then
/// drain the engine and return the client's result with the drained
/// engine's stats.
pub fn drive<R>(engine: &ServeEngine, client: impl FnOnce(&ServeEngine) -> R) -> (R, ServingStats) {
    // Shut the engine down even if the client panics, so the scope's
    // join of the worker cannot hang.
    struct Stop<'a>(&'a ServeEngine);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    let result = std::thread::scope(|s| {
        let worker = s.spawn(|| engine.worker_loop());
        let stop = Stop(engine);
        let r = client(engine);
        drop(stop);
        worker.join().expect("engine worker panicked");
        r
    });
    (result, engine.stats())
}
