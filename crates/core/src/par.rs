//! Deterministic scoped-thread parallelism for the instance level.
//!
//! Every per-instance computation in this workspace is a pure function
//! of the instance plus explicit seeds (monitored linking seeds its RNG
//! via [`instance_rng`]`(RtsConfig::seed, inst.id)`, SQL generation
//! from the generator seed and `inst.id`), so fanning instances out
//! across threads cannot change any outcome — only wall-clock. [`par_map`] preserves input
//! order in its output (results are written into per-index slots), so
//! parallel and serial runs of the experiment harness produce identical
//! tables.
//!
//! The worker pattern is the same work-stealing-by-atomic-counter loop
//! `Mbpp::train` uses for per-layer probe training.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Derive a per-instance RNG from a run seed and the instance id — the
/// single mixing formula shared by the monitored-linking runtime and
/// every experiment driver, so parallel fan-outs stay deterministic
/// and runtime/experiment seeding can never drift apart.
pub fn instance_rng(seed: u64, inst_id: u64) -> tinynn::rng::SplitMix64 {
    tinynn::rng::SplitMix64::new(seed ^ inst_id.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Worker-thread count for [`par_map`]: `RTS_THREADS` if set (clamped
/// to ≥ 1; `RTS_THREADS=1` makes the per-instance fan-outs serial, which
/// the parity tests use as the reference), otherwise the machine's
/// available parallelism.
///
/// `RTS_THREADS` does not reach probe training: `Mbpp::train` always
/// uses `available_parallelism`, on purpose. Each layer's probe is a
/// pure function of its seed and data, so the thread count cannot
/// change a weight, and a serial set-up would only be slower.
pub fn thread_count() -> usize {
    if let Some(n) = std::env::var("RTS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// `f` must be deterministic per item for parallel/serial equivalence —
/// which everything routed through here is (see module docs). Panics in
/// `f` propagate to the caller.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker scratch state: `init` runs once per
/// worker thread and the resulting state is threaded through every item
/// that worker processes. This is what keeps reusable buffers
/// (`BppScratch` etc.) amortised under the parallel fan-out — one
/// scratch per worker instead of one per instance.
///
/// The state must not influence results (it is scratch), otherwise
/// parallel and serial runs could diverge.
pub fn par_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n_workers = thread_count().min(items.len());
    if n_workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let slots: Vec<parking_lot::Mutex<Option<R>>> = items
        .iter()
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let next = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        let slots = &slots;
        let next = &next;
        let init = &init;
        let f = &f;
        for _ in 0..n_workers {
            scope.spawn(move |_| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    *slots[i].lock() = Some(f(&mut state, &items[i]));
                }
            });
        }
    })
    .expect("parallel worker panicked");
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert_eq!(par_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[9], |&x| x + 1), vec![10]);
    }

    #[test]
    fn matches_serial_for_stateful_per_item_rng() {
        // The determinism contract: per-item seeding ⇒ parallel == serial.
        let items: Vec<u64> = (0..64).collect();
        let run = |items: &[u64]| {
            par_map(items, |&id| {
                let mut rng = tinynn::rng::SplitMix64::new(0xC0FFEE ^ id);
                (0..10).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
            })
        };
        let serial: Vec<u64> = items
            .iter()
            .map(|&id| {
                let mut rng = tinynn::rng::SplitMix64::new(0xC0FFEE ^ id);
                (0..10).fold(0u64, |acc, _| acc.wrapping_add(rng.next_u64()))
            })
            .collect();
        assert_eq!(run(&items), serial);
    }
}
