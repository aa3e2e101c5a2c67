//! Seeded request streams. A stream is one pass: a list of indices
//! into [`crate::world::World::pool`]. Runs repeat whole passes.

use benchgen::{Benchmark, Instance};
use tinynn::rng::SplitMix64;

/// Requests in one pass of the Zipf stream.
pub const ZIPF_PASS: usize = 1500;
/// Zipf exponent over database popularity ranks.
const ZIPF_S: f64 = 1.0;

/// `batch`: every held-out (dev ∪ test) instance once, in seeded order.
pub fn held_out(bench: &Benchmark, pool: &[Instance], seed: u64) -> Vec<usize> {
    let first = bench.split.train.len();
    let mut stream: Vec<usize> = (first..pool.len()).collect();
    tinynn::rng::shuffle(&mut stream, &mut SplitMix64::new(seed ^ 0xBA7C));
    stream
}

/// `serve` and `wire`: [`ZIPF_PASS`] requests whose databases follow a
/// Zipf law over all databases (rank = position in name order), each
/// naming a uniformly drawn instance of its database from any split.
/// The draws are fixed by the corpus seed and `seed` only orders them:
/// every seed sends the same requests, so quality metrics do not move
/// with the seed, while the order (and so the cache's hit pattern) does.
pub fn zipf(bench: &Benchmark, pool: &[Instance], seed: u64) -> Vec<usize> {
    let mut names: Vec<&str> = bench.metas.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let by_db: Vec<Vec<usize>> = names
        .iter()
        .map(|name| {
            (0..pool.len())
                .filter(|&i| pool[i].db_name == *name)
                .collect()
        })
        .collect();
    let weights: Vec<f64> = (1..=names.len())
        .map(|rank| (rank as f64).powf(-ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut draws = SplitMix64::new(bench.seed ^ 0x21BF);
    let mut stream: Vec<usize> = (0..ZIPF_PASS)
        .map(|_| {
            let mut u = draws.next_f64() * total;
            let mut rank = 0;
            while rank + 1 < weights.len() && u >= weights[rank] {
                u -= weights[rank];
                rank += 1;
            }
            let instances = &by_db[rank];
            instances[draws.next_below(instances.len())]
        })
        .collect();
    tinynn::rng::shuffle(&mut stream, &mut SplitMix64::new(seed ^ 0x21BF));
    stream
}

/// Distinct databases a stream touches.
pub fn databases(pool: &[Instance], stream: &[usize]) -> usize {
    let mut dbs: Vec<&str> = stream.iter().map(|&i| pool[i].db_name.as_str()).collect();
    dbs.sort_unstable();
    dbs.dedup();
    dbs.len()
}
