//! Minimal criterion-compatible benchmark harness.
//!
//! Real measurement loop (warm-up + timed batches, median-of-batches
//! reporting) behind the criterion 0.5 API surface this workspace uses.
//! Set `RTS_BENCH_SMOKE=1` to run every benchmark for a single
//! iteration — the CI bitrot check. Like criterion, the first argument
//! that is not a `--flag` filters: `cargo bench --bench linker_bench --
//! simlm/` runs only the benchmarks whose id contains `simlm/`.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How batched inputs are sized (accepted for API compatibility; the
/// shim always re-runs the setup closure per iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

#[derive(Debug, Clone)]
struct Config {
    smoke: bool,
    warm_up: Duration,
    measure: Duration,
    /// Run only the benchmarks whose id contains this.
    filter: Option<String>,
}

impl Config {
    fn from_env() -> Self {
        let smoke = std::env::var("RTS_BENCH_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        Self {
            smoke,
            warm_up: Duration::from_millis(150),
            measure: Duration::from_millis(600),
            filter: name_filter(std::env::args().skip(1)),
        }
    }
}

/// The benchmark-name filter among the harness arguments: the first one
/// that is not a flag (cargo passes `--bench`).
fn name_filter(mut args: impl Iterator<Item = String>) -> Option<String> {
    args.find(|a| !a.starts_with("--"))
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    config: Config,
    /// (total time, iterations) recorded by the last `iter*` call.
    sample: Option<(Duration, u64)>,
}

impl Bencher {
    fn new(config: Config) -> Self {
        Self {
            config,
            sample: None,
        }
    }

    /// Time `routine` over repeated calls.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.config.smoke {
            let t0 = Instant::now();
            black_box(routine());
            self.sample = Some((t0.elapsed(), 1));
            return;
        }
        // Warm-up while estimating the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.config.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let target: u64 =
            ((self.config.measure.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(1, 50_000_000);
        let t0 = Instant::now();
        for _ in 0..target {
            black_box(routine());
        }
        self.sample = Some((t0.elapsed(), target));
    }

    /// Time `routine` over inputs produced by `setup` (setup excluded
    /// from the measurement).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let iters: u64 = if self.config.smoke { 1 } else { 64 };
        let mut total = Duration::ZERO;
        let mut done: u64 = 0;
        let budget_start = Instant::now();
        for _ in 0..iters {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            total += t0.elapsed();
            done += 1;
            if !self.config.smoke && budget_start.elapsed() > self.config.measure * 2 {
                break;
            }
        }
        self.sample = Some((total, done.max(1)));
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn run_one(config: &Config, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
    if config
        .filter
        .as_deref()
        .is_some_and(|filter| !name.contains(filter))
    {
        return;
    }
    let mut b = Bencher::new(config.clone());
    f(&mut b);
    match b.sample {
        Some((total, iters)) => {
            let ns = total.as_secs_f64() * 1e9 / iters as f64;
            println!(
                "{name:<55} time: {:>12}/iter  ({iters} iters)",
                format_ns(ns)
            );
        }
        None => println!("{name:<55} (no measurement recorded)"),
    }
}

/// Top-level benchmark driver (criterion-compatible subset).
pub struct Criterion {
    config: Config,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            config: Config::from_env(),
        }
    }
}

impl Criterion {
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&self.config, &id.into(), &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            parent: self,
        }
    }
}

/// A named group; benchmark ids are printed as `group/id`.
pub struct BenchmarkGroup<'a> {
    name: String,
    parent: &'a mut Criterion,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into());
        run_one(&self.parent.config, &full, &mut f);
        self
    }

    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_single_iteration() {
        let config = Config {
            smoke: true,
            ..Config::from_env()
        };
        let mut b = Bencher::new(config);
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert_eq!(count, 1);
        assert_eq!(b.sample.unwrap().1, 1);
    }

    #[test]
    fn iter_batched_separates_setup() {
        let config = Config {
            smoke: true,
            ..Config::from_env()
        };
        let mut b = Bencher::new(config);
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.sample.is_some());
    }

    #[test]
    fn name_filter_skips_flags() {
        let filter = |args: &[&str]| name_filter(args.iter().map(|a| a.to_string()));
        assert_eq!(filter(&["--bench", "simlm/"]), Some("simlm/".into()));
        assert_eq!(filter(&["--bench"]), None);
    }

    #[test]
    fn filtered_out_benchmarks_do_not_run() {
        let mut criterion = Criterion {
            config: Config {
                smoke: true,
                filter: Some("keep".into()),
                ..Config::from_env()
            },
        };
        let (mut kept, mut skipped) = (0, 0);
        criterion.bench_function("keep_me", |b| b.iter(|| kept += 1));
        criterion.bench_function("skip_me", |b| b.iter(|| skipped += 1));
        let mut group = criterion.benchmark_group("keep");
        group.bench_function("any", |b| b.iter(|| kept += 1));
        group.finish();
        let mut group = criterion.benchmark_group("other");
        group.bench_function("any", |b| b.iter(|| skipped += 1));
        group.finish();
        assert_eq!((kept, skipped), (2, 0));
    }
}
