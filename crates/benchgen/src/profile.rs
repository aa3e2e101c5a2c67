//! Benchmark profiles: the knobs that make a generated workload
//! BIRD-shaped or Spider-shaped, plus the entry point that assembles a
//! full [`crate::Benchmark`].

use crate::dataset::{generate_benchmark, Benchmark};
use serde::{Deserialize, Serialize};

/// All generation knobs for one benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchmarkProfile {
    /// Benchmark tag ("bird", "spider").
    pub name: String,
    pub n_databases: usize,
    pub n_domains: usize,
    pub n_train: usize,
    pub n_dev: usize,
    pub n_test: usize,
    /// Inclusive range of tables per database.
    pub tables_per_db: (usize, usize),
    /// Inclusive range of *attribute* columns per table (keys excluded).
    pub cols_per_table: (usize, usize),
    /// Inclusive range of rows per table.
    pub rows_per_table: (usize, usize),
    /// Probability a column name is abbreviated (BIRD "dirty values").
    pub p_dirty: f64,
    /// Probability a dirty column also loses its description.
    pub p_missing_desc: f64,
    /// Probability a mention deliberately uses an ambiguous phrase.
    pub p_ambiguous: f64,
    /// Probability an instance carries external knowledge.
    pub p_external_knowledge: f64,
    /// Difficulty mix: [simple, moderate, challenging] (sums to 1).
    pub difficulty_mix: [f64; 3],
}

impl BenchmarkProfile {
    /// BIRD-like: 95 DBs over 37 domains, 9428/1534/1534 instances,
    /// heavy dirt and ambiguity, external knowledge on ~30% of examples.
    /// (BIRD's real test set is hidden; we generate one of dev size so
    /// the harness can report a test column like the paper's tables do.)
    pub fn bird_like() -> Self {
        Self {
            name: "bird".into(),
            n_databases: 95,
            n_domains: 37,
            n_train: 9428,
            n_dev: 1534,
            n_test: 1534,
            tables_per_db: (3, 8),
            cols_per_table: (4, 12),
            rows_per_table: (30, 90),
            p_dirty: 0.35,
            p_missing_desc: 0.45,
            p_ambiguous: 0.30,
            p_external_knowledge: 0.30,
            difficulty_mix: [0.40, 0.40, 0.20],
        }
    }

    /// Spider-like: 200 cleaner DBs, 8659/1034/2147 instances, little
    /// dirt, no external knowledge, easier difficulty mix.
    pub fn spider_like() -> Self {
        Self {
            name: "spider".into(),
            n_databases: 200,
            n_domains: 40,
            n_train: 8659,
            n_dev: 1034,
            n_test: 2147,
            tables_per_db: (2, 6),
            cols_per_table: (3, 8),
            rows_per_table: (20, 60),
            p_dirty: 0.08,
            p_missing_desc: 0.25,
            p_ambiguous: 0.13,
            p_external_knowledge: 0.0,
            difficulty_mix: [0.50, 0.35, 0.15],
        }
    }

    /// Shrink every count by `factor` (for fast tests/examples); keeps at
    /// least 2 databases and 10 instances per split.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor in (0,1]");
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(10);
        self.n_databases = ((self.n_databases as f64 * factor).round() as usize).max(3);
        self.n_domains = self.n_domains.min(self.n_databases);
        self.n_train = scale(self.n_train);
        self.n_dev = scale(self.n_dev);
        self.n_test = scale(self.n_test);
        self
    }

    /// Generate the full benchmark (databases + splits).
    pub fn generate(&self, seed: u64) -> Benchmark {
        generate_benchmark(self, seed)
    }
}

/// The corpus scale `RTS_SCALE` names: a [`BenchmarkProfile::scaled`]
/// factor in (0, 1], `default` when unset.
pub fn env_scale(default: f64) -> Result<f64, String> {
    parse_scale(env_var("RTS_SCALE")?.as_deref(), default)
}

/// The corpus seed `RTS_SEED` names, in decimal or in the `0x…` hex
/// that reports and result directories print; `default` when unset.
pub fn env_seed(default: u64) -> Result<u64, String> {
    parse_seed(env_var("RTS_SEED")?.as_deref(), default)
}

/// [`env_scale`] of a raw value (`None`: unset).
pub fn parse_scale(raw: Option<&str>, default: f64) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale),
        _ => Err(format!("RTS_SCALE={raw:?} is not a scale in (0, 1]")),
    }
}

/// [`env_seed`] of a raw value (`None`: unset).
pub fn parse_seed(raw: Option<&str>, default: u64) -> Result<u64, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    }
    .map_err(|_| format!("RTS_SEED={raw:?} is not a decimal or 0x-hex seed"))
}

/// The value of environment variable `name`, `None` when unset.
pub fn env_var(name: &str) -> Result<Option<String>, String> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => Err(format!("{name}={v:?} is not UTF-8")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_read_in_decimal_and_hex() {
        assert_eq!(parse_seed(Some("0x7"), 1), Ok(7));
        assert_eq!(parse_seed(Some("7"), 1), Ok(7));
        assert_eq!(parse_seed(Some("0XC0FFEE"), 1), Ok(0xC0FFEE));
        for bad in ["abc", "0.0.2", "", "0x", "-1", "0xg"] {
            let err = parse_seed(Some(bad), 1).unwrap_err();
            assert!(err.starts_with("RTS_SEED="), "{err}");
        }
    }

    #[test]
    fn scales_outside_the_unit_interval_are_refused() {
        assert_eq!(parse_scale(Some("0.02"), 1.0), Ok(0.02));
        assert_eq!(parse_scale(Some("1"), 0.5), Ok(1.0));
        for bad in ["abc", "0.0.2", "", "0", "-0.5", "1.5", "NaN"] {
            let err = parse_scale(Some(bad), 1.0).unwrap_err();
            assert!(err.starts_with("RTS_SCALE="), "{err}");
        }
    }

    #[test]
    fn unset_gives_the_default() {
        assert_eq!(parse_seed(None, 0xC0FFEE), Ok(0xC0FFEE));
        assert_eq!(parse_scale(None, 0.03), Ok(0.03));
    }

    #[test]
    fn presets_match_published_scale() {
        let bird = BenchmarkProfile::bird_like();
        assert_eq!(bird.n_databases, 95);
        assert_eq!(bird.n_domains, 37);
        assert_eq!((bird.n_train, bird.n_dev), (9428, 1534));
        let spider = BenchmarkProfile::spider_like();
        assert_eq!(spider.n_databases, 200);
        assert_eq!(
            (spider.n_train, spider.n_dev, spider.n_test),
            (8659, 1034, 2147)
        );
        assert!(bird.p_dirty > spider.p_dirty, "BIRD is dirtier than Spider");
        assert!(bird.p_ambiguous > spider.p_ambiguous);
    }

    #[test]
    fn difficulty_mixes_sum_to_one() {
        for p in [
            BenchmarkProfile::bird_like(),
            BenchmarkProfile::spider_like(),
        ] {
            let sum: f64 = p.difficulty_mix.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} mix sums to {sum}", p.name);
        }
    }

    #[test]
    fn scaled_keeps_minimums() {
        let tiny = BenchmarkProfile::bird_like().scaled(0.001);
        assert!(tiny.n_databases >= 3);
        assert!(tiny.n_dev >= 10);
        assert!(tiny.n_domains <= tiny.n_databases);
    }
}
