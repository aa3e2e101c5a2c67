//! Competence profiles: the per-benchmark calibration of the simulated
//! fine-tuned linker.
//!
//! A fine-tuned model's error rate is a property of (model, benchmark).
//! The paper's Table 2 fixes the operating points we must land near:
//!
//! | Benchmark | Table EM | Column EM |
//! |---|---|---|
//! | BIRD       | 79.70 | 75.32 |
//! | Spider-dev | 93.71 | 88.98 |
//!
//! The per-link error probability is
//! `clamp(scale · (0.25 + 0.75·hardness) · (1 − e^{−mass}) + floor, 0, cap)`
//! where `mass` is the link's confusion mass and `hardness` the
//! instance latent. The scales below were tuned once against the
//! generated workloads; the experiment harness reports the achieved EM
//! next to the paper's.

/// Error-process calibration for one (model, benchmark) pair.
#[derive(Debug, Clone, Copy)]
pub struct CompetenceProfile {
    /// Scale of the per-link error probability for table links.
    pub table_scale: f64,
    /// Scale for column links.
    pub column_scale: f64,
    /// Error floor (irreducible slip rate) per link.
    pub floor: f64,
    /// Per-link error probability cap.
    pub cap: f64,
    /// Of the errors: probability mass of substitution vs omit vs add.
    pub p_substitute: f64,
    pub p_omit: f64,
    // p_add is the remainder.
}

impl CompetenceProfile {
    /// Calibrated profile for a benchmark tag ("bird" / "spider").
    pub fn for_benchmark(name: &str) -> Self {
        match name {
            "bird" => Self {
                table_scale: 0.80,
                column_scale: 0.68,
                floor: 0.010,
                cap: 0.60,
                p_substitute: 0.42,
                p_omit: 0.08,
            },
            "spider" => Self {
                table_scale: 0.29,
                column_scale: 0.47,
                floor: 0.012,
                cap: 0.50,
                p_substitute: 0.42,
                p_omit: 0.08,
            },
            other => panic!("no competence profile for benchmark {other}"),
        }
    }

    /// Per-link error probability. The strong hardness weighting
    /// concentrates errors in hard instances, which is what couples
    /// table-linking and column-linking failures (the overlap the paper
    /// observes between the two stages' abstentions in §4.3).
    pub fn link_error_prob(&self, is_table: bool, hardness: f64, confusion_mass: f64) -> f64 {
        let scale = if is_table {
            self.table_scale
        } else {
            self.column_scale
        };
        let driver = (0.10 + 1.20 * hardness) * (1.0 - (-confusion_mass).exp());
        (scale * driver + self.floor).clamp(0.0, self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bird_is_harder_than_spider() {
        let bird = CompetenceProfile::for_benchmark("bird");
        let spider = CompetenceProfile::for_benchmark("spider");
        assert!(bird.table_scale > spider.table_scale);
        assert!(bird.column_scale > spider.column_scale);
    }

    #[test]
    fn error_prob_monotone_in_hardness_and_mass() {
        let p = CompetenceProfile::for_benchmark("bird");
        assert!(p.link_error_prob(true, 0.8, 1.0) > p.link_error_prob(true, 0.2, 1.0));
        assert!(p.link_error_prob(true, 0.5, 1.5) > p.link_error_prob(true, 0.5, 0.2));
        // No confusables → only the floor remains.
        let base = p.link_error_prob(true, 0.9, 0.0);
        assert!((base - p.floor).abs() < 1e-12);
    }

    #[test]
    fn error_prob_is_capped() {
        let p = CompetenceProfile::for_benchmark("bird");
        assert!(p.link_error_prob(true, 1.0, 100.0) <= p.cap);
    }

    #[test]
    #[should_panic(expected = "no competence profile")]
    fn unknown_benchmark_panics() {
        let _ = CompetenceProfile::for_benchmark("wikisql");
    }
}
