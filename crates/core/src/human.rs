//! Human-in-the-loop oracles.
//!
//! §3.3's interaction protocol asks a user two kinds of questions:
//! *"is table/column X relevant to this question?"* (confirmation) and
//! *"which element did you mean?"* (correction). §4.3's user study
//! measures how accurately people answer by expertise and question
//! difficulty (Table 9). The oracle here reproduces those answer
//! distributions; everything downstream of the answers (trace-back,
//! overrides, regeneration) is the real algorithm.

use benchgen::{Difficulty, Instance};
use tinynn::rng::{stable_hash, SplitMix64};

/// Participant expertise (§4.3: beginners had no SQL experience).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expertise {
    Beginner,
    Expert,
}

/// A simulated study participant.
#[derive(Debug, Clone, Copy)]
pub struct HumanOracle {
    pub expertise: Expertise,
    pub seed: u64,
}

impl HumanOracle {
    pub fn new(expertise: Expertise, seed: u64) -> Self {
        Self { expertise, seed }
    }

    /// Probability of answering a *table* relevance question correctly
    /// (Table 9 operating points).
    pub fn table_accuracy(&self, difficulty: Difficulty) -> f64 {
        match (self.expertise, difficulty) {
            (Expertise::Beginner, Difficulty::Simple) => 1.00,
            (Expertise::Beginner, Difficulty::Moderate) => 0.96,
            (Expertise::Beginner, Difficulty::Challenging) => 0.93,
            (Expertise::Expert, Difficulty::Simple) => 1.00,
            (Expertise::Expert, Difficulty::Moderate) => 1.00,
            (Expertise::Expert, Difficulty::Challenging) => 0.99,
        }
    }

    /// Probability for *column* questions (columns are harder: schemas
    /// are wide and abbreviations opaque — the `T-BIL` discussion).
    pub fn column_accuracy(&self, difficulty: Difficulty) -> f64 {
        match (self.expertise, difficulty) {
            (Expertise::Beginner, Difficulty::Simple) => 1.00,
            (Expertise::Beginner, Difficulty::Moderate) => 0.92,
            (Expertise::Beginner, Difficulty::Challenging) => 0.89,
            (Expertise::Expert, Difficulty::Simple) => 1.00,
            (Expertise::Expert, Difficulty::Moderate) => 0.97,
            (Expertise::Expert, Difficulty::Challenging) => 0.94,
        }
    }

    fn rng_for(&self, inst: &Instance, element: &str, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            self.seed
                ^ stable_hash(element.as_bytes()).rotate_left(11)
                ^ inst.id.wrapping_mul(0xD134_2543_DE82_EF95)
                ^ salt.wrapping_mul(0x9E6D),
        )
    }

    /// Answer "is `element` relevant to this question?". The true answer
    /// is supplied by the caller; the oracle corrupts it at the Table 9
    /// error rate. Deterministic per (participant, instance, element).
    pub fn judge_relevance(
        &self,
        inst: &Instance,
        element: &str,
        is_table: bool,
        truly_relevant: bool,
    ) -> bool {
        let acc = if is_table {
            self.table_accuracy(inst.difficulty)
        } else {
            self.column_accuracy(inst.difficulty)
        };
        let mut rng = self.rng_for(inst, element, 1);
        if rng.next_bool(acc) {
            truly_relevant
        } else {
            !truly_relevant
        }
    }

    /// Asked for the *correct* element after rejecting every candidate.
    /// Returns the gold element at the expertise accuracy; a wrong
    /// answer picks one of the distractors instead (or sticks with gold
    /// when there are none — you cannot name a wrong table that does
    /// not exist).
    pub fn provide_element(
        &self,
        inst: &Instance,
        gold_element: &str,
        distractors: &[String],
        is_table: bool,
    ) -> String {
        let acc = if is_table {
            self.table_accuracy(inst.difficulty)
        } else {
            self.column_accuracy(inst.difficulty)
        };
        let mut rng = self.rng_for(inst, gold_element, 2);
        if rng.next_bool(acc) || distractors.is_empty() {
            gold_element.to_string()
        } else {
            distractors[rng.next_below(distractors.len())].clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchmarkProfile;

    fn any_instance() -> Instance {
        BenchmarkProfile::bird_like()
            .scaled(0.005)
            .generate(3)
            .split
            .dev[0]
            .clone()
    }

    #[test]
    fn experts_dominate_beginners() {
        let b = HumanOracle::new(Expertise::Beginner, 1);
        let e = HumanOracle::new(Expertise::Expert, 1);
        for d in Difficulty::ALL {
            assert!(e.table_accuracy(d) >= b.table_accuracy(d));
            assert!(e.column_accuracy(d) >= b.column_accuracy(d));
        }
    }

    #[test]
    fn accuracy_decreases_with_difficulty() {
        let b = HumanOracle::new(Expertise::Beginner, 1);
        assert!(b.column_accuracy(Difficulty::Simple) > b.column_accuracy(Difficulty::Challenging));
        assert!(b.table_accuracy(Difficulty::Simple) > b.table_accuracy(Difficulty::Challenging));
    }

    #[test]
    fn answers_are_deterministic() {
        let inst = any_instance();
        let o = HumanOracle::new(Expertise::Beginner, 9);
        let a = o.judge_relevance(&inst, "races", true, true);
        let b = o.judge_relevance(&inst, "races", true, true);
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_answer_accuracy_matches_rate() {
        // Over many (instance, element) pairs the beginner's column
        // accuracy at Challenging must track 0.89.
        let bench = BenchmarkProfile::bird_like().scaled(0.06).generate(5);
        let oracle = HumanOracle::new(Expertise::Beginner, 42);
        let mut correct = 0usize;
        let mut total = 0usize;
        let probes = bench.split.dev.iter().chain(bench.split.train.iter());
        for inst in probes.filter(|i| i.difficulty == Difficulty::Challenging) {
            for (j, (t, c)) in inst.gold_columns.iter().enumerate() {
                let element = format!("{t}.{c}");
                let truth = j % 2 == 0; // arbitrary mix of true/false questions
                if oracle.judge_relevance(inst, &element, false, truth) == truth {
                    correct += 1;
                }
                total += 1;
            }
        }
        assert!(total > 100, "not enough probes ({total})");
        let acc = correct as f64 / total as f64;
        assert!((acc - 0.89).abs() < 0.04, "empirical accuracy {acc}");
    }

    #[test]
    fn provide_element_falls_back_to_gold_without_distractors() {
        let inst = any_instance();
        let o = HumanOracle::new(Expertise::Beginner, 3);
        assert_eq!(o.provide_element(&inst, "races", &[], true), "races");
    }

    #[test]
    fn expert_simple_questions_are_perfect() {
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(6);
        let oracle = HumanOracle::new(Expertise::Expert, 7);
        for inst in bench
            .split
            .dev
            .iter()
            .filter(|i| i.difficulty == Difficulty::Simple)
        {
            for t in &inst.gold_tables {
                assert!(oracle.judge_relevance(inst, t, true, true));
            }
        }
    }
}
