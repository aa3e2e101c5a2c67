//! Evaluation metrics, exactly as defined in §4.2 of the paper.
//!
//! Note on TAR/FAR: the paper's prose defines TAR as "abstains … and is
//! not capable of making the correct \[prediction\]" and FAR as "abstains
//! … despite being capable of making a correct one", while the displayed
//! formulas have the conditions swapped (`T_i = T̂_i` under TAR). The
//! prose (and the magnitudes in Tables 5–6) are only consistent with
//! TAR = P(abstain ∧ would-be-wrong) and FAR = P(abstain ∧
//! would-be-right); we implement the prose semantics and record the
//! discrepancy here and in EXPERIMENTS.md.

/// Exact-set-match / precision / recall for schema linking (§4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkingMetrics {
    pub exact_match: f64,
    pub precision: f64,
    pub recall: f64,
    pub n: usize,
}

/// Compute linking metrics over per-instance gold/predicted element
/// sets. Sets are compared as sorted deduplicated string lists.
pub fn linking_metrics(golds: &[Vec<String>], preds: &[Vec<String>]) -> LinkingMetrics {
    assert_eq!(golds.len(), preds.len(), "gold/pred length mismatch");
    assert!(!golds.is_empty(), "empty evaluation set");
    let mut em = 0.0;
    let mut precision = 0.0;
    let mut recall = 0.0;
    for (g, p) in golds.iter().zip(preds) {
        let gs: std::collections::HashSet<&String> = g.iter().collect();
        let ps: std::collections::HashSet<&String> = p.iter().collect();
        // rts-allow(iter-order): only the intersection *count* is
        // used; set cardinality is independent of iteration order.
        let inter = gs.intersection(&ps).count() as f64;
        em += (gs == ps) as usize as f64;
        precision += if ps.is_empty() {
            0.0
        } else {
            inter / ps.len() as f64
        };
        recall += if gs.is_empty() {
            1.0
        } else {
            inter / gs.len() as f64
        };
    }
    let n = golds.len() as f64;
    LinkingMetrics {
        exact_match: em / n,
        precision: precision / n,
        recall: recall / n,
        n: golds.len(),
    }
}

/// Coverage / extra-abstention-rate for branching-point detection
/// (§4.2, "Branching Points").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageMetrics {
    /// Detected branching points / all branching points.
    pub coverage: f64,
    /// Falsely flagged non-branching tokens / all tokens.
    pub ear: f64,
    pub n_tokens: usize,
    pub n_branches: usize,
}

/// Tally coverage/EAR from per-token `(predicted, actual)` flags.
pub fn coverage_metrics(flags: &[(bool, bool)]) -> CoverageMetrics {
    let n_tokens = flags.len();
    let n_branches = flags.iter().filter(|(_, a)| *a).count();
    let detected = flags.iter().filter(|(p, a)| *p && *a).count();
    let false_flags = flags.iter().filter(|(p, a)| *p && !*a).count();
    CoverageMetrics {
        coverage: if n_branches == 0 {
            1.0
        } else {
            detected as f64 / n_branches as f64
        },
        ear: if n_tokens == 0 {
            0.0
        } else {
            false_flags as f64 / n_tokens as f64
        },
        n_tokens,
        n_branches,
    }
}

/// Abstention-aware schema-linking metrics (§4.2, Tables 5–6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbstentionMetrics {
    /// EM among instances where the model did *not* abstain.
    pub exact_match: f64,
    /// P(abstain ∧ prediction would have been wrong).
    pub tar: f64,
    /// P(abstain ∧ prediction would have been right).
    pub far: f64,
    pub n: usize,
    pub n_abstained: usize,
}

/// One instance's outcome for abstention accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstentionOutcome {
    pub abstained: bool,
    /// Is the final (non-abstained) prediction exactly right?
    pub correct: bool,
    /// Would the unmonitored free-running prediction have been right?
    pub would_be_correct: bool,
}

/// Aggregate abstention outcomes.
pub fn abstention_metrics(outcomes: &[AbstentionOutcome]) -> AbstentionMetrics {
    assert!(!outcomes.is_empty(), "empty evaluation set");
    let n = outcomes.len() as f64;
    let abstained: Vec<_> = outcomes.iter().filter(|o| o.abstained).collect();
    let answered: Vec<_> = outcomes.iter().filter(|o| !o.abstained).collect();
    let em = if answered.is_empty() {
        0.0
    } else {
        answered.iter().filter(|o| o.correct).count() as f64 / answered.len() as f64
    };
    let tar = abstained.iter().filter(|o| !o.would_be_correct).count() as f64 / n;
    let far = abstained.iter().filter(|o| o.would_be_correct).count() as f64 / n;
    AbstentionMetrics {
        exact_match: em,
        tar,
        far,
        n: outcomes.len(),
        n_abstained: abstained.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn linking_metrics_perfect() {
        let gold = vec![s(&["a", "b"]), s(&["c"])];
        let m = linking_metrics(&gold, &gold.clone());
        assert_eq!(m.exact_match, 1.0);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn linking_metrics_partial() {
        let gold = vec![s(&["a", "b"])];
        let pred = vec![s(&["a", "c"])];
        let m = linking_metrics(&gold, &pred);
        assert_eq!(m.exact_match, 0.0);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert!((m.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn linking_metrics_superset_prediction() {
        // Predicting extra elements keeps recall at 1 but hurts precision
        // and EM.
        let gold = vec![s(&["a"])];
        let pred = vec![s(&["a", "b"])];
        let m = linking_metrics(&gold, &pred);
        assert_eq!(m.exact_match, 0.0);
        assert!((m.precision - 0.5).abs() < 1e-12);
        assert_eq!(m.recall, 1.0);
    }

    #[test]
    fn linking_metrics_empty_prediction() {
        let gold = vec![s(&["a"])];
        let pred = vec![s(&[])];
        let m = linking_metrics(&gold, &pred);
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
    }

    #[test]
    fn coverage_metrics_tally() {
        // (predicted, actual)
        let flags = [
            (true, true),   // detected branch
            (false, true),  // missed branch
            (true, false),  // false flag
            (false, false), // clean
        ];
        let m = coverage_metrics(&flags);
        assert!((m.coverage - 0.5).abs() < 1e-12);
        assert!((m.ear - 0.25).abs() < 1e-12);
        assert_eq!(m.n_branches, 2);
    }

    #[test]
    fn coverage_with_no_branches_is_one() {
        let m = coverage_metrics(&[(false, false), (true, false)]);
        assert_eq!(m.coverage, 1.0);
        assert!((m.ear - 0.5).abs() < 1e-12);
    }

    #[test]
    fn abstention_metrics_semantics() {
        let outcomes = [
            // answered correctly
            AbstentionOutcome {
                abstained: false,
                correct: true,
                would_be_correct: true,
            },
            // answered wrongly
            AbstentionOutcome {
                abstained: false,
                correct: false,
                would_be_correct: false,
            },
            // true abstention (would have been wrong)
            AbstentionOutcome {
                abstained: true,
                correct: false,
                would_be_correct: false,
            },
            // false abstention (would have been right)
            AbstentionOutcome {
                abstained: true,
                correct: false,
                would_be_correct: true,
            },
        ];
        let m = abstention_metrics(&outcomes);
        assert!((m.exact_match - 0.5).abs() < 1e-12);
        assert!((m.tar - 0.25).abs() < 1e-12);
        assert!((m.far - 0.25).abs() < 1e-12);
        assert_eq!(m.n_abstained, 2);
    }

    #[test]
    fn abstention_all_abstained_em_is_zero() {
        let outcomes = [AbstentionOutcome {
            abstained: true,
            correct: false,
            would_be_correct: false,
        }];
        let m = abstention_metrics(&outcomes);
        assert_eq!(m.exact_match, 0.0);
        assert_eq!(m.tar, 1.0);
    }
}
