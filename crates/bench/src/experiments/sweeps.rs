//! Figures 6 and 7: coverage / EAR sweeps over the error level α, the
//! probe count k, and the merge method.

use super::coverage_over_split;
use crate::context::Context;
use crate::report::Report;
use rts_core::bpp::MergeMethod;
use simlm::LinkTarget;

/// Figure 6: coverage vs EAR across error levels, for table and column
/// mBPPs (BIRD dev, as in the paper's ablation).
pub fn figure6(ctx: &Context) -> Report {
    let arts = ctx.bird();
    let mut r = Report::new(
        "figure6",
        "Coverage vs EAR per error level α (BIRD dev)",
        ctx.scale,
        ctx.seed,
    );
    let alphas = [0.02, 0.05, 0.10, 0.15];
    // Rows below the per-probe 1−α line, and below the permutation
    // merge's 1−2α bound (conformal Theorem 3).
    let mut under_probe = Vec::new();
    let mut under_merge = Vec::new();
    for (target, mbpp, kind) in [
        (LinkTarget::Tables, &arts.mbpp_tables, "table"),
        (LinkTarget::Columns, &arts.mbpp_columns, "column"),
    ] {
        for &alpha in &alphas {
            let m = mbpp.with_alpha(alpha);
            let cov = coverage_over_split(arts, &m, &arts.bench.split.dev, target, ctx.seed ^ 0xF6);
            // The paper's guarantee line: coverage must dominate 1 − α.
            r.push(
                format!(
                    "{kind} α={alpha:.2} coverage (≥ {:.0})",
                    (1.0 - alpha) * 100.0
                ),
                Some((1.0 - alpha) * 100.0),
                Some(cov.coverage * 100.0),
                "%",
            );
            let row = format!("{kind} α={alpha:.2}");
            if cov.coverage < 1.0 - 2.0 * alpha {
                under_merge.push(row.clone());
            }
            if cov.coverage < 1.0 - alpha {
                under_probe.push(row);
            }
            r.push(
                format!("{kind} α={alpha:.2} EAR"),
                None,
                Some(cov.ear * 100.0),
                "%",
            );
        }
    }
    let list = |rows: &[String]| {
        if rows.is_empty() {
            "none".to_string()
        } else {
            rows.join(", ")
        }
    };
    r.note(format!(
        "Paper check (Fig 6): coverage falls below the per-probe 1−α line at {} of {} rows ({}), and below the random-permutation merge's 1−2α bound at {} ({}).",
        under_probe.len(),
        2 * alphas.len(),
        list(&under_probe),
        under_merge.len(),
        list(&under_merge),
    ));
    r.note("Beyond α≈0.15 coverage drops under the line (column probes saturate; the calibration quantile degenerates) — the paper likewise reports reliability specifically for small α (<0.15).");
    r
}

/// Figure 7: coverage vs EAR across k for the two aggregation methods
/// (table linking, α = 0.1).
pub fn figure7(ctx: &Context) -> Report {
    let arts = ctx.bird();
    let mut r = Report::new(
        "figure7",
        "Coverage vs EAR per k: random permutation vs majority vote (BIRD dev, tables)",
        ctx.scale,
        ctx.seed,
    );
    let n_layers = arts.mbpp_tables.sbpps.len();
    let ks: Vec<usize> = [1usize, 3, 5, 7, 9, 12, 15, 20, 25, 30]
        .iter()
        .copied()
        .filter(|&k| k <= n_layers)
        .collect();
    for (method, tag) in [
        (MergeMethod::RandomPermutation, "perm"),
        (MergeMethod::MajorityVote { theta: 0.5 }, "vote"),
    ] {
        for &k in &ks {
            let m = arts.mbpp_tables.with_k(k).with_method(method);
            let cov = coverage_over_split(
                arts,
                &m,
                &arts.bench.split.dev,
                LinkTarget::Tables,
                ctx.seed ^ 0xF7,
            );
            r.push(
                format!("{tag} k={k} coverage"),
                None,
                Some(cov.coverage * 100.0),
                "%",
            );
            r.push(format!("{tag} k={k} EAR"), None, Some(cov.ear * 100.0), "%");
        }
    }
    r.note("Paper check (Fig 7): permutation keeps coverage/EAR nearly flat in k; the majority vote degrades once weak (low-AUC) layers join at large k.");
    r
}
