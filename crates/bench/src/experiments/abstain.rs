//! Tables 5 and 6: RTS schema linking with abstention, the surrogate
//! filter, and human feedback.

use crate::context::{BenchArtifacts, Context};
use crate::report::Report;
use rts_core::abstention::{
    run_rts_linking_in, LinkScratch, MitigationPolicy, RtsConfig, RtsOutcome,
};
use rts_core::human::{Expertise, HumanOracle};
use rts_core::metrics::{abstention_metrics, AbstentionMetrics, AbstentionOutcome};
use rts_core::par::par_map_with;
use rts_core::pipeline::{run_joint_linking_in, JointOutcome};
use simlm::LinkTarget;

fn eval_policy(
    arts: &BenchArtifacts,
    split: &[benchgen::Instance],
    target: LinkTarget,
    policy: &MitigationPolicy<'_>,
    seed: u64,
) -> AbstentionMetrics {
    let config = RtsConfig { seed };
    let mbpp = match target {
        LinkTarget::Tables => &arts.mbpp_tables,
        LinkTarget::Columns => &arts.mbpp_columns,
    };
    let outcomes: Vec<AbstentionOutcome> = par_map_with(split, LinkScratch::default, |sc, inst| {
        let meta = arts.bench.meta(&inst.db_name).expect("meta");
        let ctx = arts.contexts.get(&inst.db_name, target);
        let o = run_rts_linking_in(&arts.linker, mbpp, inst, meta, ctx, policy, &config, sc);
        AbstentionOutcome {
            abstained: o.abstained,
            correct: o.correct,
            would_be_correct: o.would_be_correct,
        }
    });
    abstention_metrics(&outcomes)
}

/// Table 5: mBPP-Abstention and Surrogate-filter rows, table & column
/// linking evaluated independently, on all three dataset splits.
pub fn table5(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table5",
        "RTS Schema Linking (EM / TAR / FAR, %)",
        ctx.scale,
        ctx.seed,
    );
    // Paper values: method → dataset → (type → (EM, TAR, FAR)).
    #[allow(clippy::approx_constant)] // 6.28 is the paper's TAR, not τ
    let paper_abst = [
        [(98.89, 19.10, 12.77), (97.38, 22.01, 13.53)], // bird: table, column
        [(99.86, 6.51, 5.27), (97.73, 8.75, 7.46)],     // spider-dev
        [(99.67, 6.28, 4.98), (97.52, 9.25, 8.32)],     // spider-test
    ];
    let paper_surr = [
        [(90.80, 10.90, 2.2), (89.76, 14.34, 5.98)],
        [(96.77, 3.05, 1.70), (92.71, 3.70, 3.35)],
        [(95.47, 4.10, 2.03), (90.18, 4.63, 4.12)],
    ];
    let cases: [(&str, &BenchArtifacts, &[benchgen::Instance]); 3] = [
        ("Bird", ctx.bird(), &ctx.bird().bench.split.dev),
        ("Spider-dev", ctx.spider(), &ctx.spider().bench.split.dev),
        ("Spider-test", ctx.spider(), &ctx.spider().bench.split.test),
    ];
    for (ci, (name, arts, split)) in cases.into_iter().enumerate() {
        for (ti, target) in [LinkTarget::Tables, LinkTarget::Columns]
            .into_iter()
            .enumerate()
        {
            let kind = if ti == 0 { "Table" } else { "Column" };
            let m = eval_policy(
                arts,
                split,
                target,
                &MitigationPolicy::AbstainOnly,
                ctx.seed,
            );
            let (pe, pt, pf) = paper_abst[ci][ti];
            r.push(
                format!("mBPP-Abst {kind} {name} EM"),
                Some(pe),
                Some(m.exact_match * 100.0),
                "%",
            );
            r.push(
                format!("mBPP-Abst {kind} {name} TAR"),
                Some(pt),
                Some(m.tar * 100.0),
                "%",
            );
            r.push(
                format!("mBPP-Abst {kind} {name} FAR"),
                Some(pf),
                Some(m.far * 100.0),
                "%",
            );

            let policy = MitigationPolicy::Surrogate(&arts.surrogate);
            let m = eval_policy(arts, split, target, &policy, ctx.seed);
            let (pe, pt, pf) = paper_surr[ci][ti];
            r.push(
                format!("Surrogate {kind} {name} EM"),
                Some(pe),
                Some(m.exact_match * 100.0),
                "%",
            );
            r.push(
                format!("Surrogate {kind} {name} TAR"),
                Some(pt),
                Some(m.tar * 100.0),
                "%",
            );
            r.push(
                format!("Surrogate {kind} {name} FAR"),
                Some(pf),
                Some(m.far * 100.0),
                "%",
            );
        }
    }
    r.note("TAR/FAR follow the paper's prose semantics (displayed formulas are swapped; see metrics.rs).");
    r.note("Shape checks: EM(abstain) > EM(surrogate); FAR(surrogate) ≪ FAR(abstain); BIRD rates > Spider rates.");
    r
}

/// Joint-linking outcomes for a split under a human oracle.
pub fn joint_outcomes(
    arts: &BenchArtifacts,
    split: &[benchgen::Instance],
    oracle: &HumanOracle,
    seed: u64,
) -> Vec<JointOutcome> {
    let policy = MitigationPolicy::Human(oracle);
    let config = RtsConfig { seed };
    par_map_with(split, LinkScratch::default, |scratch, inst| {
        run_joint_linking_in(
            &arts.linker,
            &arts.mbpp_tables,
            &arts.mbpp_columns,
            inst,
            &arts.bench,
            &arts.contexts,
            &policy,
            &config,
            scratch,
        )
    })
}

/// Summary statistics for Table 6 from joint outcomes.
pub struct JointSummary {
    pub em_tables: f64,
    pub em_columns: f64,
    pub tar: f64,
    pub far: f64,
}

pub fn summarise_joint(outcomes: &[JointOutcome]) -> JointSummary {
    let n = outcomes.len() as f64;
    let em_tables = outcomes.iter().filter(|o| o.tables.correct).count() as f64 / n;
    let em_columns = outcomes
        .iter()
        .filter(|o| o.columns_correct_conditioned())
        .count() as f64
        / n;
    // With human feedback nothing abstains; TAR/FAR account for *human
    // involvement* (the paper's reading: FAR = human involved though the
    // model could have answered alone).
    let tar = outcomes
        .iter()
        .filter(|o| o.intervened() && !o.would_be_correct())
        .count() as f64
        / n;
    let far = outcomes
        .iter()
        .filter(|o| o.intervened() && o.would_be_correct())
        .count() as f64
        / n;
    JointSummary {
        em_tables,
        em_columns,
        tar,
        far,
    }
}

/// Table 6: schema linking with (expert) human feedback, joint process.
pub fn table6(ctx: &Context) -> Report {
    let mut r = Report::new(
        "table6",
        "Schema Linking with Human Feedback (EM / TAR / FAR, %)",
        ctx.scale,
        ctx.seed,
    );
    let paper = [
        (96.90, 96.02, 18.95, 13.65),
        (98.93, 96.71, 6.46, 8.15),
        (99.02, 96.11, 6.61, 8.20),
    ];
    let oracle = HumanOracle::new(Expertise::Expert, ctx.seed ^ 0x11);
    let cases: [(&str, &BenchArtifacts, &[benchgen::Instance]); 3] = [
        ("Bird", ctx.bird(), &ctx.bird().bench.split.dev),
        ("Spider-dev", ctx.spider(), &ctx.spider().bench.split.dev),
        ("Spider-test", ctx.spider(), &ctx.spider().bench.split.test),
    ];
    for (ci, (name, arts, split)) in cases.into_iter().enumerate() {
        let outcomes = joint_outcomes(arts, split, &oracle, ctx.seed);
        let s = summarise_joint(&outcomes);
        let (pt, pc, ptar, pfar) = paper[ci];
        r.push(
            format!("{name} Table EM"),
            Some(pt),
            Some(s.em_tables * 100.0),
            "%",
        );
        r.push(
            format!("{name} Column EM"),
            Some(pc),
            Some(s.em_columns * 100.0),
            "%",
        );
        r.push(format!("{name} TAR"), Some(ptar), Some(s.tar * 100.0), "%");
        r.push(format!("{name} FAR"), Some(pfar), Some(s.far * 100.0), "%");
    }
    r.note("Joint TAR/FAR well below the sum of Table 5's per-stage rates — abstentions overlap (paper §4.3).");
    r
}

/// Per-policy abstention outcome dump used by exp_ablation and tests.
pub fn outcomes_for(
    arts: &BenchArtifacts,
    split: &[benchgen::Instance],
    target: LinkTarget,
    policy: &MitigationPolicy<'_>,
    seed: u64,
) -> Vec<RtsOutcome> {
    let config = RtsConfig { seed };
    let mbpp = match target {
        LinkTarget::Tables => &arts.mbpp_tables,
        LinkTarget::Columns => &arts.mbpp_columns,
    };
    par_map_with(split, LinkScratch::default, |scratch, inst| {
        let meta = arts.bench.meta(&inst.db_name).expect("meta");
        let ctx = arts.contexts.get(&inst.db_name, target);
        run_rts_linking_in(
            &arts.linker,
            mbpp,
            inst,
            meta,
            ctx,
            policy,
            &config,
            scratch,
        )
    })
}
