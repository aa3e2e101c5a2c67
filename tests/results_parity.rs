//! Byte-identity of the committed results: regenerating every
//! experiment record reproduces `results/*.json` exactly — same JSON
//! bytes, row for row.
//!
//! The scale and seed are pinned to the committed records' (0.02,
//! 0xC0FFEE), not read from the environment — byte-identity is only
//! defined against the exact workload the records were generated
//! under. The archived v1 records in `results/v1/` are static history
//! and are not regenerated.

use rts_bench::experiments::ablation::{
    ablation_conformal, ablation_layer_selection, ablation_merge_sets, ablation_probe_depth,
};
use rts_bench::experiments::abstain::table5;
use rts_bench::experiments::linking::table2;
use rts_bench::experiments::sweeps::figure7;
use rts_bench::{Context, Which};

#[test]
fn regeneration_is_byte_identical_to_committed_results() {
    let ctx = Context::load(Which::Both, 0.02, 0xC0FFEE);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for report in [
        table2(&ctx),
        table5(&ctx),
        figure7(&ctx),
        ablation_probe_depth(&ctx),
        ablation_conformal(&ctx),
        ablation_layer_selection(&ctx),
        ablation_merge_sets(&ctx),
    ] {
        let fresh = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = results.join(format!("{}.json", report.id));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing committed record {}: {e}", path.display()));
        assert_eq!(
            fresh, committed,
            "{} regenerated differs from the committed bytes — the synthesis \
             corpus or an experiment drifted",
            report.id
        );
    }
}
