//! Byte-identity of the committed results: regenerating every
//! top-level `results/*.json` through the experiment registry
//! reproduces it exactly — same JSON bytes, row for row. The committed
//! files are the pin list: each file's stem names its report.
//!
//! The scale and seed are pinned to the committed records'
//! ([`rts_bench::PINNED_SCALE`], [`rts_bench::PINNED_SEED`]), not read
//! from the environment — byte-identity is only defined against the
//! exact workload the records were generated under. Subdirectories
//! (the archived v1 records in `results/v1/`, runs at other scales or
//! seeds) are not regenerated.

use rts_bench::{Context, PINNED_SCALE, PINNED_SEED};

#[test]
fn regeneration_is_byte_identical_to_committed_results() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(rts_bench::results_dir(PINNED_SCALE, PINNED_SEED));
    let pinned: Vec<(String, String)> = std::fs::read_dir(&results)
        .expect("results/ is readable")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.is_file() && path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            let id = path.file_stem().unwrap().to_string_lossy().into_owned();
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("unreadable record {}: {e}", path.display()));
            (id, committed)
        })
        .collect();
    assert!(
        !pinned.is_empty(),
        "no committed record in {}",
        results.display()
    );
    let ids: Vec<&str> = pinned.iter().map(|(id, _)| id.as_str()).collect();
    let experiments = rts_bench::select(&ids)
        .unwrap_or_else(|id| panic!("results/{id}.json names no registered report"));
    let ctx = Context::load(rts_bench::needs(&experiments), PINNED_SCALE, PINNED_SEED);
    for e in experiments {
        let report = (e.run)(&ctx);
        assert_eq!(
            report.id, e.id,
            "the registry files the report under its own id"
        );
        let fresh = serde_json::to_string_pretty(&report).expect("report serialises");
        let committed = &pinned.iter().find(|(id, _)| id == e.id).unwrap().1;
        assert_eq!(
            &fresh, committed,
            "{} regenerated differs from the committed bytes — the synthesis \
             corpus or an experiment drifted",
            e.id
        );
    }
}
