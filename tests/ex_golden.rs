//! A golden fingerprint of execution accuracy on generated traffic.
//!
//! Every dev and test instance of the BIRD-like benchmark: the gold
//! SQL's printed text and its executed result, then the predictions of
//! the DeepSeek-7B generator under the golden and the full schema, each
//! with its printed text, its result (or error) and its EX outcome. All
//! of it is folded into one hash and compared with a recorded constant,
//! so any change to printing, parsing, binding, execution or the EX
//! comparison on the corruption shapes the generator really emits shows
//! here, on top of the random-statement proptests in `nanosql`.

use rts::benchgen::BenchmarkProfile;
use rts::core::sqlgen::{ProvidedSchema, SqlGenModel};
use rts::nanosql::exec::execute_sql;
use rts::nanosql::result::execution_accuracy;
use rts::tinynn::rng::stable_hash_parts;

/// The fingerprint of the walk below.
const EX_FINGERPRINT: u64 = 0x65ec_540d_b618_39f2;

fn fold(h: u64, text: &str) -> u64 {
    stable_hash_parts(&[&h.to_le_bytes(), text.as_bytes()])
}

#[test]
fn ex_on_generated_traffic_matches_the_recorded_fingerprint() {
    // The full-size profile, the largest there is: about a second.
    let bench = BenchmarkProfile::bird_like().generate(0xC0FFEE);
    let generator = SqlGenModel::deepseek_7b("bird", 0xC0FFEE ^ 0xEE);
    let mut h = 0u64;
    let mut outcomes = [0usize; 4];
    for inst in bench.split.dev.iter().chain(&bench.split.test) {
        let db = bench
            .database(&inst.db_name)
            .expect("instance database exists");
        let meta = bench.meta(&inst.db_name).expect("instance database exists");
        let gold = inst.gold_sql.to_string();
        h = fold(h, &gold);
        h = fold(h, &format!("{:?}", execute_sql(db, &gold)));
        for schema in [ProvidedSchema::golden(inst), ProvidedSchema::full(meta)] {
            let pred = generator.generate(inst, &schema, meta).to_string();
            let outcome = execution_accuracy(db, &gold, &pred);
            outcomes[outcome as usize] += 1;
            h = fold(h, &pred);
            h = fold(h, &format!("{:?}", execute_sql(db, &pred)));
            h = fold(h, &format!("{outcome:?}"));
        }
    }
    // The walk reaches right and wrong predictions.
    assert!(outcomes[0] > 100 && outcomes[1] > 50, "{outcomes:?}");
    assert_eq!(
        h, EX_FINGERPRINT,
        "fingerprint {h:#018x}; outcomes {outcomes:?}"
    );
}
