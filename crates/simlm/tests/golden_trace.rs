//! Golden fingerprint of the decode path.
//!
//! Folds every observable of `generate_with_overrides_and_layers`
//! (tokens; each step's token, `softmax_prob` bits, `is_branch`,
//! `element_idx` and signal bits; `predicted`, `decisions`,
//! `n_branches`; and the texts of the vocabulary the generation filled)
//! into one `stable_hash`, over every dev instance of a small
//! benchmark, both targets and both modes, plus one run per instance
//! with a pinned override. No hidden layer is synthesized: the stacks
//! have their own oracle (`hidden_states_reference`), and this test
//! pins what decoding decides around them.
//!
//! The constant was recorded from the decoder that interned one
//! `String` per piece and built one segment `Vec` per element. A change
//! to the decode path must leave it as it is.

use benchgen::{Benchmark, BenchmarkProfile, Instance};
use simlm::{Decision, GenMode, GenerationTrace, LayerSet, LinkTarget, SchemaLinker, Vocab};
use std::collections::HashMap;
use tinynn::rng::stable_hash;

const GOLDEN: u64 = 0x227c_a4e9_cd58_c615;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn fold(out: &mut Vec<u8>, trace: &GenerationTrace, vocab: &Vocab) {
    out.extend_from_slice(&(trace.tokens.len() as u64).to_le_bytes());
    for &t in &trace.tokens {
        out.extend_from_slice(&t.to_le_bytes());
    }
    for step in &trace.steps {
        out.extend_from_slice(&step.token.to_le_bytes());
        out.extend_from_slice(&step.softmax_prob.to_bits().to_le_bytes());
        out.push(u8::from(step.is_branch));
        let idx = step.element_idx.map_or(u64::MAX, |i| i as u64);
        out.extend_from_slice(&idx.to_le_bytes());
        out.extend_from_slice(&step.key().s_bits.to_le_bytes());
    }
    out.extend_from_slice(&(trace.predicted.len() as u64).to_le_bytes());
    for p in &trace.predicted {
        put_str(out, p);
    }
    for d in &trace.decisions {
        out.push(decision_kind(d) as u8);
        if let Decision::Substitute(e) | Decision::AddExtra(e) = d {
            put_str(out, e);
        }
    }
    out.extend_from_slice(&(trace.n_branches as u64).to_le_bytes());
    out.extend_from_slice(&(vocab.len() as u64).to_le_bytes());
    for id in 0..vocab.len() {
        put_str(out, vocab.text(id as u32));
    }
}

/// One pinned override per instance: a gold element chosen by the
/// instance id, pinned to one of the four decisions in turn.
fn pinned(inst: &Instance) -> (LinkTarget, HashMap<String, Decision>) {
    let target = if inst.id.is_multiple_of(2) {
        LinkTarget::Tables
    } else {
        LinkTarget::Columns
    };
    let gold = SchemaLinker::gold_elements(inst, target);
    let mut overrides = HashMap::new();
    if gold.is_empty() {
        return (target, overrides);
    }
    let element = gold[inst.id as usize % gold.len()].clone();
    let alt = inst
        .links
        .iter()
        .filter(|l| l.element.display_eq(&element))
        .flat_map(|l| &l.confusables)
        .find(|c| c.alt.is_table() == (target == LinkTarget::Tables))
        .map_or_else(|| "unlinked_NameX".to_string(), |c| c.alt.to_string());
    let decision = match (inst.id / 2) % 4 {
        0 => Decision::Correct,
        1 => Decision::Omit,
        2 => Decision::Substitute(alt),
        _ => Decision::AddExtra(alt),
    };
    overrides.insert(element, decision);
    (target, overrides)
}

/// The fingerprint, the number of runs, and how many runs held each
/// decision kind (`Correct`, `Substitute`, `Omit`, `AddExtra`).
fn fingerprint(bench: &Benchmark, model: &SchemaLinker) -> (u64, usize, [usize; 4]) {
    let none = LayerSet::none();
    let mut scratch = simlm::SynthScratch::default();
    let mut out = Vec::new();
    let mut runs = 0;
    let mut kinds = [0usize; 4];
    let mut generate = |inst: &Instance, target, mode, overrides: &HashMap<String, Decision>| {
        let mut vocab = Vocab::new();
        let trace = model.generate_with_overrides_and_layers(
            inst,
            &mut vocab,
            target,
            mode,
            overrides,
            &none,
            &[],
            &mut scratch,
        );
        fold(&mut out, &trace, &vocab);
        runs += 1;
        for (kind, seen) in kinds.iter_mut().enumerate() {
            *seen += usize::from(trace.decisions.iter().any(|d| decision_kind(d) == kind));
        }
    };
    for inst in &bench.split.dev {
        for target in [LinkTarget::Tables, LinkTarget::Columns] {
            for mode in [GenMode::Free, GenMode::TeacherForced] {
                generate(inst, target, mode, &HashMap::new());
            }
        }
        let (target, overrides) = pinned(inst);
        generate(inst, target, GenMode::Free, &overrides);
    }
    (stable_hash(&out), runs, kinds)
}

fn decision_kind(d: &Decision) -> usize {
    match d {
        Decision::Correct => 0,
        Decision::Substitute(_) => 1,
        Decision::Omit => 2,
        Decision::AddExtra(_) => 3,
    }
}

#[test]
fn decode_observables_match_the_recorded_fingerprint() {
    let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(2024);
    let model = SchemaLinker::new("bird", 7);
    let (hash, runs, kinds) = fingerprint(&bench, &model);
    assert_eq!(runs, 5 * bench.split.dev.len());
    assert!(runs >= 100, "too few runs to pin the decoder: {runs}");
    // Every decision kind shapes the stream somewhere in the corpus.
    assert!(
        kinds.iter().all(|&n| n > 0),
        "runs per decision kind: {kinds:?}"
    );
    assert_eq!(
        hash, GOLDEN,
        "decode fingerprint {hash:#018x} over {runs} runs"
    );
}
