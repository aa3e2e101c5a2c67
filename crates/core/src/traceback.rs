//! Algorithm 2: Table (and column) Trace Back.
//!
//! Given a flagged branching token, identify which schema elements the
//! divergence implicates: decode the stream up to (exclusive) and
//! through (inclusive) the branching token; while the difference is
//! empty, keep consuming the model's continuation; if the stream ends
//! mid-element, complete it through the constrained-decoding trie (the
//! model could only ever have produced a valid element). If end-of-
//! sequence arrives before any new element materialises, the last
//! decoded element is returned (the paper's `T[-1:]` case).
//!
//! [`trace_back`] consumes the stream through a
//! [`simlm::IncrementalDecoder`], one token per loop step; the
//! re-decode-the-whole-prefix formulation it replaced is kept verbatim
//! as [`trace_back_reference`] (quadratic in the stream length) for A/B
//! benchmarking and the parity tests.

use simlm::vocab::{TokenId, TOK_END};
use simlm::{decode_elements, IncrementalDecoder, Trie, Vocab};

/// Elements implicated by the branching token at `branch_pos`.
///
/// * `tokens` — the emitted stream (at least `branch_pos + 1` long),
/// * `trie` — the candidate-element trie used for completion when the
///   stream runs out mid-element.
///
/// Single pass over the stream: the prefix before the branching token
/// is decoded once, and every later loop step consumes exactly one
/// token. At most one element can complete per consumed token, so the
/// "fresh element" check inspects only the decoder's newly finished
/// elements instead of re-diffing the full prefix.
pub fn trace_back(
    vocab: &Vocab,
    trie: &Trie,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    trace_back_with(vocab, tokens, branch_pos, |partial| {
        trie.cheapest_completion(partial)
            .map(|(_suffix, name)| name.to_string())
    })
}

/// [`trace_back`] with the trie-completion step abstracted out:
/// `complete` receives the trailing partial element's tokens (in the
/// stream's vocabulary) and returns the completed element name, if any.
/// This is what lets the shared `LinkContext` complete partials against
/// a trie keyed in *its own* id space — the decode phase is pure string
/// work in the stream vocabulary either way.
pub fn trace_back_with(
    vocab: &Vocab,
    tokens: &[TokenId],
    branch_pos: usize,
    complete: impl Fn(&[TokenId]) -> Option<String>,
) -> Vec<String> {
    assert!(branch_pos < tokens.len(), "branch position out of range");
    let end_tok = vocab.get(TOK_END);

    let mut dec = IncrementalDecoder::new(vocab);
    for &t in &tokens[..branch_pos] {
        dec.push(t);
    }
    let pre: Vec<String> = dec.elements().to_vec();
    // Elements at indices < `checked` are known to be in `pre`.
    let mut checked = dec.elements().len();
    dec.push(tokens[branch_pos]);
    let mut upto = branch_pos + 1;
    loop {
        while checked < dec.elements().len() {
            let e = &dec.elements()[checked];
            if !pre.contains(e) {
                return vec![e.clone()];
            }
            checked += 1;
        }
        // Need more tokens. Next token from the model's own stream…
        if upto < tokens.len() {
            if Some(tokens[upto]) == end_tok {
                // eos before a new element: paper returns the last table.
                if let Some(last) = dec.elements().last() {
                    return vec![last.clone()];
                }
                // Nothing decoded at all — fall through to completion.
            }
            dec.push(tokens[upto]);
            upto += 1;
            continue;
        }
        // …or, when the stream is exhausted mid-element, complete the
        // partial prefix through the trie.
        if !dec.partial().is_empty() {
            if let Some(name) = complete(dec.partial()) {
                if !pre.contains(&name) {
                    return vec![name];
                }
            }
        }
        // Give up: return the last decoded element if any.
        return dec
            .elements()
            .last()
            .map(|e| vec![e.clone()])
            .unwrap_or_default();
    }
}

/// The pre-incremental [`trace_back`]: re-runs [`decode_elements`] over
/// the full prefix on every loop iteration (O(n²) in the stream
/// length). Kept byte-for-byte as the test oracle the incremental
/// decoder is pinned against (`traceback_incremental_matches_reference`
/// in the parity proptests).
pub fn trace_back_reference(
    vocab: &Vocab,
    trie: &Trie,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    assert!(branch_pos < tokens.len(), "branch position out of range");
    let end_tok = vocab.get(TOK_END);

    let (pre, _) = decode_elements(vocab, &tokens[..branch_pos]);
    let mut upto = branch_pos + 1;
    loop {
        let (after, partial) = decode_elements(vocab, &tokens[..upto]);
        let fresh: Vec<String> = after.iter().filter(|e| !pre.contains(e)).cloned().collect();
        if !fresh.is_empty() {
            return fresh;
        }
        if upto < tokens.len() {
            if Some(tokens[upto]) == end_tok {
                if let Some(last) = after.last() {
                    return vec![last.clone()];
                }
            }
            upto += 1;
            continue;
        }
        if !partial.is_empty() {
            if let Some((_suffix, name)) = trie.cheapest_completion(&partial) {
                if !pre.contains(&name.to_string()) {
                    return vec![name.to_string()];
                }
            }
        }
        return after.last().map(|e| vec![e.clone()]).unwrap_or_default();
    }
}

/// Build the constrained-decoding trie over table names in (the id
/// space of) `vocab`. A `LinkContext` runs it into a fresh vocabulary
/// when a trace back reaches the trie-completion step; it also serves
/// the clone-per-flag reference path, which hands it a clone of the
/// generation vocabulary.
pub fn table_trie_in(vocab: &mut Vocab, meta: &benchgen::schemagen::DbMeta) -> Trie {
    Trie::from_elements(vocab, meta.tables.iter().map(|t| t.name.as_str()))
}

/// Build the trie over fully qualified `table.column` elements in (the
/// id space of) `vocab`.
pub fn column_trie_in(vocab: &mut Vocab, meta: &benchgen::schemagen::DbMeta) -> Trie {
    Trie::from_elements(
        vocab,
        meta.tables
            .iter()
            .flat_map(|t| t.columns.iter().map(|c| format!("{}.{}", t.name, c.name))),
    )
}

/// Build the constrained-decoding trie over table names.
pub fn table_trie(vocab: &mut Vocab, meta: &benchgen::schemagen::DbMeta) -> Trie {
    table_trie_in(vocab, meta)
}

/// Build the trie over fully qualified `table.column` elements.
pub fn column_trie(vocab: &mut Vocab, meta: &benchgen::schemagen::DbMeta) -> Trie {
    column_trie_in(vocab, meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchmarkProfile;
    use simlm::{GenMode, LinkTarget, SchemaLinker};

    #[test]
    fn traceback_finds_substituted_table() {
        let bench = BenchmarkProfile::bird_like().scaled(0.008).generate(77);
        let model = SchemaLinker::new("bird", 21);
        let mut found_case = false;
        for inst in bench.split.dev.iter() {
            let mut vocab = Vocab::new();
            let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            let Some(branch_pos) = trace.steps.iter().position(|s| s.is_branch) else {
                continue;
            };
            let meta = bench.meta(&inst.db_name).unwrap();
            let trie = table_trie(&mut vocab, meta);
            let implicated = trace_back(&vocab, &trie, &trace.tokens, branch_pos);
            if implicated.is_empty() {
                // Legitimate only when the stream names no element at all
                // (a fully omitted single-element answer): nothing exists
                // to trace back to; mitigation falls through to the
                // "name the correct element" interaction.
                let (decoded, _) = simlm::decode_elements(&vocab, &trace.tokens);
                assert!(decoded.is_empty(), "empty trace back on a non-empty answer");
                continue;
            }
            // Every implicated element must be a real table of the DB
            // (the stream only ever contains valid elements).
            for e in &implicated {
                assert!(meta.table(e).is_some(), "{e} is not a table");
            }
            found_case = true;
        }
        assert!(found_case, "no branching generation in dev split");
    }

    #[test]
    fn traceback_on_truncated_stream_completes_via_trie() {
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(78);
        let model = SchemaLinker::new("bird", 22);
        for inst in bench.split.dev.iter().chain(bench.split.train.iter()) {
            let mut vocab = Vocab::new();
            let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            let Some(branch_pos) = trace.steps.iter().position(|s| s.is_branch) else {
                continue;
            };
            // Truncate right after the branch token, forcing completion.
            let cut = &trace.tokens[..branch_pos + 1];
            let meta = bench.meta(&inst.db_name).unwrap();
            let trie = table_trie(&mut vocab, meta);
            let implicated = trace_back(&vocab, &trie, cut, branch_pos);
            for e in &implicated {
                assert!(meta.table(e).is_some(), "{e} is not a table");
            }
            return;
        }
        panic!("no branching generation found");
    }

    #[test]
    fn column_trie_contains_qualified_names() {
        let bench = BenchmarkProfile::bird_like().scaled(0.008).generate(79);
        let meta = &bench.metas[0];
        let mut vocab = Vocab::new();
        let trie = column_trie(&mut vocab, meta);
        let total: usize = meta.tables.iter().map(|t| t.columns.len()).sum();
        assert_eq!(trie.len(), total);
    }

    #[test]
    fn incremental_matches_reference_on_generated_streams() {
        // Every (stream, branch position, truncation) the dev split can
        // produce: the single-pass trace back must agree with the
        // quadratic reference exactly, including the trie-completion
        // and eos corner cases.
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(80);
        let model = SchemaLinker::new("bird", 23);
        let mut cases = 0usize;
        for inst in bench.split.dev.iter() {
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, target, GenMode::Free);
                let meta = bench.meta(&inst.db_name).unwrap();
                let trie = match target {
                    LinkTarget::Tables => table_trie(&mut vocab, meta),
                    LinkTarget::Columns => column_trie(&mut vocab, meta),
                };
                for branch_pos in 0..trace.tokens.len() {
                    for cut in branch_pos + 1..=trace.tokens.len() {
                        let toks = &trace.tokens[..cut];
                        assert_eq!(
                            trace_back(&vocab, &trie, toks, branch_pos),
                            trace_back_reference(&vocab, &trie, toks, branch_pos),
                            "instance {} target {target:?} branch {branch_pos} cut {cut}",
                            inst.id
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 1000, "too few cases exercised: {cases}");
    }

    #[test]
    fn long_stream_traceback_is_single_pass() {
        // A long synthetic stream (hundreds of elements): the
        // incremental path must agree with the reference when the
        // branch sits at the front — exactly where the re-decode
        // formulation paid its quadratic worst case.
        let mut vocab = Vocab::new();
        let mut trie = Trie::new();
        let comma = vocab.intern(simlm::vocab::TOK_COMMA);
        let mut tokens: Vec<TokenId> = vec![
            vocab.intern(simlm::vocab::TOK_TABLES),
            vocab.intern(simlm::vocab::TOK_COLON),
        ];
        for i in 0..400 {
            let name = format!("tbl{i}Data");
            let ids = simlm::linearize::element_tokens(&mut vocab, &name);
            trie.insert(&name, &ids);
            if i > 0 {
                tokens.push(comma);
            }
            // Repeat the same element so nothing is ever "fresh" and the
            // loop must walk the whole stream.
            let ids0 = vocab.try_encode_identifier("tbl0Data").unwrap();
            tokens.extend(ids0);
        }
        tokens.push(vocab.intern(simlm::vocab::TOK_END));
        // Branch on the second element's first token: `pre` then already
        // contains "tbl0Data", so no later completion is ever fresh and
        // both paths must walk the stream to the eos fallback.
        let branch_pos = 5;
        let fast = trace_back(&vocab, &trie, &tokens, branch_pos);
        let slow = trace_back_reference(&vocab, &trie, &tokens, branch_pos);
        assert_eq!(fast, slow);
        assert_eq!(fast, vec!["tbl0Data".to_string()]);
    }
}
