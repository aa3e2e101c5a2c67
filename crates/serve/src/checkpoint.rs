//! Parked-session checkpointing: the byte codec of
//! [`rts_core::session::SessionCheckpoint`].
//!
//! A parked session holds no hidden stacks, only its last round's step
//! keys and label sets (a few hundred bytes) plus its loop state; the
//! checkpoint carries all of it in well under a kilobyte of JSON, the
//! keys and sets as one hex string. Restoring synthesizes nothing;
//! the regeneration after the feedback synthesizes only the positions
//! the feedback changed, on the worker that resumes the ticket.

use rts_core::session::SessionCheckpoint;

/// Serialize a checkpoint through the serde shim into an owned byte
/// buffer (UTF-8 JSON — self-describing, deterministic: override and
/// handled sets are sorted before encoding).
pub fn encode(cp: &SessionCheckpoint) -> Vec<u8> {
    serde_json::to_string(cp)
        // rts-allow(panic): the shim serializer is infallible on plain
        // data types — SessionCheckpoint holds only ints, strings, and
        // vecs, no map keys or floats that could fail to encode.
        .expect("session checkpoint serializes")
        .into_bytes()
}

/// Why a checkpoint failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt session checkpoint: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Rebuild a checkpoint from [`encode`]'s bytes. The buffer never
/// leaves the engine, so a decode failure means corruption — the
/// engine recovers from the recipe every evicted ticket keeps in
/// memory (never a worker panic).
pub fn try_decode(bytes: &[u8]) -> Result<SessionCheckpoint, DecodeError> {
    let text = std::str::from_utf8(bytes).map_err(|e| DecodeError(e.to_string()))?;
    serde_json::from_str(text).map_err(|e| DecodeError(format!("{e:?}")))
}

/// [`try_decode`] for callers that treat corruption as a bug (tests,
/// offline tooling). Panics on corrupt bytes.
pub fn decode(bytes: &[u8]) -> SessionCheckpoint {
    // rts-allow(panic): documented panic-on-corruption helper for
    // tests and offline tooling; the engine itself uses try_decode.
    try_decode(bytes).expect("checkpoint bytes parse")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::session::FlagQuery;
    use simlm::Decision;

    fn sample() -> SessionCheckpoint {
        SessionCheckpoint {
            instance: 41,
            is_table: false,
            corpus: simlm::CorpusVersion::default(),
            monitor: 0x0123_4567_89AB_CDEF,
            rng_state: 0xDEAD_BEEF_0BAD_F00D,
            would_be_correct: Some(false),
            overrides: vec![
                ("orders".into(), Decision::Correct),
                ("users".into(), Decision::Substitute("user_logs".into())),
            ],
            handled: vec![0, 2],
            n_interventions: 2,
            n_flags: 5,
            rounds_done: 3,
            sets: "050203304ca60a4625a53f550109c3f5285c8fc2ed3fea02".into(),
            pending: Some(FlagQuery {
                instance: 41,
                is_table: false,
                round: 2,
                branch_pos: 7,
                element_idx: 1,
                gold_element: "users.name".into(),
                implicated: vec!["users.nick".into()],
                predicted: vec!["orders.id".into(), "users.nick".into()],
            }),
        }
    }

    #[test]
    fn roundtrip_is_lossless() {
        let cp = sample();
        assert_eq!(decode(&encode(&cp)), cp);
    }

    #[test]
    fn encoding_is_deterministic_and_small() {
        let cp = sample();
        assert_eq!(encode(&cp), encode(&cp));
        // The point of checkpointing: bytes are of query-text order,
        // not hidden-stack order (tens of KB).
        assert!(String::from_utf8(encode(&cp)).unwrap().contains(&cp.sets));
        assert!(encode(&cp).len() < 2048, "checkpoint unexpectedly large");
    }

    #[test]
    fn corpus_version_roundtrips_in_checkpoints() {
        // The default stamps v2 and survives the codec — the serving
        // half of the corpus-version serde contract.
        let cp = sample();
        assert_eq!(decode(&encode(&cp)).corpus, simlm::CorpusVersion::V2);
        // The tag lands in the JSON as a plain string, so a corpus
        // mismatch is visible in the raw bytes too.
        assert!(String::from_utf8(encode(&cp)).unwrap().contains("\"V2\""));
    }

    #[test]
    fn full_u64_rng_state_survives_json() {
        let mut cp = sample();
        cp.rng_state = u64::MAX;
        assert_eq!(decode(&encode(&cp)).rng_state, u64::MAX);
    }

    #[test]
    fn corrupt_bytes_fail_decode_without_panicking() {
        assert!(try_decode(b"").is_err(), "empty buffer");
        assert!(try_decode(&[0xFF, 0xFE, 0x00]).is_err(), "not UTF-8");
        assert!(try_decode(b"{\"instance\": 41").is_err(), "truncated JSON");
        let mut bytes = encode(&sample());
        bytes.truncate(bytes.len() / 2);
        assert!(try_decode(&bytes).is_err(), "half a checkpoint");
    }
}
