//! Parked-session checkpointing: the byte codec of
//! [`rts_core::session::SessionCheckpoint`].
//!
//! A parked session holds no hidden stacks, only its last round's step
//! keys and label sets plus its loop state; the checkpoint carries all
//! of it in a few hundred bytes of a versioned binary layout (see
//! [`SessionCheckpoint`] for the layout, which lives with the type so
//! `rts-core`'s own tests can round-trip it). Restoring synthesizes
//! nothing; the regeneration after the feedback synthesizes only the
//! positions the feedback changed, on the worker that resumes the
//! ticket.

use rts_core::session::SessionCheckpoint;

pub use rts_core::session::DecodeError;

/// Encode a checkpoint into an owned byte buffer (deterministic:
/// override and handled sets are sorted when the checkpoint is taken).
pub fn encode(cp: &SessionCheckpoint) -> Vec<u8> {
    cp.to_bytes()
}

/// Rebuild a checkpoint from [`encode`]'s bytes. The buffer never
/// leaves the engine, so a decode failure means corruption — the
/// engine recovers from the recipe every evicted ticket keeps in
/// memory (never a worker panic).
pub fn try_decode(bytes: &[u8]) -> Result<SessionCheckpoint, DecodeError> {
    SessionCheckpoint::from_bytes(bytes)
}

/// [`try_decode`] for callers that treat corruption as a bug (tests,
/// offline tooling). Panics on corrupt bytes.
pub fn decode(bytes: &[u8]) -> SessionCheckpoint {
    // rts-allow(panic): documented panic-on-corruption helper for
    // tests and offline tooling; the engine itself uses try_decode.
    try_decode(bytes).expect("checkpoint bytes parse")
}
