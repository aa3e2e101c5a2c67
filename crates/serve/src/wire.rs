//! The framed wire protocol `rts-served` speaks — message types,
//! length-prefixed framing, and the serializable mirror of
//! [`ServeOutcome`]. See `PROTOCOL.md` at the repo root for the
//! normative reference.
//!
//! **Framing.** Every message is one frame: a 4-byte little-endian
//! payload length followed by that many bytes of serde-JSON. Frames
//! above [`MAX_FRAME`] are refused *before* allocating
//! ([`WireError::TooLarge`]); a connection that ends mid-frame reads
//! as [`WireError::Truncated`], cleanly distinguishable from an
//! end-of-stream between frames (`Ok(None)`). Every decode failure is
//! a typed [`WireError`] — a malformed peer can never panic the
//! process.
//!
//! **Versioning.** The first exchange on every connection is
//! `Hello{version}` / `HelloAck{version, ..}` carrying
//! [`WIRE_VERSION`]; mismatched peers part with a typed
//! [`crate::error::EngineError::Version`] instead of mis-decoding each
//! other's frames. The `HelloAck` also carries the server's corpus
//! fingerprint — submits travel as instance *ids* (client and server
//! rebuild the same deterministic corpus from the same recipe), so a
//! fingerprint mismatch means ids would name different instances and
//! the client refuses up front.
//!
//! **Request ids.** Every `Submit` carries a client-chosen `req` id,
//! unique per session; it is the ticket handle for every later event,
//! resolution, and reconnect-resume concerning that request. Ids are
//! session-scoped: a reconnecting client resumes its session (`Hello`
//! with `resume`) and keeps using the same ids — the engine-side
//! ticket survives the connection, which is what makes a dropped
//! connection equivalent to a parked session instead of a lost one.

use crate::engine::ServeOutcome;
use crate::error::EngineError;
use crate::stats::ServingStats;
use crate::tenant::TenantId;
use rts_core::pipeline::JointOutcome;
use rts_core::session::{FlagQuery, FlagResolution};
use serde::{Deserialize, Serialize};
use simlm::LinkTarget;
use std::io::{Read, Write};
use std::time::Duration;

/// Protocol version spoken by this build. Bump on any change to the
/// framing or message schema.
pub const WIRE_VERSION: u32 = 2;

/// Upper bound on a frame's payload length. Larger prefixes are
/// refused before any allocation — a corrupt or hostile length prefix
/// must not OOM the server.
pub const MAX_FRAME: usize = 1 << 20;

/// The deterministic corpus recipe, flattened to a comparable string.
/// Server and client each compute it from their own build
/// configuration; because the corpus is a pure function of this
/// recipe, equal fingerprints guarantee instance ids name identical
/// instances on both ends. Carried in `HelloAck`.
pub fn corpus_fingerprint(
    profile: &str,
    scale: f64,
    seed: u64,
    corpus: simlm::CorpusVersion,
) -> String {
    format!("{profile}|scale={scale}|seed={seed}|corpus={corpus:?}|wire=v{WIRE_VERSION}")
}

/// Why a frame could not be read or written. Transport-level: these
/// never cross the wire themselves; the peer that hits one closes (or
/// answers with a `ServerMsg::Fault` first when the socket still
/// works).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying socket failed.
    Io { detail: String },
    /// A length prefix exceeded [`MAX_FRAME`].
    TooLarge { len: u64 },
    /// The stream ended inside a frame (mid-prefix or mid-payload) —
    /// the peer died mid-send, unlike the clean between-frames EOF
    /// that reads as `Ok(None)`.
    Truncated,
    /// The payload was not valid JSON for the expected message type.
    Malformed { detail: String },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { detail } => write!(f, "socket failure: {detail}"),
            WireError::TooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed { detail } => write!(f, "malformed frame payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io { detail } => EngineError::Transport { detail },
            WireError::Truncated => EngineError::Transport {
                detail: "stream ended mid-frame".to_string(),
            },
            other => EngineError::Protocol {
                detail: other.to_string(),
            },
        }
    }
}

/// Serialize `msg` into one length-prefixed frame on `w`.
pub fn write_frame<W: Write, T: Serialize>(w: &mut W, msg: &T) -> Result<(), WireError> {
    let payload = serde_json::to_string(msg).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })?;
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::TooLarge {
            len: bytes.len() as u64,
        });
    }
    let prefix = (bytes.len() as u32).to_le_bytes();
    let io = |e: std::io::Error| WireError::Io {
        detail: e.to_string(),
    };
    w.write_all(&prefix).map_err(io)?;
    w.write_all(bytes).map_err(io)?;
    w.flush().map_err(io)
}

/// Read one frame from `r` and decode it as `T`. `Ok(None)` is the
/// clean end of stream (the peer closed *between* frames); every other
/// failure is typed — truncation, an oversized prefix (refused before
/// allocating), undecodable payload, or a socket error.
pub fn read_frame<R: Read, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < prefix.len() {
        // rts-allow(panic): the loop guard holds got < prefix.len(),
        // so the range start is always in bounds
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(WireError::Io {
                    detail: e.to_string(),
                })
            }
        }
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::TooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    if let Err(e) = r.read_exact(&mut payload) {
        return Err(match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io {
                detail: e.to_string(),
            },
        });
    }
    let text = String::from_utf8(payload).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })?;
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| WireError::Malformed {
            detail: e.to_string(),
        })
}

/// [`ServeOutcome`] as it travels the wire: identical fields except
/// the latency, carried as integer microseconds (the serde shim has no
/// `Duration` impl, and sub-microsecond latency precision is noise at
/// network scale anyway).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireOutcome {
    pub outcome: JointOutcome,
    pub shed: bool,
    pub timed_out: bool,
    pub faulted: bool,
    pub drained: bool,
    pub latency_us: u64,
    pub n_feedback: usize,
}

impl From<ServeOutcome> for WireOutcome {
    fn from(o: ServeOutcome) -> Self {
        WireOutcome {
            outcome: o.outcome,
            shed: o.shed,
            timed_out: o.timed_out,
            faulted: o.faulted,
            drained: o.drained,
            latency_us: o.latency.as_micros().min(u128::from(u64::MAX)) as u64,
            n_feedback: o.n_feedback,
        }
    }
}

impl From<WireOutcome> for ServeOutcome {
    fn from(o: WireOutcome) -> Self {
        ServeOutcome {
            outcome: o.outcome,
            shed: o.shed,
            timed_out: o.timed_out,
            faulted: o.faulted,
            drained: o.drained,
            latency: Duration::from_micros(o.latency_us),
            n_feedback: o.n_feedback,
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientMsg {
    /// First message on every connection. `resume` names a previous
    /// session to re-attach to (after a dropped connection); `None`
    /// opens a fresh session.
    Hello { version: u32, resume: Option<u64> },
    /// Admit instance `instance` (by corpus id) for `tenant`. `req` is
    /// the client-chosen, session-unique handle for this request.
    Submit {
        req: u64,
        tenant: TenantId,
        instance: u64,
    },
    /// Answer request `ticket`'s pending flag. `req` identifies the
    /// ack; `query` is the flag being answered (its identity guards
    /// the resolution against races, exactly as in-process).
    Resolve {
        req: u64,
        ticket: u64,
        query: FlagQuery,
        resolution: FlagResolution,
    },
    /// Request a [`ServingStats`] snapshot.
    Stats { req: u64 },
    /// Drop `database`'s cached contexts on the server.
    InvalidateDb { req: u64, database: String },
    /// Override a tenant's fair-share weight. Fire-and-forget.
    SetTenantWeight { tenant: TenantId, weight: u32 },
    /// Ask the server to drain and exit. Fire-and-forget.
    Shutdown,
    /// Clean goodbye: the client is done and its session (with every
    /// request in it) can be retired — unlike a silent drop, which
    /// parks the session for resume.
    Bye,
}

/// Server → client messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Handshake reply: the server's protocol version, the session id
    /// to resume with after a reconnect, and the corpus fingerprint
    /// the client must match for instance ids to be meaningful.
    HelloAck {
        version: u32,
        session: u64,
        fingerprint: String,
    },
    /// `Submit { req }` was admitted; events for it will follow.
    Submitted { req: u64 },
    /// `Submit { req }` was refused.
    SubmitFailed { req: u64, error: EngineError },
    /// Request `req` suspended on a branching flag — answer with
    /// [`ClientMsg::Resolve`].
    NeedsFeedback {
        req: u64,
        target: LinkTarget,
        query: FlagQuery,
    },
    /// Request `req` finished.
    Done { req: u64, outcome: WireOutcome },
    /// Request `req` no longer exists server-side.
    Retired { req: u64 },
    /// `Resolve { req }` was applied.
    Resolved { req: u64 },
    /// `Resolve { req }` was not applied (stale/retired — the same
    /// typed races as in-process).
    ResolveFailed { req: u64, error: EngineError },
    /// [`ClientMsg::Stats`] reply.
    Stats { req: u64, stats: ServingStats },
    /// [`ClientMsg::InvalidateDb`] reply: contexts dropped.
    Invalidated { req: u64, dropped: usize },
    /// Connection-level failure the server can still report before
    /// closing (version mismatch, malformed frame, unknown resume
    /// session).
    Fault { error: EngineError },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(msg: &ClientMsg) -> ClientMsg {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).expect("frame writes");
        let back: Option<ClientMsg> = read_frame(&mut Cursor::new(&buf)).expect("frame reads");
        back.expect("one frame present")
    }

    #[test]
    fn frames_round_trip_every_client_message() {
        let query = FlagQuery {
            instance: 7,
            is_table: true,
            round: 1,
            branch_pos: 3,
            element_idx: 0,
            gold_element: "t_orders".into(),
            implicated: vec!["t_orders".into(), "t_users".into()],
            predicted: vec!["t_users".into()],
        };
        for msg in [
            ClientMsg::Hello {
                version: WIRE_VERSION,
                resume: Some(11),
            },
            ClientMsg::Submit {
                req: 1,
                tenant: 4,
                instance: 900,
            },
            ClientMsg::Resolve {
                req: 2,
                ticket: 1,
                query: query.clone(),
                resolution: FlagResolution::Abstain { consulted: true },
            },
            ClientMsg::Stats { req: 3 },
            ClientMsg::InvalidateDb {
                req: 4,
                database: "db_0".into(),
            },
            ClientMsg::SetTenantWeight {
                tenant: 4,
                weight: 3,
            },
            ClientMsg::Shutdown,
            ClientMsg::Bye,
        ] {
            let back = roundtrip(&msg);
            assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        }
    }

    #[test]
    fn consecutive_frames_read_in_order_then_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Stats { req: 1 }).expect("writes");
        write_frame(&mut buf, &ClientMsg::Bye).expect("writes");
        let mut r = Cursor::new(&buf);
        let a: Option<ClientMsg> = read_frame(&mut r).expect("reads");
        let b: Option<ClientMsg> = read_frame(&mut r).expect("reads");
        let end: Option<ClientMsg> = read_frame(&mut r).expect("clean EOF is not an error");
        assert!(matches!(a, Some(ClientMsg::Stats { req: 1 })));
        assert!(matches!(b, Some(ClientMsg::Bye)));
        assert!(end.is_none(), "between-frames EOF reads as None");
    }

    #[test]
    fn truncated_frames_are_typed_never_panics() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Stats { req: 9 }).expect("writes");
        // Cut mid-payload…
        let cut = buf.len() - 3;
        let r: Result<Option<ClientMsg>, _> = read_frame(&mut Cursor::new(&buf[..cut]));
        assert!(matches!(r, Err(WireError::Truncated)), "{r:?}");
        // …and mid-prefix.
        let r: Result<Option<ClientMsg>, _> = read_frame(&mut Cursor::new(&buf[..2]));
        assert!(matches!(r, Err(WireError::Truncated)), "{r:?}");
    }

    #[test]
    fn oversized_prefix_is_refused_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"whatever");
        let r: Result<Option<ClientMsg>, _> = read_frame(&mut Cursor::new(&buf));
        assert!(
            matches!(r, Err(WireError::TooLarge { len }) if len == u64::from(u32::MAX)),
            "{r:?}"
        );
    }

    #[test]
    fn garbage_payload_is_malformed_not_a_panic() {
        let garbage = b"not json at all";
        let mut buf = Vec::new();
        buf.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        buf.extend_from_slice(garbage);
        let r: Result<Option<ClientMsg>, _> = read_frame(&mut Cursor::new(&buf));
        assert!(matches!(r, Err(WireError::Malformed { .. })), "{r:?}");
        // Valid JSON of the wrong shape is malformed too.
        let wrong = serde_json::to_string(&ServerMsg::Retired { req: 1 }).expect("serializes");
        let mut buf = Vec::new();
        buf.extend_from_slice(&(wrong.len() as u32).to_le_bytes());
        buf.extend_from_slice(wrong.as_bytes());
        let r: Result<Option<ClientMsg>, _> = read_frame(&mut Cursor::new(&buf));
        assert!(matches!(r, Err(WireError::Malformed { .. })), "{r:?}");
    }

    /// Drain `r` frame by frame until a clean end or a typed error;
    /// return the decoded messages. A panic anywhere fails the caller.
    fn drain(r: &mut Cursor<&[u8]>) -> (Vec<ClientMsg>, Option<WireError>) {
        let mut msgs = Vec::new();
        loop {
            match read_frame::<_, ClientMsg>(r) {
                Ok(Some(msg)) => msgs.push(msg),
                Ok(None) => return (msgs, None),
                Err(e) => return (msgs, Some(e)),
            }
        }
    }

    /// One valid message per seed, covering numeric and string fields.
    fn message(seed: u64, text: &[u8]) -> ClientMsg {
        match seed % 4 {
            0 => ClientMsg::Submit {
                req: seed,
                tenant: (seed >> 8) as TenantId,
                instance: seed.rotate_left(17),
            },
            1 => ClientMsg::InvalidateDb {
                req: seed,
                database: String::from_utf8_lossy(text).into_owned(),
            },
            2 => ClientMsg::Stats { req: seed },
            _ => ClientMsg::Bye,
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes, raw or behind a length prefix that admits
        /// them to the JSON decoder, decode to messages, a clean end
        /// or a typed error: never a panic, and never an `Io` error
        /// from an in-memory reader.
        #[test]
        fn arbitrary_bytes_read_typed_never_panic(
            bytes in proptest::prop::collection::vec(proptest::any::<u8>(), 0..4096),
        ) {
            let mut framed = (bytes.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&bytes);
            for stream in [&bytes, &framed] {
                let (_, err) = drain(&mut Cursor::new(stream.as_slice()));
                proptest::prop_assert!(
                    !matches!(err, Some(WireError::Io { .. })),
                    "{err:?}"
                );
            }
        }

        /// N valid frames followed by arbitrary tail bytes decode those
        /// N messages first, in order, whatever the tail holds.
        #[test]
        fn valid_frames_then_garbage_decode_in_order(
            seeds in proptest::prop::collection::vec(proptest::any::<u64>(), 0..6),
            text in proptest::prop::collection::vec(proptest::any::<u8>(), 0..64),
            tail in proptest::prop::collection::vec(proptest::any::<u8>(), 0..4096),
        ) {
            let sent: Vec<ClientMsg> = seeds.iter().map(|&s| message(s, &text)).collect();
            let mut buf = Vec::new();
            for msg in &sent {
                write_frame(&mut buf, msg).expect("frame writes");
            }
            buf.extend_from_slice(&tail);
            let (got, _) = drain(&mut Cursor::new(buf.as_slice()));
            proptest::prop_assert!(got.len() >= sent.len(), "{} of {} frames", got.len(), sent.len());
            for (a, b) in sent.iter().zip(&got) {
                proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn wire_outcome_mirrors_serve_outcome() {
        let serve = ServeOutcome {
            outcome: JointOutcome {
                tables: rts_core::abstention::RtsOutcome {
                    abstained: false,
                    predicted: vec!["a".into()],
                    correct: true,
                    would_be_correct: true,
                    n_interventions: 1,
                    n_flags: 2,
                },
                columns: rts_core::abstention::RtsOutcome {
                    abstained: true,
                    predicted: Vec::new(),
                    correct: false,
                    would_be_correct: false,
                    n_interventions: 0,
                    n_flags: 1,
                },
            },
            shed: false,
            timed_out: true,
            faulted: false,
            drained: false,
            latency: Duration::from_micros(12_345),
            n_feedback: 3,
        };
        let wire: WireOutcome = serve.clone().into();
        let json = serde_json::to_string(&wire).expect("serializes");
        let back: WireOutcome = serde_json::from_str(&json).expect("parses");
        let restored: ServeOutcome = back.into();
        assert_eq!(format!("{restored:?}"), format!("{serve:?}"));
    }
}
