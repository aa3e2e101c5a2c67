//! The serving error hierarchy — one set of typed, serializable
//! errors shared by the in-process engine and the wire protocol.
//!
//! Clients see the *same* types whether they call a [`crate::engine::ServeEngine`]
//! in-process or an `rts-served` process over TCP: the wire layer
//! ships [`EngineError`] values as serde-JSON and the client crate
//! converts them back through the [`From`] impls below, so a
//! `SubmitError::QueueFull` raised three hops away still pattern-
//! matches as `SubmitError::QueueFull`. Transport-only failures
//! (connection loss, protocol violations, version skew) have their own
//! variants and fold into the in-process types as
//! `Unavailable`/`Retired` — degrade, never panic, never a silent
//! drop.

use crate::tenant::{TenantId, TicketId};
use serde::{Deserialize, Serialize};

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitError {
    /// The admission queue is at capacity — retry later (client-side
    /// backpressure).
    QueueFull { capacity: usize },
    /// The submitting tenant is at its own in-flight quota — other
    /// tenants are unaffected; retry after some of this tenant's
    /// requests complete.
    QuotaExceeded { tenant: TenantId, limit: usize },
    /// The instance references a database the engine has no metadata
    /// for — a client-input error, rejected before any queue state
    /// changes (it used to panic a worker; see the robustness notes).
    UnknownDatabase { database: String },
    /// The server's instance corpus has no instance with this id — the
    /// wire protocol submits by instance id (client and server rebuild
    /// the same deterministic corpus), so an unknown id is a recipe
    /// mismatch or a client bug. Never raised in-process.
    UnknownInstance { instance: u64 },
    /// The engine could not be reached at all (connection refused,
    /// reconnect budget exhausted, server shutting down). Never raised
    /// in-process.
    Unavailable { detail: String },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            SubmitError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant} at quota ({limit} requests)")
            }
            SubmitError::UnknownDatabase { database } => {
                write!(f, "no database metadata for {database}")
            }
            SubmitError::UnknownInstance { instance } => {
                write!(f, "no instance {instance} in the server corpus")
            }
            SubmitError::Unavailable { detail } => {
                write!(f, "engine unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a resolve was not applied. Either way the answer is *dropped,
/// never misapplied* — and never a panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolveError {
    /// The ticket no longer exists: it completed and its outcome was
    /// collected through `wait_event`, or it was never issued.
    Retired,
    /// The ticket exists but is not suspended on the query being
    /// answered — the resolution lost a race (a feedback timeout
    /// already resolved the flag, a chained stage raised a newer one,
    /// or the same flag was resolved twice). Re-poll with `wait_event`
    /// for the current state.
    Stale,
    /// The engine could not be reached at all; whether the resolution
    /// landed is unknown. The parked session still degrades to
    /// abstention on its feedback timeout, so the request completes
    /// either way. Never raised in-process.
    Unavailable { detail: String },
}

impl std::fmt::Display for ResolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolveError::Retired => write!(f, "ticket already retired"),
            ResolveError::Stale => {
                write!(f, "ticket is not suspended on the answered flag")
            }
            ResolveError::Unavailable { detail } => {
                write!(f, "engine unavailable: {detail}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

/// The umbrella error the wire protocol ships: every way a served
/// request can fail, including transport-level failures the in-process
/// API never sees. [`From`] impls fold it back into
/// [`SubmitError`]/[`ResolveError`] so wire clients surface the exact
/// in-process types.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineError {
    /// An admission failure, verbatim.
    Submit(SubmitError),
    /// A resolution failure, verbatim.
    Resolve(ResolveError),
    /// The ticket no longer exists (the wire mirror of
    /// `ClientEvent::Retired` when it must travel as an error).
    Retired { ticket: TicketId },
    /// The peer violated the framing or message protocol (malformed
    /// frame, out-of-order message, oversized payload).
    Protocol { detail: String },
    /// The connection failed mid-exchange.
    Transport { detail: String },
    /// Client and server speak different protocol versions.
    Version { server: u32, client: u32 },
    /// Client and server rebuilt different corpora — instance ids would
    /// not name the same instances, so every submit is refused up
    /// front.
    Fingerprint { server: String, client: String },
    /// A resume handshake named a session the server does not hold
    /// (expired, never existed, or already resumed elsewhere).
    UnknownSession { session: u64 },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Submit(e) => write!(f, "submit: {e}"),
            EngineError::Resolve(e) => write!(f, "resolve: {e}"),
            EngineError::Retired { ticket } => write!(f, "ticket {ticket} already retired"),
            EngineError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            EngineError::Transport { detail } => write!(f, "transport failure: {detail}"),
            EngineError::Version { server, client } => {
                write!(
                    f,
                    "wire version mismatch (server v{server}, client v{client})"
                )
            }
            EngineError::Fingerprint { server, client } => {
                write!(
                    f,
                    "corpus fingerprint mismatch (server {server}, client {client})"
                )
            }
            EngineError::UnknownSession { session } => {
                write!(f, "no resumable session {session}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SubmitError> for EngineError {
    fn from(e: SubmitError) -> Self {
        EngineError::Submit(e)
    }
}

impl From<ResolveError> for EngineError {
    fn from(e: ResolveError) -> Self {
        EngineError::Resolve(e)
    }
}

/// Fold a wire error back into the in-process submit type: engine
/// rejections come back verbatim; transport-level failures surface as
/// [`SubmitError::Unavailable`] with the detail preserved.
impl From<EngineError> for SubmitError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Submit(e) => e,
            other => SubmitError::Unavailable {
                detail: other.to_string(),
            },
        }
    }
}

/// Fold a wire error back into the in-process resolve type: engine
/// verdicts come back verbatim, a retired ticket stays
/// [`ResolveError::Retired`], and transport-level failures surface as
/// [`ResolveError::Unavailable`].
impl From<EngineError> for ResolveError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Resolve(e) => e,
            EngineError::Retired { .. } => ResolveError::Retired,
            other => ResolveError::Unavailable {
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_errors_round_trip_as_in_process_types() {
        let submit = SubmitError::QueueFull { capacity: 8 };
        let via_wire: EngineError = submit.clone().into();
        let json = serde_json::to_string(&via_wire).expect("engine error serializes");
        let back: EngineError = serde_json::from_str(&json).expect("engine error parses");
        assert_eq!(back, via_wire);
        assert_eq!(SubmitError::from(back), submit);

        let resolve = ResolveError::Stale;
        let via_wire: EngineError = resolve.clone().into();
        let json = serde_json::to_string(&via_wire).expect("engine error serializes");
        let back: EngineError = serde_json::from_str(&json).expect("engine error parses");
        assert_eq!(ResolveError::from(back), resolve);
    }

    #[test]
    fn transport_failures_fold_to_unavailable_not_panic() {
        let e = EngineError::Version {
            server: 2,
            client: 1,
        };
        let SubmitError::Unavailable { detail } = SubmitError::from(e.clone()) else {
            panic!("transport error must fold to Unavailable");
        };
        assert!(detail.contains("version"), "detail preserved: {detail}");
        let ResolveError::Unavailable { .. } = ResolveError::from(e) else {
            panic!("transport error must fold to Unavailable");
        };
        assert_eq!(
            ResolveError::from(EngineError::Retired { ticket: 3 }),
            ResolveError::Retired
        );
    }

    #[test]
    fn quota_rejections_survive_the_wire_verbatim() {
        for e in [
            SubmitError::QuotaExceeded {
                tenant: 7,
                limit: 2,
            },
            SubmitError::UnknownDatabase {
                database: "db_9".into(),
            },
            SubmitError::UnknownInstance { instance: 41 },
        ] {
            let round: SubmitError = EngineError::from(e.clone()).into();
            assert_eq!(round, e);
        }
    }
}
