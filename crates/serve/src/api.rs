//! One engine API: the [`Engine`] trait both serving surfaces —
//! the in-process [`ServeEngine`](crate::ServeEngine) and the
//! `rts-client` TCP client — implement, plus the shared closed-loop
//! client the serving tests run against it.
//!
//! The trait abstracts exactly the client-visible surface: submission,
//! event waiting, feedback resolution, stats, schema invalidation, and
//! shutdown; a caller waits for events in [`Engine::wait_event`].
//! Engines stay free to expose richer inherent APIs (worker loops,
//! shard introspection, [`ServeEngine::watch`](crate::ServeEngine::watch)
//! pushing events without a waiting thread); generic callers see only
//! this.

use crate::engine::{ClientEvent, ServeOutcome};
use crate::error::{ResolveError, SubmitError};
use crate::stats::ServingStats;
use crate::tenant::{TenantId, TicketId};
use benchgen::Instance;
use rts_core::session::{FlagQuery, FlagResolution};
use std::time::Duration;

/// The client-visible serving surface. `Sync` because every
/// implementation is driven by concurrent client threads; a request is
/// named by a [`TicketId`] (the in-process engine's id, which encodes
/// its shard, or the wire client's request id).
pub trait Engine: Sync {
    /// Admit a request for joint (tables → columns) linking of `inst`.
    fn submit(&self, tenant: TenantId, inst: &Instance) -> Result<TicketId, SubmitError>;

    /// Block until the ticket suspends on feedback or completes. The
    /// protocol is `submit → (wait_event → resolve)* → Done`;
    /// re-polling a suspended ticket returns the same query, and a
    /// collected or unknown ticket reads [`ClientEvent::Retired`].
    fn wait_event(&self, ticket: TicketId) -> ClientEvent;

    /// Apply feedback to a suspended ticket. `query` is the flag being
    /// answered — its identity guards against a stale answer landing
    /// on a different flag.
    fn resolve(
        &self,
        ticket: TicketId,
        query: &FlagQuery,
        resolution: FlagResolution,
    ) -> Result<(), ResolveError>;

    /// Counter snapshot.
    fn stats(&self) -> ServingStats;

    /// Signal schema drift for `db`: drop its cached contexts so new
    /// sessions rebuild. Returns the number of contexts dropped.
    fn invalidate_db(&self, db: &str) -> usize;

    /// Override a tenant's fair-share weight (default 1).
    fn set_tenant_weight(&self, tenant: TenantId, weight: u32);

    /// Ask the engine to drain and stop: queued and parked work
    /// completes (parked flags degrade to abstention), then workers
    /// exit.
    fn shutdown(&self);
}

/// How long a closed-loop client backs off after a `QueueFull`/
/// `QuotaExceeded` rejection before retrying the submit.
const SUBMIT_RETRY: Duration = Duration::from_micros(200);

/// How long a stalling client sleeps before re-polling a flag its
/// feedback provider declined to answer yet.
const STALL_POLL: Duration = Duration::from_micros(500);

/// The closed-loop client the serving tests run: submit each instance
/// in order (retrying through backpressure rejections), answer
/// feedback through `resolve_feedback`, and collect outcomes in
/// submission order.
///
/// `resolve_feedback(inst, query)` returns the resolution to apply, or
/// `None` to *stall* — the client sleeps briefly and re-polls, leaving
/// the flag unanswered (how a test models a human who has not answered
/// yet, letting feedback timeouts fire). Resolve races
/// ([`ResolveError::Stale`] after a timeout beat the answer) are
/// legal protocol outcomes and ignored; hard submit errors (unknown
/// database/instance, transport loss) panic — closed-loop fixtures
/// always submit known instances against a live engine, so those are
/// harness bugs, not load conditions.
pub fn drive_closed_loop<E: Engine + ?Sized>(
    engine: &E,
    tenant: TenantId,
    instances: &[Instance],
    mut resolve_feedback: impl FnMut(&Instance, &FlagQuery) -> Option<FlagResolution>,
) -> Vec<(u64, ServeOutcome)> {
    let mut out = Vec::with_capacity(instances.len());
    for inst in instances {
        let ticket = loop {
            match engine.submit(tenant, inst) {
                Ok(t) => break t,
                Err(SubmitError::QueueFull { .. } | SubmitError::QuotaExceeded { .. }) => {
                    std::thread::sleep(SUBMIT_RETRY);
                }
                // rts-allow(panic): harness-only helper — a closed-loop
                // fixture submitting an unknown instance is a test bug,
                // not a load condition; fail loudly at the harness.
                Err(e) => panic!("closed-loop submit must admit instance {}: {e}", inst.id),
            }
        };
        loop {
            match engine.wait_event(ticket) {
                ClientEvent::NeedsFeedback { query, .. } => match resolve_feedback(inst, &query) {
                    Some(resolution) => {
                        // Stale is a legal race (a feedback timeout or
                        // shutdown drain beat the answer); the engine
                        // dropped the answer, never misapplied it.
                        let _ = engine.resolve(ticket, &query, resolution);
                    }
                    None => std::thread::sleep(STALL_POLL),
                },
                ClientEvent::Done(outcome) => {
                    out.push((inst.id, outcome));
                    break;
                }
                ClientEvent::Retired => {
                    // rts-allow(panic): harness-only helper — nothing
                    // else collects this client's tickets, so Retired
                    // here means the engine broke its protocol; the
                    // parity tests want that loud.
                    panic!("ticket {ticket} retired while its client still waits")
                }
            }
        }
    }
    out
}
