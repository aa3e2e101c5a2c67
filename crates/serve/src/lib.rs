//! # rts-serve — the online serving engine
//!
//! The batch drivers in `rts-core` answer "how well does adaptive
//! abstention work?"; this crate answers "how do you *serve* it".
//! Production traffic is nothing like a closed batch job: requests
//! arrive concurrently, suspend mid-flight awaiting human feedback,
//! and must come back with *some* answer under a latency budget.
//! [`ServeEngine`] is that runtime, built directly on the resumable
//! [`rts_core::session::LinkSession`] state machine:
//!
//! * **One engine, one or more shards** — [`ServeEngine`] is a pool of
//!   [`ServeConfig::shards`] database shards (default 1) behind the
//!   [`Engine`] surface. Submits route by a revision-stable FNV-1a
//!   hash of the database name ([`rts_core::context::db_shard`]); each
//!   shard owns its queue, context cache, latency window and counters,
//!   and a ticket id encodes its shard (`id % shards`). Each of the
//!   `config.workers` threads on [`ServeEngine::worker_loop`] takes a
//!   home shard round-robin and steals ready work from the others
//!   when its home is idle. Outcomes never depend on the shard count.
//! * **Bounded admission** — [`Engine::submit`] enqueues into a
//!   fixed-capacity queue and rejects beyond it, so overload surfaces
//!   as backpressure at the edge instead of unbounded memory.
//! * **Multi-tenant fairness** — every submission is tagged with a
//!   [`TenantId`]; admissions land in per-tenant sub-queues served by
//!   deficit-round-robin dispatch ([`tenant::FairQueue`]), so one
//!   chatty tenant deepens only its own backlog. A per-tenant quota
//!   (max in flight) bounces the offender with
//!   [`SubmitError::QuotaExceeded`] while everyone else keeps
//!   submitting.
//! * **Feedback timeouts** — a session parked on a human who never
//!   answers is resumed after [`ServeConfig::feedback_timeout`] with
//!   the abstention verdict: the request *completes* as a hand-off
//!   (`timed_out_to_abstention` in the stats), it is never dropped.
//!   Load shedding, quota backpressure and feedback timeouts all
//!   degrade through the same abstention mechanism.
//! * **Parked-session checkpointing** — past
//!   [`ServeConfig::parked_bytes_budget`], the largest parked
//!   checkpoints are encoded in the [`checkpoint`] binary layout (the
//!   session's state and its round's label sets: a few hundred bytes,
//!   no hidden stacks) and restored from those bytes, bit-identically
//!   and with no synthesis, when their feedback arrives (pinned by the
//!   checkpoint-roundtrip parity proptests). The checkpoint stays in
//!   memory beside its bytes as the fallback should they not decode,
//!   so eviction frees no memory yet: it only moves the park's billing
//!   from the parked-bytes gauge to the checkpoint-bytes gauge.
//! * **Non-blocking feedback** — when a session hits a branching flag
//!   it is *parked* (worker moves on); the client answers through
//!   [`Engine::resolve`] and the session re-enters the work queue.
//!   No worker is ever held hostage by a waiting human, nor, through
//!   [`ServeEngine::watch`] (events pushed to a sink), a client thread.
//! * **Joint session chaining** — each request runs table linking then
//!   column linking, mirroring `run_joint_linking_in`'s joint process,
//!   with outcomes combined into a [`rts_core::pipeline::JointOutcome`].
//! * **Lazy per-tenant contexts** — `LinkContext`s are built on first
//!   request per `(database, target)` and shared through an LRU
//!   [`rts_core::context::ContextCache`]. A context builds its
//!   vocabulary and trie only when a trace back needs the trie, which
//!   a generated round (always `;`-terminated) never does, so a cache
//!   miss costs a small allocation.
//! * **Abstention as backpressure** — a request past its deadline is
//!   not dropped: the remaining linking stages degrade to *abstention*,
//!   the paper's own "hand this instance off" verdict. Load shedding
//!   and reliability share one mechanism, unique to this design.
//! * **A parked request is its checkpoint** — no session outlives
//!   one dispatch: a worker opens or restores it, steps it and drops
//!   it when it parks. A ticket's state is one enum: `Queued` (with
//!   the parked stage and the resolution applied since to resume
//!   from, or nothing for a fresh admission), `Running`,
//!   `AwaitingFeedback` (the query, the park-time checkpoint, the
//!   evicted bytes if any, and the feedback deadline) or `Done`. An
//!   evicted stage always keeps its checkpoint, so corrupt bytes have
//!   a way back by construction.
//! * **Degrade-only fault tolerance** — a panicking session step is
//!   caught (`catch_unwind`), restored from its checkpoint and retried
//!   with backoff before degrading the one ticket to abstention;
//!   corrupt checkpoint bytes are restored from the checkpoint kept
//!   in memory; client API
//!   misuse (unknown tickets, double resolves) returns typed errors
//!   ([`ClientEvent::Retired`], [`ResolveError`]) instead of
//!   panicking. The [`fault`] module's deterministic
//!   [`fault::FaultPlan`] injects all of these reproducibly; the chaos
//!   proptests pin the invariant that every submitted ticket still
//!   terminates with zero drops.
//! * **Schema-drift epochs** — [`Engine::invalidate_db`] (or a
//!   bumped `DbMeta::revision`) drops cached contexts so new sessions
//!   rebuild, while a running dispatch finishes on the
//!   `Arc<LinkContext>` it fetched. A parked request fetches its
//!   context again on resume; a context holds only its target, so
//!   which one it gets never changes an outcome.
//! * **Accounting** — per-request latency (p50/p95/p99), queue depth,
//!   context-cache hit rate and parked-session memory are recorded in
//!   a [`ServingStats`] snapshot. Each shard's counters are plain
//!   fields of its state, updated under its lock; a snapshot is one
//!   clone under that lock.
//!
//! Outcome parity: with no deadline pressure, the engine's per-request
//! outcomes are *identical* to the batch pipeline's — every linking
//! run is a deterministic function of `(instance, seed)` and feedback
//! resolutions are deterministic per oracle, so worker scheduling
//! cannot change results (pinned by the `serve_engine_matches_batch…`
//! and `sharded_engine_matches_single_shard` parity tests).
//!
//! ```text
//! crossbeam::thread::scope(|s| {
//!     for _ in 0..workers { s.spawn(|_| engine.worker_loop()); }
//!     // clients: submit → wait_event → resolve → … → Done
//! })
//! ```

pub mod api;
pub mod checkpoint;
mod engine;
pub mod error;
pub mod fault;
mod stats;
pub mod tenant;
pub mod wire;

pub use api::{drive_closed_loop, Engine};
pub use engine::{ClientEvent, ServeConfig, ServeEngine, ServeOutcome};
pub use error::{EngineError, ResolveError, SubmitError};
pub use fault::{FaultPlan, FaultSite};
pub use stats::{LatencySummary, ServingStats};
pub use tenant::{TenantId, TenantQuota, TicketId};
