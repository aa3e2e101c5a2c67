//! The worker-pool engine driving concurrent resumable linking
//! sessions over one or more database shards. See the crate docs for
//! the design overview.

use crate::api::Engine;
use crate::checkpoint;
use crate::error::{ResolveError, SubmitError};
use crate::fault::{FaultPlan, FaultSite, InjectedPanic};
use crate::stats::{Counters, LatencySummary, LatencyWindow, ServingStats};
use crate::tenant::{FairQueue, TenantId, TenantQuota, TicketId};
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use parking_lot::{Condvar, Mutex};
use rts_core::abstention::{LinkScratch, RtsConfig, RtsOutcome};
use rts_core::bpp::Mbpp;
use rts_core::context::{db_shard, ContextCache, LinkContext};
use rts_core::pipeline::JointOutcome;
use rts_core::session::{
    monitor_fingerprint, CtxHandle, FlagQuery, FlagResolution, LinkSession, SessionCheckpoint,
    SessionState,
};
use simlm::{LinkTarget, SchemaLinker};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads the caller should spawn on
    /// [`ServeEngine::worker_loop`] (the engine itself never spawns —
    /// scoped threads keep every borrow checked). Each thread takes a
    /// home shard round-robin.
    pub workers: usize,
    /// Database shards (see [`ServeEngine`]). `0` is treated as 1.
    pub shards: usize,
    /// Admission-queue bound across all tenants of a shard; submits
    /// beyond it are rejected ([`SubmitError::QueueFull`]). `0` =
    /// unbounded. Resumed sessions never count against admission —
    /// they were already admitted.
    pub queue_capacity: usize,
    /// Per-tenant admission quota per shard (max in-flight / max
    /// parked; `0` = unbounded). Submissions beyond it are rejected
    /// with [`SubmitError::QuotaExceeded`], so backpressure lands on
    /// the tenant generating the load instead of on everyone.
    pub quota: TenantQuota,
    /// Per-request latency budget. A request past it is *shed*: its
    /// remaining linking stages degrade to abstention (the answer is
    /// "hand off to a human", never a dropped connection). `None`
    /// disables shedding.
    pub deadline: Option<Duration>,
    /// How long a session may stay parked on one feedback query. Past
    /// it the flag is resolved as [`FlagResolution::Abstain`] — the
    /// paper's own hand-off verdict — and the request completes
    /// (degrade, never drop; same philosophy as deadline shedding).
    /// `None` = park forever.
    pub feedback_timeout: Option<Duration>,
    /// Per-shard budget for the round state parked requests hold (their
    /// checkpoints' label sets, [`LinkSession::held_bytes`]). Past it
    /// the engine encodes the largest parked checkpoints to bytes (the
    /// binary layout of [`SessionCheckpoint`]) and restores from those
    /// bytes when feedback arrives, bit-identically. `0` = never
    /// encode.
    pub parked_bytes_budget: usize,
    /// Context-cache capacity per shard and link target (databases);
    /// `0` = unbounded.
    pub cache_capacity: usize,
    /// Deterministic fault-injection schedule (see [`crate::fault`]).
    /// Disabled by default — one predictable branch per site.
    pub fault: FaultPlan,
    /// How many times a panicked step is rebuilt from its recovery
    /// recipe and retried before the ticket degrades to a `faulted`
    /// abstention.
    pub step_retry_budget: usize,
    /// Base backoff before a step retry; doubles per consecutive panic
    /// of the same ticket. `ZERO` retries immediately.
    pub step_retry_backoff: Duration,
    /// Runtime knobs threaded into every session (the merge seed).
    pub rts: RtsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: rts_core::par::thread_count(),
            shards: 1,
            queue_capacity: 64,
            quota: TenantQuota::default(),
            deadline: None,
            feedback_timeout: None,
            parked_bytes_budget: 0,
            cache_capacity: 0,
            fault: FaultPlan::disabled(),
            step_retry_budget: 2,
            step_retry_backoff: Duration::from_micros(100),
            rts: RtsConfig::default(),
        }
    }
}

/// A finished request.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Joint table+column linking outcome — abstained stages included
    /// (whether decided by the runtime, deadline shedding, or a
    /// feedback timeout).
    pub outcome: JointOutcome,
    /// Did deadline shedding degrade any stage to abstention?
    pub shed: bool,
    /// Did a feedback timeout resolve any of this request's flags to
    /// abstention?
    pub timed_out: bool,
    /// Did an unrecoverable fault (a step panicking past the retry
    /// budget) degrade this request to abstention? Successfully
    /// *recovered* faults leave the outcome byte-identical to a
    /// fault-free run and do not set this.
    pub faulted: bool,
    /// Did a shutdown drain resolve a pending flag of this request to
    /// abstention (nothing would ever answer it)?
    pub drained: bool,
    /// Submit-to-completion wall time.
    pub latency: Duration,
    /// Feedback resolutions this request consumed (client answers only
    /// — timeout resolutions are counted in the engine stats instead).
    pub n_feedback: usize,
}

/// What [`Engine::wait_event`] delivers to a client.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// The request is suspended on a branching flag of `target`
    /// linking; answer through [`Engine::resolve`].
    NeedsFeedback {
        target: LinkTarget,
        query: FlagQuery,
    },
    /// The request finished; the ticket is now invalid.
    Done(ServeOutcome),
    /// The ticket no longer exists — its outcome was already collected
    /// (a previous `wait_event` returned [`ClientEvent::Done`]) or it
    /// was never issued. Polling a dead ticket used to panic; a typed
    /// event keeps client bugs out of the engine.
    Retired,
}

/// Request lifecycle. `Running` exists so a worker can own the session
/// outside the state lock while clients still see a coherent phase.
#[derive(Debug)]
enum Phase {
    Queued,
    Running,
    AwaitingFeedback(FlagQuery),
    Done(ServeOutcome),
}

/// A parked stage: the checkpoint its session took when it suspended
/// (its state and its round's label sets, no hidden stacks), plus the
/// resolution applied since. Restoring it and replaying the resolution
/// is bit-identical to the session that parked and synthesizes
/// nothing.
#[derive(Debug)]
struct Recipe {
    checkpoint: SessionCheckpoint,
    resolution: Option<FlagResolution>,
}

impl Recipe {
    /// What a parked stage bills against the parked-bytes gauge: its
    /// round's keys and label sets ([`LinkSession::held_bytes`]).
    fn held_bytes(&self) -> usize {
        self.checkpoint.sets.held_bytes()
    }
}

/// A ticket's current stage between dispatches. No session outlives
/// a dispatch: each one opens the stage's session or restores it from
/// the recipe, and drops it when the stage parks.
#[derive(Debug)]
enum Parked {
    /// Nothing to restore: the next dispatch opens a session (a fresh
    /// admission, a freshly chained stage, or a ticket a worker is
    /// running).
    Fresh,
    /// Parked on a flag (or resumed from one) with its recipe in
    /// memory.
    Held(Recipe),
    /// Evicted past the parked-bytes budget to encoded checkpoint
    /// `bytes`. Should they not decode, the recipe restores the same
    /// session from memory.
    Evicted { bytes: Vec<u8>, recipe: Recipe },
}

struct Ticket {
    tenant: TenantId,
    inst: Arc<Instance>,
    submitted: Instant,
    deadline: Option<Instant>,
    /// When a parked session times out into abstention (`None` while
    /// not parked or with timeouts disabled).
    park_deadline: Option<Instant>,
    /// Stage currently being linked (tables first, then columns —
    /// mirroring `run_joint_linking_in`'s joint process).
    stage: LinkTarget,
    parked: Parked,
    tables: Option<RtsOutcome>,
    n_feedback: usize,
    timed_out: bool,
    /// Set when a shutdown drain resolved a pending flag of this ticket
    /// to abstention.
    drained: bool,
    phase: Phase,
    /// Set by [`ServeEngine::watch`]: gets every `NeedsFeedback` at a
    /// park and the `Done` at finalize, under the state lock.
    sink: Option<Box<dyn FnMut(ClientEvent) + Send>>,
}

struct ShardState {
    /// Per-tenant sub-queues with deficit-round-robin dispatch;
    /// resumed sessions drain before admissions so feedback-ready work
    /// never starves behind fresh arrivals.
    queues: FairQueue,
    tickets: HashMap<TicketId, Ticket>,
    /// The next id this shard issues. Ids step by the shard count, so
    /// `id % shards` names the owning shard.
    next_id: TicketId,
    /// Lower bound on the earliest parked-feedback deadline (`None` =
    /// no parked deadline, always so without a feedback timeout).
    /// Tightened on every park, recomputed exactly by the expiry
    /// sweep; may be stale-early after an unpark, which only costs one
    /// harmless extra sweep — and spares every dispatch the
    /// O(tickets) scan while nothing can have lapsed.
    next_timeout: Option<Instant>,
}

/// One database shard: its queues, tickets, context cache and
/// accounting. Everything immutable lives on the [`ServeEngine`].
struct Shard {
    state: Mutex<ShardState>,
    cache: ContextCache,
    /// Wakes workers homed here (new/resumed work, shutdown).
    work_cv: Condvar,
    /// Wakes clients (ticket phase transitions).
    client_cv: Condvar,
    counters: Counters,
    completed: AtomicU64,
    /// Bounded: percentiles are computed over the most recent
    /// [`LATENCY_WINDOW`] completions, and memory stays O(1) however
    /// long the engine lives.
    latencies_ms: Mutex<LatencyWindow>,
}

/// The serving engine: a pool of one or more database shards
/// ([`ServeConfig::shards`], default 1) behind the [`Engine`] surface.
///
/// Submits route by a revision-stable hash of the database name
/// ([`rts_core::context::db_shard`], FNV-1a), so each shard owns a
/// disjoint slice of the databases with its own fair queue, context
/// cache, latency window and counters; lock contention and cache churn
/// stay shard-local. Queue capacity, quotas, cache capacity and the
/// parked-bytes budget apply per shard — a tenant's global in-flight
/// bound is `max_in_flight × shards` at worst, the price of admission
/// without a cross-shard lock. A ticket id encodes its shard
/// (`id % shards`); with one shard, ids run 0, 1, 2, ….
///
/// **Work stealing.** Each worker serves a home shard and, when that
/// is idle, scans the others for ready work, so a hot shard's backlog
/// is drained by whatever capacity is free. Stealing moves only the
/// executing thread, never a ticket's state. Outcomes are pure
/// functions of the instance, the seeded config and the client's
/// resolutions, so the shard count and worker placement move latency,
/// never answers.
///
/// Owns its model artefacts behind [`Arc`]s, so servers and detached
/// worker threads can share one trained set without any scoped borrow.
/// Share it by reference across scoped worker + client threads, or
/// behind an `Arc` across detached ones.
pub struct ServeEngine {
    model: Arc<SchemaLinker>,
    mbpp_tables: Arc<Mbpp>,
    mbpp_columns: Arc<Mbpp>,
    /// Each stage's [`monitor_fingerprint`]; a checkpoint must match.
    monitor_tables: u64,
    monitor_columns: u64,
    metas: HashMap<String, Arc<DbMeta>>,
    config: ServeConfig,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    /// Home shard of the next thread entering [`ServeEngine::worker_loop`].
    next_home: AtomicUsize,
}

/// Completed-request latency samples retained per shard for
/// percentile reporting (a sliding window, oldest overwritten first).
const LATENCY_WINDOW: usize = 1 << 16;

/// How long an idle worker of a multi-shard pool sleeps on its home
/// shard before rescanning every shard. Bounds steal latency for work
/// arriving on a foreign shard, whose condvar the worker does not wait
/// on, and feedback-timeout latency there.
const STEAL_POLL: Duration = Duration::from_micros(500);

impl ServeEngine {
    /// Build an engine over trained artefacts and the databases in
    /// `metas`, cloning each into shared ownership. No contexts are
    /// built here — they materialize lazily, per database, on first
    /// request. To share one trained set with other owners, clone the
    /// `Arc`s and use [`ServeEngine::with_artifacts`] instead.
    pub fn new(
        model: &SchemaLinker,
        mbpp_tables: &Mbpp,
        mbpp_columns: &Mbpp,
        metas: &[DbMeta],
        config: ServeConfig,
    ) -> Self {
        Self::with_artifacts(
            Arc::new(model.clone()),
            Arc::new(mbpp_tables.clone()),
            Arc::new(mbpp_columns.clone()),
            metas.iter().map(|m| Arc::new(m.clone())).collect(),
            config,
        )
    }

    /// Build an engine over already-shared artefacts — the zero-copy
    /// constructor a standalone server uses. Every shard answers any
    /// database: routing partitions placement, not the metadata.
    pub fn with_artifacts(
        model: Arc<SchemaLinker>,
        mbpp_tables: Arc<Mbpp>,
        mbpp_columns: Arc<Mbpp>,
        metas: Vec<Arc<DbMeta>>,
        config: ServeConfig,
    ) -> Self {
        let config = ServeConfig {
            shards: config.shards.max(1),
            ..config
        };
        let shards = (0..config.shards)
            .map(|i| Shard {
                state: Mutex::new(ShardState {
                    queues: FairQueue::new(1),
                    tickets: HashMap::new(),
                    next_id: i as TicketId,
                    next_timeout: None,
                }),
                cache: ContextCache::new(config.cache_capacity),
                work_cv: Condvar::new(),
                client_cv: Condvar::new(),
                counters: Counters::default(),
                completed: AtomicU64::new(0),
                latencies_ms: Mutex::new(LatencyWindow::new(LATENCY_WINDOW)),
            })
            .collect();
        Self {
            monitor_tables: monitor_fingerprint(&model, &mbpp_tables),
            monitor_columns: monitor_fingerprint(&model, &mbpp_columns),
            model,
            mbpp_tables,
            mbpp_columns,
            metas: metas.into_iter().map(|m| (m.name.clone(), m)).collect(),
            config,
            shards,
            shutdown: AtomicBool::new(false),
            next_home: AtomicUsize::new(0),
        }
    }

    fn meta_of(&self, inst: &Instance) -> Option<&DbMeta> {
        self.metas.get(inst.db_name.as_str()).map(Arc::as_ref)
    }

    /// The shard `db` routes to — [`rts_core::context::db_shard`] over
    /// this engine's shard count.
    fn shard_of(&self, db: &str) -> usize {
        db_shard(db, self.shards.len())
    }

    /// The shard that issued ticket `id`. Never `None` on a
    /// constructed engine (ids are reduced modulo the shard count).
    fn ticket_shard(&self, id: TicketId) -> Option<&Shard> {
        self.shards
            .get((id % self.shards.len() as TicketId) as usize)
    }

    /// Ask workers to exit once the queues drain. In-queue tickets are
    /// still processed, and *parked* tickets are drained: nothing will
    /// answer their flags anymore, so workers resolve each one with
    /// the abstention verdict (`drained_to_abstention` in the stats)
    /// and run it to completion — every submitted ticket ends
    /// [`ClientEvent::Done`], memory gauges drain to zero, and a
    /// client still polling collects its outcome.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            // Take each shard's state lock once after the store: a
            // worker that saw `shutdown == false` under that lock is
            // then guaranteed to be inside `work_cv.wait` (which
            // released it), so the notify below always lands.
            // Notifying without this handshake could slot the store +
            // notify between a worker's check and its wait — a lost
            // wakeup that parks the worker forever.
            drop(shard.state.lock());
            shard.work_cv.notify_all();
        }
    }

    /// The worker body: spawn `config.workers` threads on this. Each
    /// takes the next home shard round-robin, serves it first, and
    /// steals ready work from the other shards when it is idle.
    /// Returns once [`ServeEngine::shutdown`] is called and no queued
    /// or parked work remains on any shard.
    pub fn worker_loop(&self) {
        let n = self.shards.len();
        let home = self.next_home.fetch_add(1, Ordering::Relaxed) % n;
        let mut scratch = LinkScratch::default();
        loop {
            // Read before the scan: once it is up, every shard's sweep
            // in the scan drains parked tickets, so an empty scan
            // means nothing is left anywhere.
            let down = self.shutdown.load(Ordering::SeqCst);
            let served = (0..n).any(|k| {
                self.shards
                    .get((home + k) % n)
                    .is_some_and(|shard| self.try_process_one(shard, &mut scratch))
            });
            if served {
                continue;
            }
            if down {
                return;
            }
            if let Some(shard) = self.shards.get(home) {
                self.wait_for_work(shard);
            }
        }
    }

    /// Non-blocking single dispatch on `shard`: run the timeout and
    /// shutdown sweeps, pop one ready ticket if there is one, and
    /// process it. Returns whether a ticket was processed.
    fn try_process_one(&self, shard: &Shard, scratch: &mut LinkScratch) -> bool {
        let id = {
            let mut st = shard.state.lock();
            shard.expire_lapsed_parks(&mut st);
            if self.shutdown.load(Ordering::SeqCst) {
                // Degrade-only shutdown: requeue parked tickets with
                // the abstention verdict so they complete before
                // workers exit.
                shard.drain_parked_for_shutdown(&mut st);
            }
            st.queues.pop()
        };
        let Some(id) = id else {
            return false;
        };
        self.process(shard, id, scratch);
        true
    }

    /// Park the calling worker on its home shard until work may be
    /// available. Returns at once when work is queued or shutdown was
    /// requested. The sleep is bounded by the next parked-feedback
    /// deadline — a stalled tenant must not park forever just because
    /// no new work arrives — and, with other shards to steal from, by
    /// [`STEAL_POLL`], since their condvars never reach this worker.
    fn wait_for_work(&self, shard: &Shard) {
        let mut st = shard.state.lock();
        if st.queues.queued_len() > 0 || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let park = st
            .next_timeout
            .map(|deadline| deadline.saturating_duration_since(Instant::now()));
        let steal = (self.shards.len() > 1).then_some(STEAL_POLL);
        match park.into_iter().chain(steal).min() {
            Some(bound) => {
                let _ = shard.work_cv.wait_for(&mut st, bound);
            }
            None => shard.work_cv.wait(&mut st),
        }
    }

    /// Run one ticket forward until it parks on feedback, finishes,
    /// sheds on its deadline, or degrades to abstention after an
    /// unrecoverable fault.
    fn process(&self, shard: &Shard, id: TicketId, scratch: &mut LinkScratch) {
        let mut st = shard.state.lock();
        let Some(ticket) = st.tickets.get_mut(&id) else {
            // A dispatched id with no ticket record is an accounting
            // bug; drop the dispatch, keep the worker.
            debug_assert!(false, "dispatched ticket exists");
            shard.counters.note_breach();
            return;
        };
        ticket.phase = Phase::Running;
        let inst = ticket.inst.clone();
        let tenant = ticket.tenant;
        let deadline = ticket.deadline;
        let mut stage = ticket.stage;
        let mut parked = mem::replace(&mut ticket.parked, Parked::Fresh);
        drop(st);
        let Some(meta) = self.meta_of(&inst) else {
            // `submit` rejects unknown databases, so this cannot happen
            // through the public API — but an engine bug must degrade
            // the one ticket, not panic the worker pool.
            shard.finalize(id, tenant, stage, None, false, true);
            return;
        };
        loop {
            // Abstention-as-backpressure: past the budget, the
            // remaining stages answer with the paper's own hand-off
            // verdict instead of dropping the request.
            if deadline.is_some_and(|d| Instant::now() > d) {
                if let Parked::Evicted { bytes, .. } = &parked {
                    // The shed ticket's checkpoint is never restored —
                    // return its bytes to the accounting or the gauge
                    // would read non-zero forever.
                    shard.counters.note_checkpoint_discarded(bytes.len());
                }
                shard.finalize(id, tenant, stage, None, true, false);
                return;
            }
            // What this dispatch restores the stage's session from
            // (`None`: it opens one).
            let recipe = match mem::replace(&mut parked, Parked::Fresh) {
                Parked::Fresh => None,
                Parked::Held(recipe) => Some(recipe),
                Parked::Evicted { bytes, mut recipe } => {
                    // The bytes leave the gauge either way — they are
                    // consumed here, restorable or not.
                    shard.counters.note_restored(bytes.len());
                    match self.decode_checkpoint(&bytes, &inst, stage) {
                        Some(cp) => recipe.checkpoint = cp,
                        // Corrupt checkpoint: the recipe kept in memory
                        // restores the same session bit-identically.
                        None => {
                            shard
                                .counters
                                .corrupt_checkpoints_recovered
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Some(recipe)
                }
            };
            // Step under `catch_unwind`: a panicking step (injected or
            // genuine) must cost at most this ticket, never the worker
            // pool. Every attempt opens or restores the session afresh
            // (over the one context this stage fetched), with exponential
            // backoff between attempts; past the budget the ticket
            // degrades to a `faulted` abstention.
            let ctx = shard.cache.get(meta, stage);
            let mut panics = 0usize;
            let attempt = loop {
                let mut s = self.session(&inst, meta, stage, &ctx, recipe.as_ref(), scratch);
                let inject = self.config.fault.trip(FaultSite::StepPanic);
                let stepped = catch_unwind(AssertUnwindSafe(|| {
                    if inject {
                        // rts-allow(panic): deterministic fault
                        // injection — this panic exists to exercise
                        // the catch_unwind recovery path right below.
                        std::panic::panic_any(InjectedPanic);
                    }
                    s.step(scratch)
                }));
                match stepped {
                    Ok(state) => break Some((state, s)),
                    Err(_) => {
                        shard
                            .counters
                            .panics_recovered
                            .fetch_add(1, Ordering::Relaxed);
                        panics += 1;
                        if panics > self.config.step_retry_budget {
                            break None;
                        }
                        // The unwound step may have left the scratch
                        // buffers mid-mutation; start clean.
                        *scratch = LinkScratch::default();
                        let backoff =
                            self.config.step_retry_backoff * (1u32 << (panics - 1).min(16));
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                    }
                }
            };
            let Some((state, s)) = attempt else {
                shard
                    .counters
                    .panics_to_abstention
                    .fetch_add(1, Ordering::Relaxed);
                shard.finalize(id, tenant, stage, None, false, true);
                return;
            };
            match state {
                SessionState::NeedsFeedback(_) if self.shutdown.load(Ordering::SeqCst) => {
                    // Shutting down: nothing will answer this flag.
                    // Resolve it to abstention right here instead of
                    // parking — parking after the drain sweep would
                    // strand the ticket forever.
                    parked = Parked::Held(Recipe {
                        checkpoint: s.checkpoint(),
                        resolution: Some(FlagResolution::Abstain { consulted: false }),
                    });
                    if let Some(ticket) = shard.state.lock().tickets.get_mut(&id) {
                        ticket.drained = true;
                    } else {
                        debug_assert!(false, "running ticket exists");
                        shard.counters.note_breach();
                    }
                    shard
                        .counters
                        .drained_to_abstention
                        .fetch_add(1, Ordering::Relaxed);
                }
                SessionState::NeedsFeedback(query) => {
                    // The session drops here; its checkpoint (a clone of
                    // its state and round sets, nothing encoded) is all
                    // the ticket keeps.
                    let recipe = Recipe {
                        checkpoint: s.checkpoint(),
                        resolution: None,
                    };
                    let billed = recipe.held_bytes();
                    let park_deadline = self.config.feedback_timeout.map(|t| Instant::now() + t);
                    let mut st = shard.state.lock();
                    if let Some(deadline) = park_deadline {
                        st.next_timeout = Some(match st.next_timeout {
                            Some(cur) => cur.min(deadline),
                            None => deadline,
                        });
                    }
                    let Some(ticket) = st.tickets.get_mut(&id) else {
                        // No ticket to park the recipe on: absorb the
                        // accounting bug and drop this request's state
                        // instead of poisoning the worker pool.
                        debug_assert!(false, "running ticket exists");
                        shard.counters.note_breach();
                        return;
                    };
                    ticket.parked = Parked::Held(recipe);
                    ticket.stage = stage;
                    ticket.park_deadline = park_deadline;
                    if let Some(sink) = &mut ticket.sink {
                        sink(ClientEvent::NeedsFeedback {
                            target: stage,
                            query: query.clone(),
                        });
                    }
                    ticket.phase = Phase::AwaitingFeedback(query);
                    st.queues.note_parked(tenant);
                    shard.counters.note_parked(billed);
                    shard.enforce_parked_budget(&mut st, self.config.parked_bytes_budget);
                    drop(st);
                    shard.client_cv.notify_all();
                    // A parked deadline may now be the earliest wake-up:
                    // make sure some idle worker re-arms its sleep.
                    if park_deadline.is_some() {
                        shard.work_cv.notify_one();
                    }
                    return;
                }
                SessionState::Done(outcome) => match stage {
                    LinkTarget::Tables => {
                        let mut st = shard.state.lock();
                        let Some(ticket) = st.tickets.get_mut(&id) else {
                            debug_assert!(false, "running ticket exists");
                            shard.counters.note_breach();
                            return;
                        };
                        ticket.tables = Some(outcome);
                        ticket.stage = LinkTarget::Columns;
                        // `parked` is `Fresh`, so the next iteration opens
                        // the chained columns session.
                        stage = LinkTarget::Columns;
                    }
                    LinkTarget::Columns => {
                        shard.finalize(id, tenant, stage, Some(outcome), false, false);
                        return;
                    }
                },
            }
        }
    }

    /// Decode an evicted session's checkpoint, or `None` when the
    /// bytes are corrupt (or an injected decode fault fires). A
    /// decoded checkpoint must belong to this (instance, stage), to
    /// the model's synthesis corpus and to this stage's monitor
    /// ([`monitor_fingerprint`]): its label sets stand in for scoring
    /// the round's hidden stacks, and another monitor's sets would
    /// raise other flags. On `None` the caller rebuilds from the
    /// recipe kept in memory.
    fn decode_checkpoint(
        &self,
        bytes: &[u8],
        inst: &Instance,
        stage: LinkTarget,
    ) -> Option<SessionCheckpoint> {
        if self.config.fault.trip(FaultSite::CheckpointDecode) {
            return None;
        }
        checkpoint::try_decode(bytes).ok().filter(|cp| {
            cp.matches(inst, stage)
                && cp.corpus == self.model.corpus()
                && cp.monitor
                    == match stage {
                        LinkTarget::Tables => self.monitor_tables,
                        LinkTarget::Columns => self.monitor_columns,
                    }
        })
    }

    /// The one session constructor of a dispatch, first attempt and
    /// panic retry alike: open `stage`'s session, or restore it from
    /// `recipe` (no synthesis: the checkpoint carries the parked round's
    /// label sets) and replay the resolution applied since.
    fn session<'a>(
        &'a self,
        inst: &'a Instance,
        meta: &'a DbMeta,
        stage: LinkTarget,
        ctx: &'a LinkContext,
        recipe: Option<&Recipe>,
        scratch: &mut LinkScratch,
    ) -> LinkSession<'a> {
        let mbpp = match stage {
            LinkTarget::Tables => &self.mbpp_tables,
            LinkTarget::Columns => &self.mbpp_columns,
        };
        let ctx = Some(CtxHandle::Borrowed(ctx));
        let config = &self.config.rts;
        let Some(recipe) = recipe else {
            return LinkSession::new(&self.model, mbpp, inst, meta, stage, ctx, None, config);
        };
        let mut session = LinkSession::restore(
            &self.model,
            mbpp,
            inst,
            meta,
            stage,
            ctx,
            config,
            &recipe.checkpoint,
            &mut scratch.synth,
        );
        if let Some(res) = &recipe.resolution {
            session.resolve(res.clone());
        }
        session
    }

    /// Counter snapshot over every shard: counters and gauges sum,
    /// peaks and depth statistics take the per-shard maximum (the
    /// parked-session peak sums, an upper bound), and the latency
    /// percentiles are computed once over the union of every shard's
    /// sample window. `tenants_seen` and `tenant_in_flight_peak` are
    /// per-shard maxima (shard-local admission does not track a
    /// tenant's cross-shard occupancy).
    pub fn stats(&self) -> ServingStats {
        let mut stats = ServingStats::default();
        let mut samples = Vec::new();
        for shard in &self.shards {
            // Copy the samples out under the lock; sort outside it so
            // workers finalizing requests are never stalled behind a
            // percentile computation.
            samples.extend_from_slice(shard.latencies_ms.lock().samples());
            stats.absorb(shard.stats());
        }
        stats.latency = LatencySummary::from_samples(&samples);
        stats
    }

    /// One shard's counter snapshot, its percentiles over that shard's
    /// own window. `None` past the shard count.
    pub fn shard_stats(&self, idx: usize) -> Option<ServingStats> {
        let shard = self.shards.get(idx)?;
        let samples = shard.latencies_ms.lock().samples().to_vec();
        let mut stats = shard.stats();
        stats.latency = LatencySummary::from_samples(&samples);
        Some(stats)
    }

    /// The engine's configuration (`shards` normalized to at least 1).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// [`Engine::wait_event`] without a thread per ticket: push ticket
    /// `id`'s events into `sink`. It gets the current state at once (a
    /// parked ticket's query, a finished one's `Done`, which retires
    /// it, or `Retired` for an unknown id), then a `NeedsFeedback` at
    /// every later park and one `Done`, after which the ticket is gone.
    ///
    /// The sink runs under the shard's `state` lock, on whichever
    /// thread moves the ticket, so its events stay in order even when
    /// a timeout or the shutdown drain requeues it. Lock order: shard
    /// `state` → what the sink locks (`rts-served`: the session's
    /// `conn_state`). So the sink takes only leaf locks and never calls
    /// the engine, and no caller calls the engine holding such a lock.
    pub fn watch(&self, id: TicketId, mut sink: impl FnMut(ClientEvent) + Send + 'static) {
        let Some(shard) = self.ticket_shard(id) else {
            return sink(ClientEvent::Retired);
        };
        let mut st = shard.state.lock();
        if let Some(event) = st.current_event(id) {
            sink(event);
        }
        // After a `Done` or `Retired` no ticket is left to keep it.
        if let Some(ticket) = st.tickets.get_mut(&id) {
            ticket.sink = Some(Box::new(sink));
        }
    }
}

impl Engine for ServeEngine {
    /// Admit a request by `tenant` on its database's shard (`inst` is
    /// cloned into the ticket — the engine owns everything a parked
    /// session may need past the caller's scope). Per-tenant quotas
    /// are checked before the queue bound, so an over-quota tenant
    /// sees its own error, not everyone's. Both describe the owning
    /// shard, not engine-wide occupancy.
    fn submit(&self, tenant: TenantId, inst: &Instance) -> Result<TicketId, SubmitError> {
        // Fail fast on unknown databases, before any queue state
        // changes — a typed rejection, never a worker panic later.
        // Routing is modulo the shard count, so the shard lookup
        // cannot miss on a constructed engine.
        let shard = self
            .meta_of(inst)
            .and_then(|_| self.shards.get(self.shard_of(&inst.db_name)));
        let Some(shard) = shard else {
            return Err(SubmitError::UnknownDatabase {
                database: inst.db_name.clone(),
            });
        };
        let now = Instant::now();
        let mut st = shard.state.lock();
        let quota = self.config.quota;
        let load = st.queues.load(tenant);
        if quota.max_in_flight > 0 && load.in_flight >= quota.max_in_flight {
            shard
                .counters
                .rejected_quota
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QuotaExceeded {
                tenant,
                limit: quota.max_in_flight,
            });
        }
        if quota.max_parked > 0 && load.parked >= quota.max_parked {
            shard
                .counters
                .rejected_quota
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QuotaExceeded {
                tenant,
                limit: quota.max_parked,
            });
        }
        if self.config.queue_capacity > 0 && st.queues.n_admission() >= self.config.queue_capacity {
            shard.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let id = st.next_id;
        st.next_id += self.shards.len() as TicketId;
        st.tickets.insert(
            id,
            Ticket {
                tenant,
                inst: Arc::new(inst.clone()),
                submitted: now,
                deadline: self.config.deadline.map(|d| now + d),
                park_deadline: None,
                stage: LinkTarget::Tables,
                parked: Parked::Fresh,
                tables: None,
                n_feedback: 0,
                timed_out: false,
                drained: false,
                phase: Phase::Queued,
                sink: None,
            },
        );
        st.queues.push_admission(tenant, id);
        st.queues.note_admitted(tenant);
        shard.counters.note_depth(st.queues.queued_len());
        drop(st);
        shard.work_cv.notify_one();
        Ok(id)
    }

    fn wait_event(&self, id: TicketId) -> ClientEvent {
        let Some(shard) = self.ticket_shard(id) else {
            return ClientEvent::Retired;
        };
        let mut st = shard.state.lock();
        loop {
            if let Some(event) = st.current_event(id) {
                return event;
            }
            shard.client_cv.wait(&mut st);
        }
    }

    /// Apply feedback to a suspended ticket and re-queue it. Resumed
    /// work bypasses admission bounds — it was already admitted.
    ///
    /// `Err(ResolveError::Stale)` means the resolution lost a race:
    /// the flag was already answered (a feedback timeout, a duplicate
    /// resolve) or — with a chained stage in between — the ticket is
    /// now suspended on a *different* flag than the one the client
    /// saw. `Err(ResolveError::Retired)` means the ticket is gone.
    /// Either way the answer is dropped, never misapplied — and a
    /// protocol race is a typed error, never a panic.
    fn resolve(
        &self,
        id: TicketId,
        query: &FlagQuery,
        resolution: FlagResolution,
    ) -> Result<(), ResolveError> {
        let Some(shard) = self.ticket_shard(id) else {
            return Err(ResolveError::Retired);
        };
        if self.config.fault.trip(FaultSite::FeedbackDelay) {
            // A slow network between client and engine: the resolution
            // arrives late, exercising the stale-answer races (taken
            // before the state lock — a delay must not stall workers).
            shard
                .counters
                .feedback_delayed
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.fault.feedback_delay);
        }
        if self.config.feedback_timeout.is_some() && self.config.fault.trip(FaultSite::FeedbackLoss)
        {
            // Lost in flight *after* the client sent it — from the
            // client's view the resolve succeeded; the park timeout
            // completes the request as an abstention hand-off. Only
            // injected when a timeout exists to rescue the park.
            shard.counters.feedback_lost.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let mut st = shard.state.lock();
        let Some(ticket) = st.tickets.get_mut(&id) else {
            return Err(ResolveError::Retired);
        };
        match &ticket.phase {
            Phase::AwaitingFeedback(current) if current == query => {}
            _ => return Err(ResolveError::Stale),
        }
        ticket.n_feedback += 1;
        shard.unpark(&mut st, id, resolution);
        shard
            .counters
            .feedback_rounds
            .fetch_add(1, Ordering::Relaxed);
        drop(st);
        shard.work_cv.notify_one();
        Ok(())
    }

    fn stats(&self) -> ServingStats {
        ServeEngine::stats(self)
    }

    /// Signal schema drift for `db`: drop its cached `LinkContext`s on
    /// its shard (the only one that ever builds them) so *new*
    /// sessions rebuild against the current metadata. A running
    /// dispatch finishes on the `Arc<LinkContext>` it fetched —
    /// invalidation never changes what a running session holds.
    fn invalidate_db(&self, db: &str) -> usize {
        let Some(shard) = self.shards.get(self.shard_of(db)) else {
            return 0;
        };
        shard
            .counters
            .db_invalidations
            .fetch_add(1, Ordering::Relaxed);
        shard.cache.invalidate_db(db)
    }

    /// Override a tenant's fair-share weight (default 1) on every
    /// shard — a tenant's databases may hash anywhere. A tenant with
    /// weight `w` is dispatched `w` admissions per scheduling cycle.
    fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        for shard in &self.shards {
            shard.state.lock().queues.set_weight(tenant, weight);
        }
    }

    fn shutdown(&self) {
        ServeEngine::shutdown(self)
    }
}

impl ShardState {
    /// What a client of ticket `id` sees now: its query while parked,
    /// its outcome once finished (which retires it), `Retired` for no
    /// such ticket, and `None` while it is queued or running.
    fn current_event(&mut self, id: TicketId) -> Option<ClientEvent> {
        let Some(ticket) = self.tickets.get(&id) else {
            return Some(ClientEvent::Retired);
        };
        match &ticket.phase {
            Phase::Queued | Phase::Running => None,
            Phase::AwaitingFeedback(query) => Some(ClientEvent::NeedsFeedback {
                target: ticket.stage,
                query: query.clone(),
            }),
            Phase::Done(_) => Some(match self.tickets.remove(&id).map(|t| t.phase) {
                Some(Phase::Done(outcome)) => ClientEvent::Done(outcome),
                // Unreachable under this lock; a client API degrades.
                _ => ClientEvent::Retired,
            }),
        }
    }
}

impl Shard {
    /// The one unpark protocol, shared by client resolutions,
    /// feedback-timeout expiry and the shutdown drain: release the
    /// parked billing, record the resolution in the ticket's recipe for
    /// the worker to replay, and re-queue the ticket on its tenant's
    /// resume lane.
    /// Callers bill their own counters around it.
    fn unpark(&self, st: &mut ShardState, id: TicketId, resolution: FlagResolution) {
        let Some(ticket) = st.tickets.get_mut(&id) else {
            // Unparking an id with no ticket is an accounting bug;
            // absorb it (nothing to resume) rather than panic a worker
            // or a client thread.
            debug_assert!(false, "unparked ticket exists");
            self.counters.note_breach();
            return;
        };
        ticket.park_deadline = None;
        // The worker restores the session from the recipe and replays
        // this resolution before stepping.
        let billed = match &mut ticket.parked {
            Parked::Held(recipe) => {
                let billed = recipe.held_bytes();
                recipe.resolution = Some(resolution);
                billed
            }
            Parked::Evicted { recipe, .. } => {
                recipe.resolution = Some(resolution);
                0
            }
            Parked::Fresh => {
                debug_assert!(false, "a parked ticket holds its recipe");
                self.counters.note_breach();
                0
            }
        };
        self.counters.note_unparked(billed);
        ticket.phase = Phase::Queued;
        let tenant = ticket.tenant;
        st.queues.push_resume(tenant, id);
        st.queues.note_unparked(tenant);
    }

    /// Resolve every parked ticket whose feedback deadline lapsed with
    /// the abstention verdict and re-queue it. Called by workers on
    /// every dispatch, so timeouts fire as soon as a worker is free to
    /// act on them. O(1) while nothing can have lapsed (the cached
    /// `next_timeout` bound); the full ticket scan runs only when a
    /// deadline actually passed, and re-tightens the bound.
    fn expire_lapsed_parks(&self, st: &mut ShardState) {
        let now = Instant::now();
        match st.next_timeout {
            None => return,
            Some(bound) if now < bound => return,
            Some(_) => {}
        }
        let lapsed: Vec<TicketId> = st
            .tickets
            .iter()
            .filter(|(_, t)| {
                matches!(t.phase, Phase::AwaitingFeedback(_))
                    && t.park_deadline.is_some_and(|d| now >= d)
            })
            .map(|(&id, _)| id)
            .collect();
        st.next_timeout = st
            .tickets
            .values()
            .filter(|t| matches!(t.phase, Phase::AwaitingFeedback(_)))
            .filter_map(|t| t.park_deadline)
            .filter(|&d| d > now)
            .min();
        for id in lapsed {
            // Collected from the same map under the same lock, so the
            // entry must still be there; degrade if it is not.
            let Some(ticket) = st.tickets.get_mut(&id) else {
                debug_assert!(false, "lapsed ticket exists");
                self.counters.note_breach();
                continue;
            };
            ticket.timed_out = true;
            // The timeout is billed as an unconsulted abstention: no
            // human was reached, the stage degrades to the hand-off
            // verdict (never drop).
            self.unpark(st, id, FlagResolution::Abstain { consulted: false });
            self.counters.timed_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shutdown drain: resolve every parked ticket with the abstention
    /// verdict and re-queue it so the pool runs it to completion before
    /// exiting. Workers call this on every dispatch once the shutdown
    /// flag is up; `process` stops parking new flags at the same point,
    /// so no ticket can strand between the last sweep and worker exit.
    fn drain_parked_for_shutdown(&self, st: &mut ShardState) {
        let parked: Vec<TicketId> = st
            .tickets
            .iter()
            .filter(|(_, t)| matches!(t.phase, Phase::AwaitingFeedback(_)))
            .map(|(&id, _)| id)
            .collect();
        for id in parked {
            let Some(ticket) = st.tickets.get_mut(&id) else {
                debug_assert!(false, "parked ticket exists");
                self.counters.note_breach();
                continue;
            };
            ticket.drained = true;
            self.unpark(st, id, FlagResolution::Abstain { consulted: false });
            self.counters
                .drained_to_abstention
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evict parked recipes into checkpoint bytes until the parked-bytes
    /// `budget` (`0` = none) holds. The victim is the largest billed
    /// recipe, and among equally billed ones the lowest [`TicketId`]
    /// (the oldest), so the choice does not depend on the ticket map's
    /// iteration order. Encoding is cheap — the checkpoint is the
    /// session's state and its round's label sets, a few hundred bytes
    /// — so running under the state lock is fine.
    fn enforce_parked_budget(&self, st: &mut ShardState, budget: usize) {
        if budget == 0 {
            return;
        }
        while self.counters.parked_bytes.load(Ordering::Relaxed) > budget {
            let victim = st
                .tickets
                .iter_mut()
                .filter(|(_, t)| matches!(t.phase, Phase::AwaitingFeedback(_)))
                .filter_map(|(&id, t)| match &t.parked {
                    Parked::Held(recipe) => Some((recipe.held_bytes(), Reverse(id), t)),
                    _ => None,
                })
                .max_by_key(|&(billed, id, _)| (billed, id));
            let Some((billed, _, ticket)) = victim else {
                break;
            };
            let Parked::Held(recipe) = mem::replace(&mut ticket.parked, Parked::Fresh) else {
                // Selected as `Held` under this lock just above.
                debug_assert!(false, "victim holds its recipe");
                self.counters.note_breach();
                break;
            };
            let bytes = checkpoint::encode(&recipe.checkpoint);
            self.counters.note_checkpointed(billed, bytes.len());
            ticket.parked = Parked::Evicted { bytes, recipe };
        }
    }

    /// The abstention every shed stage degrades to.
    fn shed_outcome() -> RtsOutcome {
        RtsOutcome {
            abstained: true,
            predicted: Vec::new(),
            correct: false,
            would_be_correct: false,
            n_interventions: 0,
            n_flags: 0,
        }
    }

    /// Retire a ticket: `columns` is the finished column outcome, or
    /// `None` when shedding (or an unrecoverable fault, `faulted`) cut
    /// the run short at `stage`.
    fn finalize(
        &self,
        id: TicketId,
        tenant: TenantId,
        stage: LinkTarget,
        columns: Option<RtsOutcome>,
        shed: bool,
        faulted: bool,
    ) {
        let mut st = self.state.lock();
        let Some(ticket) = st.tickets.get_mut(&id) else {
            // Finalizing an id with no ticket record: nothing to
            // retire. Absorb the accounting bug instead of panicking
            // with the state lock held.
            debug_assert!(false, "finalized ticket exists");
            self.counters.note_breach();
            return;
        };
        let tables = match ticket.tables.take() {
            Some(t) => t,
            None => {
                debug_assert!((shed || faulted) && stage == LinkTarget::Tables);
                Self::shed_outcome()
            }
        };
        let columns = columns.unwrap_or_else(Self::shed_outcome);
        let outcome = ServeOutcome {
            outcome: JointOutcome { tables, columns },
            shed,
            timed_out: ticket.timed_out,
            faulted,
            drained: ticket.drained,
            latency: ticket.submitted.elapsed(),
            n_feedback: ticket.n_feedback,
        };
        self.latencies_ms
            .lock()
            .push(outcome.latency.as_secs_f64() * 1e3);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if shed {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
        }
        match ticket.sink.take() {
            // A watched ticket is collected by its sink at once.
            Some(mut sink) => {
                st.tickets.remove(&id);
                sink(ClientEvent::Done(outcome));
            }
            None => ticket.phase = Phase::Done(outcome),
        }
        st.queues.note_done(tenant);
        drop(st);
        self.client_cv.notify_all();
    }

    /// This shard's counter snapshot, latency left zero (the engine
    /// computes percentiles over the windows it merges).
    fn stats(&self) -> ServingStats {
        let (tenants_seen, tenant_in_flight_peak) = {
            let st = self.state.lock();
            (st.queues.n_tenants(), st.queues.max_in_flight_peak())
        };
        let c = &self.counters;
        ServingStats {
            completed: self.completed.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            rejected_quota: c.rejected_quota.load(Ordering::Relaxed),
            feedback_rounds: c.feedback_rounds.load(Ordering::Relaxed),
            timed_out_to_abstention: c.timed_out.load(Ordering::Relaxed),
            latency: LatencySummary::default(),
            queue_depth_max: c.depth_max.load(Ordering::Relaxed),
            queue_depth_mean: c.depth_mean(),
            cache: self.cache.stats(),
            parked_bytes_peak: c.parked_bytes_peak.load(Ordering::Relaxed),
            parked_sessions_peak: c.parked_sessions_peak.load(Ordering::Relaxed),
            parked_bytes_now: c.parked_bytes.load(Ordering::Relaxed),
            parked_sessions_now: c.parked_sessions.load(Ordering::Relaxed),
            checkpoints: c.checkpoints.load(Ordering::Relaxed),
            restores: c.restores.load(Ordering::Relaxed),
            checkpoint_bytes_peak: c.checkpoint_bytes_peak.load(Ordering::Relaxed),
            checkpoint_bytes_now: c.checkpoint_bytes.load(Ordering::Relaxed),
            tenants_seen,
            tenant_in_flight_peak,
            panics_recovered: c.panics_recovered.load(Ordering::Relaxed),
            panics_to_abstention: c.panics_to_abstention.load(Ordering::Relaxed),
            corrupt_checkpoints_recovered: c.corrupt_checkpoints_recovered.load(Ordering::Relaxed),
            feedback_lost: c.feedback_lost.load(Ordering::Relaxed),
            feedback_delayed: c.feedback_delayed.load(Ordering::Relaxed),
            drained_to_abstention: c.drained_to_abstention.load(Ordering::Relaxed),
            db_invalidations: c.db_invalidations.load(Ordering::Relaxed),
            invariant_breaches: c.invariant_breaches.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_core::abstention::MitigationPolicy;
    use rts_core::bpp::{MbppConfig, ProbeConfig};
    use rts_core::branching::BranchDataset;
    use rts_core::human::{Expertise, HumanOracle};
    use rts_core::session::resolve_flag;

    struct Fx {
        bench: benchgen::Benchmark,
        model: SchemaLinker,
        mbpp_t: Mbpp,
        mbpp_c: Mbpp,
    }

    fn fixture() -> Fx {
        let bench = benchgen::BenchmarkProfile::bird_like()
            .scaled(0.04)
            .generate(77);
        let model = SchemaLinker::new("bird", 5);
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 300);
        let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 300);
        let mbpp_t = Mbpp::train(&ds_t, &cfg);
        let mbpp_c = Mbpp::train(&ds_c, &cfg);
        Fx {
            bench,
            model,
            mbpp_t,
            mbpp_c,
        }
    }

    /// Closed-loop client: the shared [`crate::drive_closed_loop`]
    /// driver with the oracle as the (never-stalling) feedback
    /// provider. A `Stale` resolve is a legal race (timeout or
    /// injected loss beat the answer) and is absorbed by the driver.
    fn client_run(
        engine: &ServeEngine,
        tenant: TenantId,
        instances: &[benchgen::Instance],
        oracle: &HumanOracle,
    ) -> Vec<(u64, ServeOutcome)> {
        let policy = MitigationPolicy::Human(oracle);
        crate::drive_closed_loop(engine, tenant, instances, |inst, query| {
            Some(resolve_flag(&policy, inst, query))
        })
    }

    fn assert_batch_parity(
        fx: &Fx,
        engine: &ServeEngine,
        oracle: &HumanOracle,
        instances: &[benchgen::Instance],
        all: &[(u64, ServeOutcome)],
    ) {
        let contexts = rts_core::context::LinkContexts::build(&fx.bench);
        let policy = MitigationPolicy::Human(oracle);
        let mut scratch = LinkScratch::default();
        for (id, served) in all {
            let Some(inst) = instances.iter().find(|i| i.id == *id) else {
                panic!("served outcome for instance {id} not in the submitted slice");
            };
            let batch = rts_core::pipeline::run_joint_linking_in(
                &fx.model,
                &fx.mbpp_t,
                &fx.mbpp_c,
                inst,
                &fx.bench,
                &contexts,
                &policy,
                &engine.config().rts,
                &mut scratch,
            );
            assert_eq!(
                format!("{:?}", served.outcome),
                format!("{batch:?}"),
                "instance {id}"
            );
            assert!(!served.shed);
            assert!(!served.timed_out);
            assert!(!served.faulted);
            assert!(!served.drained);
        }
    }

    #[test]
    fn engine_serves_concurrent_tenants_with_feedback() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(40).cloned().collect();
        let config = ServeConfig {
            workers: 3,
            queue_capacity: 4,
            cache_capacity: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let n_clients = 4;
        let chunks: Vec<&[benchgen::Instance]> = instances.chunks(10).collect();
        let results: Vec<Vec<(u64, ServeOutcome)>> = crossbeam::thread::scope(|s| {
            for _ in 0..engine.config().workers {
                s.spawn(|_| engine.worker_loop());
            }
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let engine = &engine;
                    let chunk = chunks[c];
                    let oracle = &oracle;
                    // Each client is its own tenant: the fair queue and
                    // per-tenant accounting are on the hot path.
                    s.spawn(move |_| client_run(engine, c as TenantId, chunk, oracle))
                })
                .collect();
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect();
            engine.shutdown();
            results
        })
        .expect("serve scope panicked");

        let all: Vec<(u64, ServeOutcome)> = results.into_iter().flatten().collect();
        assert_eq!(all.len(), instances.len());
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert_eq!(stats.shed, 0, "no deadline configured");
        assert_eq!(stats.timed_out_to_abstention, 0, "no timeout configured");
        assert!(
            stats.feedback_rounds > 0,
            "a human workload must consult at least once"
        );
        assert!(stats.cache.hits > 0, "contexts must be reused");
        assert_eq!(stats.tenants_seen, n_clients);
        assert!(
            stats.tenant_in_flight_peak <= 1,
            "closed-loop clients keep one request in flight"
        );
        assert_eq!(stats.parked_bytes_now, 0, "drained engine parks nothing");
        assert_eq!(stats.parked_sessions_now, 0);
        // Engine outcomes ≡ the batch runtime, instance by instance.
        assert_batch_parity(&fx, &engine, &oracle, &instances, &all);
    }

    /// The context cache's hit floor as a logic check: with room for
    /// every database, each (database, target) context is built at most
    /// once, and a second pass over the same requests builds none.
    #[test]
    fn roomy_cache_builds_each_context_once() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(30).cloned().collect();
        let databases: std::collections::HashSet<&str> =
            instances.iter().map(|i| i.db_name.as_str()).collect();
        let config = ServeConfig {
            workers: 1,
            cache_capacity: databases.len(),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let (first, second) = crossbeam::thread::scope(|s| {
            s.spawn(|_| engine.worker_loop());
            client_run(&engine, 0, &instances, &oracle);
            let first = engine.stats().cache;
            client_run(&engine, 0, &instances, &oracle);
            let second = engine.stats().cache;
            engine.shutdown();
            (first, second)
        })
        .expect("serve scope panicked");
        assert!(first.misses > 0);
        assert!(
            first.misses <= 2 * databases.len() as u64,
            "{} builds for {} databases × 2 targets",
            first.misses,
            databases.len()
        );
        assert_eq!(first.evictions, 0);
        assert_eq!(second.misses, first.misses, "a warm pass builds nothing");
        assert!(second.hits >= first.hits + instances.len() as u64);
    }

    #[test]
    fn checkpointed_parked_sessions_restore_bit_identically() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            // A 1-byte budget forces *every* parked session through the
            // checkpoint → restore path.
            parked_bytes_budget: 1,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let outcomes = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let out = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len());
        let stats = engine.stats();
        assert!(
            stats.checkpoints > 0 && stats.restores == stats.checkpoints,
            "every park must checkpoint and restore (cp {}, restored {})",
            stats.checkpoints,
            stats.restores
        );
        assert_eq!(stats.checkpoint_bytes_now, 0, "all checkpoints consumed");
        assert_eq!(stats.parked_bytes_now, 0, "all live parked state released");
        // Checkpointing must never change answers — only where the
        // parked state lives.
        assert_batch_parity(&fx, &engine, &oracle, &instances, &outcomes);
    }

    #[test]
    fn feedback_timeout_degrades_to_abstention_not_drop() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            feedback_timeout: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        // A client that NEVER answers: it just waits for completion.
        let outcomes: Vec<(u64, ServeOutcome)> = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let mut out = Vec::new();
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { .. } => {
                            // Stall: let the engine time the flag out.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        ClientEvent::Done(done) => {
                            out.push((inst.id, done));
                            break;
                        }
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before its outcome was collected")
                        }
                    }
                }
            }
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len(), "timeouts never drop");
        let stats = engine.stats();
        assert!(
            stats.timed_out_to_abstention > 0,
            "a stalled client must hit the feedback timeout"
        );
        let mut timed_out_seen = false;
        for (id, o) in &outcomes {
            if o.timed_out {
                timed_out_seen = true;
                assert!(
                    o.outcome.abstained(),
                    "timed-out request must abstain (instance {id})"
                );
                assert_eq!(o.n_feedback, 0, "the stalled client never answered");
            }
        }
        assert!(timed_out_seen);
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
    }

    #[test]
    fn zero_deadline_sheds_to_abstention_not_drops() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(8).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let outcomes = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let out = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len(), "shedding never drops");
        for (_, o) in &outcomes {
            assert!(o.shed);
            assert!(o.outcome.abstained(), "shed degrades to abstention");
        }
        let stats = engine.stats();
        assert_eq!(stats.shed, instances.len() as u64);
        assert_eq!(
            stats.cache.misses, 0,
            "an instantly-shed request never builds a context"
        );
    }

    #[test]
    fn evicted_session_shed_past_deadline_discards_its_checkpoint() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let policy = MitigationPolicy::Human(&oracle);
        let deadline = Duration::from_millis(20);
        let config = ServeConfig {
            workers: 1,
            deadline: Some(deadline),
            // Every park is evicted to checkpoint bytes at once.
            parked_bytes_budget: 1,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let mut parked = 0u32;
        crossbeam::thread::scope(|s| {
            s.spawn(|_| engine.worker_loop());
            for inst in fx.bench.split.dev.iter().take(8) {
                let ticket = engine.submit(0, inst).expect("queue has room");
                let ClientEvent::NeedsFeedback { query, .. } = engine.wait_event(ticket) else {
                    continue;
                };
                // Answer only after the deadline: the resumed ticket is
                // shed before its checkpoint is ever restored.
                std::thread::sleep(deadline + Duration::from_millis(10));
                engine
                    .resolve(ticket, &query, resolve_flag(&policy, inst, &query))
                    .expect("no timeout configured: the flag is still live");
                let ClientEvent::Done(done) = engine.wait_event(ticket) else {
                    panic!("a resolved ticket must complete");
                };
                assert!(done.shed, "resumed past its deadline");
                assert!(done.outcome.abstained(), "shed degrades to abstention");
                parked += 1;
            }
            engine.shutdown();
        })
        .expect("serve scope panicked");
        assert!(parked > 0, "workload must park at least once");
        let stats = engine.stats();
        assert!(stats.checkpoints >= 1, "1-byte budget evicts every park");
        assert_eq!(stats.restores, 0, "a shed checkpoint is discarded");
        assert_eq!(
            stats.checkpoint_bytes_now, 0,
            "discarded bytes leave the gauge"
        );
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
    }

    /// Two equally billed parked sessions and room for one: the budget
    /// evicts the lower ticket id, whatever the ticket map's order.
    #[test]
    fn equally_billed_parks_evict_the_lowest_ticket_id() {
        let fx = fixture();
        let config = ServeConfig::default();
        let mut scratch = LinkScratch::default();
        // An instance whose tables stage parks, and what its park bills.
        let (inst, billed) = fx
            .bench
            .split
            .dev
            .iter()
            .find_map(|inst| {
                let meta = fx.bench.meta(&inst.db_name).unwrap();
                let mut session = LinkSession::new(
                    &fx.model,
                    &fx.mbpp_t,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    None,
                    None,
                    &config.rts,
                );
                match session.step(&mut scratch) {
                    SessionState::NeedsFeedback(_) => Some((inst, session.held_bytes())),
                    SessionState::Done(_) => None,
                }
            })
            .expect("some instance parks at this scale");
        let config = ServeConfig {
            workers: 1,
            parked_bytes_budget: billed,
            ..config
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        crossbeam::thread::scope(|s| {
            s.spawn(|_| engine.worker_loop());
            let mut ids = [0; 2];
            for id in &mut ids {
                *id = engine.submit(0, inst).expect("queue has room");
                let event = engine.wait_event(*id);
                assert!(matches!(event, ClientEvent::NeedsFeedback { .. }));
            }
            assert!(ids[0] < ids[1]);
            let evicted = |id: TicketId| {
                let shard = engine.ticket_shard(id).expect("a live ticket");
                let st = shard.state.lock();
                matches!(
                    st.tickets.get(&id).map(|t| &t.parked),
                    Some(Parked::Evicted { .. })
                )
            };
            assert!(evicted(ids[0]), "the lower id is evicted");
            assert!(!evicted(ids[1]), "the higher id stays live");
            assert_eq!(
                engine.stats().checkpoints,
                1,
                "one eviction restores the budget"
            );
            engine.shutdown();
        })
        .expect("serve scope panicked");
    }

    #[test]
    fn bounded_admission_rejects_when_full() {
        let fx = fixture();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        // No workers running: the queue only fills.
        let a = engine.submit(0, &fx.bench.split.dev[0]);
        let b = engine.submit(1, &fx.bench.split.dev[1]);
        let c = engine.submit(2, &fx.bench.split.dev[2]);
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(c, Err(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(engine.stats().rejected, 1);
        assert_eq!(engine.stats().queue_depth_max, 2);
    }

    #[test]
    fn tenant_quota_rejects_only_the_offender() {
        let fx = fixture();
        let config = ServeConfig {
            workers: 1,
            queue_capacity: 0,
            quota: TenantQuota {
                max_in_flight: 2,
                max_parked: 0,
            },
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        // No workers: everything stays in flight. Tenant 0 fills its
        // quota; tenant 1 is untouched by tenant 0's backlog.
        assert!(engine.submit(0, &fx.bench.split.dev[0]).is_ok());
        assert!(engine.submit(0, &fx.bench.split.dev[1]).is_ok());
        assert_eq!(
            engine.submit(0, &fx.bench.split.dev[2]),
            Err(SubmitError::QuotaExceeded {
                tenant: 0,
                limit: 2
            })
        );
        assert!(engine.submit(1, &fx.bench.split.dev[3]).is_ok());
        let stats = engine.stats();
        assert_eq!(stats.rejected_quota, 1);
        assert_eq!(stats.rejected, 0, "quota rejections are billed apart");
        assert_eq!(stats.tenants_seen, 2);
        assert_eq!(stats.tenant_in_flight_peak, 2);
    }

    /// A query that cannot match any real park: no instance has id
    /// `u64::MAX`.
    fn bogus_query() -> FlagQuery {
        FlagQuery {
            instance: u64::MAX,
            is_table: true,
            round: 0,
            branch_pos: 0,
            element_idx: 0,
            gold_element: String::new(),
            implicated: Vec::new(),
            predicted: Vec::new(),
        }
    }

    #[test]
    fn unknown_database_is_a_typed_submit_error() {
        let fx = fixture();
        let mut foreign = fx.bench.split.dev[0].clone();
        foreign.db_name = "no_such_database".to_string();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig::default(),
        );
        // Used to be a worker panic at dispatch; now a typed rejection
        // at the edge, before any queue state changes.
        assert_eq!(
            engine.submit(0, &foreign),
            Err(SubmitError::UnknownDatabase {
                database: "no_such_database".to_string()
            })
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected, 0, "not billed as queue backpressure");
        assert_eq!(stats.tenants_seen, 0, "rejected before tenant accounting");
    }

    #[test]
    fn dead_and_mismatched_tickets_get_typed_errors_not_panics() {
        let fx = fixture();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig::default(),
        );
        // Never-issued ticket: polling and answering are both typed.
        assert!(matches!(engine.wait_event(999), ClientEvent::Retired));
        assert_eq!(
            engine.resolve(999, &bogus_query(), FlagResolution::Continue),
            Err(ResolveError::Retired)
        );
        // A live ticket that is *not* awaiting feedback (no workers are
        // running, so it sits queued): an answer is stale, not a panic.
        let ticket = engine.submit(0, &fx.bench.split.dev[0]).expect("room");
        assert_eq!(
            engine.resolve(ticket, &bogus_query(), FlagResolution::Continue),
            Err(ResolveError::Stale)
        );
    }

    #[test]
    fn double_resolve_and_resolve_after_collection_are_typed() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let policy = MitigationPolicy::Human(&oracle);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let mut double_resolves = 0u32;
        crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { query, .. } => {
                            engine
                                .resolve(ticket, &query, resolve_flag(&policy, inst, &query))
                                .expect("first answer to a live flag lands");
                            // The duplicate answer races the worker, but
                            // whatever it observes — re-queued, running,
                            // parked on the *next* flag, or done — the
                            // settled flag is gone, so it must be Stale.
                            assert_eq!(
                                engine.resolve(
                                    ticket,
                                    &query,
                                    FlagResolution::Abstain { consulted: false }
                                ),
                                Err(ResolveError::Stale),
                                "a settled flag must not be answerable twice"
                            );
                            double_resolves += 1;
                        }
                        ClientEvent::Done(_) => break,
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before collection")
                        }
                    }
                }
                // Collected: the ticket no longer exists.
                assert!(matches!(engine.wait_event(ticket), ClientEvent::Retired));
                assert_eq!(
                    engine.resolve(ticket, &bogus_query(), FlagResolution::Continue),
                    Err(ResolveError::Retired)
                );
            }
            engine.shutdown();
        })
        .expect("serve scope panicked");
        assert!(
            double_resolves > 0,
            "workload must exercise the double-resolve race"
        );
    }

    #[test]
    fn resolve_after_timeout_is_stale_then_retired() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            feedback_timeout: Some(Duration::from_millis(2)),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let mut late_answers = 0u32;
        crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            for inst in &instances {
                let ticket = engine.submit(0, inst).expect("queue has room");
                let mut first_flag: Option<FlagQuery> = None;
                loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::NeedsFeedback { query, .. } => {
                            if first_flag.is_none() {
                                // Stall far past the timeout, then answer
                                // anyway. The engine has already resolved
                                // the flag to abstention without us, so
                                // the late answer is stale — never a
                                // panic, never a double-application.
                                std::thread::sleep(Duration::from_millis(50));
                                assert_eq!(
                                    engine.resolve(ticket, &query, FlagResolution::Continue),
                                    Err(ResolveError::Stale)
                                );
                                late_answers += 1;
                                first_flag = Some(query);
                            } else {
                                // Later flags just lapse on their own.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        ClientEvent::Done(done) => {
                            assert_eq!(done.n_feedback, 0, "no answer ever landed");
                            break;
                        }
                        ClientEvent::Retired => {
                            panic!("ticket {ticket} retired before collection")
                        }
                    }
                }
                // `Done` collected the ticket: the very same answer now
                // hits a retired ticket, and polling agrees.
                if let Some(query) = first_flag {
                    assert_eq!(
                        engine.resolve(ticket, &query, FlagResolution::Continue),
                        Err(ResolveError::Retired)
                    );
                    assert!(matches!(engine.wait_event(ticket), ClientEvent::Retired));
                }
            }
            engine.shutdown();
        })
        .expect("serve scope panicked");
        assert!(late_answers > 0, "workload must park at least once");
        assert!(engine.stats().timed_out_to_abstention > 0);
    }

    #[test]
    fn shutdown_drains_parked_sessions_to_abstention() {
        let fx = fixture();
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(16).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            // Route some parks through the checkpoint path too: the
            // drain must release serialized state just the same.
            parked_bytes_budget: 1,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let outcomes: Vec<(u64, ServeOutcome)> = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let tickets: Vec<(u64, TicketId)> = instances
                .iter()
                .map(|inst| (inst.id, engine.submit(0, inst).expect("queue has room")))
                .collect();
            // Nobody answers feedback and no timeout is configured:
            // wait until the pool quiesces with every ticket either
            // done or parked forever.
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let stats = engine.stats();
                if stats.parked_sessions_now > 0
                    && stats.completed + stats.parked_sessions_now as u64 == instances.len() as u64
                {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "pool failed to quiesce with parked sessions"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Shutdown must complete the parked tickets, not strand them.
            engine.shutdown();
            tickets
                .into_iter()
                .map(|(id, ticket)| loop {
                    match engine.wait_event(ticket) {
                        ClientEvent::Done(done) => break (id, done),
                        ClientEvent::NeedsFeedback { .. } => {
                            // The drain is racing us; poll again.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        ClientEvent::Retired => panic!("ticket {ticket} dropped"),
                    }
                })
                .collect()
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len(), "drains never drop");
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert!(
            stats.drained_to_abstention > 0,
            "quiescing with parked sessions guarantees drained tickets"
        );
        let mut drained_seen = 0u64;
        for (id, o) in &outcomes {
            if o.drained {
                drained_seen += 1;
                assert!(
                    o.outcome.abstained(),
                    "drained request must abstain (instance {id})"
                );
                assert_eq!(o.n_feedback, 0, "nobody ever answered");
            }
        }
        assert!(drained_seen > 0);
        // The counter bills per drained *flag* (a ticket can drain once
        // per stage), so it bounds the drained-ticket count from above.
        assert!(stats.drained_to_abstention >= drained_seen);
        assert_eq!(stats.parked_sessions_now, 0, "no session left parked");
        assert_eq!(stats.parked_bytes_now, 0, "all live parked state released");
        assert_eq!(stats.checkpoint_bytes_now, 0, "all checkpoints consumed");
    }

    #[test]
    fn injected_step_panics_recover_with_outcome_parity() {
        crate::fault::silence_injected_panics();
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            fault: FaultPlan::seeded(11, 0.0).with_rate(FaultSite::StepPanic, 0.2),
            // A deep budget: every panic recovers, none degrade — so
            // the outcomes must be byte-identical to the fault-free
            // batch run.
            step_retry_budget: 64,
            step_retry_backoff: Duration::ZERO,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let outcomes = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let out = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len(), "panics never drop");
        let stats = engine.stats();
        assert!(
            stats.panics_recovered > 0,
            "a 20% step-panic rate must fire on this workload"
        );
        assert_eq!(stats.panics_to_abstention, 0, "deep budget: all recovered");
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.parked_sessions_now, 0);
        // The recovery path re-runs the deterministic generation
        // recipe, so recovered requests answer exactly as if nothing
        // had happened.
        assert_batch_parity(&fx, &engine, &oracle, &instances, &outcomes);
    }

    #[test]
    fn corrupt_checkpoints_regenerate_from_salvage_with_parity() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(24).cloned().collect();
        let config = ServeConfig {
            workers: 2,
            // Every park checkpoints…
            parked_bytes_budget: 1,
            // …and every checkpoint decode is corrupted: the engine
            // must rebuild from the recipe in its in-memory salvage
            // copy every single time.
            fault: FaultPlan::seeded(3, 0.0).with_rate(FaultSite::CheckpointDecode, 1.0),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let outcomes = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let out = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");
        assert_eq!(outcomes.len(), instances.len());
        let stats = engine.stats();
        assert!(
            stats.checkpoints > 0,
            "1-byte budget checkpoints every park"
        );
        assert_eq!(
            stats.corrupt_checkpoints_recovered, stats.restores,
            "every restore hit a corrupt checkpoint and salvaged"
        );
        assert!(stats.corrupt_checkpoints_recovered > 0);
        assert_eq!(
            stats.checkpoint_bytes_now, 0,
            "corrupt bytes still billed off"
        );
        assert_eq!(stats.parked_bytes_now, 0);
        assert_batch_parity(&fx, &engine, &oracle, &instances, &outcomes);
    }

    /// A checkpoint whose label sets another monitor produced (here
    /// the same probes recalibrated to α = 0.2) decodes fine but fails
    /// the engine's decode filter, so the worker rebuilds from the
    /// recipe it keeps in memory (the path
    /// `corrupt_checkpoints_regenerate_from_salvage_with_parity` drives
    /// end to end); the engine's own monitor's checkpoints pass.
    #[test]
    fn another_monitors_checkpoint_fails_the_decode_filter() {
        let fx = fixture();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig::default(),
        );
        let other = fx.mbpp_t.with_alpha(0.2);
        let mut scratch = LinkScratch::default();
        let mut suspended = 0;
        for inst in &fx.bench.split.dev {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            for (mbpp, passes) in [(&fx.mbpp_t, true), (&other, false)] {
                let mut session = LinkSession::new(
                    &fx.model,
                    mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    None,
                    None,
                    &engine.config().rts,
                );
                if let SessionState::NeedsFeedback(_) = session.step(&mut scratch) {
                    let bytes = checkpoint::encode(&session.checkpoint());
                    let decoded = engine.decode_checkpoint(&bytes, inst, LinkTarget::Tables);
                    assert_eq!(decoded.is_some(), passes, "instance {}", inst.id);
                    suspended += 1;
                }
            }
        }
        assert!(suspended > 0, "no session suspended at this scale");
    }

    #[test]
    fn schema_drift_rebuilds_contexts_without_disturbing_flights() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(12).cloned().collect();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let outcomes = crossbeam::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|_| engine.worker_loop());
            }
            let out = client_run(&engine, 0, &instances, &oracle);
            // Drift every database mid-flight-ish: outcomes already
            // collected must be untouched, and the counter must bill.
            for meta in fx.bench.metas.iter() {
                engine.invalidate_db(&meta.name);
            }
            let out2 = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            (out, out2)
        })
        .expect("serve scope panicked");
        let stats = engine.stats();
        assert_eq!(stats.db_invalidations, fx.bench.metas.len() as u64);
        // Dropped contexts rebuild; answers are a pure function of
        // `(instance, seed)`, so both passes match the batch runtime.
        assert_batch_parity(&fx, &engine, &oracle, &instances, &outcomes.0);
        assert_batch_parity(&fx, &engine, &oracle, &instances, &outcomes.1);
    }

    #[test]
    fn routing_is_stable_and_matches_the_core_hash() {
        let fx = fixture();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig {
                workers: 3,
                shards: 3,
                ..Default::default()
            },
        );
        assert_eq!(engine.config().shards, 3);
        for meta in &fx.bench.metas {
            let s = engine.shard_of(&meta.name);
            assert_eq!(s, db_shard(&meta.name, 3), "routing must be the core fn");
            assert_eq!(
                s,
                engine.shard_of(&meta.name),
                "routing must be a pure function of the name"
            );
            assert!(s < 3);
        }
        // A submitted ticket's id names the shard its database routes to.
        let inst = &fx.bench.split.dev[0];
        let t = engine.submit(0, inst).expect("empty engine admits");
        assert_eq!((t % 3) as usize, engine.shard_of(&inst.db_name));
        engine.shutdown();
        // Drain the one admitted ticket so gauges settle.
        crossbeam::thread::scope(|s| {
            s.spawn(|_| engine.worker_loop());
            let oracle = HumanOracle::new(Expertise::Expert, 5);
            let policy = MitigationPolicy::Human(&oracle);
            while let ClientEvent::NeedsFeedback { query, .. } = engine.wait_event(t) {
                let _ = engine.resolve(t, &query, resolve_flag(&policy, inst, &query));
            }
        })
        .expect("scope joins");
    }

    #[test]
    fn ticket_ids_route_back_to_their_shard() {
        let fx = fixture();
        for shards in [1usize, 3] {
            let engine = ServeEngine::new(
                &fx.model,
                &fx.mbpp_t,
                &fx.mbpp_c,
                &fx.bench.metas,
                ServeConfig {
                    shards,
                    queue_capacity: 0,
                    ..Default::default()
                },
            );
            // No workers: every ticket stays queued on its shard.
            let mut issued = Vec::new();
            for inst in fx.bench.split.dev.iter().take(12) {
                let id = engine.submit(0, inst).expect("unbounded queue admits");
                let home = engine.shard_of(&inst.db_name);
                assert_eq!((id % shards as u64) as usize, home, "{shards} shard(s)");
                assert!(
                    engine.shards[home].state.lock().tickets.contains_key(&id),
                    "ticket {id} lives on shard {home}"
                );
                issued.push(id);
            }
            if shards == 1 {
                let sequential: Vec<u64> = (0..issued.len() as u64).collect();
                assert_eq!(issued, sequential, "one shard keeps ids 0, 1, 2, …");
            }
            // A never-issued id on every shard, and one far past them.
            let never = (0..shards as u64)
                .map(|k| 1_000 * shards as u64 + k)
                .chain([u64::MAX]);
            for id in never {
                assert!(!issued.contains(&id));
                assert!(matches!(engine.wait_event(id), ClientEvent::Retired));
                assert_eq!(
                    engine.resolve(id, &bogus_query(), FlagResolution::Continue),
                    Err(ResolveError::Retired)
                );
            }
        }
    }

    #[test]
    fn work_stealing_drains_a_shard_with_no_home_workers() {
        let fx = fixture();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig {
                workers: 1,
                shards: 2,
                queue_capacity: 8,
                cache_capacity: 2,
                ..Default::default()
            },
        );
        // Homes are handed out round-robin from shard 0, so the only
        // worker's home is shard 0. Submit only instances routing to
        // shard 1: completions there can only come from stealing.
        let starved: Vec<benchgen::Instance> = fx
            .bench
            .split
            .dev
            .iter()
            .filter(|i| engine.shard_of(&i.db_name) == 1)
            .take(6)
            .cloned()
            .collect();
        assert!(!starved.is_empty());
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let served = crossbeam::thread::scope(|s| {
            let worker = s.spawn(|_| engine.worker_loop());
            let served = client_run(&engine, 0, &starved, &oracle);
            engine.shutdown();
            worker.join().expect("worker joins");
            served
        })
        .expect("scope joins");
        assert_eq!(served.len(), starved.len(), "every request completes");
        let starved_stats = engine.shard_stats(1).expect("shard exists");
        assert_eq!(starved_stats.completed, starved.len() as u64);
        let idle_stats = engine.shard_stats(0).expect("shard exists");
        assert_eq!(idle_stats.completed, 0, "no work ever routed there");
    }

    #[test]
    fn per_shard_gauges_drain_to_zero_after_shutdown() {
        let fx = fixture();
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            ServeConfig {
                workers: 2,
                shards: 2,
                queue_capacity: 8,
                cache_capacity: 2,
                // A 1-byte budget forces every parked session through
                // the checkpoint path, exercising both gauges.
                parked_bytes_budget: 1,
                ..Default::default()
            },
        );
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(12).cloned().collect();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let served = crossbeam::thread::scope(|s| {
            let workers: Vec<_> = (0..engine.config().workers)
                .map(|_| s.spawn(|_| engine.worker_loop()))
                .collect();
            let served = client_run(&engine, 0, &instances, &oracle);
            engine.shutdown();
            for w in workers {
                w.join().expect("worker joins");
            }
            served
        })
        .expect("scope joins");
        assert_eq!(served.len(), instances.len());
        let agg = engine.stats();
        assert!(agg.feedback_rounds > 0, "fixture must exercise feedback");
        for idx in 0..engine.config().shards {
            let s = engine.shard_stats(idx).expect("shard exists");
            assert_eq!(s.parked_bytes_now, 0, "shard {idx} parked bytes");
            assert_eq!(s.parked_sessions_now, 0, "shard {idx} parked sessions");
            assert_eq!(s.checkpoint_bytes_now, 0, "shard {idx} checkpoint bytes");
            assert_eq!(s.invariant_breaches, 0, "shard {idx} breaches");
        }
        assert_eq!(
            agg.completed,
            instances.len() as u64,
            "aggregate counts every shard's completions"
        );
        assert_eq!(agg.parked_bytes_now + agg.checkpoint_bytes_now, 0);
    }

    /// Multi-tenant stress: six closed-loop clients over three tenants
    /// under a one-request in-flight quota (two clients per tenant, so
    /// quota backpressure fires), tenant 2 never answering feedback
    /// (its flagged requests complete only through the feedback
    /// timeout), and a 1-byte parked budget (every park is
    /// checkpointed). Worker count follows `RTS_THREADS`.
    #[test]
    fn stalled_tenant_times_out_to_abstention_under_quota_and_checkpointing() {
        const TENANTS: usize = 3;
        const STALLED: TenantId = 2;
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let instances: Vec<benchgen::Instance> =
            fx.bench.split.dev.iter().take(36).cloned().collect();
        let config = ServeConfig {
            queue_capacity: 16,
            cache_capacity: 8,
            quota: TenantQuota {
                max_in_flight: 1,
                max_parked: 0,
            },
            feedback_timeout: Some(Duration::from_millis(50)),
            parked_bytes_budget: 1,
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let n_clients = 6;
        let served: Vec<(TenantId, u64, ServeOutcome)> = crossbeam::thread::scope(|s| {
            for _ in 0..engine.config().workers {
                s.spawn(|_| engine.worker_loop());
            }
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let engine = &engine;
                    let slice: Vec<benchgen::Instance> = instances
                        .iter()
                        .skip(c)
                        .step_by(n_clients)
                        .cloned()
                        .collect();
                    let policy = MitigationPolicy::Human(&oracle);
                    let tenant = (c % TENANTS) as TenantId;
                    s.spawn(move |_| {
                        crate::drive_closed_loop(engine, tenant, &slice, |inst, query| {
                            (tenant != STALLED).then(|| resolve_flag(&policy, inst, query))
                        })
                        .into_iter()
                        .map(|(id, o)| (tenant, id, o))
                        .collect::<Vec<_>>()
                    })
                })
                .collect();
            let served = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client panicked"))
                .collect();
            engine.shutdown();
            served
        })
        .expect("serve scope panicked");

        assert_eq!(served.len(), instances.len(), "every request completes");
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert!(
            stats.tenant_in_flight_peak <= 1,
            "a tenant reached {} in flight under quota 1",
            stats.tenant_in_flight_peak
        );
        assert!(
            served.iter().any(|(t, _, o)| *t == STALLED && o.timed_out),
            "the stalled tenant must hit the feedback timeout"
        );
        // Bystanders may time out too when a busy runner delays their
        // answers past 50 ms; whoever timed out must have abstained.
        for (_, id, o) in &served {
            if o.timed_out {
                assert!(o.outcome.abstained(), "timed-out instance {id} abstains");
            }
        }
        assert!(stats.checkpoints > 0, "a 1-byte budget checkpoints parks");
        assert_eq!(stats.parked_sessions_now, 0);
        assert_eq!(stats.parked_bytes_now, 0);
        assert_eq!(stats.checkpoint_bytes_now, 0);
        let answered: Vec<(u64, ServeOutcome)> = served
            .into_iter()
            .filter(|(_, _, o)| !o.timed_out && !o.faulted)
            .map(|(_, id, o)| (id, o))
            .collect();
        assert_batch_parity(&fx, &engine, &oracle, &instances, &answered);
    }

    // -----------------------------------------------------------------
    // The lifecycle spec. A ticket is Queued → Running → (parked on a
    // flag → Queued → Running)* → Done → retired. Whoever observes it —
    // a sink given to `watch`, or `wait_event` — sees each parked flag's
    // query (consecutive queries differ) and then exactly one `Done`;
    // nothing follows the `Done`. A resolve lands only on the flag the
    // ticket is parked on. After shutdown and collection, nothing is
    // left: no ticket, no queued id, no parked byte.

    /// The engine fixture shared by every case of the spec test.
    fn shared_fixture() -> &'static Fx {
        static FX: std::sync::OnceLock<Fx> = std::sync::OnceLock::new();
        FX.get_or_init(fixture)
    }

    /// How the spec test observes a ticket.
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        /// A sink from `watch`, given right after the submit.
        Watched,
        /// A sink from `watch`, given by a later operation.
        WatchLater,
        /// `wait_event`.
        Polled,
    }

    type Events = Arc<Mutex<Vec<ClientEvent>>>;

    struct Slot {
        ticket: TicketId,
        inst: usize,
        mode: Mode,
        /// What the ticket's sink received.
        events: Events,
        /// The queries `wait_event` returned, without repeats.
        polled: Vec<FlagQuery>,
        /// The `Done`s `wait_event` returned.
        collected: usize,
        /// The last query a resolve landed on.
        answered: Option<FlagQuery>,
        /// Watched only after some of its life had passed.
        late: bool,
    }

    impl Slot {
        /// Every query this ticket was seen parked on, in order.
        fn queries(&self) -> Vec<FlagQuery> {
            if self.mode == Mode::Polled {
                return self.polled.clone();
            }
            self.events
                .lock()
                .iter()
                .filter_map(|e| match e {
                    ClientEvent::NeedsFeedback { query, .. } => Some(query.clone()),
                    _ => None,
                })
                .collect()
        }
    }

    fn watch_into(engine: &ServeEngine, id: TicketId, events: &Events) {
        let events = Arc::clone(events);
        engine.watch(id, move |event| events.lock().push(event));
    }

    /// A ticket's phase, read under its shard lock.
    enum Peek {
        Gone,
        Busy,
        Parked(FlagQuery),
        Done,
    }

    fn peek(engine: &ServeEngine, id: TicketId) -> Peek {
        let Some(shard) = engine.ticket_shard(id) else {
            return Peek::Gone;
        };
        let st = shard.state.lock();
        match st.tickets.get(&id).map(|t| &t.phase) {
            None => Peek::Gone,
            Some(Phase::Queued | Phase::Running) => Peek::Busy,
            Some(Phase::AwaitingFeedback(query)) => Peek::Parked(query.clone()),
            Some(Phase::Done(_)) => Peek::Done,
        }
    }

    /// Watch a ticket nobody observed yet: the sink must get its current
    /// state at once. A finished ticket's `Done` and, while parks cannot
    /// lapse (`parks_hold`), a parked ticket's query are exact.
    fn watch_late(
        engine: &ServeEngine,
        slot: &mut Slot,
        parks_hold: bool,
    ) -> Result<(), proptest::TestCaseError> {
        let before = peek(engine, slot.ticket);
        watch_into(engine, slot.ticket, &slot.events);
        slot.mode = Mode::Watched;
        slot.late = true;
        let events = slot.events.lock();
        match before {
            Peek::Gone => proptest::prop_assert!(false, "an unobserved ticket vanished"),
            Peek::Done => {
                proptest::prop_assert!(
                    events.len() == 1 && matches!(events[0], ClientEvent::Done(_)),
                    "watching a finished ticket delivers its Done: {events:?}"
                );
                proptest::prop_assert!(
                    matches!(engine.wait_event(slot.ticket), ClientEvent::Retired),
                    "the delivered Done retires the ticket"
                );
            }
            Peek::Parked(query) if parks_hold => proptest::prop_assert!(
                events.len() == 1
                    && matches!(&events[0], ClientEvent::NeedsFeedback { query: q, .. } if *q == query),
                "watching a parked ticket delivers its query: {events:?}"
            ),
            Peek::Parked(_) | Peek::Busy => {}
        }
        Ok(())
    }

    /// Stops the engine when a case ends, also on a failed assertion,
    /// so the scoped workers return.
    struct StopOnDrop<'a>(&'a ServeEngine);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }

    /// Resolve a random ticket with its current query (read from its
    /// sink, or from `wait_event`), an earlier one, or a bogus one.
    /// Only the current query of a parked ticket lands; while parks
    /// hold (no timeout, no shutdown) it always does.
    fn spec_resolve(
        engine: &ServeEngine,
        slot: &mut Slot,
        inst: &Instance,
        rng: &mut proptest::TestRng,
        parks_hold: bool,
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prop_assert;
        let settled = |r: &Result<(), ResolveError>| {
            matches!(r, Err(ResolveError::Stale | ResolveError::Retired))
        };
        match rng.below(3) {
            0 => {
                let current = match slot.mode {
                    Mode::Polled if slot.collected > 0 => {
                        let event = engine.wait_event(slot.ticket);
                        prop_assert!(matches!(event, ClientEvent::Retired), "{event:?}");
                        None
                    }
                    Mode::Polled => match engine.wait_event(slot.ticket) {
                        ClientEvent::NeedsFeedback { query, .. } => {
                            if slot.polled.last() != Some(&query) {
                                slot.polled.push(query.clone());
                            }
                            Some(query)
                        }
                        ClientEvent::Done(_) => {
                            slot.collected += 1;
                            None
                        }
                        ClientEvent::Retired => {
                            return Err(proptest::TestCaseError::fail(
                                "a polled ticket retired before its Done",
                            ))
                        }
                    },
                    Mode::Watched => match slot.events.lock().last() {
                        Some(ClientEvent::NeedsFeedback { query, .. }) => Some(query.clone()),
                        _ => None,
                    },
                    Mode::WatchLater => None,
                };
                let Some(query) = current else {
                    return Ok(());
                };
                let answered = slot.answered.as_ref() == Some(&query);
                let policy = MitigationPolicy::Human(&HumanOracle::new(Expertise::Expert, 9));
                let r = engine.resolve(slot.ticket, &query, resolve_flag(&policy, inst, &query));
                if answered {
                    prop_assert!(settled(&r), "an answered flag took a second answer");
                } else if parks_hold {
                    prop_assert!(r.is_ok(), "the parked flag refused its answer: {r:?}");
                } else {
                    prop_assert!(r.is_ok() || settled(&r), "{r:?}");
                }
                if r.is_ok() {
                    slot.answered = Some(query);
                }
            }
            1 => {
                // Every query but the latest is settled, and so is the
                // latest once answered.
                let mut seen = slot.queries();
                if slot.answered.is_none() || slot.answered.as_ref() != seen.last() {
                    seen.pop();
                }
                if !seen.is_empty() {
                    let stale = &seen[rng.below(seen.len())];
                    let r = engine.resolve(slot.ticket, stale, FlagResolution::Continue);
                    prop_assert!(settled(&r), "a stale query landed: {r:?}");
                }
            }
            _ => {
                let r = engine.resolve(slot.ticket, &bogus_query(), FlagResolution::Continue);
                prop_assert!(settled(&r), "a bogus query landed: {r:?}");
            }
        }
        Ok(())
    }

    /// Run one random operation sequence against a running engine:
    /// submits, resolves, sleeps that let a 1–2 ms feedback timeout
    /// lapse, late watches, watches of retired or unknown ids, and a
    /// shutdown in the last quarter (or none before the end).
    fn drive_spec_ops(
        engine: &ServeEngine,
        fx: &Fx,
        rng: &mut proptest::TestRng,
        slots: &mut Vec<Slot>,
        unknown: &mut Vec<Events>,
    ) -> Result<(), proptest::TestCaseError> {
        let dev = &fx.bench.split.dev;
        let n_ops = 12 + rng.below(36);
        let shutdown_at = n_ops - rng.below(n_ops / 4 + 1);
        for op in 0..n_ops {
            if op == shutdown_at {
                engine.shutdown();
            }
            let down = op >= shutdown_at;
            // Without a timeout and before shutdown, only this thread
            // unparks a ticket.
            let parks_hold = engine.config().feedback_timeout.is_none() && !down;
            let roll = rng.below(20);
            if roll < 6 && !down {
                // Even slots are watched (now or later), odd ones polled.
                let mode = match (slots.len() % 2, rng.next_bool()) {
                    (0, true) => Mode::Watched,
                    (0, false) => Mode::WatchLater,
                    _ => Mode::Polled,
                };
                let inst = rng.below(dev.len());
                let ticket = engine
                    .submit((slots.len() % 2) as TenantId, &dev[inst])
                    .map_err(|e| proptest::TestCaseError::fail(format!("submit: {e}")))?;
                let events = Events::default();
                if mode == Mode::Watched {
                    watch_into(engine, ticket, &events);
                }
                slots.push(Slot {
                    ticket,
                    inst,
                    mode,
                    events,
                    polled: Vec::new(),
                    collected: 0,
                    answered: None,
                    late: false,
                });
            } else if roll < 15 && !slots.is_empty() {
                let i = rng.below(slots.len());
                let inst = &dev[slots[i].inst];
                spec_resolve(engine, &mut slots[i], inst, rng, parks_hold)?;
            } else if roll < 17 {
                std::thread::sleep(Duration::from_millis(1 + rng.below(3) as u64));
            } else if roll < 19 {
                let later: Vec<usize> = (0..slots.len())
                    .filter(|&i| slots[i].mode == Mode::WatchLater)
                    .collect();
                if !later.is_empty() {
                    let i = later[rng.below(later.len())];
                    watch_late(engine, &mut slots[i], parks_hold)?;
                }
            } else {
                // An id no shard issued, or a polled ticket whose Done
                // was collected: the sink reads Retired at once.
                let collected: Vec<TicketId> = slots
                    .iter()
                    .filter(|s| s.collected > 0)
                    .map(|s| s.ticket)
                    .collect();
                let id = if collected.is_empty() || rng.next_bool() {
                    TicketId::MAX - rng.below(4) as TicketId
                } else {
                    collected[rng.below(collected.len())]
                };
                let events = Events::default();
                watch_into(engine, id, &events);
                proptest::prop_assert!(
                    matches!(events.lock().as_slice(), [ClientEvent::Retired]),
                    "watching ticket {id} must read Retired at once"
                );
                unknown.push(events);
            }
        }
        Ok(())
    }

    fn check_spec_case(seed: u64) -> Result<(), proptest::TestCaseError> {
        use proptest::{prop_assert, prop_assert_eq};
        let fx = shared_fixture();
        let mut rng = proptest::TestRng::new(seed);
        let timeout = match rng.below(3) {
            0 => None,
            ms => Some(Duration::from_millis(ms as u64)),
        };
        let config = ServeConfig {
            workers: 1 + rng.below(2),
            shards: 1 + rng.below(2),
            feedback_timeout: timeout,
            parked_bytes_budget: rng.below(2),
            ..Default::default()
        };
        let engine = ServeEngine::new(&fx.model, &fx.mbpp_t, &fx.mbpp_c, &fx.bench.metas, config);
        let mut slots = Vec::new();
        let mut unknown = Vec::new();
        crossbeam::thread::scope(|s| {
            for _ in 0..engine.config().workers {
                s.spawn(|_| engine.worker_loop());
            }
            let _stop = StopOnDrop(&engine);
            drive_spec_ops(&engine, fx, &mut rng, &mut slots, &mut unknown)
        })
        .expect("serve scope panicked")?;

        // The workers returned, so every ticket has finished.
        for slot in &mut slots {
            match slot.mode {
                Mode::WatchLater => {
                    watch_late(&engine, slot, false)?;
                }
                Mode::Polled if slot.collected == 0 => match engine.wait_event(slot.ticket) {
                    ClientEvent::Done(_) => slot.collected += 1,
                    other => prop_assert!(false, "a drained ticket reads {other:?}"),
                },
                _ => {}
            }
        }
        for slot in &slots {
            if slot.mode == Mode::Polled {
                prop_assert_eq!(slot.collected, 1, "one Done per polled ticket");
            } else {
                let events = slot.events.lock();
                let Some((ClientEvent::Done(done), parks)) = events.split_last() else {
                    return Err(proptest::TestCaseError::fail(format!(
                        "a watched ticket ends in Done: {events:?}"
                    )));
                };
                prop_assert!(
                    parks
                        .iter()
                        .all(|e| matches!(e, ClientEvent::NeedsFeedback { .. })),
                    "only queries precede the Done: {events:?}"
                );
                // Each answer and each timeout settled a park that a
                // sink given at submit was shown.
                prop_assert!(
                    slot.late || parks.len() >= done.n_feedback.max(usize::from(done.timed_out)),
                    "{} parks shown for {} answers (timed out: {})",
                    parks.len(),
                    done.n_feedback,
                    done.timed_out
                );
            }
            let queries = slot.queries();
            prop_assert!(
                queries.windows(2).all(|w| w[0] != w[1]),
                "consecutive queries differ: {queries:?}"
            );
            prop_assert!(
                matches!(engine.wait_event(slot.ticket), ClientEvent::Retired),
                "a delivered or collected ticket is retired"
            );
        }
        for events in &unknown {
            prop_assert!(
                matches!(events.lock().as_slice(), [ClientEvent::Retired]),
                "nothing follows Retired"
            );
        }
        for shard in &engine.shards {
            let st = shard.state.lock();
            prop_assert!(st.tickets.is_empty(), "no ticket outlives its Done");
            prop_assert_eq!(st.queues.queued_len(), 0);
            for tenant in 0..2 {
                let load = st.queues.load(tenant);
                prop_assert_eq!((load.in_flight, load.parked), (0, 0));
            }
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.completed, slots.len() as u64);
        prop_assert_eq!(stats.parked_sessions_now, 0);
        prop_assert_eq!(stats.parked_bytes_now, 0);
        prop_assert_eq!(stats.checkpoint_bytes_now, 0);
        prop_assert_eq!(stats.invariant_breaches, 0);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Random sequences of submit, resolve, timeout and shutdown,
        /// with half the tickets watched and half polled, against the
        /// lifecycle spec above.
        #[test]
        fn engine_lifecycle_matches_the_spec(seed in proptest::any::<u64>()) {
            check_spec_case(seed)?;
        }
    }
}
