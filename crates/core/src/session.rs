//! The resumable monitored-linking state machine.
//!
//! [`crate::abstention::run_rts_linking`] is interactive by
//! construction — the adaptive-abstention loop pauses on every mBPP
//! flag until a human (or surrogate) answers — yet as a blocking
//! function it can only run as a closed batch job holding a thread
//! hostage for the whole interaction. [`LinkSession`] turns the loop
//! inside out: [`LinkSession::step`] advances generation + monitoring
//! until the run either finishes ([`SessionState::Done`]) or suspends
//! on a branching flag ([`SessionState::NeedsFeedback`]), at which
//! point the session can be parked, shipped elsewhere, and resumed
//! with [`LinkSession::resolve`] once feedback arrives. An online
//! serving engine (`rts-serve`) parks thousands of such sessions
//! without pinning workers; the classic blocking entry points are now
//! thin drivers looping `step()`/`resolve()` against a policy.
//!
//! Bit-identity contract: driving a session with
//! [`resolve_flag`]/[`drive_session`] reproduces the pre-session
//! monolithic loop *exactly* — same flags, same merge-RNG stream, same
//! interventions, same outcomes (the monolith is kept as
//! [`crate::abstention::run_rts_linking_monolithic`] and pinned by the
//! `session_linking_matches_monolithic_loop` parity proptest), so
//! every committed `results/*.json` is unchanged by the refactor.

use crate::abstention::{LinkScratch, MitigationPolicy, Round0, RtsConfig, RtsOutcome};
use crate::bpp::Mbpp;
use crate::context::LinkContext;
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use serde::{Deserialize, Serialize};
use simlm::{Decision, GenMode, GenerationTrace, LinkTarget, SchemaLinker, Vocab};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How a session holds a model artefact: borrowed from the caller's
/// stack (the batch drivers — zero-cost sharing within one scoped
/// fan-out) or sharing ownership through an [`Arc`] (the serving
/// engine, whose sessions outlive any one stack frame: a parked
/// session may be resumed by a different worker thread long after the
/// submitting scope returned).
///
/// `Handle<'static, T>` is the ownership shape the `Engine` trait
/// runs on: every artefact behind an `Arc`, no scoped borrows.
#[derive(Debug)]
pub enum Handle<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T> Clone for Handle<'_, T> {
    fn clone(&self) -> Self {
        match self {
            Handle::Borrowed(t) => Handle::Borrowed(t),
            Handle::Shared(t) => Handle::Shared(Arc::clone(t)),
        }
    }
}

impl<T> std::ops::Deref for Handle<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            Handle::Borrowed(t) => t,
            Handle::Shared(t) => t,
        }
    }
}

impl<'a, T> From<&'a T> for Handle<'a, T> {
    fn from(t: &'a T) -> Self {
        Handle::Borrowed(t)
    }
}

impl<T> From<Arc<T>> for Handle<'static, T> {
    fn from(t: Arc<T>) -> Self {
        Handle::Shared(t)
    }
}

/// How a session holds its [`LinkContext`] (the original use of
/// [`Handle`], kept under its established name).
pub type CtxHandle<'a> = Handle<'a, LinkContext>;

/// A branching flag the session suspended on: everything a feedback
/// provider (human UI, surrogate service, test oracle) needs to act,
/// self-contained and serializable so it can cross a process boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlagQuery {
    /// Instance the session is linking.
    pub instance: u64,
    /// `true` = table linking, `false` = column linking.
    pub is_table: bool,
    /// Zero-based correction round the flag was raised in.
    pub round: usize,
    /// Position of the flagged token in the round's stream.
    pub branch_pos: usize,
    /// Index of the gold element the flagged token belongs to.
    pub element_idx: usize,
    /// The gold element under interaction (§3.3 pins decisions per
    /// gold element).
    pub gold_element: String,
    /// Algorithm 2's implicated candidate elements for the flag.
    pub implicated: Vec<String>,
    /// The round's predicted elements so far (stream order, with
    /// duplicates — the §3.3 protocol skips candidates already linked
    /// elsewhere in the answer).
    pub predicted: Vec<String>,
}

impl FlagQuery {
    /// The link target this flag belongs to.
    pub fn target(&self) -> LinkTarget {
        if self.is_table {
            LinkTarget::Tables
        } else {
            LinkTarget::Columns
        }
    }
}

/// The feedback that resumes a suspended session — the three ways the
/// monolithic loop's policy arms reacted to a flag. Serializable so a
/// remote feedback provider can ship its verdict across the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlagResolution {
    /// Halt and abstain. `consulted` records whether an actual
    /// consultation produced the verdict (the surrogate filter) or the
    /// policy abstained by fiat (abstain-only) — it is what the
    /// intervention count bills.
    Abstain { consulted: bool },
    /// Generation continues unchanged; the flagged element is not
    /// re-consulted (the surrogate's "not irrelevant" answer).
    Continue,
    /// Pin a decision for the flagged gold element and regenerate with
    /// it forced (the human protocol's confirmed/corrected element).
    Pin(Decision),
}

/// The serializable state of a suspended [`LinkSession`] — everything a
/// parked session owns that cannot be rebuilt from its construction
/// arguments, *minus* the current round's trace and vocabulary.
///
/// The trace is the whole point of checkpointing: its synthesized
/// hidden-state stacks dominate a parked session's memory
/// ([`LinkSession::held_bytes`]), yet generation is a pure function of
/// `(instance, overrides, layer set)` — so the checkpoint records the
/// *recipe* (the override map it was generated under) instead of the
/// data, and [`LinkSession::restore`] re-synthesizes a bit-identical
/// round. What must survive verbatim is everything generation does NOT
/// determine: the merge-RNG state (flags already consumed draws from
/// it), the flag/intervention counters, the handled-element set, and
/// the pending query. Pinned end to end by the
/// `checkpoint_roundtrip_matches_monolithic_loop` parity proptest.
///
/// Invariant this leans on: while a session is suspended, the current
/// round's trace is exactly `generate_with_overrides(inst, overrides)`
/// for the *current* override map — `resolve(Pin)` is the only
/// mutation of `overrides`, it clears the suspension, and the next
/// `step` regenerates before it can suspend again.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Instance id the session links (restore refuses a mismatch).
    pub instance: u64,
    /// `true` = table linking, `false` = column linking.
    pub is_table: bool,
    /// Synthesis corpus the suspended round was generated under.
    /// Restore re-synthesizes the round from the override recipe, so a
    /// checkpoint replayed against a model on a different corpus would
    /// silently rebuild different hidden states mid-session; recording
    /// the version makes the mismatch detectable (restore asserts it,
    /// the serving engine degrades on it).
    pub corpus: simlm::CorpusVersion,
    /// Raw merge-RNG state (`SplitMix64` is one `u64` of state).
    pub rng_state: u64,
    /// TAR/FAR counterfactual verdict, if already computed.
    pub would_be_correct: Option<bool>,
    /// Pinned per-element decisions, sorted by element for
    /// deterministic bytes.
    pub overrides: Vec<(String, Decision)>,
    /// Gold-element indices already handled, sorted.
    pub handled: Vec<usize>,
    pub n_interventions: usize,
    pub n_flags: usize,
    pub rounds_done: usize,
    /// Always `false` while suspended (a `Pin` marks the stream stale
    /// but also un-suspends); kept explicit so the invariant is
    /// checked, not assumed, across serialization boundaries.
    pub stale: bool,
    /// Did the session hold a current round? (Always true at a
    /// suspension; restore re-synthesizes it.)
    pub has_round: bool,
    /// The flag the session is suspended on.
    pub pending: Option<FlagQuery>,
}

impl SessionCheckpoint {
    /// Does this checkpoint belong to `(inst, target)`?
    /// [`LinkSession::restore`] asserts exactly this; an engine
    /// restoring possibly-corrupt decoded bytes checks it first so a
    /// mismatch can degrade to abstention instead of panicking a
    /// worker.
    pub fn matches(&self, inst: &Instance, target: LinkTarget) -> bool {
        self.instance == inst.id && self.is_table == (target == LinkTarget::Tables)
    }
}

/// What [`LinkSession::step`] returns.
#[derive(Debug, Clone)]
pub enum SessionState {
    /// Linking is suspended on a branching flag; park the session and
    /// call [`LinkSession::resolve`] when feedback arrives.
    NeedsFeedback(FlagQuery),
    /// The run finished; the session stays in this state forever.
    Done(RtsOutcome),
}

/// The flag a session is currently suspended on (the query carries
/// everything `resolve` needs: the element index and gold element).
#[derive(Debug, Clone)]
struct PendingFlag {
    query: FlagQuery,
}

/// The round state: round 0 may be borrowed from the caller
/// ([`Round0`]); regenerated rounds are owned by the session (a parked
/// session must not borrow its own history).
#[derive(Debug)]
enum SessionRound<'a> {
    Borrowed(Round0<'a>),
    Owned(GenerationTrace, Vocab),
}

impl SessionRound<'_> {
    fn trace(&self) -> &GenerationTrace {
        match self {
            SessionRound::Borrowed(r) => r.trace,
            SessionRound::Owned(t, _) => t,
        }
    }

    fn vocab(&self) -> &Vocab {
        match self {
            SessionRound::Borrowed(r) => r.vocab,
            SessionRound::Owned(_, v) => v,
        }
    }
}

/// One monitored linking run as an explicit resumable state machine.
///
/// Construction mirrors the entry points of
/// [`crate::abstention::run_rts_linking`]: a context-backed session
/// (optionally consuming a pre-generated [`Round0`]) or, without a
/// context, the context-free fallback the serving engine takes when a
/// context build fails — outcome-identical, with implicated sets from
/// [`crate::context::implicated_elements_reference`].
///
/// The session owns everything the loop accumulated (current round's
/// trace + vocabulary, overrides, handled set, merge RNG, flag/
/// intervention counters); scratch buffers stay caller-owned and are
/// passed into [`LinkSession::step`], so a parked session holds only
/// state, not scratch.
#[derive(Debug)]
pub struct LinkSession<'a> {
    model: Handle<'a, SchemaLinker>,
    mbpp: Handle<'a, Mbpp>,
    inst: Handle<'a, Instance>,
    meta: Handle<'a, DbMeta>,
    target: LinkTarget,
    ctx: Option<CtxHandle<'a>>,
    gold: Vec<String>,
    gold_set: Vec<String>,
    rng: tinynn::rng::SplitMix64,
    monitor_layers: simlm::LayerSet,
    max_rounds: usize,
    would_be_correct: Option<bool>,
    overrides: HashMap<String, Decision>,
    handled: HashSet<usize>,
    n_interventions: usize,
    n_flags: usize,
    cur: Option<SessionRound<'a>>,
    stale: bool,
    rounds_done: usize,
    pending: Option<PendingFlag>,
    finished: Option<RtsOutcome>,
}

impl<'a> LinkSession<'a> {
    /// Open a session. Without `ctx` it runs the context-free
    /// fallback. `round0` follows the [`Round0`] contract.
    #[allow(clippy::too_many_arguments)] // mirrors the blocking entry points
    pub fn new(
        model: &'a SchemaLinker,
        mbpp: &'a Mbpp,
        inst: &'a Instance,
        meta: &'a DbMeta,
        target: LinkTarget,
        ctx: Option<CtxHandle<'a>>,
        round0: Option<Round0<'a>>,
        config: &RtsConfig,
    ) -> Self {
        Self::new_in(
            Handle::Borrowed(model),
            Handle::Borrowed(mbpp),
            Handle::Borrowed(inst),
            Handle::Borrowed(meta),
            target,
            ctx,
            round0,
            config,
        )
    }

    /// [`LinkSession::new`] over explicit artefact [`Handle`]s — the
    /// constructor the serving engine uses with `Handle::Shared` so the
    /// resulting session is `LinkSession<'static>` and can be parked
    /// past any submitting scope.
    #[allow(clippy::too_many_arguments)] // mirrors LinkSession::new
    pub fn new_in(
        model: Handle<'a, SchemaLinker>,
        mbpp: Handle<'a, Mbpp>,
        inst: Handle<'a, Instance>,
        meta: Handle<'a, DbMeta>,
        target: LinkTarget,
        ctx: Option<CtxHandle<'a>>,
        round0: Option<Round0<'a>>,
        config: &RtsConfig,
    ) -> Self {
        let gold = SchemaLinker::gold_elements(&inst, target);
        let gold_set = {
            let mut g = gold.clone();
            g.sort();
            g
        };
        let rng = crate::par::instance_rng(config.seed, inst.id);
        let monitor_layers = mbpp.layer_set();
        // Safety cap on correction rounds: every round handles one
        // element.
        let max_rounds = gold.len() + 2;
        Self {
            model,
            mbpp,
            inst,
            meta,
            target,
            ctx,
            gold,
            gold_set,
            rng,
            monitor_layers,
            max_rounds,
            would_be_correct: None,
            overrides: HashMap::new(),
            handled: HashSet::new(),
            n_interventions: 0,
            n_flags: 0,
            cur: round0.map(SessionRound::Borrowed),
            stale: false,
            rounds_done: 0,
            pending: None,
            finished: None,
        }
    }

    /// The instance this session is linking.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The link target this session resolves.
    pub fn target(&self) -> LinkTarget {
        self.target
    }

    /// Has the run finished?
    pub fn is_done(&self) -> bool {
        self.finished.is_some()
    }

    /// The flag the session is currently suspended on, if any.
    pub fn pending_query(&self) -> Option<&FlagQuery> {
        self.pending.as_ref().map(|p| &p.query)
    }

    /// Bytes of generation state the session holds while parked —
    /// dominated by the current round's synthesized hidden-state
    /// stacks. What a serving engine bills a suspended request for.
    /// Between a `Pin` and the next step this is the superseded round,
    /// kept as that step's reuse source.
    pub fn held_bytes(&self) -> usize {
        self.cur
            .as_ref()
            .map(|r| {
                let t = r.trace();
                t.hidden_bytes() + std::mem::size_of_val(t.tokens.as_slice())
            })
            .unwrap_or(0)
    }

    /// Snapshot a *suspended* session into its serializable state (see
    /// [`SessionCheckpoint`] for what is stored vs re-synthesized).
    /// Panics when the session is not suspended: running and finished
    /// sessions have a worker or nobody attached — only a parked one is
    /// worth shipping out of memory.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        assert!(
            self.pending.is_some(),
            "only a suspended session can checkpoint"
        );
        let mut overrides: Vec<(String, Decision)> = self
            .overrides
            // rts-allow(iter-order): sorted right after collecting, so
            // the encoded checkpoint is order-stable.
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        overrides.sort_by(|a, b| a.0.cmp(&b.0));
        // rts-allow(iter-order): sorted right after collecting.
        let mut handled: Vec<usize> = self.handled.iter().copied().collect();
        handled.sort_unstable();
        SessionCheckpoint {
            instance: self.inst.id,
            is_table: self.target == LinkTarget::Tables,
            corpus: self.model.corpus(),
            rng_state: self.rng.state(),
            would_be_correct: self.would_be_correct,
            overrides,
            handled,
            n_interventions: self.n_interventions,
            n_flags: self.n_flags,
            rounds_done: self.rounds_done,
            stale: self.stale,
            has_round: self.cur.is_some(),
            pending: self.pending.as_ref().map(|p| p.query.clone()),
        }
    }

    /// Rebuild a suspended session from a [`SessionCheckpoint`]: the
    /// construction arguments come back from the caller (the serving
    /// engine keeps them per ticket), the recorded state is restored
    /// verbatim, and the current round — evicted at checkpoint time —
    /// is re-synthesized from the restored override map. Bit-identical
    /// to a session that was never checkpointed: same pending query,
    /// same `held_bytes`, same flags/RNG/outcomes downstream (pinned by
    /// the checkpoint-roundtrip parity proptest).
    ///
    /// Panics when the checkpoint does not belong to `(inst, target)`.
    #[allow(clippy::too_many_arguments)] // mirrors LinkSession::new
    pub fn restore(
        model: &'a SchemaLinker,
        mbpp: &'a Mbpp,
        inst: &'a Instance,
        meta: &'a DbMeta,
        target: LinkTarget,
        ctx: Option<CtxHandle<'a>>,
        config: &RtsConfig,
        cp: &SessionCheckpoint,
        synth: &mut simlm::SynthScratch,
    ) -> Self {
        Self::restore_in(
            Handle::Borrowed(model),
            Handle::Borrowed(mbpp),
            Handle::Borrowed(inst),
            Handle::Borrowed(meta),
            target,
            ctx,
            config,
            cp,
            synth,
        )
    }

    /// [`LinkSession::restore`] over explicit artefact [`Handle`]s —
    /// the serving engine's restore path (`Handle::Shared`, so the
    /// restored session is `'static`).
    #[allow(clippy::too_many_arguments)] // mirrors LinkSession::restore
    pub fn restore_in(
        model: Handle<'a, SchemaLinker>,
        mbpp: Handle<'a, Mbpp>,
        inst: Handle<'a, Instance>,
        meta: Handle<'a, DbMeta>,
        target: LinkTarget,
        ctx: Option<CtxHandle<'a>>,
        config: &RtsConfig,
        cp: &SessionCheckpoint,
        synth: &mut simlm::SynthScratch,
    ) -> Self {
        assert_eq!(
            cp.instance, inst.id,
            "checkpoint belongs to another instance"
        );
        assert_eq!(
            cp.is_table,
            target == LinkTarget::Tables,
            "checkpoint belongs to the other link target"
        );
        assert_eq!(
            cp.corpus,
            model.corpus(),
            "checkpoint was taken under another synthesis corpus"
        );
        let mut session = Self::new_in(model, mbpp, inst, meta, target, ctx, None, config);
        session.rng = tinynn::rng::SplitMix64::new(cp.rng_state);
        session.would_be_correct = cp.would_be_correct;
        // rts-allow(iter-order): `cp.overrides` is the checkpoint's
        // sorted Vec (a field-name collision with the session's map);
        // collecting into a map is insertion-order independent anyway.
        session.overrides = cp.overrides.iter().cloned().collect();
        // rts-allow(iter-order): `cp.handled` is the checkpoint's
        // sorted Vec, same name collision as above.
        session.handled = cp.handled.iter().copied().collect();
        session.n_interventions = cp.n_interventions;
        session.n_flags = cp.n_flags;
        session.rounds_done = cp.rounds_done;
        session.stale = cp.stale;
        if cp.has_round {
            // Re-synthesize the evicted round: generation is
            // deterministic in (instance, overrides, layer set), so the
            // trace and vocabulary come back bit-identical.
            let mut vocab = Vocab::new();
            let trace = session.model.generate_with_overrides_and_layers(
                &session.inst,
                &mut vocab,
                target,
                GenMode::Free,
                &session.overrides,
                &session.monitor_layers,
                None,
                synth,
            );
            session.cur = Some(SessionRound::Owned(trace, vocab));
        }
        session.pending = cp.pending.clone().map(|query| PendingFlag { query });
        session
    }

    fn abstained_outcome(&self) -> RtsOutcome {
        RtsOutcome {
            abstained: true,
            predicted: Vec::new(),
            correct: false,
            would_be_correct: self.would_be_correct.unwrap_or(false),
            n_interventions: self.n_interventions,
            n_flags: self.n_flags,
        }
    }

    fn finish(&mut self, outcome: RtsOutcome) -> SessionState {
        // A finished session is pure result: release the round state
        // (trace + hidden stacks) eagerly instead of holding it until
        // the session object drops — a serving engine may keep finished
        // tickets around until clients collect them.
        self.cur = None;
        self.finished = Some(outcome.clone());
        SessionState::Done(outcome)
    }

    /// Advance the run: generate/monitor rounds until the next
    /// branching flag that needs feedback, or completion. Idempotent
    /// while suspended (re-polling returns the same query) and after
    /// completion (returns the same outcome).
    ///
    /// Every generation/monitoring call and its ordering mirrors the
    /// monolithic loop exactly; see the module docs for the parity
    /// contract.
    pub fn step(&mut self, scratch: &mut LinkScratch) -> SessionState {
        if let Some(outcome) = &self.finished {
            return SessionState::Done(outcome.clone());
        }
        if let Some(pending) = &self.pending {
            return SessionState::NeedsFeedback(pending.query.clone());
        }
        // One monitor cycle per step: every cycle either completes the
        // run or suspends on a flag (the monolith's loop continued here
        // only after its inline policy handling — which now lives in
        // `resolve`, between steps).
        if self.rounds_done >= self.max_rounds {
            // Round cap exceeded: give up and abstain (defensive;
            // unreachable in practice because every round handles
            // one element).
            let outcome = self.abstained_outcome();
            return self.finish(outcome);
        }
        self.rounds_done += 1;
        let round = if self.cur.is_none() || self.stale {
            // A stale round is the one a `Pin` superseded. The tokens it
            // emitted before the pinned element are the prefix the new
            // round continues from, so its hidden stacks seed the
            // regeneration (every step that matches in token, position
            // and latent signal is taken over, not re-synthesized) and
            // it drops right after. Both traces are live only for this
            // one call.
            let superseded = self.cur.take();
            let mut vocab = Vocab::new();
            let trace = self.model.generate_with_overrides_and_layers(
                &self.inst,
                &mut vocab,
                self.target,
                GenMode::Free,
                &self.overrides,
                &self.monitor_layers,
                superseded.as_ref().map(SessionRound::trace),
                &mut scratch.synth,
            );
            self.stale = false;
            SessionRound::Owned(trace, vocab)
        } else {
            self.cur.take().expect("round state populated")
        };
        let trace = round.trace();
        if self.would_be_correct.is_none() {
            // Round 0, no overrides: this stream is the counterfactual.
            self.would_be_correct = Some(trace.predicted_set() == self.gold_set);
        }
        let flags = self
            .mbpp
            .flag_trace_with_scratch(trace, &mut self.rng, &mut scratch.bpp);

        // First actionable flag: one raised on a not-yet-handled
        // element.
        let mut actionable: Option<(usize, usize)> = None; // (position, element_idx)
        for (pos, &flagged) in flags.iter().enumerate() {
            if !flagged {
                continue;
            }
            self.n_flags += 1;
            if actionable.is_none() {
                if let Some(ei) = trace.steps[pos].element_idx {
                    if !self.handled.contains(&ei) {
                        actionable = Some((pos, ei));
                    }
                }
            }
        }

        let Some((branch_pos, element_idx)) = actionable else {
            // Clean run (or only spurious separator flags): accept.
            let predicted = trace.predicted_set();
            let correct = predicted == self.gold_set;
            let outcome = RtsOutcome {
                abstained: false,
                predicted,
                correct,
                would_be_correct: self.would_be_correct.unwrap_or(false),
                n_interventions: self.n_interventions,
                n_flags: self.n_flags,
            };
            drop(round); // accepted: the stream's job is done
            return self.finish(outcome);
        };

        // Suspend: trace the flag back (Algorithm 2) and hand the
        // self-contained query to whoever provides feedback. The
        // monolith computed the implicated set inside the policy
        // arms; hoisting it here is outcome-neutral (it is a pure
        // function of the stream and consumes no RNG).
        let implicated = crate::abstention::implicated(
            self.ctx.as_deref(),
            round.vocab(),
            &self.meta,
            self.target,
            &trace.tokens,
            branch_pos,
        );
        let query = FlagQuery {
            instance: self.inst.id,
            is_table: self.target == LinkTarget::Tables,
            round: self.rounds_done - 1,
            branch_pos,
            element_idx,
            gold_element: self.gold[element_idx].clone(),
            implicated,
            predicted: trace.predicted.clone(),
        };
        self.cur = Some(round);
        self.pending = Some(PendingFlag {
            query: query.clone(),
        });
        SessionState::NeedsFeedback(query)
    }

    /// Apply feedback to the suspended flag and un-suspend. The next
    /// [`LinkSession::step`] continues the run (or reports the
    /// abstention this resolution decided).
    ///
    /// Panics if the session is not suspended — resolving a session
    /// that never asked is a protocol error, not a recoverable state.
    pub fn resolve(&mut self, resolution: FlagResolution) {
        let pending = self
            .pending
            .take()
            .expect("resolve called with no pending flag");
        match resolution {
            FlagResolution::Abstain { consulted } => {
                if consulted {
                    self.n_interventions += 1;
                }
                self.finished = Some(self.abstained_outcome());
                // The run is over; the parked round will never be read.
                self.cur = None;
            }
            FlagResolution::Continue => {
                // Generation continues unchanged; don't re-consult for
                // the same element. The stream is not stale — the next
                // round reuses it.
                self.n_interventions += 1;
                self.handled.insert(pending.query.element_idx);
            }
            FlagResolution::Pin(decision) => {
                self.n_interventions += 1;
                self.handled.insert(pending.query.element_idx);
                self.overrides.insert(pending.query.gold_element, decision);
                // The pinned decision changes the stream: the next
                // `step` regenerates. The now-stale round stays as that
                // regeneration's reuse source — its stacks up to the
                // pinned element are exactly the ones the new stream
                // needs — and is dropped by that step. The bound: a
                // resolved, queued ticket holds at most this one
                // superseded trace until a worker steps it, and the
                // serving engine neither bills it (billing ends at
                // unpark) nor evicts it (only tickets awaiting
                // feedback are).
                self.stale = true;
            }
        }
    }
}

/// Answer a [`FlagQuery`] the way the monolithic loop's policy arms
/// did — the policy side of the session split. Pure: consults only the
/// policy's own (deterministic) models, never the session.
pub fn resolve_flag(
    policy: &MitigationPolicy<'_>,
    inst: &Instance,
    query: &FlagQuery,
) -> FlagResolution {
    match policy {
        MitigationPolicy::AbstainOnly => FlagResolution::Abstain { consulted: false },
        MitigationPolicy::Surrogate(surrogate) => {
            // §3.3: halt only if the surrogate explicitly confirms
            // irrelevance of the implicated elements.
            let all_irrelevant = !query.implicated.is_empty()
                && query
                    .implicated
                    .iter()
                    .all(|e| !surrogate.is_relevant(inst, e, query.is_table));
            if all_irrelevant {
                FlagResolution::Abstain { consulted: true }
            } else {
                FlagResolution::Continue
            }
        }
        MitigationPolicy::Human(oracle) => {
            let gold_set = {
                let mut g = SchemaLinker::gold_elements(inst, query.target());
                g.sort();
                g
            };
            let gold_element = &query.gold_element;
            // Confirm candidates in turn (§3.3): an affirmed candidate
            // is pinned and generation proceeds with it. A candidate
            // already linked elsewhere in the answer cannot fill this
            // slot (affirming it would just duplicate the element), so
            // it is skipped and the interaction falls through to the
            // "name the correct element" request.
            let mut resolved: Option<String> = None;
            for cand in &query.implicated {
                let already_linked = cand != gold_element && query.predicted.contains(cand);
                if already_linked {
                    continue;
                }
                let truly = gold_set.binary_search(cand).is_ok();
                if oracle.judge_relevance(inst, cand, query.is_table, truly) {
                    resolved = Some(cand.clone());
                    break;
                }
            }
            // All rejected: the user names the correct element.
            let chosen = resolved.unwrap_or_else(|| {
                let distractors: Vec<String> = inst
                    .links
                    .iter()
                    .filter(|l| l.element.to_string() == *gold_element)
                    .flat_map(|l| l.confusables.iter())
                    .filter(|c| c.alt.is_table() == query.is_table)
                    .map(|c| c.alt.to_string())
                    .collect();
                oracle.provide_element(inst, gold_element, &distractors, query.is_table)
            });
            if &chosen == gold_element {
                FlagResolution::Pin(Decision::Correct)
            } else {
                FlagResolution::Pin(Decision::Substitute(chosen))
            }
        }
    }
}

/// Drive a session to completion against a policy — the blocking shape
/// every classic entry point reduces to.
pub fn drive_session(
    session: &mut LinkSession<'_>,
    policy: &MitigationPolicy<'_>,
    scratch: &mut LinkScratch,
) -> RtsOutcome {
    loop {
        match session.step(scratch) {
            SessionState::Done(outcome) => return outcome,
            SessionState::NeedsFeedback(query) => {
                let resolution = resolve_flag(policy, session.instance(), &query);
                session.resolve(resolution);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstention::run_rts_linking_monolithic;
    use crate::bpp::{MbppConfig, ProbeConfig};
    use crate::branching::BranchDataset;
    use crate::context::LinkContexts;
    use crate::human::{Expertise, HumanOracle};
    use crate::surrogate::SurrogateModel;
    use benchgen::{Benchmark, BenchmarkProfile};

    struct Fx {
        bench: Benchmark,
        model: SchemaLinker,
        mbpp: Mbpp,
        contexts: LinkContexts,
    }

    fn fixture() -> Fx {
        let bench = BenchmarkProfile::bird_like().scaled(0.04).generate(64);
        let model = SchemaLinker::new("bird", 13);
        let ds = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 350);
        let mbpp = Mbpp::train(
            &ds,
            &MbppConfig {
                probe: ProbeConfig {
                    epochs: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let contexts = LinkContexts::build(&bench);
        Fx {
            bench,
            model,
            mbpp,
            contexts,
        }
    }

    #[test]
    fn driven_session_matches_monolithic_loop_for_all_policies() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let surrogate = SurrogateModel::train(&fx.bench, 3);
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        for policy in [
            MitigationPolicy::AbstainOnly,
            MitigationPolicy::Surrogate(&surrogate),
            MitigationPolicy::Human(&oracle),
        ] {
            for inst in fx.bench.split.dev.iter().take(50) {
                let meta = fx.bench.meta(&inst.db_name).unwrap();
                let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
                let mut session = LinkSession::new(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    Some(CtxHandle::Borrowed(ctx)),
                    None,
                    &config,
                );
                let stepped = drive_session(&mut session, &policy, &mut scratch);
                let monolithic = run_rts_linking_monolithic(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    Some(ctx),
                    None,
                    &policy,
                    &config,
                    &mut scratch,
                );
                assert_eq!(
                    format!("{stepped:?}"),
                    format!("{monolithic:?}"),
                    "inst {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn step_is_idempotent_while_suspended_and_after_done() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let policy = MitigationPolicy::Human(&oracle);
        let mut exercised_suspend = false;
        for inst in fx.bench.split.dev.iter().take(60) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            let mut session = LinkSession::new(
                &fx.model,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            loop {
                match session.step(&mut scratch) {
                    SessionState::Done(a) => {
                        let SessionState::Done(b) = session.step(&mut scratch) else {
                            panic!("done session stepped back to life");
                        };
                        assert_eq!(format!("{a:?}"), format!("{b:?}"));
                        break;
                    }
                    SessionState::NeedsFeedback(q) => {
                        exercised_suspend = true;
                        // A suspended session holds its round state.
                        assert!(session.held_bytes() > 0);
                        assert_eq!(session.pending_query(), Some(&q));
                        let SessionState::NeedsFeedback(q2) = session.step(&mut scratch) else {
                            panic!("suspended session advanced without feedback");
                        };
                        assert_eq!(q, q2, "re-poll must return the same query");
                        let r = resolve_flag(&policy, inst, &q);
                        session.resolve(r);
                    }
                }
            }
        }
        assert!(exercised_suspend, "no session ever suspended");
    }

    #[test]
    fn checkpoint_roundtrip_restores_bit_identical_sessions() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let policy = MitigationPolicy::Human(&oracle);
        let mut exercised = 0usize;
        for inst in fx.bench.split.dev.iter().take(60) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            // Reference drive: never checkpointed.
            let mut plain = LinkSession::new(
                &fx.model,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            let expected = drive_session(&mut plain, &policy, &mut scratch);
            // Checkpointing drive: serialize + drop + restore at every
            // suspension.
            let mut session = LinkSession::new(
                &fx.model,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            let outcome = loop {
                match session.step(&mut scratch) {
                    SessionState::Done(o) => break o,
                    SessionState::NeedsFeedback(q) => {
                        exercised += 1;
                        let held_before = session.held_bytes();
                        let cp = session.checkpoint();
                        let json = serde_json::to_string(&cp).expect("checkpoint serializes");
                        let back: SessionCheckpoint =
                            serde_json::from_str(&json).expect("checkpoint parses");
                        assert_eq!(cp, back, "checkpoint must survive the serde shim");
                        // Drop the live session (hidden stacks freed)…
                        session = LinkSession::restore(
                            &fx.model,
                            &fx.mbpp,
                            inst,
                            meta,
                            LinkTarget::Tables,
                            Some(CtxHandle::Borrowed(ctx)),
                            &config,
                            &back,
                            &mut scratch.synth,
                        );
                        // …and the restored one is indistinguishable.
                        assert_eq!(session.pending_query(), Some(&q));
                        assert_eq!(session.held_bytes(), held_before);
                        session.resolve(resolve_flag(&policy, inst, &q));
                    }
                }
            };
            assert_eq!(
                format!("{outcome:?}"),
                format!("{expected:?}"),
                "checkpointed drive diverged on instance {}",
                inst.id
            );
        }
        assert!(exercised > 0, "no session ever suspended at this scale");
    }

    #[test]
    fn regeneration_after_a_pin_reuses_the_superseded_round() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let policy = MitigationPolicy::Human(&oracle);
        let mut longest_on_last = 0usize;
        for inst in fx.bench.split.dev.iter().take(60) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            let mut session = LinkSession::new(
                &fx.model,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            // `step` is idempotent while suspended, so the measuring
            // step below may be followed by the loop's own.
            while let SessionState::NeedsFeedback(q) = session.step(&mut scratch) {
                session.resolve(resolve_flag(&policy, inst, &q));
                if !session.stale {
                    continue;
                }
                // The superseded round stays until the next step.
                let superseded = session.cur.as_ref().expect("kept").trace().clone();
                let fresh = fx.model.generate_with_overrides_and_layers(
                    inst,
                    &mut Vocab::new(),
                    LinkTarget::Tables,
                    GenMode::Free,
                    &session.overrides,
                    &session.monitor_layers,
                    None,
                    &mut simlm::SynthScratch::default(),
                );
                let before = scratch.synth.stacks_synthesized();
                let _ = session.step(&mut scratch);
                let synthesized = scratch.synth.stacks_synthesized() - before;
                // Every token the new stream shares with the superseded
                // one from the start is taken over, not synthesized.
                let shared = superseded
                    .steps
                    .iter()
                    .zip(&fresh.steps)
                    .take_while(|(a, b)| a.token == b.token && a.hidden == b.hidden)
                    .count();
                assert!(shared >= 2, "the header is always shared");
                assert!(
                    synthesized + shared <= fresh.steps.len(),
                    "instance {}: {synthesized} synthesized, {shared} of {} shared",
                    inst.id,
                    fresh.steps.len()
                );
                if q.element_idx + 1 == session.gold.len() {
                    longest_on_last = longest_on_last.max(shared);
                }
            }
        }
        // A pin on the last gold element keeps earlier elements' tokens.
        assert!(
            longest_on_last > 2,
            "no pin on a last gold element reused an element"
        );
    }

    #[test]
    #[should_panic(expected = "only a suspended session")]
    fn checkpoint_of_unsuspended_session_panics() {
        let fx = fixture();
        let inst = &fx.bench.split.dev[0];
        let meta = fx.bench.meta(&inst.db_name).unwrap();
        let session = LinkSession::new(
            &fx.model,
            &fx.mbpp,
            inst,
            meta,
            LinkTarget::Tables,
            None,
            None,
            &RtsConfig::default(),
        );
        let _ = session.checkpoint();
    }

    #[test]
    fn finished_sessions_release_their_round_state() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let policy = MitigationPolicy::Human(&oracle);
        for inst in fx.bench.split.dev.iter().take(20) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            let mut session = LinkSession::new(
                &fx.model,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            drive_session(&mut session, &policy, &mut scratch);
            assert_eq!(
                session.held_bytes(),
                0,
                "a done session must not park trace memory (instance {})",
                inst.id
            );
        }
    }

    #[test]
    fn abstain_resolution_bills_only_consultations() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        // Find a flagged instance and abstain both ways.
        for inst in fx.bench.split.dev.iter().take(60) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            let mk = || {
                LinkSession::new(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    Some(CtxHandle::Borrowed(ctx)),
                    None,
                    &config,
                )
            };
            let mut silent = mk();
            if let SessionState::NeedsFeedback(_) = silent.step(&mut scratch) {
                silent.resolve(FlagResolution::Abstain { consulted: false });
                let SessionState::Done(o) = silent.step(&mut scratch) else {
                    panic!("abstain must finish the session");
                };
                assert!(o.abstained);
                assert_eq!(o.n_interventions, 0);

                let mut consulted = mk();
                let _ = consulted.step(&mut scratch);
                consulted.resolve(FlagResolution::Abstain { consulted: true });
                let SessionState::Done(o) = consulted.step(&mut scratch) else {
                    panic!("abstain must finish the session");
                };
                assert_eq!(o.n_interventions, 1);
                return;
            }
        }
        panic!("no instance flagged at this scale");
    }
}
