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
//! point its [`LinkSession::checkpoint`] captures everything it holds
//! and it can be dropped; [`LinkSession::restore`] brings it back, and
//! [`LinkSession::resolve`] continues it once feedback arrives. A
//! session borrows its model artefacts, so it lives on one stack: an
//! online serving engine (`rts-serve`) keeps each parked request as its
//! checkpoint, without pinning workers, and restores a session at every
//! dispatch. The classic blocking entry points are thin drivers looping
//! `step()`/`resolve()` against a policy.
//!
//! Bit-identity contract: driving a session with
//! [`resolve_flag`]/[`drive_session`] reproduces the pre-session
//! monolithic loop *exactly* — same flags, same merge-RNG stream, same
//! interventions, same outcomes (the monolith is kept as
//! [`crate::abstention::run_rts_linking_monolithic`] and pinned by the
//! `session_linking_matches_monolithic_loop` parity proptest), so
//! every committed `results/*.json` is unchanged by the refactor.

use crate::abstention::{LinkScratch, MitigationPolicy, Round0, RtsConfig, RtsOutcome};
use crate::bpp::{Mbpp, RoundSets};
use crate::context::LinkContext;
use benchgen::schemagen::DbMeta;
use benchgen::Instance;
use serde::{Deserialize, Serialize};
use simlm::{Decision, GenMode, LinkTarget, SchemaLinker, Vocab};
use std::collections::{HashMap, HashSet};

/// How a session holds its [`LinkContext`]: borrowed for the
/// session's lifetime. Every artefact a session reads is borrowed; a
/// session lives only on its driver's stack (a serving engine restores
/// a parked one from its [`SessionCheckpoint`] at each dispatch).
#[derive(Debug, Clone, Copy)]
pub enum CtxHandle<'a> {
    Borrowed(&'a LinkContext),
}

impl std::ops::Deref for CtxHandle<'_> {
    type Target = LinkContext;

    fn deref(&self) -> &LinkContext {
        match self {
            CtxHandle::Borrowed(ctx) => ctx,
        }
    }
}

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

/// The state of a suspended [`LinkSession`] — everything a parked
/// session owns that cannot be rebuilt from its construction
/// arguments — and, through [`SessionCheckpoint::to_bytes`], the form
/// in which a session leaves the process.
///
/// A suspended session holds no hidden stacks: of its last round it
/// keeps only what the monitor read off them, each position's step key
/// and the selected probes' label sets ([`RoundSets`]), and the
/// checkpoint carries those as they are. So [`LinkSession::restore`]
/// synthesizes nothing, and the regeneration that follows the feedback
/// skips every position whose key the restored round already
/// monitored, as a session that never parked does. The sets are only
/// valid for the monitor that produced them, so the checkpoint is
/// stamped with [`monitor_fingerprint`] and restore refuses another
/// monitor's, as it refuses another corpus's. The rest is the state
/// generation does not determine: the override map, the merge-RNG
/// state (flags already consumed draws from it), the flag/intervention
/// counters, the handled-element set, and the pending query. Pinned end
/// to end by the `checkpoint_roundtrip_matches_monolithic_loop` parity
/// proptest.
///
/// The byte layout ([`SessionCheckpoint::to_bytes`]) is a hand-written
/// binary one, a few hundred bytes for a typical park:
///
/// - a magic byte `0xC5` and a format-version byte (`2`);
/// - `instance` (LEB128), `is_table` (a `0`/`1` byte), `corpus` (a tag
///   byte: `2` = [`simlm::CorpusVersion::V2`]);
/// - `monitor` and `rng_state`, each 8 bytes little-endian;
/// - `would_be_correct`: a tag byte, `0` = none, `1` = `Some(false)`,
///   `2` = `Some(true)`;
/// - `overrides`: a count, then per entry the element and its
///   [`Decision`]: a tag byte (`0` = `Correct`, `1` = `Substitute`,
///   `2` = `Omit`, `3` = `AddExtra`), `Substitute` and `AddExtra`
///   followed by their element;
/// - `handled`: a count, then each index; `n_interventions`, `n_flags`
///   and `rounds_done`;
/// - `sets`: `k`, the position count, then per position the token id,
///   the 8 bytes of `s` and the `k` sets at 2 bits each, zero-padded to
///   whole bytes;
/// - `pending`: a tag byte, `0` = none, `1` = a [`FlagQuery`] follows
///   (`instance`, `is_table`, `round`, `branch_pos`, `element_idx`,
///   `gold_element`, then `implicated` and `predicted` as counted
///   string lists);
/// - a checksum: the [`tinynn::rng::stable_hash`] of every byte before
///   it, 8 bytes little-endian.
///
/// Counts, indices and lengths are LEB128 and strings are a byte
/// length then UTF-8. The encoding is canonical: a decoder refuses an
/// unknown version or tag, overlong LEB128, nonzero padding and
/// trailing bytes, so every input [`SessionCheckpoint::from_bytes`]
/// accepts re-encodes to itself. The checksum makes corruption that
/// would still parse an `Err` too: every single-byte change fails to
/// decode, so an engine salvages a damaged park instead of restoring
/// other state as if it were the parked one.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// Instance id the session links (restore refuses a mismatch).
    pub instance: u64,
    /// `true` = table linking, `false` = column linking.
    pub is_table: bool,
    /// Synthesis corpus the suspended round was generated under: the
    /// next round regenerates under the restoring model's corpus, so a
    /// checkpoint replayed against another one would continue from
    /// different streams mid-session; recording the version makes the
    /// mismatch detectable (restore asserts it, the serving engine
    /// degrades on it).
    pub corpus: simlm::CorpusVersion,
    /// [`monitor_fingerprint`] of the linker and monitor that produced
    /// `sets` (restore asserts it, the serving engine degrades on it).
    pub monitor: u64,
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
    /// The suspended round's step keys and label sets.
    pub sets: RoundSets,
    /// The flag the session is suspended on.
    pub pending: Option<FlagQuery>,
}

/// The fingerprint a checkpoint's label sets are stamped with: the
/// monitor's [`Mbpp::fingerprint`] plus the linker's synthesis
/// identity (seed and shape; its corpus is stamped apart), since a set
/// depends on both the probes and the hidden stack they read.
pub fn monitor_fingerprint(model: &SchemaLinker, mbpp: &Mbpp) -> u64 {
    let words = [
        mbpp.fingerprint(),
        model.seed,
        model.n_layers as u64,
        model.hidden_dim as u64,
    ];
    tinynn::rng::stable_hash(&words.map(u64::to_le_bytes).concat())
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

    /// Encode into the binary layout described on [`SessionCheckpoint`].
    /// Deterministic: the same checkpoint always gives the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256 + 16 * self.sets.step_keys().len());
        out.extend_from_slice(&[CHECKPOINT_MAGIC, CHECKPOINT_VERSION]);
        put_varint(&mut out, self.instance);
        out.push(u8::from(self.is_table));
        out.push(match self.corpus {
            simlm::CorpusVersion::V2 => 2,
        });
        out.extend_from_slice(&self.monitor.to_le_bytes());
        out.extend_from_slice(&self.rng_state.to_le_bytes());
        out.push(match self.would_be_correct {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
        put_varint(&mut out, self.overrides.len() as u64);
        for (element, decision) in &self.overrides {
            put_str(&mut out, element);
            match decision {
                Decision::Correct => out.push(0),
                Decision::Substitute(e) => {
                    out.push(1);
                    put_str(&mut out, e);
                }
                Decision::Omit => out.push(2),
                Decision::AddExtra(e) => {
                    out.push(3);
                    put_str(&mut out, e);
                }
            }
        }
        put_varint(&mut out, self.handled.len() as u64);
        for &h in &self.handled {
            put_varint(&mut out, h as u64);
        }
        for n in [self.n_interventions, self.n_flags, self.rounds_done] {
            put_varint(&mut out, n as u64);
        }
        self.sets.write_bytes(&mut out);
        match &self.pending {
            None => out.push(0),
            Some(q) => {
                out.push(1);
                put_varint(&mut out, q.instance);
                out.push(u8::from(q.is_table));
                for n in [q.round, q.branch_pos, q.element_idx] {
                    put_varint(&mut out, n as u64);
                }
                put_str(&mut out, &q.gold_element);
                for list in [&q.implicated, &q.predicted] {
                    put_varint(&mut out, list.len() as u64);
                    for e in list {
                        put_str(&mut out, e);
                    }
                }
            }
        }
        seal(&mut out);
        out
    }

    /// Decode [`SessionCheckpoint::to_bytes`]'s bytes. Never panics:
    /// every length and count is checked against the bytes left before
    /// anything is allocated, and a wrong magic byte, an unknown version,
    /// a checksum mismatch, an unknown tag, a truncation or trailing
    /// bytes are an `Err`.
    pub fn from_bytes(bytes: &[u8]) -> Result<SessionCheckpoint, DecodeError> {
        if bytes.first() != Some(&CHECKPOINT_MAGIC) {
            return Err(DecodeError("not a session checkpoint"));
        }
        if bytes.get(1) != Some(&CHECKPOINT_VERSION) {
            return Err(DecodeError("unknown format version"));
        }
        let Some(sealed) = bytes.len().checked_sub(CHECKSUM_LEN).filter(|&n| n >= 2) else {
            return Err(DecodeError("truncated or malformed"));
        };
        let (content, checksum) = bytes.split_at(sealed);
        if checksum != tinynn::rng::stable_hash(content).to_le_bytes() {
            return Err(DecodeError("checksum mismatch"));
        }
        let mut r = ByteReader::new(&content[2..]);
        let cp = Self::read_body(&mut r).ok_or(DecodeError("truncated or malformed"))?;
        if !r.is_empty() {
            return Err(DecodeError("trailing bytes"));
        }
        Ok(cp)
    }

    fn read_body(r: &mut ByteReader<'_>) -> Option<SessionCheckpoint> {
        let instance = r.varint()?;
        let is_table = r.bool()?;
        let corpus = match r.byte()? {
            2 => simlm::CorpusVersion::V2,
            _ => return None,
        };
        let monitor = r.u64_le()?;
        let rng_state = r.u64_le()?;
        let would_be_correct = match r.byte()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return None,
        };
        // An override takes at least a length byte and a tag byte.
        let n = r.count(2)?;
        let mut overrides = Vec::with_capacity(n);
        for _ in 0..n {
            let element = r.string()?;
            let decision = match r.byte()? {
                0 => Decision::Correct,
                1 => Decision::Substitute(r.string()?),
                2 => Decision::Omit,
                3 => Decision::AddExtra(r.string()?),
                _ => return None,
            };
            overrides.push((element, decision));
        }
        let n = r.count(1)?;
        let mut handled = Vec::with_capacity(n);
        for _ in 0..n {
            handled.push(r.usize()?);
        }
        let n_interventions = r.usize()?;
        let n_flags = r.usize()?;
        let rounds_done = r.usize()?;
        let sets = RoundSets::read_bytes(r)?;
        let pending = match r.byte()? {
            0 => None,
            1 => Some(FlagQuery {
                instance: r.varint()?,
                is_table: r.bool()?,
                round: r.usize()?,
                branch_pos: r.usize()?,
                element_idx: r.usize()?,
                gold_element: r.string()?,
                implicated: r.strings()?,
                predicted: r.strings()?,
            }),
            _ => return None,
        };
        Some(SessionCheckpoint {
            instance,
            is_table,
            corpus,
            monitor,
            rng_state,
            would_be_correct,
            overrides,
            handled,
            n_interventions,
            n_flags,
            rounds_done,
            sets,
            pending,
        })
    }
}

/// First byte of every encoded [`SessionCheckpoint`].
const CHECKPOINT_MAGIC: u8 = 0xC5;
/// The layout version [`SessionCheckpoint::to_bytes`] writes, the only
/// one [`SessionCheckpoint::from_bytes`] reads.
const CHECKPOINT_VERSION: u8 = 2;
/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Append the checksum of everything in `out`: its
/// [`tinynn::rng::stable_hash`], 8 bytes little-endian.
fn seal(out: &mut Vec<u8>) {
    let checksum = tinynn::rng::stable_hash(out);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Why checkpoint bytes failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(&'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt session checkpoint: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Append `v` as unsigned LEB128.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over checkpoint bytes. Every read is `None` past the end
/// or on a malformed value; nothing panics.
pub(crate) struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        ByteReader { rest: bytes }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    fn byte(&mut self) -> Option<u8> {
        let (&b, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(b)
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.rest.len() {
            return None;
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Some(head)
    }

    fn bool(&mut self) -> Option<bool> {
        match self.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub(crate) fn u64_le(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Unsigned LEB128, refusing overlong forms and bits past 64.
    pub(crate) fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return (b != 0 || shift == 0).then_some(v);
            }
        }
        None
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok()
    }

    /// A count of items that take at least `min_each` (≥ 1) bytes each,
    /// refused when the bytes left cannot hold that many.
    pub(crate) fn count(&mut self, min_each: usize) -> Option<usize> {
        let n = self.usize()?;
        (n.checked_mul(min_each)? <= self.rest.len()).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).ok().map(str::to_owned)
    }

    fn strings(&mut self) -> Option<Vec<String>> {
        let n = self.count(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.string()?);
        }
        Some(out)
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

/// One monitored linking run as an explicit resumable state machine.
///
/// Construction mirrors the entry points of
/// [`crate::abstention::run_rts_linking`]: a context-backed session
/// (optionally consuming a pre-generated [`Round0`]) or, without a
/// context, the context-free fallback the serving engine takes when a
/// context build fails — outcome-identical, with implicated sets from
/// [`crate::context::implicated_elements_reference`].
///
/// The session owns everything the loop accumulated (the last round's
/// keys and label sets, overrides, handled set, merge RNG, flag/
/// intervention counters); the round's trace lives only inside one
/// [`LinkSession::step`], and scratch buffers stay caller-owned, so a
/// parked session holds only state — no hidden stacks, no scratch.
#[derive(Debug)]
pub struct LinkSession<'a> {
    model: &'a SchemaLinker,
    mbpp: &'a Mbpp,
    inst: &'a Instance,
    meta: &'a DbMeta,
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
    /// The caller's pre-generated round 0, consumed by the first step.
    round0: Option<Round0<'a>>,
    /// The last monitored round's step keys and label sets: what the
    /// next round takes over at every position whose key is unchanged.
    round: RoundSets,
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
        let gold = SchemaLinker::gold_elements(inst, target);
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
            round0,
            round: RoundSets::default(),
            rounds_done: 0,
            pending: None,
            finished: None,
        }
    }

    /// The instance this session is linking.
    pub fn instance(&self) -> &Instance {
        self.inst
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

    /// Bytes of round state the session holds while parked: the last
    /// round's step keys and label sets, a few bytes per position and
    /// never 0 while suspended (a flagged round has positions). What a
    /// serving engine bills a suspended request for. Between a `Pin`
    /// and the next step this is the superseded round, which that
    /// step takes over wherever the key is unchanged.
    pub fn held_bytes(&self) -> usize {
        self.round.held_bytes()
    }

    /// Snapshot a *suspended* session into its serializable state (see
    /// [`SessionCheckpoint`] for what it stores).
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
            monitor: monitor_fingerprint(self.model, self.mbpp),
            rng_state: self.rng.state(),
            would_be_correct: self.would_be_correct,
            overrides,
            handled,
            n_interventions: self.n_interventions,
            n_flags: self.n_flags,
            rounds_done: self.rounds_done,
            sets: self.round.clone(),
            pending: self.pending.as_ref().map(|p| p.query.clone()),
        }
    }

    /// Rebuild a suspended session from a [`SessionCheckpoint`]: the
    /// construction arguments come back from the caller (the serving
    /// engine's shared artefacts and the ticket's instance) and the
    /// recorded state, the round's keys and label sets included, is
    /// restored verbatim. Nothing is
    /// synthesized (`_synth` is unused). Bit-identical to a session that
    /// was never checkpointed: same pending query, same `held_bytes`,
    /// same flags/RNG/outcomes downstream (pinned by the
    /// checkpoint-roundtrip parity proptest).
    ///
    /// Panics when the checkpoint does not belong to `(inst, target)`,
    /// or was taken under another corpus or another monitor
    /// ([`monitor_fingerprint`]).
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
        _synth: &mut simlm::SynthScratch,
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
        assert_eq!(
            cp.monitor,
            monitor_fingerprint(model, mbpp),
            "checkpoint was taken under another monitor"
        );
        let k = mbpp.selected.len();
        let mut session = Self::new(model, mbpp, inst, meta, target, ctx, None, config);
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
        // The sets only spare work: should they not fit this monitor,
        // the next round synthesizes and scores every position, with
        // the same flags.
        if cp.sets.fits(k) {
            session.round = cp.sets.clone();
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
        // eagerly instead of holding it until the session object drops
        // — a serving engine may keep finished tickets around until
        // clients collect them.
        self.round = RoundSets::default();
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
        let generated;
        let (trace, vocab) = match self.round0.take() {
            Some(r) => (r.trace, r.vocab),
            None => {
                // Every later round regenerates the stream under the
                // current overrides. Where a position's key is the one
                // the last round monitored (the prefix before a pinned
                // element; all of a stream a `Continue` left unchanged),
                // synthesis skips it and the monitor takes its sets
                // from `self.round`: the tokens the model already
                // emitted are neither re-synthesized nor re-scored.
                let mut vocab = Vocab::new();
                let trace = self.model.generate_with_overrides_and_layers(
                    self.inst,
                    &mut vocab,
                    self.target,
                    GenMode::Free,
                    &self.overrides,
                    &self.monitor_layers,
                    self.round.step_keys(),
                    &mut scratch.synth,
                );
                generated = (trace, vocab);
                (&generated.0, &generated.1)
            }
        };
        if self.would_be_correct.is_none() {
            // Round 0, no overrides: this stream is the counterfactual.
            self.would_be_correct = Some(trace.predicted_set() == self.gold_set);
        }
        let flags =
            self.mbpp
                .flag_trace_reusing(trace, &mut self.round, &mut self.rng, &mut scratch.bpp);

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
            return self.finish(outcome);
        };

        // Suspend: trace the flag back (Algorithm 2) and hand the
        // self-contained query to whoever provides feedback. The
        // monolith computed the implicated set inside the policy
        // arms; hoisting it here is outcome-neutral (it is a pure
        // function of the stream and consumes no RNG).
        let implicated = crate::abstention::implicated(
            self.ctx.as_deref(),
            vocab,
            self.meta,
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
                self.round = RoundSets::default();
            }
            FlagResolution::Continue => {
                // Generation continues unchanged; don't re-consult for
                // the same element. The next round regenerates the same
                // stream, every key unchanged: nothing is synthesized
                // or scored, only merged afresh.
                self.n_interventions += 1;
                self.handled.insert(pending.query.element_idx);
            }
            FlagResolution::Pin(decision) => {
                self.n_interventions += 1;
                self.handled.insert(pending.query.element_idx);
                self.overrides.insert(pending.query.gold_element, decision);
                // The pinned decision changes the stream from the
                // pinned element on; the next `step` regenerates and
                // takes the superseded round's sets over wherever the
                // key is unchanged.
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
                let truly = SchemaLinker::is_gold(inst, query.target(), cand);
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
                    .filter(|l| l.element.display_eq(gold_element))
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
                        let back = SessionCheckpoint::from_bytes(&cp.to_bytes())
                            .expect("checkpoint bytes decode");
                        assert_eq!(cp, back, "checkpoint must survive the byte codec");
                        // Drop the live session…
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

    /// How many positions of a fresh generation under the session's
    /// current overrides have a key other than the session's round.
    fn changed_keys(fx: &Fx, session: &LinkSession<'_>) -> (usize, usize) {
        let fresh = fx.model.generate_with_overrides_and_layers(
            session.inst,
            &mut Vocab::new(),
            session.target,
            GenMode::Free,
            &session.overrides,
            &session.monitor_layers,
            &[],
            &mut simlm::SynthScratch::default(),
        );
        let kept = session.round.step_keys();
        let changed = (fresh.steps.iter().enumerate())
            .filter(|(pos, step)| kept.get(*pos) != Some(&step.key()))
            .count();
        (changed, fresh.steps.len())
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
                let resolution = resolve_flag(&policy, inst, &q);
                let pinned = matches!(resolution, FlagResolution::Pin(_));
                session.resolve(resolution);
                if !pinned {
                    continue;
                }
                // The superseded round's keys stay until the next step.
                let (changed, len) = changed_keys(&fx, &session);
                let before = scratch.synth.stacks_synthesized();
                let _ = session.step(&mut scratch);
                // Only the positions whose key the pin changed are
                // synthesized; the rest keep the superseded sets.
                assert_eq!(
                    scratch.synth.stacks_synthesized() - before,
                    changed,
                    "instance {}",
                    inst.id
                );
                let shared = len - changed;
                assert!(shared >= 2, "the header is always shared");
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
    fn restored_sessions_synthesize_only_what_the_resolution_changed() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let oracle = HumanOracle::new(Expertise::Expert, 5);
        let human = MitigationPolicy::Human(&oracle);
        let (mut pins, mut continues) = (0usize, 0usize);
        for inst in fx.bench.split.dev.iter().take(60) {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, LinkTarget::Tables);
            for continue_all in [false, true] {
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
                while let SessionState::NeedsFeedback(q) = session.step(&mut scratch) {
                    assert!(session.held_bytes() > 1, "a parked session bills its round");
                    let bytes = session.checkpoint().to_bytes();
                    let cp = SessionCheckpoint::from_bytes(&bytes).unwrap();
                    let before = scratch.synth.stacks_synthesized();
                    session = LinkSession::restore(
                        &fx.model,
                        &fx.mbpp,
                        inst,
                        meta,
                        LinkTarget::Tables,
                        Some(CtxHandle::Borrowed(ctx)),
                        &config,
                        &cp,
                        &mut scratch.synth,
                    );
                    assert_eq!(scratch.synth.stacks_synthesized(), before, "restore");
                    let resolution = if continue_all {
                        FlagResolution::Continue
                    } else {
                        resolve_flag(&human, inst, &q)
                    };
                    let counted = match resolution {
                        FlagResolution::Continue => &mut continues,
                        _ => &mut pins,
                    };
                    session.resolve(resolution);
                    let (changed, _) = changed_keys(&fx, &session);
                    let _ = session.step(&mut scratch);
                    assert_eq!(
                        scratch.synth.stacks_synthesized() - before,
                        changed,
                        "instance {}",
                        inst.id
                    );
                    if continue_all {
                        assert_eq!(changed, 0, "a Continue changes no key");
                    }
                    *counted += 1;
                }
            }
        }
        assert!(
            pins > 0 && continues > 0,
            "{pins} pins, {continues} continues"
        );
    }

    #[test]
    #[should_panic(expected = "another monitor")]
    fn restore_refuses_a_checkpoint_from_another_monitor() {
        let fx = fixture();
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let other = fx.mbpp.with_alpha(0.2);
        for inst in &fx.bench.split.dev {
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let mut session = LinkSession::new(
                &fx.model,
                &other,
                inst,
                meta,
                LinkTarget::Tables,
                None,
                None,
                &config,
            );
            if let SessionState::NeedsFeedback(_) = session.step(&mut scratch) {
                let cp = session.checkpoint();
                let _ = LinkSession::restore(
                    &fx.model,
                    &fx.mbpp,
                    inst,
                    meta,
                    LinkTarget::Tables,
                    None,
                    &config,
                    &cp,
                    &mut scratch.synth,
                );
            }
        }
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

/// The checkpoint byte codec on its own; the session tests above drive
/// it end to end.
#[cfg(test)]
mod codec_tests {
    use super::*;
    use conformal::LabelSet;
    use proptest::prelude::*;
    use simlm::StepKey;

    /// The four sets over the binary label space.
    fn binary_set(i: usize) -> LabelSet {
        [
            LabelSet::EMPTY,
            LabelSet::BOTH,
            LabelSet::singleton(0),
            LabelSet::singleton(1),
        ][i % 4]
    }

    fn sample() -> SessionCheckpoint {
        let keys = (0..3)
            .map(|t| StepKey {
                token: 7 * t,
                s_bits: (0.25 * f64::from(t)).to_bits(),
            })
            .collect();
        let sets = (0..15).map(binary_set).collect();
        SessionCheckpoint {
            instance: 41,
            is_table: false,
            corpus: simlm::CorpusVersion::default(),
            monitor: 0x0123_4567_89AB_CDEF,
            rng_state: 0xDEAD_BEEF_0BAD_F00D,
            would_be_correct: Some(false),
            overrides: vec![
                ("orders".into(), Decision::Correct),
                (
                    "orders.id".into(),
                    Decision::AddExtra("orders.total".into()),
                ),
                ("users".into(), Decision::Substitute("user_logs".into())),
                ("users.name".into(), Decision::Omit),
            ],
            handled: vec![0, 2],
            n_interventions: 2,
            n_flags: 5,
            rounds_done: 3,
            sets: RoundSets::from_parts(keys, sets),
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
        assert_eq!(SessionCheckpoint::from_bytes(&cp.to_bytes()), Ok(cp));
    }

    #[test]
    fn encoding_is_deterministic_and_small() {
        let cp = sample();
        let bytes = cp.to_bytes();
        assert_eq!(bytes, cp.clone().to_bytes());
        // The keys and sets travel in their own compact layout, as is.
        let mut sets = Vec::new();
        cp.sets.write_bytes(&mut sets);
        assert!(bytes.windows(sets.len()).any(|w| w == sets));
        // Bytes of query-text order, not hidden-stack order (tens of KB).
        assert!(
            bytes.len() < 256,
            "checkpoint unexpectedly large: {} B",
            bytes.len()
        );
    }

    /// `content` (an encoding without its checksum) with a valid
    /// checksum appended, so a forged field reaches the body decoder.
    fn sealed(content: &[u8]) -> Vec<u8> {
        let mut out = content.to_vec();
        seal(&mut out);
        out
    }

    /// An encoding's content: everything before the checksum.
    fn content(bytes: &[u8]) -> &[u8] {
        &bytes[..bytes.len() - CHECKSUM_LEN]
    }

    #[test]
    fn corpus_tag_is_present_and_a_foreign_tag_fails_to_decode() {
        let cp = sample();
        let bytes = cp.to_bytes();
        // Magic, version, instance 41 (one LEB128 byte), is_table, corpus.
        assert_eq!(bytes[4], 2, "the V2 tag");
        assert_eq!(
            SessionCheckpoint::from_bytes(&bytes).map(|cp| cp.corpus),
            Ok(simlm::CorpusVersion::V2)
        );
        for foreign in [0, 1, 3, 0xFF] {
            let mut forged = content(&bytes).to_vec();
            forged[4] = foreign;
            assert_eq!(
                SessionCheckpoint::from_bytes(&sealed(&forged)),
                Err(DecodeError("truncated or malformed")),
                "tag {foreign}"
            );
        }
    }

    #[test]
    fn the_checksum_covers_every_byte_before_it() {
        let bytes = sample().to_bytes();
        let (content, checksum) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
        assert_eq!(checksum, tinynn::rng::stable_hash(content).to_le_bytes());
        // Past the magic and version bytes, any change is a mismatch.
        for at in 2..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert_eq!(
                SessionCheckpoint::from_bytes(&flipped),
                Err(DecodeError("checksum mismatch")),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn full_u64_rng_state_survives() {
        let mut cp = sample();
        cp.rng_state = u64::MAX;
        let back = SessionCheckpoint::from_bytes(&cp.to_bytes()).unwrap();
        assert_eq!(back.rng_state, u64::MAX);
    }

    #[test]
    fn corrupt_bytes_fail_decode_without_panicking() {
        let bytes = sample().to_bytes();
        let decode = SessionCheckpoint::from_bytes;
        assert!(decode(b"").is_err(), "empty buffer");
        assert!(decode(b"{\"instance\": 41").is_err(), "not a checkpoint");
        let mut version = bytes.clone();
        version[1] = CHECKPOINT_VERSION + 1;
        assert_eq!(decode(&version), Err(DecodeError("unknown format version")));
        assert!(
            decode(&bytes[..bytes.len() / 2]).is_err(),
            "half a checkpoint"
        );
        let trailing = [content(&bytes), &[0]].concat();
        assert_eq!(
            decode(&sealed(&trailing)),
            Err(DecodeError("trailing bytes"))
        );
        assert!(decode(&bytes[..2]).is_err(), "magic and version only");
    }

    #[test]
    fn a_huge_override_count_is_refused_before_allocating() {
        let mut cp = sample();
        cp.overrides.clear();
        let bytes = cp.to_bytes();
        // Everything before the override count: magic, version,
        // instance, is_table, corpus, monitor, rng_state, would_be_correct.
        let mut forged = bytes[..22].to_vec();
        put_varint(&mut forged, 1 << 60);
        forged.extend_from_slice(&content(&bytes)[23..]);
        let forged = sealed(&forged);
        let allocated = crate::test_alloc::allocations_on_this_thread(|| {
            assert!(SessionCheckpoint::from_bytes(&forged).is_err());
        });
        assert_eq!(allocated, 0, "refused without allocating");
    }

    fn string(rng: &mut TestRng) -> String {
        const POOL: [&str; 6] = ["", "orders", "users.name", "café", "日本語", "🦀.col"];
        match rng.below(POOL.len() + 1) {
            i if i < POOL.len() => POOL[i].to_string(),
            _ => (0..rng.below(40))
                .map(|_| char::from(b' ' + rng.below(95) as u8))
                .collect(),
        }
    }

    fn strings(rng: &mut TestRng) -> Vec<String> {
        (0..rng.below(4)).map(|_| string(rng)).collect()
    }

    /// A word, often at an edge: 0 or the type's maximum.
    fn word(rng: &mut TestRng, max: u64) -> u64 {
        match rng.below(4) {
            0 => 0,
            1 => max,
            _ => rng.next_u64() & max,
        }
    }

    fn index(rng: &mut TestRng) -> usize {
        word(rng, usize::MAX as u64) as usize
    }

    fn random_checkpoint(rng: &mut TestRng) -> SessionCheckpoint {
        let n = rng.below(6);
        let k = if n == 0 { 0 } else { rng.below(7) };
        let keys = (0..n)
            .map(|_| StepKey {
                token: word(rng, u64::from(u32::MAX)) as u32,
                s_bits: word(rng, u64::MAX),
            })
            .collect();
        let sets = (0..n * k).map(|_| binary_set(rng.below(4))).collect();
        let overrides = (0..rng.below(5))
            .map(|_| {
                let decision = match rng.below(4) {
                    0 => Decision::Correct,
                    1 => Decision::Substitute(string(rng)),
                    2 => Decision::Omit,
                    _ => Decision::AddExtra(string(rng)),
                };
                (string(rng), decision)
            })
            .collect();
        let pending = rng.next_bool().then(|| FlagQuery {
            instance: word(rng, u64::MAX),
            is_table: rng.next_bool(),
            round: index(rng),
            branch_pos: index(rng),
            element_idx: index(rng),
            gold_element: string(rng),
            implicated: strings(rng),
            predicted: strings(rng),
        });
        SessionCheckpoint {
            instance: word(rng, u64::MAX),
            is_table: rng.next_bool(),
            corpus: simlm::CorpusVersion::V2,
            monitor: word(rng, u64::MAX),
            rng_state: word(rng, u64::MAX),
            would_be_correct: [None, Some(false), Some(true)][rng.below(3)],
            overrides,
            handled: (0..rng.below(5)).map(|_| index(rng)).collect(),
            n_interventions: index(rng),
            n_flags: index(rng),
            rounds_done: index(rng),
            sets: RoundSets::from_parts(keys, sets),
            pending,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random checkpoints round-trip exactly; every strict prefix of
        /// an encoding is refused, and so is every single-byte flip (the
        /// checksum), never with a panic.
        #[test]
        fn random_checkpoints_roundtrip_and_corruption_never_panics(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let cp = random_checkpoint(&mut rng);
            let bytes = cp.to_bytes();
            prop_assert_eq!(SessionCheckpoint::from_bytes(&bytes), Ok(cp));
            for len in 0..bytes.len() {
                prop_assert!(SessionCheckpoint::from_bytes(&bytes[..len]).is_err(), "prefix {}", len);
            }
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 + rng.below(255) as u8;
                prop_assert!(SessionCheckpoint::from_bytes(&flipped).is_err(), "flip at {}", at);
            }
        }
    }
}
