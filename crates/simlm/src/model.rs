//! The simulated fine-tuned schema-linking model.
//!
//! [`SchemaLinker::generate`] produces a token-level generation trace for
//! one instance. Two modes mirror the paper's §3.1:
//!
//! * **Free** — what the deployed model emits: wrong decisions
//!   materialise as substituted / omitted / added elements in the token
//!   stream.
//! * **TeacherForced** — the branching-point labelling procedure: the
//!   emitted stream *is* the gold stream, and every position where the
//!   free-running model would have diverged is marked as a branching
//!   point (`is_branch`), exactly like comparing `x̂ᵢ` to `xᵢ` and
//!   substituting ground truth at the first mismatch (Figure 4).
//!
//! Decisions are drawn from `hash(model seed, instance id, element)`
//! only, so Free and TeacherForced runs of the same instance describe
//! the *same counterfactual generation* — the property that makes
//! TAR/FAR (abstained-and-would-have-been-wrong vs
//! abstained-but-would-have-been-right) well defined.
//!
//! Per-token observables:
//!
//! * `softmax_prob` — over-confident regardless of correctness (Fig 3a);
//! * `hidden` — `n_layers` vectors `h_j = β·base + A·g_j·s·u_j + ε`,
//!   where `s` is the latent branching-risk signal (≈1 at branching
//!   points, ≈0.3·mass at risky-but-resolved decision points, ≈0
//!   elsewhere), `u_j` a per-layer unit direction and `g_j` a bell-shaped
//!   depth profile peaking around 70% depth. Probes must *learn* `u_j`
//!   from data; early layers carry almost no signal, so layer selection
//!   (and the paper's Figure 7 ablation) is meaningful.

use crate::linearize::{push_element_tokens, split_element};
use crate::profile::CompetenceProfile;
use crate::vocab::{TokenId, Vocab, TOK_COLON, TOK_COLUMNS, TOK_COMMA, TOK_END, TOK_TABLES};
use benchgen::{GoldLink, Instance, SchemaElementRef};
use std::collections::HashMap;
use std::sync::Arc;
use tinynn::rng::{round_f32_within, stable_hash, stable_hash_parts, SplitMix64, GAUSS_ERR};

/// What is being linked. (`Hash` so per-`(database, target)` caches —
/// the serving engine's context cache — can key on it directly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LinkTarget {
    Tables,
    Columns,
}

/// Generation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMode {
    Free,
    TeacherForced,
}

/// The hidden-state synthesis corpus a [`SchemaLinker`] generates.
///
/// The corpus-version contract: hidden-state gaussian streams are
/// versioned, and a version is *frozen* the moment records generated
/// under it are committed. `V2` re-keyed the original corpus to the
/// pair-consuming [`SplitMix64::fill_gaussian`] pattern and merged each
/// base+noise stream pair (per token and per layer) into a single
/// stream at the combined amplitude, and backs the current
/// `results/*.json`. It is the only corpus the code generates; the
/// original v1 corpus survives only as the static records in
/// `results/v1/`. The corpus is the stored `f32` hidden values, not the
/// code that computes them: synthesis may run a faster sampler as long
/// as every stored `f32` stays the same, as the guarded in-tree
/// Box–Muller of `hidden_states_for` does (its error bound cannot move
/// a value across an `f32` rounding boundary unnoticed, and a value it
/// cannot decide is recomputed through libm). A change that would move
/// a stored value is a new variant, and records from different corpora
/// are never comparable. The version is the identity stamp that
/// perfbench run records, session checkpoints and the wire fingerprint
/// carry.
///
/// Only the *hidden-state* streams are versioned: decisions, the
/// latent risk signal, softmax observables and layer directions are
/// corpus-shared and keep the sequential
/// [`SplitMix64::next_gaussian`] sampler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorpusVersion {
    /// Chunked pair sampler with merged streams (`results/`).
    #[default]
    V2,
}

impl CorpusVersion {
    /// Short stable tag used in records.
    pub fn tag(self) -> &'static str {
        match self {
            CorpusVersion::V2 => "v2",
        }
    }
}

/// The model's (counterfactual) decision for one gold element.
/// (Serde because a client's `Pin` resolution carries one over the
/// wire.)
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Decision {
    Correct,
    /// Link to this wrong element instead.
    Substitute(String),
    /// Skip the gold element entirely.
    Omit,
    /// Emit the gold element, then also this spurious one (only drawn at
    /// the final position, where the divergence is a clean single token).
    AddExtra(String),
}

impl Decision {
    pub fn is_error(&self) -> bool {
        !matches!(self, Decision::Correct)
    }
}

/// Which hidden layers a consumer wants synthesized.
///
/// The mBPP only ever reads its `k` selected probe layers (~5 of 30),
/// and the unmonitored counterfactual run in the RTS runtime reads no
/// hidden state at all — synthesizing the full stack for those callers
/// is the dominant per-instance cost. A `LayerSet` threads the request
/// down into the hidden-state synthesis so only the layers that
/// will actually be read are materialised. Skipping a layer is
/// bit-exact safe: every layer's gaussian streams are independently
/// seeded from `(token, layer, instance, position)`, so the synthesized
/// layers are identical to their full-stack counterparts (pinned by the
/// lazy/eager parity proptests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSet {
    /// `None` = every layer (the full-stack default for training paths
    /// like `BranchDataset::build`); `Some` = sorted, deduplicated
    /// layer indices. Shared (`Arc`) so each token's [`HiddenStack`]
    /// can carry the mapping without per-token allocation.
    sel: Option<Arc<[usize]>>,
}

impl LayerSet {
    /// Every layer — the eager full-stack default.
    pub fn all() -> Self {
        Self { sel: None }
    }

    /// No layers at all: token/probability observables only. The RTS
    /// runtime uses this for the unmonitored counterfactual, which only
    /// reads `predicted_set()`.
    pub fn none() -> Self {
        Self {
            sel: Some(Arc::from(Vec::new())),
        }
    }

    /// A specific set of layers (sorted and deduplicated here).
    pub fn select(layers: impl IntoIterator<Item = usize>) -> Self {
        let mut sel: Vec<usize> = layers.into_iter().collect();
        sel.sort_unstable();
        sel.dedup();
        Self {
            sel: Some(Arc::from(sel)),
        }
    }

    /// Does the set request the full stack?
    pub fn is_all(&self) -> bool {
        self.sel.is_none()
    }

    /// Is layer `j` requested?
    pub fn contains(&self, j: usize) -> bool {
        match &self.sel {
            None => true,
            Some(sel) => sel.binary_search(&j).is_ok(),
        }
    }

    /// Number of layers synthesized for a model of `n_layers` depth.
    pub fn count(&self, n_layers: usize) -> usize {
        match &self.sel {
            None => n_layers,
            Some(sel) => sel.len(),
        }
    }
}

/// Contiguous per-token hidden-state stack, row-major. One allocation
/// per token instead of one per layer keeps trace generation
/// allocation-light and gives the batched monitoring path
/// cache-friendly, pack-ready rows.
///
/// A stack is either *dense* (row `r` is layer `r` — what the default
/// full-stack [`SchemaLinker::generate`] produces) or *selected* (rows
/// correspond to an explicit sorted list of layer indices — what lazy
/// synthesis under a [`LayerSet`] produces). [`HiddenStack::layer`]
/// indexes by the original layer id either way, so consumers like the
/// mBPP read `hidden.layer(probe.layer)` without caring which mode
/// produced the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct HiddenStack {
    dim: usize,
    data: Vec<f32>,
    /// `None` = dense; `Some` = row `r` holds layer `layers[r]`.
    layers: Option<Arc<[usize]>>,
}

impl HiddenStack {
    /// Build a dense stack from a flat row-major buffer of
    /// `n_layers × dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "flat hidden buffer shape mismatch"
        );
        Self {
            dim,
            data,
            layers: None,
        }
    }

    /// Build a selected-layer stack: row `r` of `data` is layer
    /// `layers[r]` (sorted, deduplicated — [`LayerSet::select`]'s
    /// invariant).
    pub fn from_selected(dim: usize, data: Vec<f32>, layers: Arc<[usize]>) -> Self {
        assert!(
            dim > 0 && data.len() == layers.len() * dim,
            "selected hidden buffer shape mismatch"
        );
        Self {
            dim,
            data,
            layers: Some(layers),
        }
    }

    /// The stack of a step generation skipped as already known: no
    /// layer at all, and no allocation (reading a layer panics).
    fn skipped(dim: usize) -> Self {
        Self {
            dim,
            data: Vec::new(),
            layers: None,
        }
    }

    /// Number of synthesized layers in the stack (mirrors the old
    /// `Vec` API; equals the model depth only for dense stacks).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Hidden-state dimensionality per layer.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Was layer `j` synthesized into this stack?
    pub fn has_layer(&self, j: usize) -> bool {
        match &self.layers {
            None => j < self.len(),
            Some(layers) => layers.binary_search(&j).is_ok(),
        }
    }

    /// One layer's hidden-state vector, indexed by *original* layer id.
    /// Panics if the layer was not synthesized (a lazy trace being read
    /// by a consumer that never requested that layer is a logic error,
    /// not a recoverable condition).
    #[inline]
    pub fn layer(&self, j: usize) -> &[f32] {
        let row = match &self.layers {
            None => j,
            Some(layers) => layers
                .binary_search(&j)
                .unwrap_or_else(|_| panic!("layer {j} not synthesized in lazy hidden stack")),
        };
        &self.data[row * self.dim..(row + 1) * self.dim]
    }

    /// Iterate over the synthesized rows in depth order. For dense
    /// stacks this is every layer; for selected stacks pair it with
    /// [`HiddenStack::layer_indices`] to know which layer each row is.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, f32> {
        self.data.chunks_exact(self.dim)
    }

    /// The original layer id of each stored row, in row order.
    pub fn layer_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let dense = self.layers.is_none();
        let n = self.len();
        (0..n).map(move |r| {
            if dense {
                r
            } else {
                self.layers.as_ref().unwrap()[r]
            }
        })
    }
}

impl std::ops::Index<usize> for HiddenStack {
    type Output = [f32];

    #[inline]
    fn index(&self, j: usize) -> &[f32] {
        self.layer(j)
    }
}

impl<'a> IntoIterator for &'a HiddenStack {
    type Item = &'a [f32];
    type IntoIter = std::slice::ChunksExact<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Observables for one generated token.
#[derive(Debug, Clone)]
pub struct StepTrace {
    pub token: TokenId,
    /// Softmax probability of the emitted token (over-confident).
    pub softmax_prob: f64,
    /// Hidden-state vectors of `hidden_dim` each: all `n_layers` under
    /// the default full-stack generation, or only the requested subset
    /// when the trace was produced lazily under a [`LayerSet`].
    pub hidden: HiddenStack,
    /// Teacher-forced mode: is this position a branching point?
    pub is_branch: bool,
    /// Index of the gold element this token belongs to (None for
    /// header/separator tokens).
    pub element_idx: Option<usize>,
    /// Bits of the latent risk signal `s` the stack was synthesized
    /// from (half of [`StepTrace::key`]).
    s_bits: u64,
}

/// What one step's hidden stack is synthesized from besides its
/// position and the generation's fixed inputs (model, instance,
/// target, layer set): the token id and the bits of the latent risk
/// signal `s`. Two generations that agree on those fixed inputs and on
/// a position's key synthesize the same stack there, bit for bit, so a
/// caller that kept what it derived from that stack may skip it (see
/// [`SchemaLinker::generate_with_overrides_and_layers`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepKey {
    pub token: TokenId,
    pub s_bits: u64,
}

/// A full generation.
#[derive(Debug, Clone)]
pub struct GenerationTrace {
    pub tokens: Vec<TokenId>,
    pub steps: Vec<StepTrace>,
    /// Elements the stream denotes (free mode: the prediction; teacher
    /// forced: the gold elements).
    pub predicted: Vec<String>,
    /// Per-gold-element decisions (parallel to the gold element list).
    pub decisions: Vec<Decision>,
    pub n_branches: usize,
}

impl StepTrace {
    /// The latent risk signal `s` the stack was synthesized from — with
    /// the token and the position, the input of
    /// [`SchemaLinker::hidden_states_reference`].
    pub fn s(&self) -> f64 {
        f64::from_bits(self.s_bits)
    }

    /// The step's synthesis key: its token and the bits of its `s`.
    pub fn key(&self) -> StepKey {
        StepKey {
            token: self.token,
            s_bits: self.s_bits,
        }
    }
}

impl GenerationTrace {
    /// Deduplicated predicted element set.
    pub fn predicted_set(&self) -> Vec<String> {
        let mut s = self.predicted.clone();
        s.sort();
        s.dedup();
        s
    }

    /// Pack one layer's hidden states across all tokens into a
    /// `(n_tokens × dim)` matrix (allocation reused via the caller's
    /// buffer) — the batched monitoring/scoring paths' input format.
    pub fn pack_layer_into(&self, layer: usize, out: &mut tinynn::Matrix) {
        let dim = self.steps.first().map(|s| s.hidden.dim()).unwrap_or(0);
        out.resize_for_overwrite(self.steps.len(), dim);
        for (t, step) in self.steps.iter().enumerate() {
            out.row_mut(t).copy_from_slice(step.hidden.layer(layer));
        }
    }
}

/// The simulated transparent-box schema linker.
#[derive(Debug, Clone)]
pub struct SchemaLinker {
    pub n_layers: usize,
    pub hidden_dim: usize,
    pub competence: CompetenceProfile,
    pub seed: u64,
    /// Depth profile g_j ∈ [0.02, 1].
    layer_gain: Vec<f64>,
    /// Per-layer unit directions u_j.
    layer_dirs: Vec<Vec<f32>>,
    signal_amp: f64,
    base_amp: f64,
    noise_amp: f64,
}

impl SchemaLinker {
    /// "Fine-tune" (instantiate) a linker for a benchmark.
    pub fn new(benchmark: &str, seed: u64) -> Self {
        Self::with_architecture(benchmark, seed, 30, 32)
    }

    /// Custom depth/width (used by ablations).
    pub fn with_architecture(
        benchmark: &str,
        seed: u64,
        n_layers: usize,
        hidden_dim: usize,
    ) -> Self {
        assert!(n_layers >= 2 && hidden_dim >= 4);
        let mut rng = SplitMix64::new(seed ^ 0x5EED_11A6);
        let mut layer_gain = Vec::with_capacity(n_layers);
        for j in 0..n_layers {
            let depth = j as f64 / (n_layers - 1) as f64;
            let bell = (-((depth - 0.68) / 0.22).powi(2)).exp();
            // Deterministic per-layer jitter keeps neighbouring layers
            // from being interchangeable.
            let jitter = 0.15 * (rng.next_f64() - 0.5);
            // Early layers are near-blind (tiny gain): their balanced
            // probes honestly output p ≈ 0.5, so their conformal sets
            // are the wide {0,1} a clueless expert should produce. That
            // is the regime behind the paper's Figure 7 contrast: wide
            // sets pollute the θ-majority vote at large k while the
            // permutation merge prunes them.
            layer_gain.push((bell + jitter).clamp(0.05, 1.0));
        }
        let mut layer_dirs = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let mut dir: Vec<f32> = (0..hidden_dim)
                // rts-allow(corpus-v1): layer directions are corpus-shared
                // model architecture, not a per-token synthesis stream —
                // every corpus projects onto the same u_j by design.
                .map(|_| rng.next_gaussian() as f32)
                .collect();
            let norm = dir.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
            dir.iter_mut().for_each(|x| *x /= norm);
            layer_dirs.push(dir);
        }
        Self {
            n_layers,
            hidden_dim,
            competence: CompetenceProfile::for_benchmark(benchmark),
            seed,
            layer_gain,
            layer_dirs,
            signal_amp: 2.9,
            base_amp: 0.32,
            noise_amp: 0.18,
        }
    }

    /// The synthesis corpus this linker generates.
    pub fn corpus(&self) -> CorpusVersion {
        CorpusVersion::V2
    }

    /// Layer depth profile (exposed for the layer-selection ablation).
    pub fn layer_gains(&self) -> &[f64] {
        &self.layer_gain
    }

    /// Gold element strings for a target.
    pub fn gold_elements(inst: &Instance, target: LinkTarget) -> Vec<String> {
        match target {
            LinkTarget::Tables => inst.gold_tables.clone(),
            LinkTarget::Columns => inst
                .gold_columns
                .iter()
                .map(|(t, c)| format!("{t}.{c}"))
                .collect(),
        }
    }

    /// Is `name` one of the instance's gold elements for `target`
    /// (`gold_elements(inst, target).contains(name)`, without building
    /// the list)?
    pub fn is_gold(inst: &Instance, target: LinkTarget, name: &str) -> bool {
        (0..Element::gold_len(inst, target)).any(|i| Element::gold(inst, target, i).names(name))
    }

    /// The gold link annotation for an element.
    fn link_for<'i>(inst: &'i Instance, element: Element<'_>) -> Option<&'i GoldLink> {
        inst.links.iter().find(|l| element.is(&l.element))
    }

    /// The model's deterministic counterfactual decision for gold
    /// element `i` of `inst` under `target`, whose link annotation is
    /// `link`. Draws depend only on (model seed, instance id, element).
    fn decision_for(
        &self,
        inst: &Instance,
        target: LinkTarget,
        i: usize,
        link: Option<&GoldLink>,
    ) -> Decision {
        let n_gold = Element::gold_len(inst, target);
        let is_last = i + 1 == n_gold;
        let mut rng = SplitMix64::new(
            self.seed
                ^ Element::gold(inst, target, i).name_hash()
                ^ inst.id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let Some(link) = link else {
            return Decision::Correct;
        };
        let is_table = target == LinkTarget::Tables;
        // Shared per-instance disposition: the same questions that trip
        // table linking trip column linking (the abstention overlap of
        // §4.3). Mean 1, so marginal error rates are unchanged.
        let mut inst_rng = SplitMix64::new(self.seed ^ inst.id.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let disposition = 0.25 + 1.5 * inst_rng.next_f64();
        let p_err = disposition
            * self
                .competence
                .link_error_prob(is_table, inst.hardness, link.confusion_mass());
        if !rng.next_bool(p_err.min(0.95)) {
            return Decision::Correct;
        }
        // Matching-kind confusables that are not themselves part of the
        // gold answer (substituting an already-linked element is just an
        // omission wearing a costume — the answer is a set).
        let candidates = || {
            link.confusables.iter().filter(|c| {
                c.alt.is_table() == is_table
                    && !(0..n_gold).any(|g| Element::gold(inst, target, g).is(&c.alt))
            })
        };
        let n_candidates = candidates().count();
        let kind = rng.next_f64();
        if kind < self.competence.p_substitute && n_candidates > 0 {
            // Weighted draw over confusables.
            let total: f64 = candidates().map(|c| c.weight).sum();
            let mut x = rng.next_f64() * total;
            let pick = candidates()
                .find(|c| {
                    x -= c.weight;
                    x <= 0.0
                })
                .or_else(|| candidates().next_back());
            if let Some(c) = pick {
                return Decision::Substitute(c.alt.to_string());
            }
        }
        if kind < self.competence.p_substitute + self.competence.p_omit {
            return Decision::Omit;
        }
        // AddExtra only at the last element; otherwise fall back.
        if is_last && n_candidates > 0 {
            if let Some(pick) = candidates().nth(rng.next_below(n_candidates)) {
                return Decision::AddExtra(pick.alt.to_string());
            }
        }
        match candidates().next() {
            Some(c) => Decision::Substitute(c.alt.to_string()),
            None => Decision::Omit,
        }
    }

    /// Generate for an instance with a full hidden-state stack. See
    /// module docs for mode semantics.
    pub fn generate(
        &self,
        inst: &Instance,
        vocab: &mut Vocab,
        target: LinkTarget,
        mode: GenMode,
    ) -> GenerationTrace {
        self.generate_with_overrides(inst, vocab, target, mode, &HashMap::new())
    }

    /// Generate with per-element decision overrides (the mitigation
    /// loop's "continue after correction": a human confirming the gold
    /// element pins its decision to `Correct`; a human mis-confirming a
    /// wrong candidate pins `Substitute`). Full hidden-state stack.
    pub fn generate_with_overrides(
        &self,
        inst: &Instance,
        vocab: &mut Vocab,
        target: LinkTarget,
        mode: GenMode,
        overrides: &HashMap<String, Decision>,
    ) -> GenerationTrace {
        self.generate_with_overrides_and_layers(
            inst,
            vocab,
            target,
            mode,
            overrides,
            &LayerSet::all(),
            &[],
            &mut SynthScratch::default(),
        )
    }

    /// [`SchemaLinker::generate`] synthesizing only the requested
    /// layers. Every synthesized layer is bit-identical to its
    /// full-stack counterpart (per-layer gaussian streams are
    /// independently seeded), so monitoring a lazy trace raises exactly
    /// the flags monitoring an eager trace would. `scratch` is reused
    /// across calls, keeping steady-state synthesis allocation-light.
    pub fn generate_with_layers(
        &self,
        inst: &Instance,
        vocab: &mut Vocab,
        target: LinkTarget,
        mode: GenMode,
        layers: &LayerSet,
        scratch: &mut SynthScratch,
    ) -> GenerationTrace {
        self.generate_with_overrides_and_layers(
            inst,
            vocab,
            target,
            mode,
            &HashMap::new(),
            layers,
            &[],
            scratch,
        )
    }

    /// The full-control generation entry point: decision overrides, a
    /// [`LayerSet`] selecting which hidden layers to synthesize, and the
    /// step keys of positions the caller already has.
    ///
    /// `known` is the "continue after a correction" path: when a pinned
    /// decision changes the stream, the tokens before the change (and
    /// any later token that lines up again) are the ones the model has
    /// already emitted, and a caller that kept what it read from their
    /// stacks — what a transformer keeps in its KV cache — needs no new
    /// ones. A step whose [`StepKey`] equals `known[pos]` gets an empty
    /// stack (no layer synthesized, not counted by
    /// [`SynthScratch::stacks_synthesized`]); every other step's stack is
    /// synthesized as with `known = &[]`. The skip is sound only when
    /// `known` came from a generation by this linker for the same
    /// instance, target and layer set — the caller's contract, which a
    /// monitored session keeps by construction. Tokens, decisions,
    /// softmax probabilities and branch marks are always computed
    /// afresh.
    #[allow(clippy::too_many_arguments)] // the one fully-explicit entry point
    pub fn generate_with_overrides_and_layers(
        &self,
        inst: &Instance,
        vocab: &mut Vocab,
        target: LinkTarget,
        mode: GenMode,
        overrides: &HashMap<String, Decision>,
        layers: &LayerSet,
        known: &[StepKey],
        scratch: &mut SynthScratch,
    ) -> GenerationTrace {
        let n_gold = Element::gold_len(inst, target);
        let header = match target {
            LinkTarget::Tables => TOK_TABLES,
            LinkTarget::Columns => TOK_COLUMNS,
        };
        let comma = vocab.intern(TOK_COMMA);
        let end = vocab.intern(TOK_END);
        let mut out = Steps {
            model: self,
            inst,
            layers,
            known,
            scratch,
            tokens: Vec::with_capacity(3 + 4 * n_gold),
            steps: Vec::with_capacity(3 + 4 * n_gold),
        };
        // The stream is built segment by segment: a segment's tokens are
        // pushed onto `out.tokens`, then `out.emit` turns that range into
        // steps.
        out.tokens
            .extend([vocab.intern(header), vocab.intern(TOK_COLON)]);
        out.emit(0, Segment::SPECIAL);

        let mut decisions = Vec::with_capacity(n_gold);
        let mut predicted = Vec::with_capacity(n_gold + 1);
        // Branch bookkeeping for teacher-forced mode.
        let mut n_branches = 0usize;
        let mut emitted_any = false;
        // Free mode: an omission's divergence becomes visible on the
        // next emitted element token; this carries the skipped element
        // (its index and branch strength) until that token exists.
        let mut pending_omit: Option<(usize, f64)> = None;
        for i in 0..n_gold {
            let element = Element::gold(inst, target, i);
            let link = Self::link_for(inst, element);
            let decision = match pinned(overrides, element) {
                Some(d) => d.clone(),
                None => self.decision_for(inst, target, i, link),
            };
            let own = Segment {
                element_idx: Some(i),
                kind: Kind::GoldElem,
                branch_at: None,
                branch_elem: None,
                strength: branch_strength(link, &decision),
                link_mass: link.map_or(0.0, GoldLink::confusion_mass),
            };
            match mode {
                GenMode::TeacherForced => {
                    // Stream = gold; mark the first token where the free
                    // model would have diverged.
                    if emitted_any {
                        out.separator(comma);
                    }
                    let start = out.tokens.len();
                    element.push_tokens(vocab, &mut out.tokens);
                    let branch_at = match &decision {
                        Decision::Correct => None,
                        Decision::Substitute(alt) => {
                            // Tokenize the alternative after the gold
                            // element, compare, and drop it again.
                            let mid = out.tokens.len();
                            Element::parse(alt).push_tokens(vocab, &mut out.tokens);
                            let (gold_toks, alt_toks) = out.tokens[start..].split_at(mid - start);
                            // One name a strict prefix of the other →
                            // divergence at the shorter end.
                            let pos = gold_toks
                                .iter()
                                .zip(alt_toks)
                                .position(|(g, a)| g != a)
                                .unwrap_or(gold_toks.len().min(alt_toks.len()).saturating_sub(1));
                            out.tokens.truncate(mid);
                            Some(pos)
                        }
                        // The model wanted to jump ahead: divergence at
                        // the gold element's first token.
                        Decision::Omit => Some(0),
                        // Divergence appears at the closing separator
                        // (handled below); the element itself is clean.
                        Decision::AddExtra(_) => None,
                    };
                    if branch_at.is_some() {
                        n_branches += 1;
                    }
                    out.emit(start, Segment { branch_at, ..own });
                    predicted.push(element.to_string());
                    emitted_any = true;
                }
                GenMode::Free => match &decision {
                    Decision::Correct | Decision::AddExtra(_) => {
                        if emitted_any {
                            out.separator(comma);
                        }
                        let start = out.tokens.len();
                        element.push_tokens(vocab, &mut out.tokens);
                        let branch_elem = pending_omit.take();
                        out.emit(
                            start,
                            Segment {
                                branch_at: branch_elem.map(|_| 0),
                                branch_elem,
                                ..own
                            },
                        );
                        predicted.push(element.to_string());
                        emitted_any = true;
                        if let Decision::AddExtra(extra) = &decision {
                            out.separator(comma);
                            let start = out.tokens.len();
                            Element::parse(extra).push_tokens(vocab, &mut out.tokens);
                            out.emit(
                                start,
                                Segment {
                                    kind: Kind::ExtraElem,
                                    branch_at: Some(0),
                                    ..own
                                },
                            );
                            predicted.push(extra.clone());
                        }
                    }
                    Decision::Substitute(alt) => {
                        if emitted_any {
                            out.separator(comma);
                        }
                        pending_omit = None;
                        out.intern_only(vocab, element);
                        let start = out.tokens.len();
                        Element::parse(alt).push_tokens(vocab, &mut out.tokens);
                        out.emit(
                            start,
                            Segment {
                                kind: Kind::WrongElem,
                                branch_at: Some(0),
                                ..own
                            },
                        );
                        predicted.push(alt.clone());
                        emitted_any = true;
                    }
                    Decision::Omit => {
                        out.intern_only(vocab, element);
                        pending_omit = Some((i, own.strength));
                    }
                },
            }
            decisions.push(decision);
        }
        // Terminator. In teacher-forced mode an AddExtra decision means
        // the model wanted "," here instead of ";": a branching point on
        // the separator itself. In free mode a trailing omission's
        // divergence lands on the early ";".
        let add_extra_wanted = matches!(decisions.last(), Some(Decision::AddExtra(_)));
        let end_branch_elem = pending_omit.take();
        let end_branch = if mode == GenMode::TeacherForced && add_extra_wanted {
            n_branches += 1;
            Some(0)
        } else {
            end_branch_elem.map(|_| 0)
        };
        let start = out.tokens.len();
        out.tokens.push(end);
        out.emit(
            start,
            Segment {
                branch_at: end_branch,
                branch_elem: end_branch_elem,
                ..Segment::SPECIAL
            },
        );

        GenerationTrace {
            tokens: out.tokens,
            steps: out.steps,
            predicted,
            decisions,
            n_branches,
        }
    }

    /// Hidden-state stack for one token: base features + risk direction
    /// + noise, all deterministic in (seed, instance, position, corpus).
    ///
    /// Base content and noise are *correlated across layers* (70%
    /// shared / 30% layer-specific), mirroring a transformer residual
    /// stream where layer `j+1` is layer `j` plus a small update. The
    /// correlation matters downstream: per-layer probes then make
    /// correlated mistakes, exactly the regime the paper's merge
    /// theorems are designed for (they assume nothing about
    /// independence).
    ///
    /// Only the layers in `layers` are synthesized. The stack is
    /// [`SchemaLinker::hidden_states_reference`]'s, bit for bit — the
    /// [`CorpusVersion::V2`] streams through libm Box–Muller — computed
    /// without libm. Rows come from [`SplitMix64::fill_gaussian_fast`],
    /// whose variates are within [`GAUSS_ERR`] of the reference ones, so
    /// each combined `f64` value `v'` is within a known `E` of the
    /// reference's `v`. The stack stores `f32`, and `as f32` rounds
    /// monotonically: when `v' − E` and `v' + E` round to the same `f32`
    /// ([`round_f32_within`]), so does `v`. The rare value whose
    /// interval straddles an `f32` rounding boundary (about 3 in 10⁴) is
    /// recomputed from the reference draws
    /// ([`SplitMix64::fill_gaussian_at`]). A faster sampler therefore
    /// needs no new corpus as long as it keeps every `f32`; only one that
    /// moves a stored value does.
    fn hidden_states_for(
        &self,
        inst: &Instance,
        pos: usize,
        tok: TokenId,
        s: f64,
        layers: &LayerSet,
        scratch: &mut SynthScratch,
    ) -> HiddenStack {
        scratch.stacks_synthesized += 1;
        if let Some(sel) = &layers.sel {
            if let Some(&max) = sel.last() {
                assert!(max < self.n_layers, "layer {max} out of range");
            }
            if sel.is_empty() {
                // Token/probability observables only: no consumer will
                // read hidden state, so skip the gaussian work entirely
                // (the per-token RNGs are freshly seeded, so skipping
                // them perturbs nothing else).
                return HiddenStack::from_selected(self.hidden_dim, Vec::new(), sel.clone());
            }
        }
        let dim = self.hidden_dim;
        let SynthScratch {
            shared_base,
            layer_row,
            values_recomputed,
            ..
        } = scratch;
        let shared_rng = SplitMix64::new(self.v2_shared_seed(tok, inst.id, pos));
        let shared_amp = self.v2_shared_amp();
        shared_base.resize(dim, 0.0);
        let mut draws = shared_rng;
        draws.fill_gaussian_fast(shared_base);
        for v in shared_base.iter_mut() {
            *v *= shared_amp;
        }
        let merged_amp = self.v2_merged_amp();
        // Variate error scaled by the amplitudes; the rounding slack is
        // added per value in `guard_bound`.
        let draw_err = GAUSS_ERR * (shared_amp + merged_amp);
        let shared: &[f64] = shared_base;
        let mut out = vec![0.0f32; layers.count(self.n_layers) * dim];
        let mut synth_layer = |j: usize, row: &mut [f32]| {
            let layer_rng = SplitMix64::new(self.v2_layer_seed(tok, j, inst.id, pos));
            layer_row.resize(dim, 0.0);
            let mut draws = layer_rng;
            draws.fill_gaussian_fast(layer_row);
            let layer: &[f64] = layer_row;
            let dir = &self.layer_dirs[j][..dim];
            let signal_gain = self.signal_amp * self.layer_gain[j] * s;
            let terms = |shared: f64, layer: f64, u: f32| {
                [shared, merged_amp * layer, signal_gain * u as f64]
            };
            // Branch-free first pass (it vectorizes); rows with an
            // undecided value take a second pass.
            let mut undecided = false;
            for (x, ((&a, &g), &u)) in row.iter_mut().zip(shared.iter().zip(layer).zip(dir)) {
                let t = terms(a, g, u);
                let rounded = round_f32_within(combine(t), guard_bound(t, draw_err));
                *x = rounded.unwrap_or(0.0);
                undecided |= rounded.is_none();
            }
            if !undecided {
                return;
            }
            for (d, x) in row.iter_mut().enumerate() {
                let t = terms(shared[d], layer[d], dir[d]);
                if round_f32_within(combine(t), guard_bound(t, draw_err)).is_none() {
                    *values_recomputed += 1;
                    let a = shared_rng.fill_gaussian_at(d) * shared_amp;
                    *x = combine(terms(a, layer_rng.fill_gaussian_at(d), dir[d])) as f32;
                }
            }
        };
        match &layers.sel {
            None => {
                for (j, row) in out.chunks_exact_mut(dim).enumerate() {
                    synth_layer(j, row);
                }
                HiddenStack::from_flat(dim, out)
            }
            Some(sel) => {
                for (&j, row) in sel.iter().zip(out.chunks_exact_mut(dim)) {
                    synth_layer(j, row);
                }
                HiddenStack::from_selected(dim, out, sel.clone())
            }
        }
    }

    /// The reference hidden-state synthesis, and the oracle the
    /// synthesis parity tests compare against: the stack of token `tok`
    /// at position `pos` of `inst` with latent signal `s` (a step's
    /// [`StepTrace::s`]), drawn through libm Box–Muller
    /// ([`SplitMix64::fill_gaussian`]) and combined in `f64`. Generation
    /// returns exactly these bits through a faster path (see
    /// `hidden_states_for`).
    ///
    /// Every stream is a whole `hidden_dim` row: one merged stream per
    /// token, scaled to its amplitude once and shared by every layer,
    /// and one merged stream per layer. Per-layer streams are
    /// independently seeded, so skipping a layer under a [`LayerSet`]
    /// perturbs nothing.
    pub fn hidden_states_reference(
        &self,
        inst: &Instance,
        pos: usize,
        tok: TokenId,
        s: f64,
        layers: &LayerSet,
    ) -> HiddenStack {
        let dim = self.hidden_dim;
        let mut shared_base = vec![0.0f64; dim];
        SplitMix64::new(self.v2_shared_seed(tok, inst.id, pos)).fill_gaussian(&mut shared_base);
        let shared_amp = self.v2_shared_amp();
        for v in shared_base.iter_mut() {
            *v *= shared_amp;
        }
        let merged_amp = self.v2_merged_amp();
        let mut layer_row = vec![0.0f64; dim];
        let mut out = Vec::with_capacity(layers.count(self.n_layers) * dim);
        let mut synth_layer = |j: usize| {
            SplitMix64::new(self.v2_layer_seed(tok, j, inst.id, pos)).fill_gaussian(&mut layer_row);
            let dir = &self.layer_dirs[j];
            let signal_gain = self.signal_amp * self.layer_gain[j] * s;
            for d in 0..dim {
                let t = [
                    shared_base[d],
                    merged_amp * layer_row[d],
                    signal_gain * dir[d] as f64,
                ];
                out.push(combine(t) as f32);
            }
        };
        match &layers.sel {
            None => {
                (0..self.n_layers).for_each(&mut synth_layer);
                HiddenStack::from_flat(dim, out)
            }
            Some(sel) => {
                sel.iter().for_each(|&j| synth_layer(j));
                HiddenStack::from_selected(dim, out, sel.clone())
            }
        }
    }

    /// Seed of the single merged per-layer v2 stream. v1 spent two
    /// streams per layer (base + noise); v2 merges them into one at
    /// amplitude `mix·√(base_amp² + noise_amp²)` — same distribution,
    /// half the per-layer seeding and stream bookkeeping. The seed
    /// mixes the structural layer key with the model seed (the v1
    /// noise stream depended on it, so the merged stream must too) and
    /// a fresh salt so it collides with neither v1 stream.
    #[inline]
    fn v2_layer_seed(&self, tok: TokenId, j: usize, inst_id: u64, pos: usize) -> u64 {
        stable_hash(&layer_key(tok, j, inst_id, pos))
            ^ self.seed.rotate_left(17)
            ^ 0x9E6C_63D0_5C02_71A7
    }

    /// Amplitude of the merged layer-specific v2 stream: the two v1
    /// layer streams contribute `mix·(base_amp·g_b + noise_amp·g_n)`
    /// per dimension, a gaussian with this standard deviation.
    #[inline]
    fn v2_merged_amp(&self) -> f64 {
        (1.0 - SHARE * SHARE).sqrt()
            * (self.base_amp * self.base_amp + self.noise_amp * self.noise_amp).sqrt()
    }

    /// Seed of the single merged shared v2 stream. v1 spent two shared
    /// per-token streams (content, keyed on the token; noise, keyed on
    /// the model seed); v2 merges them into one at
    /// [`SchemaLinker::v2_shared_amp`] — same distribution, half the
    /// shared-row synthesis. The seed mixes the content key with the
    /// model seed (each v1 stream depended on one of them, so the
    /// merged stream must depend on both) and a fresh salt so it
    /// collides with neither.
    #[inline]
    fn v2_shared_seed(&self, tok: TokenId, inst_id: u64, pos: usize) -> u64 {
        stable_hash(&token_key(tok, inst_id, pos))
            ^ self.seed.rotate_left(29)
            ^ 0xD6E8_FEB8_6659_FD93
    }

    /// Amplitude of the merged shared v2 stream: the two v1 shared
    /// streams contribute `SHARE·(base_amp·g_b + noise_amp·g_n)` per
    /// dimension, a gaussian with this standard deviation. Shared
    /// across every layer of the token, exactly like v1's shared
    /// component — the cross-layer correlation the mBPP merge sees is
    /// unchanged.
    #[inline]
    fn v2_shared_amp(&self) -> f64 {
        SHARE * (self.base_amp * self.base_amp + self.noise_amp * self.noise_amp).sqrt()
    }
}

/// A schema element named by borrowed parts — a table, or a column of
/// a table (`table.column`) — so generation can compare, hash and
/// tokenize names without formatting them.
#[derive(Debug, Clone, Copy)]
struct Element<'a> {
    table: &'a str,
    column: Option<&'a str>,
}

impl<'a> Element<'a> {
    /// Number of gold elements of `inst` for `target`.
    fn gold_len(inst: &Instance, target: LinkTarget) -> usize {
        match target {
            LinkTarget::Tables => inst.gold_tables.len(),
            LinkTarget::Columns => inst.gold_columns.len(),
        }
    }

    /// Gold element `i` of `inst` for `target`: entry `i` of
    /// [`SchemaLinker::gold_elements`], unformatted.
    fn gold(inst: &'a Instance, target: LinkTarget, i: usize) -> Self {
        match target {
            LinkTarget::Tables => Element {
                table: &inst.gold_tables[i],
                column: None,
            },
            LinkTarget::Columns => {
                let (table, column) = &inst.gold_columns[i];
                Element {
                    table,
                    column: Some(column),
                }
            }
        }
    }

    /// An element name, `table` or `table.column`.
    fn parse(name: &'a str) -> Self {
        let (table, column) = split_element(name);
        Element { table, column }
    }

    /// Does `r` name this element?
    fn is(self, r: &SchemaElementRef) -> bool {
        r.table == self.table && r.column.as_deref() == self.column
    }

    /// `self.to_string() == name`, without formatting.
    fn names(self, name: &str) -> bool {
        match self.column {
            None => self.table == name,
            Some(column) => name
                .strip_prefix(self.table)
                .and_then(|rest| rest.strip_prefix('.'))
                .is_some_and(|rest| rest == column),
        }
    }

    /// [`stable_hash`] of the name's bytes.
    fn name_hash(self) -> u64 {
        match self.column {
            None => stable_hash(self.table.as_bytes()),
            Some(column) => stable_hash_parts(&[self.table.as_bytes(), b".", column.as_bytes()]),
        }
    }

    /// Push the name's tokens onto `out`, interning unseen pieces.
    fn push_tokens(self, vocab: &mut Vocab, out: &mut Vec<TokenId>) {
        push_element_tokens(vocab, self.table, self.column, out);
    }
}

impl std::fmt::Display for Element<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.column {
            None => f.write_str(self.table),
            Some(column) => write!(f, "{}.{column}", self.table),
        }
    }
}

/// The decision `overrides` pins for `element`, if any.
fn pinned<'o>(
    overrides: &'o HashMap<String, Decision>,
    element: Element<'_>,
) -> Option<&'o Decision> {
    overrides
        // rts-allow(iter-order): the keys are distinct names, so at most
        // one entry matches and the order cannot choose between two.
        .iter()
        .find(|(name, _)| element.names(name))
        .map(|(_, decision)| decision)
}

/// Per-element branch-signal strength: a substitution toward a
/// strongly attractive confusable is a *confident* mistake — the
/// model's internal uncertainty is low, so the latent risk signal is
/// weaker and harder for probes to catch. Omissions and spurious
/// additions sit in between. 0 for a correct decision.
fn branch_strength(link: Option<&GoldLink>, decision: &Decision) -> f64 {
    match decision {
        Decision::Correct => 0.0,
        Decision::Substitute(alt) => {
            let attract = link
                .and_then(|l| {
                    l.confusables
                        .iter()
                        .find(|c| c.alt.display_eq(alt))
                        .map(|c| (c.weight / 0.65).min(1.0))
                })
                .unwrap_or(0.5);
            1.05 - 0.20 * attract
        }
        Decision::Omit => 0.92,
        Decision::AddExtra(_) => 0.85,
    }
}

/// What a stream segment's tokens are.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Special,
    GoldElem,
    WrongElem,
    ExtraElem,
}

/// How one segment of the stream (a run of tokens) turns into steps.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The gold element the tokens belong to (`None` for the header and
    /// separators).
    element_idx: Option<usize>,
    kind: Kind,
    /// Offset of the segment's branching token, if any.
    branch_at: Option<usize>,
    /// A *different* gold element the branch token is attributed to,
    /// with its branch strength (the omission case: the divergence is
    /// visible on the next emitted token but implicates the skipped
    /// element).
    branch_elem: Option<(usize, f64)>,
    /// [`branch_strength`] of `element_idx`'s decision.
    strength: f64,
    /// Confusion mass of `element_idx`'s link (0 without one).
    link_mass: f64,
}

impl Segment {
    /// The header and separators: no element, no branch.
    const SPECIAL: Segment = Segment {
        element_idx: None,
        kind: Kind::Special,
        branch_at: None,
        branch_elem: None,
        strength: 0.0,
        link_mass: 0.0,
    };
}

/// The stream under construction: its tokens, and one step per token
/// of every emitted segment.
struct Steps<'g> {
    model: &'g SchemaLinker,
    inst: &'g Instance,
    layers: &'g LayerSet,
    known: &'g [StepKey],
    scratch: &'g mut SynthScratch,
    tokens: Vec<TokenId>,
    steps: Vec<StepTrace>,
}

impl Steps<'_> {
    /// A `,` segment.
    fn separator(&mut self, comma: TokenId) {
        let start = self.tokens.len();
        self.tokens.push(comma);
        self.emit(start, Segment::SPECIAL);
    }

    /// Intern an element's pieces without emitting them. Free mode
    /// interns every gold element, emitted or not: ids follow
    /// first-seen order, so this keeps every later id where it is.
    fn intern_only(&mut self, vocab: &mut Vocab, element: Element<'_>) {
        let start = self.tokens.len();
        element.push_tokens(vocab, &mut self.tokens);
        self.tokens.truncate(start);
    }

    /// Materialise the steps of the segment `tokens[start..]`: hidden
    /// states and probabilities.
    fn emit(&mut self, start: usize, seg: Segment) {
        let model = self.model;
        for pos in start..self.tokens.len() {
            debug_assert_eq!(pos, self.steps.len(), "segments are emitted in order");
            let k = pos - start;
            let tok = self.tokens[pos];
            let is_branch = seg.branch_at == Some(k);
            let (step_element, strength) = match seg.branch_elem {
                Some((i, strength)) if is_branch => (Some(i), strength),
                _ => (seg.element_idx, seg.strength),
            };
            // Latent risk signal s for this token.
            let mut srng = SplitMix64::new(
                model.seed
                    ^ self.inst.id.wrapping_mul(0xA076_1D64_78BD_642F)
                    ^ ((pos as u64) << 17)
                    ^ 0x517C_C1B7_2722_0A95,
            );
            // The s-signal / softmax stream below is corpus-shared
            // observable structure (decision topology), not hidden-state
            // synthesis — every corpus carries the same s and
            // softmax_prob by design, so these sites keep the
            // sequential sampler.
            let s = if is_branch {
                let strength = if strength > 0.0 { strength } else { 0.9 };
                // rts-allow(corpus-v1): corpus-shared s-signal stream
                strength + 0.07 * srng.next_gaussian()
            } else {
                match seg.kind {
                    // rts-allow(corpus-v1): corpus-shared s-signal stream
                    Kind::WrongElem | Kind::ExtraElem => 0.20 + 0.12 * srng.next_gaussian(),
                    Kind::GoldElem if k == 0 => {
                        // Risky-but-resolved decision point. Saturating
                        // in confusion mass: even mildly-confusable
                        // links produce a mid-range signal, giving the
                        // conformal calibration a tail to quantile
                        // against at every α.
                        let level = 0.70 * (seg.link_mass + 0.08) / (0.43 + seg.link_mass);
                        // rts-allow(corpus-v1): corpus-shared s-signal stream
                        level + 0.22 * srng.next_gaussian()
                    }
                    // Ordinary tokens carry a continuum of spurious
                    // risk-direction content (folded normal), so probe
                    // scores — and with them the conformal calibration
                    // quantiles — vary smoothly instead of collapsing
                    // to a point mass at zero.
                    // rts-allow(corpus-v1): corpus-shared s-signal stream
                    _ => 0.04 + 0.12 * srng.next_gaussian().abs(),
                }
            };

            // Over-confident softmax (Fig 3a): both classes hug 1.
            let prob = if is_branch {
                // rts-allow(corpus-v1): corpus-shared softmax stream
                (1.0 - (0.02 + 0.025 * srng.next_gaussian().abs())).clamp(0.85, 0.9995)
            } else {
                // rts-allow(corpus-v1): corpus-shared softmax stream
                (1.0 - 0.008 * srng.next_gaussian().abs()).clamp(0.9, 0.99995)
            };

            let s_bits = s.to_bits();
            let key = StepKey { token: tok, s_bits };
            let hidden = if self.known.get(pos) == Some(&key) {
                HiddenStack::skipped(model.hidden_dim)
            } else {
                model.hidden_states_for(self.inst, pos, tok, s, self.layers, self.scratch)
            };
            self.steps.push(StepTrace {
                token: tok,
                softmax_prob: prob,
                hidden,
                is_branch,
                element_idx: step_element,
                s_bits,
            });
        }
    }
}

/// Shared/layer-specific content split: 0.55² ≈ 30% of the variance is
/// layer-specific.
const SHARE: f64 = 0.55;

/// One hidden-state value from its three terms — the shared draw at its
/// amplitude, the layer draw at its amplitude, and the signal
/// `signal_gain·u_j[d]` — in the one summation order every synthesis
/// path uses.
#[inline(always)]
fn combine([shared, layer, signal]: [f64; 3]) -> f64 {
    shared + layer + signal
}

/// Bound on `|combine(t') − combine(t)|` when the terms `t'` come from
/// fast variates and `t` from the reference ones: `draw_err` (the
/// amplitude-scaled [`GAUSS_ERR`]) plus rounding slack over the *sum of
/// term magnitudes*, which covers cancellation. The two products and
/// two sums of each path, and the `v ± E` of the guard, are nine
/// roundings of at most 2⁻⁵³ of a value no larger than that sum;
/// 8·ε = 16·2⁻⁵³ covers them with room to spare.
#[inline(always)]
fn guard_bound(terms: [f64; 3], draw_err: f64) -> f64 {
    let magnitude = terms[0].abs() + terms[1].abs() + terms[2].abs();
    draw_err + 8.0 * f64::EPSILON * magnitude
}

/// Reusable buffers for [`SchemaLinker`] hidden-state synthesis: the
/// shared-content row redrawn per token, plus the merged per-layer row.
/// One instance per trace (or per worker thread) keeps steady-state
/// synthesis free of per-row allocations, mirroring how `BppScratch`
/// amortises the monitoring path.
#[derive(Debug, Default, Clone)]
pub struct SynthScratch {
    shared_base: Vec<f64>,
    layer_row: Vec<f64>,
    stacks_synthesized: usize,
    values_recomputed: usize,
}

impl SynthScratch {
    /// Token stacks synthesized through this scratch so far; positions
    /// skipped as already known are not counted.
    pub fn stacks_synthesized(&self) -> usize {
        self.stacks_synthesized
    }

    /// Hidden-state values whose fast value could not decide the
    /// stored `f32` and were recomputed from the reference draws.
    pub fn values_recomputed(&self) -> usize {
        self.values_recomputed
    }
}

/// Seed bytes for the per-token shared-content stream — the same byte
/// string the old `[..].concat()` built, without the allocation.
#[inline]
fn token_key(tok: TokenId, inst_id: u64, pos: usize) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[0..4].copy_from_slice(&tok.to_le_bytes());
    key[4..12].copy_from_slice(&inst_id.to_le_bytes());
    key[12..16].copy_from_slice(&(pos as u32).to_le_bytes());
    key
}

/// Seed bytes for one layer's base-content stream (same layout as the
/// old concat: token, layer, instance, position).
#[inline]
fn layer_key(tok: TokenId, layer: usize, inst_id: u64, pos: usize) -> [u8; 20] {
    let mut key = [0u8; 20];
    key[0..4].copy_from_slice(&tok.to_le_bytes());
    key[4..8].copy_from_slice(&(layer as u32).to_le_bytes());
    key[8..16].copy_from_slice(&inst_id.to_le_bytes());
    key[16..20].copy_from_slice(&(pos as u32).to_le_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchmarkProfile;

    fn bench() -> benchgen::Benchmark {
        BenchmarkProfile::bird_like().scaled(0.01).generate(2024)
    }

    fn linker() -> SchemaLinker {
        SchemaLinker::new("bird", 7)
    }

    #[test]
    fn teacher_forced_stream_equals_gold() {
        let b = bench();
        let m = linker();
        for inst in b.split.dev.iter().take(30) {
            let mut vocab = Vocab::new();
            let trace = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            let mut gold_vocab = Vocab::new();
            let gold = crate::linearize::linearize_tables(&mut gold_vocab, &inst.gold_tables);
            assert_eq!(trace.tokens.len(), gold.len());
            let texts: Vec<&str> = trace.tokens.iter().map(|&t| vocab.text(t)).collect();
            let gold_texts: Vec<&str> = gold.iter().map(|&t| gold_vocab.text(t)).collect();
            assert_eq!(texts, gold_texts);
        }
    }

    #[test]
    fn free_and_forced_agree_on_decisions() {
        let b = bench();
        let m = linker();
        for inst in b.split.dev.iter().take(50) {
            let mut v1 = Vocab::new();
            let mut v2 = Vocab::new();
            let free = m.generate(inst, &mut v1, LinkTarget::Tables, GenMode::Free);
            let forced = m.generate(inst, &mut v2, LinkTarget::Tables, GenMode::TeacherForced);
            assert_eq!(free.decisions, forced.decisions);
        }
    }

    #[test]
    fn branch_count_matches_error_decisions() {
        let b = bench();
        let m = linker();
        for inst in b.split.dev.iter().take(80) {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            let errors = t.decisions.iter().filter(|d| d.is_error()).count();
            assert_eq!(t.n_branches, errors, "decisions {:?}", t.decisions);
            let marked = t.steps.iter().filter(|s| s.is_branch).count();
            assert_eq!(marked, t.n_branches);
        }
    }

    #[test]
    fn free_mode_errors_change_prediction() {
        let b = bench();
        let m = linker();
        let mut seen_error = false;
        for inst in b.split.dev.iter() {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            let correct = t.predicted_set() == inst.gold_tables;
            let has_error = t.decisions.iter().any(|d| d.is_error());
            if has_error {
                seen_error = true;
                // Substitutions/omissions/extras must change the set
                // (unless the substitute duplicates another gold table,
                // which the workload's confusable construction avoids).
                assert_ne!(t.predicted_set(), inst.gold_tables, "{:?}", t.decisions);
            } else {
                assert!(correct);
            }
        }
        assert!(seen_error, "error process never fired on the dev split");
    }

    #[test]
    fn overrides_pin_decisions() {
        let b = bench();
        let m = linker();
        // Find an instance with an erroneous table decision.
        for inst in b.split.dev.iter() {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            if let Some(i) = t.decisions.iter().position(|d| d.is_error()) {
                let mut overrides = HashMap::new();
                overrides.insert(inst.gold_tables[i].clone(), Decision::Correct);
                let mut v2 = Vocab::new();
                let t2 = m.generate_with_overrides(
                    inst,
                    &mut v2,
                    LinkTarget::Tables,
                    GenMode::Free,
                    &overrides,
                );
                assert_eq!(t2.decisions[i], Decision::Correct);
                return;
            }
        }
        panic!("no erroneous instance found");
    }

    #[test]
    fn hidden_states_have_declared_shape() {
        let b = bench();
        let m = linker();
        let inst = &b.split.dev[0];
        let mut vocab = Vocab::new();
        let t = m.generate(
            inst,
            &mut vocab,
            LinkTarget::Columns,
            GenMode::TeacherForced,
        );
        for step in &t.steps {
            assert_eq!(step.hidden.len(), m.n_layers);
            for h in &step.hidden {
                assert_eq!(h.len(), m.hidden_dim);
            }
        }
    }

    #[test]
    fn lazy_selected_layers_are_bit_identical_to_eager() {
        let b = bench();
        let m = linker();
        let layer_sets = [
            LayerSet::select([0, 7, 19, 21, 29]),
            LayerSet::select([21]),
            LayerSet::select(0..m.n_layers),
        ];
        let mut scratch = SynthScratch::default();
        for inst in b.split.dev.iter().take(20) {
            let mut v1 = Vocab::new();
            let eager = m.generate(inst, &mut v1, LinkTarget::Columns, GenMode::Free);
            for layers in &layer_sets {
                let mut v2 = Vocab::new();
                let lazy = m.generate_with_layers(
                    inst,
                    &mut v2,
                    LinkTarget::Columns,
                    GenMode::Free,
                    layers,
                    &mut scratch,
                );
                assert_eq!(lazy.tokens, eager.tokens);
                assert_eq!(lazy.decisions, eager.decisions);
                for (ls, es) in lazy.steps.iter().zip(&eager.steps) {
                    assert_eq!(ls.softmax_prob, es.softmax_prob);
                    assert_eq!(ls.is_branch, es.is_branch);
                    assert_eq!(ls.hidden.len(), layers.count(m.n_layers));
                    for j in (0..m.n_layers).filter(|&j| layers.contains(j)) {
                        assert_eq!(ls.hidden.layer(j), es.hidden.layer(j), "layer {j}");
                    }
                }
            }
        }
    }

    /// `f32` bits of every layer of a stack, in layer order.
    fn stack_bits(h: &HiddenStack) -> Vec<(usize, Vec<u32>)> {
        h.layer_indices()
            .map(|j| (j, h.layer(j).iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn generated_stacks_match_the_reference_oracle() {
        let b = bench();
        let m = linker();
        let layer_sets = [
            LayerSet::all(),
            LayerSet::select([0, 7, 19, 21, 29]),
            LayerSet::select([29]),
            LayerSet::none(),
        ];
        let mut scratch = SynthScratch::default();
        for inst in b.split.dev.iter().take(8) {
            for layers in &layer_sets {
                let mut vocab = Vocab::new();
                let trace = m.generate_with_layers(
                    inst,
                    &mut vocab,
                    LinkTarget::Columns,
                    GenMode::Free,
                    layers,
                    &mut scratch,
                );
                for (pos, step) in trace.steps.iter().enumerate() {
                    let reference =
                        m.hidden_states_reference(inst, pos, step.token, step.s(), layers);
                    assert_eq!(stack_bits(&step.hidden), stack_bits(&reference));
                }
            }
        }
    }

    /// Synthesizes `stacks` full stacks at random instances, positions,
    /// tokens and signals through the fast path and the reference, and
    /// asserts identical bits. Returns (values compared, values
    /// recomputed by the guard).
    fn fast_synthesis_vs_reference(stacks: usize, seed: u64) -> (usize, usize) {
        let b = bench();
        let m = linker();
        let all = LayerSet::all();
        let mut rng = SplitMix64::new(seed);
        let mut scratch = SynthScratch::default();
        let mut values = 0;
        for _ in 0..stacks {
            let inst = &b.split.dev[rng.next_below(b.split.dev.len())];
            let pos = rng.next_below(64);
            let tok = rng.next_u64() as TokenId;
            let s = 1.6 * rng.next_f64() - 0.3;
            let fast = m.hidden_states_for(inst, pos, tok, s, &all, &mut scratch);
            let reference = m.hidden_states_reference(inst, pos, tok, s, &all);
            assert_eq!(
                stack_bits(&fast),
                stack_bits(&reference),
                "instance {} pos {pos} tok {tok} s {s}",
                inst.id
            );
            values += fast.len() * fast.dim();
        }
        (values, scratch.values_recomputed())
    }

    #[test]
    fn fast_synthesis_is_bit_identical_to_the_reference() {
        let (values, recomputed) = fast_synthesis_vs_reference(2_000, 0xFA57);
        // The guard's fallback runs, and rarely.
        assert!(recomputed > 0, "no value took the fallback in {values}");
        assert!(
            recomputed * 100 < values,
            "{recomputed} of {values} recomputed"
        );
    }

    /// 10⁸ values; run with `cargo test --release -p simlm -- --ignored`.
    #[test]
    #[ignore = "about 6 s in release: 10⁸ synthesized values"]
    fn fast_synthesis_is_bit_identical_to_the_reference_at_scale() {
        let (values, recomputed) = fast_synthesis_vs_reference(104_200, 0x5CA1E);
        assert!(values >= 100_000_000);
        println!(
            "{values} values, {recomputed} recomputed by the guard ({:.2e} per value)",
            recomputed as f64 / values as f64
        );
    }

    #[test]
    fn skipping_known_steps_synthesizes_only_changed_keys() {
        let b = bench();
        let m = linker();
        let layer_sets = [
            LayerSet::all(),
            LayerSet::select([0, 7, 19, 21, 29]),
            LayerSet::none(),
        ];
        let bits = |h: &HiddenStack| h.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SplitMix64::new(0x5EED);
        let mut scratch = SynthScratch::default();
        let (mut tokens, mut skipped) = (0usize, 0usize);
        for inst in &b.split.dev[..b.split.dev.len().min(30)] {
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let gold = SchemaLinker::gold_elements(inst, target);
                for layers in &layer_sets {
                    let generate = |overrides: &HashMap<String, Decision>,
                                    known: &[StepKey],
                                    scratch: &mut SynthScratch| {
                        m.generate_with_overrides_and_layers(
                            inst,
                            &mut Vocab::new(),
                            target,
                            GenMode::Free,
                            overrides,
                            layers,
                            known,
                            scratch,
                        )
                    };
                    let mut overrides = HashMap::new();
                    let mut prev = generate(&overrides, &[], &mut SynthScratch::default());
                    // A random sequence of pins, each continuing from
                    // the round it supersedes, as a session does.
                    for _ in 0..3 {
                        let e = &gold[rng.next_below(gold.len())];
                        let pin = match rng.next_below(4) {
                            0 => Decision::Correct,
                            1 => Decision::Omit,
                            2 => Decision::AddExtra(gold[rng.next_below(gold.len())].clone()),
                            _ => Decision::Substitute(format!("{e}_alt")),
                        };
                        overrides.insert(e.clone(), pin);
                        let known: Vec<StepKey> = prev.steps.iter().map(StepTrace::key).collect();
                        let fresh = generate(&overrides, &[], &mut SynthScratch::default());
                        let before = scratch.stacks_synthesized();
                        let next = generate(&overrides, &known, &mut scratch);
                        let synthesized = scratch.stacks_synthesized() - before;
                        assert_eq!(next.tokens, fresh.tokens);
                        assert_eq!(next.decisions, fresh.decisions);
                        assert_eq!(next.predicted, fresh.predicted);
                        assert_eq!(next.n_branches, fresh.n_branches);
                        assert_eq!(next.steps.len(), fresh.steps.len());
                        let mut changed = 0;
                        for (pos, (sn, sf)) in next.steps.iter().zip(&fresh.steps).enumerate() {
                            assert_eq!(sn.softmax_prob.to_bits(), sf.softmax_prob.to_bits());
                            assert_eq!(sn.is_branch, sf.is_branch);
                            assert_eq!(sn.element_idx, sf.element_idx);
                            assert_eq!(sn.key(), sf.key());
                            if known.get(pos) == Some(&sf.key()) {
                                // Skipped: and the stack the caller
                                // already has is the one it would get.
                                assert_eq!(sn.hidden.len(), 0, "pos {pos} synthesized");
                                assert_eq!(bits(&prev.steps[pos].hidden), bits(&sf.hidden));
                                skipped += 1;
                            } else {
                                assert_eq!(bits(&sn.hidden), bits(&sf.hidden), "pos {pos}");
                                changed += 1;
                            }
                        }
                        assert_eq!(synthesized, changed);
                        tokens += next.steps.len();
                        prev = fresh;
                    }
                }
            }
        }
        // Every stream opens with the same header, so at least that
        // prefix is skipped; and not everything is.
        assert!(skipped > 0 && skipped < tokens, "{skipped} of {tokens}");
    }

    #[test]
    fn corpus_version_tags_and_default() {
        assert_eq!(CorpusVersion::default(), CorpusVersion::V2);
        assert_eq!(linker().corpus(), CorpusVersion::V2);
        assert_eq!(CorpusVersion::V2.tag(), "v2");
    }

    #[test]
    fn empty_layer_set_synthesizes_nothing_but_keeps_observables() {
        let b = bench();
        let m = linker();
        let inst = &b.split.dev[0];
        let mut v1 = Vocab::new();
        let eager = m.generate(inst, &mut v1, LinkTarget::Tables, GenMode::Free);
        let mut v2 = Vocab::new();
        let mut scratch = SynthScratch::default();
        let lazy = m.generate_with_layers(
            inst,
            &mut v2,
            LinkTarget::Tables,
            GenMode::Free,
            &LayerSet::none(),
            &mut scratch,
        );
        assert_eq!(lazy.tokens, eager.tokens);
        assert_eq!(lazy.predicted_set(), eager.predicted_set());
        for (ls, es) in lazy.steps.iter().zip(&eager.steps) {
            assert_eq!(ls.hidden.len(), 0);
            assert_eq!(ls.softmax_prob, es.softmax_prob);
            assert_eq!(ls.is_branch, es.is_branch);
        }
    }

    #[test]
    #[should_panic(expected = "not synthesized")]
    fn reading_an_unsynthesized_layer_panics() {
        let b = bench();
        let m = linker();
        let inst = &b.split.dev[0];
        let mut vocab = Vocab::new();
        let mut scratch = SynthScratch::default();
        let lazy = m.generate_with_layers(
            inst,
            &mut vocab,
            LinkTarget::Tables,
            GenMode::Free,
            &LayerSet::select([3, 5]),
            &mut scratch,
        );
        let _ = lazy.steps[0].hidden.layer(4);
    }

    #[test]
    fn layer_set_api_contract() {
        let all = LayerSet::all();
        assert!(all.is_all() && all.contains(29));
        assert_eq!(all.count(30), 30);
        let none = LayerSet::none();
        assert!(!none.is_all() && !none.contains(0));
        assert_eq!(none.count(30), 0);
        // Unsorted, duplicated input is normalised.
        let sel = LayerSet::select([9, 2, 9, 21]);
        assert_eq!(sel.count(30), 3);
        assert!(sel.contains(2) && sel.contains(9) && sel.contains(21));
        assert!(!sel.contains(10));
    }

    #[test]
    fn lazy_stack_reports_layer_indices() {
        let b = bench();
        let m = linker();
        let inst = &b.split.dev[0];
        let mut vocab = Vocab::new();
        let mut scratch = SynthScratch::default();
        let lazy = m.generate_with_layers(
            inst,
            &mut vocab,
            LinkTarget::Tables,
            GenMode::Free,
            &LayerSet::select([4, 17, 22]),
            &mut scratch,
        );
        let stack = &lazy.steps[0].hidden;
        assert_eq!(stack.layer_indices().collect::<Vec<_>>(), vec![4, 17, 22]);
        assert!(stack.has_layer(17) && !stack.has_layer(16));
        // Row iteration pairs with layer_indices.
        for (row, j) in stack.iter().zip(stack.layer_indices()) {
            assert_eq!(row, stack.layer(j));
        }
    }

    #[test]
    fn softmax_is_overconfident_for_both_classes() {
        let b = bench();
        let m = linker();
        let mut branch_probs = Vec::new();
        let mut clean_probs = Vec::new();
        for inst in b.split.dev.iter().take(120) {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            for s in &t.steps {
                if s.is_branch {
                    branch_probs.push(s.softmax_prob);
                } else {
                    clean_probs.push(s.softmax_prob);
                }
            }
        }
        assert!(!branch_probs.is_empty());
        let mean_b: f64 = branch_probs.iter().sum::<f64>() / branch_probs.len() as f64;
        let mean_c: f64 = clean_probs.iter().sum::<f64>() / clean_probs.len() as f64;
        // Both concentrated near 1 — the Fig 3a phenomenon that makes
        // logit thresholding useless.
        assert!(mean_b > 0.93, "branch softmax mean {mean_b}");
        assert!(mean_c > 0.97, "clean softmax mean {mean_c}");
    }

    #[test]
    fn risk_signal_is_linearly_separable_at_good_layers() {
        // Project hidden states onto the true direction at the peak
        // layer: branch tokens must score visibly higher. (Probes will
        // have to *learn* this; here we verify the signal exists.)
        let b = bench();
        let m = linker();
        let best_layer = (0..m.n_layers)
            .max_by(|&a, &b| m.layer_gains()[a].total_cmp(&m.layer_gains()[b]))
            .unwrap();
        let dir = m.layer_dirs[best_layer].clone();
        let mut branch_scores = Vec::new();
        let mut clean_scores = Vec::new();
        for inst in b.split.dev.iter().take(150) {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            for s in &t.steps {
                let proj: f64 = s.hidden[best_layer]
                    .iter()
                    .zip(dir.iter())
                    .map(|(&h, &d)| (h * d) as f64)
                    .sum();
                if s.is_branch {
                    branch_scores.push(proj);
                } else {
                    clean_scores.push(proj);
                }
            }
        }
        let labels: Vec<bool> = branch_scores
            .iter()
            .map(|_| true)
            .chain(clean_scores.iter().map(|_| false))
            .collect();
        let scores: Vec<f64> = branch_scores.into_iter().chain(clean_scores).collect();
        let auc = tinynn::metrics::auc(&scores, &labels);
        assert!(auc > 0.93, "oracle-direction AUC {auc}");
    }

    #[test]
    fn early_layers_carry_little_signal() {
        let m = linker();
        let gains = m.layer_gains();
        assert!(gains[0] < 0.2, "layer 0 gain {}", gains[0]);
        let peak = gains.iter().cloned().fold(0.0_f64, f64::max);
        assert!(peak > 0.8, "peak gain {peak}");
        // Peak sits in the back half of the network.
        let peak_idx = gains.iter().position(|&g| g == peak).unwrap();
        assert!(peak_idx > m.n_layers / 2);
    }

    #[test]
    fn generation_is_fully_deterministic() {
        let b = bench();
        let m = linker();
        let inst = &b.split.dev[3];
        let mut v1 = Vocab::new();
        let mut v2 = Vocab::new();
        let a = m.generate(inst, &mut v1, LinkTarget::Columns, GenMode::Free);
        let c = m.generate(inst, &mut v2, LinkTarget::Columns, GenMode::Free);
        assert_eq!(a.tokens, c.tokens);
        assert_eq!(a.steps[0].hidden, c.steps[0].hidden);
        assert_eq!(a.steps[0].softmax_prob, c.steps[0].softmax_prob);
    }

    #[test]
    fn bird_table_em_is_near_paper_operating_point() {
        // Table 2 reports 79.70% table EM on BIRD. The simulator should
        // land in the same regime; small scaled benchmarks carry wide
        // sampling error, so evaluate on dev + test and allow a broad
        // band (the full-scale harness pins the exact operating point).
        let b = BenchmarkProfile::bird_like().scaled(0.05).generate(2024);
        let m = linker();
        let mut correct = 0usize;
        let mut total = 0usize;
        for inst in b.split.dev.iter().chain(b.split.test.iter()) {
            let mut vocab = Vocab::new();
            let t = m.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            if t.predicted_set() == inst.gold_tables {
                correct += 1;
            }
            total += 1;
        }
        let em = correct as f64 / total as f64;
        assert!((0.62..=0.95).contains(&em), "table EM {em}");
    }
}
