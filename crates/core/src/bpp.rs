//! The Branching Point Predictor (§3.2).
//!
//! **sBPP** (§3.2.2): one two-layer MLP probe per hidden layer, trained
//! on `D_branch` and wrapped in split conformal prediction with
//! nonconformity score `1 − p(y* | x)`. Each probe yields a prediction
//! set over `{0 = ordinary, 1 = branching point}` with marginal coverage
//! ≥ 1 − α. The non-exchangeable KNN-weighted variant of Barber et al.
//! is available behind [`ConformalKind::Knn`].
//!
//! **mBPP** (§3.2.3): the `k` probes with the best calibration AUC are
//! selected (the paper's `k = 5` default) and their prediction sets are
//! merged by either the θ-majority vote of Theorem 1 or the
//! random-permutation merge of Algorithm 1 / Theorem 3. A token is
//! declared a branching point iff label `1` survives in the merged set.

use crate::branching::BranchDataset;
use crate::session::{put_varint, ByteReader};
use conformal::{LabelSet, NonExchangeableConformal, SplitConformal};
use simlm::{GenerationTrace, StepKey};
use tinynn::rng::{stable_hash, SplitMix64};
use tinynn::{Dataset, Matrix, Mlp, MlpConfig, MlpScratch, StandardScaler};

/// Which conformal wrapper an sBPP uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConformalKind {
    /// Standard split conformal (exchangeable calibration).
    Split,
    /// Non-exchangeable, KNN-weighted (Barber et al. 2023).
    Knn { k: usize, tau: f64 },
}

/// How per-layer prediction sets are merged into the mBPP decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeMethod {
    /// Theorem 1: keep labels in strictly more than θ of the sets.
    MajorityVote { theta: f64 },
    /// Algorithm 1 / Theorem 3.
    RandomPermutation,
}

/// A single-layer branching point predictor.
#[derive(Debug, Clone)]
pub struct Sbpp {
    pub layer: usize,
    pub alpha: f64,
    /// AUC of the probe on its calibration split (the layer-selection
    /// criterion and the Table 3 statistic).
    pub auc: f64,
    /// Probe failed validation and was replaced by the constant prior.
    pub degenerate: bool,
    probe: Mlp,
    scaler: StandardScaler,
    /// Calibration nonconformity scores (kept so α can be re-chosen
    /// without re-training — the Figure 6 sweep).
    cal_scores: Vec<f64>,
    conformal: SplitConformal,
    /// Present only for the non-exchangeable variant.
    knn: Option<NonExchangeableConformal>,
    /// Hash of what a prediction set depends on besides the conformal
    /// threshold: the probe's weights, the scaler's moments and, for
    /// the non-exchangeable variant, its calibration points. `Debug`
    /// prints every float in its shortest round-trip form, so the text
    /// pins each value bit for bit. Computed once, at training.
    fingerprint: u64,
}

/// Training configuration for the probes.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Hidden widths of the probe MLP (paper: one hidden layer).
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub lr: f32,
    /// Fraction of `D_branch` rows held out for calibration.
    pub calibration_frac: f64,
    pub conformal: ConformalKind,
    pub seed: u64,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        Self {
            hidden: vec![16],
            epochs: 20,
            lr: 5e-3,
            calibration_frac: 0.35,
            conformal: ConformalKind::Split,
            seed: 0,
        }
    }
}

/// Reusable buffers for the batched sBPP scoring path. One instance can
/// be shared across probes and traces; buffers grow to the largest
/// batch seen and are then reused, so the steady-state hot loop does
/// not allocate.
#[derive(Debug, Default, Clone)]
pub struct SbppScratch {
    standardized: Matrix,
    mlp: MlpScratch,
    probs: Vec<f32>,
}

/// Scratch for [`Mbpp::flag_trace_with_scratch`]: the per-layer packed
/// hidden-state matrix plus the per-probe scoring buffers.
#[derive(Debug, Default, Clone)]
pub struct BppScratch {
    /// One packed (n_scored × hidden_dim) matrix per selected probe,
    /// filled in a single pass over the scored positions.
    packed: Vec<Matrix>,
    sbpp: SbppScratch,
    /// Per selected probe, the prediction sets of the scored positions
    /// (buffers reused across traces).
    sets_per_probe: Vec<Vec<LabelSet>>,
    /// The positions of the current trace that are scored.
    scored: Vec<usize>,
    /// The round [`Mbpp::flag_trace_with_scratch`] monitors with nothing
    /// cached (cleared per call; kept for its buffers).
    round: RoundSets,
}

/// The selected probes' conformal label sets of one monitored round,
/// position by position, with each position's [`StepKey`].
///
/// A position's sets are a pure function of its hidden stack, and the
/// stack of the key (given the round's model, instance, target and
/// layer set, which one monitored session never changes). So when the
/// next round (a regeneration after a pinned correction, or the same
/// stream again after a `Continue`) has the same key at a position,
/// its sets are these — no stack to synthesize, no probe to run. This
/// is what a suspended session keeps of its round instead of the
/// hidden stacks: a few bytes per position.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSets {
    keys: Vec<StepKey>,
    /// `keys.len() × k` sets, row-major: position `t`'s sets of the `k`
    /// selected probes, in selection order.
    sets: Vec<LabelSet>,
}

impl RoundSets {
    /// The round's step keys, one per position — what generation may
    /// skip (see `SchemaLinker::generate_with_overrides_and_layers`).
    pub fn step_keys(&self) -> &[StepKey] {
        &self.keys
    }

    /// Forget the round (keeps the buffers).
    pub fn clear(&mut self) {
        self.keys.clear();
        self.sets.clear();
    }

    /// Heap bytes the keys and sets occupy.
    pub fn held_bytes(&self) -> usize {
        std::mem::size_of_val(self.keys.as_slice()) + std::mem::size_of_val(self.sets.as_slice())
    }

    /// Do the sets fit a monitor of `k` selected probes? Always true of
    /// an empty round.
    pub(crate) fn fits(&self, k: usize) -> bool {
        self.keys.len().checked_mul(k) == Some(self.sets.len())
    }

    /// Append the round in its checkpoint layout: `k` and the position
    /// count (LEB128), then per position the token id (LEB128), the 8
    /// bytes of `s` and the `k` sets at 2 bits each (the label space is
    /// binary), zero-padded to whole bytes.
    pub(crate) fn write_bytes(&self, out: &mut Vec<u8>) {
        let k = self.sets.len().checked_div(self.keys.len()).unwrap_or(0);
        put_varint(out, k as u64);
        put_varint(out, self.keys.len() as u64);
        for (t, key) in self.keys.iter().enumerate() {
            put_varint(out, u64::from(key.token));
            out.extend_from_slice(&key.s_bits.to_le_bytes());
            for quad in self.sets[t * k..(t + 1) * k].chunks(4) {
                out.push(quad.iter().enumerate().fold(0u8, |b, (i, set)| {
                    debug_assert!(set.is_subset_of(LabelSet::BOTH), "non-binary set");
                    let bits = set.contains(0) as u8 | (set.contains(1) as u8) << 1;
                    b | bits << (2 * i)
                }));
            }
        }
    }

    /// Read [`RoundSets::write_bytes`]'s layout off the front of `r`;
    /// `None` on anything malformed, nonzero padding bits included. The
    /// position count is checked against the bytes left before
    /// anything is allocated.
    pub(crate) fn read_bytes(r: &mut ByteReader<'_>) -> Option<RoundSets> {
        let k = usize::try_from(r.varint()?).ok()?;
        let set_bytes = k.div_ceil(4);
        // Each position takes at least a token byte, 8 bytes of `s` and
        // its set bytes.
        let n = r.count(set_bytes.checked_add(9)?)?;
        if n == 0 && k != 0 {
            return None; // an empty round is written with k = 0
        }
        let mut round = RoundSets {
            keys: Vec::with_capacity(n),
            sets: Vec::with_capacity(n * k),
        };
        for _ in 0..n {
            let token = simlm::TokenId::try_from(r.varint()?).ok()?;
            let s_bits = r.u64_le()?;
            round.keys.push(StepKey { token, s_bits });
            let packed = r.take(set_bytes)?;
            for i in 0..k {
                let bits = packed.get(i / 4)? >> (2 * (i % 4));
                let mut set = LabelSet::EMPTY;
                for label in 0..2 {
                    if bits >> label & 1 == 1 {
                        set.insert(label);
                    }
                }
                round.sets.push(set);
            }
            // The padding past the k-th set is zero.
            if k % 4 != 0 && packed.last()? >> (2 * (k % 4)) != 0 {
                return None;
            }
        }
        Some(round)
    }

    /// A round from its parts (`sets` row-major, `keys.len() × k`).
    #[cfg(test)]
    pub(crate) fn from_parts(keys: Vec<StepKey>, sets: Vec<LabelSet>) -> RoundSets {
        RoundSets { keys, sets }
    }
}

impl Sbpp {
    /// Train the probe for one layer of `D_branch`.
    pub fn train(ds: &BranchDataset, layer: usize, alpha: f64, cfg: &ProbeConfig) -> Sbpp {
        let features = &ds.layers[layer];
        let n = features.rows();
        assert!(n >= 50, "too few tokens ({n}) to train a probe");

        let full = Dataset::from_matrix(features.clone(), ds.labels.clone());
        let (train, cal) = full.split(cfg.calibration_frac, cfg.seed ^ (layer as u64) << 7);
        // Cap the probe-training set: past a few thousand rows extra data
        // only sharpens the sigmoid into saturation, which degenerates
        // the conformal quantiles (ε stops responding to α). The
        // calibration split is never capped — quantile resolution wants
        // every point.
        let train = if train.len() > 6000 {
            let idx: Vec<usize> = (0..6000).collect();
            let (shuffled, _) = train.split(0.0, cfg.seed ^ 0x5b5b);
            shuffled.subset(&idx)
        } else {
            train
        };

        // Standardise on the probe-training split only; the scaler is
        // part of the fixed predictor, preserving exchangeability of the
        // calibration scores.
        let train_rows: Vec<&[f32]> = (0..train.len()).map(|i| train.row(i)).collect();
        let scaler = StandardScaler::fit(&train_rows);
        let scale_ds = |d: &Dataset| {
            Dataset::from_matrix(scaler.transform_batch(d.features()), d.targets().to_vec())
        };
        let train_s = scale_ds(&train);
        let cal_s = scale_ds(&cal);

        // Branching points are ~2% of tokens: oversample positives to a
        // 1:1 class balance so every Adam batch sees them. Duplicated
        // copies are jittered (Gaussian, σ = 0.6 in standardised
        // units), which blocks a signal-free probe from memorising the
        // handful of unique positives — a blind layer's probe then
        // honestly outputs p ≈ 0.5 and its conformal sets become the
        // wide {0,1} of a clueless expert. That regime is what the
        // merge comparison of Fig. 7 lives in: wide sets pollute the
        // θ-majority vote at large k while the permutation merge prunes
        // them.
        let pos_idx: Vec<usize> = (0..train_s.len())
            .filter(|&i| train_s.targets()[i] > 0.5)
            .collect();
        let neg_count = train_s.len() - pos_idx.len();
        let train_s = if pos_idx.is_empty() {
            train_s
        } else {
            let copies = (neg_count / pos_idx.len()).clamp(1, 120);
            let mut jitter_rng = SplitMix64::new(cfg.seed ^ 0x7177 ^ ((layer as u64) << 3));
            let n_rows = train_s.len() + (copies - 1) * pos_idx.len();
            let mut data: Vec<f32> = Vec::with_capacity(n_rows * train_s.dim());
            data.extend_from_slice(train_s.features().as_slice());
            let mut labels: Vec<f32> = Vec::with_capacity(n_rows);
            labels.extend_from_slice(train_s.targets());
            for _ in 1..copies {
                for &i in &pos_idx {
                    data.extend(
                        train_s
                            .row(i)
                            .iter()
                            .map(|&x| x + 0.60 * jitter_rng.next_gaussian() as f32),
                    );
                    labels.push(1.0);
                }
            }
            Dataset::from_matrix(Matrix::from_vec(n_rows, train_s.dim(), data), labels)
        };
        let pos_rate = train_s.positive_rate().max(1e-4);
        let pos_weight = (((1.0 - pos_rate) / pos_rate) as f32).min(4.0);
        let mut probe = Mlp::new(MlpConfig {
            input_dim: ds.hidden_dim,
            hidden_dims: cfg.hidden.clone(),
            lr: cfg.lr,
            epochs: cfg.epochs,
            batch_size: 64,
            pos_weight,
            weight_decay: 1e-4,
            seed: cfg.seed ^ 0xBB90 ^ (layer as u64),
            ..MlpConfig::default()
        });
        probe.fit(&train_s);

        // Calibration scores + AUC.
        let probs = probe.predict_proba_batch(cal_s.features());
        let mut cal_scores = Vec::with_capacity(cal_s.len());
        let mut auc_scores = Vec::with_capacity(cal_s.len());
        let mut auc_labels = Vec::with_capacity(cal_s.len());
        for (i, &p) in probs.iter().enumerate() {
            let y = cal_s.targets()[i] > 0.5;
            let p_true = if y { p as f64 } else { 1.0 - p as f64 };
            cal_scores.push(1.0 - p_true);
            auc_scores.push(p as f64);
            auc_labels.push(y);
        }
        let auc = tinynn::metrics::auc(&auc_scores, &auc_labels);
        // Probe validation: a layer whose probe cannot beat chance on
        // calibration is replaced by the constant-prior predictor
        // (p = 0.5). Its nonconformity scores are then all 0.5, every
        // prediction set is the honest {0,1} of a clueless expert, and
        // the layer is naturally down-ranked by AUC selection.
        let degenerate = auc < 0.65;
        let cal_scores = if degenerate {
            vec![0.5; cal_scores.len()]
        } else {
            cal_scores
        };
        let conformal = SplitConformal::from_scores(cal_scores.clone(), alpha);
        let knn = match cfg.conformal {
            ConformalKind::Split => None,
            ConformalKind::Knn { k, tau } => {
                let points: Vec<Vec<f32>> =
                    (0..cal_s.len()).map(|i| cal_s.row(i).to_vec()).collect();
                Some(NonExchangeableConformal::new(
                    points,
                    cal_scores.clone(),
                    k,
                    tau,
                    alpha,
                ))
            }
        };
        let fingerprint = stable_hash(format!("{probe:?}{scaler:?}{knn:?}").as_bytes());
        Sbpp {
            layer,
            alpha,
            auc,
            degenerate,
            probe,
            scaler,
            cal_scores,
            conformal,
            knn,
            fingerprint,
        }
    }

    /// Probe score p(branch | h) for a raw hidden-state vector.
    pub fn score(&self, h: &[f32]) -> f64 {
        if self.degenerate {
            return 0.5;
        }
        self.probe.predict_proba(&self.scaler.transform(h)) as f64
    }

    /// The conformal prediction set for a raw hidden-state vector.
    ///
    /// The set may be empty (`max(p₀, p₁) < 1 − ε`): the probe conforms
    /// to neither label. Under split conformal an empty set never
    /// contains the true label, so it is a miss. The mBPP merge
    /// (`Mbpp::merge_token_sets`) nevertheless drops it, and that drop
    /// is where the merged coverage bound is lost.
    pub fn predict_set(&self, h: &[f32]) -> LabelSet {
        let hs = self.scaler.transform(h);
        let p1 = if self.degenerate {
            0.5
        } else {
            self.probe.predict_proba(&hs) as f64
        };
        match &self.knn {
            Some(knn) => knn.predict_binary(&hs, p1),
            None => self.conformal.predict_binary(p1),
        }
    }

    /// Conformal prediction sets for a whole batch of raw hidden-state
    /// rows (one per generated token), produced by one scaler transform
    /// and one MLP forward over the packed matrix instead of per-token
    /// vector ops. Row `t` of the result is exactly
    /// [`Sbpp::predict_set`] of row `t` of `h` — the batched matmul
    /// accumulates every output element in the same order as the
    /// per-token kernel, so the scores (and therefore the sets) are
    /// identical.
    pub fn predict_sets_batch(&self, h: &Matrix, scratch: &mut SbppScratch) -> Vec<LabelSet> {
        let mut out = Vec::new();
        self.predict_sets_into(h, scratch, &mut out);
        out
    }

    /// [`Sbpp::predict_sets_batch`] writing into a caller-owned vector
    /// (cleared first), so repeated trace monitoring reuses the buffer.
    pub fn predict_sets_into(
        &self,
        h: &Matrix,
        scratch: &mut SbppScratch,
        out: &mut Vec<LabelSet>,
    ) {
        let n = h.rows();
        self.score_batch_into(h, scratch);
        out.clear();
        out.reserve(n);
        for t in 0..n {
            let p1 = scratch.probs[t] as f64;
            out.push(match &self.knn {
                Some(knn) => knn.predict_binary(scratch.standardized.row(t), p1),
                None => self.conformal.predict_binary(p1),
            });
        }
    }

    /// Batched probe scores p(branch | h) for rows of `h` — the batched
    /// counterpart of [`Sbpp::score`], one scaler transform + one MLP
    /// forward for the whole batch.
    pub fn scores_batch(&self, h: &Matrix, scratch: &mut SbppScratch) -> Vec<f64> {
        self.score_batch_into(h, scratch);
        scratch.probs.iter().map(|&p| p as f64).collect()
    }

    /// Fill `scratch.standardized` / `scratch.probs` for rows of `h`.
    fn score_batch_into(&self, h: &Matrix, scratch: &mut SbppScratch) {
        self.scaler
            .transform_batch_into(h, &mut scratch.standardized);
        if self.degenerate {
            scratch.probs.clear();
            scratch.probs.resize(h.rows(), 0.5);
        } else {
            self.probe.predict_proba_batch_into(
                &scratch.standardized,
                &mut scratch.mlp,
                &mut scratch.probs,
            );
        }
    }

    /// Re-calibrate to a different error level without re-training.
    pub fn with_alpha(&self, alpha: f64) -> Sbpp {
        let mut out = self.clone();
        out.alpha = alpha;
        out.conformal = SplitConformal::from_scores(self.cal_scores.clone(), alpha);
        // The KNN variant re-reads alpha lazily; rebuild if present.
        if let Some(_knn) = &self.knn {
            // Rebuilding requires the calibration points, which the KNN
            // wrapper owns; cheapest correct path is to keep split CP for
            // sweeps (the ablation constructs KNN variants per α).
            out.knn = None;
        }
        out
    }
}

/// The multi-layer branching point predictor.
#[derive(Debug, Clone)]
pub struct Mbpp {
    /// One probe per LLM layer (all trained; selection picks `k`).
    pub sbpps: Vec<Sbpp>,
    /// Indices (into `sbpps`) of the k best-AUC layers.
    pub selected: Vec<usize>,
    pub method: MergeMethod,
    pub alpha: f64,
}

/// mBPP training configuration.
#[derive(Debug, Clone)]
pub struct MbppConfig {
    pub alpha: f64,
    /// Number of sBPPs aggregated (paper default: 5).
    pub k: usize,
    pub method: MergeMethod,
    pub probe: ProbeConfig,
}

impl Default for MbppConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            k: 5,
            method: MergeMethod::RandomPermutation,
            probe: ProbeConfig::default(),
        }
    }
}

impl Mbpp {
    /// Train probes for every layer, rank them by calibration AUC and
    /// select the top `k`.
    pub fn train(ds: &BranchDataset, cfg: &MbppConfig) -> Mbpp {
        assert!(cfg.k >= 1 && cfg.k <= ds.n_layers, "k out of range");
        // Per-layer probes are independent; train them in parallel on
        // every available core. This deliberately ignores
        // `RTS_THREADS` (see `par::thread_count`): each probe is a pure
        // function of its layer's data and seed, so the thread count
        // cannot change a weight, and honouring `RTS_THREADS=1` would
        // only make every set-up slower.
        let n_workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let slots: Vec<parking_lot::Mutex<Option<Sbpp>>> = (0..ds.n_layers)
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            let slots = &slots;
            let next = &next;
            for _ in 0..n_workers.min(ds.n_layers) {
                scope.spawn(move |_| loop {
                    let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if j >= ds.n_layers {
                        break;
                    }
                    let trained = Sbpp::train(ds, j, cfg.alpha, &cfg.probe);
                    *slots[j].lock() = Some(trained);
                });
            }
        })
        .expect("probe training threads panicked");
        let sbpps: Vec<Sbpp> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("probe trained"))
            .collect();
        let selected = Self::top_k(&sbpps, cfg.k);
        Mbpp {
            sbpps,
            selected,
            method: cfg.method,
            alpha: cfg.alpha,
        }
    }

    fn top_k(sbpps: &[Sbpp], k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..sbpps.len()).collect();
        order.sort_by(|&a, &b| sbpps[b].auc.total_cmp(&sbpps[a].auc));
        order.truncate(k);
        order
    }

    /// The hidden layers this monitor actually reads: the selected
    /// probes' layers as a [`simlm::LayerSet`], handed to the lazy
    /// trace-generation path so only those layers are synthesized.
    /// Every `flag_trace*` / [`Mbpp::is_branch`] call touches exactly
    /// these layers, so monitoring a lazily synthesized trace is
    /// bit-identical to monitoring an eager full-stack one.
    pub fn layer_set(&self) -> simlm::LayerSet {
        simlm::LayerSet::select(self.selected.iter().map(|&i| self.sbpps[i].layer))
    }

    /// A fingerprint of everything the selected probes' label sets
    /// depend on: per selected probe (in selection order) its layer,
    /// its degenerate flag, its weights, scaler and calibration points,
    /// and its conformal threshold. Monitors with equal fingerprints
    /// give every hidden stack the same sets, so [`RoundSets`] one of
    /// them produced may stand in for the other's scoring. The merge
    /// method is not part of it: merging runs afresh on every round.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::with_capacity(48 * self.selected.len());
        for &i in &self.selected {
            let s = &self.sbpps[i];
            for word in [
                s.layer as u64,
                u64::from(s.degenerate),
                s.fingerprint,
                s.conformal.threshold().to_bits(),
                s.alpha.to_bits(),
                u64::from(s.knn.is_some()),
            ] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
        }
        stable_hash(&bytes)
    }

    /// Mean AUC over the *selected* probes (what Table 3 reports for the
    /// sBPPs used in conformal prediction).
    pub fn mean_selected_auc(&self) -> f64 {
        self.selected
            .iter()
            .map(|&i| self.sbpps[i].auc)
            .sum::<f64>()
            / self.selected.len() as f64
    }

    /// Mean AUC over all layers (diagnostic).
    pub fn mean_auc_all(&self) -> f64 {
        self.sbpps.iter().map(|s| s.auc).sum::<f64>() / self.sbpps.len() as f64
    }

    /// Is this token (its per-layer hidden stack) a branching point?
    /// Its selected probes' sets are merged as in every other path:
    /// empty sets are dropped, and a token left with none is not
    /// flagged.
    ///
    /// Only the selected probes' layers are read, so `hidden` may be a
    /// lazily synthesized stack as long as it covers
    /// [`Mbpp::layer_set`] (the monitored runtime's production path).
    pub fn is_branch(&self, hidden: &simlm::HiddenStack, rng: &mut SplitMix64) -> bool {
        let mut sets: Vec<LabelSet> = self
            .selected
            .iter()
            .map(|&i| self.sbpps[i].predict_set(&hidden[self.sbpps[i].layer]))
            .collect();
        self.merge_token_sets(&mut sets, rng)
    }

    /// The token-level merge decision shared by the per-token and
    /// batched paths (their parity contract requires a single
    /// implementation): `sets` holds one token's k prediction sets, one
    /// per selected probe; the token is flagged iff label 1 survives
    /// the configured merge.
    ///
    /// Empty sets are dropped before the merge (in place, so callers
    /// reuse the buffer), and a token with no set left is not flagged.
    /// This is the one place that rule lives; [`Sbpp::predict_set`]
    /// says why it forfeits the merged coverage bound.
    fn merge_token_sets(&self, sets: &mut Vec<LabelSet>, rng: &mut SplitMix64) -> bool {
        sets.retain(|s| !s.is_empty());
        if sets.is_empty() {
            return false;
        }
        let merged = match self.method {
            MergeMethod::MajorityVote { theta } => conformal::majority_vote(sets, theta, 2),
            MergeMethod::RandomPermutation => conformal::random_permutation_merge(sets, 2, rng),
        };
        merged.contains(1)
    }

    /// Flag every token of a trace. Returns the per-token decisions.
    ///
    /// This is the batched fast path: per selected probe, all token
    /// hidden states of the trace are packed into one matrix, pushed
    /// through one scaler transform and one MLP forward (amortising the
    /// matmul), and the resulting per-token prediction sets are merged
    /// exactly as the per-token loop would. Flags — and the permutation
    /// merge's RNG consumption — are identical to
    /// [`Mbpp::flag_trace_per_token`] (the parity proptest in
    /// `tests/proptest_invariants.rs` pins this).
    pub fn flag_trace(&self, trace: &GenerationTrace, rng: &mut SplitMix64) -> Vec<bool> {
        let mut scratch = BppScratch::default();
        self.flag_trace_with_scratch(trace, rng, &mut scratch)
    }

    /// [`Mbpp::flag_trace`] with caller-owned scratch buffers, for hot
    /// loops that flag many traces: [`Mbpp::flag_trace_reusing`] with
    /// nothing cached.
    pub fn flag_trace_with_scratch(
        &self,
        trace: &GenerationTrace,
        rng: &mut SplitMix64,
        scratch: &mut BppScratch,
    ) -> Vec<bool> {
        let mut round = std::mem::take(&mut scratch.round);
        round.clear();
        let flags = self.flag_trace_reusing(trace, &mut round, rng, scratch);
        scratch.round = round;
        flags
    }

    /// Flag every token of `trace`, taking the label sets of positions
    /// whose [`StepKey`] matches `round` from it instead of scoring
    /// them; on return `round` holds this trace's keys and sets.
    ///
    /// Only the positions whose key changed are read from the trace's
    /// hidden stacks, so the trace may come from a generation that
    /// skipped exactly `round.step_keys()`. They are packed into one matrix
    /// per selected probe and scored in one batched pass each; batched
    /// scoring is row-independent ([`Sbpp::predict_sets_batch`]), so
    /// scoring a subset of rows gives each the sets a full pass would.
    /// The merge then runs over every position in order, so flags and
    /// the permutation merge's RNG draws are those of scoring the whole
    /// trace — identical to [`Mbpp::flag_trace_per_token`] (the parity
    /// proptest in `tests/proptest_invariants.rs` pins this).
    ///
    /// `round` must come from this monitor (or one with the same
    /// [`Mbpp::fingerprint`]) on a trace of the same model, instance,
    /// target and layer set.
    pub fn flag_trace_reusing(
        &self,
        trace: &GenerationTrace,
        round: &mut RoundSets,
        rng: &mut SplitMix64,
        scratch: &mut BppScratch,
    ) -> Vec<bool> {
        let n = trace.steps.len();
        let k = self.selected.len();
        debug_assert_eq!(round.sets.len(), round.keys.len() * k, "foreign round");
        scratch.scored.clear();
        scratch
            .scored
            .extend((0..n).filter(|&t| round.keys.get(t) != Some(&trace.steps[t].key())));
        round.keys.resize(n, StepKey::default());
        round.sets.resize(n * k, LabelSet::EMPTY);
        if let Some(&first) = scratch.scored.first() {
            // Pack every selected layer's hidden states in one pass over
            // the scored steps (each stack is touched once), then run one
            // batched scoring pass per probe into reused set buffers.
            let (rows, dim) = (scratch.scored.len(), trace.steps[first].hidden.dim());
            scratch.packed.resize(k, Matrix::default());
            scratch.sets_per_probe.resize(k, Vec::new());
            for m in scratch.packed.iter_mut() {
                m.resize_for_overwrite(rows, dim);
            }
            for (row, &t) in scratch.scored.iter().enumerate() {
                let hidden = &trace.steps[t].hidden;
                for (slot, &i) in self.selected.iter().enumerate() {
                    scratch.packed[slot]
                        .row_mut(row)
                        .copy_from_slice(hidden.layer(self.sbpps[i].layer));
                }
            }
            for (slot, &i) in self.selected.iter().enumerate() {
                self.sbpps[i].predict_sets_into(
                    &scratch.packed[slot],
                    &mut scratch.sbpp,
                    &mut scratch.sets_per_probe[slot],
                );
            }
            for (row, &t) in scratch.scored.iter().enumerate() {
                round.keys[t] = trace.steps[t].key();
                for (slot, sets) in scratch.sets_per_probe.iter().enumerate() {
                    round.sets[t * k + slot] = sets[row];
                }
            }
        }
        // Merge per token in the same order (and with the same RNG
        // consumption pattern) as the per-token path.
        let mut sets: Vec<LabelSet> = Vec::with_capacity(k);
        round
            .sets
            .chunks_exact(k)
            .map(|row| {
                sets.clear();
                sets.extend_from_slice(row);
                self.merge_token_sets(&mut sets, rng)
            })
            .collect()
    }

    /// The reference per-token monitoring loop: one scaler transform and
    /// one MLP forward per (token, probe). Kept as the test oracle the
    /// batched path is pinned against (`batched_flag_trace_matches_per_token`).
    pub fn flag_trace_per_token(&self, trace: &GenerationTrace, rng: &mut SplitMix64) -> Vec<bool> {
        trace
            .steps
            .iter()
            .map(|s| self.is_branch(&s.hidden, rng))
            .collect()
    }

    /// Clone with a different error level (cheap: reuses probes).
    pub fn with_alpha(&self, alpha: f64) -> Mbpp {
        Mbpp {
            sbpps: self.sbpps.iter().map(|s| s.with_alpha(alpha)).collect(),
            selected: self.selected.clone(),
            method: self.method,
            alpha,
        }
    }

    /// Clone with a different k (cheap: reuses probes).
    pub fn with_k(&self, k: usize) -> Mbpp {
        assert!(k >= 1 && k <= self.sbpps.len());
        Mbpp {
            sbpps: self.sbpps.clone(),
            selected: Self::top_k(&self.sbpps, k),
            method: self.method,
            alpha: self.alpha,
        }
    }

    /// Clone with a different merge method.
    pub fn with_method(&self, method: MergeMethod) -> Mbpp {
        Mbpp {
            method,
            ..self.clone()
        }
    }

    /// Clone selecting *random* layers instead of top-AUC (ablation).
    pub fn with_random_layers(&self, k: usize, seed: u64) -> Mbpp {
        assert!(k >= 1 && k <= self.sbpps.len());
        let mut order: Vec<usize> = (0..self.sbpps.len()).collect();
        let mut rng = SplitMix64::new(seed);
        tinynn::rng::shuffle(&mut order, &mut rng);
        order.truncate(k);
        Mbpp {
            selected: order,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchmarkProfile;
    use simlm::{GenMode, LinkTarget, SchemaLinker, Vocab};

    fn setup() -> (benchgen::Benchmark, SchemaLinker, BranchDataset) {
        let bench = BenchmarkProfile::bird_like().scaled(0.03).generate(31);
        let model = SchemaLinker::new("bird", 5);
        let ds = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 250);
        (bench, model, ds)
    }

    #[test]
    fn probes_learn_the_risk_direction() {
        let (_, _, ds) = setup();
        // Train only a mid-depth layer (cheap test): it must beat 0.85
        // AUC; an early layer must be clearly worse.
        let cfg = ProbeConfig {
            epochs: 15,
            ..ProbeConfig::default()
        };
        let late = Sbpp::train(&ds, 21, 0.1, &cfg);
        let early = Sbpp::train(&ds, 0, 0.1, &cfg);
        assert!(late.auc > 0.85, "late-layer AUC {}", late.auc);
        assert!(
            early.auc < late.auc,
            "early {} vs late {}",
            early.auc,
            late.auc
        );
    }

    #[test]
    fn mbpp_selects_informative_layers() {
        let (_, model, ds) = setup();
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let mbpp = Mbpp::train(&ds, &cfg);
        assert_eq!(mbpp.selected.len(), 5);
        // Selected layers should sit in the gainful region of the
        // simulated network.
        let gains = model.layer_gains();
        for &i in &mbpp.selected {
            assert!(gains[mbpp.sbpps[i].layer] > 0.2, "selected weak layer {i}");
        }
        assert!(
            mbpp.mean_selected_auc() > 0.9,
            "selected AUC {}",
            mbpp.mean_selected_auc()
        );
        assert!(mbpp.mean_selected_auc() > mbpp.mean_auc_all());
    }

    #[test]
    fn mbpp_detects_branches_on_dev() {
        let (bench, model, ds) = setup();
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let mbpp = Mbpp::train(&ds, &cfg);
        let mut rng = SplitMix64::new(99);
        let mut flags = Vec::new();
        for inst in bench.split.dev.iter().take(60) {
            let mut vocab = Vocab::new();
            let trace =
                model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            let predicted = mbpp.flag_trace(&trace, &mut rng);
            for (p, s) in predicted.iter().zip(&trace.steps) {
                flags.push((*p, s.is_branch));
            }
        }
        let m = crate::metrics::coverage_metrics(&flags);
        assert!(m.n_branches > 0, "no branches in dev sample");
        assert!(m.coverage >= 0.8, "coverage {}", m.coverage);
        assert!(m.ear <= 0.2, "EAR {}", m.ear);
    }

    #[test]
    fn alpha_recalibration_moves_coverage() {
        let (bench, model, ds) = setup();
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let mbpp_tight = Mbpp::train(&ds, &cfg); // α = 0.1
        let mbpp_loose = mbpp_tight.with_alpha(0.4);
        let run = |mbpp: &Mbpp| {
            let mut rng = SplitMix64::new(7);
            let mut flags = Vec::new();
            for inst in bench.split.dev.iter().take(40) {
                let mut vocab = Vocab::new();
                let trace =
                    model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
                for (p, s) in mbpp.flag_trace(&trace, &mut rng).iter().zip(&trace.steps) {
                    flags.push((*p, s.is_branch));
                }
            }
            crate::metrics::coverage_metrics(&flags)
        };
        let tight = run(&mbpp_tight);
        let loose = run(&mbpp_loose);
        // Larger α ⇒ tighter sets ⇒ lower EAR (and usually lower coverage).
        assert!(
            loose.ear <= tight.ear + 1e-9,
            "loose {} vs tight {}",
            loose.ear,
            tight.ear
        );
    }

    #[test]
    fn with_k_changes_selection_size() {
        let (_, _, ds) = setup();
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let mbpp = Mbpp::train(&ds, &cfg);
        assert_eq!(mbpp.with_k(1).selected.len(), 1);
        assert_eq!(mbpp.with_k(9).selected.len(), 9);
        // Top-1 is the best-AUC probe.
        let best = mbpp.with_k(1).selected[0];
        assert!(mbpp
            .sbpps
            .iter()
            .all(|s| s.auc <= mbpp.sbpps[best].auc + 1e-12));
    }

    #[test]
    fn batched_flags_match_per_token_exactly() {
        let (bench, model, ds) = setup();
        for method in [
            MergeMethod::RandomPermutation,
            MergeMethod::MajorityVote { theta: 0.5 },
        ] {
            let cfg = MbppConfig {
                method,
                probe: ProbeConfig {
                    epochs: 8,
                    ..Default::default()
                },
                ..Default::default()
            };
            let mbpp = Mbpp::train(&ds, &cfg);
            let mut scratch = BppScratch::default();
            let mut rng_batched = SplitMix64::new(41);
            let mut rng_serial = SplitMix64::new(41);
            for inst in bench.split.dev.iter().take(25) {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
                let batched = mbpp.flag_trace_with_scratch(&trace, &mut rng_batched, &mut scratch);
                let serial = mbpp.flag_trace_per_token(&trace, &mut rng_serial);
                assert_eq!(batched, serial, "flag divergence on instance {}", inst.id);
                // RNG streams must stay in lock-step too.
                assert_eq!(
                    rng_batched, rng_serial,
                    "rng divergence on instance {}",
                    inst.id
                );
            }
        }
    }

    #[test]
    fn reused_sets_flag_like_scoring_every_position() {
        let (bench, model, ds) = setup();
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
        let layers = mbpp.layer_set();
        let mut scratch = BppScratch::default();
        let mut synth = simlm::SynthScratch::default();
        let (mut rng_reused, mut rng_full) = (SplitMix64::new(3), SplitMix64::new(3));
        let mut skipped = 0;
        for inst in bench.split.dev.iter().take(25) {
            let gold = SchemaLinker::gold_elements(inst, LinkTarget::Tables);
            let mut overrides = std::collections::HashMap::new();
            let mut round = RoundSets::default();
            // Round 0, then two pins on each gold element in turn (last
            // first, so long prefixes carry over). A substitute whose
            // name starts with the gold name keeps the first token but
            // moves its latent signal: same token, new key.
            let pins = gold.iter().rev().flat_map(|e| {
                [
                    (e, simlm::Decision::Substitute(format!("{e}_alt"))),
                    (e, simlm::Decision::Omit),
                ]
            });
            for pin in std::iter::once(None).chain(pins.map(Some)) {
                if let Some((e, decision)) = pin {
                    overrides.insert(e.clone(), decision);
                }
                let generate = |known, synth: &mut simlm::SynthScratch| {
                    model.generate_with_overrides_and_layers(
                        inst,
                        &mut Vocab::new(),
                        LinkTarget::Tables,
                        GenMode::Free,
                        &overrides,
                        &layers,
                        known,
                        synth,
                    )
                };
                let partial = generate(round.step_keys(), &mut synth);
                let full = generate(&[], &mut simlm::SynthScratch::default());
                skipped += partial.steps.iter().filter(|s| s.hidden.len() == 0).count();
                let reused =
                    mbpp.flag_trace_reusing(&partial, &mut round, &mut rng_reused, &mut scratch);
                let scored = mbpp.flag_trace_with_scratch(&full, &mut rng_full, &mut scratch);
                assert_eq!(reused, scored, "instance {}", inst.id);
                assert_eq!(rng_reused, rng_full, "instance {}", inst.id);
                assert_eq!(round, scratch.round, "instance {}", inst.id);
                assert!(round.fits(mbpp.selected.len()));
                assert_eq!(decode_all(&encode(&round)).as_ref(), Some(&round));
            }
        }
        assert!(skipped > 0, "no position was reused");
    }

    fn encode(round: &RoundSets) -> Vec<u8> {
        let mut bytes = Vec::new();
        round.write_bytes(&mut bytes);
        bytes
    }

    /// Read a round that must span all of `bytes`.
    fn decode_all(bytes: &[u8]) -> Option<RoundSets> {
        let mut r = ByteReader::new(bytes);
        RoundSets::read_bytes(&mut r).filter(|_| r.is_empty())
    }

    #[test]
    fn malformed_round_encodings_do_not_decode() {
        let empty = RoundSets::default();
        assert_eq!(encode(&empty), [0, 0]);
        assert_eq!(decode_all(&[0, 0]), Some(empty));
        // k = 5, one position: token 3, eight bytes of s, two set bytes.
        let one = [5, 1, 3, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 0b1110_0100, 0b01];
        let round = decode_all(&one).expect("well formed");
        assert_eq!(round.step_keys()[0].s_bits, 1.0f64.to_bits());
        assert_eq!(
            round.sets,
            [
                LabelSet::EMPTY,
                LabelSet::singleton(0),
                LabelSet::singleton(1),
                LabelSet::BOTH,
                LabelSet::singleton(0)
            ]
        );
        assert_eq!(encode(&round), one);
        assert!(round.fits(5) && !round.fits(4), "another k");
        assert_eq!(decode_all(&one[..one.len() - 1]), None, "truncated");
        assert_eq!(decode_all(&[&one[..], &[0]].concat()), None, "trailing");
        let mut padded = one;
        padded[12] |= 0b100;
        assert_eq!(decode_all(&padded), None, "nonzero padding bits");
        assert_eq!(decode_all(&[5, 0]), None, "an empty round with k > 0");
    }

    #[test]
    fn a_huge_position_count_is_refused_before_allocating() {
        // k = 1, then 2^60 positions in a 9-byte LEB128: ten bytes that
        // claim far more positions than they could hold.
        let mut bytes = vec![1];
        put_varint(&mut bytes, 1 << 60);
        assert_eq!(bytes.len(), 10);
        let allocated = crate::test_alloc::allocations_on_this_thread(|| {
            assert_eq!(decode_all(&bytes), None);
        });
        assert_eq!(allocated, 0, "refused without allocating");
    }

    #[test]
    fn batched_sets_match_per_token_for_knn_conformal() {
        let (bench, model, ds) = setup();
        let cfg = ProbeConfig {
            epochs: 6,
            conformal: ConformalKind::Knn { k: 40, tau: 50.0 },
            ..Default::default()
        };
        let sbpp = Sbpp::train(&ds, 21, 0.1, &cfg);
        let mut scratch = SbppScratch::default();
        let inst = &bench.split.dev[0];
        let mut vocab = Vocab::new();
        let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
        let n = trace.steps.len();
        let mut packed = tinynn::Matrix::zeros(n, ds.hidden_dim);
        for (t, step) in trace.steps.iter().enumerate() {
            packed.row_mut(t).copy_from_slice(&step.hidden[sbpp.layer]);
        }
        let batched = sbpp.predict_sets_batch(&packed, &mut scratch);
        for (t, step) in trace.steps.iter().enumerate() {
            assert_eq!(
                batched[t],
                sbpp.predict_set(&step.hidden[sbpp.layer]),
                "token {t}"
            );
        }
    }

    #[test]
    fn knn_conformal_variant_trains() {
        let (_, _, ds) = setup();
        let cfg = ProbeConfig {
            epochs: 4,
            conformal: ConformalKind::Knn { k: 50, tau: 50.0 },
            ..Default::default()
        };
        let sbpp = Sbpp::train(&ds, 21, 0.1, &cfg);
        // Must produce valid sets.
        let h = vec![0.0_f32; ds.hidden_dim];
        let set = sbpp.predict_set(&h);
        assert!(!set.is_empty() || set == LabelSet::EMPTY);
    }
}
