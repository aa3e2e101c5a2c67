//! # simlm — a deterministic transparent-box LLM simulator
//!
//! The RTS paper instruments a supervised fine-tuned Deepseek-7B: it
//! watches each generated token's **per-layer hidden states** to detect
//! branching points, exploits **constrained decoding** over schema
//! tokens, and relies on **teacher forcing** to label branching points
//! against ground truth (§2.3, §3.1). Running a 7B model is outside this
//! reproduction's budget, so `simlm` simulates the *observable interface*
//! of that fine-tuned model:
//!
//! * [`vocab`] — a subword tokenizer over schema identifiers
//!   (`lapTimes` → `lap·Times`) and the special tokens of the linking
//!   answer format;
//! * [`trie`] — the constrained-decoding trie restricting generation to
//!   valid schema-element token sequences;
//! * [`linearize`] — gold answers as token streams (`tables : races ,
//!   lapTimes ;`) and the inverse `decode` used by the paper's
//!   Algorithm 2;
//! * [`model`] — the generator itself. Its error process is driven by
//!   the workload's per-link confusion sets and instance hardness,
//!   calibrated per benchmark ([`profile`]) to the paper's Table 2
//!   operating points. Every emitted token carries:
//!     - an **over-confident softmax probability** (concentrated near 1
//!       for correct *and* incorrect tokens — Figure 3a),
//!     - a stack of `n_layers` hidden-state vectors in which a latent
//!       *branching-risk direction* is embedded with layer-dependent
//!       gain (mid-depth layers most informative). Probes must genuinely
//!       learn this direction from data; nothing reveals labels at
//!       inference time.
//!
//! Decisions (link correctly / substitute a confusable / omit / add
//! spurious) are drawn deterministically from the model seed and the
//! instance identity, so a free-running generation and a teacher-forced
//! replay of the same instance agree on *what the model would have
//! done* — exactly the property TAR/FAR measurement needs.

pub mod linearize;
pub mod model;
pub mod profile;
pub mod trie;
pub mod vocab;

pub use linearize::{decode_elements, linearize_columns, linearize_tables, IncrementalDecoder};
pub use model::{
    CorpusVersion, Decision, GenMode, GenerationTrace, HiddenStack, LayerSet, LinkTarget,
    SchemaLinker, StepKey, StepTrace, SynthScratch,
};
pub use profile::CompetenceProfile;
pub use trie::Trie;
pub use vocab::{TokenId, Vocab};
