//! # rts-core — Reliable Text-to-SQL with Adaptive Abstention
//!
//! The paper's contribution, end to end:
//!
//! * [`branching`] — build the branching-point dataset `D_branch` from
//!   teacher-forced generations (§3.1);
//! * [`bpp`] — the Branching Point Predictor: per-layer MLP probes
//!   wrapped in conformal prediction (**sBPP**, §3.2.2) and their
//!   multi-layer aggregation (**mBPP**, §3.2.3) via majority vote
//!   (Theorem 1) or the random-permutation merge (Algorithm 1);
//! * [`traceback`] — Algorithm 2: map a flagged token back to the
//!   schema elements it implicates;
//! * [`context`] — the shared per-database [`context::LinkContext`]:
//!   the handle Algorithm 2's trace back runs through, which builds
//!   the candidate vocabulary + constrained-decoding trie only when a
//!   stream ends mid-element, borrowed read-only by every instance,
//!   round and worker thread;
//! * [`surrogate`] — the fine-tuned relevance-classifier stand-in that
//!   can auto-resolve abstentions (§3.3 "Surrogate Filter");
//! * [`human`] — human-in-the-loop oracles with expertise profiles
//!   (§3.3 "Soliciting Human Feedback", §4.3 user study);
//! * [`abstention`] — the runtime: free generation monitored token by
//!   token by the mBPP, with abstain / surrogate / human policies;
//! * [`session`] — the same runtime as a resumable state machine
//!   ([`session::LinkSession`]): linking suspends on each branching
//!   flag ([`session::SessionState::NeedsFeedback`]) so an online
//!   serving engine can park the request until feedback arrives; the
//!   blocking entry points are thin drivers over it;
//! * [`sqlgen`] — simulated downstream SQL generators (Deepseek-7B,
//!   CodeS-15B class) whose corruption process is schema-conditioned,
//!   executed for real on `nanosql` to measure execution accuracy;
//! * [`pipeline`] — the full text-to-SQL pipeline gluing it together;
//! * [`metrics`] — EM / precision / recall, coverage, EAR, TAR, FAR.

pub mod abstention;
pub mod bpp;
pub mod branching;
pub mod context;
pub mod human;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod session;
pub mod sqlgen;
pub mod surrogate;
pub mod traceback;

pub use abstention::{LinkScratch, MitigationPolicy, Round0, RtsConfig, RtsOutcome};
pub use bpp::{Mbpp, MergeMethod, Sbpp};
pub use branching::BranchDataset;
pub use context::{ContextCache, LinkContext, LinkContexts};
pub use human::{Expertise, HumanOracle};
pub use metrics::{AbstentionMetrics, CoverageMetrics, LinkingMetrics};
pub use par::par_map;
pub use session::{CtxHandle, FlagQuery, FlagResolution, LinkSession, SessionState};
pub use sqlgen::{ProvidedSchema, SqlGenModel};
pub use surrogate::SurrogateModel;
