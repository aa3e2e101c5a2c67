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

/// A global allocator for this crate's unit tests that counts each
/// thread's allocations, so a test can assert that a path allocates
/// nothing.
#[cfg(test)]
pub(crate) mod test_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    fn count() {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }

    struct Counting;

    // SAFETY: every call forwards to `System` with the caller's
    // arguments; counting touches only a thread-local integer.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count();
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count();
            // SAFETY: `ptr` came from this allocator, that is from `System`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, that is from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// How many allocations `f` made on the calling thread.
    pub(crate) fn allocations_on_this_thread(f: impl FnOnce()) -> usize {
        let before = ALLOCATIONS.with(Cell::get);
        f();
        ALLOCATIONS.with(Cell::get) - before
    }
}
