//! Deterministic fault injection for the serving engine.
//!
//! A [`FaultPlan`] is a *seeded, reproducible schedule* of faults: each
//! injection site keeps its own draw counter, and whether draw `n` at
//! site `s` trips is a pure function of `(seed, s, n)` — re-running the
//! same single-threaded workload with the same seed injects the same
//! faults at the same points. (Under a multi-threaded pool the per-site
//! *sequence* is still fixed; only which worker consumes which draw
//! varies, exactly like the work schedule itself.)
//!
//! Five sites cover the failure modes the engine hardens against:
//!
//! * [`FaultSite::StepPanic`] — a worker panics mid-step. The engine
//!   catches it, rebuilds the session from its recovery recipe, and
//!   retries with backoff; past the retry budget the ticket degrades to
//!   abstention (`faulted` in the outcome), never a dead pool.
//! * [`FaultSite::CheckpointDecode`] — a parked-session checkpoint
//!   fails to decode. The engine rebuilds the session from the recipe
//!   the evicted ticket keeps in memory.
//! * [`FaultSite::ContextBuild`] — building a shared `LinkContext`
//!   fails. The session runs context-free instead; the reference
//!   implicated-set path is outcome-identical (pinned by the parity
//!   proptests), so this degrades *performance*, never answers.
//! * [`FaultSite::FeedbackLoss`] — a client's resolution is lost in
//!   flight. Only injected when a feedback timeout is configured: the
//!   park timeout completes the request as an abstention hand-off.
//! * [`FaultSite::FeedbackDelay`] — a resolution is delayed before it
//!   reaches the engine, exercising the stale-answer races.
//!
//! A disabled plan (the default) is a single predictable branch per
//! site — no RNG, no atomics touched.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Where a fault can be injected. See the module docs for what the
/// engine does when each one fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a worker's session step.
    StepPanic,
    /// Corrupt a parked-session checkpoint at decode time.
    CheckpointDecode,
    /// Fail a shared `LinkContext` build.
    ContextBuild,
    /// Drop a client resolution in flight (requires a feedback timeout).
    FeedbackLoss,
    /// Delay a client resolution before it reaches the engine.
    FeedbackDelay,
}

const N_SITES: usize = 5;

/// Distinct salts decorrelate the per-site draw streams.
const SITE_SALTS: [u64; N_SITES] = [
    0x53_54_45_50, // "STEP"
    0x43_4B_50_54, // "CKPT"
    0x43_54_58_42, // "CTXB"
    0x46_4C_4F_53, // "FLOS"
    0x46_44_4C_59, // "FDLY"
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::StepPanic => 0,
            FaultSite::CheckpointDecode => 1,
            FaultSite::ContextBuild => 2,
            FaultSite::FeedbackLoss => 3,
            FaultSite::FeedbackDelay => 4,
        }
    }
}

/// The payload of an *injected* step panic — a marker type so panic
/// hooks (see [`silence_injected_panics`]) and tests can tell a
/// scheduled fault from a genuine bug unwinding.
#[derive(Debug)]
pub struct InjectedPanic;

/// A seeded, reproducible fault schedule. Disabled by default
/// ([`FaultPlan::disabled`]); [`FaultPlan::seeded`] arms every site at
/// one rate, and [`FaultPlan::with_rate`] tunes sites individually.
#[derive(Debug)]
pub struct FaultPlan {
    enabled: bool,
    /// Schedule seed: same seed + same workload ⇒ same fault schedule.
    pub seed: u64,
    /// Per-site trip probabilities, indexed by [`FaultSite`].
    rates: [f64; N_SITES],
    /// How long a delayed resolution sleeps before reaching the engine.
    pub feedback_delay: Duration,
    /// Per-site draw counters — the schedule position, not statistics.
    draws: [AtomicU64; N_SITES],
}

impl FaultPlan {
    /// The no-op plan: every [`FaultPlan::trip`] is one predictable
    /// `false` branch.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            seed: 0,
            rates: [0.0; N_SITES],
            feedback_delay: Duration::from_micros(500),
            draws: Default::default(),
        }
    }

    /// Arm every site at probability `rate` under `seed`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        Self {
            enabled: true,
            seed,
            rates: [rate; N_SITES],
            feedback_delay: Duration::from_micros(500),
            draws: Default::default(),
        }
    }

    /// Override one site's rate (builder-style; arms the plan).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> Self {
        self.enabled = true;
        self.rates[site.index()] = rate;
        self
    }

    /// Draw the next scheduled decision for `site`: does this fault
    /// fire? Deterministic in `(seed, site, draw index)`.
    #[inline]
    pub fn trip(&self, site: FaultSite) -> bool {
        if !self.enabled {
            return false;
        }
        let i = site.index();
        let rate = self.rates[i];
        if rate <= 0.0 {
            return false;
        }
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let x = splitmix64(self.seed ^ SITE_SALTS[i] ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // 53-bit uniform in [0, 1).
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Clone for FaultPlan {
    /// Clones the *schedule* (seed + rates), not the position: a cloned
    /// plan starts its draw streams from zero, so an engine built from
    /// a cloned config replays the same faults.
    fn clone(&self) -> Self {
        Self {
            enabled: self.enabled,
            seed: self.seed,
            rates: self.rates,
            feedback_delay: self.feedback_delay,
            draws: Default::default(),
        }
    }
}

/// SplitMix64 finalizer — one multiply-xorshift cascade per draw.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Install a process-wide panic hook that swallows [`InjectedPanic`]
/// payloads (scheduled faults are expected — printing a backtrace per
/// injection would drown the logs) and forwards everything else to the
/// previous hook. Idempotent.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(plan: &FaultPlan, site: FaultSite, n: usize) -> Vec<bool> {
        (0..n).map(|_| plan.trip(site)).collect()
    }

    #[test]
    fn disabled_plan_never_trips() {
        let plan = FaultPlan::disabled();
        for site in [
            FaultSite::StepPanic,
            FaultSite::CheckpointDecode,
            FaultSite::ContextBuild,
            FaultSite::FeedbackLoss,
            FaultSite::FeedbackDelay,
        ] {
            assert!(sequence(&plan, site, 256).iter().all(|t| !t), "{site:?}");
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::seeded(42, 0.3);
        let b = FaultPlan::seeded(42, 0.3);
        for site in [
            FaultSite::StepPanic,
            FaultSite::CheckpointDecode,
            FaultSite::ContextBuild,
            FaultSite::FeedbackLoss,
            FaultSite::FeedbackDelay,
        ] {
            assert_eq!(sequence(&a, site, 512), sequence(&b, site, 512));
        }
    }

    #[test]
    fn different_seeds_diverge_and_rates_bound_frequency() {
        let a = FaultPlan::seeded(1, 0.3);
        let b = FaultPlan::seeded(2, 0.3);
        assert_ne!(
            sequence(&a, FaultSite::StepPanic, 512),
            sequence(&b, FaultSite::StepPanic, 512)
        );
        let always = FaultPlan::seeded(7, 1.0);
        assert!(sequence(&always, FaultSite::StepPanic, 64)
            .iter()
            .all(|&t| t));
        let frequent = FaultPlan::seeded(7, 0.25);
        let trips = sequence(&frequent, FaultSite::StepPanic, 4096)
            .iter()
            .filter(|&&t| t)
            .count();
        // 4096 Bernoulli(0.25) draws: mean 1024, σ ≈ 28.
        assert!((800..1250).contains(&trips), "trips {trips}");
    }

    #[test]
    fn clone_replays_the_schedule_from_zero() {
        let a = FaultPlan::seeded(9, 0.4).with_rate(FaultSite::FeedbackLoss, 0.0);
        let first = sequence(&a, FaultSite::StepPanic, 100);
        let b = a.clone();
        assert_eq!(sequence(&b, FaultSite::StepPanic, 100), first);
        assert!(!b.trip(FaultSite::FeedbackLoss));
    }
}
