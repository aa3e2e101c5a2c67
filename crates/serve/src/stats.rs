//! Serving-side accounting: latency percentiles, queue depth, parked
//! memory — the numbers [`crate::Engine::stats`] returns and the wire
//! `Stats` reply carries.

use rts_core::context::ContextCacheStats;

/// Latency distribution of completed requests, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencySummary {
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarize a sample set (order irrelevant). Empty input yields
    /// all-zero summaries.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let pct = |q: f64| {
            // Nearest-rank percentile: the smallest sample ≥ q of the
            // distribution — no interpolation artefacts on tiny sets.
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            // rts-allow(panic): rank is clamped to 1..=len above, so
            // rank - 1 is always in bounds for the non-empty vec.
            sorted[rank - 1]
        };
        Self {
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ms: sorted.last().copied().unwrap_or_default(),
        }
    }
}

/// Snapshot of an engine's counters (see [`crate::ServeEngine::stats`]).
/// `Default` is the all-zero snapshot of an engine that never served.
/// Serializable so a standalone server can ship it to a remote client.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct ServingStats {
    /// Requests that ran to completion (including shed and timed-out
    /// ones — both degrade to abstention, neither drops a request).
    pub completed: u64,
    /// Completed requests whose deadline expired mid-flight, answered
    /// by degrading the remaining stages to abstention.
    pub shed: u64,
    /// Submissions rejected at admission (queue full).
    pub rejected: u64,
    /// Submissions rejected by the per-tenant in-flight quota —
    /// backpressure on the tenant causing the load.
    pub rejected_quota: u64,
    /// Feedback resolutions applied across all requests.
    pub feedback_rounds: u64,
    /// Parked sessions whose feedback deadline lapsed and were resumed
    /// with an abstention verdict (degrade, never drop).
    pub timed_out_to_abstention: u64,
    /// Latency distribution over completed requests.
    pub latency: LatencySummary,
    /// Work-queue depth (admission + resume) observed at submits.
    pub queue_depth_max: usize,
    pub queue_depth_mean: f64,
    /// Context-cache counters (hits/misses/evictions).
    pub cache: ContextCacheStats,
    /// Peak bytes of generation state held by parked sessions.
    pub parked_bytes_peak: usize,
    /// Peak number of simultaneously parked sessions.
    pub parked_sessions_peak: usize,
    /// Bytes of generation state parked *right now* (returns to 0 once
    /// the engine drains — parked state is released eagerly).
    pub parked_bytes_now: usize,
    /// Sessions parked right now.
    pub parked_sessions_now: usize,
    /// Parked sessions evicted to checkpoint bytes (cumulative).
    pub checkpoints: u64,
    /// Evicted checkpoints consumed on resume, each decoded from its
    /// bytes or, if corrupt, salvaged from its recipe (cumulative).
    /// Resuming a stage whose recipe was never encoded is not counted.
    pub restores: u64,
    /// Peak bytes held in serialized checkpoints.
    pub checkpoint_bytes_peak: usize,
    /// Checkpoint bytes resident right now (0 after drain).
    pub checkpoint_bytes_now: usize,
    /// Distinct tenants that ever submitted.
    pub tenants_seen: usize,
    /// Highest concurrent in-flight count any single tenant reached —
    /// what a fairness self-check compares against the quota.
    pub tenant_in_flight_peak: usize,
    /// Step panics caught by a worker's `catch_unwind` (injected or
    /// genuine) — each one left the pool intact and the ticket
    /// salvaged into a retry or an abstention.
    pub panics_recovered: u64,
    /// Tickets whose step kept panicking past the retry budget and
    /// degraded to a `faulted` abstention (never a drop).
    pub panics_to_abstention: u64,
    /// Checkpoints that failed to decode and were rebuilt from the
    /// ticket's in-memory recipe instead.
    pub corrupt_checkpoints_recovered: u64,
    /// Client resolutions lost in flight (injected); the park timeout
    /// completed those requests as abstention hand-offs.
    pub feedback_lost: u64,
    /// Client resolutions delayed in flight (injected).
    pub feedback_delayed: u64,
    /// Parked sessions resolved to abstention by a shutdown drain —
    /// shutdown completes every ticket, it never strands one.
    pub drained_to_abstention: u64,
    /// Explicit schema-drift invalidations
    /// ([`crate::Engine::invalidate_db`] calls).
    pub db_invalidations: u64,
    /// Internal-invariant violations the engine absorbed instead of
    /// panicking (e.g. a dispatched ticket id with no ticket record).
    /// Always 0 in a healthy engine; nonzero means an accounting bug
    /// that was degraded, not a crash.
    pub invariant_breaches: u64,
}

impl ServingStats {
    /// Fold another shard's snapshot into this one: counters, gauges
    /// and the parked-session peak sum (an upper bound on the global
    /// peak); the other peaks and the depth statistics take the
    /// maximum, all that shard-local accounting knows. `latency` is
    /// left alone — percentiles do not merge; recompute them over the
    /// union of the samples.
    pub(crate) fn absorb(&mut self, s: ServingStats) {
        self.completed += s.completed;
        self.shed += s.shed;
        self.rejected += s.rejected;
        self.rejected_quota += s.rejected_quota;
        self.feedback_rounds += s.feedback_rounds;
        self.timed_out_to_abstention += s.timed_out_to_abstention;
        self.queue_depth_max = self.queue_depth_max.max(s.queue_depth_max);
        self.queue_depth_mean = self.queue_depth_mean.max(s.queue_depth_mean);
        self.cache.absorb(s.cache);
        self.parked_bytes_peak = self.parked_bytes_peak.max(s.parked_bytes_peak);
        self.parked_sessions_peak += s.parked_sessions_peak;
        self.parked_bytes_now += s.parked_bytes_now;
        self.parked_sessions_now += s.parked_sessions_now;
        self.checkpoints += s.checkpoints;
        self.restores += s.restores;
        self.checkpoint_bytes_peak = self.checkpoint_bytes_peak.max(s.checkpoint_bytes_peak);
        self.checkpoint_bytes_now += s.checkpoint_bytes_now;
        self.tenants_seen = self.tenants_seen.max(s.tenants_seen);
        self.tenant_in_flight_peak = self.tenant_in_flight_peak.max(s.tenant_in_flight_peak);
        self.panics_recovered += s.panics_recovered;
        self.panics_to_abstention += s.panics_to_abstention;
        self.corrupt_checkpoints_recovered += s.corrupt_checkpoints_recovered;
        self.feedback_lost += s.feedback_lost;
        self.feedback_delayed += s.feedback_delayed;
        self.drained_to_abstention += s.drained_to_abstention;
        self.db_invalidations += s.db_invalidations;
        self.invariant_breaches += s.invariant_breaches;
    }
}

/// Bounded sliding window of latency samples: a long-lived engine must
/// not grow a sample vector forever (8 bytes per request adds up at
/// production rates), and percentiles over the most recent window are
/// the operationally useful ones anyway. Overwrites oldest-first once
/// full; the caller copies [`LatencyWindow::samples`] out so it can
/// summarize them without holding the engine's lock.
#[derive(Debug)]
pub(crate) struct LatencyWindow {
    samples: Vec<f64>,
    next: usize,
    capacity: usize,
}

impl LatencyWindow {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "latency window needs room");
        Self {
            samples: Vec::new(),
            next: 0,
            capacity,
        }
    }

    pub fn push(&mut self, sample_ms: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample_ms);
        } else {
            // rts-allow(panic): in this branch len == capacity and
            // next wraps modulo capacity, so the index is in bounds.
            self.samples[self.next] = sample_ms;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// One shard's accounting: plain fields its `ShardState` owns and
/// updates under the shard's `state` lock.
#[derive(Debug)]
pub(crate) struct ShardStats {
    /// Every counter, gauge and peak the shard reports. The snapshot
    /// fills in `queue_depth_mean`; the engine fills in `latency`,
    /// `cache` and the tenant figures.
    pub totals: ServingStats,
    depth_sum: u64,
    depth_samples: u64,
    /// Bounded: percentiles are computed over the most recent
    /// `window` completions, and memory stays O(1) however long the
    /// engine lives.
    pub latencies_ms: LatencyWindow,
}

/// What a dispatch counts outside the state lock. It is added to the
/// shard's stats when the dispatch next takes the lock (at park, at
/// stage chaining or in `finalize`), so counting costs no acquisition.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Evicted checkpoint bytes the dispatch took off its ticket,
    /// restored from or discarded.
    pub checkpoint_bytes_consumed: usize,
    pub restores: u64,
    pub corrupt_checkpoints_recovered: u64,
    pub panics_recovered: u64,
    pub panics_to_abstention: u64,
}

impl ShardStats {
    pub fn new(window: usize) -> Self {
        Self {
            totals: ServingStats::default(),
            depth_sum: 0,
            depth_samples: 0,
            latencies_ms: LatencyWindow::new(window),
        }
    }

    pub fn note_depth(&mut self, depth: usize) {
        let t = &mut self.totals;
        t.queue_depth_max = t.queue_depth_max.max(depth);
        self.depth_sum += depth as u64;
        self.depth_samples += 1;
    }

    pub fn note_parked(&mut self, bytes: usize) {
        let t = &mut self.totals;
        t.parked_bytes_now += bytes;
        t.parked_bytes_peak = t.parked_bytes_peak.max(t.parked_bytes_now);
        t.parked_sessions_now += 1;
        t.parked_sessions_peak = t.parked_sessions_peak.max(t.parked_sessions_now);
    }

    pub fn note_unparked(&mut self, bytes: usize) {
        self.totals.parked_bytes_now -= bytes;
        self.totals.parked_sessions_now -= 1;
    }

    /// A parked stage's billed bytes were evicted into `bytes` of
    /// encoded checkpoint (the session count stays parked).
    pub fn note_checkpointed(&mut self, live_bytes: usize, bytes: usize) {
        let t = &mut self.totals;
        t.parked_bytes_now -= live_bytes;
        t.checkpoints += 1;
        t.checkpoint_bytes_now += bytes;
        t.checkpoint_bytes_peak = t.checkpoint_bytes_peak.max(t.checkpoint_bytes_now);
    }

    /// Record an absorbed internal-invariant violation: the engine hit
    /// a state that should be unreachable (see
    /// [`ServingStats::invariant_breaches`]) and degraded instead of
    /// panicking. `debug_assert!` still trips in debug builds so tests
    /// catch the accounting bug at its source.
    pub fn note_breach(&mut self) {
        self.totals.invariant_breaches += 1;
    }

    /// A request finished after `latency_ms`, `shed` past its deadline
    /// or not.
    pub fn note_completed(&mut self, latency_ms: f64, shed: bool) {
        self.totals.completed += 1;
        self.totals.shed += u64::from(shed);
        self.latencies_ms.push(latency_ms);
    }

    /// Add what a dispatch counted outside the lock.
    pub fn settle(&mut self, tally: Tally) {
        let t = &mut self.totals;
        t.checkpoint_bytes_now -= tally.checkpoint_bytes_consumed;
        t.restores += tally.restores;
        t.corrupt_checkpoints_recovered += tally.corrupt_checkpoints_recovered;
        t.panics_recovered += tally.panics_recovered;
        t.panics_to_abstention += tally.panics_to_abstention;
    }

    /// The reported figures, `queue_depth_mean` included.
    pub fn snapshot(&self) -> ServingStats {
        let queue_depth_mean = if self.depth_samples == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.depth_samples as f64
        };
        ServingStats {
            queue_depth_mean,
            ..self.totals.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_singleton_samples() {
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        let one = LatencySummary::from_samples(&[7.5]);
        assert_eq!(one.p50_ms, 7.5);
        assert_eq!(one.p99_ms, 7.5);
        assert_eq!(one.max_ms, 7.5);
    }

    #[test]
    fn latency_window_overwrites_oldest_at_capacity() {
        let mut w = LatencyWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(v);
        }
        let mut snap = w.samples().to_vec();
        snap.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(snap, vec![3.0, 4.0, 5.0], "oldest samples rotate out");
        assert_eq!(w.samples().len(), 3);
    }

    #[test]
    fn parked_accounting_tracks_peak_not_current() {
        let mut c = ShardStats::new(1);
        c.note_parked(100);
        c.note_parked(50);
        c.note_unparked(100);
        c.note_parked(20);
        assert_eq!(c.totals.parked_bytes_peak, 150);
        assert_eq!(c.totals.parked_bytes_now, 70);
        assert_eq!(c.totals.parked_sessions_peak, 2);
    }

    /// A restore as a dispatch tallies it: `bytes` consumed, one
    /// restore.
    fn restored(bytes: usize) -> Tally {
        Tally {
            checkpoint_bytes_consumed: bytes,
            restores: 1,
            ..Tally::default()
        }
    }

    #[test]
    fn checkpoint_accounting_moves_bytes_between_pools() {
        let mut c = ShardStats::new(1);
        c.note_parked(1000);
        // Evicted: live bytes leave the parked pool, 80 B of encoded
        // checkpoint enter the checkpoint pool; the session itself
        // stays parked.
        c.note_checkpointed(1000, 80);
        assert_eq!(c.totals.parked_bytes_now, 0);
        assert_eq!(c.totals.parked_sessions_now, 1);
        assert_eq!(c.totals.checkpoint_bytes_now, 80);
        assert_eq!(c.totals.checkpoint_bytes_peak, 80);
        // Restored on resume: checkpoint pool drains; the unpark bills
        // zero live bytes (they were already released at eviction).
        c.settle(restored(80));
        c.note_unparked(0);
        assert_eq!(c.totals.checkpoint_bytes_now, 0);
        assert_eq!(c.totals.parked_sessions_now, 0);
        assert_eq!(c.totals.checkpoints, 1);
        assert_eq!(c.totals.restores, 1);
    }

    #[test]
    fn discarded_checkpoints_drain_bytes_without_a_restore() {
        let mut c = ShardStats::new(1);
        c.note_parked(500);
        c.note_checkpointed(500, 64);
        // Shed past its deadline: bytes leave, no restore billed.
        c.settle(Tally {
            checkpoint_bytes_consumed: 64,
            ..Tally::default()
        });
        assert_eq!(c.totals.checkpoint_bytes_now, 0);
        assert_eq!(c.totals.restores, 0);
        assert_eq!(c.totals.checkpoints, 1);
    }

    /// Every numeric field of a serialized `ServingStats` but
    /// `latency` (which `absorb` leaves alone), `cache`'s included, as
    /// (path, value) pairs.
    fn numeric_fields(v: &serde::Value) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for (name, field) in v.as_object().expect("a struct serializes to an object") {
            match field {
                serde::Value::Object(inner) if name != "latency" => {
                    for (sub, x) in inner {
                        out.push((format!("{name}.{sub}"), x.as_f64().expect("numeric")));
                    }
                }
                serde::Value::Int(_) | serde::Value::Float(_) => {
                    out.push((name.clone(), field.as_f64().expect("numeric")));
                }
                _ => {}
            }
        }
        out
    }

    /// Set every numeric field `numeric_fields` finds to 1.
    fn all_ones(v: &serde::Value) -> serde::Value {
        let one = |x: &serde::Value| match x {
            serde::Value::Int(_) => serde::Value::Int(1),
            serde::Value::Float(_) => serde::Value::Float(1.0),
            other => other.clone(),
        };
        let fields = v.as_object().expect("a struct serializes to an object");
        serde::Value::Object(
            fields
                .iter()
                .map(|(name, field)| {
                    let field = match field {
                        serde::Value::Object(inner) if name != "latency" => serde::Value::Object(
                            inner.iter().map(|(k, x)| (k.clone(), one(x))).collect(),
                        ),
                        other => one(other),
                    };
                    (name.clone(), field)
                })
                .collect(),
        )
    }

    /// A counter added to `ServingStats` but left out of `absorb` would
    /// vanish on every multi-shard engine; here it reads 0 instead.
    #[test]
    fn absorb_loses_no_field() {
        use serde::{Deserialize, Serialize};
        let shape = ServingStats::default().to_value();
        let ones = ServingStats::from_value(&all_ones(&shape)).expect("round trip");
        assert!(numeric_fields(&ones.to_value())
            .iter()
            .all(|&(_, x)| x == 1.0));
        let mut merged = ServingStats::default();
        merged.absorb(ones);
        let fields = numeric_fields(&merged.to_value());
        let found = |name: &str| fields.iter().any(|(n, _)| n == name);
        assert!(found("completed") && found("cache.hits"), "{fields:?}");
        for (name, x) in fields {
            assert!(x != 0.0, "absorb drops `{name}`");
        }
    }
}
