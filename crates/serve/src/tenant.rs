//! Multi-tenant admission: per-tenant sub-queues with deficit-round-
//! robin dispatch, plus the per-tenant occupancy accounting the
//! engine's quota check reads.
//!
//! The PR-4 engine had one global FIFO: a tenant submitting 10k
//! requests put every other tenant 10k places back in line. The
//! [`FairQueue`] replaces it with one sub-queue pair per tenant
//! (fresh admissions + resumed sessions) and serves tenants
//! round-robin, weighted by a deficit counter — a tenant with weight
//! `w` is handed `w` requests per scheduling cycle, so a chatty
//! tenant's backlog deepens *its own* queue without starving anyone
//! else's. Resumed sessions keep their global priority over fresh
//! admissions (feedback-ready work never waits behind arrivals), but
//! that priority is itself rotated fairly across tenants.
//!
//! Occupancy ([`FairQueue::load`]) tracks, per tenant, how many
//! requests are anywhere between admission and completion. The
//! engine's quota check rejects submissions past the bound
//! ([`crate::SubmitError::QuotaExceeded`]) — backpressure lands on the
//! tenant causing it.

use std::collections::{HashMap, VecDeque};

/// Opaque tenant identifier. Tenants are whoever the operator wants to
/// isolate from each other — API keys, organizations, databases; the
/// engine only requires that submissions are tagged consistently.
pub type TenantId = u32;

/// Handle to one in-flight request.
pub type TicketId = u64;

/// Per-tenant admission quota. `0` = unbounded (single-tenant
/// deployments keep the PR-4 behaviour by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantQuota {
    /// Max requests a tenant may have anywhere between admission and
    /// completion (queued + running + parked), so a tenant that never
    /// answers feedback also stops accumulating parked sessions.
    pub max_in_flight: usize,
}

/// A tenant's current occupancy, read by the quota check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLoad {
    pub in_flight: usize,
}

#[derive(Debug)]
struct TenantState {
    admission: VecDeque<TicketId>,
    resume: VecDeque<TicketId>,
    /// Requests this tenant may still pop in the current DRR cycle.
    deficit: u64,
    /// DRR quantum: requests handed per cycle (≥ 1).
    weight: u32,
    in_flight: usize,
    in_flight_peak: usize,
}

impl TenantState {
    fn new(weight: u32) -> Self {
        Self {
            admission: VecDeque::new(),
            resume: VecDeque::new(),
            deficit: 0,
            weight,
            in_flight: 0,
            in_flight_peak: 0,
        }
    }

    fn has_queued(&self) -> bool {
        !self.admission.is_empty() || !self.resume.is_empty()
    }
}

/// Weighted-fair work queue over per-tenant sub-queues.
#[derive(Debug)]
pub struct FairQueue {
    tenants: HashMap<TenantId, TenantState>,
    /// Tenants with queued work, in scheduling order. Invariant: a
    /// tenant is in the ring iff `has_queued()`.
    ring: VecDeque<TenantId>,
    /// Weight assigned to tenants on first contact (overridable per
    /// tenant through [`FairQueue::set_weight`]).
    default_weight: u32,
    n_admission: usize,
    n_resume: usize,
}

impl FairQueue {
    pub fn new(default_weight: u32) -> Self {
        Self {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            default_weight: default_weight.max(1),
            n_admission: 0,
            n_resume: 0,
        }
    }

    fn tenant_mut(&mut self, t: TenantId) -> &mut TenantState {
        let w = self.default_weight;
        self.tenants.entry(t).or_insert_with(|| TenantState::new(w))
    }

    /// Override a tenant's DRR weight (takes effect next recharge).
    pub fn set_weight(&mut self, t: TenantId, weight: u32) {
        self.tenant_mut(t).weight = weight.max(1);
    }

    /// Queued fresh admissions across all tenants (what the global
    /// queue-capacity bound limits).
    pub fn n_admission(&self) -> usize {
        self.n_admission
    }

    /// Total queued work across all tenants (depth statistics).
    pub fn queued_len(&self) -> usize {
        self.n_admission + self.n_resume
    }

    /// A tenant's occupancy (zero for tenants never seen).
    pub fn load(&self, t: TenantId) -> TenantLoad {
        TenantLoad {
            in_flight: self.tenants.get(&t).map_or(0, |s| s.in_flight),
        }
    }

    /// Distinct tenants that ever had a request admitted (a tenant
    /// that was only weight-configured does not count).
    pub fn n_tenants(&self) -> usize {
        self.tenants
            .values()
            .filter(|s| s.in_flight_peak > 0)
            .count()
    }

    /// The highest concurrent in-flight count any tenant ever reached —
    /// the number a fairness self-check compares against the quota.
    pub fn max_in_flight_peak(&self) -> usize {
        self.tenants
            .values()
            .map(|s| s.in_flight_peak)
            .max()
            .unwrap_or(0)
    }

    fn enlist(&mut self, t: TenantId, was_queued: bool) {
        if !was_queued {
            self.ring.push_back(t);
        }
    }

    /// Enqueue a fresh admission for `t`. Occupancy must be billed
    /// separately ([`FairQueue::note_admitted`]).
    pub fn push_admission(&mut self, t: TenantId, id: TicketId) {
        let s = self.tenant_mut(t);
        let was_queued = s.has_queued();
        s.admission.push_back(id);
        self.n_admission += 1;
        self.enlist(t, was_queued);
    }

    /// Enqueue a resumed (feedback-resolved or timed-out) session.
    pub fn push_resume(&mut self, t: TenantId, id: TicketId) {
        let s = self.tenant_mut(t);
        let was_queued = s.has_queued();
        s.resume.push_back(id);
        self.n_resume += 1;
        self.enlist(t, was_queued);
    }

    /// Bill one admitted request against `t`'s occupancy.
    pub fn note_admitted(&mut self, t: TenantId) {
        let s = self.tenant_mut(t);
        s.in_flight += 1;
        s.in_flight_peak = s.in_flight_peak.max(s.in_flight);
    }

    /// One of `t`'s requests completed.
    pub fn note_done(&mut self, t: TenantId) {
        let s = self.tenant_mut(t);
        debug_assert!(s.in_flight > 0, "done without admission");
        s.in_flight = s.in_flight.saturating_sub(1);
    }

    /// Drop the head-of-ring tenant if it ran out of queued work, or
    /// rotate it to the back when `cede` says its turn is over.
    fn retire_or_rotate(&mut self, t: TenantId, cede: bool) {
        match self.tenants.get_mut(&t) {
            Some(s) if !s.has_queued() => {
                s.deficit = 0;
                self.ring.pop_front();
            }
            Some(_) if cede => {
                self.ring.rotate_left(1);
            }
            Some(_) => {}
            // A ring entry without a tenant record is an accounting
            // bug; retire the orphan entry and keep serving rather
            // than panicking mid-dispatch.
            None => {
                self.ring.pop_front();
            }
        }
    }

    /// Dispatch the next ticket. Resumed sessions first (rotating
    /// fairly across tenants), then fresh admissions by deficit round
    /// robin: the head tenant is recharged `weight` credits when flat,
    /// spends one per pop, and cedes the head when spent — so over any
    /// window, service is proportional to weight, and a tenant with an
    /// arbitrarily deep backlog still hands the queue over.
    pub fn pop(&mut self) -> Option<TicketId> {
        // Pass 1: resumed sessions, round robin. Guarded by the exact
        // resume count so the steady state without parked feedback —
        // the common case — skips the ring rotation entirely.
        if self.n_resume > 0 {
            for _ in 0..self.ring.len() {
                let Some(&t) = self.ring.front() else { break };
                if let Some(s) = self.tenants.get_mut(&t) {
                    if let Some(id) = s.resume.pop_front() {
                        self.n_resume -= 1;
                        self.retire_or_rotate(t, true);
                        return Some(id);
                    }
                }
                self.ring.rotate_left(1);
            }
        }
        // Pass 2: fresh admissions, deficit round robin. After pass 1
        // every ring member has an empty resume queue, so an empty
        // admission queue means no work at all → leave the ring.
        while let Some(&t) = self.ring.front() {
            let Some(s) = self.tenants.get_mut(&t) else {
                // Orphan ring entry (accounting bug): retire it and
                // keep serving the rest of the ring.
                self.ring.pop_front();
                continue;
            };
            let Some(id) = s.admission.pop_front() else {
                s.deficit = 0;
                self.ring.pop_front();
                continue;
            };
            if s.deficit == 0 {
                s.deficit = u64::from(s.weight.max(1));
            }
            s.deficit -= 1;
            self.n_admission -= 1;
            let spent = s.deficit == 0;
            if spent || !s.has_queued() {
                s.deficit = 0;
            }
            self.retire_or_rotate(t, spent);
            return Some(id);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut FairQueue) -> Vec<TicketId> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut q = FairQueue::new(1);
        for id in 0..5 {
            q.push_admission(7, id);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn chatty_tenant_cannot_starve_others() {
        let mut q = FairQueue::new(1);
        // Tenant 0 floods 100 requests (ids 0..100), then tenants 1 and
        // 2 submit one each.
        for id in 0..100 {
            q.push_admission(0, id);
        }
        q.push_admission(1, 1000);
        q.push_admission(2, 2000);
        let order = drain(&mut q);
        let pos = |id: TicketId| order.iter().position(|&x| x == id).unwrap();
        // Late single submissions are served within one DRR cycle, not
        // behind the flood.
        assert!(pos(1000) <= 3, "tenant 1 starved: position {}", pos(1000));
        assert!(pos(2000) <= 3, "tenant 2 starved: position {}", pos(2000));
        assert_eq!(order.len(), 102);
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut q = FairQueue::new(1);
        for id in 0..4 {
            q.push_admission(0, id);
            q.push_admission(1, 100 + id);
        }
        let order = drain(&mut q);
        // Strict alternation under unit weights.
        for pair in order.chunks(2) {
            assert_eq!(
                pair.iter().filter(|&&id| id >= 100).count(),
                1,
                "order not interleaved: {order:?}"
            );
        }
    }

    #[test]
    fn weights_skew_service_proportionally() {
        let mut q = FairQueue::new(1);
        q.set_weight(0, 3);
        for id in 0..9 {
            q.push_admission(0, id);
        }
        for id in 0..3 {
            q.push_admission(1, 100 + id);
        }
        let order = drain(&mut q);
        // First DRR cycle: three of tenant 0, one of tenant 1.
        assert_eq!(&order[..4], &[0, 1, 2, 100]);
        assert_eq!(&order[4..8], &[3, 4, 5, 101]);
    }

    #[test]
    fn resumed_sessions_preempt_fresh_admissions_fairly() {
        let mut q = FairQueue::new(1);
        for id in 0..3 {
            q.push_admission(0, id);
        }
        q.push_resume(1, 500);
        q.push_resume(2, 600);
        let order = drain(&mut q);
        // Both resumes come out before any admission.
        assert_eq!(
            &order[..2]
                .iter()
                .copied()
                .collect::<std::collections::HashSet<_>>(),
            &[500, 600].into_iter().collect()
        );
        assert_eq!(&order[2..], &[0, 1, 2]);
    }

    #[test]
    fn occupancy_tracks_in_flight_and_its_peak() {
        let mut q = FairQueue::new(1);
        q.note_admitted(4);
        q.note_admitted(4);
        assert_eq!(q.load(4), TenantLoad { in_flight: 2 });
        q.note_done(4);
        assert_eq!(q.load(4), TenantLoad { in_flight: 1 });
        assert_eq!(q.max_in_flight_peak(), 2, "peak survives the drain");
        assert_eq!(q.n_tenants(), 1);
        assert_eq!(q.load(99).in_flight, 0, "unknown tenants read as idle");
        q.set_weight(50, 3);
        assert_eq!(
            q.n_tenants(),
            1,
            "weight-only tenants never submitted and must not count"
        );
    }

    #[test]
    fn queue_counters_track_both_lanes() {
        let mut q = FairQueue::new(1);
        q.push_admission(0, 1);
        q.push_resume(0, 2);
        q.push_admission(1, 3);
        assert_eq!(q.n_admission(), 2);
        assert_eq!(q.queued_len(), 3);
        let _ = q.pop();
        assert_eq!(q.queued_len(), 2);
        drain(&mut q);
        assert_eq!((q.n_admission(), q.queued_len()), (0, 0));
    }
}
