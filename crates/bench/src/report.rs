//! Experiment reports: paper-vs-measured rows, console rendering, and
//! JSON persistence for EXPERIMENTS.md regeneration.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One comparable quantity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    pub label: String,
    /// The paper's number (None = the paper gives no figure for this
    /// row, e.g. our extra diagnostics).
    pub paper: Option<f64>,
    /// Our measured number (None = not measurable in this setup, e.g.
    /// leaderboard entries we only cite).
    pub measured: Option<f64>,
    /// Display unit ("%", "AUC", "count", …).
    pub unit: String,
}

impl Row {
    pub fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) -> Self {
        Self {
            label: label.into(),
            paper,
            measured,
            unit: unit.into(),
        }
    }
}

/// A full experiment report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Stable id ("table1", "figure6", …).
    pub id: String,
    pub title: String,
    pub rows: Vec<Row>,
    /// Free-form commentary (shape checks, substitutions, caveats).
    pub notes: Vec<String>,
    /// Scale the harness ran at (1.0 = paper-sized workload).
    pub scale: f64,
    pub seed: u64,
}

impl Report {
    pub fn new(id: &str, title: &str, scale: f64, seed: u64) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            rows: Vec::new(),
            notes: Vec::new(),
            scale,
            seed,
        }
    }

    pub fn push(
        &mut self,
        label: impl Into<String>,
        paper: Option<f64>,
        measured: Option<f64>,
        unit: &str,
    ) {
        self.rows.push(Row::new(label, paper, measured, unit));
    }

    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    fn fmt_opt(v: Option<f64>) -> String {
        match v {
            Some(x) => format!("{x:>8.2}"),
            None => format!("{:>8}", "—"),
        }
    }

    /// Render for the console.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} — {} (scale {}, seed {:#x})",
            self.id, self.title, self.scale, self.seed
        );
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        let _ = writeln!(
            out,
            "{:<width$}  {:>8}  {:>8}  unit",
            "row", "paper", "measured"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$}  {}  {}  {}",
                r.label,
                Self::fmt_opt(r.paper),
                Self::fmt_opt(r.measured),
                r.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as a Markdown section (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| row | paper | measured | unit |");
        let _ = writeln!(out, "|---|---:|---:|---|");
        for r in &self.rows {
            let p = r.paper.map_or("—".to_string(), |x| format!("{x:.2}"));
            let m = r.measured.map_or("—".to_string(), |x| format!("{x:.2}"));
            let _ = writeln!(out, "| {} | {} | {} | {} |", r.label, p, m, r.unit);
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        let _ = writeln!(out);
        out
    }

    /// Persist to `results/<id>.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("report serialises");
        std::fs::write(path, json)
    }

    /// Largest |paper − measured| over rows where both sides exist.
    pub fn max_abs_gap(&self) -> f64 {
        self.rows
            .iter()
            .filter_map(|r| match (r.paper, r.measured) {
                (Some(p), Some(m)) => Some((p - m).abs()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

/// Multi-tenant serving counters: the knobs and outcomes of the
/// fairness/quota/timeout/checkpoint machinery.
#[derive(Debug, Clone)]
pub struct TenancyRecord {
    /// Distinct tenants the workload submitted as.
    pub tenants: usize,
    /// Per-tenant quota the engine enforced (0 = unbounded).
    pub quota_max_in_flight: usize,
    pub quota_max_parked: usize,
    /// Park-to-abstention feedback timeout (None = park forever).
    pub feedback_timeout_ms: Option<f64>,
    /// Live parked-bytes budget before checkpoint eviction (0 = off).
    pub parked_bytes_budget: u64,
    /// Submissions bounced by a per-tenant quota (clients retried).
    pub rejected_quota: u64,
    /// Parked sessions resumed with abstention by the timeout.
    pub timed_out_to_abstention: u64,
    /// Parked sessions evicted to serialized checkpoints / restored.
    pub checkpoints: u64,
    pub restores: u64,
    pub checkpoint_bytes_peak: u64,
    /// Highest concurrent in-flight count any single tenant reached —
    /// the fairness self-check compares this against the quota.
    pub tenant_in_flight_peak: usize,
}

/// Fault-injection configuration and recovery counters of a chaos
/// serving run (absent on a [`ServingRecord`] whose fault plan was
/// disabled).
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The deterministic fault-schedule seed.
    pub seed: u64,
    /// Trip probability of the step-panic site (the headline chaos
    /// knob; the driver arms every site at this rate).
    pub step_panic_rate: f64,
    /// Step panics caught by `catch_unwind` — pool intact, ticket
    /// salvaged into a retry or an abstention.
    pub panics_recovered: u64,
    /// Tickets that kept panicking past the retry budget and degraded
    /// to a `faulted` abstention (never a drop).
    pub panics_to_abstention: u64,
    /// Corrupt checkpoints rebuilt from their in-memory salvage recipe.
    pub corrupt_checkpoints_recovered: u64,
    /// Failed context builds that fell back to the context-free path.
    pub context_build_fallbacks: u64,
    /// Client resolutions injected as lost / delayed in flight.
    pub feedback_lost: u64,
    pub feedback_delayed: u64,
    /// Parked sessions resolved to abstention by the shutdown drain.
    pub drained_to_abstention: u64,
}

/// One closed-loop serving measurement of the `rts-serve` engine, as
/// `serve_driver` prints it.
#[derive(Debug, Clone)]
pub struct ServingRecord {
    /// Engine workers / closed-loop clients the workload ran with.
    pub workers: usize,
    pub clients: usize,
    /// Admission-queue bound, per-target context-cache capacity, and
    /// the per-request deadline (None = shedding disabled).
    pub queue_capacity: usize,
    pub cache_capacity: usize,
    pub deadline_ms: Option<f64>,
    /// Joint-linking requests submitted (each = tables + columns
    /// linking, human feedback on every flag).
    pub n_requests: usize,
    pub completed: u64,
    /// Requests answered by degrading to abstention on deadline.
    pub shed: u64,
    /// Submissions bounced at admission (clients retried them).
    pub rejected_submits: u64,
    pub feedback_rounds: u64,
    /// Submit-to-completion latency distribution, ms.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
    pub throughput_rps: f64,
    /// Work-queue depth observed at submits.
    pub queue_depth_max: usize,
    pub queue_depth_mean: f64,
    /// Lazy per-(database, target) context cache counters.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_hit_rate: f64,
    /// Peak generation state held by sessions parked on feedback.
    pub parked_bytes_peak: u64,
    pub parked_sessions_peak: u64,
    pub wall_ms: f64,
    pub tenancy: TenancyRecord,
    /// Fault-injection knobs and recovery counters (absent ≡ the run
    /// was fault-free).
    pub fault: Option<FaultRecord>,
}

impl ServingRecord {
    /// Console rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- serving: {} requests, {} workers, {} clients (queue {}, cache {}, deadline {})",
            self.n_requests,
            self.workers,
            self.clients,
            self.queue_capacity,
            self.cache_capacity,
            self.deadline_ms
                .map_or("off".to_string(), |d| format!("{d:.0} ms")),
        );
        let _ = writeln!(
            out,
            "   latency ms: p50 {:.3}  p95 {:.3}  p99 {:.3}  mean {:.3}  max {:.3}  ({:.0} req/s)",
            self.p50_ms, self.p95_ms, self.p99_ms, self.mean_ms, self.max_ms, self.throughput_rps
        );
        let _ = writeln!(
            out,
            "   completed {} (shed {}, rejected submits {}), feedback rounds {}",
            self.completed, self.shed, self.rejected_submits, self.feedback_rounds
        );
        let _ = writeln!(
            out,
            "   queue depth max {} mean {:.2}; context cache {}/{} hit ({:.0}%), {} evictions; parked peak {} sessions / {} B",
            self.queue_depth_max,
            self.queue_depth_mean,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cache_hit_rate * 100.0,
            self.cache_evictions,
            self.parked_sessions_peak,
            self.parked_bytes_peak,
        );
        let t = &self.tenancy;
        let _ = writeln!(
            out,
            "   tenancy: {} tenants (quota {}/{} in-flight/parked, peak in-flight {}), \
             {} quota bounces, feedback timeout {} → {} timed out to abstention",
            t.tenants,
            t.quota_max_in_flight,
            t.quota_max_parked,
            t.tenant_in_flight_peak,
            t.rejected_quota,
            t.feedback_timeout_ms
                .map_or("off".to_string(), |ms| format!("{ms:.0} ms")),
            t.timed_out_to_abstention,
        );
        let _ = writeln!(
            out,
            "   checkpointing: budget {} B → {} evicted / {} restored, checkpoint peak {} B",
            t.parked_bytes_budget, t.checkpoints, t.restores, t.checkpoint_bytes_peak,
        );
        if let Some(f) = &self.fault {
            let _ = writeln!(
                out,
                "   faults (seed {}, rate {:.2}): {} step panics recovered ({} to abstention), \
                 {} corrupt checkpoints salvaged, {} context fallbacks, \
                 feedback {} lost / {} delayed, {} drained at shutdown",
                f.seed,
                f.step_panic_rate,
                f.panics_recovered,
                f.panics_to_abstention,
                f.corrupt_checkpoints_recovered,
                f.context_build_fallbacks,
                f.feedback_lost,
                f.feedback_delayed,
                f.drained_to_abstention,
            );
        }
        out
    }
}

/// One sweep point of the open-loop driver: requests offered at a
/// fixed Poisson arrival rate, latency measured from the *scheduled*
/// arrival (so schedule lag past saturation shows up in the tail, the
/// defining property of an open-loop measurement).
#[derive(Debug, Clone)]
pub struct OpenLoopPoint {
    /// Poisson arrival rate the schedule was generated at, req/s.
    pub offered_rps: f64,
    /// Completions over the point's wall time, req/s.
    pub achieved_rps: f64,
    /// Scheduled-arrival-to-completion latency distribution, ms.
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub mean_ms: f64,
    pub max_ms: f64,
    pub completed: u64,
    /// Requests answered by degrading to abstention on deadline.
    pub shed: u64,
    /// Parked sessions resumed with abstention by a feedback timeout.
    pub timed_out: u64,
    /// Admission bounces (QueueFull/quota) the submitter retried —
    /// open loop never drops, it lags the schedule instead.
    pub rejected_submits: u64,
    pub wall_ms: f64,
}

/// The open-loop load harness measurement, as `openloop_driver`
/// prints it: a deterministic seeded schedule (Poisson arrivals on a
/// virtual clock, Zipf tenant/database skew over simulated users)
/// swept across arrival rates against the sharded engine.
#[derive(Debug, Clone)]
pub struct OpenLoopRecord {
    /// Sharded-engine geometry the sweep ran against.
    pub shards: usize,
    pub workers_per_shard: usize,
    /// Simulated-user population and tenant count behind the Zipf skew.
    pub users: usize,
    pub tenants: usize,
    /// Zipf exponent of the user/database popularity skew.
    pub zipf_s: f64,
    /// Arrivals per sweep point.
    pub requests_per_point: usize,
    /// Schedule seed (arrivals are a pure function of it).
    pub seed: u64,
    /// Per-shard admission-queue and context-cache bounds.
    pub queue_capacity: usize,
    pub cache_capacity: usize,
    /// The throughput-vs-latency curve, one point per offered rate
    /// (ascending).
    pub points: Vec<OpenLoopPoint>,
    /// Highest achieved throughput across the sweep, req/s.
    pub peak_throughput_rps: f64,
    /// The saturation knee: the highest offered rate the engine still
    /// sustained (achieved ≥ 90% of offered), and its p99. Past the
    /// knee, schedule lag grows without bound.
    pub knee_offered_rps: f64,
    pub knee_p99_ms: f64,
    /// Admissions executed by a worker away from its home shard.
    pub steals: u64,
    /// Aggregate context-cache hit rate across shards over the sweep.
    pub cache_hit_rate: f64,
}

impl OpenLoopRecord {
    /// Console rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "-- open loop: {} shards x {} workers, {} users / {} tenants (zipf {}), {} req/point, seed {:#x}",
            self.shards,
            self.workers_per_shard,
            self.users,
            self.tenants,
            self.zipf_s,
            self.requests_per_point,
            self.seed,
        );
        let _ = writeln!(
            out,
            "   {:>12} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
            "offered r/s", "achieved", "p50 ms", "p99 ms", "max ms", "shed", "bounced"
        );
        for p in &self.points {
            let _ = writeln!(
                out,
                "   {:>12.0} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>8} {:>8}",
                p.offered_rps,
                p.achieved_rps,
                p.p50_ms,
                p.p99_ms,
                p.max_ms,
                p.shed,
                p.rejected_submits,
            );
        }
        let _ = writeln!(
            out,
            "   peak {:.0} req/s; knee at {:.0} offered (p99 {:.3} ms); {} steals, cache hit {:.0}%",
            self.peak_throughput_rps,
            self.knee_offered_rps,
            self.knee_p99_ms,
            self.steals,
            self.cache_hit_rate * 100.0,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Report {
        let mut r = Report::new("table_x", "Demo", 1.0, 7);
        r.push("EM bird", Some(79.70), Some(81.2), "%");
        r.push("leaderboard", Some(73.01), None, "%");
        r.note("substituted workload");
        r
    }

    #[test]
    fn render_contains_rows_and_notes() {
        let text = demo().render();
        assert!(text.contains("EM bird"));
        assert!(text.contains("79.70"));
        assert!(text.contains("81.20"));
        assert!(text.contains("substituted workload"));
        assert!(text.contains("—"), "missing values render as dashes");
    }

    #[test]
    fn markdown_is_table_shaped() {
        let md = demo().render_markdown();
        assert!(md.contains("| row | paper | measured | unit |"));
        assert!(md.contains("| EM bird | 79.70 | 81.20 | % |"));
    }

    #[test]
    fn max_gap_ignores_one_sided_rows() {
        let r = demo();
        assert!((r.max_abs_gap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip() {
        let r = demo();
        let json = serde_json::to_string(&r).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), r.rows.len());
        assert_eq!(back.id, r.id);
    }

    fn demo_serving() -> ServingRecord {
        ServingRecord {
            workers: 2,
            clients: 4,
            queue_capacity: 64,
            cache_capacity: 8,
            deadline_ms: None,
            n_requests: 92,
            completed: 92,
            shed: 0,
            rejected_submits: 3,
            feedback_rounds: 41,
            p50_ms: 1.2,
            p95_ms: 3.4,
            p99_ms: 5.6,
            mean_ms: 1.5,
            max_ms: 7.0,
            throughput_rps: 800.0,
            queue_depth_max: 5,
            queue_depth_mean: 1.25,
            cache_hits: 180,
            cache_misses: 4,
            cache_evictions: 0,
            cache_hit_rate: 180.0 / 184.0,
            parked_bytes_peak: 65536,
            parked_sessions_peak: 6,
            wall_ms: 115.0,
            tenancy: TenancyRecord {
                tenants: 3,
                quota_max_in_flight: 2,
                quota_max_parked: 0,
                feedback_timeout_ms: Some(40.0),
                parked_bytes_budget: 32768,
                rejected_quota: 5,
                timed_out_to_abstention: 2,
                checkpoints: 4,
                restores: 4,
                checkpoint_bytes_peak: 900,
                tenant_in_flight_peak: 2,
            },
            fault: Some(FaultRecord {
                seed: 11,
                step_panic_rate: 0.05,
                panics_recovered: 7,
                panics_to_abstention: 1,
                corrupt_checkpoints_recovered: 2,
                context_build_fallbacks: 3,
                feedback_lost: 1,
                feedback_delayed: 4,
                drained_to_abstention: 0,
            }),
        }
    }

    #[test]
    fn serving_record_renders() {
        let mut s = demo_serving();
        let text = s.render();
        assert!(text.contains("serving: 92 requests"));
        assert!(text.contains("p99 5.600"));
        assert!(text.contains("tenancy: 3 tenants"));
        assert!(text.contains("2 timed out to abstention"));
        assert!(text.contains("faults (seed 11, rate 0.05)"));
        assert!(text.contains("7 step panics recovered (1 to abstention)"));
        s.fault = None;
        assert!(
            !s.render().contains("faults ("),
            "fault-free runs print no fault line"
        );
    }

    fn demo_open_loop() -> OpenLoopRecord {
        OpenLoopRecord {
            shards: 2,
            workers_per_shard: 1,
            users: 200,
            tenants: 4,
            zipf_s: 1.1,
            requests_per_point: 60,
            seed: 0xC0FFEE,
            queue_capacity: 32,
            cache_capacity: 8,
            points: vec![
                OpenLoopPoint {
                    offered_rps: 400.0,
                    achieved_rps: 398.0,
                    p50_ms: 2.0,
                    p95_ms: 4.0,
                    p99_ms: 5.0,
                    mean_ms: 2.2,
                    max_ms: 6.0,
                    completed: 60,
                    shed: 0,
                    timed_out: 0,
                    rejected_submits: 0,
                    wall_ms: 150.0,
                },
                OpenLoopPoint {
                    offered_rps: 3600.0,
                    achieved_rps: 1500.0,
                    p50_ms: 12.0,
                    p95_ms: 30.0,
                    p99_ms: 38.0,
                    mean_ms: 14.0,
                    max_ms: 41.0,
                    completed: 60,
                    shed: 0,
                    timed_out: 0,
                    rejected_submits: 7,
                    wall_ms: 40.0,
                },
            ],
            peak_throughput_rps: 1500.0,
            knee_offered_rps: 400.0,
            knee_p99_ms: 5.0,
            steals: 12,
            cache_hit_rate: 0.97,
        }
    }

    #[test]
    fn open_loop_record_renders() {
        let text = demo_open_loop().render();
        assert!(text.contains("open loop: 2 shards x 1 workers"));
        assert!(text.contains("peak 1500 req/s; knee at 400 offered"));
    }
}
