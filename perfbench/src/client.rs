//! The closed-loop client the `serve` and `wire` paths share: one
//! request in flight, every feedback query answered at once by the
//! expert oracle, per-request latency from submit to `Done`.

use crate::trace::Tracer;
use crate::world::{self, Expected};
use benchgen::Instance;
use rts_core::abstention::MitigationPolicy;
use rts_core::pipeline::JointOutcome;
use rts_core::session::resolve_flag;
use rts_serve::{ClientEvent, Engine, SubmitError};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Span names of one path. `submit`, `first_event`, `oracle`,
/// `resolve` and `next_event` partition a request.
pub struct Names {
    pub request: &'static str,
    pub submit: &'static str,
    pub first_event: &'static str,
    pub oracle: &'static str,
    pub resolve: &'static str,
    pub next_event: &'static str,
}

/// What one or more passes left behind.
#[derive(Default)]
pub struct Pass {
    pub outcomes: Vec<(usize, JointOutcome)>,
    pub latencies_ms: Vec<f64>,
    /// Requests that did not come back with an outcome.
    pub failed: usize,
    /// Requests that were shed, timed out, faulted or drained: none
    /// may be, as no workload sets a deadline, timeout or fault plan.
    pub degraded: usize,
}

/// Submit every request of `stream` once, closed loop.
pub fn pass<E: Engine>(
    engine: &E,
    pool: &[Instance],
    stream: &[usize],
    names: &Names,
    mut tracer: Option<&mut Tracer>,
    out: &mut Pass,
) {
    let req_base = (out.outcomes.len() + out.failed) as u64;
    let oracle = world::oracle();
    let policy = MitigationPolicy::Human(&oracle);
    for (k, &i) in stream.iter().enumerate() {
        let inst = &pool[i];
        let req = req_base + k as u64;
        let t0 = Instant::now();
        let ticket = loop {
            match engine.submit(0, inst) {
                Ok(t) => break Some(t),
                Err(SubmitError::QueueFull { .. } | SubmitError::QuotaExceeded { .. }) => {
                    std::thread::sleep(Duration::from_micros(50));
                }
                Err(e) => {
                    eprintln!("[perfbench] submit of instance {} failed: {e}", inst.id);
                    break None;
                }
            }
        };
        let Some(ticket) = ticket else {
            out.failed += 1;
            continue;
        };
        let t1 = Instant::now();
        let mut event = engine.wait_event(ticket);
        let t2 = Instant::now();
        let parent = tracer.as_deref_mut().map(|tr| {
            let p = tr.open(names.request, req, t0);
            tr.record(names.submit, req, p, t0, t1);
            tr.record(names.first_event, req, p, t1, t2);
            p
        });
        let mut last = t2;
        let done = loop {
            match event {
                ClientEvent::NeedsFeedback { query, .. } => {
                    let resolution = resolve_flag(&policy, inst, &query);
                    let ta = Instant::now();
                    let resolved = engine.resolve(ticket, &query, resolution);
                    let tb = Instant::now();
                    if let Err(e) = resolved {
                        eprintln!("[perfbench] resolve on instance {} failed: {e}", inst.id);
                        break None;
                    }
                    event = engine.wait_event(ticket);
                    let tc = Instant::now();
                    if let (Some(tr), Some(p)) = (tracer.as_deref_mut(), parent) {
                        tr.record(names.oracle, req, p, last, ta);
                        tr.record(names.resolve, req, p, ta, tb);
                        tr.record(names.next_event, req, p, tb, tc);
                    }
                    last = tc;
                }
                ClientEvent::Done(outcome) => break Some(outcome),
                ClientEvent::Retired => {
                    eprintln!("[perfbench] instance {} retired before Done", inst.id);
                    break None;
                }
            }
        };
        let end = Instant::now();
        if let (Some(tr), Some(p)) = (tracer.as_deref_mut(), parent) {
            tr.close(p, end);
        }
        match done {
            Some(d) => {
                out.latencies_ms.push((end - t0).as_secs_f64() * 1e3);
                if d.shed || d.timed_out || d.faulted || d.drained {
                    out.degraded += 1;
                }
                out.outcomes.push((i, d.outcome));
            }
            None => out.failed += 1,
        }
    }
}

/// Requests whose outcome differs from the batch reference.
pub fn mismatches(pass: &Pass, expected: &HashMap<usize, Expected>) -> usize {
    pass.outcomes
        .iter()
        .filter(|(i, o)| !world::same_outcome(o, &expected[i].outcome))
        .count()
}
