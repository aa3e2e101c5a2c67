//! The `batch` path: offline evaluation, one request at a time on one
//! thread. A request is round-0 generation for both link targets,
//! monitored linking under the expert oracle, SQL generation from the
//! linked schema, and execution of predicted and gold SQL.

use crate::trace::{Tracer, ROOT};
use crate::world::{self, Expected, World};
use rts_core::abstention::{run_rts_linking_from, LinkScratch, MitigationPolicy, Round0};
use rts_core::bpp::BppScratch;
use rts_core::context::LinkContexts;
use rts_core::pipeline::JointOutcome;
use simlm::{GenMode, LinkTarget, Vocab};
use std::collections::HashMap;
use std::time::Instant;
use tinynn::rng::SplitMix64;

/// Span names of one batch request; the first four partition it.
pub const GENERATE: &str = "simlm.generate";
pub const LINK: &str = "core.link";
pub const SQLGEN: &str = "core.sqlgen";
pub const EXEC: &str = "nanosql.exec";
pub const REQUEST: &str = "batch.request";
/// Off the request path: the probe re-flags the round-0 traces.
pub const FLAG: &str = "core.bpp.flag";

/// What one pass left behind, per request in stream order.
#[derive(Default)]
pub struct Pass {
    pub outcomes: Vec<(usize, JointOutcome, bool)>,
    pub latencies_ms: Vec<f64>,
    /// Round-0 generation steps, both targets (traced passes only).
    pub steps: usize,
}

pub struct Batch<'w> {
    world: &'w World,
    contexts: &'w LinkContexts,
    oracle: rts_core::human::HumanOracle,
    generator: rts_core::sqlgen::SqlGenModel,
    config: rts_core::abstention::RtsConfig,
    scratch: LinkScratch,
    bpp: BppScratch,
}

impl<'w> Batch<'w> {
    pub fn new(world: &'w World, contexts: &'w LinkContexts) -> Batch<'w> {
        Batch {
            world,
            contexts,
            oracle: world::oracle(),
            generator: world::generator(),
            config: world::rts_config(),
            scratch: LinkScratch::default(),
            bpp: BppScratch::default(),
        }
    }

    /// Run every request of `stream` once; with a tracer, record the
    /// partition spans and the off-path flag probe.
    pub fn pass(&mut self, stream: &[usize], mut tracer: Option<&mut Tracer>, out: &mut Pass) {
        let w = self.world;
        let req_base = out.outcomes.len() as u64;
        let policy = MitigationPolicy::Human(&self.oracle);
        let layers_t = w.mbpp_t.layer_set();
        let layers_c = w.mbpp_c.layer_set();
        for (k, &i) in stream.iter().enumerate() {
            let inst = &w.pool[i];
            let meta = w
                .bench
                .meta(&inst.db_name)
                .expect("instance database exists");
            let db = w
                .bench
                .database(&inst.db_name)
                .expect("instance database exists");
            let ctx_t = self.contexts.get(&inst.db_name, LinkTarget::Tables);
            let ctx_c = self.contexts.get(&inst.db_name, LinkTarget::Columns);

            let t0 = Instant::now();
            let mut vocab_t = Vocab::new();
            let trace_t = w.linker.generate_with_layers(
                inst,
                &mut vocab_t,
                LinkTarget::Tables,
                GenMode::Free,
                &layers_t,
                &mut self.scratch.synth,
            );
            let mut vocab_c = Vocab::new();
            let trace_c = w.linker.generate_with_layers(
                inst,
                &mut vocab_c,
                LinkTarget::Columns,
                GenMode::Free,
                &layers_c,
                &mut self.scratch.synth,
            );
            let t1 = Instant::now();
            let tables = run_rts_linking_from(
                &w.linker,
                &w.mbpp_t,
                inst,
                meta,
                ctx_t,
                Round0 {
                    trace: &trace_t,
                    vocab: &vocab_t,
                },
                &policy,
                &self.config,
                &mut self.scratch,
            );
            let columns = run_rts_linking_from(
                &w.linker,
                &w.mbpp_c,
                inst,
                meta,
                ctx_c,
                Round0 {
                    trace: &trace_c,
                    vocab: &vocab_c,
                },
                &policy,
                &self.config,
                &mut self.scratch,
            );
            let t2 = Instant::now();
            let outcome = JointOutcome { tables, columns };
            let predicted = self
                .generator
                .generate(inst, &outcome.provided_schema(), meta)
                .to_string();
            let t3 = Instant::now();
            let gold = inst.gold_sql.to_string();
            let ex = nanosql::result::execution_accuracy(db, &gold, &predicted).is_correct();
            let t4 = Instant::now();

            out.latencies_ms.push((t4 - t0).as_secs_f64() * 1e3);
            if let Some(tr) = tracer.as_deref_mut() {
                let req = req_base + k as u64;
                let parent = tr.open(REQUEST, req, t0);
                tr.record(GENERATE, req, parent, t0, t1);
                tr.record(LINK, req, parent, t1, t2);
                tr.record(SQLGEN, req, parent, t2, t3);
                tr.record(EXEC, req, parent, t3, t4);
                tr.close(parent, t4);
                // Off-path probe: the monitor's batched scoring of the
                // round-0 traces, timed outside the request.
                let f0 = Instant::now();
                let mut rng = SplitMix64::new(self.config.seed);
                let flags_t = w
                    .mbpp_t
                    .flag_trace_with_scratch(&trace_t, &mut rng, &mut self.bpp);
                let flags_c = w
                    .mbpp_c
                    .flag_trace_with_scratch(&trace_c, &mut rng, &mut self.bpp);
                let f1 = Instant::now();
                tr.record(FLAG, req, ROOT, f0, f1);
                std::hint::black_box((flags_t, flags_c));
                out.steps += trace_t.steps.len() + trace_c.steps.len();
            }
            out.outcomes.push((i, outcome, ex));
        }
    }
}

/// Requests whose outcome or EX differs from the batch reference.
pub fn mismatches(pass: &Pass, expected: &HashMap<usize, Expected>) -> usize {
    pass.outcomes
        .iter()
        .filter(|(i, o, ex)| {
            let e = &expected[i];
            !world::same_outcome(o, &e.outcome) || *ex != e.ex
        })
        .count()
}
