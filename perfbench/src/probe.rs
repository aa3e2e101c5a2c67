//! Off-path layer probes: layers the serving paths call from inside
//! the engine or the server, timed here by calling their public
//! functions directly on the same requests.

use crate::trace::{Tracer, ROOT};
use crate::world::{self, Expected, World};
use rts_core::abstention::LinkScratch;
use rts_core::context::{LinkContext, LinkContexts};
use rts_core::pipeline::JointOutcome;
use rts_core::session::{resolve_flag, CtxHandle, LinkSession, SessionState};
use rts_serve::wire::{write_frame, ClientMsg, ServerMsg, WireOutcome};
use simlm::LinkTarget;
use std::collections::HashMap;
use std::time::Instant;

pub const CONTEXT_BUILD: &str = "core.context.build";
pub const ENCODE: &str = "serve.checkpoint.encode";
pub const RESTORE: &str = "serve.checkpoint.restore";

/// Builds per (database, target) pair in the context probe.
const CONTEXT_ROUNDS: usize = 5;

/// Time `LinkContext::new` for every database and both targets,
/// [`CONTEXT_ROUNDS`] times. Returns the number of builds.
pub fn context_builds(world: &World, tracer: &mut Tracer) -> usize {
    let mut builds = 0;
    for _ in 0..CONTEXT_ROUNDS {
        for meta in &world.bench.metas {
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let t0 = Instant::now();
                let ctx = LinkContext::new(meta, target);
                let t1 = Instant::now();
                std::hint::black_box(ctx);
                tracer.record(CONTEXT_BUILD, builds as u64, ROOT, t0, t1);
                builds += 1;
            }
        }
    }
    builds
}

/// What replaying one pass through `LinkSession` found.
#[derive(Default)]
pub struct Replay {
    /// Sessions parked on a feedback query, each checkpointed and
    /// restored once.
    pub parks: usize,
    pub checkpoint_bytes: usize,
    /// Bytes and frames the wire protocol moves for the pass.
    pub wire_bytes: usize,
    pub wire_frames: usize,
    /// Requests whose replayed outcome differs from the batch runtime.
    pub mismatches: usize,
}

/// Replay every request of `stream` as the engine runs it: a session
/// per link target, stepped to each feedback query, checkpointed
/// (encode), then decoded and restored before the oracle's answer is
/// applied. The restored session must finish exactly like the batch
/// runtime. Alongside, every message the wire protocol would carry for
/// the request is framed into a buffer to count bytes and frames.
pub fn replay(
    world: &World,
    contexts: &LinkContexts,
    stream: &[usize],
    expected: &HashMap<usize, Expected>,
    tracer: &mut Tracer,
) -> Replay {
    let oracle = world::oracle();
    let policy = rts_core::abstention::MitigationPolicy::Human(&oracle);
    let config = world::rts_config();
    let mut scratch = LinkScratch::default();
    let mut out = Replay::default();
    let mut frames: Vec<u8> = Vec::with_capacity(1 << 16);
    for (k, &i) in stream.iter().enumerate() {
        let inst = &world.pool[i];
        let meta = world
            .bench
            .meta(&inst.db_name)
            .expect("instance database exists");
        let req = k as u64 + 1;
        let mut sent = vec![
            frame(
                &mut frames,
                &ClientMsg::Submit {
                    req,
                    tenant: 0,
                    instance: inst.id,
                },
            ),
            frame(&mut frames, &ServerMsg::Submitted { req }),
        ];
        let mut n_feedback = 0usize;
        let mut link = |target: LinkTarget, mbpp| {
            let ctx = contexts.get(&inst.db_name, target);
            let mut session = LinkSession::new(
                &world.linker,
                mbpp,
                inst,
                meta,
                target,
                Some(CtxHandle::Borrowed(ctx)),
                None,
                &config,
            );
            loop {
                match session.step(&mut scratch) {
                    SessionState::Done(outcome) => return outcome,
                    SessionState::NeedsFeedback(query) => {
                        let t0 = Instant::now();
                        let bytes = rts_serve::checkpoint::encode(&session.checkpoint());
                        let t1 = Instant::now();
                        let restored = LinkSession::restore(
                            &world.linker,
                            mbpp,
                            inst,
                            meta,
                            target,
                            Some(CtxHandle::Borrowed(ctx)),
                            &config,
                            &rts_serve::checkpoint::decode(&bytes),
                            &mut scratch.synth,
                        );
                        let t2 = Instant::now();
                        tracer.record(ENCODE, req, ROOT, t0, t1);
                        tracer.record(RESTORE, req, ROOT, t1, t2);
                        out.parks += 1;
                        out.checkpoint_bytes += bytes.len();
                        session = restored;
                        let resolution = resolve_flag(&policy, inst, &query);
                        n_feedback += 1;
                        let ack = req * 1000 + n_feedback as u64;
                        sent.push(frame(
                            &mut frames,
                            &ServerMsg::NeedsFeedback {
                                req,
                                target,
                                query: query.clone(),
                            },
                        ));
                        sent.push(frame(
                            &mut frames,
                            &ClientMsg::Resolve {
                                req: ack,
                                ticket: req,
                                query,
                                resolution: resolution.clone(),
                            },
                        ));
                        sent.push(frame(&mut frames, &ServerMsg::Resolved { req: ack }));
                        session.resolve(resolution);
                    }
                }
            }
        };
        let tables = link(LinkTarget::Tables, &world.mbpp_t);
        let columns = link(LinkTarget::Columns, &world.mbpp_c);
        let outcome = JointOutcome { tables, columns };
        if !world::same_outcome(&outcome, &expected[&i].outcome) {
            out.mismatches += 1;
        }
        sent.push(frame(
            &mut frames,
            &ServerMsg::Done {
                req,
                outcome: WireOutcome {
                    outcome,
                    shed: false,
                    timed_out: false,
                    faulted: false,
                    drained: false,
                    // Fixed, so the byte count is exact; a real latency
                    // adds a few digits.
                    latency_us: 0,
                    n_feedback,
                },
            },
        ));
        out.wire_frames += sent.len();
        out.wire_bytes += sent.iter().sum::<usize>();
    }
    out
}

/// Frame `msg` into `buf` (cleared first); returns the frame's length.
fn frame<T: serde::Serialize>(buf: &mut Vec<u8>, msg: &T) -> usize {
    buf.clear();
    write_frame(buf, msg).expect("benchmark messages fit a frame");
    buf.len()
}
