//! Traced runs: per-layer numbers for one workload.
//!
//! Every layer is measured on the workload's own request stream. The
//! workload's own path runs for the measured window, alternating
//! untraced and traced passes so that `trace.overhead` compares like
//! with like; the two other paths run one warm-up, one untraced and
//! one traced pass each, so every run reports every layer. The
//! off-path probes (context builds, checkpoint replay, wire framing)
//! follow on one pass of the stream.

use crate::e2e::{check_client, check_drained, common_record, cpu_label, pin};
use crate::report::Report;
use crate::trace::{self, Tracer};
use crate::world::{self, World};
use crate::{batch, client, probe, procfs, serve, stream, wire, Args, Workload};
use rts_client::RtsClient;
use rts_serve::wire::corpus_fingerprint;
use rts_serve::{Engine, ServingStats};
use std::time::{Duration, Instant};

/// Largest gap allowed between the batch partition's spans and the
/// request wall time they split, as a share of the wall time.
pub const PARTITION_TOLERANCE: f64 = 0.02;

/// Untraced and traced passes of one path.
#[derive(Default)]
struct Alternation {
    untraced_wall: Duration,
    untraced_passes: usize,
    traced_wall: Duration,
    traced_passes: usize,
}

impl Alternation {
    /// 1 − traced ÷ untraced throughput (passes are equal in size).
    fn overhead(&self) -> f64 {
        let rate = |passes: usize, wall: Duration| passes as f64 / wall.as_secs_f64();
        1.0 - rate(self.traced_passes, self.traced_wall)
            / rate(self.untraced_passes, self.untraced_wall)
    }
}

/// One warm-up pass, then an untraced and a traced pass, repeated until
/// `seconds` have elapsed. `pass(traced)` runs one pass and returns the
/// time it measured.
fn alternate(seconds: f64, mut pass: impl FnMut(bool) -> Duration) -> Alternation {
    pass(false);
    let t0 = Instant::now();
    let mut a = Alternation::default();
    loop {
        a.untraced_wall += pass(false);
        a.untraced_passes += 1;
        a.traced_wall += pass(true);
        a.traced_passes += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            return a;
        }
    }
}

/// Engine counter deltas over one traced pass, per request.
fn engine_counts(r: &mut Report, before: &ServingStats, after: &ServingStats, requests: usize) {
    let n = requests.max(1) as f64;
    let hits = (after.cache.hits - before.cache.hits) as f64;
    let misses = (after.cache.misses - before.cache.misses) as f64;
    r.metric(
        "serve.cache.miss_rate",
        misses / (hits + misses).max(1.0),
        "share",
    );
    r.metric(
        "serve.cache.evictions_per_req",
        (after.cache.evictions - before.cache.evictions) as f64 / n,
        "1/req",
    );
    r.metric(
        "serve.checkpoints_per_req",
        (after.checkpoints - before.checkpoints) as f64 / n,
        "1/req",
    );
    r.metric(
        "serve.restores_per_req",
        (after.restores - before.restores) as f64 / n,
        "1/req",
    );
    r.metric(
        "serve.feedback_rounds_per_req",
        (after.feedback_rounds - before.feedback_rounds) as f64 / n,
        "1/req",
    );
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let own = args.workload;
    let window = |w: Workload| if w == own { args.seconds } else { 0.0 };
    let (world, contexts) = World::build_with_contexts();
    let stream = match own {
        Workload::Batch => stream::held_out(&world.bench, &world.pool, args.seed),
        Workload::Serve | Workload::Wire => stream::zipf(&world.bench, &world.pool, args.seed),
    };
    let n = stream.len();
    let expected = world::expected(&world, &contexts, &stream);
    let cpu = pin(None);
    let mut tracer = Tracer::new(Instant::now());
    let mut own_alternation = Alternation::default();

    // The batch path.
    let mut runner = batch::Batch::new(&world, &contexts);
    let mut b = batch::Pass::default();
    let alt = alternate(window(Workload::Batch), |traced| {
        let t0 = Instant::now();
        runner.pass(&stream, traced.then_some(&mut tracer), &mut b);
        t0.elapsed()
    });
    let wrong = batch::mismatches(&b, &expected);
    r.attempted += b.outcomes.len();
    r.failed += wrong;
    r.check(wrong == 0, || {
        format!("batch: {wrong} outcomes differ from run_joint_linking_in")
    });
    let batch_traced = alt.traced_passes * n;
    if own == Workload::Batch {
        own_alternation = alt;
    }

    // The serve path.
    let engine = serve::engine(&world);
    let mut served = client::Pass::default();
    let mut counts: Option<(ServingStats, ServingStats)> = None;
    let (alt, serve_stats) = serve::drive(&engine, |e| {
        alternate(window(Workload::Serve), |traced| {
            let before = (traced && counts.is_none()).then(|| e.stats());
            let t0 = Instant::now();
            client::pass(
                e,
                &world.pool,
                &stream,
                &serve::NAMES,
                traced.then_some(&mut tracer),
                &mut served,
            );
            let wall = t0.elapsed();
            if let Some(before) = before {
                counts = Some((before, e.stats()));
            }
            wall
        })
    });
    check_client(r, &served, &expected, "serve");
    check_drained(r, &serve_stats, (1 + 2 * alt.traced_passes) * n, "serve");
    let serve_traced = alt.traced_passes * n;
    if own == Workload::Serve {
        own_alternation = alt;
    }

    // The wire path.
    let binary = args
        .server
        .as_deref()
        .ok_or("the traced run needs --server PATH")?;
    let server = wire::Server::start(binary)?;
    let fingerprint = corpus_fingerprint(
        "bird",
        world::SCALE,
        world::CORPUS_SEED,
        world.linker.corpus(),
    );
    let rts = RtsClient::connect(&server.addr, Some(&fingerprint)).map_err(|e| e.to_string())?;
    let cpu = cpu.and(pin(Some(server.pid())));
    r.note("cpu", cpu_label(cpu));
    let mut wired = client::Pass::default();
    let (mut served_cpu, mut client_cpu, mut cpu_passes) = (0.0, 0.0, 0usize);
    let alt = alternate(window(Workload::Wire), |traced| {
        let cpu0 = (procfs::cpu_us(Some(server.pid())), procfs::cpu_us(None));
        let t0 = Instant::now();
        client::pass(
            &rts,
            &world.pool,
            &stream,
            &wire::NAMES,
            traced.then_some(&mut tracer),
            &mut wired,
        );
        let wall = t0.elapsed();
        if !traced {
            let cpu1 = (procfs::cpu_us(Some(server.pid())), procfs::cpu_us(None));
            served_cpu += cpu1.0.unwrap_or(0.0) - cpu0.0.unwrap_or(0.0);
            client_cpu += cpu1.1.unwrap_or(0.0) - cpu0.1.unwrap_or(0.0);
            cpu_passes += 1;
        }
        wall
    });
    let wire_stats = rts.stats();
    rts.shutdown();
    rts.bye();
    r.check(server.wait_exit(), || {
        "rts-served did not exit cleanly after Shutdown".to_string()
    });
    check_client(r, &wired, &expected, "wire");
    check_drained(r, &wire_stats, (1 + 2 * alt.traced_passes) * n, "wire");
    let wire_traced = alt.traced_passes * n;
    let cpu_requests = cpu_passes * n;
    if own == Workload::Wire {
        own_alternation = alt;
    }

    // Off-path probes.
    let builds = probe::context_builds(&world, &mut tracer);
    let replay = probe::replay(&world, &contexts, &stream, &expected, &mut tracer);
    r.attempted += n;
    r.failed += replay.mismatches;
    r.check(replay.mismatches == 0, || {
        format!(
            "{} checkpoint-restored sessions differ from the batch runtime",
            replay.mismatches
        )
    });

    let totals = tracer.totals();
    let own_request = match own {
        Workload::Batch => batch::REQUEST,
        Workload::Serve => serve::NAMES.request,
        Workload::Wire => wire::NAMES.request,
    };
    let coverage = trace::coverage(&totals, own_request);
    if own == Workload::Batch {
        r.check((1.0 - coverage).abs() <= PARTITION_TOLERANCE, || {
            format!("batch partition covers {coverage:.4} of request wall time")
        });
    }
    let us = |name: &str, calls: usize| trace::us_per_req(&totals, name, calls);
    let flags: usize = stream
        .iter()
        .map(|i| expected[i].outcome.tables.n_flags + expected[i].outcome.columns.n_flags)
        .sum();
    let consults: usize = stream
        .iter()
        .map(|i| {
            expected[i].outcome.tables.n_interventions + expected[i].outcome.columns.n_interventions
        })
        .sum();

    r.metric("trace.coverage", coverage, "share");
    r.metric("trace.overhead", own_alternation.overhead(), "share");
    r.metric("simlm.generate_us", us(batch::GENERATE, batch_traced), "us");
    r.metric("core.link_us", us(batch::LINK, batch_traced), "us");
    r.metric("core.sqlgen_us", us(batch::SQLGEN, batch_traced), "us");
    r.metric("nanosql.exec_us", us(batch::EXEC, batch_traced), "us");
    r.metric("core.bpp.flag_us", us(batch::FLAG, batch_traced), "us");
    r.metric(
        "simlm.steps_per_req",
        b.steps as f64 / batch_traced.max(1) as f64,
        "1/req",
    );
    r.metric("core.flags_per_req", flags as f64 / n as f64, "1/req");
    r.metric("core.consults_per_req", consults as f64 / n as f64, "1/req");
    r.metric(
        "serve.submit_us",
        us(serve::NAMES.submit, serve_traced),
        "us",
    );
    r.metric(
        "serve.first_event_us",
        us(serve::NAMES.first_event, serve_traced),
        "us",
    );
    r.metric(
        "serve.resume_us",
        us(serve::NAMES.resolve, serve_traced) + us(serve::NAMES.next_event, serve_traced),
        "us",
    );
    let (before, after) = counts.ok_or("serve path ran no traced pass")?;
    engine_counts(r, &before, &after, n);
    r.metric(
        "core.context.build_us",
        us(probe::CONTEXT_BUILD, builds),
        "us",
    );
    r.metric(
        "serve.checkpoint.encode_us",
        us(probe::ENCODE, replay.parks),
        "us",
    );
    r.metric(
        "serve.checkpoint.restore_us",
        us(probe::RESTORE, replay.parks),
        "us",
    );
    r.metric(
        "serve.checkpoint.bytes_per_park",
        replay.checkpoint_bytes as f64 / replay.parks.max(1) as f64,
        "B",
    );
    r.metric(
        "wire.submit_rtt_us",
        us(wire::NAMES.submit, wire_traced),
        "us",
    );
    r.metric(
        "wire.first_event_us",
        us(wire::NAMES.first_event, wire_traced),
        "us",
    );
    r.metric(
        "wire.resolve_rtt_us",
        us(wire::NAMES.resolve, wire_traced),
        "us",
    );
    r.metric(
        "wire.next_event_us",
        us(wire::NAMES.next_event, wire_traced),
        "us",
    );
    r.metric(
        "served.cpu_us_per_req",
        served_cpu / cpu_requests.max(1) as f64,
        "us",
    );
    r.metric(
        "client.cpu_us_per_req",
        client_cpu / cpu_requests.max(1) as f64,
        "us",
    );
    r.metric(
        "wire.bytes_per_req",
        replay.wire_bytes as f64 / n as f64,
        "B",
    );
    r.metric(
        "wire.frames_per_req",
        replay.wire_frames as f64 / n as f64,
        "1/req",
    );

    common_record(r, &world, &stream, own, own_alternation.traced_passes);
    r.note("spans", tracer.spans.len());
    if let Some(path) = &args.trace_out {
        tracer
            .write_to(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
