//! Untraced runs: set-up timing, a warm-up pass, then whole passes of
//! the request stream for the measured window. Every outcome is checked
//! against the batch runtime after the window closes.

use crate::report::Report;
use crate::world::{self, World};
use crate::{batch, client, procfs, serve, stream, wire, Args, Workload};
use rts_client::RtsClient;
use rts_core::context::LinkContexts;
use rts_serve::wire::corpus_fingerprint;
use rts_serve::{Engine, ServingStats};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Run `pass` until `seconds` have elapsed (at least once); returns the
/// wall time of each pass.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut()) -> Vec<Duration> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        pass();
        walls.push(t.elapsed());
        if t0.elapsed().as_secs_f64() >= seconds {
            return walls;
        }
    }
}

/// Repeat `setup` [`SETUPS`] times, dropping each result before the
/// next starts; the first is timed from process start. Returns the
/// last result and every set-up time in seconds.
fn repeated_setup<T>(
    started: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for k in 0..SETUPS {
        drop(last.take());
        let t0 = if k == 0 { started } else { Instant::now() };
        let built = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Run the measured phase on one CPU: this process and, for `wire`, the
/// server. A closed loop hands each request between threads; on one
/// CPU that is a plain context switch, while across CPUs every handoff
/// wakes an idle virtual CPU, whose latency swings from run to run.
/// Set-up runs before this, on every CPU the process may use. Returns
/// the CPU, or `None` if pinning failed.
pub fn pin(server: Option<u32>) -> Option<usize> {
    let cpu = procfs::last_allowed_cpu()?;
    let pinned = procfs::pin_process(None, cpu)
        && server.is_none_or(|pid| procfs::pin_process(Some(pid), cpu));
    pinned.then_some(cpu)
}

/// The pinned CPU, for the record.
pub fn cpu_label(cpu: Option<usize>) -> String {
    cpu.map_or_else(|| "unpinned".to_string(), |c| c.to_string())
}

/// The end-to-end metrics every workload reports.
struct Measured<'a> {
    setups: &'a [f64],
    latencies_ms: &'a [f64],
    completed: usize,
    pass_walls: &'a [Duration],
    rss_mb: f64,
    quality: (f64, f64, f64),
}

fn end_to_end(r: &mut Report, m: Measured<'_>) {
    let mut sorted = m.latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = procfs::percentile(&sorted, 0.50);
    let p99 = procfs::percentile(&sorted, 0.99);
    let (link_acc, consult_rate, ex) = m.quality;
    r.metric("setup_s", procfs::median(m.setups), "s");
    let wall: Duration = m.pass_walls.iter().sum();
    r.metric(
        "throughput_rps",
        m.completed as f64 / wall.as_secs_f64(),
        "1/s",
    );
    r.metric("p50_ms", p50, "ms");
    r.metric("p99_ms", p99, "ms");
    r.metric("rss_peak_mb", m.rss_mb, "MB");
    r.metric("link_acc", link_acc, "share");
    r.metric("consult_rate", consult_rate, "1/req");
    r.metric("ex", ex, "share");
    r.note("latency_samples", sorted.len());
    r.note("beyond_p99", sorted.iter().filter(|&&x| x > p99).count());
    r.note("measured_s", wall.as_secs_f64());
    r.note(
        "pass_s",
        m.pass_walls
            .iter()
            .map(|w| format!("{:.4}", w.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    r.note(
        "setup_runs_s",
        m.setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
}

/// After the drain every submitted request has completed (none is in
/// flight) and the parked-state gauges read 0.
pub fn check_drained(r: &mut Report, s: &ServingStats, submitted: usize, path: &str) {
    r.check(s.completed as usize == submitted, || {
        format!(
            "{path}: engine completed {} of {submitted} submitted",
            s.completed
        )
    });
    r.check(
        s.parked_sessions_now == 0 && s.parked_bytes_now == 0 && s.checkpoint_bytes_now == 0,
        || {
            format!(
                "{path}: gauges not drained: {} sessions parked, {} parked bytes, {} checkpoint bytes",
                s.parked_sessions_now, s.parked_bytes_now, s.checkpoint_bytes_now
            )
        },
    );
}

/// Every outcome of a client pass equals the batch runtime's, and no
/// request was degraded.
pub fn check_client(
    r: &mut Report,
    p: &client::Pass,
    expected: &std::collections::HashMap<usize, world::Expected>,
    path: &str,
) {
    let wrong = client::mismatches(p, expected);
    r.attempted += p.outcomes.len() + p.failed;
    r.failed += p.failed + wrong;
    r.check(wrong == 0, || {
        format!("{path}: {wrong} outcomes differ from the batch runtime")
    });
    r.check(p.degraded == 0, || {
        format!("{path}: {} requests degraded", p.degraded)
    });
}

/// The engine completed exactly the requests the client saw in the
/// measured window.
fn check_window(r: &mut Report, before: &ServingStats, after: &ServingStats, measured: usize) {
    let completed = (after.completed - before.completed) as usize;
    r.check(completed == measured, || {
        format!("engine completed {completed} in the window, client saw {measured}")
    });
}

pub fn batch(args: &Args, started: Instant, r: &mut Report) -> Result<(), String> {
    let ((world, contexts), setups) = repeated_setup(started, || Ok(World::build_with_contexts()))?;
    let stream = stream::held_out(&world.bench, &world.pool, args.seed);
    r.note("cpu", cpu_label(pin(None)));
    let mut runner = batch::Batch::new(&world, &contexts);
    let mut warm = batch::Pass::default();
    runner.pass(&stream, None, &mut warm);
    let mut pass = batch::Pass::default();
    let walls = timed_passes(args.seconds, || runner.pass(&stream, None, &mut pass));
    let rss_mb = procfs::peak_rss_mb(None).unwrap_or(0.0);

    let expected = world::expected(&world, &contexts, &stream);
    for p in [&warm, &pass] {
        let wrong = batch::mismatches(p, &expected);
        r.attempted += p.outcomes.len();
        r.failed += wrong;
        r.check(wrong == 0, || {
            format!("{wrong} batch outcomes differ from run_joint_linking_in")
        });
    }
    r.check(pass.outcomes.len() == walls.len() * stream.len(), || {
        "lost batch requests".to_string()
    });
    common_record(r, &world, &stream, Workload::Batch, walls.len());
    end_to_end(
        r,
        Measured {
            setups: &setups,
            latencies_ms: &pass.latencies_ms,
            completed: pass.outcomes.len(),
            pass_walls: &walls,
            rss_mb,
            quality: world::quality(&stream, &expected),
        },
    );
    Ok(())
}

pub fn serve(args: &Args, started: Instant, r: &mut Report) -> Result<(), String> {
    let ((world, engine), setups) = repeated_setup(started, || {
        let world = World::build();
        let engine = serve::engine(&world);
        Ok((world, engine))
    })?;
    let stream = stream::zipf(&world.bench, &world.pool, args.seed);
    r.note("cpu", cpu_label(pin(None)));
    let ((warm, pass, walls, before), after) = serve::drive(&engine, |e| {
        let mut warm = client::Pass::default();
        client::pass(e, &world.pool, &stream, &serve::NAMES, None, &mut warm);
        let before = e.stats();
        let mut pass = client::Pass::default();
        let walls = timed_passes(args.seconds, || {
            client::pass(e, &world.pool, &stream, &serve::NAMES, None, &mut pass)
        });
        (warm, pass, walls, before)
    });
    let rss_mb = procfs::peak_rss_mb(None).unwrap_or(0.0);

    let contexts = LinkContexts::build(&world.bench);
    let expected = world::expected(&world, &contexts, &stream);
    check_client(r, &warm, &expected, "serve");
    check_client(r, &pass, &expected, "serve");
    check_drained(r, &after, (walls.len() + 1) * stream.len(), "serve");
    check_window(r, &before, &after, pass.outcomes.len());
    r.check(after.checkpoints > 0 && after.restores > 0, || {
        "no parked session was checkpointed and restored".to_string()
    });
    common_record(r, &world, &stream, Workload::Serve, walls.len());
    end_to_end(
        r,
        Measured {
            setups: &setups,
            latencies_ms: &pass.latencies_ms,
            completed: pass.outcomes.len(),
            pass_walls: &walls,
            rss_mb,
            quality: world::quality(&stream, &expected),
        },
    );
    Ok(())
}

pub fn wire(args: &Args, started: Instant, r: &mut Report) -> Result<(), String> {
    let binary = args
        .server
        .as_deref()
        .ok_or("the wire workload needs --server PATH")?;
    // One set-up: the server's, up to its ready line, then the
    // client's corpus, one after the other. The previous set-up's
    // server is killed before the next one starts.
    let ((server, bench, linker), setups) = repeated_setup(started, || {
        let server = wire::Server::start(binary)?;
        let (bench, linker) = world::corpus();
        Ok((server, bench, linker))
    })?;
    let pool = world::pool(&bench);
    let stream = stream::zipf(&bench, &pool, args.seed);
    let fingerprint = corpus_fingerprint("bird", world::SCALE, world::CORPUS_SEED, linker.corpus());
    let client = RtsClient::connect(&server.addr, Some(&fingerprint)).map_err(|e| e.to_string())?;
    r.note("cpu", cpu_label(pin(Some(server.pid()))));

    let mut warm = client::Pass::default();
    client::pass(&client, &pool, &stream, &wire::NAMES, None, &mut warm);
    let before = client.stats();
    let mut pass = client::Pass::default();
    let walls = timed_passes(args.seconds, || {
        client::pass(&client, &pool, &stream, &wire::NAMES, None, &mut pass)
    });
    let rss_mb = procfs::peak_rss_mb(Some(server.pid())).unwrap_or(0.0);
    let after = client.stats();
    client.shutdown();
    client.bye();
    let exited = server.wait_exit();
    r.check(exited, || {
        "rts-served did not exit cleanly after Shutdown".to_string()
    });

    // The reference needs the probes the server trained; train them
    // now, off the clock.
    let (mbpp_t, mbpp_c) = world::train_probes(&bench, &linker);
    let world = World::from_parts(bench, linker, mbpp_t, mbpp_c);
    let contexts = LinkContexts::build(&world.bench);
    let expected = world::expected(&world, &contexts, &stream);
    check_client(r, &warm, &expected, "wire");
    check_client(r, &pass, &expected, "wire");
    check_drained(r, &after, (walls.len() + 1) * stream.len(), "wire");
    check_window(r, &before, &after, pass.outcomes.len());
    common_record(r, &world, &stream, Workload::Wire, walls.len());
    end_to_end(
        r,
        Measured {
            setups: &setups,
            latencies_ms: &pass.latencies_ms,
            completed: pass.outcomes.len(),
            pass_walls: &walls,
            rss_mb,
            quality: world::quality(&stream, &expected),
        },
    );
    Ok(())
}

/// Record fields every run shares.
pub fn common_record(
    r: &mut Report,
    world: &World,
    stream: &[usize],
    workload: Workload,
    passes: usize,
) {
    r.note("databases", world.bench.metas.len());
    r.note(
        "databases_in_stream",
        stream::databases(&world.pool, stream),
    );
    r.note("cache_capacity", workload.cache_capacity());
    r.note("requests_per_pass", stream.len());
    r.note("measured_passes", passes);
    r.note("corpus", world.linker.corpus().tag());
}
