//! Wire robustness: the server must treat a hostile, broken, or
//! vanishing peer as a *protocol outcome* — typed faults, parked
//! sessions, lapsed deadlines degrading to abstention — never a panic
//! and never a wedged engine.

use rts_client::RtsClient;
use rts_core::abstention::MitigationPolicy;
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::session::resolve_flag;
use rts_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg, MAX_FRAME, WIRE_VERSION};
use rts_serve::{ClientEvent, Engine, EngineError, ServeConfig, ServeEngine};
use rts_served::Server;
use simlm::{LinkTarget, SchemaLinker};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

struct Fx {
    bench: benchgen::Benchmark,
    model: SchemaLinker,
    mbpp_t: Mbpp,
    mbpp_c: Mbpp,
}

fn fixture() -> &'static Fx {
    static FX: OnceLock<Fx> = OnceLock::new();
    FX.get_or_init(|| {
        let bench = benchgen::BenchmarkProfile::bird_like()
            .scaled(0.02)
            .generate(77);
        let model = SchemaLinker::new("bird", 5);
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 150);
        let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 150);
        let mbpp_t = Mbpp::train(&ds_t, &cfg);
        let mbpp_c = Mbpp::train(&ds_c, &cfg);
        Fx {
            bench,
            model,
            mbpp_t,
            mbpp_c,
        }
    })
}

const FP: &str = "wire-robustness-fixture";

/// Stand up a server over a fresh engine on an ephemeral loopback
/// port. Returns the server handle, its address, and the threads to
/// join after [`stop`].
fn start_server(config: ServeConfig) -> (Server, String, Vec<JoinHandle<()>>) {
    let fx = fixture();
    let engine = Arc::new(ServeEngine::new(
        &fx.model,
        &fx.mbpp_t,
        &fx.mbpp_c,
        &fx.bench.metas,
        config,
    ));
    let server = Server::new(
        Arc::clone(&engine),
        FP.to_string(),
        fx.bench.split.dev.iter().cloned(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback addr").to_string();
    let mut threads = Vec::new();
    for _ in 0..engine.config().workers {
        let engine = Arc::clone(&engine);
        threads.push(std::thread::spawn(move || engine.worker_loop()));
    }
    {
        let server = server.clone();
        threads.push(std::thread::spawn(move || {
            server.serve(listener).expect("serve drains cleanly");
        }));
    }
    (server, addr, threads)
}

fn stop(server: &Server, threads: Vec<JoinHandle<()>>) {
    server.begin_shutdown();
    for t in threads {
        t.join().expect("server thread panicked");
    }
}

/// Raw-socket helper: write `payload` as one frame (length prefix +
/// bytes, bypassing serialization) and read back one `ServerMsg`.
fn send_raw(stream: &mut TcpStream, payload: &[u8]) -> Option<ServerMsg> {
    let len = u32::try_from(payload.len()).expect("test payload fits");
    stream.write_all(&len.to_le_bytes()).expect("write prefix");
    stream.write_all(payload).expect("write payload");
    read_frame::<_, ServerMsg>(stream).expect("reply readable")
}

fn hello(stream: &mut TcpStream) {
    write_frame(
        stream,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            resume: None,
        },
    )
    .expect("write hello");
    match read_frame::<_, ServerMsg>(stream).expect("handshake reply") {
        Some(ServerMsg::HelloAck { fingerprint, .. }) => assert_eq!(fingerprint, FP),
        other => panic!("expected HelloAck, got {other:?}"),
    }
}

/// Every malformed, truncated, oversized, or out-of-order frame reads
/// back as a typed `Fault` (or a clean close), the connection dies,
/// and the server keeps serving well-formed clients afterwards.
#[test]
fn malformed_frames_fault_typed_never_panic() {
    let (server, addr, threads) = start_server(ServeConfig::default());

    // Garbage payload after a valid handshake → Protocol fault.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        hello(&mut s);
        match send_raw(&mut s, b"certainly not json") {
            Some(ServerMsg::Fault {
                error: EngineError::Protocol { .. },
            }) => {}
            other => panic!("expected Protocol fault, got {other:?}"),
        }
        // The server hangs up after a fault; the read sees EOF, not
        // a hang and not a reset-with-panic.
        assert!(matches!(read_frame::<_, ServerMsg>(&mut s), Ok(None)));
    }

    // Well-formed JSON of the wrong shape → Protocol fault too.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        hello(&mut s);
        match send_raw(&mut s, b"{\"NoSuchMessage\":{}}") {
            Some(ServerMsg::Fault {
                error: EngineError::Protocol { .. },
            }) => {}
            other => panic!("expected Protocol fault, got {other:?}"),
        }
    }

    // Oversized length prefix → refused before allocation, Protocol
    // fault on the wire.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        hello(&mut s);
        s.write_all(&u32::MAX.to_le_bytes()).expect("write prefix");
        s.write_all(&[0u8; 8]).expect("write filler");
        match read_frame::<_, ServerMsg>(&mut s).expect("reply readable") {
            Some(ServerMsg::Fault {
                error: EngineError::Protocol { .. },
            }) => {}
            other => panic!("expected Protocol fault, got {other:?}"),
        }
    }

    // Truncated frame (half a length prefix, then hangup): nothing to
    // reply to — the server must simply survive it.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        hello(&mut s);
        s.write_all(&[7u8, 0]).expect("write partial prefix");
        drop(s);
    }

    // First frame is not Hello → Protocol fault before any session.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        match send_raw(&mut s, b"{\"Shutdown\":null}") {
            Some(ServerMsg::Fault {
                error: EngineError::Protocol { .. },
            }) => {}
            other => panic!("expected Protocol fault, got {other:?}"),
        }
    }

    // Wrong protocol version → typed Version fault.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut s,
            &ClientMsg::Hello {
                version: WIRE_VERSION + 40,
                resume: None,
            },
        )
        .expect("write hello");
        match read_frame::<_, ServerMsg>(&mut s).expect("reply readable") {
            Some(ServerMsg::Fault {
                error: EngineError::Version { server, client },
            }) => {
                assert_eq!(server, WIRE_VERSION);
                assert_eq!(client, WIRE_VERSION + 40);
            }
            other => panic!("expected Version fault, got {other:?}"),
        }
    }

    // Resuming a session that never existed → typed UnknownSession.
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        write_frame(
            &mut s,
            &ClientMsg::Hello {
                version: WIRE_VERSION,
                resume: Some(424_242),
            },
        )
        .expect("write hello");
        match read_frame::<_, ServerMsg>(&mut s).expect("reply readable") {
            Some(ServerMsg::Fault {
                error: EngineError::UnknownSession { session },
            }) => assert_eq!(session, 424_242),
            other => panic!("expected UnknownSession fault, got {other:?}"),
        }
    }

    // After all that abuse, a well-formed client still gets served.
    let fx = fixture();
    let oracle = HumanOracle::new(Expertise::Expert, 9);
    let policy = MitigationPolicy::Human(&oracle);
    let client = RtsClient::connect(&addr, Some(FP)).expect("handshake after abuse");
    let slice: Vec<benchgen::Instance> = fx.bench.split.dev.iter().take(2).cloned().collect();
    let served = rts_serve::drive_closed_loop(&client, 0, &slice, |inst, query| {
        Some(resolve_flag(&policy, inst, query))
    });
    assert_eq!(served.len(), slice.len(), "abuse must not wedge serving");
    client.bye();
    stop(&server, threads);
}

/// A first frame nested past the JSON parser's depth bound (here one
/// `MAX_FRAME`-byte run of `[`) is refused on the connection's own
/// reader thread as a typed fault, instead of overflowing that
/// thread's stack and aborting the whole server before any handshake.
/// The same server then still serves a normal Hello → Submit → Done.
#[test]
fn deeply_nested_first_frame_faults_and_server_survives() {
    let (server, addr, threads) = start_server(ServeConfig::default());
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        match send_raw(&mut s, &vec![b'['; MAX_FRAME]) {
            Some(ServerMsg::Fault {
                error: EngineError::Protocol { .. },
            })
            | None => {}
            other => panic!("expected a Protocol fault or a close, got {other:?}"),
        }
    }

    let fx = fixture();
    let oracle = HumanOracle::new(Expertise::Expert, 9);
    let policy = MitigationPolicy::Human(&oracle);
    let client = RtsClient::connect(&addr, Some(FP)).expect("handshake after the nested frame");
    let slice: Vec<benchgen::Instance> = fx.bench.split.dev.iter().take(1).cloned().collect();
    let served = rts_serve::drive_closed_loop(&client, 0, &slice, |inst, query| {
        Some(resolve_flag(&policy, inst, query))
    });
    assert_eq!(served.len(), 1, "the server must still complete a request");
    client.bye();
    stop(&server, threads);
}

/// Walk instances until one suspends on feedback; return its ticket
/// and first query, completing the non-flagging ones along the way.
fn first_flagged(client: &RtsClient, fx: &Fx) -> (u64, rts_core::session::FlagQuery) {
    for inst in &fx.bench.split.dev {
        let ticket = client.submit(0, inst).expect("submit");
        match client.wait_event(ticket) {
            ClientEvent::NeedsFeedback { query, .. } => return (ticket, query),
            ClientEvent::Done(_) => continue,
            ClientEvent::Retired => panic!("ticket retired under a live client"),
        }
    }
    panic!("fixture workload never suspended on feedback");
}

/// Protocol-level resume, frame by frame: a client that *lost its
/// process* (no in-memory state at all) reconnects with the session
/// id, and the server re-delivers the unanswered feedback query under
/// the original request id — "resume by request id" is a property of
/// the wire, not of client-side caching.
#[test]
fn raw_resume_redelivers_pending_by_request_id() {
    let fx = fixture();
    let (server, addr, threads) = start_server(ServeConfig::default());
    let oracle = HumanOracle::new(Expertise::Expert, 9);
    let policy = MitigationPolicy::Human(&oracle);

    let mut s = TcpStream::connect(&addr).expect("connect");
    write_frame(
        &mut s,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            resume: None,
        },
    )
    .expect("write hello");
    let session = match read_frame::<_, ServerMsg>(&mut s).expect("handshake reply") {
        Some(ServerMsg::HelloAck { session, .. }) => session,
        other => panic!("expected HelloAck, got {other:?}"),
    };

    // Submit until a request suspends on feedback.
    let mut flagged: Option<(u64, rts_core::session::FlagQuery)> = None;
    for (req, inst) in (1u64..).zip(fx.bench.split.dev.iter()) {
        write_frame(
            &mut s,
            &ClientMsg::Submit {
                req,
                tenant: 0,
                instance: inst.id,
            },
        )
        .expect("write submit");
        match read_frame::<_, ServerMsg>(&mut s).expect("ack readable") {
            Some(ServerMsg::Submitted { req: r }) => assert_eq!(r, req),
            other => panic!("expected Submitted, got {other:?}"),
        }
        match read_frame::<_, ServerMsg>(&mut s).expect("event readable") {
            Some(ServerMsg::NeedsFeedback { req: r, query, .. }) => {
                assert_eq!(r, req);
                flagged = Some((req, query));
                break;
            }
            Some(ServerMsg::Done { req: r, .. }) => assert_eq!(r, req),
            other => panic!("expected an event, got {other:?}"),
        }
    }
    let Some((req, query)) = flagged else {
        panic!("fixture workload never suspended on feedback");
    };

    // The process dies with the flag unanswered.
    drop(s);

    // A brand-new connection resumes the session: the server must
    // re-deliver the pending query under the *same* request id.
    let mut s2 = TcpStream::connect(&addr).expect("reconnect");
    write_frame(
        &mut s2,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            resume: Some(session),
        },
    )
    .expect("write resume hello");
    match read_frame::<_, ServerMsg>(&mut s2).expect("resume reply") {
        Some(ServerMsg::HelloAck { session: sid, .. }) => assert_eq!(sid, session),
        other => panic!("expected HelloAck on resume, got {other:?}"),
    }
    match read_frame::<_, ServerMsg>(&mut s2).expect("re-push readable") {
        Some(ServerMsg::NeedsFeedback {
            req: r, query: q, ..
        }) => {
            assert_eq!(r, req, "pending flag must keep its request id");
            assert_eq!(q, query, "pending flag must be re-delivered verbatim");
        }
        other => panic!("expected the re-pushed flag, got {other:?}"),
    }

    // Answer through the resumed connection and drive to Done.
    let inst = fx
        .bench
        .split
        .dev
        .iter()
        .find(|i| i.id == query.instance)
        .expect("flagged instance is in the corpus");
    let mut next_resolve = 1_000u64;
    let mut pending = Some(query);
    let done = loop {
        if let Some(q) = pending.take() {
            write_frame(
                &mut s2,
                &ClientMsg::Resolve {
                    req: next_resolve,
                    ticket: req,
                    query: q.clone(),
                    resolution: resolve_flag(&policy, inst, &q),
                },
            )
            .expect("write resolve");
            next_resolve += 1;
        }
        match read_frame::<_, ServerMsg>(&mut s2).expect("event readable") {
            Some(ServerMsg::NeedsFeedback { req: r, query, .. }) => {
                assert_eq!(r, req);
                pending = Some(query);
            }
            Some(ServerMsg::Resolved { .. } | ServerMsg::ResolveFailed { .. }) => {}
            Some(ServerMsg::Done { req: r, outcome }) => {
                assert_eq!(r, req);
                break outcome;
            }
            other => panic!("expected protocol traffic, got {other:?}"),
        }
    };
    assert!(!done.timed_out, "no feedback timeout configured");
    write_frame(&mut s2, &ClientMsg::Bye).expect("write bye");
    drop(s2);
    stop(&server, threads);
}

/// A killed connection parks the session; reconnecting resumes it by
/// session id: the pending feedback query is re-delivered verbatim,
/// the same ticket accepts the answer, and the outcome is
/// byte-identical to the batch runtime — the drop changed *when* the
/// answer arrived, never what it was.
#[test]
fn kill_and_reconnect_mid_feedback_resumes() {
    let fx = fixture();
    let (server, addr, threads) = start_server(ServeConfig::default());
    let oracle = HumanOracle::new(Expertise::Expert, 9);
    let policy = MitigationPolicy::Human(&oracle);

    let client = RtsClient::connect(&addr, Some(FP)).expect("handshake");
    let session_before = client.session_id().expect("session granted");
    let (ticket, query) = first_flagged(&client, fx);

    // Kill the connection mid-feedback, as a network fault would.
    client.drop_connection();

    // The next wait transparently redials with `resume`; the server
    // re-pushes the unanswered query for the same ticket.
    let resumed = match client.wait_event(ticket) {
        ClientEvent::NeedsFeedback { query, .. } => query,
        other => panic!("expected the pending flag after resume, got {other:?}"),
    };
    assert_eq!(resumed, query, "resume must re-deliver the pending flag");
    assert_eq!(
        client.session_id(),
        Some(session_before),
        "reconnect must resume the same session, not mint a new one"
    );

    // Answer through the resumed connection and finish the request.
    let inst = fx
        .bench
        .split
        .dev
        .iter()
        .find(|i| i.id == query.instance)
        .expect("flagged instance is in the corpus");
    let done = loop {
        match client.wait_event(ticket) {
            ClientEvent::NeedsFeedback { query, .. } => {
                let _ = client.resolve(ticket, &query, resolve_flag(&policy, inst, &query));
            }
            ClientEvent::Done(done) => break done,
            ClientEvent::Retired => panic!("ticket retired mid-protocol"),
        }
    };
    assert!(!done.timed_out, "no feedback timeout configured");

    // The interrupted request still answers exactly like the batch
    // runtime.
    let contexts = rts_core::context::LinkContexts::build(&fx.bench);
    let mut scratch = rts_core::abstention::LinkScratch::default();
    let batch = rts_core::pipeline::run_joint_linking_in(
        &fx.model,
        &fx.mbpp_t,
        &fx.mbpp_c,
        inst,
        &fx.bench,
        &contexts,
        &policy,
        &rts_core::abstention::RtsConfig::default(),
        &mut scratch,
    );
    assert_eq!(
        format!("{:?}", done.outcome),
        format!("{batch:?}"),
        "reconnect changed the answer on instance {}",
        inst.id
    );
    client.bye();
    stop(&server, threads);
}

/// A feedback deadline that lapses *while the client is disconnected*
/// still degrades the request to abstention: the session parks, the
/// engine's clock keeps running, and the resumed client observes
/// `Done` with `timed_out` set — the request is never dropped and
/// never left hanging.
#[test]
fn feedback_timeout_lapses_while_disconnected() {
    let fx = fixture();
    let (server, addr, threads) = start_server(ServeConfig {
        feedback_timeout: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    });
    let oracle = HumanOracle::new(Expertise::Expert, 9);
    let policy = MitigationPolicy::Human(&oracle);

    let client = RtsClient::connect(&addr, Some(FP)).expect("handshake");
    let (ticket, _query) = first_flagged(&client, fx);

    // Vanish with the flag unanswered and stay away past the deadline.
    client.drop_connection();
    std::thread::sleep(Duration::from_millis(300));

    // Resume: the lapsed deadline must have resolved the flag to
    // abstention. (A cached or re-delivered stale query may surface
    // first; answering it reads `Stale` at worst and never revives
    // the request.)
    let done = loop {
        match client.wait_event(ticket) {
            ClientEvent::NeedsFeedback { query, .. } => {
                let inst = fx
                    .bench
                    .split
                    .dev
                    .iter()
                    .find(|i| i.id == query.instance)
                    .expect("flagged instance is in the corpus");
                let _ = client.resolve(ticket, &query, resolve_flag(&policy, inst, &query));
            }
            ClientEvent::Done(done) => break done,
            ClientEvent::Retired => panic!("timed-out ticket must complete, not retire"),
        }
    };
    assert!(done.timed_out, "the lapsed deadline must mark the outcome");
    assert!(
        done.outcome.abstained(),
        "degrade-only: a feedback timeout abstains, it never answers"
    );
    client.bye();
    stop(&server, threads);
}

/// Threads of this process that carry the calling thread's name. The
/// tests in this file run at once, each on a thread named after it, and
/// a thread starts with its creator's name (Linux copies it; `std`
/// renames only threads given a name), so this counts the threads this
/// test started, its server's included, and not the other tests'.
#[cfg(target_os = "linux")]
fn own_threads() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").expect("own thread name");
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| *name == me)
        .count()
}

/// Read one frame into `log` (by request id). `None` for the `Stats`
/// reply, which the test uses as a fence.
fn read_event(s: &mut TcpStream, log: &mut [Vec<ServerMsg>]) -> Option<usize> {
    let msg = read_frame::<_, ServerMsg>(s)
        .expect("frame readable")
        .expect("server keeps the connection");
    let req = match &msg {
        ServerMsg::Submitted { req }
        | ServerMsg::NeedsFeedback { req, .. }
        | ServerMsg::Done { req, .. } => *req as usize,
        ServerMsg::Stats { .. } => return None,
        other => panic!("unexpected message {other:?}"),
    };
    log[req].push(msg);
    Some(req)
}

/// A parked request holds no server thread: with every dev instance
/// submitted over one connection and at least ten of them parked on
/// feedback, the server runs only that connection's reader and writer
/// beyond the threads it had before. Each request's events arrive as
/// `Submitted`, then `NeedsFeedback`*, then one `Done`, and nothing
/// after it, also when the shutdown drain completes the parked ones.
#[cfg(target_os = "linux")]
#[test]
fn parked_requests_hold_no_threads() {
    let fx = fixture();
    let (server, addr, threads) = start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let before = own_threads();

    let mut s = TcpStream::connect(&addr).expect("connect");
    // A lost event fails the test instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    hello(&mut s);
    let n = fx.bench.split.dev.len();
    for (req, inst) in (1u64..).zip(&fx.bench.split.dev) {
        write_frame(
            &mut s,
            &ClientMsg::Submit {
                req,
                tenant: 0,
                instance: inst.id,
            },
        )
        .expect("write submit");
    }

    // Every message per request id (1..=n), in arrival order. Wait for
    // each request's ack and first event.
    let mut log: Vec<Vec<ServerMsg>> = vec![Vec::new(); n + 1];
    let mut with_event = 0;
    while with_event < n {
        let req = read_event(&mut s, &mut log).expect("no stats requested yet");
        if log[req].len() == 2 {
            with_event += 1;
        }
    }
    let parked = log
        .iter()
        .filter(|msgs| matches!(msgs.last(), Some(ServerMsg::NeedsFeedback { .. })))
        .count();
    let during = own_threads();
    assert!(
        parked >= 10,
        "the fixture must park at least 10 of {n} requests, parked {parked}"
    );
    assert!(
        during <= before + 2,
        "{parked} parked requests grew the server from {before} to {during} threads"
    );

    // The shutdown drain completes the parked requests; read until
    // every request has its Done, then fence with a Stats reply.
    write_frame(&mut s, &ClientMsg::Shutdown).expect("write shutdown");
    let is_done = |m: &ServerMsg| matches!(m, ServerMsg::Done { .. });
    let mut done: usize = log.iter().flatten().filter(|m| is_done(m)).count();
    while done < n {
        let req = read_event(&mut s, &mut log).expect("no stats requested yet");
        if log[req].last().is_some_and(is_done) {
            done += 1;
        }
    }
    write_frame(&mut s, &ClientMsg::Stats { req: 0 }).expect("write stats");
    assert_eq!(
        read_event(&mut s, &mut log),
        None,
        "nothing may follow the last Done"
    );

    for (req, msgs) in log.iter().enumerate().skip(1) {
        assert!(
            matches!(msgs.first(), Some(ServerMsg::Submitted { .. })),
            "request {req} must be acked first: {msgs:?}"
        );
        assert!(
            msgs.len() >= 2 && msgs.last().is_some_and(is_done),
            "request {req} must end in Done: {msgs:?}"
        );
        assert!(
            msgs[1..msgs.len() - 1]
                .iter()
                .all(|m| matches!(m, ServerMsg::NeedsFeedback { .. })),
            "request {req}: only NeedsFeedback between the ack and Done: {msgs:?}"
        );
    }
    write_frame(&mut s, &ClientMsg::Bye).expect("write bye");
    drop(s);
    stop(&server, threads);
}
