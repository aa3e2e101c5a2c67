//! `rts-served` — the standalone serving daemon: a TCP listener that
//! fronts a [`ServeEngine`] with the framed wire protocol of
//! [`rts_serve::wire`] (see `PROTOCOL.md`).
//!
//! # Architecture
//!
//! One thread per connection reads frames and dispatches them against
//! the engine; one *writer* thread per connection drains the session's
//! outbox to the socket. No thread waits on a request: after queueing
//! a submit's ack the reader hands the ticket to [`ServeEngine::watch`],
//! and the engine pushes its events into the outbox from whichever
//! thread parks or finishes it. The outbox belongs to the **session**,
//! not the connection — that asymmetry is the whole reconnect story:
//!
//! * a connection that drops (EOF, socket error, malformed frame)
//!   *parks* its session: tickets stay live in the engine, the engine
//!   keeps appending events to the outbox, and feedback timeouts keep
//!   counting — a lapsed deadline still degrades the request to
//!   abstention exactly as if the client were attached;
//! * a client that reconnects with `Hello { resume }` re-attaches to
//!   the session by id: a fresh writer drains the accumulated outbox
//!   (pending feedback queries are re-pushed, so delivery is
//!   at-least-once and the client deduplicates by query identity), and
//!   the same request ids keep working;
//! * only a clean [`ClientMsg::Bye`] retires the session.
//!
//! Degrade-only applies at the wire too: malformed, truncated, or
//! oversized frames produce a best-effort typed [`ServerMsg::Fault`]
//! and a parked session — never a panic, never a wedged engine.
//!
//! # Lock order
//!
//! Shard `state` (in the engine) → session `conn_state`: the engine
//! calls the sink, `Session::deliver`, under its shard lock, and the
//! sink takes `conn_state`. So this crate never calls the engine while
//! holding `conn_state`. `rts-analyze`'s lexical lock pass cannot see
//! this edge across the callback; the rule lives here and on `watch`.
//!
//! # Shutdown
//!
//! [`ClientMsg::Shutdown`] calls [`Engine::shutdown`] (queued and
//! parked work completes, parked flags degrade to abstention) and stops
//! the accept loop; [`Server::serve`] returns once every connection
//! has closed, so the process exits only after each outcome was
//! deliverable.

use parking_lot::{Condvar, Mutex};
use rts_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg, WIRE_VERSION};
use rts_serve::{ClientEvent, Engine, EngineError, ServeEngine, TicketId};
use simlm::LinkTarget;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rts_core::session::FlagQuery;

/// How long the accept loop naps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// How long a tearing-down reader waits for the writer to flush a
/// final `Fault` before closing the socket under it.
const FAULT_FLUSH: Duration = Duration::from_millis(500);

/// One logical client session: the engine-side state that outlives any
/// single TCP connection.
struct Session {
    conn_state: Mutex<ConnState>,
    bell: Condvar,
}

struct ConnState {
    /// Messages awaiting delivery, in push order. Survives disconnects.
    outbox: VecDeque<ServerMsg>,
    /// Live requests: submit request id → engine ticket.
    reqs: HashMap<u64, TicketId>,
    /// The recorded ack (`Submitted` / `SubmitFailed`) for every
    /// request id ever submitted. A reconnecting client cannot know
    /// whether its first `Submit` arrived, so it re-sends — and the
    /// server *replays* the recorded ack instead of re-processing,
    /// making admission exactly-once per request id (a rejection is
    /// retried under a fresh id, never the same one).
    replies: HashMap<u64, ServerMsg>,
    /// The last unanswered feedback query pushed per request; re-pushed
    /// on resume so delivery is at-least-once across reconnects.
    pending: HashMap<u64, (LinkTarget, FlagQuery)>,
    /// Bumped by every (re)connect takeover; a writer whose epoch is
    /// stale exits, so at most one writer drains the outbox.
    epoch: u64,
    /// A clean `Bye` arrived: the session is done and will not resume.
    retired: bool,
}

impl Session {
    fn new() -> Self {
        Session {
            conn_state: Mutex::new(ConnState {
                outbox: VecDeque::new(),
                reqs: HashMap::new(),
                replies: HashMap::new(),
                pending: HashMap::new(),
                epoch: 0,
                retired: false,
            }),
            bell: Condvar::new(),
        }
    }

    fn push(&self, msg: ServerMsg) {
        let mut st = self.conn_state.lock();
        st.outbox.push_back(msg);
        self.bell.notify_all();
    }

    /// The sink [`ServeEngine::watch`] calls with every event of
    /// request `req`, across disconnects — which is what makes a parked
    /// session's feedback timeout deliverable after a resume. It runs
    /// under the engine's shard lock, so it takes only `conn_state`.
    fn deliver(&self, req: u64, event: ClientEvent) {
        let mut st = self.conn_state.lock();
        let msg = match event {
            ClientEvent::NeedsFeedback { target, query } => {
                st.pending.insert(req, (target, query.clone()));
                ServerMsg::NeedsFeedback { req, target, query }
            }
            ClientEvent::Done(outcome) => ServerMsg::Done {
                req,
                outcome: outcome.into(),
            },
            ClientEvent::Retired => ServerMsg::Retired { req },
        };
        if !matches!(msg, ServerMsg::NeedsFeedback { .. }) {
            // The request is over.
            st.pending.remove(&req);
            st.reqs.remove(&req);
        }
        st.outbox.push_back(msg);
        self.bell.notify_all();
    }
}

struct Inner {
    engine: Arc<ServeEngine>,
    fingerprint: String,
    /// Instance corpus by id — the wire submits ids, not ASTs.
    corpus: HashMap<u64, benchgen::Instance>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    draining: AtomicBool,
    conns: AtomicUsize,
}

/// The wire server: fronts one [`ServeEngine`] over TCP.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Build a server over `engine`. `fingerprint` is the corpus
    /// recipe string (see [`rts_serve::wire::corpus_fingerprint`]);
    /// `corpus` is every instance clients may submit by id.
    pub fn new(
        engine: Arc<ServeEngine>,
        fingerprint: String,
        corpus: impl IntoIterator<Item = benchgen::Instance>,
    ) -> Self {
        Server {
            inner: Arc::new(Inner {
                engine,
                fingerprint,
                corpus: corpus.into_iter().map(|i| (i.id, i)).collect(),
                sessions: Mutex::new(HashMap::new()),
                next_session: AtomicU64::new(1),
                draining: AtomicBool::new(false),
                conns: AtomicUsize::new(0),
            }),
        }
    }

    /// The engine behind the wire — the caller still owns its worker
    /// threads and may inspect it directly (tests do).
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.inner.engine
    }

    /// Ask the accept loop to wind down as if a client had sent
    /// [`ClientMsg::Shutdown`] (drains the engine too).
    pub fn begin_shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.engine.shutdown();
    }

    /// Accept connections until a [`ClientMsg::Shutdown`] has been
    /// received *and* every live connection has closed. Each
    /// connection gets a reader thread (this function's children) and
    /// a writer thread; requests get none.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    // The listener is nonblocking; per-connection I/O
                    // must not be.
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let inner = Arc::clone(&self.inner);
                    inner.conns.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_conn(&inner, stream);
                        inner.conns.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.inner.draining.load(Ordering::SeqCst)
                        && self.inner.conns.load(Ordering::SeqCst) == 0
                    {
                        return Ok(());
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Write a frame, swallowing failures — used only where the connection
/// is already being torn down and the message is a courtesy.
fn best_effort<T: serde::Serialize>(stream: &mut TcpStream, msg: &T) {
    let _ = write_frame(stream, msg);
}

fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream) {
    // ---- Handshake -------------------------------------------------
    let hello = match read_frame::<_, ClientMsg>(&mut stream) {
        Ok(Some(msg)) => msg,
        Ok(None) => return,
        Err(e) => {
            best_effort(&mut stream, &ServerMsg::Fault { error: e.into() });
            return;
        }
    };
    let (version, resume) = match hello {
        ClientMsg::Hello { version, resume } => (version, resume),
        _ => {
            best_effort(
                &mut stream,
                &ServerMsg::Fault {
                    error: EngineError::Protocol {
                        detail: "first frame must be Hello".to_string(),
                    },
                },
            );
            return;
        }
    };
    if version != WIRE_VERSION {
        best_effort(
            &mut stream,
            &ServerMsg::Fault {
                error: EngineError::Version {
                    server: WIRE_VERSION,
                    client: version,
                },
            },
        );
        return;
    }
    let (sid, session) = match resume {
        Some(id) => {
            let found = inner.sessions.lock().get(&id).cloned();
            match found {
                Some(s) => (id, s),
                None => {
                    best_effort(
                        &mut stream,
                        &ServerMsg::Fault {
                            error: EngineError::UnknownSession { session: id },
                        },
                    );
                    return;
                }
            }
        }
        None => {
            let id = inner.next_session.fetch_add(1, Ordering::SeqCst);
            let s = Arc::new(Session::new());
            inner.sessions.lock().insert(id, Arc::clone(&s));
            (id, s)
        }
    };

    // ---- Takeover --------------------------------------------------
    // Bump the epoch (any previous writer exits), ack the handshake,
    // and re-push every unanswered feedback query: the client may have
    // lost the original delivery with its old connection. Duplicates
    // are fine — the client resolves by query identity and a second
    // answer to a settled flag is a typed `Stale`.
    let my_epoch = {
        let mut st = session.conn_state.lock();
        st.epoch += 1;
        let mut reqs: Vec<u64> = st.pending.keys().copied().collect();
        reqs.sort_unstable();
        for req in reqs {
            if let Some((target, query)) = st.pending.get(&req) {
                let (target, query) = (*target, query.clone());
                st.outbox
                    .push_back(ServerMsg::NeedsFeedback { req, target, query });
            }
        }
        session.bell.notify_all();
        st.epoch
    };
    if write_frame(
        &mut stream,
        &ServerMsg::HelloAck {
            version: WIRE_VERSION,
            session: sid,
            fingerprint: inner.fingerprint.clone(),
        },
    )
    .is_err()
    {
        return;
    }
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    {
        let session = Arc::clone(&session);
        std::thread::spawn(move || writer_loop(&session, writer_stream, my_epoch));
    }

    // ---- Reader ----------------------------------------------------
    let mut retire = false;
    loop {
        match read_frame::<_, ClientMsg>(&mut stream) {
            Ok(Some(msg)) => {
                if let Flow::Close { retire: r } = dispatch(inner, &session, msg) {
                    retire = r;
                    break;
                }
            }
            // Clean disconnect: park the session for resume.
            Ok(None) => break,
            Err(e) => {
                // A hostile or broken peer reads as a typed fault; the
                // session parks (feedback timeouts keep running) and
                // the connection closes.
                session.push(ServerMsg::Fault { error: e.into() });
                flush_then_close(&session, my_epoch);
                break;
            }
        }
    }

    // ---- Teardown --------------------------------------------------
    {
        let mut st = session.conn_state.lock();
        if retire {
            st.retired = true;
        }
        if st.epoch == my_epoch {
            st.epoch += 1;
        }
        session.bell.notify_all();
    }
    if retire {
        inner.sessions.lock().remove(&sid);
    }
}

/// What the reader does after one dispatched message.
enum Flow {
    Continue,
    Close { retire: bool },
}

fn dispatch(inner: &Arc<Inner>, session: &Arc<Session>, msg: ClientMsg) -> Flow {
    match msg {
        ClientMsg::Hello { .. } => {
            session.push(ServerMsg::Fault {
                error: EngineError::Protocol {
                    detail: "duplicate Hello on an established connection".to_string(),
                },
            });
            Flow::Close { retire: false }
        }
        ClientMsg::Submit {
            req,
            tenant,
            instance,
        } => {
            let recorded = session.conn_state.lock().replies.get(&req).cloned();
            if let Some(recorded) = recorded {
                // A reconnecting client re-sent a Submit it could not
                // confirm: replay the recorded ack, never re-process
                // the admission.
                session.push(recorded);
                return Flow::Continue;
            }
            let (ack, watch) = match inner.corpus.get(&instance) {
                None => (
                    ServerMsg::SubmitFailed {
                        req,
                        error: EngineError::Submit(rts_serve::SubmitError::UnknownInstance {
                            instance,
                        }),
                    },
                    None,
                ),
                Some(inst) => match inner.engine.submit(tenant, inst) {
                    Ok(ticket) => (ServerMsg::Submitted { req }, Some(ticket)),
                    Err(e) => (
                        ServerMsg::SubmitFailed {
                            req,
                            error: e.into(),
                        },
                        None,
                    ),
                },
            };
            {
                let mut st = session.conn_state.lock();
                if let Some(ticket) = watch {
                    st.reqs.insert(req, ticket);
                }
                st.replies.insert(req, ack.clone());
                st.outbox.push_back(ack);
                session.bell.notify_all();
            }
            // Watch only after the ack is queued, so the client never
            // sees an event for a request it has no ack for.
            if let Some(ticket) = watch {
                let session = Arc::clone(session);
                inner
                    .engine
                    .watch(ticket, move |event| session.deliver(req, event));
            }
            Flow::Continue
        }
        ClientMsg::Resolve {
            req,
            ticket,
            query,
            resolution,
        } => {
            let engine_ticket = session.conn_state.lock().reqs.get(&ticket).copied();
            let reply = match engine_ticket {
                None => ServerMsg::ResolveFailed {
                    req,
                    error: EngineError::Retired { ticket },
                },
                Some(t) => match inner.engine.resolve(t, &query, resolution) {
                    Ok(()) => ServerMsg::Resolved { req },
                    Err(e) => ServerMsg::ResolveFailed {
                        req,
                        error: e.into(),
                    },
                },
            };
            session.push(reply);
            Flow::Continue
        }
        ClientMsg::Stats { req } => {
            session.push(ServerMsg::Stats {
                req,
                stats: inner.engine.stats(),
            });
            Flow::Continue
        }
        ClientMsg::InvalidateDb { req, database } => {
            session.push(ServerMsg::Invalidated {
                req,
                dropped: inner.engine.invalidate_db(&database),
            });
            Flow::Continue
        }
        ClientMsg::SetTenantWeight { tenant, weight } => {
            inner.engine.set_tenant_weight(tenant, weight);
            Flow::Continue
        }
        ClientMsg::Shutdown => {
            inner.draining.store(true, Ordering::SeqCst);
            inner.engine.shutdown();
            Flow::Continue
        }
        ClientMsg::Bye => Flow::Close { retire: true },
    }
}

/// Wait (bounded) for the writer to drain the outbox — used to give a
/// final `Fault` a chance to reach the peer before the socket closes.
fn flush_then_close(session: &Session, my_epoch: u64) {
    let deadline = std::time::Instant::now() + FAULT_FLUSH;
    loop {
        {
            let st = session.conn_state.lock();
            if st.outbox.is_empty() || st.epoch != my_epoch {
                return;
            }
        }
        if std::time::Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Per-connection writer: drain the session outbox to the socket.
/// Writes happen *outside* the lock (a slow peer must not block
/// dispatch); a message is popped only after its write succeeded and
/// only while this writer still owns the connection epoch, so a
/// takeover mid-write re-sends rather than loses — delivery is
/// at-least-once, and the client deduplicates.
fn writer_loop(session: &Session, mut stream: TcpStream, my_epoch: u64) {
    loop {
        let msg = {
            let mut st = session.conn_state.lock();
            loop {
                if st.epoch != my_epoch {
                    return;
                }
                if let Some(front) = st.outbox.front() {
                    break front.clone();
                }
                if st.retired {
                    return;
                }
                session.bell.wait(&mut st);
            }
        };
        if write_frame(&mut stream, &msg).is_err() {
            // Connection died with the message still queued: it stays
            // in the outbox for the resuming writer.
            return;
        }
        let mut st = session.conn_state.lock();
        if st.epoch != my_epoch {
            return;
        }
        st.outbox.pop_front();
    }
}
