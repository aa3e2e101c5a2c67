//! `rts-client` — the typed TCP client for `rts-served`.
//!
//! [`RtsClient`] speaks the framed wire protocol of
//! [`rts_serve::wire`] (see `PROTOCOL.md`) and implements the same
//! [`Engine`] trait as the in-process engine, so every generic caller
//! — [`rts_serve::drive_closed_loop`], the parity tests — runs
//! unchanged against a remote server. The ticket is the client-chosen
//! request id (`u64`).
//!
//! # Reconnect & resume
//!
//! The client owns one connection and repairs it transparently: a
//! dropped socket triggers a redial with `Hello { resume }`, and the
//! server re-attaches the same session — live tickets keep working,
//! parked feedback queries are re-delivered, and a submit whose ack
//! was lost in flight is re-sent (the server replays the recorded ack,
//! so admission stays exactly-once). While the client is away the
//! server's clocks keep running: a feedback deadline that lapses
//! mid-disconnect degrades the request to abstention, and the resumed
//! client simply observes `Done` with `timed_out` set.
//!
//! Degrade-only applies here too: when the connection cannot be
//! repaired (server gone, version/fingerprint mismatch, session
//! expired) the client *fails typed, never panics* — submits return
//! [`SubmitError::Unavailable`], event waits report the ticket
//! retired, stats read empty. The terminal error is kept in
//! [`RtsClient::fatal`] for the caller to inspect.

use parking_lot::{Condvar, Mutex};
use rts_serve::wire::{read_frame, write_frame, ClientMsg, ServerMsg, WIRE_VERSION};
use rts_serve::{
    ClientEvent, Engine, EngineError, ResolveError, ServingStats, SubmitError, TenantId,
};
use simlm::LinkTarget;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use rts_core::session::{FlagQuery, FlagResolution};

/// Redial attempts before the client declares the server gone.
const REDIAL_ATTEMPTS: usize = 8;
/// Backoff between redial attempts.
const REDIAL_BACKOFF: Duration = Duration::from_millis(25);
/// Condvar re-check interval while waiting for mail (bounds how long a
/// waiter can miss a `dead` transition it must react to).
const MAIL_POLL: Duration = Duration::from_millis(50);

struct MailState {
    /// The live connection, if any. Writers write through it directly
    /// (frames are small; the lock is held across the write).
    stream: Option<TcpStream>,
    /// Per-request inbox: every `ServerMsg` carrying this request id,
    /// in arrival order.
    mail: HashMap<u64, VecDeque<ServerMsg>>,
    /// The last unanswered feedback query per submit request — what a
    /// level-triggered [`Engine::wait_event`] re-poll returns without
    /// another round trip.
    pending_query: HashMap<u64, (LinkTarget, FlagQuery)>,
    /// Submit requests that reached `Done`/`Retired`; later waits read
    /// `Retired` and stray re-deliveries are dropped.
    finished: HashSet<u64>,
    /// Session id from the first `HelloAck` — the resume token.
    session: Option<u64>,
    /// Corpus fingerprint the server reported.
    fingerprint: Option<String>,
    /// The connection is known broken; the next operation redials.
    dead: bool,
    /// Bumped per successful dial; a reader whose generation is stale
    /// must not clobber the new connection's state.
    generation: u64,
    /// A thread is already redialing; others wait on the bell.
    reconnecting: bool,
    /// Terminal failure — reconnection is pointless (version or
    /// fingerprint mismatch, expired session, server gone for good).
    fatal: Option<EngineError>,
}

struct ClientInner {
    addr: String,
    /// Fingerprint the caller requires the server to match, if any.
    expect: Option<String>,
    next_req: AtomicU64,
    client_state: Mutex<MailState>,
    bell: Condvar,
}

/// A connection to `rts-served`, usable from many threads at once.
pub struct RtsClient {
    inner: Arc<ClientInner>,
}

impl Clone for RtsClient {
    fn clone(&self) -> Self {
        RtsClient {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of one dial attempt.
enum Dial {
    Ok {
        stream: TcpStream,
        session: u64,
        fingerprint: String,
    },
    /// Transport-level failure: worth retrying.
    Retry(EngineError),
    /// Protocol-level rejection: retrying cannot help.
    Fatal(EngineError),
}

fn dial(addr: &str, expect: Option<&str>, resume: Option<u64>) -> Dial {
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            return Dial::Retry(EngineError::Transport {
                detail: format!("connect {addr}: {e}"),
            })
        }
    };
    let _ = stream.set_nodelay(true);
    if let Err(e) = write_frame(
        &mut stream,
        &ClientMsg::Hello {
            version: WIRE_VERSION,
            resume,
        },
    ) {
        return Dial::Retry(e.into());
    }
    match read_frame::<_, ServerMsg>(&mut stream) {
        Ok(Some(ServerMsg::HelloAck {
            version,
            session,
            fingerprint,
        })) => {
            if version != WIRE_VERSION {
                return Dial::Fatal(EngineError::Version {
                    server: version,
                    client: WIRE_VERSION,
                });
            }
            if let Some(expect) = expect {
                if expect != fingerprint {
                    return Dial::Fatal(EngineError::Fingerprint {
                        server: fingerprint,
                        client: expect.to_string(),
                    });
                }
            }
            Dial::Ok {
                stream,
                session,
                fingerprint,
            }
        }
        Ok(Some(ServerMsg::Fault { error })) => match error {
            e @ (EngineError::Version { .. }
            | EngineError::Fingerprint { .. }
            | EngineError::UnknownSession { .. }) => Dial::Fatal(e),
            e => Dial::Retry(e),
        },
        Ok(Some(other)) => Dial::Fatal(EngineError::Protocol {
            detail: format!("expected HelloAck, got {other:?}"),
        }),
        Ok(None) => Dial::Retry(EngineError::Transport {
            detail: "server closed during handshake".to_string(),
        }),
        Err(e) => Dial::Retry(e.into()),
    }
}

impl RtsClient {
    /// Connect and handshake. `expect` pins the corpus fingerprint the
    /// server must report (pass the local
    /// [`rts_serve::wire::corpus_fingerprint`] so instance ids are
    /// guaranteed to mean the same thing on both ends).
    pub fn connect(addr: &str, expect: Option<&str>) -> Result<RtsClient, EngineError> {
        let client = RtsClient {
            inner: Arc::new(ClientInner {
                addr: addr.to_string(),
                expect: expect.map(str::to_string),
                next_req: AtomicU64::new(1),
                client_state: Mutex::new(MailState {
                    stream: None,
                    mail: HashMap::new(),
                    pending_query: HashMap::new(),
                    finished: HashSet::new(),
                    session: None,
                    fingerprint: None,
                    dead: true,
                    generation: 0,
                    reconnecting: false,
                    fatal: None,
                }),
                bell: Condvar::new(),
            }),
        };
        match client.ensure_conn() {
            Ok(()) => Ok(client),
            Err(e) => Err(e),
        }
    }

    /// The session id granted by the server (resume token).
    pub fn session_id(&self) -> Option<u64> {
        self.inner.client_state.lock().session
    }

    /// The corpus fingerprint the server reported at handshake.
    pub fn fingerprint(&self) -> Option<String> {
        self.inner.client_state.lock().fingerprint.clone()
    }

    /// The terminal error, if the client has given up on the server.
    pub fn fatal(&self) -> Option<EngineError> {
        self.inner.client_state.lock().fatal.clone()
    }

    /// Test hook: sever the TCP connection as a fault would, without
    /// telling the server (the session parks; the next operation
    /// redials and resumes).
    pub fn drop_connection(&self) {
        let mut st = self.inner.client_state.lock();
        if let Some(stream) = st.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        st.dead = true;
        self.inner.bell.notify_all();
    }

    /// Politely end the session: the server retires it (no resume).
    /// Also sent on drop, best-effort.
    pub fn bye(&self) {
        let mut st = self.inner.client_state.lock();
        if let Some(stream) = st.stream.take() {
            let mut w = &stream;
            let _ = write_frame(&mut w, &ClientMsg::Bye);
            let _ = stream.shutdown(Shutdown::Both);
        }
        st.dead = true;
        if st.fatal.is_none() {
            st.fatal = Some(EngineError::Transport {
                detail: "client closed".to_string(),
            });
        }
        self.inner.bell.notify_all();
    }

    /// Make sure a live connection exists, redialing (with resume) if
    /// needed. Returns the fatal error once the client has given up.
    fn ensure_conn(&self) -> Result<(), EngineError> {
        loop {
            // Fast path / wait-for-the-dialer path.
            {
                let mut st = self.inner.client_state.lock();
                if let Some(e) = &st.fatal {
                    return Err(e.clone());
                }
                if !st.dead && st.stream.is_some() {
                    return Ok(());
                }
                if st.reconnecting {
                    self.inner
                        .bell
                        .wait_for(&mut st, Duration::from_millis(100));
                    continue;
                }
                st.reconnecting = true;
            }
            // This thread dials, lock released.
            let (addr, expect, resume) = {
                let st = self.inner.client_state.lock();
                (
                    self.inner.addr.clone(),
                    self.inner.expect.clone(),
                    st.session,
                )
            };
            let mut outcome = Dial::Retry(EngineError::Transport {
                detail: "no dial attempted".to_string(),
            });
            for attempt in 0..REDIAL_ATTEMPTS {
                outcome = dial(&addr, expect.as_deref(), resume);
                match &outcome {
                    Dial::Ok { .. } | Dial::Fatal(_) => break,
                    Dial::Retry(_) => {
                        if attempt + 1 < REDIAL_ATTEMPTS {
                            std::thread::sleep(REDIAL_BACKOFF);
                        }
                    }
                }
            }
            let mut st = self.inner.client_state.lock();
            st.reconnecting = false;
            match outcome {
                Dial::Ok {
                    stream,
                    session,
                    fingerprint,
                } => {
                    let Ok(reader_stream) = stream.try_clone() else {
                        st.dead = true;
                        self.inner.bell.notify_all();
                        continue;
                    };
                    st.stream = Some(stream);
                    st.session = Some(session);
                    st.fingerprint = Some(fingerprint);
                    st.dead = false;
                    st.generation += 1;
                    let generation = st.generation;
                    self.inner.bell.notify_all();
                    drop(st);
                    // The reader holds only a weak handle so `Drop` on
                    // the last client can see itself as the last owner.
                    let inner = Arc::downgrade(&self.inner);
                    std::thread::spawn(move || reader_loop(&inner, reader_stream, generation));
                    return Ok(());
                }
                Dial::Retry(e) | Dial::Fatal(e) => {
                    st.fatal = Some(e.clone());
                    self.inner.bell.notify_all();
                    return Err(e);
                }
            }
        }
    }

    fn fresh_req(&self) -> u64 {
        self.inner.next_req.fetch_add(1, Ordering::SeqCst)
    }

    /// Write one frame on the live connection, repairing it first.
    /// A failed write marks the connection dead and retries, so a send
    /// either lands on *some* connection of the session or returns the
    /// fatal error.
    fn send(&self, msg: &ClientMsg) -> Result<(), EngineError> {
        loop {
            self.ensure_conn()?;
            let mut st = self.inner.client_state.lock();
            let Some(stream) = &st.stream else {
                continue;
            };
            let mut w = stream;
            match write_frame(&mut w, msg) {
                Ok(()) => return Ok(()),
                Err(_) => {
                    st.dead = true;
                    st.stream = None;
                    self.inner.bell.notify_all();
                }
            }
        }
    }

    /// Wait for mail on `req` matching `pick`, re-sending `msg` after
    /// every reconnect (all re-sendable messages are idempotent on the
    /// server: submit acks are replayed, duplicate resolves read
    /// `Stale`, stats/invalidate are reads). Non-matching mail is left
    /// queued for its own consumer.
    fn call(
        &self,
        req: u64,
        msg: &ClientMsg,
        pick: impl Fn(&ServerMsg) -> bool,
    ) -> Result<ServerMsg, EngineError> {
        self.send(msg)?;
        loop {
            {
                let mut st = self.inner.client_state.lock();
                if let Some(queue) = st.mail.get_mut(&req) {
                    if let Some(pos) = queue.iter().position(&pick) {
                        let Some(found) = queue.remove(pos) else {
                            continue;
                        };
                        if queue.is_empty() {
                            st.mail.remove(&req);
                        }
                        return Ok(found);
                    }
                }
                if let Some(e) = &st.fatal {
                    return Err(e.clone());
                }
                if !st.dead {
                    self.inner.bell.wait_for(&mut st, MAIL_POLL);
                    continue;
                }
            }
            // Connection died since we sent: repair and re-send.
            self.send(msg)?;
        }
    }
}

impl Drop for RtsClient {
    fn drop(&mut self) {
        if Arc::strong_count(&self.inner) == 1 {
            self.bye();
        }
    }
}

/// Route incoming frames into per-request mailboxes until the
/// connection dies. One per connection generation; a stale reader
/// (superseded by a reconnect) exits without touching state.
fn reader_loop(weak: &Weak<ClientInner>, mut stream: TcpStream, generation: u64) {
    loop {
        let msg = match read_frame::<_, ServerMsg>(&mut stream) {
            Ok(Some(msg)) => msg,
            Ok(None) | Err(_) => {
                let Some(inner) = weak.upgrade() else { return };
                let mut st = inner.client_state.lock();
                if st.generation == generation {
                    st.dead = true;
                    st.stream = None;
                    inner.bell.notify_all();
                }
                return;
            }
        };
        let Some(inner) = weak.upgrade() else { return };
        let mut st = inner.client_state.lock();
        if st.generation != generation {
            return;
        }
        let req = match &msg {
            ServerMsg::HelloAck { .. } => {
                // Handshake frames are consumed in `dial`; one here is
                // a protocol violation.
                st.dead = true;
                st.stream = None;
                inner.bell.notify_all();
                return;
            }
            ServerMsg::Fault { error } => {
                // Handshake-level faults are terminal; anything else
                // (protocol/transport fault) closes this connection
                // and the session can still resume.
                if let e @ (EngineError::Version { .. }
                | EngineError::Fingerprint { .. }
                | EngineError::UnknownSession { .. }) = error
                {
                    st.fatal = Some(e.clone());
                }
                st.dead = true;
                st.stream = None;
                inner.bell.notify_all();
                return;
            }
            ServerMsg::Submitted { req }
            | ServerMsg::SubmitFailed { req, .. }
            | ServerMsg::Resolved { req }
            | ServerMsg::ResolveFailed { req, .. }
            | ServerMsg::Stats { req, .. }
            | ServerMsg::Invalidated { req, .. } => *req,
            ServerMsg::NeedsFeedback { req, target, query } => {
                st.pending_query.insert(*req, (*target, query.clone()));
                *req
            }
            ServerMsg::Done { req, .. } | ServerMsg::Retired { req } => {
                st.pending_query.remove(req);
                *req
            }
        };
        // Re-deliveries for settled requests are expected after a
        // resume; drop them instead of growing dead mailboxes.
        if st.finished.contains(&req) {
            continue;
        }
        st.mail.entry(req).or_default().push_back(msg);
        inner.bell.notify_all();
    }
}

impl Engine for RtsClient {
    fn submit(&self, tenant: TenantId, inst: &benchgen::Instance) -> Result<u64, SubmitError> {
        let req = self.fresh_req();
        let msg = ClientMsg::Submit {
            req,
            tenant,
            instance: inst.id,
        };
        let reply = self.call(req, &msg, |m| {
            matches!(
                m,
                ServerMsg::Submitted { .. } | ServerMsg::SubmitFailed { .. }
            )
        });
        match reply {
            Ok(ServerMsg::Submitted { .. }) => Ok(req),
            Ok(ServerMsg::SubmitFailed { error, .. }) => Err(error.into()),
            Ok(other) => Err(SubmitError::Unavailable {
                detail: format!("unexpected submit reply {other:?}"),
            }),
            Err(e) => Err(e.into()),
        }
    }

    fn wait_event(&self, ticket: u64) -> ClientEvent {
        loop {
            {
                let mut st = self.inner.client_state.lock();
                // Consume the next event for this ticket, if any.
                let popped = st.mail.get_mut(&ticket).and_then(VecDeque::pop_front);
                if let Some(msg) = popped {
                    if st.mail.get(&ticket).is_some_and(VecDeque::is_empty) {
                        st.mail.remove(&ticket);
                    }
                    match msg {
                        ServerMsg::NeedsFeedback { target, query, .. } => {
                            return ClientEvent::NeedsFeedback { target, query }
                        }
                        ServerMsg::Done { outcome, .. } => {
                            st.finished.insert(ticket);
                            st.mail.remove(&ticket);
                            return ClientEvent::Done(outcome.into());
                        }
                        ServerMsg::Retired { .. } => {
                            st.finished.insert(ticket);
                            st.mail.remove(&ticket);
                            return ClientEvent::Retired;
                        }
                        // Stray submit-ack re-deliveries; skip.
                        _ => continue,
                    }
                }
                if st.finished.contains(&ticket) {
                    return ClientEvent::Retired;
                }
                // Level-triggered re-poll: an unanswered flag is
                // returned again without a round trip, like the
                // in-process engine does.
                if let Some((target, query)) = st.pending_query.get(&ticket) {
                    return ClientEvent::NeedsFeedback {
                        target: *target,
                        query: query.clone(),
                    };
                }
                if st.fatal.is_some() {
                    // Degrade, never panic from inside the engine API:
                    // the ticket is unreachable, which is what Retired
                    // means. The terminal error stays in `fatal()`.
                    return ClientEvent::Retired;
                }
                if !st.dead {
                    self.inner.bell.wait_for(&mut st, MAIL_POLL);
                    continue;
                }
            }
            // Dead connection: resume. The server re-pushes pending
            // feedback, so the loop above will see it.
            if self.ensure_conn().is_err() {
                return ClientEvent::Retired;
            }
        }
    }

    fn resolve(
        &self,
        ticket: u64,
        query: &FlagQuery,
        resolution: FlagResolution,
    ) -> Result<(), ResolveError> {
        {
            let st = self.inner.client_state.lock();
            if st.finished.contains(&ticket) {
                return Err(ResolveError::Retired);
            }
        }
        let req = self.fresh_req();
        let msg = ClientMsg::Resolve {
            req,
            ticket,
            query: query.clone(),
            resolution,
        };
        let reply = self.call(req, &msg, |m| {
            matches!(
                m,
                ServerMsg::Resolved { .. } | ServerMsg::ResolveFailed { .. }
            )
        });
        // Whatever the verdict, this query is no longer the ticket's
        // pending state: drop the level-trigger cache so the next wait
        // blocks for fresh mail instead of replaying it.
        {
            let mut st = self.inner.client_state.lock();
            if st
                .pending_query
                .get(&ticket)
                .is_some_and(|(_, q)| q == query)
            {
                st.pending_query.remove(&ticket);
            }
        }
        match reply {
            Ok(ServerMsg::Resolved { .. }) => Ok(()),
            Ok(ServerMsg::ResolveFailed { error, .. }) => Err(error.into()),
            Ok(other) => Err(ResolveError::Unavailable {
                detail: format!("unexpected resolve reply {other:?}"),
            }),
            Err(e) => Err(e.into()),
        }
    }

    fn stats(&self) -> ServingStats {
        let req = self.fresh_req();
        let reply = self.call(req, &ClientMsg::Stats { req }, |m| {
            matches!(m, ServerMsg::Stats { .. })
        });
        match reply {
            Ok(ServerMsg::Stats { stats, .. }) => stats,
            // Degrade: an unreachable server reads as an empty engine.
            _ => ServingStats::default(),
        }
    }

    fn invalidate_db(&self, db: &str) -> usize {
        let req = self.fresh_req();
        let msg = ClientMsg::InvalidateDb {
            req,
            database: db.to_string(),
        };
        let reply = self.call(req, &msg, |m| matches!(m, ServerMsg::Invalidated { .. }));
        match reply {
            Ok(ServerMsg::Invalidated { dropped, .. }) => dropped,
            _ => 0,
        }
    }

    fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        let _ = self.send(&ClientMsg::SetTenantWeight { tenant, weight });
    }

    fn shutdown(&self) {
        let _ = self.send(&ClientMsg::Shutdown);
    }
}
