//! The `wire` path: the real `rts-served` binary as a child process,
//! driven by one `RtsClient` connection.

use crate::client::Names;
use crate::world::{CORPUS_SEED, SCALE_ENV};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const NAMES: Names = Names {
    request: "wire.request",
    submit: "wire.submit_rtt",
    first_event: "wire.first_event",
    oracle: "wire.oracle",
    resolve: "wire.resolve_rtt",
    next_event: "wire.next_event",
};

/// The line `rts-served` prints on stderr once it can serve.
const READY: &str = "[rts-served] serving:";
/// How long a server may take to get ready or to exit.
const PATIENCE: Duration = Duration::from_secs(120);

/// A running `rts-served`. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the server with one worker, an unbounded context cache and
    /// checkpointing off, and block until it prints its ready line.
    pub fn start(binary: &Path) -> Result<Server, String> {
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
            probe.local_addr().map_err(|e| e.to_string())?.port()
        };
        let addr = format!("127.0.0.1:{port}");
        let mut child = Command::new(binary)
            .env_clear()
            .env("RTS_SCALE", SCALE_ENV)
            .env("RTS_SEED", CORPUS_SEED.to_string())
            .env("RTS_THREADS", "1")
            .env("RTS_SERVED_ADDR", &addr)
            .env("RTS_SERVED_SHARDS", "1")
            .env("RTS_SERVE_QUEUE", "16")
            .env("RTS_SERVE_CACHE", "0")
            .env("RTS_SERVE_PARKED_BUDGET", "0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<()>();
        // Read the ready line, then keep draining so the server never
        // blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if line.starts_with(READY) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(());
                    }
                } else if !line.contains("listening on") && !line.contains("setup (") {
                    eprintln!("{line}");
                }
            }
        });
        let mut server = Server {
            child,
            addr,
            stderr: Some(stderr),
        };
        match rx.recv_timeout(PATIENCE) {
            Ok(()) => Ok(server),
            Err(_) => {
                server.kill();
                Err("rts-served exited or stalled before its ready line".to_string())
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for the server to exit on its own (after a client sent
    /// `Shutdown`); kill it if it does not within the patience budget.
    /// True when it exited with status 0.
    pub fn wait_exit(mut self) -> bool {
        let deadline = Instant::now() + PATIENCE;
        let ok = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        self.kill();
        ok
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
