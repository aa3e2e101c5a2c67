//! Start-up refusals of the `rts-served` binary: a corpus variable that
//! does not parse stops the daemon before it binds or trains.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// How long a refusal may take. A daemon that accepts the value trains
/// and then serves until shut down, so it is killed at this deadline
/// and the test fails instead of hanging.
const DEADLINE: Duration = Duration::from_secs(30);

fn refusal(var: &str, value: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rts-served"))
        .env("RTS_SERVED_ADDR", "127.0.0.1:0")
        .env_remove("RTS_SCALE")
        .env_remove("RTS_SEED")
        .env(var, value)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rts-served starts");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("rts-served is waitable") {
            break Some(status);
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("rts-served is killable");
            child.wait().expect("rts-served is reaped");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    let Some(status) = status else {
        panic!("{var}={value}: still running after {DEADLINE:?}; stderr: {stderr}");
    };
    (status.code(), stderr)
}

#[test]
fn malformed_corpus_variables_exit_1_naming_the_variable() {
    for (var, value) in [
        ("RTS_SEED", "0xg"),
        ("RTS_SEED", "-1"),
        ("RTS_SCALE", "soon"),
        ("RTS_SCALE", "1.5"),
    ] {
        let (code, stderr) = refusal(var, value);
        assert_eq!(code, Some(1), "{var}={value}: {stderr}");
        assert!(stderr.contains(var), "{var}={value}: {stderr}");
        assert!(!stderr.contains("listening"), "{var}={value}: {stderr}");
    }
}
