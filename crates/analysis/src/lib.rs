//! `rts-analysis` — static analysis that proves the workspace's two
//! load-bearing invariants at the source level:
//!
//! 1. **Degrade-only serving**: `crates/serve` never panics on a
//!    client-facing path — it degrades to abstention (panic-freedom
//!    pass), and its locks form an acquisition-order DAG with no guard
//!    held across a foreign `Condvar::wait` (lock-discipline pass).
//! 2. **Determinism**: the pinned crates (`core`, `simlm`, `tinynn`,
//!    `conformal`, `nanosql`) compute outputs as pure functions of
//!    seeds — no wall clock, thread identity, nondeterministic
//!    hashing, pointer identity, or hash-order iteration
//!    (determinism pass).
//!
//! A fourth pass guards the offline shim policy: no direct
//! `std::sync::{Mutex,RwLock,Condvar}` outside the shims, and every
//! `unsafe` block carries a `// SAFETY:` comment. A fifth (the corpus
//! pass, scoped to the synthesis-owning `simlm/src/model.rs`) keeps
//! the corpus-version contract honest: direct `next_gaussian` calls
//! there are corpus-shared streams (decisions, s-signal, softmax,
//! layer directions) and must carry `rts-allow(corpus-v1)` waivers —
//! hidden-state synthesis draws the `fill_gaussian` streams.
//!
//! Violations are waived — never silenced — with
//! `// rts-allow(<key>): <reason>`; an empty reason does not waive.
//! The `rts-analyze` binary exits nonzero on any unwaived finding,
//! which makes the CI job a ratchet: the workspace ships clean, and
//! every future regression is a build failure.

pub mod lexer;
pub mod passes;
pub mod report;
pub mod waiver;

pub use passes::{Finding, LockEdge};
pub use report::Report;

use std::io;
use std::path::{Path, PathBuf};

/// Which passes to run on a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassSet {
    pub panic: bool,
    pub determinism: bool,
    /// Corpus-version stream discipline: direct `next_gaussian` calls
    /// in the synthesis-owning file must carry `rts-allow(corpus-v1)`
    /// waivers (corpus-shared streams) — hidden-state streams are the
    /// `fill_gaussian` ones.
    pub corpus: bool,
    pub locks: bool,
    pub std_sync: bool,
    pub unsafety: bool,
}

/// One source file queued for analysis. `label` is the path as
/// reported in findings (workspace-relative for real files, a bare
/// name for fixtures).
#[derive(Debug, Clone)]
pub struct FileSpec {
    pub label: String,
    pub src: String,
    pub passes: PassSet,
}

/// Run the configured passes over every file and aggregate the
/// result, including workspace-level lock-cycle detection over the
/// union of all acquisition edges.
pub fn analyze(specs: &[FileSpec]) -> Report {
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for spec in specs {
        let lexed = lexer::lex(&spec.src);
        let comments = waiver::CommentMap::new(&lexed.comments);
        let toks = lexer::strip_cfg_test(lexed.toks);
        let ctx = passes::FileCtx {
            path: &spec.label,
            toks: &toks,
            comments: &comments,
        };
        if spec.passes.panic {
            findings.extend(passes::panic_pass(&ctx));
        }
        if spec.passes.determinism {
            findings.extend(passes::determinism_pass(&ctx));
        }
        if spec.passes.corpus {
            findings.extend(passes::corpus_pass(&ctx));
        }
        if spec.passes.locks {
            let (f, e) = passes::lock_pass(&ctx);
            findings.extend(f);
            edges.extend(e);
        }
        if spec.passes.std_sync || spec.passes.unsafety {
            findings.extend(passes::shim_pass(
                &ctx,
                spec.passes.std_sync,
                spec.passes.unsafety,
            ));
        }
    }
    findings.extend(passes::lock_cycles(&edges));
    Report::new(findings)
}

/// Crates whose outputs must be bit-identical functions of seeds.
const PINNED_CRATES: [&str; 5] = ["core", "simlm", "tinynn", "conformal", "nanosql"];

/// Map one workspace-relative `.rs` path to the passes that apply to
/// it under the workspace policy. Returns the default (empty) set for
/// files outside every pass's scope.
pub fn workspace_passes(rel: &str) -> PassSet {
    let mut p = PassSet::default();
    let rel = rel.replace('\\', "/");
    if !rel.starts_with("crates/") || !rel.ends_with(".rs") {
        return p;
    }
    // Analyzer fixtures are input *data* — deliberately-violating
    // snippets — not workspace source.
    if rel.contains("/tests/fixtures/") {
        return p;
    }
    // Integration-test harnesses (`crates/*/tests/`) assert loudly by
    // design, like the workspace-root suites: the degrade-only and
    // lock-discipline passes bind shipped sources, not the tests that
    // hold them to it. (Inline `#[cfg(test)]` modules are already
    // stripped by the scanner.)
    let harness = rel.contains("/tests/");
    // Every crate: unsafe blocks need SAFETY comments.
    p.unsafety = true;
    // Every crate except the shims themselves: no direct std::sync
    // primitives (the parking_lot shim implements *over* std::sync,
    // and other shims may legitimately reach for it).
    p.std_sync = !rel.starts_with("crates/shims/");
    if rel.starts_with("crates/serve/") && !harness {
        // Serving paths must degrade, never panic — except fault.rs,
        // which exists to inject panics deterministically.
        p.panic = !rel.ends_with("/fault.rs");
        p.locks = true;
    }
    // The wire server and client extend the serving surface across a
    // socket: same degrade-only contract, same lock discipline. A
    // malformed or hostile peer must read as a typed error, never a
    // panic; waivers are reasoned and live only at the I/O boundary.
    if (rel.starts_with("crates/served/") || rel.starts_with("crates/client/")) && !harness {
        p.panic = true;
        p.locks = true;
    }
    if PINNED_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")))
    {
        p.determinism = true;
    }
    // The open-loop harness's arrival schedule is a pure function of
    // its seed (the sharded↔single-shard parity checks depend on it),
    // so the bench crate's openloop module is determinism-pinned too;
    // its deliberate wall-clock *measurement* carries `rts-allow`
    // waivers.
    if rel == "crates/bench/src/openloop.rs" {
        p.determinism = true;
    }
    // The file that owns hidden-state synthesis: every direct
    // `next_gaussian` call there must be a corpus-shared stream and say
    // so via `rts-allow(corpus-v1)` — the hidden-state streams are the
    // fill_gaussian ones.
    if rel == "crates/simlm/src/model.rs" {
        p.corpus = true;
    }
    p
}

/// Collect every `.rs` file under `root/crates` (sorted, so runs are
/// deterministic) with its policy-assigned passes. Files whose pass
/// set is empty are skipped.
pub fn workspace_specs(root: &Path) -> io::Result<Vec<FileSpec>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates"), &mut paths)?;
    paths.sort();
    let mut specs = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let passes = workspace_passes(&rel);
        if passes == PassSet::default() {
            continue;
        }
        specs.push(FileSpec {
            label: rel,
            src: std::fs::read_to_string(&path)?,
            passes,
        });
    }
    Ok(specs)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            // `target/` never lives under crates/<name>/src, but a
            // workspace-level build dir could be symlinked oddly;
            // skip it defensively.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_policy_scopes_passes_correctly() {
        let serve = workspace_passes("crates/serve/src/engine.rs");
        assert!(serve.panic && serve.locks && serve.std_sync && serve.unsafety);
        assert!(!serve.determinism);

        let fault = workspace_passes("crates/serve/src/fault.rs");
        assert!(!fault.panic, "fault.rs injects panics by design");
        assert!(fault.locks);

        let pinned = workspace_passes("crates/simlm/src/trie.rs");
        assert!(pinned.determinism && !pinned.panic && !pinned.locks);
        assert!(
            !pinned.corpus,
            "only the synthesis-owning file is corpus-pinned"
        );

        let model = workspace_passes("crates/simlm/src/model.rs");
        assert!(
            model.corpus && model.determinism,
            "model.rs owns the synthesis streams"
        );

        let served = workspace_passes("crates/served/src/lib.rs");
        assert!(
            served.panic && served.locks,
            "the wire server inherits the serve crate's degrade-only contract"
        );
        assert!(!served.determinism, "I/O timing is inherently wall-clock");
        let client = workspace_passes("crates/client/src/lib.rs");
        assert!(
            client.panic && client.locks,
            "the wire client must surface typed errors, never panic"
        );
        let wire_tests = workspace_passes("crates/served/tests/wire.rs");
        assert!(
            !wire_tests.panic && !wire_tests.locks,
            "integration harnesses assert loudly by design"
        );
        assert!(
            wire_tests.std_sync && wire_tests.unsafety,
            "hygiene passes still bind test harnesses"
        );

        let shim = workspace_passes("crates/shims/parking_lot/src/lib.rs");
        assert!(shim.unsafety, "shims still need SAFETY comments");
        assert!(!shim.std_sync, "the shim wraps std::sync by design");

        let openloop = workspace_passes("crates/bench/src/openloop.rs");
        assert!(openloop.determinism, "the arrival schedule is seed-pure");
        assert!(!openloop.panic, "the bench crate may assert freely");
        let bench = workspace_passes("crates/bench/src/serving.rs");
        assert!(
            !bench.determinism,
            "only the openloop module is determinism-pinned in rts-bench"
        );

        assert_eq!(workspace_passes("README.md"), PassSet::default());
    }
}
