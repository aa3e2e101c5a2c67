//! The four analysis passes. Each works on the cfg(test)-stripped
//! token stream of one file and reports [`Finding`]s; the lock pass
//! additionally exports acquisition-order edges that the orchestrator
//! aggregates workspace-wide before cycle detection.

use crate::lexer::{Tok, TokKind};
use crate::waiver::CommentMap;
use std::collections::{BTreeMap, BTreeSet};

/// One analysis finding. `waived` is true only when a matching
/// `rts-allow` (or `SAFETY:`) annotation with a non-empty reason
/// covers the line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    pub kind: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub waived: bool,
    pub waiver_reason: Option<String>,
}

/// Everything a pass needs about one file.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub toks: &'a [Tok],
    pub comments: &'a CommentMap,
}

impl FileCtx<'_> {
    /// Build a finding, applying the waiver rule for `key`. A waiver
    /// with an empty reason does not waive — it is reported as a
    /// finding of its own shape (the reason *is* the audit trail).
    fn finding(
        &self,
        pass: &'static str,
        kind: &'static str,
        key: &str,
        line: u32,
        col: u32,
        message: String,
    ) -> Finding {
        let (waived, reason, message) = match self.comments.waiver(line, key) {
            Some(reason) if !reason.is_empty() => (true, Some(reason), message),
            Some(_) => (
                false,
                None,
                format!("{message} [rts-allow({key}) present but missing its reason]"),
            ),
            None => (false, None, message),
        };
        Finding {
            pass,
            kind,
            file: self.path.to_string(),
            line,
            col,
            message,
            waived,
            waiver_reason: reason,
        }
    }
}

/// Walk back from `j` (inclusive) over one balanced `(...)`/`[...]`
/// group to the identifier that heads the receiver — the lock or
/// collection name a method was invoked on.
fn receiver_ident(toks: &[Tok], mut j: isize) -> Option<&str> {
    if j < 0 {
        return None;
    }
    let t = &toks[j as usize];
    if t.is_punct(")") || t.is_punct("]") {
        let (open, close) = if t.text == ")" {
            ("(", ")")
        } else {
            ("[", "]")
        };
        let mut depth = 0isize;
        while j >= 0 {
            let t = &toks[j as usize];
            if t.is_punct(close) {
                depth += 1;
            } else if t.is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    j -= 1;
                    break;
                }
            }
            j -= 1;
        }
    }
    if j >= 0 && toks[j as usize].kind == TokKind::Ident {
        Some(&toks[j as usize].text)
    } else {
        None
    }
}

/// Does `toks[i..]` spell the path `segs[0]::segs[1]::…`?
fn is_path(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for (n, seg) in segs.iter().enumerate() {
        if n > 0 {
            if !(j + 1 < toks.len() && toks[j].is_punct(":") && toks[j + 1].is_punct(":")) {
                return false;
            }
            j += 2;
        }
        if !(j < toks.len() && toks[j].is_ident(seg)) {
            return false;
        }
        j += 1;
    }
    true
}

// ---------------------------------------------------------------------------
// Pass 1: panic-freedom
// ---------------------------------------------------------------------------

/// Flag every potentially-panicking expression on the serving paths:
/// `.unwrap()`, `.expect(…)`, `panic!`/`unreachable!`/`todo!`,
/// `panic_any(…)`, and direct slice indexing. Waiver key: `panic`.
pub fn panic_pass(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    let mut f = |kind: &'static str, line: u32, col: u32, msg: String| {
        out.push(ctx.finding("panic", kind, "panic", line, col, msg));
    };
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            // Direct indexing: `expr[…]` panics out of bounds. `[`
            // directly after an identifier or a closing bracket is an
            // index expression (attributes follow `#`, macro brackets
            // follow `!`, array types follow `:`/`<`/`(` — all
            // excluded by the previous-token rule). The full-range
            // `[..]` cannot panic and is skipped.
            if t.is_punct("[")
                && i > 0
                && (toks[i - 1].kind == TokKind::Ident
                    || toks[i - 1].is_punct(")")
                    || toks[i - 1].is_punct("]"))
                && !(i + 3 < toks.len()
                    && toks[i + 1].is_punct(".")
                    && toks[i + 2].is_punct(".")
                    && toks[i + 3].is_punct("]"))
            {
                f(
                    "slice-index",
                    t.line,
                    t.col,
                    "direct indexing panics out of bounds; use get()/get_mut() or waive with a bounds argument".into(),
                );
            }
            continue;
        }
        let dotted = i > 0 && toks[i - 1].is_punct(".");
        let called = i + 1 < toks.len() && toks[i + 1].is_punct("(");
        match t.text.as_str() {
            "unwrap" if dotted && called && i + 2 < toks.len() && toks[i + 2].is_punct(")") => f(
                "unwrap",
                t.line,
                t.col,
                "unwrap() panics on the error path; degrade or waive with an infallibility argument"
                    .into(),
            ),
            "expect" if dotted && called => f(
                "expect",
                t.line,
                t.col,
                "expect() panics on the error path; degrade or waive with an infallibility argument"
                    .into(),
            ),
            "panic" | "unreachable" | "todo"
                if i + 1 < toks.len() && toks[i + 1].is_punct("!") =>
            {
                f(
                    "panic-macro",
                    t.line,
                    t.col,
                    format!("{}! aborts the worker; degrade to abstention instead", t.text),
                )
            }
            "panic_any" if called => f(
                "panic-macro",
                t.line,
                t.col,
                "panic_any() raises a panic; degrade to abstention instead".into(),
            ),
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 2: determinism
// ---------------------------------------------------------------------------

const HASH_TYPES: [&str; 2] = ["HashMap", "HashSet"];
/// Methods that are hash-iteration on any receiver (only hash-ordered
/// collections in this workspace expose them).
const ITER_ALWAYS: [&str; 3] = ["keys", "values", "values_mut"];
/// Methods that are hash-iteration when the receiver is known to be a
/// HashMap/HashSet (they also exist on Vec & friends).
const ITER_NAMED: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
];

/// Names in one file bound to hash-ordered collections, plus functions
/// returning them — a deliberately lexical approximation of type
/// inference. Conservative by design: a Vec that shares a field name
/// with a HashMap elsewhere in the file is flagged too and needs a
/// waiver saying so.
fn hash_names(toks: &[Tok]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut names = BTreeSet::new();
    let mut fns = BTreeSet::new();
    // Functions whose return type mentions a hash type.
    for i in 0..toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            let mut arrow = None;
            while j + 1 < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                if toks[j].is_punct("-") && toks[j + 1].is_punct(">") {
                    arrow = Some(j + 2);
                    break;
                }
                j += 1;
            }
            if let Some(start) = arrow {
                let mut j = start;
                while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                    if HASH_TYPES.contains(&toks[j].text.as_str()) {
                        fns.insert(name.clone());
                        break;
                    }
                    j += 1;
                }
            }
        }
    }
    for i in 0..toks.len() {
        // `name: …HashMap…` — field declarations, parameters, struct
        // literal initializers, and ascribed lets alike.
        if toks[i].kind == TokKind::Ident
            && i + 1 < toks.len()
            && toks[i + 1].is_punct(":")
            && !(i + 2 < toks.len() && toks[i + 2].is_punct(":"))
            && !(i > 0 && toks[i - 1].is_punct(":"))
        {
            let mut angle = 0i32;
            let mut j = i + 2;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    angle -= 1;
                } else if angle <= 0
                    && (t.is_punct(",")
                        || t.is_punct(";")
                        || t.is_punct("=")
                        || t.is_punct(")")
                        || t.is_punct("{")
                        || t.is_punct("}"))
                {
                    break;
                }
                if HASH_TYPES.contains(&t.text.as_str()) {
                    names.insert(toks[i].text.clone());
                    break;
                }
                j += 1;
            }
        }
        // `let [mut] name = …HashMap…;` and RHS calling a
        // hash-returning function.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct("=") {
                let name = toks[j].text.clone();
                let mut depth = 0i32;
                let mut k = j + 2;
                while k < toks.len() {
                    let t = &toks[k];
                    if t.is_punct("(") || t.is_punct("{") || t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("}") || t.is_punct("]") {
                        depth -= 1;
                    } else if t.is_punct(";") && depth <= 0 {
                        break;
                    }
                    if HASH_TYPES.contains(&t.text.as_str())
                        || (t.kind == TokKind::Ident && fns.contains(&t.text))
                    {
                        names.insert(name.clone());
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
    (names, fns)
}

/// Flag nondeterminism sources in the pinned crates: wall-clock reads,
/// thread identity, nondeterministic hashers, pointer-identity casts,
/// and iteration over hash-ordered collections. Waiver keys: `clock`
/// (timing) and `iter-order` (ordering).
pub fn determinism_pass(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks;
    let (names, fns) = hash_names(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" if is_path(toks, i, &["Instant", "now"]) => out.push(
                ctx.finding(
                    "determinism",
                    "clock",
                    "clock",
                    t.line,
                    t.col,
                    "Instant::now() reads the wall clock; outputs must be pure functions of seeds"
                        .into(),
                ),
            ),
            "SystemTime" => out.push(ctx.finding(
                "determinism",
                "clock",
                "clock",
                t.line,
                t.col,
                "SystemTime reads the wall clock; outputs must be pure functions of seeds".into(),
            )),
            "thread" if is_path(toks, i, &["thread", "current"]) => out.push(ctx.finding(
                "determinism",
                "thread-id",
                "clock",
                t.line,
                t.col,
                "thread identity varies across runs and schedulers".into(),
            )),
            "ThreadId" => out.push(ctx.finding(
                "determinism",
                "thread-id",
                "clock",
                t.line,
                t.col,
                "thread identity varies across runs and schedulers".into(),
            )),
            "DefaultHasher" | "RandomState" => out.push(ctx.finding(
                "determinism",
                "hasher",
                "iter-order",
                t.line,
                t.col,
                format!("{} is seeded per-process; hashes are not stable", t.text),
            )),
            "as" if i + 2 < toks.len()
                && toks[i + 1].is_punct("*")
                && (toks[i + 2].is_ident("const") || toks[i + 2].is_ident("mut")) =>
            {
                out.push(ctx.finding(
                    "determinism",
                    "ptr-identity",
                    "iter-order",
                    t.line,
                    t.col,
                    "pointer identity is allocation-dependent, not seed-dependent".into(),
                ))
            }
            "ptr" if is_path(toks, i, &["ptr", "eq"]) => out.push(ctx.finding(
                "determinism",
                "ptr-identity",
                "iter-order",
                t.line,
                t.col,
                "ptr::eq compares allocation identity, which is not seed-dependent".into(),
            )),
            m if i > 0
                && toks[i - 1].is_punct(".")
                && i + 1 < toks.len()
                && toks[i + 1].is_punct("(") =>
            {
                let named_hit = ITER_NAMED.contains(&m)
                    && receiver_ident(toks, i as isize - 2)
                        .is_some_and(|r| names.contains(r) || fns.contains(r));
                if ITER_ALWAYS.contains(&m) || named_hit {
                    out.push(ctx.finding(
                        "determinism",
                        "hash-iter",
                        "iter-order",
                        t.line,
                        t.col,
                        format!(
                            ".{m}() iterates in hash order; sort the result or waive with an order-independence argument"
                        ),
                    ));
                }
            }
            "in" => {
                // `for x in [&[mut]] name {` over a known hash name.
                let mut j = i + 1;
                if j < toks.len() && toks[j].is_punct("&") {
                    j += 1;
                }
                if j < toks.len() && toks[j].is_ident("mut") {
                    j += 1;
                }
                if j + 1 < toks.len()
                    && toks[j].kind == TokKind::Ident
                    && toks[j + 1].is_punct("{")
                    && names.contains(&toks[j].text)
                {
                    out.push(ctx.finding(
                        "determinism",
                        "hash-iter",
                        "iter-order",
                        toks[j].line,
                        toks[j].col,
                        format!("`for … in {}` iterates in hash order", toks[j].text),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 2b: corpus-version stream discipline
// ---------------------------------------------------------------------------

/// Flag every direct `next_gaussian` call in a synthesis-owning file.
/// The v2 corpus draws its hidden-state streams through
/// `fill_gaussian`/`next_gaussian_pair` (both Box–Muller variates
/// kept; synthesis runs `fill_gaussian_fast` and recomputes through
/// `fill_gaussian_at`); a lone `.next_gaussian()` on such a path is
/// legitimate only for a corpus-shared stream (decisions, s-signal,
/// softmax, layer directions), and must say so with
/// `// rts-allow(corpus-v1): <reason>`.
/// An unwaived call is a new sequential-sampler dependency silently
/// minting another corpus. `next_gaussian_pair` lexes as a single
/// identifier, so it never trips this pass. Waiver key: `corpus-v1`
/// (the sampler the original v1 corpus used throughout).
pub fn corpus_pass(ctx: &FileCtx) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_ident("next_gaussian") && i + 1 < toks.len() && toks[i + 1].is_punct("(") {
            out.push(
                ctx.finding(
                    "corpus",
                    "sequential-sampler",
                    "corpus-v1",
                    t.line,
                    t.col,
                    "direct next_gaussian() call on a synthesis path: v2 streams draw via \
                 fill_gaussian/next_gaussian_pair; waive corpus-shared streams \
                 with rts-allow(corpus-v1)"
                        .into(),
                ),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 3: lock discipline
// ---------------------------------------------------------------------------

/// One lock-acquisition-order edge: `from` was held when `to` was
/// acquired, at `file:line:col`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Waived at the acquisition site (`rts-allow(lock)`).
    pub waived: bool,
    pub waiver_reason: Option<String>,
}

#[derive(Debug)]
struct HeldGuard {
    var: Option<String>,
    lock: String,
    depth: i32,
}

/// Extract lock-order edges and cross-lock condvar waits from one
/// file. Locks are identified by the receiver field/binding name
/// (`self.state.lock()` → `state`): names merge across types, which is
/// conservative in the right direction. Scope tracking is lexical —
/// a guard lives until `drop(guard)` or the end of its block; a
/// `.lock()` not bound by a plain `let guard = …lock();` is transient
/// (guard dropped at the end of the statement).
pub fn lock_pass(ctx: &FileCtx) -> (Vec<Finding>, Vec<LockEdge>) {
    let toks = ctx.toks;
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut depth = 0i32;
    // The pending `let name =` of the current statement, if any, with
    // the index of its `=` token.
    let mut pending_let: Option<(String, usize)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
            pending_let = None;
        } else if t.is_punct(";") {
            pending_let = None;
        } else if t.is_ident("fn") {
            // Guards never cross a function boundary.
            held.clear();
            pending_let = None;
        } else if t.is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            pending_let =
                (j + 1 < toks.len() && toks[j].kind == TokKind::Ident && toks[j + 1].is_punct("="))
                    .then(|| (toks[j].text.clone(), j + 1));
        } else if t.is_ident("drop")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct("(")
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 3].is_punct(")")
        {
            let var = &toks[i + 2].text;
            held.retain(|h| h.var.as_deref() != Some(var));
        } else if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 2 < toks.len()
            && toks[i + 1].is_punct("(")
            && toks[i + 2].is_punct(")")
        {
            if let Some(lock) = receiver_ident(toks, i as isize - 2) {
                let lock = lock.to_string();
                for h in &held {
                    if h.lock == lock {
                        findings.push(ctx.finding(
                            "locks",
                            "lock-relock",
                            "lock",
                            t.line,
                            t.col,
                            format!("`{lock}` acquired while already held (self-deadlock)"),
                        ));
                    } else {
                        let (waived, reason) = match ctx.comments.waiver(t.line, "lock") {
                            Some(r) if !r.is_empty() => (true, Some(r)),
                            _ => (false, None),
                        };
                        edges.push(LockEdge {
                            from: h.lock.clone(),
                            to: lock.clone(),
                            file: ctx.path.to_string(),
                            line: t.line,
                            col: t.col,
                            waived,
                            waiver_reason: reason,
                        });
                    }
                }
                // Held past the statement only when bound as the whole
                // RHS of a `let`: `let g = x.lock();` — the RHS must
                // start with the receiver chain itself (an identifier)
                // and end at this call, so `let n = *x.lock();` (a
                // deref of the statement-scoped temporary) stays
                // transient.
                let bound = pending_let.as_ref().is_some_and(|(_, eq)| {
                    eq + 1 < toks.len() && toks[eq + 1].kind == TokKind::Ident
                }) && i + 3 < toks.len()
                    && toks[i + 3].is_punct(";");
                if bound {
                    held.push(HeldGuard {
                        var: pending_let.take().map(|(name, _)| name),
                        lock,
                        depth,
                    });
                }
            }
        } else if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "wait" | "wait_for" | "wait_while" | "wait_timeout"
            )
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
        {
            // `cv.wait(&mut guard)`: which lock does `guard` guard?
            let mut j = i + 2;
            while j < toks.len() && (toks[j].is_punct("&") || toks[j].is_ident("mut")) {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let var = &toks[j].text;
                if let Some(waited) = held
                    .iter()
                    .find(|h| h.var.as_deref() == Some(var.as_str()))
                    .map(|h| h.lock.clone())
                {
                    for h in &held {
                        if h.lock != waited {
                            findings.push(ctx.finding(
                                "locks",
                                "wait-holds-other-lock",
                                "lock",
                                t.line,
                                t.col,
                                format!(
                                    "guard of `{}` held across Condvar::{} on `{}` — the wait \
                                     releases only `{}`, deadlocking anyone needing `{}`",
                                    h.lock, t.text, waited, waited, h.lock
                                ),
                            ));
                        }
                    }
                }
            }
        }
        i += 1;
    }
    (findings, edges)
}

/// Workspace-level cycle detection over the aggregated acquisition
/// graph. Every unwaived edge participating in a cycle becomes a
/// finding anchored at its acquisition site; waiving an edge
/// (`rts-allow(lock)`) removes it from the graph.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Finding> {
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges.iter().filter(|e| !e.waived) {
        graph.entry(&e.from).or_default().insert(&e.to);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                if let Some(next) = graph.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    let mut out = Vec::new();
    for e in edges.iter().filter(|e| !e.waived) {
        if reaches(&e.to, &e.from) {
            out.push(Finding {
                pass: "locks",
                kind: "lock-cycle",
                file: e.file.clone(),
                line: e.line,
                col: e.col,
                message: format!(
                    "acquisition edge `{}` → `{}` closes a cycle: lock order must be a DAG",
                    e.from, e.to
                ),
                waived: false,
                waiver_reason: None,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Pass 4: shim-surface drift
// ---------------------------------------------------------------------------

/// Flag direct `std::sync::{Mutex,RwLock,Condvar}` where the
/// `parking_lot` shim is mandated (waiver key: `std-sync`), and — in
/// `check_unsafe` mode — `unsafe` blocks without a covering
/// `// SAFETY:` comment (fixed by writing the comment, not waivable).
pub fn shim_pass(ctx: &FileCtx, check_std_sync: bool, check_unsafe: bool) -> Vec<Finding> {
    let toks = ctx.toks;
    let mut out = Vec::new();
    const SHIMMED: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
    for i in 0..toks.len() {
        let t = &toks[i];
        if check_std_sync && t.is_ident("std") && is_path(toks, i, &["std", "sync"]) {
            // `std::sync::X` or `use std::sync::{A, B, …}`. The path
            // `std::sync` spans tokens i..i+4 (`std` `:` `:` `sync`).
            if i + 5 < toks.len() && toks[i + 4].is_punct(":") && toks[i + 5].is_punct(":") {
                let j = i + 6;
                if j < toks.len() && toks[j].kind == TokKind::Ident {
                    if SHIMMED.contains(&toks[j].text.as_str()) {
                        out.push(ctx.finding(
                            "shim",
                            "std-sync",
                            "std-sync",
                            toks[j].line,
                            toks[j].col,
                            format!(
                                "std::sync::{} bypasses the mandated parking_lot shim",
                                toks[j].text
                            ),
                        ));
                    }
                } else if j < toks.len() && toks[j].is_punct("{") {
                    let mut k = j + 1;
                    let mut depth = 1i32;
                    while k < toks.len() && depth > 0 {
                        if toks[k].is_punct("{") {
                            depth += 1;
                        } else if toks[k].is_punct("}") {
                            depth -= 1;
                        } else if toks[k].kind == TokKind::Ident
                            && SHIMMED.contains(&toks[k].text.as_str())
                        {
                            out.push(ctx.finding(
                                "shim",
                                "std-sync",
                                "std-sync",
                                toks[k].line,
                                toks[k].col,
                                format!(
                                    "std::sync::{} bypasses the mandated parking_lot shim",
                                    toks[k].text
                                ),
                            ));
                        }
                        k += 1;
                    }
                }
            }
        }
        if check_unsafe
            && t.is_ident("unsafe")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("{")
            && !ctx.comments.has_safety(t.line)
        {
            out.push(Finding {
                pass: "shim",
                kind: "unsafe-no-safety",
                file: ctx.path.to_string(),
                line: t.line,
                col: t.col,
                message: "unsafe block without a covering `// SAFETY:` comment — write one \
                          stating the invariant that makes it sound"
                    .into(),
                waived: false,
                waiver_reason: None,
            });
        }
    }
    out
}
