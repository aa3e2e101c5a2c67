//! Runs the paper's experiment reports and saves them as JSON.
//!
//! ```text
//! RTS_SCALE=0.02 cargo run --release -p rts-bench --bin exp [id…]
//! ```
//!
//! With no id every report runs, and `EXPERIMENTS.md`, the full
//! paper-vs-measured record, is written next to the JSON files in
//! [`rts_bench::results_dir`]. An unknown id exits nonzero and lists
//! the known ones; an `RTS_SCALE` or `RTS_SEED` that does not parse
//! (see [`rts_bench::env_scale`], [`rts_bench::env_seed`]) exits 2,
//! naming the variable, before anything runs or is written.

use rts_bench::{Context, Report, EXPERIMENTS};
use std::fmt::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let selected = match rts_bench::select(&ids) {
        Ok(selected) => selected,
        Err(unknown) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!(
                "[exp] unknown report id {unknown:?}; known ids: {}",
                known.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };
    let (scale, seed) = match (rts_bench::env_scale(), rts_bench::env_seed()) {
        (Ok(scale), Ok(seed)) => (scale, seed),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[exp] {e}; nothing run");
            return ExitCode::from(2);
        }
    };
    let ctx = Context::load(rts_bench::needs(&selected), scale, seed);
    let dir = rts_bench::results_dir(scale, seed);

    let mut reports: Vec<Report> = Vec::new();
    for e in &selected {
        let t0 = std::time::Instant::now();
        let r = (e.run)(&ctx);
        eprintln!("[exp] {} done in {:.1}s", e.id, t0.elapsed().as_secs_f64());
        print!("{}", r.render());
        r.save(&dir).expect("save report");
        reports.push(r);
    }
    if reports.len() == EXPERIMENTS.len() {
        let md = render_experiments_md(&reports, scale, seed);
        std::fs::write(dir.join("EXPERIMENTS.md"), md).expect("write EXPERIMENTS.md");
        eprintln!("[exp] wrote {}/EXPERIMENTS.md", dir.display());
    }
    eprintln!(
        "[exp] saved {} report(s) into {}/",
        reports.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

fn render_experiments_md(reports: &[Report], scale: f64, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        out,
        "Generated by `cargo run --release -p rts-bench --bin exp` \
         (RTS_SCALE={scale}, RTS_SEED={seed:#x}).\n"
    );
    let _ = writeln!(
        out,
        "Reproduction of *Reliable Text-to-SQL with Adaptive Abstention* \
         (SIGMOD 2025). Absolute numbers are not expected to match the \
         paper's testbed; the *shape* — orderings, gaps, crossovers, \
         guarantee envelopes — is the reproduction target and is \
         annotated per experiment.\n"
    );
    let _ = writeln!(
        out,
        "Substitutions: BIRD and Spider are synthetic benchmarks of the \
         same shape and, at scale 1, the same split sizes (`benchgen`); \
         the LLM schema linker is a deterministic transparent-box \
         simulator whose per-layer hidden states are synthesized from \
         seeded streams (`simlm`); SQL runs on an in-memory engine \
         (`nanosql`); the downstream SQL generators, the surrogate \
         filter and the human participants are seeded models \
         (`SqlGenModel`, `SurrogateModel`, `HumanOracle`).\n"
    );
    let _ = writeln!(
        out,
        "Known paper discrepancy: §4.2's displayed TAR/FAR formulas are \
         swapped relative to the prose; we implement the prose semantics \
         (TAR = abstain ∧ would-be-wrong, FAR = abstain ∧ would-be-right), \
         which match the magnitudes in Tables 5–6.\n"
    );
    for r in reports {
        out.push_str(&r.render_markdown());
    }
    out
}
