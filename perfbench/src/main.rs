//! `rts-perfbench`: end-to-end and per-layer benchmark of the RTS
//! workspace. See `perfbench/README.md`.
//!
//! ```text
//! rts-perfbench --workload batch|serve|wire --seed N --seconds S --trace 0|1
//!               [--server PATH] [--trace-out PATH] [--record PATH]
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The line before it
//! is the run record.

mod batch;
mod client;
mod e2e;
mod probe;
mod procfs;
mod report;
mod serve;
mod stream;
mod trace;
mod traced;
mod wire;
mod world;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Batch,
    Serve,
    Wire,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Serve => "serve",
            Workload::Wire => "wire",
        }
    }

    /// The context-cache capacity of the workload's path, for the record.
    pub fn cache_capacity(self) -> String {
        match self {
            Workload::Batch => "none".to_string(),
            Workload::Serve => serve::CACHE_CAPACITY.to_string(),
            Workload::Wire => "unbounded".to_string(),
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `rts-served` binary (`wire`, and every traced run).
    pub server: Option<PathBuf>,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
    /// Where to write the run record and result as one JSON object.
    pub record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut server, mut trace_out, mut record) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "batch" => Workload::Batch,
                    "serve" => Workload::Serve,
                    "wire" => Workload::Wire,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            "--record" => record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server,
        trace_out,
        record,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rts-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.note("workload", args.workload.name());
    report.note("trace", if args.trace { "1" } else { "0" });
    report.note("seed", args.seed.to_string());
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.note(
        "rts_threads",
        std::env::var("RTS_THREADS").unwrap_or_else(|_| "unset".to_string()),
    );
    report.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.note("scale", world::SCALE);
    report.note("corpus_seed", world::CORPUS_SEED.to_string());
    let run = if args.trace {
        traced::run(&args, &mut report)
    } else {
        match args.workload {
            Workload::Batch => e2e::batch(&args, started, &mut report),
            Workload::Serve => e2e::serve(&args, started, &mut report),
            Workload::Wire => e2e::wire(&args, started, &mut report),
        }
    };
    if let Err(e) = run {
        eprintln!("rts-perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for problem in &report.problems {
        eprintln!("rts-perfbench: check failed: {problem}");
    }
    let record = report.record_json();
    let result = report.result_json();
    if let Some(path) = &args.record {
        let both = format!("{{\"record\": {record}, \"result\": {result}}}\n");
        if let Err(e) = std::fs::write(path, both) {
            eprintln!("rts-perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{{\"record\": {record}}}");
    println!("{result}");
    ExitCode::SUCCESS
}
