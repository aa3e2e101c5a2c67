//! # rts-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§4),
//! regenerating the same rows/series with the paper's number printed
//! alongside the measured one. Binaries in `src/bin/exp_*.rs` are thin
//! wrappers; `exp_all` runs everything and rewrites `EXPERIMENTS.md`.
//!
//! Scale is controlled by the `RTS_SCALE` environment variable
//! (fraction of the full benchmark size, default 1.0 = the paper's
//! 9428/1534-instance BIRD and 8659/1034/2147-instance Spider) and the
//! seed by `RTS_SEED` (default 0xC0FFEE).

pub mod context;
pub mod experiments;
pub mod openloop;
pub mod report;
pub mod serving;

pub use context::{Context, Which};
pub use report::{Report, Row};

/// Read harness scale from the environment.
pub fn env_scale() -> f64 {
    std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Read harness seed from the environment.
pub fn env_seed() -> u64 {
    std::env::var("RTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}
