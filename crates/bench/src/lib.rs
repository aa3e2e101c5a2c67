//! # rts-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§4),
//! regenerating the same rows/series with the paper's number printed
//! alongside the measured one. [`EXPERIMENTS`] names every report once;
//! the one binary, `exp`, runs the reports named on its command line
//! (all of them when none is named) and saves them into
//! [`results_dir`]:
//!
//! ```text
//! RTS_SCALE=0.02 cargo run --release -p rts-bench --bin exp            # all 17
//! RTS_SCALE=0.02 cargo run --release -p rts-bench --bin exp figure6    # builds BIRD only
//! ```
//!
//! Scale is controlled by the `RTS_SCALE` environment variable
//! (fraction of the full benchmark size, default 1.0 = the paper's
//! 9428/1534-instance BIRD and 8659/1034/2147-instance Spider) and the
//! seed by `RTS_SEED`, decimal or `0x…` hex (default [`PINNED_SEED`]);
//! `exp` refuses a value it cannot read. Only the pinned pair
//! writes the committed top-level `results/*.json`; every other pair
//! writes its own subdirectory.

pub mod context;
pub mod experiments;
pub mod report;

pub use context::{Context, Which};
pub use report::{Report, Row};

use experiments::ablation::*;
use experiments::{abstain, ex, figure3, linking, sweeps, userstudy};
use std::path::PathBuf;
use Which::{Bird, Both};

/// The scale of the committed top-level `results/*.json`.
pub const PINNED_SCALE: f64 = 0.02;

/// The seed of the committed top-level `results/*.json`, and the
/// default of `RTS_SEED`.
pub const PINNED_SEED: u64 = 0xC0FFEE;

/// Where the reports of a run at `(scale, seed)` are saved: `results/`
/// for the pinned pair, `results/scale<scale>-seed<seed>/` for any
/// other, so no other run overwrites the pinned records.
pub fn results_dir(scale: f64, seed: u64) -> PathBuf {
    let root = PathBuf::from("results");
    if scale == PINNED_SCALE && seed == PINNED_SEED {
        root
    } else {
        root.join(format!("scale{scale}-seed{seed:#x}"))
    }
}

/// One paper report: its id (the `results/<id>.json` stem), the
/// benchmarks it reads and the function that builds it.
pub struct Experiment {
    pub id: &'static str,
    pub needs: Which,
    pub run: fn(&Context) -> Report,
}

const fn exp(id: &'static str, needs: Which, run: fn(&Context) -> Report) -> Experiment {
    Experiment { id, needs, run }
}

/// Every report of the paper's §4, in `EXPERIMENTS.md` order.
pub const EXPERIMENTS: [Experiment; 17] = [
    exp("table1", Bird, ex::table1),
    exp("figure3a", Bird, figure3::figure3a),
    exp("figure3b", Bird, figure3::figure3b),
    exp("table2", Both, linking::table2),
    exp("table3", Both, linking::table3),
    exp("table4", Both, linking::table4),
    exp("table5", Both, abstain::table5),
    exp("table6", Both, abstain::table6),
    exp("table7", Both, ex::table7),
    exp("figure6", Bird, sweeps::figure6),
    exp("figure7", Bird, sweeps::figure7),
    exp("table8", Bird, userstudy::table8),
    exp("table9", Bird, userstudy::table9),
    exp("ablation_probe_depth", Bird, ablation_probe_depth),
    exp("ablation_conformal", Bird, ablation_conformal),
    exp("ablation_layer_selection", Bird, ablation_layer_selection),
    exp("ablation_merge_sets", Bird, ablation_merge_sets),
];

/// The experiments named by `ids`, in registry order (every one when
/// `ids` is empty). An unknown id is returned as the error.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<&'static Experiment>, String> {
    if let Some(unknown) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|e| e.id == id.as_ref()))
    {
        return Err(unknown.as_ref().to_string());
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| ids.is_empty() || ids.iter().any(|id| id.as_ref() == e.id))
        .collect())
}

/// The benchmarks a set of experiments reads between them.
pub fn needs(experiments: &[&Experiment]) -> Which {
    experiments
        .iter()
        .map(|e| e.needs)
        .reduce(Which::union)
        .unwrap_or(Which::Both)
}

/// The harness scale when `RTS_SCALE` is unset: the full, paper-sized
/// benchmark.
pub const DEFAULT_SCALE: f64 = 1.0;

/// Read harness scale from `RTS_SCALE`, [`DEFAULT_SCALE`] when unset;
/// see [`benchgen::profile::parse_scale`].
pub fn env_scale() -> Result<f64, String> {
    benchgen::profile::env_scale(DEFAULT_SCALE)
}

/// Read harness seed from `RTS_SEED`, [`PINNED_SEED`] when unset; see
/// [`benchgen::profile::parse_seed`].
pub fn env_seed() -> Result<u64, String> {
    benchgen::profile::env_seed(PINNED_SEED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn unset_gives_the_defaults() {
        use benchgen::profile::{parse_scale, parse_seed};
        assert_eq!(parse_seed(None, PINNED_SEED), Ok(PINNED_SEED));
        assert_eq!(parse_scale(None, DEFAULT_SCALE), Ok(1.0));
    }

    #[test]
    fn only_the_pinned_pair_writes_the_top_level_results() {
        assert_eq!(results_dir(PINNED_SCALE, PINNED_SEED), Path::new("results"));
        let paper_scale = results_dir(1.0, PINNED_SEED);
        assert_eq!(paper_scale, Path::new("results/scale1-seed0xc0ffee"));
        let other_seed = results_dir(PINNED_SCALE, 7);
        assert_eq!(other_seed, Path::new("results/scale0.02-seed0x7"));
        assert_ne!(results_dir(0.03, PINNED_SEED), paper_scale);
    }

    #[test]
    fn ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.id != e.id), "{}", e.id);
        }
    }

    #[test]
    fn no_ids_select_every_experiment() {
        let all = select::<&str>(&[]).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        assert_eq!(needs(&all), Which::Both);
    }

    #[test]
    fn unknown_id_is_refused() {
        assert_eq!(
            select(&["table2", "table10"]).err().as_deref(),
            Some("table10")
        );
    }

    #[test]
    fn selection_needs_the_union_of_its_benchmarks() {
        let ids = |sel: &[&Experiment]| sel.iter().map(|e| e.id).collect::<Vec<_>>();
        let bird_only = select(&["figure7", "figure6"]).unwrap();
        assert_eq!(ids(&bird_only), ["figure6", "figure7"], "registry order");
        assert_eq!(needs(&bird_only), Which::Bird);
        let both = select(&["figure6", "table5"]).unwrap();
        assert_eq!(needs(&both), Which::Both);
        assert_eq!(Which::Bird.union(Which::Spider), Which::Both);
    }
}
