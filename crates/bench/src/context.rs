//! Shared experiment context: benchmarks, linkers, trained BPPs and
//! surrogates, built once and reused by every experiment in-process.

use benchgen::{Benchmark, BenchmarkProfile};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::surrogate::SurrogateModel;
use simlm::{CorpusVersion, LinkTarget, SchemaLinker};

/// Which benchmarks an experiment needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Bird,
    Spider,
    Both,
}

impl Which {
    /// The benchmarks either side needs.
    pub fn union(self, other: Which) -> Which {
        if self == other {
            self
        } else {
            Which::Both
        }
    }
}

/// Everything trained for one benchmark.
pub struct BenchArtifacts {
    pub bench: Benchmark,
    pub linker: SchemaLinker,
    pub mbpp_tables: Mbpp,
    pub mbpp_columns: Mbpp,
    pub surrogate: SurrogateModel,
    /// Teacher-forced datasets kept for AUC evaluation on other splits.
    pub branch_tables: BranchDataset,
    pub branch_columns: BranchDataset,
    /// Per-`(database, target)` linking handles for the trace back,
    /// shared read-only by every experiment's monitored-linking runs.
    /// Building them is free; a trie is built only for a truncated
    /// stream.
    pub contexts: LinkContexts,
}

impl BenchArtifacts {
    fn build(profile: BenchmarkProfile, scale: f64, seed: u64) -> Self {
        let profile = if scale < 1.0 {
            profile.scaled(scale)
        } else {
            profile
        };
        let name = profile.name.clone();
        let bench = profile.generate(seed);
        let linker = SchemaLinker::new(&name, seed ^ 0x11CC);
        // The paper trains BPPs on ~10% of the training split; our
        // synthetic token streams are shorter than a real linker's, so
        // we trace a larger instance share to reach a comparable number
        // of branching-point examples.
        let cap = (bench.split.train.len() / 6).clamp(400, 1100);
        let branch_tables =
            BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, cap);
        let branch_columns =
            BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, cap);
        let cfg = MbppConfig {
            alpha: 0.1,
            k: 5,
            method: rts_core::bpp::MergeMethod::RandomPermutation,
            probe: ProbeConfig {
                seed: seed ^ 0xB0,
                ..ProbeConfig::default()
            },
        };
        let mbpp_tables = Mbpp::train(&branch_tables, &cfg);
        let mbpp_columns = Mbpp::train(&branch_columns, &cfg);
        let surrogate = SurrogateModel::train(&bench, seed ^ 0x5A11);
        let contexts = LinkContexts::build(&bench);
        Self {
            bench,
            linker,
            mbpp_tables,
            mbpp_columns,
            surrogate,
            branch_tables,
            branch_columns,
            contexts,
        }
    }
}

/// The experiment context.
pub struct Context {
    pub scale: f64,
    pub seed: u64,
    pub bird: Option<BenchArtifacts>,
    pub spider: Option<BenchArtifacts>,
}

impl Context {
    /// Build the context for the requested benchmarks.
    pub fn load(which: Which, scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale in (0,1]");
        let t0 = std::time::Instant::now();
        let bird = matches!(which, Which::Bird | Which::Both)
            .then(|| BenchArtifacts::build(BenchmarkProfile::bird_like(), scale, seed));
        let spider = matches!(which, Which::Spider | Which::Both)
            .then(|| BenchArtifacts::build(BenchmarkProfile::spider_like(), scale, seed));
        eprintln!(
            "[context] built (scale {scale}, seed {seed:#x}, corpus {}) in {:.1}s",
            CorpusVersion::default().tag(),
            t0.elapsed().as_secs_f64()
        );
        Self {
            scale,
            seed,
            bird,
            spider,
        }
    }

    pub fn bird(&self) -> &BenchArtifacts {
        self.bird.as_ref().expect("bird artifacts not loaded")
    }

    pub fn spider(&self) -> &BenchArtifacts {
        self.spider.as_ref().expect("spider artifacts not loaded")
    }
}
