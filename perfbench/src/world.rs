//! The fixed corpus every workload runs on, its set-up, and the batch
//! reference the served outcomes are checked against.

use benchgen::{Benchmark, Instance};
use rts_core::abstention::{LinkScratch, MitigationPolicy, RtsConfig};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::LinkContexts;
use rts_core::human::{Expertise, HumanOracle};
use rts_core::pipeline::{run_joint_linking_in, JointOutcome};
use rts_core::sqlgen::SqlGenModel;
use simlm::{LinkTarget, SchemaLinker};
use std::collections::HashMap;

/// Benchmark scale: 48 databases and 6248 instances. The request
/// stream, not the corpus, is what `--seed` varies.
pub const SCALE: f64 = 0.5;
/// The literal handed to `rts-served` as `RTS_SCALE`; must parse to
/// [`SCALE`] so both processes build the same corpus.
pub const SCALE_ENV: &str = "0.5";
/// Corpus seed: the repository-wide default `RTS_SEED`.
pub const CORPUS_SEED: u64 = 0xC0FFEE;
/// Training examples per link target for the branching-point probes.
const BRANCH_EXAMPLES: usize = 400;

/// The runtime knobs every path uses; the engine, the server and the
/// batch reference must agree on them for outcomes to match.
pub fn rts_config() -> RtsConfig {
    RtsConfig {
        seed: CORPUS_SEED,
        ..RtsConfig::default()
    }
}

/// The expert oracle that answers every feedback query at once.
pub fn oracle() -> HumanOracle {
    HumanOracle::new(Expertise::Expert, CORPUS_SEED ^ 0x0DDE)
}

/// The SQL generator downstream of linking.
pub fn generator() -> SqlGenModel {
    SqlGenModel::deepseek_7b("bird", CORPUS_SEED ^ 0xEE)
}

/// The generated benchmark plus the schema linker: what a client needs
/// to name instances.
pub fn corpus() -> (Benchmark, SchemaLinker) {
    let bench = benchgen::BenchmarkProfile::bird_like()
        .scaled(SCALE)
        .generate(CORPUS_SEED);
    let linker = SchemaLinker::new("bird", CORPUS_SEED ^ 0x11CC);
    (bench, linker)
}

/// Every instance of every split, in train, dev, test order.
pub fn pool(bench: &Benchmark) -> Vec<Instance> {
    bench.all_instances().cloned().collect()
}

/// Branching-point probes for both link targets, trained on the train
/// split exactly as `rts-served` trains them.
pub fn train_probes(bench: &Benchmark, linker: &SchemaLinker) -> (Mbpp, Mbpp) {
    let cfg = MbppConfig {
        probe: ProbeConfig {
            epochs: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let ds_t = BranchDataset::build(
        linker,
        &bench.split.train,
        LinkTarget::Tables,
        BRANCH_EXAMPLES,
    );
    let ds_c = BranchDataset::build(
        linker,
        &bench.split.train,
        LinkTarget::Columns,
        BRANCH_EXAMPLES,
    );
    (Mbpp::train(&ds_t, &cfg), Mbpp::train(&ds_c, &cfg))
}

/// Everything a serving or batch process holds once set up.
pub struct World {
    pub bench: Benchmark,
    pub linker: SchemaLinker,
    pub mbpp_t: Mbpp,
    pub mbpp_c: Mbpp,
    /// Every instance of every split, indexed by request streams.
    pub pool: Vec<Instance>,
}

impl World {
    pub fn build() -> World {
        let (bench, linker) = corpus();
        let (mbpp_t, mbpp_c) = train_probes(&bench, &linker);
        World::from_parts(bench, linker, mbpp_t, mbpp_c)
    }

    pub fn from_parts(bench: Benchmark, linker: SchemaLinker, mbpp_t: Mbpp, mbpp_c: Mbpp) -> World {
        let pool = pool(&bench);
        World {
            bench,
            linker,
            mbpp_t,
            mbpp_c,
            pool,
        }
    }

    /// Benchmark generation, probe training and every database's link
    /// contexts: the batch process's set-up.
    pub fn build_with_contexts() -> (World, LinkContexts) {
        let world = World::build();
        let contexts = LinkContexts::build(&world.bench);
        (world, contexts)
    }
}

/// What the batch runtime answers for one instance.
pub struct Expected {
    pub outcome: JointOutcome,
    /// SQL generated from the linked schema executes like the gold SQL.
    pub ex: bool,
}

/// Run the blocking batch runtime once per distinct instance of
/// `stream`: the answers every path must reproduce.
pub fn expected(
    world: &World,
    contexts: &LinkContexts,
    stream: &[usize],
) -> HashMap<usize, Expected> {
    let oracle = oracle();
    let policy = MitigationPolicy::Human(&oracle);
    let config = rts_config();
    let generator = generator();
    let mut scratch = LinkScratch::default();
    let mut out = HashMap::new();
    for &i in stream {
        if out.contains_key(&i) {
            continue;
        }
        let inst = &world.pool[i];
        let outcome = run_joint_linking_in(
            &world.linker,
            &world.mbpp_t,
            &world.mbpp_c,
            inst,
            &world.bench,
            contexts,
            &policy,
            &config,
            &mut scratch,
        );
        let meta = world
            .bench
            .meta(&inst.db_name)
            .expect("instance database exists");
        let db = world
            .bench
            .database(&inst.db_name)
            .expect("instance database exists");
        let ex = generator.ex_correct(inst, db, meta, &outcome.provided_schema());
        out.insert(i, Expected { outcome, ex });
    }
    out
}

/// Field-by-field equality of two joint outcomes.
pub fn same_outcome(a: &JointOutcome, b: &JointOutcome) -> bool {
    let eq = |x: &rts_core::abstention::RtsOutcome, y: &rts_core::abstention::RtsOutcome| {
        x.abstained == y.abstained
            && x.predicted == y.predicted
            && x.correct == y.correct
            && x.would_be_correct == y.would_be_correct
            && x.n_interventions == y.n_interventions
            && x.n_flags == y.n_flags
    };
    eq(&a.tables, &b.tables) && eq(&a.columns, &b.columns)
}

/// The quality metrics of one pass over `stream`, from the expected
/// answers: joint linking accuracy, consultations per request, EX.
pub fn quality(stream: &[usize], expected: &HashMap<usize, Expected>) -> (f64, f64, f64) {
    let n = stream.len().max(1) as f64;
    let (mut linked, mut consults, mut ex) = (0usize, 0usize, 0usize);
    for i in stream {
        let e = &expected[i];
        linked += e.outcome.columns_correct_conditioned() as usize;
        consults += e.outcome.tables.n_interventions + e.outcome.columns.n_interventions;
        ex += e.ex as usize;
    }
    (linked as f64 / n, consults as f64 / n, ex as f64 / n)
}
