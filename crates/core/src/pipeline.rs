//! End-to-end RTS text-to-SQL pipeline.
//!
//! Glues the stages together the way §4.3's "Text-to-SQL" experiment
//! does: RTS schema linking (tables then columns, human feedback
//! resolving every branching flag) produces a linked schema per
//! instance; an orthogonal SQL generator consumes it; EX is measured by
//! real execution. Also hosts the joint table+column evaluation behind
//! Table 6.

use crate::abstention::{
    run_rts_linking, run_rts_linking_in, LinkScratch, MitigationPolicy, RtsConfig, RtsOutcome,
};
use crate::bpp::Mbpp;
use crate::context::LinkContexts;
use crate::human::HumanOracle;
use crate::par::{par_map, par_map_with};
use crate::sqlgen::{ProvidedSchema, SqlGenModel};
use benchgen::{Benchmark, Instance};
use simlm::{LinkTarget, SchemaLinker};

/// Outcome of joint (table + column) RTS linking for one instance.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JointOutcome {
    pub tables: RtsOutcome,
    pub columns: RtsOutcome,
}

impl JointOutcome {
    /// Either stage abstained.
    pub fn abstained(&self) -> bool {
        self.tables.abstained || self.columns.abstained
    }

    /// Any human/surrogate involvement across both stages.
    pub fn intervened(&self) -> bool {
        self.tables.n_interventions + self.columns.n_interventions > 0
    }

    /// Would the unmonitored run have been jointly correct?
    pub fn would_be_correct(&self) -> bool {
        self.tables.would_be_correct && self.columns.would_be_correct
    }

    /// Column prediction conditioned on table linking: a column set only
    /// counts if the table set is right too (the paper's joint process
    /// feeds predicted tables into column linking).
    pub fn columns_correct_conditioned(&self) -> bool {
        self.tables.correct && self.columns.correct
    }

    /// The linked schema for the SQL generator. Falls back to the gold
    /// structure only via what linking actually produced.
    pub fn provided_schema(&self) -> ProvidedSchema {
        let tables = self.tables.predicted.clone();
        let columns: Vec<(String, String)> = self
            .columns
            .predicted
            .iter()
            .filter_map(|e| {
                e.split_once('.')
                    .map(|(t, c)| (t.to_string(), c.to_string()))
            })
            // A column prediction is only usable if its table survived
            // table linking.
            .filter(|(t, _)| tables.contains(t))
            .collect();
        ProvidedSchema::from_linking(tables, columns)
    }
}

/// Run joint RTS linking (tables, then columns) for one instance.
///
/// Convenience wrapper that builds the instance's contexts per call;
/// loops over many instances should build a [`LinkContexts`] registry
/// once and use [`run_joint_linking_in`].
pub fn run_joint_linking(
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    inst: &Instance,
    bench: &Benchmark,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
) -> JointOutcome {
    let meta = bench.meta(&inst.db_name).expect("instance database exists");
    let tables = run_rts_linking(
        model,
        mbpp_tables,
        inst,
        meta,
        LinkTarget::Tables,
        policy,
        config,
    );
    let columns = run_rts_linking(
        model,
        mbpp_columns,
        inst,
        meta,
        LinkTarget::Columns,
        policy,
        config,
    );
    JointOutcome { tables, columns }
}

/// [`run_joint_linking`] against a shared [`LinkContexts`] registry and
/// caller-owned scratch — the hot-loop form every experiment driver and
/// [`run_full_pipeline`] use. Outcomes are bit-identical to the
/// per-call wrapper (same runtime, shared read-only state).
#[allow(clippy::too_many_arguments)] // mirrors run_joint_linking + contexts
pub fn run_joint_linking_in(
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    inst: &Instance,
    bench: &Benchmark,
    contexts: &LinkContexts,
    policy: &MitigationPolicy<'_>,
    config: &RtsConfig,
    scratch: &mut LinkScratch,
) -> JointOutcome {
    let meta = bench.meta(&inst.db_name).expect("instance database exists");
    let tables = run_rts_linking_in(
        model,
        mbpp_tables,
        inst,
        meta,
        contexts.get(&inst.db_name, LinkTarget::Tables),
        policy,
        config,
        scratch,
    );
    let columns = run_rts_linking_in(
        model,
        mbpp_columns,
        inst,
        meta,
        contexts.get(&inst.db_name, LinkTarget::Columns),
        policy,
        config,
        scratch,
    );
    JointOutcome { tables, columns }
}

/// Schema sources for the EX experiments (Tables 1 and 7).
pub enum SchemaSource<'a> {
    /// Correct tables + correct columns.
    Golden,
    /// Correct tables + full columns.
    CorrectTablesFullColumns,
    /// Full tables + full columns (what schema-linking-free baselines see).
    Full,
    /// The schema RTS linking produced per instance. `Sync` because
    /// [`measure_ex`] evaluates instances across threads.
    Rts(&'a (dyn Fn(&Instance) -> ProvidedSchema + Sync)),
}

/// Measure EX for a generator over instances under a schema source.
///
/// Instances fan out across threads ([`par_map`]); generation and
/// execution are deterministic per instance, so the parallel measurement
/// equals the serial one exactly.
pub fn measure_ex(
    bench: &Benchmark,
    instances: &[Instance],
    generator: &SqlGenModel,
    source: &SchemaSource<'_>,
) -> f64 {
    if instances.is_empty() {
        return 0.0;
    }
    let correct = par_map(instances, |inst| {
        let meta = bench.meta(&inst.db_name).expect("meta exists");
        let db = bench.database(&inst.db_name).expect("database exists");
        let schema = match source {
            SchemaSource::Golden => ProvidedSchema::golden(inst),
            SchemaSource::CorrectTablesFullColumns => {
                ProvidedSchema::correct_tables_full_columns(inst, meta)
            }
            SchemaSource::Full => ProvidedSchema::full(meta),
            SchemaSource::Rts(f) => f(inst),
        };
        generator.ex_correct(inst, db, meta, &schema)
    });
    correct.iter().filter(|&&c| c).count() as f64 / instances.len() as f64
}

/// Run the full RTS pipeline (human-in-the-loop linking → SQL → EX)
/// over instances, returning (EX, joint outcomes).
///
/// The instance level is parallel: outcomes are indexed by instance and
/// every run seeds its RNG from `RtsConfig::seed` and the instance id,
/// so this returns exactly what the serial loop would (pinned by the
/// `parallel_pipeline_matches_serial` proptest). Within each instance,
/// monitored linking synthesizes only the hidden layers the mBPPs read
/// and borrows the benchmark's [`LinkContexts`] — built here once,
/// shared read-only by every worker.
#[allow(clippy::too_many_arguments)] // mirrors the paper's pipeline stages
pub fn run_full_pipeline(
    bench: &Benchmark,
    instances: &[Instance],
    model: &SchemaLinker,
    mbpp_tables: &Mbpp,
    mbpp_columns: &Mbpp,
    oracle: &HumanOracle,
    generator: &SqlGenModel,
    config: &RtsConfig,
) -> (f64, Vec<JointOutcome>) {
    let policy = MitigationPolicy::Human(oracle);
    let contexts = LinkContexts::build(bench);
    let outcomes: Vec<JointOutcome> =
        par_map_with(instances, LinkScratch::default, |scratch, inst| {
            run_joint_linking_in(
                model,
                mbpp_tables,
                mbpp_columns,
                inst,
                bench,
                &contexts,
                &policy,
                config,
                scratch,
            )
        });
    let schemas: Vec<ProvidedSchema> = outcomes.iter().map(|o| o.provided_schema()).collect();
    let idx_of: std::collections::HashMap<u64, usize> = instances
        .iter()
        .enumerate()
        .map(|(i, inst)| (inst.id, i))
        .collect();
    let ex = measure_ex(
        bench,
        instances,
        generator,
        &SchemaSource::Rts(&|inst| schemas[idx_of[&inst.id]].clone()),
    );
    (ex, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpp::{Mbpp, MbppConfig, ProbeConfig};
    use crate::branching::BranchDataset;
    use crate::human::Expertise;
    use benchgen::BenchmarkProfile;

    struct Fx {
        bench: Benchmark,
        model: SchemaLinker,
        mbpp_t: Mbpp,
        mbpp_c: Mbpp,
    }

    fn fixture() -> Fx {
        let bench = BenchmarkProfile::bird_like().scaled(0.05).generate(120);
        let model = SchemaLinker::new("bird", 17);
        let cfg = MbppConfig {
            probe: ProbeConfig {
                epochs: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 400);
        let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 400);
        let mbpp_t = Mbpp::train(&ds_t, &cfg);
        let mbpp_c = Mbpp::train(&ds_c, &cfg);
        Fx {
            bench,
            model,
            mbpp_t,
            mbpp_c,
        }
    }

    #[test]
    fn joint_linking_couples_abstentions() {
        let fx = fixture();
        let policy = MitigationPolicy::AbstainOnly;
        let config = RtsConfig::default();
        let outcomes: Vec<JointOutcome> = fx
            .bench
            .split
            .dev
            .iter()
            .take(80)
            .map(|i| {
                run_joint_linking(
                    &fx.model, &fx.mbpp_t, &fx.mbpp_c, i, &fx.bench, &policy, &config,
                )
            })
            .collect();
        // The paper observes heavy overlap: joint abstention rate is far
        // below the sum of the two marginal rates.
        let t_abst = outcomes.iter().filter(|o| o.tables.abstained).count();
        let c_abst = outcomes.iter().filter(|o| o.columns.abstained).count();
        let joint = outcomes.iter().filter(|o| o.abstained()).count();
        assert!(joint <= t_abst + c_abst);
        if t_abst > 0 && c_abst > 0 {
            assert!(joint < t_abst + c_abst, "no overlap at all is implausible");
        }
    }

    #[test]
    fn full_pipeline_ex_close_to_golden() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 9);
        let generator = SqlGenModel::deepseek_7b("bird", 33);
        let instances: Vec<Instance> = fx.bench.split.dev.iter().take(150).cloned().collect();
        let (ex_rts, outcomes) = run_full_pipeline(
            &fx.bench,
            &instances,
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &oracle,
            &generator,
            &RtsConfig::default(),
        );
        let ex_golden = measure_ex(&fx.bench, &instances, &generator, &SchemaSource::Golden);
        let ex_full = measure_ex(&fx.bench, &instances, &generator, &SchemaSource::Full);
        // Table 7 ordering: golden ≥ RTS > full.
        assert!(
            ex_golden + 1e-9 >= ex_rts - 0.05,
            "golden {ex_golden} vs rts {ex_rts}"
        );
        assert!(
            ex_rts >= ex_full,
            "rts {ex_rts} must not lose to full-schema {ex_full}"
        );
        assert!(
            outcomes.iter().all(|o| !o.abstained()),
            "human policy resolves everything"
        );
    }

    #[test]
    fn provided_schema_drops_orphan_columns() {
        let outcome = JointOutcome {
            tables: RtsOutcome {
                abstained: false,
                predicted: vec!["races".into()],
                correct: true,
                would_be_correct: true,
                n_interventions: 0,
                n_flags: 0,
            },
            columns: RtsOutcome {
                abstained: false,
                predicted: vec!["races.name".into(), "lapTimes.time".into()],
                correct: false,
                would_be_correct: false,
                n_interventions: 0,
                n_flags: 0,
            },
        };
        let schema = outcome.provided_schema();
        assert_eq!(schema.tables, vec!["races".to_string()]);
        // lapTimes.time is orphaned (its table was not linked).
        assert_eq!(
            schema.columns,
            vec![("races".to_string(), "name".to_string())]
        );
    }
}
