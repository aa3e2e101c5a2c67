//! Criterion benches for the end-to-end RTS runtime: monitored linking
//! per instance under each mitigation policy, and the downstream SQL
//! generation + execution step.

use benchgen::BenchmarkProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use rts_core::abstention::{
    run_rts_linking, run_rts_linking_from, run_rts_linking_in, LinkScratch, MitigationPolicy,
    Round0, RtsConfig,
};
use rts_core::bpp::{BppScratch, Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::{implicated_elements_reference, LinkContext};
use rts_core::human::{Expertise, HumanOracle};
use rts_core::pipeline::{measure_ex, run_full_pipeline, SchemaSource};
use rts_core::sqlgen::{ProvidedSchema, SqlGenModel};
use rts_core::surrogate::SurrogateModel;
use simlm::vocab::{TOK_COMMA, TOK_END};
use simlm::{GenMode, LayerSet, LinkTarget, SchemaLinker, SynthScratch, Vocab};
use std::hint::black_box;
use tinynn::rng::SplitMix64;

struct Fx {
    bench: benchgen::Benchmark,
    linker: SchemaLinker,
    mbpp: Mbpp,
    surrogate: SurrogateModel,
}

fn setup() -> Fx {
    let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(33);
    let linker = SchemaLinker::new("bird", 3);
    let ds = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 150);
    let mbpp = Mbpp::train(
        &ds,
        &MbppConfig {
            probe: ProbeConfig {
                epochs: 6,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let surrogate = SurrogateModel::train(&bench, 7);
    Fx {
        bench,
        linker,
        mbpp,
        surrogate,
    }
}

fn bench_policies(c: &mut Criterion) {
    let fx = setup();
    let oracle = HumanOracle::new(Expertise::Expert, 5);
    let config = RtsConfig::default();
    let inst = &fx.bench.split.dev[0];
    let meta = fx.bench.meta(&inst.db_name).unwrap();
    let ctx = LinkContext::new(meta, LinkTarget::Tables);
    let mut group = c.benchmark_group("rts/linking_per_instance");
    group.bench_function("abstain_only", |b| {
        b.iter(|| {
            black_box(run_rts_linking(
                &fx.linker,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                &MitigationPolicy::AbstainOnly,
                &config,
            ))
        })
    });
    group.bench_function("abstain_only_shared_ctx", |b| {
        let mut scratch = LinkScratch::default();
        b.iter(|| {
            black_box(run_rts_linking_in(
                &fx.linker,
                &fx.mbpp,
                inst,
                meta,
                &ctx,
                &MitigationPolicy::AbstainOnly,
                &config,
                &mut scratch,
            ))
        })
    });
    group.bench_function("abstain_only_from_trace", |b| {
        let mut scratch = LinkScratch::default();
        let mut vocab = Vocab::new();
        let trace = fx.linker.generate_with_layers(
            inst,
            &mut vocab,
            LinkTarget::Tables,
            GenMode::Free,
            &fx.mbpp.layer_set(),
            &mut scratch.synth,
        );
        b.iter(|| {
            black_box(run_rts_linking_from(
                &fx.linker,
                &fx.mbpp,
                inst,
                meta,
                &ctx,
                Round0 {
                    trace: &trace,
                    vocab: &vocab,
                },
                &MitigationPolicy::AbstainOnly,
                &config,
                &mut scratch,
            ))
        })
    });
    group.bench_function("surrogate", |b| {
        b.iter(|| {
            black_box(run_rts_linking(
                &fx.linker,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                &MitigationPolicy::Surrogate(&fx.surrogate),
                &config,
            ))
        })
    });
    group.bench_function("human", |b| {
        b.iter(|| {
            black_box(run_rts_linking(
                &fx.linker,
                &fx.mbpp,
                inst,
                meta,
                LinkTarget::Tables,
                &MitigationPolicy::Human(&oracle),
                &config,
            ))
        })
    });
    group.finish();
}

/// Trace generation by selected-layer count: the eager full stack
/// (pre-lazy behaviour) vs lazy synthesis of what the monitor actually
/// reads — the mBPP's k selected layers, a single layer, or none (the
/// unmonitored counterfactual the RTS runtime uses for TAR/FAR
/// accounting). Hidden-state synthesis dominates generation, so time
/// should fall roughly with the synthesized-layer count.
fn bench_trace_gen(c: &mut Criterion) {
    let fx = setup();
    let inst = &fx.bench.split.dev[0];
    let k_layers = fx.mbpp.layer_set();
    let top_layer = LayerSet::select([fx.mbpp.sbpps[fx.mbpp.selected[0]].layer]);
    let mut group = c.benchmark_group("rts/trace_gen");
    for (target, tag) in [
        (LinkTarget::Tables, "tables"),
        (LinkTarget::Columns, "columns"),
    ] {
        group.bench_function(format!("{tag}_eager_full_stack"), |b| {
            b.iter(|| {
                let mut vocab = Vocab::new();
                black_box(fx.linker.generate(inst, &mut vocab, target, GenMode::Free))
            })
        });
        for (layers, label) in [
            (
                &k_layers,
                format!("{tag}_lazy_k{}", k_layers.count(fx.linker.n_layers)),
            ),
            (&top_layer, format!("{tag}_lazy_k1")),
            (&LayerSet::none(), format!("{tag}_lazy_none")),
        ] {
            group.bench_function(label, |b| {
                let mut scratch = SynthScratch::default();
                b.iter(|| {
                    let mut vocab = Vocab::new();
                    black_box(fx.linker.generate_with_layers(
                        inst,
                        &mut vocab,
                        target,
                        GenMode::Free,
                        layers,
                        &mut scratch,
                    ))
                })
            });
        }
    }
    group.finish();
}

/// Algorithm 2 per flag: the shared `LinkContext` vs the
/// clone-the-vocab-and-rebuild path every flag used to pay; the context
/// constructor, which stores the target only; and a trace back that
/// completes a truncated stream through the trie, building the
/// candidate vocabulary and trie (never paid on a generated round,
/// which ends in `;`).
fn bench_traceback(c: &mut Criterion) {
    let fx = setup();
    // A flagged free generation: take the first dev instance whose
    // stream carries a branch token.
    let (inst, trace, vocab) = fx
        .bench
        .split
        .dev
        .iter()
        .find_map(|inst| {
            let mut vocab = Vocab::new();
            let trace = fx
                .linker
                .generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            trace
                .steps
                .iter()
                .any(|s| s.is_branch)
                .then_some((inst, trace, vocab))
        })
        .expect("a branching dev generation exists");
    let branch_pos = trace.steps.iter().position(|s| s.is_branch).unwrap();
    let meta = fx.bench.meta(&inst.db_name).unwrap();
    let ctx = LinkContext::new(meta, LinkTarget::Tables);
    let mut group = c.benchmark_group("rts/traceback");
    group.bench_function("shared_context", |b| {
        b.iter(|| black_box(ctx.implicated_elements(meta, &vocab, &trace.tokens, branch_pos)))
    });
    group.bench_function("rebuild_per_flag", |b| {
        b.iter(|| {
            black_box(implicated_elements_reference(
                &vocab,
                meta,
                LinkTarget::Tables,
                &trace.tokens,
                branch_pos,
            ))
        })
    });
    group.bench_function("context_build_tables", |b| {
        b.iter(|| black_box(LinkContext::new(meta, LinkTarget::Tables)))
    });
    group.bench_function("context_build_columns", |b| {
        b.iter(|| black_box(LinkContext::new(meta, LinkTarget::Columns)))
    });
    for (target, tag) in [
        (LinkTarget::Tables, "tables"),
        (LinkTarget::Columns, "columns"),
    ] {
        // The stream cut just before its first `,` or `;`, flagged on
        // its last token: the trace back ends mid-element and completes
        // through the trie, which it builds from `meta`.
        let mut vocab = Vocab::new();
        let trace = fx.linker.generate(inst, &mut vocab, target, GenMode::Free);
        let seps = [vocab.get(TOK_COMMA), vocab.get(TOK_END)];
        let cut = trace
            .tokens
            .iter()
            .position(|&t| seps.contains(&Some(t)))
            .filter(|&cut| cut > 0)
            .expect("a generated stream has a first element");
        let truncated = &trace.tokens[..cut];
        let ctx = LinkContext::new(meta, target);
        group.bench_function(format!("context_completion_{tag}"), |b| {
            b.iter(|| black_box(ctx.implicated_elements(meta, &vocab, truncated, cut - 1)))
        });
    }
    group.finish();
}

/// The monitored-generation hot path in isolation: per-token baseline
/// vs the batched scoring path over single traces (tables: short
/// streams; columns: the longer streams that dominate per-instance
/// monitoring cost).
fn bench_monitoring(c: &mut Criterion) {
    let fx = setup();
    let inst = &fx.bench.split.dev[0];
    let mut group = c.benchmark_group("rts/flag_trace");
    for (target, tag) in [
        (LinkTarget::Tables, "tables"),
        (LinkTarget::Columns, "columns"),
    ] {
        let mut vocab = Vocab::new();
        let trace = fx
            .linker
            .generate(inst, &mut vocab, target, GenMode::TeacherForced);
        group.bench_function(format!("{tag}_per_token"), |b| {
            let mut rng = SplitMix64::new(7);
            b.iter(|| black_box(fx.mbpp.flag_trace_per_token(&trace, &mut rng)))
        });
        group.bench_function(format!("{tag}_batched"), |b| {
            let mut rng = SplitMix64::new(7);
            let mut scratch = BppScratch::default();
            b.iter(|| {
                black_box(
                    fx.mbpp
                        .flag_trace_with_scratch(&trace, &mut rng, &mut scratch),
                )
            })
        });
    }
    group.finish();
}

/// Monitored linking over 32 instances: the serial instance loop vs
/// the instance-parallel fan-out, both with batched monitoring. The
/// per-token monitoring cost is measured on its own by
/// `rts/flag_trace/{tables,columns}_per_token`.
fn bench_monitored_linking(c: &mut Criterion) {
    let fx = setup();
    let instances: Vec<benchgen::Instance> = fx.bench.split.dev.iter().take(32).cloned().collect();
    let config = RtsConfig::default();
    let link = |inst: &benchgen::Instance| {
        let meta = fx.bench.meta(&inst.db_name).unwrap();
        run_rts_linking(
            &fx.linker,
            &fx.mbpp,
            inst,
            meta,
            LinkTarget::Tables,
            &MitigationPolicy::AbstainOnly,
            &config,
        )
    };
    let mut group = c.benchmark_group("rts/monitored_linking_per_instance_x32");
    group.bench_function("batched_serial", |b| {
        b.iter(|| black_box(instances.iter().map(link).collect::<Vec<_>>()))
    });
    group.bench_function("batched_parallel", |b| {
        b.iter(|| black_box(rts_core::par::par_map(&instances, link)))
    });
    group.finish();
}

/// Instance-parallel full pipeline (linking → SQL → EX) vs the
/// schema-source EX measurement alone.
fn bench_parallel_pipeline(c: &mut Criterion) {
    let fx = setup();
    // The joint pipeline monitors the column stream with its own probes.
    let ds_c = BranchDataset::build(&fx.linker, &fx.bench.split.train, LinkTarget::Columns, 150);
    let mbpp_c = Mbpp::train(
        &ds_c,
        &MbppConfig {
            probe: ProbeConfig {
                epochs: 6,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let oracle = HumanOracle::new(Expertise::Expert, 5);
    let generator = SqlGenModel::deepseek_7b("bird", 9);
    let config = RtsConfig::default();
    let instances: Vec<benchgen::Instance> = fx.bench.split.dev.iter().take(64).cloned().collect();
    let mut group = c.benchmark_group("rts/pipeline_64_instances");
    group.bench_function("full_pipeline_parallel", |b| {
        b.iter(|| {
            black_box(run_full_pipeline(
                &fx.bench, &instances, &fx.linker, &fx.mbpp, &mbpp_c, &oracle, &generator, &config,
            ))
        })
    });
    group.bench_function("measure_ex_golden", |b| {
        b.iter(|| {
            black_box(measure_ex(
                &fx.bench,
                &instances,
                &generator,
                &SchemaSource::Golden,
            ))
        })
    });
    group.finish();
}

fn bench_sqlgen(c: &mut Criterion) {
    let fx = setup();
    let generator = SqlGenModel::deepseek_7b("bird", 9);
    let inst = &fx.bench.split.dev[0];
    let meta = fx.bench.meta(&inst.db_name).unwrap();
    let db = fx.bench.database(&inst.db_name).unwrap();
    let schema = ProvidedSchema::full(meta);
    c.bench_function("rts/sqlgen_generate_and_execute", |b| {
        b.iter(|| {
            let stmt = generator.generate(inst, &schema, meta);
            black_box(nanosql::exec::execute(db, &stmt).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_trace_gen,
    bench_monitoring,
    bench_traceback,
    bench_monitored_linking,
    bench_policies,
    bench_parallel_pipeline,
    bench_sqlgen
);
criterion_main!(benches);
