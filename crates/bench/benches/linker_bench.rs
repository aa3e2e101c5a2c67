//! Criterion benches for the transparent-box linker simulator and the
//! probe stack: generation throughput (hidden states dominate) and
//! per-token mBPP flagging latency — the runtime overhead RTS adds to a
//! deployed pipeline.

use benchgen::BenchmarkProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use simlm::{GenMode, LayerSet, LinkTarget, SchemaLinker, SynthScratch, Vocab};
use std::hint::black_box;
use tinynn::rng::SplitMix64;

fn setup() -> (benchgen::Benchmark, SchemaLinker) {
    let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(21);
    let linker = SchemaLinker::new("bird", 3);
    (bench, linker)
}

fn bench_generation(c: &mut Criterion) {
    let (bench, linker) = setup();
    let inst = &bench.split.dev[0];
    let mut group = c.benchmark_group("simlm/generate");
    group.bench_function("tables_free", |b| {
        b.iter(|| {
            let mut vocab = Vocab::new();
            black_box(linker.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free))
        })
    });
    group.bench_function("columns_teacher_forced", |b| {
        b.iter(|| {
            let mut vocab = Vocab::new();
            black_box(linker.generate(
                inst,
                &mut vocab,
                LinkTarget::Columns,
                GenMode::TeacherForced,
            ))
        })
    });
    group.finish();
}

/// Decoding alone: free generation of the first 16 dev instances with
/// no hidden layer synthesized (`LayerSet::none()`), so the time is the
/// decode path's — decisions, tokenization into a fresh `Vocab`, step
/// observables — without the hidden-state synthesis `generate_fast`
/// includes.
fn bench_decode_only(c: &mut Criterion) {
    let (bench, linker) = setup();
    let instances = &bench.split.dev[..bench.split.dev.len().min(16)];
    let none = LayerSet::none();
    let mut group = c.benchmark_group("simlm/decode_only");
    for (name, target) in [
        ("tables_x16", LinkTarget::Tables),
        ("columns_x16", LinkTarget::Columns),
    ] {
        let mut scratch = SynthScratch::default();
        group.bench_function(name, |b| {
            b.iter(|| {
                for inst in instances {
                    let mut vocab = Vocab::new();
                    black_box(linker.generate_with_layers(
                        inst,
                        &mut vocab,
                        target,
                        GenMode::Free,
                        &none,
                        &mut scratch,
                    ));
                }
            })
        });
    }
    group.finish();
}

/// The gaussian samplers under trace-generation-shaped load: the
/// sequential `next_gaussian` (two uniforms per variate, `sin` twin
/// discarded — the sampler the corpus-shared decision/softmax streams
/// and probe training use), the paired libm `fill_gaussian` (both
/// Box–Muller variates kept, half the uniform draws and `ln`/`sqrt`
/// evaluations) that defines the hidden-state streams, and
/// `fill_gaussian_fast`, the same draws through in-tree `ln`/`sincos`
/// that synthesis runs (within `GAUSS_ERR` of `fill_gaussian`).
fn bench_gaussian_samplers(c: &mut Criterion) {
    const DIM: usize = 64; // two shared-content vectors of hidden_dim 32
    let mut group = c.benchmark_group("tinynn/gaussian_x64");
    group.bench_function("sequential_next_gaussian", |b| {
        let mut rng = SplitMix64::new(7);
        let mut buf = [0.0f64; DIM];
        b.iter(|| {
            for x in buf.iter_mut() {
                *x = rng.next_gaussian();
            }
            black_box(buf[DIM - 1])
        })
    });
    group.bench_function("paired_fill_gaussian", |b| {
        let mut rng = SplitMix64::new(7);
        let mut buf = [0.0f64; DIM];
        b.iter(|| {
            rng.fill_gaussian(&mut buf);
            black_box(buf[DIM - 1])
        })
    });
    group.bench_function("fast_fill_gaussian", |b| {
        let mut rng = SplitMix64::new(7);
        let mut buf = [0.0f64; DIM];
        b.iter(|| {
            rng.fill_gaussian_fast(&mut buf);
            black_box(buf[DIM - 1])
        })
    });
    group.finish();
}

/// Full-stack synthesis for one free-running trace: `generate` (which
/// synthesizes through the fast guarded path, plus decisions, tokens
/// and observables) vs the libm oracle `hidden_states_reference` for
/// the same steps alone. Same stacks, bit for bit; `generate`'s extra
/// work makes the ratio understate the synthesis gain.
fn bench_synthesis_paths(c: &mut Criterion) {
    let (bench, linker) = setup();
    let inst = &bench.split.dev[0];
    let mut group = c.benchmark_group("trace_gen/synthesis_paths");
    group.bench_function("generate_fast", |b| {
        b.iter(|| {
            let mut vocab = Vocab::new();
            black_box(linker.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free))
        })
    });
    let trace = linker.generate(inst, &mut Vocab::new(), LinkTarget::Tables, GenMode::Free);
    let all = LayerSet::all();
    group.bench_function("libm_reference_stacks", |b| {
        b.iter(|| {
            for (pos, step) in trace.steps.iter().enumerate() {
                black_box(linker.hidden_states_reference(inst, pos, step.token, step.s(), &all));
            }
        })
    });
    group.finish();
}

fn bench_branch_dataset(c: &mut Criterion) {
    let (bench, linker) = setup();
    c.bench_function("rts/branch_dataset_40_instances", |b| {
        b.iter(|| {
            black_box(BranchDataset::build(
                &linker,
                &bench.split.train,
                LinkTarget::Tables,
                40,
            ))
        })
    });
}

fn bench_probe_training(c: &mut Criterion) {
    let (bench, linker) = setup();
    let ds = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 150);
    c.bench_function("rts/sbpp_train_single_layer", |b| {
        b.iter(|| {
            black_box(rts_core::bpp::Sbpp::train(
                &ds,
                20,
                0.1,
                &ProbeConfig {
                    epochs: 5,
                    ..ProbeConfig::default()
                },
            ))
        })
    });
}

fn bench_flagging(c: &mut Criterion) {
    let (bench, linker) = setup();
    let ds = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 150);
    let mbpp = Mbpp::train(
        &ds,
        &MbppConfig {
            probe: ProbeConfig {
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let inst = &bench.split.dev[0];
    let mut vocab = Vocab::new();
    let trace = linker.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
    c.bench_function("rts/mbpp_flag_trace", |b| {
        let mut rng = SplitMix64::new(17);
        b.iter(|| black_box(mbpp.flag_trace(&trace, &mut rng)))
    });
}

criterion_group!(
    benches,
    bench_generation,
    bench_decode_only,
    bench_gaussian_samplers,
    bench_synthesis_paths,
    bench_branch_dataset,
    bench_probe_training,
    bench_flagging
);
criterion_main!(benches);
