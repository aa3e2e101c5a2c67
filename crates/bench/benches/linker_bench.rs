//! Criterion benches for the transparent-box linker simulator and the
//! probe stack: generation throughput (hidden states dominate) and
//! per-token mBPP flagging latency — the runtime overhead RTS adds to a
//! deployed pipeline.

use benchgen::BenchmarkProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use rts_core::bpp::{Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use simlm::{GenMode, LinkTarget, SchemaLinker, Vocab};
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

/// The gaussian samplers under trace-generation-shaped load: the
/// sequential `next_gaussian` (two uniforms per variate, `sin` twin
/// discarded — the sampler the corpus-shared decision/softmax streams
/// and probe training use) vs the paired `fill_gaussian` (both
/// Box–Muller variates kept, half the uniform draws and `ln`/`sqrt`
/// evaluations) the hidden-state synthesis streams draw through. The
/// gap is the per-row headroom the v2 corpus banked.
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
    group.finish();
}

/// Identical free-running trace generation through the chunked
/// synthesis path (`fill_gaussian` rows) vs the sequential parity
/// reference. Same instance, same streams, same output — only the
/// inner loop shape differs.
fn bench_synthesis_paths(c: &mut Criterion) {
    let (bench, linker) = setup();
    let inst = &bench.split.dev[0];
    let mut group = c.benchmark_group("trace_gen/synthesis_paths");
    group.bench_function("v2_chunked", |b| {
        b.iter(|| {
            let mut vocab = Vocab::new();
            black_box(linker.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free))
        })
    });
    // The same streams drawn one scalar at a time (the parity
    // reference path): isolates the chunking/batched-trig gains.
    let linker_v2_seq = SchemaLinker::new("bird", 3).with_v2_sequential_reference();
    group.bench_function("v2_sequential_reference", |b| {
        b.iter(|| {
            let mut vocab = Vocab::new();
            black_box(linker_v2_seq.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free))
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
    bench_gaussian_samplers,
    bench_synthesis_paths,
    bench_branch_dataset,
    bench_probe_training,
    bench_flagging
);
criterion_main!(benches);
