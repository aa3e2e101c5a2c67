//! Emit `BENCH_rts.json`: wall-time per pipeline stage (trace_gen,
//! linking, monitoring, traceback, sqlgen, execution) so every PR
//! leaves a comparable performance record.
//!
//! ```text
//! RTS_SCALE=0.05 cargo run --release -p rts-bench --bin perf
//! ```
//!
//! Scale defaults to 0.05 (a few hundred instances) — enough signal for
//! a trajectory point without paper-scale runtime. `RTS_THREADS=1`
//! forces the serial runtime for A/B comparisons. The record stamps the
//! synthesis corpus tag so the gate can refuse cross-corpus comparisons.
//!
//! Stage semantics: the monitored stream is generated **once**
//! (`trace_gen`) and then *shared* — `linking` times
//! `run_rts_linking_from` consuming that round-0 trace through the
//! precompiled `LinkContext`s (the production dataflow). The cost of
//! the runtime when it must regenerate internally is kept as
//! `linking_regen_baseline`.

use rts_bench::report::PerfReport;
use rts_core::abstention::{
    run_rts_linking_from, run_rts_linking_in, LinkScratch, MitigationPolicy, Round0, RtsConfig,
};
use rts_core::bpp::{BppScratch, Mbpp, MbppConfig, ProbeConfig};
use rts_core::branching::BranchDataset;
use rts_core::context::{implicated_elements_reference, LinkContexts};
use rts_core::par::{par_map, par_map_with, thread_count};
use rts_core::sqlgen::{ProvidedSchema, SqlGenModel};
use simlm::{GenMode, GenerationTrace, LinkTarget, SchemaLinker, SynthScratch, Vocab};
use std::time::Instant;
use tinynn::rng::SplitMix64;

fn main() {
    let scale = std::env::var("RTS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let seed = rts_bench::env_seed();
    let effective = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut perf = PerfReport::new(scale, seed, thread_count(), effective);

    let t0 = Instant::now();
    let bench = benchgen::BenchmarkProfile::bird_like()
        .scaled(scale)
        .generate(seed);
    let linker = SchemaLinker::new("bird", seed ^ 0x11CC);
    perf.corpus = Some(linker.corpus().tag().to_string());
    let probe_cfg = MbppConfig {
        probe: ProbeConfig {
            epochs: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let ds_t = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Tables, 400);
    let ds_c = BranchDataset::build(&linker, &bench.split.train, LinkTarget::Columns, 400);
    let mbpp_t = Mbpp::train(&ds_t, &probe_cfg);
    let mbpp_c = Mbpp::train(&ds_c, &probe_cfg);
    eprintln!(
        "[perf] setup (benchmark + mBPPs) in {:.1}s",
        t0.elapsed().as_secs_f64()
    );

    let instances = &bench.split.dev;
    let n = instances.len();
    let config = RtsConfig { seed };

    // Stage 0 — context_build: precompile every database's LinkContext
    // (pre-interned vocab + constrained-decoding trie, both targets).
    // Paid once per benchmark; recorded amortised per instance.
    let t0 = Instant::now();
    let contexts = LinkContexts::build(&bench);
    perf.push_stage("context_build", t0.elapsed(), n);

    // Stage 1 — trace_gen: free-running schema-linking generation for
    // both stages of the joint process (tables, then columns), lazily
    // synthesizing only the hidden layers the monitors read — the
    // production monitored path. The traces (and their generation
    // vocabularies) are kept: the linking stage consumes them instead
    // of regenerating.
    let layers_t = mbpp_t.layer_set();
    let layers_c = mbpp_c.layer_set();
    type Gen = (GenerationTrace, Vocab);
    let t0 = Instant::now();
    let traces: Vec<(Gen, Gen)> = par_map_with(instances, SynthScratch::default, |synth, inst| {
        let mut vocab = Vocab::new();
        let t = linker.generate_with_layers(
            inst,
            &mut vocab,
            LinkTarget::Tables,
            GenMode::Free,
            &layers_t,
            synth,
        );
        let mut v2 = Vocab::new();
        let c = linker.generate_with_layers(
            inst,
            &mut v2,
            LinkTarget::Columns,
            GenMode::Free,
            &layers_c,
            synth,
        );
        ((t, vocab), (c, v2))
    });
    perf.push_stage("trace_gen", t0.elapsed(), n);

    // Diagnostic baseline: the eager full-stack generation every
    // consumer paid before lazy synthesis.
    let t0 = Instant::now();
    let traces_eager: Vec<(GenerationTrace, GenerationTrace)> = par_map(instances, |inst| {
        let mut vocab = Vocab::new();
        let t = linker.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
        let mut v2 = Vocab::new();
        let c = linker.generate(inst, &mut v2, LinkTarget::Columns, GenMode::Free);
        (t, c)
    });
    perf.push_stage("trace_gen_eager_baseline", t0.elapsed(), n);

    // Stage 2 — linking: the monitored-linking runtime downstream of
    // trace generation (abstain-only, both targets): monitoring, flag
    // handling, outcome accounting — consuming the round-0 stream
    // produced above through the shared contexts. What production pays
    // per instance on top of trace_gen.
    let zipped: Vec<(&benchgen::Instance, &(Gen, Gen))> =
        instances.iter().zip(traces.iter()).collect();
    let t0 = Instant::now();
    let outcomes: Vec<(bool, bool)> =
        par_map_with(&zipped, LinkScratch::default, |scratch, (inst, gens)| {
            let meta = bench.meta(&inst.db_name).expect("meta");
            let ((trace_t, vocab_t), (trace_c, vocab_c)) = gens;
            let t = run_rts_linking_from(
                &linker,
                &mbpp_t,
                inst,
                meta,
                contexts.get(&inst.db_name, LinkTarget::Tables),
                Round0 {
                    trace: trace_t,
                    vocab: vocab_t,
                },
                &MitigationPolicy::AbstainOnly,
                &config,
                scratch,
            );
            let c = run_rts_linking_from(
                &linker,
                &mbpp_c,
                inst,
                meta,
                contexts.get(&inst.db_name, LinkTarget::Columns),
                Round0 {
                    trace: trace_c,
                    vocab: vocab_c,
                },
                &MitigationPolicy::AbstainOnly,
                &config,
                scratch,
            );
            (t.abstained, c.abstained)
        });
    perf.push_stage("linking", t0.elapsed(), n);
    let abstained: usize = outcomes.iter().map(|&(t, c)| t as usize + c as usize).sum();

    // Diagnostic: the same runtime when it generates round 0 itself
    // (context path, no pre-generated trace).
    let t0 = Instant::now();
    let outcomes_regen: Vec<(bool, bool)> =
        par_map_with(instances, LinkScratch::default, |scratch, inst| {
            let meta = bench.meta(&inst.db_name).expect("meta");
            let t = run_rts_linking_in(
                &linker,
                &mbpp_t,
                inst,
                meta,
                contexts.get(&inst.db_name, LinkTarget::Tables),
                &MitigationPolicy::AbstainOnly,
                &config,
                scratch,
            );
            let c = run_rts_linking_in(
                &linker,
                &mbpp_c,
                inst,
                meta,
                contexts.get(&inst.db_name, LinkTarget::Columns),
                &MitigationPolicy::AbstainOnly,
                &config,
                scratch,
            );
            (t.abstained, c.abstained)
        });
    perf.push_stage("linking_regen_baseline", t0.elapsed(), n);
    assert_eq!(outcomes, outcomes_regen, "from-trace vs regen disagreed");

    // Untimed warm-up pass over the freshly materialised traces so the
    // two timed monitoring variants both read warm memory (the first
    // reader otherwise pays every page fault).
    let _warm: usize = traces
        .iter()
        .map(|((t, _), (c, _))| {
            t.steps
                .iter()
                .chain(c.steps.iter())
                .map(|s| s.hidden.len())
                .sum::<usize>()
        })
        .sum();
    let mut warm_scratch = BppScratch::default();
    let mut warm_rng = SplitMix64::new(config.seed);
    let _ = mbpp_t.flag_trace_with_scratch(&traces[0].0 .0, &mut warm_rng, &mut warm_scratch);
    let _ = mbpp_t.flag_trace_per_token(&traces[0].0 .0, &mut warm_rng);

    // Stage 3 — monitoring: batched mBPP flagging of both traces (and
    // the per-token baseline as a diagnostic trajectory row). The
    // traces carry only the selected layers; flags must match the
    // eager full-stack traces exactly (asserted below).
    let t0 = Instant::now();
    let flags: Vec<usize> =
        par_map_with(&traces, BppScratch::default, |scratch, ((t, _), (c, _))| {
            let mut rng = SplitMix64::new(config.seed);
            let nt = mbpp_t.flag_trace_with_scratch(t, &mut rng, scratch);
            let nc = mbpp_c.flag_trace_with_scratch(c, &mut rng, scratch);
            nt.iter().chain(nc.iter()).filter(|&&f| f).count()
        });
    perf.push_stage("monitoring", t0.elapsed(), n);
    let t0 = Instant::now();
    let flags_pt: Vec<usize> = par_map(&traces, |((t, _), (c, _))| {
        let mut rng = SplitMix64::new(config.seed);
        let nt = mbpp_t.flag_trace_per_token(t, &mut rng);
        let nc = mbpp_c.flag_trace_per_token(c, &mut rng);
        nt.iter().chain(nc.iter()).filter(|&&f| f).count()
    });
    perf.push_stage("monitoring_per_token_baseline", t0.elapsed(), n);
    assert_eq!(
        flags, flags_pt,
        "batched and per-token monitoring disagreed"
    );
    let flags_eager: Vec<usize> =
        par_map_with(&traces_eager, BppScratch::default, |scratch, (t, c)| {
            let mut rng = SplitMix64::new(config.seed);
            let nt = mbpp_t.flag_trace_with_scratch(t, &mut rng, scratch);
            let nc = mbpp_c.flag_trace_with_scratch(c, &mut rng, scratch);
            nt.iter().chain(nc.iter()).filter(|&&f| f).count()
        });
    assert_eq!(
        flags, flags_eager,
        "lazy and eager trace monitoring disagreed"
    );

    // Stage 4 — traceback: Algorithm 2 on every mBPP-flagged position,
    // through the precompiled context tries vs the clone-per-flag
    // rebuild the runtime used to pay. Flag positions are collected
    // untimed; each set is traced `TRACEBACK_REPS` times so the stage
    // is long enough to measure stably (per-instance time is per single
    // trace back).
    const TRACEBACK_REPS: usize = 64;
    type Flagged<'a> = (
        &'a benchgen::Instance,
        &'a GenerationTrace,
        &'a Vocab,
        LinkTarget,
        usize,
    );
    let mut flagged: Vec<Flagged<'_>> = Vec::new();
    for (inst, ((trace_t, vocab_t), (trace_c, vocab_c))) in instances.iter().zip(traces.iter()) {
        let mut rng = SplitMix64::new(config.seed);
        for (mbpp, trace, vocab, target) in [
            (&mbpp_t, trace_t, vocab_t, LinkTarget::Tables),
            (&mbpp_c, trace_c, vocab_c, LinkTarget::Columns),
        ] {
            let f = mbpp.flag_trace_with_scratch(trace, &mut rng, &mut warm_scratch);
            for pos in f.iter().enumerate().filter(|(_, &x)| x).map(|(p, _)| p) {
                flagged.push((inst, trace, vocab, target, pos));
            }
        }
    }
    let n_flagged = flagged.len().max(1);
    let t0 = Instant::now();
    let mut implicated_cached: Vec<Vec<String>> = Vec::new();
    for _ in 0..TRACEBACK_REPS {
        implicated_cached = par_map(&flagged, |(inst, trace, vocab, target, pos)| {
            contexts
                .get(&inst.db_name, *target)
                .implicated_elements(vocab, &trace.tokens, *pos)
        });
    }
    perf.push_stage("traceback", t0.elapsed(), n_flagged * TRACEBACK_REPS);
    let t0 = Instant::now();
    let mut implicated_rebuilt: Vec<Vec<String>> = Vec::new();
    for _ in 0..TRACEBACK_REPS {
        implicated_rebuilt = par_map(&flagged, |(inst, trace, vocab, target, pos)| {
            let meta = bench.meta(&inst.db_name).expect("meta");
            implicated_elements_reference(vocab, meta, *target, &trace.tokens, *pos)
        });
    }
    perf.push_stage(
        "traceback_rebuild_baseline",
        t0.elapsed(),
        n_flagged * TRACEBACK_REPS,
    );
    assert_eq!(
        implicated_cached, implicated_rebuilt,
        "cached-trie and rebuild-per-flag trace back disagreed"
    );

    // Stage 5 — sqlgen: SQL generation under the full schema.
    let generator = SqlGenModel::deepseek_7b("bird", seed ^ 0xEE);
    let t0 = Instant::now();
    let stmts: Vec<nanosql::ast::SelectStmt> = par_map(instances, |inst| {
        let meta = bench.meta(&inst.db_name).expect("meta");
        generator.generate(inst, &ProvidedSchema::full(meta), meta)
    });
    perf.push_stage("sqlgen", t0.elapsed(), n);

    // Stage 6 — execution: run the generated SQL for real.
    let t0 = Instant::now();
    let executed = par_map(
        &instances.iter().zip(&stmts).collect::<Vec<_>>(),
        |(inst, stmt)| {
            let db = bench.database(&inst.db_name).expect("db");
            nanosql::exec::execute(db, stmt).is_ok()
        },
    );
    perf.push_stage("execution", t0.elapsed(), n);
    assert!(executed.iter().all(|&ok| ok), "generated SQL must execute");

    let trace_speedup = perf
        .stage_ms("trace_gen_eager_baseline")
        .zip(perf.stage_ms("trace_gen"))
        .map(|(eager, lazy)| eager / lazy)
        .unwrap_or(f64::NAN);
    perf.note(format!(
        "trace_gen lazy-vs-eager-full-stack speedup: {trace_speedup:.2}x \
         ({} of {} layers synthesized for tables, {} for columns)",
        layers_t.count(linker.n_layers),
        linker.n_layers,
        layers_c.count(linker.n_layers),
    ));
    let traceback_speedup = perf
        .stage_ms("traceback_rebuild_baseline")
        .zip(perf.stage_ms("traceback"))
        .map(|(rebuild, cached)| rebuild / cached)
        .unwrap_or(f64::NAN);
    perf.note(format!(
        "traceback cached-trie-vs-rebuild-per-flag speedup: {traceback_speedup:.2}x \
         over {} flagged positions",
        flagged.len()
    ));
    let speedup = perf
        .stage_ms("monitoring_per_token_baseline")
        .zip(perf.stage_ms("monitoring"))
        .map(|(pt, b)| pt / b)
        .unwrap_or(f64::NAN);
    perf.note(format!(
        "monitoring batched-vs-per-token speedup: {speedup:.2}x"
    ));
    perf.note(format!(
        "total flags raised: {} over {n} instances",
        flags.iter().sum::<usize>()
    ));
    perf.note(format!(
        "monitored linking (abstain-only) abstained on {abstained} of {} runs",
        2 * n
    ));
    perf.note(
        "'linking' times run_rts_linking_from consuming the trace_gen stream through \
         shared LinkContexts (the production dataflow — the stream is generated once, \
         the counterfactual is derived from it); 'linking_regen_baseline' is the same \
         runtime generating round 0 itself"
            .to_string(),
    );

    // Serving section — the rts-serve engine under a closed-loop joint
    // linking workload (concurrent clients, sessions suspending on
    // human feedback, lazy context cache). Latencies here are
    // wall-clock under concurrency, not per-instance stage times; the
    // perf gate gates this section on p99 (its own generous tolerance)
    // and the cache hit rate, and REFUSES records whose workload shape
    // (clients/queue/deadline/tenancy knobs below) differs from the
    // committed baseline's — change them only together with a
    // regenerated BENCH_rts.json.
    let workload = rts_bench::serving::WorkloadConfig {
        clients: 4,
        rounds: 2,
        // Single-tenant, no quotas/timeouts: the recorded latencies
        // stay comparable across the PR 5 boundary (the multi-tenant
        // machinery is exercised by serve_driver's CI smoke leg).
        tenants: 1,
        stall_tenant: None,
        serve: rts_serve::ServeConfig {
            queue_capacity: 16,
            cache_capacity: 8,
            rts: RtsConfig { seed },
            ..rts_serve::ServeConfig::default()
        },
        oracle: rts_core::human::HumanOracle::new(
            rts_core::human::Expertise::Expert,
            seed ^ 0x0DDE,
        ),
    };
    let served = rts_bench::serving::run_workload(
        &linker,
        &mbpp_t,
        &mbpp_c,
        &bench.metas,
        instances,
        &workload,
    );
    assert_eq!(
        served.stats.completed as usize, served.n_requests,
        "serving workload must complete every request"
    );
    perf.serving = Some(rts_bench::serving::serving_record(&served, &workload));

    // Open-loop section — the sharded engine under a seeded Poisson
    // arrival sweep (see rts_bench::openloop). Every knob is pinned so
    // the record's workload shape stays comparable across PRs; the
    // perf gate holds peak throughput and knee p99, and REFUSES
    // records whose shape differs from the committed baseline's.
    // Workers are explicit (not RTS_THREADS) for the same reason.
    let open_loop = rts_bench::openloop::OpenLoopConfig {
        users: 200,
        tenants: 4,
        zipf_s: 1.1,
        requests_per_point: 60,
        rates_rps: vec![400.0, 1200.0, 3600.0],
        collectors: 4,
        serve: rts_serve::ServeConfig {
            workers: 2,
            shards: 2,
            queue_capacity: 32,
            cache_capacity: 8,
            rts: RtsConfig { seed },
            ..rts_serve::ServeConfig::default()
        },
        oracle: rts_core::human::HumanOracle::new(
            rts_core::human::Expertise::Expert,
            seed ^ 0x0DDE,
        ),
        seed,
    };
    let sweep = rts_bench::openloop::run_sweep(
        &linker,
        &mbpp_t,
        &mbpp_c,
        &bench.metas,
        instances,
        &open_loop,
    );
    perf.open_loop = Some(sweep.record);

    print!("{}", perf.render());
    perf.save_bench_json(std::path::Path::new("."))
        .expect("write BENCH_rts.json");
    eprintln!("[perf] wrote BENCH_rts.json");
}
