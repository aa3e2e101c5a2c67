//! Property-based tests over the core invariants of the stack:
//! conformal set algebra and merge theorems, SQL parser round-trips,
//! result-comparison symmetry, and tokenizer inversion.

use proptest::prelude::*;
use rts::conformal::merge::majority_vote_inclusive;
use rts::conformal::{majority_vote, random_permutation_merge, LabelSet, SplitConformal};
use rts::nanosql::value::Value;
use rts::simlm::vocab::split_identifier;
use rts::tinynn::rng::SplitMix64;

fn label_set_strategy(n_labels: usize) -> impl Strategy<Value = LabelSet> {
    prop::collection::vec(prop::bool::ANY, n_labels).prop_map(|bits| {
        bits.iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect()
    })
}

proptest! {
    /// Theorem 2: |C_θ| ≤ (1/(nθ)) Σ|C_i| for arbitrary set families.
    #[test]
    fn theorem2_size_bound(
        sets in prop::collection::vec(label_set_strategy(6), 1..12),
        theta in 0.05f64..0.95,
    ) {
        let merged = majority_vote(&sets, theta, 6);
        let sum: usize = sets.iter().map(|s| s.len()).sum();
        prop_assert!(merged.len() as f64 <= sum as f64 / (sets.len() as f64 * theta) + 1e-9);
    }

    /// Theorem 3 (size part): C_π ⊆ inclusive majority vote at θ = ½.
    #[test]
    fn permutation_merge_never_exceeds_majority(
        sets in prop::collection::vec(label_set_strategy(4), 1..10),
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let merged = random_permutation_merge(&sets, 4, &mut rng);
        let vote = majority_vote_inclusive(&sets, 4);
        prop_assert!(merged.is_subset_of(vote), "{merged} ⊄ {vote}");
    }

    /// Monotonicity: a lower error level can only widen prediction sets.
    #[test]
    fn conformal_sets_grow_as_alpha_shrinks(
        scores in prop::collection::vec(0.0f64..1.0, 30..200),
        p1 in 0.0f64..1.0,
    ) {
        let tight = SplitConformal::from_scores(scores.clone(), 0.2);
        let loose = SplitConformal::from_scores(scores, 0.05);
        let set_tight = tight.predict_binary(p1);
        let set_loose = loose.predict_binary(p1);
        prop_assert!(set_tight.is_subset_of(set_loose));
    }

    /// The split-conformal threshold is one of the calibration scores
    /// (or +∞), never an interpolation artefact.
    #[test]
    fn conformal_threshold_is_order_statistic(
        scores in prop::collection::vec(0.0f64..1.0, 20..100),
        alpha in 0.05f64..0.4,
    ) {
        let cp = SplitConformal::from_scores(scores.clone(), alpha);
        let t = cp.threshold();
        prop_assert!(t.is_infinite() || scores.iter().any(|&s| (s - t).abs() < 1e-12));
    }

    /// Identifier tokenisation inverts by concatenation.
    #[test]
    fn tokenizer_roundtrips(ident in "[a-z][a-z0-9]{0,6}(_[a-z][a-z0-9]{0,6}){0,3}") {
        let pieces: Vec<&str> = split_identifier(&ident).collect();
        prop_assert_eq!(pieces.concat(), ident);
    }

    /// camelCase splitting also inverts.
    #[test]
    fn camel_tokenizer_roundtrips(
        head in "[a-z]{1,6}",
        tails in prop::collection::vec("[A-Z][a-z]{0,5}", 0..4),
    ) {
        let ident = format!("{head}{}", tails.concat());
        let pieces: Vec<&str> = split_identifier(&ident).collect();
        prop_assert_eq!(pieces.concat(), ident);
    }

    /// Value SQL comparison is antisymmetric where defined.
    #[test]
    fn value_cmp_antisymmetric(a in -1000i64..1000, b in -1000i64..1000) {
        let va = Value::Int(a);
        let vb = Value::Float(b as f64 + 0.5);
        if let (Some(x), Some(y)) = (va.sql_cmp(&vb), vb.sql_cmp(&va)) {
            prop_assert_eq!(x, y.reverse());
        }
    }

    /// Group keys respect equality of numerically equal values.
    #[test]
    fn group_key_unifies_numeric_twins(x in -100000i64..100000) {
        prop_assert_eq!(Value::Int(x).group_key(), Value::Float(x as f64).group_key());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parser/printer fixpoint on generated gold SQL: every statement the
    /// workload generator can emit survives print → parse → print.
    #[test]
    fn workload_sql_roundtrips(seed in any::<u64>()) {
        let bench = rts::benchgen::BenchmarkProfile::spider_like()
            .scaled(0.01)
            .generate(seed % 1000);
        for inst in bench.split.dev.iter().take(10) {
            let text = inst.gold_sql.to_string();
            let reparsed = rts::nanosql::parser::parse(&text).expect("parse");
            prop_assert_eq!(&reparsed, &inst.gold_sql);
            prop_assert_eq!(reparsed.to_string(), text);
        }
    }
}

// ---------------------------------------------------------------------
// Batched-monitoring and parallel-pipeline parity.
//
// The batched mBPP path (`flag_trace`) and the instance-parallel
// pipeline must be *exactly* equivalent to their per-token / serial
// references — same flags, same RNG stream, same outcomes, same EX.
// Fixtures are trained once (probe training dominates) and shared.

mod parity {
    use super::*;
    use rts::benchgen::{Benchmark, BenchmarkProfile, Instance};
    use rts::core::abstention::{
        run_rts_linking_from, run_rts_linking_in, run_rts_linking_monolithic, LinkScratch,
        MitigationPolicy, Round0, RtsConfig,
    };
    use rts::core::bpp::{Mbpp, MbppConfig, ProbeConfig};
    use rts::core::branching::BranchDataset;
    use rts::core::context::{implicated_elements_reference, LinkContexts};
    use rts::core::human::{Expertise, HumanOracle};
    use rts::core::pipeline::{run_full_pipeline, run_joint_linking, JointOutcome};
    use rts::core::session::{
        drive_session, resolve_flag, CtxHandle, LinkSession, SessionCheckpoint, SessionState,
    };
    use rts::core::sqlgen::SqlGenModel;
    use rts::core::traceback::{
        column_trie, column_trie_in, table_trie, table_trie_in, trace_back, trace_back_reference,
        trace_back_with,
    };
    use rts::serve::{drive_closed_loop, FaultPlan, ServeConfig, ServeEngine, ServeOutcome};
    use rts::simlm::{
        CorpusVersion, GenMode, LayerSet, LinkTarget, SchemaLinker, SynthScratch, Vocab,
    };
    use std::sync::OnceLock;

    struct Fx {
        bench: Benchmark,
        model: SchemaLinker,
        mbpp_t: Mbpp,
        mbpp_c: Mbpp,
        contexts: LinkContexts,
    }

    fn fixture() -> &'static Fx {
        static FX: OnceLock<Fx> = OnceLock::new();
        FX.get_or_init(|| {
            let bench = BenchmarkProfile::bird_like().scaled(0.04).generate(77);
            let model = SchemaLinker::new("bird", 5);
            let cfg = MbppConfig {
                probe: ProbeConfig {
                    epochs: 6,
                    ..Default::default()
                },
                ..Default::default()
            };
            let ds_t = BranchDataset::build(&model, &bench.split.train, LinkTarget::Tables, 300);
            let ds_c = BranchDataset::build(&model, &bench.split.train, LinkTarget::Columns, 300);
            let mbpp_t = Mbpp::train(&ds_t, &cfg);
            let mbpp_c = Mbpp::train(&ds_c, &cfg);
            let contexts = LinkContexts::build(&bench);
            Fx {
                bench,
                model,
                mbpp_t,
                mbpp_c,
                contexts,
            }
        })
    }

    /// Base config for parity runs. The CI parity matrix runs the
    /// module under `RTS_THREADS ∈ {1, 4}`, so the serial and parallel
    /// runtimes are both exercised.
    fn base_config(seed: u64) -> RtsConfig {
        RtsConfig { seed }
    }

    /// The corpus stamp is v2 everywhere: the default version, the
    /// version a linker reports, and its tag.
    #[test]
    fn default_corpus_is_v2_everywhere() {
        assert_eq!(CorpusVersion::default(), CorpusVersion::V2);
        assert_eq!(SchemaLinker::new("bird", 5).corpus(), CorpusVersion::V2);
        assert_eq!(CorpusVersion::V2.tag(), "v2");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lazy selected-layer synthesis ≡ eager full-stack synthesis,
        /// bit for bit, on every requested layer — across instances,
        /// positions, modes and arbitrary layer subsets (including the
        /// empty set). Non-hidden observables (tokens, softmax, branch
        /// labels, decisions) are identical too.
        #[test]
        fn lazy_synthesis_bit_identical_to_eager(
            pick in 0usize..1000,
            free in prop::bool::ANY,
            columns in prop::bool::ANY,
            mask in prop::collection::vec(prop::bool::ANY, 30),
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let mode = if free { GenMode::Free } else { GenMode::TeacherForced };
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let selected: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(j, _)| j)
                .collect();
            let layers = LayerSet::select(selected.iter().copied());
            let mut v1 = Vocab::new();
            let eager = fx.model.generate(inst, &mut v1, target, mode);
            let mut v2 = Vocab::new();
            let mut scratch = SynthScratch::default();
            let lazy = fx.model.generate_with_layers(
                inst, &mut v2, target, mode, &layers, &mut scratch,
            );
            prop_assert_eq!(&lazy.tokens, &eager.tokens);
            prop_assert_eq!(&lazy.decisions, &eager.decisions);
            prop_assert_eq!(lazy.n_branches, eager.n_branches);
            for (ls, es) in lazy.steps.iter().zip(&eager.steps) {
                prop_assert_eq!(ls.softmax_prob.to_bits(), es.softmax_prob.to_bits());
                prop_assert_eq!(ls.is_branch, es.is_branch);
                prop_assert_eq!(ls.element_idx, es.element_idx);
                prop_assert_eq!(ls.hidden.len(), selected.len());
                for &j in &selected {
                    // f32 bit equality, layer by layer.
                    let l: Vec<u32> = ls.hidden.layer(j).iter().map(|x| x.to_bits()).collect();
                    let e: Vec<u32> = es.hidden.layer(j).iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(l, e, "layer {} diverged", j);
                }
            }
        }

        /// Generation's synthesis (in-tree `ln`/`sincos`, guarded
        /// rounding to `f32`) ≡ the libm reference oracle
        /// `SchemaLinker::hidden_states_reference`, bit for bit, for
        /// every step of a trace at a random `LayerSet`, instance,
        /// target and mode. This is the invariant that lets the fast
        /// path serve the committed corpus without a version of its own.
        #[test]
        fn fast_synthesis_matches_libm_reference(
            pick in 0usize..1000,
            free in prop::bool::ANY,
            columns in prop::bool::ANY,
            mask in prop::collection::vec(prop::bool::ANY, 30),
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let mode = if free { GenMode::Free } else { GenMode::TeacherForced };
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let layers = LayerSet::select(
                mask.iter().enumerate().filter(|(_, &on)| on).map(|(j, _)| j),
            );
            let mut scratch = SynthScratch::default();
            let mut vocab = Vocab::new();
            let trace =
                fx.model.generate_with_layers(inst, &mut vocab, target, mode, &layers, &mut scratch);
            for (pos, step) in trace.steps.iter().enumerate() {
                let reference =
                    fx.model.hidden_states_reference(inst, pos, step.token, step.s(), &layers);
                prop_assert_eq!(
                    step.hidden.layer_indices().collect::<Vec<_>>(),
                    reference.layer_indices().collect::<Vec<_>>()
                );
                for j in step.hidden.layer_indices() {
                    let f: Vec<u32> = step.hidden.layer(j).iter().map(|x| x.to_bits()).collect();
                    let r: Vec<u32> = reference.layer(j).iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(f, r, "position {} layer {} diverged", pos, j);
                }
            }
        }

        /// Monitoring a lazily synthesized trace (only the mBPP's
        /// selected layers materialised) raises exactly the flags the
        /// eager full-stack trace does, with the merge RNG in
        /// lock-step — for both the batched and per-token paths.
        #[test]
        fn lazy_trace_flags_match_eager(
            seed in any::<u64>(),
            pick in 0usize..1000,
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let mut v1 = Vocab::new();
            let eager = fx.model.generate(inst, &mut v1, LinkTarget::Tables, GenMode::Free);
            let mut v2 = Vocab::new();
            let mut scratch = SynthScratch::default();
            let lazy = fx.model.generate_with_layers(
                inst, &mut v2, LinkTarget::Tables, GenMode::Free,
                &fx.mbpp_t.layer_set(), &mut scratch,
            );
            let mut rng_lazy = SplitMix64::new(seed);
            let mut rng_eager = SplitMix64::new(seed);
            prop_assert_eq!(
                fx.mbpp_t.flag_trace(&lazy, &mut rng_lazy),
                fx.mbpp_t.flag_trace(&eager, &mut rng_eager)
            );
            prop_assert!(rng_lazy == rng_eager, "merge rng diverged");
            // Per-token path (Mbpp::is_branch) over the lazy stacks.
            let mut rng_lazy = SplitMix64::new(seed);
            let mut rng_eager = SplitMix64::new(seed);
            prop_assert_eq!(
                fx.mbpp_t.flag_trace_per_token(&lazy, &mut rng_lazy),
                fx.mbpp_t.flag_trace_per_token(&eager, &mut rng_eager)
            );
        }

        /// `flag_trace` (batched) ≡ `flag_trace_per_token`, flag for
        /// flag, with the permutation-merge RNG stream in lock-step.
        #[test]
        fn batched_flag_trace_matches_per_token(
            seed in any::<u64>(),
            pick in 0usize..1000,
            free in prop::bool::ANY,
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let mode = if free { GenMode::Free } else { GenMode::TeacherForced };
            let mut vocab = Vocab::new();
            let trace = fx.model.generate(inst, &mut vocab, LinkTarget::Tables, mode);
            let mut rng_batched = SplitMix64::new(seed);
            let mut rng_serial = SplitMix64::new(seed);
            let batched = fx.mbpp_t.flag_trace(&trace, &mut rng_batched);
            let per_token = fx.mbpp_t.flag_trace_per_token(&trace, &mut rng_serial);
            prop_assert_eq!(&batched, &per_token);
            // Identical RNG consumption ⇒ downstream decisions in a
            // multi-round run stay aligned too.
            prop_assert!(rng_batched == rng_serial, "rng streams diverged");
        }

        /// Parallel `run_full_pipeline` ≡ the serial per-instance loop:
        /// identical outcomes field-for-field and bit-identical EX.
        #[test]
        fn parallel_pipeline_matches_serial(seed in any::<u64>(), n in 10usize..30) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE);
            let generator = SqlGenModel::deepseek_7b("bird", seed ^ 0x5EED);
            let config = base_config(seed);
            let instances: Vec<Instance> =
                fx.bench.split.dev.iter().take(n).cloned().collect();
            let (ex_par, outcomes_par) = run_full_pipeline(
                &fx.bench, &instances, &fx.model, &fx.mbpp_t, &fx.mbpp_c,
                &oracle, &generator, &config,
            );
            // Serial reference: the same per-instance computation, one
            // instance at a time on this thread.
            let policy = MitigationPolicy::Human(&oracle);
            let outcomes_serial: Vec<_> = instances
                .iter()
                .map(|inst| {
                    run_joint_linking(
                        &fx.model, &fx.mbpp_t, &fx.mbpp_c, inst, &fx.bench, &policy, &config,
                    )
                })
                .collect();
            let schemas: Vec<_> =
                outcomes_serial.iter().map(|o| o.provided_schema()).collect();
            let (ex_serial, _) = generator.execution_accuracy(
                instances.iter(),
                |db| fx.bench.database(db),
                |db| fx.bench.meta(db),
                |inst| {
                    let i = instances.iter().position(|x| x.id == inst.id).unwrap();
                    schemas[i].clone()
                },
            );
            prop_assert_eq!(outcomes_par.len(), outcomes_serial.len());
            for (p, s) in outcomes_par.iter().zip(&outcomes_serial) {
                prop_assert_eq!(&p.tables.predicted, &s.tables.predicted);
                prop_assert_eq!(&p.columns.predicted, &s.columns.predicted);
                prop_assert_eq!(p.tables.abstained, s.tables.abstained);
                prop_assert_eq!(p.columns.abstained, s.columns.abstained);
                prop_assert_eq!(p.tables.correct, s.tables.correct);
                prop_assert_eq!(p.columns.correct, s.columns.correct);
                prop_assert_eq!(p.tables.n_interventions, s.tables.n_interventions);
                prop_assert_eq!(p.columns.n_interventions, s.columns.n_interventions);
                prop_assert_eq!(p.tables.n_flags, s.tables.n_flags);
                prop_assert_eq!(p.columns.n_flags, s.columns.n_flags);
            }
            prop_assert!(ex_par == ex_serial, "EX diverged: {} vs {}", ex_par, ex_serial);
        }

        /// The shared-`LinkContext` runtime ≡ the context-free fallback
        /// (a session opened without a context, as the serving engine
        /// does when a context build fails: clone-per-flag trie
        /// rebuild, full-prefix re-decode): outcomes field-for-field —
        /// flags, implicated-set-driven decisions, interventions,
        /// predictions — across targets, policies and seeds.
        #[test]
        fn context_linking_matches_context_free_fallback(
            seed in any::<u64>(),
            n in 8usize..24,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE);
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mbpp = if columns { &fx.mbpp_c } else { &fx.mbpp_t };
            let config = base_config(seed);
            let mut scratch = LinkScratch::default();
            for policy in [
                MitigationPolicy::AbstainOnly,
                MitigationPolicy::Human(&oracle),
            ] {
                for inst in fx.bench.split.dev.iter().take(n) {
                    let meta = fx.bench.meta(&inst.db_name).unwrap();
                    let ctx = fx.contexts.get(&inst.db_name, target);
                    let with_ctx = run_rts_linking_in(
                        &fx.model, mbpp, inst, meta, ctx, &policy, &config, &mut scratch,
                    );
                    let mut session = LinkSession::new(
                        &fx.model, mbpp, inst, meta, target, None, None, &config,
                    );
                    let fallback = drive_session(&mut session, &policy, &mut scratch);
                    prop_assert_eq!(
                        format!("{:?}", with_ctx),
                        format!("{:?}", fallback),
                        "instance {} target {:?}", inst.id, target
                    );
                }
            }
        }

        /// `run_rts_linking_from` (round 0 supplied by the caller — the
        /// production dataflow where the generated stream is shared
        /// with the monitor) ≡ regenerating round 0 inside the runtime.
        #[test]
        fn from_trace_linking_matches_regenerating(
            seed in any::<u64>(),
            n in 8usize..24,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE);
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mbpp = if columns { &fx.mbpp_c } else { &fx.mbpp_t };
            let config = base_config(seed);
            let mut scratch = LinkScratch::default();
            for policy in [
                MitigationPolicy::AbstainOnly,
                MitigationPolicy::Human(&oracle),
            ] {
                for inst in fx.bench.split.dev.iter().take(n) {
                    let meta = fx.bench.meta(&inst.db_name).unwrap();
                    let ctx = fx.contexts.get(&inst.db_name, target);
                    let mut vocab = Vocab::new();
                    let trace = fx.model.generate_with_layers(
                        inst, &mut vocab, target, GenMode::Free,
                        &mbpp.layer_set(), &mut scratch.synth,
                    );
                    let from = run_rts_linking_from(
                        &fx.model, mbpp, inst, meta, ctx,
                        Round0 { trace: &trace, vocab: &vocab },
                        &policy, &config, &mut scratch,
                    );
                    let regen = run_rts_linking_in(
                        &fx.model, mbpp, inst, meta, ctx, &policy, &config, &mut scratch,
                    );
                    prop_assert_eq!(
                        format!("{:?}", from),
                        format!("{:?}", regen),
                        "instance {} target {:?}", inst.id, target
                    );
                }
            }
        }

        /// The resumable `LinkSession` drivers ≡ the pre-session
        /// monolithic blocking loop, field for field, across policies,
        /// targets, seeds and both driver shapes (`run_rts_linking_in`
        /// and the trace-consuming `run_rts_linking_from`). Multi-round
        /// Human runs only agree if the merge-RNG stream, flag counts
        /// and intervention accounting stay in lock-step, so outcome
        /// equality pins the whole state machine — under both thread
        /// counts of the CI matrix.
        #[test]
        fn session_linking_matches_monolithic_loop(
            seed in any::<u64>(),
            n in 8usize..20,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE);
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mbpp = if columns { &fx.mbpp_c } else { &fx.mbpp_t };
            let config = base_config(seed);
            let mut scratch = LinkScratch::default();
            for policy in [
                MitigationPolicy::AbstainOnly,
                MitigationPolicy::Human(&oracle),
            ] {
                for inst in fx.bench.split.dev.iter().take(n) {
                    let meta = fx.bench.meta(&inst.db_name).unwrap();
                    let ctx = fx.contexts.get(&inst.db_name, target);
                    // Driver shape 1: shared context, internal round 0.
                    let driven = run_rts_linking_in(
                        &fx.model, mbpp, inst, meta, ctx, &policy, &config, &mut scratch,
                    );
                    let monolithic = run_rts_linking_monolithic(
                        &fx.model, mbpp, inst, meta, target, Some(ctx), None,
                        &policy, &config, &mut scratch,
                    );
                    prop_assert_eq!(
                        format!("{:?}", driven),
                        format!("{:?}", monolithic),
                        "run_rts_linking_in vs monolith, instance {} target {:?}",
                        inst.id, target
                    );
                    // Driver shape 2: caller-supplied round-0 stream.
                    let mut vocab = Vocab::new();
                    let trace = fx.model.generate_with_layers(
                        inst, &mut vocab, target, GenMode::Free,
                        &mbpp.layer_set(), &mut scratch.synth,
                    );
                    let round0 = Round0 { trace: &trace, vocab: &vocab };
                    let driven = run_rts_linking_from(
                        &fx.model, mbpp, inst, meta, ctx, round0, &policy, &config, &mut scratch,
                    );
                    let monolithic = run_rts_linking_monolithic(
                        &fx.model, mbpp, inst, meta, target, Some(ctx), Some(round0),
                        &policy, &config, &mut scratch,
                    );
                    prop_assert_eq!(
                        format!("{:?}", driven),
                        format!("{:?}", monolithic),
                        "run_rts_linking_from vs monolith, instance {} target {:?}",
                        inst.id, target
                    );
                }
            }
        }

        /// Checkpointed-and-restored sessions ≡ the monolithic blocking
        /// loop: at every suspension the session is serialized through
        /// the serde shim, dropped, restored from bytes (the round's
        /// label sets with it, nothing synthesized), and only then
        /// resolved. Flags, the merge
        /// RNG stream, interventions and outcomes must be identical to
        /// a run that never parked — under both thread counts of the
        /// CI matrix, so `results/*.json`
        /// cannot drift however often the serving engine checkpoints.
        #[test]
        fn checkpoint_roundtrip_matches_monolithic_loop(
            seed in any::<u64>(),
            n in 6usize..16,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, seed ^ 0x0DDE);
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mbpp = if columns { &fx.mbpp_c } else { &fx.mbpp_t };
            let config = base_config(seed);
            let mut scratch = LinkScratch::default();
            for policy in [
                MitigationPolicy::AbstainOnly,
                MitigationPolicy::Human(&oracle),
            ] {
                for inst in fx.bench.split.dev.iter().take(n) {
                    let meta = fx.bench.meta(&inst.db_name).unwrap();
                    let ctx = fx.contexts.get(&inst.db_name, target);
                    let mut session = LinkSession::new(
                        &fx.model, mbpp, inst, meta, target,
                        Some(CtxHandle::Borrowed(ctx)), None, &config,
                    );
                    let outcome = loop {
                        match session.step(&mut scratch) {
                            SessionState::Done(o) => break o,
                            SessionState::NeedsFeedback(q) => {
                                let held = session.held_bytes();
                                let bytes = rts::serve::checkpoint::encode(&session.checkpoint());
                                let back: SessionCheckpoint =
                                    rts::serve::checkpoint::decode(&bytes);
                                // Reassignment drops the live session.
                                session = LinkSession::restore(
                                    &fx.model, mbpp, inst, meta, target,
                                    Some(CtxHandle::Borrowed(ctx)), &config,
                                    &back, &mut scratch.synth,
                                );
                                prop_assert_eq!(session.pending_query(), Some(&q));
                                prop_assert_eq!(session.held_bytes(), held,
                                    "restored round must be byte-for-byte the evicted one");
                                session.resolve(resolve_flag(&policy, inst, &q));
                            }
                        }
                    };
                    let monolithic = run_rts_linking_monolithic(
                        &fx.model, mbpp, inst, meta, target, Some(ctx), None,
                        &policy, &config, &mut scratch,
                    );
                    prop_assert_eq!(
                        format!("{:?}", outcome),
                        format!("{:?}", monolithic),
                        "checkpointed drive vs monolith, instance {} target {:?}",
                        inst.id, target
                    );
                }
            }
        }

        /// The incremental trace back ≡ the quadratic re-decode
        /// reference on arbitrary (branch position, truncation) pairs of
        /// generated streams — including mid-element truncations that
        /// exercise the trie-completion path.
        #[test]
        fn traceback_incremental_matches_reference(
            pick in 0usize..1000,
            branch_sel in 0usize..1000,
            cut_sel in 0usize..1000,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mut vocab = Vocab::new();
            let trace = fx.model.generate(inst, &mut vocab, target, GenMode::Free);
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let trie = match target {
                LinkTarget::Tables => table_trie(&mut vocab, meta),
                LinkTarget::Columns => column_trie(&mut vocab, meta),
            };
            let branch_pos = branch_sel % trace.tokens.len();
            let cut = branch_pos + 1 + cut_sel % (trace.tokens.len() - branch_pos);
            let toks = &trace.tokens[..cut];
            prop_assert_eq!(
                trace_back(&vocab, &trie, toks, branch_pos),
                trace_back_reference(&vocab, &trie, toks, branch_pos),
                "instance {} target {:?} branch {} cut {}", inst.id, target, branch_pos, cut
            );
        }

        /// The cached-context implicated set ≡ the clone-per-flag
        /// rebuild, at every position of complete generated streams
        /// (what the runtime actually traces back from).
        #[test]
        fn context_implicated_sets_match_rebuild(
            pick in 0usize..1000,
            branch_sel in 0usize..1000,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mut vocab = Vocab::new();
            let trace = fx.model.generate(inst, &mut vocab, target, GenMode::Free);
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let ctx = fx.contexts.get(&inst.db_name, target);
            let branch_pos = branch_sel % trace.tokens.len();
            prop_assert_eq!(
                ctx.implicated_elements(meta, &vocab, &trace.tokens, branch_pos),
                implicated_elements_reference(&vocab, meta, target, &trace.tokens, branch_pos),
                "instance {} target {:?} branch {}", inst.id, target, branch_pos
            );
        }

        /// The shared context ≡ the candidate vocabulary and trie built
        /// out here, on arbitrary (branch position, truncation) pairs of
        /// generated streams: mid-element cuts reach the trie-completion
        /// step, where the partial is translated by token text.
        #[test]
        fn context_implicated_sets_match_eager_build_on_truncated_streams(
            pick in 0usize..1000,
            branch_sel in 0usize..1000,
            cut_sel in 0usize..1000,
            columns in prop::bool::ANY,
        ) {
            let fx = fixture();
            let inst = &fx.bench.split.dev[pick % fx.bench.split.dev.len()];
            let target = if columns { LinkTarget::Columns } else { LinkTarget::Tables };
            let mut vocab = Vocab::new();
            let trace = fx.model.generate(inst, &mut vocab, target, GenMode::Free);
            let meta = fx.bench.meta(&inst.db_name).unwrap();
            let branch_pos = branch_sel % trace.tokens.len();
            let cut = branch_pos + 1 + cut_sel % (trace.tokens.len() - branch_pos);
            let toks = &trace.tokens[..cut];

            let mut ctx_vocab = Vocab::new();
            let trie = match target {
                LinkTarget::Tables => table_trie_in(&mut ctx_vocab, meta),
                LinkTarget::Columns => column_trie_in(&mut ctx_vocab, meta),
            };
            let eager = trace_back_with(&vocab, toks, branch_pos, |partial| {
                let translated: Option<Vec<_>> =
                    partial.iter().map(|&t| ctx_vocab.get(vocab.text(t))).collect();
                trie.cheapest_completion(&translated?).map(|(_, name)| name.to_string())
            });
            let ctx = fx.contexts.get(&inst.db_name, target);
            prop_assert_eq!(
                ctx.implicated_elements(meta, &vocab, toks, branch_pos),
                eager,
                "instance {} target {:?} branch {} cut {}", inst.id, target, branch_pos, cut
            );
        }
    }

    /// The `rts-serve` engine ≡ batch `run_full_pipeline` on the same
    /// instance set: concurrent clients, parked sessions and the lazy
    /// context cache must change *when* answers arrive, never what
    /// they are. Runs under the CI parity matrix, so worker scheduling
    /// (`RTS_THREADS`) is crossed with the engine's concurrency.
    #[test]
    fn serve_engine_matches_batch_pipeline() {
        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 0x5E17E);
        let config = base_config(0xC0FFEE);
        let instances: Vec<Instance> = fx.bench.split.dev.iter().take(36).cloned().collect();
        let serve_cfg = ServeConfig {
            queue_capacity: 6,
            cache_capacity: 3,
            rts: config.clone(),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            serve_cfg,
        );
        let n_clients = 3;
        let served: Vec<(u64, JointOutcome)> = crossbeam::thread::scope(|s| {
            for _ in 0..engine.config().workers {
                s.spawn(|_| engine.worker_loop());
            }
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let engine = &engine;
                    let instances = &instances;
                    let oracle = &oracle;
                    s.spawn(move |_| {
                        let policy = MitigationPolicy::Human(oracle);
                        let slice: Vec<Instance> = instances
                            .iter()
                            .skip(c)
                            .step_by(n_clients)
                            .cloned()
                            .collect();
                        // One tenant per client: the fair queue and
                        // per-tenant accounting run on the parity path.
                        drive_closed_loop(engine, c as u32, &slice, |inst, query| {
                            Some(resolve_flag(&policy, inst, query))
                        })
                    })
                })
                .collect();
            let out: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("client panicked"))
                .map(|(id, done)| {
                    assert!(!done.shed, "no deadline configured");
                    assert!(!done.faulted, "no fault plan armed");
                    (id, done.outcome)
                })
                .collect();
            engine.shutdown();
            out
        })
        .expect("serve scope panicked");

        let generator = SqlGenModel::deepseek_7b("bird", 99);
        let (_ex, batch) = run_full_pipeline(
            &fx.bench, &instances, &fx.model, &fx.mbpp_t, &fx.mbpp_c, &oracle, &generator, &config,
        );
        assert_eq!(served.len(), instances.len());
        for (id, outcome) in &served {
            let i = instances.iter().position(|x| x.id == *id).unwrap();
            assert_eq!(
                format!("{outcome:?}"),
                format!("{:?}", batch[i]),
                "serve/batch outcome mismatch on instance {id}"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, instances.len() as u64);
        assert!(
            stats.feedback_rounds > 0,
            "a human workload must suspend at least once"
        );
        assert!(
            stats.parked_sessions_peak >= 1,
            "suspensions must park sessions"
        );
        assert!(stats.cache.hits > 0, "contexts must be reused");
    }

    /// The wire stack ≡ the in-process engine, byte for byte: the same
    /// closed-loop workload as `serve_engine_matches_batch_pipeline`,
    /// but driven through `rts-served` over loopback TCP by the
    /// `rts-client` crate — framing, request ids, feedback resolution,
    /// and stats all cross the socket, and every outcome must still be
    /// identical to the batch pipeline. Runs under the CI parity
    /// matrix (`RTS_THREADS`) like the in-process case it mirrors.
    #[test]
    fn wire_serve_matches_batch_pipeline() {
        use rts::client::RtsClient;
        use rts::served::Server;
        use std::sync::Arc;

        let fx = fixture();
        let oracle = HumanOracle::new(Expertise::Expert, 0x5E17E);
        let config = base_config(0xC0FFEE);
        let instances: Vec<Instance> = fx.bench.split.dev.iter().take(36).cloned().collect();
        let serve_cfg = ServeConfig {
            queue_capacity: 6,
            cache_capacity: 3,
            rts: config.clone(),
            ..ServeConfig::default()
        };
        let engine = Arc::new(ServeEngine::new(
            &fx.model,
            &fx.mbpp_t,
            &fx.mbpp_c,
            &fx.bench.metas,
            serve_cfg,
        ));
        let fingerprint = "parity-fixture|wire=v1".to_string();
        let server = Server::new(
            Arc::clone(&engine),
            fingerprint.clone(),
            instances.iter().cloned(),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("loopback addr").to_string();
        let n_clients = 3;
        let served: Vec<(u64, JointOutcome)> = crossbeam::thread::scope(|s| {
            for _ in 0..engine.config().workers {
                let engine = &engine;
                s.spawn(move |_| engine.worker_loop());
            }
            let srv = server.clone();
            let accept = s.spawn(move |_| srv.serve(listener));
            let client = RtsClient::connect(&addr, Some(&fingerprint)).expect("wire handshake");
            let handles: Vec<_> = (0..n_clients)
                .map(|c| {
                    let client = client.clone();
                    let instances = &instances;
                    let oracle = &oracle;
                    s.spawn(move |_| {
                        let policy = MitigationPolicy::Human(oracle);
                        let slice: Vec<Instance> = instances
                            .iter()
                            .skip(c)
                            .step_by(n_clients)
                            .cloned()
                            .collect();
                        drive_closed_loop(&client, c as u32, &slice, |inst, query| {
                            Some(resolve_flag(&policy, inst, query))
                        })
                    })
                })
                .collect();
            let out: Vec<_> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("wire client panicked"))
                .map(|(id, done)| {
                    assert!(!done.shed, "no deadline configured");
                    assert!(!done.faulted, "no fault plan armed");
                    (id, done.outcome)
                })
                .collect();
            // Gauges drain to zero, read over the wire — Stats
            // round-trips and the server holds no session memory.
            let stats = rts::serve::Engine::stats(&client);
            assert_eq!(stats.completed, instances.len() as u64);
            assert_eq!(stats.parked_sessions_now, 0, "server leaks sessions");
            assert_eq!(stats.parked_bytes_now, 0, "server leaks parked bytes");
            assert_eq!(stats.checkpoint_bytes_now, 0, "server leaks checkpoints");
            rts::serve::Engine::shutdown(&client);
            client.bye();
            accept
                .join()
                .expect("accept thread panicked")
                .expect("serve drains cleanly");
            out
        })
        .expect("wire scope panicked");

        let generator = SqlGenModel::deepseek_7b("bird", 99);
        let (_ex, batch) = run_full_pipeline(
            &fx.bench, &instances, &fx.model, &fx.mbpp_t, &fx.mbpp_c, &oracle, &generator, &config,
        );
        assert_eq!(served.len(), instances.len(), "zero drops over the wire");
        for (id, outcome) in &served {
            let i = instances.iter().position(|x| x.id == *id).unwrap();
            assert_eq!(
                format!("{outcome:?}"),
                format!("{:?}", batch[i]),
                "wire/batch outcome mismatch on instance {id}"
            );
        }
    }

    /// The workload shape shared by the shard-parity proptest cases
    /// and their batch-pipeline baseline.
    const SHARD_N: usize = 30;
    const SHARD_RTS_SEED: u64 = 0xC0FFEE;
    const SHARD_ORACLE_SEED: u64 = 0x5E17E;

    /// Batch-pipeline outcomes for the shard-parity workload, one
    /// `Debug` string per instance — computed once per process.
    fn shard_baseline() -> &'static [String] {
        static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
        BASELINE.get_or_init(|| {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, SHARD_ORACLE_SEED);
            let generator = SqlGenModel::deepseek_7b("bird", 99);
            let config = base_config(SHARD_RTS_SEED);
            let instances: Vec<Instance> =
                fx.bench.split.dev.iter().take(SHARD_N).cloned().collect();
            let (_ex, batch) = run_full_pipeline(
                &fx.bench, &instances, &fx.model, &fx.mbpp_t, &fx.mbpp_c, &oracle, &generator,
                &config,
            );
            batch.iter().map(|o| format!("{o:?}")).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The engine at any shard count ≡ the batch pipeline, byte for
        /// byte per request, across shard counts (one shard included —
        /// the shape every example and the benchmark run) and worker
        /// counts: database partitioning, per-shard caches, and
        /// work-stealing placement may move *when* answers arrive,
        /// never what they are. Pinned against the same batch baseline
        /// `serve_engine_matches_batch_…` holds the default engine to,
        /// and rides the CI `RTS_THREADS` matrix like every other parity
        /// case. Zero drops and per-shard gauge
        /// drain are asserted on every case.
        #[test]
        fn sharded_engine_matches_single_shard(
            shards in 1usize..5,
            workers in 1usize..5,
        ) {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, SHARD_ORACLE_SEED);
            let baseline = shard_baseline();
            let instances: Vec<Instance> =
                fx.bench.split.dev.iter().take(SHARD_N).cloned().collect();
            let serve_cfg = ServeConfig {
                workers,
                shards,
                queue_capacity: 6,
                cache_capacity: 3,
                rts: base_config(SHARD_RTS_SEED),
                ..ServeConfig::default()
            };
            let engine = ServeEngine::new(
                &fx.model,
                &fx.mbpp_t,
                &fx.mbpp_c,
                &fx.bench.metas,
                serve_cfg,
            );
            let n_clients = 3;
            let served: Vec<(u64, JointOutcome)> = crossbeam::thread::scope(|s| {
                let eng = &engine;
                for _ in 0..workers {
                    s.spawn(move |_| eng.worker_loop());
                }
                let handles: Vec<_> = (0..n_clients)
                    .map(|c| {
                        let instances = &instances;
                        let oracle = &oracle;
                        s.spawn(move |_| {
                            let policy = MitigationPolicy::Human(oracle);
                            let slice: Vec<Instance> = instances
                                .iter()
                                .skip(c)
                                .step_by(n_clients)
                                .cloned()
                                .collect();
                            drive_closed_loop(eng, c as u32, &slice, |inst, query| {
                                Some(resolve_flag(&policy, inst, query))
                            })
                        })
                    })
                    .collect();
                let out: Vec<_> = handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sharded client panicked"))
                    .map(|(id, done)| {
                        assert!(!done.shed, "no deadline configured");
                        assert!(!done.faulted, "no fault plan armed");
                        (id, done.outcome)
                    })
                    .collect();
                engine.shutdown();
                out
            })
            .expect("sharded scope panicked");

            // Byte-identical outcomes, zero drops.
            prop_assert_eq!(served.len(), instances.len());
            for (id, outcome) in &served {
                let i = instances.iter().position(|x| x.id == *id).unwrap();
                prop_assert_eq!(
                    format!("{outcome:?}"),
                    baseline[i].clone(),
                    "sharded/batch outcome mismatch on instance {} ({} shards, {} workers)",
                    id, shards, workers
                );
            }
            // Placement followed the pinned routing hash exactly, and
            // every per-shard gauge drained.
            let mut expected = vec![0u64; shards];
            for inst in &instances {
                expected[rts::core::context::db_shard(&inst.db_name, shards)] += 1;
            }
            let mut shard_completed = 0u64;
            for (idx, want) in expected.iter().enumerate() {
                let s = engine.shard_stats(idx).unwrap();
                shard_completed += s.completed;
                prop_assert_eq!(
                    s.completed, *want,
                    "shard {} served {} requests, routing promised {}",
                    idx, s.completed, want
                );
                prop_assert_eq!(s.parked_bytes_now, 0, "shard {} leaks parked bytes", idx);
                prop_assert_eq!(s.parked_sessions_now, 0, "shard {} leaks sessions", idx);
                prop_assert_eq!(s.checkpoint_bytes_now, 0, "shard {} leaks checkpoints", idx);
            }
            prop_assert_eq!(shard_completed, instances.len() as u64);
        }
    }

    /// The chaos workload shape shared by the fault-schedule proptest
    /// and its fault-free baseline.
    const CHAOS_N: usize = 24;
    const CHAOS_RTS_SEED: u64 = 0xC4405;
    const CHAOS_ORACLE_SEED: u64 = 0x0DDE;

    /// Fault-free batch outcomes for the chaos workload, one `Debug`
    /// string per instance — computed once per process (the batch
    /// pipeline would otherwise dominate every proptest case).
    fn chaos_baseline() -> &'static [String] {
        static BASELINE: OnceLock<Vec<String>> = OnceLock::new();
        BASELINE.get_or_init(|| {
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, CHAOS_ORACLE_SEED);
            let generator = SqlGenModel::deepseek_7b("bird", 99);
            let config = base_config(CHAOS_RTS_SEED);
            let instances: Vec<Instance> =
                fx.bench.split.dev.iter().take(CHAOS_N).cloned().collect();
            let (_ex, batch) = run_full_pipeline(
                &fx.bench, &instances, &fx.model, &fx.mbpp_t, &fx.mbpp_c, &oracle, &generator,
                &config,
            );
            batch.iter().map(|o| format!("{o:?}")).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Degrade-only under chaos: for *arbitrary* seeded fault
        /// schedules — step panics, corrupt checkpoints, context-build
        /// failures, lost and delayed feedback, all armed at once —
        /// every ticket still terminates exactly once, nothing is
        /// dropped, the parked/checkpoint gauges drain to zero, every
        /// fault-degraded outcome is an abstention (never a wrong
        /// answer), and requests the faults did *not* degrade are
        /// byte-identical to the fault-free batch pipeline. Runs under
        /// the CI parity matrix, so the recovery machinery is crossed
        /// with `RTS_THREADS`.
        #[test]
        fn chaos_fault_schedules_degrade_only(fault_seed in any::<u64>()) {
            rts::serve::fault::silence_injected_panics();
            let fx = fixture();
            let oracle = HumanOracle::new(Expertise::Expert, CHAOS_ORACLE_SEED);
            let baseline = chaos_baseline();
            let instances: Vec<Instance> =
                fx.bench.split.dev.iter().take(CHAOS_N).cloned().collect();
            let serve_cfg = ServeConfig {
                workers: 2,
                queue_capacity: 4,
                cache_capacity: 2,
                // Budget 1 forces every park through the checkpoint
                // path, so CheckpointDecode faults fire on restores.
                parked_bytes_budget: 1,
                // Required for FeedbackLoss to inject; generous enough
                // that answered flags rarely lose the race.
                feedback_timeout: Some(std::time::Duration::from_millis(50)),
                fault: FaultPlan::seeded(fault_seed, 0.08),
                step_retry_budget: 64,
                step_retry_backoff: std::time::Duration::ZERO,
                rts: base_config(CHAOS_RTS_SEED),
                ..ServeConfig::default()
            };
            let engine = ServeEngine::new(
                &fx.model,
                &fx.mbpp_t,
                &fx.mbpp_c,
                &fx.bench.metas,
                serve_cfg,
            );
            let n_clients = 3;
            let served: Vec<(u64, ServeOutcome)> = crossbeam::thread::scope(|s| {
                for _ in 0..engine.config().workers {
                    s.spawn(|_| engine.worker_loop());
                }
                let handles: Vec<_> = (0..n_clients)
                    .map(|c| {
                        let engine = &engine;
                        let instances = &instances;
                        let oracle = &oracle;
                        s.spawn(move |_| {
                            let policy = MitigationPolicy::Human(oracle);
                            let slice: Vec<Instance> = instances
                                .iter()
                                .skip(c)
                                .step_by(n_clients)
                                .cloned()
                                .collect();
                            // `Stale` resolves are a legal race under
                            // the feedback timeout and the injected
                            // loss/delay faults; the shared driver
                            // absorbs them.
                            drive_closed_loop(engine, c as u32, &slice, |inst, query| {
                                Some(resolve_flag(&policy, inst, query))
                            })
                        })
                    })
                    .collect();
                let out: Vec<_> = handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("chaos client panicked"))
                    .collect();
                engine.shutdown();
                out
            })
            .expect("chaos scope panicked");

            // Exactly-once termination: nothing dropped, nothing doubled.
            prop_assert_eq!(served.len(), instances.len());
            let stats = engine.stats();
            prop_assert_eq!(stats.completed, instances.len() as u64);
            // The gauges must drain: recovery never leaks parked state.
            prop_assert_eq!(stats.parked_bytes_now, 0);
            prop_assert_eq!(stats.parked_sessions_now, 0);
            prop_assert_eq!(stats.checkpoint_bytes_now, 0);
            let mut checked = 0usize;
            for (id, done) in &served {
                let i = instances.iter().position(|x| x.id == *id).unwrap();
                if done.faulted {
                    // Degrade-only: an unrecoverable fault abstains,
                    // it never fabricates an answer.
                    prop_assert!(
                        done.outcome.tables.abstained || done.outcome.columns.abstained,
                        "faulted instance {} did not abstain", id
                    );
                } else if !done.timed_out && !done.shed && !done.drained {
                    // Recovered faults must be invisible: outcomes the
                    // schedule did not degrade are byte-identical to
                    // the fault-free batch pipeline.
                    prop_assert_eq!(
                        format!("{:?}", done.outcome),
                        baseline[i].clone(),
                        "chaos/batch outcome mismatch on instance {}", id
                    );
                    checked += 1;
                }
            }
            prop_assert!(checked > 0, "every request degraded — no parity coverage");
        }
    }

    /// Full-stack consumers are untouched by lazy synthesis:
    /// `BranchDataset::build` still collects every layer of every
    /// token, row for row what eager per-instance traces contain.
    #[test]
    fn branch_dataset_still_builds_from_full_stacks() {
        let fx = fixture();
        let ds = BranchDataset::build(&fx.model, &fx.bench.split.train, LinkTarget::Tables, 12);
        assert_eq!(ds.n_layers, fx.model.n_layers);
        assert_eq!(ds.layers.len(), fx.model.n_layers);
        let mut row = 0usize;
        for inst in &fx.bench.split.train[..12] {
            let mut vocab = Vocab::new();
            let trace =
                fx.model
                    .generate(inst, &mut vocab, LinkTarget::Tables, GenMode::TeacherForced);
            for step in &trace.steps {
                assert_eq!(step.hidden.len(), fx.model.n_layers, "full stack expected");
                for j in 0..fx.model.n_layers {
                    assert_eq!(
                        ds.layers[j].row(row),
                        step.hidden.layer(j),
                        "dataset row {row} layer {j} diverged from the eager trace"
                    );
                }
                assert_eq!(ds.labels[row] > 0.5, step.is_branch);
                row += 1;
            }
        }
        assert_eq!(row, ds.n_tokens());
    }
}
