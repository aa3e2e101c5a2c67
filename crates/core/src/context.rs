//! Shared linking context: the per-`(database, target)` handle the
//! monitored-linking rounds pass to Algorithm 2's trace back.
//!
//! A [`LinkContext`] stands for one database and link target and holds
//! only the target: constructing one is free. The constrained-decoding
//! state — a [`Vocab`] covering every candidate element plus the
//! [`Trie`] over those elements (built through
//! [`crate::traceback::table_trie_in`] /
//! [`crate::traceback::column_trie_in`]) — is built from the caller's
//! [`DbMeta`] inside [`LinkContext::implicated_elements`], and only
//! when the trace back reaches the trie-completion step.
//!
//! The completion step runs only when a stream ends mid-element.
//! Every generated round ends in `;`, which flushes the trailing
//! element, so runtime trace backs never get there and never build a
//! trie; only truncated streams (tests, benches) pay for one.
//!
//! ## Why the context cannot re-key generation
//!
//! The context vocabulary deliberately does **not** replace the
//! per-round generation vocabulary. `simlm` seeds every token's
//! hidden-state gaussian streams from the *numeric token id* (see
//! `layer_key(tok, layer, inst, pos)` in `simlm::model`), and the
//! per-round `Vocab::new()` assigns ids in emission order — an
//! instance-dependent order no shared vocabulary can reproduce.
//! Re-keying generation onto the context's schema-order ids would
//! change hidden states, hence mBPP flags, hence every committed
//! `results/*.json`. The bit-identity contract (pinned by the
//! `context_linking_matches_reference` parity proptests) therefore
//! fixes the boundary: generation keeps its own id space; the context
//! owns everything downstream of the emitted *strings* — decode,
//! trace back, and trie completion — where only names matter.
//! [`LinkContext::implicated_elements`] bridges the two id spaces by
//! translating the (short) trailing partial through token text.

use crate::traceback::{column_trie_in, table_trie_in, trace_back_reference};
use benchgen::schemagen::DbMeta;
use benchgen::Benchmark;
use simlm::{LinkTarget, TokenId, Trie, Vocab};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-`(DbMeta, LinkTarget)` linking handle.
#[derive(Debug, Clone)]
pub struct LinkContext {
    target: LinkTarget,
}

impl LinkContext {
    /// The context for one database and link target. Nothing is
    /// precomputed: the candidate vocabulary and trie are built from
    /// the `DbMeta` each [`Self::implicated_elements`] call passes, on
    /// the calls that need them.
    pub fn new(_meta: &DbMeta, target: LinkTarget) -> Self {
        Self { target }
    }

    pub fn target(&self) -> LinkTarget {
        self.target
    }

    /// Algorithm 2 with the context's trie: implicated elements for a
    /// flag at `branch_pos` of `tokens`, where `tokens` live in the
    /// generation vocabulary `gen_vocab`, on the database `meta`.
    ///
    /// Identical to the clone-per-flag reference
    /// ([`implicated_elements_reference`]) on every complete stream:
    /// decoding compares element *names*, which are id-space agnostic.
    /// Only when a truncated stream ends mid-element does the trie act:
    /// the candidate vocabulary and trie are built from `meta` (schema
    /// interning order — *not* the generation id space), and the
    /// partial's tokens are translated into that id space through their
    /// text (a handful of lookups — candidate elements only ever
    /// tokenize into schema subwords, which the context vocabulary
    /// covers by construction).
    pub fn implicated_elements(
        &self,
        meta: &DbMeta,
        gen_vocab: &Vocab,
        tokens: &[TokenId],
        branch_pos: usize,
    ) -> Vec<String> {
        crate::traceback::trace_back_with(gen_vocab, tokens, branch_pos, |partial| {
            #[cfg(test)]
            tests::COMPLETIONS.with(|n| n.set(n.get() + 1));
            let (vocab, trie) = candidate_trie(meta, self.target);
            let translated: Option<Vec<TokenId>> = partial
                .iter()
                .map(|&t| vocab.get(gen_vocab.text(t)))
                .collect();
            trie.cheapest_completion(&translated?)
                .map(|(_suffix, name)| name.to_string())
        })
    }
}

/// The candidate vocabulary (context id space) and the
/// constrained-decoding trie over every candidate element of `meta`.
fn candidate_trie(meta: &DbMeta, target: LinkTarget) -> (Vocab, Trie) {
    let mut vocab = Vocab::new();
    let trie = match target {
        LinkTarget::Tables => table_trie_in(&mut vocab, meta),
        LinkTarget::Columns => column_trie_in(&mut vocab, meta),
    };
    (vocab, trie)
}

/// The clone-per-flag reference for [`LinkContext::implicated_elements`]:
/// clone the generation vocabulary, rebuild the candidate trie in its id
/// space, and trace back by re-decoding the full prefix each step —
/// exactly what every flag paid before the shared context existed. Kept
/// as the test oracle for the context's trace back
/// (`context_implicated_sets_match_rebuild`) and as the implicated-set
/// source of a session opened without a context, a test oracle only.
pub fn implicated_elements_reference(
    gen_vocab: &Vocab,
    meta: &DbMeta,
    target: LinkTarget,
    tokens: &[TokenId],
    branch_pos: usize,
) -> Vec<String> {
    let mut v = gen_vocab.clone();
    let trie = match target {
        LinkTarget::Tables => table_trie_in(&mut v, meta),
        LinkTarget::Columns => column_trie_in(&mut v, meta),
    };
    trace_back_reference(&v, &trie, tokens, branch_pos)
}

/// Registry of [`LinkContext`]s for a whole benchmark: one per
/// `(database, target)`, built once and shared by every instance and
/// worker thread.
#[derive(Debug)]
pub struct LinkContexts {
    tables: HashMap<String, LinkContext>,
    columns: HashMap<String, LinkContext>,
}

impl LinkContexts {
    /// Contexts for every database of `bench`, both targets.
    pub fn build(bench: &Benchmark) -> Self {
        Self::from_metas(&bench.metas)
    }

    /// Contexts from database metadata directly.
    pub fn from_metas(metas: &[DbMeta]) -> Self {
        let tables = metas
            .iter()
            .map(|m| (m.name.clone(), LinkContext::new(m, LinkTarget::Tables)))
            .collect();
        let columns = metas
            .iter()
            .map(|m| (m.name.clone(), LinkContext::new(m, LinkTarget::Columns)))
            .collect();
        Self { tables, columns }
    }

    /// The context for one database and target. Panics on an unknown
    /// database (instances always reference a database of their
    /// benchmark).
    pub fn get(&self, db_name: &str, target: LinkTarget) -> &LinkContext {
        let map = match target {
            LinkTarget::Tables => &self.tables,
            LinkTarget::Columns => &self.columns,
        };
        map.get(db_name)
            .unwrap_or_else(|| panic!("no LinkContext for database {db_name}"))
    }

    /// Number of databases covered.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Hit/miss/eviction counters of a [`ContextCache`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ContextCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl ContextCacheStats {
    /// Fraction of lookups served from cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fold another snapshot's counters into this one — how a sharded
    /// engine aggregates its per-shard caches into one fleet view.
    pub fn absorb(&mut self, other: ContextCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// Stable database→shard assignment: FNV-1a over the database name,
/// reduced modulo the shard count.
///
/// This is the routing function a sharded serving deployment keys its
/// per-database partitioning on (workers, [`ContextCache`] instances,
/// on-disk placement), so it must be a *revision-stable* pure function
/// of the name: the same database lands on the same shard across
/// processes, restarts, and releases. `std`'s `DefaultHasher` is
/// explicitly unsuitable (its output may change between Rust releases
/// and is randomly keyed per process); FNV-1a
/// ([`tinynn::rng::fnv1a`]) is fixed by its two published constants,
/// and a unit test pins concrete assignments so a change here is a
/// deliberate re-sharding, never an accident.
pub fn db_shard(db: &str, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    (tinynn::rng::fnv1a(db.as_bytes()) % n_shards as u64) as usize
}

/// One cached context plus its LRU recency stamp. The stamp is atomic
/// so cache *hits* — the steady state — update recency under the read
/// lock, keeping lookups reader-parallel.
#[derive(Debug)]
struct CacheEntry {
    ctx: Arc<LinkContext>,
    /// Schema-drift epoch the context was built for
    /// ([`DbMeta::revision`]); a lookup with a newer revision treats
    /// the entry as stale and rebuilds.
    revision: u64,
    last_used: AtomicU64,
}

/// Lazily-built, capacity-bounded cache of [`LinkContext`]s — the
/// online-serving counterpart of the eager [`LinkContexts`] registry.
///
/// Batch drivers know their whole benchmark up front, so
/// [`LinkContexts::build`] builds every `(database, target)` context
/// before the fan-out. A serving engine doesn't: tenants arrive one
/// request at a time, against a database population it need not hold
/// in memory at once. [`ContextCache::get`] builds a context the first
/// time its `(database, target)` pair is requested and shares it as
/// an [`Arc`] from then on (sessions keep their clone alive across
/// eviction — an LRU drop never invalidates an in-flight request).
/// A context precomputes nothing (see [`LinkContext`]), so a miss costs
/// one small allocation; the cache keeps the engine's per-database
/// hit/miss/eviction accounting.
///
/// Concurrency: lookups take the shard's read lock only (recency is an
/// atomic stamp), so the hot path is reader-parallel across workers;
/// builds happen outside any lock and the insert re-checks for a
/// concurrent winner. Eviction (least-recently-used within the
/// target's shard) only runs under the write lock of a miss.
#[derive(Debug)]
pub struct ContextCache {
    tables: parking_lot::RwLock<HashMap<String, CacheEntry>>,
    columns: parking_lot::RwLock<HashMap<String, CacheEntry>>,
    /// Max entries per target shard; 0 = unbounded (a pure lazy
    /// registry).
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ContextCache {
    /// An empty cache holding at most `capacity` databases per target
    /// (`0` = unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            tables: parking_lot::RwLock::new(HashMap::new()),
            columns: parking_lot::RwLock::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, target: LinkTarget) -> &parking_lot::RwLock<HashMap<String, CacheEntry>> {
        match target {
            LinkTarget::Tables => &self.tables,
            LinkTarget::Columns => &self.columns,
        }
    }

    /// The context for `(meta, target)`, built on first request. An
    /// entry built for an older [`DbMeta::revision`] is stale —
    /// schema drift — and is rebuilt in place; callers already holding
    /// the old `Arc` (in-flight sessions) are unaffected.
    pub fn get(&self, meta: &DbMeta, target: LinkTarget) -> Arc<LinkContext> {
        let shard = self.shard(target);
        {
            let map = shard.read();
            if let Some(entry) = map.get(&meta.name) {
                if entry.revision == meta.revision {
                    entry
                        .last_used
                        .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return entry.ctx.clone();
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Build outside any lock, so a miss never serializes unrelated
        // lookups.
        let built = Arc::new(LinkContext::new(meta, target));
        let mut map = shard.write();
        if let Some(entry) = map.get(&meta.name) {
            if entry.revision == meta.revision {
                // A concurrent miss won the race; use its context and
                // drop ours.
                entry
                    .last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                return entry.ctx.clone();
            }
            // Stale revision: replacing in place below (no capacity
            // change), billed as an eviction.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        } else if self.capacity > 0 && map.len() >= self.capacity {
            let victim = map
                // rts-allow(iter-order): LRU victim choice only
                // affects which entry is rebuilt later (cache hit/miss
                // counters), never the built context — outputs are
                // pinned by the parity matrix regardless of eviction
                // order.
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(
            meta.name.clone(),
            CacheEntry {
                ctx: built.clone(),
                revision: meta.revision,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
        built
    }

    /// Drop every cached context of `db` (both targets) — the explicit
    /// schema-drift signal: the next lookup rebuilds against the
    /// current [`DbMeta`]. In-flight sessions keep their pinned
    /// `Arc<LinkContext>` alive; invalidation changes what *new*
    /// lookups see, never what running ones hold. Returns the number
    /// of entries dropped (billed as evictions).
    pub fn invalidate_db(&self, db: &str) -> usize {
        let mut dropped = 0;
        for shard in [&self.tables, &self.columns] {
            if shard.write().remove(db).is_some() {
                dropped += 1;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        dropped
    }

    /// Number of resident contexts across both targets.
    pub fn len(&self) -> usize {
        self.tables.read().len() + self.columns.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ContextCacheStats {
        ContextCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchgen::BenchmarkProfile;
    use simlm::{GenMode, SchemaLinker};
    use std::cell::Cell;

    thread_local! {
        /// Trie completions run on this thread: each one builds a
        /// candidate vocabulary and trie.
        pub(super) static COMPLETIONS: Cell<usize> = const { Cell::new(0) };
    }

    fn completions() -> usize {
        COMPLETIONS.with(Cell::get)
    }

    #[test]
    fn context_trie_covers_every_candidate() {
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(91);
        for meta in &bench.metas {
            // Every candidate tokenizes in the context vocab and
            // completes in the trie.
            let (vocab, trie) = candidate_trie(meta, LinkTarget::Tables);
            assert_eq!(trie.len(), meta.tables.len());
            for t in &meta.tables {
                let ids = vocab.try_encode_identifier(&t.name).unwrap();
                assert_eq!(trie.complete(&ids), Some(t.name.as_str()));
            }
            let (_, trie) = candidate_trie(meta, LinkTarget::Columns);
            assert_eq!(trie.len(), meta.total_columns());
        }
    }

    #[test]
    fn cached_trie_implicated_sets_match_clone_per_flag_reference() {
        // The tentpole parity bar: on flagged dev generations the
        // shared-context implicated set must equal the clone-per-flag
        // reference element for element — across both targets and every
        // branch position of the stream.
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(92);
        let model = SchemaLinker::new("bird", 24);
        let contexts = LinkContexts::build(&bench);
        let mut flagged = 0usize;
        for inst in bench.split.dev.iter() {
            let meta = bench.meta(&inst.db_name).unwrap();
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, target, GenMode::Free);
                let ctx = contexts.get(&inst.db_name, target);
                for branch_pos in trace
                    .steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_branch)
                    .map(|(p, _)| p)
                {
                    let cached = ctx.implicated_elements(meta, &vocab, &trace.tokens, branch_pos);
                    let reference = implicated_elements_reference(
                        &vocab,
                        meta,
                        target,
                        &trace.tokens,
                        branch_pos,
                    );
                    assert_eq!(
                        cached, reference,
                        "instance {} target {target:?} branch {branch_pos}",
                        inst.id
                    );
                    flagged += 1;
                }
            }
        }
        assert!(flagged > 20, "too few flagged positions: {flagged}");
    }

    /// The stream cut just before its first `,` or `;`: it ends inside
    /// the first element, so a flag on its last token traces back
    /// through the trie-completion step.
    fn first_element_cut(vocab: &Vocab, tokens: &[TokenId]) -> Option<usize> {
        let seps = [
            vocab.get(simlm::vocab::TOK_COMMA),
            vocab.get(simlm::vocab::TOK_END),
        ];
        tokens
            .iter()
            .position(|&t| seps.contains(&Some(t)))
            .filter(|&cut| cut > 0)
    }

    #[test]
    fn contexts_are_shared_across_threads() {
        // Read-only: borrow one registry from a parallel fan-out and
        // check results equal the serial loop.
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(93);
        let model = SchemaLinker::new("bird", 25);
        let contexts = LinkContexts::build(&bench);
        let instances: Vec<benchgen::Instance> = bench.split.dev.to_vec();
        let run = |inst: &benchgen::Instance| {
            let meta = bench.meta(&inst.db_name).unwrap();
            let mut vocab = Vocab::new();
            let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
            let ctx = contexts.get(&inst.db_name, LinkTarget::Tables);
            trace
                .steps
                .iter()
                .position(|s| s.is_branch)
                .map(|p| ctx.implicated_elements(meta, &vocab, &trace.tokens, p))
        };
        let parallel = crate::par::par_map(&instances, run);
        let serial: Vec<_> = instances.iter().map(run).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn runtime_linking_never_builds_a_trie() {
        // Every generated round ends in `;`, so no runtime trace back
        // reaches the trie: linking every dev instance, both targets,
        // under every policy runs no trie completion.
        use crate::abstention::{run_rts_linking_in, LinkScratch, MitigationPolicy, RtsConfig};
        use crate::bpp::{Mbpp, MbppConfig, ProbeConfig};
        use crate::branching::BranchDataset;
        use crate::human::{Expertise, HumanOracle};
        use crate::surrogate::SurrogateModel;

        let bench = BenchmarkProfile::bird_like().scaled(0.03).generate(99);
        let model = SchemaLinker::new("bird", 26);
        let contexts = LinkContexts::build(&bench);
        let surrogate = SurrogateModel::train(&bench, 27);
        let oracle = HumanOracle::new(Expertise::Expert, 28);
        let policies = [
            MitigationPolicy::AbstainOnly,
            MitigationPolicy::Surrogate(&surrogate),
            MitigationPolicy::Human(&oracle),
        ];
        let config = RtsConfig::default();
        let mut scratch = LinkScratch::default();
        let (mut flags, mut consults) = (0usize, 0usize);
        let before = completions();
        for target in [LinkTarget::Tables, LinkTarget::Columns] {
            let ds = BranchDataset::build(&model, &bench.split.train, target, 200);
            let mbpp = Mbpp::train(
                &ds,
                &MbppConfig {
                    probe: ProbeConfig {
                        epochs: 4,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            );
            for policy in &policies {
                for inst in &bench.split.dev {
                    let meta = bench.meta(&inst.db_name).unwrap();
                    let ctx = contexts.get(&inst.db_name, target);
                    let out = run_rts_linking_in(
                        &model,
                        &mbpp,
                        inst,
                        meta,
                        ctx,
                        policy,
                        &config,
                        &mut scratch,
                    );
                    flags += out.n_flags;
                    consults += out.n_interventions;
                }
            }
        }
        assert!(
            flags > 0 && consults > 0,
            "flags {flags}, consults {consults}"
        );
        assert_eq!(completions(), before, "runtime linking built a trie");

        // A stream that ends mid-element reaches the trie once per
        // trace back, and answers as the reference does.
        let (inst, vocab, tokens) = bench
            .split
            .dev
            .iter()
            .find_map(|inst| {
                let mut vocab = Vocab::new();
                let trace = model.generate(inst, &mut vocab, LinkTarget::Tables, GenMode::Free);
                let cut = first_element_cut(&vocab, &trace.tokens)?;
                Some((inst, vocab, trace.tokens[..cut].to_vec()))
            })
            .expect("a stream with a complete first element");
        let meta = bench.meta(&inst.db_name).unwrap();
        let ctx = contexts.get(&inst.db_name, LinkTarget::Tables);
        let answer = ctx.implicated_elements(meta, &vocab, &tokens, tokens.len() - 1);
        assert_eq!(
            completions(),
            before + 1,
            "a truncated stream reaches the trie"
        );
        assert_eq!(
            answer,
            implicated_elements_reference(
                &vocab,
                meta,
                LinkTarget::Tables,
                &tokens,
                tokens.len() - 1
            )
        );
    }

    #[test]
    fn registry_covers_every_database_once() {
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(94);
        let contexts = LinkContexts::build(&bench);
        assert_eq!(contexts.len(), bench.metas.len());
        assert!(!contexts.is_empty());
        for meta in &bench.metas {
            for target in [LinkTarget::Tables, LinkTarget::Columns] {
                assert_eq!(contexts.get(&meta.name, target).target(), target);
            }
        }
    }

    #[test]
    fn cache_builds_lazily_and_counts_hits() {
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(95);
        let cache = ContextCache::new(0);
        assert!(cache.is_empty());
        let meta = &bench.metas[0];
        let a = cache.get(meta, LinkTarget::Tables);
        let b = cache.get(meta, LinkTarget::Tables);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the built context");
        assert_eq!(cache.len(), 1, "only the requested pair is built");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(a.target(), LinkTarget::Tables);
    }

    #[test]
    fn cache_evicts_least_recently_used_per_target() {
        let bench = BenchmarkProfile::bird_like().scaled(0.02).generate(96);
        assert!(bench.metas.len() >= 3, "need ≥3 databases for eviction");
        let cache = ContextCache::new(2);
        let (a, b, c) = (&bench.metas[0], &bench.metas[1], &bench.metas[2]);
        let ctx_a = cache.get(a, LinkTarget::Tables);
        let _ = cache.get(b, LinkTarget::Tables);
        let _ = cache.get(a, LinkTarget::Tables); // refresh a: b is now LRU
        let _ = cache.get(c, LinkTarget::Tables); // evicts b
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // An evicted-and-refetched entry rebuilds (miss), a kept one hits.
        let before = cache.stats().misses;
        let _ = cache.get(a, LinkTarget::Tables);
        assert_eq!(cache.stats().misses, before, "a must still be resident");
        let _ = cache.get(b, LinkTarget::Tables);
        assert_eq!(cache.stats().misses, before + 1, "b was evicted");
        // The Arc held across eviction stays usable.
        assert_eq!(ctx_a.target(), LinkTarget::Tables);
    }

    #[test]
    fn cache_rebuilds_on_revision_bump_and_invalidate() {
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(98);
        let cache = ContextCache::new(0);
        let meta = &bench.metas[0];
        let old = cache.get(meta, LinkTarget::Tables);

        // Schema drift: the same database at a newer revision must not
        // be served the stale entry.
        let mut drifted = meta.clone();
        drifted.revision += 1;
        let new = cache.get(&drifted, LinkTarget::Tables);
        assert!(!Arc::ptr_eq(&old, &new), "revision bump must rebuild");
        assert_eq!(cache.len(), 1, "stale entry replaced, not duplicated");
        assert_eq!(cache.stats().evictions, 1, "replacement billed");
        // The current revision now hits.
        assert!(Arc::ptr_eq(&new, &cache.get(&drifted, LinkTarget::Tables)));

        // Explicit invalidation detaches future lookups too.
        let before = cache.stats();
        assert_eq!(cache.invalidate_db(&meta.name), 1, "one target cached");
        assert_eq!(cache.stats().evictions, before.evictions + 1);
        let rebuilt = cache.get(&drifted, LinkTarget::Tables);
        assert!(!Arc::ptr_eq(&new, &rebuilt), "invalidate must rebuild");
        // Arcs pinned before the drift stay fully usable (an in-flight
        // session finishes on the context it started with).
        assert_eq!(old.target(), LinkTarget::Tables);
        // Unknown databases are a no-op, not a panic.
        assert_eq!(cache.invalidate_db("no_such_db"), 0);
    }

    #[test]
    fn db_shard_assignments_are_pinned_across_revisions() {
        // These are FNV-1a(name) mod n — recorded constants, not
        // derived in-test, so any change to the hash constants or the
        // reduction shows up as a failed pin (a deliberate re-sharding
        // must update this test *knowingly*).
        assert_eq!(db_shard("schools_0", 2), 1);
        assert_eq!(db_shard("finance_1", 2), 1);
        assert_eq!(db_shard("medical_3", 2), 0);
        assert_eq!(db_shard("schools_0", 4), 1);
        assert_eq!(db_shard("retail_2", 4), 3);
        assert_eq!(db_shard("medical_3", 4), 2);
        assert_eq!(db_shard("", 4), 1, "empty name is the FNV offset basis");
        // Degenerate shard counts collapse to shard 0.
        assert_eq!(db_shard("anything", 1), 0);
        assert_eq!(db_shard("anything", 0), 0);
        // Stability across repeated calls (pure function of the name).
        for n in 1..8 {
            assert_eq!(db_shard("schools_0", n), db_shard("schools_0", n));
            assert!(n <= 1 || db_shard("schools_0", n) < n);
        }
    }

    #[test]
    fn db_shard_spreads_generated_databases() {
        let bench = BenchmarkProfile::bird_like().scaled(0.03).generate(77);
        let n = 4;
        let mut counts = vec![0usize; n];
        for meta in &bench.metas {
            counts[db_shard(&meta.name, n)] += 1;
        }
        let populated = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            populated >= 2,
            "a realistic database population must span shards: {counts:?}"
        );
    }

    #[test]
    fn cache_stats_absorb_sums_counters() {
        let mut a = ContextCacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        a.absorb(ContextCacheStats {
            hits: 1,
            misses: 3,
            evictions: 2,
        });
        assert_eq!((a.hits, a.misses, a.evictions), (4, 4, 2));
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_is_shared_across_threads() {
        let bench = BenchmarkProfile::bird_like().scaled(0.01).generate(97);
        let cache = ContextCache::new(0);
        let instances: Vec<benchgen::Instance> = bench.split.dev.to_vec();
        let targets = crate::par::par_map(&instances, |inst| {
            let meta = bench.meta(&inst.db_name).unwrap();
            cache.get(meta, LinkTarget::Tables).target()
        });
        assert!(targets.iter().all(|&t| t == LinkTarget::Tables));
        let stats = cache.stats();
        // The resident set must match the distinct databases requested
        // (racing misses may both bill a miss but insert only once).
        let distinct: std::collections::HashSet<&str> =
            instances.iter().map(|i| i.db_name.as_str()).collect();
        assert_eq!(cache.len(), distinct.len());
        assert_eq!(stats.hits + stats.misses, instances.len() as u64);
    }
}
