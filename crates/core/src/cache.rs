//! Memoized T-factory designs: a bounded, persistent design store shared
//! across estimation runs (and, through snapshots, across processes).
//!
//! The distillation-pipeline search ([`TFactoryBuilder::find_factory`]) is
//! the most expensive stage of an estimate, and the paper's workloads repeat
//! it constantly: a hardware-profile sweep re-designs factories per profile,
//! and the Pareto frontier re-runs the *same* design for every factory-copy
//! cap. [`FactoryCache`] memoizes designs keyed by everything the search
//! depends on — the physical qubit model's numeric parameters, the QEC
//! scheme's constants and formula sources, the search configuration
//! (distillation units, round/distance limits), and the required T-state
//! output error — so a warm [`crate::Estimator`] skips the search entirely
//! for repeated scenarios.
//!
//! Both successful designs and deterministic failures
//! ([`Error::NoTFactory`]) are cached; the search is a pure function of the
//! key. The cache is internally synchronized and safe to share across the
//! worker threads of a parallel batch.
//!
//! ## Scoping model: one store, per-view counters
//!
//! A cache value is two separable things: the design *store* (behind its own
//! [`Arc`]) and the hit/miss *counters* (owned by each view).
//! [`FactoryCache::scoped`] hands out sibling views that share every
//! memoized design while counting their own lookups — the shape a
//! long-running job server needs: one process-wide store, exact per-job
//! statistics even while jobs run concurrently. Store-level quantities
//! (entries, capacity, evictions) are shared by every sibling; lookup
//! counters (hits, misses) are per-view.
//!
//! ## Bounded size and eviction
//!
//! [`FactoryCache::with_capacity`] bounds the store to at most `capacity`
//! designs, evicting the **least recently used** entry whenever an insert
//! would exceed the bound (every lookup hit refreshes its entry's recency).
//! Evictions are counted exactly in [`CacheStats::evictions`]; an evicted
//! design is simply re-searched (and re-counted as a miss) if its scenario
//! comes back. An unbounded cache ([`FactoryCache::new`]) never evicts.
//!
//! ## Persistence: versioned JSON snapshots
//!
//! [`FactoryCache::save`] writes the store as a versioned JSON snapshot and
//! [`FactoryCache::load`] merges one back, so a design store can outlive its
//! process (the `qre serve --cache-file` flow). The snapshot document is
//!
//! ```json
//! {
//!   "format": "qre-factory-cache",
//!   "version": 1,
//!   "entries": [ { "key": { "words": [...], "text": "..." }, "design": { ... } }, ... ]
//! }
//! ```
//!
//! where `format` must equal [`SNAPSHOT_FORMAT`] and `version` must equal
//! [`SNAPSHOT_VERSION`]; anything else is rejected with a descriptive
//! [`Error::InvalidInput`] so callers can warn loudly and fall back to a
//! cold start instead of silently trusting a foreign file. Every `f64` in a
//! snapshot is stored as its IEEE-754 bit pattern (a `u64`), making a
//! save→load round trip **bit-exact**: a loaded design is indistinguishable
//! from the one the search produced, and cache keys (which fingerprint
//! floats by bit pattern) match exactly. Entries are written in
//! least-recently-used-first order, so loading a snapshot into a cache with
//! a smaller capacity keeps the most recently used designs. Saves are
//! atomic (write to a unique temporary file, then rename), so a crash never
//! leaves a half-written snapshot behind.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};
use crate::physical_qubit::{InstructionSet, PhysicalQubit};
use crate::qec::QecScheme;
use crate::tfactory::{FactoryRound, RoundLevel, SearchStats, TFactory, TFactoryBuilder};
use qre_json::{ObjectBuilder, Value};

/// Snapshot document type tag ([`FactoryCache::save`] writes it,
/// [`FactoryCache::load`] requires it).
pub const SNAPSHOT_FORMAT: &str = "qre-factory-cache";

/// Snapshot schema version. Bump on any incompatible change to the entry
/// encoding; [`FactoryCache::load`] rejects every other version loudly.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Bit-exact fingerprint of one factory-design problem.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FactoryKey {
    /// `f64::to_bits` / integer words of every numeric input, in a fixed
    /// field order.
    words: Vec<u64>,
    /// Unit-separated concatenation of every textual input (unit names,
    /// formula sources, instruction sets).
    text: String,
}

/// Incremental [`FactoryKey`] builder.
#[derive(Debug, Default)]
struct KeyBuilder {
    words: Vec<u64>,
    text: String,
}

impl KeyBuilder {
    fn f64(&mut self, v: f64) {
        self.words.push(v.to_bits());
    }

    fn u64(&mut self, v: u64) {
        self.words.push(v);
    }

    fn str(&mut self, s: &str) {
        self.text.push_str(s);
        self.text.push('\u{1f}');
    }

    fn instruction_set(&mut self, set: InstructionSet) {
        self.str(set.name());
    }

    fn finish(self) -> FactoryKey {
        FactoryKey {
            words: self.words,
            text: self.text,
        }
    }
}

/// Fingerprint of a design *family*: every search input **except** the
/// required output error. Two problems in one family differ only in how far
/// the pipeline must distill — exactly the shape of neighbouring sweep items
/// — so a completed family member's (achieved error, volume) is a valid
/// incumbent seed for any member with a looser-or-equal requirement (see
/// [`Store::seed_volume`]).
fn family_key(builder: &TFactoryBuilder, qubit: &PhysicalQubit, scheme: &QecScheme) -> FactoryKey {
    let mut k = KeyBuilder::default();
    // Qubit model: every field the search reads. The profile name is
    // cosmetic and deliberately excluded, so renamed-but-identical models
    // share designs.
    k.instruction_set(qubit.instruction_set);
    k.f64(qubit.one_qubit_gate_time_ns);
    k.f64(qubit.two_qubit_gate_time_ns);
    k.f64(qubit.one_qubit_measurement_time_ns);
    k.f64(qubit.two_qubit_measurement_time_ns);
    k.f64(qubit.t_gate_time_ns);
    k.f64(qubit.one_qubit_gate_error);
    k.f64(qubit.two_qubit_gate_error);
    k.f64(qubit.one_qubit_measurement_error);
    k.f64(qubit.two_qubit_measurement_error);
    k.f64(qubit.t_gate_error);
    k.f64(qubit.idle_error);
    // QEC scheme: constants plus the formula *sources* (formulas are pure).
    k.instruction_set(scheme.instruction_set);
    k.f64(scheme.error_correction_threshold);
    k.f64(scheme.crossing_prefactor);
    k.str(scheme.logical_cycle_time.source());
    k.str(scheme.physical_qubits_per_logical_qubit.source());
    k.u64(u64::from(scheme.max_code_distance));
    // Search configuration.
    k.u64(builder.max_rounds as u64);
    k.u64(u64::from(builder.max_code_distance));
    k.u64(builder.units.len() as u64);
    for unit in &builder.units {
        // The unit name is part of the key: it appears verbatim in the
        // realised factory's rounds, so same-shape units with different
        // names must not share cache entries.
        k.str(&unit.name);
        k.u64(unit.num_input_ts);
        k.u64(unit.num_output_ts);
        k.str(unit.failure_probability.source());
        k.str(unit.output_error_rate.source());
        match &unit.physical {
            Some(p) => {
                k.u64(1);
                k.u64(p.qubits);
                k.u64(p.duration_cycles);
            }
            None => k.u64(0),
        }
        match &unit.logical {
            Some(l) => {
                k.u64(1);
                k.u64(l.logical_qubits);
                k.u64(l.duration_logical_cycles);
            }
            None => k.u64(0),
        }
        k.u64(u64::from(unit.first_round_only));
    }
    k.finish()
}

/// The full problem fingerprint: the family plus the required output error
/// (appended last, preserving the exact word order of snapshot version 1).
fn factory_key(family: &FactoryKey, required: f64) -> FactoryKey {
    let mut words = family.words.clone();
    words.push(required.to_bits());
    FactoryKey {
        words,
        text: family.text.clone(),
    }
}

/// Hit/miss/size/eviction counters of a [`FactoryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (including lookups that raced a
    /// concurrent search and adopted its first-written result). Per-view:
    /// a [`FactoryCache::scoped`] sibling counts its own.
    pub hits: u64,
    /// Lookups whose search populated the cache: exactly one per distinct
    /// key, however many threads race on it. Per-view, like `hits`.
    pub misses: u64,
    /// Distinct designs currently stored. Store-level: shared by every
    /// scoped sibling.
    pub entries: usize,
    /// Designs evicted to respect the capacity bound, since the store was
    /// created. Store-level, like `entries`; always 0 for an unbounded
    /// cache.
    pub evictions: u64,
    /// The store's capacity bound (`None` = unbounded).
    pub capacity: Option<usize>,
}

/// One stored design with its LRU bookkeeping.
#[derive(Debug, Clone)]
struct Slot {
    value: Result<TFactory>,
    /// Logical timestamp of the last lookup or insert that touched this
    /// entry (larger = more recent).
    last_used: u64,
}

/// Most design families tracked for incumbent seeding before the map is
/// reset. Seeds are a pure optimisation (the search result is identical
/// with or without one), so a coarse clear-on-overflow policy is enough to
/// bound a long-running server's memory.
const FAMILY_BOUNDS_CAP: usize = 256;

/// Most (achieved error, volume) points kept per family staircase. The
/// Pareto retention below keeps real staircases tiny; this is a backstop.
const FAMILY_STAIRCASE_CAP: usize = 64;

/// The shared design store: entries plus the state that must be common to
/// every scoped view (capacity bound, LRU clock, eviction count), plus the
/// per-family incumbent bounds that warm-start neighbouring searches.
#[derive(Debug, Default)]
struct Store {
    entries: HashMap<FactoryKey, Slot>,
    capacity: Option<usize>,
    clock: u64,
    evictions: u64,
    /// Per-family Pareto staircase of completed designs, as (achieved
    /// output error, volume) points. Never persisted in snapshots: seeds
    /// only accelerate searches, they never change results.
    family_bounds: HashMap<FactoryKey, Vec<(f64, f64)>>,
}

impl Store {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Look up a key, refreshing its recency on a hit.
    fn touch(&mut self, key: &FactoryKey) -> Option<Result<TFactory>> {
        let stamp = self.tick();
        let slot = self.entries.get_mut(key)?;
        slot.last_used = stamp;
        Some(slot.value.clone())
    }

    /// Insert a design, then evict least-recently-used entries until the
    /// capacity bound holds again. (With `capacity == Some(0)` the fresh
    /// entry itself is evicted immediately: the store stays empty and every
    /// lookup is a miss, which keeps the counters exact even in the
    /// degenerate configuration.)
    fn insert(&mut self, key: FactoryKey, value: Result<TFactory>) {
        let stamp = self.tick();
        self.entries.insert(
            key,
            Slot {
                value,
                last_used: stamp,
            },
        );
        if let Some(capacity) = self.capacity {
            while self.entries.len() > capacity {
                let oldest = self
                    .entries
                    .iter()
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("non-empty store over capacity");
                self.entries.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// The best achievable incumbent seed for a family member requiring
    /// `required`: the smallest recorded volume among designs whose achieved
    /// output error already meets `required`. Such a design is itself a
    /// valid solution of the new problem, so its volume is an upper bound
    /// the branch-and-bound may prune against from the first node.
    fn seed_volume(&self, family: &FactoryKey, required: f64) -> Option<f64> {
        let points = self.family_bounds.get(family)?;
        points
            .iter()
            .filter(|(achieved, _)| *achieved <= required)
            .map(|(_, volume)| *volume)
            .min_by(f64::total_cmp)
    }

    /// Record a completed design's (achieved error, volume) point on its
    /// family staircase, keeping only Pareto-useful points (a point beaten
    /// on both axes can never be the chosen seed).
    fn record_bound(&mut self, family: FactoryKey, achieved: f64, volume: f64) {
        if self.family_bounds.len() >= FAMILY_BOUNDS_CAP
            && !self.family_bounds.contains_key(&family)
        {
            self.family_bounds.clear();
        }
        let points = self.family_bounds.entry(family).or_default();
        if points.iter().any(|&(a, v)| a <= achieved && v <= volume) {
            return;
        }
        points.retain(|&(a, v)| !(achieved <= a && volume <= v));
        points.push((achieved, volume));
        if points.len() > FAMILY_STAIRCASE_CAP {
            // Backstop: drop the loosest point; tight seeds serve the most
            // family members.
            if let Some(worst) = points
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
                .map(|(i, _)| i)
            {
                points.swap_remove(worst);
            }
        }
    }
}

/// Thread-safe, bounded, persistable memo table for T-factory pipeline
/// searches.
///
/// The design *store* sits behind its own [`Arc`], separate from the
/// hit/miss counters, so [`FactoryCache::scoped`] can hand out sibling
/// cache views that share every memoized design while counting their own
/// lookups — the shape a long-running job server needs: one process-wide
/// store, exact per-job statistics even while jobs run concurrently.
///
/// The store can be **bounded** ([`FactoryCache::with_capacity`]): inserts
/// beyond the capacity evict the least-recently-used design (every hit
/// refreshes recency), with evictions counted exactly in
/// [`CacheStats::evictions`]. It can also be **persisted**
/// ([`FactoryCache::save`] / [`FactoryCache::load`]): a versioned JSON
/// snapshot (`"format": "qre-factory-cache"`, `"version"` =
/// [`SNAPSHOT_VERSION`]) in which every `f64` is stored as its IEEE-754
/// bit pattern, so a save→load round trip reproduces designs bit-exactly;
/// corrupt or version-mismatched snapshots are rejected with a descriptive
/// error and leave the store untouched.
#[derive(Debug, Default)]
pub struct FactoryCache {
    store: Arc<Mutex<Store>>,
    hits: AtomicU64,
    misses: AtomicU64,
    search: SearchCountersAtomic,
}

/// Aggregated pipeline-search counters of one cache view (the
/// `--search-stats` record): how many searches ran, how many were
/// warm-started from a family seed, and the summed [`SearchStats`] of all
/// of them. Like hits/misses, these are **per-view** — a
/// [`FactoryCache::scoped`] sibling counts its own searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Pipeline searches this view actually ran (= cache misses that
    /// reached the searcher).
    pub searches: u64,
    /// Searches whose incumbent was seeded from a completed family
    /// neighbour's volume.
    pub seeded_searches: u64,
    /// Summed per-search counters (nodes expanded/pruned, memo hits,
    /// factories realised).
    pub totals: SearchStats,
}

/// Lock-free accumulator behind [`SearchCounters`].
#[derive(Debug, Default)]
struct SearchCountersAtomic {
    searches: AtomicU64,
    seeded_searches: AtomicU64,
    nodes_expanded: AtomicU64,
    nodes_pruned_bound: AtomicU64,
    nodes_pruned_dominated: AtomicU64,
    memo_hits: AtomicU64,
    factories_realised: AtomicU64,
}

impl SearchCountersAtomic {
    fn record(&self, seeded: bool, stats: &SearchStats) {
        self.searches.fetch_add(1, Ordering::Relaxed);
        if seeded {
            self.seeded_searches.fetch_add(1, Ordering::Relaxed);
        }
        self.nodes_expanded
            .fetch_add(stats.nodes_expanded, Ordering::Relaxed);
        self.nodes_pruned_bound
            .fetch_add(stats.nodes_pruned_bound, Ordering::Relaxed);
        self.nodes_pruned_dominated
            .fetch_add(stats.nodes_pruned_dominated, Ordering::Relaxed);
        self.memo_hits.fetch_add(stats.memo_hits, Ordering::Relaxed);
        self.factories_realised
            .fetch_add(stats.factories_realised, Ordering::Relaxed);
    }

    fn load(&self) -> SearchCounters {
        SearchCounters {
            searches: self.searches.load(Ordering::Relaxed),
            seeded_searches: self.seeded_searches.load(Ordering::Relaxed),
            totals: SearchStats {
                nodes_expanded: self.nodes_expanded.load(Ordering::Relaxed),
                nodes_pruned_bound: self.nodes_pruned_bound.load(Ordering::Relaxed),
                nodes_pruned_dominated: self.nodes_pruned_dominated.load(Ordering::Relaxed),
                memo_hits: self.memo_hits.load(Ordering::Relaxed),
                factories_realised: self.factories_realised.load(Ordering::Relaxed),
            },
        }
    }
}

/// Monotonic discriminator for temporary snapshot files, so concurrent
/// saves (e.g. a periodic save racing the shutdown save) never interleave
/// writes into one temporary file. The rename itself is atomic either way.
static SAVE_DISCRIMINATOR: AtomicU64 = AtomicU64::new(0);

impl FactoryCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that stores at most `capacity` designs, evicting the
    /// least recently used entry when an insert would exceed the bound.
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = FactoryCache::new();
        cache.store.lock().expect("factory cache lock").capacity = Some(capacity);
        cache
    }

    /// The store's capacity bound (`None` = unbounded). Shared with every
    /// [`FactoryCache::scoped`] sibling.
    pub fn capacity(&self) -> Option<usize> {
        self.store.lock().expect("factory cache lock").capacity
    }

    /// A sibling view of this cache: it shares the stored designs (a hit in
    /// either is visible to both, as are capacity and evictions) but starts
    /// from zeroed hit/miss counters, so a caller can attribute lookups to
    /// one scope (e.g. one server job) exactly, even while other scopes use
    /// the same store concurrently.
    pub fn scoped(&self) -> FactoryCache {
        FactoryCache {
            store: Arc::clone(&self.store),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            search: SearchCountersAtomic::default(),
        }
    }

    /// Memoized [`TFactoryBuilder::find_factory`]: returns the cached design
    /// (or cached deterministic failure) when the full problem fingerprint
    /// matches, running the search otherwise.
    pub fn find_factory(
        &self,
        builder: &TFactoryBuilder,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
    ) -> Result<TFactory> {
        let family = family_key(builder, qubit, scheme);
        let key = factory_key(&family, required);
        let seed = {
            let mut store = self.store.lock().expect("factory cache lock");
            if let Some(cached) = store.touch(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return cached;
            }
            // Miss: pick up an incumbent seed from a completed family
            // neighbour (same problem, different required error) before
            // releasing the lock.
            store.seed_volume(&family, required)
        };
        // Search outside the lock: concurrent misses on the same key may
        // duplicate work once, but never block each other on the (long)
        // pipeline search. Insertion is first-write-wins — a racer that
        // finds the entry already present counts as a hit and returns the
        // stored design, so `misses` counts exactly the searches that
        // populated the cache and every caller sees one canonical result.
        let (mut designed, stats) = builder.find_factory_with_stats(qubit, scheme, required, seed);
        self.search.record(seed.is_some(), &stats);
        if designed.is_err() && seed.is_some() {
            // A recorded family bound is always achievable, so a seeded
            // search can only fail where the unseeded one would. Still,
            // never let the optimisation turn into a wrong answer: re-run
            // without the seed before trusting a failure.
            let (cold, cold_stats) = builder.find_factory_with_stats(qubit, scheme, required, None);
            self.search.record(false, &cold_stats);
            designed = cold;
        }
        let mut store = self.store.lock().expect("factory cache lock");
        match store.touch(&key) {
            Some(existing) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                existing
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Ok(factory) = &designed {
                    store.record_bound(family, factory.output_error_rate, factory.volume());
                }
                store.insert(key, designed.clone());
                designed
            }
        }
    }

    /// This view's aggregated pipeline-search counters (see
    /// [`SearchCounters`]). Per-view, like hits/misses.
    pub fn search_counters(&self) -> SearchCounters {
        self.search.load()
    }

    /// Current counters. `hits`/`misses` are this view's; `entries`,
    /// `evictions`, and `capacity` are the shared store's.
    pub fn stats(&self) -> CacheStats {
        let store = self.store.lock().expect("factory cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: store.entries.len(),
            evictions: store.evictions,
            capacity: store.capacity,
        }
    }

    /// Serialize the store as a versioned snapshot document (see the module
    /// docs for the format). Entries are ordered least-recently-used first,
    /// so loading into a smaller-capacity cache keeps the freshest designs.
    pub fn snapshot(&self) -> Value {
        let store = self.store.lock().expect("factory cache lock");
        let mut slots: Vec<(&FactoryKey, &Slot)> = store.entries.iter().collect();
        slots.sort_by_key(|(_, slot)| slot.last_used);
        let entries: Vec<Value> = slots
            .into_iter()
            .filter_map(|(key, slot)| entry_to_json(key, &slot.value))
            .collect();
        ObjectBuilder::new()
            .field("format", SNAPSHOT_FORMAT)
            .field("version", SNAPSHOT_VERSION)
            .field("entries", Value::Array(entries))
            .build()
    }

    /// Merge a snapshot document into this cache, returning how many of the
    /// snapshot's designs the store **retained**. Entries whose key is
    /// already present are skipped (the search is pure, so the stored
    /// design is identical); the capacity bound applies as usual, evicting
    /// if the merge overflows it — designs the bound discarded on the spot
    /// are not counted, so the return value is the warm state the caller
    /// actually gained, not the insert attempts. Fails with
    /// [`Error::InvalidInput`] — without touching the store — when the
    /// document is not a snapshot, names another format, or carries a
    /// different [`SNAPSHOT_VERSION`].
    pub fn load_snapshot(&self, doc: &Value) -> Result<usize> {
        let invalid = |msg: String| Error::InvalidInput(format!("factory-cache snapshot: {msg}"));
        if doc.as_object().is_none() {
            return Err(invalid("not a JSON object".into()));
        }
        match doc.get("format").and_then(Value::as_str) {
            Some(SNAPSHOT_FORMAT) => {}
            Some(other) => return Err(invalid(format!("unknown format `{other}`"))),
            None => return Err(invalid("missing `format` field".into())),
        }
        match doc.get("version").and_then(Value::as_u64) {
            Some(SNAPSHOT_VERSION) => {}
            Some(other) => {
                return Err(invalid(format!(
                    "version {other} is not the supported version {SNAPSHOT_VERSION}"
                )))
            }
            None => return Err(invalid("missing integer `version` field".into())),
        }
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("missing `entries` array".into()))?;
        // Decode every entry before touching the store: a corrupt entry
        // rejects the whole snapshot instead of half-loading it.
        let mut decoded = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            decoded
                .push(entry_from_json(entry).map_err(|e| invalid(format!("entries[{i}]: {e}")))?);
        }
        let mut store = self.store.lock().expect("factory cache lock");
        let mut inserted: Vec<FactoryKey> = Vec::new();
        for (key, value) in decoded {
            if !store.entries.contains_key(&key) {
                store.insert(key.clone(), value);
                inserted.push(key);
            }
        }
        // Count what survived, not what was attempted: a capacity-bounded
        // store may have evicted part of the snapshot immediately, and
        // callers report this number as the session's warm state.
        Ok(inserted
            .iter()
            .filter(|key| store.entries.contains_key(*key))
            .count())
    }

    /// Write the snapshot to `path` atomically (unique temporary file in
    /// the same directory, then rename), returning how many designs were
    /// persisted. A crash mid-save leaves any previous snapshot intact.
    pub fn save(&self, path: &Path) -> std::result::Result<usize, String> {
        let snapshot = self.snapshot();
        let persisted = snapshot
            .get("entries")
            .and_then(Value::as_array)
            .map_or(0, <[Value]>::len);
        let discriminator = SAVE_DISCRIMINATOR.fetch_add(1, Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}.{discriminator}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let write = std::fs::write(&tmp, snapshot.to_string_compact())
            .and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "failed to save cache snapshot to {}: {e}",
                path.display()
            ));
        }
        Ok(persisted)
    }

    /// Read a snapshot file and merge it into this cache (see
    /// [`FactoryCache::load_snapshot`]), returning how many designs the
    /// store retained. Unreadable files, non-JSON content, and format/version
    /// mismatches all return a descriptive error and leave the store
    /// untouched — callers are expected to warn and continue cold.
    pub fn load(&self, path: &Path) -> std::result::Result<usize, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read cache snapshot {}: {e}", path.display()))?;
        let doc = qre_json::parse(&text)
            .map_err(|e| format!("cache snapshot {} is not JSON: {e}", path.display()))?;
        self.load_snapshot(&doc)
            .map_err(|e| format!("cache snapshot {}: {e}", path.display()))
    }
}

// ---------------------------------------------------------------------------
// Snapshot encoding. Every f64 is stored as its IEEE-754 bit pattern (u64),
// so the round trip is bit-exact; qre-json preserves u64 exactly.
// ---------------------------------------------------------------------------

fn bits(v: f64) -> Value {
    Value::from(v.to_bits())
}

fn f64_field(v: &Value, key: &str) -> std::result::Result<f64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .map(f64::from_bits)
        .ok_or_else(|| format!("missing bit-pattern field `{key}`"))
}

fn u64_field(v: &Value, key: &str) -> std::result::Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn str_field<'a>(v: &'a Value, key: &str) -> std::result::Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

/// Encode one store entry, or `None` for values that cannot round-trip
/// (error kinds other than the deterministic [`Error::NoTFactory`], which
/// in practice never reach the store).
fn entry_to_json(key: &FactoryKey, value: &Result<TFactory>) -> Option<Value> {
    let key_json = ObjectBuilder::new()
        .field(
            "words",
            Value::Array(key.words.iter().map(|w| Value::from(*w)).collect()),
        )
        .field("text", key.text.as_str())
        .build();
    let value_json = match value {
        Ok(factory) => ObjectBuilder::new()
            .field("design", factory_to_json(factory))
            .build(),
        Err(Error::NoTFactory { required }) => ObjectBuilder::new()
            .field(
                "noTFactory",
                ObjectBuilder::new()
                    .field("requiredBits", bits(*required))
                    .build(),
            )
            .build(),
        Err(_) => return None,
    };
    let mut entry = ObjectBuilder::new().field("key", key_json).build();
    if let (Value::Object(pairs), Value::Object(tail)) = (&mut entry, value_json) {
        pairs.extend(tail);
    }
    Some(entry)
}

fn entry_from_json(entry: &Value) -> std::result::Result<(FactoryKey, Result<TFactory>), String> {
    let key = entry.get("key").ok_or("missing `key` object")?;
    let words = key
        .get("words")
        .and_then(Value::as_array)
        .ok_or("missing `key.words` array")?
        .iter()
        .map(|w| w.as_u64().ok_or_else(|| "non-integer key word".to_string()))
        .collect::<std::result::Result<Vec<u64>, String>>()?;
    let text = str_field(key, "text")?.to_owned();
    let key = FactoryKey { words, text };
    if let Some(design) = entry.get("design") {
        return Ok((key, Ok(factory_from_json(design)?)));
    }
    if let Some(failure) = entry.get("noTFactory") {
        let required = f64_field(failure, "requiredBits")?;
        return Ok((key, Err(Error::NoTFactory { required })));
    }
    Err("entry carries neither `design` nor `noTFactory`".into())
}

fn factory_to_json(f: &TFactory) -> Value {
    let rounds: Vec<Value> = f
        .rounds
        .iter()
        .map(|r| {
            ObjectBuilder::new()
                .field("unit", r.unit_name.as_str())
                .field(
                    "codeDistance",
                    match r.level {
                        RoundLevel::Physical => 0u64,
                        RoundLevel::Logical { code_distance } => u64::from(code_distance),
                    },
                )
                .field("copies", r.copies)
                .field("inputErrorRateBits", bits(r.input_error_rate))
                .field("outputErrorRateBits", bits(r.output_error_rate))
                .field("failureProbabilityBits", bits(r.failure_probability))
                .field("physicalQubitsPerUnit", r.physical_qubits_per_unit)
                .field("durationNsBits", bits(r.duration_ns))
                .build()
        })
        .collect();
    ObjectBuilder::new()
        .field("physicalQubits", f.physical_qubits)
        .field("durationNsBits", bits(f.duration_ns))
        .field("outputErrorRateBits", bits(f.output_error_rate))
        .field("outputTStates", f.output_t_states)
        .field("inputErrorRateBits", bits(f.input_error_rate))
        .field("rounds", Value::Array(rounds))
        .build()
}

fn factory_from_json(v: &Value) -> std::result::Result<TFactory, String> {
    let rounds = v
        .get("rounds")
        .and_then(Value::as_array)
        .ok_or("missing `rounds` array")?
        .iter()
        .map(|r| {
            let code_distance = u64_field(r, "codeDistance")?;
            let level = if code_distance == 0 {
                RoundLevel::Physical
            } else {
                RoundLevel::Logical {
                    code_distance: u32::try_from(code_distance)
                        .map_err(|_| "codeDistance out of range".to_string())?,
                }
            };
            Ok(FactoryRound {
                unit_name: str_field(r, "unit")?.to_owned(),
                level,
                copies: u64_field(r, "copies")?,
                input_error_rate: f64_field(r, "inputErrorRateBits")?,
                output_error_rate: f64_field(r, "outputErrorRateBits")?,
                failure_probability: f64_field(r, "failureProbabilityBits")?,
                physical_qubits_per_unit: u64_field(r, "physicalQubitsPerUnit")?,
                duration_ns: f64_field(r, "durationNsBits")?,
            })
        })
        .collect::<std::result::Result<Vec<FactoryRound>, String>>()?;
    Ok(TFactory {
        rounds,
        physical_qubits: u64_field(v, "physicalQubits")?,
        duration_ns: f64_field(v, "durationNsBits")?,
        output_error_rate: f64_field(v, "outputErrorRateBits")?,
        output_t_states: u64_field(v, "outputTStates")?,
        input_error_rate: f64_field(v, "inputErrorRateBits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> (TFactoryBuilder, PhysicalQubit, QecScheme) {
        (
            TFactoryBuilder::default(),
            PhysicalQubit::qubit_maj_ns_e4(),
            QecScheme::floquet_code(),
        )
    }

    #[test]
    fn second_lookup_hits_and_matches_cold() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let first = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let second = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let cold = b.find_factory(&q, &s, 1e-10).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, cold);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.capacity, None);
    }

    #[test]
    fn distinct_requirements_are_distinct_entries() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        cache.find_factory(&b, &q, &s, 1e-11).unwrap();
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn qubit_parameters_invalidate_the_key() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let mut q2 = q.clone();
        q2.t_gate_error = 0.04;
        cache.find_factory(&b, &q2, &s, 1e-10).unwrap();
        assert_eq!(cache.stats().misses, 2);
        // A rename alone, though, still hits.
        let mut q3 = q.clone();
        q3.name = "renamed".into();
        cache.find_factory(&b, &q3, &s, 1e-10).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn failures_are_cached_too() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        for _ in 0..2 {
            match cache.find_factory(&b, &q, &s, 1e-60) {
                Err(Error::NoTFactory { .. }) => {}
                other => panic!("expected NoTFactory, got {other:?}"),
            }
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn concurrent_misses_on_one_key_count_once() {
        // Many threads racing the same cold key: each runs the search
        // outside the lock, but only the first writer may count a miss or
        // store its design — the rest adopt the stored result as hits.
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let threads = 8;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| cache.find_factory(&b, &q, &s, 1e-10).unwrap()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one populating search per key");
        assert_eq!(stats.hits, threads - 1);
        assert_eq!(stats.entries, 1);
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all racers see the first-written design");
        }
    }

    #[test]
    fn scoped_views_share_designs_but_not_counters() {
        let (b, q, s) = problem();
        let base = FactoryCache::new();
        base.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(base.stats().misses, 1);

        // A scope opened afterwards sees the stored design as a hit…
        let job = base.scoped();
        assert_eq!((job.stats().hits, job.stats().misses), (0, 0));
        job.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!((job.stats().hits, job.stats().misses), (1, 0));
        // …without touching the base view's counters.
        assert_eq!((base.stats().hits, base.stats().misses), (0, 1));

        // A miss inside a scope populates the shared store for everyone.
        job.find_factory(&b, &q, &s, 1e-11).unwrap();
        assert_eq!(job.stats().misses, 1);
        assert_eq!(base.stats().entries, 2);
        base.find_factory(&b, &q, &s, 1e-11).unwrap();
        assert_eq!(base.stats().hits, 1);
    }

    /// Distinct design problems: the same scenario at progressively tighter
    /// requirements (each `required` is part of the key).
    fn requirement(i: usize) -> f64 {
        1e-8 * 0.5f64.powi(i as i32)
    }

    #[test]
    fn capacity_is_respected_and_evictions_are_counted() {
        let (b, q, s) = problem();
        let cache = FactoryCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        for i in 0..5 {
            cache.find_factory(&b, &q, &s, requirement(i)).unwrap();
            assert!(cache.stats().entries <= 2, "capacity bound violated");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 3, "exactly overflow count evictions");
        assert_eq!(stats.capacity, Some(2));
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let (b, q, s) = problem();
        let cache = FactoryCache::with_capacity(2);
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        // Refresh entry 0, then overflow: entry 1 is now the LRU victim.
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        cache.find_factory(&b, &q, &s, requirement(2)).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        // Entry 0 survived (hit); entry 1 was evicted (miss again).
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(cache.stats().misses, 3);
        cache.find_factory(&b, &q, &s, requirement(1)).unwrap();
        assert_eq!(cache.stats().misses, 4, "evicted design re-searched");
    }

    #[test]
    fn evicted_designs_recompute_identically() {
        let (b, q, s) = problem();
        let bounded = FactoryCache::with_capacity(1);
        let first = bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        bounded.find_factory(&b, &q, &s, requirement(1)).unwrap(); // evicts 0
        let again = bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(first, again, "re-searched design is identical");
        assert!(bounded.stats().evictions >= 2);
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        let design = cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert!(cache.find_factory(&b, &q, &s, 1e-60).is_err()); // cached failure
        let doc = cache.snapshot();
        assert_eq!(doc.get("format").unwrap().as_str(), Some(SNAPSHOT_FORMAT));
        assert_eq!(doc.get("version").unwrap().as_u64(), Some(SNAPSHOT_VERSION));

        // Round trip through the *printed* form, as the file flow does.
        let reparsed = qre_json::parse(&doc.to_string_compact()).unwrap();
        let fresh = FactoryCache::new();
        assert_eq!(fresh.load_snapshot(&reparsed).unwrap(), 2);
        let warm = fresh.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(warm, design, "loaded design is bit-identical");
        match fresh.find_factory(&b, &q, &s, 1e-60) {
            Err(Error::NoTFactory { required }) => assert_eq!(required, 1e-60),
            other => panic!("expected cached NoTFactory, got {other:?}"),
        }
        let stats = fresh.stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "all lookups warm");
    }

    #[test]
    fn load_snapshot_skips_known_keys() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        let doc = cache.snapshot();
        assert_eq!(cache.load_snapshot(&doc).unwrap(), 0, "nothing new to add");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_are_rejected() {
        let cache = FactoryCache::new();
        let reject = |doc: &str, needle: &str| {
            let err = cache
                .load_snapshot(&qre_json::parse(doc).unwrap())
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "`{needle}` not in `{err}`");
        };
        reject("{}", "format");
        reject(
            r#"{"format": "something-else", "version": 1}"#,
            "something-else",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 999, "entries": []}"#,
            "version 999",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 1}"#,
            "entries",
        );
        reject(
            r#"{"format": "qre-factory-cache", "version": 1, "entries": [ {"key": 5} ]}"#,
            "entries[0]",
        );
        reject("[1, 2]", "object");
        assert_eq!(cache.stats().entries, 0, "rejected loads leave no residue");
    }

    #[test]
    fn save_and_load_files() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        cache.find_factory(&b, &q, &s, 1e-10).unwrap();
        cache.find_factory(&b, &q, &s, 1e-11).unwrap();
        let path = std::env::temp_dir().join(format!(
            "qre-cache-test-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        assert_eq!(cache.save(&path).unwrap(), 2);

        let fresh = FactoryCache::new();
        assert_eq!(fresh.load(&path).unwrap(), 2);
        fresh.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(fresh.stats().hits, 1);

        // Corrupt file: descriptive error, store untouched.
        std::fs::write(&path, "definitely { not json").unwrap();
        let untouched = FactoryCache::new();
        let err = untouched.load(&path).unwrap_err();
        assert!(err.contains("not JSON"), "{err}");
        assert_eq!(untouched.stats().entries, 0);

        // Missing file: descriptive error too.
        std::fs::remove_file(&path).unwrap();
        assert!(untouched
            .load(&path)
            .unwrap_err()
            .contains("failed to read"));
    }

    #[test]
    fn snapshot_orders_entries_for_capacity_truncation() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        for i in 0..4 {
            cache.find_factory(&b, &q, &s, requirement(i)).unwrap();
        }
        // Refresh entry 0 so it is the most recently used.
        cache.find_factory(&b, &q, &s, requirement(0)).unwrap();

        let bounded = FactoryCache::with_capacity(2);
        let retained = bounded.load_snapshot(&cache.snapshot()).unwrap();
        assert_eq!(retained, 2, "only surviving designs are reported");
        let stats = bounded.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 2);
        // The refreshed entry survived the truncating load.
        bounded.find_factory(&b, &q, &s, requirement(0)).unwrap();
        assert_eq!(bounded.stats().hits, 1, "most recent design kept");
    }

    #[test]
    fn family_neighbours_seed_the_incumbent_without_changing_results() {
        let (b, q, s) = problem();
        let cache = FactoryCache::new();
        // Tight requirement first: its achieved error also meets the looser
        // requirement, so the second search starts with a warm incumbent.
        let tight = cache.find_factory(&b, &q, &s, 1e-11).unwrap();
        assert!(tight.output_error_rate <= 1e-11);
        assert_eq!(cache.search_counters().seeded_searches, 0);
        let loose = cache.find_factory(&b, &q, &s, 1e-9).unwrap();
        let counters = cache.search_counters();
        assert_eq!(counters.searches, 2);
        assert_eq!(counters.seeded_searches, 1, "neighbour bound must seed");
        assert_eq!(
            loose,
            b.find_factory(&q, &s, 1e-9).unwrap(),
            "a seeded search returns exactly the cold search's design"
        );
    }

    #[test]
    fn search_counters_are_per_view_and_cleared_with_the_cache() {
        let (b, q, s) = problem();
        let base = FactoryCache::new();
        base.find_factory(&b, &q, &s, 1e-10).unwrap();
        let c = base.search_counters();
        assert_eq!(c.searches, 1);
        assert!(c.totals.nodes_expanded > 0);
        assert!(c.totals.memo_hits > 0);
        assert!(c.totals.factories_realised > 0);

        // A sibling view counts its own searches; a cache hit runs none.
        let job = base.scoped();
        assert_eq!(job.search_counters(), SearchCounters::default());
        job.find_factory(&b, &q, &s, 1e-10).unwrap();
        assert_eq!(job.search_counters().searches, 0, "hit runs no search");
        assert_eq!(base.search_counters().searches, 1);
    }

    #[test]
    fn concurrent_scoped_views_at_cap_account_exactly() {
        // The serve shape under deliberate cache pressure: several scoped
        // views (one per "job") hammer a store whose capacity is smaller
        // than the shared working set, so every round churns evictions.
        // The accounting must stay exact anyway: the capacity bound holds
        // at every observation, per-view hits+misses tally every lookup,
        // and the store-level eviction count equals populating inserts
        // minus surviving entries.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(4);
        let keys = 8usize;
        let rounds = 3usize;
        let threads = 4usize;
        let view_stats: Vec<CacheStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let view = base.scoped();
                    let b = &b;
                    let q = &q;
                    let s = &s;
                    scope.spawn(move || {
                        for r in 0..rounds {
                            for k in 0..keys {
                                // Offset the walk per thread so views
                                // genuinely interleave different keys.
                                let key = (k + t * 3 + r) % keys;
                                let _ = view.find_factory(b, q, s, requirement(key));
                                assert!(
                                    view.stats().entries <= 4,
                                    "capacity bound violated mid-churn"
                                );
                            }
                        }
                        view.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let lookups: u64 = (threads * rounds * keys) as u64;
        let view_hits: u64 = view_stats.iter().map(|v| v.hits).sum();
        let view_misses: u64 = view_stats.iter().map(|v| v.misses).sum();
        assert_eq!(
            view_hits + view_misses,
            lookups,
            "every lookup is exactly one hit or one miss in its view"
        );
        let store = base.stats();
        assert_eq!((store.hits, store.misses), (0, 0), "base view ran nothing");
        assert_eq!(store.capacity, Some(4));
        assert!(store.entries <= 4);
        assert!(
            store.evictions > 0,
            "working set of 8 over cap 4 must churn"
        );
        // Every counted miss inserted exactly one fresh key; every eviction
        // removed exactly one. What survives is the difference.
        assert_eq!(
            store.entries as u64,
            view_misses - store.evictions,
            "inserts - evictions != surviving entries"
        );
    }

    #[test]
    fn eviction_churn_recomputes_designs_identically_across_views() {
        // Interleaved scoped views over a cap-2 store with 5 live keys:
        // designs are constantly evicted and re-searched, but every view
        // must see the same design for the same key every time.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(2);
        let cold: Vec<TFactory> = (0..5)
            .map(|k| b.find_factory(&q, &s, requirement(k)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let view = base.scoped();
                let b = &b;
                let q = &q;
                let s = &s;
                let cold = &cold;
                scope.spawn(move || {
                    for r in 0..3 {
                        for k in 0..5 {
                            let key = (k + t + r) % 5;
                            let design = view.find_factory(b, q, s, requirement(key)).unwrap();
                            assert_eq!(
                                design, cold[key],
                                "churned design for key {key} diverged from cold search"
                            );
                        }
                    }
                });
            }
        });
        assert!(base.stats().evictions >= 5, "cap 2 under 5 keys must churn");
    }

    #[test]
    fn snapshot_save_races_eviction_churn() {
        // A periodic saver (the serve --save-every flow) racing insert +
        // eviction churn: every snapshot it writes must be internally
        // consistent — atomic on disk, loadable into a fresh cache, and
        // never larger than the capacity bound, because snapshot() sees
        // the store only between (locked) insert-evict steps.
        let (b, q, s) = problem();
        let base = FactoryCache::with_capacity(3);
        // Pre-populate one entry so even a saver that only gets scheduled
        // after the churner finished observes a non-empty store.
        base.scoped()
            .find_factory(&b, &q, &s, requirement(0))
            .unwrap();
        let path = std::env::temp_dir().join(format!(
            "qre-cache-race-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        std::thread::scope(|scope| {
            let churner = {
                let view = base.scoped();
                let b = &b;
                let q = &q;
                let s = &s;
                scope.spawn(move || {
                    for r in 0..4 {
                        for k in 0..6 {
                            let _ = view.find_factory(b, q, s, requirement((k + r) % 6));
                        }
                    }
                })
            };
            let saver = {
                let view = base.scoped();
                let path = path.clone();
                scope.spawn(move || {
                    let mut max_saved = 0usize;
                    let mut last_pass = false;
                    // Always run at least one pass, and one final pass after
                    // the churner has finished, so a late-scheduled saver
                    // still exercises save + reload at least twice.
                    while !last_pass {
                        last_pass = churner.is_finished();
                        let saved = view.save(&path).expect("save during churn");
                        assert!(saved <= 3, "snapshot larger than the capacity bound");
                        max_saved = max_saved.max(saved);
                        let fresh = FactoryCache::new();
                        let retained = fresh.load(&path).expect("saved snapshot must load");
                        assert_eq!(retained, saved, "snapshot lost entries on disk");
                        assert_eq!(fresh.stats().entries, retained);
                    }
                    max_saved
                })
            };
            let max_saved = saver.join().unwrap();
            // The churner kept at least filling the store, so at least one
            // mid-churn snapshot observed a non-empty state.
            assert!(max_saved > 0, "saver never observed a populated store");
        });
        // One final save after the dust settles still round-trips.
        let saved = base.save(&path).unwrap();
        let fresh = FactoryCache::new();
        assert_eq!(fresh.load(&path).unwrap(), saved);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn family_staircase_keeps_only_useful_seed_points() {
        let mut store = Store::default();
        let fam = FactoryKey {
            words: vec![1],
            text: String::new(),
        };
        store.record_bound(fam.clone(), 1e-9, 100.0);
        store.record_bound(fam.clone(), 1e-9, 200.0); // dominated: dropped
        store.record_bound(fam.clone(), 1e-12, 50.0); // dominates the first
        assert_eq!(store.family_bounds.get(&fam).unwrap().len(), 1);
        assert_eq!(store.seed_volume(&fam, 1e-9), Some(50.0));
        assert_eq!(store.seed_volume(&fam, 1e-12), Some(50.0));
        assert_eq!(store.seed_volume(&fam, 1e-13), None, "no achievable seed");
        let other = FactoryKey {
            words: vec![2],
            text: String::new(),
        };
        assert_eq!(store.seed_volume(&other, 1e-9), None, "families isolated");
    }
}
