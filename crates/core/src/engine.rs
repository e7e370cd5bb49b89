//! The estimation engine: the one way to run a scenario, over a shared,
//! memoized T-factory cache.
//!
//! [`Estimator`] is the centre of the public API. Every consumer — the CLI's
//! single jobs, job arrays and sweep form, the figure harness, the serve
//! sessions, and the qubit/runtime frontier — runs through it. One request
//! runs with [`Estimator::estimate`]; its trade-off curves with
//! [`Estimator::frontier`] and [`Estimator::frontier_searched`]. Declared
//! sweeps run through one streamed execution core
//! ([`qre_par::parallel_map_streamed`]): items run in parallel and their
//! outcomes are delivered **as they finish**, with per-item errors reported
//! in place rather than aborting the sweep. Three consumption styles layer
//! on top of that single path:
//!
//! * collecting — [`Estimator::sweep`] stitches streamed outcomes back into
//!   expansion order,
//! * observer callback — [`Estimator::sweep_with`] hands each outcome to a
//!   closure in completion order (progress bars, NDJSON),
//! * iterator — [`Estimator::sweep_stream`] moves execution to a background
//!   thread and yields outcomes in completion order as an [`Iterator`].
//!
//! The engine owns a [`FactoryCache`] (behind an [`Arc`], so streams share
//! it): the expensive distillation-pipeline search is memoized across every
//! estimate the engine runs, so repeated scenarios (a profile sweep re-run,
//! the frontier's dozens of re-estimates of one scenario) skip the search
//! entirely.
//!
//! ## Sharing, bounding, and persisting the cache
//!
//! [`Estimator::with_cache`] builds an engine over a caller-provided
//! [`Arc<FactoryCache>`], which is how wider scopes compose:
//!
//! * **process-wide** — many engines (e.g. one per server job) over one
//!   store, each via [`FactoryCache::scoped`] for exact per-engine counters;
//! * **bounded** — a store built with [`FactoryCache::with_capacity`]
//!   evicts least-recently-used designs, keeping week-long sessions at a
//!   fixed memory ceiling ([`crate::CacheStats::evictions`] counts exactly);
//! * **cross-process** — [`FactoryCache::save`] / [`FactoryCache::load`]
//!   snapshot the store to a versioned JSON file, so the next process (or
//!   the next `qre serve --cache-file` session) starts warm.
//!
//! See the [`FactoryCache`] docs for the scoping model and the snapshot
//! format.

use std::sync::mpsc;
use std::sync::Arc;

use crate::budget::PartitionSearch;
use crate::cache::{CacheStats, FactoryCache};
use crate::error::{Error, Result};
use crate::frontier::FrontierPoint;
use crate::request::{EstimateRequest, SweepPoint, SweepSpec};
use crate::result::EstimationResult;

/// A reusable estimation session: single estimates, frontiers, and parallel
/// sweeps over a shared memoized T-factory cache.
///
/// ```
/// use qre_core::{Estimator, EstimateRequest, PhysicalQubit, QecSchemeKind};
/// use qre_circuit::LogicalCounts;
///
/// let counts = LogicalCounts::builder()
///     .logical_qubits(50)
///     .t_gates(10_000)
///     .measurements(5_000)
///     .build();
/// let request = EstimateRequest::builder()
///     .counts(counts)
///     .profile(PhysicalQubit::qubit_gate_ns_e3())
///     .qec(QecSchemeKind::SurfaceCode)
///     .total_error_budget(1e-3)
///     .build()
///     .unwrap();
/// let engine = Estimator::new();
/// let result = engine.estimate(&request).unwrap();
/// assert!(result.physical_counts.physical_qubits > 0);
/// // A repeated estimate hits the factory cache.
/// engine.estimate(&request).unwrap();
/// assert!(engine.cache_stats().hits >= 1);
/// ```
#[derive(Debug, Default)]
pub struct Estimator {
    cache: Arc<FactoryCache>,
}

/// Outcome of one sweep item, in expansion (row-major) order.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The item's axis coordinates.
    pub point: SweepPoint,
    /// The item's result; failures are reported here without affecting
    /// sibling items.
    pub outcome: Result<EstimationResult>,
}

impl Estimator {
    /// A fresh engine with an empty factory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine over a caller-provided (possibly process-wide) factory
    /// cache; engines built from the same [`Arc`] share every memoized
    /// design.
    pub fn with_cache(cache: Arc<FactoryCache>) -> Self {
        Estimator { cache }
    }

    /// Estimate one request through the shared cache.
    pub fn estimate(&self, request: &EstimateRequest) -> Result<EstimationResult> {
        request.estimate_with(&self.cache)
    }

    /// Expand a sweep's cartesian product and estimate every item in
    /// parallel. Outcomes come back in expansion (row-major) order with
    /// per-item errors in place; only an expansion error (an empty
    /// mandatory axis, an overflowing axis product) fails the whole sweep.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<Vec<SweepOutcome>> {
        let items = spec.expand()?;
        Ok(qre_par::parallel_map(&items, |(point, request)| {
            self.sweep_outcome(point, request)
        }))
    }

    /// Estimate one expanded sweep item (shared by the collecting, observer,
    /// and iterator forms).
    fn sweep_outcome(&self, point: &SweepPoint, request: &Result<EstimateRequest>) -> SweepOutcome {
        SweepOutcome {
            point: point.clone(),
            outcome: match request {
                Ok(request) => self.estimate(request),
                Err(e) => Err(e.clone()),
            },
        }
    }

    /// Streamed sweep execution: expand the cartesian product, estimate
    /// every item in parallel, and hand each [`SweepOutcome`] to
    /// `on_outcome` **in completion order** (the outcome's `point.index`
    /// identifies its position in the expansion). Returns the number of
    /// expanded items; only an expansion error fails the whole sweep.
    /// This is the execution core [`Estimator::sweep`] collects from.
    pub fn sweep_with<F>(&self, spec: &SweepSpec, mut on_outcome: F) -> Result<usize>
    where
        F: FnMut(SweepOutcome),
    {
        let items = spec.expand()?;
        let total = items.len();
        qre_par::parallel_map_streamed(
            &items,
            |_, (point, request)| self.sweep_outcome(point, request),
            |_, outcome| on_outcome(outcome),
        );
        Ok(total)
    }

    /// Streamed sweep execution as an [`Iterator`]: expands the spec now
    /// (expansion errors surface immediately), runs the items on a
    /// background thread sharing this engine's factory cache, and yields
    /// outcomes in completion order.
    ///
    /// Dropping the stream early cancels the run: undelivered outcomes are
    /// discarded, no further items start, and the drop blocks only until
    /// the in-flight items finish. A panicking item re-raises on the
    /// consumer at the `next()` that observes the end of the stream.
    pub fn sweep_stream(&self, spec: &SweepSpec) -> Result<SweepStream> {
        let items = spec.expand()?;
        let cache = Arc::clone(&self.cache);
        Ok(SweepStream::spawn(items.len(), move |sender| {
            let engine = Estimator::with_cache(cache);
            qre_par::parallel_map_streamed_until(
                &items,
                |_, (point, request)| engine.sweep_outcome(point, request),
                // A dropped receiver is the consumer hanging up: stop
                // claiming new items and wind down.
                |_, outcome| match sender.send(outcome) {
                    Ok(()) => std::ops::ControlFlow::Continue(()),
                    Err(_) => std::ops::ControlFlow::Break(()),
                },
            );
        }))
    }

    /// Explore the qubit/runtime frontier of one request through the shared
    /// cache: the factory design is computed once and reused by every
    /// factory-cap re-estimate.
    pub fn frontier(&self, request: &EstimateRequest) -> Result<Vec<FrontierPoint>> {
        crate::frontier::frontier(self, request)
    }

    /// Explore the two-axis (error-budget partition × factory-copy cap)
    /// frontier of one request through the shared cache. The candidate
    /// partitions come from `search`'s grid over the request's own total
    /// budget; factory designs are shared per required-T-error family, so
    /// grid points that land in the same family reuse one design. The
    /// result weakly dominates [`Estimator::frontier`]'s point-for-point.
    pub fn frontier_searched(
        &self,
        request: &EstimateRequest,
        search: &PartitionSearch,
    ) -> Result<Vec<FrontierPoint>> {
        crate::frontier::frontier_searched(self, request, search)
    }

    /// Hit/miss/size counters of the factory cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Aggregated pipeline-search counters of this engine's cache view
    /// (searches run, seeded searches, nodes expanded/pruned, memo hits) —
    /// the record behind the CLI's `--search-stats` flag.
    ///
    /// Sweeps and frontiers share incumbent bounds through the cache: every
    /// completed design records its (achieved error, volume) for its design
    /// *family* (same qubit model, scheme, and search configuration), and a
    /// later item of the same family that only moves the required T error
    /// starts its branch-and-bound from that neighbour's volume instead of
    /// from scratch. `seeded_searches` counts how often that fired.
    pub fn search_stats(&self) -> crate::cache::SearchCounters {
        self.cache.search_counters()
    }

    /// The underlying cache (for advanced composition).
    pub fn cache(&self) -> &FactoryCache {
        &self.cache
    }
}

/// Iterator over outcomes of a streamed sweep, yielding items in completion
/// order from a background execution thread.
///
/// Produced by [`Estimator::sweep_stream`]. Each yielded outcome carries its
/// [`SweepPoint`], so consumers can attribute results without assuming
/// expansion order. The background thread is joined when the stream is
/// exhausted or dropped; a panic raised by an item propagates to the
/// consumer at that join.
#[derive(Debug)]
pub struct SweepStream {
    /// `Some` until the stream ends or is dropped; dropping the receiver is
    /// the hang-up signal that stops the background run early.
    receiver: Option<mpsc::Receiver<SweepOutcome>>,
    worker: Option<std::thread::JoinHandle<()>>,
    total: usize,
    delivered: usize,
}

impl SweepStream {
    /// Run `work` on a background thread feeding this stream's channel. The
    /// nested-parallelism guard of the calling thread is replayed on the
    /// background thread, so a stream opened from inside a parallel worker
    /// still degrades to sequential execution.
    ///
    /// The channel is bounded (at [`qre_par::streamed_buffer_bound`] for the
    /// run's worker count): a consumer that stops pulling — a serve session
    /// writing to a slow client — blocks the background execution instead
    /// of letting it buffer the whole sweep's outcomes in memory.
    fn spawn<W>(total: usize, work: W) -> Self
    where
        W: FnOnce(mpsc::SyncSender<SweepOutcome>) + Send + 'static,
    {
        let (sender, receiver) = mpsc::sync_channel(qre_par::streamed_buffer_bound(
            qre_par::max_threads().min(total.max(1)),
        ));
        let in_worker = qre_par::in_parallel_worker();
        let worker = std::thread::spawn(move || {
            qre_par::set_in_parallel_worker(in_worker);
            work(sender);
        });
        SweepStream {
            receiver: Some(receiver),
            worker: Some(worker),
            total,
            delivered: 0,
        }
    }

    /// Total number of items the underlying sweep executes.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of outcomes yielded so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Join the background thread, re-raising a worker panic.
    fn join_worker(&mut self) {
        if let Some(handle) = self.worker.take() {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

impl Iterator for SweepStream {
    type Item = SweepOutcome;

    fn next(&mut self) -> Option<SweepOutcome> {
        match self.receiver.as_ref().and_then(|r| r.recv().ok()) {
            Some(outcome) => {
                self.delivered += 1;
                Some(outcome)
            }
            None => {
                // Channel closed: execution finished (or panicked — the join
                // re-raises the payload here).
                self.receiver = None;
                self.join_worker();
                None
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.total.saturating_sub(self.delivered);
        (0, Some(remaining))
    }
}

impl Drop for SweepStream {
    fn drop(&mut self) {
        // Hang up first: the background run sees the closed channel, stops
        // claiming items, and winds down after only the in-flight ones.
        self.receiver = None;
        if let Some(handle) = self.worker.take() {
            // Swallow a worker panic only when this drop is itself part of
            // unwinding; re-raising then would abort the process.
            if let Err(payload) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Merge the per-shard outcome vectors of a sweep back into the full
/// expansion order, verifying completeness.
///
/// This is the join side of [`crate::SweepSpec::shard`]: run each shard
/// (possibly in a different process), collect the per-shard item vectors,
/// and merge. The items are flattened and sorted by each one's global index
/// (`index_of`; `|o| o.point.index` for [`SweepOutcome`]s), and the union
/// must be exactly `0..n`: a duplicate or missing index fails with
/// [`Error::InvalidInput`] naming the first gap, so a successful merge *is*
/// the proof that the shards cover the unsharded sweep exactly. The CLI's
/// `qre merge` verb validates its plan of NDJSON records through the same
/// join.
pub fn merge_indexed<T>(
    shards: impl IntoIterator<Item = Vec<T>>,
    index_of: impl Fn(&T) -> usize,
) -> Result<Vec<T>> {
    let mut merged: Vec<T> = shards.into_iter().flatten().collect();
    merged.sort_by_key(&index_of);
    for (expected, item) in merged.iter().enumerate() {
        let found = index_of(item);
        if found != expected {
            return Err(Error::InvalidInput(format!(
                "sharded outcomes do not cover the sweep: expected item index {expected}, \
                 found {found} ({} item(s) total)",
                merged.len()
            )));
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical_qubit::PhysicalQubit;
    use crate::qec::QecSchemeKind;
    use crate::request::SweepSpec;
    use qre_circuit::LogicalCounts;

    fn counts(t: u64) -> LogicalCounts {
        LogicalCounts {
            num_qubits: 40,
            t_count: t,
            measurement_count: 1_000,
            ..Default::default()
        }
    }

    fn request(t: u64) -> EstimateRequest {
        EstimateRequest::builder()
            .counts(counts(t))
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_shares_the_factory_cache() {
        let spec = SweepSpec::new()
            .workload("w", counts(10_000))
            .profiles(PhysicalQubit::default_profiles())
            .total_error_budget(1e-4);
        let engine = Estimator::new();
        let first = engine.sweep(&spec).unwrap();
        let cold = engine.cache_stats();
        assert_eq!(cold.hits, 0);
        assert!(cold.misses >= 6);
        let second = engine.sweep(&spec).unwrap();
        let warm = engine.cache_stats();
        assert_eq!(warm.misses, cold.misses, "warm sweep must not re-search");
        assert!(warm.hits >= 6);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        }
    }

    #[test]
    fn sweep_stream_matches_collecting_sweep() {
        let spec = SweepSpec::new()
            .workload("w", counts(30_000))
            .profiles(PhysicalQubit::default_profiles())
            .total_error_budget(1e-4);
        let engine = Estimator::new();
        let collected = engine.sweep(&spec).unwrap();

        let stream = engine.sweep_stream(&spec).unwrap();
        assert_eq!(stream.total(), collected.len());
        let streamed: Vec<SweepOutcome> = stream.collect();
        assert_eq!(streamed.len(), collected.len());
        for o in &streamed {
            let twin = &collected[o.point.index];
            assert_eq!(o.point.profile, twin.point.profile);
            assert_eq!(
                o.outcome.as_ref().unwrap(),
                twin.outcome.as_ref().unwrap(),
                "streamed result must be bit-identical to the collecting API's"
            );
        }
        // The stream ran on the engine's shared cache: no re-searches.
        let stats = engine.cache_stats();
        assert!(stats.hits >= collected.len() as u64);
    }

    #[test]
    #[should_panic(expected = "stream worker boom")]
    fn stream_worker_panic_propagates_to_consumer() {
        let spec = SweepSpec::new()
            .workload("w", counts(1_000))
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .total_error_budget(1e-3);
        let (point, _) = spec.expand().unwrap().swap_remove(0);
        let stream = SweepStream::spawn(2, |sender| {
            sender
                .send(SweepOutcome {
                    point,
                    outcome: Err(crate::Error::InvalidInput("first".into())),
                })
                .unwrap();
            panic!("stream worker boom");
        });
        // The delivered item arrives; the panic re-raises at the `next()`
        // that observes the closed channel.
        for _ in stream {}
    }

    #[test]
    fn dropping_a_stream_early_is_safe() {
        let spec = SweepSpec::new()
            .workload("w", counts(5_000))
            .profiles(PhysicalQubit::default_profiles())
            .total_error_budget(1e-3);
        let engine = Estimator::new();
        let mut stream = engine.sweep_stream(&spec).unwrap();
        let first = stream.next().unwrap();
        assert!(first.point.index < stream.total());
        drop(stream); // joins the background thread without panicking
    }

    #[test]
    fn sweep_stream_reports_expansion_errors_eagerly() {
        let engine = Estimator::new();
        assert!(engine.sweep_stream(&SweepSpec::new()).is_err());
    }

    #[test]
    fn sharded_sweeps_merge_to_the_unsharded_result() {
        let spec = SweepSpec::new()
            .workload("w", counts(10_000))
            .profiles(PhysicalQubit::default_profiles())
            .total_error_budget(1e-4)
            .total_error_budget(1e-3);
        let engine = Estimator::new();
        let full = engine.sweep(&spec).unwrap();
        assert_eq!(full.len(), 12);

        // Each shard on its own engine, as separate server processes would.
        let per_shard: Vec<Vec<SweepOutcome>> = spec
            .shard(5)
            .unwrap()
            .iter()
            .map(|shard| Estimator::new().sweep(shard).unwrap())
            .collect();
        let merged = merge_indexed(per_shard, |o| o.point.index).unwrap();
        assert_eq!(merged.len(), full.len());
        for (m, f) in merged.iter().zip(&full) {
            assert_eq!(m.point.index, f.point.index);
            assert_eq!(m.point.profile, f.point.profile);
            assert_eq!(m.outcome.as_ref().unwrap(), f.outcome.as_ref().unwrap());
        }
    }

    #[test]
    fn merge_sharded_rejects_gaps_and_duplicates() {
        let spec = SweepSpec::new()
            .workload("w", counts(2_000))
            .profiles(PhysicalQubit::default_profiles());
        let engine = Estimator::new();
        let shards = spec.shard(3).unwrap();
        let a = engine.sweep(&shards[0]).unwrap();
        let c = engine.sweep(&shards[2]).unwrap();

        // Missing middle shard: the gap is named.
        let err = merge_indexed(vec![a.clone(), c.clone()], |o| o.point.index).unwrap_err();
        assert!(err.to_string().contains("expected item index 2"), "{err}");

        // Duplicate shard: the repeat is caught too.
        let b = engine.sweep(&shards[1]).unwrap();
        assert!(merge_indexed(vec![a.clone(), a, b, c], |o| o.point.index).is_err());
    }

    #[test]
    fn frontier_runs_through_the_cache() {
        let engine = Estimator::new();
        let req = request(200_000);
        let frontier = engine.frontier(&req).unwrap();
        assert!(frontier.len() >= 2);
        let stats = engine.cache_stats();
        // One design problem, re-used by every cap in the sweep.
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= frontier.len() as u64 - 1);
    }
}
