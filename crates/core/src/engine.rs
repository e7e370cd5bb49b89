//! The estimation engine: the one way to run a scenario, over a shared,
//! memoized T-factory cache.
//!
//! [`Estimator`] is the centre of the public API. Every consumer — the CLI's
//! single jobs, job arrays and sweep form, the figure harness, the serve
//! sessions, and the qubit/runtime frontier — runs through it. One request
//! runs with [`Estimator::estimate`]; its trade-off curves with
//! [`Estimator::frontier`] and [`Estimator::frontier_searched`]. Declared
//! sweeps run through one streamed execution core
//! ([`qre_par::parallel_map_streamed_until`]) on the calling thread: items
//! run in parallel and their outcomes are delivered **as they finish**,
//! with per-item errors reported in place rather than aborting the sweep.
//! No sweep lists its items: each (profile, scheme) cell is resolved once
//! per sweep, and the worker that estimates item `i` builds it from its
//! index. Three consumption styles layer on top of that single path:
//!
//! * collecting — [`Estimator::sweep`] puts streamed outcomes back into
//!   expansion order by index,
//! * observer callback — [`Estimator::sweep_with`] hands each outcome to a
//!   closure in completion order (progress bars, NDJSON),
//! * early stop — [`Estimator::sweep_until`] does the same, and its closure
//!   can end the sweep (a consumer that hung up) after the in-flight items.
//!   Its per-outcome map runs on the worker that estimated the item, so
//!   work a consumer would otherwise do on the calling thread (the CLI
//!   renders each record there) runs in parallel too.
//!
//! The engine owns a [`FactoryCache`] (behind an [`Arc`], so engines can
//! share it): the expensive distillation-pipeline search is memoized across
//! every estimate the engine runs, so repeated scenarios (a profile sweep
//! re-run, the frontier's dozens of re-estimates of one scenario) skip the
//! search entirely.
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

use std::ops::ControlFlow;
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

    /// Estimate every item of a sweep's cartesian product in parallel: the
    /// outcomes of [`Estimator::sweep_with`], put back in expansion
    /// (row-major) order by index, with per-item errors in place. Only a
    /// spec-wide error (an empty mandatory axis, an overflowing axis
    /// product) fails the whole sweep.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<Vec<SweepOutcome>> {
        let mut outcomes = Vec::new();
        self.sweep_with(spec, |o| outcomes.push(o))?;
        outcomes.sort_unstable_by_key(|o| o.point.index);
        Ok(outcomes)
    }

    /// Streamed sweep execution: estimate every item of the cartesian
    /// product in parallel and hand each [`SweepOutcome`] to `on_outcome`
    /// **in completion order** (the outcome's `point.index` identifies its
    /// position in the expansion). Returns the number of items the spec
    /// runs; only a spec-wide error fails the whole sweep.
    /// [`Estimator::sweep_until`] without the early stop.
    pub fn sweep_with<F>(&self, spec: &SweepSpec, mut on_outcome: F) -> Result<usize>
    where
        F: FnMut(SweepOutcome),
    {
        self.sweep_until(
            spec,
            |outcome| outcome,
            |outcome| {
                on_outcome(outcome);
                ControlFlow::Continue(())
            },
        )
    }

    /// [`Estimator::sweep_with`] with a per-outcome `map` run on the
    /// worker, and a callback that can stop the sweep.
    ///
    /// Each item is built from its index, estimated, and its
    /// [`SweepOutcome`] put through `map`, all on the worker thread that
    /// claimed it; `on_outcome` receives what `map` returns, in completion
    /// order. Pass `|o| o` to receive the outcomes themselves. After
    /// `on_outcome` returns [`ControlFlow::Break`], no further items start,
    /// the in-flight ones finish undelivered, and the call returns. The
    /// sweep runs on the calling thread, so `on_outcome` blocking (a slow
    /// consumer) throttles the workers through
    /// [`qre_par::parallel_map_streamed_until`]'s bounded delivery queue.
    /// Returns the number of items the spec runs, delivered or not; only a
    /// spec-wide error fails the whole sweep, before any item runs.
    pub fn sweep_until<R, M, F>(&self, spec: &SweepSpec, map: M, mut on_outcome: F) -> Result<usize>
    where
        R: Send,
        M: Fn(SweepOutcome) -> R + Sync,
        F: FnMut(R) -> ControlFlow<()>,
    {
        let items = spec.items()?;
        let range = items.range.clone();
        qre_par::parallel_map_streamed_until(
            range.len(),
            |i| {
                let (point, request) = items.item(range.start + i);
                let outcome = request.and_then(|request| self.estimate(&request));
                map(SweepOutcome { point, outcome })
            },
            |_, mapped| on_outcome(mapped),
        );
        Ok(range.len())
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
    use crate::budget::ErrorBudget;
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
    fn breaking_after_the_first_outcome_stops_the_sweep() {
        // Distinct budgets make every item a distinct factory design, so
        // the cache's miss count is the number of items that ran. There
        // are more items than the workers can run ahead of one delivery
        // (the bounded queue plus one item in hand per worker).
        let threads = qre_par::max_threads();
        let items = 64.max(qre_par::streamed_buffer_bound(threads) + threads + 2);
        let budget = |i: usize| ErrorBudget::from_total(1e-4 + i as f64 * 1e-6).unwrap();
        let spec = SweepSpec::new()
            .workload("w", counts(5_000))
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .budgets((0..items).map(budget));
        let engine = Estimator::new();
        let mut delivered = 0;
        let total = engine
            .sweep_until(
                &spec,
                |o| o,
                |_| {
                    delivered += 1;
                    ControlFlow::Break(())
                },
            )
            .unwrap();
        assert_eq!(total, items);
        assert_eq!(delivered, 1, "no delivery after the break");
        assert!(
            engine.cache_stats().misses < total as u64,
            "breaking must stop the sweep before every item ran"
        );
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
