//! # qre-core
//!
//! Physical resource estimation for fault-tolerant quantum computation — the
//! primary contribution of *"Using Azure Quantum Resource Estimator for
//! Assessing Performance of Fault Tolerant Quantum Computation"* (SC 2023),
//! re-implemented from scratch.
//!
//! The pipeline (paper Section III):
//!
//! 1. **Pre-layout counts** arrive as [`qre_circuit::LogicalCounts`] (from
//!    the circuit tracer, the QIR front end, or direct user input).
//! 2. **Layout** ([`layout()`]): planar-ISA qubit overhead, algorithmic depth,
//!    and T-state demand (Section III-B).
//! 3. **Error correction** ([`QecScheme`]): code-distance selection from the
//!    failure model `a·(p/p*)^((d+1)/2)` (Section III-C).
//! 4. **T factories** ([`TFactoryBuilder`]): distillation pipeline search
//!    and copy provisioning (Section III-D).
//! 5. **Totals and rQOPS** ([`EstimationResult`]): physical qubits, runtime,
//!    and reliable quantum operations per second (Section III-E).
//!
//! The centre of the API is the [`Estimator`] engine, the one way to run
//! an estimate. An [`EstimateRequest`] (built with
//! [`EstimateRequest::builder`]) is one scenario: counts, hardware profile,
//! QEC scheme, error budget, and constraints. The engine owns a memoized
//! T-factory design cache and runs single requests
//! ([`Estimator::estimate`]), their trade-off frontiers
//! ([`Estimator::frontier`], and [`Estimator::frontier_searched`] over the
//! error-budget partition too), and declared cartesian sweeps over a
//! [`SweepSpec`] — collected in expansion order ([`Estimator::sweep`]),
//! or handed to an observer in completion order ([`Estimator::sweep_with`],
//! and [`Estimator::sweep_until`], whose observer can stop the sweep).
//! Sweep items run in parallel with per-item outcomes, each built from its
//! index on the worker that estimates it; the observer runs on the calling
//! thread, and `sweep_until`'s per-outcome map on the worker.
//!
//! The engine's memoized T-factory design store ([`FactoryCache`]) can be
//! shared process-wide ([`FactoryCache::scoped`] views with exact per-scope
//! counters), bounded ([`FactoryCache::with_capacity`] with LRU eviction),
//! and persisted across processes ([`FactoryCache::save`] /
//! [`FactoryCache::load`] versioned JSON snapshots). Sweeps partition
//! across processes with [`SweepSpec::shard`] and re-join through the
//! validating merge [`merge_indexed`].

#![deny(missing_docs)]
#![warn(clippy::all)]

mod budget;
mod cache;
mod engine;
mod error;
mod estimate;
mod frontier;
mod layout;
mod physical_qubit;
mod qec;
mod request;
mod result;
mod tfactory;

pub use budget::{ErrorBudget, PartitionSearch};
pub use cache::{CacheStats, FactoryCache, SearchCounters, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
pub use engine::{merge_indexed, Estimator, SweepOutcome};
pub use error::{Error, Result};
pub use estimate::Constraints;
pub use frontier::FrontierPoint;
pub use layout::{layout, post_layout_logical_qubits, t_states_per_rotation, LogicalLayout};
pub use physical_qubit::{InstructionSet, PhysicalQubit};
pub use qec::{DistanceRow, DistanceTable, LogicalQubit, QecScheme, QecSchemeKind};
pub use request::{
    EstimateRequest, EstimateRequestBuilder, Shard, SweepPoint, SweepScheme, SweepSpec,
};
pub use result::{
    format_duration_ns, format_sci, group_digits, EstimationResult, PhysicalCounts,
    ResourceBreakdown,
};
pub use tfactory::{
    default_distillation_units, DistillationUnit, FactoryRound, LogicalUnitSpec, PhysicalUnitSpec,
    RoundLevel, SearchStats, TFactory, TFactoryBuilder,
};

/// Convenience alias: a hardware profile *is* a physical qubit model.
pub type HardwareProfile = PhysicalQubit;

// Property-based tests, on the in-repo `qre-proptest` harness (its library
// target is named `proptest`, keeping the upstream-compatible imports).
#[cfg(test)]
mod proptests;
