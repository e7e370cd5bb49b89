//! # qre — Quantum Resource Estimator
//!
//! An open reproduction of the system described in *"Using Azure Quantum
//! Resource Estimator for Assessing Performance of Fault Tolerant Quantum
//! Computation"* (van Dam, Mykhailova, Soeken — SC 2023, arXiv:2311.05801),
//! following the estimation methodology of its normative reference,
//! Beverland et al., *"Assessing requirements to scale to practical quantum
//! advantage"* (arXiv:2211.07629).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`circuit`] — logical circuit IR, resource tracer, QIR-lite front end,
//!   and the "known logical estimates" input path,
//! * [`arith`] — fault-tolerant quantum arithmetic (adders, table lookup, and
//!   the paper's three multipliers: schoolbook, Karatsuba, windowed),
//! * [`estimator`] — the physical resource estimation engine (QEC code
//!   distance, T factories, rQOPS, constraints, Pareto frontiers, and the
//!   sweep execution path),
//! * [`expr`] — the formula-string engine for QEC/distillation parameters,
//! * [`json`] — the JSON substrate used by the job/result I/O contract.
//!
//! ## The `Estimator` engine
//!
//! The centre of the API is [`estimator::Estimator`], the one way to run an
//! estimate: a reusable session that owns a memoized T-factory design cache.
//! The paper's workloads are inherently batched — Figure 3 sweeps three
//! multipliers over ten bit-widths, Figure 4 sweeps six hardware profiles,
//! and the trade-off frontier re-estimates one scenario dozens of times — so
//! many-related-estimates is the primary unit of work (the service's job
//! arrays, Section IV-A):
//!
//! * [`estimator::Estimator::estimate`] — one [`estimator::EstimateRequest`],
//! * [`estimator::Estimator::sweep`] — a declared [`estimator::SweepSpec`]
//!   (workloads × profiles × QEC schemes × budgets × constraints) expanded
//!   in row-major order and executed in parallel,
//! * [`estimator::Estimator::frontier`] — the qubit/runtime Pareto
//!   frontier, sharing the same cache.
//!
//! A warm engine skips the expensive distillation-pipeline search for
//! repeated scenarios; failing sweep items report their error in place
//! instead of aborting the sweep.
//!
//! ```
//! use qre::arith::{multiplication_counts, MulAlgorithm};
//! use qre::estimator::{Estimator, HardwareProfile, SweepSpec};
//!
//! // The Figure 4 shape: one workload across the six default profiles
//! // (surface code for gate-based, floquet code for Majorana — the default
//! // pairing).
//! let spec = SweepSpec::new()
//!     .workload("windowed/64", multiplication_counts(MulAlgorithm::Windowed, 64))
//!     .profiles(HardwareProfile::default_profiles())
//!     .total_error_budget(1e-4);
//! let engine = Estimator::new();
//! let outcomes = engine.sweep(&spec).unwrap();
//! assert_eq!(outcomes.len(), 6);
//! for o in &outcomes {
//!     let r = o.outcome.as_ref().unwrap();
//!     assert!(r.physical_counts.physical_qubits > 0);
//! }
//! ```
//!
//! ## One estimate
//!
//! A single scenario is an [`estimator::EstimateRequest`] — counts, hardware
//! profile, QEC scheme, and error budget, plus optional constraints — run
//! through the same engine:
//!
//! ```
//! use qre::circuit::LogicalCounts;
//! use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};
//!
//! // Logical counts for a small algorithm (the Section IV-B.3 input path).
//! let counts = LogicalCounts::builder()
//!     .logical_qubits(100)
//!     .t_gates(50_000)
//!     .ccz_gates(10_000)
//!     .measurements(25_000)
//!     .build();
//!
//! let request = EstimateRequest::builder()
//!     .counts(counts)
//!     .profile(HardwareProfile::qubit_gate_ns_e3())
//!     .qec(QecSchemeKind::SurfaceCode)
//!     .total_error_budget(1e-3)
//!     .build()
//!     .unwrap();
//!
//! let result = Estimator::new().estimate(&request).unwrap();
//! assert!(result.physical_counts.physical_qubits > 0);
//! assert!(result.physical_counts.runtime_ns > 0.0);
//! println!("{}", result.to_report());
//! ```

#![deny(missing_docs)]

pub use qre_arith as arith;
pub use qre_circuit as circuit;
pub use qre_core as estimator;
pub use qre_expr as expr;
pub use qre_json as json;
