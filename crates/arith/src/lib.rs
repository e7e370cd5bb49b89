//! # qre-arith
//!
//! Fault-tolerant quantum arithmetic for the `qre` resource estimator — the
//! workload substrate behind the paper's Section V evaluation ("Integer
//! multiplication use case").
//!
//! Everything is built from the temporary logical-AND gadget upward:
//!
//! * [`gadgets`] — the AND compute/uncompute pair (CCiX + measurement),
//! * [`add`] — Gidney and CDKM in-place adders, subtraction, controlled
//!   addition, multiplexing, and a controlled incrementer,
//! * [`lookup`] — QROM table lookup via unary iteration, with Gidney's
//!   measurement-based uncomputation,
//! * [`mul`] — the paper's three multiplication algorithms (schoolbook,
//!   Karatsuba, windowed) behind the [`MulAlgorithm`] workload interface,
//! * [`qpe`] — phase-estimation workloads (inverse QFT emission and
//!   composed counts) exercising the rotation-synthesis path.
//!
//! All circuits are classical-reversible (Clifford + Toffoli-like + the
//! measurement-based erasures); every construction is verified functionally
//! against ordinary integer arithmetic by an in-crate bit-level simulator,
//! and its resource counts are pinned by closed-form tests.
//!
//! Counting is by composition. The repeated shapes are
//! [`Builder::block`](qre_circuit::Builder::block)s: [`add::add_into`] and
//! [`add::controlled_add_into`] (the schoolbook row) keyed by their widths,
//! the windowed multiplier's window and the Karatsuba recursion node. A
//! counting builder traces each shape once and replays it, so
//! [`multiplication_counts`] emits `O(n)` gate events (about 12, 21 and 214
//! per bit for schoolbook, windowed and Karatsuba), where tracing every gate
//! would emit `Θ(n²)` or `Θ(n^{log₂3})`. A 16 384-bit program counts in
//! milliseconds, with counts equal to tracing every gate (the
//! `composed_counts_equal_traced_counts` law). Simulators and recording
//! sinks still see every gate.
//!
//! ```
//! use qre_arith::{multiplication_counts, MulAlgorithm};
//!
//! let counts = multiplication_counts(MulAlgorithm::Windowed, 256);
//! assert!(counts.ccix_count > 0);
//! assert_eq!(counts.rotation_count, 0); // multipliers are rotation-free
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod add;
pub mod gadgets;
pub mod lookup;
pub mod mul;
pub mod qpe;

#[cfg(test)]
pub(crate) mod testsim;

pub use mul::{
    emit_multiplication, multiplication_counts, multiplication_counts_with, KaratsubaConfig,
    MulAlgorithm, MulWorkloadConfig, WindowedConfig,
};

// Property-based tests, on the in-repo `qre-proptest` harness (its library
// target is named `proptest`, keeping the upstream-compatible imports).
#[cfg(test)]
mod proptests;
