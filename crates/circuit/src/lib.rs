//! # qre-circuit
//!
//! Logical circuit infrastructure for the `qre` resource estimator: the
//! pre-layout counting substrate of the paper's Section III-A and the three
//! algorithm-input paths of Section IV-B (builder API standing in for the
//! high-level language front end, QIR-lite, and known logical estimates).
//!
//! * [`Gate`] / [`GateKind`] — the planar-ISA gate vocabulary with resource
//!   classification (Clifford / T / rotation / Toffoli-like / measurement),
//! * [`Builder`] — qubit lifetime management plus ergonomic gate emission,
//!   generic over an event [`Sink`], with counting by composition:
//!   [`Builder::block`] traces a repeated block once and replays its counts,
//! * [`CountingTracer`] — streaming pre-layout counter (peak width, category
//!   counts, ASAP rotation depth) that never materialises the circuit,
//! * [`Circuit`] — a recorded instruction stream, replayable into any sink,
//! * [`qir`] — textual QIR parser/emitter for the base-profile subset,
//! * [`LogicalCounts`] — the estimator's algorithm-side input, with
//!   `AccountForEstimates`-style composition.
//!
//! ```
//! use qre_circuit::{Builder, CountingTracer};
//!
//! let mut b = Builder::new(CountingTracer::new());
//! let r = b.alloc_register(3);
//! b.h(r.bit(0));
//! b.ccz(r.bit(0), r.bit(1), r.bit(2));
//! b.t(r.bit(2));
//! b.measure(r.bit(2));
//! let counts = b.into_sink().counts();
//! assert_eq!(counts.num_qubits, 3);
//! assert_eq!(counts.ccz_count, 1);
//! assert_eq!(counts.t_count, 1);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod builder;
#[allow(clippy::module_inception)]
mod circuit;
mod counts;
mod gate;
pub mod qir;
mod tracer;

pub use builder::{BlockKey, Builder, Register};
pub use circuit::{Circuit, Instruction};
pub use counts::{LogicalCounts, LogicalCountsBuilder};
pub use gate::{classify_angle, Gate, GateKind, QubitId};
pub use tracer::{CountingTracer, NullSink, Sink, TeeSink};

// Property-based tests, on the in-repo `qre-proptest` harness (its library
// target is named `proptest`, keeping the upstream-compatible imports).
#[cfg(test)]
mod proptests;
