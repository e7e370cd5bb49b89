//! Event sinks: resource tracing without materialising the circuit.
//!
//! Circuit generators (the arithmetic library in particular) emit gate events
//! into a [`Sink`]. Two sinks matter in practice:
//!
//! * [`CountingTracer`] — accumulates [`LogicalCounts`] on the fly. This is
//!   how a schoolbook multiplication of 16 384-bit integers (≈ 5·10⁸ Toffoli
//!   gates) is counted without ever storing the instruction stream.
//! * [`crate::Circuit`] — records instructions for inspection, QIR emission,
//!   and cross-validation against the counting path.
//!
//! The tracer also computes **rotation depth** (paper Section III-B.2) using
//! ASAP layering: every qubit carries the index of the last rotation layer
//! that acted on it; multi-qubit gates synchronise the layer indices of their
//! operands (entanglement propagates scheduling dependencies); a rotation
//! advances its qubit to the next layer. The final rotation depth is the
//! maximum layer index reached.
//!
//! Until the first rotation every layer index is 0, so no gate can change
//! one. The tracer skips layer bookkeeping in that state, and the same fact
//! makes **counting by composition** exact: a rotation-free stretch of gates
//! adds the same counts, reaches the same peak above its entry width and
//! leaves the same number of qubits allocated wherever it runs and whichever
//! qubit ids it touches. So [`Builder::block`](crate::Builder::block)
//! replays a recorded block into a sink whose [`Sink::counting`] hands out
//! a `CountingTracer` that has seen no rotation, and traces it for every
//! other sink.

use crate::counts::LogicalCounts;
use crate::gate::{Gate, GateKind, QubitId};

/// Receiver of circuit-construction events.
pub trait Sink {
    /// A qubit became live (freshly allocated or reused from the free pool).
    fn on_allocate(&mut self, q: QubitId);
    /// A qubit was released back to the allocator.
    fn on_release(&mut self, q: QubitId);
    /// A gate (or measurement) was applied.
    fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]);
    /// The sink's [`CountingTracer`], when counting is all the sink does.
    /// [`Builder::block`](crate::Builder::block) replays recorded blocks
    /// into it instead of emitting their gates. The default, `None`, makes
    /// the sink see every event.
    fn counting(&mut self) -> Option<&mut CountingTracer> {
        None
    }
}

/// Streaming pre-layout resource counter.
///
/// Tracks peak live width, gate-category counts, and ASAP rotation depth.
#[derive(Debug, Default, Clone)]
pub struct CountingTracer {
    live: u64,
    peak: u64,
    t_count: u64,
    rotation_count: u64,
    ccz_count: u64,
    ccix_count: u64,
    measurement_count: u64,
    /// Per-qubit rotation-layer index (ASAP schedule), indexed by qubit id;
    /// a qubit without a slot is at layer 0.
    layer: Vec<u64>,
    max_layer: u64,
}

/// The recorded effect of a rotation-free block (see
/// [`Builder::block`](crate::Builder::block)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockRecord {
    /// Counts the block adds; `num_qubits` is its peak width above the width
    /// at entry.
    delta: LogicalCounts,
    /// Qubits the block leaves allocated: its width at exit above the width
    /// at entry.
    pub(crate) parked: u64,
}

/// Where a block being recorded began.
#[derive(Debug)]
pub(crate) struct BlockMark {
    /// The counts at entry; `num_qubits` is the peak the block suspends.
    entry: LogicalCounts,
    live: u64,
}

impl CountingTracer {
    /// A fresh tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counts accumulated so far.
    pub fn counts(&self) -> LogicalCounts {
        LogicalCounts {
            num_qubits: self.peak,
            t_count: self.t_count,
            rotation_count: self.rotation_count,
            rotation_depth: self.max_layer,
            ccz_count: self.ccz_count,
            ccix_count: self.ccix_count,
            measurement_count: self.measurement_count,
        }
    }

    /// Number of currently-live qubits.
    pub fn live_qubits(&self) -> u64 {
        self.live
    }

    /// `true` until the first rotation: every layer index is still 0.
    pub(crate) fn rotation_free(&self) -> bool {
        self.max_layer == 0
    }

    /// Start recording a block: remember the counts at entry and restart the
    /// peak at the current width, so that the block's own peak shows.
    pub(crate) fn begin_block(&mut self) -> BlockMark {
        let mark = BlockMark {
            entry: self.counts(),
            live: self.live,
        };
        self.peak = self.live;
        mark
    }

    /// Finish the block begun at `mark` and restore the suspended peak. The
    /// record is `None` when the block counted a rotation or released more
    /// qubits than it allocated.
    pub(crate) fn end_block(&mut self, mark: BlockMark) -> Option<BlockRecord> {
        let above = self.peak - mark.live;
        self.peak = self.peak.max(mark.entry.num_qubits);
        let (now, entry) = (self.counts(), mark.entry);
        if now.rotation_count != entry.rotation_count {
            return None;
        }
        Some(BlockRecord {
            delta: LogicalCounts {
                num_qubits: above,
                t_count: now.t_count - entry.t_count,
                ccz_count: now.ccz_count - entry.ccz_count,
                ccix_count: now.ccix_count - entry.ccix_count,
                measurement_count: now.measurement_count - entry.measurement_count,
                ..LogicalCounts::default()
            },
            parked: self.live.checked_sub(mark.live)?,
        })
    }

    /// Apply a recorded block's effect without seeing its gates.
    pub(crate) fn replay(&mut self, record: &BlockRecord) {
        let d = &record.delta;
        self.peak = self.peak.max(self.live + d.num_qubits);
        self.t_count += d.t_count;
        self.ccz_count += d.ccz_count;
        self.ccix_count += d.ccix_count;
        self.measurement_count += d.measurement_count;
        self.live += record.parked;
    }

    /// Release `n` qubits that are live but have no id any more (parked by
    /// number, see [`Builder::park`](crate::Builder::park)).
    pub(crate) fn release_unnamed(&mut self, n: u64) {
        debug_assert!(self.live >= n, "release without matching allocate");
        self.live -= n;
    }
}

impl Sink for CountingTracer {
    fn on_allocate(&mut self, _q: QubitId) {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        // A reused qubit keeps its causal position in the rotation schedule:
        // its old layer index stays, which is conservative (a fresh qubit
        // could in principle start at layer 0, but it is allocated after the
        // releasing gate, so the dependency is real for reuse). A fresh
        // qubit has no slot yet, which reads as layer 0.
    }

    fn on_release(&mut self, q: QubitId) {
        debug_assert!(self.live > 0, "release without matching allocate");
        self.live = self.live.saturating_sub(1);
        let _ = q;
    }

    fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]) {
        debug_assert_eq!(gate.arity(), qubits.len(), "arity mismatch for {gate}");
        match gate.kind() {
            GateKind::Clifford => {
                // Free, but still propagates rotation-layer dependencies.
                self.sync_layers(qubits, false);
            }
            GateKind::TGate => {
                self.t_count += 1;
                self.sync_layers(qubits, false);
            }
            GateKind::Rotation => {
                self.rotation_count += 1;
                self.sync_layers(qubits, true);
            }
            GateKind::Toffoli => {
                match gate {
                    Gate::CCiX => self.ccix_count += 1,
                    _ => self.ccz_count += 1,
                }
                self.sync_layers(qubits, false);
            }
            GateKind::Measurement => {
                self.measurement_count += 1;
                self.sync_layers(qubits, false);
            }
        }
    }

    fn counting(&mut self) -> Option<&mut CountingTracer> {
        Some(self)
    }
}

impl CountingTracer {
    /// Synchronise operand layers to their maximum; if `advance`, the gate is
    /// a rotation and all operands move one layer past that maximum.
    fn sync_layers(&mut self, qubits: &[QubitId], advance: bool) {
        if !advance && self.max_layer == 0 {
            return; // every layer is still 0
        }
        let max = qubits
            .iter()
            .map(|q| self.layer.get(q.index()).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let new = if advance { max + 1 } else { max };
        for &q in qubits {
            let idx = q.index();
            if idx >= self.layer.len() {
                self.layer.resize(idx + 1, 0);
            }
            self.layer[idx] = new;
        }
        if advance {
            self.max_layer = self.max_layer.max(new);
        }
    }
}

/// A sink that forwards events to two sinks at once — used by tests to check
/// that the counting and recording paths agree on a single emission pass.
#[derive(Debug, Default)]
pub struct TeeSink<A, B> {
    /// First receiver.
    pub first: A,
    /// Second receiver.
    pub second: B,
}

impl<A: Sink, B: Sink> TeeSink<A, B> {
    /// Wrap two sinks.
    pub fn new(first: A, second: B) -> Self {
        Self { first, second }
    }
}

impl<A: Sink, B: Sink> Sink for TeeSink<A, B> {
    fn on_allocate(&mut self, q: QubitId) {
        self.first.on_allocate(q);
        self.second.on_allocate(q);
    }
    fn on_release(&mut self, q: QubitId) {
        self.first.on_release(q);
        self.second.on_release(q);
    }
    fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]) {
        self.first.on_gate(gate, qubits);
        self.second.on_gate(gate, qubits);
    }
}

/// A sink that drops every event — useful for exercising generator control
/// flow in benchmarks without counting overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn on_allocate(&mut self, _q: QubitId) {}
    fn on_release(&mut self, _q: QubitId) {}
    fn on_gate(&mut self, _gate: Gate, _qubits: &[QubitId]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId(i)
    }

    #[test]
    fn counts_by_category() {
        let mut tr = CountingTracer::new();
        for i in 0..3 {
            tr.on_allocate(q(i));
        }
        tr.on_gate(Gate::H, &[q(0)]);
        tr.on_gate(Gate::T, &[q(0)]);
        tr.on_gate(Gate::Tdg, &[q(1)]);
        tr.on_gate(Gate::Ccz, &[q(0), q(1), q(2)]);
        tr.on_gate(Gate::CCiX, &[q(0), q(1), q(2)]);
        tr.on_gate(Gate::Rz(0.3), &[q(2)]);
        tr.on_gate(Gate::MeasureZ, &[q(2)]);
        tr.on_gate(Gate::Reset, &[q(2)]);
        let c = tr.counts();
        assert_eq!(c.num_qubits, 3);
        assert_eq!(c.t_count, 2);
        assert_eq!(c.ccz_count, 1);
        assert_eq!(c.ccix_count, 1);
        assert_eq!(c.rotation_count, 1);
        assert_eq!(c.rotation_depth, 1);
        assert_eq!(c.measurement_count, 2);
    }

    #[test]
    fn peak_width_tracks_reuse() {
        let mut tr = CountingTracer::new();
        tr.on_allocate(q(0));
        tr.on_allocate(q(1));
        tr.on_release(q(1));
        tr.on_allocate(q(1)); // reuse
        tr.on_allocate(q(2));
        let c = tr.counts();
        // Peak is 3: {0,1,2} after the reuse; never 4.
        assert_eq!(c.num_qubits, 3);
        assert_eq!(tr.live_qubits(), 3);
    }

    #[test]
    fn rotation_depth_parallel_rotations_share_a_layer() {
        let mut tr = CountingTracer::new();
        for i in 0..4 {
            tr.on_allocate(q(i));
        }
        // Four rotations on distinct qubits: depth 1, count 4.
        for i in 0..4 {
            tr.on_gate(Gate::Rz(0.7), &[q(i)]);
        }
        let c = tr.counts();
        assert_eq!(c.rotation_count, 4);
        assert_eq!(c.rotation_depth, 1);
    }

    #[test]
    fn rotation_depth_sequential_rotations_stack() {
        let mut tr = CountingTracer::new();
        tr.on_allocate(q(0));
        for _ in 0..5 {
            tr.on_gate(Gate::Rx(0.9), &[q(0)]);
        }
        assert_eq!(tr.counts().rotation_depth, 5);
    }

    #[test]
    fn entangling_gates_propagate_rotation_layers() {
        let mut tr = CountingTracer::new();
        tr.on_allocate(q(0));
        tr.on_allocate(q(1));
        tr.on_gate(Gate::Rz(0.5), &[q(0)]); // layer(q0) = 1
        tr.on_gate(Gate::Cx, &[q(0), q(1)]); // layer(q1) := 1
        tr.on_gate(Gate::Rz(0.5), &[q(1)]); // layer(q1) = 2
        assert_eq!(tr.counts().rotation_depth, 2);

        // Without the entangler the two rotations would be parallel.
        let mut tr = CountingTracer::new();
        tr.on_allocate(q(0));
        tr.on_allocate(q(1));
        tr.on_gate(Gate::Rz(0.5), &[q(0)]);
        tr.on_gate(Gate::Rz(0.5), &[q(1)]);
        assert_eq!(tr.counts().rotation_depth, 1);
    }

    #[test]
    fn clifford_rotations_do_not_count() {
        let mut tr = CountingTracer::new();
        tr.on_allocate(q(0));
        tr.on_gate(Gate::Rz(std::f64::consts::PI), &[q(0)]); // Z, Clifford
        tr.on_gate(Gate::Rz(std::f64::consts::FRAC_PI_4), &[q(0)]); // T-like
        let c = tr.counts();
        assert_eq!(c.rotation_count, 0);
        assert_eq!(c.t_count, 1);
        assert_eq!(c.rotation_depth, 0);
    }

    #[test]
    fn tee_sink_duplicates() {
        let mut tee = TeeSink::new(CountingTracer::new(), CountingTracer::new());
        tee.on_allocate(q(0));
        tee.on_gate(Gate::T, &[q(0)]);
        assert_eq!(tee.first.counts(), tee.second.counts());
        assert_eq!(tee.first.counts().t_count, 1);
    }

    #[test]
    fn null_sink_accepts_everything() {
        let mut s = NullSink;
        s.on_allocate(q(0));
        s.on_gate(Gate::Ccz, &[q(0), q(1), q(2)]);
        s.on_release(q(0));
    }
}
