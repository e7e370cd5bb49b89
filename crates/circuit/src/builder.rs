//! Circuit builder: qubit lifetime management plus ergonomic gate emission.
//!
//! Generic over the event [`Sink`] so the same generator code can stream into
//! a [`CountingTracer`](crate::CountingTracer) (for huge circuits) or record
//! a [`Circuit`](crate::Circuit) (for inspection, QIR emission, or validation
//! of the counting path).
//!
//! A counting builder also counts by composition: [`Builder::block`] traces
//! a repeated block once and replays its recorded effect.

use crate::gate::{Gate, QubitId};
use crate::tracer::{BlockRecord, Sink};
use std::collections::HashMap;

/// Names a block shape for [`Builder::block`]: the gadget, plus the widths
/// and settings its emission depends on (unused slots are 0).
pub type BlockKey = (&'static str, [usize; 3]);

/// A contiguous logical register: an ordered list of qubit ids, little-endian
/// (index 0 is the least significant bit for the arithmetic library).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Register(pub Vec<QubitId>);

impl Register {
    /// Number of qubits in the register.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The qubit at bit position `i` (little-endian).
    pub fn bit(&self, i: usize) -> QubitId {
        self.0[i]
    }

    /// Sub-register covering bit positions `range` (still little-endian).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Register {
        Register(self.0[range].to_vec())
    }

    /// Iterate the qubits LSB-first.
    pub fn iter(&self) -> impl Iterator<Item = QubitId> + '_ {
        self.0.iter().copied()
    }
}

/// Builder over an event sink, owning the qubit allocator.
///
/// Released qubits go to a free pool and are reused by later allocations —
/// matching the qubit-reuse behaviour of the QIR qubit manager the paper's
/// tool uses, so circuit *width* reflects peak concurrent usage rather than
/// total allocations.
#[derive(Debug)]
pub struct Builder<S: Sink> {
    sink: S,
    next_fresh: u32,
    free: Vec<QubitId>,
    live: u64,
    /// Parked qubits held by id, in parking order.
    parked_ids: Vec<QubitId>,
    /// Parked qubits held as a number (parked while replay was on; they
    /// precede every id in `parked_ids`).
    parked_count: u64,
    blocks: HashMap<BlockKey, BlockRecord>,
}

impl<S: Sink> Builder<S> {
    /// Wrap a sink.
    pub fn new(sink: S) -> Self {
        Self {
            sink,
            next_fresh: 0,
            free: Vec::new(),
            live: 0,
            parked_ids: Vec::new(),
            parked_count: 0,
            blocks: HashMap::new(),
        }
    }

    /// Finish and recover the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Shared access to the sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Number of currently live qubits.
    pub fn live_qubits(&self) -> u64 {
        self.live
    }

    /// Allocate one qubit (reusing a released one when available).
    pub fn alloc(&mut self) -> QubitId {
        let q = self.free.pop().unwrap_or_else(|| {
            let q = QubitId(self.next_fresh);
            self.next_fresh += 1;
            q
        });
        self.live += 1;
        self.sink.on_allocate(q);
        q
    }

    /// Allocate an `n`-qubit register.
    pub fn alloc_register(&mut self, n: usize) -> Register {
        Register((0..n).map(|_| self.alloc()).collect())
    }

    /// Release one qubit back to the pool. The caller is responsible for the
    /// qubit being disentangled (in simulation terms); the estimator only
    /// tracks lifetimes.
    pub fn release(&mut self, q: QubitId) {
        debug_assert!(self.live > 0, "release with no live qubits");
        self.live -= 1;
        self.free.push(q);
        self.sink.on_release(q);
    }

    /// Release a whole register.
    pub fn release_register(&mut self, reg: Register) {
        for q in reg.0 {
            self.release(q);
        }
    }

    /// `true` while [`Builder::block`] replays: the sink is a
    /// [`CountingTracer`](crate::CountingTracer) that has seen no rotation.
    fn replaying(&mut self) -> bool {
        self.sink.counting().is_some_and(|t| t.rotation_free())
    }

    /// Emit `emit` as the block `key`: counting by composition.
    ///
    /// While the sink is a [`CountingTracer`](crate::CountingTracer) that
    /// has seen no rotation, the first call with a key traces the block and
    /// records its count delta, its peak width above the entry width and the
    /// qubits it leaves [parked](Builder::park); every later call replays
    /// that record in O(1). The replay is exact because every rotation layer
    /// is 0 until the first rotation, so a rotation-free block adds the same
    /// counts wherever it runs. A block that counts a rotation is never
    /// recorded, and after the first rotation every block is traced again.
    /// Other sinks ([`Circuit`](crate::Circuit),
    /// [`TeeSink`](crate::TeeSink), [`NullSink`](crate::NullSink), a
    /// simulator) see every gate. The table lives in one builder: nothing is
    /// shared across builders or calls.
    ///
    /// `key` must name everything the emission depends on. The block must
    /// release every qubit it allocates except those it parks, and no qubit
    /// allocated before it.
    pub fn block(&mut self, key: BlockKey, emit: impl FnOnce(&mut Self)) {
        let Some(tracer) = self.sink.counting().filter(|t| t.rotation_free()) else {
            return emit(self);
        };
        if let Some(record) = self.blocks.get(&key) {
            tracer.replay(record);
            self.live += record.parked;
            self.parked_count += record.parked;
            return;
        }
        let mark = tracer.begin_block();
        let parked = self.parked_count;
        emit(self);
        let tracer = self.sink.counting().expect("the sink kept counting");
        if let Some(record) = tracer.end_block(mark) {
            assert_eq!(
                record.parked,
                self.parked_count - parked,
                "block {key:?} leaves qubits allocated that it did not park"
            );
            self.blocks.insert(key, record);
        }
    }

    /// Park a register: its qubits stay allocated, and counted, until
    /// [`Builder::release_parked`], and the caller gives up their ids. While
    /// replaying, parked qubits are held as a number and their ids are never
    /// reused, so a parked workspace costs no memory; this is exact only if
    /// no rotation is emitted before they are released. Otherwise the ids are
    /// kept and released in reverse parking order.
    pub fn park(&mut self, reg: Register) {
        if self.replaying() {
            self.parked_count += reg.len() as u64;
        } else {
            self.parked_ids.extend(reg.0);
        }
    }

    /// Number of currently parked qubits.
    pub fn parked(&self) -> u64 {
        self.parked_count + self.parked_ids.len() as u64
    }

    /// Release every qubit parked after the first `keep` (a value of
    /// [`Builder::parked`] taken earlier), the most recently parked first.
    pub fn release_parked(&mut self, keep: u64) {
        let mut excess = self
            .parked()
            .checked_sub(keep)
            .expect("`keep` is a value of `parked()` taken earlier");
        while excess > 0 {
            let Some(q) = self.parked_ids.pop() else {
                break;
            };
            self.release(q);
            excess -= 1;
        }
        if excess > 0 {
            let tracer = self
                .sink
                .counting()
                .expect("parked by number while counting");
            debug_assert!(
                tracer.rotation_free(),
                "a rotation was emitted while qubits were parked by number"
            );
            tracer.release_unnamed(excess);
            self.parked_count -= excess;
            self.live -= excess;
        }
    }

    /// Apply an arbitrary gate.
    pub fn gate(&mut self, gate: Gate, qubits: &[QubitId]) {
        debug_assert_eq!(
            gate.arity(),
            qubits.len(),
            "gate {gate} expects {} operand(s)",
            gate.arity()
        );
        debug_assert!(
            {
                let mut qs = qubits.to_vec();
                qs.sort_unstable();
                qs.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate operand for {gate}"
        );
        self.sink.on_gate(gate, qubits);
    }

    /// Pauli X.
    pub fn x(&mut self, q: QubitId) {
        self.gate(Gate::X, &[q]);
    }
    /// Pauli Y.
    pub fn y(&mut self, q: QubitId) {
        self.gate(Gate::Y, &[q]);
    }
    /// Pauli Z.
    pub fn z(&mut self, q: QubitId) {
        self.gate(Gate::Z, &[q]);
    }
    /// Hadamard.
    pub fn h(&mut self, q: QubitId) {
        self.gate(Gate::H, &[q]);
    }
    /// S gate.
    pub fn s(&mut self, q: QubitId) {
        self.gate(Gate::S, &[q]);
    }
    /// S† gate.
    pub fn sdg(&mut self, q: QubitId) {
        self.gate(Gate::Sdg, &[q]);
    }
    /// T gate.
    pub fn t(&mut self, q: QubitId) {
        self.gate(Gate::T, &[q]);
    }
    /// T† gate.
    pub fn tdg(&mut self, q: QubitId) {
        self.gate(Gate::Tdg, &[q]);
    }
    /// X-rotation.
    pub fn rx(&mut self, theta: f64, q: QubitId) {
        self.gate(Gate::Rx(theta), &[q]);
    }
    /// Y-rotation.
    pub fn ry(&mut self, theta: f64, q: QubitId) {
        self.gate(Gate::Ry(theta), &[q]);
    }
    /// Z-rotation.
    pub fn rz(&mut self, theta: f64, q: QubitId) {
        self.gate(Gate::Rz(theta), &[q]);
    }
    /// CNOT with `c` control and `t` target.
    pub fn cx(&mut self, c: QubitId, t: QubitId) {
        self.gate(Gate::Cx, &[c, t]);
    }
    /// Controlled-Z.
    pub fn cz(&mut self, a: QubitId, b: QubitId) {
        self.gate(Gate::Cz, &[a, b]);
    }
    /// Swap.
    pub fn swap(&mut self, a: QubitId, b: QubitId) {
        self.gate(Gate::Swap, &[a, b]);
    }
    /// Doubly-controlled Z.
    pub fn ccz(&mut self, a: QubitId, b: QubitId, c: QubitId) {
        self.gate(Gate::Ccz, &[a, b, c]);
    }
    /// Toffoli (doubly-controlled X).
    pub fn ccx(&mut self, a: QubitId, b: QubitId, t: QubitId) {
        self.gate(Gate::Ccx, &[a, b, t]);
    }
    /// CCiX / logical-AND gadget gate.
    pub fn ccix(&mut self, a: QubitId, b: QubitId, t: QubitId) {
        self.gate(Gate::CCiX, &[a, b, t]);
    }
    /// Z-basis measurement.
    pub fn measure(&mut self, q: QubitId) {
        self.gate(Gate::MeasureZ, &[q]);
    }
    /// X-basis measurement.
    pub fn measure_x(&mut self, q: QubitId) {
        self.gate(Gate::MeasureX, &[q]);
    }
    /// Reset to |0⟩.
    pub fn reset(&mut self, q: QubitId) {
        self.gate(Gate::Reset, &[q]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{CountingTracer, NullSink};

    #[test]
    fn alloc_reuses_released_ids() {
        let mut b = Builder::new(CountingTracer::new());
        let q0 = b.alloc();
        let q1 = b.alloc();
        assert_ne!(q0, q1);
        b.release(q1);
        let q2 = b.alloc();
        assert_eq!(q2, q1, "freed qubit should be reused");
        assert_eq!(b.live_qubits(), 2);
        let counts = b.into_sink().counts();
        assert_eq!(counts.num_qubits, 2);
    }

    #[test]
    fn register_round_trip() {
        let mut b = Builder::new(CountingTracer::new());
        let reg = b.alloc_register(8);
        assert_eq!(reg.len(), 8);
        assert!(!reg.is_empty());
        assert_eq!(reg.bit(0), QubitId(0));
        let lo = reg.slice(0..4);
        assert_eq!(lo.len(), 4);
        assert_eq!(lo.bit(3), reg.bit(3));
        b.release_register(reg);
        assert_eq!(b.live_qubits(), 0);
        // Full register reuse after release.
        let reg2 = b.alloc_register(8);
        assert_eq!(b.into_sink().counts().num_qubits, 8);
        assert_eq!(reg2.len(), 8);
    }

    #[test]
    fn gate_helpers_hit_the_sink() {
        let mut b = Builder::new(CountingTracer::new());
        let r = b.alloc_register(3);
        b.h(r.bit(0));
        b.t(r.bit(0));
        b.cx(r.bit(0), r.bit(1));
        b.ccz(r.bit(0), r.bit(1), r.bit(2));
        b.ccix(r.bit(0), r.bit(1), r.bit(2));
        b.rz(0.123, r.bit(2));
        b.measure(r.bit(2));
        let c = b.into_sink().counts();
        assert_eq!(c.t_count, 1);
        assert_eq!(c.ccz_count, 1);
        assert_eq!(c.ccix_count, 1);
        assert_eq!(c.rotation_count, 1);
        assert_eq!(c.measurement_count, 1);
    }

    /// Three calls of one block that widens by three, counts one of each
    /// non-Clifford kind and parks one qubit; then the parked qubits go and
    /// four more come.
    fn parking_blocks<S: Sink>(b: &mut Builder<S>) {
        let q = b.alloc_register(2);
        let keep = b.parked();
        for _ in 0..3 {
            b.block(("parking", [2, 0, 0]), |b| {
                let t = b.alloc_register(3);
                b.ccix(q.bit(0), q.bit(1), t.bit(0));
                b.ccz(t.bit(1), t.bit(2), q.bit(0));
                b.t(t.bit(2));
                b.measure_x(t.bit(1));
                b.release_register(t.slice(1..3));
                b.park(t.slice(0..1));
            });
        }
        assert_eq!(b.parked(), 3);
        b.release_parked(keep);
        let _ = b.alloc_register(4);
    }

    #[test]
    fn blocks_replay_what_tracing_counts() {
        let mut composed = Builder::new(CountingTracer::new());
        parking_blocks(&mut composed);
        assert_eq!(composed.blocks.len(), 1);
        assert_eq!(composed.live_qubits(), 6);
        let mut traced = Builder::new(crate::TeeSink::new(CountingTracer::new(), NullSink));
        parking_blocks(&mut traced);
        assert!(traced.blocks.is_empty(), "a tee sees every gate");
        let c = composed.into_sink().counts();
        assert_eq!(c, traced.into_sink().first.counts());
        // Two operands, two qubits parked by earlier calls, three transient.
        assert_eq!(c.num_qubits, 7);
        assert_eq!((c.ccix_count, c.ccz_count, c.t_count), (3, 3, 3));
        assert_eq!(c.measurement_count, 3);

        // A block that counts a rotation is never recorded.
        let mut b = Builder::new(CountingTracer::new());
        let q = b.alloc();
        for _ in 0..2 {
            b.block(("rotation", [0; 3]), |b| b.rz(0.3, q));
        }
        assert!(b.blocks.is_empty());
        let c = b.into_sink().counts();
        assert_eq!((c.rotation_count, c.rotation_depth), (2, 2));
    }

    #[test]
    #[should_panic(expected = "duplicate operand")]
    #[cfg(debug_assertions)]
    fn duplicate_operands_rejected_in_debug() {
        let mut b = Builder::new(CountingTracer::new());
        let q = b.alloc();
        let r = b.alloc();
        let _ = r;
        b.gate(Gate::Cx, &[q, q]);
    }
}
