//! Recorded circuits: an instruction list that can be replayed, counted, and
//! round-tripped through the QIR-lite front end.

use crate::counts::LogicalCounts;
use crate::gate::{Gate, QubitId};
use crate::tracer::{CountingTracer, Sink};

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// Qubit allocation.
    Allocate(QubitId),
    /// Qubit release.
    Release(QubitId),
    /// Gate application. Operand count always matches `gate.arity()` —
    /// enforced on construction and by the recording sink.
    Gate {
        /// The applied gate.
        gate: Gate,
        /// Operand qubits (controls first, target last for controlled gates).
        qubits: Vec<QubitId>,
    },
}

/// A recorded logical circuit.
///
/// `Circuit` implements [`Sink`], so a [`Builder`](crate::Builder) can record
/// into it directly; [`Circuit::replay`] pushes the stored events into any
/// other sink (e.g. a [`CountingTracer`] for counting, or a QIR emitter).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of recorded instructions (allocations and releases included).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Append a gate directly (validating arity).
    pub fn push_gate(&mut self, gate: Gate, qubits: Vec<QubitId>) {
        assert_eq!(
            gate.arity(),
            qubits.len(),
            "gate {gate} expects {} operand(s), got {}",
            gate.arity(),
            qubits.len()
        );
        self.instructions.push(Instruction::Gate { gate, qubits });
    }

    /// Replay the recorded events into another sink.
    pub fn replay<S: Sink>(&self, sink: &mut S) {
        for instr in &self.instructions {
            match instr {
                Instruction::Allocate(q) => sink.on_allocate(*q),
                Instruction::Release(q) => sink.on_release(*q),
                Instruction::Gate { gate, qubits } => sink.on_gate(*gate, qubits),
            }
        }
    }

    /// Compute the pre-layout logical counts of this circuit.
    pub fn counts(&self) -> LogicalCounts {
        let mut tracer = CountingTracer::new();
        self.replay(&mut tracer);
        let mut counts = tracer.counts();
        // A recorded circuit may reference qubits that were never explicitly
        // allocated (e.g. circuits parsed from base-profile QIR, which uses a
        // static qubit numbering). Width is then the larger of the tracked
        // peak and the number of distinct qubits referenced.
        let distinct = self.distinct_qubits();
        counts.num_qubits = counts.num_qubits.max(distinct);
        counts
    }

    /// Number of distinct qubit ids referenced anywhere in the circuit.
    pub fn distinct_qubits(&self) -> u64 {
        let mut seen = std::collections::BTreeSet::new();
        for instr in &self.instructions {
            match instr {
                Instruction::Allocate(q) | Instruction::Release(q) => {
                    seen.insert(*q);
                }
                Instruction::Gate { qubits, .. } => {
                    seen.extend(qubits.iter().copied());
                }
            }
        }
        seen.len() as u64
    }
}

impl Sink for Circuit {
    fn on_allocate(&mut self, q: QubitId) {
        self.instructions.push(Instruction::Allocate(q));
    }

    fn on_release(&mut self, q: QubitId) {
        self.instructions.push(Instruction::Release(q));
    }

    fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]) {
        self.push_gate(gate, qubits.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn record_and_count() {
        let mut b = Builder::new(Circuit::new());
        let r = b.alloc_register(2);
        b.h(r.bit(0));
        b.cx(r.bit(0), r.bit(1));
        b.t(r.bit(1));
        b.measure(r.bit(0));
        b.measure(r.bit(1));
        let circuit = b.into_sink();
        let gates = circuit
            .instructions()
            .iter()
            .filter(|i| matches!(i, Instruction::Gate { .. }))
            .count();
        assert_eq!(gates, 5);
        assert_eq!(circuit.len(), 7); // + 2 allocations
        let c = circuit.counts();
        assert_eq!(c.num_qubits, 2);
        assert_eq!(c.t_count, 1);
        assert_eq!(c.measurement_count, 2);
    }

    #[test]
    fn replay_equals_direct_counting() {
        // Emit once into a tee of (recorder, counter); replaying the recorded
        // circuit into a fresh counter must reproduce the direct counts.
        use crate::tracer::TeeSink;
        let mut b = Builder::new(TeeSink::new(Circuit::new(), CountingTracer::new()));
        let r = b.alloc_register(3);
        b.ccz(r.bit(0), r.bit(1), r.bit(2));
        b.rz(0.25, r.bit(0));
        b.rz(0.25, r.bit(1));
        b.measure(r.bit(2));
        b.release_register(r);
        let tee = b.into_sink();
        let direct = tee.second.counts();
        assert_eq!(tee.first.counts(), direct);
        assert_eq!(direct.ccz_count, 1);
        assert_eq!(direct.rotation_count, 2);
        assert_eq!(direct.rotation_depth, 1);
    }

    #[test]
    fn distinct_qubits_without_allocations() {
        // Circuits straight from QIR reference static ids with no alloc events.
        let mut c = Circuit::new();
        c.push_gate(Gate::H, vec![QubitId(0)]);
        c.push_gate(Gate::Cx, vec![QubitId(0), QubitId(5)]);
        assert_eq!(c.distinct_qubits(), 2);
        assert_eq!(c.counts().num_qubits, 2);
    }

    #[test]
    #[should_panic(expected = "expects 2 operand")]
    fn arity_validated_on_push() {
        let mut c = Circuit::new();
        c.push_gate(Gate::Cx, vec![QubitId(0)]);
    }

    #[test]
    fn empty_circuit() {
        let c = Circuit::new();
        assert!(c.is_empty());
        assert_eq!(c.counts(), LogicalCounts::default());
    }
}
