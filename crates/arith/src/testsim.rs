//! Classical bit-level simulator for functional verification of arithmetic
//! circuits (test-only).
//!
//! Every circuit in this crate is classical-reversible: the only gates with
//! computational-basis effect are X, CX, CCX/CCiX, and SWAP; CZ/CCZ/Z are
//! phase-only; the X-basis measurement appears exclusively inside
//! measurement-based uncomputation (temporary-AND erasure and lookup
//! uncomputation), where its computational effect is "this qubit returns to
//! |0⟩". The simulator interprets exactly that gate set and **panics** on any
//! non-classical gate, which doubles as a test that the arithmetic layer
//! stays Clifford+Toffoli.
//!
//! As a safety net for the measurement-based AND erasure, the simulator
//! checks the `measure_x(t); cz(x, y)` idiom: when a CZ immediately follows
//! an X-measurement, the measured qubit's prior value must equal the AND of
//! the CZ operands — catching constructions that try to erase a qubit that
//! does not actually hold `x ∧ y`.

use qre_circuit::{Builder, Gate, QubitId, Sink};
use std::collections::BTreeSet;

/// Classical state sink.
#[derive(Debug, Default)]
pub struct SimSink {
    bits: Vec<bool>,
    /// `(qubit, value at measurement)` of the most recent X-measurement, used
    /// to validate the AND-erasure idiom.
    pending_measure: Option<(QubitId, bool)>,
}

impl SimSink {
    fn bit(&mut self, q: QubitId) -> bool {
        let idx = q.index();
        if idx >= self.bits.len() {
            self.bits.resize(idx + 1, false);
        }
        self.bits[idx]
    }

    fn set(&mut self, q: QubitId, v: bool) {
        let idx = q.index();
        if idx >= self.bits.len() {
            self.bits.resize(idx + 1, false);
        }
        self.bits[idx] = v;
    }
}

impl Sink for SimSink {
    fn on_allocate(&mut self, q: QubitId) {
        // Allocation hands out |0⟩; a dirty reuse indicates a gadget that
        // released an un-erased qubit.
        assert!(
            !self.bit(q),
            "allocated qubit {q} is dirty — a gadget released it un-erased"
        );
    }

    fn on_release(&mut self, q: QubitId) {
        assert!(
            !self.bit(q),
            "qubit {q} released while holding 1 — missing uncompute"
        );
    }

    fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]) {
        // Validate the AND-erasure idiom before anything else.
        if let Gate::Cz = gate {
            if let Some((_, value)) = self.pending_measure.take() {
                let a = self.bit(qubits[0]);
                let b = self.bit(qubits[1]);
                assert_eq!(
                    value,
                    a && b,
                    "AND-erasure of a qubit holding {value} but operands AND to {}",
                    a && b
                );
            }
            return; // phase-only
        }
        if !matches!(gate, Gate::MeasureX) {
            self.pending_measure = None;
        }
        match gate {
            Gate::X => {
                let v = self.bit(qubits[0]);
                self.set(qubits[0], !v);
            }
            Gate::Cx => {
                if self.bit(qubits[0]) {
                    let v = self.bit(qubits[1]);
                    self.set(qubits[1], !v);
                }
            }
            Gate::Ccx | Gate::CCiX => {
                if self.bit(qubits[0]) && self.bit(qubits[1]) {
                    let v = self.bit(qubits[2]);
                    self.set(qubits[2], !v);
                }
            }
            Gate::Swap => {
                let a = self.bit(qubits[0]);
                let b = self.bit(qubits[1]);
                self.set(qubits[0], b);
                self.set(qubits[1], a);
            }
            Gate::Z | Gate::Ccz => {} // phase-only
            Gate::MeasureX => {
                // Measurement-based erasure: record the value for the idiom
                // check, then the qubit is (up to the CZ fixup) |0⟩.
                let v = self.bit(qubits[0]);
                self.pending_measure = Some((qubits[0], v));
                self.set(qubits[0], false);
            }
            Gate::Reset => self.set(qubits[0], false),
            other => panic!("non-classical gate {other} reached the classical simulator"),
        }
    }
}

/// Test harness pairing a [`Builder`] over [`SimSink`] with register helpers.
#[derive(Debug)]
pub struct SimBuilder {
    builder: Builder<SimSink>,
    user_bits: BTreeSet<u32>,
}

impl SimBuilder {
    /// Fresh simulator.
    pub fn new() -> Self {
        Self {
            builder: Builder::new(SimSink::default()),
            user_bits: BTreeSet::new(),
        }
    }

    /// Access the builder to emit circuits.
    pub fn builder(&mut self) -> &mut Builder<SimSink> {
        &mut self.builder
    }

    /// Allocate an `n`-bit register initialised to `value` (little-endian).
    pub fn alloc_value(&mut self, n: usize, value: u64) -> Vec<QubitId> {
        assert!(n >= 64 || value < (1u64 << n), "value does not fit");
        let reg: Vec<QubitId> = (0..n).map(|_| self.builder.alloc()).collect();
        for (i, &q) in reg.iter().enumerate() {
            if (value >> i) & 1 == 1 {
                self.builder.x(q);
            }
            self.user_bits.insert(q.0);
        }
        reg
    }

    /// Read a register's little-endian value.
    pub fn read_value(&mut self, reg: &[QubitId]) -> u64 {
        let mut v = 0u64;
        for (i, &q) in reg.iter().enumerate() {
            if self.builder.sink_bit(q) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Assert that every bit outside user registers is |0⟩ — i.e. all
    /// gadget-internal ancillas were properly uncomputed.
    pub fn assert_all_ancillas_clean(&mut self) {
        let dirty: Vec<usize> = self
            .builder
            .sink()
            .bits
            .iter()
            .enumerate()
            .filter(|(i, &v)| v && !self.user_bits.contains(&(*i as u32)))
            .map(|(i, _)| i)
            .collect();
        assert!(dirty.is_empty(), "dirty ancilla bits: {dirty:?}");
    }
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Extension to read a bit through the builder without exposing sink
/// internals publicly.
trait SinkBit {
    fn sink_bit(&mut self, q: QubitId) -> bool;
}

impl SinkBit for Builder<SimSink> {
    fn sink_bit(&mut self, q: QubitId) -> bool {
        let idx = q.index();
        self.sink().bits.get(idx).copied().unwrap_or(false)
    }
}

/// Deterministic splitmix64 step, the test suite's stand-in for an external
/// PRNG crate (offline builds cannot vendor `rand`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
