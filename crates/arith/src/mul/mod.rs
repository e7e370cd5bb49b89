//! The paper's Section V workload: three quantum algorithms for large-integer
//! multiplication, packaged behind one interface.
//!
//! [`MulAlgorithm`] names the algorithm; [`multiplication_counts`] builds the
//! standard workload (an `n`-bit multiplier register, an `n`-bit multiplicand
//! operand register, a `2n+1`-bit accumulator) and returns its pre-layout
//! [`LogicalCounts`], ready for the physical estimator.
//!
//! It counts by composition: its builder's [`CountingTracer`] lets
//! [`Builder::block`] replay each schoolbook row, windowed window, adder and
//! Karatsuba node after tracing its shape once. At 4 096 bits that is about
//! 12, 21 and 190 gate events per bit for schoolbook, windowed and Karatsuba,
//! against 6.7·10⁷, 7.1·10⁶ and 5.0·10⁷ counted operations. Emitting into
//! any other sink with [`emit_multiplication`] traces every gate, with equal
//! counts.

pub mod karatsuba;
pub mod schoolbook;
pub mod windowed;

pub use karatsuba::{karatsuba_accumulate, KaratsubaConfig};
pub use schoolbook::{schoolbook_accumulate, schoolbook_accumulate_fresh};
pub use windowed::{default_window, windowed_accumulate, Multiplicand, WindowedConfig};

use qre_circuit::{Builder, CountingTracer, LogicalCounts, Sink};

/// The three multiplication algorithms compared in the paper's Section V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulAlgorithm {
    /// Standard long multiplication — `Θ(n²)` Toffoli-like gates.
    Schoolbook,
    /// Karatsuba multiplication (Gidney, arXiv:1904.07356) —
    /// `Θ(n^{log₂3})` gates with a superlinear workspace.
    Karatsuba,
    /// Windowed multiplication (Gidney, arXiv:1905.07682) —
    /// `≈ 2n²/log₂ n` Toffoli-layer operations via table lookups.
    Windowed,
}

impl MulAlgorithm {
    /// All three algorithms, in the paper's presentation order.
    pub const ALL: [MulAlgorithm; 3] = [
        MulAlgorithm::Schoolbook,
        MulAlgorithm::Karatsuba,
        MulAlgorithm::Windowed,
    ];

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            MulAlgorithm::Schoolbook => "standard",
            MulAlgorithm::Karatsuba => "karatsuba",
            MulAlgorithm::Windowed => "windowed",
        }
    }
}

impl std::fmt::Display for MulAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knobs for the workload generator; defaults follow the paper's setup.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulWorkloadConfig {
    /// Karatsuba recursion settings.
    pub karatsuba: KaratsubaConfig,
    /// Windowed lookup settings.
    pub windowed: WindowedConfig,
}

/// Emit the full `n`-bit multiplication workload for `alg` into `builder`:
/// allocates the operand registers (`x`: n, `y`: n, `acc`: 2n+1) and runs the
/// algorithm. The `y` operand register is provisioned for all three
/// algorithms (the windowed algorithm consumes it as classical data but the
/// workload still carries the operand — see the module docs of
/// [`windowed`]).
pub fn emit_multiplication<S: Sink>(
    builder: &mut Builder<S>,
    alg: MulAlgorithm,
    bits: usize,
    cfg: MulWorkloadConfig,
) {
    assert!(bits >= 2, "multiplication workload needs at least 2 bits");
    let x = builder.alloc_register(bits);
    let y = builder.alloc_register(bits);
    let acc = builder.alloc_register(2 * bits + 1);
    match alg {
        MulAlgorithm::Schoolbook => schoolbook_accumulate_fresh(builder, &x.0, &y.0, &acc.0),
        MulAlgorithm::Karatsuba => karatsuba_accumulate(builder, &x.0, &y.0, &acc.0, cfg.karatsuba),
        MulAlgorithm::Windowed => windowed_accumulate(
            builder,
            &x.0,
            Multiplicand::Abstract { bits },
            &acc.0,
            cfg.windowed,
        ),
    }
}

/// Pre-layout logical counts of the `n`-bit multiplication workload.
pub fn multiplication_counts(alg: MulAlgorithm, bits: usize) -> LogicalCounts {
    multiplication_counts_with(alg, bits, MulWorkloadConfig::default())
}

/// [`multiplication_counts`] with explicit configuration.
pub fn multiplication_counts_with(
    alg: MulAlgorithm,
    bits: usize,
    cfg: MulWorkloadConfig,
) -> LogicalCounts {
    let mut builder = Builder::new(CountingTracer::new());
    emit_multiplication(&mut builder, alg, bits, cfg);
    builder.into_sink().counts()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::add::add_into;
    use qre_circuit::{Gate, NullSink, QubitId, TeeSink};

    /// Depth-weighted non-Clifford volume: the algorithmic-depth contribution
    /// of the counted gates (3 cycles per Toffoli-like gate, 1 per T /
    /// measurement), a cheap proxy for runtime ordering.
    fn depth_proxy(c: &LogicalCounts) -> u64 {
        3 * (c.ccz_count + c.ccix_count) + c.t_count + c.measurement_count
    }

    #[test]
    fn all_algorithms_produce_nonzero_counts() {
        for alg in MulAlgorithm::ALL {
            let c = multiplication_counts(alg, 64);
            assert!(c.num_qubits >= 64 * 4, "{alg}: width {}", c.num_qubits);
            assert!(c.ccz_count + c.ccix_count > 0, "{alg}");
            assert_eq!(c.rotation_count, 0, "{alg}: multipliers are rotation-free");
            assert_eq!(c.t_count, 0, "{alg}: T cost is carried by CCiX/CCZ");
        }
    }

    #[test]
    fn karatsuba_uses_the_most_qubits() {
        // The paper: "the Karatsuba algorithm requires more physical qubits
        // than the other two" — visible already in logical width well above
        // the recursion cutoff. Tested at debug-friendly scale (cutoff 32,
        // 512 bits); the paper-scale sweep lives in the release harness.
        let bits = 512;
        let cfg = MulWorkloadConfig {
            karatsuba: KaratsubaConfig {
                cutoff: 32,
                bennett: true,
            },
            windowed: WindowedConfig::default(),
        };
        let k = multiplication_counts_with(MulAlgorithm::Karatsuba, bits, cfg);
        let s = multiplication_counts_with(MulAlgorithm::Schoolbook, bits, cfg);
        let w = multiplication_counts_with(MulAlgorithm::Windowed, bits, cfg);
        assert!(
            k.num_qubits > s.num_qubits,
            "k={} s={}",
            k.num_qubits,
            s.num_qubits
        );
        assert!(
            k.num_qubits > w.num_qubits,
            "k={} w={}",
            k.num_qubits,
            w.num_qubits
        );
    }

    #[test]
    fn windowed_is_the_cheapest() {
        let bits = 512;
        let s = multiplication_counts(MulAlgorithm::Schoolbook, bits);
        let w = multiplication_counts(MulAlgorithm::Windowed, bits);
        assert!(
            depth_proxy(&w) * 3 < depth_proxy(&s),
            "windowed {} vs schoolbook {}",
            depth_proxy(&w),
            depth_proxy(&s)
        );
    }

    #[test]
    fn karatsuba_crossover_scales_with_cutoff() {
        // The paper observes the Karatsuba runtime advantage appearing around
        // 4096 bits with the production cutoff (512). The mechanism — losing
        // below a handful of cutoff multiples, winning beyond — is verified
        // here at a cutoff of 64; the paper-scale crossover is the
        // `karatsuba-crossover` claim of `qre_bench::text_claims`, asserted
        // over the full Figure 3 range by tests/paper_claims.rs.
        let cfg = MulWorkloadConfig {
            karatsuba: KaratsubaConfig {
                cutoff: 64,
                bennett: true,
            },
            windowed: WindowedConfig::default(),
        };
        let ratio = |bits: usize| {
            let k = multiplication_counts_with(MulAlgorithm::Karatsuba, bits, cfg);
            let s = multiplication_counts_with(MulAlgorithm::Schoolbook, bits, cfg);
            depth_proxy(&k) as f64 / depth_proxy(&s) as f64
        };
        assert!(
            ratio(128) > 1.0,
            "karatsuba should lose at 2x cutoff: {}",
            ratio(128)
        );
        assert!(
            ratio(1024) < 1.0,
            "karatsuba should win at 16x cutoff: {}",
            ratio(1024)
        );
    }

    #[test]
    fn windowed_logical_qubits_match_paper_at_2048() {
        // Paper, Section V: the windowed algorithm at 2048 bits uses 20 597
        // logical qubits (post-layout). Pre-layout that corresponds to
        // ≈ 10 155; our workload must land within 5%.
        let c = multiplication_counts(MulAlgorithm::Windowed, 2048);
        let q = c.num_qubits as f64;
        assert!(
            (9_650.0..=10_900.0).contains(&q),
            "pre-layout windowed qubits at 2048: {q}"
        );
    }

    #[test]
    fn workload_counts_are_deterministic() {
        for alg in MulAlgorithm::ALL {
            assert_eq!(
                multiplication_counts(alg, 128),
                multiplication_counts(alg, 128)
            );
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(MulAlgorithm::Schoolbook.to_string(), "standard");
        assert_eq!(MulAlgorithm::Karatsuba.to_string(), "karatsuba");
        assert_eq!(MulAlgorithm::Windowed.to_string(), "windowed");
    }

    /// Rotations between blocks: `add_into` is recorded, a rotation lands on
    /// its source, the same `add_into` runs again and must carry that
    /// rotation's layer into the target, a rotation follows on the target,
    /// then a multiplication runs.
    fn rotations_around_blocks<S: Sink>(
        b: &mut Builder<S>,
        alg: MulAlgorithm,
        cfg: MulWorkloadConfig,
    ) {
        let src = b.alloc_register(8);
        let tgt = b.alloc_register(12);
        add_into(b, &src.0, &tgt.0);
        b.rz(0.3, src.bit(0));
        add_into(b, &src.0, &tgt.0);
        b.rz(0.3, tgt.bit(11));
        emit_multiplication(b, alg, 64, cfg);
    }

    #[test]
    fn rotations_between_blocks_count_like_tracing() {
        let cfg = MulWorkloadConfig {
            karatsuba: KaratsubaConfig {
                cutoff: 8,
                bennett: true,
            },
            windowed: WindowedConfig::default(),
        };
        for alg in MulAlgorithm::ALL {
            let mut composed = Builder::new(CountingTracer::new());
            rotations_around_blocks(&mut composed, alg, cfg);
            let mut traced = Builder::new(TeeSink::new(CountingTracer::new(), NullSink));
            rotations_around_blocks(&mut traced, alg, cfg);
            let composed = composed.into_sink().counts();
            assert_eq!(composed, traced.into_sink().first.counts(), "{alg}");
            assert_eq!(composed.rotation_depth, 2, "{alg}");
        }
    }

    /// Forwards every event to a `CountingTracer` and counts the gate events
    /// that reach it; a replayed block reaches only the tracer.
    #[derive(Default)]
    struct GateEvents {
        tracer: CountingTracer,
        gates: u64,
    }

    impl Sink for GateEvents {
        fn on_allocate(&mut self, q: QubitId) {
            self.tracer.on_allocate(q);
        }
        fn on_release(&mut self, q: QubitId) {
            self.tracer.on_release(q);
        }
        fn on_gate(&mut self, gate: Gate, qubits: &[QubitId]) {
            self.gates += 1;
            self.tracer.on_gate(gate, qubits);
        }
        fn counting(&mut self) -> Option<&mut CountingTracer> {
            Some(&mut self.tracer)
        }
    }

    #[test]
    fn counting_emits_a_bounded_number_of_gate_events_per_bit() {
        // Gate events per bit measured at 4,096 bits; each budget is 1.25×
        // that, so a gadget moved out of its block fails here.
        const BITS: usize = 4096;
        for (alg, measured) in [
            (MulAlgorithm::Schoolbook, 12.0),
            (MulAlgorithm::Karatsuba, 189.7),
            (MulAlgorithm::Windowed, 21.3),
        ] {
            let mut b = Builder::new(GateEvents::default());
            emit_multiplication(&mut b, alg, BITS, MulWorkloadConfig::default());
            let per_bit = b.into_sink().gates as f64 / BITS as f64;
            assert!(
                per_bit <= 1.25 * measured,
                "{alg}: {per_bit:.1} gate events per bit, budget {:.1}",
                1.25 * measured
            );
        }
    }
}
