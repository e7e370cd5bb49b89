//! Cross-cutting property tests for the arithmetic layer.

use crate::add::{add_into, add_into_cdkm, controlled_add_into, sub_into};
use crate::mul::{
    emit_multiplication, karatsuba_accumulate, multiplication_counts_with, schoolbook_accumulate,
    windowed_accumulate, KaratsubaConfig, MulAlgorithm, MulWorkloadConfig, Multiplicand,
    WindowedConfig,
};
use crate::testsim::SimBuilder;
use proptest::prelude::*;
use qre_circuit::{Builder, CountingTracer, NullSink, TeeSink};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both adders compute the same function on random widths and values.
    #[test]
    fn adders_agree(
        m in 1usize..12,
        k_frac in 0usize..12,
        a in any::<u64>(),
        s in any::<u64>(),
    ) {
        let k = (k_frac % m) + 1;
        let a = a & ((1 << m) - 1);
        let s = s & ((1 << k) - 1);

        let mut sim1 = SimBuilder::new();
        let tgt1 = sim1.alloc_value(m, a);
        let src1 = sim1.alloc_value(k, s);
        add_into(sim1.builder(), &src1, &tgt1);
        let gidney = sim1.read_value(&tgt1);
        sim1.assert_all_ancillas_clean();

        let mut sim2 = SimBuilder::new();
        let tgt2 = sim2.alloc_value(m, a);
        let src2 = sim2.alloc_value(k, s);
        add_into_cdkm(sim2.builder(), &src2, &tgt2);
        let cdkm = sim2.read_value(&tgt2);
        sim2.assert_all_ancillas_clean();

        prop_assert_eq!(gidney, cdkm);
        prop_assert_eq!(gidney, (a + s) & ((1 << m) - 1));
    }

    /// Addition followed by subtraction is the identity.
    #[test]
    fn add_then_sub_is_identity(
        m in 1usize..12,
        a in any::<u64>(),
        s in any::<u64>(),
    ) {
        let a = a & ((1 << m) - 1);
        let s = s & ((1 << m) - 1);
        let mut sim = SimBuilder::new();
        let tgt = sim.alloc_value(m, a);
        let src = sim.alloc_value(m, s);
        add_into(sim.builder(), &src, &tgt);
        sub_into(sim.builder(), &src, &tgt);
        prop_assert_eq!(sim.read_value(&tgt), a);
        prop_assert_eq!(sim.read_value(&src), s);
        sim.assert_all_ancillas_clean();
    }

    /// Controlled addition obeys its control.
    #[test]
    fn controlled_add_respects_control(
        m in 1usize..10,
        a in any::<u64>(),
        s in any::<u64>(),
        ctrl in any::<bool>(),
    ) {
        let a = a & ((1 << m) - 1);
        let s = s & ((1 << m) - 1);
        let mut sim = SimBuilder::new();
        let tgt = sim.alloc_value(m, a);
        let src = sim.alloc_value(m, s);
        let c = sim.alloc_value(1, u64::from(ctrl));
        controlled_add_into(sim.builder(), c[0], &src, &tgt);
        let want = if ctrl { (a + s) & ((1 << m) - 1) } else { a };
        prop_assert_eq!(sim.read_value(&tgt), want);
        sim.assert_all_ancillas_clean();
    }

    /// All three multipliers agree with integer multiplication (and with one
    /// another) on random inputs.
    #[test]
    fn multipliers_agree(
        n in 2usize..10,
        x in any::<u64>(),
        y in any::<u64>(),
        cutoff in 2usize..6,
        window in 1usize..4,
    ) {
        let x = x & ((1 << n) - 1);
        let y = (y & ((1 << n) - 1)).max(1);
        let expect = x * y;

        let mut s1 = SimBuilder::new();
        let xr = s1.alloc_value(n, x);
        let yr = s1.alloc_value(n, y);
        let acc = s1.alloc_value(2 * n + 1, 0);
        schoolbook_accumulate(s1.builder(), &xr, &yr, &acc);
        prop_assert_eq!(s1.read_value(&acc), expect);
        s1.assert_all_ancillas_clean();

        let mut s2 = SimBuilder::new();
        let xr = s2.alloc_value(n, x);
        let yr = s2.alloc_value(n, y);
        let acc = s2.alloc_value(2 * n + 1, 0);
        karatsuba_accumulate(
            s2.builder(),
            &xr,
            &yr,
            &acc,
            KaratsubaConfig { cutoff, bennett: false },
        );
        prop_assert_eq!(s2.read_value(&acc), expect);

        let mut s3 = SimBuilder::new();
        let xr = s3.alloc_value(n, x);
        let ny = Multiplicand::Value(y).bits();
        let acc = s3.alloc_value(n + ny + 1, 0);
        windowed_accumulate(
            s3.builder(),
            &xr,
            Multiplicand::Value(y),
            &acc,
            WindowedConfig { window: Some(window) },
        );
        prop_assert_eq!(s3.read_value(&acc), expect);
        s3.assert_all_ancillas_clean();
    }

    /// Multiplication distributes over accumulation: acc += x·y twice equals
    /// acc += (2x)·y once (mod register width).
    #[test]
    fn accumulation_is_additive(
        n in 2usize..8,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        let x = x & ((1 << n) - 1);
        let y = y & ((1 << n) - 1);
        let width = 2 * n + 2;

        let mut s1 = SimBuilder::new();
        let xr = s1.alloc_value(n, x);
        let yr = s1.alloc_value(n, y);
        let acc = s1.alloc_value(width, 0);
        schoolbook_accumulate(s1.builder(), &xr, &yr, &acc);
        schoolbook_accumulate(s1.builder(), &xr, &yr, &acc);
        prop_assert_eq!(s1.read_value(&acc), 2 * x * y);
        s1.assert_all_ancillas_clean();
    }
}

proptest! {
    // A traced 512-bit reference costs up to ≈ 1.4 s in a debug build, so
    // widths are drawn log-uniformly and the case count stays small.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counting by composition equals tracing every gate: the replaying
    /// `CountingTracer` builder of `multiplication_counts_with` and a
    /// `TeeSink` builder, which never replays, count the same emission alike.
    #[test]
    fn composed_counts_equal_traced_counts(
        alg in 0usize..3,
        log_bits in 1.0f64..9.05,
        window in 1usize..=12,
        cutoff in 5usize..=64,
        bennett in any::<bool>(),
    ) {
        let alg = MulAlgorithm::ALL[alg];
        let bits = (2f64.powf(log_bits).round() as usize).clamp(2, 512);
        let cfg = MulWorkloadConfig {
            karatsuba: KaratsubaConfig { cutoff, bennett },
            windowed: WindowedConfig { window: Some(window) },
        };
        let mut traced = Builder::new(TeeSink::new(CountingTracer::new(), NullSink));
        emit_multiplication(&mut traced, alg, bits, cfg);
        prop_assert_eq!(
            multiplication_counts_with(alg, bits, cfg),
            traced.into_sink().first.counts()
        );
    }
}
