//! Windowed multiplication (Gidney, arXiv:1905.07682).
//!
//! `acc += x · Y` where the multiplicand `Y` is classically described (the
//! Shor-style "times a known constant" setting of Gidney's construction): `x`
//! is scanned in windows of `w` bits, and each window performs
//!
//! 1. a QROM [`lookup`](crate::lookup::lookup()) of the pre-computed multiple
//!    `k·Y` (`k` = window value) into a temporary register — `2^w − 2` CCiX,
//! 2. an in-place addition of the temporary into the accumulator slice at the
//!    window offset, using the ancilla-lean CDKM adder — `≈ 2(n+w)` CCZ,
//! 3. a measurement-based [`unlookup`](crate::lookup::unlookup()) — `≈ 2√(2^w)`
//!    CCiX plus one X-measurement per temporary bit.
//!
//! With `w ≈ log₂ n`, the total is `≈ n²/w · 3`-ish Toffoli-layer operations —
//! the `~2n²/lg n` improvement over schoolbook multiplication that drives the
//! windowed algorithm's win in the paper's Figure 3.
//!
//! Although the multiplicand is classical data, the workload wrapper still
//! provisions the `Y` operand register (the value is carried by the
//! algorithm's interface); this matches the logical qubit count the paper
//! reports for the windowed algorithm at 2048 bits to within ~1%.

use crate::add::add_into_cdkm;
use crate::lookup::{lookup, unlookup, TableData};
use qre_circuit::{Builder, QubitId, Sink};

/// Configuration for the windowed multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowedConfig {
    /// Window width in bits; `None` selects `max(1, ⌊log₂ n⌋)` following the
    /// construction's cost analysis.
    pub window: Option<usize>,
}

/// The default window size for `n`-bit operands.
pub fn default_window(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - 1 - n.leading_zeros()) as usize
    }
}

/// Classical description of the multiplicand.
#[derive(Debug, Clone, Copy)]
pub enum Multiplicand {
    /// A concrete value (enables functional simulation; width ≤ 57 bits so
    /// every table entry `k·Y` fits in `u64`).
    Value(u64),
    /// Resource-only mode: an abstract `bits`-wide operand.
    Abstract {
        /// Width of the multiplicand in bits.
        bits: usize,
    },
}

impl Multiplicand {
    /// Width of the multiplicand in bits.
    pub fn bits(&self) -> usize {
        match self {
            Multiplicand::Value(v) => (64 - v.leading_zeros()).max(1) as usize,
            Multiplicand::Abstract { bits } => *bits,
        }
    }
}

/// `acc += x · Y (mod 2^acc.len())` with `Y` classically described.
///
/// Requires `acc.len() >= x.len() + Y.bits()`.
pub fn windowed_accumulate<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: Multiplicand,
    acc: &[QubitId],
    cfg: WindowedConfig,
) {
    let n = x.len();
    let ny = y.bits();
    assert!(n >= 1, "empty multiplier register");
    assert!(
        acc.len() >= n + ny,
        "accumulator too narrow: {} < {} + {}",
        acc.len(),
        n,
        ny
    );
    let w = cfg.window.unwrap_or_else(|| default_window(n)).clamp(1, 24);

    let mut offset = 0usize;
    while offset < n {
        let w_here = w.min(n - offset);
        let window_bits = &x[offset..offset + w_here];
        let n_entries = 1usize << w_here;
        let tmp_width = ny + w_here;
        // Accumulate at the window offset. The partial sum above the offset
        // is < 2^(ny + w_here) (only windows up to here have contributed), so
        // one extra carry bit suffices.
        let end = (offset + tmp_width + 1).min(acc.len());
        let target = &acc[offset..end];

        // The table values only choose Clifford writes, so one record per
        // shape serves every window of a counting builder.
        b.block(
            ("windowed_window", [w_here, tmp_width, target.len()]),
            |b| {
                let tmp = b.alloc_register(tmp_width);
                // Table of multiples k·Y for k in 0..2^w.
                let owned_table: Option<Vec<u64>> = match y {
                    Multiplicand::Value(v) => {
                        assert!(
                            tmp_width <= 63,
                            "concrete multiplicands are for test-sized operands"
                        );
                        Some((0..n_entries as u64).map(|k| k * v).collect())
                    }
                    Multiplicand::Abstract { .. } => None,
                };
                let table = match &owned_table {
                    Some(t) => TableData::Values(t),
                    None => TableData::Abstract { n_entries },
                };
                lookup(b, window_bits, &tmp.0, table);
                add_into_cdkm(b, &tmp.0, target);
                unlookup(b, window_bits, tmp.0, n_entries);
            },
        );
        offset += w_here;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsim::SimBuilder;
    use qre_circuit::CountingTracer;

    fn check(n: usize, xv: u64, yv: u64, window: usize) {
        let ny = Multiplicand::Value(yv).bits();
        let mut sim = SimBuilder::new();
        let x = sim.alloc_value(n, xv);
        let acc = sim.alloc_value(n + ny + 1, 0);
        windowed_accumulate(
            sim.builder(),
            &x,
            Multiplicand::Value(yv),
            &acc,
            WindowedConfig {
                window: Some(window),
            },
        );
        assert_eq!(
            sim.read_value(&acc),
            xv * yv,
            "n={n} x={xv} y={yv} w={window}"
        );
        assert_eq!(sim.read_value(&x), xv, "x preserved");
        sim.assert_all_ancillas_clean();
    }

    #[test]
    fn windowed_is_correct_exhaustive_small() {
        for n in [2usize, 3, 4, 5] {
            for window in 1..=3usize {
                for xv in 0..(1u64 << n) {
                    for yv in [0u64, 1, 3, 7, 11, 13] {
                        check(n, xv, yv, window);
                    }
                }
            }
        }
    }

    #[test]
    fn windowed_is_correct_randomised() {
        let mut state = 42u64;
        let mut next = move || crate::testsim::splitmix64(&mut state);
        for n in [8usize, 11, 16] {
            for window in [2usize, 3, 4] {
                for _ in 0..10 {
                    let xv = next() & ((1 << n) - 1);
                    let yv = next() & 0x3FFF;
                    check(n, xv, yv, window);
                }
            }
        }
    }

    #[test]
    fn windowed_accumulates_over_prior_content() {
        let mut sim = SimBuilder::new();
        let x = sim.alloc_value(6, 45);
        let acc = sim.alloc_value(14, 100);
        windowed_accumulate(
            sim.builder(),
            &x,
            Multiplicand::Value(53),
            &acc,
            WindowedConfig { window: Some(3) },
        );
        assert_eq!(sim.read_value(&acc), 45 * 53 + 100);
        sim.assert_all_ancillas_clean();
    }

    #[test]
    fn default_window_is_log_n() {
        assert_eq!(default_window(2), 1);
        assert_eq!(default_window(8), 3);
        assert_eq!(default_window(1024), 10);
        assert_eq!(default_window(2048), 11);
        assert_eq!(default_window(16384), 14);
    }

    fn counts(n: usize, window: Option<usize>) -> qre_circuit::LogicalCounts {
        let mut b = qre_circuit::Builder::new(CountingTracer::new());
        let x = b.alloc_register(n);
        let acc = b.alloc_register(2 * n + 1);
        windowed_accumulate(
            &mut b,
            &x.0,
            Multiplicand::Abstract { bits: n },
            &acc.0,
            WindowedConfig { window },
        );
        b.into_sink().counts()
    }

    #[test]
    fn windowed_beats_schoolbook_on_toffoli_layers() {
        // Compare the depth-weighted Toffoli totals at n = 512; the windowed
        // construction should come in several times cheaper.
        let n = 512usize;
        let w = counts(n, None);
        let mut b = qre_circuit::Builder::new(CountingTracer::new());
        let x = b.alloc_register(n);
        let y = b.alloc_register(n);
        let acc = b.alloc_register(2 * n);
        crate::mul::schoolbook::schoolbook_accumulate_fresh(&mut b, &x.0, &y.0, &acc.0);
        let s = b.into_sink().counts();
        let windowed_toffoli = w.ccix_count + w.ccz_count;
        let schoolbook_toffoli = s.ccix_count + s.ccz_count;
        assert!(
            (schoolbook_toffoli as f64) > 2.0 * windowed_toffoli as f64,
            "windowed {windowed_toffoli} vs schoolbook {schoolbook_toffoli}"
        );
    }

    #[test]
    fn window_size_trades_lookup_against_additions() {
        // Tiny windows do many additions; huge windows do huge lookups; the
        // default should beat both extremes at a realistic size.
        let n = 1024usize;
        let tof = |c: qre_circuit::LogicalCounts| c.ccix_count + c.ccz_count;
        let small = tof(counts(n, Some(1)));
        let default = tof(counts(n, None));
        let large = tof(counts(n, Some(16)));
        assert!(default < small, "default {default} vs w=1 {small}");
        assert!(default < large, "default {default} vs w=16 {large}");
    }

    #[test]
    fn windowed_counts_follow_closed_form() {
        let n = 256usize;
        let w = 8usize;
        let c = counts(n, Some(w));
        // Lookups: (n/w) windows of 2^w entries.
        let windows = n.div_ceil(w) as u64;
        let full_windows = (n / w) as u64;
        let tail = (n % w) as u64;
        let mut expect_ccix = full_windows * ((1u64 << w) - 2);
        if tail > 1 {
            expect_ccix += (1u64 << tail) - 2;
        }
        // Unlookup fixups: 2·(2^{⌈w/2⌉} − 2) per window (w ≥ 2).
        expect_ccix += full_windows * 2 * ((1u64 << w.div_ceil(2)) - 2);
        if tail >= 2 {
            expect_ccix += 2 * ((1u64 << (tail as usize).div_ceil(2)) - 2);
        }
        assert_eq!(c.ccix_count, expect_ccix);
        // CDKM additions: ≥ 2·(n + w)·windows CCX in total, minus clipping.
        assert!(c.ccz_count as f64 > 1.6 * (windows * (n as u64 + w as u64)) as f64);
        assert!(c.ccz_count as f64 <= 2.2 * (windows * (n as u64 + w as u64 + 2)) as f64);
    }

    #[test]
    fn windowed_width_is_about_three_n_without_operand_register() {
        // x (n) + acc (2n+1) + tmp (n+w) transient + lookup ancillas: ≈ 4n.
        let n = 512usize;
        let c = counts(n, None);
        let ratio = c.num_qubits as f64 / (4.0 * n as f64);
        assert!((0.9..=1.15).contains(&ratio), "ratio {ratio}");
    }
}
