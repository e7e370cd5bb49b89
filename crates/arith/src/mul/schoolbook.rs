//! Standard (schoolbook) long multiplication.
//!
//! `acc += x · y` as `n` controlled additions of `y` shifted by each bit
//! position of `x`, using multiplexed operands and the Gidney adder:
//! per row, `y.len()` CCiX for the multiplex plus `y.len()+1` CCiX for the
//! addition into a `(y.len()+2)`-bit accumulator slice — `≈ 2·n·y.len()`
//! CCiX total (the classical `Ω(n²)` the paper quotes).
//!
//! Each row is one [`controlled_add_into`], so a counting builder traces one
//! row per `(y.len(), slice.len())` shape and replays the rest: a fresh
//! accumulator has a single row shape, and counting costs `O(n)`.

use crate::add::controlled_add_into;
use qre_circuit::{Builder, QubitId, Sink};

/// `acc += x · y (mod 2^acc.len())` for a **fresh** accumulator.
///
/// Requires `acc.len() >= x.len() + y.len()` and the accumulator's prior
/// content to be less than `2^(y.len()+1)` (typically zero — the workload
/// case). Under that precondition the running sum before row `i` is below
/// `2^(i + y.len() + 1)`, so each row's carries are confined to a
/// `(y.len()+2)`-bit window and the total cost is `≈ 2·n·y.len()` CCiX.
/// Use [`schoolbook_accumulate`] when the accumulator may hold an arbitrary
/// value.
pub fn schoolbook_accumulate_fresh<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
) {
    schoolbook_impl(b, x, y, acc, true);
}

/// `acc += x · y (mod 2^acc.len())` for an accumulator with arbitrary prior
/// content: every row ripples its carries across the full remaining
/// accumulator (`≈ 2.5·n·y.len()` CCiX for a `2n`-bit accumulator).
pub fn schoolbook_accumulate<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
) {
    schoolbook_impl(b, x, y, acc, false);
}

fn schoolbook_impl<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
    fresh: bool,
) {
    assert!(!x.is_empty() && !y.is_empty(), "empty operand");
    assert!(
        acc.len() >= x.len() + y.len(),
        "accumulator too narrow: {} < {} + {}",
        acc.len(),
        x.len(),
        y.len()
    );
    for (i, &xi) in x.iter().enumerate() {
        let end = if fresh {
            (i + y.len() + 2).min(acc.len())
        } else {
            acc.len()
        };
        controlled_add_into(b, xi, y, &acc[i..end]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsim::SimBuilder;
    use qre_circuit::CountingTracer;

    #[test]
    fn schoolbook_is_correct_exhaustive_small() {
        for n in 1..=5usize {
            for xv in 0..(1u64 << n) {
                for yv in 0..(1u64 << n) {
                    let mut sim = SimBuilder::new();
                    let x = sim.alloc_value(n, xv);
                    let y = sim.alloc_value(n, yv);
                    let acc = sim.alloc_value(2 * n, 0);
                    schoolbook_accumulate(sim.builder(), &x, &y, &acc);
                    assert_eq!(sim.read_value(&acc), xv * yv, "n={n} x={xv} y={yv}");
                    assert_eq!(sim.read_value(&x), xv);
                    assert_eq!(sim.read_value(&y), yv);
                    sim.assert_all_ancillas_clean();
                }
            }
        }
    }

    #[test]
    fn schoolbook_accumulates_over_prior_content() {
        let n = 4;
        let mut sim = SimBuilder::new();
        let x = sim.alloc_value(n, 13);
        let y = sim.alloc_value(n, 11);
        let acc = sim.alloc_value(2 * n + 1, 37);
        schoolbook_accumulate(sim.builder(), &x, &y, &acc);
        assert_eq!(sim.read_value(&acc), 13 * 11 + 37);
        sim.assert_all_ancillas_clean();
    }

    #[test]
    fn schoolbook_mixed_widths() {
        for (nx, ny) in [(3usize, 5usize), (5, 3), (1, 6), (6, 1)] {
            for xv in 0..(1u64 << nx) {
                for yv in [0u64, 1, (1 << ny) - 1, 5 % (1 << ny)] {
                    let mut sim = SimBuilder::new();
                    let x = sim.alloc_value(nx, xv);
                    let y = sim.alloc_value(ny, yv);
                    let acc = sim.alloc_value(nx + ny, 0);
                    schoolbook_accumulate(sim.builder(), &x, &y, &acc);
                    assert_eq!(sim.read_value(&acc), xv * yv, "nx={nx} ny={ny}");
                    sim.assert_all_ancillas_clean();
                }
            }
        }
    }

    #[test]
    fn schoolbook_counts_scale_as_two_n_squared() {
        for n in [8usize, 16, 32] {
            let mut b = qre_circuit::Builder::new(CountingTracer::new());
            let x = b.alloc_register(n);
            let y = b.alloc_register(n);
            let acc = b.alloc_register(2 * n);
            schoolbook_accumulate_fresh(&mut b, &x.0, &y.0, &acc.0);
            let c = b.into_sink().counts();
            // Per row: n (mux) + (slice-1) adder ANDs; slice = n+2 except the
            // final rows clipped by the register end.
            let expected: u64 = (0..n)
                .map(|i| {
                    let slice = (i + n + 2).min(2 * n) - i;
                    (n + slice - 1) as u64
                })
                .sum();
            assert_eq!(c.ccix_count, expected, "n={n}");
            assert_eq!(c.measurement_count, expected, "n={n}");
            assert_eq!(c.ccz_count, 0);
            // ~2n² within 5%.
            let ratio = c.ccix_count as f64 / (2.0 * (n * n) as f64);
            assert!((0.9..=1.1).contains(&ratio), "n={n} ratio={ratio}");
        }
    }

    #[test]
    fn schoolbook_width_is_about_six_n() {
        let n = 64usize;
        let mut b = qre_circuit::Builder::new(CountingTracer::new());
        let x = b.alloc_register(n);
        let y = b.alloc_register(n);
        let acc = b.alloc_register(2 * n);
        schoolbook_accumulate_fresh(&mut b, &x.0, &y.0, &acc.0);
        let c = b.into_sink().counts();
        // x + y + acc = 4n, plus mux temporaries (n) and adder carries (≈ n+1).
        let ratio = c.num_qubits as f64 / (6.0 * n as f64);
        assert!((0.9..=1.1).contains(&ratio), "width ratio {ratio}");
    }
}
