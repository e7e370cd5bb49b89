//! Karatsuba multiplication (after Gidney, arXiv:1904.07356).
//!
//! `acc += x · y` by the three-product recursion
//!
//! ```text
//! x·y = x0y0·(1 + 2^m) · … − precisely:
//! x·y = x0y0 + 2^m·((x0+x1)(y0+y1) − x0y0 − x1y1) + 2^{2m}·x1y1
//! ```
//!
//! Reversibility makes the recursion's workspace the interesting part: each
//! level stores its three sub-products (and the two operand sums) in fresh
//! registers that are left **dirty** during the forward pass, and the whole
//! forward computation is swept clean at the end Bennett-style (forward →
//! CNOT-copy the product out → reverse). With Gidney's temporary-AND adders,
//! the reverse sweep costs the same gate budget as the forward pass, so the
//! total is `2×` the forward count — `Θ(n^{log₂3})` CCiX — while the dirty
//! workspace makes Karatsuba the most qubit-hungry of the paper's three
//! algorithms (`Θ(n^{log₂3})` with a mild constant), exactly the qualitative
//! behaviour Figure 3/4 of the paper report.
//!
//! The `cutoff` parameter sets the recursion base (schoolbook below it). The
//! default of 512 reproduces the cost regime of the Q# implementation the
//! paper measured, whose runtime first beats schoolbook multiplication near
//! 4096 bits; the `karatsuba-crossover` claim of `qre_bench::text_claims`
//! checks that crossover over the Figure 3 range.
//!
//! The Bennett sweep is emitted as a count-equivalent replay of the forward
//! pass (adders are compute/uncompute balanced, so the adjoint sequence has
//! the same CCiX and measurement counts and the same footprint); functional
//! simulation therefore targets the `bennett = false` mode, which leaves the
//! workspace dirty but computes the same product.
//!
//! Each recursion node is a [`Builder::block`] keyed by `(n, acc.len(),
//! cutoff)`, and it [parks](Builder::park) its dirty workspace until the
//! Bennett sweep [releases](Builder::release_parked) it. A counting builder
//! therefore traces each node shape once, replays the rest (the whole
//! reverse sweep included), and holds the parked workspace as a number
//! instead of qubit ids: `O(n)` gate events (≈ 214 per bit from 16 384 bits
//! on) and memory for a `Θ(n^{log₂3})`-wide workspace.

use crate::add::{add_into, sub_into, xor_into};
use crate::mul::schoolbook::schoolbook_accumulate_fresh;
use qre_circuit::{Builder, QubitId, Sink};

/// Configuration for the Karatsuba multiplier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KaratsubaConfig {
    /// Operand width at or below which the recursion falls back to
    /// schoolbook multiplication.
    pub cutoff: usize,
    /// Emit the Bennett sweep (forward, copy out, reverse) so the workspace
    /// ends clean. `false` leaves the sub-product registers dirty (half the
    /// gate cost, same asymptotics) — used by functional tests.
    pub bennett: bool,
}

impl Default for KaratsubaConfig {
    fn default() -> Self {
        Self {
            cutoff: 512,
            bennett: true,
        }
    }
}

/// `acc += x · y (mod 2^acc.len())` via Karatsuba with a clean workspace
/// (Bennett sweep) or dirty workspace, per `cfg`.
///
/// Requires `x.len() == y.len()` (the top-level workload shape) and
/// `acc.len() >= 2·x.len()`.
pub fn karatsuba_accumulate<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
    cfg: KaratsubaConfig,
) {
    assert_eq!(x.len(), y.len(), "Karatsuba operands must have equal width");
    let n = x.len();
    assert!(acc.len() >= 2 * n, "accumulator too narrow for the product");
    // The recursion wants two guard bits of headroom (cross terms of odd
    // splits); stage through a scratch register sized for it. The product
    // x·y < 2^{2n}, so the scratch's guard bits end at zero and the clipped
    // addition below is exact.
    let scratch_width = 2 * n + 2;

    // Forward pass into scratch; the recursion parks its dirty workspace.
    let keep = b.parked();
    let scratch = b.alloc_register(scratch_width);
    karatsuba_rec(b, x, y, &scratch.0, cfg.cutoff);
    // Deliver the product into the caller's accumulator.
    add_into(b, &scratch.0[..acc.len().min(scratch_width)], acc);

    if !cfg.bennett {
        // Dirty mode: workspace and scratch remain allocated (and
        // entangled); qubits stay counted, which is the point for resource
        // estimation. Used by functional tests.
        return;
    }

    // Count-equivalent reverse sweep: release the forward workspace so the
    // replay reuses the same footprint, then replay (the adjoint has
    // identical CCiX/measurement counts because every adder is
    // compute/uncompute balanced), then release the replay's workspace. A
    // counting builder replays the second pass from the first one's record.
    b.release_parked(keep);
    b.release_register(scratch);
    let scratch2 = b.alloc_register(scratch_width);
    karatsuba_rec(b, x, y, &scratch2.0, cfg.cutoff);
    b.release_parked(keep);
    b.release_register(scratch2);
}

/// One recursion node, a block keyed by `(n, acc.len(), cutoff)`: a counting
/// builder traces each node shape once.
fn karatsuba_rec<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
    cutoff: usize,
) {
    b.block(("karatsuba", [x.len(), acc.len(), cutoff]), |b| {
        karatsuba_node(b, x, y, acc, cutoff)
    });
}

/// One recursion level; parks its dirty workspace (see [`Builder::park`])
/// for the caller's Bennett sweep to release.
///
/// Contract: `x.len() == y.len() == n`, `acc.len() >= 2n + 2` (two guard
/// bits so the shifted cross terms always fit their staging adds).
fn karatsuba_node<S: Sink>(
    b: &mut Builder<S>,
    x: &[QubitId],
    y: &[QubitId],
    acc: &[QubitId],
    cutoff: usize,
) {
    let n = x.len();
    debug_assert_eq!(n, y.len());
    debug_assert!(acc.len() >= 2 * n + 2);
    // Base case at n ≤ 5 regardless of cutoff: below that the operand sums
    // (⌈n/2⌉+1 bits) fail to shrink or the guard-bit accounting goes
    // negative — and schoolbook is cheaper there anyway.
    if n <= cutoff.max(5) {
        schoolbook_accumulate_fresh(b, x, y, acc);
        return;
    }
    let m = n.div_ceil(2);
    let (x0, x1) = x.split_at(m);
    let (y0, y1) = y.split_at(m);

    // t0 = x0·y0, t1 = x1·y1 — fresh zero registers, filled recursively
    // (each sized with the recursion's own two guard bits).
    let t0 = b.alloc_register(2 * m + 2);
    karatsuba_rec(b, x0, y0, &t0.0, cutoff);
    let t1 = b.alloc_register(2 * (n - m) + 2);
    karatsuba_rec(b, x1, y1, &t1.0, cutoff);

    // sx = x0 + x1, sy = y0 + y1 (m+1 bits each; CNOT copy then add).
    let sx = b.alloc_register(m + 1);
    xor_into(b, x0, &sx.0[..m]);
    add_into(b, x1, &sx.0);
    let sy = b.alloc_register(m + 1);
    xor_into(b, y0, &sy.0[..m]);
    add_into(b, y1, &sy.0);

    // t2 = sx·sy (recursion on m+1-bit operands).
    let t2 = b.alloc_register(2 * (m + 1) + 2);
    karatsuba_rec(b, &sx.0, &sy.0, &t2.0, cutoff);

    // Combine (all arithmetic modulo 2^acc.len(), exact because the final
    // value fits):  acc += t0 + 2^m(t2 − t0 − t1) + 2^{2m} t1.
    add_into(b, &t0.0, acc);
    sub_into(b, &t0.0, &acc[m..]);
    sub_into(b, &t1.0, &acc[m..]);
    add_into(b, &t1.0, &acc[2 * m..]);
    add_into(b, &t2.0, &acc[m..]);

    // Workspace stays dirty; the Bennett sweep (or the caller) handles it.
    for reg in [t0, t1, sx, sy, t2] {
        b.park(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsim::SimBuilder;
    use qre_circuit::CountingTracer;

    fn check_product(n: usize, xv: u64, yv: u64, cutoff: usize) {
        let mut sim = SimBuilder::new();
        let x = sim.alloc_value(n, xv);
        let y = sim.alloc_value(n, yv);
        let acc = sim.alloc_value(2 * n, 0);
        karatsuba_accumulate(
            sim.builder(),
            &x,
            &y,
            &acc,
            KaratsubaConfig {
                cutoff,
                bennett: false,
            },
        );
        assert_eq!(
            sim.read_value(&acc),
            xv * yv,
            "n={n} x={xv} y={yv} cutoff={cutoff}"
        );
        assert_eq!(sim.read_value(&x), xv, "x preserved");
        assert_eq!(sim.read_value(&y), yv, "y preserved");
    }

    #[test]
    fn karatsuba_is_correct_exhaustive_small() {
        // n = 6 exercises one full recursion level above the minimum base
        // case; n <= 5 exercises the base-case wrapper.
        for n in [4usize, 6] {
            for xv in 0..(1u64 << n) {
                for yv in 0..(1u64 << n) {
                    check_product(n, xv, yv, 2);
                }
            }
        }
    }

    #[test]
    fn karatsuba_is_correct_randomised_wider() {
        let mut state = 0x5EEDu64;
        let mut next = move || crate::testsim::splitmix64(&mut state);
        for n in [7usize, 8, 12, 16, 20, 23] {
            for cutoff in [2usize, 5, 8] {
                for _ in 0..8 {
                    let mask = (1u64 << n) - 1;
                    check_product(n, next() & mask, next() & mask, cutoff);
                }
            }
        }
    }

    #[test]
    fn karatsuba_accumulates_over_prior_content() {
        let n = 8;
        let mut sim = SimBuilder::new();
        let x = sim.alloc_value(n, 201);
        let y = sim.alloc_value(n, 177);
        let acc = sim.alloc_value(2 * n + 1, 999);
        karatsuba_accumulate(
            sim.builder(),
            &x,
            &y,
            &acc,
            KaratsubaConfig {
                cutoff: 2,
                bennett: false,
            },
        );
        assert_eq!(sim.read_value(&acc), 201 * 177 + 999);
    }

    fn counts_for(n: usize, cfg: KaratsubaConfig) -> qre_circuit::LogicalCounts {
        let mut b = qre_circuit::Builder::new(CountingTracer::new());
        let x = b.alloc_register(n);
        let y = b.alloc_register(n);
        let acc = b.alloc_register(2 * n + 1);
        karatsuba_accumulate(&mut b, &x.0, &y.0, &acc.0, cfg);
        b.into_sink().counts()
    }

    #[test]
    fn bennett_doubles_gates_not_space() {
        let n = 64usize;
        let cfg_dirty = KaratsubaConfig {
            cutoff: 8,
            bennett: false,
        };
        let cfg_clean = KaratsubaConfig {
            cutoff: 8,
            bennett: true,
        };
        let dirty = counts_for(n, cfg_dirty);
        let clean = counts_for(n, cfg_clean);
        // Both modes pay the delivery addition once (2n CCiX into the
        // caller's 2n+1-bit accumulator); the sweep doubles the recursion.
        let delivery = 2 * n as u64;
        assert_eq!(
            clean.ccix_count - delivery,
            2 * (dirty.ccix_count - delivery)
        );
        assert_eq!(
            clean.measurement_count - delivery,
            2 * (dirty.measurement_count - delivery)
        );
        // The sweep reuses the forward footprint; peak width is unchanged.
        assert_eq!(clean.num_qubits, dirty.num_qubits);
    }

    #[test]
    fn recursion_follows_three_way_scaling() {
        // ccix(2n) ≈ 3·ccix(n) once well above the cutoff.
        let cfg = KaratsubaConfig {
            cutoff: 8,
            bennett: false,
        };
        let a = counts_for(64, cfg).ccix_count as f64;
        let b = counts_for(128, cfg).ccix_count as f64;
        let ratio = b / a;
        assert!(
            (2.7..=3.4).contains(&ratio),
            "expected ~3x growth per doubling, got {ratio}"
        );
    }

    #[test]
    fn workspace_grows_superlinearly() {
        let cfg = KaratsubaConfig {
            cutoff: 8,
            bennett: false,
        };
        let q64 = counts_for(64, cfg).num_qubits as f64;
        let q256 = counts_for(256, cfg).num_qubits as f64;
        // Θ(n^1.585) workspace: quadrupling n should grow qubits by ~4^1.585/…
        // — at least well beyond the 4x of a linear-space algorithm.
        assert!(
            q256 / q64 > 5.0,
            "workspace should grow superlinearly: {q64} -> {q256}"
        );
    }

    #[test]
    fn below_cutoff_matches_schoolbook_plus_sweep() {
        // For n <= cutoff the forward pass IS schoolbook (into the staging
        // scratch); Bennett doubles it, plus one delivery addition.
        let n = 32usize;
        let cfg = KaratsubaConfig {
            cutoff: 64,
            bennett: true,
        };
        let k = counts_for(n, cfg);
        let mut b = qre_circuit::Builder::new(CountingTracer::new());
        let x = b.alloc_register(n);
        let y = b.alloc_register(n);
        let scratch = b.alloc_register(2 * n + 2);
        schoolbook_accumulate_fresh(&mut b, &x.0, &y.0, &scratch.0);
        let s = b.into_sink().counts();
        let delivery = 2 * n as u64; // add into the 2n+1-bit accumulator
        assert_eq!(k.ccix_count, 2 * s.ccix_count + delivery);
    }
}
