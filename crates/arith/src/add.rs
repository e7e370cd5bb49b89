//! Reversible in-place adders.
//!
//! Two constructions, matching the two cost profiles used by the paper's
//! workload implementations:
//!
//! * [`add_into`] — Gidney's temporary-AND ripple adder (arXiv:1709.06648):
//!   `m−1` CCiX gates, `m−1` measurements, `m−1` transient carry ancillas for
//!   an `m`-bit target. Used by the schoolbook and Karatsuba multipliers.
//! * [`add_into_cdkm`] — the CDKM/Cuccaro ripple adder (quant-ph/0410184):
//!   `2k` CCX gates for a `k`-bit operand, **one** ancilla, no measurements.
//!   Used by the windowed multiplier's accumulation step (Gidney's windowed
//!   arithmetic reference keeps the adder ancilla-lean, and this choice
//!   reproduces the paper's reported logical qubit count for the windowed
//!   algorithm at 2048 bits to within ~1%).
//!
//! Both add a `src` operand into a longer-or-equal `tgt` slice modulo
//! `2^tgt.len()`; a caller that wants the carry simply passes a target one
//! bit wider than the numerically-possible sum. Subtraction is the X-conjugated
//! adder ([`sub_into`]), costing only extra Cliffords.

use crate::gadgets::{and_compute, and_uncompute};
use qre_circuit::{Builder, QubitId, Sink};

/// `tgt += src (mod 2^tgt.len())` using Gidney's temporary-AND ripple adder.
///
/// Requirements: `1 <= src.len() <= tgt.len()`; `src` and `tgt` must be
/// disjoint (the backward uncompute pass revisits target bits in the
/// opposite order from the forward pass, so no overlap discipline can make
/// aliased registers safe — the Karatsuba combiner stages its cross terms
/// through fresh registers for exactly this reason).
///
/// Cost: `tgt.len()−1` CCiX, `tgt.len()−1` measurements, `tgt.len()−1`
/// transient ancillas (peak), `O(tgt.len())` Cliffords. A counting builder
/// traces each `(src.len(), tgt.len())` shape once (see
/// [`Builder::block`]).
pub fn add_into<S: Sink>(b: &mut Builder<S>, src: &[QubitId], tgt: &[QubitId]) {
    b.block(("add_into", [src.len(), tgt.len(), 0]), |b| {
        ripple_add(b, src, tgt)
    });
}

fn ripple_add<S: Sink>(b: &mut Builder<S>, src: &[QubitId], tgt: &[QubitId]) {
    let k = src.len();
    let m = tgt.len();
    assert!(k >= 1, "source register must be non-empty");
    assert!(k <= m, "target must be at least as wide as source");
    if m == 1 {
        b.cx(src[0], tgt[0]);
        return;
    }

    // Forward pass: compute carries c_{i+1} into fresh ancillas.
    // carries[i] = carry into bit i+1.
    let mut carries: Vec<QubitId> = Vec::with_capacity(m - 1);
    for i in 0..m - 1 {
        let prev = carries.last().copied();
        let next = match (prev, i < k) {
            (None, true) => {
                // c_1 = a_0 ∧ b_0
                and_compute(b, tgt[i], src[i])
            }
            (Some(c), true) => {
                // c_{i+1} = ((a_i ⊕ c_i)(b_i ⊕ c_i)) ⊕ c_i  [MAJ identity]
                b.cx(c, tgt[i]);
                b.cx(c, src[i]);
                let t = and_compute(b, tgt[i], src[i]);
                b.cx(c, t);
                t
            }
            (Some(c), false) => {
                // Zero-extended source: c_{i+1} = a_i ∧ c_i.
                and_compute(b, tgt[i], c)
            }
            (None, false) => unreachable!("k >= 1 guarantees a first carry"),
        };
        carries.push(next);
    }

    // Top bit: s_{m-1} = a_{m-1} ⊕ b_{m-1} ⊕ c_{m-1}.
    if let Some(&c) = carries.last() {
        b.cx(c, tgt[m - 1]);
    }
    if k == m {
        b.cx(src[m - 1], tgt[m - 1]);
    }

    // Backward pass: uncompute carries and finalise sum bits.
    for i in (0..m - 1).rev() {
        let c_next = carries[i];
        let prev = if i == 0 { None } else { Some(carries[i - 1]) };
        match (prev, i < k) {
            (Some(c), true) => {
                b.cx(c, c_next);
                and_uncompute(b, tgt[i], src[i], c_next);
                b.cx(c, src[i]); // restore b_i
                b.cx(src[i], tgt[i]); // a_i = a_i ⊕ c_i ⊕ b_i = sum
            }
            (Some(c), false) => {
                and_uncompute(b, tgt[i], c, c_next);
                b.cx(c, tgt[i]); // a_i ⊕= c_i
            }
            (None, true) => {
                and_uncompute(b, tgt[i], src[i], c_next);
                b.cx(src[i], tgt[i]); // a_0 ⊕= b_0
            }
            (None, false) => unreachable!(),
        }
    }
}

/// `tgt -= src (mod 2^tgt.len())`: the X-conjugated adder
/// (`~(~t + s) = t - s` in two's complement). Same non-Clifford cost as
/// [`add_into`] plus `2·tgt.len()` Pauli X gates.
pub fn sub_into<S: Sink>(b: &mut Builder<S>, src: &[QubitId], tgt: &[QubitId]) {
    for &q in tgt {
        b.x(q);
    }
    add_into(b, src, tgt);
    for &q in tgt {
        b.x(q);
    }
}

/// `tgt += src (mod 2^tgt.len())` using the CDKM (Cuccaro) ripple adder with
/// a single ancilla and no measurements.
///
/// Requirements: `1 <= src.len() <= tgt.len()`, registers disjoint.
/// Cost: `2·src.len()` CCX for the low part, plus `2·(r−1)` CCX for the
/// carry propagation into the `r = tgt.len()−src.len()` uncontrolled upper
/// bits (zero when the lengths match); `1 + max(0, r−1)` peak ancillas.
pub fn add_into_cdkm<S: Sink>(b: &mut Builder<S>, src: &[QubitId], tgt: &[QubitId]) {
    let k = src.len();
    let m = tgt.len();
    assert!(k >= 1, "source register must be non-empty");
    assert!(k <= m, "target must be at least as wide as source");

    let anc = b.alloc(); // carry-in = 0

    // MAJ ladder: the running carry rides on the src wires.
    let mut carry = anc;
    for i in 0..k {
        b.cx(src[i], tgt[i]);
        b.cx(src[i], carry);
        b.ccx(carry, tgt[i], src[i]);
        carry = src[i];
    }

    // Carry out of the low k bits propagates into the upper target bits as a
    // controlled incrementer.
    if m > k {
        controlled_increment(b, carry, &tgt[k..]);
    }

    // UMA ladder (3-CNOT form): restores src and produces sums in tgt.
    for i in (0..k).rev() {
        let prev = if i == 0 { anc } else { src[i - 1] };
        b.ccx(prev, tgt[i], src[i]);
        b.cx(src[i], prev);
        b.cx(prev, tgt[i]);
    }

    b.release(anc);
}

/// `bits += ctrl` — a Toffoli-ladder controlled incrementer on a little-endian
/// slice. Cost: `2·(r−1)` CCX and `r−1` transient ancillas for `r = bits.len()`
/// (just one CX when `r == 1`).
pub fn controlled_increment<S: Sink>(b: &mut Builder<S>, ctrl: QubitId, bits: &[QubitId]) {
    let r = bits.len();
    if r == 0 {
        return;
    }
    if r == 1 {
        b.cx(ctrl, bits[0]);
        return;
    }
    // Compute the carry chain c_{j+1} = c_j ∧ t_j (c_0 = ctrl) while target
    // bits are still unmodified.
    let mut chain: Vec<QubitId> = Vec::with_capacity(r - 1);
    let mut c = ctrl;
    for &t in &bits[..r - 1] {
        let next = b.alloc();
        b.ccx(c, t, next);
        chain.push(next);
        c = next;
    }
    // Apply flips top-down, uncomputing each carry right after its use so the
    // lower target bits are still pristine when their carry is removed.
    for j in (1..r).rev() {
        b.cx(chain[j - 1], bits[j]);
        let lower = if j == 1 { ctrl } else { chain[j - 2] };
        b.ccx(lower, bits[j - 1], chain[j - 1]);
    }
    b.cx(ctrl, bits[0]);
    for anc in chain.into_iter().rev() {
        b.release(anc);
    }
}

/// `tgt ^= src` bitwise (CNOT fan; Clifford only). Lengths must match.
pub fn xor_into<S: Sink>(b: &mut Builder<S>, src: &[QubitId], tgt: &[QubitId]) {
    assert_eq!(src.len(), tgt.len(), "xor_into requires equal widths");
    for (&s, &t) in src.iter().zip(tgt) {
        b.cx(s, t);
    }
}

/// Multiplex a register against a control: returns `tmp` with
/// `tmp_j = ctrl ∧ src_j`. Cost: `src.len()` CCiX.
pub fn mux_register<S: Sink>(b: &mut Builder<S>, ctrl: QubitId, src: &[QubitId]) -> Vec<QubitId> {
    src.iter().map(|&s| and_compute(b, ctrl, s)).collect()
}

/// Uncompute a register produced by [`mux_register`]. Cost: `src.len()`
/// measurements; releases the temporaries.
pub fn unmux_register<S: Sink>(
    b: &mut Builder<S>,
    ctrl: QubitId,
    src: &[QubitId],
    tmp: Vec<QubitId>,
) {
    assert_eq!(src.len(), tmp.len());
    // Release in reverse so the allocator's free list stays LIFO-ordered.
    for (&s, &t) in src.iter().zip(&tmp).rev() {
        and_uncompute(b, ctrl, s, t);
    }
}

/// Controlled addition: `if ctrl { tgt += src }` via multiplex + add + unmux.
/// Cost: `src.len() + tgt.len() − 1` CCiX and the matching measurements. A
/// counting builder traces each `(src.len(), tgt.len())` shape once (see
/// [`Builder::block`]); this is the schoolbook multiplier's row.
pub fn controlled_add_into<S: Sink>(
    b: &mut Builder<S>,
    ctrl: QubitId,
    src: &[QubitId],
    tgt: &[QubitId],
) {
    b.block(("controlled_add_into", [src.len(), tgt.len(), 0]), |b| {
        let tmp = mux_register(b, ctrl, src);
        add_into(b, &tmp, tgt);
        unmux_register(b, ctrl, src, tmp);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsim::SimBuilder;
    use qre_circuit::CountingTracer;

    /// Exhaustive functional check of the Gidney adder on small widths using
    /// the classical bit-level simulator.
    #[test]
    fn gidney_adder_is_correct() {
        for m in 1..=6usize {
            for k in 1..=m {
                for a in 0..(1u64 << m) {
                    for s in 0..(1u64 << k) {
                        let mut sim = SimBuilder::new();
                        let tgt = sim.alloc_value(m, a);
                        let src = sim.alloc_value(k, s);
                        add_into(sim.builder(), &src, &tgt);
                        assert_eq!(
                            sim.read_value(&tgt),
                            (a + s) & ((1 << m) - 1),
                            "m={m} k={k} a={a} s={s}"
                        );
                        assert_eq!(sim.read_value(&src), s, "source must be preserved");
                        sim.assert_all_ancillas_clean();
                    }
                }
            }
        }
    }

    #[test]
    fn gidney_subtractor_is_correct() {
        for m in 1..=5usize {
            for a in 0..(1u64 << m) {
                for s in 0..(1u64 << m) {
                    let mut sim = SimBuilder::new();
                    let tgt = sim.alloc_value(m, a);
                    let src = sim.alloc_value(m, s);
                    sub_into(sim.builder(), &src, &tgt);
                    assert_eq!(
                        sim.read_value(&tgt),
                        a.wrapping_sub(s) & ((1 << m) - 1),
                        "m={m} a={a} s={s}"
                    );
                    assert_eq!(sim.read_value(&src), s);
                    sim.assert_all_ancillas_clean();
                }
            }
        }
    }

    #[test]
    fn cdkm_adder_is_correct() {
        for m in 1..=6usize {
            for k in 1..=m {
                for a in 0..(1u64 << m) {
                    for s in 0..(1u64 << k) {
                        let mut sim = SimBuilder::new();
                        let tgt = sim.alloc_value(m, a);
                        let src = sim.alloc_value(k, s);
                        add_into_cdkm(sim.builder(), &src, &tgt);
                        assert_eq!(
                            sim.read_value(&tgt),
                            (a + s) & ((1 << m) - 1),
                            "m={m} k={k} a={a} s={s}"
                        );
                        assert_eq!(sim.read_value(&src), s);
                        sim.assert_all_ancillas_clean();
                    }
                }
            }
        }
    }

    #[test]
    fn controlled_add_is_correct() {
        for m in 1..=5usize {
            for a in 0..(1u64 << m) {
                for s in 0..(1u64 << m) {
                    for ctrl_val in 0..2u64 {
                        let mut sim = SimBuilder::new();
                        let tgt = sim.alloc_value(m, a);
                        let src = sim.alloc_value(m, s);
                        let ctrl = sim.alloc_value(1, ctrl_val);
                        controlled_add_into(sim.builder(), ctrl[0], &src, &tgt);
                        let want = if ctrl_val == 1 {
                            (a + s) & ((1 << m) - 1)
                        } else {
                            a
                        };
                        assert_eq!(sim.read_value(&tgt), want, "m={m} a={a} s={s} c={ctrl_val}");
                        assert_eq!(sim.read_value(&src), s);
                        sim.assert_all_ancillas_clean();
                    }
                }
            }
        }
    }

    #[test]
    fn controlled_increment_is_correct() {
        for r in 1..=6usize {
            for a in 0..(1u64 << r) {
                for ctrl_val in 0..2u64 {
                    let mut sim = SimBuilder::new();
                    let bits = sim.alloc_value(r, a);
                    let ctrl = sim.alloc_value(1, ctrl_val);
                    controlled_increment(sim.builder(), ctrl[0], &bits);
                    let want = (a + ctrl_val) & ((1 << r) - 1);
                    assert_eq!(sim.read_value(&bits), want, "r={r} a={a} c={ctrl_val}");
                    assert_eq!(sim.read_value(&ctrl), ctrl_val);
                    sim.assert_all_ancillas_clean();
                }
            }
        }
    }

    /// Resource counts of the Gidney adder match its closed form.
    #[test]
    fn gidney_adder_counts() {
        for (k, m) in [(1usize, 1usize), (1, 4), (4, 4), (3, 8), (16, 16), (8, 20)] {
            let mut b = qre_circuit::Builder::new(CountingTracer::new());
            let tgt = b.alloc_register(m);
            let src = b.alloc_register(k);
            add_into(&mut b, &src.0, &tgt.0);
            let c = b.into_sink().counts();
            let expect = (m as u64).saturating_sub(1);
            assert_eq!(c.ccix_count, expect, "k={k} m={m}");
            assert_eq!(c.measurement_count, expect, "k={k} m={m}");
            assert_eq!(c.ccz_count, 0);
            assert_eq!(c.t_count, 0);
            // Peak width: registers + simultaneous carries.
            assert_eq!(c.num_qubits, (m + k) as u64 + expect);
        }
    }

    /// Resource counts of the CDKM adder match its closed form.
    #[test]
    fn cdkm_adder_counts() {
        for (k, m) in [(1usize, 1usize), (4, 4), (16, 16), (4, 9), (8, 10)] {
            let mut b = qre_circuit::Builder::new(CountingTracer::new());
            let tgt = b.alloc_register(m);
            let src = b.alloc_register(k);
            add_into_cdkm(&mut b, &src.0, &tgt.0);
            let c = b.into_sink().counts();
            let r = m - k;
            let upper = if r <= 1 { 0 } else { 2 * (r as u64 - 1) };
            assert_eq!(c.ccz_count, 2 * k as u64 + upper, "k={k} m={m}");
            assert_eq!(c.ccix_count, 0);
            assert_eq!(c.measurement_count, 0, "CDKM is measurement-free");
        }
    }

    /// Chained additions through disjoint staging registers — the pattern the
    /// Karatsuba combiner uses instead of aliased operands.
    #[test]
    fn staged_addition_chain_is_correct() {
        let w = 4usize;
        for (a, c, d) in [(3u64, 9, 14), (0, 15, 15), (7, 7, 7), (12, 1, 0)] {
            let mut sim = SimBuilder::new();
            let ra = sim.alloc_value(3 * w, a);
            let rc = sim.alloc_value(w, c);
            let rd = sim.alloc_value(w, d);
            // ra += c; ra[w..] += d   (disjoint sources)
            add_into(sim.builder(), &rc, &ra);
            add_into(sim.builder(), &rd, &ra[w..]);
            let expect = (a + c + (d << w)) & ((1 << (3 * w)) - 1);
            assert_eq!(sim.read_value(&ra), expect, "a={a} c={c} d={d}");
            sim.assert_all_ancillas_clean();
        }
    }
}
