//! Phase estimation: a rotation-bearing workload that exercises the
//! estimator's rotation-synthesis machinery (paper Sections III-B.2 and
//! III-B.4) — the error-budget share ε_syn, the per-rotation T cost
//! `⌈0.53·log₂(M_R/ε) + 5.3⌉`, and the rotation-depth term of the
//! algorithmic depth.
//!
//! ```text
//! cargo run --example phase_estimation --release
//! ```

use qre::arith::qpe::qpe_counts;
use qre::circuit::LogicalCounts;
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

fn main() {
    // The controlled unitary: a Trotter-style step on 60 system qubits.
    let controlled_step = LogicalCounts::builder()
        .logical_qubits(60)
        .t_gates(4_000)
        .ccz_gates(1_500)
        .rotations(800)
        .rotation_depth(120)
        .measurements(200)
        .build();

    println!("Phase estimation resource study (qubit_gate_ns_e4, surface code, budget 1e-3)\n");
    println!(
        "{:>10} {:>14} {:>8} {:>10} {:>16} {:>12}",
        "precision", "rotations", "T/rot", "d", "phys. qubits", "runtime"
    );
    println!("{}", "-".repeat(76));

    let engine = Estimator::new();
    for precision in [8usize, 12, 16, 20] {
        let counts = qpe_counts(precision, &controlled_step);
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(HardwareProfile::qubit_gate_ns_e4())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .build()
            .expect("valid request");
        let r = engine.estimate(&request).expect("feasible estimate");
        println!(
            "{:>10} {:>14} {:>8} {:>10} {:>16} {:>12}",
            format!("{precision} bits"),
            qre::estimator::group_digits(counts.rotation_count),
            r.breakdown.t_states_per_rotation,
            r.logical_qubit.code_distance,
            qre::estimator::group_digits(r.physical_counts.physical_qubits),
            qre::estimator::format_duration_ns(r.physical_counts.runtime_ns),
        );
    }

    println!(
        "\nEach added precision bit doubles the controlled-unitary repetitions\n\
         (2^m − 1 total), and the growing rotation census pushes the per-rotation\n\
         T cost up through the synthesis formula — both visible above."
    );
}
