//! Sweep one workload across all six default hardware profiles — the shape
//! of the paper's Figure 4 — showing how the same logical algorithm lands on
//! wildly different physical machines.
//!
//! ```text
//! cargo run --example hardware_profiles --release
//! ```

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::estimator::{
    format_duration_ns, format_sci, group_digits, EstimateRequest, Estimator, HardwareProfile,
    InstructionSet, QecSchemeKind,
};

fn main() {
    let bits = 512;
    let counts = multiplication_counts(MulAlgorithm::Windowed, bits);
    println!("Windowed {bits}-bit multiplication across the six default profiles (budget 1e-4)\n");
    println!(
        "{:<18} {:<13} {:>4} {:>16} {:>14} {:>10}",
        "profile", "QEC scheme", "d", "physical qubits", "runtime", "rQOPS"
    );
    println!("{}", "-".repeat(82));

    let engine = Estimator::new();
    for profile in HardwareProfile::default_profiles() {
        // The paper's Figure 4 pairing: surface code for gate-based
        // hardware, floquet code for Majorana hardware.
        let kind = match profile.instruction_set {
            InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
            InstructionSet::Majorana => QecSchemeKind::FloquetCode,
        };
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(profile.clone())
            .qec(kind)
            .total_error_budget(1e-4)
            .build()
            .expect("valid request");
        let r = engine.estimate(&request).expect("feasible estimate");
        println!(
            "{:<18} {:<13} {:>4} {:>16} {:>14} {:>10}",
            profile.name,
            r.qec_scheme.name,
            r.logical_qubit.code_distance,
            group_digits(r.physical_counts.physical_qubits),
            format_duration_ns(r.physical_counts.runtime_ns),
            format_sci(r.physical_counts.rqops),
        );
    }

    println!(
        "\nThe logical algorithm is identical everywhere; error rates set the code\n\
         distance and the physical clock sets the wall time — spanning several orders\n\
         of magnitude in both qubits and runtime, as the paper's Figure 4 shows."
    );
}
