//! The paper's Section V case study in miniature: compare the three
//! quantum multiplication algorithms at a chosen operand size on the
//! `qubit_maj_ns_e4` profile with the floquet code.
//!
//! ```text
//! cargo run --example multiplication_comparison --release [bits]
//! ```

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::estimator::{
    format_duration_ns, format_sci, group_digits, EstimateRequest, Estimator, HardwareProfile,
    QecSchemeKind,
};

fn main() {
    let bits: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);

    println!(
        "Multiplying two {bits}-bit integers on qubit_maj_ns_e4 (floquet code, budget 1e-4)\n"
    );
    println!(
        "{:<12} {:>14} {:>8} {:>16} {:>12} {:>12}",
        "algorithm", "logical qubits", "d", "physical qubits", "runtime", "rQOPS"
    );
    println!("{}", "-".repeat(80));

    let engine = Estimator::new();
    for alg in MulAlgorithm::ALL {
        let counts = multiplication_counts(alg, bits);
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(HardwareProfile::qubit_maj_ns_e4())
            .qec(QecSchemeKind::FloquetCode)
            .total_error_budget(1e-4)
            .build()
            .expect("valid request");
        let r = engine.estimate(&request).expect("feasible estimate");
        println!(
            "{:<12} {:>14} {:>8} {:>16} {:>12} {:>12}",
            alg.name(),
            group_digits(r.breakdown.algorithmic_logical_qubits),
            r.logical_qubit.code_distance,
            group_digits(r.physical_counts.physical_qubits),
            format_duration_ns(r.physical_counts.runtime_ns),
            format_sci(r.physical_counts.rqops),
        );
    }

    println!(
        "\nAs in the paper: the windowed algorithm needs the fewest operations, while\n\
         Karatsuba pays a workspace penalty that physical qubit counts make visible."
    );
}
