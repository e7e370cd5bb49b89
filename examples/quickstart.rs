//! Quickstart: estimate the physical resources of an algorithm described by
//! its logical counts (the paper's Section IV-B.3 input path).
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use qre::circuit::LogicalCounts;
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

fn main() {
    // An algorithm with 230 logical qubits, 1.2M T gates, 450k Toffolis and
    // some arbitrary rotations — a plausible mid-size chemistry kernel.
    let counts = LogicalCounts::builder()
        .logical_qubits(230)
        .t_gates(1_200_000)
        .ccz_gates(450_000)
        .rotations(15_000)
        .rotation_depth(4_000)
        .measurements(600_000)
        .build();

    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(HardwareProfile::qubit_gate_ns_e3())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .expect("valid request");

    let result = Estimator::new()
        .estimate(&request)
        .expect("feasible estimate");
    println!("{}", result.to_report());

    // The same result as the service's JSON contract:
    println!("--- JSON (truncated) ---");
    let json = result.to_json().to_string_pretty();
    for line in json.lines().take(12) {
        println!("{line}");
    }
    println!("...");
}
