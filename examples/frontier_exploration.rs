//! Explore the qubit/runtime trade-off frontier (the paper's Section IV-C.4
//! T-factory constraints): slowing the logical clock lets fewer T-factory
//! copies sustain the same T-state demand, shrinking the machine.
//!
//! ```text
//! cargo run --example frontier_exploration --release
//! ```

use qre::circuit::LogicalCounts;
use qre::estimator::{
    format_duration_ns, group_digits, EstimateRequest, Estimator, HardwareProfile, QecSchemeKind,
};

fn main() {
    let counts = LogicalCounts::builder()
        .logical_qubits(150)
        .t_gates(2_000_000)
        .ccz_gates(300_000)
        .measurements(500_000)
        .build();

    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(HardwareProfile::qubit_gate_ns_e3())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .expect("valid request");

    let frontier = Estimator::new()
        .frontier(&request)
        .expect("feasible frontier");
    println!(
        "Qubit/runtime frontier ({} Pareto points)\n",
        frontier.len()
    );
    println!(
        "{:>10} {:>16} {:>14} {:>18}",
        "factories", "physical qubits", "runtime", "qubit-seconds"
    );
    println!("{}", "-".repeat(62));
    for point in &frontier {
        let pc = &point.result.physical_counts;
        println!(
            "{:>10} {:>16} {:>14} {:>18}",
            point.result.breakdown.num_t_factories,
            group_digits(pc.physical_qubits),
            format_duration_ns(pc.runtime_ns),
            format!("{:.3e}", pc.physical_qubits as f64 * pc.runtime_ns / 1e9),
        );
    }

    let first = &frontier.first().unwrap().result.physical_counts;
    let last = &frontier.last().unwrap().result.physical_counts;
    println!(
        "\nTrading {}x runtime buys a {:.1}% smaller machine.",
        (last.runtime_ns / first.runtime_ns).round(),
        100.0 * (1.0 - last.physical_qubits as f64 / first.physical_qubits as f64),
    );
}
