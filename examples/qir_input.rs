//! Estimate a program supplied as QIR (the paper's Section IV-B.2 input
//! path): parse QIR-lite text, count its logical resources, and run the
//! physical estimation.
//!
//! ```text
//! cargo run --example qir_input --release
//! ```

use qre::circuit::qir;
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

const PROGRAM: &str = r#"
; A small amplitude-amplification-style kernel in the QIR base profile.
define void @main() #0 {
entry:
  call void @__quantum__qis__h__body(%Qubit* null)
  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 1 to %Qubit*))
  call void @__quantum__qis__h__body(%Qubit* inttoptr (i64 2 to %Qubit*))
  call void @__quantum__qis__ccz__body(%Qubit* null, %Qubit* inttoptr (i64 1 to %Qubit*), %Qubit* inttoptr (i64 2 to %Qubit*))
  call void @__quantum__qis__rz__body(double 0.7853981, %Qubit* inttoptr (i64 2 to %Qubit*))
  call void @__quantum__qis__rz__body(double 0.3141592, %Qubit* inttoptr (i64 2 to %Qubit*))
  call void @__quantum__qis__t__body(%Qubit* null)
  call void @__quantum__qis__t__adj(%Qubit* inttoptr (i64 1 to %Qubit*))
  call void @__quantum__qis__cnot__body(%Qubit* null, %Qubit* inttoptr (i64 3 to %Qubit*))
  call void @__quantum__qis__mz__body(%Qubit* null, %Result* null)
  call void @__quantum__qis__mz__body(%Qubit* inttoptr (i64 1 to %Qubit*), %Result* inttoptr (i64 1 to %Result*))
  call void @__quantum__qis__mresetz__body(%Qubit* inttoptr (i64 2 to %Qubit*), %Result* inttoptr (i64 2 to %Result*))
  ret void
}
"#;

fn main() {
    let circuit = qir::parse_qir(PROGRAM).expect("valid QIR-lite");
    let counts = circuit.counts();
    println!("Parsed QIR program:");
    println!("  qubits:        {}", counts.num_qubits);
    println!("  T gates:       {}", counts.t_count);
    println!(
        "  rotations:     {} (depth {})",
        counts.rotation_count, counts.rotation_depth
    );
    println!("  CCZ gates:     {}", counts.ccz_count);
    println!("  measurements:  {}", counts.measurement_count);

    // A single kernel is tiny; realistic workloads repeat it. Compose with
    // the AccountForEstimates-style algebra (Section IV-B.3).
    let iterations = 100_000;
    let full = counts.repeat(iterations);
    println!("\nEstimating {iterations} sequential iterations of the kernel:\n");

    let request = EstimateRequest::builder()
        .counts(full)
        .profile(HardwareProfile::qubit_gate_ns_e4())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .expect("valid request");
    let result = Estimator::new()
        .estimate(&request)
        .expect("feasible estimate");
    println!("{}", result.to_report());

    // Round-trip: the circuit emits back to QIR-lite.
    let emitted = qir::emit_qir(&circuit);
    println!("--- re-emitted QIR (first 5 lines) ---");
    for line in emitted.lines().take(5) {
        println!("{line}");
    }
}
