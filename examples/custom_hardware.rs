//! Full customisation (the paper's Section IV-C): a bespoke qubit model, a
//! custom QEC scheme defined by formula strings, and a custom distillation
//! unit — all first-class inputs, exactly as the tool's parameter groups
//! describe.
//!
//! ```text
//! cargo run --example custom_hardware --release
//! ```

use qre::circuit::LogicalCounts;
use qre::estimator::{
    DistillationUnit, EstimateRequest, Estimator, HardwareProfile, InstructionSet, LogicalUnitSpec,
    PhysicalUnitSpec, QecScheme,
};
use qre::expr::Formula;

fn main() {
    // 1. A custom qubit model: start from a default profile and override
    //    (Section IV-C.1 "customize a subset of the parameters").
    let mut qubit = HardwareProfile::qubit_gate_ns_e4();
    qubit.name = "my_lab_transmons".into();
    qubit.two_qubit_gate_time_ns = 80.0;
    qubit.two_qubit_gate_error = 3e-4;
    qubit.t_gate_error = 8e-4;

    // 2. A custom QEC scheme via formula strings (Section IV-C.2): a
    //    hypothetical denser code with a worse threshold.
    let scheme = QecScheme {
        name: "dense_code".into(),
        instruction_set: InstructionSet::GateBased,
        error_correction_threshold: 5e-3,
        crossing_prefactor: 0.05,
        logical_cycle_time: Formula::parse(
            "(2 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
        )
        .expect("valid formula"),
        physical_qubits_per_logical_qubit: Formula::parse("1.5 * codeDistance ^ 2 + 4")
            .expect("valid formula"),
        max_code_distance: 49,
    };

    // 3. A custom distillation unit (Section IV-C.5): a 9-to-1 unit with
    //    its failure/output behaviour given as formula strings.
    let nine_to_one = DistillationUnit {
        name: "9-to-1 custom".into(),
        num_input_ts: 9,
        num_output_ts: 1,
        failure_probability: Formula::parse("9 * inputErrorRate + 50 * cliffordErrorRate")
            .expect("valid formula"),
        output_error_rate: Formula::parse("20 * inputErrorRate ^ 2 + 3 * cliffordErrorRate")
            .expect("valid formula"),
        physical: Some(PhysicalUnitSpec {
            qubits: 20,
            duration_cycles: 18,
        }),
        logical: Some(LogicalUnitSpec {
            logical_qubits: 12,
            duration_logical_cycles: 8,
        }),
        first_round_only: false,
    };

    let counts = LogicalCounts::builder()
        .logical_qubits(80)
        .t_gates(400_000)
        .ccz_gates(60_000)
        .measurements(100_000)
        .build();

    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(qubit)
        .qec_custom(scheme)
        .distillation_units(vec![nine_to_one])
        .total_error_budget(1e-3)
        .build()
        .expect("valid request");

    let result = Estimator::new()
        .estimate(&request)
        .expect("feasible estimate");
    println!("{}", result.to_report());

    let factory = result.t_factory.as_ref().expect("needs distillation");
    println!(
        "The custom 9-to-1 unit was selected for all {} round(s).",
        factory.num_rounds()
    );
    assert!(factory
        .rounds
        .iter()
        .all(|r| r.unit_name == "9-to-1 custom"));
}
