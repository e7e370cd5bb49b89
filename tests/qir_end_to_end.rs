//! Integration across the input paths of paper Section IV-B: builder-emitted
//! circuits, QIR-lite text, and known logical estimates must converge on the
//! same physical resources.

use qre::arith::add::{add_into, controlled_add_into};
use qre::circuit::{qir, Builder, Circuit, CountingTracer, LogicalCounts, TeeSink};
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

/// Build a small arithmetic circuit through the recording sink.
fn sample_circuit() -> Circuit {
    let mut b = Builder::new(Circuit::new());
    let a = b.alloc_register(8);
    let c = b.alloc_register(8);
    let ctrl = b.alloc();
    add_into(&mut b, &c.0, &a.0);
    controlled_add_into(&mut b, ctrl, &c.0, &a.0);
    for q in a.iter() {
        b.measure(q);
    }
    b.into_sink()
}

#[test]
fn qir_round_trip_preserves_estimates() {
    let circuit = sample_circuit();
    let direct_counts = circuit.counts();

    // Emit to QIR-lite and parse back.
    let text = qir::emit_qir(&circuit);
    let reparsed = qir::parse_qir(&text).unwrap();
    let qir_counts = reparsed.counts();

    assert_eq!(direct_counts.t_count, qir_counts.t_count);
    assert_eq!(direct_counts.ccix_count, qir_counts.ccix_count);
    assert_eq!(
        direct_counts.measurement_count,
        qir_counts.measurement_count
    );

    // Both count sets produce identical physical estimates when widths agree.
    let estimate = |counts: LogicalCounts| {
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(HardwareProfile::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .build()
            .unwrap();
        Estimator::new().estimate(&request).unwrap()
    };
    let mut aligned = qir_counts;
    aligned.num_qubits = direct_counts.num_qubits;
    assert_eq!(estimate(direct_counts), estimate(aligned));
}

#[test]
fn streaming_and_recording_paths_agree_on_arithmetic() {
    // The "high-level language" path (builder → tracer) and the recorded
    // circuit path count identically on one emission pass.
    let mut b = Builder::new(TeeSink::new(Circuit::new(), CountingTracer::new()));
    let x = b.alloc_register(6);
    let y = b.alloc_register(6);
    let acc = b.alloc_register(13);
    qre::arith::mul::schoolbook_accumulate_fresh(&mut b, &x.0, &y.0, &acc.0);
    let tee = b.into_sink();
    assert_eq!(tee.first.counts(), tee.second.counts());
}

#[test]
fn account_for_estimates_path_composes_with_traced_counts() {
    // Splice hand-computed logical estimates (Section IV-B.3) into traced
    // circuit counts and estimate the union.
    let traced = sample_circuit().counts();
    let manual = LogicalCounts::builder()
        .logical_qubits(40)
        .t_gates(5_000)
        .rotations(100)
        .rotation_depth(50)
        .measurements(800)
        .build();
    let combined = traced.then(&manual);
    assert_eq!(combined.t_count, traced.t_count + 5_000);
    assert_eq!(combined.num_qubits, 40.max(traced.num_qubits));

    let request = EstimateRequest::builder()
        .counts(combined)
        .profile(HardwareProfile::qubit_gate_ns_e4())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .unwrap();
    let r = Estimator::new().estimate(&request).unwrap();
    // The rotation path kicked in.
    assert!(r.breakdown.t_states_per_rotation > 0);
    assert!(r.breakdown.num_t_states > combined.t_count);
}

#[test]
fn cli_json_contract_round_trips() {
    // Submit the same workload through the CLI job layer and compare with
    // the library path.
    let counts = qre::arith::multiplication_counts(qre::arith::MulAlgorithm::Windowed, 64);
    let job_text = format!(
        r#"{{
            "algorithm": {{ "multiplication": {{ "algorithm": "windowed", "bits": 64 }} }},
            "qubitParams": {{ "name": "qubit_maj_ns_e4" }},
            "qecScheme": {{ "name": "floquet_code" }},
            "errorBudget": {}
        }}"#,
        1e-4
    );
    let submission = qre_cli::parse_submission(&job_text).unwrap();
    let mut bytes = Vec::new();
    qre_cli::write_submission(&Estimator::new(), &submission, &mut bytes, false).unwrap();
    let cli_out = qre::json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();

    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4)
        .build()
        .unwrap();
    let lib_result = Estimator::new().estimate(&request).unwrap();

    assert_eq!(
        cli_out
            .get_path("physicalCounts.physicalQubits")
            .unwrap()
            .as_u64()
            .unwrap(),
        lib_result.physical_counts.physical_qubits
    );
    assert_eq!(
        cli_out
            .get_path("logicalQubit.codeDistance")
            .unwrap()
            .as_u64()
            .unwrap(),
        u64::from(lib_result.logical_qubit.code_distance)
    );
}

#[test]
fn bench_harness_matches_library_estimates() {
    use qre_bench::estimate_multiplication;
    let r = estimate_multiplication(
        qre::arith::MulAlgorithm::Schoolbook,
        64,
        &HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    )
    .unwrap();
    let request = EstimateRequest::builder()
        .counts(qre::arith::multiplication_counts(
            qre::arith::MulAlgorithm::Schoolbook,
            64,
        ))
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4)
        .build()
        .unwrap();
    let lib = Estimator::new().estimate(&request).unwrap();
    assert_eq!(r.result, lib);
}
