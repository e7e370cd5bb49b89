//! End-to-end integration: circuit generation → logical counting → layout →
//! QEC → T factories → physical totals, across crates.

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::circuit::LogicalCounts;
use qre::estimator::{
    post_layout_logical_qubits, EstimateRequest, Estimator, HardwareProfile, InstructionSet,
    QecSchemeKind,
};

fn estimate(
    counts: LogicalCounts,
    profile: HardwareProfile,
    kind: QecSchemeKind,
    budget: f64,
) -> qre::estimator::EstimationResult {
    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(profile)
        .qec(kind)
        .total_error_budget(budget)
        .build()
        .unwrap();
    Estimator::new().estimate(&request).unwrap()
}

#[test]
fn multiplication_workloads_estimate_on_all_profiles() {
    let bits = 64;
    for alg in MulAlgorithm::ALL {
        let counts = multiplication_counts(alg, bits);
        for profile in HardwareProfile::default_profiles() {
            let kind = match profile.instruction_set {
                InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
                InstructionSet::Majorana => QecSchemeKind::FloquetCode,
            };
            let r = estimate(counts, profile.clone(), kind, 1e-4);
            assert!(
                r.physical_counts.physical_qubits > 0,
                "{alg} on {}",
                profile.name
            );
            assert_eq!(
                r.breakdown.algorithmic_logical_qubits,
                post_layout_logical_qubits(counts.num_qubits)
            );
            // Multipliers are rotation-free: no synthesis T states.
            assert_eq!(r.breakdown.t_states_per_rotation, 0);
            assert_eq!(
                r.breakdown.num_t_states,
                4 * (counts.ccz_count + counts.ccix_count)
            );
        }
    }
}

#[test]
fn paper_depth_formula_holds_through_the_stack() {
    // Section III-B.3: C = meas + rot + T + 3·Tof + t_rot·D_R.
    let counts = multiplication_counts(MulAlgorithm::Windowed, 128);
    let r = estimate(
        counts,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    );
    let expect =
        counts.measurement_count + counts.t_count + 3 * (counts.ccz_count + counts.ccix_count);
    assert_eq!(r.breakdown.algorithmic_depth, expect);
}

#[test]
fn larger_operands_cost_monotonically_more() {
    let profile = HardwareProfile::qubit_maj_ns_e4();
    let mut last_qubits = 0u64;
    let mut last_runtime = 0.0f64;
    for bits in [32usize, 64, 128, 256] {
        let counts = multiplication_counts(MulAlgorithm::Windowed, bits);
        let r = estimate(counts, profile.clone(), QecSchemeKind::FloquetCode, 1e-4);
        assert!(
            r.physical_counts.physical_qubits > last_qubits,
            "qubits must grow with operand size"
        );
        assert!(
            r.physical_counts.runtime_ns > last_runtime,
            "runtime must grow with operand size"
        );
        last_qubits = r.physical_counts.physical_qubits;
        last_runtime = r.physical_counts.runtime_ns;
    }
}

#[test]
fn budget_tightening_is_monotone_through_the_stack() {
    let counts = multiplication_counts(MulAlgorithm::Schoolbook, 64);
    let profile = HardwareProfile::qubit_gate_ns_e3();
    let mut last_d = 0;
    for budget in [1e-2, 1e-3, 1e-5, 1e-7] {
        let r = estimate(counts, profile.clone(), QecSchemeKind::SurfaceCode, budget);
        assert!(r.logical_qubit.code_distance >= last_d);
        last_d = r.logical_qubit.code_distance;
    }
}

#[test]
fn composition_algebra_flows_into_estimates() {
    // Estimating a doubled workload equals estimating counts.repeat(2).
    let single = multiplication_counts(MulAlgorithm::Windowed, 64);
    let doubled = single.repeat(2);
    let profile = HardwareProfile::qubit_maj_ns_e4();
    let r1 = estimate(single, profile.clone(), QecSchemeKind::FloquetCode, 1e-4);
    let r2 = estimate(doubled, profile, QecSchemeKind::FloquetCode, 1e-4);
    assert_eq!(r2.breakdown.num_t_states, 2 * r1.breakdown.num_t_states);
    assert_eq!(
        r2.breakdown.algorithmic_depth,
        2 * r1.breakdown.algorithmic_depth
    );
    // Same width → same post-layout qubits.
    assert_eq!(
        r2.breakdown.algorithmic_logical_qubits,
        r1.breakdown.algorithmic_logical_qubits
    );
}

#[test]
fn frontier_spans_a_real_tradeoff_for_multiplication() {
    let counts = multiplication_counts(MulAlgorithm::Windowed, 128);
    let request = EstimateRequest::builder()
        .counts(counts)
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4)
        .build()
        .unwrap();
    let frontier = Estimator::new().frontier(&request).unwrap();
    assert!(frontier.len() >= 2);
    let first = &frontier.first().unwrap().result.physical_counts;
    let last = &frontier.last().unwrap().result.physical_counts;
    assert!(first.physical_qubits > last.physical_qubits);
    assert!(first.runtime_ns < last.runtime_ns);
}

#[test]
fn report_and_json_agree() {
    let counts = multiplication_counts(MulAlgorithm::Schoolbook, 32);
    let r = estimate(
        counts,
        HardwareProfile::qubit_gate_ns_e4(),
        QecSchemeKind::SurfaceCode,
        1e-3,
    );
    let json = r.to_json();
    // Round-trip through our own parser.
    let parsed = qre::json::parse(&json.to_string_pretty()).unwrap();
    assert_eq!(
        parsed
            .get_path("breakdown.algorithmicLogicalQubits")
            .unwrap()
            .as_u64()
            .unwrap(),
        r.breakdown.algorithmic_logical_qubits
    );
    let report = r.to_report();
    assert!(report.contains(&qre::estimator::group_digits(
        r.physical_counts.physical_qubits
    )));
}
