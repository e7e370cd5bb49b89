//! Reproduction checks for the paper's Section V claims: all eight in-text
//! claims over the whole Figure 3 (32 … 16 384 bits) and Figure 4 study,
//! plus the exact 2048-bit calibration points quoted in the text and the
//! qualitative statements at smaller sizes. Multipliers are counted by
//! composition (`qre_circuit::Builder::block`), so the full study fits a
//! debug-mode test; the release binaries (`cargo run -p qre-bench --bin
//! fig3/fig4/text_claims --release`) print the same figures as tables.

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::estimator::{EstimateRequest, Estimator, HardwareProfile, QecSchemeKind};

fn maj_estimate(alg: MulAlgorithm, bits: usize) -> qre::estimator::EstimationResult {
    let request = EstimateRequest::builder()
        .counts(multiplication_counts(alg, bits))
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4)
        .build()
        .unwrap();
    Estimator::new().estimate(&request).unwrap()
}

#[test]
fn every_section_v_claim_holds_over_the_full_study() {
    let fig3 = qre_bench::fig3_series();
    let fig4 = qre_bench::fig4_series();
    let checks = qre_bench::text_claims(&fig3, &fig4);
    assert_eq!(checks.len(), 8);
    assert!(
        checks.iter().all(|c| c.ok),
        "{}",
        qre_bench::format_claims(&checks)
    );
}

#[test]
fn windowed_2048_matches_paper_calibration() {
    // Paper Section V: windowed multiplication of 2048-bit integers uses
    // 20,597 logical qubits and 1.12e11 logical quantum operations, and at
    // 2048 bits a distance-15 code is used (maj_ns_e4 + floquet, 1e-4).
    let r = maj_estimate(MulAlgorithm::Windowed, 2048);
    let lq = r.breakdown.algorithmic_logical_qubits;
    assert!(
        (19_000..=22_500).contains(&lq),
        "logical qubits {lq} vs paper 20,597"
    );
    let ops = lq as f64 * r.breakdown.num_cycles as f64;
    assert!(
        (0.5e11..=2.0e11).contains(&ops),
        "logical ops {ops:.3e} vs paper 1.12e11"
    );
    assert_eq!(
        r.logical_qubit.code_distance, 15,
        "paper: distance 15 at 2048 bits"
    );
}

#[test]
fn distance_staircase_starts_at_nine() {
    // Paper Figure 3: the QEC code distance varies from 9 at 32 bits.
    let r = maj_estimate(MulAlgorithm::Windowed, 32);
    assert_eq!(r.logical_qubit.code_distance, 9);
    let r = maj_estimate(MulAlgorithm::Schoolbook, 32);
    assert_eq!(r.logical_qubit.code_distance, 9);
}

#[test]
fn windowed_beats_standard_in_runtime() {
    for bits in [128usize, 512] {
        let w = maj_estimate(MulAlgorithm::Windowed, bits);
        let s = maj_estimate(MulAlgorithm::Schoolbook, bits);
        assert!(
            w.physical_counts.runtime_ns < s.physical_counts.runtime_ns,
            "windowed must be faster at {bits} bits"
        );
    }
}

#[test]
fn karatsuba_needs_the_most_physical_qubits() {
    // Paper: "the Karatsuba algorithm requires more physical qubits than the
    // other two algorithms".
    for bits in [64usize, 256] {
        let k = maj_estimate(MulAlgorithm::Karatsuba, bits);
        let s = maj_estimate(MulAlgorithm::Schoolbook, bits);
        let w = maj_estimate(MulAlgorithm::Windowed, bits);
        assert!(
            k.physical_counts.physical_qubits >= s.physical_counts.physical_qubits,
            "bits={bits}"
        );
        assert!(
            k.physical_counts.physical_qubits >= w.physical_counts.physical_qubits,
            "bits={bits}"
        );
    }
}

#[test]
fn karatsuba_loses_below_the_crossover() {
    // Paper: Karatsuba first shows a runtime improvement around 4096 bits —
    // so at small sizes it must be slower than standard multiplication.
    for bits in [64usize, 256] {
        let k = maj_estimate(MulAlgorithm::Karatsuba, bits);
        let s = maj_estimate(MulAlgorithm::Schoolbook, bits);
        assert!(
            k.physical_counts.runtime_ns > s.physical_counts.runtime_ns,
            "karatsuba should lose at {bits} bits"
        );
    }
}

#[test]
fn rqops_identity_holds() {
    // Section III-E: rQOPS = logical qubits × logical clock speed.
    let r = maj_estimate(MulAlgorithm::Windowed, 128);
    let expect =
        r.breakdown.algorithmic_logical_qubits as f64 * (1e9 / r.logical_qubit.cycle_time_ns);
    assert!((r.physical_counts.rqops - expect).abs() / expect < 1e-9);
    // And sits in the paper's "practical solutions" range of 1e2..1e10.
    assert!(r.physical_counts.rqops > 1e2 && r.physical_counts.rqops < 1e10 * 10.0);
}

#[test]
fn majorana_profile_matches_paper_parameters() {
    // The Figure 3 caption parameters, verbatim.
    let q = HardwareProfile::qubit_maj_ns_e4();
    assert_eq!(q.one_qubit_measurement_time_ns, 100.0);
    assert_eq!(q.t_gate_time_ns, 100.0);
    assert_eq!(q.clifford_error_rate(), 1e-4);
    assert_eq!(q.t_gate_error, 0.05);
}

#[test]
fn e6_majorana_is_fastest_for_windowed_2048_style_workloads() {
    // Figure 4: the optimistic Majorana profile delivers the shortest
    // runtime (the paper's ~12 s end of the range). Verified at 512 bits to
    // stay in the debug budget.
    let counts = multiplication_counts(MulAlgorithm::Windowed, 512);
    let mut runtimes = Vec::new();
    for profile in HardwareProfile::default_profiles() {
        let kind = match profile.instruction_set {
            qre::estimator::InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
            qre::estimator::InstructionSet::Majorana => QecSchemeKind::FloquetCode,
        };
        let request = EstimateRequest::builder()
            .counts(counts)
            .profile(profile.clone())
            .qec(kind)
            .total_error_budget(1e-4)
            .build()
            .unwrap();
        let r = Estimator::new().estimate(&request).unwrap();
        runtimes.push((profile.name.clone(), r.physical_counts.runtime_ns));
    }
    let fastest = runtimes
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert_eq!(fastest.0, "qubit_maj_ns_e6");
    let slowest = runtimes
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    assert_eq!(slowest.0, "qubit_gate_us_e3");
    // The spread spans orders of magnitude, as in Figure 4.
    assert!(slowest.1 / fastest.1 > 100.0);
}
