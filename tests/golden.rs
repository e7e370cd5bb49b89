//! Golden-file regression tests: the full `EstimationResult` JSON for the
//! paper-claim configurations is checked into `tests/fixtures/` and compared
//! **byte for byte**. Any numeric drift in any pipeline stage — layout, code
//! distance, factory search, totals — fails loudly with the first diverging
//! line, instead of sliding under the claim tests' tolerance ranges.
//!
//! To bless intentional changes:
//!
//! ```bash
//! QRE_GOLDEN_REGEN=1 cargo test --test golden
//! ```
//!
//! and review the fixture diff like any other code change.

use std::path::PathBuf;

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::estimator::{
    EstimateRequest, EstimateRequestBuilder, EstimationResult, Estimator, HardwareProfile,
    QecSchemeKind,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn regen_requested() -> bool {
    std::env::var("QRE_GOLDEN_REGEN").is_ok_and(|v| !v.trim().is_empty())
}

/// Compare (or, under `QRE_GOLDEN_REGEN`, rewrite) one golden fixture.
/// The fixture also pins the byte renderer that streamed records use:
/// `write_json`'s compact document must parse to the fixture's value.
fn check_golden(name: &str, result: &EstimationResult) {
    check_golden_text(name, result.to_json().to_string_pretty() + "\n");
    if !regen_requested() {
        let mut compact = String::new();
        result.write_json(&mut compact);
        let fixture = std::fs::read_to_string(fixture_path(name)).expect("fixture just compared");
        assert_eq!(
            qre::json::parse(&compact).expect("write_json writes JSON"),
            qre::json::parse(&fixture).expect("fixture is JSON"),
            "write_json diverges from the golden fixture {name}"
        );
    }
}

/// Byte-exact comparison for fixtures that aren't a single result document
/// (e.g. a whole frontier).
fn check_golden_text(name: &str, rendered: String) {
    let path = fixture_path(name);
    if regen_requested() {
        std::fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("failed to write fixture {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "failed to read fixture {}: {e}\n\
             (first run? bless it with: QRE_GOLDEN_REGEN=1 cargo test --test golden)",
            path.display()
        )
    });
    if rendered != expected {
        let divergence = rendered
            .lines()
            .zip(expected.lines())
            .position(|(got, want)| got != want);
        let (got_line, want_line) = match divergence {
            Some(i) => (
                rendered.lines().nth(i).unwrap_or(""),
                expected.lines().nth(i).unwrap_or(""),
            ),
            None => ("<line count differs>", "<line count differs>"),
        };
        panic!(
            "golden mismatch for {name} (first divergence at line {}):\n\
             expected: {want_line}\n\
             actual:   {got_line}\n\
             If this change is intentional, re-bless with:\n\
             QRE_GOLDEN_REGEN=1 cargo test --test golden",
            divergence.map_or(0, |i| i + 1),
        );
    }
}

fn estimate(
    alg: MulAlgorithm,
    bits: usize,
    profile: HardwareProfile,
    qec: QecSchemeKind,
    budget: f64,
) -> EstimationResult {
    let request = EstimateRequest::builder()
        .counts(multiplication_counts(alg, bits))
        .profile(profile)
        .qec(qec)
        .total_error_budget(budget)
        .build()
        .unwrap();
    Estimator::new().estimate(&request).unwrap()
}

/// The paper's Section V calibration point: windowed 2048-bit multiplication
/// on the maj_ns_e4 Majorana profile under the floquet code at 1e-4.
#[test]
fn windowed_2048_maj_ns_e4_floquet() {
    let r = estimate(
        MulAlgorithm::Windowed,
        2048,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    );
    check_golden("windowed_2048_maj_ns_e4_floquet.json", &r);
}

/// The calibration point of [`windowed_2048_maj_ns_e4_floquet`] under one
/// Section IV-C.4 constraint, which `constrain` sets on the request.
fn calibration_point_under(
    constrain: impl FnOnce(EstimateRequestBuilder) -> EstimateRequestBuilder,
) -> qre::estimator::Result<EstimationResult> {
    let builder = EstimateRequest::builder()
        .counts(multiplication_counts(MulAlgorithm::Windowed, 2048))
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4);
    Estimator::new().estimate(&constrain(builder).build()?)
}

/// The logical-cycle slowdown: stretching the program 4× lets 4 factory
/// copies keep up instead of 15, for fewer qubits and a longer runtime.
#[test]
fn windowed_2048_maj_ns_e4_floquet_depth_factor_4() {
    let r = calibration_point_under(|b| b.logical_depth_factor(4.0)).unwrap();
    assert_eq!(r.breakdown.num_t_factories, 4);
    check_golden("windowed_2048_maj_ns_e4_floquet_depth_factor_4.json", &r);
}

/// The factory cap: 4 copies instead of 15, with the runtime stretched just
/// enough for them to deliver every T state.
#[test]
fn windowed_2048_maj_ns_e4_floquet_max_factories_4() {
    let r = calibration_point_under(|b| b.max_t_factories(4)).unwrap();
    assert_eq!(r.breakdown.num_t_factories, 4);
    check_golden("windowed_2048_maj_ns_e4_floquet_max_factories_4.json", &r);
}

/// The qubit cap: below the unconstrained 21,631,192 qubits, the estimator
/// trades factory copies for runtime until the total fits.
#[test]
fn windowed_2048_maj_ns_e4_floquet_max_qubits_21_3m() {
    let r = calibration_point_under(|b| b.max_physical_qubits(21_300_000)).unwrap();
    assert!(r.physical_counts.physical_qubits <= 21_300_000);
    check_golden("windowed_2048_maj_ns_e4_floquet_max_qubits_21_3m.json", &r);
}

/// The duration cap: runtime cannot shrink below the unconstrained 19.39 s,
/// so a 15 s cap is a hard failure. The fixture pins the error object that
/// `qre serve` and batch or sweep items report in place for it.
#[test]
fn windowed_2048_maj_ns_e4_floquet_max_duration_15s() {
    use qre::estimator::Error;
    use qre::json::ObjectBuilder;

    let err = calibration_point_under(|b| b.max_duration_ns(15e9)).unwrap_err();
    assert!(matches!(err, Error::ConstraintViolated(_)), "{err}");
    let record = ObjectBuilder::new()
        .field("status", "error")
        .field("message", err.to_string())
        .build();
    check_golden_text(
        "windowed_2048_maj_ns_e4_floquet_max_duration_15s.json",
        record.to_string_pretty() + "\n",
    );
}

/// The low end of Figure 3's distance staircase (distance 9 at 32 bits).
#[test]
fn windowed_32_maj_ns_e4_floquet() {
    let r = estimate(
        MulAlgorithm::Windowed,
        32,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    );
    check_golden("windowed_32_maj_ns_e4_floquet.json", &r);
}

/// The gate-based pipeline (surface code, distillation over gate timings).
#[test]
fn windowed_512_gate_ns_e3_surface() {
    let r = estimate(
        MulAlgorithm::Windowed,
        512,
        HardwareProfile::qubit_gate_ns_e3(),
        QecSchemeKind::SurfaceCode,
        1e-3,
    );
    check_golden("windowed_512_gate_ns_e3_surface.json", &r);
}

/// The Majorana surface code (`QecScheme::surface_code_majorana`) against
/// the floquet code the paper pairs with Majorana hardware: at the same
/// point its lower threshold forces a larger code distance.
#[test]
fn windowed_512_maj_ns_e4_surface() {
    let surface = estimate(
        MulAlgorithm::Windowed,
        512,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::SurfaceCode,
        1e-4,
    );
    check_golden("windowed_512_maj_ns_e4_surface.json", &surface);
    let floquet = estimate(
        MulAlgorithm::Windowed,
        512,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    );
    assert!(
        surface.logical_qubit.code_distance > floquet.logical_qubit.code_distance,
        "surface d={} vs floquet d={}",
        surface.logical_qubit.code_distance,
        floquet.logical_qubit.code_distance
    );
}

/// Karatsuba at the paper's "needs the most physical qubits" comparison
/// size, covering the third multiplication workload end to end.
#[test]
fn karatsuba_256_maj_ns_e4_floquet() {
    let r = estimate(
        MulAlgorithm::Karatsuba,
        256,
        HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    );
    check_golden("karatsuba_256_maj_ns_e4_floquet.json", &r);
}

/// The rotation-synthesis path end to end: 16-bit phase estimation over
/// the controlled Trotter step of `examples/phase_estimation.rs` on
/// qubit_gate_ns_e4 with the surface code at 1e-3. Every other fixture is
/// rotation-free, so this one alone pins the ε_syn budget slice, the
/// per-rotation T cost `⌈0.53·log₂(M_R/ε_syn) + 5.3⌉` and the
/// rotation-depth term of the algorithmic depth.
#[test]
fn qpe_16_gate_ns_e4_surface() {
    use qre::arith::qpe::qpe_counts;
    use qre::circuit::LogicalCounts;

    let controlled_step = LogicalCounts::builder()
        .logical_qubits(60)
        .t_gates(4_000)
        .ccz_gates(1_500)
        .rotations(800)
        .rotation_depth(120)
        .measurements(200)
        .build();
    let request = EstimateRequest::builder()
        .counts(qpe_counts(16, &controlled_step))
        .profile(HardwareProfile::qubit_gate_ns_e4())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .unwrap();
    let r = Estimator::new().estimate(&request).unwrap();
    assert!(r.breakdown.t_states_per_rotation > 0);
    check_golden("qpe_16_gate_ns_e4_surface.json", &r);
}

/// The searched-partition frontier for the gate-based 512-bit scenario: the
/// two-axis (budget partition × factory cap) search's full Pareto set, one
/// object per point carrying the factory cap and the budget partition that
/// produced it. Pins down the whole search — grid construction, cap-ladder
/// union, Pareto reduction, and provenance — against numeric drift.
///
/// The same request's fixed-thirds frontier runs alongside, and the payoff
/// of searching the partition is pinned exactly: the searched best points
/// use 1.1368× fewer physical qubits and 1.0952× less runtime, because the
/// rotation-free workload gets back the synthesis third of the budget.
#[test]
fn frontier_searched_windowed_512_gate_ns_e3() {
    use qre::estimator::{EstimateRequest, Estimator, FrontierPoint, PartitionSearch};
    use qre::json::{ObjectBuilder, Value};

    let request = EstimateRequest::builder()
        .counts(multiplication_counts(MulAlgorithm::Windowed, 512))
        .profile(HardwareProfile::qubit_gate_ns_e3())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .unwrap();
    let points = Estimator::new()
        .frontier_searched(&request, &PartitionSearch::default())
        .unwrap();
    let rendered = Value::Array(
        points
            .iter()
            .map(|p| {
                ObjectBuilder::new()
                    .field("maxTFactories", p.max_t_factories)
                    .field("errorBudget", p.budget.to_json())
                    .field("result", p.result.to_json())
                    .build()
            })
            .collect(),
    )
    .to_string_pretty()
        + "\n";
    check_golden_text("frontier_searched_windowed_512_gate_ns_e3.json", rendered);

    let fixed = Estimator::new().frontier(&request).unwrap();
    let best = |points: &[FrontierPoint]| {
        let qubits = points
            .iter()
            .map(|p| p.result.physical_counts.physical_qubits)
            .min()
            .unwrap();
        let runtime = points
            .iter()
            .map(|p| p.result.physical_counts.runtime_ns)
            .fold(f64::INFINITY, f64::min);
        (qubits, runtime)
    };
    assert_eq!(best(&fixed), (5_726_850, 3_097_456_000.0));
    assert_eq!(best(&points), (5_037_650, 2_828_112_000.0));
}

/// The whole Figure 3 study as one table: the three multipliers at the ten
/// sizes from 32 to 16,384 bits on qubit_maj_ns_e4 with the floquet code
/// at 1e-4 (30 rows).
#[test]
fn fig3_table() {
    check_golden_text("fig3.csv", qre_bench::to_csv(&qre_bench::fig3_series()));
}

/// The whole Figure 4 study as one table: the three multipliers at 2,048
/// bits on all six default profiles, each with its default QEC scheme
/// (18 rows). The only fixture that covers the two µs ion-trap profiles
/// and qubit_maj_ns_e6.
#[test]
fn fig4_table() {
    check_golden_text("fig4.csv", qre_bench::to_csv(&qre_bench::fig4_series()));
}

/// The fixtures themselves must stay in sync with this test file: every
/// fixture present is produced by exactly one test above.
#[test]
fn fixture_directory_has_no_strays() {
    if regen_requested() {
        return; // fixtures are being rewritten concurrently by the others
    }
    let dir = fixture_path("");
    let known = [
        "windowed_2048_maj_ns_e4_floquet.json",
        "windowed_32_maj_ns_e4_floquet.json",
        "windowed_512_gate_ns_e3_surface.json",
        "karatsuba_256_maj_ns_e4_floquet.json",
        "frontier_searched_windowed_512_gate_ns_e3.json",
        "qpe_16_gate_ns_e4_surface.json",
        "windowed_512_maj_ns_e4_surface.json",
        "windowed_2048_maj_ns_e4_floquet_depth_factor_4.json",
        "windowed_2048_maj_ns_e4_floquet_max_factories_4.json",
        "windowed_2048_maj_ns_e4_floquet_max_qubits_21_3m.json",
        "windowed_2048_maj_ns_e4_floquet_max_duration_15s.json",
        "fig3.csv",
        "fig4.csv",
    ];
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("failed to list {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    let mut expected: Vec<String> = known.iter().map(ToString::to_string).collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "tests/fixtures/ and tests/golden.rs drifted"
    );
}
