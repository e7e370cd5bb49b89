//! Integration tests for the `Estimator` engine: order preservation under
//! parallel execution, in-place error reporting, and factory-cache
//! correctness across sweeps.

use qre::circuit::LogicalCounts;
use qre::estimator::{
    EstimateRequest, Estimator, HardwareProfile, QecSchemeKind, SweepScheme, SweepSpec,
};
use qre::json::Value;
use qre_cli::{run_submission_streamed, write_submission, JobSpec, Submission, SubmissionKind};

fn counts(t: u64) -> LogicalCounts {
    LogicalCounts {
        num_qubits: 60,
        t_count: t,
        ccz_count: t / 10,
        measurement_count: 2_000,
        ..Default::default()
    }
}

fn request(t: u64) -> EstimateRequest {
    EstimateRequest::builder()
        .counts(counts(t))
        .profile(HardwareProfile::qubit_gate_ns_e3())
        .qec(QecSchemeKind::SurfaceCode)
        .total_error_budget(1e-3)
        .build()
        .unwrap()
}

/// A job array (the CLI's `{"items": [...]}` batch) of one job per T count.
fn batch(sizes: &[u64]) -> Submission {
    let jobs = sizes
        .iter()
        .map(|&t| JobSpec {
            request: request(t),
            frontier: false,
            search_partition: false,
        })
        .collect();
    Submission {
        stream: false,
        kind: SubmissionKind::Batch(jobs),
    }
}

/// The pre-layout T count an item's result reports.
fn t_count_of(item: &Value) -> Option<u64> {
    item.get_path("preLayoutLogicalResources.tCount")
        .and_then(Value::as_u64)
}

#[test]
fn batch_results_come_back_in_input_order() {
    // Mixed sizes so completion order under parallel execution differs from
    // submission order; items must still line up with their jobs.
    let sizes: Vec<u64> = vec![
        400_000, 1_000, 250_000, 5_000, 120_000, 2_000, 80_000, 10_000, 40_000, 3_000, 20_000,
        600_000,
    ];
    let mut bytes = Vec::new();
    write_submission(&Estimator::new(), &batch(&sizes), &mut bytes, true).unwrap();
    let doc = qre::json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
    let items = doc.get("items").and_then(Value::as_array).unwrap();
    assert_eq!(items.len(), sizes.len());
    for (item, &t) in items.iter().zip(&sizes) {
        // The item really belongs to its job: its pre-layout T count must
        // match the submitted workload.
        assert_eq!(t_count_of(item), Some(t));
        // And it must equal the one-shot estimate of the same request.
        let solo = Estimator::new().estimate(&request(t)).unwrap();
        assert_eq!(*item, solo.to_json());
    }
}

#[test]
fn failing_sweep_item_does_not_poison_siblings() {
    // The floquet code cannot run on gate-based hardware: those items must
    // report an error in place while Majorana items succeed.
    let spec = SweepSpec::new()
        .workload("w", counts(10_000))
        .profiles([
            HardwareProfile::qubit_gate_ns_e3(),
            HardwareProfile::qubit_maj_ns_e4(),
            HardwareProfile::qubit_gate_ns_e4(),
            HardwareProfile::qubit_maj_ns_e6(),
        ])
        .scheme(SweepScheme::Kind(QecSchemeKind::FloquetCode))
        .total_error_budget(1e-4);
    let outcomes = Estimator::new().sweep(&spec).unwrap();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes[0].outcome.is_err());
    assert!(outcomes[1].outcome.is_ok());
    assert!(outcomes[2].outcome.is_err());
    assert!(outcomes[3].outcome.is_ok());
    // Successful siblings match their independent estimates.
    for (i, profile) in [(1usize, "qubit_maj_ns_e4"), (3, "qubit_maj_ns_e6")] {
        assert_eq!(outcomes[i].point.profile, profile);
        let request = EstimateRequest::builder()
            .counts(counts(10_000))
            .profile(HardwareProfile::by_name(profile).unwrap())
            .qec(QecSchemeKind::FloquetCode)
            .total_error_budget(1e-4)
            .build()
            .unwrap();
        let solo = Estimator::new().estimate(&request).unwrap();
        assert_eq!(*outcomes[i].outcome.as_ref().unwrap(), solo);
    }
}

#[test]
fn profile_sweep_hits_the_factory_cache_and_matches_cold_runs() {
    let profiles = HardwareProfile::default_profiles();
    let spec = SweepSpec::new()
        .workload("w", counts(50_000))
        .profiles(profiles.clone())
        .total_error_budget(1e-4);
    let engine = Estimator::new();

    let first = engine.sweep(&spec).unwrap();
    let cold_stats = engine.cache_stats();
    assert_eq!(cold_stats.hits, 0, "first sweep is all misses");
    assert!(cold_stats.misses >= profiles.len() as u64);

    let second = engine.sweep(&spec).unwrap();
    let warm_stats = engine.cache_stats();
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "warm sweep must not re-run the factory search"
    );
    assert!(warm_stats.hits >= profiles.len() as u64);

    // Warm results are bit-identical to the first pass and to cold,
    // independent one-shot runs.
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
    }
    for (outcome, profile) in second.iter().zip(&profiles) {
        let kind = match profile.instruction_set {
            qre::estimator::InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
            qre::estimator::InstructionSet::Majorana => QecSchemeKind::FloquetCode,
        };
        let request = EstimateRequest::builder()
            .counts(counts(50_000))
            .profile(profile.clone())
            .qec(kind)
            .total_error_budget(1e-4)
            .build()
            .unwrap();
        let cold = Estimator::new().estimate(&request).unwrap();
        assert_eq!(*outcome.outcome.as_ref().unwrap(), cold);
    }
}

#[test]
fn streamed_sweep_is_bit_identical_to_collecting_sweep() {
    let spec = SweepSpec::new()
        .workload("w", counts(40_000))
        .profiles(HardwareProfile::default_profiles())
        .total_error_budget(1e-4);
    let engine = Estimator::new();
    let collected = engine.sweep(&spec).unwrap();

    // Observer variant: every expansion index delivered exactly once, each
    // outcome equal to the collecting API's entry at that index.
    let mut seen = vec![false; collected.len()];
    let total = engine
        .sweep_with(&spec, |o| {
            let i = o.point.index;
            assert!(!seen[i], "index {i} delivered twice");
            seen[i] = true;
            assert_eq!(
                o.outcome.as_ref().unwrap(),
                collected[i].outcome.as_ref().unwrap()
            );
        })
        .unwrap();
    assert_eq!(total, collected.len());
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn streamed_batch_carries_correct_indices_under_uneven_load() {
    // Mixed sizes: completion order differs from input order in parallel
    // runs, so each delivered record must self-identify via its index.
    let sizes: Vec<u64> = vec![500_000, 1_000, 200_000, 4_000, 90_000, 2_000];
    let mut bytes = Vec::new();
    run_submission_streamed(&Estimator::new(), &batch(&sizes), &mut bytes).unwrap();
    let records: Vec<Value> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|line| qre::json::parse(line).unwrap())
        .filter(|record| record.get("index").is_some())
        .collect();
    assert_eq!(records.len(), sizes.len());
    for record in records {
        let index = record.get("index").and_then(Value::as_u64).unwrap() as usize;
        assert_eq!(
            t_count_of(&record),
            Some(sizes[index]),
            "record at index {index} carries the wrong workload"
        );
    }
}

#[test]
fn sweep_is_the_path_behind_the_figure_harness() {
    // estimate_multiplication (a singleton sweep) agrees with the direct
    // library path, tying the harness to the engine contract.
    let harness = qre_bench::estimate_multiplication(
        qre::arith::MulAlgorithm::Windowed,
        64,
        &HardwareProfile::qubit_maj_ns_e4(),
        QecSchemeKind::FloquetCode,
        1e-4,
    )
    .unwrap();
    let engine = Estimator::new();
    let req = EstimateRequest::builder()
        .counts(qre::arith::multiplication_counts(
            qre::arith::MulAlgorithm::Windowed,
            64,
        ))
        .profile(HardwareProfile::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(1e-4)
        .build()
        .unwrap();
    assert_eq!(harness.result, engine.estimate(&req).unwrap());
}
