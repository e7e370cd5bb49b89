//! Shard-union correctness: the union of `shard_of(0..n, n)` sweep results
//! must equal the unsharded sweep — same items, same values — for a
//! multi-axis spec (the acceptance criterion of the sharding API).

use qre::circuit::LogicalCounts;
use qre::estimator::{merge_indexed, Estimator, HardwareProfile, Shard, SweepOutcome, SweepSpec};

fn counts(t: u64) -> LogicalCounts {
    LogicalCounts {
        num_qubits: 24,
        t_count: t,
        measurement_count: 500,
        ..Default::default()
    }
}

/// Workloads × profiles × budgets: 2 × 6 × 2 = 24 items, including the
/// Majorana/gate-based mix so some shards carry floquet items.
fn multi_axis_spec() -> SweepSpec {
    SweepSpec::new()
        .workload("small", counts(1_000))
        .workload("large", counts(20_000))
        .profiles(HardwareProfile::default_profiles())
        .total_error_budget(1e-3)
        .total_error_budget(1e-4)
}

#[test]
fn shard_union_equals_unsharded_sweep() {
    let spec = multi_axis_spec();
    let full = Estimator::new().sweep(&spec).unwrap();
    assert_eq!(full.len(), 24);

    for n in [1usize, 2, 5, 24, 30] {
        // Each shard runs on its own engine — the worst case, as separate
        // server processes would: no shared cache, so equality below proves
        // the computation itself is deterministic across the partition.
        let per_shard: Vec<Vec<SweepOutcome>> = spec
            .shard(n)
            .unwrap()
            .iter()
            .map(|shard| Estimator::new().sweep(shard).unwrap())
            .collect();
        assert_eq!(
            per_shard.iter().map(Vec::len).sum::<usize>(),
            full.len(),
            "shards of {n} must cover every item exactly once"
        );
        let merged = merge_indexed(per_shard, |o| o.point.index).unwrap();
        assert_eq!(merged.len(), full.len());
        for (m, f) in merged.iter().zip(&full) {
            assert_eq!(m.point.index, f.point.index);
            assert_eq!(m.point.workload, f.point.workload);
            assert_eq!(m.point.profile, f.point.profile);
            assert_eq!(m.point.scheme, f.point.scheme);
            match (&m.outcome, &f.outcome) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "item {} diverged", m.point.index),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!(
                    "item {}: sharded {:?} vs unsharded {:?}",
                    m.point.index,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

#[test]
fn oversharding_yields_empty_tails_that_still_merge() {
    let spec = SweepSpec::new()
        .workload("w", counts(1_000))
        .profile(HardwareProfile::qubit_gate_ns_e3());
    assert_eq!(spec.total_len(), 1);
    let shards = spec.shard(3).unwrap();
    assert_eq!(
        shards.iter().map(SweepSpec::len).collect::<Vec<_>>(),
        vec![1, 0, 0]
    );
    let per_shard: Vec<Vec<SweepOutcome>> = shards
        .iter()
        .map(|s| Estimator::new().sweep(s).unwrap())
        .collect();
    let merged = merge_indexed(per_shard, |o| o.point.index).unwrap();
    assert_eq!(merged.len(), 1);
}

#[test]
fn invalid_shards_are_rejected_naming_the_field() {
    let err = Shard::new(0, 0).unwrap_err().to_string();
    assert!(err.contains("shard.count"), "{err}");
    let err = Shard::new(7, 7).unwrap_err().to_string();
    assert!(err.contains("shard.index"), "{err}");
    assert!(multi_axis_spec().shard_of(2, 2).is_err());
    assert!(multi_axis_spec().shard(0).is_err());
}
