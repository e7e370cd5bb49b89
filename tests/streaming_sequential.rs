//! `QRE_THREADS=1` must degrade every streamed path to an in-order
//! sequential pass — same results, deterministic delivery order.
//!
//! This file holds the single test that sets the environment variable, so
//! no sibling test in the same process can race on it (other test binaries
//! are separate processes and unaffected).

use qre::circuit::LogicalCounts;
use qre::estimator::{Estimator, HardwareProfile, SweepSpec};

#[test]
fn qre_threads_1_degrades_to_in_order_sequential_delivery() {
    std::env::set_var("QRE_THREADS", "1");
    assert_eq!(qre_par::max_threads(), 1);

    // The streaming core delivers in input order.
    let items: Vec<u64> = (0..64).collect();
    let mut order = Vec::new();
    qre_par::parallel_map_streamed_until(
        items.len(),
        |i| items[i] * 2,
        |i, r| {
            order.push((i, r));
            std::ops::ControlFlow::Continue(())
        },
    );
    let expected: Vec<(usize, u64)> = (0..64).map(|i| (i as usize, i * 2)).collect();
    assert_eq!(order, expected);

    // The engine's streamed sweep delivers in expansion order.
    let spec = SweepSpec::new()
        .workload(
            "w",
            LogicalCounts {
                num_qubits: 20,
                t_count: 2_000,
                measurement_count: 500,
                ..Default::default()
            },
        )
        .profiles(HardwareProfile::default_profiles())
        .total_error_budget(1e-3);
    let engine = Estimator::new();
    let mut indices = Vec::new();
    let total = engine
        .sweep_with(&spec, |o| indices.push(o.point.index))
        .unwrap();
    assert_eq!(indices, (0..total).collect::<Vec<_>>());
}
