//! Streamed sweep execution: outcomes arrive **as workers finish**, so the
//! first result prints long before the slowest profile completes — the shape
//! the paper's Fig. 3/4-scale sweeps want in an interactive session.
//!
//! Two consumption styles over the same engine core, both on the calling
//! thread:
//!
//! * an observer callback ([`Estimator::sweep_with`]) driving a progress
//!   counter,
//! * an observer that stops the sweep early ([`Estimator::sweep_until`]):
//!   its map condenses each outcome on the worker that estimated it, and
//!   once the observer returns [`ControlFlow::Break`], no further item
//!   starts.
//!
//! ```text
//! cargo run --example streaming_sweep --release
//! ```

use std::ops::ControlFlow;

use qre::arith::{multiplication_counts, MulAlgorithm};
use qre::estimator::{
    format_duration_ns, group_digits, Estimator, HardwareProfile, SweepOutcome, SweepSpec,
};

fn outcome_line(o: &SweepOutcome) -> String {
    match &o.outcome {
        Ok(r) => format!(
            "  [{}] {:<18} {:<13} {:>16} qubits {:>12}",
            o.point.index,
            o.point.profile,
            o.point.scheme,
            group_digits(r.physical_counts.physical_qubits),
            format_duration_ns(r.physical_counts.runtime_ns),
        ),
        Err(e) => format!("  [{}] {:<18} error: {e}", o.point.index, o.point.profile),
    }
}

fn main() {
    // The Figure 4 shape: one workload across the six default profiles.
    let spec = SweepSpec::new()
        .workload(
            "windowed/2048",
            multiplication_counts(MulAlgorithm::Windowed, 2048),
        )
        .profiles(HardwareProfile::default_profiles())
        .total_error_budget(1e-4);

    let engine = Estimator::new();

    // Style 1: observer callback, completion order, progress inline.
    println!("sweep_with (observer callback, completion order):");
    let mut done = 0usize;
    let total = engine
        .sweep_with(&spec, |o| {
            done += 1;
            println!("{}", outcome_line(&o));
            println!("  progress: {done}/{}", spec.len());
        })
        .expect("axes are non-empty");
    assert_eq!(done, total);

    // Style 2: early stop — a consumer that wants only the first three
    // outcomes (or has hung up) breaks: no further item starts, and the
    // outcomes of items already running are dropped. The map runs on the
    // workers, so each outcome's line is formatted in parallel and only
    // the line crosses to this thread. The warm cache makes this pass
    // near-instant.
    println!("\nsweep_until (first three outcomes, warm cache):");
    let mut taken = 0usize;
    engine
        .sweep_until(
            &spec,
            |o| outcome_line(&o),
            |line| {
                println!("{line}");
                taken += 1;
                if taken == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .expect("axes are non-empty");
    assert_eq!(taken, 3);

    let stats = engine.cache_stats();
    println!(
        "\nfactory cache: {} designs, {} hits, {} misses",
        stats.entries, stats.hits, stats.misses
    );
}
