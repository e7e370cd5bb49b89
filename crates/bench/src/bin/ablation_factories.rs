//! Ablation ABL2: the T-factory constraint trade-off of Section IV-C.4.
//!
//! Sweeps `maxTFactories` and the logical-cycle slowdown for the windowed
//! 2048-bit workload, printing the qubit/runtime frontier the constraints
//! navigate.
//!
//! ```text
//! cargo run -p qre-bench --bin ablation_factories --release
//! ```

use qre_arith::{multiplication_counts, MulAlgorithm};
use qre_core::{
    format_duration_ns, group_digits, Constraints, ErrorBudget, EstimateRequest, Estimator,
    PhysicalQubit, QecScheme, TFactoryBuilder,
};
use std::io::Write as _;

fn main() {
    let counts = multiplication_counts(MulAlgorithm::Windowed, 2048);
    let base = EstimateRequest {
        counts,
        qubit: PhysicalQubit::qubit_maj_ns_e4(),
        scheme: QecScheme::floquet_code(),
        budget: ErrorBudget::from_total(1e-4).unwrap(),
        constraints: Constraints::default(),
        factory_builder: TFactoryBuilder::default(),
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "ABL2 — T-factory constraints for windowed 2048-bit multiplication (maj_ns_e4)\n"
    );

    let _ = writeln!(out, "Frontier (maxTFactories sweep):");
    let _ = writeln!(
        out,
        "{:>10} {:>16} {:>12} {:>20}",
        "factories", "phys. qubits", "runtime", "qubit-seconds"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    let engine = Estimator::new();
    let frontier = engine.frontier(&base).expect("frontier");
    for p in &frontier {
        let pc = &p.result.physical_counts;
        let _ = writeln!(
            out,
            "{:>10} {:>16} {:>12} {:>20.3e}",
            p.result.breakdown.num_t_factories,
            group_digits(pc.physical_qubits),
            format_duration_ns(pc.runtime_ns),
            pc.physical_qubits as f64 * pc.runtime_ns / 1e9,
        );
    }

    let _ = writeln!(out, "\nLogical-cycle slowdown sweep (logicalDepthFactor):");
    let _ = writeln!(
        out,
        "{:>8} {:>16} {:>12} {:>11} {:>4}",
        "factor", "phys. qubits", "runtime", "factories", "d"
    );
    let _ = writeln!(out, "{}", "-".repeat(56));
    for factor in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let request = EstimateRequest {
            constraints: Constraints {
                logical_depth_factor: Some(factor),
                ..Constraints::default()
            },
            ..base.clone()
        };
        match engine.estimate(&request) {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:>8.1} {:>16} {:>12} {:>11} {:>4}",
                    factor,
                    group_digits(r.physical_counts.physical_qubits),
                    format_duration_ns(r.physical_counts.runtime_ns),
                    r.breakdown.num_t_factories,
                    r.logical_qubit.code_distance,
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{factor:>8.1} infeasible: {e}");
            }
        }
    }
    let _ = writeln!(
        out,
        "\nSlowing the program trades factory copies for runtime exactly as Section\n\
         IV-C.4 describes; past a point the extra cycles force a larger code distance\n\
         and the trade turns against the user."
    );
}
