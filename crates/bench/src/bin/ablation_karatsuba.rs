//! Ablation ABL4: Karatsuba construction knobs — the schoolbook cutoff (the
//! one calibrated parameter: its default of 512 puts the runtime crossover
//! near 4,096 bits, which the `karatsuba-crossover` claim of `text_claims`
//! checks) and the Bennett clean-up sweep versus a dirty workspace.
//!
//! ```text
//! cargo run -p qre-bench --bin ablation_karatsuba --release
//! ```

use qre_arith::{
    multiplication_counts_with, KaratsubaConfig, MulAlgorithm, MulWorkloadConfig, WindowedConfig,
};
use qre_bench::estimate_counts;
use qre_core::{format_duration_ns, group_digits, PhysicalQubit, QecSchemeKind};
use std::io::Write as _;

fn main() {
    let qubit = PhysicalQubit::qubit_maj_ns_e4();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "ABL4 — Karatsuba knobs on qubit_maj_ns_e4 (floquet, budget 1e-4)\n"
    );

    // Cutoff sweep at 4096 bits: where does Karatsuba beat schoolbook?
    let bits = 4096usize;
    let school =
        multiplication_counts_with(MulAlgorithm::Schoolbook, bits, MulWorkloadConfig::default());
    let school_est = estimate_counts(
        MulAlgorithm::Schoolbook,
        bits,
        school,
        &qubit,
        QecSchemeKind::FloquetCode,
        1e-4,
    )
    .unwrap();
    let _ = writeln!(
        out,
        "schoolbook @{bits}: runtime {}, qubits {}\n",
        format_duration_ns(school_est.result.physical_counts.runtime_ns),
        group_digits(school_est.result.physical_counts.physical_qubits)
    );
    let _ = writeln!(
        out,
        "{:>8} {:>9} {:>16} {:>12} {:>18}",
        "cutoff", "bennett", "phys. qubits", "runtime", "vs schoolbook"
    );
    let _ = writeln!(out, "{}", "-".repeat(68));
    for cutoff in [128usize, 256, 512, 1024] {
        for bennett in [true, false] {
            let cfg = MulWorkloadConfig {
                karatsuba: KaratsubaConfig { cutoff, bennett },
                windowed: WindowedConfig::default(),
            };
            let counts = multiplication_counts_with(MulAlgorithm::Karatsuba, bits, cfg);
            let r = estimate_counts(
                MulAlgorithm::Karatsuba,
                bits,
                counts,
                &qubit,
                QecSchemeKind::FloquetCode,
                1e-4,
            )
            .unwrap();
            let ratio =
                r.result.physical_counts.runtime_ns / school_est.result.physical_counts.runtime_ns;
            let _ = writeln!(
                out,
                "{:>8} {:>9} {:>16} {:>12} {:>17.2}x",
                cutoff,
                bennett,
                group_digits(r.result.physical_counts.physical_qubits),
                format_duration_ns(r.result.physical_counts.runtime_ns),
                ratio,
            );
        }
    }
    let _ = writeln!(
        out,
        "\nSmaller cutoffs push the gate crossover earlier but inflate the dirty\n\
         workspace; the default (512, Bennett) matches the crossover regime the\n\
         paper's Q# implementation exhibits while keeping ancillas recoverable."
    );
}
