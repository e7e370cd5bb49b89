//! # qre-bench
//!
//! The harness that regenerates every experiment of the paper's evaluation
//! (Section V):
//!
//! * **Figure 3** ([`fig3_series`]): physical qubits and runtime for the
//!   three multiplication algorithms at input sizes 32 … 16 384 bits, on the
//!   `qubit_maj_ns_e4` profile with the floquet code and a total error
//!   budget of 10⁻⁴,
//! * **Figure 4** ([`fig4_series`]): the same three algorithms at 2 048 bits
//!   across all six default hardware profiles (surface code for gate-based,
//!   floquet code for Majorana),
//! * **In-text claims** ([`text_claims`]): the Section V numbers (logical
//!   qubits, logical operations, runtime and rQOPS ranges, code distances)
//!   with measured values side by side.
//!
//! Every series runs through one [`Estimator`] engine: the sweep axes are
//! declared as a [`SweepSpec`], the engine expands and executes them in
//! parallel, and the shared T-factory cache amortizes the distillation
//! search across items (and across repeated series on a reused engine).

#![deny(missing_docs)]
#![warn(clippy::all)]

use qre_arith::{multiplication_counts, MulAlgorithm};
use qre_circuit::LogicalCounts;
use qre_core::{
    format_duration_ns, format_sci, group_digits, EstimationResult, Estimator, PhysicalQubit,
    QecSchemeKind, SweepSpec,
};
use std::fmt::Write as _;

/// The paper's total error budget for both figures.
pub const PAPER_ERROR_BUDGET: f64 = 1e-4;

/// Figure 3 input sizes: 32 … 16 384 bits in powers of two.
pub const FIG3_SIZES: [usize; 10] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// One evaluated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Which multiplication algorithm.
    pub algorithm: MulAlgorithm,
    /// Operand width in bits.
    pub bits: usize,
    /// Hardware profile name.
    pub profile: String,
    /// QEC scheme name.
    pub scheme: String,
    /// Pre-layout counts of the workload.
    pub counts: LogicalCounts,
    /// The full physical estimate.
    pub result: EstimationResult,
}

impl ScenarioResult {
    /// Logical operations = logical qubits × executed cycles (the quantity
    /// behind the paper's "1.12 × 10¹¹ logical quantum operations").
    pub fn logical_operations(&self) -> f64 {
        self.result.breakdown.algorithmic_logical_qubits as f64
            * self.result.breakdown.num_cycles as f64
    }
}

/// Estimate one multiplication scenario through a transient engine.
pub fn estimate_multiplication(
    algorithm: MulAlgorithm,
    bits: usize,
    qubit: &PhysicalQubit,
    kind: QecSchemeKind,
    total_budget: f64,
) -> qre_core::Result<ScenarioResult> {
    let counts = multiplication_counts(algorithm, bits);
    let spec = SweepSpec::new()
        .workload(format!("{}/{bits}", algorithm.name()), counts)
        .profile(qubit.clone())
        .qec(kind)
        .total_error_budget(total_budget);
    let outcome = Estimator::new()
        .sweep(&spec)?
        .pop()
        .expect("singleton sweep yields one outcome");
    let result = outcome.outcome?;
    Ok(ScenarioResult {
        algorithm,
        bits,
        profile: qubit.name.clone(),
        scheme: result.qec_scheme.name.clone(),
        counts,
        result,
    })
}

/// Figure 3: the full (algorithm × size) sweep on `qubit_maj_ns_e4` with the
/// floquet code at a 10⁻⁴ budget, as one engine sweep.
pub fn fig3_series() -> Vec<ScenarioResult> {
    let combos: Vec<(MulAlgorithm, usize)> = MulAlgorithm::ALL
        .iter()
        .flat_map(|&alg| FIG3_SIZES.iter().map(move |&n| (alg, n)))
        .collect();
    // Circuit generation dominates the large sizes; run it in parallel
    // before declaring the estimation sweep.
    let counts = qre_par::parallel_map(&combos, |&(alg, bits)| multiplication_counts(alg, bits));
    let spec = SweepSpec::new()
        .workloads(
            combos
                .iter()
                .zip(&counts)
                .map(|(&(alg, bits), c)| (format!("{}/{bits}", alg.name()), *c)),
        )
        .profile(PhysicalQubit::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(PAPER_ERROR_BUDGET);
    let outcomes = Estimator::new()
        .sweep(&spec)
        .unwrap_or_else(|e| panic!("fig3 sweep: {e}"));
    combos
        .into_iter()
        .zip(counts)
        .zip(outcomes)
        .map(|(((alg, bits), c), o)| ScenarioResult {
            algorithm: alg,
            bits,
            profile: o.point.profile.clone(),
            scheme: o
                .outcome
                .as_ref()
                .map(|r| r.qec_scheme.name.clone())
                .unwrap_or_else(|_| o.point.scheme.clone()),
            counts: c,
            result: o
                .outcome
                .unwrap_or_else(|e| panic!("fig3 {alg} n={bits}: {e}")),
        })
        .collect()
}

/// Figure 4: the (algorithm × profile) sweep at 2 048 bits, as one engine
/// sweep over the workload and profile axes (profile-default QEC pairing).
pub fn fig4_series() -> Vec<ScenarioResult> {
    // Compute each algorithm's counts once; six profiles share them.
    let algs = MulAlgorithm::ALL;
    let counts: Vec<LogicalCounts> =
        qre_par::parallel_map(&algs, |&alg| multiplication_counts(alg, 2048));
    let profiles = PhysicalQubit::default_profiles();
    let num_profiles = profiles.len();
    let spec = SweepSpec::new()
        .workloads(
            algs.iter()
                .zip(&counts)
                .map(|(alg, c)| (format!("{}/2048", alg.name()), *c)),
        )
        .profiles(profiles)
        .total_error_budget(PAPER_ERROR_BUDGET);
    let outcomes = Estimator::new()
        .sweep(&spec)
        .unwrap_or_else(|e| panic!("fig4 sweep: {e}"));
    // Row-major expansion: workloads outermost, profiles inner.
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, o)| {
            let alg = algs[i / num_profiles];
            ScenarioResult {
                algorithm: alg,
                bits: 2048,
                profile: o.point.profile.clone(),
                scheme: o
                    .outcome
                    .as_ref()
                    .map(|r| r.qec_scheme.name.clone())
                    .unwrap_or_else(|_| o.point.scheme.clone()),
                counts: counts[i / num_profiles],
                result: o
                    .outcome
                    .unwrap_or_else(|e| panic!("fig4 {alg} on {}: {e}", o.point.profile)),
            }
        })
        .collect()
}

/// Render a series as an aligned text table (one row per scenario).
pub fn format_table(rows: &[ScenarioResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:<18} {:<13} {:>5} {:>16} {:>12} {:>12} {:>10}",
        "algorithm",
        "bits",
        "profile",
        "scheme",
        "d",
        "phys. qubits",
        "runtime",
        "logical ops",
        "rQOPS"
    );
    let _ = writeln!(out, "{}", "-".repeat(112));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:<18} {:<13} {:>5} {:>16} {:>12} {:>12} {:>10}",
            r.algorithm.name(),
            r.bits,
            r.profile,
            r.scheme,
            r.result.logical_qubit.code_distance,
            group_digits(r.result.physical_counts.physical_qubits),
            format_duration_ns(r.result.physical_counts.runtime_ns),
            format_sci(r.logical_operations()),
            format_sci(r.result.physical_counts.rqops),
        );
    }
    out
}

/// Render a series as CSV (for plotting).
pub fn to_csv(rows: &[ScenarioResult]) -> String {
    let mut out = String::from(
        "algorithm,bits,profile,scheme,code_distance,physical_qubits,runtime_ns,runtime_s,\
         logical_qubits,logical_depth,t_states,t_factories,logical_ops,rqops\n",
    );
    for r in rows {
        let b = &r.result.breakdown;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.algorithm.name(),
            r.bits,
            r.profile,
            r.scheme,
            r.result.logical_qubit.code_distance,
            r.result.physical_counts.physical_qubits,
            r.result.physical_counts.runtime_ns,
            r.result.physical_counts.runtime_ns / 1e9,
            b.algorithmic_logical_qubits,
            b.num_cycles,
            b.num_t_states,
            b.num_t_factories,
            r.logical_operations(),
            r.result.physical_counts.rqops,
        );
    }
    out
}

/// A paper-claim check: claim id, paper value, measured value, pass note.
#[derive(Debug, Clone)]
pub struct ClaimCheck {
    /// Short identifier.
    pub id: &'static str,
    /// What the paper states.
    pub paper: String,
    /// What this reproduction measures.
    pub measured: String,
    /// Whether the measured value matches the claim's shape.
    pub ok: bool,
}

/// Evaluate the eight Section V in-text claims against a freshly computed
/// Figure 3/4 sweep (`tests/paper_claims.rs` asserts every one).
pub fn text_claims(fig3: &[ScenarioResult], fig4: &[ScenarioResult]) -> Vec<ClaimCheck> {
    let mut checks = Vec::new();
    let windowed_2048_maj = fig3
        .iter()
        .find(|r| r.algorithm == MulAlgorithm::Windowed && r.bits == 2048)
        .expect("fig3 contains windowed/2048");

    // Claim 1: ≈ 20,597 logical qubits for windowed multiplication at 2048.
    let lq = windowed_2048_maj
        .result
        .breakdown
        .algorithmic_logical_qubits;
    checks.push(ClaimCheck {
        id: "logical-qubits-2048",
        paper: "windowed @2048: 20,597 logical qubits".into(),
        measured: format!("{} logical qubits", group_digits(lq)),
        ok: (19_000..=22_500).contains(&lq),
    });

    // Claim 2: ≈ 1.12e11 logical operations.
    let ops = windowed_2048_maj.logical_operations();
    checks.push(ClaimCheck {
        id: "logical-ops-2048",
        paper: "windowed @2048: 1.12e11 logical operations".into(),
        measured: format_sci(ops),
        ok: (0.5e11..=2.0e11).contains(&ops),
    });

    // Claim 3: code distance 15 at 2048 bits (maj_ns_e4 + floquet).
    let d = windowed_2048_maj.result.logical_qubit.code_distance;
    checks.push(ClaimCheck {
        id: "code-distance-2048",
        paper: "distance-15 code at 2048 bits".into(),
        measured: format!("distance {d}"),
        ok: d == 15,
    });

    // Claim 4: Figure 3 distances run from 9 (32 bits) to 17 (16384 bits).
    // Both ends range over schoolbook and windowed; Karatsuba's deeper
    // programs sit one step higher at both ends and are reported beside.
    let distances = |bits: usize, karatsuba: bool| {
        fig3.iter()
            .filter(move |r| {
                r.bits == bits && (r.algorithm == MulAlgorithm::Karatsuba) == karatsuba
            })
            .map(|r| r.result.logical_qubit.code_distance)
    };
    let d32 = distances(32, false).min().unwrap();
    let d16384 = distances(16384, false).max().unwrap();
    let k32 = distances(32, true).min().unwrap();
    let k16384 = distances(16384, true).max().unwrap();
    checks.push(ClaimCheck {
        id: "distance-staircase",
        paper: "code distance 9 at 32 bits up to 17 at 16,384 bits".into(),
        measured: format!(
            "{d32} at 32 bits up to {d16384} at 16,384 bits (Karatsuba {k32} … {k16384})"
        ),
        ok: d32 == 9 && d16384 == 17,
    });

    // Claim 5: windowed @2048 runtime spans ~12 s … 9e4 s across profiles.
    let windowed_4: Vec<&ScenarioResult> = fig4
        .iter()
        .filter(|r| r.algorithm == MulAlgorithm::Windowed)
        .collect();
    let fastest = windowed_4
        .iter()
        .map(|r| r.result.physical_counts.runtime_ns)
        .fold(f64::INFINITY, f64::min)
        / 1e9;
    let slowest = windowed_4
        .iter()
        .map(|r| r.result.physical_counts.runtime_ns)
        .fold(0.0f64, f64::max)
        / 1e9;
    checks.push(ClaimCheck {
        id: "runtime-range",
        paper: "windowed @2048 runtime between 12 s and 9e4 s across profiles".into(),
        measured: format!("{fastest:.1} s … {slowest:.2e} s"),
        ok: (4.0..=40.0).contains(&fastest) && (3e4..=3e5).contains(&slowest),
    });

    // Claim 6: rQOPS span ~1.37e6 … 9.1e9.
    let min_rqops = windowed_4
        .iter()
        .map(|r| r.result.physical_counts.rqops)
        .fold(f64::INFINITY, f64::min);
    let max_rqops = windowed_4
        .iter()
        .map(|r| r.result.physical_counts.rqops)
        .fold(0.0f64, f64::max);
    checks.push(ClaimCheck {
        id: "rqops-range",
        paper: "windowed @2048 computes at 1.37e6 … 9.1e9 rQOPS".into(),
        measured: format!("{} … {}", format_sci(min_rqops), format_sci(max_rqops)),
        ok: (4e5..=5e6).contains(&min_rqops) && (3e9..=3e10).contains(&max_rqops),
    });

    // Claim 7: Karatsuba uses more physical qubits than the other two.
    let karatsuba_dominates = FIG3_SIZES.iter().all(|&n| {
        let q = |alg: MulAlgorithm| {
            fig3.iter()
                .find(|r| r.algorithm == alg && r.bits == n)
                .unwrap()
                .result
                .physical_counts
                .physical_qubits
        };
        q(MulAlgorithm::Karatsuba) >= q(MulAlgorithm::Schoolbook)
            && q(MulAlgorithm::Karatsuba) >= q(MulAlgorithm::Windowed)
    });
    checks.push(ClaimCheck {
        id: "karatsuba-qubits",
        paper: "Karatsuba requires more physical qubits than the other two".into(),
        measured: format!("Karatsuba max-qubits at every size: {karatsuba_dominates}"),
        ok: karatsuba_dominates,
    });

    // Claim 8: Karatsuba runtime crossover vs standard in the thousands of
    // bits; consistently faster by 16,384.
    let runtime = |alg: MulAlgorithm, n: usize| {
        fig3.iter()
            .find(|r| r.algorithm == alg && r.bits == n)
            .unwrap()
            .result
            .physical_counts
            .runtime_ns
    };
    let crossover = FIG3_SIZES
        .iter()
        .find(|&&n| runtime(MulAlgorithm::Karatsuba, n) < runtime(MulAlgorithm::Schoolbook, n))
        .copied();
    let wins_at_top =
        runtime(MulAlgorithm::Karatsuba, 16384) < runtime(MulAlgorithm::Schoolbook, 16384);
    checks.push(ClaimCheck {
        id: "karatsuba-crossover",
        paper: "runtime improvement over standard around 4096 bits; consistent by 16,384".into(),
        measured: format!(
            "first win at {} bits; faster at 16,384: {wins_at_top}",
            crossover.map_or("none".to_string(), |n| n.to_string())
        ),
        ok: matches!(crossover, Some(n) if (1024..=8192).contains(&n)) && wins_at_top,
    });

    checks
}

/// Format claim checks as a report table.
pub fn format_claims(checks: &[ClaimCheck]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:<66} {:<44} ok", "claim", "paper", "measured");
    let _ = writeln!(out, "{}", "-".repeat(136));
    for c in checks {
        let _ = writeln!(
            out,
            "{:<22} {:<66} {:<44} {}",
            c.id,
            c.paper,
            c.measured,
            if c.ok { "PASS" } else { "DEVIATION" }
        );
    }
    out
}

/// Write a string to the workspace's `target/experiments/` and return the
/// path.
///
/// Anchored at the workspace root (two levels above this crate) rather than
/// the current directory, so the binaries write to the one place CI's
/// artifact upload reads, whatever directory they run from.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    let dir = root.join("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_estimates() {
        let r = estimate_multiplication(
            MulAlgorithm::Windowed,
            128,
            &PhysicalQubit::qubit_maj_ns_e4(),
            QecSchemeKind::FloquetCode,
            PAPER_ERROR_BUDGET,
        )
        .unwrap();
        assert_eq!(r.bits, 128);
        assert!(r.result.physical_counts.physical_qubits > 0);
        assert!(r.logical_operations() > 0.0);
    }

    #[test]
    fn table_and_csv_render() {
        let rows = vec![estimate_multiplication(
            MulAlgorithm::Schoolbook,
            64,
            &PhysicalQubit::qubit_gate_ns_e3(),
            QecSchemeKind::SurfaceCode,
            1e-3,
        )
        .unwrap()];
        let table = format_table(&rows);
        assert!(table.contains("standard"));
        assert!(table.contains("qubit_gate_ns_e3"));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("standard,64,"));
    }
}
