//! `qre stress` — deterministic scale-test matrix generator.
//!
//! The paper's evaluation sweeps ~30 points; design-space studies at
//! service scale sweep thousands. This module synthesizes a reproducible
//! ~10k-point sweep matrix (workloads × the six default hardware profiles ×
//! error budgets) used by the perf gate (`bench_check`, recorded as
//! `BENCH_scale.json`), the `QRE_SOAK=1` equivalence soaks, and anyone
//! who wants to stress a live `qre serve` from the command line:
//!
//! ```text
//! qre stress --points 10000 | qre serve            # one 10080-item job
//! qre stress --points 10000 --shards 8             # 8 shard job lines
//! qre stress --points 10000 --stream > job.json    # one-shot streamed job
//! ```
//!
//! Determinism is load-bearing: the matrix is a pure function of the
//! requested point count (workload counts come from a fixed-seed
//! splitmix64 generator), so shard outputs produced by different processes
//! — or different machines — merge against each other, and a bench rerun
//! measures the same work. The in-process [`stress_spec`] and the NDJSON
//! job lines of [`stress_job_line`] expand to item-for-item identical
//! sweeps: the JSON round trip preserves every count and budget exactly
//! (budgets print with shortest-round-trip `f64` formatting, workload
//! labels use the same `logicalCounts[i]` naming the sweep parser assigns).

use std::io::Write;

use qre_circuit::LogicalCounts;
use qre_core::{ErrorBudget, PhysicalQubit, SweepSpec};
use qre_json::{ObjectBuilder, Value};

/// Error-budget axis length of the stress matrix.
const BUDGET_AXIS: usize = 14;

/// The six default hardware profiles form the profile axis.
const PROFILE_AXIS: usize = 6;

/// Fixed seed for the workload generator: the matrix is a pure function of
/// the point count.
const STRESS_SEED: u64 = 0x51e5_50a4_2023;

/// splitmix64: tiny, well-distributed, dependency-free deterministic
/// generator (the classic Steele–Lea–Flood construction).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A value in `lo..=hi`, log-uniform-ish over the range.
fn in_range(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo + 1)
}

/// Shape of a stress matrix: the axis lengths whose product is the sweep's
/// item count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressShape {
    /// Synthesized workloads (outermost axis).
    pub workloads: usize,
    /// Hardware profiles (always the six defaults).
    pub profiles: usize,
    /// Error budgets (innermost non-trivial axis).
    pub budgets: usize,
}

impl StressShape {
    /// Smallest matrix of the fixed profile/budget axes with at least
    /// `points` items (`points` is clamped to at least one full workload
    /// row, i.e. 84 items).
    pub fn covering(points: usize) -> StressShape {
        let row = PROFILE_AXIS * BUDGET_AXIS;
        StressShape {
            workloads: points.div_ceil(row).max(1),
            profiles: PROFILE_AXIS,
            budgets: BUDGET_AXIS,
        }
    }

    /// Total sweep items the matrix expands to.
    pub fn len(&self) -> usize {
        self.workloads * self.profiles * self.budgets
    }

    /// `true` when the matrix has no items (never produced by
    /// [`StressShape::covering`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The deterministic workload list of the matrix covering `points`.
fn stress_workloads(shape: StressShape) -> Vec<LogicalCounts> {
    let mut state = STRESS_SEED;
    (0..shape.workloads)
        .map(|_| {
            let num_qubits = in_range(&mut state, 40, 4_000);
            let t_count = in_range(&mut state, 10_000, 1_000_000);
            let ccz_count = in_range(&mut state, 0, 100_000);
            let measurement_count = in_range(&mut state, 0, 500_000);
            LogicalCounts {
                num_qubits,
                t_count,
                rotation_count: 0,
                rotation_depth: 0,
                ccz_count,
                ccix_count: 0,
                measurement_count,
            }
        })
        .collect()
}

/// The deterministic error-budget axis: `BUDGET_AXIS` totals log-spaced
/// over `1e-5..=1e-2`, largest first.
fn stress_budgets() -> Vec<f64> {
    (0..BUDGET_AXIS)
        .map(|j| 1e-2 * 10f64.powf(-3.0 * j as f64 / (BUDGET_AXIS - 1) as f64))
        .collect()
}

/// The in-process stress sweep covering at least `points` items: the same
/// expansion the job lines of [`stress_job_line`] parse to.
pub fn stress_spec(points: usize) -> SweepSpec {
    let shape = StressShape::covering(points);
    let mut spec = SweepSpec::new().profiles(PhysicalQubit::default_profiles());
    for (i, counts) in stress_workloads(shape).into_iter().enumerate() {
        // The label the sweep parser assigns to a logical-counts algorithm
        // entry, so JSON-submitted and in-process matrices expand to
        // byte-identical item records.
        spec = spec.workload(format!("logicalCounts[{i}]"), counts);
    }
    for total in stress_budgets() {
        spec = spec.budget(ErrorBudget::from_total(total).expect("stress budgets are valid"));
    }
    spec
}

/// The `"sweep"` object of the stress matrix as JSON (the submission body
/// shared by every job line).
fn stress_sweep_json(shape: StressShape) -> Value {
    let algorithms: Vec<Value> = stress_workloads(shape)
        .iter()
        .map(|counts| {
            ObjectBuilder::new()
                .field("logicalCounts", counts.to_json())
                .build()
        })
        .collect();
    let budgets: Vec<Value> = stress_budgets().into_iter().map(Value::from).collect();
    ObjectBuilder::new()
        .field("algorithms", Value::Array(algorithms))
        .field("errorBudgets", Value::Array(budgets))
        .build()
}

/// One NDJSON job line of the stress matrix covering `points` items.
///
/// With `shard: Some((i, n))` the line carries the serve envelope —
/// `"id": "stress-i"` and `"shard": {"index": i, "count": n}` — and is
/// only meaningful as `qre serve` input. Without a shard the line is a
/// plain `{"sweep": ...}` submission, valid both as a serve job line and
/// as a one-shot `qre` job document. `stream` adds `"stream": true`
/// (one-shot NDJSON delivery; serve output is always per-item NDJSON).
pub fn stress_job_line(points: usize, shard: Option<(usize, usize)>, stream: bool) -> String {
    let shape = StressShape::covering(points);
    let mut b = ObjectBuilder::new();
    if let Some((index, count)) = shard {
        b = b.field("id", format!("stress-{index}")).field(
            "shard",
            ObjectBuilder::new()
                .field("index", index as u64)
                .field("count", count as u64)
                .build(),
        );
    }
    if stream {
        b = b.field("stream", true);
    }
    b.field("sweep", stress_sweep_json(shape))
        .build()
        .to_string_compact()
}

/// What `qre stress` generated, for the stderr summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StressSummary {
    /// The matrix shape.
    pub shape: StressShape,
    /// Job lines written (1, or the shard count).
    pub lines: usize,
}

/// Write the stress matrix covering `points` as NDJSON job lines: one
/// unsharded line, or `shards` shard-enveloped lines (see
/// [`stress_job_line`]).
pub fn write_stress_jobs(
    points: usize,
    shards: Option<usize>,
    stream: bool,
    out: &mut dyn Write,
) -> Result<StressSummary, String> {
    let shape = StressShape::covering(points);
    let write_err = |e: std::io::Error| format!("failed to write stress jobs: {e}");
    let lines = match shards {
        None => {
            writeln!(out, "{}", stress_job_line(points, None, stream)).map_err(write_err)?;
            1
        }
        Some(count) => {
            if count == 0 {
                return Err("`--shards` must be at least 1".into());
            }
            for index in 0..count {
                writeln!(
                    out,
                    "{}",
                    stress_job_line(points, Some((index, count)), stream)
                )
                .map_err(write_err)?;
            }
            count
        }
    };
    out.flush().map_err(write_err)?;
    Ok(StressSummary { shape, lines })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_covers_the_requested_points() {
        let shape = StressShape::covering(10_000);
        assert_eq!(
            shape.len(),
            10_080,
            "120 workloads x 6 profiles x 14 budgets"
        );
        assert!(shape.len() >= 10_000);
        assert_eq!(StressShape::covering(1).len(), 84, "one workload row");
        assert_eq!(stress_spec(10_000).total_len(), 10_080);
    }

    #[test]
    fn matrix_is_deterministic() {
        assert_eq!(
            stress_job_line(500, None, false),
            stress_job_line(500, None, false)
        );
        let a = stress_workloads(StressShape::covering(500));
        let b = stress_workloads(StressShape::covering(500));
        assert_eq!(a, b);
        // Workloads are distinct (the whole point: distinct cache keys).
        assert!(a.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn json_round_trip_matches_in_process_spec() {
        // The job line must parse to the same expansion stress_spec builds:
        // same length, same workloads/labels/budgets on sampled points.
        let line = stress_job_line(200, None, false);
        let submission = crate::parse_submission(&line).unwrap();
        let crate::SubmissionKind::Sweep(parsed) = &submission.kind else {
            panic!("stress line must parse as a sweep");
        };
        let direct = stress_spec(200);
        assert_eq!(parsed.total_len(), direct.total_len());
        assert_eq!(parsed.workloads, direct.workloads, "labels and counts");
        assert_eq!(parsed.profiles, direct.profiles);
        assert_eq!(parsed.budgets, direct.budgets, "budget values round-trip");
        assert_eq!(parsed.schemes.len(), direct.schemes.len());
        assert_eq!(parsed.constraints.len(), direct.constraints.len());
    }

    #[test]
    fn sharded_lines_carry_the_envelope() {
        let mut out = Vec::new();
        let summary = write_stress_jobs(200, Some(3), false, &mut out).unwrap();
        assert_eq!(summary.lines, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let doc = qre_json::parse(line).unwrap();
            assert_eq!(
                doc.get("id").unwrap().as_str(),
                Some(format!("stress-{i}").as_str())
            );
            let shard = doc.get("shard").unwrap();
            assert_eq!(shard.get("index").unwrap().as_u64(), Some(i as u64));
            assert_eq!(shard.get("count").unwrap().as_u64(), Some(3));
        }
        assert!(write_stress_jobs(200, Some(0), false, &mut Vec::new()).is_err());
    }
}
