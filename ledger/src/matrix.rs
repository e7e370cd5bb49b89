//! The seeded sweep matrix shared by `sweep_cold`, `pipe_warm` and
//! `served_requery`: distinct logical-count workloads × the six default
//! hardware profiles × fourteen log-spaced error budgets, in the value
//! ranges of `qre stress`.

use qre_circuit::LogicalCounts;
use qre_core::{ErrorBudget, PhysicalQubit, SweepSpec};
use qre_json::{ObjectBuilder, Value};

/// Workload rows of the matrix; each row is 6 × 14 = 84 items.
pub const ROWS: usize = 24;
/// Error budgets per row, log-spaced over `1e-2 ..= 1e-5`.
pub const BUDGETS: usize = 14;
/// Items in one workload row.
pub const ROW_ITEMS: usize = 6 * BUDGETS;

/// splitmix64 (Steele, Lea and Flood): the benchmark's input generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn in_range(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + splitmix64(state) % (hi - lo + 1)
}

/// One seed's matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    pub workloads: Vec<LogicalCounts>,
    pub budgets: Vec<f64>,
}

impl Matrix {
    pub fn generate(seed: u64) -> Matrix {
        let mut state = seed ^ 0x1ed6_e125_eed5_2023;
        let workloads = (0..ROWS)
            .map(|_| LogicalCounts {
                num_qubits: in_range(&mut state, 40, 4_000),
                t_count: in_range(&mut state, 10_000, 1_000_000),
                rotation_count: 0,
                rotation_depth: 0,
                ccz_count: in_range(&mut state, 0, 100_000),
                ccix_count: 0,
                measurement_count: in_range(&mut state, 0, 500_000),
            })
            .collect();
        let budgets = (0..BUDGETS)
            .map(|j| 1e-2 * 10f64.powf(-3.0 * j as f64 / (BUDGETS - 1) as f64))
            .collect();
        Matrix { workloads, budgets }
    }

    pub fn len(&self) -> usize {
        self.workloads.len() * ROW_ITEMS
    }

    /// The in-process sweep. Workload labels are the ones the sweep parser
    /// assigns, so it expands to the same items as [`Matrix::job_line`].
    pub fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::new().profiles(PhysicalQubit::default_profiles());
        for (i, counts) in self.workloads.iter().enumerate() {
            spec = spec.workload(format!("logicalCounts[{i}]"), *counts);
        }
        for &total in &self.budgets {
            spec = spec.budget(ErrorBudget::from_total(total).expect("matrix budgets are valid"));
        }
        spec
    }

    /// Shard `index` of `count` of the in-process sweep.
    pub fn shard_spec(&self, index: usize, count: usize) -> SweepSpec {
        self.spec()
            .shard_of(index, count)
            .expect("shard index is in range")
    }

    /// A serve job line for shard `index` of `count` of the matrix. Shards
    /// keep global item indices, so records of any split compare by index.
    pub fn job_line(&self, index: usize, count: usize) -> String {
        let algorithms: Vec<Value> = self
            .workloads
            .iter()
            .map(|c| {
                ObjectBuilder::new()
                    .field("logicalCounts", c.to_json())
                    .build()
            })
            .collect();
        let budgets: Vec<Value> = self.budgets.iter().map(|&b| Value::from(b)).collect();
        ObjectBuilder::new()
            .field("id", index as u64)
            .field(
                "shard",
                ObjectBuilder::new()
                    .field("index", index as u64)
                    .field("count", count as u64)
                    .build(),
            )
            .field(
                "sweep",
                ObjectBuilder::new()
                    .field("algorithms", Value::Array(algorithms))
                    .field("errorBudgets", Value::Array(budgets))
                    .build(),
            )
            .build()
            .to_string_compact()
    }

    /// The matrix as `count` shard job lines.
    pub fn job_lines(&self, count: usize) -> Vec<String> {
        (0..count).map(|i| self.job_line(i, count)).collect()
    }
}
