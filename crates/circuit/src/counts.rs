//! Pre-layout logical resource counts — the estimator's algorithm-side input.
//!
//! This type realises the paper's Section IV-B.3 input path ("known logical
//! estimates"): a user may hand the estimator a bag of gate counts directly,
//! or obtain one from the circuit tracer or the QIR-lite front end. It also
//! provides the `AccountForEstimates`-style composition operations
//! ([`LogicalCounts::then`], [`LogicalCounts::alongside`],
//! [`LogicalCounts::repeat`]) for splicing hand-computed sub-circuit costs
//! into a larger program.

use qre_json::{ObjectBuilder, Value};

/// Pre-layout logical resource counts of an algorithm (paper Section III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogicalCounts {
    /// Number of logical qubits used by the algorithm (circuit width), before
    /// the planar-layout overhead is applied.
    pub num_qubits: u64,
    /// Number of explicit T / T† gates.
    pub t_count: u64,
    /// Number of arbitrary single-qubit rotation gates.
    pub rotation_count: u64,
    /// Number of non-Clifford layers containing at least one arbitrary
    /// rotation (paper Section III-B.2).
    pub rotation_depth: u64,
    /// Number of CCZ gates.
    pub ccz_count: u64,
    /// Number of CCiX (logical-AND) gates.
    pub ccix_count: u64,
    /// Number of single-qubit measurements.
    pub measurement_count: u64,
}

impl LogicalCounts {
    /// Start building counts field by field.
    pub fn builder() -> LogicalCountsBuilder {
        LogicalCountsBuilder::default()
    }

    /// Total Toffoli-like gates (CCZ + CCiX), the quantity the depth and
    /// T-state formulas consume.
    #[inline]
    pub fn toffoli_like(&self) -> u64 {
        self.ccz_count + self.ccix_count
    }

    /// Sequential composition: `self` followed by `other` on the same
    /// machine. Qubit demand is the maximum of the two; every count and the
    /// rotation depth add.
    #[must_use]
    pub fn then(&self, other: &LogicalCounts) -> LogicalCounts {
        LogicalCounts {
            num_qubits: self.num_qubits.max(other.num_qubits),
            t_count: self.t_count + other.t_count,
            rotation_count: self.rotation_count + other.rotation_count,
            rotation_depth: self.rotation_depth + other.rotation_depth,
            ccz_count: self.ccz_count + other.ccz_count,
            ccix_count: self.ccix_count + other.ccix_count,
            measurement_count: self.measurement_count + other.measurement_count,
        }
    }

    /// Parallel composition: `self` and `other` side by side on disjoint
    /// qubits. Qubit demands add; counts add; rotation depth is the maximum.
    #[must_use]
    pub fn alongside(&self, other: &LogicalCounts) -> LogicalCounts {
        LogicalCounts {
            num_qubits: self.num_qubits + other.num_qubits,
            t_count: self.t_count + other.t_count,
            rotation_count: self.rotation_count + other.rotation_count,
            rotation_depth: self.rotation_depth.max(other.rotation_depth),
            ccz_count: self.ccz_count + other.ccz_count,
            ccix_count: self.ccix_count + other.ccix_count,
            measurement_count: self.measurement_count + other.measurement_count,
        }
    }

    /// Sequential repetition `k` times.
    #[must_use]
    pub fn repeat(&self, k: u64) -> LogicalCounts {
        LogicalCounts {
            num_qubits: self.num_qubits,
            t_count: self.t_count * k,
            rotation_count: self.rotation_count * k,
            rotation_depth: self.rotation_depth * k,
            ccz_count: self.ccz_count * k,
            ccix_count: self.ccix_count * k,
            measurement_count: self.measurement_count * k,
        }
    }

    /// Render as the `preLayoutLogicalResources` JSON group (Section IV-D.5).
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("numQubits", self.num_qubits)
            .field("tCount", self.t_count)
            .field("rotationCount", self.rotation_count)
            .field("rotationDepth", self.rotation_depth)
            .field("cczCount", self.ccz_count)
            .field("ccixCount", self.ccix_count)
            .field("measurementCount", self.measurement_count)
            .build()
    }

    /// Parse from the JSON shape produced by [`LogicalCounts::to_json`].
    /// Absent fields default to zero, matching the service's tolerant input
    /// handling for the `LogicalCounts` job type.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        if v.as_object().is_none() {
            return Err("logical counts must be a JSON object".into());
        }
        let field = |name: &str| -> Result<u64, String> {
            match v.get(name) {
                None => Ok(0),
                Some(x) => x
                    .as_u64()
                    .ok_or_else(|| format!("field `{name}` must be a non-negative integer")),
            }
        };
        let counts = LogicalCounts {
            num_qubits: field("numQubits")?,
            t_count: field("tCount")?,
            rotation_count: field("rotationCount")?,
            rotation_depth: field("rotationDepth")?,
            ccz_count: field("cczCount")?,
            ccix_count: field("ccixCount")?,
            measurement_count: field("measurementCount")?,
        };
        if counts.num_qubits == 0 {
            return Err("`numQubits` must be positive".into());
        }
        if counts.rotation_count > 0 && counts.rotation_depth == 0 {
            return Err("`rotationDepth` must be positive when rotations are present".into());
        }
        if counts.rotation_depth > counts.rotation_count {
            return Err("`rotationDepth` cannot exceed `rotationCount`".into());
        }
        Ok(counts)
    }
}

/// Builder for [`LogicalCounts`] (the `AccountForEstimates` entry point).
#[derive(Debug, Default, Clone)]
pub struct LogicalCountsBuilder {
    counts: LogicalCounts,
}

impl LogicalCountsBuilder {
    /// Set the logical qubit count (pre-layout width).
    pub fn logical_qubits(mut self, n: u64) -> Self {
        self.counts.num_qubits = n;
        self
    }

    /// Set the number of T gates.
    pub fn t_gates(mut self, n: u64) -> Self {
        self.counts.t_count = n;
        self
    }

    /// Set the number of arbitrary rotations. Unless overridden by
    /// [`Self::rotation_depth`], the depth defaults to the count (fully
    /// sequential rotations), the conservative assumption AQRE applies to
    /// user-specified estimates.
    pub fn rotations(mut self, n: u64) -> Self {
        self.counts.rotation_count = n;
        if self.counts.rotation_depth == 0 {
            self.counts.rotation_depth = n;
        }
        self
    }

    /// Set the rotation depth explicitly.
    pub fn rotation_depth(mut self, n: u64) -> Self {
        self.counts.rotation_depth = n;
        self
    }

    /// Set the number of CCZ gates.
    pub fn ccz_gates(mut self, n: u64) -> Self {
        self.counts.ccz_count = n;
        self
    }

    /// Set the number of CCiX (logical-AND) gates.
    pub fn ccix_gates(mut self, n: u64) -> Self {
        self.counts.ccix_count = n;
        self
    }

    /// Set the number of single-qubit measurements.
    pub fn measurements(mut self, n: u64) -> Self {
        self.counts.measurement_count = n;
        self
    }

    /// Finish building.
    pub fn build(self) -> LogicalCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogicalCounts {
        LogicalCounts::builder()
            .logical_qubits(10)
            .t_gates(100)
            .rotations(8)
            .rotation_depth(4)
            .ccz_gates(20)
            .ccix_gates(5)
            .measurements(30)
            .build()
    }

    #[test]
    fn builder_sets_all_fields() {
        let c = sample();
        assert_eq!(c.num_qubits, 10);
        assert_eq!(c.t_count, 100);
        assert_eq!(c.rotation_count, 8);
        assert_eq!(c.rotation_depth, 4);
        assert_eq!(c.ccz_count, 20);
        assert_eq!(c.ccix_count, 5);
        assert_eq!(c.measurement_count, 30);
        assert_eq!(c.toffoli_like(), 25);
    }

    #[test]
    fn rotations_default_depth_to_count() {
        let c = LogicalCounts::builder()
            .logical_qubits(1)
            .rotations(7)
            .build();
        assert_eq!(c.rotation_depth, 7);
        // Explicit depth before rotations is preserved.
        let c = LogicalCounts::builder()
            .logical_qubits(1)
            .rotation_depth(2)
            .rotations(7)
            .build();
        assert_eq!(c.rotation_depth, 2);
    }

    #[test]
    fn sequential_composition() {
        let a = sample();
        let b = LogicalCounts::builder()
            .logical_qubits(20)
            .t_gates(1)
            .rotations(2)
            .build();
        let c = a.then(&b);
        assert_eq!(c.num_qubits, 20); // max
        assert_eq!(c.t_count, 101);
        assert_eq!(c.rotation_count, 10);
        assert_eq!(c.rotation_depth, 6); // 4 + 2
        assert_eq!(c.measurement_count, 30);
    }

    #[test]
    fn parallel_composition() {
        let a = sample();
        let b = sample();
        let c = a.alongside(&b);
        assert_eq!(c.num_qubits, 20); // sum
        assert_eq!(c.t_count, 200);
        assert_eq!(c.rotation_depth, 4); // max
    }

    #[test]
    fn repetition() {
        let c = sample().repeat(3);
        assert_eq!(c.num_qubits, 10);
        assert_eq!(c.t_count, 300);
        assert_eq!(c.rotation_depth, 12);
        assert_eq!(c.ccz_count, 60);
    }

    #[test]
    fn composition_identities() {
        let zero = LogicalCounts::default();
        let a = sample();
        assert_eq!(a.then(&zero), a);
        assert_eq!(a.repeat(1), a);
        let r0 = a.repeat(0);
        assert_eq!(r0.t_count, 0);
        assert_eq!(r0.num_qubits, 10); // qubits persist
    }

    #[test]
    fn json_round_trip() {
        let c = sample();
        let v = c.to_json();
        let back = LogicalCounts::from_json(&v).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn json_defaults_and_validation() {
        let v = qre_json::parse(r#"{"numQubits": 5, "tCount": 3}"#).unwrap();
        let c = LogicalCounts::from_json(&v).unwrap();
        assert_eq!(c.num_qubits, 5);
        assert_eq!(c.t_count, 3);
        assert_eq!(c.ccz_count, 0);

        // Zero qubits rejected.
        let v = qre_json::parse(r#"{"tCount": 3}"#).unwrap();
        assert!(LogicalCounts::from_json(&v).is_err());

        // Rotations without depth rejected.
        let v = qre_json::parse(r#"{"numQubits": 1, "rotationCount": 4}"#).unwrap();
        assert!(LogicalCounts::from_json(&v).is_err());

        // Depth above count rejected.
        let v = qre_json::parse(r#"{"numQubits":1,"rotationCount":2,"rotationDepth":3}"#).unwrap();
        assert!(LogicalCounts::from_json(&v).is_err());

        // Wrong types rejected.
        let v = qre_json::parse(r#"{"numQubits": "five"}"#).unwrap();
        assert!(LogicalCounts::from_json(&v).is_err());
        let v = qre_json::parse("[1,2]").unwrap();
        assert!(LogicalCounts::from_json(&v).is_err());
    }
}
