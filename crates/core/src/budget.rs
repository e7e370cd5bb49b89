//! Error-budget partitioning (paper Section IV-C.3).
//!
//! The total error budget ε — the acceptable probability that the whole
//! computation fails — is split three ways:
//!
//! * ε_log: budget for logical (QEC) errors across all qubits and cycles,
//! * ε_dis: budget for faulty distilled T states,
//! * ε_syn: budget for imperfect synthesis of arbitrary rotations.
//!
//! The default partition is even thirds; each part can also be specified
//! explicitly (the tool's `errorBudget` object form).

use crate::error::{Error, Result};
use qre_json::{Emitter, ObjectBuilder, Value};

/// A partitioned error budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBudget {
    /// Budget for logical errors (ε_log).
    pub logical: f64,
    /// Budget for T-state distillation errors (ε_dis).
    pub t_states: f64,
    /// Budget for rotation-synthesis errors (ε_syn).
    pub rotations: f64,
}

impl ErrorBudget {
    /// Even three-way split of a total budget (the tool's default).
    pub fn from_total(total: f64) -> Result<Self> {
        validate_part("errorBudget", total)?;
        Ok(ErrorBudget {
            logical: total / 3.0,
            t_states: total / 3.0,
            rotations: total / 3.0,
        })
    }

    /// Explicit per-part budgets.
    pub fn from_parts(logical: f64, t_states: f64, rotations: f64) -> Result<Self> {
        validate_part("logical budget", logical)?;
        // T-state and rotation parts may be zero for programs without the
        // corresponding operations, but must not be negative.
        for (name, v) in [
            ("tStates budget", t_states),
            ("rotations budget", rotations),
        ] {
            if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                return Err(Error::InvalidInput(format!(
                    "{name} must lie in [0, 1), got {v}"
                )));
            }
        }
        // The parts stand for probabilities of disjoint failure classes of
        // one run, so their sum is itself a failure probability and must
        // stay below 1 — per-part range checks alone admit e.g. 0.5/0.5/0.5.
        let total = logical + t_states + rotations;
        if total >= 1.0 {
            return Err(Error::InvalidInput(format!(
                "error budget parts must sum to less than 1, got {total}"
            )));
        }
        Ok(ErrorBudget {
            logical,
            t_states,
            rotations,
        })
    }

    /// The combined budget.
    pub fn total(&self) -> f64 {
        self.logical + self.t_states + self.rotations
    }

    /// Render as the `errorBudget` output group (Section IV-D.6).
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("total", self.total())
            .field("logical", self.logical)
            .field("tStates", self.t_states)
            .field("rotations", self.rotations)
            .build()
    }

    /// Emit the fields of [`ErrorBudget::to_json`]'s object, in its order,
    /// into an object the caller has opened.
    pub fn emit_fields(&self, w: &mut Emitter<'_>) {
        w.field("total", self.total())
            .field("logical", self.logical)
            .field("tStates", self.t_states)
            .field("rotations", self.rotations);
    }
}

/// A deterministic grid of candidate partitions of one total error budget
/// (paper Section IV-C.3 treats the split as a free design axis).
///
/// The grid spans nine ε_log : ε_dis odds ratios, log-spaced from 1:16 to
/// 16:1, so the explored splits run from "almost everything to QEC" to
/// "almost everything to distillation". The synthesis slice ε_syn is charged only when the
/// program actually contains arbitrary rotations; for rotation-free
/// programs the grid reclaims it and redistributes the full total between
/// ε_log and ε_dis — this is where a searched partition beats the default
/// even thirds, which waste a third of the budget on synthesis errors that
/// cannot occur.
///
/// The base partition is always the first grid point, so a frontier
/// searched over the grid can never lose to the fixed partition on either
/// objective.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSearch {
    /// ε_log : ε_dis odds ratios, one grid point per ratio.
    ratios: Vec<f64>,
}

impl Default for PartitionSearch {
    /// Nine log-spaced ratios from 1:16 to 16:1.
    fn default() -> Self {
        PartitionSearch {
            ratios: vec![
                1.0 / 16.0,
                1.0 / 8.0,
                1.0 / 4.0,
                1.0 / 2.0,
                1.0,
                2.0,
                4.0,
                8.0,
                16.0,
            ],
        }
    }
}

impl PartitionSearch {
    /// The candidate partitions for `base`'s total budget, base first.
    ///
    /// When the program has rotations, ε_syn keeps the base's synthesis
    /// slice (or an even third of the total if the base charged none) and
    /// the ratios split the remainder; otherwise ε_syn is zero and the
    /// ratios split the full total. Exact duplicates of earlier grid points
    /// are dropped; ratio points that fail [`ErrorBudget::from_parts`]
    /// validation are skipped rather than surfaced.
    pub fn grid(&self, base: &ErrorBudget, has_rotations: bool) -> Vec<ErrorBudget> {
        let total = base.total();
        let syn = if has_rotations {
            if base.rotations > 0.0 {
                base.rotations
            } else {
                total / 3.0
            }
        } else {
            0.0
        };
        let free = total - syn;
        let mut out = vec![*base];
        for &ratio in &self.ratios {
            let logical = free * (ratio / (1.0 + ratio));
            let t_states = free - logical;
            if let Ok(candidate) = ErrorBudget::from_parts(logical, t_states, syn) {
                if !out.contains(&candidate) {
                    out.push(candidate);
                }
            }
        }
        out
    }
}

fn validate_part(name: &str, v: f64) -> Result<()> {
    if !(v.is_finite() && v > 0.0 && v < 1.0) {
        return Err(Error::InvalidInput(format!(
            "{name} must lie strictly between 0 and 1, got {v}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let b = ErrorBudget::from_total(1e-3).unwrap();
        assert!((b.logical - 1e-3 / 3.0).abs() < 1e-18);
        assert_eq!(b.logical, b.t_states);
        assert_eq!(b.t_states, b.rotations);
        assert!((b.total() - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn explicit_parts() {
        let b = ErrorBudget::from_parts(1e-4, 2e-4, 0.0).unwrap();
        assert_eq!(b.logical, 1e-4);
        assert_eq!(b.t_states, 2e-4);
        assert_eq!(b.rotations, 0.0);
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(ErrorBudget::from_total(0.0).is_err());
        assert!(ErrorBudget::from_total(1.0).is_err());
        assert!(ErrorBudget::from_total(-0.1).is_err());
        assert!(ErrorBudget::from_total(f64::NAN).is_err());
        assert!(ErrorBudget::from_parts(0.0, 1e-4, 1e-4).is_err());
        assert!(ErrorBudget::from_parts(1e-4, -1.0, 0.0).is_err());
    }

    #[test]
    fn rejects_parts_summing_to_one_or_more() {
        // Each part individually in range, but the combined failure
        // probability is not: 0.5 + 0.5 + 0.5 = 1.5.
        assert!(ErrorBudget::from_parts(0.5, 0.5, 0.5).is_err());
        assert!(ErrorBudget::from_parts(0.4, 0.3, 0.3).is_err());
        assert!(ErrorBudget::from_parts(0.999, 0.001, 0.001).is_err());
        let err = ErrorBudget::from_parts(0.5, 0.5, 0.0).unwrap_err();
        assert!(err.to_string().contains("sum"), "got: {err}");
        // Just below 1 stays accepted.
        assert!(ErrorBudget::from_parts(0.4, 0.3, 0.2).is_ok());
    }

    #[test]
    fn partition_grid_base_first_and_valid() {
        let base = ErrorBudget::from_total(1e-3).unwrap();
        let grid = PartitionSearch::default().grid(&base, true);
        assert_eq!(grid[0], base);
        assert!(grid.len() >= 2);
        for b in &grid {
            assert!((b.total() - 1e-3).abs() < 1e-12);
            assert!(b.logical > 0.0);
            // With rotations present every candidate keeps a synthesis slice.
            assert!(b.rotations > 0.0);
        }
    }

    #[test]
    fn partition_grid_reclaims_synthesis_slice_without_rotations() {
        let base = ErrorBudget::from_total(1e-3).unwrap();
        let grid = PartitionSearch::default().grid(&base, false);
        assert_eq!(grid[0], base, "the base partition itself is kept as-is");
        for b in &grid[1..] {
            assert_eq!(b.rotations, 0.0);
            assert!((b.logical + b.t_states - 1e-3).abs() < 1e-12);
        }
        // At least one candidate gives logical errors more than the even
        // third the base wastes part of.
        assert!(grid[1..].iter().any(|b| b.logical > base.logical * 2.0));
    }

    #[test]
    fn json_shape() {
        let b = ErrorBudget::from_total(1e-4).unwrap();
        let v = b.to_json();
        assert!((v.get("total").unwrap().as_f64().unwrap() - 1e-4).abs() < 1e-15);
        assert!(v.get("logical").is_some());
        assert!(v.get("tStates").is_some());
        assert!(v.get("rotations").is_some());
    }
}
