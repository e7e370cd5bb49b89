//! Estimation results: the eight output groups of paper Section IV-D.

use crate::budget::ErrorBudget;
use crate::physical_qubit::PhysicalQubit;
use crate::qec::{LogicalQubit, QecScheme};
use crate::tfactory::TFactory;
use qre_circuit::LogicalCounts;
use qre_json::{Emitter, ObjectBuilder, Value};
use std::fmt::Write as _;

/// Group 1: the headline physical resource estimates (Section IV-D.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalCounts {
    /// Total physical qubits (algorithm + T factories).
    pub physical_qubits: u64,
    /// Algorithm runtime in nanoseconds.
    pub runtime_ns: f64,
    /// Reliable quantum operations per second (Section III-E).
    pub rqops: f64,
}

/// Group 2: the resource-estimates breakdown (Section IV-D.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBreakdown {
    /// Post-layout logical qubits `Q_alg`.
    pub algorithmic_logical_qubits: u64,
    /// Algorithmic logical depth `C` before any stretching.
    pub algorithmic_depth: u64,
    /// Executed logical cycles (equals `C` unless stretched by constraints).
    pub num_cycles: u64,
    /// The stretch factor actually applied (≥ 1).
    pub logical_depth_factor: f64,
    /// Logical clock frequency (cycles per second).
    pub clock_frequency_hz: f64,
    /// Total T states consumed.
    pub num_t_states: u64,
    /// T-factory copies running in parallel.
    pub num_t_factories: u64,
    /// Total factory invocations across all copies.
    pub num_t_factory_runs: u64,
    /// Physical qubits serving the algorithm.
    pub physical_qubits_for_algorithm: u64,
    /// Physical qubits serving the factories.
    pub physical_qubits_for_t_factories: u64,
    /// Required logical error rate per qubit per cycle.
    pub required_logical_error_rate: f64,
    /// Required T-state error rate (absent for T-free programs).
    pub required_t_state_error_rate: Option<f64>,
    /// T states per arbitrary rotation (0 without rotations).
    pub t_states_per_rotation: u64,
}

/// A complete estimation result: all output groups of Section IV-D.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimationResult {
    /// Group 1: physical resource estimates.
    pub physical_counts: PhysicalCounts,
    /// Group 2: breakdown.
    pub breakdown: ResourceBreakdown,
    /// Group 3: logical qubit parameters.
    pub logical_qubit: LogicalQubit,
    /// The QEC scheme behind group 3.
    pub qec_scheme: QecScheme,
    /// Group 4: T factory parameters (absent when raw T states suffice or
    /// the program is T-free).
    pub t_factory: Option<TFactory>,
    /// Group 5: pre-layout logical resources.
    pub pre_layout: LogicalCounts,
    /// Group 6: assumed error budget.
    pub error_budget: ErrorBudget,
    /// Group 7: physical qubit parameters.
    pub physical_qubit: PhysicalQubit,
    /// Group 8: assumptions of the estimation process.
    pub assumptions: Vec<String>,
}

impl EstimationResult {
    /// Render all eight groups as a JSON document (the service's result
    /// contract).
    pub fn to_json(&self) -> Value {
        let physical_counts = ObjectBuilder::new()
            .field("physicalQubits", self.physical_counts.physical_qubits)
            .field("runtimeNs", self.physical_counts.runtime_ns)
            .field("rqops", self.physical_counts.rqops)
            .build();
        let b = &self.breakdown;
        let breakdown = ObjectBuilder::new()
            .field("algorithmicLogicalQubits", b.algorithmic_logical_qubits)
            .field("algorithmicLogicalDepth", b.algorithmic_depth)
            .field("numCycles", b.num_cycles)
            .field("logicalDepthFactor", b.logical_depth_factor)
            .field("clockFrequencyHz", b.clock_frequency_hz)
            .field("numTstates", b.num_t_states)
            .field("numTfactories", b.num_t_factories)
            .field("numTfactoryRuns", b.num_t_factory_runs)
            .field(
                "physicalQubitsForAlgorithm",
                b.physical_qubits_for_algorithm,
            )
            .field(
                "physicalQubitsForTfactories",
                b.physical_qubits_for_t_factories,
            )
            .field(
                "requiredLogicalQubitErrorRate",
                b.required_logical_error_rate,
            )
            .field_opt("requiredTstateErrorRate", b.required_t_state_error_rate)
            .field("numTstatesPerRotation", b.t_states_per_rotation)
            .build();
        let lq = ObjectBuilder::new()
            .field("codeDistance", u64::from(self.logical_qubit.code_distance))
            .field("physicalQubits", self.logical_qubit.physical_qubits)
            .field("logicalCycleTimeNs", self.logical_qubit.cycle_time_ns)
            .field("logicalErrorRate", self.logical_qubit.logical_error_rate)
            .field("qecScheme", self.qec_scheme.to_json())
            .build();
        ObjectBuilder::new()
            .field("status", "success")
            .field("physicalCounts", physical_counts)
            .field("breakdown", breakdown)
            .field("logicalQubit", lq)
            .field_opt("tfactory", self.t_factory.as_ref().map(TFactory::to_json))
            .field("preLayoutLogicalResources", self.pre_layout.to_json())
            .field("errorBudget", self.error_budget.to_json())
            .field("physicalQubitParameters", self.physical_qubit.to_json())
            .field(
                "assumptions",
                Value::Array(
                    self.assumptions
                        .iter()
                        .map(|a| Value::Str(a.clone()))
                        .collect(),
                ),
            )
            .build()
    }

    /// Append this result's compact JSON to `out`: exactly the bytes of
    /// `self.to_json().to_string_compact()`, written field by field with no
    /// [`Value`] built on the way. Into a buffer with room to spare (a
    /// result is ≈ 3 KB) it allocates nothing.
    pub fn write_json(&self, out: &mut String) {
        Emitter::new(out).object(|w| self.emit_fields(w));
    }

    /// Emit the fields of [`EstimationResult::to_json`]'s object, in its
    /// order, into an object the caller has opened: the byte renderer
    /// behind [`EstimationResult::write_json`], for records that nest a
    /// result or extend it with fields of their own.
    pub fn emit_fields(&self, w: &mut Emitter<'_>) {
        let pc = &self.physical_counts;
        let b = &self.breakdown;
        let lq = &self.logical_qubit;
        w.field("status", "success")
            .key("physicalCounts")
            .object(|w| {
                w.field("physicalQubits", pc.physical_qubits)
                    .field("runtimeNs", pc.runtime_ns)
                    .field("rqops", pc.rqops);
            })
            .key("breakdown")
            .object(|w| {
                w.field("algorithmicLogicalQubits", b.algorithmic_logical_qubits)
                    .field("algorithmicLogicalDepth", b.algorithmic_depth)
                    .field("numCycles", b.num_cycles)
                    .field("logicalDepthFactor", b.logical_depth_factor)
                    .field("clockFrequencyHz", b.clock_frequency_hz)
                    .field("numTstates", b.num_t_states)
                    .field("numTfactories", b.num_t_factories)
                    .field("numTfactoryRuns", b.num_t_factory_runs)
                    .field(
                        "physicalQubitsForAlgorithm",
                        b.physical_qubits_for_algorithm,
                    )
                    .field(
                        "physicalQubitsForTfactories",
                        b.physical_qubits_for_t_factories,
                    )
                    .field(
                        "requiredLogicalQubitErrorRate",
                        b.required_logical_error_rate,
                    )
                    .field_opt("requiredTstateErrorRate", b.required_t_state_error_rate)
                    .field("numTstatesPerRotation", b.t_states_per_rotation);
            })
            .key("logicalQubit")
            .object(|w| {
                w.field("codeDistance", lq.code_distance)
                    .field("physicalQubits", lq.physical_qubits)
                    .field("logicalCycleTimeNs", lq.cycle_time_ns)
                    .field("logicalErrorRate", lq.logical_error_rate)
                    .key("qecScheme")
                    .object(|w| self.qec_scheme.emit_fields(w));
            });
        if let Some(factory) = &self.t_factory {
            w.key("tfactory").object(|w| factory.emit_fields(w));
        }
        w.key("preLayoutLogicalResources")
            .object(|w| emit_counts(w, &self.pre_layout))
            .key("errorBudget")
            .object(|w| self.error_budget.emit_fields(w))
            .key("physicalQubitParameters")
            .object(|w| self.physical_qubit.emit_fields(w))
            .key("assumptions")
            .begin_array();
        for assumption in &self.assumptions {
            w.value(assumption.as_str());
        }
        w.end_array();
    }

    /// Human-readable report covering every output group.
    pub fn to_report(&self) -> String {
        let mut out = String::with_capacity(2048);
        let b = &self.breakdown;
        let _ = writeln!(out, "Physical resource estimates");
        let _ = writeln!(
            out,
            "  Runtime:                      {}",
            format_duration_ns(self.physical_counts.runtime_ns)
        );
        let _ = writeln!(
            out,
            "  rQOPS:                        {}",
            format_sci(self.physical_counts.rqops)
        );
        let _ = writeln!(
            out,
            "  Physical qubits:              {}",
            group_digits(self.physical_counts.physical_qubits)
        );
        let _ = writeln!(out, "Resource estimates breakdown");
        let _ = writeln!(
            out,
            "  Logical algorithmic qubits:   {}",
            group_digits(b.algorithmic_logical_qubits)
        );
        let _ = writeln!(
            out,
            "  Algorithmic depth:            {}",
            group_digits(b.algorithmic_depth)
        );
        let _ = writeln!(
            out,
            "  Executed cycles:              {}",
            group_digits(b.num_cycles)
        );
        let _ = writeln!(
            out,
            "  Logical clock frequency:      {} Hz",
            format_sci(b.clock_frequency_hz)
        );
        let _ = writeln!(
            out,
            "  T states:                     {}",
            group_digits(b.num_t_states)
        );
        let _ = writeln!(
            out,
            "  T factories:                  {}",
            group_digits(b.num_t_factories)
        );
        let _ = writeln!(
            out,
            "  Qubits (algorithm/factories): {} / {}",
            group_digits(b.physical_qubits_for_algorithm),
            group_digits(b.physical_qubits_for_t_factories)
        );
        let _ = writeln!(out, "Logical qubit parameters");
        let _ = writeln!(
            out,
            "  QEC scheme:                   {}",
            self.qec_scheme.name
        );
        let _ = writeln!(
            out,
            "  Code distance:                {}",
            self.logical_qubit.code_distance
        );
        let _ = writeln!(
            out,
            "  Physical qubits per logical:  {}",
            group_digits(self.logical_qubit.physical_qubits)
        );
        let _ = writeln!(
            out,
            "  Logical cycle time:           {}",
            format_duration_ns(self.logical_qubit.cycle_time_ns)
        );
        let _ = writeln!(
            out,
            "  Logical error rate:           {}",
            format_sci(self.logical_qubit.logical_error_rate)
        );
        match &self.t_factory {
            Some(f) => {
                let _ = writeln!(out, "T factory parameters");
                let _ = writeln!(out, "  Rounds:                       {}", f.num_rounds());
                let _ = writeln!(
                    out,
                    "  Physical qubits per factory:  {}",
                    group_digits(f.physical_qubits)
                );
                let _ = writeln!(
                    out,
                    "  Factory runtime:              {}",
                    format_duration_ns(f.duration_ns)
                );
                let _ = writeln!(
                    out,
                    "  Output T-state error rate:    {}",
                    format_sci(f.output_error_rate)
                );
                for (i, r) in f.rounds.iter().enumerate() {
                    let level = match r.level {
                        crate::tfactory::RoundLevel::Physical => "physical".to_string(),
                        crate::tfactory::RoundLevel::Logical { code_distance } => {
                            format!("logical d={code_distance}")
                        }
                    };
                    let _ = writeln!(
                        out,
                        "  Round {}: {} × {} ({level})",
                        i + 1,
                        group_digits(r.copies),
                        r.unit_name
                    );
                }
            }
            None => {
                let _ = writeln!(out, "T factory parameters");
                let _ = writeln!(out, "  (no distillation required)");
            }
        }
        let p = &self.pre_layout;
        let _ = writeln!(out, "Pre-layout logical resources");
        let _ = writeln!(
            out,
            "  Logical qubits:               {}",
            group_digits(p.num_qubits)
        );
        let _ = writeln!(
            out,
            "  T gates:                      {}",
            group_digits(p.t_count)
        );
        let _ = writeln!(
            out,
            "  Rotation gates (depth):       {} ({})",
            group_digits(p.rotation_count),
            group_digits(p.rotation_depth)
        );
        let _ = writeln!(
            out,
            "  CCZ / CCiX gates:             {} / {}",
            group_digits(p.ccz_count),
            group_digits(p.ccix_count)
        );
        let _ = writeln!(
            out,
            "  Measurements:                 {}",
            group_digits(p.measurement_count)
        );
        let eb = &self.error_budget;
        let _ = writeln!(out, "Assumed error budget");
        let _ = writeln!(
            out,
            "  Total:                        {}",
            format_sci(eb.total())
        );
        let _ = writeln!(
            out,
            "  Logical:                      {}",
            format_sci(eb.logical)
        );
        let _ = writeln!(
            out,
            "  T states:                     {}",
            format_sci(eb.t_states)
        );
        let _ = writeln!(
            out,
            "  Rotations:                    {}",
            format_sci(eb.rotations)
        );
        let _ = writeln!(out, "Physical qubit parameters");
        let _ = writeln!(
            out,
            "  Profile:                      {} ({})",
            self.physical_qubit.name,
            self.physical_qubit.instruction_set.name()
        );
        let _ = writeln!(
            out,
            "  Clifford error rate:          {}",
            format_sci(self.physical_qubit.clifford_error_rate())
        );
        let _ = writeln!(
            out,
            "  T gate error rate:            {}",
            format_sci(self.physical_qubit.t_gate_error)
        );
        let _ = writeln!(out, "Assumptions");
        for a in &self.assumptions {
            let _ = writeln!(out, "  - {a}");
        }
        out
    }
}

/// Emit the fields of [`LogicalCounts::to_json`]'s object, in its order,
/// into an object the caller has opened.
fn emit_counts(w: &mut Emitter<'_>, c: &LogicalCounts) {
    w.field("numQubits", c.num_qubits)
        .field("tCount", c.t_count)
        .field("rotationCount", c.rotation_count)
        .field("rotationDepth", c.rotation_depth)
        .field("cczCount", c.ccz_count)
        .field("ccixCount", c.ccix_count)
        .field("measurementCount", c.measurement_count);
}

/// Format a nanosecond duration with a natural unit.
pub fn format_duration_ns(ns: f64) -> String {
    const UNITS: [(f64, &str); 6] = [
        (1e9 * 86_400.0, "days"),
        (1e9 * 3_600.0, "hours"),
        (1e9, "s"),
        (1e6, "ms"),
        (1e3, "µs"),
        (1.0, "ns"),
    ];
    for (scale, unit) in UNITS {
        if ns >= scale {
            return format!("{:.2} {unit}", ns / scale);
        }
    }
    format!("{ns:.2} ns")
}

/// Scientific-notation formatting for rates and frequencies.
pub fn format_sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.2e}")
    }
}

/// Thousands separators for counts.
pub fn group_digits(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration_ns(12.0), "12.00 ns");
        assert_eq!(format_duration_ns(4_500.0), "4.50 µs");
        assert_eq!(format_duration_ns(2.5e6), "2.50 ms");
        assert_eq!(format_duration_ns(1.2e10), "12.00 s");
        assert_eq!(format_duration_ns(7.2e12), "2.00 hours");
        assert_eq!(format_duration_ns(2.0 * 86_400.0 * 1e9), "2.00 days");
    }

    #[test]
    fn digit_grouping() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1_000), "1,000");
        assert_eq!(group_digits(20_597), "20,597");
        assert_eq!(group_digits(1_234_567_890), "1,234,567,890");
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(format_sci(0.0), "0");
        assert_eq!(format_sci(1.12e11), "1.12e11");
        assert_eq!(format_sci(3.33e-5), "3.33e-5");
    }
}
