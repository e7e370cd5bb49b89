//! Physical qubit models (paper Section IV-C.1).
//!
//! A hardware profile describes the primitive instruction set of the device
//! (gate-based or Majorana), the durations of those primitives, and their
//! error rates. The six default profiles follow the parameter sets of the
//! paper's normative reference (Beverland et al., Table V), each named
//! exactly as in the paper: `qubit_gate_ns_e3`, `qubit_gate_ns_e4`,
//! `qubit_gate_us_e3`, `qubit_gate_us_e4`, `qubit_maj_ns_e4`,
//! `qubit_maj_ns_e6`.
//!
//! The paper's Section V quotes the `qubit_maj_ns_e4` row directly: 100 ns
//! operation and measurement times, Clifford error 10⁻⁴, non-Clifford (T)
//! error 0.05 — the values encoded here.

use crate::error::{Error, Result};
use qre_json::{Emitter, ObjectBuilder, Value};

/// The primitive instruction set of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstructionSet {
    /// Gate-based platforms (superconducting transmons, trapped ions):
    /// one- and two-qubit gates, T gates, single-qubit measurements.
    GateBased,
    /// Measurement-based Majorana platforms: one- and two-qubit joint
    /// measurements and T gates.
    Majorana,
}

impl InstructionSet {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            InstructionSet::GateBased => "GateBased",
            InstructionSet::Majorana => "Majorana",
        }
    }
}

/// A physical qubit model: primitive operation times (ns) and error rates.
///
/// Gate-based models use the gate-time fields; Majorana models use the
/// measurement-time fields. Unused fields are kept at defaults and ignored
/// by the formulas for that instruction set.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalQubit {
    /// Profile name (used in reports and the CLI job format).
    pub name: String,
    /// The instruction set this model describes.
    pub instruction_set: InstructionSet,
    /// One-qubit gate time (ns) — gate-based.
    pub one_qubit_gate_time_ns: f64,
    /// Two-qubit gate time (ns) — gate-based.
    pub two_qubit_gate_time_ns: f64,
    /// One-qubit measurement time (ns).
    pub one_qubit_measurement_time_ns: f64,
    /// Two-qubit joint measurement time (ns) — Majorana.
    pub two_qubit_measurement_time_ns: f64,
    /// T-gate time (ns).
    pub t_gate_time_ns: f64,
    /// One-qubit gate error rate — gate-based.
    pub one_qubit_gate_error: f64,
    /// Two-qubit gate error rate — gate-based.
    pub two_qubit_gate_error: f64,
    /// One-qubit measurement error rate.
    pub one_qubit_measurement_error: f64,
    /// Two-qubit joint measurement error rate — Majorana.
    pub two_qubit_measurement_error: f64,
    /// T-gate (non-Clifford) error rate.
    pub t_gate_error: f64,
    /// Idle error rate per operation slot.
    pub idle_error: f64,
}

impl PhysicalQubit {
    /// `qubit_gate_ns_e3`: nanosecond-regime gate-based qubits
    /// (superconducting-transmon-like), 10⁻³ error rates.
    pub fn qubit_gate_ns_e3() -> Self {
        Self::gate_based("qubit_gate_ns_e3", 50.0, 50.0, 100.0, 50.0, 1e-3)
    }

    /// `qubit_gate_ns_e4`: optimistic nanosecond-regime gate-based qubits,
    /// 10⁻⁴ error rates.
    pub fn qubit_gate_ns_e4() -> Self {
        Self::gate_based("qubit_gate_ns_e4", 50.0, 50.0, 100.0, 50.0, 1e-4)
    }

    /// `qubit_gate_us_e3`: microsecond-regime gate-based qubits
    /// (trapped-ion-like), 10⁻³ error rates.
    pub fn qubit_gate_us_e3() -> Self {
        Self::gate_based("qubit_gate_us_e3", 100e3, 100e3, 100e3, 100e3, 1e-3)
    }

    /// `qubit_gate_us_e4`: optimistic microsecond-regime gate-based qubits,
    /// 10⁻⁴ error rates.
    pub fn qubit_gate_us_e4() -> Self {
        Self::gate_based("qubit_gate_us_e4", 100e3, 100e3, 100e3, 100e3, 1e-4)
    }

    /// `qubit_maj_ns_e4`: Majorana qubits, 100 ns operations, Clifford error
    /// 10⁻⁴, non-Clifford (T) error 5·10⁻² — the profile of the paper's
    /// Figure 3.
    pub fn qubit_maj_ns_e4() -> Self {
        Self::majorana("qubit_maj_ns_e4", 100.0, 100.0, 100.0, 1e-4, 0.05)
    }

    /// `qubit_maj_ns_e6`: optimistic Majorana qubits, Clifford error 10⁻⁶,
    /// non-Clifford (T) error 10⁻².
    pub fn qubit_maj_ns_e6() -> Self {
        Self::majorana("qubit_maj_ns_e6", 100.0, 100.0, 100.0, 1e-6, 0.01)
    }

    fn gate_based(
        name: &str,
        one_q_gate_ns: f64,
        two_q_gate_ns: f64,
        meas_ns: f64,
        t_gate_ns: f64,
        error: f64,
    ) -> Self {
        PhysicalQubit {
            name: name.to_owned(),
            instruction_set: InstructionSet::GateBased,
            one_qubit_gate_time_ns: one_q_gate_ns,
            two_qubit_gate_time_ns: two_q_gate_ns,
            one_qubit_measurement_time_ns: meas_ns,
            two_qubit_measurement_time_ns: meas_ns,
            t_gate_time_ns: t_gate_ns,
            one_qubit_gate_error: error,
            two_qubit_gate_error: error,
            one_qubit_measurement_error: error,
            two_qubit_measurement_error: error,
            t_gate_error: error,
            idle_error: error,
        }
    }

    fn majorana(
        name: &str,
        meas_ns: f64,
        two_q_meas_ns: f64,
        t_gate_ns: f64,
        clifford_error: f64,
        t_error: f64,
    ) -> Self {
        PhysicalQubit {
            name: name.to_owned(),
            instruction_set: InstructionSet::Majorana,
            one_qubit_gate_time_ns: meas_ns,
            two_qubit_gate_time_ns: two_q_meas_ns,
            one_qubit_measurement_time_ns: meas_ns,
            two_qubit_measurement_time_ns: two_q_meas_ns,
            t_gate_time_ns: t_gate_ns,
            one_qubit_gate_error: clifford_error,
            two_qubit_gate_error: clifford_error,
            one_qubit_measurement_error: clifford_error,
            two_qubit_measurement_error: clifford_error,
            t_gate_error: t_error,
            idle_error: clifford_error,
        }
    }

    /// The six default profiles, in the paper's order.
    pub fn default_profiles() -> Vec<PhysicalQubit> {
        vec![
            Self::qubit_gate_ns_e3(),
            Self::qubit_gate_ns_e4(),
            Self::qubit_gate_us_e3(),
            Self::qubit_gate_us_e4(),
            Self::qubit_maj_ns_e4(),
            Self::qubit_maj_ns_e6(),
        ]
    }

    /// Look up a default profile by its paper name.
    pub fn by_name(name: &str) -> Option<PhysicalQubit> {
        Self::default_profiles()
            .into_iter()
            .find(|p| p.name == name)
    }

    /// The worst-case Clifford-operation error rate, the `p` of the QEC
    /// failure model `P(d) = a·(p/p*)^((d+1)/2)`.
    pub fn clifford_error_rate(&self) -> f64 {
        match self.instruction_set {
            InstructionSet::GateBased => self
                .one_qubit_gate_error
                .max(self.two_qubit_gate_error)
                .max(self.one_qubit_measurement_error)
                .max(self.idle_error),
            InstructionSet::Majorana => self
                .one_qubit_measurement_error
                .max(self.two_qubit_measurement_error)
                .max(self.idle_error),
        }
    }

    /// Measurement/readout error rate (used by distillation-unit formulas).
    pub fn readout_error_rate(&self) -> f64 {
        self.one_qubit_measurement_error
    }

    /// The duration of one physical instruction slot (ns): the slowest
    /// primitive relevant to the instruction set, used as the cycle unit for
    /// physical-level distillation rounds.
    pub fn physical_cycle_time_ns(&self) -> f64 {
        match self.instruction_set {
            InstructionSet::GateBased => self
                .one_qubit_gate_time_ns
                .max(self.two_qubit_gate_time_ns)
                .max(self.one_qubit_measurement_time_ns),
            InstructionSet::Majorana => self
                .one_qubit_measurement_time_ns
                .max(self.two_qubit_measurement_time_ns),
        }
    }

    /// Validate the model: positive times, error rates in (0, 1).
    pub fn validate(&self) -> Result<()> {
        let times = [
            ("oneQubitGateTime", self.one_qubit_gate_time_ns),
            ("twoQubitGateTime", self.two_qubit_gate_time_ns),
            (
                "oneQubitMeasurementTime",
                self.one_qubit_measurement_time_ns,
            ),
            (
                "twoQubitMeasurementTime",
                self.two_qubit_measurement_time_ns,
            ),
            ("tGateTime", self.t_gate_time_ns),
        ];
        for (name, t) in times {
            if !(t.is_finite() && t > 0.0) {
                return Err(Error::InvalidInput(format!(
                    "{name} must be positive and finite, got {t}"
                )));
            }
        }
        let errors = [
            ("oneQubitGateError", self.one_qubit_gate_error),
            ("twoQubitGateError", self.two_qubit_gate_error),
            ("oneQubitMeasurementError", self.one_qubit_measurement_error),
            ("twoQubitMeasurementError", self.two_qubit_measurement_error),
            ("tGateError", self.t_gate_error),
            ("idleError", self.idle_error),
        ];
        for (name, e) in errors {
            if !(e.is_finite() && e > 0.0 && e < 1.0) {
                return Err(Error::InvalidInput(format!(
                    "{name} must lie strictly between 0 and 1, got {e}"
                )));
            }
        }
        Ok(())
    }

    /// Render as the `physicalQubit` output group (Section IV-D.7).
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("instructionSet", self.instruction_set.name())
            .field("oneQubitGateTimeNs", self.one_qubit_gate_time_ns)
            .field("twoQubitGateTimeNs", self.two_qubit_gate_time_ns)
            .field(
                "oneQubitMeasurementTimeNs",
                self.one_qubit_measurement_time_ns,
            )
            .field(
                "twoQubitMeasurementTimeNs",
                self.two_qubit_measurement_time_ns,
            )
            .field("tGateTimeNs", self.t_gate_time_ns)
            .field("oneQubitGateError", self.one_qubit_gate_error)
            .field("twoQubitGateError", self.two_qubit_gate_error)
            .field("oneQubitMeasurementError", self.one_qubit_measurement_error)
            .field("twoQubitMeasurementError", self.two_qubit_measurement_error)
            .field("tGateError", self.t_gate_error)
            .field("idleError", self.idle_error)
            .build()
    }

    /// Emit the fields of [`PhysicalQubit::to_json`]'s object, in its
    /// order, into an object the caller has opened.
    pub(crate) fn emit_fields(&self, w: &mut Emitter<'_>) {
        w.field("name", self.name.as_str())
            .field("instructionSet", self.instruction_set.name())
            .field("oneQubitGateTimeNs", self.one_qubit_gate_time_ns)
            .field("twoQubitGateTimeNs", self.two_qubit_gate_time_ns)
            .field(
                "oneQubitMeasurementTimeNs",
                self.one_qubit_measurement_time_ns,
            )
            .field(
                "twoQubitMeasurementTimeNs",
                self.two_qubit_measurement_time_ns,
            )
            .field("tGateTimeNs", self.t_gate_time_ns)
            .field("oneQubitGateError", self.one_qubit_gate_error)
            .field("twoQubitGateError", self.two_qubit_gate_error)
            .field("oneQubitMeasurementError", self.one_qubit_measurement_error)
            .field("twoQubitMeasurementError", self.two_qubit_measurement_error)
            .field("tGateError", self.t_gate_error)
            .field("idleError", self.idle_error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profiles_are_valid_and_named() {
        let profiles = PhysicalQubit::default_profiles();
        assert_eq!(profiles.len(), 6);
        for p in &profiles {
            p.validate().unwrap();
            assert_eq!(PhysicalQubit::by_name(&p.name).unwrap(), *p);
        }
        assert!(PhysicalQubit::by_name("qubit_imaginary").is_none());
    }

    #[test]
    fn maj_ns_e4_matches_paper_quote() {
        // Paper Section V: "gate operation time: 100 ns, measurement
        // operation time: 100 ns, Clifford error rate: 1e-4, non-Clifford
        // error rate: 0.05".
        let q = PhysicalQubit::qubit_maj_ns_e4();
        assert_eq!(q.t_gate_time_ns, 100.0);
        assert_eq!(q.one_qubit_measurement_time_ns, 100.0);
        assert_eq!(q.clifford_error_rate(), 1e-4);
        assert_eq!(q.t_gate_error, 0.05);
        assert_eq!(q.instruction_set, InstructionSet::Majorana);
    }

    #[test]
    fn error_regimes() {
        assert_eq!(
            PhysicalQubit::qubit_gate_ns_e3().clifford_error_rate(),
            1e-3
        );
        assert_eq!(
            PhysicalQubit::qubit_gate_ns_e4().clifford_error_rate(),
            1e-4
        );
        assert_eq!(
            PhysicalQubit::qubit_gate_us_e3().clifford_error_rate(),
            1e-3
        );
        assert_eq!(
            PhysicalQubit::qubit_gate_us_e4().clifford_error_rate(),
            1e-4
        );
        assert_eq!(PhysicalQubit::qubit_maj_ns_e6().clifford_error_rate(), 1e-6);
        assert_eq!(PhysicalQubit::qubit_maj_ns_e6().t_gate_error, 0.01);
    }

    #[test]
    fn cycle_times() {
        // ns gate-based: measurement dominates at 100 ns.
        assert_eq!(
            PhysicalQubit::qubit_gate_ns_e3().physical_cycle_time_ns(),
            100.0
        );
        // µs gate-based: 100 µs.
        assert_eq!(
            PhysicalQubit::qubit_gate_us_e3().physical_cycle_time_ns(),
            100e3
        );
        assert_eq!(
            PhysicalQubit::qubit_maj_ns_e4().physical_cycle_time_ns(),
            100.0
        );
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut q = PhysicalQubit::qubit_gate_ns_e3();
        q.t_gate_error = 0.0;
        assert!(q.validate().is_err());
        let mut q = PhysicalQubit::qubit_gate_ns_e3();
        q.t_gate_error = 1.0;
        assert!(q.validate().is_err());
        let mut q = PhysicalQubit::qubit_gate_ns_e3();
        q.one_qubit_gate_time_ns = -5.0;
        assert!(q.validate().is_err());
        let mut q = PhysicalQubit::qubit_gate_ns_e3();
        q.one_qubit_measurement_time_ns = f64::NAN;
        assert!(q.validate().is_err());
    }

    #[test]
    fn json_group_has_all_fields() {
        let v = PhysicalQubit::qubit_maj_ns_e4().to_json();
        assert_eq!(v.get("name").unwrap().as_str(), Some("qubit_maj_ns_e4"));
        assert_eq!(v.get("instructionSet").unwrap().as_str(), Some("Majorana"));
        assert_eq!(v.get("tGateError").unwrap().as_f64(), Some(0.05));
        // name + instructionSet + 5 operation times + 6 error rates.
        assert_eq!(v.as_object().unwrap().len(), 13);
    }

    #[test]
    fn customisation_keeps_other_defaults() {
        // Customising a subset of parameters (Section IV-C.1).
        let mut q = PhysicalQubit::qubit_gate_ns_e3();
        q.two_qubit_gate_error = 5e-3;
        q.validate().unwrap();
        assert_eq!(q.clifford_error_rate(), 5e-3);
        assert_eq!(q.one_qubit_gate_error, 1e-3);
    }
}
