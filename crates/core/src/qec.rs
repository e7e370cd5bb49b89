//! Quantum error correction schemes (paper Sections III-C and IV-C.2).
//!
//! A scheme is defined by two numeric parameters — the *crossing prefactor*
//! `a` and the *error-correction threshold* `p*` — and two **formula
//! parameters**, given as strings exactly as the paper describes: the logical
//! cycle time and the number of physical qubits per logical qubit, both in
//! terms of the primitive operation times and the code distance. The logical
//! failure model is
//!
//! ```text
//! P(d) = a · (p / p*)^((d+1)/2)
//! ```
//!
//! per logical qubit per logical cycle, with `p` the physical Clifford error
//! rate. The code-distance solver picks the smallest odd `d` whose `P(d)`
//! meets the required rate.
//!
//! Default schemes (constants from Beverland et al., Table VII):
//!
//! | name | set | a | p* | cycle time | qubits/logical |
//! |---|---|---|---|---|---|
//! | surface code (gate-based) | gate-based | 0.03 | 0.01 | `(4·tGate₂ + 2·tMeas)·d` | `2·d²` |
//! | surface code (Majorana) | Majorana | 0.08 | 0.0015 | `20·tMeas·d` | `2·d²` |
//! | Floquet / Hastings–Haah | Majorana | 0.07 | 0.01 | `3·tMeas·d` | `4·d² + 8·(d−1)` |

use crate::error::{Error, Result};
use crate::physical_qubit::{InstructionSet, PhysicalQubit};
use qre_expr::{Formula, Scope};
use qre_json::{Emitter, ObjectBuilder, Value};

/// Named selector for the built-in schemes (custom schemes are provided as a
/// full [`QecScheme`] value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QecSchemeKind {
    /// Surface code; the gate-based or Majorana variant is selected by the
    /// qubit model's instruction set.
    SurfaceCode,
    /// Floquet (Hastings–Haah) code; Majorana instruction set only.
    FloquetCode,
}

/// A quantum error correction scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct QecScheme {
    /// Scheme name for reports.
    pub name: String,
    /// Instruction set the scheme's formulas assume.
    pub instruction_set: InstructionSet,
    /// Error-correction threshold `p*`.
    pub error_correction_threshold: f64,
    /// Crossing prefactor `a`.
    pub crossing_prefactor: f64,
    /// Logical cycle time formula (ns). Variables: `oneQubitGateTime`,
    /// `twoQubitGateTime`, `oneQubitMeasurementTime`,
    /// `twoQubitMeasurementTime`, `codeDistance`.
    pub logical_cycle_time: Formula,
    /// Physical qubits per logical qubit. Variables: `codeDistance`.
    pub physical_qubits_per_logical_qubit: Formula,
    /// Largest code distance the solver will consider.
    pub max_code_distance: u32,
}

impl QecScheme {
    /// The gate-based surface code.
    pub fn surface_code_gate_based() -> Self {
        QecScheme {
            name: "surface_code".into(),
            instruction_set: InstructionSet::GateBased,
            error_correction_threshold: 0.01,
            crossing_prefactor: 0.03,
            logical_cycle_time: Formula::parse(
                "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
            )
            .expect("built-in formula"),
            physical_qubits_per_logical_qubit: Formula::parse("2 * codeDistance ^ 2")
                .expect("built-in formula"),
            max_code_distance: 49,
        }
    }

    /// The Majorana surface code.
    pub fn surface_code_majorana() -> Self {
        QecScheme {
            name: "surface_code".into(),
            instruction_set: InstructionSet::Majorana,
            error_correction_threshold: 0.0015,
            crossing_prefactor: 0.08,
            logical_cycle_time: Formula::parse("20 * oneQubitMeasurementTime * codeDistance")
                .expect("built-in formula"),
            physical_qubits_per_logical_qubit: Formula::parse("2 * codeDistance ^ 2")
                .expect("built-in formula"),
            max_code_distance: 49,
        }
    }

    /// The Floquet (Hastings–Haah) code — the paper's Figure 3 scheme.
    pub fn floquet_code() -> Self {
        QecScheme {
            name: "floquet_code".into(),
            instruction_set: InstructionSet::Majorana,
            error_correction_threshold: 0.01,
            crossing_prefactor: 0.07,
            logical_cycle_time: Formula::parse("3 * oneQubitMeasurementTime * codeDistance")
                .expect("built-in formula"),
            physical_qubits_per_logical_qubit: Formula::parse(
                "4 * codeDistance ^ 2 + 8 * (codeDistance - 1)",
            )
            .expect("built-in formula"),
            max_code_distance: 49,
        }
    }

    /// Resolve a [`QecSchemeKind`] against a qubit model's instruction set
    /// (the pairing rule of the paper's Figure 4 caption).
    pub fn resolve(kind: QecSchemeKind, qubit: &PhysicalQubit) -> Result<QecScheme> {
        match (kind, qubit.instruction_set) {
            (QecSchemeKind::SurfaceCode, InstructionSet::GateBased) => {
                Ok(Self::surface_code_gate_based())
            }
            (QecSchemeKind::SurfaceCode, InstructionSet::Majorana) => {
                Ok(Self::surface_code_majorana())
            }
            (QecSchemeKind::FloquetCode, InstructionSet::Majorana) => Ok(Self::floquet_code()),
            (QecSchemeKind::FloquetCode, InstructionSet::GateBased) => Err(Error::InvalidInput(
                "the floquet code requires a Majorana instruction set".into(),
            )),
        }
    }

    /// Logical failure rate per qubit per cycle at distance `d`:
    /// `a · (p/p*)^((d+1)/2)`.
    pub fn logical_error_rate(&self, physical_error_rate: f64, distance: u32) -> f64 {
        let ratio = physical_error_rate / self.error_correction_threshold;
        self.crossing_prefactor * ratio.powf(f64::from(distance + 1) / 2.0)
    }

    /// Smallest odd code distance whose logical error rate meets `required`.
    pub fn code_distance_for(&self, physical_error_rate: f64, required: f64) -> Result<u32> {
        if physical_error_rate >= self.error_correction_threshold {
            return Err(Error::AboveThreshold {
                physical_error_rate,
                threshold: self.error_correction_threshold,
            });
        }
        let mut d = 1u32;
        while d <= self.max_code_distance {
            if self.logical_error_rate(physical_error_rate, d) <= required {
                return Ok(d);
            }
            d += 2;
        }
        Err(Error::NoCodeDistance {
            required,
            best_achievable: self.logical_error_rate(physical_error_rate, self.max_code_distance),
        })
    }

    fn scope(&self, qubit: &PhysicalQubit, distance: u32) -> Scope {
        Scope::from_pairs([
            ("oneQubitGateTime", qubit.one_qubit_gate_time_ns),
            ("twoQubitGateTime", qubit.two_qubit_gate_time_ns),
            (
                "oneQubitMeasurementTime",
                qubit.one_qubit_measurement_time_ns,
            ),
            (
                "twoQubitMeasurementTime",
                qubit.two_qubit_measurement_time_ns,
            ),
            ("codeDistance", f64::from(distance)),
        ])
    }

    /// Logical cycle time (ns) at distance `d` on the given qubit model.
    pub fn logical_cycle_time_ns(&self, qubit: &PhysicalQubit, distance: u32) -> Result<f64> {
        let t = self.logical_cycle_time.eval(&self.scope(qubit, distance))?;
        if t <= 0.0 {
            return Err(Error::Evaluation(format!(
                "logical cycle time formula produced non-positive value {t}"
            )));
        }
        Ok(t)
    }

    /// Physical qubits per logical qubit at distance `d`.
    pub fn physical_qubits_per_logical(&self, distance: u32) -> Result<u64> {
        let scope = Scope::from_pairs([("codeDistance", f64::from(distance))]);
        let q = self.physical_qubits_per_logical_qubit.eval(&scope)?;
        if q < 1.0 || !q.is_finite() {
            return Err(Error::Evaluation(format!(
                "physical-qubits formula produced invalid value {q}"
            )));
        }
        Ok(q.ceil() as u64)
    }

    /// Precompute the per-distance logical-qubit parameters for every odd
    /// distance `1, 3, … ≤ max_distance` on the given qubit model.
    ///
    /// Rows whose qubit-count or cycle-time formula is invalid at a
    /// distance carry `None` in that field instead of failing the whole
    /// table, mirroring how the pipeline search skips unrealisable
    /// candidates one at a time.
    pub fn distance_table(&self, qubit: &PhysicalQubit, max_distance: u32) -> DistanceTable {
        let p = qubit.clifford_error_rate();
        let mut rows = Vec::with_capacity((max_distance as usize).div_ceil(2));
        let mut d = 1u32;
        while d <= max_distance {
            rows.push(DistanceRow {
                code_distance: d,
                logical_error_rate: self.logical_error_rate(p, d),
                physical_qubits: self.physical_qubits_per_logical(d).ok(),
                cycle_time_ns: self.logical_cycle_time_ns(qubit, d).ok(),
            });
            d += 2;
        }
        DistanceTable { rows }
    }

    /// Construct the full logical-qubit description for a qubit model and a
    /// required per-qubit-per-cycle error rate.
    pub fn logical_qubit(
        &self,
        qubit: &PhysicalQubit,
        required_error_rate: f64,
    ) -> Result<LogicalQubit> {
        if qubit.instruction_set != self.instruction_set {
            return Err(Error::InvalidInput(format!(
                "QEC scheme `{}` expects a {} instruction set but the qubit model `{}` is {}",
                self.name,
                self.instruction_set.name(),
                qubit.name,
                qubit.instruction_set.name(),
            )));
        }
        let p = qubit.clifford_error_rate();
        let distance = self.code_distance_for(p, required_error_rate)?;
        Ok(LogicalQubit {
            code_distance: distance,
            physical_qubits: self.physical_qubits_per_logical(distance)?,
            cycle_time_ns: self.logical_cycle_time_ns(qubit, distance)?,
            logical_error_rate: self.logical_error_rate(p, distance),
        })
    }

    /// Render as the `logicalQubit` output-group preamble (Section IV-D.3).
    pub fn to_json(&self) -> Value {
        ObjectBuilder::new()
            .field("name", self.name.as_str())
            .field("instructionSet", self.instruction_set.name())
            .field("errorCorrectionThreshold", self.error_correction_threshold)
            .field("crossingPrefactor", self.crossing_prefactor)
            .field("logicalCycleTime", self.logical_cycle_time.source())
            .field(
                "physicalQubitsPerLogicalQubit",
                self.physical_qubits_per_logical_qubit.source(),
            )
            .field("maxCodeDistance", u64::from(self.max_code_distance))
            .build()
    }

    /// Emit the fields of [`QecScheme::to_json`]'s object, in its order,
    /// into an object the caller has opened.
    pub(crate) fn emit_fields(&self, w: &mut Emitter<'_>) {
        w.field("name", self.name.as_str())
            .field("instructionSet", self.instruction_set.name())
            .field("errorCorrectionThreshold", self.error_correction_threshold)
            .field("crossingPrefactor", self.crossing_prefactor)
            .field("logicalCycleTime", self.logical_cycle_time.source())
            .field(
                "physicalQubitsPerLogicalQubit",
                self.physical_qubits_per_logical_qubit.source(),
            )
            .field("maxCodeDistance", self.max_code_distance);
    }
}

/// Precomputed per-distance logical-qubit parameters of one (scheme, qubit
/// model) pair: one [`DistanceRow`] per odd code distance up to the limit
/// given to [`QecScheme::distance_table`].
///
/// The T-factory pipeline search evaluates `logical_error_rate`,
/// `physical_qubits_per_logical`, and `logical_cycle_time_ns` for the same
/// handful of distances thousands of times per search; this table evaluates
/// each formula **once per distance** up front, so every candidate round
/// costs an indexed lookup instead of two formula evaluations.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    rows: Vec<DistanceRow>,
}

/// One row of a [`DistanceTable`]: the logical-qubit parameters at a single
/// odd code distance.
#[derive(Debug, Clone, Copy)]
pub struct DistanceRow {
    /// The (odd) code distance this row describes.
    pub code_distance: u32,
    /// Logical failure rate per qubit per cycle ([`QecScheme::logical_error_rate`]).
    pub logical_error_rate: f64,
    /// Physical qubits per logical qubit, or `None` when the scheme's
    /// formula is invalid at this distance (the same inputs
    /// [`QecScheme::physical_qubits_per_logical`] rejects).
    pub physical_qubits: Option<u64>,
    /// Logical cycle time in ns, or `None` when the scheme's formula is
    /// invalid at this distance.
    pub cycle_time_ns: Option<f64>,
}

impl DistanceTable {
    /// All rows, ordered by ascending odd code distance (1, 3, 5, …).
    pub fn rows(&self) -> &[DistanceRow] {
        &self.rows
    }
}

/// A realised logical qubit: the output of the error-correction step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalQubit {
    /// Selected code distance.
    pub code_distance: u32,
    /// Physical qubits per logical qubit at that distance.
    pub physical_qubits: u64,
    /// Logical cycle time (ns).
    pub cycle_time_ns: f64,
    /// Achieved logical error rate per qubit per cycle.
    pub logical_error_rate: f64,
}

impl LogicalQubit {
    /// Logical clock rate (cycles per second).
    pub fn logical_cycles_per_second(&self) -> f64 {
        1e9 / self.cycle_time_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_model_matches_closed_form() {
        let s = QecScheme::floquet_code();
        // p/p* = 0.01 → P(d) = 0.07 · 10^{-(d+1)}.
        let p = 1e-4;
        for d in [3u32, 9, 15] {
            let want = 0.07 * 10f64.powi(-(d as i32 + 1));
            let got = s.logical_error_rate(p, d);
            assert!((got - want).abs() < want * 1e-9, "d={d}: {got} vs {want}");
        }
    }

    #[test]
    fn distance_solver_minimal_odd() {
        let s = QecScheme::floquet_code();
        let p = 1e-4;
        // Required 3.75e-16 → d = 15 (the paper's windowed-2048 case).
        let d = s.code_distance_for(p, 3.75e-16).unwrap();
        assert_eq!(d, 15);
        // The next-lower odd distance must NOT satisfy the requirement.
        assert!(s.logical_error_rate(p, 13) > 3.75e-16);
        assert!(s.logical_error_rate(p, 15) <= 3.75e-16);
    }

    #[test]
    fn distance_monotone_in_requirement() {
        let s = QecScheme::surface_code_gate_based();
        let p = 1e-3;
        let mut last = 0;
        for req in [1e-6, 1e-9, 1e-12, 1e-15] {
            let d = s.code_distance_for(p, req).unwrap();
            assert!(
                d >= last,
                "distance must not shrink as requirement tightens"
            );
            assert!(d % 2 == 1, "distance must be odd");
            last = d;
        }
    }

    #[test]
    fn above_threshold_rejected() {
        let s = QecScheme::surface_code_gate_based();
        match s.code_distance_for(0.02, 1e-9) {
            Err(Error::AboveThreshold { .. }) => {}
            other => panic!("expected AboveThreshold, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_requirement_rejected() {
        let s = QecScheme::surface_code_gate_based();
        // p barely below threshold: even d=49 cannot reach 1e-30.
        match s.code_distance_for(9.9e-3, 1e-30) {
            Err(Error::NoCodeDistance { .. }) => {}
            other => panic!("expected NoCodeDistance, got {other:?}"),
        }
    }

    #[test]
    fn cycle_time_and_qubits_from_formulas() {
        let q = PhysicalQubit::qubit_gate_ns_e3();
        let s = QecScheme::surface_code_gate_based();
        // (4·50 + 2·100)·d = 400·d ns.
        assert_eq!(s.logical_cycle_time_ns(&q, 11).unwrap(), 4400.0);
        assert_eq!(s.physical_qubits_per_logical(11).unwrap(), 242);

        let qm = PhysicalQubit::qubit_maj_ns_e4();
        let f = QecScheme::floquet_code();
        // 3·100·d ns.
        assert_eq!(f.logical_cycle_time_ns(&qm, 15).unwrap(), 4500.0);
        // 4·225 + 8·14 = 1012.
        assert_eq!(f.physical_qubits_per_logical(15).unwrap(), 1012);
    }

    #[test]
    fn distance_table_matches_direct_evaluation() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let table = s.distance_table(&q, 21);
        assert_eq!(table.rows().len(), 11);
        for row in table.rows() {
            let d = row.code_distance;
            assert_eq!(
                row.logical_error_rate,
                s.logical_error_rate(q.clifford_error_rate(), d)
            );
            assert_eq!(row.physical_qubits, s.physical_qubits_per_logical(d).ok());
            assert_eq!(row.cycle_time_ns, s.logical_cycle_time_ns(&q, d).ok());
        }
    }

    #[test]
    fn resolve_pairing_rules() {
        let gate = PhysicalQubit::qubit_gate_ns_e3();
        let maj = PhysicalQubit::qubit_maj_ns_e4();
        assert_eq!(
            QecScheme::resolve(QecSchemeKind::SurfaceCode, &gate)
                .unwrap()
                .crossing_prefactor,
            0.03
        );
        assert_eq!(
            QecScheme::resolve(QecSchemeKind::SurfaceCode, &maj)
                .unwrap()
                .crossing_prefactor,
            0.08
        );
        assert_eq!(
            QecScheme::resolve(QecSchemeKind::FloquetCode, &maj)
                .unwrap()
                .crossing_prefactor,
            0.07
        );
        assert!(QecScheme::resolve(QecSchemeKind::FloquetCode, &gate).is_err());
    }

    #[test]
    fn logical_qubit_construction() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let lq = s.logical_qubit(&q, 3.75e-16).unwrap();
        assert_eq!(lq.code_distance, 15);
        assert_eq!(lq.physical_qubits, 1012);
        assert_eq!(lq.cycle_time_ns, 4500.0);
        assert!(lq.logical_error_rate <= 3.75e-16);
        assert!((lq.logical_cycles_per_second() - 1e9 / 4500.0).abs() < 1e-6);
    }

    #[test]
    fn instruction_set_mismatch_rejected() {
        let gate = PhysicalQubit::qubit_gate_ns_e3();
        let floquet = QecScheme::floquet_code();
        assert!(floquet.logical_qubit(&gate, 1e-9).is_err());
    }

    #[test]
    fn custom_scheme_formulas() {
        // A custom scheme with different formulas (Section IV-C.2: "specify a
        // completely custom protocol").
        let custom = QecScheme {
            name: "custom_code".into(),
            instruction_set: InstructionSet::GateBased,
            error_correction_threshold: 0.02,
            crossing_prefactor: 0.05,
            logical_cycle_time: Formula::parse("10 * oneQubitGateTime * codeDistance").unwrap(),
            physical_qubits_per_logical_qubit: Formula::parse("3 * codeDistance ^ 2 + 1").unwrap(),
            max_code_distance: 25,
        };
        let q = PhysicalQubit::qubit_gate_ns_e3();
        let lq = custom.logical_qubit(&q, 1e-10).unwrap();
        assert!(lq.code_distance % 2 == 1);
        assert_eq!(
            lq.physical_qubits,
            3 * u64::from(lq.code_distance) * u64::from(lq.code_distance) + 1
        );
        assert_eq!(lq.cycle_time_ns, 10.0 * 50.0 * f64::from(lq.code_distance));
    }

    #[test]
    fn scheme_json() {
        let v = QecScheme::floquet_code().to_json();
        assert_eq!(v.get("name").unwrap().as_str(), Some("floquet_code"));
        assert_eq!(v.get("crossingPrefactor").unwrap().as_f64(), Some(0.07));
        assert!(v
            .get("logicalCycleTime")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("codeDistance"));
    }
}
