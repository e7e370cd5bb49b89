//! The physical resource estimation pipeline (paper Section III), including
//! the constraint resolution of Section IV-C.4.
//!
//! [`crate::Estimator::estimate`] runs an [`EstimateRequest`] through the
//! full flow:
//!
//! 1. layout (Section III-B): post-layout qubits, algorithmic depth, T-state
//!    demand,
//! 2. error correction (III-C): required logical error rate →
//!    code distance → logical qubit,
//! 3. T factories (III-D): pipeline search, copy count, run count,
//! 4. totals and rQOPS (III-E).
//!
//! Constraints couple the stages: capping T-factory copies (or asking for a
//! logical-cycle slowdown) stretches the executed cycle count, which
//! tightens the per-cycle logical error requirement, which can bump the code
//! distance, which changes the cycle time and hence the factory schedule —
//! so the solver iterates these stages to a fixed point (bounded, since the
//! distance is monotone and bounded).

use crate::cache::FactoryCache;
use crate::error::{Error, Result};
use crate::layout::{layout, LogicalLayout};
use crate::request::EstimateRequest;
use crate::result::{EstimationResult, PhysicalCounts, ResourceBreakdown};
use crate::tfactory::TFactory;

/// Component-level constraints (paper Section IV-C.4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Constraints {
    /// Stretch the executed logical cycles by at least this factor (≥ 1):
    /// the "logical cycle slowdown" knob trading runtime for fewer factory
    /// copies.
    pub logical_depth_factor: Option<f64>,
    /// Cap on parallel T-factory copies.
    pub max_t_factories: Option<u64>,
    /// Cap on total runtime (ns).
    pub max_duration_ns: Option<f64>,
    /// Cap on total physical qubits.
    pub max_physical_qubits: Option<u64>,
}

impl Constraints {
    fn validate(&self) -> Result<()> {
        if let Some(f) = self.logical_depth_factor {
            if !(f.is_finite() && f >= 1.0) {
                return Err(Error::InvalidInput(format!(
                    "logicalDepthFactor must be >= 1, got {f}"
                )));
            }
        }
        if self.max_t_factories == Some(0) {
            return Err(Error::InvalidInput(
                "maxTFactories must be at least 1".into(),
            ));
        }
        if let Some(d) = self.max_duration_ns {
            if !(d.is_finite() && d > 0.0) {
                return Err(Error::InvalidInput(format!(
                    "maxDurationNs must be positive, got {d}"
                )));
            }
        }
        if self.max_physical_qubits == Some(0) {
            return Err(Error::InvalidInput(
                "maxPhysicalQubits must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

impl EstimateRequest {
    /// Run the full estimation flow, memoizing the T-factory design search
    /// through `cache` (the step behind every [`crate::Estimator`] entry
    /// point).
    pub(crate) fn estimate_with(&self, cache: &FactoryCache) -> Result<EstimationResult> {
        self.qubit.validate()?;
        self.constraints.validate()?;
        let lay = layout(&self.counts, self.budget.rotations)?;

        // Stage independent of the distance loop: the T factory design.
        let (factory, required_t_error, mut assumptions) = self.design_factory(&lay, cache)?;

        // Iterate the coupled distance/factory-count stages to a fixed point.
        let solved = self.solve(&lay, factory.as_ref())?;

        // Global constraint checks — physical-qubit caps may force a factory
        // trade; duration caps are hard failures (runtime cannot shrink).
        let solved = self.apply_physical_qubit_cap(&lay, factory.as_ref(), solved)?;
        if let Some(max_ns) = self.constraints.max_duration_ns {
            if solved.runtime_ns > max_ns {
                return Err(Error::ConstraintViolated(format!(
                    "runtime {} ns exceeds maxDurationNs {} ns",
                    solved.runtime_ns, max_ns
                )));
            }
        }

        assumptions.extend(standard_assumptions());
        let rqops = lay.logical_qubits as f64 * solved.logical_qubit.logical_cycles_per_second();
        Ok(EstimationResult {
            physical_counts: PhysicalCounts {
                physical_qubits: solved.physical_qubits_algorithm
                    + solved.physical_qubits_factories,
                runtime_ns: solved.runtime_ns,
                rqops,
            },
            breakdown: ResourceBreakdown {
                algorithmic_logical_qubits: lay.logical_qubits,
                algorithmic_depth: lay.algorithmic_depth,
                num_cycles: solved.num_cycles,
                logical_depth_factor: solved.num_cycles as f64 / lay.algorithmic_depth as f64,
                clock_frequency_hz: solved.logical_qubit.logical_cycles_per_second(),
                num_t_states: lay.t_states,
                num_t_factories: solved.num_factories,
                num_t_factory_runs: solved.num_factory_runs,
                physical_qubits_for_algorithm: solved.physical_qubits_algorithm,
                physical_qubits_for_t_factories: solved.physical_qubits_factories,
                required_logical_error_rate: solved.required_logical_error_rate,
                required_t_state_error_rate: required_t_error,
                t_states_per_rotation: lay.t_states_per_rotation,
            },
            logical_qubit: solved.logical_qubit,
            qec_scheme: self.scheme.clone(),
            t_factory: factory,
            pre_layout: self.counts,
            error_budget: self.budget,
            physical_qubit: self.qubit.clone(),
            assumptions,
        })
    }

    /// Decide whether distillation is needed and search the factory design
    /// (memoized through `cache`).
    fn design_factory(
        &self,
        lay: &LogicalLayout,
        cache: &FactoryCache,
    ) -> Result<(Option<TFactory>, Option<f64>, Vec<String>)> {
        let mut assumptions = Vec::new();
        if lay.t_states == 0 {
            return Ok((None, None, assumptions));
        }
        if self.budget.t_states <= 0.0 {
            return Err(Error::InvalidInput(
                "the T-state error budget is zero but the algorithm consumes T states".into(),
            ));
        }
        let required = self.budget.t_states / lay.t_states as f64;
        if self.qubit.t_gate_error <= required {
            assumptions.push(
                "raw physical T states already meet the T-state error budget; no distillation"
                    .to_string(),
            );
            return Ok((None, Some(required), assumptions));
        }
        let factory =
            cache.find_factory(&self.factory_builder, &self.qubit, &self.scheme, required)?;
        Ok((Some(factory), Some(required), assumptions))
    }

    /// Fixed-point solve of the coupled distance / factory-count stages.
    fn solve(&self, lay: &LogicalLayout, factory: Option<&TFactory>) -> Result<Solved> {
        let mut depth_factor = self.constraints.logical_depth_factor.unwrap_or(1.0);
        let base_depth = lay.algorithmic_depth.max(1);

        for _ in 0..64 {
            let scaled_depth = (base_depth as f64) * depth_factor;
            // The stretch factor grows in-loop from factory durations and
            // constraint ratios; a pathological input (e.g. an infinite
            // factory duration) drives it non-finite or past u64 range,
            // where a bare `as u64` cast would silently saturate to
            // u64::MAX cycles instead of failing.
            if !scaled_depth.is_finite() || scaled_depth >= u64::MAX as f64 {
                return Err(Error::NoConvergence);
            }
            let num_cycles = scaled_depth.ceil() as u64;
            let required_logical =
                self.budget.logical / (lay.logical_qubits as f64 * num_cycles as f64);
            let lq = self.scheme.logical_qubit(&self.qubit, required_logical)?;
            let runtime_ns = num_cycles as f64 * lq.cycle_time_ns;

            let Some(factory) = factory else {
                return Ok(Solved {
                    logical_qubit: lq,
                    num_cycles,
                    runtime_ns,
                    num_factories: 0,
                    num_factory_runs: 0,
                    physical_qubits_algorithm: lay.logical_qubits * lq.physical_qubits,
                    physical_qubits_factories: 0,
                    required_logical_error_rate: required_logical,
                });
            };

            let runs_needed = lay.t_states.div_ceil(factory.output_t_states.max(1));
            let runs_per_factory = (runtime_ns / factory.duration_ns).floor() as u64;
            if runs_per_factory == 0 {
                // The factory cannot complete even once within the runtime:
                // stretch the algorithm to cover one factory run.
                let needed = factory.duration_ns / (base_depth as f64 * lq.cycle_time_ns);
                depth_factor = if needed > depth_factor {
                    needed * 1.000_001
                } else {
                    depth_factor * 1.01
                };
                continue;
            }
            let mut num_factories = runs_needed.div_ceil(runs_per_factory);
            if let Some(max_f) = self.constraints.max_t_factories {
                if num_factories > max_f {
                    // Stretch the runtime so `max_f` copies suffice.
                    let runs_per_needed = runs_needed.div_ceil(max_f);
                    let needed_runtime = runs_per_needed as f64 * factory.duration_ns;
                    let needed_factor = needed_runtime / (base_depth as f64 * lq.cycle_time_ns);
                    if needed_factor > depth_factor * (1.0 + 1e-9) {
                        depth_factor = needed_factor;
                        continue;
                    }
                    num_factories = max_f;
                }
            }
            return Ok(Solved {
                logical_qubit: lq,
                num_cycles,
                runtime_ns,
                num_factories,
                num_factory_runs: runs_needed,
                physical_qubits_algorithm: lay.logical_qubits * lq.physical_qubits,
                physical_qubits_factories: num_factories * factory.physical_qubits,
                required_logical_error_rate: required_logical,
            });
        }
        Err(Error::NoConvergence)
    }

    /// If a physical-qubit cap is violated, trade factory copies for runtime
    /// (re-entering the solver with a tighter factory cap), as the paper's
    /// T-factory constraints describe.
    fn apply_physical_qubit_cap(
        &self,
        lay: &LogicalLayout,
        factory: Option<&TFactory>,
        solved: Solved,
    ) -> Result<Solved> {
        let Some(max_q) = self.constraints.max_physical_qubits else {
            return Ok(solved);
        };
        let mut current = solved;
        for _ in 0..16 {
            let total = current.physical_qubits_algorithm + current.physical_qubits_factories;
            if total <= max_q {
                return Ok(current);
            }
            let Some(factory) = factory else {
                return Err(Error::ConstraintViolated(format!(
                    "the algorithm alone needs {} physical qubits, above maxPhysicalQubits {}",
                    current.physical_qubits_algorithm, max_q
                )));
            };
            if current.num_factories <= 1 {
                return Err(Error::ConstraintViolated(format!(
                    "{} physical qubits needed even with a single T factory, above maxPhysicalQubits {}",
                    total, max_q
                )));
            }
            let headroom = max_q.saturating_sub(current.physical_qubits_algorithm);
            let fit = headroom / factory.physical_qubits.max(1);
            if fit == 0 {
                return Err(Error::ConstraintViolated(format!(
                    "no room for any T factory under maxPhysicalQubits {max_q}"
                )));
            }
            let capped = Self {
                constraints: Constraints {
                    max_t_factories: Some(fit.min(current.num_factories - 1)),
                    ..self.constraints
                },
                ..self.clone()
            };
            current = capped.solve(lay, Some(factory))?;
        }
        Err(Error::NoConvergence)
    }
}

/// Internal fixed-point solution.
#[derive(Debug, Clone, Copy)]
struct Solved {
    logical_qubit: crate::qec::LogicalQubit,
    num_cycles: u64,
    runtime_ns: f64,
    num_factories: u64,
    num_factory_runs: u64,
    physical_qubits_algorithm: u64,
    physical_qubits_factories: u64,
    required_logical_error_rate: f64,
}

fn standard_assumptions() -> Vec<String> {
    vec![
        "2D nearest-neighbour planar layout with alternating algorithm/ancilla rows".into(),
        "logical operations execute as a fully sequenced stream of multi-qubit Pauli measurements"
            .into(),
        "CCZ and CCiX gates cost 3 logical cycles and 4 T states each".into(),
        "arbitrary rotations synthesise at ⌈0.53·log2(rotations/budget) + 5.3⌉ T states each"
            .into(),
        "uniform physical error rates; QEC failure model a·(p/p*)^((d+1)/2)".into(),
        "T factories run continuously and independently of the algorithm's schedule".into(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ErrorBudget;
    use crate::physical_qubit::PhysicalQubit;
    use crate::qec::QecScheme;
    use crate::tfactory::{default_distillation_units, TFactoryBuilder};
    use qre_circuit::LogicalCounts;

    fn base_counts() -> LogicalCounts {
        LogicalCounts {
            num_qubits: 100,
            t_count: 10_000,
            ccz_count: 5_000,
            measurement_count: 20_000,
            ..Default::default()
        }
    }

    fn estimation(counts: LogicalCounts) -> EstimateRequest {
        EstimateRequest {
            counts,
            qubit: PhysicalQubit::qubit_gate_ns_e3(),
            scheme: QecScheme::surface_code_gate_based(),
            budget: ErrorBudget::from_total(1e-3).unwrap(),
            constraints: Constraints::default(),
            factory_builder: TFactoryBuilder::default(),
        }
    }

    /// One estimate through a fresh engine.
    fn run(request: &EstimateRequest) -> Result<EstimationResult> {
        crate::Estimator::new().estimate(request)
    }

    #[test]
    fn basic_estimate_is_consistent() {
        let r = run(&estimation(base_counts())).unwrap();
        let b = &r.breakdown;
        // Layout identity.
        assert_eq!(b.algorithmic_logical_qubits, 2 * 100 + 29 + 1);
        // Depth formula.
        assert_eq!(b.algorithmic_depth, 20_000 + 10_000 + 3 * 5_000);
        assert_eq!(b.num_cycles, b.algorithmic_depth);
        // T states.
        assert_eq!(b.num_t_states, 10_000 + 4 * 5_000);
        // Physical totals add up.
        assert_eq!(
            r.physical_counts.physical_qubits,
            b.physical_qubits_for_algorithm + b.physical_qubits_for_t_factories
        );
        assert_eq!(
            b.physical_qubits_for_algorithm,
            b.algorithmic_logical_qubits * r.logical_qubit.physical_qubits
        );
        // Runtime = cycles × cycle time.
        let want = b.num_cycles as f64 * r.logical_qubit.cycle_time_ns;
        assert!((r.physical_counts.runtime_ns - want).abs() < 1.0);
        // rQOPS = logical qubits × clock frequency.
        let want =
            b.algorithmic_logical_qubits as f64 * r.logical_qubit.logical_cycles_per_second();
        assert!((r.physical_counts.rqops - want).abs() / want < 1e-12);
        // A factory exists and meets its requirement.
        let f = r.t_factory.as_ref().unwrap();
        assert!(f.output_error_rate <= b.required_t_state_error_rate.unwrap());
        // Factories fit their run schedule.
        assert!(b.num_t_factories >= 1);
        let runs_per = (r.physical_counts.runtime_ns / f.duration_ns).floor() as u64;
        assert!(b.num_t_factories * runs_per >= b.num_t_factory_runs);
    }

    #[test]
    fn clifford_only_program_needs_no_factories() {
        let counts = LogicalCounts {
            num_qubits: 50,
            measurement_count: 1_000,
            ..Default::default()
        };
        let r = run(&estimation(counts)).unwrap();
        assert!(r.t_factory.is_none());
        assert_eq!(r.breakdown.num_t_factories, 0);
        assert_eq!(r.breakdown.physical_qubits_for_t_factories, 0);
        assert!(r.physical_counts.physical_qubits > 0);
    }

    #[test]
    fn pathological_factory_duration_fails_cleanly() {
        // An infinite factory duration drives the depth stretch factor
        // non-finite; the solver used to saturate the cycle count to
        // u64::MAX instead of reporting non-convergence.
        let est = estimation(base_counts());
        let lay = layout(&est.counts, est.budget.rotations).unwrap();
        let factory = TFactory {
            rounds: Vec::new(),
            physical_qubits: 1_000,
            duration_ns: f64::INFINITY,
            output_error_rate: 1e-12,
            output_t_states: 1,
            input_error_rate: 1e-3,
        };
        assert_eq!(
            est.solve(&lay, Some(&factory)).unwrap_err(),
            Error::NoConvergence
        );

        // A finite but astronomical duration overflows u64 range the same
        // way once the stretch factor covers one factory run.
        let factory = TFactory {
            duration_ns: 1e300,
            ..factory
        };
        assert_eq!(
            est.solve(&lay, Some(&factory)).unwrap_err(),
            Error::NoConvergence
        );
    }

    #[test]
    fn max_t_factories_trades_qubits_for_runtime() {
        let base = run(&estimation(base_counts())).unwrap();
        let unconstrained = base.breakdown.num_t_factories;
        assert!(unconstrained > 1, "test needs a multi-factory baseline");
        let mut capped_est = estimation(base_counts());
        capped_est.constraints.max_t_factories = Some(1);
        let capped = run(&capped_est).unwrap();
        assert_eq!(capped.breakdown.num_t_factories, 1);
        assert!(
            capped.physical_counts.runtime_ns >= base.physical_counts.runtime_ns,
            "fewer factories must not speed things up"
        );
        assert!(
            capped.breakdown.physical_qubits_for_t_factories
                < base.breakdown.physical_qubits_for_t_factories
        );
    }

    #[test]
    fn logical_depth_factor_stretches_runtime() {
        let base = run(&estimation(base_counts())).unwrap();
        let mut slow = estimation(base_counts());
        slow.constraints.logical_depth_factor = Some(4.0);
        let slow = run(&slow).unwrap();
        assert!(slow.breakdown.num_cycles >= 4 * base.breakdown.algorithmic_depth);
        assert!(slow.physical_counts.runtime_ns > base.physical_counts.runtime_ns * 3.0);
        // Fewer (or equal) factories are needed at the slower clock.
        assert!(slow.breakdown.num_t_factories <= base.breakdown.num_t_factories);
    }

    #[test]
    fn max_duration_violation_reported() {
        let mut est = estimation(base_counts());
        est.constraints.max_duration_ns = Some(1.0); // 1 ns: impossible
        match run(&est) {
            Err(Error::ConstraintViolated(msg)) => assert!(msg.contains("maxDuration")),
            other => panic!("expected ConstraintViolated, got {other:?}"),
        }
    }

    #[test]
    fn max_physical_qubits_trades_factories() {
        let base = run(&estimation(base_counts())).unwrap();
        assert!(base.breakdown.num_t_factories > 1);
        // Force at least one factory to be traded away; keep generous
        // headroom so a stretch-induced distance bump stays feasible.
        let cap = base.physical_counts.physical_qubits - 1;
        let mut est = estimation(base_counts());
        est.constraints.max_physical_qubits = Some(cap);
        let capped = run(&est).unwrap();
        assert!(capped.physical_counts.physical_qubits <= cap);
        assert!(capped.breakdown.num_t_factories < base.breakdown.num_t_factories);
        assert!(capped.physical_counts.runtime_ns >= base.physical_counts.runtime_ns);
    }

    #[test]
    fn impossible_qubit_cap_reported() {
        let mut est = estimation(base_counts());
        est.constraints.max_physical_qubits = Some(10);
        match run(&est) {
            Err(Error::ConstraintViolated(_)) => {}
            other => panic!("expected ConstraintViolated, got {other:?}"),
        }
    }

    #[test]
    fn raw_t_states_when_budget_is_loose() {
        // Very few T states and a generous budget: the raw T error (1e-3)
        // can beat the requirement, so no factory is designed.
        let counts = LogicalCounts {
            num_qubits: 4,
            t_count: 10,
            measurement_count: 10,
            ..Default::default()
        };
        let mut est = estimation(counts);
        est.budget = ErrorBudget::from_parts(1e-3, 0.5, 0.0).unwrap();
        let r = run(&est).unwrap();
        assert!(r.t_factory.is_none());
        assert!(r
            .assumptions
            .iter()
            .any(|a| a.contains("raw physical T states")));
    }

    #[test]
    fn tighter_budget_costs_more() {
        let loose = {
            let mut e = estimation(base_counts());
            e.budget = ErrorBudget::from_total(1e-2).unwrap();
            run(&e).unwrap()
        };
        let tight = {
            let mut e = estimation(base_counts());
            e.budget = ErrorBudget::from_total(1e-8).unwrap();
            run(&e).unwrap()
        };
        assert!(tight.logical_qubit.code_distance > loose.logical_qubit.code_distance);
        assert!(tight.physical_counts.physical_qubits > loose.physical_counts.physical_qubits);
        assert!(tight.physical_counts.runtime_ns > loose.physical_counts.runtime_ns);
    }

    #[test]
    fn tighter_budget_can_trade_factory_copies_for_qubits() {
        // Tightening 1e-2 → 1e-3 raises the code distance (13 → 15) and so
        // the runtime, and the copy count — a ceiling over the runtime —
        // drops from 25 to 24. One copy saved outweighs the larger
        // patches, so the tighter budget needs *fewer* physical qubits.
        let counts = LogicalCounts {
            num_qubits: 1,
            ccz_count: 24_781,
            ..Default::default()
        };
        let with_budget = |total: f64| {
            let mut request = estimation(counts);
            request.budget = ErrorBudget::from_total(total).unwrap();
            run(&request).unwrap()
        };
        let (loose, tight) = (with_budget(1e-2), with_budget(1e-3));
        assert_eq!(
            (
                loose.logical_qubit.code_distance,
                tight.logical_qubit.code_distance
            ),
            (13, 15)
        );
        assert!(tight.physical_counts.runtime_ns > loose.physical_counts.runtime_ns);
        assert_eq!(
            (
                loose.breakdown.num_t_factories,
                tight.breakdown.num_t_factories
            ),
            (25, 24)
        );
        assert_eq!(
            (
                loose.physical_counts.physical_qubits,
                tight.physical_counts.physical_qubits
            ),
            (777_028, 746_700)
        );
    }

    #[test]
    fn rotations_consume_synthesis_budget() {
        let counts = LogicalCounts {
            num_qubits: 20,
            rotation_count: 1_000,
            rotation_depth: 400,
            measurement_count: 500,
            ..Default::default()
        };
        let r = run(&estimation(counts)).unwrap();
        assert!(r.breakdown.t_states_per_rotation > 10);
        assert_eq!(
            r.breakdown.num_t_states,
            r.breakdown.t_states_per_rotation * 1_000
        );
        // Depth includes the synthesis expansion.
        assert_eq!(
            r.breakdown.algorithmic_depth,
            500 + 1_000 + r.breakdown.t_states_per_rotation * 400
        );
    }

    #[test]
    fn default_units_are_exposed() {
        assert_eq!(default_distillation_units().len(), 2);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let r = run(&estimation(base_counts())).unwrap();
        let text = r.to_json().to_string_pretty();
        let doc = qre_json::parse(&text).unwrap();
        assert_eq!(
            doc.get_path("physicalCounts.physicalQubits")
                .unwrap()
                .as_u64()
                .unwrap(),
            r.physical_counts.physical_qubits
        );
        assert_eq!(
            doc.get_path("breakdown.numTfactories")
                .unwrap()
                .as_u64()
                .unwrap(),
            r.breakdown.num_t_factories
        );
        assert_eq!(doc.get("status").unwrap().as_str(), Some("success"));
        // The report renders every group.
        let report = r.to_report();
        for heading in [
            "Physical resource estimates",
            "Resource estimates breakdown",
            "Logical qubit parameters",
            "T factory parameters",
            "Pre-layout logical resources",
            "Assumed error budget",
            "Physical qubit parameters",
            "Assumptions",
        ] {
            assert!(report.contains(heading), "missing {heading}");
        }
    }
}
