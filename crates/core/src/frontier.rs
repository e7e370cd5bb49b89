//! Qubit/runtime trade-off frontier estimation.
//!
//! Beyond the single default estimate, the tool can explore the trade-off
//! the paper's Section IV-C.4 describes: slowing the computation down lets
//! fewer T-factory copies feed the same T-state demand, shrinking the qubit
//! footprint at the cost of runtime. [`Estimator::frontier`] sweeps the
//! factory-copy cap from the unconstrained optimum down to one copy and
//! returns the Pareto-optimal (physical qubits, runtime) points.
//!
//! [`Estimator::frontier_searched`] widens the search to the second design
//! axis the paper's Section IV-C.3 leaves free: the error-budget partition.
//! A deterministic [`PartitionSearch`] grid of ε_log/ε_dis splits (ε_syn
//! charged only when the program has rotations) is crossed with the cap
//! axis, and the whole two-axis product reduces to one exact Pareto set.
//! Because the request's own partition is always a grid point and its full
//! cap ladder is always explored, the searched frontier weakly dominates
//! the fixed-partition frontier point-for-point by construction.
//!
//! Both sweeps are expressed as [`SweepSpec`] axes and executed by
//! [`Estimator::sweep`] — the same parallel, cache-backed path as every
//! other batch workload — so the (expensive) T-factory design is searched
//! once per required-T-error family and shared by every re-estimate in that
//! family.

use crate::budget::{ErrorBudget, PartitionSearch};
use crate::engine::Estimator;
use crate::error::Result;
use crate::estimate::Constraints;
use crate::request::{EstimateRequest, SweepScheme, SweepSpec};
use crate::result::EstimationResult;

/// One point on the qubit/runtime frontier.
#[derive(Debug, Clone)]
pub struct FrontierPoint {
    /// The factory-copy cap that produced this point.
    pub max_t_factories: u64,
    /// The error-budget partition that produced this point (the request's
    /// own partition for fixed-partition frontiers).
    pub budget: ErrorBudget,
    /// The full estimate at that cap and partition.
    pub result: EstimationResult,
}

/// The fixed-partition frontier of `request` through `engine` (the
/// implementation behind [`Estimator::frontier`]).
///
/// Returns points sorted by descending physical qubits (i.e. ascending
/// runtime), reduced to the Pareto frontier. For T-free programs the result
/// is the single unconstrained estimate.
pub(crate) fn frontier(
    engine: &Estimator,
    request: &EstimateRequest,
) -> Result<Vec<FrontierPoint>> {
    let base = engine.estimate(request)?;
    let max_factories = base.breakdown.num_t_factories;
    if max_factories <= 1 {
        return Ok(vec![FrontierPoint {
            max_t_factories: max_factories,
            budget: request.budget,
            result: base,
        }]);
    }

    // The cap axis as a sweep over one scenario; infeasible caps report
    // their error in place and are dropped below. The cap axis is the only
    // multi-valued axis, so the expansion order is the cap order.
    let caps = cap_ladder(max_factories);
    let spec = scenario_spec(request)
        .budget(request.budget)
        .constraint_axis(cap_constraints(request, &caps));
    let points: Vec<FrontierPoint> = caps
        .into_iter()
        .zip(engine.sweep(&spec)?)
        .filter_map(|(cap, item)| {
            item.outcome.ok().map(|result| FrontierPoint {
                max_t_factories: cap,
                budget: request.budget,
                result,
            })
        })
        .collect();
    Ok(pareto_reduce(points))
}

/// The two-axis (budget partition × factory-copy cap) frontier of `request`
/// through `engine` (the implementation behind
/// [`Estimator::frontier_searched`]).
///
/// The candidate partitions come from `search`'s grid over the request's
/// own total budget (the request's partition is always the first grid
/// point); the cap axis is the union of every feasible partition's cap
/// ladder, so the fixed-partition frontier's entire search space is a
/// subset of this one and the result weakly dominates it point-for-point.
/// Returns points in the same descending-qubits order as [`frontier`], each
/// carrying the partition that produced it.
pub(crate) fn frontier_searched(
    engine: &Estimator,
    request: &EstimateRequest,
    search: &PartitionSearch,
) -> Result<Vec<FrontierPoint>> {
    let has_rotations = request.counts.rotation_count > 0;
    let budgets = search.grid(&request.budget, has_rotations);

    // Phase 1: unconstrained base estimate per candidate partition, as one
    // budget-axis sweep — every partition family's factory design lands in
    // the shared cache before the two-axis product reuses it, and each
    // family's natural factory count sizes the cap axis below.
    let base_spec = scenario_spec(request)
        .budgets(budgets.iter().copied())
        .constraint(request.constraints);
    let bases: Vec<_> = engine
        .sweep(&base_spec)?
        .into_iter()
        .map(|item| item.outcome)
        .collect();

    // If no candidate partition is feasible, surface the request's own
    // partition's error — the same failure the fixed frontier reports.
    if bases.iter().all(|b| b.is_err()) {
        let first = bases.into_iter().next().expect("grid is never empty");
        return Err(first.expect_err("all bases checked to be errors"));
    }

    // Cap axis: the union of each feasible partition's own ladder. A cap
    // above a partition's natural count is a non-binding constraint that
    // reproduces its unconstrained point, so every family's full trade-off
    // range — including the base point itself — is covered by the product.
    let mut caps: Vec<u64> = bases
        .iter()
        .filter_map(|b| b.as_ref().ok())
        .flat_map(|r| cap_ladder(r.breakdown.num_t_factories.max(1)))
        .collect();
    caps.sort_unstable();
    caps.dedup();

    // Phase 2: the full (partition × cap) product as one two-axis sweep.
    // Expansion is row-major with budgets outer and constraints inner, so
    // the outcomes arrive as consecutive per-partition runs of the caps.
    let spec = scenario_spec(request)
        .budgets(budgets.iter().copied())
        .constraint_axis(cap_constraints(request, &caps));
    let outcomes = engine.sweep(&spec)?;
    let points: Vec<FrontierPoint> = budgets
        .iter()
        .flat_map(|budget| caps.iter().map(move |&cap| (*budget, cap)))
        .zip(outcomes)
        .filter_map(|((budget, cap), item)| {
            item.outcome.ok().map(|result| FrontierPoint {
                max_t_factories: cap,
                budget,
                result,
            })
        })
        .collect();
    Ok(pareto_reduce(points))
}

/// The cap axis: `request`'s constraints with each factory-copy cap in turn.
fn cap_constraints<'a>(
    request: &'a EstimateRequest,
    caps: &'a [u64],
) -> impl Iterator<Item = Constraints> + 'a {
    caps.iter().map(|&cap| Constraints {
        max_t_factories: Some(cap),
        ..request.constraints
    })
}

/// The scenario-under-sweep common to both frontier forms: one workload,
/// profile, scheme, and factory-search configuration, axes added by the
/// caller.
fn scenario_spec(request: &EstimateRequest) -> SweepSpec {
    SweepSpec::new()
        .workload("frontier", request.counts)
        .profile(request.qubit.clone())
        .scheme(SweepScheme::Custom(request.scheme.clone()))
        .factory_builder(request.factory_builder.clone())
}

/// The factory-cap ladder from one copy up to `max_factories`: every value
/// when small, geometrically thinned (×5/4) when large, always ending at
/// `max_factories`.
fn cap_ladder(max_factories: u64) -> Vec<u64> {
    let mut caps: Vec<u64> = Vec::new();
    let mut f = 1u64;
    while f < max_factories {
        caps.push(f);
        f = if max_factories <= 32 {
            f + 1
        } else {
            (f * 5 / 4).max(f + 1)
        };
    }
    caps.push(max_factories);
    caps
}

/// Warn about non-finite runtimes, then keep only the Pareto-optimal points
/// in descending-qubits (ascending-runtime) order.
fn pareto_reduce(points: Vec<FrontierPoint>) -> Vec<FrontierPoint> {
    // A non-finite runtime has no place on the frontier and would poison the
    // strict-improvement walk (every NaN comparison is false);
    // `pareto_indices` never selects such points — here we only warn.
    for p in &points {
        if !p.result.physical_counts.runtime_ns.is_finite() {
            eprintln!(
                "warning: dropping frontier point at max_t_factories={} with non-finite \
                 runtime {}",
                p.max_t_factories, p.result.physical_counts.runtime_ns
            );
        }
    }
    let kept = pareto_indices(
        &points
            .iter()
            .map(|p| {
                (
                    p.result.physical_counts.physical_qubits,
                    p.result.physical_counts.runtime_ns,
                )
            })
            .collect::<Vec<_>>(),
    );
    let mut points: Vec<Option<FrontierPoint>> = points.into_iter().map(Some).collect();
    kept.into_iter()
        .map(|i| points[i].take().expect("pareto indices are distinct"))
        .collect()
}

/// Pareto-reduce `(physical_qubits, runtime_ns)` pairs: the returned indices
/// select the non-dominated points, ordered by strictly decreasing qubits
/// and strictly increasing runtime. A point is dominated when another needs
/// no more qubits and no more runtime; among exact (qubits, runtime) ties
/// the earliest index survives. Non-finite runtimes are never selected.
fn pareto_indices(points: &[(u64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].1.is_finite())
        .collect();
    // Ascending qubits; ties broken by ascending runtime (total_cmp: no
    // NaN-induced incomparability even for the non-finite values filtered
    // above), then by index for a deterministic survivor.
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
            .then(a.cmp(&b))
    });
    // Walking from fewest qubits up, a point survives only by strictly
    // beating the best runtime seen so far: equal-qubit ties keep exactly
    // their fastest member, and spending more qubits must buy speed.
    let mut kept: Vec<usize> = Vec::new();
    let mut best_runtime = f64::INFINITY;
    for i in order {
        if points[i].1 < best_runtime {
            best_runtime = points[i].1;
            kept.push(i);
        }
    }
    // Restore the descending-qubits (ascending-runtime) frontier order.
    kept.reverse();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::ErrorBudget;
    use crate::physical_qubit::PhysicalQubit;
    use crate::qec::QecScheme;
    use crate::tfactory::TFactoryBuilder;
    use qre_circuit::LogicalCounts;

    fn request() -> EstimateRequest {
        EstimateRequest {
            counts: LogicalCounts {
                num_qubits: 100,
                t_count: 50_000,
                ccz_count: 20_000,
                measurement_count: 50_000,
                ..Default::default()
            },
            qubit: PhysicalQubit::qubit_gate_ns_e3(),
            scheme: QecScheme::surface_code_gate_based(),
            budget: ErrorBudget::from_total(1e-3).unwrap(),
            constraints: Constraints::default(),
            factory_builder: TFactoryBuilder::default(),
        }
    }

    #[test]
    fn frontier_is_monotone() {
        let frontier = Estimator::new().frontier(&request()).unwrap();
        assert!(frontier.len() >= 2, "expected a real trade-off curve");
        for w in frontier.windows(2) {
            let (a, b) = (&w[0].result.physical_counts, &w[1].result.physical_counts);
            assert!(
                a.physical_qubits > b.physical_qubits,
                "qubits must strictly decrease along the frontier"
            );
            assert!(
                a.runtime_ns < b.runtime_ns,
                "runtime must strictly increase along the frontier"
            );
        }
    }

    #[test]
    fn frontier_ends_at_single_factory() {
        let frontier = Estimator::new().frontier(&request()).unwrap();
        let last = frontier.last().unwrap();
        assert_eq!(last.result.breakdown.num_t_factories, 1);
    }

    #[test]
    fn frontier_contains_unconstrained_point() {
        let base = Estimator::new().estimate(&request()).unwrap();
        let frontier = Estimator::new().frontier(&request()).unwrap();
        let first = &frontier[0].result;
        assert_eq!(
            first.physical_counts.runtime_ns,
            base.physical_counts.runtime_ns
        );
    }

    #[test]
    fn t_free_program_has_singleton_frontier() {
        let mut est = request();
        est.counts = LogicalCounts {
            num_qubits: 10,
            measurement_count: 100,
            ..Default::default()
        };
        let frontier = Estimator::new().frontier(&est).unwrap();
        assert_eq!(frontier.len(), 1);
    }

    #[test]
    fn pareto_reduction_resolves_qubit_ties_to_one_survivor() {
        // Two points with equal qubit counts: the old strict-runtime walk
        // kept both, violating the strictly-decreasing-qubits invariant.
        let points = [(300, 50.0), (200, 100.0), (200, 80.0), (100, 400.0)];
        let kept = pareto_indices(&points);
        assert_eq!(kept, vec![0, 2, 3]);
        for w in kept.windows(2) {
            assert!(points[w[0]].0 > points[w[1]].0, "qubits strictly decrease");
            assert!(
                points[w[0]].1 < points[w[1]].1,
                "runtime strictly increases"
            );
        }
    }

    #[test]
    fn pareto_reduction_breaks_exact_ties_by_earliest_index() {
        let kept = pareto_indices(&[(200, 80.0), (200, 80.0)]);
        assert_eq!(kept, vec![0]);
    }

    #[test]
    fn pareto_reduction_drops_non_finite_runtimes() {
        // A NaN runtime used to poison best_runtime (every comparison with
        // NaN is false), silently shadowing later points; infinities are
        // equally meaningless on the frontier.
        let points = [
            (400, f64::NAN),
            (300, 50.0),
            (250, f64::INFINITY),
            (200, 100.0),
        ];
        assert_eq!(pareto_indices(&points), vec![1, 3]);
        assert_eq!(pareto_indices(&[(10, f64::NAN)]), Vec::<usize>::new());
    }

    #[test]
    fn pareto_reduction_drops_dominated_points() {
        // (250, 70) dominates (300, 70): same runtime, fewer qubits.
        let points = [(300, 70.0), (250, 70.0), (200, 90.0)];
        assert_eq!(pareto_indices(&points), vec![1, 2]);
    }

    #[test]
    fn searched_frontier_weakly_dominates_fixed() {
        let engine = Estimator::new();
        let est = request();
        let fixed = engine.frontier(&est).unwrap();
        let searched = engine
            .frontier_searched(&est, &PartitionSearch::default())
            .unwrap();
        for p in &fixed {
            let dominated = searched.iter().any(|q| {
                q.result.physical_counts.physical_qubits <= p.result.physical_counts.physical_qubits
                    && q.result.physical_counts.runtime_ns <= p.result.physical_counts.runtime_ns
            });
            assert!(
                dominated,
                "fixed point ({}, {}) not weakly dominated",
                p.result.physical_counts.physical_qubits, p.result.physical_counts.runtime_ns
            );
        }
    }

    #[test]
    fn searched_frontier_is_monotone_and_carries_partitions() {
        let est = request();
        let searched = Estimator::new()
            .frontier_searched(&est, &PartitionSearch::default())
            .unwrap();
        assert!(searched.len() >= 2);
        for w in searched.windows(2) {
            let (a, b) = (&w[0].result.physical_counts, &w[1].result.physical_counts);
            assert!(a.physical_qubits > b.physical_qubits);
            assert!(a.runtime_ns < b.runtime_ns);
        }
        for p in &searched {
            // Provenance: the partition that produced the point is the one
            // the estimate ran under, and shares the request's total.
            assert_eq!(p.budget, p.result.error_budget);
            assert!((p.budget.total() - est.budget.total()).abs() < 1e-12);
        }
    }

    #[test]
    fn searched_frontier_improves_on_fixed_for_rotation_free_program() {
        // The test workload has no rotations, so the default even-thirds
        // partition wastes a third of the budget on synthesis errors that
        // cannot occur; the grid reclaims it, and the searched frontier's
        // extreme points must strictly beat the fixed frontier's.
        let engine = Estimator::new();
        let est = request();
        assert_eq!(est.counts.rotation_count, 0);
        let fixed = engine.frontier(&est).unwrap();
        let searched = engine
            .frontier_searched(&est, &PartitionSearch::default())
            .unwrap();
        let min_qubits = |f: &[FrontierPoint]| {
            f.iter()
                .map(|p| p.result.physical_counts.physical_qubits)
                .min()
                .unwrap()
        };
        let min_runtime = |f: &[FrontierPoint]| {
            f.iter()
                .map(|p| p.result.physical_counts.runtime_ns)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(min_qubits(&searched) <= min_qubits(&fixed));
        assert!(min_runtime(&searched) <= min_runtime(&fixed));
        assert!(
            min_qubits(&searched) < min_qubits(&fixed)
                || min_runtime(&searched) < min_runtime(&fixed),
            "reclaiming the synthesis slice should improve at least one extreme"
        );
    }

    #[test]
    fn searched_frontier_handles_rotation_workloads() {
        let mut est = request();
        est.counts = LogicalCounts {
            num_qubits: 80,
            t_count: 20_000,
            measurement_count: 30_000,
            rotation_count: 500,
            rotation_depth: 500,
            ..Default::default()
        };
        let searched = Estimator::new()
            .frontier_searched(&est, &PartitionSearch::default())
            .unwrap();
        assert!(!searched.is_empty());
        for p in &searched {
            assert!(
                p.budget.rotations > 0.0,
                "rotation workloads must keep a synthesis slice"
            );
        }
    }

    #[test]
    fn searched_frontier_singleton_for_t_free_program() {
        let mut est = request();
        est.counts = LogicalCounts {
            num_qubits: 10,
            measurement_count: 100,
            ..Default::default()
        };
        let searched = Estimator::new()
            .frontier_searched(&est, &PartitionSearch::default())
            .unwrap();
        // Partitions differ only in slices a T-free program never spends,
        // except ε_log — the Pareto set collapses to the best logical slice.
        assert_eq!(searched.len(), 1);
        let fixed = Estimator::new().frontier(&est).unwrap();
        assert!(
            searched[0].result.physical_counts.physical_qubits
                <= fixed[0].result.physical_counts.physical_qubits
        );
    }
}
