//! Declarative estimation inputs: single requests and multi-axis sweeps.
//!
//! The paper's workloads are inherently batched — Figure 3 sweeps three
//! multipliers over ten bit-widths, Figure 4 sweeps six hardware profiles,
//! and the trade-off frontier re-estimates one scenario dozens of times — so
//! the estimation engine treats *many related estimates* as the unit of
//! work (the service's job arrays, Section IV-A). This module defines the
//! inputs:
//!
//! * [`EstimateRequest`] — one fully resolved scenario, assembled through
//!   [`EstimateRequestBuilder`],
//! * [`SweepSpec`] — declared axes (workloads × hardware profiles × QEC
//!   schemes × error budgets × constraints) whose cartesian product the
//!   engine runs in deterministic row-major order, item by item from its
//!   index, never as a list,
//! * [`SweepPoint`] — the coordinates of one expanded sweep item, carried
//!   alongside its outcome so callers can attribute results without
//!   re-deriving the expansion order.

use crate::budget::ErrorBudget;
use crate::error::{Error, Result};
use crate::estimate::Constraints;
use crate::physical_qubit::{InstructionSet, PhysicalQubit};
use crate::qec::{QecScheme, QecSchemeKind};
use crate::tfactory::{DistillationUnit, TFactoryBuilder};
use qre_circuit::LogicalCounts;

/// One fully resolved estimation scenario — the job-submission shape of
/// paper Section IV-A. Run it through [`crate::Estimator::estimate`] (or
/// [`crate::Estimator::frontier`] for its qubit/runtime trade-off curve).
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// Pre-layout logical counts of the algorithm.
    pub counts: LogicalCounts,
    /// Physical qubit model.
    pub qubit: PhysicalQubit,
    /// QEC scheme.
    pub scheme: QecScheme,
    /// Partitioned error budget.
    pub budget: ErrorBudget,
    /// Component constraints.
    pub constraints: Constraints,
    /// T-factory search configuration.
    pub factory_builder: TFactoryBuilder,
}

impl EstimateRequest {
    /// Start building a request.
    pub fn builder() -> EstimateRequestBuilder {
        EstimateRequestBuilder::default()
    }
}

/// QEC selection: a built-in kind or a fully custom scheme.
#[derive(Debug, Clone)]
enum QecChoice {
    Kind(QecSchemeKind),
    Custom(QecScheme),
}

/// Budget selection: total (split in thirds) or explicit parts.
#[derive(Debug, Clone, Copy)]
enum BudgetChoice {
    Total(f64),
    Parts {
        logical: f64,
        t_states: f64,
        rotations: f64,
    },
}

/// Builder for [`EstimateRequest`]: the algorithm (as logical counts), a
/// hardware profile, a QEC scheme, an error budget, and optional constraints
/// — the job-submission shape of paper Section IV-A.
#[derive(Debug, Clone, Default)]
pub struct EstimateRequestBuilder {
    counts: Option<LogicalCounts>,
    profile: Option<PhysicalQubit>,
    qec: Option<QecChoice>,
    budget: Option<BudgetChoice>,
    constraints: Constraints,
    distillation_units: Option<Vec<DistillationUnit>>,
}

impl EstimateRequestBuilder {
    /// The algorithm, as pre-layout logical counts (Section IV-B.3; counts
    /// from the circuit tracer or QIR front end plug in here too).
    pub fn counts(mut self, counts: LogicalCounts) -> Self {
        self.counts = Some(counts);
        self
    }

    /// The hardware profile (Section IV-C.1).
    pub fn profile(mut self, profile: PhysicalQubit) -> Self {
        self.profile = Some(profile);
        self
    }

    /// A built-in QEC scheme, resolved against the profile's instruction set.
    pub fn qec(mut self, kind: QecSchemeKind) -> Self {
        self.qec = Some(QecChoice::Kind(kind));
        self
    }

    /// A fully custom QEC scheme (Section IV-C.2).
    pub fn qec_custom(mut self, scheme: QecScheme) -> Self {
        self.qec = Some(QecChoice::Custom(scheme));
        self
    }

    /// Total error budget, split evenly across logical / T states /
    /// rotations (Section IV-C.3).
    pub fn total_error_budget(mut self, total: f64) -> Self {
        self.budget = Some(BudgetChoice::Total(total));
        self
    }

    /// Explicit per-part error budgets.
    pub fn error_budget_parts(mut self, logical: f64, t_states: f64, rotations: f64) -> Self {
        self.budget = Some(BudgetChoice::Parts {
            logical,
            t_states,
            rotations,
        });
        self
    }

    /// Logical-cycle slowdown factor (≥ 1; Section IV-C.4).
    pub fn logical_depth_factor(mut self, factor: f64) -> Self {
        self.constraints.logical_depth_factor = Some(factor);
        self
    }

    /// Cap on parallel T-factory copies (Section IV-C.4).
    pub fn max_t_factories(mut self, max: u64) -> Self {
        self.constraints.max_t_factories = Some(max);
        self
    }

    /// Cap on total runtime in nanoseconds.
    pub fn max_duration_ns(mut self, max: f64) -> Self {
        self.constraints.max_duration_ns = Some(max);
        self
    }

    /// Cap on total physical qubits.
    pub fn max_physical_qubits(mut self, max: u64) -> Self {
        self.constraints.max_physical_qubits = Some(max);
        self
    }

    /// Replace the distillation unit set (Section IV-C.5).
    pub fn distillation_units(mut self, units: Vec<DistillationUnit>) -> Self {
        self.distillation_units = Some(units);
        self
    }

    /// Validate and assemble the request.
    pub fn build(self) -> Result<EstimateRequest> {
        let counts = self
            .counts
            .ok_or_else(|| Error::InvalidInput("missing algorithm counts".into()))?;
        let qubit = self
            .profile
            .ok_or_else(|| Error::InvalidInput("missing hardware profile".into()))?;
        qubit.validate()?;
        let scheme = match self
            .qec
            .ok_or_else(|| Error::InvalidInput("missing QEC scheme".into()))?
        {
            QecChoice::Kind(kind) => QecScheme::resolve(kind, &qubit)?,
            QecChoice::Custom(scheme) => scheme,
        };
        let budget = match self
            .budget
            .ok_or_else(|| Error::InvalidInput("missing error budget".into()))?
        {
            BudgetChoice::Total(total) => ErrorBudget::from_total(total)?,
            BudgetChoice::Parts {
                logical,
                t_states,
                rotations,
            } => ErrorBudget::from_parts(logical, t_states, rotations)?,
        };
        let factory_builder = TFactoryBuilder {
            units: self
                .distillation_units
                .unwrap_or_else(crate::tfactory::default_distillation_units),
            ..TFactoryBuilder::default()
        };
        Ok(EstimateRequest {
            counts,
            qubit,
            scheme,
            budget,
            constraints: self.constraints,
            factory_builder,
        })
    }
}

/// One value on a sweep's QEC-scheme axis.
#[derive(Debug, Clone)]
pub enum SweepScheme {
    /// The paper's Figure 4 pairing: surface code for gate-based profiles,
    /// floquet code for Majorana profiles.
    ProfileDefault,
    /// A built-in kind, resolved against each profile's instruction set.
    Kind(QecSchemeKind),
    /// A fully custom scheme, used as-is for every profile.
    Custom(QecScheme),
}

impl SweepScheme {
    /// Resolve against a profile; errors (e.g. floquet on gate-based
    /// hardware) surface as the affected sweep item's outcome.
    pub(crate) fn resolve(&self, qubit: &PhysicalQubit) -> Result<QecScheme> {
        match self {
            SweepScheme::ProfileDefault => {
                let kind = match qubit.instruction_set {
                    InstructionSet::GateBased => QecSchemeKind::SurfaceCode,
                    InstructionSet::Majorana => QecSchemeKind::FloquetCode,
                };
                QecScheme::resolve(kind, qubit)
            }
            SweepScheme::Kind(kind) => QecScheme::resolve(*kind, qubit),
            SweepScheme::Custom(scheme) => Ok(scheme.clone()),
        }
    }

    /// Axis label used in [`SweepPoint`] when resolution fails.
    pub(crate) fn label(&self) -> String {
        match self {
            SweepScheme::ProfileDefault => "default".into(),
            SweepScheme::Kind(QecSchemeKind::SurfaceCode) => "surface_code".into(),
            SweepScheme::Kind(QecSchemeKind::FloquetCode) => "floquet_code".into(),
            SweepScheme::Custom(scheme) => scheme.name.clone(),
        }
    }
}

/// One shard of a sweep's row-major expansion: shard `index` of `count`
/// owns a contiguous block of the expanded item range, with block sizes
/// balanced to within one item. Shard boundaries are a pure function of
/// `(index, count, total items)`, so `count` cooperating processes that
/// each apply their own shard to the *same* [`SweepSpec`] partition the
/// sweep deterministically with no coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (`0..count`).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Validate and build a shard descriptor. `count` must be at least 1
    /// and `index` strictly less than `count`.
    pub fn new(index: usize, count: usize) -> Result<Shard> {
        if count == 0 {
            return Err(Error::InvalidInput(
                "`shard.count` must be at least 1".into(),
            ));
        }
        if index >= count {
            return Err(Error::InvalidInput(format!(
                "`shard.index` must be less than `shard.count`, got index {index} with count {count}"
            )));
        }
        Ok(Shard { index, count })
    }

    /// The contiguous range of expanded item indices this shard owns, given
    /// the sweep's total item count. The first `total % count` shards get
    /// one extra item; with `count > total` the trailing shards are empty.
    pub fn range(&self, total: usize) -> std::ops::Range<usize> {
        let base = total / self.count;
        let remainder = total % self.count;
        let start = self.index * base + self.index.min(remainder);
        let len = base + usize::from(self.index < remainder);
        start..start + len
    }
}

/// Declared axes of a sweep; the engine expands the cartesian product
/// workloads × profiles × schemes × budgets × constraints in row-major
/// order (workloads outermost, constraints innermost).
///
/// Unset axes default to a single neutral value: the profile-default QEC
/// pairing, a 10⁻³ total error budget, and unconstrained execution. The
/// workload and profile axes are mandatory.
///
/// ```
/// use qre_core::{Estimator, PhysicalQubit, SweepSpec};
/// use qre_circuit::LogicalCounts;
///
/// let counts = LogicalCounts::builder()
///     .logical_qubits(50)
///     .t_gates(10_000)
///     .measurements(5_000)
///     .build();
/// let spec = SweepSpec::new()
///     .workload("demo", counts)
///     .profiles(PhysicalQubit::default_profiles())
///     .total_error_budget(1e-4);
/// let outcomes = Estimator::new().sweep(&spec).unwrap();
/// assert_eq!(outcomes.len(), 6);
/// assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Labelled workloads (pre-layout logical counts).
    pub workloads: Vec<(String, LogicalCounts)>,
    /// Hardware profiles.
    pub profiles: Vec<PhysicalQubit>,
    /// QEC schemes (default: the profile pairing).
    pub schemes: Vec<SweepScheme>,
    /// Error budgets (default: total 10⁻³ split in thirds).
    pub budgets: Vec<ErrorBudget>,
    /// Component constraints (default: unconstrained).
    pub constraints: Vec<Constraints>,
    /// T-factory search configuration shared by every item.
    pub factory_builder: TFactoryBuilder,
    /// Restrict execution to one shard of the row-major expansion (`None`
    /// runs the full product). Expanded [`SweepPoint`]s keep their *global*
    /// indices, so the union of all shards' outcomes is item-for-item the
    /// unsharded sweep.
    pub shard: Option<Shard>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty spec with neutral defaults on the optional axes.
    pub fn new() -> Self {
        SweepSpec {
            workloads: Vec::new(),
            profiles: Vec::new(),
            schemes: Vec::new(),
            budgets: Vec::new(),
            constraints: Vec::new(),
            factory_builder: TFactoryBuilder::default(),
            shard: None,
        }
    }

    /// Append one labelled workload.
    pub fn workload(mut self, label: impl Into<String>, counts: LogicalCounts) -> Self {
        self.workloads.push((label.into(), counts));
        self
    }

    /// Append many labelled workloads.
    pub fn workloads(mut self, items: impl IntoIterator<Item = (String, LogicalCounts)>) -> Self {
        self.workloads.extend(items);
        self
    }

    /// Append one hardware profile.
    pub fn profile(mut self, profile: PhysicalQubit) -> Self {
        self.profiles.push(profile);
        self
    }

    /// Append many hardware profiles.
    pub fn profiles(mut self, profiles: impl IntoIterator<Item = PhysicalQubit>) -> Self {
        self.profiles.extend(profiles);
        self
    }

    /// Append one scheme-axis value.
    pub fn scheme(mut self, scheme: SweepScheme) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Append a built-in QEC scheme kind to the scheme axis.
    pub fn qec(self, kind: QecSchemeKind) -> Self {
        self.scheme(SweepScheme::Kind(kind))
    }

    /// Append one explicit error budget.
    pub fn budget(mut self, budget: ErrorBudget) -> Self {
        self.budgets.push(budget);
        self
    }

    /// Append a whole error-budget axis (e.g. a searched partition grid).
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = ErrorBudget>) -> Self {
        self.budgets.extend(budgets);
        self
    }

    /// Append a total error budget (split in thirds). An invalid total
    /// fails each item that uses it with [`Error::InvalidInput`].
    pub fn total_error_budget(mut self, total: f64) -> Self {
        // Defer validation to item building so the fluent chain stays
        // infallible; encode the pending total as an even split.
        self.budgets.push(ErrorBudget {
            logical: total / 3.0,
            t_states: total / 3.0,
            rotations: total / 3.0,
        });
        self
    }

    /// Append one constraint set.
    pub fn constraint(mut self, constraints: Constraints) -> Self {
        self.constraints.push(constraints);
        self
    }

    /// Append many constraint sets (the frontier's cap axis).
    pub fn constraint_axis(mut self, constraints: impl IntoIterator<Item = Constraints>) -> Self {
        self.constraints.extend(constraints);
        self
    }

    /// Replace the shared T-factory search configuration.
    pub fn factory_builder(mut self, builder: TFactoryBuilder) -> Self {
        self.factory_builder = builder;
        self
    }

    /// Restrict this spec to shard `index` of `count` (row-major contiguous
    /// partition; see [`Shard`]). Sharding an already-sharded spec is
    /// rejected — nested partitions of a partition are ambiguous.
    pub fn shard_of(mut self, index: usize, count: usize) -> Result<SweepSpec> {
        if self.shard.is_some() {
            return Err(Error::InvalidInput(
                "sweep is already sharded; shard the original spec instead".into(),
            ));
        }
        self.shard = Some(Shard::new(index, count)?);
        Ok(self)
    }

    /// Split this spec into `count` shards covering the whole row-major
    /// expansion: `spec.shard(n)[i]` equals `spec.shard_of(i, n)`. Shards
    /// beyond the item count come back empty ([`SweepSpec::len`] of 0), so
    /// `count` may exceed the number of expanded items. The join side is
    /// [`crate::merge_indexed`] in-process, or the `qre merge` CLI verb
    /// over the shard sessions' NDJSON output files.
    pub fn shard(&self, count: usize) -> Result<Vec<SweepSpec>> {
        (0..count)
            .map(|index| self.clone().shard_of(index, count))
            .collect::<Result<Vec<_>>>()
            .and_then(|shards| {
                if shards.is_empty() {
                    Err(Error::InvalidInput(
                        "`shard.count` must be at least 1".into(),
                    ))
                } else {
                    Ok(shards)
                }
            })
    }

    /// Number of items *this spec executes*: the shard's block when sharded,
    /// the whole cartesian product otherwise.
    pub fn len(&self) -> usize {
        match self.shard {
            Some(shard) => shard.range(self.total_len()).len(),
            None => self.total_len(),
        }
    }

    /// Number of items the full cartesian product expands to, ignoring any
    /// shard restriction. Saturates at `usize::MAX` when the axis product
    /// overflows; such a spec fails before any item runs.
    pub fn total_len(&self) -> usize {
        self.checked_total_len().unwrap_or(usize::MAX)
    }

    /// The axis product, or [`Error::InvalidInput`] naming the axis lengths
    /// when it overflows `usize`.
    pub(crate) fn checked_total_len(&self) -> Result<usize> {
        let axes = [
            ("workloads", self.workloads.len()),
            ("profiles", self.profiles.len()),
            ("schemes", self.schemes.len().max(1)),
            ("budgets", self.budgets.len().max(1)),
            ("constraints", self.constraints.len().max(1)),
        ];
        axes.iter()
            .try_fold(1usize, |product, &(_, len)| product.checked_mul(len))
            .ok_or_else(|| {
                let lengths: Vec<String> = axes
                    .iter()
                    .map(|(axis, len)| format!("{len} {axis}"))
                    .collect();
                Error::InvalidInput(format!(
                    "sweep axes ({}) expand to more items than fit in a usize",
                    lengths.join(" × ")
                ))
            })
    }

    /// `true` when a mandatory axis is empty or the shard's block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Check the sweep for running and resolve each (profile, scheme) cell
    /// once. Only an empty mandatory axis, or an axis product that
    /// overflows `usize`, fails the whole sweep, before any item is built;
    /// [`SweepItems::item`] reports every other failure in place.
    pub(crate) fn items(&self) -> Result<SweepItems<'_>> {
        if self.workloads.is_empty() {
            return Err(Error::InvalidInput(
                "sweep needs at least one workload".into(),
            ));
        }
        if self.profiles.is_empty() {
            return Err(Error::InvalidInput(
                "sweep needs at least one hardware profile".into(),
            ));
        }
        let total = self.checked_total_len()?;
        let schemes = match self.schemes.as_slice() {
            [] => &[SweepScheme::ProfileDefault],
            schemes => schemes,
        };
        let mut cells = Vec::with_capacity(self.profiles.len() * schemes.len());
        for qubit in &self.profiles {
            for axis in schemes {
                let scheme = qubit.validate().and_then(|()| axis.resolve(qubit));
                let name = scheme
                    .as_ref()
                    .map_or_else(|_| axis.label(), |s| s.name.clone());
                cells.push(SchemeCell {
                    qubit,
                    name,
                    scheme,
                });
            }
        }
        Ok(SweepItems {
            spec: self,
            cells,
            range: self.shard.map_or(0..total, |shard| shard.range(total)),
        })
    }
}

/// A checked sweep as a function from global item index to item, with
/// each (profile, scheme) cell resolved once, profile-major. No item list
/// exists: the engine builds item `i` with [`SweepItems::item`] on the
/// worker that estimates it.
pub(crate) struct SweepItems<'a> {
    spec: &'a SweepSpec,
    cells: Vec<SchemeCell<'a>>,
    /// The global indices this spec runs: its shard's block, or all.
    pub(crate) range: std::ops::Range<usize>,
}

/// One (profile, scheme-axis value) cell of a sweep, resolved once; `name`
/// is the axis label when resolution failed.
struct SchemeCell<'a> {
    qubit: &'a PhysicalQubit,
    name: String,
    scheme: Result<QecScheme>,
}

/// The budget of a sweep with no budget axis: 10⁻³ split in thirds.
const DEFAULT_BUDGET: ErrorBudget = ErrorBudget {
    logical: 1e-3 / 3.0,
    t_states: 1e-3 / 3.0,
    rotations: 1e-3 / 3.0,
};

impl SweepItems<'_> {
    /// Item `index` of the row-major expansion (workloads outermost, then
    /// profiles, schemes and budgets, constraints innermost): its
    /// coordinates, and its request or the error that fails it alone.
    pub(crate) fn item(&self, index: usize) -> (SweepPoint, Result<EstimateRequest>) {
        let (rest, constraints) = split(index, &self.spec.constraints, Constraints::default());
        let (rest, budget) = split(rest, &self.spec.budgets, DEFAULT_BUDGET);
        let cell = &self.cells[rest % self.cells.len()];
        let (workload, counts) = &self.spec.workloads[rest / self.cells.len()];
        let point = SweepPoint {
            index,
            workload: workload.clone(),
            profile: cell.qubit.name.clone(),
            scheme: cell.name.clone(),
            budget,
            constraints,
        };
        let request = cell.scheme.clone().and_then(|scheme| {
            Ok(EstimateRequest {
                counts: *counts,
                qubit: cell.qubit.clone(),
                scheme,
                budget: validated_budget(&budget)?,
                constraints,
                factory_builder: self.spec.factory_builder.clone(),
            })
        });
        (point, request)
    }
}

/// Split a row-major index at its innermost axis (an unset axis holds only
/// `neutral`): the index over the outer axes, and this axis's value.
fn split<T: Copy>(index: usize, axis: &[T], neutral: T) -> (usize, T) {
    match axis.len() {
        0 => (index, neutral),
        len => (index / len, axis[index % len]),
    }
}

/// Re-validate a budget as its item is built (fluent setters defer
/// validation). The total is checked first so a bad
/// [`SweepSpec::total_error_budget`] value is reported as the total the
/// caller passed, not as a derived part.
pub(crate) fn validated_budget(budget: &ErrorBudget) -> Result<ErrorBudget> {
    let total = budget.total();
    if !(total.is_finite() && total > 0.0 && total < 1.0) {
        return Err(Error::InvalidInput(format!(
            "errorBudget total must lie strictly between 0 and 1, got {total}"
        )));
    }
    ErrorBudget::from_parts(budget.logical, budget.t_states, budget.rotations)
}

/// Coordinates of one expanded sweep item.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in the expanded (row-major) order.
    pub index: usize,
    /// Workload label.
    pub workload: String,
    /// Hardware profile name.
    pub profile: String,
    /// Resolved QEC scheme name (or the axis label when resolution failed).
    pub scheme: String,
    /// Error budget of this item.
    pub budget: ErrorBudget,
    /// Constraints of this item.
    pub constraints: Constraints,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts() -> LogicalCounts {
        LogicalCounts {
            num_qubits: 32,
            t_count: 2_000,
            measurement_count: 1_000,
            ..Default::default()
        }
    }

    /// Every item `spec` runs, each built from its index, in index order.
    fn items(spec: &SweepSpec) -> Result<Vec<(SweepPoint, Result<EstimateRequest>)>> {
        let items = spec.items()?;
        Ok(items.range.clone().map(|index| items.item(index)).collect())
    }

    #[test]
    fn expansion_is_row_major_and_complete() {
        let spec = SweepSpec::new()
            .workload("a", counts())
            .workload("b", counts())
            .profiles([
                PhysicalQubit::qubit_gate_ns_e3(),
                PhysicalQubit::qubit_maj_ns_e4(),
            ])
            .total_error_budget(1e-3)
            .total_error_budget(1e-4);
        assert_eq!(spec.len(), 8);
        let items = items(&spec).unwrap();
        assert_eq!(items.len(), 8);
        // Workloads outermost, budgets inside profiles.
        assert_eq!(items[0].0.workload, "a");
        assert_eq!(items[0].0.profile, "qubit_gate_ns_e3");
        assert!((items[0].0.budget.total() - 1e-3).abs() < 1e-12);
        assert!((items[1].0.budget.total() - 1e-4).abs() < 1e-13);
        assert_eq!(items[2].0.profile, "qubit_maj_ns_e4");
        assert_eq!(items[4].0.workload, "b");
        for (i, (point, est)) in items.iter().enumerate() {
            assert_eq!(point.index, i);
            assert!(est.is_ok());
        }
        // The default pairing resolved per profile.
        assert_eq!(items[0].0.scheme, "surface_code");
        assert_eq!(items[2].0.scheme, "floquet_code");
    }

    #[test]
    fn incompatible_pairings_fail_in_place() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::FloquetCode);
        let items = items(&spec).unwrap();
        assert_eq!(items.len(), 1);
        assert!(items[0].1.is_err());
        assert_eq!(items[0].0.scheme, "floquet_code");
    }

    #[test]
    fn empty_mandatory_axes_are_rejected() {
        assert!(items(&SweepSpec::new()).is_err());
        assert!(items(&SweepSpec::new().workload("w", counts())).is_err());
        assert!(items(&SweepSpec::new().profile(PhysicalQubit::qubit_gate_ns_e3())).is_err());
    }

    #[test]
    fn invalid_budget_fails_the_item_not_the_sweep() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .total_error_budget(1e-3)
            .total_error_budget(-1.0);
        let items = items(&spec).unwrap();
        assert_eq!(items.len(), 2);
        assert!(items[0].1.is_ok());
        assert!(items[1].1.is_err());
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        // 10 items over 3 shards: 4 + 3 + 3, in order, no gaps.
        let ranges: Vec<_> = (0..3)
            .map(|i| Shard::new(i, 3).unwrap().range(10))
            .collect();
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        // More shards than items: one item each, then empty tails.
        let ranges: Vec<_> = (0..5).map(|i| Shard::new(i, 5).unwrap().range(3)).collect();
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..3, 3..3]);
        // One shard is the whole range.
        assert_eq!(Shard::new(0, 1).unwrap().range(7), 0..7);
    }

    #[test]
    fn shard_validation_names_the_fields() {
        let err = Shard::new(0, 0).unwrap_err().to_string();
        assert!(err.contains("shard.count"), "{err}");
        let err = Shard::new(3, 3).unwrap_err().to_string();
        assert!(err.contains("shard.index"), "{err}");
        assert!(err.contains("shard.count"), "{err}");
    }

    fn multi_axis_spec() -> SweepSpec {
        SweepSpec::new()
            .workload("a", counts())
            .workload("b", counts())
            .profiles([
                PhysicalQubit::qubit_gate_ns_e3(),
                PhysicalQubit::qubit_maj_ns_e4(),
            ])
            .total_error_budget(1e-3)
            .total_error_budget(1e-4)
    }

    #[test]
    fn sharded_expansion_keeps_global_indices_and_unions_to_the_whole() {
        let spec = multi_axis_spec();
        assert_eq!(spec.total_len(), 8);
        let full = items(&spec).unwrap();

        let shards = spec.shard(3).unwrap();
        assert_eq!(shards.len(), 3);
        let lens: Vec<usize> = shards.iter().map(SweepSpec::len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
        assert_eq!(lens.iter().sum::<usize>(), spec.total_len());

        let mut union: Vec<(SweepPoint, _)> = Vec::new();
        for shard in &shards {
            assert_eq!(shard.total_len(), 8, "total_len ignores the shard");
            union.extend(items(shard).unwrap());
        }
        union.sort_by_key(|(p, _)| p.index);
        assert_eq!(union.len(), full.len());
        for ((a, _), (b, _)) in union.iter().zip(&full) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.profile, b.profile);
            assert_eq!(a.scheme, b.scheme);
        }
    }

    #[test]
    fn more_shards_than_items_leaves_trailing_shards_empty() {
        let spec = SweepSpec::new()
            .workload("w", counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3());
        assert_eq!(spec.total_len(), 1);
        let shards = spec.shard(4).unwrap();
        assert_eq!(shards[0].len(), 1);
        for shard in &shards[1..] {
            assert!(shard.is_empty());
            assert!(items(shard).unwrap().is_empty());
        }
    }

    #[test]
    fn sharding_twice_is_rejected() {
        let spec = multi_axis_spec().shard_of(0, 2).unwrap();
        let err = spec.shard_of(1, 2).unwrap_err().to_string();
        assert!(err.contains("already sharded"), "{err}");
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(multi_axis_spec().shard(0).is_err());
        assert!(multi_axis_spec().shard_of(0, 0).is_err());
        assert!(multi_axis_spec().shard_of(2, 2).is_err());
    }

    #[test]
    fn overflowing_axis_product_fails_at_expansion() {
        // Five axes of 8,192 entries make 2^65 items. An unchecked product
        // wraps to 0 in release builds, and expansion would then walk every
        // index without producing an item; it must fail up front instead.
        let n = 8_192;
        let spec = SweepSpec {
            workloads: (0..n).map(|i| (format!("w{i}"), counts())).collect(),
            profiles: vec![PhysicalQubit::qubit_gate_ns_e3(); n],
            schemes: vec![SweepScheme::ProfileDefault; n],
            budgets: vec![ErrorBudget::from_total(1e-3).unwrap(); n],
            constraints: vec![Constraints::default(); n],
            ..SweepSpec::new()
        };
        assert_eq!(spec.total_len(), usize::MAX, "the item count saturates");
        let engine = crate::Estimator::new();
        let started = std::time::Instant::now();
        let err = engine.sweep(&spec).unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)), "{err}");
        let message = err.to_string();
        assert!(message.contains("8192 workloads"), "{message}");
        assert!(message.contains("8192 constraints"), "{message}");
        assert!(engine.sweep_with(&spec, |_| {}).is_err());
        assert!(engine
            .sweep_until(&spec, |o| o, |_| std::ops::ControlFlow::Continue(()))
            .is_err());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "rejection took {:?}",
            started.elapsed()
        );
        assert_eq!(engine.cache_stats().misses, 0, "no item ran");
    }

    fn job_counts() -> LogicalCounts {
        LogicalCounts {
            num_qubits: 64,
            t_count: 5_000,
            ccz_count: 1_000,
            measurement_count: 2_000,
            ..Default::default()
        }
    }

    #[test]
    fn builder_requires_all_mandatory_fields() {
        assert!(EstimateRequest::builder().build().is_err());
        assert!(EstimateRequest::builder()
            .counts(job_counts())
            .build()
            .is_err());
        assert!(EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .build()
            .is_err());
        assert!(EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .build()
            .is_err());
        assert!(EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .build()
            .is_ok());
    }

    #[test]
    fn floquet_on_gate_based_rejected_at_build() {
        let err = EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::FloquetCode)
            .total_error_budget(1e-3)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidInput(_)));
    }

    #[test]
    fn end_to_end_with_constraints() {
        let request = EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_maj_ns_e4())
            .qec(QecSchemeKind::FloquetCode)
            .total_error_budget(1e-4)
            .max_t_factories(2)
            .build()
            .unwrap();
        let r = crate::Estimator::new().estimate(&request).unwrap();
        assert!(r.breakdown.num_t_factories <= 2);
        assert!(r.physical_counts.rqops > 0.0);
    }

    #[test]
    fn frontier_of_a_built_request() {
        let request = EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .build()
            .unwrap();
        let frontier = crate::Estimator::new().frontier(&request).unwrap();
        assert!(!frontier.is_empty());
    }

    #[test]
    fn custom_scheme_request() {
        let request = EstimateRequest::builder()
            .counts(job_counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec_custom(QecScheme::surface_code_gate_based())
            .error_budget_parts(1e-4, 1e-4, 0.0)
            .build()
            .unwrap();
        let r = crate::Estimator::new().estimate(&request).unwrap();
        assert_eq!(r.qec_scheme.name, "surface_code");
        assert_eq!(r.error_budget.rotations, 0.0);
    }

    #[test]
    fn request_builder_matches_job_semantics() {
        let req = EstimateRequest::builder()
            .counts(counts())
            .profile(PhysicalQubit::qubit_gate_ns_e3())
            .qec(QecSchemeKind::SurfaceCode)
            .total_error_budget(1e-3)
            .max_t_factories(2)
            .build()
            .unwrap();
        assert_eq!(req.constraints.max_t_factories, Some(2));
        let r = crate::Estimator::new().estimate(&req).unwrap();
        assert!(r.breakdown.num_t_factories <= 2);
    }
}
