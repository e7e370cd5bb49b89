//! T-state distillation factories (paper Sections III-D and IV-C.5).
//!
//! A **distillation unit** turns `k` noisy T states into one better T state;
//! its failure probability and output error rate are *formula strings* over
//! `inputErrorRate`, `cliffordErrorRate` and `readoutErrorRate`, exactly as
//! the paper describes, so custom units are first-class. The default units
//! are the 15-to-1 Reed–Muller family (constants per the paper's normative
//! reference, Table VI):
//!
//! | unit | level | qubits | duration | p_fail | p_out |
//! |---|---|---|---|---|---|
//! | `15-to-1 RM prep` | physical | 31 | 23 cycles | `15·e_in + 356·p` | `35·e_in³ + 7.1·p` |
//! | `15-to-1 space efficient` | physical | 12 | 46 cycles | same | same |
//! | `15-to-1 RM prep` | logical (d) | 31 logical | 11 cycles | same, `p = P(d)` | same |
//! | `15-to-1 space efficient` | logical (d) | 20 logical | 13 cycles | same | same |
//!
//! A **T factory** is a pipeline of up to `max_rounds` rounds; the first
//! round consumes raw (physical) T states, later rounds consume the previous
//! round's output and run on error-corrected logical qubits at a per-round
//! code distance. Unit copies per round are provisioned against the round's
//! failure probability so that each factory run delivers one output T state;
//! the factory's qubit footprint is the widest round (rounds execute
//! sequentially and reuse space) and its runtime is the sum of round
//! durations.
//!
//! [`TFactoryBuilder`] searches unit sequences and per-round code distances
//! for the pipeline meeting the required output error with minimal
//! space-time volume `physical_qubits × duration`. The qubit/runtime
//! trade-off of Section IV-C.4 does not walk a factory frontier: it caps
//! the number of copies of that one minimal-volume design
//! (`crate::frontier`).
//!
//! ## Search strategy: branch and bound, not enumeration
//!
//! The candidate space — unit choice × execution level per round, over up to
//! `max_rounds` rounds — is searched wave by wave (all prefixes of depth
//! `k`, then depth `k + 1`), with three exact pruning devices layered on
//! top; see `docs/ARCHITECTURE.md` ("Pipeline search") for the full rules
//! and why each is lossless:
//!
//! * **Optimistic completion bounds.** Every prefix carries a lower bound on
//!   the volume of *any* factory completing it (a footprint bound times a
//!   duration bound). [`TFactoryBuilder::find_factory`] keeps the best
//!   factory found so far (the *incumbent*, optionally seeded from a
//!   neighbouring design via [`TFactoryBuilder::find_factory_with_stats`])
//!   and discards prefixes whose bound cannot beat it.
//! * **Same-depth dominance.** Two prefixes with bit-identical output error
//!   complete identically, so the one that is round-for-round no wider, no
//!   slower, and no less productive — and strictly faster in total — makes
//!   the other's completions redundant. This collapses the high-distance
//!   tail where the logical-error contribution saturates below one ulp of
//!   the input-error term.
//! * **Memoized distance tables.** Per-(scheme, qubit model) tables
//!   ([`crate::DistanceTable`]) precompute the logical error rate, qubits
//!   per logical qubit, and cycle time for every odd distance once per
//!   search instead of per candidate round.
//!
//! The search returns the byte-identical winner of exhaustive enumeration,
//! which is retained as [`TFactoryBuilder::find_factory_exhaustive`] (the
//! minimal-volume pick over [`TFactoryBuilder::find_factories_exhaustive`]'s
//! Pareto frontier) — the differential oracle for the
//! `pruned_search_equals_exhaustive` property and the baseline the perf
//! gate's exhaustive/pruned ratio measures against. [`SearchStats`] counts
//! what the pruning actually did.

use crate::error::{Error, Result};
use crate::physical_qubit::PhysicalQubit;
use crate::qec::{DistanceTable, QecScheme};
use qre_expr::{Formula, Scope};
use qre_json::{Emitter, ObjectBuilder, Value};
use std::cmp::Ordering;

/// Physical-level execution parameters of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalUnitSpec {
    /// Physical qubits per unit copy.
    pub qubits: u64,
    /// Duration in physical instruction cycles.
    pub duration_cycles: u64,
}

/// Logical-level execution parameters of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalUnitSpec {
    /// Logical qubits per unit copy.
    pub logical_qubits: u64,
    /// Duration in logical cycles.
    pub duration_logical_cycles: u64,
}

/// A distillation unit template (Section IV-C.5).
#[derive(Debug, Clone, PartialEq)]
pub struct DistillationUnit {
    /// Unit name for reports.
    pub name: String,
    /// Input T states consumed per run.
    pub num_input_ts: u64,
    /// Output T states produced per successful run.
    pub num_output_ts: u64,
    /// Failure probability formula. Variables: `inputErrorRate`,
    /// `cliffordErrorRate`, `readoutErrorRate`.
    pub failure_probability: Formula,
    /// Output T-state error formula. Same variables.
    pub output_error_rate: Formula,
    /// Physical-level spec (first round only), if the unit supports it.
    pub physical: Option<PhysicalUnitSpec>,
    /// Logical-level spec, if the unit supports it.
    pub logical: Option<LogicalUnitSpec>,
    /// `true` for preparation units that must consume raw T states and can
    /// therefore only appear in the first round.
    pub first_round_only: bool,
}

/// The default 15-to-1 Reed–Muller unit family.
pub fn default_distillation_units() -> Vec<DistillationUnit> {
    let fail =
        Formula::parse("15 * inputErrorRate + 356 * cliffordErrorRate").expect("built-in formula");
    let out = Formula::parse("35 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate")
        .expect("built-in formula");
    vec![
        DistillationUnit {
            name: "15-to-1 RM prep".into(),
            num_input_ts: 15,
            num_output_ts: 1,
            failure_probability: fail.clone(),
            output_error_rate: out.clone(),
            physical: Some(PhysicalUnitSpec {
                qubits: 31,
                duration_cycles: 23,
            }),
            logical: Some(LogicalUnitSpec {
                logical_qubits: 31,
                duration_logical_cycles: 11,
            }),
            first_round_only: true,
        },
        DistillationUnit {
            name: "15-to-1 space efficient".into(),
            num_input_ts: 15,
            num_output_ts: 1,
            failure_probability: fail,
            output_error_rate: out,
            physical: Some(PhysicalUnitSpec {
                qubits: 12,
                duration_cycles: 46,
            }),
            logical: Some(LogicalUnitSpec {
                logical_qubits: 20,
                duration_logical_cycles: 13,
            }),
            first_round_only: false,
        },
    ]
}

/// Execution level of a factory round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundLevel {
    /// Runs directly on physical qubits.
    Physical,
    /// Runs on logical qubits at the given code distance.
    Logical {
        /// Code distance protecting this round.
        code_distance: u32,
    },
}

/// One realised round of a T factory.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoryRound {
    /// Name of the distillation unit used.
    pub unit_name: String,
    /// Execution level.
    pub level: RoundLevel,
    /// Parallel unit copies in this round.
    pub copies: u64,
    /// T-state error rate entering the round.
    pub input_error_rate: f64,
    /// T-state error rate leaving the round.
    pub output_error_rate: f64,
    /// Per-unit failure probability.
    pub failure_probability: f64,
    /// Physical qubits per unit copy.
    pub physical_qubits_per_unit: u64,
    /// Round duration (ns).
    pub duration_ns: f64,
}

/// A complete T factory.
#[derive(Debug, Clone, PartialEq)]
pub struct TFactory {
    /// The pipeline rounds, first to last.
    pub rounds: Vec<FactoryRound>,
    /// Physical qubit footprint (the widest round; rounds reuse space).
    pub physical_qubits: u64,
    /// Runtime of one factory run (ns).
    pub duration_ns: f64,
    /// Error rate of the delivered T state.
    pub output_error_rate: f64,
    /// T states delivered per run.
    pub output_t_states: u64,
    /// Raw (physical) T-state error rate entering round 1.
    pub input_error_rate: f64,
}

impl TFactory {
    /// Number of distillation rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Space-time volume (qubit·ns) used for default factory selection.
    pub fn volume(&self) -> f64 {
        self.physical_qubits as f64 * self.duration_ns
    }

    /// Render as the `tfactory` output group (Section IV-D.4).
    pub fn to_json(&self) -> Value {
        let rounds: Vec<Value> = self
            .rounds
            .iter()
            .map(|r| {
                ObjectBuilder::new()
                    .field("unit", r.unit_name.as_str())
                    .field(
                        "codeDistance",
                        match r.level {
                            RoundLevel::Physical => 0u64,
                            RoundLevel::Logical { code_distance } => u64::from(code_distance),
                        },
                    )
                    .field("copies", r.copies)
                    .field("inputErrorRate", r.input_error_rate)
                    .field("outputErrorRate", r.output_error_rate)
                    .field("failureProbability", r.failure_probability)
                    .field("physicalQubitsPerUnit", r.physical_qubits_per_unit)
                    .field("durationNs", r.duration_ns)
                    .build()
            })
            .collect();
        ObjectBuilder::new()
            .field("numRounds", self.rounds.len())
            .field("physicalQubits", self.physical_qubits)
            .field("durationNs", self.duration_ns)
            .field("inputErrorRate", self.input_error_rate)
            .field("outputErrorRate", self.output_error_rate)
            .field("outputTStates", self.output_t_states)
            .field("rounds", Value::Array(rounds))
            .build()
    }

    /// Emit the fields of [`TFactory::to_json`]'s object, in its order,
    /// into an object the caller has opened.
    pub(crate) fn emit_fields(&self, w: &mut Emitter<'_>) {
        w.field("numRounds", self.rounds.len())
            .field("physicalQubits", self.physical_qubits)
            .field("durationNs", self.duration_ns)
            .field("inputErrorRate", self.input_error_rate)
            .field("outputErrorRate", self.output_error_rate)
            .field("outputTStates", self.output_t_states)
            .key("rounds")
            .begin_array();
        for r in &self.rounds {
            let code_distance = match r.level {
                RoundLevel::Physical => 0,
                RoundLevel::Logical { code_distance } => code_distance,
            };
            w.object(|w| {
                w.field("unit", r.unit_name.as_str())
                    .field("codeDistance", code_distance)
                    .field("copies", r.copies)
                    .field("inputErrorRate", r.input_error_rate)
                    .field("outputErrorRate", r.output_error_rate)
                    .field("failureProbability", r.failure_probability)
                    .field("physicalQubitsPerUnit", r.physical_qubits_per_unit)
                    .field("durationNs", r.duration_ns);
            });
        }
        w.end_array();
    }
}

/// Counters describing what one pipeline search did (accumulated across
/// searches by [`crate::FactoryCache`], reported by `--search-stats`).
///
/// The counters make the pruning observable rather than asserted: a search
/// that expands few nodes and prunes many is doing its job; a search whose
/// `nodes_pruned()` is zero on a deep pipeline is a regression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate rounds evaluated (one unit-formula evaluation pair each).
    pub nodes_expanded: u64,
    /// Prefixes discarded because their optimistic completion volume could
    /// not beat the incumbent.
    pub nodes_pruned_bound: u64,
    /// Prefixes discarded by the same-depth dominance rule.
    pub nodes_pruned_dominated: u64,
    /// Candidate evaluations whose QEC-scheme parameters were served from
    /// the precomputed [`crate::DistanceTable`] instead of re-evaluating
    /// the scheme's formulas.
    pub memo_hits: u64,
    /// Complete pipelines materialised into factories.
    pub factories_realised: u64,
}

impl SearchStats {
    /// Prefixes discarded by any pruning rule.
    pub fn nodes_pruned(&self) -> u64 {
        self.nodes_pruned_bound + self.nodes_pruned_dominated
    }
}

/// Search configuration for T-factory pipelines.
#[derive(Debug, Clone)]
pub struct TFactoryBuilder {
    /// Available distillation units.
    pub units: Vec<DistillationUnit>,
    /// Maximum pipeline depth (rounds).
    pub max_rounds: usize,
    /// Largest per-round code distance considered.
    pub max_code_distance: u32,
}

impl Default for TFactoryBuilder {
    fn default() -> Self {
        TFactoryBuilder {
            units: default_distillation_units(),
            max_rounds: 3,
            max_code_distance: 35,
        }
    }
}

/// A candidate round during the exhaustive reference search.
#[derive(Debug, Clone, Copy)]
struct RoundChoice {
    unit_index: usize,
    level: RoundLevel,
}

/// One candidate round with every input-error-independent quantity
/// resolved up front (from the unit spec and the distance table), so that
/// expanding a node costs two unit-formula evaluations and nothing else.
#[derive(Debug, Clone, Copy)]
struct ChoiceCtx {
    unit_index: usize,
    level: RoundLevel,
    clifford_error: f64,
    readout_error: f64,
    qubits_per_unit: u64,
    duration_ns: f64,
    num_input_ts: u64,
    num_output_ts: u64,
}

/// One evaluated round of a search prefix: the choice plus the (out, fail)
/// values computed during the search, threaded into realisation so no round
/// is ever evaluated twice.
#[derive(Debug, Clone, Copy)]
struct EvalRound {
    unit_index: usize,
    level: RoundLevel,
    input_error: f64,
    output_error: f64,
    failure_probability: f64,
    qubits_per_unit: u64,
    duration_ns: f64,
    num_input_ts: u64,
    num_output_ts: u64,
}

impl EvalRound {
    fn new(c: &ChoiceCtx, input_error: f64, output_error: f64, failure_probability: f64) -> Self {
        EvalRound {
            unit_index: c.unit_index,
            level: c.level,
            input_error,
            output_error,
            failure_probability,
            qubits_per_unit: c.qubits_per_unit,
            duration_ns: c.duration_ns,
            num_input_ts: c.num_input_ts,
            num_output_ts: c.num_output_ts,
        }
    }

    /// Expected good T states per unit copy per run.
    fn yield_per_unit(&self) -> f64 {
        self.num_output_ts as f64 * (1.0 - self.failure_probability)
    }
}

/// The cheapest possible contribution of the rounds a prefix still has to
/// add before it can complete (minima over the non-first-round choices).
#[derive(Debug, Clone, Copy)]
struct CompletionFloor {
    duration_ns: f64,
    input_ts: u64,
    qubits: u64,
}

/// A search prefix: evaluated rounds plus a cached optimistic lower bound
/// on any completion's volume.
#[derive(Debug, Clone)]
struct Prefix {
    rounds: Vec<EvalRound>,
    output_error: f64,
    duration_ns: f64,
    volume_lb: f64,
}

impl Prefix {
    fn root(input_error: f64) -> Self {
        Prefix {
            rounds: Vec::new(),
            output_error: input_error,
            duration_ns: 0.0,
            volume_lb: 0.0,
        }
    }

    /// Extend by one evaluated round, recomputing the completion bound.
    ///
    /// The volume bound is a footprint bound times a duration bound. The
    /// duration bound adds the cheapest possible further round; the
    /// footprint bound runs the provisioning backward pass as if the
    /// cheapest-demand unit followed (copies only grow as real suffixes
    /// demand more), so both are true lower bounds over every completion.
    fn extend(&self, round: EvalRound, floor: &CompletionFloor) -> Self {
        let mut rounds = self.rounds.clone();
        rounds.push(round);
        let duration_ns = self.duration_ns + round.duration_ns;
        let qubits_lb = footprint_lb(&rounds, floor.input_ts).max(floor.qubits);
        let volume_lb = qubits_lb as f64 * (duration_ns + floor.duration_ns);
        Prefix {
            rounds,
            output_error: round.output_error,
            duration_ns,
            volume_lb,
        }
    }
}

/// Footprint of `rounds` when the pipeline must deliver `needed_start`
/// outputs from its last round — the exact provisioning backward pass of
/// realisation, reused as a monotone lower bound (`needed_start = 1` gives
/// the exact footprint of the rounds as a complete pipeline).
fn footprint_lb(rounds: &[EvalRound], needed_start: u64) -> u64 {
    let mut needed = needed_start;
    let mut widest = 0u64;
    for r in rounds.iter().rev() {
        let copies = ((needed as f64 / r.yield_per_unit()).ceil() as u64).max(1);
        widest = widest.max(copies * r.qubits_per_unit);
        needed = copies * r.num_input_ts;
    }
    widest
}

fn distance_key(level: RoundLevel) -> u64 {
    match level {
        RoundLevel::Physical => 0,
        RoundLevel::Logical { code_distance } => u64::from(code_distance),
    }
}

/// Deterministic content order on realised rounds — the tie-breaker that
/// makes frontier and minimal-volume selection independent of discovery
/// order (fields compare in the same direction the dominance rule prunes,
/// so a dominating prefix's completions also sort first).
fn round_cmp(a: &FactoryRound, b: &FactoryRound) -> Ordering {
    a.physical_qubits_per_unit
        .cmp(&b.physical_qubits_per_unit)
        .then_with(|| a.duration_ns.total_cmp(&b.duration_ns))
        .then_with(|| distance_key(a.level).cmp(&distance_key(b.level)))
        .then_with(|| a.copies.cmp(&b.copies))
        .then_with(|| a.unit_name.cmp(&b.unit_name))
        .then_with(|| a.output_error_rate.total_cmp(&b.output_error_rate))
        .then_with(|| a.failure_probability.total_cmp(&b.failure_probability))
        .then_with(|| a.input_error_rate.total_cmp(&b.input_error_rate))
}

/// Content tie-breaker across whole factories (used after the primary keys
/// agree): shorter pipelines first, then round-by-round [`round_cmp`].
fn tie_break_cmp(a: &TFactory, b: &TFactory) -> Ordering {
    a.rounds.len().cmp(&b.rounds.len()).then_with(|| {
        for (x, y) in a.rounds.iter().zip(&b.rounds) {
            let ord = round_cmp(x, y);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    })
}

/// The total selection order of [`TFactoryBuilder::find_factory`]: minimal
/// volume, then fewer qubits, then shorter duration, then content. Total
/// and discovery-order independent, so pruned and exhaustive searches pick
/// identical winners.
fn canonical_cmp(a: &TFactory, b: &TFactory) -> Ordering {
    a.volume()
        .total_cmp(&b.volume())
        .then_with(|| a.physical_qubits.cmp(&b.physical_qubits))
        .then_with(|| a.duration_ns.total_cmp(&b.duration_ns))
        .then_with(|| tie_break_cmp(a, b))
}

/// Mutable per-search state: the evaluation scope (reused across nodes so
/// expansion is allocation-free) and the counters.
struct SearchCtx<'a> {
    units: &'a [DistillationUnit],
    scope: Scope,
    stats: SearchStats,
}

impl<'a> SearchCtx<'a> {
    fn new(units: &'a [DistillationUnit]) -> Self {
        SearchCtx {
            units,
            scope: Scope::from_pairs([
                ("inputErrorRate", 0.0),
                ("cliffordErrorRate", 0.0),
                ("readoutErrorRate", 0.0),
            ]),
            stats: SearchStats::default(),
        }
    }

    /// Evaluate one candidate round against an input error, with the same
    /// validity window the exhaustive reference enforces. `None` = the
    /// candidate is unusable at this input error.
    fn eval(&mut self, input_error: f64, c: &ChoiceCtx) -> Option<(f64, f64)> {
        self.stats.nodes_expanded += 1;
        if matches!(c.level, RoundLevel::Logical { .. }) {
            self.stats.memo_hits += 1;
        }
        self.scope.set("inputErrorRate", input_error);
        self.scope.set("cliffordErrorRate", c.clifford_error);
        self.scope.set("readoutErrorRate", c.readout_error);
        let unit = &self.units[c.unit_index];
        let fail = unit.failure_probability.eval(&self.scope).ok()?;
        let out = unit.output_error_rate.eval(&self.scope).ok()?;
        if !(0.0..1.0).contains(&fail) {
            return None;
        }
        if !(out > 0.0 && out < 1.0) {
            return None;
        }
        Some((out, fail))
    }
}

impl TFactoryBuilder {
    /// The default factory: minimal space-time volume among all valid
    /// pipelines (ties broken toward fewer qubits, then shorter duration,
    /// then pipeline content, so the winner is fully deterministic).
    ///
    /// Runs the incumbent-bounded branch-and-bound search; the result is
    /// identical to [`TFactoryBuilder::find_factory_exhaustive`].
    pub fn find_factory(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
    ) -> Result<TFactory> {
        self.find_factory_with_stats(qubit, scheme, required, None)
            .0
    }

    /// [`TFactoryBuilder::find_factory`] plus the search counters, with an
    /// optional warm-start bound.
    ///
    /// `incumbent_volume` seeds the branch-and-bound incumbent: prefixes
    /// whose optimistic completion volume exceeds it are pruned before any
    /// factory has been found. The caller must guarantee the bound is
    /// *achievable* — some valid pipeline for this exact problem has volume
    /// ≤ the seed — which holds for the volume of any factory (for the same
    /// builder, qubit model, and scheme) whose achieved output error meets
    /// this `required`; see [`crate::FactoryCache`], which derives seeds
    /// from completed neighbouring designs during sweeps. The result is
    /// identical to the unseeded search.
    pub fn find_factory_with_stats(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
        incumbent_volume: Option<f64>,
    ) -> (Result<TFactory>, SearchStats) {
        let input_error = qubit.t_gate_error;
        let table = scheme.distance_table(qubit, self.max_code_distance);
        let first = self.choice_ctxs(qubit, &table, true);
        let later = self.choice_ctxs(qubit, &table, false);
        let floor = completion_floor(&later);
        let mut ctx = SearchCtx::new(&self.units);
        let mut incumbent: Option<TFactory> = None;
        let mut bound = incumbent_volume.unwrap_or(f64::INFINITY);
        let mut gen = vec![Prefix::root(input_error)];
        for depth in 0..self.max_rounds {
            if gen.is_empty() {
                break;
            }
            let choices: &[ChoiceCtx] = if depth == 0 { &first } else { &later };
            let deeper = depth + 1 < self.max_rounds && floor.is_some();
            // Best-first within the wave: the incumbent tightens on the
            // cheapest prefixes before the expensive tail is examined.
            gen.sort_by(|a, b| a.volume_lb.total_cmp(&b.volume_lb));
            let mut next: Vec<Prefix> = Vec::new();
            for state in gen {
                // Re-check against the bound: it may have tightened since
                // this prefix was pushed.
                if state.volume_lb > bound {
                    ctx.stats.nodes_pruned_bound += 1;
                    continue;
                }
                for c in choices {
                    let Some((out, fail)) = ctx.eval(state.output_error, c) else {
                        continue;
                    };
                    if out >= state.output_error {
                        continue; // no progress: deeper rounds cannot help
                    }
                    let round = EvalRound::new(c, state.output_error, out, fail);
                    if out <= required {
                        ctx.stats.factories_realised += 1;
                        let factory = realise_evals(&self.units, &state.rounds, round, input_error);
                        if incumbent
                            .as_ref()
                            .is_none_or(|inc| canonical_cmp(&factory, inc) == Ordering::Less)
                        {
                            bound = bound.min(factory.volume());
                            incumbent = Some(factory);
                        }
                    } else if deeper {
                        let child = state.extend(round, floor.as_ref().expect("deeper"));
                        if child.volume_lb > bound {
                            ctx.stats.nodes_pruned_bound += 1;
                        } else {
                            next.push(child);
                        }
                    }
                }
            }
            dominance_prune(&mut next, &mut ctx.stats);
            gen = next;
        }
        (incumbent.ok_or(Error::NoTFactory { required }), ctx.stats)
    }

    /// Every pipeline (up to `max_rounds`) whose output error meets
    /// `required`, reduced to the Pareto frontier over (qubits, duration)
    /// and sorted by ascending physical qubits (thus descending duration).
    ///
    /// The original exhaustive enumerator, retained as the differential
    /// oracle behind [`TFactoryBuilder::find_factory_exhaustive`] (and as
    /// the cold baseline the perf gate measures pruning against).
    pub fn find_factories_exhaustive(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
    ) -> Vec<TFactory> {
        let mut found: Vec<TFactory> = Vec::new();
        let mut pipeline: Vec<RoundChoice> = Vec::new();
        self.search_exhaustive(
            qubit,
            scheme,
            required,
            qubit.t_gate_error,
            &mut pipeline,
            &mut found,
        );
        pareto(found)
    }

    /// Exhaustive counterpart of [`TFactoryBuilder::find_factory`]: selects
    /// by the same canonical order over the fully enumerated frontier.
    pub fn find_factory_exhaustive(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
    ) -> Result<TFactory> {
        self.find_factories_exhaustive(qubit, scheme, required)
            .into_iter()
            .min_by(canonical_cmp)
            .ok_or(Error::NoTFactory { required })
    }

    /// Resolve every candidate round for the first (`first = true`) or a
    /// later round against the distance table. Candidates whose qubit-count
    /// or cycle-time formula is invalid are dropped here — exactly the
    /// pipelines whose realisation the exhaustive search discards later.
    fn choice_ctxs(
        &self,
        qubit: &PhysicalQubit,
        table: &DistanceTable,
        first: bool,
    ) -> Vec<ChoiceCtx> {
        let mut out = Vec::new();
        for (unit_index, unit) in self.units.iter().enumerate() {
            if !first && unit.first_round_only {
                continue;
            }
            if first {
                if let Some(spec) = &unit.physical {
                    out.push(ChoiceCtx {
                        unit_index,
                        level: RoundLevel::Physical,
                        clifford_error: qubit.clifford_error_rate(),
                        readout_error: qubit.readout_error_rate(),
                        qubits_per_unit: spec.qubits,
                        duration_ns: spec.duration_cycles as f64 * qubit.physical_cycle_time_ns(),
                        num_input_ts: unit.num_input_ts,
                        num_output_ts: unit.num_output_ts,
                    });
                }
            }
            if let Some(spec) = &unit.logical {
                for row in table.rows() {
                    let (Some(qubits), Some(cycle_ns)) = (row.physical_qubits, row.cycle_time_ns)
                    else {
                        continue;
                    };
                    out.push(ChoiceCtx {
                        unit_index,
                        level: RoundLevel::Logical {
                            code_distance: row.code_distance,
                        },
                        clifford_error: row.logical_error_rate,
                        readout_error: row.logical_error_rate,
                        qubits_per_unit: spec.logical_qubits * qubits,
                        duration_ns: spec.duration_logical_cycles as f64 * cycle_ns,
                        num_input_ts: unit.num_input_ts,
                        num_output_ts: unit.num_output_ts,
                    });
                }
            }
        }
        out
    }

    fn search_exhaustive(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        required: f64,
        input_error: f64,
        pipeline: &mut Vec<RoundChoice>,
        found: &mut Vec<TFactory>,
    ) {
        if pipeline.len() >= self.max_rounds {
            return;
        }
        let first = pipeline.is_empty();
        for (unit_index, unit) in self.units.iter().enumerate() {
            if !first && unit.first_round_only {
                continue;
            }
            let mut levels: Vec<RoundLevel> = Vec::new();
            if first && unit.physical.is_some() {
                levels.push(RoundLevel::Physical);
            }
            if unit.logical.is_some() {
                let mut d = 1;
                while d <= self.max_code_distance {
                    levels.push(RoundLevel::Logical { code_distance: d });
                    d += 2;
                }
            }
            for level in levels {
                let choice = RoundChoice { unit_index, level };
                let Ok((out, _fail)) = self.eval_round(qubit, scheme, input_error, choice) else {
                    continue;
                };
                if out >= input_error {
                    continue; // no progress: deeper rounds cannot help
                }
                pipeline.push(choice);
                if out <= required {
                    if let Ok(factory) = self.realise(qubit, scheme, pipeline) {
                        found.push(factory);
                    }
                    // Deeper pipelines strictly add qubits and time.
                } else {
                    self.search_exhaustive(qubit, scheme, required, out, pipeline, found);
                }
                pipeline.pop();
            }
        }
    }

    /// Evaluate (output error, failure probability) of one round.
    fn eval_round(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        input_error: f64,
        choice: RoundChoice,
    ) -> Result<(f64, f64)> {
        let unit = &self.units[choice.unit_index];
        let (clifford_error, readout_error) = match choice.level {
            RoundLevel::Physical => (qubit.clifford_error_rate(), qubit.readout_error_rate()),
            RoundLevel::Logical { code_distance } => {
                let p = scheme.logical_error_rate(qubit.clifford_error_rate(), code_distance);
                (p, p)
            }
        };
        let scope = Scope::from_pairs([
            ("inputErrorRate", input_error),
            ("cliffordErrorRate", clifford_error),
            ("readoutErrorRate", readout_error),
        ]);
        let fail = unit.failure_probability.eval(&scope)?;
        let out = unit.output_error_rate.eval(&scope)?;
        if !(0.0..1.0).contains(&fail) {
            return Err(Error::Evaluation(format!(
                "unit `{}` failure probability {fail} outside [0, 1)",
                unit.name
            )));
        }
        if !(out > 0.0 && out < 1.0) {
            return Err(Error::Evaluation(format!(
                "unit `{}` output error {out} outside (0, 1)",
                unit.name
            )));
        }
        Ok((out, fail))
    }

    /// Materialise a pipeline for the exhaustive reference: error
    /// propagation, copy provisioning, footprint and runtime.
    fn realise(
        &self,
        qubit: &PhysicalQubit,
        scheme: &QecScheme,
        pipeline: &[RoundChoice],
    ) -> Result<TFactory> {
        // Forward pass: error rates and per-unit parameters.
        let mut rounds: Vec<FactoryRound> = Vec::with_capacity(pipeline.len());
        let mut input_error = qubit.t_gate_error;
        for &choice in pipeline {
            let unit = &self.units[choice.unit_index];
            let (out, fail) = self.eval_round(qubit, scheme, input_error, choice)?;
            let (qubits_per_unit, duration_ns) = match choice.level {
                RoundLevel::Physical => {
                    let spec = unit.physical.as_ref().expect("physical level checked");
                    (
                        spec.qubits,
                        spec.duration_cycles as f64 * qubit.physical_cycle_time_ns(),
                    )
                }
                RoundLevel::Logical { code_distance } => {
                    let spec = unit.logical.as_ref().expect("logical level checked");
                    (
                        spec.logical_qubits * scheme.physical_qubits_per_logical(code_distance)?,
                        spec.duration_logical_cycles as f64
                            * scheme.logical_cycle_time_ns(qubit, code_distance)?,
                    )
                }
            };
            rounds.push(FactoryRound {
                unit_name: unit.name.clone(),
                level: choice.level,
                copies: 0, // filled by the backward pass
                input_error_rate: input_error,
                output_error_rate: out,
                failure_probability: fail,
                physical_qubits_per_unit: qubits_per_unit,
                duration_ns,
            });
            input_error = out;
        }

        // Backward pass: provision copies so each run delivers one output.
        let mut needed_outputs = 1u64;
        for (i, &choice) in pipeline.iter().enumerate().rev() {
            let unit = &self.units[choice.unit_index];
            let round = &mut rounds[i];
            let per_unit_yield = unit.num_output_ts as f64 * (1.0 - round.failure_probability);
            let copies = (needed_outputs as f64 / per_unit_yield).ceil() as u64;
            round.copies = copies.max(1);
            needed_outputs = round.copies * unit.num_input_ts;
        }

        let physical_qubits = rounds
            .iter()
            .map(|r| r.copies * r.physical_qubits_per_unit)
            .max()
            .unwrap_or(0);
        let duration_ns = rounds.iter().map(|r| r.duration_ns).sum();
        Ok(TFactory {
            output_error_rate: input_error,
            output_t_states: pipeline
                .last()
                .map_or(1, |c| self.units[c.unit_index].num_output_ts),
            input_error_rate: qubit.t_gate_error,
            rounds,
            physical_qubits,
            duration_ns,
        })
    }
}

/// Materialise a pipeline from its evaluated rounds: only the provisioning
/// backward pass runs here — the forward pass already happened during the
/// search, and the last round's unit is known by index (no name scan).
fn realise_evals(
    units: &[DistillationUnit],
    prefix: &[EvalRound],
    last: EvalRound,
    input_error_rate: f64,
) -> TFactory {
    let mut evals: Vec<EvalRound> = Vec::with_capacity(prefix.len() + 1);
    evals.extend_from_slice(prefix);
    evals.push(last);
    let mut rounds: Vec<FactoryRound> = Vec::with_capacity(evals.len());
    for e in &evals {
        rounds.push(FactoryRound {
            unit_name: units[e.unit_index].name.clone(),
            level: e.level,
            copies: 0, // filled by the backward pass
            input_error_rate: e.input_error,
            output_error_rate: e.output_error,
            failure_probability: e.failure_probability,
            physical_qubits_per_unit: e.qubits_per_unit,
            duration_ns: e.duration_ns,
        });
    }

    let mut needed_outputs = 1u64;
    for (i, e) in evals.iter().enumerate().rev() {
        let copies = (needed_outputs as f64 / e.yield_per_unit()).ceil() as u64;
        rounds[i].copies = copies.max(1);
        needed_outputs = rounds[i].copies * e.num_input_ts;
    }

    let physical_qubits = rounds
        .iter()
        .map(|r| r.copies * r.physical_qubits_per_unit)
        .max()
        .unwrap_or(0);
    let duration_ns = rounds.iter().map(|r| r.duration_ns).sum();
    TFactory {
        output_error_rate: last.output_error,
        output_t_states: last.num_output_ts,
        input_error_rate,
        rounds,
        physical_qubits,
        duration_ns,
    }
}

fn completion_floor(later: &[ChoiceCtx]) -> Option<CompletionFloor> {
    if later.is_empty() {
        return None;
    }
    Some(CompletionFloor {
        duration_ns: later
            .iter()
            .map(|c| c.duration_ns)
            .fold(f64::INFINITY, f64::min),
        input_ts: later
            .iter()
            .map(|c| c.num_input_ts)
            .min()
            .expect("non-empty"),
        qubits: later
            .iter()
            .map(|c| c.qubits_per_unit)
            .min()
            .expect("non-empty"),
    })
}

/// Drop same-depth prefixes whose completions another prefix provably
/// renders redundant.
///
/// `a` dominates `b` when their output errors are bit-identical (so both
/// complete with the very same suffixes) and, round for round with the
/// same unit, `a` runs at no larger distance, no wider, no slower, with no
/// worse per-copy yield — and strictly faster in total. Every completion
/// of `b` is then matched by a completion of `a` that is no wider and
/// strictly faster, so `b`'s completions can never appear in the exhaustive
/// frontier or win minimal-volume selection.
fn dominance_prune(gen: &mut Vec<Prefix>, stats: &mut SearchStats) {
    if gen.len() < 2 {
        return;
    }
    gen.sort_by(|a, b| {
        a.output_error
            .total_cmp(&b.output_error)
            .then_with(|| a.volume_lb.total_cmp(&b.volume_lb))
    });
    let mut keep: Vec<Prefix> = Vec::with_capacity(gen.len());
    let mut group_bits = 0u64;
    let mut group_start = 0usize;
    for state in gen.drain(..) {
        let bits = state.output_error.to_bits();
        if keep.len() == group_start || bits != group_bits {
            group_bits = bits;
            group_start = keep.len();
        }
        if keep[group_start..].iter().any(|a| dominates(a, &state)) {
            stats.nodes_pruned_dominated += 1;
        } else {
            keep.push(state);
        }
    }
    *gen = keep;
}

fn dominates(a: &Prefix, b: &Prefix) -> bool {
    if a.duration_ns.partial_cmp(&b.duration_ns) != Some(Ordering::Less) {
        return false; // the strict total-duration edge is what breaks ties
    }
    a.rounds.iter().zip(&b.rounds).all(|(x, y)| {
        x.unit_index == y.unit_index
            && distance_key(x.level) <= distance_key(y.level)
            && x.qubits_per_unit <= y.qubits_per_unit
            && x.duration_ns <= y.duration_ns
            && x.yield_per_unit() >= y.yield_per_unit()
    })
}

/// Reduce to the Pareto frontier over (physical qubits, duration), sorted by
/// ascending qubits. Exact-coordinate duplicates keep their canonically
/// smallest representative ([`tie_break_cmp`]), never a discovery-order
/// accident.
fn pareto(mut factories: Vec<TFactory>) -> Vec<TFactory> {
    factories.sort_by(|a, b| {
        a.physical_qubits
            .cmp(&b.physical_qubits)
            .then_with(|| a.duration_ns.total_cmp(&b.duration_ns))
            .then_with(|| tie_break_cmp(a, b))
    });
    let mut front: Vec<TFactory> = Vec::new();
    let mut best_duration = f64::INFINITY;
    for f in factories {
        if f.duration_ns < best_duration {
            best_duration = f.duration_ns;
            front.push(f);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> TFactoryBuilder {
        TFactoryBuilder::default()
    }

    #[test]
    fn default_units_shape() {
        let units = default_distillation_units();
        assert_eq!(units.len(), 2);
        for u in &units {
            assert_eq!(u.num_input_ts, 15);
            assert_eq!(u.num_output_ts, 1);
            assert!(u.physical.is_some());
            assert!(u.logical.is_some());
        }
        assert!(units[0].first_round_only);
        assert!(!units[1].first_round_only);
    }

    #[test]
    fn single_round_suffices_for_loose_requirement() {
        // gate_ns_e3: raw T error 1e-3; one 15-to-1 physical round gives
        // 35e-9 + 7.1e-3·… ≈ 7.1e-3·— dominated by the Clifford term
        // 7.1·1e-3 = 7.1e-3?? That is *worse* than 1e-3 at the physical
        // level, so the first useful round is logical. Verify the search
        // handles this by finding some valid factory for 1e-6.
        let q = PhysicalQubit::qubit_gate_ns_e3();
        let s = QecScheme::surface_code_gate_based();
        let f = builder().find_factory(&q, &s, 1e-6).unwrap();
        assert!(f.output_error_rate <= 1e-6);
        assert!(f.num_rounds() >= 1);
        assert!(f.physical_qubits > 0);
        assert!(f.duration_ns > 0.0);
    }

    #[test]
    fn three_rounds_for_majorana_e4() {
        // The paper's Figure 3 profile: raw T error 0.05 needs a physical
        // prep round plus logical rounds to reach ~1e-11.
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let f = builder().find_factory(&q, &s, 7.2e-12).unwrap();
        assert!(f.output_error_rate <= 7.2e-12);
        assert!(
            (2..=3).contains(&f.num_rounds()),
            "expected a deep pipeline, got {} rounds",
            f.num_rounds()
        );
        // Round 1 must fight the 79% failure rate with many copies.
        assert!(f.rounds[0].failure_probability > 0.5);
        assert!(f.rounds[0].copies > 50, "copies = {}", f.rounds[0].copies);
        // Error strictly decreases along the pipeline.
        for w in f.rounds.windows(2) {
            assert!(w[1].input_error_rate == w[0].output_error_rate);
            assert!(w[1].output_error_rate < w[0].output_error_rate);
        }
    }

    #[test]
    fn copies_cover_failures_and_inputs() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let f = builder().find_factory(&q, &s, 1e-10).unwrap();
        // Walking backward: round j must feed round j+1.
        for w in f.rounds.windows(2) {
            let produced = w[0].copies as f64 * (1.0 - w[0].failure_probability);
            let consumed = w[1].copies * 15;
            assert!(
                produced >= consumed as f64 - 1.0,
                "round feeds {produced:.1} into a demand of {consumed}"
            );
        }
        let last = f.rounds.last().unwrap();
        assert!(last.copies as f64 * (1.0 - last.failure_probability) >= 1.0 - 1e-9);
    }

    #[test]
    fn unreachable_requirement_fails() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        match builder().find_factory(&q, &s, 1e-60) {
            Err(Error::NoTFactory { .. }) => {}
            other => panic!("expected NoTFactory, got {other:?}"),
        }
    }

    #[test]
    fn frontier_is_pareto() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let front = builder().find_factories_exhaustive(&q, &s, 1e-10);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].physical_qubits <= w[1].physical_qubits);
            assert!(
                w[0].duration_ns > w[1].duration_ns,
                "non-Pareto pair: ({}, {}) then ({}, {})",
                w[0].physical_qubits,
                w[0].duration_ns,
                w[1].physical_qubits,
                w[1].duration_ns
            );
        }
        for f in &front {
            assert!(f.output_error_rate <= 1e-10);
        }
    }

    #[test]
    fn tighter_requirements_cost_more_volume() {
        let q = PhysicalQubit::qubit_gate_ns_e4();
        let s = QecScheme::surface_code_gate_based();
        let loose = builder().find_factory(&q, &s, 1e-8).unwrap();
        let tight = builder().find_factory(&q, &s, 1e-14).unwrap();
        assert!(tight.volume() >= loose.volume());
        assert!(tight.output_error_rate <= 1e-14);
    }

    #[test]
    fn custom_unit_is_searchable() {
        // A made-up 7-to-1 unit with a simple error model.
        let unit = DistillationUnit {
            name: "7-to-1 test".into(),
            num_input_ts: 7,
            num_output_ts: 1,
            failure_probability: Formula::parse("7 * inputErrorRate").unwrap(),
            output_error_rate: Formula::parse("10 * inputErrorRate ^ 2 + cliffordErrorRate")
                .unwrap(),
            physical: Some(PhysicalUnitSpec {
                qubits: 8,
                duration_cycles: 10,
            }),
            logical: Some(LogicalUnitSpec {
                logical_qubits: 8,
                duration_logical_cycles: 5,
            }),
            first_round_only: false,
        };
        let b = TFactoryBuilder {
            units: vec![unit],
            max_rounds: 2,
            max_code_distance: 21,
        };
        let q = PhysicalQubit::qubit_gate_ns_e4();
        let s = QecScheme::surface_code_gate_based();
        let f = b.find_factory(&q, &s, 1e-6).unwrap();
        assert_eq!(f.rounds[0].unit_name, "7-to-1 test");
        assert!(f.output_error_rate <= 1e-6);
    }

    #[test]
    fn json_report() {
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let f = builder().find_factory(&q, &s, 1e-10).unwrap();
        let v = f.to_json();
        assert_eq!(
            v.get("numRounds").unwrap().as_u64().unwrap(),
            f.num_rounds() as u64
        );
        assert_eq!(
            v.get("rounds").unwrap().as_array().unwrap().len(),
            f.num_rounds()
        );
        assert!(v.get("outputErrorRate").unwrap().as_f64().unwrap() <= 1e-10);
    }

    /// The built-in profile/scheme pairs the paper sweeps.
    fn paper_problems() -> Vec<(PhysicalQubit, QecScheme)> {
        vec![
            (PhysicalQubit::qubit_maj_ns_e4(), QecScheme::floquet_code()),
            (
                PhysicalQubit::qubit_gate_ns_e3(),
                QecScheme::surface_code_gate_based(),
            ),
            (
                PhysicalQubit::qubit_gate_ns_e4(),
                QecScheme::surface_code_gate_based(),
            ),
        ]
    }

    #[test]
    fn pruned_search_matches_exhaustive_on_paper_problems() {
        let b = builder();
        for (q, s) in paper_problems() {
            for required in [1e-6, 1e-8, 1e-10, 7.2e-12, 1e-14, 1e-60] {
                let pruned = b.find_factory(&q, &s, required);
                let exhaustive = b.find_factory_exhaustive(&q, &s, required);
                match (&pruned, &exhaustive) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "winner diverged at {required}"),
                    (Err(Error::NoTFactory { .. }), Err(Error::NoTFactory { .. })) => {}
                    other => panic!("outcome diverged at {required}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pruning_fires_on_the_maj_e4_paper_configuration() {
        // The acceptance pin for ISSUE 7: on the paper's Figure 3 search the
        // bound and dominance rules must actually cut the tree, and the
        // distance table must serve the logical candidates.
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let (factory, stats) = builder().find_factory_with_stats(&q, &s, 7.2e-12, None);
        factory.expect("the paper configuration has a factory");
        assert!(stats.nodes_expanded > 0);
        assert!(
            stats.nodes_pruned_bound > 0,
            "incumbent bound never fired: {stats:?}"
        );
        assert!(
            stats.nodes_pruned_dominated > 0,
            "dominance rule never fired: {stats:?}"
        );
        assert!(stats.memo_hits > 0, "distance table unused: {stats:?}");
        assert!(stats.factories_realised > 0);
        assert_eq!(
            stats.nodes_pruned(),
            stats.nodes_pruned_bound + stats.nodes_pruned_dominated
        );
    }

    #[test]
    fn seeded_search_returns_the_unseeded_winner() {
        let b = builder();
        let q = PhysicalQubit::qubit_maj_ns_e4();
        let s = QecScheme::floquet_code();
        let (cold, cold_stats) = b.find_factory_with_stats(&q, &s, 7.2e-12, None);
        let cold = cold.unwrap();
        // Seeding with the optimum itself, or any achievable looser bound,
        // must not change the winner — only the node count.
        for seed in [cold.volume(), cold.volume() * 4.0] {
            let (seeded, stats) = b.find_factory_with_stats(&q, &s, 7.2e-12, Some(seed));
            assert_eq!(seeded.unwrap(), cold);
            assert!(
                stats.nodes_expanded <= cold_stats.nodes_expanded,
                "a seed must never grow the tree: {} > {}",
                stats.nodes_expanded,
                cold_stats.nodes_expanded
            );
        }
    }

    #[test]
    fn output_t_states_comes_from_the_last_round_unit() {
        // A 4-to-2 finishing unit: the factory must report the last round's
        // true output count (looked up by index, not by name scan).
        let fail = Formula::parse("4 * inputErrorRate").unwrap();
        let out = Formula::parse("9 * inputErrorRate ^ 2 + cliffordErrorRate").unwrap();
        let unit = DistillationUnit {
            name: "4-to-2 test".into(),
            num_input_ts: 4,
            num_output_ts: 2,
            failure_probability: fail,
            output_error_rate: out,
            physical: Some(PhysicalUnitSpec {
                qubits: 10,
                duration_cycles: 8,
            }),
            logical: Some(LogicalUnitSpec {
                logical_qubits: 10,
                duration_logical_cycles: 4,
            }),
            first_round_only: false,
        };
        let b = TFactoryBuilder {
            units: vec![unit],
            max_rounds: 2,
            max_code_distance: 15,
        };
        let q = PhysicalQubit::qubit_gate_ns_e4();
        let s = QecScheme::surface_code_gate_based();
        let f = b.find_factory(&q, &s, 1e-6).unwrap();
        assert_eq!(f.output_t_states, 2);
        assert_eq!(
            f,
            b.find_factory_exhaustive(&q, &s, 1e-6).unwrap(),
            "reference enumerator agrees on the multi-output unit"
        );
    }
}
