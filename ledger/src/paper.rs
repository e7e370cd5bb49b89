//! `paper_eval`: the paper's Section V study, the only workload where
//! circuit counting (`arith.counts`) and the searched frontier
//! (`core.frontier`) do any work.
//!
//! One pass counts the three multipliers from circuit generation at every
//! power of two from 32 bits up to [`CAP_BITS`], estimates them for
//! Figure 3 (`qubit_maj_ns_e4`, floquet code, 10⁻⁴ budget), estimates the
//! 2,048-bit programs over the six default profiles for Figure 4, and runs
//! the searched frontier of windowed-512 on `qubit_gate_ns_e3`. The eight
//! in-text claims, the windowed-2048 golden and the frontier golden are
//! checked outside the timed window.

use std::path::Path;
use std::time::Instant;

use qre_arith::{multiplication_counts, MulAlgorithm};
use qre_bench::{text_claims, ScenarioResult, FIG3_SIZES, PAPER_ERROR_BUDGET};
use qre_circuit::LogicalCounts;
use qre_core::{
    EstimateRequest, Estimator, FrontierPoint, PartitionSearch, PhysicalQubit, QecSchemeKind,
    SweepOutcome, SweepSpec,
};
use qre_json::{ObjectBuilder, Value};

use crate::ledger::{ratio, span_ms, Ledger};
use crate::report::{setup_median, JobTime, Report, Window};
use crate::trace::Tracer;
use crate::Args;

/// Largest Figure 3 size counted in the timed pass. Figure 4 reuses the
/// 2,048-bit counts, so the cap is at least 2,048. Larger sizes are counted
/// once per build for the claims check and kept in the build directory.
pub const CAP_BITS: usize = 2048;

const SETUPS: usize = 7;

/// Largest size of the set-up's warm-up study.
const WARMUP_BITS: usize = 256;

const WINDOWED_2048_GOLDEN: &str = "tests/fixtures/windowed_2048_maj_ns_e4_floquet.json";
const FRONTIER_GOLDEN: &str = "tests/fixtures/frontier_searched_windowed_512_gate_ns_e3.json";

/// The study's fixed inputs.
struct Study {
    /// Figure 3 programs up to the cap, algorithm-major.
    programs: Vec<(MulAlgorithm, usize)>,
    /// Figure 4 programs: the three multipliers at 2,048 bits.
    fig4_programs: Vec<(MulAlgorithm, usize)>,
    windowed_2048_golden: Option<String>,
    frontier_golden: Option<String>,
}

/// Read the goldens, list the study's programs, and warm threads and the
/// allocator on a small study (programs up to [`WARMUP_BITS`], counted and
/// estimated through a discarded engine).
fn setup() -> Study {
    let read = |path: &str| {
        std::fs::read_to_string(Path::new(path))
            .ok()
            .filter(|text| qre_json::parse(text).is_ok())
    };
    let warmup_programs = fig3_programs(|bits| bits <= WARMUP_BITS);
    let (warmup, _) = count_all(&warmup_programs, false);
    sweep(&Estimator::new(), &fig3_spec(&warmup));
    Study {
        programs: fig3_programs(|bits| bits <= CAP_BITS),
        fig4_programs: MulAlgorithm::ALL.iter().map(|&alg| (alg, 2048)).collect(),
        windowed_2048_golden: read(WINDOWED_2048_GOLDEN),
        frontier_golden: read(FRONTIER_GOLDEN),
    }
}

/// The Figure 3 programs whose size passes `keep`, algorithm-major.
fn fig3_programs(keep: impl Fn(usize) -> bool + Copy) -> Vec<(MulAlgorithm, usize)> {
    MulAlgorithm::ALL
        .iter()
        .flat_map(|&alg| {
            FIG3_SIZES
                .iter()
                .filter(move |&&bits| keep(bits))
                .map(move |&bits| (alg, bits))
        })
        .collect()
}

/// Count every program from circuit generation, in parallel as the
/// repository's figure harness does, returning the counts in `programs`
/// order. The largest programs are handed out first, so a pass keeps both
/// cores busy and depends little on which worker drew which large program.
/// With `inject` every program is counted twice; the flag reports whether a
/// repeat disagreed.
fn count_all(
    programs: &[(MulAlgorithm, usize)],
    inject: bool,
) -> (Vec<(MulAlgorithm, usize, LogicalCounts)>, bool) {
    let mut largest_first: Vec<usize> = (0..programs.len()).collect();
    largest_first.sort_by_key(|&i| std::cmp::Reverse(programs[i].1));
    let counted = qre_par::parallel_map(&largest_first, |&i| {
        let (alg, bits) = programs[i];
        let counts = multiplication_counts(alg, bits);
        let agree = !inject || multiplication_counts(alg, bits) == counts;
        (i, counts, agree)
    });
    let mut out: Vec<_> = programs
        .iter()
        .map(|&(alg, bits)| (alg, bits, LogicalCounts::default()))
        .collect();
    for &(i, counts, _) in &counted {
        out[i].2 = counts;
    }
    (out, counted.iter().any(|&(_, _, agree)| !agree))
}

fn label(alg: MulAlgorithm, bits: usize) -> String {
    format!("{}/{bits}", alg.name())
}

fn fig3_spec(programs: &[(MulAlgorithm, usize, LogicalCounts)]) -> SweepSpec {
    SweepSpec::new()
        .workloads(programs.iter().map(|&(a, b, c)| (label(a, b), c)))
        .profile(PhysicalQubit::qubit_maj_ns_e4())
        .qec(QecSchemeKind::FloquetCode)
        .total_error_budget(PAPER_ERROR_BUDGET)
}

/// Run a sweep, returning its outcomes in expansion order and when the
/// first one arrived.
fn sweep(engine: &Estimator, spec: &SweepSpec) -> (Vec<SweepOutcome>, Option<Instant>) {
    let mut first = None;
    let mut outcomes = Vec::new();
    engine
        .sweep_with(spec, |o| {
            first.get_or_insert_with(Instant::now);
            outcomes.push(o);
        })
        .expect("study sweep expands");
    outcomes.sort_by_key(|o| o.point.index);
    (outcomes, first)
}

/// Everything one pass produced, kept for the checks and the ledger.
struct Pass {
    programs: Vec<(MulAlgorithm, usize, LogicalCounts)>,
    fig4_programs: Vec<(MulAlgorithm, usize, LogicalCounts)>,
    fig3_spec: SweepSpec,
    fig4_spec: SweepSpec,
    fig3: Vec<SweepOutcome>,
    fig4: Vec<SweepOutcome>,
    frontier: qre_core::Result<Vec<FrontierPoint>>,
    engines: [Estimator; 3],
    counts_mismatch: bool,
    count_calls: u64,
    count_ops: u64,
}

fn pass(study: &Study, window: &mut Window, tracer: &Tracer, inject: bool) -> Pass {
    let job = window.passes.len() as u64;
    let submitted = Instant::now();
    let p = tracer.span("ledger.pass", 0, job, |pass_id| {
        let [fig3_engine, fig4_engine, frontier_engine] = [(); 3].map(|()| Estimator::new());
        let (programs, fig3_mismatch) = tracer.span("arith.counts", pass_id, job, |_| {
            count_all(&study.programs, inject)
        });

        let fig3_spec = fig3_spec(&programs);
        let (fig3, first) = tracer.span("core.engine", pass_id, job, |_| {
            sweep(&fig3_engine, &fig3_spec)
        });
        // Figure 4 counts its programs again, as the figure harness does.
        let (fig4_programs, fig4_mismatch) = tracer.span("arith.counts", pass_id, job, |_| {
            count_all(&study.fig4_programs, inject)
        });
        let repeats = 1 + u64::from(inject);
        let counted = || programs.iter().chain(&fig4_programs);
        let count_calls = counted().count() as u64 * repeats;
        let count_ops = repeats
            * counted()
                .map(|(_, _, c)| c.t_count + c.ccz_count + c.ccix_count + c.measurement_count)
                .sum::<u64>();
        let fig4_spec = SweepSpec::new()
            .workloads(fig4_programs.iter().map(|&(a, b, c)| (label(a, b), c)))
            .profiles(PhysicalQubit::default_profiles())
            .total_error_budget(PAPER_ERROR_BUDGET);
        let (fig4, _) = tracer.span("core.engine", pass_id, job, |_| {
            sweep(&fig4_engine, &fig4_spec)
        });

        let windowed_512 = programs
            .iter()
            .find(|&&(a, b, _)| a == MulAlgorithm::Windowed && b == 512)
            .expect("the study counts windowed-512")
            .2;
        let frontier = tracer.span("core.frontier", pass_id, job, |_| {
            let request = EstimateRequest::builder()
                .counts(windowed_512)
                .profile(PhysicalQubit::qubit_gate_ns_e3())
                .qec(QecSchemeKind::SurfaceCode)
                .total_error_budget(1e-3)
                .build()?;
            frontier_engine.frontier_searched(&request, &PartitionSearch::default())
        });
        window
            .jobs
            .push(JobTime::since(submitted, first, Instant::now()));
        Pass {
            programs,
            fig4_programs,
            fig3_spec,
            fig4_spec,
            fig3,
            fig4,
            frontier,
            engines: [fig3_engine, fig4_engine, frontier_engine],
            counts_mismatch: fig3_mismatch || fig4_mismatch,
            count_calls,
            count_ops,
        }
    });
    let points = p.frontier.as_ref().map_or(0, Vec::len);
    window.items += (p.fig3.len() + p.fig4.len() + points) as u64;
    window.item_errors += p
        .fig3
        .iter()
        .chain(&p.fig4)
        .filter(|o| o.outcome.is_err())
        .count() as u64
        + u64::from(p.frontier.is_err());
    p
}

/// FNV-1a hash of the running executable: the counts cache is valid only
/// for the build that wrote it.
fn exe_hash() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Figure 3 counts above the cap, counted once per build and cached in the
/// build directory (the 16,384-bit schoolbook program alone takes about
/// half a minute to count).
fn above_cap_counts() -> Vec<(MulAlgorithm, usize, LogicalCounts)> {
    let programs = fig3_programs(|bits| bits > CAP_BITS);
    let path = crate::work_dir().join(format!("fig3-counts-{:016x}.txt", exe_hash()));
    let parse = |text: &str| -> Option<Vec<LogicalCounts>> {
        let counts: Vec<LogicalCounts> = text
            .lines()
            .map(|line| {
                let f: Vec<u64> = line
                    .split_whitespace()
                    .map(|w| w.parse().ok())
                    .collect::<Option<_>>()?;
                (f.len() == 7).then(|| LogicalCounts {
                    num_qubits: f[0],
                    t_count: f[1],
                    rotation_count: f[2],
                    rotation_depth: f[3],
                    ccz_count: f[4],
                    ccix_count: f[5],
                    measurement_count: f[6],
                })
            })
            .collect::<Option<_>>()?;
        (counts.len() == programs.len()).then_some(counts)
    };
    if let Some(counts) = std::fs::read_to_string(&path).ok().and_then(|t| parse(&t)) {
        return programs
            .into_iter()
            .zip(counts)
            .map(|((a, b), c)| (a, b, c))
            .collect();
    }
    let (counted, _) = count_all(&programs, false);
    let text: String = counted
        .iter()
        .map(|(_, _, c)| {
            format!(
                "{} {} {} {} {} {} {}\n",
                c.num_qubits,
                c.t_count,
                c.rotation_count,
                c.rotation_depth,
                c.ccz_count,
                c.ccix_count,
                c.measurement_count
            )
        })
        .collect();
    let _ = std::fs::create_dir_all(crate::work_dir()).and_then(|()| std::fs::write(&path, text));
    counted
}

fn scenario(
    algorithm: MulAlgorithm,
    bits: usize,
    counts: LogicalCounts,
    o: &SweepOutcome,
) -> Option<ScenarioResult> {
    let result = o.outcome.as_ref().ok()?.clone();
    Some(ScenarioResult {
        algorithm,
        bits,
        profile: o.point.profile.clone(),
        scheme: result.qec_scheme.name.clone(),
        counts,
        result,
    })
}

/// The eight in-text claims over the full Figure 3 range (the pass's
/// results up to the cap, plus the cached larger programs estimated here)
/// and the pass's Figure 4.
fn check_claims(p: &Pass, report: &mut Report) {
    let above = above_cap_counts();
    let (above_outcomes, _) = sweep(&Estimator::new(), &fig3_spec(&above));
    let fig3: Option<Vec<ScenarioResult>> = p
        .programs
        .iter()
        .zip(&p.fig3)
        .chain(above.iter().zip(&above_outcomes))
        .map(|(&(a, b, c), o)| scenario(a, b, c, o))
        .collect();
    let profiles = PhysicalQubit::default_profiles().len();
    let fig4: Option<Vec<ScenarioResult>> = p
        .fig4
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let (alg, bits, counts) = p.fig4_programs[i / profiles];
            scenario(alg, bits, counts, o)
        })
        .collect();
    let (Some(mut fig3), Some(fig4)) = (fig3, fig4) else {
        report.check("claims inputs estimate", false);
        return;
    };
    fig3.sort_by_key(|s| {
        let alg = MulAlgorithm::ALL.iter().position(|&a| a == s.algorithm);
        (alg, s.bits)
    });
    for claim in text_claims(&fig3, &fig4) {
        report.check(format!("claim {}", claim.id), claim.ok);
    }
}

fn check(study: &Study, p: &Pass, report: &mut Report) {
    report.check("repeated counting gives equal counts", !p.counts_mismatch);
    let windowed_2048 = p
        .programs
        .iter()
        .position(|&(a, b, _)| a == MulAlgorithm::Windowed && b == 2048)
        .and_then(|i| p.fig3[i].outcome.as_ref().ok())
        .map(|r| r.to_json().to_string_pretty() + "\n");
    report.check(
        "windowed-2048 estimate matches its golden byte for byte",
        windowed_2048.is_some() && windowed_2048 == study.windowed_2048_golden,
    );
    let frontier = p.frontier.as_ref().ok().map(|points| {
        Value::Array(
            points
                .iter()
                .map(|p| {
                    ObjectBuilder::new()
                        .field("maxTFactories", p.max_t_factories)
                        .field("errorBudget", p.budget.to_json())
                        .field("result", p.result.to_json())
                        .build()
                })
                .collect(),
        )
        .to_string_pretty()
            + "\n"
    });
    report.check(
        "searched windowed-512 frontier matches its golden byte for byte",
        frontier.is_some() && frontier == study.frontier_golden,
    );
    check_claims(p, report);
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    let inject = args.inject_counts;
    let (setup_s, study) = setup_median(SETUPS, setup, drop);
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut last = None;
    let untraced_tracer = Tracer::new(false);
    let untraced = Window::run(window_s, |w| {
        last = Some(pass(&study, w, &untraced_tracer, inject))
    });
    report.count(&untraced);
    if !args.trace {
        report.end_to_end(setup_s, &untraced);
    } else {
        let traced = Window::run(window_s, |w| last = Some(pass(&study, w, tracer, inject)));
        report.count(&traced);
        let p = last.as_ref().expect("a pass ran");
        let per_pass = |name: &str| span_ms(tracer, name) / traced.passes.len() as f64;
        let count_ms = per_pass("arith.counts");
        let engine_ms = per_pass("core.engine");
        let frontier_ms = per_pass("core.frontier");
        let calls = p.count_calls as f64;
        let ops = p.count_ops as f64;

        // Counters of the last pass's engines, before the warm replay.
        let mut search = [0u64; 6];
        let (mut hits, mut misses, mut entries, mut evictions) = (0, 0, 0, 0);
        for engine in &p.engines {
            let s = engine.search_stats();
            let c = engine.cache_stats();
            for (acc, v) in search.iter_mut().zip([
                s.searches,
                s.seeded_searches,
                s.totals.nodes_expanded,
                s.totals.nodes_pruned_bound + s.totals.nodes_pruned_dominated,
                s.totals.memo_hits,
                s.totals.factories_realised,
            ]) {
                *acc += v;
            }
            hits += c.hits;
            misses += c.misses;
            entries += c.entries as u64;
            evictions += c.evictions;
        }
        // Warm replay of the figure sweeps on their now-warm engines: the
        // engine's hit path, and by difference the factory search.
        let t = Instant::now();
        sweep(&p.engines[0], &p.fig3_spec);
        sweep(&p.engines[1], &p.fig4_spec);
        let warm_ms = t.elapsed().as_secs_f64() * 1e3;
        let items = (p.fig3.len() + p.fig4.len()).max(1) as f64;
        let points = p.frontier.as_ref().map_or(0, Vec::len) as f64;

        let mut l = Ledger::default();
        l.set("arith.counts.calls", calls);
        l.set("arith.counts.busy_ms", count_ms);
        l.set("arith.counts.ops", ops);
        l.set("arith.counts.ns_per_op", count_ms * 1e6 / ops.max(1.0));
        l.set("core.frontier.busy_ms", frontier_ms);
        l.set("core.frontier.points", points);
        let f = p.engines[2].cache_stats();
        l.set("core.frontier.lookups", (f.hits + f.misses) as f64);
        l.set("core.tfactory.searches", search[0] as f64);
        l.set("core.tfactory.seeded_ratio", ratio(search[1], search[0]));
        l.set("core.tfactory.nodes_expanded", search[2] as f64);
        l.set("core.tfactory.nodes_pruned", search[3] as f64);
        l.set("core.tfactory.memo_hits", search[4] as f64);
        l.set("core.tfactory.factories_realised", search[5] as f64);
        l.set("core.tfactory.search_ms", engine_ms - warm_ms);
        l.set("core.cache.hits", hits as f64);
        l.set("core.cache.misses", misses as f64);
        l.set("core.cache.hit_ratio", ratio(hits, hits + misses));
        l.set("core.cache.entries", entries as f64);
        l.set("core.cache.evictions", evictions as f64);
        l.set("core.engine.miss_us_per_item", engine_ms * 1e3 / items);
        l.set("core.engine.hit_us_per_item", warm_ms * 1e3 / items);
        l.self_ms("arith.counts", count_ms);
        l.self_ms("core.engine", warm_ms);
        l.self_ms("core.tfactory", engine_ms - warm_ms);
        l.self_ms("core.frontier", frontier_ms);
        l.close(
            untraced.pass_median_s() * 1e3,
            traced.pass_median_s() * 1e3,
            tracer,
        );
        l.report(report);
    }
    check(&study, last.as_ref().expect("a pass ran"), report);
}
