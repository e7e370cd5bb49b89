//! `sweep_cold`: the seeded matrix through a fresh `Estimator` per pass,
//! one `sweep_with` call per workload row, no JSON. Every factory lookup
//! misses, so T-factory search and cache inserts dominate.

use std::time::Instant;

use qre_core::{Estimator, SweepSpec};

use crate::ledger::{ratio, span_ms, Ledger};
use crate::matrix::{Matrix, ROWS};
use crate::report::{setup_median, JobTime, Report, Window};
use crate::trace::Tracer;
use crate::Args;

const SETUPS: usize = 5;

/// Seed offset of the warm-up matrix, so warm-up designs never match a
/// timed item.
const WARMUP_SEED: u64 = 0x005e_ed0f_f5e7;

/// (index, physical qubits, runtime bits) of every item.
type Digest = Vec<(usize, u64, u64)>;

struct Cold {
    rows: Vec<SweepSpec>,
}

/// Build the rows and warm threads and the allocator on another seed's
/// matrix in a discarded engine.
fn setup(seed: u64) -> Cold {
    let matrix = Matrix::generate(seed);
    let rows = (0..ROWS).map(|r| matrix.shard_spec(r, ROWS)).collect();
    let warmup = Matrix::generate(seed ^ WARMUP_SEED).spec();
    Estimator::new()
        .sweep_with(&warmup, |o| drop(std::hint::black_box(o)))
        .expect("warm-up matrix expands");
    Cold { rows }
}

/// One pass: a fresh engine, each row one job. Returns the engine (now
/// warm with this pass's designs) and the item digest.
fn pass(cold: &Cold, window: &mut Window, tracer: &Tracer) -> (Estimator, Digest) {
    let engine = Estimator::new();
    let mut digest = Digest::with_capacity(ROWS * crate::matrix::ROW_ITEMS);
    tracer.span("ledger.pass", 0, 0, |pass_id| {
        for (r, spec) in cold.rows.iter().enumerate() {
            let submitted = Instant::now();
            let mut first = None;
            tracer.span("core.engine", pass_id, r as u64, |_| {
                engine
                    .sweep_with(spec, |o| {
                        first.get_or_insert_with(Instant::now);
                        window.items += 1;
                        match &o.outcome {
                            Ok(res) => digest.push((
                                o.point.index,
                                res.physical_counts.physical_qubits,
                                res.physical_counts.runtime_ns.to_bits(),
                            )),
                            Err(_) => window.item_errors += 1,
                        }
                    })
                    .expect("matrix row expands")
            });
            window
                .jobs
                .push(JobTime::since(submitted, first, Instant::now()));
        }
    });
    digest.sort_unstable();
    (engine, digest)
}

/// Replay every row on an engine that already holds its designs. Returns
/// the digest, the replay time in seconds, and the replay's cache misses.
fn warm_replay(cold: &Cold, engine: &Estimator) -> (Digest, f64, u64) {
    let misses_before = engine.cache_stats().misses;
    let mut digest = Digest::new();
    let t = Instant::now();
    for spec in &cold.rows {
        engine
            .sweep_with(spec, |o| {
                if let Ok(res) = &o.outcome {
                    digest.push((
                        o.point.index,
                        res.physical_counts.physical_qubits,
                        res.physical_counts.runtime_ns.to_bits(),
                    ));
                }
            })
            .expect("matrix row expands");
    }
    let elapsed = t.elapsed().as_secs_f64();
    digest.sort_unstable();
    (digest, elapsed, engine.cache_stats().misses - misses_before)
}

pub fn run(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (setup_s, cold) = setup_median(SETUPS, || setup(args.seed), drop);
    let mut last = None;
    let untraced_tracer = Tracer::new(false);
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = Window::run(window_s, |w| last = Some(pass(&cold, w, &untraced_tracer)));
    report.count(&untraced);
    if !args.trace {
        report.end_to_end(setup_s, &untraced);
    } else {
        let traced = Window::run(window_s, |w| last = Some(pass(&cold, w, tracer)));
        report.count(&traced);
        let (engine, _) = last.as_ref().expect("a pass ran");
        let items = (ROWS * crate::matrix::ROW_ITEMS) as f64;
        // The last cold pass's counters, read before the replay adds hits.
        let search = engine.search_stats();
        let cache = engine.cache_stats();
        let (_, warm_s, _) = warm_replay(&cold, engine);
        let cold_ms = span_ms(tracer, "core.engine") / traced.passes.len() as f64;
        let warm_ms = warm_s * 1e3;
        let mut l = Ledger::default();
        l.set("core.engine.miss_us_per_item", cold_ms * 1e3 / items);
        l.set("core.engine.hit_us_per_item", warm_ms * 1e3 / items);
        l.set("core.tfactory.searches", search.searches as f64);
        l.set(
            "core.tfactory.seeded_ratio",
            ratio(search.seeded_searches, search.searches),
        );
        l.set(
            "core.tfactory.nodes_expanded",
            search.totals.nodes_expanded as f64,
        );
        l.set(
            "core.tfactory.nodes_pruned",
            (search.totals.nodes_pruned_bound + search.totals.nodes_pruned_dominated) as f64,
        );
        l.set("core.tfactory.memo_hits", search.totals.memo_hits as f64);
        l.set(
            "core.tfactory.factories_realised",
            search.totals.factories_realised as f64,
        );
        l.set("core.tfactory.search_ms", cold_ms - warm_ms);
        l.set("core.cache.hits", cache.hits as f64);
        l.set("core.cache.misses", cache.misses as f64);
        l.set(
            "core.cache.hit_ratio",
            ratio(cache.hits, cache.hits + cache.misses),
        );
        l.set("core.cache.entries", cache.entries as f64);
        l.set("core.cache.evictions", cache.evictions as f64);
        l.self_ms("core.engine", warm_ms);
        l.self_ms("core.tfactory", cold_ms - warm_ms);
        l.close(
            untraced.pass_median_s() * 1e3,
            traced.pass_median_s() * 1e3,
            tracer,
        );
        l.report(report);
    }

    // Correctness, outside the timed window: every item of the last pass
    // estimated, and a warm replay of the same items reproduces them.
    let (engine, digest) = last.expect("a pass ran");
    report.check(
        "every matrix item returns a result",
        digest.len() == ROWS * crate::matrix::ROW_ITEMS,
    );
    let misses_before = engine.cache_stats().misses;
    let (replayed, _, replay_misses) = warm_replay(&cold, &engine);
    report.check(
        "warm replay digest equals the cold pass",
        replayed == digest,
    );
    report.check(
        "warm replay never misses",
        replay_misses == 0 && engine.cache_stats().misses == misses_before,
    );
}
