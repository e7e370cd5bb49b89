//! Driving serve sessions from outside: the record tap that reads a
//! session's NDJSON output, the pipe transport, and the isolation replay
//! that feeds the same items through each layer's public function on its
//! own.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::sync::Arc;
use std::time::Instant;

use qre_cli::{parse_submission_value, run_session, ServeOptions, ServeShared, SessionConfig};
use qre_core::{Estimator, SweepOutcome};
use qre_json::Value;

use crate::matrix::Matrix;
use crate::report::JobTime;
use crate::trace::Tracer;

/// Serve options of both warm workloads: the defaults of `qre serve
/// --listen` (two jobs per connection, eight process-wide). The traced run
/// also asks for `searchStats` in every closing record.
pub fn serve_options(trace: bool) -> ServeOptions {
    ServeOptions {
        max_in_flight: 2,
        global_jobs: Some(8),
        search_stats: trace,
        ..ServeOptions::default()
    }
}

/// Counters summed over the closing `"stats"` records of a set of jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTally {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
    pub evictions: u64,
    pub searches: u64,
    pub seeded: u64,
    pub nodes_expanded: u64,
    pub nodes_pruned: u64,
    pub memo_hits: u64,
    pub factories_realised: u64,
}

impl CacheTally {
    fn add_stats(&mut self, stats: &Value) {
        let n = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        self.hits += n(stats, "cacheHits");
        self.misses += n(stats, "cacheMisses");
        self.entries = self.entries.max(n(stats, "cacheEntries"));
        self.evictions = self.evictions.max(n(stats, "cacheEvictions"));
        if let Some(s) = stats.get("searchStats") {
            self.searches += n(s, "searches");
            self.seeded += n(s, "seededSearches");
            self.nodes_expanded += n(s, "nodesExpanded");
            self.nodes_pruned += n(s, "nodesPrunedBound") + n(s, "nodesPrunedDominated");
            self.memo_hits += n(s, "memoHits");
            self.factories_realised += n(s, "factoriesRealised");
        }
    }

    pub fn merge(&mut self, other: &CacheTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries = self.entries.max(other.entries);
        self.evictions = self.evictions.max(other.evictions);
        self.searches += other.searches;
        self.seeded += other.seeded;
        self.nodes_expanded += other.nodes_expanded;
        self.nodes_pruned += other.nodes_pruned;
        self.memo_hits += other.memo_hits;
        self.factories_realised += other.factories_realised;
    }
}

/// A closed job seen by the tap.
#[derive(Debug, Clone, Copy)]
pub struct ClosedJob {
    pub first: Option<Instant>,
    pub closed: Instant,
}

/// Reads a session's output records: per-job first-record and closing
/// times, item and error counts, cache counters, and optionally the item
/// records themselves.
#[derive(Debug, Default)]
pub struct Tap {
    pub capture: bool,
    pub items: u64,
    pub item_errors: u64,
    pub job_errors: u64,
    pub records: u64,
    pub bytes: u64,
    pub cache: CacheTally,
    /// Item record lines, as written (with `capture`).
    pub captured: Vec<String>,
    pub closed: Vec<ClosedJob>,
    open: HashMap<u64, Option<Instant>>,
}

impl Tap {
    pub fn new(capture: bool) -> Tap {
        Tap {
            capture,
            ..Tap::default()
        }
    }

    /// Account one output line (without its newline) read at `now`.
    pub fn line(&mut self, line: &str, now: Instant) {
        self.records += 1;
        self.bytes += line.len() as u64 + 1;
        let Some(rest) = line.strip_prefix("{\"job\":") else {
            // Lifecycle framing (`hello` / `bye`) of a socket session.
            return;
        };
        let id_end = rest.find(',').unwrap_or(rest.len());
        let job: u64 = rest[..id_end].parse().unwrap_or(u64::MAX);
        let body = &rest[id_end..];
        if let Some(stats) = body.strip_prefix(",\"stats\":") {
            match qre_json::parse(&stats[..stats.len() - 1]) {
                Ok(doc) => self.cache.add_stats(&doc),
                Err(_) => self.job_errors += 1,
            }
            let first = self.open.remove(&job).flatten();
            self.closed.push(ClosedJob { first, closed: now });
            return;
        }
        if body.starts_with(",\"index\":") {
            self.items += 1;
            if body.contains("\"status\":\"error\"") {
                self.item_errors += 1;
            }
            self.open.entry(job).or_insert(None).get_or_insert(now);
            if self.capture {
                self.captured.push(line.to_string());
            }
            return;
        }
        // A job-level error record: the job ends without a stats record.
        self.job_errors += 1;
        self.open.remove(&job);
        self.closed.push(ClosedJob {
            first: None,
            closed: now,
        });
    }

    /// Read records until end of stream.
    pub fn drain(&mut self, reader: impl BufRead) -> std::io::Result<()> {
        for line in reader.lines() {
            self.line(&line?, Instant::now());
        }
        Ok(())
    }

    /// Captured item records with the job id stripped, sorted by index.
    pub fn sorted_items(&self) -> Vec<(usize, &str)> {
        let mut items: Vec<(usize, &str)> = self
            .captured
            .iter()
            .map(|line| {
                let body = &line[line.find(",\"index\":").unwrap_or(0)..];
                let index = body[9..]
                    .split(',')
                    .next()
                    .and_then(|i| i.parse().ok())
                    .unwrap_or(usize::MAX);
                (index, body)
            })
            .collect();
        items.sort_unstable();
        items
    }
}

/// One pass of job lines through a pipe session: the lines are all
/// submitted at once, as `qre serve < jobs.ndjson` does, and a reader
/// thread consumes the output from a real pipe, so every record's write
/// and flush is a system call.
pub fn run_pipe(shared: &ServeShared, input: &[u8], capture: bool) -> (Tap, Vec<JobTime>) {
    let (reader, mut writer) = std::io::pipe().expect("create output pipe");
    let submitted = Instant::now();
    let tap = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || {
            let mut tap = Tap::new(capture);
            tap.drain(BufReader::with_capacity(1 << 16, reader))
                .expect("read session output");
            tap
        });
        let summary = run_session(shared, &SessionConfig::default(), input, &mut writer);
        drop(writer);
        let tap = consumer.join().expect("output reader panicked");
        if let Err(e) = summary {
            panic!("pipe session failed: {e}");
        }
        tap
    });
    let jobs = tap
        .closed
        .iter()
        .map(|j| JobTime::since(submitted, j.first, j.closed))
        .collect();
    (tap, jobs)
}

/// The submission document of a job line: the line without the serve
/// envelope fields (`id`, `shard`), as the session hands it to the
/// submission parser.
fn submission_doc(line: &str) -> Value {
    match qre_json::parse(line).expect("job line parses") {
        Value::Object(pairs) => Value::Object(
            pairs
                .into_iter()
                .filter(|(k, _)| k != "id" && k != "shard")
                .collect(),
        ),
        other => other,
    }
}

/// Per-unit costs of each layer, measured in isolation on the items a
/// warm workload serves.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub parse_us_per_line: f64,
    pub cli_parse_us_per_job: f64,
    pub engine_hit_us_per_item: f64,
    pub to_json_us: f64,
    pub render_us: f64,
    pub bytes_per_record: f64,
    /// Cache misses seen by the replay's engines (0 on a warm store).
    pub misses: u64,
}

/// Repetitions of the cheap per-line replays, for timer resolution.
const LINE_REPS: usize = 20;

/// Feed the warm workload's items through each layer on its own: job-line
/// parse, submission parse, the engine's hit path (one scoped engine per
/// job, as the session builds), `EstimationResult::to_json`, and the
/// compact render of the captured item records.
pub fn replay(
    shared: &ServeShared,
    matrix: &Matrix,
    lines: &[String],
    records: &[String],
    tracer: &Tracer,
) -> Replay {
    let mut r = Replay::default();
    let shards = lines.len();

    r.parse_us_per_line = tracer.span("json.parse", 0, 0, |_| {
        let t = Instant::now();
        for _ in 0..LINE_REPS {
            for line in lines {
                black_box(qre_json::parse(black_box(line)).expect("job line parses"));
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (LINE_REPS * shards) as f64
    });

    let docs: Vec<Value> = lines.iter().map(|l| submission_doc(l)).collect();
    r.cli_parse_us_per_job = tracer.span("cli.parse", 0, 0, |_| {
        let t = Instant::now();
        for _ in 0..LINE_REPS {
            for doc in &docs {
                black_box(parse_submission_value(black_box(doc)).expect("submission parses"));
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / (LINE_REPS * shards) as f64
    });

    let specs: Vec<_> = (0..shards).map(|i| matrix.shard_spec(i, shards)).collect();
    let mut outcomes: Vec<SweepOutcome> = Vec::with_capacity(matrix.len());
    r.engine_hit_us_per_item = tracer.span("core.engine", 0, 0, |_| {
        let t = Instant::now();
        for spec in &specs {
            let engine = Estimator::with_cache(Arc::new(shared.store().scoped()));
            engine
                .sweep_with(spec, |o| outcomes.push(o))
                .expect("matrix shard expands");
            r.misses += engine.cache_stats().misses;
        }
        t.elapsed().as_secs_f64() * 1e6 / outcomes.len().max(1) as f64
    });

    let results: Vec<_> = outcomes
        .iter()
        .filter_map(|o| o.outcome.as_ref().ok())
        .collect();
    r.to_json_us = tracer.span("core.result", 0, 0, |_| {
        let t = Instant::now();
        for result in &results {
            black_box(black_box(result).to_json());
        }
        t.elapsed().as_secs_f64() * 1e6 / results.len().max(1) as f64
    });

    let values: Vec<Value> = records
        .iter()
        .map(|l| qre_json::parse(l).expect("item record parses"))
        .collect();
    r.render_us = tracer.span("json.print", 0, 0, |_| {
        let t = Instant::now();
        let mut bytes = 0usize;
        for value in &values {
            bytes += black_box(black_box(value).to_string_compact()).len() + 1;
        }
        r.bytes_per_record = bytes as f64 / values.len().max(1) as f64;
        t.elapsed().as_secs_f64() * 1e6 / values.len().max(1) as f64
    });
    r
}
