//! # qre-cli
//!
//! The job-spec layer behind the `qre` command-line tool: a local stand-in
//! for the cloud estimation target of paper Section IV-A ("the tool will act
//! like a cloud target to which one can submit a resource estimation job").
//!
//! A job is a JSON document:
//!
//! ```json
//! {
//!   "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000 } },
//!   "qubitParams": { "name": "qubit_maj_ns_e4" },
//!   "qecScheme": { "name": "floquet_code" },
//!   "errorBudget": 1e-4,
//!   "constraints": { "maxTFactories": 4 },
//!   "estimateType": "single"
//! }
//! ```
//!
//! Algorithms can be given as logical counts (Section IV-B.3), inline
//! QIR-lite text (Section IV-B.2), or a built-in multiplication workload
//! (Section V). Hardware profiles are the six defaults, optionally with
//! field overrides. `errorBudget` is a total (split into even thirds) or an
//! explicit partition object `{"logical": ..., "tStates": ...,
//! "rotations": ...}`. `estimateType` is `"single"` (default) or
//! `"frontier"`; frontier jobs may add `"searchBudgetPartition": true` to
//! search the error-budget split alongside the factory-count cap (each
//! frontier point then reports the partition that produced it).
//!
//! Beyond single jobs, a submission can be a **batch** (`{"items": [job,
//! ...]}`, the service's job arrays) or a **sweep** declaring axes whose
//! cartesian product the engine expands:
//!
//! ```json
//! {
//!   "sweep": {
//!     "algorithms": [ { "multiplication": { "algorithm": "windowed", "bits": 2048 } } ],
//!     "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
//!     "qecSchemes": [ { "name": "default" } ],
//!     "errorBudgets": [ 1e-4 ],
//!     "constraints": [ {} ]
//!   }
//! }
//! ```
//!
//! Batches and sweeps execute in parallel through one [`qre_core::Estimator`]
//! engine (shared T-factory cache); failing items report their error in
//! place instead of failing the submission. Unknown top-level fields are
//! rejected with an error naming the field and the accepted set, so typos
//! like `"errorBudgets"` in a single job never pass silently.
//!
//! Any submission may set top-level `"stream": true` to emit **NDJSON**
//! instead of one monolithic document ([`run_submission_streamed`]): one
//! JSON object per finished item, written in completion order as workers
//! finish (each record carries its `index` in submission/expansion order),
//! interleaved with periodic `{"progress": k, "total": n}` records — the
//! right shape for the paper's large Fig. 3/4-scale sweeps where waiting on
//! the slowest item before printing anything wastes the session.
//!
//! Beyond one-shot submissions, [`serve()`] runs a **long-lived job server**:
//! one JSON job per input line, completion-order NDJSON records out, a
//! process-wide factory cache kept warm across jobs — optionally bounded
//! ([`ServeOptions::cache_capacity`]) and persisted to a snapshot file
//! between sessions ([`ServeOptions::cache_file`]) — and per-job `"shard"`
//! fields so several server processes can split one sweep deterministically
//! ([`run_session`] documents the session engine behind the pipe and the
//! socket; the README's "Server mode" and "Network serve" sections give the
//! line protocol). The shard sessions' output files are re-joined by
//! [`merge_files`] (the `qre merge` verb), which validates that the union
//! covers the sweep exactly.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod merge;
mod net_serve;
mod serve;
mod stress;

pub use merge::{merge_files, MergeSummary};
pub use net_serve::{listen_serve, ListenSummary};
pub use serve::{
    run_session, serve, ServeOptions, ServeShared, ServeSummary, SessionConfig, MAX_LINE_BYTES,
};
pub use stress::{stress_job_line, stress_spec, write_stress_jobs, StressShape, StressSummary};

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use qre_arith::MulAlgorithm;
use qre_circuit::{qir, LogicalCounts};
use qre_core::{
    Constraints, ErrorBudget, EstimateRequest, Estimator, FrontierPoint, PartitionSearch,
    PhysicalQubit, QecSchemeKind, SweepScheme, SweepSpec,
};
use qre_json::{ObjectBuilder, Value};

/// Parsed job specification.
#[derive(Debug)]
pub struct JobSpec {
    /// The assembled estimation scenario.
    pub request: EstimateRequest,
    /// Whether to produce a frontier instead of a single estimate.
    pub frontier: bool,
    /// Whether the frontier also searches the error-budget partition
    /// (`"searchBudgetPartition": true`): the default
    /// [`PartitionSearch`] grid is crossed with the factory-cap axis.
    pub search_partition: bool,
}

/// A parsed submission: its payload plus delivery options.
#[derive(Debug)]
pub struct Submission {
    /// Emit NDJSON records in completion order (top-level `"stream": true`)
    /// instead of one collecting JSON document.
    pub stream: bool,
    /// The submission's payload.
    pub kind: SubmissionKind,
}

/// Submission payload: a single job, a batch (`{"items": [job, ...]}`)
/// mirroring the service's job-array submissions, or a declared sweep
/// (`{"sweep": {...}}`).
#[derive(Debug)]
pub enum SubmissionKind {
    /// One job.
    Single(Box<JobSpec>),
    /// A batch of independent jobs, executed in parallel with outcomes in
    /// submission order.
    Batch(Vec<JobSpec>),
    /// A declared cartesian sweep, expanded and executed by the engine.
    Sweep(Box<SweepSpec>),
}

/// Reject unknown object fields, naming the offender and the accepted set.
fn check_fields(v: &Value, context: &str, accepted: &[&str]) -> Result<(), String> {
    let Some(obj) = v.as_object() else {
        return Ok(());
    };
    for (key, _) in obj {
        if !accepted.contains(&key.as_str()) {
            let place = if context.is_empty() {
                String::new()
            } else {
                format!(" in `{context}`")
            };
            return Err(format!(
                "unknown field `{key}`{place}; accepted fields: {}",
                accepted.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parse a submission: a single job object, `{"items": [...]}`, or
/// `{"sweep": {...}}`, each optionally with top-level `"stream": true`.
pub fn parse_submission(text: &str) -> Result<Submission, String> {
    let doc = qre_json::parse(text).map_err(|e| e.to_string())?;
    parse_submission_value(&doc)
}

/// [`parse_submission`] over an already-parsed JSON document — the entry
/// point for callers (like the serve loop) that strip transport-level
/// fields from the document before submission parsing.
pub fn parse_submission_value(doc: &Value) -> Result<Submission, String> {
    let stream = match doc.get("stream") {
        None => false,
        Some(v) => v.as_bool().ok_or("`stream` must be a boolean")?,
    };
    let kind = if let Some(items) = doc.get("items") {
        check_fields(doc, "", &["items", "stream"])?;
        let items = items
            .as_array()
            .ok_or("`items` must be an array of job objects")?;
        if items.is_empty() {
            return Err("`items` must contain at least one job".into());
        }
        let mut jobs = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            // `stream` is a submission-level option; inside an item it would
            // validate (JOB_FIELDS accepts it for top-level single jobs) and
            // then be silently ignored — reject it instead.
            if item.get("stream").is_some() {
                return Err(format!(
                    "items[{i}]: `stream` is a submission-level option; set it at the top level"
                ));
            }
            let spec = parse_job_value(item).map_err(|e| format!("items[{i}]: {e}"))?;
            jobs.push(spec);
        }
        SubmissionKind::Batch(jobs)
    } else if let Some(sweep) = doc.get("sweep") {
        check_fields(doc, "", &["sweep", "stream"])?;
        SubmissionKind::Sweep(Box::new(parse_sweep(sweep)?))
    } else {
        SubmissionKind::Single(Box::new(parse_job_value(doc)?))
    };
    Ok(Submission { stream, kind })
}

/// Render one finished sweep item — its axis coordinates plus the result or
/// in-place error — as a JSON object. Shared by the collecting, streamed,
/// and serve output paths, so a streamed record is field-for-field identical
/// to the matching entry of the monolithic document.
pub(crate) fn sweep_item_json(o: &qre_core::SweepOutcome) -> Value {
    let c = &o.point.constraints;
    let constraints = ObjectBuilder::new()
        .field_opt("logicalDepthFactor", c.logical_depth_factor)
        .field_opt("maxTFactories", c.max_t_factories)
        .field_opt("maxDurationNs", c.max_duration_ns)
        .field_opt("maxPhysicalQubits", c.max_physical_qubits)
        .build();
    let base = ObjectBuilder::new()
        .field("index", o.point.index as u64)
        .field("workload", o.point.workload.as_str())
        .field("profile", o.point.profile.as_str())
        .field("qecScheme", o.point.scheme.as_str())
        .field("errorBudget", o.point.budget.total())
        .field("constraints", constraints);
    match &o.outcome {
        Ok(result) => base
            .field("status", "success")
            .field("result", result.to_json())
            .build(),
        Err(e) => base
            .field("status", "error")
            .field("message", e.to_string())
            .build(),
    }
}

/// Render an engine's aggregated pipeline-search counters as the
/// `searchStats` JSON object (the `--search-stats` surface, shared by the
/// one-shot CLI and the serve service).
pub fn search_stats_json(engine: &Estimator) -> Value {
    let s = engine.search_stats();
    ObjectBuilder::new()
        .field("searches", s.searches)
        .field("seededSearches", s.seeded_searches)
        .field("nodesExpanded", s.totals.nodes_expanded)
        .field("nodesPrunedBound", s.totals.nodes_pruned_bound)
        .field("nodesPrunedDominated", s.totals.nodes_pruned_dominated)
        .field("memoHits", s.totals.memo_hits)
        .field("factoriesRealised", s.totals.factories_realised)
        .build()
}

/// Run a submission through `engine`: a single result object,
/// `{"items": [...]}` for a batch, or `{"estimateType": "sweep", "items":
/// [...]}` for a sweep. Batch and sweep items that fail estimation report
/// their error in place instead of failing the whole submission. Ignores
/// the submission's `stream` flag; callers honouring it use
/// [`run_submission_streamed`]. The caller keeps the engine's cache and
/// search counters after the run (the `--search-stats` flow) and may share
/// one warm cache across submissions.
pub fn run_submission(engine: &Estimator, submission: &Submission) -> Result<Value, String> {
    match &submission.kind {
        SubmissionKind::Single(spec) => run_job(engine, spec),
        SubmissionKind::Batch(jobs) => {
            // One parallel pass over the whole array; every item shares the
            // engine's factory cache.
            let items: Vec<Value> = qre_par::parallel_map(jobs, |spec| {
                run_job(engine, spec).unwrap_or_else(error_object)
            });
            Ok(ObjectBuilder::new()
                .field("status", "success")
                .field("items", Value::Array(items))
                .build())
        }
        SubmissionKind::Sweep(spec) => {
            let outcomes = engine.sweep(spec).map_err(|e| e.to_string())?;
            let items: Vec<Value> = outcomes.iter().map(sweep_item_json).collect();
            Ok(ObjectBuilder::new()
                .field("status", "success")
                .field("estimateType", "sweep")
                .field("items", Value::Array(items))
                .build())
        }
    }
}

/// Most batch/sweep item results resident while [`write_submission`]
/// emits a monolithic document.
///
/// This is the documented memory bound of the non-streamed delivery path:
/// a 10k-item sweep document is *written* as one JSON value, but it is
/// *executed* in chunks of at most this many items — each chunk's results
/// are rendered, flushed into the output, and dropped before the next
/// chunk runs — so resident results never scale with submission size.
/// (The streamed paths are bounded separately and more tightly: the serve
/// session engine and `"stream": true` delivery hold at most
/// [`qre_par::streamed_buffer_bound`] undelivered results plus one
/// in-flight item per worker.)
pub const MONOLITHIC_CHUNK_ITEMS: usize = 512;

/// Incremental writer for the monolithic `{..., "items": [...]}` document:
/// emits the exact bytes of pretty/compact-printing the assembled value,
/// one item at a time, so the document never has to exist in memory.
struct ItemsDocWriter<'a> {
    out: &'a mut dyn Write,
    compact: bool,
    total: usize,
    written: usize,
}

impl<'a> ItemsDocWriter<'a> {
    const IO: fn(std::io::Error) -> String = |e| format!("failed to write submission output: {e}");

    /// Write the document head: the fixed leading fields plus the opening
    /// of the `items` array sized for `total` entries.
    fn open(
        out: &'a mut dyn Write,
        compact: bool,
        head: &[(&str, &str)],
        total: usize,
    ) -> Result<Self, String> {
        if compact {
            write!(out, "{{").map_err(Self::IO)?;
            for (k, v) in head {
                write!(out, "\"{k}\":\"{v}\",").map_err(Self::IO)?;
            }
            write!(out, "\"items\":[").map_err(Self::IO)?;
        } else {
            writeln!(out, "{{").map_err(Self::IO)?;
            for (k, v) in head {
                writeln!(out, "  \"{k}\": \"{v}\",").map_err(Self::IO)?;
            }
            if total == 0 {
                // The pretty printer renders an empty array compactly.
                write!(out, "  \"items\": []").map_err(Self::IO)?;
            } else {
                writeln!(out, "  \"items\": [").map_err(Self::IO)?;
            }
        }
        Ok(ItemsDocWriter {
            out,
            compact,
            total,
            written: 0,
        })
    }

    fn item(&mut self, item: &Value) -> Result<(), String> {
        self.written += 1;
        if self.compact {
            if self.written > 1 {
                write!(self.out, ",").map_err(Self::IO)?;
            }
            write!(self.out, "{}", item.to_string_compact()).map_err(Self::IO)
        } else {
            let sep = if self.written < self.total { "," } else { "" };
            writeln!(self.out, "    {}{sep}", item.to_string_pretty_indented(2)).map_err(Self::IO)
        }
    }

    fn finish(self) -> Result<(), String> {
        if self.written != self.total {
            return Err(format!(
                "submission produced {} item(s), expected {}",
                self.written, self.total
            ));
        }
        if self.compact {
            writeln!(self.out, "]}}").map_err(Self::IO)?;
        } else if self.total == 0 {
            writeln!(self.out, "\n}}").map_err(Self::IO)?;
        } else {
            writeln!(self.out, "  ]\n}}").map_err(Self::IO)?;
        }
        self.out.flush().map_err(Self::IO)
    }
}

/// Write a submission's monolithic JSON document to `out` — byte-for-byte
/// the pretty (or compact) rendering of [`run_submission`]'s value,
/// plus a trailing newline — while executing batches and sweeps in bounded
/// chunks of [`MONOLITHIC_CHUNK_ITEMS`] items.
///
/// This is the delivery path behind plain `qre <job.json>`: the document
/// reaches the consumer as one JSON value, but at no point are more than a
/// chunk's results resident, so a 10k-item non-streamed sweep costs the
/// process a bounded amount of memory instead of the full result set.
/// Chunking cannot change results: estimation is a pure function of each
/// item's coordinates (the shared factory cache only accelerates repeats),
/// so the chunked document is identical to the collected one.
pub fn write_submission(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
    compact: bool,
) -> Result<(), String> {
    write_submission_chunked(engine, submission, out, compact, MONOLITHIC_CHUNK_ITEMS)
}

/// [`write_submission`] with an explicit chunk size (tests shrink it to
/// force multi-chunk execution on small submissions).
fn write_submission_chunked(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
    compact: bool,
    chunk: usize,
) -> Result<(), String> {
    let chunk = chunk.max(1);
    match &submission.kind {
        SubmissionKind::Single(spec) => {
            // One result: nothing to chunk.
            let value = run_job(engine, spec)?;
            let text = if compact {
                value.to_string_compact()
            } else {
                value.to_string_pretty()
            };
            writeln!(out, "{text}").map_err(ItemsDocWriter::IO)?;
            out.flush().map_err(ItemsDocWriter::IO)
        }
        SubmissionKind::Batch(jobs) => {
            let mut doc = ItemsDocWriter::open(out, compact, &[("status", "success")], jobs.len())?;
            for block in jobs.chunks(chunk) {
                let items: Vec<Value> = qre_par::parallel_map(block, |spec| {
                    run_job(engine, spec).unwrap_or_else(error_object)
                });
                for item in &items {
                    doc.item(item)?;
                }
            }
            doc.finish()
        }
        SubmissionKind::Sweep(spec) => {
            let total = spec.len();
            let head = [("status", "success"), ("estimateType", "sweep")];
            if spec.shard.is_some() {
                // A library caller that passes an already-sharded spec has
                // bounded the block itself; run it as one chunk.
                let outcomes = engine.sweep(spec).map_err(|e| e.to_string())?;
                let mut doc = ItemsDocWriter::open(out, compact, &head, total)?;
                for o in &outcomes {
                    doc.item(&sweep_item_json(o))?;
                }
                return doc.finish();
            }
            let blocks = total.div_ceil(chunk).max(1);
            // Run the first block before emitting any output: expansion
            // errors (an empty mandatory axis) are spec-global, so they
            // either fail here — with stdout untouched, exactly like the
            // collecting path — or nowhere.
            let first = engine
                .sweep(
                    &spec
                        .clone()
                        .shard_of(0, blocks)
                        .map_err(|e| e.to_string())?,
                )
                .map_err(|e| e.to_string())?;
            let mut doc = ItemsDocWriter::open(out, compact, &head, total)?;
            for o in &first {
                doc.item(&sweep_item_json(o))?;
            }
            for i in 1..blocks {
                let block = spec
                    .clone()
                    .shard_of(i, blocks)
                    .map_err(|e| e.to_string())?;
                for o in &engine.sweep(&block).map_err(|e| e.to_string())? {
                    doc.item(&sweep_item_json(o))?;
                }
            }
            doc.finish()
        }
    }
}

/// The one writer of every per-item NDJSON record the CLI emits: serve
/// sessions over a pipe or a socket, one-shot `"stream": true` output, and
/// the busy-rejection `bye`.
///
/// A record is rendered on the thread that produced it, into one buffer
/// with its newline, and handed to the output in one `write_all` followed
/// by one `flush`, so each finished item reaches the consumer at once and
/// as one piece. Threads share the writer by reference: the output sits
/// behind one lock, and a consumer that stops reading blocks the producer
/// holding it, which is the whole of the backpressure. The first write
/// error is kept; later records are dropped, and [`RecordWriter::failed`]
/// tells producers to stop estimating.
pub(crate) struct RecordWriter<W> {
    output: Mutex<RecordOutput<W>>,
    failed: AtomicBool,
}

struct RecordOutput<W> {
    out: W,
    records: usize,
    error: Option<std::io::Error>,
}

impl<W: Write> RecordWriter<W> {
    pub(crate) fn new(out: W) -> Self {
        RecordWriter {
            output: Mutex::new(RecordOutput {
                out,
                records: 0,
                error: None,
            }),
            failed: AtomicBool::new(false),
        }
    }

    /// Write `record` as one line; `false` once any write has failed.
    pub(crate) fn write(&self, record: &Value) -> bool {
        if self.failed() {
            return false;
        }
        let mut line = record.to_string_compact();
        line.push('\n');
        let mut output = self.output.lock().expect("record writer lock");
        let RecordOutput {
            out,
            records,
            error,
        } = &mut *output;
        if error.is_some() {
            return false;
        }
        match out.write_all(line.as_bytes()).and_then(|()| out.flush()) {
            Ok(()) => {
                *records += 1;
                true
            }
            Err(e) => {
                *error = Some(e);
                self.failed.store(true, Ordering::Relaxed);
                false
            }
        }
    }

    /// `true` once a write has failed (the consumer hung up or closed the
    /// pipe): nothing further can be delivered.
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Records written so far.
    pub(crate) fn records(&self) -> usize {
        self.output.lock().expect("record writer lock").records
    }

    /// The number of records written, or the first write error.
    pub(crate) fn finish(self) -> std::io::Result<usize> {
        let output = self.output.into_inner().expect("record writer lock");
        match output.error {
            Some(e) => Err(e),
            None => Ok(output.records),
        }
    }
}

/// Where [`execute`] hands a submission's records: a serve job wraps each
/// in its job envelope and tallies its `"stats"` record, the one-shot
/// stream interleaves progress records.
pub(crate) trait ItemSink {
    /// `total` item records follow; called once, before the first.
    fn total(&mut self, _total: usize) {}

    /// Deliver one item record; `failed` marks an item that failed in
    /// place. `false` once the consumer is gone: execution stops claiming
    /// items.
    fn item(&mut self, record: Value, failed: bool) -> bool;

    /// A single job failed. The one-shot CLI fails the submission (`Err`);
    /// a serve session reports the failure in place and keeps serving.
    fn single_failed(&mut self, message: String) -> Result<(), String>;
}

/// The `{"status": "error", "message": ..}` object of an item that failed
/// in place.
pub(crate) fn error_object(message: String) -> Value {
    ObjectBuilder::new()
        .field("status", "error")
        .field("message", message)
        .build()
}

/// Concatenate two JSON objects' fields (`head`'s first); a non-object
/// `tail` passes through unchanged.
pub(crate) fn merge_objects(head: Value, tail: Value) -> Value {
    match (head, tail) {
        (Value::Object(mut pairs), Value::Object(tail)) => {
            pairs.extend(tail);
            Value::Object(pairs)
        }
        (_, v) => v,
    }
}

/// Execute a submission's payload, handing each record to `sink` in
/// completion order: batch records are [`run_submission`]'s entries plus
/// an `index` field, sweep records carry theirs natively, and failing
/// batch/sweep items report their error in place. With `stream`, a
/// frontier job delivers one record per Pareto point (the monolithic
/// document's `frontier` entries plus an `index`) instead of one document.
/// `Err` fails the whole submission: a sweep that does not expand, or a
/// failed single job the sink passes on. When the sink reports a dead
/// consumer, execution stops after the in-flight items.
pub(crate) fn execute(
    engine: &Estimator,
    kind: &SubmissionKind,
    stream: bool,
    sink: &mut impl ItemSink,
) -> Result<(), String> {
    match kind {
        SubmissionKind::Single(spec) if stream && spec.frontier => {
            let points = match run_frontier_points(engine, spec) {
                Ok(points) => points,
                Err(e) => return sink.single_failed(e),
            };
            sink.total(points.len());
            for (i, p) in points.iter().enumerate() {
                if !sink.item(frontier_point_json(i, p), false) {
                    break;
                }
            }
        }
        SubmissionKind::Single(spec) => match run_job(engine, spec) {
            Ok(value) => {
                sink.total(1);
                sink.item(value, false);
            }
            Err(e) => return sink.single_failed(e),
        },
        SubmissionKind::Batch(jobs) => {
            sink.total(jobs.len());
            qre_par::parallel_map_streamed_until(
                jobs,
                |_, spec| run_job(engine, spec),
                |index, outcome| {
                    let failed = outcome.is_err();
                    let index = ObjectBuilder::new().field("index", index as u64).build();
                    let record = merge_objects(index, outcome.unwrap_or_else(error_object));
                    if sink.item(record, failed) {
                        std::ops::ControlFlow::Continue(())
                    } else {
                        std::ops::ControlFlow::Break(())
                    }
                },
            );
        }
        SubmissionKind::Sweep(spec) => {
            sink.total(spec.len());
            engine
                .sweep_until(spec, |o| {
                    if sink.item(sweep_item_json(&o), o.outcome.is_err()) {
                        std::ops::ControlFlow::Continue(())
                    } else {
                        std::ops::ControlFlow::Break(())
                    }
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The one-shot `"stream": true` sink: every record as it finishes, a
/// `{"progress": k, "total": n}` record after every tenth of the total,
/// and (from [`run_submission_streamed`]) a final one.
struct NdjsonSink<'a> {
    writer: RecordWriter<&'a mut dyn Write>,
    total: usize,
    done: usize,
}

impl NdjsonSink<'_> {
    fn progress(&self) {
        let progress = ObjectBuilder::new()
            .field("progress", self.done as u64)
            .field("total", self.total as u64)
            .build();
        self.writer.write(&progress);
    }
}

impl ItemSink for NdjsonSink<'_> {
    fn total(&mut self, total: usize) {
        self.total = total;
    }

    fn item(&mut self, record: Value, _failed: bool) -> bool {
        self.writer.write(&record);
        self.done += 1;
        // ~10 progress records per run, at least one per item batch.
        if self.done.is_multiple_of((self.total / 10).max(1)) && self.done != self.total {
            self.progress();
        }
        !self.writer.failed()
    }

    fn single_failed(&mut self, message: String) -> Result<(), String> {
        Err(message)
    }
}

/// Run a submission through `engine`, streaming NDJSON to `out`: one
/// record per finished item **in completion order** (each record's `index`
/// names its submission/expansion position) plus periodic `{"progress": k,
/// "total": n}` records and a final one. Sweep records are field-for-field
/// identical to the corresponding entries of [`run_submission`]'s
/// monolithic document, and batch records are those entries plus an
/// `index` field; failing batch/sweep items report their error in place. A
/// failing *single* job returns `Err`, exactly as in [`run_submission`],
/// so exit codes do not depend on the delivery mode. A streamed *frontier*
/// job emits one record per Pareto point (the monolithic document's
/// `frontier` entries plus an `index` field) instead of one document.
pub fn run_submission_streamed(
    engine: &Estimator,
    submission: &Submission,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut sink = NdjsonSink {
        writer: RecordWriter::new(out),
        total: 0,
        done: 0,
    };
    execute(engine, &submission.kind, true, &mut sink)?;
    sink.progress();
    match sink.writer.finish() {
        Ok(_) => Ok(()),
        Err(e) => Err(format!("failed to write streamed output: {e}")),
    }
}

/// Accepted top-level fields of a single job document. `stream` is a
/// submission-level delivery option ([`parse_submission`] consumes it); it
/// is accepted here so a single-job submission validates as a job document.
const JOB_FIELDS: &[&str] = &[
    "algorithm",
    "qubitParams",
    "qecScheme",
    "errorBudget",
    "constraints",
    "estimateType",
    "searchBudgetPartition",
    "stream",
];

/// Parse and validate a JSON job document.
pub fn parse_job(text: &str) -> Result<JobSpec, String> {
    let doc = qre_json::parse(text).map_err(|e| e.to_string())?;
    parse_job_value(&doc)
}

/// [`parse_job`] over an already-parsed JSON document.
pub fn parse_job_value(doc: &Value) -> Result<JobSpec, String> {
    if doc.as_object().is_none() {
        return Err("job specification must be a JSON object".into());
    }
    check_fields(doc, "", JOB_FIELDS)?;

    let counts = parse_algorithm(
        doc.get("algorithm")
            .ok_or("missing required field `algorithm`")?,
    )?;
    let qubit = parse_qubit_params(doc.get("qubitParams"))?;
    let qec = parse_qec(doc.get("qecScheme"))?;

    let mut builder = EstimateRequest::builder()
        .counts(counts)
        .profile(qubit)
        .qec(qec);

    builder = match doc.get("errorBudget") {
        None => builder.total_error_budget(1e-3),
        Some(v) => {
            let budget = parse_error_budget(v, "errorBudget")?;
            builder.error_budget_parts(budget.logical, budget.t_states, budget.rotations)
        }
    };

    if let Some(c) = doc.get("constraints") {
        let parsed = parse_constraints(c)?;
        if let Some(v) = parsed.logical_depth_factor {
            builder = builder.logical_depth_factor(v);
        }
        if let Some(v) = parsed.max_t_factories {
            builder = builder.max_t_factories(v);
        }
        if let Some(v) = parsed.max_duration_ns {
            builder = builder.max_duration_ns(v);
        }
        if let Some(v) = parsed.max_physical_qubits {
            builder = builder.max_physical_qubits(v);
        }
    }

    let frontier = match doc.get("estimateType").and_then(Value::as_str) {
        None | Some("single") => false,
        Some("frontier") => true,
        Some(other) => return Err(format!("unknown estimateType `{other}`")),
    };

    let search_partition = match doc.get("searchBudgetPartition") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or("`searchBudgetPartition` must be a boolean")?,
    };
    if search_partition && !frontier {
        return Err("`searchBudgetPartition` requires `estimateType: \"frontier\"`".into());
    }

    let request = builder.build().map_err(|e| e.to_string())?;
    Ok(JobSpec {
        request,
        frontier,
        search_partition,
    })
}

/// Parse an error-budget value: a bare number is the total budget (split in
/// even thirds), an object names the parts explicitly. `ctx` names the
/// field in errors (`errorBudget`, `sweep.errorBudgets[i]`). The object
/// form requires `logical`; `tStates` and `rotations` default to 0.
fn parse_error_budget(v: &Value, ctx: &str) -> Result<ErrorBudget, String> {
    if let Some(total) = v.as_f64() {
        return ErrorBudget::from_total(total).map_err(|e| format!("{ctx}: {e}"));
    }
    if v.as_object().is_some() {
        check_fields(v, ctx, &["logical", "tStates", "rotations"])?;
        let logical = match v.get("logical") {
            None => return Err(format!("`{ctx}.logical` is missing")),
            Some(x) => x
                .as_f64()
                .ok_or_else(|| format!("{ctx}.logical must be a number"))?,
        };
        let optional = |name: &str| -> Result<f64, String> {
            v.get(name)
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("{ctx}.{name} must be a number"))
                })
                .transpose()
                .map(|o| o.unwrap_or(0.0))
        };
        return ErrorBudget::from_parts(logical, optional("tStates")?, optional("rotations")?)
            .map_err(|e| format!("{ctx}: {e}"));
    }
    Err(format!("`{ctx}` must be a number or an object"))
}

/// Parse a `constraints` object.
fn parse_constraints(c: &Value) -> Result<Constraints, String> {
    if c.as_object().is_none() {
        return Err("`constraints` must be an object".into());
    }
    check_fields(
        c,
        "constraints",
        &[
            "logicalDepthFactor",
            "maxTFactories",
            "maxDurationNs",
            "maxPhysicalQubits",
        ],
    )?;
    let mut out = Constraints::default();
    if let Some(v) = c.get("logicalDepthFactor") {
        out.logical_depth_factor = Some(v.as_f64().ok_or("logicalDepthFactor must be a number")?);
    }
    if let Some(v) = c.get("maxTFactories") {
        out.max_t_factories = Some(v.as_u64().ok_or("maxTFactories must be an integer")?);
    }
    if let Some(v) = c.get("maxDurationNs") {
        out.max_duration_ns = Some(v.as_f64().ok_or("maxDurationNs must be a number")?);
    }
    if let Some(v) = c.get("maxPhysicalQubits") {
        out.max_physical_qubits = Some(v.as_u64().ok_or("maxPhysicalQubits must be an integer")?);
    }
    Ok(out)
}

/// Parse the `sweep` object into a [`SweepSpec`].
fn parse_sweep(v: &Value) -> Result<SweepSpec, String> {
    if v.as_object().is_none() {
        return Err("`sweep` must be an object".into());
    }
    check_fields(
        v,
        "sweep",
        &[
            "algorithms",
            "qubitParams",
            "qecSchemes",
            "errorBudgets",
            "constraints",
        ],
    )?;

    let algorithms = v
        .get("algorithms")
        .ok_or("`sweep` requires an `algorithms` array")?
        .as_array()
        .ok_or("`sweep.algorithms` must be an array")?;
    if algorithms.is_empty() {
        return Err("`sweep.algorithms` must contain at least one algorithm".into());
    }
    let mut spec = SweepSpec::new();
    for (i, alg) in algorithms.iter().enumerate() {
        let counts = parse_algorithm(alg).map_err(|e| format!("algorithms[{i}]: {e}"))?;
        spec = spec.workload(algorithm_label(alg, i), counts);
    }

    match v.get("qubitParams") {
        None => {
            // The paper's Figure 4 default: all six profiles.
            spec = spec.profiles(PhysicalQubit::default_profiles());
        }
        Some(list) => {
            let list = list
                .as_array()
                .ok_or("`sweep.qubitParams` must be an array")?;
            if list.is_empty() {
                return Err("`sweep.qubitParams` must contain at least one profile".into());
            }
            for (i, q) in list.iter().enumerate() {
                let qubit =
                    parse_qubit_params(Some(q)).map_err(|e| format!("qubitParams[{i}]: {e}"))?;
                spec = spec.profile(qubit);
            }
        }
    }

    if let Some(list) = v.get("qecSchemes") {
        let list = list
            .as_array()
            .ok_or("`sweep.qecSchemes` must be an array")?;
        for (i, s) in list.iter().enumerate() {
            let scheme = match s.get("name").and_then(Value::as_str) {
                Some("default") => SweepScheme::ProfileDefault,
                Some("surface_code") => SweepScheme::Kind(QecSchemeKind::SurfaceCode),
                Some("floquet_code") => SweepScheme::Kind(QecSchemeKind::FloquetCode),
                Some(other) => {
                    return Err(format!("qecSchemes[{i}]: unknown QEC scheme `{other}`"))
                }
                None => return Err(format!("qecSchemes[{i}]: `qecScheme` requires a `name`")),
            };
            spec = spec.scheme(scheme);
        }
    }

    if let Some(list) = v.get("errorBudgets") {
        let list = list
            .as_array()
            .ok_or("`sweep.errorBudgets` must be an array")?;
        for (i, b) in list.iter().enumerate() {
            // Both forms the top-level `errorBudget` field accepts: a bare
            // total or a `{"logical": …, "tStates": …, "rotations": …}`
            // partition object.
            let budget = parse_error_budget(b, &format!("sweep.errorBudgets[{i}]"))?;
            spec = spec.budget(budget);
        }
    }

    if let Some(list) = v.get("constraints") {
        let list = list
            .as_array()
            .ok_or("`sweep.constraints` must be an array of constraint objects")?;
        for (i, c) in list.iter().enumerate() {
            let parsed = parse_constraints(c).map_err(|e| format!("constraints[{i}]: {e}"))?;
            spec = spec.constraint(parsed);
        }
    }

    Ok(spec)
}

/// Human-readable workload label for a sweep's algorithm entry.
fn algorithm_label(v: &Value, index: usize) -> String {
    if let Some(m) = v.get("multiplication") {
        let alg = m
            .get("algorithm")
            .and_then(Value::as_str)
            .unwrap_or("multiplication");
        match m.get("bits").and_then(Value::as_u64) {
            Some(bits) => format!("{alg}/{bits}"),
            None => alg.to_string(),
        }
    } else if v.get("qir").is_some() {
        format!("qir[{index}]")
    } else {
        format!("logicalCounts[{index}]")
    }
}

fn parse_algorithm(v: &Value) -> Result<LogicalCounts, String> {
    check_fields(v, "algorithm", &["logicalCounts", "qir", "multiplication"])?;
    if let Some(counts) = v.get("logicalCounts") {
        return LogicalCounts::from_json(counts);
    }
    if let Some(qir_text) = v.get("qir").and_then(Value::as_str) {
        let circuit = qir::parse_qir(qir_text).map_err(|e| e.to_string())?;
        let counts = circuit.counts();
        if counts.num_qubits == 0 {
            return Err("QIR program uses no qubits".into());
        }
        return Ok(counts);
    }
    if let Some(m) = v.get("multiplication") {
        check_fields(m, "multiplication", &["algorithm", "bits"])?;
        let alg = match m.get("algorithm").and_then(Value::as_str) {
            Some("standard" | "schoolbook") => MulAlgorithm::Schoolbook,
            Some("karatsuba") => MulAlgorithm::Karatsuba,
            Some("windowed") => MulAlgorithm::Windowed,
            Some(other) => return Err(format!("unknown multiplication algorithm `{other}`")),
            None => return Err("multiplication requires an `algorithm` field".into()),
        };
        let raw_bits = m
            .get("bits")
            .and_then(Value::as_u64)
            .ok_or("multiplication requires integer `bits`")?;
        // `try_into` instead of `as`: on 32-bit targets a u64 would silently
        // truncate before the range check, turning e.g. 2^32+64 into 64.
        let bits: usize = raw_bits
            .try_into()
            .ok()
            .filter(|b| (2..=1 << 20).contains(b))
            .ok_or_else(|| {
                format!("multiplication `bits` must lie in 2..=1048576 (2^20), got {raw_bits}")
            })?;
        return Ok(qre_arith::multiplication_counts(alg, bits));
    }
    Err("`algorithm` must contain `logicalCounts`, `qir`, or `multiplication`".into())
}

fn parse_qubit_params(v: Option<&Value>) -> Result<PhysicalQubit, String> {
    let Some(v) = v else {
        return Ok(PhysicalQubit::qubit_gate_ns_e3());
    };
    if v.as_object().is_none() {
        return Err("`qubitParams` must be an object".into());
    }
    check_fields(
        v,
        "qubitParams",
        &[
            "name",
            "oneQubitGateTimeNs",
            "twoQubitGateTimeNs",
            "oneQubitMeasurementTimeNs",
            "twoQubitMeasurementTimeNs",
            "tGateTimeNs",
            "oneQubitGateError",
            "twoQubitGateError",
            "oneQubitMeasurementError",
            "twoQubitMeasurementError",
            "tGateError",
            "idleError",
        ],
    )?;
    let mut qubit = match v.get("name").and_then(Value::as_str) {
        Some(name) => {
            PhysicalQubit::by_name(name).ok_or_else(|| format!("unknown qubit profile `{name}`"))?
        }
        None => PhysicalQubit::qubit_gate_ns_e3(),
    };
    // Field overrides (Section IV-C.1: "customize a subset of the
    // parameters of the default models").
    let set = |field: &mut f64, key: &str| -> Result<(), String> {
        if let Some(x) = v.get(key) {
            *field = x
                .as_f64()
                .ok_or_else(|| format!("`qubitParams.{key}` must be a number"))?;
        }
        Ok(())
    };
    set(&mut qubit.one_qubit_gate_time_ns, "oneQubitGateTimeNs")?;
    set(&mut qubit.two_qubit_gate_time_ns, "twoQubitGateTimeNs")?;
    set(
        &mut qubit.one_qubit_measurement_time_ns,
        "oneQubitMeasurementTimeNs",
    )?;
    set(
        &mut qubit.two_qubit_measurement_time_ns,
        "twoQubitMeasurementTimeNs",
    )?;
    set(&mut qubit.t_gate_time_ns, "tGateTimeNs")?;
    set(&mut qubit.one_qubit_gate_error, "oneQubitGateError")?;
    set(&mut qubit.two_qubit_gate_error, "twoQubitGateError")?;
    set(
        &mut qubit.one_qubit_measurement_error,
        "oneQubitMeasurementError",
    )?;
    set(
        &mut qubit.two_qubit_measurement_error,
        "twoQubitMeasurementError",
    )?;
    set(&mut qubit.t_gate_error, "tGateError")?;
    set(&mut qubit.idle_error, "idleError")?;
    qubit.validate().map_err(|e| e.to_string())?;
    Ok(qubit)
}

fn parse_qec(v: Option<&Value>) -> Result<QecSchemeKind, String> {
    let Some(v) = v else {
        return Ok(QecSchemeKind::SurfaceCode);
    };
    check_fields(v, "qecScheme", &["name"])?;
    match v.get("name").and_then(Value::as_str) {
        None => Err("`qecScheme` requires a `name`".into()),
        Some("surface_code") => Ok(QecSchemeKind::SurfaceCode),
        Some("floquet_code") => Ok(QecSchemeKind::FloquetCode),
        Some(other) => Err(format!("unknown QEC scheme `{other}`")),
    }
}

/// Run a job specification through `engine`, producing the result JSON (a
/// single result object, or a frontier array).
pub fn run_job(engine: &Estimator, spec: &JobSpec) -> Result<Value, String> {
    if spec.frontier {
        let points = run_frontier_points(engine, spec)?;
        let items: Vec<Value> = points
            .iter()
            .map(|p| {
                ObjectBuilder::new()
                    .field("maxTFactories", p.max_t_factories)
                    .field("errorBudget", p.budget.to_json())
                    .field("result", p.result.to_json())
                    .build()
            })
            .collect();
        Ok(ObjectBuilder::new()
            .field("status", "success")
            .field("estimateType", "frontier")
            .field("searchBudgetPartition", spec.search_partition)
            .field("frontier", Value::Array(items))
            .build())
    } else {
        let result = engine.estimate(&spec.request).map_err(|e| e.to_string())?;
        Ok(result.to_json())
    }
}

/// Explore a frontier job's Pareto set: the plain factory-cap frontier, or
/// the two-axis (budget partition × cap) search when the job asked for
/// `"searchBudgetPartition": true`.
pub(crate) fn run_frontier_points(
    engine: &Estimator,
    spec: &JobSpec,
) -> Result<Vec<FrontierPoint>, String> {
    let points = if spec.search_partition {
        engine.frontier_searched(&spec.request, &PartitionSearch::default())
    } else {
        engine.frontier(&spec.request)
    };
    points.map_err(|e| e.to_string())
}

/// One streamed frontier-point record: the monolithic document's entry
/// fields plus the point's `index` along the frontier.
pub(crate) fn frontier_point_json(index: usize, p: &FrontierPoint) -> Value {
    ObjectBuilder::new()
        .field("index", index as u64)
        .field("maxTFactories", p.max_t_factories)
        .field("errorBudget", p.budget.to_json())
        .field("result", p.result.to_json())
        .build()
}

/// Run a job through `engine` and return the human-readable report
/// instead of JSON.
pub fn run_job_report(engine: &Estimator, spec: &JobSpec) -> Result<String, String> {
    let result = engine.estimate(&spec.request).map_err(|e| e.to_string())?;
    Ok(result.to_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTS_JOB: &str = r#"{
        "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000, "cczCount": 1000, "measurementCount": 20000 } },
        "qubitParams": { "name": "qubit_gate_ns_e3" },
        "qecScheme": { "name": "surface_code" },
        "errorBudget": 0.001
    }"#;

    #[test]
    fn counts_job_round_trip() {
        let spec = parse_job(COUNTS_JOB).unwrap();
        assert!(!spec.frontier);
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert_eq!(out.get("status").unwrap().as_str(), Some("success"));
        assert!(
            out.get_path("physicalCounts.physicalQubits")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn qir_job() {
        let job = r#"{
            "algorithm": { "qir": "call void @__quantum__qis__t__body(%Qubit* null)\ncall void @__quantum__qis__mz__body(%Qubit* null, %Result* null)" },
            "qubitParams": { "name": "qubit_gate_ns_e4" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.01
        }"#;
        let spec = parse_job(job).unwrap();
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("preLayoutLogicalResources.tCount")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn multiplication_job() {
        let job = r#"{
            "algorithm": { "multiplication": { "algorithm": "windowed", "bits": 128 } },
            "qubitParams": { "name": "qubit_maj_ns_e4" },
            "qecScheme": { "name": "floquet_code" },
            "errorBudget": 1e-4
        }"#;
        let spec = parse_job(job).unwrap();
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert!(
            out.get_path("breakdown.numTstates")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn frontier_job() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "estimateType": "frontier"
        }"#;
        let spec = parse_job(job).unwrap();
        assert!(spec.frontier);
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert_eq!(out.get("estimateType").unwrap().as_str(), Some("frontier"));
        assert!(!out.get("frontier").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn searched_frontier_job_carries_partitions_and_dominates_fixed() {
        let body = r#"
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "estimateType": "frontier""#;
        let fixed = parse_job(&format!("{{{body}}}")).unwrap();
        let searched = parse_job(&format!("{{{body}, \"searchBudgetPartition\": true}}")).unwrap();
        assert!(!fixed.search_partition);
        assert!(searched.frontier && searched.search_partition);

        let fixed = run_job(&Estimator::new(), &fixed).unwrap();
        let searched = run_job(&Estimator::new(), &searched).unwrap();
        assert_eq!(
            searched.get("searchBudgetPartition").unwrap().as_bool(),
            Some(true)
        );
        let coords = |doc: &Value| -> Vec<(u64, f64)> {
            doc.get("frontier")
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|p| {
                    // Every point names the partition that produced it.
                    assert!(p.get_path("errorBudget.logical").unwrap().as_f64().unwrap() > 0.0);
                    (
                        p.get_path("result.physicalCounts.physicalQubits")
                            .unwrap()
                            .as_u64()
                            .unwrap(),
                        p.get_path("result.physicalCounts.runtimeNs")
                            .unwrap()
                            .as_f64()
                            .unwrap(),
                    )
                })
                .collect()
        };
        let searched = coords(&searched);
        for (q, t) in coords(&fixed) {
            assert!(
                searched.iter().any(|&(sq, st)| sq <= q && st <= t),
                "fixed point ({q}, {t}) not weakly dominated"
            );
        }
    }

    #[test]
    fn search_partition_requires_frontier_type() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "searchBudgetPartition": true
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("estimateType"), "{err}");
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "estimateType": "frontier",
            "searchBudgetPartition": 1
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn streamed_frontier_emits_one_record_per_point() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 50, "tCount": 100000, "measurementCount": 1000 } },
            "errorBudget": 0.001,
            "estimateType": "frontier",
            "searchBudgetPartition": true,
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        let mut bytes = Vec::new();
        run_submission_streamed(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        assert!(records.len() >= 2, "expected a real trade-off curve");
        // Records arrive in frontier order with their coordinates attached.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.get("index").unwrap().as_u64(), Some(i as u64));
            assert!(r.get("maxTFactories").unwrap().as_u64().is_some());
            assert!(r.get_path("errorBudget.total").unwrap().as_f64().is_some());
            assert!(r.get_path("result.physicalCounts").is_some());
        }
        // Streamed records are field-identical to the monolithic document's
        // entries, plus the index.
        let spec = match &submission.kind {
            SubmissionKind::Single(spec) => spec,
            _ => unreachable!(),
        };
        let doc = run_job(&Estimator::new(), spec).unwrap();
        let entries = doc.get("frontier").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), records.len());
        for (i, (entry, record)) in entries.iter().zip(&records).enumerate() {
            let expected = match (
                ObjectBuilder::new().field("index", i as u64).build(),
                entry.clone(),
            ) {
                (Value::Object(mut head), Value::Object(tail)) => {
                    head.extend(tail);
                    Value::Object(head)
                }
                _ => unreachable!(),
            };
            assert_eq!(&expected, *record);
        }
    }

    #[test]
    fn sweep_error_budget_accepts_object_form() {
        // The same partition, written as the object form the top-level
        // `errorBudget` field accepts and as an equivalent explicit total.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" } ],
            "errorBudgets": [ { "logical": 1e-4, "tStates": 2e-4, "rotations": 0 }, 1e-3 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        let out = run_submission(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        let total = items[0].get_path("errorBudget").unwrap().as_f64().unwrap();
        assert!((total - 3e-4).abs() < 1e-15, "got {total}");
        assert_eq!(
            items[0]
                .get_path("result.errorBudget.tStates")
                .unwrap()
                .as_f64(),
            Some(2e-4)
        );
    }

    #[test]
    fn sweep_error_budget_object_errors_name_fields() {
        let missing = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "tStates": 2e-4 } ]
        } }"#;
        let err = parse_submission(missing).unwrap_err();
        assert!(err.contains("missing"), "{err}");
        assert!(err.contains("errorBudgets[0].logical"), "{err}");

        let not_a_number = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "logical": "big" } ]
        } }"#;
        let err = parse_submission(not_a_number).unwrap_err();
        assert!(err.contains("must be a number"), "{err}");

        let typo = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ { "logical": 1e-4, "tState": 2e-4 } ]
        } }"#;
        let err = parse_submission(typo).unwrap_err();
        assert!(err.contains("tState"), "{err}");
        assert!(err.contains("tStates"), "{err}");

        let neither = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 1000 } } ],
            "errorBudgets": [ true ]
        } }"#;
        let err = parse_submission(neither).unwrap_err();
        assert!(err.contains("number or an object"), "{err}");
    }

    #[test]
    fn qubit_overrides() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
            "qubitParams": { "name": "qubit_gate_ns_e3", "tGateError": 0.0002 },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001
        }"#;
        let spec = parse_job(job).unwrap();
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("physicalQubitParameters.tGateError")
                .unwrap()
                .as_f64(),
            Some(2e-4)
        );
    }

    #[test]
    fn constraints_respected() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 100, "tCount": 50000, "measurementCount": 1000 } },
            "qubitParams": { "name": "qubit_gate_ns_e3" },
            "qecScheme": { "name": "surface_code" },
            "errorBudget": 0.001,
            "constraints": { "maxTFactories": 2 }
        }"#;
        let out = run_job(&Estimator::new(), &parse_job(job).unwrap()).unwrap();
        assert!(
            out.get_path("breakdown.numTfactories")
                .unwrap()
                .as_u64()
                .unwrap()
                <= 2
        );
    }

    #[test]
    fn defaults_applied() {
        let job = r#"{ "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } } }"#;
        let spec = parse_job(job).unwrap();
        let out = run_job(&Estimator::new(), &spec).unwrap();
        assert_eq!(
            out.get_path("physicalQubitParameters.name")
                .unwrap()
                .as_str(),
            Some("qubit_gate_ns_e3")
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_job("not json").is_err());
        assert!(parse_job("{}").unwrap_err().contains("algorithm"));
        let bad_alg = r#"{ "algorithm": { "something": 1 } }"#;
        assert!(parse_job(bad_alg).unwrap_err().contains("logicalCounts"));
        let bad_profile = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "qubitParams": { "name": "qubit_unobtainium" }
        }"#;
        assert!(parse_job(bad_profile)
            .unwrap_err()
            .contains("unknown qubit profile"));
        let bad_scheme = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "qecScheme": { "name": "wormhole_code" }
        }"#;
        assert!(parse_job(bad_scheme)
            .unwrap_err()
            .contains("unknown QEC scheme"));
        let bad_type = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5 } },
            "estimateType": "quantum"
        }"#;
        assert!(parse_job(bad_type).unwrap_err().contains("estimateType"));
    }

    #[test]
    fn batch_submission() {
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 200 } },
              "qubitParams": { "name": "qubit_maj_ns_e4" },
              "qecScheme": { "name": "floquet_code" } }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        assert!(!submission.stream);
        assert!(matches!(submission.kind, SubmissionKind::Batch(ref jobs) if jobs.len() == 2));
        let out = run_submission(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        for item in items {
            assert_eq!(item.get("status").unwrap().as_str(), Some("success"));
        }
        // Distinct profiles flowed through.
        assert_eq!(
            items[1]
                .get_path("physicalQubitParameters.name")
                .unwrap()
                .as_str(),
            Some("qubit_maj_ns_e4")
        );
    }

    #[test]
    fn batch_reports_per_item_errors() {
        // The second item is infeasible (error budget unreachable on that
        // hardware); the batch still succeeds with an in-place error.
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        let out = run_submission(&Estimator::new(), &submission).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("status").unwrap().as_str(), Some("success"));
        assert_eq!(items[1].get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn batch_rejects_malformed_items() {
        assert!(parse_submission(r#"{ "items": [] }"#).is_err());
        assert!(parse_submission(r#"{ "items": 5 }"#).is_err());
        let err = parse_submission(r#"{ "items": [ { "nope": 1 } ] }"#).unwrap_err();
        assert!(err.contains("items[0]"), "{err}");
    }

    #[test]
    fn single_submission_passthrough() {
        let submission = parse_submission(COUNTS_JOB).unwrap();
        assert!(matches!(submission.kind, SubmissionKind::Single(_)));
        let out = run_submission(&Estimator::new(), &submission).unwrap();
        assert!(out.get("physicalCounts").is_some());
    }

    #[test]
    fn report_mode() {
        let spec = parse_job(COUNTS_JOB).unwrap();
        let report = run_job_report(&Estimator::new(), &spec).unwrap();
        assert!(report.contains("Physical resource estimates"));
    }

    #[test]
    fn unknown_top_level_field_is_rejected() {
        // The classic typo: plural `errorBudgets` on a single job.
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "errorBudgets": [0.001]
        }"#;
        let err = parse_job(job).unwrap_err();
        assert!(err.contains("errorBudgets"), "{err}");
        assert!(err.contains("accepted fields"), "{err}");
        assert!(err.contains("errorBudget"), "{err}");
    }

    #[test]
    fn unknown_nested_fields_are_rejected() {
        let bad_constraint = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "constraints": { "maxTFactory": 2 }
        }"#;
        let err = parse_job(bad_constraint).unwrap_err();
        assert!(
            err.contains("maxTFactory") && err.contains("maxTFactories"),
            "{err}"
        );

        let bad_qubit = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "qubitParams": { "name": "qubit_gate_ns_e3", "tGateErr": 1e-4 }
        }"#;
        let err = parse_job(bad_qubit).unwrap_err();
        assert!(
            err.contains("tGateErr") && err.contains("tGateError"),
            "{err}"
        );

        let err = parse_submission(r#"{ "items": [], "extra": 1 }"#).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn sweep_submission_expands_and_runs() {
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "multiplication": { "algorithm": "windowed", "bits": 64 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
            "errorBudgets": [ 1e-4 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        assert!(matches!(submission.kind, SubmissionKind::Sweep(_)));
        let out = run_submission(&Estimator::new(), &submission).unwrap();
        assert_eq!(out.get("estimateType").unwrap().as_str(), Some("sweep"));
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("workload").unwrap().as_str(),
            Some("windowed/64")
        );
        assert_eq!(
            items[0].get("profile").unwrap().as_str(),
            Some("qubit_gate_ns_e3")
        );
        // The profile-default pairing resolved per item.
        assert_eq!(
            items[0].get("qecScheme").unwrap().as_str(),
            Some("surface_code")
        );
        assert_eq!(
            items[1].get("qecScheme").unwrap().as_str(),
            Some("floquet_code")
        );
        for item in items {
            assert_eq!(item.get("status").unwrap().as_str(), Some("success"));
            assert!(
                item.get_path("result.physicalCounts.physicalQubits")
                    .unwrap()
                    .as_u64()
                    .unwrap()
                    > 0
            );
        }
    }

    #[test]
    fn sweep_defaults_to_all_profiles() {
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ]
        } }"#;
        let out = run_submission(&Estimator::new(), &parse_submission(sweep).unwrap()).unwrap();
        assert_eq!(out.get("items").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn sweep_reports_item_errors_in_place() {
        // Floquet on gate-based hardware fails that item only.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
            "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
            "qecSchemes": [ { "name": "floquet_code" } ]
        } }"#;
        let out = run_submission(&Estimator::new(), &parse_submission(sweep).unwrap()).unwrap();
        let items = out.get("items").unwrap().as_array().unwrap();
        assert_eq!(items[0].get("status").unwrap().as_str(), Some("error"));
        assert!(items[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Majorana"));
        assert_eq!(items[1].get("status").unwrap().as_str(), Some("success"));
    }

    #[test]
    fn multiplication_bits_out_of_range_is_rejected() {
        // In range: fine.
        assert!(parse_job(
            r#"{ "algorithm": { "multiplication": { "algorithm": "windowed", "bits": 64 } } }"#
        )
        .is_ok());
        // Out of the accepted range (and, on 32-bit targets, out of usize):
        // must be rejected with the range named, never truncated.
        let big = r#"{ "algorithm": { "multiplication":
            { "algorithm": "windowed", "bits": 4294967360 } } }"#;
        let err = parse_job(big).unwrap_err();
        assert!(err.contains("2..=1048576"), "{err}");
        assert!(err.contains("4294967360"), "{err}");
        let small = r#"{ "algorithm": { "multiplication":
            { "algorithm": "windowed", "bits": 1 } } }"#;
        let err = parse_job(small).unwrap_err();
        assert!(err.contains("2..=1048576"), "{err}");
    }

    fn parse_ndjson_lines(bytes: &[u8]) -> Vec<Value> {
        std::str::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(|line| qre_json::parse(line).expect("every NDJSON line parses"))
            .collect()
    }

    #[test]
    fn streamed_sweep_emits_ndjson_equal_to_collecting_run() {
        let sweep = r#"{ "stream": true, "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 20, "tCount": 2000 } } ],
            "errorBudgets": [ 1e-4 ]
        } }"#;
        let submission = parse_submission(sweep).unwrap();
        assert!(submission.stream);
        let mut bytes = Vec::new();
        run_submission_streamed(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);

        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        let progress: Vec<&Value> = lines
            .iter()
            .filter(|v| v.get("progress").is_some())
            .collect();
        assert_eq!(records.len(), 6, "one record per sweep item");
        assert!(!progress.is_empty(), "progress records interleave");
        // The final line is the completed progress record.
        let last = lines.last().unwrap();
        assert_eq!(last.get("progress").unwrap().as_u64(), Some(6));
        assert_eq!(last.get("total").unwrap().as_u64(), Some(6));

        // Streamed records are field-for-field the collecting document's
        // items, matched up by index.
        let collected = run_submission(&Estimator::new(), &submission).unwrap();
        let items = collected.get("items").unwrap().as_array().unwrap();
        for record in records {
            let index = record.get("index").unwrap().as_u64().unwrap() as usize;
            assert_eq!(
                record.to_string_compact(),
                items[index].to_string_compact(),
                "record {index} diverges from the collecting API"
            );
        }
    }

    #[test]
    fn streamed_batch_records_carry_indices() {
        let batch = r#"{ "stream": true, "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        let mut bytes = Vec::new();
        run_submission_streamed(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        let records: Vec<&Value> = lines.iter().filter(|v| v.get("index").is_some()).collect();
        assert_eq!(records.len(), 3);
        let mut indices: Vec<u64> = records
            .iter()
            .map(|r| r.get("index").unwrap().as_u64().unwrap())
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
        // The infeasible item reports its error in place.
        let failing = records
            .iter()
            .find(|r| r.get("index").unwrap().as_u64() == Some(1))
            .unwrap();
        assert_eq!(failing.get("status").unwrap().as_str(), Some("error"));
    }

    #[test]
    fn streamed_records_leave_in_one_write_and_one_flush() {
        /// Accepts every byte, counting the calls that delivered them.
        #[derive(Default)]
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
            flushes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }

        let batch = r#"{ "stream": true, "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } }
        ] }"#;
        let submission = parse_submission(batch).unwrap();
        let mut out = CountingWriter::default();
        run_submission_streamed(&Estimator::new(), &submission, &mut out).unwrap();
        let lines = parse_ndjson_lines(&out.bytes);
        // Three item records, a progress record after each, the last of them
        // the final one.
        assert_eq!(lines.len(), 6);
        assert!(out.bytes.ends_with(b"\n"));
        assert_eq!(out.writes, lines.len(), "one write per record");
        assert_eq!(out.flushes, lines.len(), "one flush per record");
    }

    #[test]
    fn streamed_single_job_emits_one_record_and_progress() {
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        assert!(submission.stream);
        let mut bytes = Vec::new();
        run_submission_streamed(&Estimator::new(), &submission, &mut bytes).unwrap();
        let lines = parse_ndjson_lines(&bytes);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].get("physicalCounts").is_some());
        assert_eq!(lines[1].get("progress").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn streamed_single_job_failure_propagates_like_collecting() {
        // A failing single job must error out (exit code 1 at the binary)
        // whether streamed or collected — not degrade to an NDJSON record.
        let job = r#"{
            "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
            "errorBudget": 1e-60,
            "stream": true
        }"#;
        let submission = parse_submission(job).unwrap();
        let mut bytes = Vec::new();
        let streamed = run_submission_streamed(&Estimator::new(), &submission, &mut bytes);
        let collected = run_submission(&Estimator::new(), &submission);
        assert!(streamed.is_err());
        assert_eq!(streamed.unwrap_err(), collected.unwrap_err());
        assert!(bytes.is_empty(), "no partial output on a failed single job");
    }

    #[test]
    fn chunked_monolithic_writer_is_byte_identical_to_collecting() {
        // The chunk-flushed document writer must emit the exact bytes of
        // pretty/compact-printing the collected value (plus the trailing
        // newline the CLI adds) — with a chunk size small enough that this
        // sweep and batch genuinely cross chunk boundaries.
        let sweep = r#"{ "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 20, "tCount": 2000 } } ],
            "errorBudgets": [ 1e-3, 1e-4 ]
        } }"#;
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
              "errorBudget": 1e-60 },
            { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 12, "tCount": 500 } } },
            { "algorithm": { "logicalCounts": { "numQubits": 14, "tCount": 700 } } }
        ] }"#;
        let single = r#"{ "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } } }"#;
        for text in [sweep, batch, single] {
            let submission = parse_submission(text).unwrap();
            let engine = Estimator::new();
            let collected = run_submission(&engine, &submission).unwrap();
            for (compact, expected) in [
                (false, format!("{}\n", collected.to_string_pretty())),
                (true, format!("{}\n", collected.to_string_compact())),
            ] {
                let mut bytes = Vec::new();
                write_submission_chunked(&engine, &submission, &mut bytes, compact, 2).unwrap();
                assert_eq!(
                    String::from_utf8(bytes).unwrap(),
                    expected,
                    "compact={compact} output diverges for {text}"
                );
            }
        }
    }

    #[test]
    fn chunked_writer_failures_leave_stdout_untouched() {
        // A sweep whose expansion fails must produce no partial document,
        // exactly like the collecting path.
        let spec = SweepSpec::new().profile(PhysicalQubit::qubit_gate_ns_e3());
        let submission = Submission {
            stream: false,
            kind: SubmissionKind::Sweep(Box::new(spec)),
        };
        let engine = Estimator::new();
        let mut bytes = Vec::new();
        let err = write_submission(&engine, &submission, &mut bytes, false).unwrap_err();
        assert!(err.contains("workload"), "{err}");
        assert!(bytes.is_empty(), "no partial output on a failed sweep");
    }

    #[test]
    fn stream_flag_must_be_boolean() {
        let err = parse_submission(r#"{ "stream": 1, "items": [] }"#).unwrap_err();
        assert!(err.contains("boolean"), "{err}");
    }

    #[test]
    fn stream_flag_inside_batch_items_is_rejected() {
        // Submission-level option misplaced on an item: must error, not be
        // silently ignored.
        let batch = r#"{ "items": [
            { "algorithm": { "logicalCounts": { "numQubits": 5, "tCount": 10 } },
              "stream": true }
        ] }"#;
        let err = parse_submission(batch).unwrap_err();
        assert!(err.contains("items[0]"), "{err}");
        assert!(err.contains("top level"), "{err}");
    }

    #[test]
    fn sweep_rejects_unknown_and_missing_fields() {
        let err = parse_submission(r#"{ "sweep": { "algorithm": [] } }"#).unwrap_err();
        assert!(err.contains("algorithms"), "{err}");
        let err = parse_submission(r#"{ "sweep": { "algorithms": [] } }"#).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = parse_submission(
            r#"{ "sweep": { "algorithms": [ { "logicalCounts": { "numQubits": 2 } } ],
                 "qecSchemes": [ { "name": "wormhole_code" } ] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("wormhole_code"), "{err}");
    }
}
