//! Job-server mode: a long-running NDJSON estimation service.
//!
//! This module is the **session engine** behind both transports of `qre
//! serve`: the single-client stdin/stdout pipe ([`serve`]) and the
//! multi-client TCP listener (`qre serve --listen`, [`crate::listen_serve`]).
//! Both run the same loop — [`run_session`] — over one process-wide
//! [`ServeShared`] state, mirroring the cloud submission loop of paper
//! Section IV-A as a persistent local service: the shared factory-design
//! store stays alive across jobs *and across clients*, so a sweep re-run (or
//! a related scenario submitted by a different connection) hits the warm
//! cache instead of repeating the distillation-pipeline search.
//!
//! [`run_session`] documents the line protocol: the input fields, the
//! control commands, and the item, stats, error and lifecycle records.
//!
//! ## Admission control and backpressure
//!
//! Concurrency is bounded twice: [`ServeOptions::max_in_flight`] caps the
//! jobs of *one session* (its reader blocks — leaving further lines unread
//! in the pipe or socket buffer, the natural backpressure — while that many
//! jobs are in flight), and [`ServeOptions::global_jobs`] caps jobs across
//! *every* session of the process, so forty connections cannot fan out
//! forty heavy sweeps at once. Output is bounded too: a job writes each of
//! its records itself, straight to the session's output, so a slow or
//! stalled client blocks the job that is writing, and the execution layers
//! underneath ([`qre_par::streamed_buffer_bound`]) cap their own run-ahead.
//! The client throttles its jobs instead of ballooning resident memory with
//! undelivered results, and loses nothing once it resumes reading.
//!
//! ## Cache scoping, bounding, and persistence
//!
//! The session's design store is one process-wide
//! [`qre_core::FactoryCache`] owned by [`ServeShared`]; each job estimates
//! through its own [`FactoryCache::scoped`] view, so the `"stats"` record's
//! hit/miss counters are exact per job while every job — of every session —
//! shares (and extends) the same designs. Two option groups extend the
//! store beyond one process:
//!
//! * **Bounding** — [`ServeOptions::cache_capacity`] (`--cache-cap N`)
//!   caps the store at `N` designs with least-recently-used eviction, so a
//!   week-long session holds a fixed memory ceiling; the shared eviction
//!   count is reported as `"cacheEvictions"` in every stats record.
//! * **Persistence** — [`ServeOptions::cache_file`] (`--cache-file PATH`)
//!   loads a snapshot when the [`ServeShared`] state is built (a missing
//!   file is a normal cold start; a corrupt or version-mismatched file is
//!   reported loudly on stderr and the service continues cold) and saves
//!   atomically **exactly once** at process end ([`ServeShared::final_save`]
//!   — including the dead-output exit and the graceful drain), so a
//!   downstream consumer hanging up never loses the session's designs.
//!   With [`ServeOptions::save_every`] > 0 (`--save-every N`) the store is
//!   also saved after every `N` completed jobs across all sessions,
//!   bounding what a crash can lose. The snapshot is the versioned JSON
//!   document described in the [`qre_core::FactoryCache`] docs (`"format":
//!   "qre-factory-cache"`, `"version"` = [`qre_core::SNAPSHOT_VERSION`]);
//!   its floats are stored as IEEE-754 bit patterns, so a design loaded in
//!   the next session is bit-identical to the one this session searched.
//!   Concurrent *processes* sharing one snapshot path are last-writer-wins:
//!   every save writes a unique temporary file and renames it into place,
//!   so the path always holds one complete, valid snapshot — whichever
//!   process saved last — never a torn interleaving.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use qre_core::{Estimator, FactoryCache, Shard};
use qre_json::{ObjectBuilder, Value};

use crate::{emit_error, error_object, record_line, ItemSink, RecordWriter, SubmissionKind};

/// Longest job line a session reads, in bytes before its newline: ample for
/// any real job (the 100,044-point stress job line is 173,417 bytes), and a
/// bound on what one line can make the reader buffer.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Knobs of a serve service (pipe or network).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-session admission bound: at most this many of one client's jobs
    /// estimate concurrently; further lines stay unread in the input buffer
    /// (the bound also limits read-ahead). At least 1; `1` runs a session's
    /// jobs strictly in arrival order.
    pub max_in_flight: usize,
    /// Process-wide job bound shared by every session (`--jobs N` in
    /// network mode): jobs admitted by their session still wait here while
    /// this many jobs are running across all connections. `None` (the
    /// default, and the pipe mode's setting) uses [`Self::max_in_flight`] —
    /// with one session the two gates coincide.
    pub global_jobs: Option<usize>,
    /// Bound on the process-wide design store (`--cache-cap N`): at most
    /// this many designs are kept, evicting least-recently-used entries.
    /// `None` (the default) stores every design the session searches.
    pub cache_capacity: Option<usize>,
    /// Snapshot file for the design store (`--cache-file PATH`): loaded
    /// when the service starts (missing file = cold start; corrupt or
    /// version-mismatched file = loud stderr warning, then cold start) and
    /// saved atomically exactly once at service end. `None` (the default)
    /// keeps the store in memory only.
    pub cache_file: Option<PathBuf>,
    /// With [`ServeOptions::cache_file`] set, also save the snapshot after
    /// every this-many completed jobs across all sessions (`--save-every
    /// N`); `0` saves only at service end. Ignored without a cache file.
    pub save_every: usize,
    /// Extend every job's closing `"stats"` record with a `searchStats`
    /// object (`--search-stats`): pipeline searches run, seeded searches,
    /// nodes expanded/pruned, memo hits — the observability surface of the
    /// branch-and-bound factory search. Off by default to keep records
    /// byte-stable for existing consumers.
    pub search_stats: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            // Jobs fan out internally through qre-par; two concurrent jobs
            // keep a slow sweep from blocking the queue without multiplying
            // the worker-thread count by the queue length.
            max_in_flight: 2,
            global_jobs: None,
            cache_capacity: None,
            cache_file: None,
            // Bound crash loss to a handful of jobs once a cache file is
            // configured, while keeping saves rare enough to stay invisible
            // next to estimation cost.
            save_every: 25,
            search_stats: false,
        }
    }
}

/// What a serve session did, for logging, lifecycle records, and exit
/// decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Non-blank input lines consumed (jobs attempted plus control
    /// commands).
    pub jobs: usize,
    /// Jobs that produced a job-level error record: an unparseable,
    /// non-UTF-8 or over-long line, an invalid submission, a bad `shard`, or
    /// an unknown control command.
    /// Estimation failures *inside* a job (a failing single estimate, a
    /// failing batch/sweep item) are reported in place and tallied in that
    /// job's `"stats"` record, not here.
    pub job_errors: usize,
    /// NDJSON records written (including lifecycle records).
    pub records: usize,
    /// Designs loaded from [`ServeOptions::cache_file`] at service start
    /// (0 when no file is configured, the file is missing, or it was
    /// rejected). Per-service, not per-session: [`run_session`] reports 0
    /// here and the transport front-ends fill it in.
    pub designs_loaded: usize,
    /// Designs saved to [`ServeOptions::cache_file`] by the service-end
    /// save (0 when no file is configured or the save failed; failures are
    /// reported on stderr). Per-service, like `designs_loaded`.
    pub designs_saved: usize,
    /// Whether the session ended in a graceful drain (a `{"control":
    /// "shutdown"}` line here or on another session) rather than input EOF.
    pub drained: bool,
}

/// Process-wide state shared by every serve session: the design store, the
/// global job gate, the persistence policy, and the drain switch.
///
/// One `ServeShared` outlives all of its sessions. The pipe mode builds one
/// for its single session ([`serve`] does this internally); the network
/// mode builds one and hands every accepted connection's [`run_session`]
/// the same reference, which is exactly what makes one client's searches
/// warm every other client's jobs.
#[derive(Debug)]
pub struct ServeShared {
    options: ServeOptions,
    store: Arc<FactoryCache>,
    /// Process-wide job gate ([`ServeOptions::global_jobs`]).
    gate: qre_par::Semaphore,
    /// Jobs completed across all sessions, driving the periodic snapshot.
    completed_jobs: AtomicUsize,
    designs_loaded: usize,
    shutdown: Arc<qre_par::ShutdownSignal>,
    final_saved: AtomicBool,
}

impl ServeShared {
    /// Build the shared state: create the (optionally bounded) design store
    /// and load its snapshot. A missing snapshot file is the normal
    /// first-session cold start; anything else unreadable is rejected
    /// loudly on stderr but non-fatally.
    pub fn new(options: &ServeOptions) -> Self {
        let store = Arc::new(match options.cache_capacity {
            Some(capacity) => FactoryCache::with_capacity(capacity),
            None => FactoryCache::new(),
        });
        let mut designs_loaded = 0usize;
        if let Some(path) = &options.cache_file {
            if path.exists() {
                match store.load(path) {
                    Ok(added) => designs_loaded = added,
                    Err(e) => eprintln!("serve: ignoring cache snapshot: {e}"),
                }
            }
        }
        let global = options.global_jobs.unwrap_or(options.max_in_flight);
        ServeShared {
            options: options.clone(),
            store,
            gate: qre_par::Semaphore::new(global),
            completed_jobs: AtomicUsize::new(0),
            designs_loaded,
            shutdown: Arc::new(qre_par::ShutdownSignal::new()),
            final_saved: AtomicBool::new(false),
        }
    }

    /// The options this service was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The process-wide design store (every session's jobs estimate through
    /// [`FactoryCache::scoped`] views of it).
    pub fn store(&self) -> &Arc<FactoryCache> {
        &self.store
    }

    /// The drain switch: signalled by a `{"control": "shutdown"}` line on
    /// any session, by the network layer's operator input, or by embedders.
    /// Sessions stop reading new jobs once raised; in-flight jobs finish.
    pub fn shutdown_signal(&self) -> &qre_par::ShutdownSignal {
        &self.shutdown
    }

    /// An owning handle to the drain switch, for watcher threads that must
    /// outlive any one borrow of the shared state (the network mode's
    /// operator-stdin watcher signals through one of these).
    pub fn shutdown_handle(&self) -> Arc<qre_par::ShutdownSignal> {
        Arc::clone(&self.shutdown)
    }

    /// Designs loaded from the snapshot file when this state was built.
    pub fn designs_loaded(&self) -> usize {
        self.designs_loaded
    }

    /// Save the snapshot **exactly once**, whatever ended the service —
    /// clean EOF, graceful drain, dead output, or a fatal input error: the
    /// designs the sessions searched are the state worth keeping. Returns
    /// the number of designs persisted; later calls (a second transport
    /// exit path racing the first) are no-ops returning 0. Without a
    /// configured cache file this is always a no-op.
    pub fn final_save(&self) -> usize {
        if self.final_saved.swap(true, Ordering::SeqCst) {
            return 0;
        }
        match &self.options.cache_file {
            Some(path) => save_store(&self.store, path),
            None => 0,
        }
    }

    /// Record one completed job; every [`ServeOptions::save_every`]-th
    /// completion across all sessions snapshots the store, so a crash loses
    /// at most one stride of work. Saves are atomic through unique
    /// temporary files, so concurrent saves (two jobs finishing at once, or
    /// a periodic save racing the final one) cannot corrupt the snapshot.
    fn job_completed(&self) {
        let done = self.completed_jobs.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(path) = &self.options.cache_file {
            if self.options.save_every > 0 && done.is_multiple_of(self.options.save_every) {
                save_store(&self.store, path);
            }
        }
    }
}

/// Identity and framing of one serve session.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Session ordinal, echoed in lifecycle records (connection number in
    /// network mode; 0 for the pipe session).
    pub session: u64,
    /// Peer address for lifecycle records (network mode).
    pub peer: Option<String>,
    /// Emit `{"hello": ..}` / `{"bye": ..}` lifecycle records framing the
    /// session. Off for the pipe mode (whose output stays line-compatible
    /// with earlier releases); on for network sessions.
    pub lifecycle: bool,
}

/// Run one serve session over the shared service state: read one JSON job
/// per line from `input` until EOF or drain, write completion-order NDJSON
/// records to `output` (one write and one flush per record), and return
/// the session's summary.
///
/// This is the **one session engine** behind both transports: [`serve`]
/// runs it over stdin/stdout, the network layer runs it per accepted
/// connection over the socket's read/write halves. All sessions share
/// `shared`'s design store (each job counts its own cache hits and misses
/// exactly through a scoped view), its global job gate, and its drain
/// switch; admission and persistence follow [`ServeOptions`]. The session
/// spawns only its job threads: each job writes its own records (a sweep or
/// batch record is rendered on the worker that estimated its item), and the
/// reader writes the lifecycle and control records, all through one lock
/// around `output`. Returns `Err` only for transport
/// failures — an unreadable input or an output that stops accepting
/// writes; malformed job lines, non-UTF-8 ones and ones longer than
/// [`MAX_LINE_BYTES`] produce error records and the session continues.
///
/// # Input protocol
///
/// Each non-blank line is a JSON object in any of the one-shot CLI's
/// submission forms (a single job, `{"items": [...]}`, `{"sweep": {...}}`),
/// plus serve-level fields:
///
/// * `"id"` — string or number echoed into every record the job produces
///   (default: the job's 1-based arrival ordinal within its session),
/// * `"shard": {"index": i, "count": n}` — restrict a `"sweep"` job to
///   shard `i` of `n` of its row-major expansion, so `n` server processes
///   (or `n` connections of one server) fed the same sweep line
///   deterministically partition it; records keep their *global* sweep
///   indices, making the shard union item-for-item identical to the
///   unsharded sweep.
///
/// A line may instead be a **control command**: `{"control": "shutdown"}`
/// (optionally with an `"id"`) acknowledges with `{"job": .., "control":
/// "shutdown", "status": "ok"}` and starts a graceful drain — no session
/// reads further jobs, in-flight jobs finish and deliver every record, the
/// snapshot (if configured) is saved once, and the service exits.
///
/// A top-level `"stream"` flag is accepted and, for most payloads, ignored:
/// serve output is always NDJSON. The one payload it changes is a frontier
/// job, which then emits one record per Pareto point (the one-shot CLI's
/// streamed frontier records, job-enveloped) instead of one monolithic
/// frontier document.
///
/// # Output protocol
///
/// Every job record is one JSON object whose first field is `"job"` (the
/// id):
///
/// * item records — field-for-field the records `"stream": true` emits in
///   the one-shot CLI (single-job result objects, indexed batch items,
///   sweep items with axis coordinates), in completion order,
/// * one final `{"job": .., "stats": {...}}` record per job with the item
///   count, in-place error count, this job's exact factory-cache hit/miss
///   counters (scoped to the job even while jobs run concurrently), and the
///   process-wide design-store size and eviction count,
/// * `{"job": .., "status": "error", "message": ..}` for a line that fails
///   to parse or validate — the session continues; malformed input never
///   kills the server. A line that is not valid UTF-8, or longer than
///   [`MAX_LINE_BYTES`] (16 MiB before its newline), gets such a record too.
///   The reader skips the rest of an over-long line without buffering it
///   and resumes at the next newline.
///
/// Network sessions ([`SessionConfig::lifecycle`]) additionally frame the
/// job records with **lifecycle records**: a `{"hello": {...}}` first line
/// naming the session id, peer address, protocol, and the current design
/// store size (a warm connect shows a non-zero `designs`), and a
/// `{"bye": {...}}` last line carrying the session summary (jobs, job
/// errors, records, whether the session ended in a drain).
pub fn run_session<R, W>(
    shared: &ServeShared,
    config: &SessionConfig,
    mut input: R,
    output: &mut W,
) -> Result<ServeSummary, String>
where
    R: BufRead,
    W: Write + Send,
{
    let admission = qre_par::Semaphore::new(shared.options().max_in_flight);
    // Once a write fails (a downstream `head` closed the pipe, or the client
    // hung up) the session has no one left to deliver to: the reader stops
    // consuming lines and running jobs bail out instead of estimating into
    // the void.
    let writer = RecordWriter::new(output);
    let job_errors = AtomicUsize::new(0);
    let mut jobs = 0usize;
    let mut fatal: Option<String> = None;
    if config.lifecycle {
        writer.write(&hello_record(config, shared));
    }

    // Every job thread joins here, so the bye record below is provably the
    // session's last record.
    std::thread::scope(|scope| {
        loop {
            // Checked *before* reading, never after: a line this session
            // has consumed is always processed — a drain stops the session
            // from taking new lines, it never discards one.
            if writer.failed() || shared.shutdown.is_signalled() {
                break;
            }
            let line = match read_line(&mut input) {
                Ok(None) => break,
                Ok(Some(line)) => line,
                Err(e) => {
                    fatal = Some(format!("failed to read serve input: {e}"));
                    break;
                }
            };
            if line.as_ref().is_ok_and(|l| l.trim().is_empty()) {
                continue;
            }
            jobs += 1;
            let ordinal = jobs;
            let line = match line {
                Ok(line) => line,
                Err(message) => {
                    let id = Value::from(ordinal as u64);
                    writer.write(&error_record(&id, format!("invalid job: {message}")));
                    job_errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            // Control commands are handled inline on the reader — a drain
            // must take effect before later queued lines, not race them. The
            // substring test is only a fast-path filter; the parsed document
            // decides, and a malformed line falls through to the job path,
            // which reports it as a job error record.
            if line.contains("\"control\"") {
                if let Ok(doc) = qre_json::parse(&line) {
                    if doc.get("control").is_some() {
                        if !run_control(&doc, ordinal, shared, &writer) {
                            job_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        continue;
                    }
                }
            }
            // Per-session admission: block here (not reading further lines —
            // they wait in the pipe or socket buffer) while `max_in_flight`
            // of this session's jobs are running.
            let permit = admission.acquire();
            let writer = &writer;
            let job_errors = &job_errors;
            scope.spawn(move || {
                let _permit = permit;
                if writer.failed() {
                    return;
                }
                // Process-wide gate: this session admitted the job, but it
                // still waits its turn against every other session's
                // in-flight jobs.
                let _global = shared.gate.acquire();
                if writer.failed() {
                    return;
                }
                if !run_serve_job(&line, ordinal, shared, writer) {
                    job_errors.fetch_add(1, Ordering::Relaxed);
                }
                shared.job_completed();
            });
        }
    });

    let job_errors = job_errors.into_inner();
    if config.lifecycle && !writer.failed() {
        writer.write(&bye_record(
            config,
            shared,
            jobs,
            job_errors,
            writer.records(),
        ));
    }
    if let Some(message) = fatal {
        return Err(message);
    }
    let records = writer
        .finish()
        .map_err(|e| format!("failed to write serve output: {e}"))?;
    Ok(ServeSummary {
        jobs,
        job_errors,
        records,
        designs_loaded: 0,
        designs_saved: 0,
        drained: shared.shutdown.is_signalled(),
    })
}

/// Read one input line, without its `\n` or `\r\n`; `Ok(None)` at end of
/// input. A line that is longer than [`MAX_LINE_BYTES`] or not valid UTF-8
/// comes back as `Err` naming the problem. The rest of an over-long line
/// is consumed up to and including its newline without being buffered.
fn read_line<R: BufRead>(input: &mut R) -> std::io::Result<Option<Result<String, String>>> {
    let mut bytes = Vec::new();
    // Room for a full-length line and its `\r\n`.
    input
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 2)
        .read_until(b'\n', &mut bytes)?;
    if bytes.is_empty() {
        return Ok(None);
    }
    let terminated = bytes.last() == Some(&b'\n');
    if terminated {
        bytes.pop();
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
    }
    if bytes.len() > MAX_LINE_BYTES {
        if !terminated {
            input.skip_until(b'\n')?;
        }
        return Ok(Some(Err(format!(
            "line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(String::from_utf8(bytes).map_err(|e| {
        format!("line is not valid UTF-8 ({})", e.utf8_error())
    })))
}

/// Run a single-session pipe service: one [`ServeShared`] for one
/// [`run_session`] over `input`/`output`, with the final snapshot saved on
/// every exit path. This is the `qre serve` stdin/stdout mode; summaries
/// fold in the snapshot load/save counts.
pub fn serve<R, W>(input: R, output: &mut W, options: &ServeOptions) -> Result<ServeSummary, String>
where
    R: BufRead,
    W: Write + Send,
{
    let shared = ServeShared::new(options);
    let result = run_session(&shared, &SessionConfig::default(), input, output);
    // Final save on every exit path — clean EOF, drain, dead output, and
    // fatal input errors alike.
    let designs_saved = shared.final_save();
    let mut summary = result?;
    summary.designs_loaded = shared.designs_loaded();
    summary.designs_saved = designs_saved;
    Ok(summary)
}

/// Snapshot the design store, reporting failures on stderr (persistence
/// problems must never take down a serving session). Returns the number of
/// designs persisted (0 on failure).
fn save_store(store: &FactoryCache, path: &Path) -> usize {
    match store.save(path) {
        Ok(saved) => saved,
        Err(e) => {
            eprintln!("serve: {e}");
            0
        }
    }
}

/// Emit `{"job": id, ...tail}` — every serve record leads with its job id.
fn job_record(id: &Value, tail: Value) -> Value {
    let mut record = vec![("job".to_owned(), id.clone())];
    if let Value::Object(fields) = tail {
        record.extend(fields);
    }
    Value::Object(record)
}

fn error_record(id: &Value, message: String) -> Value {
    job_record(id, error_object(message))
}

/// The session-opening lifecycle record: identity plus the store size, so a
/// client can see at connect time whether it joined a warm service.
fn hello_record(config: &SessionConfig, shared: &ServeShared) -> Value {
    let mut hello = ObjectBuilder::new()
        .field("session", config.session)
        .field("protocol", "qre-serve/1");
    if let Some(peer) = &config.peer {
        hello = hello.field("peer", peer.as_str());
    }
    hello = hello.field("designs", shared.store().stats().entries as u64);
    ObjectBuilder::new().field("hello", hello.build()).build()
}

/// The session-closing lifecycle record: the session summary, written after
/// every job record (the job threads are joined first).
fn bye_record(
    config: &SessionConfig,
    shared: &ServeShared,
    jobs: usize,
    job_errors: usize,
    records: usize,
) -> Value {
    let bye = ObjectBuilder::new()
        .field("session", config.session)
        .field("jobs", jobs as u64)
        .field("jobErrors", job_errors as u64)
        // Records written before this bye (the hello included).
        .field("records", records as u64)
        .field("drained", shared.shutdown.is_signalled());
    ObjectBuilder::new().field("bye", bye.build()).build()
}

/// Handle a `{"control": ...}` line inline on the session reader. Returns
/// `false` when the command was invalid (a job-level error record was
/// emitted).
fn run_control<W: Write>(
    doc: &Value,
    ordinal: usize,
    shared: &ServeShared,
    writer: &RecordWriter<W>,
) -> bool {
    let mut id = Value::from(ordinal as u64);
    if let Some(v) = doc.get("id") {
        match v {
            Value::Str(_) | Value::Num(_) => id = v.clone(),
            _ => {
                writer.write(&error_record(
                    &id,
                    "invalid job: serve `id` must be a string or a number".into(),
                ));
                return false;
            }
        }
    }
    if let Err(e) = crate::check_fields(doc, "", &["id", "control"]) {
        writer.write(&error_record(&id, format!("invalid job: {e}")));
        return false;
    }
    match doc.get("control").and_then(Value::as_str) {
        Some("shutdown") => {
            // Acknowledge first, then raise the drain switch: the ack is
            // this session's receipt that no later job will be read.
            writer.write(&job_record(
                &id,
                ObjectBuilder::new()
                    .field("control", "shutdown")
                    .field("status", "ok")
                    .build(),
            ));
            shared.shutdown_signal().signal();
            true
        }
        other => {
            let got = match other {
                Some(name) => format!("`{name}`"),
                None => "a non-string value".into(),
            };
            writer.write(&error_record(
                &id,
                format!("invalid job: unknown control command {got}; accepted: shutdown"),
            ));
            false
        }
    }
}

/// Serve-level fields stripped from a line before submission parsing.
struct ServeEnvelope {
    id: Value,
    shard: Option<Shard>,
    submission: Value,
}

/// Split a parsed line into its serve envelope (id, shard) and the plain
/// submission document the one-shot parser understands.
fn parse_envelope(doc: Value, ordinal: usize) -> Result<ServeEnvelope, (Value, String)> {
    let Value::Object(pairs) = doc else {
        return Err((
            Value::from(ordinal as u64),
            "job line must be a JSON object".into(),
        ));
    };
    let mut id = Value::from(ordinal as u64);
    let mut shard_value: Option<Value> = None;
    let mut rest = Vec::with_capacity(pairs.len());
    for (key, value) in pairs {
        match key.as_str() {
            "id" => match value {
                Value::Str(_) | Value::Num(_) => id = value,
                _ => {
                    return Err((id, "serve `id` must be a string or a number".into()));
                }
            },
            "shard" => shard_value = Some(value),
            _ => rest.push((key, value)),
        }
    }
    let shard = match shard_value {
        None => None,
        Some(v) => Some(parse_shard(&v).map_err(|e| (id.clone(), e))?),
    };
    Ok(ServeEnvelope {
        id,
        shard,
        submission: Value::Object(rest),
    })
}

/// Parse and validate `{"index": i, "count": n}`.
fn parse_shard(v: &Value) -> Result<Shard, String> {
    if v.as_object().is_none() {
        return Err("`shard` must be an object with `index` and `count`".into());
    }
    crate::check_fields(v, "shard", &["index", "count"])?;
    let field = |name: &str| -> Result<usize, String> {
        v.get(name)
            .ok_or_else(|| format!("`shard` requires an integer `{name}`"))?
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| format!("`shard.{name}` must be a non-negative integer"))
    };
    Shard::new(field("index")?, field("count")?).map_err(|e| e.to_string())
}

/// Parse and execute one job line, writing its records through `writer`.
/// Returns `false` when the job produced a job-level error record.
fn run_serve_job<W: Write>(
    line: &str,
    ordinal: usize,
    shared: &ServeShared,
    writer: &RecordWriter<W>,
) -> bool {
    let parsed = qre_json::parse(line)
        .map_err(|e| (Value::from(ordinal as u64), e.to_string()))
        .and_then(|doc| parse_envelope(doc, ordinal))
        .and_then(
            |envelope| match crate::parse_submission_value(&envelope.submission) {
                Ok(submission) => Ok((envelope.id, envelope.shard, submission)),
                Err(e) => Err((envelope.id, e)),
            },
        );
    let (id, shard, submission) = match parsed {
        Ok(parsed) => parsed,
        Err((id, message)) => {
            writer.write(&error_record(&id, format!("invalid job: {message}")));
            return false;
        }
    };

    // One engine per job over the shared design store: hits and misses are
    // counted exactly for this job, however many jobs run concurrently.
    let engine = Estimator::with_cache(Arc::new(shared.store().scoped()));
    let mut sink = JobSink {
        id: &id,
        head: format!("{{\"job\":{},", id.to_string_compact()),
        writer,
        items: 0,
        errors: 0,
    };
    let executed = shard_kind(submission.kind, shard)
        .and_then(|kind| crate::execute(&engine, &kind, submission.stream, &mut sink));
    match executed {
        Ok(()) => {
            let search_stats = shared.options().search_stats;
            writer.write(&stats_record(&sink, &engine, shard, search_stats));
            true
        }
        Err(message) => {
            writer.write(&error_record(&id, message));
            false
        }
    }
}

/// Restrict a `"sweep"` submission to the job's `"shard"`.
fn shard_kind(kind: SubmissionKind, shard: Option<Shard>) -> Result<SubmissionKind, String> {
    match (kind, shard) {
        (kind, None) => Ok(kind),
        (SubmissionKind::Sweep(spec), Some(s)) => (*spec)
            .shard_of(s.index, s.count)
            .map(|spec| SubmissionKind::Sweep(Box::new(spec)))
            .map_err(|e| e.to_string()),
        (_, Some(_)) => Err("`shard` applies only to `sweep` jobs".into()),
    }
}

/// A serve job's [`ItemSink`]: each record in the job envelope, straight
/// to the session's output, tallied for the job's `"stats"` record.
struct JobSink<'a, W> {
    id: &'a Value,
    /// `{"job":<id>,`, the opening of each of the job's item records:
    /// [`job_record`]'s envelope, rendered once per job.
    head: String,
    writer: &'a RecordWriter<W>,
    items: usize,
    errors: usize,
}

impl<W: Write> ItemSink for JobSink<'_, W> {
    fn head(&self) -> &str {
        &self.head
    }

    fn item(&mut self, _position: usize, line: String, failed: bool) -> bool {
        self.items += 1;
        self.errors += usize::from(failed);
        self.writer.write_line(&line)
    }

    /// Unlike the one-shot CLI, a failing single job must not end the
    /// session: report it in place and keep serving.
    fn single_failed(&mut self, message: String) -> Result<(), String> {
        let line = record_line(&self.head, |w| emit_error(w, &message));
        self.item(0, line, true);
        Ok(())
    }
}

/// The job's closing `"stats"` record.
fn stats_record<W>(
    job: &JobSink<'_, W>,
    engine: &Estimator,
    shard: Option<Shard>,
    search_stats: bool,
) -> Value {
    let cache = engine.cache_stats();
    let mut stats = ObjectBuilder::new()
        .field("items", job.items as u64)
        .field("errors", job.errors as u64)
        .field("cacheHits", cache.hits)
        .field("cacheMisses", cache.misses)
        .field("cacheEntries", cache.entries as u64)
        // Store-level, like `cacheEntries`: evictions since session start,
        // shared by every job over the bounded store (0 when unbounded).
        .field("cacheEvictions", cache.evictions);
    if search_stats {
        // Per-job, like cacheHits/cacheMisses: this job's engine owns its
        // scoped cache view, so the counters cover exactly its searches.
        stats = stats.field("searchStats", crate::search_stats_json(engine));
    }
    if let Some(s) = shard {
        stats = stats.field(
            "shard",
            ObjectBuilder::new()
                .field("index", s.index as u64)
                .field("count", s.count as u64)
                .build(),
        );
    }
    job_record(
        job.id,
        ObjectBuilder::new().field("stats", stats.build()).build(),
    )
}
