//! Integration tests for `qre serve` — the long-running NDJSON job server
//! (driven in-process through `qre_cli::serve`).

use qre_cli::{run_session, serve, ServeOptions, ServeShared, SessionConfig, MAX_LINE_BYTES};
use qre_json::Value;

fn run_serve(script: &str, options: &ServeOptions) -> (qre_cli::ServeSummary, Vec<Value>) {
    let mut bytes: Vec<u8> = Vec::new();
    let summary = serve(script.as_bytes(), &mut bytes, options).expect("serve session succeeds");
    let lines: Vec<Value> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|line| qre_json::parse(line).expect("every serve record parses"))
        .collect();
    assert_eq!(summary.records, lines.len());
    (summary, lines)
}

fn sequential() -> ServeOptions {
    ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    }
}

const ESTIMATE_LINE: &str =
    r#"{ "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } }"#;

const SWEEP_LINE: &str = r#"{ "id": "sweep", "sweep": {
    "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
    "errorBudgets": [ 1e-4 ] } }"#;

#[test]
fn smoke_script_estimate_sweep_shard_and_malformed_line() {
    // The CI smoke script's shape: a single estimate, a six-item sweep, a
    // sharded sweep, and one malformed line — all in one session.
    let script = format!(
        "{}\n{}\n{}\nnot json at all\n",
        ESTIMATE_LINE,
        SWEEP_LINE.replace('\n', " "),
        r#"{ "id": "shard-0", "shard": {"index": 0, "count": 2}, "sweep": {
            "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
            "errorBudgets": [ 1e-4 ] } }"#
            .replace('\n', " "),
    );
    let (summary, lines) = run_serve(&script, &sequential());
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.job_errors, 1, "only the malformed line fails");
    // 1 result + stats, 6 sweep items + stats, 3 shard items + stats, 1
    // error record.
    assert_eq!(summary.records, 14);

    // Every record names its job; the malformed line yields an error record
    // under its ordinal id instead of killing the session.
    assert!(lines.iter().all(|l| l.get("job").is_some()));
    let failure = lines
        .iter()
        .find(|l| l.get("job").and_then(Value::as_u64) == Some(4))
        .unwrap();
    assert_eq!(failure.get("status").unwrap().as_str(), Some("error"));
    assert!(failure
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("invalid job"));

    // Each successful job closes with a stats record carrying its exact
    // cache counters; the sharded sweep re-ran scenarios the full sweep
    // already designed, so it reports pure hits.
    let stats_of = |job: &str| -> &Value {
        lines
            .iter()
            .find(|l| l.get("job").and_then(Value::as_str) == Some(job) && l.get("stats").is_some())
            .unwrap_or_else(|| panic!("stats record for {job}"))
    };
    let sweep_stats = stats_of("sweep");
    assert_eq!(
        sweep_stats.get_path("stats.items").unwrap().as_u64(),
        Some(6)
    );
    assert_eq!(
        sweep_stats.get_path("stats.errors").unwrap().as_u64(),
        Some(0)
    );
    assert_eq!(
        sweep_stats.get_path("stats.cacheMisses").unwrap().as_u64(),
        Some(6)
    );
    let shard_stats = stats_of("shard-0");
    assert_eq!(
        shard_stats.get_path("stats.items").unwrap().as_u64(),
        Some(3)
    );
    assert_eq!(
        shard_stats.get_path("stats.cacheMisses").unwrap().as_u64(),
        Some(0),
        "sharded re-run hits the session-wide warm cache"
    );
    assert_eq!(
        shard_stats.get_path("stats.shard.count").unwrap().as_u64(),
        Some(2)
    );
}

#[test]
fn session_cache_stays_warm_across_jobs() {
    // The same sweep twice, under different ids.
    let again = r#"{ "id": "again", "sweep": {
        "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
        "errorBudgets": [ 1e-4 ] } }"#
        .replace('\n', " ");
    let script = format!("{}\n{}\n", SWEEP_LINE.replace('\n', " "), again);
    let (summary, lines) = run_serve(&script, &sequential());
    assert_eq!(summary.job_errors, 0);
    let again_stats = lines
        .iter()
        .find(|l| l.get("job").and_then(Value::as_str) == Some("again") && l.get("stats").is_some())
        .unwrap();
    assert_eq!(
        again_stats.get_path("stats.cacheMisses").unwrap().as_u64(),
        Some(0),
        "the second job re-uses every design the first one searched"
    );
    assert!(
        again_stats
            .get_path("stats.cacheHits")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 6
    );
}

#[test]
fn tiny_cache_cap_reports_evictions_in_stats() {
    // A capacity-1 store under a six-design sweep (six default profiles):
    // each insert beyond the first evicts exactly one design, so the
    // closing stats record must report five evictions and a single
    // surviving entry — the eviction counter exercised end to end, not just
    // at the cache unit level.
    let options = ServeOptions {
        max_in_flight: 1,
        cache_capacity: Some(1),
        ..ServeOptions::default()
    };
    let (summary, lines) = run_serve(&format!("{}\n", SWEEP_LINE.replace('\n', " ")), &options);
    assert_eq!(summary.job_errors, 0);
    let stats = lines
        .iter()
        .find(|l| l.get("stats").is_some())
        .expect("stats record");
    assert_eq!(
        stats.get_path("stats.cacheMisses").unwrap().as_u64(),
        Some(6),
        "six distinct designs searched"
    );
    assert_eq!(
        stats.get_path("stats.cacheEvictions").unwrap().as_u64(),
        Some(5),
        "every insert past the capacity evicts exactly once"
    );
    assert_eq!(
        stats.get_path("stats.cacheEntries").unwrap().as_u64(),
        Some(1),
        "the bound holds at session end"
    );
}

#[test]
fn sharded_serve_jobs_union_to_the_unsharded_sweep() {
    let sweep_body = r#""sweep": {
        "algorithms": [ { "multiplication": { "algorithm": "windowed", "bits": 64 } } ],
        "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" },
                         { "name": "qubit_gate_ns_e4" } ],
        "errorBudgets": [ 1e-4, 1e-3 ] }"#
        .replace('\n', " ");

    // Unsharded reference session.
    let unsharded = format!("{{ \"id\": \"s\", {sweep_body} }}\n");
    let (_, reference) = run_serve(&unsharded, &sequential());
    let mut want: Vec<String> = reference
        .iter()
        .filter(|l| l.get("index").is_some())
        .map(Value::to_string_compact)
        .collect();
    want.sort();
    assert_eq!(want.len(), 6);

    // Two *separate* server sessions (separate processes in production),
    // one shard each, same id so records are directly comparable.
    let mut got: Vec<String> = Vec::new();
    for index in 0..2 {
        let line = format!(
            "{{ \"id\": \"s\", \"shard\": {{\"index\": {index}, \"count\": 2}}, {sweep_body} }}\n"
        );
        let (summary, lines) = run_serve(&line, &sequential());
        assert_eq!(summary.job_errors, 0);
        got.extend(
            lines
                .iter()
                .filter(|l| l.get("index").is_some())
                .map(Value::to_string_compact),
        );
    }
    got.sort();
    assert_eq!(got, want, "shard union is record-for-record the full sweep");
}

#[test]
fn shard_on_non_sweep_jobs_is_rejected_in_place() {
    let script = format!(
        "{{ \"shard\": {{\"index\": 0, \"count\": 2}}, \"algorithm\": {{ \"logicalCounts\": {{ \"numQubits\": 5, \"tCount\": 10 }} }} }}\n{ESTIMATE_LINE}\n"
    );
    let (summary, lines) = run_serve(&script, &sequential());
    assert_eq!(summary.jobs, 2);
    assert_eq!(summary.job_errors, 1);
    let err = &lines[0];
    assert_eq!(err.get("status").unwrap().as_str(), Some("error"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("sweep"));
    // The session survived: the follow-up job ran and closed with stats.
    assert!(lines
        .iter()
        .any(|l| l.get("job").and_then(Value::as_u64) == Some(2) && l.get("stats").is_some()));
}

#[test]
fn invalid_shard_fields_error_naming_the_field() {
    let cases = [
        (r#"{"index": 0, "count": 0}"#, "shard.count"),
        (r#"{"index": 3, "count": 3}"#, "shard.index"),
        (r#"{"index": 0}"#, "count"),
        (r#"{"index": 0, "count": 2, "extra": 1}"#, "extra"),
        (r#"{"index": -1, "count": 2}"#, "shard.index"),
    ];
    for (shard, needle) in cases {
        let script = format!(
            "{{ \"shard\": {shard}, \"sweep\": {{ \"algorithms\": [ {{ \"logicalCounts\": {{ \"numQubits\": 5, \"tCount\": 10 }} }} ] }} }}\n"
        );
        let (summary, lines) = run_serve(&script, &sequential());
        assert_eq!(summary.job_errors, 1, "shard {shard} must be rejected");
        let message = lines[0].get("message").unwrap().as_str().unwrap();
        assert!(message.contains(needle), "shard {shard}: {message}");
    }
}

#[test]
fn ids_echo_verbatim_and_default_to_ordinals() {
    let script = format!(
        "{ESTIMATE_LINE}\n{{ \"id\": \"named\", \"algorithm\": {{ \"logicalCounts\": {{ \"numQubits\": 5, \"tCount\": 10 }} }} }}\n"
    );
    let (_, lines) = run_serve(&script, &sequential());
    assert!(lines
        .iter()
        .any(|l| l.get("job").and_then(Value::as_u64) == Some(1)));
    assert!(lines
        .iter()
        .any(|l| l.get("job").and_then(Value::as_str) == Some("named")));
    // A non-scalar id is rejected but doesn't kill the session.
    let (summary, lines) = run_serve(
        "{ \"id\": [1], \"algorithm\": { \"logicalCounts\": { \"numQubits\": 5, \"tCount\": 10 } } }\n",
        &sequential(),
    );
    assert_eq!(summary.job_errors, 1);
    assert!(lines[0]
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("id"));
}

#[test]
fn failing_single_jobs_report_in_place_and_serve_continues() {
    // An unreachable budget fails the estimate (not the session) — unlike
    // the one-shot CLI, which exits non-zero.
    let script = format!(
        "{{ \"algorithm\": {{ \"logicalCounts\": {{ \"numQubits\": 10, \"tCount\": 100 }} }}, \"errorBudget\": 1e-60 }}\n{ESTIMATE_LINE}\n"
    );
    let (summary, lines) = run_serve(&script, &sequential());
    assert_eq!(summary.jobs, 2);
    assert_eq!(lines[0].get("status").unwrap().as_str(), Some("error"));
    // Its stats record still appears, counting the in-place error.
    let stats = lines
        .iter()
        .find(|l| l.get("job").and_then(Value::as_u64) == Some(1) && l.get("stats").is_some())
        .unwrap();
    assert_eq!(stats.get_path("stats.errors").unwrap().as_u64(), Some(1));
    // And job 2 succeeded.
    assert!(lines
        .iter()
        .any(|l| l.get("job").and_then(Value::as_u64) == Some(2)
            && l.get("status").and_then(Value::as_str) == Some("success")));
}

#[test]
fn overflowing_sweep_line_errors_in_place_and_the_session_continues() {
    // Five axes of 8,192 entries make 2^65 items. An unchecked axis product
    // wraps to 0 in release builds, and the job would walk every index
    // without emitting a record, holding its worker. The line must get one
    // error record before any item runs, and the next line must be served.
    let axis = |entry: &str| format!("[{}]", vec![entry; 8_192].join(","));
    let huge = format!(
        r#"{{"id":"huge","sweep":{{"algorithms":{},"qubitParams":{},"qecSchemes":{},"errorBudgets":{},"constraints":{}}}}}"#,
        axis(r#"{"logicalCounts":{"numQubits":10,"tCount":100}}"#),
        axis(r#"{"name":"qubit_gate_ns_e3"}"#),
        axis(r#"{"name":"surface_code"}"#),
        axis("1e-3"),
        axis("{}"),
    );
    let script = format!("{huge}\n{ESTIMATE_LINE}\n");
    let shared = ServeShared::new(&sequential());
    let mut bytes: Vec<u8> = Vec::new();
    let summary = run_session(
        &shared,
        &SessionConfig::default(),
        script.as_bytes(),
        &mut bytes,
    )
    .expect("the session survives the overflowing line");
    let lines: Vec<Value> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|line| qre_json::parse(line).unwrap())
        .collect();
    assert_eq!(summary.jobs, 2);
    assert_eq!(summary.job_errors, 1);

    let huge_records: Vec<&Value> = lines
        .iter()
        .filter(|l| l.get("job").and_then(Value::as_str) == Some("huge"))
        .collect();
    assert_eq!(
        huge_records.len(),
        1,
        "exactly one record: {huge_records:?}"
    );
    assert_eq!(
        huge_records[0].get("status").unwrap().as_str(),
        Some("error")
    );
    let message = huge_records[0].get("message").unwrap().as_str().unwrap();
    assert!(message.contains("8192 workloads"), "{message}");

    // The next line ran: its result and its stats record.
    let next: Vec<&Value> = lines
        .iter()
        .filter(|l| l.get("job").and_then(Value::as_u64) == Some(2))
        .collect();
    assert_eq!(next.len(), 2);
    assert_eq!(next[0].get("status").unwrap().as_str(), Some("success"));
    assert!(next[1].get("stats").is_some());
}

#[test]
fn non_utf8_and_over_long_lines_error_in_place_and_the_session_continues() {
    // A non-UTF-8 line, a line one byte over the cap, a line far over it
    // (the reader must skip its tail, or the tail becomes a line of its
    // own), then a valid job padded to exactly the cap. Each bad line gets
    // one error record under its ordinal, and the job is served.
    let mut script = b"\xff\xfe bad\n".to_vec();
    for over in [1, 100_000] {
        script.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + over));
        script.push(b'\n');
    }
    let mut job = ESTIMATE_LINE.as_bytes().to_vec();
    job.resize(MAX_LINE_BYTES, b' ');
    script.extend(job);
    script.extend(b"\r\n");

    let mut bytes: Vec<u8> = Vec::new();
    let summary = serve(script.as_slice(), &mut bytes, &sequential())
        .expect("bad lines do not end the session");
    let lines: Vec<Value> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|line| qre_json::parse(line).unwrap())
        .collect();
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.job_errors, 3);
    assert_eq!(summary.records, 5);
    let problems = [(1, "UTF-8"), (2, "longer than"), (3, "longer than")];
    for (record, (job, problem)) in lines.iter().zip(problems) {
        assert_eq!(record.get("job").and_then(Value::as_u64), Some(job));
        assert_eq!(record.get("status").unwrap().as_str(), Some("error"));
        let message = record.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(problem), "{message}");
    }
    assert_eq!(lines[3].get("job").and_then(Value::as_u64), Some(4));
    assert_eq!(lines[3].get("status").unwrap().as_str(), Some("success"));
    assert_eq!(lines[4].get_path("stats.items").unwrap().as_u64(), Some(1));
}

#[test]
fn batch_jobs_emit_indexed_records() {
    let script = r#"{ "id": "batch", "items": [
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
        { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 200 } } }
    ] }"#
        .replace('\n', " ")
        + "\n";
    let (summary, lines) = run_serve(&script, &sequential());
    assert_eq!(summary.job_errors, 0);
    let mut indices: Vec<u64> = lines
        .iter()
        .filter(|l| l.get("index").is_some())
        .map(|l| l.get("index").unwrap().as_u64().unwrap())
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, vec![0, 1]);
    let stats = lines.last().unwrap();
    assert_eq!(stats.get_path("stats.items").unwrap().as_u64(), Some(2));
}

/// A consumer that accepts `flushes_left` records and then hangs up, like a
/// downstream `head` closing the pipe (serve flushes once per record).
struct HangingUpWriter {
    flushes_left: usize,
}

impl std::io::Write for HangingUpWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.flushes_left == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "consumer hung up",
            ));
        }
        self.flushes_left -= 1;
        Ok(())
    }
}

#[test]
fn dead_output_ends_the_session_instead_of_estimating_into_the_void() {
    // Many queued jobs behind a consumer that dies after one record: the
    // session must report the transport failure (and stop promptly — the
    // reader and running jobs bail once the writer is gone) rather than
    // estimate the whole backlog with nowhere to deliver it.
    let mut script = String::new();
    for _ in 0..50 {
        script.push_str(ESTIMATE_LINE);
        script.push('\n');
    }
    let mut output = HangingUpWriter { flushes_left: 1 };
    let err = serve(script.as_bytes(), &mut output, &sequential()).unwrap_err();
    assert!(err.contains("failed to write serve output"), "{err}");
    assert!(err.contains("consumer hung up"), "{err}");
}

#[test]
fn dead_output_stops_a_running_sweep_after_its_in_flight_items() {
    // One sweep of 120 distinct error budgets (120 distinct factory
    // designs, so the store's entry count is the number of items that ran)
    // behind a consumer that dies after one record: the job must stop
    // claiming items once its write fails, not estimate the rest.
    let budgets: Vec<String> = (0..120)
        .map(|i| format!("{:e}", 1e-4 + i as f64 * 1e-6))
        .collect();
    let script = format!(
        "{{ \"id\": \"flood\", \"sweep\": {{ \"algorithms\": [ {{ \"logicalCounts\": {{ \"numQubits\": 10, \"tCount\": 100 }} }} ], \"qubitParams\": [ {{ \"name\": \"qubit_gate_ns_e3\" }} ], \"errorBudgets\": [ {} ] }} }}\n",
        budgets.join(", ")
    );
    let shared = ServeShared::new(&sequential());
    let mut output = HangingUpWriter { flushes_left: 1 };
    let err = run_session(
        &shared,
        &SessionConfig::default(),
        script.as_bytes(),
        &mut output,
    )
    .unwrap_err();
    assert!(err.contains("consumer hung up"), "{err}");
    // Searched: the delivered record and the one whose write failed, a
    // full delivery queue, and one item in hand per worker.
    let threads = qre_par::max_threads();
    let bound = 2 + qre_par::streamed_buffer_bound(threads) + threads;
    let searched = shared.store().stats().entries;
    assert!(
        searched <= bound,
        "{searched} designs searched after the consumer hung up (bound {bound})"
    );
}

/// A consumer that accepts every byte and counts the `write` and `flush`
/// calls that delivered them.
#[derive(Default)]
struct CountingWriter {
    bytes: Vec<u8>,
    writes: usize,
    flushes: usize,
}

impl std::io::Write for CountingWriter {
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

#[test]
fn every_record_leaves_in_one_write_and_one_flush() {
    let batch = r#"{ "id": "batch", "items": [
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
          "errorBudget": 1e-60 }
    ] }"#
        .replace('\n', " ");
    let script = format!(
        "{}\n{batch}\nnot json at all\n",
        SWEEP_LINE.replace('\n', " ")
    );
    for lifecycle in [false, true] {
        let shared = ServeShared::new(&ServeOptions::default());
        let config = SessionConfig {
            lifecycle,
            ..SessionConfig::default()
        };
        let mut output = CountingWriter::default();
        let summary = run_session(&shared, &config, script.as_bytes(), &mut output)
            .expect("session succeeds");
        let text = std::str::from_utf8(&output.bytes).unwrap();
        assert!(text.ends_with('\n'));
        for line in text.lines() {
            qre_json::parse(line).expect("every record parses");
        }
        // Six sweep items + stats, two batch items + stats, one error
        // record; hello and bye around them with lifecycle on.
        let records = text.lines().count();
        assert_eq!(records, 11 + if lifecycle { 2 } else { 0 });
        assert_eq!(summary.records, records);
        assert_eq!(output.writes, records, "one write per record");
        assert_eq!(output.flushes, records, "one flush per record");
    }
}

#[test]
fn blank_lines_are_skipped_and_empty_sessions_summarize() {
    let (summary, lines) = run_serve("\n   \n\n", &ServeOptions::default());
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.records, 0);
    assert!(lines.is_empty());
}

#[test]
fn concurrent_jobs_interleave_but_lose_nothing() {
    // Four sweep jobs with in-flight 4: records may interleave arbitrarily,
    // but every job must deliver all its items plus one stats record.
    let mut script = String::new();
    for i in 0..4 {
        script.push_str(&format!(
            "{{ \"id\": \"j{i}\", \"sweep\": {{ \"algorithms\": [ {{ \"logicalCounts\": {{ \"numQubits\": 10, \"tCount\": 100 }} }} ], \"errorBudgets\": [ 1e-4 ] }} }}\n"
        ));
    }
    let (summary, lines) = run_serve(
        &script,
        &ServeOptions {
            max_in_flight: 4,
            ..ServeOptions::default()
        },
    );
    assert_eq!(summary.jobs, 4);
    assert_eq!(summary.job_errors, 0);
    assert_eq!(summary.records, 4 * 7);
    for i in 0..4 {
        let job = format!("j{i}");
        let items = lines
            .iter()
            .filter(|l| {
                l.get("job").and_then(Value::as_str) == Some(&job) && l.get("index").is_some()
            })
            .count();
        assert_eq!(items, 6, "job {job} delivered every sweep item");
    }
}
