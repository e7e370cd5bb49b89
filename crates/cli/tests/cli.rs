//! The `qre` binary's one-shot modes, run as a user runs them: a job on
//! stdin, the output on stdout, and the exit code.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

use qre_json::Value;

/// Two workloads, two profiles, the profile-default and the Floquet scheme
/// (which fails in place on gate-based hardware) and two budgets: 16 items.
const SWEEP: &str = r#"{ "sweep": {
    "algorithms": [
        { "logicalCounts": { "numQubits": 20, "tCount": 2000 } },
        { "logicalCounts": { "numQubits": 12, "measurementCount": 40 } }
    ],
    "qubitParams": [ { "name": "qubit_gate_ns_e3" }, { "name": "qubit_maj_ns_e4" } ],
    "qecSchemes": [ { "name": "default" }, { "name": "floquet_code" } ],
    "errorBudgets": [ 1e-3, 1e-4 ]
} }"#;

/// Run `qre` with `args` and `job` on its stdin.
fn qre(args: &[&str], job: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_qre"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("qre starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(job.as_bytes())
        .expect("qre reads its job");
    child.wait_with_output().expect("qre runs")
}

fn stdout(output: &Output) -> &str {
    std::str::from_utf8(&output.stdout).expect("UTF-8 output")
}

/// The document's `items`, after checking that `qre` succeeded.
fn items(output: &Output) -> Vec<Value> {
    assert!(output.status.success(), "{output:?}");
    let doc = qre_json::parse(stdout(output)).expect("one JSON document");
    doc.get("items")
        .and_then(Value::as_array)
        .expect("an items array")
        .to_vec()
}

#[test]
fn sweep_document_is_the_stream_in_index_order() {
    let pretty = qre(&["-"], SWEEP);
    let compact = qre(&["--compact", "-"], SWEEP);
    let text = stdout(&compact);
    assert!(text.ends_with('\n'));
    assert_eq!(text.lines().count(), 1, "the compact document is one line");
    assert_eq!(
        qre_json::parse(stdout(&pretty)).unwrap(),
        qre_json::parse(text).unwrap()
    );
    let documented = items(&compact);
    assert_eq!(documented.len(), 16);
    assert!(documented.iter().any(|i| i.get("message").is_some()));

    let streamed = qre(&["-"], &SWEEP.replacen('{', r#"{ "stream": true,"#, 1));
    assert!(streamed.status.success(), "{streamed:?}");
    let mut records: Vec<Value> = stdout(&streamed)
        .lines()
        .map(|line| qre_json::parse(line).expect("every line is JSON"))
        .filter(|record| record.get("progress").is_none())
        .collect();
    records.sort_by_key(|record| record.get("index").and_then(Value::as_u64));
    assert_eq!(documented, records);
}

#[test]
fn batch_keeps_submission_order_with_errors_in_place() {
    let batch = r#"{ "items": [
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 300 } } },
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
          "errorBudget": 1e-60 },
        { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 100 } } }
    ] }"#;
    let items = items(&qre(&["--compact", "-"], batch));
    let status: Vec<_> = items
        .iter()
        .map(|item| item.get("status").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(status, ["success", "error", "success"]);
    let t_count = |i: usize| {
        items[i]
            .get_path("preLayoutLogicalResources.tCount")
            .and_then(Value::as_u64)
    };
    assert_eq!((t_count(0), t_count(2)), (Some(300), Some(100)));
    assert!(items.iter().all(|item| item.get("index").is_none()));
}

#[test]
fn failing_single_job_exits_1_with_empty_stdout() {
    let job = r#"{ "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } },
                   "errorBudget": 1e-60 }"#;
    for args in [&["-"][..], &["--compact", "-"]] {
        let output = qre(args, job);
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        assert!(output.stdout.is_empty(), "{output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("estimation failed"), "{stderr}");
    }
}

#[test]
fn report_prints_one_report_per_batch_job_and_refuses_sweeps() {
    let batch = r#"{ "items": [
        { "algorithm": { "logicalCounts": { "numQubits": 10, "tCount": 100 } } },
        { "algorithm": { "logicalCounts": { "numQubits": 20, "tCount": 300 } } }
    ] }"#;
    let output = qre(&["--report", "-"], batch);
    assert!(output.status.success(), "{output:?}");
    assert_eq!(
        stdout(&output)
            .matches("Physical resource estimates")
            .count(),
        2
    );

    let output = qre(&["--report", "-"], SWEEP);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    assert!(output.stdout.is_empty(), "{output:?}");
}
