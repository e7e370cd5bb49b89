//! Scale soaks: equivalence of every execution topology on the ~10k-point
//! `qre stress` matrix — sharded vs. unsharded, serve-and-merge vs. one
//! pipe sweep, socket vs. pipe transport.
//!
//! All tests here are `#[ignore]`d by default (they are minutes of work,
//! not CI-path seconds). The scheduled soak workflow — and anyone
//! reproducing it — runs them with:
//!
//! ```text
//! QRE_SOAK=1 cargo test --release --test soak -- --ignored
//! ```
//!
//! `QRE_SOAK=1` selects the full 10,000-requested-point matrix (10,080
//! items); `QRE_SOAK_POINTS=N` overrides the size either way. Without
//! either variable a `--ignored` run still passes, just on a 504-item
//! matrix — so the suite can be smoke-checked without soak-scale wall
//! time. The matrix is deterministic (fixed-seed generator), so a failure
//! here reproduces exactly by rerunning with the same point count.

mod common;

use common::{Client, NetServer};
use qre::estimator::{merge_indexed, Estimator, SweepOutcome};
use qre_cli::{
    merge_files, run_session, stress_job_line, stress_spec, ServeOptions, ServeShared,
    SessionConfig,
};
use qre_json::Value;

/// Shard count of the sharded topologies (matches the perf gate's
/// sharded-and-merged mode).
const SHARDS: usize = 8;

/// The soak's matrix size: `QRE_SOAK_POINTS` wins, then `QRE_SOAK=1`
/// selects the full 10k-point matrix, else a quick 500-point pass.
fn soak_points() -> usize {
    if let Ok(v) = std::env::var("QRE_SOAK_POINTS") {
        return v
            .parse()
            .expect("QRE_SOAK_POINTS must be a positive integer");
    }
    if std::env::var_os("QRE_SOAK").is_some() {
        10_000
    } else {
        500
    }
}

/// Run NDJSON job lines through one pipe serve session (the `qre serve`
/// stdin/stdout engine), returning its output lines.
fn pipe_session(input: &str) -> Vec<String> {
    let shared = ServeShared::new(&ServeOptions::default());
    let mut out = Vec::new();
    let summary = run_session(
        &shared,
        &SessionConfig {
            session: 0,
            peer: None,
            lifecycle: false,
        },
        input.as_bytes(),
        &mut out,
    )
    .expect("pipe session runs");
    assert_eq!(summary.job_errors, 0, "soak jobs must not error");
    String::from_utf8(out)
        .expect("serve output is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Parse lines and keep only sweep item records (drop stats/lifecycle).
fn item_records(lines: &[String]) -> Vec<Value> {
    lines
        .iter()
        .map(|l| qre_json::parse(l).expect("serve record parses"))
        .filter(|r| r.get("index").is_some())
        .collect()
}

fn index_of(record: &Value) -> usize {
    record
        .get("index")
        .and_then(Value::as_u64)
        .expect("item record carries its global index") as usize
}

/// The record minus its `"job"` envelope id — the only field that may
/// legitimately differ between topologies (shard jobs carry shard ids).
fn without_job(record: &Value) -> Value {
    let Value::Object(pairs) = record else {
        panic!("serve records are objects");
    };
    Value::Object(pairs.iter().filter(|(k, _)| k != "job").cloned().collect())
}

#[test]
#[ignore = "scale soak: QRE_SOAK=1 cargo test --release --test soak -- --ignored"]
fn sharded_union_equals_unsharded_sweep_at_scale() {
    let points = soak_points();
    let spec = stress_spec(points);
    let full = Estimator::new().sweep(&spec).expect("stress spec expands");
    assert!(full.len() >= points);

    // Each shard on its own engine — the separate-process worst case: no
    // shared cache, so equality proves the computation is deterministic
    // across the partition, not merely replayed from one store.
    let per_shard: Vec<Vec<SweepOutcome>> = spec
        .shard(SHARDS)
        .expect("spec shards")
        .iter()
        .map(|shard| Estimator::new().sweep(shard).expect("shard sweeps"))
        .collect();
    let merged = merge_indexed(per_shard, |o| o.point.index).expect("shard union covers the sweep");
    assert_eq!(merged.len(), full.len());
    for (m, f) in merged.iter().zip(&full) {
        assert_eq!(m.point.index, f.point.index);
        assert_eq!(m.point.workload, f.point.workload);
        assert_eq!(m.point.profile, f.point.profile);
        let (Ok(a), Ok(b)) = (&m.outcome, &f.outcome) else {
            panic!("item {}: soak items must estimate", f.point.index);
        };
        assert_eq!(a, b, "item {} diverged under sharding", f.point.index);
    }
}

#[test]
#[ignore = "scale soak: QRE_SOAK=1 cargo test --release --test soak -- --ignored"]
fn serve_shards_merge_to_the_unsharded_pipe_sweep_at_scale() {
    let points = soak_points();
    let total = stress_spec(points).total_len();

    // Unsharded reference: one pipe session, item records index-sorted.
    let mut full = item_records(&pipe_session(&format!(
        "{}\n",
        stress_job_line(points, None, false)
    )));
    assert_eq!(full.len(), total);
    full.sort_by_key(index_of);

    // Sharded run: each shard through its own cold session (as separate
    // server processes would), then the streaming `qre merge` index join.
    let dir = std::env::temp_dir().join(format!("qre-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("shard dir");
    let paths: Vec<String> = (0..SHARDS)
        .map(|index| {
            let lines = pipe_session(&format!(
                "{}\n",
                stress_job_line(points, Some((index, SHARDS)), false)
            ));
            let path = dir.join(format!("shard-{index}.ndjson"));
            std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write shard file");
            path.to_string_lossy().into_owned()
        })
        .collect();
    let mut merged_out = Vec::new();
    let summary = merge_files(&paths, &mut merged_out).expect("shards merge");
    assert_eq!(summary.items, total, "merge covers the sweep");
    std::fs::remove_dir_all(&dir).expect("clean shard dir");

    let merged_lines: Vec<String> = String::from_utf8(merged_out)
        .expect("merge output is UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    let merged = item_records(&merged_lines);
    assert_eq!(merged.len(), total);
    for (m, f) in merged.iter().zip(&full) {
        // Shard jobs carry their own envelope ids; everything else —
        // index, point coordinates, the full estimate — must match.
        assert_eq!(
            without_job(m),
            without_job(f),
            "item {} diverged between serve-and-merge and the pipe sweep",
            index_of(f)
        );
    }
}

#[test]
#[ignore = "scale soak: QRE_SOAK=1 cargo test --release --test soak -- --ignored"]
fn socket_records_equal_pipe_records_at_scale() {
    let points = soak_points();
    let total = stress_spec(points).total_len();
    // One-shard envelope (shard 0 of 1 = the whole sweep) so both
    // transports run the identical job line with the identical string id —
    // records must then match byte-for-byte, envelope included.
    let line = stress_job_line(points, Some((0, 1)), false);

    let mut pipe = item_records(&pipe_session(&format!("{line}\n")));
    assert_eq!(pipe.len(), total);
    pipe.sort_by_key(index_of);

    let server = NetServer::start(&ServeOptions::default(), 4);
    let mut client = Client::connect(server.addr);
    client.expect_hello();
    client.send(&line);
    let socket_records = client.read_job("stress-0");
    drop(client);
    server.drain_and_join();
    let mut socket: Vec<Value> = socket_records
        .into_iter()
        .filter(|r| r.get("index").is_some())
        .collect();
    assert_eq!(socket.len(), total);
    socket.sort_by_key(index_of);

    for (s, p) in socket.iter().zip(&pipe) {
        assert_eq!(
            s,
            p,
            "item {} diverged between socket and pipe transport",
            index_of(p)
        );
    }
}
