//! Layer-ledger benchmark for the `qre` resource estimator.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <paper_eval|sweep_cold|pipe_warm|served_requery> \
//!     --seed <n> --seconds <s> --trace <0|1> [--inject arith.counts]
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process: it sets the workload up several times (the median is
//! `setup_s`), measures passes over the workload's input for `--seconds`,
//! checks the outputs outside the timed window, and prints one JSON result
//! line last. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! half the window untraced and half traced, replays the items through
//! each layer on its own, and reports the per-layer ledger. See
//! `ledger/README.md`.

mod ledger;
mod matrix;
mod paper;
mod report;
mod served;
mod session;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Repeat every `arith.counts` call (`--inject arith.counts`), for the
    /// attribution self-check.
    pub inject_counts: bool,
}

const WORKLOADS: [&str; 4] = ["paper_eval", "sweep_cold", "pipe_warm", "served_requery"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        inject_counts: false,
    };
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--inject" => match value()?.as_str() {
                "arith.counts" => args.inject_counts = true,
                other => return Err(format!("--inject supports arith.counts, got {other}")),
            },
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Directory for the benchmark's own files (span dumps, the counts cache,
/// merge inputs): next to the benchmark executable, inside the build
/// directory.
pub fn work_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("ledger-out")))
        .unwrap_or_else(|| PathBuf::from("ledger-out"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = trace::Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "paper_eval" => paper::run(&args, &tracer, &mut report),
        "sweep_cold" => sweep::run(&args, &tracer, &mut report),
        "pipe_warm" => served::run_pipe_warm(&args, &tracer, &mut report),
        _ => served::run_served(&args, &tracer, &mut report),
    }
    if tracer.enabled() {
        let path = work_dir()
            .join("traces")
            .join(format!("{}-seed{}.ndjson", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    report.print();
    ExitCode::SUCCESS
}
