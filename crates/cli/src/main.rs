//! `qre` — command-line resource estimation.
//!
//! ```text
//! qre <job.json>            estimate a job file, JSON to stdout
//! qre -                     read the job from stdin
//! qre --report <job.json>   human-readable report instead of JSON
//! qre --compact <job.json>  single-line JSON
//! qre serve [--jobs N] [--cache-file PATH] [--cache-cap N] [--save-every N]
//!                           long-running job server: one JSON job per
//!                           stdin line, NDJSON records to stdout
//! qre serve --listen ADDR [--max-conns N] [--per-conn K] [...]
//!                           the same job server over TCP: every connection
//!                           is its own session over one shared design store
//! qre merge <shard.ndjson>...
//!                           join shard output files into one sweep
//! qre stress --points N [--shards K] [--stream]
//!                           emit the deterministic scale-test sweep as
//!                           NDJSON job lines (pipe into `qre serve`)
//! qre --help                usage
//! ```
//!
//! A submission with top-level `"stream": true` emits NDJSON — one record
//! per finished item in completion order, plus `{"progress": k, "total": n}`
//! records — instead of one monolithic document. `qre serve` keeps one
//! process-wide factory cache warm across jobs — bounded with `--cache-cap`
//! and persisted between sessions with `--cache-file` — and `qre merge`
//! validates and joins the NDJSON outputs of sharded sweep sessions; see
//! the `qre_cli::serve` and `qre_cli::merge` docs for the protocols.

use std::io::Read as _;
use std::process::ExitCode;

fn usage() -> &'static str {
    "qre — quantum resource estimator (local job runner)\n\
     \n\
     USAGE:\n\
     \x20 qre [--report | --compact] [--search-stats] <job.json | ->\n\
     \x20 qre serve [--jobs N] [--cache-file PATH] [--cache-cap N] [--save-every N]\n\
     \x20           [--search-stats]\n\
     \x20 qre serve --listen ADDR [--max-conns N] [--per-conn K] [common flags]\n\
     \x20 qre merge <shard.ndjson>...\n\
     \x20 qre stress --points N [--shards K] [--stream]\n\
     \n\
     The job file is a JSON specification; see the qre-cli crate docs for the\n\
     schema. `-` reads the job from stdin. Output is pretty-printed JSON by\n\
     default, `--compact` emits one line, `--report` renders a text report.\n\
     A submission with top-level \"stream\": true emits NDJSON records as\n\
     items finish, interleaved with {\"progress\": k, \"total\": n} lines.\n\
     A job with \"estimateType\": \"frontier\" returns the qubit/runtime\n\
     trade-off curve; add \"searchBudgetPartition\": true to also search\n\
     the error-budget split (each frontier point then reports the\n\
     partition that produced it in its \"errorBudget\" field).\n\
     With --search-stats (JSON modes only) a {\"searchStats\": ...} line is\n\
     printed to stderr after the run: pipeline searches run, seeded\n\
     searches, branch-and-bound nodes expanded/pruned, memo hits.\n\
     \n\
     `qre serve` reads one JSON job per stdin line until EOF and writes\n\
     completion-order NDJSON records (every record carries its \"job\" id;\n\
     each job ends with a \"stats\" record). Malformed lines yield error\n\
     records and the session continues, as do lines that are not UTF-8 or\n\
     longer than 16 MiB (the reader skips to the next newline).\n\
     \x20 --jobs N          concurrent jobs (default 2; with --listen this is\n\
     \x20                   the process-wide bound across all connections,\n\
     \x20                   default 8)\n\
     \x20 --cache-file PATH load the factory-design store from PATH at start\n\
     \x20                   and save it (atomically) at session end; corrupt\n\
     \x20                   or version-mismatched files warn and start cold\n\
     \x20 --cache-cap N     bound the store to N designs (LRU eviction)\n\
     \x20 --save-every N    with --cache-file, also save every N completed\n\
     \x20                   jobs (default 25; 0 = only at session end)\n\
     \x20 --search-stats    add a searchStats object (pipeline-search\n\
     \x20                   counters) to every job's \"stats\" record\n\
     \n\
     `qre serve --listen ADDR` serves the same NDJSON protocol over TCP\n\
     (ADDR like 127.0.0.1:7733; port 0 picks a free port, reported on\n\
     stderr as `serve: listening on ...`). Every connection is its own\n\
     session — with {\"hello\"} / {\"bye\"} lifecycle records framing its\n\
     jobs — over one shared design store, so each client's searches warm\n\
     the others'. A {\"control\": \"shutdown\"} job line from any client, or\n\
     the word `shutdown` on the server's stdin, drains the service: accepts\n\
     stop, in-flight jobs finish, the snapshot is saved once, then exit.\n\
     \x20 --listen ADDR     serve over TCP instead of stdin/stdout\n\
     \x20 --max-conns N     concurrent connections (default 32); surplus\n\
     \x20                   connections get {\"bye\": {.., \"busy\": true}}\n\
     \x20 --per-conn K      in-flight jobs per connection (default 2);\n\
     \x20                   further lines wait in the socket buffer\n\
     \n\
     `qre merge` joins the NDJSON output files of sharded sweep sessions:\n\
     item records are re-sorted by their global sweep index and written to\n\
     stdout, per-shard \"stats\" records are dropped, and the merge fails\n\
     unless the shards cover the sweep exactly (no gaps, no duplicates).\n\
     \n\
     `qre stress` prints the deterministic scale-test sweep matrix\n\
     (workloads x the six default profiles x error budgets) as NDJSON job\n\
     lines — the matrix behind BENCH_scale.json and the QRE_SOAK suites.\n\
     \x20 --points N        minimum sweep items (rounded up to whole\n\
     \x20                   workload rows of 84; default 10000 -> 10080)\n\
     \x20 --shards K        emit K shard job lines (serve input) instead of\n\
     \x20                   one unsharded submission\n\
     \x20 --stream          add \"stream\": true for one-shot NDJSON delivery\n"
}

fn serve_main(args: &[String]) -> ExitCode {
    let mut options = qre_cli::ServeOptions::default();
    let mut jobs: Option<usize> = None;
    let mut listen: Option<String> = None;
    let mut max_conns: Option<usize> = None;
    let mut per_conn: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--jobs" => {
                let value = iter.next().and_then(|v| v.parse::<usize>().ok());
                match value {
                    Some(n) if n >= 1 => jobs = Some(n),
                    _ => {
                        eprintln!("--jobs requires an integer of at least 1\n\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--listen" => match iter.next() {
                Some(addr) if !addr.is_empty() => listen = Some(addr.clone()),
                _ => {
                    eprintln!(
                        "--listen requires an address like 127.0.0.1:7733\n\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--max-conns" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => max_conns = Some(n),
                _ => {
                    eprintln!(
                        "--max-conns requires an integer of at least 1\n\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--per-conn" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => per_conn = Some(n),
                _ => {
                    eprintln!(
                        "--per-conn requires an integer of at least 1\n\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--cache-file" => match iter.next() {
                Some(path) if !path.is_empty() => {
                    options.cache_file = Some(std::path::PathBuf::from(path));
                }
                _ => {
                    eprintln!("--cache-file requires a path\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--cache-cap" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => options.cache_capacity = Some(n),
                None => {
                    eprintln!("--cache-cap requires a non-negative integer\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--save-every" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => options.save_every = n,
                None => {
                    eprintln!(
                        "--save-every requires a non-negative integer\n\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--search-stats" => options.search_stats = true,
            other => {
                eprintln!("unexpected serve argument `{other}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(addr) = listen {
        // Network mode: --jobs is the process-wide bound, --per-conn the
        // per-session admission bound.
        options.max_in_flight = per_conn.unwrap_or(2);
        options.global_jobs = Some(jobs.unwrap_or(8));
        return listen_main(&addr, max_conns.unwrap_or(32), &options);
    }
    if max_conns.is_some() || per_conn.is_some() {
        eprintln!("--max-conns and --per-conn require --listen\n\n{}", usage());
        return ExitCode::FAILURE;
    }
    if let Some(n) = jobs {
        options.max_in_flight = n;
    }
    let stdin = std::io::stdin();
    // `Stdout` (not its `!Send` lock): the session's job threads share the
    // handle and lock it per record.
    let mut out = std::io::stdout();
    match qre_cli::serve(stdin.lock(), &mut out, &options) {
        Ok(summary) => {
            eprintln!(
                "serve: {} job(s), {} error(s), {} record(s)",
                summary.jobs, summary.job_errors, summary.records
            );
            if options.cache_file.is_some() {
                eprintln!(
                    "serve: cache snapshot: {} design(s) loaded, {} saved",
                    summary.designs_loaded, summary.designs_saved
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `qre serve --listen`: run the TCP service until drained, with an
/// operator watcher that turns a `shutdown` line on the server's stdin into
/// a drain. Stdin EOF deliberately does NOT drain — a server launched with
/// stdin on /dev/null (or under a supervisor) must keep serving.
fn listen_main(addr: &str, max_conns: usize, options: &qre_cli::ServeOptions) -> ExitCode {
    use std::io::BufRead as _;

    let shared = qre_cli::ServeShared::new(options);
    let signal = shared.shutdown_handle();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            match line.trim() {
                "" => {}
                "shutdown" => {
                    signal.signal();
                    break;
                }
                other => eprintln!("serve: unknown command `{other}` (try `shutdown`)"),
            }
        }
        // The watcher may also still be blocked in a stdin read at process
        // exit; that is fine — it holds nothing the drain waits on.
    });

    match qre_cli::listen_serve(&shared, addr, max_conns, |bound| {
        eprintln!("serve: listening on {bound}");
    }) {
        Ok(summary) => {
            eprintln!(
                "serve: {} connection(s) ({} rejected), {} job(s), {} error(s), {} record(s)",
                summary.connections,
                summary.rejected,
                summary.jobs,
                summary.job_errors,
                summary.records
            );
            if options.cache_file.is_some() {
                eprintln!(
                    "serve: cache snapshot: {} design(s) loaded, {} saved",
                    summary.designs_loaded, summary.designs_saved
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn merge_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unexpected merge argument `{flag}`\n\n{}", usage());
        return ExitCode::FAILURE;
    }
    if args.is_empty() {
        eprintln!("merge requires at least one shard file\n\n{}", usage());
        return ExitCode::FAILURE;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match qre_cli::merge_files(args, &mut out) {
        Ok(summary) => {
            eprintln!(
                "merge: {} file(s), {} item record(s), {} bookkeeping record(s) dropped",
                summary.files, summary.items, summary.skipped
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn stress_main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let mut points: usize = 10_000;
    let mut shards: Option<usize> = None;
    let mut stream = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--points" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => points = n,
                _ => {
                    eprintln!("--points requires an integer of at least 1\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shards = Some(n),
                _ => {
                    eprintln!("--shards requires an integer of at least 1\n\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--stream" => stream = true,
            other => {
                eprintln!("unexpected stress argument `{other}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match qre_cli::write_stress_jobs(points, shards, stream, &mut out) {
        Ok(summary) => {
            eprintln!(
                "stress: {} sweep item(s) ({} workload(s) x {} profile(s) x {} budget(s)), {} job line(s)",
                summary.shape.len(),
                summary.shape.workloads,
                summary.shape.profiles,
                summary.shape.budgets,
                summary.lines
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stress failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("merge") => return merge_main(&args[1..]),
        Some("stress") => return stress_main(&args[1..]),
        _ => {}
    }
    let mut report = false;
    let mut compact = false;
    let mut search_stats = false;
    let mut input: Option<String> = None;
    for arg in &args {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--report" => report = true,
            "--compact" => compact = true,
            "--search-stats" => search_stats = true,
            other if input.is_none() => input = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(input) = input else {
        eprintln!("missing job file\n\n{}", usage());
        return ExitCode::FAILURE;
    };

    let text = if input == "-" {
        let mut buffer = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut buffer) {
            eprintln!("failed to read stdin: {e}");
            return ExitCode::FAILURE;
        }
        buffer
    } else {
        match std::fs::read_to_string(&input) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let submission = match qre_cli::parse_submission(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid job: {e}");
            return ExitCode::FAILURE;
        }
    };

    if report {
        if submission.stream {
            eprintln!("--report cannot stream; drop `\"stream\": true` or use JSON output");
            return ExitCode::FAILURE;
        }
        if search_stats {
            eprintln!("--search-stats requires JSON output; drop --report");
            return ExitCode::FAILURE;
        }
        let specs: Vec<&qre_cli::JobSpec> = match &submission.kind {
            qre_cli::SubmissionKind::Single(spec) => vec![spec],
            qre_cli::SubmissionKind::Batch(jobs) => jobs.iter().collect(),
            qre_cli::SubmissionKind::Sweep(_) => {
                eprintln!(
                    "--report supports single and batch submissions; use JSON output for sweeps"
                );
                return ExitCode::FAILURE;
            }
        };
        let engine = qre_core::Estimator::new();
        for spec in specs {
            match qre_cli::run_job_report(&engine, spec) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("estimation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ExitCode::SUCCESS
    } else if submission.stream {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let engine = qre_core::Estimator::new();
        match qre_cli::run_submission_streamed(&engine, &submission, &mut out) {
            Ok(()) => {
                print_search_stats(search_stats, &engine);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("estimation failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        // One JSON document, written entry by entry in submission order as
        // items finish: only records that finish ahead of an earlier one
        // wait, so a 10k-item sweep never holds its full result set.
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        let engine = qre_core::Estimator::new();
        match qre_cli::write_submission(&engine, &submission, &mut out, compact) {
            Ok(()) => {
                drop(out);
                print_search_stats(search_stats, &engine);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("estimation failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// With `--search-stats`, print the run's aggregated pipeline-search
/// counters as one JSON line on stderr — stdout stays exactly the job
/// output, so existing consumers parse it unchanged.
fn print_search_stats(enabled: bool, engine: &qre_core::Estimator) {
    if enabled {
        let record = qre_json::ObjectBuilder::new()
            .field("searchStats", qre_cli::search_stats_json(engine))
            .build();
        eprintln!("{}", record.to_string_compact());
    }
}
