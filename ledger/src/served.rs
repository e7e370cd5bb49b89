//! The two warm workloads over one primed serve store.
//!
//! * `pipe_warm` feeds the matrix as a few large shard job lines to
//!   `run_session`, output on a real pipe.
//! * `served_requery` is a closed loop of two loopback TCP connections to a
//!   `qre serve --listen` service (`listen_serve` with the `--listen`
//!   defaults), each submitting one workload row (84 items) and waiting for
//!   its closing record before sending the next.
//!
//! The load generator cannot stall itself: it sets `TCP_NODELAY` on its
//! socket and sends each job line in one write, so any stall it measures is
//! the server's.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

use qre_cli::{listen_serve, merge_files, run_session, ListenSummary, ServeShared, SessionConfig};
use qre_core::Estimator;

use crate::ledger::{ratio, Ledger};
use crate::matrix::{Matrix, ROWS, ROW_ITEMS};
use crate::report::{median, setup_median, JobTime, Report, Window};
use crate::session::{replay, run_pipe, serve_options, CacheTally, Replay, Tap};
use crate::trace::Tracer;
use crate::Args;

/// Job lines `pipe_warm` splits the matrix into.
const PIPE_JOBS: usize = 4;
/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 5;
/// Client connections of `served_requery`.
const CLIENTS: usize = 2;
/// Pipe replays of each row line, for `served_requery`'s `cli.serve` cost.
const PIPE_JOB_REPS: usize = 3;

/// A serve store primed with one seed's matrix.
struct Warm {
    matrix: Matrix,
    lines: Vec<String>,
    input: Vec<u8>,
    shared: Arc<ServeShared>,
    hit_ratio: f64,
}

/// Build the matrix and its job lines, prime a fresh store by running the
/// lines through a session once, and measure the hit ratio a fresh scoped
/// engine then sees on the whole matrix.
fn prime(seed: u64, jobs: usize, trace: bool) -> Warm {
    let matrix = Matrix::generate(seed);
    let lines = matrix.job_lines(jobs);
    let input = (lines.join("\n") + "\n").into_bytes();
    let shared = Arc::new(ServeShared::new(&serve_options(trace)));
    run_session(
        &shared,
        &SessionConfig::default(),
        &input[..],
        &mut std::io::sink(),
    )
    .expect("priming session runs");
    let engine = Estimator::with_cache(Arc::new(shared.store().scoped()));
    engine
        .sweep_with(&matrix.spec(), |o| drop(std::hint::black_box(o)))
        .expect("matrix expands");
    let stats = engine.cache_stats();
    Warm {
        matrix,
        lines,
        input,
        shared,
        hit_ratio: ratio(stats.hits, stats.hits + stats.misses),
    }
}

/// A running `listen_serve` service.
struct Listener {
    addr: SocketAddr,
    handle: JoinHandle<Result<ListenSummary, String>>,
}

fn listen(shared: &Arc<ServeShared>) -> Listener {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        listen_serve(&shared, "127.0.0.1:0", 32, |addr| {
            let _ = tx.send(addr);
        })
    });
    let addr = rx.recv().expect("server binds a loopback port");
    Listener { addr, handle }
}

/// Drain the service and wait for it. A drained store serves no further
/// sessions, so this comes after every use of the store.
fn stop(shared: &ServeShared, listener: Listener) -> Result<ListenSummary, String> {
    shared.shutdown_signal().signal();
    listener.handle.join().expect("server thread panicked")
}

/// One client connection of the load generator.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    bytes_out: u64,
}

impl Client {
    fn connect(addr: SocketAddr, tap: &mut Tap) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the service");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut client = Client {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone().expect("clone socket")),
            writer: stream,
            line: String::new(),
            bytes_out: 0,
        };
        client.read_record(tap); // hello
        client
    }

    fn read_record(&mut self, tap: &mut Tap) {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .expect("read a record");
        assert!(n > 0, "service closed the connection mid-job");
        tap.line(self.line.trim_end_matches('\n'), Instant::now());
    }

    /// Submit one job line (newline included, in one write) and read until
    /// its closing record. Returns the submission time.
    fn job(&mut self, line: &[u8], tap: &mut Tap) -> Instant {
        let closed_before = tap.closed.len();
        let submitted = Instant::now();
        self.writer.write_all(line).expect("submit a job line");
        self.bytes_out += line.len() as u64;
        while tap.closed.len() == closed_before {
            self.read_record(tap);
        }
        submitted
    }

    /// Half-close and read the session's remaining records.
    fn close(mut self, tap: &mut Tap) {
        self.writer
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close the connection");
        loop {
            self.line.clear();
            if self
                .reader
                .read_line(&mut self.line)
                .expect("drain the session")
                == 0
            {
                break;
            }
            tap.line(self.line.trim_end_matches('\n'), Instant::now());
        }
    }
}

/// Job lines with their newline, ready for a single write each.
fn wire_lines(lines: &[String]) -> Vec<Vec<u8>> {
    lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect()
}

/// What the load generator saw beyond the window's own numbers.
#[derive(Debug, Default)]
struct Traffic {
    cache: CacheTally,
    /// Bytes of the records read back.
    record_bytes: u64,
    /// Bytes of the job lines sent.
    line_bytes: u64,
    records: u64,
}

/// The closed loop: rounds over every row job, the rows of a round shared
/// by the clients, until `seconds` have elapsed.
fn served_window(
    seconds: f64,
    addr: SocketAddr,
    wire: &[Vec<u8>],
    tracer: &Tracer,
) -> (Window, Traffic) {
    let barrier = Barrier::new(CLIENTS + 1);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tap = Tap::new(false);
                    let mut client = Client::connect(addr, &mut tap);
                    let mut jobs = Vec::new();
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        loop {
                            let row = next.fetch_add(1, Ordering::SeqCst);
                            if row >= wire.len() {
                                break;
                            }
                            let submitted = client.job(&wire[row], &mut tap);
                            let closed = *tap.closed.last().expect("job closed");
                            tracer.record_interval("net", row as u64, submitted, closed.closed);
                            jobs.push(JobTime::since(submitted, closed.first, closed.closed));
                        }
                        barrier.wait();
                    }
                    let bytes_out = client.bytes_out;
                    client.close(&mut tap);
                    (tap, jobs, bytes_out)
                })
            })
            .collect();

        let mut window = Window::default();
        let start = Instant::now();
        loop {
            next.store(0, Ordering::SeqCst);
            let t = Instant::now();
            barrier.wait();
            barrier.wait();
            window.passes.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
        let mut traffic = Traffic::default();
        for client in clients {
            let (tap, jobs, bytes_out) = client.join().expect("client thread panicked");
            window.jobs.extend(jobs);
            window.items += tap.items;
            window.item_errors += tap.item_errors + tap.job_errors;
            traffic.cache.merge(&tap.cache);
            traffic.record_bytes += tap.bytes;
            traffic.line_bytes += bytes_out;
            traffic.records += tap.records;
        }
        (window, traffic)
    })
}

/// Submit every line over one connection and capture the item records.
fn socket_capture(addr: SocketAddr, wire: &[Vec<u8>]) -> Tap {
    let mut tap = Tap::new(true);
    let mut client = Client::connect(addr, &mut tap);
    for line in wire {
        client.job(line, &mut tap);
    }
    client.close(&mut tap);
    tap
}

/// socket ≡ pipe: the same lines through both transports give byte-equal
/// item records once job ids are stripped and records sorted by index.
fn check_transports(report: &mut Report, warm: &Warm, socket: &Tap, pipe: &Tap) {
    let items = warm.matrix.len() as u64;
    report.check(
        "socket records cover the matrix without errors",
        socket.items == items && socket.item_errors == 0 && socket.job_errors == 0,
    );
    report.check(
        "pipe records cover the matrix without errors",
        pipe.items == items && pipe.item_errors == 0 && pipe.job_errors == 0,
    );
    report.check(
        "socket and pipe item records are byte-equal",
        socket.sorted_items() == pipe.sorted_items(),
    );
    report.check(
        "warm store never misses",
        socket.cache.misses == 0 && pipe.cache.misses == 0,
    );
}

/// The layers' per-item costs from the isolation replay, as self times of
/// one unit of `items` items submitted as `lines` job lines.
fn replay_self_ms(l: &mut Ledger, r: &Replay, items: f64, lines: f64) {
    l.set("core.engine.hit_us_per_item", r.engine_hit_us_per_item);
    l.set("core.result.to_json_us", r.to_json_us);
    l.set("json.print.us_per_record", r.render_us);
    l.set("json.print.bytes_per_record", r.bytes_per_record);
    l.set("json.parse.us_per_job_line", r.parse_us_per_line);
    l.set("cli.parse.us_per_job", r.cli_parse_us_per_job);
    l.self_ms("json.parse", r.parse_us_per_line * lines / 1e3);
    l.self_ms("cli.parse", r.cli_parse_us_per_job * lines / 1e3);
    l.self_ms("core.engine", r.engine_hit_us_per_item * items / 1e3);
    l.self_ms("core.result", r.to_json_us * items / 1e3);
    l.self_ms("json.print", r.render_us * items / 1e3);
}

/// Named share of a serve unit that the isolated layers do not explain.
fn serve_residual_ms(r: &Replay, unit_ms: f64, items: f64, lines: f64) -> f64 {
    unit_ms
        - (r.parse_us_per_line + r.cli_parse_us_per_job) * lines / 1e3
        - (r.engine_hit_us_per_item + r.to_json_us + r.render_us) * items / 1e3
}

fn cache_metrics(l: &mut Ledger, c: &CacheTally) {
    l.set("core.cache.hits", c.hits as f64);
    l.set("core.cache.misses", c.misses as f64);
    l.set("core.cache.hit_ratio", ratio(c.hits, c.hits + c.misses));
    l.set("core.cache.entries", c.entries as f64);
    l.set("core.cache.evictions", c.evictions as f64);
    l.set("core.tfactory.searches", c.searches as f64);
    l.set("core.tfactory.seeded_ratio", ratio(c.seeded, c.searches));
    l.set("core.tfactory.nodes_expanded", c.nodes_expanded as f64);
    l.set("core.tfactory.nodes_pruned", c.nodes_pruned as f64);
    l.set("core.tfactory.memo_hits", c.memo_hits as f64);
    l.set(
        "core.tfactory.factories_realised",
        c.factories_realised as f64,
    );
}

pub fn run_pipe_warm(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (setup_s, warm) = setup_median(SETUPS, || prime(args.seed, PIPE_JOBS, args.trace), drop);
    report.check("primed store hit ratio is 1", warm.hit_ratio == 1.0);
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let pass = |w: &mut Window, tracer: &Tracer, traffic: &mut Traffic| {
        let (tap, jobs) = tracer.span("ledger.pass", 0, 0, |pass_id| {
            tracer.span("cli.serve", pass_id, 0, |_| {
                run_pipe(&warm.shared, &warm.input, false)
            })
        });
        w.jobs.extend(jobs);
        w.items += tap.items;
        w.item_errors += tap.item_errors + tap.job_errors;
        traffic.cache.merge(&tap.cache);
        traffic.records += tap.records;
        traffic.record_bytes += tap.bytes;
    };
    let mut untraced_traffic = Traffic::default();
    let untraced = Window::run(window_s, |w| {
        pass(w, &Tracer::new(false), &mut untraced_traffic)
    });
    report.count(&untraced);
    report.check(
        "timed passes never miss",
        untraced_traffic.cache.misses == 0,
    );
    let traced = if args.trace {
        let mut traffic = Traffic::default();
        let traced = Window::run(window_s, |w| pass(w, tracer, &mut traffic));
        report.count(&traced);
        Some((traced, traffic))
    } else {
        report.end_to_end(setup_s, &untraced);
        None
    };

    // Correctness, outside the timed window.
    let (pipe, _) = run_pipe(&warm.shared, &warm.input, true);
    let listener = listen(&warm.shared);
    let socket = socket_capture(listener.addr, &wire_lines(&warm.lines));

    if let Some((traced, traffic)) = traced {
        let items = warm.matrix.len() as f64;
        let lines = warm.lines.len() as f64;
        let jobs = traced.jobs.len().max(1) as f64;
        let r = replay(
            &warm.shared,
            &warm.matrix,
            &warm.lines,
            &pipe.captured,
            tracer,
        );
        report.check("isolation replay never misses", r.misses == 0);
        let pass_ms = untraced.pass_median_s() * 1e3;
        let mut l = Ledger::default();
        replay_self_ms(&mut l, &r, items, lines);
        let residual_ms = serve_residual_ms(&r, pass_ms, items, lines);
        l.self_ms("cli.serve", residual_ms);
        l.set("cli.serve.residual_us_per_item", residual_ms * 1e3 / items);
        l.set("cli.serve.records", traffic.records as f64 / jobs);
        l.set("cli.serve.bytes", traffic.record_bytes as f64 / jobs);
        cache_metrics(&mut l, &traffic.cache);
        l.close(pass_ms, traced.pass_median_s() * 1e3, tracer);
        l.report(report);
    }

    check_transports(report, &warm, &socket, &pipe);
    let summary = stop(&warm.shared, listener);
    report.check(
        "service drains without job errors",
        summary.is_ok_and(|s| s.job_errors == 0),
    );
}

pub fn run_served(args: &Args, tracer: &Tracer, report: &mut Report) {
    let (setup_s, (warm, listener)) = setup_median(
        SETUPS,
        || {
            let warm = prime(args.seed, ROWS, args.trace);
            let listener = listen(&warm.shared);
            (warm, listener)
        },
        |(warm, listener)| {
            let _ = stop(&warm.shared, listener);
        },
    );
    report.check("primed store hit ratio is 1", warm.hit_ratio == 1.0);
    let wire = wire_lines(&warm.lines);
    let window_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (untraced, _) = served_window(window_s, listener.addr, &wire, &Tracer::new(false));
    report.count(&untraced);
    let traced = if args.trace {
        let traced = served_window(window_s, listener.addr, &wire, tracer);
        report.count(&traced.0);
        Some(traced)
    } else {
        report.end_to_end(setup_s, &untraced);
        None
    };

    // Correctness, outside the timed window.
    let socket = socket_capture(listener.addr, &wire);
    let (pipe, _) = run_pipe(&warm.shared, &warm.input, true);
    check_transports(report, &warm, &socket, &pipe);

    // Merge the captured socket records: the coverage check, and the
    // `cli.merge` layer's numbers.
    let dir = crate::work_dir().join("merge");
    let path = dir.join(format!("served-seed{}.ndjson", args.seed));
    let merged = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, socket.captured.join("\n") + "\n"))
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let t = Instant::now();
            let mut out = Vec::new();
            let summary = merge_files(&[path.display().to_string()], &mut out)?;
            Ok((summary, t.elapsed().as_secs_f64() * 1e3, out))
        });
    let _ = std::fs::remove_file(&path);
    let merge_ok = merged.as_ref().is_ok_and(|(s, _, out)| {
        s.items == warm.matrix.len() && out.iter().filter(|&&b| b == b'\n').count() == s.items
    });
    report.check("merge of the socket records covers the matrix", merge_ok);

    if let Some((traced, traffic)) = traced {
        let r = replay(
            &warm.shared,
            &warm.matrix,
            &warm.lines,
            &socket.captured,
            tracer,
        );
        report.check("isolation replay never misses", r.misses == 0);
        // The same job lines, one session each, through the pipe transport.
        let mut pipe_jobs = Vec::new();
        tracer.span("cli.serve", 0, 0, |_| {
            for line in &wire {
                for _ in 0..PIPE_JOB_REPS {
                    let (_, jobs) = run_pipe(&warm.shared, line, false);
                    pipe_jobs.extend(jobs.iter().map(|j| j.close_ms));
                }
            }
        });
        let served_ms = median(&untraced.close_ms());
        let pipe_job_ms = median(&pipe_jobs);
        let items = ROW_ITEMS as f64;
        let jobs = traced.jobs.len().max(1) as f64;
        let mut l = Ledger::default();
        replay_self_ms(&mut l, &r, items, 1.0);
        let residual_ms = serve_residual_ms(&r, pipe_job_ms, items, 1.0);
        l.self_ms("cli.serve", residual_ms);
        l.set("cli.serve.residual_us_per_item", residual_ms * 1e3 / items);
        l.set("cli.serve.records", traffic.records as f64 / jobs);
        l.set("cli.serve.bytes", traffic.record_bytes as f64 / jobs);
        l.self_ms("net", served_ms - pipe_job_ms);
        l.set("net.residual_ms_per_job", served_ms - pipe_job_ms);
        l.set("net.bytes_in", traffic.line_bytes as f64 / jobs);
        l.set("net.bytes_out", traffic.record_bytes as f64 / jobs);
        if let Ok((summary, ms, _)) = &merged {
            l.set("cli.merge.items", summary.items as f64);
            l.set("cli.merge.ms", *ms);
            l.set(
                "cli.merge.peak_resident_bytes",
                summary.peak_resident_bytes as f64,
            );
        }
        cache_metrics(&mut l, &traffic.cache);
        l.close(served_ms, median(&traced.close_ms()), tracer);
        l.report(report);
    }

    let summary = stop(&warm.shared, listener);
    report.check(
        "service drains without job errors",
        summary.is_ok_and(|s| s.job_errors == 0),
    );
}
