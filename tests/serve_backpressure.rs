//! Regression test for the serve output bound: a deliberately stalled
//! consumer must throttle the session's estimation run-ahead instead of
//! letting results pile up without limit — and must lose nothing once it
//! resumes reading.
//!
//! A serve job writes each record itself, straight to the session's
//! output, so a stalled client blocks the job in its write. The job's
//! sweep runs on its own thread, so the one queue between the estimator and
//! the consumer is the parallel map's bounded delivery channel, and a stall
//! caps the number of items estimated-but-undelivered at a small
//! scheduling-dependent constant.
//!
//! The observable: every sweep item with a distinct error budget searches a
//! distinct factory design (the design key includes the budget-derived
//! required fidelity), so the shared store's entry count *is* a progress
//! counter for estimation. Stall the consumer after one record, watch the
//! store: it must plateau far below the sweep size.
//!
//! This file holds the only backpressure test that sets `QRE_THREADS`, so
//! no sibling test in the same process can race on the environment.

use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qre_cli::{run_session, ServeOptions, ServeShared, SessionConfig};

const THREADS: usize = 4;
/// Sweep size: one algorithm × 120 distinct error budgets — 120 distinct
/// designs, far above any legitimate run-ahead.
const ITEMS: usize = 120;

/// A consumer that accepts `open_flushes` records and then blocks (serve
/// flushes once per record) until released — a client that stopped reading
/// its socket, as the kernel's full send buffer would present it.
#[derive(Clone)]
struct StalledWriter {
    state: Arc<StallState>,
}

struct StallState {
    lock: Mutex<StallGate>,
    released: Condvar,
    flushes: AtomicUsize,
}

struct StallGate {
    open_flushes: usize,
    released: bool,
}

impl Write for StalledWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut gate = self.state.lock.lock().unwrap();
        while gate.open_flushes == 0 && !gate.released {
            gate = self.state.released.wait(gate).unwrap();
        }
        if gate.open_flushes > 0 {
            gate.open_flushes -= 1;
        }
        drop(gate);
        self.state.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

impl StalledWriter {
    fn new(open_flushes: usize) -> StalledWriter {
        StalledWriter {
            state: Arc::new(StallState {
                lock: Mutex::new(StallGate {
                    open_flushes,
                    released: false,
                }),
                released: Condvar::new(),
                flushes: AtomicUsize::new(0),
            }),
        }
    }

    fn release(&self) {
        let mut gate = self.state.lock.lock().unwrap();
        gate.released = true;
        self.state.released.notify_all();
    }

    fn flushes(&self) -> usize {
        self.state.flushes.load(Ordering::Relaxed)
    }
}

fn budget_sweep_line() -> String {
    let budgets: Vec<String> = (0..ITEMS)
        .map(|i| format!("{:e}", 1e-4 + i as f64 * 1e-6))
        .collect();
    format!(
        "{{ \"id\": \"flood\", \"sweep\": {{ \"algorithms\": [ {{ \"logicalCounts\": {{ \"numQubits\": 10, \"tCount\": 100 }} }} ], \"qubitParams\": [ {{ \"name\": \"qubit_gate_ns_e3\" }} ], \"errorBudgets\": [ {} ] }} }}",
        budgets.join(", ")
    )
}

#[test]
fn stalled_consumer_bounds_estimation_run_ahead_and_loses_nothing() {
    // One test owns the env var for this whole process (see module docs).
    std::env::set_var("QRE_THREADS", THREADS.to_string());

    let options = ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    };
    let shared = Arc::new(ServeShared::new(&options));
    // One record is delivered before the stall, so the test also proves the
    // stall hits mid-job, not before it starts.
    const DELIVERED_BEFORE_STALL: usize = 1;
    let writer = StalledWriter::new(DELIVERED_BEFORE_STALL);

    let session = std::thread::spawn({
        let shared = Arc::clone(&shared);
        let mut writer = writer.clone();
        move || {
            let input = format!("{}\n", budget_sweep_line());
            run_session(
                &shared,
                &SessionConfig::default(),
                input.as_bytes(),
                &mut writer,
            )
            .expect("session succeeds")
        }
    });

    // The store counts every design *searched*: the records delivered
    // before the stall, plus the maximum run-ahead — the one queue between
    // the estimator and the consumer (the parallel map's delivery channel)
    // and the single record each blocked thread holds in hand. The
    // `THREADS` term is one searched-but-unsent item per worker blocked in
    // `send`; the `+1` is the record in the job's blocked write.
    let bound = DELIVERED_BEFORE_STALL + qre_par::streamed_buffer_bound(THREADS) + THREADS + 1;

    // Watch the store grow while the consumer is stalled: it must plateau
    // at or below the bound, nowhere near the sweep size. "Plateau" =
    // unchanged for a comfortable settling window.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = usize::MAX;
    let mut stable_since = Instant::now();
    let plateau = loop {
        assert!(
            Instant::now() < deadline,
            "store never plateaued under a stalled consumer"
        );
        let entries = shared.store().stats().entries;
        assert!(
            entries <= bound,
            "run-ahead escaped its bound: {entries} designs searched (bound {bound}) \
             while the consumer was stalled"
        );
        if entries != last {
            last = entries;
            stable_since = Instant::now();
        } else if entries > 0 && stable_since.elapsed() > Duration::from_millis(750) {
            break entries;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        plateau < ITEMS,
        "the whole sweep ran ahead of a stalled consumer"
    );

    // Release the consumer: the session must finish and deliver every
    // record — the stall throttled the work, it didn't drop any of it.
    writer.release();
    let summary = session.join().expect("session thread");
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.job_errors, 0);
    assert_eq!(
        summary.records,
        ITEMS + 1,
        "every sweep item plus the stats record"
    );
    assert_eq!(writer.flushes(), ITEMS + 1);
    assert_eq!(shared.store().stats().entries, ITEMS);

    std::env::remove_var("QRE_THREADS");
}
