//! Network transport for the serve session engine: `qre serve --listen`.
//!
//! [`listen_serve`] is the whole TCP side of the service. It polls a
//! non-blocking listener, turns away connections beyond the `--max-conns`
//! gate, and runs each admitted connection as one session of the serve
//! session engine ([`crate::run_session`], which owns the NDJSON job
//! protocol) on a thread of its own. Every session has lifecycle records
//! ([`crate::SessionConfig::lifecycle`]) over the one process-wide
//! [`crate::ServeShared`] state — so every client's factory-design
//! searches warm every other client's jobs, and a `{"control":
//! "shutdown"}` line from any client drains the whole service.
//!
//! Blocking I/O and one thread per connection are the right shape here:
//! connections are few and long-lived (each multiplexes many jobs over one
//! socket), and the global job gate, not the connection count, is what
//! caps the process's concurrency.
//!
//! Connections bounced by the `--max-conns` accept gate receive a single
//! `{"bye": {"session": id, "busy": true}}` record before their socket
//! closes: in protocol terms, a session that ended before it began.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use qre_json::ObjectBuilder;

use crate::{run_session, RecordWriter, ServeShared, SessionConfig};

/// How long the accept loop parks on the drain switch between polls of the
/// non-blocking listener. Bounds both the latency of noticing a drain and
/// the latency of accepting a connection that arrived mid-park.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// What a `qre serve --listen` run did: the accept-side tally plus the
/// session summaries folded across every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListenSummary {
    /// Connections admitted and served.
    pub connections: u64,
    /// Connections bounced by the `--max-conns` accept gate.
    pub rejected: u64,
    /// Non-blank job lines consumed, summed over all sessions.
    pub jobs: usize,
    /// Job-level errors, summed over all sessions.
    pub job_errors: usize,
    /// NDJSON records written, summed over all sessions (lifecycle and
    /// busy-rejection records included).
    pub records: usize,
    /// Designs loaded from the `--cache-file` snapshot at service start.
    pub designs_loaded: usize,
    /// Designs saved by the exactly-once service-end snapshot.
    pub designs_saved: usize,
}

/// Serve the NDJSON job protocol over TCP until `shared`'s drain switch is
/// raised: bind `addr` (port 0 picks a free port), report the bound address
/// through `on_bound` (before any connection is accepted — this is how
/// scripts learn the real port), then accept up to `max_connections`
/// concurrent sessions over the shared state. On drain the listener stops
/// accepting and every session's read half is shut down: blocked readers
/// see EOF, while in-flight jobs finish and write their records and the
/// session's bye over the still-open write half. Once every session has
/// finished, the snapshot is saved exactly once
/// ([`ServeShared::final_save`]) and the folded [`ListenSummary`] is
/// returned.
///
/// The caller raises the drain switch through
/// [`ServeShared::shutdown_handle`] (the `qre` binary wires an operator
/// watcher that signals on a `shutdown` stdin line) — or any client does,
/// with a `{"control": "shutdown"}` job line.
pub fn listen_serve(
    shared: &ServeShared,
    addr: &str,
    max_connections: usize,
    on_bound: impl FnOnce(SocketAddr),
) -> Result<ListenSummary, String> {
    let bound = TcpListener::bind(addr).and_then(|listener| {
        listener.set_nonblocking(true)?;
        Ok((listener.local_addr()?, listener))
    });
    let (local, listener) = bound.map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    on_bound(local);

    let shutdown = shared.shutdown_signal();
    let gate = qre_par::Semaphore::new(max_connections);
    // Read halves of live sessions, by session id, so the drain can wake
    // readers blocked on their sockets.
    let live = Mutex::new(HashMap::new());
    let jobs = AtomicUsize::new(0);
    let job_errors = AtomicUsize::new(0);
    let records = AtomicUsize::new(0);
    // Rejected connections consume session ids too, so ids in the log are
    // unique across both.
    let (mut connections, mut rejected, mut session) = (0u64, 0u64, 0u64);
    let accepted = std::thread::scope(|scope| {
        let accepted = loop {
            if shutdown.is_signalled() {
                break Ok(());
            }
            let (stream, peer) = match accept(&listener) {
                Ok(Some(connection)) => connection,
                Ok(None) => {
                    shutdown.wait_timeout(ACCEPT_POLL);
                    continue;
                }
                Err(e) => break Err(e),
            };
            session += 1;
            let Some(permit) = gate.try_acquire() else {
                rejected += 1;
                let bye = ObjectBuilder::new()
                    .field(
                        "bye",
                        ObjectBuilder::new()
                            .field("session", session)
                            .field("busy", true)
                            .build(),
                    )
                    .build();
                // The peer may already be gone; rejection is best-effort by
                // nature.
                if RecordWriter::new(&stream).write(&bye) {
                    records.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            };
            // Register the read half before the session starts, so a drain
            // arriving in the gap still reaches this connection.
            match stream.try_clone() {
                Ok(read_half) => {
                    live.lock()
                        .expect("session registry lock")
                        .insert(session, read_half);
                }
                Err(e) => {
                    eprintln!("serve: session {session}: cannot clone socket: {e}");
                    continue;
                }
            }
            connections += 1;
            let config = SessionConfig {
                session,
                peer: Some(peer.to_string()),
                lifecycle: true,
            };
            let (live, jobs, job_errors, records) = (&live, &jobs, &job_errors, &records);
            scope.spawn(move || {
                let _permit = permit;
                // Reader and writer are the same socket, which is what lets
                // the drain wake the reader while the write half stays open.
                match run_session(shared, &config, BufReader::new(&stream), &mut &stream) {
                    Ok(summary) => {
                        jobs.fetch_add(summary.jobs, Ordering::Relaxed);
                        job_errors.fetch_add(summary.job_errors, Ordering::Relaxed);
                        records.fetch_add(summary.records, Ordering::Relaxed);
                        eprintln!(
                            "serve: session {}: {} job(s), {} error(s), {} record(s){}",
                            config.session,
                            summary.jobs,
                            summary.job_errors,
                            summary.records,
                            if summary.drained { ", drained" } else { "" },
                        );
                    }
                    // A client that vanished mid-session is routine in a
                    // network service: log it and keep serving everyone else.
                    Err(e) => eprintln!("serve: session {} failed: {e}", config.session),
                }
                live.lock()
                    .expect("session registry lock")
                    .remove(&config.session);
            });
        };
        // Drain, also after a failed accept: wake every session blocked on
        // its socket. The scope then joins every session.
        for read_half in live.lock().expect("session registry lock").values() {
            // A peer that already hung up makes this a no-op failure.
            let _ = read_half.shutdown(Shutdown::Read);
        }
        accepted
    });
    // Exactly-once final snapshot, after every session's jobs have finished
    // — including when the accept loop itself failed.
    let designs_saved = shared.final_save();
    accepted.map_err(|e| format!("serve listener failed: {e}"))?;
    Ok(ListenSummary {
        connections,
        rejected,
        jobs: jobs.into_inner(),
        job_errors: job_errors.into_inner(),
        records: records.into_inner(),
        designs_loaded: shared.designs_loaded(),
        designs_saved,
    })
}

/// Take one pending connection off `listener`, or `None` when nothing is
/// waiting. The socket comes back in blocking mode, because some platforms
/// let it inherit the non-blocking listener's flag and sessions expect
/// blocking I/O. Nagle is off, so a record's small trailing segment leaves
/// when written instead of waiting for the peer's delayed ACK.
fn accept(listener: &TcpListener) -> io::Result<Option<(TcpStream, SocketAddr)>> {
    match listener.accept() {
        Ok((stream, peer)) => {
            stream.set_nonblocking(false)?;
            stream.set_nodelay(true)?;
            Ok(Some((stream, peer)))
        }
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        // A peer that connected and vanished before the accept is its
        // problem, not the server's.
        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_turn_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client =
            TcpStream::connect(listener.local_addr().expect("bound address")).expect("connect");
        // A blocking listener with the connection already queued returns it
        // at once.
        let (stream, _) = accept(&listener)
            .expect("accept")
            .expect("a queued connection");
        assert!(
            stream.nodelay().expect("read TCP_NODELAY"),
            "accepted socket keeps Nagle on"
        );
    }
}
