//! Network transport for the serve session engine: `qre serve --listen`.
//!
//! This module is the thin adapter between the generic TCP front-end
//! (`qre-net`, which owns listening, the accept gate, and the drain
//! choreography) and the serve session engine
//! ([`crate::run_session`], which owns the NDJSON job protocol). Each
//! admitted connection becomes one session with lifecycle records
//! ([`crate::SessionConfig::lifecycle`]) over the one process-wide
//! [`crate::ServeShared`] state — so every client's factory-design
//! searches warm every other client's jobs, and a `{"control":
//! "shutdown"}` line from any client drains the whole service.
//!
//! Connections bounced by the `--max-conns` accept gate receive a single
//! `{"bye": {"session": id, "busy": true}}` record before their socket
//! closes: in protocol terms, a session that ended before it began.

use std::io::BufReader;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

use qre_json::ObjectBuilder;
use qre_net::{Connection, ConnectionHandler, Server, ServerOptions};

use crate::{run_session, RecordWriter, ServeShared, SessionConfig};

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

/// The [`ConnectionHandler`] that runs a serve session per socket.
struct SessionHandler<'a> {
    shared: &'a ServeShared,
    jobs: AtomicUsize,
    job_errors: AtomicUsize,
    records: AtomicUsize,
}

impl ConnectionHandler for SessionHandler<'_> {
    fn serve(&self, conn: Connection) {
        let peer = conn.peer.map(|p| p.to_string());
        // Read half: a handle clone; the session engine's reader and writer
        // are the same underlying socket, which is what lets the drain wake
        // the reader (shutdown of the read half) while the write half stays
        // open for the session's remaining records.
        let reader = match conn.stream.try_clone() {
            Ok(stream) => BufReader::new(stream),
            Err(e) => {
                eprintln!("serve: session {}: cannot clone socket: {e}", conn.id);
                return;
            }
        };
        let mut writer = conn.stream;
        let config = SessionConfig {
            session: conn.id,
            peer,
            lifecycle: true,
        };
        match run_session(self.shared, &config, reader, &mut writer) {
            Ok(summary) => {
                self.jobs.fetch_add(summary.jobs, Ordering::Relaxed);
                self.job_errors
                    .fetch_add(summary.job_errors, Ordering::Relaxed);
                self.records.fetch_add(summary.records, Ordering::Relaxed);
                eprintln!(
                    "serve: session {}: {} job(s), {} error(s), {} record(s){}",
                    config.session,
                    summary.jobs,
                    summary.job_errors,
                    summary.records,
                    if summary.drained { ", drained" } else { "" },
                );
            }
            // A client that vanished mid-session is routine in a network
            // service: log it and keep serving everyone else.
            Err(e) => eprintln!("serve: session {} failed: {e}", config.session),
        }
    }

    fn reject(&self, conn: Connection) {
        let bye = ObjectBuilder::new()
            .field(
                "bye",
                ObjectBuilder::new()
                    .field("session", conn.id)
                    .field("busy", true)
                    .build(),
            )
            .build();
        // The peer may already be gone; rejection is best-effort by nature.
        if RecordWriter::new(&conn.stream).write(&bye) {
            self.records.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Serve the NDJSON job protocol over TCP until `shared`'s drain switch is
/// raised: bind `addr` (port 0 picks a free port), report the bound address
/// through `on_bound` (before any connection is accepted — this is how
/// scripts learn the real port), then accept up to `max_connections`
/// concurrent sessions over the shared state. On drain the snapshot is
/// saved exactly once ([`ServeShared::final_save`]) after every session has
/// finished, and the folded [`ListenSummary`] is returned.
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
    let server = Server::bind(addr, ServerOptions { max_connections })
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    on_bound(server.local_addr());
    let handler = SessionHandler {
        shared,
        jobs: AtomicUsize::new(0),
        job_errors: AtomicUsize::new(0),
        records: AtomicUsize::new(0),
    };
    let result = server.run(&handler, shared.shutdown_signal());
    // Exactly-once final snapshot, after every session's jobs have finished
    // — including when the accept loop itself failed.
    let designs_saved = shared.final_save();
    let summary = result.map_err(|e| format!("serve listener failed: {e}"))?;
    Ok(ListenSummary {
        connections: summary.connections,
        rejected: summary.rejected,
        jobs: handler.jobs.load(Ordering::Relaxed),
        job_errors: handler.job_errors.load(Ordering::Relaxed),
        records: handler.records.load(Ordering::Relaxed),
        designs_loaded: shared.designs_loaded(),
        designs_saved,
    })
}
