//! TCP front-end for the qre job server.
//!
//! This crate is the generic network layer behind `qre serve --listen`: it
//! owns the listener, the accept gate, the per-connection threads, and the
//! graceful-drain choreography — and knows nothing about jobs, NDJSON, or
//! estimation. The protocol lives entirely in the [`ConnectionHandler`] the
//! embedder supplies (the `qre-cli` crate's handler runs its serve session
//! engine over each socket), which keeps the dependency direction clean:
//! `qre-cli → qre-net → qre-par`, with the session engine never forking
//! between the pipe and socket transports.
//!
//! Built on `std::net` alone — the same no-new-dependencies rule as the
//! rest of the workspace — with blocking I/O and one thread per connection.
//! That is the right shape here: connections are few and long-lived (each
//! multiplexes many jobs over one socket), and the job bound — not the
//! connection count — is what actually caps the process's concurrency.
//!
//! ## Lifecycle
//!
//! [`Server::bind`] binds (port 0 picks a free port; [`Server::local_addr`]
//! reports the choice), then [`Server::run`] accepts until the provided
//! [`qre_par::ShutdownSignal`] is raised:
//!
//! 1. each accepted connection takes a permit from the `max_connections`
//!    gate; with none free the handler's [`ConnectionHandler::reject`] is
//!    called (to say "busy" in protocol terms) and the socket is closed,
//! 2. admitted connections run [`ConnectionHandler::serve`] on their own
//!    thread, registered so the drain can find their socket,
//! 3. when the signal is raised — by a handler (a protocol-level shutdown
//!    command), by the embedder, or by an operator — the listener stops
//!    accepting, every registered connection's **read half** is shut down
//!    (blocked readers see EOF; handlers finish their in-flight work and
//!    write their partings over the still-open write half), and `run`
//!    joins every connection thread before returning its [`ServerSummary`].
//!
//! The accept loop polls a non-blocking listener and parks in
//! [`qre_par::ShutdownSignal::wait_timeout`] between polls, so a drain
//! wakes it within one poll interval without platform signal machinery.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// How long the accept loop parks between polls of the non-blocking
/// listener. Bounds both the latency of noticing a drain and the latency of
/// accepting a connection that arrived mid-park.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// One accepted (or rejected) connection, as handed to a
/// [`ConnectionHandler`].
#[derive(Debug)]
pub struct Connection {
    /// 1-based accept ordinal — the session id in protocol terms. Rejected
    /// connections consume ordinals too, so ids in server logs are unique
    /// across both.
    pub id: u64,
    /// The peer address, when the OS could report it.
    pub peer: Option<SocketAddr>,
    /// The connected socket (blocking mode, `TCP_NODELAY` set). The handler
    /// owns it; dropping it closes the connection.
    pub stream: TcpStream,
}

/// The protocol layer a [`Server`] serves. Implementations are shared
/// across connection threads (`Sync`) and must not panic — a panicking
/// handler poisons no server state but aborts its own connection's thread,
/// taking the whole process down under the default panic handler.
pub trait ConnectionHandler: Sync {
    /// Run one admitted connection to completion. Called on a dedicated
    /// thread; returning ends the connection (the stream closes on drop).
    /// During a drain the connection's read half is shut down under the
    /// handler — reads start returning EOF — and the handler is expected to
    /// finish its in-flight work and return.
    fn serve(&self, conn: Connection);

    /// Tell a connection bounced by the `max_connections` gate that the
    /// server is busy, in protocol terms, before the socket closes. Called
    /// on the accept thread — keep it brief. The default just drops the
    /// connection.
    fn reject(&self, conn: Connection) {
        drop(conn);
    }
}

/// Accept-side limits.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Connections served concurrently; arrivals beyond this are rejected
    /// (not queued — the client gets an immediate busy answer instead of an
    /// unbounded accept backlog). At least 1.
    pub max_connections: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        // Enough for a small fleet of sweep clients; the global job gate
        // below this layer is what actually bounds compute.
        ServerOptions {
            max_connections: 32,
        }
    }
}

/// What a server run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections admitted and served to completion.
    pub connections: u64,
    /// Connections bounced by the `max_connections` gate.
    pub rejected: u64,
}

/// A bound TCP listener plus the accept-side state of one server run.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    options: ServerOptions,
    /// Read-half handles of live connections, keyed by connection id, so
    /// the drain can wake readers blocked in `recv`.
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an OS-assigned port). The
    /// listener is non-blocking — [`Server::run`] polls it — but accepted
    /// connections are switched back to blocking mode, with `TCP_NODELAY`
    /// set, before the handler sees them.
    pub fn bind<A: ToSocketAddrs>(addr: A, options: ServerOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            options: ServerOptions {
                max_connections: options.max_connections.max(1),
            },
            live: Mutex::new(HashMap::new()),
        })
    }

    /// The bound address — the way to learn the real port after binding
    /// port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accept and serve connections until `shutdown` is raised, then drain:
    /// stop accepting, shut down every live connection's read half, join
    /// every connection thread, and return the tally. Handlers see the
    /// drain as EOF on their reads and get to finish in-flight work and
    /// flush their write halves before the sockets close.
    pub fn run<H: ConnectionHandler>(
        &self,
        handler: &H,
        shutdown: &qre_par::ShutdownSignal,
    ) -> io::Result<ServerSummary> {
        let gate = qre_par::Semaphore::new(self.options.max_connections);
        let mut connections = 0u64;
        let mut rejected = 0u64;
        let mut next_id = 0u64;
        std::thread::scope(|scope| -> io::Result<()> {
            while !shutdown.is_signalled() {
                let (stream, peer) = match self.listener.accept() {
                    Ok((stream, peer)) => (stream, peer),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        shutdown.wait_timeout(ACCEPT_POLL);
                        continue;
                    }
                    // A peer that connected and vanished before the accept
                    // is its problem, not the server's.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                    Err(e) => return Err(e),
                };
                // The listener's non-blocking flag can be inherited by the
                // accepted socket on some platforms; handlers expect
                // blocking I/O. Nagle off: a handler's small trailing
                // segment must leave when written, not wait for the peer's
                // delayed ACK.
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                next_id += 1;
                let conn = Connection {
                    id: next_id,
                    peer: Some(peer),
                    stream,
                };
                let Some(permit) = gate.try_acquire() else {
                    rejected += 1;
                    handler.reject(conn);
                    continue;
                };
                connections += 1;
                // Register the read half before the handler starts, so a
                // drain arriving in the gap still reaches this connection.
                if let Ok(clone) = conn.stream.try_clone() {
                    self.live
                        .lock()
                        .expect("connection registry lock")
                        .insert(conn.id, clone);
                }
                scope.spawn(move || {
                    let _permit = permit;
                    let id = conn.id;
                    handler.serve(conn);
                    self.live
                        .lock()
                        .expect("connection registry lock")
                        .remove(&id);
                });
            }
            // Drain: wake every reader blocked on its socket. In-flight
            // work finishes and write halves stay open for partings; the
            // scope join below waits for all of it.
            for stream in self.live.lock().expect("connection registry lock").values() {
                // A peer that already hung up makes this a no-op failure.
                let _ = stream.shutdown(Shutdown::Read);
            }
            Ok(())
        })?;
        Ok(ServerSummary {
            connections,
            rejected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Upper-cases each input line; says `busy` when rejected. Enough
    /// protocol to observe admission, concurrency, and drain.
    struct Upper {
        served: AtomicU64,
    }

    impl ConnectionHandler for Upper {
        fn serve(&self, conn: Connection) {
            self.served.fetch_add(1, Ordering::Relaxed);
            let reader = BufReader::new(conn.stream.try_clone().expect("clone"));
            let mut writer = conn.stream;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if writeln!(writer, "{}", line.to_uppercase()).is_err() {
                    break;
                }
            }
            let _ = writeln!(writer, "goodbye {}", conn.id);
        }

        fn reject(&self, mut conn: Connection) {
            let _ = writeln!(conn.stream, "busy");
        }
    }

    fn start(
        options: ServerOptions,
    ) -> (
        SocketAddr,
        Arc<qre_par::ShutdownSignal>,
        std::thread::JoinHandle<(ServerSummary, u64)>,
    ) {
        let server = Server::bind("127.0.0.1:0", options).expect("bind");
        let addr = server.local_addr();
        let shutdown = Arc::new(qre_par::ShutdownSignal::new());
        let handle = std::thread::spawn({
            let shutdown = Arc::clone(&shutdown);
            move || {
                let handler = Upper {
                    served: AtomicU64::new(0),
                };
                let summary = server.run(&handler, &shutdown).expect("server run");
                (summary, handler.served.load(Ordering::Relaxed))
            }
        });
        (addr, shutdown, handle)
    }

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read line");
        line.trim_end().to_string()
    }

    #[test]
    fn serves_concurrent_connections_and_drains_cleanly() {
        let (addr, shutdown, handle) = start(ServerOptions::default());

        let mut clients: Vec<_> = (0..4).map(|_| connect(addr)).collect();
        // Interleave round-trips across all four live connections.
        for round in 0..3 {
            for (i, (reader, writer)) in clients.iter_mut().enumerate() {
                writeln!(writer, "ping {i} {round}").expect("write");
                assert_eq!(read_line(reader), format!("PING {i} {round}"));
            }
        }

        // Drain with all four still connected: each blocked reader must be
        // woken and each handler must still deliver its parting line.
        shutdown.signal();
        for (reader, _writer) in &mut clients {
            let line = read_line(reader);
            assert!(
                line.starts_with("goodbye "),
                "expected parting, got {line:?}"
            );
            // And then true EOF.
            let mut end = String::new();
            assert_eq!(reader.read_line(&mut end).expect("eof"), 0);
        }

        let (summary, served) = handle.join().expect("join server");
        assert_eq!(
            summary,
            ServerSummary {
                connections: 4,
                rejected: 0
            }
        );
        assert_eq!(served, 4);
    }

    #[test]
    fn accepted_sockets_turn_nagle_off() {
        /// Answers with what the accepted socket reports for `TCP_NODELAY`.
        struct NoDelay;
        impl ConnectionHandler for NoDelay {
            fn serve(&self, conn: Connection) {
                let _ = writeln!(&conn.stream, "{:?}", conn.stream.nodelay());
            }
        }

        let server = Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind");
        let addr = server.local_addr();
        let shutdown = qre_par::ShutdownSignal::new();
        std::thread::scope(|scope| {
            let run = scope.spawn(|| server.run(&NoDelay, &shutdown));
            let (mut reader, _writer) = connect(addr);
            let answer = read_line(&mut reader);
            // Drain before asserting, so a failure ends the test instead of
            // leaving the server running inside the scope.
            shutdown.signal();
            let summary = run.join().expect("server thread").expect("server run");
            assert_eq!(answer, "Ok(true)", "accepted socket keeps Nagle on");
            assert_eq!(summary.connections, 1);
        });
    }

    #[test]
    fn accept_gate_rejects_surplus_connections() {
        let (addr, shutdown, handle) = start(ServerOptions { max_connections: 1 });

        let (mut first_reader, mut first_writer) = connect(addr);
        writeln!(first_writer, "hold").expect("write");
        assert_eq!(read_line(&mut first_reader), "HOLD");

        // The permit is held by the live first connection: the second must
        // be told off and closed.
        let (mut second_reader, _second_writer) = connect(addr);
        assert_eq!(read_line(&mut second_reader), "busy");
        let mut end = String::new();
        assert_eq!(second_reader.read_line(&mut end).expect("eof"), 0);

        // Closing the first frees the permit for a third — once its handler
        // returns, which the accept thread learns asynchronously, so probe
        // with real round-trips until one is admitted.
        drop(first_writer);
        drop(first_reader);
        let mut attempt = 0;
        loop {
            let stream = TcpStream::connect(addr).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            let answered = writeln!(writer, "again").is_ok() && reader.read_line(&mut line).is_ok();
            if answered && line.trim_end() == "AGAIN" {
                break;
            }
            // `busy`, a raced close, or a write into a closing socket: the
            // permit has not freed yet (or this probe lost another race).
            attempt += 1;
            assert!(attempt < 200, "permit never freed, last answer {line:?}");
            std::thread::sleep(Duration::from_millis(10));
        }

        shutdown.signal();
        let (summary, _) = handle.join().expect("join server");
        assert!(summary.rejected >= 1);
        assert!(summary.connections >= 2);
    }
}
