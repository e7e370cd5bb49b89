//! Integration tests for `qre serve --listen` — the multi-client TCP
//! service — driven in-process through `qre_cli::listen_serve` with real
//! loopback sockets.

mod common;

use common::{get_u64, stats_of, sweep_line, Client, NetServer};
use qre_cli::{serve, ServeOptions};
use qre_json::Value;

fn net_options() -> ServeOptions {
    ServeOptions {
        max_in_flight: 2,
        global_jobs: Some(8),
        ..ServeOptions::default()
    }
}

#[test]
fn four_concurrent_clients_share_one_warm_store() {
    let server = NetServer::start(&net_options(), 32);
    let mut clients: Vec<Client> = (0..4).map(|_| Client::connect(server.addr)).collect();

    // Every connection opens with a hello naming a distinct session over
    // the same (still cold) store.
    let mut sessions: Vec<u64> = Vec::new();
    for client in &mut clients {
        let (session, designs) = client.expect_hello();
        assert_eq!(designs, 0, "fresh service starts cold");
        sessions.push(session);
    }
    sessions.sort_unstable();
    assert_eq!(sessions, vec![1, 2, 3, 4]);

    // Client 0 pays the design searches...
    clients[0].send(&sweep_line("warmup"));
    let records = clients[0].read_job("warmup");
    let stats = stats_of(&records, "warmup");
    assert_eq!(get_u64(stats, "stats.items"), 6);
    assert_eq!(get_u64(stats, "stats.cacheMisses"), 6);

    // ...and the other three run the same sweep concurrently as pure cache
    // hits: one client's searches warm every other client's jobs.
    for (i, client) in clients.iter_mut().enumerate().skip(1) {
        client.send(&sweep_line(&format!("repeat-{i}")));
    }
    for (i, client) in clients.iter_mut().enumerate().skip(1) {
        let id = format!("repeat-{i}");
        let records = client.read_job(&id);
        let stats = stats_of(&records, &id);
        assert_eq!(get_u64(stats, "stats.items"), 6, "job {id}");
        assert_eq!(
            get_u64(stats, "stats.cacheMisses"),
            0,
            "job {id} must be served entirely from the shared warm store"
        );
        assert!(get_u64(stats, "stats.cacheHits") >= 6, "job {id}");
    }

    // A late joiner's hello reports the warm store.
    let mut fifth = Client::connect(server.addr);
    let (_, designs) = fifth.expect_hello();
    assert_eq!(designs, 6);

    // Any client may drain the whole service with a control line; everyone
    // gets a bye carrying their own session's tally, then EOF.
    clients[3].send(r#"{"id": "drain", "control": "shutdown"}"#);
    let ack = clients[3].expect_record();
    assert_eq!(ack.get("job").unwrap().as_str(), Some("drain"));
    assert_eq!(ack.get("status").unwrap().as_str(), Some("ok"));

    let expected_jobs: [u64; 4] = [1, 1, 1, 2]; // client 3's control line counts
    for (i, client) in clients.iter_mut().enumerate() {
        let rest = client.read_to_eof();
        let bye = rest
            .last()
            .unwrap_or_else(|| panic!("client {i} got a bye"));
        assert_eq!(get_u64(bye, "bye.jobs"), expected_jobs[i], "client {i}");
        assert_eq!(get_u64(bye, "bye.jobErrors"), 0, "client {i}");
        assert_eq!(
            bye.get_path("bye.drained").unwrap().as_bool(),
            Some(true),
            "client {i}"
        );
    }
    // Client 0's session: hello + 6 items + stats queued before the bye.
    // (Re-reading from the captured records: bye.records counts them.)
    drop(fifth);

    let summary = server.join();
    assert_eq!(summary.connections, 5);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.jobs, 5, "four sweeps plus one control line");
    assert_eq!(summary.job_errors, 0);
}

#[test]
fn per_session_byes_count_their_own_records() {
    let server = NetServer::start(&net_options(), 32);
    let mut client = Client::connect(server.addr);
    client.expect_hello();
    client.send(&sweep_line("only"));
    client.read_job("only");
    client.send(r#"{"control": "shutdown"}"#);
    let mut rest = client.read_to_eof();
    let bye = rest.pop().unwrap();
    // hello + 6 items + stats + control ack = 9 records before the bye.
    assert_eq!(get_u64(&bye, "bye.records"), 9);
    assert_eq!(get_u64(&bye, "bye.jobs"), 2);
    let summary = server.join();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.records, 10, "bye itself included");
}

#[test]
fn surplus_connections_get_a_busy_bye_and_close() {
    let server = NetServer::start(&net_options(), 1);
    let mut admitted = Client::connect(server.addr);
    admitted.expect_hello();

    // With the one slot held by a live session, the next connection is
    // told off in protocol terms and closed.
    let mut bounced = Client::connect(server.addr);
    let record = bounced.expect_record();
    assert_eq!(
        record.get_path("bye.busy").unwrap().as_bool(),
        Some(true),
        "{}",
        record.to_string_compact()
    );
    assert!(
        bounced.read_record().is_none(),
        "rejection closes the socket"
    );

    // The admitted session is unaffected.
    admitted.send(&sweep_line("still-served"));
    let records = admitted.read_job("still-served");
    assert_eq!(
        get_u64(stats_of(&records, "still-served"), "stats.items"),
        6
    );

    admitted.send(r#"{"control": "shutdown"}"#);
    admitted.read_to_eof();
    let summary = server.join();
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn a_finished_session_frees_its_connection_slot() {
    let server = NetServer::start(&net_options(), 1);
    let mut first = Client::connect(server.addr);
    first.expect_hello();
    drop(first);

    // The slot frees once the first session has noticed the hang-up and
    // ended, which the accept loop learns asynchronously: until then each
    // new client gets a busy bye.
    let mut busy = 0;
    let mut second = loop {
        let mut client = Client::connect(server.addr);
        let record = client.expect_record();
        if record.get("hello").is_some() {
            break client;
        }
        assert_eq!(
            record.get_path("bye.busy").and_then(Value::as_bool),
            Some(true),
            "{}",
            record.to_string_compact()
        );
        busy += 1;
        assert!(busy < 1000, "the first session never freed its slot");
    };

    second.send(r#"{"control": "shutdown"}"#);
    second.read_to_eof();
    let summary = server.join();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.rejected, busy);
}

#[test]
fn drain_mid_sweep_loses_no_in_flight_records() {
    let server = NetServer::start(&net_options(), 32);

    // A 24-item sweep on one connection...
    let big_sweep = r#"{ "id": "big", "sweep": {
        "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
        "errorBudgets": [ 1e-4, 2e-4, 1e-3, 2e-3 ] } }"#
        .replace('\n', " ");
    let mut worker = Client::connect(server.addr);
    worker.expect_hello();
    worker.send(&big_sweep);
    // Wait for the first item record — proof the job is admitted and in
    // flight, so the drain below genuinely interrupts a running sweep.
    let first = worker.expect_record();
    assert!(
        first.get("index").is_some(),
        "{}",
        first.to_string_compact()
    );

    // ...drained from a *different* connection mid-sweep.
    let mut operator = Client::connect(server.addr);
    operator.expect_hello();
    operator.send(r#"{"id": "stop", "control": "shutdown"}"#);
    let ack = operator.expect_record();
    assert_eq!(ack.get("status").unwrap().as_str(), Some("ok"));
    let operator_rest = operator.read_to_eof();
    assert_eq!(
        operator_rest
            .last()
            .unwrap()
            .get_path("bye.drained")
            .unwrap()
            .as_bool(),
        Some(true)
    );

    // The drain must not cost the worker a single record: all 24 items,
    // the stats record, and a drained bye still arrive.
    let mut records = worker.read_to_eof();
    records.insert(0, first);
    let items = records.iter().filter(|r| r.get("index").is_some()).count();
    assert_eq!(items, 24, "every in-flight sweep item was delivered");
    let stats = stats_of(&records, "big");
    assert_eq!(get_u64(stats, "stats.items"), 24);
    assert_eq!(get_u64(stats, "stats.errors"), 0);
    let bye = records.last().unwrap();
    assert_eq!(bye.get_path("bye.drained").unwrap().as_bool(), Some(true));

    let summary = server.join();
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.job_errors, 0);
}

#[test]
fn malformed_lines_over_the_socket_error_without_killing_the_session() {
    let server = NetServer::start(&net_options(), 32);
    let mut client = Client::connect(server.addr);
    client.expect_hello();

    client.send("this is not json");
    let error = client.expect_record();
    assert_eq!(error.get("status").unwrap().as_str(), Some("error"));

    client.send(r#"{"control": "reboot"}"#);
    let error = client.expect_record();
    assert_eq!(error.get("status").unwrap().as_str(), Some("error"));
    assert!(error
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("unknown control"));

    // The session survived both.
    client.send(&sweep_line("after"));
    client.read_job("after");
    client.send(r#"{"control": "shutdown"}"#);
    let rest = client.read_to_eof();
    assert_eq!(get_u64(rest.last().unwrap(), "bye.jobErrors"), 2);

    let summary = server.join();
    assert_eq!(summary.job_errors, 2);
}

/// The socket transport must not change a job's records: the same line
/// produces byte-identical output over a pipe session and a network
/// session (minus the network session's lifecycle framing).
#[test]
fn socket_job_records_are_byte_compatible_with_pipe_mode() {
    let line = sweep_line("compat");

    // Pipe reference, sequential so completion order is also fixed.
    let mut bytes: Vec<u8> = Vec::new();
    let pipe_options = ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    };
    serve(format!("{line}\n").as_bytes(), &mut bytes, &pipe_options).unwrap();
    let mut pipe_records: Vec<String> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    pipe_records.sort();

    // Fresh (cold) network service, same line over a socket; capture the
    // whole session.
    let server = NetServer::start(
        &ServeOptions {
            max_in_flight: 1,
            ..ServeOptions::default()
        },
        32,
    );
    let mut client = Client::connect(server.addr);
    client.send(&line);
    client.send(r#"{"control": "shutdown"}"#);
    let all = client.read_to_eof();
    server.join();
    let mut socket_records: Vec<String> = all
        .iter()
        .filter(|r| {
            r.get("hello").is_none() && r.get("bye").is_none() && r.get("control").is_none()
        })
        .map(Value::to_string_compact)
        .collect();
    socket_records.sort();

    assert_eq!(
        socket_records, pipe_records,
        "transport must not leak into job records"
    );
}

/// Shard a sweep across two *connections* of one server, capture each
/// session's raw NDJSON (lifecycle records and all), and `qre merge` the
/// two captures: the result must be record-for-record the unsharded sweep.
#[test]
fn sharded_sweep_over_two_connections_merges_to_the_unsharded_sweep() {
    let sweep_body = r#""sweep": {
        "algorithms": [ { "logicalCounts": { "numQubits": 10, "tCount": 100 } } ],
        "errorBudgets": [ 1e-4, 1e-3 ] }"#
        .replace('\n', " ");

    // Unsharded pipe reference, in global index order.
    let mut bytes: Vec<u8> = Vec::new();
    serve(
        format!("{{ \"id\": \"s\", {sweep_body} }}\n").as_bytes(),
        &mut bytes,
        &ServeOptions {
            max_in_flight: 1,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut want: Vec<(u64, String)> = std::str::from_utf8(&bytes)
        .unwrap()
        .lines()
        .map(|l| qre_json::parse(l).unwrap())
        .filter(|r| r.get("index").is_some())
        .map(|r| (get_u64(&r, "index"), r.to_string_compact()))
        .collect();
    want.sort();
    assert_eq!(want.len(), 12);
    let want: Vec<String> = want.into_iter().map(|(_, line)| line).collect();

    // Two connections, one shard each, over one (cold) server. Each shard
    // job is read to completion *before* the drain — a drain stops sessions
    // from taking new lines, so lines still unread in a socket buffer at
    // drain time are legitimately (and visibly, via `bye.jobs`) not run.
    let server = NetServer::start(&net_options(), 32);
    let mut shard_files: Vec<String> = Vec::new();
    let mut clients: Vec<Client> = (0..2).map(|_| Client::connect(server.addr)).collect();
    for (index, client) in clients.iter_mut().enumerate() {
        client.send(&format!(
            "{{ \"id\": \"s\", \"shard\": {{\"index\": {index}, \"count\": 2}}, {sweep_body} }}"
        ));
    }
    let mut captures: Vec<Vec<Value>> = clients.iter_mut().map(|c| c.read_job("s")).collect();
    clients[0].send(r#"{"control": "shutdown"}"#);
    for (client, capture) in clients.iter_mut().zip(&mut captures) {
        capture.extend(client.read_to_eof());
    }
    for (index, records) in captures.iter().enumerate() {
        let path = std::env::temp_dir().join(format!(
            "qre-listen-shard-{}-{:?}-{index}.ndjson",
            std::process::id(),
            std::thread::current().id()
        ));
        let text: String = records
            .iter()
            .map(|r| r.to_string_compact() + "\n")
            .collect();
        std::fs::write(&path, text).unwrap();
        shard_files.push(path.to_string_lossy().into_owned());
    }
    server.join();

    // Merge the raw session captures — hello/bye/control records are
    // bookkeeping to the merge.
    let mut merged = Vec::new();
    let summary = qre_cli::merge_files(&shard_files, &mut merged).unwrap();
    assert_eq!(summary.items, 12);
    let got: Vec<String> = std::str::from_utf8(&merged)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(got, want, "merged shards ≡ unsharded sweep, byte for byte");

    for path in shard_files {
        std::fs::remove_file(path).unwrap();
    }
}
