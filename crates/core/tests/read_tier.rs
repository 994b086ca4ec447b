//! Tests for the read/write tier split.
//!
//! The server loop runs a pass's reads on its own thread, one after
//! another, but other threads (the DCM, the registration server) hold
//! shared guards on the same state at the same time. So the engine's
//! contract is still checked under concurrency: retrieves run under shared
//! guards on several threads at once return exactly what the same
//! retrieves return run serially — byte for byte. The loop's contract: a
//! slow scan on one connection does not delay a point lookup on another
//! beyond the poll pass they share, no read pass spawns a thread, and the
//! readiness-to-dispatch wait is stamped per request.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use moira_common::errors::MrResult;
use moira_core::queries::testutil::{add_test_machine, add_test_user, state_with_admin};
use moira_core::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use moira_core::seed::seed_capacls;
use moira_core::server::MoiraServer;
use moira_core::state::{shared, Caller, MoiraState, SharedState};
use moira_protocol::transport::{pair, recv_blocking, Channel, InProcChannel};
use moira_protocol::wire::{MajorRequest, Reply, Request};
use proptest::prelude::*;

/// A seeded state with enough rows for wildcard scans to do real work.
fn populated() -> (SharedState, Arc<Registry>) {
    let (mut s, _) = state_with_admin("ops");
    for i in 0..40 {
        add_test_machine(&mut s, &format!("VS{i:03}"));
        add_test_user(&mut s, &format!("reader{i:02}"), 2000 + i);
    }
    (shared(s), Arc::new(Registry::standard()))
}

/// The pool of retrieve-class requests the property test draws from.
/// Each is (query, args) — all registered as `Handler::Read`.
const READS: &[(&str, &[&str])] = &[
    ("get_machine", &["*"]),
    ("get_machine", &["VS0*"]),
    ("get_machine", &["VS01?"]),
    ("get_user_by_login", &["reader*"]),
    ("get_user_by_login", &["reader07"]),
    ("get_all_logins", &["*"]),
    ("get_list_info", &["*"]),
    ("get_server_info", &["*"]),
    ("_list_queries", &[]),
];

/// Runs one request against a shared guard, capturing the full result
/// (rows or error code) as comparable bytes.
fn run_read(registry: &Registry, state: &MoiraState, caller: &Caller, idx: usize) -> String {
    let (name, args) = READS[idx];
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    match registry.execute_read(state, caller, name, &args) {
        Ok(rows) => format!("ok:{rows:?}"),
        Err(e) => format!("err:{}", e.code()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Any interleaving of concurrent reads is byte-identical to serial
    /// execution: the workload is split across threads that all hold
    /// shared guards at once, and every per-request result must match the
    /// single-threaded reference run against the same seed state.
    #[test]
    fn concurrent_reads_equal_serial(
        picks in prop::collection::vec(0usize..9, 1..24),
        threads in 2usize..5,
    ) {
        let (state, registry) = populated();
        let caller = Caller::root("prop");

        // Reference: serial execution under one shared guard.
        let serial: Vec<String> = {
            let guard = state.read();
            picks
                .iter()
                .map(|&i| run_read(&registry, &guard, &caller, i))
                .collect()
        };

        // Concurrent: the same requests round-robined over worker threads,
        // each thread holding its own shared guard for its whole slice.
        let mut concurrent: Vec<(usize, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let state = state.clone();
                    let registry = registry.clone();
                    let caller = caller.clone();
                    let slice: Vec<(usize, usize)> = picks
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(threads)
                        .map(|(slot, &q)| (slot, q))
                        .collect();
                    scope.spawn(move || {
                        let guard = state.read();
                        slice
                            .into_iter()
                            .map(|(slot, q)| (slot, run_read(&registry, &guard, &caller, q)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reader thread"))
                .collect()
        });
        concurrent.sort_by_key(|(slot, _)| *slot);

        prop_assert_eq!(concurrent.len(), serial.len());
        for (slot, result) in concurrent {
            prop_assert_eq!(&result, &serial[slot], "request {} diverged", slot);
        }
    }
}

/// The obs counters are exact: with retrieves dispatched on the shared
/// tier, interleaved with write batches and an overload burst that sheds,
/// `server.reads_dispatched`, `server.writes_dispatched`, and
/// `server.shed_requests` in the registry equal the server's own ledgers
/// to the unit — no lost updates.
#[test]
fn obs_counters_exact_across_both_tiers() {
    let registry = Arc::new(Registry::standard());
    let (mut s, _) = state_with_admin("ops");
    seed_capacls(&mut s, &registry);
    for i in 0..20 {
        add_test_machine(&mut s, &format!("VS{i:03}"));
    }
    let state = shared(s);
    let mut server = MoiraServer::new(state, registry, None);

    let mut clients = Vec::new();
    for _ in 0..6 {
        let (client, end) = pair();
        server.attach(Box::new(end), "local", 0);
        clients.push(client);
    }
    for c in &mut clients {
        c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in &mut clients {
        let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
        assert_eq!(r.code, 0);
    }

    // Interleaved rounds: even clients scan on the shared tier while odd
    // clients append machines on the serial tier, all within one pass.
    for round in 0..5 {
        for (i, c) in clients.iter_mut().enumerate() {
            let req = if i % 2 == 0 {
                Request::new(MajorRequest::Query, &["get_machine", "VS*"])
            } else {
                let name = format!("NEW{round}X{i}");
                Request::new(MajorRequest::Query, &["add_machine", &name, "VAX"])
            };
            c.send(req.encode()).unwrap();
        }
        server.run_until_idle(2);
        for c in &mut clients {
            loop {
                let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
                if !r.is_more_data() {
                    break;
                }
            }
        }
    }

    // Overload burst: with a limit of 2, a 6-request pass sheds 4.
    server.set_overload_limit(Some(2));
    for c in &mut clients {
        c.send(Request::new(MajorRequest::Query, &["get_machine", "VS001"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in &mut clients {
        loop {
            let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            if !r.is_more_data() {
                break;
            }
        }
    }

    let (reads, writes) = server.dispatch_counts();
    let sheds = server.shed_requests();
    assert!(reads > 0 && writes > 0, "both tiers exercised");
    assert!(sheds > 0, "the overload burst shed something");

    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("server.reads_dispatched"), reads);
    assert_eq!(snap.counter("server.writes_dispatched"), writes);
    assert_eq!(snap.counter("server.shed_requests"), sheds);
    // The latency histograms saw every dispatched request too.
    assert_eq!(
        snap.histogram("server.latency.read").map_or(0, |h| h.count),
        reads
    );
    assert_eq!(
        snap.histogram("server.latency.write")
            .map_or(0, |h| h.count),
        writes
    );
    // One readiness stamp per executed request, on either tier.
    assert_eq!(
        snap.histogram("server.latency.readiness_to_dispatch")
            .map_or(0, |h| h.count),
        reads + writes
    );
}

/// A server over 300 `FARM` machines and the user `pointy`, with two
/// authenticated connections: (server, scanner, pointer).
fn farm_server() -> (MoiraServer, InProcChannel, InProcChannel) {
    let registry = Arc::new(Registry::standard());
    let (mut s, _) = state_with_admin("ops");
    seed_capacls(&mut s, &registry);
    for i in 0..300 {
        add_test_machine(&mut s, &format!("FARM{i:04}"));
    }
    add_test_user(&mut s, "pointy", 9001);
    let mut server = MoiraServer::new(shared(s), registry, None);

    let (mut scanner, scan_end) = pair();
    let (mut pointer, point_end) = pair();
    server.attach(Box::new(scan_end), "local", 0);
    server.attach(Box::new(point_end), "local", 0);

    // Authenticate both (separate pass; Auth is write-tier).
    for c in [&mut scanner, &mut pointer] {
        c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in [&mut scanner, &mut pointer] {
        let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
        assert_eq!(r.code, 0);
    }
    (server, scanner, pointer)
}

/// Sends a 300-row Like scan, then a point lookup from the second
/// connection, so both land before the next pass; returns how many
/// requests that pass received.
fn scan_then_point(
    server: &mut MoiraServer,
    scanner: &mut InProcChannel,
    pointer: &mut InProcChannel,
) -> usize {
    scanner
        .send(Request::new(MajorRequest::Query, &["get_machine", "FARM*"]).encode())
        .unwrap();
    pointer
        .send(Request::new(MajorRequest::Query, &["get_user_by_login", "pointy"]).encode())
        .unwrap();
    server.poll_once()
}

/// A long wildcard scan on one connection must not delay a point lookup on
/// another beyond the poll pass they share: both replies are ready after a
/// single `poll_once`, and both ran on the shared tier.
#[test]
fn slow_scan_does_not_delay_point_query() {
    let (mut server, mut scanner, mut pointer) = farm_server();
    let read_samples = |server: &MoiraServer| {
        let snap = server.obs().snapshot();
        snap.histogram("server.latency.read").map_or(0, |h| h.count)
    };
    let reads_before = read_samples(&server);
    let (_, writes_before) = server.dispatch_counts();

    let processed = scan_then_point(&mut server, &mut scanner, &mut pointer);
    assert_eq!(processed, 2);

    // The point query's reply is available NOW — one pass, no waiting for
    // the scan to finish on some serial queue.
    let tuple = Reply::decode(recv_blocking(&mut pointer, 100).unwrap()).unwrap();
    assert!(tuple.is_more_data());
    assert_eq!(tuple.string_fields().unwrap()[0], "pointy");
    let done = Reply::decode(recv_blocking(&mut pointer, 100).unwrap()).unwrap();
    assert_eq!(done.code, 0);

    // The scan also completed in the same pass, with all 300 tuples. The
    // ones past the socket buffer wait in the server's outbox; the passes
    // below only flush them (the dispatch counters do not move).
    let mut scan_replies = Vec::new();
    loop {
        server.poll_once();
        let r = Reply::decode(recv_blocking(&mut scanner, 100).unwrap()).unwrap();
        let done = !r.is_more_data();
        scan_replies.push(r);
        if done {
            break;
        }
    }
    assert_eq!(scan_replies.len(), 301);

    // Both dispatched on the shared tier: two timed read-tier executions,
    // nothing on the exclusive tier.
    assert_eq!(read_samples(&server) - reads_before, 2);
    assert_eq!(server.dispatch_counts().1, writes_before);
}

/// The readiness-to-dispatch wait is stamped when each request begins, not
/// once per batch: the point lookup began after the scan ahead of it in
/// the same pass ended, so the largest readiness stamp is at least the
/// longest read's service time.
#[test]
fn readiness_stamped_per_request() {
    let (mut server, mut scanner, mut pointer) = farm_server();
    assert_eq!(scan_then_point(&mut server, &mut scanner, &mut pointer), 2);
    let snap = server.obs().snapshot();
    let max = |name: &str| snap.histogram(name).map_or(0, |h| h.max);
    let (ready, read) = (
        max("server.latency.readiness_to_dispatch"),
        max("server.latency.read"),
    );
    assert!(
        ready >= read,
        "readiness max {ready} ns < read max {read} ns: the lookup's wait omits the scan"
    );
}

/// Thread ids the `whoami` retrieve ran on.
static RAN_ON: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());

fn whoami(_: &MoiraState, _: &Caller, _: &[String]) -> MrResult<Vec<Vec<String>>> {
    RAN_ON.lock().unwrap().push(std::thread::current().id());
    Ok(Vec::new())
}

/// A read pass spawns no thread: 32 retrieves from 4 connections, all
/// dispatched in one pass, every one on the thread that called `poll_once`.
#[test]
fn read_pass_spawns_no_thread() {
    let mut registry = Registry::standard();
    registry.register(QueryHandle {
        name: "whoami_thread",
        shortname: "whot",
        kind: QueryKind::Retrieve,
        access: AccessRule::Public,
        args: &[],
        returns: &[],
        handler: Handler::Read(whoami),
    });
    let (s, _) = state_with_admin("ops");
    let mut server = MoiraServer::new(shared(s), Arc::new(registry), None);
    let mut clients: Vec<InProcChannel> = (0..4)
        .map(|_| {
            let (client, end) = pair();
            server.attach(Box::new(end), "local", 0);
            client
        })
        .collect();
    for c in &mut clients {
        for _ in 0..8 {
            c.send(Request::new(MajorRequest::Query, &["whoami_thread"]).encode())
                .unwrap();
        }
    }
    assert_eq!(server.poll_once(), 32);
    assert_eq!(server.dispatch_counts(), (32, 0));
    let me = std::thread::current().id();
    let ran_on = RAN_ON.lock().unwrap();
    assert_eq!(ran_on.len(), 32);
    assert!(
        ran_on.iter().all(|&id| id == me),
        "a read ran off the loop's thread"
    );
}
