//! Adversarial connection-tier tests over real TCP: a slow-loris client
//! dribbling one byte per readiness event, a reader that never drains its
//! replies, mid-frame disconnects, hostile frame headers, and hundreds of
//! simultaneous connections followed by connect/disconnect churn.
//!
//! Every scenario must leave the server spotless: no lingering connection,
//! no registered client, and a connection gauge back at zero — a hostile
//! peer costs the server a bounded amount of memory and nothing after it
//! leaves.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use moira_core::schema::members;
use moira_core::server::{standard_server, MoiraServer};
use moira_core::state::{Caller, SharedState};
use moira_protocol::wire::{MajorRequest, Reply, Request};

const TICK: Duration = Duration::from_millis(1);

/// A raw TCP client speaking the length-prefixed frame protocol directly,
/// driven in lock-step with the server loop on the test thread.
struct RawClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawClient {
    fn connect(addr: &str) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nonblocking(true).expect("nonblocking");
        stream.set_nodelay(true).expect("nodelay");
        RawClient {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, req: &Request) {
        let payload = req.encode();
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        self.stream.write_all(&bytes).expect("request fits buffers");
    }

    /// Pulls whatever the socket has, then pops one complete frame.
    fn try_frame(&mut self) -> Option<Reply> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(_) => break,
            }
        }
        if self.buf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if self.buf.len() < 4 + len {
            return None;
        }
        let frame = bytes::Bytes::copy_from_slice(&self.buf[4..4 + len]);
        self.buf.drain(..4 + len);
        Some(Reply::decode(frame).expect("well-formed reply"))
    }

    /// Interleaves server passes with client reads until a frame arrives.
    fn pump_frame(&mut self, server: &mut MoiraServer) -> Reply {
        for _ in 0..10_000 {
            if let Some(reply) = self.try_frame() {
                return reply;
            }
            server.poll_with_timeout(Some(TICK));
        }
        panic!("no reply within the deadline");
    }
}

/// Shrinks the client's receive buffer so the kernel cannot absorb the
/// reply flood on its own — without this, loopback autotuning buffers
/// multiple megabytes and the server's outbox never backs up.
#[cfg(target_os = "linux")]
fn clamp_rcvbuf(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            val: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // Big enough to stream without zero-window stalls (loopback MSS is
    // 64 KiB), small enough that the reply flood still overruns it.
    let size: i32 = 128 * 1024;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &size as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(not(target_os = "linux"))]
fn clamp_rcvbuf(_stream: &TcpStream) {}

fn server_with_admin() -> (MoiraServer, SharedState, String) {
    let (mut server, state, registry) = standard_server(moira_common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
        let root = Caller::root("reactor-test");
        for i in 0..100 {
            registry
                .execute(
                    &mut s,
                    &root,
                    "add_machine",
                    &[format!("ADV{i}.MIT.EDU"), "VAX".into()],
                )
                .unwrap();
        }
    }
    let addr = server.listen_tcp("127.0.0.1:0").unwrap().to_string();
    (server, state, addr)
}

/// Polls until the server has torn the connection down, then asserts the
/// client registry holds nothing.
fn assert_spotless(server: &mut MoiraServer, state: &SharedState) {
    for _ in 0..10_000 {
        server.poll_with_timeout(Some(TICK));
        if server.connection_count() == 0 {
            break;
        }
    }
    assert_eq!(server.connection_count(), 0, "connection not reaped");
    let snap = server.obs().snapshot();
    assert_eq!(snap.gauge("server.connections.open"), 0);
    let s = state.read();
    assert!(s.clients.is_empty(), "client registry not cleaned");
}

#[test]
fn slow_loris_byte_dribble_is_assembled_and_answered() {
    let (mut server, state, addr) = server_with_admin();
    let mut client = RawClient::connect(&addr);

    let payload = Request::new(MajorRequest::Noop, &[]).encode();
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);

    // One byte per readiness event: each write wakes the reactor, the
    // server accumulates the partial frame and must neither answer early
    // nor give up on the connection.
    let (last, dribble) = bytes.split_last().unwrap();
    for b in dribble {
        client.stream.write_all(&[*b]).unwrap();
        server.poll_with_timeout(Some(TICK));
        server.poll_with_timeout(Some(TICK));
        assert_eq!(server.connection_count(), 1, "loris must not be dropped");
        assert!(
            client.try_frame().is_none(),
            "no reply before the frame completes"
        );
    }
    client.stream.write_all(&[*last]).unwrap();
    let reply = client.pump_frame(&mut server);
    assert_eq!(reply.code, 0, "the dribbled noop is served normally");

    drop(client);
    assert_spotless(&mut server, &state);
}

#[test]
fn mid_frame_disconnect_leaves_no_residue() {
    let (mut server, state, addr) = server_with_admin();

    // An authenticated session first, so teardown has real registry and
    // lock-manager state to clean, not just a blank connection.
    let mut client = RawClient::connect(&addr);
    client.send(&Request::new(MajorRequest::Auth, &["ops", "loris"]));
    let reply = client.pump_frame(&mut server);
    assert_eq!(reply.code, 0, "auth");

    // A header promising 64 bytes, 7 delivered, then a vanished peer.
    client.stream.write_all(&64u32.to_be_bytes()).unwrap();
    client.stream.write_all(b"partial").unwrap();
    for _ in 0..20 {
        server.poll_with_timeout(Some(TICK));
    }
    assert_eq!(server.connection_count(), 1, "partial frame keeps waiting");
    drop(client);

    assert_spotless(&mut server, &state);
    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("server.connections.accepted"), 1);
    assert_eq!(snap.counter("server.connections.closed"), 1);
}

#[test]
fn hostile_frame_header_poisons_only_that_connection() {
    let (mut server, state, addr) = server_with_admin();
    let mut evil = RawClient::connect(&addr);
    let mut good = RawClient::connect(&addr);

    // The hostile header (2 GiB) must kill evil's connection without the
    // inbox ever growing toward it — and without touching good's session.
    evil.stream.write_all(&(2u32 << 30).to_be_bytes()).unwrap();
    for _ in 0..10_000 {
        server.poll_with_timeout(Some(TICK));
        if server.connection_count() == 1 {
            break;
        }
    }
    assert_eq!(server.connection_count(), 1, "evil reaped, good kept");

    good.send(&Request::new(MajorRequest::Noop, &[]));
    let reply = good.pump_frame(&mut server);
    assert_eq!(reply.code, 0, "the innocent neighbor is unaffected");

    drop(good);
    drop(evil);
    assert_spotless(&mut server, &state);
}

/// Hundreds of simultaneous connections, each answered through the read
/// tier while all are open, then sequential connect → noop → close churn.
/// 400 clients plus their server ends fit a 1024-fd soft limit. CI runs
/// this under both reactor backends (`MOIRA_POLL_BACKEND=poll`).
#[test]
fn concurrent_connections_then_churn_leave_no_residue() {
    const CONNS: usize = 400;
    const CHURN: usize = 200;
    let (mut server, state, addr) = server_with_admin();

    // Connect in chunks the listener backlog (128) can always hold.
    let mut clients: Vec<RawClient> = Vec::with_capacity(CONNS);
    while clients.len() < CONNS {
        for _ in 0..100 {
            clients.push(RawClient::connect(&addr));
        }
        for _ in 0..10_000 {
            if server.connection_count() == clients.len() {
                break;
            }
            server.poll_with_timeout(Some(TICK));
        }
        assert_eq!(server.connection_count(), clients.len(), "all accepted");
    }

    // One retrieve per connection, all in flight together.
    let query = Request::new(MajorRequest::Query, &["get_machine", "ADV1.MIT.EDU"]);
    for c in &mut clients {
        c.send(&query);
    }
    let mut answered = vec![false; CONNS];
    for _ in 0..10_000 {
        server.poll_with_timeout(Some(TICK));
        for (c, done) in clients.iter_mut().zip(&mut answered) {
            while let Some(reply) = c.try_frame() {
                if !reply.is_more_data() {
                    assert_eq!(reply.code, 0, "retrieve answered");
                    *done = true;
                }
            }
        }
        if answered.iter().all(|&d| d) {
            break;
        }
    }
    assert!(answered.iter().all(|&d| d), "every connection answered");
    assert_eq!(server.connection_count(), CONNS, "all held while answered");
    let snap = server.obs().snapshot();
    assert_eq!(snap.counter("server.reads_dispatched"), CONNS as u64);
    let dispatch = snap
        .histogram("server.latency.readiness_to_dispatch")
        .expect("dispatch histogram");
    assert_eq!(dispatch.count, CONNS as u64, "one sample per retrieve");
    drop(clients);
    assert_spotless(&mut server, &state);

    for _ in 0..CHURN {
        let mut client = RawClient::connect(&addr);
        client.send(&Request::new(MajorRequest::Noop, &[]));
        assert_eq!(client.pump_frame(&mut server).code, 0, "noop");
    }
    assert_spotless(&mut server, &state);
    let snap = server.obs().snapshot();
    let total = (CONNS + CHURN) as u64;
    assert_eq!(snap.counter("server.connections.accepted"), total);
    assert_eq!(snap.counter("server.connections.closed"), total);
}

#[test]
fn never_draining_reader_is_paused_with_bounded_memory() {
    let (mut server, state, addr) = server_with_admin();
    server.set_write_cap(2048);

    let mut client = RawClient::connect(&addr);
    clamp_rcvbuf(&client.stream);
    client.send(&Request::new(MajorRequest::Auth, &["ops", "greedy"]));
    let reply = client.pump_frame(&mut server);
    assert_eq!(reply.code, 0, "auth");

    // Wave 1: each query streams 100 tuples (~15 KiB of replies); the
    // client reads nothing, so once the socket buffers fill the outbox
    // overruns the cap, backpressure engages, and the connection
    // survives. The volume is sized to defeat kernel buffering: even
    // with the client's receive buffer clamped, the server-side send
    // buffer autotunes up to tcp_wmem's ~4 MiB ceiling and silently
    // absorbs that much reply traffic before write() ever says WouldBlock.
    const WAVE: usize = 1000;
    let query = Request::new(MajorRequest::Query, &["get_machine", "ADV*"]);
    for _ in 0..WAVE {
        client.send(&query);
    }
    let mut q1 = 0usize;
    for _ in 0..10_000 {
        server.poll_with_timeout(Some(TICK));
        q1 = server
            .connection_queued_bytes()
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        let engaged = server
            .obs()
            .snapshot()
            .counter("server.backpressure.engaged");
        if engaged >= 1 && q1 > 2048 {
            break;
        }
    }
    assert!(q1 > 2048, "outbox passed the cap ({q1} bytes)");
    assert!(
        server
            .obs()
            .snapshot()
            .counter("server.backpressure.engaged")
            >= 1,
        "pause transition counted"
    );
    assert_eq!(server.connection_count(), 1, "slow reader stays connected");

    // Wave 2: a paused connection is never read, so nothing it sends can
    // grow the outbox — the bounded-memory contract under a peer that
    // keeps pushing while refusing to drain. (The kernel may still accept
    // a few queued bytes as its buffers autotune, so the bound is
    // "cannot grow", not "frozen exactly".)
    for _ in 0..WAVE {
        client.send(&query);
    }
    for _ in 0..50 {
        server.poll_with_timeout(Some(TICK));
    }
    let q2 = server
        .connection_queued_bytes()
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    assert!(q2 <= q1, "paused connection's outbox grew ({q1} -> {q2})");

    // The reader finally drains: every queued query is answered (each
    // yields 100 tuples + the closing status), the outbox empties, and
    // the session still works afterwards.
    let expected = 2 * WAVE * 101;
    let mut frames = 0usize;
    for _ in 0..4_000_000 {
        if client.try_frame().is_some() {
            frames += 1;
            if frames == expected {
                break;
            }
        } else {
            server.poll_with_timeout(Some(TICK));
        }
    }
    assert_eq!(frames, expected, "entire backlog answered after resume");
    for _ in 0..100 {
        server.poll_with_timeout(Some(TICK));
        if server.connection_queued_bytes().iter().all(|&q| q == 0) {
            break;
        }
    }
    assert!(
        server.connection_queued_bytes().iter().all(|&q| q == 0),
        "outbox drained after resume"
    );
    client.send(&Request::new(MajorRequest::Noop, &[]));
    assert_eq!(client.pump_frame(&mut server).code, 0, "session survives");

    drop(client);
    assert_spotless(&mut server, &state);
}
