//! Connection-tier benchmark: churn, 10k live connections, and
//! backpressure under a never-draining reader.
//!
//! Three phases against one reactor-driven server, all over real TCP:
//!
//! 1. **Churn** — client subprocesses connect, run one noop round-trip,
//!    and disconnect, in a tight loop. Measures full
//!    accept→dispatch→reply→teardown cycles per second.
//! 2. **10k live** — subprocesses open `MOIRA_CHURN_CONNS` (default
//!    10 000) concurrent connections and hold them; once every
//!    connection is live the orchestrator releases an echo storm and
//!    measures aggregate qps plus the server's readiness→dispatch
//!    latency histogram. ulimit -n bounds a single process well below
//!    2× the connection count, so the client side self-execs into
//!    `MOIRA_CHURN_PROCS` subprocesses (`conn_churn --client ...`).
//! 3. **Never-draining reader** — one connection floods retrieves and
//!    refuses to read replies. The server must engage backpressure at
//!    the write cap and the paused outbox must not grow.
//!
//! Results go to `results/conn_churn.json`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use moira_bench::{write_json, Table};
use moira_core::schema::members;
use moira_core::server::{standard_server, MoiraServer};
use moira_core::state::Caller;
use moira_protocol::wire::{MajorRequest, Reply, Request};

const TICK: Duration = Duration::from_millis(1);

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Writes one length-prefixed request frame.
fn send_frame(stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    let payload = req.encode();
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&payload);
    stream.write_all(&bytes)
}

/// Reads exactly one length-prefixed reply frame (blocking).
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Reply> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Reply::decode(bytes::Bytes::from(payload))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

// ---------------------------------------------------------------------
// Client mode: `conn_churn --client churn|hold <addr> <conns> <rounds>`
// ---------------------------------------------------------------------

/// Sequential connect → noop → reply → close cycles.
fn client_churn(addr: &str, count: usize) {
    let noop = Request::new(MajorRequest::Noop, &[]);
    for _ in 0..count {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        send_frame(&mut stream, &noop).expect("send");
        let reply = read_frame(&mut stream).expect("reply");
        assert_eq!(reply.code, 0, "noop failed");
    }
}

/// Reads reply frames for one pipelined query until the final status
/// frame, which must be success.
fn read_query_reply(stream: &mut TcpStream) {
    loop {
        let reply = read_frame(stream).expect("query reply");
        if !reply.is_more_data() {
            assert_eq!(reply.code, 0, "query failed");
            return;
        }
    }
}

/// Opens `conns` authenticated connections and holds them, then waits
/// for "go" on stdin before running `rounds` pipelined retrieve rounds
/// across all of them. A noop would be answered inline at classify time,
/// so the echo storm uses a real retrieve — every request crosses the
/// read tier and samples the readiness→dispatch histogram. Connections
/// open in chunks with a round-trip barrier so the listener backlog
/// (128) is never outrun.
fn client_hold(addr: &str, conns: usize, rounds: usize) {
    const CHUNK: usize = 100;
    let auth = Request::new(MajorRequest::Auth, &["ops", "conn-churn-hold"]);
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns);
    while streams.len() < conns {
        let batch = CHUNK.min(conns - streams.len());
        let first = streams.len();
        for _ in 0..batch {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).ok();
            send_frame(&mut stream, &auth).expect("auth send");
            streams.push(stream);
        }
        for stream in &mut streams[first..] {
            assert_eq!(read_frame(stream).expect("auth reply").code, 0);
        }
    }

    // All connections live and authenticated; wait for the orchestrator.
    let mut line = String::new();
    std::io::stdin().read_line(&mut line).expect("go signal");

    let query = Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]);
    for _ in 0..rounds {
        for stream in &mut streams {
            send_frame(stream, &query).expect("echo send");
        }
        for stream in &mut streams {
            read_query_reply(stream);
        }
    }
}

// ---------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------

/// Spawns this binary back on itself in client mode.
fn spawn_client(mode: &str, addr: &str, conns: usize, rounds: usize) -> Child {
    Command::new(std::env::current_exe().expect("self path"))
        .args([
            "--client",
            mode,
            addr,
            &conns.to_string(),
            &rounds.to_string(),
        ])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn client subprocess")
}

/// Polls until the server has reaped every connection (a child's exit
/// races the hangup event for its last socket).
fn drain_connections(server: &mut MoiraServer) {
    for _ in 0..10_000 {
        if server.connection_count() == 0 {
            return;
        }
        server.poll_with_timeout(Some(TICK));
    }
}

/// Drives the server loop until every child has exited.
fn drive_until_done(server: &mut MoiraServer, children: &mut [Child]) {
    let mut live_peak = 0usize;
    loop {
        server.poll_with_timeout(Some(TICK));
        live_peak = live_peak.max(server.connection_count());
        let mut done = true;
        for child in children.iter_mut() {
            match child.try_wait().expect("try_wait") {
                Some(status) => assert!(status.success(), "client subprocess failed"),
                None => done = false,
            }
        }
        if done {
            return;
        }
    }
}

/// Shrinks the receive buffer so the kernel cannot absorb the reply
/// flood for the never-draining phase (same trick as the reactor tests).
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
    let size: i32 = 128 * 1024;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            1, // SOL_SOCKET
            8, // SO_RCVBUF
            &size as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[cfg(not(target_os = "linux"))]
fn clamp_rcvbuf(_stream: &TcpStream) {}

struct HistRow {
    count: u64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn hist_row(server: &MoiraServer, name: &str) -> HistRow {
    let snap = server.obs().snapshot();
    let h = snap
        .histogram(name)
        .cloned()
        .unwrap_or_else(moira_obs::HistSnapshot::empty);
    HistRow {
        count: h.count,
        p50_us: h.p50() as f64 / 1e3,
        p99_us: h.p99() as f64 / 1e3,
        max_us: h.max as f64 / 1e3,
    }
}

/// The greedy client of phase 3: frames queue in user space and flush
/// opportunistically, because a nonblocking `write_all` against a full
/// socket buffer would tear a frame mid-write and desynchronize the
/// stream. Once the server pauses the connection the kernel stops
/// accepting bytes; whatever remains queued here simply never arrives —
/// which is exactly the adversary being modeled.
struct GreedyClient {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl GreedyClient {
    fn queue(&mut self, req: &Request) {
        let payload = req.encode();
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.pending.extend_from_slice(&payload);
    }

    fn flush(&mut self) {
        while !self.pending.is_empty() {
            match self.stream.write(&self.pending) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    self.pending.drain(..n);
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 6 && args[1] == "--client" {
        let conns: usize = args[4].parse().expect("conns");
        let rounds: usize = args[5].parse().expect("rounds");
        match args[2].as_str() {
            "churn" => client_churn(&args[3], conns),
            "hold" => client_hold(&args[3], conns, rounds),
            other => panic!("unknown client mode {other}"),
        }
        return;
    }

    let target_conns = env_usize("MOIRA_CHURN_CONNS", 10_000);
    let procs = env_usize("MOIRA_CHURN_PROCS", 4).max(1);
    let churn_total = env_usize("MOIRA_CHURN_COUNT", 2_000);
    let rounds = env_usize("MOIRA_CHURN_ROUNDS", 3);
    let backend = std::env::var("MOIRA_POLL_BACKEND").unwrap_or_else(|_| "default".into());

    let (mut server, state, registry) = standard_server(moira_common::VClock::new());
    server.obs().set_enabled(true);
    {
        // A reply-heavy retrieve corpus for the never-draining phase.
        let mut s = state.write();
        let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
        let root = Caller::root("conn-churn");
        for i in 0..100 {
            registry
                .execute(
                    &mut s,
                    &root,
                    "add_machine",
                    &[format!("CHURN{i}.MIT.EDU"), "VAX".into()],
                )
                .unwrap();
        }
    }
    let addr = server
        .listen_tcp("127.0.0.1:0")
        .expect("listen")
        .to_string();
    eprintln!(
        "conn_churn: addr={addr} backend={backend} target_conns={target_conns} \
         procs={procs} churn={churn_total} echo_rounds={rounds}"
    );

    // Phase 1: connection churn.
    let churn_procs = procs.clamp(1, 2);
    let per_proc = churn_total / churn_procs;
    let t0 = Instant::now();
    let mut children: Vec<Child> = (0..churn_procs)
        .map(|_| spawn_client("churn", &addr, per_proc, 0))
        .collect();
    drive_until_done(&mut server, &mut children);
    let churn_elapsed = t0.elapsed().as_secs_f64();
    let churned = per_proc * churn_procs;
    let churn_rate = churned as f64 / churn_elapsed;
    let accepted_after_churn = server
        .obs()
        .snapshot()
        .counter("server.connections.accepted");
    drain_connections(&mut server);
    assert_eq!(server.connection_count(), 0, "churn left residue");
    eprintln!("churn: {churned} cycles in {churn_elapsed:.2}s ({churn_rate:.0}/s)");

    // Phase 2: hold `target_conns` live connections, then echo storm.
    let per_proc = target_conns / procs;
    let held = per_proc * procs;
    let mut children: Vec<Child> = (0..procs)
        .map(|_| spawn_client("hold", &addr, per_proc, rounds))
        .collect();
    let ramp0 = Instant::now();
    let mut max_live = 0usize;
    while max_live < held {
        server.poll_with_timeout(Some(TICK));
        max_live = max_live.max(server.connection_count());
        for child in children.iter_mut() {
            assert!(
                child.try_wait().expect("try_wait").is_none(),
                "hold client exited during ramp"
            );
        }
    }
    let ramp_elapsed = ramp0.elapsed().as_secs_f64();
    eprintln!("ramp: {max_live} live connections in {ramp_elapsed:.2}s");

    let t0 = Instant::now();
    let mut stdins: Vec<_> = children
        .iter_mut()
        .map(|c| c.stdin.take().expect("child stdin"))
        .collect();
    for stdin in &mut stdins {
        stdin.write_all(b"go\n").expect("release hold clients");
        stdin.flush().ok();
    }
    drive_until_done(&mut server, &mut children);
    let echo_elapsed = t0.elapsed().as_secs_f64();
    let echo_total = held * rounds;
    let echo_qps = echo_total as f64 / echo_elapsed;
    let dispatch = hist_row(&server, "server.latency.readiness_to_dispatch");
    drain_connections(&mut server);
    assert_eq!(server.connection_count(), 0, "hold clients left residue");
    eprintln!(
        "echo: {echo_total} round-trips across {held} conns in {echo_elapsed:.2}s \
         ({echo_qps:.0} qps), dispatch p50={:.0}us p99={:.0}us",
        dispatch.p50_us, dispatch.p99_us
    );

    // Phase 3: never-draining reader over TCP, the server in this process
    // so its outbox is observable. The write cap is small so backpressure
    // is reachable.
    server.set_write_cap(2048);
    let stream = TcpStream::connect(&addr).expect("connect greedy");
    stream.set_nonblocking(true).ok();
    clamp_rcvbuf(&stream);
    let mut greedy = GreedyClient {
        stream,
        pending: Vec::new(),
    };
    // Auth round-trip driven by the server loop.
    greedy.queue(&Request::new(MajorRequest::Auth, &["ops", "greedy"]));
    let mut authed = false;
    let mut sink = [0u8; 4096];
    for _ in 0..10_000 {
        greedy.flush();
        server.poll_with_timeout(Some(TICK));
        if matches!(greedy.stream.read(&mut sink), Ok(n) if n >= 4) {
            authed = true;
            break;
        }
    }
    assert!(authed, "auth round-trip");

    let query = Request::new(MajorRequest::Query, &["get_machine", "CHURN*"]);
    for _ in 0..1_000 {
        greedy.queue(&query);
    }
    let mut peak = 0usize;
    let mut engaged = 0u64;
    for _ in 0..10_000 {
        greedy.flush();
        server.poll_with_timeout(Some(TICK));
        let q = server
            .connection_queued_bytes()
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        peak = peak.max(q);
        engaged = server
            .obs()
            .snapshot()
            .counter("server.backpressure.engaged");
        if engaged >= 1 && q > 2048 {
            break;
        }
    }
    assert!(peak > 2048, "backpressure never engaged (peak {peak})");
    assert!(engaged >= 1, "pause transition not counted");
    // More traffic from the paused peer must not grow the outbox.
    for _ in 0..1_000 {
        greedy.queue(&query);
    }
    for _ in 0..100 {
        greedy.flush();
        server.poll_with_timeout(Some(TICK));
    }
    let after = server
        .connection_queued_bytes()
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    assert!(after <= peak, "paused outbox grew ({peak} -> {after})");
    drop(greedy);
    drain_connections(&mut server);
    assert_eq!(server.connection_count(), 0, "greedy reader left residue");
    eprintln!("backpressure: peak outbox {peak} bytes, after more sends {after} bytes");

    let mut table = Table::new(&["Phase", "Volume", "Elapsed", "Rate", "p99 dispatch"]);
    table.row(&[
        "churn".into(),
        format!("{churned} conns"),
        format!("{churn_elapsed:.2}s"),
        format!("{churn_rate:.0}/s"),
        "-".into(),
    ]);
    table.row(&[
        format!("echo @ {held} live"),
        format!("{echo_total} rt"),
        format!("{echo_elapsed:.2}s"),
        format!("{echo_qps:.0} qps"),
        format!("{:.0}us", dispatch.p99_us),
    ]);
    table.row(&[
        "never-draining reader".into(),
        "2000 queries".into(),
        "-".into(),
        format!("peak outbox {peak}B"),
        "-".into(),
    ]);
    table.print("Reactor connection tier");

    // Bounded p99: on this single-core host a full echo wave means the
    // dispatcher works through ~`held` ready events per pass, so the
    // bound is generous — the assertion is about staying finite and
    // sane, not about a latency SLO.
    assert!(
        dispatch.count as usize >= echo_total,
        "dispatch histogram undersampled"
    );
    assert!(
        dispatch.p99_us < 5_000_000.0,
        "p99 dispatch latency unbounded: {:.0}us",
        dispatch.p99_us
    );
    if std::env::var("MOIRA_CHURN_CONNS").is_err() {
        assert!(
            max_live >= 10_000,
            "only {max_live} simultaneous connections"
        );
    }

    let doc = serde_json::json!({
        "backend": backend,
        "churn": {
            "connect_noop_close_cycles": churned,
            "client_procs": churn_procs,
            "elapsed_s": churn_elapsed,
            "cycles_per_sec": churn_rate,
            "accepted_total": accepted_after_churn,
        },
        "live_connections": {
            "target": target_conns,
            "max_live": max_live,
            "client_procs": procs,
            "ramp_s": ramp_elapsed,
            "echo_rounds": rounds,
            "echo_round_trips": echo_total,
            "echo_elapsed_s": echo_elapsed,
            "echo_qps": echo_qps,
            "dispatch_latency": {
                "samples": dispatch.count,
                "p50_us": dispatch.p50_us,
                "p99_us": dispatch.p99_us,
                "max_us": dispatch.max_us,
            },
        },
        "never_draining_reader": {
            "write_cap_bytes": 2048u64,
            "queries_sent": 2000u64,
            "peak_outbox_bytes": peak,
            "outbox_after_more_sends": after,
            "bounded": after <= peak,
            "backpressure_engaged": engaged,
        },
        "methodology": "one reactor-driven server on the main thread; clients are self-exec'd subprocesses (fd limit caps one process below 2x the connection count); dispatch latency is the server's readiness_to_dispatch obs histogram over the whole run",
    });

    write_json("conn_churn", &doc);
}
