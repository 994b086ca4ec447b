//! The Moira server loop (§5.4), split into read/write dispatch tiers.
//!
//! "The Moira server runs as a single UNIX process on the Moira database
//! machine. It listens for TCP/IP connections on a well known service port,
//! and processes remote procedure call requests on each connection it
//! accepts." The loop is non-blocking: each [`MoiraServer::poll_once`] makes
//! progress on every live connection (reading new requests, sending
//! replies), which is what let the original stay a single process while
//! "reading new RPC requests and sending old replies simultaneously".
//!
//! Execution is single-threaded, as in the paper: every request of a pass
//! runs on the loop's own thread. The state still sits behind a
//! reader-writer lock because other threads (the DCM, the registration
//! server) share it, so each poll pass classifies ready requests before
//! dispatch. Retrieve-class queries (and `Access` pre-checks) run first,
//! under one shared guard, so a DCM generation reading the state does not
//! hold them up; mutations, `Authenticate`, and `Trigger_DCM` then drain
//! **serially** under the exclusive guard. Per connection, FIFO order is
//! preserved: a connection's leading run of reads joins the shared tier,
//! and from its first write onward the remainder of its batch executes in
//! order on the exclusive tier, so a read that follows a write always
//! observes it. Lock acquisition is bounded — a tier that cannot get its
//! guard within the configured patience sheds its requests with
//! [`MrError::Busy`] instead of blocking the loop, mirroring the database
//! `LockManager`'s policy of reporting contention (`MR_BUSY`/`MR_DEADLOCK`)
//! rather than waiting forever.
//!
//! One pass is one call of each stage, one file each: `collect` (readiness
//! events → drained frames), `classify` (frames → task slots), `tiers`
//! (the shared tier, then the exclusive tier and its group-commit flush),
//! `reply` (replies out, reactor interest re-synced, dead connections torn
//! down). `classify` and `tiers` see only plain data — frames, slots and
//! sessions, no channel.
//!
//! The expensive database backend is initialized **once**, at server
//! construction — the Athenareg lesson: "starting up a backend process is a
//! rather heavyweight operation, the Moira server will do this only once,
//! at the start up time of the daemon" (benchmarked as experiment E5).
//!
//! [`MrError::Busy`]: moira_common::errors::MrError::Busy

// A panic here kills the daemon every workstation depends on; covers every
// submodule of `server/`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod classify;
mod collect;
mod reply;
mod tiers;

use std::collections::HashMap;
use std::io;
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_common::lockorder;
use moira_krb::ticket::Verifier;
use moira_protocol::transport::Channel;

use self::tiers::Tiers;
use crate::reactor::{Reactor, Waker, LISTENER_KEY};
use crate::registry::Registry;
use crate::state::{shared, Caller, ClientInfo, MoiraState, SharedState};

/// The Moira server's registered service port (a period-appropriate pick
/// for the "well known port (T.B.S.)").
pub const MOIRA_PORT: u16 = 775;

/// Default per-connection outbox cap in bytes. Above this the server
/// pauses the connection's read interest until the peer drains below the
/// low-water mark (`cap / 2`).
pub const DEFAULT_WRITE_CAP: usize = 256 * 1024;

/// Wait bound of one [`MoiraServer::run_until_idle`] pass: how long "no
/// request arrived" takes to count as an idle round.
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Fallback wait bound for [`MoiraServer::run`]: how stale the `stop` flag
/// check may go when no [`Waker`] fires. Wakers make shutdown immediate;
/// this only caps the worst case.
const RUN_TICK: Duration = Duration::from_millis(25);

/// Who is speaking on a connection — all the tiers see of it.
struct Session {
    caller: Caller,
    /// The connection's row in `state.clients`.
    client_number: u64,
}

impl Session {
    fn new(client_number: u64) -> Session {
        Session {
            caller: Caller::anonymous("unknown"),
            client_number,
        }
    }
}

/// The transport half of a connection; its [`Session`] sits at the same
/// index of `MoiraServer::sessions`.
struct Connection {
    chan: Box<dyn Channel>,
    /// Stable reactor registration key (connection indexes shift on
    /// removal; keys never do).
    key: usize,
    /// The channel's readiness fd, registered with the reactor under
    /// `key` for as long as the connection lives.
    fd: polling::RawFd,
    /// Read interest as the reactor currently knows it.
    reg_read: bool,
    /// Write interest as the reactor currently knows it.
    reg_write: bool,
    /// Backpressure engaged: the outbox passed its cap, read interest is
    /// withdrawn until the peer drains below the low-water mark (cap/2).
    /// A paused peer is never disconnected — it just stops being read.
    paused: bool,
}

/// Connection indexes one pass must revisit once dispatch is over.
#[derive(Default)]
struct Pass {
    /// Flushed or read this pass: reactor interest may have changed.
    touched: Vec<usize>,
    /// Channel closed or failed: torn down at the end of the pass.
    dead: Vec<usize>,
}

/// The Moira server: one process, two dispatch tiers.
pub struct MoiraServer {
    /// State, registry, and the two tiers that run requests against them.
    tiers: Tiers,
    connections: Vec<Connection>,
    /// One per connection, index-aligned with `connections`.
    sessions: Vec<Session>,
    listener: Option<TcpListener>,
    /// When set, at most this many requests are dispatched per poll pass;
    /// excess requests are shed with `Busy` instead of queueing
    /// unboundedly behind the loop.
    overload_limit: Option<usize>,
    /// Readiness event source for the connection tier.
    reactor: Reactor,
    /// Registration key → current index in `connections`.
    key_map: HashMap<usize, usize>,
    /// Next connection registration key.
    next_key: usize,
    /// Outbox high-water mark, the same for every connection: the server
    /// bounds its own memory, so the cap is its policy, not the channel's.
    write_cap: usize,
    /// Live connections right now.
    obs_conn_open: moira_obs::Gauge,
    /// Connections accepted over the server's lifetime.
    obs_conn_accepted: moira_obs::Counter,
    /// Connections torn down over the server's lifetime.
    obs_conn_closed: moira_obs::Counter,
    /// Channels refused at attach because the reactor rejected their fd.
    obs_conn_register_failed: moira_obs::Counter,
    /// Pause transitions: times a connection's outbox crossed its cap and
    /// read interest was withdrawn.
    obs_backpressure: moira_obs::Counter,
}

impl MoiraServer {
    /// Creates a server over shared state and a query registry.
    ///
    /// With `verifier` set, `Authenticate` requests must carry Kerberos
    /// tickets; without one the server runs in trusted mode (in-process
    /// deployments and tests) where the authenticator is a bare principal
    /// name.
    pub fn new(
        state: SharedState,
        registry: Arc<Registry>,
        verifier: Option<Verifier>,
    ) -> MoiraServer {
        let tiers = Tiers::new(state, registry, verifier);
        let obs = &tiers.obs;
        MoiraServer {
            obs_conn_open: obs.gauge("server.connections.open"),
            obs_conn_accepted: obs.counter("server.connections.accepted"),
            obs_conn_closed: obs.counter("server.connections.closed"),
            obs_conn_register_failed: obs.counter("server.connections.register_failed"),
            obs_backpressure: obs.counter("server.backpressure.engaged"),
            tiers,
            reactor: Reactor::new(),
            key_map: HashMap::new(),
            next_key: 0,
            write_cap: DEFAULT_WRITE_CAP,
            connections: Vec::new(),
            sessions: Vec::new(),
            listener: None,
            overload_limit: None,
        }
    }

    /// The state's instrument registry (snapshot it for dispatch counters
    /// and per-tier latency histograms).
    pub fn obs(&self) -> moira_obs::Registry {
        self.tiers.obs.clone()
    }

    /// The shared state handle.
    pub fn state(&self) -> SharedState {
        self.tiers.state.clone()
    }

    /// Bounds in-flight work: at most `limit` requests are dispatched per
    /// poll pass, and the rest receive `Busy` — a distinct, retryable
    /// status well-behaved clients back off from. `None` removes the
    /// bound.
    pub fn set_overload_limit(&mut self, limit: Option<usize>) {
        self.overload_limit = limit;
    }

    /// Requests shed with `Busy` since the server started.
    pub fn shed_requests(&self) -> u64 {
        self.tiers.shed_requests
    }

    /// Threads that run a pass's reads: always `1`, the loop's own. Kept
    /// only because the `moira-bench` harness still reads it.
    pub fn read_workers(&self) -> usize {
        1
    }

    /// Bounds how many try-lock attempts a tier makes before shedding its
    /// batch with `Busy`.
    pub fn set_lock_patience(&mut self, attempts: u32) {
        self.tiers.lock_patience = attempts;
    }

    /// Requests executed on the (shared, exclusive) tiers so far. Requests
    /// shed with `Busy` count toward [`MoiraServer::shed_requests`], not
    /// here.
    pub fn dispatch_counts(&self) -> (u64, u64) {
        (self.tiers.reads_dispatched, self.tiers.writes_dispatched)
    }

    /// Attaches an already-connected channel (one end of an in-process
    /// pair, or a freshly accepted socket), registering its readiness fd
    /// with the reactor. A channel whose fd the reactor refuses could never
    /// be served, so it is dropped here — the peer sees a close — and
    /// counted in `server.connections.register_failed`.
    pub fn attach(&mut self, chan: Box<dyn Channel>, host: &str, port: u16) {
        let key = self.next_key;
        let fd = chan.raw_fd();
        if self.reactor.register(fd, key).is_err() {
            self.obs_conn_register_failed.inc();
            return;
        }
        self.next_key += 1;
        let mut state = self.tiers.state.write();
        let client_number = state.next_client_number();
        let connect_time = state.now();
        state.clients.push(ClientInfo {
            principal: None,
            host: host.to_owned(),
            port,
            connect_time,
            client_number,
        });
        drop(state);
        self.key_map.insert(key, self.connections.len());
        self.sessions.push(Session::new(client_number));
        self.connections.push(Connection {
            chan,
            key,
            fd,
            reg_read: true,
            reg_write: false,
            paused: false,
        });
        self.obs_conn_accepted.inc();
        self.obs_conn_open.set(self.connections.len() as i64);
    }

    /// Starts listening on a TCP address (pass port 0 for an ephemeral
    /// port); returns the bound address, or the error that kept the
    /// listener from binding or from registering with the reactor.
    pub fn listen_tcp(&mut self, addr: &str) -> io::Result<std::net::SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        self.reactor.register(listener.as_raw_fd(), LISTENER_KEY)?;
        self.listener = Some(listener);
        Ok(bound)
    }

    /// Overrides every connection's outbox cap — existing and future
    /// (clamped to ≥ 1). The backpressure tests and benches use tiny caps
    /// to make the pause observable; production keeps
    /// [`DEFAULT_WRITE_CAP`].
    pub fn set_write_cap(&mut self, cap: usize) {
        self.write_cap = cap.max(1);
    }

    /// A handle that interrupts a blocked [`MoiraServer::run`] /
    /// [`MoiraServer::poll_with_timeout`] wait from another thread.
    pub fn waker(&self) -> Waker {
        self.reactor.waker()
    }

    /// Number of live connections.
    pub fn connection_count(&self) -> usize {
        self.connections.len()
    }

    /// Outbox depth (bytes queued toward the peer, not yet taken by the
    /// OS) per live connection. The benches and adversarial tests assert
    /// bounded growth under never-draining readers with this.
    pub fn connection_queued_bytes(&self) -> Vec<usize> {
        self.connections
            .iter()
            .map(|c| c.chan.queued_bytes())
            .collect()
    }

    /// One non-blocking pass of the loop (a reactor wait with zero
    /// timeout). Returns how many requests were received.
    pub fn poll_once(&mut self) -> usize {
        self.poll_with_timeout(Some(Duration::ZERO))
    }

    /// One pass of the loop, blocking in the reactor wait for up to
    /// `timeout` (`None` = until an event or a [`Waker`]), then one call
    /// of each stage: collect the ready frames, classify them, run the
    /// shared tier and then the exclusive tier, send
    /// replies in per-connection FIFO order, re-sync reactor interest and
    /// tear down dead connections. Returns how many requests were
    /// received.
    pub fn poll_with_timeout(&mut self, timeout: Option<Duration>) -> usize {
        // The loop's single blocking point; `Reactor::wait` asserts that no
        // state guard is held across it. From here to teardown is the
        // pass, inside which the blocking seams assert they are not called.
        let ready = self.reactor.wait(timeout);
        let _pass = lockorder::enter_pass();
        let ready_at = Instant::now();

        let mut pass = Pass::default();
        let frames = self.collect(&ready, &mut pass);
        let received = frames.len();

        let (mut tasks, shed) =
            classify::classify(&self.tiers.registry, frames, self.overload_limit);
        self.tiers.count_sheds(shed);

        self.tiers
            .run_read_tier(&self.sessions, &mut tasks, ready_at);
        self.tiers
            .run_write_tier(&mut self.sessions, &mut tasks, ready_at);

        self.send_replies(tasks, &mut pass);
        self.resync(&mut pass);
        self.teardown(pass.dead);
        received
    }

    /// Polls until `idle_rounds` consecutive passes process nothing. Idle
    /// passes block in the reactor wait (for [`IDLE_TICK`]) rather than
    /// spinning.
    pub fn run_until_idle(&mut self, idle_rounds: usize) {
        let mut idle = 0;
        while idle < idle_rounds {
            if self.poll_with_timeout(Some(IDLE_TICK)) == 0 {
                idle += 1;
            } else {
                idle = 0;
            }
        }
    }

    /// Runs the loop until `stop` is set. When a pass finds nothing to do
    /// the loop blocks in the reactor wait — zero CPU while idle — bounded
    /// by [`RUN_TICK`] so `stop` is honored even without a [`Waker`]
    /// firing; use [`MoiraServer::waker`] to interrupt the wait
    /// immediately (new work handed to another thread, shutdown).
    pub fn run(&mut self, stop: &std::sync::atomic::AtomicBool) {
        while !stop.load(std::sync::atomic::Ordering::Acquire) {
            self.poll_with_timeout(Some(RUN_TICK));
        }
    }
}

/// Builds a ready-to-use server: seeded state, standard registry, CAPACLS
/// populated. Returns the server plus handles on its state and registry.
pub fn standard_server(clock: moira_common::VClock) -> (MoiraServer, SharedState, Arc<Registry>) {
    let registry = Arc::new(Registry::standard());
    let mut state = MoiraState::new(clock);
    crate::seed::seed_capacls(&mut state, &registry);
    let state = shared(state);
    let server = MoiraServer::new(state.clone(), registry.clone(), None);
    (server, state, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{machine, members};
    use moira_common::errors::MrError;
    use moira_protocol::transport::{pair, recv_blocking, TcpChannel};
    use moira_protocol::wire::{MajorRequest, Reply, Request};
    use std::sync::Barrier;

    fn send_request(chan: &mut dyn Channel, server: &mut MoiraServer, req: Request) -> Vec<Reply> {
        chan.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let mut replies = Vec::new();
        loop {
            let frame = recv_blocking(chan, 100).expect("reply");
            let reply = Reply::decode(frame).unwrap();
            let done = !reply.is_more_data();
            replies.push(reply);
            if done {
                break;
            }
        }
        replies
    }

    fn setup() -> (MoiraServer, moira_protocol::transport::InProcChannel) {
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let (client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);
        (server, client)
    }

    #[test]
    fn noop_round_trip() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Noop, &[]),
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].code, 0);
    }

    #[test]
    fn query_streams_tuples() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        for name in ["A", "B", "C"] {
            let replies = send_request(
                &mut client,
                &mut server,
                Request::new(MajorRequest::Query, &["add_machine", name, "VAX"]),
            );
            assert_eq!(replies.last().unwrap().code, 0, "{name}");
        }
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "*"]),
        );
        // Three MR_MORE_DATA tuples plus the final success.
        assert_eq!(replies.len(), 4);
        assert!(replies[0].is_more_data());
        assert_eq!(replies[3].code, 0);
        let names: Vec<String> = replies[..3]
            .iter()
            .map(|r| r.string_fields().unwrap()[0].clone())
            .collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn unauthenticated_mutation_denied() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
    }

    #[test]
    fn access_precheck_matches_execution() {
        let (mut server, mut client) = setup();
        // Denied before auth…
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Access, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
        // …allowed after.
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Access, &["add_machine", "X", "VAX"]),
        );
        assert_eq!(replies[0].code, 0);
        // And the access check did not execute the query.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "X"]),
        );
        assert_eq!(replies[0].code, MrError::NoMatch.code());
    }

    #[test]
    fn trigger_dcm_requires_capability() {
        let (mut server, mut client) = setup();
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::TriggerDcm, &[]),
        );
        assert_eq!(replies[0].code, MrError::Perm.code());
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::TriggerDcm, &[]),
        );
        assert_eq!(replies[0].code, 0);
        assert!(server.state().read().dcm_trigger);
    }

    #[test]
    fn overload_sheds_excess_requests_with_busy() {
        let (mut server, mut client) = setup();
        server.set_overload_limit(Some(1));
        // Two requests land before the loop runs: only one is dispatched,
        // the other is shed with a distinct, retryable Busy status.
        let req = Request::new(MajorRequest::Noop, &[]);
        client.send(req.encode()).unwrap();
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let first = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        let second = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(first.code, 0);
        assert_eq!(second.code, MrError::Busy.code());
        assert_eq!(server.shed_requests(), 1);
        // The resend lands in a calmer pass and succeeds.
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        let retried = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(retried.code, 0);
        // Removing the limit restores unbounded dispatch.
        server.set_overload_limit(None);
        client.send(req.encode()).unwrap();
        client.send(req.encode()).unwrap();
        server.run_until_idle(2);
        for _ in 0..2 {
            let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        }
        assert_eq!(server.shed_requests(), 1, "no further sheds");
    }

    #[test]
    fn version_skew_rejected() {
        let (mut server, mut client) = setup();
        let mut req = Request::new(MajorRequest::Noop, &[]);
        req.version = 99;
        let replies = send_request(&mut client, &mut server, req);
        assert_eq!(replies[0].code, MrError::VersionHigh.code());
    }

    #[test]
    fn list_users_sees_connections() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["_list_users"]),
        );
        assert_eq!(replies.len(), 2);
        let fields = replies[0].string_fields().unwrap();
        assert_eq!(fields[0], "ops");
    }

    #[test]
    fn disconnect_cleans_up() {
        let (mut server, client) = setup();
        assert_eq!(server.connection_count(), 1);
        drop(client);
        server.run_until_idle(3);
        assert_eq!(server.connection_count(), 0);
        assert!(server.state().read().clients.is_empty());
    }

    #[test]
    fn mass_disconnect_tears_down_exactly_the_dead() {
        // Four connections, alternately ops and nobody; the first and third
        // die in the same pass. The survivors shift down to indexes 0 and 1
        // and must keep their own identities and their own client rows.
        let (mut server, _bystander) = setup();
        let mut clients = vec![];
        for who in ["ops", "nobody", "ops", "nobody"] {
            let (mut client, server_end) = pair();
            server.attach(Box::new(server_end), "local", 0);
            client
                .send(Request::new(MajorRequest::Auth, &[who, "test"]).encode())
                .unwrap();
            clients.push(client);
        }
        server.run_until_idle(2);
        let mut survivors: Vec<_> = clients.drain(..).skip(1).step_by(2).collect();
        server.run_until_idle(3);
        assert_eq!(
            server.connection_count(),
            3,
            "the bystander + two survivors"
        );
        let state = server.state();
        let principals: Vec<_> = {
            state
                .read()
                .clients
                .iter()
                .map(|c| c.principal.clone())
                .collect()
        };
        assert_eq!(
            principals,
            [None, Some("nobody".to_owned()), Some("nobody".to_owned())]
        );
        for c in survivors.iter_mut() {
            let auth = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert_eq!(auth.code, 0);
            let add = Request::new(MajorRequest::Query, &["add_machine", "GHOST", "VAX"]);
            let replies = send_request(c, &mut server, add);
            assert_eq!(
                replies[0].code,
                MrError::Perm.code(),
                "inherited a dead ops session"
            );
        }
    }

    #[test]
    fn tcp_end_to_end() {
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let addr = server.listen_tcp("127.0.0.1:0").unwrap();
        let handle = std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(&addr.to_string()).unwrap();
            chan.send(Request::new(MajorRequest::Auth, &["ops", "tcp-test"]).encode())
                .unwrap();
            let r = Reply::decode(recv_blocking(&mut chan, 2_000_000).unwrap()).unwrap();
            assert_eq!(r.code, 0);
            chan.send(Request::new(MajorRequest::Query, &["add_machine", "TCPBOX", "RT"]).encode())
                .unwrap();
            let r = Reply::decode(recv_blocking(&mut chan, 2_000_000).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        });
        // Drive the server loop until the client thread finishes.
        let start = std::time::Instant::now();
        while !handle.is_finished() {
            server.poll_once();
            assert!(start.elapsed().as_secs() < 10, "server loop stuck");
        }
        handle.join().unwrap();
        let s = state.read();
        assert!(!s
            .db
            .select(&moira_db::Pred::Eq(machine::NAME, "TCPBOX".into()))
            .is_empty());
    }

    #[test]
    fn kerberos_auth_mode() {
        use moira_krb::realm::Kdc;
        use moira_krb::ticket::make_authenticator;

        let clock = moira_common::VClock::new();
        let kdc = Kdc::new(clock.clone());
        kdc.register("babette", "pw").unwrap();
        let skey = kdc.register_service("moira").unwrap();
        let verifier = Verifier::new("moira", skey, clock.clone());

        let registry = Arc::new(Registry::standard());
        let mut st = MoiraState::new(clock.clone());
        crate::seed::seed_capacls(&mut st, &registry);
        crate::queries::testutil::add_test_user(&mut st, "babette", 42);
        let state = shared(st);
        let mut server = MoiraServer::new(state, registry, Some(verifier));

        let (mut client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);

        let (ticket, session) = kdc.initial_ticket("babette", "pw", "moira").unwrap();
        let auth = make_authenticator(session, "babette", clock.now(), 1);
        let mut req = Request::new(MajorRequest::Auth, &[]);
        req.args = vec![
            bytes::Bytes::from(ticket.sealed.clone()),
            bytes::Bytes::from(auth.sealed.clone()),
            bytes::Bytes::from_static(b"chsh"),
        ];
        let replies = send_request(&mut client, &mut server, req.clone());
        assert_eq!(replies[0].code, 0);
        // Replaying the same authenticator fails.
        let replies = send_request(&mut client, &mut server, req);
        assert_eq!(replies[0].code, MrError::Replay.code());
        // Trusted-mode auth is refused when a verifier is configured.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["root", "sneaky"]),
        );
        assert_eq!(replies[0].code, MrError::Args.code());
        // The authenticated identity can use self-access queries.
        let replies = send_request(
            &mut client,
            &mut server,
            Request::new(
                MajorRequest::Query,
                &["update_user_shell", "babette", "/bin/sh"],
            ),
        );
        assert_eq!(replies[0].code, 0);
    }

    #[test]
    fn tiers_classify_reads_and_writes() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        let (r0, w0) = server.dispatch_counts();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["add_machine", "TIER", "VAX"]),
        );
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Query, &["get_machine", "TIER"]),
        );
        let (r1, w1) = server.dispatch_counts();
        assert_eq!(r1 - r0, 1, "get_machine runs on the shared tier");
        assert_eq!(w1 - w0, 1, "add_machine runs on the exclusive tier");
    }

    #[test]
    fn read_after_write_same_pass_observes_the_write() {
        // A connection's read that arrives behind its own write must not
        // jump the queue onto the read tier: both land in one poll pass and
        // the read still sees the freshly added machine.
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "FRESH", "VAX"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["get_machine", "FRESH"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(add.code, 0);
        let tuple = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert!(tuple.is_more_data(), "read-after-write found the row");
        assert_eq!(tuple.string_fields().unwrap()[0], "FRESH");
        let done = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(done.code, 0);
    }

    #[test]
    fn query_pipelined_behind_auth_uses_new_principal() {
        // Auth and a mutation land in the same poll pass. The mutation was
        // classified while the connection was still anonymous, but it must
        // execute under the just-authenticated principal — the serial tier
        // re-resolves the caller at dispatch time.
        let (mut server, mut client) = setup();
        client
            .send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "PIPELINED", "VAX"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Access, &["add_machine", "Y", "VAX"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let auth = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(auth.code, 0);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(add.code, 0, "mutation behind auth ran under a stale caller");
        let access = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(
            access.code, 0,
            "access check behind auth used a stale caller"
        );
    }

    #[test]
    fn reauth_in_same_pass_drops_old_privileges() {
        // The mirror image: a privileged connection re-authenticates as an
        // unprivileged principal with a mutation pipelined behind the Auth.
        // The mutation must run as the new principal, not retain the old
        // one's capabilities through a classify-time snapshot.
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        client
            .send(Request::new(MajorRequest::Auth, &["nobody", "test"]).encode())
            .unwrap();
        client
            .send(Request::new(MajorRequest::Query, &["add_machine", "SNEAK", "VAX"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let auth = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(auth.code, 0);
        let add = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(
            add.code,
            MrError::Perm.code(),
            "mutation retained the pre-re-auth principal's privileges"
        );
    }

    #[test]
    fn four_connections_reads_dispatch_in_one_pass() {
        // Four connections each send a retrieve; all four dispatch on the
        // shared tier in one pass and answer correctly.
        let (mut server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = crate::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let mut clients = Vec::new();
        for _ in 0..4 {
            let (client, server_end) = pair();
            server.attach(Box::new(server_end), "local", 0);
            clients.push(client);
        }
        for c in clients.iter_mut() {
            c.send(Request::new(MajorRequest::Auth, &["ops", "test"]).encode())
                .unwrap();
        }
        server.run_until_idle(2);
        for c in clients.iter_mut() {
            let r = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert_eq!(r.code, 0);
        }
        let obs_before = server.obs().snapshot();
        let before = server.dispatch_counts();
        for c in clients.iter_mut() {
            c.send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
                .unwrap();
        }
        let processed = server.poll_once();
        assert_eq!(processed, 4);
        let after = server.dispatch_counts();
        assert_eq!((after.0 - before.0, after.1 - before.1), (4, 0));
        for c in clients.iter_mut() {
            let tuple = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert!(tuple.is_more_data());
            assert_eq!(tuple.string_fields().unwrap()[0], "ops");
            let done = Reply::decode(recv_blocking(c, 100).unwrap()).unwrap();
            assert_eq!(done.code, 0);
        }
        // All four dispatches landed on the read tier and were individually
        // timed.
        let obs_after = server.obs().snapshot();
        assert_eq!(
            obs_after.counter("server.reads_dispatched")
                - obs_before.counter("server.reads_dispatched"),
            4
        );
        let read_lat = obs_after
            .histogram("server.latency.read")
            .expect("read latency recorded");
        let read_lat_before = obs_before
            .histogram("server.latency.read")
            .map(|h| h.count)
            .unwrap_or(0);
        assert_eq!(read_lat.count - read_lat_before, 4);
        let write_lat_count =
            |s: &moira_obs::Snapshot| s.histogram("server.latency.write").map(|h| h.count);
        assert_eq!(
            write_lat_count(&obs_after),
            write_lat_count(&obs_before),
            "no write-tier samples from a pure read pass"
        );
    }

    /// An in-process channel reporting an fd no selector will take.
    struct BadFd(moira_protocol::transport::InProcChannel);

    impl Channel for BadFd {
        fn queue(&mut self, frame: bytes::Bytes) -> io::Result<()> {
            self.0.queue(frame)
        }
        fn try_recv(&mut self) -> io::Result<Option<bytes::Bytes>> {
            self.0.try_recv()
        }
        fn is_closed(&self) -> bool {
            self.0.is_closed()
        }
        fn raw_fd(&self) -> polling::RawFd {
            -1
        }
        fn flush(&mut self) -> io::Result<bool> {
            self.0.flush()
        }
        fn queued_bytes(&self) -> usize {
            self.0.queued_bytes()
        }
    }

    #[test]
    fn attach_refuses_a_channel_the_reactor_cannot_watch() {
        // A connection the reactor cannot register would never be read:
        // it is dropped at attach and counted, and the pass that follows
        // serves everyone else as usual.
        let (mut server, mut good) = setup();
        good.send(Request::new(MajorRequest::Noop, &[]).encode())
            .unwrap();
        let (mut refused, server_end) = pair();
        server.attach(Box::new(BadFd(server_end)), "local", 0);

        assert_eq!(server.connection_count(), 1, "only setup's connection");
        assert_eq!(server.state().read().clients.len(), 1, "no client row");
        let snap = server.obs().snapshot();
        assert_eq!(snap.counter("server.connections.register_failed"), 1);
        assert_eq!(snap.counter("server.connections.accepted"), 1);
        assert_eq!(snap.gauge("server.connections.open"), 1);
        assert!(refused.try_recv().is_err(), "the refused peer sees a close");

        server.run_until_idle(2);
        let reply = Reply::decode(recv_blocking(&mut good, 100).unwrap()).unwrap();
        assert_eq!(reply.code, 0, "the bystander was answered");
    }

    #[test]
    fn connection_lifecycle_instruments() {
        let (mut server, _state, _) = standard_server(moira_common::VClock::new());
        let snap = |s: &MoiraServer| {
            let snap = s.obs().snapshot();
            (
                snap.counter("server.connections.accepted"),
                snap.gauge("server.connections.open"),
                snap.counter("server.connections.closed"),
            )
        };
        let (c1, s1) = pair();
        server.attach(Box::new(s1), "local", 0);
        let (_c2, s2) = pair();
        server.attach(Box::new(s2), "local", 0);
        assert_eq!(snap(&server), (2, 2, 0));
        drop(c1);
        server.run_until_idle(3);
        assert_eq!(snap(&server), (2, 1, 1));
        assert_eq!(server.connection_count(), 1);
    }

    #[test]
    fn contended_write_lock_sheds_busy() {
        let (mut server, mut client) = setup();
        send_request(
            &mut client,
            &mut server,
            Request::new(MajorRequest::Auth, &["ops", "test"]),
        );
        server.set_lock_patience(4);
        let obs_before = server.obs().snapshot();
        let dispatched_before = server.dispatch_counts();
        // An outside writer (e.g. a DCM cycle) holds the exclusive lock for
        // the whole pass: the read tier cannot acquire a shared guard and
        // sheds with Busy instead of hanging the loop. The writer lives on
        // its own thread: the loop's thread holding a guard across its own
        // pass is the self-deadlock `Reactor::wait` rejects.
        let state = server.state();
        let (locked, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let writer = {
            let (locked, release) = (locked.clone(), release.clone());
            std::thread::spawn(move || {
                let guard = state.write();
                locked.wait();
                release.wait();
                drop(guard);
            })
        };
        locked.wait();
        client
            .send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
            .unwrap();
        server.poll_once();
        release.wait();
        writer.join().unwrap();
        let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert_eq!(r.code, MrError::Busy.code());
        assert_eq!(server.shed_requests(), 1);
        // Sheds never executed, so they are excluded from the dispatch
        // counters and contribute no zero-time latency samples — the obs
        // snapshot shows one shed, no new dispatches, no new samples.
        assert_eq!(server.dispatch_counts(), dispatched_before);
        let obs_after = server.obs().snapshot();
        assert_eq!(
            obs_after.counter("server.shed_requests") - obs_before.counter("server.shed_requests"),
            1
        );
        assert_eq!(
            obs_after.counter("server.reads_dispatched"),
            obs_before.counter("server.reads_dispatched")
        );
        let read_lat_count =
            |s: &moira_obs::Snapshot| s.histogram("server.latency.read").map(|h| h.count);
        assert_eq!(read_lat_count(&obs_after), read_lat_count(&obs_before));
        // Retry after the writer releases succeeds.
        client
            .send(Request::new(MajorRequest::Query, &["get_user_by_login", "ops"]).encode())
            .unwrap();
        server.run_until_idle(2);
        let r = Reply::decode(recv_blocking(&mut client, 100).unwrap()).unwrap();
        assert!(r.is_more_data());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Reactor::wait would block while this thread holds 1 state guard")]
    fn poll_under_a_held_guard_panics() {
        let (mut server, _client) = setup();
        let state = server.state();
        let _guard = state.read();
        server.poll_once();
    }
}
