//! The `MoiraConn` trait and the RPC client (§5.6.2).

// Connection glue runs in every long-lived client: errors surface as
// `MrError`, never as a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bytes::Bytes;
use moira_common::errors::{MrError, MrResult};
use moira_krb::ticket::{Authenticator, Ticket};
use moira_protocol::transport::{recv_blocking, Channel, TcpChannel};
use moira_protocol::wire::{MajorRequest, Reply, Request};

/// The connection interface shared by the RPC client and the direct glue
/// library — "the direct 'glue' library provides the exact same interface
/// as the RPC library" (§5.6).
pub trait MoiraConn {
    /// `mr_noop`: handshake for testing and performance measurement.
    fn noop(&mut self) -> MrResult<()>;

    /// `mr_auth` in trusted mode: authenticate as a bare principal.
    fn auth(&mut self, principal: &str, client_name: &str) -> MrResult<()>;

    /// `mr_access`: checks the user's access to a query without running it
    /// — "a hint as to whether or not the particular query will succeed, so
    /// that they won't bother to prompt the user for a large number of
    /// arguments if the query is doomed to failure".
    fn access(&mut self, name: &str, args: &[&str]) -> MrResult<()>;

    /// `mr_query`: runs a query; `callback` is invoked once per returned
    /// tuple.
    fn query(
        &mut self,
        name: &str,
        args: &[&str],
        callback: &mut dyn FnMut(&[String]),
    ) -> MrResult<()>;

    /// Requests an immediate DCM run (`Trigger_DCM`).
    fn trigger_dcm(&mut self) -> MrResult<()>;

    /// Convenience: run a query and collect the tuples.
    fn query_collect(&mut self, name: &str, args: &[&str]) -> MrResult<Vec<Vec<String>>> {
        let mut rows = Vec::new();
        self.query(name, args, &mut |tuple| rows.push(tuple.to_vec()))?;
        Ok(rows)
    }
}

/// How long `recv` polls before giving up (spin iterations) — the default
/// per-request deadline.
const RECV_TRIES: u32 = 5_000_000;

/// Default resend attempts when the server sheds a request with `MR_BUSY`.
const BUSY_RETRIES: u32 = 4;

/// Default base for the busy-retry backoff, milliseconds (doubles per
/// attempt).
const BUSY_BACKOFF_BASE_MS: u64 = 1;

/// The RPC client over a framed channel.
pub struct RpcClient {
    chan: Option<Box<dyn Channel>>,
    /// Per-request deadline, in receive-poll iterations.
    recv_tries: u32,
    /// How many times a `MR_BUSY` shed is retried before surfacing.
    busy_retries: u32,
    /// Base backoff between busy retries, milliseconds.
    busy_backoff_base_ms: u64,
    /// Requests resent after a `MR_BUSY` shed, over the client's lifetime.
    pub busy_resends: u64,
}

impl RpcClient {
    /// `mr_connect` over an already-established channel (in-process pair or
    /// TCP).
    pub fn connect(chan: Box<dyn Channel>) -> RpcClient {
        RpcClient {
            chan: Some(chan),
            recv_tries: RECV_TRIES,
            busy_retries: BUSY_RETRIES,
            busy_backoff_base_ms: BUSY_BACKOFF_BASE_MS,
            busy_resends: 0,
        }
    }

    /// `mr_connect` to a TCP address (single attempt).
    pub fn connect_tcp(addr: &str) -> MrResult<RpcClient> {
        RpcClient::connect_tcp_retry(addr, 1, 0)
    }

    /// `mr_connect` to a TCP address with up to `attempts` connection
    /// attempts, sleeping `backoff_ms · 2^n` between consecutive failures —
    /// a server that is restarting (or briefly drowning in connections) is
    /// reached as soon as it returns.
    pub fn connect_tcp_retry(addr: &str, attempts: u32, backoff_ms: u64) -> MrResult<RpcClient> {
        let mut wait = backoff_ms;
        for attempt in 0..attempts.max(1) {
            match TcpChannel::connect(addr) {
                Ok(chan) => return Ok(RpcClient::connect(Box::new(chan))),
                Err(_) if attempt + 1 < attempts.max(1) => {
                    if wait > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(wait));
                        wait = wait.saturating_mul(2);
                    }
                }
                Err(_) => break,
            }
        }
        Err(MrError::Aborted)
    }

    /// Overrides the per-request deadline (receive-poll iterations). Short
    /// deadlines make lost replies surface as [`MrError::Aborted`] quickly
    /// instead of hanging the caller.
    pub fn set_deadline_tries(&mut self, tries: u32) {
        self.recv_tries = tries;
    }

    /// Configures the `MR_BUSY` retry loop: how many resends, and the base
    /// backoff (milliseconds, doubling per attempt). Zero retries surfaces
    /// [`MrError::Busy`] to the caller immediately.
    pub fn set_busy_retry(&mut self, retries: u32, backoff_base_ms: u64) {
        self.busy_retries = retries;
        self.busy_backoff_base_ms = backoff_base_ms;
    }

    /// `mr_disconnect`: drops the connection. Returns
    /// `MR_NOT_CONNECTED` if no connection was there in the first place.
    pub fn disconnect(&mut self) -> MrResult<()> {
        if self.chan.take().is_none() {
            return Err(MrError::NotConnected);
        }
        Ok(())
    }

    /// `mr_auth` with real Kerberos credentials.
    pub fn auth_krb(
        &mut self,
        ticket: &Ticket,
        authenticator: &Authenticator,
        client_name: &str,
    ) -> MrResult<()> {
        let mut req = Request::new(MajorRequest::Auth, &[]);
        req.args = vec![
            Bytes::from(ticket.sealed.clone()),
            Bytes::from(authenticator.sealed.clone()),
            Bytes::copy_from_slice(client_name.as_bytes()),
        ];
        let replies = self.round_trip(req)?;
        status_of(&replies)
    }

    fn chan(&mut self) -> MrResult<&mut Box<dyn Channel>> {
        self.chan.as_mut().ok_or(MrError::NotConnected)
    }

    /// One request/reply exchange, transparently retrying `MR_BUSY` sheds
    /// with exponential backoff — the client half of the server's overload
    /// protection: shed work retries *later*, off the overload peak,
    /// instead of immediately re-piling onto it.
    fn round_trip(&mut self, req: Request) -> MrResult<Vec<Reply>> {
        let mut wait_ms = self.busy_backoff_base_ms;
        let mut attempt = 0u32;
        loop {
            let replies = self.round_trip_once(&req)?;
            let busy = replies
                .last()
                .is_some_and(|r| r.code == MrError::Busy.code());
            if !busy || attempt >= self.busy_retries {
                return Ok(replies);
            }
            attempt += 1;
            self.busy_resends += 1;
            if wait_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(wait_ms));
                wait_ms = wait_ms.saturating_mul(2);
            }
        }
    }

    fn round_trip_once(&mut self, req: &Request) -> MrResult<Vec<Reply>> {
        let deadline = self.recv_tries;
        let chan = self.chan()?;
        if chan.send(req.encode()).is_err() {
            self.chan = None;
            return Err(MrError::Aborted);
        }
        let mut replies = Vec::new();
        loop {
            let frame = match recv_blocking(chan.as_mut(), deadline) {
                Ok(f) => f,
                Err(_) => {
                    self.chan = None;
                    return Err(MrError::Aborted);
                }
            };
            let reply = Reply::decode(frame)?;
            let done = !reply.is_more_data();
            replies.push(reply);
            if done {
                return Ok(replies);
            }
        }
    }
}

fn status_of(replies: &[Reply]) -> MrResult<()> {
    let code = replies
        .last()
        .map(|r| r.code)
        .unwrap_or(MrError::Aborted.code());
    if code == 0 {
        Ok(())
    } else {
        Err(MrError::from_code(code).unwrap_or(MrError::Internal))
    }
}

impl MoiraConn for RpcClient {
    fn noop(&mut self) -> MrResult<()> {
        let replies = self.round_trip(Request::new(MajorRequest::Noop, &[]))?;
        status_of(&replies)
    }

    fn auth(&mut self, principal: &str, client_name: &str) -> MrResult<()> {
        let replies =
            self.round_trip(Request::new(MajorRequest::Auth, &[principal, client_name]))?;
        status_of(&replies)
    }

    fn access(&mut self, name: &str, args: &[&str]) -> MrResult<()> {
        let mut all = vec![name];
        all.extend_from_slice(args);
        let replies = self.round_trip(Request::new(MajorRequest::Access, &all))?;
        status_of(&replies)
    }

    fn query(
        &mut self,
        name: &str,
        args: &[&str],
        callback: &mut dyn FnMut(&[String]),
    ) -> MrResult<()> {
        let mut all = vec![name];
        all.extend_from_slice(args);
        let replies = self.round_trip(Request::new(MajorRequest::Query, &all))?;
        for reply in &replies {
            if reply.is_more_data() {
                callback(&reply.string_fields()?);
            }
        }
        status_of(&replies)
    }

    fn trigger_dcm(&mut self) -> MrResult<()> {
        let replies = self.round_trip(Request::new(MajorRequest::TriggerDcm, &[]))?;
        status_of(&replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server_thread::ServerThread;
    use moira_core::schema::members;
    use moira_core::server::standard_server;

    fn harness() -> (ServerThread, RpcClient) {
        let (server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let thread = ServerThread::spawn(server);
        let client = thread.connect();
        (thread, client)
    }

    #[test]
    fn noop_and_disconnect() {
        let (_thread, mut client) = harness();
        client.noop().unwrap();
        client.disconnect().unwrap();
        assert_eq!(client.disconnect(), Err(MrError::NotConnected));
        assert_eq!(client.noop(), Err(MrError::NotConnected));
    }

    #[test]
    fn query_with_callback() {
        let (_thread, mut client) = harness();
        client.auth("ops", "test").unwrap();
        client
            .query("add_machine", &["BOX1", "VAX"], &mut |_| {})
            .unwrap();
        client
            .query("add_machine", &["BOX2", "RT"], &mut |_| {})
            .unwrap();
        let mut names = Vec::new();
        client
            .query("get_machine", &["BOX*"], &mut |tuple| {
                names.push(tuple[0].clone())
            })
            .unwrap();
        assert_eq!(names, vec!["BOX1", "BOX2"]);
        let rows = client.query_collect("get_machine", &["BOX1"]).unwrap();
        assert_eq!(rows[0][1], "VAX");
    }

    #[test]
    fn errors_map_back() {
        let (_thread, mut client) = harness();
        client.auth("ops", "test").unwrap();
        assert_eq!(
            client.query_collect("get_machine", &["NOPE"]).unwrap_err(),
            MrError::NoMatch
        );
        assert_eq!(
            client.query_collect("no_such_query", &[]).unwrap_err(),
            MrError::NoHandle
        );
        assert_eq!(
            client.query_collect("get_machine", &[]).unwrap_err(),
            MrError::Args
        );
    }

    #[test]
    fn busy_shed_retries_then_surfaces() {
        // A server with a zero dispatch budget sheds everything; the
        // client's backoff loop resends the configured number of times and
        // then surfaces the distinct Busy error (not Aborted, not a hang).
        let (mut server, _state, _) = standard_server(moira_common::VClock::new());
        server.set_overload_limit(Some(0));
        let thread = ServerThread::spawn(server);
        let mut client = thread.connect();
        client.set_busy_retry(2, 0);
        assert_eq!(client.noop(), Err(MrError::Busy));
        assert_eq!(client.busy_resends, 2);
        // With retries disabled the shed surfaces immediately.
        let mut impatient = thread.connect();
        impatient.set_busy_retry(0, 0);
        assert_eq!(impatient.noop(), Err(MrError::Busy));
        assert_eq!(impatient.busy_resends, 0);
    }

    #[test]
    fn short_deadline_aborts_lost_reply() {
        // A channel nobody answers: the configured deadline turns a lost
        // reply into a prompt Aborted instead of a five-million-spin hang.
        let (client_end, _server_end) = moira_protocol::transport::pair();
        let mut client = RpcClient::connect(Box::new(client_end));
        client.set_deadline_tries(50);
        assert_eq!(client.noop(), Err(MrError::Aborted));
    }

    #[test]
    fn connect_tcp_retry_reaches_late_listener() {
        use std::net::TcpListener;
        // Nothing listening: all attempts fail, Aborted.
        assert!(RpcClient::connect_tcp_retry("127.0.0.1:1", 2, 1).is_err());
        // A listener that exists from the start is reached on attempt one.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        assert!(RpcClient::connect_tcp_retry(&addr, 3, 1).is_ok());
    }

    #[test]
    fn access_hint() {
        let (_thread, mut client) = harness();
        assert_eq!(
            client.access("add_machine", &["X", "VAX"]),
            Err(MrError::Perm)
        );
        client.auth("ops", "test").unwrap();
        client.access("add_machine", &["X", "VAX"]).unwrap();
    }
}
