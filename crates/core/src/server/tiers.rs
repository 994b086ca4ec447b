//! Stages 3 and 4 of a poll pass: the two dispatch tiers.
//!
//! Both run on the thread that runs the pass and take one guard each per
//! pass. The shared tier answers every [`Work::Read`] slot in slot order
//! under a read guard, so a DCM generation holding its own read guard does
//! not block it. The exclusive tier then drains every serial slot in
//! arrival order under the write guard and ends with the group-commit
//! flush. Both take classified slots and the connections' [`Session`]s and
//! leave [`Work::Done`] behind; neither sees a channel. Guard acquisition
//! is bounded — a tier that cannot get its guard within [`LOCK_PATIENCE`]
//! attempts sheds its slots with `MR_BUSY` instead of blocking the loop.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use moira_common::errors::MrError;
use moira_krb::ticket::{Authenticator, Ticket, Verifier};
use moira_protocol::wire::Reply;

use super::classify::{busy, Call, TaskSlot, Work};
use super::Session;
use crate::access;
use crate::registry::Registry;
use crate::state::{Caller, MoiraState, SharedState};

/// Try-lock attempts (with a scheduler yield between each) before a tier
/// gives up on its guard and sheds the batch with `MR_BUSY`.
const LOCK_PATIENCE: u32 = 512;

/// The state a tier holds while it answers a call.
enum Tier<'a> {
    Shared(&'a MoiraState),
    Exclusive(&'a mut MoiraState),
}

/// The dispatch half of the server: what the tiers run against and what
/// they have executed so far.
pub(super) struct Tiers {
    pub state: SharedState,
    pub registry: Arc<Registry>,
    verifier: Option<Verifier>,
    /// Requests executed on the shared tier (sheds are not counted).
    pub reads_dispatched: u64,
    /// Requests executed on the exclusive tier (sheds are not counted).
    pub writes_dispatched: u64,
    /// Requests shed with `Busy` over the server's lifetime.
    pub shed_requests: u64,
    /// The state's instrument registry (cached so the dispatch path never
    /// takes the state lock just to record).
    pub obs: moira_obs::Registry,
    obs_reads: moira_obs::Counter,
    obs_writes: moira_obs::Counter,
    obs_sheds: moira_obs::Counter,
    /// Shared-tier handler service times.
    obs_read_latency: moira_obs::Histo,
    /// Exclusive-tier handler service times.
    obs_write_latency: moira_obs::Histo,
    /// Readiness-to-dispatch wait: time from the reactor wait returning to
    /// a request beginning execution on its tier.
    obs_ready_latency: moira_obs::Histo,
}

impl Tiers {
    pub fn new(state: SharedState, registry: Arc<Registry>, verifier: Option<Verifier>) -> Tiers {
        let obs = state.read().obs.clone();
        Tiers {
            obs_reads: obs.counter("server.reads_dispatched"),
            obs_writes: obs.counter("server.writes_dispatched"),
            obs_sheds: obs.counter("server.shed_requests"),
            obs_read_latency: obs.histogram("server.latency.read"),
            obs_write_latency: obs.histogram("server.latency.write"),
            obs_ready_latency: obs.histogram("server.latency.readiness_to_dispatch"),
            obs,
            state,
            registry,
            verifier,
            reads_dispatched: 0,
            writes_dispatched: 0,
            shed_requests: 0,
        }
    }

    /// Counts requests answered `Busy` without executing.
    pub fn count_sheds(&mut self, n: u64) {
        self.shed_requests += n;
        self.obs_sheds.add(n);
    }

    /// Answers the slots `ids` with `Busy`: their tier never got its guard.
    fn shed(&mut self, tasks: &mut [TaskSlot], ids: Vec<usize>) {
        self.count_sheds(ids.len() as u64);
        for id in ids {
            tasks[id].work = Work::Done(busy());
        }
    }

    /// The shared tier: every `Read` slot, in slot order, under one read
    /// guard held by the thread running the pass. The whole batch is shed
    /// with `Busy` if the guard never comes.
    pub fn run_read_tier(
        &mut self,
        sessions: &[Session],
        tasks: &mut [TaskSlot],
        ready_at: Instant,
    ) {
        let ids: Vec<usize> = (0..tasks.len())
            .filter(|&i| matches!(tasks[i].work, Work::Read(_)))
            .collect();
        if ids.is_empty() {
            return;
        }
        let state = self.state.clone();
        let Some(guard) = patiently(|| state.try_read()) else {
            return self.shed(tasks, ids);
        };
        self.reads_dispatched += ids.len() as u64;
        self.obs_reads.add(ids.len() as u64);
        for id in ids {
            let Work::Read(call) = &tasks[id].work else {
                continue;
            };
            let t0 = Instant::now();
            let caller = &sessions[tasks[id].conn].caller;
            let replies = answer(&self.registry, Tier::Shared(&guard), caller, call);
            self.obs_read_latency.record(t0.elapsed().as_nanos() as u64);
            self.obs_ready_latency
                .record(t0.duration_since(ready_at).as_nanos() as u64);
            tasks[id].work = Work::Done(replies);
        }
    }

    /// The exclusive tier: every serial slot, in arrival order, under one
    /// write guard, then the group-commit flush.
    ///
    /// `Authenticate` installs the new caller in its connection's session
    /// at once, and every slot reads its session when it runs — the tier
    /// runs in arrival order, so a request pipelined behind an `Auth`
    /// executes under the just-authenticated principal, never a stale one.
    pub fn run_write_tier(
        &mut self,
        sessions: &mut [Session],
        tasks: &mut [TaskSlot],
        ready_at: Instant,
    ) {
        let ids: Vec<usize> = (0..tasks.len())
            .filter(|&i| tasks[i].work.is_serial())
            .collect();
        if ids.is_empty() {
            return;
        }
        let state = self.state.clone();
        let Some(mut guard) = patiently(|| state.try_write()) else {
            return self.shed(tasks, ids);
        };
        self.writes_dispatched += ids.len() as u64;
        self.obs_writes.add(ids.len() as u64);
        // The write slots whose call journaled a commit: the flush below
        // decides whether they may be acknowledged.
        let mut journaled = Vec::new();
        for id in ids {
            let session = &mut sessions[tasks[id].conn];
            let t0 = Instant::now();
            let replies = match &tasks[id].work {
                Work::Auth(args) => match authenticate(self.verifier.as_ref(), args) {
                    Ok(caller) => {
                        let number = session.client_number;
                        if let Some(c) =
                            guard.clients.iter_mut().find(|c| c.client_number == number)
                        {
                            c.principal = caller.principal.clone();
                        }
                        session.caller = caller;
                        vec![Reply::status(0)]
                    }
                    Err(e) => vec![Reply::status(e.code())],
                },
                Work::Write(call) => {
                    let before = guard.journal.len();
                    let tier = Tier::Exclusive(&mut guard);
                    let replies = answer(&self.registry, tier, &session.caller, call);
                    if guard.journal.len() != before {
                        journaled.push(id);
                    }
                    replies
                }
                Work::TriggerDcm => vec![trigger_dcm(&session.caller, &mut guard)],
                _ => continue,
            };
            self.obs_write_latency
                .record(t0.elapsed().as_nanos() as u64);
            self.obs_ready_latency
                .record(t0.duration_since(ready_at).as_nanos() as u64);
            tasks[id].work = Work::Done(replies);
        }
        // Group commit: one fsync (at most — the flush interval can defer
        // it) covers every mutation in this batch, and it happens before
        // any reply is sent, so an acknowledged commit is as durable as
        // the configured policy promises. A failed flush is counted, and
        // every write it covered answers `MR_DURABILITY` — the rule
        // `Registry::execute` applies to a failed append: the in-memory
        // change stands, but its durability cannot be promised. Like that
        // append, the flush blocks under the write guard by design: the
        // guard orders commits.
        let now = guard.db.now();
        if guard.storage.maybe_flush(now).is_err() {
            guard.obs.counter("db.wal.flush_errors").inc();
            for id in journaled {
                if let Work::Done(replies) = &mut tasks[id].work {
                    if let Some(last) = replies.last_mut() {
                        *last = Reply::status(MrError::Durability.code());
                    }
                }
            }
        }
    }
}

/// Arguments in, replies out — the one place either tier runs a call: an
/// `Access` pre-check answers with a bare status, an execution streams
/// its tuples ahead of the final status.
fn answer(registry: &Registry, tier: Tier<'_>, caller: &Caller, call: &Call) -> Vec<Reply> {
    let (name, args) = (&call.args[0], &call.args[1..]);
    let result = if call.access {
        let state: &MoiraState = match &tier {
            Tier::Shared(state) => state,
            Tier::Exclusive(state) => state,
        };
        registry
            .check_access(state, caller, name, args)
            .map(|()| Vec::new())
    } else {
        match tier {
            Tier::Shared(state) => registry.execute_read(state, caller, name, args),
            Tier::Exclusive(state) => registry.execute(state, caller, name, args),
        }
    };
    match result {
        Ok(tuples) => {
            let mut replies: Vec<Reply> = tuples.iter().map(|t| Reply::tuple(t)).collect();
            replies.push(Reply::status(0));
            replies
        }
        Err(e) => vec![Reply::status(e.code())],
    }
}

/// Resolves an `Authenticate` request to the caller it establishes. With a
/// verifier the arguments are `[ticket, authenticator, client_name]`;
/// without one (trusted mode) they are `[principal, client_name]`.
fn authenticate(verifier: Option<&Verifier>, args: &[Bytes]) -> Result<Caller, MrError> {
    let principal = match (verifier, args) {
        (None, [principal, _]) => std::str::from_utf8(principal)
            .map_err(|_| MrError::BadChar)?
            .to_owned(),
        (Some(verifier), [ticket, auth, _]) => {
            let ticket = Ticket {
                sealed: ticket.to_vec(),
            };
            let auth = Authenticator {
                sealed: auth.to_vec(),
            };
            verifier.verify(&ticket, &auth).map_err(|e| match e {
                moira_krb::realm::KrbError::Replay => MrError::Replay,
                _ => MrError::AuthFailure,
            })?
        }
        _ => return Err(MrError::Args),
    };
    let client_name = args
        .last()
        .and_then(|b| std::str::from_utf8(b).ok())
        .unwrap_or("unknown");
    Ok(Caller::new(&principal, client_name))
}

fn trigger_dcm(caller: &Caller, state: &mut MoiraState) -> Reply {
    // "Access checking is done by checking permissions for the
    // pseudo-query trigger_dcm (tdcm)."
    if !access::caller_has_capability(state, caller, "trigger_dcm") {
        return Reply::status(MrError::Perm.code());
    }
    state.dcm_trigger = true;
    Reply::status(0)
}

/// Bounded lock acquisition: yields between attempts, gives up after
/// [`LOCK_PATIENCE`] so contention surfaces as `Busy`.
fn patiently<G>(try_lock: impl Fn() -> Option<G>) -> Option<G> {
    for _ in 0..LOCK_PATIENCE {
        if let Some(guard) = try_lock() {
            return Some(guard);
        }
        std::thread::yield_now();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::super::classify::classify;
    use super::*;
    use moira_protocol::wire::{MajorRequest, MajorRequest::*, Request};

    /// One batch through classify and both tiers as plain data — no
    /// channel anywhere.
    #[test]
    fn one_batch_through_both_tiers_on_plain_slots() {
        let batch: [(usize, MajorRequest, &[&str]); 6] = [
            // Conn 0: the mutation and the read behind its Auth run as ops.
            (0, Auth, &["ops", "test"]),
            (0, Query, &["add_machine", "PLAIN", "VAX"]),
            (0, Query, &["get_machine", "PLAIN"]),
            // Conn 1 stays anonymous — conn 0's identity does not leak —
            // and its read ran on the shared tier, ahead of the write.
            (1, Query, &["get_machine", "PLAIN"]),
            (1, Query, &["add_machine", "NOPE", "VAX"]),
            (2, Access, &["add_machine", "X", "VAX"]),
        ];
        let (no_match, perm) = (MrError::NoMatch.code(), MrError::Perm.code());
        let want = [
            vec![0],
            vec![0],
            vec![MrError::MoreData.code(), 0],
            vec![no_match],
            vec![perm],
            vec![perm],
        ];
        let (s, _) = crate::queries::testutil::state_with_admin("ops");
        let registry = Arc::new(Registry::standard());
        let mut tiers = Tiers::new(crate::state::shared(s), registry, None);
        let mut sessions: Vec<Session> = (0..3).map(Session::new).collect();
        let frames = batch.map(|(conn, major, args)| (conn, Request::new(major, args).encode()));
        let (mut tasks, _) = classify(&tiers.registry, frames.to_vec(), None);
        let ready_at = Instant::now();
        tiers.run_read_tier(&sessions, &mut tasks, ready_at);
        tiers.run_write_tier(&mut sessions, &mut tasks, ready_at);
        let who: Vec<&str> = sessions.iter().map(|s| s.caller.who()).collect();
        assert_eq!(who, ["ops", "???", "???"], "only conn 0 authenticated");
        let codes = tasks.into_iter().map(|t| t.work.into_replies());
        let codes: Vec<Vec<i32>> = codes.map(|r| r.iter().map(|r| r.code).collect()).collect();
        assert_eq!(codes, want);
        assert_eq!((tiers.reads_dispatched, tiers.writes_dispatched), (2, 4));
        assert_eq!(tiers.shed_requests, 0);
    }
}
