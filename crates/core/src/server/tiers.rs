//! Stages 3 and 4 of a poll pass: the two dispatch tiers.
//!
//! The shared tier runs every [`Work::Read`] slot under read guards, on a
//! worker pool whose width-1 case is the calling thread. The exclusive
//! tier drains every serial slot in arrival order under one write guard
//! and ends with the group-commit flush. Both take classified slots and
//! the connections' [`Session`]s and leave [`Work::Done`] behind; neither
//! sees a channel. Guard acquisition
//! is bounded — a tier that cannot get its guard within the configured
//! patience sheds its slots with `MR_BUSY` instead of blocking the loop.

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
const DEFAULT_LOCK_PATIENCE: u32 = 512;

/// One shared-tier result: slot index, replies, and the handler's service
/// time — `None` when the request was shed with `Busy` instead of executed.
type ReadOutcome = (usize, Vec<Reply>, Option<u64>);

/// The state a tier holds while it answers a call.
enum Tier<'a> {
    Shared(&'a MoiraState),
    Exclusive(&'a mut MoiraState),
}

/// The dispatch half of the server: what the tiers run against, how wide
/// and how patiently, and what they have executed so far.
pub(super) struct Tiers {
    pub state: SharedState,
    pub registry: Arc<Registry>,
    verifier: Option<Verifier>,
    /// Shared-tier pool width, ≥ 1. At 1, or for a single read, the pool
    /// is the calling thread.
    pub read_workers: usize,
    /// Bounded lock-acquisition budget before shedding with `Busy`.
    pub lock_patience: u32,
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
        let read_workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
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
            read_workers,
            lock_patience: DEFAULT_LOCK_PATIENCE,
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

    /// The shared tier: every `Read` slot runs under a read guard,
    /// round-robined over `read_workers` chunks when there is more than
    /// one of each. The calling thread runs the first chunk itself and
    /// scoped threads the rest, so a width-`w` pass spawns `w − 1`. Each
    /// worker holds one guard for its whole chunk.
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
        let (registry, state) = (&*self.registry, &self.state);
        let patience = self.lock_patience;
        // The wait this batch is charged: reactor readiness to dispatch.
        let wait_ns = ready_at.elapsed().as_nanos() as u64;
        let workers = self.read_workers.clamp(1, ids.len());
        let chunks: Vec<Vec<usize>> = (0..workers)
            .map(|w| ids.iter().copied().skip(w).step_by(workers).collect())
            .collect();
        let (own, spawned) = chunks.split_at(1);
        let slots = &*tasks;
        let outcomes: Vec<ReadOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = spawned
                .iter()
                .map(|chunk| {
                    scope
                        .spawn(move || run_chunk(registry, state, patience, sessions, slots, chunk))
                })
                .collect();
            let mut outcomes = run_chunk(registry, state, patience, sessions, slots, &own[0]);
            for (handle, chunk) in handles.into_iter().zip(spawned) {
                // A spawned worker that panicked sheds its chunk as Busy
                // rather than taking the daemon down.
                outcomes.extend(
                    handle
                        .join()
                        .unwrap_or_else(|_| chunk.iter().map(|&id| (id, busy(), None)).collect()),
                );
            }
            outcomes
        });
        for (id, replies, nanos) in outcomes {
            match nanos {
                // Sheds are excluded from the counters and histograms so
                // the service-time distribution reflects real executions.
                Some(nanos) => {
                    self.reads_dispatched += 1;
                    self.obs_reads.inc();
                    self.obs_read_latency.record(nanos);
                    self.obs_ready_latency.record(wait_ns);
                }
                None => self.count_sheds(1),
            }
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
        let Some(mut guard) = patiently(self.lock_patience, || state.try_write()) else {
            self.count_sheds(ids.len() as u64);
            for id in ids {
                tasks[id].work = Work::Done(busy());
            }
            return;
        };
        self.writes_dispatched += ids.len() as u64;
        self.obs_writes.add(ids.len() as u64);
        let wait_ns = ready_at.elapsed().as_nanos() as u64;
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
                    let tier = Tier::Exclusive(&mut guard);
                    answer(&self.registry, tier, &session.caller, call)
                }
                Work::TriggerDcm => vec![trigger_dcm(&session.caller, &mut guard)],
                _ => continue,
            };
            self.obs_write_latency
                .record(t0.elapsed().as_nanos() as u64);
            self.obs_ready_latency.record(wait_ns);
            tasks[id].work = Work::Done(replies);
        }
        // Group commit: one fsync (at most — the flush interval can defer
        // it) covers every mutation in this batch, and it happens before
        // any reply is sent, so an acknowledged commit is as durable as
        // the configured policy promises. A failed flush is counted, not
        // fatal: the WAL append already carried the error to the owning
        // request if the media is truly dead. Like that append, the flush
        // blocks under the write guard by design: the guard orders commits.
        let now = guard.db.now();
        if guard.storage.maybe_flush(now).is_err() {
            guard.obs.counter("db.wal.flush_errors").inc();
        }
    }
}

/// One pool worker: takes a shared guard, answers its chunk of `Read`
/// slots, and sheds the whole chunk if the guard never came.
fn run_chunk(
    registry: &Registry,
    state: &SharedState,
    patience: u32,
    sessions: &[Session],
    tasks: &[TaskSlot],
    chunk: &[usize],
) -> Vec<ReadOutcome> {
    let guard = patiently(patience, || state.try_read());
    chunk
        .iter()
        .map(|&id| {
            let slot = &tasks[id];
            let (Some(guard), Work::Read(call)) = (&guard, &slot.work) else {
                return (id, busy(), None);
            };
            let t0 = Instant::now();
            let caller = &sessions[slot.conn].caller;
            let replies = answer(registry, Tier::Shared(guard), caller, call);
            (id, replies, Some(t0.elapsed().as_nanos() as u64))
        })
        .collect()
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

/// Bounded lock acquisition: yields between attempts, gives up after the
/// configured patience so contention surfaces as `Busy`.
fn patiently<G>(patience: u32, try_lock: impl Fn() -> Option<G>) -> Option<G> {
    for _ in 0..patience {
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
    /// channel anywhere — at pool widths 1 and 4.
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
        for workers in [1, 4] {
            let (s, _) = crate::queries::testutil::state_with_admin("ops");
            let registry = Arc::new(Registry::standard());
            let mut tiers = Tiers::new(crate::state::shared(s), registry, None);
            tiers.read_workers = workers;
            let mut sessions: Vec<Session> = (0..3).map(Session::new).collect();
            let frames =
                batch.map(|(conn, major, args)| (conn, Request::new(major, args).encode()));
            let (mut tasks, _) = classify(&tiers.registry, frames.to_vec(), None);
            let ready_at = Instant::now();
            tiers.run_read_tier(&sessions, &mut tasks, ready_at);
            tiers.run_write_tier(&mut sessions, &mut tasks, ready_at);
            let who: Vec<&str> = sessions.iter().map(|s| s.caller.who()).collect();
            assert_eq!(who, ["ops", "???", "???"], "only conn 0 authenticated");
            let codes = tasks.into_iter().map(|t| t.work.into_replies());
            let codes: Vec<Vec<i32>> = codes.map(|r| r.iter().map(|r| r.code).collect()).collect();
            assert_eq!(codes, want, "pool width {workers}");
            assert_eq!((tiers.reads_dispatched, tiers.writes_dispatched), (2, 4));
            assert_eq!(tiers.shed_requests, 0);
        }
    }
}
