//! Stage 3 of a leg — the network. A wave's prepared jobs run on the
//! bounded fan-out pool; nothing here touches the database or the DCM's
//! own state, only the jobs, the network, and the simulated hosts.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use super::prepare::UpdateJob;
use super::Dcm;
use crate::net::Network;
use crate::update::{run_update, TransferStats, UpdateError};

/// What one transferred leg came back with: the protocol result, its byte
/// accounting, and the leg's wall time in nanoseconds.
pub(super) type LegOutcome = (Result<(), UpdateError>, TransferStats, u64);

impl Dcm {
    /// Runs prepared jobs' network legs with bounded concurrency:
    /// `fanout_width` workers claim jobs off a shared counter. For a
    /// replicated service the first hard failure raises a stop flag —
    /// running legs finish, unclaimed jobs stay absent from the result
    /// map (keyed by the job's todo index).
    pub(super) fn run_wave(
        &self,
        jobs: &[(usize, UpdateJob)],
        replicated: bool,
    ) -> HashMap<usize, LegOutcome> {
        let width = self.fanout_width.min(jobs.len());
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let results = Mutex::new(HashMap::with_capacity(jobs.len()));
        let net = self.net.as_ref();
        let worker = || loop {
            if stop.load(Ordering::Acquire) {
                break;
            }
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some((i, job)) = jobs.get(k) else { break };
            let t0 = Instant::now();
            let (result, tstats) = run_transfer(net, job);
            if replicated && matches!(&result, Err(e) if e.is_hard()) {
                stop.store(true, Ordering::Release);
            }
            results
                .lock()
                .insert(*i, (result, tstats, t0.elapsed().as_nanos() as u64));
        };
        if width <= 1 {
            // A pool of one is the DCM thread.
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..width {
                    scope.spawn(worker);
                }
            });
        }
        results.into_inner()
    }
}

/// One job's network legs, off the DCM thread.
fn run_transfer(net: &dyn Network, job: &UpdateJob) -> (Result<(), UpdateError>, TransferStats) {
    let failed_on = |leg| {
        let stats = TransferStats {
            failed_leg: Some(leg),
            ..TransferStats::default()
        };
        (Err(UpdateError::HostDown), stats)
    };
    // A leaf leg first probes its rack relay. A dead relay costs this one
    // check — not a full per-leaf timeout — and is charged to the "relay"
    // leg so the retry ledger and obs can tell the tiers apart. The guard
    // is statement-scoped: dropped before the leaf host locks.
    if let Some(relay) = &job.relay {
        let relay_up = relay.lock().reachable();
        if !relay_up {
            return failed_on("relay");
        }
    }
    // No such host is a connection failure as far as the retry ledger is
    // concerned.
    let Some(host) = &job.host else {
        return failed_on("connect");
    };
    run_update(
        net,
        &mut host.lock(),
        job.credentials.as_ref(),
        &job.archive,
        job.prev.as_deref(),
        &job.target,
        &job.script,
    )
}
