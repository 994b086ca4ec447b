//! Stage 3 of a host's update — the network, on the DCM thread. Nothing
//! here touches the database or the DCM's own state, only the prepared
//! job, the network, and the simulated host.

use super::prepare::UpdateJob;
use crate::net::Network;
use crate::update::{run_update, TransferStats, UpdateError};

/// One job's network legs: the whole update protocol against its host.
pub(super) fn run_transfer(
    net: &dyn Network,
    job: &UpdateJob,
) -> (Result<(), UpdateError>, TransferStats) {
    // No such host is a connection failure as far as the retry ledger is
    // concerned.
    let Some(host) = &job.host else {
        let stats = TransferStats {
            failed_leg: Some("connect"),
            ..TransferStats::default()
        };
        return (Err(UpdateError::HostDown), stats);
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
