//! The network abstraction between Moira and its server hosts.
//!
//! The paper's trouble-recovery procedures (§5.9) are designed around a
//! network that fails: hosts partition away mid-transfer, links drop
//! packets, connections hang past the timeout. The update protocol itself
//! only sees those failures as connection or transfer errors, so the DCM
//! talks to hosts through this small [`Network`] trait. Production (and the
//! unit tests) use [`PerfectNetwork`]; the simulator substitutes its
//! deterministic fault-injecting fabric (`moira_sim::net::NetFabric`) to
//! reproduce the §5.9 failure matrix end to end.
//!
//! Implementations are `Send + Sync` so that a `Dcm`, which holds its
//! network as an `Arc<dyn Network>`, stays `Send`, and one fabric value
//! can also serve links on other threads. The DCM itself runs every
//! update on its own thread, one host at a time.

use crate::update::UpdateError;

/// A fault injected by the network on one leg of an update connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The host is unreachable: no route, no connection ("tagged for retry
    /// at a later time").
    Partitioned,
    /// The leg's data was lost in transit; the sender never hears back.
    Dropped,
    /// The connection stalled past the protocol timeout ("the connection is
    /// closed, and the installation assumed to have failed").
    TimedOut,
}

impl NetFault {
    /// How the DCM observes this fault through the update protocol. Every
    /// network fault is a *soft* error: the paper retries all of them.
    pub fn to_update_error(self) -> UpdateError {
        match self {
            NetFault::Partitioned => UpdateError::HostDown,
            NetFault::Dropped | NetFault::TimedOut => UpdateError::Timeout,
        }
    }
}

/// The network between Moira and a named host.
///
/// `connect` models connection set-up (one round trip); `transmit` models
/// one data-bearing leg of `len` bytes. Implementations may fail any leg
/// deterministically.
pub trait Network: Send + Sync {
    /// Attempts to establish a connection to `host`.
    fn connect(&self, host: &str) -> Result<(), NetFault>;

    /// Attempts to move `len` bytes to (or from) `host` on an established
    /// connection.
    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault>;
}

/// A network that never fails and takes no time — the default wiring, and
/// the behaviour every pre-fabric caller of the update protocol had.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfectNetwork;

impl Network for PerfectNetwork {
    fn connect(&self, _host: &str) -> Result<(), NetFault> {
        Ok(())
    }

    fn transmit(&self, _host: &str, _len: usize) -> Result<(), NetFault> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_network_never_fails() {
        let net = PerfectNetwork;
        assert_eq!(net.connect("ANY.MIT.EDU"), Ok(()));
        assert_eq!(net.transmit("ANY.MIT.EDU", 1 << 20), Ok(()));
    }

    #[test]
    fn faults_map_to_soft_update_errors() {
        assert_eq!(
            NetFault::Partitioned.to_update_error(),
            UpdateError::HostDown
        );
        assert_eq!(NetFault::Dropped.to_update_error(), UpdateError::Timeout);
        assert_eq!(NetFault::TimedOut.to_update_error(), UpdateError::Timeout);
        for fault in [NetFault::Partitioned, NetFault::Dropped, NetFault::TimedOut] {
            assert!(!fault.to_update_error().is_hard(), "{fault:?}");
        }
    }
}
