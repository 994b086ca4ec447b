#![warn(missing_docs)]

//! The Data Control Manager (§5.7) and the Moira-to-server update protocol
//! (§5.9).
//!
//! "The data control manager, or DCM, is a program responsible for
//! distributing information to servers … invoked regularly by cron at
//! intervals which become the minimum update time for any service."
//!
//! - [`archive`] — the tar-like single-file container the DCM ships
//!   ("Only one file is transferred, although it may be a tar file
//!   containing many more"), with checksums.
//! - [`host`] — the simulated target host: an atomic-rename filesystem with
//!   failure injection (down, crash mid-transfer, crash mid-execution,
//!   corruption) and a pluggable script runner.
//! - [`update`] — the three-phase update protocol: transfer (with
//!   checksum), execution (atomic swaps, signals, execs), confirm; plus the
//!   trouble-recovery behaviour of §5.9.
//! - [`generators`] — one generator per service file format of §5.8.2:
//!   Hesiod's eleven BIND `.db` files, the NFS credentials/quotas/dirs
//!   files, `/usr/lib/aliases` + the mail-hub passwd file, and the Zephyr
//!   ACL files — each with `MR_NO_CHANGE` incremental logic.
//! - [`dcm`] — the scan algorithm of §5.7.1 over the SERVERS and
//!   SERVERHOSTS relations.
//! - [`net`] — the network between Moira and its hosts, as the update
//!   protocol sees it; the simulator plugs a deterministic fault-injecting
//!   fabric in here.
//! - [`retry`] — the unified soft-failure retry policy: immediate first
//!   retry, exponential backoff with deterministic jitter, escalation of
//!   long streaks to operator-visible hard errors.
//! - [`relay`] — the hierarchical fan-out tier: rack topology with relay
//!   election, and the [`CursorStore`] of per-host patch bases.

pub mod archive;
pub mod dcm;
pub mod generators;
pub mod host;
pub mod net;
pub mod relay;
pub mod retry;
pub mod update;

pub use archive::Archive;
pub use dcm::{Dcm, DcmReport};
pub use host::SimHost;
pub use net::{NetFault, Network, PerfectNetwork};
pub use relay::{CursorStore, FanoutPlan, RackTopology};
pub use retry::{RetryBook, RetryPolicy, SoftOutcome};
