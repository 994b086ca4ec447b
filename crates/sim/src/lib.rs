#![warn(missing_docs)]

//! The deployment simulator: a full synthetic Athena.
//!
//! Stands in for MIT's production plant (the substitution the paper's
//! evaluation environment requires): a deterministic population generator
//! scaled to the paper's assumptions (§5.1: 10,000 active users, 20 NFS
//! servers, one Hesiod replica set, one mail hub, Zephyr servers), a
//! deployment builder that wires the Moira server, DCM, Kerberos realm,
//! registration server, and all consumers onto simulated hosts, and a cron
//! driver that advances virtual time.
//!
//! - [`names`] — deterministic person/host name generation.
//! - [`population`] — builds the database through the real query layer.
//! - [`deployment`] — the wired-up system.
//! - [`cron`] — the periodic DCM driver ("the DCM is invoked regularly by
//!   cron at intervals which become the minimum update time for any
//!   service").
//! - [`net`] — the deterministic fault-injecting network fabric every
//!   update connection crosses (partitions and drops).

pub mod cron;
pub mod deployment;
pub mod names;
pub mod net;
pub mod population;

pub use deployment::Deployment;
pub use net::{FabricStats, FaultyChannel, NetFabric};
pub use population::{populate, PopulationReport, PopulationSpec};
