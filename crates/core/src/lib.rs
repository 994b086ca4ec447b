#![warn(missing_docs)]

//! The Moira server — the paper's primary contribution.
//!
//! Moira provides "a single point of contact for administrative changes
//! that affect more than one Athena service" (§2). This crate implements
//! the server side of that contract:
//!
//! - [`schema`] — the 21 relations of §6 (USERS through TBLSTATS).
//! - [`seed`] — the initial aliases, values, capability ACLs and bootstrap
//!   lists a fresh database needs.
//! - [`state`] — [`state::MoiraState`]: database, journal, access cache,
//!   connected-client registry.
//! - [`ids`] — ID allocation from the `values` relation's hints.
//! - [`ace`] — access control entities (USER / LIST / NONE) and recursive
//!   list-membership resolution.
//! - [`access`] — per-query ACL checks via the CAPACLS relation, with the
//!   access cache §5.5 anticipates ("some form of access caching will
//!   eventually be worked into the server").
//! - [`registry`] — the query-handle catalog: every predefined query of §7,
//!   with argument signatures, validation, and access rules.
//! - [`queries`] — the handlers themselves, one module per §7 sub-section.
//! - [`reactor`] — readiness event collection over the `polling` shim
//!   (epoll/kqueue/poll(2)): the connection tier's single blocking point.
//! - [`server`] — the single-process, non-blocking connection loop
//!   dispatching Noop / Auth / Query / Access / Trigger_DCM (§5.3–§5.4).
//! - [`userreg`] — the registration server of §5.10 (verify_user,
//!   grab_login, set_password) with its encrypted-ID authenticator scheme.

//! - [`recovery`] — durable boot: snapshot load + WAL replay that
//!   preserves the database epoch and per-row generations across crashes.

pub mod access;
pub mod ace;
pub mod ids;
pub mod queries;
pub mod reactor;
pub mod recovery;
pub mod registry;
pub mod schema;
pub mod seed;
pub mod server;
pub mod state;
pub mod userreg;

pub use reactor::Waker;
pub use recovery::{boot_durable, BootReport};
pub use registry::{QueryHandle, QueryKind, Registry};
pub use server::MoiraServer;
pub use state::{Caller, MoiraState};
