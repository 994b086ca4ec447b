#![warn(missing_docs)]

//! Shared infrastructure for the Moira reproduction.
//!
//! This crate provides the pieces of the Athena environment that every other
//! crate leans on, mirroring the utility layer described in §5.6 of the
//! paper:
//!
//! - [`errors`] — the `com_err` error-table system and the full `MR_*` error
//!   code set from §7.1 of the paper.
//! - [`wildcard`] — the INGRES-style `*`/`?` pattern matcher used by
//!   retrieval queries.
//! - [`strutil`] — string utilities (trim, hostname canonicalization,
//!   flag conversion) listed in §5.6.3.
//! - [`hashtab`] — the hash-table abstraction the application library
//!   ships (§5.6.3).
//! - [`menu`] — the menu package used by the administrative clients.
//! - [`clock`] — a virtual clock so DCM intervals and modtimes are
//!   deterministic under test and in the deployment simulator.
//! - [`rng`] — a small deterministic PRNG for reproducible workloads.
//! - [`lockorder`] — the per-thread held-set and server-pass flag that the
//!   blocking seams assert against in debug builds.

pub mod clock;
pub mod crc;
pub mod errors;
pub mod hashtab;
pub mod lockorder;
pub mod menu;
pub mod rng;
pub mod strutil;
pub mod wildcard;

pub use clock::VClock;
pub use errors::{error_message, MrError, MrResult};
pub use rng::Mt;
