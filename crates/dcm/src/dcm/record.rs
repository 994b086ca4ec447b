//! Stage 4 of a host's update — everything after the network returns: obs
//! counters, the cursor advance, the retry ledger and operator notices,
//! the final server-host row write that clears `inprogress`; and a
//! replicated service's stop-on-hard-failure.
//!
//! Also everything else the DCM writes down, for every stage: its columns
//! of the `servers` and `serverhosts` rows (two typed writers over the
//! `set_server_internal_flags` / `set_server_host_internal` queries), its
//! notices, and the stats and report a run hands back.

use std::sync::Arc;

use moira_core::state::{Caller, MoiraState};

use super::scan::ServiceInfo;
use super::Dcm;
use crate::archive::Archive;
use crate::retry::SoftOutcome;
use crate::update::{TransferStats, UpdateError};

/// A notification emitted on hard failures — "a zephyr message is sent to
/// class MOIRA instance DCM", and for host failures "a zephyrgram and mail
/// are sent about it".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notice {
    /// `"zephyr"` or `"mail"`.
    pub kind: &'static str,
    /// Zephyr class / mail recipient.
    pub target: String,
    /// Zephyr instance (empty for mail).
    pub instance: String,
    /// Message body.
    pub message: String,
}

/// Counters across the DCM's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcmStats {
    /// run_once invocations that actually scanned.
    pub scans: u64,
    /// Services whose files were (re)generated.
    pub generations: u64,
    /// Generation attempts suppressed by `MR_NO_CHANGE`.
    pub no_changes: u64,
    /// Refreshes that took the full-rebuild path (first run, lost data
    /// files, or cursor invalidation — restore, replay).
    pub full_rebuilds: u64,
    /// Refreshes that replayed row deltas against a cached build.
    pub delta_builds: u64,
    /// Host updates attempted.
    pub updates_attempted: u64,
    /// Host updates confirmed successful.
    pub updates_succeeded: u64,
    /// Soft failures (retried later).
    pub soft_failures: u64,
    /// Hard failures (need operator reset).
    pub hard_failures: u64,
    /// Updates skipped because the backoff gate had not reopened (or the
    /// per-pass retry budget was spent).
    pub retries_deferred: u64,
    /// Soft-failure streaks escalated to operator-visible hard errors.
    pub escalations: u64,
}

/// What one `run_once` did.
#[derive(Debug, Clone, Default)]
pub struct DcmReport {
    /// DCM exited immediately (disable file or `dcm_enable` = 0).
    pub disabled: bool,
    /// Services whose data files were regenerated, with file count and
    /// total bytes.
    pub generated: Vec<(String, usize, usize)>,
    /// Services skipped as unchanged.
    pub unchanged: Vec<String>,
    /// Per-host update outcomes: `(service, host, result)`.
    pub updates: Vec<(String, String, Result<(), UpdateError>)>,
}

/// The DCM-written columns of a `servers` row
/// (`set_server_internal_flags`); the default is an idle, error-free
/// service.
#[derive(Default)]
pub(super) struct ServiceFlags {
    pub dfgen: i64,
    pub dfcheck: i64,
    pub inprogress: bool,
    pub harderror: i32,
    pub errmsg: String,
}

/// The DCM-written columns of a `serverhosts` row
/// (`set_server_host_internal`); the default is an idle, unsuccessful,
/// error-free host with `lts` 0.
#[derive(Default)]
pub(super) struct HostFlags {
    pub success: bool,
    pub inprogress: bool,
    pub hosterror: i32,
    pub errmsg: String,
    pub lts: i64,
}

impl Dcm {
    /// Runs one of the DCM's internal bookkeeping queries. A failure (the
    /// row vanished under an operator's delete) is the next scan's problem.
    fn exec(&self, state: &mut MoiraState, query: &str, args: &[String]) {
        // "It connects to the database and authenticates as root."
        let root = Caller::root("dcm");
        let _ = self.registry.execute(state, &root, query, args);
    }

    /// The DCM's own columns of a `servers` row.
    pub(super) fn set_service_flags(
        &self,
        state: &mut MoiraState,
        service: &str,
        flags: ServiceFlags,
    ) {
        let args = [
            service.to_owned(),
            flags.dfgen.to_string(),
            flags.dfcheck.to_string(),
            i32::from(flags.inprogress).to_string(),
            flags.harderror.to_string(),
            flags.errmsg,
        ];
        self.exec(state, "set_server_internal_flags", &args);
    }

    /// The DCM's own columns of a `serverhosts` row, stamping `ltt` with
    /// the current time. Every write is part of an attempt, and an attempt
    /// clears `override`.
    pub(super) fn set_host_flags(
        &self,
        state: &mut MoiraState,
        service: &str,
        mach: &str,
        flags: HostFlags,
    ) {
        let args = [
            service.to_owned(),
            mach.to_owned(),
            "0".to_owned(),
            i32::from(flags.success).to_string(),
            i32::from(flags.inprogress).to_string(),
            flags.hosterror.to_string(),
            flags.errmsg,
            state.now().to_string(),
            flags.lts.to_string(),
        ];
        self.exec(state, "set_server_host_internal", &args);
    }

    /// "a zephyr message is sent to class MOIRA instance DCM".
    pub(super) fn zephyr(&mut self, message: String) {
        self.notices.push(Notice {
            kind: "zephyr",
            target: "MOIRA".to_owned(),
            instance: "DCM".to_owned(),
            message,
        });
    }

    /// A host's hard failure: "a zephyrgram and mail are sent about it".
    pub(super) fn zephyr_and_mail(&mut self, zephyr: String, mail: String) {
        self.zephyr(zephyr);
        self.notices.push(Notice {
            kind: "mail",
            target: "moira-maintainers".to_owned(),
            instance: String::new(),
            message: mail,
        });
    }

    /// Records one host's outcome and hands it back. `archive` is what the
    /// update tried to install (`None` when it never got that far).
    pub(super) fn record_update(
        &mut self,
        svc: &ServiceInfo,
        dfgen: i64,
        mach_name: &str,
        archive: Option<&Arc<Archive>>,
        result: Result<(), UpdateError>,
        tstats: &TransferStats,
    ) -> Result<(), UpdateError> {
        self.count_transfer(tstats);
        // Only a confirmed install advances the patch cursor: on any
        // failure the host may hold the old archive, the new one, or a
        // torn mix — the base CRCs in its next stale reply sort that out.
        if let (Ok(()), Some(archive)) = (&result, archive) {
            self.cursors
                .record(&svc.name, mach_name, dfgen, archive.clone());
        }

        let now = self.state.read().now();
        let mut flags = HostFlags::default();
        match &result {
            Ok(()) => {
                self.stats.updates_succeeded += 1;
                self.retry.record_success(&svc.name, mach_name);
                flags.success = true;
                flags.lts = now;
            }
            Err(e) if e.is_hard() => {
                self.stats.hard_failures += 1;
                // A hard error gates on `hosterror` until an operator
                // resets it; the reset deserves a clean retry slate.
                self.retry.reset(&svc.name, mach_name);
                let what = format!("{} on {}: {}", svc.name, mach_name, e.message());
                self.zephyr_and_mail(what.clone(), format!("hard failure updating {what}"));
                flags.hosterror = e.code();
                flags.errmsg = e.message();
            }
            Err(e) => {
                self.stats.soft_failures += 1;
                flags.errmsg = e.message();
                if let SoftOutcome::Escalate { consecutive } =
                    self.retry.record_soft_failure(&svc.name, mach_name, now)
                {
                    // A streak this long is not transient. Promote it to
                    // an operator-visible hard error: set hosterror, page
                    // through Zephyr, mail the maintainers.
                    self.stats.escalations += 1;
                    flags.hosterror = e.code();
                    flags.errmsg = format!(
                        "escalated after {consecutive} consecutive soft failures: {}",
                        e.message()
                    );
                    let what = format!("{} on {}: {}", svc.name, mach_name, flags.errmsg);
                    self.zephyr_and_mail(what.clone(), what);
                }
            }
        }
        // A failed attempt leaves `lts` where prepare put it, at 0.
        self.set_host_flags(&mut self.state.write(), &svc.name, mach_name, flags);
        result
    }

    /// A replicated service's hard failure: "the error code & message are
    /// also set in the service record so that no more updates will be
    /// attempted."
    pub(super) fn record_service_stop(&self, svc: &ServiceInfo, dfgen: i64, e: UpdateError) {
        let failed = ServiceFlags {
            dfgen,
            dfcheck: dfgen,
            inprogress: false,
            harderror: e.code(),
            errmsg: e.message(),
        };
        self.set_service_flags(&mut self.state.write(), &svc.name, failed);
    }

    /// Patch-versus-whole byte split (the §5.7 partial-transfer savings),
    /// the hosts that confirmed in place without reinstalling; and, when a
    /// leg broke, a per-leg retry count: the attempt that follows the
    /// failure is charged to the leg that caused it.
    fn count_transfer(&self, tstats: &TransferStats) {
        // The registry handle is an Arc clone taken under a statement-scoped
        // guard; the recording itself happens lock-free.
        let obs = self.state.read().obs.clone();
        for (what, n) in [
            ("patch_members", tstats.patch_members),
            ("patch_bytes", tstats.patch_bytes),
            ("full_members", tstats.full_members),
            ("full_bytes", tstats.full_bytes),
            ("already_installed", u64::from(tstats.already_installed)),
        ] {
            obs.counter(&format!("dcm.transfer.{what}")).add(n);
        }
        if let Some(leg) = tstats.failed_leg {
            obs.counter(&format!("dcm.retry.leg.{leg}")).inc();
        }
    }
}
