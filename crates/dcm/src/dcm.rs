//! The DCM scan algorithm (§5.7.1).
//!
//! Each invocation: check the disable file, check `dcm_enable`, scan the
//! services table generating data files for services whose interval has
//! elapsed (with `MR_NO_CHANGE` suppression), then scan server-hosts and
//! push updates to every enabled host that has not been updated since the
//! data files were generated (or has `override` set). Locking, inprogress
//! flags, soft/hard error bookkeeping, and Zephyr/mail notification follow
//! the paper.
//!
//! The host scan is one plan at every scale: update legs execute on a
//! bounded worker pool (`fanout_width`), and a [`RackTopology`] splits each
//! cycle into an *origin* wave (rack relays and direct hosts) followed by a
//! *leaf* wave gated on each rack's relay — see [`crate::relay`]. Each leg
//! is three phases: *prepare* (locks, DB writes, archive, credentials —
//! serial), *transfer* (network only — on the pool), *record* (stats,
//! cursor, retry ledger, DB — serial, in todo order). The paper's ~20-host
//! scan is the degenerate instance: width 1, no racks, so one origin wave
//! whose pool is the DCM thread itself.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use moira_common::errors::MrResult;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState, SharedState};
use moira_db::lock::LockMode;
use moira_db::Pred;
use parking_lot::Mutex;

use crate::archive::Archive;
use crate::generators::incremental::{self, CachedBuild};
use crate::generators::Generator;
use crate::host::SimHost;
use crate::net::{Network, PerfectNetwork};
use crate::relay::{CursorStore, RackTopology};
use crate::retry::{RetryBook, RetryPolicy, SoftOutcome};
use crate::update::{
    run_update_instrumented, Script, TransferStats, UpdateCredentials, UpdateError,
};

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
    /// Updates refused because another update of the host was in progress.
    pub busy_conflicts: u64,
    /// Leaf legs deferred because their rack's relay failed or was
    /// unreachable — the rack retries next cycle; no streak is charged.
    pub relay_deferrals: u64,
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

/// The Data Control Manager.
pub struct Dcm {
    state: SharedState,
    registry: Arc<Registry>,
    generators: HashMap<&'static str, Box<dyn Generator>>,
    /// The generated data files held on Moira's disk between runs, together
    /// with the section caches and generation cursor that keep the next
    /// refresh incremental.
    prepared: HashMap<String, CachedBuild>,
    /// Per-`(service, host)` delta cursors: the archive each host last
    /// confirmed installing — the patch base for the update protocol's
    /// line-level partial transfer — with its generation and base-CRC
    /// manifest. Dropping an entry only costs bytes (the next push ships
    /// whole members), never correctness.
    cursors: CursorStore,
    /// Reachable server hosts by canonical machine name.
    pub hosts: HashMap<String, Arc<Mutex<SimHost>>>,
    /// Notices sent (Zephyr + mail).
    pub notices: Vec<Notice>,
    /// The `/etc/nodcm` disable file.
    pub nodcm_file: bool,
    /// Lifetime counters.
    pub stats: DcmStats,
    /// Kerberos identity for update connections: `(kdc, client principal,
    /// client srvtab key)`, plus the authenticator nonce counter.
    kerberos: Option<(Arc<moira_krb::realm::Kdc>, String, moira_krb::cipher::Key)>,
    auth_nonce: u64,
    /// The network every update connection crosses (perfect by default;
    /// the simulator substitutes its fault-injecting fabric).
    net: Arc<dyn Network>,
    /// Soft-failure streak ledger driving the backoff gate.
    retry: RetryBook,
    /// Bounded concurrency of the host fan-out, ≥ 1.
    fanout_width: usize,
    /// Rack grouping driving relay election (empty = every host direct).
    topology: RackTopology,
}

impl Dcm {
    /// Creates a DCM with the standard generator set.
    pub fn new(state: SharedState, registry: Arc<Registry>) -> Dcm {
        let mut generators: HashMap<&'static str, Box<dyn Generator>> = HashMap::new();
        for g in crate::generators::standard_generators() {
            generators.insert(g.service(), g);
        }
        Dcm {
            state,
            registry,
            generators,
            prepared: HashMap::new(),
            cursors: CursorStore::new(),
            hosts: HashMap::new(),
            notices: Vec::new(),
            nodcm_file: false,
            stats: DcmStats::default(),
            kerberos: None,
            auth_nonce: 0,
            net: Arc::new(PerfectNetwork),
            retry: RetryBook::default(),
            fanout_width: 1,
            topology: RackTopology::new(),
        }
    }

    /// Routes every update connection through `net` — the simulator's hook
    /// for partition/drop/latency injection.
    pub fn set_network(&mut self, net: Arc<dyn Network>) {
        self.net = net;
    }

    /// Replaces the soft-failure retry policy (open streaks keep their
    /// scheduled retry times).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry.set_policy(policy);
    }

    /// The soft-failure retry ledger (inspection and operator resets).
    pub fn retry_book(&mut self) -> &mut RetryBook {
        &mut self.retry
    }

    /// Sets the bounded concurrency of the host fan-out (clamped to ≥ 1):
    /// how many transfer legs of a wave may be in flight at once.
    pub fn set_fanout_width(&mut self, width: usize) {
        self.fanout_width = width.max(1);
    }

    /// The configured fan-out width.
    pub fn fanout_width(&self) -> usize {
        self.fanout_width
    }

    /// Installs the rack topology driving relay election.
    pub fn set_topology(&mut self, topology: RackTopology) {
        self.topology = topology;
    }

    /// The installed rack topology.
    pub fn topology(&self) -> &RackTopology {
        &self.topology
    }

    /// The per-host delta cursor store.
    pub fn cursors(&self) -> &CursorStore {
        &self.cursors
    }

    /// Mutable cursor access (operator resets; the fault-matrix tests'
    /// stale-cursor injection).
    pub fn cursors_mut(&mut self) -> &mut CursorStore {
        &mut self.cursors
    }

    /// Enables Kerberos mutual authentication for update connections
    /// (§5.9.2): the DCM authenticates to each host's `rcmd.<host>` service
    /// with its own srvtab identity.
    pub fn enable_kerberos(
        &mut self,
        kdc: Arc<moira_krb::realm::Kdc>,
        client: &str,
        key: moira_krb::cipher::Key,
    ) {
        self.kerberos = Some((kdc, client.to_owned(), key));
    }

    /// Obtains fresh credentials for one host, if Kerberos is enabled.
    fn credentials_for(&mut self, mach_name: &str) -> Option<UpdateCredentials> {
        let (kdc, client, key) = self.kerberos.as_ref()?;
        self.auth_nonce += 1;
        let service = format!("rcmd.{mach_name}");
        let (ticket, session) = kdc.srvtab_ticket(client, *key, &service).ok()?;
        let authenticator = moira_krb::ticket::make_authenticator(
            session,
            client,
            kdc.clock().now(),
            self.auth_nonce,
        );
        Some(UpdateCredentials {
            ticket,
            authenticator,
        })
    }

    /// Registers a target host.
    pub fn add_host(&mut self, host: Arc<Mutex<SimHost>>) {
        let name = host.lock().name.clone();
        self.hosts.insert(name, host);
    }

    /// Registers an additional (non-standard) generator.
    pub fn add_generator(&mut self, generator: Box<dyn Generator>) {
        self.generators.insert(generator.service(), generator);
    }

    /// The prepared archive for a service, if generated.
    pub fn prepared(&self, service: &str) -> Option<&Archive> {
        self.prepared.get(service).map(|b| b.archive())
    }

    /// Drops a service's cached build (tests exercising the rebuild path).
    pub fn drop_prepared(&mut self, service: &str) {
        self.prepared.remove(service);
    }

    fn caller() -> Caller {
        // "It connects to the database and authenticates as root."
        Caller::root("dcm")
    }

    fn exec(&self, state: &mut MoiraState, query: &str, args: &[String]) -> MrResult<()> {
        self.registry.execute(state, &Self::caller(), query, args)?;
        Ok(())
    }

    fn notify(&mut self, kind: &'static str, target: &str, instance: &str, message: String) {
        self.notices.push(Notice {
            kind,
            target: target.to_owned(),
            instance: instance.to_owned(),
            message,
        });
    }

    /// One DCM invocation (normally fired by cron).
    pub fn run_once(&mut self) -> DcmReport {
        let mut report = DcmReport::default();
        // "On startup, the DCM first checks for the existance of the
        // disable file /etc/nodcm; if this file exists, it exits quietly."
        if self.nodcm_file {
            report.disabled = true;
            return report;
        }
        // "Then it retrieves the value of dcm_enable…; if this value is
        // zero, it will exit, logging this action."
        let enabled = self.state.read().get_value("dcm_enable").unwrap_or(0);
        if enabled == 0 {
            report.disabled = true;
            self.notify("zephyr", "MOIRA", "DCM", "dcm_enable is 0; exiting".into());
            return report;
        }
        self.stats.scans += 1;
        // A DCM that crashed mid-run holds no locks after restart; the
        // inprogress flags it left behind are advisory only ("It is not
        // relyed upon for locking", §5.7.1).
        self.state.write().locks.release_all("dcm");

        // Snapshot the services passing the initial check.
        let services = self.eligible_services();
        for svc in &services {
            self.generation_phase(svc, &mut report);
        }
        for svc in &services {
            self.host_phase(svc, &mut report);
        }
        report
    }

    /// Services that are enabled, have no hard errors, a non-zero interval,
    /// and a generator module.
    fn eligible_services(&self) -> Vec<ServiceInfo> {
        let state = self.state.read();
        let t = state.db.table("servers");
        let mut out = Vec::new();
        for (row, _) in t.iter() {
            let name = t.cell(row, "name").as_str().to_owned();
            let info = ServiceInfo {
                interval_secs: t.cell(row, "update_int").as_int() * 60,
                target: t.cell(row, "target_file").as_str().to_owned(),
                script: t.cell(row, "script").as_str().to_owned(),
                replicated: t.cell(row, "type").as_str() == "REPLICAT",
                enabled: t.cell(row, "enable").as_bool(),
                harderror: t.cell(row, "harderror").as_int(),
                dfgen: t.cell(row, "dfgen").as_int(),
                dfcheck: t.cell(row, "dfcheck").as_int(),
                name,
            };
            if info.enabled
                && info.harderror == 0
                && info.interval_secs > 0
                && self.generators.contains_key(info.name.as_str())
            {
                out.push(info);
            }
        }
        out
    }

    fn generation_phase(&mut self, svc: &ServiceInfo, report: &mut DcmReport) {
        let now = self.state.read().now();
        // "it compares dfcheck and the update interval against the current
        // time."
        if now < svc.dfcheck + svc.interval_secs {
            return;
        }
        // "it will obtain an exclusive lock on the service, set the
        // inprogress flag, then run the generator."
        {
            let mut state = self.state.write();
            if state
                .locks
                .acquire("dcm", &format!("svc:{}", svc.name), LockMode::Exclusive)
                .is_err()
            {
                return;
            }
            let _ = self.exec(
                &mut state,
                "set_server_internal_flags",
                &[
                    svc.name.clone(),
                    svc.dfgen.to_string(),
                    svc.dfcheck.to_string(),
                    "1".into(),
                    "0".into(),
                    String::new(),
                ],
            );
        }
        let generator = self.generators.get(svc.name.as_str()).expect("eligible");
        // Refresh the cached build under one read guard: the cursor cut and
        // the delta reads describe a single database version.
        let prev = self.prepared.remove(&svc.name);
        let result = {
            let state = self.state.read();
            incremental::refresh(generator.as_ref(), &state, prev)
        };
        let (dfgen, dfcheck, harderr, errmsg) = match result {
            Ok(refresh) => {
                let outcome = if refresh.changed {
                    self.stats.generations += 1;
                    if refresh.full {
                        self.stats.full_rebuilds += 1;
                    } else {
                        self.stats.delta_builds += 1;
                    }
                    report.generated.push((
                        svc.name.clone(),
                        refresh.build.archive().len(),
                        refresh.build.archive().payload_size(),
                    ));
                    (now, now, 0, String::new())
                } else {
                    self.stats.no_changes += 1;
                    report.unchanged.push(svc.name.clone());
                    // "If the generator exits indicating that nothing has
                    // changed, only dfcheck is updated."
                    (svc.dfgen, now, 0, String::new())
                };
                self.prepared.insert(svc.name.clone(), refresh.build);
                outcome
            }
            Err(e) => {
                self.notify(
                    "zephyr",
                    "MOIRA",
                    "DCM",
                    format!("{}: generator hard error: {}", svc.name, e),
                );
                (svc.dfgen, svc.dfcheck, e.code(), e.to_string())
            }
        };
        let mut state = self.state.write();
        let _ = self.exec(
            &mut state,
            "set_server_internal_flags",
            &[
                svc.name.clone(),
                dfgen.to_string(),
                dfcheck.to_string(),
                "0".into(),
                harderr.to_string(),
                errmsg,
            ],
        );
        state.locks.release("dcm", &format!("svc:{}", svc.name));
    }

    fn host_phase(&mut self, svc: &ServiceInfo, report: &mut DcmReport) {
        // Re-read dfgen: generation may just have happened.
        let dfgen = {
            let state = self.state.read();
            state
                .db
                .table("servers")
                .select_one(&Pred::Eq("name", svc.name.clone().into()))
                .map(|row| state.db.cell("servers", row, "dfgen").as_int())
                .unwrap_or(0)
        };
        if !self.prepared.contains_key(&svc.name) {
            if dfgen == 0 {
                // Never generated; nothing to push.
                return;
            }
            // Data files recorded as generated but missing (a Moira crash
            // lost them): rebuild from the database rather than ever
            // pushing an empty archive. "Crashes of the Moira machine will
            // result in (at worst) delays in updates."
            let generator = self.generators.get(svc.name.as_str()).expect("eligible");
            let rebuilt = {
                let state = self.state.read();
                incremental::refresh(generator.as_ref(), &state, None)
            };
            match rebuilt {
                Ok(refresh) => {
                    self.stats.full_rebuilds += 1;
                    self.prepared.insert(svc.name.clone(), refresh.build);
                }
                Err(_) => return,
            }
        }
        // "During the host scan, the DCM first locks the service … If the
        // service type is replicated … exclusively, otherwise … shared."
        let mode = if svc.replicated {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        {
            let mut state = self.state.write();
            if state
                .locks
                .acquire("dcm", &format!("svc:{}", svc.name), mode)
                .is_err()
            {
                return;
            }
        }
        let todo = self.hosts_needing_update(&svc.name, dfgen);
        // The shared archive, cloned once per cycle into an Arc every leg
        // of the fan-out reads (a per-host service's legs cut theirs from
        // it).
        let shared = Arc::new(self.prepared[&svc.name].archive().clone());
        self.fanout_phase(svc, dfgen, &todo, &shared, report);
        let mut state = self.state.write();
        state.locks.release("dcm", &format!("svc:{}", svc.name));
    }

    /// "If there is a hard failure and the service is replicated, then the
    /// error code & message are also set in the service record so that no
    /// more updates will be attempted."
    fn mark_replicated_failed(&mut self, svc: &ServiceInfo, dfgen: i64, e: &UpdateError) {
        let mut state = self.state.write();
        let _ = self.exec(
            &mut state,
            "set_server_internal_flags",
            &[
                svc.name.clone(),
                dfgen.to_string(),
                dfgen.to_string(),
                "0".into(),
                e.code().to_string(),
                e.message(),
            ],
        );
    }

    /// Hosts that are enabled, have no hard errors, have not been
    /// successfully updated since the data files were generated (or have
    /// override set), and whose retry backoff gate — if a soft-failure
    /// streak is open — has reopened. `override` bypasses the gate: an
    /// operator demanding an immediate push gets one.
    fn hosts_needing_update(&mut self, service: &str, dfgen: i64) -> Vec<(String, i64, String)> {
        let state = self.state.read();
        let now = state.now();
        let t = state.db.table("serverhosts");
        let budget = self.retry.policy().per_run_budget;
        let mut retries_scheduled = 0usize;
        let mut out = Vec::new();
        for row in t.select(&Pred::Eq("service", service.into())) {
            let enabled = t.cell(row, "enable").as_bool();
            let hosterror = t.cell(row, "hosterror").as_int();
            let lts = t.cell(row, "lts").as_int();
            let override_ = t.cell(row, "override").as_bool();
            if !enabled || hosterror != 0 {
                continue;
            }
            if lts >= dfgen && !override_ {
                continue;
            }
            let mach_id = t.cell(row, "mach_id").as_int();
            let name = state
                .db
                .table("machine")
                .select_one(&Pred::Eq("mach_id", mach_id.into()))
                .map(|r| state.db.cell("machine", r, "name").render())
                .unwrap_or_default();
            if !override_ && self.retry.is_retry(service, &name) {
                if !self.retry.ready(service, &name, now) || retries_scheduled >= budget {
                    self.stats.retries_deferred += 1;
                    continue;
                }
                retries_scheduled += 1;
            }
            out.push((name, mach_id, t.cell(row, "value3").render()));
        }
        out
    }

    /// The push: plan the rack split, run the origin wave (relays and
    /// direct hosts), then the leaf wave for every rack whose relay
    /// succeeded. With no racks every host is an origin leg. Racks whose
    /// relay leg failed are deferred whole — their leaves are not
    /// attempted, not charged a retry streak, and stay in the next cycle's
    /// todo list.
    fn fanout_phase(
        &mut self,
        svc: &ServiceInfo,
        dfgen: i64,
        todo: &[(String, i64, String)],
        shared: &Arc<Archive>,
        report: &mut DcmReport,
    ) {
        if todo.is_empty() {
            return;
        }
        let wall = Instant::now();
        let serving = self.serving_hosts(&svc.name);
        let names: Vec<String> = todo.iter().map(|(n, _, _)| n.clone()).collect();
        let plan = self.topology.plan(&names, &serving);
        let obs = self.state.read().obs.clone();
        obs.gauge("dcm.fanout.width").set(self.fanout_width as i64);
        obs.gauge("dcm.fanout.racks").set(plan.racks as i64);

        let mut replicated_failed = false;
        let origin_legs: Vec<(usize, Option<String>)> =
            plan.origin.iter().map(|&i| (i, None)).collect();
        let wave1 = self.fanout_wave(
            svc,
            dfgen,
            todo,
            &origin_legs,
            shared,
            report,
            &mut replicated_failed,
        );
        obs.counter("dcm.fanout.origin_legs").add(wave1.legs_run);

        let mut leaf_legs: Vec<(usize, Option<String>)> = Vec::new();
        for (i, relay_name) in &plan.leaves {
            if wave1.outcomes.get(relay_name) == Some(&false) {
                // The relay's own update failed this cycle, so nothing
                // correct could flow through it: defer the whole rack. The
                // failure is the relay's, not the leaves' — no retry
                // streak is charged and the leaves stay lts < dfgen.
                self.stats.relay_deferrals += 1;
                obs.counter("dcm.fanout.relay_deferred").inc();
                continue;
            }
            leaf_legs.push((*i, Some(relay_name.clone())));
        }
        let wave2 = self.fanout_wave(
            svc,
            dfgen,
            todo,
            &leaf_legs,
            shared,
            report,
            &mut replicated_failed,
        );
        obs.counter("dcm.fanout.relay_leaf_legs")
            .add(wave2.legs_run);
        // Wall versus summed leg time: wall < sum is the overlap proof the
        // black-hole test pins (one stuck host cannot serialize a cycle).
        obs.counter("dcm.fanout.legs_ns_total")
            .add(wave1.legs_ns + wave2.legs_ns);
        obs.counter("dcm.fanout.wall_ns")
            .add(wall.elapsed().as_nanos() as u64);
    }

    /// Hosts with an enabled server-host row for the service — the relay
    /// candidate pool for `RackTopology::plan`.
    fn serving_hosts(&self, service: &str) -> HashSet<String> {
        let state = self.state.read();
        let t = state.db.table("serverhosts");
        let mut out = HashSet::new();
        for row in t.select(&Pred::Eq("service", service.into())) {
            if !t.cell(row, "enable").as_bool() {
                continue;
            }
            let mach_id = t.cell(row, "mach_id").as_int();
            if let Some(r) = state
                .db
                .table("machine")
                .select_one(&Pred::Eq("mach_id", mach_id.into()))
            {
                out.insert(state.db.cell("machine", r, "name").render());
            }
        }
        out
    }

    /// One wave of legs: prepares each serially (DB writes, host locks,
    /// credentials — in todo order), transfers on the worker pool, records
    /// each outcome serially back in todo order. Returns per-host success
    /// for the caller's relay gating.
    #[allow(clippy::too_many_arguments)]
    fn fanout_wave(
        &mut self,
        svc: &ServiceInfo,
        dfgen: i64,
        todo: &[(String, i64, String)],
        legs: &[(usize, Option<String>)],
        shared: &Arc<Archive>,
        report: &mut DcmReport,
        replicated_failed: &mut bool,
    ) -> WaveResult {
        let mut wave = WaveResult::default();
        if legs.is_empty() || *replicated_failed {
            return wave;
        }
        let mut entries: Vec<(usize, Result<(), UpdateError>)> = Vec::new();
        let mut jobs: Vec<(usize, UpdateJob)> = Vec::new();
        for (i, relay_name) in legs {
            if *replicated_failed {
                break;
            }
            let (mach_name, mach_id, value3) = &todo[*i];
            let relay = relay_name.as_ref().and_then(|r| self.hosts.get(r).cloned());
            match self.prepare_update(svc, mach_name, *mach_id, value3, shared, relay) {
                Prepared::Busy => entries.push((*i, Err(UpdateError::Busy))),
                Prepared::Failed(e) => {
                    let result = self.record_update(
                        svc,
                        dfgen,
                        mach_name,
                        *mach_id,
                        None,
                        relay_name.is_some(),
                        Err(e),
                        &TransferStats::default(),
                    );
                    if let Err(err) = &result {
                        if err.is_hard() && svc.replicated {
                            *replicated_failed = true;
                            self.mark_replicated_failed(svc, dfgen, err);
                        }
                    }
                    wave.outcomes.insert(mach_name.clone(), result.is_ok());
                    entries.push((*i, result));
                }
                Prepared::Job(job) => jobs.push((*i, *job)),
            }
        }
        let mut results = self.run_wave(&jobs, svc.replicated);
        for (i, job) in jobs {
            match results.remove(&i) {
                Some((result, tstats, leg_ns)) => {
                    wave.legs_run += 1;
                    wave.legs_ns += leg_ns;
                    let recorded = self.record_update(
                        svc,
                        dfgen,
                        &job.mach_name,
                        job.mach_id,
                        Some(&job.archive),
                        job.relay.is_some(),
                        result,
                        &tstats,
                    );
                    if let Err(e) = &recorded {
                        if e.is_hard() && svc.replicated && !*replicated_failed {
                            *replicated_failed = true;
                            self.mark_replicated_failed(svc, dfgen, e);
                        }
                    }
                    wave.outcomes
                        .insert(job.mach_name.clone(), recorded.is_ok());
                    entries.push((i, recorded));
                }
                None => {
                    // The replicated stop flag tripped before any worker
                    // claimed this leg. Undo the prepare (inprogress bit,
                    // host lock) and leave the host for the next cycle,
                    // unreported: it was never attempted.
                    self.abort_prepared(svc, &job.mach_name);
                }
            }
        }
        entries.sort_by_key(|&(i, _)| i);
        for (i, result) in entries {
            report
                .updates
                .push((svc.name.clone(), todo[i].0.clone(), result));
        }
        wave
    }

    /// Runs prepared jobs' network legs with bounded concurrency:
    /// `fanout_width` workers claim jobs off a shared counter. For a
    /// replicated service the first hard failure raises a stop flag —
    /// running legs finish, unclaimed jobs stay absent from the result
    /// map. Pure transfer work: no database or DCM state crosses into the
    /// pool.
    fn run_wave(
        &self,
        jobs: &[(usize, UpdateJob)],
        replicated: bool,
    ) -> HashMap<usize, (Result<(), UpdateError>, TransferStats, u64)> {
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

    /// Reverses `prepare_update` for a leg that never ran: clears the
    /// inprogress bit (leaving `lts` at 0, so the host stays in the next
    /// cycle's todo list with no error recorded) and releases the host
    /// lock: "no more updates will be attempted" after a replicated
    /// service's hard failure (§5.7.1).
    fn abort_prepared(&mut self, svc: &ServiceInfo, mach_name: &str) {
        let now = self.state.read().now();
        let mut state = self.state.write();
        let _ = self.exec(
            &mut state,
            "set_server_host_internal",
            &[
                svc.name.clone(),
                mach_name.to_owned(),
                "0".into(),
                "0".into(),
                "0".into(),
                "0".into(),
                String::new(),
                now.to_string(),
                "0".into(),
            ],
        );
        state
            .locks
            .release("dcm", &format!("host:{}:{}", svc.name, mach_name));
    }

    /// Phase 1 of a leg — everything that must stay serial on the DCM
    /// thread: the attempt counter, the exclusive host lock and inprogress
    /// bit, the archive build, and fresh credentials (the authenticator
    /// nonce is a sequence).
    fn prepare_update(
        &mut self,
        svc: &ServiceInfo,
        mach_name: &str,
        mach_id: i64,
        value3: &str,
        shared: &Arc<Archive>,
        relay: Option<Arc<Mutex<SimHost>>>,
    ) -> Prepared {
        self.stats.updates_attempted += 1;
        let now = self.state.read().now();
        // Exclusive lock on the host + inprogress bit.
        {
            let mut state = self.state.write();
            if state
                .locks
                .acquire(
                    "dcm",
                    &format!("host:{}:{}", svc.name, mach_name),
                    LockMode::Exclusive,
                )
                .is_err()
            {
                // Another update of this host holds the lock: a distinct
                // soft conflict, not a network timeout. The colliding pass
                // simply retries later; no failure streak is charged.
                self.stats.busy_conflicts += 1;
                return Prepared::Busy;
            }
            let _ = self.exec(
                &mut state,
                "set_server_host_internal",
                &[
                    svc.name.clone(),
                    mach_name.to_owned(),
                    "0".into(),
                    "0".into(),
                    "1".into(),
                    "0".into(),
                    String::new(),
                    now.to_string(),
                    "0".into(),
                ],
            );
        }

        // The archive: the shared one, or for a per-host service this
        // host's cut of it. A generator failure here (e.g. colliding member
        // stems) is bad data for this host — a soft error, retried once the
        // data is fixed.
        let generator = self.generators.get(svc.name.as_str()).expect("eligible");
        let archive = match generator.per_host() {
            Some(for_host) => for_host(&self.state.read(), mach_id, value3, shared)
                .map(Arc::new)
                .map_err(|_| UpdateError::BadData),
            None => Ok(shared.clone()),
        };

        let credentials = self.credentials_for(mach_name);
        match archive {
            Ok(archive) => {
                let script = Script::standard(&archive, &install_dir(&svc.name), &svc.script);
                Prepared::Job(Box::new(UpdateJob {
                    mach_name: mach_name.to_owned(),
                    mach_id,
                    prev: self.cursors.base(&svc.name, mach_name),
                    host: self.hosts.get(mach_name).cloned(),
                    relay,
                    target: svc.target.clone(),
                    script,
                    credentials,
                    archive,
                }))
            }
            // The host lock stays held: recording the failure releases it.
            Err(e) => Prepared::Failed(e),
        }
    }

    /// Phase 3 of a leg — everything after the network returns, serial on
    /// the DCM thread: obs counters, the cursor advance, retry-ledger and
    /// notice bookkeeping, the final server-host row write, and the host
    /// lock release.
    #[allow(clippy::too_many_arguments)]
    fn record_update(
        &mut self,
        svc: &ServiceInfo,
        dfgen: i64,
        mach_name: &str,
        mach_id: i64,
        archive: Option<&Arc<Archive>>,
        via_relay: bool,
        result: Result<(), UpdateError>,
        tstats: &TransferStats,
    ) -> Result<(), UpdateError> {
        // Patch-versus-whole byte split (the §5.7 partial-transfer savings)
        // and, when a leg broke, a per-leg retry count: the attempt that
        // follows the failure is charged to the leg that caused it. The
        // registry handle is an Arc clone taken under a statement-scoped
        // guard; the recording itself happens lock-free.
        let obs = self.state.read().obs.clone();
        obs.counter("dcm.transfer.patch_members")
            .add(tstats.patch_members);
        obs.counter("dcm.transfer.patch_bytes")
            .add(tstats.patch_bytes);
        obs.counter("dcm.transfer.full_members")
            .add(tstats.full_members);
        obs.counter("dcm.transfer.full_bytes")
            .add(tstats.full_bytes);
        // The same split keyed by tier — relay-gated leaf legs versus
        // direct origin legs — so a scaled deployment sees where its bytes
        // flow.
        let tier = if via_relay { "relay" } else { "origin" };
        obs.counter(&format!("dcm.transfer.{tier}.patch_members"))
            .add(tstats.patch_members);
        obs.counter(&format!("dcm.transfer.{tier}.patch_bytes"))
            .add(tstats.patch_bytes);
        obs.counter(&format!("dcm.transfer.{tier}.full_members"))
            .add(tstats.full_members);
        obs.counter(&format!("dcm.transfer.{tier}.full_bytes"))
            .add(tstats.full_bytes);
        if let Some(leg) = tstats.failed_leg {
            obs.counter(&format!("dcm.retry.leg.{leg}")).inc();
            if leg == "relay" {
                // The leaf's rack relay was unreachable at transfer time:
                // the rack is effectively deferred, same as a plan-time
                // deferral.
                self.stats.relay_deferrals += 1;
                obs.counter("dcm.fanout.relay_deferred").inc();
            }
        }
        // Only a confirmed install advances the patch cursor: on any
        // failure the host may hold the old archive, the new one, or a
        // torn mix — the base CRCs in its next stale reply sort that out.
        if result.is_ok() {
            if let Some(archive) = archive {
                self.cursors
                    .record(&svc.name, mach_name, dfgen, archive.clone());
            }
        }

        // Record the outcome.
        let now = self.state.read().now();
        let (success, hosterror, errmsg, lts) = match &result {
            Ok(()) => {
                self.stats.updates_succeeded += 1;
                self.retry.record_success(&svc.name, mach_name);
                (true, 0, String::new(), now)
            }
            Err(e) if e.is_hard() => {
                self.stats.hard_failures += 1;
                // A hard error gates on `hosterror` until an operator
                // resets it; the reset deserves a clean retry slate.
                self.retry.reset(&svc.name, mach_name);
                self.notify(
                    "zephyr",
                    "MOIRA",
                    "DCM",
                    format!("{} on {}: {}", svc.name, mach_name, e.message()),
                );
                self.notify(
                    "mail",
                    "moira-maintainers",
                    "",
                    format!(
                        "hard failure updating {} on {}: {}",
                        svc.name,
                        mach_name,
                        e.message()
                    ),
                );
                (false, e.code(), e.message(), 0)
            }
            Err(e) => {
                self.stats.soft_failures += 1;
                match self.retry.record_soft_failure(&svc.name, mach_name, now) {
                    SoftOutcome::Backoff { .. } => (false, 0, e.message(), 0),
                    SoftOutcome::Escalate { consecutive } => {
                        // A streak this long is not transient. Promote it
                        // to an operator-visible hard error: set hosterror,
                        // page through Zephyr, mail the maintainers.
                        self.stats.escalations += 1;
                        let msg = format!(
                            "escalated after {consecutive} consecutive soft failures: {}",
                            e.message()
                        );
                        self.notify(
                            "zephyr",
                            "MOIRA",
                            "DCM",
                            format!("{} on {}: {}", svc.name, mach_name, msg),
                        );
                        self.notify(
                            "mail",
                            "moira-maintainers",
                            "",
                            format!("{} on {}: {}", svc.name, mach_name, msg),
                        );
                        (false, e.code(), msg, 0)
                    }
                }
            }
        };
        let mut state = self.state.write();
        let sh_row = state.db.select(
            "serverhosts",
            &Pred::Eq("service", svc.name.clone().into()).and(Pred::Eq("mach_id", mach_id.into())),
        );
        let prev_lts = sh_row
            .first()
            .map(|&r| state.db.cell("serverhosts", r, "lts").as_int())
            .unwrap_or(0);
        let _ = self.exec(
            &mut state,
            "set_server_host_internal",
            &[
                svc.name.clone(),
                mach_name.to_owned(),
                "0".into(), // override cleared by an attempt
                if success { "1" } else { "0" }.into(),
                "0".into(), // inprogress cleared
                hosterror.to_string(),
                errmsg,
                now.to_string(),
                if success {
                    lts.to_string()
                } else {
                    prev_lts.to_string()
                },
            ],
        );
        state
            .locks
            .release("dcm", &format!("host:{}:{}", svc.name, mach_name));
        result
    }
}

/// What `prepare_update` produced for one leg.
enum Prepared {
    /// Locked, prepared, and ready for its network legs.
    Job(Box<UpdateJob>),
    /// Host lock held by someone else; nothing was written or locked.
    Busy,
    /// Archive build failed. The host lock and inprogress bit are still
    /// held — recording the failure releases them.
    Failed(UpdateError),
}

/// Everything one transfer leg needs, self-contained so it can cross onto
/// a pool worker: no `&Dcm`, no database guard, no shared mutable state.
struct UpdateJob {
    mach_name: String,
    mach_id: i64,
    /// The archive to install.
    archive: Arc<Archive>,
    /// The host's cursor base — the patch reference, if any.
    prev: Option<Arc<Archive>>,
    credentials: Option<UpdateCredentials>,
    host: Option<Arc<Mutex<SimHost>>>,
    /// The rack relay this leaf leg is gated on, if any.
    relay: Option<Arc<Mutex<SimHost>>>,
    target: String,
    script: Script,
}

/// What one fan-out wave reports back to `fanout_phase`.
#[derive(Default)]
struct WaveResult {
    /// Host → whether its update succeeded (hosts attempted this wave).
    outcomes: HashMap<String, bool>,
    /// Legs actually transferred.
    legs_run: u64,
    /// Summed per-leg wall time — against the wave's own wall clock, the
    /// overlap proof.
    legs_ns: u64,
}

/// Phase 2 of a leg — the network. Runs off the DCM thread on the fan-out
/// pool; touches only the job, the network, and the simulated hosts.
fn run_transfer(net: &dyn Network, job: &UpdateJob) -> (Result<(), UpdateError>, TransferStats) {
    let mut tstats = TransferStats::default();
    // A leaf leg first probes its rack relay. A dead relay costs this one
    // check — not a full per-leaf timeout — and is charged to the "relay"
    // leg so the retry ledger and obs can tell the tiers apart. The guard
    // is statement-scoped: dropped before the leaf host locks.
    if let Some(relay) = &job.relay {
        let relay_up = relay.lock().reachable();
        if !relay_up {
            tstats.failed_leg = Some("relay");
            return (Err(UpdateError::HostDown), tstats);
        }
    }
    let outcome = match &job.host {
        Some(host) => {
            let mut h = host.lock();
            run_update_instrumented(
                net,
                &mut h,
                job.credentials.as_ref(),
                &job.archive,
                job.prev.as_deref(),
                &job.target,
                &job.script,
                &mut tstats,
            )
        }
        None => {
            // No such host is a connection failure as far as the retry
            // ledger is concerned.
            tstats.failed_leg = Some("connect");
            Err(UpdateError::HostDown)
        }
    };
    (outcome, tstats)
}

/// Where a service's files are installed on its hosts (the `target` is the
/// transfer landing spot; this is the live directory the script swaps files
/// into).
pub fn install_dir(service: &str) -> String {
    format!("/var/{}", service.to_ascii_lowercase())
}

#[derive(Debug, Clone)]
struct ServiceInfo {
    name: String,
    interval_secs: i64,
    target: String,
    script: String,
    replicated: bool,
    enabled: bool,
    harderror: i64,
    dfgen: i64,
    dfcheck: i64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_core::queries::testutil::{add_test_machine, state_with_admin};
    use moira_core::seed::seed_capacls;

    type SharedHosts = Vec<Arc<Mutex<SimHost>>>;

    /// A deployment with one HESIOD service on two hosts.
    fn setup() -> (Dcm, SharedState, SharedHosts) {
        let (mut s, _) = state_with_admin("ops");
        let registry = Arc::new(Registry::standard());
        let _ = seed_capacls; // capacls already seeded by state_with_admin
        let ops = Caller::new("ops", "test");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            registry.execute(s, &ops, q, &args).unwrap()
        };
        add_test_machine(&mut s, "KIWI.MIT.EDU");
        add_test_machine(&mut s, "SUOMI.MIT.EDU");
        run(
            &mut s,
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "F", "H", "C", "1", "x", "1990",
            ],
        );
        run(
            &mut s,
            "add_server_info",
            &[
                "HESIOD",
                "360",
                "/tmp/hesiod.out",
                "restart-hesiod",
                "REPLICAT",
                "1",
                "NONE",
                "NONE",
            ],
        );
        run(
            &mut s,
            "add_server_host_info",
            &["HESIOD", "KIWI.MIT.EDU", "1", "0", "0", ""],
        );
        run(
            &mut s,
            "add_server_host_info",
            &["HESIOD", "SUOMI.MIT.EDU", "1", "0", "0", ""],
        );
        let state = moira_core::state::shared(s);
        let mut dcm = Dcm::new(state.clone(), registry);
        let hosts: Vec<Arc<Mutex<SimHost>>> = ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"]
            .iter()
            .map(|n| Arc::new(Mutex::new(SimHost::new(n))))
            .collect();
        for h in &hosts {
            dcm.add_host(h.clone());
        }
        (dcm, state, hosts)
    }

    #[test]
    fn disable_file_and_value() {
        let (mut dcm, state, _) = setup();
        dcm.nodcm_file = true;
        assert!(dcm.run_once().disabled);
        assert_eq!(dcm.stats.scans, 0);
        dcm.nodcm_file = false;
        state.write().set_value("dcm_enable", 0);
        let report = dcm.run_once();
        assert!(report.disabled);
        assert!(dcm.notices.iter().any(|n| n.message.contains("dcm_enable")));
        state.write().set_value("dcm_enable", 1);
        assert!(!dcm.run_once().disabled);
    }

    #[test]
    fn first_run_generates_and_updates_all_hosts() {
        let (mut dcm, _state, hosts) = setup();
        let report = dcm.run_once();
        assert_eq!(report.generated.len(), 1);
        assert_eq!(report.generated[0].0, "HESIOD");
        assert_eq!(report.generated[0].1, 11, "eleven hesiod files");
        assert_eq!(report.updates.len(), 2);
        assert!(report.updates.iter().all(|(_, _, r)| r.is_ok()));
        for h in &hosts {
            let h = h.lock();
            assert!(h.read_file("/var/hesiod/passwd.db").is_some());
            assert_eq!(h.exec_log, vec!["restart-hesiod"]);
        }
    }

    #[test]
    fn second_run_within_interval_does_nothing() {
        let (mut dcm, state, _) = setup();
        dcm.run_once();
        state.write().db.clock().advance(60); // one minute
        let report = dcm.run_once();
        assert!(report.generated.is_empty());
        assert!(
            report.unchanged.is_empty(),
            "interval not yet elapsed: no check at all"
        );
        assert!(
            report.updates.is_empty(),
            "hosts already successful since dfgen"
        );
    }

    #[test]
    fn no_change_suppression_after_interval() {
        let (mut dcm, state, _) = setup();
        dcm.run_once();
        state.write().db.clock().advance(7 * 3600); // past the 6h interval
        let report = dcm.run_once();
        assert!(report.generated.is_empty());
        assert_eq!(report.unchanged, vec!["HESIOD"]);
        assert_eq!(dcm.stats.no_changes, 1);
        // dfcheck advanced even though nothing was built.
        let s = state.read();
        let row =
            s.db.table("servers")
                .select_one(&Pred::Eq("name", "HESIOD".into()))
                .unwrap();
        assert_eq!(s.db.cell("servers", row, "dfcheck").as_int(), s.now());
        assert!(s.db.cell("servers", row, "dfgen").as_int() < s.now());
    }

    /// Regression: a mutation committed in the same second the data files
    /// were generated (`t == dfgen`) must still trigger regeneration. The
    /// old staleness test compared wall-clock modtimes against `dfgen` with
    /// seconds granularity, so a same-second write was silently skipped;
    /// the generation cursor counts every mutation and cannot miss it.
    #[test]
    fn same_second_mutation_still_regenerates() {
        let (mut dcm, state, hosts) = setup();
        dcm.run_once();
        {
            // No clock advance: this lands at exactly t == dfgen.
            let mut s = state.write();
            Registry::standard()
                .execute(
                    &mut s,
                    &Caller::new("ops", "t"),
                    "add_user",
                    &[
                        "samesec".into(),
                        "7100".into(),
                        "/bin/csh".into(),
                        "S".into(),
                        "S".into(),
                        "".into(),
                        "1".into(),
                        "x".into(),
                        "1990".into(),
                    ],
                )
                .unwrap();
        }
        state.write().db.clock().advance(7 * 3600);
        let report = dcm.run_once();
        assert_eq!(
            report.generated.len(),
            1,
            "same-second mutation must not be lost to NO_CHANGE"
        );
        assert!(report.unchanged.is_empty());
        assert_eq!(dcm.stats.delta_builds, 1, "and it rode the delta path");
        let h = hosts[0].lock();
        let passwd =
            String::from_utf8(h.read_file("/var/hesiod/passwd.db").unwrap().to_vec()).unwrap();
        assert!(passwd.contains("samesec"));
    }

    #[test]
    fn change_triggers_regeneration_and_push() {
        let (mut dcm, state, hosts) = setup();
        dcm.run_once();
        {
            let mut s = state.write();
            s.db.clock().advance(7 * 3600);
            let registry = Registry::standard();
            registry
                .execute(
                    &mut s,
                    &Caller::new("ops", "t"),
                    "add_user",
                    &[
                        "newbie".into(),
                        "7000".into(),
                        "/bin/csh".into(),
                        "N".into(),
                        "B".into(),
                        "".into(),
                        "1".into(),
                        "x".into(),
                        "1990".into(),
                    ],
                )
                .unwrap();
        }
        let report = dcm.run_once();
        assert_eq!(report.generated.len(), 1);
        assert_eq!(report.updates.len(), 2);
        let h = hosts[0].lock();
        let passwd =
            String::from_utf8(h.read_file("/var/hesiod/passwd.db").unwrap().to_vec()).unwrap();
        assert!(passwd.contains("newbie"));
    }

    #[test]
    fn down_host_retried_until_up() {
        let (mut dcm, state, hosts) = setup();
        hosts[1].lock().up = false;
        let report = dcm.run_once();
        let failed: Vec<_> = report
            .updates
            .iter()
            .filter(|(_, _, r)| r.is_err())
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].2, Err(UpdateError::HostDown));
        assert_eq!(dcm.stats.soft_failures, 1);
        // Soft: hosterror stays 0, so the next run retries.
        {
            let s = state.read();
            let t = s.db.table("serverhosts");
            for (row, _) in t.iter() {
                assert_eq!(t.cell(row, "hosterror").as_int(), 0);
            }
        }
        hosts[1].lock().reboot();
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        // Only the failed host is retried.
        assert_eq!(report.updates.len(), 1);
        assert_eq!(report.updates[0].1, "SUOMI.MIT.EDU");
        assert!(report.updates[0].2.is_ok());
        assert!(hosts[1].lock().read_file("/var/hesiod/passwd.db").is_some());
    }

    #[test]
    fn hard_failure_on_replicated_stops_remaining_hosts() {
        let (mut dcm, state, hosts) = setup();
        hosts[0].lock().fail.fail_exec_with = Some(13);
        let report = dcm.run_once();
        // First host hard-fails; the second is never attempted.
        assert_eq!(report.updates.len(), 1);
        assert!(matches!(
            report.updates[0].2,
            Err(UpdateError::ExecFailed(13))
        ));
        assert_eq!(dcm.stats.hard_failures, 1);
        // Zephyr + mail sent.
        assert!(dcm
            .notices
            .iter()
            .any(|n| n.kind == "zephyr" && n.target == "MOIRA"));
        assert!(dcm.notices.iter().any(|n| n.kind == "mail"));
        // Service harderror set: next run skips the service entirely.
        {
            let s = state.read();
            let row =
                s.db.table("servers")
                    .select_one(&Pred::Eq("name", "HESIOD".into()))
                    .unwrap();
            assert_ne!(s.db.cell("servers", row, "harderror").as_int(), 0);
        }
        state.write().db.clock().advance(7 * 3600);
        let report = dcm.run_once();
        assert!(report.updates.is_empty());
        // Operator resets the error; service resumes.
        {
            let mut s = state.write();
            let registry = Registry::standard();
            registry
                .execute(
                    &mut s,
                    &Caller::root("ops"),
                    "reset_server_error",
                    &["HESIOD".into()],
                )
                .unwrap();
            registry
                .execute(
                    &mut s,
                    &Caller::root("ops"),
                    "reset_server_host_error",
                    &["HESIOD".into(), "KIWI.MIT.EDU".into()],
                )
                .unwrap();
        }
        hosts[0].lock().fail.fail_exec_with = None;
        state.write().db.clock().advance(7 * 3600);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 2);
        assert!(report.updates.iter().all(|(_, _, r)| r.is_ok()));
    }

    #[test]
    fn override_forces_immediate_update() {
        let (mut dcm, state, hosts) = setup();
        dcm.run_once();
        // Install something detectably old, then force an update without
        // advancing past the interval.
        hosts[0].lock().files_mut().remove("/var/hesiod/passwd.db");
        {
            let mut s = state.write();
            let registry = Registry::standard();
            registry
                .execute(
                    &mut s,
                    &Caller::root("ops"),
                    "set_server_host_override",
                    &["HESIOD".into(), "KIWI.MIT.EDU".into()],
                )
                .unwrap();
        }
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 1);
        assert_eq!(report.updates[0].1, "KIWI.MIT.EDU");
        assert!(hosts[0].lock().read_file("/var/hesiod/passwd.db").is_some());
        // Override cleared afterwards.
        let s = state.read();
        let t = s.db.table("serverhosts");
        for (row, _) in t.iter() {
            assert!(!t.cell(row, "override").as_bool());
        }
    }

    #[test]
    fn lost_per_host_data_files_are_rebuilt_before_the_push() {
        // A per-host service's archives are cut from its prepared shared
        // build, so a crash that loses the data files (dfgen says generated,
        // nothing prepared) must rebuild them like any other service's.
        let (mut dcm, state, hosts) = setup();
        let registry = Registry::standard();
        let run = |q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            registry
                .execute(&mut state.write(), &Caller::root("ops"), q, &args)
                .unwrap();
        };
        run(
            "add_server_info",
            &[
                "NFS",
                "720",
                "/tmp/nfs.out",
                "install-nfs",
                "UNIQUE",
                "1",
                "NONE",
                "NONE",
            ],
        );
        for host in ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"] {
            run("add_server_host_info", &["NFS", host, "1", "0", "0", ""]);
        }
        dcm.run_once();
        let full_rebuilds = dcm.stats.full_rebuilds;

        dcm.drop_prepared("NFS");
        for host in &hosts {
            host.lock().remove_file("/var/nfs/credentials");
        }
        for host in ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"] {
            run("set_server_host_override", &["NFS", host]);
        }
        // Within the interval: the generation phase does not run.
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        assert!(report.generated.is_empty());
        assert_eq!(dcm.stats.full_rebuilds, full_rebuilds + 1);
        assert_eq!(report.updates.len(), 2);
        assert!(report
            .updates
            .iter()
            .all(|(svc, _, r)| svc == "NFS" && r.is_ok()));
        let shared = dcm.prepared("NFS").unwrap().get("credentials").unwrap();
        assert!(String::from_utf8_lossy(shared).contains("babette:6530\n"));
        for host in &hosts {
            assert_eq!(host.lock().read_file("/var/nfs/credentials"), Some(shared));
        }
    }

    fn quick_retry(escalate_after: u32, per_run_budget: usize) -> crate::retry::RetryPolicy {
        crate::retry::RetryPolicy {
            base_secs: 100,
            max_secs: 800,
            jitter_frac: 0.0,
            escalate_after,
            per_run_budget,
        }
    }

    #[test]
    fn backoff_gate_defers_repeat_retries() {
        let (mut dcm, state, hosts) = setup();
        dcm.set_retry_policy(quick_retry(100, usize::MAX));
        hosts[1].lock().up = false;
        dcm.run_once(); // first soft failure: immediate-retry schedule
        state.write().db.clock().advance(60);
        let report = dcm.run_once(); // second failure: backoff starts (100s)
        assert_eq!(report.updates.len(), 1);
        assert!(report.updates[0].2.is_err());
        // Within the backoff window nothing is attempted, however often
        // cron fires the DCM.
        let before = dcm.stats.updates_attempted;
        for _ in 0..3 {
            state.write().db.clock().advance(10);
            let report = dcm.run_once();
            assert!(report.updates.is_empty(), "gate closed");
        }
        assert_eq!(dcm.stats.updates_attempted, before);
        assert_eq!(dcm.stats.retries_deferred, 3);
        // Once the window elapses the retry happens — and a recovered host
        // converges.
        hosts[1].lock().reboot();
        state.write().db.clock().advance(100);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 1);
        assert!(report.updates[0].2.is_ok());
        assert!(hosts[1].lock().read_file("/var/hesiod/passwd.db").is_some());
    }

    #[test]
    fn long_soft_streak_escalates_to_hard_error() {
        let (mut dcm, state, hosts) = setup();
        dcm.set_retry_policy(quick_retry(2, usize::MAX));
        hosts[1].lock().up = false;
        dcm.run_once();
        state.write().db.clock().advance(60);
        dcm.run_once(); // second consecutive soft failure → escalation
        assert_eq!(dcm.stats.escalations, 1);
        assert!(dcm
            .notices
            .iter()
            .any(|n| n.kind == "zephyr" && n.message.contains("escalated after 2")));
        assert!(dcm
            .notices
            .iter()
            .any(|n| n.kind == "mail" && n.message.contains("escalated after 2")));
        // hosterror now gates the host like any hard failure…
        {
            let s = state.read();
            let t = s.db.table("serverhosts");
            let errs: Vec<i64> = t
                .iter()
                .map(|(r, _)| t.cell(r, "hosterror").as_int())
                .collect();
            assert!(errs.contains(&(UpdateError::HostDown.code() as i64)));
        }
        state.write().db.clock().advance(3600);
        let report = dcm.run_once();
        assert!(report.updates.is_empty(), "escalated host not retried");
        // …until an operator resets it, after which the host starts with a
        // clean streak and converges.
        hosts[1].lock().reboot();
        {
            let mut s = state.write();
            Registry::standard()
                .execute(
                    &mut s,
                    &Caller::root("ops"),
                    "reset_server_host_error",
                    &["HESIOD".into(), "SUOMI.MIT.EDU".into()],
                )
                .unwrap();
        }
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 1);
        assert!(report.updates[0].2.is_ok());
    }

    #[test]
    fn per_run_budget_caps_retried_hosts() {
        let (mut dcm, state, hosts) = setup();
        dcm.set_retry_policy(quick_retry(100, 1));
        for h in &hosts {
            h.lock().up = false;
        }
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 2, "first-time pushes are not retries");
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 1, "one retry per pass under budget 1");
        assert!(dcm.stats.retries_deferred >= 1);
    }

    #[test]
    fn host_lock_conflict_is_distinct_busy_error() {
        let (mut dcm, state, _hosts) = setup();
        // Another actor (a concurrent DCM pass, say) holds the host lock.
        state
            .write()
            .locks
            .acquire("other", "host:HESIOD:KIWI.MIT.EDU", LockMode::Exclusive)
            .unwrap();
        let report = dcm.run_once();
        let kiwi = report
            .updates
            .iter()
            .find(|(_, h, _)| h == "KIWI.MIT.EDU")
            .unwrap();
        assert_eq!(kiwi.2, Err(UpdateError::Busy), "not mislabelled Timeout");
        assert_eq!(dcm.stats.busy_conflicts, 1);
        // Busy is an internal collision: it charges no failure streak.
        assert!(!dcm.retry_book().is_retry("HESIOD", "KIWI.MIT.EDU"));
        // When the collision clears, the next pass succeeds.
        state
            .write()
            .locks
            .release("other", "host:HESIOD:KIWI.MIT.EDU");
        state.write().db.clock().advance(60);
        let report = dcm.run_once();
        let kiwi = report
            .updates
            .iter()
            .find(|(_, h, _)| h == "KIWI.MIT.EDU")
            .unwrap();
        assert!(kiwi.2.is_ok());
    }

    /// The byte-for-byte pin: a pool of eight is equivalent to the pool of
    /// one — the paper's one-host-at-a-time scan, the serial oracle —
    /// across a whole scripted run: reports in serverhosts row order,
    /// notices (retry/Zephyr escalation included), stats, serverhosts
    /// rows, and host filesystems.
    #[test]
    fn fanout_pool_matches_serial_oracle_exactly() {
        type Trace = (
            Vec<(String, String, Result<(), UpdateError>)>,
            Vec<Notice>,
            DcmStats,
            Vec<Vec<String>>,
            Vec<std::collections::BTreeMap<String, Vec<u8>>>,
        );
        let run = |width: usize| -> Trace {
            let (mut dcm, state, hosts) = setup();
            dcm.set_retry_policy(quick_retry(2, usize::MAX));
            dcm.set_fanout_width(width);
            assert!(dcm.topology().is_empty());
            let mut updates = Vec::new();
            // Scripted history: a down host soft-fails, fails again and
            // escalates to a hard error with Zephyr + mail, gets reset by
            // an operator, converges; then a mutation cycle pushes again.
            hosts[1].lock().up = false;
            updates.extend(dcm.run_once().updates);
            state.write().db.clock().advance(60);
            updates.extend(dcm.run_once().updates); // escalates after 2
            hosts[1].lock().reboot();
            {
                let mut s = state.write();
                Registry::standard()
                    .execute(
                        &mut s,
                        &Caller::root("ops"),
                        "reset_server_host_error",
                        &["HESIOD".into(), "SUOMI.MIT.EDU".into()],
                    )
                    .unwrap();
            }
            state.write().db.clock().advance(60);
            updates.extend(dcm.run_once().updates);
            {
                let mut s = state.write();
                s.db.clock().advance(7 * 3600);
                Registry::standard()
                    .execute(
                        &mut s,
                        &Caller::new("ops", "t"),
                        "add_user",
                        &[
                            "parity".into(),
                            "7300".into(),
                            "/bin/csh".into(),
                            "P".into(),
                            "T".into(),
                            "".into(),
                            "1".into(),
                            "x".into(),
                            "1990".into(),
                        ],
                    )
                    .unwrap();
            }
            updates.extend(dcm.run_once().updates);
            let rows: Vec<Vec<String>> = {
                let s = state.read();
                let t = s.db.table("serverhosts");
                t.iter()
                    .map(|(r, _)| {
                        [
                            "mach_id",
                            "override",
                            "success",
                            "inprogress",
                            "hosterror",
                            "ltt",
                            "lts",
                        ]
                        .iter()
                        .map(|c| t.cell(r, c).render())
                        .collect()
                    })
                    .collect()
            };
            let files = hosts.iter().map(|h| h.lock().files_mut().clone()).collect();
            (updates, dcm.notices.clone(), dcm.stats, rows, files)
        };
        let serial = run(1);
        let pooled = run(8);
        let first_cycle: Vec<&str> = serial.0[..2].iter().map(|(_, h, _)| h.as_str()).collect();
        assert_eq!(
            first_cycle,
            vec!["KIWI.MIT.EDU", "SUOMI.MIT.EDU"],
            "serverhosts row order preserved"
        );
        assert_eq!(serial.0, pooled.0, "update reports");
        assert_eq!(serial.1, pooled.1, "notices incl. escalation");
        assert_eq!(serial.2, pooled.2, "whole stats struct");
        assert_eq!(serial.3, pooled.3, "serverhosts rows");
        assert_eq!(serial.4, pooled.4, "host filesystems");
    }

    /// Racked hosts converge through a relay; the cursor store records
    /// every confirmed install at the pushed generation.
    #[test]
    fn racked_fanout_converges_and_records_cursors() {
        let (mut dcm, state, hosts) = setup();
        let mut topo = RackTopology::new();
        topo.add_rack("r0", ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"].map(String::from));
        dcm.set_topology(topo);
        dcm.set_fanout_width(4);
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 2);
        assert!(report.updates.iter().all(|(_, _, r)| r.is_ok()));
        for h in &hosts {
            assert!(h.lock().read_file("/var/hesiod/passwd.db").is_some());
        }
        let gen = {
            let s = state.read();
            let row =
                s.db.table("servers")
                    .select_one(&Pred::Eq("name", "HESIOD".into()))
                    .unwrap();
            s.db.cell("servers", row, "dfgen").as_int()
        };
        for host in ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"] {
            assert_eq!(dcm.cursors().generation("HESIOD", host), Some(gen));
        }
        let obs = state.read().obs.clone();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("dcm.fanout.origin_legs"), 1, "the relay");
        assert_eq!(snap.counter("dcm.fanout.relay_leaf_legs"), 1, "the leaf");
        assert!(snap.counter("dcm.transfer.relay.full_members") > 0);
        assert!(snap.counter("dcm.transfer.origin.full_members") > 0);
    }

    #[test]
    fn disabled_service_skipped() {
        let (mut dcm, state, _) = setup();
        {
            let mut s = state.write();
            let registry = Registry::standard();
            registry
                .execute(
                    &mut s,
                    &Caller::root("ops"),
                    "update_server_info",
                    &[
                        "HESIOD".into(),
                        "360".into(),
                        "/tmp/hesiod.out".into(),
                        "restart-hesiod".into(),
                        "REPLICAT".into(),
                        "0".into(), // disabled
                        "NONE".into(),
                        "NONE".into(),
                    ],
                )
                .unwrap();
        }
        let report = dcm.run_once();
        assert!(report.generated.is_empty());
        assert!(report.updates.is_empty());
    }
}
