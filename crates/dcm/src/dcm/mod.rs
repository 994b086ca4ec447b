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
//! [`Dcm::run_once`] is the stage sequence, one file per stage: `scan`
//! (the `servers` scan with generation, the `serverhosts` scan), then per
//! wave of hosts `prepare` (locks, DB writes, archive, credentials —
//! serial), `transfer` (network only — on a bounded worker pool of
//! `fanout_width`), `record` (stats, cursor, retry ledger, DB — serial, in
//! todo order). A [`RackTopology`] splits a service's hosts into an
//! *origin* wave (rack relays and direct hosts) followed by a *leaf* wave
//! gated on each rack's relay — see [`crate::relay`]. The paper's ~20-host
//! scan is the degenerate instance: width 1, no racks, so one origin wave
//! whose pool is the DCM thread itself.

mod prepare;
mod record;
mod scan;
mod transfer;

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use moira_core::registry::Registry;
use moira_core::state::SharedState;
use moira_db::lock::LockMode;
use parking_lot::Mutex;

use self::prepare::Prepared;
pub use self::record::{DcmReport, DcmStats, Notice};
use self::scan::{HostTodo, ServiceInfo};
use crate::archive::Archive;
use crate::generators::incremental::CachedBuild;
use crate::generators::Generator;
use crate::host::SimHost;
use crate::net::{Network, PerfectNetwork};
use crate::relay::{CursorStore, FanoutPlan, RackTopology};
use crate::retry::{RetryBook, RetryPolicy};
use crate::update::{TransferStats, UpdateError};

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

    /// Registers a target host.
    pub fn add_host(&mut self, host: Arc<Mutex<SimHost>>) {
        let name = host.lock().name.clone();
        self.hosts.insert(name, host);
    }

    /// The prepared archive for a service, if generated.
    pub fn prepared(&self, service: &str) -> Option<&Archive> {
        self.prepared.get(service).map(|b| b.archive())
    }

    /// Drops a service's cached build (tests exercising the rebuild path).
    pub fn drop_prepared(&mut self, service: &str) {
        self.prepared.remove(service);
    }

    /// One DCM invocation (normally fired by cron): the `servers` scan
    /// with generation, then per service the `serverhosts` scan and its
    /// waves of prepare → transfer → record.
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
            self.zephyr("dcm_enable is 0; exiting".into());
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

    /// One service's host scan, under the service lock.
    fn host_phase(&mut self, svc: &ServiceInfo, report: &mut DcmReport) {
        let Some(dfgen) = self.pushable_generation(svc) else {
            return;
        };
        // "During the host scan, the DCM first locks the service … If the
        // service type is replicated … exclusively, otherwise … shared."
        let mode = if svc.replicated {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        let lock = svc_lock(&svc.name);
        let locked = self.state.write().locks.acquire("dcm", &lock, mode);
        if locked.is_err() {
            return;
        }
        let scan = self.scan_hosts(&svc.name, dfgen);
        if !scan.todo.is_empty() {
            let names: Vec<String> = scan.todo.iter().map(|h| h.name.clone()).collect();
            let plan = self.topology.plan(&names, &scan.serving);
            let mut push = Push {
                svc,
                dfgen,
                todo: &scan.todo,
                // The shared archive, cloned once per cycle into an Arc
                // every leg of the fan-out reads (a per-host service's
                // legs cut theirs from it).
                shared: Arc::new(self.prepared[&svc.name].archive().clone()),
                stopped: false,
            };
            self.fanout_phase(&mut push, &plan, report);
        }
        self.state.write().locks.release("dcm", &lock);
    }

    /// The push: run the origin wave (relays and direct hosts), then the
    /// leaf wave for every rack whose relay succeeded. With no racks every
    /// host is an origin leg. Racks whose relay leg failed are deferred
    /// whole — their leaves are not attempted, not charged a retry streak,
    /// and stay in the next cycle's todo list.
    fn fanout_phase(&mut self, push: &mut Push<'_>, plan: &FanoutPlan, report: &mut DcmReport) {
        let wall = Instant::now();
        let obs = self.state.read().obs.clone();
        obs.gauge("dcm.fanout.width").set(self.fanout_width as i64);
        obs.gauge("dcm.fanout.racks").set(plan.racks as i64);

        let origin_legs: Vec<Leg> = plan.origin.iter().map(|&i| (i, None)).collect();
        let wave1 = self.fanout_wave(push, &origin_legs, report);
        obs.counter("dcm.fanout.origin_legs").add(wave1.legs_run);

        let mut leaf_legs: Vec<Leg> = Vec::new();
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
        let wave2 = self.fanout_wave(push, &leaf_legs, report);
        obs.counter("dcm.fanout.relay_leaf_legs")
            .add(wave2.legs_run);
        // Wall versus summed leg time: wall < sum is the overlap proof the
        // black-hole test pins (one stuck host cannot serialize a cycle).
        obs.counter("dcm.fanout.legs_ns_total")
            .add(wave1.legs_ns + wave2.legs_ns);
        obs.counter("dcm.fanout.wall_ns")
            .add(wall.elapsed().as_nanos() as u64);
    }

    /// One wave of legs: prepares each serially (DB writes, host locks,
    /// credentials — in todo order), transfers on the worker pool, records
    /// each outcome serially back in todo order. Returns per-host success
    /// for the caller's relay gating.
    fn fanout_wave(
        &mut self,
        push: &mut Push<'_>,
        legs: &[Leg],
        report: &mut DcmReport,
    ) -> WaveResult {
        let mut wave = WaveResult::default();
        let (svc, todo) = (push.svc, push.todo);
        let mut entries: Vec<(usize, Result<(), UpdateError>)> = Vec::new();
        let mut jobs = Vec::new();
        for (i, relay_name) in legs {
            if push.stopped {
                break;
            }
            let host = &todo[*i];
            let relay = relay_name.as_ref().and_then(|r| self.hosts.get(r).cloned());
            match self.prepare_update(svc, host, &push.shared, relay) {
                Prepared::Busy => entries.push((*i, Err(UpdateError::Busy))),
                Prepared::Failed(e) => {
                    let via_relay = relay_name.is_some();
                    let no_bytes = TransferStats::default();
                    let result =
                        self.record_update(push, &host.name, None, via_relay, Err(e), &no_bytes);
                    wave.outcomes.insert(host.name.clone(), result.is_ok());
                    entries.push((*i, result));
                }
                Prepared::Job(job) => jobs.push((*i, *job)),
            }
        }
        let mut results = self.run_wave(&jobs, svc.replicated);
        for (i, job) in jobs {
            let Some((result, tstats, leg_ns)) = results.remove(&i) else {
                // The replicated stop flag tripped before any worker
                // claimed this leg. Undo the prepare (inprogress bit, host
                // lock) and leave the host for the next cycle, unreported:
                // it was never attempted.
                self.abort_prepared(svc, &job.mach_name);
                continue;
            };
            wave.legs_run += 1;
            wave.legs_ns += leg_ns;
            let via_relay = job.relay.is_some();
            let recorded = self.record_update(
                push,
                &job.mach_name,
                Some(&job.archive),
                via_relay,
                result,
                &tstats,
            );
            wave.outcomes.insert(job.mach_name, recorded.is_ok());
            entries.push((i, recorded));
        }
        entries.sort_by_key(|&(i, _)| i);
        for (i, result) in entries {
            report
                .updates
                .push((svc.name.clone(), todo[i].name.clone(), result));
        }
        wave
    }
}

/// Lock-manager name of a service's lock.
fn svc_lock(service: &str) -> String {
    format!("svc:{service}")
}

/// Lock-manager name of one server-host's update lock.
fn host_lock(service: &str, mach: &str) -> String {
    format!("host:{service}:{mach}")
}

/// One service's host scan in flight: what every wave and leg of it shares.
struct Push<'a> {
    svc: &'a ServiceInfo,
    /// The generation being pushed.
    dfgen: i64,
    todo: &'a [HostTodo],
    shared: Arc<Archive>,
    /// Raised by a replicated service's first hard failure: "no more
    /// updates will be attempted".
    stopped: bool,
}

/// One leg of a wave: an index into the todo list, and for a leaf leg the
/// rack relay it is gated on.
type Leg = (usize, Option<String>);

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

/// Where a service's files are installed on its hosts (the `target` is the
/// transfer landing spot; this is the live directory the script swaps files
/// into).
pub fn install_dir(service: &str) -> String {
    format!("/var/{}", service.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_core::queries::testutil::{add_test_machine, state_with_admin};
    use moira_core::schema::{serverhosts, servers};
    use moira_core::seed::seed_capacls;
    use moira_core::state::{Caller, MoiraState};
    use moira_db::Pred;

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
            s.db.table(servers::T)
                .select_one(&Pred::Eq(servers::NAME, "HESIOD".into()))
                .unwrap();
        assert_eq!(s.db.cell(row, servers::DFCHECK).as_int(), s.now());
        assert!(s.db.cell(row, servers::DFGEN).as_int() < s.now());
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
            let t = s.db.table(serverhosts::T);
            for (row, _) in t.iter() {
                assert_eq!(t.cell(row, serverhosts::HOSTERROR).as_int(), 0);
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
                s.db.table(servers::T)
                    .select_one(&Pred::Eq(servers::NAME, "HESIOD".into()))
                    .unwrap();
            assert_ne!(s.db.cell(row, servers::HARDERROR).as_int(), 0);
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
        let t = s.db.table(serverhosts::T);
        for (row, _) in t.iter() {
            assert!(!t.cell(row, serverhosts::OVERRIDE).as_bool());
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
            let t = s.db.table(serverhosts::T);
            let errs: Vec<i64> = t
                .iter()
                .map(|(r, _)| t.cell(r, serverhosts::HOSTERROR).as_int())
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
                let t = s.db.table(serverhosts::T);
                t.iter()
                    .map(|(r, _)| {
                        [
                            serverhosts::MACH_ID,
                            serverhosts::OVERRIDE,
                            serverhosts::SUCCESS,
                            serverhosts::INPROGRESS,
                            serverhosts::HOSTERROR,
                            serverhosts::LTT,
                            serverhosts::LTS,
                        ]
                        .iter()
                        .map(|&c| t.cell(r, c).render())
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
                s.db.table(servers::T)
                    .select_one(&Pred::Eq(servers::NAME, "HESIOD".into()))
                    .unwrap();
            s.db.cell(row, servers::DFGEN).as_int()
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
