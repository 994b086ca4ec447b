//! The DCM scan algorithm (§5.7.1).
//!
//! Each invocation: check the disable file, check `dcm_enable`, scan the
//! services table generating data files for services whose interval has
//! elapsed (with `MR_NO_CHANGE` suppression), then scan server-hosts and
//! push updates to every enabled host that has not been updated since the
//! data files were generated (or has `override` set). Inprogress flags,
//! soft/hard error bookkeeping, and Zephyr/mail notification follow the
//! paper. The paper's service and host locks keep a cron-started DCM off
//! one still running; here there is one `Dcm` value, driven through
//! `&mut self`, so the borrow checker is that exclusion and the
//! `inprogress` columns stay the advisory record an operator sees.
//!
//! [`Dcm::run_once`] is the stage sequence, one file per stage: `scan`
//! (the `servers` scan with generation, the `serverhosts` scan), then for
//! each host to update, one at a time in `serverhosts` row order,
//! `prepare` (inprogress bit, archive, credentials), `transfer` (the
//! update protocol over the network), `record` (stats, cursor, retry
//! ledger, DB). A replicated service stops after its first hard failure.

mod prepare;
mod record;
mod scan;
mod transfer;

use std::collections::HashMap;
use std::sync::Arc;

use moira_core::registry::Registry;
use moira_core::state::SharedState;
use parking_lot::Mutex;

pub use self::record::{DcmReport, DcmStats, Notice};
use self::scan::{HostTodo, ServiceInfo};
use self::transfer::run_transfer;
use crate::archive::Archive;
use crate::cursor::CursorStore;
use crate::generators::incremental::CachedBuild;
use crate::generators::Generator;
use crate::host::SimHost;
use crate::net::{Network, PerfectNetwork};
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
    /// line-level partial transfer — with its generation. Dropping an
    /// entry only costs bytes (the next push ships whole members), never
    /// correctness.
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
        }
    }

    /// Routes every update connection through `net` — the simulator's hook
    /// for partition and drop injection.
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

    /// Always 1: the host scan updates one host at a time. `moira-bench`
    /// still reports it; the accessor goes once the harness stops reading
    /// it.
    pub fn fanout_width(&self) -> usize {
        1
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
    /// with generation, then per service the `serverhosts` scan and, host
    /// by host, prepare → transfer → record.
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

    /// One service's host scan.
    fn host_phase(&mut self, svc: &ServiceInfo, report: &mut DcmReport) {
        let Some(dfgen) = self.pushable_generation(svc) else {
            return;
        };
        let todo = self.scan_hosts(&svc.name, dfgen);
        if todo.is_empty() {
            return;
        }
        // The shared archive, cloned once per cycle (a per-host service's
        // archives are cut from it).
        let shared = Arc::new(self.prepared[&svc.name].archive().clone());
        for host in &todo {
            let result = self.update_host(svc, dfgen, host, &shared);
            report
                .updates
                .push((svc.name.clone(), host.name.clone(), result));
            if let Err(e) = result {
                if e.is_hard() && svc.replicated {
                    self.record_service_stop(svc, dfgen, e);
                    break;
                }
            }
        }
    }

    /// One host's update: prepare, transfer on this thread, record.
    fn update_host(
        &mut self,
        svc: &ServiceInfo,
        dfgen: i64,
        host: &HostTodo,
        shared: &Arc<Archive>,
    ) -> Result<(), UpdateError> {
        match self.prepare_update(svc, host, shared) {
            Err(e) => {
                let no_bytes = TransferStats::default();
                self.record_update(svc, dfgen, &host.name, None, Err(e), &no_bytes)
            }
            Ok(job) => {
                let (result, tstats) = run_transfer(self.net.as_ref(), &job);
                self.record_update(
                    svc,
                    dfgen,
                    &job.mach_name,
                    Some(&job.archive),
                    result,
                    &tstats,
                )
            }
        }
    }
}

/// Where a service's files are installed on its hosts (the `target` is the
/// transfer landing spot; this is the live directory the script swaps files
/// into).
pub fn install_dir(service: &str) -> String {
    format!("/var/{}", service.to_ascii_lowercase())
}

#[cfg(test)]
// The tests check every host's `serverhosts` flags by reading the whole
// relation, on purpose.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::generators::incremental::{DeltaPlan, Section, SectionKind};
    use moira_core::queries::testutil::{add_test_machine, state_with_admin};
    use moira_core::schema::{serverhosts, servers, users};
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

    /// One column of the HESIOD `serverhosts` row of machine `mach`, as the
    /// protocol renders it.
    fn host_cell<K>(
        state: &SharedState,
        mach: &str,
        col: moira_db::Col<serverhosts::R, K>,
    ) -> String {
        use moira_core::schema::machine;
        let s = state.read();
        let m =
            s.db.table(machine::T)
                .find(&Pred::Eq(machine::NAME, mach.into()));
        let mach_id = m.unwrap().get(machine::MACH_ID);
        let t = s.db.table(serverhosts::T);
        let r = t.find(&Pred::Eq(serverhosts::MACH_ID, mach_id.into()));
        r.unwrap().render(col)
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
        let hesiod = Pred::Eq(servers::NAME, "HESIOD".into());
        let r = s.db.table(servers::T).find(&hesiod).unwrap();
        assert_eq!(r.get(servers::DFCHECK), s.now());
        assert!(r.get(servers::DFGEN) < s.now());
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
            for r in s.db.table(serverhosts::T).iter_rows() {
                assert_eq!(r.get(serverhosts::HOSTERROR), 0);
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
        let suomi_ltt = host_cell(&state, "SUOMI.MIT.EDU", serverhosts::LTT);
        let report = dcm.run_once();
        // First host hard-fails; the second is never attempted: not
        // counted, not prepared, its row untouched.
        assert_eq!(report.updates.len(), 1);
        assert!(matches!(
            report.updates[0].2,
            Err(UpdateError::ExecFailed(13))
        ));
        assert_eq!(dcm.stats.hard_failures, 1);
        assert_eq!(dcm.stats.updates_attempted, 1);
        assert_eq!(
            host_cell(&state, "SUOMI.MIT.EDU", serverhosts::INPROGRESS),
            "0"
        );
        assert_eq!(
            host_cell(&state, "SUOMI.MIT.EDU", serverhosts::LTT),
            suomi_ltt
        );
        // Zephyr + mail sent.
        assert!(dcm
            .notices
            .iter()
            .any(|n| n.kind == "zephyr" && n.target == "MOIRA"));
        assert!(dcm.notices.iter().any(|n| n.kind == "mail"));
        // Service harderror set: next run skips the service entirely.
        {
            let s = state.read();
            let hesiod = Pred::Eq(servers::NAME, "HESIOD".into());
            let r = s.db.table(servers::T).find(&hesiod).unwrap();
            assert_ne!(r.get(servers::HARDERROR), 0);
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
        for r in s.db.table(serverhosts::T).iter_rows() {
            assert!(!r.get(serverhosts::OVERRIDE));
        }
    }

    #[test]
    fn lost_per_host_data_files_are_rebuilt_before_the_push() {
        // A per-host service's archives are cut from its prepared shared
        // build, so a crash that loses the data files (dfgen says generated,
        // nothing prepared) must rebuild them like any other service's.
        let (mut dcm, state, hosts) = setup();
        add_nfs_service(&state, &["KIWI.MIT.EDU", "SUOMI.MIT.EDU"]);
        dcm.run_once();
        let full_rebuilds = dcm.stats.full_rebuilds;

        dcm.drop_prepared("NFS");
        for host in &hosts {
            host.lock().remove_file("/var/nfs/credentials");
        }
        for host in ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"] {
            as_root(&state, "set_server_host_override", &["NFS", host]);
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
                .map(|(r, _)| t.row(r).unwrap().get(serverhosts::HOSTERROR))
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

    /// A HESIOD generator that renders every user as the same member, so
    /// every build fails with `MR_EXISTS`: a generator hard error.
    struct CollidingGenerator;

    impl Generator for CollidingGenerator {
        fn service(&self) -> &'static str {
            "HESIOD"
        }

        fn depends_on(&self) -> &'static [moira_db::TableId] {
            &[<users::R as moira_db::Relation>::ID]
        }

        fn delta_plan(&self) -> DeltaPlan {
            DeltaPlan {
                sections: vec![Section {
                    file: "dup",
                    driver: <users::R as moira_db::Relation>::ID,
                    lookups: &[],
                    kind: SectionKind::Members(|_, _| vec![("dup".to_owned(), Vec::new())]),
                    affected: None,
                }],
            }
        }
    }

    /// Runs one query as root against the shared state.
    fn as_root(state: &SharedState, query: &str, args: &[&str]) {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        Registry::standard()
            .execute(&mut state.write(), &Caller::root("ops"), query, &args)
            .unwrap();
    }

    /// Adds the per-host NFS service, served by `hosts`.
    fn add_nfs_service(state: &SharedState, hosts: &[&str]) {
        let nfs = [
            "NFS",
            "720",
            "/tmp/nfs.out",
            "install-nfs",
            "UNIQUE",
            "1",
            "NONE",
            "NONE",
        ];
        as_root(state, "add_server_info", &nfs);
        for host in hosts {
            as_root(
                state,
                "add_server_host_info",
                &["NFS", host, "1", "0", "0", ""],
            );
        }
    }

    /// Regression: a partition directory holding a space, which
    /// `add_nfsphys` accepts, makes a member stem with a space. The script
    /// codec split `extract` lines at the first space, so the host could
    /// not find the member and every push to it failed hard with
    /// `ExecFailed(203)`.
    #[test]
    fn nfs_partition_with_a_space_installs() {
        let (mut dcm, state, hosts) = setup();
        add_nfs_service(&state, &["KIWI.MIT.EDU"]);
        let args = ["KIWI.MIT.EDU", "/u1/my lockers", "ra0a", "1", "0", "99999"];
        as_root(&state, "add_nfsphys", &args);
        let report = dcm.run_once();
        let nfs = ("NFS".to_owned(), "KIWI.MIT.EDU".to_owned(), Ok(()));
        assert!(report.updates.contains(&nfs), "{report:?}");
        let kiwi = hosts[0].lock();
        assert!(kiwi.read_file("/var/nfs/u1_my lockers.quotas").is_some());
        assert!(kiwi.read_file("/var/nfs/u1_my lockers.dirs").is_some());
        assert!(kiwi.exec_log.iter().any(|c| c == "install-nfs"));
    }

    /// No DCM run leaves an `inprogress` flag set, whatever the outcome:
    /// every path that sets one on a `servers` or `serverhosts` row clears
    /// it before `run_once` returns. Each case also checks that its
    /// outcome really happened.
    #[test]
    fn no_run_leaves_an_inprogress_flag_set() {
        type Arrange = fn(&mut Dcm, &SharedState, &SharedHosts);
        type Happened = fn(&Dcm, &DcmReport) -> bool;
        let cases: [(&str, Arrange, Happened); 5] = [
            (
                "success",
                |_, _, _| {},
                |_, report| {
                    report.updates.len() == 2 && report.updates.iter().all(|(_, _, r)| r.is_ok())
                },
            ),
            (
                "soft network failure",
                |_, _, hosts| hosts[1].lock().up = false,
                |dcm, report| {
                    dcm.stats.soft_failures == 1
                        && report.updates[1].2 == Err(UpdateError::HostDown)
                },
            ),
            (
                "replicated hard failure stops the scan",
                |_, _, hosts| hosts[0].lock().fail.fail_exec_with = Some(13),
                |_, report| {
                    report.updates
                        == [(
                            "HESIOD".to_owned(),
                            "KIWI.MIT.EDU".to_owned(),
                            Err(UpdateError::ExecFailed(13)),
                        )]
                },
            ),
            (
                "generator hard error",
                |dcm, _, _| {
                    dcm.generators
                        .insert("HESIOD", Box::new(CollidingGenerator));
                },
                |dcm, report| {
                    report.generated.is_empty()
                        && dcm
                            .notices
                            .iter()
                            .any(|n| n.message.contains("generator hard error"))
                },
            ),
            (
                "per-host archive failure",
                |_, state, _| {
                    // KIWI's two partitions cut to the same member stem
                    // (`u1_a`), so its archive fails in `prepare_update`.
                    add_nfs_service(state, &["KIWI.MIT.EDU"]);
                    for (dir, dev) in [("/u1/a", "ra0a"), ("/u1_a", "ra0b")] {
                        let args = ["KIWI.MIT.EDU", dir, dev, "1", "0", "99999"];
                        as_root(state, "add_nfsphys", &args);
                    }
                },
                |_, report| {
                    report.updates.contains(&(
                        "NFS".to_owned(),
                        "KIWI.MIT.EDU".to_owned(),
                        Err(UpdateError::BadData),
                    ))
                },
            ),
        ];
        for (name, arrange, happened) in cases {
            let (mut dcm, state, hosts) = setup();
            arrange(&mut dcm, &state, &hosts);
            let report = dcm.run_once();
            assert!(happened(&dcm, &report), "{name}: {report:?}");
            let s = state.read();
            for r in s.db.table(servers::T).iter_rows() {
                let svc = r.get(servers::NAME);
                assert!(!r.get(servers::INPROGRESS), "{name}: {svc}");
            }
            for r in s.db.table(serverhosts::T).iter_rows() {
                let svc = r.get(serverhosts::SERVICE);
                assert!(!r.get(serverhosts::INPROGRESS), "{name}: {svc}");
            }
        }
    }

    /// A scripted history, one host at a time: a down host soft-fails,
    /// fails again and escalates to a hard error with Zephyr + mail, gets
    /// reset by an operator, converges; then a mutation cycle pushes
    /// again. Every cycle reports its hosts in `serverhosts` row order.
    #[test]
    fn scripted_history_reports_in_row_order_and_escalates() {
        let (mut dcm, state, hosts) = setup();
        dcm.set_retry_policy(quick_retry(2, usize::MAX));
        let order = |report: &DcmReport| -> Vec<(String, Result<(), UpdateError>)> {
            report
                .updates
                .iter()
                .map(|(_, h, r)| (h.clone(), *r))
                .collect()
        };
        let (kiwi, suomi) = ("KIWI.MIT.EDU".to_owned(), "SUOMI.MIT.EDU".to_owned());

        hosts[1].lock().up = false;
        assert_eq!(
            order(&dcm.run_once()),
            vec![
                (kiwi.clone(), Ok(())),
                (suomi.clone(), Err(UpdateError::HostDown))
            ],
            "serverhosts row order preserved"
        );
        state.write().db.clock().advance(60);
        assert_eq!(
            order(&dcm.run_once()),
            vec![(suomi.clone(), Err(UpdateError::HostDown))]
        );
        assert_eq!(dcm.stats.escalations, 1);
        for kind in ["zephyr", "mail"] {
            assert!(
                dcm.notices
                    .iter()
                    .any(|n| n.kind == kind && n.message.contains("escalated after 2")),
                "{kind} escalation notice"
            );
        }

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
        assert_eq!(order(&dcm.run_once()), vec![(suomi.clone(), Ok(()))]);

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
        assert_eq!(
            order(&dcm.run_once()),
            vec![(kiwi.clone(), Ok(())), (suomi.clone(), Ok(()))],
            "serverhosts row order preserved"
        );
        assert_eq!(dcm.stats.updates_attempted, 6);
        assert_eq!(dcm.stats.soft_failures, 2);
        for mach in [&kiwi, &suomi] {
            assert_eq!(host_cell(&state, mach, serverhosts::SUCCESS), "1", "{mach}");
            assert_eq!(
                host_cell(&state, mach, serverhosts::INPROGRESS),
                "0",
                "{mach}"
            );
            assert_eq!(
                host_cell(&state, mach, serverhosts::HOSTERROR),
                "0",
                "{mach}"
            );
        }
        let files: Vec<_> = hosts.iter().map(|h| h.lock().files_mut().clone()).collect();
        assert_eq!(files[0], files[1], "both hosts hold the same files");
    }

    /// Every confirmed install is recorded in the cursor store at the
    /// pushed generation.
    #[test]
    fn confirmed_installs_record_cursors_at_dfgen() {
        let (mut dcm, state, hosts) = setup();
        let report = dcm.run_once();
        assert_eq!(report.updates.len(), 2);
        assert!(report.updates.iter().all(|(_, _, r)| r.is_ok()));
        for h in &hosts {
            assert!(h.lock().read_file("/var/hesiod/passwd.db").is_some());
        }
        let gen = {
            let s = state.read();
            let hesiod = Pred::Eq(servers::NAME, "HESIOD".into());
            s.db.table(servers::T)
                .find(&hesiod)
                .unwrap()
                .get(servers::DFGEN)
        };
        for host in ["KIWI.MIT.EDU", "SUOMI.MIT.EDU"] {
            assert_eq!(dcm.cursors().generation("HESIOD", host), Some(gen));
        }
        let snap = state.read().obs.snapshot();
        assert!(snap.counter("dcm.transfer.full_members") > 0);
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
