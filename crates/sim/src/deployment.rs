//! The fully wired deployment: Moira + DCM + Kerberos + registration
//! server + consumers on simulated hosts.
//!
//! Each simulated host's install script (the `Exec` instruction at the end
//! of every update) feeds the freshly swapped files to the consumer running
//! on that host — restarting Hesiod, applying NFS credentials/quotas/dirs,
//! reloading the aliases table, installing Zephyr ACLs — exactly the
//! arrangement §5.8.2 describes per service.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use moira_common::clock::VClock;
use moira_core::recovery::{boot_durable, BootReport};
use moira_core::registry::Registry;
use moira_core::seed::seed_capacls;
use moira_core::state::{MoiraState, SharedState};
use moira_core::userreg::RegistrationServer;
use moira_db::backup::MediaRotation;
use moira_db::storage::{DurableEngine, GroupCommitConfig, SimMedia, Storage};
use moira_dcm::dcm::{install_dir, Dcm, DcmReport};
use moira_dcm::host::SimHost;
use moira_krb::realm::Kdc;
use moira_svc::{HesiodServer, MailHub, NfsServer, ZephyrServer};
use parking_lot::Mutex;

use crate::net::NetFabric;
use crate::population::{populate, PopulationReport, PopulationSpec};

/// A complete simulated Athena.
pub struct Deployment {
    /// Shared virtual clock.
    pub clock: VClock,
    /// The fault-injecting network fabric every DCM→host update connection
    /// crosses (no faults configured until a scenario asks for them).
    pub net: Arc<NetFabric>,
    /// The Moira database + server state.
    pub state: SharedState,
    /// The query catalog.
    pub registry: Arc<Registry>,
    /// The Data Control Manager.
    pub dcm: Dcm,
    /// Every simulated host by canonical name.
    pub hosts: HashMap<String, Arc<Mutex<SimHost>>>,
    /// Hesiod consumers by host name.
    pub hesiod: HashMap<String, Arc<Mutex<HesiodServer>>>,
    /// NFS consumers by host name.
    pub nfs: HashMap<String, Arc<Mutex<NfsServer>>>,
    /// Zephyr consumers by host name.
    pub zephyr: HashMap<String, Arc<Mutex<ZephyrServer>>>,
    /// Mail hub consumers by host name.
    pub mail: HashMap<String, Arc<Mutex<MailHub>>>,
    /// The Kerberos realm.
    pub kdc: Arc<Kdc>,
    /// The DCM's `rcmd.moira` srvtab key — on Moira's disk in real life,
    /// so it survives a Moira crash and a restarted DCM re-reads it.
    dcm_key: moira_krb::cipher::Key,
    /// The registration server of §5.10.
    pub regserver: RegistrationServer,
    /// What the population generator built.
    pub population: PopulationReport,
    /// The nightly.sh backup rotation ("maintains the last three backups
    /// on line", §5.2.2), on backup media of its own.
    pub backups: MediaRotation<SimMedia>,
    /// Unix time of the most recent nightly backup.
    pub last_backup: i64,
    /// The server's durable storage media once
    /// [`Deployment::enable_durable_storage`] has run; `None` keeps the
    /// historical in-memory `NullStorage` server.
    pub durable_media: Option<SimMedia>,
}

fn files_under(files: &BTreeMap<String, Vec<u8>>, dir: &str) -> Vec<(String, String)> {
    let prefix = format!("{}/", dir.trim_end_matches('/'));
    files
        .iter()
        .filter(|(path, _)| {
            path.starts_with(&prefix)
                && !path.ends_with(".moira_update")
                && !path.ends_with(".moira_backup")
        })
        .map(|(path, data)| {
            (
                path[prefix.len()..].to_owned(),
                String::from_utf8_lossy(data).into_owned(),
            )
        })
        .collect()
}

impl Deployment {
    /// Builds a deployment at the given population scale.
    pub fn build(spec: &PopulationSpec) -> Deployment {
        let clock = VClock::new();
        let registry = Arc::new(Registry::standard());
        let mut st = MoiraState::new(clock.clone());
        // Durations measured inside the simulation (DCM stage spans, lock
        // waits) must read simulated time, not the wall.
        st.obs.set_virtual_clock(clock.clone());
        seed_capacls(&mut st, &registry);
        let population = populate(&mut st, &registry, spec).expect("population build must succeed");
        let state = moira_core::state::shared(st);

        let kdc = Arc::new(Kdc::new(clock.clone()));
        kdc.register_service("moira").expect("fresh realm");
        let dcm_key = kdc.register_service("rcmd.moira").expect("fresh realm");

        let mut dcm = Dcm::new(state.clone(), registry.clone());
        // §5.9.2: both ends of every update connection verify each other.
        dcm.enable_kerberos(kdc.clone(), "rcmd.moira", dcm_key);
        // Every update connection crosses the (initially perfect) fabric.
        let net = Arc::new(NetFabric::new(clock.clone(), 0x000a_7e4a_5eed));
        dcm.set_network(net.clone());
        let mut hosts = HashMap::new();
        let mut hesiod = HashMap::new();
        let mut nfs = HashMap::new();
        let mut zephyr = HashMap::new();
        let mut mail = HashMap::new();

        for name in &population.hesiod_servers {
            let consumer = Arc::new(Mutex::new(HesiodServer::new()));
            let host = make_host(name, {
                let consumer = consumer.clone();
                Box::new(move |cmd, files| {
                    if cmd != "install-hesiod" {
                        return 0;
                    }
                    let mut h = consumer.lock();
                    h.restart();
                    for (name, text) in files_under(files, &install_dir("HESIOD")) {
                        if name.ends_with(".db") && h.load_db(&text).is_err() {
                            return 1;
                        }
                    }
                    0
                })
            });
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
            hesiod.insert(name.clone(), consumer);
        }
        for name in &population.nfs_servers {
            let consumer = Arc::new(Mutex::new(NfsServer::new()));
            let host = make_host(name, {
                let consumer = consumer.clone();
                Box::new(move |cmd, files| {
                    if cmd != "install-nfs" {
                        return 0;
                    }
                    let mut n = consumer.lock();
                    for (name, text) in files_under(files, &install_dir("NFS")) {
                        let result = if name == "credentials" {
                            n.apply_credentials(&text).map(|_| ())
                        } else if name.ends_with(".quotas") {
                            n.apply_quotas(&text).map(|_| ())
                        } else if name.ends_with(".dirs") {
                            n.apply_dirs(&text).map(|_| ())
                        } else {
                            Ok(())
                        };
                        if result.is_err() {
                            return 1;
                        }
                    }
                    0
                })
            });
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
            nfs.insert(name.clone(), consumer);
        }
        for name in &population.zephyr_servers {
            let consumer = Arc::new(Mutex::new(ZephyrServer::new()));
            let host = make_host(name, {
                let consumer = consumer.clone();
                Box::new(move |cmd, files| {
                    if cmd != "install-zephyr" {
                        return 0;
                    }
                    let mut z = consumer.lock();
                    for (name, text) in files_under(files, &install_dir("ZEPHYR")) {
                        if name.ends_with(".acl") {
                            z.install_acl_file(&name, &text);
                        }
                    }
                    0
                })
            });
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
            zephyr.insert(name.clone(), consumer);
        }
        for name in &population.mail_hubs {
            let consumer = Arc::new(Mutex::new(MailHub::new()));
            let host = make_host(name, {
                let consumer = consumer.clone();
                Box::new(move |cmd, files| {
                    if cmd != "install-mail" {
                        return 0;
                    }
                    for (name, text) in files_under(files, &install_dir("MAIL")) {
                        let result = match name.as_str() {
                            "aliases" => consumer.lock().load_aliases(&text).map(|_| ()),
                            "passwd" => consumer.lock().load_passwd(&text).map(|_| ()),
                            _ => Ok(()),
                        };
                        if result.is_err() {
                            return 1;
                        }
                    }
                    0
                })
            });
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
            mail.insert(name.clone(), consumer);
        }
        // POP servers exist as plain hosts (no distributed files).
        for name in &population.pop_servers {
            let host = Arc::new(Mutex::new(SimHost::new(name)));
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
        }
        // Dialup machines receive HOSTACCESS-restricted password files; the
        // install script is the stock extract-and-swap, so a plain host
        // suffices (the files themselves are the observable state).
        for name in &population.dialup_servers {
            let host = Arc::new(Mutex::new(SimHost::new(name)));
            dcm.add_host(host.clone());
            hosts.insert(name.clone(), host);
        }

        // Every server host gets an rcmd service principal and verifies
        // incoming update connections with it.
        for (name, host) in &hosts {
            let service = format!("rcmd.{name}");
            let key = kdc
                .register_service(&service)
                .expect("unique host principals");
            host.lock().verifier = Some(moira_krb::ticket::Verifier::new(
                &service,
                key,
                clock.clone(),
            ));
        }

        let regserver = RegistrationServer::new(state.clone(), registry.clone(), kdc.clone());
        Deployment {
            clock,
            net,
            state,
            registry,
            dcm,
            hosts,
            hesiod,
            nfs,
            zephyr,
            mail,
            kdc,
            dcm_key,
            regserver,
            population,
            backups: MediaRotation::new(SimMedia::new()),
            last_backup: 0,
            durable_media: None,
        }
    }

    /// Puts the server on simulated durable storage: an initial snapshot
    /// seals the current (seeded + populated) database, and every
    /// subsequent committed mutation flows through the WAL. Returns a
    /// handle on the media for crash-point arming.
    pub fn enable_durable_storage(&mut self, config: GroupCommitConfig) -> SimMedia {
        let media = SimMedia::new();
        // Recovery I/O runs before the state guard is taken; only sealing
        // the snapshot (which must see the db quiescent) and installing
        // the engine need exclusive access.
        let (mut engine, _) = DurableEngine::open(Box::new(media.clone()), config)
            .expect("fresh sim media opens cleanly");
        let mut st = self.state.write();
        engine.set_obs(&st.obs);
        // One-shot bootstrap: the initial snapshot needs the seeded db
        // pinned, so its media write happens under the guard by design.
        engine
            .snapshot(&st.db, &st.journal)
            .expect("sealing the initial snapshot on fresh media");
        st.storage = Box::new(engine);
        self.durable_media = Some(media.clone());
        media
    }

    /// Kills the Moira server ungracefully: simulated power loss discards
    /// everything the durable media had not fsynced. The in-memory state
    /// is conceptually gone; call [`Deployment::recover_server`] to boot
    /// the replacement.
    pub fn crash_server(&self) {
        self.durable_media
            .as_ref()
            .expect("enable_durable_storage first")
            .power_cycle();
    }

    /// Boots a recovered server from the durable media and swaps it into
    /// the shared state in place, so every component holding the
    /// `SharedState` Arc — the DCM with its prepared-build caches, the
    /// registration server, open client handles — now sees the recovered
    /// world. The epoch survives recovery, so DCM generation cursors cut
    /// before the crash remain valid and the next cycle ships patches.
    pub fn recover_server(&mut self, config: GroupCommitConfig) -> BootReport {
        let media = self
            .durable_media
            .clone()
            .expect("enable_durable_storage first");
        // Recovery replays entries at their original commit times; the
        // simulation clock must not stay rewound afterwards.
        let now = self.clock.now();
        let (recovered, report) =
            boot_durable(self.clock.clone(), &self.registry, Box::new(media), config)
                .expect("recovery from sim media");
        self.clock.set(now);
        recovered.obs.set_virtual_clock(self.clock.clone());
        *self.state.write() = recovered;
        report
    }

    /// Runs the nightly backup: dumps every relation to ASCII and rotates
    /// the three on-line generations, recording the backup time so journal
    /// recovery knows where to replay from.
    pub fn run_nightly_backup(&mut self) {
        let s = self.state.read();
        self.backups
            .run_nightly(&s.db)
            .expect("nightly backup onto sim media");
        self.last_backup = s.now();
    }

    /// Replaces the DCM with a freshly started one, as after a Moira
    /// crash: every in-memory cache is gone — prepared builds and their
    /// generation cursors, per-host delta cursors, retry streaks — but
    /// the on-disk identity survives, so the srvtab key, the network
    /// fabric, and the retry policy (configuration, not state) are rewired
    /// exactly as at first start.
    pub fn restart_dcm(&mut self) {
        let mut fresh = Dcm::new(self.state.clone(), self.registry.clone());
        fresh.enable_kerberos(self.kdc.clone(), "rcmd.moira", self.dcm_key);
        fresh.set_network(self.net.clone());
        fresh.set_retry_policy(*self.dcm.retry_book().policy());
        for host in self.dcm.hosts.values() {
            fresh.add_host(host.clone());
        }
        self.dcm = fresh;
    }

    /// Runs one DCM pass (consuming any pending trigger), then delivers any
    /// new DCM notices through the real Zephyr servers — failures ride the
    /// very notification service Moira manages ("a zephyr message is sent
    /// to class MOIRA instance DCM", §5.7.1).
    pub fn run_dcm_once(&mut self) -> DcmReport {
        self.state.write().dcm_trigger = false;
        let already_sent = self.dcm.notices.len();
        let report = self.dcm.run_once();
        let fresh: Vec<_> = self.dcm.notices[already_sent..].to_vec();
        for notice in fresh {
            if notice.kind != "zephyr" {
                continue;
            }
            for server in self.zephyr.values() {
                let _ = server.lock().transmit(
                    "moira",
                    &notice.target,
                    &notice.instance,
                    &notice.message,
                );
            }
        }
        report
    }

    /// True if a Trigger_DCM request is pending.
    pub fn dcm_triggered(&self) -> bool {
        self.state.read().dcm_trigger
    }

    /// Advances virtual time.
    pub fn advance(&self, secs: i64) {
        self.clock.advance(secs);
    }

    /// The single Hesiod consumer (convenience when there is exactly one).
    pub fn hesiod_one(&self) -> Arc<Mutex<HesiodServer>> {
        self.hesiod
            .values()
            .next()
            .expect("a hesiod server")
            .clone()
    }

    /// The single mail hub.
    pub fn mail_one(&self) -> Arc<Mutex<MailHub>> {
        self.mail.values().next().expect("a mail hub").clone()
    }
}

fn make_host(name: &str, handler: moira_dcm::host::CommandHandler) -> Arc<Mutex<SimHost>> {
    let mut host = SimHost::new(name);
    host.set_command_handler(handler);
    Arc::new(Mutex::new(host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_core::schema::users;

    #[test]
    fn full_stack_first_propagation() {
        let mut d = Deployment::build(&PopulationSpec::small());
        let report = d.run_dcm_once();
        assert_eq!(
            report.generated.len(),
            5,
            "hesiod, nfs, mail, zephyr, passwd: {report:?}"
        );
        assert!(
            report.updates.iter().all(|(_, _, r)| r.is_ok()),
            "{report:?}"
        );

        // The restricted dialup machine got a reduced /etc/passwd and a
        // /.klogin naming only the operations staff.
        let dialup = d.hosts[&d.population.dialup_servers[0]].lock();
        let passwd =
            String::from_utf8(dialup.read_file("/var/passwd/passwd").unwrap().to_vec()).unwrap();
        assert!(
            passwd.is_empty(),
            "moira-admins has no members in this population"
        );
        let open = d.hosts[&d.population.dialup_servers[1]].lock();
        let passwd =
            String::from_utf8(open.read_file("/var/passwd/passwd").unwrap().to_vec()).unwrap();
        assert_eq!(passwd.lines().count(), d.population.active_logins.len());

        // Hesiod answers for a populated user.
        let login = d.population.active_logins[0].clone();
        let hes = d.hesiod_one();
        let hes = hes.lock();
        let passwd = hes.resolve(&login, "passwd").unwrap();
        assert!(passwd[0].starts_with(&format!("{login}:*:")));
        let pobox = hes.resolve(&login, "pobox").unwrap();
        assert!(pobox[0].starts_with("POP ATHENA-PO-"));

        // The mail hub routes the user to their post office, and its finger
        // server knows everybody from the distributed passwd file.
        let mail = d.mail_one();
        let dests = mail.lock().resolve(&login);
        assert!(matches!(
            dests[0],
            moira_svc::mail::Destination::PoBox { .. }
        ));
        assert_eq!(mail.lock().finger_count(), d.population.active_logins.len());
        assert!(mail.lock().finger(&login).is_some());

        // Every NFS server holds credentials for all active users.
        for (_, server) in d.nfs.iter() {
            let s = server.lock();
            assert!(s.credential(&login).is_some());
        }

        // Locker created on exactly one server.
        let locker_path = format!("/u1/lockers/{login}");
        let holders = d
            .nfs
            .values()
            .filter(|s| s.lock().locker(&locker_path).is_some())
            .count();
        assert_eq!(holders, 1);

        // Zephyr ACLs installed: the controlled class rejects outsiders.
        for (_, z) in d.zephyr.iter() {
            let mut z = z.lock();
            assert!(z
                .transmit("definitely-not-a-member", "zclass-0", "i", "m")
                .is_err());
        }
    }

    #[test]
    fn value3_restricts_nfs_credentials_per_host() {
        // §5.8.2: "Which credentials file is loaded on a particular server
        // is determined by the value3 field of the serverhost relation."
        let mut d = Deployment::build(&PopulationSpec::small());
        let restricted_host = d.population.nfs_servers[0].clone();
        let insider = d.population.active_logins[0].clone();
        {
            let mut s = d.state.write();
            let root = moira_core::state::Caller::root("t");
            let run = |s: &mut _, q: &str, args: &[&str]| {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                d.registry.execute(s, &root, q, &args).unwrap()
            };
            run(
                &mut s,
                "add_list",
                &[
                    "srv-cred", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", "",
                ],
            );
            run(
                &mut s,
                "add_member_to_list",
                &["srv-cred", "USER", &insider],
            );
            run(
                &mut s,
                "update_server_host_info",
                &["NFS", &restricted_host, "1", "0", "0", "srv-cred"],
            );
        }
        d.run_dcm_once();
        let outsider = d.population.active_logins[1].clone();
        let restricted = d.nfs[&restricted_host].lock();
        assert!(restricted.credential(&insider).is_some());
        assert!(
            restricted.credential(&outsider).is_none(),
            "value3 restricts membership"
        );
        drop(restricted);
        // Unrestricted hosts carry everyone.
        let open_host = &d.population.nfs_servers[1];
        let open = d.nfs[open_host].lock();
        assert!(open.credential(&insider).is_some());
        assert!(open.credential(&outsider).is_some());
    }

    #[test]
    fn kerberized_hosts_reject_unauthenticated_updates() {
        use moira_dcm::net::PerfectNetwork;
        use moira_dcm::update::{run_update, Script, UpdateCredentials, UpdateError};
        let mut d = Deployment::build(&PopulationSpec::small());
        d.run_dcm_once(); // the real, kerberized DCM succeeds
        let host = d.hosts[&d.population.hesiod_servers[0]].clone();
        let archive = moira_dcm::Archive::from_members(vec![("f".into(), b"x".to_vec())]).unwrap();
        let script = Script::standard(&archive, "/var/hesiod", "install-hesiod");
        let rogue_push = |creds: Option<&UpdateCredentials>| {
            let mut h = host.lock();
            run_update(
                &PerfectNetwork,
                &mut h,
                creds,
                &archive,
                None,
                "/tmp/rogue",
                &script,
            )
            .0
        };
        // A rogue pusher with no credentials is refused…
        assert_eq!(rogue_push(None), Err(UpdateError::AuthFailed));
        // …as is one with credentials for the wrong service.
        let wrong_key = d.kdc.register_service("rcmd.IMPOSTOR.MIT.EDU").unwrap();
        let (ticket, session) = d
            .kdc
            .srvtab_ticket("rcmd.IMPOSTOR.MIT.EDU", wrong_key, "rcmd.IMPOSTOR.MIT.EDU")
            .unwrap();
        let creds = UpdateCredentials {
            ticket,
            authenticator: moira_krb::ticket::make_authenticator(
                session,
                "rcmd.IMPOSTOR.MIT.EDU",
                d.clock.now(),
                999,
            ),
        };
        assert_eq!(rogue_push(Some(&creds)), Err(UpdateError::AuthFailed));
        assert!(
            host.lock().read_file("/tmp/rogue").is_none(),
            "nothing was transferred"
        );
    }

    #[test]
    fn dcm_failures_page_through_zephyr() {
        let mut d = Deployment::build(&PopulationSpec::small());
        d.run_dcm_once();
        // An operator subscribes to MOIRA on one server, then a host starts
        // hard-failing installs.
        let zname = d.population.zephyr_servers[0].clone();
        d.zephyr[&zname]
            .lock()
            .subscribe("operator", "MOIRA")
            .unwrap();
        d.advance(60);
        {
            let mut s = d.state.write();
            let login = d.population.active_logins[0].clone();
            d.registry
                .execute(
                    &mut s,
                    &moira_core::state::Caller::root("t"),
                    "update_user_shell",
                    &[login, "/bin/zz".into()],
                )
                .unwrap();
        }
        let hes = d.population.hesiod_servers[0].clone();
        d.hosts[&hes].lock().fail.fail_exec_with = Some(9);
        d.advance(7 * 3600);
        d.run_dcm_once();
        let z = d.zephyr[&zname].lock();
        let notice = z
            .delivered
            .iter()
            .find(|n| n.class == "MOIRA" && n.instance == "DCM")
            .expect("failure notice delivered over zephyr");
        assert!(notice.message.contains("HESIOD"));
        assert_eq!(notice.sender, "moira");
    }

    #[test]
    fn quota_change_visible_after_next_interval() {
        let mut d = Deployment::build(&PopulationSpec::small());
        d.run_dcm_once();
        d.advance(60);
        let login = d.population.active_logins[1].clone();
        // The §3 example: an administrator changes a quota from her
        // workstation…
        {
            let mut conn = moira_client::DirectClient::connect_as_root(
                d.state.clone(),
                d.registry.clone(),
                "usermaint",
            );
            moira_client::apps::UserMaint::set_quota(&mut conn, &login, &login, 999).unwrap();
        }
        // …and "the change will automatically take place on the proper
        // server a short time later" — after the NFS interval elapses.
        d.advance(13 * 3600);
        let report = d.run_dcm_once();
        assert!(report.generated.iter().any(|(s, _, _)| s == "NFS"));
        let uid: i64 = {
            let s = d.state.read();
            let row =
                s.db.table(users::T)
                    .select_one(&moira_db::Pred::Eq(users::LOGIN, login.clone().into()))
                    .unwrap();
            s.db.cell(row, users::UID).as_int()
        };
        let holders = d
            .nfs
            .values()
            .filter(|srv| srv.lock().quota(uid) == Some(999))
            .count();
        assert_eq!(holders, 1, "the proper server got the new quota");
    }
}
