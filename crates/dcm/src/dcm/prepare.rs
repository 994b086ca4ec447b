//! Stage 2 of a host's update — everything before the network: the
//! attempt counter, the exclusive host lock and inprogress bit, the
//! archive (shared, or this host's cut of it), and fresh credentials (the
//! authenticator nonce is a sequence).

use std::sync::Arc;

use moira_db::lock::LockMode;
use parking_lot::Mutex;

use super::record::HostFlags;
use super::scan::{HostTodo, ServiceInfo};
use super::{host_lock, install_dir, Dcm};
use crate::archive::Archive;
use crate::host::SimHost;
use crate::update::{Script, UpdateCredentials, UpdateError};

/// What `prepare_update` produced for one host.
pub(super) enum Prepared {
    /// Locked, prepared, and ready for its network legs.
    Job(Box<UpdateJob>),
    /// Host lock held by someone else; nothing was written or locked.
    Busy,
    /// Archive build failed. The host lock and inprogress bit are still
    /// held — recording the failure releases them.
    Failed(UpdateError),
}

/// Everything one host's transfer needs, and nothing more: no `&Dcm`, no
/// database guard.
pub(super) struct UpdateJob {
    pub mach_name: String,
    /// The archive to install.
    pub archive: Arc<Archive>,
    /// The host's cursor base — the patch reference, if any.
    pub prev: Option<Arc<Archive>>,
    pub credentials: Option<UpdateCredentials>,
    pub host: Option<Arc<Mutex<SimHost>>>,
    pub target: String,
    pub script: Script,
}

impl Dcm {
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

    /// Prepares one host: host lock, inprogress bit, archive, credentials.
    pub(super) fn prepare_update(
        &mut self,
        svc: &ServiceInfo,
        host: &HostTodo,
        shared: &Arc<Archive>,
    ) -> Prepared {
        self.stats.updates_attempted += 1;
        {
            let mut state = self.state.write();
            let lock = host_lock(&svc.name, &host.name);
            if state
                .locks
                .acquire("dcm", &lock, LockMode::Exclusive)
                .is_err()
            {
                // Another update of this host holds the lock: a distinct
                // soft conflict, not a network timeout. The colliding pass
                // simply retries later; no failure streak is charged.
                self.stats.busy_conflicts += 1;
                return Prepared::Busy;
            }
            let started = HostFlags {
                inprogress: true,
                ..HostFlags::default()
            };
            self.set_host_flags(&mut state, &svc.name, &host.name, started);
        }

        // The archive: the shared one, or for a per-host service this
        // host's cut of it. A generator failure here (e.g. colliding member
        // stems) is bad data for this host — a soft error, retried once the
        // data is fixed. The host lock stays held: recording the failure
        // releases it.
        let generator = self.generators.get(svc.name.as_str()).expect("eligible");
        let archive = match generator.per_host() {
            Some(for_host) => for_host(&self.state.read(), host.mach_id, &host.value3, shared)
                .map(Arc::new)
                .map_err(|_| UpdateError::BadData),
            None => Ok(shared.clone()),
        };
        let credentials = self.credentials_for(&host.name);
        let archive = match archive {
            Ok(archive) => archive,
            Err(e) => return Prepared::Failed(e),
        };
        let script = Script::standard(&archive, &install_dir(&svc.name), &svc.script);
        Prepared::Job(Box::new(UpdateJob {
            mach_name: host.name.clone(),
            prev: self.cursors.base(&svc.name, &host.name),
            host: self.hosts.get(&host.name).cloned(),
            target: svc.target.clone(),
            script,
            credentials,
            archive,
        }))
    }
}
