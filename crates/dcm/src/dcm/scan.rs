//! Stage 1 of a DCM run — the two table scans of §5.7.1: the `servers`
//! scan (which services are due, and their data-file generation) and the
//! `serverhosts` scan (which hosts of a service need a push, and which
//! could relay one).

use std::collections::HashSet;

use moira_db::lock::LockMode;
use moira_db::Pred;

use super::record::{DcmReport, ServiceFlags};
use super::{svc_lock, Dcm};
use crate::generators::incremental;
use moira_core::schema::{machine, serverhosts, servers};

/// One `servers` row, as read at the start of the run.
#[derive(Debug, Clone)]
pub(super) struct ServiceInfo {
    pub name: String,
    pub interval_secs: i64,
    pub target: String,
    pub script: String,
    pub replicated: bool,
    pub dfgen: i64,
    pub dfcheck: i64,
}

/// One host a service must push to this cycle.
pub(super) struct HostTodo {
    /// Canonical machine name (empty if the machine row is gone — the leg
    /// then fails on its connect like any unknown host).
    pub name: String,
    pub mach_id: i64,
    /// The server-host row's `value3` (per-host generator argument).
    pub value3: String,
}

/// What one pass over a service's `serverhosts` rows found.
pub(super) struct HostScan {
    /// Hosts to update, in row order.
    pub todo: Vec<HostTodo>,
    /// Every enabled host of the service — the relay candidate pool for
    /// `RackTopology::plan`.
    pub serving: HashSet<String>,
}

impl Dcm {
    /// Services that are enabled, have no hard errors, a non-zero interval,
    /// and a generator module.
    pub(super) fn eligible_services(&self) -> Vec<ServiceInfo> {
        let state = self.state.read();
        let t = state.db.table(servers::T);
        let mut out = Vec::new();
        for (row, _) in t.iter() {
            let info = ServiceInfo {
                name: t.cell(row, servers::NAME).as_str().to_owned(),
                interval_secs: t.cell(row, servers::UPDATE_INT).as_int() * 60,
                target: t.cell(row, servers::TARGET_FILE).as_str().to_owned(),
                script: t.cell(row, servers::SCRIPT).as_str().to_owned(),
                replicated: t.cell(row, servers::TYPE).as_str() == "REPLICAT",
                dfgen: t.cell(row, servers::DFGEN).as_int(),
                dfcheck: t.cell(row, servers::DFCHECK).as_int(),
            };
            if t.cell(row, servers::ENABLE).as_bool()
                && t.cell(row, servers::HARDERROR).as_int() == 0
                && info.interval_secs > 0
                && self.generators.contains_key(info.name.as_str())
            {
                out.push(info);
            }
        }
        out
    }

    /// Regenerates a due service's data files under its exclusive lock.
    pub(super) fn generation_phase(&mut self, svc: &ServiceInfo, report: &mut DcmReport) {
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
            let locked = state
                .locks
                .acquire("dcm", &svc_lock(&svc.name), LockMode::Exclusive);
            if locked.is_err() {
                return;
            }
            let started = ServiceFlags {
                dfgen: svc.dfgen,
                dfcheck: svc.dfcheck,
                inprogress: true,
                ..ServiceFlags::default()
            };
            self.set_service_flags(&mut state, &svc.name, started);
        }
        let generator = self.generators.get(svc.name.as_str()).expect("eligible");
        // Refresh the cached build under one read guard: the cursor cut and
        // the delta reads describe a single database version.
        let prev = self.prepared.remove(&svc.name);
        let result = {
            let state = self.state.read();
            incremental::refresh(generator.as_ref(), &state, prev)
        };
        let mut done = ServiceFlags {
            dfgen: svc.dfgen,
            dfcheck: now,
            ..ServiceFlags::default()
        };
        match result {
            Ok(refresh) => {
                if refresh.changed {
                    self.stats.generations += 1;
                    if refresh.full {
                        self.stats.full_rebuilds += 1;
                    } else {
                        self.stats.delta_builds += 1;
                    }
                    let archive = refresh.build.archive();
                    report.generated.push((
                        svc.name.clone(),
                        archive.len(),
                        archive.payload_size(),
                    ));
                    done.dfgen = now;
                } else {
                    // "If the generator exits indicating that nothing has
                    // changed, only dfcheck is updated."
                    self.stats.no_changes += 1;
                    report.unchanged.push(svc.name.clone());
                }
                self.prepared.insert(svc.name.clone(), refresh.build);
            }
            Err(e) => {
                self.zephyr(format!("{}: generator hard error: {}", svc.name, e));
                done.dfcheck = svc.dfcheck;
                done.harderror = e.code();
                done.errmsg = e.to_string();
            }
        }
        let mut state = self.state.write();
        self.set_service_flags(&mut state, &svc.name, done);
        state.locks.release("dcm", &svc_lock(&svc.name));
    }

    /// The service's `dfgen` as of now (generation may just have happened),
    /// with its data files on hand. `None` when there is nothing to push:
    /// never generated, or lost and not rebuildable this cycle.
    pub(super) fn pushable_generation(&mut self, svc: &ServiceInfo) -> Option<i64> {
        let dfgen = {
            let state = self.state.read();
            let t = state.db.table(servers::T);
            t.select_one(&Pred::Eq(servers::NAME, svc.name.clone().into()))
                .map_or(0, |row| t.cell(row, servers::DFGEN).as_int())
        };
        if self.prepared.contains_key(&svc.name) {
            return Some(dfgen);
        }
        if dfgen == 0 {
            return None;
        }
        // Data files recorded as generated but missing (a Moira crash lost
        // them): rebuild from the database rather than ever pushing an
        // empty archive. "Crashes of the Moira machine will result in (at
        // worst) delays in updates."
        let generator = self.generators.get(svc.name.as_str()).expect("eligible");
        let rebuilt = {
            let state = self.state.read();
            incremental::refresh(generator.as_ref(), &state, None)
        };
        let refresh = rebuilt.ok()?;
        self.stats.full_rebuilds += 1;
        self.prepared.insert(svc.name.clone(), refresh.build);
        Some(dfgen)
    }

    /// One pass over the service's server-host rows. A host needs an
    /// update when it is enabled, has no hard error, has not been
    /// successfully updated since the data files were generated (or has
    /// override set), and its retry backoff gate — if a soft-failure
    /// streak is open — has reopened. `override` bypasses the gate: an
    /// operator demanding an immediate push gets one.
    pub(super) fn scan_hosts(&mut self, service: &str, dfgen: i64) -> HostScan {
        let state = self.state.read();
        let now = state.now();
        let t = state.db.table(serverhosts::T);
        let machines = state.db.table(machine::T);
        let budget = self.retry.policy().per_run_budget;
        let mut retries_scheduled = 0usize;
        let mut scan = HostScan {
            todo: Vec::new(),
            serving: HashSet::new(),
        };
        for row in t.select(&Pred::Eq(serverhosts::SERVICE, service.into())) {
            if !t.cell(row, serverhosts::ENABLE).as_bool() {
                continue;
            }
            let mach_id = t.cell(row, serverhosts::MACH_ID).as_int();
            let name = machines
                .select_one(&Pred::Eq(machine::MACH_ID, mach_id.into()))
                .map(|r| machines.cell(r, machine::NAME).render());
            if let Some(name) = &name {
                scan.serving.insert(name.clone());
            }
            let override_ = t.cell(row, serverhosts::OVERRIDE).as_bool();
            if t.cell(row, serverhosts::HOSTERROR).as_int() != 0
                || (t.cell(row, serverhosts::LTS).as_int() >= dfgen && !override_)
            {
                continue;
            }
            let name = name.unwrap_or_default();
            if !override_ && self.retry.is_retry(service, &name) {
                if !self.retry.ready(service, &name, now) || retries_scheduled >= budget {
                    self.stats.retries_deferred += 1;
                    continue;
                }
                retries_scheduled += 1;
            }
            scan.todo.push(HostTodo {
                name,
                mach_id,
                value3: t.cell(row, serverhosts::VALUE3).render(),
            });
        }
        scan
    }
}
