//! The propagation path: `propagate`.
//!
//! No server thread. Set-up is `Deployment::build` plus the first full DCM
//! cycle; then each cycle commits a shell change for 1 % of the users
//! through `Registry::execute` under the write guard, advances the clock
//! past every service's interval, and runs `run_dcm_once`. A cycle's time
//! runs from its first commit to `run_dcm_once` returning with every host
//! confirmed. After each cycle (untimed) every changed login must resolve to
//! its new shell on every Hesiod replica; after the last, each prepared
//! archive must equal a from-scratch `generate`.
//!
//! The harness sits on the `Network` seam for bytes, legs and phase marks.
//! A traced run also replays the generator, patch, consumer and Kerberos
//! calls beside each cycle on cloned inputs, so each layer has a figure of
//! its own to set against the cycle, and starts with the DCM's own recovery:
//! a restarted DCM (caches and delta cursors gone) has to bring every host
//! back in step with a new change.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use moira_core::state::Caller;
use moira_dcm::dcm::{install_dir, DcmReport, DcmStats};
use moira_dcm::generators::incremental::{refresh, CachedBuild};
use moira_dcm::generators::{standard_generators, Generator};
use moira_dcm::net::{NetFault, Network};
use moira_dcm::update::{apply_line_patch, line_patch};
use moira_dcm::Archive;
use moira_krb::ticket::{make_authenticator, Verifier};
use moira_sim::Deployment;
use moira_svc::{HesiodServer, MailHub, NfsServer, ZephyrServer};
use serde_json::{json, Value};

use crate::ops::{Rng, SHELLS};
use crate::report::Outcome;
use crate::stats::{check_trial, median, ms, spread};
use crate::{host, trace, Config};

/// One update connection as the seam saw it.
#[derive(Debug, Clone)]
struct Leg {
    host: String,
    connect: Instant,
    last: Instant,
    transmits: u64,
}

#[derive(Debug, Default)]
struct SeamLog {
    bytes: u64,
    legs: Vec<Leg>,
}

/// The harness's seat on `moira_dcm::net::Network`: forwards to the
/// deployment's fabric, counting bytes and timing each connection.
struct SeamNetwork {
    inner: Arc<dyn Network>,
    log: Mutex<SeamLog>,
}

impl SeamNetwork {
    fn take(&self) -> SeamLog {
        std::mem::take(&mut *self.log.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Network for SeamNetwork {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        let connect = Instant::now();
        let result = self.inner.connect(host);
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        log.legs.push(Leg {
            host: host.to_owned(),
            connect,
            last: Instant::now(),
            transmits: 0,
        });
        result
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        let result = self.inner.transmit(host, len);
        let mut log = self.log.lock().unwrap_or_else(PoisonError::into_inner);
        log.bytes += len as u64;
        if let Some(leg) = log.legs.iter_mut().rev().find(|l| l.host == host) {
            leg.last = Instant::now();
            leg.transmits += 1;
        }
        result
    }
}

/// One measured cycle.
struct Cycle {
    total: Duration,
    commit: Duration,
    start: Instant,
    dcm_start: Instant,
    end: Instant,
    seam: SeamLog,
    updates_ok: u64,
    stats: DcmStats,
}

/// A built deployment with the seam in place and its first cycle done.
struct Site {
    d: Deployment,
    seam: Arc<SeamNetwork>,
    /// Shell index per login, as of the last commit.
    shell: Vec<u8>,
    build_s: f64,
    first_cycle_s: f64,
}

impl Site {
    fn start(cfg: &Config, out: &mut Outcome) -> Site {
        let t0 = Instant::now();
        let mut d = Deployment::build(&cfg.spec);
        let build_s = t0.elapsed().as_secs_f64();
        let seam = Arc::new(SeamNetwork {
            inner: d.net.clone(),
            log: Mutex::default(),
        });
        d.dcm.set_network(seam.clone());
        let t0 = Instant::now();
        let report = d.run_dcm_once();
        let first_cycle_s = t0.elapsed().as_secs_f64();
        seam.take();
        for (_, _, result) in &report.updates {
            out.check(result.is_ok());
        }
        let shell = vec![0; d.population.active_logins.len()];
        Site {
            d,
            seam,
            shell,
            build_s,
            first_cycle_s,
        }
    }

    /// Commits a shell change for `logins`, lets every service come due and
    /// runs the DCM once. Timed from the first commit to the DCM returning.
    fn cycle(&mut self, logins: &[usize], rng: &mut Rng) -> (Cycle, DcmReport) {
        let root = Caller::root("moira-bench");
        let before = self.d.dcm.stats;
        let start = Instant::now();
        {
            let mut st = self.d.state.write();
            for &l in logins {
                let step = 1 + rng.below(SHELLS.len() - 1) as u8;
                self.shell[l] = (self.shell[l] + step) % SHELLS.len() as u8;
                let args = [
                    self.d.population.active_logins[l].clone(),
                    SHELLS[self.shell[l] as usize].to_owned(),
                ];
                self.d
                    .registry
                    .execute(&mut st, &root, "update_user_shell", &args)
                    .expect("shell change on a populated login");
            }
        }
        let dcm_start = Instant::now();
        self.d.advance(25 * 3600);
        let report = self.d.run_dcm_once();
        let end = Instant::now();
        let after = self.d.dcm.stats;
        let cycle = Cycle {
            total: end - start,
            commit: dcm_start - start,
            start,
            dcm_start,
            end,
            seam: self.seam.take(),
            updates_ok: report.updates.iter().filter(|u| u.2.is_ok()).count() as u64,
            stats: DcmStats {
                generations: after.generations - before.generations,
                no_changes: after.no_changes - before.no_changes,
                full_rebuilds: after.full_rebuilds - before.full_rebuilds,
                delta_builds: after.delta_builds - before.delta_builds,
                ..DcmStats::default()
            },
        };
        (cycle, report)
    }

    /// Untimed: every host update succeeded and every changed login
    /// resolves to its new shell on every Hesiod replica.
    fn verify(&self, logins: &[usize], report: &DcmReport, out: &mut Outcome) {
        for (_, _, result) in &report.updates {
            out.check(result.is_ok());
        }
        for replica in self.d.hesiod.values() {
            let replica = replica.lock();
            for &l in logins {
                let want = format!(":{}", SHELLS[self.shell[l] as usize]);
                let got = replica.resolve(&self.d.population.active_logins[l], "passwd");
                out.check(got.is_ok_and(|v| v.len() == 1 && v[0].ends_with(&want)));
            }
        }
    }

    /// Untimed: what the DCM holds ready equals a from-scratch build.
    fn verify_archives(&self, out: &mut Outcome) {
        let st = self.d.state.read();
        for g in standard_generators() {
            let scratch = g.generate(&st, "");
            let prepared = self.d.dcm.prepared(g.service());
            out.check(matches!((scratch, prepared), (Ok(a), Some(b)) if a == *b));
        }
    }
}

/// `n` distinct logins, seeded.
fn pick(rng: &mut Rng, population: usize, n: usize) -> Vec<usize> {
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < n.min(population) {
        chosen.insert(rng.below(population));
    }
    chosen.into_iter().collect()
}

/// Files installed for `service` on a host, as the install script sees them.
fn installed(d: &Deployment, host: &str, service: &str) -> Vec<(String, String)> {
    let prefix = format!("{}/", install_dir(service));
    let Some(h) = d.hosts.get(host) else {
        return Vec::new();
    };
    h.lock()
        .files()
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

/// Per-cycle timings of the replayed layer calls, by per-layer metric name.
type Replay = BTreeMap<&'static str, Vec<f64>>;

const REFRESH: [&str; 5] = [
    "dcm.generators.refresh_ms.HESIOD",
    "dcm.generators.refresh_ms.NFS",
    "dcm.generators.refresh_ms.MAIL",
    "dcm.generators.refresh_ms.ZEPHYR",
    "dcm.generators.refresh_ms.PASSWD",
];
const FULL: [&str; 5] = [
    "dcm.generators.full_ms.HESIOD",
    "dcm.generators.full_ms.NFS",
    "dcm.generators.full_ms.MAIL",
    "dcm.generators.full_ms.ZEPHYR",
    "dcm.generators.full_ms.PASSWD",
];

fn timed<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _s = trace::span(span);
    let t = Instant::now();
    let v = f();
    (v, ms(t.elapsed()))
}

/// The layer calls of one cycle, made again beside it on cloned inputs.
struct Replayer {
    generators: Vec<Box<dyn Generator>>,
    /// The harness's own cached builds, one cycle behind the database.
    shadow: Vec<CachedBuild>,
    verifier: Verifier,
    client_key: moira_krb::cipher::Key,
    nonce: u64,
}

impl Replayer {
    fn new(site: &Site) -> Replayer {
        let generators = standard_generators();
        let st = site.d.state.read();
        let shadow = generators
            .iter()
            .map(|g| refresh(g.as_ref(), &st, None).expect("warm build").build)
            .collect();
        let kdc = &site.d.kdc;
        let client_key = kdc
            .register_service("rcmd.moira-bench")
            .expect("fresh principal");
        let host_key = kdc
            .register_service("rcmd.BENCH-HOST.MIT.EDU")
            .expect("fresh principal");
        Replayer {
            generators,
            shadow,
            verifier: Verifier::new("rcmd.BENCH-HOST.MIT.EDU", host_key, site.d.clock.clone()),
            client_key,
            nonce: 0,
        }
    }

    fn replay(&mut self, site: &Site, logins: &[usize], hosts: usize, out: &mut Replay) {
        let d = &site.d;
        let st = d.state.read();
        let mut push = |name: &'static str, v: f64| out.entry(name).or_default().push(v);
        let (mut to_bytes, mut manifest, mut patch_ms, mut apply_ms) = (0.0, 0.0, 0.0, 0.0);
        for (i, g) in self.generators.iter().enumerate() {
            let (_, full) = timed("dcm.generators.full", || {
                g.generate(&st, "").expect("generate")
            });
            push(FULL[i], full);
            let old = self.shadow[i].clone();
            let (fresh, incr) = timed("dcm.generators.refresh", || {
                refresh(g.as_ref(), &st, Some(old)).expect("refresh").build
            });
            push(REFRESH[i], incr);
            let new: Archive = fresh.archive().clone();
            to_bytes += timed("dcm.archive.to_bytes", || new.to_bytes()).1;
            manifest += timed("dcm.archive.manifest", || new.manifest()).1;
            for (name, data) in new.iter() {
                let Some(base) = self.shadow[i].archive().get(name).filter(|b| *b != data) else {
                    continue;
                };
                let (patch, t) = timed("dcm.update.line_patch", || line_patch(base, data));
                patch_ms += t;
                let (applied, t) =
                    timed("dcm.update.apply_patch", || apply_line_patch(base, &patch));
                apply_ms += t;
                assert_eq!(
                    applied.as_deref(),
                    Some(data),
                    "{name}: patch must rebuild the member"
                );
            }
            self.shadow[i] = fresh;
        }
        push("dcm.archive.to_bytes_ms", to_bytes);
        push("dcm.archive.manifest_ms", manifest);
        push("dcm.update.line_patch_ms", patch_ms);
        push("dcm.update.apply_patch_ms", apply_ms);

        // Consumers reload what their host has installed.
        let pop = &d.population;
        if let Some(h) = pop.hesiod_servers.first() {
            let files = installed(d, h, "HESIOD");
            let (server, t) = timed("svc.hesiod.load", || {
                let mut s = HesiodServer::new();
                for (name, text) in files.iter().filter(|(n, _)| n.ends_with(".db")) {
                    s.load_db(text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
                }
                s
            });
            push("svc.hesiod.load_ms", t);
            let (_, t) = timed("svc.hesiod.resolve", || {
                for &l in logins {
                    std::hint::black_box(server.resolve(&pop.active_logins[l], "passwd")).ok();
                }
            });
            push(
                "svc.hesiod.resolve_us",
                t * 1e3 / logins.len().max(1) as f64,
            );
        }
        if let Some(h) = pop.mail_hubs.first() {
            let files = installed(d, h, "MAIL");
            let (_, t) = timed("svc.mail.load", || {
                let mut hub = MailHub::new();
                for (name, text) in &files {
                    match name.as_str() {
                        "aliases" => drop(hub.load_aliases(text)),
                        "passwd" => drop(hub.load_passwd(text)),
                        _ => {}
                    }
                }
                hub
            });
            push("svc.mail.load_ms", t);
        }
        if let Some(h) = pop.nfs_servers.first() {
            let files = installed(d, h, "NFS");
            let (_, t) = timed("svc.nfs.apply", || {
                let mut nfs = NfsServer::new();
                for (name, text) in &files {
                    if name == "credentials" {
                        drop(nfs.apply_credentials(text));
                    } else if name.ends_with(".quotas") {
                        drop(nfs.apply_quotas(text));
                    } else if name.ends_with(".dirs") {
                        drop(nfs.apply_dirs(text));
                    }
                }
                nfs
            });
            push("svc.nfs.apply_ms", t);
        }
        if let Some(h) = pop.zephyr_servers.first() {
            let files = installed(d, h, "ZEPHYR");
            let (_, t) = timed("svc.zephyr.load", || {
                let mut z = ZephyrServer::new();
                for (name, text) in files.iter().filter(|(n, _)| n.ends_with(".acl")) {
                    z.install_acl_file(name, text);
                }
                z
            });
            push("svc.zephyr.load_ms", t);
        }

        // One ticket + authenticator + verification per host connection.
        let (_, t) = timed("krb.update_auth", || {
            for _ in 0..hosts.max(1) {
                self.nonce += 1;
                let (ticket, session) = d
                    .kdc
                    .srvtab_ticket(
                        "rcmd.moira-bench",
                        self.client_key,
                        "rcmd.BENCH-HOST.MIT.EDU",
                    )
                    .expect("ticket");
                let auth =
                    make_authenticator(session, "rcmd.moira-bench", d.clock.now(), self.nonce);
                self.verifier.verify(&ticket, &auth).expect("verify");
            }
        });
        push("krb.update_auth_us", t * 1e3 / hosts.max(1) as f64);
    }
}

/// Spans of one cycle, built from the seam's marks after the fact.
fn cycle_spans(c: &Cycle) {
    let root = trace::closed("dcm.dcm.cycle", c.start, c.end, None);
    trace::closed("core.registry.commit_batch", c.start, c.dcm_start, root);
    let run = trace::closed("dcm.dcm.run_once", c.dcm_start, c.end, root);
    let first = c.seam.legs.first().map_or(c.end, |l| l.connect);
    trace::closed("dcm.dcm.generation_phase", c.dcm_start, first, run);
    let hosts = trace::closed("dcm.dcm.host_phase", first, c.end, run);
    for leg in &c.seam.legs {
        trace::closed("dcm.update.host", leg.connect, leg.last, hosts);
    }
}

/// Cycles a traced run records, after two with recording off.
const TRACED_CYCLES: usize = 5;

/// Runs the `propagate` workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setups = if cfg.traced { 1 } else { 3 };
    // A fixed number of cycles, one per second of `--seconds` (a cycle
    // takes about that long at the parent commit): cycle time creeps up
    // within a run, so a count that followed the run's speed would hand a
    // faster DCM more, slower, cycles and pull its median back up.
    let wanted = if cfg.traced {
        TRACED_CYCLES
    } else {
        (cfg.seconds.round() as usize).max(2)
    };

    let mut setup_s = Vec::new();
    let mut site = None;
    for _ in 0..setups {
        drop(site.take());
        let t0 = Instant::now();
        site = Some(Site::start(cfg, &mut out));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut site = site.expect("at least one set-up");
    let population = site.d.population.active_logins.len();
    let batch = (population / 100).max(1);
    let mut rng = Rng::new(cfg.seed);

    let peak_rss_mb = host::peak_rss_mb();

    // A traced run first measures a few cycles with recording off, so the
    // cost of recording is stated next to the figures it produced.
    let mut plain_ms = Vec::new();
    let mut replayer = None;
    let mut replay = Replay::new();
    let mut restart_cycle_ms = 0.0;
    if cfg.traced {
        let logins = pick(&mut rng, population, batch);
        let t0 = Instant::now();
        site.d.restart_dcm();
        site.d.dcm.set_network(site.seam.clone());
        let (_, report) = site.cycle(&logins, &mut rng);
        restart_cycle_ms = ms(t0.elapsed());
        site.verify(&logins, &report, &mut out);
        for _ in 0..2 {
            let logins = pick(&mut rng, population, batch);
            let (cycle, report) = site.cycle(&logins, &mut rng);
            site.verify(&logins, &report, &mut out);
            plain_ms.push(ms(cycle.total));
        }
        replayer = Some(Replayer::new(&site));
        trace::enable();
    }

    let transfer_before = site.d.state.read().obs.snapshot();
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < wanted {
        let logins = pick(&mut rng, population, batch);
        trace::set_id(cycles.len() as u64 + 1);
        let (cycle, report) = site.cycle(&logins, &mut rng);
        site.verify(&logins, &report, &mut out);
        if let Some(r) = replayer.as_mut() {
            cycle_spans(&cycle);
            r.replay(&site, &logins, cycle.seam.legs.len(), &mut replay);
        }
        cycles.push(cycle);
    }
    let spans = trace::disable();
    let transfer_after = site.d.state.read().obs.snapshot();
    site.verify_archives(&mut out);

    let cycle_ms: Vec<f64> = cycles.iter().map(|c| ms(c.total)).collect();
    let wire: Vec<f64> = cycles.iter().map(|c| c.seam.bytes as f64).collect();
    let updates: Vec<f64> = cycles.iter().map(|c| c.updates_ok as f64).collect();
    let busy: Duration = cycles.iter().map(|c| c.total).sum();
    if !cfg.smoke {
        check_trial(busy)?;
    }
    out.detail.insert(
        "host".into(),
        json!({
            "cores": host::cores(),
            "kernel": host::kernel(),
            "users": population,
            "changed_per_cycle": batch,
            "hosts": site.d.hosts.len(),
            "hesiod_replicas": site.d.hesiod.len(),
            "fanout_width": site.d.dcm.fanout_width(),
            "cycles": cycles.len(),
        }),
    );
    out.detail.insert(
        "trials".into(),
        json!({
            "setup_s": setup_s.clone(),
            "cycle_ms": cycle_ms.clone(),
            "wire_bytes": wire.clone(),
            "spread": {
                "setup_s": spread(&setup_s),
                "cycle_ms": spread(&cycle_ms),
                "wire_bytes": spread(&wire),
            },
            "host_updates": updates.clone(),
            "rss_at_exit_mb": host::peak_rss_mb(),
        }),
    );
    if !cfg.traced {
        out.e2e("setup_s", median(&setup_s).unwrap_or(0.0));
        let cycle_p50 = median(&cycle_ms).unwrap_or(0.0);
        out.e2e("op_p50_ms", cycle_p50);
        // Host updates a second at the median cycle: the same measurement
        // as `op_p50_ms` seen as a rate, not a second one with noise of
        // its own (a mean over the cycles would be).
        out.e2e(
            "ops_per_s",
            median(&updates).unwrap_or(0.0) * 1e3 / cycle_p50.max(1e-9),
        );
        out.e2e("io_bytes_per_op", median(&wire).unwrap_or(0.0));
        out.e2e("peak_rss_mb", peak_rss_mb);
        return Ok(out);
    }

    // Per-layer figures: medians over the traced cycles.
    let med = |f: &dyn Fn(&Cycle) -> f64| {
        median(&cycles.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let first_connect = |c: &Cycle| c.seam.legs.first().map_or(c.end, |l| l.connect);
    let generation = med(&|c| ms(first_connect(c) - c.dcm_start));
    let host_phase = med(&|c| ms(c.end - first_connect(c)));
    let leg_ms =
        |c: &Cycle| -> Vec<f64> { c.seam.legs.iter().map(|l| ms(l.last - l.connect)).collect() };
    out.layer("dcm.dcm.generation_phase_ms", generation);
    out.layer("dcm.dcm.host_phase_ms", host_phase);
    out.layer("dcm.dcm.hosts_updated", med(&|c| c.updates_ok as f64));
    out.layer(
        "dcm.dcm.delta_builds",
        med(&|c| c.stats.delta_builds as f64),
    );
    out.layer(
        "dcm.dcm.full_rebuilds",
        med(&|c| c.stats.full_rebuilds as f64),
    );
    out.layer("dcm.dcm.no_changes", med(&|c| c.stats.no_changes as f64));
    out.layer("dcm.dcm.restart_cycle_ms", restart_cycle_ms);
    out.layer(
        "dcm.update.legs_per_host",
        med(&|c| {
            let legs: u64 = c.seam.legs.iter().map(|l| l.transmits).sum();
            legs as f64 / c.seam.legs.len().max(1) as f64
        }),
    );
    out.layer(
        "dcm.update.host_ms_p50",
        med(&|c| median(&leg_ms(c)).unwrap_or(0.0)),
    );
    let per_cycle = |name: &str| {
        (transfer_after.counter(name) - transfer_before.counter(name)) as f64 / cycles.len() as f64
    };
    out.layer(
        "dcm.update.patch_members",
        per_cycle("dcm.transfer.patch_members"),
    );
    out.layer(
        "dcm.update.full_members",
        per_cycle("dcm.transfer.full_members"),
    );
    out.layer(
        "dcm.update.patch_bytes",
        per_cycle("dcm.transfer.patch_bytes"),
    );
    out.layer(
        "dcm.update.full_bytes",
        per_cycle("dcm.transfer.full_bytes"),
    );
    let mut measured = med(&|c| ms(c.commit)) + med(&|c| leg_ms(c).iter().sum());
    for (name, values) in &replay {
        let m = median(values).unwrap_or(0.0);
        out.layer(name, m);
        if REFRESH.contains(name) || *name == "dcm.archive.to_bytes_ms" {
            measured += m;
        }
    }
    let cycle_p50 = median(&cycle_ms).unwrap_or(0.0);
    out.layer("dcm.dcm.unattributed_ms", cycle_p50 - measured);
    out.layer("sim.populate_s", site.build_s);
    out.layer("sim.populate_queries", site.d.population.queries_run as f64);
    out.layer("sim.first_cycle_s", site.first_cycle_s);

    let plain = median(&plain_ms).unwrap_or(0.0);
    let mut doc = BTreeMap::new();
    doc.insert(
        "tracing_overhead".to_owned(),
        json!({
            "untraced_cycle_ms": plain,
            "traced_cycle_ms": cycle_p50,
            "share_lost": cycle_p50 / plain.max(1e-9) - 1.0,
            "note": "replayed layer calls run between cycles, outside the cycle's clock",
        }),
    );
    doc.insert("cycle_p50_ms".to_owned(), json!(cycle_p50));
    doc.insert("spans".to_owned(), trace::spans_json(&spans));
    doc.insert(
        "self_time".to_owned(),
        trace::self_time_json(&spans, cycles.len() as u64),
    );
    out.trace = Some(Value::Object(doc));
    Ok(out)
}
