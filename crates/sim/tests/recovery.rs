//! Disaster recovery vs the generator caches (§5.2.2 meets incremental
//! generation): rebuilding the database from an mrbackup dump plus journal
//! replay gives the state a new epoch, so every cached generator build must
//! be invalidated — the next DCM pass takes the full-rebuild path and never
//! serves a stale cached archive. Also: an *incremental* (delta-built,
//! manifest-pushed) update must converge across a faulty network just like
//! a full push does.

use moira_core::state::{Caller, MoiraState};
use moira_dcm::retry::RetryPolicy;
use moira_sim::{Deployment, PopulationSpec};

/// The installed Hesiod passwd.db on `host`, if any.
fn hesiod_passwd(d: &Deployment, host: &str) -> Option<Vec<u8>> {
    d.hosts[host]
        .lock()
        .read_file("/var/hesiod/passwd.db")
        .map(|b| b.to_vec())
}

fn add_user(d: &Deployment, login: &str, uid: &str) {
    let mut s = d.state.write();
    d.registry
        .execute(
            &mut s,
            &Caller::root("ops"),
            "add_user",
            &[
                login.into(),
                uid.into(),
                "/bin/csh".into(),
                "Last".into(),
                "First".into(),
                "".into(),
                "1".into(),
                "x".into(),
                "1990".into(),
            ],
        )
        .unwrap();
}

#[test]
fn restore_and_replay_invalidates_generator_caches() {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.run_dcm_once(); // warm every generator cache and install baselines
    let full_before = d.dcm.stats.full_rebuilds;

    // Nightly backup, then a journaled mutation the dump does not contain.
    d.run_nightly_backup();
    d.advance(60);
    add_user(&d, "reborn", "7777");

    // Simulated server loss: rebuild the state from the newest on-line
    // backup generation plus a replay of the journal tail, exactly the
    // §5.2.2 recovery procedure. The Dcm keeps its cached builds across
    // the swap — they now describe a database that no longer exists.
    let replay: Vec<(String, String, Vec<String>)> = {
        let s = d.state.read();
        s.journal
            .since(d.last_backup)
            .map(|e| (e.who, e.query, e.args))
            .collect()
    };
    assert!(
        !replay.is_empty(),
        "the add_user landed in the journal tail"
    );
    let mut fresh = MoiraState::new(d.clock.clone());
    let mut db = moira_db::Database::new(d.clock.clone());
    moira_core::schema::create_all_tables(&mut db);
    moira_db::backup::mrrestore(&mut db, &d.backups.generations().unwrap()[0]).unwrap();
    fresh.db = db;
    for (who, query, args) in &replay {
        d.registry
            .execute(&mut fresh, &Caller::root(who), query, args)
            .unwrap();
    }
    *d.state.write() = fresh;

    d.advance(25 * 3600);
    let report = d.run_dcm_once();

    // The restored epoch invalidated every cursor: no delta path, no stale
    // cache — every regenerated service went through the full fallback.
    assert!(
        d.dcm.stats.full_rebuilds > full_before,
        "restore must force full rebuilds, got {} then {}",
        full_before,
        d.dcm.stats.full_rebuilds
    );
    assert!(
        report.generated.iter().any(|(s, _, _)| s == "HESIOD"),
        "replayed user changes hesiod output: {report:?}"
    );
    let host = d.population.hesiod_servers[0].clone();
    let passwd = hesiod_passwd(&d, &host).expect("hesiod installed");
    assert!(
        String::from_utf8_lossy(&passwd).contains("reborn"),
        "host received the replayed user, not a stale cached archive"
    );
}

#[test]
fn incremental_push_converges_over_flaky_link() {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.run_dcm_once(); // baseline full push, caches warm
    let victim = d.population.hesiod_servers[0].clone();

    // A delta-sized change, pushed through a link dropping a third of its
    // legs: the manifest handshake's partial transfer must retry to
    // convergence exactly like the legacy whole-archive push did.
    add_user(&d, "deltau", "7676");
    d.net.set_drop_prob(&victim, 0.35);
    d.dcm.set_retry_policy(RetryPolicy {
        escalate_after: u32::MAX,
        ..RetryPolicy::default()
    });
    let mut passes = 0;
    loop {
        d.advance(25 * 3600);
        d.run_dcm_once();
        let installed = hesiod_passwd(&d, &victim)
            .map(|p| String::from_utf8_lossy(&p).contains("deltau"))
            .unwrap_or(false);
        if installed {
            break;
        }
        passes += 1;
        assert!(passes < 60, "incremental push never converged");
    }
    assert!(
        d.dcm.stats.delta_builds >= 1,
        "the converged push was delta-built: {:?}",
        d.dcm.stats
    );
    assert!(d.net.stats().drops > 0, "the flake actually fired");

    // Heal and verify the converged file matches a fault-free oracle.
    d.net.set_drop_prob(&victim, 0.0);
    let mut oracle = Deployment::build(&PopulationSpec::small());
    oracle.run_dcm_once();
    add_user(&oracle, "deltau", "7676");
    oracle.advance(25 * 3600);
    oracle.run_dcm_once();
    assert_eq!(
        hesiod_passwd(&d, &victim),
        hesiod_passwd(&oracle, &victim),
        "faulty-link convergence matches the fault-free run byte for byte"
    );
}
