//! Property test for the incremental generator engine: after ANY sequence
//! of registry mutations, refreshing a cached build must produce an archive
//! byte-identical to generating from scratch — for every standard
//! generator, whether the refresh rode the delta path, a section rebuild,
//! or the full fallback, and across simulated DCM restarts (dropped
//! caches). Both sides render through the same fragment functions, so the
//! one fragment helper with real logic of its own — the bottom-up
//! `groups_of_user` climb — is also checked against an independent
//! top-down expansion of every group. A second test pins that the delta
//! path never asks the planner for a whole-table scan.

// The oracles enumerate whole tables on purpose, independently of the
// delta path under test.
#![allow(clippy::disallowed_methods)]

use std::collections::HashMap;

use moira_core::queries::lists::expand_member_ids_recursive;
use moira_core::queries::testutil::state_with_admin;
use moira_core::registry::Registry;
use moira_core::schema::{list, users};
use moira_core::state::{Caller, MoiraState};
use moira_dcm::generators::incremental::{refresh, CachedBuild};
use moira_dcm::generators::{groups_of_user, standard_generators};
use proptest::prelude::*;

/// The oracle for `groups_of_user`: one top-down pass expanding every
/// active unix group (nested lists included) into
/// `users_id -> [(group name, gid)]`, sorted and deduplicated.
fn group_map(state: &MoiraState) -> HashMap<i64, Vec<(String, i64)>> {
    let mut map: HashMap<i64, Vec<(String, i64)>> = HashMap::new();
    for r in state.db.table(list::T).iter_rows() {
        if !(r.get(list::ACTIVE) && r.get(list::GROUPLIST)) {
            continue;
        }
        let (name, gid) = (r.get(list::NAME).to_owned(), r.get(list::GID));
        let (users, _strings) = expand_member_ids_recursive(state, r.get(list::LIST_ID));
        for users_id in users {
            map.entry(users_id).or_default().push((name.clone(), gid));
        }
    }
    for groups in map.values_mut() {
        groups.sort();
        groups.dedup();
    }
    map
}

/// One mutation drawn from the op vocabulary. The two payload bytes pick
/// entity names from small pools so ops collide (duplicate adds, deletes of
/// absent members) — the registry rejecting an op is itself part of the
/// sequence space.
#[derive(Debug, Clone, Copy)]
struct Op {
    code: u8,
    a: u8,
    b: u8,
}

fn user(i: u8) -> String {
    format!("u{}", i % 6)
}

fn list(i: u8) -> String {
    format!("l{}", i % 4)
}

fn machine(i: u8) -> String {
    format!("M{}.MIT.EDU", i % 3)
}

/// Applies one op, ignoring registry rejections.
fn apply(state: &mut MoiraState, registry: &Registry, op: Op) {
    let root = Caller::root("prop");
    let run = |state: &mut MoiraState, q: &str, args: &[String]| {
        let _ = registry.execute(state, &root, q, args);
    };
    let (a, b) = (op.a, op.b);
    match op.code % 12 {
        0 => run(
            state,
            "add_user",
            &[
                user(a),
                format!("{}", 7000 + u32::from(a % 6)),
                "/bin/csh".into(),
                "Last".into(),
                "First".into(),
                "".into(),
                format!("{}", b % 2),
                format!("x{a}"),
                "1990".into(),
            ],
        ),
        1 => run(
            state,
            "update_user_status",
            &[user(a), format!("{}", b % 2)],
        ),
        2 => run(
            state,
            "update_user_shell",
            &[user(a), format!("/bin/sh{}", b % 3)],
        ),
        3 => run(
            state,
            "add_list",
            &[
                list(a),
                "1".into(),
                "0".into(),
                "0".into(),
                format!("{}", b % 2), // maillist
                format!("{}", a % 2), // grouplist
                format!("{}", 6000 + u32::from(a % 4)),
                "NONE".into(),
                "NONE".into(),
                "prop list".into(),
            ],
        ),
        4 => run(
            state,
            "add_member_to_list",
            &[list(a), "USER".into(), user(b)],
        ),
        5 => run(
            state,
            "delete_member_from_list",
            &[list(a), "USER".into(), user(b)],
        ),
        6 => run(
            state,
            "add_member_to_list",
            &[list(a), "LIST".into(), list(b.wrapping_add(1))],
        ),
        7 => run(state, "add_machine", &[machine(a), "VAX".into()]),
        8 => run(state, "set_pobox", &[user(a), "POP".into(), machine(b)]),
        9 => run(
            state,
            "add_zephyr_class",
            &[
                format!("zc{}", a % 2),
                "LIST".into(),
                list(b),
                "NONE".into(),
                "NONE".into(),
                "USER".into(),
                user(b),
                "NONE".into(),
                "NONE".into(),
            ],
        ),
        10 => run(
            state,
            "add_server_host_access",
            &[machine(a), "LIST".into(), list(b)],
        ),
        11 => run(
            state,
            "add_service",
            &[
                format!("svc{}", a % 3),
                "TCP".into(),
                format!("{}", 9000 + u32::from(a % 3)),
                "alias".into(),
            ],
        ),
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn incremental_refresh_equals_full_rebuild(
        ops in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()), 1..20),
        drop_at in any::<u8>(),
        advance_mask in any::<u32>(),
    ) {
        let (mut state, _) = state_with_admin("ops");
        let registry = Registry::standard();
        let generators = standard_generators();
        let mut caches: Vec<Option<CachedBuild>> =
            generators.iter().map(|_| None).collect();

        for (step, &(code, a, b)) in ops.iter().enumerate() {
            apply(&mut state, &registry, Op { code, a, b });
            // Half the steps stay in the same clock second as the previous
            // mutation — the exact case the old modtime staleness test lost.
            if advance_mask & (1 << (step % 32)) != 0 {
                state.db.clock().advance(3600);
            }
            // A simulated DCM restart: every cached build is gone and the
            // next refresh must take the full-rebuild path.
            if step == usize::from(drop_at) % 20 {
                caches.fill(None);
            }
            let oracle = group_map(&state);
            for r in state.db.table(users::T).iter_rows() {
                if r.get(users::STATUS) != 1 {
                    continue;
                }
                let users_id = r.get(users::USERS_ID);
                prop_assert_eq!(
                    groups_of_user(&state, users_id),
                    oracle.get(&users_id).cloned().unwrap_or_default(),
                    "groups of {} after step {} ({:?})",
                    r.get(users::LOGIN),
                    step,
                    (code, a, b)
                );
            }
            for (generator, cache) in generators.iter().zip(&mut caches) {
                let prev_bytes = cache
                    .as_ref()
                    .map(|c: &CachedBuild| c.archive().to_bytes());
                let refreshed =
                    refresh(generator.as_ref(), &state, cache.take()).unwrap();
                let expected = generator.generate(&state, "").unwrap();
                prop_assert_eq!(
                    refreshed.build.archive().to_bytes(),
                    expected.to_bytes(),
                    "{} diverged after step {} ({:?})",
                    generator.service(),
                    step,
                    (code, a, b)
                );
                // `changed` may over-report for per-host generators, but an
                // actual content change must never be missed.
                if let Some(prev_bytes) = prev_bytes {
                    if prev_bytes != refreshed.build.archive().to_bytes() {
                        prop_assert!(
                            refreshed.changed,
                            "{}: changed content reported NoChange at step {}",
                            generator.service(),
                            step
                        );
                    }
                }
                *cache = Some(refreshed.build);
            }
        }
    }
}

/// The delta path never scans. At a population where the planner has an
/// index to prefer (on tiny tables `Scan` is the honest choice), each
/// one-row change refreshes every standard generator on the delta path
/// without a single `Scan` plan. The planner's own `db.plan.scan` counter
/// sees a fragment that selects with `Pred::True` or on an unindexed
/// column, however many calls down it hides.
#[test]
fn delta_refresh_never_scans() {
    let (mut state, _) = state_with_admin("ops");
    let registry = Registry::standard();
    let root = Caller::root("scan");
    let run = |state: &mut MoiraState, q: &str, args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        registry
            .execute(state, &root, q, &args)
            .unwrap_or_else(|e| panic!("{q} {args:?}: {e}"));
    };
    for g in 0..20 {
        let (name, gid) = (format!("grp{g}"), format!("{}", 6000 + g));
        let list = [
            &name, "1", "0", "0", "0", "1", &gid, "NONE", "NONE", "group",
        ];
        run(&mut state, "add_list", &list);
    }
    for i in 0..2000 {
        let (login, uid, id) = (format!("s{i}"), format!("{}", 10_000 + i), format!("x{i}"));
        let user = [
            &login, &uid, "/bin/csh", "Last", "First", "", "1", &id, "1990",
        ];
        run(&mut state, "add_user", &user);
        let group = format!("grp{}", i % 20);
        run(&mut state, "add_member_to_list", &[&group, "USER", &login]);
    }
    // Every other driver table, a few rows wide with spread keys, so each
    // fragment has rows to render and each per-row lookup an index worth
    // taking.
    run(
        &mut state,
        "add_server_info",
        &[
            "HESIOD",
            "360",
            "/tmp/hesiod.out",
            "hes.sh",
            "REPLICAT",
            "1",
            "NONE",
            "NONE",
        ],
    );
    for c in 0..4 {
        let (cluster, data) = (format!("c{c}"), format!("p{c}"));
        run(&mut state, "add_cluster", &[&cluster, "", "E40"]);
        run(&mut state, "add_cluster_data", &[&cluster, "lpr", &data]);
    }
    for m in 0..20 {
        let (host, cluster) = (format!("H{m}.MIT.EDU"), format!("c{}", m % 4));
        run(&mut state, "add_machine", &[&host, "VAX"]);
        run(&mut state, "add_machine_to_cluster", &[&host, &cluster]);
        run(&mut state, "set_pobox", &[&format!("s{m}"), "POP", &host]);
    }
    // One machine in two clusters renders a pseudo-cluster.
    run(&mut state, "add_machine_to_cluster", &["H0.MIT.EDU", "c1"]);
    for m in 0..4 {
        let (host, dir, locker) = (
            format!("H{m}.MIT.EDU"),
            format!("/u{m}"),
            format!("/u{m}/lk"),
        );
        let (label, mount) = (format!("fs{m}"), format!("/mit/fs{m}"));
        let (login, grp) = (format!("s{m}"), format!("grp{m}"));
        run(
            &mut state,
            "add_nfsphys",
            &[&host, &dir, "ra0c", "1", "0", "99999"],
        );
        run(
            &mut state,
            "add_filesys",
            &[
                &label, "NFS", &host, &locker, &mount, "w", "", &login, &grp, "1", "HOMEDIR",
            ],
        );
        let (printer, spool) = (format!("pr{m}"), format!("/usr/spool/pr{m}"));
        run(
            &mut state,
            "add_printcap",
            &[&printer, &host, &spool, &printer, ""],
        );
        let (service, port) = (format!("svc{m}"), format!("{}", 9000 + m));
        run(&mut state, "add_service", &[&service, "TCP", &port, "x"]);
        run(
            &mut state,
            "add_server_host_info",
            &["HESIOD", &host, "1", "0", "0", ""],
        );
        let class = format!("class{m}");
        run(
            &mut state,
            "add_zephyr_class",
            &[
                &class, "LIST", &grp, "NONE", "NONE", "USER", &login, "NONE", "NONE",
            ],
        );
    }

    let generators = standard_generators();
    let mut caches: Vec<Option<CachedBuild>> = generators
        .iter()
        .map(|g| Some(refresh(g.as_ref(), &state, None).unwrap().build))
        .collect();
    let scans = |state: &MoiraState| state.obs.snapshot().counter("db.plan.scan");
    // One change per driver and lookup table. A change to a lookup table
    // rebuilds each section reading it, so every fragment of every standard
    // generator runs at least once below.
    let changes: [(&str, &[&str]); 12] = [
        ("update_user_shell", &["s5", "/bin/sh"]),
        ("add_member_to_list", &["grp3", "USER", "s7"]),
        ("update_user_status", &["s9", "0"]),
        ("add_machine", &["NEW.MIT.EDU", "VAX"]),
        ("add_cluster", &["c4", "", "E40"]),
        ("add_cluster_data", &["c2", "zephyr", "z2"]),
        ("add_machine_to_cluster", &["H7.MIT.EDU", "c0"]),
        (
            "add_filesys",
            &[
                "fs9",
                "NFS",
                "H1.MIT.EDU",
                "/u1/lk9",
                "/mit/fs9",
                "w",
                "",
                "s9",
                "grp9",
                "1",
                "HOMEDIR",
            ],
        ),
        (
            "add_printcap",
            &["pr9", "H2.MIT.EDU", "/usr/spool/pr9", "pr9", ""],
        ),
        ("add_service", &["svc9", "UDP", "9009", "x"]),
        (
            "add_server_host_info",
            &["HESIOD", "H9.MIT.EDU", "1", "0", "0", ""],
        ),
        (
            "add_zephyr_class",
            &[
                "class9", "LIST", "grp9", "USER", "s9", "NONE", "NONE", "NONE", "NONE",
            ],
        ),
    ];
    for (q, args) in changes {
        run(&mut state, q, args);
        for (generator, cache) in generators.iter().zip(&mut caches) {
            let before = scans(&state);
            let refreshed = refresh(generator.as_ref(), &state, cache.take()).unwrap();
            let service = generator.service();
            assert!(!refreshed.full, "{service} rebuilt in full after {q}");
            assert_eq!(scans(&state), before, "{service} scanned a table after {q}");
            *cache = Some(refreshed.build);
        }
    }
}
