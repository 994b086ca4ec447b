//! Property test for the incremental generator engine: after ANY sequence
//! of registry mutations, refreshing a cached build must produce an archive
//! byte-identical to generating from scratch — for every standard
//! generator, whether the refresh rode the delta path, a section rebuild,
//! or the full fallback, and across simulated DCM restarts (dropped
//! caches). Both sides render through the same fragment functions, so the
//! one fragment helper with real logic of its own — the bottom-up
//! `groups_of_user` climb — is also checked against an independent
//! top-down expansion of every group.

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
    let t = state.db.table(list::T);
    let mut map: HashMap<i64, Vec<(String, i64)>> = HashMap::new();
    for (_, row) in t.iter() {
        if !(row[list::ACTIVE.index()].as_bool() && row[list::GROUPLIST.index()].as_bool()) {
            continue;
        }
        let name = row[list::NAME.index()].as_str().to_owned();
        let gid = row[list::GID.index()].as_int();
        let (users, _strings) =
            expand_member_ids_recursive(state, row[list::LIST_ID.index()].as_int());
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
            let users = state.db.table(users::T);
            for (_, row) in users.iter() {
                if row[users::STATUS.index()].as_int() != 1 {
                    continue;
                }
                let users_id = row[users::USERS_ID.index()].as_int();
                prop_assert_eq!(
                    groups_of_user(&state, users_id),
                    oracle.get(&users_id).cloned().unwrap_or_default(),
                    "groups of {} after step {} ({:?})",
                    row[users::LOGIN.index()].as_str(),
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
