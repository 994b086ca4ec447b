//! Property-based fuzzing of the query layer: random sequences of
//! predefined queries must never panic, and a set of global database
//! invariants must hold afterwards no matter what succeeded or failed.

// The invariant checker is the oracle: it enumerates whole tables on
// purpose, independently of the planner the handlers must go through.
#![allow(clippy::disallowed_methods)]

use moira_core::queries::testutil::state_with_admin;
use moira_core::registry::Registry;
use moira_core::schema::{
    filesys, list, machine, members, nfsphys, nfsquota, serverhosts, servers, users,
};
use moira_core::state::{Caller, MoiraState};
use moira_db::{Pred, Relation};
use proptest::prelude::*;

/// The global invariants Moira's referential rules are supposed to
/// maintain.
fn check_invariants(state: &MoiraState) {
    let db = &state.db;

    // 1. Every members row references an existing list.
    for r in db.table(members::T).iter_rows() {
        let list_id = r.get(members::LIST_ID);
        assert!(
            db.table(list::T)
                .select_one(&Pred::Eq(list::LIST_ID, list_id.into()))
                .is_some(),
            "dangling members.list_id {list_id}"
        );
        // USER members reference existing users.
        if r.get(members::MEMBER_TYPE) == "USER" {
            let uid = r.get(members::MEMBER_ID);
            assert!(
                db.table(users::T)
                    .select_one(&Pred::Eq(users::USERS_ID, uid.into()))
                    .is_some(),
                "dangling USER member {uid}"
            );
        }
    }

    // 2. Per-partition allocation equals the sum of its quotas plus any
    //    manual adjustments — here no manual adjustments are generated, so
    //    equality must hold exactly.
    for p in db.table(nfsphys::T).iter_rows() {
        let phys_id = p.get(nfsphys::NFSPHYS_ID);
        let sum: i64 = db
            .table(nfsquota::T)
            .rows(&Pred::Eq(nfsquota::PHYS_ID, phys_id.into()))
            .map(|q| q.get(nfsquota::QUOTA))
            .sum();
        let allocated = p.get(nfsphys::ALLOCATED);
        assert_eq!(allocated, sum, "allocation drift on partition {phys_id}");
    }

    // 3. Every quota references an existing filesystem and user.
    for q in db.table(nfsquota::T).iter_rows() {
        let (fid, uid) = (q.get(nfsquota::FILSYS_ID), q.get(nfsquota::USERS_ID));
        assert!(
            db.table(filesys::T)
                .select_one(&Pred::Eq(filesys::FILSYS_ID, fid.into()))
                .is_some(),
            "dangling quota filesys {fid}"
        );
        assert!(
            db.table(users::T)
                .select_one(&Pred::Eq(users::USERS_ID, uid.into()))
                .is_some(),
            "dangling quota user {uid}"
        );
    }

    // 4. POP poboxes point at existing machines.
    for u in db.table(users::T).iter_rows() {
        if u.get(users::POTYPE) == "POP" {
            let mid = u.get(users::POP_ID);
            assert!(
                db.table(machine::T)
                    .select_one(&Pred::Eq(machine::MACH_ID, mid.into()))
                    .is_some(),
                "pobox on unknown machine {mid}"
            );
        }
    }

    // 5. Serverhosts reference existing services and machines.
    for h in db.table(serverhosts::T).iter_rows() {
        let (svc, mid) = (h.get(serverhosts::SERVICE), h.get(serverhosts::MACH_ID));
        assert!(
            db.table(servers::T)
                .select_one(&Pred::Eq(servers::NAME, svc.into()))
                .is_some(),
            "dangling serverhost service {svc}"
        );
        assert!(
            db.table(machine::T)
                .select_one(&Pred::Eq(machine::MACH_ID, mid.into()))
                .is_some(),
            "serverhost on unknown machine {mid}"
        );
    }
}

#[derive(Debug, Clone)]
struct FuzzOp {
    query: &'static str,
    args: Vec<String>,
}

/// Small pools keep collisions (the interesting cases) frequent.
fn name(i: u8) -> String {
    format!("n{}", i % 6)
}

fn op_strategy() -> impl Strategy<Value = FuzzOp> {
    let u = any::<u8>();
    prop_oneof![
        (u, any::<u8>()).prop_map(|(a, b)| FuzzOp {
            query: "add_user",
            args: vec![
                name(a),
                (7000 + b as i64).to_string(),
                "/bin/csh".into(),
                "Last".into(),
                "First".into(),
                "".into(),
                (b % 3).to_string(),
                format!("id{a}"),
                "1990".into(),
            ],
        }),
        u.prop_map(|a| FuzzOp {
            query: "delete_user",
            args: vec![name(a)]
        }),
        (u, any::<u8>()).prop_map(|(a, b)| FuzzOp {
            query: "update_user_status",
            args: vec![name(a), (b % 3).to_string()],
        }),
        u.prop_map(|a| FuzzOp {
            query: "add_machine",
            args: vec![name(a), "VAX".into()]
        }),
        u.prop_map(|a| FuzzOp {
            query: "delete_machine",
            args: vec![name(a)]
        }),
        (u, u).prop_map(|(a, m)| FuzzOp {
            query: "set_pobox",
            args: vec![name(a), "POP".into(), name(m)],
        }),
        u.prop_map(|a| FuzzOp {
            query: "delete_pobox",
            args: vec![name(a)]
        }),
        u.prop_map(|a| FuzzOp {
            query: "add_list",
            args: vec![
                format!("l{}", a % 4),
                "1".into(),
                "0".into(),
                "0".into(),
                "0".into(),
                "1".into(),
                "-1".into(),
                "NONE".into(),
                "NONE".into(),
                "".into(),
            ],
        }),
        u.prop_map(|a| FuzzOp {
            query: "delete_list",
            args: vec![format!("l{}", a % 4)]
        }),
        (u, u).prop_map(|(l, a)| FuzzOp {
            query: "add_member_to_list",
            args: vec![format!("l{}", l % 4), "USER".into(), name(a)],
        }),
        (u, u).prop_map(|(l, a)| FuzzOp {
            query: "delete_member_from_list",
            args: vec![format!("l{}", l % 4), "USER".into(), name(a)],
        }),
        (u, u).prop_map(|(m, _)| FuzzOp {
            query: "add_nfsphys",
            args: vec![
                name(m),
                "/u1/lockers".into(),
                "ra0c".into(),
                "1".into(),
                "0".into(),
                "100000".into(),
            ],
        }),
        (u, u).prop_map(|(f, m)| FuzzOp {
            query: "add_filesys",
            args: vec![
                format!("fs{}", f % 4),
                "NFS".into(),
                name(m),
                format!("/u1/lockers/fs{}", f % 4),
                format!("/mit/fs{}", f % 4),
                "w".into(),
                "".into(),
                name(f),
                format!("l{}", f % 4),
                "1".into(),
                "HOMEDIR".into(),
            ],
        }),
        u.prop_map(|f| FuzzOp {
            query: "delete_filesys",
            args: vec![format!("fs{}", f % 4)]
        }),
        (u, u, 1u8..4).prop_map(|(f, a, q)| FuzzOp {
            query: "add_nfs_quota",
            args: vec![
                format!("fs{}", f % 4),
                name(a),
                (q as i64 * 100).to_string()
            ],
        }),
        (u, u, 1u8..4).prop_map(|(f, a, q)| FuzzOp {
            query: "update_nfs_quota",
            args: vec![format!("fs{}", f % 4), name(a), (q as i64 * 50).to_string()],
        }),
        (u, u).prop_map(|(f, a)| FuzzOp {
            query: "delete_nfs_quota",
            args: vec![format!("fs{}", f % 4), name(a)],
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// No sequence of (valid or invalid) queries panics the server or
    /// breaks the referential invariants.
    #[test]
    fn random_query_sequences_preserve_invariants(
        ops in prop::collection::vec(op_strategy(), 0..80)
    ) {
        let (mut state, _) = state_with_admin("ops");
        let registry = Registry::standard();
        let root = Caller::root("fuzz");
        for op in ops {
            // Failures are expected constantly (collisions, missing
            // objects, in-use refusals); panics and invariant breaks are
            // not.
            let _ = registry.execute(&mut state, &root, op.query, &op.args);
        }
        check_invariants(&state);
        // The journal replays cleanly onto a fresh state and produces the
        // same relation contents.
        let (mut replayed, _) = state_with_admin("ops");
        for entry in state.journal.entries() {
            let caller = Caller::new(&entry.who, &entry.with);
            let result = registry.execute(&mut replayed, &caller, &entry.query, &entry.args);
            prop_assert!(result.is_ok(), "journaled {} must replay: {:?}", entry.query, result);
        }
        for table in [
            users::R::ID, machine::R::ID, list::R::ID, members::R::ID, filesys::R::ID,
            nfsquota::R::ID, nfsphys::R::ID,
        ] {
            let a: Vec<_> = state.db.at(table).iter().map(|(_, r)| r.to_vec()).collect();
            let b: Vec<_> = replayed.db.at(table).iter().map(|(_, r)| r.to_vec()).collect();
            prop_assert_eq!(a.len(), b.len(), "{} diverged after replay", table.name());
        }
    }

    /// Random garbage arguments never panic the dispatcher.
    #[test]
    fn arbitrary_arguments_never_panic(
        query_pick in any::<u16>(),
        args in prop::collection::vec(".{0,24}", 0..12),
    ) {
        let (mut state, _) = state_with_admin("ops");
        let registry = Registry::standard();
        let handles = registry.handles();
        let handle = &handles[query_pick as usize % handles.len()];
        let root = Caller::root("fuzz");
        let _ = registry.execute(&mut state, &root, handle.name, &args);
        let _ = registry.check_access(&state, &Caller::anonymous("x"), handle.name, &args);
    }
}

/// Seeded ACL op sequences for the access-cache property.
mod acl_cache {
    use moira_core::access::caller_has_capability;
    use moira_core::queries::testutil::state_with_admin;
    use moira_core::registry::Registry;
    use moira_core::schema::{capacls, list, members, users};
    use moira_core::state::{Caller, MoiraState};
    use moira_db::Pred;
    use proptest::prelude::*;

    /// Principals the checks ask about; `n0`..`n3` come and go.
    const PRINCIPALS: [&str; 6] = ["ops", "n0", "n1", "n2", "n3", "nobody"];
    /// Seeded capabilities plus `cap0`..`cap2`, which the ops tie to lists.
    const CAPABILITIES: [&str; 6] = [
        "add_machine",
        "get_user_by_login",
        "trigger_dcm",
        "cap0",
        "cap1",
        "cap2",
    ];

    #[derive(Debug, Clone)]
    enum AclOp {
        Query(&'static str, Vec<String>),
        /// Ties `cap{0}` to list `l{1}` through a CAPACL row.
        AddCapacl(u8, u8),
        /// Drops every CAPACL row of `cap{0}`.
        DeleteCapacl(u8),
        /// Adds (or, when `2`, drops) `n{1}` as a member of `l{0}` straight
        /// in the table, as the seed does: the handlers also touch the list
        /// row, so only this op moves `members` alone.
        RawMember(u8, u8, bool),
    }

    fn login(i: u8) -> String {
        format!("n{}", i % 4)
    }

    fn list(i: u8) -> String {
        format!("l{}", i % 3)
    }

    fn op_add_user(a: u8) -> AclOp {
        let uid = (7000 + a as i64).to_string();
        let args = [&login(a), &uid, "/bin/csh", "L", "F", "", "1", "id", "1990"];
        AclOp::Query("add_user", args.map(str::to_owned).to_vec())
    }

    fn op_add_list(l: u8) -> AclOp {
        let args = [&list(l), "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""];
        AclOp::Query("add_list", args.map(str::to_owned).to_vec())
    }

    fn op() -> impl Strategy<Value = AclOp> {
        let u = any::<u8>();
        prop_oneof![
            u.prop_map(op_add_user),
            (u, u).prop_map(|(a, b)| AclOp::Query(
                "update_user",
                [
                    &login(a),
                    &login(b),
                    "7100",
                    "/bin/csh",
                    "L",
                    "F",
                    "",
                    "1",
                    "id",
                    "1990"
                ]
                .map(str::to_owned)
                .to_vec(),
            )),
            u.prop_map(|a| AclOp::Query("delete_user", vec![login(a)])),
            (u, u).prop_map(|(a, b)| AclOp::Query(
                "update_user_shell",
                vec![login(a), format!("/bin/s{b}")],
            )),
            u.prop_map(op_add_list),
            u.prop_map(|l| AclOp::Query("delete_list", vec![list(l)])),
            (u, u).prop_map(|(l, a)| AclOp::Query(
                "add_member_to_list",
                vec![list(l), "USER".into(), login(a)],
            )),
            (u, u).prop_map(|(l, a)| AclOp::Query(
                "delete_member_from_list",
                vec![list(l), "USER".into(), login(a)],
            )),
            (u, u).prop_map(|(l, m)| AclOp::Query(
                "add_member_to_list",
                vec![list(l), "LIST".into(), list(m)],
            )),
            (u, u).prop_map(|(l, m)| AclOp::Query(
                "delete_member_from_list",
                vec![list(l), "LIST".into(), list(m)],
            )),
            (u, u).prop_map(|(c, l)| AclOp::AddCapacl(c % 3, l)),
            u.prop_map(|c| AclOp::DeleteCapacl(c % 3)),
            (u, u, any::<bool>()).prop_map(|(l, a, add)| AclOp::RawMember(l, a, add)),
        ]
    }

    fn list_id(state: &MoiraState, l: u8) -> Option<i64> {
        state
            .db
            .table(list::T)
            .find(&Pred::Eq(list::NAME, list(l).as_str().into()))
            .map(|r| r.get(list::LIST_ID))
    }

    fn apply(state: &mut MoiraState, registry: &Registry, op: &AclOp) {
        match op {
            AclOp::Query(query, args) => {
                let _ = registry.execute(state, &Caller::new("ops", "prop"), query, args);
            }
            AclOp::AddCapacl(c, l) => {
                if let Some(id) = list_id(state, *l) {
                    let row = vec![format!("cap{c}").into(), format!("c{c}").into(), id.into()];
                    state.db.append(capacls::T, row).expect("capacl row");
                }
            }
            AclOp::DeleteCapacl(c) => {
                let cap = format!("cap{c}");
                let rows = state
                    .db
                    .table(capacls::T)
                    .select(&Pred::Eq(capacls::CAPABILITY, cap.as_str().into()));
                for row in rows {
                    state.db.delete(capacls::T, row).expect("capacl delete");
                }
            }
            AclOp::RawMember(l, a, add) => {
                let user = state
                    .db
                    .table(users::T)
                    .find(&Pred::Eq(users::LOGIN, login(*a).as_str().into()))
                    .map(|r| r.get(users::USERS_ID));
                let (Some(list_id), Some(user)) = (list_id(state, *l), user) else {
                    return;
                };
                let row = Pred::Eq(members::LIST_ID, list_id.into())
                    .and(Pred::Eq(members::MEMBER_TYPE, "USER".into()))
                    .and(Pred::Eq(members::MEMBER_ID, user.into()));
                if *add {
                    if state.db.select(&row).is_empty() {
                        let member = vec![list_id.into(), "USER".into(), user.into()];
                        state.db.append(members::T, member).expect("member row");
                    }
                } else {
                    state.db.delete_where(&row);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The access cache never changes an answer: after every op, each
        /// principal × capability check agrees with the cache on (warm with
        /// the answers of every earlier step) and off.
        #[test]
        fn access_cache_agrees_with_uncached_checks(ops in prop::collection::vec(op(), 0..40)) {
            let (mut state, _) = state_with_admin("ops");
            let registry = Registry::standard();
            // Every list, user and capability the ops name exists at first,
            // so the first op can already move an answer.
            let start = (0..3u8)
                .map(op_add_list)
                .chain((0..4u8).map(op_add_user))
                .chain((0..3u8).map(|i| AclOp::AddCapacl(i, i)));
            for op in start {
                apply(&mut state, &registry, &op);
            }
            for op in &ops {
                apply(&mut state, &registry, op);
                for principal in PRINCIPALS {
                    let caller = Caller::new(principal, "prop");
                    for capability in CAPABILITIES {
                        let cached = caller_has_capability(&state, &caller, capability);
                        state.access_cache.set_enabled(false);
                        let fresh = caller_has_capability(&state, &caller, capability);
                        state.access_cache.set_enabled(true);
                        prop_assert_eq!(
                            cached, fresh,
                            "{} may {}? after {:?}", principal, capability, op
                        );
                    }
                }
            }
        }
    }
}
