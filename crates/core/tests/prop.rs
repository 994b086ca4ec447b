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
    for (row, _) in db.table(members::T).iter() {
        let list_id = db.cell(row, members::LIST_ID).as_int();
        assert!(
            db.table(list::T)
                .select_one(&Pred::Eq(list::LIST_ID, list_id.into()))
                .is_some(),
            "dangling members.list_id {list_id}"
        );
        // USER members reference existing users.
        if db.cell(row, members::MEMBER_TYPE).as_str() == "USER" {
            let uid = db.cell(row, members::MEMBER_ID).as_int();
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
    for (prow, _) in db.table(nfsphys::T).iter() {
        let phys_id = db.cell(prow, nfsphys::NFSPHYS_ID).as_int();
        let allocated = db.cell(prow, nfsphys::ALLOCATED).as_int();
        let sum: i64 = db
            .select(&Pred::Eq(nfsquota::PHYS_ID, phys_id.into()))
            .into_iter()
            .map(|q| db.cell(q, nfsquota::QUOTA).as_int())
            .sum();
        assert_eq!(allocated, sum, "allocation drift on partition {phys_id}");
    }

    // 3. Every quota references an existing filesystem and user.
    for (qrow, _) in db.table(nfsquota::T).iter() {
        let fid = db.cell(qrow, nfsquota::FILSYS_ID).as_int();
        let uid = db.cell(qrow, nfsquota::USERS_ID).as_int();
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
    for (urow, _) in db.table(users::T).iter() {
        if db.cell(urow, users::POTYPE).as_str() == "POP" {
            let mid = db.cell(urow, users::POP_ID).as_int();
            assert!(
                db.table(machine::T)
                    .select_one(&Pred::Eq(machine::MACH_ID, mid.into()))
                    .is_some(),
                "pobox on unknown machine {mid}"
            );
        }
    }

    // 5. Serverhosts reference existing services and machines.
    for (srow, _) in db.table(serverhosts::T).iter() {
        let svc = db.cell(srow, serverhosts::SERVICE).render();
        let mid = db.cell(srow, serverhosts::MACH_ID).as_int();
        assert!(
            db.table(servers::T)
                .select_one(&Pred::Eq(servers::NAME, svc.clone().into()))
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
