//! Test scaffolding shared by unit tests, integration tests, and benches.
//!
//! Not part of the production API, but compiled unconditionally so
//! downstream crates' test suites and the bench harness can reuse it.

use moira_db::Value;

use crate::ids::alloc_id;
use crate::registry::Registry;
use crate::schema::{list, machine, members, users};
use crate::seed::seed_capacls;
use crate::state::MoiraState;

/// Builds a freshly seeded state whose CAPACLS are populated for the
/// standard registry, with one admin user (member of `moira-admins`).
/// Returns the state and the admin list's `list_id`.
pub fn state_with_admin(admin_login: &str) -> (MoiraState, i64) {
    let mut s = MoiraState::new(moira_common::VClock::new());
    let registry = Registry::standard();
    seed_capacls(&mut s, &registry);
    let uid = add_test_user(&mut s, admin_login, 1);
    let admins = 2i64; // seeded list_id of moira-admins
    s.db.append(members::T, vec![admins.into(), "USER".into(), uid.into()])
        .expect("admin membership");
    (s, admins)
}

/// Inserts a minimal active user directly, returning their `users_id`.
pub fn add_test_user(state: &mut MoiraState, login: &str, users_id: i64) -> i64 {
    let now = state.now();
    let row: Vec<Value> = vec![
        login.into(),
        users_id.into(),
        (users_id + 6000).into(),
        "/bin/csh".into(),
        format!("{login}-last").into(),
        format!("{login}-first").into(),
        "X".into(),
        1.into(), // active
        "hashedid".into(),
        "1990".into(),
        now.into(),
        "test".into(),
        "test".into(),
        format!("{login}-first X {login}-last").into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        now.into(),
        "test".into(),
        "test".into(),
        "NONE".into(),
        0.into(),
        0.into(),
        "".into(),
        now.into(),
        "test".into(),
        "test".into(),
    ];
    state.db.append(users::T, row).expect("test user");
    users_id
}

/// Inserts a minimal list directly, returning its `list_id`.
pub fn add_test_list(state: &mut MoiraState, name: &str, public: bool) -> i64 {
    let list_id = alloc_id(state, "list_id").expect("list id");
    let now = state.now();
    state
        .db
        .append(
            list::T,
            vec![
                name.into(),
                list_id.into(),
                true.into(),
                public.into(),
                false.into(),
                false.into(),
                false.into(),
                Value::Int(-1),
                "test list".into(),
                "NONE".into(),
                0.into(),
                now.into(),
                "test".into(),
                "test".into(),
            ],
        )
        .expect("test list");
    list_id
}

/// Inserts a machine directly, returning its `mach_id`.
pub fn add_test_machine(state: &mut MoiraState, name: &str) -> i64 {
    let mach_id = alloc_id(state, "mach_id").expect("mach id");
    let now = state.now();
    state
        .db
        .append(
            machine::T,
            vec![
                name.to_ascii_uppercase().into(),
                mach_id.into(),
                "VAX".into(),
                now.into(),
                "test".into(),
                "test".into(),
            ],
        )
        .expect("test machine");
    mach_id
}
