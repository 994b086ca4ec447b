//! Shared helpers for query handlers: argument parsing, type-alias
//! validation, "exactly one" lookups, and tuple projection.

use moira_common::errors::{MrError, MrResult};
use moira_common::strutil;
use moira_common::wildcard;
use moira_db::{Col, Pred, Relation, RowId, Value};

use crate::schema::{alias, cluster, filesys, list, machine, servers, strings, users};
use crate::state::{Caller, MoiraState};

/// Parses an integer argument (`MR_INTEGER` on failure).
pub fn parse_int(s: &str) -> MrResult<i64> {
    s.trim().parse::<i64>().map_err(|_| MrError::Integer)
}

/// Parses a boolean argument: "0 is false, non-zero is true" (§7).
pub fn parse_bool(s: &str) -> MrResult<bool> {
    Ok(parse_int(s)? != 0)
}

/// Parses a TRUE / FALSE / DONTCARE qualifier (`MR_TYPE` otherwise).
pub fn parse_tristate(s: &str) -> MrResult<Option<bool>> {
    match s.trim().to_ascii_uppercase().as_str() {
        "TRUE" => Ok(Some(true)),
        "FALSE" => Ok(Some(false)),
        "DONTCARE" => Ok(None),
        _ => Err(MrError::Type),
    }
}

/// Rejects names containing forbidden characters (`MR_BAD_CHAR`).
pub fn check_chars(s: &str) -> MrResult<()> {
    if strutil::has_bad_chars(s) {
        Err(MrError::BadChar)
    } else {
        Ok(())
    }
}

/// Rejects wildcard metacharacters in an exact-name argument.
pub fn no_wildcards(s: &str) -> MrResult<()> {
    if wildcard::has_wildcards(s) {
        Err(MrError::Wildcard)
    } else {
        Ok(())
    }
}

/// Validates a value against the alias type registry: there must be an
/// `(type_name, TYPE, value)` row (§6 ALIAS). Returns `err` otherwise.
pub fn check_type_alias(
    state: &MoiraState,
    type_name: &str,
    value: &str,
    err: MrError,
) -> MrResult<()> {
    let found = !state
        .db
        .select(
            &Pred::Eq(alias::NAME, type_name.into())
                .and(Pred::Eq(alias::TYPE, "TYPE".into()))
                .and(Pred::EqCi(alias::TRANS, value.to_owned())),
        )
        .is_empty();
    if found {
        Ok(())
    } else {
        Err(err)
    }
}

/// `(now, modby, modwith)` for stamping records.
pub fn mod_fields(state: &MoiraState, caller: &Caller) -> (i64, String, String) {
    (
        state.now(),
        caller.who().to_owned(),
        caller.client_name.clone(),
    )
}

/// Finds exactly one row by a possibly-wildcarded name; `not_found` when
/// nothing matches, `MR_NOT_UNIQUE` when several do (§7's pervasive "must
/// match exactly one" rule).
pub fn exactly_one<R: Relation>(
    state: &MoiraState,
    col: Col<R>,
    name: &str,
    not_found: MrError,
) -> MrResult<RowId> {
    state
        .db
        .select_exactly_one(&Pred::name_match(col, name), not_found)
}

/// Like [`exactly_one`] for case-insensitive, uppercase-stored names
/// (machines, services).
pub fn exactly_one_ci<R: Relation>(
    state: &MoiraState,
    col: Col<R>,
    name: &str,
    not_found: MrError,
) -> MrResult<RowId> {
    state
        .db
        .select_exactly_one(&Pred::name_match_ci(col, name), not_found)
}

/// Exactly one user by login.
pub fn one_user(state: &MoiraState, login: &str) -> MrResult<RowId> {
    exactly_one(state, users::LOGIN, login, MrError::User)
}

/// Exactly one machine by (canonicalized) name.
pub fn one_machine(state: &MoiraState, name: &str) -> MrResult<RowId> {
    exactly_one_ci(state, machine::NAME, name, MrError::Machine)
}

/// Exactly one cluster by name (case sensitive, §7.0.2).
pub fn one_cluster(state: &MoiraState, name: &str) -> MrResult<RowId> {
    exactly_one(state, cluster::NAME, name, MrError::Cluster)
}

/// Exactly one list by name.
pub fn one_list(state: &MoiraState, name: &str) -> MrResult<RowId> {
    exactly_one(state, list::NAME, name, MrError::List)
}

/// Exactly one service by (uppercased) name.
pub fn one_service(state: &MoiraState, name: &str) -> MrResult<RowId> {
    exactly_one_ci(state, servers::NAME, name, MrError::Service)
}

/// Exactly one filesystem by label.
pub fn one_filesys(state: &MoiraState, label: &str) -> MrResult<RowId> {
    exactly_one(state, filesys::LABEL, label, MrError::Filesys)
}

/// Projects columns of a row into protocol strings.
pub fn project<R: Relation>(state: &MoiraState, id: RowId, cols: &[Col<R>]) -> Vec<String> {
    let t = state.db.table(R::default());
    cols.iter().map(|&c| t.cell(id, c).render()).collect()
}

/// The machine name for a `mach_id` (dangling ids render as `#id`).
pub fn machine_name(state: &MoiraState, mach_id: i64) -> String {
    state
        .db
        .table(machine::T)
        .select_one(&Pred::Eq(machine::MACH_ID, mach_id.into()))
        .map(|r| state.db.cell(r, machine::NAME).as_str().to_owned())
        .unwrap_or_else(|| format!("#{mach_id}"))
}

/// The login for a `users_id`.
pub fn user_login(state: &MoiraState, users_id: i64) -> String {
    state
        .db
        .table(users::T)
        .select_one(&Pred::Eq(users::USERS_ID, users_id.into()))
        .map(|r| state.db.cell(r, users::LOGIN).as_str().to_owned())
        .unwrap_or_else(|| format!("#{users_id}"))
}

/// The list name for a `list_id`.
pub fn list_name(state: &MoiraState, list_id: i64) -> String {
    state
        .db
        .table(list::T)
        .select_one(&Pred::Eq(list::LIST_ID, list_id.into()))
        .map(|r| state.db.cell(r, list::NAME).as_str().to_owned())
        .unwrap_or_else(|| format!("#{list_id}"))
}

/// The string for a `string_id` (STRINGS relation).
pub fn string_of(state: &MoiraState, string_id: i64) -> String {
    state
        .db
        .table(strings::T)
        .select_one(&Pred::Eq(strings::STRING_ID, string_id.into()))
        .map(|r| state.db.cell(r, strings::STRING).as_str().to_owned())
        .unwrap_or_else(|| format!("#{string_id}"))
}

/// Finds or creates a STRINGS entry, returning its id — "an optimization
/// for dealing with arbitrary addresses in poboxes or as list members"
/// (§6).
pub fn intern_string(state: &mut MoiraState, s: &str) -> MrResult<i64> {
    if let Some(row) = state
        .db
        .table(strings::T)
        .select_one(&Pred::Eq(strings::STRING, s.into()))
    {
        return Ok(state.db.cell(row, strings::STRING_ID).as_int());
    }
    let id = crate::ids::alloc_id(state, "string_id")?;
    state.db.append(strings::T, vec![id.into(), s.into()])?;
    Ok(id)
}

/// True if the caller holds the named query capability (wraps the access
/// module for handler-internal checks). Shared state suffices: access
/// decisions mutate nothing beyond the interior-mutable cache.
pub fn on_query_acl(state: &MoiraState, caller: &Caller, query: &str) -> bool {
    crate::access::caller_has_capability(state, caller, query)
}

/// Renders a boolean cell for qualified queries' tristate matching.
pub fn matches_tristate(cell: &Value, want: Option<bool>) -> bool {
    match want {
        None => true,
        Some(w) => cell.as_bool() == w,
    }
}
