//! Access control entities and recursive list membership.
//!
//! "An access control entity names the user or the list who have the
//! capability to manipulate the object specifying the access control list"
//! (§6, LIST). ACE types are `USER`, `LIST`, or `NONE`; membership checks
//! against a LIST recurse through sub-lists (the `RUSER`/`RLIST` behaviour
//! of `get_ace_use`).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Database, Pred, Relation};

use crate::schema::{list, members, users};
use crate::state::MoiraState;

/// Maximum recursion depth through nested lists (cycles are legal in the
/// data; the bound keeps resolution terminating).
const MAX_DEPTH: usize = 32;

/// A resolved access control entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ace {
    /// A single user (by `users_id`).
    User(i64),
    /// A list (by `list_id`).
    List(i64),
    /// Nobody.
    None,
}

impl Ace {
    /// The stored type string.
    pub fn type_str(&self) -> &'static str {
        match self {
            Ace::User(_) => "USER",
            Ace::List(_) => "LIST",
            Ace::None => "NONE",
        }
    }

    /// The stored id (0 for NONE).
    pub fn id(&self) -> i64 {
        match self {
            Ace::User(id) | Ace::List(id) => *id,
            Ace::None => 0,
        }
    }
}

/// Resolves an `(ace_type, ace_name)` pair to an [`Ace`], validating that
/// the named user or list exists (`MR_ACE` otherwise).
pub fn resolve_ace(db: &Database, ace_type: &str, ace_name: &str) -> MrResult<Ace> {
    match ace_type.to_ascii_uppercase().as_str() {
        "NONE" => Ok(Ace::None),
        "USER" => {
            let id = db
                .table(users::T)
                .select_one(&Pred::Eq(users::LOGIN, ace_name.into()))
                .ok_or(MrError::Ace)?;
            Ok(Ace::User(db.cell(id, users::USERS_ID).as_int()))
        }
        "LIST" => {
            let id = db
                .table(list::T)
                .select_one(&Pred::Eq(list::NAME, ace_name.into()))
                .ok_or(MrError::Ace)?;
            Ok(Ace::List(db.cell(id, list::LIST_ID).as_int()))
        }
        _ => Err(MrError::Ace),
    }
}

/// Renders a stored `(ace_type, ace_id)` back to the `(type, name)` pair
/// the protocol returns. Dangling ids render as the id number.
pub fn render_ace(db: &Database, ace_type: &str, ace_id: i64) -> (String, String) {
    match ace_type.to_ascii_uppercase().as_str() {
        "USER" => {
            let name = db
                .table(users::T)
                .select_one(&Pred::Eq(users::USERS_ID, ace_id.into()))
                .map(|r| db.cell(r, users::LOGIN).as_str().to_owned())
                .unwrap_or_else(|| format!("#{ace_id}"));
            ("USER".to_owned(), name)
        }
        "LIST" => {
            let name = db
                .table(list::T)
                .select_one(&Pred::Eq(list::LIST_ID, ace_id.into()))
                .map(|r| db.cell(r, list::NAME).as_str().to_owned())
                .unwrap_or_else(|| format!("#{ace_id}"));
            ("LIST".to_owned(), name)
        }
        _ => ("NONE".to_owned(), "NONE".to_owned()),
    }
}

/// The `users_id` of a login, or `MR_USER`.
pub fn users_id_of(db: &Database, login: &str) -> MrResult<i64> {
    let id = db
        .table(users::T)
        .select_one(&Pred::Eq(users::LOGIN, login.into()))
        .ok_or(MrError::User)?;
    Ok(db.cell(id, users::USERS_ID).as_int())
}

/// The `list_id` of a list name, or `MR_LIST`.
pub fn list_id_of(db: &Database, name: &str) -> MrResult<i64> {
    let id = db
        .table(list::T)
        .select_one(&Pred::Eq(list::NAME, name.into()))
        .ok_or(MrError::List)?;
    Ok(db.cell(id, list::LIST_ID).as_int())
}

/// True if user `users_id` is a direct or recursive (through sub-lists)
/// member of list `list_id`.
pub fn user_in_list(db: &Database, users_id: i64, list_id: i64) -> bool {
    fn walk(db: &Database, users_id: i64, list_id: i64, depth: usize, seen: &mut Vec<i64>) -> bool {
        if depth >= MAX_DEPTH || seen.contains(&list_id) {
            return false;
        }
        seen.push(list_id);
        let members = db.table(members::T);
        for row in db.select(&Pred::Eq(members::LIST_ID, list_id.into())) {
            let mtype = members.cell(row, members::MEMBER_TYPE).as_str().to_owned();
            let mid = members.cell(row, members::MEMBER_ID).as_int();
            match mtype.as_str() {
                "USER" if mid == users_id => return true,
                "LIST" if walk(db, users_id, mid, depth + 1, seen) => {
                    return true;
                }
                _ => {}
            }
        }
        false
    }
    walk(db, users_id, list_id, 0, &mut Vec::new())
}

/// True if the caller (by principal) satisfies an ACE.
pub fn caller_satisfies_ace(state: &MoiraState, principal: Option<&str>, ace: Ace) -> bool {
    let Some(login) = principal else { return false };
    match ace {
        Ace::None => false,
        Ace::User(uid) => users_id_of(&state.db, login).is_ok_and(|id| id == uid),
        Ace::List(lid) => {
            users_id_of(&state.db, login).is_ok_and(|id| user_in_list(&state.db, id, lid))
        }
    }
}

/// True if the caller is on the ACE stored in columns `type_col`/`id_col`
/// of row `row` of their relation — the pervasive "someone on the ACE of
/// the target" permission.
pub fn caller_on_row_ace<R: Relation>(
    state: &MoiraState,
    principal: Option<&str>,
    row: moira_db::RowId,
    type_col: Col<R>,
    id_col: Col<R>,
) -> bool {
    let t = state.db.table(R::default());
    let ace_type = t.cell(row, type_col).as_str().to_owned();
    let ace_id = t.cell(row, id_col).as_int();
    let ace = match ace_type.to_ascii_uppercase().as_str() {
        "USER" => Ace::User(ace_id),
        "LIST" => Ace::List(ace_id),
        _ => Ace::None,
    };
    caller_satisfies_ace(state, principal, ace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::MoiraState;
    use moira_common::VClock;

    /// Builds a state with users a, b and lists inner (a), outer (inner, b).
    fn setup() -> MoiraState {
        let mut s = MoiraState::new(VClock::new());
        for (login, users_id) in [("a", 101i64), ("b", 102)] {
            let mut row: Vec<moira_db::Value> = vec![
                login.into(),
                users_id.into(),
                (users_id + 6000).into(),
                "/bin/csh".into(),
                "Last".into(),
                "First".into(),
                "M".into(),
                1.into(),
                "xx".into(),
                "1990".into(),
                0.into(),
                "t".into(),
                "t".into(),
            ];
            row.extend::<Vec<moira_db::Value>>(vec![
                "First M Last".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                "".into(),
                0.into(),
                "t".into(),
                "t".into(),
                "NONE".into(),
                0.into(),
                0.into(),
                "".into(),
                0.into(),
                "t".into(),
                "t".into(),
            ]);
            s.db.append(users::T, row).unwrap();
        }
        for (name, list_id) in [("inner", 201i64), ("outer", 202)] {
            s.db.append(
                list::T,
                vec![
                    name.into(),
                    list_id.into(),
                    true.into(),
                    false.into(),
                    false.into(),
                    false.into(),
                    false.into(),
                    (-1).into(),
                    "".into(),
                    "NONE".into(),
                    0.into(),
                    0.into(),
                    "t".into(),
                    "t".into(),
                ],
            )
            .unwrap();
        }
        s.db.append(members::T, vec![201.into(), "USER".into(), 101.into()])
            .unwrap();
        s.db.append(members::T, vec![202.into(), "LIST".into(), 201.into()])
            .unwrap();
        s.db.append(members::T, vec![202.into(), "USER".into(), 102.into()])
            .unwrap();
        s
    }

    #[test]
    fn resolve_and_render() {
        let s = setup();
        assert_eq!(resolve_ace(&s.db, "USER", "a").unwrap(), Ace::User(101));
        assert_eq!(resolve_ace(&s.db, "LIST", "inner").unwrap(), Ace::List(201));
        assert_eq!(resolve_ace(&s.db, "NONE", "whatever").unwrap(), Ace::None);
        assert_eq!(resolve_ace(&s.db, "USER", "ghost"), Err(MrError::Ace));
        assert_eq!(resolve_ace(&s.db, "MACHINE", "x"), Err(MrError::Ace));
        assert_eq!(render_ace(&s.db, "USER", 101), ("USER".into(), "a".into()));
        assert_eq!(
            render_ace(&s.db, "LIST", 202),
            ("LIST".into(), "outer".into())
        );
        assert_eq!(render_ace(&s.db, "NONE", 0), ("NONE".into(), "NONE".into()));
        assert_eq!(render_ace(&s.db, "USER", 999).1, "#999");
    }

    #[test]
    fn direct_membership() {
        let s = setup();
        assert!(user_in_list(&s.db, 101, 201));
        assert!(!user_in_list(&s.db, 102, 201));
    }

    #[test]
    fn recursive_membership() {
        let s = setup();
        assert!(user_in_list(&s.db, 101, 202), "a via inner");
        assert!(user_in_list(&s.db, 102, 202), "b direct");
    }

    #[test]
    fn cyclic_lists_terminate() {
        let mut s = setup();
        // outer -> inner -> outer.
        s.db.append(members::T, vec![201.into(), "LIST".into(), 202.into()])
            .unwrap();
        assert!(user_in_list(&s.db, 101, 202));
        assert!(!user_in_list(&s.db, 999, 202));
    }

    #[test]
    fn caller_checks() {
        let s = setup();
        assert!(caller_satisfies_ace(&s, Some("a"), Ace::User(101)));
        assert!(!caller_satisfies_ace(&s, Some("b"), Ace::User(101)));
        assert!(caller_satisfies_ace(&s, Some("b"), Ace::List(202)));
        assert!(!caller_satisfies_ace(&s, None, Ace::List(202)));
        assert!(!caller_satisfies_ace(&s, Some("a"), Ace::None));
    }
}
