//! ID allocation from the `values` relation.
//!
//! §6 (VALUES): "These are hints for the next ID number to assign…". Each
//! object class keeps a `<name>` counter; allocation reads the hint, skips
//! over any ids already in use (hints are only hints), assigns, and stores
//! the next hint back.

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Database, Int, Pred, Relation};

use crate::schema::{cluster, filesys, list, machine, nfsphys, strings, users};
use crate::state::MoiraState;

/// One id space: its hint in VALUES and where its ids are consumed, for
/// collision checking.
struct IdSpace {
    value_name: &'static str,
    first: i64,
    in_use: fn(&Database, i64) -> bool,
}

fn taken<R: Relation>(db: &Database, col: Col<R, Int>, id: i64) -> bool {
    !db.select(&Pred::Eq(col, id.into())).is_empty()
}

const SPACES: &[IdSpace] = &[
    IdSpace {
        value_name: "users_id",
        first: 1,
        in_use: |db, id| taken(db, users::USERS_ID, id),
    },
    IdSpace {
        value_name: "uid",
        first: 6500,
        in_use: |db, id| taken(db, users::UID, id),
    },
    IdSpace {
        value_name: "list_id",
        first: 1,
        in_use: |db, id| taken(db, list::LIST_ID, id),
    },
    IdSpace {
        value_name: "gid",
        first: 10_900,
        in_use: |db, id| taken(db, list::GID, id),
    },
    IdSpace {
        value_name: "mach_id",
        first: 1,
        in_use: |db, id| taken(db, machine::MACH_ID, id),
    },
    IdSpace {
        value_name: "clu_id",
        first: 1,
        in_use: |db, id| taken(db, cluster::CLU_ID, id),
    },
    IdSpace {
        value_name: "filsys_id",
        first: 1,
        in_use: |db, id| taken(db, filesys::FILSYS_ID, id),
    },
    IdSpace {
        value_name: "nfsphys_id",
        first: 1,
        in_use: |db, id| taken(db, nfsphys::NFSPHYS_ID, id),
    },
    IdSpace {
        value_name: "string_id",
        first: 1,
        in_use: |db, id| taken(db, strings::STRING_ID, id),
    },
];

/// Allocates the next unused id in the named space (`users_id`, `uid`,
/// `list_id`, `gid`, `mach_id`, `clu_id`, `filsys_id`, `nfsphys_id`,
/// `string_id`).
///
/// Returns `MR_NO_ID` if the space name is unknown or the hint walks too
/// far without finding a free id.
pub fn alloc_id(state: &mut MoiraState, space: &str) -> MrResult<i64> {
    let sp = SPACES
        .iter()
        .find(|s| s.value_name == space)
        .ok_or(MrError::NoId)?;
    let hint = state.get_value(sp.value_name).unwrap_or(sp.first);
    for candidate in hint..hint + 100_000 {
        if !(sp.in_use)(&state.db, candidate) {
            state.set_value(sp.value_name, candidate + 1);
            return Ok(candidate);
        }
    }
    Err(MrError::NoId)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_common::VClock;

    #[test]
    fn sequential_allocation() {
        let mut s = MoiraState::new(VClock::new());
        let a = alloc_id(&mut s, "mach_id").unwrap();
        let b = alloc_id(&mut s, "mach_id").unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn skips_occupied_ids() {
        let mut s = MoiraState::new(VClock::new());
        let next = s.get_value("mach_id").unwrap_or(1);
        // Occupy the next two hints directly.
        for (i, n) in [(next, "A"), (next + 1, "B")] {
            s.db.append(
                machine::T,
                vec![
                    n.into(),
                    i.into(),
                    "VAX".into(),
                    0.into(),
                    "t".into(),
                    "t".into(),
                ],
            )
            .unwrap();
        }
        let got = alloc_id(&mut s, "mach_id").unwrap();
        assert_eq!(got, next + 2);
    }

    #[test]
    fn unknown_space_is_no_id() {
        let mut s = MoiraState::new(VClock::new());
        assert_eq!(alloc_id(&mut s, "bogus_id"), Err(MrError::NoId));
    }

    #[test]
    fn uid_space_starts_high() {
        let mut s = MoiraState::new(VClock::new());
        assert!(alloc_id(&mut s, "uid").unwrap() >= 6500);
    }
}
