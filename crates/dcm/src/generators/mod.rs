//! Per-service file generators (§5.8).
//!
//! "To date, the DCM uses c programs, not SDFs, to implement the
//! construction of the server specific files. … The DCM then calls the
//! appropriate module when the update interval is reached." Each generator
//! extracts Moira data and converts it to the server-dependent format; a
//! common "error" is `MR_NO_CHANGE`, "indicating that nothing in the
//! database has changed and the data files were not re-built".

pub mod hesiod;
pub mod hostaccess;
pub mod incremental;
pub mod mail;
pub mod nfs;
pub mod zephyr;

use moira_common::errors::{MrError, MrResult};
use moira_core::schema::{list, members, users};
use moira_core::state::MoiraState;
use moira_db::{GenCursor, RowId, TableId};

use crate::archive::Archive;
use incremental::DeltaPlan;

/// A service-file generator.
pub trait Generator: Send + Sync {
    /// The DCM service name this generator serves (uppercase).
    fn service(&self) -> &'static str;

    /// The relations whose modification forces regeneration; if none of
    /// them changed since the cached cursor, the cycle reports
    /// `MR_NO_CHANGE`.
    fn depends_on(&self) -> &'static [TableId];

    /// The service's files as delta-maintainable sections — the only
    /// description of their format: [`incremental::refresh`] keeps a build
    /// current from it, and [`Generator::generate`] is the same sections
    /// built from scratch. For a per-host service this is the shared form
    /// of the output.
    fn delta_plan(&self) -> DeltaPlan;

    /// Builds the shared archive from scratch: every section of
    /// [`Generator::delta_plan`] replayed from a zero cursor, assembled. The
    /// second argument is unused (no serverhost is in scope here; per-host
    /// archives come from [`Generator::per_host`]).
    fn generate(&self, state: &MoiraState, _value3: &str) -> MrResult<Archive> {
        incremental::build(state, &self.delta_plan()).map(|(archive, _)| archive)
    }

    /// For a service whose files differ per host, the function cutting one
    /// serverhost's archive from this cycle's shared one. `None`: every host
    /// installs the shared archive as is.
    fn per_host(&self) -> Option<PerHostFn> {
        None
    }
}

/// Builds one serverhost's archive from `(state, mach_id, value3, shared)`:
/// members every unrestricted host holds alike are taken from `shared`, a
/// restricted host gets the same fragment function over its admitted rows
/// ([`incremental::render_lines`]), and only the genuinely per-host members
/// are rendered here. Fails when member names collide.
pub type PerHostFn = fn(&MoiraState, i64, &str, &Archive) -> MrResult<Archive>;

/// Applies the staleness check against a previously cut generation cursor:
/// `Err(MR_NO_CHANGE)` when none of the generator's dependency relations
/// mutated since the cursor. Mutation generations, unlike the retired
/// `modtime > dfgen` comparison, never miss a write landing in the same
/// second the cursor was cut.
pub fn check_no_change(
    generator: &dyn Generator,
    state: &MoiraState,
    cursor: &GenCursor,
) -> MrResult<()> {
    debug_assert!(
        generator
            .depends_on()
            .iter()
            .all(|t| cursor.gens.contains_key(t)),
        "cursor must cover every dependency of {}",
        generator.service()
    );
    if cursor.unchanged_in(&state.db) {
        Err(MrError::NoChange)
    } else {
        Ok(())
    }
}

/// The `users` rows of a `users_id` set (ids naming no user are skipped) —
/// the admitted rows of a restricted host's credentials or passwd file.
pub(crate) fn user_rows(state: &MoiraState, users_ids: &[i64]) -> Vec<RowId> {
    let users = state.db.table(users::T);
    users_ids
        .iter()
        .filter_map(|&id| users.select_one(&moira_db::Pred::Eq(users::USERS_ID, id.into())))
        .collect()
}

/// Reverse membership: every active unix group (active && grouplist) that
/// transitively contains user `users_id`, as sorted, deduplicated
/// `(name, gid)`, computed by climbing the membership graph upward from the
/// user instead of expanding every group. O(ancestor edges) per user, which
/// is what makes per-user delta maintenance cheap. (`tests/incremental.rs`
/// checks it against the top-down expansion of every group.)
pub fn groups_of_user(state: &MoiraState, users_id: i64) -> Vec<(String, i64)> {
    use moira_db::Pred;
    let members = state.db.table(members::T);
    let mut seen: std::collections::HashSet<i64> = std::collections::HashSet::new();
    let mut frontier: Vec<(&'static str, i64)> = vec![("USER", users_id)];
    while let Some((ty, id)) = frontier.pop() {
        let pred = Pred::And(vec![
            Pred::Eq(members::MEMBER_ID, id.into()),
            Pred::Eq(members::MEMBER_TYPE, ty.into()),
        ]);
        for r in members.rows(&pred) {
            let list_id = r.get(members::LIST_ID);
            if seen.insert(list_id) {
                frontier.push(("LIST", list_id));
            }
        }
    }
    let lists = state.db.table(list::T);
    let mut out: Vec<(String, i64)> = seen
        .into_iter()
        .filter_map(|list_id| {
            let r = lists.find(&Pred::Eq(list::LIST_ID, list_id.into()))?;
            (r.get(list::ACTIVE) && r.get(list::GROUPLIST))
                .then(|| (r.get(list::NAME).to_owned(), r.get(list::GID)))
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The standard generator set for the four supported services.
pub fn standard_generators() -> Vec<Box<dyn Generator>> {
    vec![
        Box::new(hesiod::HesiodGenerator),
        Box::new(nfs::NfsGenerator),
        Box::new(mail::MailGenerator),
        Box::new(zephyr::ZephyrGenerator),
        Box::new(hostaccess::HostAccessGenerator),
    ]
}

/// A member's text (tests read generated files out of the archive).
#[cfg(test)]
pub(crate) fn member_text(archive: &Archive, name: &str) -> String {
    String::from_utf8(archive.get(name).expect(name).to_vec()).unwrap()
}
