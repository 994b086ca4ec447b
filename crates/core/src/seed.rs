//! Bootstrap contents of a fresh Moira database: type-checking aliases,
//! server values, the bootstrap lists, and the CAPACLS capability table.

use moira_db::Value;

use crate::registry::{AccessRule, Registry};
use crate::schema::{alias, capacls, list};
use crate::state::MoiraState;

/// Default new-user quota in quota units (`def_quota` in VALUES).
pub const DEFAULT_QUOTA: i64 = 300;

/// Type-checking alias entries: `(name, TYPE, legal value)` per §6 ALIAS.
const TYPE_ALIASES: &[(&str, &str)] = &[
    ("class", "1988"),
    ("class", "1989"),
    ("class", "1990"),
    ("class", "1991"),
    ("class", "1992"),
    ("class", "G"),
    ("class", "STAFF"),
    ("class", "FACULTY"),
    ("class", "OTHER"),
    ("class", "TEST"),
    ("mach_type", "VAX"),
    ("mach_type", "RT"),
    ("service", "UNIQUE"),
    ("service", "REPLICAT"),
    ("lockertype", "HOMEDIR"),
    ("lockertype", "PROJECT"),
    ("lockertype", "COURSE"),
    ("lockertype", "SYSTEM"),
    ("lockertype", "OTHER"),
    ("pobox", "POP"),
    ("pobox", "SMTP"),
    ("pobox", "NONE"),
    ("protocol", "TCP"),
    ("protocol", "UDP"),
    ("filesys", "NFS"),
    ("filesys", "RVD"),
    ("filesys", "ERR"),
    ("slabel", "usrlib"),
    ("slabel", "syslib"),
    ("slabel", "zephyr"),
    ("slabel", "lpr"),
    ("ace_type", "USER"),
    ("ace_type", "LIST"),
    ("ace_type", "NONE"),
    ("member", "USER"),
    ("member", "LIST"),
    ("member", "STRING"),
    ("alias", "TYPE"),
    ("alias", "PRINTER"),
    ("alias", "SERVICE"),
    ("alias", "FILESYS"),
    ("alias", "TYPEDATA"),
    ("boolean", "TRUE"),
    ("boolean", "FALSE"),
    ("boolean", "DONTCARE"),
];

/// Type translations: what kind of datum accompanies each pobox type.
const TYPEDATA_ALIASES: &[(&str, &str)] =
    &[("POP", "machine"), ("SMTP", "string"), ("NONE", "none")];

/// Populates aliases, values, and the bootstrap lists.
pub fn seed(state: &mut MoiraState) {
    for &(name, trans) in TYPE_ALIASES {
        state
            .db
            .append(alias::T, vec![name.into(), "TYPE".into(), trans.into()])
            .expect("seed alias");
    }
    for &(name, trans) in TYPEDATA_ALIASES {
        state
            .db
            .append(alias::T, vec![name.into(), "TYPEDATA".into(), trans.into()])
            .expect("seed typedata");
    }
    state.set_value("dcm_enable", 1);
    state.set_value("def_quota", DEFAULT_QUOTA);

    for (name, list_id, desc) in [
        ("everybody", 1i64, "All authenticated users"),
        ("moira-admins", 2, "Moira database administrators"),
        ("dbadmin", 3, "Database maintenance staff"),
    ] {
        state
            .db
            .append(
                list::T,
                vec![
                    name.into(),
                    list_id.into(),
                    true.into(),
                    false.into(),
                    false.into(),
                    false.into(),
                    false.into(),
                    Value::Int(-1),
                    desc.into(),
                    "LIST".into(),
                    2.into(), // moira-admins administers the bootstrap lists
                    state.now().into(),
                    "seed".into(),
                    "seed".into(),
                ],
            )
            .expect("seed list");
    }
    state.set_value("list_id", 4);
}

/// Populates CAPACLS with one capability row per registered query, plus the
/// `trigger_dcm` pseudo-query (§5.3): public retrieves are tied to
/// `everybody`, everything else to `moira-admins`.
pub fn seed_capacls(state: &mut MoiraState, registry: &Registry) {
    let everybody = 1i64;
    let admins = 2i64;
    for handle in registry.handles() {
        let list_id = match handle.access {
            AccessRule::Public => everybody,
            _ => admins,
        };
        state
            .db
            .append(
                capacls::T,
                vec![handle.name.into(), handle.shortname.into(), list_id.into()],
            )
            .expect("seed capacl");
    }
    state
        .db
        .append(
            capacls::T,
            vec!["trigger_dcm".into(), "tdcm".into(), admins.into()],
        )
        .expect("seed tdcm capacl");
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_common::VClock;
    use moira_db::Pred;

    #[test]
    fn seeded_aliases_present() {
        let s = MoiraState::new(VClock::new());
        let t = s.db.table(alias::T);
        assert!(!t
            .select(
                &Pred::Eq(alias::NAME, "pobox".into()).and(Pred::Eq(alias::TRANS, "POP".into()))
            )
            .is_empty());
        assert!(!t
            .select(
                &Pred::Eq(alias::NAME, "POP".into()).and(Pred::Eq(alias::TYPE, "TYPEDATA".into()))
            )
            .is_empty());
    }

    #[test]
    fn bootstrap_lists_exist() {
        let s = MoiraState::new(VClock::new());
        for name in ["everybody", "moira-admins", "dbadmin"] {
            assert!(
                s.db.table(list::T)
                    .select_one(&Pred::Eq(list::NAME, name.into()))
                    .is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn capacls_cover_every_query() {
        let mut s = MoiraState::new(VClock::new());
        let r = Registry::standard();
        seed_capacls(&mut s, &r);
        // One row per handle plus trigger_dcm.
        assert_eq!(s.db.table(capacls::T).len(), r.len() + 1);
        assert!(s
            .db
            .table(capacls::T)
            .select_one(&Pred::Eq(capacls::CAPABILITY, "trigger_dcm".into()))
            .is_some());
    }
}
