//! Zephyr class ACL queries (§7.0.6).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Int, Pred, RowId, Str};

use crate::ace::{render_ace, resolve_ace, Ace};
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::zephyr;
use crate::state::{Caller, MoiraState};

use super::helpers::*;

const RETURNS: &[&str] = &[
    "class", "xmttype", "xmtname", "subtype", "subname", "iwstype", "iwsname", "iuitype",
    "iuiname", "modtime", "modby", "modwith",
];

/// Registers the zephyr queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_zephyr_class",
            shortname: "gzcl",
            kind: Retrieve,
            access: QueryAcl,
            args: &["class"],
            returns: RETURNS,
            handler: Handler::Read(get_zephyr_class),
        },
        QueryHandle {
            name: "add_zephyr_class",
            shortname: "azcl",
            kind: Append,
            access: QueryAcl,
            args: &[
                "class", "xmttype", "xmtname", "subtype", "subname", "iwstype", "iwsname",
                "iuitype", "iuiname",
            ],
            returns: &[],
            handler: Handler::Write(add_zephyr_class),
        },
        QueryHandle {
            name: "update_zephyr_class",
            shortname: "uzcl",
            kind: Update,
            access: QueryAcl,
            args: &[
                "class", "newclass", "xmttype", "xmtname", "subtype", "subname", "iwstype",
                "iwsname", "iuitype", "iuiname",
            ],
            returns: &[],
            handler: Handler::Write(update_zephyr_class),
        },
        QueryHandle {
            name: "delete_zephyr_class",
            shortname: "dzcl",
            kind: Delete,
            access: QueryAcl,
            args: &["class"],
            returns: &[],
            handler: Handler::Write(delete_zephyr_class),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

/// The four `(type, id)` ACE column pairs of a ZEPHYR row: transmit,
/// subscribe, instance-wildcard, instance-uid.
pub const ACES: [(Col<zephyr::R, Str>, Col<zephyr::R, Int>); 4] = [
    (zephyr::XMT_TYPE, zephyr::XMT_ID),
    (zephyr::SUB_TYPE, zephyr::SUB_ID),
    (zephyr::IWS_TYPE, zephyr::IWS_ID),
    (zephyr::IUI_TYPE, zephyr::IUI_ID),
];

fn render_class(state: &MoiraState, row: RowId) -> MrResult<Vec<String>> {
    let r = state.db.table(zephyr::T).row(row)?;
    let mut out = vec![r.get(zephyr::CLASS).to_owned()];
    for (tc, ic) in ACES {
        let (ty, name) = render_ace(&state.db, r.get(tc), r.get(ic));
        out.push(ty);
        out.push(name);
    }
    out.push(r.render(zephyr::MODTIME));
    out.push(r.get(zephyr::MODBY).to_owned());
    out.push(r.get(zephyr::MODWITH).to_owned());
    Ok(out)
}

fn get_zephyr_class(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(&Pred::name_match(zephyr::CLASS, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    ids.into_iter().map(|id| render_class(state, id)).collect()
}

fn resolve_four_aces(state: &MoiraState, a: &[String], base: usize) -> MrResult<[Ace; 4]> {
    Ok([
        resolve_ace(&state.db, &a[base], &a[base + 1])?,
        resolve_ace(&state.db, &a[base + 2], &a[base + 3])?,
        resolve_ace(&state.db, &a[base + 4], &a[base + 5])?,
        resolve_ace(&state.db, &a[base + 6], &a[base + 7])?,
    ])
}

fn add_zephyr_class(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    no_wildcards(&a[0])?;
    if state
        .db
        .table(zephyr::T)
        .select_one(&Pred::Eq(zephyr::CLASS, a[0].as_str().into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let aces = resolve_four_aces(state, a, 1)?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        zephyr::T,
        vec![
            a[0].as_str().into(),
            aces[0].type_str().into(),
            aces[0].id().into(),
            aces[1].type_str().into(),
            aces[1].id().into(),
            aces[2].type_str().into(),
            aces[2].id().into(),
            aces[3].type_str().into(),
            aces[3].id().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_zephyr_class(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = exactly_one(state, zephyr::CLASS, &a[0], MrError::NoMatch)?;
    check_chars(&a[1])?;
    no_wildcards(&a[1])?;
    let current = state.db.table(zephyr::T).row(row)?.get(zephyr::CLASS);
    if a[1] != current
        && state
            .db
            .table(zephyr::T)
            .select_one(&Pred::Eq(zephyr::CLASS, a[1].as_str().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let aces = resolve_four_aces(state, a, 2)?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            zephyr::CLASS.set(&a[1]),
            zephyr::XMT_TYPE.set(aces[0].type_str()),
            zephyr::XMT_ID.set(aces[0].id()),
            zephyr::SUB_TYPE.set(aces[1].type_str()),
            zephyr::SUB_ID.set(aces[1].id()),
            zephyr::IWS_TYPE.set(aces[2].type_str()),
            zephyr::IWS_ID.set(aces[2].id()),
            zephyr::IUI_TYPE.set(aces[3].type_str()),
            zephyr::IUI_ID.set(aces[3].id()),
            zephyr::MODTIME.set(now),
            zephyr::MODBY.set(who),
            zephyr::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_zephyr_class(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = exactly_one(state, zephyr::CLASS, &a[0], MrError::NoMatch)?;
    state.db.delete(zephyr::T, row)?;
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testutil::state_with_admin;
    use crate::registry::Registry;

    fn run(
        s: &mut MoiraState,
        r: &Registry,
        who: &Caller,
        q: &str,
        args: &[&str],
    ) -> MrResult<Vec<Vec<String>>> {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        r.execute(s, who, q, &args)
    }

    fn setup() -> (MoiraState, Registry, Caller) {
        let (mut s, _) = state_with_admin("ops");
        let r = Registry::standard();
        let ops = Caller::new("ops", "zephyrmaint");
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["wheel", "7600", "/bin/csh", "L", "F", "", "1", "x", "STAFF"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["zctl", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        (s, r, ops)
    }

    #[test]
    fn class_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_zephyr_class",
            &[
                "MOIRA", "LIST", "zctl", "NONE", "NONE", "USER", "wheel", "NONE", "NONE",
            ],
        )
        .unwrap();
        let cls = run(&mut s, &r, &ops, "get_zephyr_class", &["MOIRA"]).unwrap();
        assert_eq!(cls[0][1], "LIST");
        assert_eq!(cls[0][2], "zctl");
        assert_eq!(cls[0][5], "USER");
        assert_eq!(cls[0][6], "wheel");
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_zephyr_class",
                &["MOIRA", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",]
            )
            .unwrap_err(),
            MrError::Exists
        );
        run(
            &mut s,
            &r,
            &ops,
            "update_zephyr_class",
            &[
                "MOIRA", "MOIRA2", "NONE", "NONE", "LIST", "zctl", "NONE", "NONE", "USER", "wheel",
            ],
        )
        .unwrap();
        let cls = run(&mut s, &r, &ops, "get_zephyr_class", &["MOIRA2"]).unwrap();
        assert_eq!(cls[0][3], "LIST");
        assert_eq!(cls[0][8], "wheel");
        run(&mut s, &r, &ops, "delete_zephyr_class", &["MOIRA2"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_zephyr_class", &["MOIRA*"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn bad_ace_rejected() {
        let (mut s, r, ops) = setup();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_zephyr_class",
                &["X", "LIST", "nolist", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",]
            )
            .unwrap_err(),
            MrError::Ace
        );
    }

    #[test]
    fn wildcard_retrieval() {
        let (mut s, r, ops) = setup();
        for cls in ["MOIRA", "MESSAGE"] {
            run(
                &mut s,
                &r,
                &ops,
                "add_zephyr_class",
                &[
                    cls, "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE", "NONE",
                ],
            )
            .unwrap();
        }
        assert_eq!(
            run(&mut s, &r, &ops, "get_zephyr_class", &["M*"])
                .unwrap()
                .len(),
            2
        );
    }
}
