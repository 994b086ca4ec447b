//@ file: crates/dcm/src/generators/mail.rs
// The Section literal names frag_bad as a delta fragment, and frag_bad
// full-scans: iterates a table directly, iterates one through a local
// binding, and selects with Pred::True.

fn delta_plan(&self) -> DeltaPlan {
    DeltaPlan {
        sections: vec![Section {
            file: "aliases",
            driver: users::R::ID,
            lookups: &[],
            kind: SectionKind::Lines(frag_bad),
            affected: None,
        }],
    }
}

fn frag_bad(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    for (r, _) in state.db.table(users::T).iter() {
        let _ = r;
    }
    let all = state.db.table(users::T).select(&Pred::True);
    let lists = state.db.table(list::T);
    let actives = lists.iter().count();
    Some((LineKey::Row(row), format!("{}:{}", all.len(), actives)))
}
