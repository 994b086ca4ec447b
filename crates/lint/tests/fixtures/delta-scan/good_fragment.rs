//@ file: crates/dcm/src/generators/mail.rs
// Clean: the fragment stays per-row (indexed Eq select, per-user helper),
// and the full builder — not named by any Section — may iterate freely.

fn delta_plan(&self) -> DeltaPlan {
    DeltaPlan {
        sections: vec![Section {
            file: "aliases",
            driver: users::R::ID,
            lookups: &[list::R::ID],
            kind: SectionKind::Lines(frag_pobox),
            affected: None,
        }],
    }
}

fn frag_pobox(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let users = state.db.table(users::T);
    let login = users.cell(row, users::LOGIN).render();
    let lists = groups_of_user(state, users.cell(row, users::UID).as_int());
    Some((LineKey::Row(row), format!("{login}:{}", lists.len())))
}

fn full_builder(state: &MoiraState) -> String {
    let mut out = String::new();
    for (row, _) in state.db.table(users::T).iter() {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}
//@ file: crates/dcm/src/generators/incremental.rs
// The marked fallback form the real engine uses.

fn build_section_full(state: &MoiraState, section: &Section) -> Vec<RowId> {
    let rows = full_rebuild_rows(state, section.driver);
    // full-rebuild fallback
    rows
}
