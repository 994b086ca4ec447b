//@ file: crates/dcm/src/generators/mail.rs
// A fragment may take the full-rebuild escape hatch when the call site
// carries the marker: the engine stops Scans propagation over marked
// edges, so this stays clean.
use crate::rollup::rebuild_all_aliases;

fn delta_plan(&self) -> DeltaPlan {
    DeltaPlan {
        sections: vec![Section {
            file: "aliases",
            driver: users::R::ID,
            lookups: &[],
            kind: SectionKind::Lines(frag_aliases),
            affected: None,
        }],
    }
}

fn frag_aliases(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    // full-rebuild fallback: corrupted cursor, start over.
    let lines = rebuild_all_aliases(state);
    Some((LineKey::Row(row), format!("{}", lines)))
}
//@ file: crates/dcm/src/rollup.rs
pub fn rebuild_all_aliases(state: &MoiraState) -> usize {
    let mut n = 0;
    for (_, _) in state.db.table(aliases::T).iter() {
        n += 1;
    }
    n
}
