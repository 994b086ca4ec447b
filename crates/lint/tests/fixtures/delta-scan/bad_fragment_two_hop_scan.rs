//@ file: crates/dcm/src/generators/mail.rs
// The fragment body is per-row; the whole-table enumeration hides two
// calls down, in a helper module outside the generators directory.
use crate::rollup::alias_counts;

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
    let count = alias_counts(state, row);
    Some((LineKey::Row(row), format!("{count}")))
}
//@ file: crates/dcm/src/rollup.rs
use crate::census::population;

pub fn alias_counts(state: &MoiraState, row: RowId) -> usize {
    population(state) + row.0
}
//@ file: crates/dcm/src/census.rs
pub fn population(state: &MoiraState) -> usize {
    let mut n = 0;
    for (_, _) in state.db.table(users::T).iter() {
        n += 1;
    }
    n
}
