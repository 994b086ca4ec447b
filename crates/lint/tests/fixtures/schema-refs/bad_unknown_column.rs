//@ file: crates/core/src/schema.rs
pub fn create_all_tables(db: &mut Database) {
    db.create_table(TableSchema::new("users", vec![C::str("login").unique(), C::int("status")]));
}
//@ file: crates/core/src/queries/users.rs
// Right table, but the predicate, the cell read and the update change-list
// each name a column the schema does not declare.
fn deactivate_user(state: &mut MoiraState, login: &str) -> MrResult<()> {
    for id in state.db.select("users", &Pred::Eq("loginn", login.into())) {
        let _ = state.db.cell("users", id, "statuss");
        state.db.update("users", id, &[("state", 0.into())])?;
    }
    Ok(())
}
