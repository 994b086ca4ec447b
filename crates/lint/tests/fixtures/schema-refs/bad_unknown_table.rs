//@ file: crates/core/src/schema.rs
pub fn create_all_tables(db: &mut Database) {
    db.create_table(TableSchema::new("users", vec![C::str("login").unique()]));
}
//@ file: crates/core/src/queries/users.rs
// Table `user` is a typo: `Database::table` panics on the first request
// that reaches it.
fn get_user(state: &MoiraState, login: &str) -> Vec<RowId> {
    state.db.select("user", &Pred::Eq("login", login.into()))
}
