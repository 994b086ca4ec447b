//@ file: crates/core/src/schema.rs
pub fn create_all_tables(db: &mut Database) {
    db.create_table(TableSchema::new("users", vec![C::str("login").unique(), C::int("status")]));
}
//@ file: crates/core/src/queries/users.rs
// Every table and column string exists in the schema; strings that are not
// schema references (field-name lists, error text) are left alone.
const USER_FIELDS: &[&str] = &["login", "uid"];

fn deactivate_user(state: &mut MoiraState, login: &str) -> MrResult<Vec<String>> {
    let mut out = Vec::new();
    for id in state.db.select("users", &Pred::name_match("login", login)) {
        out.push(state.db.cell("users", id, "login").render());
        state.db.update("users", id, &[("status", 0.into())])?;
    }
    Ok(out)
}
