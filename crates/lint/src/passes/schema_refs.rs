//! Pass 4 — schema string references.
//!
//! Tables and columns are named by string literal on the query path
//! (`state.db.select("users", &Pred::Eq("login", ..))`), so a typo is not a
//! compile error: `Database::table` panics and `Table::col` misses on the
//! first request that reaches the line. This pass checks every such
//! literal in `queries/` and `access.rs` against the tables and columns
//! `schema.rs` declares.
//!
//! Everything else about a `QueryHandle` literal is checked by a stronger
//! tool: the handler identifier and the kind/access variants by rustc,
//! kind↔tier, duplicate names and the `QueryAclOrSelf` index by the
//! asserts in `Registry::register`.

use std::collections::HashSet;

use crate::engine::Engine;
use crate::scan;
use crate::{Diagnostic, SourceFile, Workspace};
use syn::TokenKind;

pub const NAME: &str = "schema-refs";

const QUERIES_DIR: &str = "crates/core/src/queries/";
const ACCESS_FILE: &str = "crates/core/src/access.rs";
const SCHEMA_FILE: &str = "crates/core/src/schema.rs";

/// Methods whose first string argument is a table name
/// (`Database::select("users", ..)`, `state.db.table("list")`, ...).
const TABLE_ARG_METHODS: &[&str] = &[
    "table",
    "table_mut",
    "append",
    "update",
    "delete",
    "delete_where",
    "select",
    "select_exactly_one",
    "cell",
    "has_table",
];

pub fn run(ws: &Workspace, _eng: &Engine<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(schema) = parse_schema(ws) else {
        return out;
    };
    for sf in &ws.files {
        if sf.rel.starts_with(QUERIES_DIR) || sf.rel == ACCESS_FILE {
            check_table_refs(sf, &schema, &mut out);
        }
    }
    out
}

struct Schema {
    tables: HashSet<String>,
    columns: HashSet<String>,
}

/// Reads `schema.rs`: tables from `TableSchema::new("name", ...)`, columns
/// from the `C::str/int/boolean("col")` constructors inside it.
fn parse_schema(ws: &Workspace) -> Option<Schema> {
    let toks = &ws.file(SCHEMA_FILE)?.tokens;
    let mut schema = Schema {
        tables: HashSet::new(),
        columns: HashSet::new(),
    };
    for i in 0..toks.len() {
        if !scan::path_starts(toks, i, &["TableSchema", "new"])
            || !toks.get(i + 4).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let open = i + 4;
        if let Some(name) = toks.get(open + 1).filter(|t| t.kind == TokenKind::Str) {
            schema.tables.insert(name.text.clone());
        }
        for j in open..scan::close_of(toks, open) {
            if (toks[j].is_ident("str") || toks[j].is_ident("int") || toks[j].is_ident("boolean"))
                && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(j + 2).is_some_and(|t| t.kind == TokenKind::Str)
            {
                schema.columns.insert(toks[j + 2].text.clone());
            }
        }
    }
    Some(schema)
}

/// Checks every table-name and column-name string literal in a file
/// against the schema.
fn check_table_refs(sf: &SourceFile, schema: &Schema, out: &mut Vec<Diagnostic>) {
    let toks = &sf.tokens;
    let mut diag = |line: u32, message: String| {
        out.push(Diagnostic::new(NAME, sf.rel.clone(), line, message));
    };
    let no_column = |col: &str| !schema.columns.contains(col);
    for mc in scan::method_calls(toks) {
        if TABLE_ARG_METHODS.contains(&mc.name) {
            for (pos, text, line) in scan::str_args(toks, mc.idx + 2) {
                // `Table::cell(row, "col")` and `Table::update(id, ..)`
                // have no leading table string; a string in position 0 of
                // `cell` on a table receiver is impossible (RowId comes
                // first), so a position-0 string is always a table name.
                if pos == 0 {
                    if !schema.tables.contains(&text) {
                        diag(
                            line,
                            format!(
                                "`.{}(\"{text}\", ..)` references a table not in schema.rs",
                                mc.name
                            ),
                        );
                    }
                } else if mc.name == "cell" && no_column(&text) {
                    diag(
                        line,
                        format!("`.cell(.., \"{text}\")` references a column not in schema.rs"),
                    );
                }
            }
            // Update change-lists: `("col", value)` tuples anywhere in the
            // call.
            if mc.name == "update" {
                for j in mc.idx + 2..scan::close_of(toks, mc.idx + 2) {
                    if toks[j].is_punct('(')
                        && toks.get(j + 1).is_some_and(|t| t.kind == TokenKind::Str)
                        && toks.get(j + 2).is_some_and(|t| t.is_punct(','))
                        && !toks[j - 1].is_punct('!')
                        && toks[j - 1].kind != TokenKind::Ident
                        && no_column(&toks[j + 1].text)
                    {
                        diag(
                            toks[j + 1].line,
                            format!(
                                "update change-list names column `{}`, not in schema.rs",
                                toks[j + 1].text
                            ),
                        );
                    }
                }
            }
        }
        // `.col("name")` — direct schema column lookup.
        if mc.name == "col" {
            for (pos, text, line) in scan::str_args(toks, mc.idx + 2) {
                if pos == 0 && no_column(&text) {
                    diag(
                        line,
                        format!("`.col(\"{text}\")` names a column not in schema.rs"),
                    );
                }
            }
        }
    }
    // Pred constructors: first string argument is a column.
    for i in 0..toks.len() {
        if toks[i].is_ident("Pred")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 5).is_some_and(|t| t.kind == TokenKind::Str)
        {
            let variant = &toks[i + 3].text;
            if matches!(variant.as_str(), "And" | "Or" | "Not" | "True") {
                continue;
            }
            let col = &toks[i + 5];
            if no_column(&col.text) {
                diag(
                    col.line,
                    format!(
                        "`Pred::{variant}(\"{}\", ..)` names a column not in schema.rs",
                        col.text
                    ),
                );
            }
        }
    }
}
