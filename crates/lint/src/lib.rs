//! `moira-lint`: a workspace static analyzer for the invariants no other
//! tool in the build can see — lock discipline around the shared state, the
//! reactor's single blocking point, and the DCM delta-path scan ban: three
//! interprocedural effect passes over a workspace call graph.
//!
//! It checks only what rustc, clippy and `Registry::register` cannot: the
//! read tier is a handler signature, the single live database is a missing
//! `Clone`, table and column references are typed handles (`users::LOGIN`:
//! a misspelt one, or one of another relation, does not compile), panic-free
//! loops and planner discipline are clippy attributes, and registry
//! coherence is asserted at registration (DESIGN.md "Static invariants" has
//! the table).
//!
//! Diagnostics are deny-by-default. A `// lint:allow(<pass>)` comment on
//! the flagged line or the line above suppresses one finding; allows are
//! reviewed in PRs like any other code.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

pub mod engine;
pub mod passes;
pub mod scan;

/// One finding: which pass, where, and what the violation is. When the
/// violation is reached transitively, `chain` holds the full witness path
/// (`(file, line)` hops from the flagged site down to the primitive).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub pass: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub chain: Vec<(String, u32)>,
}

impl Diagnostic {
    pub fn new(pass: &'static str, file: String, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            pass,
            file,
            line,
            message,
            chain: Vec::new(),
        }
    }

    pub fn with_chain(mut self, chain: Vec<(String, u32)>) -> Diagnostic {
        // A single-hop chain is just the flagged line again.
        if chain.len() > 1 {
            self.chain = chain;
        }
        self
    }

    /// `a.rs:12 → b.rs:90 → c.rs:33` (empty string when there is no chain).
    pub fn chain_display(&self) -> String {
        self.chain
            .iter()
            .map(|(f, l)| format!("{f}:{l}"))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "error[{}] {}:{}: {}",
            self.pass, self.file, self.line, self.message
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    call chain: {}", self.chain_display())?;
        }
        Ok(())
    }
}

/// A `lint:allow(...)` comment that no longer suppresses anything. Escapes
/// are reviewed code; one that has rotted must be removed, not carried.
#[derive(Debug, Clone)]
pub struct StaleAllow {
    pub file: String,
    pub line: u32,
    pub pass: String,
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warning[stale-allow] {}:{}: `lint:allow({})` no longer suppresses any \
             diagnostic — remove it",
            self.file, self.line, self.pass
        )
    }
}

/// The result of a full lint run: surviving diagnostics plus the allows
/// that matched nothing.
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
    pub stale_allows: Vec<StaleAllow>,
}

/// A registered pass: name (used in `lint:allow(...)`) and a one-line
/// description for `--list`. Every pass receives the workspace call-graph
/// engine; file-local passes simply ignore it.
pub struct PassInfo {
    pub name: &'static str,
    pub description: &'static str,
    pub run: fn(&Workspace, &engine::Engine<'_>) -> Vec<Diagnostic>,
}

/// All passes, in the order they run.
pub const PASSES: &[PassInfo] = &[
    PassInfo {
        name: passes::locks::NAME,
        description: "no blocking I/O and no second guard acquisition while a SharedState \
                      RwLock guard is live — including transitively through calls into any \
                      file, with the full call chain in the diagnostic",
        run: passes::locks::run,
    },
    PassInfo {
        name: passes::reactor::NAME,
        description: "no SharedState guard held across the reactor wait, and no blocking \
                      syscalls reachable from functions on the reactor wait path",
        run: passes::reactor::run,
    },
    PassInfo {
        name: passes::delta::NAME,
        description: "the DCM incremental path and per-generator delta fragments never \
                      full-scan driver tables, directly or through helpers in any file; \
                      full rebuilds only via the marked fallback",
        run: passes::delta::run,
    },
];

/// A parsed source file plus the flat token stream and the
/// `lint:allow(...)` suppressions found in its comments.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub tokens: Vec<syn::Token>,
    pub ast: syn::File,
    /// (line, pass-name) pairs from `// lint:allow(pass)` comments.
    pub allows: Vec<(u32, String)>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> Result<SourceFile, String> {
        let (tokens, _) = syn::tokenize(src);
        let ast = syn::parse_file(src).map_err(|e| format!("{rel}: {e}"))?;
        let mut allows = Vec::new();
        for c in &ast.comments {
            let mut rest = c.text.as_str();
            while let Some(pos) = rest.find("lint:allow(") {
                let after = &rest[pos + "lint:allow(".len()..];
                if let Some(close) = after.find(')') {
                    for name in after[..close].split(',') {
                        allows.push((c.line, name.trim().to_string()));
                    }
                    rest = &after[close + 1..];
                } else {
                    break;
                }
            }
        }
        Ok(SourceFile {
            rel: rel.to_string(),
            tokens,
            ast,
            allows,
        })
    }
}

/// The set of parsed sources a lint run sees.
pub struct Workspace {
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Loads every `crates/*/src/**/*.rs` under `root`, except
    /// `crates/lint` itself (the analyzer does not self-audit; its fixtures
    /// contain deliberate violations).
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let crates_dir = root.join("crates");
        if !crates_dir.is_dir() {
            return Err(format!(
                "no crates/ directory under {} — run from the workspace root or pass --root",
                root.display()
            ));
        }
        let mut files = Vec::new();
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
            .map_err(|e| format!("read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            if crate_dir.file_name().is_some_and(|n| n == "lint") {
                continue;
            }
            let src = crate_dir.join("src");
            if !src.is_dir() {
                continue;
            }
            let mut rs_files = Vec::new();
            collect_rs(&src, &mut rs_files)?;
            rs_files.sort();
            for path in rs_files {
                let text = fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push(SourceFile::parse(&rel, &text)?);
            }
        }
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory (relative-path, source) pairs —
    /// the fixture tests use this.
    pub fn from_sources(sources: &[(&str, &str)]) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for (rel, src) in sources {
            files.push(SourceFile::parse(rel, src)?);
        }
        Ok(Workspace { files })
    }

    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Runs one pass by name and applies `lint:allow` suppressions.
    /// Returns `None` for an unknown pass name.
    pub fn run_pass(&self, name: &str) -> Option<Vec<Diagnostic>> {
        let pass = PASSES.iter().find(|p| p.name == name)?;
        let eng = engine::Engine::build(self);
        Some(self.suppress((pass.run)(self, &eng)))
    }

    /// Runs every pass, applies `lint:allow` suppressions, and reports the
    /// allows that suppressed nothing (stale escapes). Staleness is only
    /// meaningful on a full run — a single-pass run would see every other
    /// pass's allows as unused.
    pub fn run_full(&self) -> LintReport {
        let eng = engine::Engine::build(self);
        let mut out = Vec::new();
        // (file index, allow index) pairs that matched a raw diagnostic.
        let mut used: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        for pass in PASSES {
            for d in (pass.run)(self, &eng) {
                let matches = self.matching_allows(&d);
                if matches.is_empty() {
                    out.push(d);
                } else {
                    used.extend(matches);
                }
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let mut stale = Vec::new();
        for (fi, sf) in self.files.iter().enumerate() {
            for (ai, (line, pass)) in sf.allows.iter().enumerate() {
                if !used.contains(&(fi, ai)) {
                    stale.push(StaleAllow {
                        file: sf.rel.clone(),
                        line: *line,
                        pass: pass.clone(),
                    });
                }
            }
        }
        LintReport {
            diagnostics: out,
            stale_allows: stale,
        }
    }

    fn suppress(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| self.matching_allows(d).is_empty())
            .collect()
    }

    /// `(file index, allow index)` pairs that suppress `d`: an allow on the
    /// flagged line (or the line above), or on any hop of the witness chain
    /// — a reviewed escape at the primitive covers every caller that only
    /// reaches it through that site.
    fn matching_allows(&self, d: &Diagnostic) -> Vec<(usize, usize)> {
        let mut sites: Vec<(&str, u32)> = vec![(d.file.as_str(), d.line)];
        sites.extend(d.chain.iter().map(|(f, l)| (f.as_str(), *l)));
        let mut out = Vec::new();
        for (file, line) in sites {
            if let Some(fi) = self.files.iter().position(|f| f.rel == file) {
                for (ai, (l, p)) in self.files[fi].allows.iter().enumerate() {
                    if p == d.pass && (*l == line || *l + 1 == line) {
                        out.push((fi, ai));
                    }
                }
            }
        }
        out
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
