//! Incremental view maintenance for generator output.
//!
//! A generator's archive is described as an ordered list of *sections*.
//! Each section is driven by one table: every driver row contributes an
//! independent fragment (a run of text lines keyed for ordering, or a set
//! of archive members), possibly reading other tables ("lookups") while
//! rendering. A [`CachedBuild`] keeps the fragment maps keyed on a
//! [`GenCursor`] over the generator's dependency tables; [`refresh`]
//! advances it by applying `changed_since` row deltas instead of re-reading
//! the database.
//!
//! There is one renderer: a from-scratch build ([`build`], which is all
//! `Generator::generate` does) is the delta routine replaying every live
//! driver row into an empty cache, so a delta-maintained build and a
//! from-scratch one differ only in which rows they fed the same fragment
//! functions. The proptest in `tests/incremental.rs` pins the two equal
//! after every op, and `tests/golden_generators.rs` pins the bytes.
//!
//! Fallback rules (cursor invalidation): a missing cache (first run), an
//! epoch change (the state was rebuilt — backup restore or journal
//! replay), or a generation running backwards all force a full rebuild.
//! Within a valid cache, a section whose *lookup* tables advanced is
//! rebuilt whole (its fragments may depend on any row of those tables),
//! while a section whose *driver* advanced replays only the changed rows.
//!
//! The engine reads a table whole in one place only, `SectionCache::full`,
//! and never through `Table::iter` (`crates/dcm/clippy.toml` bans it).
//! `tests/incremental.rs::delta_refresh_never_scans` pins the rest: a
//! one-row change refreshes every standard generator without a single
//! `Scan` plan, so a fragment that selects with `Pred::True` or on an
//! unindexed predicate fails it.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use moira_common::errors::MrResult;
use moira_core::state::MoiraState;
use moira_db::{GenCursor, RowChange, RowId, TableId};

use super::{check_no_change, Generator};
use crate::archive::Archive;

/// Ordering key of a line fragment within its section. Fragments render in
/// `(LineKey, RowId)` order, which lets a section reproduce the full
/// builder's sort (e.g. `(0, login)` for login-sorted files, `(uid, login)`
/// for the stable uid sort) with the driver row id as the stable tiebreak.
pub type LineKey = (i64, String);

/// Renders one driver row into an ordered text fragment, or `None` when the
/// row contributes nothing (filtered out, wrong type, deleted reference).
pub type LineFragmentFn = fn(&MoiraState, RowId) -> Option<(LineKey, String)>;

/// Renders one driver row into zero or more whole archive members.
pub type MemberFragmentFn = fn(&MoiraState, RowId) -> Vec<(String, Vec<u8>)>;

/// Narrows a *lookup* table's changed rows to the driver rows whose
/// fragments may render differently because of them. Returning `None`
/// (or declaring no narrowing at all) falls back to rebuilding the whole
/// section. The returned set must be a superset of the truly affected
/// driver rows; over-reporting costs time, under-reporting costs
/// correctness.
pub type AffectedFn = fn(&MoiraState, TableId, &[RowChange]) -> Option<Vec<RowId>>;

/// How a section's fragments combine into the archive.
pub enum SectionKind {
    /// Fragments are text runs concatenated (in key order) into the member
    /// named by [`Section::file`]; consecutive `Lines` sections naming the
    /// same file concatenate in plan order.
    Lines(LineFragmentFn),
    /// Fragments are complete members, emitted in driver row-id order.
    Members(MemberFragmentFn),
}

/// One delta-maintainable slice of a generator's output.
pub struct Section {
    /// Target member name (`Members` sections name their own members and
    /// leave this as a label).
    pub file: &'static str,
    /// The table whose rows drive this section's fragments.
    pub driver: TableId,
    /// Tables the fragment function reads besides the driver row. Any
    /// change in a lookup table rebuilds the whole section, since a single
    /// lookup row can influence any fragment — unless [`Section::affected`]
    /// can narrow the change to specific driver rows.
    pub lookups: &'static [TableId],
    /// Fragment renderer.
    pub kind: SectionKind,
    /// Optional lookup-change narrowing (see [`AffectedFn`]).
    pub affected: Option<AffectedFn>,
}

/// A generator's full incremental description.
pub struct DeltaPlan {
    /// Sections in archive order.
    pub sections: Vec<Section>,
}

/// Cached fragments of one section.
#[derive(Clone)]
pub(crate) enum SectionCache {
    Lines {
        /// `(key, driver row) -> rendered text`.
        by_key: BTreeMap<(LineKey, RowId), String>,
        /// Reverse map so a row delta can evict its old fragment.
        key_of: HashMap<RowId, LineKey>,
    },
    Members {
        /// `driver row -> members it contributes`.
        by_row: BTreeMap<RowId, Vec<(String, Vec<u8>)>>,
    },
}

impl SectionCache {
    fn empty(kind: &SectionKind) -> SectionCache {
        match kind {
            SectionKind::Lines(_) => SectionCache::Lines {
                by_key: BTreeMap::new(),
                key_of: HashMap::new(),
            },
            SectionKind::Members(_) => SectionCache::Members {
                by_row: BTreeMap::new(),
            },
        }
    }

    /// A section built from scratch: every live driver row replayed into
    /// an empty cache — what the delta path sees from a zero cursor, every
    /// live row as an upsert (outstanding tombstones come along and evict
    /// nothing from an empty cache).
    fn full(state: &MoiraState, section: &Section) -> SectionCache {
        let mut cache = SectionCache::empty(&section.kind);
        let rows = state.db.at(section.driver).changed_since(0);
        cache.apply(state, &section.kind, &rows);
        cache
    }

    /// The one evict-render-insert routine: each changed row's old fragment
    /// is dropped and, when the row is still live, rendered afresh.
    fn apply(&mut self, state: &MoiraState, kind: &SectionKind, changes: &[RowChange]) {
        match (kind, self) {
            (SectionKind::Lines(frag), SectionCache::Lines { by_key, key_of }) => {
                for change in changes {
                    let id = change.id();
                    if let Some(old_key) = key_of.remove(&id) {
                        by_key.remove(&(old_key, id));
                    }
                    if let RowChange::Upserted(id) = *change {
                        if let Some((key, text)) = frag(state, id) {
                            key_of.insert(id, key.clone());
                            by_key.insert((key, id), text);
                        }
                    }
                }
            }
            (SectionKind::Members(frag), SectionCache::Members { by_row }) => {
                for change in changes {
                    by_row.remove(&change.id());
                    if let RowChange::Upserted(id) = *change {
                        let members = frag(state, id);
                        if !members.is_empty() {
                            by_row.insert(id, members);
                        }
                    }
                }
            }
            _ => unreachable!("section kind and cache kind always match"),
        }
    }
}

/// A generator build cached across DCM cycles: the assembled archive, the
/// section fragment maps it was assembled from, and the generation cursor
/// they are valid at.
#[derive(Clone)]
pub struct CachedBuild {
    cursor: GenCursor,
    archive: Archive,
    sections: Vec<SectionCache>,
}

impl CachedBuild {
    /// The assembled archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The cursor this build is valid at.
    pub fn cursor(&self) -> &GenCursor {
        &self.cursor
    }
}

/// Outcome of a [`refresh`].
pub struct Refresh {
    /// The up-to-date build (store it back for the next cycle).
    pub build: CachedBuild,
    /// False when the refreshed archive is byte-identical to the previous
    /// one — the content-based `MR_NO_CHANGE` signal.
    pub changed: bool,
    /// True when the full-rebuild fallback ran instead of the delta path.
    pub full: bool,
}

/// Brings a cached build up to date against the current state, building
/// from scratch when the cache is missing or its cursor is invalid.
///
/// Call under one shared-state read guard: the cursor cut and the delta
/// reads then describe a single database version (writers need the
/// exclusive lock).
pub fn refresh(
    generator: &dyn Generator,
    state: &MoiraState,
    prev: Option<CachedBuild>,
) -> MrResult<Refresh> {
    let deps = generator.depends_on();
    let cursor = state.generation_cursor(deps);
    let plan = generator.delta_plan();
    debug_assert!(
        plan.sections
            .iter()
            .all(|s| deps.contains(&s.driver) && s.lookups.iter().all(|l| deps.contains(l))),
        "{}: every section driver/lookup must be in depends_on",
        generator.service()
    );

    if let Some(prev) = prev {
        if check_no_change(generator, state, prev.cursor()).is_err() {
            // Nothing the generator depends on moved: the cached build is
            // exact, no row needs re-reading.
            return Ok(Refresh {
                build: prev,
                changed: false,
                full: false,
            });
        }
        let mut refreshed = if prev.cursor.valid_for(&state.db) {
            let _span = state.obs.span("dcm.stage.delta_scan_ns");
            delta_refresh(state, prev, cursor, &plan)?
        } else {
            // Invalid cursor (restore/replay gave the state a new epoch):
            // rebuild, but still compare content so an identical result
            // reports NoChange.
            let _span = state.obs.span("dcm.stage.section_rebuild_ns");
            full_refresh(state, cursor, &plan, Some(prev.archive))?
        };
        // A per-host generator's moved rows (quotas, partitions, host ACEs)
        // may only surface in the per-host members built during the host
        // scan, so an unchanged *shared* archive must still count as a
        // change and re-push the hosts.
        refreshed.changed |= generator.per_host().is_some();
        return Ok(refreshed);
    }
    let _span = state.obs.span("dcm.stage.section_rebuild_ns");
    full_refresh(state, cursor, &plan, None)
}

/// Builds a plan's archive from scratch: every section from
/// `SectionCache::full`, assembled in plan order.
pub(crate) fn build(
    state: &MoiraState,
    plan: &DeltaPlan,
) -> MrResult<(Archive, Vec<SectionCache>)> {
    let sections: Vec<SectionCache> = plan
        .sections
        .iter()
        .map(|section| SectionCache::full(state, section))
        .collect();
    Ok((assemble(plan, &sections, None)?, sections))
}

/// One `Lines` fragment rendered over just `rows`, in section order — a
/// restricted host's cut of a shared file, from the same fragment function.
pub(crate) fn render_lines(state: &MoiraState, frag: LineFragmentFn, rows: &[RowId]) -> String {
    let kind = SectionKind::Lines(frag);
    let mut cache = SectionCache::empty(&kind);
    let changes: Vec<RowChange> = rows.iter().map(|&id| RowChange::Upserted(id)).collect();
    cache.apply(state, &kind, &changes);
    match cache {
        SectionCache::Lines { by_key, .. } => by_key.into_values().collect(),
        SectionCache::Members { .. } => unreachable!("built as Lines"),
    }
}

fn full_refresh(
    state: &MoiraState,
    cursor: GenCursor,
    plan: &DeltaPlan,
    prev_archive: Option<Archive>,
) -> MrResult<Refresh> {
    let (archive, sections) = build(state, plan)?;
    let changed = prev_archive.is_none_or(|p| p != archive);
    Ok(Refresh {
        build: CachedBuild {
            cursor,
            archive,
            sections,
        },
        changed,
        full: true,
    })
}

fn delta_refresh(
    state: &MoiraState,
    prev: CachedBuild,
    cursor: GenCursor,
    plan: &DeltaPlan,
) -> MrResult<Refresh> {
    let advanced: HashSet<TableId> = prev.cursor.advanced_tables(&state.db).into_iter().collect();
    let CachedBuild {
        cursor: prev_cursor,
        archive: prev_archive,
        mut sections,
    } = prev;
    let mut dirty = vec![false; plan.sections.len()];
    for ((section, cache), dirty) in plan.sections.iter().zip(&mut sections).zip(&mut dirty) {
        let since_of = |table: TableId| {
            *prev_cursor
                .gens
                .get(&table)
                .expect("section tables are in depends_on")
        };
        // A lookup table changed under the fragments: any fragment may be
        // stale. Narrow the damage to specific (live) driver rows when the
        // section knows how; otherwise rebuild the whole section.
        let mut rerender: BTreeSet<RowId> = BTreeSet::new();
        let mut rebuild = false;
        for &lookup in section.lookups.iter().filter(|l| advanced.contains(*l)) {
            let narrowed = section.affected.and_then(|affected| {
                let changes = state.db.at(lookup).changed_since(since_of(lookup));
                affected(state, lookup, &changes)
            });
            match narrowed {
                Some(rows) => rerender.extend(rows),
                None => {
                    rebuild = true;
                    break;
                }
            }
        }
        if rebuild {
            *cache = SectionCache::full(state, section);
            *dirty = true;
            continue;
        }
        // The driver's own row delta, then the narrowed lookup damage.
        let mut changes = if advanced.contains(&section.driver) {
            let driver = state.db.at(section.driver);
            driver.changed_since(since_of(section.driver))
        } else {
            Vec::new()
        };
        changes.extend(rerender.into_iter().map(RowChange::Upserted));
        if !changes.is_empty() {
            cache.apply(state, &section.kind, &changes);
            *dirty = true;
        }
    }
    let archive = assemble(plan, &sections, Some((&prev_archive, &dirty)))?;
    let changed = archive != prev_archive;
    Ok(Refresh {
        build: CachedBuild {
            cursor,
            archive,
            sections,
        },
        changed,
        full: false,
    })
}

/// Assembles the archive from section caches, in plan order. Consecutive
/// `Lines` sections targeting the same file concatenate into one member.
/// On the delta path (`reuse` present), a file none of whose sections were
/// touched this refresh is copied from the previous archive instead of
/// being re-concatenated from fragments — the caches and the previous
/// member are byte-identical by construction.
fn assemble(
    plan: &DeltaPlan,
    sections: &[SectionCache],
    reuse: Option<(&Archive, &[bool])>,
) -> MrResult<Archive> {
    let mut archive = Archive::new();
    let mut i = 0;
    while i < plan.sections.len() {
        match &sections[i] {
            SectionCache::Lines { .. } => {
                let file = plan.sections[i].file;
                let mut j = i;
                while j < plan.sections.len()
                    && plan.sections[j].file == file
                    && matches!(sections[j], SectionCache::Lines { .. })
                {
                    j += 1;
                }
                let prev = reuse.and_then(|(prev, dirty)| {
                    if dirty[i..j].iter().any(|d| *d) {
                        None
                    } else {
                        prev.get(file)
                    }
                });
                if let Some(bytes) = prev {
                    archive.add(file, bytes.to_vec())?;
                } else {
                    let mut text = String::new();
                    for section in &sections[i..j] {
                        if let SectionCache::Lines { by_key, .. } = section {
                            for line in by_key.values() {
                                text.push_str(line);
                            }
                        }
                    }
                    archive.add(file, text.into_bytes())?;
                }
                i = j;
            }
            SectionCache::Members { by_row } => {
                for members in by_row.values() {
                    for (name, data) in members {
                        archive.add(name, data.clone())?;
                    }
                }
                i += 1;
            }
        }
    }
    Ok(archive)
}
