//! Property-based tests: the engine against a naive model, and the backup
//! escaping against arbitrary content.

use moira_common::VClock;
use moira_db::backup::{decode_backup, escape_field, unescape_field};
use moira_db::journal::{Journal, JournalEntry};
use moira_db::schema::{ColumnDef, TableSchema};
use moira_db::snapshot::decode_snapshot;
use moira_db::{Database, Pred, Relation, Table, Value};
use proptest::prelude::*;

// The one test relation: every schema below is `t`'s three columns, with
// the index layout varied at run time where a test wants that.
moira_db::relations! {
    t { NAME: str "name" unique, NUM: int "num" indexed, FLAG: boolean "flag" }
}

fn table() -> Table {
    Table::new(t::R::schema())
}

#[derive(Debug, Clone)]
enum Op {
    Append(String, i64, bool),
    UpdateNum(String, i64),
    Delete(String),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ("[a-d]{1,2}", any::<i64>(), any::<bool>()).prop_map(|(n, i, b)| Op::Append(n, i, b)),
        ("[a-d]{1,2}", any::<i64>()).prop_map(|(n, i)| Op::UpdateNum(n, i)),
        "[a-d]{1,2}".prop_map(Op::Delete),
    ]
}

/// Text as a damaged disk might hold it: dense in backslashes, octal and
/// non-octal digits, colons, newlines and multi-byte characters.
const HOSTILE: &str = "[\\\\\\\\\\\\0-9::é日x\n]{0,24}";

/// The reproduced panic: `\12` followed by a two-byte character put the
/// three-"digit" slice end inside that character.
#[test]
fn unescape_rejects_an_octal_escape_running_into_a_multibyte_char() {
    assert!(unescape_field("\\12é").is_err());
    assert!(unescape_field("\\1日").is_err());
    assert_eq!(unescape_field("\\351").ok(), None, "lone 0xE9 is not UTF-8");
    assert_eq!(unescape_field("\\012").unwrap(), "\n");
}

proptest! {
    /// No byte sequence on disk can panic a decoder: every entry point that
    /// unescapes fields answers hostile text with `Ok` or `Err`.
    #[test]
    fn decoders_are_total_on_hostile_text(
        field in HOSTILE,
        rows in prop::collection::vec(HOSTILE, 0..4),
    ) {
        let _ = unescape_field(&field);
        let _ = JournalEntry::from_line(&field);
        let _ = JournalEntry::from_line(&format!("0:{field}:w:q:{field}"));
        let body = rows.join("\n");
        let _ = decode_backup(&body);
        let _ = decode_backup(&format!(
            "moira-backup:1\ntable:{field}\n{body}\nendtable\nend\n"
        ));
        let _ = decode_snapshot(&body);
        let _ = decode_snapshot(&format!(
            "moira-snapshot:1\nepoch:1\nnow:0\nseq:0\ntable:t:0:0:0:0:0\n\
             row:0:1:{field}\nendtable\njournal:0:{field}\nend\n"
        ));
    }

    /// The table agrees with a Vec-of-rows model under arbitrary mutation,
    /// and its indexes agree with full scans.
    #[test]
    fn table_matches_model(ops in prop::collection::vec(op_strategy(), 0..120)) {
        let mut t = table();
        let mut model: Vec<(String, i64, bool)> = Vec::new();
        let mut now = 0i64;
        for op in ops {
            now += 1;
            match op {
                Op::Append(name, num, flag) => {
                    let expect_ok = !model.iter().any(|(n, _, _)| n == &name);
                    let result = t.append(
                        vec![name.clone().into(), num.into(), flag.into()],
                        now,
                    );
                    prop_assert_eq!(result.is_ok(), expect_ok);
                    if expect_ok {
                        model.push((name, num, flag));
                    }
                }
                Op::UpdateNum(name, num) => {
                    if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(t::NAME, name.clone().into())) {
                        t.update(id, &[(t::NUM, num.into())], now).unwrap();
                        model.iter_mut().find(|(n, _, _)| n == &name).unwrap().1 = num;
                    }
                }
                Op::Delete(name) => {
                    let gone = t.delete_where(&Pred::Eq(t::NAME, name.clone().into()), now);
                    let before = model.len();
                    model.retain(|(n, _, _)| n != &name);
                    prop_assert_eq!(gone, before - model.len());
                }
            }
            // Full-state comparison.
            prop_assert_eq!(t.len(), model.len());
            let mut actual: Vec<(String, i64, bool)> = t
                .iter()
                .map(|(_, row)| (row[0].as_str().to_owned(), row[1].as_int(), row[2].as_bool()))
                .collect();
            actual.sort();
            let mut expected = model.clone();
            expected.sort();
            prop_assert_eq!(actual, expected);
            // Indexed lookups agree with scans for a probe value.
            for probe in [-1i64, 0, 1] {
                let via_index = t.rel(t::T).select(&Pred::Eq(t::NUM, probe.into())).len();
                let via_scan =
                    model.iter().filter(|(_, n, _)| *n == probe).count();
                prop_assert_eq!(via_index, via_scan);
            }
        }
    }

    #[test]
    fn escape_round_trips(a in ".{0,64}", b in ".{0,64}") {
        let ea = escape_field(&a);
        let eb = escape_field(&b);
        // The escaped form never contains newlines, and every colon is
        // escaped — so joining two fields with ':' is unambiguous.
        prop_assert!(!ea.contains('\n'));
        prop_assert_eq!(unescape_field(&ea).unwrap(), a.clone());
        let line = format!("{ea}:{eb}");
        // Split on unescaped colons the way restore does.
        let bytes = line.as_bytes();
        let mut fields = Vec::new();
        let (mut start, mut i) = (0usize, 0usize);
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b':' => {
                    fields.push(&line[start..i]);
                    start = i + 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        fields.push(&line[start..]);
        prop_assert_eq!(fields.len(), 2);
        prop_assert_eq!(unescape_field(fields[0]).unwrap(), a);
        prop_assert_eq!(unescape_field(fields[1]).unwrap(), b);
    }

    #[test]
    fn journal_round_trips(
        time in any::<i64>(),
        who in ".{0,16}",
        query in "[a-z_]{1,24}",
        args in prop::collection::vec(".{0,16}", 0..6),
    ) {
        let entry = JournalEntry { time, who, with: "prop".into(), query, args };
        let mut j = Journal::new();
        j.log(entry.clone());
        let back = Journal::from_text(&j.to_text()).unwrap();
        // Zero-arg entries gain one empty arg through the text form (the
        // trailing field); content is otherwise identical.
        let e = &back.entries()[0];
        prop_assert_eq!(e.time, entry.time);
        prop_assert_eq!(&e.who, &entry.who);
        prop_assert_eq!(&e.query, &entry.query);
        if !entry.args.is_empty() {
            prop_assert_eq!(&e.args, &entry.args);
        }
    }

    #[test]
    fn backup_restore_round_trips(rows in prop::collection::vec(
        ("[a-z:\\\\]{1,8}", any::<i64>(), any::<bool>()), 0..40)) {
        // No unique column: random names may repeat.
        let plain = || TableSchema::new(
            "t",
            vec![ColumnDef::str("name"), ColumnDef::int("num"), ColumnDef::boolean("flag")],
        );
        let mut db = Database::new(VClock::new());
        db.create_table(plain());
        for (name, num, flag) in &rows {
            db.append(t::T, vec![name.as_str().into(), (*num).into(), (*flag).into()]).unwrap();
        }
        let backup = moira_db::backup::mrbackup(&db);
        let mut fresh = Database::new(VClock::new());
        fresh.create_table(plain());
        moira_db::backup::mrrestore(&mut fresh, &backup).unwrap();
        let original: Vec<Vec<Value>> = db.table(t::T).iter().map(|(_, r)| r.to_vec()).collect();
        let restored: Vec<Vec<Value>> = fresh.table(t::T).iter().map(|(_, r)| r.to_vec()).collect();
        prop_assert_eq!(original, restored);
    }
}

mod wal_props {
    use moira_db::journal::JournalEntry;
    use moira_db::wal::{encode_frame, scan_frames, MAX_FRAME_LEN};
    use proptest::prelude::*;

    /// Adversarial journal entries: arbitrary unicode in every field,
    /// including the separators the wire form escapes.
    fn entry_strategy() -> impl Strategy<Value = JournalEntry> {
        (
            any::<i64>(),
            ".{0,24}",
            ".{0,24}",
            "[a-z_]{1,24}",
            prop::collection::vec(".{0,24}", 1..6),
        )
            .prop_map(|(time, who, with, query, args)| JournalEntry {
                time,
                who,
                with,
                query,
                args,
            })
    }

    proptest! {
        /// Frames round-trip through the scanner, byte for byte.
        #[test]
        fn frames_round_trip(entries in prop::collection::vec((any::<u64>(), entry_strategy()), 0..12)) {
            let mut log = Vec::new();
            for (seq, entry) in &entries {
                log.extend_from_slice(&encode_frame(*seq, entry));
            }
            let (frames, scan) = scan_frames(&log);
            prop_assert_eq!(scan.recovered_frames as usize, entries.len());
            prop_assert_eq!(scan.torn_tail_truncations, 0);
            prop_assert_eq!(scan.clean_len, log.len());
            prop_assert_eq!(frames.len(), entries.len());
            for ((seq, entry), (got_seq, got)) in entries.iter().zip(&frames) {
                prop_assert_eq!(seq, got_seq);
                prop_assert_eq!(&entry.to_line(), &got.to_line());
            }
        }

        /// Scanning is total: any byte soup yields a clean prefix and never
        /// panics, and rescanning the clean prefix is a fixed point.
        #[test]
        fn scan_is_total_on_arbitrary_bytes(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
            let (frames, scan) = scan_frames(&garbage);
            prop_assert!(scan.clean_len <= garbage.len());
            let (again, rescan) = scan_frames(&garbage[..scan.clean_len]);
            prop_assert_eq!(again.len(), frames.len());
            prop_assert_eq!(rescan.torn_tail_truncations, 0);
            prop_assert_eq!(rescan.clean_len, scan.clean_len);
        }

        /// A good log with a corrupted or truncated tail recovers exactly
        /// the frames before the damage.
        #[test]
        fn tail_damage_never_loses_the_prefix(
            entries in prop::collection::vec((any::<u64>(), entry_strategy()), 1..8),
            cut_back in 0usize..64,
            flip in any::<u8>(),
        ) {
            let mut log = Vec::new();
            let mut frame_ends = Vec::new();
            for (seq, entry) in &entries {
                log.extend_from_slice(&encode_frame(*seq, entry));
                frame_ends.push(log.len());
            }
            // Torn write: drop bytes off the tail.
            let cut = log.len() - cut_back.min(log.len());
            let mut torn = log[..cut].to_vec();
            // And flip a bit somewhere in what remains of the last frame.
            if let Some(&start) = frame_ends.iter().rev().find(|&&e| e <= cut).or(Some(&0)) {
                if start < torn.len() {
                    let idx = start + (flip as usize) % (torn.len() - start);
                    torn[idx] ^= 1 << (flip % 8);
                }
            }
            let (frames, scan) = scan_frames(&torn);
            let intact = frame_ends.iter().filter(|&&e| e <= scan.clean_len).count();
            // Every frame wholly inside the clean prefix is recovered with
            // its original payload.
            prop_assert!(frames.len() >= intact);
            for (i, (seq, got)) in frames.iter().enumerate().take(intact) {
                prop_assert_eq!(*seq, entries[i].0);
                prop_assert_eq!(got.to_line(), entries[i].1.to_line());
            }
        }

        /// Length-prefix sanity: a frame header can claim any length, but
        /// the scanner never reads past the buffer or accepts an oversized
        /// claim.
        #[test]
        fn oversized_length_claims_are_rejected(claim in MAX_FRAME_LEN + 1..u32::MAX, pad in 0usize..32) {
            let mut log = Vec::new();
            log.extend_from_slice(&claim.to_le_bytes());
            log.extend_from_slice(&0u32.to_le_bytes());
            log.extend(std::iter::repeat_n(0xAA, pad));
            let (frames, scan) = scan_frames(&log);
            prop_assert!(frames.is_empty());
            prop_assert_eq!(scan.clean_len, 0);
            prop_assert_eq!(scan.torn_tail_truncations, 1);
        }
    }
}

mod plan_props {
    use super::t::{self, FLAG, NAME, NUM};
    use moira_db::schema::{ColumnDef, TableSchema};
    use moira_db::{Table, Value};
    use proptest::prelude::*;

    type Pred = moira_db::Pred<t::R>;

    /// Deterministic splitmix-style mixer: the proptest shim has no
    /// recursive strategies, so nested predicate shapes derive from
    /// arbitrary `u64` seeds instead.
    fn mix(s: &mut u64) -> u64 {
        *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Mixed-case pool with deliberate case-fold collisions ("a" vs "A",
    /// "aB" vs "Ab") so the folded index and `EqCi`/`LikeCi` disagree
    /// with the case-sensitive forms whenever the planner gets it wrong.
    const NAMES: &[&str] = &["a", "A", "b", "B", "ab", "aB", "Ab", "BA"];

    fn rand_name(s: &mut u64) -> &'static str {
        NAMES[(mix(s) as usize) % NAMES.len()]
    }

    fn rand_pattern(s: &mut u64) -> String {
        let base = rand_name(s);
        match mix(s) % 4 {
            0 => format!("{base}*"),
            1 => format!("{base}?"),
            2 => format!("*{base}"),
            _ => base.to_owned(),
        }
    }

    fn rand_pred(s: &mut u64, depth: u32) -> Pred {
        let n = if depth == 0 { mix(s) % 7 } else { mix(s) % 10 };
        match n {
            0 => Pred::Eq(NAME, Value::from(rand_name(s))),
            1 => Pred::Eq(NUM, (((mix(s) % 5) as i64) - 2).into()),
            2 => Pred::Eq(FLAG, mix(s).is_multiple_of(2).into()),
            3 => Pred::EqCi(NAME, rand_name(s).to_owned()),
            4 => Pred::Like(NAME, rand_pattern(s)),
            5 => Pred::LikeCi(NAME, rand_pattern(s)),
            6 => Pred::True,
            7 => Pred::And(vec![rand_pred(s, depth - 1), rand_pred(s, depth - 1)]),
            8 => Pred::Or(vec![rand_pred(s, depth - 1), rand_pred(s, depth - 1)]),
            _ => Pred::Not(rand_pred(s, depth - 1)),
        }
    }

    /// One of four index layouts: every combination of name/num carrying
    /// a secondary index. Non-unique indexes, so buckets grow multi-entry.
    fn build_table(indexed: u8) -> Table {
        let name = if indexed & 1 != 0 {
            ColumnDef::str("name").indexed()
        } else {
            ColumnDef::str("name")
        };
        let num = if indexed & 2 != 0 {
            ColumnDef::int("num").indexed()
        } else {
            ColumnDef::int("num")
        };
        Table::new(TableSchema::new(
            "t",
            vec![name, num, ColumnDef::boolean("flag")],
        ))
    }

    #[derive(Debug, Clone)]
    enum Churn {
        Append(u64, i64, bool),
        Update(u64, i64),
        Delete(u64),
    }

    fn churn() -> impl Strategy<Value = Churn> {
        prop_oneof![
            (any::<u64>(), -2i64..3, any::<bool>()).prop_map(|(s, n, f)| Churn::Append(s, n, f)),
            (any::<u64>(), -2i64..3).prop_map(|(s, n)| Churn::Update(s, n)),
            any::<u64>().prop_map(Churn::Delete),
        ]
    }

    /// `select(pred)` must agree with the forced naive scan, however the
    /// planner chose to serve it — and so must `count` and `select_one`.
    fn assert_oracle(t: &Table, pred: &Pred) -> Result<(), TestCaseError> {
        let t = t.rel(t::T);
        let mut via_plan = t.select(pred);
        let mut via_scan = t.select_scan(pred);
        via_plan.sort_unstable();
        via_scan.sort_unstable();
        prop_assert_eq!(
            &via_plan,
            &via_scan,
            "plan {} diverged from scan for {:?}",
            t.plan(pred).describe(),
            pred
        );
        prop_assert_eq!(t.count(pred), via_scan.len());
        prop_assert_eq!(t.select_one(pred), via_scan.first().copied());
        Ok(())
    }

    proptest! {
        /// The soundness oracle the planner docs promise: a plan only
        /// narrows the candidate set, so whatever access path `choose`
        /// picks — point, folded point, intersect, range, or scan — the
        /// results equal a forced slab scan. Runs across every index
        /// layout, under slot-reusing mutation churn, over point, folded,
        /// wildcard, and boolean-combined predicates.
        #[test]
        fn any_plan_equals_forced_scan(
            indexed in 0u8..4,
            pred_seeds in prop::collection::vec(any::<u64>(), 1..16),
            ops in prop::collection::vec(churn(), 0..60),
        ) {
            let mut t = build_table(indexed);
            let preds: Vec<Pred> = pred_seeds
                .iter()
                .map(|&s| rand_pred(&mut { s }, 2))
                .collect();
            let mut now = 0i64;
            for (i, op) in ops.iter().enumerate() {
                now += 1;
                match op {
                    Churn::Append(s, num, flag) => {
                        let name = rand_name(&mut { *s });
                        t.append(vec![name.into(), (*num).into(), (*flag).into()], now)
                            .unwrap();
                    }
                    Churn::Update(s, num) => {
                        let name = rand_name(&mut { *s });
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            t.update(id, &[(NUM, (*num).into())], now).unwrap();
                        }
                    }
                    Churn::Delete(s) => {
                        let name = rand_name(&mut { *s });
                        t.delete_where(&Pred::Eq(NAME, name.into()), now);
                    }
                }
                // Mid-churn probe: catches index corruption that a final
                // sweep would miss once later ops overwrite the slot.
                assert_oracle(&t, &preds[i % preds.len()])?;
            }
            for pred in &preds {
                assert_oracle(&t, pred)?;
                if indexed == 0 {
                    prop_assert_eq!(t.rel(t::T).plan(pred).kind(), "scan");
                }
            }
        }
    }
}

mod intern_props {
    use std::collections::HashMap;
    use std::sync::Arc;

    use moira_common::VClock;
    use moira_db::journal::{Journal, JournalEntry};
    use moira_db::snapshot::{decode_snapshot, encode_snapshot};
    use moira_db::wal::{encode_frame, scan_frames};
    use moira_db::{Database, Value};
    use proptest::prelude::*;

    moira_db::relations! {
        t { NAME: str "name" indexed, VAL: str "val", N: int "n" }
    }

    proptest! {
        /// Interning is invisible to durability. Rows are built from a
        /// small pool of adversarial strings (unicode, colons,
        /// backslashes), so the same `Arc<str>` backs many cells; the
        /// snapshot of that database decodes, applies onto a recovered
        /// database, and re-encodes byte-identically, the rebuilt rows
        /// share one allocation per distinct string, and WAL frames
        /// carrying the same pool round-trip through the frame scanner.
        #[test]
        fn interned_snapshot_and_wal_round_trip_byte_identically(
            pool in prop::collection::vec(".{1,12}", 1..6),
            picks in prop::collection::vec((any::<u64>(), any::<u64>(), any::<i64>()), 1..40),
        ) {
            let mut db = Database::new(VClock::new());
            create_all_tables(&mut db);
            for (a, b, n) in &picks {
                let name = &pool[(*a as usize) % pool.len()];
                let val = &pool[(*b as usize) % pool.len()];
                db.append(t::T, vec![name.as_str().into(), val.as_str().into(), (*n).into()])
                    .unwrap();
            }
            let mut journal = Journal::new();
            journal.log(JournalEntry {
                time: db.now(),
                who: "ops:root".into(),
                with: "prop".into(),
                query: "add_thing".into(),
                args: vec!["co:lon".into(), "b\\ck".into()],
            });

            // Snapshot: decode + apply + re-encode is a byte-level fixed
            // point even though every string cell went through the
            // interner on both sides.
            let text = encode_snapshot(&db, &journal, 5);
            let image = decode_snapshot(&text).unwrap();
            let mut back = Database::recovered(VClock::starting_at(image.now), image.epoch);
            create_all_tables(&mut back);
            image.apply(&mut back).unwrap();
            prop_assert_eq!(encode_snapshot(&back, &journal, 5), text);

            // Pointer-level dedupe: in the rebuilt table, equal strings
            // share one allocation.
            let mut seen: HashMap<String, *const u8> = HashMap::new();
            for (_, row) in back.table(t::T).iter() {
                for v in row.iter() {
                    if let Value::Str(s) = v {
                        let ptr = Arc::as_ptr(s) as *const u8;
                        match seen.get(s.as_ref()) {
                            Some(&p) => prop_assert_eq!(
                                p, ptr,
                                "two cells holding {:?} have separate allocations",
                                s
                            ),
                            None => {
                                seen.insert(s.as_ref().to_owned(), ptr);
                            }
                        }
                    }
                }
            }

            // WAL torture with the same pool: frames whose entries carry
            // interned-origin strings round-trip through the scanner.
            let entries: Vec<JournalEntry> = pool
                .iter()
                .enumerate()
                .map(|(i, s)| JournalEntry {
                    time: i as i64,
                    who: s.clone(),
                    with: "prop".into(),
                    query: "q".into(),
                    args: vec![s.clone(), s.clone()],
                })
                .collect();
            let mut log = Vec::new();
            for (i, e) in entries.iter().enumerate() {
                log.extend_from_slice(&encode_frame(i as u64, e));
            }
            let (frames, scan) = scan_frames(&log);
            prop_assert_eq!(scan.torn_tail_truncations, 0);
            prop_assert_eq!(frames.len(), entries.len());
            for (e, (_, got)) in entries.iter().zip(&frames) {
                prop_assert_eq!(e.to_line(), got.to_line());
            }
        }
    }
}

mod lock_props {
    use moira_db::lock::{LockManager, LockMode};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum LockOp {
        Acquire(u8, u8, bool),
        Release(u8, u8),
        ReleaseAll(u8),
    }

    fn lock_op() -> impl Strategy<Value = LockOp> {
        prop_oneof![
            (0u8..4, 0u8..3, any::<bool>()).prop_map(|(o, r, x)| LockOp::Acquire(o, r, x)),
            (0u8..4, 0u8..3).prop_map(|(o, r)| LockOp::Release(o, r)),
            (0u8..4).prop_map(LockOp::ReleaseAll),
        ]
    }

    proptest! {
        /// Under arbitrary acquire/release sequences: an exclusive holder
        /// is always alone, and the manager never deadlocks itself (every
        /// call returns).
        #[test]
        fn exclusion_invariant(ops in prop::collection::vec(lock_op(), 0..200)) {
            let mut lm = LockManager::new();
            // The generated schedules have no ordering discipline — the
            // property under test is exclusion, so the order witness is
            // explicitly off regardless of MOIRA_LOCK_ORDER.
            lm.set_order_mode(moira_common::lockorder::OrderMode::Off);
            // Model: resource -> (exclusive holder, shared holders).
            let mut model: std::collections::HashMap<String, (Option<String>, std::collections::HashSet<String>)> =
                std::collections::HashMap::new();
            for op in ops {
                match op {
                    LockOp::Acquire(o, r, exclusive) => {
                        let owner = format!("o{o}");
                        let resource = format!("r{r}");
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let got = lm.try_acquire(&owner, &resource, mode);
                        let entry = model.entry(resource.clone()).or_default();
                        if got {
                            if exclusive {
                                // Nobody else may hold it in any mode.
                                prop_assert!(
                                    entry.0.as_deref().is_none_or(|h| h == owner),
                                    "exclusive grant over exclusive holder"
                                );
                                prop_assert!(
                                    entry.1.iter().all(|h| *h == owner),
                                    "exclusive grant over shared holders"
                                );
                                entry.1.remove(&owner);
                                entry.0 = Some(owner);
                            } else {
                                prop_assert!(
                                    entry.0.as_deref().is_none_or(|h| h == owner),
                                    "shared grant against exclusive holder"
                                );
                                if entry.0.as_deref() != Some(owner.as_str()) {
                                    entry.1.insert(owner);
                                }
                            }
                        }
                    }
                    LockOp::Release(o, r) => {
                        let owner = format!("o{o}");
                        let resource = format!("r{r}");
                        lm.release(&owner, &resource);
                        if let Some(entry) = model.get_mut(&resource) {
                            if entry.0.as_deref() == Some(owner.as_str()) {
                                entry.0 = None;
                            }
                            entry.1.remove(&owner);
                        }
                    }
                    LockOp::ReleaseAll(o) => {
                        let owner = format!("o{o}");
                        lm.release_all(&owner);
                        for entry in model.values_mut() {
                            if entry.0.as_deref() == Some(owner.as_str()) {
                                entry.0 = None;
                            }
                            entry.1.remove(&owner);
                        }
                    }
                }
                // Cross-check `holds` against the model.
                for (resource, (excl, shared)) in &model {
                    for o in 0..4u8 {
                        let owner = format!("o{o}");
                        let expected = excl.as_deref() == Some(owner.as_str())
                            || shared.contains(&owner);
                        prop_assert_eq!(lm.holds(&owner, resource), expected);
                    }
                }
            }
        }
    }
}

mod delta_chain_props {
    use moira_common::VClock;
    use moira_db::journal::{Journal, JournalEntry};
    use moira_db::snapshot::encode_snapshot;
    use moira_db::storage::{DurableEngine, GroupCommitConfig, SimMedia, Storage, SNAPSHOT_FILE};
    use moira_db::{Col, Database, Pred, Relation};
    use proptest::prelude::*;

    moira_db::relations! {
        a { NAME: str "name" indexed, N: int "n" }
        b { NAME: str "name" indexed, N: int "n" }
    }
    use create_all_tables as create_tables;

    /// One step against relation `R`; `None` when it had no row to pick.
    fn apply<R: Relation>(
        db: &mut Database,
        rel: R,
        name: Col<R>,
        step: &Step,
    ) -> Option<Vec<String>> {
        let pick = |db: &Database, pick: u64| {
            let ids = db.table(rel).select(&Pred::True);
            (!ids.is_empty()).then(|| ids[(pick % ids.len() as u64) as usize])
        };
        match step {
            Step::Append(_, s, n) => {
                db.append(rel, vec![s.as_str().into(), (*n).into()])
                    .unwrap();
                Some(vec![s.clone(), n.to_string()])
            }
            Step::Update(_, p, s) => {
                let id = pick(db, *p)?;
                db.update(id, &[(name, s.as_str().into())]).unwrap();
                Some(vec![id.to_string(), s.clone()])
            }
            Step::Delete(_, p) => {
                let id = pick(db, *p)?;
                db.delete(rel, id).unwrap();
                Some(vec![id.to_string()])
            }
            Step::Seal => None,
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        Append(bool, String, i64),
        Update(bool, u64, String),
        Delete(bool, u64),
        Seal,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (any::<bool>(), super::HOSTILE, any::<i64>())
                .prop_map(|(t, s, n)| Step::Append(t, s, n)),
            (any::<bool>(), any::<u64>(), super::HOSTILE)
                .prop_map(|(t, pick, s)| Step::Update(t, pick, s)),
            (any::<bool>(), any::<u64>()).prop_map(|(t, pick)| Step::Delete(t, pick)),
            Just(Step::Seal),
        ]
    }

    fn config() -> GroupCommitConfig {
        GroupCommitConfig {
            flush_interval_secs: 0,
            flush_bytes: usize::MAX,
            snapshot_every: 0,
        }
    }

    struct Live {
        db: Database,
        journal: Journal,
        engine: DurableEngine,
        media: SimMedia,
        clock: VClock,
    }

    impl Live {
        /// One commit the way the server makes it: mutate, journal, WAL.
        fn commit(&mut self, step: &Step) {
            let on_b = match step {
                Step::Append(t, ..) | Step::Update(t, ..) | Step::Delete(t, ..) => *t,
                Step::Seal => return,
            };
            let applied = if on_b {
                apply(&mut self.db, b::T, b::NAME, step)
            } else {
                apply(&mut self.db, a::T, a::NAME, step)
            };
            let Some(args) = applied else { return };
            // Time moves with commits only: a seal with nothing to seal
            // writes nothing, so the last document's `now:` stands.
            self.clock.advance(1);
            let entry = JournalEntry {
                time: self.db.now(),
                who: "prop".into(),
                with: "delta".into(),
                query: "step".into(),
                args,
            };
            self.journal.log(entry.clone());
            self.engine.append(&entry, entry.time).unwrap();
        }

        /// Seals, loses power, and demands that what a second engine reads
        /// back re-encodes to the live image byte for byte. Right after a
        /// seal nothing is volatile, so the live engine is not disturbed.
        fn seal_and_recover(&mut self) -> Result<(), TestCaseError> {
            self.engine.snapshot(&self.db, &self.journal).unwrap();
            self.media.power_cycle();
            let (_, recovered) =
                DurableEngine::open(Box::new(self.media.clone()), config()).unwrap();
            let recovered = recovered.unwrap();
            prop_assert!(recovered.wal.is_empty());
            let image = recovered.snapshot.unwrap();
            let mut back = Database::recovered(VClock::starting_at(image.now), image.epoch);
            create_tables(&mut back);
            image.apply(&mut back).unwrap();
            prop_assert_eq!(
                encode_snapshot(&back, &image.journal, image.seq),
                encode_snapshot(&self.db, &self.journal, image.seq)
            );
            Ok(())
        }
    }

    proptest! {
        /// Whatever stream of appends, updates and deletes (slot reuse,
        /// tombstones, free-list order, hostile strings) runs over two
        /// tables, and wherever the seals fall in it, base + delta chain
        /// recover to exactly the live image — at every seal, across at
        /// least one rewrite of the base.
        #[test]
        fn delta_chain_recovers_byte_identically(
            steps in prop::collection::vec(step(), 1..100),
        ) {
            let clock = VClock::new();
            let mut db = Database::new(clock.clone());
            create_tables(&mut db);
            let media = SimMedia::new();
            let (engine, _) = DurableEngine::open(Box::new(media.clone()), config()).unwrap();
            let mut live = Live { db, journal: Journal::new(), engine, media, clock };
            for step in &steps {
                match step {
                    Step::Seal => live.seal_and_recover()?,
                    _ => live.commit(step),
                }
            }
            // However the stream went, finish by driving the chain through
            // a compaction: seal after every commit until the base moves.
            live.seal_and_recover()?;
            let base = live.media.durable_bytes(SNAPSHOT_FILE);
            let mut compacted = false;
            for i in 0..256 {
                live.commit(&Step::Append(i % 2 == 0, format!("tail{i}"), i));
                live.seal_and_recover()?;
                if live.media.durable_bytes(SNAPSHOT_FILE) != base {
                    compacted = true;
                    break;
                }
            }
            prop_assert!(compacted, "256 one-row deltas never outweighed the base");
        }
    }
}
