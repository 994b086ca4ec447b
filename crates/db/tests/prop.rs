//! Property-based tests: the engine against a naive model, and the backup
//! escaping against arbitrary content.

use moira_common::VClock;
use moira_db::backup::{decode_backup, escape_field, unescape_field};
use moira_db::journal::{Journal, JournalEntry};
use moira_db::schema::{ColumnDef, TableSchema};
use moira_db::snapshot::decode_snapshot;
use moira_db::storage::{delta_file, DurableEngine, GroupCommitConfig, Media, SimMedia};
use moira_db::storage::{JOURNAL_FILE, SNAPSHOT_FILE};
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

/// A recovered database holding the one typed table `t`, ready for a
/// checkpoint image to be applied.
fn typed_db() -> Database {
    let mut db = Database::recovered(VClock::new(), 1);
    db.create_table(t::R::schema());
    db
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
        // A base's rows stay escaped text until `apply` splits, unescapes
        // and types them, so every base that decodes is applied too.
        let mut bases = vec![format!(
            "moira-snapshot:2\nepoch:1\nnow:0\nseq:0\njournal:0:0\ntable:t:1:0:0:0:1\n\
             row:0:1:{field}\nfree:\nendtable\nend\n"
        )];
        bases.push(bases[0].replace("journal:0:0", &format!("journal:{field}")));
        bases.push(bases[0].replace("journal:0:0", &format!("journal:0:{field}")));
        bases.push(bases[0].replace(&format!("row:0:1:{field}"), &format!("row:{field}")));
        let listed: String = rows.iter().enumerate().map(|(i, r)| format!("row:{i}:1:{r}\n")).collect();
        bases.push(bases[0].replace(&format!("row:0:1:{field}\n"), &listed));
        for base in &bases {
            if let Ok(image) = decode_snapshot(base) {
                let _ = image.apply(&mut typed_db());
            }
        }
        // The journal-file reader, on lines and on raw bytes.
        let _ = Journal::from_file(body.as_bytes());
        let _ = Journal::from_file(format!("{body}\n").as_bytes());
        let _ = Journal::from_file(field.as_bytes());
        // A delta is only read as a link of a chain: one that checksums
        // but carries a hostile count line, or extends the base's count,
        // or carries a hostile row. Every chain that opens is applied.
        let base = "moira-snapshot:2\nepoch:1\nnow:0\nseq:0\njournal:0:0\n\
                    table:t:1:0:0:0:1\nrow:0:1:a:1:1\nfree:\nendtable\nend\n";
        let counts = [
            format!("journal:{field}"),
            format!("journal:1:{field}"),
            rows.join(":"),
            "journal:0:0".to_owned(),
        ];
        for count in counts {
            let body = format!(
                "moira-delta:2\nepoch:1\nnow:0\nprev:0\nseq:1\n{count}\n\
                 table:t:2:0:0:0:2\nrow:0:2:{field}\nfree:\nendtable\n"
            );
            let delta = format!("{body}end:{:08x}\n", moira_common::crc::crc32(body.as_bytes()));
            let mut media = SimMedia::new();
            media.write_new(SNAPSHOT_FILE, base.as_bytes()).unwrap();
            media.write_new(&delta_file(1), delta.as_bytes()).unwrap();
            media.write_new(JOURNAL_FILE, field.as_bytes()).unwrap();
            let config = GroupCommitConfig { flush_interval_secs: 0, flush_bytes: 1, snapshot_every: 0 };
            if let Ok((engine, Some(image))) = DurableEngine::open(Box::new(media), config) {
                if let Some(snap) = &image.snapshot {
                    let _ = snap.apply(&mut typed_db());
                }
                let journal = image.snapshot.map(|s| s.journal).unwrap_or_default();
                let _ = moira_db::storage::Storage::history(&engine, &journal);
            }
        }
    }

    /// The journal's text form is exact on hostile fields: what
    /// `to_text` writes, `from_text` reads back as the same journal.
    #[test]
    fn journal_text_round_trips_hostile_fields(
        entries in prop::collection::vec(
            (any::<i64>(), HOSTILE, HOSTILE, HOSTILE, prop::collection::vec(HOSTILE, 0..4)),
            0..6,
        ),
    ) {
        let mut j = Journal::new();
        for (time, who, with, query, args) in entries {
            j.log(&JournalEntry { time, who, with, query, args });
        }
        prop_assert_eq!(Journal::from_text(&j.to_text()), Ok(j.clone()));
        prop_assert_eq!(Journal::from_file(j.to_text().as_bytes()), Ok(j.clone()));
        prop_assert_eq!(j.end().bytes, j.to_text().len());
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
                        t.update(id, &[t::NUM.set(num)], now).unwrap();
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
                .map(|(id, _)| {
                    let r = t.rel(t::T).row(id).unwrap();
                    (r.get(t::NAME).to_owned(), r.get(t::NUM), r.get(t::FLAG))
                })
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
        j.log(&entry);
        let back = Journal::from_text(&j.to_text()).unwrap();
        // Zero-arg entries gain one empty arg through the text form (the
        // trailing field); content is otherwise identical.
        let e = &back.entries().next().unwrap();
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
                log.extend_from_slice(&encode_frame(*seq, &entry.to_line()));
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
                log.extend_from_slice(&encode_frame(*seq, &entry.to_line()));
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
    use moira_common::errors::MrError;
    use moira_db::schema::{ColumnDef, TableSchema};
    use moira_db::{RowChange, Table, Value};
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

    /// One of eight index layouts: every combination of name/num carrying
    /// a secondary index, and of name being unique (which implies indexed).
    /// Non-unique indexes let buckets grow multi-entry; a unique name makes
    /// `MR_EXISTS` reachable.
    fn build_table(indexed: u8) -> Table {
        let name = match indexed & 5 {
            0 => ColumnDef::str("name"),
            1 => ColumnDef::str("name").indexed(),
            _ => ColumnDef::str("name").unique(),
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
        /// Renames the row named by the first seed to the second seed's
        /// name.
        Rename(u64, u64),
        /// Renames a row to its own name with the case of every letter
        /// flipped.
        FlipCase(u64),
        /// Assigns a row the values it already holds.
        NoOp(u64),
        /// Names `name` twice in one change list: the second value wins.
        RenameTwice(u64, u64, u64, i64),
        Delete(u64),
    }

    fn churn() -> impl Strategy<Value = Churn> {
        prop_oneof![
            (any::<u64>(), -2i64..3, any::<bool>()).prop_map(|(s, n, f)| Churn::Append(s, n, f)),
            (any::<u64>(), -2i64..3).prop_map(|(s, n)| Churn::Update(s, n)),
            (any::<u64>(), any::<u64>()).prop_map(|(s, to)| Churn::Rename(s, to)),
            any::<u64>().prop_map(Churn::FlipCase),
            any::<u64>().prop_map(Churn::NoOp),
            (any::<u64>(), any::<u64>(), any::<u64>(), -2i64..3)
                .prop_map(|(s, first, last, n)| Churn::RenameTwice(s, first, last, n)),
            any::<u64>().prop_map(Churn::Delete),
        ]
    }

    /// What the table must answer for a write that stores `name` in row
    /// `id` (`None` for an append): `MR_EXISTS` exactly when the name
    /// column is unique and another live row already holds the name, as a
    /// forced scan sees it.
    fn expected(t: &Table, id: Option<usize>, name: &str) -> Result<(), MrError> {
        let unique = t.schema().columns[0].unique;
        let holders = t.rel(t::T).select_scan(&Pred::Eq(NAME, name.into()));
        match unique && holders.iter().any(|&other| Some(other) != id) {
            true => Err(MrError::Exists),
            false => Ok(()),
        }
    }

    /// Runs one update against the model: the answer is [`expected`]'s, a
    /// refused update leaves the table's image untouched, and an accepted
    /// one counts once, whether or not it changed a cell.
    fn check_update(
        t: &mut Table,
        id: usize,
        changes: &[moira_db::Assign<t::R>],
        final_name: &str,
        now: i64,
    ) -> Result<(), TestCaseError> {
        let want = expected(t, Some(id), final_name);
        let before = t.export_image();
        prop_assert_eq!(t.update(id, changes, now), want);
        match want {
            Ok(()) => {
                prop_assert_eq!(t.stats().updates, before.stats.updates + 1);
                prop_assert_eq!(
                    t.changed_since(before.stats.generation),
                    vec![RowChange::Upserted(id)]
                );
                prop_assert_eq!(t.rel(t::T).row(id).unwrap().get(NAME), final_name);
            }
            Err(_) => prop_assert_eq!(t.export_image(), before),
        }
        Ok(())
    }

    fn flip_case(name: &str) -> String {
        name.chars()
            .map(|c| match c.is_ascii_lowercase() {
                true => c.to_ascii_uppercase(),
                false => c.to_ascii_lowercase(),
            })
            .collect()
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
        /// layout, under slot-reusing mutation churn that renames, re-cases
        /// and re-assigns indexed cells (and is refused on unique
        /// conflicts), over point, folded, wildcard, and boolean-combined
        /// predicates.
        #[test]
        fn any_plan_equals_forced_scan(
            indexed in 0u8..8,
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
                        let want = expected(&t, None, name);
                        let got = t.append(vec![name.into(), (*num).into(), (*flag).into()], now);
                        prop_assert_eq!(got.map(drop), want);
                    }
                    Churn::Update(s, num) => {
                        let name = rand_name(&mut { *s });
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            check_update(&mut t, id, &[NUM.set(*num)], name, now)?;
                        }
                    }
                    Churn::Rename(s, to) => {
                        let name = rand_name(&mut { *s });
                        let to = rand_name(&mut { *to });
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            check_update(&mut t, id, &[NAME.set(to)], to, now)?;
                        }
                    }
                    Churn::FlipCase(s) => {
                        let name = rand_name(&mut { *s });
                        let flipped = flip_case(name);
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            check_update(&mut t, id, &[NAME.set(flipped.as_str())], &flipped, now)?;
                        }
                    }
                    Churn::NoOp(s) => {
                        let name = rand_name(&mut { *s });
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            let row = t.rel(t::T).row(id).unwrap();
                            let same = [NAME.set(name), NUM.set(row.get(NUM)), FLAG.set(row.get(FLAG))];
                            let cells = |t: &Table| -> Vec<(usize, Vec<Value>)> {
                                t.export_image().rows.into_iter().map(|(id, _, row)| (id, row)).collect()
                            };
                            let before = cells(&t);
                            check_update(&mut t, id, &same, name, now)?;
                            prop_assert_eq!(cells(&t), before);
                        }
                    }
                    Churn::RenameTwice(s, first, last, num) => {
                        let name = rand_name(&mut { *s });
                        let (first, last) = (rand_name(&mut { *first }), rand_name(&mut { *last }));
                        if let Some(id) = t.rel(t::T).select_one(&Pred::Eq(NAME, name.into())) {
                            let changes = [NAME.set(first), NUM.set(*num), NAME.set(last)];
                            check_update(&mut t, id, &changes, last, now)?;
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
            journal.log(&JournalEntry {
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
                log.extend_from_slice(&encode_frame(i as u64, &e.to_line()));
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

mod delta_chain_props {
    use moira_common::VClock;
    use moira_db::journal::Journal;
    use moira_db::snapshot::encode_snapshot;
    use moira_db::storage::{DurableEngine, GroupCommitConfig, SimMedia, Storage, SNAPSHOT_FILE};
    use moira_db::{Col, Database, Pred, Relation, Str};
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
        name: Col<R, Str>,
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
                db.update(id, &[name.set(s)]).unwrap();
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
            let now = self.db.now();
            let line = self.journal.record(now, "prop", "delta", "step", &args);
            self.engine.append(line, now).unwrap();
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
            // The journal file holds every sealed entry exactly once.
            let (engine, _) = DurableEngine::open(Box::new(self.media.clone()), config()).unwrap();
            prop_assert_eq!(engine.history(&image.journal), Ok(self.journal.clone()));
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
