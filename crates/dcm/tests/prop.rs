//! Property-based tests for the DCM substrate: archive framing, CRC error
//! detection, script round trips, and the update protocol's no-torn-files
//! invariant under arbitrary crash points.

use moira_dcm::archive::{crc32, Archive};
use moira_dcm::host::SimHost;
use moira_dcm::net::{NetFault, Network, PerfectNetwork};
use moira_dcm::update::{run_update, Script, UpdateError};
use proptest::prelude::*;

/// `run_update` over a perfect network: no credentials, no cached base.
fn push(
    host: &mut SimHost,
    archive: &Archive,
    target: &str,
    script: &Script,
) -> Result<(), UpdateError> {
    run_update(&PerfectNetwork, host, None, archive, None, target, script).0
}

fn update_error() -> impl Strategy<Value = UpdateError> {
    prop_oneof![
        Just(UpdateError::HostDown),
        Just(UpdateError::Timeout),
        Just(UpdateError::Checksum),
        Just(UpdateError::BadData),
        Just(UpdateError::AuthFailed),
        (0i32..1000).prop_map(UpdateError::ExecFailed),
    ]
}

proptest! {
    #[test]
    fn archive_round_trips(members in prop::collection::vec(
        ("[a-z0-9._-]{1,16}", prop::collection::vec(any::<u8>(), 0..128)), 0..12)) {
        // Deduplicate names: Archive rejects duplicates by design.
        let unique: std::collections::BTreeMap<String, Vec<u8>> =
            members.into_iter().collect();
        let archive = Archive::from_members(
            unique.into_iter().collect(),
        ).expect("names are unique");
        prop_assert_eq!(Archive::from_bytes(&archive.to_bytes()), Some(archive));
    }

    #[test]
    fn crc_detects_any_single_flip(
        data in prop::collection::vec(any::<u8>(), 1..256),
        index in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut tampered = data.clone();
        let i = index.index(tampered.len());
        tampered[i] ^= flip;
        prop_assert_ne!(crc32(&data), crc32(&tampered));
    }

    #[test]
    fn scripts_round_trip(files in prop::collection::vec("[a-z0-9._-]{1,12}", 0..8)) {
        let mut archive = Archive::new();
        for f in &files {
            // Duplicate names are rejected; the survivors make the script.
            let _ = archive.add(f, b"x".to_vec());
        }
        let script = Script::standard(&archive, "/var/svc", "install");
        // Plain names are written as they always were.
        let plain: String = archive
            .member_names()
            .iter()
            .map(|m| format!("extract {m} /var/svc/{m}\nswap /var/svc/{m}\n"))
            .chain(["exec install\n".to_owned()])
            .collect();
        prop_assert_eq!(script.to_text(), plain);
        prop_assert_eq!(Script::from_text(&script.to_text()), Some(script));
    }

    /// Names and commands holding spaces, backslashes and line breaks
    /// round-trip whole.
    #[test]
    fn scripts_with_escapes_round_trip(
        files in prop::collection::vec("[a-z \\\\\n\r]{1,12}", 0..8),
        dir in "/[a-z \\\\]{0,8}",
        command in "[a-z \\\\\n\r]{1,12}",
    ) {
        let mut archive = Archive::new();
        for f in &files {
            let _ = archive.add(f, b"x".to_vec());
        }
        let script = Script::standard(&archive, &dir, &command);
        prop_assert_eq!(Script::from_text(&script.to_text()), Some(script));
    }

    /// Crash the host at an arbitrary operation during an update: every
    /// installed file must be wholly old or wholly new, and a retry after
    /// reboot must converge.
    #[test]
    fn updates_never_tear_and_always_converge(
        crash_at in 0u64..24,
        member_count in 1usize..5,
    ) {
        let mut old = Archive::new();
        let mut new = Archive::new();
        for i in 0..member_count {
            old.add(&format!("f{i}.db"), format!("OLD-{i}\n").into_bytes()).unwrap();
            new.add(&format!("f{i}.db"), format!("NEW-{i}-content\n").into_bytes()).unwrap();
        }
        let old_script = Script::standard(&old, "/var/svc", "install");
        let new_script = Script::standard(&new, "/var/svc", "install");
        let mut host = SimHost::new("H");
        push(&mut host, &old, "/tmp/t", &old_script).unwrap();
        host.fail.crash_after_ops = Some(crash_at);
        let _ = push(&mut host, &new, "/tmp/t", &new_script);
        host.reboot();
        // Invariant: no torn files even right after the crash.
        for i in 0..member_count {
            let path = format!("/var/svc/f{i}.db");
            let content = host.read_file(&path).unwrap();
            let ok = content == format!("OLD-{i}\n").as_bytes()
                || content == format!("NEW-{i}-content\n").as_bytes();
            prop_assert!(ok, "torn file {path}: {content:?}");
        }
        // Retry converges to fully new.
        push(&mut host, &new, "/tmp/t", &new_script).unwrap();
        for i in 0..member_count {
            let path = format!("/var/svc/f{i}.db");
            let expected = format!("NEW-{i}-content\n");
            prop_assert_eq!(host.read_file(&path).unwrap(), expected.as_bytes());
        }
    }

    /// Error codes are a lossless wire encoding: every error survives a
    /// code round trip, codes are distinct, and messages are non-empty.
    #[test]
    fn update_error_codes_round_trip(e in update_error(), other in update_error()) {
        prop_assert_eq!(UpdateError::from_code(e.code()), Some(e));
        prop_assert!(!e.message().is_empty());
        if e != other {
            prop_assert_ne!(e.code(), other.code());
        }
        // Hardness is derivable from the code alone (the DCM's retry gate
        // depends on this when outcomes cross the database).
        prop_assert_eq!(
            UpdateError::from_code(e.code()).unwrap().is_hard(),
            e.is_hard()
        );
    }

    /// A network fault on an arbitrary leg of an arbitrary update is always
    /// soft, never tears installed files, and a retry over a healed network
    /// converges — the fabric-level version of the crash property above.
    #[test]
    fn network_faults_are_soft_and_retries_converge(
        fail_leg in 0u64..8,
        fault_kind in 0u8..3,
        member_count in 1usize..5,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct FailNth {
            fail_at: u64,
            fault: NetFault,
            legs: AtomicU64,
        }
        impl Network for FailNth {
            fn connect(&self, _host: &str) -> Result<(), NetFault> {
                self.roll()
            }
            fn transmit(&self, _host: &str, _len: usize) -> Result<(), NetFault> {
                self.roll()
            }
        }
        impl FailNth {
            fn roll(&self) -> Result<(), NetFault> {
                if self.legs.fetch_add(1, Ordering::SeqCst) == self.fail_at {
                    Err(self.fault)
                } else {
                    Ok(())
                }
            }
        }

        let fault = match fault_kind {
            0 => NetFault::Partitioned,
            1 => NetFault::Dropped,
            _ => NetFault::TimedOut,
        };
        let mut archive = Archive::new();
        for i in 0..member_count {
            archive.add(&format!("f{i}.db"), format!("DATA-{i}\n").into_bytes()).unwrap();
        }
        let script = Script::standard(&archive, "/var/svc", "install");
        let mut host = SimHost::new("H");
        let net = FailNth { fail_at: fail_leg, fault, legs: AtomicU64::new(0) };
        match run_update(&net, &mut host, None, &archive, None, "/tmp/t", &script).0 {
            Ok(()) => {} // leg 7 never fires: only seven legs per update
            Err(e) => prop_assert!(!e.is_hard(), "network fault must be soft: {e:?}"),
        }
        // No torn files even mid-fault, and a fault-free retry converges.
        push(&mut host, &archive, "/tmp/t", &script).unwrap();
        for i in 0..member_count {
            let path = format!("/var/svc/f{i}.db");
            let expected = format!("DATA-{i}\n");
            prop_assert_eq!(host.read_file(&path).unwrap(), expected.as_bytes());
        }
    }
}
