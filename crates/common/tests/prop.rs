//! Property-based tests for moira-common data structures.

use moira_common::hashtab::HashTable;
use moira_common::strutil;
use moira_common::wildcard;
use proptest::prelude::*;

/// A slow, obviously-correct recursive glob matcher to test against.
fn naive_matches(pat: &[u8], text: &[u8]) -> bool {
    match (pat.first(), text.first()) {
        (None, None) => true,
        (Some(b'*'), _) => {
            naive_matches(&pat[1..], text) || (!text.is_empty() && naive_matches(pat, &text[1..]))
        }
        (Some(b'?'), Some(_)) => naive_matches(&pat[1..], &text[1..]),
        (Some(p), Some(t)) if p == t => naive_matches(&pat[1..], &text[1..]),
        _ => false,
    }
}

proptest! {
    #[test]
    fn wildcard_agrees_with_naive(pat in "[a-c*?]{0,8}", text in "[a-c]{0,10}") {
        prop_assert_eq!(
            wildcard::matches(&pat, &text),
            naive_matches(pat.as_bytes(), text.as_bytes())
        );
    }

    #[test]
    fn literal_patterns_match_only_themselves(text in "[a-z0-9.-]{0,16}", other in "[a-z0-9.-]{0,16}") {
        prop_assert!(wildcard::matches(&text, &text));
        if text != other {
            prop_assert!(!wildcard::matches(&text, &other) || wildcard::has_wildcards(&text));
        }
    }

    #[test]
    fn star_matches_everything(text in ".{0,64}") {
        prop_assert!(wildcard::matches("*", &text));
    }

    #[test]
    fn flags_round_trip(flags in 0u32..1024) {
        let s = strutil::flags_to_string(flags, strutil::NFSPHYS_FLAGS);
        prop_assert_eq!(strutil::string_to_flags(&s, strutil::NFSPHYS_FLAGS), Some(flags));
    }

    #[test]
    fn hostname_canonicalization_idempotent(name in "[A-Za-z0-9.-]{1,32}") {
        let once = strutil::canonicalize_hostname(&name);
        prop_assert_eq!(strutil::canonicalize_hostname(&once), once.clone());
        prop_assert!(!once.ends_with('.') || once.is_empty());
    }

    #[test]
    fn hashtable_models_hashmap(ops in prop::collection::vec(
        (0u8..3, "[a-f]{1,3}", any::<i32>()), 0..200)) {
        let mut table: HashTable<i32> = HashTable::new();
        let mut model = std::collections::HashMap::new();
        for (op, key, value) in ops {
            match op {
                0 => {
                    prop_assert_eq!(table.store(&key, value), model.insert(key.clone(), value));
                }
                1 => {
                    prop_assert_eq!(table.lookup(&key), model.get(&key));
                }
                _ => {
                    prop_assert_eq!(table.remove(&key), model.remove(&key));
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
    }
}
