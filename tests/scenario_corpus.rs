//! Seed-corpus regression test: every committed scenario under
//! `tests/corpus/*.ron` is replayed twice on each `cargo test`; the two
//! replays must agree on every decision, and must reproduce the entry's
//! pinned outcome exactly — commit/abort counts, Byzantine commits, and the
//! digest of the committed transaction set. The corpus holds minimized specs worth
//! keeping forever: once a fuzz failure is fixed, its shrunk spec lands
//! here so the schedule that found the bug is re-run for the rest of the
//! repository's life.
//!
//! Re-pinning after an intentional behaviour change:
//!
//! ```text
//! BASIL_CORPUS_PIN=1 cargo test -p basil-scenario --test scenario_corpus -- --nocapture
//! ```
//!
//! prints the freshly computed `expect` block for every entry instead of
//! asserting, ready to paste into the corpus file.

use basil_scenario::ron;
use basil_scenario::runner::run_basil_spec;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the corpus is never empty");
    files
}

#[test]
fn corpus_replays_match_pinned_outcomes() {
    let pin = std::env::var("BASIL_CORPUS_PIN").is_ok();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("readable corpus entry");
        let spec = ron::decode(&text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        spec.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid spec: {e}"));

        let outcome = run_basil_spec(&spec);
        let replay = run_basil_spec(&spec);
        assert!(
            !outcome.diverges_from(&replay),
            "{name}: two replays disagree:\n{outcome:#?}\nvs\n{replay:#?}"
        );
        if pin {
            println!(
                "{name}: check={:?} tail_committed={} dropped={} corrupted={} replayed={}\n    \
                 expect: Some((\n        committed: {},\n        \
                 aborted_attempts: {},\n        byz_committed: {},\n        \
                 digest: \"{}\",\n    )),",
                outcome.check(&spec),
                outcome.tail_committed,
                outcome.messages_dropped,
                outcome.messages_corrupted,
                outcome.messages_replayed,
                outcome.committed,
                outcome.aborted_attempts,
                outcome.byz_committed,
                outcome.digest
            );
            continue;
        }

        assert_eq!(
            outcome.check(&spec),
            None,
            "{name}: scenario checks failed: {:?}",
            outcome.audit_failure
        );

        let expect = spec
            .expect
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: corpus entries must pin an expect block"));
        assert_eq!(outcome.committed, expect.committed, "{name}: committed");
        assert_eq!(
            outcome.aborted_attempts, expect.aborted_attempts,
            "{name}: aborted_attempts"
        );
        assert_eq!(
            outcome.byz_committed, expect.byz_committed,
            "{name}: byz_committed"
        );
        assert_eq!(
            outcome.digest, expect.digest,
            "{name}: committed-set digest"
        );
    }
}

/// The corpus stays canonical: decoding an entry and re-encoding it must
/// reproduce the file's spec exactly (comments aside), so hand edits can't
/// drift from what the codec writes.
#[test]
fn corpus_entries_round_trip_through_the_codec() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("readable");
        let spec = ron::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let re = ron::decode(&ron::encode(&spec)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(re, spec, "{name}: encode/decode round-trip");
    }
}
