//! Property tests for the job-journal codec and replay
//! (`crates/service/src/journal.rs`).
//!
//! The journal is the service's crash-recovery ground truth, so its
//! codec must round-trip *every* representable record — including
//! workload names with quotes, backslashes, control characters and
//! non-ASCII text — and recovery must replay exactly the intact record
//! prefix from any torn file.

use proptest::prelude::*;
use tmi_bench::{JobSpec, RuntimeKind};
use tmi_service::journal::{Journal, JournalRecord};

/// Integers that survive the codec's f64 number path exactly.
const MAX_EXACT: u64 = 1 << 53;

/// Characters the string strategy draws from — biased toward everything
/// the JSON escaper has to work for: quotes, backslashes, control
/// characters, multi-byte UTF-8.
const ALPHABET: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', '_', '-', ' ', '"', '\\', '/', '\n', '\r', '\t', '\x01',
    '\x1f', 'é', 'ß', '漢', '🦀', '{', '}', ':', ',',
];

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..20)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Specs the decoder accepts: threads in 1..=64, a scale above 0, and
/// whole-number counts with `period` and `tick_interval` at least 1.
fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        (arb_string(), 0..RuntimeKind::ALL.len(), 1usize..64),
        (1u64..4_000, any::<bool>(), any::<bool>()),
        (any::<bool>(), 1u64..1_000, 1u64..1_000),
        (0u64..MAX_EXACT, 0u64..MAX_EXACT),
    )
        .prop_map(
            |(
                (workload, rt, threads),
                (scale_millis, fixed, misaligned),
                (huge_pages, period, tick_interval),
                (max_ops, seed),
            )| {
                let mut spec = JobSpec::new(workload);
                spec.runtime = RuntimeKind::ALL[rt];
                spec.threads = threads;
                spec.scale = scale_millis as f64 / 1_000.0;
                spec.fixed = fixed;
                spec.misaligned = misaligned;
                spec.huge_pages = huge_pages;
                spec.period = period;
                spec.tick_interval = tick_interval;
                spec.max_ops = max_ops;
                spec.seed = seed;
                spec
            },
        )
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (0u64..MAX_EXACT, arb_spec()).prop_map(|(id, spec)| JournalRecord::Accepted { id, spec }),
        (0u64..MAX_EXACT).prop_map(|id| JournalRecord::Done { id }),
        (0u64..MAX_EXACT).prop_map(|id| JournalRecord::Failed { id }),
    ]
}

proptest! {
    /// Every representable record decodes back to itself.
    #[test]
    fn record_codec_round_trips(rec in arb_record()) {
        let encoded = rec.encode();
        let decoded = JournalRecord::decode(&encoded)
            .expect("canonical encoding must decode");
        prop_assert_eq!(decoded, rec);
    }

    /// A journal truncated at an arbitrary byte offset replays exactly
    /// the records whose frames survived intact — never an error, never
    /// a phantom record.
    #[test]
    fn truncated_journal_replays_the_intact_prefix(
        recs in proptest::collection::vec(arb_record(), 1..8),
        cut_permille in 0u64..1_001,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tmi-journal-prop-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let _ = std::fs::remove_file(&path);

        // Record the file length after each append so every possible
        // "intact prefix count" is known exactly.
        let (mut j, _) = Journal::recover(&path).unwrap();
        let mut ends = vec![0u64];
        for rec in &recs {
            j.append(rec, None);
            j.sync().unwrap();
            ends.push(std::fs::metadata(&path).unwrap().len());
        }
        drop(j);

        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as u64 * cut_permille / 1_000) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        let intact = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
        let (_, replay) = Journal::recover(&path).unwrap();
        prop_assert_eq!(replay.records, intact as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
