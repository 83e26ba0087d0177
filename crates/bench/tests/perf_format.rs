//! Format tests for the hand-rolled `BENCH_*.json` reader/writer in
//! `mesh_bench::perf` — the perf-trajectory artifacts the CI perf gate
//! diffs against committed baselines.
//!
//! Two guarantees are pinned here: a write→parse round trip preserves every
//! field ([`BenchFile::to_json`] rounds medians to 0.1 ns, so the generated
//! medians carry exactly one decimal digit), and malformed or truncated
//! input — every prefix of a valid file, plus targeted field corruptions —
//! returns an `Err` instead of panicking, since the perf gate feeds the
//! parser whatever it finds on disk.

use mesh_bench::perf::{BenchFile, BenchRecord};
use proptest::prelude::*;

/// The exact character set benchmark names and shas may use (the format
/// needs no string escaping because of it).
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/.-";

fn arb_token(max_len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..NAME_CHARS.len(), 1..max_len)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i] as char).collect())
}

/// Medians with exactly one decimal digit, which `{:.1}` serialization
/// round-trips losslessly.
fn arb_median() -> impl Strategy<Value = f64> {
    (0u64..1_000_000_000_000u64, 0u64..10).prop_map(|(int, tenth)| {
        format!("{int}.{tenth}")
            .parse()
            .expect("valid float literal")
    })
}

fn arb_file() -> impl Strategy<Value = BenchFile> {
    (
        arb_token(16),
        any::<bool>(),
        (0usize..64, 0usize..64),
        0usize..2,
        prop::collection::vec((arb_token(32), arb_median()), 0..8),
    )
        .prop_map(
            |(git_sha, quick, (jobs, shards), result_cache, benchmarks)| BenchFile {
                git_sha,
                quick,
                jobs,
                shards,
                result_cache,
                benchmarks: benchmarks
                    .into_iter()
                    .map(|(name, median_ns)| BenchRecord { name, median_ns })
                    .collect(),
            },
        )
}

proptest! {
    /// Write→parse preserves the sha, the quick flag and every benchmark's
    /// name and median — including files with no benchmarks at all.
    #[test]
    fn write_then_parse_preserves_every_field(file in arb_file()) {
        let parsed = BenchFile::from_json(&file.to_json()).expect("own output parses");
        prop_assert_eq!(parsed, file);
    }

    /// Truncating a valid file anywhere yields `Err` or a shorter parse —
    /// never a panic. (The JSON is pure ASCII, so every byte offset is a
    /// valid slice point.)
    #[test]
    fn truncated_input_never_panics(file in arb_file(), cut_permille in 0usize..1000) {
        let json = file.to_json();
        let cut = json.len() * cut_permille / 1000;
        let _ = BenchFile::from_json(&json[..cut]);
    }
}

/// Exhaustive version of the truncation property on a representative file:
/// every prefix, byte by byte.
#[test]
fn every_prefix_of_a_valid_file_is_handled() {
    let file = BenchFile {
        git_sha: "443d5509dd26".to_string(),
        quick: true,
        jobs: 8,
        shards: 2,
        result_cache: 0,
        benchmarks: vec![
            BenchRecord {
                name: "cyclesim/fig4_p8_8KB_skip".to_string(),
                median_ns: 45_012.3,
            },
            BenchRecord {
                name: "kernel/fig6_phm".to_string(),
                median_ns: 7.5,
            },
        ],
    };
    let json = file.to_json();
    for cut in 0..json.len() {
        // Must return (Ok or Err), not panic; and the full text must parse.
        let _ = BenchFile::from_json(&json[..cut]);
    }
    assert_eq!(BenchFile::from_json(&json).expect("full file"), file);
}

#[test]
fn malformed_fields_are_errors_not_panics() {
    let valid = BenchFile {
        git_sha: "abc123".to_string(),
        quick: false,
        jobs: 4,
        shards: 0,
        result_cache: 1,
        benchmarks: vec![BenchRecord {
            name: "cyclesim/x".to_string(),
            median_ns: 10.0,
        }],
    }
    .to_json();

    // Whole-file garbage.
    for text in ["", "{", "{]", "not json at all", "\u{7b}\"git_sha\": 3}"] {
        assert!(BenchFile::from_json(text).is_err(), "accepted {text:?}");
    }
    // Dropped or corrupted required fields.
    let cases = [
        ("\"git_sha\"", "\"sha_git\""),                 // missing git_sha
        ("\"quick\": false", "\"quick\": maybe"),       // non-boolean quick
        ("\"median_ns\": 10.0", "\"median_ns\": fast"), // non-numeric median
        ("\"name\": \"cyclesim/x\"", "\"label\": \"cyclesim/x\""), // missing name
        ("\"jobs\": 4", "\"jobs\": plenty"),            // non-numeric jobs
        ("\"shards\": 0", "\"shards\": -2"),            // negative shards
    ];
    for (from, to) in cases {
        let text = valid.replace(from, to);
        assert_ne!(text, valid, "replacement {from:?} did not apply");
        assert!(
            BenchFile::from_json(&text).is_err(),
            "accepted corruption {from:?} -> {to:?}"
        );
    }
}

/// A git_sha of literally `quick` must not shadow the quick field.
#[test]
fn quick_flag_survives_a_confusing_sha() {
    for quick in [false, true] {
        let file = BenchFile {
            git_sha: "quick".to_string(),
            quick,
            jobs: 1,
            shards: 0,
            result_cache: 0,
            benchmarks: Vec::new(),
        };
        let parsed = BenchFile::from_json(&file.to_json()).expect("parse");
        assert_eq!(parsed, file);
    }
}
