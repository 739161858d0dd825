//! Robustness of the text parsers every tool reads input with: the JSON
//! reader, batch specs, BENCH snapshots and fault specs.
//!
//! A seeded byte-mutation fuzzer over the committed JSON files must get
//! an `Ok` or a typed error from every parser on every input, never a
//! panic; a failing case prints the seed that replays it. Inputs nested
//! far deeper than any stack must fail with the reader's depth error,
//! in the library and through `qtenon batch`, instead of aborting.

use std::path::PathBuf;
use std::process::Command;

use qtenon::core::jobs::{BatchSpec, JobError};
use qtenon::sim_engine::check::{check, draw_u64};
use qtenon::sim_engine::json;
use qtenon::sim_engine::rng::{Rng, StdRng};
use qtenon::sim_engine::FaultPlan;
use qtenon_bench::distill::{distill_metrics, BenchSnapshot};

/// Nesting that overflowed the main thread's stack before the reader
/// bounded it.
const DEEP: usize = 200_000;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed JSON inputs (batch specs and BENCH snapshots), one
/// document with the rest of the JSON grammar, and fault specs.
fn corpus() -> Vec<String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for (dir, prefix) in [(root().join("examples"), ""), (root(), "BENCH_")] {
        for entry in std::fs::read_dir(dir).expect("list corpus dir") {
            let path = entry.expect("corpus entry").path();
            let name = path.file_name().unwrap().to_string_lossy();
            if name.starts_with(prefix) && name.ends_with(".json") {
                files.push(path);
            }
        }
    }
    files.sort();
    assert!(files.len() >= 5, "corpus too small: {files:?}");
    let mut texts: Vec<String> = files
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("read corpus file"))
        .collect();
    // Grammar the committed files never use: every escape, exponents,
    // signs, literals and empty containers.
    texts.push(
        r#"{"s": "q\"b\\s\/\b\f\n\r\t\u00e9\u0041", "n": [-0.5e-3, 1E+2, 0, true, false, null, [], {}]}"#
            .to_string(),
    );
    texts.extend(
        ["all=0.02,max_attempts=8", "bus_drop=0.1\nseed=7", "all=0"]
            .iter()
            .map(|s| s.to_string()),
    );
    texts
}

/// Byte fragments that steer mutations toward the parsers' edge cases.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "[", "]", "{", "}", "\"", "\\", ":", ",", "\\u", "\\ud800", "-", "1e999", ".", "0",
    "18446744073709551615", "18446744073709551616", "9007199254740993", "null", "true",
    "=", "\n", "\t", "\u{0}", "é", "all", "max_attempts", "seed", "jobs",
];

fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..draw_u64(rng, 1..=8) {
        let at = draw_u64(rng, 0..=bytes.len() as u64) as usize;
        match rng.next_u32() % 6 {
            0 if at < bytes.len() => bytes[at] = rng.next_u32() as u8,
            1 => bytes.insert(at, rng.next_u32() as u8),
            2 => {
                let end = (at + draw_u64(rng, 0..=16) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let end = (at + draw_u64(rng, 0..=32) as usize).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            4 => bytes.truncate(at),
            _ => {
                let token = TOKENS[rng.next_u32() as usize % TOKENS.len()];
                bytes.splice(at..at, token.bytes());
            }
        }
    }
    bytes
}

/// Every parser returns on `input`: a panic fails the calling test.
fn parse_everything(input: &str) {
    if let Err(e) = json::parse(input) {
        assert!(e.offset <= input.len(), "{e} past the end");
    }
    if let Err(e) = BatchSpec::from_json(input) {
        assert!(matches!(e, JobError::Spec { .. }), "{e:?}");
    }
    let _ = BenchSnapshot::from_json(input);
    let _ = FaultPlan::parse(input);
    // Any string survives escape-then-parse unchanged.
    let quoted = format!("\"{}\"", json::escape(input));
    assert_eq!(
        json::parse(&quoted).map(|v| v.as_str().map(str::to_owned)),
        Ok(Some(input.to_owned()))
    );
}

#[test]
fn parsers_return_ok_or_typed_errors_on_mutated_inputs() {
    let corpus = corpus();
    // The unmutated JSON seeds parse.
    for text in &corpus[..corpus.len() - 3] {
        json::parse(text).expect("committed JSON parses");
    }
    check(4000, 0x5EED_F022, |rng| {
        let seed = &corpus[rng.next_u32() as usize % corpus.len()];
        parse_everything(&String::from_utf8_lossy(&mutate(rng, seed.as_bytes())));
    });
}

#[test]
fn parsers_return_on_every_prefix_of_the_corpus() {
    for text in corpus() {
        for end in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
            parse_everything(&text[..end]);
        }
    }
}

fn deep_json() -> String {
    format!("{{\"jobs\": {}", "[".repeat(DEEP))
}

#[test]
fn deeply_nested_input_is_a_typed_error_in_both_readers() {
    let deep = deep_json();
    match BatchSpec::from_json(&deep) {
        Err(JobError::Spec { reason }) => assert!(reason.contains("nesting"), "{reason}"),
        other => panic!("expected a spec error, got {other:?}"),
    }
    let err = distill_metrics(&deep, "x", "profile.").unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let err = BenchSnapshot::from_json(&deep).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
}

#[test]
fn qtenon_batch_rejects_deeply_nested_spec_without_aborting() {
    let dir = std::env::temp_dir().join(format!("qtenon-parsers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, deep_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_qtenon"))
        .args(["batch", "--jobs"])
        .arg(&path)
        .output()
        .expect("spawn qtenon");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Exit 1 with a message, not a signal from a stack overflow.
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");
}

#[test]
fn explicit_seeds_are_exact_up_to_u64_max() {
    // Neither seed survives a trip through f64; each must run as written.
    for seed in [u64::MAX - 1, (1 << 53) + 1] {
        let text = format!(
            r#"{{"jobs": [{{"name": "s", "workload": "vqe", "qubits": 8,
                "iterations": 1, "shots": 24, "seed": {seed}}}]}}"#
        );
        let spec = BatchSpec::from_json(&text).unwrap();
        assert_eq!(spec.jobs[0].seed, Some(seed));
        let ledger = spec.into_scheduler().unwrap().run(1).unwrap().ledger();
        let row = ledger.lines().nth(1).expect("one job row");
        assert_eq!(row.split('\t').nth(2), Some(seed.to_string().as_str()));
    }
    // One past u64::MAX is a typed error naming the field.
    let err = BatchSpec::from_json(r#"{"jobs": [{"seed": 18446744073709551616}]}"#).unwrap_err();
    assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("seed")));
}
