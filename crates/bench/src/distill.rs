//! Perf-trajectory snapshots: the `BENCH_<name>.json` schema, its
//! distillers, and the regression comparator.
//!
//! A snapshot is a small stable JSON document recording the tracked
//! medians of one benchmark family:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "name": "end_to_end",
//!   "kind": "sim",
//!   "unit": "ns",
//!   "entries": {
//!     "vqe_8_spsa": {"median_ns": 123456, "mean_ns": 123456}
//!   }
//! }
//! ```
//!
//! Two distillers feed it:
//!
//! - [`distill_sim`] runs a pinned workload suite and records
//!   **sim-time** totals — bitwise deterministic, so committed snapshots
//!   are reproducible on any machine and a drift is a real modelling
//!   change, not noise;
//! - [`distill_metrics`] extracts the `profile.*` namespace from a
//!   [`MetricsSnapshot::to_json`] dump (also deterministic sim time).
//!
//! [`compare`] diffs two snapshots and flags entries whose median grew
//! beyond a threshold (default 15%); the CI gate runs it warn-only until
//! `QTENON_BENCH_ENFORCE=1` arms the hard failure.
//!
//! [`MetricsSnapshot::to_json`]: qtenon_sim_engine::MetricsSnapshot::to_json

use std::collections::BTreeMap;

use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::vqa::VqaRunner;
use qtenon_sim_engine::json::{self, Value};
use qtenon_workloads::{Workload, WorkloadKind};

use crate::experiments::OptimizerKind;

/// Schema version stamped into every snapshot.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression threshold: medians may grow at most 15%.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// One tracked measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchEntry {
    /// Median latency in nanoseconds.
    pub median_ns: f64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
}

/// A `BENCH_<name>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Snapshot family name (`end_to_end`, `profile_vqe`, ...).
    pub name: String,
    /// Measurement source: `sim` or `profile`.
    pub kind: String,
    /// Entry id → measurement, sorted by id.
    pub entries: BTreeMap<String, BenchEntry>,
}

impl BenchSnapshot {
    /// An empty snapshot of the given family and source.
    pub fn new(name: &str, kind: &str) -> Self {
        BenchSnapshot {
            name: name.to_string(),
            kind: kind.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// Records one entry.
    pub fn record(&mut self, id: &str, median_ns: f64, mean_ns: f64) {
        self.entries
            .insert(id.to_string(), BenchEntry { median_ns, mean_ns });
    }

    /// Serialises the snapshot. Entries are id-sorted and number
    /// formatting is fixed, so equal snapshots are byte-equal files.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&self.name)));
        out.push_str(&format!("  \"kind\": \"{}\",\n", json::escape(&self.kind)));
        out.push_str("  \"unit\": \"ns\",\n");
        out.push_str("  \"entries\": {\n");
        for (i, (id, e)) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"median_ns\": {}, \"mean_ns\": {}}}{}\n",
                json::escape(id),
                format_ns(e.median_ns),
                format_ns(e.mean_ns),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a snapshot document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown schema version,
    /// or missing fields.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let schema = doc
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema version {schema}"));
        }
        let name = doc
            .get("name")
            .and_then(Value::as_str)
            .ok_or("missing \"name\"")?
            .to_string();
        let kind = doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("missing \"kind\"")?
            .to_string();
        let mut entries = BTreeMap::new();
        for (id, entry) in doc
            .get("entries")
            .and_then(Value::as_object)
            .ok_or("missing \"entries\"")?
        {
            let median_ns = entry
                .get("median_ns")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("entry {id:?} missing \"median_ns\""))?;
            let mean_ns = entry
                .get("mean_ns")
                .and_then(Value::as_f64)
                .unwrap_or(median_ns);
            entries.insert(id.clone(), BenchEntry { median_ns, mean_ns });
        }
        Ok(BenchSnapshot {
            name,
            kind,
            entries,
        })
    }
}

/// Formats a non-negative nanosecond quantity for a snapshot file:
/// integers stay integers, fractional values keep three decimals. The
/// fixed rule makes re-distilled snapshots byte-stable.
fn format_ns(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9_007_199_254_740_992.0 {
        format!("{}", value as i64)
    } else {
        format!("{value:.3}")
    }
}

/// The pinned deterministic suites [`distill_sim`] knows how to run.
pub const SIM_SUITES: &[&str] = &["end_to_end", "profile_vqe"];

// The suites pin their own scale instead of borrowing
// `ExperimentScale::quick()`: retuning the quick experiments must never
// silently shift the committed perf trajectory.
const PIN_ITERATIONS: usize = 2;
const PIN_SHOTS: u64 = 100;
const PIN_SEED: u64 = 42;

fn pinned_run(kind: WorkloadKind, n: u32, opt: OptimizerKind) -> qtenon_core::report::RunReport {
    let config = QtenonConfig::table4(n, CoreModel::Rocket)
        .expect("valid config")
        .with_seed(PIN_SEED);
    let workload = Workload::benchmark(kind, n, PIN_SEED).expect("valid workload");
    let mut runner = VqaRunner::new(config, workload).expect("runner builds");
    let mut optimizer = opt.build(PIN_SEED);
    runner
        .run(optimizer.as_mut(), PIN_ITERATIONS, PIN_SHOTS)
        .expect("pinned run succeeds")
}

/// Runs a pinned simulation suite and distils its deterministic
/// sim-time measurements. Returns `None` for an unknown suite name
/// (see [`SIM_SUITES`]).
pub fn distill_sim(suite: &str) -> Option<BenchSnapshot> {
    match suite {
        "end_to_end" => {
            // Hybrid-loop total latency across the workload mix. A single
            // deterministic run has no distribution: median == mean.
            let mut snap = BenchSnapshot::new("end_to_end", "sim");
            for (id, kind, n, opt) in [
                ("vqe_8_spsa", WorkloadKind::Vqe, 8, OptimizerKind::Spsa),
                ("qaoa_8_spsa", WorkloadKind::Qaoa, 8, OptimizerKind::Spsa),
                ("qnn_8_spsa", WorkloadKind::Qnn, 8, OptimizerKind::Spsa),
                ("vqe_16_gd", WorkloadKind::Vqe, 16, OptimizerKind::Gd),
            ] {
                let report = pinned_run(kind, n, opt);
                let total_ns = (report.total.as_ps() / 1_000) as f64;
                snap.record(id, total_ns, total_ns);
            }
            Some(snap)
        }
        "profile_vqe" => {
            // Per-phase attribution of the representative VQE: median is
            // the phase histogram's p50, mean is total/count.
            let report = pinned_run(WorkloadKind::Vqe, 8, OptimizerKind::Spsa);
            let mut snap = BenchSnapshot::new("profile_vqe", "profile");
            for row in &report.phases.rows {
                if row.count == 0 {
                    continue;
                }
                let median = row.hist.p50().unwrap_or(0) as f64;
                let mean = row.total_ns as f64 / row.count as f64;
                snap.record(&row.name, median, mean);
            }
            Some(snap)
        }
        _ => None,
    }
}

/// Distils the `profile.*` namespace of a [`MetricsSnapshot::to_json`]
/// dump: histograms contribute their p50/mean, counters their value.
///
/// # Errors
///
/// Returns a message for malformed JSON or a missing `metrics` object.
///
/// [`MetricsSnapshot::to_json`]: qtenon_sim_engine::MetricsSnapshot::to_json
pub fn distill_metrics(text: &str, name: &str, prefix: &str) -> Result<BenchSnapshot, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("missing \"metrics\" object")?;
    let mut snap = BenchSnapshot::new(name, "profile");
    for (path, value) in metrics {
        if !path.starts_with(prefix) {
            continue;
        }
        match value.get("type").and_then(Value::as_str) {
            Some("histogram") => {
                let p50 = value.get("p50").and_then(Value::as_f64).unwrap_or(0.0);
                let count = value.get("count").and_then(Value::as_f64).unwrap_or(0.0);
                let sum = value.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                snap.record(path, p50, mean);
            }
            Some("counter") | Some("gauge") => {
                let v = value.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                snap.record(path, v, v);
            }
            _ => return Err(format!("metric {path:?} has no recognised type")),
        }
    }
    Ok(snap)
}

/// One entry's baseline-to-current movement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Entry id.
    pub id: String,
    /// Baseline median in nanoseconds.
    pub baseline_ns: f64,
    /// Current median in nanoseconds.
    pub current_ns: f64,
    /// `current / baseline` (infinite when the baseline is zero).
    pub ratio: f64,
}

/// The outcome of comparing a current snapshot against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Entries whose median grew beyond the threshold.
    pub regressions: Vec<Delta>,
    /// Entries whose median shrank beyond the threshold.
    pub improvements: Vec<Delta>,
    /// Entries within the threshold band.
    pub stable: usize,
    /// Baseline entries absent from the current snapshot.
    pub missing: Vec<String>,
    /// Current entries absent from the baseline.
    pub added: Vec<String>,
}

impl CompareReport {
    /// Whether the gate should fail under enforcement: a regression or
    /// a tracked entry that disappeared.
    pub fn gate_failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }

    /// Renders the comparison as a human-readable report.
    pub fn render(&self, threshold: f64) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!(
                "REGRESSION  {}: median {} ns -> {} ns ({:+.1}%)\n",
                d.id,
                format_ns(d.baseline_ns),
                format_ns(d.current_ns),
                (d.ratio - 1.0) * 100.0
            ));
        }
        for id in &self.missing {
            out.push_str(&format!("MISSING     {id}: tracked entry disappeared\n"));
        }
        for d in &self.improvements {
            out.push_str(&format!(
                "improvement {}: median {} ns -> {} ns ({:+.1}%)\n",
                d.id,
                format_ns(d.baseline_ns),
                format_ns(d.current_ns),
                (d.ratio - 1.0) * 100.0
            ));
        }
        for id in &self.added {
            out.push_str(&format!("added       {id}\n"));
        }
        out.push_str(&format!(
            "{} regression(s), {} missing, {} improvement(s), {} stable, {} added (threshold {:.0}%)\n",
            self.regressions.len(),
            self.missing.len(),
            self.improvements.len(),
            self.stable,
            self.added.len(),
            threshold * 100.0
        ));
        out
    }
}

/// Compares tracked medians: an entry regresses when its current median
/// exceeds `baseline * (1 + threshold)`.
pub fn compare(baseline: &BenchSnapshot, current: &BenchSnapshot, threshold: f64) -> CompareReport {
    let mut report = CompareReport::default();
    for (id, base) in &baseline.entries {
        let Some(cur) = current.entries.get(id) else {
            report.missing.push(id.clone());
            continue;
        };
        let ratio = if base.median_ns > 0.0 {
            cur.median_ns / base.median_ns
        } else if cur.median_ns > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        let delta = Delta {
            id: id.clone(),
            baseline_ns: base.median_ns,
            current_ns: cur.median_ns,
            ratio,
        };
        if ratio > 1.0 + threshold {
            report.regressions.push(delta);
        } else if ratio < 1.0 - threshold {
            report.improvements.push(delta);
        } else {
            report.stable += 1;
        }
    }
    for id in current.entries.keys() {
        if !baseline.entries.contains_key(id) {
            report.added.push(id.clone());
        }
    }
    report
}

/// Whether a `compare` run should hard-fail instead of warn: `--enforce`
/// appears among the CLI args, or the value of `QTENON_BENCH_ENFORCE`
/// (read by the caller and passed in, so this stays testable without
/// mutating process state) is exactly `"1"`.
pub fn enforce_enabled(args: &[String], enforce_env: Option<&str>) -> bool {
    args.iter().any(|a| a == "--enforce") || enforce_env == Some("1")
}

/// Process exit code for a `compare` run: 1 when the gate failed under
/// enforcement, 0 otherwise (regressions downgrade to warnings).
pub fn compare_exit_code(report: &CompareReport, enforce: bool) -> i32 {
    i32::from(report.gate_failed() && enforce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_sim_engine::MetricsRegistry;

    fn snap(entries: &[(&str, f64)]) -> BenchSnapshot {
        let mut s = BenchSnapshot::new("test", "sim");
        for (id, v) in entries {
            s.record(id, *v, *v);
        }
        s
    }

    #[test]
    fn format_ns_is_stable() {
        assert_eq!(format_ns(1500.0), "1500");
        assert_eq!(format_ns(0.0), "0");
        assert_eq!(format_ns(1234.5), "1234.500");
        assert_eq!(format_ns(0.03125), "0.031");
    }

    #[test]
    fn snapshot_roundtrips_byte_stable() {
        let mut s = BenchSnapshot::new("end_to_end", "sim");
        s.record("b", 1234.5, 1300.25);
        s.record("a", 10.0, 10.0);
        let text = s.to_json();
        let parsed = BenchSnapshot::from_json(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json(), text);
        // id-sorted output regardless of insertion order
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(BenchSnapshot::from_json("{}").is_err());
        assert!(BenchSnapshot::from_json("not json").is_err());
        let wrong_schema = r#"{"schema": 2, "name": "x", "kind": "sim", "entries": {}}"#;
        assert!(BenchSnapshot::from_json(wrong_schema)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn compare_classifies_movement() {
        let base = snap(&[
            ("slow", 100.0),
            ("fast", 100.0),
            ("same", 100.0),
            ("gone", 5.0),
        ]);
        let cur = snap(&[
            ("slow", 120.0),
            ("fast", 80.0),
            ("same", 105.0),
            ("new", 1.0),
        ]);
        let report = compare(&base, &cur, 0.15);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].id, "slow");
        assert!((report.regressions[0].ratio - 1.2).abs() < 1e-9);
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].id, "fast");
        assert_eq!(report.stable, 1);
        assert_eq!(report.missing, vec!["gone".to_string()]);
        assert_eq!(report.added, vec!["new".to_string()]);
        assert!(report.gate_failed());
        let rendered = report.render(0.15);
        assert!(rendered.contains("REGRESSION  slow"));
        assert!(rendered.contains("1 regression(s), 1 missing"));
    }

    #[test]
    fn compare_within_threshold_passes() {
        let base = snap(&[("a", 100.0), ("zero", 0.0)]);
        let cur = snap(&[("a", 114.0), ("zero", 0.0)]);
        let report = compare(&base, &cur, 0.15);
        assert!(!report.gate_failed());
        assert_eq!(report.stable, 2);
    }

    #[test]
    fn zero_baseline_with_nonzero_current_regresses() {
        let report = compare(&snap(&[("a", 0.0)]), &snap(&[("a", 1.0)]), 0.15);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].ratio.is_infinite());
    }

    #[test]
    fn enforce_gate_exits_nonzero_on_synthetic_regression() {
        // A synthetic 2x regression must fail the gate, and the exit
        // code must flip to 1 exactly when enforcement is on — via
        // --enforce or QTENON_BENCH_ENFORCE=1, never otherwise.
        let baseline = snap(&[("suite.total", 100.0)]);
        let regressed = snap(&[("suite.total", 200.0)]);
        let report = compare(&baseline, &regressed, DEFAULT_THRESHOLD);
        assert!(report.gate_failed());
        assert!(enforce_enabled(&["--enforce".to_string()], None));
        assert!(enforce_enabled(&[], Some("1")));
        assert!(!enforce_enabled(&[], Some("0")));
        assert!(!enforce_enabled(&[], None));
        assert_eq!(compare_exit_code(&report, true), 1);
        assert_eq!(compare_exit_code(&report, false), 0);
        // A clean comparison exits 0 even under enforcement.
        let clean = compare(&baseline, &baseline, DEFAULT_THRESHOLD);
        assert!(!clean.gate_failed());
        assert_eq!(compare_exit_code(&clean, true), 0);
        // A disappeared tracked entry is a gate failure too.
        let shrunk = compare(&baseline, &snap(&[]), DEFAULT_THRESHOLD);
        assert_eq!(compare_exit_code(&shrunk, true), 1);
    }

    #[test]
    fn distills_profile_namespace_from_metrics_json() {
        let mut m = MetricsRegistry::new();
        m.counter("profile.chip.execute.count", 6);
        m.counter("profile.chip.execute.sim_total_ns", 600);
        m.observe("profile.chip.execute.sim_ns", 100);
        m.counter("core.vqa.iterations", 2); // outside the prefix
        let text = m.snapshot().to_json();
        let snap = distill_metrics(&text, "profile_vqe", "profile.").unwrap();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.entries["profile.chip.execute.count"].median_ns, 6.0);
        assert_eq!(snap.entries["profile.chip.execute.sim_ns"].median_ns, 100.0);
        assert!(!snap.entries.contains_key("core.vqa.iterations"));
    }

    #[test]
    fn sim_suites_are_deterministic_and_known() {
        assert!(distill_sim("no_such_suite").is_none());
        let a = distill_sim("profile_vqe").unwrap();
        let b = distill_sim("profile_vqe").unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.entries.contains_key("vqa.quantum_execute"));
        assert!(a.entries.contains_key("chip.execute"));
    }

    #[test]
    fn end_to_end_suite_covers_workload_mix() {
        let snap = distill_sim("end_to_end").unwrap();
        assert_eq!(
            snap.entries.keys().collect::<Vec<_>>(),
            vec!["qaoa_8_spsa", "qnn_8_spsa", "vqe_16_gd", "vqe_8_spsa"]
        );
        for e in snap.entries.values() {
            assert!(e.median_ns > 0.0);
        }
    }
}
