//! Golden-file snapshot tests for the experiments telemetry export — the
//! JSON artefact `qtenon --metrics` and `experiments --metrics` write.
//!
//! Goldens live in `tests/golden/`. A missing golden is bootstrapped from
//! the current output on first run; after an intentional schema or model
//! change, regenerate with `UPDATE_GOLDEN=1 cargo test -p qtenon --test
//! golden` (see README). The determinism assertions (serial vs sharded)
//! run unconditionally — they never depend on the files.

use std::path::PathBuf;

use qtenon_bench::experiments::{telemetry_snapshot, telemetry_snapshot_exact, ExperimentScale};
use qtenon_sim_engine::{json, MetricValue, MetricsSnapshot};

/// A fixed tiny scale so golden bytes are stable and cheap to produce.
fn golden_scale() -> ExperimentScale {
    ExperimentScale {
        iterations: 1,
        shots: 64,
        qubit_sweep: vec![8],
        scaling_sweep: vec![8],
        seed: 7,
        threads: 1,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the stored golden. Bootstraps a missing
/// golden and rewrites it under `UPDATE_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    if update || !path.exists() {
        std::fs::create_dir_all(path.parent().expect("golden dir has parent"))
            .expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("golden {name}: wrote {} bytes", actual.len());
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        expected == actual,
        "golden {name} is stale ({}); regenerate with UPDATE_GOLDEN=1 after verifying the change",
        differences(&expected, actual)
    );
}

/// Names what differs between two goldens: the metric paths of two
/// metrics dumps, else the first differing line.
fn differences(expected: &str, actual: &str) -> String {
    let metrics = |text: &str| {
        let doc = json::parse(text).ok()?;
        Some(doc.get("metrics")?.as_object()?.to_vec())
    };
    if let (Some(old), Some(new)) = (metrics(expected), metrics(actual)) {
        let value = |tree: &[(String, json::Value)], key: &str| {
            tree.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };
        let mut keys: Vec<&str> = old.iter().chain(&new).map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|k| value(&old, k) != value(&new, k));
        return format!("metrics differ at {}", keys.join(", "));
    }
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    format!("first difference at line {}", line + 1)
}

#[test]
fn metrics_schema_matches_golden() {
    let snapshot = telemetry_snapshot(&golden_scale());
    let mut schema = String::new();
    for (path, value) in &snapshot.metrics {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        schema.push_str(path);
        schema.push(' ');
        schema.push_str(kind);
        schema.push('\n');
    }
    // The parallel engine's shard metrics are part of the schema.
    assert!(
        schema.contains("core.parallel.shots_sampled counter"),
        "shard counter missing from schema:\n{schema}"
    );
    assert!(
        schema.contains("core.parallel.ones_per_shot histogram"),
        "shard histogram missing from schema:\n{schema}"
    );
    check_golden("metrics_schema.txt", &schema);
}

/// The metric tree minus the `quantum.fuse.*` accounting counters — the
/// only entries allowed to differ between fused and unfused runs.
fn strip_fuse_counters(s: &MetricsSnapshot) -> Vec<(String, MetricValue)> {
    s.metrics
        .iter()
        .filter(|(path, _)| !path.starts_with("quantum.fuse."))
        .map(|(path, value)| (path.clone(), value.clone()))
        .collect()
}

fn fuse_counter(s: &MetricsSnapshot, path: &str) -> u64 {
    match s.metrics.iter().find(|(p, _)| p.as_str() == path) {
        Some((_, MetricValue::Counter(n))) => *n,
        other => panic!("expected counter at {path}, found {other:?}"),
    }
}

#[test]
fn fusion_is_artefact_invariant_on_the_exact_backend() {
    // 8 qubits puts the exact statevector backend — and the kernel/fusion
    // layer — on the path; >1 shard exercises sharded sampling with the
    // fusion toggle in both positions.
    let scale = golden_scale().with_threads(4);
    let (fused, fused_report) = telemetry_snapshot_exact(&scale, true);
    let (unfused, unfused_report) = telemetry_snapshot_exact(&scale, false);
    // The run artefacts (timings, costs, shots, sync traces) never depend
    // on fusion.
    assert_eq!(fused_report, unfused_report, "fusion changed the report");
    assert_eq!(
        strip_fuse_counters(&fused),
        strip_fuse_counters(&unfused),
        "fusion leaked beyond the quantum.fuse.* accounting counters"
    );
    // Both runs really took the intended paths.
    assert!(fuse_counter(&fused, "quantum.fuse.gates_fused") > 0);
    assert_eq!(fuse_counter(&unfused, "quantum.fuse.gates_fused"), 0);
    assert_eq!(fuse_counter(&unfused, "quantum.fuse.fused_runs"), 0);
    assert_eq!(
        fuse_counter(&fused, "quantum.fuse.gates_in"),
        fuse_counter(&unfused, "quantum.fuse.gates_in"),
        "gate accounting must not depend on the fusion toggle"
    );
    // Sharding is invariant too, in either fusion mode.
    let (fused_serial, _) = telemetry_snapshot_exact(&golden_scale(), true);
    let (unfused_serial, _) = telemetry_snapshot_exact(&golden_scale(), false);
    assert_eq!(fused_serial.to_json(), fused.to_json());
    assert_eq!(unfused_serial.to_json(), unfused.to_json());
}

#[test]
fn exact_backend_metrics_schema_matches_golden() {
    let (snapshot, _) = telemetry_snapshot_exact(&golden_scale(), true);
    let mut schema = String::new();
    for (path, value) in &snapshot.metrics {
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        schema.push_str(path);
        schema.push(' ');
        schema.push_str(kind);
        schema.push('\n');
    }
    // The kernel accounting counters are part of the exact-backend schema.
    for counter in [
        "quantum.fuse.gates_in",
        "quantum.fuse.gates_fused",
        "quantum.fuse.runs",
        "quantum.fuse.fused_runs",
        "quantum.fuse.identities_elided",
        "quantum.fuse.kernels.diag",
        "quantum.fuse.kernels.general",
        "quantum.fuse.kernels.cz",
    ] {
        assert!(
            schema.contains(&format!("{counter} counter")),
            "{counter} missing from exact-backend schema:\n{schema}"
        );
    }
    check_golden("metrics_exact_schema.txt", &schema);
}

#[test]
fn metrics_json_matches_golden_at_any_thread_count() {
    let serial = telemetry_snapshot(&golden_scale()).to_json();
    let sharded = telemetry_snapshot(&golden_scale().with_threads(4)).to_json();
    // Bitwise determinism first: the golden never depends on threads.
    assert_eq!(
        serial, sharded,
        "sharded telemetry diverged from serial telemetry"
    );
    check_golden("metrics_tiny.json", &serial);
}
