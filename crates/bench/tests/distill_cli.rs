//! `qtenon-bench distill --metrics` on hostile input: a dump nested far
//! deeper than any stack must be refused with the JSON reader's depth
//! error and exit 2, not abort on a stack overflow.

use std::process::Command;

#[test]
fn distill_rejects_deeply_nested_metrics_without_aborting() {
    let dir = std::env::temp_dir().join(format!("qtenon-bench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("deep.json");
    std::fs::write(&path, format!("{{\"metrics\": {}", "[".repeat(200_000))).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_qtenon-bench"))
        .args(["distill", "--name", "x", "--out"])
        .arg(dir.join("BENCH_x.json"))
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("spawn qtenon-bench");
    let wrote = dir.join("BENCH_x.json").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");
    assert!(!wrote, "no snapshot for a rejected dump");
}
