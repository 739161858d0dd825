//! Unit tests of the job layer: scheduling, containment, the retry
//! policy and the batch spec format.

use std::time::Duration;

use qtenon_sim_engine::{stream_seed, MetricValue, MetricsRegistry, SimDuration};
use qtenon_workloads::WorkloadKind;

use super::*;
use crate::config::{CoreModel, SyncMode, TransmissionPolicy};

#[test]
fn pool_plan_splits_threads_across_jobs() {
    assert_eq!(
        PoolPlan::new(8, 4),
        PoolPlan {
            job_workers: 4,
            shard_threads: 1
        }
    );
    assert_eq!(
        PoolPlan::new(2, 8),
        PoolPlan {
            job_workers: 2,
            shard_threads: 4
        }
    );
    assert_eq!(
        PoolPlan::new(1, 8),
        PoolPlan {
            job_workers: 1,
            shard_threads: 8
        }
    );
    assert_eq!(
        PoolPlan::new(3, 4),
        PoolPlan {
            job_workers: 3,
            shard_threads: 1
        }
    );
    // Degenerate shapes clamp instead of panicking.
    assert_eq!(
        PoolPlan::new(0, 4),
        PoolPlan {
            job_workers: 1,
            shard_threads: 4
        }
    );
    assert_eq!(
        PoolPlan::new(5, 0),
        PoolPlan {
            job_workers: 1,
            shard_threads: 1
        }
    );
}

#[test]
fn schedule_order_is_priority_then_fifo() {
    let mut sched = BatchScheduler::new(1);
    for (name, priority) in [("a", 0u8), ("b", 5), ("c", 5), ("d", 1)] {
        sched
            .submit(JobSpec::new(name, WorkloadKind::Vqe, 8).with_priority(priority))
            .unwrap();
    }
    assert_eq!(sched.schedule_order(), vec![1, 2, 3, 0]);
}

#[test]
fn bounded_queue_rejects_with_typed_error() {
    let mut sched = BatchScheduler::with_capacity(1, 2);
    sched
        .submit(JobSpec::new("a", WorkloadKind::Vqe, 8))
        .unwrap();
    sched
        .submit(JobSpec::new("b", WorkloadKind::Vqe, 8))
        .unwrap();
    let err = sched
        .submit(JobSpec::new("c", WorkloadKind::Vqe, 8))
        .unwrap_err();
    assert_eq!(err, JobError::QueueFull { capacity: 2 });
    assert_eq!(sched.rejected(), 1);
    assert_eq!(sched.len(), 2);
}

#[test]
fn seeds_fixed_at_admission() {
    let mut sched = BatchScheduler::new(0xFEED);
    let a = sched
        .submit(JobSpec::new("a", WorkloadKind::Vqe, 8))
        .unwrap();
    let b = sched
        .submit(JobSpec::new("b", WorkloadKind::Vqe, 8).with_seed(7))
        .unwrap();
    assert_eq!(sched.seed_of(a), Some(stream_seed(0xFEED, 0)));
    assert_eq!(sched.seed_of(b), Some(7));
}

#[test]
fn empty_batch_is_typed_error() {
    let sched = BatchScheduler::new(1);
    assert_eq!(sched.run(4).unwrap_err(), JobError::EmptyBatch);
}

#[test]
fn batch_runs_in_canonical_order_with_stable_artifacts() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(
            JobSpec::new("low", WorkloadKind::Vqe, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
    sched
        .submit(
            JobSpec::new("high", WorkloadKind::Qaoa, 8)
                .with_iterations(1)
                .with_shots(24)
                .with_priority(9),
        )
        .unwrap();
    let batch = sched.run(2).unwrap();
    // Canonical submission order despite "high" being scheduled first.
    assert_eq!(batch.results[0].name, "low");
    assert_eq!(batch.results[1].name, "high");
    assert_eq!(batch.completed(), 2);
    assert_eq!(batch.failed(), 0);
    for result in &batch.results {
        let standalone =
            run_standalone(&sched.queue[result.id.index()].spec, result.seed, 1).unwrap();
        let fleet = result.outcome.artifacts().unwrap();
        assert_eq!(fleet.report, standalone.report);
        assert_eq!(fleet.metrics_json, standalone.metrics_json);
    }
}

#[test]
fn failing_job_does_not_poison_the_batch() {
    let mut sched = BatchScheduler::new(42);
    // 0 qubits cannot build a layout: execution fails with a typed
    // error in its slot.
    sched
        .submit(JobSpec::new("bad", WorkloadKind::Vqe, 0))
        .unwrap();
    sched
        .submit(
            JobSpec::new("good", WorkloadKind::Vqe, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
    let batch = sched.run(2).unwrap();
    assert_eq!(batch.completed(), 1);
    assert_eq!(batch.failed(), 1);
    // A config failure is permanent: it fails in one attempt even
    // though nothing forbids a retry budget on the spec.
    assert!(matches!(
        batch.results[0].outcome,
        JobOutcome::Failed {
            error: JobError::Execution { .. },
            attempts: 1
        }
    ));
    assert!(batch.results[1].outcome.is_completed());
}

#[test]
fn panicking_job_is_quarantined_not_fatal() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(JobSpec::new("poison", WorkloadKind::Vqe, 8).with_chaos_panic())
        .unwrap();
    sched
        .submit(
            JobSpec::new("healthy", WorkloadKind::Qaoa, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
    let batch = sched.run(2).unwrap();
    assert_eq!(batch.completed(), 1);
    assert_eq!(batch.quarantined(), 1);
    match &batch.results[0].outcome {
        JobOutcome::Quarantined { reason, attempts } => {
            assert!(reason.contains("panic"), "{reason}");
            assert!(reason.contains("poison"), "{reason}");
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    // The healthy neighbour is byte-identical to standalone.
    let standalone = run_standalone(&sched.queue[1].spec, batch.results[1].seed, 1).unwrap();
    assert_eq!(batch.results[1].outcome.artifacts(), Some(&standalone));
}

#[test]
fn scripted_transient_failures_recover_within_budget() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(
            JobSpec::new("flaky", WorkloadKind::Qaoa, 8)
                .with_iterations(1)
                .with_shots(24)
                .with_chaos_fail_attempts(2)
                .with_retry_budget(3),
        )
        .unwrap();
    let batch = sched.run(1).unwrap();
    match &batch.results[0].outcome {
        JobOutcome::Completed { attempts, .. } => assert_eq!(*attempts, 3),
        other => panic!("expected recovery on attempt 2, got {other:?}"),
    }
    assert_eq!(batch.total_retries(), 2);
    // The recovered attempt ran with the attempt-2 seed stream.
    let spec = &sched.queue[0].spec;
    let job_seed = sched.seed_of(JobId::from_index(0)).unwrap();
    let mut bare = spec.clone();
    bare.chaos_fail_attempts = 0;
    let reference = run_standalone(&bare, attempt_seed(job_seed, 2), 1).unwrap();
    assert_eq!(batch.results[0].outcome.artifacts(), Some(&reference));
}

#[test]
fn budget_exhaustion_quarantines_with_attribution() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(
            JobSpec::new("doomed", WorkloadKind::Qaoa, 8)
                .with_chaos_fail_attempts(u32::MAX)
                .with_retry_budget(2),
        )
        .unwrap();
    let batch = sched.run(4).unwrap();
    match &batch.results[0].outcome {
        JobOutcome::Quarantined { reason, attempts } => {
            assert_eq!(*attempts, 3, "budget 2 = 1 initial + 2 retries");
            assert!(reason.contains("retry budget"), "{reason}");
            assert!(reason.contains("doomed"), "{reason}");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
}

#[test]
fn retry_decision_is_pure_and_matches_the_state_machine() {
    let spec = JobSpec::new("j", WorkloadKind::Vqe, 8).with_retry_budget(2);
    let transient = || AttemptOutcome::Errored {
        error: JobError::Execution {
            job: "j".into(),
            reason: "boom".into(),
        },
        permanent: false,
    };
    // Transient failures retry with geometric backoff...
    assert_eq!(
        retry_decision(&spec, 0, transient()),
        RetryDecision::Retry {
            next_attempt: 1,
            backoff_slots: 1
        }
    );
    assert_eq!(
        retry_decision(&spec, 1, transient()),
        RetryDecision::Retry {
            next_attempt: 2,
            backoff_slots: 2
        }
    );
    // ...until the budget runs out: quarantined with attribution.
    assert!(matches!(
        retry_decision(&spec, 2, transient()),
        RetryDecision::Final(o) if matches!(*o, JobOutcome::Quarantined { attempts: 3, .. })
    ));
    // Zero budget keeps the pre-containment shape: Failed, 1 attempt.
    let legacy = JobSpec::new("j", WorkloadKind::Vqe, 8);
    assert!(matches!(
        retry_decision(&legacy, 0, transient()),
        RetryDecision::Final(o) if matches!(*o, JobOutcome::Failed { attempts: 1, .. })
    ));
    // Permanent errors never retry, budget or not.
    assert!(matches!(
        retry_decision(
            &spec,
            0,
            AttemptOutcome::Errored {
                error: JobError::Execution {
                    job: "j".into(),
                    reason: "bad config".into()
                },
                permanent: true
            }
        ),
        RetryDecision::Final(o) if matches!(*o, JobOutcome::Failed { attempts: 1, .. })
    ));
    // Panics quarantine immediately.
    assert!(matches!(
        retry_decision(
            &spec,
            0,
            AttemptOutcome::Panicked {
                message: "ouch".into()
            }
        ),
        RetryDecision::Final(o) if matches!(*o, JobOutcome::Quarantined { attempts: 1, .. })
    ));
}

#[test]
fn attempt_seed_is_admission_seed_first_then_streamed() {
    assert_eq!(attempt_seed(0xABCD, 0), 0xABCD);
    assert_eq!(attempt_seed(0xABCD, 1), stream_seed(0xABCD, 1));
    assert_eq!(attempt_seed(0xABCD, 3), stream_seed(0xABCD, 3));
    assert_ne!(attempt_seed(0xABCD, 1), attempt_seed(0xABCD, 2));
}

#[test]
fn every_attempt_contains_panics() {
    let poison = JobSpec::new("poison", WorkloadKind::Vqe, 8).with_chaos_panic();
    match run_attempt(&poison, 1, 0, 1, None) {
        AttemptOutcome::Panicked { message } => assert!(message.contains("poison"), "{message}"),
        other => panic!("expected a contained panic, got {other:?}"),
    }
    // The standalone reference path reports it as a typed error.
    match run_standalone(&poison, 1, 1) {
        Err(JobError::Execution { reason, .. }) => assert!(reason.starts_with("panicked: ")),
        other => panic!("expected an execution error, got {other:?}"),
    }
}

#[test]
fn ledger_is_deterministic_across_pool_widths() {
    let fleet = || {
        let mut sched = BatchScheduler::new(7);
        sched
            .submit(
                JobSpec::new("a", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        sched
            .submit(JobSpec::new("b", WorkloadKind::Qaoa, 8).with_chaos_panic())
            .unwrap();
        sched
            .submit(
                JobSpec::new("c", WorkloadKind::Qnn, 8)
                    .with_iterations(1)
                    .with_shots(24)
                    .with_chaos_fail_attempts(1)
                    .with_retry_budget(2)
                    .with_priority(5),
            )
            .unwrap();
        sched
    };
    let serial = fleet().run(1).unwrap().ledger();
    let pooled = fleet().run(4).unwrap().ledger();
    assert_eq!(serial, pooled, "ledger must not depend on pool width");
    assert!(serial.contains("quarantined"));
    assert!(serial.contains("completed"));
}

#[test]
fn empty_report_renders_fixed_placeholder_ledger() {
    let report = BatchReport {
        results: Vec::new(),
        pool: PoolPlan::new(0, 1),
        wall: Duration::ZERO,
        rejected: 0,
        cache_stats: None,
    };
    assert_eq!(report.ledger(), BatchReport::empty_ledger());
    assert_eq!(report.ledger(), "job ledger: no jobs\n");
    // Throughput of an empty batch is 0, never NaN.
    assert_eq!(report.jobs_per_second(), 0.0);
}

#[test]
fn cached_fleet_artefacts_are_byte_identical_to_uncached_at_every_width() {
    // Four jobs sharing one explicit seed → identical circuits, so
    // the cache serves three of the four compiles. Artefacts must
    // still match the cache-free serial reference bit for bit.
    let fleet = |cache: bool, threads: usize| {
        let mut sched = BatchScheduler::new(9).with_cache(cache);
        for i in 0..4 {
            sched
                .submit(
                    JobSpec::new(&format!("j{i}"), WorkloadKind::Vqe, 8)
                        .with_iterations(1)
                        .with_shots(24)
                        .with_seed(77),
                )
                .unwrap();
        }
        sched.run(threads).unwrap()
    };
    let reference = fleet(false, 1);
    assert!(reference.cache_stats.is_none());
    for threads in [1, 2, 8] {
        let cached = fleet(true, threads);
        assert_eq!(cached.failed(), 0);
        for (a, b) in reference.results.iter().zip(&cached.results) {
            let cold = a.outcome.artifacts().unwrap();
            let hit = b.outcome.artifacts().unwrap();
            assert_eq!(cold.report, hit.report, "width {threads}");
            assert_eq!(cold.metrics_json, hit.metrics_json, "width {threads}");
        }
        let stats = cached.cache_stats.expect("cached batch reports stats");
        // One program lookup per job always; the hit/miss split is
        // only deterministic serially (concurrent duplicates can
        // race to a miss; first-writer-wins keeps them identical).
        assert_eq!(
            stats.program_hits + stats.program_misses,
            4,
            "width {threads}"
        );
        assert!(stats.program_misses >= 1, "width {threads}");
        if threads == 1 {
            assert_eq!(stats.program_hits, 3);
            assert_eq!(stats.program_misses, 1);
            assert!(stats.pulse_hits > 0);
        }
    }
}

#[test]
fn ledger_attribution_is_cold_shared_off_and_width_invariant() {
    let fleet = |threads: usize| {
        let mut sched = BatchScheduler::new(3).with_cache(true);
        // Two duplicates (same seed → same circuit), one distinct,
        // one opted out.
        for name in ["dup-a", "dup-b"] {
            sched
                .submit(
                    JobSpec::new(name, WorkloadKind::Vqe, 8)
                        .with_iterations(1)
                        .with_shots(24)
                        .with_seed(5),
                )
                .unwrap();
        }
        sched
            .submit(
                JobSpec::new("lone", WorkloadKind::Qnn, 8)
                    .with_iterations(1)
                    .with_shots(24),
            )
            .unwrap();
        sched
            .submit(
                JobSpec::new("optout", WorkloadKind::Vqe, 8)
                    .with_iterations(1)
                    .with_shots(24)
                    .with_seed(5)
                    .with_cache(false),
            )
            .unwrap();
        sched.run(threads).unwrap()
    };
    let serial = fleet(1);
    let labels: Vec<&str> = serial.results.iter().map(|r| r.cache).collect();
    assert_eq!(labels, ["cold", "shared", "cold", "off"]);
    assert_eq!(
        serial.ledger(),
        fleet(8).ledger(),
        "cached ledger must not depend on pool width"
    );
    assert!(serial
        .ledger()
        .starts_with("idx\tname\tseed\tprio\toutcome\tattempts\tcache\tdetail\n"));
    // With the batch cache off, every job renders "off".
    let mut off = BatchScheduler::new(3);
    off.submit(
        JobSpec::new("x", WorkloadKind::Vqe, 8)
            .with_iterations(1)
            .with_shots(24),
    )
    .unwrap();
    let off = off.run(1).unwrap();
    assert_eq!(off.results[0].cache, "off");
}

#[test]
fn cache_metrics_exported_only_when_batch_is_cached() {
    let run = |cache: bool| {
        let mut sched = BatchScheduler::new(11)
            .with_cache(cache)
            .with_cache_capacity(8);
        for i in 0..2 {
            sched
                .submit(
                    JobSpec::new(&format!("m{i}"), WorkloadKind::Vqe, 8)
                        .with_iterations(1)
                        .with_shots(24)
                        .with_seed(4),
                )
                .unwrap();
        }
        // Serial: the 1-miss-then-1-hit split is deterministic.
        let batch = sched.run(1).unwrap();
        let mut m = MetricsRegistry::new();
        batch.export_metrics(&mut m);
        m
    };
    let cached = run(true);
    assert_eq!(
        cached.get("cache.fleet.program.hits"),
        Some(&MetricValue::Counter(1))
    );
    assert_eq!(
        cached.get("cache.fleet.program.misses"),
        Some(&MetricValue::Counter(1))
    );
    assert!(cached.get("cache.fleet.hit_rate").is_some());
    let uncached = run(false);
    assert!(uncached.get("cache.fleet.program.hits").is_none());
}

#[test]
fn batch_spec_parses_cache_knobs_and_defaults_on() {
    let spec = BatchSpec::from_json(r#"{"jobs": []}"#).unwrap();
    assert!(spec.cache);
    assert_eq!(
        spec.cache_capacity,
        qtenon_compiler::cache::DEFAULT_CAPACITY
    );
    let spec = BatchSpec::from_json(
        r#"{"cache": false, "cache_capacity": 0,
            "jobs": [{"name": "a", "cache": false}]}"#,
    )
    .unwrap();
    assert!(!spec.cache);
    assert_eq!(spec.cache_capacity, 1);
    assert!(!spec.jobs[0].cache);
    let sched = spec.into_scheduler().unwrap();
    assert!(!sched.cache_enabled());
    assert!(BatchSpec::from_json(r#"{"cache": 3, "jobs": []}"#).is_err());
    assert!(BatchSpec::from_json(r#"{"jobs": [{"name": "a", "cache": "yes"}]}"#).is_err());
}

#[test]
fn resilience_metrics_cover_the_outcome_machine() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(
            JobSpec::new("ok", WorkloadKind::Vqe, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
    sched
        .submit(JobSpec::new("panic", WorkloadKind::Vqe, 8).with_chaos_panic())
        .unwrap();
    sched
        .submit(
            JobSpec::new("flaky", WorkloadKind::Qaoa, 8)
                .with_iterations(1)
                .with_shots(24)
                .with_chaos_fail_attempts(1)
                .with_retry_budget(1),
        )
        .unwrap();
    let batch = sched.run(2).unwrap();
    let mut m = MetricsRegistry::new();
    batch.export_metrics(&mut m);
    assert_eq!(
        m.get("resilience.jobs.completed"),
        Some(&MetricValue::Counter(2))
    );
    assert_eq!(
        m.get("resilience.jobs.quarantined"),
        Some(&MetricValue::Counter(1))
    );
    assert_eq!(
        m.get("resilience.jobs.retries"),
        Some(&MetricValue::Counter(1))
    );
    assert_eq!(
        m.get("resilience.jobs.timed_out"),
        Some(&MetricValue::Counter(0))
    );
    match m.get("resilience.jobs.attempts") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 3),
        other => panic!("expected histogram, got {other:?}"),
    }
    match m.get("resilience.jobs.time_to_recovery_ns") {
        Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 1),
        other => panic!("expected histogram, got {other:?}"),
    }
}

#[test]
fn fleet_metrics_live_under_jobs_namespace() {
    let mut sched = BatchScheduler::new(42);
    sched
        .submit(
            JobSpec::new("a", WorkloadKind::Vqe, 8)
                .with_iterations(1)
                .with_shots(24),
        )
        .unwrap();
    let batch = sched.run(1).unwrap();
    let mut m = MetricsRegistry::new();
    batch.export_metrics(&mut m);
    assert_eq!(m.get("jobs.submitted"), Some(&MetricValue::Counter(1)));
    assert_eq!(m.get("jobs.completed"), Some(&MetricValue::Counter(1)));
    assert_eq!(m.get("jobs.failed"), Some(&MetricValue::Counter(0)));
    assert!(m.get("jobs.wait_ns").is_some());
    assert!(m.get("jobs.turnaround_ns").is_some());
    assert!(m.get("jobs.throughput.jobs_per_s").is_some());
    assert!(batch.total_shots_sampled() > 0);
}

#[test]
fn batch_spec_parses_and_materialises_seeds() {
    let text = r#"{
        "fleet_seed": 9,
        "capacity": 4,
        "jobs": [
            {"name": "a", "workload": "vqe", "qubits": 16, "shots": 200,
             "priority": 2, "core": "boom", "optimizer": "gd",
             "sync": "fence", "transmission": "immediate"},
            {"workload": "qnn", "qubits": 8, "seed": 77,
             "faults": "all=0.01,max_attempts=8"}
        ]
    }"#;
    let spec = BatchSpec::from_json(text).unwrap();
    assert_eq!(spec.fleet_seed, 9);
    assert_eq!(spec.capacity, 4);
    assert_eq!(spec.jobs.len(), 2);
    let a = &spec.jobs[0];
    assert_eq!(a.name, "a");
    assert_eq!(a.kind, WorkloadKind::Vqe);
    assert_eq!(a.n_qubits, 16);
    assert_eq!(a.shots, 200);
    assert_eq!(a.priority, 2);
    assert_eq!(a.core, CoreModel::BoomLarge);
    assert_eq!(a.optimizer, JobOptimizer::Gd);
    assert_eq!(a.sync, SyncMode::Fence);
    assert_eq!(a.transmission, TransmissionPolicy::Immediate);
    assert_eq!(a.seed, Some(stream_seed(9, 0)));
    let b = &spec.jobs[1];
    assert_eq!(b.name, "job1");
    assert_eq!(b.kind, WorkloadKind::Qnn);
    assert_eq!(b.seed, Some(77));
    assert!(b.faults.expect("fault plan").is_active());
}

#[test]
fn batch_spec_rejects_unknown_keys_but_allows_empty_batches() {
    let err = BatchSpec::from_json(r#"{"jobs": [{"qubist": 8}]}"#).unwrap_err();
    assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("qubist")));
    // An empty jobs array is a valid (vacuous) spec: the CLI renders
    // the fixed placeholder ledger and exits 0.
    let empty = BatchSpec::from_json(r#"{"jobs": []}"#).unwrap();
    assert!(empty.jobs.is_empty());
    // Only running it is an error.
    let err = empty.into_scheduler().unwrap().run(2).unwrap_err();
    assert_eq!(err, JobError::EmptyBatch);
    let err = BatchSpec::from_json(r#"{"jobs": "nope"}"#).unwrap_err();
    assert!(matches!(err, JobError::Spec { .. }));
    let err = BatchSpec::from_json("{").unwrap_err();
    assert!(matches!(err, JobError::Spec { .. }));
}

#[test]
fn batch_spec_parses_containment_fields_with_fleet_defaults() {
    let text = r#"{
        "retries": 2,
        "deadline_ns": 500000,
        "jobs": [
            {"name": "inherits", "qubits": 8},
            {"name": "overrides", "qubits": 8, "retries": 5,
             "deadline_ns": 9000, "chaos_panic": true,
             "chaos_fail_attempts": 1}
        ]
    }"#;
    let spec = BatchSpec::from_json(text).unwrap();
    assert_eq!(spec.retries, 2);
    assert_eq!(spec.deadline, Some(SimDuration::from_ns(500_000)));
    let inherits = &spec.jobs[0];
    assert_eq!(inherits.retry_budget, 2);
    assert_eq!(inherits.deadline, Some(SimDuration::from_ns(500_000)));
    assert!(!inherits.chaos_panic);
    assert_eq!(inherits.chaos_fail_attempts, 0);
    let overrides = &spec.jobs[1];
    assert_eq!(overrides.retry_budget, 5);
    assert_eq!(overrides.deadline, Some(SimDuration::from_ns(9_000)));
    assert!(overrides.chaos_panic);
    assert_eq!(overrides.chaos_fail_attempts, 1);
    // Bad types fail loudly.
    let err = BatchSpec::from_json(r#"{"jobs": [{"chaos_panic": "yes"}]}"#).unwrap_err();
    assert!(matches!(err, JobError::Spec { ref reason } if reason.contains("chaos_panic")));
}

#[test]
fn batch_spec_capacity_bounds_into_scheduler() {
    let text = r#"{"capacity": 1, "jobs": [{"qubits": 8}, {"qubits": 8}]}"#;
    let spec = BatchSpec::from_json(text).unwrap();
    let err = spec.into_scheduler().unwrap_err();
    assert_eq!(err, JobError::QueueFull { capacity: 1 });
}

#[test]
fn json_reader_handles_the_basics() {
    // Batch specs are read with the engine's JSON reader; pin the cases
    // the spec format leans on.
    use qtenon_sim_engine::json;
    let v =
        json::parse(r#"{"s": "a\"b", "n": 12, "neg": -3, "arr": [true, false, null]}"#).unwrap();
    assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("a\"b"));
    assert_eq!(v.get("n").and_then(|n| n.as_u64()), Some(12));
    assert_eq!(v.get("neg").and_then(|n| n.as_u64()), None);
    assert_eq!(
        v.get("arr").and_then(|a| a.as_array()).map(|a| a.len()),
        Some(3)
    );
    assert!(json::parse("[1, 2,]").is_err(), "trailing comma rejected");
    assert!(json::parse("{\"a\": }").is_err());
    assert!(json::parse("1 2").is_err());
}
