//! One attempt of one job, and the pure retry policy applied to it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use qtenon_compiler::CompilationCache;
use qtenon_sim_engine::{stream_seed, MetricValue, MetricsRegistry};
use qtenon_workloads::Workload;

use super::{JobError, JobSpec};
use crate::config::QtenonConfig;
use crate::report::RunReport;
use crate::vqa::VqaRunner;

/// The byte-stable per-job artefacts: exactly what a standalone run of
/// the same spec and seed produces, at any pool shape.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArtifacts {
    /// The full run report.
    pub report: RunReport,
    /// The metrics-JSON export (`--metrics` writes exactly this string).
    pub metrics_json: String,
    /// Shots sampled by the quantum chip model over the whole run.
    pub shots_sampled: u64,
}

/// The terminal state of one job after containment ran its course: the
/// four-state outcome machine every job ends in exactly once.
///
/// `Completed` and `TimedOut` carry artefacts (a timed-out job's report
/// covers the iterations that did finish); `Failed` and `Quarantined`
/// carry the attributed cause. `attempts` counts every attempt made,
/// including the final one.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// All requested iterations ran; artefacts are byte-identical to a
    /// standalone run of the same spec and seed.
    Completed {
        /// The byte-stable artefacts.
        artifacts: JobArtifacts,
        /// Attempts consumed (1 when no retry was needed).
        attempts: u32,
    },
    /// The job's error was permanent, or transient with no retry budget
    /// configured.
    Failed {
        /// The attributed failure.
        error: JobError,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The per-job deadline fired at an iteration boundary; the
    /// artefacts cover the completed prefix.
    TimedOut {
        /// Partial-progress artefacts (a whole number of iterations).
        artifacts: JobArtifacts,
        /// Iterations that completed before the deadline.
        completed_iterations: usize,
        /// Iterations originally requested.
        requested_iterations: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// The job panicked, or exhausted its retry budget: it is isolated
    /// from the fleet with the reason attributed.
    Quarantined {
        /// Why the job was quarantined (panic message or last error).
        reason: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl JobOutcome {
    /// True only for [`JobOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }

    /// The artefacts, when the job produced any (`Completed` and
    /// `TimedOut`).
    pub fn artifacts(&self) -> Option<&JobArtifacts> {
        match self {
            JobOutcome::Completed { artifacts, .. } | JobOutcome::TimedOut { artifacts, .. } => {
                Some(artifacts)
            }
            _ => None,
        }
    }

    /// Attempts consumed reaching this outcome.
    pub fn attempts(&self) -> u32 {
        match self {
            JobOutcome::Completed { attempts, .. }
            | JobOutcome::Failed { attempts, .. }
            | JobOutcome::TimedOut { attempts, .. }
            | JobOutcome::Quarantined { attempts, .. } => *attempts,
        }
    }

    /// The stable ledger label.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::TimedOut { .. } => "timed-out",
            JobOutcome::Quarantined { .. } => "quarantined",
        }
    }

    /// The deterministic ledger detail column: sim-time totals and
    /// attributed causes only — never wall-clock.
    pub fn detail(&self) -> String {
        match self {
            JobOutcome::Completed { artifacts, .. } => {
                format!("total_ns={}", artifacts.report.total.as_ps() / 1_000)
            }
            JobOutcome::Failed { error, .. } => error.to_string(),
            JobOutcome::TimedOut {
                completed_iterations,
                requested_iterations,
                ..
            } => format!("iterations={completed_iterations}/{requested_iterations}"),
            JobOutcome::Quarantined { reason, .. } => reason.clone(),
        }
    }
}

/// How one attempt of one job ended, before any retry policy is applied.
/// [`run_attempt`] returns `Panicked` when `catch_unwind` traps a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// All requested iterations ran.
    Completed(JobArtifacts),
    /// The deadline fired at an iteration boundary.
    TimedOut {
        /// Artefacts for the completed prefix.
        artifacts: JobArtifacts,
        /// Iterations that completed before the deadline.
        completed_iterations: usize,
        /// Iterations originally requested.
        requested_iterations: usize,
    },
    /// The attempt failed with a typed error. `permanent` failures
    /// (config/workload/system construction) can never succeed on retry;
    /// execution failures are transient — a retry reruns with a fresh
    /// per-attempt seed and may draw a survivable fault schedule.
    Errored {
        /// The typed failure.
        error: JobError,
        /// True when no retry can change the outcome.
        permanent: bool,
    },
    /// The attempt panicked (trapped by `catch_unwind`).
    Panicked {
        /// The panic payload, downcast to text when possible.
        message: String,
    },
}

/// What the scheduler does with a finished attempt: record a terminal
/// [`JobOutcome`], or requeue the job.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryDecision {
    /// The job is done; record this outcome in its slot. Boxed: an
    /// outcome carries whole artefacts, a retry two integers.
    Final(Box<JobOutcome>),
    /// Requeue: run attempt `next_attempt` after `backoff_slots` more
    /// dispatch slots have been consumed (geometric: `2^attempt`).
    Retry {
        /// The attempt index to run next (1-based after the first).
        next_attempt: u32,
        /// Admission-order backoff before the retry becomes ready.
        backoff_slots: u64,
    },
}

/// The retry/quarantine policy: a pure function of the spec, the 0-based
/// index of the attempt that just finished, and its outcome. No clock,
/// no pool state — which is why every pool width replays the identical
/// decision sequence and produces the identical ledger.
///
/// The state machine:
///
/// - `Completed` / `TimedOut` → final (a deadline is a budget, not a
///   transient fault — retrying would just burn it again);
/// - `Panicked` → [`JobOutcome::Quarantined`] immediately (a panic means
///   broken invariants, not bad luck);
/// - permanent errors → [`JobOutcome::Failed`] immediately;
/// - transient errors → retry while `attempt < retry_budget`, with
///   geometric backoff `2^attempt` dispatch slots; once the budget is
///   exhausted the job is quarantined (or, with a zero budget, simply
///   fails — the pre-containment behaviour).
pub fn retry_decision(spec: &JobSpec, attempt: u32, outcome: AttemptOutcome) -> RetryDecision {
    let attempts = attempt + 1;
    let outcome = match outcome {
        AttemptOutcome::Completed(artifacts) => JobOutcome::Completed {
            artifacts,
            attempts,
        },
        AttemptOutcome::TimedOut {
            artifacts,
            completed_iterations,
            requested_iterations,
        } => JobOutcome::TimedOut {
            artifacts,
            completed_iterations,
            requested_iterations,
            attempts,
        },
        AttemptOutcome::Panicked { message } => JobOutcome::Quarantined {
            reason: format!("panicked: {message}"),
            attempts,
        },
        AttemptOutcome::Errored { error, permanent } => {
            if !permanent && attempt < spec.retry_budget {
                return RetryDecision::Retry {
                    next_attempt: attempt + 1,
                    backoff_slots: 1u64 << attempt.min(20),
                };
            } else if !permanent && spec.retry_budget > 0 {
                JobOutcome::Quarantined {
                    reason: format!(
                        "retry budget ({}) exhausted; last error: {error}",
                        spec.retry_budget
                    ),
                    attempts,
                }
            } else {
                JobOutcome::Failed { error, attempts }
            }
        }
    };
    RetryDecision::Final(Box::new(outcome))
}

/// The seed attempt number `attempt` runs with: the job's admission seed
/// for the first attempt (so zero-retry batches are byte-identical to
/// the pre-containment scheduler), then `stream_seed(job_seed, attempt)`
/// — deterministic, collision-free, and independent of which worker or
/// pool width executes the retry.
pub fn attempt_seed(job_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        job_seed
    } else {
        stream_seed(job_seed, u64::from(attempt))
    }
}

/// Runs one attempt of one job: the one entry point the scheduler's
/// workers and [`run_standalone`] share. Same config construction, same
/// workload derivation, same optimizer everywhere, so in-fleet and
/// standalone artefacts are byte-identical by construction. `threads` is
/// the shot-shard count and never affects the artefacts.
///
/// With a `cache`, a spec that participates (`spec.cache`) compiles and
/// generates pulses through it; a hit returns byte-identical artefacts to
/// a cold compile (see `qtenon_compiler::cache`). Per-run cache counters
/// are *not* recorded into the job's [`RunReport`]: a shared cache makes
/// them pool-width dependent.
///
/// The attempt always runs under `catch_unwind`: a panicking job
/// (deliberate or genuine) becomes [`AttemptOutcome::Panicked`] instead
/// of unwinding into its caller, with the payload as text when it is a
/// string (which `panic!` payloads are).
pub fn run_attempt(
    spec: &JobSpec,
    job_seed: u64,
    attempt: u32,
    threads: usize,
    cache: Option<&Arc<CompilationCache>>,
) -> AttemptOutcome {
    let contained = catch_unwind(AssertUnwindSafe(|| {
        if spec.chaos_panic {
            panic!(
                "chaos: deliberate panic in job {:?} (attempt {attempt})",
                spec.name
            );
        }
        if attempt < spec.chaos_fail_attempts {
            return AttemptOutcome::Errored {
                error: JobError::Execution {
                    job: spec.name.clone(),
                    reason: format!("chaos: scripted transient failure on attempt {attempt}"),
                },
                permanent: false,
            };
        }
        let seed = attempt_seed(job_seed, attempt);
        let fail = |reason: String| JobError::Execution {
            job: spec.name.clone(),
            reason,
        };
        let permanent = |error: JobError| AttemptOutcome::Errored {
            error,
            permanent: true,
        };
        let config = match QtenonConfig::table4(spec.n_qubits, spec.core) {
            Ok(c) => c,
            Err(e) => return permanent(fail(e.to_string())),
        };
        let mut config = config
            .with_sync(spec.sync)
            .with_transmission(spec.transmission)
            .with_seed(seed)
            .with_threads(threads)
            .with_fuse(spec.fuse);
        if let Some(faults) = spec.faults {
            config = config.with_faults(faults);
        }
        let workload = match Workload::benchmark(spec.kind, spec.n_qubits, seed) {
            Ok(w) => w,
            Err(e) => return permanent(fail(e.to_string())),
        };
        let built = match cache {
            Some(shared) if spec.cache => {
                VqaRunner::with_cache(config, workload, Arc::clone(shared))
            }
            _ => VqaRunner::new(config, workload),
        };
        let mut runner = match built {
            Ok(r) => r,
            Err(e) => return permanent(fail(e.to_string())),
        };
        let mut optimizer = spec.optimizer.build(seed);
        let (report, status) = match runner.run_with_deadline(
            optimizer.as_mut(),
            spec.iterations,
            spec.shots,
            spec.deadline,
        ) {
            Ok(done) => done,
            Err(e) => {
                // Execution failures are transient by classification: a
                // retry reruns under a fresh seed (different fault
                // draws), which is exactly the recovery the budget buys.
                return AttemptOutcome::Errored {
                    error: fail(e.to_string()),
                    permanent: false,
                };
            }
        };
        let mut m = MetricsRegistry::new();
        runner.export_metrics(&mut m);
        let shots_sampled = match m.get("core.parallel.shots_sampled") {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        };
        let artifacts = JobArtifacts {
            report,
            metrics_json: m.snapshot().to_json(),
            shots_sampled,
        };
        if status.hit {
            AttemptOutcome::TimedOut {
                artifacts,
                completed_iterations: status.completed_iterations,
                requested_iterations: status.requested_iterations,
            }
        } else {
            AttemptOutcome::Completed(artifacts)
        }
    }));
    contained.unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        AttemptOutcome::Panicked { message }
    })
}

/// Runs one job standalone (first attempt, no retry, no cache) and
/// returns its artefacts: the byte-identity reference the fleet is
/// checked against. A deadline-cut run still returns its partial
/// artefacts.
///
/// # Errors
///
/// Returns the attempt's [`JobError`]; a panic becomes
/// [`JobError::Execution`] with the panic message.
pub fn run_standalone(spec: &JobSpec, seed: u64, threads: usize) -> Result<JobArtifacts, JobError> {
    match run_attempt(spec, seed, 0, threads, None) {
        AttemptOutcome::Completed(artifacts) | AttemptOutcome::TimedOut { artifacts, .. } => {
            Ok(artifacts)
        }
        AttemptOutcome::Errored { error, .. } => Err(error),
        AttemptOutcome::Panicked { message } => Err(JobError::Execution {
            job: spec.name.clone(),
            reason: format!("panicked: {message}"),
        }),
    }
}
