//! Deterministic multi-job batch scheduling over one shared worker pool.
//!
//! The shot-sharded engine executes exactly one VQA job at a time; this
//! module is the platform layer on top of it: N independent jobs — each
//! with its own configuration, seed, and optional fault plan — are
//! admitted into a bounded queue (FIFO within a priority level, higher
//! priorities first) and executed by a pool of job workers, each of
//! which shot-shards its job across the pool's remaining threads
//! ([`PoolPlan`] splits `threads` into `job_workers × shard_threads`).
//!
//! The module has three parts: `spec` ([`JobSpec`], and [`BatchSpec`]
//! read from `qtenon batch --jobs` JSON), `attempt` ([`run_attempt`],
//! the one way to run an attempt of a job, and the [`retry_decision`]
//! policy), and `scheduler` ([`BatchScheduler`] and its
//! [`BatchReport`]).
//!
//! # Determinism
//!
//! Every job's artefacts — its [`RunReport`] and metrics-JSON export —
//! are byte-identical to running that job alone:
//!
//! 1. A job's seed is fixed at admission: the explicit `seed` in its
//!    spec, else [`stream_seed`]`(fleet_seed, submission_index)`. It
//!    never depends on scheduling order or completion order.
//! 2. Jobs share no mutable state: each runs in its own
//!    [`VqaRunner`](crate::vqa::VqaRunner) via [`run_attempt`], which
//!    the standalone path ([`run_standalone`]) calls too.
//! 3. Within a job, the shot-sharded engine is thread-count invariant,
//!    so the pool's `shard_threads` choice never shows up in results.
//! 4. Results are collected into canonical submission order regardless
//!    of completion order.
//!
//! Only fleet-level wall-clock observables (`jobs.*` wait/turnaround
//! histograms, throughput gauges) depend on the pool shape — they
//! describe the schedule, not the jobs.
//!
//! # Fault containment
//!
//! [`run_attempt`] always runs the attempt under `catch_unwind`, so a
//! panicking job becomes a
//! [`JobOutcome::Quarantined`] line in the ledger instead of killing the
//! fleet; per-job sim-time deadlines cut the VQA loop at iteration
//! boundaries into [`JobOutcome::TimedOut`] with partial-progress stats;
//! and transient execution failures re-enter the queue with a
//! per-attempt seed from [`stream_seed`]`(job_seed, attempt)` under a
//! bounded retry budget, after which the job is quarantined. Retry
//! decisions are [`retry_decision`] — a pure function of (spec, attempt,
//! outcome) — and backoff is expressed in *admission-order dispatch
//! slots*, not wall-clock, so every pool width produces the identical
//! outcome [`BatchReport::ledger`].
//!
//! # Examples
//!
//! ```
//! use qtenon_core::jobs::{BatchScheduler, JobSpec};
//! use qtenon_workloads::WorkloadKind;
//!
//! let mut sched = BatchScheduler::new(42);
//! sched.submit(JobSpec::new("a", WorkloadKind::Vqe, 8))?;
//! sched.submit(JobSpec::new("b", WorkloadKind::Qaoa, 8).with_priority(3))?;
//! let batch = sched.run(2)?;
//! // Canonical submission order, even though "b" ran first (priority 3).
//! assert_eq!(batch.results[0].name, "a");
//! assert_eq!(batch.results[1].name, "b");
//! # Ok::<(), qtenon_core::jobs::JobError>(())
//! ```
//!
//! [`RunReport`]: crate::report::RunReport
//! [`stream_seed`]: qtenon_sim_engine::stream_seed

mod attempt;
mod scheduler;
mod spec;
#[cfg(test)]
mod tests;

pub use attempt::{
    attempt_seed, retry_decision, run_attempt, run_standalone, AttemptOutcome, JobArtifacts,
    JobOutcome, RetryDecision,
};
pub use scheduler::{BatchReport, BatchScheduler, JobResult, PoolPlan, DEFAULT_QUEUE_CAPACITY};
pub use spec::{BatchSpec, JobOptimizer, JobSpec, DEFAULT_FLEET_SEED};

/// Typed scheduler failures. Admission rejections and malformed specs
/// are values, never panics — a full queue degrades, it does not abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The bounded queue is full; the job was rejected at admission.
    QueueFull {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// `run` was called with no admitted jobs.
    EmptyBatch,
    /// A job spec could not be parsed or validated.
    Spec {
        /// What was wrong.
        reason: String,
    },
    /// A job failed while executing.
    Execution {
        /// The job's name.
        job: String,
        /// The underlying failure.
        reason: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::QueueFull { capacity } => {
                write!(f, "job queue full (capacity {capacity})")
            }
            JobError::EmptyBatch => write!(f, "no jobs admitted"),
            JobError::Spec { reason } => write!(f, "bad job spec: {reason}"),
            JobError::Execution { job, reason } => {
                write!(f, "job {job:?} failed: {reason}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Identifier handed out at admission: the job's submission index, which
/// is also its position in [`BatchReport::results`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobId(usize);

impl JobId {
    /// The id for a known submission index (what `submit` returned for
    /// the `index`-th admission).
    pub fn from_index(index: usize) -> Self {
        JobId(index)
    }

    /// The submission index.
    pub fn index(self) -> usize {
        self.0
    }
}
