//! The batch scheduler: bounded admission, the worker pool, and the
//! batch report it returns.

use std::cmp::Reverse;
use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qtenon_compiler::{CacheStats, CompilationCache};
use qtenon_isa::QccLayout;
use qtenon_sim_engine::{stream_seed, Histogram, MetricsRegistry};
use qtenon_workloads::Workload;

use super::{
    attempt_seed, retry_decision, run_attempt, JobError, JobId, JobOutcome, JobSpec, RetryDecision,
};

/// Default bounded-queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// How a worker pool is split between job-level and shot-level
/// parallelism: as many job workers as there are jobs (capped at the
/// thread budget), remaining threads shared out as shot-shard workers
/// per job. Purely a wall-clock decision — results never depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPlan {
    /// Concurrent jobs.
    pub job_workers: usize,
    /// Shot-shard threads inside each job.
    pub shard_threads: usize,
}

impl PoolPlan {
    /// Splits `threads` across `jobs` (both clamped to at least 1).
    pub fn new(jobs: usize, threads: usize) -> Self {
        let threads = threads.max(1);
        let job_workers = jobs.clamp(1, threads);
        PoolPlan {
            job_workers,
            shard_threads: (threads / job_workers).max(1),
        }
    }
}

/// One job's outcome plus its fleet-side timeline.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Admission identifier (equals this result's index in the batch).
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// The seed the job actually ran with.
    pub seed: u64,
    /// Admission priority.
    pub priority: u8,
    /// The job's terminal state. One failing job never poisons its
    /// neighbours.
    pub outcome: JobOutcome,
    /// Batch start → job picked up by a worker.
    pub wait: Duration,
    /// Batch start → job finished.
    pub turnaround: Duration,
    /// Fleet-cache attribution, fixed deterministically at dispatch
    /// planning from submission order alone: `"cold"` for the first job
    /// holding each program key, `"shared"` for later holders of a key
    /// already admitted, `"off"` when the batch or the job opted out,
    /// `"-"` when the job is unkeyable (its workload cannot be built).
    /// Never derived from runtime hit counters, which race across pool
    /// widths — so the ledger stays byte-identical at any width.
    pub cache: &'static str,
}

/// Everything a batch run produced, in canonical submission order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job results, indexed by submission order.
    pub results: Vec<JobResult>,
    /// How the pool was split.
    pub pool: PoolPlan,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Jobs rejected at admission (bounded queue overflow).
    pub rejected: u64,
    /// Fleet compilation-cache statistics for the run; `None` when the
    /// batch ran without a cache. Fleet-level only: hit ordering races
    /// across pool widths, so these counters never appear in any per-job
    /// artefact.
    pub cache_stats: Option<CacheStats>,
}

impl BatchReport {
    /// Jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.outcome.is_completed())
            .count()
    }

    /// Jobs that did not complete (failed, timed out, or quarantined).
    pub fn failed(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// Jobs that hit their deadline.
    pub fn timed_out(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::TimedOut { .. }))
            .count()
    }

    /// Jobs quarantined (panicked or retry budget exhausted).
    pub fn quarantined(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Quarantined { .. }))
            .count()
    }

    /// Retries across the whole batch: attempts beyond each job's first.
    pub fn total_retries(&self) -> u64 {
        self.results
            .iter()
            .map(|r| u64::from(r.outcome.attempts().saturating_sub(1)))
            .sum()
    }

    /// Total shots sampled across jobs that produced artefacts.
    pub fn total_shots_sampled(&self) -> u64 {
        self.results
            .iter()
            .filter_map(|r| r.outcome.artifacts())
            .map(|a| a.shots_sampled)
            .sum()
    }

    /// The deterministic outcome ledger: one line per job in submission
    /// order with seed, priority, outcome, attempts, and a sim-time-only
    /// detail column. Byte-identical at every pool width (it contains no
    /// wall-clock observables), which is exactly what the CI chaos-smoke
    /// job `cmp`s. An empty batch renders a fixed placeholder.
    pub fn ledger(&self) -> String {
        if self.results.is_empty() {
            return Self::empty_ledger();
        }
        let mut out = String::from("idx\tname\tseed\tprio\toutcome\tattempts\tcache\tdetail\n");
        for r in &self.results {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                r.id.index(),
                r.name,
                r.seed,
                r.priority,
                r.outcome.label(),
                r.outcome.attempts(),
                r.cache,
                r.outcome.detail(),
            ));
        }
        out
    }

    /// The fixed placeholder an empty (or fully filtered) batch renders —
    /// never a NaN table.
    pub fn empty_ledger() -> String {
        "job ledger: no jobs\n".to_string()
    }

    /// Completed jobs per wall-clock second.
    pub fn jobs_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.completed() as f64 / secs
        } else {
            0.0
        }
    }

    /// Sampled shots per wall-clock second.
    pub fn shots_per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_shots_sampled() as f64 / secs
        } else {
            0.0
        }
    }

    /// Registers fleet-level statistics under the `jobs.*` namespace.
    ///
    /// These are the schedule's observables — wait and turnaround
    /// histograms, pool shape, throughput — and are deliberately outside
    /// the per-job determinism contract (they move with the machine's
    /// wall clock). Per-job artefacts live in
    /// [`JobArtifacts::metrics_json`](super::JobArtifacts::metrics_json) and are byte-stable.
    pub fn export_metrics(&self, m: &mut MetricsRegistry) {
        m.counter("jobs.submitted", self.results.len() as u64);
        m.counter("jobs.completed", self.completed() as u64);
        m.counter("jobs.failed", self.failed() as u64);
        m.counter("jobs.rejected", self.rejected);
        m.gauge("jobs.queue.depth", self.results.len() as f64);
        m.gauge("jobs.pool.job_workers", self.pool.job_workers as f64);
        m.gauge("jobs.pool.shard_threads", self.pool.shard_threads as f64);
        let mut wait = Histogram::new();
        let mut turnaround = Histogram::new();
        for r in &self.results {
            wait.record(r.wait.as_nanos() as u64);
            turnaround.record(r.turnaround.as_nanos() as u64);
        }
        m.histogram("jobs.wait_ns", &wait);
        m.histogram("jobs.turnaround_ns", &turnaround);
        m.gauge("jobs.wall_ns", self.wall.as_nanos() as f64);
        m.gauge("jobs.throughput.jobs_per_s", self.jobs_per_second());
        m.gauge("jobs.throughput.shots_per_s", self.shots_per_second());
        m.counter("jobs.shots_sampled", self.total_shots_sampled());

        // Containment observables (`resilience.jobs.*`): outcome tallies
        // and retry pressure are deterministic; the time-to-recovery
        // histogram is wall-clock and, like `jobs.*`, deliberately
        // outside the determinism contract.
        m.counter("resilience.jobs.completed", self.completed() as u64);
        m.counter(
            "resilience.jobs.failed",
            self.results
                .iter()
                .filter(|r| matches!(r.outcome, JobOutcome::Failed { .. }))
                .count() as u64,
        );
        m.counter("resilience.jobs.timed_out", self.timed_out() as u64);
        m.counter("resilience.jobs.quarantined", self.quarantined() as u64);
        m.counter("resilience.jobs.retries", self.total_retries());
        m.counter("resilience.jobs.deadline_hits", self.timed_out() as u64);
        let mut attempts = Histogram::new();
        let mut recovery = Histogram::new();
        for r in &self.results {
            attempts.record(u64::from(r.outcome.attempts()));
            if r.outcome.is_completed() && r.outcome.attempts() > 1 {
                recovery.record(r.turnaround.as_nanos() as u64);
            }
        }
        m.histogram("resilience.jobs.attempts", &attempts);
        m.histogram("resilience.jobs.time_to_recovery_ns", &recovery);

        // Fleet compilation-cache observables (`cache.fleet.*`). Like
        // `jobs.*` these belong to the fleet, not to any job: hit/miss
        // ordering depends on worker interleaving, so the counters are
        // exported here and never in per-job artefacts.
        if let Some(stats) = &self.cache_stats {
            stats.export(m);
        }
    }
}

/// A job admitted into the queue with its seed already fixed.
#[derive(Debug, Clone)]
pub(super) struct QueuedJob {
    id: usize,
    seed: u64,
    pub(super) spec: JobSpec,
}

/// The deterministic multi-job batch scheduler: bounded admission, FIFO
/// plus priority ordering, two-level parallel execution, canonical-order
/// collection.
#[derive(Debug)]
pub struct BatchScheduler {
    fleet_seed: u64,
    capacity: usize,
    pub(super) queue: Vec<QueuedJob>,
    rejected: u64,
    cache: bool,
    cache_capacity: usize,
}

impl BatchScheduler {
    /// A scheduler with the default queue capacity.
    pub fn new(fleet_seed: u64) -> Self {
        BatchScheduler::with_capacity(fleet_seed, DEFAULT_QUEUE_CAPACITY)
    }

    /// A scheduler with an explicit bounded-queue capacity (clamped to at
    /// least 1).
    pub fn with_capacity(fleet_seed: u64, capacity: usize) -> Self {
        BatchScheduler {
            fleet_seed,
            capacity: capacity.max(1),
            queue: Vec::new(),
            rejected: 0,
            cache: false,
            cache_capacity: qtenon_compiler::cache::DEFAULT_CAPACITY,
        }
    }

    /// Returns the scheduler with the fleet compilation cache enabled or
    /// disabled for the next `run`. Off by default at the library level;
    /// `qtenon batch` turns it on. A pure wall-clock knob: hits are
    /// byte-identical to cold compiles, so per-job artefacts and the
    /// ledger never depend on it.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }

    /// Returns the scheduler with a different cache entry budget per
    /// level (0 is clamped to 1).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Whether the next `run` shares a fleet compilation cache.
    pub fn cache_enabled(&self) -> bool {
        self.cache
    }

    /// Jobs currently admitted.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no jobs are admitted.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Jobs rejected so far by the bounded queue.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The seed a submitted job will run with.
    pub fn seed_of(&self, id: JobId) -> Option<u64> {
        self.queue.get(id.index()).map(|j| j.seed)
    }

    /// Admits a job, fixing its seed at this moment: the spec's explicit
    /// seed, else `stream_seed(fleet_seed, submission_index)`. Seeds
    /// therefore never depend on scheduling or completion order.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::QueueFull`] when the bounded queue is at
    /// capacity; the rejection is counted, not fatal.
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId, JobError> {
        if self.queue.len() >= self.capacity {
            self.rejected += 1;
            return Err(JobError::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = self.queue.len();
        let seed = spec
            .seed
            .unwrap_or_else(|| stream_seed(self.fleet_seed, id as u64));
        self.queue.push(QueuedJob { id, seed, spec });
        Ok(JobId(id))
    }

    /// The order workers pick jobs up: by descending priority, FIFO
    /// within a level. Pure data — no clock, no randomness.
    pub fn schedule_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        order.sort_by_key(|&i| (Reverse(self.queue[i].spec.priority), i));
        order
    }

    /// Per-job cache attribution for the ledger, computed serially from
    /// submission order *before* any worker runs: the first job holding
    /// each program key is `"cold"`, later holders are `"shared"`,
    /// opted-out jobs are `"off"`, unkeyable jobs are `"-"`. Derived
    /// from the same canonical key the cache itself uses (first-attempt
    /// seed), never from runtime hit counters — so every pool width
    /// renders the identical column.
    fn cache_attribution(&self) -> Vec<&'static str> {
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        self.queue
            .iter()
            .map(|job| {
                if !self.cache || !job.spec.cache {
                    return "off";
                }
                let seed = attempt_seed(job.seed, 0);
                let Ok(layout) = QccLayout::for_qubits(job.spec.n_qubits) else {
                    return "-";
                };
                let Ok(workload) = Workload::benchmark(job.spec.kind, job.spec.n_qubits, seed)
                else {
                    return "-";
                };
                let key = CompilationCache::program_key(&workload.circuit, &layout);
                if seen.insert(key) {
                    "cold"
                } else {
                    "shared"
                }
            })
            .collect()
    }

    /// Runs every admitted job over a pool of `threads` threads and
    /// returns the batch report in canonical submission order.
    ///
    /// [`PoolPlan::new`]`(jobs, threads)` decides the split; workers pull
    /// work off a shared run queue — the priority order first, then any
    /// retries whose admission-order backoff has elapsed — so higher
    /// priorities start first but nothing about the results depends on
    /// who finishes when. Every attempt runs under `catch_unwind`
    /// ([`run_attempt`]) and is fed through [`retry_decision`]: a
    /// panicking or failing job becomes a typed [`JobOutcome`] in its
    /// slot while the rest of the fleet keeps going.
    ///
    /// Backoff is counted in *dispatch slots* (jobs handed to workers),
    /// not wall-clock: a retry scheduled at slot `s` with backoff `b`
    /// becomes ready once `s + b` dispatches have happened. When only
    /// not-yet-ready retries remain and nothing is in flight, the
    /// earliest one runs immediately — backoff orders work, it never
    /// stalls the pool. None of this affects outcomes, which are fixed
    /// by [`attempt_seed`] and [`retry_decision`] alone.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::EmptyBatch`] if nothing was admitted.
    pub fn run(&self, threads: usize) -> Result<BatchReport, JobError> {
        if self.queue.is_empty() {
            return Err(JobError::EmptyBatch);
        }
        let order = self.schedule_order();
        let pool = PoolPlan::new(self.queue.len(), threads);
        // Attribution and the shared cache are fixed before any worker
        // spawns: the ledger column depends on submission order alone.
        let attribution = self.cache_attribution();
        let fleet_cache: Option<Arc<CompilationCache>> = if self.cache {
            Some(CompilationCache::shared(self.cache_capacity))
        } else {
            None
        };
        let started = Instant::now();

        /// A failed attempt waiting out its backoff.
        struct Pending {
            ready_slot: u64,
            priority: u8,
            id: usize,
            attempt: u32,
        }
        struct RunQueue {
            /// First attempts, in schedule (priority, FIFO) order.
            initial: VecDeque<usize>,
            /// Retries with their admission-order ready slots.
            retries: Vec<Pending>,
            /// Dispatch slots consumed so far (the backoff clock).
            slot: u64,
            /// Attempts currently executing on some worker.
            in_flight: usize,
        }
        impl RunQueue {
            /// Pops the most urgent dispatchable attempt, if any:
            /// ready retries first (earliest slot, then priority, then
            /// id), else the schedule-order head, else — when the pool
            /// has fully drained — the earliest unready retry.
            fn pop_next(&mut self) -> Option<(usize, u32)> {
                let min_retry = |retries: &[Pending]| {
                    retries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, p)| (p.ready_slot, Reverse(p.priority), p.id))
                        .map(|(i, _)| i)
                };
                if let Some(i) = min_retry(&self.retries) {
                    if self.retries[i].ready_slot <= self.slot {
                        let p = self.retries.swap_remove(i);
                        return Some((p.id, p.attempt));
                    }
                }
                if let Some(id) = self.initial.pop_front() {
                    return Some((id, 0));
                }
                if self.in_flight == 0 {
                    // Only unready retries remain and no completion can
                    // advance the slot clock: take the earliest rather
                    // than stall (backoff orders, never hangs).
                    if let Some(i) = min_retry(&self.retries) {
                        let p = self.retries.swap_remove(i);
                        self.slot = self.slot.max(p.ready_slot);
                        return Some((p.id, p.attempt));
                    }
                }
                None
            }

            fn drained(&self) -> bool {
                self.initial.is_empty() && self.retries.is_empty() && self.in_flight == 0
            }
        }

        let state = Mutex::new(RunQueue {
            initial: order.iter().copied().collect(),
            retries: Vec::new(),
            slot: 0,
            in_flight: 0,
        });
        let work_ready = Condvar::new();
        let (state, work_ready, queue) = (&state, &work_ready, &self.queue);
        let (attribution, fleet_cache) = (&attribution, &fleet_cache);

        let per_worker: Vec<Vec<(usize, JobResult)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..pool.job_workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            // Block until an attempt is dispatchable or
                            // the whole batch has drained.
                            let dispatched = {
                                let mut q = state.lock().expect("run queue lock");
                                loop {
                                    if let Some((id, attempt)) = q.pop_next() {
                                        q.slot += 1;
                                        q.in_flight += 1;
                                        break Some((id, attempt));
                                    }
                                    if q.drained() {
                                        break None;
                                    }
                                    q = work_ready.wait(q).expect("run queue lock");
                                }
                            };
                            let Some((id, attempt)) = dispatched else {
                                break;
                            };
                            let job = &queue[id];
                            let wait = started.elapsed();
                            let outcome = run_attempt(
                                &job.spec,
                                job.seed,
                                attempt,
                                pool.shard_threads,
                                fleet_cache.as_ref(),
                            );
                            match retry_decision(&job.spec, attempt, outcome) {
                                RetryDecision::Final(outcome) => {
                                    mine.push((
                                        job.id,
                                        JobResult {
                                            id: JobId(job.id),
                                            name: job.spec.name.clone(),
                                            seed: job.seed,
                                            priority: job.spec.priority,
                                            outcome: *outcome,
                                            wait,
                                            turnaround: started.elapsed(),
                                            cache: attribution[job.id],
                                        },
                                    ));
                                    let mut q = state.lock().expect("run queue lock");
                                    q.in_flight -= 1;
                                    work_ready.notify_all();
                                }
                                RetryDecision::Retry {
                                    next_attempt,
                                    backoff_slots,
                                } => {
                                    let mut q = state.lock().expect("run queue lock");
                                    let ready_slot = q.slot.saturating_add(backoff_slots);
                                    q.retries.push(Pending {
                                        ready_slot,
                                        priority: job.spec.priority,
                                        id,
                                        attempt: next_attempt,
                                    });
                                    q.in_flight -= 1;
                                    work_ready.notify_all();
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    // Job panics are contained by `run_attempt`;
                    // a worker can only die from a bug in the scheduler
                    // itself, which is rightly fatal.
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let wall = started.elapsed();

        // Canonical collection: scatter by submission index, regardless
        // of which worker finished which job when.
        let mut slots: Vec<Option<JobResult>> = vec![None; self.queue.len()];
        for (id, result) in per_worker.into_iter().flatten() {
            slots[id] = Some(result);
        }
        let results: Vec<JobResult> = slots
            .into_iter()
            .map(|s| s.expect("every admitted job produces exactly one result"))
            .collect();
        Ok(BatchReport {
            results,
            pool,
            wall,
            rejected: self.rejected,
            cache_stats: fleet_cache.as_ref().map(|c| c.stats()),
        })
    }
}
