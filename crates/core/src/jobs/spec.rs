//! Job and batch specs: the builder API and the `qtenon batch --jobs`
//! JSON format.

use qtenon_sim_engine::json::{self, Value};
use qtenon_sim_engine::{stream_seed, FaultPlan, SimDuration};
use qtenon_workloads::{GradientDescentOptimizer, Optimizer, SpsaOptimizer, WorkloadKind};

use super::{BatchScheduler, JobError, DEFAULT_QUEUE_CAPACITY};
use crate::config::{CoreModel, SyncMode, TransmissionPolicy};

/// Default fleet seed (matches the single-run default in `QtenonConfig`).
pub const DEFAULT_FLEET_SEED: u64 = 0x51;

/// Which optimizer a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOptimizer {
    /// SPSA (two evaluations per iteration).
    Spsa,
    /// Gradient descent via the parameter-shift rule.
    Gd,
}

impl JobOptimizer {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JobOptimizer::Spsa => "SPSA",
            JobOptimizer::Gd => "GD",
        }
    }

    /// Builds the optimizer for a job seed.
    pub fn build(self, seed: u64) -> Box<dyn Optimizer> {
        match self {
            JobOptimizer::Spsa => Box::new(SpsaOptimizer::new(seed)),
            JobOptimizer::Gd => Box::new(GradientDescentOptimizer::new(0.05)),
        }
    }
}

/// One VQA job: everything needed to build its config, workload, and
/// optimizer. The spec is pure data — submitting it never runs anything.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (for reports and artefact filenames).
    pub name: String,
    /// Workload family.
    pub kind: WorkloadKind,
    /// Qubit count.
    pub n_qubits: u32,
    /// Host core model.
    pub core: CoreModel,
    /// Optimizer.
    pub optimizer: JobOptimizer,
    /// Optimizer iterations.
    pub iterations: usize,
    /// Shots per circuit evaluation.
    pub shots: u64,
    /// Admission priority: higher runs earlier; FIFO within a level.
    pub priority: u8,
    /// Explicit seed; `None` derives one from the fleet seed and the
    /// job's submission index at admission time.
    pub seed: Option<u64>,
    /// Synchronisation mode.
    pub sync: SyncMode,
    /// Measurement transmission policy.
    pub transmission: TransmissionPolicy,
    /// Optional fault-injection plan for this job only.
    pub faults: Option<FaultPlan>,
    /// Transient-failure retry budget: how many times a failed attempt
    /// re-enters the queue before the job is quarantined. 0 (the
    /// default) preserves the pre-containment behaviour: one attempt,
    /// failures surface as [`JobOutcome::Failed`](super::JobOutcome::Failed).
    pub retry_budget: u32,
    /// Optional per-job sim-time deadline, enforced cooperatively at
    /// iteration boundaries in the VQA loop. `None` never times out.
    pub deadline: Option<SimDuration>,
    /// Chaos hook: panic deliberately at the start of every attempt.
    /// Exercises the quarantine path end to end (tests, CI, `--chaos`).
    pub chaos_panic: bool,
    /// Chaos hook: fail (transiently) every attempt whose index is below
    /// this count, deterministically. `chaos_fail_attempts: 2` means
    /// attempts 0 and 1 error and attempt 2 runs normally — the scripted
    /// recovery the retry path is measured against.
    pub chaos_fail_attempts: u32,
    /// Gate fusion in the exact statevector backend (default on). A pure
    /// performance toggle — fused and unfused execution are bitwise
    /// interchangeable — surfaced so `batch --no-fuse` can flip a whole
    /// fleet for the differential artefact checks.
    pub fuse: bool,
    /// Participation in the fleet compilation cache (default on). Only
    /// meaningful when the batch itself runs with a cache: a job with
    /// `cache: false` always compiles cold, even in a cached fleet.
    /// Like `fuse`, a pure wall-clock knob — hits are byte-identical to
    /// cold compiles, so this never changes any artefact.
    pub cache: bool,
}

impl JobSpec {
    /// A spec with the paper-default policies, SPSA, 2 iterations, and
    /// 100 shots.
    pub fn new(name: &str, kind: WorkloadKind, n_qubits: u32) -> Self {
        JobSpec {
            name: name.to_string(),
            kind,
            n_qubits,
            core: CoreModel::Rocket,
            optimizer: JobOptimizer::Spsa,
            iterations: 2,
            shots: 100,
            priority: 0,
            seed: None,
            sync: SyncMode::default(),
            transmission: TransmissionPolicy::default(),
            faults: None,
            retry_budget: 0,
            deadline: None,
            chaos_panic: false,
            chaos_fail_attempts: 0,
            fuse: true,
            cache: true,
        }
    }

    /// Returns a copy with a different host core.
    pub fn with_core(mut self, core: CoreModel) -> Self {
        self.core = core;
        self
    }

    /// Returns a copy with a different optimizer.
    pub fn with_optimizer(mut self, optimizer: JobOptimizer) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Returns a copy with a different iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns a copy with a different shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Returns a copy with a different admission priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns a copy with an explicit seed (opting out of fleet-seed
    /// derivation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy with a different synchronisation mode.
    pub fn with_sync(mut self, sync: SyncMode) -> Self {
        self.sync = sync;
        self
    }

    /// Returns a copy with a different transmission policy.
    pub fn with_transmission(mut self, transmission: TransmissionPolicy) -> Self {
        self.transmission = transmission;
        self
    }

    /// Returns a copy with a fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns a copy with a transient-failure retry budget.
    pub fn with_retry_budget(mut self, retries: u32) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Returns a copy with a per-job sim-time deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns a copy that panics deliberately on every attempt (chaos
    /// hook pinning the quarantine path).
    pub fn with_chaos_panic(mut self) -> Self {
        self.chaos_panic = true;
        self
    }

    /// Returns a copy whose first `attempts` attempts fail transiently
    /// (chaos hook pinning the retry path).
    pub fn with_chaos_fail_attempts(mut self, attempts: u32) -> Self {
        self.chaos_fail_attempts = attempts;
        self
    }

    /// Returns a copy with gate fusion enabled or disabled.
    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Returns a copy with fleet-cache participation enabled or
    /// disabled.
    pub fn with_cache(mut self, cache: bool) -> Self {
        self.cache = cache;
        self
    }
}

/// A whole batch parsed from a JSON spec file (the `qtenon batch --jobs`
/// input format).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Fleet seed for jobs without an explicit seed.
    pub fleet_seed: u64,
    /// Bounded-queue capacity.
    pub capacity: usize,
    /// Fleet-default retry budget for jobs without their own `retries`.
    pub retries: u32,
    /// Fleet-default deadline for jobs without their own `deadline_ns`.
    pub deadline: Option<SimDuration>,
    /// Whether the batch shares a fleet compilation cache (default on —
    /// `qtenon batch --no-cache` or a top-level `"cache": false` opts
    /// out).
    pub cache: bool,
    /// Cache entry budget per level.
    pub cache_capacity: usize,
    /// The jobs, in file order, with seeds already materialised — so
    /// filtering or reordering the list later cannot change any job's
    /// seed or artefacts.
    pub jobs: Vec<JobSpec>,
}

impl BatchSpec {
    /// Parses the spec format:
    ///
    /// ```json
    /// {
    ///   "fleet_seed": 42,
    ///   "capacity": 16,
    ///   "cache": true,
    ///   "cache_capacity": 1024,
    ///   "jobs": [
    ///     {"name": "vqe-64", "workload": "vqe", "qubits": 64,
    ///      "iterations": 2, "shots": 500, "priority": 3,
    ///      "core": "boom", "optimizer": "gd", "sync": "fence",
    ///      "transmission": "immediate", "seed": 7,
    ///      "faults": "all=0.01,max_attempts=8",
    ///      "retries": 3, "deadline_ns": 40000000,
    ///      "chaos_panic": false, "chaos_fail_attempts": 0, "fuse": true,
    ///      "cache": true}
    ///   ]
    /// }
    /// ```
    ///
    /// Everything but `jobs` is optional; unknown keys are rejected so
    /// typos fail loudly. Top-level `retries` and `deadline_ns` set
    /// fleet defaults that per-job fields override. Each job's seed is
    /// materialised here from its position in the `jobs` array
    /// (`stream_seed(fleet_seed, index)` unless explicit).
    ///
    /// An empty `jobs` array parses successfully — the CLI renders the
    /// fixed empty ledger and exits 0; only actually *running* an empty
    /// batch is a [`JobError::EmptyBatch`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Spec`] for malformed JSON or bad fields.
    pub fn from_json(text: &str) -> Result<Self, JobError> {
        let root = json::parse(text).map_err(|e| spec_err(e.to_string()))?;
        let fleet_seed = optional(&root, "fleet_seed", field_u64)?.unwrap_or(DEFAULT_FLEET_SEED);
        let capacity = optional(&root, "capacity", narrow)?.unwrap_or(DEFAULT_QUEUE_CAPACITY);
        let retries = optional(&root, "retries", narrow)?.unwrap_or(0);
        let deadline = optional(&root, "deadline_ns", field_u64)?.map(SimDuration::from_ns);
        let cache = optional(&root, "cache", field_bool)?.unwrap_or(true);
        let cache_capacity = optional::<usize>(&root, "cache_capacity", narrow)?
            .map_or(qtenon_compiler::cache::DEFAULT_CAPACITY, |c| c.max(1));
        for (key, _) in root.as_object().unwrap_or(&[]) {
            if !matches!(
                key.as_str(),
                "fleet_seed"
                    | "capacity"
                    | "jobs"
                    | "retries"
                    | "deadline_ns"
                    | "cache"
                    | "cache_capacity"
            ) {
                return Err(spec_err(format!("unknown top-level key {key:?}")));
            }
        }
        let entries = root
            .get("jobs")
            .ok_or_else(|| spec_err("missing \"jobs\" array".to_string()))?
            .as_array()
            .ok_or_else(|| spec_err("\"jobs\" is not an array".to_string()))?;
        let mut jobs = Vec::with_capacity(entries.len());
        for (index, entry) in entries.iter().enumerate() {
            let pairs = entry
                .as_object()
                .ok_or_else(|| spec_err(format!("jobs[{index}] is not an object")))?;
            let mut spec = JobSpec::new(&format!("job{index}"), WorkloadKind::Qaoa, 8);
            spec.retry_budget = retries;
            spec.deadline = deadline;
            for (key, value) in pairs {
                set_job_field(&mut spec, (value, key.as_str()))
                    .map_err(|reason| spec_err(format!("jobs[{index}]: {reason}")))?;
            }
            // Materialise the seed by file position so later filtering or
            // reordering cannot change what this job runs with.
            spec.seed = Some(
                spec.seed
                    .unwrap_or_else(|| stream_seed(fleet_seed, index as u64)),
            );
            jobs.push(spec);
        }
        Ok(BatchSpec {
            fleet_seed,
            capacity,
            retries,
            deadline,
            cache,
            cache_capacity,
            jobs,
        })
    }

    /// Builds a scheduler with every job admitted.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::QueueFull`] if the spec holds more jobs than
    /// its own capacity allows.
    pub fn into_scheduler(self) -> Result<BatchScheduler, JobError> {
        let mut sched = BatchScheduler::with_capacity(self.fleet_seed, self.capacity)
            .with_cache(self.cache)
            .with_cache_capacity(self.cache_capacity);
        for job in self.jobs {
            sched.submit(job)?;
        }
        Ok(sched)
    }
}

fn spec_err(reason: String) -> JobError {
    JobError::Spec { reason }
}

/// A field value with its key, for error messages.
type Field<'a> = (&'a Value, &'a str);

/// A top-level field, when present.
fn optional<T>(
    root: &Value,
    key: &'static str,
    read: fn(Field) -> Result<T, String>,
) -> Result<Option<T>, JobError> {
    root.get(key)
        .map(|v| read((v, key)))
        .transpose()
        .map_err(spec_err)
}

/// An exact `u64` field: integer literals up to `u64::MAX` are taken as
/// written, never rounded through `f64`.
fn field_u64((v, key): Field) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("{key:?} must be an integer in 0..={}", u64::MAX))
}

/// A `u64` field that must also fit `T`.
fn narrow<T: TryFrom<u64>>(field: Field) -> Result<T, String> {
    let n = field_u64(field)?;
    T::try_from(n).map_err(|_| format!("{:?} = {n} is out of range", field.1))
}

fn field_bool((v, key): Field) -> Result<bool, String> {
    v.as_bool()
        .ok_or_else(|| format!("{key:?} must be a boolean"))
}

fn field_str<'a>((v, key): Field<'a>) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("{key:?} must be a string"))
}

/// A case-insensitive choice among named values.
fn field_choice<T: Copy>(field: Field, choices: &[(&str, T)]) -> Result<T, String> {
    let name = field_str(field)?.to_ascii_lowercase();
    if let Some(&(_, value)) = choices.iter().find(|(n, _)| *n == name) {
        return Ok(value);
    }
    let names: Vec<&str> = choices.iter().map(|(n, _)| *n).collect();
    Err(format!(
        "unknown {} {name:?} (want {})",
        field.1,
        names.join("|")
    ))
}

/// Applies one `jobs[i]` key to the spec.
fn set_job_field(spec: &mut JobSpec, field: Field) -> Result<(), String> {
    match field.1 {
        "name" => spec.name = field_str(field)?.to_string(),
        "workload" => {
            spec.kind = field_choice(
                field,
                &[
                    ("qaoa", WorkloadKind::Qaoa),
                    ("vqe", WorkloadKind::Vqe),
                    ("qnn", WorkloadKind::Qnn),
                ],
            )?
        }
        "qubits" => spec.n_qubits = narrow(field)?,
        "core" => {
            spec.core = field_choice(
                field,
                &[
                    ("rocket", CoreModel::Rocket),
                    ("boom", CoreModel::BoomLarge),
                ],
            )?
        }
        "optimizer" => {
            spec.optimizer = field_choice(
                field,
                &[("spsa", JobOptimizer::Spsa), ("gd", JobOptimizer::Gd)],
            )?
        }
        "iterations" => spec.iterations = narrow(field)?,
        "shots" => spec.shots = field_u64(field)?,
        "priority" => spec.priority = narrow(field)?,
        "seed" => spec.seed = Some(field_u64(field)?),
        "sync" => {
            spec.sync = field_choice(
                field,
                &[("fence", SyncMode::Fence), ("fine", SyncMode::FineGrained)],
            )?
        }
        "transmission" => {
            spec.transmission = field_choice(
                field,
                &[
                    ("immediate", TransmissionPolicy::Immediate),
                    ("batched", TransmissionPolicy::Batched),
                ],
            )?
        }
        "faults" => {
            let plan = FaultPlan::parse(field_str(field)?);
            spec.faults = Some(plan.map_err(|e| format!("bad fault spec: {e}"))?);
        }
        "retries" => spec.retry_budget = narrow(field)?,
        "deadline_ns" => spec.deadline = Some(SimDuration::from_ns(field_u64(field)?)),
        "chaos_panic" => spec.chaos_panic = field_bool(field)?,
        "chaos_fail_attempts" => spec.chaos_fail_attempts = narrow(field)?,
        "fuse" => spec.fuse = field_bool(field)?,
        "cache" => spec.cache = field_bool(field)?,
        other => return Err(format!("unknown key {other:?}")),
    }
    Ok(())
}
