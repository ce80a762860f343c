//! Service configuration: capacity, admission, sharding, scheduling
//! cadence, and the shared-pool models every project runs against.

use crowdrl_core::CrowdRlConfig;
use crowdrl_serve::{ExecMode, QuarantineConfig};
use crowdrl_sim::{CapacitySpec, DynamicsSpec, ServiceFaultPlan};
use crowdrl_types::{Dataset, Error, Result};

/// What happens to a project submitted past [`ServiceConfig::capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse it outright: the report carries no outcome and no money
    /// ever moves on its account.
    Reject,
    /// Park it; it activates (at the then-current simulated time) when a
    /// running project finishes and frees a slot.
    Queue,
}

/// One tenant: a complete CrowdRL labelling run — its own dataset,
/// config, and budget — submitted to the service.
#[derive(Debug, Clone)]
pub struct ProjectSpec {
    /// Human-readable name, used in reports.
    pub name: String,
    /// The full per-run configuration (budget, inference model, DQN…).
    pub config: CrowdRlConfig,
    /// The objects this project labels.
    pub dataset: Dataset,
    /// Broker priority: higher goes first when projects contend for the
    /// same annotators in one scheduling round. Ties break by submission
    /// order, so grants stay deterministic.
    pub priority: u32,
}

impl ProjectSpec {
    /// A priority-0 project.
    pub fn new(name: impl Into<String>, config: CrowdRlConfig, dataset: Dataset) -> Self {
        Self {
            name: name.into(),
            config,
            dataset,
            priority: 0,
        }
    }

    /// Set the broker priority.
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }
}

/// Configuration of the multi-tenant service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Max projects running concurrently.
    pub capacity: usize,
    /// What to do with submissions past `capacity`.
    pub admission: AdmissionPolicy,
    /// Event-loop partitions per project (objects are sharded
    /// `object mod shards`). Clamped to the project's object count.
    pub shards_per_project: usize,
    /// Scheduling slack, time units: each round advances every shard to
    /// `earliest pending event + epoch`, batching nearby events into one
    /// parallel sweep. Zero degenerates to one event-time per round.
    pub epoch: f64,
    /// Assignment timeout, simulated time units.
    pub timeout: f64,
    /// Refresh a project's inference after this many delivered answers.
    pub answer_watermark: usize,
    /// …or after this much simulated time with at least one new answer.
    pub time_watermark: f64,
    /// Requeue allowance per object before it is abandoned.
    pub max_requeues: usize,
    /// Execution mode. Both modes run the identical sharded algorithm —
    /// `WorkerPool` merely raises the thread cap — so traces are
    /// bit-identical by construction.
    pub mode: ExecMode,
    /// Latency/availability models for the shared pool.
    pub dynamics: DynamicsSpec,
    /// Per-annotator concurrent-assignment capacities (the shared-pool
    /// resource the broker arbitrates).
    pub annotator_capacity: CapacitySpec,
    /// Seed of the virtual crowd's sampling streams.
    pub sampling_seed: u64,
    /// Per-project annotator circuit breakers (applied to every project;
    /// each project holds its own view).
    pub quarantine: QuarantineConfig,
    /// Cross-project evidence: an annotator currently quarantined by at
    /// least this many projects is blocked pool-wide (no project gets
    /// it). `0` disables the shared view.
    pub shared_evidence_threshold: usize,
    /// Cut a [`ServiceCheckpoint`](crate::ServiceCheckpoint) every this
    /// many scheduling rounds (at the round boundary, after settlements
    /// merge and finished projects finalize). `0` disables checkpoints.
    pub checkpoint_every_rounds: usize,
    /// Overload shedding: under [`AdmissionPolicy::Queue`], at most this
    /// many projects may wait beyond the running set — submissions past
    /// `capacity + max_queue_depth` are shed with a typed
    /// [`ServiceError::AdmissionRejected`](crate::ServiceError). `0`
    /// leaves the queue unbounded.
    pub max_queue_depth: usize,
    /// Backpressure floor on the shared pool: a queued project is not
    /// promoted while the pool's free-slot ratio sits below this value —
    /// the service degrades to queueing instead of piling a fresh
    /// tenant's initial burst onto saturated annotators. `0.0` disables
    /// the floor.
    pub min_free_slot_ratio: f64,
    /// Per-project settlement-backlog bound: a project holding more than
    /// this many pending shard events is skipped for refresh/dispatch
    /// until its backlog drains below the bound — new questions must not
    /// outrun settlement. `0` leaves backlogs unbounded.
    pub max_settlement_backlog: usize,
    /// Service-level fault schedule (project-scoped outages, aborts,
    /// injected shard panics). Defaults to no-op.
    pub faults: ServiceFaultPlan,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            capacity: 16,
            admission: AdmissionPolicy::Queue,
            shards_per_project: 4,
            epoch: 5.0,
            timeout: 60.0,
            answer_watermark: 12,
            time_watermark: 25.0,
            max_requeues: 3,
            mode: ExecMode::SingleThread,
            dynamics: DynamicsSpec::default(),
            annotator_capacity: CapacitySpec::default(),
            sampling_seed: 0x5EED_CAFE,
            quarantine: QuarantineConfig::default(),
            shared_evidence_threshold: 0,
            checkpoint_every_rounds: 0,
            max_queue_depth: 0,
            min_free_slot_ratio: 0.0,
            max_settlement_backlog: 0,
            faults: ServiceFaultPlan::default(),
        }
    }
}

impl ServiceConfig {
    /// Validate all knobs.
    pub fn validate(&self) -> Result<()> {
        if self.capacity == 0 {
            return Err(Error::InvalidParameter(
                "service capacity must be at least 1".into(),
            ));
        }
        if self.shards_per_project == 0 {
            return Err(Error::InvalidParameter(
                "shards_per_project must be at least 1".into(),
            ));
        }
        if !self.epoch.is_finite() || self.epoch < 0.0 {
            return Err(Error::InvalidParameter(format!(
                "epoch must be finite and non-negative, got {}",
                self.epoch
            )));
        }
        if !self.timeout.is_finite() || self.timeout <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "timeout must be finite and positive, got {}",
                self.timeout
            )));
        }
        if self.answer_watermark == 0 {
            return Err(Error::InvalidParameter(
                "answer_watermark must be at least 1".into(),
            ));
        }
        if !self.time_watermark.is_finite() || self.time_watermark <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "time_watermark must be finite and positive, got {}",
                self.time_watermark
            )));
        }
        self.mode.validate()?;
        if !self.min_free_slot_ratio.is_finite() || !(0.0..=1.0).contains(&self.min_free_slot_ratio)
        {
            return Err(Error::InvalidParameter(format!(
                "min_free_slot_ratio must be in [0,1], got {}",
                self.min_free_slot_ratio
            )));
        }
        self.annotator_capacity.validate()?;
        self.quarantine.validate()?;
        self.faults.validate()?;
        Ok(())
    }

    /// Set the project capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the admission policy.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Set the shard count per project.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards_per_project = shards;
        self
    }

    /// Set the execution mode.
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the refresh watermarks.
    pub fn with_watermarks(mut self, answers: usize, time: f64) -> Self {
        self.answer_watermark = answers;
        self.time_watermark = time;
        self
    }

    /// Set the assignment timeout.
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = timeout;
        self
    }

    /// Cut a checkpoint every `rounds` scheduling rounds (`0` = off).
    pub fn with_checkpoint_every(mut self, rounds: usize) -> Self {
        self.checkpoint_every_rounds = rounds;
        self
    }

    /// Bound the admission queue (`0` = unbounded).
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = depth;
        self
    }

    /// Set the promotion backpressure floor (`0.0` = off).
    pub fn with_min_free_slot_ratio(mut self, ratio: f64) -> Self {
        self.min_free_slot_ratio = ratio;
        self
    }

    /// Bound each project's settlement backlog (`0` = unbounded).
    pub fn with_max_settlement_backlog(mut self, backlog: usize) -> Self {
        self.max_settlement_backlog = backlog;
        self
    }

    /// Attach a service-level fault schedule.
    pub fn with_faults(mut self, faults: ServiceFaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_degenerate_knobs() {
        assert!(ServiceConfig::default()
            .with_capacity(0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default().with_shards(0).validate().is_err());
        assert!(ServiceConfig::default()
            .with_timeout(0.0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_watermarks(0, 25.0)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_watermarks(12, f64::NAN)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 0 })
            .validate()
            .is_err());
        let bad_epoch = ServiceConfig {
            epoch: -1.0,
            ..ServiceConfig::default()
        };
        assert!(bad_epoch.validate().is_err());
        assert!(ServiceConfig::default()
            .with_min_free_slot_ratio(1.5)
            .validate()
            .is_err());
        assert!(ServiceConfig::default()
            .with_min_free_slot_ratio(f64::NAN)
            .validate()
            .is_err());
        let bad_faults = ServiceConfig::default().with_faults(crowdrl_sim::ServiceFaultPlan {
            aborts: vec![crowdrl_sim::ProjectAbort {
                project: 0,
                at: -1.0,
            }],
            ..Default::default()
        });
        assert!(bad_faults.validate().is_err());
    }
}
