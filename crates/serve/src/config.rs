//! Configuration of the asynchronous runtime.

use crate::supervisor::{QuarantineConfig, SupervisorConfig};
use crowdrl_linalg::pool as tpool;
use crowdrl_sim::{DynamicsSpec, FaultPlan};
use crowdrl_types::{Error, Result};

/// How a run executes. Not a choice of algorithm: the single-run pump
/// and the multi-tenant service each run one implementation, and the
/// mode only caps the shared `crowdrl-linalg` thread pool (matmul, EM
/// chunks, DQN scoring, the service's shard fan-out) for the run. Every
/// parallel section is bit-identical at any width, so both modes
/// produce the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Cap the pool at one thread — everything on the calling thread.
    SingleThread,
    /// Cap the pool at `workers` threads.
    WorkerPool {
        /// The thread cap; at least 1.
        workers: usize,
    },
}

impl ExecMode {
    /// Reject a worker pool without workers.
    pub fn validate(self) -> Result<()> {
        match self {
            ExecMode::WorkerPool { workers: 0 } => Err(Error::InvalidParameter(
                "worker pool must have at least one worker".into(),
            )),
            _ => Ok(()),
        }
    }

    /// Run `f` with the shared thread pool capped at this mode's width,
    /// restoring the previous cap afterwards.
    pub fn capped<T>(self, f: impl FnOnce() -> T) -> T {
        let threads = match self {
            ExecMode::SingleThread => 1,
            ExecMode::WorkerPool { workers } => workers,
        };
        let previous = tpool::max_threads();
        tpool::set_threads(threads);
        let out = f();
        tpool::set_threads(previous);
        out
    }
}

/// Knobs of the asynchronous labelling service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated time units before a dispatched question expires and its
    /// reservation is released.
    pub timeout: f64,
    /// Answer watermark: refresh truth inference after this many newly
    /// delivered answers.
    pub answer_watermark: usize,
    /// Time watermark: refresh after this much simulated time since the
    /// last refresh, even if the answer watermark was not reached
    /// (checked after each processed event).
    pub time_watermark: f64,
    /// How many timeouts an object may accumulate before the service
    /// abandons it to the classifier fallback.
    pub max_requeues: usize,
    /// Execution mode: the thread cap for the run.
    pub mode: ExecMode,
    /// Annotator latency/availability models (per-tier means; per-
    /// annotator dynamics are generated from the run's RNG).
    pub dynamics: DynamicsSpec,
    /// Seed of the per-assignment sampling streams. Response label,
    /// latency and availability of assignment `i` are drawn from a stream
    /// derived from `(sampling_seed, i)`, so no draw depends on the
    /// order or thread that settles it.
    pub sampling_seed: u64,
    /// Deterministic fault injection applied to sampled outcomes
    /// (no-shows, abandonment, stragglers, outages, duplicates, drift).
    /// The default plan injects nothing.
    pub faults: FaultPlan,
    /// Retry/backoff policy for timed-out assignments. Backoff is off by
    /// default.
    pub supervisor: SupervisorConfig,
    /// Annotator circuit-breaker policy. Off by default.
    pub quarantine: QuarantineConfig,
    /// Take a crash-consistent checkpoint every this many truth-inference
    /// refreshes; `0` (the default) never checkpoints.
    pub checkpoint_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            timeout: 60.0,
            answer_watermark: 12,
            time_watermark: 25.0,
            max_requeues: 3,
            mode: ExecMode::SingleThread,
            dynamics: DynamicsSpec::default(),
            sampling_seed: 0x5EED_CAFE,
            faults: FaultPlan::default(),
            supervisor: SupervisorConfig::default(),
            quarantine: QuarantineConfig::default(),
            checkpoint_every: 0,
        }
    }
}

impl ServeConfig {
    /// Validate the knobs.
    pub fn validate(&self) -> Result<()> {
        if !self.timeout.is_finite() || self.timeout <= 0.0 {
            return Err(Error::InvalidParameter(format!(
                "timeout must be positive, got {}",
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
                "time_watermark must be positive, got {}",
                self.time_watermark
            )));
        }
        self.mode.validate()?;
        self.faults.validate()?;
        self.supervisor.validate()?;
        self.quarantine.validate()?;
        Ok(())
    }

    /// Set the execution mode (builder-style).
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the timeout (builder-style).
    pub fn with_timeout(mut self, timeout: f64) -> Self {
        self.timeout = timeout;
        self
    }

    /// Set the watermarks (builder-style).
    pub fn with_watermarks(mut self, answers: usize, time: f64) -> Self {
        self.answer_watermark = answers;
        self.time_watermark = time;
        self
    }

    /// Set the fault plan (builder-style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the supervisor policy (builder-style).
    pub fn with_supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Set the quarantine policy (builder-style).
    pub fn with_quarantine(mut self, quarantine: QuarantineConfig) -> Self {
        self.quarantine = quarantine;
        self
    }

    /// Set the checkpoint cadence (builder-style).
    pub fn with_checkpoint_every(mut self, refreshes: usize) -> Self {
        self.checkpoint_every = refreshes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn bad_knobs_are_rejected() {
        assert!(ServeConfig {
            timeout: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            answer_watermark: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig {
            time_watermark: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn nested_policies_are_validated() {
        let faults = FaultPlan {
            no_show_rate: 2.0,
            ..FaultPlan::default()
        };
        assert!(ServeConfig::default()
            .with_faults(faults)
            .validate()
            .is_err());
        let sup = SupervisorConfig {
            backoff_base: f64::NAN,
            ..SupervisorConfig::default()
        };
        assert!(ServeConfig::default()
            .with_supervisor(sup)
            .validate()
            .is_err());
        let quar = QuarantineConfig {
            score_threshold: -0.1,
            ..QuarantineConfig::default()
        };
        assert!(ServeConfig::default()
            .with_quarantine(quar)
            .validate()
            .is_err());
    }

    #[test]
    fn a_worker_pool_needs_a_worker() {
        let pool = |workers| ServeConfig::default().with_mode(ExecMode::WorkerPool { workers });
        assert!(pool(0).validate().is_err());
        assert!(pool(1).validate().is_ok());
        assert!(ExecMode::SingleThread.validate().is_ok());
    }

    #[test]
    fn the_thread_cap_is_restored_after_the_run() {
        let before = tpool::max_threads();
        let inside = ExecMode::SingleThread.capped(tpool::max_threads);
        assert_eq!(inside, 1);
        assert_eq!(tpool::max_threads(), before);
    }

    #[test]
    fn builder_helpers_set_fields() {
        let c = ServeConfig::default()
            .with_mode(ExecMode::WorkerPool { workers: 4 })
            .with_timeout(30.0)
            .with_watermarks(5, 10.0);
        assert_eq!(c.mode, ExecMode::WorkerPool { workers: 4 });
        assert_eq!(c.timeout, 30.0);
        assert_eq!(c.answer_watermark, 5);
        assert_eq!(c.time_watermark, 10.0);
    }
}
