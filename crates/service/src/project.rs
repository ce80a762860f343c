//! Per-project runtime state: one full CrowdRL run, sharded.

use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_serve::{Run, ServiceMetrics};

/// Where a project is in its service lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectStatus {
    /// Waiting for a slot (admission policy `Queue`).
    Queued,
    /// Running.
    Active,
    /// Finished; its report carries an outcome.
    Completed,
    /// Refused at admission (policy `Reject`, or shed from a bounded
    /// queue); no money ever moved.
    Rejected,
    /// Failed mid-run — a shard panicked or a fault plan aborted it.
    /// Its reservations were released, its broker evidence withdrawn,
    /// and its report carries the [`ServiceError`](crate::ServiceError).
    Failed,
}

/// One admitted project's live state: a [`Run`] — the single-run pump's
/// per-run type, here on several shards — plus its service lifecycle.
pub(crate) struct Project<'a> {
    /// Submission index == account id == obs scope id.
    pub index: usize,
    /// Display name from the spec.
    pub name: String,
    /// Broker priority from the spec.
    pub priority: u32,
    /// The project's run: agent core, shards and books.
    pub run: Run<'a>,
    /// Lifecycle state.
    pub status: ProjectStatus,
    /// Last dispatch round granted nothing *because of pool contention*
    /// (annotator slots held by other projects) — the project must stay
    /// alive: the contended slots are tied to in-flight assignments
    /// elsewhere, so time will advance and free them.
    pub starved: bool,
    /// Final labelling outcome, once completed.
    pub outcome: Option<LabellingOutcome>,
    /// Final service metrics, once completed.
    pub metrics: Option<ServiceMetrics>,
}
