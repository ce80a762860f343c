//! Per-project runtime state: one full CrowdRL run, sharded.

use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_serve::core_loop::AgentCore;
use crowdrl_serve::{RunBook, ServiceMetrics, Shard};
use crowdrl_types::{ObjectId, SimTime};
use std::collections::HashSet;

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

/// One admitted project's live state. The decision brain ([`AgentCore`])
/// is exactly the single-run core — the service just feeds it merged
/// cross-shard answers instead of one pump's.
pub(crate) struct Project<'a> {
    /// Submission index == account id == obs scope id.
    pub index: usize,
    /// Display name from the spec.
    pub name: String,
    /// Broker priority from the spec.
    pub priority: u32,
    /// The full single-run decision loop, scoped to this project.
    pub core: AgentCore<'a>,
    /// The project's event-loop partitions.
    pub shards: Vec<Shard>,
    /// Merged settlements across shards, in deterministic merge order:
    /// answers, requeue tallies, metrics counters, the last refresh.
    pub book: RunBook,
    /// When the project activated (queued projects start late).
    pub started_at: SimTime,
    /// Lifecycle state.
    pub status: ProjectStatus,
    /// The core reported all objects labelled.
    pub done: bool,
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

impl Project<'_> {
    /// Which shard owns `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        object.index() % self.shards.len()
    }

    /// The deterministic cross-shard merge watermark: the minimum
    /// frontier over the project's shards. Inference refreshes read
    /// state *at* this watermark — every shard has settled everything up
    /// to it, so the merged answer set is a consistent cut no matter how
    /// unevenly the shards' event queues are loaded.
    pub fn watermark(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::frontier)
            .min()
            .unwrap_or(self.started_at)
    }

    /// Earliest pending event across the project's shards.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(Shard::next_event_at).min()
    }

    /// Whether every shard's event queue is empty.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(Shard::is_idle)
    }

    /// Total pending settlement events across the project's shards (the
    /// reading [`ServiceConfig::max_settlement_backlog`] bounds).
    ///
    /// [`ServiceConfig::max_settlement_backlog`]:
    /// crate::ServiceConfig::max_settlement_backlog
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Whether a refresh is due: a watermark tripped at the merge
    /// watermark — or the project is idle (nothing in flight), in which
    /// case only a refresh can move it forward.
    pub fn refresh_due(&self, answer_watermark: usize, time_watermark: f64) -> bool {
        self.book
            .watermark_due(self.watermark(), answer_watermark, time_watermark)
            || self.is_idle()
    }

    /// Objects the core must not select: in flight on any shard, or
    /// abandoned.
    pub fn blocked(&self) -> HashSet<ObjectId> {
        let mut blocked: HashSet<ObjectId> = self.book.abandoned.iter().copied().collect();
        for shard in &self.shards {
            blocked.extend(shard.objects_in_flight());
        }
        blocked
    }
}
