//! One labelling run: the agent core plus the settlement state around it.
//!
//! A [`Run`] is the per-campaign half of both schedulers. The single-run
//! pump ([`AsyncRuntime`](crate::AsyncRuntime)) owns one on one shard;
//! the multi-tenant service owns one per project on several shards. How
//! the two order settlements and refreshes stays in the schedulers;
//! what a run *is* lives here once: its queries, the one way an
//! assignment opens, the refresh step and the checkpoint record
//! ([`RunState`]).

use crate::checkpoint::RunState;
use crate::core_loop::{AgentCore, RefreshReply, RefreshRequest};
use crate::error::ServeError;
use crate::event::TraceEvent;
use crate::shard::{RunBook, Shard};
use crate::supervisor::QuarantineConfig;
use crowdrl_core::CrowdRlConfig;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{AnnotatorId, AssignmentId, ClassId, Dataset, ObjectId, Result, SimTime};
use std::collections::HashSet;
use std::sync::Arc;

/// One labelling run (see module docs).
pub struct Run<'a> {
    /// The decision loop: inference, training, selection.
    pub core: AgentCore<'a>,
    /// Event-loop partitions; object `o` lives on shard `o mod len`.
    pub shards: Vec<Shard>,
    /// Settled answers, requeue tallies, metrics and the last refresh.
    pub book: RunBook,
    /// When the run started (a queued service project starts late).
    pub started_at: SimTime,
    /// The core reported every object labelled.
    pub done: bool,
}

impl<'a> Run<'a> {
    /// A run over `dataset` that has not [`start`](Self::start)ed yet.
    /// `seed` fixes the core's private stream.
    pub fn new(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        seed: u64,
        quarantine: QuarantineConfig,
    ) -> Result<Self> {
        Ok(Self {
            core: AgentCore::new(config, dataset, pool, seed, quarantine)?,
            shards: Vec::new(),
            book: RunBook::new(dataset.len()),
            started_at: SimTime::ZERO,
            done: false,
        })
    }

    /// Start the run at `at` on `shards` empty shards.
    pub fn start(&mut self, at: SimTime, shards: usize) {
        self.started_at = at;
        self.book.last_refresh = at;
        self.shards = (0..shards).map(|_| Shard::new(at)).collect();
    }

    /// Rebuild a run from its checkpoint record, cut under the same
    /// `config` and `quarantine`. The core, every shard and the
    /// per-object tables are checked against `dataset` and `pool`; a
    /// mismatch is a [`ServeError::CorruptCheckpoint`].
    pub fn restore(
        config: CrowdRlConfig,
        dataset: &'a Dataset,
        pool: &'a AnnotatorPool,
        quarantine: QuarantineConfig,
        state: RunState,
    ) -> Result<Self> {
        let objects = dataset.len();
        if state.answers.num_objects() != objects || state.requeues.len() != objects {
            return Err(ServeError::CorruptCheckpoint(format!(
                "answers sized for {} objects and requeues for {}, dataset has {objects}",
                state.answers.num_objects(),
                state.requeues.len()
            ))
            .into());
        }
        Ok(Self {
            core: AgentCore::restore(config, dataset, pool, quarantine, state.core)?,
            shards: state
                .shards
                .into_iter()
                .map(Shard::restore)
                .collect::<Result<_>>()?,
            book: RunBook {
                answers: Arc::new(state.answers),
                answers_since: state.answers_since,
                last_refresh: state.last_refresh,
                requeues: state.requeues,
                abandoned: state.abandoned.into_iter().collect(),
                collector: state.collector,
            },
            started_at: state.started_at,
            done: state.done,
        })
    }

    /// The run's checkpoint record. Only meaningful between settlements.
    pub fn export(&self) -> RunState {
        RunState {
            core: self.core.export_state(),
            shards: self.shards.iter().map(Shard::export).collect(),
            answers: (*self.book.answers).clone(),
            answers_since: self.book.answers_since,
            last_refresh: self.book.last_refresh,
            requeues: self.book.requeues.clone(),
            abandoned: self.book.abandoned_sorted(),
            collector: self.book.collector.clone(),
            started_at: self.started_at,
            done: self.done,
        }
    }

    /// Which shard owns `object`.
    pub fn shard_of(&self, object: ObjectId) -> usize {
        object.index() % self.shards.len()
    }

    /// The merge watermark: the minimum frontier over the run's shards.
    /// Every shard has settled everything up to it, so the answers a
    /// refresh reads at this time are a consistent cut however unevenly
    /// the shards are loaded.
    pub fn watermark(&self) -> SimTime {
        self.shards
            .iter()
            .map(Shard::frontier)
            .min()
            .unwrap_or(self.started_at)
    }

    /// Earliest pending event across the run's shards.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(Shard::next_event_at).min()
    }

    /// Whether every shard's event queue is empty.
    pub fn is_idle(&self) -> bool {
        self.shards.iter().all(Shard::is_idle)
    }

    /// Pending settlement events across the run's shards.
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Whether a refresh is due: a watermark tripped at the merge
    /// watermark, or the run is idle and only a refresh can move it.
    pub fn refresh_due(&self, answer_watermark: usize, time_watermark: f64) -> bool {
        self.book
            .watermark_due(self.watermark(), answer_watermark, time_watermark)
            || self.is_idle()
    }

    /// Objects the core must not select: in flight, or abandoned.
    pub fn blocked(&self) -> HashSet<ObjectId> {
        let mut blocked: HashSet<ObjectId> = self.book.abandoned.iter().copied().collect();
        for shard in &self.shards {
            blocked.extend(shard.objects_in_flight());
        }
        blocked
    }

    /// Whether `(object, annotator)` holds a live assignment or answer.
    pub fn pair_claimed(&self, object: ObjectId, annotator: AnnotatorId) -> bool {
        self.shards[self.shard_of(object)].pair_claimed(object, annotator)
    }

    /// Open one assignment whose cost the caller reserved and whose
    /// response it sampled (and adjusted for faults) on the object's
    /// shard ([`Shard::open`]), count the dispatch, and return its trace
    /// event.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        &mut self,
        object: ObjectId,
        annotator: AnnotatorId,
        cost: f64,
        uid: u64,
        now: SimTime,
        deadline: SimTime,
        response: Option<(ClassId, SimTime)>,
        duplicate_at: Option<SimTime>,
    ) -> Result<TraceEvent> {
        let shard = self.shard_of(object);
        self.shards[shard].open(
            object,
            annotator,
            cost,
            uid,
            now,
            deadline,
            response,
            duplicate_at,
        )?;
        self.book.collector.dispatched += 1;
        Ok(TraceEvent::Dispatched {
            at: now,
            id: AssignmentId(uid),
            object,
            annotator,
        })
    }

    /// One refresh step: inference and selection, then DQN training. The
    /// caller books the reply ([`RunBook::refreshed`]) and dispatches
    /// its panels.
    pub fn refresh(&mut self, req: &RefreshRequest) -> Result<RefreshReply> {
        let reply = self.core.refresh(req)?;
        self.core.train();
        self.done = reply.done;
        Ok(reply)
    }
}
