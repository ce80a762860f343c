//! The service orchestrator: admission, scheduling rounds, the
//! deterministic cross-shard merge, and pool arbitration.
//!
//! # One scheduling round
//!
//! 1. **Horizon.** Take the earliest pending event across every active
//!    shard and add [`ServiceConfig::epoch`] of slack — that is the
//!    round's horizon.
//! 2. **Advance (parallel).** Every shard of every active project
//!    advances to the horizon concurrently on the shared thread pool.
//!    Shards own disjoint state, so this is embarrassingly parallel;
//!    each produces a [`ShardBatch`] of settlements in its own event
//!    order.
//! 3. **Merge (sequential).** Batches are applied in *(project, shard,
//!    event)* order through `RunBook::apply` — the single-run pump's
//!    settlement function: deliveries charge the project's account
//!    ([`AccountBook`]), expiries release reservations and requeue
//!    objects; both release broker slots. The merged answer stream, money
//!    movement, and trace are therefore identical at any thread count.
//! 4. **Refresh (parallel).** Projects whose watermark is due run truth
//!    inference + DQN training concurrently — each project's
//!    [`AgentCore`] is private state.
//! 5. **Grant (sequential).** Panels are arbitrated through the
//!    [`PoolBroker`] in *(priority descending, submission index
//!    ascending)* order. Each granted assignment samples its response
//!    (a pure per-uid stream) and opens on its shard as it is granted,
//!    exactly as the single-run pump dispatches — so a panel naming one
//!    pair twice finds it claimed the second time.
//!
//! # Why both exec modes are bit-identical
//!
//! [`ExecMode`] does not select an algorithm — it sets the thread cap
//! around *one* implementation (`SingleThread` caps the pool at 1).
//! Every parallel section writes disjoint, pre-indexed slots and every
//! stateful effect happens in the sequential merge/grant phases, so the
//! trace is invariant by construction, not by testing luck.
//!
//! [`ExecMode`]: crowdrl_serve::ExecMode
//! [`ShardBatch`]: crowdrl_serve::ShardBatch
//! [`AccountBook`]: crowdrl_serve::AccountBook
//! [`AgentCore`]: crowdrl_serve::core_loop::AgentCore

use crate::broker::PoolBroker;
use crate::checkpoint::{
    service_fingerprint, ActiveProjectState, ProjectCheckpoint, ServiceCheckpoint,
};
use crate::config::{AdmissionPolicy, ProjectSpec, ServiceConfig};
use crate::error::ServiceError;
use crate::metrics::{AggregateMetrics, ProjectReport, ServiceOutcome};
use crate::project::{Project, ProjectStatus};
use crowdrl_linalg::pool as tpool;
use crowdrl_obs as obs;
use crowdrl_serve::sampler::{sample_outcome, SampleJob};
use crowdrl_serve::{AccountBook, Run, RunControl, Shard, ShardBatch, ShardEvent, TraceEvent};
use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool};
use crowdrl_types::{AnnotatorId, AssignmentId, Error, ObjectId, Result, SimTime};
use rand::Rng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Receives each [`ServiceCheckpoint`] as it is cut and decides whether
/// the run continues (mirrors `crowdrl-serve`'s `CheckpointSink`).
pub type ServiceCheckpointSink<'s> = &'s mut dyn FnMut(ServiceCheckpoint) -> RunControl;

/// How a checkpoint-aware service run ended.
#[derive(Debug)]
pub enum ServiceRunOutcome {
    /// Every project ran to completion (or failure/rejection) and the
    /// full outcome is available.
    Completed(Box<ServiceOutcome>),
    /// A checkpoint sink requested a halt mid-run. The checkpoint just
    /// handed to the sink resumes the run exactly where it stopped.
    Halted,
}

/// A multi-tenant labelling service: many concurrent CrowdRL projects
/// over one shared annotator pool. See the module docs for the round
/// structure and the determinism argument.
///
/// [`ExecMode`]: crowdrl_serve::ExecMode
#[derive(Debug, Clone)]
pub struct Service {
    config: ServiceConfig,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(config: ServiceConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Run every submitted project to completion and return one report
    /// per project plus the merged trace and cross-project aggregate.
    ///
    /// `rng` seeds the shared virtual crowd (latency dynamics) and each
    /// project's agent core, all drawn up front in submission order —
    /// the run itself is deterministic given (specs, pool, rng state,
    /// config) and bit-identical across [`ExecMode`]s.
    pub fn run<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<ServiceOutcome> {
        match self.run_inner(specs, pool, rng, None, None)? {
            ServiceRunOutcome::Completed(outcome) => Ok(*outcome),
            ServiceRunOutcome::Halted => unreachable!("no sink, nothing can halt"),
        }
    }

    /// [`run`](Self::run), cutting a [`ServiceCheckpoint`] into `sink`
    /// every [`ServiceConfig::checkpoint_every_rounds`] scheduling
    /// rounds. The sink returning [`RunControl::Halt`] stops the run as
    /// [`ServiceRunOutcome::Halted`]; [`resume`](Self::resume) with the
    /// last checkpoint finishes it bit-identically to an uninterrupted
    /// run — in either [`ExecMode`].
    pub fn run_with_checkpoints<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: ServiceCheckpointSink<'_>,
    ) -> Result<ServiceRunOutcome> {
        self.run_inner(specs, pool, rng, Some(sink), None)
    }

    /// Resume a halted run from `checkpoint`. `specs`, `pool`, and the
    /// rng must be handed over exactly as they were to the original run
    /// (the checkpoint's config fingerprint is verified and a mismatch
    /// is a typed [`ServiceError::ConfigMismatch`]); the rng is consumed
    /// identically, so the same seeding discipline reproduces the same
    /// virtual crowd.
    pub fn resume<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: ServiceCheckpoint,
        sink: ServiceCheckpointSink<'_>,
    ) -> Result<ServiceRunOutcome> {
        self.run_inner(specs, pool, rng, Some(sink), Some(checkpoint))
    }

    fn run_inner<R: Rng + ?Sized>(
        &self,
        specs: &[ProjectSpec],
        pool: &AnnotatorPool,
        rng: &mut R,
        mut sink: Option<ServiceCheckpointSink<'_>>,
        checkpoint: Option<ServiceCheckpoint>,
    ) -> Result<ServiceRunOutcome> {
        if specs.is_empty() {
            return Err(Error::InvalidParameter(
                "service run needs at least one project".into(),
            ));
        }
        if pool.is_empty() {
            return Err(Error::InvalidParameter("annotator pool is empty".into()));
        }
        for spec in specs {
            spec.config.validate()?;
            if spec.dataset.is_empty() {
                return Err(Error::InvalidParameter(format!(
                    "project '{}' has an empty dataset",
                    spec.name
                )));
            }
        }
        obs::init_from_env();
        let run_span = obs::span("service.run");

        // All randomness is drawn here, in submission order, before any
        // scheduling happens — the engine itself never touches `rng`.
        // Resume draws identically, so the same rng reproduces the same
        // virtual crowd and the same per-project seeds.
        let dynamics = self.config.dynamics.generate(pool, rng)?;
        let capacities = self.config.annotator_capacity.generate(pool)?;
        let seeds: Vec<u64> = specs.iter().map(|_| rng.random()).collect();

        // ExecMode = thread cap around one shared implementation.
        let started = Instant::now();
        let result = self.config.mode.capped(|| -> Result<ServiceRunOutcome> {
            let mut engine = Engine::new(
                &self.config,
                specs,
                pool,
                &dynamics,
                capacities.clone(),
                &seeds,
            )?;
            if let Some(cp) = checkpoint {
                let t0 = Instant::now();
                engine.restore(cp, capacities)?;
                obs::counter_add("service.checkpoint.restore", 1);
                obs::gauge(
                    "service.checkpoint.restore_ns",
                    t0.elapsed().as_nanos() as f64,
                );
            }
            if engine.run(&mut sink)? {
                return Ok(ServiceRunOutcome::Halted);
            }
            Ok(ServiceRunOutcome::Completed(Box::new(
                engine.into_outcome(started.elapsed().as_secs_f64()),
            )))
        });
        let outcome = result?;
        drop(run_span);
        if let ServiceRunOutcome::Completed(o) = &outcome {
            o.aggregate.emit_trace();
        }
        obs::checkpoint();
        Ok(outcome)
    }
}

/// The live scheduling state for one service run.
struct Engine<'a> {
    cfg: &'a ServiceConfig,
    specs: &'a [ProjectSpec],
    pool: &'a AnnotatorPool,
    dynamics: &'a [AnnotatorDynamics],
    /// One slot per submitted project; `None` = refused at admission.
    projects: Vec<Option<Project<'a>>>,
    /// Submission indices waiting for a capacity slot (policy `Queue`).
    queued: VecDeque<usize>,
    /// Submission indices of running projects, ascending (initial fill
    /// and FIFO promotion both preserve submission order).
    active: Vec<usize>,
    accounts: AccountBook,
    broker: PoolBroker,
    trace: Vec<(usize, TraceEvent)>,
    /// Service-wide assignment counter: trace id and sampling-stream
    /// index for every dispatch, across all projects.
    next_uid: u64,
    now: SimTime,
    rounds: usize,
    timeout: SimTime,
    /// Per-submission typed error, `None` for projects that are healthy
    /// (or still running). Admission refusals are recorded at
    /// construction, mid-run failures by [`fail_project`](Self::fail_project).
    errors: Vec<Option<ServiceError>>,
    /// How many submissions the bounded admission queue shed (a subset
    /// of the rejected count). Recomputed deterministically from the
    /// config at construction, so checkpoints need not carry it.
    shed: usize,
}

/// The runs of the distinct admitted projects `indices`, in that order,
/// borrowed mutably at once (each is handed to its own parallel chunk).
fn runs_mut<'p, 'a>(
    projects: &'p mut [Option<Project<'a>>],
    indices: &[usize],
) -> Vec<&'p mut Run<'a>> {
    let mut runs: Vec<Option<&mut Run<'a>>> = projects
        .iter_mut()
        .map(|p| p.as_mut().map(|p| &mut p.run))
        .collect();
    indices
        .iter()
        .map(|&i| runs[i].take().expect("distinct admitted projects"))
        .collect()
}

/// Render a caught panic payload for the typed `ProjectFailed` error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        specs: &'a [ProjectSpec],
        pool: &'a AnnotatorPool,
        dynamics: &'a [AnnotatorDynamics],
        capacities: Vec<usize>,
        seeds: &[u64],
    ) -> Result<Self> {
        let mut accounts = AccountBook::new();
        let mut projects: Vec<Option<Project<'a>>> = Vec::with_capacity(specs.len());
        let mut queued = VecDeque::new();
        let mut errors: Vec<Option<ServiceError>> = Vec::with_capacity(specs.len());
        let mut shed = 0usize;
        for (i, spec) in specs.iter().enumerate() {
            // Account ids are dense and opened in submission order, so
            // account id == submission index — even for rejected
            // projects (their accounts just never move).
            let account = accounts.open(spec.config.budget)?;
            debug_assert_eq!(account, i);
            let over = i >= cfg.capacity;
            // Overload shedding: under `Queue` with a bounded depth,
            // submissions past `capacity + max_queue_depth` are refused
            // up front instead of parked forever.
            let queue_full = cfg.max_queue_depth > 0 && i >= cfg.capacity + cfg.max_queue_depth;
            let admitted = !over || (cfg.admission == AdmissionPolicy::Queue && !queue_full);
            if !admitted {
                let reason = if cfg.admission == AdmissionPolicy::Reject {
                    format!("service at capacity ({})", cfg.capacity)
                } else {
                    shed += 1;
                    obs::counter_add("admission.shed", 1);
                    format!(
                        "admission queue full ({} running + {} queued) — shed",
                        cfg.capacity, cfg.max_queue_depth
                    )
                };
                errors.push(Some(ServiceError::AdmissionRejected { project: i, reason }));
                projects.push(None);
                continue;
            }
            errors.push(None);
            let mut run = Run::new(
                spec.config.clone(),
                &spec.dataset,
                pool,
                seeds[i],
                cfg.quarantine.clone(),
            )?;
            run.core.set_obs_scope(format!("project.{i}."));
            projects.push(Some(Project {
                index: i,
                name: spec.name.clone(),
                priority: spec.priority,
                run,
                status: ProjectStatus::Queued,
                starved: false,
                outcome: None,
                metrics: None,
            }));
            // Every admitted project starts queued; the first
            // `fill_active` promotes the first `capacity` of them at
            // time zero.
            queued.push_back(i);
        }
        Ok(Self {
            cfg,
            specs,
            pool,
            dynamics,
            projects,
            queued,
            active: Vec::new(),
            accounts,
            broker: PoolBroker::new(capacities, cfg.shared_evidence_threshold),
            trace: Vec::new(),
            next_uid: 0,
            now: SimTime::ZERO,
            rounds: 0,
            timeout: SimTime::new(cfg.timeout)?,
            errors,
            shed,
        })
    }

    fn project(&self, i: usize) -> &Project<'a> {
        self.projects[i].as_ref().expect("admitted project")
    }

    fn project_mut(&mut self, i: usize) -> &mut Project<'a> {
        self.projects[i].as_mut().expect("admitted project")
    }

    /// Promote queued projects into free capacity slots, activating them
    /// at the current simulated time.
    ///
    /// When [`ServiceConfig::min_free_slot_ratio`] is set, promotion is
    /// deferred while the shared pool's free-slot ratio sits below the
    /// floor — the service degrades to queueing instead of piling a
    /// fresh tenant's initial burst onto saturated annotators. The floor
    /// never deadlocks: with no active tenants the queue must drain
    /// regardless of load, so an empty active set always promotes.
    fn fill_active(&mut self) -> Result<()> {
        while self.active.len() < self.cfg.capacity {
            if self.queued.is_empty() {
                break;
            }
            if self.cfg.min_free_slot_ratio > 0.0 && !self.active.is_empty() {
                let total = self.broker.total_capacity();
                let free = total.saturating_sub(self.broker.total_load());
                if (free as f64) < self.cfg.min_free_slot_ratio * total as f64 {
                    break;
                }
            }
            let i = self.queued.pop_front().expect("checked non-empty");
            self.activate(i)?;
        }
        Ok(())
    }

    /// Start project `i` now: create its shards, mark it active, and
    /// dispatch its initial stratified panels through the broker.
    fn activate(&mut self, i: usize) -> Result<()> {
        let at = self.now;
        let shards = self
            .cfg
            .shards_per_project
            .min(self.specs[i].dataset.len())
            .max(1);
        let panels = {
            let p = self.project_mut(i);
            p.status = ProjectStatus::Active;
            p.run.start(at, shards);
            p.run.core.initial_panels()
        };
        self.active.push(i);
        self.dispatch(i, &panels)?;
        Ok(())
    }

    /// Grant one project's panels in the order the core proposed: per
    /// admissible assignment, reserve its budget and an annotator slot,
    /// sample the response, defer it past any project outage and open it
    /// on the project's run. The project is starved when nothing went out
    /// and a slot was refused *for pool contention* (held by in-flight
    /// work, so it frees itself as time advances). Returns the count.
    fn dispatch(&mut self, i: usize, panels: &[(ObjectId, Vec<AnnotatorId>)]) -> Result<usize> {
        let (now, deadline) = (self.now, self.now + self.timeout);
        let mut dispatched = 0;
        let mut contended = false;
        for (object, annotators) in panels {
            for &annotator in annotators {
                let a = annotator.index();
                let cost = self.pool.profile(annotator).cost;
                if self.project(i).run.pair_claimed(*object, annotator)
                    || !self.accounts.can_reserve(i, cost)
                    || self.broker.blocked(a)
                {
                    continue;
                }
                if !self.broker.has_slot(a) {
                    contended = true;
                    continue;
                }
                self.accounts.reserve(i, cost)?;
                self.broker.acquire(a);
                let uid = self.next_uid;
                self.next_uid += 1;
                let job = SampleJob {
                    id: AssignmentId(uid),
                    object: *object,
                    annotator,
                    truth: self.specs[i].dataset.truth(object.index()),
                };
                // Project-scoped outage windows push the arrival past the
                // window's end (fixed point — windows may chain); an
                // arrival deferred past the deadline late-rejects as
                // usual. Untouched arrivals keep their exact latency bits,
                // so projects without outages are bit-identical to a
                // no-fault run.
                let response =
                    match sample_outcome(self.cfg.sampling_seed, job, self.pool, self.dynamics) {
                        Some((label, latency)) => {
                            let arrival = now + latency;
                            let deferred = self.cfg.faults.defer(i, arrival.as_f64());
                            if deferred == arrival.as_f64() {
                                Some((label, latency))
                            } else {
                                obs::counter_add("fault.injected.outage", 1);
                                Some((label, SimTime::new(deferred)? - now))
                            }
                        }
                        None => None,
                    };
                let run = &mut self.project_mut(i).run;
                let opened =
                    run.open(*object, annotator, cost, uid, now, deadline, response, None)?;
                self.trace.push((i, opened));
                dispatched += 1;
            }
        }
        self.project_mut(i).starved = contended && dispatched == 0;
        Ok(dispatched)
    }

    /// Advance every active shard to `horizon` in parallel, then merge
    /// the settlements sequentially in (project, shard, event) order.
    ///
    /// Every chunk runs under `catch_unwind`, so a panicking shard —
    /// injected by the fault plan or genuine — is contained to its own
    /// project: the offender is failed via
    /// [`fail_project`](Self::fail_project) (releasing everything it
    /// held) while every other tenant's batch merges normally.
    fn advance_and_merge(&mut self, horizon: SimTime) -> Result<()> {
        // One work item per active shard, in (project, shard) order.
        // Injected panics fire on the project's first shard, in the first
        // round whose horizon passes the scheduled time.
        let faults = &self.cfg.faults;
        let mut work = Vec::new();
        for (&i, run) in self
            .active
            .iter()
            .zip(runs_mut(&mut self.projects, &self.active))
        {
            for (s, shard) in run.shards.iter_mut().enumerate() {
                let panic_at = faults
                    .panic_at(i)
                    .filter(|&at| s == 0 && at <= horizon.as_f64());
                work.push((i, panic_at, shard));
            }
        }
        if work.is_empty() {
            return Ok(());
        }
        // A panic unwinds only out of `Shard::advance`, whose staged-batch
        // design keeps the shard's settled-but-unreported events
        // recoverable.
        let results = tpool::map_mut(&mut work, |(_, panic_at, shard)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(at) = panic_at {
                    panic!("injected shard panic at t={at}");
                }
                shard.advance(horizon)
            }))
        });
        let owners: Vec<usize> = work.iter().map(|&(i, ..)| i).collect();
        // Merge project by project. Once one of a project's shards has
        // panicked, its later batches are diverted to the containment
        // path, so the slots and reservations they held are released,
        // never charged.
        let mut results = owners.into_iter().zip(results).peekable();
        while let Some(&(i, _)) = results.peek() {
            let (mut orphaned, mut panicked) = (Vec::new(), None);
            while let Some((_, result)) = results.next_if(|&(p, _)| p == i) {
                match result {
                    Err(payload) => {
                        panicked.get_or_insert_with(|| panic_message(payload.as_ref()));
                    }
                    Ok(batch) if panicked.is_some() => orphaned.push(batch?),
                    Ok(batch) => {
                        let batch = batch?;
                        for event in batch.events {
                            self.apply(i, event)?;
                        }
                        self.project_mut(i).run.book.collector.events += batch.processed;
                    }
                }
            }
            if let Some(msg) = panicked {
                self.fail_project(i, format!("shard panicked: {msg}"), orphaned)?;
            }
        }
        Ok(())
    }

    /// Contain a mid-run failure to project `i`: void its unmerged
    /// settlements (releasing the broker slots and budget reservations
    /// they held — never charging), cancel its in-flight assignments,
    /// withdraw its quarantine evidence from the shared broker, freeze
    /// its metrics, and record the typed error. Every other tenant keeps
    /// running; the freed capacity slot is refilled from the admission
    /// queue at the end of the round.
    fn fail_project(&mut self, i: usize, reason: String, orphaned: Vec<ShardBatch>) -> Result<()> {
        // Settlements that never merged: sibling shards' returned
        // batches plus whatever the interrupted advance had staged.
        let mut batches = orphaned;
        let shards = &mut self.project_mut(i).run.shards;
        batches.extend(shards.iter_mut().map(Shard::drain_staged));
        for event in batches.into_iter().flat_map(|batch| batch.events) {
            if let ShardEvent::Delivered {
                annotator, cost, ..
            }
            | ShardEvent::Expired {
                annotator, cost, ..
            } = event
            {
                self.broker.release(annotator.index());
                self.accounts.release(i, cost)?;
            }
        }
        self.retire(i, ProjectStatus::Failed)?;
        self.errors[i] = Some(ServiceError::ProjectFailed { project: i, reason });
        obs::counter_add("service.project_failed", 1);
        Ok(())
    }

    /// Take project `i` out of the active set as `status`: settle its
    /// in-flight assignments expired (returning their broker slots and
    /// budget reservations), withdraw its quarantine evidence from the
    /// shared broker, and freeze its metrics.
    fn retire(&mut self, i: usize, status: ProjectStatus) -> Result<()> {
        let p = self.projects[i].as_mut().expect("retiring project");
        let mut released = Vec::new();
        for shard in &mut p.run.shards {
            released.extend(shard.cancel_in_flight()?);
        }
        for (annotator, cost) in released {
            self.broker.release(annotator.index());
            self.accounts.release(i, cost)?;
        }
        self.broker.clear_project(i);
        let spent = self.accounts.spent(i);
        let p = self.projects[i].as_mut().expect("retiring project");
        let collector = std::mem::take(&mut p.run.book.collector);
        let metrics = collector.finish(p.run.watermark() - p.run.started_at, 0.0, spent);
        metrics.emit_trace_scoped(&format!("project.{}.", p.index));
        p.metrics = Some(metrics);
        p.status = status;
        self.active.retain(|&x| x != i);
        Ok(())
    }

    /// Fail any active project whose scheduled abort time the service
    /// clock has passed.
    fn apply_aborts(&mut self) -> Result<()> {
        let due: Vec<(usize, f64)> = self
            .active
            .iter()
            .filter_map(|&i| {
                self.cfg
                    .faults
                    .abort_at(i)
                    .filter(|&at| at <= self.now.as_f64())
                    .map(|at| (i, at))
            })
            .collect();
        for (i, at) in due {
            self.fail_project(
                i,
                format!("fault plan aborted the project at t={at}"),
                Vec::new(),
            )?;
        }
        Ok(())
    }

    /// Apply one settlement to the shared books, the project state, and
    /// the trace. Called only from the sequential merge.
    fn apply(&mut self, i: usize, event: ShardEvent) -> Result<()> {
        if let ShardEvent::Delivered { annotator, .. } | ShardEvent::Expired { annotator, .. } =
            event
        {
            self.broker.release(annotator.index());
        }
        let max_requeues = self.cfg.max_requeues;
        let p = self.projects[i].as_mut().expect("active project");
        let traced = p
            .run
            .book
            .apply(event, &mut self.accounts, i, max_requeues)?;
        self.trace.push((i, traced));
        Ok(())
    }

    /// Run truth inference + training for every due project in parallel,
    /// then handle the replies — quarantine evidence, trace, and grant
    /// arbitration — sequentially in `due` order (priority descending,
    /// submission ascending). Returns total assignments dispatched.
    fn refresh_round(&mut self, due: &[usize]) -> Result<usize> {
        if due.is_empty() {
            return Ok(0);
        }
        // One snapshot of the pool's free slots per round, indexed by
        // annotator: the cores skip exhausted annotators and spread a
        // batch over those that can take it. It is read before this
        // round's grants, so every due project sees the same table; the
        // broker still arbitrates each grant, so an optimistic snapshot
        // costs at most a skipped grant, never an overcommit.
        let slots: Arc<[usize]> = (0..self.broker.annotators())
            .map(|a| self.broker.free_slots(a))
            .collect();
        let mut work = Vec::with_capacity(due.len());
        for (&i, run) in due.iter().zip(runs_mut(&mut self.projects, due)) {
            let request = run.book.refresh_request(
                &self.accounts,
                i,
                run.blocked(),
                Some(Arc::clone(&slots)),
                run.watermark(),
            );
            work.push((run, request));
        }
        // Each item is one project's private run; replies come back in
        // `due` order.
        let replies = tpool::map_mut(&mut work, |(run, request)| {
            let reply = run.refresh(request)?;
            Ok::<_, Error>((request.now, reply))
        });
        // Release the requests' answer-set clones, so the next settlement's
        // `Arc::make_mut` writes in place.
        drop(work);
        let mut total_dispatched = 0;
        for (&i, reply) in due.iter().zip(replies) {
            let (now, reply) = reply?;
            let p = self.project_mut(i);
            let traced = p.run.book.refreshed(now, &reply);
            self.trace.extend(traced.map(|event| (i, event)));
            for q in &reply.quarantine {
                self.broker
                    .note_quarantine(i, q.annotator.index(), q.entered);
            }
            total_dispatched += self.dispatch(i, &reply.panels)?;
        }
        Ok(total_dispatched)
    }

    /// Complete project `i`: run the core's final inference, then
    /// [`retire`](Self::retire) it.
    fn finalize(&mut self, i: usize) -> Result<()> {
        let spent = self.accounts.spent(i);
        let p = self.projects[i].as_mut().expect("active project");
        p.outcome = Some(p.run.core.finalize(&p.run.book.answers, spent)?);
        self.retire(i, ProjectStatus::Completed)
    }

    /// The round loop (see module docs). Returns `true` if a checkpoint
    /// sink halted the run mid-way.
    fn run(&mut self, sink: &mut Option<ServiceCheckpointSink<'_>>) -> Result<bool> {
        self.fill_active()?;
        while !self.active.is_empty() {
            self.rounds += 1;
            let next_event = self
                .active
                .iter()
                .filter_map(|&i| self.project(i).run.next_event_at())
                .min();
            let had_events = next_event.is_some();
            if let Some(t) = next_event {
                let horizon = SimTime::new(t.as_f64() + self.cfg.epoch)?.max(self.now);
                self.now = horizon;
                self.advance_and_merge(horizon)?;
            }
            if !self.cfg.faults.is_noop() {
                self.apply_aborts()?;
            }
            let mut due: Vec<usize> = self
                .active
                .iter()
                .copied()
                .filter(|&i| {
                    let run = &self.project(i).run;
                    // Backpressure: a project over its settlement-backlog
                    // bound must drain before it may dispatch more work.
                    (self.cfg.max_settlement_backlog == 0
                        || run.backlog() <= self.cfg.max_settlement_backlog)
                        && run.refresh_due(self.cfg.answer_watermark, self.cfg.time_watermark)
                })
                .collect();
            due.sort_by(|&a, &b| {
                self.project(b)
                    .priority
                    .cmp(&self.project(a).priority)
                    .then(a.cmp(&b))
            });
            let dispatched = self.refresh_round(&due)?;
            // A project retires when its core says every object is
            // labelled, or when it is fully drained: no pending events,
            // nothing dispatched this round, and not merely starved by
            // pool contention (contended slots belong to in-flight work
            // elsewhere, so time will advance and free them).
            let mut finished: Vec<usize> = self
                .active
                .iter()
                .copied()
                .filter(|&i| {
                    let p = self.project(i);
                    p.run.done || (p.run.is_idle() && !p.starved)
                })
                .collect();
            // Stall-breaker: no events anywhere and a full refresh round
            // dispatched nothing — nobody can ever make progress again.
            if !had_events && dispatched == 0 {
                finished = self.active.clone();
            }
            for i in finished {
                if self.active.contains(&i) {
                    self.finalize(i)?;
                }
            }
            self.fill_active()?;
            // Checkpoint cut: end of round, after settlements merged,
            // finished projects finalized, and the queue refilled —
            // nothing is mid-flight, so the snapshot is consistent.
            if self.cfg.checkpoint_every_rounds > 0
                && self.rounds.is_multiple_of(self.cfg.checkpoint_every_rounds)
                && !self.active.is_empty()
            {
                if let Some(sink) = sink.as_deref_mut() {
                    let t0 = Instant::now();
                    let cp = self.checkpoint();
                    obs::counter_add("service.checkpoint.write", 1);
                    obs::gauge(
                        "service.checkpoint.write_ns",
                        t0.elapsed().as_nanos() as f64,
                    );
                    if sink(cp) == RunControl::Halt {
                        return Ok(true);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Snapshot the whole engine at the current round boundary.
    fn checkpoint(&self) -> ServiceCheckpoint {
        let (broker_load, broker_evidence) = self.broker.export();
        let projects = (0..self.specs.len())
            .map(|i| match &self.projects[i] {
                None => ProjectCheckpoint::Rejected,
                Some(p) => match p.status {
                    ProjectStatus::Queued => ProjectCheckpoint::Queued,
                    ProjectStatus::Active => {
                        ProjectCheckpoint::Active(Box::new(ActiveProjectState {
                            run: p.run.export(),
                            starved: p.starved,
                        }))
                    }
                    ProjectStatus::Completed => ProjectCheckpoint::Completed {
                        outcome: p.outcome.clone().expect("completed project has an outcome"),
                        metrics: p.metrics.clone().expect("completed project has metrics"),
                    },
                    ProjectStatus::Failed => ProjectCheckpoint::Failed {
                        reason: match &self.errors[p.index] {
                            Some(ServiceError::ProjectFailed { reason, .. }) => reason.clone(),
                            _ => "unknown failure".into(),
                        },
                        metrics: p.metrics.clone().expect("failed project has metrics"),
                    },
                    ProjectStatus::Rejected => unreachable!("admitted projects are never Rejected"),
                },
            })
            .collect();
        ServiceCheckpoint {
            fingerprint: service_fingerprint(self.cfg, self.specs, self.pool),
            annotators: self.pool.len(),
            now: self.now,
            rounds: self.rounds,
            next_uid: self.next_uid,
            queued: self.queued.iter().copied().collect(),
            active: self.active.clone(),
            accounts: self.accounts.export(),
            broker_load,
            broker_evidence,
            trace: self.trace.clone(),
            projects,
        }
    }

    /// Overwrite this freshly-constructed engine with a checkpoint's
    /// state. The fingerprint is verified first (a mismatch is a typed
    /// [`ServiceError::ConfigMismatch`]); queued projects keep the fresh
    /// cores [`new`](Self::new) built from the same submission-order
    /// seeds, active projects get their cores, shards, and scheduling
    /// state rebuilt bit-exactly.
    fn restore(&mut self, cp: ServiceCheckpoint, capacities: Vec<usize>) -> Result<()> {
        let expected = service_fingerprint(self.cfg, self.specs, self.pool);
        if cp.fingerprint != expected {
            return Err(ServiceError::ConfigMismatch {
                expected,
                actual: cp.fingerprint,
            }
            .into());
        }
        if cp.projects.len() != self.specs.len() || cp.accounts.len() != self.specs.len() {
            return Err(ServiceError::CorruptCheckpoint(format!(
                "checkpoint covers {} projects / {} accounts, expected {}",
                cp.projects.len(),
                cp.accounts.len(),
                self.specs.len()
            ))
            .into());
        }
        if cp.annotators != self.pool.len() {
            return Err(ServiceError::CorruptCheckpoint(format!(
                "checkpoint expects {} annotators, pool has {}",
                cp.annotators,
                self.pool.len()
            ))
            .into());
        }
        self.now = cp.now;
        self.rounds = cp.rounds;
        self.next_uid = cp.next_uid;
        self.queued = cp.queued.into_iter().collect();
        self.active = cp.active;
        self.trace = cp.trace;
        self.accounts = AccountBook::restore(&cp.accounts)?;
        self.broker = PoolBroker::restore(
            capacities,
            self.cfg.shared_evidence_threshold,
            cp.broker_load,
            cp.broker_evidence,
        )?;
        let cfg = self.cfg;
        let specs = self.specs;
        let pool = self.pool;
        for (i, pc) in cp.projects.into_iter().enumerate() {
            let admitted = self.projects[i].is_some();
            if admitted == matches!(pc, ProjectCheckpoint::Rejected) {
                let here = if admitted { "admitted" } else { "rejected" };
                return Err(ServiceError::CorruptCheckpoint(format!(
                    "project {i} is {here} here but not in the checkpoint"
                ))
                .into());
            }
            let Some(p) = self.projects[i].as_mut() else {
                continue;
            };
            match pc {
                ProjectCheckpoint::Rejected | ProjectCheckpoint::Queued => {}
                ProjectCheckpoint::Active(state) => {
                    let spec = &specs[i];
                    p.run = Run::restore(
                        spec.config.clone(),
                        &spec.dataset,
                        pool,
                        cfg.quarantine.clone(),
                        state.run,
                    )
                    .map_err(|why| {
                        ServiceError::CorruptCheckpoint(format!("project {i}: {why}"))
                    })?;
                    p.run.core.set_obs_scope(format!("project.{i}."));
                    p.status = ProjectStatus::Active;
                    p.starved = state.starved;
                }
                ProjectCheckpoint::Completed { outcome, metrics } => {
                    p.status = ProjectStatus::Completed;
                    p.run.done = true;
                    p.outcome = Some(outcome);
                    p.metrics = Some(metrics);
                }
                ProjectCheckpoint::Failed { reason, metrics } => {
                    p.status = ProjectStatus::Failed;
                    p.metrics = Some(metrics);
                    self.errors[i] = Some(ServiceError::ProjectFailed { project: i, reason });
                }
            }
        }
        Ok(())
    }

    /// Assemble the reports (submission order), aggregate, and trace.
    fn into_outcome(self, wall_seconds: f64) -> ServiceOutcome {
        let mut reports = Vec::with_capacity(self.specs.len());
        for (i, spec) in self.specs.iter().enumerate() {
            match &self.projects[i] {
                None => reports.push(ProjectReport {
                    name: spec.name.clone(),
                    status: ProjectStatus::Rejected,
                    outcome: None,
                    metrics: None,
                    error: self.errors[i].clone(),
                }),
                Some(p) => reports.push(ProjectReport {
                    name: p.name.clone(),
                    status: p.status,
                    outcome: p.outcome.clone(),
                    metrics: p.metrics.clone(),
                    error: self.errors[i].clone(),
                }),
            }
        }
        let completed: Vec<&ProjectReport> = reports
            .iter()
            .filter(|r| r.status == ProjectStatus::Completed)
            .collect();
        let delivered: Vec<usize> = completed
            .iter()
            .filter_map(|r| r.metrics.as_ref())
            .map(|m| m.answers_delivered)
            .collect();
        let sum = |f: &dyn Fn(&crowdrl_serve::ServiceMetrics) -> usize| -> usize {
            completed
                .iter()
                .filter_map(|r| r.metrics.as_ref())
                .map(f)
                .sum()
        };
        let answers_delivered = sum(&|m| m.answers_delivered);
        let aggregate = AggregateMetrics {
            admitted: reports
                .iter()
                .filter(|r| r.status != ProjectStatus::Rejected)
                .count(),
            rejected: reports
                .iter()
                .filter(|r| r.status == ProjectStatus::Rejected)
                .count(),
            failed: reports
                .iter()
                .filter(|r| r.status == ProjectStatus::Failed)
                .count(),
            shed: self.shed,
            dispatched: sum(&|m| m.dispatched),
            answers_delivered,
            timeouts: sum(&|m| m.timeouts),
            events_processed: sum(&|m| m.events_processed),
            rounds: self.rounds,
            sim_duration: self.now,
            wall_seconds,
            total_spent: (0..self.specs.len()).map(|i| self.accounts.spent(i)).sum(),
            answers_per_time_unit: if self.now.as_f64() > 0.0 {
                answers_delivered as f64 / self.now.as_f64()
            } else {
                0.0
            },
            fairness_spread: AggregateMetrics::spread(&delivered),
        };
        ServiceOutcome {
            reports,
            trace: self.trace,
            aggregate,
        }
    }
}
