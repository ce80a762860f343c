//! The single-run event pump.
//!
//! The pump is one [`Run`] — the per-run type a multi-tenant service
//! project is built on too — on one shard, next to one [`AccountBook`]
//! account, the fault injector, the supervisor backoff and the trace. It
//! settles one event at a time: it moves events, enforces timeouts and
//! exactly-once charging, and calls the run's [`AgentCore`] for every
//! decision and [`sample_outcome`] for annotator behaviour. Every
//! settlement is booked by [`RunBook::apply`], every refresh runs
//! [`Run::refresh`] and every assignment opens through [`Run::open`] —
//! the functions the service uses too.
//!
//! The pump keeps its own loop. It checks the refresh watermarks after
//! *every* event, at its shard clock, where the service settles
//! everything up to a round horizon before it refreshes; the two orders
//! differ when events share an instant, which is common (every
//! assignment one refresh dispatches gets the same deadline). When its
//! queue drains it forces a refresh, and it counts checkpoints per
//! refresh rather than per round.
//!
//! [`AgentCore`]: crate::core_loop::AgentCore
//! [`RunBook::apply`]: crate::RunBook::apply
//!
//! [`ExecMode`](crate::ExecMode) caps the shared thread pool for the run
//! ([`ExecMode::capped`](crate::ExecMode::capped)); the pump is one
//! implementation, so both modes replay each other's traces.
//!
//! Three chaos-layer concerns thread through the pump, all default-off:
//! fault injection ([`FaultInjector`]) rewrites sampled outcomes before
//! they are scheduled; the supervisor's retry backoff
//! ([`SupervisorConfig`](crate::supervisor::SupervisorConfig)) keeps
//! timed-out objects out of the candidate set for a while; and the
//! checkpoint hook snapshots the whole run at refresh boundaries so a
//! killed run can [`resume`](AsyncRuntime::resume) bit-identically.

use crate::checkpoint::{PumpCheckpoint, RunCheckpoint};
use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::event::TraceEvent;
use crate::ledger::AccountBook;
use crate::metrics::ServiceMetrics;
use crate::run::Run;
use crate::sampler::{sample_outcome, SampleJob};
use crate::shard::ShardEvent;
use crowdrl_core::{CrowdRlConfig, LabellingOutcome};
use crowdrl_obs as obs;
use crowdrl_sim::{AnnotatorDynamics, AnnotatorPool, FaultInjector, FaultRecord};
use crowdrl_types::{AnnotatorId, AssignmentId, Dataset, Error, ObjectId, Result, SimTime};
use rand::Rng;
use std::time::Instant;

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    /// The labelling result, shaped exactly like the batch workflow's.
    pub outcome: LabellingOutcome,
    /// Service-level metrics.
    pub metrics: ServiceMetrics,
    /// The deterministic event trace.
    pub trace: Vec<TraceEvent>,
}

/// What a checkpoint sink tells the runtime to do after each snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunControl {
    /// Keep running.
    Continue,
    /// Stop here; the run ends as [`RunOutcome::Halted`]. The checkpoint
    /// just handed to the sink resumes the run exactly where it stopped.
    Halt,
}

/// How a checkpoint-aware run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished normally.
    Completed(Box<AsyncOutcome>),
    /// A checkpoint sink requested a halt mid-run.
    Halted,
}

/// Receives each checkpoint and decides whether the run continues.
pub type CheckpointSink<'s> = &'s mut dyn FnMut(RunCheckpoint) -> RunControl;

/// Bump the `fault.injected.*` trace counters for one injected outcome.
fn count_faults(faults: &FaultRecord) {
    let hits = [
        (faults.no_show, "fault.injected.no_show"),
        (faults.abandoned, "fault.injected.abandon"),
        (faults.straggler, "fault.injected.straggler"),
        (faults.outage, "fault.injected.outage"),
        (faults.duplicate, "fault.injected.duplicate"),
        (faults.drifted, "fault.injected.drift"),
    ];
    for (hit, name) in hits {
        if hit {
            obs::counter_add(name, 1);
        }
    }
}

/// The pump's one budget account.
const ACCOUNT: usize = 0;

/// A run in progress: one [`Run`] on one shard, plus the parts only the
/// single-run scheduler keeps.
struct Pump<'a> {
    dataset: &'a Dataset,
    pool: &'a AnnotatorPool,
    serve: &'a ServeConfig,
    dynamics: &'a [AnnotatorDynamics],
    /// Config fingerprint stamped into every checkpoint.
    fingerprint: u64,
    /// The run on its one shard. Shard-local ids are the trace ids and
    /// the sampling-stream indices.
    run: Run<'a>,
    /// `None` when the fault plan is a no-op, so the fault-free path
    /// stays branch-cheap.
    injector: Option<FaultInjector>,
    /// One account: the run's budget and its reservations.
    accounts: AccountBook,
    trace: Vec<TraceEvent>,
    /// Per-object supervisor backoff deadline (absolute sim time); an
    /// object is withheld from refreshes until its deadline passes.
    backoff_until: Vec<f64>,
    /// Refreshes since the last checkpoint was cut.
    refreshes_since_ckpt: usize,
}

impl Pump<'_> {
    /// The shard clock, which orders the pump's settlements and refreshes.
    fn now(&self) -> SimTime {
        self.run.shards[0].now()
    }

    /// Dispatch panels: per admissible assignment, reserve its cost,
    /// sample (and fault-inject) the crowd's response, and open it on
    /// the run. Returns how many assignments went out.
    fn dispatch(&mut self, panels: &[(ObjectId, Vec<AnnotatorId>)]) -> Result<usize> {
        let now = self.now();
        let deadline = now + SimTime::new(self.serve.timeout)?;
        let mut dispatched = 0;
        for (object, annotators) in panels {
            for &annotator in annotators {
                let cost = self.pool.profile(annotator).cost;
                if self.run.pair_claimed(*object, annotator)
                    || !self.accounts.can_reserve(ACCOUNT, cost)
                {
                    continue;
                }
                self.accounts.reserve(ACCOUNT, cost)?;
                let id = AssignmentId(self.run.shards[0].opened() as u64);
                let job = SampleJob {
                    id,
                    object: *object,
                    annotator,
                    truth: self.dataset.truth(object.index()),
                };
                let sampled =
                    sample_outcome(self.serve.sampling_seed, job, self.pool, self.dynamics);
                let (response, duplicate_at) = match &self.injector {
                    Some(injector) => {
                        let injected =
                            injector.apply(id, annotator, now, self.serve.timeout, sampled);
                        count_faults(&injected.faults);
                        (injected.response, injected.duplicate_at)
                    }
                    None => (sampled, None),
                };
                let opened = self.run.open(
                    *object,
                    annotator,
                    cost,
                    id.0,
                    now,
                    deadline,
                    response,
                    duplicate_at,
                )?;
                self.trace.push(opened);
                dispatched += 1;
            }
        }
        Ok(dispatched)
    }

    /// Run a refresh step and dispatch its panels.
    fn refresh(&mut self) -> Result<usize> {
        let now = self.now();
        let mut blocked = self.run.blocked();
        if self.serve.supervisor.backoff_base > 0.0 {
            let now_f = now.as_f64();
            blocked.extend(
                self.backoff_until
                    .iter()
                    .enumerate()
                    .filter(|&(_, &until)| until > now_f)
                    .map(|(i, _)| ObjectId(i)),
            );
        }
        // The request's answer-set clone drops with the statement, so the
        // next settlement's `Arc::make_mut` stays in place. The
        // single-run pump places no per-annotator concurrency caps —
        // slot accounting is a shared-pool concern.
        let reply = self.run.refresh(&self.run.book.refresh_request(
            &self.accounts,
            ACCOUNT,
            blocked,
            None,
            now,
        ))?;
        self.trace.extend(self.run.book.refreshed(now, &reply));
        self.dispatch(&reply.panels)
    }

    /// Book one settlement; a requeued timeout also starts the object's
    /// supervisor backoff.
    fn settle(&mut self, event: ShardEvent) -> Result<()> {
        let traced =
            self.run
                .book
                .apply(event, &mut self.accounts, ACCOUNT, self.serve.max_requeues)?;
        if let (ShardEvent::Expired { object, at, .. }, TraceEvent::Expired { requeued, .. }) =
            (event, &traced)
        {
            if *requeued {
                obs::counter_add("retry.count", 1);
                let retries = self.run.book.requeues[object.index()];
                let delay = self.serve.supervisor.backoff_delay(retries);
                if delay > 0.0 {
                    self.backoff_until[object.index()] = at.as_f64() + delay;
                }
            }
        }
        self.trace.push(traced);
        Ok(())
    }

    /// Cut a checkpoint if one is due. Returns true when the sink asked
    /// the run to halt.
    fn maybe_checkpoint(&mut self, sink: CheckpointSink<'_>) -> bool {
        if self.serve.checkpoint_every == 0 {
            return false;
        }
        self.refreshes_since_ckpt += 1;
        if self.refreshes_since_ckpt < self.serve.checkpoint_every {
            return false;
        }
        self.refreshes_since_ckpt = 0;
        let write_start = Instant::now();
        let checkpoint = RunCheckpoint {
            fingerprint: self.fingerprint,
            objects: self.dataset.len(),
            annotators: self.pool.len(),
            pump: PumpCheckpoint {
                run: self.run.export(),
                account: self.accounts.export()[ACCOUNT],
                trace: self.trace.clone(),
                backoff_until: self.backoff_until.clone(),
            },
        };
        obs::counter_add("checkpoint.write", 1);
        obs::gauge(
            "checkpoint.write_ns",
            write_start.elapsed().as_nanos() as f64,
        );
        sink(checkpoint) == RunControl::Halt
    }

    /// The main loop: settle events one at a time, refresh on
    /// watermarks, and when the queue drains force a refresh to flush
    /// leftovers — stopping once a forced refresh dispatches nothing (or
    /// the agent reports done). Checkpoints are cut only *after* a
    /// refresh that keeps the run going, so every checkpoint resumes
    /// into the same loop position.
    fn run(mut self, sink: CheckpointSink<'_>) -> Result<RunOutcome> {
        let wall_start = Instant::now();
        'outer: loop {
            while !self.run.is_idle() {
                self.run.book.collector.events += 1;
                if let Some(event) = self.run.shards[0].step()? {
                    self.settle(event)?;
                }
                let (answers, time) = (self.serve.answer_watermark, self.serve.time_watermark);
                if self.run.book.watermark_due(self.now(), answers, time) {
                    self.refresh()?;
                    if self.run.done {
                        break 'outer;
                    }
                    if self.maybe_checkpoint(sink) {
                        return Ok(RunOutcome::Halted);
                    }
                }
            }
            let dispatched = self.refresh()?;
            if self.run.done || dispatched == 0 {
                break;
            }
            if self.maybe_checkpoint(sink) {
                return Ok(RunOutcome::Halted);
            }
        }
        let (now, spent) = (self.now(), self.accounts.spent(ACCOUNT));
        let outcome = self.run.core.finalize(&self.run.book.answers, spent)?;
        let metrics =
            self.run
                .book
                .collector
                .finish(now, wall_start.elapsed().as_secs_f64(), spent);
        Ok(RunOutcome::Completed(Box::new(AsyncOutcome {
            outcome,
            metrics,
            trace: self.trace,
        })))
    }
}

/// The asynchronous labelling runtime.
#[derive(Debug, Clone)]
pub struct AsyncRuntime {
    config: CrowdRlConfig,
    serve: ServeConfig,
}

impl AsyncRuntime {
    /// Pair a CrowdRL configuration with the service knobs.
    pub fn new(config: CrowdRlConfig, serve: ServeConfig) -> Self {
        Self { config, serve }
    }

    /// Label `dataset` with `pool` through the asynchronous service.
    ///
    /// `rng` seeds the per-annotator dynamics, the initial panels and the
    /// agent's private stream; annotator responses come from the
    /// per-assignment streams of
    /// [`sampling_seed`](ServeConfig::sampling_seed). Two calls with the
    /// same seeds produce identical traces and outcomes in *either*
    /// execution mode.
    pub fn run<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
    ) -> Result<AsyncOutcome> {
        match self.launch(dataset, pool, rng, None, &mut |_| RunControl::Continue)? {
            RunOutcome::Completed(outcome) => Ok(*outcome),
            RunOutcome::Halted => Err(Error::ServiceFailure(
                "run halted although no sink requested it".into(),
            )),
        }
    }

    /// Like [`run`](Self::run), but hands every due checkpoint (see
    /// [`ServeConfig::checkpoint_every`]) to `sink`, which may halt the
    /// run. Feeding a halted run's last checkpoint to
    /// [`resume`](Self::resume) continues it bit-identically.
    pub fn run_with_checkpoints<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, None, sink)
    }

    /// Continue a run from `checkpoint`. The caller must pass the same
    /// dataset, pool and an identically-seeded `rng` as the original run
    /// — the config fingerprint and state shapes are verified, and the
    /// resumed run replays the uninterrupted run's remaining trace bit
    /// for bit. `sink` works exactly as in
    /// [`run_with_checkpoints`](Self::run_with_checkpoints).
    pub fn resume<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: RunCheckpoint,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.launch(dataset, pool, rng, Some(checkpoint), sink)
    }

    /// Shared entry point: validate, build or restore the pump, and run
    /// it under the configured thread cap.
    fn launch<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        rng: &mut R,
        checkpoint: Option<RunCheckpoint>,
        sink: CheckpointSink<'_>,
    ) -> Result<RunOutcome> {
        self.config.validate()?;
        self.serve.validate()?;
        if pool.is_empty() {
            return Err(Error::InvalidParameter("annotator pool is empty".into()));
        }
        obs::init_from_env();
        let run_span = obs::span("serve.run");
        if obs::enabled() {
            // Which numeric floor this run can dispatch to (the kernels
            // actually used depend on the config's numeric mode).
            obs::annotate("simd.kernel", crowdrl_linalg::simd::kernel_name());
            obs::gauge("simd.lanes", crowdrl_linalg::simd::lanes() as f64);
        }
        // Consumed in both paths so a resume's rng stream lines up with
        // the original run's (dynamics draw + core-seed draw).
        let dynamics = self.serve.dynamics.generate(pool, rng)?;
        let core_seed: u64 = rng.random();
        let fingerprint = self.config.fingerprint();
        let serve = &self.serve;
        let result = serve.mode.capped(|| -> Result<RunOutcome> {
            let restore_start = Instant::now();
            let config = self.config.clone();
            let quarantine = serve.quarantine.clone();
            let resumed = checkpoint.is_some();
            let (run, accounts, trace, backoff_until) = match checkpoint {
                None => {
                    let mut run = Run::new(config, dataset, pool, core_seed, quarantine)?;
                    run.start(SimTime::ZERO, 1);
                    let mut accounts = AccountBook::new();
                    accounts.open(self.config.budget)?;
                    (run, accounts, Vec::new(), vec![0.0; dataset.len()])
                }
                Some(ckpt) => {
                    if ckpt.fingerprint != fingerprint {
                        return Err(ServeError::ConfigMismatch {
                            expected: fingerprint,
                            actual: ckpt.fingerprint,
                        }
                        .into());
                    }
                    let PumpCheckpoint {
                        run,
                        account,
                        trace,
                        backoff_until,
                    } = ckpt.pump;
                    if ckpt.objects != dataset.len()
                        || ckpt.annotators != pool.len()
                        || run.shards.len() != 1
                        || backoff_until.len() != dataset.len()
                    {
                        return Err(ServeError::CorruptCheckpoint(format!(
                            "checkpoint is for {} objects / {} annotators on {} shards with \
                             {} backoff deadlines; the pump runs {} / {} on one shard",
                            ckpt.objects,
                            ckpt.annotators,
                            run.shards.len(),
                            backoff_until.len(),
                            dataset.len(),
                            pool.len()
                        ))
                        .into());
                    }
                    let run = Run::restore(config, dataset, pool, quarantine, run)?;
                    (run, AccountBook::restore(&[account])?, trace, backoff_until)
                }
            };
            let mut pump = Pump {
                dataset,
                pool,
                serve,
                dynamics: &dynamics,
                fingerprint,
                run,
                injector: (!serve.faults.is_noop())
                    .then(|| FaultInjector::new(serve.faults.clone(), dataset.num_classes()))
                    .transpose()?,
                accounts,
                trace,
                backoff_until,
                refreshes_since_ckpt: 0,
            };
            if resumed {
                // A restored run re-enters the loop directly: the initial
                // panels were dispatched before the checkpoint.
                obs::counter_add("checkpoint.restore", 1);
                obs::gauge(
                    "checkpoint.restore_ns",
                    restore_start.elapsed().as_nanos() as f64,
                );
            } else {
                // A fresh run dispatches its initial panels at t = 0.
                let initial = pump.run.core.initial_panels();
                pump.dispatch(&initial)?;
            }
            pump.run(sink)
        });
        drop(run_span);
        if let Ok(RunOutcome::Completed(outcome)) = &result {
            outcome.metrics.emit_trace();
            obs::checkpoint();
        }
        result
    }
}
