//! One event-loop partition — a private event queue plus a private
//! ledger slice — and the one function that books what it settles.
//!
//! A [`Run`](crate::Run) owns its shards. The single-run pump
//! ([`AsyncRuntime`](crate::AsyncRuntime)) runs on one shard and settles
//! it an event at a time ([`Shard::step`]). The multi-tenant service
//! shards each project's objects `object mod P`,
//! so every shard owns a disjoint set of objects, its own
//! [`EventQueue`] and its own [`AssignmentLedger`] (with shard-local
//! assignment ids). That disjointness is the service's parallelism
//! story: a scheduling round advances every shard of every active
//! project to the same horizon concurrently ([`Shard::advance`]) — no
//! shard touches another's state — and the settlements each shard
//! produced are merged back *sequentially in (project, shard, event)
//! order*, so the merged answer stream, the budget charges and the
//! trace are identical no matter how many threads advanced the shards.
//!
//! Money never moves inside a shard. Deliveries and expiries settle
//! against the shard ledger only; the returned [`ShardEvent`]s carry the
//! cost, and [`RunBook::apply`] posts it to the run's [`AccountBook`]
//! account. Both runtimes book every settlement through that one
//! function.

use crate::checkpoint::ShardState;
use crate::clock::EventQueue;
use crate::core_loop::{BudgetView, RefreshReply, RefreshRequest};
use crate::error::ServeError;
use crate::event::{EventKind, TraceEvent};
use crate::ledger::{AccountBook, AssignmentLedger, AssignmentStatus, Delivery, Expiry};
use crate::metrics::MetricsCollector;
use crowdrl_types::{
    AnnotatorId, Answer, AnswerSet, AssignmentId, ClassId, ObjectId, Result, SimTime,
};
use std::collections::HashSet;
use std::sync::Arc;

/// A settlement one shard produced, in event order. `uid` is the id the
/// run's trace uses for the assignment (also its sampling-stream index):
/// the pump's shard-local id, or the service-wide id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardEvent {
    /// An answer arrived in time.
    Delivered {
        /// Trace id of the assignment.
        uid: u64,
        /// The object answered.
        object: ObjectId,
        /// The annotator who answered (their slot frees up).
        annotator: AnnotatorId,
        /// The label given.
        label: ClassId,
        /// Answer latency.
        latency: SimTime,
        /// Cost to charge the run's account.
        cost: f64,
        /// Arrival time.
        at: SimTime,
    },
    /// An answer arrived after its assignment already settled (late
    /// after expiry, or a duplicate copy) — dropped, nothing charged.
    RejectedLate {
        /// Trace id of the assignment.
        uid: u64,
        /// Arrival time.
        at: SimTime,
    },
    /// The timeout fired first: the reservation and the annotator slot
    /// are released.
    Expired {
        /// Trace id of the assignment.
        uid: u64,
        /// The object whose question died.
        object: ObjectId,
        /// The annotator whose slot frees up.
        annotator: AnnotatorId,
        /// Reservation to release on the run's account.
        cost: f64,
        /// Expiry time.
        at: SimTime,
    },
}

/// Everything one shard settled during one round's advance.
#[derive(Debug, Default)]
pub struct ShardBatch {
    /// Settlements in event (pop) order.
    pub events: Vec<ShardEvent>,
    /// Events popped, including no-op pops (a timeout firing after its
    /// answer already delivered) — the per-project event counter.
    pub processed: usize,
}

/// One event-loop partition (see module docs).
#[derive(Debug)]
pub struct Shard {
    queue: EventQueue,
    ledger: AssignmentLedger,
    /// Shard-local assignment id → trace id.
    uids: Vec<u64>,
    /// Shard-local assignment id → the label the virtual crowd sampled
    /// (`None` = dropped; only the timeout will resolve it).
    labels: Vec<Option<ClassId>>,
    /// The horizon this shard was last advanced to — its merge
    /// frontier. The project's watermark is the min over its shards.
    frontier: SimTime,
    /// Settlements of the advance in progress. [`advance`](Self::advance)
    /// accumulates here and hands the batch out only on normal return,
    /// so a panic mid-advance leaves every already-settled event
    /// recoverable via [`drain_staged`](Self::drain_staged) — the ledger
    /// and this staging area never disagree about what was settled.
    staged: ShardBatch,
}

impl Shard {
    /// An empty shard with its frontier at `start`.
    pub fn new(start: SimTime) -> Self {
        Self {
            queue: EventQueue::new(),
            ledger: AssignmentLedger::new(),
            uids: Vec::new(),
            labels: Vec::new(),
            frontier: start,
            staged: ShardBatch::default(),
        }
    }

    /// The shard clock: the time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Assignments ever opened here — also the next shard-local id.
    pub fn opened(&self) -> usize {
        self.ledger.len()
    }

    /// The merge frontier (last advance horizon).
    pub fn frontier(&self) -> SimTime {
        self.frontier
    }

    /// Time of the shard's earliest pending event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek_at()
    }

    /// Whether no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Pending (unsettled) events in this shard's queue — the
    /// settlement-backlog contribution the overload bound reads.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether `(object, annotator)` holds a live claim here.
    pub fn pair_claimed(&self, object: ObjectId, annotator: AnnotatorId) -> bool {
        self.ledger.pair_claimed(object, annotator)
    }

    /// Objects with an in-flight assignment (the refresh `blocked` set).
    pub fn objects_in_flight(&self) -> HashSet<ObjectId> {
        self.ledger.objects_in_flight()
    }

    /// Open an assignment whose budget was already reserved on the run's
    /// account: record it in the shard ledger and schedule, in this
    /// order, its delivery (if the crowd answered), a duplicate copy of
    /// the delivery (if the fault injector sent one; absolute time) and
    /// its timeout. The push order fixes the events' sequence numbers,
    /// and so the order of same-instant settlements.
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
    ) -> Result<()> {
        let local = self
            .ledger
            .dispatch_reserved(object, annotator, cost, now, deadline)?;
        debug_assert_eq!(local.0 as usize, self.uids.len());
        self.uids.push(uid);
        self.labels.push(response.map(|(label, _)| label));
        if let Some((_, latency)) = response {
            self.queue.push(now + latency, EventKind::Deliver(local))?;
        }
        if let Some(at) = duplicate_at {
            // The copy replays the same assignment id; the ledger's
            // exactly-once rule rejects it on arrival.
            self.queue.push(at, EventKind::Deliver(local))?;
        }
        self.queue.push(deadline, EventKind::Expire(local))?;
        Ok(())
    }

    /// Pop the earliest pending event and settle it against the ledger.
    /// `None` when the queue is empty or the pop was a no-op (a timeout
    /// firing after its answer already delivered). Touches only this
    /// shard's state.
    pub fn step(&mut self) -> Result<Option<ShardEvent>> {
        let Some(event) = self.queue.pop() else {
            return Ok(None);
        };
        let at = event.at;
        Ok(match event.kind {
            EventKind::Deliver(local) => {
                let delivery = self.ledger.settle_deliver(local, at)?;
                let idx = local.0 as usize;
                match delivery {
                    Delivery::Accepted { cost, latency } => {
                        let (object, annotator) = self.claim(local)?;
                        let label = self.labels[idx].ok_or(ServeError::MissingLabel(local))?;
                        Some(ShardEvent::Delivered {
                            uid: self.uids[idx],
                            object,
                            annotator,
                            label,
                            latency,
                            cost,
                            at,
                        })
                    }
                    Delivery::Rejected => Some(ShardEvent::RejectedLate {
                        uid: self.uids[idx],
                        at,
                    }),
                }
            }
            EventKind::Expire(local) => match self.ledger.settle_expire(local)? {
                Expiry::TimedOut { cost } => {
                    let (object, annotator) = self.claim(local)?;
                    Some(ShardEvent::Expired {
                        uid: self.uids[local.0 as usize],
                        object,
                        annotator,
                        cost,
                        at,
                    })
                }
                Expiry::AlreadySettled => None,
            },
        })
    }

    /// The (object, annotator) pair behind a shard-local id.
    fn claim(&self, local: AssignmentId) -> Result<(ObjectId, AnnotatorId)> {
        let record = self
            .ledger
            .record(local)
            .ok_or(ServeError::UnknownAssignment(local))?;
        Ok((record.object, record.annotator))
    }

    /// Pop and settle every event at or before `horizon`, recording the
    /// settlements in pop order. Touches only this shard's state — safe
    /// to run concurrently with other shards' advances.
    pub fn advance(&mut self, horizon: SimTime) -> Result<ShardBatch> {
        while self.queue.peek_at().is_some_and(|at| at <= horizon) {
            self.staged.processed += 1;
            if let Some(event) = self.step()? {
                self.staged.events.push(event);
            }
        }
        self.frontier = horizon;
        Ok(std::mem::take(&mut self.staged))
    }

    /// Take whatever an interrupted [`advance`](Self::advance) had
    /// already settled. After a normal advance this is empty; after a
    /// panic it holds the settlements whose returned batch unwound, so
    /// the containment path can still release their slots and
    /// reservations instead of leaking them.
    pub fn drain_staged(&mut self) -> ShardBatch {
        std::mem::take(&mut self.staged)
    }

    /// Cancel every in-flight assignment (the project is finishing
    /// early): settle them expired and return `(annotator, cost)` per
    /// cancellation so the caller can release broker slots and account
    /// reservations. Cancellations are not trace events — the project is
    /// over; what matters is that shared resources come back.
    pub fn cancel_in_flight(&mut self) -> Result<Vec<(AnnotatorId, f64)>> {
        let live: Vec<(AssignmentId, AnnotatorId)> = self
            .ledger
            .records()
            .iter()
            .filter(|r| r.status == AssignmentStatus::InFlight)
            .map(|r| (r.id, r.annotator))
            .collect();
        let mut released = Vec::with_capacity(live.len());
        for (id, annotator) in live {
            if let Expiry::TimedOut { cost } = self.ledger.settle_expire(id)? {
                released.push((annotator, cost));
            }
        }
        Ok(released)
    }

    /// Snapshot for checkpointing. Only meaningful between settlements:
    /// the staging area must be empty (an interrupted advance means the
    /// project is being failed, not checkpointed).
    pub fn export(&self) -> ShardState {
        debug_assert!(
            self.staged.events.is_empty() && self.staged.processed == 0,
            "checkpointing a shard with staged settlements"
        );
        let (now, next_seq, events) = self.queue.snapshot();
        ShardState {
            now,
            next_seq,
            events,
            records: self.ledger.records().to_vec(),
            uids: self.uids.clone(),
            labels: self.labels.clone(),
            frontier: self.frontier,
        }
    }

    /// Rebuild a shard from an [`export`](Self::export) snapshot. The
    /// id tables must match the ledger, and every pending event must
    /// name a known assignment — a pending delivery also needs its
    /// sampled label — or the snapshot is a
    /// [`ServeError::CorruptCheckpoint`].
    pub fn restore(state: ShardState) -> Result<Self> {
        let ledger = AssignmentLedger::restore(state.records)?;
        let corrupt = |why: String| -> crowdrl_types::Error {
            ServeError::CorruptCheckpoint(format!("shard snapshot: {why}")).into()
        };
        if state.uids.len() != ledger.len() || state.labels.len() != ledger.len() {
            return Err(corrupt(format!(
                "{} records, {} uids, {} labels",
                ledger.len(),
                state.uids.len(),
                state.labels.len()
            )));
        }
        for event in &state.events {
            let (EventKind::Deliver(id) | EventKind::Expire(id)) = event.kind;
            let Some(label) = state.labels.get(id.0 as usize) else {
                return Err(corrupt(format!(
                    "pending event for unknown assignment {id}"
                )));
            };
            if matches!(event.kind, EventKind::Deliver(_)) && label.is_none() {
                return Err(corrupt(format!(
                    "pending delivery for assignment {id} has no label"
                )));
            }
        }
        Ok(Self {
            queue: EventQueue::restore(state.now, state.next_seq, state.events)?,
            ledger,
            uids: state.uids,
            labels: state.labels,
            frontier: state.frontier,
            staged: ShardBatch::default(),
        })
    }
}

/// What settled assignments leave behind in one labelling run — the
/// answers, the per-object requeue tallies, the metrics counters — and
/// the refresh watermark they feed. Every [`Run`](crate::Run) keeps one;
/// the pump and the service both book settlements
/// ([`apply`](Self::apply)) and refreshes ([`refreshed`](Self::refreshed))
/// through it.
#[derive(Debug)]
pub struct RunBook {
    /// Every accepted answer, in settlement order. Shared with the agent
    /// core per refresh as a cheap `Arc` clone; settlement writes through
    /// `Arc::make_mut`, in place once the core has dropped its copy.
    pub answers: Arc<AnswerSet>,
    /// Answers settled since the last refresh.
    pub answers_since: usize,
    /// When the last refresh ran (or the run started).
    pub last_refresh: SimTime,
    /// Per-object timeout counts.
    pub requeues: Vec<usize>,
    /// Objects that exhausted their requeue allowance.
    pub abandoned: HashSet<ObjectId>,
    /// Raw service observations (dispatches, latencies, …).
    pub collector: MetricsCollector,
}

impl RunBook {
    /// Empty books for a run over `objects` objects.
    pub fn new(objects: usize) -> Self {
        Self {
            answers: Arc::new(AnswerSet::new(objects)),
            answers_since: 0,
            last_refresh: SimTime::ZERO,
            requeues: vec![0; objects],
            abandoned: HashSet::new(),
            collector: MetricsCollector::default(),
        }
    }

    /// The abandoned objects in ascending order (the checkpoint form).
    pub fn abandoned_sorted(&self) -> Vec<ObjectId> {
        let mut abandoned: Vec<ObjectId> = self.abandoned.iter().copied().collect();
        abandoned.sort();
        abandoned
    }

    /// Whether a refresh watermark has tripped at `now`: enough answers
    /// since the last refresh, or enough time with at least one.
    pub fn watermark_due(
        &self,
        now: SimTime,
        answer_watermark: usize,
        time_watermark: f64,
    ) -> bool {
        self.answers_since >= answer_watermark
            || (self.answers_since > 0 && (now - self.last_refresh).as_f64() >= time_watermark)
    }

    /// The agent core's refresh request at `now`: these answers, the
    /// account's money, and the objects it must not select.
    pub fn refresh_request(
        &self,
        accounts: &AccountBook,
        account: usize,
        blocked: HashSet<ObjectId>,
        slots: Option<Arc<[usize]>>,
        now: SimTime,
    ) -> RefreshRequest {
        RefreshRequest {
            answers: Arc::clone(&self.answers),
            view: BudgetView {
                total: accounts.total(account),
                spent: accounts.spent(account),
                reserved: accounts.reserved(account),
            },
            blocked,
            slots,
            now,
            answers_since: self.answers_since,
        }
    }

    /// Book a refresh that ran at `at` — count it and restart the
    /// watermark — and return its trace: the refresh, then each
    /// quarantine change it reported.
    pub fn refreshed<'r>(
        &mut self,
        at: SimTime,
        reply: &'r RefreshReply,
    ) -> impl Iterator<Item = TraceEvent> + 'r {
        self.collector.refreshes += 1;
        self.answers_since = 0;
        self.last_refresh = at;
        let refreshed = TraceEvent::Refreshed {
            at,
            answers: self.answers.total_answers(),
            labelled: reply.labelled,
        };
        std::iter::once(refreshed).chain(reply.quarantine.iter().map(move |q| {
            if q.entered {
                TraceEvent::Quarantined {
                    at,
                    annotator: q.annotator,
                }
            } else {
                TraceEvent::QuarantineReleased {
                    at,
                    annotator: q.annotator,
                }
            }
        }))
    }

    /// Book one settlement: post its money to `account` (charge a
    /// delivery, release an expiry's reservation), record the answer or
    /// the timeout — requeueing the object, or abandoning it past
    /// `max_requeues` — and return the trace event.
    pub fn apply(
        &mut self,
        event: ShardEvent,
        accounts: &mut AccountBook,
        account: usize,
        max_requeues: usize,
    ) -> Result<TraceEvent> {
        Ok(match event {
            ShardEvent::Delivered {
                uid,
                object,
                annotator,
                label,
                latency,
                cost,
                at,
            } => {
                accounts.charge(account, cost)?;
                Arc::make_mut(&mut self.answers).record(Answer {
                    object,
                    annotator,
                    label,
                })?;
                self.answers_since += 1;
                self.collector.delivered += 1;
                self.collector.latencies.push(latency.as_f64());
                TraceEvent::Delivered {
                    at,
                    id: AssignmentId(uid),
                    label,
                }
            }
            ShardEvent::RejectedLate { uid, at } => {
                self.collector.rejected += 1;
                TraceEvent::Rejected {
                    at,
                    id: AssignmentId(uid),
                }
            }
            ShardEvent::Expired {
                uid,
                object,
                cost,
                at,
                ..
            } => {
                accounts.release(account, cost)?;
                self.collector.timeouts += 1;
                let len = self.requeues.len();
                let count = self
                    .requeues
                    .get_mut(object.index())
                    .ok_or(ServeError::ObjectOutOfRange { object, len })?;
                *count += 1;
                let requeued = *count <= max_requeues;
                if requeued {
                    self.collector.requeues += 1;
                } else {
                    self.abandoned.insert(object);
                }
                TraceEvent::Expired {
                    at,
                    id: AssignmentId(uid),
                    requeued,
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    /// Open assignment `uid` on object `uid`, annotator 0, dispatched at
    /// 0 with cost 1.
    fn open(
        shard: &mut Shard,
        uid: u64,
        deadline: f64,
        response: Option<(usize, f64)>,
        duplicate_at: Option<f64>,
    ) {
        let response = response.map(|(label, latency)| (ClassId(label), t(latency)));
        shard
            .open(
                ObjectId(uid as usize),
                AnnotatorId(0),
                1.0,
                uid,
                t(0.0),
                t(deadline),
                response,
                duplicate_at.map(t),
            )
            .unwrap();
    }

    #[test]
    fn advance_settles_in_event_order_up_to_the_horizon() {
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 7, 10.0, Some((1, 3.0)), None);
        // Dropped: only the timeout at 5 will resolve it.
        open(&mut shard, 8, 5.0, None, None);
        let batch = shard.advance(t(4.0)).unwrap();
        assert_eq!(batch.processed, 1);
        assert!(matches!(
            batch.events[..],
            [ShardEvent::Delivered {
                uid: 7,
                label: ClassId(1),
                ..
            }]
        ));
        assert_eq!(shard.frontier(), t(4.0));
        // The drop's timeout fires; the answered assignment's timeout is
        // a no-op pop (already delivered).
        let batch = shard.advance(t(12.0)).unwrap();
        assert_eq!(batch.processed, 2);
        assert!(matches!(
            batch.events[..],
            [ShardEvent::Expired { uid: 8, .. }]
        ));
        assert!(shard.is_idle());
    }

    #[test]
    fn step_settles_one_event_and_rejects_the_duplicate_copy() {
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 0, 10.0, Some((1, 2.0)), Some(4.0));
        assert!(matches!(
            shard.step().unwrap(),
            Some(ShardEvent::Delivered { uid: 0, .. })
        ));
        assert_eq!(shard.now(), t(2.0));
        let rejected = ShardEvent::RejectedLate { uid: 0, at: t(4.0) };
        assert_eq!(shard.step().unwrap(), Some(rejected));
        // The timeout is a no-op pop, then the queue is empty.
        assert_eq!(shard.step().unwrap(), None);
        assert!(shard.is_idle());
    }

    #[test]
    fn a_delivery_without_a_sampled_label_is_a_typed_error() {
        // A duplicate copy of a dropped answer: the crowd never sampled a
        // label, so accepting it has nothing to record.
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 0, 10.0, None, Some(1.0));
        assert_eq!(
            shard.step().unwrap_err(),
            ServeError::MissingLabel(AssignmentId(0)).into()
        );
        // A restored shard refuses such a pending delivery up front.
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 0, 10.0, Some((1, 2.0)), None);
        assert!(Shard::restore(shard.export()).is_ok());
        let mut state = shard.export();
        state.labels[0] = None;
        let err = Shard::restore(state).unwrap_err().to_string();
        assert!(
            err.contains("corrupt checkpoint") && err.contains("no label"),
            "{err}"
        );
    }

    #[test]
    fn cancel_returns_every_live_reservation() {
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 0, 10.0, Some((0, 2.0)), None);
        open(&mut shard, 1, 10.0, None, None);
        shard.advance(t(2.0)).unwrap(); // the first one delivers
        assert_eq!(
            shard.cancel_in_flight().unwrap(),
            vec![(AnnotatorId(0), 1.0)]
        );
        assert!(shard.cancel_in_flight().unwrap().is_empty());
    }

    #[test]
    fn the_book_charges_deliveries_and_requeues_then_abandons_timeouts() {
        let mut accounts = AccountBook::new();
        accounts.open(10.0).unwrap();
        accounts.reserve(0, 3.0).unwrap();
        let mut shard = Shard::new(SimTime::ZERO);
        open(&mut shard, 0, 10.0, Some((1, 2.0)), None);
        open(&mut shard, 1, 5.0, None, None);
        open(&mut shard, 2, 6.0, None, None);
        let mut book = RunBook::new(3);
        let mut traced = Vec::new();
        while let Some(event) = shard.step().unwrap() {
            traced.push(book.apply(event, &mut accounts, 0, 1).unwrap());
        }
        assert!(matches!(
            traced[..],
            [
                TraceEvent::Delivered { .. },
                TraceEvent::Expired { requeued: true, .. },
                TraceEvent::Expired { requeued: true, .. },
            ]
        ));
        assert_eq!((accounts.spent(0), accounts.reserved(0)), (1.0, 0.0));
        assert_eq!(book.answers.total_answers(), 1);
        // A second timeout on object 1 exhausts its allowance of one.
        let expired = |object| ShardEvent::Expired {
            uid: 3,
            object: ObjectId(object),
            annotator: AnnotatorId(0),
            cost: 0.0,
            at: t(7.0),
        };
        let trace = book.apply(expired(1), &mut accounts, 0, 1).unwrap();
        assert!(matches!(
            trace,
            TraceEvent::Expired {
                requeued: false,
                ..
            }
        ));
        assert_eq!(book.abandoned_sorted(), vec![ObjectId(1)]);
        // An object outside the books is a typed error, not a panic.
        assert!(book.apply(expired(9), &mut accounts, 0, 1).is_err());
    }
}
