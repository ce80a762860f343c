//! Crash-consistent service checkpoints.
//!
//! A [`ServiceCheckpoint`] is the whole multi-tenant engine frozen at a
//! round boundary: every project's shard states and agent core, the
//! shared [`AccountBook`](crowdrl_serve::AccountBook), the
//! [`PoolBroker`](crate::PoolBroker)'s load and quarantine evidence, the
//! admission queue, and the merged trace. The cut happens *after* the
//! round's settlements merged and finished projects finalized — nothing
//! is mid-flight, so a killed service resumed from the snapshot replays
//! the remaining rounds bit-identically to an uninterrupted run, in
//! either [`ExecMode`].
//!
//! The wire format reuses `crowdrl-serve`'s checkpoint codec and its
//! [`record_codec!`] field tables — each active project's run is the
//! [`RunState`] record the single-run checkpoint stores, and the account
//! record is shared too: one
//! deterministic JSON document, `f64`s as 16-hex-digit IEEE-754 bit
//! patterns (resume must not round-trip money or clocks through decimal
//! text), objects in `BTreeMap` key order so the same checkpoint always
//! renders the same bytes.
//!
//! Restore is guarded by [`service_fingerprint`]: an FNV-1a hash of the
//! service configuration and every submitted spec, with the
//! observationally-neutral knobs canonicalized out first — [`ExecMode`]
//! (checkpoints cross SingleThread↔WorkerPool) and the checkpoint
//! cadence itself. A mismatch is a typed
//! [`ServiceError::ConfigMismatch`](crate::ServiceError), not a silent
//! divergence.
//!
//! [`ExecMode`]: crowdrl_serve::ExecMode

use crate::config::{ProjectSpec, ServiceConfig};
use crate::error::ServiceError;
use crowdrl_core::outcome::LabellingOutcome;
use crowdrl_obs::json::{parse, Value};
use crowdrl_serve::checkpoint::{
    arr_usize, bits_f64, boolean, dec_account, dec_label_state, dec_run_state, dec_stats,
    dec_trace_event, enc_account, enc_label_state, enc_run_state, enc_stats, enc_trace_event,
    field, get_bool, get_f64_bits, get_hex_u64, get_list, get_opt_classes, get_record,
    get_sim_time, get_str, get_usize, hex_u64, list, num, obj, opt_classes, sim_time, usizes,
    versioned,
};
use crowdrl_serve::{record_codec, AccountState, ExecMode, RunState, ServiceMetrics, TraceEvent};
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{Result, SimTime};

/// Format version stamped into every service checkpoint. Version 2
/// stores each active project's run as the single-run pump's
/// [`RunState`] record; version 1 documents are refused.
const VERSION: usize = 2;

/// Everything a running project carries: its run — the record the
/// single-run pump checkpoints too — plus the service-side scheduling
/// state around it.
#[derive(Debug, Clone)]
pub struct ActiveProjectState {
    /// The project's run: agent core, shards and books.
    pub run: RunState,
    /// The last dispatch round was starved by pool contention.
    pub starved: bool,
}

/// One submitted project's state inside a [`ServiceCheckpoint`], tagged
/// by lifecycle stage. `Rejected` and `Queued` carry nothing — both are
/// reconstructed deterministically from the restoring config and spec.
#[derive(Debug, Clone)]
pub enum ProjectCheckpoint {
    /// Refused at admission (policy `Reject`, or shed).
    Rejected,
    /// Waiting for a capacity slot; its fresh core is rebuilt at restore
    /// from the same submission-order seed the original run drew.
    Queued,
    /// Running — the full live state.
    Active(Box<ActiveProjectState>),
    /// Finished; frozen outcome and metrics.
    Completed {
        /// The final labelling outcome.
        outcome: LabellingOutcome,
        /// The final per-project metrics.
        metrics: ServiceMetrics,
    },
    /// Failed mid-run and isolated; frozen metrics plus the reason.
    Failed {
        /// The panic payload or abort reason.
        reason: String,
        /// The metrics accumulated before the failure.
        metrics: ServiceMetrics,
    },
}

/// The whole multi-tenant engine at one consistent round boundary.
#[derive(Debug, Clone)]
pub struct ServiceCheckpoint {
    /// [`service_fingerprint`] of the config + specs that produced this
    /// run; restore refuses a mismatch with a typed error.
    pub fingerprint: u64,
    /// Annotator-pool size the run was started with.
    pub annotators: usize,
    /// The service clock.
    pub now: SimTime,
    /// Scheduling rounds completed.
    pub rounds: usize,
    /// Service-wide assignment counter.
    pub next_uid: u64,
    /// Submission indices still waiting for a slot, FIFO order.
    pub queued: Vec<usize>,
    /// Submission indices of running projects, ascending.
    pub active: Vec<usize>,
    /// Every account's budget state, dense by submission index.
    pub accounts: Vec<AccountState>,
    /// Broker per-annotator in-flight load.
    pub broker_load: Vec<usize>,
    /// Broker per-annotator quarantine evidence (project indices,
    /// ascending).
    pub broker_evidence: Vec<Vec<usize>>,
    /// The merged service trace so far, `(project, event)` pairs.
    pub trace: Vec<(usize, TraceEvent)>,
    /// One entry per submitted project, in submission order.
    pub projects: Vec<ProjectCheckpoint>,
}

impl ServiceCheckpoint {
    /// Serialize to a single deterministic JSON document: the same
    /// checkpoint always renders the same bytes.
    pub fn encode(&self) -> String {
        versioned(enc_service(self), VERSION).render()
    }

    /// Parse a document produced by [`encode`](Self::encode). Anything
    /// malformed — bad JSON, wrong version, missing fields, inconsistent
    /// shapes — is a typed
    /// [`ServiceError::CorruptCheckpoint`](crate::ServiceError).
    pub fn decode(text: &str) -> Result<Self> {
        let v = parse(text).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
        let version = get_usize(&v, "version")?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported service checkpoint version {version} (expected {VERSION})"
            )));
        }
        dec_service(&v)
    }
}

record_codec! {
    ServiceCheckpoint: enc_service / dec_service {
        "fingerprint" => fingerprint: hex_u64, get_hex_u64;
        "annotators" => annotators: num, get_usize;
        "now" => now: sim_time, get_sim_time;
        "rounds" => rounds: num, get_usize;
        "next_uid" => next_uid: hex_u64, get_hex_u64;
        "queued" => queued: usizes, arr_usize;
        "active" => active: usizes, arr_usize;
        "accounts" => accounts: list(enc_account), get_list(dec_account);
        "broker_load" => broker_load: usizes, arr_usize;
        "broker_evidence" => broker_evidence:
            list(|projects: &Vec<usize>| obj([("projects", usizes(projects))])),
            get_list(|v| arr_usize(v, "projects"));
        "trace" => trace: list(enc_traced), get_list(dec_traced);
        "projects" => projects: list(enc_project), get_list(dec_project);
    }
}

record_codec! {
    LabellingOutcome: enc_outcome / dec_outcome {
        "labels" => labels: opt_classes, get_opt_classes;
        "label_states" => label_states: list(enc_label_state), get_list(dec_label_state);
        "budget_spent" => budget_spent: bits_f64, get_f64_bits;
        "iterations" => iterations: num, get_usize;
        "total_answers" => total_answers: num, get_usize;
        "enriched" => enriched_count: num, get_usize;
        "fallback" => fallback_count: num, get_usize;
        "trace" => trace: list(enc_stats), get_list(dec_stats);
    }
}

record_codec! {
    ServiceMetrics: enc_metrics / dec_metrics {
        "dispatched" => dispatched: num, get_usize;
        "answers_delivered" => answers_delivered: num, get_usize;
        "answers_rejected" => answers_rejected: num, get_usize;
        "timeouts" => timeouts: num, get_usize;
        "requeues" => requeues: num, get_usize;
        "refreshes" => refreshes: num, get_usize;
        "events_processed" => events_processed: num, get_usize;
        "sim_duration" => sim_duration: sim_time, get_sim_time;
        "wall_seconds" => wall_seconds: bits_f64, get_f64_bits;
        "latency_p50" => latency_p50: bits_f64, get_f64_bits;
        "latency_p95" => latency_p95: bits_f64, get_f64_bits;
        "latency_p99" => latency_p99: bits_f64, get_f64_bits;
        "answers_per_time_unit" => answers_per_time_unit: bits_f64, get_f64_bits;
        "events_per_second" => events_per_second: bits_f64, get_f64_bits;
        "budget_spent" => budget_spent: bits_f64, get_f64_bits;
        "budget_burn_rate" => budget_burn_rate: bits_f64, get_f64_bits;
    }
}

record_codec! {
    ActiveProjectState: enc_active / dec_active {
        "run" => run: enc_run_state, get_record(dec_run_state);
        "starved" => starved: boolean, get_bool;
    }
}

/// FNV-1a fingerprint of everything that must match for a checkpoint to
/// resume: the service config with its observationally-neutral knobs
/// canonicalized out (exec mode, the checkpoint cadence), the pool size,
/// and each spec's name, priority, config fingerprint and dataset shape.
pub fn service_fingerprint(
    cfg: &ServiceConfig,
    specs: &[ProjectSpec],
    pool: &AnnotatorPool,
) -> u64 {
    let mut canonical = cfg.clone();
    canonical.mode = ExecMode::SingleThread;
    canonical.checkpoint_every_rounds = 0;
    let mut h = Fnv::new();
    h.write(format!("{canonical:?}").as_bytes());
    h.write(&(pool.len() as u64).to_le_bytes());
    for spec in specs {
        h.write(spec.name.as_bytes());
        h.write(&spec.priority.to_le_bytes());
        h.write(&spec.config.fingerprint().to_le_bytes());
        h.write(&(spec.dataset.len() as u64).to_le_bytes());
        h.write(&(spec.dataset.num_classes() as u64).to_le_bytes());
    }
    h.0
}

/// Incremental FNV-1a over raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn corrupt(msg: impl Into<String>) -> crowdrl_types::Error {
    ServiceError::CorruptCheckpoint(msg.into()).into()
}

fn enc_traced(entry: &(usize, TraceEvent)) -> Value {
    obj([("p", num(entry.0)), ("e", enc_trace_event(&entry.1))])
}

fn dec_traced(v: &Value) -> Result<(usize, TraceEvent)> {
    Ok((get_usize(v, "p")?, dec_trace_event(field(v, "e")?)?))
}

fn enc_project(p: &ProjectCheckpoint) -> Value {
    match p {
        ProjectCheckpoint::Rejected => obj([("status", Value::Str("rejected".into()))]),
        ProjectCheckpoint::Queued => obj([("status", Value::Str("queued".into()))]),
        ProjectCheckpoint::Active(state) => obj([
            ("status", Value::Str("active".into())),
            ("state", enc_active(state)),
        ]),
        ProjectCheckpoint::Completed { outcome, metrics } => obj([
            ("status", Value::Str("completed".into())),
            ("outcome", enc_outcome(outcome)),
            ("metrics", enc_metrics(metrics)),
        ]),
        ProjectCheckpoint::Failed { reason, metrics } => obj([
            ("status", Value::Str("failed".into())),
            ("reason", Value::Str(reason.clone())),
            ("metrics", enc_metrics(metrics)),
        ]),
    }
}

fn dec_project(v: &Value) -> Result<ProjectCheckpoint> {
    match get_str(v, "status")? {
        "rejected" => Ok(ProjectCheckpoint::Rejected),
        "queued" => Ok(ProjectCheckpoint::Queued),
        "active" => Ok(ProjectCheckpoint::Active(Box::new(dec_active(field(
            v, "state",
        )?)?))),
        "completed" => Ok(ProjectCheckpoint::Completed {
            outcome: dec_outcome(field(v, "outcome")?)?,
            metrics: dec_metrics(field(v, "metrics")?)?,
        }),
        "failed" => Ok(ProjectCheckpoint::Failed {
            reason: get_str(v, "reason")?.to_string(),
            metrics: dec_metrics(field(v, "metrics")?)?,
        }),
        other => Err(corrupt(format!("unknown project status '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::{ClassId, LabelState};

    fn sample_metrics() -> ServiceMetrics {
        ServiceMetrics {
            dispatched: 10,
            answers_delivered: 7,
            answers_rejected: 1,
            timeouts: 2,
            requeues: 2,
            refreshes: 3,
            events_processed: 19,
            sim_duration: SimTime::new(42.5).unwrap(),
            wall_seconds: 0.0,
            latency_p50: 3.25,
            latency_p95: 9.5,
            latency_p99: 11.0,
            answers_per_time_unit: 7.0 / 42.5,
            events_per_second: 0.0,
            budget_spent: 13.5,
            budget_burn_rate: 13.5 / 42.5,
        }
    }

    fn sample_checkpoint() -> ServiceCheckpoint {
        ServiceCheckpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            annotators: 4,
            now: SimTime::new(17.25).unwrap(),
            rounds: 9,
            next_uid: 123,
            queued: vec![3],
            active: vec![],
            accounts: vec![
                AccountState {
                    total: 60.0,
                    spent: 13.5,
                    charges: 7,
                    reserved: 0.1 + 0.2, // deliberately non-decimal bits
                },
                AccountState {
                    total: 40.0,
                    spent: 0.0,
                    charges: 0,
                    reserved: 0.0,
                },
            ],
            broker_load: vec![1, 0, 2, 0],
            broker_evidence: vec![vec![], vec![0, 2], vec![], vec![1]],
            trace: vec![(
                0,
                TraceEvent::Dispatched {
                    at: SimTime::new(1.5).unwrap(),
                    id: crowdrl_types::AssignmentId(5),
                    object: crowdrl_types::ObjectId(2),
                    annotator: crowdrl_types::AnnotatorId(1),
                },
            )],
            projects: vec![
                ProjectCheckpoint::Completed {
                    outcome: LabellingOutcome {
                        labels: vec![Some(ClassId(1)), None, Some(ClassId(0))],
                        label_states: vec![
                            LabelState::Inferred(ClassId(1)),
                            LabelState::Unlabelled,
                            LabelState::Enriched(ClassId(0)),
                        ],
                        budget_spent: 13.5,
                        iterations: 3,
                        total_answers: 7,
                        enriched_count: 1,
                        fallback_count: 0,
                        trace: Vec::new(),
                    },
                    metrics: sample_metrics(),
                },
                ProjectCheckpoint::Failed {
                    reason: "injected shard panic at t=10".into(),
                    metrics: sample_metrics(),
                },
                ProjectCheckpoint::Rejected,
                ProjectCheckpoint::Queued,
            ],
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let cp = sample_checkpoint();
        let text = cp.encode();
        let decoded = ServiceCheckpoint::decode(&text).unwrap();
        assert_eq!(decoded.encode(), text);
        assert_eq!(decoded.fingerprint, cp.fingerprint);
        assert_eq!(decoded.queued, cp.queued);
        // The deliberately non-decimal reserved amount survives bit-exact.
        assert_eq!(
            decoded.accounts[0].reserved.to_bits(),
            cp.accounts[0].reserved.to_bits()
        );
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // A self round trip passes for any consistent encoder/decoder
        // pair; this pins the wire format itself (key names, value
        // encodings), so a renamed or re-encoded field fails here.
        let text = sample_checkpoint().encode();
        let mut h = Fnv::new();
        h.write(text.as_bytes());
        assert_eq!(h.0, 0xf9e2_039c_ac73_787a);
    }

    #[test]
    fn corruption_is_rejected_with_a_typed_error() {
        let text = sample_checkpoint().encode();
        let wrong_version = text.replacen("\"version\":2", "\"version\":99", 1);
        let err = ServiceCheckpoint::decode(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("version"));
        // A version-1 document (active projects before the shared run
        // record) is refused with the typed version error, not misread.
        let v1 = text.replacen("\"version\":2", "\"version\":1", 1);
        assert_eq!(
            ServiceCheckpoint::decode(&v1).unwrap_err(),
            ServiceError::CorruptCheckpoint(
                "unsupported service checkpoint version 1 (expected 2)".into()
            )
            .into()
        );
        assert!(ServiceCheckpoint::decode("not json").is_err());
        let truncated = &text[..text.len() / 2];
        assert!(ServiceCheckpoint::decode(truncated).is_err());
    }

    #[test]
    fn fingerprint_canonicalizes_neutral_knobs_and_tracks_real_ones() {
        use crowdrl_sim::PoolSpec;
        use crowdrl_types::rng::seeded;
        let mut rng = seeded(3);
        let pool = PoolSpec::new(4, 1).generate(2, &mut rng).unwrap();
        let config = crowdrl_core::CrowdRlConfig::builder()
            .budget(30.0)
            .build()
            .unwrap();
        let dataset = crowdrl_sim::DatasetSpec::gaussian("d", 10, 3, 2)
            .generate(&mut rng)
            .unwrap();
        let specs = vec![ProjectSpec::new("p", config, dataset)];
        let base = ServiceConfig::default();
        let f = service_fingerprint(&base, &specs, &pool);
        // Exec mode and cadence are neutral.
        let pooled = base
            .clone()
            .with_mode(ExecMode::WorkerPool { workers: 4 })
            .with_checkpoint_every(2);
        assert_eq!(service_fingerprint(&pooled, &specs, &pool), f);
        // Capacity is not.
        let narrower = base.clone().with_capacity(1);
        assert_ne!(service_fingerprint(&narrower, &specs, &pool), f);
        // Neither is the spec set.
        let reprioritized = vec![specs[0].clone().with_priority(5)];
        assert_ne!(service_fingerprint(&base, &reprioritized, &pool), f);
    }
}
