//! Crash-consistent checkpoints of a whole asynchronous run.
//!
//! A [`RunCheckpoint`] captures everything the runtime needs to continue a
//! run as if it had never stopped: the run itself ([`RunState`]: the agent
//! core's learning state — classifier, DQN, inference engine, RNG,
//! quarantine — its shard's clock, event queue and ledger, answers and
//! metrics) plus the pump's budget account, trace and backoff table.
//! [`RunState`] is the record the multi-tenant service checkpoints per
//! active project, with the same field table ([`record_codec!`]).
//! Killing a run at a checkpoint and [`resuming`](crate::AsyncRuntime::resume)
//! it must reproduce the uninterrupted run's trace and labels **bit for
//! bit** — the chaos suite pins that.
//!
//! The encoding is hand-rolled JSON over [`crowdrl_obs::json`] (the
//! workspace has a zero-external-dependency policy). Bit-exactness rules
//! the format:
//!
//! * every `f64` is written as its 16-hex-digit IEEE bit pattern (JSON
//!   numbers would lose NaN log-likelihoods and the writer clamps
//!   non-finite values);
//! * `f32` and `f64` slices concatenate fixed-width hex chunks into one
//!   string, which also keeps million-weight tensors from exploding into
//!   million-element JSON arrays;
//! * `u64` values (seeds, RNG words, sequence numbers) are 16-hex strings
//!   because JSON numbers are only exact below 2^53;
//! * small counts and ids stay plain JSON numbers for readability.
//!
//! [`decode`](RunCheckpoint::decode) validates shape and re-derives nothing
//! silently: any mismatch surfaces as
//! [`ServeError::CorruptCheckpoint`](crate::ServeError::CorruptCheckpoint).

use crate::core_loop::{CoreState, PendingBatchState};
use crate::error::ServeError;
use crate::event::{Event, EventKind, TraceEvent};
use crate::ledger::{AccountState, AssignmentRecord, AssignmentStatus};
use crate::metrics::MetricsCollector;
use crate::supervisor::QuarantineStatus;
use crowdrl_core::agent::{AgentState, Assignment};
use crowdrl_core::IterationStats;
use crowdrl_inference::{EngineSnapshot, InferenceResult};
use crowdrl_nn::ClassifierSnapshot;
use crowdrl_obs::json::parse;
/// The JSON value type the codec (and [`record_codec!`]) produces.
pub use crowdrl_obs::json::Value;
use crowdrl_rl::{DqnSnapshot, Transition};
/// The result type of every decoder (and of [`record_codec!`]'s).
pub use crowdrl_types::Result;
use crowdrl_types::{
    AnnotatorId, Answer, AnswerSet, AssignmentId, ClassId, ConfusionMatrix, LabelState, ObjectId,
    SimTime,
};
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Format version stamped into every checkpoint. Version 3 stores the
/// run itself — agent core, shards and books — as the [`RunState`]
/// record the service stores per project; earlier documents are refused.
const VERSION: usize = 3;

/// One shard frozen between settlements: its event queue, ledger slice,
/// id/label mappings and merge frontier.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// The shard clock (event-queue `now`).
    pub now: SimTime,
    /// Event-queue sequence counter.
    pub next_seq: u64,
    /// Pending events in deterministic (pop) order.
    pub events: Vec<Event>,
    /// Every ledger record this shard ever issued, in local-id order.
    pub records: Vec<AssignmentRecord>,
    /// Shard-local assignment id → trace id.
    pub uids: Vec<u64>,
    /// Shard-local assignment id → sampled label (`None` = dropped).
    pub labels: Vec<Option<ClassId>>,
    /// The horizon the shard was last advanced to.
    pub frontier: SimTime,
}

/// One [`Run`](crate::Run) between settlements: the record the pump and
/// every active service project checkpoint.
#[derive(Debug, Clone)]
pub struct RunState {
    /// The agent core's learning state.
    pub core: CoreState,
    /// One snapshot per shard, in shard order.
    pub shards: Vec<ShardState>,
    /// All recorded answers, in settlement order.
    pub answers: AnswerSet,
    /// Answers since the last refresh.
    pub answers_since: usize,
    /// When the last refresh ran.
    pub last_refresh: SimTime,
    /// Per-object requeue counts.
    pub requeues: Vec<usize>,
    /// Objects whose requeue budget is exhausted, ascending.
    pub abandoned: Vec<ObjectId>,
    /// Raw metrics counters.
    pub collector: MetricsCollector,
    /// When the run started.
    pub started_at: SimTime,
    /// The core reported every object labelled.
    pub done: bool,
}

/// The pump's complete state at a watermark boundary: its run plus the
/// parts only the single-run scheduler keeps.
#[derive(Debug, Clone)]
pub struct PumpCheckpoint {
    /// The run: core, its one shard, the books.
    pub run: RunState,
    /// The run's budget account (exact spend and reservation bits).
    pub account: AccountState,
    /// The observable trace so far.
    pub trace: Vec<TraceEvent>,
    /// Per-object supervisor backoff deadlines (absolute sim time).
    pub backoff_until: Vec<f64>,
}

/// A complete, resumable snapshot of one asynchronous labelling run.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// FNV-1a fingerprint of the [`CrowdRlConfig`](crowdrl_core::CrowdRlConfig)
    /// that produced this run; restore refuses a mismatch.
    pub fingerprint: u64,
    /// Dataset size the run was started with.
    pub objects: usize,
    /// Annotator-pool size the run was started with.
    pub annotators: usize,
    /// The pump's state, its run's learning state included.
    pub pump: PumpCheckpoint,
}

impl RunCheckpoint {
    /// Serialize to a single deterministic JSON document: the same
    /// checkpoint always renders the same bytes.
    pub fn encode(&self) -> String {
        versioned(enc_run(self), VERSION).render()
    }

    /// Parse a document produced by [`encode`](Self::encode). Anything
    /// malformed — bad JSON, wrong version, missing fields, inconsistent
    /// shapes — is a [`ServeError::CorruptCheckpoint`].
    pub fn decode(text: &str) -> Result<Self> {
        let v = parse(text).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
        let version = get_usize(&v, "version")?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported checkpoint version {version} (expected {VERSION})"
            )));
        }
        dec_run(&v)
    }
}

fn corrupt(msg: impl Into<String>) -> crowdrl_types::Error {
    ServeError::CorruptCheckpoint(msg.into()).into()
}

// ---------------------------------------------------------------------------
// Record tables
// ---------------------------------------------------------------------------

/// Generate a record struct's encoder and decoder from one field table.
///
/// Each row names the JSON key, the struct field and the field's codec
/// pair: an encoder taking the field by reference, and a decoder
/// `(object, key) -> Result<field>`. Both directions come from the same
/// rows, so encode and decode cannot drift apart. Row order does not
/// change the bytes: [`obj`] renders keys in `BTreeMap` order.
#[macro_export]
macro_rules! record_codec {
    ($vis:vis $ty:ident: $enc:ident / $dec:ident {
        $($key:literal => $field:ident: $fenc:expr, $fdec:expr;)+
    }) => {
        #[doc = concat!("Encode a [`", stringify!($ty), "`] record.")]
        $vis fn $enc(r: &$ty) -> $crate::checkpoint::Value {
            $crate::checkpoint::obj([$(($key, ($fenc)(&r.$field))),+])
        }

        #[doc = concat!("Decode a [`", stringify!($ty), "`] record.")]
        $vis fn $dec(v: &$crate::checkpoint::Value) -> $crate::checkpoint::Result<$ty> {
            Ok($ty {
                $($field: ($fdec)(v, $key)?),+
            })
        }
    };
}

record_codec! {
    RunCheckpoint: enc_run / dec_run {
        "fingerprint" => fingerprint: hex_u64, get_hex_u64;
        "objects" => objects: num, get_usize;
        "annotators" => annotators: num, get_usize;
        "pump" => pump: enc_pump, get_record(dec_pump);
    }
}

record_codec! {
    pub AssignmentRecord: enc_record / dec_record {
        "id" => id: assignment_id, get_assignment_id;
        "object" => object: object_id, get_object_id;
        "annotator" => annotator: annotator_id, get_annotator_id;
        "cost" => cost: bits_f64, get_f64_bits;
        "dispatched_at" => dispatched_at: sim_time, get_sim_time;
        "deadline" => deadline: sim_time, get_sim_time;
        "status" => status: assignment_status, get_assignment_status;
    }
}

record_codec! {
    PumpCheckpoint: enc_pump / dec_pump {
        "run" => run: enc_run_state, get_record(dec_run_state);
        "account" => account: enc_account, get_record(dec_account);
        "trace" => trace: list(enc_trace_event), get_list(dec_trace_event);
        "backoff_until" => backoff_until: f64s, get_f64s;
    }
}

record_codec! {
    pub RunState: enc_run_state / dec_run_state {
        "core" => core: enc_core, get_record(dec_core);
        "shards" => shards: list(enc_shard), get_list(dec_shard);
        "answers" => answers: enc_answers, dec_answers;
        "answers_since" => answers_since: num, get_usize;
        "last_refresh" => last_refresh: sim_time, get_sim_time;
        "requeues" => requeues: usizes, arr_usize;
        "abandoned" => abandoned: object_ids, get_object_ids;
        "collector" => collector: enc_collector, get_record(dec_collector);
        "started_at" => started_at: sim_time, get_sim_time;
        "done" => done: boolean, get_bool;
    }
}

record_codec! {
    ShardState: enc_shard / dec_shard {
        "now" => now: sim_time, get_sim_time;
        "next_seq" => next_seq: hex_u64, get_hex_u64;
        "events" => events: list(enc_event), get_list(dec_event);
        "records" => records: list(enc_record), get_list(dec_record);
        "uids" => uids: hex_u64s, get_hex_u64s;
        "labels" => labels: opt_classes, get_opt_classes;
        "frontier" => frontier: sim_time, get_sim_time;
    }
}

record_codec! {
    pub AccountState: enc_account / dec_account {
        "total" => total: bits_f64, get_f64_bits;
        "spent" => spent: bits_f64, get_f64_bits;
        "charges" => charges: num, get_usize;
        "reserved" => reserved: bits_f64, get_f64_bits;
    }
}

record_codec! {
    MetricsCollector: enc_collector / dec_collector {
        "latencies" => latencies: f64s, get_f64s;
        "dispatched" => dispatched: num, get_usize;
        "delivered" => delivered: num, get_usize;
        "rejected" => rejected: num, get_usize;
        "timeouts" => timeouts: num, get_usize;
        "requeues" => requeues: num, get_usize;
        "refreshes" => refreshes: num, get_usize;
        "events" => events: num, get_usize;
    }
}

record_codec! {
    ClassifierSnapshot: enc_classifier / dec_classifier {
        "params" => params: f32s, get_f32s;
        "opt_state" => opt_state: opt_slots, get_opt_slots;
        "trained" => trained: boolean, get_bool;
        "generation" => generation: hex_u64, get_hex_u64;
    }
}

record_codec! {
    Transition: enc_transition / dec_transition {
        "sa" => state_action: f32s, get_f32s;
        "reward" => reward: bits_f32, get_f32_bits;
        "next" => next_candidates: f32_rows, get_f32_rows;
        "terminal" => terminal: boolean, get_bool;
    }
}

record_codec! {
    DqnSnapshot: enc_dqn / dec_dqn {
        "online" => online: f32s, get_f32s;
        "target" => target: f32s, get_f32s;
        "opt_state" => opt_state: opt_slots, get_opt_slots;
        "replay" => replay: list(enc_transition), get_list(dec_transition);
        "replay_head" => replay_head: num, get_usize;
        "replay_pushed" => replay_pushed: num, get_usize;
        "train_steps" => train_steps: num, get_usize;
    }
}

record_codec! {
    AgentState: enc_agent / dec_agent {
        "dqn" => dqn: enc_dqn, get_record(dec_dqn);
        "ucb_counts" => ucb_counts: opt_hex_pairs, get_maybe(get_hex_pairs);
        "eps_steps" => eps_steps: maybe(hex_u64), get_maybe(get_hex_u64);
    }
}

record_codec! {
    Assignment: enc_assignment / dec_assignment {
        "object" => object: object_id, get_object_id;
        "annotators" => annotators: annotator_ids, get_annotator_ids;
        "embeddings" => embeddings: f32_rows, get_f32_rows;
    }
}

record_codec! {
    PendingBatchState: enc_pending / dec_pending {
        "assignments" => assignments: list(enc_assignment), get_list(dec_assignment);
        "conf_before" => conf_before: confidences, get_confidences;
        "phi_guesses" => phi_guesses: guesses, get_guesses;
    }
}

record_codec! {
    pub IterationStats: enc_stats / dec_stats {
        "iteration" => iteration: num, get_usize;
        "enriched" => enriched: num, get_usize;
        "selected" => selected: num, get_usize;
        "answers" => answers: num, get_usize;
        "spend" => spend: bits_f64, get_f64_bits;
        "reward" => reward: bits_f64, get_f64_bits;
        "labelled_total" => labelled_total: num, get_usize;
        "td_loss" => td_loss: maybe(bits_f32), get_maybe(get_f32_bits);
    }
}

record_codec! {
    InferenceResult: enc_result / dec_result {
        "posteriors" => posteriors: opt_f64_rows, get_opt_f64_rows;
        "confusions" => confusions: list(enc_confusion), get_list(dec_confusion);
        "class_prior" => class_prior: f64s, get_f64s;
        "iterations" => iterations: num, get_usize;
        "log_likelihood" => log_likelihood: bits_f64, get_f64_bits;
    }
}

record_codec! {
    EngineSnapshot: enc_engine / dec_engine {
        "last" => last: enc_result, get_record(dec_result);
        "answer_counts" => answer_counts: usizes, arr_usize;
        "total_answers" => total_answers: num, get_usize;
        "moved" => moved: booleans, get_booleans;
        "answered" => answered: usizes, arr_usize;
        "warm_calls_since_full" => warm_calls_since_full: num, get_usize;
        "calls" => calls: hex_u64, get_hex_u64;
    }
}

record_codec! {
    CoreState: enc_core / dec_core {
        "classifier" => classifier: enc_classifier, get_record(dec_classifier);
        "agent" => agent: enc_agent, get_record(dec_agent);
        "labelled" => labelled: list(enc_label_state), get_list(dec_label_state);
        "qualities" => qualities: f64s, get_f64s;
        "prev_confidence" => prev_confidence: opt_f64_bits, get_opt_f64_bits;
        "outstanding" => outstanding: list(enc_pending), get_list(dec_pending);
        "trace" => trace: list(enc_stats), get_list(dec_stats);
        "trust_agree" => trust_agree: bits_f64, get_f64_bits;
        "trust_scored" => trust_scored: bits_f64, get_f64_bits;
        "phi_trust" => phi_trust: bits_f64, get_f64_bits;
        "fixed_allowance" => fixed_allowance: maybe(bits_f64), get_maybe(get_f64_bits);
        "last_spent" => last_spent: bits_f64, get_f64_bits;
        "refresh_index" => refresh_index: num, get_usize;
        "engine" => engine: maybe(enc_engine), get_maybe(get_record(dec_engine));
        "rng" => rng: hex_u64s, get_rng;
        "quarantine" => quarantine: list(enc_quarantine_status), get_list(dec_quarantine_status);
    }
}

// ---------------------------------------------------------------------------
// Field codecs: encoders take the field by reference (or by value where
// `Borrow` allows both), decoders read `key` from an object
// ---------------------------------------------------------------------------

/// Build a JSON object in deterministic (BTreeMap) key order.
pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A small exact count as a plain JSON number.
pub fn num(n: impl Borrow<usize>) -> Value {
    // Plain JSON numbers are exact below 2^53 — far beyond any count here.
    Value::Num(*n.borrow() as f64)
}

/// A `u64` as a 16-hex-digit string (JSON numbers are only exact below 2^53).
pub fn hex_u64(v: impl Borrow<u64>) -> Value {
    Value::Str(format!("{:016x}", v.borrow()))
}

/// An `f64` as its 16-hex-digit IEEE bit pattern.
pub fn bits_f64(v: impl Borrow<f64>) -> Value {
    Value::Str(format!("{:016x}", v.borrow().to_bits()))
}

/// An `f32` as its 8-hex-digit IEEE bit pattern.
pub fn bits_f32(v: impl Borrow<f32>) -> Value {
    Value::Str(format!("{:08x}", v.borrow().to_bits()))
}

/// A `SimTime` as its `f64` bit pattern.
pub fn sim_time(t: impl Borrow<SimTime>) -> Value {
    bits_f64(t.borrow().as_f64())
}

/// A bool as a JSON bool.
pub fn boolean(b: impl Borrow<bool>) -> Value {
    Value::Bool(*b.borrow())
}

/// Concatenated 16-hex-digit bit patterns, one per f64.
pub fn f64s(xs: &[f64]) -> Value {
    let mut s = String::with_capacity(xs.len() * 16);
    for x in xs {
        s.push_str(&format!("{:016x}", x.to_bits()));
    }
    Value::Str(s)
}

/// Concatenated 8-hex-digit bit patterns, one per f32.
pub fn f32s(xs: &[f32]) -> Value {
    let mut s = String::with_capacity(xs.len() * 8);
    for x in xs {
        s.push_str(&format!("{:08x}", x.to_bits()));
    }
    Value::Str(s)
}

/// Counts as an array of plain JSON numbers.
pub fn usizes(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(num).collect())
}

/// `u64`s as an array of 16-hex-digit strings.
pub fn hex_u64s(xs: &[u64]) -> Value {
    Value::Arr(xs.iter().map(hex_u64).collect())
}

/// Encode a list of records, each with its record encoder.
pub fn list<'a, T: 'a>(enc: impl Fn(&'a T) -> Value) -> impl Fn(&'a [T]) -> Value {
    move |xs: &'a [T]| Value::Arr(xs.iter().map(&enc).collect())
}

/// Encode an optional field, `Null` when absent.
fn maybe<'a, T: 'a>(enc: impl Fn(&'a T) -> Value) -> impl Fn(&'a Option<T>) -> Value {
    move |x: &'a Option<T>| x.as_ref().map_or(Value::Null, &enc)
}

/// Stamp a format version into an encoded document.
pub fn versioned(doc: Value, version: usize) -> Value {
    match doc {
        Value::Obj(mut map) => {
            map.insert("version".into(), num(version));
            Value::Obj(map)
        }
        other => other,
    }
}

/// Look up a required object field.
pub fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value> {
    v.get(key)
        .ok_or_else(|| corrupt(format!("missing field {key:?}")))
}

/// Decode a non-negative integral count field.
pub fn get_usize(v: &Value, key: &str) -> Result<usize> {
    let n = field(v, key)?
        .as_f64()
        .ok_or_else(|| corrupt(format!("field {key:?} is not a number")))?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(corrupt(format!("field {key:?} is not a valid count: {n}")));
    }
    Ok(n as usize)
}

/// Parse exactly 16 hex digits into a `u64`.
pub fn parse_hex_u64(s: &str, what: &str) -> Result<u64> {
    if s.len() != 16 {
        return Err(corrupt(format!(
            "{what}: expected 16 hex digits, got {s:?}"
        )));
    }
    u64::from_str_radix(s, 16).map_err(|_| corrupt(format!("{what}: bad hex {s:?}")))
}

/// Decode a `u64` field stored as 16 hex digits.
pub fn get_hex_u64(v: &Value, key: &str) -> Result<u64> {
    let s = get_str(v, key)?;
    parse_hex_u64(s, key)
}

/// Decode a string field.
pub fn get_str<'v>(v: &'v Value, key: &str) -> Result<&'v str> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| corrupt(format!("field {key:?} is not a string")))
}

/// Decode a bool field.
pub fn get_bool(v: &Value, key: &str) -> Result<bool> {
    match field(v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(corrupt(format!("field {key:?} is not a bool"))),
    }
}

/// Decode an array field.
pub fn get_arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value]> {
    field(v, key)?
        .as_arr()
        .ok_or_else(|| corrupt(format!("field {key:?} is not an array")))
}

/// Decode an `f64` field stored as its bit pattern.
pub fn get_f64_bits(v: &Value, key: &str) -> Result<f64> {
    Ok(f64::from_bits(get_hex_u64(v, key)?))
}

/// Decode an `f32` field stored as its bit pattern.
fn get_f32_bits(v: &Value, key: &str) -> Result<f32> {
    let s = get_str(v, key)?;
    u32::from_str_radix(s, 16)
        .map(f32::from_bits)
        .map_err(|_| corrupt(format!("{key}: bad f32 bits {s:?}")))
}

/// Parse a concatenated 16-hex-chunk string into `f64`s.
pub fn parse_f64s(s: &str, what: &str) -> Result<Vec<f64>> {
    if !s.len().is_multiple_of(16) {
        return Err(corrupt(format!("{what}: length not a multiple of 16")));
    }
    (0..s.len() / 16)
        .map(|i| parse_hex_u64(&s[i * 16..(i + 1) * 16], what).map(f64::from_bits))
        .collect()
}

/// Parse a concatenated 8-hex-chunk string into `f32`s.
pub fn parse_f32s(s: &str, what: &str) -> Result<Vec<f32>> {
    if !s.len().is_multiple_of(8) {
        return Err(corrupt(format!("{what}: length not a multiple of 8")));
    }
    (0..s.len() / 8)
        .map(|i| {
            u32::from_str_radix(&s[i * 8..(i + 1) * 8], 16)
                .map(f32::from_bits)
                .map_err(|_| corrupt(format!("{what}: bad hex chunk")))
        })
        .collect()
}

/// Decode an `f64`-slice field (concatenated bit patterns).
pub fn get_f64s(v: &Value, key: &str) -> Result<Vec<f64>> {
    parse_f64s(get_str(v, key)?, key)
}

/// Decode an `f32`-slice field (concatenated bit patterns).
pub fn get_f32s(v: &Value, key: &str) -> Result<Vec<f32>> {
    parse_f32s(get_str(v, key)?, key)
}

/// Decode a `SimTime` field stored as an `f64` bit pattern.
pub fn get_sim_time(v: &Value, key: &str) -> Result<SimTime> {
    SimTime::new(get_f64_bits(v, key)?)
        .map_err(|e| corrupt(format!("field {key:?} is not a valid time: {e}")))
}

/// Encode an optional value, `Null` when absent.
pub fn opt<T>(value: Option<T>, enc: impl Fn(T) -> Value) -> Value {
    match value {
        Some(x) => enc(x),
        None => Value::Null,
    }
}

/// Decode an array-of-counts field.
pub fn arr_usize(v: &Value, key: &str) -> Result<Vec<usize>> {
    get_elems(v, key, count_of)
}

/// Decode an array field of records with their record decoder.
pub fn get_list<T>(dec: impl Fn(&Value) -> Result<T>) -> impl Fn(&Value, &str) -> Result<Vec<T>> {
    move |v: &Value, key: &str| get_arr(v, key)?.iter().map(&dec).collect()
}

/// Decode a nested record field with its record decoder.
pub fn get_record<T>(dec: impl Fn(&Value) -> Result<T>) -> impl Fn(&Value, &str) -> Result<T> {
    move |v: &Value, key: &str| dec(field(v, key)?)
}

/// Decode an optional field: `Null` is `None`, anything else goes to the
/// field decoder.
fn get_maybe<T>(
    dec: impl Fn(&Value, &str) -> Result<T>,
) -> impl Fn(&Value, &str) -> Result<Option<T>> {
    move |v: &Value, key: &str| match field(v, key)? {
        Value::Null => Ok(None),
        _ => dec(v, key).map(Some),
    }
}

// ---------------------------------------------------------------------------
// Ids, tuples and optional elements
// ---------------------------------------------------------------------------

/// An assignment id as 16 hex digits.
fn assignment_id(id: &AssignmentId) -> Value {
    hex_u64(id.0)
}

fn get_assignment_id(v: &Value, key: &str) -> Result<AssignmentId> {
    get_hex_u64(v, key).map(AssignmentId)
}

/// An object id as a plain JSON number.
fn object_id(o: &ObjectId) -> Value {
    num(o.0)
}

fn get_object_id(v: &Value, key: &str) -> Result<ObjectId> {
    get_usize(v, key).map(ObjectId)
}

/// An annotator id as a plain JSON number.
fn annotator_id(a: &AnnotatorId) -> Value {
    num(a.0)
}

fn get_annotator_id(v: &Value, key: &str) -> Result<AnnotatorId> {
    get_usize(v, key).map(AnnotatorId)
}

/// Object ids as an array of plain JSON numbers.
fn object_ids(xs: &[ObjectId]) -> Value {
    Value::Arr(xs.iter().map(object_id).collect())
}

/// Decode an array-of-object-ids field.
fn get_object_ids(v: &Value, key: &str) -> Result<Vec<ObjectId>> {
    Ok(arr_usize(v, key)?.into_iter().map(ObjectId).collect())
}

fn annotator_ids(xs: &[AnnotatorId]) -> Value {
    Value::Arr(xs.iter().map(annotator_id).collect())
}

fn get_annotator_ids(v: &Value, key: &str) -> Result<Vec<AnnotatorId>> {
    Ok(arr_usize(v, key)?.into_iter().map(AnnotatorId).collect())
}

/// Optional class labels as an array of numbers and `null`s.
pub fn opt_classes(xs: &[Option<ClassId>]) -> Value {
    Value::Arr(xs.iter().map(|l| opt(*l, |c| num(c.0))).collect())
}

/// Decode an optional-class-labels field.
pub fn get_opt_classes(v: &Value, key: &str) -> Result<Vec<Option<ClassId>>> {
    get_elems(v, key, |x| match x {
        Value::Null => Some(None),
        x => count_of(x).map(|c| Some(ClassId(c))),
    })
}

/// Optional `f64`s as an array of bit patterns and `null`s.
fn opt_f64_bits(xs: &[Option<f64>]) -> Value {
    Value::Arr(xs.iter().map(|p| opt(*p, bits_f64)).collect())
}

fn get_opt_f64_bits(v: &Value, key: &str) -> Result<Vec<Option<f64>>> {
    get_elems(v, key, |x| match x {
        Value::Null => Some(None),
        x => hex_of(x).map(|b| Some(f64::from_bits(b))),
    })
}

/// Optional `f64` rows as an array of concatenated bit patterns and
/// `null`s.
fn opt_f64_rows(rows: &[Option<Vec<f64>>]) -> Value {
    Value::Arr(rows.iter().map(|p| opt(p.as_deref(), f64s)).collect())
}

fn get_opt_f64_rows(v: &Value, key: &str) -> Result<Vec<Option<Vec<f64>>>> {
    get_elems(v, key, |x| match x {
        Value::Null => Some(None),
        x => parse_f64s(x.as_str()?, key).ok().map(Some),
    })
}

/// `f32` rows as an array of concatenated bit patterns.
fn f32_rows(rows: &[Vec<f32>]) -> Value {
    Value::Arr(rows.iter().map(|r| f32s(r)).collect())
}

fn get_f32_rows<C: FromIterator<Vec<f32>>>(v: &Value, key: &str) -> Result<C> {
    get_elems(v, key, |x| parse_f32s(x.as_str()?, key).ok())
}

fn booleans(xs: &[bool]) -> Value {
    Value::Arr(xs.iter().map(boolean).collect())
}

fn get_booleans(v: &Value, key: &str) -> Result<Vec<bool>> {
    get_elems(v, key, |x| match x {
        Value::Bool(b) => Some(*b),
        _ => None,
    })
}

/// Decode an array field of 16-hex-digit `u64`s.
pub fn get_hex_u64s(v: &Value, key: &str) -> Result<Vec<u64>> {
    get_elems(v, key, hex_of)
}

fn get_rng(v: &Value, key: &str) -> Result<[u64; 4]> {
    let words = get_hex_u64s(v, key)?;
    words
        .try_into()
        .map_err(|_| corrupt(format!("{key}: expected exactly 4 words")))
}

/// Optional `(u64, u64)` pairs: `null`, or 2-element arrays of
/// 16-hex-digit strings.
fn opt_hex_pairs(pairs: &Option<Vec<(u64, u64)>>) -> Value {
    opt(pairs.as_deref(), |pairs| {
        Value::Arr(
            pairs
                .iter()
                .map(|&(n, c)| Value::Arr(vec![hex_u64(n), hex_u64(c)]))
                .collect(),
        )
    })
}

fn get_hex_pairs(v: &Value, key: &str) -> Result<Vec<(u64, u64)>> {
    get_elems(v, key, |p| match p.as_arr()? {
        [n, c] => Some((hex_of(n)?, hex_of(c)?)),
        _ => None,
    })
}

/// Per-object confidences as `[object, f64 bits]` pairs.
fn confidences(pairs: &[(ObjectId, f64)]) -> Value {
    Value::Arr(
        pairs
            .iter()
            .map(|&(o, c)| Value::Arr(vec![num(o.0), bits_f64(c)]))
            .collect(),
    )
}

fn get_confidences(v: &Value, key: &str) -> Result<Vec<(ObjectId, f64)>> {
    get_elems(v, key, |p| match p.as_arr()? {
        [o, c] => Some((ObjectId(count_of(o)?), f64::from_bits(hex_of(c)?))),
        _ => None,
    })
}

/// Per-object class guesses as `[object, class]` pairs.
fn guesses(pairs: &[(ObjectId, usize)]) -> Value {
    Value::Arr(
        pairs
            .iter()
            .map(|&(o, g)| Value::Arr(vec![num(o.0), num(g)]))
            .collect(),
    )
}

fn get_guesses(v: &Value, key: &str) -> Result<Vec<(ObjectId, usize)>> {
    get_elems(v, key, |p| match p.as_arr()? {
        [o, g] => Some((ObjectId(count_of(o)?), count_of(g)?)),
        _ => None,
    })
}

/// Decode an array field element by element; `elem` returns `None` for a
/// malformed element.
fn get_elems<T, C: FromIterator<T>>(
    v: &Value,
    key: &str,
    elem: impl Fn(&Value) -> Option<T>,
) -> Result<C> {
    get_arr(v, key)?
        .iter()
        .enumerate()
        .map(|(i, x)| elem(x).ok_or_else(|| corrupt(format!("{key}[{i}] is malformed"))))
        .collect()
}

/// A non-negative integral JSON number.
fn count_of(x: &Value) -> Option<usize> {
    x.as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .map(|n| n as usize)
}

/// A 16-hex-digit string.
fn hex_of(x: &Value) -> Option<u64> {
    parse_hex_u64(x.as_str()?, "").ok()
}

/// Per-parameter-tensor Adam state: first moment, second moment, step.
type OptSlot = (Vec<f32>, Vec<f32>, u64);

fn opt_slots(state: &[OptSlot]) -> Value {
    Value::Arr(
        state
            .iter()
            .map(|(m, v, t)| obj([("m", f32s(m)), ("v", f32s(v)), ("t", hex_u64(t))]))
            .collect(),
    )
}

fn get_opt_slots(v: &Value, key: &str) -> Result<Vec<OptSlot>> {
    get_arr(v, key)?
        .iter()
        .map(|slot| {
            Ok((
                get_f32s(slot, "m")?,
                get_f32s(slot, "v")?,
                get_hex_u64(slot, "t")?,
            ))
        })
        .collect()
}

fn enc_confusion(m: &ConfusionMatrix) -> Value {
    let k = m.num_classes();
    Value::Arr(
        (0..k)
            .map(|t| {
                let row: Vec<f64> = (0..k).map(|r| m.get(ClassId(t), ClassId(r))).collect();
                f64s(&row)
            })
            .collect(),
    )
}

fn dec_confusion(v: &Value) -> Result<ConfusionMatrix> {
    let rows = v
        .as_arr()
        .and_then(|rows| {
            rows.iter()
                .map(|row| parse_f64s(row.as_str()?, "confusion").ok())
                .collect::<Option<Vec<_>>>()
        })
        .ok_or_else(|| corrupt("confusion: not an array of f64 rows"))?;
    ConfusionMatrix::from_rows(&rows).map_err(|e| corrupt(format!("confusion: {e}")))
}

// ---------------------------------------------------------------------------
// Hand-written shapes: tagged enums (the tag picks the shape) and the
// answer set's nested arrays
// ---------------------------------------------------------------------------

fn assignment_status(s: &AssignmentStatus) -> Value {
    let tag = match s {
        AssignmentStatus::InFlight => "in_flight",
        AssignmentStatus::Delivered => "delivered",
        AssignmentStatus::Expired => "expired",
    };
    Value::Str(tag.to_string())
}

fn get_assignment_status(v: &Value, key: &str) -> Result<AssignmentStatus> {
    match get_str(v, key)? {
        "in_flight" => Ok(AssignmentStatus::InFlight),
        "delivered" => Ok(AssignmentStatus::Delivered),
        "expired" => Ok(AssignmentStatus::Expired),
        other => Err(corrupt(format!("unknown assignment status {other:?}"))),
    }
}

/// Encode a pending scheduler event.
pub fn enc_event(e: &Event) -> Value {
    let (kind, id) = match e.kind {
        EventKind::Deliver(id) => ("deliver", id),
        EventKind::Expire(id) => ("expire", id),
    };
    obj([
        ("at", bits_f64(e.at.as_f64())),
        ("seq", hex_u64(e.seq)),
        ("kind", Value::Str(kind.to_string())),
        ("id", hex_u64(id.0)),
    ])
}

/// Decode a pending scheduler event.
pub fn dec_event(v: &Value) -> Result<Event> {
    let id = AssignmentId(get_hex_u64(v, "id")?);
    let kind = match get_str(v, "kind")? {
        "deliver" => EventKind::Deliver(id),
        "expire" => EventKind::Expire(id),
        other => return Err(corrupt(format!("unknown event kind {other:?}"))),
    };
    Ok(Event {
        at: get_sim_time(v, "at")?,
        seq: get_hex_u64(v, "seq")?,
        kind,
    })
}

/// Encode an observable trace event.
pub fn enc_trace_event(e: &TraceEvent) -> Value {
    match e {
        TraceEvent::Dispatched {
            at,
            id,
            object,
            annotator,
        } => obj([
            ("t", Value::Str("dispatched".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("object", num(object.0)),
            ("annotator", num(annotator.0)),
        ]),
        TraceEvent::Delivered { at, id, label } => obj([
            ("t", Value::Str("delivered".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("label", num(label.0)),
        ]),
        TraceEvent::Rejected { at, id } => obj([
            ("t", Value::Str("rejected".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
        ]),
        TraceEvent::Expired { at, id, requeued } => obj([
            ("t", Value::Str("expired".into())),
            ("at", bits_f64(at.as_f64())),
            ("id", hex_u64(id.0)),
            ("requeued", Value::Bool(*requeued)),
        ]),
        TraceEvent::Refreshed {
            at,
            answers,
            labelled,
        } => obj([
            ("t", Value::Str("refreshed".into())),
            ("at", bits_f64(at.as_f64())),
            ("answers", num(*answers)),
            ("labelled", num(*labelled)),
        ]),
        TraceEvent::Quarantined { at, annotator } => obj([
            ("t", Value::Str("quarantined".into())),
            ("at", bits_f64(at.as_f64())),
            ("annotator", num(annotator.0)),
        ]),
        TraceEvent::QuarantineReleased { at, annotator } => obj([
            ("t", Value::Str("quarantine_released".into())),
            ("at", bits_f64(at.as_f64())),
            ("annotator", num(annotator.0)),
        ]),
    }
}

/// Decode an observable trace event.
pub fn dec_trace_event(v: &Value) -> Result<TraceEvent> {
    let at = get_sim_time(v, "at")?;
    Ok(match get_str(v, "t")? {
        "dispatched" => TraceEvent::Dispatched {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            object: ObjectId(get_usize(v, "object")?),
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        "delivered" => TraceEvent::Delivered {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            label: ClassId(get_usize(v, "label")?),
        },
        "rejected" => TraceEvent::Rejected {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
        },
        "expired" => TraceEvent::Expired {
            at,
            id: AssignmentId(get_hex_u64(v, "id")?),
            requeued: get_bool(v, "requeued")?,
        },
        "refreshed" => TraceEvent::Refreshed {
            at,
            answers: get_usize(v, "answers")?,
            labelled: get_usize(v, "labelled")?,
        },
        "quarantined" => TraceEvent::Quarantined {
            at,
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        "quarantine_released" => TraceEvent::QuarantineReleased {
            at,
            annotator: AnnotatorId(get_usize(v, "annotator")?),
        },
        other => return Err(corrupt(format!("unknown trace event {other:?}"))),
    })
}

/// Encode an answer set as per-object (annotator, class) pairs.
fn enc_answers(answers: &AnswerSet) -> Value {
    Value::Arr(
        (0..answers.num_objects())
            .map(|i| {
                Value::Arr(
                    answers
                        .answers_for(ObjectId(i))
                        .iter()
                        .map(|&(a, c)| Value::Arr(vec![num(a.0), num(c.0)]))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decode an answer set field.
fn dec_answers(v: &Value, key: &str) -> Result<AnswerSet> {
    let rows = get_arr(v, key)?;
    let mut answers = AnswerSet::new(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_arr()
            .ok_or_else(|| corrupt(format!("{key}[{i}] is not an array")))?;
        for pair in row {
            let pair = pair
                .as_arr()
                .ok_or_else(|| corrupt(format!("{key}[{i}]: bad answer pair")))?;
            let [a, c] = pair else {
                return Err(corrupt(format!("{key}[{i}]: answer pair is not 2-long")));
            };
            let (Some(a), Some(c)) = (a.as_u64(), c.as_u64()) else {
                return Err(corrupt(format!("{key}[{i}]: non-numeric answer pair")));
            };
            answers
                .record(Answer {
                    object: ObjectId(i),
                    annotator: AnnotatorId(a as usize),
                    label: ClassId(c as usize),
                })
                .map_err(|e| corrupt(format!("{key}[{i}]: {e}")))?;
        }
    }
    Ok(answers)
}

/// Encode a per-object label state.
pub fn enc_label_state(l: &LabelState) -> Value {
    match l {
        LabelState::Unlabelled => Value::Null,
        LabelState::Inferred(c) => obj([("i", num(c.0))]),
        LabelState::Enriched(c) => obj([("e", num(c.0))]),
    }
}

/// Decode a per-object label state.
pub fn dec_label_state(v: &Value) -> Result<LabelState> {
    match v {
        Value::Null => Ok(LabelState::Unlabelled),
        Value::Obj(_) => {
            if let Some(c) = v.get("i").and_then(Value::as_u64) {
                Ok(LabelState::Inferred(ClassId(c as usize)))
            } else if let Some(c) = v.get("e").and_then(Value::as_u64) {
                Ok(LabelState::Enriched(ClassId(c as usize)))
            } else {
                Err(corrupt("label state object without i/e"))
            }
        }
        _ => Err(corrupt("label state is neither null nor an object")),
    }
}

fn enc_quarantine_status(s: &QuarantineStatus) -> Value {
    match s {
        QuarantineStatus::Active => Value::Str("active".into()),
        QuarantineStatus::Quarantined {
            until_refresh,
            answers_at_entry,
        } => obj([
            ("s", Value::Str("quarantined".into())),
            ("until", num(until_refresh)),
            ("answers", num(answers_at_entry)),
        ]),
        QuarantineStatus::Probation { answers_at_entry } => obj([
            ("s", Value::Str("probation".into())),
            ("answers", num(answers_at_entry)),
        ]),
    }
}

fn dec_quarantine_status(v: &Value) -> Result<QuarantineStatus> {
    match v {
        Value::Str(s) if s == "active" => Ok(QuarantineStatus::Active),
        Value::Obj(_) => match get_str(v, "s")? {
            "quarantined" => Ok(QuarantineStatus::Quarantined {
                until_refresh: get_usize(v, "until")?,
                answers_at_entry: get_usize(v, "answers")?,
            }),
            "probation" => Ok(QuarantineStatus::Probation {
                answers_at_entry: get_usize(v, "answers")?,
            }),
            other => Err(corrupt(format!("unknown quarantine status {other:?}"))),
        },
        _ => Err(corrupt("quarantine status is neither a string nor object")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x).unwrap()
    }

    fn sample_checkpoint() -> RunCheckpoint {
        let mut answers = AnswerSet::new(3);
        answers
            .record(Answer {
                object: ObjectId(0),
                annotator: AnnotatorId(1),
                label: ClassId(1),
            })
            .unwrap();
        answers
            .record(Answer {
                object: ObjectId(2),
                annotator: AnnotatorId(0),
                label: ClassId(0),
            })
            .unwrap();
        let core = CoreState {
            classifier: ClassifierSnapshot {
                params: vec![0.5, -1.25, f32::EPSILON],
                opt_state: vec![(vec![0.1, 0.2], vec![0.3, 0.4], 11)],
                trained: true,
                generation: 3,
            },
            agent: AgentState {
                dqn: DqnSnapshot {
                    online: vec![1.0, 2.0],
                    target: vec![1.0, 2.5],
                    opt_state: vec![],
                    replay: vec![Transition {
                        state_action: vec![0.25],
                        reward: -0.5,
                        next_candidates: vec![vec![1.0], vec![2.0]].into(),
                        terminal: false,
                    }],
                    replay_head: 1,
                    replay_pushed: 1,
                    train_steps: 5,
                },
                ucb_counts: Some(vec![(3, 1), (0, 0)]),
                eps_steps: None,
            },
            labelled: vec![
                LabelState::Inferred(ClassId(1)),
                LabelState::Unlabelled,
                LabelState::Enriched(ClassId(0)),
            ],
            qualities: vec![0.9, 0.4],
            prev_confidence: vec![Some(0.75), None, Some(0.5)],
            outstanding: vec![PendingBatchState {
                assignments: vec![Assignment {
                    object: ObjectId(2),
                    annotators: vec![AnnotatorId(0), AnnotatorId(1)],
                    embeddings: vec![vec![0.1, 0.2], vec![0.3, 0.4]],
                }],
                conf_before: vec![(ObjectId(2), 0.33)],
                phi_guesses: vec![(ObjectId(2), 1)],
            }],
            trace: vec![IterationStats {
                iteration: 0,
                enriched: 1,
                selected: 2,
                answers: 2,
                spend: 2.5,
                reward: -0.125,
                labelled_total: 1,
                td_loss: Some(0.01),
            }],
            trust_agree: 1.0,
            trust_scored: 2.0,
            phi_trust: 0.5,
            fixed_allowance: None,
            last_spent: 0.3,
            refresh_index: 2,
            engine: Some(EngineSnapshot {
                last: InferenceResult {
                    posteriors: vec![Some(vec![0.9, 0.1]), None, Some(vec![0.2, 0.8])],
                    confusions: vec![
                        ConfusionMatrix::from_rows(&[vec![0.8, 0.2], vec![0.3, 0.7]]).unwrap(),
                    ],
                    class_prior: vec![0.6, 0.4],
                    iterations: 7,
                    log_likelihood: f64::NAN, // must survive the round trip
                },
                answer_counts: vec![1, 0, 1],
                total_answers: 2,
                moved: vec![true, false, true],
                answered: vec![0, 2],
                warm_calls_since_full: 1,
                calls: 4,
            }),
            rng: [u64::MAX, 0, 0xDEAD_BEEF, 42],
            quarantine: vec![
                QuarantineStatus::Active,
                QuarantineStatus::Quarantined {
                    until_refresh: 6,
                    answers_at_entry: 12,
                },
                QuarantineStatus::Probation {
                    answers_at_entry: 9,
                },
            ],
        };
        let pump = PumpCheckpoint {
            run: RunState {
                core,
                shards: vec![ShardState {
                    now: t(4.5),
                    next_seq: 7,
                    events: vec![
                        Event {
                            at: t(5.0),
                            seq: 3,
                            kind: EventKind::Deliver(AssignmentId(1)),
                        },
                        Event {
                            at: t(6.0),
                            seq: 5,
                            kind: EventKind::Expire(AssignmentId(1)),
                        },
                    ],
                    records: vec![AssignmentRecord {
                        id: AssignmentId(0),
                        object: ObjectId(0),
                        annotator: AnnotatorId(1),
                        cost: 1.25,
                        dispatched_at: t(0.0),
                        deadline: t(8.0),
                        status: AssignmentStatus::Delivered,
                    }],
                    uids: vec![0, 1],
                    labels: vec![Some(ClassId(1)), None],
                    frontier: SimTime::ZERO,
                }],
                answers,
                answers_since: 1,
                last_refresh: t(4.0),
                requeues: vec![0, 2, 0],
                abandoned: vec![ObjectId(1)],
                collector: MetricsCollector {
                    latencies: vec![1.5, f64::MIN_POSITIVE],
                    dispatched: 4,
                    delivered: 2,
                    rejected: 1,
                    timeouts: 1,
                    requeues: 1,
                    refreshes: 2,
                    events: 9,
                },
                started_at: SimTime::ZERO,
                done: false,
            },
            account: AccountState {
                total: 100.0,
                spent: 0.1 + 0.2, // deliberately not 0.3 exactly
                charges: 2,
                reserved: 1.25,
            },
            trace: vec![
                TraceEvent::Dispatched {
                    at: t(0.0),
                    id: AssignmentId(0),
                    object: ObjectId(0),
                    annotator: AnnotatorId(1),
                },
                TraceEvent::Refreshed {
                    at: t(4.0),
                    answers: 2,
                    labelled: 1,
                },
                TraceEvent::Quarantined {
                    at: t(4.0),
                    annotator: AnnotatorId(2),
                },
            ],
            backoff_until: vec![0.0, 9.5, 0.0],
        };
        RunCheckpoint {
            fingerprint: 0x1234_5678_9ABC_DEF0,
            objects: 3,
            annotators: 3,
            pump,
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ck = sample_checkpoint();
        let text = RunCheckpoint::decode(&ck.encode()).unwrap().encode();
        // Deterministic rendering makes byte equality the strongest
        // round-trip check available without Eq on every nested type.
        assert_eq!(text, ck.encode());
        let back = RunCheckpoint::decode(&text).unwrap();
        assert_eq!(back.fingerprint, ck.fingerprint);
        assert_eq!(
            back.pump.account.spent.to_bits(),
            ck.pump.account.spent.to_bits()
        );
        assert_eq!(back.pump.trace, ck.pump.trace);
        assert_eq!(back.pump.run.core.rng, ck.pump.run.core.rng);
        let engine = back.pump.run.core.engine.unwrap();
        assert!(engine.last.log_likelihood.is_nan());
        assert_eq!(
            engine.last.posteriors,
            ck.pump.run.core.engine.as_ref().unwrap().last.posteriors
        );
    }

    /// FNV-1a over raw bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // A self round trip passes for any consistent encoder/decoder
        // pair; this pins the wire format itself (key names, value
        // encodings), so a renamed or re-encoded field fails here.
        let text = sample_checkpoint().encode();
        assert_eq!(fnv1a(text.as_bytes()), 0xa4c5_2adb_045e_e4d0);
    }

    #[test]
    fn rejects_corruption() {
        let ck = sample_checkpoint();
        let text = ck.encode();
        assert!(RunCheckpoint::decode("not json").is_err());
        assert!(RunCheckpoint::decode("{}").is_err());
        let wrong_version = text.replacen("\"version\":3", "\"version\":99", 1);
        assert!(RunCheckpoint::decode(&wrong_version).is_err());
        // A version-2 document (the pump layout before the shared run
        // record) is refused with the typed version error, not misread.
        let v2 = text.replacen("\"version\":3", "\"version\":2", 1);
        assert_eq!(
            RunCheckpoint::decode(&v2).unwrap_err(),
            ServeError::CorruptCheckpoint("unsupported checkpoint version 2 (expected 3)".into())
                .into()
        );
        // Truncating a hex blob breaks the fixed-width invariant.
        let truncated = text.replacen("3ff8000000000000", "3ff800000000000", 1);
        assert!(RunCheckpoint::decode(&truncated).is_err());
    }
}
