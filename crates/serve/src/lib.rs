//! # crowdrl-serve
//!
//! A discrete-event **asynchronous labelling runtime** for CrowdRL.
//!
//! The batch workflow ([`CrowdRl::run`]) pretends annotators answer
//! instantly: ask a panel, get the answers, infer, repeat. A deployed
//! labelling service gets none of that — answers arrive minutes apart,
//! some never arrive, and the budget must survive all of it. This crate
//! replays CrowdRL's decision loop on top of that reality:
//!
//! * a deterministic **discrete-event scheduler** ([`clock`], [`event`])
//!   driven by per-annotator latency/availability models from
//!   `crowdrl-sim`;
//! * an **in-flight assignment ledger** ([`ledger`]) with configurable
//!   timeouts, requeue-on-expiry and duplicate-answer rejection, settled
//!   against reservation-based [`AccountBook`] budget accounts that
//!   charge exactly once;
//! * the **shard** ([`shard`]): one event queue plus one ledger slice,
//!   and [`RunBook::apply`](shard::RunBook::apply), the one function
//!   that books a settlement;
//! * the **run** ([`run`]): one labelling campaign — agent core, shards,
//!   books — with one open path, one refresh step and one checkpoint
//!   record. The single-run pump ([`runtime`]) is a [`Run`] on one
//!   shard; the multi-tenant `crowdrl-service` keeps one per project,
//!   on several shards;
//! * **incremental answer ingestion** that refreshes truth inference on
//!   watermarks — every *k* delivered answers or *t* simulated time
//!   units ([`config`], [`runtime`]);
//! * two execution modes ([`ExecMode`]) that only cap the shared thread
//!   pool around one implementation — both produce identical traces by
//!   construction;
//! * a [`ServiceMetrics`] report: answer throughput, latency
//!   p50/p95/p99, timeout/requeue counts, budget burn rate.
//!
//! Entry points: [`AsyncRuntime::run`], or the [`RunAsync`] extension
//! trait that bolts `run_async` onto [`CrowdRl`]:
//!
//! ```
//! use crowdrl_core::{CrowdRl, CrowdRlConfig};
//! use crowdrl_serve::{RunAsync, ServeConfig};
//! use crowdrl_sim::{DatasetSpec, PoolSpec};
//! use crowdrl_types::rng::seeded;
//!
//! let mut rng = seeded(7);
//! let dataset = DatasetSpec::gaussian("demo", 40, 3, 2)
//!     .with_separation(3.0)
//!     .generate(&mut rng)
//!     .unwrap();
//! let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
//! let crowdrl = CrowdRl::new(CrowdRlConfig::builder().budget(120.0).build().unwrap());
//! let result = crowdrl
//!     .run_async(&dataset, &pool, &ServeConfig::default(), &mut rng)
//!     .unwrap();
//! assert!(result.outcome.coverage() > 0.0);
//! println!("{}", result.metrics);
//! ```
//!
//! The trait lives here rather than in `crowdrl-core` because the
//! dependency points this way (serve builds on core); re-exported from
//! the `crowdrl` facade it reads as part of the same API.
//!
//! [`CrowdRl`]: crowdrl_core::CrowdRl
//! [`CrowdRl::run`]: crowdrl_core::CrowdRl::run

pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod core_loop;
pub mod error;
pub mod event;
pub mod ledger;
pub mod metrics;
pub mod run;
pub mod runtime;
pub mod sampler;
pub mod shard;
pub mod supervisor;

pub use checkpoint::{PumpCheckpoint, RunCheckpoint, RunState, ShardState};
pub use clock::EventQueue;
pub use config::{ExecMode, ServeConfig};
pub use error::ServeError;
pub use event::{Event, EventKind, TraceEvent};
pub use ledger::{
    AccountBook, AccountState, AssignmentLedger, AssignmentRecord, AssignmentStatus, Delivery,
    Expiry,
};
pub use metrics::{MetricsCollector, ServiceMetrics};
pub use run::Run;
pub use runtime::{AsyncOutcome, AsyncRuntime, CheckpointSink, RunControl, RunOutcome};
pub use shard::{RunBook, Shard, ShardBatch, ShardEvent};
pub use supervisor::{
    DegradedMode, Quarantine, QuarantineConfig, QuarantineEvent, QuarantineStatus, SupervisorConfig,
};

use crowdrl_core::CrowdRl;
use crowdrl_sim::AnnotatorPool;
use crowdrl_types::{Dataset, Result};
use rand::Rng;

/// Extension trait: run a configured [`CrowdRl`] through the
/// asynchronous runtime instead of the batch loop.
pub trait RunAsync {
    /// Label `dataset` asynchronously. Same dataset, pool and budget as
    /// [`CrowdRl::run`](crowdrl_core::CrowdRl::run); the outcome is
    /// directly comparable.
    fn run_async<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        serve: &ServeConfig,
        rng: &mut R,
    ) -> Result<AsyncOutcome>;
}

impl RunAsync for CrowdRl {
    fn run_async<R: Rng + ?Sized>(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        serve: &ServeConfig,
        rng: &mut R,
    ) -> Result<AsyncOutcome> {
        AsyncRuntime::new(self.config().clone(), serve.clone()).run(dataset, pool, rng)
    }
}
