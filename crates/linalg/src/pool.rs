//! Deterministic reusable worker pool for data-parallel hot paths.
//!
//! Every parallel kernel in the workspace follows the same three rules
//! (DESIGN.md §9), which together make results **bit-identical for any
//! thread count**, including one:
//!
//! 1. Chunk boundaries are a function of the data size only — never of the
//!    thread count — so the work decomposition is the same no matter how
//!    many workers execute it.
//! 2. A chunk either writes a disjoint region of the output (matmul row
//!    partitions) or returns a per-chunk partial that the caller merges in
//!    chunk-index order ([`map_chunks`]). Floating-point operation order is
//!    therefore fixed by the chunking, not by the schedule.
//! 3. The serial path runs the *same* chunked algorithm inline; the pool
//!    only changes which thread executes each chunk.
//!
//! The pool itself is a small set of long-lived OS threads parked on a
//! shared job channel. Callers always drive chunks themselves and merely
//! *share* leftover chunks with idle workers, so a busy or starved queue
//! can never stall a caller, and workers never block on another caller's
//! work — safe under concurrent `run_chunks` calls from many test threads.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

use crowdrl_obs as obs;

/// Hard upper bound on threads executing one `run_chunks` call (the caller
/// plus pool workers). Keeps the worker set small and reusable.
pub const MAX_THREADS: usize = 8;

/// Sentinel meaning "not initialised yet" in [`THREADS`].
const UNSET: usize = usize::MAX;

/// Effective thread cap. Lazily initialised from `CROWDRL_THREADS` (unset,
/// `0`, or unparsable → available cores); runtime-settable for tests.
static THREADS: AtomicUsize = AtomicUsize::new(UNSET);

type Job = Box<dyn FnOnce() + Send + 'static>;

static QUEUE: OnceLock<crossbeam::channel::Sender<Job>> = OnceLock::new();

thread_local! {
    /// True on pool worker threads and on callers while they drive chunks.
    /// A `run_chunks` call that starts under this flag runs serially
    /// inline — nested parallelism never re-enters the pool, so workers
    /// can never deadlock waiting on their own queue.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };

    /// Label for the *kind* of pooled work the current thread is about to
    /// launch (e.g. `"matmul"`, `"em_estep"`). Purely observational: it
    /// keys the per-task trace histograms and never affects scheduling.
    static TASK_KIND: Cell<&'static str> = const { Cell::new("untagged") };
}

/// RAII guard restoring the previous task-kind label on drop.
pub struct TaskKindGuard {
    prev: &'static str,
}

/// Label subsequent `run_chunks`/`map_chunks` calls on this thread with a
/// task kind for the trace histograms (`pool.execute.<kind>` and
/// `pool.queue_wait.<kind>`). Nested guards restore the outer label. The
/// label has zero effect on execution — it only names histogram series when
/// a `crowdrl_obs` recorder is active.
pub fn task_kind(kind: &'static str) -> TaskKindGuard {
    TASK_KIND.with(|c| TaskKindGuard {
        prev: c.replace(kind),
    })
}

impl Drop for TaskKindGuard {
    fn drop(&mut self) {
        TASK_KIND.with(|c| c.set(self.prev));
    }
}

/// Trace context for one `run_chunks` call; present only while a recorder
/// is installed so the disabled path never reads a clock.
struct ObsCtx {
    execute_name: String,
    queue_name: String,
    enqueued: Instant,
}

impl ObsCtx {
    fn capture() -> Option<Self> {
        if !obs::enabled() {
            return None;
        }
        let kind = TASK_KIND.with(|c| c.get());
        Some(ObsCtx {
            execute_name: format!("pool.execute.{kind}"),
            queue_name: format!("pool.queue_wait.{kind}"),
            enqueued: Instant::now(),
        })
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn default_threads() -> usize {
    match std::env::var("CROWDRL_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => available_cores(),
        },
        Err(_) => available_cores(),
    }
}

/// The current thread cap, clamped to `1..=MAX_THREADS`.
pub fn max_threads() -> usize {
    let mut t = THREADS.load(Ordering::Relaxed);
    if t == UNSET {
        // Racy lazy init is fine: every racer computes the same default,
        // and an interleaved `set_threads` wins via compare-exchange.
        let d = default_threads();
        t = match THREADS.compare_exchange(UNSET, d, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => d,
            Err(current) => current,
        };
    }
    t.clamp(1, MAX_THREADS)
}

/// Override the thread cap at runtime (tests sweep 1, 2, 4…). `0` restores
/// the environment default. Results never depend on this value — only
/// wall-clock time does.
pub fn set_threads(n: usize) {
    let v = if n == 0 { default_threads() } else { n };
    THREADS.store(v, Ordering::Relaxed);
}

/// The shared job queue, spawning the worker threads on first use. Workers
/// are spawned up to the hard cap (not the current soft cap) so the cap can
/// be raised later without respawning; surplus workers just park on `recv`.
fn queue() -> &'static crossbeam::channel::Sender<Job> {
    QUEUE.get_or_init(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..MAX_THREADS - 1 {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("crowdrl-pool-{i}"))
                .spawn(move || {
                    IN_POOL.with(|f| f.set(true));
                    // The sender is leaked into a static, so `recv` only
                    // fails at process teardown.
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn crowdrl pool worker");
        }
        tx
    })
}

/// State shared between the caller and its helper jobs for one
/// `run_chunks` call. Lives on the caller's stack; helpers borrow it via a
/// lifetime-erased reference (see the safety argument in `run_chunks`).
struct Shared<'a> {
    /// Next unclaimed chunk index (work-claiming counter).
    next: AtomicUsize,
    n_chunks: usize,
    f: &'a (dyn Fn(usize) + Sync),
    /// Helper jobs that have not finished yet; guarded by `done`.
    pending: Mutex<usize>,
    done: Condvar,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Trace context (task-kind histogram names); `None` unless recording.
    obs: Option<ObsCtx>,
}

impl Shared<'_> {
    /// Claim and execute chunks until none remain. Chunk panics are caught
    /// and stashed so sibling chunks still run and the caller can re-raise.
    fn drain(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                return;
            }
            let t0 = self.obs.as_ref().map(|_| Instant::now());
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                let mut slot = self.panic.lock().expect("pool panic slot");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if let (Some(ctx), Some(t0)) = (&self.obs, t0) {
                obs::histogram_seconds(&ctx.execute_name, t0.elapsed());
            }
        }
    }

    fn finish_helper(&self) {
        let mut pending = self.pending.lock().expect("pool pending");
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Execute `f(0), f(1), …, f(n_chunks - 1)`, possibly on multiple threads.
///
/// `f` must be safe to call concurrently for distinct chunk indices (each
/// chunk touching disjoint state). Every chunk runs exactly once. A panic
/// in any chunk is re-raised on the caller after all chunks completed.
///
/// With a thread cap of 1 — or when called from inside a pool chunk — all
/// chunks run inline on the caller in index order; this is the same
/// algorithm, so results are identical by construction.
pub fn run_chunks<F: Fn(usize) + Sync>(n_chunks: usize, f: F) {
    if n_chunks == 0 {
        return;
    }
    let threads = max_threads().min(n_chunks);
    if threads <= 1 || IN_POOL.with(|c| c.get()) {
        // Serial path: same chunked algorithm, executed inline. Record
        // per-chunk execute times under the same histogram names so serial
        // and pooled traces stay comparable (queue wait is zero here and
        // is simply not sampled).
        match ObsCtx::capture() {
            Some(ctx) => {
                for i in 0..n_chunks {
                    let t0 = Instant::now();
                    f(i);
                    obs::histogram_seconds(&ctx.execute_name, t0.elapsed());
                }
            }
            None => {
                for i in 0..n_chunks {
                    f(i);
                }
            }
        }
        return;
    }

    let shared = Shared {
        next: AtomicUsize::new(0),
        n_chunks,
        f: &f,
        pending: Mutex::new(threads - 1),
        done: Condvar::new(),
        panic: Mutex::new(None),
        obs: ObsCtx::capture(),
    };
    // SAFETY: helper jobs only touch `shared` before their `finish_helper`
    // decrement, and the caller blocks below until `pending` reaches zero —
    // i.e. until every helper job has run to completion — so the erased
    // reference never outlives the stack frame it points into. Jobs sitting
    // in the queue are guaranteed to run: workers loop forever and execute
    // every queued job, even if only to find the chunk counter exhausted.
    let erased: &'static Shared<'static> =
        unsafe { std::mem::transmute::<&Shared<'_>, &'static Shared<'static>>(&shared) };
    let tx = queue();
    for _ in 0..threads - 1 {
        let job: Job = Box::new(move || {
            if let Some(ctx) = &erased.obs {
                // Time from enqueue to a worker actually picking the job
                // up — the queue-wait component of pool latency.
                obs::histogram_seconds(&ctx.queue_name, ctx.enqueued.elapsed());
            }
            erased.drain();
            erased.finish_helper();
        });
        if tx.send(job).is_err() {
            unreachable!("pool queue disconnected: workers never drop their receiver");
        }
    }

    // The caller drives chunks too — worst case it executes all of them,
    // so a busy pool can never stall this call. Mark the thread as inside
    // the pool so nested parallel kernels run inline.
    IN_POOL.with(|c| c.set(true));
    shared.drain();
    IN_POOL.with(|c| c.set(false));

    let mut pending = shared.pending.lock().expect("pool pending");
    while *pending > 0 {
        pending = shared.done.wait(pending).expect("pool pending");
    }
    drop(pending);

    let payload = shared.panic.lock().expect("pool panic slot").take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Number of fixed-size chunks covering `0..n` (data-size-dependent only).
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// The `i`-th fixed chunk range of `0..n`.
pub fn chunk_range(n: usize, chunk: usize, i: usize) -> Range<usize> {
    let chunk = chunk.max(1);
    (i * chunk)..((i + 1) * chunk).min(n)
}

/// Run `f` over every fixed `chunk`-sized range of `0..n`.
pub fn for_each_chunk<F: Fn(Range<usize>) + Sync>(n: usize, chunk: usize, f: F) {
    run_chunks(chunk_count(n, chunk), |i| f(chunk_range(n, chunk, i)));
}

/// Map every fixed `chunk`-sized range of `0..n` through `f`, returning the
/// per-chunk results **in chunk-index order** — the deterministic-reduction
/// primitive: merge partials left to right and the result cannot depend on
/// which thread computed which chunk.
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let n_chunks = chunk_count(n, chunk);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    out.resize_with(n_chunks, || None);
    let slots = SendPtr(out.as_mut_ptr());
    run_chunks(n_chunks, |i| {
        let value = f(chunk_range(n, chunk, i));
        // SAFETY: chunk index `i` is claimed by exactly one thread and
        // writes exactly slot `i`; slots are disjoint and outlive the call.
        unsafe { *slots.get().add(i) = Some(value) };
    });
    out.into_iter()
        .map(|v| v.expect("every chunk ran"))
        .collect()
}

/// Map `f` over every item, one chunk per item, returning the results
/// **in item order**. Each item is handed to exactly one chunk, so `f`
/// may mutate it — the safe fan-out over disjoint mutable state (one
/// shard advance, one project refresh).
pub fn map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let base = SendPtr(items.as_mut_ptr());
    map_chunks(items.len(), 1, |range| {
        // SAFETY: chunk `i` covers exactly `i..i + 1`, and every chunk
        // index is claimed by one thread, so each item is borrowed
        // mutably once; `items` is exclusively borrowed for the call.
        f(unsafe { &mut *base.get().add(range.start) })
    })
}

/// Raw-pointer wrapper that asserts cross-thread use is safe because every
/// chunk writes a disjoint region. Used by [`map_chunks`] and the
/// row-partitioned matmul kernels.
pub struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

// SAFETY: callers guarantee disjoint access per chunk (see `run_chunks`).
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — the wrapper only moves the pointer between threads.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer.
    pub fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_geometry_is_data_size_only() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(8, 4), 2);
        assert_eq!(chunk_count(9, 4), 3);
        assert_eq!(chunk_range(9, 4, 0), 0..4);
        assert_eq!(chunk_range(9, 4, 2), 8..9);
        // Degenerate chunk size is clamped, not divided by zero.
        assert_eq!(chunk_count(5, 0), 5);
        assert_eq!(chunk_range(5, 0, 4), 4..5);
    }

    #[test]
    fn every_chunk_runs_exactly_once_at_every_thread_count() {
        for threads in [1, 2, 4, 8] {
            set_threads(threads);
            let hits: Vec<AtomicU64> = (0..23).map(|_| AtomicU64::new(0)).collect();
            run_chunks(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {i} at {threads} threads"
                );
            }
        }
        set_threads(0);
    }

    #[test]
    fn map_chunks_returns_partials_in_chunk_order() {
        for threads in [1, 3, 8] {
            set_threads(threads);
            let partials = map_chunks(10, 3, |r| r.clone());
            assert_eq!(partials, vec![0..3, 3..6, 6..9, 9..10]);
        }
        set_threads(0);
    }

    #[test]
    fn map_mut_visits_each_item_once_and_returns_in_item_order() {
        for threads in [1, 3, 8] {
            set_threads(threads);
            let mut items: Vec<usize> = (0..11).collect();
            let before = map_mut(&mut items, |x| std::mem::replace(x, *x + 100));
            assert_eq!(before, (0..11).collect::<Vec<_>>());
            assert_eq!(items, (100..111).collect::<Vec<_>>());
        }
        set_threads(0);
    }

    #[test]
    fn nested_run_chunks_completes_inline() {
        set_threads(4);
        let total = AtomicU64::new(0);
        run_chunks(4, |_| {
            // Nested call: must run inline without touching the pool.
            run_chunks(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
        set_threads(0);
    }

    #[test]
    fn chunk_panic_propagates_to_caller() {
        set_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_chunks(8, |i| {
                if i == 5 {
                    panic!("chunk 5 exploded");
                }
            });
        }));
        set_threads(0);
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "chunk 5 exploded");
        // The pool must remain usable after a panic.
        let count = AtomicU64::new(0);
        run_chunks(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn thread_cap_is_clamped() {
        set_threads(64);
        assert_eq!(max_threads(), MAX_THREADS);
        set_threads(0);
        assert!(max_threads() >= 1);
    }
}
