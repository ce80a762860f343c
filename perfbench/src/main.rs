//! End-to-end and per-layer benchmark of the CrowdRL labelling loop.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run generates the workload's campaigns from `--seed`, times set-up,
//! then repeats passes over the campaigns until `--seconds` have passed (at
//! least one pass). The first pass records each campaign's reference
//! output, and every later repetition is checked against it (labels,
//! merged-trace hash, per-project spend, budgets). Every timing is
//! corrected for the host's speed at the moment it was taken (see
//! `calib.rs`).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` untraced and traced repetitions alternate and it carries
//! the per-layer fold of the traced ones (see `fold.rs`). Earlier lines give
//! the host block and a readable report. A failed check prints the result
//! with `"correct": false` and exits with code 1.

mod calib;
mod fold;
mod stats;
mod workloads;

use crowdrl::obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workloads::{Campaign, Output, Runner, Workload};

/// Counts every heap allocation (alloc, alloc_zeroed, realloc) and hands
/// the work to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-up samples; each sample times a batch of set-ups.
const SETUP_SAMPLES: usize = 15;
/// Wall time one set-up sample aims for.
const SETUP_SAMPLE_TARGET: Duration = Duration::from_millis(20);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper_batch|tenants_many|pool_wide|serve_chaos \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match bench(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

/// Repetition counts and the result of the correctness checks.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn add(&mut self, projects: usize, failed: usize) {
        self.attempted += projects;
        self.failed += failed;
    }
}

/// One repetition of one campaign.
struct Rep {
    campaign: usize,
    /// Wall time corrected to the reference host speed.
    wall_s: f64,
    /// Wall time as measured.
    raw_s: f64,
    allocs_per_answer: f64,
    /// The layer fold; empty for an untraced repetition.
    layers: Vec<(&'static str, f64)>,
}

/// Run the timed unit once, between two host-speed probes, and check it
/// against the campaign's reference; with no reference yet, check it alone.
/// A traced repetition records into an in-memory sink inside the
/// benchmark's root span and is folded into layers afterwards.
fn rep(
    runner: &Runner,
    campaign: &Campaign,
    index: usize,
    reference: Option<&Output>,
    traced: bool,
    tally: &mut Tally,
) -> Result<(Rep, Output), String> {
    let sink = obs::BufferSink::new();
    if traced {
        obs::Recorder::to_writer(Box::new(sink.clone())).install();
    }
    let speed_before = calib::probe();
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = {
        let _root = obs::span(fold::ROOT_SPAN);
        workloads::run(runner, campaign)
    };
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let speed_after = calib::probe();
    if traced {
        obs::shutdown();
    }
    let (out, wall) = result?;
    let failed = match reference {
        Some(reference) => workloads::failures(reference, &out),
        None => workloads::failures_alone(&out),
    };
    tally.add(out.projects.len(), failed);
    let layers = if traced {
        let trace = obs::analyze::parse_trace(&sink.contents())?;
        fold::layer_metrics(&trace, out.checkpoint_bytes)
    } else {
        Vec::new()
    };
    let raw_s = wall.as_secs_f64();
    let rep = Rep {
        campaign: index,
        wall_s: raw_s * calib::scale(speed_before, speed_after),
        raw_s,
        allocs_per_answer: allocs as f64 / out.answers.max(1) as f64,
        layers,
    };
    Ok((rep, out))
}

/// Time set-up of one campaign: one cold set-up (which also pays lazy
/// first-call init), then `SETUP_SAMPLES` batches sized to about
/// `SETUP_SAMPLE_TARGET` each, every batch between two host-speed probes.
/// Returns the cold time as measured and the corrected per-set-up samples.
fn measure_setup(campaign: &Campaign) -> Result<(f64, Vec<f64>), String> {
    let t0 = Instant::now();
    workloads::init_process();
    drop(std::hint::black_box(workloads::setup(campaign)?));
    let cold = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    drop(std::hint::black_box(workloads::setup(campaign)?));
    let warm = t1.elapsed().as_secs_f64().max(1e-7);
    let batch = ((SETUP_SAMPLE_TARGET.as_secs_f64() / warm) as usize).clamp(1, 10_000);
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let speed_before = calib::probe();
        let t = Instant::now();
        for _ in 0..batch {
            drop(std::hint::black_box(workloads::setup(campaign)?));
        }
        let elapsed = t.elapsed().as_secs_f64();
        let scale = calib::scale(speed_before, calib::probe());
        samples.push(elapsed * scale / batch as f64);
    }
    Ok((cold, samples))
}

fn bench(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let campaigns = workloads::generate(w, args.seed)?;
    let (cold_setup_s, setup) = measure_setup(&campaigns[0])?;
    let mut runners = campaigns
        .iter()
        .map(workloads::setup)
        .collect::<Result<Vec<_>, _>>()?;

    // Passes over the campaigns until time is up and every campaign has a
    // timing sample. The first pass gives each campaign the reference
    // output every later repetition must reproduce. Its repetitions are
    // timing samples too, except the very first, which warms the process
    // up, and any whose timed unit changes once the reference is known
    // (`serve_chaos` is killed and resumed from then on).
    let mut tally = Tally::default();
    let mut references: Vec<Output> = Vec::with_capacity(campaigns.len());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(args.seconds);
    let mut i = 0;
    let unsampled =
        |reps: &[Rep]| (0..campaigns.len()).any(|k| reps.iter().all(|r| r.campaign != k));
    while unsampled(&untraced) || Instant::now() < deadline {
        let k = i % campaigns.len();
        let (runner, campaign) = (&mut runners[k], &campaigns[k]);
        let (sample, out) = rep(runner, campaign, k, references.get(k), false, &mut tally)?;
        if references.len() == k {
            if i > 0 && !runner.arm_kill(&out) {
                untraced.push(sample);
            }
            references.push(out);
        } else {
            untraced.push(sample);
        }
        if args.trace {
            let reference = Some(&references[k]);
            traced.push(rep(runner, campaign, k, reference, true, &mut tally)?.0);
        }
        i += 1;
    }
    let answers: u64 = references.iter().map(|r| r.answers).sum();
    println!("host {}", host_block());
    println!(
        "workload {} seed {} trace {}: {} campaigns, {} answers, {} passes in {:.3} s",
        w.name(),
        args.seed,
        u8::from(args.trace),
        campaigns.len(),
        answers,
        i.div_ceil(campaigns.len()),
        t0.elapsed().as_secs_f64()
    );

    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let wall_s = campaign_mean(&untraced, |r| r.wall_s);
    let raw_s = campaign_mean(&untraced, |r| r.raw_s);
    let setup_s = stats::summarize(&setup);
    let correct = tally.failed == 0;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  wall_s        {wall_s:.6} (mean of per-campaign medians, at reference host speed); \
         per repetition {}",
        stats::summarize(&walls)
    );
    println!(
        "  raw wall      {raw_s:.6} as measured; host speed {:.3} of the reference",
        wall_s / raw_s
    );
    println!("  setup_s       {setup_s} (cold first set-up {cold_setup_s:.6})");
    println!(
        "  error_rate    {error_rate} fraction ({} failed of {} project runs)",
        tally.failed, tally.attempted
    );
    for (k, r) in references.iter().enumerate() {
        let walls: Vec<f64> = untraced
            .iter()
            .filter(|rep| rep.campaign == k)
            .map(|rep| rep.wall_s)
            .collect();
        print!(
            "  campaign {k}     {} answers, wall {}",
            r.answers,
            stats::summarize(&walls)
        );
        if r.checkpoints > 0 {
            print!(
                ", {} checkpoints of {} bytes in all, killed at #{}",
                r.checkpoints,
                r.checkpoint_bytes,
                r.checkpoints.div_ceil(2)
            );
        }
        println!();
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut m = vec![
            (
                "process.allocs_per_answer",
                campaign_mean(&untraced, |r| r.allocs_per_answer),
                "count",
            ),
            (
                "obs.trace_overhead",
                campaign_mean(&traced, |r| r.wall_s) / wall_s - 1.0,
                "fraction",
            ),
        ];
        for (j, (name, _)) in traced[0].layers.iter().enumerate() {
            let value = campaign_mean(&traced, |r| r.layers[j].1);
            m.push((name, value, unit_of(name)));
        }
        print_layer_table(&m, traced.len());
        m
    } else {
        let accuracy = references
            .iter()
            .zip(&campaigns)
            .map(|(r, c)| workloads::accuracy(r, c))
            .sum::<f64>()
            / campaigns.len() as f64;
        vec![
            ("wall_s", wall_s, "s"),
            (
                "answers_per_s",
                answers as f64 / campaigns.len() as f64 / wall_s,
                "1/s",
            ),
            ("setup_s", setup_s.median, "s"),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
            ("accuracy", accuracy, "fraction"),
        ]
    };

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("formatting into a String");
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

/// Mean over campaigns of the median of `value` over each campaign's
/// repetitions.
fn campaign_mean(reps: &[Rep], value: impl Fn(&Rep) -> f64) -> f64 {
    let groups: Vec<(usize, f64)> = reps.iter().map(|r| (r.campaign, value(r))).collect();
    stats::mean_of_group_medians(&groups)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") || name.ends_with("_us_per_round") {
        "us"
    } else if name.ends_with(".bytes") {
        "bytes"
    } else if name.ends_with("_share")
        || name.ends_with("_rate")
        || name.ends_with("_fraction")
        || name.starts_with("share.")
    {
        "fraction"
    } else {
        "count"
    }
}

/// The layer fold as a table: each layer's self time as a share of traced
/// wall time, then the unattributed remainder.
fn print_layer_table(metrics: &[(&str, f64, &str)], samples: usize) {
    println!(
        "  layer fold ({samples} traced repetitions; self time / wall, \
         mean of per-campaign medians):"
    );
    println!("    linalg      (no spans: inside nn / inference; see linalg.pool.*)");
    for (name, value, _) in metrics {
        if let Some(layer) = name.strip_prefix("share.") {
            println!("    {layer:<11} {:>6.1} %", value * 100.0);
        }
    }
    for (name, value, _) in metrics {
        if *name == "unattributed_share" {
            println!("    {:<11} {:>6.1} %", "unattributed", value * 100.0);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Facts two results must share to be comparable, as one JSON object.
fn host_block() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"linalg_threads\": {}, \
         \"exec_mode\": \"{:?}\", \"numeric\": \"{:?}\", \
         \"commit\": {:?}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu,
        rustc,
        crowdrl::linalg::pool::max_threads(),
        workloads::EXEC_MODE,
        workloads::NUMERIC,
        git_commit().unwrap_or_else(|| "unknown".into()),
    )
}

/// The checked-out commit, read from `.git` in the working directory (no
/// search upwards, no git process); `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_owned()),
        Some(r) => {
            if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
                return Some(id.trim().to_owned());
            }
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        }
    }
}
