//! Fold a `crowdrl-obs` trace into the layer stack named after the crates.
//!
//! The fold reads only what the program already emits: span names, counter
//! snapshots, histogram snapshots and gauges. A span's *self time* is its
//! duration minus the part of it that its child spans cover. Spans nest
//! per thread (the recorder keeps one parent stack per thread), so a span
//! opened on a pool worker is a root of its own: its time counts towards
//! its layer but not against the driving thread's unattributed time.
//!
//! The benchmark wraps each traced repetition in one `bench.run` root span
//! on the driving thread. Its self time is the *unattributed* time: wall
//! time that no program span covers.

use crate::stats;
use crowdrl::obs::analyze::{split_project_scope, Trace};
use crowdrl::obs::Event;
use std::collections::HashMap;

/// Root span the benchmark opens around each traced repetition.
pub const ROOT_SPAN: &str = "bench.run";
/// Span around each checkpoint encode in the benchmark's checkpoint sink.
pub const ENCODE_SPAN: &str = "bench.checkpoint.encode";
/// Span around the checkpoint decode before a resume.
pub const DECODE_SPAN: &str = "bench.checkpoint.decode";

/// The span-carrying layers, bottom to top, with their share metric. The
/// linalg layer emits no spans: its time sits inside its callers' spans and
/// is read from the pool histograms instead.
const LAYERS: [(&str, &str); 6] = [
    ("nn", "share.nn"),
    ("rl", "share.rl"),
    ("inference", "share.inference"),
    ("core", "share.core"),
    ("serve", "share.serve"),
    ("service", "share.service"),
];

/// The layer a span belongs to, from its name with any `project.<id>.`
/// scope removed. The benchmark's own root span belongs to no layer. The
/// checkpoint codec spans are the benchmark's, but the code they time is
/// `crowdrl-serve`'s.
pub fn layer_of(span: &str) -> Option<&'static str> {
    let name = unscoped(span);
    let layer = match name {
        "dqn.fwd" | "dqn.bwd" => "nn",
        "dqn.step" | "serve.train" | "workflow.reward_train" => "rl",
        "serve.inference" | "workflow.inference" => "inference",
        "serve.decide" => "core",
        ENCODE_SPAN | DECODE_SPAN => "serve",
        _ if name.starts_with("em.") => "inference",
        _ if name.starts_with("decide.") || name.starts_with("workflow.") => "core",
        _ if name.starts_with("serve.") => "serve",
        _ if name.starts_with("service.") => "service",
        _ => return None,
    };
    Some(layer)
}

/// Sum starting from +0.0; `Iterator::sum` of no floats is -0.0.
fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, b| a + b)
}

fn unscoped(name: &str) -> &str {
    split_project_scope(name).map_or(name, |(_, tail)| tail)
}

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Pair start and end events into closed spans, in start order. A span
/// still open at the end of the trace is dropped.
pub fn spans(trace: &Trace) -> Vec<Span> {
    let mut open: HashMap<u64, Span> = HashMap::new();
    let mut closed = Vec::new();
    for e in &trace.events {
        match e {
            Event::SpanStart {
                id,
                parent,
                name,
                wall_ns,
            } => {
                open.insert(
                    *id,
                    Span {
                        id: *id,
                        parent: *parent,
                        name: name.clone(),
                        start_ns: *wall_ns,
                        end_ns: *wall_ns,
                    },
                );
            }
            Event::SpanEnd { id, wall_ns } => {
                if let Some(mut s) = open.remove(id) {
                    s.end_ns = *wall_ns;
                    closed.push(s);
                }
            }
            _ => {}
        }
    }
    closed.sort_by_key(|s| (s.start_ns, s.id));
    closed
}

/// Self time of every span, in the order of `spans`: its duration minus
/// the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Per-layer numbers from one traced repetition, as `(name, value)` in a
/// fixed order. Times are in milliseconds unless the name says otherwise.
pub fn layer_metrics(trace: &Trace, checkpoint_bytes: u64) -> Vec<(&'static str, f64)> {
    let spans = spans(trace);
    let selfs = self_times(&spans);
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut wall_ns = 0;
    let mut root_self_ns = 0;
    let mut layer_self: HashMap<&str, u64> = HashMap::new();
    // Self time and per-call durations by unscoped span name.
    let mut self_by_name: HashMap<&str, u64> = HashMap::new();
    let mut calls_by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let name = unscoped(&s.name);
        if name == ROOT_SPAN {
            wall_ns += s.duration_ns();
            root_self_ns += own;
        } else if let Some(layer) = layer_of(name) {
            *layer_self.entry(layer).or_default() += own;
        }
        *self_by_name.entry(name).or_default() += own;
        calls_by_name
            .entry(name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    let self_ms = |names: &[&str]| -> f64 {
        ms(names
            .iter()
            .map(|n| self_by_name.get(n).copied().unwrap_or(0))
            .sum())
    };
    let calls = |names: &[&str]| -> Vec<f64> {
        names
            .iter()
            .flat_map(|n| calls_by_name.get(n).cloned().unwrap_or_default())
            .collect()
    };

    // Counters summed over project scopes.
    let mut counters: HashMap<String, u64> = HashMap::new();
    for (name, v) in trace.counters() {
        *counters.entry(unscoped(&name).to_owned()).or_default() += v;
    }
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;

    // Histogram (count, sum) pairs, by full name.
    let hists: Vec<(&str, u64, f64)> = trace
        .histograms()
        .into_iter()
        .filter_map(|e| match e {
            Event::Histogram {
                name, count, sum, ..
            } => Some((name.as_str(), *count, *sum)),
            _ => None,
        })
        .collect();
    let hist_sum = |pred: &dyn Fn(&str) -> bool| -> (f64, f64) {
        hists
            .iter()
            .filter(|(n, _, _)| pred(n))
            .fold((0.0, 0.0), |(c, s), (_, count, sum)| {
                (c + *count as f64, s + sum)
            })
    };

    // Gauge values by unscoped name.
    let mut gauges: HashMap<&str, Vec<f64>> = HashMap::new();
    for e in &trace.events {
        if let Event::Gauge { name, value, .. } = e {
            gauges.entry(unscoped(name)).or_default().push(*value);
        }
    }
    let gauge_values = |names: &[&str]| -> Vec<f64> {
        names
            .iter()
            .flat_map(|n| gauges.get(n).cloned().unwrap_or_default())
            .collect()
    };

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let (pool_tasks, pool_exec_s) = hist_sum(&|n| n.starts_with("pool.execute."));
    let (_, pool_wait_s) = hist_sum(&|n| n.starts_with("pool.queue_wait."));
    let (_, matmul_s) = hist_sum(&|n| n.starts_with("pool.execute.matmul"));
    let (_, fanout_exec_s) = hist_sum(&|n| n == "pool.execute.untagged");
    let (_, fanout_wait_s) = hist_sum(&|n| n == "pool.queue_wait.untagged");
    let (_, cold_iters) = hist_sum(&|n| n == "em.joint.iters" || n == "em.ds.iters");

    let em_spans = ["em.engine.warm", "em.joint.infer", "em.ds.infer"];
    let decide = calls(&["serve.decide", "workflow.select"]);
    let refresh = calls(&["serve.refresh"]);
    let dirty = gauge_values(&["em.joint.dirty_fraction", "em.ds.dirty_fraction"]);
    let warm_iters = total(&gauge_values(&["em.joint.warm_iters", "em.ds.warm_iters"]));
    let faults_injected = counters
        .iter()
        .filter(|(name, _)| name.starts_with("fault.injected."))
        .map(|(_, v)| v)
        .sum::<u64>() as f64;
    let bootstrap_hits = counter("dqn.bootstrap.cache_hits");
    let rounds = counter("service.rounds");
    let service_self_ms = self_ms(&["service.run"]);

    let mut out = vec![
        ("linalg.pool.tasks", pool_tasks),
        ("linalg.pool.execute_ms", pool_exec_s * 1e3),
        ("linalg.pool.queue_wait_ms", pool_wait_s * 1e3),
        ("linalg.matmul_ms", matmul_s * 1e3),
        ("nn.forward_ms", self_ms(&["dqn.fwd"])),
        ("nn.backward_ms", self_ms(&["dqn.bwd"])),
        ("rl.train_steps", calls(&["dqn.step"]).len() as f64),
        ("rl.step_ms", self_ms(&["dqn.step"])),
        (
            "rl.bootstrap_hit_rate",
            ratio(
                bootstrap_hits,
                bootstrap_hits + counter("dqn.bootstrap.cache_misses"),
            ),
        ),
        ("inference.em_ms", self_ms(&em_spans)),
        ("inference.em_calls", calls(&em_spans).len() as f64),
        (
            "inference.cold_runs",
            counter("em.joint.runs") + counter("em.ds.runs"),
        ),
        ("inference.em_iters", cold_iters + warm_iters),
        (
            "inference.dirty_fraction",
            ratio(total(&dirty), dirty.len() as f64),
        ),
        ("core.decide_ms", total(&decide) / 1e3),
        ("core.decide_calls", decide.len() as f64),
        ("core.decide_p50_us", stats::percentile(&decide, 50.0)),
        ("core.decide_p99_us", stats::percentile(&decide, 99.0)),
        (
            "core.decide.scored_fraction",
            ratio(
                counter("decide.scored_pairs"),
                counter("decide.total_pairs"),
            ),
        ),
        (
            "core.decide.cache_hit_rate",
            ratio(
                counter("decide.cache_hits"),
                counter("decide.cache_hits") + counter("decide.cache_misses"),
            ),
        ),
        ("serve.events", counter("serve.events_processed")),
        ("serve.refresh_calls", refresh.len() as f64),
        ("serve.refresh_p50_us", stats::percentile(&refresh, 50.0)),
        ("serve.refresh_p99_us", stats::percentile(&refresh, 99.0)),
        ("serve.loop_ms", self_ms(&["serve.run"])),
        ("serve.timeouts", counter("serve.timeouts")),
        ("serve.requeues", counter("serve.requeues")),
        ("serve.retries", counter("retry.count")),
        ("serve.faults_injected", faults_injected),
        ("serve.outage_deferrals", counter("fault.injected.outage")),
        ("serve.quarantined", counter("quarantine.entered")),
        ("serve.checkpoint.encode_ms", self_ms(&[ENCODE_SPAN])),
        ("serve.checkpoint.decode_ms", self_ms(&[DECODE_SPAN])),
        ("serve.checkpoint.bytes", checkpoint_bytes as f64),
        ("service.rounds", rounds),
        ("service.run_self_ms", service_self_ms),
        (
            "service.self_us_per_round",
            ratio(service_self_ms * 1e3, rounds),
        ),
        ("service.fanout.execute_ms", fanout_exec_s * 1e3),
        ("service.fanout.queue_wait_ms", fanout_wait_s * 1e3),
    ];
    // Each layer's self time as a share of the traced wall time. With pool
    // threads the shares can sum past 1; on one thread they sum to
    // 1 - unattributed_share.
    for (layer, share) in LAYERS {
        let own = layer_self.get(layer).copied().unwrap_or(0);
        out.push((share, ratio(own as f64, wall_ns as f64)));
    }
    out.push((
        "unattributed_share",
        ratio(root_self_ns as f64, wall_ns as f64),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ss(id: u64, parent: Option<u64>, name: &str, w: u64) -> Event {
        Event::SpanStart {
            id,
            parent,
            name: name.into(),
            wall_ns: w,
        }
    }

    fn se(id: u64, w: u64) -> Event {
        Event::SpanEnd { id, wall_ns: w }
    }

    /// Driving thread: bench.run [0, 1000) holding service.run [100, 900),
    /// which holds a scoped serve.decide [200, 400) with decide.rank
    /// [250, 350) inside, and em.ds.infer [500, 700). A second thread runs
    /// dqn.fwd [150, 650) as a root of its own, overlapping all of it.
    fn synthetic() -> Trace {
        Trace {
            events: vec![
                ss(1, None, ROOT_SPAN, 0),
                ss(2, Some(1), "service.run", 100),
                ss(9, None, "dqn.fwd", 150),
                ss(3, Some(2), "project.4.serve.decide", 200),
                ss(4, Some(3), "decide.rank", 250),
                se(4, 350),
                se(3, 400),
                ss(5, Some(2), "em.ds.infer", 500),
                se(9, 650),
                se(5, 700),
                se(2, 900),
                se(1, 1000),
            ],
        }
    }

    fn metric(m: &[(&str, f64)], name: &str) -> f64 {
        m.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        let spans = spans(&synthetic());
        let selfs = self_times(&spans);
        let by_name: HashMap<&str, u64> = spans
            .iter()
            .zip(&selfs)
            .map(|(s, &t)| (s.name.as_str(), t))
            .collect();
        assert_eq!(by_name[ROOT_SPAN], 200);
        assert_eq!(by_name["service.run"], 400);
        assert_eq!(by_name["project.4.serve.decide"], 100);
        assert_eq!(by_name["decide.rank"], 100);
        assert_eq!(by_name["em.ds.infer"], 200);
        // The second thread's span overlaps the driving thread's spans in
        // time but is nobody's child: it keeps its whole duration.
        assert_eq!(by_name["dqn.fwd"], 500);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "p".into(),
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "a".into(),
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                id: 3,
                parent: Some(1),
                name: "b".into(),
                start_ns: 40,
                end_ns: 120,
            },
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn fold_attributes_layers_and_unattributed_share() {
        let m = layer_metrics(&synthetic(), 0);
        assert_eq!(metric(&m, "share.service"), 0.4);
        assert_eq!(metric(&m, "share.core"), 0.2);
        assert_eq!(metric(&m, "share.inference"), 0.2);
        assert_eq!(metric(&m, "share.nn"), 0.5);
        assert_eq!(metric(&m, "unattributed_share"), 0.2);
        assert_eq!(metric(&m, "core.decide_calls"), 1.0);
        assert_eq!(metric(&m, "core.decide_p99_us"), 0.2);
        assert_eq!(metric(&m, "nn.forward_ms"), 500.0 / 1e6);
        assert_eq!(metric(&m, "service.run_self_ms"), 400.0 / 1e6);
    }

    #[test]
    fn empty_trace_folds_to_positive_zeros() {
        for (name, value) in layer_metrics(&Trace::default(), 0) {
            assert!(value.to_bits() == 0, "{name} = {value:?}");
        }
    }

    #[test]
    fn layer_names_follow_the_crates() {
        assert_eq!(layer_of("project.12.serve.refresh"), Some("serve"));
        assert_eq!(layer_of("project.0.serve.decide"), Some("core"));
        assert_eq!(layer_of("workflow.select"), Some("core"));
        assert_eq!(layer_of("workflow.reward_train"), Some("rl"));
        assert_eq!(layer_of("em.engine.warm"), Some("inference"));
        assert_eq!(layer_of(ENCODE_SPAN), Some("serve"));
        assert_eq!(layer_of(ROOT_SPAN), None);
    }
}
