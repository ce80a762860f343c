//! Service-level metrics for one asynchronous labelling run.
//!
//! Two clocks matter and they are different things: the *simulated* clock
//! (annotator latencies, timeouts — what the labelling service would
//! experience) and the *wall* clock (how fast this process pumps events —
//! what a capacity planner cares about). The report keeps them separate:
//! answer throughput and latency percentiles are simulated-time, event
//! throughput is wall-time.

use crowdrl_obs as obs;
use crowdrl_types::SimTime;
use std::fmt;

/// Nearest-rank percentile over an ascending-sorted sample slice.
///
/// The edge cases are explicit and tested:
/// * an **empty** slice has no samples — every percentile reports `0.0`;
/// * `p <= 0` is the **minimum**: nearest-rank has no rank below 1, so p0
///   clamps to the first sample (this is the conventional p0 = min);
/// * `p >= 100` is the **maximum** (rank `n`);
/// * otherwise the value at rank `⌈p/100 · n⌉`, clamped into `[1, n]` —
///   which means a **single-sample** slice returns that sample for *every*
///   percentile (p0 == p50 == p100 == the sample).
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    // Negative products saturate to 0 on the `as usize` cast; the clamp
    // then lifts them to rank 1 (the minimum).
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Accumulates raw observations during the run; [`MetricsCollector::finish`]
/// turns them into a [`ServiceMetrics`] report. Checkpoints store it
/// as is (the `record_codec!` table in [`checkpoint`](crate::checkpoint)).
#[derive(Debug, Default, Clone)]
pub struct MetricsCollector {
    /// Delivered-answer latencies, simulated time units, arrival order.
    pub latencies: Vec<f64>,
    /// Questions dispatched.
    pub dispatched: usize,
    /// Answers delivered, recorded and charged.
    pub delivered: usize,
    /// Answers rejected (late after expiry, or duplicate).
    pub rejected: usize,
    /// Assignments that timed out.
    pub timeouts: usize,
    /// Objects put back into the candidate pool after a timeout.
    pub requeues: usize,
    /// Truth-inference refreshes run.
    pub refreshes: usize,
    /// Events popped off the event queue, no-op pops included.
    pub events: usize,
}

impl MetricsCollector {
    /// Fresh, all-zero collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalize into a report.
    ///
    /// `sim_duration` is the clock reading when the queue drained,
    /// `wall_seconds` the measured pump time, `budget_spent` the real
    /// charges.
    pub fn finish(
        mut self,
        sim_duration: SimTime,
        wall_seconds: f64,
        budget_spent: f64,
    ) -> ServiceMetrics {
        self.latencies.sort_by(f64::total_cmp);
        let pct = |p: f64| nearest_rank(&self.latencies, p);
        let sim = sim_duration.as_f64();
        ServiceMetrics {
            dispatched: self.dispatched,
            answers_delivered: self.delivered,
            answers_rejected: self.rejected,
            timeouts: self.timeouts,
            requeues: self.requeues,
            refreshes: self.refreshes,
            events_processed: self.events,
            sim_duration,
            wall_seconds,
            latency_p50: pct(50.0),
            latency_p95: pct(95.0),
            latency_p99: pct(99.0),
            answers_per_time_unit: if sim > 0.0 {
                self.delivered as f64 / sim
            } else {
                0.0
            },
            events_per_second: if wall_seconds > 0.0 {
                self.events as f64 / wall_seconds
            } else {
                0.0
            },
            budget_spent,
            budget_burn_rate: if sim > 0.0 { budget_spent / sim } else { 0.0 },
        }
    }
}

/// The service report for one asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMetrics {
    /// Questions dispatched to annotators.
    pub dispatched: usize,
    /// Answers delivered in time, recorded and charged.
    pub answers_delivered: usize,
    /// Answers rejected (late or duplicate) — received but never charged.
    pub answers_rejected: usize,
    /// Assignments whose timeout fired before the answer arrived.
    pub timeouts: usize,
    /// Objects returned to the candidate pool after a timeout.
    pub requeues: usize,
    /// Truth-inference refreshes triggered by the watermarks.
    pub refreshes: usize,
    /// Events the pump processed.
    pub events_processed: usize,
    /// Final simulated-clock reading.
    pub sim_duration: SimTime,
    /// Wall-clock seconds spent pumping events.
    pub wall_seconds: f64,
    /// Median delivered-answer latency, simulated time units.
    pub latency_p50: f64,
    /// 95th-percentile latency.
    pub latency_p95: f64,
    /// 99th-percentile latency.
    pub latency_p99: f64,
    /// Delivered answers per simulated time unit.
    pub answers_per_time_unit: f64,
    /// Pump throughput, events per wall-clock second.
    pub events_per_second: f64,
    /// Budget units actually charged.
    pub budget_spent: f64,
    /// Budget units charged per simulated time unit.
    pub budget_burn_rate: f64,
}

impl ServiceMetrics {
    /// Bridge this report into the `crowdrl-obs` trace stream: the
    /// service counters become trace counters and the rates/percentiles
    /// become gauges, so `crowdrl-trace` shows batch and async runs in
    /// one place. No-op unless a recorder is installed.
    pub fn emit_trace(&self) {
        self.emit_trace_scoped("");
    }

    /// [`emit_trace`](Self::emit_trace) with every metric name prefixed
    /// by `scope` (e.g. `project.3.`). The multi-tenant service emits one
    /// scoped report per project so concurrent runs' counters and gauges
    /// do not collide in a single trace file.
    pub fn emit_trace_scoped(&self, scope: &str) {
        if !obs::enabled() {
            return;
        }
        let counter = |name: &str, v: u64| obs::counter_add(&format!("{scope}{name}"), v);
        let gauge = |name: &str, v: f64| obs::gauge(&format!("{scope}{name}"), v);
        counter("serve.dispatched", self.dispatched as u64);
        counter("serve.answers_delivered", self.answers_delivered as u64);
        counter("serve.answers_rejected", self.answers_rejected as u64);
        counter("serve.timeouts", self.timeouts as u64);
        counter("serve.requeues", self.requeues as u64);
        counter("serve.refreshes", self.refreshes as u64);
        counter("serve.events_processed", self.events_processed as u64);
        // Latencies and the sim-duration gauge are simulated-time numbers;
        // wall_seconds and events_per_second are wall-clock. Gauge names
        // say which clock they belong to (`_tu` = simulated time units).
        gauge("serve.latency_p50_tu", self.latency_p50);
        gauge("serve.latency_p95_tu", self.latency_p95);
        gauge("serve.latency_p99_tu", self.latency_p99);
        gauge("serve.answers_per_tu", self.answers_per_time_unit);
        gauge("serve.events_per_second", self.events_per_second);
        gauge("serve.sim_duration_tu", self.sim_duration.as_f64());
        gauge("serve.wall_seconds", self.wall_seconds);
        gauge("serve.budget_spent", self.budget_spent);
        gauge("serve.budget_burn_rate", self.budget_burn_rate);
    }
}

impl fmt::Display for ServiceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "service metrics")?;
        writeln!(
            f,
            "  dispatched {}  delivered {}  rejected {}  timeouts {}  requeues {}",
            self.dispatched,
            self.answers_delivered,
            self.answers_rejected,
            self.timeouts,
            self.requeues
        )?;
        writeln!(
            f,
            "  refreshes {}  events {}  sim time {}  wall {:.3}s",
            self.refreshes, self.events_processed, self.sim_duration, self.wall_seconds
        )?;
        writeln!(
            f,
            "  latency p50/p95/p99  {:.2}/{:.2}/{:.2} tu",
            self.latency_p50, self.latency_p95, self.latency_p99
        )?;
        writeln!(
            f,
            "  throughput  {:.3} answers/tu  {:.0} events/s",
            self.answers_per_time_unit, self.events_per_second
        )?;
        write!(
            f,
            "  budget  {:.2} spent  {:.4} burn/tu",
            self.budget_spent, self.budget_burn_rate
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut c = MetricsCollector::new();
        c.latencies = (1..=100).map(|i| i as f64).collect();
        c.delivered = 100;
        c.events = 200;
        let m = c.finish(SimTime::new(50.0).unwrap(), 2.0, 25.0);
        assert_eq!(m.latency_p50, 50.0);
        assert_eq!(m.latency_p95, 95.0);
        assert_eq!(m.latency_p99, 99.0);
        assert_eq!(m.answers_per_time_unit, 2.0);
        assert_eq!(m.events_per_second, 100.0);
        assert_eq!(m.budget_burn_rate, 0.5);
    }

    #[test]
    fn nearest_rank_empty_input_is_zero_for_all_percentiles() {
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(nearest_rank(&[], p), 0.0);
        }
    }

    #[test]
    fn nearest_rank_single_sample_is_that_sample_for_all_percentiles() {
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(nearest_rank(&[5.0], p), 5.0);
        }
    }

    #[test]
    fn nearest_rank_two_samples() {
        let sorted = [1.0, 2.0];
        // p0 is the minimum by definition (rank clamps to 1).
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        // p50 of two samples: ceil(0.5 * 2) = rank 1 → the lower sample.
        assert_eq!(nearest_rank(&sorted, 50.0), 1.0);
        // p100: rank 2 → the maximum.
        assert_eq!(nearest_rank(&sorted, 100.0), 2.0);
        // Anything above p50 needs rank 2 here.
        assert_eq!(nearest_rank(&sorted, 51.0), 2.0);
    }

    #[test]
    fn empty_run_reports_zeroes() {
        let m = MetricsCollector::new().finish(SimTime::ZERO, 0.0, 0.0);
        assert_eq!(m.latency_p50, 0.0);
        assert_eq!(m.answers_per_time_unit, 0.0);
        assert_eq!(m.events_per_second, 0.0);
        // The Display form renders without panicking.
        assert!(m.to_string().contains("service metrics"));
    }
}
