//! Order statistics for timing samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0..=100) of `samples`; 0 for an empty
/// slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let s = sorted(samples);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Mean over groups of each group's median, from `(group, value)` pairs;
/// 0 for no pairs. Groups are the campaigns of a run: the median damps
/// noise between repetitions, the mean weighs every campaign alike.
pub fn mean_of_group_medians(samples: &[(usize, f64)]) -> f64 {
    let mut groups: Vec<usize> = samples.iter().map(|(g, _)| *g).collect();
    groups.sort_unstable();
    groups.dedup();
    if groups.is_empty() {
        return 0.0;
    }
    let total: f64 = groups
        .iter()
        .map(|g| {
            let values: Vec<f64> = samples
                .iter()
                .filter(|(h, _)| h == g)
                .map(|(_, v)| *v)
                .collect();
            median(&values)
        })
        .sum();
    total / groups.len() as f64
}

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile that still has at least ten samples beyond it, and
/// the sample count behind both.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when fewer than 20 samples leave no
    /// tail percentile with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [99.9, 99.0, 90.0, 75.0];

/// Samples needed beyond a reported tail percentile.
const TAIL_SAMPLES: f64 = 10.0;

pub fn summarize(samples: &[f64]) -> Summary {
    let n = samples.len();
    let tail = TAILS
        .iter()
        .find(|&&p| n as f64 * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9)
        .map(|&p| (p, percentile(samples, p)));
    Summary {
        n,
        median: median(samples),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {} (n={}", Num(self.median), self.n)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {}", Num(v))?;
        }
        write!(f, ")")
    }
}

/// Six decimals, or six significant digits below 0.001.
struct Num(f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0.0 || self.0.abs() >= 1e-3 {
            write!(f, "{:.6}", self.0)
        } else {
            write!(f, "{:.5e}", self.0)
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn mean_of_group_medians_weighs_groups_alike() {
        // Group 0 has an outlier its median ignores; group 1 has one sample.
        let samples = [(0, 1.0), (0, 9.0), (0, 2.0), (1, 4.0)];
        assert_eq!(mean_of_group_medians(&samples), 3.0);
        assert_eq!(mean_of_group_medians(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly ten beyond it, p99.9 only one.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));

        // 100 samples: the highest percentile with ten beyond it is p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail, Some((90.0, 90.0)));

        // Too few samples for any tail: median only, count still given.
        let s = summarize(&[2.0, 1.0, 3.0]);
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert_eq!(s.to_string(), "median 2.000000 (n=3)");
        assert_eq!(summarize(&[2e-7]).to_string(), "median 2.00000e-7 (n=1)");
    }
}
