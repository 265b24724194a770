//! Order statistics and ledger arithmetic shared by every workload.

use std::time::Instant;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A timing distribution: the median and the highest percentile (at most
/// the requested one) that leaves [`TAIL_SAMPLES`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub samples: usize,
    /// Median (nearest rank).
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// The percentile `tail` was read at.
    pub tail_percentile: f64,
}

/// 1-based nearest rank of the tail percentile for `samples` values:
/// the rank of `cap_percent`, lowered until at least [`TAIL_SAMPLES`]
/// samples lie beyond it, and never below the median's rank.
pub fn tail_rank(samples: usize, cap_percent: usize) -> usize {
    let cap_rank = (cap_percent * samples).div_ceil(100);
    cap_rank
        .min(samples.saturating_sub(TAIL_SAMPLES))
        .max(samples.div_ceil(2))
        .max(1)
}

/// Summarizes `values` (any order); `None` when there are none.
pub fn summarize(values: &[u64], cap_percent: usize) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let rank = tail_rank(n, cap_percent);
    Some(Summary {
        samples: n,
        p50: sorted[n.div_ceil(2) - 1] as f64,
        tail: sorted[rank - 1] as f64,
        tail_percentile: 100.0 * rank as f64 / n as f64,
    })
}

/// Median of `values` (nearest rank); 0 when empty.
pub fn median(values: &[u64]) -> f64 {
    summarize(values, 50).map_or(0.0, |s| s.p50)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A layer's self time: its span minus the time its child spans cover.
/// Clamped at 0, since children timed separately can overshoot.
pub fn self_time(span_ns: u64, children_ns: u64) -> u64 {
    span_ns.saturating_sub(children_ns)
}

/// The share of `wall` that no layer claims: `(wall − Σ layers) / wall`.
pub fn unattributed_frac(wall_ns: f64, layer_ns: &[f64]) -> f64 {
    ratio(wall_ns - layer_ns.iter().sum::<f64>(), wall_ns)
}

/// Relative cost of tracing: `(traced − untraced) / untraced`.
pub fn overhead_frac(traced_ns: f64, untraced_ns: f64) -> f64 {
    ratio(traced_ns - untraced_ns, untraced_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_reads_p99_once_a_thousand_samples_exist() {
        assert_eq!(tail_rank(1000, 99), 990);
        assert_eq!(tail_rank(5000, 99), 4950);
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond_it() {
        for n in 21..3000 {
            let rank = tail_rank(n, 99);
            assert!(n - rank >= TAIL_SAMPLES, "n = {n}, rank = {rank}");
            // ... and it is the highest such rank up to p99.
            let p99 = (99 * n).div_ceil(100);
            assert!(rank == p99 || n - rank == TAIL_SAMPLES, "n = {n}");
        }
    }

    #[test]
    fn tail_rank_never_drops_below_the_median() {
        assert_eq!(tail_rank(1, 99), 1);
        assert_eq!(tail_rank(10, 99), 5);
        assert_eq!(tail_rank(20, 99), 10);
        assert_eq!(tail_rank(30, 99), 20);
    }

    #[test]
    fn summaries_use_nearest_rank() {
        let values: Vec<u64> = (1..=200).rev().collect();
        let s = summarize(&values, 99).unwrap();
        assert_eq!(s.samples, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.tail_percentile, 95.0);
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert!(summarize(&[], 99).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        assert_eq!(self_time(1_000, 300), 700);
        assert_eq!(self_time(1_000, 1_000), 0);
        assert_eq!(self_time(1_000, 1_200), 0);
    }

    #[test]
    fn unattributed_share_is_what_no_layer_claims() {
        assert_eq!(unattributed_frac(1_000.0, &[600.0, 300.0]), 0.1);
        assert_eq!(unattributed_frac(1_000.0, &[1_000.0]), 0.0);
        assert!(unattributed_frac(1_000.0, &[700.0, 400.0]) < 0.0);
        assert_eq!(unattributed_frac(0.0, &[5.0]), 0.0);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_wall() {
        assert_eq!(overhead_frac(1_100.0, 1_000.0), 0.1);
        assert_eq!(overhead_frac(900.0, 1_000.0), -0.1);
        assert_eq!(overhead_frac(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
