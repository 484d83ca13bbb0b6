//! Latency samples, percentiles and the tail-percentile rule.

/// Percentiles the tail may be reported at, highest first: the usual
/// reporting percentiles, a decade apart, so a run's sample count sits
/// well inside one rung's range instead of near a boundary.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Fewest samples that must lie strictly beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Exact per-operation latencies in nanoseconds.
///
/// Capacity is reserved once up front and never grows by doubling, so
/// resident memory tracks the number of samples instead of jumping at
/// powers of two (which would make `peak_rss_mb` bimodal). Samples past
/// the reservation are dropped and counted.
pub struct Samples {
    nanos: Vec<u32>,
    dropped: usize,
}

impl Samples {
    /// Reserves room for `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Samples {
            nanos: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Records one latency (saturating at ~4.29 s).
    pub fn record(&mut self, nanos: u64) {
        if self.nanos.len() == self.nanos.capacity() {
            self.dropped += 1;
            return;
        }
        self.nanos.push(u32::try_from(nanos).unwrap_or(u32::MAX));
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.nanos.len()
    }

    /// A sorted copy of the samples recorded in `range` (by order).
    pub fn sorted_range(&self, range: std::ops::Range<usize>) -> Sorted {
        let mut copy = self.nanos[range].to_vec();
        copy.sort_unstable();
        Sorted(copy)
    }

    /// Samples dropped because the reservation was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Sorts the samples once for percentile queries.
    pub fn into_sorted(mut self) -> Sorted {
        self.nanos.sort_unstable();
        Sorted(self.nanos)
    }
}

/// Sorted latencies.
pub struct Sorted(Vec<u32>);

impl Sorted {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in milliseconds (0 when empty).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = nearest_rank(p, self.0.len());
        f64::from(self.0[rank - 1]) / 1e6
    }
}

/// The 1-based nearest rank of percentile `p` (resolved to 0.1) among
/// `n` samples, in integers so 99.9% of 10 000 is exactly rank 9 990.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its nearest rank, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// Median of a slice of measurements (mean of the middle pair for even
/// lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_rung_with_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(5_000_000), Some(99.9));
        for n in 20..30_000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - nearest_rank(p, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut samples = Samples::with_capacity(100);
        for v in (1..=100u64).rev() {
            samples.record(v * 1_000_000);
        }
        let sorted = samples.into_sorted();
        assert_eq!(sorted.percentile_ms(50.0), 50.0);
        assert_eq!(sorted.percentile_ms(90.0), 90.0);
        assert_eq!(sorted.percentile_ms(99.9), 100.0);
    }

    #[test]
    fn reservation_is_never_exceeded() {
        let mut samples = Samples::with_capacity(3);
        for v in 0..5 {
            samples.record(v);
        }
        assert_eq!((samples.len(), samples.dropped()), (3, 2));
        assert_eq!(samples.sorted_range(1..3).percentile_ms(50.0), 1e-6);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
