//! Order statistics for the end-to-end metrics.

/// Percentiles `op_tail_ms` may report, in per-mille, lowest first.
pub const TAIL_LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// Samples that must lie beyond a percentile for it to count as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of the `permille` percentile among `n` samples.
pub fn nearest_rank(permille: u64, n: usize) -> usize {
    let r = (permille * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n.max(1))
}

/// The tail rule: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. Returns
/// `(permille, 1-based rank)`, or `None` when even the median has fewer
/// than that many samples beyond it.
pub fn tail_rank(n: usize) -> Option<(u64, usize)> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(p, n)))
        .find(|&(_, r)| n - r >= TAIL_MIN_BEYOND)
}

/// A latency distribution summarized the way the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// Tail percentile in per-mille (see [`tail_rank`]); the median's
    /// when there are too few samples for any tail.
    pub tail_permille: u64,
    pub tail: f64,
}

impl Latency {
    pub fn of(xs: &[f64]) -> Latency {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let (tail_permille, rank) = tail_rank(v.len()).unwrap_or((500, nearest_rank(500, v.len())));
        Latency {
            n: v.len(),
            p50: median(&v),
            tail_permille,
            tail: v.get(rank - 1).copied().unwrap_or(0.0),
        }
    }

    /// `p90`, `p99.9`, ...
    pub fn tail_label(&self) -> String {
        if self.tail_permille.is_multiple_of(10) {
            format!("p{}", self.tail_permille / 10)
        } else {
            format!("p{}.{}", self.tail_permille / 10, self.tail_permille % 10)
        }
    }
}
