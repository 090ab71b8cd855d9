//! Order statistics over latency samples and self time over spans.

/// Median of the samples (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail of a latency sample: the highest percentile on
/// [`TAIL_LADDER`] with at least `min_beyond` samples above its
/// nearest-rank position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile: the sample at 1-based rank `ceil(p/100 · n)`.
/// Returns the value and the number of samples ranked above it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// `None` when even the median has fewer than `min_beyond` samples above
/// it.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    TAIL_LADDER.iter().find_map(|&p| {
        if v.is_empty() {
            return None;
        }
        let (value, beyond) = nearest_rank(&v, p);
        (beyond >= min_beyond).then_some(Tail {
            percentile: p,
            value,
            beyond,
        })
    })
}

/// A recorded interval `[start, end)` in nanoseconds with its parent
/// index, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of it covered by
/// the union of its direct children (children may overlap each other or
/// stick out of the parent; only the covered part inside counts once).
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1..=100: p90 is rank 90 with 10 above; p95 has only 5 above
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        // 1000 samples reach p99 (rank 990, 10 above)
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 400 samples: p99 has 4 above, p95 has 20
        let xs: Vec<f64> = (1..=400).rev().map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 380.0, 20));
    }

    #[test]
    fn tail_needs_enough_samples() {
        assert_eq!(tail(&[1.0; 15], 10), None);
        assert_eq!(tail(&[], 10), None);
        assert_eq!(tail(&[2.0; 20], 10).unwrap().percentile, 50.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = [
            Interval {
                start: 0,
                end: 100,
                parent: None,
            },
            // two overlapping children cover 10..40 = 30
            Interval {
                start: 10,
                end: 30,
                parent: Some(0),
            },
            Interval {
                start: 20,
                end: 40,
                parent: Some(0),
            },
            // a child sticking out of the parent counts only inside
            Interval {
                start: 90,
                end: 120,
                parent: Some(0),
            },
            // a grandchild does not reduce the root directly
            Interval {
                start: 12,
                end: 18,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }
}
