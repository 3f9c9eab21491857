//! Statistics helpers: nearest-rank percentiles, the "highest percentile the
//! sample supports" rule, quartile spread, and self time under overlapping
//! children.

/// Percentiles the benchmark may report, lowest first.
pub const CANDIDATE_PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it.  `None` when the
/// sample is empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps products like 99.9% of 10,000 from rounding up a rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of [`CANDIDATE_PERCENTILES`] that has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond its rank in a sample of `n`.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive" method).
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Quartile spread: the distance between the first and third quartile as a
/// share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of a span `[start, end]`: its duration minus the part of it
/// that the union of its children's intervals covers.  Children may overlap
/// each other (a quorum write's replica disks run in parallel) and may
/// outlive the parent (a straggler replica finishing after the quorum ack).
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 1000 samples: p99 is the 990th value, p99.9 the 999th.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 99.9), Some(999.0));
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 2, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0, 4.0]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A quorum write [0, 100] fanning out to three replica disks: two
        // overlap each other, the straggler runs past the parent's end.
        let mut disks = [(10, 40), (20, 60), (90, 120)];
        assert_eq!(self_time(0, 100, &mut disks), 100 - (50 + 10));
        // Children nested inside each other count once.
        let mut nested = [(10, 90), (20, 30)];
        assert_eq!(self_time(0, 100, &mut nested), 20);
        // A child entirely outside the parent covers nothing.
        let mut outside = [(200, 300)];
        assert_eq!(self_time(0, 100, &mut outside), 100);
        assert_eq!(self_time(5, 9, &mut []), 4);
    }
}
