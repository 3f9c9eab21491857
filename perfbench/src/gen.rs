//! Seeded operation streams.  Every workload thread draws its operations from
//! its own generator, seeded from the run's `--seed`, the workload and the
//! thread index; the program under test only ever sees the operations.

/// SplitMix64: small, fast, and good enough to drive workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for one (workload, thread) stream of a run.
    pub fn stream(seed: u64, workload: &str, thread: usize) -> Self {
        let mut h = seed ^ 0x243f_6a88_85a3_08d3;
        for b in workload.bytes().chain((thread as u64).to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `k` distinct values from `[0, n)`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(n) {
            let x = self.below(n);
            if !out.contains(&x) {
                out.push(x);
            }
        }
        out
    }
}

/// Zipf-distributed choice over `n` items.  Which item is hottest is a seeded
/// permutation, so a new seed moves the hot set as well as the draw order.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut items: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(seed ^ 0x5bd1_e995);
        for i in (1..n).rev() {
            items.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, items }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        self.items[rank]
    }
}

/// Skew of every Zipf choice in the benchmark.
pub const ZIPF_THETA: f64 = 0.9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_depend_on_seed_workload_and_thread() {
        let draw = |mut r: Rng| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        let base = draw(Rng::stream(1, "edit_commit", 0));
        assert_eq!(base, draw(Rng::stream(1, "edit_commit", 0)));
        assert_ne!(base, draw(Rng::stream(2, "edit_commit", 0)));
        assert_ne!(base, draw(Rng::stream(1, "read_leased", 0)));
        assert_ne!(base, draw(Rng::stream(1, "edit_commit", 1)));
    }

    #[test]
    fn zipf_is_skewed_towards_a_seeded_hot_item() {
        let zipf = Zipf::new(64, ZIPF_THETA, 7);
        let mut rng = Rng::new(3);
        let mut counts = vec![0usize; 64];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let hottest = (0..64).max_by_key(|&i| counts[i]).unwrap();
        assert_eq!(hottest, zipf.items[0]);
        // Rank 1 carries 1/H(64, 0.9) of the mass, about 17.4%.
        assert!(counts[hottest] > 16_400 && counts[hottest] < 18_400);
        assert!(counts.iter().all(|&c| c > 0));
        assert_ne!(zipf.items, Zipf::new(64, ZIPF_THETA, 8).items);
    }

    #[test]
    fn distinct_draws_are_distinct() {
        let mut rng = Rng::new(11);
        for _ in 0..100 {
            let mut v = rng.distinct(4, 8);
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), 4);
        }
    }
}
