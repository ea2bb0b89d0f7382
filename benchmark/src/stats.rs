//! Sample statistics: the fastest sample (what every timing reports),
//! medians, the tail percentile rule, quartile spread, and the seeded
//! generator that orders interleaved measurements.

/// The smallest of `samples`: what the benchmark reports for every timing.
///
/// The machine is a few cores of a shared host. Its neighbours only ever
/// add time, and they add it in plateaus that last seconds to a minute:
/// measured here, the same HPCG job took 0.22 s, then 0.37 s twenty times
/// in a row, then 0.22 s again, with no steal time accounted. The median of
/// a run therefore says which plateau the run fell into (worst ten-run
/// quartile spreads of 20–37% over jobs recorded in a busy hour, above any
/// usable bound), while its fastest job is the program's own time on the
/// machine as long as the run holds one quiet job (3–17% over the same
/// jobs). README.md, "Why the fastest sample", has the measurements.
/// Panics on an empty slice: every caller measured at least one sample.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// How far the fifth-fastest sample (the slowest, of fewer than five) lies
/// above the fastest, as a share of the fastest: small when several samples
/// agree on the floor [`fastest`] reports, large when one lucky sample set it.
pub fn floor_spread(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    match (sorted.first(), sorted.get(4).or(sorted.last())) {
        (Some(&lo), Some(&fifth)) if lo != 0.0 => (fifth - lo) / lo.abs(),
        _ => 0.0,
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measured at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` with fewer than eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, sorted[idx]))
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method); 0 with fewer than two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| -> f64 {
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample range.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
    };
    let med = median(&sorted);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: the seeded generator behind every benchmark-side choice
/// (synthesized-module composition, interleaving orders).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_is_the_smallest_sample() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn floor_spread_is_the_gap_to_the_fifth_fastest() {
        let v = [1.0, 1.5, 1.1, 9.0, 1.2, 1.3, 1.4];
        assert!((floor_spread(&v) - 0.4).abs() < 1e-12);
        assert!((floor_spread(&[2.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(floor_spread(&[2.0]), 0.0);
        assert_eq!(floor_spread(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=25: the 15th value has exactly ten samples above it.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 15.0);
        assert!((pct - 60.0).abs() < 1e-12);
        // 41 samples: p75.6, the 31st value.
        let v: Vec<f64> = (1..=41).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().1, 31.0);
        assert!(tail(&[1.0; 10]).is_none());
        assert_eq!(tail(&[1.0; 11]).unwrap().0, 100.0 / 11.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30], n=4) == [10, 20, 30].
        assert!((quartile_spread(&[30.0, 10.0, 20.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut items = [0, 1, 2, 3, 4, 5];
        Rng::new(1).shuffle(&mut items);
        let mut back = items;
        back.sort();
        assert_eq!(back, [0, 1, 2, 3, 4, 5]);
    }
}
