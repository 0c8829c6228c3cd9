//! Order statistics behind every reported timing.

/// The tail percentile must leave at least this many samples above it, so
/// that one slow sample cannot set it on its own.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count); 0
/// for no samples.
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

/// The highest whole percentile `p` (50..=99) whose nearest-rank value
/// still has at least [`TAIL_MIN_BEYOND`] samples ranked above it, with
/// that value. `None` when there are too few samples for even the median
/// to qualify.
///
/// For 490 samples this is p97, for 120 it is p91 and for 45 it is p77.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=99u32).rev().find_map(|p| {
        // Nearest rank: the smallest rank k with k/n >= p/100.
        let k = (p as usize * n).div_ceil(100).max(1);
        (n - k >= TAIL_MIN_BEYOND).then(|| (p, v[k - 1]))
    })
}

/// Geometric mean of the positive entries of `xs`; 0 if there are none.
pub fn geomean(xs: &[f64]) -> f64 {
    let pos: Vec<f64> = xs.iter().copied().filter(|x| *x > 0.0).collect();
    if pos.is_empty() {
        return 0.0;
    }
    (pos.iter().map(|x| x.ln()).sum::<f64>() / pos.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail(&ramp(490)), Some((97, 476.0)));
        assert_eq!(tail(&ramp(245)), Some((95, 233.0)));
        assert_eq!(tail(&ramp(120)), Some((91, 110.0)));
        assert_eq!(tail(&ramp(45)), Some((77, 35.0)));
        // 20 samples: p50 is rank 10, leaving exactly 10 above it.
        assert_eq!(tail(&ramp(20)), Some((50, 10.0)));
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn tail_rank_leaves_at_least_ten_above_for_any_count() {
        for n in 20..600 {
            let xs = ramp(n);
            let (p, v) = tail(&xs).expect("20+ samples always qualify");
            let beyond = xs.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} p{p}: {beyond} beyond");
            if p < 99 {
                // One percentile higher would leave fewer than ten.
                let k = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - k < TAIL_MIN_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn geomean_ignores_non_positive_entries() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
