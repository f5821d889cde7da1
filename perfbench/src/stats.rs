//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule on a
/// sorted copy. Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples`: the middle value, or the mean of the two
/// middle values of an even count. Returns 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median over consecutive windows of `window` samples of each
/// window's `q`-quantile (a trailing partial window is dropped unless it
/// is the only one). A stall that lands in a few windows moves this far
/// less than it moves the quantile of the whole sample.
pub fn windowed_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    if samples.len() < 2 * window {
        return quantile(samples, q);
    }
    let per: Vec<f64> = samples
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let mut w: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        w[10] = 1e9; // one outlier moves one window only
        assert_eq!(windowed_quantile(&w, 1000, 0.99), 989.0);
    }
}
