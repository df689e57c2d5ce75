//! Order statistics over the per-round samples.

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Inter-quartile range of `v`.
pub fn iqr(v: &[f64]) -> f64 {
    quantile(v, 0.75) - quantile(v, 0.25)
}

/// First-to-last change of `v` as a share of its median: the median of
/// the slopes between all pairs of samples (Theil–Sen) times the span, so
/// that one disturbed round at either end — a trial that read 3× because
/// the other worker was descheduled — does not pass for a drift. Positive
/// means rising.
pub fn trend(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let slopes: Vec<f64> = (0..v.len())
        .flat_map(|i| (i + 1..v.len()).map(move |j| (v[j] - v[i]) / (j - i) as f64))
        .collect();
    median(&slopes) * (v.len() - 1) as f64 / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_trend() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(iqr(&v), 2.0);
        assert!((trend(&v) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(trend(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(trend(&[2.0, 2.0, 2.0, 2.0, 9.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }
}
