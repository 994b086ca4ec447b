//! Statistics and the refusal rules the harness reports under.
//!
//! Every timing the harness prints is a median of per-trial values; a
//! tail percentile is printed only when the sample supports it; a trial
//! shorter than [`MIN_TRIAL`] is refused rather than reported.

use std::time::Duration;

/// The shortest trial whose figures may be reported. Below this a trial
/// measures the scheduler, not the system (ROADMAP item 1).
pub const MIN_TRIAL: Duration = Duration::from_secs(1);

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), Some(m)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Value at quantile `q`, but only when at least [`TAIL_SUPPORT`] samples
/// lie beyond it — a p99 of 300 samples is three data points, not a tail.
pub fn tail_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = (sorted.len() as f64 * (1.0 - q)).floor() as usize;
    if beyond < TAIL_SUPPORT {
        return None;
    }
    quantile_sorted(sorted, q)
}

/// Refuses a trial shorter than [`MIN_TRIAL`].
pub fn check_trial(len: Duration) -> Result<(), String> {
    if len < MIN_TRIAL {
        return Err(format!(
            "refusing to report a {:.3} s trial: the minimum is {} s",
            len.as_secs_f64(),
            MIN_TRIAL.as_secs()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_trials() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            Some([1.25, 3.5, 5.75])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[7.0]), 0.0);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let small: Vec<u64> = (1..=300).collect();
        // 3 samples beyond p99, 30 beyond p90.
        assert_eq!(tail_quantile(&small, 0.99), None);
        assert_eq!(tail_quantile(&small, 0.90), Some(270));
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_quantile(&big, 0.99), Some(990));
        assert_eq!(tail_quantile(&big, 0.999), None);
        assert_eq!(quantile_sorted(&big, 0.5), Some(500));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn short_trials_are_refused() {
        assert!(check_trial(Duration::from_millis(999)).is_err());
        assert!(check_trial(Duration::from_secs(1)).is_ok());
    }
}
