//! The benchmark's own statistics and JSON rendering.
//!
//! Every latency percentile here is computed from client-side per-request
//! timings. The serve layer's `/metrics` percentiles are never read: they
//! report the upper edge of a power-of-two bucket and can read up to 2×
//! high.

/// The tail rule: a percentile is reported only when at least this many
/// samples lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v.swap_remove(n / 2)
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads this crate reports agree with a Python check of the same
/// values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let pos = (i + 1) as f64 * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        *q = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    Some(out)
}

/// A nearest-rank percentile that honours the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples strictly after it in rank order.
    pub beyond: usize,
    /// Samples it was computed from.
    pub samples: usize,
}

/// The `q`-quantile (`0 < q < 1`) by nearest rank, or `None` when fewer
/// than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.checked_sub(rank)?;
    if n == 0 || beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(Tail {
        value: v[rank - 1],
        beyond,
        samples: n,
    })
}

/// Mean of `values`; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `"q1/median/q3 (n)"` of a run's own repeated measurements, for the
/// human-readable lines.
pub fn spread(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q1:.4}/{q2:.4}/{q3:.4} (n={})", values.len()),
        None => format!("{:.4} (n={})", median(values), values.len()),
    }
}

/// A JSON number with every digit Rust's shortest round-trip rendering
/// keeps, or `null` for a non-finite value (`inf`/`NaN` are not JSON).
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_and_reports_the_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail(&v, 0.99).expect("1000 samples support a p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert_eq!(p99.samples, 1000);
        // 999 samples leave only 9 beyond the p99: not reported.
        assert_eq!(tail(&v[..999], 0.99), None);
        let p90 = tail(&v[..100], 0.9).expect("100 samples support a p90");
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn non_finite_values_render_as_json_null() {
        assert_eq!(jnum(f64::INFINITY), "null");
        assert_eq!(jnum(f64::NEG_INFINITY), "null");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(1.25), "1.25");
        assert_eq!(jnum(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "plan.forward_ms",
            "scale.replica_share_max",
            "p99",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms\u{b5}", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
