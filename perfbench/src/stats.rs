//! Order statistics and the naming rules every reported metric obeys.

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (need not be
/// sorted). `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`, `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The percentiles a tail latency may be reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail rule: the highest percentile of the ladder that still has at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, with its value (nearest
/// rank). `None` when even the median has fewer than that beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| (p, sorted[rank - 1]))
    })
}

/// Whether `name` is a legal metric or workload name: a letter or digit
/// first, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_between_middle_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 leaves samples 991..=1000 beyond it; p99.5 would leave 5.
        assert_eq!(tail(&values), Some((99.0, 990.0)));
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&values), Some((95.0, 190.0)));
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values), Some((50.0, 10.0)));
        // 19 samples: the median has only 9 beyond it.
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&values), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut values: Vec<f64> = (1..=500).map(f64::from).collect();
        values.reverse();
        let (p, v) = tail(&values).expect("500 samples have a tail");
        assert_eq!(p, 98.0);
        assert_eq!(v, 490.0);
    }

    #[test]
    fn metric_names_use_the_restricted_charset() {
        for ok in [
            "setup_s",
            "soc.t6_s",
            "sim.micro_events_per_s",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünï",
            "a/b",
            "a:b",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "x"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "seventeen-letters", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
