//! Order statistics the benchmark reports: nearest-rank percentiles for
//! latencies, a true median for rates, quartile spread (the acceptance
//! measure of `agree`) and per-window rates of a closed-loop run.

/// Nearest-rank percentile of an **ascending-sorted** sample: the smallest
/// element with at least `q` of the sample at or below it. `None` on an
/// empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Ascending copy of `values` (which must hold no NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    out
}

/// Median of an unsorted sample (mean of the two middle elements for an
/// even count). `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    match s.len() {
        0 => None,
        n if n % 2 == 1 => Some(s[n / 2]),
        n => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// [`median`], with 0 standing for "no sample" in a printed metric.
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median — the run-to-run
/// spread the benchmark must keep below a third of a metric's bound.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Coefficient of variation (population standard deviation over the mean);
/// 0 for fewer than two samples or a zero mean.
pub fn coefficient_of_variation(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean.abs()
}

/// One completed operation of a closed-loop client: it occupied its client
/// from `start` to `end` (seconds on the run's clock) and completed `tiles`
/// tile-pair comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    pub start: f64,
    pub end: f64,
    pub tiles: f64,
}

/// Tiles completed between `from` and `to`. An operation that straddles an
/// edge contributes the share of its tiles that its time inside is of its
/// duration, so the count is not quantised to whole operations (at ~25
/// four-tile operations a second, whole-operation counting would move a
/// 1-s window's rate in steps of 4 %).
pub fn tiles_between(completions: &[Completion], from: f64, to: f64) -> f64 {
    completions
        .iter()
        .map(|c| {
            let overlap = c.end.min(to) - c.start.max(from);
            if overlap > 0.0 {
                c.tiles * overlap / (c.end - c.start)
            } else {
                0.0
            }
        })
        .sum()
}

/// Tiles per second in each whole window of `width` seconds between `from`
/// and `to`.
pub fn window_rates(completions: &[Completion], from: f64, to: f64, width: f64) -> Vec<f64> {
    // A hair of slack so ten 1-s windows fit a phase that is 10 s to
    // rounding.
    let windows = ((to - from) / width + 1e-9).floor() as usize;
    (0..windows)
        .map(|w| {
            let lo = from + w as f64 * width;
            tiles_between(completions, lo, lo + width) / width
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(5.0));
        assert_eq!(percentile(&s, 0.9), Some(9.0));
        assert_eq!(percentile(&s, 0.99), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(quartile_spread(&v), Some(1.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_median_on_known_samples() {
        // One client, back-to-back 0.5 s operations of 4 tiles: 8 tiles/s in
        // every window, however the operations fall on the window edges.
        let ops: Vec<Completion> = (0..12)
            .map(|i| Completion {
                start: 0.25 + 0.5 * f64::from(i),
                end: 0.75 + 0.5 * f64::from(i),
                tiles: 4.0,
            })
            .collect();
        let rates = window_rates(&ops, 1.0, 5.0, 1.0);
        assert_eq!(rates.len(), 4);
        for r in &rates {
            assert!((r - 8.0).abs() < 1e-9, "{rates:?}");
        }
        // A stalled window drags the mean but not the median.
        let mut stalled = ops.clone();
        stalled.retain(|c| c.start != 2.25);
        let rates = window_rates(&stalled, 1.0, 5.0, 1.0);
        assert!((rates[1] - 4.0).abs() < 1e-9);
        assert!((median(&rates).unwrap() - 8.0).abs() < 1e-9);
        // An operation longer than a window spreads over the windows it spans.
        let long = [Completion {
            start: 0.0,
            end: 4.0,
            tiles: 8.0,
        }];
        assert_eq!(window_rates(&long, 0.0, 4.0, 1.0), vec![2.0; 4]);
        assert!(window_rates(&long, 0.0, 0.5, 1.0).is_empty());
    }

    #[test]
    fn coefficient_of_variation_of_known_samples() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert!((coefficient_of_variation(&[2.0, 4.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(coefficient_of_variation(&[1.0]), 0.0);
    }
}
