//! Order statistics for the ledger's samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least ten samples beyond it. The percentile is fixed by
//! the number of samples a workload *plans* to take, so a metric keeps
//! one meaning across runs; a run that completes fewer samples than it
//! planned is an error, never a silently lower percentile.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 3] = [99, 95, 90];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: u32) -> usize {
    n - (n * p as usize).div_ceil(100)
}

/// The highest of p99, p95 and p90 with at least ten of `n` samples
/// beyond it; `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= 10)
}

/// Nearest-rank `p`-th percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`, so spreads computed
/// here and by a script over the printed results agree. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative when the clamp raised `j` (two values): Python
        // extrapolates the same way.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median and tail of one timed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Latency {
    /// Samples taken (at least the planned count).
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// First quartile, median and third quartile.
    pub quartiles: [f64; 3],
    /// Which percentile `tail` is, fixed by the planned count.
    pub tail_percentile: u32,
    /// Value at that percentile.
    pub tail: f64,
}

/// Summarizes `samples` against the `planned` count.
pub fn latency(samples: &[f64], planned: usize) -> Result<Latency, String> {
    if samples.len() < planned {
        return Err(format!(
            "completed {} of {planned} planned samples",
            samples.len()
        ));
    }
    let tail_percentile = tail_percentile(planned)
        .ok_or_else(|| format!("{planned} planned samples are too few for a tail percentile"))?;
    let sorted = sorted(samples);
    Ok(Latency {
        samples: sorted.len(),
        p50: median(&sorted),
        quartiles: quartiles(&sorted).expect("a tail percentile needs at least 100 samples"),
        tail_percentile,
        tail: percentile(&sorted, tail_percentile),
    })
}

/// Tail of a steady request stream as the median, over consecutive
/// windows of `window` samples (in send order), of each window's tail
/// percentile. A stall confined to a few windows (another tenant of the
/// host pausing this one, say) moves only those windows, while a tail
/// the system shows in most windows moves the result.
pub fn windowed_tail(samples: &[f64], window: usize) -> Result<(u32, f64), String> {
    let p = tail_percentile(window)
        .ok_or_else(|| format!("windows of {window} samples are too small for a tail"))?;
    let tails: Vec<f64> = samples
        .chunks_exact(window)
        .map(|chunk| percentile(&sorted(chunk), p))
        .collect();
    if tails.is_empty() {
        return Err(format!(
            "{} samples fill no window of {window}",
            samples.len()
        ));
    }
    Ok((p, median(&tails)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stalled_window_does_not_move_the_windowed_tail() {
        let steady: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
        let (p, tail) = windowed_tail(&steady, 100).unwrap();
        assert_eq!((p, tail), (90, 89.0));
        let mut stalled = steady.clone();
        stalled[100..150].iter_mut().for_each(|v| *v = 1e6);
        assert_eq!(windowed_tail(&stalled, 100).unwrap().1, 89.0);
        assert!(windowed_tail(&steady, 50).is_err());
        assert!(windowed_tail(&steady[..99], 100).is_err());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1_000), Some(99));
        assert_eq!(tail_percentile(10_000), Some(99));
    }

    #[test]
    fn nearest_rank_percentile_leaves_the_tail_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), 90.0);
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&values), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn latency_names_its_tail_by_the_planned_count() {
        let samples: Vec<f64> = (1..=250).map(f64::from).collect();
        let summary = latency(&samples, 200).unwrap();
        assert_eq!(summary.tail_percentile, 95);
        assert_eq!(summary.samples, 250);
        assert_eq!(summary.tail, percentile(&samples, 95));
        assert_eq!(summary.p50, 125.5);
        assert_eq!(summary.quartiles[1], 125.5);
    }

    #[test]
    fn a_run_short_of_its_plan_fails() {
        let samples: Vec<f64> = (1..=150).map(f64::from).collect();
        let error = latency(&samples, 200).unwrap_err();
        assert!(error.contains("150 of 200"), "{error}");
        assert!(latency(&samples[..50], 50).is_err(), "no tail under 100");
    }
}
