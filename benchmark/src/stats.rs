//! Order statistics the benchmark reports: percentiles, the tail
//! percentile a sample can support, the windowed estimator, and the
//! quartiles `compare` uses to decide whether two runs can be told apart.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending; measurements are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile, capped at p99, that still has at least ten
/// samples beyond it; the median when the sample is too small for any.
pub fn tail_quantile(n: usize) -> f64 {
    if n < 20 {
        0.5
    } else {
        (1.0 - 10.0 / n as f64).min(0.99)
    }
}

/// One percentile per window: the windows are the repeats. A single
/// stall lands in one window and moves a summary of windows far less
/// than it moves a whole-run tail percentile. `q = None` asks for the
/// tail each window supports ([`tail_quantile`]).
pub fn windowed(windows: &[Vec<f64>], q: Option<f64>) -> Option<Repeats> {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| {
            let mut s = w.clone();
            sort(&mut s);
            percentile(&s, q.unwrap_or_else(|| tail_quantile(s.len())))
        })
        .collect();
    (!per_window.is_empty()).then(|| Repeats::of(&per_window))
}

/// Quartiles by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns — so the spread the
/// harness prints is the spread the acceptance rule computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// The repeats of one metric inside one run (windows, chunks, cycles,
/// passes, rounds). What a run reports for them is their **quiet
/// quartile**: the first quartile of a time, the third of a rate.
/// Interference on a shared runner only ever takes time away, in bursts
/// that last from milliseconds to seconds, so the median of the repeats
/// wanders with how many of them a burst caught while the quiet quartile
/// stays put; a change to the code moves every repeat, the quiet ones
/// included.
#[derive(Clone, Debug, PartialEq)]
pub struct Repeats(pub Vec<f64>);

impl Repeats {
    pub fn of(values: &[f64]) -> Repeats {
        assert!(!values.is_empty(), "a metric needs a value");
        Repeats(values.to_vec())
    }

    pub fn single(value: f64) -> Repeats {
        Repeats(vec![value])
    }

    pub fn scaled(self, factor: f64) -> Repeats {
        Repeats(self.0.into_iter().map(|v| v * factor).collect())
    }

    /// The quiet quartile: the low one when lower is better.
    pub fn quiet(&self, lower_is_better: bool) -> f64 {
        match self.0.as_slice() {
            [only] => *only,
            values => {
                let (q1, _, q3) = quartiles(values);
                if lower_is_better {
                    q1
                } else {
                    q3
                }
            }
        }
    }

    /// `(q3 - q1) / median`; `None` below four repeats.
    pub fn spread(&self) -> Option<f64> {
        let m = median(&self.0);
        (self.0.len() >= 4 && m != 0.0).then(|| {
            let (q1, _, q3) = quartiles(&self.0);
            (q3 - q1) / m.abs()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10), 0.5);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(1_000_000), 0.99);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
    }

    #[test]
    fn windowed_tail_shrugs_off_one_bad_window() {
        // Nine quiet windows and one with a stall: the whole-run p99 is
        // the stall, the median of window p99s is not.
        let quiet: Vec<f64> = (0..1000).map(|i| 40.0 + f64::from(i % 10)).collect();
        let mut stalled = quiet.clone();
        for x in stalled.iter_mut().take(200) {
            *x = 5_000.0;
        }
        let mut windows = vec![quiet; 9];
        windows.push(stalled);
        let w = windowed(&windows, None).unwrap();
        assert_eq!(w.quiet(true), 49.0);
        assert_eq!(w.0.len(), 10);
        let mut all: Vec<f64> = windows.concat();
        sort(&mut all);
        assert_eq!(percentile(&all, 0.99), 5_000.0);
    }

    #[test]
    fn repeats_report_their_quiet_quartile() {
        assert_eq!(Repeats::of(&[1.0, 2.0, 3.0]).spread(), None);
        assert_eq!(Repeats::single(7.0).quiet(true), 7.0);
        // Eight quiet repeats and two a burst caught.
        let times = Repeats::of(&[10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 10.3, 10.0, 19.0, 25.0]);
        assert!((times.quiet(true) - 10.0).abs() < 0.05);
        let rates = Repeats(times.0.iter().map(|t| 100.0 / t).collect());
        assert!((rates.quiet(false) - 10.0).abs() < 0.05);
        let r = Repeats::of(&[10.0, 10.0, 10.0, 10.0]);
        assert_eq!((r.quiet(true), r.spread()), (10.0, Some(0.0)));
    }
}
