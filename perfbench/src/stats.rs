//! Order statistics over timing samples.
//!
//! Every latency the benchmark reports is a median plus the highest
//! percentile that still has at least ten samples beyond it, with its
//! sample count. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive"
//! method), so spreads computed here match the ones computed by a
//! script over the printed results.

/// Samples beyond a percentile needed before that percentile is
/// reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by Python's exclusive method;
/// `None` for fewer than two samples (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in (1..n).enumerate() {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        out[slot] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// Nearest-rank percentile (`p` in 0..=100): the smallest sample with
/// at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (p * v.len() as f64 / 100.0).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly beyond its rank, and its value.
/// `None` when even the median lacks ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n as f64 / 100.0).ceil() as usize;
        (n >= rank + TAIL_MIN_BEYOND && rank > 0).then(|| (p, percentile(values, p).unwrap_or(0.0)))
    })
}

/// A latency summary: median, tail percentile and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` from [`tail`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            p50: median(values).unwrap_or(0.0),
            tail: tail(values),
        }
    }
}
