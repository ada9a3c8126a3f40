//! Order statistics for latency samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (any order).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail percentile a sample supports: the highest percentile with at
/// least ten samples beyond it, `100 (1 - 10/n)` (the median below 20
/// samples).
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    let pct = (100.0 * (1.0 - 10.0 / n.max(1) as f64)).max(50.0);
    Tail {
        pct,
        value: quantile(v, pct / 100.0),
        n,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 95.0);
        assert_eq!(tail(&v[..100]).pct, 90.0);
        assert_eq!(tail(&v[..40]).pct, 75.0);
        assert_eq!(tail(&v[..15]).pct, 50.0);
    }
}
