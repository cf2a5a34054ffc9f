//! Order statistics over a run's samples.

/// The `q`-quantile (`0..=1`) of `samples` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The p95 of `samples`, only when at least ten samples lie beyond it
/// (200 or more in all).
pub fn p95(samples: &[f64]) -> Option<f64> {
    if samples.len() < 200 {
        return None;
    }
    quantile(samples, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(p95(&[1.0; 199]), None);
        let v: Vec<f64> = (0..201).map(f64::from).collect();
        assert_eq!(p95(&v), Some(190.0));
    }
}
