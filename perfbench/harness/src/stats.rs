//! Small statistics shared by the end-to-end loop and the traced run:
//! percentiles with the ten-samples-beyond rule, span self time, and the
//! failure tally behind `attempted` / `failed`.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between closest ranks; `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile, but only when at least [`TAIL_SAMPLES`] samples lie
/// strictly beyond its rank: p95 needs 200 samples, p90 needs 100.
pub fn tail(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - q)).floor() as usize;
    if beyond < TAIL_SAMPLES {
        return None;
    }
    quantile(samples, q)
}

/// The highest of p99, p95 and p90 that [`tail`] allows, with its label.
pub fn highest_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)]
        .into_iter()
        .find_map(|(label, q)| tail(samples, q).map(|v| (label, v)))
}

/// The length of `parent` not covered by any of `children`, where the
/// children are clipped to the parent and overlapping children count
/// once. All intervals are half-open `[start, end)`.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = p0;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (p1 - p0) - covered
}

/// Requests attempted and failed in one run. A request fails when any
/// check on it fails; each failing request counts once and is printed
/// with its id on standard error.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed, were refused or gave wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records the verdict on request `id`.
    pub fn record(&mut self, id: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: request {id} failed: {why}");
        }
    }

    /// `failed / attempted` (0 before any request).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail(&samples, 0.95), None, "199 samples leave 9 beyond p95");
        let samples: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(
            tail(&samples, 0.95).is_some(),
            "200 samples leave 10 beyond p95"
        );
        let (label, _) = highest_tail(&samples).expect("p95 allowed");
        assert_eq!(label, "p95");
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(highest_tail(&few), None);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent 0..100; children 10..40 and 30..50 overlap on 30..40.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // A child nested inside another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &[]), 10);
        assert_eq!(self_time((0, 10), &[(0, 10), (0, 10)]), 0);
    }

    #[test]
    fn tally_counts_each_failed_request_once() {
        let mut t = Tally::default();
        t.record("r0", Ok(()));
        t.record("r1", Err("wrong digest".into()));
        t.record("r2", Err("refused".into()));
        assert_eq!((t.attempted, t.failed), (3, 2));
        assert!((t.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
