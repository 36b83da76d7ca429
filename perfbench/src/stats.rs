//! Order statistics and request accounting shared by every workload.

/// Percentiles the tail rule chooses from, in parts per 100 000.
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];
const PARTS: u64 = 100_000;

/// 1-based nearest rank of the `parts`/100 000 percentile among `n`
/// samples, in integer arithmetic so that e.g. p99 of 1 000 samples is
/// rank 990 exactly.
fn rank(n: usize, parts: u64) -> usize {
    let r = (parts * n as u64).div_ceil(PARTS) as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` (`parts` per 100 000).
pub fn percentile(sorted: &[f64], parts: u64) -> f64 {
    sorted[rank(sorted.len(), parts) - 1]
}

/// Median of unsorted values (lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50_000)
}

/// The highest ladder percentile that has at least ten samples beyond
/// its rank, in parts per 100 000; `None` below 20 samples.
pub fn tail_parts(n: usize) -> Option<u64> {
    LADDER.iter().rev().copied().find(|&p| n >= 20 && n - rank(n, p) >= 10)
}

/// Percentile label such as `p99.9` for `parts` per 100 000.
pub fn label(parts: u64) -> String {
    let pct = parts as f64 / 1_000.0;
    format!("p{pct}")
}

/// A latency sample set summarized the way every workload reports it.
#[derive(Debug, Clone)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile; `None` when fewer than ten samples lie beyond it.
    pub p99: Option<f64>,
    /// The highest supported percentile and its value.
    pub tail: Option<(u64, f64)>,
}

impl Latency {
    /// Summarize raw samples; `None` when there are none.
    pub fn of(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let tail = tail_parts(n).map(|p| (p, percentile(&samples, p)));
        let p99 = (n >= 20 && n - rank(n, 99_000) >= 10).then(|| percentile(&samples, 99_000));
        Some(Self { n, p50: percentile(&samples, 50_000), p99, tail })
    }
}

/// How one request ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `"ok":true`, not degraded, value equal to the in-process engine.
    Ok,
    /// `"ok":true` but answered by the fallback predictor.
    Degraded,
    /// Refused by admission control.
    Shed,
    /// `"ok":false` for any other reason, or an unparseable line.
    Error,
    /// The connection failed or timed out.
    Transport,
    /// `"ok":true` with a value that differs from the engine's: a
    /// correctness failure as well as a failed request.
    Wrong,
}

/// Requests sent, succeeded and failed for one request kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests attempted.
    pub sent: u64,
    /// Requests that ended [`Outcome::Ok`].
    pub ok: u64,
    /// Every other outcome.
    pub failed: u64,
    /// The subset of `failed` that returned a wrong value.
    pub wrong: u64,
}

impl Tally {
    /// Count one finished request.
    pub fn record(&mut self, outcome: Outcome) {
        self.sent += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Wrong => {
                self.failed += 1;
                self.wrong += 1;
            }
            _ => self.failed += 1,
        }
    }

    /// Failed requests as a share of those sent (0 when none were sent).
    pub fn failure_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }
}

/// Single predicts per upstream flush; 0 when the router never flushed.
pub fn coalesce_ratio(coalesced: u64, flushes: u64) -> f64 {
    if flushes == 0 {
        0.0
    } else {
        coalesced as f64 / flushes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_parts(19), None);
        assert_eq!(tail_parts(20), Some(50_000));
        assert_eq!(tail_parts(99), Some(50_000));
        assert_eq!(tail_parts(100), Some(90_000));
        assert_eq!(tail_parts(999), Some(90_000));
        assert_eq!(tail_parts(1_000), Some(99_000));
        assert_eq!(tail_parts(10_000), Some(99_900));
        assert_eq!(tail_parts(100_000), Some(99_990));
        assert_eq!(tail_parts(10_000_000), Some(99_999));
        for n in [20, 57, 100, 999, 1_000, 1_234, 10_000, 65_432] {
            let p = tail_parts(n).expect("supported");
            assert!(n - rank(n, p) >= 10, "n={n}");
        }
    }

    #[test]
    fn percentiles_use_exact_nearest_rank() {
        let v = ramp(1_000);
        assert_eq!(percentile(&v, 50_000), 500.0);
        assert_eq!(percentile(&v, 99_000), 990.0);
        assert_eq!(percentile(&v, 99_900), 999.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let lat = Latency::of(ramp(1_000)).expect("samples");
        assert_eq!((lat.n, lat.p50, lat.p99), (1_000, 500.0, Some(990.0)));
        assert_eq!(lat.tail, Some((99_000, 990.0)));
        assert_eq!(Latency::of(ramp(500)).expect("samples").p99, None);
        assert!(Latency::of(Vec::new()).is_none());
        assert_eq!(label(99_900), "p99.9");
    }

    #[test]
    fn every_non_ok_outcome_counts_as_failed() {
        let mut t = Tally::default();
        assert_eq!(t.failure_share(), 0.0);
        for o in [Outcome::Ok, Outcome::Ok, Outcome::Ok, Outcome::Ok] {
            t.record(o);
        }
        for o in [Outcome::Degraded, Outcome::Shed, Outcome::Error, Outcome::Transport] {
            t.record(o);
        }
        assert_eq!((t.sent, t.ok, t.failed, t.wrong), (8, 4, 4, 0));
        assert_eq!(t.failure_share(), 0.5);
        t.record(Outcome::Wrong);
        assert_eq!((t.sent, t.failed, t.wrong), (9, 5, 1));
    }

    #[test]
    fn coalesce_ratio_is_zero_without_flushes() {
        assert_eq!(coalesce_ratio(0, 0), 0.0);
        assert_eq!(coalesce_ratio(5, 0), 0.0);
        assert_eq!(coalesce_ratio(30, 10), 3.0);
    }
}
