//! Exact sample statistics: every latency is kept, so a percentile is
//! read off the sorted samples rather than a bucketed histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Percentile `p` in `[0, 100]` of `samples` (sorted in place), by
/// linear interpolation between closest ranks. `0.0` when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = p / 100.0 * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac
}

/// Median of floating-point values. `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of nanosecond samples, in nanoseconds. `0.0` when empty.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// `num / den`, or `0.0` when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Length of the time slices a timed phase is cut into.
pub const SLICE: Duration = Duration::from_millis(250);

/// Latencies filed by the time slice in which they completed. A run
/// reports the median over its slices rather than one whole-phase
/// figure, so a burst of outside interference spoils a few slices and
/// not the result.
#[derive(Debug)]
pub struct Sliced {
    start: Instant,
    slices: Vec<Vec<u64>>,
}

impl Sliced {
    pub fn new(start: Instant) -> Sliced {
        Sliced {
            start,
            slices: Vec::new(),
        }
    }

    /// Files a latency of `ns` that completed at `at`.
    pub fn push(&mut self, at: Instant, ns: u64) {
        let i = (at.saturating_duration_since(self.start).as_nanos() / SLICE.as_nanos()) as usize;
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Vec::new);
        }
        self.slices[i].push(ns);
    }

    /// Adds the latencies of a recorder that shares this one's start.
    pub fn merge(&mut self, other: Sliced) {
        if self.slices.len() < other.slices.len() {
            self.slices.resize_with(other.slices.len(), Vec::new);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
    }

    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Every latency, in no particular order.
    pub fn all(&self) -> Vec<u64> {
        self.slices.iter().flatten().copied().collect()
    }

    /// Slices that lie wholly before `end`.
    fn full(&self, end: Instant) -> usize {
        let span = end.saturating_duration_since(self.start).as_nanos() / SLICE.as_nanos();
        (span as usize).min(self.slices.len())
    }

    /// Completions per second: the mean over the middle half of the
    /// full slices before `end`, ranked by their rate; the whole-phase
    /// rate when no slice is full.
    pub fn rate(&self, end: Instant) -> f64 {
        let full = self.full(end);
        if full == 0 {
            return ratio(
                self.len() as f64,
                end.saturating_duration_since(self.start).as_secs_f64(),
            );
        }
        let mut counts: Vec<usize> = self.slices[..full].iter().map(Vec::len).collect();
        counts.sort_unstable();
        let middle = &counts[full / 4..full - full / 4];
        middle.iter().sum::<usize>() as f64 / middle.len() as f64 / SLICE.as_secs_f64()
    }

    /// Median over the full slices before `end` of each slice's
    /// percentile `p`, counting only slices with at least ten latencies
    /// above that percentile; the whole-phase percentile when there are
    /// none.
    pub fn percentile(&self, end: Instant, p: f64) -> f64 {
        let enough = (10.0 / (1.0 - p / 100.0)).ceil() as usize;
        let per_slice: Vec<f64> = self.slices[..self.full(end)]
            .iter()
            .filter(|s| s.len() >= enough)
            .map(|s| percentile(&mut s.clone(), p))
            .collect();
        if per_slice.is_empty() {
            percentile(&mut self.all(), p)
        } else {
            median(&per_slice)
        }
    }
}

/// The process's resident set now, in MiB (`VmRSS`).
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .ok_or("no VmRSS in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmRSS line")?;
    Ok(kb / 1024.0)
}

/// Reads the resident set when the `at`-th request of the timed phase
/// is answered. Worlds keep their whole history, so memory grows with
/// the work done; reading it after a fixed amount of work keeps a
/// faster run from looking like one that uses more memory.
#[derive(Debug)]
pub struct RssProbe {
    at: u64,
    done: AtomicU64,
    mb: Mutex<Option<f64>>,
}

impl RssProbe {
    pub fn new(at: u64) -> RssProbe {
        RssProbe {
            at,
            done: AtomicU64::new(0),
            mb: Mutex::new(None),
        }
    }

    /// Counts one answered request.
    pub fn tick(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let reading = rss_mb().ok();
            *self.mb.lock().expect("rss probe lock") = reading;
        }
    }

    /// The reading; the resident set now if the run answered fewer than
    /// `at` requests.
    pub fn mb(&self) -> Result<f64, String> {
        match *self.mb.lock().expect("rss probe lock") {
            Some(mb) => Ok(mb),
            None => rss_mb(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![40, 10, 30, 20];
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 40.0);
        assert_eq!(percentile(&mut v, 50.0), 25.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn slices_report_medians() {
        let t0 = Instant::now();
        let mut s = Sliced::new(t0);
        // three full slices: 20, 40 and 30 completions; a fourth partial.
        // The middle of the three holds 30; only the 40 hold twenty
        // latencies, enough for a median.
        for (slice, n, ns) in [(0u32, 20, 100), (1, 40, 200), (2, 30, 900), (3, 5, 5)] {
            for _ in 0..n {
                s.push(t0 + SLICE * slice + SLICE / 2, ns);
            }
        }
        let end = t0 + SLICE * 3 + SLICE / 2;
        assert_eq!(s.len(), 95);
        assert_eq!(s.rate(end), 30.0 / SLICE.as_secs_f64());
        assert_eq!(s.percentile(end, 50.0), 200.0);
        assert_eq!(s.percentile(end, 99.0), 900.0);
    }
}
