//! Named counters and fixed-bucket latency histograms.
//!
//! The registry is "lock-free enough": incrementing a resolved
//! [`Counter`] or recording into a [`Histogram`] is a relaxed atomic
//! operation on shared storage; the registry's mutex is taken only to
//! resolve a handle by name or to snapshot.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing named counter. Cloning shares storage.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter not attached to any registry.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: bucket `i` counts samples with
/// `value < 2^i` ns (the last bucket is unbounded). 2^39 ns ≈ 9 minutes,
/// far beyond any single runtime step.
const BUCKETS: usize = 40;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Smallest recorded sample; `u64::MAX` until the first record.
    min: AtomicU64,
    /// Largest recorded sample.
    max: AtomicU64,
}

/// A fixed-bucket latency histogram over nanosecond samples. Cloning
/// shares storage; recording is wait-free (two relaxed adds and one
/// bucket add).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A free-standing histogram not attached to any registry.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        let idx = (64 - u64::leading_zeros(ns) as usize).min(BUCKETS - 1);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(ns, Ordering::Relaxed);
        self.inner.min.fetch_min(ns, Ordering::Relaxed);
        self.inner.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Summarizes the recorded samples. Quantiles are upper bucket
    /// bounds (power-of-two resolution — good for complexity *shapes*
    /// and order-of-magnitude latencies, not microsecond precision).
    pub fn summary(&self) -> HistogramSummary {
        let count = self.inner.count.load(Ordering::Relaxed);
        let sum = self.inner.sum.load(Ordering::Relaxed);
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // upper bound of bucket i: 2^i - 1 (bucket 0 is {0})
                    return if i == 0 { 0 } else { (1u64 << i) - 1 };
                }
            }
            u64::MAX
        };
        let min = self.inner.min.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum_ns: sum,
            mean_ns: sum.checked_div(count).unwrap_or(0),
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.inner.max.load(Ordering::Relaxed),
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p99_ns: quantile(0.99),
        }
    }

    /// Per-bucket sample counts; entry `i` counts samples whose value's
    /// bit length is `i` (upper bound `2^i - 1` ns; bucket 0 is `{0}`,
    /// the last bucket is unbounded). Exposed for cumulative-bucket
    /// renderers like [`Metrics::render_prometheus`].
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }
}

/// Point-in-time summary of one histogram. `count`/`sum_ns`/`min_ns`/
/// `max_ns` are exact (tracked outside the buckets); the quantiles have
/// power-of-two bucket resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of samples (exact).
    pub count: u64,
    /// Sum of all samples in nanoseconds (exact).
    pub sum_ns: u64,
    /// Arithmetic mean in nanoseconds (exact: tracked as a running sum).
    pub mean_ns: u64,
    /// Smallest sample in nanoseconds (exact; 0 when empty).
    pub min_ns: u64,
    /// Largest sample in nanoseconds (exact; 0 when empty).
    pub max_ns: u64,
    /// Median upper bound in nanoseconds (bucket resolution).
    pub p50_ns: u64,
    /// 90th percentile upper bound in nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile upper bound in nanoseconds.
    pub p99_ns: u64,
}

/// Point-in-time snapshot of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value, in name order.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → summary, in name order.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named [`Counter`]s and [`Histogram`]s. Cloning shares
/// the registry. Resolve handles once (registry lock), then increment
/// them lock-free on the hot path.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Arc<Mutex<Registry>>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Resolves (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut reg = self.registry.lock().expect("metrics registry poisoned");
        reg.counters.entry(name.to_string()).or_default().clone()
    }

    /// Resolves (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut reg = self.registry.lock().expect("metrics registry poisoned");
        reg.histograms.entry(name.to_string()).or_default().clone()
    }

    /// Snapshots every registered counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.registry.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (hand-rolled, version `0.0.4`): counters as `counter` samples,
    /// histograms as cumulative `_bucket{le="..."}` series with `_sum`
    /// and `_count`. Metric names are the registry names with `.`
    /// mapped to `_` and prefixed by `prefix` (pass `"troll"` for
    /// `troll_steps_committed`-style names; empty for none). Bucket
    /// boundaries are the power-of-two upper bounds actually used by
    /// [`Histogram`], emitted up to the highest non-empty bucket, then
    /// `+Inf`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        use std::fmt::Write;
        let reg = self.registry.lock().expect("metrics registry poisoned");
        let mangle = |name: &str| -> String {
            let body: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            if prefix.is_empty() {
                body
            } else {
                format!("{prefix}_{body}")
            }
        };
        let mut out = String::new();
        for (name, counter) in &reg.counters {
            let pname = mangle(name);
            let _ = writeln!(out, "# TYPE {pname} counter");
            let _ = writeln!(out, "{pname} {}", counter.get());
        }
        for (name, hist) in &reg.histograms {
            let pname = mangle(name);
            let buckets = hist.bucket_counts();
            let count = hist.count();
            let sum = hist.inner.sum.load(Ordering::Relaxed);
            let _ = writeln!(out, "# TYPE {pname} histogram");
            let mut cumulative = 0u64;
            let highest = buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| i + 1)
                .unwrap_or(0)
                .min(BUCKETS - 1);
            for (i, c) in buckets.iter().enumerate().take(highest) {
                cumulative += c;
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                let _ = writeln!(out, "{pname}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {count}");
            let _ = writeln!(out, "{pname}_sum {sum}");
            let _ = writeln!(out, "{pname}_count {count}");
        }
        out
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as one line of JSON (counters as numbers,
    /// histograms as objects with exact count/sum/min/max and bucketed
    /// quantiles) — the record format of the periodic stats-snapshot
    /// sink. Keys are emitted in name order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_str(name));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\
                 \"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
                json_str(name),
                h.count,
                h.sum_ns,
                h.min_ns,
                h.max_ns,
                h.mean_ns,
                h.p50_ns,
                h.p90_ns,
                h.p99_ns
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal (quoted, escaped) — the one escaping rule
/// every hand-rolled JSON writer in the workspace shares (trace lines,
/// stats snapshots, the serve wire protocol).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Appends [`json_str`]`(s)` to `out` without a string of its own.
pub fn write_json_str(out: &mut String, s: &str) {
    use std::fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The process-wide registry, for instrumentation points that have no
/// natural owner to thread a [`Metrics`] through (e.g. the temporal
/// crate's scan-evaluator fallback counters). Values are cumulative over
/// the process lifetime; read them as differences around a workload.
pub fn global() -> &'static Metrics {
    static GLOBAL: OnceLock<Metrics> = OnceLock::new();
    GLOBAL.get_or_init(Metrics::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_storage_by_name() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(m.counter("x").get(), 3);
        assert_eq!(m.snapshot().counters["x"], 3);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record_ns(1_000); // bucket upper bound 1023
        }
        for _ in 0..10 {
            h.record_ns(1_000_000); // bucket upper bound 2^20-1
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 1023);
        assert_eq!(s.p90_ns, 1023);
        assert!(s.p99_ns >= 1_000_000 && s.p99_ns < 2_097_152, "{s:?}");
        assert_eq!(s.mean_ns, (90 * 1_000 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn empty_and_zero_samples() {
        let h = Histogram::new();
        assert_eq!(h.summary(), HistogramSummary::default());
        h.record_ns(0);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_ns, 0);
    }

    #[test]
    fn exact_sum_min_max_alongside_buckets() {
        let h = Histogram::new();
        for ns in [700u64, 3, 120_000] {
            h.record_ns(ns);
        }
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_ns, 120_703);
        assert_eq!(s.min_ns, 3);
        assert_eq!(s.max_ns, 120_000);
        assert_eq!(s.mean_ns, 120_703 / 3);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_mangled() {
        let m = Metrics::new();
        m.counter("steps.committed").add(7);
        let h = m.histogram("step.latency_ns");
        h.record_ns(5); // bucket 3, le=7
        h.record_ns(1000); // bucket 10, le=1023
        let text = m.render_prometheus("troll");
        assert!(text.contains("# TYPE troll_steps_committed counter"));
        assert!(text.contains("troll_steps_committed 7"));
        assert!(text.contains("# TYPE troll_step_latency_ns histogram"));
        assert!(text.contains("troll_step_latency_ns_bucket{le=\"7\"} 1"));
        assert!(
            text.contains("troll_step_latency_ns_bucket{le=\"1023\"} 2"),
            "cumulative buckets:\n{text}"
        );
        assert!(text.contains("troll_step_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("troll_step_latency_ns_sum 1005"));
        assert!(text.contains("troll_step_latency_ns_count 2"));
        // cumulative series never decreases
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket series: {line}");
            last = v;
        }
    }

    #[test]
    fn snapshot_json_round_trips_basic_fields() {
        let m = Metrics::new();
        m.counter("a.b").inc();
        m.histogram("lat").record_ns(42);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"a.b\":1"), "{json}");
        assert!(json.contains("\"sum_ns\":42"), "{json}");
        assert!(json.contains("\"min_ns\":42"), "{json}");
        assert!(json.contains("\"max_ns\":42"), "{json}");
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("test.global_registry_is_shared");
        let before = c.get();
        global().counter("test.global_registry_is_shared").inc();
        assert_eq!(c.get(), before + 1);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = Metrics::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = m.counter("contended");
                let h = m.histogram("lat");
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record_ns(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(m.counter("contended").get(), 4000);
        assert_eq!(m.histogram("lat").count(), 4000);
    }
}
