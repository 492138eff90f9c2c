//! Built-in observer sinks: the in-memory [`Recorder`] for tests, the
//! JSON-lines [`TraceWriter`] for offline analysis, the [`Fanout`]
//! combinator, and the periodic [`StatsSnapshotSink`].

use crate::{Metrics, ObsEvent, Observer};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A small dense ordinal for the calling thread, assigned on first use
/// (0, 1, 2, …) — stable for the thread's lifetime. Used to tag trace
/// lines so cross-thread timelines (a server's worker threads) can be
/// regrouped offline. `std::thread::ThreadId` has no stable integer
/// form, hence the hand-rolled scheme.
pub fn thread_ord() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORD: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORD.with(|o| *o)
}

/// Records every event (and span) in memory, in arrival order — the
/// assertion-friendly sink for tests.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<ObsEvent>>,
    spans: Mutex<Vec<(&'static str, u64)>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// All recorded events, in order.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// All exited spans as `(name, nanos)`, in exit order.
    pub fn spans(&self) -> Vec<(&'static str, u64)> {
        self.spans.lock().expect("recorder poisoned").clone()
    }

    /// Number of recorded events matching the predicate.
    pub fn count(&self, pred: impl Fn(&ObsEvent) -> bool) -> usize {
        self.events
            .lock()
            .expect("recorder poisoned")
            .iter()
            .filter(|e| pred(e))
            .count()
    }

    /// Drops all recorded events and spans.
    pub fn clear(&self) {
        self.events.lock().expect("recorder poisoned").clear();
        self.spans.lock().expect("recorder poisoned").clear();
    }
}

impl Observer for Recorder {
    fn on_event(&self, event: &ObsEvent) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .push(event.clone());
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        self.spans
            .lock()
            .expect("recorder poisoned")
            .push((name, nanos));
    }
}

/// Streams events as JSON lines (one object per line) to any writer —
/// typically a buffered file for offline analysis of a run.
///
/// Write errors are counted, not propagated: observability must never
/// fail the observed step.
#[derive(Debug)]
pub struct TraceWriter<W: Write + Send> {
    out: Mutex<W>,
    errors: crate::Counter,
}

impl<W: Write + Send> TraceWriter<W> {
    /// Wraps a writer. Callers that hand in a file usually want to wrap
    /// it in a [`std::io::BufWriter`] first.
    pub fn new(out: W) -> TraceWriter<W> {
        TraceWriter {
            out: Mutex::new(out),
            errors: crate::Counter::new(),
        }
    }

    /// Number of write errors swallowed so far.
    pub fn write_errors(&self) -> u64 {
        self.errors.get()
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("trace writer poisoned");
        let _ = w.flush();
        w
    }

    /// Flushes buffered output.
    pub fn flush(&self) {
        if self
            .out
            .lock()
            .expect("trace writer poisoned")
            .flush()
            .is_err()
        {
            self.errors.inc();
        }
    }
}

impl<W: Write + Send> Observer for TraceWriter<W>
where
    W: std::fmt::Debug,
{
    fn on_event(&self, event: &ObsEvent) {
        // Tag each line with the emitting thread's ordinal so traces
        // written from several threads (a server's workers) can be
        // re-grouped into per-thread timelines offline. The tag is
        // spliced before the closing brace to keep the `{"ev":...}`
        // line shape.
        let mut line = event.to_json();
        line.pop(); // trailing '}'
        line.push_str(&format!(",\"thread\":{}}}", thread_ord()));
        let mut out = self.out.lock().expect("trace writer poisoned");
        if writeln!(out, "{line}").is_err() {
            self.errors.inc();
        }
    }
}

/// Forwards every event and span to each of a set of observers —
/// e.g. a JSON-lines trace *and* a periodic stats snapshotter on the
/// same run. Reports itself enabled iff any child is, and forwards
/// only to enabled children.
#[derive(Debug)]
pub struct Fanout {
    children: Vec<Arc<dyn Observer>>,
}

impl Fanout {
    /// Combines `children` into one observer.
    pub fn new(children: Vec<Arc<dyn Observer>>) -> Fanout {
        Fanout { children }
    }
}

impl Observer for Fanout {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }

    fn span_enter(&self, name: &'static str) {
        for c in &self.children {
            if c.enabled() {
                c.span_enter(name);
            }
        }
    }

    fn span_exit(&self, name: &'static str, nanos: u64) {
        for c in &self.children {
            if c.enabled() {
                c.span_exit(name, nanos);
            }
        }
    }

    fn on_event(&self, event: &ObsEvent) {
        for c in &self.children {
            if c.enabled() {
                c.on_event(event);
            }
        }
    }
}

/// Writes a full [`crate::MetricsSnapshot`] as one JSON line every
/// `every` committed steps — a poor-man's time series for watching a
/// long run converge without attaching a scraper. Write errors are
/// counted, not propagated.
#[derive(Debug)]
pub struct StatsSnapshotSink<W: Write + Send> {
    metrics: Metrics,
    every: u64,
    committed: AtomicU64,
    out: Mutex<W>,
    errors: crate::Counter,
}

impl<W: Write + Send> StatsSnapshotSink<W> {
    /// Snapshots `metrics` into `out` every `every` committed steps
    /// (`every` is clamped to ≥ 1).
    pub fn new(metrics: Metrics, every: u64, out: W) -> StatsSnapshotSink<W> {
        StatsSnapshotSink {
            metrics,
            every: every.max(1),
            committed: AtomicU64::new(0),
            out: Mutex::new(out),
            errors: crate::Counter::new(),
        }
    }

    /// Number of write errors swallowed so far.
    pub fn write_errors(&self) -> u64 {
        self.errors.get()
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("stats sink poisoned");
        let _ = w.flush();
        w
    }

    /// Flushes buffered output.
    pub fn flush(&self) {
        if self
            .out
            .lock()
            .expect("stats sink poisoned")
            .flush()
            .is_err()
        {
            self.errors.inc();
        }
    }
}

impl<W: Write + Send> Observer for StatsSnapshotSink<W>
where
    W: std::fmt::Debug,
{
    fn on_event(&self, event: &ObsEvent) {
        if !matches!(event, ObsEvent::StepCommitted { .. }) {
            return;
        }
        let n = self.committed.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.every) {
            return;
        }
        let line = self.metrics.snapshot().to_json();
        let mut out = self.out.lock().expect("stats sink poisoned");
        if writeln!(out, "{line}").is_err() {
            self.errors.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckPath;

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::StepStarted {
                step: 0,
                initial: "d.hire".into(),
            },
            ObsEvent::PermissionChecked {
                instance: "d".into(),
                event: "fire".into(),
                path: CheckPath::Scan,
                granted: true,
            },
            ObsEvent::StepCommitted {
                step: 0,
                occurrences: 1,
                nanos: 1234,
            },
        ]
    }

    #[test]
    fn recorder_keeps_order_and_counts() {
        let r = Recorder::new();
        for e in sample_events() {
            r.on_event(&e);
        }
        r.span_exit("step", 99);
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.events()[0].kind(), "step_started");
        assert_eq!(r.count(|e| matches!(e, ObsEvent::StepCommitted { .. })), 1);
        assert_eq!(r.spans(), vec![("step", 99)]);
        r.clear();
        assert!(r.events().is_empty());
    }

    #[test]
    fn trace_writer_emits_one_json_object_per_line() {
        let w = TraceWriter::new(Vec::new());
        for e in sample_events() {
            w.on_event(&e);
        }
        let buf = w.into_inner();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("{\"ev\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            assert!(line.contains("\"thread\":"), "{line}");
        }
        assert!(lines[2].contains("\"nanos\":1234"));
    }

    #[test]
    fn thread_ordinals_are_stable_and_distinct() {
        let here = thread_ord();
        assert_eq!(here, thread_ord());
        let other = std::thread::spawn(thread_ord).join().unwrap();
        assert_ne!(here, other);
    }

    #[test]
    fn fanout_forwards_to_enabled_children_only() {
        use crate::NoopObserver;
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        let f = Fanout::new(vec![a.clone(), Arc::new(NoopObserver), b.clone()]);
        assert!(f.enabled());
        f.on_event(&ObsEvent::StepStarted {
            step: 0,
            initial: "x".into(),
        });
        f.span_exit("step", 7);
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
        assert_eq!(a.spans(), vec![("step", 7)]);
        let empty = Fanout::new(vec![Arc::new(NoopObserver) as Arc<dyn Observer>]);
        assert!(!empty.enabled());
    }

    #[test]
    fn stats_sink_snapshots_every_n_commits() {
        let m = Metrics::new();
        let c = m.counter("steps.committed");
        let sink = StatsSnapshotSink::new(m.clone(), 2, Vec::new());
        for step in 0..5 {
            c.inc();
            sink.on_event(&ObsEvent::StepCommitted {
                step,
                occurrences: 1,
                nanos: 10,
            });
            // non-commit events never trigger a snapshot
            sink.on_event(&ObsEvent::StepStarted {
                step,
                initial: String::new(),
            });
        }
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "commits 2 and 4 snapshot: {text}");
        assert!(lines[0].contains("\"steps.committed\":2"), "{text}");
        assert!(lines[1].contains("\"steps.committed\":4"), "{text}");
    }

    #[test]
    fn write_errors_are_swallowed_and_counted() {
        /// A writer that always fails.
        #[derive(Debug)]
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("broken pipe"))
            }
        }
        let w = TraceWriter::new(Broken);
        w.on_event(&ObsEvent::StepStarted {
            step: 0,
            initial: String::new(),
        });
        w.flush();
        assert_eq!(w.write_errors(), 2);
    }
}
