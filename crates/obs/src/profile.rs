//! Phase-level step profiling with self-time accounting.
//!
//! The step engine's ~100 µs envelope is made of nested phases —
//! closing the calling closure, assembling evaluation environments,
//! checking permissions and constraints, moving state, advancing
//! monitors, appending to the durable log. [`StepProfiler`] reifies
//! that structure: instrumented code brackets each phase with an RAII
//! [`PhaseGuard`], and on exit the guard records the phase's
//! **self-time** (elapsed minus the time spent in child phases) into a
//! per-phase [`Histogram`] named `step.phase.<name>.self_ns` in the
//! owner's [`Metrics`] registry.
//!
//! Self-time accounting means the phase histograms *partition* the step
//! envelope: summed over a run, the per-phase self-time totals add up
//! to the total recorded step latency (`step.latency_ns` sums), minus
//! only the timer-read skew — which is what lets a profile table answer
//! "where do the microseconds go" without double counting. The
//! [`Phase::Envelope`] pseudo-phase wraps the whole step, so its
//! self-time *is* the unattributed remainder (sequence bookkeeping,
//! rollback scaffolding, timer overhead).
//!
//! The phase stack lives in a thread-local, so nesting works across
//! crates sharing one registry (the store's fsync phase nests under the
//! runtime's sink phase without either knowing about the other), and a
//! `&self` engine method can record phases without threading a mutable
//! profiler through every signature.
//!
//! Disabled cost: instrumented code consults one cached `bool` before
//! constructing a guard (the same discipline as event emission), so a
//! run without profiling pays one predicted branch per phase site.

use crate::metrics::{Histogram, Metrics, MetricsSnapshot};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// One named phase of the step envelope. The list is the profiling
/// contract: every variant owns a `step.phase.<label>.self_ns`
/// histogram, and [`phase_table`] renders them sorted by total
/// self-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The whole step envelope; its self-time is the *unattributed*
    /// remainder after every other phase claimed its share.
    Envelope,
    /// Closing the occurrence set under synchronous event calling.
    Closure,
    /// Evaluation-environment assembly (`build_env`, alias
    /// materialization for virtual steps) — a child of whichever check
    /// or rule needed the environment.
    Env,
    /// Permission precondition checks (monitored or scan path).
    Permissions,
    /// Valuation-rule evaluation and attribute updates.
    Valuation,
    /// Constraint checks on post-states.
    Constraints,
    /// The alias/component snapshot pre-pass for inheriting classes.
    AliasPrepass,
    /// Moving prepared working states into the instance store.
    StateCommit,
    /// Feeding committed steps to the incremental monitors.
    MonitorAdvance,
    /// Derived-event expansion through interface views.
    Views,
    /// The step-sink hook (durable WAL append lives here).
    Sink,
    /// `fsync` inside the sink — a child of [`Phase::Sink`].
    Fsync,
}

/// Every phase, in declaration order (the histogram array layout).
pub const PHASES: [Phase; 12] = [
    Phase::Envelope,
    Phase::Closure,
    Phase::Env,
    Phase::Permissions,
    Phase::Valuation,
    Phase::Constraints,
    Phase::AliasPrepass,
    Phase::StateCommit,
    Phase::MonitorAdvance,
    Phase::Views,
    Phase::Sink,
    Phase::Fsync,
];

impl Phase {
    /// Stable lower-case label used in metric names and profile tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Envelope => "envelope",
            Phase::Closure => "closure",
            Phase::Env => "env",
            Phase::Permissions => "permissions",
            Phase::Valuation => "valuation",
            Phase::Constraints => "constraints",
            Phase::AliasPrepass => "alias_prepass",
            Phase::StateCommit => "state_commit",
            Phase::MonitorAdvance => "monitor_advance",
            Phase::Views => "views",
            Phase::Sink => "sink",
            Phase::Fsync => "fsync",
        }
    }

    /// The phase's histogram name: `step.phase.<label>.self_ns`.
    pub fn metric_name(self) -> String {
        format!("step.phase.{}.self_ns", self.label())
    }

    fn index(self) -> usize {
        PHASES
            .iter()
            .position(|p| *p == self)
            .expect("listed phase")
    }
}

/// One open phase on the thread-local stack.
struct Frame {
    phase: Phase,
    start: Instant,
    /// Total elapsed time of already-closed child phases, subtracted
    /// from this frame's elapsed time to get its self-time.
    child_ns: u64,
}

thread_local! {
    /// The per-thread stack of open phases. Cross-crate by design: any
    /// [`StepProfiler`] entered on this thread nests here, which is how
    /// the store's fsync phase lands under the runtime's sink phase.
    static PHASE_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Records phase self-times into per-phase histograms of one [`Metrics`]
/// registry. Cloning shares the histogram handles (an `Arc` bump), so a
/// guard can own an independent handle and outlive the borrow that
/// created it.
#[derive(Debug, Clone)]
pub struct StepProfiler {
    hists: Arc<[Histogram; PHASES.len()]>,
}

impl StepProfiler {
    /// Resolves the `step.phase.*.self_ns` histograms in `metrics`
    /// (registering them on first use).
    pub fn new(metrics: &Metrics) -> StepProfiler {
        StepProfiler {
            hists: Arc::new(std::array::from_fn(|i| {
                metrics.histogram(&PHASES[i].metric_name())
            })),
        }
    }

    /// Opens `phase`. The returned guard records the phase's self-time
    /// when dropped; drop order must mirror entry order (guaranteed for
    /// scoped locals).
    pub fn enter(&self, phase: Phase) -> PhaseGuard {
        PHASE_STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                phase,
                start: Instant::now(),
                child_ns: 0,
            })
        });
        PhaseGuard {
            profiler: self.clone(),
        }
    }

    /// Opens `phase` only when some enclosing phase is already open on
    /// this thread — the hook for layers (like the durable store) that
    /// cannot see the engine's profiling switch: inside a profiled step
    /// the stack is non-empty, outside it this is a no-op.
    pub fn enter_if_active(&self, phase: Phase) -> Option<PhaseGuard> {
        let active = PHASE_STACK.with(|stack| !stack.borrow().is_empty());
        active.then(|| self.enter(phase))
    }
}

/// RAII handle for an open phase; see [`StepProfiler::enter`].
#[derive(Debug)]
pub struct PhaseGuard {
    profiler: StepProfiler,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else {
                return; // unbalanced drop — never panic in a profiler
            };
            let elapsed = frame.start.elapsed().as_nanos() as u64;
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            self.profiler.hists[frame.phase.index()].record_ns(self_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += elapsed;
            }
        });
    }
}

/// Renders the sorted per-phase self-time table from a metrics
/// snapshot: one row per `step.phase.*.self_ns` histogram with samples,
/// total self-time, share of the recorded step latency, and
/// mean/p50/p90/p99, footed with the accounted-for share. Returns the
/// header-only table when the snapshot holds no phase samples.
pub fn phase_table(snapshot: &MetricsSnapshot) -> String {
    use std::fmt::Write;
    let mut rows: Vec<(&str, &crate::HistogramSummary)> = Vec::new();
    for (name, h) in &snapshot.histograms {
        if let Some(label) = name
            .strip_prefix("step.phase.")
            .and_then(|n| n.strip_suffix(".self_ns"))
        {
            if h.count > 0 {
                rows.push((label, h));
            }
        }
    }
    rows.sort_by(|a, b| b.1.sum_ns.cmp(&a.1.sum_ns).then(a.0.cmp(b.0)));
    // Every step records `step.latency_ns` around the window in which
    // its phases record, so that histogram is the share denominator.
    let (steps, total_latency) = snapshot
        .histograms
        .get("step.latency_ns")
        .map_or((0, 0), |h| (h.count, h.sum_ns));
    let accounted: u64 = rows.iter().map(|(_, h)| h.sum_ns).sum();
    let denom = if total_latency > 0 {
        total_latency
    } else {
        accounted.max(1)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>12} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "phase", "samples", "self_total", "share", "mean", "p50<=", "p90<=", "p99<="
    );
    for (label, h) in &rows {
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>12} {:>5.1}% {:>9} {:>9} {:>9} {:>9}",
            label,
            h.count,
            fmt_ns(h.sum_ns),
            100.0 * h.sum_ns as f64 / denom as f64,
            fmt_ns(h.mean_ns),
            fmt_ns(h.p50_ns),
            fmt_ns(h.p90_ns),
            fmt_ns(h.p99_ns),
        );
    }
    if steps > 0 {
        let _ = writeln!(
            out,
            "steps={} total={} accounted={} ({:.1}%)",
            steps,
            fmt_ns(total_latency),
            fmt_ns(accounted),
            100.0 * accounted as f64 / denom as f64,
        );
    }
    out
}

/// Human-readable nanosecond quantity (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Burns at least `ns` of wall clock so phase durations are
    /// reliably nonzero and ordered.
    fn busy(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let m = Metrics::new();
        let p = StepProfiler::new(&m);
        {
            let _outer = p.enter(Phase::Envelope);
            busy(50_000);
            {
                let _inner = p.enter(Phase::Permissions);
                busy(200_000);
            }
            busy(50_000);
        }
        let snap = m.snapshot();
        let outer = snap.histograms[&Phase::Envelope.metric_name()];
        let inner = snap.histograms[&Phase::Permissions.metric_name()];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.sum_ns >= 200_000, "inner self {inner:?}");
        // outer self-time excludes the inner 200µs: it ran ~100µs of
        // its own work, so anything under the child's floor proves the
        // subtraction happened
        assert!(
            outer.sum_ns < 200_000,
            "outer self must exclude child time: {outer:?}"
        );
        assert!(outer.sum_ns >= 100_000, "outer kept its own time");
    }

    #[test]
    fn sibling_phases_partition_the_envelope() {
        let m = Metrics::new();
        let p = StepProfiler::new(&m);
        {
            let _e = p.enter(Phase::Envelope);
            for phase in [Phase::Closure, Phase::Valuation, Phase::StateCommit] {
                let _g = p.enter(phase);
                busy(100_000);
            }
        }
        let snap = m.snapshot();
        let env = snap.histograms[&Phase::Envelope.metric_name()];
        // all three 100µs children subtracted: envelope self ≈ loop glue
        assert!(env.sum_ns < 100_000, "envelope self-time: {env:?}");
    }

    #[test]
    fn enter_if_active_requires_an_open_phase() {
        let m = Metrics::new();
        let p = StepProfiler::new(&m);
        assert!(p.enter_if_active(Phase::Fsync).is_none());
        {
            let _outer = p.enter(Phase::Sink);
            let inner = p.enter_if_active(Phase::Fsync);
            assert!(inner.is_some());
        }
        let snap = m.snapshot();
        assert_eq!(snap.histograms[&Phase::Fsync.metric_name()].count, 1);
        assert_eq!(snap.histograms[&Phase::Sink.metric_name()].count, 1);
    }

    #[test]
    fn cross_profiler_nesting_shares_the_thread_stack() {
        // two registries, one thread: the child still subtracts from
        // the parent even though their histograms live apart (the
        // store-under-runtime shape)
        let runtime = Metrics::new();
        let store = Metrics::new();
        let rp = StepProfiler::new(&runtime);
        let sp = StepProfiler::new(&store);
        {
            let _sink = rp.enter(Phase::Sink);
            busy(20_000);
            let _fsync = sp.enter_if_active(Phase::Fsync).expect("active");
            busy(150_000);
        }
        let sink = runtime.snapshot().histograms[&Phase::Sink.metric_name()];
        let fsync = store.snapshot().histograms[&Phase::Fsync.metric_name()];
        assert!(fsync.sum_ns >= 150_000);
        assert!(sink.sum_ns < 150_000, "sink self excludes fsync: {sink:?}");
    }

    #[test]
    fn phase_table_sorts_by_self_time_and_foots_coverage() {
        let m = Metrics::new();
        let p = StepProfiler::new(&m);
        let latency = m.histogram("step.latency_ns");
        {
            let _e = p.enter(Phase::Envelope);
            let _g = p.enter(Phase::Valuation);
            busy(300_000);
        }
        latency.record_ns(320_000);
        let table = phase_table(&m.snapshot());
        let val_line = table.lines().position(|l| l.starts_with("valuation"));
        let env_line = table.lines().position(|l| l.starts_with("envelope"));
        assert!(val_line.is_some() && env_line.is_some(), "{table}");
        assert!(val_line < env_line, "sorted by self-time:\n{table}");
        assert!(table.contains("steps=1"), "{table}");
        assert!(table.contains("accounted="), "{table}");
    }

    #[test]
    fn labels_and_metric_names_are_distinct() {
        let labels: std::collections::BTreeSet<_> = PHASES.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), PHASES.len());
        for p in PHASES {
            assert_eq!(p.metric_name(), format!("step.phase.{}.self_ns", p.label()));
            assert_eq!(PHASES[p.index()], p);
        }
    }
}
