//! # troll-obs — zero-dependency tracing & metrics for the object
//! community runtime
//!
//! The paper's semantics is all about *observable behaviour*: attribute
//! observations over event sequences. This crate reifies the runtime's
//! own meta-level the same way — steps, permission checks, valuations
//! and monitor feeds become observable events — so the system can be
//! inspected and measured without redesign (the description-driven
//! systems argument of Estrella et al.).
//!
//! Three pieces, all hermetic (no external dependencies, mirroring the
//! in-repo proptest/rand/criterion shims):
//!
//! * [`Observer`] — span-style enter/exit hooks plus typed events
//!   ([`ObsEvent`]): `StepStarted`, `PermissionChecked` (monitored or
//!   scan path), `ValuationApplied`, `EventCalled`, `StepCommitted`,
//!   `StepRolledBack`, `MonitorFed`. The [`NoopObserver`] default
//!   reports itself disabled so instrumented code can skip event
//!   construction entirely — the disabled cost is a predicted branch
//!   (measured ≈0 in `e10_obs_overhead`).
//! * [`Metrics`] — a lock-free-enough registry of named [`Counter`]s
//!   (relaxed atomics) and fixed-bucket latency [`Histogram`]s
//!   (power-of-two nanosecond buckets, p50/p90/p99 summaries).
//!   Handles are resolved once and incremented without locking; the
//!   registry mutex is touched only on registration and snapshot.
//! * [`StepProfiler`] — phase-level self-time profiling of the step
//!   envelope: RAII [`Phase`] guards on a thread-local stack record
//!   `step.phase.*.self_ns` histograms with child time subtracted, so
//!   the per-phase totals *partition* the recorded step latency
//!   ([`phase_table`] renders the sorted breakdown).
//! * Built-in sinks: the in-memory [`Recorder`] for tests, the
//!   JSON-lines [`TraceWriter`] for offline analysis (lines carry a
//!   [`thread_ord`] tag for cross-thread timelines), the [`Fanout`]
//!   combinator, and the periodic [`StatsSnapshotSink`]. For pull-based
//!   scrapers, [`Metrics::render_prometheus`] emits the Prometheus text
//!   exposition format. One-shot evaluator-fallback warnings route
//!   through [`note_fallback_warning`] when a warning observer is
//!   registered ([`set_warning_observer`]), else stay on stderr.
//!
//! # Example
//!
//! ```
//! use troll_obs::{Metrics, ObsEvent, Observer, Recorder};
//! use std::sync::Arc;
//!
//! let metrics = Metrics::new();
//! let steps = metrics.counter("steps.committed");
//! steps.inc();
//! assert_eq!(metrics.counter("steps.committed").get(), 1);
//!
//! let recorder = Arc::new(Recorder::new());
//! recorder.on_event(&ObsEvent::StepCommitted {
//!     step: 0,
//!     occurrences: 1,
//!     nanos: 1500,
//! });
//! assert_eq!(recorder.events().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod observer;
mod profile;
mod sinks;
mod warn;

pub use event::{CheckPath, ObsEvent};
pub use metrics::{
    global, json_str, write_json_str, Counter, Histogram, HistogramSummary, Metrics,
    MetricsSnapshot,
};
pub use observer::{NoopObserver, Observer};
pub use profile::{phase_table, Phase, PhaseGuard, StepProfiler, PHASES};
pub use sinks::{thread_ord, Fanout, Recorder, StatsSnapshotSink, TraceWriter};
pub use warn::{clear_warning_observer, note_fallback_warning, set_warning_observer};
