//! # troll-store — durable event log, snapshots and crash recovery
//!
//! The paper defines an object as its sequence of event occurrences —
//! a trace with observable attribute states. That makes an append-only
//! **event log** the canonical durable representation of a TROLL object
//! base, and *replay* the paper's own semantics re-run: the log records
//! each committed step's initial occurrence vector, and recovery feeds
//! those back through the deterministic engine (closure under event
//! calling, permissions, valuation, constraints) to rebuild the exact
//! world.
//!
//! Three cooperating pieces, all hand-rolled and zero-dependency:
//!
//! * [`wal`] — a **segmented append-only WAL** of committed steps:
//!   length-prefixed binary records ([`codec`]) in CRC32-checksummed
//!   frames ([`frame`]), with an explicit [`FsyncPolicy`]
//!   (`every-commit` / `every-N` / `group[:N]` / `on-close`);
//! * [`snapshot`] — **periodic world snapshots**: a full instance dump
//!   (cheap — the persistent `troll_data::StateMap` shares structure
//!   with the live world) plus the WAL cursor, written atomically;
//! * [`store`] — **crash recovery** ([`recover`]) and the live durable
//!   world ([`open_world`] + [`DurableSink`]): open dir → load latest
//!   valid snapshot → replay the intact WAL tail, truncating a torn or
//!   corrupt tail frame instead of failing.
//!
//! Because every step commits through one runtime funnel in
//! deterministic order, and the codec is canonical, two runs of the
//! same script produce **byte-identical logs**.
//!
//! Durability observability lands in the object base's own metrics
//! registry: `store.appends`, `store.bytes`, `store.fsyncs`,
//! `store.recoveries` counters and the `store.fsync_latency_ns`
//! histogram (visible in `troll animate --stats`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod snapshot;
mod store;
pub mod wal;

pub use store::{
    compact_plan, open_world, recover, world_dump, CompactPlan, CompactionReport, DurableSink,
    RecoveryInfo, Store, StoreFigures, SPEC_FILE,
};
pub use wal::FsyncPolicy;

use std::path::PathBuf;

use troll_obs::{Counter, Histogram, Metrics, StepProfiler};

/// Tuning knobs for a durable world.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// When appended records reach stable storage.
    pub fsync: FsyncPolicy,
    /// Rotate the WAL segment after it exceeds this many bytes.
    pub segment_bytes: u64,
    /// Write a snapshot every N appends (0 disables periodic snapshots;
    /// [`Store::close`] still writes a final one).
    pub snapshot_every: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync: FsyncPolicy::EveryCommit,
            segment_bytes: 1 << 20,
            snapshot_every: 256,
        }
    }
}

/// Everything that can go wrong opening, writing or recovering a
/// durable directory.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// The directory has no `spec.troll` to rebuild the model from.
    MissingSpec(PathBuf),
    /// The stored spec differs from the one the caller wants to run.
    SpecMismatch(PathBuf),
    /// The stored spec no longer parses or analyzes.
    Spec(String),
    /// The log skips sequence numbers the snapshot does not cover
    /// (e.g. segments pruned below the only surviving snapshot).
    SeqGap {
        /// The next sequence number recovery needed.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A logged step refused to replay — the log and the engine
    /// disagree about history.
    Replay {
        /// Sequence number of the failing record.
        seq: u64,
        /// The engine's refusal.
        error: troll_runtime::RuntimeError,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::MissingSpec(dir) => {
                write!(f, "no {} in {}", SPEC_FILE, dir.display())
            }
            StoreError::SpecMismatch(dir) => write!(
                f,
                "spec differs from the one stored in {} (refusing to replay under a different model)",
                dir.display()
            ),
            StoreError::Spec(e) => write!(f, "stored spec is unusable: {e}"),
            StoreError::SeqGap { expected, found } => write!(
                f,
                "log skips from sequence {expected} to {found}: history is missing"
            ),
            StoreError::Replay { seq, error } => {
                write!(f, "logged step {seq} no longer replays: {error}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Replay { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<troll_runtime::RuntimeError> for StoreError {
    fn from(e: troll_runtime::RuntimeError) -> Self {
        StoreError::Replay { seq: 0, error: e }
    }
}

/// Resolved handles into a [`Metrics`] registry for the store's
/// signals. Bound to the *object base's* registry so `animate --stats`
/// prints them alongside the runtime counters.
#[derive(Debug, Clone)]
pub(crate) struct StoreCounters {
    pub(crate) appends: Counter,
    pub(crate) bytes: Counter,
    pub(crate) fsyncs: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) compactions: Counter,
    pub(crate) fsync_latency: Histogram,
    /// Phase profiler over the same registry: when a step is being
    /// profiled (the runtime's sink phase is open on this thread), the
    /// WAL's fsync records itself as the nested `fsync` phase — the
    /// store never needs to see the engine's profiling switch.
    pub(crate) profiler: StepProfiler,
}

impl StoreCounters {
    pub(crate) fn new(metrics: &Metrics) -> Self {
        StoreCounters {
            appends: metrics.counter("store.appends"),
            bytes: metrics.counter("store.bytes"),
            fsyncs: metrics.counter("store.fsyncs"),
            recoveries: metrics.counter("store.recoveries"),
            compactions: metrics.counter("store.compactions"),
            fsync_latency: metrics.histogram("store.fsync_latency_ns"),
            profiler: StepProfiler::new(metrics),
        }
    }
}
