//! The durable world: WAL + snapshots + crash recovery, glued to the
//! runtime through the [`StepSink`] hook.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use troll_obs::ObsEvent;
use troll_runtime::{ObjectBase, Occurrence, StepSink};

use crate::snapshot::{
    load_latest_snapshot, read_snapshot, snapshot_from_bytes, snapshot_paths, write_snapshot,
};
use crate::wal::{
    read_record_frames, scan_wal, segment_first_seq, segment_paths, ShippedFrames, Wal, WalScan,
    WalTail, WAL_MAGIC,
};
use crate::{StoreCounters, StoreError, StoreOptions};

/// Name of the spec file a durable directory carries so recovery can
/// rebuild the model without out-of-band information.
pub const SPEC_FILE: &str = "spec.troll";

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// WAL cursor of the snapshot used, if any.
    pub snapshot_seq: Option<u64>,
    /// Log records replayed on top of the snapshot.
    pub replayed: u64,
    /// Bytes of torn/corrupt tail that were (or must be) discarded.
    pub truncated_bytes: u64,
    /// The sequence number the next append will get.
    pub next_seq: u64,
}

impl RecoveryInfo {
    /// The structured observer event describing this recovery —
    /// [`recover`] runs before any observer can be attached to the
    /// rebuilt base, so callers that trace emit this themselves.
    pub fn to_obs_event(&self) -> ObsEvent {
        ObsEvent::StoreRecovered {
            snapshot_seq: self.snapshot_seq,
            replayed: self.replayed,
            truncated_bytes: self.truncated_bytes,
            next_seq: self.next_seq,
        }
    }
}

fn read_spec(dir: &Path) -> Result<String, StoreError> {
    fs::read_to_string(dir.join(SPEC_FILE)).map_err(|_| StoreError::MissingSpec(dir.to_path_buf()))
}

fn build_model(spec: &str) -> Result<troll_lang::SystemModel, StoreError> {
    let parsed = troll_lang::parse(spec).map_err(|e| StoreError::Spec(e.to_string()))?;
    troll_lang::analyze(&parsed).map_err(|e| StoreError::Spec(e.to_string()))
}

/// Rebuilds the object base recorded in `dir`: loads the newest valid
/// snapshot, replays the intact WAL tail, and reports what was skipped.
/// Read-only — a torn tail is *reported*, not truncated on disk.
///
/// # Errors
///
/// Fails when the directory carries no `spec.troll`, the spec no longer
/// parses, the log skips sequence numbers the snapshot does not cover,
/// or a logged step no longer replays (all of which mean the store and
/// the engine disagree — there is no safe world to return).
pub fn recover(dir: &Path) -> Result<(ObjectBase, RecoveryInfo), StoreError> {
    recover_scanned(dir).map(|(base, info, _)| (base, info))
}

/// [`recover`], also handing back the WAL scan it replayed (so
/// [`open_world`] reopens the log without reading it a second time).
fn recover_scanned(dir: &Path) -> Result<(ObjectBase, RecoveryInfo, WalScan), StoreError> {
    let spec = read_spec(dir)?;
    let model = build_model(&spec)?;
    let snapshot = load_latest_snapshot(dir)?;
    let (mut base, mut expected_seq, snapshot_seq) = match snapshot {
        Some(snap) => {
            let base = ObjectBase::restore(
                model,
                snap.instances,
                snap.steps_executed,
                snap.step_attempts,
            )?;
            (base, snap.next_seq, Some(snap.next_seq))
        }
        None => (ObjectBase::new(model)?, 0, None),
    };
    let scan = scan_wal(dir)?;
    let mut replayed = 0u64;
    for rec in &scan.records {
        if rec.seq < expected_seq {
            continue; // already reflected in the snapshot
        }
        if rec.seq > expected_seq {
            return Err(StoreError::SeqGap {
                expected: expected_seq,
                found: rec.seq,
            });
        }
        base.replay_step(rec.initial.clone())
            .map_err(|error| StoreError::Replay {
                seq: rec.seq,
                error,
            })?;
        expected_seq += 1;
        replayed += 1;
    }
    // a snapshot may be newer than the surviving log tail; whatever is
    // intact wins
    let next_seq = expected_seq.max(scan.next_seq);
    let truncated_bytes = match &scan.tail {
        WalTail::Clean => 0,
        WalTail::Truncate { lost_bytes, .. } => *lost_bytes,
    };
    let counters = StoreCounters::new(base.metrics());
    if snapshot_seq.is_some() || replayed > 0 || truncated_bytes > 0 {
        counters.recoveries.inc();
    }
    Ok((
        base,
        RecoveryInfo {
            snapshot_seq,
            replayed,
            truncated_bytes,
            next_seq,
        },
        scan,
    ))
}

/// Intact WAL records at or past `cursor` (a snapshot's), and their
/// framed bytes — frame sizes fall out of consecutive end offsets
/// within each segment.
fn records_past(scan: &WalScan, cursor: u64) -> (u64, u64) {
    let mut records = 0u64;
    let mut bytes = 0u64;
    let mut prev: Option<(&Path, u64)> = None;
    for rec in &scan.records {
        let start = match prev {
            Some((seg, end)) if seg == rec.segment.as_path() => end,
            _ => WAL_MAGIC.len() as u64,
        };
        if rec.seq >= cursor {
            records += 1;
            bytes += rec.end_offset - start;
        }
        prev = Some((rec.segment.as_path(), rec.end_offset));
    }
    (records, bytes)
}

/// A copy of a latched write error (`io::Error` is not `Clone`).
fn latched(e: &std::io::Error) -> StoreError {
    StoreError::Io(std::io::Error::new(e.kind(), e.to_string()))
}

/// What [`Store::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// WAL cursor of the snapshot written.
    pub snapshot_seq: u64,
    /// Segments deleted under the second-newest-snapshot pin.
    pub pruned_segments: usize,
}

/// Point-in-time figures from a live [`Store`], for stats reporting
/// over the wire and for compaction-pressure decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreFigures {
    /// Records appended since open.
    pub appends: u64,
    /// fsyncs issued since open.
    pub fsyncs: u64,
    /// Framed WAL bytes written since open.
    pub wal_bytes: u64,
    /// WAL bytes not yet covered by a snapshot (compaction pressure) —
    /// includes bytes inherited from before this open.
    pub bytes_since_snapshot: u64,
    /// Compactions run since open.
    pub compactions: u64,
    /// The sequence number the next append will get.
    pub next_seq: u64,
    /// First sequence number not yet covered by an fsync.
    pub durable_seq: u64,
}

/// The append half of a durable directory: owns the WAL tail and the
/// snapshot cadence. Created by [`open_world`]; fed by [`DurableSink`].
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Wal,
    snapshot_every: u64,
    appends_since_snapshot: u64,
    /// WAL bytes that were already on disk past the newest snapshot
    /// cursor when this store opened (compaction pressure inherited
    /// from the previous run).
    backlog_bytes: u64,
    /// [`Wal::appended_bytes`] value at the last snapshot — the live
    /// half of the bytes-since-snapshot figure.
    bytes_mark: u64,
    counters: StoreCounters,
    /// First write error, if any — the commit path is infallible, so
    /// failures are latched here and surfaced by [`Store::close`].
    write_error: Option<std::io::Error>,
}

impl Store {
    /// Records one committed step: appends to the WAL and, every
    /// `snapshot_every` appends, writes a snapshot of `base`. Never
    /// fails — errors are latched for [`Store::close`].
    ///
    /// When the base carries an enabled observer, the append, any fsync
    /// and any snapshot emit structured events tagged with the step's
    /// attempt number, extending the step's causal span into the store.
    pub fn record_step(&mut self, base: &ObjectBase, initial: &[Occurrence]) {
        if self.write_error.is_some() {
            return; // the log is broken; don't write diverging suffixes
        }
        // the sink runs inside the attempt whose number was already
        // allocated, so the current attempt is the previous counter value
        let step = base.step_attempts().saturating_sub(1);
        let observer = base.observer();
        let observing = observer.enabled();
        match self.wal.append(initial) {
            Ok(seq) => {
                if observing {
                    observer.on_event(&ObsEvent::StoreAppended { step, seq });
                    if let Some(nanos) = self.wal.take_last_sync_ns() {
                        observer.on_event(&ObsEvent::StoreFsynced { step, nanos });
                    }
                }
                self.appends_since_snapshot += 1;
                if self.snapshot_every > 0 && self.appends_since_snapshot >= self.snapshot_every {
                    // the log must reach stable storage before a
                    // snapshot that references it: a durable snapshot
                    // whose cursor exceeds the durable log would make
                    // the snapshot, not the log, the source of truth
                    if let Err(e) = self.wal.sync() {
                        self.write_error = Some(e);
                        return;
                    }
                    if observing {
                        if let Some(nanos) = self.wal.take_last_sync_ns() {
                            observer.on_event(&ObsEvent::StoreFsynced { step, nanos });
                        }
                    }
                    let start = Instant::now();
                    if let Err(e) = write_snapshot(&self.dir, base, self.wal.next_seq()) {
                        self.write_error = Some(e);
                        return;
                    }
                    if observing {
                        observer.on_event(&ObsEvent::SnapshotWritten {
                            seq: self.wal.next_seq(),
                            nanos: start.elapsed().as_nanos() as u64,
                        });
                    }
                    self.appends_since_snapshot = 0;
                    self.backlog_bytes = 0;
                    self.bytes_mark = self.wal.appended_bytes();
                }
            }
            Err(e) => self.write_error = Some(e),
        }
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// First sequence number not yet covered by an fsync — records
    /// below this are safe to acknowledge and to ship to followers.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// The latched write error, if any: the log is broken and no
    /// further appends will be recorded ([`Store::close`] surfaces it).
    pub fn write_error(&self) -> Option<&std::io::Error> {
        self.write_error.as_ref()
    }

    /// Group-commit acknowledgement sync: fsyncs only if records were
    /// appended since the last sync, returning whether an fsync was
    /// actually issued. A failure is latched (so [`Store::close`] still
    /// reports it) *and* returned, because a deferred acknowledgement
    /// must not claim durability the disk refused.
    pub fn sync_for_ack(&mut self) -> Result<bool, StoreError> {
        if let Some(e) = &self.write_error {
            return Err(latched(e));
        }
        if !self.wal.is_dirty() {
            return Ok(false);
        }
        match self.wal.sync() {
            Ok(()) => Ok(true),
            Err(e) => {
                let err = latched(&e);
                self.write_error = Some(e);
                Err(err)
            }
        }
    }

    /// Forces everything appended so far to stable storage (regardless
    /// of the fsync policy).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal.sync()?;
        Ok(())
    }

    /// Writes a final snapshot, syncs the WAL, and surfaces any write
    /// error latched during the run. Call once, when the world is done.
    pub fn close(&mut self, base: &ObjectBase) -> Result<(), StoreError> {
        if let Some(e) = self.write_error.take() {
            return Err(StoreError::Io(e));
        }
        self.wal.sync()?;
        if self.appends_since_snapshot > 0 {
            write_snapshot(&self.dir, base, self.wal.next_seq())?;
            self.appends_since_snapshot = 0;
            self.backlog_bytes = 0;
            self.bytes_mark = self.wal.appended_bytes();
        }
        Ok(())
    }

    /// Compacts the store: syncs the WAL, writes a snapshot of `base`
    /// at the current cursor, then prunes segments under the
    /// second-newest-snapshot pin. This is what the serve compaction
    /// daemon and `troll compact` run; `base` must be the live world
    /// this store records (the snapshot becomes recovery's starting
    /// point).
    pub fn compact(&mut self, base: &ObjectBase) -> Result<CompactionReport, StoreError> {
        if let Some(e) = &self.write_error {
            return Err(latched(e));
        }
        // log before snapshot, same ordering rule as the periodic path
        self.wal.sync()?;
        let snapshot_seq = self.wal.next_seq();
        write_snapshot(&self.dir, base, snapshot_seq)?;
        self.appends_since_snapshot = 0;
        self.backlog_bytes = 0;
        self.bytes_mark = self.wal.appended_bytes();
        let pruned_segments = self.prune_segments()?;
        self.counters.compactions.inc();
        Ok(CompactionReport {
            snapshot_seq,
            pruned_segments,
        })
    }

    /// Point-in-time store figures for stats reporting.
    pub fn figures(&self) -> StoreFigures {
        StoreFigures {
            appends: self.counters.appends.get(),
            fsyncs: self.counters.fsyncs.get(),
            wal_bytes: self.counters.bytes.get(),
            bytes_since_snapshot: self.backlog_bytes
                + (self.wal.appended_bytes() - self.bytes_mark),
            compactions: self.counters.compactions.get(),
            next_seq: self.wal.next_seq(),
            durable_seq: self.wal.durable_seq(),
        }
    }

    /// First sequence number still present in the on-disk log (the
    /// oldest segment's declared first), or `None` with no segments. A
    /// follower asking below this must catch up from a snapshot.
    pub fn oldest_shippable_seq(&self) -> Result<Option<u64>, StoreError> {
        let segments = segment_paths(&self.dir)?;
        Ok(segments.first().and_then(|p| segment_first_seq(p)))
    }

    /// Reads the raw frames of durable records `from..durable_seq` for
    /// shipping, capped near `max_bytes`. Only fsync-covered records
    /// ship: a follower must never hold a step the primary could still
    /// lose (and the covering sync guarantees the bytes are on disk
    /// where this read finds them).
    pub fn read_shippable(&self, from: u64, max_bytes: usize) -> Result<ShippedFrames, StoreError> {
        Ok(read_record_frames(
            &self.dir,
            from,
            self.wal.durable_seq(),
            max_bytes,
        )?)
    }

    /// Raw bytes of the newest fully-valid snapshot file, with its
    /// cursor — what ships to a follower that fell behind the pruned
    /// log. `None` when no valid snapshot exists.
    pub fn newest_snapshot_bytes(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        for path in snapshot_paths(&self.dir)?.iter().rev() {
            let bytes = fs::read(path)?;
            if let Some(snap) = snapshot_from_bytes(&bytes) {
                return Ok(Some((snap.next_seq, bytes)));
            }
        }
        Ok(None)
    }

    /// Deletes WAL segments every record of which is older than the
    /// **second-newest** valid snapshot, so recovery can still fall
    /// back one snapshot (if the newest later proves unreadable) and
    /// replay from there without hitting a pruned gap. With fewer than
    /// two valid snapshots nothing is removed. Returns the number of
    /// segments removed; the tail segment is always kept.
    pub fn prune_segments(&mut self) -> Result<usize, StoreError> {
        // newest-first cursors of the two newest snapshots that validate
        let mut cursors: Vec<u64> = Vec::new();
        for path in snapshot_paths(&self.dir)?.iter().rev() {
            if let Some(snap) = read_snapshot(path)? {
                cursors.push(snap.next_seq);
                if cursors.len() == 2 {
                    break;
                }
            }
        }
        let Some(&pin) = cursors.get(1) else {
            return Ok(0);
        };
        let segments = segment_paths(&self.dir)?;
        let mut removed = 0;
        // a segment is disposable when the *next* segment starts at or
        // below the pinned cursor (so every record here is < cursor)
        for pair in segments.windows(2) {
            if segment_first_seq(&pair[1]).is_some_and(|s| s <= pin) {
                fs::remove_file(&pair[0])?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Opens (or initializes) a durable directory and returns the live
/// world plus its [`Store`]. On an existing directory this **is** crash
/// recovery: the newest valid snapshot is loaded, the intact WAL tail
/// replayed, and a torn/corrupt suffix truncated on disk before the
/// log is reopened for appending.
///
/// `spec_source` is the TROLL source the caller wants to run; a fresh
/// directory records it as `spec.troll`, an existing one must match it
/// byte-for-byte ([`StoreError::SpecMismatch`] otherwise — replaying a
/// log under a different model would silently diverge).
///
/// # Errors
///
/// Everything [`recover`] can fail with, plus I/O errors creating the
/// directory or its files.
pub fn open_world(
    dir: &Path,
    spec_source: &str,
    opts: &StoreOptions,
) -> Result<(ObjectBase, Store, RecoveryInfo), StoreError> {
    fs::create_dir_all(dir)?;
    let spec_path = dir.join(SPEC_FILE);
    if spec_path.exists() {
        let stored = read_spec(dir)?;
        if stored != spec_source {
            return Err(StoreError::SpecMismatch(dir.to_path_buf()));
        }
    } else {
        let mut f = fs::File::create(&spec_path)?;
        std::io::Write::write_all(&mut f, spec_source.as_bytes())?;
        f.sync_all()?;
        fs::File::open(dir)?.sync_all()?;
    }
    let (base, info, scan) = recover_scanned(dir)?;
    let counters = StoreCounters::new(base.metrics());
    // compaction pressure inherited from the previous run: intact WAL
    // bytes past the newest snapshot cursor
    let (_, backlog_bytes) = records_past(&scan, info.snapshot_seq.unwrap_or(0));
    // append at the *recovered* cursor — a snapshot may be newer than
    // the surviving log, and writing below its cursor would be lost
    let wal = Wal::open(
        dir,
        &scan,
        info.next_seq,
        opts.fsync,
        opts.segment_bytes,
        counters.clone(),
    )?;
    let store = Store {
        dir: dir.to_path_buf(),
        wal,
        snapshot_every: opts.snapshot_every,
        appends_since_snapshot: 0,
        backlog_bytes,
        bytes_mark: 0,
        counters,
        write_error: None,
    };
    Ok((base, store, info))
}

/// What `troll compact --dry-run` would report: the state a compaction
/// of `dir` would start from, computed read-only from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactPlan {
    /// Cursor of the newest valid snapshot, if any.
    pub snapshot_seq: Option<u64>,
    /// Intact records past that cursor (what the new snapshot would
    /// absorb).
    pub records_since: u64,
    /// Bytes of those records.
    pub bytes_since: u64,
    /// Segments a compaction could prune: after the new snapshot the
    /// current newest becomes the second-newest pin, so every segment
    /// wholly below the *current* newest cursor goes.
    pub prunable_segments: usize,
    /// Bytes of those segments.
    pub prunable_bytes: u64,
    /// The sequence number the next append would get.
    pub next_seq: u64,
}

/// Computes a [`CompactPlan`] for `dir` without opening the world or
/// writing anything.
pub fn compact_plan(dir: &Path) -> Result<CompactPlan, StoreError> {
    let mut snapshot_seq = None;
    for path in snapshot_paths(dir)?.iter().rev() {
        if let Some(snap) = read_snapshot(path)? {
            snapshot_seq = Some(snap.next_seq);
            break;
        }
    }
    let scan = scan_wal(dir)?;
    let cursor = snapshot_seq.unwrap_or(0);
    let (records_since, bytes_since) = records_past(&scan, cursor);
    let mut prunable_segments = 0;
    let mut prunable_bytes = 0u64;
    if snapshot_seq.is_some() {
        let segments = segment_paths(dir)?;
        for pair in segments.windows(2) {
            if segment_first_seq(&pair[1]).is_some_and(|s| s <= cursor) {
                prunable_segments += 1;
                prunable_bytes += fs::metadata(&pair[0])?.len();
            }
        }
    }
    Ok(CompactPlan {
        snapshot_seq,
        records_since,
        bytes_since,
        prunable_segments,
        prunable_bytes,
        next_seq: scan.next_seq.max(cursor),
    })
}

/// The [`StepSink`] that makes a world durable: forwards every
/// committed step to a shared [`Store`]. Clone one handle into the
/// sink and keep another to [`Store::close`] at the end.
#[derive(Debug, Clone)]
pub struct DurableSink {
    store: Arc<Mutex<Store>>,
}

impl DurableSink {
    /// Wraps a store for sharing between the sink and the caller.
    pub fn new(store: Store) -> (DurableSink, Arc<Mutex<Store>>) {
        let shared = Arc::new(Mutex::new(store));
        (
            DurableSink {
                store: Arc::clone(&shared),
            },
            shared,
        )
    }
}

impl StepSink for DurableSink {
    fn on_step_committed(&mut self, base: &ObjectBase, initial: &[Occurrence]) {
        let mut store = match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        store.record_step(base, initial);
    }
}

/// Deterministic plain-text dump of a world: one block per instance
/// (identity order) with life-cycle flags, state, roles and trace
/// lengths, then the committed-step total. Two equivalent worlds —
/// e.g. a recovered one and its uninterrupted twin — dump identically,
/// which is what the CLI's `recover --dump` and the CI crash-recovery
/// job diff.
pub fn world_dump(base: &ObjectBase) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for inst in base.dump_instances() {
        writeln!(
            out,
            "instance {} class={} alive={} born={} trace={}",
            inst.id,
            inst.class,
            inst.alive,
            inst.born,
            inst.trace.len()
        )
        .expect("write to String");
        for (name, value) in inst.state.iter() {
            writeln!(out, "  attr {name} = {value}").expect("write to String");
        }
        for role in &inst.roles {
            writeln!(
                out,
                "  role {} active={} trace={}",
                role.name,
                role.active,
                role.trace.len()
            )
            .expect("write to String");
            for (name, value) in role.attrs.iter() {
                writeln!(out, "    attr {name} = {value}").expect("write to String");
            }
        }
    }
    writeln!(out, "steps={}", base.steps_executed()).expect("write to String");
    out
}
