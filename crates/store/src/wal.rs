//! The segmented append-only write-ahead log of committed steps.
//!
//! A log directory holds segments named `wal-<first-seq>.log`, each
//! starting with the 8-byte magic `TRLWAL1\n` followed by checksummed
//! frames (see [`crate::frame`]). One frame holds one record:
//!
//! ```text
//! [u8 tag = 1][u64 seq][u32 n][occurrence × n]
//! ```
//!
//! `seq` numbers committed steps from 0, contiguously across segments.
//! A record stores the step's **initial** occurrence vector — replay
//! re-runs the engine, which deterministically reproduces the closure
//! under event calling, the valuation and the role updates.
//!
//! Writers append only; a segment is rotated (closed and a new one
//! started) when it exceeds the configured size. Readers accept exactly
//! one defect, at the very tail: a torn or corrupt suffix, which
//! recovery truncates. Anything bad *before* intact data is a real
//! inconsistency and ends the scan at that point, discarding the rest.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use troll_runtime::Occurrence;

use crate::codec::{CodecError, CodecErrorKind, Dec, Enc};
use crate::frame::{read_frame, write_frame, FrameRead};
use crate::StoreCounters;

/// Magic bytes opening every WAL segment.
pub const WAL_MAGIC: &[u8; 8] = b"TRLWAL1\n";

/// Record tag: one committed step.
pub const REC_STEP: u8 = 1;

/// Decodes one record payload (the bytes inside a frame) into its
/// sequence number and initial occurrences — the inverse of
/// [`Wal::append`]'s encoding, shared by recovery and the follower.
///
/// # Errors
///
/// A non-step tag, a truncated field or trailing bytes.
pub fn decode_step(payload: &[u8]) -> Result<(u64, Vec<Occurrence>), CodecError> {
    let mut dec = Dec::new(payload);
    if dec.u8()? != REC_STEP {
        return Err(CodecError {
            at: 0,
            kind: CodecErrorKind::BadTag(payload[0]),
        });
    }
    let seq = dec.u64()?;
    let n = dec.count()?;
    let mut initial = Vec::with_capacity(n);
    for _ in 0..n {
        initial.push(dec.occurrence()?);
    }
    dec.finish()?;
    Ok((seq, initial))
}

/// When the operating system is asked to flush appended records to
/// stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every committed step — at most zero committed
    /// steps are lost on power failure, at the cost of one disk round
    /// trip per step.
    EveryCommit,
    /// `fsync` after every N committed steps — bounds the loss window
    /// to N steps.
    EveryN(u64),
    /// `fsync` only on clean close — a crash may lose everything since
    /// open; fastest.
    OnClose,
    /// Group commit: the log self-syncs once every `window` appends
    /// (bounding the unsynced backlog), but the real batching happens
    /// above the store — callers defer commit *acknowledgements* until
    /// a covering fsync completes, so unlike [`FsyncPolicy::EveryN`] an
    /// acknowledged step is never lost. `Group(1)` is byte- and
    /// fsync-identical to [`FsyncPolicy::EveryCommit`].
    Group(u64),
}

/// Window used when `--fsync group` is given without an explicit size.
pub const DEFAULT_GROUP_WINDOW: u64 = 32;

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    /// Parses `every-commit`, `on-close`, `every-<N>` (N ≥ 1), `group`
    /// or `group:<N>` (N ≥ 1).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "every-commit" => Ok(FsyncPolicy::EveryCommit),
            "on-close" => Ok(FsyncPolicy::OnClose),
            "group" => Ok(FsyncPolicy::Group(DEFAULT_GROUP_WINDOW)),
            _ => {
                if let Some(w) = s.strip_prefix("group:") {
                    let n = w.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("bad fsync policy `{s}` (group:<N> needs N >= 1)")
                    })?;
                    return Ok(FsyncPolicy::Group(n));
                }
                let n = s
                    .strip_prefix("every-")
                    .and_then(|n| n.parse::<u64>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        format!(
                            "bad fsync policy `{s}` (every-commit | every-<N> | group[:<N>] | on-close)"
                        )
                    })?;
                Ok(FsyncPolicy::EveryN(n))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::EveryCommit => write!(f, "every-commit"),
            FsyncPolicy::EveryN(n) => write!(f, "every-{n}"),
            FsyncPolicy::OnClose => write!(f, "on-close"),
            FsyncPolicy::Group(n) => write!(f, "group:{n}"),
        }
    }
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

/// Creates a fresh segment file with its magic written, fsyncs the
/// file, then fsyncs the directory so the new dirent survives a crash
/// — otherwise every record acknowledged into the segment vanishes
/// with the unlinked name.
fn create_segment(dir: &Path, first_seq: u64) -> std::io::Result<File> {
    let path = segment_path(dir, first_seq);
    let mut f = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)?;
    f.write_all(WAL_MAGIC)?;
    f.sync_all()?;
    File::open(dir)?.sync_all()?;
    Ok(f)
}

/// The first sequence number a segment's filename declares
/// (`wal-<first-seq>.log`), or `None` for a foreign name.
pub fn segment_first_seq(path: &Path) -> Option<u64> {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("wal-"))
        .and_then(|n| n.strip_suffix(".log"))
        .and_then(|n| n.parse::<u64>().ok())
}

/// Segment files in `dir`, sorted by first sequence number.
pub fn segment_paths(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("wal-") && name.ends_with(".log") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// One decoded WAL record plus its physical position (the frame's end
/// offset within its segment — a clean truncation boundary).
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Global step sequence number.
    pub seq: u64,
    /// The step's initial occurrence vector.
    pub initial: Vec<Occurrence>,
    /// Segment file holding the record.
    pub segment: PathBuf,
    /// Offset of the first byte *after* this record's frame.
    pub end_offset: u64,
}

/// How a WAL scan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte of every segment was intact.
    Clean,
    /// The log ends in a torn or corrupt suffix: `segment` is valid up
    /// to `valid_len`; that suffix plus any later segments total
    /// `lost_bytes` and must be truncated before appending resumes.
    Truncate {
        /// Segment holding the first bad frame.
        segment: PathBuf,
        /// Length of the segment's intact prefix.
        valid_len: u64,
        /// Bytes beyond the last intact frame, across all segments.
        lost_bytes: u64,
    },
}

/// The result of reading every segment in a log directory.
#[derive(Debug)]
pub struct WalScan {
    /// Intact records, in sequence order.
    pub records: Vec<WalRecord>,
    /// The sequence number the next append will get.
    pub next_seq: u64,
    /// Whether (and where) the tail needs truncation.
    pub tail: WalTail,
}

/// Reads and validates the whole log in `dir` (which may have no
/// segments at all). Never fails on torn or corrupt data — that is
/// reported in [`WalScan::tail`]; only real I/O errors surface.
pub fn scan_wal(dir: &Path) -> std::io::Result<WalScan> {
    let segments = segment_paths(dir)?;
    let mut records: Vec<WalRecord> = Vec::new();
    let mut next_seq: Option<u64> = None;
    // Where the intact prefix ends: (segment index, offset, lost so far).
    let mut cut: Option<(usize, u64)> = None;
    'segments: for (seg_idx, path) in segments.iter().enumerate() {
        let bytes = fs::read(path)?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            // an unwritten or mangled header: nothing in this segment
            // (or after it) is trustworthy
            cut = Some((seg_idx, 0));
            break 'segments;
        }
        let declared_first = segment_first_seq(path);
        let mut first_in_segment = true;
        let mut offset = WAL_MAGIC.len();
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::CleanEnd => break,
                FrameRead::Torn | FrameRead::Corrupt => {
                    cut = Some((seg_idx, offset as u64));
                    break 'segments;
                }
                FrameRead::Frame { payload, next } => {
                    let Ok((seq, initial)) = decode_step(payload) else {
                        // frame intact but record undecodable — same
                        // treatment as a corrupt frame
                        cut = Some((seg_idx, offset as u64));
                        break 'segments;
                    };
                    // sequence numbers must be contiguous; a skip means
                    // the log lost history and the tail is unusable.
                    // One exception: a forward jump exactly at a segment
                    // whose filename declares it. That is how appending
                    // resumes after "snapshot newer than surviving log"
                    // — the fresh segment's name records where the
                    // sequence picks up, and recovery still fails with
                    // SeqGap unless a snapshot actually covers the gap.
                    if next_seq.is_some_and(|expected| seq != expected) {
                        let declared_jump = first_in_segment
                            && declared_first == Some(seq)
                            && next_seq.is_some_and(|expected| seq > expected);
                        if !declared_jump {
                            cut = Some((seg_idx, offset as u64));
                            break 'segments;
                        }
                    }
                    first_in_segment = false;
                    next_seq = Some(seq + 1);
                    records.push(WalRecord {
                        seq,
                        initial,
                        segment: path.clone(),
                        end_offset: next as u64,
                    });
                    offset = next;
                }
            }
        }
    }
    let tail = match cut {
        None => WalTail::Clean,
        Some((seg_idx, valid_len)) => {
            let mut lost = fs::metadata(&segments[seg_idx])?
                .len()
                .saturating_sub(valid_len);
            for later in &segments[seg_idx + 1..] {
                lost += fs::metadata(later)?.len();
            }
            WalTail::Truncate {
                segment: segments[seg_idx].clone(),
                valid_len,
                lost_bytes: lost,
            }
        }
    };
    Ok(WalScan {
        records,
        next_seq: next_seq.map_or(0, |s| s),
        tail,
    })
}

/// The append half of the log: owns the open tail segment.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: BufWriter<File>,
    seg_len: u64,
    next_seq: u64,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    unsynced: u64,
    /// First sequence number NOT yet covered by an fsync. Everything
    /// below is on stable storage (records found on disk at open count
    /// as durable — they survived whatever wrote them).
    synced_seq: u64,
    /// Whether any append happened since the last sync — lets callers
    /// skip redundant fsyncs when a batch was already covered.
    dirty: bool,
    /// Cumulative framed bytes appended since open (monotonic; not
    /// reset by rotation or snapshots).
    appended_bytes: u64,
    counters: StoreCounters,
    /// Duration of the most recent [`Wal::sync`], until collected by
    /// [`Wal::take_last_sync_ns`] — lets the store emit a structured
    /// fsync event for syncs that happen inside [`Wal::append`]'s
    /// policy dispatch.
    last_sync_ns: Option<u64>,
}

impl Wal {
    /// Opens the log for appending after a [`scan_wal`] pass: truncates
    /// a torn/corrupt tail (deleting any fully-lost later segments) and
    /// positions at the end, or starts the first segment.
    ///
    /// `next_seq` is the sequence number the next append must get — the
    /// *recovered* cursor, which is at least [`WalScan::next_seq`] and
    /// strictly greater when a snapshot outlives the surviving log. In
    /// that case appending resumes in a fresh segment named by the
    /// cursor, never inside the stale tail: a record written below the
    /// snapshot cursor would be skipped by the next recovery as
    /// "already reflected in the snapshot" and silently lost.
    pub(crate) fn open(
        dir: &Path,
        scan: &WalScan,
        next_seq: u64,
        fsync: FsyncPolicy,
        segment_bytes: u64,
        counters: StoreCounters,
    ) -> std::io::Result<Wal> {
        debug_assert!(next_seq >= scan.next_seq);
        if let WalTail::Truncate {
            segment, valid_len, ..
        } = &scan.tail
        {
            // drop segments after the one holding the first bad frame
            for later in segment_paths(dir)? {
                if &later > segment {
                    fs::remove_file(&later)?;
                }
            }
            if *valid_len < WAL_MAGIC.len() as u64 {
                // not even the header survived — retire the file
                fs::remove_file(segment)?;
            } else {
                let f = OpenOptions::new().write(true).open(segment)?;
                f.set_len(*valid_len)?;
                f.sync_all()?;
            }
        }
        let segments = segment_paths(dir)?;
        let (file, seg_len) = match segments.last() {
            // appending to the tail segment keeps the log contiguous,
            // or the tail segment is the cursor-declared one already
            Some(path)
                if next_seq == scan.next_seq || segment_first_seq(path) == Some(next_seq) =>
            {
                let mut f = OpenOptions::new().append(true).open(path)?;
                let len = f.seek(SeekFrom::End(0))?;
                (f, len)
            }
            // no segments at all, or the snapshot cursor is ahead of
            // the surviving log: start a fresh segment whose filename
            // declares where the sequence resumes
            _ => (create_segment(dir, next_seq)?, WAL_MAGIC.len() as u64),
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            file: BufWriter::new(file),
            seg_len,
            next_seq,
            fsync,
            segment_bytes,
            unsynced: 0,
            synced_seq: next_seq,
            dirty: false,
            appended_bytes: 0,
            counters,
            last_sync_ns: None,
        })
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// First sequence number not yet covered by an fsync: records below
    /// this are on stable storage and safe to acknowledge (and to ship
    /// to followers).
    pub fn durable_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Cumulative framed bytes appended since this `Wal` was opened.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Whether anything was appended since the last sync.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Syncs only if something was appended since the last sync —
    /// lets a group committer coalesce acknowledgement batches without
    /// issuing fsyncs the window already paid for.
    pub fn sync_if_dirty(&mut self) -> std::io::Result<()> {
        if self.dirty {
            self.sync()?;
        }
        Ok(())
    }

    /// Appends one committed step and applies the fsync policy.
    /// Returns the record's sequence number.
    pub fn append(&mut self, initial: &[Occurrence]) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let mut enc = Enc::new();
        enc.u8(REC_STEP);
        enc.u64(seq);
        enc.u32(initial.len() as u32);
        for occ in initial {
            enc.occurrence(occ);
        }
        let payload = enc.into_bytes();
        let mut framed = Vec::with_capacity(payload.len() + crate::frame::FRAME_HEADER);
        write_frame(&mut framed, &payload);
        // Rotate *before* the write when this frame would push the
        // segment past the cap, so no segment ever exceeds
        // `segment_bytes` — except a segment whose single record is
        // alone bigger than the cap (every segment keeps >= 1 record).
        if self.seg_len > WAL_MAGIC.len() as u64
            && self.seg_len + framed.len() as u64 > self.segment_bytes
        {
            self.rotate()?;
        }
        self.file.write_all(&framed)?;
        self.seg_len += framed.len() as u64;
        self.next_seq += 1;
        self.dirty = true;
        self.appended_bytes += framed.len() as u64;
        self.counters.appends.inc();
        self.counters.bytes.add(framed.len() as u64);
        match self.fsync {
            FsyncPolicy::EveryCommit => self.sync()?,
            FsyncPolicy::EveryN(n) | FsyncPolicy::Group(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnClose => {}
        }
        Ok(seq)
    }

    /// Flushes buffered appends and asks the OS to reach stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        // Inside a profiled step (the runtime's sink phase is open on
        // this thread) the sync records itself as the nested `fsync`
        // phase; outside one this is a no-op.
        let _fsync_phase = self
            .counters
            .profiler
            .enter_if_active(troll_obs::Phase::Fsync);
        let start = Instant::now();
        self.file.get_ref().sync_data()?;
        let nanos = start.elapsed().as_nanos() as u64;
        self.counters.fsync_latency.record_ns(nanos);
        self.counters.fsyncs.inc();
        self.unsynced = 0;
        self.synced_seq = self.next_seq;
        self.dirty = false;
        self.last_sync_ns = Some(nanos);
        Ok(())
    }

    /// Duration of the most recent [`Wal::sync`], consumed on read —
    /// `None` when nothing synced since the last call.
    pub fn take_last_sync_ns(&mut self) -> Option<u64> {
        self.last_sync_ns.take()
    }

    /// Closes the current segment (flush + fsync) and starts the next.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.sync()?;
        let f = create_segment(&self.dir, self.next_seq)?;
        self.file = BufWriter::new(f);
        self.seg_len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

/// A batch of raw WAL frames read back for shipping to a follower.
#[derive(Debug)]
pub struct ShippedFrames {
    /// Concatenated CRC-framed record bytes, exactly as on disk.
    pub bytes: Vec<u8>,
    /// One past the last sequence number included — the `from` of the
    /// next poll. Equals the requested `from` when nothing was read.
    pub next_seq: u64,
}

/// Reads the raw frames of records `from..upto` out of the segments in
/// `dir`, stopping once `max_bytes` of frames are collected (at least
/// one record is returned whenever any qualifies, so a single oversized
/// record still ships). Frames are returned byte-for-byte as written —
/// the canonical codec means a follower re-appending them produces an
/// identical log. The walk stops at the first torn, corrupt or
/// undecodable frame: on a live primary the bytes past the durable
/// cursor may be mid-write, and `upto` should be that cursor.
pub fn read_record_frames(
    dir: &Path,
    from: u64,
    upto: u64,
    max_bytes: usize,
) -> std::io::Result<ShippedFrames> {
    let segments = segment_paths(dir)?;
    let mut out = Vec::new();
    let mut next_seq = from;
    'segments: for (i, path) in segments.iter().enumerate() {
        // skip segments wholly below `from`: the next segment's
        // filename declares where it starts
        if let Some(next_path) = segments.get(i + 1) {
            if segment_first_seq(next_path).is_some_and(|first| first <= from) {
                continue;
            }
        }
        let bytes = fs::read(path)?;
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            break;
        }
        let mut offset = WAL_MAGIC.len();
        loop {
            match read_frame(&bytes, offset) {
                FrameRead::CleanEnd => break,
                FrameRead::Torn | FrameRead::Corrupt => break 'segments,
                FrameRead::Frame { payload, next } => {
                    // peek tag + seq without a full decode
                    if payload.len() < 9 || payload[0] != REC_STEP {
                        break 'segments;
                    }
                    let seq = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                    if seq >= upto {
                        break 'segments;
                    }
                    if seq >= from {
                        if seq != next_seq {
                            // a gap relative to what we already
                            // collected — stop rather than ship a
                            // discontiguous batch
                            break 'segments;
                        }
                        out.extend_from_slice(&bytes[offset..next]);
                        next_seq = seq + 1;
                        if out.len() >= max_bytes {
                            break 'segments;
                        }
                    }
                    offset = next;
                }
            }
        }
    }
    Ok(ShippedFrames {
        bytes: out,
        next_seq,
    })
}
