//! In-memory spans of a traced run, written out when the run ends.
//!
//! A span is a named interval with a parent: a `request` span covers one
//! request from its send to its answer, and its `encode`/`decode`
//! children cover the wire codec. Spans stay in memory while the run
//! measures; [`Spans::write`] stores them as JSON lines afterwards.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans kept per recorder; later ones are counted but not kept.
const KEEP: usize = 20_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    kind: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Distinguishes recorders of different threads in span ids.
    lane: u64,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new(epoch: Instant, lane: u64) -> Spans {
        Spans {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A fresh span id, for a parent whose children finish first.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.lane << 40 | self.next
    }

    /// Records a finished span under a fresh id and returns the id
    /// (`0` is "no parent").
    pub fn record(&mut self, kind: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.record_as(id, kind, parent, start, end);
        id
    }

    /// Records a finished span under an id taken from [`Spans::id`].
    pub fn record_as(
        &mut self,
        id: u64,
        kind: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.spans.len() < KEEP {
            self.spans.push(Span {
                id,
                parent,
                kind,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
    }

    pub fn merge(&mut self, other: Spans) {
        self.dropped += other.dropped;
        for span in other.spans {
            if self.spans.len() < KEEP {
                self.spans.push(span);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Writes one JSON line per span, then a line counting the spans
    /// that were not kept.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.kind, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        out.flush()
    }
}
