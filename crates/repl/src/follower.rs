//! The follower: tail a primary's durable worlds and replay them.
//!
//! One blocking client connection pulls batches (`repl-poll`); each
//! world's records are re-verified (CRC + canonical decode) and
//! replayed into a [`Replica`] — `troll-serve`'s own world registry in
//! the read-only role, whose durable worlds record every replayed step
//! through their own store, as a served write is recorded. So the
//! follower's directory is not a file copy but an independently
//! *re-derived* durable world that happens to be byte-identical, and
//! `troll serve --durable <dir>` can promote it the moment the primary
//! dies. With a listen address, the serve readiness loop answers the
//! same registry.

use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread;
use std::time::Duration;

use troll_runtime::Occurrence;
use troll_serve::proto::{hex_decode, Request, Response};
use troll_serve::Replica;
use troll_store::frame::{read_frame, FrameRead};
use troll_store::wal::decode_step;
use troll_store::{FsyncPolicy, StoreOptions};

/// Follower tuning.
#[derive(Debug, Clone)]
pub struct FollowOptions {
    /// Sleep between poll rounds once caught up (milliseconds).
    pub poll_ms: u64,
    /// Catch up once and exit instead of tailing forever.
    pub once: bool,
    /// Answer the serve protocol, read-only, on this address while
    /// tailing.
    pub listen: Option<String>,
    /// Store tuning for the follower's own durable worlds.
    pub store: StoreOptions,
}

impl Default for FollowOptions {
    fn default() -> FollowOptions {
        FollowOptions {
            poll_ms: 100,
            once: false,
            listen: None,
            store: StoreOptions {
                // the follower acknowledges nothing, so its own fsync
                // cadence trades only its *local* catch-up work
                fsync: FsyncPolicy::EveryN(64),
                segment_bytes: 4 << 20,
                snapshot_every: 1024,
            },
        }
    }
}

/// Totals reported when the follower exits.
#[derive(Debug, Clone, Copy)]
pub struct FollowSummary {
    /// Worlds tailed.
    pub worlds: u64,
    /// Records replayed and re-recorded locally.
    pub records_applied: u64,
    /// Snapshots installed for catch-up past a pruned log.
    pub snapshots_installed: u64,
    /// `repl-poll` round trips issued.
    pub polls: u64,
    /// True when the follower exited because the primary became
    /// unreachable after a successful start — the cue to promote.
    pub primary_lost: bool,
}

/// Why a follower could not run (primary loss after a successful start
/// is *not* an error — see [`FollowSummary::primary_lost`]).
#[derive(Debug)]
pub enum FollowError {
    /// The primary was never reachable or refused replication.
    Connect(String),
    /// A local store/replay failure — this follower's copy is suspect.
    Local(String),
    /// The primary shipped something unintelligible or inconsistent.
    Protocol(String),
}

impl std::fmt::Display for FollowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FollowError::Connect(e) => write!(f, "cannot follow: {e}"),
            FollowError::Local(e) => write!(f, "follower store failure: {e}"),
            FollowError::Protocol(e) => write!(f, "replication protocol violation: {e}"),
        }
    }
}

impl std::error::Error for FollowError {}

/// A blocking line-protocol client that reconnects on demand and
/// forgets the stream on any error (the caller decides whether that
/// means the primary died).
struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn rpc(&mut self, req: &Request) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(BufReader::new(stream));
        }
        let result = self.rpc_on_stream(req);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn rpc_on_stream(&mut self, req: &Request) -> io::Result<Response> {
        let reader = self.stream.as_mut().expect("connected stream");
        let mut line = req.to_json();
        line.push('\n');
        reader.get_mut().write_all(line.as_bytes())?;
        let mut resp = String::new();
        if reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "primary closed the connection",
            ));
        }
        Response::parse(resp.trim_end()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

enum SyncErr {
    /// The primary became unreachable; exit cleanly, promotable.
    Primary,
    /// A real error; surface it.
    Fatal(FollowError),
}

/// Runs a follower against `addr`, mirroring every durable world into
/// `dir` (a valid `troll serve --durable` root). Returns when: the
/// primary dies after a successful start (`primary_lost` set), a
/// `shutdown` arrives on the listen port, or — with
/// [`FollowOptions::once`] — a full catch-up pass completes.
///
/// # Errors
///
/// [`FollowError::Connect`] when the primary was never reachable,
/// [`FollowError::Local`] / [`FollowError::Protocol`] when replication
/// cannot be trusted to continue.
pub fn run_follow(
    addr: &str,
    dir: &Path,
    opts: &FollowOptions,
) -> Result<FollowSummary, FollowError> {
    let mut client = Client::new(addr);
    let spec_source = match client.rpc(&Request::ReplSpec) {
        Ok(Response::Ok(spec)) => spec,
        Ok(Response::Err(e)) => {
            return Err(FollowError::Connect(format!(
                "primary refused repl-spec: {e}"
            )))
        }
        Err(e) => {
            return Err(FollowError::Connect(format!(
                "primary at {addr} unreachable: {e}"
            )))
        }
    };
    let (replica, server) = Replica::new(
        &spec_source,
        dir,
        opts.store.clone(),
        opts.listen.as_deref(),
    )
    .map_err(|e| match e.kind() {
        io::ErrorKind::InvalidData => {
            FollowError::Protocol(format!("primary's spec does not compile: {e}"))
        }
        _ => FollowError::Local(format!("listener: {e}")),
    })?;
    fs::create_dir_all(dir).map_err(|e| FollowError::Local(e.to_string()))?;
    let server = match server {
        Some(server) => Some(
            thread::Builder::new()
                .name("troll-serve".to_string())
                .spawn(move || server.run())
                .map_err(|e| FollowError::Local(e.to_string()))?,
        ),
        None => None,
    };

    let mut primary_lost = false;
    let mut failure = None;
    while !replica.stopped() {
        match sync_once(&mut client, &replica) {
            Ok(()) => {}
            Err(SyncErr::Primary) => {
                primary_lost = true;
                break;
            }
            Err(SyncErr::Fatal(e)) => {
                failure = Some(e);
                break;
            }
        }
        if opts.once {
            break;
        }
        thread::sleep(Duration::from_millis(opts.poll_ms));
    }

    replica.stop();
    if let Some(handle) = server {
        let served = match handle.join() {
            Ok(run) => run.map(|_| ()).map_err(|e| e.to_string()),
            Err(_) => Err("the serve loop panicked".to_string()),
        };
        if let Err(e) = served {
            failure.get_or_insert(FollowError::Local(format!("listener: {e}")));
        }
    }
    // final snapshot + sync per world, so promotion recovers instantly
    let closed = replica.close().map_err(FollowError::Local);
    if let Some(e) = failure {
        return Err(e);
    }
    closed?;
    let c = replica.counters();
    Ok(FollowSummary {
        worlds: c.worlds.get(),
        records_applied: c.records_applied.get(),
        snapshots_installed: c.snapshots_installed.get(),
        polls: c.polls.get(),
        primary_lost,
    })
}

/// One full pass: refresh the world list, then catch every world up to
/// the primary's durable cursor.
fn sync_once(client: &mut Client, replica: &Replica) -> Result<(), SyncErr> {
    let names = match client.rpc(&Request::ReplWorlds) {
        Ok(Response::Ok(text)) => text,
        Ok(Response::Err(e)) => {
            return Err(SyncErr::Fatal(FollowError::Protocol(format!(
                "repl-worlds refused: {e}"
            ))))
        }
        Err(_) => return Err(SyncErr::Primary),
    };
    for name in names.split_whitespace() {
        catch_up_world(client, replica, name)?;
    }
    Ok(())
}

fn local(e: String) -> SyncErr {
    SyncErr::Fatal(FollowError::Local(e))
}

fn protocol(e: String) -> SyncErr {
    SyncErr::Fatal(FollowError::Protocol(e))
}

/// Polls one world until the primary has nothing durable left to ship
/// (or the follower is stopping).
fn catch_up_world(client: &mut Client, replica: &Replica, name: &str) -> Result<(), SyncErr> {
    while !replica.stopped() {
        let from = replica.next_seq(name).map_err(local)?;
        replica.counters().polls.inc();
        let text = match client.rpc(&Request::ReplPoll {
            world: name.to_string(),
            from,
        }) {
            Ok(Response::Ok(text)) => text,
            // e.g. registered but not yet built on the primary — try
            // again next round
            Ok(Response::Err(_)) => return Ok(()),
            Err(_) => return Err(SyncErr::Primary),
        };
        let mut parts = text.splitn(3, ' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some("records"), Some(next), hex) => {
                let next: u64 = next.parse().map_err(|_| bad_reply(&text))?;
                let hex = hex.unwrap_or("");
                if next <= from || hex.is_empty() {
                    return Ok(()); // caught up to the durable cursor
                }
                let bytes = hex_decode(hex).ok_or_else(|| bad_reply(&text))?;
                let steps = decode_batch(&bytes, from)?;
                if replica.apply(name, steps).map_err(local)? == 0 {
                    return Ok(());
                }
            }
            (Some("snapshot"), Some(next), Some(hex)) => {
                let next: u64 = next.parse().map_err(|_| bad_reply(&text))?;
                let bytes = hex_decode(hex).ok_or_else(|| bad_reply(&text))?;
                if !replica.install_snapshot(name, &bytes).map_err(local)? {
                    return Err(protocol("shipped snapshot failed validation".to_string()));
                }
                let now = replica.next_seq(name).map_err(local)?;
                if now <= from || now < next {
                    return Err(protocol(format!(
                        "snapshot for seq {next} did not advance past {from}"
                    )));
                }
            }
            _ => return Err(bad_reply(&text)),
        }
    }
    Ok(())
}

fn bad_reply(text: &str) -> SyncErr {
    protocol(format!(
        "unintelligible repl-poll reply: {}",
        &text[..text.len().min(128)]
    ))
}

/// Verifies one shipped batch of raw frames and decodes its steps from
/// `from` on (records below it are already here). Every frame re-passes
/// the CRC and the canonical decode — a bit flip in transit (or on the
/// primary's disk) stops replication here rather than poisoning the
/// follower's log.
fn decode_batch(bytes: &[u8], from: u64) -> Result<Vec<Vec<Occurrence>>, SyncErr> {
    let mut steps = Vec::new();
    let mut expected = from;
    let mut offset = 0usize;
    loop {
        match read_frame(bytes, offset) {
            FrameRead::CleanEnd => return Ok(steps),
            FrameRead::Torn | FrameRead::Corrupt => {
                return Err(protocol(
                    "torn or corrupt frame in shipped batch".to_string(),
                ))
            }
            FrameRead::Frame { payload, next } => {
                let (seq, initial) = decode_step(payload)
                    .map_err(|e| protocol(format!("undecodable shipped record: {e:?}")))?;
                if seq > expected {
                    return Err(protocol(format!(
                        "shipped batch skips from {expected} to {seq}"
                    )));
                }
                if seq == expected {
                    steps.push(initial);
                    expected += 1;
                }
                offset = next;
            }
        }
    }
}
