//! The multi-world animation server.
//!
//! One readiness loop ([`crate::poll::Poller`]) owns the listener and
//! every connection; it parses request lines, answers global requests
//! (`stats`, `metrics`, `shutdown`, parse errors) inline, and routes
//! world-bound requests to a worker pool. Each world has a FIFO job
//! queue guarded by a `scheduled` flag, so at most one worker drains a
//! given world at a time — submissions to *different* worlds run
//! concurrently, submissions to the *same* world keep their arrival
//! order (which is what makes a served world byte-equal to a sequential
//! `animate` run of the same lines). A `submit-event` line runs through
//! [`script::run_command`] under the world's write lock — the one step
//! path `animate` takes; `query-attr`/`query-view` are answered under
//! the read lock by [`script::query`]. Every world checks its
//! permissions through the monitor cache, as `animate` and recovery do.
//!
//! A read of an *idle* world — nothing queued, no worker draining it,
//! its lock free — is answered by the loop itself, with no hand-off to
//! a worker and back. Only the loop enqueues, so a world it sees idle
//! has run every job routed before the read: the inline answer is the
//! one the queue would have given. A read of a busy world waits its
//! turn in the queue as before.
//!
//! A log-shipping follower runs this same loop in a read-only role
//! ([`Replica`]): its worlds sit in the same registry, built the same
//! way, and change only when its tail loop replays the primary's
//! records into them. The loop then refuses `open` and `submit-event`
//! and answers everything else unchanged — reads, per-world `stats`,
//! and `repl-spec`/`repl-worlds`/`repl-poll`, so a follower can itself
//! be tailed.
//!
//! Responses flow back to the loop thread over a completion list plus
//! a socketpair waker byte; per-connection sequence numbers reassemble
//! pipelined responses into request order before bytes hit the wire.
//! A connection whose outbound buffer exceeds the cap (a reader that
//! stopped reading) is dropped — slow clients never block the loop or
//! other worlds.

use crate::poll::{Interest, Poller};
use crate::proto::{hex_encode, Request, Response, MAX_LINE};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use troll_obs::{Counter, Histogram, HistogramSummary, Metrics};
use troll_runtime::script::{self, Query};
use troll_runtime::{ObjectBase, Occurrence, SharedModel};
use troll_store::snapshot::install_snapshot_bytes;
use troll_store::{open_world, DurableSink, FsyncPolicy, Store, StoreOptions};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a shutting-down server waits for clients to drain their
/// final responses before closing the loop anyway.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Cap on raw WAL bytes per `repl-poll` batch: hex doubles it on the
/// wire, and the whole response line must stay a sane fraction of
/// [`MAX_LINE`].
const REPL_MAX_BATCH: usize = 128 << 10;

/// How often the compaction daemon re-examines every world's pressure.
const COMPACT_TICK: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads executing world jobs.
    pub workers: usize,
    /// Root directory for per-world stores; `None` keeps worlds in
    /// memory only.
    pub durable: Option<PathBuf>,
    /// Store tuning for `--durable` worlds.
    pub store: StoreOptions,
    /// Outbound buffer cap per connection; a client further behind
    /// than this is dropped rather than allowed to wedge the loop.
    pub max_buffered: usize,
    /// Run the background compaction daemon once a durable world
    /// accumulates this many WAL bytes past its last snapshot (the
    /// per-world threshold is jittered ±25% so a fleet of worlds does
    /// not snapshot-storm). `None` disables the daemon.
    pub compact_after: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
            durable: None,
            store: StoreOptions {
                fsync: FsyncPolicy::EveryCommit,
                segment_bytes: 4 << 20,
                snapshot_every: 1024,
            },
            max_buffered: 8 << 20,
            compact_after: None,
        }
    }
}

/// Totals reported when the server exits cleanly.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// `submit-event` requests.
    pub events: u64,
    /// Steps committed by `submit-event` lines.
    pub commits: u64,
    /// Always 0: each world steps on one worker at a time, so there is
    /// no speculation to conflict. Kept for the `serve.conflicts` metric
    /// and for callers that read the field.
    pub conflicts: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Worlds opened.
    pub worlds: u64,
    /// End-to-end latency of world-routed requests (parse → response
    /// ready, reads the loop answered inline included), from the
    /// `serve.request_latency_ns` histogram.
    pub request_latency: HistogramSummary,
}

struct ServeCounters {
    requests: Counter,
    events: Counter,
    commits: Counter,
    /// Never incremented (see [`ServeSummary::conflicts`]).
    conflicts: Counter,
    errors: Counter,
    worlds: Counter,
    /// Commit acknowledgements deferred to the group committer.
    deferred_acks: Counter,
    /// fsyncs issued by the group committer (one may cover many acks).
    group_fsyncs: Counter,
    /// Compactions run by the background daemon.
    compactions: Counter,
    /// `repl-poll` requests served.
    repl_polls: Counter,
    /// Reads of idle worlds the loop answered without the job queue.
    inline_reads: Counter,
    request_latency: Histogram,
    /// The whole write-locked `run_command` of each request that
    /// committed at least one step.
    commit_latency: Histogram,
}

impl ServeCounters {
    fn new(metrics: &Metrics) -> ServeCounters {
        ServeCounters {
            requests: metrics.counter("serve.requests"),
            events: metrics.counter("serve.events"),
            commits: metrics.counter("serve.commits"),
            conflicts: metrics.counter("serve.conflicts"),
            errors: metrics.counter("serve.errors"),
            worlds: metrics.counter("serve.worlds"),
            deferred_acks: metrics.counter("serve.deferred_acks"),
            group_fsyncs: metrics.counter("serve.group_fsyncs"),
            compactions: metrics.counter("serve.compactions"),
            repl_polls: metrics.counter("serve.repl_polls"),
            inline_reads: metrics.counter("serve.inline_reads"),
            request_latency: metrics.histogram("serve.request_latency_ns"),
            commit_latency: metrics.histogram("serve.commit_latency_ns"),
        }
    }
}

/// A follower's replication counters: fed by its tail loop, reported
/// by its global `stats`, and registered in its server's metrics as
/// `repl.polls`, `repl.records_applied`, `repl.snapshots_installed`
/// and `repl.worlds`.
#[derive(Debug, Clone)]
pub struct ReplCounters {
    /// `repl-poll` round trips issued to the primary.
    pub polls: Counter,
    /// Shipped records replayed and re-recorded locally.
    pub records_applied: Counter,
    /// Snapshots installed for catch-up past a pruned log.
    pub snapshots_installed: Counter,
    /// Worlds tailed.
    pub worlds: Counter,
}

/// What a server's port accepts.
enum Role {
    /// Takes writes.
    Primary,
    /// A follower's server: its worlds change only by replaying the
    /// primary's log, never by taking writes, or the two would diverge.
    Follower(ReplCounters),
}

/// One hosted world: its engine, and its store handle when durable.
struct WorldState {
    base: ObjectBase,
    store: Option<Arc<Mutex<Store>>>,
}

/// A world's registry entry. `world` is `None` until the first `open`
/// job builds (or recovers) it on a worker.
struct WorldEntry {
    name: String,
    jobs: Mutex<JobQueue>,
    world: RwLock<Option<WorldState>>,
}

#[derive(Default)]
struct JobQueue {
    queue: VecDeque<Job>,
    /// True while the entry sits in the ready list or a worker drains
    /// it — the one-worker-per-world-at-a-time discipline.
    scheduled: bool,
}

impl WorldEntry {
    fn new(name: String) -> WorldEntry {
        WorldEntry {
            name,
            jobs: Mutex::new(JobQueue::default()),
            world: RwLock::new(None),
        }
    }
}

struct Job {
    conn: u64,
    seq: u64,
    req: Request,
    t0: Instant,
}

struct Completion {
    conn: u64,
    seq: u64,
    line: String,
}

/// A committed step whose success response waits for the covering
/// fsync — the group-commit honesty rule: never acknowledge what the
/// disk could still lose.
struct DeferredAck {
    conn: u64,
    seq: u64,
    /// The step's WAL sequence number; durable once
    /// `store.durable_seq() > step_seq`.
    step_seq: u64,
    store: Arc<Mutex<Store>>,
    line: String,
    t0: Instant,
}

/// Hand-off point between workers and the group committer thread.
/// Workers push deferred acks and nudge the condvar; the committer
/// drains whatever accumulated (acks pile up naturally while an fsync
/// is in flight — that *is* the batching) and fsyncs each distinct
/// store at most once per drain.
#[derive(Default)]
struct GroupCommit {
    pending: Mutex<Vec<DeferredAck>>,
    cv: Condvar,
}

/// A response slot awaiting its turn in the per-connection order.
enum Pending {
    /// Fully rendered response line.
    Line(String),
    /// Server-wide `stats`, rendered lazily at flush time.
    GlobalStats,
    /// The server registry in Prometheus text, rendered lazily at flush
    /// time like [`Pending::GlobalStats`].
    Metrics,
}

struct Shared {
    model: SharedModel,
    spec_source: String,
    durable: Option<PathBuf>,
    store_opts: StoreOptions,
    max_buffered: usize,
    registry: Mutex<HashMap<String, Arc<WorldEntry>>>,
    ready: Mutex<VecDeque<Arc<WorldEntry>>>,
    ready_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Jobs enqueued but whose completion the loop has not drained yet.
    inflight: AtomicU64,
    /// Tells the loop to stop taking requests, drain and exit: set by a
    /// `shutdown` request or, on a follower, by its tail loop.
    stop: AtomicBool,
    /// Tells idle workers to exit once the ready list is empty.
    shutdown: AtomicBool,
    /// Write half of the waker socketpair; one byte per completion
    /// batch nudges the loop out of `wait`.
    waker: UnixStream,
    /// Present when the fsync policy is `group[:N]` on a durable
    /// server: commit acks detour through the committer thread.
    group: Option<GroupCommit>,
    /// Compaction-daemon threshold (WAL bytes past the last snapshot).
    compact_after: Option<u64>,
    metrics: Metrics,
    c: ServeCounters,
    role: Role,
}

impl Shared {
    /// Compiles the model once (shared by every world) and sets up the
    /// registry; returns the read half of the waker socketpair for the
    /// loop.
    fn new(
        spec_source: &str,
        opts: ServeOptions,
        metrics: Metrics,
        role: Role,
    ) -> io::Result<(Arc<Shared>, UnixStream)> {
        let model = troll_lang::parse(spec_source)
            .and_then(|parsed| troll_lang::analyze(&parsed))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let c = ServeCounters::new(&metrics);
        let group = if opts.durable.is_some() && matches!(opts.store.fsync, FsyncPolicy::Group(_)) {
            Some(GroupCommit::default())
        } else {
            None
        };
        let compact_after = if opts.durable.is_some() {
            opts.compact_after
        } else {
            None
        };
        let shared = Arc::new(Shared {
            model: SharedModel::new(model),
            spec_source: spec_source.to_string(),
            durable: opts.durable,
            store_opts: opts.store,
            max_buffered: opts.max_buffered,
            registry: Mutex::new(HashMap::new()),
            ready: Mutex::new(VecDeque::new()),
            ready_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            inflight: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            waker: waker_tx,
            group,
            compact_after,
            metrics,
            c,
            role,
        });
        Ok((shared, waker_rx))
    }

    fn wake(&self) {
        // best-effort: a full pipe already guarantees a pending wakeup
        let _ = (&self.waker).write(&[1u8]);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Every registry entry, collected so the registry lock is not held
    /// while they are visited.
    fn entries(&self) -> Vec<Arc<WorldEntry>> {
        let registry = self.registry.lock().expect("registry");
        registry.values().cloned().collect()
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
    workers: usize,
}

/// A server running on its own thread (see [`Server::spawn`]).
pub struct SpawnedServer {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    /// Joins the loop thread; yields the exit summary.
    pub join: thread::JoinHandle<io::Result<ServeSummary>>,
}

impl Server {
    /// Parses `spec_source`, compiles the model once (shared by every
    /// world), and binds `addr`.
    ///
    /// # Errors
    ///
    /// Socket errors, or `InvalidData` when the spec does not compile.
    pub fn bind(
        addr: impl ToSocketAddrs,
        spec_source: &str,
        opts: ServeOptions,
    ) -> io::Result<Server> {
        let workers = opts.workers;
        let (shared, waker_rx) = Shared::new(spec_source, opts, Metrics::new(), Role::Primary)?;
        Server::listen(addr, shared, waker_rx, workers)
    }

    fn listen(
        addr: impl ToSocketAddrs,
        shared: Arc<Shared>,
        waker_rx: UnixStream,
        workers: usize,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            waker_rx,
            shared,
            workers: workers.max(1),
        })
    }

    /// The bound local address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The server's metrics registry (counters under `serve.*`).
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Binds and runs on a new thread; the caller talks to it over TCP
    /// (send `{"op":"shutdown"}` to stop it).
    ///
    /// # Errors
    ///
    /// Same as [`Server::bind`].
    pub fn spawn(
        addr: impl ToSocketAddrs,
        spec_source: &str,
        opts: ServeOptions,
    ) -> io::Result<SpawnedServer> {
        let server = Server::bind(addr, spec_source, opts)?;
        let addr = server.local_addr()?;
        let join = thread::Builder::new()
            .name("troll-serve".to_string())
            .spawn(move || server.run())?;
        Ok(SpawnedServer { addr, join })
    }

    /// Runs the readiness loop until a `shutdown` request arrives (or,
    /// on a follower, [`Replica::stop`] runs), then drains responses,
    /// joins the workers, and closes every durable store (final
    /// snapshot + WAL sync) — on a follower, [`Replica::close`] does
    /// that once its tail has stopped.
    ///
    /// # Errors
    ///
    /// Fatal poller/listener failures, and on a primary a final close
    /// that failed (the error names every such world, so a durable
    /// `troll serve` whose log or last snapshot did not reach the disk
    /// exits non-zero). Per-connection errors just drop that
    /// connection.
    pub fn run(self) -> io::Result<ServeSummary> {
        let Server {
            listener,
            waker_rx,
            shared,
            workers,
        } = self;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("troll-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let committer_handle = if shared.group.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("troll-serve-committer".to_string())
                    .spawn(move || committer_loop(&shared))?,
            )
        } else {
            None
        };
        let compactor_handle = if shared.compact_after.is_some() {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("troll-serve-compactor".to_string())
                    .spawn(move || compactor_loop(&shared))?,
            )
        } else {
            None
        };

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN_TOKEN;
        let mut events = Vec::with_capacity(256);
        let mut deadline: Option<Instant> = None;

        loop {
            events.clear();
            let timeout = if shared.stopping() { 10 } else { 250 };
            poller.wait(&mut events, timeout)?;

            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => loop {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                if shared.stopping() {
                                    continue; // drop it; we are leaving
                                }
                                if stream.set_nonblocking(true).is_err() {
                                    continue;
                                }
                                let _ = stream.set_nodelay(true);
                                let token = next_token;
                                next_token += 1;
                                if poller
                                    .add(stream.as_raw_fd(), token, Interest::READ)
                                    .is_ok()
                                {
                                    conns.insert(token, Conn::new(stream, token));
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    },
                    TOKEN_WAKER => {
                        let mut sink = [0u8; 256];
                        while matches!((&waker_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    token => {
                        if let Some(conn) = conns.get_mut(&token) {
                            if ev.error {
                                conn.dead = true;
                            }
                            if ev.readable && !conn.dead && read_ready(&shared, conn) {
                                shared.stop.store(true, Ordering::SeqCst);
                            }
                            if ev.writable && !conn.dead {
                                conn.try_write();
                            }
                        }
                    }
                }
            }

            for comp in shared.completions.lock().expect("completions").drain(..) {
                shared.inflight.fetch_sub(1, Ordering::Relaxed);
                if let Some(conn) = conns.get_mut(&comp.conn) {
                    conn.pending.insert(comp.seq, Pending::Line(comp.line));
                }
            }

            let mut drop_tokens = Vec::new();
            for (token, conn) in conns.iter_mut() {
                conn.flush_pending(&shared);
                if !conn.outbuf.is_empty() {
                    conn.try_write();
                }
                if conn.outbuf.len() - conn.out_pos > shared.max_buffered {
                    conn.dead = true; // slow client: cut it loose
                }
                if conn.saw_eof && conn.drained() {
                    conn.dead = true;
                }
                if conn.dead {
                    drop_tokens.push(*token);
                    continue;
                }
                let desired = Interest {
                    read: !conn.saw_eof,
                    write: conn.out_pos < conn.outbuf.len(),
                };
                if desired != conn.interest {
                    if poller
                        .modify(conn.stream.as_raw_fd(), *token, desired)
                        .is_err()
                    {
                        conn.dead = true;
                        drop_tokens.push(*token);
                    } else {
                        conn.interest = desired;
                    }
                }
            }
            for token in drop_tokens {
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.remove(conn.stream.as_raw_fd());
                }
            }

            if shared.stopping() {
                let deadline = *deadline.get_or_insert_with(|| Instant::now() + SHUTDOWN_GRACE);
                let drained = shared.inflight.load(Ordering::Relaxed) == 0
                    && conns.values().all(Conn::drained);
                if drained || Instant::now() >= deadline {
                    break;
                }
            }
        }

        drop(conns);
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.ready_cv.notify_all();
        if let Some(group) = &shared.group {
            group.cv.notify_all();
        }
        for handle in worker_handles {
            let _ = handle.join();
        }
        if let Some(handle) = committer_handle {
            let _ = handle.join();
        }
        if let Some(handle) = compactor_handle {
            let _ = handle.join();
        }
        // a follower's tail may still be applying; it closes the stores
        // itself once it has stopped (`Replica::close`)
        if let Role::Primary = shared.role {
            let failures = close_stores(&shared);
            if !failures.is_empty() {
                return Err(io::Error::other(failures.join("; ")));
            }
        }

        let c = &shared.c;
        Ok(ServeSummary {
            requests: c.requests.get(),
            events: c.events.get(),
            commits: c.commits.get(),
            conflicts: c.conflicts.get(),
            errors: c.errors.get(),
            worlds: c.worlds.get(),
            request_latency: c.request_latency.summary(),
        })
    }
}

/// Final-snapshot + sync every durable world on the way out; returns
/// the failures.
fn close_stores(shared: &Shared) -> Vec<String> {
    let mut failures = Vec::new();
    for entry in shared.entries() {
        let slot = entry.world.read().expect("world lock");
        if let Some(state) = slot.as_ref() {
            if let Some(store) = &state.store {
                if let Err(e) = store.lock().expect("store lock").close(&state.base) {
                    failures.push(format!("closing world `{}`: {e}", entry.name));
                }
            }
        }
    }
    failures
}

/// One client connection owned by the loop thread.
struct Conn {
    stream: TcpStream,
    token: u64,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_pos: usize,
    /// Sequence number the next parsed request gets.
    next_seq: u64,
    /// Sequence number the next flushed response must carry.
    next_flush: u64,
    /// Responses that arrived out of order, keyed by sequence.
    pending: BTreeMap<u64, Pending>,
    interest: Interest,
    saw_eof: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Conn {
        Conn {
            stream,
            token,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_flush: 0,
            pending: BTreeMap::new(),
            interest: Interest::READ,
            saw_eof: false,
            dead: false,
        }
    }

    /// Every received request has been answered and written out.
    fn drained(&self) -> bool {
        self.next_flush == self.next_seq && self.outbuf.len() == self.out_pos
    }

    /// Moves in-order pending responses into the outbound buffer.
    /// Global stats and metrics render *here* — once everything the
    /// connection pipelined before the request has completed — so the
    /// counters reflect at least this connection's prior requests.
    fn flush_pending(&mut self, shared: &Shared) {
        while let Some(resp) = self.pending.remove(&self.next_flush) {
            let line = match resp {
                Pending::Line(line) => line,
                Pending::GlobalStats => Response::Ok(global_stats(shared)).to_json(),
                Pending::Metrics => {
                    Response::Ok(shared.metrics.render_prometheus("troll")).to_json()
                }
            };
            self.outbuf.extend_from_slice(line.as_bytes());
            self.outbuf.push(b'\n');
            self.next_flush += 1;
        }
    }

    /// Writes buffered bytes until the socket pushes back.
    fn try_write(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
    }
}

/// Reads everything available, splits complete lines, and routes them.
/// Returns true when a `shutdown` request was seen.
fn read_ready(shared: &Arc<Shared>, conn: &mut Conn) -> bool {
    let mut buf = [0u8; 16384];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.saw_eof = true;
                break;
            }
            Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }

    let mut lines = Vec::new();
    let mut start = 0usize;
    while let Some(off) = conn.inbuf[start..].iter().position(|&b| b == b'\n') {
        let mut line = &conn.inbuf[start..start + off];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        lines.push(String::from_utf8_lossy(line).into_owned());
        start += off + 1;
    }
    if start > 0 {
        conn.inbuf.drain(..start);
    }
    if conn.inbuf.len() > MAX_LINE {
        // a line this long is not a protocol request; cut the peer off
        shared.c.errors.inc();
        conn.dead = true;
        return false;
    }

    let mut shutdown = false;
    for line in lines {
        if route_line(shared, conn, &line) {
            shutdown = true;
        }
    }
    shutdown
}

/// Parses one request line and either answers it inline (errors,
/// global stats, metrics, shutdown ack, reads of an idle world) or
/// enqueues it on its world. Returns true for `shutdown`.
fn route_line(shared: &Arc<Shared>, conn: &mut Conn, line: &str) -> bool {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    shared.c.requests.inc();
    let t0 = Instant::now();

    let req = match Request::parse(line) {
        Err(e) => {
            shared.c.errors.inc();
            conn.pending
                .insert(seq, Pending::Line(Response::Err(e).to_json()));
            return false;
        }
        Ok(req) => req,
    };
    let world = match &req {
        Request::Shutdown => {
            conn.pending.insert(
                seq,
                Pending::Line(Response::Ok("shutting down".to_string()).to_json()),
            );
            return true;
        }
        Request::Stats { world: None } => {
            conn.pending.insert(seq, Pending::GlobalStats);
            return false;
        }
        Request::Metrics => {
            conn.pending.insert(seq, Pending::Metrics);
            return false;
        }
        Request::ReplSpec => {
            conn.pending.insert(
                seq,
                Pending::Line(Response::Ok(shared.spec_source.clone()).to_json()),
            );
            return false;
        }
        Request::ReplWorlds => {
            conn.pending.insert(
                seq,
                Pending::Line(Response::Ok(built_worlds(shared)).to_json()),
            );
            return false;
        }
        Request::Open { .. } | Request::SubmitEvent { .. }
            if matches!(shared.role, Role::Follower(_)) =>
        {
            shared.c.errors.inc();
            let refusal = Response::Err("read-only follower: writes go to the primary".to_string());
            conn.pending.insert(seq, Pending::Line(refusal.to_json()));
            return false;
        }
        Request::Open { world }
        | Request::SubmitEvent { world, .. }
        | Request::QueryAttr { world, .. }
        | Request::QueryView { world, .. }
        | Request::ReplPoll { world, .. }
        | Request::Stats { world: Some(world) } => world.clone(),
    };

    let create = matches!(req, Request::Open { .. });
    let entry = {
        let mut registry = shared.registry.lock().expect("registry");
        match registry.get(&world) {
            Some(entry) => Some(Arc::clone(entry)),
            None if create => {
                let entry = Arc::new(WorldEntry::new(world.clone()));
                registry.insert(world.clone(), Arc::clone(&entry));
                Some(entry)
            }
            None => None,
        }
    };
    match entry {
        None => {
            shared.c.errors.inc();
            conn.pending.insert(
                seq,
                Pending::Line(Response::Err(format!("world `{world}` is not open")).to_json()),
            );
        }
        Some(entry) => {
            if let Some(resp) = read_inline(shared, &entry, &req) {
                shared.c.inline_reads.inc();
                shared
                    .c
                    .request_latency
                    .record_ns(t0.elapsed().as_nanos() as u64);
                conn.pending.insert(seq, Pending::Line(resp.to_json()));
                return false;
            }
            shared.inflight.fetch_add(1, Ordering::Relaxed);
            enqueue(
                shared,
                &entry,
                Job {
                    conn: conn.token,
                    seq,
                    req,
                    t0,
                },
            );
        }
    }
    false
}

/// Answers a `query-attr`/`query-view` on the loop thread when its
/// world is idle: the job queue is empty, no worker holds the world
/// (`scheduled` is clear), and the world lock is free for reading.
/// Only the loop enqueues, and a worker clears `scheduled` only after
/// its last job has run and released the lock, so an idle world has
/// applied every job routed before this read. `None` sends the read
/// through the queue: the world is busy, or its lock is held by a
/// follower's replay or a compaction.
fn read_inline(shared: &Shared, entry: &WorldEntry, req: &Request) -> Option<Response> {
    let query = read_query(req)?;
    {
        let jobs = entry.jobs.lock().expect("job queue");
        if jobs.scheduled || !jobs.queue.is_empty() {
            return None;
        }
    }
    let slot = entry.world.try_read().ok()?;
    Some(answer_query(shared, entry, &slot, query))
}

/// The [`Query`] a `query-attr`/`query-view` request asks; `None` for
/// every other request.
fn read_query(req: &Request) -> Option<Query<'_>> {
    match req {
        Request::QueryAttr { id, attr, .. } => Some(Query::Attr {
            id,
            attribute: attr,
        }),
        Request::QueryView { interface, .. } => Some(Query::View { interface }),
        _ => None,
    }
}

/// Appends a job to its world's queue and puts the world on the ready
/// list unless a worker already has it.
fn enqueue(shared: &Shared, entry: &Arc<WorldEntry>, job: Job) {
    let newly_scheduled = {
        let mut jobs = entry.jobs.lock().expect("job queue");
        jobs.queue.push_back(job);
        if jobs.scheduled {
            false
        } else {
            jobs.scheduled = true;
            true
        }
    };
    if newly_scheduled {
        shared
            .ready
            .lock()
            .expect("ready list")
            .push_back(Arc::clone(entry));
        shared.ready_cv.notify_one();
    }
}

/// Worker: claim a ready world, drain its queue in FIFO order, repeat.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let entry = {
            let mut ready = shared.ready.lock().expect("ready list");
            loop {
                if let Some(entry) = ready.pop_front() {
                    break entry;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                ready = shared.ready_cv.wait(ready).expect("ready list");
            }
        };
        let mut next = next_job(&entry);
        while let Some(job) = next {
            let Processed { resp, defer } = process(shared, &entry, job.req);
            // take the next job, or mark the world idle, before answering:
            // a client holding its answer then finds the world idle, and
            // its next read can be answered by the loop
            next = next_job(&entry);
            if let (Some(group), Some((store, step_seq))) = (&shared.group, defer) {
                // success is only claimed once the covering fsync lands
                shared.c.deferred_acks.inc();
                group
                    .pending
                    .lock()
                    .expect("group pending")
                    .push(DeferredAck {
                        conn: job.conn,
                        seq: job.seq,
                        step_seq,
                        store,
                        line: resp.to_json(),
                        t0: job.t0,
                    });
                group.cv.notify_one();
                continue;
            }
            shared
                .c
                .request_latency
                .record_ns(job.t0.elapsed().as_nanos() as u64);
            shared
                .completions
                .lock()
                .expect("completions")
                .push(Completion {
                    conn: job.conn,
                    seq: job.seq,
                    line: resp.to_json(),
                });
            shared.wake();
        }
    }
}

/// Pops a world's next job; when there is none, clears `scheduled` in
/// the same critical section, handing the world back to the loop.
fn next_job(entry: &WorldEntry) -> Option<Job> {
    let mut jobs = entry.jobs.lock().expect("job queue");
    let job = jobs.queue.pop_front();
    if job.is_none() {
        jobs.scheduled = false;
    }
    job
}

fn not_open(shared: &Shared, name: &str) -> Response {
    shared.c.errors.inc();
    Response::Err(format!("world `{name}` is not open"))
}

/// A worker's result: the response, plus — under group commit — the
/// store/WAL-seq pair whose fsync must land before `resp` may be sent.
struct Processed {
    resp: Response,
    defer: Option<(Arc<Mutex<Store>>, u64)>,
}

impl From<Response> for Processed {
    fn from(resp: Response) -> Processed {
        Processed { resp, defer: None }
    }
}

/// Executes one world-bound request on a worker thread.
fn process(shared: &Shared, entry: &WorldEntry, req: Request) -> Processed {
    match req {
        Request::Open { .. } => {
            let mut slot = entry.world.write().expect("world lock");
            if slot.is_none() {
                match build_world(shared, &entry.name) {
                    Ok(state) => {
                        *slot = Some(state);
                        shared.c.worlds.inc();
                    }
                    Err(e) => {
                        shared.c.errors.inc();
                        return Response::Err(e).into();
                    }
                }
            }
            Response::Ok(format!("opened {}", entry.name)).into()
        }
        Request::SubmitEvent { line, .. } => submit(shared, entry, &line),
        Request::QueryAttr { .. } | Request::QueryView { .. } => {
            let query = read_query(&req).expect("a read request");
            let slot = entry.world.read().expect("world lock");
            answer_query(shared, entry, &slot, query).into()
        }
        Request::Stats { .. } => {
            let slot = entry.world.read().expect("world lock");
            match slot.as_ref() {
                Some(state) => {
                    let cache = state.base.monitor_cache_stats();
                    let mut text = format!(
                        "world {}: steps={} attempts={} monitor_cache={} monitor_hits={} monitor_fallbacks={}",
                        entry.name,
                        state.base.steps_executed(),
                        state.base.step_attempts(),
                        if state.base.monitor_cache_enabled() {
                            "on"
                        } else {
                            "off"
                        },
                        cache.hits,
                        cache.fallbacks
                    );
                    if let Some(store) = &state.store {
                        let f = store.lock().expect("store lock").figures();
                        text.push_str(&format!(
                            " appends={} fsyncs={} wal_bytes={} since_snapshot={} compactions={}",
                            f.appends, f.fsyncs, f.wal_bytes, f.bytes_since_snapshot, f.compactions
                        ));
                    }
                    Response::Ok(text).into()
                }
                None => not_open(shared, &entry.name).into(),
            }
        }
        Request::ReplPoll { from, .. } => repl_poll(shared, entry, from).into(),
        // the loop answers these inline; they never reach a worker
        Request::Shutdown | Request::ReplSpec | Request::ReplWorlds | Request::Metrics => {
            Response::Err("handled by the loop".to_string()).into()
        }
    }
}

/// Serves one `repl-poll`: durable records from `from` as hex frames,
/// or the newest snapshot when the log below `from` was pruned away.
fn repl_poll(shared: &Shared, entry: &WorldEntry, from: u64) -> Response {
    shared.c.repl_polls.inc();
    let slot = entry.world.read().expect("world lock");
    let Some(state) = slot.as_ref() else {
        return not_open(shared, &entry.name);
    };
    let Some(store) = &state.store else {
        shared.c.errors.inc();
        return Response::Err(format!(
            "world `{}` is not durable; nothing to replicate",
            entry.name
        ));
    };
    let store = store.lock().expect("store lock");
    let oldest = match store.oldest_shippable_seq() {
        Ok(oldest) => oldest.unwrap_or(0),
        Err(e) => {
            shared.c.errors.inc();
            return Response::Err(format!("repl-poll: {e}"));
        }
    };
    if from < oldest {
        // the records the follower wants were pruned under a snapshot;
        // ship the snapshot so it can jump ahead
        return match store.newest_snapshot_bytes() {
            Ok(Some((next_seq, bytes))) if next_seq > from => {
                Response::Ok(format!("snapshot {next_seq} {}", hex_encode(&bytes)))
            }
            Ok(_) => {
                shared.c.errors.inc();
                Response::Err(format!(
                    "history below {oldest} was pruned and no snapshot covers it"
                ))
            }
            Err(e) => {
                shared.c.errors.inc();
                Response::Err(format!("repl-poll: {e}"))
            }
        };
    }
    match store.read_shippable(from, REPL_MAX_BATCH) {
        Ok(batch) => Response::Ok(format!(
            "records {} {}",
            batch.next_seq,
            hex_encode(&batch.bytes)
        )),
        Err(e) => {
            shared.c.errors.inc();
            Response::Err(format!("repl-poll: {e}"))
        }
    }
}

/// Answers a `query-attr`/`query-view` from a read-locked world slot
/// through [`script::query`], the read path `animate`'s `show`/`view`
/// share. The loop calls it for a read of an idle world
/// ([`read_inline`]); a read of a busy world waits its turn in the
/// world's FIFO queue and a worker calls it. Either way the read
/// observes every earlier submission to the world.
fn answer_query(
    shared: &Shared,
    entry: &WorldEntry,
    slot: &Option<WorldState>,
    query: Query<'_>,
) -> Response {
    let Some(state) = slot.as_ref() else {
        return not_open(shared, &entry.name);
    };
    match script::query(&state.base, query) {
        Ok(outcome) => Response::Ok(outcome.to_string()),
        Err(e) => {
            shared.c.errors.inc();
            Response::Err(e)
        }
    }
}

/// Runs one `submit-event` line through [`script::run_command`] under
/// the world's write lock — the step path `troll animate` takes. Any
/// command may commit steps (`birth`, `exec`, `call`, `tick`), so under
/// group commit a success ack defers whenever the WAL cursor moved: it
/// waits for the fsync covering the last record the command appended.
/// A durable world whose store latched a write error answers the
/// committing request, and every later one, with that error.
fn submit(shared: &Shared, entry: &WorldEntry, raw: &str) -> Processed {
    shared.c.events.inc();
    let mut slot = entry.world.write().expect("world lock");
    let Some(state) = slot.as_mut() else {
        return not_open(shared, &entry.name).into();
    };
    if let Some(e) = write_refusal(&entry.name, state) {
        shared.c.errors.inc();
        return Response::Err(e).into();
    }
    let wal_before = match (&shared.group, &state.store) {
        (Some(_), Some(store)) => Some(store.lock().expect("store lock").next_seq()),
        _ => None,
    };
    let steps_before = state.base.steps_executed();
    let t0 = Instant::now();
    let result = script::run_command(&mut state.base, script::strip_comment(raw));
    let committed = state.base.steps_executed() - steps_before;
    if committed > 0 {
        shared
            .c
            .commit_latency
            .record_ns(t0.elapsed().as_nanos() as u64);
        shared.c.commits.add(committed as u64);
        if let Some(e) = write_refusal(&entry.name, state) {
            shared.c.errors.inc();
            return Response::Err(e).into();
        }
    }
    match result {
        Ok(outcome) => {
            let defer = match (wal_before, &state.store) {
                (Some(before), Some(store)) => {
                    let after = store.lock().expect("store lock").next_seq();
                    (after > before).then(|| (Arc::clone(store), after - 1))
                }
                _ => None,
            };
            Processed {
                resp: Response::Ok(outcome.to_string()),
                defer,
            }
        }
        Err(e) => {
            shared.c.errors.inc();
            Response::Err(e).into()
        }
    }
}

/// The error a durable world answers once its store latched a write
/// error: the log stopped recording, so no later step can be made
/// durable and none may be acknowledged.
fn write_refusal(name: &str, state: &WorldState) -> Option<String> {
    let store = state.store.as_ref()?.lock().expect("store lock");
    let e = store.write_error()?;
    Some(format!("world `{name}` log write failed: {e}"))
}

/// The group committer: drains whatever acks accumulated, fsyncs each
/// distinct store at most once per drain (and only when some ack in
/// the batch is not yet durable — a window-boundary self-sync inside
/// `append` may already have covered it), then releases the responses.
/// A failed fsync turns the covered acks into error responses: the
/// steps are committed in memory but their durability cannot be
/// claimed.
fn committer_loop(shared: &Arc<Shared>) {
    let group = shared.group.as_ref().expect("group state");
    loop {
        let batch: Vec<DeferredAck> = {
            let mut pending = group.pending.lock().expect("group pending");
            loop {
                if !pending.is_empty() {
                    break std::mem::take(&mut *pending);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                pending = group.cv.wait(pending).expect("group pending");
            }
        };
        // distinct stores in the batch, with the highest seq each must
        // cover (a server hosts many worlds; one batch may span several)
        let mut stores: Vec<(Arc<Mutex<Store>>, u64)> = Vec::new();
        for ack in &batch {
            match stores.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &ack.store)) {
                Some((_, max_seq)) => *max_seq = (*max_seq).max(ack.step_seq),
                None => stores.push((Arc::clone(&ack.store), ack.step_seq)),
            }
        }
        let mut failures: Vec<(Arc<Mutex<Store>>, String)> = Vec::new();
        for (store, max_seq) in &stores {
            let mut guard = store.lock().expect("store lock");
            if *max_seq < guard.durable_seq() {
                continue; // the window already paid for this batch
            }
            match guard.sync_for_ack() {
                Ok(synced) => {
                    if synced {
                        shared.c.group_fsyncs.inc();
                    }
                }
                Err(e) => failures.push((Arc::clone(store), e.to_string())),
            }
        }
        {
            let mut completions = shared.completions.lock().expect("completions");
            for ack in batch {
                let line = match failures.iter().find(|(s, _)| Arc::ptr_eq(s, &ack.store)) {
                    Some((_, e)) => {
                        shared.c.errors.inc();
                        Response::Err(format!("group commit fsync failed: {e}")).to_json()
                    }
                    None => ack.line,
                };
                shared
                    .c
                    .request_latency
                    .record_ns(ack.t0.elapsed().as_nanos() as u64);
                completions.push(Completion {
                    conn: ack.conn,
                    seq: ack.seq,
                    line,
                });
            }
        }
        shared.wake();
    }
}

/// Per-world jitter for the compaction threshold: an FNV-1a hash of
/// the world name maps to a factor in [0.75, 1.25], so a fleet of
/// same-shaped worlds crosses its thresholds staggered instead of
/// snapshot-storming together.
fn jittered_threshold(threshold: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let per_mille = 750 + h % 501; // 750..=1250
    (threshold.saturating_mul(per_mille) / 1000).max(1)
}

/// The compaction daemon: every tick, scan the registry and compact
/// (snapshot + prune under the second-newest pin) any durable world
/// whose WAL bytes since its last snapshot crossed its jittered
/// threshold.
fn compactor_loop(shared: &Arc<Shared>) {
    let threshold = shared.compact_after.expect("compact threshold");
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(COMPACT_TICK);
        for entry in shared.entries() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // cheap pressure peek under the read lock first
            let over = {
                let slot = entry.world.read().expect("world lock");
                match slot.as_ref().and_then(|s| s.store.as_ref()) {
                    Some(store) => {
                        let figures = store.lock().expect("store lock").figures();
                        figures.bytes_since_snapshot >= jittered_threshold(threshold, &entry.name)
                    }
                    None => false,
                }
            };
            if !over {
                continue;
            }
            // the snapshot needs a quiescent base: same write lock the
            // commit path takes, so commits and compaction serialize
            let slot = entry.world.write().expect("world lock");
            if let Some(state) = slot.as_ref() {
                if let Some(store) = &state.store {
                    match store.lock().expect("store lock").compact(&state.base) {
                        Ok(_) => shared.c.compactions.inc(),
                        Err(e) => {
                            eprintln!("troll-serve: compacting world `{}`: {e}", entry.name);
                        }
                    }
                }
            }
        }
    }
}

/// Space-separated sorted ids of the worlds built so far (the reply to
/// `repl-worlds`). A world whose lock is held mid-commit is certainly
/// built, so a failed `try_read` counts it in.
fn built_worlds(shared: &Shared) -> String {
    let mut names: Vec<String> = shared
        .entries()
        .iter()
        .filter(|entry| match entry.world.try_read() {
            Ok(slot) => slot.is_some(),
            Err(_) => true,
        })
        .map(|entry| entry.name.clone())
        .collect();
    names.sort();
    names.join(" ")
}

/// Spawns (in-memory) or opens/recovers (durable) one world. A
/// recovered world rebuilds its monitors lazily, on each rule's first
/// check.
fn build_world(shared: &Shared, name: &str) -> Result<WorldState, String> {
    Ok(match &shared.durable {
        None => shared
            .model
            .spawn()
            .map(|base| WorldState { base, store: None })
            .map_err(|e| e.to_string())?,
        Some(root) => {
            let dir = root.join("worlds").join(name);
            let (mut base, store, _info) =
                open_world(&dir, &shared.spec_source, &shared.store_opts)
                    .map_err(|e| e.to_string())?;
            let (sink, store) = DurableSink::new(store);
            base.set_step_sink(Box::new(sink));
            WorldState {
                base,
                store: Some(store),
            }
        }
    })
}

fn global_stats(shared: &Shared) -> String {
    let c = &shared.c;
    let lat = c.request_latency.summary();
    let mut text = format!(
        "worlds={} requests={} events={} commits={} conflicts={} errors={} request_p50_ns={} request_p99_ns={} inline_reads={}",
        c.worlds.get(),
        c.requests.get(),
        c.events.get(),
        c.commits.get(),
        c.conflicts.get(),
        c.errors.get(),
        lat.p50_ns,
        lat.p99_ns,
        c.inline_reads.get(),
    );
    if let Role::Follower(r) = &shared.role {
        text.push_str(&format!(
            " records_applied={} snapshots_installed={} polls={}",
            r.records_applied.get(),
            r.snapshots_installed.get(),
            r.polls.get(),
        ));
    }
    text
}

/// A follower's server: the world registry a log-shipping follower
/// replays into, answered by [`Server`]'s readiness loop in the
/// read-only role. Its worlds are durable served worlds ([`open_world`]
/// plus a [`DurableSink`]), so a replayed step is recorded exactly as a
/// served write is, and a follower's directory is a `--durable` root.
pub struct Replica {
    shared: Arc<Shared>,
    counters: ReplCounters,
}

impl Replica {
    /// Compiles `spec_source` and sets up a read-only registry whose
    /// worlds live under `root/worlds/<id>` with `store` tuning. With
    /// `listen`, also binds that address and returns the readiness loop
    /// over the same registry (drive it with [`Server::run`]); without,
    /// no loop runs.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the spec does not compile, else socket errors.
    pub fn new(
        spec_source: &str,
        root: &std::path::Path,
        store: StoreOptions,
        listen: Option<&str>,
    ) -> io::Result<(Replica, Option<Server>)> {
        let opts = ServeOptions {
            durable: Some(root.to_path_buf()),
            store,
            ..ServeOptions::default()
        };
        let workers = opts.workers;
        let metrics = Metrics::new();
        let counters = ReplCounters {
            polls: metrics.counter("repl.polls"),
            records_applied: metrics.counter("repl.records_applied"),
            snapshots_installed: metrics.counter("repl.snapshots_installed"),
            worlds: metrics.counter("repl.worlds"),
        };
        let role = Role::Follower(counters.clone());
        let (shared, waker_rx) = Shared::new(spec_source, opts, metrics, role)?;
        let server = match listen {
            Some(addr) => Some(Server::listen(
                addr,
                Arc::clone(&shared),
                waker_rx,
                workers,
            )?),
            None => None,
        };
        Ok((Replica { shared, counters }, server))
    }

    /// The follower's replication counters.
    pub fn counters(&self) -> &ReplCounters {
        &self.counters
    }

    /// True once a `shutdown` request reached the loop or
    /// [`Replica::stop`] ran.
    pub fn stopped(&self) -> bool {
        self.shared.stopping()
    }

    /// Stops the loop from the tail side: it drains and exits.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake();
    }

    /// Final snapshot + sync of every world, once the tail loop has
    /// stopped (and the readiness loop, if any, has exited).
    ///
    /// # Errors
    ///
    /// The first world whose store failed to close.
    pub fn close(&self) -> Result<(), String> {
        close_stores(&self.shared)
            .into_iter()
            .next()
            .map_or(Ok(()), Err)
    }

    /// Where world `name`'s log continues: its store's next sequence
    /// number. The first call for a world builds (or recovers) it.
    ///
    /// # Errors
    ///
    /// The store failed to open or recover.
    pub fn next_seq(&self, name: &str) -> Result<u64, String> {
        let entry = self.entry(name)?;
        let slot = entry.world.read().expect("world lock");
        let state = slot.as_ref().expect("replica worlds are built");
        let store = state.store.as_ref().expect("replica worlds are durable");
        let next = store.lock().expect("store lock").next_seq();
        Ok(next)
    }

    /// Replays shipped steps, in log order, through world `name`'s
    /// engine under its write lock; its sink records each one, so the
    /// local log re-derives the shipped bytes. Returns how many were
    /// applied.
    ///
    /// # Errors
    ///
    /// A step that no longer replays, or a latched local write error.
    pub fn apply(&self, name: &str, steps: Vec<Vec<Occurrence>>) -> Result<u64, String> {
        let entry = self.entry(name)?;
        let mut slot = entry.world.write().expect("world lock");
        let state = slot.as_mut().expect("replica worlds are built");
        let mut applied = 0;
        for initial in steps {
            state
                .base
                .replay_step(initial)
                .map_err(|e| format!("shipped step does not replay: {e}"))?;
            if let Some(e) = write_refusal(name, state) {
                return Err(e);
            }
            self.counters.records_applied.inc();
            applied += 1;
        }
        Ok(applied)
    }

    /// Installs a shipped snapshot in world `name`'s directory and
    /// rebuilds the world on top of it (recovery jumps the WAL cursor
    /// forward; stale local segments below it are ignored). Returns
    /// false when the snapshot failed validation.
    ///
    /// # Errors
    ///
    /// Writing the snapshot or reopening the world failed.
    pub fn install_snapshot(&self, name: &str, bytes: &[u8]) -> Result<bool, String> {
        let entry = self.entry(name)?;
        let mut slot = entry.world.write().expect("world lock");
        let dir = self.shared.durable.as_ref().expect("durable root");
        let installed = install_snapshot_bytes(&dir.join("worlds").join(name), bytes)
            .map_err(|e| e.to_string())?;
        if installed.is_none() {
            return Ok(false);
        }
        *slot = Some(build_world(&self.shared, name)?);
        self.counters.snapshots_installed.inc();
        Ok(true)
    }

    /// World `name`'s registry entry, built on first sight.
    fn entry(&self, name: &str) -> Result<Arc<WorldEntry>, String> {
        let mut registry = self.shared.registry.lock().expect("registry");
        if let Some(entry) = registry.get(name) {
            return Ok(Arc::clone(entry));
        }
        let entry = Arc::new(WorldEntry::new(name.to_string()));
        *entry.world.write().expect("world lock") = Some(build_world(&self.shared, name)?);
        registry.insert(name.to_string(), Arc::clone(&entry));
        self.shared.c.worlds.inc();
        self.counters.worlds.inc();
        Ok(entry)
    }
}
