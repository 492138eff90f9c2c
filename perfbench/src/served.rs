//! The served workloads: `serve_churn`, `serve_read_mix` and
//! `durable_repl`.
//!
//! `durable_repl` is not listed in `BENCHMARK.json`: every write waits on
//! an fsync of a disk the host shares, and its `events_per_s` spread by
//! 35 % between runs, wider than any bound a later change could be held
//! to. It stays runnable by hand for the `store` and `repl` per-layer
//! figures, which no listed workload exercises.
//!
//! Each runs an in-process `troll serve` on a loopback port and talks to
//! it over TCP with the newline-JSON protocol, like any client would.
//! Every request and its answer is logged per world; after the run the
//! oracle replays the logs (see [`crate::oracle`]).

use crate::gen::{self, ChurnGen, Op, Rng};
use crate::oracle::{self, Entry, Verdict, WorldLog};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{mean, median, percentile, ratio, RssProbe, Sliced};
use crate::{compile_ms, shared_model, Args, SPEC};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};
use troll_obs::Metrics;
use troll_serve::{Request, Response, ServeOptions, ServeSummary, Server};
use troll_store::{DurableSink, FsyncPolicy};

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Churn,
    ReadMix,
    Durable,
}

/// Requests in flight per connection in the closed loops.
const WINDOW: usize = 16;
/// Open-loop rate of `serve_read_mix`, requests per second: a fifth to a
/// third of the 12 000 to 20 000 requests per second `serve_churn`
/// sustains on a shared 2-vCPU host. The host's speed swings by up to
/// 2x between seconds, and at 9 000 per second the median read latency
/// of ten runs spread by 30 % (quartile distance over median).
pub const READ_MIX_RATE: u32 = 4_000;
/// Warm-up of `serve_read_mix`: this long at the open-loop rate.
const READ_MIX_WARMUP: Duration = Duration::from_secs(1);
/// Set-ups before the timed phase, the last of which stays up for it.
const SETUPS_BEFORE: usize = 4;
/// Set-ups spread evenly through the oracle's replay after the timed
/// phase. `setup_s` is the median of all of them: spreading them over
/// the run keeps a slow spell of the disk or the host from setting the
/// whole run's figure.
const SETUPS_LATER: usize = 20;
/// `durable_repl` recovers every this many worlds from the primary's and
/// the follower's directories to compare them with the oracle; a
/// recovery costs about as much as replaying the world's history.
const DUMP_EVERY: usize = 4;
/// Group-commit window of `durable_repl`.
const GROUP_WINDOW: u64 = 32;
/// How long a client waits for one answer before giving up.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

struct Shape {
    worlds: usize,
    conns: usize,
    /// Share of requests after set-up that are reads, in percent.
    read_pct: u64,
    /// Writes per world made during set-up, before any timing.
    prepopulate: usize,
    /// Closed loops: churn writes sent to warm up, before timing.
    warmup: usize,
    /// Timed requests answered when `rss_mb` is read.
    rss_at: u64,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        Kind::Churn => Shape {
            worlds: 256,
            conns: 2,
            read_pct: 10,
            prepopulate: 0,
            warmup: 20_000,
            rss_at: 100_000,
        },
        Kind::ReadMix => Shape {
            worlds: 64,
            conns: 1,
            read_pct: 90,
            prepopulate: 32,
            warmup: 0,
            rss_at: 40_000,
        },
        Kind::Durable => Shape {
            worlds: 64,
            conns: 2,
            read_pct: 10,
            prepopulate: 0,
            warmup: 8_000,
            rss_at: 30_000,
        },
    }
}

fn serve_options(kind: Kind, dir: &Path) -> ServeOptions {
    let mut opts = ServeOptions::default();
    if kind == Kind::Durable {
        opts.durable = Some(dir.to_path_buf());
        opts.store.fsync = FsyncPolicy::Group(GROUP_WINDOW);
    }
    opts
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    metrics: Metrics,
    join: thread::JoinHandle<io::Result<ServeSummary>>,
}

/// Starts a server on a thread pinned to `cpu`.
fn start(opts: ServeOptions, cpu: usize) -> Result<Running, String> {
    let server =
        Server::bind("127.0.0.1:0", SPEC, opts).map_err(|e| format!("binding the server: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let metrics = server.metrics().clone();
    let join = thread::Builder::new()
        .name("perfbench-serve".to_string())
        .spawn(move || {
            crate::sched::pin(cpu)?;
            server.run()
        })
        .map_err(|e| e.to_string())?;
    Ok(Running {
        addr,
        metrics,
        join,
    })
}

impl Running {
    /// Asks the server to shut down and waits for its thread.
    fn stop(self) -> Result<ServeSummary, String> {
        let mut conn = Conn::connect(self.addr)?;
        conn.send(&Request::Shutdown.to_json())?;
        conn.flush()?;
        let mut line = String::new();
        conn.recv(&mut line)?;
        drop(conn);
        self.join
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(ANSWER_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    fn send(&mut self, json: &str) -> Result<(), String> {
        send_line(&mut self.writer, json)
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self, line: &mut String) -> Result<(), String> {
        recv_line(&mut self.reader, line)
    }
}

fn send_line(writer: &mut BufWriter<TcpStream>, json: &str) -> Result<(), String> {
    writer
        .write_all(json.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))
}

fn recv_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> Result<(), String> {
    line.clear();
    match reader.read_line(line) {
        Ok(0) => Err("the server closed the connection".to_string()),
        Ok(_) => Ok(()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// The protocol request for `op` on `world`.
fn request(world: &str, op: &Op) -> Request {
    match op {
        Op::Open => Request::Open {
            world: world.to_string(),
        },
        Op::Read(attr) => Request::QueryAttr {
            world: world.to_string(),
            id: gen::dept_id(world),
            attr: attr.name().to_string(),
        },
        _ => Request::SubmitEvent {
            world: world.to_string(),
            line: gen::script_line(world, op),
        },
    }
}

/// Client-side measurements of one phase.
#[derive(Debug)]
struct Sample {
    /// Send → answer of each write and each read, in nanoseconds, by
    /// when the answer arrived.
    writes: Sliced,
    reads: Sliced,
    /// When the phase stopped sending: slices before it are full.
    end: Instant,
    /// Open loop only: how late each request was sent.
    lag: Vec<u64>,
    /// Traced only: codec times and the first request lines.
    encode: Vec<u64>,
    decode: Vec<u64>,
    lines: Vec<String>,
}

impl Sample {
    fn new(start: Instant, end: Instant) -> Sample {
        Sample {
            writes: Sliced::new(start),
            reads: Sliced::new(start),
            end,
            lag: Vec::new(),
            encode: Vec::new(),
            decode: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Adds the measurements of another client over the same phase.
    fn merge(&mut self, other: Sample) {
        self.writes.merge(other.writes);
        self.reads.merge(other.reads);
        self.end = self.end.max(other.end);
        self.lag.extend(other.lag);
        self.encode.extend(other.encode);
        self.decode.extend(other.decode);
        let room = 4096usize.saturating_sub(self.lines.len());
        self.lines.extend(other.lines.into_iter().take(room));
    }

    fn events_per_s(&self) -> f64 {
        self.writes.rate(self.end)
    }

    fn write_us(&self, p: f64) -> f64 {
        self.writes.percentile(self.end, p) / 1000.0
    }

    fn read_us(&self, p: f64) -> f64 {
        self.reads.percentile(self.end, p) / 1000.0
    }
}

/// One connection and the worlds it drives.
struct Client {
    conn: Conn,
    gens: Vec<ChurnGen>,
    logs: Vec<WorldLog>,
    /// Share of generated requests that are reads, in percent.
    read_pct: u64,
    rr: usize,
}

struct Flight {
    local: usize,
    entry: usize,
    t0: Instant,
    span: u64,
}

/// What a closed loop sends.
#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    /// These ops, in order.
    List(&'a [(usize, Op)]),
    /// Generated requests, round-robin over the client's worlds, until
    /// then.
    Until(Instant),
    /// This many generated requests.
    Count(usize),
}

impl Client {
    /// Closed loop with `window` requests in flight: sends what `source`
    /// yields and waits for every answer, counting each on `rss`.
    /// Latencies are filed by slices of time from `start`.
    fn closed(
        &mut self,
        window: usize,
        source: Source<'_>,
        start: Instant,
        mut spans: Option<&mut Spans>,
        rss: Option<&RssProbe>,
    ) -> Result<Sample, String> {
        let end = match source {
            Source::Until(until) => until,
            Source::List(_) | Source::Count(_) => start,
        };
        let mut sample = Sample::new(start, end);
        let mut inflight: VecDeque<Flight> = VecDeque::with_capacity(window);
        let mut next = 0;
        let mut line = String::new();
        loop {
            let mut sent = false;
            while inflight.len() < window {
                let (local, op) = match source {
                    Source::List(list) => match list.get(next) {
                        Some((local, op)) => (*local, op.clone()),
                        None => break,
                    },
                    Source::Until(until) if Instant::now() >= until => break,
                    Source::Count(count) if next >= count => break,
                    _ => {
                        let local = self.rr;
                        self.rr = (self.rr + 1) % self.gens.len();
                        (local, self.gens[local].next_op(self.read_pct))
                    }
                };
                next += 1;
                let log = &mut self.logs[local];
                let req = request(&log.world, &op);
                let t_enc = Instant::now();
                let json = req.to_json();
                let span = match spans.as_deref_mut() {
                    Some(spans) => {
                        let t = Instant::now();
                        let id = spans.id();
                        spans.record("encode", id, t_enc, t);
                        sample.encode.push((t - t_enc).as_nanos() as u64);
                        if sample.lines.len() < 4096 {
                            sample.lines.push(json.clone());
                        }
                        id
                    }
                    None => 0,
                };
                log.entries.push(Entry { op, resp: None });
                let entry = log.entries.len() - 1;
                let t0 = Instant::now();
                self.conn.send(&json)?;
                inflight.push_back(Flight {
                    local,
                    entry,
                    t0,
                    span,
                });
                sent = true;
            }
            if sent {
                self.conn.flush()?;
            }
            let Some(flight) = inflight.pop_front() else {
                break;
            };
            self.conn.recv(&mut line)?;
            let t1 = Instant::now();
            let resp = Response::parse(line.trim_end()).ok();
            if let Some(spans) = spans.as_deref_mut() {
                let t2 = Instant::now();
                sample.decode.push((t2 - t1).as_nanos() as u64);
                spans.record("decode", flight.span, t1, t2);
                spans.record_as(flight.span, "request", 0, flight.t0, t1);
            }
            if let Some(rss) = rss {
                rss.tick();
            }
            let latency = (t1 - flight.t0).as_nanos() as u64;
            let entry = &mut self.logs[flight.local].entries[flight.entry];
            match entry.op {
                Op::Read(_) => sample.reads.push(t1, latency),
                _ if entry.op.is_write() => sample.writes.push(t1, latency),
                _ => {}
            }
            entry.resp = resp;
        }
        Ok(sample)
    }

    /// Open loop on this client's one connection: requests are due at
    /// `rate` per second from `marks[0]` to the last mark, whether or
    /// not earlier ones were answered. A sender thread writes them and
    /// a reader thread collects the answers; latency runs from when a
    /// request was due. Requests due before `marks[1]` are warm-up; the
    /// spans between later marks each yield one [`Sample`], and the one
    /// numbered `traced` records spans. Answers of the first timed span
    /// count on `rss`.
    fn open(
        &mut self,
        rng: &mut Rng,
        rate: u32,
        marks: &[Instant],
        traced: Option<usize>,
        mut spans: Option<&mut Spans>,
        rss: &RssProbe,
    ) -> Result<Vec<Sample>, String> {
        struct Sent {
            local: usize,
            op: Op,
            due: Instant,
            segment: usize,
            encode: Option<(Instant, Instant)>,
        }
        let segments = marks.len() - 1;
        let segment_of = |due: Instant| {
            marks[1..]
                .iter()
                .position(|&m| due < m)
                .unwrap_or(segments - 1)
        };
        let names: Vec<String> = self.logs.iter().map(|l| l.world.clone()).collect();
        let (tx, rx) = mpsc::channel::<Sent>();
        let Client {
            conn,
            gens,
            logs,
            read_pct,
            ..
        } = self;
        let read_pct = *read_pct;
        let Conn { reader, writer } = conn;
        let mut samples: Vec<Sample> = marks.windows(2).map(|m| Sample::new(m[0], m[1])).collect();
        let mut lags: Vec<Vec<u64>> = Vec::new();
        thread::scope(|scope| -> Result<(), String> {
            let sender = scope.spawn(move || -> Result<Vec<Vec<u64>>, String> {
                let mut lags = vec![Vec::new(); segments];
                let start = marks[0];
                let end = marks[segments];
                let mut k: u64 = 0;
                loop {
                    let due = start + Duration::from_nanos(k * 1_000_000_000 / u64::from(rate));
                    if due >= end {
                        break;
                    }
                    if due > Instant::now() {
                        writer.flush().map_err(|e| format!("send: {e}"))?;
                        // yield rather than sleep: a sleeping thread wakes
                        // as late as the host delivers its timer, and that
                        // lateness would count as server latency
                        while Instant::now() < due {
                            thread::yield_now();
                        }
                    }
                    let local = rng.below(names.len() as u64) as usize;
                    let op = gens[local].next_op(read_pct);
                    let segment = segment_of(due);
                    let t_enc = Instant::now();
                    let json = request(&names[local], &op).to_json();
                    let encode = (traced == Some(segment)).then(|| (t_enc, Instant::now()));
                    lags[segment].push(t_enc.saturating_duration_since(due).as_nanos() as u64);
                    tx.send(Sent {
                        local,
                        op,
                        due,
                        segment,
                        encode,
                    })
                    .map_err(|_| "the reader stopped".to_string())?;
                    send_line(writer, &json)?;
                    k += 1;
                }
                writer.flush().map_err(|e| format!("send: {e}"))?;
                Ok(lags)
            });
            let mut line = String::new();
            for sent in rx {
                recv_line(reader, &mut line)?;
                let t1 = Instant::now();
                let resp = Response::parse(line.trim_end()).ok();
                if sent.segment == 1 {
                    rss.tick();
                }
                let sample = &mut samples[sent.segment];
                if let (Some((e0, e1)), Some(spans)) = (sent.encode, spans.as_deref_mut()) {
                    let t2 = Instant::now();
                    let id = spans.id();
                    spans.record("encode", id, e0, e1);
                    spans.record("decode", id, t1, t2);
                    spans.record_as(id, "request", 0, sent.due, t1);
                    sample.encode.push((e1 - e0).as_nanos() as u64);
                    sample.decode.push((t2 - t1).as_nanos() as u64);
                    if sample.lines.len() < 4096 {
                        sample
                            .lines
                            .push(request(&logs[sent.local].world, &sent.op).to_json());
                    }
                }
                let latency = t1.saturating_duration_since(sent.due).as_nanos() as u64;
                if sent.op.is_write() {
                    sample.writes.push(t1, latency);
                } else {
                    sample.reads.push(t1, latency);
                }
                logs[sent.local].entries.push(Entry { op: sent.op, resp });
            }
            lags = sender
                .join()
                .map_err(|_| "the sender thread panicked".to_string())??;
            Ok(())
        })?;
        for (sample, lag) in samples.iter_mut().zip(lags) {
            sample.lag = lag;
        }
        Ok(samples)
    }
}

/// Starts a server and opens, births and pre-populates every world.
fn set_up(
    kind: Kind,
    shape: &Shape,
    seed: u64,
    dir: &Path,
    server_cpu: usize,
) -> Result<(Running, Vec<Client>), String> {
    let running = start(serve_options(kind, dir), server_cpu)?;
    let mut clients = Vec::new();
    for c in 0..shape.conns {
        let worlds: Vec<usize> = (c..shape.worlds).step_by(shape.conns).collect();
        clients.push(Client {
            conn: Conn::connect(running.addr)?,
            gens: worlds.iter().map(|&w| ChurnGen::new(seed, w)).collect(),
            logs: worlds
                .iter()
                .map(|&w| WorldLog::new(gen::world_id(w)))
                .collect(),
            read_pct: shape.read_pct,
            rr: 0,
        });
    }
    let prepopulate = shape.prepopulate;
    parallel(&mut clients, |_, client| {
        let n = client.gens.len();
        let mut list = Vec::new();
        for local in 0..n {
            list.push((local, Op::Open));
            list.push((local, client.gens[local].birth()));
        }
        for _ in 0..prepopulate {
            for local in 0..n {
                list.push((local, client.gens[local].next_write()));
            }
        }
        client
            .closed(WINDOW, Source::List(&list), Instant::now(), None, None)
            .map(|_| ())
    })?;
    Ok((running, clients))
}

/// Runs `f` on every client, each on its own thread, and collects the
/// results in client order.
fn parallel<T: Send>(
    clients: &mut [Client],
    f: impl Fn(usize, &mut Client) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let f = &f;
                scope.spawn(move || f(i, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    })
}

/// Closed-loop churn on every client.
fn churn(
    clients: &mut [Client],
    source: Source<'_>,
    traced: bool,
    epoch: Instant,
    rss: Option<&RssProbe>,
) -> Result<(Sample, Option<Spans>), String> {
    let start = Instant::now();
    let outs = parallel(clients, |i, client| {
        let mut spans = traced.then(|| Spans::new(epoch, 1 + i as u64));
        let sample = client.closed(WINDOW, source, start, spans.as_mut(), rss)?;
        Ok((sample, spans))
    })?;
    merge(outs)
}

fn merge(outs: Vec<(Sample, Option<Spans>)>) -> Result<(Sample, Option<Spans>), String> {
    let mut outs = outs.into_iter();
    let Some((mut sample, mut spans)) = outs.next() else {
        return Err("no clients".to_string());
    };
    for (s, sp) in outs {
        sample.merge(s);
        if let Some(sp) = sp {
            match spans.as_mut() {
                Some(all) => all.merge(sp),
                None => spans = Some(sp),
            }
        }
    }
    Ok((sample, spans))
}

/// Server counters and process-wide engine counters at one instant.
struct Snap {
    request_ns: (u64, u64),
    commit_ns: (u64, u64),
    deferred_acks: u64,
    group_fsyncs: u64,
    vm_exec: u64,
    vm_delta: u64,
}

impl Snap {
    fn take(server: &Metrics) -> Snap {
        let s = server.snapshot();
        let hist = |name: &str| {
            s.histograms
                .get(name)
                .map_or((0, 0), |h| (h.sum_ns, h.count))
        };
        let counter = |name: &str| s.counters.get(name).copied().unwrap_or(0);
        let global = troll_obs::global();
        Snap {
            request_ns: hist("serve.request_latency_ns"),
            commit_ns: hist("serve.commit_latency_ns"),
            deferred_acks: counter("serve.deferred_acks"),
            group_fsyncs: counter("serve.group_fsyncs"),
            vm_exec: global.counter("vm.exec").get(),
            vm_delta: global.counter("vm.delta_execs").get(),
        }
    }
}

/// Mean of the histogram growth between two `(sum_ns, count)` readings,
/// in microseconds.
fn mean_us(before: (u64, u64), after: (u64, u64)) -> f64 {
    ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64) / 1000.0
}

/// Store figures summed over every world, read with per-world `stats`.
#[derive(Debug, Default, Clone, Copy)]
struct StoreTotals {
    fsyncs: u64,
    wal_bytes: u64,
}

fn store_totals(addr: SocketAddr, worlds: usize) -> Result<StoreTotals, String> {
    let mut conn = Conn::connect(addr)?;
    let mut totals = StoreTotals::default();
    let mut line = String::new();
    for w in 0..worlds {
        conn.send(
            &Request::Stats {
                world: Some(gen::world_id(w)),
            }
            .to_json(),
        )?;
        conn.flush()?;
        conn.recv(&mut line)?;
        let text = match Response::parse(line.trim_end()) {
            Ok(Response::Ok(text)) => text,
            other => return Err(format!("stats of world {w}: {other:?}")),
        };
        let field = |key: &str| -> Result<u64, String> {
            text.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("stats without `{key}`: {text}"))
        };
        totals.fsyncs += field("fsyncs=")?;
        totals.wal_bytes += field("wal_bytes=")?;
    }
    Ok(totals)
}

/// Mean fsync time of the workload's own store settings: replays a few
/// worlds' logs into in-process durable worlds and reads the store's
/// `store.fsync_latency_ns` histogram.
fn fsync_mean_us(logs: &[&WorldLog], dir: &Path) -> Result<f64, String> {
    let opts = serve_options(Kind::Durable, dir).store;
    let (mut sum, mut count) = (0u64, 0u64);
    for log in logs {
        let (mut base, store, _) = troll_store::open_world(&dir.join(&log.world), SPEC, &opts)
            .map_err(|e| format!("opening a probe world: {e}"))?;
        let (sink, store) = DurableSink::new(store);
        base.set_step_sink(Box::new(sink));
        for entry in &log.entries {
            oracle::expected(&mut base, &log.world, &entry.op);
        }
        store
            .lock()
            .map_err(|_| "store lock poisoned".to_string())?
            .close(&base)
            .map_err(|e| e.to_string())?;
        if let Some(h) = base
            .metrics()
            .snapshot()
            .histograms
            .get("store.fsync_latency_ns")
        {
            sum += h.sum_ns;
            count += h.count;
        }
    }
    Ok(ratio(sum as f64, count as f64) / 1000.0)
}

/// Notes on standard error how far the run has got.
fn progress(epoch: Instant, done: &str) {
    eprintln!(
        "perfbench: {done} done after {:.1} s",
        epoch.elapsed().as_secs_f64()
    );
}

/// A scratch directory removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(
    kind: Kind,
    args: &Args,
    tmp: &Path,
    server_cpu: usize,
    report: &mut Report,
) -> Result<(), String> {
    let shape = shape(kind);
    let traced = args.trace;
    let epoch = Instant::now();
    report.note("worlds", shape.worlds);
    report.note("connections", shape.conns);
    match kind {
        Kind::ReadMix => {
            report.note("loop", "open");
            report.note("rate_per_s", READ_MIX_RATE);
        }
        _ => {
            report.note("loop", "closed");
            report.note("window_per_connection", WINDOW);
        }
    }
    if kind == Kind::Durable {
        report.note("fsync", format!("group:{GROUP_WINDOW}"));
    }

    // set-up, several times over; the last one stays up for the run
    let mut setup_s = Vec::new();
    let timed_set_up = |i: usize, setup_s: &mut Vec<f64>| {
        let dir = Scratch(tmp.join(format!("primary-{i}")));
        let t0 = Instant::now();
        let (running, clients) = set_up(kind, &shape, args.seed, &dir.0, server_cpu)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok::<_, String>((running, clients, dir))
    };
    let set_up_and_stop = |i: usize, setup_s: &mut Vec<f64>| {
        let (running, clients, _dir) = timed_set_up(i, setup_s)?;
        drop(clients);
        running.stop().map(|_| ())
    };
    for i in 1..SETUPS_BEFORE {
        set_up_and_stop(i, &mut setup_s)?;
    }
    let (running, mut clients, primary_dir) = timed_set_up(0, &mut setup_s)?;
    progress(epoch, "set-up");

    // warm-up, then the timed phase: one untraced span, and with
    // tracing a second, traced one of the same length
    let rss = RssProbe::new(shape.rss_at);
    let halves = if traced { 2 } else { 1 };
    let span = Duration::from_secs_f64(args.seconds as f64 / halves as f64);
    let mut timed: Vec<(Sample, Option<Spans>)> = Vec::new();
    // the open loop runs warm-up and timed spans in one go, so there the
    // server-side readings cover the warm-up too, and so do the client
    // figures they are compared with
    let mut warm: Option<Sample> = None;
    let (before, stores_before);
    if kind == Kind::ReadMix {
        let mut rng = Rng::derive(args.seed, 0);
        let t = Instant::now() + Duration::from_millis(5);
        let mut marks = vec![t, t + READ_MIX_WARMUP];
        for h in 0..halves {
            marks.push(marks[1 + h] + span);
        }
        before = Snap::take(&running.metrics);
        stores_before = None;
        let mut spans = traced.then(|| Spans::new(epoch, 1));
        let traced_segment = traced.then_some(2);
        let samples = clients[0].open(
            &mut rng,
            READ_MIX_RATE,
            &marks,
            traced_segment,
            spans.as_mut(),
            &rss,
        )?;
        for (i, sample) in samples.into_iter().enumerate() {
            match i {
                0 => warm = Some(sample),
                _ => timed.push((sample, if i == 2 { spans.take() } else { None })),
            }
        }
    } else {
        let per_client = shape.warmup / clients.len();
        churn(&mut clients, Source::Count(per_client), false, epoch, None)?;
        before = Snap::take(&running.metrics);
        stores_before = if kind == Kind::Durable && traced {
            Some(store_totals(running.addr, shape.worlds)?)
        } else {
            None
        };
        for h in 0..halves {
            let until = Source::Until(Instant::now() + span);
            let probe = (h == 0).then_some(&rss);
            timed.push(churn(&mut clients, until, h == 1, epoch, probe)?);
        }
    }
    let after = Snap::take(&running.metrics);
    progress(epoch, "timed phase");
    let stores_after = match stores_before {
        Some(_) => Some(store_totals(running.addr, shape.worlds)?),
        None => None,
    };

    // durable_repl: a fresh follower catches up from the live primary
    let follower = Scratch(tmp.join("follower"));
    let mut follow = None;
    if kind == Kind::Durable {
        let opts = troll_repl::FollowOptions {
            once: true,
            ..troll_repl::FollowOptions::default()
        };
        let t0 = Instant::now();
        let summary = troll_repl::run_follow(&running.addr.to_string(), &follower.0, &opts)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let mut spans = Spans::new(epoch, 32);
        spans.record("follow", 0, t0, t1);
        follow = Some((summary, (t1 - t0).as_secs_f64(), spans));
    }

    progress(epoch, "follower catch-up");
    let summary = running.stop()?;
    progress(epoch, "server shutdown");

    // the oracle: replay every world's log and compare every answer
    let model = shared_model()?;
    let mut verdict = Verdict::default();
    let mut replay_spans = traced.then(|| Spans::new(epoch, 64));
    let mut profiles = Vec::new();
    let logs: Vec<&WorldLog> = clients.iter().flat_map(|c| c.logs.iter()).collect();
    for (n, log) in logs.iter().enumerate() {
        if n * SETUPS_LATER / logs.len() != (n + 1) * SETUPS_LATER / logs.len() {
            set_up_and_stop(SETUPS_BEFORE + n, &mut setup_s)?;
        }
        let base = verdict.replay(&model, log, replay_spans.as_mut())?;
        if follow.is_some() && n % DUMP_EVERY == 0 {
            // the primary's and the follower's directories must both
            // recover to the world the oracle replayed
            let want = troll_store::world_dump(&base);
            for (side, root) in [("primary", &primary_dir.0), ("follower", &follower.0)] {
                let dir = root.join("worlds").join(&log.world);
                let (copy, _) = troll_store::recover(&dir)
                    .map_err(|e| format!("recovering {side} world {}: {e}", log.world))?;
                if troll_store::world_dump(&copy) != want {
                    report.problems.push(format!(
                        "{side} world {} differs from the oracle's replay",
                        log.world
                    ));
                }
            }
        }
        if traced && n < 8 {
            profiles.push(oracle::profile(&model, log)?);
        }
    }
    report.attempted = logs.iter().map(|l| l.entries.len() as u64).sum();
    report.failed = verdict.failed();
    for example in &verdict.examples {
        eprintln!("perfbench: wrong answer: {example}");
    }
    if let Some((summary, ..)) = &follow {
        if summary.primary_lost {
            report
                .problems
                .push("the follower lost the primary".to_string());
        }
        if summary.worlds != shape.worlds as u64 {
            report.problems.push(format!(
                "the follower saw {} of {} worlds",
                summary.worlds, shape.worlds
            ));
        }
    }

    progress(epoch, "oracle");
    report.set("setup_s", median(&setup_s));
    report.note("setup_s_all", format!("{setup_s:.4?}"));

    // end-to-end metrics, from the untraced spans
    let (plain, _) = timed.remove(0);
    report.set("events_per_s", plain.events_per_s());
    report.set("submit_p50_us", plain.write_us(50.0));
    report.set("read_p50_us", plain.read_us(50.0));
    report.set("client.submit_p99_us", plain.write_us(99.0));
    report.set("client.read_p99_us", plain.read_us(99.0));
    report.set(
        "client.gen_lag_p99_us",
        percentile(&mut plain.lag.clone(), 99.0) / 1000.0,
    );
    report.set("rss_mb", rss.mb()?);
    report.note("timed_writes", plain.writes.len());
    report.note("timed_reads", plain.reads.len());
    // everything the server-side readings between `before` and `after`
    // cover, for per-event ratios and the client-minus-server time
    let covered: Vec<&Sample> = warm
        .iter()
        .chain(std::iter::once(&plain))
        .chain(timed.iter().map(|(s, _)| s))
        .collect();
    let counted_writes = covered.iter().map(|s| s.writes.len()).sum::<usize>() as f64;
    let client_ns: Vec<u64> = covered
        .iter()
        .flat_map(|s| s.writes.all().into_iter().chain(s.reads.all()))
        .collect();

    // per-layer metrics
    report.set("lang.compile_ms", compile_ms()?);
    report.set(
        "serve.server_latency_mean_us",
        mean_us(before.request_ns, after.request_ns),
    );
    report.set(
        "serve.commit_latency_mean_us",
        mean_us(before.commit_ns, after.commit_ns),
    );
    report.set("serve.conflicts", summary.conflicts as f64);
    report.set(
        "serve.acks_per_group_fsync",
        ratio(
            (after.deferred_acks - before.deferred_acks) as f64,
            (after.group_fsyncs - before.group_fsyncs) as f64,
        ),
    );
    report.set(
        "vm.exec_per_event",
        ratio((after.vm_exec - before.vm_exec) as f64, counted_writes),
    );
    report.set(
        "vm.delta_per_event",
        ratio((after.vm_delta - before.vm_delta) as f64, counted_writes),
    );
    verdict.report_engine(report);
    report.set(
        "runtime.phase_share.permissions",
        oracle::phase_share(&profiles, "permissions"),
    );
    report.set(
        "runtime.phase_share.valuation",
        oracle::phase_share(&profiles, "valuation"),
    );
    report.set(
        "runtime.phase_share.monitor_advance",
        oracle::phase_share(&profiles, "monitor_advance"),
    );
    let (fsyncs, wal_bytes) = match (stores_before, stores_after) {
        (Some(b), Some(a)) => (a.fsyncs - b.fsyncs, a.wal_bytes - b.wal_bytes),
        _ => (0, 0),
    };
    report.set(
        "store.fsyncs_per_event",
        ratio(fsyncs as f64, counted_writes),
    );
    report.set(
        "store.wal_bytes_per_event",
        ratio(wal_bytes as f64, counted_writes),
    );
    let fsync_us = if kind == Kind::Durable && traced {
        let probe = Scratch(tmp.join("fsync-probe"));
        fsync_mean_us(&logs[..4], &probe.0)?
    } else {
        0.0
    };
    report.set("store.fsync_mean_us", fsync_us);
    let mut all_spans: Vec<Spans> = Vec::new();
    match follow {
        Some((summary, secs, spans)) => {
            report.set(
                "repl.apply_us_per_record",
                ratio(secs * 1e6, summary.records_applied as f64),
            );
            report.set(
                "repl.records_per_poll",
                ratio(summary.records_applied as f64, summary.polls as f64),
            );
            report.set(
                "repl.catchup_records_per_s",
                ratio(summary.records_applied as f64, secs),
            );
            report.note("follower_records", summary.records_applied);
            all_spans.push(spans);
        }
        None => {
            report.set("repl.apply_us_per_record", 0.0);
            report.set("repl.records_per_poll", 0.0);
            report.set("repl.catchup_records_per_s", 0.0);
        }
    }
    report.set(
        "client.failed_share",
        ratio(report.failed as f64, report.attempted as f64),
    );

    // tracing: codec cost, client-minus-server time, and what the
    // traced span cost relative to the untraced one
    report.set(
        "serve.wire_overhead_us",
        mean(&client_ns) / 1000.0 - report.get("serve.server_latency_mean_us").unwrap_or(0.0),
    );
    match timed.pop() {
        Some((t, spans)) if traced => {
            let parse_ns: Vec<u64> = t
                .lines
                .iter()
                .map(|line| {
                    let t0 = Instant::now();
                    let parsed = Request::parse(line);
                    let ns = t0.elapsed().as_nanos() as u64;
                    std::hint::black_box(parsed.is_ok());
                    ns
                })
                .collect();
            report.set(
                "serve.proto_ns",
                mean(&t.encode) + mean(&t.decode) + mean(&parse_ns),
            );
            report.set(
                "trace_overhead.events_per_s",
                t.events_per_s() - plain.events_per_s(),
            );
            report.set(
                "trace_overhead.submit_p50_us",
                t.write_us(50.0) - plain.write_us(50.0),
            );
            report.set(
                "trace_overhead.read_p50_us",
                t.read_us(50.0) - plain.read_us(50.0),
            );
            all_spans.extend(spans);
        }
        _ => {
            report.set("serve.proto_ns", 0.0);
            report.set("trace_overhead.events_per_s", 0.0);
            report.set("trace_overhead.submit_p50_us", 0.0);
            report.set("trace_overhead.read_p50_us", 0.0);
        }
    }
    if traced {
        all_spans.extend(replay_spans);
        crate::write_spans(args, all_spans)?;
    }
    Ok(())
}
