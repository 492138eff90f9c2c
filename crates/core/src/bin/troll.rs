//! The `troll` command-line tool: check, format, inspect and animate
//! TROLL specifications.
//!
//! ```text
//! troll check <file.troll>…       parse + analyze, report errors
//! troll fmt <file.troll>          print the normalized source
//! troll info <file.troll>         summarize classes/interfaces/modules
//! troll graph <file.troll>        emit a Graphviz DOT system diagram
//! troll animate [--stats] [--trace <out.jsonl>] [--durable <dir>]
//!               [--fsync <policy>] [--snapshot-every N]
//!               [--profile <out>] [--metrics <out>]
//!               [--stats-stream <out.jsonl>] [--stats-every N]
//!               <file> <script>      run an animation script
//! troll profile [animate flags] <file> <script>
//!                                 animate with the phase profiler on, then
//!                                 print the per-phase self-time table
//! troll recover [--stats] [--dump] <dir>
//!                                 rebuild the world from a durable directory
//! ```
//!
//! Exit codes: `0` success, `1` runtime failure (parse/analyze/execution
//! errors), `2` usage error (unknown command, bad arity, unknown flag).
//!
//! Animation scripts are line-oriented; `--` starts a comment. Terms use
//! TROLL expression syntax, identities the `|CLASS|(key…)` literal form:
//!
//! ```text
//! birth DEPT ("Toys") establishment (date(1991,10,16))
//! exec  |DEPT|("Toys") hire (|PERSON|("ada"))
//! show  |DEPT|("Toys") employees
//! view  SAL_EMPLOYEE
//! call  SAL_EMPLOYEE |PERSON|("ada") IncreaseSalary ()
//! obligations |TASK|("t1")
//! tick
//! ```

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use troll::runtime::{ObjectBase, TraceWriter};
use troll::store::{DurableSink, FsyncPolicy, StoreOptions};
use troll::System;
use troll_obs::{Fanout, Observer, StatsSnapshotSink};

const GENERAL_USAGE: &str = "usage: troll <command> [args]
commands:
  check <file.troll>…                          parse + analyze, report errors
  fmt <file.troll>                             print the normalized source
  info <file.troll>                            summarize classes/interfaces/modules
  graph <file.troll>                           emit a Graphviz DOT system diagram
  animate [--stats] [--trace <out>] [--durable <dir>]
          [--fsync <policy>] [--snapshot-every N] [--profile <out>]
          [--metrics <out>] [--stats-stream <out>] [--stats-every N]
          <file> <script>                      run an animation script
  profile [animate flags] <file> <script>      animate with phase profiling on,
                                               then print the self-time table
  recover [--stats] [--dump] <dir>             rebuild the world from a durable directory
  serve [--addr <ip:port>] [--workers N] [--durable <dir>] [--fsync <policy>]
        [--snapshot-every N] [--segment-bytes N] [--compact-after <bytes>]
        <file.troll>                           host many worlds of one spec over TCP
  follow [--listen <ip:port>] [--poll-ms N] [--once] [--fsync <policy>]
         <addr> <dir>                          replicate a serve primary into <dir>
  compact [--dry-run] <dir>                    snapshot + prune a durable directory";

/// Prints the usage message for `command` (or the general one) and
/// returns the usage exit code (2).
fn usage(command: Option<&str>) -> ExitCode {
    let msg = match command {
        Some("check") => "usage: troll check <file.troll>…\nparse + analyze each file and report errors; fails if any file fails",
        Some("fmt") => "usage: troll fmt <file.troll>\nprint the normalized (pretty-printed) source to stdout",
        Some("info") => "usage: troll info <file.troll>\nsummarize classes, interfaces and modules of a specification",
        Some("graph") => "usage: troll graph <file.troll>\nemit a Graphviz DOT diagram of the system structure",
        Some("animate") | Some("profile") => "usage: troll animate [--stats] [--trace <out.jsonl>] [--durable <dir>] [--fsync <policy>] [--snapshot-every N] [--profile <out>] [--metrics <out>] [--stats-stream <out.jsonl>] [--stats-every N] <file.troll> <script>\n       troll profile [same flags] <file.troll> <script>\nrun an animation script against the specification
  --stats           print runtime metrics (steps, permissions, monitor cache, latency) after the run
  --trace <file>    stream one JSON object per observability event to <file>
  --durable <dir>   log every committed step to <dir> (WAL + snapshots); an existing
                    directory is crash-recovered first and the run continues its history
  --fsync <policy>  every-commit | every-<N> | group[:<N>] | on-close (with --durable; default every-commit)
  --snapshot-every <N>  write a world snapshot every N steps (with --durable; default 256)
  --profile <file>  enable the phase profiler and write its self-time table to <file>
                    (`troll profile` enables it and prints the table to stdout)
  --metrics <file>  write all metrics in Prometheus text format to <file> after the run
  --stats-stream <file>  append a JSON metrics snapshot to <file> every N committed steps
  --stats-every <N>      snapshot cadence for --stats-stream (default 256)",
        Some("recover") => "usage: troll recover [--stats] [--dump] <dir>\nrebuild the object base from a durable directory (latest valid snapshot + WAL tail)
and print a summary line; torn or corrupt tail frames are skipped, not fatal
  --stats           print runtime metrics of the recovered world (includes store.* counters)
  --dump            print the recovered world state, one deterministic line per fact",
        Some("serve") => "usage: troll serve [--addr <ip:port>] [--workers N] [--durable <dir>] [--fsync <policy>] [--snapshot-every N] [--segment-bytes N] [--compact-after <bytes>] <file.troll>
host many independent worlds of one specification in a single process, speaking a
newline-delimited JSON protocol (open / submit-event / query-attr / query-view /
stats / shutdown — send {\"op\":\"shutdown\"} to stop the server cleanly; durable
servers additionally answer repl-spec / repl-worlds / repl-poll for `troll follow`)
  --addr <ip:port>  listen address (default 127.0.0.1:7877; port 0 picks a free port)
  --workers <N>     worker threads executing world steps (default: CPU count, min 2)
  --durable <dir>   give every world its own WAL+snapshot store under <dir>/worlds/<id>;
                    existing worlds crash-recover on open
  --fsync <policy>  every-commit | every-<N> | group[:<N>] | on-close (with --durable;
                    default every-commit); `group` batches commits into one fsync per
                    window and defers acks until their fsync completes (default window 32)
  --snapshot-every <N>  snapshot cadence per world (with --durable; default 1024)
  --segment-bytes <N>   WAL segment rotation cap per world (with --durable; default 4 MiB)
  --compact-after <bytes>  background-compact a world once it accrues this many WAL
                    bytes past its newest snapshot (with --durable; jittered per world)",
        Some("follow") => "usage: troll follow [--listen <ip:port>] [--poll-ms N] [--once] [--fsync <policy>] <addr> <dir>
tail a durable `troll serve` primary at <addr>: replay every world's committed log
into <dir> (a valid --durable root — promote by pointing `troll serve --durable` or
`troll recover` at it when the primary dies)
  --listen <ip:port>  while tailing, answer the serve protocol read-only on this address:
                      query-attr / query-view / stats / repl-spec / repl-worlds /
                      repl-poll (so another follower can tail this one); open and
                      submit-event are refused; shutdown stops the follower
  --poll-ms <N>       sleep between poll rounds once caught up (default 100)
  --once              catch up once and exit instead of tailing until the primary dies
  --fsync <policy>    the follower's own WAL fsync cadence (default every-64; the
                      follower acknowledges nothing, so this only bounds local replay)",
        Some("compact") => "usage: troll compact [--dry-run] <dir>
snapshot a durable world directory at its current WAL cursor, then prune every
log segment the second-newest snapshot no longer needs
  --dry-run           report what a compaction would do without writing anything",
        _ => GENERAL_USAGE,
    };
    eprintln!("{msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage(None);
    };
    let result = match command {
        "check" => {
            if args.len() < 2 {
                return usage(Some("check"));
            }
            cmd_check(&args[1..])
        }
        "fmt" | "info" | "graph" => {
            if args.len() != 2 {
                return usage(Some(command));
            }
            match command {
                "fmt" => cmd_fmt(&args[1]),
                "info" => cmd_info(&args[1]),
                _ => cmd_graph(&args[1]),
            }
        }
        "animate" => match AnimateOpts::parse(&args[1..]) {
            Some(opts) => cmd_animate(&opts),
            None => return usage(Some("animate")),
        },
        "profile" => match AnimateOpts::parse(&args[1..]) {
            Some(mut opts) => {
                opts.profile_stdout = true;
                cmd_animate(&opts)
            }
            None => return usage(Some("profile")),
        },
        "recover" => match RecoverOpts::parse(&args[1..]) {
            Some(opts) => cmd_recover(&opts),
            None => return usage(Some("recover")),
        },
        "serve" => match ServeCliOpts::parse(&args[1..]) {
            Some(opts) => cmd_serve(&opts),
            None => return usage(Some("serve")),
        },
        "follow" => match FollowCliOpts::parse(&args[1..]) {
            Some(opts) => cmd_follow(&opts),
            None => return usage(Some("follow")),
        },
        "compact" => match CompactOpts::parse(&args[1..]) {
            Some(opts) => cmd_compact(&opts),
            None => return usage(Some("compact")),
        },
        "help" | "--help" | "-h" => {
            println!("{GENERAL_USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return usage(None),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(files: &[String]) -> Result<(), String> {
    let mut failed = false;
    for file in files {
        match System::load_file(file) {
            Ok(system) => {
                println!(
                    "{file}: ok ({} classes, {} interfaces, {} modules)",
                    system.model().classes.len(),
                    system.model().interfaces.len(),
                    system.model().modules.len()
                );
            }
            Err(e) => {
                println!("{file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        Err("some files failed to check".into())
    } else {
        Ok(())
    }
}

fn cmd_fmt(file: &str) -> Result<(), String> {
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let spec = troll::lang::parse(&source).map_err(|e| format!("{file}: {e}"))?;
    print!("{}", troll::lang::pretty::print_spec(&spec));
    Ok(())
}

fn cmd_graph(file: &str) -> Result<(), String> {
    let system = System::load_file(file).map_err(|e| format!("{file}: {e}"))?;
    print!("{}", troll::lang::graph::to_dot(system.model()));
    Ok(())
}

fn cmd_info(file: &str) -> Result<(), String> {
    let system = System::load_file(file).map_err(|e| format!("{file}: {e}"))?;
    let model = system.model();
    for (name, class) in &model.classes {
        let kind = if class.singleton {
            "object"
        } else {
            "object class"
        };
        let view = match &class.view {
            Some((base, troll::lang::ViewKind::Phase)) => format!(" (phase of {base})"),
            Some((base, troll::lang::ViewKind::Specialization)) => {
                format!(" (specialization of {base})")
            }
            None => String::new(),
        };
        println!(
            "{kind} {name}{view}: {} attributes, {} events, {} valuation rules, {} permissions, {} constraints, {} interactions",
            class.template.signature().attributes().count(),
            class.template.signature().events().len(),
            class.valuation.len(),
            class.permissions.len(),
            class.constraints.len(),
            class.interactions.len(),
        );
    }
    for (name, iface) in &model.interfaces {
        let bases: Vec<&str> = iface.bases.iter().map(|(c, _)| c.as_str()).collect();
        let kind = if iface.is_join() { "join view" } else { "view" };
        println!(
            "interface {name} ({kind} of {}): {} attributes, {} events{}",
            bases.join(", "),
            iface.attributes.len(),
            iface.events.len(),
            if iface.selection.is_some() {
                ", with selection"
            } else {
                ""
            }
        );
    }
    for (name, module) in &model.modules {
        println!(
            "module {name}: conceptual {:?}, internal {:?}, exports {:?}",
            module.conceptual,
            module.internal,
            module
                .external
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>()
        );
    }
    if !model.global_interactions.is_empty() {
        println!(
            "{} global interaction rule(s)",
            model.global_interactions.len()
        );
    }
    Ok(())
}

/// Parsed `troll animate` (or `troll profile`) invocation.
struct AnimateOpts {
    file: String,
    script: String,
    stats: bool,
    trace: Option<String>,
    durable: Option<String>,
    fsync: FsyncPolicy,
    snapshot_every: u64,
    /// `--profile <file>`: enable the phase profiler, write the table here.
    profile: Option<String>,
    /// `troll profile` mode: enable the profiler, table goes to stdout.
    profile_stdout: bool,
    /// `--metrics <file>`: Prometheus text dump after the run.
    metrics: Option<String>,
    /// `--stats-stream <file>`: periodic JSON metrics snapshots.
    stats_stream: Option<String>,
    stats_every: u64,
}

impl AnimateOpts {
    /// Flags may appear anywhere among the two positionals; returns
    /// `None` on any usage error (unknown flag, missing flag value,
    /// wrong positional count, durability flag without `--durable`,
    /// `--stats-every` without `--stats-stream`).
    fn parse(args: &[String]) -> Option<Self> {
        let mut stats = false;
        let mut trace = None;
        let mut durable = None;
        let mut fsync = None;
        let mut snapshot_every = None;
        let mut profile = None;
        let mut metrics = None;
        let mut stats_stream = None;
        let mut stats_every = None;
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--stats" => stats = true,
                "--trace" => trace = Some(it.next()?.clone()),
                "--durable" => durable = Some(it.next()?.clone()),
                "--fsync" => fsync = Some(it.next()?.parse::<FsyncPolicy>().ok()?),
                "--snapshot-every" => snapshot_every = Some(it.next()?.parse::<u64>().ok()?),
                "--profile" => profile = Some(it.next()?.clone()),
                "--metrics" => metrics = Some(it.next()?.clone()),
                "--stats-stream" => stats_stream = Some(it.next()?.clone()),
                "--stats-every" => {
                    stats_every = Some(it.next()?.parse::<u64>().ok().filter(|&n| n >= 1)?)
                }
                s if s.starts_with('-') => return None,
                _ => positional.push(a.clone()),
            }
        }
        if durable.is_none() && (fsync.is_some() || snapshot_every.is_some()) {
            return None; // durability knobs without a durable directory
        }
        if stats_stream.is_none() && stats_every.is_some() {
            return None; // cadence without a stream to write to
        }
        let [file, script] = positional.as_slice() else {
            return None;
        };
        Some(AnimateOpts {
            file: file.clone(),
            script: script.clone(),
            stats,
            trace,
            durable,
            fsync: fsync.unwrap_or(FsyncPolicy::EveryCommit),
            snapshot_every: snapshot_every.unwrap_or(256),
            profile,
            profile_stdout: false,
            metrics,
            stats_stream,
            stats_every: stats_every.unwrap_or(256),
        })
    }

    /// Whether the phase profiler should be switched on for this run.
    fn profiling(&self) -> bool {
        self.profile_stdout || self.profile.is_some()
    }
}

fn cmd_animate(opts: &AnimateOpts) -> Result<(), String> {
    // The trace writer is created — and registered as the process-wide
    // warning observer — *before* the model is compiled, so build-time
    // fallback notes (`vm.fallback`) land in the trace as structured
    // events instead of on stderr.
    let writer = match &opts.trace {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let writer = Arc::new(TraceWriter::new(std::io::BufWriter::new(file)));
            troll_obs::set_warning_observer(writer.clone());
            Some((path.clone(), writer))
        }
        None => None,
    };
    let result = animate_world(opts, &writer);
    troll_obs::clear_warning_observer();
    result
}

/// The body of `cmd_animate`, split out so the warning observer is
/// always cleared on the way out regardless of which step failed.
fn animate_world(
    opts: &AnimateOpts,
    writer: &Option<(String, Arc<TraceWriter<std::io::BufWriter<std::fs::File>>>)>,
) -> Result<(), String> {
    let system = System::load_file(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
    // A durable run opens (and, on an existing directory, crash-recovers)
    // the world from the store; stdout stays identical to a non-durable
    // run — resume details go to stderr (and the trace, when attached).
    let mut durable = None;
    let mut ob = match &opts.durable {
        Some(dir) => {
            let source =
                std::fs::read_to_string(&opts.file).map_err(|e| format!("{}: {e}", opts.file))?;
            let store_opts = StoreOptions {
                fsync: opts.fsync,
                snapshot_every: opts.snapshot_every,
                ..StoreOptions::default()
            };
            let (mut ob, store, info) =
                troll::store::open_world(std::path::Path::new(dir), &source, &store_opts)
                    .map_err(|e| format!("{dir}: {e}"))?;
            if let Some((_, w)) = writer {
                w.on_event(&info.to_obs_event());
            }
            if info.snapshot_seq.is_some() || info.replayed > 0 {
                eprintln!(
                    "{dir}: resumed at step {} (snapshot {}, {} replayed, {} tail byte(s) dropped)",
                    info.next_seq,
                    info.snapshot_seq
                        .map_or_else(|| "none".into(), |s| s.to_string()),
                    info.replayed,
                    info.truncated_bytes
                );
            }
            let (sink, shared) = DurableSink::new(store);
            ob.set_step_sink(Box::new(sink));
            durable = Some((dir.clone(), shared));
            ob
        }
        None => system.object_base().map_err(|e| e.to_string())?,
    };
    let stats_sink = match &opts.stats_stream {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let sink = Arc::new(StatsSnapshotSink::new(
                ob.metrics().clone(),
                opts.stats_every,
                std::io::BufWriter::new(file),
            ));
            Some((path.clone(), sink))
        }
        None => None,
    };
    let mut observers: Vec<Arc<dyn Observer>> = Vec::new();
    if let Some((_, w)) = writer {
        observers.push(w.clone());
    }
    if let Some((_, s)) = &stats_sink {
        observers.push(s.clone());
    }
    match observers.len() {
        0 => {}
        1 => ob.set_observer(observers.remove(0)),
        _ => ob.set_observer(Arc::new(Fanout::new(observers))),
    }
    if opts.profiling() {
        ob.set_profiling(true);
    }
    let script_text =
        std::fs::read_to_string(&opts.script).map_err(|e| format!("{}: {e}", opts.script))?;
    let outcomes = troll::script::run_script(&mut ob, &script_text)
        .map_err(|e| format!("{}:{e}", opts.script))?;
    for outcome in outcomes {
        println!("{outcome}");
    }
    if let Some((path, writer)) = writer {
        writer.flush();
        if writer.write_errors() > 0 {
            return Err(format!(
                "{path}: {} trace event(s) failed to write",
                writer.write_errors()
            ));
        }
    }
    if let Some((path, sink)) = &stats_sink {
        sink.flush();
        if sink.write_errors() > 0 {
            return Err(format!(
                "{path}: {} stats snapshot(s) failed to write",
                sink.write_errors()
            ));
        }
    }
    if let Some((dir, shared)) = durable {
        ob.take_step_sink();
        let mut store = shared
            .lock()
            .map_err(|_| format!("{dir}: store lock poisoned"))?;
        store.close(&ob).map_err(|e| format!("{dir}: {e}"))?;
    }
    if opts.profiling() {
        let table = troll_obs::phase_table(&ob.metrics().snapshot());
        if let Some(path) = &opts.profile {
            std::fs::write(path, &table).map_err(|e| format!("{path}: {e}"))?;
        }
        if opts.profile_stdout {
            println!("-- profile --");
            print!("{table}");
        }
    }
    if let Some(path) = &opts.metrics {
        let mut text = ob.metrics().render_prometheus("troll");
        text.push_str(&troll_obs::global().render_prometheus("troll_global"));
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.stats {
        print_stats(&ob);
    }
    Ok(())
}

/// Parsed `troll recover` invocation.
struct RecoverOpts {
    dir: String,
    stats: bool,
    dump: bool,
}

impl RecoverOpts {
    fn parse(args: &[String]) -> Option<Self> {
        let mut stats = false;
        let mut dump = false;
        let mut positional = Vec::new();
        for a in args {
            match a.as_str() {
                "--stats" => stats = true,
                "--dump" => dump = true,
                s if s.starts_with('-') => return None,
                _ => positional.push(a.clone()),
            }
        }
        let [dir] = positional.as_slice() else {
            return None;
        };
        Some(RecoverOpts {
            dir: dir.clone(),
            stats,
            dump,
        })
    }
}

fn cmd_recover(opts: &RecoverOpts) -> Result<(), String> {
    let (ob, info) = troll::store::recover(std::path::Path::new(&opts.dir))
        .map_err(|e| format!("{}: {e}", opts.dir))?;
    println!(
        "recovered instances={} steps={} snapshot={} replayed={} truncated_bytes={}",
        ob.instances().count(),
        ob.steps_executed(),
        info.snapshot_seq
            .map_or_else(|| "none".into(), |s| s.to_string()),
        info.replayed,
        info.truncated_bytes
    );
    if opts.dump {
        print!("{}", troll::store::world_dump(&ob));
    }
    if opts.stats {
        print_stats(&ob);
    }
    Ok(())
}

/// Parsed `troll serve` invocation.
struct ServeCliOpts {
    file: String,
    addr: String,
    workers: Option<usize>,
    durable: Option<String>,
    fsync: Option<FsyncPolicy>,
    snapshot_every: Option<u64>,
    segment_bytes: Option<u64>,
    compact_after: Option<u64>,
}

impl ServeCliOpts {
    /// Flags may appear anywhere around the one positional; `None` on
    /// any usage error.
    fn parse(args: &[String]) -> Option<Self> {
        let mut opts = ServeCliOpts {
            file: String::new(),
            addr: "127.0.0.1:7877".to_string(),
            workers: None,
            durable: None,
            fsync: None,
            snapshot_every: None,
            segment_bytes: None,
            compact_after: None,
        };
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--addr" => opts.addr = it.next()?.clone(),
                "--workers" => opts.workers = Some(it.next()?.parse().ok().filter(|&n| n >= 1)?),
                "--durable" => opts.durable = Some(it.next()?.clone()),
                "--fsync" => opts.fsync = Some(it.next()?.parse::<FsyncPolicy>().ok()?),
                "--snapshot-every" => opts.snapshot_every = Some(it.next()?.parse::<u64>().ok()?),
                "--segment-bytes" => {
                    opts.segment_bytes = Some(it.next()?.parse::<u64>().ok().filter(|&n| n >= 1)?)
                }
                "--compact-after" => {
                    opts.compact_after = Some(it.next()?.parse::<u64>().ok().filter(|&n| n >= 1)?)
                }
                s if s.starts_with('-') => return None,
                _ => positional.push(a.clone()),
            }
        }
        if (opts.fsync.is_some()
            || opts.snapshot_every.is_some()
            || opts.segment_bytes.is_some()
            || opts.compact_after.is_some())
            && opts.durable.is_none()
        {
            return None;
        }
        let [file] = positional.as_slice() else {
            return None;
        };
        opts.file = file.clone();
        Some(opts)
    }

    fn serve_options(&self) -> troll::serve::ServeOptions {
        let mut so = troll::serve::ServeOptions::default();
        if let Some(w) = self.workers {
            so.workers = w;
        }
        so.durable = self.durable.as_ref().map(std::path::PathBuf::from);
        if let Some(f) = self.fsync {
            so.store.fsync = f;
        }
        if let Some(n) = self.snapshot_every {
            so.store.snapshot_every = n;
        }
        if let Some(n) = self.segment_bytes {
            so.store.segment_bytes = n;
        }
        so.compact_after = self.compact_after;
        so
    }
}

fn cmd_serve(opts: &ServeCliOpts) -> Result<(), String> {
    let file = &opts.file;
    let source = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let server = troll::serve::Server::bind(opts.addr.as_str(), &source, opts.serve_options())
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("troll-serve listening on {addr}");
    let summary = server.run().map_err(|e| e.to_string())?;
    println!(
        "troll-serve exiting: worlds={} requests={} events={} commits={} conflicts={} errors={}",
        summary.worlds,
        summary.requests,
        summary.events,
        summary.commits,
        summary.conflicts,
        summary.errors
    );
    Ok(())
}

/// Parsed `troll follow` invocation.
struct FollowCliOpts {
    addr: String,
    dir: String,
    listen: Option<String>,
    poll_ms: Option<u64>,
    once: bool,
    fsync: Option<FsyncPolicy>,
}

impl FollowCliOpts {
    fn parse(args: &[String]) -> Option<Self> {
        let mut listen = None;
        let mut poll_ms = None;
        let mut once = false;
        let mut fsync = None;
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--listen" => listen = Some(it.next()?.clone()),
                "--poll-ms" => poll_ms = Some(it.next()?.parse::<u64>().ok().filter(|&n| n >= 1)?),
                "--once" => once = true,
                "--fsync" => fsync = Some(it.next()?.parse::<FsyncPolicy>().ok()?),
                s if s.starts_with('-') => return None,
                _ => positional.push(a.clone()),
            }
        }
        let [addr, dir] = positional.as_slice() else {
            return None;
        };
        Some(FollowCliOpts {
            addr: addr.clone(),
            dir: dir.clone(),
            listen,
            poll_ms,
            once,
            fsync,
        })
    }
}

fn cmd_follow(opts: &FollowCliOpts) -> Result<(), String> {
    let mut fopts = troll::repl::FollowOptions {
        once: opts.once,
        listen: opts.listen.clone(),
        ..Default::default()
    };
    if let Some(ms) = opts.poll_ms {
        fopts.poll_ms = ms;
    }
    if let Some(f) = opts.fsync {
        fopts.store.fsync = f;
    }
    let summary = troll::repl::run_follow(&opts.addr, std::path::Path::new(&opts.dir), &fopts)
        .map_err(|e| e.to_string())?;
    println!(
        "follow: worlds={} records={} snapshots={} polls={} primary_lost={}",
        summary.worlds,
        summary.records_applied,
        summary.snapshots_installed,
        summary.polls,
        summary.primary_lost
    );
    Ok(())
}

/// Parsed `troll compact` invocation.
struct CompactOpts {
    dir: String,
    dry_run: bool,
}

impl CompactOpts {
    fn parse(args: &[String]) -> Option<Self> {
        let mut dry_run = false;
        let mut positional = Vec::new();
        for a in args {
            match a.as_str() {
                "--dry-run" => dry_run = true,
                s if s.starts_with('-') => return None,
                _ => positional.push(a.clone()),
            }
        }
        let [dir] = positional.as_slice() else {
            return None;
        };
        Some(CompactOpts {
            dir: dir.clone(),
            dry_run,
        })
    }
}

fn cmd_compact(opts: &CompactOpts) -> Result<(), String> {
    let dir = std::path::Path::new(&opts.dir);
    if opts.dry_run {
        let plan = troll::store::compact_plan(dir).map_err(|e| format!("{}: {e}", opts.dir))?;
        println!(
            "compact plan: snapshot={} records_since={} bytes_since={} prunable_segments={} prunable_bytes={} next_seq={}",
            plan.snapshot_seq
                .map_or_else(|| "none".into(), |s| s.to_string()),
            plan.records_since,
            plan.bytes_since,
            plan.prunable_segments,
            plan.prunable_bytes,
            plan.next_seq
        );
        return Ok(());
    }
    let source = std::fs::read_to_string(dir.join(troll::store::SPEC_FILE))
        .map_err(|e| format!("{}: {e}", opts.dir))?;
    // Compaction appends nothing, so the fsync policy only governs the
    // final sync `compact` issues itself.
    let store_opts = StoreOptions {
        fsync: FsyncPolicy::OnClose,
        ..StoreOptions::default()
    };
    let (ob, mut store, _info) = troll::store::open_world(dir, &source, &store_opts)
        .map_err(|e| format!("{}: {e}", opts.dir))?;
    let report = store
        .compact(&ob)
        .map_err(|e| format!("{}: {e}", opts.dir))?;
    store.close(&ob).map_err(|e| format!("{}: {e}", opts.dir))?;
    println!(
        "compacted: snapshot={} pruned_segments={}",
        report.snapshot_seq, report.pruned_segments
    );
    Ok(())
}

/// Renders the run's metrics: every registered counter and histogram,
/// the process-wide counters (temporal scan/monitor tallies, state-map
/// sharing rates `state.clone_shared` / `state.path_copy`), plus the
/// monitor-cache façade so the two views can be compared.
fn print_stats(ob: &ObjectBase) {
    let snapshot = ob.metrics().snapshot();
    let out = std::io::stdout();
    let mut out = out.lock();
    let _ = writeln!(out, "-- stats --");
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "{name:<34} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(
            out,
            "{name:<34} n={} mean={}ns p50<={}ns p90<={}ns p99<={}ns",
            h.count, h.mean_ns, h.p50_ns, h.p90_ns, h.p99_ns
        );
    }
    let global = troll_obs::global().snapshot();
    for (name, value) in &global.counters {
        let _ = writeln!(out, "global.{name:<27} {value}");
    }
    let _ = writeln!(
        out,
        "{:<34} {}",
        "monitor_cache (snapshot)",
        ob.monitor_cache_stats()
    );
}
