//! The follower's read-only query port.
//!
//! Speaks the same newline-JSON protocol as the primary, but only the
//! observation half: `query-attr`, `query-view`, `stats`, `repl-spec`,
//! `repl-worlds`. Mutations are refused — a follower's worlds change
//! only by replaying the primary's log, never by taking writes, or the
//! two would diverge. `shutdown` stops the whole follower cleanly.
//! Reads go through [`script::query`], the primary's own read path, so
//! a caught-up follower answers byte for byte as the primary does.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use troll_runtime::script::{self, Query};
use troll_serve::proto::{Request, Response, MAX_LINE};

use crate::follower::FollowerShared;

/// How often the accept loop re-checks the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Idle-read tick on connections, so they notice the stop flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// Binds `listen` and serves read-only queries until the shared stop
/// flag is set. Returns the bound address (useful with port 0) and the
/// accept thread's handle.
pub(crate) fn spawn(
    listen: &str,
    shared: Arc<FollowerShared>,
) -> io::Result<(SocketAddr, thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = thread::Builder::new()
        .name("troll-follow-listener".to_string())
        .spawn(move || loop {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    let _ = thread::Builder::new()
                        .name("troll-follow-conn".to_string())
                        .spawn(move || serve_conn(stream, &shared));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => thread::sleep(ACCEPT_TICK),
            }
        })?;
    Ok((addr, handle))
}

fn serve_conn(stream: TcpStream, shared: &Arc<FollowerShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut reader = BufReader::new(stream);
    // survives read timeouts: a request split by a pause is completed by
    // the next read, never answered in halves
    let mut line = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // never buffer more than one over-long line's worth
        let room = (MAX_LINE + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if line.last() != Some(&b'\n') {
            if line.len() > MAX_LINE {
                return; // not a protocol request; cut the peer off
            }
            continue;
        }
        let req = Request::parse(String::from_utf8_lossy(&line).trim_end());
        line.clear();
        let shutdown = matches!(req, Ok(Request::Shutdown));
        let resp = match req {
            Ok(req) => answer(shared, req),
            Err(e) => Response::Err(e),
        };
        let mut out = resp.to_json();
        out.push('\n');
        if reader.get_mut().write_all(out.as_bytes()).is_err() {
            return;
        }
        if shutdown {
            shared.stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

fn answer(shared: &Arc<FollowerShared>, req: Request) -> Response {
    match req {
        Request::QueryAttr { world, id, attr } => world_query(
            shared,
            &world,
            Query::Attr {
                id: &id,
                attribute: &attr,
            },
        ),
        Request::QueryView { world, interface } => world_query(
            shared,
            &world,
            Query::View {
                interface: &interface,
            },
        ),
        Request::Stats { world: None } => Response::Ok(format!(
            "follower worlds={} records_applied={} snapshots_installed={} polls={}",
            shared.c.worlds.get(),
            shared.c.records_applied.get(),
            shared.c.snapshots_installed.get(),
            shared.c.polls.get(),
        )),
        Request::Stats { world: Some(world) } => {
            let Some(slot) = lookup(shared, &world) else {
                return Response::Err(format!("world `{world}` is not open"));
            };
            let slot = slot.lock().expect("world slot");
            let f = slot.store.figures();
            Response::Ok(format!(
                "world {world}: steps={} attempts={} {} appends={} fsyncs={} wal_bytes={} since_snapshot={} compactions={}",
                slot.base.steps_executed(),
                slot.base.step_attempts(),
                script::monitor_cache_fields(&slot.base),
                f.appends,
                f.fsyncs,
                f.wal_bytes,
                f.bytes_since_snapshot,
                f.compactions,
            ))
        }
        Request::ReplSpec => Response::Ok(shared.spec_source.clone()),
        Request::ReplWorlds => {
            let worlds = shared.worlds.lock().expect("worlds");
            let names: Vec<&str> = worlds.keys().map(String::as_str).collect();
            Response::Ok(names.join(" "))
        }
        Request::Shutdown => Response::Ok("follower shutting down".to_string()),
        Request::Open { .. } | Request::SubmitEvent { .. } | Request::ReplPoll { .. } => {
            Response::Err("read-only follower: writes go to the primary".to_string())
        }
    }
}

fn lookup(
    shared: &Arc<FollowerShared>,
    world: &str,
) -> Option<Arc<std::sync::Mutex<crate::follower::WorldSlot>>> {
    shared.worlds.lock().expect("worlds").get(world).cloned()
}

/// Answers a read through [`script::query`], the primary's read path.
fn world_query(shared: &Arc<FollowerShared>, world: &str, query: Query<'_>) -> Response {
    let Some(slot) = lookup(shared, world) else {
        return Response::Err(format!("world `{world}` is not open"));
    };
    let slot = slot.lock().expect("world slot");
    match script::query(&slot.base, query) {
        Ok(outcome) => Response::Ok(outcome.to_string()),
        Err(e) => Response::Err(e),
    }
}
