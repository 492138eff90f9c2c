//! Replication differential: a follower that tails a durable serve
//! primary converges on a **byte-identical** copy of every world's WAL
//! and exactly the primary's world state — over every shipped spec.
//! Also covers snapshot catch-up past a compacted log, the follower's
//! read-only port (the serve loop in its read-only role), a cascading
//! follower that tails that port, and promotion (a follower directory
//! is a valid `--durable` root for a fresh primary).

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use troll::repl::{run_follow, FollowOptions};
use troll::serve::{Request, Response, ServeOptions, Server, SpawnedServer};
use troll::store::{open_world, recover, world_dump, FsyncPolicy, StoreOptions};

#[path = "workloads.rs"]
mod workloads;
use workloads::workload;

#[path = "dept_queries.rs"]
mod dept_queries;
use dept_queries::queries;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("troll-repl-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

/// A tiny synchronous protocol client (same shape as tests/serve.rs).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection");
        Response::parse(line.trim_end()).expect("well-formed response")
    }

    fn round_trip(&mut self, req: &Request) -> Response {
        self.writer
            .write_all(format!("{}\n", req.to_json()).as_bytes())
            .expect("send");
        self.recv()
    }

    fn shutdown(&mut self) {
        let resp = self.round_trip(&Request::Shutdown);
        assert!(matches!(resp, Response::Ok(_)), "{resp:?}");
    }
}

fn spawn_primary(spec: &str, dir: &Path, store: StoreOptions) -> SpawnedServer {
    let opts = ServeOptions {
        durable: Some(dir.to_path_buf()),
        store,
        ..Default::default()
    };
    Server::spawn("127.0.0.1:0", spec, opts).expect("spawn primary")
}

/// Feeds every line of a workload script to world `w`; the workloads
/// are the durability suite's, so every response must be `ok`.
fn drive(client: &mut Client, world: &str, script: &str) -> usize {
    assert!(matches!(
        client.round_trip(&Request::Open {
            world: world.to_string()
        }),
        Response::Ok(_)
    ));
    let mut lines = 0;
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        let resp = client.round_trip(&Request::SubmitEvent {
            world: world.to_string(),
            line: line.to_string(),
        });
        assert!(matches!(resp, Response::Ok(_)), "line `{line}`: {resp:?}");
        lines += 1;
    }
    lines
}

/// Asserts the follower's directory re-derived the primary's; returns
/// the primary's step count.
fn assert_same_dir(what: &str, primary: &Path, follower: &Path) -> usize {
    let (p_world, _) = recover(primary).expect("recover primary");
    let (f_world, _) = recover(follower).expect("recover follower");
    assert_eq!(
        p_world.steps_executed(),
        f_world.steps_executed(),
        "{what}: step count"
    );
    assert_eq!(
        world_dump(&p_world),
        world_dump(&f_world),
        "{what}: world state"
    );
    let p_segments = troll::store::wal::segment_paths(primary).unwrap();
    let f_segments = troll::store::wal::segment_paths(follower).unwrap();
    assert_eq!(p_segments.len(), f_segments.len(), "{what}: segment count");
    for (a, b) in p_segments.iter().zip(&f_segments) {
        assert_eq!(a.file_name(), b.file_name(), "{what}: segment naming");
        assert_eq!(
            fs::read(a).unwrap(),
            fs::read(b).unwrap(),
            "{what}: the re-derived WAL is not byte-identical"
        );
    }
    p_world.steps_executed()
}

/// The oracle: for every shipped spec, run the durability workload on a
/// group-commit primary, follow once, and check the follower re-derived
/// a byte-identical log and the same world. Group commit means an `ok`
/// response *is* durability, so a caught-up follower holds everything
/// that was ever acknowledged.
#[test]
fn follower_converges_on_every_spec() {
    for (name, spec, script) in workloads::WORKLOADS {
        let primary_dir = scratch(&format!("primary-{name}"));
        let follower_dir = scratch(&format!("follower-{name}"));
        let spawned = spawn_primary(
            spec,
            &primary_dir,
            StoreOptions {
                fsync: FsyncPolicy::Group(2),
                ..StoreOptions::default()
            },
        );
        let mut client = Client::connect(spawned.addr);
        drive(&mut client, "w", script);

        let summary = run_follow(
            &spawned.addr.to_string(),
            &follower_dir,
            &FollowOptions {
                once: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{name}: follow failed: {e}"));
        assert_eq!(summary.worlds, 1, "{name}");
        assert!(!summary.primary_lost, "{name}");

        client.shutdown();
        spawned.join.join().unwrap().unwrap();
        let steps = assert_same_dir(
            name,
            &primary_dir.join("worlds/w"),
            &follower_dir.join("worlds/w"),
        );
        // one record per committed step, none skipped or applied twice
        assert!(steps > 0, "{name}");
        assert_eq!(summary.records_applied, steps as u64, "{name}");
        let _ = fs::remove_dir_all(&primary_dir);
        let _ = fs::remove_dir_all(&follower_dir);
    }
}

/// When compaction has pruned the history a fresh follower would need,
/// the primary ships its newest snapshot instead, and the follower
/// continues from there.
#[test]
fn compacted_primary_ships_a_snapshot() {
    let (spec, script) = workload("dept");
    let primary_dir = scratch("compacted-primary");
    let follower_dir = scratch("compacted-follower");
    // Rotation every ~2 records and snapshots every 4 steps: by the
    // time compaction runs, the second-newest-snapshot pin sits well
    // below the tail, so whole segments are prunable.
    let small_segments = StoreOptions {
        segment_bytes: 256,
        snapshot_every: 4,
        ..StoreOptions::default()
    };

    // session 1: write the history, then compact the world directory
    let spawned = spawn_primary(spec, &primary_dir, small_segments.clone());
    let mut client = Client::connect(spawned.addr);
    drive(&mut client, "w", script);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();

    let world_dir = primary_dir.join("worlds/w");
    let source = fs::read_to_string(world_dir.join(troll::store::SPEC_FILE)).unwrap();
    let (base, mut store, _) = open_world(&world_dir, &source, &small_segments).unwrap();
    let report = store.compact(&base).expect("compact");
    store.close(&base).expect("close");
    assert!(
        report.pruned_segments > 0,
        "nothing pruned — the catch-up path would not be exercised"
    );

    // session 2: a fresh follower must start from the snapshot
    let spawned = spawn_primary(spec, &primary_dir, small_segments);
    let mut client = Client::connect(spawned.addr);
    assert!(matches!(
        client.round_trip(&Request::Open {
            world: "w".to_string()
        }),
        Response::Ok(_)
    ));
    let summary = run_follow(
        &spawned.addr.to_string(),
        &follower_dir,
        &FollowOptions {
            once: true,
            ..Default::default()
        },
    )
    .expect("follow");
    assert!(
        summary.snapshots_installed >= 1,
        "the pruned prefix forces a snapshot install"
    );
    client.shutdown();
    spawned.join.join().unwrap().unwrap();

    // world state converged (the WALs legitimately differ: the
    // follower's log starts at the shipped snapshot's cursor)
    let (p_world, _) = recover(&world_dir).unwrap();
    let (f_world, _) = recover(&follower_dir.join("worlds/w")).unwrap();
    assert_eq!(p_world.steps_executed(), f_world.steps_executed());
    assert_eq!(world_dump(&p_world), world_dump(&f_world));
    let _ = fs::remove_dir_all(&primary_dir);
    let _ = fs::remove_dir_all(&follower_dir);
}

/// While tailing, the follower answers reads on its `--listen` port
/// with exactly the primary's answers and refuses every mutation. A
/// request split by a pause longer than the port's idle tick is
/// answered whole, and an over-long line drops only its connection.
#[test]
fn follower_serves_reads_and_refuses_writes() {
    let (spec, script) = workload("dept");
    let primary_dir = scratch("readonly-primary");
    let follower_dir = scratch("readonly-follower");
    let spawned = spawn_primary(spec, &primary_dir, StoreOptions::default());
    let mut client = Client::connect(spawned.addr);
    let lines = drive(&mut client, "w", script);
    assert!(lines > 0);

    let listen = free_addr();
    let primary_addr = spawned.addr.to_string();
    let follow = std::thread::spawn({
        let follower_dir = follower_dir.clone();
        let listen = listen.clone();
        move || {
            run_follow(
                &primary_addr,
                &follower_dir,
                &FollowOptions {
                    poll_ms: 10,
                    listen: Some(listen),
                    ..Default::default()
                },
            )
        }
    });

    // wait for the port, then for the tail to catch up
    let mut ro = connect_when_up(&listen);
    let deadline = Instant::now() + Duration::from_secs(30);
    let query = Request::QueryAttr {
        world: "w".to_string(),
        id: r#"|DEPT|("Toys")"#.to_string(),
        attr: "employees".to_string(),
    };
    let want = client.round_trip(&query);
    assert!(matches!(want, Response::Ok(_)), "{want:?}");
    loop {
        if ro.round_trip(&query) == want {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(10));
    }

    // both sides answer through the same query path, failures included
    for (read, line) in queries("w") {
        assert_eq!(ro.round_trip(&read), client.round_trip(&read), "{line}");
    }
    // the follower's world runs the monitor cache, like the primary's
    match ro.round_trip(&Request::Stats {
        world: Some("w".to_string()),
    }) {
        Response::Ok(stats) => {
            assert!(stats.contains(" monitor_cache=on monitor_hits="), "{stats}")
        }
        other => panic!("stats failed: {other:?}"),
    }

    let line = format!("{}\n", query.to_json());
    let (head, tail) = line.split_at(line.len() / 2);
    ro.writer.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    ro.writer.write_all(tail.as_bytes()).unwrap();
    assert_eq!(ro.recv(), want, "a request split by a pause");

    let mut hog = TcpStream::connect(&listen).unwrap();
    // the write may fail part-way once the follower closes on us
    let _ = hog.write_all(&vec![b'x'; troll::serve::MAX_LINE + 2]);
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(
        hog.read(&mut buf).unwrap_or(0),
        0,
        "the follower should close the oversized connection"
    );

    // mutations are refused, reads still served on the same connection
    let refused = ro.round_trip(&Request::SubmitEvent {
        world: "w".to_string(),
        line: r#"exec |DEPT|("Toys") hire (|PERSON|("eve"))"#.to_string(),
    });
    match refused {
        Response::Err(e) => assert!(e.contains("read-only"), "{e}"),
        other => panic!("follower accepted a write: {other:?}"),
    }
    for world in ["w", "fresh"] {
        match ro.round_trip(&Request::Open {
            world: world.to_string(),
        }) {
            Response::Err(e) => assert!(e.contains("read-only"), "{e}"),
            other => panic!("follower opened world `{world}`: {other:?}"),
        }
    }
    assert_eq!(ro.round_trip(&query), want);

    // the replication verbs answer as the primary's do
    for verb in [Request::ReplSpec, Request::ReplWorlds] {
        assert_eq!(ro.round_trip(&verb), client.round_trip(&verb), "{verb:?}");
    }
    match ro.round_trip(&Request::Stats { world: None }) {
        Response::Ok(stats) => {
            for field in ["records_applied=", "snapshots_installed=", "polls="] {
                assert!(stats.contains(field), "{field} missing: {stats}");
            }
            assert!(!stats.contains("records_applied=0 "), "{stats}");
        }
        other => panic!("stats failed: {other:?}"),
    }
    // `metrics` renders the follower's registry: the served-read
    // counters beside the replication ones
    match ro.round_trip(&Request::Metrics) {
        Response::Ok(text) => {
            for name in ["troll_repl_polls", "troll_serve_inline_reads"] {
                assert!(
                    text.contains(&format!("\n{name} ")),
                    "{name} missing: {text}"
                );
            }
        }
        other => panic!("metrics failed: {other:?}"),
    }

    // shutdown on the read-only port stops the whole follower
    ro.shutdown();
    let summary = follow.join().unwrap().expect("follower exits cleanly");
    assert!(!summary.primary_lost);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&primary_dir);
    let _ = fs::remove_dir_all(&follower_dir);
}

/// A follower's port speaks the primary's replication verbs, so a
/// second follower can tail the first. The middle follower fsyncs every
/// record (only durable records ship), and once it holds the primary's
/// whole log, the end of the chain re-derives the primary's WAL byte
/// for byte and recovers to the same world.
#[test]
fn cascading_follower_tails_a_follower() {
    let (spec, script) = workload("dept");
    let primary_dir = scratch("cascade-primary");
    let middle_dir = scratch("cascade-middle");
    let last_dir = scratch("cascade-last");
    let spawned = spawn_primary(
        spec,
        &primary_dir,
        StoreOptions {
            fsync: FsyncPolicy::Group(2),
            ..StoreOptions::default()
        },
    );
    let mut client = Client::connect(spawned.addr);
    drive(&mut client, "w", script);
    let steps = match client.round_trip(&Request::Stats {
        world: Some("w".to_string()),
    }) {
        Response::Ok(stats) => stats.split_whitespace().nth(2).unwrap().to_string(),
        other => panic!("stats failed: {other:?}"),
    };
    assert!(steps.starts_with("steps="), "{steps}");

    let listen = free_addr();
    let middle = std::thread::spawn({
        let primary_addr = spawned.addr.to_string();
        let middle_dir = middle_dir.clone();
        let listen = listen.clone();
        move || {
            let mut opts = FollowOptions {
                poll_ms: 10,
                listen: Some(listen),
                ..Default::default()
            };
            opts.store.fsync = FsyncPolicy::EveryCommit;
            run_follow(&primary_addr, &middle_dir, &opts)
        }
    });
    let mut ro = connect_when_up(&listen);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match ro.round_trip(&Request::Stats {
            world: Some("w".to_string()),
        }) {
            Response::Ok(stats) if stats.contains(&format!(" {steps} ")) => break,
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "the middle follower never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let summary = run_follow(
        &listen,
        &last_dir,
        &FollowOptions {
            once: true,
            ..Default::default()
        },
    )
    .expect("follow the follower");
    assert_eq!(summary.worlds, 1);
    assert!(summary.records_applied > 0);

    ro.shutdown();
    middle
        .join()
        .unwrap()
        .expect("middle follower exits cleanly");
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
    assert_same_dir(
        "cascade",
        &primary_dir.join("worlds/w"),
        &last_dir.join("worlds/w"),
    );
    for dir in [&primary_dir, &middle_dir, &last_dir] {
        let _ = fs::remove_dir_all(dir);
    }
}

/// A free local address for a follower's listen port.
fn free_addr() -> String {
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    format!("127.0.0.1:{port}")
}

/// Connects to a follower's port, retrying until it is up.
fn connect_when_up(addr: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).unwrap();
                return Client {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                };
            }
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("follower port never came up: {e}"),
        }
    }
}

/// Promotion: the follower's directory is a valid `--durable` root. A
/// new primary pointed at it resumes every replicated step and accepts
/// new writes that respect the replicated history.
#[test]
fn follower_directory_promotes_to_primary() {
    let (spec, script) = workload("dept");
    let primary_dir = scratch("promote-primary");
    let follower_dir = scratch("promote-follower");
    let spawned = spawn_primary(
        spec,
        &primary_dir,
        StoreOptions {
            fsync: FsyncPolicy::Group(2),
            ..StoreOptions::default()
        },
    );
    let mut client = Client::connect(spawned.addr);
    drive(&mut client, "w", script);
    let summary = run_follow(
        &spawned.addr.to_string(),
        &follower_dir,
        &FollowOptions {
            once: true,
            ..Default::default()
        },
    )
    .expect("follow");
    let replicated = summary.records_applied;
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
    // the old primary is gone; promote the follower's directory

    let promoted = spawn_primary(spec, &follower_dir, StoreOptions::default());
    let mut client = Client::connect(promoted.addr);
    assert!(matches!(
        client.round_trip(&Request::Open {
            world: "w".to_string()
        }),
        Response::Ok(_)
    ));
    match client.round_trip(&Request::Stats {
        world: Some("w".to_string()),
    }) {
        Response::Ok(stats) => assert!(
            stats.contains(&format!("steps={replicated}")),
            "promoted world resumed every replicated step: {stats}"
        ),
        other => panic!("stats failed: {other:?}"),
    }
    // the replicated history still governs: re-hiring ada works (she
    // was fired), hiring into the closed Shoes department is refused
    assert!(matches!(
        client.round_trip(&Request::SubmitEvent {
            world: "w".to_string(),
            line: r#"exec |DEPT|("Toys") hire (|PERSON|("ada"))"#.to_string(),
        }),
        Response::Ok(_)
    ));
    assert!(matches!(
        client.round_trip(&Request::SubmitEvent {
            world: "w".to_string(),
            line: r#"exec |DEPT|("Shoes") hire (|PERSON|("eve"))"#.to_string(),
        }),
        Response::Err(_)
    ));
    client.shutdown();
    promoted.join.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&primary_dir);
    let _ = fs::remove_dir_all(&follower_dir);
}
