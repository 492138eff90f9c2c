//! Integration tests of the multi-world animation server: protocol
//! robustness (partial reads, pipelining, bad input), equivalence with
//! sequential animation, scale (1k worlds) and durability across server
//! restarts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use troll::runtime::ObjectBase;
use troll::script::{query as query_world, run_command, run_script, Query};
use troll::serve::{LoadConfig, Request, Response, ServeOptions, Server};
use troll::store::StoreOptions;
use troll::System;

#[path = "dept_queries.rs"]
mod dept_queries;
use dept_queries::queries;

fn base() -> ObjectBase {
    System::load_str(troll::specs::DEPT)
        .unwrap()
        .object_base()
        .unwrap()
}

/// The sequential oracle served worlds are compared with: a world whose
/// every permission check runs the reference history scan, so the
/// comparison crosses the server's monitored checks with the scan.
fn scan_oracle() -> ObjectBase {
    let mut ob = base();
    ob.set_monitor_cache_enabled(false);
    ob
}

/// A tiny synchronous protocol client.
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

    fn send(&mut self, req: &Request) {
        self.writer
            .write_all(format!("{}\n", req.to_json()).as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection");
        Response::parse(line.trim_end()).expect("well-formed response")
    }

    fn round_trip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }

    fn shutdown(&mut self) {
        assert_eq!(
            self.round_trip(&Request::Shutdown),
            Response::Ok("shutting down".to_string())
        );
    }
}

fn submit(world: &str, line: &str) -> Request {
    Request::SubmitEvent {
        world: world.to_string(),
        line: line.to_string(),
    }
}

fn spawn_server(opts: ServeOptions) -> troll::serve::SpawnedServer {
    Server::spawn("127.0.0.1:0", troll::specs::DEPT, opts).expect("spawn server")
}

/// Every served response is byte-for-byte what a sequential `animate`
/// of the same lines produces — ok texts and error messages alike.
#[test]
fn served_world_matches_sequential_animate() {
    let lines = [
        r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#,
        r#"exec |DEPT|("Toys") hire (|PERSON|("ada"))"#,
        r#"exec |DEPT|("Toys") hire (|PERSON|("bob"))"#,
        r#"show |DEPT|("Toys") employees"#,
        r#"exec |DEPT|("Toys") fire (|PERSON|("ghost"))"#, // refused
        r#"exec |DEPT|("Toys") fire (|PERSON|("ada"))"#,
        r#"show |DEPT|("Toys") employees"#,
        r#"exec |DEPT|("Toys") closure ()"#,
        "tick",
    ];
    let mut oracle = scan_oracle();

    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    submit_like_oracle(&mut client, "w", &lines, &mut oracle);
    // queries take the read-lock path; each answers exactly as the
    // matching `show`/`view` script line, failures included. Sent one
    // round trip at a time, each finds its world idle, so the loop
    // answers every one of them itself.
    let before = inline_reads(&mut client);
    let reads = queries("w");
    for (query, line) in &reads {
        let got = client.round_trip(query);
        let want = match run_command(&mut oracle, line) {
            Ok(outcome) => Response::Ok(outcome.to_string()),
            Err(e) => Response::Err(e),
        };
        assert_eq!(got, want, "query: {line}");
    }
    assert_eq!(inline_reads(&mut client), before + reads.len() as u64);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

fn open_world(client: &mut Client, world: &str) {
    assert_eq!(
        client.round_trip(&Request::Open {
            world: world.to_string()
        }),
        Response::Ok(format!("opened {world}"))
    );
}

/// Submits every line to `world` and asserts each answer is byte-equal
/// to the oracle's answer to the same line: ok texts and refusals alike.
fn submit_like_oracle(
    client: &mut Client,
    world: &str,
    lines: &[impl AsRef<str>],
    oracle: &mut ObjectBase,
) {
    for line in lines {
        let line = line.as_ref();
        let got = client.round_trip(&submit(world, line));
        let want = match run_command(oracle, line) {
            Ok(outcome) => Response::Ok(outcome.to_string()),
            Err(e) => Response::Err(e),
        };
        assert_eq!(got, want, "line: {line}");
    }
}

/// A department past the grounded monitors' 128-entry capacity: 140
/// persons hired, all but the last fired, then a refused `fire` of a
/// never-hired person, a refused `closure` (the last person is still
/// employed) and, once the last is fired, a granted `closure`.
fn wide_department() -> Vec<String> {
    const PERSONS: usize = 140;
    let mut lines = vec![r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#.to_string()];
    lines.extend((0..PERSONS).map(|i| format!(r#"exec |DEPT|("Toys") hire (|PERSON|("p{i}"))"#)));
    lines.extend(
        (0..PERSONS - 1).map(|i| format!(r#"exec |DEPT|("Toys") fire (|PERSON|("p{i}"))"#)),
    );
    lines.extend([
        r#"show |DEPT|("Toys") employees"#.to_string(),
        r#"exec |DEPT|("Toys") fire (|PERSON|("ghost"))"#.to_string(),
        r#"exec |DEPT|("Toys") closure ()"#.to_string(),
        format!(r#"exec |DEPT|("Toys") fire (|PERSON|("p{}"))"#, PERSONS - 1),
        r#"exec |DEPT|("Toys") closure ()"#.to_string(),
    ]);
    lines
}

/// A world's `stats` reply, which must start with its step counters.
fn world_stats(client: &mut Client, world: &str) -> String {
    match client.round_trip(&Request::Stats {
        world: Some(world.to_string()),
    }) {
        Response::Ok(stats) => {
            assert!(
                stats.starts_with(&format!("world {world}: steps=")),
                "{stats}"
            );
            stats
        }
        other => panic!("stats failed: {other:?}"),
    }
}

/// The value of a `key=` field of a `stats` reply.
fn stats_field<'a>(stats: &'a str, key: &str) -> &'a str {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no `{key}=` in {stats}"))
}

/// Asserts a world's `stats` reports the monitor cache on, with every
/// permission check answered by a monitor, none by the history scan.
fn assert_monitored(stats: &str) {
    assert_eq!(stats_field(stats, "monitor_cache"), "on", "{stats}");
    assert_eq!(stats_field(stats, "monitor_fallbacks"), "0", "{stats}");
    let hits: u64 = stats_field(stats, "monitor_hits").parse().unwrap();
    assert!(hits > 0, "{stats}");
}

/// Served worlds check permissions through the monitor cache, past the
/// grounded capacity and for the quantified `closure`, and answer
/// exactly as the history scan does; `stats` reports the cache and its
/// counters right after `attempts=`.
#[test]
fn served_permissions_match_the_scan_past_capacity() {
    let lines = wide_department();
    let mut oracle = scan_oracle();
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    submit_like_oracle(&mut client, "w", &lines, &mut oracle);

    let stats = world_stats(&mut client, "w");
    let attempts = stats_field(&stats, "attempts");
    assert!(
        stats.contains(&format!(
            "attempts={attempts} monitor_cache=on monitor_hits="
        )),
        "{stats}"
    );
    assert_monitored(&stats);
    // the oracle, by contrast, answered every check by the scan
    assert_eq!(oracle.monitor_cache_stats().hits, 0);
    assert!(oracle.monitor_cache_stats().fallbacks > 0);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// The same script on a durable world, with the server restarted
/// halfway: the second half runs on a recovered world whose monitors
/// are rebuilt lazily from the recovered history, and still answers as
/// the scan does.
#[test]
fn recovered_world_permissions_match_the_scan() {
    let dir = std::env::temp_dir().join(format!("troll-serve-monitored-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || ServeOptions {
        durable: Some(dir.clone()),
        ..Default::default()
    };
    let lines = wide_department();
    let (first, second) = lines.split_at(lines.len() / 2);
    let mut oracle = scan_oracle();

    let spawned = spawn_server(opts());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    submit_like_oracle(&mut client, "w", first, &mut oracle);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();

    let spawned = spawn_server(opts());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    let stats = world_stats(&mut client, "w");
    assert!(
        stats.contains(" monitor_cache=on monitor_hits=0 monitor_fallbacks=0 appends=0"),
        "nothing checked yet: {stats}"
    );
    submit_like_oracle(&mut client, "w", second, &mut oracle);
    assert_monitored(&world_stats(&mut client, "w"));
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request arriving in byte-sized dribbles parses once its newline
/// lands, and a burst of pipelined requests is answered strictly in
/// order.
#[test]
fn partial_reads_and_pipelined_responses() {
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);

    // drip-feed one request a few bytes at a time
    let open = format!(
        "{}\n",
        Request::Open {
            world: "w".to_string()
        }
        .to_json()
    );
    for chunk in open.as_bytes().chunks(3) {
        client.writer.write_all(chunk).unwrap();
        client.writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(client.recv(), Response::Ok("opened w".to_string()));

    // one write carrying many requests; responses come back in order
    let mut burst = String::new();
    burst.push_str(&format!(
        "{}\n",
        submit(
            "w",
            r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#
        )
        .to_json()
    ));
    for i in 0..10 {
        burst.push_str(&format!(
            "{}\n",
            submit(
                "w",
                &format!(r#"exec |DEPT|("Toys") hire (|PERSON|("p{i}"))"#)
            )
            .to_json()
        ));
    }
    burst.push_str(&format!("{}\n", Request::Stats { world: None }.to_json()));
    client.writer.write_all(burst.as_bytes()).unwrap();
    assert_eq!(
        client.recv(),
        Response::Ok(r#"born DEPT("Toys")"#.to_string())
    );
    for _ in 0..10 {
        assert_eq!(
            client.recv(),
            Response::Ok("executed 1 event(s)".to_string())
        );
    }
    match client.recv() {
        Response::Ok(stats) => assert!(stats.contains("commits=11"), "{stats}"),
        other => panic!("stats failed: {other:?}"),
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// Malformed lines, unknown worlds, and bad script input all produce
/// error *responses* (not dropped connections), and later requests on
/// the same connection still work.
#[test]
fn errors_are_responses_not_disconnects() {
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);

    client.writer.write_all(b"this is not json\n").unwrap();
    assert!(matches!(client.recv(), Response::Err(_)));

    let resp = client.round_trip(&submit("nope", "tick"));
    assert_eq!(resp, Response::Err("world `nope` is not open".to_string()));

    client
        .writer
        .write_all(b"{\"op\":\"open\",\"world\":\"../escape\"}\n")
        .unwrap();
    assert!(matches!(client.recv(), Response::Err(_)));

    assert_eq!(
        client.round_trip(&Request::Open {
            world: "w".to_string()
        }),
        Response::Ok("opened w".to_string())
    );
    assert!(matches!(
        client.round_trip(&submit("w", "frobnicate the moon")),
        Response::Err(_)
    ));
    // the connection survived all of the above
    assert_eq!(
        client.round_trip(&submit("w", "tick")),
        Response::Ok("tick: 0 active step(s)".to_string())
    );
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// A client that stops reading its responses must not wedge the loop:
/// another connection keeps animating its own world meanwhile, and the
/// stalled client's responses are all there once it finally reads.
#[test]
fn stalled_client_does_not_block_other_worlds() {
    let spawned = spawn_server(ServeOptions::default());

    let mut stalled = Client::connect(spawned.addr);
    stalled.send(&Request::Open {
        world: "slow".to_string(),
    });
    stalled.send(&submit(
        "slow",
        r#"birth DEPT ("S") establishment (date(1991,10,16))"#,
    ));
    for i in 0..50 {
        stalled.send(&submit(
            "slow",
            &format!(r#"exec |DEPT|("S") hire (|PERSON|("p{i}"))"#),
        ));
    }
    // ... and does not read any of the 52 queued responses yet

    let mut busy = Client::connect(spawned.addr);
    assert_eq!(
        busy.round_trip(&Request::Open {
            world: "fast".to_string()
        }),
        Response::Ok("opened fast".to_string())
    );
    assert_eq!(
        busy.round_trip(&submit(
            "fast",
            r#"birth DEPT ("F") establishment (date(1991,10,16))"#
        )),
        Response::Ok(r#"born DEPT("F")"#.to_string())
    );

    // the stalled client catches up on everything it was owed
    assert_eq!(stalled.recv(), Response::Ok("opened slow".to_string()));
    assert_eq!(
        stalled.recv(),
        Response::Ok(r#"born DEPT("S")"#.to_string())
    );
    for _ in 0..50 {
        assert_eq!(
            stalled.recv(),
            Response::Ok("executed 1 event(s)".to_string())
        );
    }
    busy.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// The load driver hosts ≥1k worlds in one process and every response
/// is a success.
#[test]
fn one_thousand_worlds() {
    let cfg = LoadConfig {
        worlds: 1000,
        conns: 4,
        events_per_world: 2,
        ..Default::default()
    };
    let report = troll::serve::run_load(troll::specs::DEPT, &cfg).expect("load run");
    assert_eq!(report.errors, 0);
    assert_eq!(report.summary.worlds, 1000);
    assert_eq!(report.summary.commits, 3000); // 1 birth + 2 hires each
    assert!(report.latency.count >= report.total_events);
}

/// `--durable` worlds survive a full server restart: the second server
/// recovers each world from its directory and continues its history.
#[test]
fn durable_worlds_survive_restart() {
    let dir = std::env::temp_dir().join(format!("troll-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || ServeOptions {
        durable: Some(dir.clone()),
        ..Default::default()
    };

    let spawned = spawn_server(opts());
    let mut client = Client::connect(spawned.addr);
    for world in ["alpha", "beta"] {
        client.round_trip(&Request::Open {
            world: world.to_string(),
        });
        client.round_trip(&submit(
            world,
            &format!(r#"birth DEPT ("{world}") establishment (date(1991,10,16))"#),
        ));
        client.round_trip(&submit(
            world,
            &format!(r#"exec |DEPT|("{world}") hire (|PERSON|("ada"))"#),
        ));
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();

    let spawned = spawn_server(opts());
    let mut client = Client::connect(spawned.addr);
    for world in ["alpha", "beta"] {
        assert_eq!(
            client.round_trip(&Request::Open {
                world: world.to_string(),
            }),
            Response::Ok(format!("opened {world}"))
        );
        // the recovered world remembers its hire and still enforces
        // permissions on top of it; durable worlds also report their
        // store figures (appends/fsyncs/WAL bytes/compactions)
        match client.round_trip(&Request::Stats {
            world: Some(world.to_string()),
        }) {
            Response::Ok(stats) => {
                assert!(
                    stats.starts_with(&format!("world {world}: steps=2 attempts=2")),
                    "{stats}"
                );
                assert!(stats.contains(" appends=0"), "fresh open: {stats}");
                assert!(stats.contains(" fsyncs="), "{stats}");
                assert!(stats.contains(" since_snapshot="), "{stats}");
                assert!(stats.contains(" compactions=0"), "{stats}");
            }
            other => panic!("stats failed: {other:?}"),
        }
        assert_eq!(
            client.round_trip(&submit(
                world,
                &format!(r#"exec |DEPT|("{world}") fire (|PERSON|("ada"))"#)
            )),
            Response::Ok("executed 1 event(s)".to_string())
        );
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An over-long request line gets the connection dropped (it cannot be
/// a protocol request), while a fresh connection still works.
#[test]
fn oversized_line_drops_only_that_connection() {
    let spawned = spawn_server(ServeOptions::default());
    let mut hog = Client::connect(spawned.addr);
    let big = vec![b'x'; troll::serve::MAX_LINE + 2];
    // the write may fail part-way once the server closes on us
    let _ = hog.writer.write_all(&big);
    let mut buf = [0u8; 16];
    let _ = hog.writer.set_read_timeout(Some(Duration::from_secs(10)));
    let n = hog.writer.try_clone().unwrap().read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server should close the oversized connection");

    let mut fine = Client::connect(spawned.addr);
    assert_eq!(
        fine.round_trip(&Request::Open {
            world: "w".to_string()
        }),
        Response::Ok("opened w".to_string())
    );
    fine.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// A `--` inside a quoted literal belongs to the literal, not to a
/// comment, and a trailing `-- note` is still stripped: each served
/// answer is byte-equal to what `animate` prints for the same line.
#[test]
fn dashes_inside_quotes_are_not_comments() {
    let lines = [
        r#"birth DEPT ("R--D") establishment (date(1991,10,16)) -- founded"#,
        r#"exec |DEPT|("R--D") hire (|PERSON|("a--b")) -- first hire"#,
        r#"show |DEPT|("R--D") employees"#,
    ];
    let mut oracle = scan_oracle();
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    for line in lines {
        let outcomes = run_script(&mut oracle, line).expect("animate runs the line");
        assert_eq!(outcomes.len(), 1, "{line}");
        let got = client.round_trip(&submit("w", line));
        assert_eq!(got, Response::Ok(outcomes[0].to_string()), "line: {line}");
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// A durable world whose WAL can no longer be written does not
/// acknowledge the step that hit the failure, nor any later one. One
/// record per segment makes every append rotate; once the world's
/// directory is a regular file, creating the next segment fails with
/// ENOTDIR (for root too).
#[test]
fn failed_wal_write_is_not_acknowledged() {
    let dir = std::env::temp_dir().join(format!("troll-serve-walfail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spawned = spawn_server(ServeOptions {
        durable: Some(dir.clone()),
        store: StoreOptions {
            segment_bytes: 1,
            ..StoreOptions::default()
        },
        ..Default::default()
    });
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    assert_eq!(
        client.round_trip(&submit(
            "w",
            r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#
        )),
        Response::Ok(r#"born DEPT("Toys")"#.to_string())
    );
    for p in ["ada", "bob"] {
        let hire = format!(r#"exec |DEPT|("Toys") hire (|PERSON|("{p}"))"#);
        assert_eq!(
            client.round_trip(&submit("w", &hire)),
            Response::Ok("executed 1 event(s)".to_string())
        );
    }

    let world_dir = dir.join("worlds").join("w");
    std::fs::remove_dir_all(&world_dir).unwrap();
    std::fs::write(&world_dir, b"not a directory").unwrap();
    for p in ["cyd", "dan"] {
        let hire = format!(r#"exec |DEPT|("Toys") hire (|PERSON|("{p}"))"#);
        match client.round_trip(&submit("w", &hire)) {
            Response::Err(e) => assert!(e.contains("log write failed"), "{e}"),
            other => panic!("acknowledged a step the WAL refused: {other:?}"),
        }
    }
    // reads still work; the world just takes no more writes
    assert!(matches!(
        client.round_trip(&Request::QueryAttr {
            world: "w".to_string(),
            id: r#"|DEPT|("Toys")"#.to_string(),
            attr: "employees".to_string(),
        }),
        Response::Ok(_)
    ));
    client.shutdown();
    // the final close cannot sync the log or write the last snapshot:
    // `run` reports it instead of returning a summary
    let err = spawned
        .join
        .join()
        .unwrap()
        .expect_err("a failed final close must fail `run`");
    assert!(err.to_string().contains("closing world `w`"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The server-wide `stats` reply.
fn global_stats(client: &mut Client) -> String {
    match client.round_trip(&Request::Stats { world: None }) {
        Response::Ok(stats) => stats,
        other => panic!("stats failed: {other:?}"),
    }
}

/// How many reads the loop has answered without the job queue.
fn inline_reads(client: &mut Client) -> u64 {
    stats_field(&global_stats(client), "inline_reads")
        .parse()
        .unwrap()
}

fn toys_employees(world: &str) -> Request {
    Request::QueryAttr {
        world: world.to_string(),
        id: r#"|DEPT|("Toys")"#.to_string(),
        attr: "employees".to_string(),
    }
}

/// A read pipelined behind writes to the same world finds the world
/// busy and waits its turn in the queue: it sees every earlier hire,
/// and the loop answers none of it inline.
#[test]
fn busy_world_reads_wait_their_turn() {
    const HIRES: usize = 50;
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    let before = inline_reads(&mut client);

    let mut burst = vec![
        Request::Open {
            world: "w".to_string(),
        },
        submit(
            "w",
            r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#,
        ),
    ];
    burst.extend((0..HIRES).map(|i| {
        submit(
            "w",
            &format!(r#"exec |DEPT|("Toys") hire (|PERSON|("p{i}"))"#),
        )
    }));
    burst.push(toys_employees("w"));
    let text: String = burst.iter().map(|r| format!("{}\n", r.to_json())).collect();
    client.writer.write_all(text.as_bytes()).unwrap();
    for _ in 0..burst.len() - 1 {
        assert!(matches!(client.recv(), Response::Ok(_)));
    }
    match client.recv() {
        Response::Ok(employees) => {
            for i in 0..HIRES {
                assert!(
                    employees.contains(&format!(r#"PERSON("p{i}")"#)),
                    "p{i} missing from {employees}"
                );
            }
        }
        other => panic!("read failed: {other:?}"),
    }
    assert_eq!(inline_reads(&mut client), before);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// A read pipelined right behind the `open` of a fresh world waits for
/// the world to be built: it answers what a sequential query of a
/// fresh world answers, never "world is not open".
#[test]
fn read_behind_an_open_waits_for_the_world() {
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    let text = format!(
        "{}\n{}\n",
        Request::Open {
            world: "fresh".to_string()
        }
        .to_json(),
        toys_employees("fresh").to_json()
    );
    client.writer.write_all(text.as_bytes()).unwrap();
    assert_eq!(client.recv(), Response::Ok("opened fresh".to_string()));
    let want = match query_world(
        &base(),
        Query::Attr {
            id: r#"|DEPT|("Toys")"#,
            attribute: "employees",
        },
    ) {
        Ok(outcome) => Response::Ok(outcome.to_string()),
        Err(e) => Response::Err(e),
    };
    assert_ne!(want, Response::Err("world `fresh` is not open".to_string()));
    assert_eq!(client.recv(), want);
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}

/// `metrics` answers the server registry in the Prometheus text format,
/// rendered after every earlier request on the connection: it carries
/// the inline-read counter and the request-latency histogram.
#[test]
fn metrics_verb_renders_the_server_registry() {
    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    open_world(&mut client, "w");
    client.round_trip(&submit(
        "w",
        r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#,
    ));
    let reads = inline_reads(&mut client) + 2;
    for _ in 0..2 {
        assert!(matches!(
            client.round_trip(&toys_employees("w")),
            Response::Ok(_)
        ));
    }
    match client.round_trip(&Request::Metrics) {
        Response::Ok(text) => {
            assert!(
                text.contains(&format!("\ntroll_serve_inline_reads {reads}\n")),
                "{text}"
            );
            assert!(
                text.contains("# TYPE troll_serve_request_latency_ns histogram"),
                "{text}"
            );
            assert!(
                text.contains("troll_serve_request_latency_ns_count "),
                "{text}"
            );
        }
        other => panic!("metrics failed: {other:?}"),
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
}
