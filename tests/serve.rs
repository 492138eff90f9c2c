//! Integration tests of the multi-world animation server: protocol
//! robustness (partial reads, pipelining, bad input), equivalence with
//! sequential animation, scale (1k worlds) and durability across server
//! restarts.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use troll::runtime::ObjectBase;
use troll::script::run_command;
use troll::serve::{LoadConfig, Request, Response, ServeOptions, Server};
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
    let mut oracle = base();
    let expected: Vec<Result<String, String>> = lines
        .iter()
        .map(|l| run_command(&mut oracle, l).map(|o| o.to_string()))
        .collect();

    let spawned = spawn_server(ServeOptions::default());
    let mut client = Client::connect(spawned.addr);
    assert_eq!(
        client.round_trip(&Request::Open {
            world: "w".to_string()
        }),
        Response::Ok("opened w".to_string())
    );
    for (line, want) in lines.iter().zip(&expected) {
        let got = client.round_trip(&submit("w", line));
        match want {
            Ok(text) => assert_eq!(got, Response::Ok(text.clone()), "line: {line}"),
            Err(e) => assert_eq!(got, Response::Err(e.clone()), "line: {line}"),
        }
    }
    // queries take the read-lock path; each answers exactly as the
    // matching `show`/`view` script line, failures included
    for (query, line) in queries("w") {
        let got = client.round_trip(&query);
        let want = match run_command(&mut oracle, &line) {
            Ok(outcome) => Response::Ok(outcome.to_string()),
            Err(e) => Response::Err(e),
        };
        assert_eq!(got, want, "query: {line}");
    }
    client.shutdown();
    spawned.join.join().unwrap().unwrap();
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
