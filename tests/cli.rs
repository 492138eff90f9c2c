//! End-to-end tests of the `troll` binary: usage/exit-code discipline
//! (`2` usage, `1` runtime failure, `0` success) and the observability
//! surface of `troll animate --stats` / `--trace`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn troll() -> Command {
    Command::new(env!("CARGO_BIN_EXE_troll"))
}

fn run(args: &[&str]) -> Output {
    troll().args(args).output().expect("spawn troll")
}

fn dept_spec() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/dept.troll").to_string()
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("troll-cli-{}-{name}", std::process::id()));
    p
}

const SCRIPT: &str = r#"
-- drive the paper's DEPT class far enough to touch every counter
birth DEPT ("Toys") establishment (date(1991,10,16))
exec  |DEPT|("Toys") hire (|PERSON|("ada"))
exec  |DEPT|("Toys") hire (|PERSON|("bob"))
exec  |DEPT|("Toys") fire (|PERSON|("ada"))
show  |DEPT|("Toys") employees
"#;

#[test]
fn no_arguments_is_a_usage_error() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: troll"), "general usage shown: {err}");
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_arity_shows_the_commands_own_usage() {
    for cmd in [
        "check", "fmt", "info", "graph", "animate", "follow", "compact",
    ] {
        let out = run(&[cmd]);
        assert_eq!(out.status.code(), Some(2), "{cmd} without args");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("usage: troll {cmd}")),
            "{cmd}: per-command usage shown, got: {err}"
        );
    }
}

#[test]
fn unknown_animate_flag_is_a_usage_error() {
    let out = run(&["animate", "--bogus", "a.troll", "b.script"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_is_a_runtime_error_not_a_usage_error() {
    let out = run(&["fmt", "/no/such/file.troll"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error:"), "runtime errors say error: {err}");
}

#[test]
fn check_accepts_the_paper_spec() {
    let out = run(&["check", &dept_spec()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn help_succeeds() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0));
}

/// The tentpole acceptance check: `animate --stats` prints non-zero
/// step and monitor-cache counters, and the obs counters agree with the
/// `monitor_cache_stats()` façade printed alongside them.
#[test]
fn animate_stats_prints_consistent_counters() {
    let script = scratch("stats.script");
    std::fs::write(&script, SCRIPT).unwrap();
    let out = run(&["animate", "--stats", &dept_spec(), script.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let counter = |name: &str| -> u64 {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("counter `{name}` missing in:\n{stdout}"));
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };

    assert!(counter("steps.committed") >= 4, "one step per script line");
    assert!(counter("events.occurred") >= 4);
    assert!(counter("permissions.granted") > 0, "fire is guarded");
    assert!(counter("valuation.updates") > 0);

    // the façade line: "monitor_cache (snapshot) hits H / misses M / …"
    let facade = stdout
        .lines()
        .find(|l| l.starts_with("monitor_cache (snapshot)"))
        .expect("facade line printed");
    let field = |key: &str| -> u64 {
        let mut it = facade.split_whitespace();
        while let Some(w) = it.next() {
            if w == key {
                return it.next().unwrap().parse().unwrap();
            }
        }
        panic!("`{key}` missing in facade line: {facade}");
    };
    assert_eq!(field("hits"), counter("monitor_cache.hits"));
    assert_eq!(field("misses"), counter("monitor_cache.misses"));
    assert_eq!(field("fallbacks"), counter("monitor_cache.fallbacks"));
    assert_eq!(
        field("invalidations"),
        counter("monitor_cache.invalidations")
    );
    assert!(
        field("hits") + field("misses") > 0,
        "monitored permissions exercised the cache"
    );

    let _ = std::fs::remove_file(&script);
}

/// Flags `animate` no longer has (the sharded executor's shard count):
/// asking for one is a usage error, whatever its value.
const RETIRED_ANIMATE_FLAGS: &[&str] = &["shards"];

#[test]
fn animate_shards_flag_is_a_usage_error() {
    for name in RETIRED_ANIMATE_FLAGS {
        let flag = format!("--{name}");
        for value in ["2", "1", "0", "many"] {
            let out = run(&["animate", &flag, value, "x.troll", "y.script"]);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        }
    }
}

/// A durable run stops at its first failing line: a refused `fire` on
/// line 3 of 5 leaves exactly the two steps before it in the log, and
/// the lines after it never run.
#[test]
fn animate_durable_stops_at_the_refused_line() {
    let script = scratch("refused.script");
    let dir = scratch("refused.dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(
        &script,
        r#"birth DEPT ("Toys") establishment (date(1991,10,16))
exec  |DEPT|("Toys") hire (|PERSON|("ada"))
exec  |DEPT|("Toys") fire (|PERSON|("zed"))
exec  |DEPT|("Toys") hire (|PERSON|("bob"))
exec  |DEPT|("Toys") hire (|PERSON|("cyd"))
"#,
    )
    .unwrap();
    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3:"), "{err}");

    let out = run(&["recover", "--dump", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("steps=2"), "{stdout}");
    assert!(
        !stdout.contains("bob") && !stdout.contains("cyd"),
        "{stdout}"
    );

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace` streams one strict-JSON object per line covering the whole
/// step life cycle.
#[test]
fn animate_trace_streams_json_lines() {
    let script = scratch("trace.script");
    let trace = scratch("trace.jsonl");
    std::fs::write(&script, SCRIPT).unwrap();
    let out = run(&[
        "animate",
        "--trace",
        trace.to_str().unwrap(),
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(!body.is_empty(), "trace file has content");
    for line in body.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line is one JSON object: {line}"
        );
        assert!(line.contains("\"ev\":"), "tagged with a kind: {line}");
    }
    for kind in [
        "step_started",
        "event_called",
        "permission_checked",
        "valuation_applied",
        "step_committed",
    ] {
        assert!(
            body.contains(&format!("\"ev\":\"{kind}\"")),
            "trace covers {kind}"
        );
    }

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_file(&trace);
}

/// `--durable` must not change what the user sees: stdout is identical
/// to a plain run, and the directory it leaves behind recovers with
/// exit 0 plus an honest summary line.
#[test]
fn animate_durable_stdout_matches_plain_and_recovers() {
    let script = scratch("durable.script");
    let dir = scratch("durable.dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&script, SCRIPT).unwrap();

    let plain = run(&["animate", &dept_spec(), script.to_str().unwrap()]);
    let durable = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(
        durable.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&durable.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&durable.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "--durable is invisible on stdout"
    );

    let out = run(&["recover", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("recovered "))
        .unwrap_or_else(|| panic!("summary line missing:\n{stdout}"));
    assert!(summary.contains("instances=1"), "{summary}");
    assert!(summary.contains("steps=4"), "{summary}");
    assert!(summary.contains("truncated_bytes=0"), "{summary}");

    // --dump prints the world, one deterministic line per fact
    let out = run(&["recover", "--dump", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(dump.contains("instance DEPT(\"Toys\")"), "{dump}");
    assert!(dump.contains("employees"), "{dump}");

    // --stats exposes the store counters of the recovery itself
    let out = run(&["recover", "--stats", dir.to_str().unwrap()]);
    let stats = String::from_utf8_lossy(&out.stdout);
    assert!(stats.contains("store.recoveries"), "{stats}");

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_usage_and_failure_exit_codes() {
    // no directory / unknown flag: usage errors
    let out = run(&["recover"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage: troll recover"),
        "per-command usage shown"
    );
    let out = run(&["recover", "--bogus", "somewhere"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["recover", "a", "b"]);
    assert_eq!(out.status.code(), Some(2), "exactly one directory");

    // a directory with no spec.troll is unrecoverable: runtime error
    let dir = scratch("recover-empty.dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = run(&["recover", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("spec.troll"),
        "says what is missing"
    );

    // a corrupt spec is unrecoverable too
    std::fs::write(dir.join("spec.troll"), "object class {{{").unwrap();
    let out = run(&["recover", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));

    // durability flags without --durable are usage errors
    let out = run(&["animate", "--fsync", "every-commit", "x.troll", "y.script"]);
    assert_eq!(out.status.code(), Some(2), "--fsync needs --durable");
    let out = run(&["animate", "--snapshot-every", "8", "x.troll", "y.script"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--snapshot-every needs --durable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two sessions over the same directory: the second resumes where the
/// first left off, refusing events the recovered history forbids.
#[test]
fn animate_durable_resumes_across_sessions() {
    let dir = scratch("resume.dir");
    let _ = std::fs::remove_dir_all(&dir);
    let first = scratch("resume1.script");
    let second = scratch("resume2.script");
    std::fs::write(&first, SCRIPT).unwrap();
    // fire(bob) is only permitted because the *recovered* history
    // remembers hire(bob); fire(ada) must be refused — already fired
    std::fs::write(&second, "exec |DEPT|(\"Toys\") fire (|PERSON|(\"bob\"))\n").unwrap();

    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        "--fsync",
        "every-2",
        &dept_spec(),
        first.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        &dept_spec(),
        second.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("resumed at step 4"),
        "resume note goes to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&["recover", dir.to_str().unwrap()]);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("steps=5"),
        "both sessions persisted"
    );

    let _ = std::fs::remove_file(&first);
    let _ = std::fs::remove_file(&second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `troll profile` runs the script like `animate` and then prints the
/// sorted per-phase self-time table, footed with how much of the step
/// latency the phases account for.
#[test]
fn profile_command_prints_self_time_table() {
    let script = scratch("profile.script");
    std::fs::write(&script, SCRIPT).unwrap();
    let out = run(&["profile", &dept_spec(), script.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("DEPT(\"Toys\").employees"),
        "outcome lines still printed:\n{stdout}"
    );
    let table = stdout
        .split("-- profile --")
        .nth(1)
        .unwrap_or_else(|| panic!("profile table printed:\n{stdout}"));
    for row in ["envelope", "valuation", "state_commit"] {
        assert!(table.contains(row), "{row} row present:\n{table}");
    }
    let footer = table
        .lines()
        .find(|l| l.starts_with("steps="))
        .unwrap_or_else(|| panic!("footer present:\n{table}"));
    assert!(footer.contains("steps=4"), "{footer}");
    // the acceptance bar: phases explain (nearly) the whole step
    let pct: f64 = footer
        .split('(')
        .nth(1)
        .and_then(|s| s.strip_suffix("%)"))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("accounted share parses: {footer}"));
    assert!(
        (90.0..=102.0).contains(&pct),
        "accounted {pct}% of the step"
    );
    let _ = std::fs::remove_file(&script);
}

/// The file-writing observability outputs: `--profile` (phase table),
/// `--metrics` (Prometheus text format) and `--stats-stream` (periodic
/// JSON snapshots) — none of which may change stdout.
#[test]
fn animate_profile_metrics_and_stats_stream_write_files() {
    let script = scratch("obsfiles.script");
    let prof = scratch("obsfiles.prof");
    let prom = scratch("obsfiles.prom");
    let stream = scratch("obsfiles.stats.jsonl");
    std::fs::write(&script, SCRIPT).unwrap();

    let plain = run(&["animate", &dept_spec(), script.to_str().unwrap()]);
    let out = run(&[
        "animate",
        "--profile",
        prof.to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
        "--stats-stream",
        stream.to_str().unwrap(),
        "--stats-every",
        "1",
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "file sinks are invisible on stdout"
    );

    let table = std::fs::read_to_string(&prof).unwrap();
    assert!(table.starts_with("phase"), "table header first:\n{table}");
    assert!(table.contains("envelope"), "{table}");
    assert!(table.contains("accounted="), "{table}");

    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(
        text.contains("# TYPE troll_steps_committed counter"),
        "{text}"
    );
    assert!(text.contains("troll_steps_committed 4"), "{text}");
    assert!(
        text.contains("troll_step_latency_ns_bucket{le=\"+Inf\"} 4"),
        "cumulative buckets end at +Inf:\n{text}"
    );
    assert!(text.contains("troll_step_latency_ns_count 4"), "{text}");
    assert!(
        text.contains("# TYPE troll_step_phase_envelope_self_ns histogram"),
        "profiler histograms exposed:\n{text}"
    );

    let stats = std::fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = stats.lines().collect();
    assert_eq!(lines.len(), 4, "one snapshot per committed step:\n{stats}");
    for line in lines {
        assert!(
            line.starts_with("{\"counters\":") && line.ends_with('}'),
            "snapshot shape: {line}"
        );
        assert!(line.contains("\"histograms\":"), "{line}");
    }

    // cadence without a stream is a usage error, as is a bad cadence
    let out = run(&["animate", "--stats-every", "2", "x.troll", "y.script"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--stats-every needs --stats-stream"
    );
    let out = run(&["profile", "x.troll"]);
    assert_eq!(out.status.code(), Some(2), "profile keeps animate's arity");

    for f in [&script, &prof, &prom, &stream] {
        let _ = std::fs::remove_file(f);
    }
}

/// A durable traced run covers the step and store event vocabulary,
/// and a second session records its recovery in the trace.
#[test]
fn trace_covers_span_and_store_events() {
    let script = scratch("span.script");
    let dir = scratch("span.dir");
    let trace1 = scratch("span1.jsonl");
    let trace2 = scratch("span2.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&script, SCRIPT).unwrap();

    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        "--trace",
        trace1.to_str().unwrap(),
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&trace1).unwrap();
    for kind in [
        "step_started",
        "step_committed",
        "store_appended",
        "store_fsynced",
    ] {
        assert!(
            body.contains(&format!("\"ev\":\"{kind}\"")),
            "trace covers {kind}:\n{body}"
        );
    }
    assert!(
        body.contains("\"thread\":"),
        "events carry thread ordinals:\n{body}"
    );

    // session two: the recovery itself is a trace event
    let second = scratch("span2.script");
    std::fs::write(&second, "show |DEPT|(\"Toys\") employees\n").unwrap();
    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        "--trace",
        trace2.to_str().unwrap(),
        &dept_spec(),
        second.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let body = std::fs::read_to_string(&trace2).unwrap();
    assert!(
        body.contains("\"ev\":\"store_recovered\""),
        "recovery recorded:\n{body}"
    );

    for f in [&script, &second, &trace1, &trace2] {
        let _ = std::fs::remove_file(f);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `troll compact`: `--dry-run` reports the plan without writing,
/// the real run snapshots and prunes, and the directory still
/// recovers to the same world afterwards.
#[test]
fn compact_reports_prunes_and_preserves_the_world() {
    let script = scratch("compact.script");
    let dir = scratch("compact.dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::write(&script, SCRIPT).unwrap();
    let out = run(&[
        "animate",
        "--durable",
        dir.to_str().unwrap(),
        &dept_spec(),
        script.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let dump_before = run(&["recover", "--dump", dir.to_str().unwrap()]);

    let out = run(&["compact", "--dry-run", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let plan = String::from_utf8_lossy(&out.stdout);
    assert!(plan.starts_with("compact plan:"), "{plan}");
    assert!(plan.contains("next_seq=4"), "{plan}");
    // a dry run changes nothing: the plan is reproducible
    let again = run(&["compact", "--dry-run", dir.to_str().unwrap()]);
    assert_eq!(String::from_utf8_lossy(&again.stdout), plan);

    let out = run(&["compact", dir.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.starts_with("compacted: snapshot=4"), "{report}");

    // the compacted directory recovers to the identical world
    let dump_after = run(&["recover", "--dump", dir.to_str().unwrap()]);
    assert_eq!(dump_after.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&dump_after.stdout)
            .lines()
            .filter(|l| !l.starts_with("recovered "))
            .collect::<Vec<_>>(),
        String::from_utf8_lossy(&dump_before.stdout)
            .lines()
            .filter(|l| !l.starts_with("recovered "))
            .collect::<Vec<_>>(),
        "compaction must not change the world"
    );

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_and_follow_exit_code_discipline() {
    // usage errors: missing/extra positionals, unknown flags
    let out = run(&["compact", "--bogus", "somewhere"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["compact", "a", "b"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["follow", "only-one-arg"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["follow", "--poll-ms", "0", "addr", "dir"]);
    assert_eq!(out.status.code(), Some(2), "poll cadence must be >= 1");
    let out = run(&["serve", "--compact-after", "4096", "x.troll"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "--compact-after needs --durable"
    );

    // runtime errors: compacting nothing, following a dead primary
    let dir = scratch("compact-missing.dir");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&["compact", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    // a bound-then-dropped listener yields a port nobody serves
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let follow_dir = scratch("follow-dead.dir");
    let _ = std::fs::remove_dir_all(&follow_dir);
    let out = run(&[
        "follow",
        "--once",
        &format!("127.0.0.1:{port}"),
        follow_dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unreachable"),
        "says why: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&follow_dir);
}
