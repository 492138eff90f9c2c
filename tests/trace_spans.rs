//! Step timelines in a durable, traced run: every step's
//! `step_started`/`step_committed` pair joins the store's
//! `store_appended`/`store_fsynced` events by step id, and recovery
//! surfaces as a structured event.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use troll::runtime::TraceWriter;
use troll::script::run_script;
use troll::store::{open_world, DurableSink, StoreOptions};

/// A `Write` target the test can read back after the run.
#[derive(Clone, Debug, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().unwrap().clone())
            .expect("trace is utf-8")
            .lines()
            .map(str::to_string)
            .collect()
    }
}

/// Minimal flat-JSON field extraction — the trace format is one object
/// per line with scalar fields, so string search suffices.
fn str_field(line: &str, name: &str) -> Option<String> {
    let key = format!("\"{name}\":\"");
    let start = line.find(&key)? + key.len();
    let mut out = String::new();
    let mut chars = line[start..].chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            _ => out.push(c),
        }
    }
    None
}

fn u64_field(line: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let start = line.find(&key)? + key.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("troll-trace-spans-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// One department hired into and fired from: every line commits.
const SCRIPT: &str = r#"
birth DEPT ("Toys") establishment (date(1991,10,16))
exec |DEPT|("Toys") hire (|PERSON|("ada"))
exec |DEPT|("Toys") hire (|PERSON|("bob"))
exec |DEPT|("Toys") hire (|PERSON|("cyd"))
exec |DEPT|("Toys") fire (|PERSON|("ada"))
exec |DEPT|("Toys") fire (|PERSON|("bob"))
"#;

#[test]
fn durable_trace_joins_steps_to_store_events() {
    let dir = scratch("durable");
    let (mut base, store, info) =
        open_world(&dir, troll::specs::DEPT, &StoreOptions::default()).expect("open_world");
    assert_eq!(info.replayed, 0);
    let (sink, shared) = DurableSink::new(store);
    base.set_step_sink(Box::new(sink));

    let buf = SharedBuf::default();
    let writer = Arc::new(TraceWriter::new(buf.clone()));
    base.set_observer(writer.clone());

    run_script(&mut base, SCRIPT).expect("durable run");
    shared.lock().unwrap().close(&base).expect("clean close");
    writer.flush();
    assert_eq!(writer.write_errors(), 0);

    let lines = buf.lines();
    assert!(!lines.is_empty());
    // every line keeps the `{"ev":...}` shape and carries the thread
    // ordinal the TraceWriter splices in
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"ev\":\""), "{line}");
        assert!(
            line.contains("\"thread\":"),
            "thread ordinal spliced: {line}"
        );
    }
    let steps_of = |kind: &str| -> Vec<u64> {
        lines
            .iter()
            .filter(|l| str_field(l, "ev").as_deref() == Some(kind))
            .map(|l| u64_field(l, "step").expect("step id"))
            .collect()
    };

    // one step per script line, started and committed under one id
    let started = steps_of("step_started");
    assert_eq!(started, (0..6).collect::<Vec<_>>(), "one attempt per line");
    assert_eq!(steps_of("step_committed"), started, "every step commits");
    assert!(steps_of("step_rolled_back").is_empty());

    // the store joins the same timeline: every committed step was
    // appended and fsynced (default policy) under its step id
    assert_eq!(steps_of("store_appended"), started, "append per step");
    assert_eq!(steps_of("store_fsynced"), started, "every-commit fsync");
}

/// Re-opening the directory surfaces recovery as a structured event
/// (the CLI forwards it to the trace), and the step counters account
/// for every attempt: `steps.committed + steps.rolled_back` equals
/// `step_attempts()`.
#[test]
fn recovery_event_and_counter_consistency() {
    let dir = scratch("recover");
    {
        let (mut base, store, _) =
            open_world(&dir, troll::specs::DEPT, &StoreOptions::default()).expect("open");
        let (sink, shared) = DurableSink::new(store);
        base.set_step_sink(Box::new(sink));
        run_script(&mut base, SCRIPT).expect("run");
        // a refused attempt counts as rolled back and logs nothing
        let refused = r#"exec |DEPT|("Toys") fire (|PERSON|("zed"))"#;
        assert!(run_script(&mut base, refused).is_err());

        let snap = base.metrics().snapshot();
        assert_eq!(
            snap.counters["steps.committed"] + snap.counters["steps.rolled_back"],
            base.step_attempts(),
            "every attempt either commits or rolls back"
        );
        assert_eq!(snap.counters["steps.rolled_back"], 1);
        shared.lock().unwrap().close(&base).expect("close");
    }
    let (_, store, info) =
        open_world(&dir, troll::specs::DEPT, &StoreOptions::default()).expect("re-open");
    drop(store);
    assert_eq!(
        info.replayed + u64::from(info.snapshot_seq.is_some()) * info.next_seq,
        6
    );
    let line = info.to_obs_event().to_json();
    assert!(
        str_field(&line, "ev").as_deref() == Some("store_recovered"),
        "{line}"
    );
    assert!(u64_field(&line, "next_seq") == Some(6), "{line}");
}
