//! Counters oracle: the monitored path and the scan path must agree.
//!
//! The monitor cache is a pure optimization (DESIGN.md decision 2) —
//! running the same workload with the cache on and off must grant and
//! refuse exactly the same permission checks. The obs counters make
//! that assertable end-to-end: `permissions.granted`/`.refused` must be
//! identical across modes, while `permissions.path.monitored`/`.scan`
//! record which evaluator answered.

use std::sync::Arc;
use troll::data::{Date, ObjectId, Value};
use troll::obs::{Fanout, ObsEvent, Observer, Recorder, TraceWriter};
use troll::runtime::MetricsSnapshot;

fn person(i: usize) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{i}"))]))
}

/// Runs a fixed workload mixing granted hires/fires with refused fires
/// and returns the run's metrics snapshot. The cache mode is set before
/// the first event so every check in the run is attributed to it; an
/// `observer`, when given, sees every step from the birth on.
fn run_scenario(cache_on: bool, observer: Option<Arc<dyn Observer>>) -> MetricsSnapshot {
    let system = troll::System::load_str(troll::specs::DEPT).expect("shipped spec loads");
    let mut ob = system.object_base().expect("object base");
    ob.set_monitor_cache_enabled(cache_on);
    if let Some(observer) = observer {
        ob.set_observer(observer);
    }
    let dept = ob
        .birth(
            "DEPT",
            vec![Value::from("oracle")],
            "establishment",
            vec![Value::Date(Date::new(1991, 10, 16).expect("valid date"))],
        )
        .expect("birth succeeds");
    for round in 0..6 {
        ob.execute(&dept, "hire", vec![person(round)])
            .expect("hire succeeds");
        ob.execute(&dept, "fire", vec![person(round)])
            .expect("fire permitted after hire");
        // firing someone never hired is refused by the permission
        ob.execute(&dept, "fire", vec![person(10_000 + round)])
            .expect_err("never hired");
    }
    ob.metrics().snapshot()
}

#[test]
fn monitored_and_scan_paths_agree_on_grant_refusal_totals() {
    let monitored = run_scenario(true, None);
    let scan = run_scenario(false, None);

    for key in [
        "permissions.granted",
        "permissions.refused",
        "steps.committed",
        "steps.rolled_back",
        "events.occurred",
        "valuation.updates",
    ] {
        assert_eq!(
            monitored.counters[key], scan.counters[key],
            "`{key}` must not depend on the evaluator\nmonitored: {:?}\nscan: {:?}",
            monitored.counters, scan.counters
        );
    }

    // the workload actually exercised both outcomes
    assert!(monitored.counters["permissions.granted"] > 0);
    assert!(monitored.counters["permissions.refused"] > 0);

    // path counters partition the permission checks in both modes …
    for snap in [&monitored, &scan] {
        assert_eq!(
            snap.counters["permissions.path.monitored"] + snap.counters["permissions.path.scan"],
            snap.counters["permissions.granted"] + snap.counters["permissions.refused"],
            "every check is attributed to exactly one path"
        );
    }
    // … and the cache setting decides which path answers
    assert!(monitored.counters["permissions.path.monitored"] > 0);
    assert_eq!(scan.counters["permissions.path.monitored"], 0);
    assert_eq!(
        scan.counters["permissions.path.scan"],
        scan.counters["permissions.granted"] + scan.counters["permissions.refused"]
    );

    // cache accounting is consistent with the checks it answered: the
    // DEPT workload has no constraints or role contexts, so every cache
    // consultation is a permission check, a cache hit answers on the
    // monitored path and a fallback degrades to the scan
    for snap in [&monitored, &scan] {
        assert_eq!(
            snap.counters["monitor_cache.hits"],
            snap.counters["permissions.path.monitored"]
        );
        assert_eq!(
            snap.counters["monitor_cache.fallbacks"],
            snap.counters["permissions.path.scan"]
        );
    }
}

/// One latency sample per step, and — with an in-memory `Recorder` and
/// a JSON-lines `TraceWriter` attached through a `Fanout` — one
/// `step_started` per attempt and one `step_committed` or
/// `step_rolled_back` per outcome in both sinks.
#[test]
fn step_latency_histogram_records_every_step() {
    let recorder = Arc::new(Recorder::new());
    let writer = Arc::new(TraceWriter::new(Vec::new()));
    let fanout = Fanout::new(vec![recorder.clone(), writer.clone()]);
    let snap = run_scenario(true, Some(Arc::new(fanout)));
    let committed = snap.counters["steps.committed"];
    let rolled_back = snap.counters["steps.rolled_back"];
    let h = &snap.histograms["step.latency_ns"];
    assert_eq!(
        h.count,
        committed + rolled_back,
        "one latency sample per step, committed or not"
    );
    assert!(h.p50_ns > 0 && h.p99_ns >= h.p50_ns);

    let recorded = |kind: &str| recorder.count(|e| e.kind() == kind) as u64;
    assert_eq!(recorded("step_started"), committed + rolled_back);
    assert_eq!(recorded("step_committed"), committed);
    assert_eq!(recorded("step_rolled_back"), rolled_back);
    assert!(rolled_back > 0, "the refused fires reached the observer");
    for event in recorder.events() {
        if let ObsEvent::StepRolledBack { reason, .. } = event {
            assert!(!reason.is_empty(), "a rollback names its reason");
        }
    }

    // the run dropped its base, so the test holds the last reference
    let writer = Arc::try_unwrap(writer).expect("the base released the writer");
    assert_eq!(writer.write_errors(), 0);
    let trace = String::from_utf8(writer.into_inner()).expect("trace is utf-8");
    let traced = |kind: &str| {
        let tag = format!("{{\"ev\":\"{kind}\"");
        trace.lines().filter(|l| l.starts_with(&tag)).count() as u64
    };
    assert_eq!(traced("step_committed"), committed);
    assert_eq!(traced("step_rolled_back"), rolled_back);
    assert_eq!(
        trace.lines().count(),
        recorder.events().len(),
        "both sinks saw the same events"
    );
}
