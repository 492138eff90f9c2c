//! Metric-name audit: every name registered by a full-featured run is
//! on the documented allowlist and follows the `namespace.metric`
//! convention — dot-separated lower_snake segments, namespace first.
//! A new metric must be added here (and to DESIGN.md §4h) deliberately;
//! accidental names fail this test.

use std::path::PathBuf;

use troll::script::run_script;
use troll::store::{open_world, DurableSink, StoreOptions};
use troll::System;

/// Every counter the runtime layers may register in a base registry.
const BASE_COUNTERS: &[&str] = &[
    "constraints.checked",
    "constraints.violated",
    "events.occurred",
    "monitor_cache.fallbacks",
    "monitor_cache.hits",
    "monitor_cache.invalidations",
    "monitor_cache.misses",
    "permissions.granted",
    "permissions.path.monitored",
    "permissions.path.scan",
    "permissions.refused",
    "script.literal_fallbacks",
    "steps.committed",
    "steps.rolled_back",
    "store.appends",
    "store.bytes",
    "store.compactions",
    "store.fsyncs",
    "store.recoveries",
    "valuation.delta_applied",
    "valuation.recomputed",
    "valuation.updates",
    "views.calls",
    "views.derived_calls",
];

/// Every histogram (latency distributions and the profiler's per-phase
/// self-time family).
const BASE_HISTOGRAMS: &[&str] = &[
    "step.latency_ns",
    "store.fsync_latency_ns",
    "step.phase.alias_prepass.self_ns",
    "step.phase.closure.self_ns",
    "step.phase.constraints.self_ns",
    "step.phase.env.self_ns",
    "step.phase.envelope.self_ns",
    "step.phase.fsync.self_ns",
    "step.phase.monitor_advance.self_ns",
    "step.phase.permissions.self_ns",
    "step.phase.sink.self_ns",
    "step.phase.state_commit.self_ns",
    "step.phase.valuation.self_ns",
    "step.phase.views.self_ns",
];

/// Counters in the process-wide registry (`troll_obs::global()`):
/// structure-sharing rates, temporal-evaluator tallies, VM tallies.
const GLOBAL_COUNTERS: &[&str] = &[
    "state.clone_shared",
    "state.path_copy",
    "temporal.monitor_peeks",
    "temporal.monitor_steps",
    "temporal.compiled_scan_evals",
    "temporal.scan_evals",
    "temporal.scan_fallback",
    "vm.delta_execs",
    "vm.delta_lowered",
    "vm.delta_unrecognized",
    "vm.exec",
    "vm.fallback",
    "vm.programs_compiled",
];

/// Counters the multi-world animation server registers in its own
/// per-server registry (`troll serve`).
const SERVE_COUNTERS: &[&str] = &[
    "serve.commits",
    "serve.compactions",
    "serve.conflicts",
    "serve.deferred_acks",
    "serve.errors",
    "serve.events",
    "serve.group_fsyncs",
    "serve.inline_reads",
    "serve.repl_polls",
    "serve.requests",
    "serve.worlds",
];

/// Histograms in the per-server registry.
const SERVE_HISTOGRAMS: &[&str] = &["serve.commit_latency_ns", "serve.request_latency_ns"];

/// `namespace.metric`: at least two dot-separated segments, each
/// non-empty lower_snake ASCII starting with a letter.
fn follows_convention(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.starts_with(|c: char| c.is_ascii_lowercase())
                && s.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

fn scratch() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("troll-metric-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Drives every metric-registering layer at once — steps, the durable
/// store, views and profiling — then audits both registries against
/// the allowlist.
#[test]
fn registered_names_are_allowlisted_and_conventional() {
    let dir = scratch();
    let (mut base, store, _) =
        open_world(&dir, troll::specs::DEPT, &StoreOptions::default()).expect("open_world");
    let (sink, shared) = DurableSink::new(store);
    base.set_step_sink(Box::new(sink));
    base.set_profiling(true);
    run_script(
        &mut base,
        r#"
birth DEPT ("Toys") establishment (date(1991,10,16))
exec |DEPT|("Toys") hire (|PERSON|("ada"))
exec |DEPT|("Toys") hire (|PERSON|("bob"))
exec |DEPT|("Toys") fire (|PERSON|("ada"))
show |DEPT|(if true then "Toys" else "") employees
"#,
    )
    .expect("steps");
    shared.lock().unwrap().close(&base).expect("close");

    let snap = base.metrics().snapshot();
    for name in snap.counters.keys() {
        assert!(
            BASE_COUNTERS.contains(&name.as_str()),
            "unlisted base counter `{name}` — extend the allowlist and DESIGN.md §4h"
        );
        assert!(follows_convention(name), "`{name}` breaks namespace.metric");
    }
    for name in snap.histograms.keys() {
        assert!(
            BASE_HISTOGRAMS.contains(&name.as_str()),
            "unlisted base histogram `{name}` — extend the allowlist and DESIGN.md §4h"
        );
        assert!(follows_convention(name), "`{name}` breaks namespace.metric");
    }
    let global = troll_obs::global().snapshot();
    for name in global.counters.keys() {
        assert!(
            GLOBAL_COUNTERS.contains(&name.as_str()),
            "unlisted global counter `{name}` — extend the allowlist and DESIGN.md §4h"
        );
        assert!(follows_convention(name), "`{name}` breaks namespace.metric");
    }
    assert!(
        global.histograms.is_empty(),
        "global histograms are unexpected: {:?}",
        global.histograms.keys().collect::<Vec<_>>()
    );

    // the allowlist itself obeys the convention and the profiler family
    // is exactly the Phase enum
    for name in BASE_COUNTERS
        .iter()
        .chain(BASE_HISTOGRAMS)
        .chain(GLOBAL_COUNTERS)
    {
        assert!(
            follows_convention(name),
            "allowlisted `{name}` breaks convention"
        );
    }
    for phase in troll_obs::PHASES {
        assert!(
            BASE_HISTOGRAMS.contains(&phase.metric_name().as_str()),
            "phase {} missing from allowlist",
            phase.label()
        );
    }
}

/// The server's registry is separate from any world's base registry
/// (worlds keep their own `monitor_cache.*` etc.); binding a server is
/// enough to register every `serve.*` handle, so audit that too.
#[test]
fn serve_registry_names_are_allowlisted_and_conventional() {
    let server = troll::serve::Server::bind(
        "127.0.0.1:0",
        troll::specs::DEPT,
        troll::serve::ServeOptions::default(),
    )
    .expect("bind");
    let snap = server.metrics().snapshot();
    assert!(!snap.counters.is_empty(), "bind registers serve counters");
    for name in snap.counters.keys() {
        assert!(
            SERVE_COUNTERS.contains(&name.as_str()),
            "unlisted serve counter `{name}` — extend the allowlist and DESIGN.md §4h"
        );
        assert!(follows_convention(name), "`{name}` breaks namespace.metric");
    }
    for name in snap.histograms.keys() {
        assert!(
            SERVE_HISTOGRAMS.contains(&name.as_str()),
            "unlisted serve histogram `{name}` — extend the allowlist and DESIGN.md §4h"
        );
        assert!(follows_convention(name), "`{name}` breaks namespace.metric");
    }
    for name in SERVE_COUNTERS.iter().chain(SERVE_HISTOGRAMS) {
        assert!(
            follows_convention(name),
            "allowlisted `{name}` breaks convention"
        );
    }
}

/// The Prometheus renderer mangles every allowlisted name into the
/// exposition charset (`[a-zA-Z0-9_:]`).
#[test]
fn prometheus_rendering_covers_all_registered_names() {
    let system = System::load_str(troll::specs::DEPT).unwrap();
    let mut ob = system.object_base().unwrap();
    ob.set_profiling(true);
    run_script(
        &mut ob,
        "birth DEPT (\"Toys\") establishment (date(1991,10,16))",
    )
    .unwrap();
    let text = ob.metrics().render_prometheus("troll");
    let snap = ob.metrics().snapshot();
    for (name, _) in snap.counters.iter() {
        let mangled = format!("troll_{}", name.replace('.', "_"));
        assert!(text.contains(&mangled), "{mangled} missing from exposition");
    }
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let metric = rest.split(' ').next().unwrap();
            assert!(
                metric
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{metric} outside the Prometheus charset"
            );
        }
    }
}
