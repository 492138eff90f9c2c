//! The in-process differential harness for the engine configurations,
//! shared by `vm_differential.rs` (bytecode ≡ tree walk) and
//! `delta_differential.rs` (delta ≡ recompute). Included via `#[path]`
//! from each test binary — this file is not a test target itself.
//!
//! A shipped spec is driven through its deterministic script
//! (`spec_workloads.rs`) under a [`Lowering`] × monitor cache on/off.
//! Each full transcript (births, commits, refusals with their error
//! messages, attribute observations, view renderings, obligations,
//! ticks) must equal the shipped configuration's — `Lowering::Delta`,
//! cache on — line for line, so one replay also checks monitor ≡ scan,
//! with no process-global switch.

use troll::runtime::{Lowering, ObjectBase, SharedModel};
use troll::script::run_command;
use troll::System;

/// A fresh world of `spec` compiled under `lowering`, with the monitor
/// cache on or off.
pub fn base(spec: &str, lowering: Lowering, cache: bool) -> ObjectBase {
    let system = System::load_str(spec).expect("spec loads");
    let mut ob = SharedModel::with_lowering(system.model().clone(), lowering)
        .spawn()
        .expect("object base");
    ob.set_monitor_cache_enabled(cache);
    ob
}

/// Sequential transcript: every command's outcome or error, rendered.
fn transcript(mut ob: ObjectBase, script: &[&str]) -> Vec<String> {
    script
        .iter()
        .map(|line| match run_command(&mut ob, line) {
            Ok(outcome) => format!("{line} => {outcome}"),
            Err(e) => format!("{line} => error: {e}"),
        })
        .collect()
}

/// The shipped configuration's transcript of `spec`, which every other
/// configuration must reproduce; the workload must actually do
/// something.
pub fn reference_transcript(name: &str, spec: &str, script: &[&str]) -> Vec<String> {
    let expected = transcript(base(spec, Lowering::Delta, true), script);
    assert!(
        expected.iter().any(|l| !l.contains("error:")),
        "spec `{name}`: every line failed:\n{}",
        expected.join("\n")
    );
    expected
}

/// Replays `spec` under `lowering` with the monitor cache on and off,
/// asserting each transcript equals `expected`.
pub fn assert_replays_as(
    name: &str,
    spec: &str,
    script: &[&str],
    expected: &[String],
    lowering: Lowering,
) {
    for cache in [true, false] {
        let config = format!("{lowering:?}, cache {}", if cache { "on" } else { "off" });
        let seq = transcript(base(spec, lowering, cache), script);
        assert_eq!(
            seq, expected,
            "spec `{name}` ({config}): transcript diverged"
        );
    }
}
