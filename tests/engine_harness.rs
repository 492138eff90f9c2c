//! The in-process differential harness for the engine configurations,
//! shared by `vm_differential.rs` (bytecode ≡ tree walk) and
//! `delta_differential.rs` (delta ≡ recompute). Included via `#[path]`
//! from each test binary — this file is not a test target itself.
//!
//! A shipped spec is driven through its deterministic script
//! (`spec_workloads.rs`) under a [`Lowering`] × monitor cache on/off,
//! sequentially and through a 4-shard executor. Each full transcript
//! (births, commits, refusals with their error messages, attribute
//! observations, view renderings, obligations, ticks) must equal the
//! shipped configuration's — `Lowering::Delta`, cache on, sequential —
//! line for line, so one replay also checks monitor ≡ scan and
//! sharded ≡ sequential, with no process-global switch.

use troll::runtime::{Lowering, ObjectBase, SharedModel};
use troll::script::{run_command, run_script_sharded};
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

/// Sharded transcript: each line runs as its own one-line script, so
/// `birth`/`exec` take the speculate-and-commit batch path while the
/// run still continues past refused events exactly like the
/// sequential transcript (whose error strings it must reproduce —
/// the `line 1: ` prefix the batch runner adds is stripped).
fn sharded_transcript(ob: ObjectBase, script: &[&str], shards: usize) -> Vec<String> {
    let mut ws = ob.into_shards(shards);
    script
        .iter()
        .map(|line| match run_script_sharded(&mut ws, line) {
            Ok(outcomes) => format!("{line} => {}", outcomes[0]),
            Err(e) => {
                let e = e.strip_prefix("line 1: ").unwrap_or(&e);
                format!("{line} => error: {e}")
            }
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
/// sequentially and at 4 shards, asserting each transcript equals
/// `expected`.
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
            "spec `{name}` ({config}): sequential transcript diverged"
        );
        let sharded = sharded_transcript(base(spec, lowering, cache), script, 4);
        assert_eq!(
            sharded, expected,
            "spec `{name}` ({config}): 4-shard transcript diverged"
        );
    }
}
