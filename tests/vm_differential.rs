//! Replay-equality oracle for the bytecode VM: every shipped spec is
//! replayed in worlds compiled under `Lowering::TreeWalk` (monitor
//! cache on and off) and each transcript must equal the
//! bytecode-compiled shipped configuration's line for line
//! (`engine_harness.rs`).

#[path = "engine_harness.rs"]
mod engine_harness;
#[path = "spec_workloads.rs"]
mod spec_workloads;

use engine_harness::{assert_replays_as, reference_transcript};
use spec_workloads::workloads;
use troll::runtime::Lowering;

/// The only test in this binary: the process-global `vm.*` counters it
/// reads move for no other reason.
#[test]
fn bytecode_and_treewalk_replays_agree() {
    let counter = |name: &str| troll::obs::global().counter(name).get();
    let compiled_before = counter("vm.programs_compiled");
    let fallback_before = counter("vm.fallback");
    for (name, spec, script) in workloads() {
        let with_bytecode = reference_transcript(name, spec, &script);
        // a tree-walk world must never execute bytecode, not even in
        // the monitors its cache builds lazily
        let execs_before = counter("vm.exec");
        assert_replays_as(name, spec, &script, &with_bytecode, Lowering::TreeWalk);
        assert_eq!(
            counter("vm.exec"),
            execs_before,
            "spec `{name}`: a tree-walk world executed bytecode"
        );
    }
    // the reference runs really were bytecode
    assert!(
        counter("vm.programs_compiled") > compiled_before,
        "no rule was ever lowered to bytecode"
    );
    // every term in the shipped specs fits the compilable fragment
    assert_eq!(
        counter("vm.fallback"),
        fallback_before,
        "a shipped-spec term unexpectedly fell back to the tree walk"
    );
}
