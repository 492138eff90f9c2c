//! Replay-equality oracle for delta valuation: every shipped spec is
//! replayed in worlds compiled under `Lowering::Delta` and
//! `Lowering::Recompute` (monitor cache on and off) and each transcript
//! must equal the shipped configuration's line for line
//! (`engine_harness.rs`).
//!
//! The per-base valuation counters split exactly by lowering, and a
//! property test replays random insert/remove/append churn (hire/fire
//! on a set, note/wipe on a list) with refused events mixed in — each
//! refusal rolls the step back mid-sequence — comparing the delta
//! world with its recompute and tree-walk twins instance by instance.

#[path = "engine_harness.rs"]
mod engine_harness;
#[path = "spec_workloads.rs"]
mod spec_workloads;

use engine_harness::{assert_replays_as, reference_transcript};
use proptest::prelude::*;
use spec_workloads::workloads;
use troll::data::{Date, ObjectId, Value};
use troll::runtime::{Lowering, ObjectBase};
use troll::script::run_command;

/// A fresh world of `spec` compiled under `lowering`, monitor cache on.
fn base(spec: &str, lowering: Lowering) -> ObjectBase {
    engine_harness::base(spec, lowering, true)
}

/// The 7-spec replay equality: delta-compiled and recompute-compiled
/// runs reproduce the shipped transcript, with the monitor cache on and
/// off.
#[test]
fn delta_and_recompute_replays_agree() {
    for (name, spec, script) in workloads() {
        let expected = reference_transcript(name, spec, &script);
        for lowering in [Lowering::Delta, Lowering::Recompute] {
            assert_replays_as(name, spec, &script, &expected, lowering);
        }
    }
}

/// `valuation.delta_applied` and `valuation.recomputed` of a base.
fn delta_counters(ob: &ObjectBase) -> (u64, u64) {
    let snap = ob.metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    (
        counter("valuation.delta_applied"),
        counter("valuation.recomputed"),
    )
}

/// The per-base counters split exactly by lowering: the shipped engine
/// applies every delta-shaped rule incrementally
/// (`valuation.recomputed == 0`); the recompute and tree-walk oracles
/// recompute every one (`valuation.delta_applied == 0`).
#[test]
fn delta_counters_split_by_configuration() {
    let (_, spec, script) = workloads().remove(0); // dept: all churn rules are delta-shaped
    for lowering in Lowering::ALL {
        let mut ob = base(spec, lowering);
        for line in &script {
            let _ = run_command(&mut ob, line);
        }
        let (applied, recomputed) = delta_counters(&ob);
        if lowering == Lowering::Delta {
            assert!(applied > 0, "no delta was ever applied on the dept spec");
            assert_eq!(recomputed, 0, "a delta-shaped rule fell back to recompute");
        } else {
            assert_eq!(applied, 0, "{lowering:?} applied deltas");
            assert!(recomputed > 0, "{lowering:?} never took the recompute path");
        }
    }
}

/// Random churn corpus: a DEPT-style class whose permissions refuse
/// fires of never-hired persons and closure while staff remain (each
/// refusal rolls back mid-sequence), plus a singleton log exercising
/// the `append` delta and whole-collection resets.
const CHURN_SPEC: &str = r#"
object class DEPT
  identification id: string;
  data types date, |PERSON|, set(|PERSON|);
  template
    attributes
      employees: set(|PERSON|);
      hired_ever: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] employees = {};
      [establishment(d)] hired_ever = {};
      [hire(P)] employees = insert(P, employees);
      [hire(P)] hired_ever = insert(P, hired_ever);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { for all(P in hired_ever : sometime(after(fire(P)))) } closure;
end object class DEPT;

object log
  template
    data types int, list(int);
    attributes
      entries: list(int);
    events
      birth open;
      note(int);
      wipe;
    valuation
      variables n: int;
      [open] entries = [];
      [note(n)] entries = append(n, entries);
      [wipe] entries = [];
end object log;
"#;

#[derive(Debug, Clone)]
enum ChurnOp {
    Hire(i64),
    Fire(i64),
    Closure,
    Note(i64),
    Wipe,
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        (0i64..4).prop_map(ChurnOp::Hire),
        (0i64..4).prop_map(ChurnOp::Fire),
        Just(ChurnOp::Closure),
        (0i64..100).prop_map(ChurnOp::Note),
        Just(ChurnOp::Wipe),
    ]
}

fn churn_base(lowering: Lowering) -> ObjectBase {
    let mut ob = base(CHURN_SPEC, lowering);
    ob.birth(
        "DEPT",
        vec![Value::from("D")],
        "establishment",
        vec![Value::Date(Date::new(1991, 10, 16).unwrap())],
    )
    .expect("dept births");
    ob.execute(&ObjectId::new("log", vec![]), "open", vec![])
        .expect("log opens");
    ob
}

/// Applies one op, rendering success as the occurrence count and
/// refusal as the error text (the refused step has rolled back).
fn apply(ob: &mut ObjectBase, op: &ChurnOp) -> Result<usize, String> {
    let dept = ObjectId::new("DEPT", vec![Value::from("D")]);
    let log = ObjectId::new("log", vec![]);
    let person = |n: i64| Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{n}"))]));
    match op {
        ChurnOp::Hire(p) => ob.execute(&dept, "hire", vec![person(*p)]),
        ChurnOp::Fire(p) => ob.execute(&dept, "fire", vec![person(*p)]),
        ChurnOp::Closure => ob.execute(&dept, "closure", vec![]),
        ChurnOp::Note(n) => ob.execute(&log, "note", vec![Value::from(*n)]),
        ChurnOp::Wipe => ob.execute(&log, "wipe", vec![]),
    }
    .map(|report| report.occurrences.len())
    .map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delta-applied, full-recompute and tree-walk runs agree step by
    /// step (occurrence counts and refusal messages) and end in
    /// identical worlds, on random insert/remove/append sequences with
    /// refused events rolling back mid-sequence.
    #[test]
    fn delta_matches_recompute_on_random_churn(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut worlds = Lowering::ALL.map(|lowering| (lowering, churn_base(lowering)));
        for (i, op) in ops.iter().enumerate() {
            let [(_, delta), oracles @ ..] = &mut worlds;
            let expected = apply(delta, op);
            for (lowering, oracle) in oracles {
                prop_assert_eq!(
                    &apply(oracle, op), &expected,
                    "step {} ({:?}) diverged under {:?}", i, op, lowering
                );
            }
        }

        let [(_, delta), oracles @ ..] = &worlds;
        prop_assert_eq!(delta_counters(delta).1, 0, "a delta-shaped rule recomputed");
        let left: Vec<_> = delta.instances().collect();
        for (lowering, oracle) in oracles {
            prop_assert_eq!(delta_counters(oracle).0, 0, "{:?} applied a delta", lowering);
            let right: Vec<_> = oracle.instances().collect();
            prop_assert_eq!(left.len(), right.len(), "instance count diverged");
            for (x, y) in left.iter().zip(&right) {
                prop_assert_eq!(x, y, "instance {} diverged under {:?}", y.id(), lowering);
            }
        }
    }
}
