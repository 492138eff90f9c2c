//! Runtime-level replay tests for the persistent state representation.
//!
//! The trace a run produces must be identical — step for step, state
//! for state — whichever way the engine answers temporal checks
//! (monitor cache on or off). `StateMap` has one representation, the
//! persistent tree; its contents are checked against `BTreeMap` by
//! `troll-data`'s differential proptests.
//!
//! They also pin the property the persistent snapshots exist for:
//! earlier trace steps keep observing their own historical state after
//! the live map moves on.

use proptest::prelude::*;
use troll::data::{ObjectId, StateMap, Value};
use troll::runtime::ObjectBase;
use troll::System;

/// DEPT-like spec mixing set-valued and scalar attributes, a
/// monitorable permission (exercises the cache), and a constraint.
const SPEC: &str = r#"
object class DEPT
  identification id: string;
  template
    attributes
      employees: set(|PERSON|);
      hired_ever: set(|PERSON|);
      counter: int;
    events
      birth establishment;
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
      bump;
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [establishment] hired_ever = {};
      [establishment] counter = 0;
      [hire(P)] employees = insert(P, employees);
      [hire(P)] hired_ever = insert(P, hired_ever);
      [fire(P)] employees = remove(P, employees);
      [bump] counter = counter + 1;
    constraints
      static card(employees) <= 3;
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
end object class DEPT;
"#;

fn person(n: u8) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{n}"))]))
}

fn fresh_dept(cache_enabled: bool) -> (ObjectBase, ObjectId) {
    let system = System::load_str(SPEC).unwrap();
    let mut ob = system.object_base().unwrap();
    ob.set_monitor_cache_enabled(cache_enabled);
    let id = ob
        .birth("DEPT", vec![Value::from("D")], "establishment", vec![])
        .unwrap();
    (ob, id)
}

#[derive(Debug, Clone)]
enum Op {
    Hire(u8),
    Fire(u8),
    Bump,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5).prop_map(Op::Hire),
        (0u8..5).prop_map(Op::Fire),
        Just(Op::Bump),
    ]
}

fn run_op(ob: &mut ObjectBase, id: &ObjectId, op: &Op) -> Result<(), String> {
    let r = match op {
        Op::Hire(n) => ob.execute(id, "hire", vec![person(*n)]),
        Op::Fire(n) => ob.execute(id, "fire", vec![person(*n)]),
        Op::Bump => ob.execute(id, "bump", vec![]),
    };
    r.map(|_| ()).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Monitor cache on vs off must yield byte-identical traces — the
    /// same events at every position AND the same state observation at
    /// every position (deep-compared via `to_btree`, so this holds for
    /// whichever representation backs the map).
    #[test]
    fn traces_identical_with_cache_on_and_off(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let (mut cached, id) = fresh_dept(true);
        let (mut scan, _) = fresh_dept(false);
        for op in &ops {
            let rc = run_op(&mut cached, &id, op);
            let rs = run_op(&mut scan, &id, op);
            prop_assert_eq!(&rc, &rs, "decision diverged on {:?}", op);
        }
        let tc = cached.instance(&id).unwrap().trace();
        let ts = scan.instance(&id).unwrap().trace();
        prop_assert_eq!(tc.len(), ts.len());
        for (i, (a, b)) in tc.iter().zip(ts.iter()).enumerate() {
            prop_assert_eq!(&a.events, &b.events, "events diverged at step {}", i);
            prop_assert_eq!(
                a.state.to_btree(),
                b.state.to_btree(),
                "state observation diverged at step {}", i
            );
        }
    }

    /// Persistence: the state observation recorded at each step must be
    /// exactly the state the object had when that step committed, no
    /// matter how much the live state changed afterwards. (With eager
    /// copies this is trivially true; with structural sharing it is the
    /// property path-copying must preserve.)
    #[test]
    fn historical_steps_keep_their_own_observations(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let (mut ob, id) = fresh_dept(true);
        // expected[i] = deep copy of the state right after trace step i
        let mut expected = vec![ob.instance(&id).unwrap().trace().last().unwrap().state.to_btree()];
        for op in &ops {
            let before = ob.instance(&id).unwrap().trace().len();
            let _ = run_op(&mut ob, &id, op);
            let inst = ob.instance(&id).unwrap();
            if inst.trace().len() > before {
                expected.push(inst.trace().last().unwrap().state.to_btree());
            }
        }
        let trace = ob.instance(&id).unwrap().trace();
        prop_assert_eq!(trace.len(), expected.len());
        for (i, want) in expected.iter().enumerate() {
            prop_assert_eq!(
                &trace.step(i).unwrap().state.to_btree(),
                want,
                "step {} no longer observes its own state", i
            );
        }
    }
}

/// Consecutive steps that did not touch an attribute share it: the
/// current state handle taken before an update still sees the old
/// value afterwards (`Trace::current_state` is a snapshot, not a live
/// reference).
#[test]
fn current_state_is_a_stable_snapshot() {
    let (mut ob, id) = fresh_dept(true);
    ob.execute(&id, "bump", vec![]).unwrap();
    let snap: StateMap = ob.instance(&id).unwrap().trace().current_state();
    assert_eq!(snap.get("counter"), Some(&Value::from(1)));
    for _ in 0..5 {
        ob.execute(&id, "bump", vec![]).unwrap();
    }
    assert_eq!(snap.get("counter"), Some(&Value::from(1)));
    assert_eq!(
        ob.instance(&id)
            .unwrap()
            .trace()
            .current_state()
            .get("counter"),
        Some(&Value::from(6))
    );
}

/// The hot path takes shared-root clones: after a run, the process-wide
/// sharing counter must have moved.
#[test]
fn shared_clone_counter_is_nonzero_after_a_run() {
    let before = troll::obs::global().counter("state.clone_shared").get();
    let (mut ob, id) = fresh_dept(true);
    for i in 0..3 {
        ob.execute(&id, "hire", vec![person(i)]).unwrap();
        ob.execute(&id, "bump", vec![]).unwrap();
    }
    let after = troll::obs::global().counter("state.clone_shared").get();
    assert!(
        after > before,
        "expected shared-root clones on the execute path ({before} -> {after})"
    );
}
