//! Differential property tests for the runtime's incremental monitor
//! cache: with the cache on (default) and off (forced history scans),
//! random event scripts must produce decision-for-decision identical
//! behaviour — same grants, same refusals (including mid-transaction
//! rollbacks), same observable states and histories.

use proptest::prelude::*;
use troll::data::{ObjectId, Value};
use troll::runtime::MonitorCacheStats;
use troll::System;

/// A DEPT-flavoured class tailored to stress every cache path:
/// * `fire`'s permission is one sliced monitor over `P`;
/// * `closure`'s quantified permission is a sliced monitor folded over
///   `hired_ever` at check time;
/// * the static constraint is a cacheable recurring check and refuses
///   over-hiring, exercising constraint-driven rollback;
/// * `swap` calls `fire; hire` synchronously, so one refused sub-event
///   rolls back a multi-occurrence transaction.
const SPEC: &str = r#"
object class DEPT
  identification id: string;
  data types |PERSON|, set(|PERSON|);
  template
    attributes
      employees: set(|PERSON|);
      hired_ever: set(|PERSON|);
    events
      birth establishment;
      death closure;
      hire(|PERSON|);
      fire(|PERSON|);
      swap(|PERSON|, |PERSON|);
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [establishment] hired_ever = {};
      [hire(P)] employees = insert(P, employees);
      [hire(P)] hired_ever = insert(P, hired_ever);
      [fire(P)] employees = remove(P, employees);
    constraints
      static card(employees) <= 3;
    interaction
      variables P: |PERSON|; Q: |PERSON|;
      swap(P, Q) >> (fire(P); hire(Q));
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { for all(P in hired_ever : sometime(after(fire(P)))) } closure;
end object class DEPT;
"#;

/// [`SPEC`] with `closure` guarded by an `exists` permission: some
/// person ever hired has been fired.
fn exists_spec() -> String {
    SPEC.replace("for all(P in hired_ever", "exists(P in hired_ever")
}

/// Persons the wide prefix hires and fires before the random script:
/// more than the cache's 128 per-instance grounded entries.
const WIDE: u16 = 140;

fn person(n: u16) -> Value {
    Value::Id(ObjectId::new("PERSON", vec![Value::from(format!("p{n}"))]))
}

#[derive(Debug, Clone)]
enum Op {
    Hire(u16),
    Fire(u16),
    Swap(u16, u16),
    Closure,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..5).prop_map(Op::Hire),
        (0u16..5).prop_map(Op::Fire),
        (0u16..5, 0u16..5).prop_map(|(a, b)| Op::Swap(a, b)),
        Just(Op::Closure),
    ]
}

fn fresh_dept(cache_enabled: bool) -> (troll::runtime::ObjectBase, ObjectId) {
    fresh_dept_of(SPEC, cache_enabled)
}

fn fresh_dept_of(spec: &str, cache_enabled: bool) -> (troll::runtime::ObjectBase, ObjectId) {
    let system = System::load_str(spec).unwrap();
    let mut ob = system.object_base().unwrap();
    ob.set_monitor_cache_enabled(cache_enabled);
    let id = ob
        .birth("DEPT", vec![Value::from("D")], "establishment", vec![])
        .unwrap();
    (ob, id)
}

/// Lock-step execution of the same script against a cached and an
/// uncached object base of `spec`: every decision, error message,
/// observation and trace length must match, whatever mixture of
/// grants, permission refusals, constraint violations and multi-event
/// rollbacks the script produces. Returns the cached base's stats.
fn lockstep(spec: &str, ops: &[Op]) -> Result<MonitorCacheStats, TestCaseError> {
    let (mut cached, id) = fresh_dept_of(spec, true);
    let (mut scan, id_s) = fresh_dept_of(spec, false);
    prop_assert_eq!(&id, &id_s);

    for op in ops {
        let run = |ob: &mut troll::runtime::ObjectBase| match op {
            Op::Hire(n) => ob.execute(&id, "hire", vec![person(*n)]),
            Op::Fire(n) => ob.execute(&id, "fire", vec![person(*n)]),
            Op::Swap(a, b) => ob.execute(&id, "swap", vec![person(*a), person(*b)]),
            Op::Closure => ob.execute(&id, "closure", vec![]),
        };
        let rc = run(&mut cached);
        let rs = run(&mut scan);
        match (&rc, &rs) {
            (Ok(a), Ok(b)) => prop_assert_eq!(&a.occurrences, &b.occurrences),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(
                false,
                "decision divergence on {:?}: cached={:?} scan={:?}",
                op,
                rc,
                rs
            ),
        }
        for attr in ["employees", "hired_ever"] {
            prop_assert_eq!(
                cached.attribute(&id, attr).unwrap(),
                scan.attribute(&id, attr).unwrap(),
                "attribute {} diverged after {:?}",
                attr,
                op
            );
        }
        let (ci, si) = (cached.instance(&id).unwrap(), scan.instance(&id).unwrap());
        prop_assert_eq!(ci.trace().len(), si.trace().len());
        prop_assert_eq!(ci.is_alive(), si.is_alive());
        if !ci.is_alive() {
            break;
        }
    }
    // the scan base never consults monitors; the cached one decides
    // every check through the cache (monitor answer or counted
    // fallback)
    let (cs, ss) = (cached.monitor_cache_stats(), scan.monitor_cache_stats());
    prop_assert_eq!(ss.hits, 0);
    prop_assert!(cs.hits + cs.fallbacks > 0);
    Ok(cs)
}

/// Hires and fires [`WIDE`] distinct persons (ids from 100 up, apart
/// from the random scripts' 0..5), then runs `ops`.
fn wide(ops: Vec<Op>) -> Vec<Op> {
    (100..100 + WIDE)
        .flat_map(|n| [Op::Hire(n), Op::Fire(n)])
        .chain(ops)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random scripts decide identically with the cache on and off.
    #[test]
    fn cache_and_scan_agree_on_random_scripts(ops in proptest::collection::vec(arb_op(), 1..50)) {
        lockstep(SPEC, &ops)?;
    }

    /// The same after more distinct persons than the cache's per-instance
    /// capacity for grounded monitors: sliced monitors have no such cap,
    /// so nothing falls back.
    #[test]
    fn cache_and_scan_agree_past_capacity(ops in proptest::collection::vec(arb_op(), 1..30)) {
        let stats = lockstep(SPEC, &wide(ops))?;
        prop_assert_eq!(stats.fallbacks, 0);
    }

    /// The same with `closure` guarded by an `exists` permission.
    #[test]
    fn cache_and_scan_agree_with_exists_permission(
        ops in proptest::collection::vec(arb_op(), 1..50)
    ) {
        let stats = lockstep(&exists_spec(), &ops)?;
        prop_assert_eq!(stats.fallbacks, 0);
    }
}

/// A scripted session pinning down the cache's observable behaviour:
/// monitorable checks are answered by monitors (hits), the quantified
/// `closure` permission is answered by its sliced monitor rather than
/// falling back to the scan path, and death drops the instance's
/// entries.
#[test]
fn scripted_session_exercises_hits_and_fallbacks() {
    let (mut ob, id) = fresh_dept(true);

    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    // first fire(p0): cache miss, replay, monitor answers
    ob.execute(&id, "fire", vec![person(0)]).unwrap();
    let after_first = ob.monitor_cache_stats();
    assert!(after_first.misses > 0, "first check must create entries");
    assert!(
        after_first.hits > 0,
        "monitorable check must be answered by a monitor"
    );

    // same grounded check again: pure hit, no new entry
    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    ob.execute(&id, "fire", vec![person(0)]).unwrap();
    let after_second = ob.monitor_cache_stats();
    assert!(after_second.hits > after_first.hits);

    // fire(p1) was never permitted — the refusal must also come from
    // the monitor, and the rolled-back step must not advance monitors
    // (witnessed by the follow-up checks still agreeing with history)
    assert!(ob.execute(&id, "fire", vec![person(1)]).is_err());
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());

    // the quantified closure permission is a sliced monitor: a hit
    // with no fallback (and here it succeeds, killing the instance and
    // invalidating its entries)
    let before_closure = ob.monitor_cache_stats();
    ob.execute(&id, "closure", vec![]).unwrap();
    let after_closure = ob.monitor_cache_stats();
    assert!(
        after_closure.hits > before_closure.hits,
        "quantified permission must be answered by its monitor"
    );
    assert_eq!(
        after_closure.fallbacks, before_closure.fallbacks,
        "quantified permission must not fall back to the scan evaluator"
    );
    assert!(
        after_closure.invalidations > before_closure.invalidations,
        "death must drop the instance's cache entries"
    );
}

/// A refused sub-event of a synchronous transaction rolls the whole
/// step back; the cache must neither observe the aborted step nor
/// diverge from the scan afterwards.
#[test]
fn multi_event_rollback_leaves_cache_consistent() {
    let (mut ob, id) = fresh_dept(true);
    let (mut scan, _) = fresh_dept(false);

    for base in [&mut ob, &mut scan] {
        base.execute(&id, "hire", vec![person(0)]).unwrap();
        // swap calls fire(p1); hire(p2) — fire(p1) is refused, so the
        // whole transaction (including the otherwise-fine hire) aborts
        assert!(base
            .execute(&id, "swap", vec![person(1), person(2)])
            .is_err());
        // p2 must NOT have been hired by the aborted transaction
        assert!(base.execute(&id, "fire", vec![person(2)]).is_err());
        // a successful swap afterwards: fire(p0) permitted, hire(p1)
        assert!(base
            .execute(&id, "swap", vec![person(0), person(1)])
            .is_ok());
        assert!(base.execute(&id, "fire", vec![person(1)]).is_ok());
    }

    for attr in ["employees", "hired_ever"] {
        assert_eq!(
            ob.attribute(&id, attr).unwrap(),
            scan.attribute(&id, attr).unwrap()
        );
    }
    assert_eq!(
        ob.instance(&id).unwrap().trace().len(),
        scan.instance(&id).unwrap().trace().len()
    );
    assert!(ob.monitor_cache_stats().hits > 0);
}

/// Disabling the cache mid-life drops state; re-enabling rebuilds
/// monitors lazily from the committed trace with identical answers.
#[test]
fn toggle_rebuilds_from_committed_history() {
    let (mut ob, id) = fresh_dept(true);
    ob.execute(&id, "hire", vec![person(0)]).unwrap();
    ob.execute(&id, "fire", vec![person(0)]).unwrap();

    ob.set_monitor_cache_enabled(false);
    assert!(!ob.monitor_cache_enabled());
    // scan path only
    assert!(ob.execute(&id, "fire", vec![person(1)]).is_err());
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());

    ob.set_monitor_cache_enabled(true);
    let before = ob.monitor_cache_stats();
    // replayed from the full committed trace, same verdicts as ever
    assert!(ob.execute(&id, "fire", vec![person(0)]).is_ok());
    assert!(ob.execute(&id, "fire", vec![person(3)]).is_err());
    assert!(ob.monitor_cache_stats().hits > before.hits);
}
