//! Allocation budgets of a steady-state step, and of whole script
//! lines, on a wide department.
//!
//! A counting global allocator tallies the allocations the current
//! thread makes, so tests running in parallel do not see each other's.
//! On a DEPT of 512 members, after a warm-up, each test asserts the
//! mean number of allocations per step stays within a budget. The
//! budgets are counts (measured, plus under 20 % headroom), not
//! timings: a step that starts deep-copying identities again, or
//! re-encoding values on every monitor probe, trips them on any host.
//!
//! The budgets hold for the shipped engine: bytecode rules
//! (`Lowering::Delta`, what `ObjectBase::new` builds) over structurally
//! shared state, the only representation `StateMap` has.
//!
//! Three shapes are checked as counts too, on any host: a step's
//! allocations barely grow from 4 to 2 048 members or from 4 to 256
//! attributes, and a history of thousands of hire/fire cycles never
//! sends a permission check to the history scan.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use troll::data::{Date, ObjectId, Value};
use troll::runtime::ObjectBase;
use troll::script::run_command;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread locals are torn down
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const MEMBERS: usize = 512;
/// Steps run before counting, and steps counted.
const WARM: usize = 32;
const COUNTED: usize = 64;

fn person(i: usize) -> Value {
    Value::Id(ObjectId::singleton("PERSON", Value::from(format!("q{i}"))))
}

/// A DEPT with `members` persons hired, `q0` first.
fn department(members: usize) -> (ObjectBase, ObjectId) {
    let mut ob = troll::System::load_str(troll::specs::DEPT)
        .unwrap()
        .object_base()
        .unwrap();
    let toys = ob
        .birth(
            "DEPT",
            vec![Value::from("Toys")],
            "establishment",
            vec![Value::Date(Date::new(1991, 10, 16).unwrap())],
        )
        .unwrap();
    for i in 0..members {
        ob.execute(&toys, "hire", vec![person(i)]).unwrap();
    }
    (ob, toys)
}

fn mean(total: u64) -> f64 {
    total as f64 / COUNTED as f64
}

/// `fire(P)` checks its permission through the sliced monitor and
/// removes one identity from the persistent member set.
#[test]
fn fire_stays_within_its_allocation_budget() {
    // measured 39.4
    const BUDGET: f64 = 45.0;
    let (mut ob, toys) = department(MEMBERS + WARM + COUNTED);
    for i in 0..WARM {
        ob.execute(&toys, "fire", vec![person(i)]).unwrap();
    }
    let mut total = 0;
    for i in WARM..WARM + COUNTED {
        let args = vec![person(i)];
        total += allocations(|| {
            ob.execute(&toys, "fire", args).unwrap();
        });
    }
    let per_step = mean(total);
    eprintln!("allocations per execute(fire): {per_step:.1}");
    assert!(
        per_step <= BUDGET,
        "execute(fire) made {per_step:.1} allocations per step, budget {BUDGET}"
    );
}

/// Mean allocations per `run_command` over `COUNTED` lines, after
/// `WARM` lines of the same shape; `line(i)` is the `i`-th line.
fn per_line(ob: &mut ObjectBase, first: usize, line: impl Fn(usize) -> String) -> f64 {
    for i in first..first + WARM {
        run_command(ob, &line(i)).unwrap();
    }
    let mut total = 0;
    for i in first + WARM..first + WARM + COUNTED {
        let line = line(i);
        total += allocations(|| {
            run_command(ob, &line).unwrap();
        });
    }
    mean(total)
}

/// A whole `exec … hire` script line: reading the line and the step.
#[test]
fn hire_line_stays_within_its_allocation_budget() {
    // measured 69.6
    const BUDGET: f64 = 83.0;
    let (mut ob, _) = department(MEMBERS);
    let per_line = per_line(&mut ob, MEMBERS, |i| {
        format!("exec |DEPT|(\"Toys\") hire (|PERSON|(\"q{i}\"))")
    });
    eprintln!("allocations per hire line: {per_line:.1}");
    assert!(
        per_line <= BUDGET,
        "run_command(exec … hire) made {per_line:.1} allocations per line, budget {BUDGET}"
    );
}

/// A whole `exec … fire` script line.
#[test]
fn fire_line_stays_within_its_allocation_budget() {
    // measured 49.4
    const BUDGET: f64 = 58.0;
    let (mut ob, _) = department(MEMBERS + WARM + COUNTED);
    let per_line = per_line(&mut ob, 0, |i| {
        format!("exec |DEPT|(\"Toys\") fire (|PERSON|(\"q{i}\"))")
    });
    eprintln!("allocations per fire line: {per_line:.1}");
    assert!(
        per_line <= BUDGET,
        "run_command(exec … fire) made {per_line:.1} allocations per line, budget {BUDGET}"
    );
}

/// A whole `show` script line: reading the identity and the attribute.
#[test]
fn show_line_stays_within_its_allocation_budget() {
    // measured 6.0
    const BUDGET: f64 = 7.0;
    let (mut ob, _) = department(MEMBERS);
    let per_line = per_line(&mut ob, 0, |_| {
        "show |DEPT|(\"Toys\") employees".to_string()
    });
    eprintln!("allocations per show line: {per_line:.1}");
    assert!(
        per_line <= BUDGET,
        "run_command(show) made {per_line:.1} allocations per line, budget {BUDGET}"
    );
}

/// Mean allocations per `hire` and per `fire` on a DEPT standing at
/// `members`: each round hires a fresh person and fires them again, so
/// the member set stays at `members` while the history grows.
fn hire_fire_allocations(members: usize) -> (f64, f64) {
    let (mut ob, toys) = department(members);
    let mut round = |i: usize| {
        let (hire, fire) = (vec![person(1_000_000 + i)], vec![person(1_000_000 + i)]);
        let hired = allocations(|| {
            ob.execute(&toys, "hire", hire).unwrap();
        });
        let fired = allocations(|| {
            ob.execute(&toys, "fire", fire).unwrap();
        });
        (hired, fired)
    };
    for i in 0..WARM {
        round(i);
    }
    let (mut hires, mut fires) = (0, 0);
    for i in WARM..WARM + COUNTED {
        let (hired, fired) = round(i);
        hires += hired;
        fires += fired;
    }
    (mean(hires), mean(fires))
}

/// A step's cost is flat in the size of the collections it updates:
/// `insert`/`remove` on the persistent member sets copy one tree path,
/// so growing the department 512-fold adds only that path's depth.
#[test]
fn hire_and_fire_allocations_stay_flat_in_membership() {
    // measured hire 49.2 → 60.2, fire 33.0 → 40.0
    const GROWTH: f64 = 1.25;
    let (hire_small, fire_small) = hire_fire_allocations(4);
    let (hire_wide, fire_wide) = hire_fire_allocations(2048);
    eprintln!("allocations per hire {hire_small:.1} → {hire_wide:.1}, per fire {fire_small:.1} → {fire_wide:.1}");
    assert!(
        hire_wide <= GROWTH * hire_small,
        "hire made {hire_wide:.1} allocations at 2048 members against {hire_small:.1} at 4"
    );
    assert!(
        fire_wide <= GROWTH * fire_small,
        "fire made {fire_wide:.1} allocations at 2048 members against {fire_small:.1} at 4"
    );
}

/// A one-class spec whose state map holds `counter` and `width` more
/// (never set) integer attributes, born once.
fn wide_counter(width: usize) -> (ObjectBase, ObjectId) {
    let attrs: String = (0..width).map(|i| format!("a{i}: int; ")).collect();
    let spec = format!(
        "object class WIDE
  identification id: string;
  template
    attributes counter: int; {attrs}
    events birth create; bump;
    valuation
      [create] counter = 0;
      [bump] counter = counter + 1;
end object class WIDE;"
    );
    let mut ob = troll::System::load_str(&spec)
        .unwrap()
        .object_base()
        .unwrap();
    let wide = ob
        .birth("WIDE", vec![Value::from("w")], "create", vec![])
        .unwrap();
    (ob, wide)
}

/// Every step snapshots the whole attribute map into the trace; with
/// structurally shared state that costs one path copy, so a 64-fold
/// wider map adds only the path's depth to a one-attribute update.
#[test]
fn bump_allocations_stay_flat_in_attribute_width() {
    // measured 18.0 at 4 attributes, 24.0 at 256
    const GROWTH: f64 = 1.5;
    let per_bump = |width| {
        let (mut ob, wide) = wide_counter(width);
        for _ in 0..WARM {
            ob.execute(&wide, "bump", vec![]).unwrap();
        }
        let total = (0..COUNTED)
            .map(|_| allocations(|| drop(ob.execute(&wide, "bump", vec![]).unwrap())))
            .sum();
        mean(total)
    };
    let (narrow, wide) = (per_bump(4), per_bump(256));
    eprintln!("allocations per bump: {narrow:.1} at 4 attributes, {wide:.1} at 256");
    assert!(
        wide <= GROWTH * narrow,
        "bump made {wide:.1} allocations at 256 attributes against {narrow:.1} at 4"
    );
}

/// However long the history, every `fire` permission is answered by its
/// sliced monitor and never by a history scan, and so is the quantified
/// `closure` permission over everyone ever hired.
#[test]
fn deep_history_checks_never_fall_back_to_a_scan() {
    for cycles in [8, 4096] {
        let (mut ob, toys) = department(0);
        for _ in 0..cycles {
            ob.execute(&toys, "hire", vec![person(0)]).unwrap();
            ob.execute(&toys, "fire", vec![person(0)]).unwrap();
        }
        let before = ob.monitor_cache_stats();
        for i in 0..COUNTED {
            ob.execute(&toys, "hire", vec![person(i)]).unwrap();
            ob.execute(&toys, "fire", vec![person(i)]).unwrap();
        }
        let after = ob.monitor_cache_stats();
        assert_eq!(after.fallbacks, 0, "{cycles} cycles: {after}");
        assert!(
            after.hits >= before.hits + COUNTED as u64,
            "{cycles} cycles: {COUNTED} fires moved the hits from {before} to {after}"
        );
        ob.execute(&toys, "closure", vec![]).unwrap();
        assert_eq!(
            ob.monitor_cache_stats().fallbacks,
            0,
            "{cycles} cycles: closure"
        );
    }
}
