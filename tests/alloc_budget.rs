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
