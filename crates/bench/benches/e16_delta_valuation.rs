//! E16 — delta valuation: incremental collection updates.
//!
//! The scaling dimension is **collection size**, which member-churn
//! workloads grow with history: a department standing at `n` distinct
//! members holds `n`-element `employees`/`hired_ever` sets, and each
//! further hire/fire updates them. Before this change (BTree payloads
//! cloned whole per update) the step cost grew with `n`; with
//! persistent collections plus delta-lowered valuation rules
//! (`employees = insert(P, employees)` becomes an O(log n) in-place
//! update) it must stay flat.
//!
//! Two harnesses:
//!
//! * **Criterion group**: hire/fire at the shallow and deep ends
//!   (4 and 2048 standing members), each in both configurations — the
//!   model compiled under `Lowering::Delta` (the shipped engine) and
//!   under `Lowering::Recompute`, which pins every valuation rule to
//!   the full-recompute oracle.
//! * **Report harness**: sweeps 4 → 2048 members, prints the median
//!   hire+fire latency per width, asserts the flat-cost shape (the
//!   deep end at most 2× the shallow end) and the counter contract on
//!   the shipped delta-shaped spec (`valuation.delta_applied > 0`,
//!   `valuation.recomputed == 0`).
//!
//! Smoke mode (`TROLL_BENCH_SMOKE=1`) shrinks the sample counts and
//! the sweep churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use troll::runtime::Lowering;
use troll_bench::{dept_base_members, dept_base_members_lowered, person};

fn bench_growing_membership(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_delta_valuation");
    group.sample_size(10);
    for members in [4usize, 2048] {
        for (label, lowering) in [
            ("hire_fire_delta", Lowering::Delta),
            ("hire_fire_recompute", Lowering::Recompute),
        ] {
            // One base serves every sample — hire+fire of the same
            // person keeps the standing membership at exactly `n` while
            // only the trace grows, which is precisely the flat-cost
            // claim under test (rebuilding a 2048-member base per
            // iteration would bury the measurement in setup).
            let (mut ob, dept) = dept_base_members_lowered(members, lowering);
            // warm the monitor-cache entries outside the measurement,
            // exactly as e15 does
            ob.execute(&dept, "hire", vec![person(999_999)])
                .expect("hire succeeds");
            ob.execute(&dept, "fire", vec![person(999_999)])
                .expect("permitted");
            group.bench_with_input(BenchmarkId::new(label, members), &members, |b, _| {
                b.iter(|| {
                    ob.execute(&dept, "hire", vec![person(999_999)])
                        .expect("hire succeeds");
                    ob.execute(&dept, "fire", vec![person(999_999)])
                        .expect("permitted");
                    black_box(ob.steps_executed());
                })
            });
        }
    }
    group.finish();
}

/// Not a timing sample: sweeps 4 → 2048 standing members, prints the
/// median hire/fire latency per width, and asserts the flat-cost shape
/// the delta path exists to provide — the deep end must cost at most
/// 2× the shallow end. (Each sweep point churns the same extra
/// hire/fire pair, so membership stays fixed at `n` while only the
/// trace grows by `2 × rounds` steps at every width alike.)
fn report_flat_membership(_c: &mut Criterion) {
    let smoke = std::env::var_os("TROLL_BENCH_SMOKE").is_some();
    let rounds = if smoke { 40 } else { 200 };
    let mut medians = Vec::new();
    for members in [4usize, 32, 256, 2048] {
        let (mut ob, dept) = dept_base_members(members);
        ob.execute(&dept, "hire", vec![person(999_999)])
            .expect("hire succeeds");
        ob.execute(&dept, "fire", vec![person(999_999)])
            .expect("permitted");
        let mut samples: Vec<u64> = (0..rounds)
            .map(|_| {
                let t = Instant::now();
                ob.execute(&dept, "hire", vec![person(999_999)])
                    .expect("hire succeeds");
                ob.execute(&dept, "fire", vec![person(999_999)])
                    .expect("permitted");
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        eprintln!("e16 members {members:>5}: median hire+fire = {median} ns");
        medians.push((members, median));

        if members == 2048 {
            // counter contract on the shipped delta-shaped spec
            let snap = ob.metrics().snapshot();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            assert!(
                counter("valuation.delta_applied") > 0,
                "no delta was applied on the dept churn"
            );
            assert_eq!(
                counter("valuation.recomputed"),
                0,
                "a delta-shaped rule fell back to full recompute"
            );
        }
    }
    let shallow = medians.first().expect("swept").1.max(1);
    let deep = medians.last().expect("swept").1;
    assert!(
        deep <= 2 * shallow,
        "step cost grew with membership: {deep} ns at 2048 vs {shallow} ns at 4 (> 2x)"
    );
}

criterion_group!(benches, bench_growing_membership, report_flat_membership);
criterion_main!(benches);
