//! Kill-and-recover differential over every shipped spec: run a
//! workload with the durable sink attached, then cut the log at every
//! frame boundary (clean and torn) and prove recovery rebuilds exactly
//! the world an uninterrupted run of the same prefix produces.
//!
//! Also pins the group-commit boundary: `group:1` is indistinguishable
//! from `every-commit`, a wider window bounds the unacknowledged tail,
//! and a crash at the durable boundary recovers exactly the covered
//! prefix.

use std::fs;
use std::path::{Path, PathBuf};

use troll::runtime::ObjectBase;
use troll::script::run_script;
use troll::store::wal::scan_wal;
use troll::store::{open_world, recover, world_dump, DurableSink, FsyncPolicy, StoreOptions};
use troll::System;

#[path = "workloads.rs"]
mod workloads;
use workloads::workload;

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("troll-durability-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

/// Runs one workload durably and closes clean.
fn run_durable(dir: &Path, spec: &str, script: &str) -> ObjectBase {
    let (mut base, store, info) =
        open_world(dir, spec, &StoreOptions::default()).expect("open_world");
    assert_eq!(info.replayed, 0, "fresh directory");
    let (sink, shared) = DurableSink::new(store);
    base.set_step_sink(Box::new(sink));
    run_script(&mut base, script).expect("workload");
    shared
        .lock()
        .expect("store lock")
        .close(&base)
        .expect("clean close");
    base
}

fn assert_same_world(what: &str, a: &ObjectBase, b: &ObjectBase) {
    assert_eq!(a.steps_executed(), b.steps_executed(), "{what}: step count");
    assert_eq!(world_dump(a), world_dump(b), "{what}: world state");
}

fn delete_snapshots(dir: &Path) {
    for snap in troll::store::snapshot::snapshot_paths(dir).unwrap() {
        fs::remove_file(snap).unwrap();
    }
}

/// The heart of the differential: cut the WAL at every frame boundary —
/// both cleanly and with a torn 5-byte partial frame — and check the
/// recovered world against a fresh replay of the same prefix.
fn cut_sweep(name: &str) {
    let (spec, script) = workload(name);
    let dir = scratch(&format!("cut-{name}"));
    let live = run_durable(&dir, spec, script);

    // full recovery from snapshot first
    let (recovered, _) = recover(&dir).expect("full recover");
    assert_same_world("full (snapshot)", &live, &recovered);

    // WAL-only from here on: every cut must land on a replayable prefix
    delete_snapshots(&dir);
    let scan = scan_wal(&dir).unwrap();
    let n = scan.records.len();
    assert!(n >= 5, "{name}: workload too small ({n} steps)");
    let segment = scan.records[0].segment.clone();
    assert!(
        scan.records.iter().all(|r| r.segment == segment),
        "{name}: default segment size keeps the workload in one file"
    );
    let pristine = fs::read(&segment).unwrap();

    // oracle worlds: an uninterrupted run of the first c steps
    let oracles: Vec<ObjectBase> = (0..=n)
        .map(|c| {
            let mut base = System::load_str(spec).unwrap().object_base().unwrap();
            for rec in &scan.records[..c] {
                base.replay_step(rec.initial.clone())
                    .expect("oracle replay");
            }
            base
        })
        .collect();
    assert_same_world(&format!("{name}: oracle n"), &live, &oracles[n]);

    let magic = troll::store::wal::WAL_MAGIC.len() as u64;
    for (c, oracle) in oracles.iter().enumerate() {
        let end = if c == 0 {
            magic
        } else {
            scan.records[c - 1].end_offset
        };
        // clean cut exactly at a frame boundary
        fs::write(&segment, &pristine[..end as usize]).unwrap();
        let (world, info) = recover(&dir).unwrap_or_else(|e| panic!("{name} cut {c}: {e}"));
        assert_eq!(info.replayed as usize, c, "{name} cut {c}");
        assert_eq!(info.truncated_bytes, 0, "{name} cut {c}");
        assert_same_world(&format!("{name} clean cut {c}"), oracle, &world);

        // torn cut: the next frame started but never finished
        if c < n {
            fs::write(&segment, &pristine[..end as usize + 5]).unwrap();
            let (world, info) = recover(&dir).unwrap_or_else(|e| panic!("{name} torn {c}: {e}"));
            assert_eq!(info.replayed as usize, c, "{name} torn {c}");
            assert_eq!(info.truncated_bytes, 5, "{name} torn {c}");
            assert_same_world(&format!("{name} torn cut {c}"), oracle, &world);
        }
    }
    fs::write(&segment, &pristine).unwrap();
}

macro_rules! durability_suite {
    ($($name:ident),* $(,)?) => {$(
        mod $name {
            #[test]
            fn survives_any_cut() {
                super::cut_sweep(stringify!($name));
            }
        }
    )*};
}

durability_suite!(dept, company, employment, views, modules, library, clock);

/// Group-commit boundary properties at the store level. The serve
/// layer's ack deferral rides on these: a window of `n` means at most
/// `n` *unacknowledged* steps are exposed to a crash, and `group:1`
/// collapses to `every-commit` exactly.
mod group_commit {
    use super::*;

    /// Runs the workload durably under `opts` and returns the live
    /// world plus the store figures captured *before* the closing sync.
    fn run_with(
        dir: &Path,
        spec: &str,
        script: &str,
        opts: &StoreOptions,
    ) -> (ObjectBase, troll::store::StoreFigures) {
        let (mut base, store, _) = open_world(dir, spec, opts).expect("open_world");
        let (sink, shared) = DurableSink::new(store);
        base.set_step_sink(Box::new(sink));
        run_script(&mut base, script).expect("workload");
        let mut store = shared.lock().expect("store lock");
        let figures = store.figures();
        store.close(&base).expect("clean close");
        drop(store);
        (base, figures)
    }

    fn assert_same_wal(what: &str, a: &Path, b: &Path) {
        let a_segments = troll::store::wal::segment_paths(a).unwrap();
        let b_segments = troll::store::wal::segment_paths(b).unwrap();
        assert_eq!(a_segments.len(), b_segments.len(), "{what}: segment count");
        for (x, y) in a_segments.iter().zip(&b_segments) {
            assert_eq!(x.file_name(), y.file_name(), "{what}: segment naming");
            assert_eq!(
                fs::read(x).unwrap(),
                fs::read(y).unwrap(),
                "{what}: WAL bytes differ"
            );
        }
    }

    /// `group:1` is `every-commit` with deferred acks — same bytes,
    /// same number of fsyncs, nothing left unsynced at any point.
    #[test]
    fn window_of_one_is_every_commit() {
        let (spec, script) = workload("dept");
        let every_dir = scratch("group1-every");
        let group_dir = scratch("group1-group");
        let every = StoreOptions {
            fsync: FsyncPolicy::EveryCommit,
            ..StoreOptions::default()
        };
        let group = StoreOptions {
            fsync: FsyncPolicy::Group(1),
            ..StoreOptions::default()
        };
        let (live_e, fig_e) = run_with(&every_dir, spec, script, &every);
        let (live_g, fig_g) = run_with(&group_dir, spec, script, &group);
        assert_same_world("group:1", &live_e, &live_g);
        assert_same_wal("group:1", &every_dir, &group_dir);
        assert_eq!(fig_e.appends, fig_g.appends, "same step count");
        assert_eq!(fig_e.fsyncs, fig_g.fsyncs, "group:1 costs the same fsyncs");
        assert_eq!(fig_g.durable_seq, fig_g.next_seq, "nothing deferred");
    }

    /// A window of `n` bounds the unsynced tail by `n` while the run is
    /// in flight, and costs measurably fewer fsyncs than every-commit.
    #[test]
    fn window_bounds_the_unsynced_tail() {
        let (spec, script) = workload("dept");
        let every_dir = scratch("window-every");
        let group_dir = scratch("window-group");
        let every = StoreOptions {
            fsync: FsyncPolicy::EveryCommit,
            ..StoreOptions::default()
        };
        let group = StoreOptions {
            fsync: FsyncPolicy::Group(4),
            ..StoreOptions::default()
        };
        let (_, fig_e) = run_with(&every_dir, spec, script, &every);
        let (_, fig_g) = run_with(&group_dir, spec, script, &group);
        assert_eq!(fig_e.appends, fig_g.appends);
        assert!(
            fig_g.fsyncs < fig_e.fsyncs,
            "group:4 must fsync less: {} vs {}",
            fig_g.fsyncs,
            fig_e.fsyncs
        );
        assert!(
            fig_g.durable_seq >= fig_g.next_seq.saturating_sub(4),
            "window self-sync bounds the tail: durable {} next {}",
            fig_g.durable_seq,
            fig_g.next_seq
        );
        assert!(
            fig_g.durable_seq < fig_g.next_seq,
            "the dept workload does not end on a window boundary"
        );
    }

    /// kill -9 mid-window: everything up to `durable_seq` survives;
    /// the cut lands exactly there and recovery replays that prefix.
    /// (The torn/corrupt tail beyond it is `cut_sweep`'s territory.)
    #[test]
    fn crash_at_the_durable_boundary_keeps_the_covered_prefix() {
        let (spec, script) = workload("dept");
        let dir = scratch("group-crash");
        let opts = StoreOptions {
            fsync: FsyncPolicy::Group(4),
            ..StoreOptions::default()
        };
        let (mut base, store, _) = open_world(&dir, spec, &opts).expect("open_world");
        let (sink, shared) = DurableSink::new(store);
        base.set_step_sink(Box::new(sink));
        run_script(&mut base, script).expect("workload");
        // the crash: no close(), no final sync — only what the window
        // self-syncs covered is promised
        let durable = shared.lock().expect("store lock").durable_seq();
        drop(base); // drops the sink and its store handle
        drop(shared);

        let scan = scan_wal(&dir).unwrap();
        let n = scan.records.len() as u64;
        assert!(durable < n, "a tail must be at risk for this test");
        assert!(durable >= n - 4, "at most one window at risk");

        // cut the log at the durable boundary (the bytes past it were
        // never fsynced; on a real power cut they may simply not exist)
        let segment = scan.records[0].segment.clone();
        let end = scan.records[durable as usize - 1].end_offset;
        let pristine = fs::read(&segment).unwrap();
        fs::write(&segment, &pristine[..end as usize]).unwrap();

        let (world, info) = recover(&dir).expect("recover at durable boundary");
        assert_eq!(info.replayed, durable, "exactly the covered prefix");
        let mut oracle = System::load_str(spec).unwrap().object_base().unwrap();
        for rec in &scan.records[..durable as usize] {
            oracle.replay_step(rec.initial.clone()).expect("oracle");
        }
        assert_same_world("durable boundary", &oracle, &world);
    }

    /// Group commit across a segment rotation: small segments force the
    /// window to straddle files; bytes still match every-commit and the
    /// rotated log still recovers to the live world.
    #[test]
    fn window_straddles_segment_rotation() {
        let (spec, script) = workload("dept");
        let every_dir = scratch("rotate-every");
        let group_dir = scratch("rotate-group");
        let every = StoreOptions {
            fsync: FsyncPolicy::EveryCommit,
            segment_bytes: 256,
            ..StoreOptions::default()
        };
        let group = StoreOptions {
            fsync: FsyncPolicy::Group(3),
            segment_bytes: 256,
            ..StoreOptions::default()
        };
        let (live_e, _) = run_with(&every_dir, spec, script, &every);
        let (live_g, _) = run_with(&group_dir, spec, script, &group);
        assert_same_world("rotation", &live_e, &live_g);
        let segments = troll::store::wal::segment_paths(&group_dir).unwrap();
        assert!(segments.len() > 1, "256-byte cap must rotate");
        assert_same_wal("rotation", &every_dir, &group_dir);

        delete_snapshots(&group_dir);
        let (recovered, _) = recover(&group_dir).expect("recover rotated group log");
        assert_same_world("rotation recover", &live_g, &recovered);
    }
}
