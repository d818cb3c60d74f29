//! Crash-consistency model tests: run the real segment store against
//! [`crashsim::SimFs`], then exhaustively enumerate crash schedules
//! and re-run real recovery at each one. Five workloads cover the
//! commit paths (an append run ending in a clean close, compaction's
//! commit-before-delete window, spill-under-eviction, an append
//! landing between a bucket's rename and the compaction's manifest
//! commit, and appends past [`MANIFEST_LAG`], whose last listing and
//! unlisted tail reopen must adopt), and a seeded fault — fsyncs
//! swallowed, the runtime equivalent of deleting the `sync_all` before
//! the rename — must produce failing schedules.
//!
//! Schedule counts are printed per workload; `CRASHSIM_EXHAUSTIVE=1`
//! (the `VERIFY_HEAVY` path) scales the workloads up and tears writes
//! at finer granularity, and asserts the >500-schedule floor.

use cocosketch::segment::{CompactionPolicy, EpochDir, SharedEpochDir, MANIFEST_LAG};
use cocosketch::{Epoch, EpochStore, FlowTable};
use crashsim::{enumerate, CrashOptions, DurabilityCheck, Op, SimFs};
use std::path::Path;
use std::sync::{Arc, Mutex};
use traffic::{FiveTuple, KeyBytes, KeySpec};

/// A small synthetic epoch whose table is deterministic in `id`.
fn small_epoch(id: u64, rows: u32) -> Epoch {
    let full = KeySpec::FIVE_TUPLE;
    let entries: Vec<(KeyBytes, u64)> = (0..rows)
        .map(|i| {
            let flow = FiveTuple::new(i % 53 + id as u32, i * 7, 80, 443, 6);
            (full.project(&flow), u64::from(i) + id + 1)
        })
        .collect();
    let table = FlowTable::new(full, entries);
    let weight = table.total();
    Epoch {
        id,
        packets: u64::from(rows),
        weight,
        tables: vec![table],
    }
}

fn exhaustive() -> bool {
    std::env::var_os("CRASHSIM_EXHAUSTIVE").is_some_and(|v| v != "0")
}

/// Workload scale: (appends, rows per epoch, torn-write block bytes).
/// The heavy tier tears at much finer granularity and runs a longer
/// history, pushing the schedule count past the 500 floor. An append
/// is one durable write (five ops), so each tier runs enough appends
/// to clear its floor: 4 bounded, 12 heavy.
fn scale() -> (u64, u32, usize) {
    if exhaustive() {
        (12, 60, 32)
    } else {
        (4, 24, 512)
    }
}

/// Indices of the trace's renames onto `path`.
fn renames_onto(trace: &[Op], path: &Path) -> Vec<usize> {
    (0..trace.len())
        .filter(|&i| matches!(&trace[i], Op::Rename { to, .. } if to == path))
        .collect()
}

#[test]
fn append_run_survives_every_crash_schedule() {
    // Appends below the bound write no manifest; the clean close
    // lists them all. Every crash before the close must adopt the
    // unlisted run, and every crash inside it must too.
    let (appends, rows, block) = scale();
    let fs = SimFs::new();
    let root = Path::new("/sim/append");
    let (mut dir, _) = EpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = DurabilityCheck::default();
    for id in 0..appends {
        let e = small_epoch(id, rows);
        check.offer(&e);
        dir.append(&e).unwrap();
        check.ack(fs.mark(), id);
    }
    assert!(renames_onto(&fs.trace(), &root.join("MANIFEST")).is_empty());
    dir.checkpoint().unwrap();
    assert_eq!(renames_onto(&fs.trace(), &root.join("MANIFEST")).len(), 1);
    let opts = CrashOptions {
        block,
        ..CrashOptions::default()
    };
    let report = enumerate(&fs, root, &check, &opts);
    eprintln!(
        "crashsim: append run ({appends} epochs) explored {} schedules",
        report.schedules
    );
    assert!(report.clean(), "{:#?}", report.violations);
    assert!(report.schedules > 30, "{}", report.schedules);
    if exhaustive() {
        assert!(report.schedules > 500, "{}", report.schedules);
    }
}

#[test]
fn crash_during_compaction_never_loses_a_covered_id() {
    // The commit-before-delete window: the bucket segment renames into
    // place, the manifest commits, and only then are the merged inputs
    // unlinked. Every crash point in between must keep every id
    // covered — singles until the manifest flips, the bucket after.
    let (appends, rows, block) = scale();
    let appends = appends.max(6);
    let fs = SimFs::new();
    let root = Path::new("/sim/compact");
    let (mut dir, _) = EpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = DurabilityCheck::default();
    for id in 0..appends {
        let e = small_epoch(id, rows);
        check.offer(&e);
        dir.append(&e).unwrap();
        check.ack(fs.mark(), id);
    }
    let report = dir
        .compact(&CompactionPolicy {
            bucket: 3,
            keep_recent: 1,
        })
        .unwrap();
    assert!(report.buckets > 0, "workload must actually compact");
    // Compaction re-acknowledges everything it touched: no schedule
    // from here on may lose any id.
    let mark = fs.mark();
    for id in 0..appends {
        check.ack(mark, id);
    }
    let opts = CrashOptions {
        block,
        ..CrashOptions::default()
    };
    let crashes = enumerate(&fs, root, &check, &opts);
    eprintln!(
        "crashsim: compaction run explored {} schedules",
        crashes.schedules
    );
    assert!(crashes.clean(), "{:#?}", crashes.violations);
    if exhaustive() {
        assert!(crashes.schedules > 500, "{}", crashes.schedules);
    }
}

#[test]
fn spill_under_eviction_survives_every_crash_schedule() {
    // The production spill path: EpochStore::evict_to pushes sealed
    // epochs through the SpillSink into a SharedEpochDir — here backed
    // by SimFs, so the whole eviction protocol is crash-enumerated.
    let (appends, rows, block) = scale();
    let fs = SimFs::new();
    let root = Path::new("/sim/spill");
    let (shared, _) = SharedEpochDir::open_on(fs.clone(), root).unwrap();
    let mut store = EpochStore::new();
    store.attach_spill(Box::new(shared.clone()));
    let mut check = DurabilityCheck::default();
    for id in 0..appends {
        let e = small_epoch(id, rows);
        check.offer(&e);
        store.push(e);
        store.evict_to(1);
        assert!(store.take_spill_error().is_none());
        let mark = fs.mark();
        for spilled in 0..id {
            assert!(shared.covers(spilled), "epoch {spilled} must have spilled");
            check.ack(mark, spilled);
        }
    }
    let opts = CrashOptions {
        block,
        ..CrashOptions::default()
    };
    let report = enumerate(&fs, root, &check, &opts);
    eprintln!(
        "crashsim: spill-under-eviction explored {} schedules",
        report.schedules
    );
    assert!(report.clean(), "{:#?}", report.violations);
}

#[test]
fn append_between_bucket_rename_and_manifest_commit_survives_every_crash_schedule() {
    // The interleaving an unlocked bucket build opens: the seal path
    // appends while the compactor builds. A one-shot hook on the first
    // bucket's rename runs the append right there, so the appended
    // segment and its manifest commit land between the bucket's rename
    // and the compaction's manifest commit — deterministically, on one
    // thread.
    let (appends, rows, block) = scale();
    let appends = appends.max(6);
    let fs = SimFs::new();
    let root = Path::new("/sim/interleave");
    let (shared, _) = SharedEpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = DurabilityCheck::default();
    for id in 0..appends {
        let e = small_epoch(id, rows);
        check.offer(&e);
        shared.append(&e).unwrap();
        check.ack(fs.mark(), id);
    }
    let late = small_epoch(appends, rows);
    check.offer(&late);
    let policy = CompactionPolicy {
        bucket: 3,
        keep_recent: 1,
    };
    let first_bucket = root.join("bucket-00000000-00000002.cep");
    let acked = Arc::new(Mutex::new(None));
    let (seal, hook_fs, hook_acked) = (shared.clone(), fs.clone(), Arc::clone(&acked));
    fs.on_rename_once(first_bucket.clone(), move || {
        seal.append(&late).unwrap();
        *hook_acked.lock().unwrap() = Some(hook_fs.mark());
    });
    let report = shared.compact(&policy).unwrap();
    assert!(report.buckets > 0, "workload must actually compact");
    let late_mark = acked
        .lock()
        .unwrap()
        .expect("the bucket rename ran the append");
    check.ack(late_mark, appends);

    // Pin the interleaving in the trace: after the bucket's rename and
    // before the first input is deleted, the late epoch's segment
    // renames in (acked at `late_mark`, with no manifest of its own),
    // then the compaction's manifest commit lists it with the bucket.
    let trace = fs.trace();
    let bucket_at = renames_onto(&trace, &first_bucket)[0];
    let late_at = renames_onto(&trace, &root.join(format!("epoch-{appends:08}.cep")))[0];
    let first_unlink = (0..trace.len())
        .find(|&i| matches!(trace[i], Op::Unlink { .. }))
        .expect("compaction deletes its inputs");
    let commits: Vec<usize> = renames_onto(&trace, &root.join("MANIFEST"))
        .into_iter()
        .filter(|&i| bucket_at < i && i < first_unlink)
        .collect();
    assert_eq!(commits.len(), 1, "{commits:?}");
    assert!(bucket_at < late_at && late_at < late_mark && late_mark <= commits[0]);

    let mark = fs.mark();
    for id in 0..=appends {
        check.ack(mark, id);
    }
    let opts = CrashOptions {
        block,
        ..CrashOptions::default()
    };
    let crashes = enumerate(&fs, root, &check, &opts);
    eprintln!(
        "crashsim: append during bucket build explored {} schedules",
        crashes.schedules
    );
    assert!(crashes.clean(), "{:#?}", crashes.violations);
    if exhaustive() {
        assert!(crashes.schedules > 500, "{}", crashes.schedules);
    }
}

#[test]
fn appends_past_the_manifest_lag_survive_every_crash_schedule() {
    // No compaction: the only manifest write is the in-append listing
    // the MANIFEST_LAG-th unlisted segment triggers. A crash just
    // before its rename leaves the whole bound unlisted, and every
    // acked epoch must still be adopted; the append after it starts
    // a new unlisted tail.
    let (_, rows, block) = scale();
    let appends = MANIFEST_LAG as u64 + 1;
    let fs = SimFs::new();
    let root = Path::new("/sim/lag");
    let (mut dir, _) = EpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = DurabilityCheck::default();
    let mut marks = Vec::new();
    for id in 0..appends {
        let e = small_epoch(id, rows);
        check.offer(&e);
        dir.append(&e).unwrap();
        marks.push(fs.mark());
        check.ack(fs.mark(), id);
    }
    let trace = fs.trace();
    let listings = renames_onto(&trace, &root.join("MANIFEST"));
    let bound = MANIFEST_LAG - 1;
    let bound_segment = renames_onto(&trace, &root.join(format!("epoch-{bound:08}.cep")))[0];
    assert_eq!(listings.len(), 1, "{listings:?}");
    assert!(bound_segment < listings[0] && listings[0] < marks[MANIFEST_LAG - 1]);
    assert!(marks[MANIFEST_LAG - 1] < marks[MANIFEST_LAG]);
    let opts = CrashOptions {
        block,
        ..CrashOptions::default()
    };
    let report = enumerate(&fs, root, &check, &opts);
    eprintln!(
        "crashsim: appends past the manifest lag ({appends} epochs) explored {} schedules",
        report.schedules
    );
    assert!(report.clean(), "{:#?}", report.violations);
    assert!(report.schedules > trace.len(), "{}", report.schedules);
    if exhaustive() {
        assert!(report.schedules > 500, "{}", report.schedules);
    }
}

#[test]
fn swallowed_fsyncs_are_caught_by_failing_schedules() {
    // The runtime half of the seeded-mutation acceptance test: with
    // fsyncs swallowed (exactly what deleting `sync_all` from
    // write_file_atomic would do), un-fsynced writes may be dropped
    // behind a surviving rename, and some schedule must observe an
    // acknowledged epoch lost or recovery failing outright.
    let fs = SimFs::new();
    fs.set_skip_fsync(true);
    let root = Path::new("/sim/mutated");
    let (mut dir, _) = EpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = DurabilityCheck::default();
    for id in 0..2 {
        let e = small_epoch(id, 24);
        check.offer(&e);
        dir.append(&e).unwrap();
        check.ack(fs.mark(), id);
    }
    let report = enumerate(&fs, root, &check, &CrashOptions::default());
    eprintln!(
        "crashsim: swallowed-fsync run explored {} schedules, {} violations",
        report.schedules, report.violation_count
    );
    assert!(
        !report.clean(),
        "deleting the fsync must produce at least one failing crash schedule"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("lost") || v.contains("recovery failed")),
        "{:#?}",
        report.violations
    );
}
