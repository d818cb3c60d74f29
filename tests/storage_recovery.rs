//! Crash-recovery and durability integration of the epoch segment
//! store: a torn tail quarantines instead of panicking (at *every*
//! truncation boundary), the checksum catches every zeroed 512-byte
//! block of a real segment, adoption heals the crash window between the
//! last segment rename and the manifest rename that would list it,
//! eviction spills epochs that reload bit-identically, and compaction
//! conserves weight per key exactly. The final test drives the same compaction protocol through
//! `crashsim`, re-running real recovery at every enumerable crash
//! point of the commit-before-delete window.

use cocosketch::segment::{
    CompactionPolicy, EpochDir, SharedEpochDir, MANIFEST_LAG, MANIFEST_NAME,
};
use cocosketch::{epoch, Epoch, EpochStore, FlowTable};
use engine::{EngineConfig, ShardedCocoSketch};
use hashkit::FastMap;
use traffic::presets::caida_like;
use traffic::{FiveTuple, KeyBytes, KeySpec};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cocosketch-recovery-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

/// Truncating the tail segment at every byte boundary must reopen
/// without a panic, quarantine the torn file, and keep serving the
/// prefix bit-identically.
#[test]
fn truncated_tail_quarantines_and_serves_the_prefix() {
    let root = tmp("torn");
    let (mut dir, _) = EpochDir::open(&root).unwrap();
    for id in 0..3 {
        dir.append(&small_epoch(id, 40)).unwrap();
    }
    // A clean close lists the tail, so its truncation is a listed
    // segment's, not an unlisted one's.
    dir.checkpoint().unwrap();
    let prefix: Vec<Vec<u8>> = (0..2)
        .map(|id| epoch::encode(&dir.read_epoch(id).unwrap().unwrap()))
        .collect();
    let tail_path = root.join(dir.segments()[2].file_name());
    let tail_bytes = std::fs::read(&tail_path).unwrap();
    let manifest = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
    drop(dir);

    for cut in 0..tail_bytes.len() {
        std::fs::write(&tail_path, &tail_bytes[..cut]).unwrap();
        std::fs::write(root.join(MANIFEST_NAME), &manifest).unwrap();
        let (reopened, report) =
            EpochDir::open(&root).unwrap_or_else(|e| panic!("cut {cut}: reopen failed: {e}"));
        assert_eq!(report.quarantined.len(), 1, "cut {cut}");
        assert!(
            report.quarantined[0].to_string_lossy().ends_with(".torn"),
            "cut {cut}: {:?}",
            report.quarantined
        );
        assert!(!tail_path.exists(), "cut {cut}: torn tail renamed away");
        assert_eq!(reopened.len(), 2, "cut {cut}: prefix survives");
        for (id, want) in prefix.iter().enumerate() {
            let got = reopened.read_epoch(id as u64).unwrap().unwrap();
            assert_eq!(&epoch::encode(&got), want, "cut {cut}: epoch {id}");
        }
    }

    // The healed directory accepts the lost epoch again...
    let (mut healed, _) = EpochDir::open(&root).unwrap();
    healed.append(&small_epoch(2, 40)).unwrap();
    assert_eq!(healed.len(), 3);
    drop(healed);

    // ...and restoring the original bytes restores the full history
    // (the leftover .torn file is inert).
    std::fs::write(&tail_path, &tail_bytes).unwrap();
    std::fs::write(root.join(MANIFEST_NAME), &manifest).unwrap();
    let (restored, report) = EpochDir::open(&root).unwrap();
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert_eq!(restored.len(), 3);
    std::fs::remove_dir_all(&root).ok();
}

/// Bit rot and torn writes in a real, engine-sealed segment: zeroing
/// any one 512-byte block (same length, so only the checksum can tell)
/// and truncating at any 512-byte boundary must each fail
/// `read_epoch` and make reopen quarantine the segment as a torn tail,
/// still serving the prefix bit-identically.
#[test]
fn zeroed_blocks_and_block_truncations_of_a_caida_segment_are_caught() {
    const BLOCK: usize = 512;
    let root = tmp("blocks");
    let trace = caida_like(400, 9);
    let pkts: Vec<(KeyBytes, u64)> = trace
        .packets
        .iter()
        .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
        .collect();
    let config = EngineConfig {
        threads: 1,
        buckets: 2048,
        ..EngineConfig::default()
    };
    let mut session = ShardedCocoSketch::new(config).session();
    let (mut dir, _) = EpochDir::open(&root).unwrap();
    for chunk in pkts.chunks(pkts.len() / 2 + 1) {
        session.push_batch(chunk);
        dir.append(&session.rotate_collect().to_epoch(KeySpec::FIVE_TUPLE))
            .unwrap();
    }
    dir.checkpoint().unwrap();
    assert_eq!(dir.ids(), Some((0, 1)));
    let prefix = epoch::encode(&dir.read_epoch(0).unwrap().unwrap());
    let tail_path = root.join(dir.segments()[1].file_name());
    let tail_bytes = std::fs::read(&tail_path).unwrap();
    let manifest = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
    assert!(tail_bytes.len() > 32 * BLOCK, "{} bytes", tail_bytes.len());

    let caught = |what: &str, bytes: &[u8]| {
        std::fs::write(&tail_path, bytes).unwrap();
        std::fs::write(root.join(MANIFEST_NAME), &manifest).unwrap();
        assert!(dir.read_epoch(1).is_err(), "{what}: read_epoch served it");
        let (reopened, report) =
            EpochDir::open(&root).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
        assert_eq!(report.quarantined.len(), 1, "{what}: {report:?}");
        assert!(!tail_path.exists(), "{what}: torn tail renamed away");
        assert_eq!(reopened.ids(), Some((0, 0)), "{what}: prefix survives");
        let got = reopened.read_epoch(0).unwrap().unwrap();
        assert_eq!(epoch::encode(&got), prefix, "{what}: prefix diverged");
        std::fs::remove_file(&report.quarantined[0]).unwrap();
    };
    for start in (0..tail_bytes.len()).step_by(BLOCK) {
        let mut zeroed = tail_bytes.clone();
        let end = (start + BLOCK).min(zeroed.len());
        assert!(
            zeroed[start..end].iter().any(|&b| b != 0),
            "block at {start}"
        );
        zeroed[start..end].fill(0);
        caught(&format!("block at {start} zeroed"), &zeroed);
        caught(&format!("cut at {start}"), &tail_bytes[..start]);
    }

    // The original bytes still reopen whole.
    std::fs::write(&tail_path, &tail_bytes).unwrap();
    std::fs::write(root.join(MANIFEST_NAME), &manifest).unwrap();
    let (restored, report) = EpochDir::open(&root).unwrap();
    assert!(report.quarantined.is_empty(), "{report:?}");
    assert_eq!(restored.ids(), Some((0, 1)));
    drop((dir, restored));
    std::fs::remove_dir_all(&root).ok();
}

/// Segments commit by their own rename and the manifest lists them
/// only once [`MANIFEST_LAG`] are unlisted. A crash after the segment
/// rename that reaches the bound, but before the manifest rename it
/// triggers, leaves the whole bound unlisted; reopen adopts all of it.
#[test]
fn adoption_heals_a_crash_between_segment_and_manifest_rename() {
    let root = tmp("adopt");
    let (mut dir, _) = EpochDir::open(&root).unwrap();
    dir.append(&small_epoch(0, 30)).unwrap();
    dir.checkpoint().unwrap();
    let stale_manifest = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
    let tail: Vec<Epoch> = (1..=MANIFEST_LAG as u64)
        .map(|id| small_epoch(id, 30))
        .collect();
    for e in &tail {
        dir.append(e).unwrap();
    }
    assert_ne!(
        std::fs::read(root.join(MANIFEST_NAME)).unwrap(),
        stale_manifest,
        "the append that reached the bound listed the tail"
    );
    drop(dir);

    // Roll the manifest back to before that listing: every segment
    // file is durable, the manifest naming them is not.
    std::fs::write(root.join(MANIFEST_NAME), &stale_manifest).unwrap();
    let (reopened, report) = EpochDir::open(&root).unwrap();
    assert_eq!(report.adopted, MANIFEST_LAG, "{report:?}");
    assert!(report.quarantined.is_empty());
    assert_eq!(reopened.len(), MANIFEST_LAG + 1);
    for e in &tail {
        assert_eq!(
            epoch::encode(&reopened.read_epoch(e.id).unwrap().unwrap()),
            epoch::encode(e),
            "epoch {}",
            e.id
        );
    }
    drop(reopened);

    // Adoption rewrote the manifest: a second reopen finds nothing new.
    let (_, report) = EpochDir::open(&root).unwrap();
    assert_eq!(report.adopted, 0);
    std::fs::remove_dir_all(&root).ok();
}

/// Engine-sealed epochs pushed through an [`EpochStore`] with a spill
/// sink reload from disk bit-identical to the in-memory seal, for
/// every evicted id.
#[test]
fn eviction_spills_epochs_that_reload_bit_identically() {
    let root = tmp("spill");
    let trace = caida_like(400, 9);
    let pkts: Vec<(KeyBytes, u64)> = trace
        .packets
        .iter()
        .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
        .collect();
    let window = pkts.len() / 4 + 1;
    let full = KeySpec::FIVE_TUPLE;
    let config = EngineConfig {
        threads: 2,
        buckets: 2048,
        ..EngineConfig::default()
    };
    let mut session = ShardedCocoSketch::new(config).session();
    let (shared, _) = SharedEpochDir::open(&root).unwrap();
    let mut store = EpochStore::new();
    store.attach_spill(Box::new(shared.clone()));

    let mut held: Vec<Vec<u8>> = Vec::new();
    for chunk in pkts.chunks(window) {
        session.push_batch(chunk);
        let sealed = session.rotate_collect().to_epoch(full);
        held.push(epoch::encode(&sealed));
        store.push(sealed);
        store.evict_to(1);
    }
    assert!(store.take_spill_error().is_none());
    assert_eq!(store.len(), 1, "retention capped to one resident epoch");

    let reader = shared.reader();
    let newest = held.len() as u64 - 1;
    for (id, want) in held.iter().enumerate().take(held.len() - 1) {
        let got = reader.read_epoch(id as u64).unwrap().unwrap();
        assert_eq!(&epoch::encode(&got), want, "epoch {id} diverged on disk");
    }
    // The resident tail was never evicted, so nothing forced it out.
    assert!(reader.read_epoch(newest).unwrap().is_none());
    assert!(store.iter().any(|e| e.id == newest));
    std::fs::remove_dir_all(&root).ok();
}

/// Compaction merges aligned runs into buckets while conserving the
/// packet count, the total weight, and every per-key sum exactly.
#[test]
fn compaction_conserves_weight_and_per_key_sums_exactly() {
    let root = tmp("compact");
    let (mut dir, _) = EpochDir::open(&root).unwrap();
    let epochs: Vec<Epoch> = (0..7).map(|id| small_epoch(id, 60)).collect();
    for e in &epochs {
        dir.append(e).unwrap();
    }
    let total_weight: u64 = epochs.iter().map(|e| e.weight).sum();
    let total_packets: u64 = epochs.iter().map(|e| e.packets).sum();

    // keep_recent 1 puts ids 0..=5 at or below the horizon: two
    // aligned triples merge, epoch 6 stays single.
    let report = dir
        .compact(&CompactionPolicy {
            bucket: 3,
            keep_recent: 1,
        })
        .unwrap();
    assert_eq!((report.buckets, report.merged_epochs), (2, 6));
    assert_eq!(dir.len(), 3);

    let all: Vec<Epoch> = dir.scan().collect::<std::io::Result<_>>().unwrap();
    assert_eq!(all.iter().map(|e| e.weight).sum::<u64>(), total_weight);
    assert_eq!(all.iter().map(|e| e.packets).sum::<u64>(), total_packets);

    // Per-key conservation on the first bucket against a manual sum of
    // its member epochs.
    let mut want: FastMap<KeyBytes, u64> = FastMap::default();
    for e in &epochs[..3] {
        for &(k, v) in e.primary().rows() {
            *want.entry(k).or_insert(0) += v;
        }
    }
    let rows = all[0].primary().rows();
    assert_eq!(rows.len(), want.len());
    for &(k, v) in rows {
        assert_eq!(want.get(&k), Some(&v));
    }

    // A compacted directory reopens clean.
    drop(dir);
    let (reopened, report) = EpochDir::open(&root).unwrap();
    assert!(
        report.quarantined.is_empty() && report.adopted == 0,
        "{report:?}"
    );
    assert_eq!(reopened.len(), 3);
    std::fs::remove_dir_all(&root).ok();
}

/// Crash-during-compaction, exhaustively: run the real append +
/// compact protocol on crashsim's fault-injecting Vfs, then enumerate
/// every crash schedule (each op prefix, each subset of un-fsynced
/// writes dropped, the final write torn at block granularity) and
/// re-run real `EpochDir::open` recovery at each one. The
/// commit-before-delete window — bucket renamed, manifest flipped,
/// inputs not yet unlinked — must never lose a covered id, and every
/// recovered segment must decode bit-identical to the offered bytes.
#[test]
fn compaction_commit_window_survives_every_crash_schedule() {
    let fs = crashsim::SimFs::new();
    let root = std::path::Path::new("/sim/storage-recovery-compact");
    let (mut dir, _) = EpochDir::open_on(fs.clone(), root).unwrap();
    let mut check = crashsim::DurabilityCheck::default();
    for id in 0..6 {
        let e = small_epoch(id, 40);
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
    // Everything survived the live run; after the compaction commit,
    // no crash schedule may lose any of it either.
    let mark = fs.mark();
    for id in 0..6 {
        check.ack(mark, id);
    }
    let crashes = crashsim::enumerate(&fs, root, &check, &crashsim::CrashOptions::default());
    eprintln!(
        "crashsim: storage_recovery compaction window explored {} schedules",
        crashes.schedules
    );
    assert!(crashes.clean(), "{:#?}", crashes.violations);
    assert!(crashes.schedules > 50, "{}", crashes.schedules);
}
