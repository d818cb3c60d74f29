//! End-to-end CLI tests: drive the real binary through the full
//! generate → measure → query/stats/info workflow.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_cocosketch-cli")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("launch cli")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cocosketch-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow() {
    let dir = tmpdir("workflow");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");

    // generate (small: scale 2000 => ~13.5k packets)
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "5",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    // info --trace
    let out = run(&["info", "--trace", trace.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("packets"), "{text}");

    // measure
    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--out",
        table.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(table.exists());

    // query a partial key that was never pre-declared
    let out = run(&[
        "query",
        "--table",
        table.to_str().unwrap(),
        "--key",
        "srcip/16",
        "--top",
        "5",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("flows under key (SrcIP/16)"), "{text}");
    assert!(text.contains("src "), "{text}");

    // stats
    let out = run(&[
        "stats",
        "--table",
        table.to_str().unwrap(),
        "--key",
        "dstip",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("entropy"), "{text}");
    assert!(text.contains("size distribution"), "{text}");

    // info --table
    let out = run(&["info", "--table", table.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("full key"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowed_measure_emits_queryable_epochs() {
    let dir = tmpdir("windowed");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Rotate every 5k packets on two ingest threads: the ~13.5k-packet
    // trace seals two full epochs plus a partial tail.
    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--threads",
        "2",
        "--window",
        "5000",
        "--out",
        table.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("epoch 0: 5000 packets"), "{text}");
    let epoch0 = dir.join("t.cft.epoch0");
    let epoch1 = dir.join("t.cft.epoch1");
    assert!(epoch0.exists() && epoch1.exists(), "{text}");

    // Epoch files are full table citizens: query and info sniff the
    // envelope by magic and read the sealed full-key table.
    let out = run(&[
        "query",
        "--table",
        epoch0.to_str().unwrap(),
        "--key",
        "srcip/16",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("flows under key (SrcIP/16)"), "{text}");

    let out = run(&["info", "--table", epoch1.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("full key"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn keep_epochs_retains_only_the_last_n() {
    let dir = tmpdir("keepepochs");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same rotation cadence as above (two full windows plus a tail),
    // but capped to the most recent epoch in memory. Sealing streams:
    // every epoch file reaches disk the moment it seals — including
    // ids 0 and 1, which --keep-epochs then evicts from RAM — so the
    // retention cap bounds memory, never disk history.
    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--window",
        "5000",
        "--keep-epochs",
        "1",
        "--out",
        table.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("evicted by --keep-epochs 1"), "{text}");
    assert!(
        text.contains("1 epoch of <= 5000 packets resident"),
        "{text}"
    );
    assert!(dir.join("t.cft.epoch0").exists(), "{text}");
    assert!(dir.join("t.cft.epoch1").exists(), "{text}");
    assert!(dir.join("t.cft.epoch2").exists(), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_dir_round_trips_every_epoch_bit_identically() {
    let dir = tmpdir("spill");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let spill = dir.join("segments");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Three epochs sealed, one resident: ids 0 and 1 exist only on
    // disk by the time the run ends.
    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--window",
        "5000",
        "--keep-epochs",
        "1",
        "--spill",
        spill.to_str().unwrap(),
        "--out",
        table.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("spill: 3 segments covering epochs 0..=2"),
        "{text}"
    );
    // The end of sealing is a clean close: MANIFEST lists every epoch.
    let listed =
        cocosketch::segment::decode_manifest(&std::fs::read(spill.join("MANIFEST")).unwrap())
            .unwrap();
    let ranges: Vec<(u64, u64)> = listed.iter().map(|m| (m.first, m.last)).collect();
    assert_eq!(ranges, [(0, 0), (1, 1), (2, 2)]);

    // Every sealed epoch — including the mid-run-evicted ones — answers
    // from the directory bit-identically to its streamed epoch file.
    for k in 0..3u64 {
        let epoch_file = dir.join(format!("t.cft.epoch{k}"));
        let from_dir = run(&[
            "query",
            "--dir",
            spill.to_str().unwrap(),
            "--epoch",
            &k.to_string(),
            "--key",
            "srcip",
            "--top",
            "10",
        ]);
        let from_file = run(&[
            "query",
            "--table",
            epoch_file.to_str().unwrap(),
            "--key",
            "srcip",
            "--top",
            "10",
        ]);
        assert!(
            from_dir.status.success() && from_file.status.success(),
            "epoch {k}: {} / {}",
            String::from_utf8_lossy(&from_dir.stderr),
            String::from_utf8_lossy(&from_file.stderr)
        );
        assert_eq!(from_dir.stdout, from_file.stdout, "epoch {k} diverged");
    }

    // --dir without --epoch answers from the newest stored epoch.
    let latest = run(&[
        "query",
        "--dir",
        spill.to_str().unwrap(),
        "--key",
        "srcip/16",
    ]);
    let tail = run(&[
        "query",
        "--table",
        dir.join("t.cft.epoch2").to_str().unwrap(),
        "--key",
        "srcip/16",
    ]);
    assert!(latest.status.success() && tail.status.success());
    assert_eq!(latest.stdout, tail.stdout);

    // stats reads the directory through the same loader.
    let out = run(&[
        "stats",
        "--dir",
        spill.to_str().unwrap(),
        "--epoch",
        "0",
        "--key",
        "dstip",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("entropy"));

    // info summarizes the segment inventory.
    let out = run(&["info", "--dir", spill.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("3 (3 epoch, 0 bucket)"), "{text}");

    // An id that was never sealed is a clean error, not a panic.
    let out = run(&[
        "query",
        "--dir",
        spill.to_str().unwrap(),
        "--epoch",
        "99",
        "--key",
        "srcip",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("not stored as its own segment"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compact_bucket_merges_cold_epochs() {
    let dir = tmpdir("compact");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let spill = dir.join("segments");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A tight window seals enough epochs that the compactor has cold
    // history to fold. The expected layout is computable: with
    // --compact-bucket 2 and --keep-epochs 1 the newest
    // max(keep-epochs, bucket) = 2 ids stay single-epoch, and every
    // aligned pair at or below the horizon becomes one bucket.
    let packets = traffic::io::load(&trace).unwrap().len() as u64;
    let epochs = packets.div_ceil(2000);
    let newest = epochs - 1;
    let horizon = newest - 2;
    let buckets = horizon.div_ceil(2) as usize;
    let merged = buckets * 2;
    assert!(buckets >= 1, "trace too small to exercise compaction");

    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--window",
        "2000",
        "--keep-epochs",
        "1",
        "--spill",
        spill.to_str().unwrap(),
        "--compact-bucket",
        "2",
        "--out",
        table.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains(&format!("compacted {merged} epochs into {buckets} bucket")),
        "{text}"
    );

    let singles = epochs as usize - merged;
    let out = run(&["info", "--dir", spill.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains(&format!(
            "{} ({singles} epoch, {buckets} bucket)",
            singles + buckets
        )),
        "{text}"
    );

    // Bucketed ids lose per-epoch resolution (by design); the retained
    // singles still answer.
    let out = run(&[
        "query",
        "--dir",
        spill.to_str().unwrap(),
        "--epoch",
        "0",
        "--key",
        "srcip",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not stored as its own segment"));
    let out = run(&[
        "query",
        "--dir",
        spill.to_str().unwrap(),
        "--epoch",
        &newest.to_string(),
        "--key",
        "srcip",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_refuses_a_non_empty_directory() {
    let dir = tmpdir("spill-stale");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let spill = dir.join("segments");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "500",
        "--seed",
        "3",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let args = [
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--window",
        "2000",
        "--spill",
        spill.to_str().unwrap(),
        "--out",
        table.to_str().unwrap(),
    ];
    let out = run(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A second run would number its epochs from 0 again; spilling into
    // the old directory must refuse up front instead of silently
    // serving the first run's segments as this run's.
    let out = run(&args);
    assert!(!out.status.success(), "stale spill directory was accepted");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already holds epochs"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cdm1_directory_is_refused_by_name() {
    let dir = tmpdir("cdm1");
    let trace = dir.join("t.cct");
    let spill = dir.join("segments");
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "3",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--memory",
        "100KB",
        "--window",
        "5000",
        "--spill",
        spill.to_str().unwrap(),
        "--out",
        dir.join("t.cft").to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dir_arg = spill.to_str().unwrap();
    assert!(run(&["info", "--dir", dir_arg]).status.success());
    // The same directory under the superseded magic, as an older build
    // left it: its FNV-1a sums are refused, not misread as bit rot.
    let manifest = spill.join(cocosketch::segment::MANIFEST_NAME);
    let current = std::fs::read_to_string(&manifest).unwrap();
    let magic = cocosketch::segment::MANIFEST_MAGIC;
    std::fs::write(&manifest, current.replacen(magic, "CDM1", 1)).unwrap();
    for args in [
        &["query", "--dir", dir_arg, "--key", "srcip"][..],
        &["query", "--dir", dir_arg, "--epoch", "0", "--key", "srcip"],
        &["info", "--dir", dir_arg],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} accepted a CDM1 directory");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("CDM1") && err.contains("FNV-1a") && err.contains("no longer read"),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spill_requires_window_and_a_path() {
    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--spill",
        "d",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spill only applies with --window"));

    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--window",
        "100",
        "--spill",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spill takes a directory path"));
}

#[test]
fn compact_bucket_requires_spill_and_at_least_two() {
    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--window",
        "100",
        "--compact-bucket",
        "2",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--compact-bucket only applies with --spill")
    );

    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--window",
        "100",
        "--spill",
        "d",
        "--compact-bucket",
        "1",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--compact-bucket must be at least 2"));
}

#[test]
fn keep_epochs_requires_window() {
    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--keep-epochs",
        "2",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--keep-epochs only applies with --window")
    );
}

/// Poll-connect to a serve address until the server comes up.
fn connect_with_retry(addr: &str) -> serve::Client<Box<dyn serve::wire::ReadWrite>> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        match serve::connect(addr) {
            Ok(client) => return client,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "server never came up on {addr}: {e}"
                );
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
        }
    }
}

/// Wait (bounded) for the resident service to have published `want`
/// epochs, returning the final info.
fn wait_for_epochs(
    client: &mut serve::Client<Box<dyn serve::wire::ReadWrite>>,
    want: usize,
) -> serve::ServiceInfo {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let info = client.info().expect("info");
        if info.epochs >= want {
            return info;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "service stuck at {} epochs, wanted {want}",
            info.epochs
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// Bounded wait for the serving child to exit after a shutdown request.
fn wait_bounded(mut child: std::process::Child) -> std::process::Output {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("wait_with_output"),
            None if std::time::Instant::now() >= deadline => {
                child.kill().ok();
                child.wait().ok();
                panic!("serving process did not exit after shutdown");
            }
            None => std::thread::sleep(std::time::Duration::from_millis(25)),
        }
    }
}

#[test]
fn measure_serve_answers_wire_queries_bit_identically() {
    use serve::Select;
    use traffic::KeySpec;

    let dir = tmpdir("serve-windowed");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let sock = dir.join("serve.sock");
    let addr = format!("unix:{}", sock.display());
    let out = run(&[
        "generate",
        "--preset",
        "caida",
        "--scale",
        "2000",
        "--seed",
        "7",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Same cadence as the plain windowed test (two full epochs plus a
    // tail), but resident: the process keeps serving after sealing.
    let child = Command::new(bin())
        .args([
            "measure",
            "--trace",
            trace.to_str().unwrap(),
            "--memory",
            "100KB",
            "--window",
            "5000",
            "--serve",
            &addr,
            "--out",
            table.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serving measure");

    // The server binds before ingest; epochs appear as rotation seals
    // them while ingest is still running.
    let mut client = connect_with_retry(&addr);
    let info = wait_for_epochs(&mut client, 3);
    assert_eq!(info.ids, Some((0, 2)));

    // Served answers are bit-identical to querying the epoch file the
    // same process writes (poll: files land after the final seal).
    let epoch0 = dir.join("t.cft.epoch0");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !epoch0.exists() {
        assert!(std::time::Instant::now() < deadline, "epoch0 never written");
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let sealed = cocosketch::epoch::decode(&std::fs::read(&epoch0).unwrap()).unwrap();
    for spec in [KeySpec::SRC_IP, KeySpec::SRC_DST, KeySpec::FIVE_TUPLE] {
        let answer = client.partial(Select::Id(0), &spec).expect("partial");
        let direct = sealed.primary().query_all_entries(&[spec]);
        assert_eq!(answer.primary().rows(), direct[0].as_slice(), "{spec:?}");
        assert_eq!(answer.packets, sealed.packets);
    }
    // Windowed rollup across all three epochs covers the whole trace.
    let win = client.window(0, 2, &KeySpec::SRC_IP).expect("window");
    let trace_data = traffic::io::load(&trace).unwrap();
    assert_eq!(win.packets, trace_data.len() as u64);
    assert_eq!(win.weight, trace_data.total_weight());

    client.shutdown().expect("shutdown");
    let out = wait_bounded(child);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("serving on "), "{text}");
    assert!(text.contains("server stopped after"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn measure_serve_without_window_serves_the_run_as_epoch_zero() {
    use serve::Select;
    use traffic::KeySpec;

    let dir = tmpdir("serve-plain");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    let sock = dir.join("serve.sock");
    let addr = format!("unix:{}", sock.display());
    run(&[
        "generate",
        "--preset",
        "mawi",
        "--scale",
        "1000",
        "--seed",
        "3",
        "--out",
        trace.to_str().unwrap(),
    ]);
    let child = Command::new(bin())
        .args([
            "measure",
            "--trace",
            trace.to_str().unwrap(),
            "--memory",
            "100KB",
            "--serve",
            &addr,
            "--out",
            table.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serving measure");

    let mut client = connect_with_retry(&addr);
    let info = wait_for_epochs(&mut client, 1);
    assert_eq!(info.ids, Some((0, 0)));
    // The served epoch is the run's flow table, bit-identical to the
    // table file written before serving began.
    let table_bytes = std::fs::read(&table).unwrap();
    let direct = cocosketch::snapshot::decode(&table_bytes).unwrap();
    let answer = client
        .partial(Select::Latest, &KeySpec::FIVE_TUPLE)
        .expect("partial");
    let want = direct.query_all_entries(&[KeySpec::FIVE_TUPLE]);
    assert_eq!(answer.primary().rows(), want[0].as_slice());

    client.shutdown().expect("shutdown");
    let out = wait_bounded(child);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_requires_an_address() {
    let out = run(&[
        "measure",
        "--trace",
        "unused.cct",
        "--serve",
        "--out",
        "unused.cft",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--serve takes an address"));
}

#[test]
fn tables_whose_sizes_overflow_are_refused_not_wrapped() {
    // Two flows of one source IP whose sizes sum past u64::MAX: summed
    // unchecked, the source's size and the total would print as 1.
    use cocosketch::{epoch, snapshot, Epoch, FlowTable, SharedEpochDir};
    use traffic::{FiveTuple, KeySpec};
    let dir = tmpdir("overflow");
    let table = FlowTable::new(
        KeySpec::FIVE_TUPLE,
        vec![
            (FiveTuple::new(7, 1, 1, 1, 6).encode(), u64::MAX),
            (FiveTuple::new(7, 2, 1, 1, 6).encode(), 2),
        ],
    );
    let cft = dir.join("big.cft");
    std::fs::write(&cft, snapshot::encode(&table)).unwrap();
    let sealed = Epoch {
        id: 0,
        packets: 2,
        weight: u64::MAX,
        tables: vec![table],
    };
    let cep = dir.join("big.cep");
    std::fs::write(&cep, epoch::encode(&sealed)).unwrap();
    let spill = dir.join("epochs");
    let (shared, _) = SharedEpochDir::open(&spill).unwrap();
    shared.append(&sealed).unwrap();
    shared.checkpoint().unwrap();
    drop(shared);

    let (cft, cep, spill) = (
        cft.to_str().unwrap(),
        cep.to_str().unwrap(),
        spill.to_str().unwrap(),
    );
    for args in [
        vec!["query", "--table", cft, "--key", "srcip"],
        vec!["stats", "--table", cft, "--key", "srcip"],
        vec!["info", "--table", cft],
        vec!["query", "--table", cep, "--key", "srcip"],
        vec!["stats", "--dir", spill, "--key", "srcip"],
        vec!["query", "--dir", spill, "--epoch", "0", "--key", "srcip"],
    ] {
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("flow sizes sum past u64::MAX"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a wrapped answer");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_unknown_command() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn rejects_bad_key() {
    let dir = tmpdir("badkey");
    let trace = dir.join("t.cct");
    let table = dir.join("t.cft");
    run(&[
        "generate",
        "--preset",
        "mawi",
        "--scale",
        "5000",
        "--out",
        trace.to_str().unwrap(),
    ]);
    run(&[
        "measure",
        "--trace",
        trace.to_str().unwrap(),
        "--out",
        table.to_str().unwrap(),
    ]);
    let out = run(&[
        "query",
        "--table",
        table.to_str().unwrap(),
        "--key",
        "nonsense",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown key"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_missing_file() {
    let out = run(&["info", "--trace", "/nonexistent/path.cct"]);
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = run(&["help"]);
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("generate"));
    // The --spill help quotes the manifest's lag bound.
    let lag = cocosketch::segment::MANIFEST_LAG;
    assert!(usage.contains(&format!("up to {lag} epochs")), "{usage}");
}
