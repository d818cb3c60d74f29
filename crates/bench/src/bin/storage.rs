//! Durable epoch tier benchmark: seal latency and reopen/scan rate, as
//! JSON.
//!
//! Exercises the storage layer the way `measure --window --spill` uses
//! it:
//!
//! 1. **seal** — append `--epochs` sealed epochs of `--rows` flows to a
//!    fresh [`cocosketch::segment::EpochDir`]; each append is the full
//!    durability protocol (encode, tmp write, fsync, rename, directory
//!    fsync, plus the manifest listing every
//!    [`MANIFEST_LAG`](cocosketch::segment::MANIFEST_LAG)-th append),
//!    timed per epoch;
//! 2. **reopen** — close the populated directory cleanly (the
//!    checkpoint that lists the unlisted tail, untimed) and reopen it
//!    (manifest decode + prefix validation + tail checksum), then
//!    **scan** every segment back (read, [`sum64`] check, total
//!    decode), reporting epochs/s and MB/s.
//!
//! [`sum64`]: cocosketch::segment::sum64
//!
//! The run repeats `--reps` times in fresh directories; per-epoch seal
//! latencies merge across reps, and rates take the best rep (the usual
//! steady-state estimator for I/O benches). `scripts/bench_compare.sh`
//! prints `seal_append_us_mean` and `scan_mb_per_s` against the
//! committed baseline.
//!
//! Run with:
//! `cargo run --release -p cocosketch-bench --bin storage -- [--epochs N] [--rows R] [--reps K] [--out DIR]`

use cocosketch::segment::EpochDir;
use cocosketch::{Epoch, FlowTable};
use std::path::PathBuf;
use std::time::Instant;
use traffic::{FiveTuple, KeyBytes, KeySpec};

struct Args {
    epochs: u64,
    rows: u32,
    reps: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        epochs: 32,
        rows: 20_000,
        reps: 3,
        out_dir: PathBuf::from("results"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1).unwrap_or_else(|| {
                eprintln!("missing value after {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--epochs" => a.epochs = need_value(i).parse().expect("--epochs takes an integer"),
            "--rows" => a.rows = need_value(i).parse().expect("--rows takes an integer"),
            "--reps" => a.reps = need_value(i).parse().expect("--reps takes an integer"),
            "--out" => a.out_dir = PathBuf::from(need_value(i)),
            "--help" | "-h" => {
                eprintln!("usage: storage [--epochs N] [--rows R] [--reps K] [--out DIR]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    assert!(a.epochs > 0, "--epochs must be positive");
    assert!(a.rows > 0, "--rows must be positive");
    assert!(a.reps > 0, "--reps must be positive");
    a
}

/// A sealed epoch with `rows` distinct flows, deterministic in `id`.
/// Keys are Weyl-sequence mixed so the table looks hash-random (like a
/// real seal) instead of arithmetic-sequential.
fn build_epoch(id: u64, rows: u32) -> Epoch {
    let full = KeySpec::FIVE_TUPLE;
    let entries: Vec<(KeyBytes, u64)> = (0..rows)
        .map(|i| {
            let x = (u64::from(i) + (id << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let flow = FiveTuple::new(
                (x >> 32) as u32,
                x as u32,
                (x >> 16) as u16,
                x as u16,
                if x & 1 == 0 { 6 } else { 17 },
            );
            (full.project(&flow), (x % 1000) + 1)
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

fn main() {
    let args = parse_args();
    eprintln!(
        "storage: {} epochs x {} rows, {} rep{}",
        args.epochs,
        args.rows,
        args.reps,
        if args.reps == 1 { "" } else { "s" }
    );
    let epochs: Vec<Epoch> = (0..args.epochs)
        .map(|id| build_epoch(id, args.rows))
        .collect();

    let mut seal_us: Vec<f64> = Vec::new();
    let mut best_reopen_ms = f64::INFINITY;
    let mut best_scan_eps = 0.0f64;
    let mut best_scan_mbps = 0.0f64;
    let mut stored_bytes = 0u64;

    for rep in 0..args.reps {
        let root = std::env::temp_dir().join(format!(
            "cocosketch-bench-storage-{}-{rep}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();

        // Section 1: seal latency — the full durability protocol per
        // appended epoch.
        let (mut dir, _) = EpochDir::open(&root).expect("open fresh dir");
        for e in &epochs {
            let t = Instant::now();
            dir.append(e).expect("append epoch");
            seal_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        stored_bytes = dir.segments().iter().map(|m| m.bytes).sum();
        dir.checkpoint().expect("clean close");
        drop(dir);

        // Section 2: reopen (recovery-path validation) + full scan.
        let t = Instant::now();
        let (dir, report) = EpochDir::open(&root).expect("reopen");
        let reopen_ms = t.elapsed().as_nanos() as f64 / 1e6;
        assert!(
            report.quarantined.is_empty() && report.adopted == 0,
            "reopen of a clean directory found work: {report:?}"
        );
        let t = Instant::now();
        let mut scanned = 0u64;
        for sealed in dir.scan() {
            let sealed = sealed.expect("scan segment");
            std::hint::black_box(sealed.weight);
            scanned += 1;
        }
        let scan_s = t.elapsed().as_secs_f64().max(1e-12);
        assert_eq!(scanned, args.epochs, "scan visited every segment");
        let scan_eps = scanned as f64 / scan_s;
        let scan_mbps = stored_bytes as f64 / 1e6 / scan_s;
        best_reopen_ms = best_reopen_ms.min(reopen_ms);
        if scan_eps > best_scan_eps {
            best_scan_eps = scan_eps;
            best_scan_mbps = scan_mbps;
        }

        eprintln!(
            "storage: rep {rep}: reopen {reopen_ms:.2} ms, scan {scan_eps:.0} epochs/s \
             ({scan_mbps:.0} MB/s)"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    seal_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let seal_mean = seal_us.iter().sum::<f64>() / seal_us.len() as f64;
    let seal_max = *seal_us.last().expect("at least one seal");
    eprintln!("storage: seal {seal_mean:.0} us mean / {seal_max:.0} us max");

    let json = format!(
        "{{\n  \"bench\": \"storage\",\n  \"epochs\": {},\n  \"rows_per_epoch\": {},\n  \
         \"reps\": {},\n  \"stored_bytes\": {stored_bytes},\n  \
         \"seal_append_us_mean\": {seal_mean:.2},\n  \
         \"seal_append_us_max\": {seal_max:.2},\n  \
         \"reopen_ms\": {best_reopen_ms:.3},\n  \
         \"scan_epochs_per_s\": {best_scan_eps:.1},\n  \
         \"scan_mb_per_s\": {best_scan_mbps:.1},\n  \
         \"note\": \"seal = full durability protocol (encode, tmp write, fsync, rename, \
         directory fsync; every {}th append also replaces the manifest) per appended epoch, \
         latencies merged across reps; reopen = manifest decode + prefix validation + tail \
         checksum on a cleanly closed directory, best rep; scan = every segment read, \
         checksummed (XXH64) and decoded, best rep\"\n}}\n",
        args.epochs,
        args.rows,
        args.reps,
        cocosketch::segment::MANIFEST_LAG,
    );
    print!("{json}");
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = args.out_dir.join("BENCH_storage.json");
    std::fs::write(&path, &json).expect("write BENCH_storage.json");
    eprintln!("storage: wrote {}", path.display());
}
