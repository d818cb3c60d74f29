//! Rotation cost: what continuous windowed measurement adds over a
//! one-shot run, as JSON.
//!
//! Replays a CAIDA-like trace (default ~1M packets, `--scale 27`)
//! through the sharded [`engine::EngineSession`] twice per thread
//! count:
//!
//! 1. **rotation off** — one epoch, sealed once at `finish()` (the
//!    one-shot ingest baseline on the same session runtime: the
//!    caller's thread at one thread, the rings and workers beyond);
//! 2. **rotation on** — an epoch sealed every `--window` packets with
//!    the overlapped protocol: after each [`EngineSession::rotate`] the
//!    next window's packets are pushed *before* the previous epoch is
//!    collected, so shard merging runs on the collector thread while
//!    the workers keep ingesting.
//!
//! Three costs are reported:
//!
//! - `mpps_rotation_{off,on}` — wall-clock ingest throughput of the
//!   two runs (their ratio is the rotation tax);
//! - `seal_pause_us_{mean,max}` — the producer-visible pause of
//!   `rotate()` itself: pushing one in-band seal marker per ring, or
//!   with one thread swapping in the spare sketch. Ingestion never
//!   stops for the epoch boundary, so this should sit at microseconds
//!   regardless of window size;
//! - `collect_us_mean` — off-hot-path merge time per sealed epoch
//!   (collector thread; overlapped with ingestion beyond one thread).
//!
//! Every run asserts exact conservation: epoch packet/weight totals
//! must sum to the stream's.
//!
//! Run with:
//! `cargo run --release -p cocosketch-bench --bin rotation -- [--scale N] [--seed S] [--threads 1,2,4] [--window N] [--out DIR]`

use engine::{EngineConfig, EngineSession, EpochRun, PendingEpoch, ShardedCocoSketch};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use traffic::{presets, KeyBytes, KeySpec};

struct Args {
    scale: usize,
    seed: u64,
    threads: Vec<usize>,
    window: usize,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: 27, // 27M-packet CAIDA preset / 27 = the 1M-packet run
        seed: 0xC0C0,
        threads: vec![1, 2, 4],
        window: 100_000,
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
            "--scale" => a.scale = need_value(i).parse().expect("--scale takes an integer"),
            "--seed" => a.seed = need_value(i).parse().expect("--seed takes an integer"),
            "--window" => a.window = need_value(i).parse().expect("--window takes an integer"),
            "--threads" => {
                a.threads = need_value(i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4"))
                    .collect();
                assert!(!a.threads.is_empty() && a.threads.iter().all(|&t| t > 0));
            }
            "--out" => a.out_dir = PathBuf::from(need_value(i)),
            "--help" | "-h" => {
                eprintln!(
                    "usage: rotation [--scale N] [--seed S] [--threads 1,2,4] [--window N] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    assert!(a.scale > 0, "--scale must be positive");
    assert!(a.window > 0, "--window must be positive");
    a
}

const MEM: usize = 512 * 1024;

fn session(threads: usize, seed: u64) -> EngineSession<cocosketch::BasicCocoSketch> {
    ShardedCocoSketch::with_memory(
        MEM,
        EngineConfig {
            threads,
            seed,
            ..EngineConfig::default()
        },
    )
    .session()
}

fn assert_conserved(epochs: &[EpochRun], packets: usize, weight: u64) {
    let (p, w) = epochs
        .iter()
        .fold((0u64, 0u64), |(p, w), e| (p + e.packets, w + e.weight));
    assert_eq!(p, packets as u64, "rotation lost packets");
    assert_eq!(w, weight, "rotation lost weight");
}

struct RotationRun {
    elapsed: Duration,
    seal_pauses: Vec<Duration>,
    collects: Vec<Duration>,
    epochs: Vec<EpochRun>,
}

/// The overlapped rotation loop: push window k, collect epoch k-1
/// (merging while any workers chew on window k), then seal window k.
fn run_with_rotation(
    threads: usize,
    seed: u64,
    packets: &[(KeyBytes, u64)],
    window: usize,
) -> RotationRun {
    let mut s = session(threads, seed);
    let mut pending: Option<PendingEpoch> = None;
    let mut seal_pauses = Vec::new();
    let mut collects = Vec::new();
    let mut epochs = Vec::new();
    let started = Instant::now();
    for chunk in packets.chunks(window) {
        s.push_batch(chunk);
        if let Some(p) = pending.take() {
            let t = Instant::now();
            epochs.push(s.collect(p));
            collects.push(t.elapsed());
        }
        let t = Instant::now();
        pending = Some(s.rotate());
        seal_pauses.push(t.elapsed());
    }
    if let Some(p) = pending.take() {
        let t = Instant::now();
        epochs.push(s.collect(p));
        collects.push(t.elapsed());
    }
    // The final epoch is empty (every chunk was sealed); finishing it
    // keeps the accounting total.
    epochs.push(s.finish());
    let elapsed = started.elapsed();
    RotationRun {
        elapsed,
        seal_pauses,
        collects,
        epochs,
    }
}

fn mean_us(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(Duration::as_secs_f64).sum::<f64>() / samples.len() as f64 * 1e6
}

fn main() {
    let args = parse_args();
    eprintln!(
        "rotation: generating CAIDA-like trace at scale {} ...",
        args.scale
    );
    let trace = presets::caida_like(args.scale, args.seed);
    let packets: Vec<(KeyBytes, u64)> = trace
        .packets
        .iter()
        .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
        .collect();
    let total_weight: u64 = packets.iter().map(|&(_, w)| w).sum();

    let mut results = String::new();
    for (idx, &threads) in args.threads.iter().enumerate() {
        // Rotation off: same session runtime, one epoch at finish().
        let mut s = session(threads, args.seed);
        let started = Instant::now();
        s.push_batch(&packets);
        let single = s.finish();
        let off_elapsed = started.elapsed();
        assert_conserved(std::slice::from_ref(&single), packets.len(), total_weight);
        let mpps_off = packets.len() as f64 / off_elapsed.as_secs_f64().max(1e-12) / 1e6;

        // Rotation on: seal every `window` packets, overlapped.
        let run = run_with_rotation(threads, args.seed, &packets, args.window);
        assert_conserved(&run.epochs, packets.len(), total_weight);
        let mpps_on = packets.len() as f64 / run.elapsed.as_secs_f64().max(1e-12) / 1e6;
        let rotations = run.seal_pauses.len();
        let seal_mean = mean_us(&run.seal_pauses);
        let seal_max = run
            .seal_pauses
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0f64, f64::max)
            * 1e6;
        let collect_mean = mean_us(&run.collects);
        eprintln!(
            "rotation: {threads} threads: off {mpps_off:.2} Mpps, on {mpps_on:.2} Mpps \
             ({rotations} rotations; seal pause mean {seal_mean:.1}us max {seal_max:.1}us, \
             collect mean {collect_mean:.1}us)"
        );
        if idx > 0 {
            results.push_str(",\n");
        }
        let _ = write!(
            results,
            "    {{\"threads\": {threads}, \"mpps_rotation_off\": {mpps_off:.4}, \
             \"mpps_rotation_on\": {mpps_on:.4}, \"rotations\": {rotations}, \
             \"seal_pause_us_mean\": {seal_mean:.2}, \"seal_pause_us_max\": {seal_max:.2}, \
             \"collect_us_mean\": {collect_mean:.2}}}"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"rotation\",\n  \"trace_packets\": {},\n  \"seed\": {},\n  \
         \"window_packets\": {},\n  \
         \"note\": \"seal_pause is the producer-visible cost of rotate() (one in-band marker \
         per ring, or one sketch swap at one thread; ingestion never stops); collect is the \
         shard merge, overlapped with the next window's ingestion beyond one thread; \
         conservation asserted on every run\",\n  \
         \"results\": [\n{results}\n  ]\n}}\n",
        packets.len(),
        args.seed,
        args.window,
    );
    print!("{json}");
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = args.out_dir.join("BENCH_rotation.json");
    std::fs::write(&path, &json).expect("write BENCH_rotation.json");
    eprintln!("rotation: wrote {}", path.display());
}
