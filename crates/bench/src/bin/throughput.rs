//! Ingestion throughput: scalar vs. SIMD-batched vs. sharded, as JSON.
//!
//! Replays a CAIDA-like trace (default ~1M packets, `--scale 27`)
//! through three paths:
//!
//! 1. the scalar per-packet [`Sketch::update`] loop (the pre-engine
//!    baseline, and the oracle the batched path is checked against),
//! 2. the batched hot path alone — [`Sketch::update_batch`] over the
//!    whole trace on a fresh single-shard sketch: lane-parallel hashing
//!    and a prefetched probe, with no session around it. This is the
//!    per-thread capacity (`single_shard_batched_mpps`) that the `mpps`
//!    model scales and `scripts/bench_compare.sh` gates;
//! 3. the engine at each requested thread count, timed from session
//!    start to finish: at one thread a one-shard session on this
//!    thread, beyond it real rings and worker threads (conservation
//!    asserted on every run).
//!
//! Before any timed run the batched path is asserted *bit-identical*
//! to the scalar oracle on the benchmark trace itself — identical
//! records and identical total — so the reported speedup can never
//! come from computing something different.
//!
//! Each timed section runs `--reps` repetitions (default 3); the JSON
//! records per-rep rates, their mean, and their variance, plus the
//! detected CPU features (`simd` feature compiled? AVX2 present? which
//! kernel dispatches?) and, under `--pin`, the shard→core layout.
//!
//! Output is one JSON document, printed to stdout and written to
//! `<out>/BENCH_throughput.json`. Two throughput fields per thread
//! count:
//!
//! - `measured_mpps` — wall-clock rate of the real run *on this host*
//!   (on a single-core box, threads interleave and this cannot scale);
//! - `mpps` — the DESIGN.md substitution: measured single-shard
//!   capacity x threads. Shards share no state (private sketch,
//!   private ring, no locks), so per-thread capacity is additive on a
//!   machine with enough cores — this is the deployment-shaped number
//!   and what the scaling claim refers to;
//! - `nic_capped_mpps` — `mpps` additionally capped at the modeled
//!   40 GbE line rate (the Figure 15a plateau).
//!
//! The `note` field in the JSON restates the substitution so the file
//! is self-describing. `scripts/bench_compare.sh` diffs a fresh run
//! against the committed baseline.
//!
//! Run with:
//! `cargo run --release -p cocosketch-bench --features simd --bin throughput -- [--scale N] [--seed S] [--threads 1,2,4,8] [--reps R] [--pin] [--out DIR]`

use engine::{EngineConfig, ShardedCocoSketch};
use ovssim::NicModel;
use sketches::Sketch;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use traffic::{presets, KeyBytes, KeySpec};

struct Args {
    scale: usize,
    seed: u64,
    threads: Vec<usize>,
    reps: usize,
    pin: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: 27, // 27M-packet CAIDA preset / 27 = the 1M-packet run
        seed: 0xC0C0,
        threads: vec![1, 2, 4, 8],
        reps: 3,
        pin: false,
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
            "--reps" => a.reps = need_value(i).parse().expect("--reps takes an integer"),
            "--threads" => {
                a.threads = need_value(i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2,4,8"))
                    .collect();
                assert!(!a.threads.is_empty() && a.threads.iter().all(|&t| t > 0));
            }
            "--out" => a.out_dir = PathBuf::from(need_value(i)),
            "--pin" => {
                a.pin = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: throughput [--scale N] [--seed S] [--threads 1,2,4,8] \
                     [--reps R] [--pin] [--out DIR]"
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
    assert!(a.reps > 0, "--reps must be positive");
    a
}

const MEM: usize = 512 * 1024;

/// Mean and (population) variance of a sample.
fn mean_var(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1) as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var)
}

/// Render a float slice as a JSON array.
fn json_floats(xs: &[f64]) -> String {
    let inner: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!("[{}]", inner.join(", "))
}

fn main() {
    let args = parse_args();
    eprintln!(
        "throughput: generating CAIDA-like trace at scale {} ...",
        args.scale
    );
    let trace = presets::caida_like(args.scale, args.seed);
    let packets: Vec<(KeyBytes, u64)> = trace
        .packets
        .iter()
        .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
        .collect();
    let total_weight: u64 = packets.iter().map(|&(_, w)| w).sum();
    let nic = NicModel::forty_gbe();

    let config = |threads: usize| EngineConfig {
        threads,
        seed: args.seed,
        pin: args.pin,
        ..EngineConfig::default()
    };

    // CPU features: what this binary *can* run and what it *will* run.
    let simd_compiled = cfg!(feature = "simd");
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let kernel = hashkit::simd::backend();
    let cores = engine::available_cores();
    eprintln!(
        "throughput: cpu features: simd_compiled={simd_compiled} avx2={avx2} \
         kernel={kernel} cores={cores} pin={}",
        args.pin
    );

    // A fresh single-shard sketch, as the one-shard engine builds it.
    let fresh = || {
        cocosketch::BasicCocoSketch::with_memory(MEM, 2, KeySpec::FIVE_TUPLE.key_bytes(), args.seed)
    };

    // Bit-identity gate, before anything is timed: the batched path
    // (SIMD hashing, prefetch, pipelining) must produce the *identical*
    // sketch to the scalar per-packet oracle on this very trace.
    {
        let mut oracle = fresh();
        let mut batched = fresh();
        for (key, w) in &packets {
            oracle.update(key, *w);
        }
        batched.update_batch(&packets);
        let mut a = oracle.records();
        let mut b = batched.records();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "batched path diverged from the scalar oracle");
        assert_eq!(oracle.total_value(), batched.total_value());
        eprintln!(
            "throughput: bit-identity gate passed ({} records, kernel={kernel})",
            a.len()
        );
    }

    // Baseline 1: the scalar per-packet loop.
    let mut scalar_reps = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let mut scalar = fresh();
        let start = Instant::now();
        for (key, w) in &packets {
            scalar.update(key, *w);
        }
        scalar_reps.push(packets.len() as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e6);
        assert_eq!(scalar.total_value(), total_weight);
    }
    let (scalar_mpps, scalar_var) = mean_var(&scalar_reps);

    // Baseline 2: the batched hot path alone — the per-thread capacity
    // the scaling model extrapolates from. The threads-1 row below
    // times the same kernel inside a whole one-shard session. Pinned
    // like that session: before the sketch is allocated.
    if args.pin {
        let _ = engine::pin_current_thread(engine::core_for_shard(0));
    }
    let mut single_reps = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        let mut single = fresh();
        let start = Instant::now();
        single.update_batch(&packets);
        single_reps.push(packets.len() as f64 / start.elapsed().as_secs_f64().max(1e-12) / 1e6);
        assert_eq!(single.total_value(), total_weight);
    }
    let (per_thread_capacity, single_var) = mean_var(&single_reps);
    eprintln!(
        "throughput: scalar {scalar_mpps:.2} Mpps, batched single-shard \
         {per_thread_capacity:.2} Mpps ({:.2}x, kernel={kernel})",
        per_thread_capacity / scalar_mpps.max(1e-12)
    );

    let mut results = String::new();
    for (idx, &threads) in args.threads.iter().enumerate() {
        let mut measured_reps = Vec::with_capacity(args.reps);
        let mut last_run = None;
        for _ in 0..args.reps {
            let run = ShardedCocoSketch::with_memory(MEM, config(threads)).run(&packets);
            assert_eq!(
                run.processed,
                packets.len() as u64,
                "engine dropped packets"
            );
            assert_eq!(
                run.sketch.total_value(),
                total_weight,
                "conservation violated at {threads} threads"
            );
            measured_reps.push(run.mpps);
            last_run = Some(run);
        }
        let run = last_run.expect("reps >= 1");
        let (measured_mean, measured_var) = mean_var(&measured_reps);
        // Per-shard Mpps of the last rep: shard packets over the run's
        // wall time (shards drain concurrently, so each shard's rate
        // is its packet share over the same elapsed window).
        let elapsed = run.elapsed.as_secs_f64().max(1e-12);
        let per_shard_mpps: Vec<f64> = run
            .per_shard
            .iter()
            .map(|&p| p as f64 / elapsed / 1e6)
            .collect();
        let pin_layout: Vec<String> = if args.pin {
            (0..threads)
                .map(|s| engine::core_for_shard(s).to_string())
                .collect()
        } else {
            Vec::new()
        };
        let scaled = per_thread_capacity * threads as f64;
        let capped = nic.cap_mpps(per_thread_capacity * threads as f64);
        eprintln!(
            "throughput: {threads} threads: modeled {scaled:.2} Mpps ({capped:.2} behind 40GbE), \
             measured {measured_mean:.2} Mpps (var {measured_var:.4})"
        );
        if idx > 0 {
            results.push_str(",\n");
        }
        let _ = write!(
            results,
            "    {{\"threads\": {threads}, \"mpps\": {scaled:.4}, \"nic_capped_mpps\": {capped:.4}, \
             \"measured_mpps\": {measured_mean:.4}, \"measured_mpps_var\": {measured_var:.4}, \
             \"measured_mpps_reps\": {}, \"per_shard_mpps\": {}, \"pin_layout\": [{}]}}",
            json_floats(&measured_reps),
            json_floats(&per_shard_mpps),
            pin_layout.join(", "),
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"throughput\",\n  \"trace_packets\": {},\n  \"seed\": {},\n  \
         \"reps\": {},\n  \
         \"cpu\": {{\"simd_compiled\": {simd_compiled}, \"avx2\": {avx2}, \
         \"kernel\": \"{kernel}\", \"cores\": {cores}, \"pin\": {}}},\n  \
         \"scalar_mpps\": {scalar_mpps:.4},\n  \"scalar_mpps_var\": {scalar_var:.4},\n  \
         \"scalar_mpps_reps\": {},\n  \
         \"single_shard_batched_mpps\": {per_thread_capacity:.4},\n  \
         \"single_shard_batched_mpps_var\": {single_var:.4},\n  \
         \"single_shard_batched_mpps_reps\": {},\n  \
         \"batched_over_scalar\": {:.4},\n  \
         \"note\": \"mpps = measured single-shard capacity x threads (shards share no state; \
         the DESIGN.md single-core substitution); nic_capped_mpps applies the modeled 40GbE \
         line rate; measured_mpps is this host's wall-clock rate; batched output is asserted \
         bit-identical to the scalar oracle before timing\",\n  \
         \"results\": [\n{results}\n  ]\n}}\n",
        packets.len(),
        args.seed,
        args.reps,
        args.pin,
        json_floats(&scalar_reps),
        json_floats(&single_reps),
        per_thread_capacity / scalar_mpps.max(1e-12),
    );
    print!("{json}");
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = args.out_dir.join("BENCH_throughput.json");
    std::fs::write(&path, &json).expect("write BENCH_throughput.json");
    eprintln!("throughput: wrote {}", path.display());
}
