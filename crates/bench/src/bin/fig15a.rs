//! Figure 15a: OVS datapath throughput vs measurement threads, with
//! and without CocoSketch attached.
//!
//! The sharded engine — the datapath's RSS partition, per-queue rings,
//! polling shard workers and merge — is run at each thread count for
//! correctness (every packet processed, totals conserved); the
//! *throughput* column applies the Figure 15a model — measured
//! per-thread capacity x threads, capped at the 40GbE line rate
//! ([`ovssim::NicModel`]) — because a single host core cannot exhibit
//! thread scaling (see DESIGN.md's substitution table).

use cocosketch_bench::{f, Cli, ResultTable};
use engine::{EngineConfig, ShardedCocoSketch};
use ovssim::NicModel;
use tasks::{timing, Algo, Pipeline};
use traffic::{presets, KeySpec};

const MEM: usize = 512 * 1024;

fn main() {
    let cli = Cli::parse();
    eprintln!(
        "fig15a: generating CAIDA-like trace at scale {} ...",
        cli.scale
    );
    let trace = presets::caida_like(cli.scale, cli.seed);
    let nic = NicModel::forty_gbe();

    // Per-thread capacity with the sketch: the single-threaded update
    // loop rate. Without the sketch: the datapath only parses and
    // forwards; model its per-thread capacity as the ring + projection
    // path, measured by a no-op single-key pipeline of negligible size.
    let with_sketch = timing::measure_throughput(
        || {
            Pipeline::deploy(
                Algo::OURS,
                &[KeySpec::FIVE_TUPLE],
                KeySpec::FIVE_TUPLE,
                MEM,
                cli.seed,
            )
        },
        &trace,
        3,
    )
    .mpps;
    // OVS's own datapath forwards at a small multiple of the sketch
    // path (the paper reports < 1.8% CPU overhead from the sketch at
    // line rate, i.e. forwarding itself is the cost): model the bare
    // datapath as the same loop minus the sketch update — measured via
    // a minimal 1-bucket sketch, which reduces the loop to hash+touch.
    let without_sketch = timing::measure_throughput(
        || {
            Pipeline::deploy(
                Algo::OURS,
                &[KeySpec::FIVE_TUPLE],
                KeySpec::FIVE_TUPLE,
                64,
                cli.seed,
            )
        },
        &trace,
        3,
    )
    .mpps;

    let mut table = ResultTable::new(
        "fig15a",
        "OVS throughput (Mpps) vs threads (modeled from measured per-thread capacity)",
        &["threads", "OVS w/o Ours", "OVS w/ Ours", "verified packets"],
    );
    for threads in 1..=4usize {
        // Exercise the real sharded datapath for correctness at this
        // width.
        let run = ShardedCocoSketch::with_memory(
            MEM,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        )
        .run_trace(&trace, &KeySpec::FIVE_TUPLE);
        assert_eq!(run.processed, trace.len() as u64, "datapath lost packets");
        assert_eq!(
            run.sketch.total_value(),
            trace.total_weight(),
            "merge must conserve weight"
        );

        let with_mpps = nic.cap_mpps(with_sketch * threads as f64);
        let without_mpps = nic.cap_mpps(without_sketch * threads as f64);
        eprintln!(
            "fig15a: {threads} threads: w/o {without_mpps:.1} Mpps, w/ {with_mpps:.1} Mpps (real run {:.2} Mpps)",
            run.mpps
        );
        table.push(vec![
            threads.to_string(),
            f(without_mpps),
            f(with_mpps),
            run.processed.to_string(),
        ]);
    }
    table.emit(&cli.out_dir).expect("write results");
}
