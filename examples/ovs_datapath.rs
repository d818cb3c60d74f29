//! The software-switch deployment: rings, polling threads, shards.
//!
//! Replays a trace through the sharded engine — the OVS datapath's
//! shape: RSS partition into per-queue SPSC rings, one polling
//! measurement thread per ring owning a sketch shard, and a merge at
//! the end — then verifies the merged sketch against ground truth.
//!
//! Run with: `cargo run --release -p cocosketch-bench --example ovs_datapath`

use engine::{EngineConfig, ShardedCocoSketch};
use sketches::Sketch;
use traffic::gen::{generate, TraceConfig};
use traffic::{truth, KeySpec};

fn main() {
    let trace = generate(&TraceConfig {
        packets: 300_000,
        flows: 25_000,
        ..TraceConfig::default()
    });
    println!("trace: {} packets", trace.len());

    for threads in [1usize, 2, 4] {
        let run = ShardedCocoSketch::with_memory(
            512 * 1024,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        )
        .run_trace(&trace, &KeySpec::FIVE_TUPLE);

        println!(
            "\n{threads} thread(s): processed {} packets in {:?} ({:.2} Mpps wall)",
            run.processed, run.elapsed, run.mpps
        );
        println!("  per-thread load: {:?}", run.per_shard);
        assert_eq!(
            run.sketch.total_value(),
            trace.total_weight(),
            "merge conserves weight"
        );

        // Check the top-5 flows against exact counts.
        let exact = truth::exact_counts(&trace, &KeySpec::FIVE_TUPLE);
        let mut top: Vec<_> = exact.iter().collect();
        top.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(*v));
        for (key, &true_size) in top.iter().take(5) {
            let est = run.sketch.query(key);
            let err = (est as f64 - true_size as f64).abs() / true_size as f64;
            println!(
                "  {}  true {true_size}  merged-estimate {est}  ({:.1}% err)",
                KeySpec::FIVE_TUPLE.decode(key),
                err * 100.0
            );
        }
    }
}
