//! Cross-platform consistency: the three CocoSketch variants, the
//! hardware models, and the sharded OVS-style datapath must tell one
//! coherent story.

use cocosketch::Variant;
use engine::{EngineConfig, ShardedCocoSketch};
use hwsim::fpga::{synthesize, FpgaConfig};
use hwsim::program::library;
use hwsim::rmt::{place, PlaceError, RmtConfig};
use sketches::Sketch;
use tasks::{heavy_hitter, Algo};
use traffic::gen::{generate, TraceConfig};
use traffic::{truth, KeySpec};

fn trace() -> traffic::Trace {
    generate(&TraceConfig {
        packets: 120_000,
        flows: 8_000,
        alpha: 1.12,
        ip_skew: 1.0,
        seed: 0xCAFE,
    })
}

#[test]
fn all_three_variants_detect_the_same_heavy_hitters() {
    let t = trace();
    let mut scores = Vec::new();
    for variant in Variant::ALL {
        let res = heavy_hitter::run(
            &t,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            Algo::Coco { variant, d: 2 },
            256 * 1024,
            // At test scale the 1e-4 threshold is only ~12 packets,
            // far below the regime the paper's <10% claim refers to;
            // 1e-3 (~120 packets) matches the paper's flow-size ratio.
            1e-3,
            7,
        );
        scores.push((variant.name(), res.avg.f1));
    }
    // Figure 18a: basic best, hardware versions within 10%, FPGA vs P4
    // within ~1 point.
    let basic = scores[0].1;
    let fpga = scores[1].1;
    let p4 = scores[2].1;
    assert!(basic > 0.93, "basic F1 {basic}");
    assert!(basic - fpga < 0.10, "hardware drop too large: {scores:?}");
    assert!((fpga - p4).abs() < 0.03, "approx division gap: {scores:?}");
}

#[test]
fn rmt_feasibility_matches_variant_design() {
    let cfg = RmtConfig::default();
    // What runs in software (basic, d=2) cannot be placed...
    let basic = library::coco_basic(500_000, 2, library::FIVE_TUPLE_BITS);
    assert!(matches!(
        place(&basic, &cfg),
        Err(PlaceError::CircularDependency(_))
    ));
    // ...and what the P4 variant models places fine.
    let hw = library::coco_hardware(500_000, 2, library::FIVE_TUPLE_BITS);
    assert!(place(&hw, &cfg).is_ok());
}

#[test]
fn fpga_model_agrees_with_rmt_on_structure() {
    // The same program that fails RMT placement is the one that
    // serializes (II > 1) on FPGA — one dataflow property, two models.
    let cfg = FpgaConfig::default();
    let basic = synthesize(
        &library::coco_basic(500_000, 2, library::FIVE_TUPLE_BITS),
        &cfg,
    );
    let hw = synthesize(
        &library::coco_hardware(500_000, 2, library::FIVE_TUPLE_BITS),
        &cfg,
    );
    assert!(basic.initiation_interval > 1);
    assert_eq!(hw.initiation_interval, 1);
    assert!(hw.throughput_mpps > 4.0 * basic.throughput_mpps);
}

#[test]
fn sharded_datapath_matches_single_sketch_accuracy() {
    // Splitting the stream across OVS shards must not cost accuracy:
    // compare the merged shard table against a single same-total-memory
    // sketch on the top flows.
    let t = trace();
    let full = KeySpec::FIVE_TUPLE;
    let run = ShardedCocoSketch::with_memory(
        256 * 1024,
        EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        },
    )
    .run_trace(&t, &full);

    let mut single = cocosketch::BasicCocoSketch::with_memory(256 * 1024, 2, full.key_bytes(), 1);
    for p in &t.packets {
        single.update(&full.project(&p.flow), u64::from(p.weight));
    }

    let exact = truth::exact_counts(&t, &full);
    let mut top: Vec<_> = exact.iter().collect();
    top.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(*v));
    for (key, &true_size) in top.iter().take(20) {
        let sharded = run.sketch.query(key) as f64;
        let single_est = single.query(key) as f64;
        let err_sharded = (sharded - true_size as f64).abs() / true_size as f64;
        let err_single = (single_est - true_size as f64).abs() / true_size as f64;
        assert!(
            err_sharded < err_single + 0.15,
            "sharding hurt flow {key:?}: {err_sharded} vs {err_single}"
        );
    }
}

#[test]
fn hardware_variant_queries_match_basic_on_big_flows() {
    let t = trace();
    let full = KeySpec::FIVE_TUPLE;
    let mut basic = cocosketch::BasicCocoSketch::with_memory(256 * 1024, 2, full.key_bytes(), 3);
    let mut hw = cocosketch::HardwareCocoSketch::with_memory(
        256 * 1024,
        2,
        full.key_bytes(),
        cocosketch::DivisionMode::Exact,
        3,
    );
    for p in &t.packets {
        let k = full.project(&p.flow);
        basic.update(&k, u64::from(p.weight));
        hw.update(&k, u64::from(p.weight));
    }
    let exact = truth::exact_counts(&t, &full);
    let mut top: Vec<_> = exact.iter().collect();
    top.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(*v));
    for (key, &true_size) in top.iter().take(10) {
        for (name, est) in [("basic", basic.query(key)), ("hw", hw.query(key))] {
            let rel = (est as f64 - true_size as f64).abs() / true_size as f64;
            assert!(rel < 0.25, "{name} flow {key:?}: est {est} vs {true_size}");
        }
    }
}
