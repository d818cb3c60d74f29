//! Property-based invariants over the core data structures.
//!
//! Rather than fixed examples, these drive arbitrary packet streams
//! (random keys, weights, and orderings) and assert the structural
//! invariants the analysis relies on.

use cocosketch::{BasicCocoSketch, DivisionMode, FlowTable, HardwareCocoSketch};
use proptest::prelude::*;
use sketches::Sketch;
use traffic::{FiveTuple, KeyBytes, KeySpec};

/// Arbitrary 5-tuples from a compact space (forces collisions).
fn arb_flow() -> impl Strategy<Value = FiveTuple> {
    (
        0u32..64,
        0u32..64,
        0u16..8,
        0u16..8,
        prop_oneof![Just(6u8), Just(17u8)],
    )
        .prop_map(|(s, d, sp, dp, pr)| FiveTuple::new(s, d, sp, dp, pr))
}

/// Arbitrary packet streams.
fn arb_stream() -> impl Strategy<Value = Vec<(FiveTuple, u64)>> {
    prop::collection::vec((arb_flow(), 1u64..100), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn basic_coco_conserves_total_weight(stream in arb_stream(), d in 1usize..5, l in 1usize..32, seed in any::<u64>()) {
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(d, l, full.key_bytes(), seed);
        let mut total = 0u64;
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
            total += w;
        }
        prop_assert_eq!(s.total_value(), total);
        // Records are the non-empty buckets; their sum is the total too.
        let rec_sum: u64 = s.records().iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(rec_sum, total);
    }

    #[test]
    fn hardware_coco_conserves_per_array(stream in arb_stream(), d in 1usize..5, l in 1usize..32, seed in any::<u64>()) {
        let full = KeySpec::FIVE_TUPLE;
        let mut s = HardwareCocoSketch::new(d, l, full.key_bytes(), DivisionMode::Exact, seed);
        let mut total = 0u64;
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
            total += w;
        }
        for i in 0..d {
            prop_assert_eq!(s.array_total(i), total, "array {}", i);
        }
    }

    #[test]
    fn basic_coco_never_duplicates_keys(stream in arb_stream(), seed in any::<u64>()) {
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(3, 8, full.key_bytes(), seed);
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
        }
        let recs = s.records();
        let mut keys: Vec<KeyBytes> = recs.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before, "duplicate key in records");
    }

    #[test]
    fn partial_aggregation_conserves_total(stream in arb_stream(), seed in any::<u64>()) {
        // For any partial key, GROUP BY conserves the table total.
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(2, 16, full.key_bytes(), seed);
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
        }
        let table = FlowTable::new(full, s.records());
        for spec in KeySpec::PAPER_SIX {
            let sum: u64 = table.query_partial(&spec).values().sum();
            prop_assert_eq!(sum, table.total(), "partial key {}", spec);
        }
    }

    #[test]
    fn projection_composes(flow in arb_flow(), bits_a in 0u8..=32, bits_b in 0u8..=32) {
        // g_{A<-B}(g_B(x)) == g_A(x) whenever A ≺ B.
        let (short, long) = if bits_a <= bits_b { (bits_a, bits_b) } else { (bits_b, bits_a) };
        let a = KeySpec::src_prefix(short);
        let b = KeySpec::src_prefix(long);
        prop_assert!(a.is_partial_of(&b));
        let direct = a.project(&flow);
        let via_b = a.project_key(&b, &b.project(&flow));
        prop_assert_eq!(direct, via_b);
    }

    #[test]
    fn decode_inverts_project(flow in arb_flow()) {
        for spec in KeySpec::PAPER_SIX {
            let key = spec.project(&flow);
            let back = spec.decode(&key);
            // Re-projecting the decoded tuple gives the same key.
            prop_assert_eq!(spec.project(&back), key, "{}", spec);
        }
    }

    #[test]
    fn trace_io_roundtrips(stream in arb_stream()) {
        let trace = traffic::Trace {
            packets: stream
                .iter()
                .map(|&(flow, w)| traffic::Packet { flow, weight: w as u32 })
                .collect(),
        };
        let bytes = traffic::io::encode(&trace);
        let back = traffic::io::decode(&bytes).unwrap();
        prop_assert_eq!(trace.packets, back.packets);
    }

    #[test]
    fn queries_never_exceed_stream_total(stream in arb_stream(), seed in any::<u64>()) {
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(2, 8, full.key_bytes(), seed);
        let mut total = 0u64;
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
            total += w;
        }
        for (flow, _) in &stream {
            prop_assert!(s.query(&full.project(flow)) <= total);
        }
    }

    #[test]
    fn stream_summary_total_conserved_under_uss(stream in arb_stream(), cap in 1usize..32, seed in any::<u64>()) {
        let full = KeySpec::FIVE_TUPLE;
        let mut uss = sketches::UnbiasedSpaceSaving::new(cap, full.key_bytes(), seed);
        let mut total = 0u64;
        for (flow, w) in &stream {
            uss.update(&full.project(flow), *w);
            total += w;
        }
        let sum: u64 = uss.records().iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(sum, total);
    }

    #[test]
    fn approx_division_error_within_bound(value in 1u64..10_000_000) {
        let exact = (1u64 << 32) as f64 / value as f64;
        let approx = cocosketch::probability::approx_reciprocal(value) as f64;
        let rel = (approx - exact).abs() / exact;
        prop_assert!(rel <= 0.125 + 1e-9, "value {} rel {}", value, rel);
    }

    #[test]
    fn query_engine_paths_bit_identical(stream in arb_stream(), threads in 1usize..5, seed in any::<u64>()) {
        // Every query-plane path — the chunked parallel scan and the
        // engine front door — must agree exactly (not approximately)
        // with one query_partial scan per spec, spec list including the
        // empty key.
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(2, 16, full.key_bytes(), seed);
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
        }
        let table = FlowTable::new(full, s.records());
        let mut specs = KeySpec::PAPER_SIX.to_vec();
        specs.push(KeySpec::EMPTY);
        let base: Vec<_> = specs.iter().map(|sp| table.query_partial(sp)).collect();
        prop_assert_eq!(&table.query_rollup_threads(&specs, threads), &base, "parallel scan");
        prop_assert_eq!(&table.query_all(&specs), &base, "engine");
    }

    #[test]
    fn hierarchy_rollup_bit_identical(stream in arb_stream(), threads in 1usize..5, seed in any::<u64>()) {
        // The full 33-level source-prefix hierarchy, answered by
        // level-over-level rollup (hash-map and sorted-entry shapes),
        // must match 33 independent per-spec scans bit for bit.
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(2, 16, full.key_bytes(), seed);
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
        }
        let table = FlowTable::new(full, s.records());
        let hierarchy = hhh::hierarchy::src_hierarchy();
        let base: Vec<_> = hierarchy.iter().map(|sp| table.query_partial(sp)).collect();
        prop_assert_eq!(&table.query_rollup(&hierarchy), &base, "rollup (maps)");
        prop_assert_eq!(&table.query_rollup_threads(&hierarchy, threads), &base, "rollup (threads)");
        let entries = table.query_rollup_entries(&hierarchy, threads);
        for ((level, map), spec) in entries.iter().zip(&base).zip(&hierarchy) {
            prop_assert!(
                level.windows(2).all(|w| w[0].0.as_slice() < w[1].0.as_slice()),
                "level {} not strictly sorted", spec
            );
            prop_assert_eq!(level.len(), map.len(), "level {} cardinality", spec);
            for &(k, v) in level {
                prop_assert_eq!(map.get(&k), Some(&v), "level {} key {:?}", spec, k);
            }
        }
    }

    #[test]
    fn snapshot_roundtrips_any_table(stream in arb_stream(), seed in any::<u64>()) {
        // The persistence format is lossless for any sketch-produced
        // table: full spec, row order, keys, and values all survive.
        let full = KeySpec::FIVE_TUPLE;
        let mut s = BasicCocoSketch::new(2, 16, full.key_bytes(), seed);
        for (flow, w) in &stream {
            s.update(&full.project(flow), *w);
        }
        let table = FlowTable::new(full, s.records());
        let back = cocosketch::snapshot::decode(&cocosketch::snapshot::encode(&table)).unwrap();
        prop_assert_eq!(back, table);
    }

    #[test]
    fn epoch_roundtrips_any_tables(
        stream in arb_stream(),
        id in any::<u64>(),
        packets in any::<u64>(),
        weight in any::<u64>(),
        n_tables in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The epoch envelope is lossless around any number of tables
        // (zero included) and any accounting values.
        let full = KeySpec::FIVE_TUPLE;
        let tables: Vec<FlowTable> = (0..n_tables)
            .map(|i| {
                let mut s = BasicCocoSketch::new(2, 8, full.key_bytes(), seed + i as u64);
                for (flow, w) in &stream {
                    s.update(&full.project(flow), *w);
                }
                FlowTable::new(full, s.records())
            })
            .collect();
        let sealed = cocosketch::Epoch { id, packets, weight, tables };
        let back = cocosketch::epoch::decode(&cocosketch::epoch::encode(&sealed)).unwrap();
        prop_assert_eq!(back, sealed);
    }

    #[test]
    fn epoch_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must decode to Ok or Err, never panic —
        // with or without a valid-looking magic prefix.
        let _ = cocosketch::epoch::decode(&bytes);
        let mut with_magic = b"CEP1".to_vec();
        with_magic.extend_from_slice(&bytes);
        let _ = cocosketch::epoch::decode(&with_magic);
        let mut with_table_magic = b"CFT1".to_vec();
        with_table_magic.extend_from_slice(&bytes);
        let _ = cocosketch::snapshot::decode(&with_table_magic);
    }
}

#[test]
fn query_engine_paths_on_empty_table() {
    // The degenerate inputs proptest's compact flow space never
    // produces: a table with no rows at all.
    let full = KeySpec::FIVE_TUPLE;
    let table = FlowTable::new(full, Vec::new());
    let mut specs = KeySpec::PAPER_SIX.to_vec();
    specs.push(KeySpec::EMPTY);
    let base: Vec<_> = specs.iter().map(|sp| table.query_partial(sp)).collect();
    assert!(base.iter().all(|m| m.is_empty()));
    assert_eq!(table.query_rollup_threads(&specs, 4), base);
    assert_eq!(table.query_all(&specs), base);
    let hierarchy = hhh::hierarchy::src_hierarchy();
    let empty_h: Vec<_> = hierarchy.iter().map(|sp| table.query_partial(sp)).collect();
    assert_eq!(table.query_rollup(&hierarchy), empty_h);
    assert!(table
        .query_all_entries(&hierarchy)
        .iter()
        .all(Vec::is_empty));
}

/// Arbitrary packet streams over explicit key widths: 13 bytes (the
/// SIMD fast-path width), plus 4 and 16 (generic scalar widths). Byte
/// values are drawn from a compact range so duplicate keys occur.
fn arb_wide_stream() -> impl Strategy<Value = (usize, Vec<(KeyBytes, u64)>)> {
    (
        prop_oneof![Just(4usize), Just(13usize), Just(16usize)],
        prop::collection::vec((prop::collection::vec(0u8..8, 16..17), 1u64..100), 0..400),
    )
        .prop_map(|(width, raw)| {
            let stream = raw
                .into_iter()
                .map(|(bytes, w)| (KeyBytes::new(&bytes[..width]), w))
                .collect();
            (width, stream)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simd_hash_lanes_match_scalar(
        keys in prop::collection::vec(prop::collection::vec(any::<u8>(), 13..14), 8..9),
        seed in any::<u32>(),
    ) {
        // The 8-lane kernel (AVX2 when compiled with `simd` on a
        // supporting host, the portable fallback otherwise) must be
        // bit-identical to the scalar hash, lane by lane.
        let mut words = hashkit::KeyWords8::zeroed();
        let mut expect = [0u32; 8];
        for (lane, bytes) in keys.iter().enumerate() {
            let key: &[u8; 13] = bytes.as_slice().try_into().unwrap();
            words.set_lane(lane, key);
            expect[lane] = hashkit::bob_hash_13(key, seed);
        }
        prop_assert_eq!(hashkit::bob_hash_13x8(&words, seed), expect);
    }

    #[test]
    fn batched_updates_match_per_packet(
        width_stream in arb_wide_stream(),
        d in 1usize..=10,
        l in 1usize..48,
        seed in any::<u64>(),
        split in 0usize..64,
    ) {
        // update_batch (vectorized + prefetched when d <= 8 and the
        // keys are 13 bytes; the chunked wide path otherwise) must end
        // in bucket state bit-identical to per-packet update — the
        // same buckets, values, and RNG draw order — for any stream,
        // any split into batches (empty and non-multiple-of-8
        // included), and any (d, l).
        let (width, stream) = width_stream;
        let mut scalar = BasicCocoSketch::new(d, l, width, seed);
        let mut batched = BasicCocoSketch::new(d, l, width, seed);
        for (k, w) in &stream {
            scalar.update(k, *w);
        }
        let cut = split.min(stream.len());
        let (head, tail) = stream.split_at(cut);
        batched.update_batch(head);
        batched.update_batch(tail);
        prop_assert_eq!(batched.total_value(), scalar.total_value());
        let mut want = scalar.records();
        let mut got = batched.records();
        want.sort();
        got.sort();
        prop_assert_eq!(got, want);
    }
}
