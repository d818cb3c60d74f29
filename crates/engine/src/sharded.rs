//! The sharded ingestion engine: RSS partition → rings → shard workers
//! → merge under the [`MergeSketch`] contract.
//!
//! This is the paper's multi-core deployment shape (§6/App. B) as a
//! reusable library instead of a simulation: an ingestion thread
//! partitions packets by a hash of the *full* key (RSS discipline —
//! every packet of a flow lands in the same shard), feeds each of `N`
//! workers through a private lock-free SPSC ring in batches, and each
//! worker drains its ring into a private sketch shard via the batched
//! hot path. At the end the shards fold into one queryable sketch via
//! [`MergeSketch::merge_shard`]. The threads, rings and merge are the
//! [`crate::EngineSession`] runtime: a one-shot [`ShardedEngine::run`]
//! is a session sealed once.
//!
//! [`ShardedEngine`] is generic over the shard type: any sketch
//! implementing the merge contract ingests sharded — CocoSketch with
//! the Theorem 1 unbiased bucket merge, Count-Min by element-wise
//! counter addition, Elastic by its vote merge. Sketches that conserve
//! stream weight ([`MergeSketch::conserved_weight`]) have the
//! conservation invariant checked after every merge.
//!
//! Why unbiasedness survives sharding (CocoSketch case): each packet is
//! counted in exactly one shard, every shard is an unbiased CocoSketch
//! over its sub-stream, and the merge resolves per-bucket key conflicts
//! with the Theorem 1 coin — so estimates over the merged sketch are
//! unbiased for the union stream, and the conservation invariant (sum
//! of bucket values == total stream weight) holds exactly.
//!
//! Determinism: shard assignment is a pure hash, each ring is FIFO, and
//! each shard sketch is seeded from the shared master seed, so for a
//! fixed `(trace, config)` the merged sketch is bit-identical across
//! runs regardless of thread scheduling.

use cocosketch::{BasicCocoSketch, FlowTable};
use hashkit::{bob_hash, fastrange};
use sketches::MergeSketch;
use std::sync::Arc;
use std::time::{Duration, Instant};
use traffic::{KeyBytes, KeySpec, Trace};

/// Seed of the shard-selection hash. Distinct from every sketch-array
/// seed so shard assignment is independent of bucket placement.
const RSS_SEED: u32 = 0x5255_5353; // "RUSS"

/// Engine configuration. Every shard is built by the same factory
/// call, which is what makes them merge-compatible; `d`/`buckets` are
/// consumed by the CocoSketch factory ([`ShardedCocoSketch::new`]) and
/// ignored by engines built over other shard factories.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (= rings = sketch shards).
    pub threads: usize,
    /// Ring capacity per worker, in packets (power of two).
    pub ring_capacity: usize,
    /// Producer-side staging batch per shard; flushed through
    /// [`crate::SpscRing::push_slice`] so ring atomics amortize over the batch.
    pub batch: usize,
    /// Sketch arrays per shard.
    pub d: usize,
    /// Buckets per array per shard.
    pub buckets: usize,
    /// Encoded key width (13 for the 5-tuple).
    pub key_bytes: usize,
    /// Master seed shared by every shard.
    pub seed: u64,
    /// Pin shard workers to cores (shard `i` → core `i % cores`, see
    /// [`crate::affinity`]) and allocate each shard *after* pinning so
    /// first touch lands its pages on the pinned core's NUMA node.
    /// Best-effort: a failed pin degrades to unpinned ingestion.
    /// Sketch contents are unaffected either way — pinning only moves
    /// where the work runs. With `threads == 1` the *calling* thread
    /// is pinned (and stays pinned after the run).
    pub pin: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            ring_capacity: 4096,
            batch: 256,
            d: 2,
            buckets: 8192,
            key_bytes: KeySpec::FIVE_TUPLE.key_bytes(),
            seed: 0xC0C0,
            pin: false,
        }
    }
}

/// The outcome of one engine run.
#[derive(Debug)]
pub struct EngineRun<S = BasicCocoSketch> {
    /// The merged sketch (query it, walk its records).
    pub sketch: S,
    /// Packets processed (always the whole input; the producer retries
    /// on ring backpressure rather than dropping).
    pub processed: u64,
    /// Per-shard processed counts, for load-balance diagnostics.
    pub per_shard: Vec<u64>,
    /// Wall time of the run. With more than one thread it spans worker
    /// start-up, ingest and the final merge; the single-shard run times
    /// the ingest alone (its one-shard "merge" is only the
    /// conservation check).
    pub elapsed: Duration,
    /// Wall-clock ingest rate in million packets per second.
    pub mpps: f64,
}

impl<S: MergeSketch> EngineRun<S> {
    /// Hand the merged sketch's records to the query plane: a
    /// [`FlowTable`] over `full` (the spec the ingested keys were
    /// projected under), ready for `rollup`/`query_partial`
    /// aggregation of any partial key.
    pub fn flow_table(&self, full: KeySpec) -> FlowTable {
        FlowTable::new(full, self.sketch.records())
    }
}

/// Fold `shards` into one sketch under the merge contract, then check
/// the conservation claim (when the sketch makes one) against the
/// ingested weight. Shared by [`ShardedEngine::run`] and
/// [`crate::EngineSession::collect`]; both failure modes are
/// constructively unreachable for engine-built shards, so they funnel
/// through the invariant panic.
pub(crate) fn merge_shards<S: MergeSketch>(shards: Vec<S>, ingested_weight: u64) -> S {
    let mut iter = shards.into_iter();
    let mut acc = match iter.next() {
        Some(first) => first,
        None => hashkit::invariant::violated("engines have at least one shard"),
    };
    for shard in iter {
        if let Err(e) = acc.merge_shard(shard) {
            hashkit::invariant::violated_err("shards share one factory by construction", &e);
        }
    }
    if let Some(claimed) = acc.conserved_weight() {
        if claimed != ingested_weight {
            hashkit::invariant::violated(&format!(
                "merged sketch conserves the stream weight \
                 (claims {claimed}, ingested {ingested_weight})"
            ));
        }
    }
    acc
}

/// The sharded ingestion engine, generic over the shard sketch.
/// Construct once, [`run`](Self::run) per trace.
pub struct ShardedEngine<S> {
    config: EngineConfig,
    factory: Arc<dyn Fn() -> S + Send + Sync>,
}

/// The CocoSketch instantiation of [`ShardedEngine`] — the engine the
/// CLI and benches deploy.
pub type ShardedCocoSketch = ShardedEngine<BasicCocoSketch>;

impl<S: MergeSketch + 'static> ShardedEngine<S> {
    /// An engine whose shards are built by `factory`. Every call to
    /// `factory` must produce merge-compatible sketches (same
    /// constructor arguments) — the merge contract's requirement.
    pub fn with_factory(
        config: EngineConfig,
        factory: impl Fn() -> S + Send + Sync + 'static,
    ) -> Self {
        assert!(config.threads > 0, "need at least one worker thread");
        assert!(config.batch > 0, "producer batch must be positive");
        assert!(
            config.ring_capacity.is_power_of_two(),
            "ring capacity must be a power of two"
        );
        Self {
            config,
            factory: Arc::new(factory),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shard factory (shared with [`crate::EngineSession`]).
    pub(crate) fn factory(&self) -> Arc<dyn Fn() -> S + Send + Sync> {
        Arc::clone(&self.factory)
    }

    /// Which shard a key's packets go to: full-key hash, reduced
    /// division-free. Pure, so every packet of a flow agrees.
    #[inline]
    pub fn shard_of(key: &KeyBytes, threads: usize) -> usize {
        if threads == 1 {
            return 0;
        }
        fastrange(bob_hash(key.as_slice(), RSS_SEED), threads)
    }

    fn make_shard(&self) -> S {
        (self.factory)()
    }

    /// Ingest pre-projected packets and return the merged sketch.
    ///
    /// With more than one thread this is an [`crate::EngineSession`]
    /// sealed once: the one-shot run and the rotating session share a
    /// single producer→ring→shard→merge runtime.
    pub fn run(&self, packets: &[(KeyBytes, u64)]) -> EngineRun<S> {
        let cfg = self.config;
        if cfg.threads == 1 {
            // Single shard: no ring, no thread — the batched hot path
            // on the caller's thread is the honest baseline. Pin (when
            // asked) before allocating the shard: first touch then
            // happens on the pinned core.
            if cfg.pin {
                let _ = crate::affinity::pin_current_thread(crate::affinity::core_for_shard(0));
            }
            let mut sketch = self.make_shard();
            let start = Instant::now();
            sketch.update_batch(packets);
            let elapsed = start.elapsed();
            let processed = packets.len() as u64;
            let weight: u64 = packets.iter().map(|&(_, w)| w).sum();
            let sketch = merge_shards(vec![sketch], weight);
            return EngineRun {
                sketch,
                processed,
                per_shard: vec![processed],
                elapsed,
                mpps: processed as f64 / elapsed.as_secs_f64().max(1e-12) / 1e6,
            };
        }

        let start = Instant::now();
        let mut session = self.session();
        session.push_batch(packets);
        let epoch = session.finish();
        let elapsed = start.elapsed();
        EngineRun {
            sketch: epoch.sketch,
            processed: epoch.packets,
            per_shard: epoch.per_shard,
            elapsed,
            mpps: epoch.packets as f64 / elapsed.as_secs_f64().max(1e-12) / 1e6,
        }
    }

    /// Convenience: project a trace under `spec` and ingest it.
    pub fn run_trace(&self, trace: &Trace, spec: &KeySpec) -> EngineRun<S> {
        let packets: Vec<(KeyBytes, u64)> = trace
            .packets
            .iter()
            .map(|p| (spec.project(&p.flow), u64::from(p.weight)))
            .collect();
        self.run(&packets)
    }
}

impl ShardedEngine<BasicCocoSketch> {
    /// A CocoSketch engine: every shard is a
    /// [`BasicCocoSketch`] built from the config's
    /// `d`/`buckets`/`key_bytes`/`seed`.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_factory(config, move || {
            BasicCocoSketch::new(config.d, config.buckets, config.key_bytes, config.seed)
        })
    }

    /// Size each shard to `mem_bytes / threads`, mirroring how a real
    /// deployment splits one memory budget across Rx queues.
    pub fn with_memory(mem_bytes: usize, mut config: EngineConfig) -> Self {
        let probe = BasicCocoSketch::with_memory(
            mem_bytes / config.threads.max(1),
            config.d,
            config.key_bytes,
            config.seed,
        );
        config.buckets = probe.dims().1;
        Self::new(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketches::{CmHeap, ElasticSketch, Sketch};
    use traffic::gen::{generate, TraceConfig};

    fn packets(n: usize) -> Vec<(KeyBytes, u64)> {
        let t = generate(&TraceConfig {
            packets: n,
            flows: n / 20,
            ..TraceConfig::default()
        });
        t.packets
            .iter()
            .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
            .collect()
    }

    #[test]
    fn conserves_total_weight_across_thread_counts() {
        let pkts = packets(30_000);
        let total: u64 = pkts.iter().map(|&(_, w)| w).sum();
        for threads in [1, 2, 3, 4] {
            let run = ShardedCocoSketch::new(EngineConfig {
                threads,
                ..EngineConfig::default()
            })
            .run(&pkts);
            assert_eq!(run.processed, pkts.len() as u64);
            assert_eq!(
                run.sketch.total_value(),
                total,
                "conservation broke at {threads} threads"
            );
        }
    }

    #[test]
    fn shard_affinity_is_total_and_stable() {
        let pkts = packets(1_000);
        for &(key, _) in &pkts {
            let s = ShardedCocoSketch::shard_of(&key, 4);
            assert!(s < 4);
            assert_eq!(s, ShardedCocoSketch::shard_of(&key, 4));
        }
    }

    #[test]
    fn backpressure_is_lossless() {
        let pkts = packets(20_000);
        let run = ShardedCocoSketch::new(EngineConfig {
            threads: 2,
            ring_capacity: 64,
            batch: 32,
            ..EngineConfig::default()
        })
        .run(&pkts);
        assert_eq!(run.processed, pkts.len() as u64, "retries, not drops");
    }

    #[test]
    fn with_memory_splits_budget() {
        let eng = ShardedCocoSketch::with_memory(
            512 * 1024,
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
        );
        let single = BasicCocoSketch::with_memory(128 * 1024, 2, 13, 0xC0C0);
        assert_eq!(eng.config().buckets, single.dims().1);
    }

    #[test]
    fn flow_table_bridge_queries_the_merged_sketch() {
        let pkts = packets(5_000);
        let total: u64 = pkts.iter().map(|&(_, w)| w).sum();
        let run = ShardedCocoSketch::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        })
        .run(&pkts);
        let table = run.flow_table(KeySpec::FIVE_TUPLE);
        assert_eq!(table.total(), total, "records conserve the stream weight");
        let maps = table.query_all(&KeySpec::PAPER_SIX).unwrap();
        assert!(maps.iter().all(|m| m.values().sum::<u64>() == total));
    }

    #[test]
    fn run_trace_matches_manual_projection() {
        let t = generate(&TraceConfig {
            packets: 5_000,
            flows: 200,
            ..TraceConfig::default()
        });
        let eng = ShardedCocoSketch::new(EngineConfig::default());
        let a = eng.run_trace(&t, &KeySpec::FIVE_TUPLE);
        let manual: Vec<(KeyBytes, u64)> = t
            .packets
            .iter()
            .map(|p| (KeySpec::FIVE_TUPLE.project(&p.flow), u64::from(p.weight)))
            .collect();
        let b = eng.run(&manual);
        let mut ra = a.sketch.records();
        let mut rb = b.sketch.records();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    fn cm_heap_ingests_sharded_with_conservation() {
        // A non-Coco shard type through the same engine: Count-Min
        // conserves weight exactly, so the engine's built-in
        // conservation check runs (a mismatch would panic).
        let pkts = packets(20_000);
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        let total: u64 = pkts.iter().map(|&(_, w)| w).sum();
        for threads in [1, 2, 4] {
            let eng = ShardedEngine::with_factory(
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
                move || CmHeap::with_memory(64 * 1024, key_bytes, 0xC0C0),
            );
            let run = eng.run(&pkts);
            assert_eq!(run.processed, pkts.len() as u64);
            assert_eq!(run.sketch.conserved_weight(), Some(total));
        }
    }

    #[test]
    fn elastic_ingests_sharded() {
        let pkts = packets(20_000);
        let key_bytes = KeySpec::FIVE_TUPLE.key_bytes();
        let single = {
            let mut e = ElasticSketch::with_memory(128 * 1024, key_bytes, 0xC0C0);
            e.update_batch(&pkts);
            e
        };
        let eng = ShardedEngine::with_factory(
            EngineConfig {
                threads: 4,
                ..EngineConfig::default()
            },
            move || ElasticSketch::with_memory(128 * 1024, key_bytes, 0xC0C0),
        );
        let run = eng.run(&pkts);
        assert_eq!(run.processed, pkts.len() as u64);
        // Elastic makes no conservation claim (8-bit light counters),
        // but the sharded heavy part must still find the elephants the
        // single-threaded sketch finds.
        let mut top: Vec<(KeyBytes, u64)> = single.records();
        top.sort_unstable_by_key(|&(_, v)| std::cmp::Reverse(v));
        for &(key, est) in top.iter().take(5) {
            let got = run.sketch.query(&key);
            let rel = (got as f64 - est as f64).abs() / est.max(1) as f64;
            assert!(
                rel < 0.25,
                "elephant {est} estimated {got} after shard merge"
            );
        }
    }

    #[test]
    fn generic_run_matches_coco_run_bit_for_bit() {
        // The generalization must not perturb the existing CocoSketch
        // path: a factory-built engine with the same parameters yields
        // the identical merged sketch.
        let pkts = packets(10_000);
        let cfg = EngineConfig {
            threads: 4,
            ..EngineConfig::default()
        };
        let a = ShardedCocoSketch::new(cfg).run(&pkts);
        let b = ShardedEngine::with_factory(cfg, move || {
            BasicCocoSketch::new(cfg.d, cfg.buckets, cfg.key_bytes, cfg.seed)
        })
        .run(&pkts);
        let mut ra = a.sketch.records();
        let mut rb = b.sketch.records();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_rejected() {
        ShardedCocoSketch::new(EngineConfig {
            threads: 0,
            ..EngineConfig::default()
        });
    }
}
