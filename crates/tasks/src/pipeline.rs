//! Multi-key deployment strategies with an epoch lifecycle.
//!
//! Given a set of keys to measure, the evaluation deploys algorithms in
//! one of three ways (§7.1):
//!
//! - **CocoSketch**: one sketch on the full key; partial keys recovered
//!   at query time by aggregation. Per-packet cost is independent of
//!   the number of keys.
//! - **Per-key single-key sketches**: one instance per key, every
//!   instance updated on every packet (cost grows linearly in keys).
//! - **R-HHH**: one SpaceSaving per key but only one, randomly chosen,
//!   updated per packet (constant cost, sampling noise).
//!
//! A deployed [`Pipeline`] measures *continuously*: calling
//! [`rotate`](Pipeline::rotate) seals the current window into an
//! immutable [`Epoch`] inside the pipeline's [`EpochStore`] and
//! redeploys fresh state (same plan, next epoch's seed) for the next
//! window, mirroring how the data plane keeps forwarding while the
//! control plane collects. Sealed epochs stay queryable — heavy-change
//! detection diffs adjacent ones.

use cocosketch::{Epoch, EpochStore, FlowTable};
use hashkit::FastMap;
use sketches::{Rhhh, Sketch};
use traffic::{FiveTuple, KeyBytes, KeySpec, Trace};

use crate::algo::Algo;

/// Per-epoch seed salt: epoch `k` deploys with `seed + k * EPOCH_SEED_SALT`.
///
/// Chosen to match the historical two-pipeline heavy-change experiment
/// (window 2 seeded `seed + 0x5EED`), so a rotating pipeline reproduces
/// those figure CSVs bit-for-bit.
pub const EPOCH_SEED_SALT: u64 = 0x5EED;

/// The live measurement structures of the current epoch.
enum Deployment {
    /// One CocoSketch on the full key; specs answered by aggregation.
    Coco {
        sketch: Box<dyn Sketch>,
        full: KeySpec,
        specs: Vec<KeySpec>,
    },
    /// One single-key sketch per key, all updated per packet.
    PerKey {
        sketches: Vec<Box<dyn Sketch>>,
        specs: Vec<KeySpec>,
    },
    /// R-HHH: per-key SpaceSavings, one sampled update per packet.
    Rhhh(Rhhh),
}

/// The recipe a [`Pipeline`] redeploys from on every rotation.
enum Plan {
    Algo {
        algo: Algo,
        specs: Vec<KeySpec>,
        full: KeySpec,
        mem_bytes: usize,
        seed: u64,
    },
    Rhhh {
        specs: Vec<KeySpec>,
        mem_bytes: usize,
        seed: u64,
    },
}

impl Plan {
    /// Build the deployment for epoch `epoch` (0-based).
    fn build(&self, epoch: u64) -> Deployment {
        match self {
            Plan::Algo {
                algo,
                specs,
                full,
                mem_bytes,
                seed,
            } => {
                let seed = seed.wrapping_add(epoch.wrapping_mul(EPOCH_SEED_SALT));
                if algo.deploys_on_full_key() {
                    Deployment::Coco {
                        sketch: algo.build(*mem_bytes, full.key_bytes(), seed),
                        full: *full,
                        specs: specs.clone(),
                    }
                } else {
                    let per = mem_bytes / specs.len();
                    Deployment::PerKey {
                        sketches: specs
                            .iter()
                            .enumerate()
                            .map(|(i, spec)| {
                                algo.build(per, spec.key_bytes().max(1), seed + i as u64)
                            })
                            .collect(),
                        specs: specs.clone(),
                    }
                }
            }
            Plan::Rhhh {
                specs,
                mem_bytes,
                seed,
            } => {
                let seed = seed.wrapping_add(epoch.wrapping_mul(EPOCH_SEED_SALT));
                Deployment::Rhhh(Rhhh::with_memory(*mem_bytes, specs.clone(), seed))
            }
        }
    }
}

/// A deployed multi-key measurement pipeline with epoch rotation.
pub struct Pipeline {
    deployment: Deployment,
    plan: Plan,
    store: EpochStore,
    /// Packets ingested into the *current* (unsealed) epoch.
    packets: u64,
    /// Weight ingested into the *current* (unsealed) epoch.
    weight: u64,
}

impl Pipeline {
    /// Deploy `algo` for `specs` under a *total* memory budget.
    ///
    /// CocoSketch puts the whole budget into one full-key sketch;
    /// per-key baselines split it evenly across keys (the paper's
    /// fixed-total-memory comparison).
    pub fn deploy(
        algo: Algo,
        specs: &[KeySpec],
        full: KeySpec,
        mem_bytes: usize,
        seed: u64,
    ) -> Self {
        assert!(!specs.is_empty(), "need at least one key");
        debug_assert!(specs.iter().all(|s| s.is_partial_of(&full)));
        let plan = Plan::Algo {
            algo,
            specs: specs.to_vec(),
            full,
            mem_bytes,
            seed,
        };
        Self::from_plan(plan)
    }

    /// Deploy R-HHH for `specs` (its own strategy; `full` is implicit).
    pub fn deploy_rhhh(specs: &[KeySpec], mem_bytes: usize, seed: u64) -> Self {
        Self::from_plan(Plan::Rhhh {
            specs: specs.to_vec(),
            mem_bytes,
            seed,
        })
    }

    fn from_plan(plan: Plan) -> Self {
        let deployment = plan.build(0);
        Pipeline {
            deployment,
            plan,
            store: EpochStore::new(),
            packets: 0,
            weight: 0,
        }
    }

    /// Process one packet.
    #[inline]
    pub fn update(&mut self, flow: &FiveTuple, w: u64) {
        self.packets += 1;
        self.weight += w;
        match &mut self.deployment {
            Deployment::Coco { sketch, full, .. } => sketch.update(&full.project(flow), w),
            Deployment::PerKey { sketches, specs } => {
                for (sketch, spec) in sketches.iter_mut().zip(specs.iter()) {
                    sketch.update(&spec.project(flow), w);
                }
            }
            Deployment::Rhhh(r) => r.update(flow, w),
        }
    }

    /// Feed a whole trace.
    pub fn run(&mut self, trace: &Trace) {
        for p in &trace.packets {
            self.update(&p.flow, u64::from(p.weight));
        }
    }

    /// Estimated flow tables of the **current** (unsealed) epoch, one
    /// per measured key, in spec order.
    ///
    /// The CocoSketch arm groups its one full-key table by every spec
    /// in one rollup ([`FlowTable::query_all`]): a spec that nests in an
    /// earlier one (prefix hierarchies) is summed from that spec's
    /// groups instead of the records — bit-identical to per-spec
    /// [`FlowTable::query_partial`].
    ///
    /// # Panics
    /// Panics if a partial-key sum of the CocoSketch arm overflows
    /// `u64`.
    pub fn estimates(&self) -> Vec<FastMap<KeyBytes, u64>> {
        match &self.deployment {
            Deployment::Coco {
                sketch,
                full,
                specs,
            } => coco_estimates(&FlowTable::new(*full, sketch.records()), specs),
            Deployment::PerKey { sketches, .. } => sketches
                .iter()
                .map(|sketch| {
                    let mut out: FastMap<KeyBytes, u64> = FastMap::default();
                    for (k, v) in sketch.records() {
                        // Defensive sum: no implemented baseline reports
                        // duplicates, but the trait does not forbid it.
                        *out.entry(k).or_insert(0) += v;
                    }
                    out
                })
                .collect(),
            Deployment::Rhhh(r) => (0..r.num_levels())
                .map(|lvl| {
                    let mut out: FastMap<KeyBytes, u64> = FastMap::default();
                    for (k, v) in r.records_for(lvl) {
                        *out.entry(k).or_insert(0) += v;
                    }
                    out
                })
                .collect(),
        }
    }

    /// The measured keys, in estimate order.
    pub fn specs(&self) -> &[KeySpec] {
        match &self.deployment {
            Deployment::Coco { specs, .. } | Deployment::PerKey { specs, .. } => specs,
            Deployment::Rhhh(r) => r.specs(),
        }
    }

    /// Modeled memory across all deployed structures (current epoch).
    pub fn memory_bytes(&self) -> usize {
        match &self.deployment {
            Deployment::Coco { sketch, .. } => sketch.memory_bytes(),
            Deployment::PerKey { sketches, .. } => sketches.iter().map(|s| s.memory_bytes()).sum(),
            Deployment::Rhhh(r) => r.memory_bytes(),
        }
    }

    /// Snapshot the current deployment into flow tables, one per
    /// deployed structure.
    ///
    /// The Coco arm seals one full-key table (partial keys recovered at
    /// query time, as in the live path); per-key and R-HHH deployments
    /// seal one table per measured key, each under its own spec.
    fn tables(&self) -> Vec<FlowTable> {
        match &self.deployment {
            Deployment::Coco { sketch, full, .. } => {
                vec![FlowTable::new(*full, sketch.records())]
            }
            Deployment::PerKey { sketches, specs } => sketches
                .iter()
                .zip(specs.iter())
                .map(|(sketch, spec)| FlowTable::new(*spec, sketch.records()))
                .collect(),
            Deployment::Rhhh(r) => (0..r.num_levels())
                .map(|lvl| FlowTable::new(r.specs()[lvl], r.records_for(lvl)))
                .collect(),
        }
    }

    /// Seal the current window into the store and redeploy for the next.
    ///
    /// Returns the sealed epoch's id (dense from 0). The new window's
    /// structures are rebuilt from the deployment plan with the next
    /// epoch's seed (`seed + k * `[`EPOCH_SEED_SALT`]), and the
    /// per-window packet/weight counters reset — ingestion continues
    /// seamlessly via [`update`](Pipeline::update).
    pub fn rotate(&mut self) -> u64 {
        let tables = self.tables();
        let id = self.store.seal(tables, self.packets, self.weight);
        self.packets = 0;
        self.weight = 0;
        // next_id(), not len(): eviction shrinks the store but must not
        // rewind the seed schedule — epoch k's deployment is a function
        // of k alone.
        self.deployment = self.plan.build(self.store.next_id());
        id
    }

    /// [`rotate`](Pipeline::rotate), also publishing the sealed epoch
    /// to a resident query service: readers on the service's
    /// [`serve::Service`] see the new epoch before this returns, while
    /// the pipeline's own store keeps its (shared, not copied) handle
    /// for windowed tasks. Returns the sealed epoch's id.
    ///
    /// # Panics
    /// Panics if `publisher` has already published epochs the pipeline
    /// did not seal (the catalog enforces the dense-id contract).
    pub fn rotate_publish(&mut self, publisher: &mut serve::Publisher) -> u64 {
        let id = self.rotate();
        let epoch = self
            .store
            .sealed_arc(id)
            .expect("rotate() always retains the epoch it seals");
        publisher.publish(epoch);
        id
    }

    /// The sealed epoch with `id`, if it exists.
    pub fn sealed(&self, id: u64) -> Option<&Epoch> {
        self.store.sealed(id)
    }

    /// The store of sealed epochs.
    pub fn store(&self) -> &EpochStore {
        &self.store
    }

    /// Bound resident history to the last `keep` sealed epochs;
    /// returns how many epochs left RAM. Ids keep counting — rotation,
    /// adjacency, and seeding are unaffected. To keep evicted epochs,
    /// append each sealed epoch to a [`cocosketch::SharedEpochDir`]
    /// before evicting it.
    pub fn evict_to(&mut self, keep: usize) -> usize {
        self.store.evict_to(keep)
    }

    /// Estimates recovered from a **sealed** epoch, in spec order —
    /// bit-identical to what [`estimates`](Pipeline::estimates)
    /// returned just before that epoch was rotated out.
    ///
    /// # Panics
    /// Panics where [`estimates`](Pipeline::estimates) would have.
    pub fn sealed_estimates(&self, id: u64) -> Option<Vec<FastMap<KeyBytes, u64>>> {
        let epoch = self.store.sealed(id)?;
        Some(match &self.plan {
            // Full-key deployment: one table, partial keys by rollup.
            Plan::Algo { algo, specs, .. } if algo.deploys_on_full_key() => {
                coco_estimates(epoch.primary(), specs)
            }
            // One table per key: identity projection aggregates exactly
            // like the live path's defensive sum.
            _ => epoch
                .tables
                .iter()
                .map(|t| t.query_partial(t.full_spec()))
                .collect(),
        })
    }
}

/// Every spec's estimates from one full-key table, by rollup.
fn coco_estimates(table: &FlowTable, specs: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
    table
        .query_all(specs)
        .expect("a partial-key sum of one window's estimates fits in u64")
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::gen::{generate, TraceConfig};
    use traffic::truth;

    fn trace() -> Trace {
        generate(&TraceConfig {
            packets: 30_000,
            flows: 2_000,
            ..TraceConfig::default()
        })
    }

    fn spot_check(pipe: &Pipeline, t: &Trace) {
        let estimates = pipe.estimates();
        for (spec, est) in pipe.specs().iter().zip(&estimates) {
            let exact = truth::exact_counts(t, spec);
            // The biggest true flow should be estimated within 25%.
            let (big_key, big) = exact.iter().max_by_key(|&(_, v)| v).unwrap();
            let got = est.get(big_key).copied().unwrap_or(0);
            let rel = (got as f64 - *big as f64).abs() / *big as f64;
            assert!(rel < 0.25, "{spec}: top flow {big} estimated {got}");
        }
    }

    #[test]
    fn coco_pipeline_end_to_end() {
        let t = trace();
        let mut pipe = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            256 * 1024,
            1,
        );
        pipe.run(&t);
        assert_eq!(pipe.estimates().len(), 6);
        spot_check(&pipe, &t);
    }

    #[test]
    fn per_key_pipeline_end_to_end() {
        let t = trace();
        let mut pipe = Pipeline::deploy(
            Algo::CmHeap,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            512 * 1024,
            2,
        );
        pipe.run(&t);
        assert_eq!(pipe.estimates().len(), 6);
        spot_check(&pipe, &t);
    }

    #[test]
    fn rhhh_pipeline_end_to_end() {
        let t = trace();
        let specs: Vec<KeySpec> = vec![
            KeySpec::src_prefix(32),
            KeySpec::src_prefix(24),
            KeySpec::src_prefix(16),
        ];
        let mut pipe = Pipeline::deploy_rhhh(&specs, 256 * 1024, 3);
        pipe.run(&t);
        let estimates = pipe.estimates();
        assert_eq!(estimates.len(), 3);
        // R-HHH is sampled: check the top /16 within 30%.
        let exact = truth::exact_counts(&t, &KeySpec::src_prefix(16));
        let (big_key, big) = exact.iter().max_by_key(|&(_, v)| v).unwrap();
        let got = estimates[2].get(big_key).copied().unwrap_or(0);
        let rel = (got as f64 - *big as f64).abs() / *big as f64;
        assert!(rel < 0.3, "top /16 {big} estimated {got}");
    }

    #[test]
    fn coco_estimates_match_per_spec_queries() {
        // The rollup behind `estimates` must agree bit-for-bit with the
        // naive per-spec aggregation. Sealing exposes the same table, so
        // the sealed epoch is the reference here.
        let t = trace();
        let mut pipe = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            128 * 1024,
            7,
        );
        pipe.run(&t);
        let live = pipe.estimates();
        let id = pipe.rotate();
        let table = pipe.sealed(id).unwrap().primary();
        let expect: Vec<_> = pipe
            .specs()
            .iter()
            .map(|s| table.query_partial(s))
            .collect();
        assert_eq!(live, expect);
    }

    #[test]
    fn rotation_seals_live_estimates_bit_for_bit() {
        // For every deployment strategy: estimates() just before
        // rotate() == sealed_estimates(id) just after.
        let t = trace();
        let pipes = [
            Pipeline::deploy(
                Algo::OURS,
                &KeySpec::PAPER_SIX,
                KeySpec::FIVE_TUPLE,
                128 * 1024,
                11,
            ),
            Pipeline::deploy(
                Algo::CmHeap,
                &KeySpec::PAPER_SIX,
                KeySpec::FIVE_TUPLE,
                256 * 1024,
                12,
            ),
            Pipeline::deploy_rhhh(
                &[KeySpec::src_prefix(24), KeySpec::src_prefix(16)],
                128 * 1024,
                13,
            ),
        ];
        for mut pipe in pipes {
            pipe.run(&t);
            let live = pipe.estimates();
            let id = pipe.rotate();
            assert_eq!(pipe.sealed_estimates(id).unwrap(), live);
        }
    }

    #[test]
    fn rotation_accounts_packets_and_weight() {
        let t = trace();
        let total: u64 = t.packets.iter().map(|p| u64::from(p.weight)).sum();
        let mut pipe = Pipeline::deploy(
            Algo::OURS,
            &[KeySpec::SRC_IP],
            KeySpec::FIVE_TUPLE,
            64 * 1024,
            5,
        );
        pipe.run(&t);
        let id = pipe.rotate();
        let epoch = pipe.sealed(id).unwrap();
        assert_eq!(epoch.packets, t.packets.len() as u64);
        assert_eq!(epoch.weight, total);
        // The next window starts from zero.
        pipe.run(&t);
        let id2 = pipe.rotate();
        let epoch2 = pipe.sealed(id2).unwrap();
        assert_eq!(
            (epoch2.packets, epoch2.weight),
            (t.packets.len() as u64, total)
        );
        assert_eq!(pipe.store().len(), 2);
    }

    #[test]
    fn rotation_reseeds_like_independent_deployments() {
        // Epoch k of one rotating pipeline must be bit-identical to a
        // fresh pipeline seeded `seed + k * EPOCH_SEED_SALT` — the
        // contract that keeps historical two-pipeline experiments
        // reproducible through the rotation path.
        let t = trace();
        let mut rotating = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            128 * 1024,
            21,
        );
        rotating.run(&t);
        rotating.rotate();
        rotating.run(&t);

        let mut fresh = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            128 * 1024,
            21 + EPOCH_SEED_SALT,
        );
        fresh.run(&t);
        assert_eq!(rotating.estimates(), fresh.estimates());
    }

    #[test]
    fn per_key_splits_budget() {
        let pipe = Pipeline::deploy(
            Algo::SpaceSaving,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            600_000,
            4,
        );
        assert!(pipe.memory_bytes() <= 600_000);
        let coco = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            600_000,
            4,
        );
        assert!(coco.memory_bytes() <= 600_000);
        assert!(
            coco.memory_bytes() > pipe.memory_bytes() / 2,
            "coco uses the whole budget in one sketch"
        );
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_specs_panics() {
        Pipeline::deploy(Algo::OURS, &[], KeySpec::FIVE_TUPLE, 1024, 1);
    }

    #[test]
    fn evicted_epochs_reload_from_spill_dir_bit_identical() {
        // Rotate several windows, appending each sealed epoch to an
        // epoch directory before a keep-1 eviction; every epoch must
        // reload from disk bit-identical to the Arc held before
        // eviction.
        let t = trace();
        let root = std::env::temp_dir().join(format!("tasks-spill-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (shared, _) = cocosketch::SharedEpochDir::open(&root).unwrap();
        let mut pipe = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            64 * 1024,
            41,
        );
        let mut held = Vec::new();
        for _ in 0..4 {
            pipe.run(&t);
            let id = pipe.rotate();
            let sealed = pipe.store().sealed_arc(id).unwrap();
            shared.append(&sealed).unwrap();
            held.push(sealed);
            pipe.evict_to(1);
        }
        assert_eq!(pipe.store().len(), 1, "RAM bounded to the last epoch");
        let reader = shared.reader();
        for epoch in &held {
            let from_disk = reader.read_epoch(epoch.id).unwrap().expect("appended");
            assert_eq!(
                cocosketch::epoch::encode(&from_disk),
                cocosketch::epoch::encode(epoch),
                "epoch {} reloads bit-identical",
                epoch.id
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn eviction_does_not_rewind_the_seed_schedule() {
        // Epoch k of an evicting pipeline must still match a fresh
        // pipeline seeded for epoch k (the rotate() contract, now with
        // eviction shrinking the store under it).
        let t = trace();
        let mut evicting = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            64 * 1024,
            51,
        );
        evicting.run(&t);
        evicting.rotate();
        evicting.evict_to(0); // store now empty; next window is epoch 1
        evicting.run(&t);

        let mut fresh = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            64 * 1024,
            51 + EPOCH_SEED_SALT,
        );
        fresh.run(&t);
        assert_eq!(evicting.estimates(), fresh.estimates());
    }

    #[test]
    fn rotate_publish_serves_sealed_estimates() {
        // The service must answer exactly what a per-spec hash-map scan
        // of the pipeline's own sealed epoch answers.
        let t = trace();
        let mut pipe = Pipeline::deploy(
            Algo::OURS,
            &KeySpec::PAPER_SIX,
            KeySpec::FIVE_TUPLE,
            128 * 1024,
            31,
        );
        let (mut publisher, svc) = serve::service(4);
        pipe.run(&t);
        let id = pipe.rotate_publish(&mut publisher);
        pipe.run(&t);
        let id2 = pipe.rotate_publish(&mut publisher);
        assert_eq!((id, id2), (0, 1));

        // Shared handle, not a copy.
        let held = svc.snapshot(serve::Select::Id(0)).unwrap();
        assert_eq!(held.id, 0);

        for (i, spec) in pipe.specs().iter().enumerate() {
            let served = svc.partial(serve::Select::Id(1), spec).unwrap();
            let direct = pipe
                .sealed(1)
                .unwrap()
                .primary()
                .query_all_entries(&[*spec]);
            assert_eq!(served.entries, direct[0], "spec #{i}");
        }
    }
}
