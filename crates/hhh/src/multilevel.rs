//! Multi-level heavy-hitter detection (the Figure 11/12 task).
//!
//! For every level (prefix key) of a hierarchy, report the flows whose
//! size is at least the threshold. CocoSketch answers all levels from
//! one [`FlowTable`]; the exact counterpart provides ground truth.

use cocosketch::FlowTable;
use hashkit::FastMap;
use traffic::{truth, KeyBytes, KeySpec, Trace};

/// The reported heavy flows of one hierarchy level.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// The level's key.
    pub spec: KeySpec,
    /// Reported flows with their (estimated or exact) sizes.
    pub flows: Vec<(KeyBytes, u64)>,
}

/// Heavy flows of every level, from a CocoSketch flow table.
///
/// Each level's table is built by `GROUP BY` aggregation of the same
/// full-key records — no per-level state was ever maintained during
/// measurement, which is the point of the arbitrary-partial-key
/// design. The aggregation is one rollup ([`FlowTable::rollup`]): the
/// finest level groups the records once and every coarser level is
/// summed from its ancestor's (shrinking) groups, so the reported flows
/// are exactly those of a per-level scan, sorted by key bytes. `None`
/// when a level's group sum overflows `u64`.
pub fn multilevel_from_table(
    table: &FlowTable,
    hierarchy: &[KeySpec],
    threshold: u64,
) -> Option<Vec<LevelReport>> {
    Some(
        table
            .rollup(hierarchy)?
            .into_iter()
            .zip(hierarchy)
            .map(|(counts, spec)| LevelReport {
                spec: *spec,
                flows: counts
                    .into_iter()
                    .filter(|&(_, v)| v >= threshold)
                    .collect(),
            })
            .collect(),
    )
}

/// Exact multi-level heavy flows (ground truth).
pub fn exact_multilevel(trace: &Trace, hierarchy: &[KeySpec], threshold: u64) -> Vec<LevelReport> {
    hierarchy
        .iter()
        .map(|spec| {
            let counts = truth::exact_counts(trace, spec);
            LevelReport {
                spec: *spec,
                flows: counts
                    .into_iter()
                    .filter(|&(_, v)| v >= threshold)
                    .collect(),
            }
        })
        .collect()
}

/// Exact per-level count tables (used for ARE computation, where the
/// denominator needs true sizes even for missed flows).
pub fn exact_level_counts(trace: &Trace, hierarchy: &[KeySpec]) -> Vec<FastMap<KeyBytes, u64>> {
    hierarchy
        .iter()
        .map(|spec| truth::exact_counts(trace, spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::src_hierarchy_bytes;
    use sketches::Sketch;
    use traffic::gen::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig {
            packets: 50_000,
            flows: 3_000,
            alpha: 1.2,
            ip_skew: 1.0,
            seed: 99,
        })
    }

    #[test]
    fn exact_levels_nest_upward() {
        // A heavy /32 implies its /24 is at least as heavy.
        let t = trace();
        let h = src_hierarchy_bytes();
        let threshold = (t.total_weight() / 1_000).max(1);
        let reports = exact_multilevel(&t, &h, threshold);
        let l32: &LevelReport = &reports[0];
        let l24 = &reports[1];
        let p24 = KeySpec::src_prefix(24);
        for (k32, _) in &l32.flows {
            let parent = p24.project_key(&KeySpec::src_prefix(32), k32);
            assert!(
                l24.flows.iter().any(|(k, _)| *k == parent),
                "/24 parent of a heavy /32 must be heavy"
            );
        }
    }

    #[test]
    fn sketch_tracks_exact_closely() {
        let t = trace();
        let h = src_hierarchy_bytes();
        let full = KeySpec::SRC_IP;
        let mut sk = cocosketch::BasicCocoSketch::with_memory(128 * 1024, 2, full.key_bytes(), 5);
        for p in &t.packets {
            sk.update(&full.project(&p.flow), u64::from(p.weight));
        }
        let table = FlowTable::new(full, sk.records());
        let threshold = (t.total_weight() / 1_000).max(1);
        let got = multilevel_from_table(&table, &h, threshold).unwrap();
        let want = exact_multilevel(&t, &h, threshold);
        for (g, w) in got.iter().zip(&want) {
            let got_set: std::collections::HashSet<_> = g.flows.iter().map(|&(k, _)| k).collect();
            let want_set: std::collections::HashSet<_> = w.flows.iter().map(|&(k, _)| k).collect();
            let inter = got_set.intersection(&want_set).count() as f64;
            let recall = inter / want_set.len().max(1) as f64;
            assert!(recall > 0.9, "level {}: recall {recall}", g.spec);
        }
    }

    #[test]
    fn rollup_reports_match_per_level_scans() {
        // The engine's rollup path must report exactly the flows the
        // per-level heavy_hitters scan reports (order-insensitive: map
        // iteration order is not part of the contract).
        let t = trace();
        let h = src_hierarchy_bytes();
        let full = KeySpec::SRC_IP;
        let mut sk = cocosketch::BasicCocoSketch::with_memory(64 * 1024, 2, full.key_bytes(), 9);
        for p in &t.packets {
            sk.update(&full.project(&p.flow), u64::from(p.weight));
        }
        let table = FlowTable::new(full, sk.records());
        let threshold = (t.total_weight() / 500).max(1);
        let got = multilevel_from_table(&table, &h, threshold).unwrap();
        for (report, spec) in got.iter().zip(&h) {
            let mut flows = report.flows.clone();
            let mut direct = table.heavy_hitters(spec, threshold);
            flows.sort_unstable();
            direct.sort_unstable();
            assert_eq!(flows, direct, "level {spec}");
        }
    }

    #[test]
    fn reports_cover_all_levels() {
        let t = trace();
        let h = src_hierarchy_bytes();
        let reports = exact_multilevel(&t, &h, 1);
        assert_eq!(reports.len(), h.len());
        // The empty level always reports exactly one flow: everything.
        let empty = reports.last().unwrap();
        assert_eq!(empty.flows.len(), 1);
        assert_eq!(empty.flows[0].1, t.total_weight());
    }
}
