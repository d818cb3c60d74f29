//! Query-plane latency: per-spec scans vs the query engine, as JSON.
//!
//! Builds a ≥100k-row `(full key, size)` [`FlowTable`] from the exact
//! flow counts of a CAIDA-like trace and times four ways of answering
//! partial-key query sets over it:
//!
//! 1. **per-spec scan** — one [`FlowTable::query_partial`] pass per
//!    spec (the hash-map reference; already projector-compiled);
//! 2. **engine** — [`FlowTable::query_all`] over the paper's six keys,
//!    the path `Pipeline::estimates` takes for Figs 8–10;
//! 3. **hierarchy rollup (maps)** — [`FlowTable::query_all`] over the
//!    33-level source-IP hierarchy: one group-by sort for /32, every
//!    coarser level summed from its parent's shrinking words, each
//!    level built into a hash map. This is the path Figs 11 and 12
//!    score;
//! 4. **hierarchy rollup (sorted entries)** — [`FlowTable::rollup`],
//!    the same rollup in its native sorted-entry shape (what the wire
//!    `Multi` request answers), which never builds a per-level hash
//!    table. This is the headline `rollup_speedup`.
//!
//! Every path is asserted bit-identical to the per-spec baseline before
//! any number is reported. Output is one JSON document, printed to
//! stdout and written to `<out>/BENCH_query.json`, so the query plane's
//! perf trajectory is tracked alongside `BENCH_throughput.json`.
//!
//! Run with:
//! `cargo run --release -p cocosketch-bench --bin query_latency -- [--scale N] [--seed S] [--out DIR]`

use cocosketch::FlowTable;
use hashkit::FastMap;
use hhh::hierarchy::src_hierarchy;
use std::path::PathBuf;
use std::time::Instant;
use traffic::{presets, truth, KeyBytes, KeySpec};

struct Args {
    scale: usize,
    seed: u64,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        scale: 10, // 27M-packet CAIDA preset / 10 -> ~130k distinct flows
        seed: 0xC0C0,
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
            "--out" => a.out_dir = PathBuf::from(need_value(i)),
            "--help" | "-h" => {
                eprintln!("usage: query_latency [--scale N] [--seed S] [--out DIR]");
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
    a
}

/// Wall time of one `f()` in nanoseconds; the result is dropped inside
/// the timed region so every path pays its own deallocation.
fn time_once<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let r = f();
    drop(r);
    start.elapsed().as_nanos() as f64
}

const REPS: usize = 5;

fn main() {
    let args = parse_args();
    eprintln!(
        "query_latency: generating CAIDA-like trace at scale {} ...",
        args.scale
    );
    let trace = presets::caida_like(args.scale, args.seed);
    let rows: Vec<(KeyBytes, u64)> = truth::exact_counts(&trace, &KeySpec::FIVE_TUPLE)
        .into_iter()
        .collect();
    let n_rows = rows.len();
    let table = FlowTable::new(KeySpec::FIVE_TUPLE, rows);
    eprintln!("query_latency: {n_rows} distinct full-key rows");

    let six = KeySpec::PAPER_SIX;
    let hierarchy = src_hierarchy();

    let per_spec = |specs: &[KeySpec]| -> Vec<FastMap<KeyBytes, u64>> {
        specs.iter().map(|s| table.query_partial(s)).collect()
    };

    // Bit-identity first, untimed: every engine path must agree with
    // the per-spec baseline before any number is reported.
    assert_eq!(
        table.query_all(&six),
        Some(per_spec(&six)),
        "engine must be bit-identical"
    );
    assert_eq!(
        table.query_all(&hierarchy),
        Some(per_spec(&hierarchy)),
        "rollup to maps must be bit-identical"
    );
    assert_eq!(
        table.rollup(&hierarchy),
        Some(table.query_all_entries(&hierarchy)),
        "sorted-entry rollup must be bit-identical"
    );

    // Timing: best-of-REPS with the paths interleaved round-robin, so
    // slow drift of the host (page cache, allocator arenas, noisy
    // neighbours) hits every path alike instead of whichever ran last.
    let mut t_six_scan = f64::INFINITY;
    let mut t_six_engine = f64::INFINITY;
    let mut t_h_scan = f64::INFINITY;
    let mut t_h_rollup = f64::INFINITY;
    let mut t_h_entries = f64::INFINITY;
    for _ in 0..REPS {
        t_six_scan = t_six_scan.min(time_once(|| per_spec(&six)));
        t_six_engine = t_six_engine.min(time_once(|| table.query_all(&six)));
        t_h_scan = t_h_scan.min(time_once(|| per_spec(&hierarchy)));
        t_h_rollup = t_h_rollup.min(time_once(|| table.query_all(&hierarchy)));
        t_h_entries = t_h_entries.min(time_once(|| table.rollup(&hierarchy)));
    }

    let engine_speedup = t_six_scan / t_six_engine;
    let rollup_maps_speedup = t_h_scan / t_h_rollup;
    let rollup_speedup = t_h_scan / t_h_entries;
    let per_row = |ns: f64| ns / n_rows as f64;
    eprintln!(
        "query_latency: 6 keys: per-spec {:.1} ns/row, engine {:.1} ns/row ({engine_speedup:.2}x)",
        per_row(t_six_scan),
        per_row(t_six_engine),
    );
    eprintln!(
        "query_latency: 33-level hierarchy: per-spec {:.1} ns/row, rollup-to-maps {:.1} ns/row \
         ({rollup_maps_speedup:.2}x), rollup-to-entries {:.1} ns/row ({rollup_speedup:.2}x)",
        per_row(t_h_scan),
        per_row(t_h_rollup),
        per_row(t_h_entries),
    );

    let json = format!(
        "{{\n  \"bench\": \"query_latency\",\n  \"rows\": {n_rows},\n  \"specs\": {},\n  \
         \"hierarchy_levels\": {},\n  \"seed\": {},\n  \
         \"ns_per_row\": {{\n    \"six_keys_per_spec_scan\": {:.2},\n    \
         \"six_keys_engine\": {:.2},\n    \
         \"hierarchy_per_spec_scan\": {:.2},\n    \"hierarchy_rollup_maps\": {:.2},\n    \
         \"hierarchy_rollup_entries\": {:.2}\n  }},\n  \
         \"engine_speedup\": {engine_speedup:.3},\n  \
         \"rollup_maps_speedup\": {rollup_maps_speedup:.3},\n  \
         \"rollup_speedup\": {rollup_speedup:.3},\n  \
         \"note\": \"all engine paths asserted bit-identical to per-spec query_partial before timing \
         is reported; ns_per_row is whole-query-set nanoseconds divided by table rows; rollup_speedup \
         compares the 33-level hierarchy answered as sorted entries (the shape of a wire Multi answer) \
         against 33 per-spec scans, rollup_maps_speedup is the same rollup built into per-level \
         hash maps (the path fig11 and fig12 score); engine_speedup is the path Pipeline::estimates \
         takes for the six flat keys\"\n}}\n",
        six.len(),
        hierarchy.len(),
        args.seed,
        per_row(t_six_scan),
        per_row(t_six_engine),
        per_row(t_h_scan),
        per_row(t_h_rollup),
        per_row(t_h_entries),
    );
    print!("{json}");
    std::fs::create_dir_all(&args.out_dir).expect("create out dir");
    let path = args.out_dir.join("BENCH_query.json");
    std::fs::write(&path, &json).expect("write BENCH_query.json");
    eprintln!("query_latency: wrote {}", path.display());
}
