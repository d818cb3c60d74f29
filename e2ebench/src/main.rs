//! `e2e`: one end-to-end benchmark of the production path.
//!
//! A CAIDA-like trace generated from `--seed` streams through
//! `EngineSession` (one worker), seals into epochs that spill to a
//! durable epoch directory, publish to the query service, and answer
//! partial-key queries over a unix socket — the path `cocosketch
//! measure --window --spill --compact-bucket --serve` runs. Four
//! workloads stress different layers of it (see `README.md`).
//!
//! ```text
//! e2e --workload NAME|all --seed N --seconds S [--trace 0|1] [--out DIR]
//! ```
//!
//! `--seconds` has no default: the timed length is `run_seconds` in
//! `BENCHMARK.json`, and whoever runs the benchmark passes it, so two
//! commits compared with the same `BENCHMARK.json` time the same length.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (or, with
//! `--trace 1`, the per-layer metrics). A run whose answers or
//! accounting fail a check exits with code 1.

mod budget;
mod pipeline;
mod report;
mod trace;
mod wire;
mod workload;

use report::result_json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::{Options, WORKLOADS};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput",
    "latency_ms_p50",
    "latency_ms_p95",
    "f1_mean",
    "rss_peak_mb",
];

/// The per-layer metrics `BENCHMARK.json` lists: those measured on every
/// workload. The rest of the budget goes to standard error and `--out`.
const PER_LAYER: [&str; 26] = [
    "engine.push.ns_per_pkt",
    "engine.push.share",
    "engine.rotate.us_p50",
    "engine.rotate.us_p99",
    "engine.collect.us_p50",
    "engine.collect.us_p99",
    "epoch.to_epoch.us_p50",
    "segment.append.us_p50",
    "segment.append.us_p99",
    "segment.append.share",
    "segment.bytes_per_epoch",
    "segment.compact.merged_epochs",
    "store.evict.us_p50",
    "store.evict.us_p99",
    "store.evict.share",
    "serve.publish.us_p50",
    "serve.respond.us_p50",
    "serve.respond.us_p99",
    "serve.cache.hit_ratio",
    "wire.encode.us_p50",
    "wire.decode.us_p50",
    "wire.frame_io.us_p50",
    "wire.residual.us_p50",
    "wire.answer_kb_mean",
    "trace.coverage",
    "trace.overhead",
];

const USAGE: &str = "usage: e2e --workload ingest_steady|seal_heavy|query_hot|mixed_live|all \
     --seed N --seconds S [--trace 0|1] [--out DIR]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut traced, mut out) = (false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("--seconds: `{value}` is not a positive integer")),
            },
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is neither 0 nor 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && workload::by_name(&workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced,
        out,
    })
}

/// `--workload all`: one child process per workload, in order.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: locating this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("e2e: {} exited with {status}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: starting {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the full metric set, the summary and the spans side by side.
fn write_out(
    dir: &Path,
    stem: &str,
    json: &str,
    outcome: &workload::Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{stem}.json")), format!("{json}\n"))?;
    std::fs::write(dir.join(format!("{stem}.txt")), &outcome.summary)?;
    if !outcome.spans.is_empty() {
        std::fs::write(dir.join(format!("{stem}-spans.csv")), &outcome.spans)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = workload::by_name(&args.workload).expect("validated by parse_args");
    let opts = Options {
        seed: args.seed,
        run: Duration::from_secs(args.seconds),
        traced: args.traced,
    };
    // Scratch files (spill directory, socket) live under the working
    // directory, with relative paths short enough for a socket name.
    let root = PathBuf::from(".e2e_scratch");
    let scratch = root.join(format!("{}-{}", std::process::id(), w.name));
    let outcome = workload::run(&w, &opts, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&root);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e: {}: {e}", w.name);
            println!("{}", result_json(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0;
    eprintln!("e2e {} seed {}:\n{}", w.name, args.seed, outcome.summary);
    if let Some(why) = &outcome.first_failure {
        eprintln!(
            "e2e: {} of {} checks failed; first: {why}",
            outcome.failed, outcome.attempted
        );
    }
    let (listed, emitted): (&[&str], &report::Metrics) = if opts.traced {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    for m in &emitted.0 {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let shown: Vec<&report::Metric> = listed
        .iter()
        .filter_map(|name| emitted.0.iter().find(|m| m.name == *name))
        .collect();
    let line = result_json(correct, outcome.attempted, outcome.failed, &shown);
    if let Some(dir) = &args.out {
        let all: Vec<&report::Metric> = emitted.0.iter().collect();
        let full = result_json(correct, outcome.attempted, outcome.failed, &all);
        let stem = format!(
            "e2e-{}-{}-trace{}",
            w.name,
            args.seed,
            u8::from(opts.traced)
        );
        if let Err(e) = write_out(dir, &stem, &full, &outcome) {
            eprintln!("e2e: writing {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::Policy;
    use workload::{Load, Workload};

    /// A workload shrunk to a 27k-packet trace and windows 100× smaller.
    fn tiny(w: Workload) -> Workload {
        Workload {
            scale: 1000,
            policy: Policy {
                window: w.policy.window / 100,
                ..w.policy
            },
            load: match w.load {
                Load::Mixed { pps, qps } => Load::Mixed {
                    pps: pps / 50.0,
                    qps,
                },
                other => other,
            },
            ..w
        }
    }

    #[test]
    fn every_workload_emits_every_metric_without_failures() {
        let budget_only = [
            "segment.compact.buckets",
            "segment.compact.errors",
            "serve.respond_cold.us_p50",
            "serve.respond_cold.us_p99",
            "serve.respond_window.us_p50",
            "serve.cold_errors",
            "gen.late_ms_p99",
            "gen.late_ms_max",
        ];
        for w in WORKLOADS {
            for traced in [false, true] {
                let opts = Options {
                    seed: 7,
                    run: Duration::from_millis(300),
                    traced,
                };
                let scratch =
                    PathBuf::from(".e2e_scratch").join(format!("test-{}-{traced}", w.name));
                let out = workload::run(&tiny(w), &opts, &scratch)
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name));
                let _ = std::fs::remove_dir_all(&scratch);
                assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.first_failure);
                assert!(out.attempted > 0);
                let (names, metrics): (Vec<&str>, _) = if traced {
                    (
                        PER_LAYER.iter().chain(&budget_only).copied().collect(),
                        &out.per_layer,
                    )
                } else {
                    (END_TO_END.to_vec(), &out.end_to_end)
                };
                for name in names {
                    let v = metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", w.name));
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name);
                }
                if !traced {
                    for name in ["setup_s", "throughput", "latency_ms_p50", "rss_peak_mb"] {
                        assert!(metrics.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name);
                    }
                }
            }
        }
        let _ = std::fs::remove_dir(".e2e_scratch");
    }

    #[test]
    fn benchmark_json_lists_the_emitted_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(listed(name), "BENCHMARK.json does not list metric {name}");
        }
        for w in WORKLOADS {
            assert!(
                listed(w.name),
                "BENCHMARK.json does not list workload {}",
                w.name
            );
        }
        let count = json.matches("\"name\": ").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn arguments_parse() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hit --seed 3 --seconds 1")).err();
        assert!(a.is_some_and(|e| e.contains("unknown workload")));
        let a = parse_args(&argv(
            "--workload query_hot --seed 3 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.traced), (3, 10, false));
        let a = parse_args(&argv(
            "--workload all --seed 3 --seconds 1 --trace 1 --out x",
        ))
        .unwrap();
        assert!(a.traced && a.out.is_some());
        for bad in [
            "--workload all --seed 3",
            "--workload all --seconds 1",
            "--seed 3 --seconds 1",
            "--workload all --seed 3 --seconds 0",
            "--workload all --seed 3 --seconds 1 --trace",
            "--workload all --seed 3 --seconds 1 --trace yes",
            "--workload all --seed 3 --seconds 1 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }
}
