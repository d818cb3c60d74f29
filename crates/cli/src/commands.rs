//! Subcommand implementations.

use crate::args::{parse_key, parse_memory, parse_threads};
use crate::Opts;
use cocosketch::{epoch, snapshot, Epoch, FlowTable};
use engine::{EngineConfig, ShardedCocoSketch};
use tasks::stats as table_stats;
use traffic::{io as trace_io, presets, KeySpec, Trace};

/// Top-level usage text.
pub const USAGE: &str = "\
cocosketch <command> [--flag value]...

commands:
  generate  --preset caida|mawi --out FILE [--scale N] [--seed S]
  measure   (--trace FILE | --pcap FILE) --out FILE
            [--memory 500KB] [--d 2] [--seed S] [--threads N] [--pin]
            [--window PACKETS] [--keep-epochs N] [--spill DIR]
            [--compact-bucket B] [--serve ADDR]
  query     (--table FILE | --dir DIR [--epoch K]) --key KEY
            [--top K] [--threshold T]
  stats     (--table FILE | --dir DIR [--epoch K]) --key KEY
  info      (--trace FILE | --table FILE | --dir DIR)

keys: 5tuple, srcip, dstip, srcip/NN, dstip/NN, src-dst,
      srcip-srcport, dstip-dstport, empty

--spill DIR streams every sealed epoch into a durable epoch directory
(immutable CEP1 segments, each committed by its own rename, plus a
MANIFEST checkpoint) as it seals, so --keep-epochs N bounds memory
without losing history; query/stats/info read the directory with
--dir, and --compact-bucket B merges runs of B old epochs into coarser
buckets in the background. The MANIFEST lists every epoch once the run
ends; while it runs, --dir readers may lag it by up to 64 epochs.

--serve ADDR (unix:PATH or HOST:PORT) keeps the process resident after
measuring, answering partial-key queries from the sealed epochs over
the wire protocol until a client sends a shutdown request. With
--spill the service backfills epochs that aged out of memory from the
directory.";

/// `generate`: write a synthetic trace to disk.
pub fn generate(argv: &[String]) -> Result<(), String> {
    let opts = Opts::parse(argv)?;
    let preset = opts.require("preset")?;
    let out = opts.path("out")?;
    let scale = opts.u64_or("scale", 100)? as usize;
    let seed = opts.u64_or("seed", 0xC0C0)?;
    let trace = match preset {
        "caida" => presets::caida_like(scale, seed),
        "mawi" => presets::mawi_like(scale, seed),
        other => return Err(format!("unknown preset `{other}` (caida or mawi)")),
    };
    trace_io::save(&trace, &out).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} packets / {} flows to {}",
        trace.len(),
        trace.distinct_flows(),
        out.display()
    );
    Ok(())
}

/// `measure`: run CocoSketch over a trace (native or pcap format),
/// export the flow table.
///
/// With `--window PACKETS` the engine runs as a rotating
/// [`engine::EngineSession`]: every `PACKETS` packets the live sketch
/// is sealed into an epoch (without pausing ingestion) and written to
/// `OUT.epochN` *as it seals* — streaming, not buffered to the end of
/// the run; the trailing partial window seals on finish.
/// `measure` keeps no sealed epoch in memory once it is written;
/// `--keep-epochs N` bounds the resident service's catalog to the last
/// N sealed epochs, while epoch files (and the `--spill` directory,
/// when given) still receive every epoch, so eviction bounds RSS
/// without losing history.
/// `--spill DIR` additionally streams each sealed epoch into a durable
/// [`cocosketch::segment::EpochDir`] (one renamed segment per epoch,
/// crash-safe; the manifest is checkpointed when sealing ends) and
/// `--compact-bucket B` runs a background compactor that merges runs
/// of B old epochs into coarser buckets.
///
/// `--pin` pins shard workers to cores round-robin (shard i → core
/// i % cores) with first-touch shard allocation on the pinned core, or
/// with one thread pins this thread before its shard is built; see
/// `engine::affinity`. Best-effort and Linux-only.
///
/// `--serve ADDR` keeps the process resident after measuring as a
/// [`serve`] wire server answering partial-key queries from the
/// sealed result. With `--window` the server starts *before* ingest
/// and each sealed epoch is published to it as rotation proceeds, so
/// readers query earlier windows while later ones are still filling;
/// without `--window` the finished table is published as epoch 0.
/// Either way the process exits when a client sends a shutdown
/// request (`serve::Client::shutdown`).
pub fn measure(argv: &[String]) -> Result<(), String> {
    let opts = Opts::parse(argv)?;
    let out = opts.path("out")?;
    let memory = parse_memory(opts.get("memory").unwrap_or("500KB"))?;
    let d = opts.u64_or("d", 2)? as usize;
    let seed = opts.u64_or("seed", 0xC0C0)?;
    let threads = parse_threads(opts.get("threads").unwrap_or("1"))?;
    let pin = opts.bool_or("pin", false)?;
    let window = opts.u64_or("window", 0)?;
    let keep_epochs = opts.u64_or("keep-epochs", 0)? as usize;
    let serve_addr = opts.get("serve");
    let spill_dir = opts.get("spill");
    let compact_bucket = opts.u64_or("compact-bucket", 0)? as usize;
    if d == 0 {
        return Err("--d must be positive".into());
    }
    if keep_epochs > 0 && window == 0 {
        return Err("--keep-epochs only applies with --window".into());
    }
    if spill_dir.is_some() && window == 0 {
        return Err("--spill only applies with --window".into());
    }
    if spill_dir == Some("true") {
        return Err("--spill takes a directory path".into());
    }
    if compact_bucket > 0 && spill_dir.is_none() {
        return Err("--compact-bucket only applies with --spill".into());
    }
    if compact_bucket == 1 {
        return Err("--compact-bucket must be at least 2 (or omitted)".into());
    }
    if serve_addr == Some("true") {
        return Err("--serve takes an address: unix:PATH or HOST:PORT".into());
    }

    let trace = if let Some(path) = opts.get("pcap") {
        let (trace, stats) = traffic::pcap::load(std::path::Path::new(path))
            .map_err(|e| format!("reading {path}: {e}"))?;
        eprintln!("pcap: {} parsed, {} skipped", stats.parsed, stats.skipped);
        trace
    } else {
        let trace_path = opts.path("trace")?;
        trace_io::load(&trace_path).map_err(|e| format!("reading {}: {e}", trace_path.display()))?
    };
    let full = KeySpec::FIVE_TUPLE;
    // One shard per thread, memory split across shards; threads=1
    // updates the single sketch on this thread, windowed or not (no
    // rings, no worker threads).
    let engine = ShardedCocoSketch::with_memory(
        memory,
        EngineConfig {
            threads,
            d,
            key_bytes: full.key_bytes(),
            seed,
            pin,
            ..EngineConfig::default()
        },
    );
    if window > 0 {
        let wopts = WindowedOpts {
            window,
            keep_epochs,
            out: &out,
            threads,
            serve_addr,
            spill_dir,
            compact_bucket,
        };
        return measure_windowed(&engine, &trace, full, wopts);
    }
    let run = engine.run_trace(&trace, &full);
    let table = run.flow_table(full);
    std::fs::write(&out, snapshot::encode(&table))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "measured {} packets in {:?} ({:.2} Mpps, {threads} thread{}{}); {} recorded flows -> {}",
        run.processed,
        run.elapsed,
        run.mpps,
        if threads == 1 { "" } else { "s" },
        if pin { ", pinned" } else { "" },
        table.len(),
        out.display()
    );
    if let Some(addr) = serve_addr {
        // Measurement is done: publish the whole run as epoch 0 and
        // serve on the calling thread until a client shuts us down.
        let (mut publisher, svc) = serve::service(1);
        publisher.publish_epoch(Epoch {
            id: 0,
            packets: run.processed,
            weight: table.total(),
            tables: vec![table],
        });
        serve_blocking(addr, svc)?;
    }
    Ok(())
}

/// Bind `addr` and answer wire queries on the calling thread until a
/// client sends a shutdown request.
fn serve_blocking(addr: &str, svc: std::sync::Arc<serve::Service>) -> Result<(), String> {
    let server = serve::Server::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serving on {}", server.addr());
    let served = server
        .run(svc)
        .map_err(|e| format!("serving {addr}: {e}"))?;
    println!(
        "server stopped after {served} connection{}",
        if served == 1 { "" } else { "s" }
    );
    Ok(())
}

/// Options for the `--window` path, grouped to keep call sites (and
/// clippy) happy.
struct WindowedOpts<'a> {
    window: u64,
    keep_epochs: usize,
    out: &'a std::path::Path,
    threads: usize,
    serve_addr: Option<&'a str>,
    spill_dir: Option<&'a str>,
    compact_bucket: usize,
}

/// `OUT.epochN` for epoch `id`.
fn epoch_file(out: &std::path::Path, id: u64) -> std::path::PathBuf {
    out.with_file_name(format!(
        "{}.epoch{id}",
        out.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "epochs".to_string()),
    ))
}

/// The `--window` path: one continuously-running session, one sealed
/// epoch file per window of `window` packets. `keep_epochs > 0` caps
/// what stays resident (the service's catalog) to the last N epochs.
///
/// With `serve_addr` set, the wire server is bound and running before
/// the first packet is ingested, and every sealed epoch is published
/// to the resident [`serve::Service`] the moment rotation seals it —
/// wire readers query earlier windows concurrently with ingest. After
/// the epoch files are written the publisher is dropped and the
/// server keeps answering until a client sends a shutdown request.
fn measure_windowed(
    engine: &ShardedCocoSketch,
    trace: &Trace,
    full: KeySpec,
    opts: WindowedOpts<'_>,
) -> Result<(), String> {
    let WindowedOpts {
        window,
        keep_epochs,
        out,
        threads,
        serve_addr,
        spill_dir,
        compact_bucket,
    } = opts;
    // Open the durable tier first: recovery runs before anything is
    // appended, and the service's cold reader hangs off the same
    // directory.
    let spill = match spill_dir {
        Some(dir) => {
            let (shared, report) = cocosketch::SharedEpochDir::open(dir)
                .map_err(|e| format!("opening --spill {dir}: {e}"))?;
            if !report.quarantined.is_empty() {
                eprintln!(
                    "spill {dir}: quarantined {} torn file{} on open",
                    report.quarantined.len(),
                    if report.quarantined.len() == 1 {
                        ""
                    } else {
                        "s"
                    }
                );
            }
            // A session numbers its epochs from 0, and the directory's
            // dense-id invariant means any previous run's segments
            // collide with this run's ids. Refuse up front (after
            // recovery has run and been reported): appending would
            // either mix two runs' histories or fail mid-run at the
            // first seal (EpochDir::append verifies re-offered ids
            // byte-for-byte and rejects mismatches).
            if let Some((first, last)) = shared.ids() {
                return Err(format!(
                    "--spill {dir}: directory already holds epochs {first}..={last} from a \
                     previous run, and this run numbers epochs from 0; spill into a new or \
                     empty directory (the old one still answers `query --dir {dir}`)"
                ));
            }
            Some(shared)
        }
        None => None,
    };
    let compactor = match (&spill, compact_bucket) {
        (Some(shared), bucket) if bucket >= 2 => Some(cocosketch::segment::spawn_compactor(
            shared.clone(),
            cocosketch::CompactionPolicy {
                bucket,
                // Keep at least what RAM keeps: per-epoch resolution on
                // disk should outlive per-epoch residency in memory.
                keep_recent: keep_epochs.max(bucket) as u64,
            },
        )),
        _ => None,
    };
    let mut serving = match serve_addr {
        Some(addr) => {
            // The service's catalog retains what --keep-epochs keeps
            // in RAM (everything, when unset); with --spill, epochs
            // that age out of the catalog backfill from the directory.
            let keep = if keep_epochs > 0 {
                keep_epochs
            } else {
                usize::MAX
            };
            let (publisher, svc) = match &spill {
                Some(shared) => serve::service_with_cold(keep, shared.reader()),
                None => serve::service(keep),
            };
            let server = serve::Server::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            println!("serving on {}", server.addr());
            Some((publisher, std::thread::spawn(move || server.run(svc))))
        }
        None => None,
    };
    let mut session = engine.session();
    let mut total = 0u64;
    let mut sealed_epochs = 0usize;
    let started = std::time::Instant::now();
    let mut in_window = 0u64;
    // Seal one epoch, streaming: durable segment append first, then
    // the OUT.epochN file, then publication to the resident service.
    // Ordering matters — by the time an epoch is visible anywhere, it
    // is already durable.
    let mut seal = |sealed: Epoch| -> Result<(), String> {
        let sealed = std::sync::Arc::new(sealed);
        if let Some(shared) = &spill {
            shared
                .append(&sealed)
                .map_err(|e| format!("spilling epoch {}: {e}", sealed.id))?;
            if let Some(compactor) = &compactor {
                compactor.nudge();
            }
        }
        let path = epoch_file(out, sealed.id);
        std::fs::write(&path, epoch::encode(&sealed))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  epoch {}: {} packets, weight {}, {} flows -> {}",
            sealed.id,
            sealed.packets,
            sealed.weight,
            sealed.primary().len(),
            path.display()
        );
        if let Some((publisher, _)) = serving.as_mut() {
            publisher.publish(sealed);
        }
        sealed_epochs += 1;
        Ok(())
    };
    for p in &trace.packets {
        session.push(full.project(&p.flow), u64::from(p.weight));
        in_window += 1;
        if in_window == window {
            let sealed = session.rotate_collect().to_epoch(full);
            total += sealed.packets;
            seal(sealed)?;
            in_window = 0;
        }
    }
    let last = session.finish();
    if last.packets > 0 {
        let sealed = last.to_epoch(full);
        total += sealed.packets;
        seal(sealed)?;
    }
    let elapsed = started.elapsed();
    let mpps = total as f64 / elapsed.as_secs_f64() / 1e6;
    let resident = if keep_epochs > 0 {
        sealed_epochs.min(keep_epochs)
    } else {
        sealed_epochs
    };
    let evicted = sealed_epochs - resident;
    println!(
        "measured {total} packets in {elapsed:?} ({mpps:.2} Mpps, {threads} thread{}); \
         {resident} epoch{} of <= {window} packets resident{}",
        if threads == 1 { "" } else { "s" },
        if resident == 1 { "" } else { "s" },
        if evicted > 0 {
            format!(" ({evicted} older evicted by --keep-epochs {keep_epochs})")
        } else {
            String::new()
        },
    );
    if let Some(compactor) = compactor {
        let totals = compactor.finish();
        if let Some(err) = &totals.last_error {
            return Err(format!(
                "compaction failed ({} error{}): {err}",
                totals.errors,
                if totals.errors == 1 { "" } else { "s" }
            ));
        }
        if totals.buckets > 0 {
            println!(
                "  compacted {} epochs into {} bucket{} ({} sweeps)",
                totals.merged_epochs,
                totals.buckets,
                if totals.buckets == 1 { "" } else { "s" },
                totals.rounds
            );
        }
    }
    if let Some(shared) = &spill {
        // Sealing has ended: list every segment, so the directory
        // reopens with nothing to adopt and `--dir` readers see it all.
        shared
            .checkpoint()
            .map_err(|e| format!("closing --spill directory: {e}"))?;
        let (first, last) = shared.ids().unwrap_or((0, 0));
        println!(
            "  spill: {} segment{} covering epochs {first}..={last}",
            shared.len(),
            if shared.len() == 1 { "" } else { "s" },
        );
    }
    if let Some((publisher, handle)) = serving {
        // Sealing is finished; the server keeps answering from the
        // published epochs until a client asks it to stop.
        drop(publisher);
        let served = handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serving {}: {e}", serve_addr.unwrap_or("?")))?;
        println!(
            "server stopped after {served} connection{}",
            if served == 1 { "" } else { "s" }
        );
    }
    Ok(())
}

/// The table `query`, `stats` and `info --table` read, from `--table`
/// (a `CFT1` table or a `CEP1` epoch) or `--dir`. Its sizes are summed
/// once here with overflow checked: every group, flow and total those
/// commands print is at most that sum, so none of their sums can wrap.
fn load_table(opts: &Opts) -> Result<FlowTable, String> {
    let table = read_table(opts)?;
    let summed = table
        .rows()
        .iter()
        .try_fold(0u64, |sum, &(_, size)| sum.checked_add(size));
    if summed.is_none() {
        let source = opts.get("dir").or(opts.get("table")).unwrap_or("the table");
        return Err(format!("{source}: flow sizes sum past u64::MAX"));
    }
    Ok(table)
}

fn read_table(opts: &Opts) -> Result<FlowTable, String> {
    if let Some(dir) = opts.get("dir") {
        if opts.get("table").is_some() {
            return Err("--table and --dir are mutually exclusive".into());
        }
        let reader = cocosketch::DirReader::new(dir);
        let sealed = match opts.get("epoch") {
            Some(_) => {
                let id = opts.u64_or("epoch", 0)?;
                reader
                    .read_epoch(id)
                    .map_err(|e| format!("reading {dir}: {e}"))?
                    .ok_or_else(|| format!("{dir}: epoch {id} is not stored as its own segment"))?
            }
            None => reader
                .read_latest()
                .map_err(|e| format!("reading {dir}: {e}"))?
                .ok_or_else(|| format!("{dir}: no epochs stored"))?,
        };
        return sealed
            .tables
            .into_iter()
            .next()
            .ok_or_else(|| format!("{dir}: epoch sealed no tables"));
    }
    let path = opts.path("table")?;
    let bytes = std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    // Sniff the envelope by magic: `measure --window` writes sealed
    // epochs (`CEP1`), plain `measure` writes bare tables (`CFT1`).
    if bytes.starts_with(epoch::EPOCH_MAGIC) {
        let sealed =
            epoch::decode(&bytes).map_err(|e| format!("decoding {}: {e}", path.display()))?;
        return sealed
            .tables
            .into_iter()
            .next()
            .ok_or_else(|| format!("{}: epoch sealed no tables", path.display()));
    }
    snapshot::decode(&bytes).map_err(|e| format!("decoding {}: {e}", path.display()))
}

fn describe(spec: &KeySpec, key: &traffic::KeyBytes) -> String {
    let ft = spec.decode(key);
    let mut parts = Vec::new();
    if spec.src_ip_bits > 0 {
        let ip = std::net::Ipv4Addr::from(ft.src_ip);
        if spec.src_ip_bits == 32 {
            parts.push(format!("src {ip}"));
        } else {
            parts.push(format!("src {ip}/{}", spec.src_ip_bits));
        }
    }
    if spec.dst_ip_bits > 0 {
        let ip = std::net::Ipv4Addr::from(ft.dst_ip);
        if spec.dst_ip_bits == 32 {
            parts.push(format!("dst {ip}"));
        } else {
            parts.push(format!("dst {ip}/{}", spec.dst_ip_bits));
        }
    }
    if spec.src_port {
        parts.push(format!("sport {}", ft.src_port));
    }
    if spec.dst_port {
        parts.push(format!("dport {}", ft.dst_port));
    }
    if spec.proto {
        parts.push(format!("proto {}", ft.proto));
    }
    if parts.is_empty() {
        "(all traffic)".to_string()
    } else {
        parts.join(" ")
    }
}

/// `query`: partial-key report from an exported table.
pub fn query(argv: &[String]) -> Result<(), String> {
    let opts = Opts::parse(argv)?;
    let table = load_table(&opts)?;
    let spec = parse_key(opts.require("key")?)?;
    if !spec.is_partial_of(table.full_spec()) {
        return Err(format!(
            "{spec} is not a partial key of the table's full key {}",
            table.full_spec()
        ));
    }
    let top = opts.u64_or("top", 10)? as usize;
    let threshold = opts.u64_or("threshold", 0)?;

    let flows = table_stats::top_k(&table, &spec, usize::MAX);
    let shown: Vec<_> = flows
        .iter()
        .filter(|&&(_, v)| v >= threshold)
        .take(top)
        .collect();
    println!(
        "{} flows under key {spec}; showing top {}:",
        flows.len(),
        shown.len()
    );
    for (key, size) in shown {
        println!("  {:>12}  {}", size, describe(&spec, key));
    }
    Ok(())
}

/// `stats`: entropy and size distribution for one key.
pub fn stats(argv: &[String]) -> Result<(), String> {
    let opts = Opts::parse(argv)?;
    let table = load_table(&opts)?;
    let spec = parse_key(opts.require("key")?)?;
    if !spec.is_partial_of(table.full_spec()) {
        return Err(format!(
            "{spec} is not a partial key of the table's full key {}",
            table.full_spec()
        ));
    }
    // One aggregation pass; entropy and the distribution are derived
    // from the same count table instead of re-scanning per statistic.
    let counts = table.query_partial(&spec);
    println!("key {spec}:");
    println!("  recorded flows : {}", counts.len());
    println!("  total traffic  : {}", table.total());
    println!(
        "  entropy        : {:.3} bits",
        table_stats::entropy_of_counts(&counts)
    );
    let bins = table_stats::size_distribution_of_counts(&counts);
    println!("  size distribution (log2 bins):");
    for (i, &count) in bins.iter().enumerate() {
        if count > 0 {
            println!("    [{:>10}, {:>10})  {count}", 1u64 << i, 1u64 << (i + 1));
        }
    }
    Ok(())
}

/// `info`: describe a trace or table file.
pub fn info(argv: &[String]) -> Result<(), String> {
    let opts = Opts::parse(argv)?;
    if let Some(path) = opts.get("trace") {
        let trace = trace_io::load(std::path::Path::new(path))
            .map_err(|e| format!("reading {path}: {e}"))?;
        println!("trace {path}:");
        println!("  packets        : {}", trace.len());
        println!("  total weight   : {}", trace.total_weight());
        println!("  distinct flows : {}", trace.distinct_flows());
        return Ok(());
    }
    if let Some(dir) = opts.get("dir") {
        let reader = cocosketch::DirReader::new(dir);
        let segments = reader
            .segments()
            .map_err(|e| format!("reading {dir}: {e}"))?;
        let buckets = segments.iter().filter(|m| m.is_bucket()).count();
        let epochs = segments.len() - buckets;
        let bytes: u64 = segments.iter().map(|m| m.bytes).sum();
        println!("epoch directory {dir}:");
        println!(
            "  segments       : {} ({epochs} epoch, {buckets} bucket)",
            segments.len()
        );
        match segments.first().zip(segments.last()) {
            Some((lo, hi)) => println!("  epoch ids      : {}..={}", lo.first, hi.last),
            None => println!("  epoch ids      : (none)"),
        }
        println!("  segment bytes  : {bytes}");
        return Ok(());
    }
    if opts.get("table").is_some() {
        let table = load_table(&opts)?;
        println!("flow table:");
        println!("  full key       : {}", table.full_spec());
        println!("  recorded flows : {}", table.len());
        println!("  total traffic  : {}", table.total());
        return Ok(());
    }
    Err("info needs --trace FILE, --table FILE, or --dir DIR".into())
}
