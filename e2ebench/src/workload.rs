//! The four workloads, and the run that sets one up, times it, checks
//! its answers and measures it.

use crate::budget::{self, Logs};
use crate::pipeline::{Pipeline, Policy, Recent};
use crate::report::{rss_peak_mb, Metrics, Samples};
use crate::trace::{self, Clock, Kind, Slicer, SpanLog, Stage};
use crate::wire::{Conn, ServerThread};
use cocosketch::segment::{CompactTotals, OpenReport};
use cocosketch::{Epoch, EpochDir};
use hashkit::FastMap;
use serve::{Request, Response, Select, Service, ServiceInfo};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasks::heavy_hitter::score_against;
use tasks::metrics::Accuracy;
use traffic::{presets, truth, KeyBytes, KeySpec};

/// Packets per `push_batch` call.
pub const BATCH: usize = 4096;

/// Set-ups per run; `setup_s` is their median, which spreads less
/// between runs than one set-up does (`setup_s_spread` in
/// `baseline.json`).
const SETUP_REPS: usize = 5;

/// Spans one traced thread can record before it starts dropping.
const SPANS: usize = 1 << 19;

/// Every this many answers of `mixed_live` are checked bit for bit.
const CHECK_EVERY: u64 = 50;

/// Heavy-hitter threshold, as a share of an epoch's weight (the paper's).
const HEAVY: f64 = 1e-4;

const SIX: [KeySpec; 6] = KeySpec::PAPER_SIX;

/// Where the load comes from.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// The producer pushes as fast as `push_batch` accepts; no reader.
    Ingest,
    /// One client, closed loop, over epochs sealed in set-up; no ingest.
    Query,
    /// The producer paced to `pps` offered packets per second beside
    /// one client paced to `qps`: both open loop.
    Mixed { pps: f64, qps: f64 },
}

/// One workload: its trace, seal policy and load.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// `caida_like` scale divisor of the replayed trace.
    pub scale: usize,
    pub policy: Policy,
    /// Windows sealed during set-up.
    pub preseal: usize,
    pub load: Load,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_steady",
        scale: 5,
        policy: Policy {
            window: 1_000_000,
            keep: 8,
            bucket: 4,
            retain: 0,
        },
        preseal: 0,
        load: Load::Ingest,
    },
    Workload {
        name: "seal_heavy",
        scale: 5,
        policy: Policy {
            window: 32_000,
            keep: 8,
            bucket: 4,
            retain: 0,
        },
        preseal: 0,
        load: Load::Ingest,
    },
    Workload {
        name: "query_hot",
        scale: 27,
        policy: Policy {
            window: 250_000,
            keep: 8,
            bucket: 4,
            retain: 8,
        },
        preseal: 8,
        load: Load::Query,
    },
    // The catalog keeps 4 and compaction spares the newest 16, so ids
    // latest-10..=latest-5 answer from disk and latest-11..=latest
    // spans both tiers. Five seals (250 ms) separate each queried id
    // from the compaction horizon, so a query in flight never races it.
    // A window query reads 8 epochs back from disk and takes ~60 ms on
    // two cores; at 10 qps the client keeps up, while at 20 qps and
    // above the open-loop queue grows for as long as the run lasts.
    Workload {
        name: "mixed_live",
        scale: 5,
        policy: Policy {
            window: 200_000,
            keep: 4,
            bucket: 16,
            retain: 32,
        },
        preseal: 16,
        load: Load::Mixed {
            pps: 4e6,
            qps: 10.0,
        },
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Run options from the command line.
pub struct Options {
    pub seed: u64,
    pub run: Duration,
    pub traced: bool,
}

/// A finished run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Human-readable summary: sample counts, tails, the stage budget.
    pub summary: String,
    /// Every recorded span as CSV (traced runs only).
    pub spans: String,
}

/// Attempted and failed operations, with the first failure's reason.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert_with(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first.is_none() {
            self.first = other.first;
        }
    }
}

/// Cyclic replay of the projected trace.
struct Feed {
    packets: Vec<(KeyBytes, u64)>,
    cursor: usize,
}

impl Feed {
    /// The next batch: at most [`BATCH`] packets, cut at the window's
    /// `room` and at the end of the trace.
    fn next(&mut self, room: usize) -> &[(KeyBytes, u64)] {
        let start = self.cursor;
        let len = BATCH.min(room).min(self.packets.len() - start);
        self.cursor = (start + len) % self.packets.len();
        &self.packets[start..start + len]
    }

    /// Packets `from..from + n` of the endless replay.
    fn stream(&self, from: u64, n: u64) -> impl Iterator<Item = &(KeyBytes, u64)> {
        let len = self.packets.len() as u64;
        (from..from + n).map(move |i| &self.packets[(i % len) as usize])
    }
}

/// The client end with its span log and counters. It connects on its
/// first query: the server closes a connection idle for longer than its
/// I/O timeout, and the ingest workloads query only at the end.
struct Client {
    sock: PathBuf,
    traced: bool,
    conn: Option<Conn>,
    log: SpanLog,
    seq: u64,
    answer_bytes: Samples,
}

impl Client {
    fn call(&mut self, request: &Request, kind: Kind) -> Result<Response, String> {
        let conn = match &mut self.conn {
            Some(conn) => conn,
            None => self.conn.insert(Conn::open(&self.sock, self.traced)?),
        };
        let (response, bytes) = conn
            .call(request, kind, self.seq, &mut self.log)
            .map_err(|e| format!("query {request:?}: {e}"))?;
        self.seq += 1;
        if bytes > 0 {
            self.answer_bytes.push(bytes as f64);
        }
        Ok(response)
    }

    /// Query `spec` on `sel` and check that the answer is `epoch`'s
    /// `query_all_entries` rows, bit for bit.
    fn check_exact(
        &mut self,
        sel: Select,
        epoch: &Epoch,
        spec: KeySpec,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let got = self.call(&Request::Partial(sel, spec), Kind::Warm)?;
        let ok = matches!(&got, Response::Answer(a) if a.id == epoch.id
            && a.primary().rows() == epoch.primary().query_all_entries(&[spec])[0].as_slice());
        tally.check(ok, || {
            format!("epoch {} {spec} differs over the wire", epoch.id)
        });
        Ok(())
    }
}

/// What the end-of-run gates found, and the counters they read.
struct Closed {
    tally: Tally,
    compact: CompactTotals,
    info: ServiceInfo,
    server_log: Option<SpanLog>,
    bytes_per_epoch: f64,
}

/// Everything one set-up builds.
struct Rig {
    dir: PathBuf,
    feed: Feed,
    pipe: Pipeline,
    svc: Arc<Service>,
    /// Taken when the server is stopped.
    server: Option<ServerThread>,
    client: Client,
    plog: SpanLog,
    tally: Tally,
}

impl Rig {
    /// Generate the trace, open the spill directory, start the service
    /// and its server, connect, and seal the set-up windows.
    fn setup(w: &Workload, opts: &Options, clock: &Clock, dir: &Path) -> Result<Rig, String> {
        let full = KeySpec::FIVE_TUPLE;
        let trace = presets::caida_like(w.scale, opts.seed);
        let packets = trace
            .packets
            .iter()
            .map(|p| (full.project(&p.flow), u64::from(p.weight)))
            .collect();
        drop(trace);
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let (pipe, svc) = Pipeline::open(&dir.join("spill"), opts.seed, w.policy)?;
        let sock = dir.join("sock");
        let server = ServerThread::start(&sock, Arc::clone(&svc), opts.traced.then_some(clock))?;
        let spans = if opts.traced { SPANS } else { 0 };
        let mut rig = Rig {
            dir: dir.to_path_buf(),
            feed: Feed { packets, cursor: 0 },
            pipe,
            svc,
            server: Some(server),
            client: Client {
                sock,
                traced: opts.traced,
                conn: None,
                log: clock.log(spans),
                seq: 0,
                answer_bytes: Samples::default(),
            },
            plog: clock.log(spans),
            tally: Tally::default(),
        };
        for _ in 0..w.preseal {
            while !rig.pipe.full() {
                let batch = rig.feed.next(rig.pipe.room());
                rig.pipe.push(batch, &mut rig.plog);
            }
            rig.pipe.seal(&mut rig.plog)?;
        }
        if let Load::Query = w.load {
            rig.pipe.stop_ingest()?;
            rig.check_every_epoch()?;
        }
        Ok(rig)
    }

    /// Before timing: every wire answer for every retained epoch × the
    /// six keys equals `query_all_entries` on that epoch, bit for bit.
    fn check_every_epoch(&mut self) -> Result<(), String> {
        let epochs: Vec<Arc<Epoch>> = self
            .pipe
            .recent
            .lock()
            .expect("unpoisoned")
            .iter()
            .cloned()
            .collect();
        for e in &epochs {
            for spec in SIX {
                self.client
                    .check_exact(Select::Id(e.id), e, spec, &mut self.tally)?;
            }
        }
        match self.tally.first.take() {
            Some(why) => Err(format!("set-up gate failed: {why}")),
            None => Ok(()),
        }
    }

    /// Stop everything a set-up started and delete its files.
    fn teardown(mut self) -> Result<(), String> {
        self.client.call(&Request::Shutdown, Kind::Warm)?;
        if let Some(server) = self.server.take() {
            server.join()?;
        }
        self.pipe.finish(&mut self.plog)?;
        drop(self.pipe);
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("removing {}: {e}", self.dir.display()))
    }

    /// The end-of-run gates: seal what is left, then check that every
    /// pushed packet was sealed, that the deferred answers match their
    /// epochs bit for bit, that the latest epoch answers over the wire
    /// like `query_all_entries`, that no cold read or compaction failed,
    /// and that the spill directory reopens clean and dense.
    fn close(
        &mut self,
        deferred: &[Deferred],
        clock: &Clock,
        traced: bool,
    ) -> Result<Closed, String> {
        let mut tally = std::mem::take(&mut self.tally);
        let finished = self.pipe.finish(&mut self.plog)?;
        let (sealed, pushed) = (self.pipe.sealed, self.pipe.pushed);
        tally.check(sealed == pushed, || {
            format!("sealed (packets, weight) {sealed:?} != pushed {pushed:?}")
        });
        for d in deferred {
            let rows = expected_rows(&d.spec, &d.expected);
            tally.check(d.answer.primary().rows() == rows.as_slice(), || {
                format!(
                    "answer for epoch {} {} differs from its sealed epochs",
                    d.answer.id, d.spec
                )
            });
        }
        let latest = finished.latest.ok_or("no epoch sealed")?;
        clock.record(traced);
        for spec in SIX {
            self.client
                .check_exact(Select::Latest, &latest, spec, &mut tally)?;
        }
        clock.record(false);
        let bye = self.client.call(&Request::Shutdown, Kind::Warm)?;
        tally.check(bye == Response::Bye, || {
            format!("shutdown answered {bye:?}")
        });
        let server = self.server.take().ok_or("server already stopped")?;
        let server_log = server.join()?;
        let info = self.svc.info();
        tally.check(info.cold_errors == 0, || {
            format!("{} cold reads failed", info.cold_errors)
        });
        let compact = finished.compact;
        tally.check(compact.errors == 0, || {
            format!("compaction failed: {:?}", compact.last_error)
        });
        let (reopened, report) =
            EpochDir::open(self.dir.join("spill")).map_err(|e| format!("reopening spill: {e}"))?;
        let dense = Some((0, self.pipe.seals - 1));
        tally.check(
            report
                == OpenReport {
                    segments: reopened.len(),
                    ..OpenReport::default()
                }
                && reopened.ids() == dense
                && self.pipe.dir_ids() == dense,
            || {
                format!(
                    "spill reopened as {:?} with {report:?}, wanted {dense:?}",
                    reopened.ids()
                )
            },
        );
        let singles: Vec<u64> = reopened
            .segments()
            .iter()
            .filter(|m| !m.is_bucket())
            .map(|m| m.bytes)
            .collect();
        Ok(Closed {
            tally,
            compact,
            info,
            server_log,
            bytes_per_epoch: singles.iter().sum::<u64>() as f64 / singles.len().max(1) as f64,
        })
    }
}

/// What the producer measured.
#[derive(Default)]
struct Produced {
    pushed: u64,
    wall: Duration,
    /// Last push of a window (or its due time, when paced) → publish
    /// returned, in ms.
    visible: Samples,
    /// How late each batch was pushed against its due time, in ms.
    late: Samples,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Push the replayed trace until `deadline`, sealing every full window.
/// With `pps` set, each batch is due when its first packet is due at
/// that offered rate, and the producer sleeps until then.
fn produce(
    pipe: &mut Pipeline,
    feed: &mut Feed,
    log: &mut SpanLog,
    slicer: &mut Slicer,
    deadline: Instant,
    pps: Option<f64>,
) -> Result<Produced, String> {
    let mut out = Produced::default();
    let t0 = Instant::now();
    loop {
        let due = pps.map(|r| t0 + Duration::from_secs_f64(out.pushed as f64 / r));
        if let Some(due) = due {
            let now = Instant::now();
            if due > now {
                log.span(Stage::Pace, 0, || std::thread::sleep(due - now));
            }
            out.late
                .push(ms(Instant::now().saturating_duration_since(due)));
        }
        let batch = feed.next(pipe.room());
        let n = batch.len() as u64;
        pipe.push(batch, log);
        out.pushed += n;
        let mut now = Instant::now();
        if pipe.full() {
            let visible = pipe.seal(log)?;
            out.visible
                .push(ms(visible.saturating_duration_since(due.unwrap_or(now))));
            now = Instant::now();
        }
        slicer.tick(now, n);
        if now >= deadline {
            slicer.stop(now);
            out.wall = now - t0;
            return Ok(out);
        }
    }
}

/// Answer checks every query gets: an answer, for the expected epoch,
/// whose rows sum to its weight, and whose weight and packets equal the
/// retained epochs it covers. Returns the answer.
fn check_answer(response: Response, last: u64, expected: &[Arc<Epoch>]) -> Result<Epoch, String> {
    let Response::Answer(answer) = response else {
        return Err(format!("expected an answer, got {response:?}"));
    };
    let rows: u64 = answer
        .tables
        .iter()
        .flat_map(|t| t.rows())
        .map(|&(_, v)| v)
        .sum();
    let weight: u64 = expected.iter().map(|e| e.weight).sum();
    let packets: u64 = expected.iter().map(|e| e.packets).sum();
    if answer.id != last || answer.tables.len() != 1 {
        return Err(format!(
            "answer for epoch {} ({} tables), wanted {last}",
            answer.id,
            answer.tables.len()
        ));
    }
    if rows != answer.weight || answer.weight != weight || answer.packets != packets {
        return Err(format!(
            "answer for epoch {last}: rows sum {rows}, weight {} packets {}; sealed weight {weight} packets {packets}",
            answer.weight, answer.packets
        ));
    }
    Ok(answer)
}

/// `query_all_entries` rows of `spec` summed over `epochs`.
fn expected_rows(spec: &KeySpec, epochs: &[Arc<Epoch>]) -> Vec<(KeyBytes, u64)> {
    let mut sum: FastMap<KeyBytes, u64> = FastMap::default();
    for e in epochs {
        for &(k, v) in &e.primary().query_all_entries(&[*spec])[0] {
            *sum.entry(k).or_insert(0) += v;
        }
    }
    let mut rows: Vec<(KeyBytes, u64)> = sum.into_iter().collect();
    rows.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
    rows
}

/// The retained epochs `ids`, from the producer's ring.
fn retained(
    recent: &Recent,
    ids: std::ops::RangeInclusive<u64>,
) -> Result<Vec<Arc<Epoch>>, String> {
    let ring = recent.lock().expect("unpoisoned");
    ids.map(|id| {
        ring.iter()
            .find(|e| e.id == id)
            .cloned()
            .ok_or_else(|| format!("epoch {id} is not retained for checking"))
    })
    .collect()
}

/// An answer kept for the bit-for-bit check after timing.
struct Deferred {
    spec: KeySpec,
    answer: Epoch,
    expected: Vec<Arc<Epoch>>,
}

/// What a query loop measured.
#[derive(Default)]
struct Queried {
    queries: u64,
    wall: Duration,
    latency: Samples,
    /// Latency split by whether tracing recorded the query: `[off, on]`.
    by_slice: [Samples; 2],
    late: Samples,
    deferred: Vec<Deferred>,
    tally: Tally,
}

/// `query_hot`: closed loop over the six keys × {latest, id k}.
fn query_closed(
    client: &mut Client,
    recent: &Recent,
    slicer: &mut Slicer,
    deadline: Instant,
) -> Result<Queried, String> {
    let epochs: Vec<Arc<Epoch>> = recent.lock().expect("unpoisoned").iter().cloned().collect();
    let latest = epochs.last().ok_or("no epoch to query")?.id;
    let mut out = Queried::default();
    let t0 = Instant::now();
    for i in 0u64.. {
        let spec = SIX[(i % 6) as usize];
        let (sel, id) = if (i / 6) % 2 == 0 {
            (Select::Latest, latest)
        } else {
            let e = &epochs[((i / 12) % epochs.len() as u64) as usize];
            (Select::Id(e.id), e.id)
        };
        let sent = Instant::now();
        let response = client.call(&Request::Partial(sel, spec), Kind::Warm)?;
        let now = Instant::now();
        out.latency.push(ms(now - sent));
        let expected = &epochs[(id - epochs[0].id) as usize..][..1];
        let checked = check_answer(response, id, expected);
        out.tally
            .check(checked.is_ok(), || checked.err().unwrap_or_default());
        slicer.tick(now, 1);
        if now >= deadline {
            slicer.stop(now);
            out.queries = i + 1;
            out.wall = now - t0;
            break;
        }
    }
    Ok(out)
}

/// `mixed_live`'s client: open loop at `qps`, a third each of
/// `partial(latest)`, `partial(id in latest-10..=latest-5)` and
/// `window(latest-11, latest)`; latency counts from each query's due
/// time.
fn query_open(
    client: &mut Client,
    qps: f64,
    latest: &AtomicU64,
    recent: &Recent,
    clock: &Clock,
    deadline: Instant,
) -> Result<Queried, String> {
    let mut out = Queried::default();
    let t0 = Instant::now();
    for i in 0u64.. {
        let due = t0 + Duration::from_secs_f64(i as f64 / qps);
        if due >= deadline {
            out.queries = i;
            out.wall = due.saturating_duration_since(t0);
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.late.push(ms(sent.saturating_duration_since(due)));
        let recorded = usize::from(clock.recording());
        let l = latest.load(Ordering::Relaxed);
        let spec = SIX[((i / 3) % 6) as usize];
        let (request, kind) = match i % 3 {
            0 => (Request::Partial(Select::Latest, spec), Kind::Warm),
            1 => (
                Request::Partial(Select::Id(l - 5 - (i / 3) % 6), spec),
                Kind::Cold,
            ),
            _ => (Request::Window(l - 11, l, spec), Kind::Window),
        };
        let response = client.call(&request, kind)?;
        let took = ms(Instant::now().saturating_duration_since(due));
        out.latency.push(took);
        out.by_slice[recorded].push(took);
        let ids = match (&request, &response) {
            (Request::Partial(Select::Latest, _), Response::Answer(a)) if a.id >= l => a.id..=a.id,
            (Request::Partial(Select::Id(k), _), _) => *k..=*k,
            (Request::Window(first, last, _), _) => *first..=*last,
            _ => l..=l,
        };
        let last = *ids.end();
        let checked = retained(recent, ids).and_then(|expected| {
            check_answer(response, last, &expected).map(|answer| (answer, expected))
        });
        match checked {
            Ok((answer, expected)) => {
                out.tally.check(true, String::new);
                if i % CHECK_EVERY == 0 {
                    out.deferred.push(Deferred {
                        spec,
                        answer,
                        expected,
                    });
                }
            }
            Err(why) => out.tally.check(false, || why),
        }
    }
    Ok(out)
}

/// F1 and ARE averaged over the first sealed epochs × the six keys,
/// against exact counts of each epoch's window of the replay.
fn accuracy(scored: &[Arc<Epoch>], feed: &Feed, window: u64) -> Accuracy {
    let full = KeySpec::FIVE_TUPLE;
    let mut all = Vec::new();
    for e in scored {
        let mut counts: FastMap<KeyBytes, u64> = FastMap::default();
        for &(k, w) in feed.stream(e.id * window, e.packets) {
            *counts.entry(k).or_insert(0) += w;
        }
        let truths: Vec<_> = SIX
            .iter()
            .map(|s| truth::project_counts(&counts, &full, s))
            .collect();
        let estimates: Vec<_> = SIX.iter().map(|s| e.primary().query_partial(s)).collect();
        let threshold = ((e.weight as f64 * HEAVY).ceil() as u64).max(1);
        all.extend(score_against(&estimates, &truths, threshold).per_key);
    }
    Accuracy::mean(&all)
}

/// Set up (several times), run the timed phase, check, and measure.
pub fn run(w: &Workload, opts: &Options, scratch: &Path) -> Result<Outcome, String> {
    let clock = Clock::new();
    let mut setups = Samples::default();
    let mut rig: Option<Rig> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            old.teardown()?;
        }
        // The query workload seals only in set-up; record its last
        // set-up so the seal-path layers have spans.
        clock.record(opts.traced && rep + 1 == SETUP_REPS && matches!(w.load, Load::Query));
        let t = Instant::now();
        rig = Some(Rig::setup(w, opts, &clock, &scratch.join(rep.to_string()))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    clock.record(false);
    let mut rig = rig.expect("at least one set-up");

    let timed_start = clock.now_ns();
    let mut slicer = Slicer::start(&clock, opts.traced, opts.run);
    let deadline = Instant::now() + opts.run;
    let (produced, mut queried) = match w.load {
        Load::Ingest => {
            let Rig {
                pipe, feed, plog, ..
            } = &mut rig;
            let produced = produce(pipe, feed, plog, &mut slicer, deadline, None)?;
            (produced, Queried::default())
        }
        Load::Query => {
            let queried = query_closed(&mut rig.client, &rig.pipe.recent, &mut slicer, deadline)?;
            (Produced::default(), queried)
        }
        Load::Mixed { pps, qps } => {
            let latest = Arc::clone(&rig.pipe.latest);
            let recent = Arc::clone(&rig.pipe.recent);
            let Rig {
                pipe,
                feed,
                plog,
                client,
                ..
            } = &mut rig;
            std::thread::scope(|s| {
                let reader =
                    s.spawn(|| query_open(client, qps, &latest, &recent, &clock, deadline));
                let produced = produce(pipe, feed, plog, &mut slicer, deadline, Some(pps));
                let queried = reader
                    .join()
                    .map_err(|_| "query thread panicked".to_string());
                Ok::<_, String>((produced?, queried??))
            })?
        }
    };
    let timed_end = clock.now_ns();
    let mut closed = rig.close(&queried.deferred, &clock, opts.traced)?;
    closed.tally.merge(std::mem::take(&mut queried.tally));
    let acc = accuracy(&rig.pipe.scored, &rig.feed, w.policy.window);

    // End-to-end metrics: the workload's headline rate and latency.
    let mut e2e = Metrics::default();
    let ingest_rate = produced.pushed as f64 / produced.wall.as_secs_f64();
    let (rate, latency) = match w.load {
        Load::Ingest => (ingest_rate, &produced.visible),
        Load::Query => (
            queried.queries as f64 / queried.wall.as_secs_f64(),
            &queried.latency,
        ),
        Load::Mixed { .. } => (ingest_rate, &queried.latency),
    };
    e2e.put("setup_s", setups.pct(0.5), "s");
    e2e.put("throughput", rate, "1/s");
    e2e.put("latency_ms_p50", latency.pct(0.50), "ms");
    e2e.put("latency_ms_p95", latency.pct(0.95), "ms");
    e2e.put("f1_mean", acc.f1, "ratio");
    e2e.put("rss_peak_mb", rss_peak_mb(), "MB");

    // Every set-up in order: the first alone is what one set-up per run
    // would report.
    let mut summary = format!(
        "setup s: median {} of {:?}\n",
        setups.pct(0.5),
        setups.values()
    );
    if produced.pushed > 0 {
        let _ = writeln!(
            summary,
            "ingest: {} packets in {:.3} s = {:.3} Mpps; {} seals ({} timed); seal->visible ms {}",
            produced.pushed,
            produced.wall.as_secs_f64(),
            ingest_rate / 1e6,
            rig.pipe.seals,
            produced.visible.len(),
            produced.visible.describe()
        );
    }
    if queried.queries > 0 {
        let _ = writeln!(
            summary,
            "queries: {} in {:.3} s = {:.1} qps; latency ms {}",
            queried.queries,
            queried.wall.as_secs_f64(),
            queried.queries as f64 / queried.wall.as_secs_f64(),
            queried.latency.describe()
        );
    }
    let mut late = produced.late.clone();
    late.extend(&queried.late);
    if late.len() > 0 {
        let _ = writeln!(summary, "generator lateness ms {}", late.describe());
    }
    let (compact, info) = (&closed.compact, &closed.info);
    let _ = writeln!(
        summary,
        "accuracy over {} epochs x 6 keys: f1 {:.6} are {:.6}; compaction {compact:?}; cache {:?}",
        rig.pipe.scored.len(),
        acc.f1,
        acc.are,
        info.cache
    );

    // Per-layer metrics, from the spans and the layers' own counters.
    let mut layers = Metrics::default();
    let mut spans = String::new();
    if opts.traced {
        let empty = clock.log(0);
        let server = closed.server_log.as_ref().unwrap_or(&empty);
        let logs = Logs {
            producer: rig.plog.spans(),
            client: rig.client.log.spans(),
            server: server.spans(),
            timed: (timed_start, timed_end),
            on_wall_ns: slicer.wall_ns[1],
            client_drives: matches!(w.load, Load::Query),
        };
        summary.push_str(&budget::per_layer(&logs, &mut layers));
        layers.put("segment.bytes_per_epoch", closed.bytes_per_epoch, "bytes");
        layers.put("segment.compact.rounds", compact.rounds as f64, "count");
        layers.put("segment.compact.buckets", compact.buckets as f64, "count");
        layers.put(
            "segment.compact.merged_epochs",
            compact.merged_epochs as f64,
            "count",
        );
        layers.put("segment.compact.errors", compact.errors as f64, "count");
        let lookups = info.cache.hits + info.cache.misses + info.cache.bypasses;
        let hit_ratio = info.cache.hits as f64 / (lookups as f64).max(1.0);
        layers.put("serve.cache.hit_ratio", hit_ratio, "ratio");
        layers.put("serve.cache.hits", info.cache.hits as f64, "count");
        layers.put("serve.cache.lookups", lookups as f64, "count");
        layers.put("serve.cold_errors", info.cold_errors as f64, "count");
        let answer_kb = rig.client.answer_bytes.mean() / 1024.0;
        layers.put("wire.answer_kb_mean", answer_kb, "KiB");
        layers.put("gen.late_ms_p99", late.pct(0.99), "ms");
        layers.put("gen.late_ms_max", late.max(), "ms");
        let overhead = match w.load {
            // The share of the headline rate that tracing costs.
            Load::Ingest | Load::Query => {
                let (on, off) = slicer.rates();
                (off - on) / off.max(1e-12)
            }
            // The share tracing adds to the median query latency.
            Load::Mixed { .. } => {
                let (on, off) = (queried.by_slice[1].pct(0.5), queried.by_slice[0].pct(0.5));
                (on - off) / off.max(1e-12)
            }
        };
        layers.put("trace.overhead", overhead, "ratio");
        let threads = [
            ("producer", &rig.plog),
            ("client", &rig.client.log),
            ("server", server),
        ];
        let recorded: usize = threads.iter().map(|(_, log)| log.spans().len()).sum();
        let dropped: u64 = threads.iter().map(|(_, log)| log.dropped()).sum();
        layers.put("trace.spans", recorded as f64, "count");
        layers.put("trace.dropped", dropped as f64, "count");
        spans = trace::csv(&threads);
    }

    // Every seal was an operation too; a failed one aborts the run.
    let seals = rig.pipe.seals;
    drop(rig.pipe);
    std::fs::remove_dir_all(&rig.dir)
        .map_err(|e| format!("removing {}: {e}", rig.dir.display()))?;
    Ok(Outcome {
        attempted: closed.tally.attempted + seals,
        failed: closed.tally.failed,
        first_failure: closed.tally.first,
        end_to_end: e2e,
        per_layer: layers,
        summary,
        spans,
    })
}
