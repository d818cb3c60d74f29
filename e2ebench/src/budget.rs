//! Per-layer metrics and the stage budget, computed from the span logs
//! after the run.
//!
//! A stage's numbers come from the spans recorded in the timed phase;
//! a layer that phase never calls (the seal path of `query_hot`, the
//! wire on the ingest workloads) is reported from the set-up and
//! final-gate spans instead, so every metric has a measured value.

use crate::report::{Metrics, Samples};
use crate::trace::{covered, Kind, Span, Stage};
use std::collections::HashMap;
use std::fmt::Write as _;

pub struct Logs<'a> {
    pub producer: &'a [Span],
    pub client: &'a [Span],
    pub server: &'a [Span],
    /// `[start, end]` of the timed phase, in clock nanoseconds.
    pub timed: (u64, u64),
    /// Recorded wall time of the timed phase.
    pub on_wall_ns: u64,
    /// The client, not the producer, drives the timed phase.
    pub client_drives: bool,
}

/// Seal-path stages in the order a seal runs them.
const SEAL_STAGES: [(Stage, &str); 7] = [
    (Stage::Rotate, "rotate"),
    (Stage::Collect, "collect"),
    (Stage::ToEpoch, "to_epoch"),
    (Stage::Append, "append"),
    (Stage::Nudge, "nudge"),
    (Stage::Publish, "publish"),
    (Stage::Evict, "evict"),
];

impl Logs<'_> {
    fn in_timed(&self, s: &Span) -> bool {
        self.timed.0 <= s.start && s.end <= self.timed.1
    }

    /// Spans `want` selects in the timed phase, or everywhere if the
    /// timed phase has none.
    fn pick<'s>(&self, spans: &'s [Span], want: impl Fn(&Span) -> bool) -> Vec<&'s Span> {
        let timed: Vec<&Span> = spans
            .iter()
            .filter(|s| want(s) && self.in_timed(s))
            .collect();
        if timed.is_empty() {
            spans.iter().filter(|s| want(s)).collect()
        } else {
            timed
        }
    }

    fn us(&self, spans: &[Span], stage: Stage) -> Samples {
        let mut out = Samples::default();
        for s in self.pick(spans, |s| s.stage == stage) {
            out.push(s.dur() as f64 / 1e3);
        }
        out
    }

    /// Producer time in `stage` during the recorded timed phase.
    fn stage_ns(&self, stage: Stage) -> u64 {
        self.producer
            .iter()
            .filter(|s| s.stage == stage && self.in_timed(s))
            .map(Span::dur)
            .sum()
    }

    /// Share of the recorded timed wall spent in producer `stage`.
    fn share(&self, stage: Stage) -> f64 {
        self.stage_ns(stage) as f64 / (self.on_wall_ns as f64).max(1.0)
    }

    /// Root spans of the driving thread over its recorded timed wall.
    fn coverage(&self) -> f64 {
        let driving = if self.client_drives {
            self.client
        } else {
            self.producer
        };
        let ns: u64 = driving
            .iter()
            .filter(|s| s.is_root() && self.in_timed(s))
            .map(Span::dur)
            .sum();
        ns as f64 / (self.on_wall_ns as f64).max(1.0)
    }
}

/// One wire round trip broken into its parts (microseconds).
struct QueryParts {
    kind: Kind,
    rtt: f64,
    frame_io: f64,
    residual: f64,
}

/// Join each client `Query` span with the server spans that carry its
/// sequence number. The residual is the round trip minus the union of
/// every working span on both sides; the client's `read_frame` only
/// waits for the server, so it counts as residual, not coverage.
fn query_parts(logs: &Logs<'_>) -> Vec<QueryParts> {
    let mut server: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in logs.server {
        server.entry(s.tag).or_default().push(s);
    }
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in logs.client.iter().filter(|s| !s.is_root()) {
        children.entry(s.parent).or_default().push(s);
    }
    let is_query = |s: &Span| matches!(s.stage, Stage::Query(_));
    let any_timed = logs.client.iter().any(|s| is_query(s) && logs.in_timed(s));
    let mut out = Vec::new();
    for (idx, q) in logs.client.iter().enumerate() {
        let Stage::Query(kind) = q.stage else {
            continue;
        };
        if any_timed && !logs.in_timed(q) {
            continue;
        }
        let mine = children.get(&(idx as u32)).map_or(&[][..], Vec::as_slice);
        let theirs = server.get(&q.tag).map_or(&[][..], Vec::as_slice);
        let mut working: Vec<(u64, u64)> = mine
            .iter()
            .chain(theirs)
            .filter(|s| s.stage != Stage::CliRead)
            .map(|s| (s.start, s.end))
            .collect();
        let busy = covered((q.start, q.end), &mut working);
        let frame_io: u64 = mine
            .iter()
            .chain(theirs)
            .filter(|s| matches!(s.stage, Stage::CliWrite | Stage::SrvWrite))
            .map(|s| s.dur())
            .sum();
        out.push(QueryParts {
            kind,
            rtt: q.dur() as f64 / 1e3,
            frame_io: frame_io as f64 / 1e3,
            residual: (q.dur() - busy) as f64 / 1e3,
        });
    }
    out
}

/// Server `Respond` times split by the kind of query they answered.
fn respond_by_kind(logs: &Logs<'_>) -> HashMap<&'static str, Samples> {
    let kinds: HashMap<u64, Kind> = logs
        .client
        .iter()
        .filter_map(|s| match s.stage {
            Stage::Query(kind) => Some((s.tag, kind)),
            _ => None,
        })
        .collect();
    let timed: Vec<&Span> = logs.pick(logs.server, |s| s.stage == Stage::Respond);
    let mut out: HashMap<&'static str, Samples> = HashMap::new();
    for s in timed {
        let name = match kinds.get(&s.tag) {
            Some(Kind::Cold) => "respond_cold",
            Some(Kind::Window) => "respond_window",
            _ => "respond",
        };
        out.entry(name).or_default().push(s.dur() as f64 / 1e3);
    }
    out
}

/// Every span-derived per-layer metric, plus the human-readable budget.
pub fn per_layer(logs: &Logs<'_>, metrics: &mut Metrics) -> String {
    let p = logs.producer;
    let pushes = logs.pick(p, |s| s.stage == Stage::Push);
    let push_ns: u64 = pushes.iter().map(|s| s.dur()).sum();
    let push_pkts: u64 = pushes.iter().map(|s| s.tag).sum();
    metrics.put(
        "engine.push.ns_per_pkt",
        push_ns as f64 / (push_pkts as f64).max(1.0),
        "ns",
    );
    metrics.put("engine.push.share", logs.share(Stage::Push), "ratio");
    let rotate = logs.us(p, Stage::Rotate);
    metrics.put("engine.rotate.us_p50", rotate.pct(0.5), "us");
    metrics.put("engine.rotate.us_p99", rotate.pct(0.99), "us");
    let collect = logs.us(p, Stage::Collect);
    metrics.put("engine.collect.us_p50", collect.pct(0.5), "us");
    metrics.put("engine.collect.us_p99", collect.pct(0.99), "us");
    metrics.put(
        "epoch.to_epoch.us_p50",
        logs.us(p, Stage::ToEpoch).pct(0.5),
        "us",
    );
    let append = logs.us(p, Stage::Append);
    metrics.put("segment.append.us_p50", append.pct(0.5), "us");
    metrics.put("segment.append.us_p99", append.pct(0.99), "us");
    metrics.put("segment.append.share", logs.share(Stage::Append), "ratio");
    let evict = logs.us(p, Stage::Evict);
    metrics.put("store.evict.us_p50", evict.pct(0.5), "us");
    metrics.put("store.evict.us_p99", evict.pct(0.99), "us");
    metrics.put("store.evict.share", logs.share(Stage::Evict), "ratio");
    metrics.put(
        "serve.publish.us_p50",
        logs.us(p, Stage::Publish).pct(0.5),
        "us",
    );

    let respond = respond_by_kind(logs);
    let get = |k: &str| respond.get(k).cloned().unwrap_or_default();
    metrics.put("serve.respond.us_p50", get("respond").pct(0.5), "us");
    metrics.put("serve.respond.us_p99", get("respond").pct(0.99), "us");
    metrics.put(
        "serve.respond_cold.us_p50",
        get("respond_cold").pct(0.5),
        "us",
    );
    metrics.put(
        "serve.respond_cold.us_p99",
        get("respond_cold").pct(0.99),
        "us",
    );
    metrics.put(
        "serve.respond_window.us_p50",
        get("respond_window").pct(0.5),
        "us",
    );
    metrics.put(
        "wire.encode.us_p50",
        logs.us(logs.server, Stage::SrvEncode).pct(0.5),
        "us",
    );
    metrics.put(
        "wire.decode.us_p50",
        logs.us(logs.client, Stage::CliDecode).pct(0.5),
        "us",
    );
    let parts = query_parts(logs);
    let mut frame_io = Samples::default();
    let mut residual = Samples::default();
    let mut rtt = Samples::default();
    for q in &parts {
        frame_io.push(q.frame_io);
        residual.push(q.residual);
        rtt.push(q.rtt);
    }
    metrics.put("wire.frame_io.us_p50", frame_io.pct(0.5), "us");
    metrics.put("wire.residual.us_p50", residual.pct(0.5), "us");
    let coverage = logs.coverage();
    metrics.put("trace.coverage", coverage, "ratio");

    let mut text = String::new();
    let on_ms = logs.on_wall_ns as f64 / 1e6;
    let driving = if logs.client_drives {
        "client"
    } else {
        "producer"
    };
    let _ = writeln!(
        text,
        "stage budget: {on_ms:.1} ms of recorded timed {driving} wall clock"
    );
    let row = |text: &mut String, name: &str, ns: u64| {
        let _ = writeln!(
            text,
            "  {name:<12} {:>10.1} ms  {:>6.2}% of {on_ms:.1} ms",
            ns as f64 / 1e6,
            100.0 * ns as f64 / (logs.on_wall_ns as f64).max(1.0)
        );
    };
    if !logs.client_drives {
        for (stage, name) in [(Stage::Pace, "pace"), (Stage::Push, "push")] {
            row(&mut text, name, logs.stage_ns(stage));
        }
        let seal = logs.stage_ns(Stage::Seal);
        row(&mut text, "seal", seal);
        let mut inner = 0;
        for (stage, name) in SEAL_STAGES {
            let ns = logs.stage_ns(stage);
            inner += ns;
            row(&mut text, &format!("  {name}"), ns);
        }
        row(&mut text, "  (seal self)", seal.saturating_sub(inner));
    } else {
        let ns: u64 = logs
            .client
            .iter()
            .filter(|s| s.is_root() && logs.in_timed(s))
            .map(Span::dur)
            .sum();
        row(&mut text, "queries", ns);
    }
    let _ = writeln!(
        text,
        "  coverage {coverage:.4}; unaccounted {:.1} ms ({:.2}%)",
        (1.0 - coverage).max(0.0) * on_ms,
        100.0 * (1.0 - coverage)
    );
    if !parts.is_empty() {
        let mean_rtt = rtt.mean().max(1e-9);
        let _ = writeln!(
            text,
            "query budget: {} round trips, rtt {} us",
            rtt.len(),
            rtt.describe()
        );
        let stage_mean = |spans: &[Span], stage: Stage| -> f64 { logs.us(spans, stage).mean() };
        for (name, us) in [
            ("cli encode", stage_mean(logs.client, Stage::CliEncode)),
            ("cli write", stage_mean(logs.client, Stage::CliWrite)),
            ("srv decode", stage_mean(logs.server, Stage::SrvDecode)),
            ("respond", stage_mean(logs.server, Stage::Respond)),
            ("srv encode", stage_mean(logs.server, Stage::SrvEncode)),
            ("srv write", stage_mean(logs.server, Stage::SrvWrite)),
            ("cli decode", stage_mean(logs.client, Stage::CliDecode)),
            ("residual", residual.mean()),
        ] {
            let _ = writeln!(
                text,
                "  {name:<12} {us:>10.1} us mean  {:>6.2}% of mean rtt {mean_rtt:.1} us",
                100.0 * us / mean_rtt
            );
        }
        for (kind, name) in [(Kind::Cold, "cold"), (Kind::Window, "window")] {
            let n = parts.iter().filter(|q| q.kind == kind).count();
            if n > 0 {
                let _ = writeln!(text, "  ({n} {name} queries)");
            }
        }
    }
    text
}
