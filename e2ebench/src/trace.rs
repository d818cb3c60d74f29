//! Span recorder and per-layer budget.
//!
//! The benchmark records a span around each public call it makes into a
//! layer: name ([`Stage`]), start, end, parent, and a tag (the epoch id
//! on the seal path, the request sequence number on the query path, the
//! packet count of a push). Every thread owns a preallocated
//! [`SpanLog`]; nothing is written out until the run ends.
//!
//! Recording is switched by one shared flag. A traced run alternates
//! recorded and unrecorded slices of its timed phase, so the same
//! process measures its headline metric both ways and reports the
//! difference as `trace.overhead`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a query asks for, as the client classifies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A partial-key query on an epoch the catalog still holds.
    Warm,
    /// A partial-key query on an evicted epoch, backfilled from disk.
    Cold,
    /// A window query summing several epochs.
    Window,
}

/// The layer boundary a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `EngineSession::push_batch` (tag: packets).
    Push,
    /// Open-loop pacing sleep of the producer.
    Pace,
    /// Sealing one window: the parent of the six seal-path spans below.
    Seal,
    /// `EngineSession::rotate`.
    Rotate,
    /// `EngineSession::collect` (waits for the worker, then merges).
    Collect,
    /// `EpochRun::to_epoch`.
    ToEpoch,
    /// `SharedEpochDir::append`.
    Append,
    /// `Compactor::nudge`.
    Nudge,
    /// `Publisher::publish`.
    Publish,
    /// `EpochStore::evict_to`.
    Evict,
    /// One wire round trip on the client: the parent of the client and
    /// server spans with the same tag.
    Query(Kind),
    /// Client `Request::encode`.
    CliEncode,
    /// Client `write_frame`.
    CliWrite,
    /// Client `read_frame` (overlaps the server's work).
    CliRead,
    /// Client `Response::decode`.
    CliDecode,
    /// Server `Request::decode`.
    SrvDecode,
    /// Server `wire::respond` (catalog pin, projection, sort).
    Respond,
    /// Server `Response::encode` (CEP1 encode of the answer).
    SrvEncode,
    /// Server `write_frame`.
    SrvWrite,
}

const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's [`Clock`]
/// origin, shared by every thread.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub stage: Stage,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same log, or `u32::MAX`.
    pub parent: u32,
    pub tag: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    pub fn is_root(&self) -> bool {
        self.parent == NONE
    }
}

/// The run's time origin and recording switch, shared by all logs.
#[derive(Clone, Debug)]
pub struct Clock {
    origin: Instant,
    on: Arc<AtomicBool>,
}

impl Clock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            on: Arc::new(AtomicBool::new(false)),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Turn recording on or off for every log of this clock. The flag
    /// publishes no other data, so `Relaxed` suffices.
    pub fn record(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn recording(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn log(&self, capacity: usize) -> SpanLog {
        SpanLog {
            clock: self.clone(),
            spans: Vec::with_capacity(capacity),
            open: NONE,
            dropped: 0,
        }
    }
}

/// An open span; hand it back to [`SpanLog::end`].
#[must_use]
pub struct Open(u32);

/// One thread's preallocated span log.
pub struct SpanLog {
    clock: Clock,
    spans: Vec<Span>,
    open: u32,
    dropped: u64,
}

impl SpanLog {
    /// Open a span under the innermost open one. Costs one flag load
    /// when recording is off.
    pub fn begin(&mut self, stage: Stage, tag: u64) -> Open {
        if !self.clock.recording() {
            return Open(NONE);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(NONE);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            stage,
            start: self.clock.now_ns(),
            end: 0,
            parent: self.open,
            tag,
        });
        self.open = idx;
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        let Some(span) = self.spans.get_mut(open.0 as usize) else {
            return;
        };
        span.end = self.clock.now_ns();
        self.open = span.parent;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, stage: Stage, tag: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(stage, tag);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Alternates recorded and unrecorded slices of a timed phase and
/// counts the headline operations completed in each, so one traced
/// process measures its own tracing overhead. An untraced run keeps
/// recording off and only keeps the clock.
pub struct Slicer {
    clock: Clock,
    traced: bool,
    slice: Duration,
    flip_at: Instant,
    since: Instant,
    /// `[off, on]` wall nanoseconds and operations.
    pub wall_ns: [u64; 2],
    pub ops: [u64; 2],
}

impl Slicer {
    /// Start the timed phase now; a traced run starts recording.
    pub fn start(clock: &Clock, traced: bool, run: Duration) -> Self {
        // At least two slices of each kind even on very short runs.
        let slice = Duration::from_millis(500).min(run / 4);
        let now = Instant::now();
        clock.record(traced);
        Self {
            clock: clock.clone(),
            traced,
            slice,
            flip_at: now + slice,
            since: now,
            wall_ns: [0; 2],
            ops: [0; 2],
        }
    }

    pub fn on(&self) -> bool {
        self.traced && self.clock.recording()
    }

    /// Count `n` headline operations in the current slice, and flip the
    /// recording switch when the slice is over. Call between top-level
    /// operations only, so no span straddles a flip.
    pub fn tick(&mut self, now: Instant, n: u64) {
        let state = usize::from(self.on());
        self.ops[state] += n;
        if self.traced && now >= self.flip_at {
            self.wall_ns[state] += now.saturating_duration_since(self.since).as_nanos() as u64;
            self.since = now;
            self.flip_at = now + self.slice;
            self.clock.record(state == 0);
        }
    }

    /// Close the timed phase and stop recording.
    pub fn stop(&mut self, now: Instant) {
        let state = usize::from(self.on());
        self.wall_ns[state] += now.saturating_duration_since(self.since).as_nanos() as u64;
        self.clock.record(false);
    }

    /// Headline rate in recorded and unrecorded slices:
    /// `(on, off)` operations per second.
    pub fn rates(&self) -> (f64, f64) {
        let rate = |s: usize| self.ops[s] as f64 / (self.wall_ns[s] as f64 / 1e9).max(1e-9);
        (rate(1), rate(0))
    }
}

/// Length of the union of `children`, clipped to `within`.
pub fn covered(within: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (lo, hi) = within;
    let mut total = 0u64;
    let mut cursor = lo;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Every recorded span as CSV, one row per span.
pub fn csv(threads: &[(&str, &SpanLog)]) -> String {
    let mut csv = String::from("thread,index,stage,start_ns,end_ns,parent,tag\n");
    for (thread, log) in threads {
        for (i, s) in log.spans().iter().enumerate() {
            let parent = if s.is_root() { -1 } else { i64::from(s.parent) };
            let _ = writeln!(
                csv,
                "{thread},{i},{:?},{},{},{parent},{}",
                s.stage, s.start, s.end, s.tag
            );
        }
    }
    csv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_children_is_clipped_and_not_double_counted() {
        let mut kids = [(5, 15), (10, 20), (30, 40), (38, 60)];
        assert_eq!(covered((0, 50), &mut kids), 15 + 20);
        assert_eq!(covered((0, 3), &mut []), 0);
    }

    #[test]
    fn spans_nest_and_recording_switch_is_honoured() {
        let clock = Clock::new();
        let mut log = clock.log(4);
        let skipped = log.begin(Stage::Seal, 0);
        log.end(skipped);
        assert!(log.spans().is_empty(), "recording starts off");
        clock.record(true);
        let seal = log.begin(Stage::Seal, 7);
        log.span(Stage::Rotate, 7, || ());
        log.end(seal);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].is_root());
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        for _ in 0..3 {
            log.span(Stage::Push, 1, || ());
        }
        assert_eq!(log.dropped(), 1, "a full log drops instead of growing");
    }
}
