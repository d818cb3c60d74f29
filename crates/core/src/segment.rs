//! The durable epoch tier: streaming CEP1 segment files and the
//! manifest-backed [`EpochDir`].
//!
//! `measure --window` used to be an in-memory demo: every sealed epoch
//! lived in the [`EpochStore`](crate::EpochStore) until the run ended,
//! and `evict_to` silently dropped history. This module turns the
//! epoch lifecycle into a small storage engine: the moment the
//! collector merges a window, the sealed epoch is streamed to disk as
//! one immutable **segment file** — the [`crate::epoch::encode`] bytes,
//! verbatim, so [`crate::epoch::decode`] stays the single total parser
//! — and a text **manifest** checkpoints the segment list in id order.
//! RAM holds the last N epochs; the directory holds everything.
//!
//! # On-disk layout
//!
//! ```text
//! DIR/
//!   MANIFEST                     text checkpoint, atomically replaced
//!   epoch-00000000.cep           epoch::encode(epoch 0)
//!   epoch-00000001.cep           epoch::encode(epoch 1)
//!   bucket-00000002-00000005.cep epoch::encode(merge of epochs 2..=5)
//!   epoch-00000006.cep           appended since the last checkpoint
//!   epoch-00000003.cep.torn      quarantined by torn-tail recovery
//! ```
//!
//! The manifest is one magic line (`CDM2`) followed by one line per
//! segment, in id order:
//!
//! ```text
//! CDM2
//! seg <first> <last> <byte len> <XXH64 checksum, seed 0, 16 hex digits>
//! ```
//!
//! `CDM1`, the same lines with FNV-1a sums, is refused with a typed
//! error rather than read: its sums cannot be checked by [`sum64`].
//!
//! Whenever the manifest is written it lists every segment. Between
//! writes, single-epoch segments appended since the last one sit
//! unlisted after its last entry: the dense run that reopen adopts.
//!
//! # Durability protocol
//!
//! Every file — segment or manifest — is written to `<name>.tmp`,
//! `fsync`ed, and atomically renamed into place (then the directory is
//! fsynced, best-effort). A single-epoch segment is **committed by its
//! own rename**: [`EpochDir::append`] writes no manifest, so a seal
//! costs one durable write. The manifest is a checkpoint, written by:
//!
//! - [`EpochDir::append`], once [`MANIFEST_LAG`] segments are unlisted;
//! - every compaction commit, which must stop naming the merged inputs;
//! - reopen, when recovery adopted, quarantined or dropped anything;
//! - [`EpochDir::checkpoint`], the clean close: the background
//!   [`Compactor`]'s final sweep and `measure` when sealing ends.
//!
//! A crash therefore leaves exactly one of:
//!
//! - a `*.tmp` leftover (deleted on reopen: the rename never happened,
//!   nothing ever named it);
//! - fully-written segments the manifest does not list yet (adopted on
//!   reopen while they carry the next dense id and decode cleanly — at
//!   most [`MANIFEST_LAG`] of them);
//! - a listed segment whose bytes are short or corrupt — **the torn
//!   tail** — which reopen quarantines (renames to `<name>.torn`)
//!   along with every later entry, so the served prefix is exactly the
//!   fully-durable epochs and a reopened directory never panics.
//!
//! Compaction commits the same way: the bucket segment is renamed into
//! place, the manifest is atomically replaced to name it, and only
//! then are the merged inputs deleted — a crash in between leaves
//! input files that the next reopen recognizes as covered by the
//! manifest and garbage-collects.
//!
//! The writer's in-memory list is always current. A reader in the
//! writer's process copies it as the writer publishes it after each
//! change ([`SharedEpochDir::reader`]); a reader in another process
//! ([`DirReader::new`]) reads the manifest, so it lags a live writer
//! by up to [`MANIFEST_LAG`] epochs and sees everything once the
//! writer closes.
//!
//! # Compaction
//!
//! [`EpochDir::compact`] merges runs of `bucket` adjacent single-epoch
//! segments older than the newest `keep_recent` ids into one coarser
//! time bucket via the table-merge machinery ([`FlowTable::merged`]):
//! per-key `u64` sums, canonical sorted rows, packets/weight summed
//! with overflow checked, and **exact weight conservation asserted**.
//! [`spawn_compactor`] runs the same sweep on a background thread,
//! event-driven (nudged per seal over a channel — no clocks, so the
//! data plane stays deterministic).
//!
//! Each bucket is made in three steps, the split LevelDB uses for its
//! own compactions:
//!
//! 1. **plan** — pick the first aligned run of `bucket` single-epoch
//!    segments at or below the horizon and copy their metas;
//! 2. **build** — read and validate the members, merge them, and write
//!    the bucket file (temp, fsync, rename);
//! 3. **commit** — check the members are still listed contiguously,
//!    splice the bucket in, replace the manifest, and only then delete
//!    the inputs.
//!
//! Build touches no directory state: segments are immutable and
//! appends only extend the tail past the horizon. So
//! [`SharedEpochDir::compact`] holds the directory lock for plan and
//! commit alone, and the seal path's `append`/`covers` never wait on a
//! merge. [`EpochDir::compact`] runs the same three helpers inline,
//! with the same filesystem op order.

use crate::epoch::{self, Epoch, SpillSink};
use crate::query::FlowTable;
use crate::vfs::{StdFs, Vfs, VfsFile as _};
use hashkit::{invariant, FastMap};
use std::io;
use std::ops::DerefMut;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Manifest file name inside an epoch directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// First line of a manifest (the format magic). `CDM2` sums are
/// [`sum64`] (XXH64); the older `CDM1`, whose sums were FNV-1a, is
/// refused by [`decode_manifest`].
pub const MANIFEST_MAGIC: &str = "CDM2";

/// The superseded magic: the same line format with FNV-1a sums.
const MANIFEST_MAGIC_FNV: &str = "CDM1";

/// Suffix given to quarantined (torn or undecodable) segment files.
pub const TORN_SUFFIX: &str = ".torn";

/// The most single-epoch segments the manifest leaves unlisted:
/// [`EpochDir::append`] rewrites it once this many are. The bound caps
/// two costs. After a crash, reopen adopts at most this many segments,
/// reading and decoding each in full. A reader in another process,
/// which sees only what the manifest lists, lags a live writer by at
/// most this many epochs. Against those, a larger bound spreads the
/// manifest rewrite — a whole-list encode plus a second write, fsync,
/// rename and directory fsync, growing with the directory's history —
/// over more appends: at 64 it adds under 2% to the segment write an
/// append already pays, while reopen decodes no more than 64 segments.
pub const MANIFEST_LAG: usize = 64;

/// XXH64 (seed 0) of `data` — the manifest's integrity check for
/// segment bytes. Four 64-bit lanes consume 32-byte stripes of
/// little-endian words, so the multiply chains run side by side
/// instead of one dependent multiply per byte; the tail and the final
/// avalanche follow the published algorithm, so any XXH64
/// implementation reproduces these sums. A `CDM2` manifest records
/// them; a `CDM1` manifest, whose sums were FNV-1a, is refused. Not
/// cryptographic; it catches torn writes and bit rot, which is the
/// threat model for a local spill directory.
pub fn sum64(data: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, word: u64| {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    // `chunks_exact(8)` hands over exactly 8 bytes, so the copy's
    // length check folds away.
    let word = |bytes: &[u8]| {
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        u64::from_le_bytes(le)
    };
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() < 32 {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(bytes));
            }
        }
        let [v1, v2, v3, v4] = lanes;
        let mut hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for lane in lanes {
            hash = (hash ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        hash
    };
    hash = hash.wrapping_add(data.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for bytes in &mut words {
        hash = (hash ^ round(0, word(bytes)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut halves = words.remainder().chunks_exact(4);
    for bytes in &mut halves {
        let half = bytes
            .iter()
            .rev()
            .fold(0, |acc, &b| (acc << 8) | u64::from(b));
        hash = (hash ^ half.wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &byte in halves.remainder() {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// One manifest entry: an immutable segment file holding epochs
/// `first..=last` (`first == last` for a streamed epoch, a wider range
/// for a compacted bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Id of the first epoch the segment holds (and the id recorded in
    /// its CEP1 envelope).
    pub first: u64,
    /// Id of the last epoch the segment holds.
    pub last: u64,
    /// Exact byte length of the segment file.
    pub bytes: u64,
    /// [`sum64`] (XXH64, seed 0) of the segment file's bytes — the
    /// `CDM2` manifest's sum column (`CDM1`'s FNV-1a sums are refused).
    pub sum: u64,
}

impl SegmentMeta {
    /// True when the segment is a compacted bucket (covers > 1 epoch).
    pub fn is_bucket(&self) -> bool {
        self.first != self.last
    }

    /// True when `id` falls inside the segment's epoch range.
    pub fn covers(&self, id: u64) -> bool {
        self.first <= id && id <= self.last
    }

    /// The segment's file name, derived from its id range.
    pub fn file_name(&self) -> String {
        if self.is_bucket() {
            format!("bucket-{:08}-{:08}.cep", self.first, self.last)
        } else {
            format!("epoch-{:08}.cep", self.first)
        }
    }
}

fn data_err(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Decode a manifest read off disk. Returns `Err` (never panics) on
/// non-UTF-8 bytes, a bad magic line (a `CDM1` manifest gets an error
/// that names it: its FNV-1a sums are no longer read), malformed
/// entries, or entries that are not contiguous ascending id ranges —
/// the manifest is untrusted input exactly like a wire frame, so
/// nothing here sizes an allocation from a parsed count (entries
/// accumulate line by line).
pub fn decode_manifest(data: &[u8]) -> io::Result<Vec<SegmentMeta>> {
    let text =
        std::str::from_utf8(data).map_err(|_| data_err("manifest is not UTF-8".to_string()))?;
    let mut lines = text.lines();
    match lines.next().map(str::trim) {
        Some(MANIFEST_MAGIC) => {}
        Some(MANIFEST_MAGIC_FNV) => {
            return Err(data_err(format!(
                "manifest is {MANIFEST_MAGIC_FNV}, whose FNV-1a segment sums are no longer \
                 read; this build reads {MANIFEST_MAGIC} (XXH64 sums), so re-measure into an \
                 empty directory"
            )))
        }
        _ => return Err(data_err("bad manifest magic".to_string())),
    }
    let mut out: Vec<SegmentMeta> = Vec::new();
    for (lineno, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_ascii_whitespace();
        let (Some("seg"), Some(first), Some(last), Some(bytes), Some(sum), None) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            return Err(data_err(format!("malformed manifest line {}", lineno + 2)));
        };
        let parse = |s: &str| -> io::Result<u64> {
            s.parse()
                .map_err(|_| data_err(format!("bad number on manifest line {}", lineno + 2)))
        };
        let meta = SegmentMeta {
            first: parse(first)?,
            last: parse(last)?,
            bytes: parse(bytes)?,
            sum: u64::from_str_radix(sum, 16)
                .map_err(|_| data_err(format!("bad checksum on manifest line {}", lineno + 2)))?,
        };
        if meta.last < meta.first {
            return Err(data_err(format!(
                "inverted range on manifest line {}",
                lineno + 2
            )));
        }
        if let Some(prev) = out.last() {
            if Some(meta.first) != prev.last.checked_add(1) {
                return Err(data_err(format!(
                    "non-contiguous ids on manifest line {}",
                    lineno + 2
                )));
            }
        }
        out.push(meta);
    }
    Ok(out)
}

/// Encode a manifest (inverse of [`decode_manifest`]): each line is
/// `seg {first} {last} {bytes} {sum:016x}`, with the digits written
/// straight into one buffer. Compaction commits encode while holding
/// the directory lock that `append` needs, so no line allocates.
fn encode_manifest(segments: &[SegmentMeta]) -> Vec<u8> {
    // "seg " + three u64s of at most 20 digits + 16 hex + 3 spaces + '\n'.
    let mut out = Vec::with_capacity(MANIFEST_MAGIC.len() + 1 + segments.len() * 84);
    out.extend_from_slice(MANIFEST_MAGIC.as_bytes());
    out.push(b'\n');
    for meta in segments {
        out.extend_from_slice(b"seg ");
        push_decimal(&mut out, meta.first);
        out.push(b' ');
        push_decimal(&mut out, meta.last);
        out.push(b' ');
        push_decimal(&mut out, meta.bytes);
        out.push(b' ');
        for shift in (0..16).rev() {
            out.push(b"0123456789abcdef"[(meta.sum >> (shift * 4)) as usize & 0xf]);
        }
        out.push(b'\n');
    }
    out
}

/// Append `n` in decimal, without leading zeros.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let start = out.len();
    loop {
        out.push(b'0' + (n % 10) as u8);
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if let Some(digits) = out.get_mut(start..) {
        digits.reverse();
    }
}

/// Parse a segment-shaped file name back to its id range.
fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_suffix(".cep")?;
    if let Some(id) = stem.strip_prefix("epoch-") {
        let id: u64 = id.parse().ok()?;
        Some((id, id))
    } else if let Some(range) = stem.strip_prefix("bucket-") {
        let (first, last) = range.split_once('-')?;
        Some((first.parse().ok()?, last.parse().ok()?))
    } else {
        None
    }
}

/// What [`EpochDir::open`] found and repaired, for logs and tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OpenReport {
    /// Segments served after recovery.
    pub segments: usize,
    /// Files quarantined (renamed to `*.torn`): the torn tail and
    /// anything after it, plus undecodable adoption candidates.
    pub quarantined: Vec<PathBuf>,
    /// Fully-written segments the manifest did not list yet (appended
    /// since the last checkpoint, with no clean close), re-adopted.
    pub adopted: usize,
    /// Leftover files whose ids the manifest already covers (committed
    /// compaction inputs), garbage-collected.
    pub removed_orphans: usize,
    /// `*.tmp` leftovers of interrupted writes, deleted.
    pub removed_temps: usize,
}

/// A manifest-backed directory of immutable CEP1 segments: the durable
/// tier behind [`EpochStore`](crate::EpochStore).
///
/// Invariants (restored by [`open`](Self::open), preserved by
/// [`append`](Self::append)/[`compact`](Self::compact)):
///
/// - segments cover a contiguous ascending id range with no overlap;
/// - every segment in the in-memory list is fully durable (written,
///   fsynced, renamed) and its envelope decodes with
///   [`crate::epoch::decode`];
/// - the manifest lists the segments as of its last write; those
///   appended since are single epochs, at most [`MANIFEST_LAG`] of
///   them;
/// - the manifest plus the dense run of single-epoch files after it
///   is the source of truth: any other `*.cep` file is either
///   garbage-collected (ids already covered) or quarantined — never
///   silently served.
#[derive(Debug)]
pub struct EpochDir<V: Vfs = StdFs> {
    fs: V,
    root: PathBuf,
    segments: Vec<SegmentMeta>,
    /// Segments appended since the manifest was last written.
    unlisted: usize,
    /// Changes to `segments` since open, so that the copies a
    /// [`SharedEpochDir`] hands its readers never go back in time.
    generation: u64,
    /// Set while a [`SharedEpochDir::compact`] sweep builds buckets
    /// outside the lock, so at most one sweep runs at a time.
    sweeping: bool,
}

impl EpochDir {
    /// Open (or create) an epoch directory on the real filesystem;
    /// see [`open_on`](Self::open_on) for the recovery it runs.
    pub fn open(root: impl AsRef<Path>) -> io::Result<(Self, OpenReport)> {
        Self::open_on(StdFs, root)
    }
}

impl<V: Vfs> EpochDir<V> {
    /// Open (or create) an epoch directory on `fs`, running torn-tail
    /// recovery: delete `*.tmp` leftovers, validate the manifest's
    /// entries in id order (existence and exact length for all,
    /// checksum + full decode for the tail), quarantine the first
    /// invalid entry and everything after it, adopt fully-written
    /// unlisted segments that continue the dense sequence, and
    /// garbage-collect files whose ids the manifest already covers.
    pub fn open_on(fs: V, root: impl AsRef<Path>) -> io::Result<(Self, OpenReport)> {
        let root = root.as_ref().to_path_buf();
        fs.create_dir_all(&root)?;
        let mut report = OpenReport::default();

        // One directory listing: name -> byte length.
        let mut present: FastMap<String, u64> = FastMap::default();
        for (name, len) in fs.list_dir(&root)? {
            if name.ends_with(".tmp") {
                fs.remove_file(&root.join(&name))?;
                report.removed_temps += 1;
                continue;
            }
            present.insert(name, len);
        }

        let listed: Vec<SegmentMeta> = match present.remove(MANIFEST_NAME) {
            Some(_) => decode_manifest(&fs.read(&root.join(MANIFEST_NAME))?)?,
            None => Vec::new(),
        };

        // Validate the listed prefix; quarantine from the first bad
        // entry on. Only the tail pays a full read: every listed
        // segment was fsynced before its rename and renamed before a
        // manifest named it, so the length check still catches
        // truncation in the rest.
        let mut segments: Vec<SegmentMeta> = Vec::new();
        let mut quarantining = false;
        for (idx, meta) in listed.iter().enumerate() {
            if !quarantining {
                let length_ok = present.get(&meta.file_name()) == Some(&meta.bytes);
                let tail = idx + 1 == listed.len();
                let valid = length_ok && (!tail || read_segment(&fs, &root, meta).is_ok());
                if valid {
                    segments.push(*meta);
                    present.remove(&meta.file_name());
                    continue;
                }
                quarantining = true;
            }
            if present.remove(&meta.file_name()).is_some() {
                report
                    .quarantined
                    .push(quarantine(&fs, &root, &meta.file_name())?);
            }
        }

        // Adopt fully-written segments the manifest does not list yet:
        // the dense run of single epochs appended since its last
        // write, each committed by its own rename.
        loop {
            let next = match segments.last() {
                Some(meta) => match meta.last.checked_add(1) {
                    Some(next) => next,
                    None => break,
                },
                // An empty directory adopts the smallest epoch file.
                None => match present
                    .keys()
                    .filter_map(|n| parse_segment_name(n))
                    .filter(|&(first, last)| first == last)
                    .map(|(first, _)| first)
                    .min()
                {
                    Some(first) => first,
                    None => break,
                },
            };
            let name = SegmentMeta {
                first: next,
                last: next,
                bytes: 0,
                sum: 0,
            }
            .file_name();
            let Some(bytes) = present.remove(&name) else {
                break;
            };
            let data = fs.read(&root.join(&name))?;
            let candidate = SegmentMeta {
                first: next,
                last: next,
                bytes,
                sum: sum64(&data),
            };
            match epoch::decode(&data) {
                Ok(decoded) if decoded.id == next => {
                    segments.push(candidate);
                    report.adopted += 1;
                }
                _ => {
                    report.quarantined.push(quarantine(&fs, &root, &name)?);
                    break;
                }
            }
        }

        // Whatever segment-shaped files remain are either committed
        // compaction inputs (ids already covered: delete) or
        // unexplained (gap or overlap the manifest cannot serve:
        // quarantine). Files that don't parse as segments are left
        // alone — they are not ours.
        let covered = |first: u64, last: u64| {
            segments
                .first()
                .zip(segments.last())
                .is_some_and(|(lo, hi)| lo.first <= first && last <= hi.last)
        };
        let leftovers: Vec<String> = present.keys().cloned().collect();
        for name in leftovers {
            let Some((first, last)) = parse_segment_name(&name) else {
                continue;
            };
            if covered(first, last) {
                fs.remove_file(&root.join(&name))?;
                report.removed_orphans += 1;
            } else {
                report.quarantined.push(quarantine(&fs, &root, &name)?);
            }
        }

        let mut dir = EpochDir {
            fs,
            root,
            segments,
            unlisted: 0,
            generation: 0,
            sweeping: false,
        };
        if dir.segments != listed {
            dir.write_manifest()?;
        }
        report.segments = dir.segments.len();
        Ok((dir, report))
    }

    /// The directory this store writes into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The manifest entries, in id order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// `(first, last)` epoch ids on disk, if any.
    pub fn ids(&self) -> Option<(u64, u64)> {
        self.segments
            .first()
            .zip(self.segments.last())
            .map(|(lo, hi)| (lo.first, hi.last))
    }

    /// The id [`append`](Self::append) expects next (0 for an empty
    /// directory).
    pub fn next_id(&self) -> u64 {
        self.segments
            .last()
            .and_then(|meta| meta.last.checked_add(1))
            .unwrap_or(0)
    }

    /// Number of segment files (buckets count once).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no segment is stored.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// True when epoch `id` is stored as its own (un-compacted)
    /// segment — the granularity [`read_epoch`](Self::read_epoch) can serve.
    pub fn contains(&self, id: u64) -> bool {
        self.segments
            .iter()
            .any(|meta| !meta.is_bucket() && meta.first == id)
    }

    /// True when epoch `id`'s weight is durable — as its own segment
    /// or merged into a bucket.
    pub fn covers(&self, id: u64) -> bool {
        self.ids().is_some_and(|(lo, hi)| lo <= id && id <= hi)
    }

    /// Stream one sealed epoch to disk: encode, write-to-temp, fsync,
    /// atomic rename, directory fsync. The rename commits the segment:
    /// once `append` returns, reopen serves the epoch, adopting it if
    /// the manifest does not list it yet. The manifest is rewritten
    /// only when [`MANIFEST_LAG`] segments are unlisted, so a typical
    /// append is one durable write. Re-offering
    /// an id the directory already covers is a verified no-op (`Ok`):
    /// re-spill after a partial failure must be idempotent, so the
    /// offered epoch's bytes are checked against the stored segment's
    /// length and checksum and a mismatch is `Err` — a *different*
    /// epoch wearing a stored id means the caller is appending a new
    /// run into a stale directory, and silently dropping it would mix
    /// two runs' histories. Ids the directory only holds inside a
    /// compacted bucket cannot be verified (their per-epoch bytes are
    /// gone) and are `Err` for the same reason. An id that would leave
    /// a gap is `Err` — the dense sequence is the adjacency relation,
    /// exactly as in [`EpochStore`](crate::EpochStore).
    pub fn append(&mut self, epoch: &Epoch) -> io::Result<()> {
        if let Some(meta) = self.segments.iter().find(|m| m.covers(epoch.id)) {
            if meta.is_bucket() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "epoch {} was compacted into bucket {}..={}; cannot verify a \
                         re-offered epoch against it (appending into a stale directory?)",
                        epoch.id, meta.first, meta.last
                    ),
                ));
            }
            let data = epoch::encode(epoch);
            if data.len() as u64 == meta.bytes && sum64(&data) == meta.sum {
                return Ok(());
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "epoch {} is already stored with different contents; refusing to mix \
                     runs (is this a stale directory from an earlier run?)",
                    epoch.id
                ),
            ));
        }
        let next = self.next_id();
        if !self.segments.is_empty() && epoch.id != next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "appending epoch {} but the directory expects {next}",
                    epoch.id
                ),
            ));
        }
        let data = epoch::encode(epoch);
        let meta = SegmentMeta {
            first: epoch.id,
            last: epoch.id,
            bytes: data.len() as u64,
            sum: sum64(&data),
        };
        write_file_atomic(&self.fs, &self.root, &meta.file_name(), &data)?;
        self.segments.push(meta);
        self.generation += 1;
        self.unlisted += 1;
        if self.unlisted >= MANIFEST_LAG {
            self.write_manifest()?;
        }
        Ok(())
    }

    /// The clean close: list every segment in the manifest, if any is
    /// unlisted. A directory closed this way reopens with nothing to
    /// adopt, and a reader in another process sees every epoch.
    /// Dropping the directory without it is a crash as far as the disk
    /// knows — safe, since reopen adopts the unlisted tail.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        if self.unlisted == 0 {
            return Ok(());
        }
        self.write_manifest()
    }

    /// Read and validate (length, checksum, full decode, id match) the
    /// segment holding exactly epoch `id`. `Ok(None)` when the id is
    /// absent or only available inside a compacted bucket. (Named
    /// `read_epoch`, not `get`: it hits the disk, and the unique name
    /// keeps it out of cocolint's approximate hot-path callgraph for
    /// the ubiquitous map-`get` method.)
    pub fn read_epoch(&self, id: u64) -> io::Result<Option<Epoch>> {
        match self
            .segments
            .iter()
            .find(|meta| !meta.is_bucket() && meta.first == id)
        {
            Some(meta) => read_segment(&self.fs, &self.root, meta).map(Some),
            None => Ok(None),
        }
    }

    /// Iterate every segment in id order, decoding each on demand.
    pub fn scan(&self) -> impl Iterator<Item = io::Result<Epoch>> + '_ {
        self.segments
            .iter()
            .map(move |meta| read_segment(&self.fs, &self.root, meta))
    }

    /// Decode the segments overlapping `first..=last`, in id order.
    /// Buckets partially inside the range are included whole (their
    /// per-epoch resolution is gone by construction).
    pub fn range(&self, first: u64, last: u64) -> io::Result<Vec<Epoch>> {
        self.segments
            .iter()
            .filter(|meta| meta.first <= last && meta.last >= first)
            .map(|meta| read_segment(&self.fs, &self.root, meta))
            .collect()
    }

    /// Merge runs of `policy.bucket` adjacent single-epoch segments
    /// (never touching the newest `policy.keep_recent` ids) into
    /// coarser buckets. Each bucket commits atomically — bucket file,
    /// then manifest, then input deletion — and conservation is
    /// asserted: the merged tables' totals equal the inputs' exactly.
    pub fn compact(&mut self, policy: &CompactionPolicy) -> io::Result<CompactReport> {
        let mut report = CompactReport::default();
        while let Some(members) = self.plan_bucket(policy) {
            let bucket = build_bucket(&self.fs, &self.root, &members)?;
            commit_bucket(&mut *self, &members, bucket, drop)?;
            report.buckets += 1;
            report.merged_epochs += members.len();
        }
        Ok(report)
    }

    /// The plan step: the metas of the first run of `policy.bucket`
    /// single-epoch segments at or below the horizon (the newest id
    /// minus `policy.keep_recent`), or `None` when no run is due.
    fn plan_bucket(&self, policy: &CompactionPolicy) -> Option<Vec<SegmentMeta>> {
        if policy.bucket < 2 {
            return None;
        }
        let horizon = self.ids()?.1.checked_sub(policy.keep_recent)?;
        let start = self.bucket_run(policy.bucket, horizon)?;
        self.segments
            .get(start..start + policy.bucket)
            .map(<[SegmentMeta]>::to_vec)
    }

    /// Index of the first run of `bucket` consecutive single-epoch
    /// segments whose ids all sit at or below `horizon`.
    fn bucket_run(&self, bucket: usize, horizon: u64) -> Option<usize> {
        let mut run = 0usize;
        for (idx, meta) in self.segments.iter().enumerate() {
            if meta.is_bucket() || meta.last > horizon {
                run = 0;
                continue;
            }
            run += 1;
            if run == bucket {
                return Some(idx + 1 - bucket);
            }
        }
        None
    }

    /// A copy of the segment list for readers, tagged with its
    /// generation.
    fn listing(&self) -> Listing {
        Listing {
            generation: self.generation,
            segments: self.segments.clone(),
        }
    }

    /// Atomically replace the manifest with the whole segment list.
    fn write_manifest(&mut self) -> io::Result<()> {
        write_file_atomic(
            &self.fs,
            &self.root,
            MANIFEST_NAME,
            &encode_manifest(&self.segments),
        )?;
        self.unlisted = 0;
        Ok(())
    }
}

/// Rename `name` to `name.torn` inside `root`, returning the new path.
fn quarantine<V: Vfs>(fs: &V, root: &Path, name: &str) -> io::Result<PathBuf> {
    let to = root.join(format!("{name}{TORN_SUFFIX}"));
    fs.rename(&root.join(name), &to)?;
    Ok(to)
}

/// Write `data` as `root/name` via temp file + fsync + atomic rename
/// (+ best-effort directory fsync, so the rename itself is durable).
fn write_file_atomic<V: Vfs>(fs: &V, root: &Path, name: &str, data: &[u8]) -> io::Result<()> {
    let tmp = root.join(format!("{name}.tmp"));
    let mut file = fs.create(&tmp)?;
    file.write_all(data)?;
    file.sync_all()?;
    drop(file);
    fs.rename(&tmp, &root.join(name))?;
    // Directory fsync makes the rename durable on Linux; elsewhere
    // (and on filesystems that refuse fsync on a directory handle)
    // this is best-effort: only the rename's durability, never its
    // atomicity, is at stake, and reopen adopts a segment whose
    // directory entry was lost.
    let _ = fs.sync_dir(root); // LINT: lossy(dir fsync is best-effort; reopen adopts a lost rename)
    Ok(())
}

/// Read a segment file and validate everything the manifest promises:
/// exact length, checksum, a clean [`crate::epoch::decode`], and the
/// envelope id matching the manifest's `first`.
fn read_segment<V: Vfs>(fs: &V, root: &Path, meta: &SegmentMeta) -> io::Result<Epoch> {
    let path = root.join(meta.file_name());
    let data = fs.read(&path)?;
    if data.len() as u64 != meta.bytes {
        return Err(data_err(format!(
            "{}: {} bytes on disk, manifest says {}",
            path.display(),
            data.len(),
            meta.bytes
        )));
    }
    if sum64(&data) != meta.sum {
        return Err(data_err(format!("{}: checksum mismatch", path.display())));
    }
    let decoded = epoch::decode(&data)?;
    if decoded.id != meta.first {
        return Err(data_err(format!(
            "{}: envelope id {} does not match manifest id {}",
            path.display(),
            decoded.id,
            meta.first
        )));
    }
    Ok(decoded)
}

/// The build step: read and validate the `members` planned by
/// [`EpochDir::plan_bucket`], merge them ([`merge_epochs`] asserts
/// conservation), and write the bucket file (temp, fsync, rename).
/// It reads no directory state, so [`SharedEpochDir::compact`] runs it
/// without the lock. The returned meta is not listed anywhere until
/// [`commit_bucket`] splices it in; a crash before then leaves a file
/// whose ids the manifest covers, which reopen garbage-collects.
fn build_bucket<V: Vfs>(fs: &V, root: &Path, members: &[SegmentMeta]) -> io::Result<SegmentMeta> {
    let inputs: Vec<Epoch> = members
        .iter()
        .map(|meta| read_segment(fs, root, meta))
        .collect::<io::Result<_>>()?;
    let merged = merge_epochs(&inputs)?;
    let data = epoch::encode(&merged);
    let meta = SegmentMeta {
        first: merged.id,
        last: members
            .last()
            .map(|m| m.last)
            .unwrap_or_else(|| invariant::violated("bucket run is non-empty")),
        bytes: data.len() as u64,
        sum: sum64(&data),
    };
    write_file_atomic(fs, root, &meta.file_name(), &data)?;
    Ok(meta)
}

/// The commit step: check that `members` are still listed
/// contiguously, splice `bucket` in their place, and replace the
/// manifest. Then `dir` goes to `release` — which drops it, releasing
/// the lock when it is [`SharedEpochDir`]'s guard, and hands readers
/// the new list — before the inputs are deleted: the manifest and the
/// readers' list no longer name them, so deletion is pure GC (a crash
/// mid-way leaves orphans that the next open removes the same way).
fn commit_bucket<V: Vfs, D: DerefMut<Target = EpochDir<V>>>(
    mut dir: D,
    members: &[SegmentMeta],
    bucket: SegmentMeta,
    release: impl FnOnce(D),
) -> io::Result<()> {
    let start = dir
        .segments
        .iter()
        .position(|meta| members.first() == Some(meta))
        .filter(|&start| dir.segments.get(start..start + members.len()) == Some(members))
        .ok_or_else(|| {
            data_err(format!(
                "bucket {}..={}: its members are no longer listed contiguously",
                bucket.first, bucket.last
            ))
        })?;
    dir.segments
        .splice(start..start + members.len(), std::iter::once(bucket));
    dir.generation += 1;
    dir.write_manifest()?;
    let (fs, root) = (dir.fs.clone(), dir.root.clone());
    release(dir);
    for member in members {
        fs.remove_file(&root.join(member.file_name()))?;
    }
    Ok(())
}

/// Compaction policy: which epochs may merge, and how many per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Epochs merged per bucket (values < 2 disable compaction).
    pub bucket: usize,
    /// The newest `keep_recent` ids are never compacted, so recent
    /// history keeps per-epoch query resolution while old history
    /// trades it for fewer, coarser segments.
    pub keep_recent: u64,
}

/// What one [`EpochDir::compact`] sweep merged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactReport {
    /// Buckets written.
    pub buckets: usize,
    /// Single-epoch segments merged away.
    pub merged_epochs: usize,
}

/// Merge a dense ascending run of epochs into one bucket epoch: id of
/// the first, packets/weight summed (overflow-checked), and each table
/// index merged by per-key `u64` addition into canonical sorted rows.
/// Conservation is asserted exactly: every merged table's total equals
/// the sum of its inputs' totals.
pub fn merge_epochs(epochs: &[Epoch]) -> io::Result<Epoch> {
    let Some(first) = epochs.first() else {
        return Err(data_err("cannot merge zero epochs".to_string()));
    };
    for (a, b) in epochs.iter().zip(epochs.iter().skip(1)) {
        if Some(b.id) != a.id.checked_add(1) {
            return Err(data_err(format!(
                "bucket run must be dense: epoch {} follows {}",
                b.id, a.id
            )));
        }
    }
    let n_tables = first.tables.len();
    if epochs.iter().any(|e| e.tables.len() != n_tables) {
        return Err(data_err(
            "epochs in a bucket run must seal the same table set".to_string(),
        ));
    }
    let mut packets = 0u64;
    let mut weight = 0u64;
    for e in epochs {
        packets = packets
            .checked_add(e.packets)
            .ok_or_else(|| data_err("bucket packet total overflows u64".to_string()))?;
        weight = weight
            .checked_add(e.weight)
            .ok_or_else(|| data_err("bucket weight total overflows u64".to_string()))?;
    }
    let mut tables = Vec::with_capacity(n_tables);
    for index in 0..n_tables {
        let parts: Vec<&FlowTable> = epochs.iter().filter_map(|e| e.tables.get(index)).collect();
        let mut want = 0u64;
        for part in &parts {
            want = want
                .checked_add(part.total())
                .ok_or_else(|| data_err("bucket table total overflows u64".to_string()))?;
        }
        let merged = FlowTable::merged(&parts).ok_or_else(|| {
            data_err(format!(
                "table {index} changes spec across the run (or a per-key sum overflows)"
            ))
        })?;
        // Exact conservation: per-key u64 sums neither create nor lose
        // weight, so the merged total must equal the inputs' total.
        assert_eq!(
            merged.total(),
            want,
            "compaction must conserve table weight exactly"
        );
        tables.push(merged);
    }
    Ok(Epoch {
        id: first.id,
        packets,
        weight,
        tables,
    })
}

/// A cloneable, thread-safe handle to one [`EpochDir`]: the seal path
/// appends while a background [`Compactor`] merges, both through the
/// same directory state.
///
/// # Which steps hold the lock
///
/// `append`, `checkpoint`, `ids` and the other accessors run under
/// the lock, as does each compaction bucket's *plan* (choose the
/// run) and *commit* (splice, manifest). A bucket's *build* — member
/// reads, merge, encode, the bucket file's write, fsync and rename —
/// and the deletion of its inputs run with no guard live, so sealing
/// never waits on a merge. A `sweeping` flag under the same lock keeps
/// builds to one at a time.
///
/// Readers ([`reader`](Self::reader)) and [`covers`](Self::covers)
/// never take this lock. Each change to the segment list — an append,
/// a compaction commit — copies the list under it and, once it is
/// released, copies it into a published list behind a second lock
/// that is held only to copy a list in or out. So neither a cold read
/// nor eviction's durability check waits out a segment's write and
/// fsync or a commit's manifest write, and the seal path waits on
/// them only while they copy the list or read its ends.
/// Copies carry the list's generation and an older one never replaces
/// a newer one, so two writers publishing out of order cannot roll
/// readers back. A compaction publishes before it deletes its inputs.
///
/// # Poisoning policy: recover, never abort, never propagate
///
/// The internal `lock` helper strips [`PoisonError`], so a peer that
/// panicked while holding the guard cannot deadlock or poison the
/// seal/spill path. Recovery (rather than abort) is sound because
/// every mutation runs disk-first: `append` and a compaction commit
/// write the segment file *before* listing it in the in-memory segment
/// list, and a bucket's inputs are deleted only after the manifest
/// stops naming them, so a panic leaves at most in-memory state the
/// next `write_manifest` or reopen's adoption/GC already handles
/// (verified schedule-by-schedule by `crashsim`). No listed segment
/// lacks its committed file, so no torn in-memory state can be
/// published to disk by the surviving side. A panic in a build holds
/// no guard at all; it clears the `sweeping` flag as it unwinds.
#[derive(Debug, Clone)]
pub struct SharedEpochDir<V: Vfs = StdFs> {
    inner: Arc<Mutex<EpochDir<V>>>,
    /// The newest published copy of the segment list, for readers.
    listing: Arc<Mutex<Listing>>,
}

/// A copy of an [`EpochDir`]'s segment list, as readers see it.
#[derive(Debug)]
struct Listing {
    /// The [`EpochDir`] generation the copy was taken at.
    generation: u64,
    segments: Vec<SegmentMeta>,
}

impl Listing {
    /// Take `newer`'s list unless this copy is at least as new. The
    /// list is copied into this one's buffer, and readers copy out of
    /// it, so no list is freed by a thread other than the one that
    /// made it.
    fn advance(&mut self, newer: &Listing) {
        if newer.generation > self.generation {
            self.generation = newer.generation;
            self.segments.clear();
            self.segments.extend_from_slice(&newer.segments);
        }
    }
}

impl SharedEpochDir {
    /// Open (or create) the directory; see [`EpochDir::open`].
    pub fn open(root: impl AsRef<Path>) -> io::Result<(Self, OpenReport)> {
        Self::open_on(StdFs, root)
    }
}

impl<V: Vfs> SharedEpochDir<V> {
    /// Open (or create) the directory on `fs`; see [`EpochDir::open_on`].
    pub fn open_on(fs: V, root: impl AsRef<Path>) -> io::Result<(Self, OpenReport)> {
        let (dir, report) = EpochDir::open_on(fs, root)?;
        Ok((
            SharedEpochDir {
                listing: Arc::new(Mutex::new(dir.listing())),
                inner: Arc::new(Mutex::new(dir)),
            },
            report,
        ))
    }

    fn lock(&self) -> MutexGuard<'_, EpochDir<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`EpochDir::append`] under the lock; the new list reaches
    /// readers once the lock is released.
    pub fn append(&self, epoch: &Epoch) -> io::Result<()> {
        let mut dir = self.lock();
        let appended = dir.append(epoch);
        let listing = dir.listing();
        drop(dir);
        self.listing
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .advance(&listing);
        appended
    }

    /// [`EpochDir::checkpoint`] under the lock.
    pub fn checkpoint(&self) -> io::Result<()> {
        self.lock().checkpoint()
    }

    /// [`EpochDir::read_epoch`] under the lock.
    pub fn read_epoch(&self, id: u64) -> io::Result<Option<Epoch>> {
        self.lock().read_epoch(id)
    }

    /// [`EpochDir::ids`] under the lock.
    pub fn ids(&self) -> Option<(u64, u64)> {
        self.lock().ids()
    }

    /// [`EpochDir::len`] under the lock.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// [`EpochDir::is_empty`] under the lock.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// [`EpochDir::covers`], answered from the published list without
    /// the directory lock, so eviction never waits out a compaction
    /// commit. The list holds every committed segment: an append
    /// publishes before it returns, and a compaction publishes before
    /// it deletes its inputs.
    pub fn covers(&self, id: u64) -> bool {
        let published = self.listing.lock().unwrap_or_else(PoisonError::into_inner);
        let segments = &published.segments;
        segments
            .first()
            .zip(segments.last())
            .is_some_and(|(lo, hi)| lo.first <= id && id <= hi.last)
    }

    /// [`EpochDir::compact`], holding the lock only to plan each
    /// bucket and to commit it: the build (reads, merge, bucket write)
    /// and the input deletion run unlocked, so `append` and `covers`
    /// proceed meanwhile. Returns an empty report at once when another
    /// sweep is already running. An `Err` or a panic mid-sweep keeps
    /// the buckets committed so far, lists nothing half-built, and
    /// releases the sweep, so a later call retries.
    pub fn compact(&self, policy: &CompactionPolicy) -> io::Result<CompactReport> {
        let (fs, root) = {
            let mut dir = self.lock();
            if dir.sweeping {
                return Ok(CompactReport::default());
            }
            dir.sweeping = true;
            (dir.fs.clone(), dir.root.clone())
        };
        let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut report = CompactReport::default();
            loop {
                let planned = self.lock().plan_bucket(policy);
                let Some(members) = planned else {
                    return Ok(report);
                };
                let bucket = build_bucket(&fs, &root, &members)?;
                commit_bucket(self.lock(), &members, bucket, |dir| {
                    let listing = dir.listing();
                    drop(dir);
                    self.listing
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .advance(&listing);
                })?;
                report.buckets += 1;
                report.merged_epochs += members.len();
            }
        }));
        self.lock().sweeping = false;
        swept.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    }

    /// A read-only handle to the same directory for readers in this
    /// process (the resident query service). Its segment list, sums
    /// included, is this writer's in-memory list as last published:
    /// it holds every appended epoch whether or not the manifest lists
    /// it yet. Readers never take the directory lock (see "Which steps
    /// hold the lock").
    pub fn reader(&self) -> DirReader<V> {
        let guard = self.lock();
        DirReader {
            fs: guard.fs.clone(),
            root: guard.root.clone(),
            listing: Some(Arc::clone(&self.listing)),
        }
    }
}

impl<V: Vfs> SpillSink for SharedEpochDir<V> {
    fn spill(&mut self, epoch: &Arc<Epoch>) -> io::Result<()> {
        self.append(epoch)
    }

    fn is_durable(&self, id: u64) -> bool {
        self.covers(id)
    }
}

/// A read-only view of an epoch directory. Every call fetches the
/// current segment list, so a long-lived reader observes appends and
/// compactions without holding a file handle. Made by
/// [`new`](DirReader::new) it reads the manifest, as a reader in
/// another process must, and so lags a live writer by up to
/// [`MANIFEST_LAG`] epochs; made by [`SharedEpochDir::reader`] it
/// copies the writer's published list. Reads validate like
/// [`EpochDir::read_epoch`] but never repair — recovery belongs to the
/// writer's [`EpochDir::open`].
#[derive(Debug, Clone)]
pub struct DirReader<V: Vfs = StdFs> {
    fs: V,
    root: PathBuf,
    /// The writer's published list that [`segments`](Self::segments)
    /// copies; `None` reads the manifest.
    listing: Option<Arc<Mutex<Listing>>>,
}

impl DirReader {
    /// A reader over `root` on the real filesystem, listing what the
    /// manifest lists. The directory may not exist yet; reads simply
    /// find no epochs until a writer creates it.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirReader {
            fs: StdFs,
            root: root.into(),
            listing: None,
        }
    }
}

impl<V: Vfs> DirReader<V> {
    /// The directory this reader observes.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The current segment list, in id order: the writer's, or the
    /// manifest's entries (empty when no manifest exists).
    pub fn segments(&self) -> io::Result<Vec<SegmentMeta>> {
        if let Some(listing) = &self.listing {
            let published = listing.lock().unwrap_or_else(PoisonError::into_inner);
            return Ok(published.segments.clone());
        }
        match self.fs.read(&self.root.join(MANIFEST_NAME)) {
            Ok(data) => decode_manifest(&data),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    /// `(first, last)` epoch ids currently on disk.
    pub fn ids(&self) -> io::Result<Option<(u64, u64)>> {
        let segments = self.segments()?;
        Ok(segments
            .first()
            .zip(segments.last())
            .map(|(lo, hi)| (lo.first, hi.last)))
    }

    /// Read and fully validate (length, checksum, decode, id match)
    /// the segment file behind one manifest entry — single epoch or
    /// compacted bucket. Metas come from [`segments`](Self::segments);
    /// reading all matching entries from one `segments()` call costs
    /// one list fetch instead of one per id.
    pub fn read_segment(&self, meta: &SegmentMeta) -> io::Result<Epoch> {
        read_segment(&self.fs, &self.root, meta)
    }

    /// The epoch stored exactly under `id` (compacted ids resolve to
    /// `None`, like [`EpochDir::read_epoch`]).
    pub fn read_epoch(&self, id: u64) -> io::Result<Option<Epoch>> {
        match self
            .segments()?
            .iter()
            .find(|meta| !meta.is_bucket() && meta.first == id)
        {
            Some(meta) => read_segment(&self.fs, &self.root, meta).map(Some),
            None => Ok(None),
        }
    }

    /// The newest segment's epoch (a bucket decodes as one merged
    /// epoch carrying its first id — the newest segments are epochs in
    /// practice, since compaction exempts recent ids). Uniquely named
    /// for the same callgraph reason as [`read_epoch`](Self::read_epoch).
    pub fn read_latest(&self) -> io::Result<Option<Epoch>> {
        match self.segments()?.last() {
            Some(meta) => read_segment(&self.fs, &self.root, meta).map(Some),
            None => Ok(None),
        }
    }
}

/// Totals from a [`Compactor`]'s lifetime of sweeps.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CompactTotals {
    /// Compaction sweeps run (nudges coalesce; the final sweep at
    /// shutdown counts too).
    pub rounds: usize,
    /// Buckets written across all sweeps.
    pub buckets: usize,
    /// Single-epoch segments merged away across all sweeps.
    pub merged_epochs: usize,
    /// Sweeps that failed with an I/O error.
    pub errors: usize,
    /// The most recent sweep error, if any.
    pub last_error: Option<String>,
}

/// Handle to a background compaction thread (see [`spawn_compactor`]).
#[derive(Debug)]
pub struct Compactor {
    nudges: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<CompactTotals>>,
}

/// Start a background thread that runs [`EpochDir::compact`] on `dir`
/// whenever [`nudge`](Compactor::nudge)d (queued nudges coalesce into
/// one sweep) and once more at shutdown. The final sweep is also the
/// directory's clean close: it [`checkpoint`](EpochDir::checkpoint)s,
/// so the manifest lists every segment. Event-driven by design: no
/// timers, so behaviour is a deterministic function of the nudge
/// sequence — the seal path nudges once per sealed epoch.
pub fn spawn_compactor<V: Vfs>(dir: SharedEpochDir<V>, policy: CompactionPolicy) -> Compactor {
    let (nudges, inbox) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        let mut totals = CompactTotals::default();
        let record = |totals: &mut CompactTotals, swept: io::Result<CompactReport>| {
            totals.rounds += 1;
            match swept {
                Ok(report) => {
                    totals.buckets += report.buckets;
                    totals.merged_epochs += report.merged_epochs;
                }
                Err(e) => {
                    totals.errors += 1;
                    totals.last_error = Some(e.to_string());
                }
            }
        };
        while inbox.recv().is_ok() {
            while inbox.try_recv().is_ok() {}
            record(&mut totals, dir.compact(&policy));
        }
        let last = dir.compact(&policy);
        let closed = dir.checkpoint();
        record(&mut totals, last.and_then(|report| closed.map(|()| report)));
        totals
    });
    Compactor {
        nudges: Some(nudges),
        handle: Some(handle),
    }
}

impl Compactor {
    /// Request a sweep (cheap, non-blocking; pending nudges coalesce).
    pub fn nudge(&self) {
        if let Some(nudges) = &self.nudges {
            let _ = nudges.send(());
        }
    }

    /// Stop the thread (after one final sweep, which leaves the
    /// manifest listing every segment) and return its totals.
    /// A sweep that panicked is re-raised here with its original
    /// payload.
    pub fn finish(mut self) -> CompactTotals {
        drop(self.nudges.take());
        match self.handle.take().map(std::thread::JoinHandle::join) {
            Some(Ok(totals)) => totals,
            Some(Err(payload)) => std::panic::resume_unwind(payload),
            None => CompactTotals::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{FiveTuple, KeySpec};

    fn table(n: u32, salt: u32) -> FlowTable {
        let full = KeySpec::FIVE_TUPLE;
        let rows = (0..n)
            .map(|i| {
                (
                    full.project(&FiveTuple::new((i + salt) % 61, i * 2, 80, 443, 6)),
                    u64::from(i) + 1,
                )
            })
            .collect();
        FlowTable::new(full, rows)
    }

    fn epoch(id: u64, rows: u32) -> Epoch {
        let t = table(rows, id as u32 * 17);
        let weight = t.total();
        Epoch {
            id,
            packets: u64::from(rows),
            weight,
            tables: vec![t],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cocosketch-segment-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sum64_is_xxh64_with_seed_zero() {
        // The published XXH64 test vectors, seed 0.
        assert_eq!(sum64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(sum64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(sum64(b"abc"), 0x44bc_2cf5_ad77_0999);
        // Lengths below, at and past one 32-byte stripe, through every
        // tail branch (8-byte words, a 4-byte half, single bytes), up
        // to a full-size e2e segment. The low 32 bits of XXH64 are
        // zstd's frame checksum, an independent reference:
        // `zstd -q --check -c FILE | tail -c 4 | od -An -tx4`.
        let pattern = |n: usize| (0..n).map(|i| (7 * i + 3) as u8).collect::<Vec<u8>>();
        for (len, low) in [
            (31, 0xcc4a_6119),
            (32, 0xf790_fd97),
            (33, 0xba58_8784),
            (63, 0x31c7_493c),
            (64, 0xf6ee_b01f),
            (100, 0x170f_e531),
            (643_000, 0x45d3_c049),
        ] {
            assert_eq!(sum64(&pattern(len)) as u32, low, "{len} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_segment_changes_its_sum() {
        let mut data = epoch::encode(&epoch(3, 40));
        let sum = sum64(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(sum64(&data), sum, "bit {bit} of {}", data.len());
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(sum64(&data), sum);
    }

    #[test]
    fn append_get_scan_roundtrip_bit_identical() {
        let root = tmp("roundtrip");
        let (mut dir, report) = EpochDir::open(&root).unwrap();
        assert_eq!(report, OpenReport::default());
        let epochs: Vec<Epoch> = (0..4).map(|id| epoch(id, 40 + id as u32)).collect();
        for e in &epochs {
            dir.append(e).unwrap();
        }
        assert_eq!(dir.ids(), Some((0, 3)));
        assert_eq!(dir.next_id(), 4);
        for e in &epochs {
            let back = dir.read_epoch(e.id).unwrap().unwrap();
            assert_eq!(epoch::encode(&back), epoch::encode(e), "epoch {}", e.id);
        }
        let scanned: Vec<Epoch> = dir.scan().collect::<io::Result<_>>().unwrap();
        assert_eq!(scanned, epochs);
        assert_eq!(dir.range(1, 2).unwrap(), epochs[1..3].to_vec());
        // Reopen serves the same bytes.
        drop(dir);
        let (dir, report) = EpochDir::open(&root).unwrap();
        assert_eq!(report.segments, 4);
        assert!(report.quarantined.is_empty());
        for e in &epochs {
            assert_eq!(dir.read_epoch(e.id).unwrap().unwrap(), *e);
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn append_is_idempotent_and_rejects_gaps() {
        let root = tmp("gaps");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        dir.append(&epoch(0, 5)).unwrap();
        dir.append(&epoch(0, 5)).unwrap(); // idempotent re-spill
        assert_eq!(dir.len(), 1);
        assert!(dir.append(&epoch(7, 5)).is_err(), "gap must be rejected");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn append_rejects_a_different_epoch_wearing_a_stored_id() {
        // A fresh run numbering from 0 into a stale directory must be
        // an error, not a silent no-op that serves the old run's data.
        let root = tmp("stale");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        dir.append(&epoch(0, 5)).unwrap();
        let mut imposter = epoch(0, 9); // same id, different contents
        let err = dir.append(&imposter).unwrap_err();
        assert!(
            err.to_string().contains("different contents"),
            "unexpected error: {err}"
        );
        assert_eq!(
            dir.read_epoch(0).unwrap().unwrap(),
            epoch(0, 5),
            "the stored segment is untouched"
        );
        // Same rows but different metadata is still a different epoch.
        imposter = epoch(0, 5);
        imposter.packets += 1;
        assert!(dir.append(&imposter).is_err());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn append_rejects_ids_held_only_inside_a_bucket() {
        let root = tmp("bucketed-append");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        for id in 0..4 {
            dir.append(&epoch(id, 10)).unwrap();
        }
        dir.compact(&CompactionPolicy {
            bucket: 2,
            keep_recent: 1,
        })
        .unwrap();
        assert!(!dir.contains(0) && dir.covers(0), "0 lives in a bucket");
        let err = dir.append(&epoch(0, 10)).unwrap_err();
        assert!(
            err.to_string().contains("compacted into bucket"),
            "unexpected error: {err}"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_roundtrip_and_rejection() {
        let metas = vec![
            SegmentMeta {
                first: 3,
                last: 3,
                bytes: 100,
                sum: 0xDEAD_BEEF,
            },
            SegmentMeta {
                first: 4,
                last: 7,
                bytes: 900,
                sum: 1,
            },
        ];
        let text = encode_manifest(&metas);
        assert_eq!(decode_manifest(&text).unwrap(), metas);
        // Each bad case carries the current magic and must fail on the
        // defect it names, not on its first line.
        let refused = |body: &str| {
            let text = format!("{MANIFEST_MAGIC}\n{body}");
            decode_manifest(text.as_bytes()).unwrap_err().to_string()
        };
        assert!(refused("seg 1 0 5 00\n").contains("inverted range"));
        assert!(refused("seg 0 0 5 00\nseg 2 2 5 00\n").contains("non-contiguous"));
        assert!(refused("seg 0 0 5\n").contains("malformed manifest line 2"));
        assert!(refused("seg 0 0 5 xyz\n").contains("bad checksum"));
        assert!(decode_manifest(b"nope\n").is_err());
        assert!(decode_manifest(&[0xFF, 0xFE]).is_err(), "not utf-8");
    }

    #[test]
    fn a_cdm1_manifest_is_refused_by_name() {
        // Well-formed lines under the superseded magic: their FNV-1a
        // sums cannot be checked by sum64, so the whole manifest is
        // refused with an error that says why.
        let err = decode_manifest(b"CDM1\nseg 0 0 64 0000000000000000\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("CDM1") && msg.contains("FNV-1a"), "{msg}");
        assert!(msg.contains("no longer read"), "{msg}");
        let lines = "seg 0 0 64 0000000000000000\n";
        assert!(decode_manifest(format!("{MANIFEST_MAGIC}\n{lines}").as_bytes()).is_ok());
    }

    #[test]
    fn manifest_encoding_matches_the_format_reference() {
        // The encoder writes digits by hand; its bytes must equal one
        // `format!("seg {} {} {} {:016x}\n")` line per segment.
        let edges = [
            0,
            1,
            9,
            10,
            99,
            100,
            12_345,
            0xDEAD_BEEF,
            u64::from(u32::MAX) + 1,
            u64::MAX / 3,
            u64::MAX - 1,
            u64::MAX,
        ];
        let metas: Vec<SegmentMeta> = (0..edges.len())
            .map(|i| SegmentMeta {
                first: edges[i],
                last: edges[(i + 1) % edges.len()],
                bytes: edges[(i + 5) % edges.len()],
                sum: edges[(i + 7) % edges.len()],
            })
            .collect();
        assert!(metas.iter().any(|m| m.sum == 0) && metas.iter().any(|m| m.sum == u64::MAX));
        let mut want = format!("{MANIFEST_MAGIC}\n");
        for m in &metas {
            want.push_str(&format!(
                "seg {} {} {} {:016x}\n",
                m.first, m.last, m.bytes, m.sum
            ));
        }
        assert_eq!(encode_manifest(&metas), want.into_bytes());
        assert_eq!(encode_manifest(&[]), b"CDM2\n");
    }

    #[test]
    fn manifest_lags_by_at_most_the_bound_and_a_clean_close_lists_every_segment() {
        let root = tmp("checkpoint");
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        let from_manifest = DirReader::new(&root);
        let from_writer = shared.reader();
        let lag = MANIFEST_LAG as u64;
        for id in 0..lag + 3 {
            shared.append(&epoch(id, 4)).unwrap();
            // The append that leaves MANIFEST_LAG segments unlisted
            // lists them all; the writer's own reader never lags.
            let listed = from_manifest.ids().unwrap();
            assert_eq!(listed, (id >= lag - 1).then_some((0, lag - 1)), "{id}");
            assert_eq!(from_writer.ids().unwrap(), Some((0, id)));
        }
        shared.checkpoint().unwrap();
        let segments = from_writer.segments().unwrap();
        assert_eq!(
            std::fs::read(root.join(MANIFEST_NAME)).unwrap(),
            encode_manifest(&segments)
        );
        assert_eq!(from_manifest.segments().unwrap(), segments);
        drop((shared, from_writer));
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: segments.len(),
                ..OpenReport::default()
            }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_dropped_dir_leaves_an_unlisted_tail_that_reopen_adopts_bit_identically() {
        let root = tmp("unlisted-tail");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let epochs: Vec<Epoch> = (0..5).map(|id| epoch(id, 30 + id as u32)).collect();
        for e in &epochs[..2] {
            dir.append(e).unwrap();
        }
        dir.checkpoint().unwrap();
        let listed = std::fs::read(root.join(MANIFEST_NAME)).unwrap();
        for e in &epochs[2..] {
            dir.append(e).unwrap();
        }
        drop(dir);
        assert_eq!(
            std::fs::read(root.join(MANIFEST_NAME)).unwrap(),
            listed,
            "appends below the bound write no manifest"
        );
        let (dir, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: 5,
                adopted: 3,
                ..OpenReport::default()
            }
        );
        for e in &epochs {
            let back = dir.read_epoch(e.id).unwrap().unwrap();
            assert_eq!(epoch::encode(&back), epoch::encode(e), "epoch {}", e.id);
        }
        drop(dir);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(report.adopted, 0, "adoption listed the tail: {report:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compaction_buckets_and_conserves() {
        let root = tmp("compact");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        let epochs: Vec<Epoch> = (0..7).map(|id| epoch(id, 30)).collect();
        for e in &epochs {
            dir.append(e).unwrap();
        }
        let before_weight: u64 = dir.scan().map(|e| e.unwrap().weight).sum();
        let report = dir
            .compact(&CompactionPolicy {
                bucket: 3,
                keep_recent: 1,
            })
            .unwrap();
        // ids 0..=5 are compactable (6 is the newest); two buckets.
        assert_eq!(report.buckets, 2);
        assert_eq!(report.merged_epochs, 6);
        assert_eq!(dir.ids(), Some((0, 6)));
        assert_eq!(dir.len(), 3);
        let after_weight: u64 = dir.scan().map(|e| e.unwrap().weight).sum();
        assert_eq!(after_weight, before_weight, "weight conserved exactly");
        assert!(!dir.contains(0), "compacted ids lose per-epoch resolution");
        assert!(dir.covers(0));
        assert!(dir.contains(6));
        // Reopen preserves the bucketed layout.
        drop(dir);
        let (dir, report) = EpochDir::open(&root).unwrap();
        assert_eq!(report.segments, 3);
        assert!(report.quarantined.is_empty());
        assert_eq!(dir.ids(), Some((0, 6)));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn shared_dir_and_compactor_run_concurrently() {
        let root = tmp("shared");
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        let compactor = spawn_compactor(
            shared.clone(),
            CompactionPolicy {
                bucket: 2,
                keep_recent: 1,
            },
        );
        for id in 0..9 {
            shared.append(&epoch(id, 20)).unwrap();
            compactor.nudge();
        }
        let totals = compactor.finish();
        assert_eq!(totals.errors, 0, "{:?}", totals.last_error);
        assert!(totals.rounds > 0);
        // Everything below the newest id eventually bucketed.
        let reader = shared.reader();
        assert_eq!(reader.ids().unwrap(), Some((0, 8)));
        let segments = shared.len();
        assert!(segments < 9, "compaction shrank {segments} < 9 segments");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn the_compactors_final_sweep_is_a_clean_close() {
        let root = tmp("compactor-close");
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        // Bucket 0 never compacts: only the final sweep lists anything.
        let never = CompactionPolicy {
            bucket: 0,
            keep_recent: 0,
        };
        let compactor = spawn_compactor(shared.clone(), never);
        for id in 0..3 {
            shared.append(&epoch(id, 10)).unwrap();
            compactor.nudge();
        }
        assert!(!root.join(MANIFEST_NAME).exists());
        let totals = compactor.finish();
        assert_eq!(totals.errors, 0, "{:?}", totals.last_error);
        assert_eq!(DirReader::new(&root).ids().unwrap(), Some((0, 2)));
        drop(shared);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: 3,
                ..OpenReport::default()
            }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_deadlocking_the_spill_path() {
        // A peer (in production: the Compactor thread) that panics
        // while holding the directory guard poisons the Mutex. The
        // seal/spill path must recover — `lock()` strips the poison —
        // and a background compactor spawned afterwards must still
        // sweep and shut down, not deadlock or propagate the panic.
        let root = tmp("poison");
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        shared.append(&epoch(0, 10)).unwrap();

        let peer = shared.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = peer.inner.lock().unwrap();
            panic!("compactor dies mid-sweep");
        })
        .join();
        assert!(panicked.is_err(), "the peer must actually panic");
        assert!(shared.inner.is_poisoned(), "the lock must be poisoned");

        // Seal path: append still works through the poisoned lock.
        for id in 1..5 {
            shared.append(&epoch(id, 10)).unwrap();
        }
        assert_eq!(shared.len(), 5);

        // Background compaction still runs and finishes cleanly.
        let compactor = spawn_compactor(
            shared.clone(),
            CompactionPolicy {
                bucket: 2,
                keep_recent: 1,
            },
        );
        compactor.nudge();
        let totals = compactor.finish();
        assert_eq!(totals.errors, 0, "{:?}", totals.last_error);
        assert!(shared.len() < 5, "compaction progressed despite poison");

        // And the directory reopens clean: disk state never ran ahead
        // of the in-memory list, so the panic left nothing torn.
        drop(shared);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert!(report.quarantined.is_empty(), "{report:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    type ReadHook = dyn Fn(&Path) -> io::Result<()> + Send + Sync;

    /// `StdFs` whose `read` first runs a test hook, which may park the
    /// reader, fail the read, or panic.
    #[derive(Clone)]
    struct HookFs {
        on_read: Arc<ReadHook>,
    }

    impl HookFs {
        fn new(on_read: impl Fn(&Path) -> io::Result<()> + Send + Sync + 'static) -> Self {
            HookFs {
                on_read: Arc::new(on_read),
            }
        }
    }

    impl std::fmt::Debug for HookFs {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("HookFs")
        }
    }

    impl Vfs for HookFs {
        type File = std::fs::File;

        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            StdFs.create_dir_all(dir)
        }

        fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
            StdFs.list_dir(dir)
        }

        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            (self.on_read)(path)?;
            StdFs.read(path)
        }

        fn create(&self, path: &Path) -> io::Result<std::fs::File> {
            StdFs.create(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            StdFs.rename(from, to)
        }

        fn remove_file(&self, path: &Path) -> io::Result<()> {
            StdFs.remove_file(path)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            StdFs.sync_dir(dir)
        }
    }

    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(30);

    const PAIRS: CompactionPolicy = CompactionPolicy {
        bucket: 2,
        keep_recent: 1,
    };

    #[test]
    fn seal_path_never_waits_on_a_bucket_build() {
        // The compactor parks inside a bucket build, blocked reading a
        // member segment. The seal path's append, covers and ids must
        // still return: a build holds no lock. They run on a helper
        // behind a watchdog, so a build that holds the directory lock
        // fails the test instead of hanging it.
        let root = tmp("parked-build");
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new(Some((parked_tx, release_rx)));
        let fs = HookFs::new(move |path| {
            if path.ends_with("epoch-00000001.cep") {
                let armed = gate.lock().unwrap().take();
                if let Some((parked, release)) = armed {
                    parked.send(()).unwrap();
                    let _ = release.recv();
                }
            }
            Ok(())
        });
        let (shared, _) = SharedEpochDir::open_on(fs, &root).unwrap();
        let epochs: Vec<Epoch> = (0..5).map(|id| epoch(id, 20 + id as u32)).collect();
        for e in &epochs[..4] {
            shared.append(e).unwrap();
        }
        let compactor = spawn_compactor(shared.clone(), PAIRS);
        compactor.nudge();
        parked_rx
            .recv_timeout(WATCHDOG)
            .expect("the sweep reads bucket 0..=1's members");

        let (done_tx, done_rx) = mpsc::channel();
        let seal = shared.clone();
        let newest = epochs[4].clone();
        std::thread::spawn(move || {
            seal.append(&newest).unwrap();
            let _ = done_tx.send((seal.covers(4), seal.ids()));
        });
        let (covered, ids) = done_rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("append waited on a parked bucket build"));
        assert!(covered);
        assert_eq!(ids, Some((0, 4)));

        release_tx.send(()).unwrap();
        let totals = compactor.finish();
        assert_eq!(totals.errors, 0, "{:?}", totals.last_error);
        assert_eq!((totals.buckets, totals.merged_epochs), (2, 4));

        let segments = shared.reader().segments().unwrap();
        let ranges: Vec<(u64, u64)> = segments.iter().map(|m| (m.first, m.last)).collect();
        assert_eq!(ranges, [(0, 1), (2, 3), (4, 4)], "ids stay dense");
        for meta in segments.iter().filter(|m| m.is_bucket()) {
            let members = &epochs[meta.first as usize..=meta.last as usize];
            assert_eq!(
                std::fs::read(root.join(meta.file_name())).unwrap(),
                epoch::encode(&merge_epochs(members).unwrap()),
                "bucket {}..={}",
                meta.first,
                meta.last
            );
        }
        drop(shared);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: 3,
                ..OpenReport::default()
            }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn readers_never_wait_on_the_directory_lock() {
        let root = tmp("reader-unlocked");
        let (shared, _) = SharedEpochDir::open(&root).unwrap();
        for id in 0..3 {
            shared.append(&epoch(id, 10)).unwrap();
        }
        let reader = shared.reader();
        let evictor = shared.clone();
        // Stand in for an append parked in its segment write, fsync
        // and rename, or a compaction commit in its manifest write:
        // hold the directory lock.
        let held = shared.inner.lock().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ids = reader.ids().unwrap();
            let read = reader.read_epoch(2).unwrap().map(|e| e.id);
            // What `EpochStore::evict_to` asks per evicted epoch.
            let durable = (evictor.covers(2), SpillSink::is_durable(&evictor, 3));
            let _ = done_tx.send((ids, read, durable));
        });
        let (ids, read, durable) = done_rx
            .recv_timeout(WATCHDOG)
            .unwrap_or_else(|_| panic!("a reader waited on the directory lock"));
        drop(held);
        assert_eq!((ids, read), (Some((0, 2)), Some(2)));
        assert_eq!(durable, (true, false));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_late_listing_never_replaces_a_newer_one() {
        let meta = |id| SegmentMeta {
            first: id,
            last: id,
            bytes: 1,
            sum: 0,
        };
        let mut published = Listing {
            generation: 2,
            segments: vec![meta(0), meta(1)],
        };
        published.advance(&Listing {
            generation: 1,
            segments: vec![meta(0)],
        });
        assert_eq!((published.generation, published.segments.len()), (2, 2));
        published.advance(&Listing {
            generation: 3,
            segments: vec![meta(0), meta(1), meta(2)],
        });
        assert_eq!((published.generation, published.segments.len()), (3, 3));
    }

    #[test]
    fn compactor_panic_is_reraised_with_its_payload() {
        let root = tmp("panic-payload");
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let trigger = Arc::clone(&armed);
        let fs = HookFs::new(move |path| {
            if trigger.swap(false, std::sync::atomic::Ordering::Relaxed) {
                panic!("injected read fault at {}", path.display());
            }
            Ok(())
        });
        let (shared, _) = SharedEpochDir::open_on(fs, &root).unwrap();
        for id in 0..3 {
            shared.append(&epoch(id, 10)).unwrap();
        }
        let compactor = spawn_compactor(shared.clone(), PAIRS);
        compactor.nudge();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| compactor.finish()))
            .expect_err("the sweep panicked");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.starts_with("injected read fault at"),
            "payload lost: {message:?}"
        );
        assert!(!armed.load(std::sync::atomic::Ordering::Relaxed));
        // The build held no guard, so nothing is poisoned, and the
        // unwinding sweep gave up its claim: the next sweep runs.
        assert!(!shared.inner.is_poisoned());
        let report = shared.compact(&PAIRS).unwrap();
        assert_eq!((report.buckets, report.merged_epochs), (1, 2));
        drop(shared);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: 2,
                ..OpenReport::default()
            }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_sweep_is_retried_on_the_next_nudge() {
        let root = tmp("retry");
        let (failed_tx, failed_rx) = mpsc::channel::<()>();
        let once = Mutex::new(Some(failed_tx));
        let fs = HookFs::new(move |_| {
            let armed = once.lock().unwrap().take();
            match armed {
                Some(failed) => {
                    let _ = failed.send(());
                    Err(io::Error::other("injected read error"))
                }
                None => Ok(()),
            }
        });
        let (shared, _) = SharedEpochDir::open_on(fs, &root).unwrap();
        for id in 0..5 {
            shared.append(&epoch(id, 10)).unwrap();
        }
        let compactor = spawn_compactor(shared.clone(), PAIRS);
        compactor.nudge();
        failed_rx
            .recv_timeout(WATCHDOG)
            .expect("the first sweep reads a member");
        // Queued behind the failing sweep, so it starts a fresh one.
        compactor.nudge();
        let deadline = std::time::Instant::now() + WATCHDOG;
        while shared.len() == 5 {
            assert!(
                std::time::Instant::now() < deadline,
                "the nudge after a failed sweep did not retry it"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let totals = compactor.finish();
        assert_eq!(totals.errors, 1);
        assert_eq!(totals.last_error.as_deref(), Some("injected read error"));
        assert_eq!((totals.buckets, totals.merged_epochs), (2, 4));
        drop(shared);
        let (_, report) = EpochDir::open(&root).unwrap();
        assert_eq!(
            report,
            OpenReport {
                segments: 3,
                ..OpenReport::default()
            }
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn commit_rejects_members_no_longer_listed() {
        let root = tmp("commit-check");
        let (mut dir, _) = EpochDir::open(&root).unwrap();
        for id in 0..3 {
            dir.append(&epoch(id, 10)).unwrap();
        }
        let members = dir.plan_bucket(&PAIRS).unwrap();
        let bucket = build_bucket(&dir.fs, &dir.root, &members).unwrap();
        dir.segments.remove(1);
        let err = commit_bucket(&mut dir, &members, bucket, drop).unwrap_err();
        assert!(
            err.to_string().contains("no longer listed contiguously"),
            "{err}"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn merge_epochs_validates_runs() {
        assert!(merge_epochs(&[]).is_err());
        assert!(merge_epochs(&[epoch(0, 5), epoch(2, 5)]).is_err(), "gap");
        let merged = merge_epochs(&[epoch(3, 10), epoch(4, 12)]).unwrap();
        assert_eq!(merged.id, 3);
        assert_eq!(merged.packets, 22);
        assert_eq!(merged.weight, epoch(3, 10).weight + epoch(4, 12).weight);
        assert_eq!(merged.primary().total(), merged.weight);
    }
}
