//! Exhaustive crash-consistency model checking for the durable epoch
//! tier — the storage-ordering analogue of the loom shim.
//!
//! The loom shim proves the ring and catalog hand-off protocols by
//! enumerating every bounded thread interleaving and running the real
//! code under each one. `crashsim` does the same for the segment
//! store's *write ordering*: [`SimFs`] is an in-memory implementation
//! of [`cocosketch::vfs::Vfs`] that applies every operation normally
//! **and** records it in an op trace; [`enumerate`] then replays that
//! trace with a crash injected at every point the kernel could have
//! lost state, and re-runs the real [`EpochDir::open`] recovery on
//! each simulated post-crash filesystem.
//!
//! # Crash model
//!
//! For every prefix of the op trace (the crash happens after op `k`):
//!
//! - **Metadata ops** (`create`, `rename`, `unlink`) in the prefix all
//!   survive, in order — the journal model: metadata hits the log
//!   before the crash or it is not in the prefix.
//! - **Data writes** survive only if an `fsync` of the same inode
//!   appears later in the prefix. Un-fsynced writes are each
//!   independently kept or dropped (every subset is enumerated): the
//!   page cache flushes pages in any order it likes.
//! - The **final un-fsynced write** is additionally *torn* at block
//!   granularity — every `block`-aligned truncation of it is a
//!   schedule (length 0 = dropped, full length = kept, so tearing
//!   subsumes the keep/drop choice for that write).
//!
//! Dropped writes that precede kept ones leave zero-filled holes,
//! exactly as a sparse file would. Directories always survive.
//!
//! # The invariant checked at every schedule
//!
//! Recovery must succeed, and afterwards: every epoch whose `append`
//! returned before the crash is still covered; every recovered segment
//! is **bit-identical** to the epoch the caller offered (or, for a
//! compacted bucket, to the deterministic [`merge_epochs`] of its
//! members — which makes per-key sum conservation a byte equality);
//! quarantined files are renamed, never deleted; and a second open
//! finds nothing left to repair. Any violation is reported, not
//! panicked, so tests can also assert that a *seeded fault* (e.g.
//! [`SimFs::set_skip_fsync`], the runtime equivalent of deleting
//! `sync_all` from the commit path) produces a failing schedule.

#![forbid(unsafe_code)]

use cocosketch::segment::{merge_epochs, EpochDir, SegmentMeta};
use cocosketch::vfs::{Vfs, VfsFile};
use cocosketch::{epoch, Epoch};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One recorded filesystem operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `Vfs::create`: `path` now names (empty) inode `inode`.
    Create { path: PathBuf, inode: usize },
    /// `VfsFile::write_all` of `data` at `offset` into `inode`.
    Write {
        inode: usize,
        offset: usize,
        data: Vec<u8>,
    },
    /// `VfsFile::sync_all`: all prior writes to `inode` are durable.
    Fsync { inode: usize },
    /// `Vfs::rename`.
    Rename { from: PathBuf, to: PathBuf },
    /// `Vfs::remove_file`.
    Unlink { path: PathBuf },
    /// `Vfs::sync_dir` (recorded for trace realism; the journal model
    /// already persists metadata ops in prefix order).
    SyncDir { dir: PathBuf },
}

#[derive(Debug, Default)]
struct State {
    /// Applied (post-op) contents, by inode.
    inodes: Vec<Vec<u8>>,
    /// Live directory entries: path -> inode.
    names: BTreeMap<PathBuf, usize>,
    /// Directories that exist.
    dirs: BTreeSet<PathBuf>,
    /// Every op since construction, in order.
    trace: Vec<Op>,
    /// Fault injection: swallow `sync_all` calls (record nothing), the
    /// runtime analogue of deleting the `sync_all` before the rename.
    skip_fsync: bool,
    /// Interleaving injection: see [`SimFs::on_rename_once`].
    rename_hook: Option<RenameHook>,
}

/// A callback [`SimFs::on_rename_once`] runs right after a rename onto
/// `to` applies.
struct RenameHook {
    to: PathBuf,
    run: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for RenameHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RenameHook").field("to", &self.to).finish()
    }
}

/// The fault-injecting in-memory filesystem. Cheap to clone (the clone
/// shares state, like a `File` handle duplicates access to one disk).
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    state: Arc<Mutex<State>>,
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

impl SimFs {
    /// An empty filesystem with an empty trace.
    pub fn new() -> Self {
        SimFs::default()
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// When `on`, `sync_all` records no `Fsync` op: every write stays
    /// un-fsynced and crash enumeration may drop or tear it.
    pub fn set_skip_fsync(&self, on: bool) {
        self.lock().skip_fsync = on;
    }

    /// Run `hook` once, right after the next rename onto `to` applies
    /// and outside this filesystem's own lock, so the hook may run more
    /// operations. This places another writer's work at one exact
    /// point of a workload's op trace, deterministically and on one
    /// thread — e.g. an append between a compaction bucket's rename and
    /// the compaction's manifest commit.
    pub fn on_rename_once(&self, to: impl Into<PathBuf>, hook: impl FnOnce() + Send + 'static) {
        self.lock().rename_hook = Some(RenameHook {
            to: to.into(),
            run: Box::new(hook),
        });
    }

    /// The op trace so far.
    pub fn trace(&self) -> Vec<Op> {
        self.lock().trace.clone()
    }

    /// Current trace length — record one after each acknowledged
    /// `append` and pass it to [`DurabilityCheck::acks`]: schedules
    /// whose crash point is at or past the mark must preserve the
    /// acknowledged epoch.
    pub fn mark(&self) -> usize {
        self.lock().trace.len()
    }

    /// Whether `path` names a live file.
    pub fn file_exists(&self, path: &Path) -> bool {
        self.lock().names.contains_key(path)
    }

    /// Build a filesystem holding exactly `names`/`contents`/`dirs`
    /// (used by crash replay; the new trace starts empty).
    fn from_parts(
        names: BTreeMap<PathBuf, usize>,
        inodes: Vec<Vec<u8>>,
        dirs: BTreeSet<PathBuf>,
    ) -> Self {
        SimFs {
            state: Arc::new(Mutex::new(State {
                inodes,
                names,
                dirs,
                trace: Vec::new(),
                skip_fsync: false,
                rename_hook: None,
            })),
        }
    }
}

/// An open write handle to one [`SimFs`] inode.
#[derive(Debug)]
pub struct SimFile {
    fs: SimFs,
    inode: usize,
}

impl VfsFile for SimFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let mut st = self.fs.lock();
        let offset = st.inodes[self.inode].len();
        st.inodes[self.inode].extend_from_slice(data);
        st.trace.push(Op::Write {
            inode: self.inode,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        let mut st = self.fs.lock();
        if !st.skip_fsync {
            st.trace.push(Op::Fsync { inode: self.inode });
        }
        Ok(())
    }
}

impl Vfs for SimFs {
    type File = SimFile;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.lock().dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<(String, u64)>> {
        let st = self.lock();
        if !st.dirs.contains(dir) {
            return Err(not_found(dir));
        }
        Ok(st
            .names
            .iter()
            .filter(|(path, _)| path.parent() == Some(dir))
            .filter_map(|(path, &ino)| {
                let name = path.file_name()?.to_string_lossy().into_owned();
                Some((name, st.inodes[ino].len() as u64))
            })
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.lock();
        match st.names.get(path) {
            Some(&ino) => Ok(st.inodes[ino].clone()),
            None => Err(not_found(path)),
        }
    }

    fn create(&self, path: &Path) -> io::Result<SimFile> {
        let mut st = self.lock();
        let inode = st.inodes.len();
        st.inodes.push(Vec::new());
        st.names.insert(path.to_path_buf(), inode);
        st.trace.push(Op::Create {
            path: path.to_path_buf(),
            inode,
        });
        Ok(SimFile {
            fs: self.clone(),
            inode,
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let hook = {
            let mut st = self.lock();
            let Some(ino) = st.names.remove(from) else {
                return Err(not_found(from));
            };
            st.names.insert(to.to_path_buf(), ino);
            st.trace.push(Op::Rename {
                from: from.to_path_buf(),
                to: to.to_path_buf(),
            });
            if st.rename_hook.as_ref().is_some_and(|hook| hook.to == to) {
                st.rename_hook.take()
            } else {
                None
            }
        };
        if let Some(hook) = hook {
            (hook.run)();
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.names.remove(path).is_none() {
            return Err(not_found(path));
        }
        st.trace.push(Op::Unlink {
            path: path.to_path_buf(),
        });
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.lock().trace.push(Op::SyncDir {
            dir: dir.to_path_buf(),
        });
        Ok(())
    }
}

/// What the recovery invariant is checked against.
#[derive(Debug, Default)]
pub struct DurabilityCheck {
    /// Every epoch the workload ever offered to the directory, by id,
    /// as its exact `epoch::encode` bytes. Recovery may serve any
    /// subset of these (bit-identical, or merged bit-identically into
    /// buckets) and nothing else.
    pub known: BTreeMap<u64, Vec<u8>>,
    /// `(trace mark, id)` acknowledgment pairs: a schedule crashing at
    /// or after `mark` must still cover `id` after recovery.
    pub acks: Vec<(usize, u64)>,
}

impl DurabilityCheck {
    /// Record that `epoch` is now known to the workload (call before
    /// offering it to the directory).
    pub fn offer(&mut self, epoch: &Epoch) {
        self.known.insert(epoch.id, epoch::encode(epoch));
    }

    /// Record that the directory acknowledged `id` durable at the
    /// trace position `mark` ([`SimFs::mark`] right after the
    /// successful `append`/`compact` return).
    pub fn ack(&mut self, mark: usize, id: u64) {
        self.acks.push((mark, id));
    }
}

/// Enumeration bounds.
#[derive(Debug, Clone, Copy)]
pub struct CrashOptions {
    /// Torn-write granularity in bytes: the final un-fsynced write is
    /// truncated at every multiple of `block` (plus its full length).
    pub block: usize,
    /// Hard cap on simultaneously un-fsynced writes (subset
    /// enumeration is `2^n`); traces exceeding it are a checker usage
    /// error, reported as a violation rather than silently sampled.
    pub max_unsynced: usize,
}

impl Default for CrashOptions {
    fn default() -> Self {
        CrashOptions {
            block: 512,
            max_unsynced: 16,
        }
    }
}

/// What [`enumerate`] explored and found.
#[derive(Debug, Default)]
pub struct CrashReport {
    /// Distinct post-crash filesystem states recovery was run on.
    pub schedules: usize,
    /// Invariant violations, rendered with their crash point (capped
    /// at 16 entries; `violation_count` is the true total).
    pub violations: Vec<String>,
    /// Total violations found (including ones elided from the list).
    pub violation_count: usize,
}

impl CrashReport {
    fn violation(&mut self, schedule: &str, message: String) {
        self.violation_count += 1;
        if self.violations.len() < 16 {
            self.violations.push(format!("[{schedule}] {message}"));
        }
    }

    /// True when every schedule upheld the recovery invariant.
    pub fn clean(&self) -> bool {
        self.violation_count == 0
    }
}

/// Keep-length decision for one write under one schedule.
fn kept_len(
    idx: usize,
    data_len: usize,
    synced: bool,
    torn: Option<(usize, usize)>,
    dropped: &BTreeSet<usize>,
) -> usize {
    if synced {
        return data_len;
    }
    if let Some((torn_idx, torn_len)) = torn {
        if idx == torn_idx {
            return torn_len;
        }
    }
    if dropped.contains(&idx) {
        0
    } else {
        data_len
    }
}

/// Materialize the post-crash filesystem for one schedule: metadata
/// ops in the prefix replay in order; each write contributes its kept
/// prefix at its offset (zero-filling holes left by dropped writes).
fn replay(
    trace: &[Op],
    prefix: usize,
    synced: &[bool],
    torn: Option<(usize, usize)>,
    dropped: &BTreeSet<usize>,
    dirs: &BTreeSet<PathBuf>,
) -> SimFs {
    let mut names: BTreeMap<PathBuf, usize> = BTreeMap::new();
    let mut inodes: Vec<Vec<u8>> = Vec::new();
    for (idx, op) in trace[..prefix].iter().enumerate() {
        match op {
            Op::Create { path, inode } => {
                while inodes.len() <= *inode {
                    inodes.push(Vec::new());
                }
                names.insert(path.clone(), *inode);
            }
            Op::Write {
                inode,
                offset,
                data,
            } => {
                let keep = kept_len(idx, data.len(), synced[idx], torn, dropped);
                if keep == 0 {
                    continue;
                }
                let buf = &mut inodes[*inode];
                if buf.len() < offset + keep {
                    buf.resize(offset + keep, 0);
                }
                buf[*offset..offset + keep].copy_from_slice(&data[..keep]);
            }
            Op::Rename { from, to } => {
                if let Some(ino) = names.remove(from) {
                    names.insert(to.clone(), ino);
                }
            }
            Op::Unlink { path } => {
                names.remove(path);
            }
            Op::Fsync { .. } | Op::SyncDir { .. } => {}
        }
    }
    SimFs::from_parts(names, inodes, dirs.clone())
}

/// Run real recovery on one post-crash state and check the invariant.
fn check_state(sim: &SimFs, root: &Path, prefix: usize, check: &DurabilityCheck) -> Vec<String> {
    let mut bad = Vec::new();
    let (dir, rep) = match EpochDir::open_on(sim.clone(), root) {
        Ok(opened) => opened,
        Err(e) => return vec![format!("recovery failed: {e}")],
    };
    // Quarantine renames, never deletes.
    for q in &rep.quarantined {
        if !sim.file_exists(q) {
            bad.push(format!("quarantined file {} was deleted", q.display()));
        }
    }
    // Every acknowledged epoch survives the crash.
    for &(mark, id) in &check.acks {
        if mark <= prefix && !dir.covers(id) {
            bad.push(format!("acknowledged epoch {id} lost"));
        }
    }
    // Every recovered segment serves exactly bytes the workload wrote:
    // bit-identical singles, deterministic bit-identical merges for
    // buckets (which makes per-key conservation a byte equality).
    for meta in dir.segments() {
        let want = expected_bytes(meta, check);
        match (want, sim.read(&root.join(meta.file_name()))) {
            (Err(e), _) => bad.push(e),
            (_, Err(e)) => bad.push(format!("{}: unreadable: {e}", meta.file_name())),
            (Ok(want), Ok(got)) => {
                if want != got {
                    bad.push(format!(
                        "{}: recovered bytes diverge from the offered epochs",
                        meta.file_name()
                    ));
                }
            }
        }
    }
    // Recovery is idempotent: a second open has nothing to repair.
    match EpochDir::open_on(sim.clone(), root) {
        Err(e) => bad.push(format!("second open failed: {e}")),
        Ok((_, rep2)) => {
            if rep2.adopted != 0
                || !rep2.quarantined.is_empty()
                || rep2.removed_orphans != 0
                || rep2.removed_temps != 0
            {
                bad.push(format!("recovery not idempotent: {rep2:?}"));
            }
        }
    }
    bad
}

/// The exact bytes a recovered segment must hold.
fn expected_bytes(meta: &SegmentMeta, check: &DurabilityCheck) -> Result<Vec<u8>, String> {
    if !meta.is_bucket() {
        return check
            .known
            .get(&meta.first)
            .cloned()
            .ok_or_else(|| format!("recovered segment holds unknown epoch {}", meta.first));
    }
    let mut members = Vec::new();
    for id in meta.first..=meta.last {
        let bytes = check
            .known
            .get(&id)
            .ok_or_else(|| format!("recovered bucket holds unknown epoch {id}"))?;
        members
            .push(epoch::decode(bytes).map_err(|e| format!("known epoch {id} undecodable: {e}"))?);
    }
    let merged = merge_epochs(&members).map_err(|e| format!("bucket remerge failed: {e}"))?;
    Ok(epoch::encode(&merged))
}

/// Exhaustively enumerate crash schedules for `fs`'s recorded trace
/// and run real [`EpochDir::open_on`] recovery at each, checking the
/// durability invariant (see module docs). The workload must already
/// have run against `fs` with the directory rooted at `root`.
pub fn enumerate(
    fs: &SimFs,
    root: &Path,
    check: &DurabilityCheck,
    opts: &CrashOptions,
) -> CrashReport {
    let trace = fs.trace();
    let dirs = fs.lock().dirs.clone();
    let mut report = CrashReport::default();

    for prefix in 0..=trace.len() {
        // A write is synced (within this prefix) when an Fsync of its
        // inode appears after it and before the crash.
        let synced: Vec<bool> = trace
            .iter()
            .enumerate()
            .map(|(idx, op)| match op {
                Op::Write { inode, .. } => trace[idx + 1..prefix.max(idx + 1)]
                    .iter()
                    .any(|later| matches!(later, Op::Fsync { inode: i } if i == inode)),
                _ => false,
            })
            .collect();
        let unsynced: Vec<(usize, usize)> = trace[..prefix]
            .iter()
            .enumerate()
            .filter_map(|(idx, op)| match op {
                Op::Write { data, .. } if !synced[idx] => Some((idx, data.len())),
                _ => None,
            })
            .collect();
        if unsynced.len() > opts.max_unsynced {
            report.violation(
                &format!("prefix {prefix}"),
                format!(
                    "{} un-fsynced writes exceed the {} enumeration cap",
                    unsynced.len(),
                    opts.max_unsynced
                ),
            );
            continue;
        }

        // The final un-fsynced write gets torn variants; the others
        // are independently kept/dropped (every subset).
        let (torn_write, others) = match unsynced.split_last() {
            Some((&last, rest)) => (Some(last), rest.to_vec()),
            None => (None, Vec::new()),
        };
        let torn_lens: Vec<Option<(usize, usize)>> = match torn_write {
            Some((idx, len)) => {
                let mut cuts: Vec<usize> = (0..len).step_by(opts.block.max(1)).collect();
                cuts.push(len);
                cuts.dedup();
                cuts.into_iter().map(|cut| Some((idx, cut))).collect()
            }
            None => vec![None],
        };

        for mask in 0..(1u64 << others.len()) {
            let dropped: BTreeSet<usize> = others
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) == 0)
                .map(|(_, &(idx, _))| idx)
                .collect();
            for &torn in &torn_lens {
                let sim = replay(&trace, prefix, &synced, torn, &dropped, &dirs);
                report.schedules += 1;
                let schedule = match torn {
                    Some((idx, cut)) => {
                        format!("prefix {prefix}, mask {mask:b}, write {idx} torn at {cut}")
                    }
                    None => format!("prefix {prefix}, mask {mask:b}"),
                };
                for message in check_state(&sim, root, prefix, check) {
                    report.violation(&schedule, message);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simfs_roundtrips_files_and_records_the_trace() {
        let fs = SimFs::new();
        let root = PathBuf::from("/d");
        fs.create_dir_all(&root).unwrap();
        let mut f = fs.create(&root.join("a.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        fs.rename(&root.join("a.tmp"), &root.join("a")).unwrap();
        assert_eq!(fs.read(&root.join("a")).unwrap(), b"hello");
        assert!(fs.read(&root.join("a.tmp")).is_err());
        assert_eq!(fs.list_dir(&root).unwrap(), vec![("a".to_string(), 5)]);
        let trace = fs.trace();
        assert_eq!(trace.len(), 4);
        assert!(matches!(trace[2], Op::Fsync { .. }));
        fs.remove_file(&root.join("a")).unwrap();
        assert!(fs.list_dir(&root).unwrap().is_empty());
    }

    #[test]
    fn skip_fsync_suppresses_the_fsync_op() {
        let fs = SimFs::new();
        fs.set_skip_fsync(true);
        let mut f = fs.create(Path::new("/x")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        assert!(!fs.trace().iter().any(|op| matches!(op, Op::Fsync { .. })));
    }

    #[test]
    fn rename_hook_runs_once_after_its_rename() {
        let fs = SimFs::new();
        let root = PathBuf::from("/d");
        fs.create_dir_all(&root).unwrap();
        let hook_fs = fs.clone();
        fs.on_rename_once(root.join("b"), move || {
            hook_fs.create(Path::new("/d/hooked")).unwrap();
        });
        fs.create(&root.join("a")).unwrap();
        fs.rename(&root.join("a"), &root.join("c")).unwrap();
        assert!(
            !fs.file_exists(Path::new("/d/hooked")),
            "other renames skip it"
        );
        fs.rename(&root.join("c"), &root.join("b")).unwrap();
        assert!(matches!(fs.trace().last(), Some(Op::Create { .. })));
        fs.remove_file(Path::new("/d/hooked")).unwrap();
        fs.rename(&root.join("b"), &root.join("c")).unwrap();
        fs.rename(&root.join("c"), &root.join("b")).unwrap();
        assert!(!fs.file_exists(Path::new("/d/hooked")), "it runs once");
    }

    #[test]
    fn replay_drops_unsynced_writes_and_tears_the_final_one() {
        let fs = SimFs::new();
        let root = PathBuf::from("/d");
        fs.create_dir_all(&root).unwrap();
        let mut f = fs.create(&root.join("a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        // No fsync: the full-prefix replay may tear the write.
        let trace = fs.trace();
        let synced = vec![false; trace.len()];
        let dirs = fs.lock().dirs.clone();
        let torn = replay(
            &trace,
            trace.len(),
            &synced,
            Some((1, 4)),
            &BTreeSet::new(),
            &dirs,
        );
        assert_eq!(torn.read(&root.join("a")).unwrap(), b"0123");
        let dropped = replay(
            &trace,
            trace.len(),
            &synced,
            Some((1, 0)),
            &BTreeSet::new(),
            &dirs,
        );
        assert_eq!(dropped.read(&root.join("a")).unwrap(), b"");
        // Crashing before the create: no file at all.
        let gone = replay(&trace, 0, &synced, None, &BTreeSet::new(), &dirs);
        assert!(gone.read(&root.join("a")).is_err());
    }
}
