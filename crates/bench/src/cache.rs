//! Content-addressed cell cache: canonical keys, an in-memory store, an
//! optional crash-safe on-disk layer, and opt-in single-flight claims backed by
//! kernel file locks.
//!
//! The paper's evaluation is a grid of cells (app × ordering × granularity ×
//! processor count), and overlapping sweeps recompute identical cells wholesale:
//! `fig07` needs exactly the substrate cells `table2` does, and a serve session
//! replays the same submissions again and again.  This module gives
//! every *deterministic* cell a stable 128-bit content address so the scheduler
//! ([`crate::scheduler`]) can pay for each unique cell exactly once.
//!
//! # Key derivation
//!
//! A [`CellKey`] is a SipHash-2-4 128-bit digest ([`siphash::SipHash128`], vendored
//! — the build has no registry access) over a *canonical* encoding of everything
//! that determines the cell's rows: a spec-scoped domain string, a schema-version
//! salt, and a set of named, typed fields (scale, seed, processor count, the cell's
//! own coordinates).  Canonicalization rules:
//!
//! - **Tagged fields, order-independent fold.**  Each field is hashed on its own as
//!   `name ‖ 0x1F ‖ type-tag ‖ value-bytes` and the per-field digests are folded
//!   with wrapping addition, so key equality is insensitive to the order fields are
//!   declared in — two call sites describing the same cell cannot disagree by
//!   refactoring order.  The field *count* is hashed into the finalizer, so adding
//!   a field always changes the key.
//! - **Effective values, not overrides.**  Specs hash `config.procs_or(default)`,
//!   not the `Option`: a `--procs 16` run and a default run of `table2` land on the
//!   same keys.
//! - **Domain separation.**  The domain names the row shape, so two domains with
//!   coincidentally identical knobs can never alias each other's rows.  It is the
//!   spec id, or a substrate-run domain (`origin_seq_par`, whose cells answer a
//!   run on N processors and on 1, and `dsm_run`) whose rows the specs reducing
//!   the same runs share.  `fig02_05_folded` replaced `fig02_05` when one cell
//!   began answering a whole processor ladder, so entries of the old one-row shape
//!   are never read back.
//!
//! # Memory layer
//!
//! The memory layer is a plain map that never evicts: the paper's whole grid of
//! cells is a few kilobytes of rows (EXPERIMENTS.md, 2026-10-19), so there is
//! nothing to bound.  [`CellCache::memory_usage`] charges every entry, computed
//! or disk-promoted, through the same cost model.
//!
//! # Crash safety
//!
//! The disk layer stores one file per key (`<hex key>.cell`) written through
//! [`AtomicFile`]: bytes stage into a `.tmp` sibling named uniquely per
//! writer (`<hex key>.cell.<pid>.<seq>.tmp`, so two processes committing the same
//! key never share a staging file) and rename onto the final path only after an
//! fsync.  The `serve/cache-commit` failpoint sits between encode and commit, and
//! `tests/failpoints_cache.rs` proves a crash there (or a failed commit at
//! `durable/commit`) leaves *no* partial entry — the final path is absent and the
//! temp is cleaned up (or, after SIGKILL, left behind and ignored: lookups read
//! only `<hex key>.cell`).  A corrupt or truncated entry (bad magic, checksum, or key
//! echo) reads as a miss, never as wrong rows.  Disk *errors* (as opposed to
//! absence) are classified: the offending path is named on stderr and counted in
//! [`CacheStats::disk_errors`], and the lookup degrades to a miss.
//!
//! # Single-flight and lock files
//!
//! [`CellCache::acquire`] is the opt-in dedup point for *in-flight* work: the
//! first caller to reach a missing key gets [`Flight::Claimed`] (a [`ClaimGuard`])
//! and computes; identical callers get [`Flight::Busy`] and park outside the slot
//! queue until the claimant publishes.  Liveness does not depend on the claimant
//! surviving:
//!
//! - **In-process**, the claim lives exactly as long as the guard — panic,
//!   cancellation, or a failed cell drops the guard and wakes waiters.
//! - **Cross-process**, the claim is also an exclusive kernel lock
//!   ([`fs::File::try_lock`], `flock` on Linux) on a zero-byte `<hex key>.lock`
//!   beside the entry.  The kernel drops the lock the moment its holder exits,
//!   `kill -9` included, so a dead claimant's cell is free again at once; a
//!   lock file left behind by one is simply locked by the next claimant (counted
//!   in [`CacheStats::flight_steals`]).  A releasing claimant unlinks the file
//!   while still holding the lock, and a new claimant checks that the path still
//!   names the inode it locked, so a lock on an unlinked file never counts.
//!   Duplicated compute is safe by construction: publishing is the idempotent
//!   complete-or-absent commit, so the worst case is wasted work, never wrong or
//!   partial rows.
//!
//! The claim is failpoint-instrumented (`cache/claim`) and exercised by the chaos
//! battery in `tests/failpoints_flight.rs`.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::durable::AtomicFile;
use crate::runner::{Row, Value};

/// Fixed public SipHash key for cell addresses: content addressing wants a stable,
/// documented function — there is nothing secret about an experiment cell.
const KEY_K0: u64 = 0x7870_2d63_656c_6c73; // "xp-cells"
const KEY_K1: u64 = 0x7265_6f72_6465_7230; // "reorder0"

/// Bump when the meaning of a key or the row codec changes: old disk entries then
/// miss instead of decoding into the wrong shape.
const SCHEMA_SALT: &str = "xp-cell-cache-v1";

/// On-disk entry magic ("xp cell cache").
const MAGIC: &[u8; 4] = b"XPCC";

/// A 128-bit content address for one experiment cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    /// First digest half (reference output bytes 0..8, little-endian).
    pub hi: u64,
    /// Second digest half (bytes 8..16).
    pub lo: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl CellKey {
    /// File name of this key's on-disk entry.
    pub fn file_name(&self) -> String {
        format!("{self}.cell")
    }

    /// File name of this key's single-flight lock.
    pub fn lock_file_name(&self) -> String {
        format!("{self}.lock")
    }
}

/// Builds a [`CellKey`] from named, typed fields (see module docs for the
/// canonicalization rules).
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    domain: String,
    fold_hi: u64,
    fold_lo: u64,
    fields: u64,
}

impl KeyBuilder {
    /// Start a key in `domain` — by convention `"<spec id>/<matrix name>"`, which
    /// gives cross-spec separation for free.
    pub fn new(domain: &str) -> Self {
        KeyBuilder { domain: domain.to_string(), fold_hi: 0, fold_lo: 0, fields: 0 }
    }

    fn field_bytes(&mut self, name: &str, tag: u8, value: &[u8]) {
        let mut h = siphash::SipHash128::new(KEY_K0, KEY_K1);
        h.write(name.as_bytes());
        h.write(&[0x1f, tag]);
        h.write(value);
        let (hi, lo) = h.finish128();
        // Wrapping addition keeps the fold order-independent; the finalizer mixes
        // the running sums through SipHash again, so the sum structure is not
        // exposed in the final key.
        self.fold_hi = self.fold_hi.wrapping_add(hi);
        self.fold_lo = self.fold_lo.wrapping_add(lo);
        self.fields += 1;
    }

    /// A string-valued field (app name, ordering, method label, ...).
    pub fn field_str(mut self, name: &str, value: &str) -> Self {
        self.field_bytes(name, b's', value.as_bytes());
        self
    }

    /// An unsigned integer field (seed, processor count, unit size, ...).
    pub fn field_u64(mut self, name: &str, value: u64) -> Self {
        self.field_bytes(name, b'u', &value.to_le_bytes());
        self
    }

    /// A `usize` field, hashed as `u64` so 32/64-bit hosts agree.
    pub fn field_usize(self, name: &str, value: usize) -> Self {
        self.field_u64(name, value as u64)
    }

    /// A float field, hashed by bit pattern (bit-identical or different key).
    pub fn field_f64(mut self, name: &str, value: f64) -> Self {
        self.field_bytes(name, b'f', &value.to_bits().to_le_bytes());
        self
    }

    /// Finalize into the content address.
    pub fn finish(self) -> CellKey {
        let mut h = siphash::SipHash128::new(KEY_K0, KEY_K1);
        h.write(SCHEMA_SALT.as_bytes());
        h.write(&[0x1f]);
        h.write(self.domain.as_bytes());
        h.write(&[0x1f]);
        h.write_u64(self.fields);
        h.write_u64(self.fold_hi);
        h.write_u64(self.fold_lo);
        let (hi, lo) = h.finish128();
        CellKey { hi, lo }
    }
}

/// Hit/miss accounting for one cache (session-wide when shared by a serve
/// session; per-sweep otherwise).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub memory_hits: u64,
    /// Lookups answered by decoding a disk entry.
    pub disk_hits: u64,
    /// Lookups that found nothing (the cell was then computed).
    pub misses: u64,
    /// Disk-layer I/O failures (read, commit, or lock) — absence is a miss,
    /// not an error.  Surfaced in the serve `done`/`bye` summaries so a sick
    /// cache dir is visible to operators.
    pub disk_errors: u64,
    /// Cells settled by parking on another job's in-flight claim instead of
    /// recomputing (single-flight wins).
    pub flight_waits: u64,
    /// Claims taken over from a dead process.
    pub flight_steals: u64,
}

impl CacheStats {
    /// All lookups answered without recomputation.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// All lookups.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }
}

/// Everything [`CellCache::with_config`] needs; `Default` is memory-only with
/// no single-flight.
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Disk layer directory (created if absent).
    pub disk: Option<PathBuf>,
    /// Enable in-flight claim coordination ([`CellCache::acquire`]).
    pub single_flight: bool,
}

/// The content-addressed cell store: an in-memory layer, optionally backed
/// by a directory of crash-safe `.cell` files, optionally coordinating
/// in-flight work through claims and lock files.
#[derive(Debug)]
pub struct CellCache {
    inner: Mutex<CacheState>,
    /// Signalled whenever a cell is published or a claim is released, so
    /// single-flight waiters re-poll promptly instead of sleeping blind.
    wake: Condvar,
    disk: Option<PathBuf>,
    single_flight: bool,
}

#[derive(Debug, Default)]
struct CacheState {
    memory: HashMap<CellKey, Arc<Vec<Row>>>,
    /// Total [`entry_cost`] of `memory`.
    mem_bytes: u64,
    /// Keys claimed by a live [`ClaimGuard`] of this process.
    flight: HashSet<CellKey>,
    stats: CacheStats,
}

impl CacheState {
    /// Store computed or disk-promoted rows, charged identically.
    fn store(&mut self, key: CellKey, rows: Arc<Vec<Row>>) {
        self.mem_bytes += entry_cost(&rows);
        if let Some(old) = self.memory.insert(key, rows) {
            self.mem_bytes -= entry_cost(&old);
        }
    }
}

/// Deterministic memory charge for one entry: identical for computed and
/// disk-promoted rows, so warm and cold runs report the same usage.
fn entry_cost(rows: &[Row]) -> u64 {
    let mut cost = 64u64;
    for row in rows {
        cost += 32;
        for cell in &row.cells {
            cost += 16;
            if let Value::Str(s) = cell {
                cost += s.len() as u64;
            }
        }
    }
    cost
}

/// Outcome of [`CellCache::acquire`].
#[derive(Debug)]
pub enum Flight {
    /// The cell is already cached — no work to do.
    Hit(Arc<Vec<Row>>),
    /// The caller now owns the cell: compute, publish via
    /// [`CellCache::insert`], then drop the guard.
    Claimed(ClaimGuard),
    /// Another job (possibly another process) is computing this cell; park
    /// outside the slot queue and re-acquire after [`CellCache::wait_change`].
    Busy,
}

impl Default for CellCache {
    fn default() -> Self {
        CellCache::new()
    }
}

impl CellCache {
    /// A purely in-memory cache (one `xp sweep` / serve session).
    pub fn new() -> Self {
        Self::with_config(CacheConfig::default()).expect("memory-only cache cannot fail")
    }

    /// A cache persisted under `dir` (created if absent): entries survive across
    /// processes, so repeated invocations with `--cache-dir` reuse each other's
    /// cells.
    pub fn with_disk(dir: &Path) -> io::Result<Self> {
        Self::with_config(CacheConfig { disk: Some(dir.to_path_buf()), ..CacheConfig::default() })
    }

    /// Full-configuration constructor.
    pub fn with_config(config: CacheConfig) -> io::Result<Self> {
        if let Some(dir) = &config.disk {
            fs::create_dir_all(dir).map_err(|e| {
                io::Error::new(e.kind(), format!("cache dir {}: {e}", dir.display()))
            })?;
        }
        Ok(CellCache {
            inner: Mutex::new(CacheState::default()),
            wake: Condvar::new(),
            disk: config.disk,
            single_flight: config.single_flight,
        })
    }

    /// Whether in-flight claims are enabled (the scheduler routes through
    /// [`CellCache::acquire`] iff so).
    pub fn single_flight(&self) -> bool {
        self.single_flight
    }

    /// Current memory-layer occupancy: `(entries, charged bytes)`.
    pub fn memory_usage(&self) -> (usize, u64) {
        let st = self.state();
        (st.memory.len(), st.mem_bytes)
    }

    /// Lock the state, recovering from poison: no operation panics between two
    /// updates of the state, so a panic elsewhere while the lock is held must
    /// not wedge every waiter.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Disk lookup under the lock: a hit is promoted into memory, a corrupt entry is removed and misses, an I/O *error* is
    /// classified (path named, `disk_errors` counted) and degrades to a miss.
    fn disk_lookup(&self, st: &mut CacheState, key: CellKey) -> Option<Arc<Vec<Row>>> {
        let dir = self.disk.as_ref()?;
        let path = dir.join(key.file_name());
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(e) => {
                st.stats.disk_errors += 1;
                eprintln!(
                    "xp: cannot read cache entry {}: {e} (treating as a miss)",
                    path.display()
                );
                return None;
            }
        };
        match decode_entry(key, &bytes) {
            Some(rows) => {
                let rows = Arc::new(rows);
                st.store(key, Arc::clone(&rows));
                Some(rows)
            }
            None => {
                // Unreadable entry: never serve it, and do not let it shadow the
                // re-insert that the recomputation will perform.
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Memory, then disk, under the lock; a hit is counted, a miss is not.
    fn lookup_locked(&self, st: &mut CacheState, key: CellKey) -> Option<Arc<Vec<Row>>> {
        if let Some(rows) = st.memory.get(&key).cloned() {
            st.stats.memory_hits += 1;
            return Some(rows);
        }
        let rows = self.disk_lookup(st, key)?;
        st.stats.disk_hits += 1;
        Some(rows)
    }

    /// Look `key` up: memory, then disk.  A disk hit is promoted into memory; a
    /// corrupt disk entry counts as a miss.
    pub fn get(&self, key: CellKey) -> Option<Arc<Vec<Row>>> {
        let mut st = self.state();
        let rows = self.lookup_locked(&mut st, key);
        if rows.is_none() {
            st.stats.misses += 1;
        }
        rows
    }

    /// Store computed rows under `key` (memory always; disk when configured,
    /// through [`AtomicFile`] so a crash mid-write leaves no partial entry).
    ///
    /// A disk error leaves the memory entry in place — persistence is an
    /// optimization, losing it must not fail the experiment — but is classified:
    /// the returned error names the offending path and `disk_errors` is counted.
    pub fn insert(&self, key: CellKey, rows: Arc<Vec<Row>>) -> io::Result<()> {
        self.state().store(key, Arc::clone(&rows));
        // Wake single-flight waiters: the cell is available from memory now.
        self.wake.notify_all();
        if let Some(dir) = &self.disk {
            let path = dir.join(key.file_name());
            let staged = (|| -> io::Result<()> {
                let mut file = AtomicFile::create_staged(&path, staging_path(dir, key))?;
                file.write_all(&encode_entry(key, &rows))?;
                // The crash window under test: the entry is fully staged but not
                // yet durable.  Killed here, the final path must stay absent.
                failpoint::point!("serve/cache-commit", |msg: String| Err(io::Error::other(msg)));
                file.commit()
            })();
            if let Err(e) = staged {
                self.state().stats.disk_errors += 1;
                return Err(io::Error::new(
                    e.kind(),
                    format!("cache entry {}: {e}", path.display()),
                ));
            }
        }
        Ok(())
    }

    /// A stats snapshot.
    pub fn stats(&self) -> CacheStats {
        self.state().stats
    }

    /// Count one single-flight win: a cell settled by waiting on another job's
    /// claim instead of recomputing.
    pub fn note_flight_wait(&self) {
        self.state().stats.flight_waits += 1;
    }

    /// Park until something is published or released, or `timeout` elapses.
    /// Spurious wakeups are fine — callers re-[`acquire`](Self::acquire) in a
    /// loop.
    pub fn wait_change(&self, timeout: Duration) {
        let st = self.state();
        let _ = self.wake.wait_timeout(st, timeout).unwrap_or_else(PoisonError::into_inner);
    }

    /// Single-flight entry point: hit, claim, or park.
    ///
    /// Exactly one of the identical concurrent callers gets
    /// [`Flight::Claimed`]; the stats discipline is that a settled cell counts
    /// exactly one hit or one miss (`Busy` counts nothing — the eventual
    /// re-acquire that settles it does).
    pub fn acquire(self: &Arc<Self>, key: CellKey) -> Flight {
        {
            let mut st = self.state();
            if let Some(rows) = self.lookup_locked(&mut st, key) {
                return Flight::Hit(rows);
            }
            // Claim locally *before* releasing the lock so no second thread of
            // this process races us to the lock file.
            if !st.flight.insert(key) {
                return Flight::Busy;
            }
        }
        self.claim(key)
    }

    /// The claim half of [`CellCache::acquire`], for a key that missed and that
    /// this thread has just entered in the flight table.
    fn claim(self: &Arc<Self>, key: CellKey) -> Flight {
        // The guard exists before any file I/O, so every exit below, unwinding
        // included, releases the claim through its `Drop`.
        let mut guard = ClaimGuard { cache: Arc::clone(self), key, lock: None };
        failpoint::point!("cache/claim");
        let mut took_over = false;
        if let Some(dir) = self.disk.as_deref() {
            // Lock-file I/O happens outside the memory lock so hits on other keys
            // never stall behind it.
            let path = dir.join(key.lock_file_name());
            match CellLock::try_take(&path) {
                Ok(None) => return Flight::Busy,
                Ok(Some((lock, existed))) => {
                    guard.lock = Some(lock);
                    took_over = existed;
                    // Another process may have published between our lookup and
                    // the lock, including a claimant that committed and then died
                    // before unlinking its lock file.
                    let mut st = self.state();
                    if let Some(rows) = self.disk_lookup(&mut st, key) {
                        st.stats.disk_hits += 1;
                        return Flight::Hit(rows);
                    }
                }
                Err(e) => {
                    self.state().stats.disk_errors += 1;
                    eprintln!(
                        "xp: cannot lock cache claim {}: {e} (single-flighting in-process only)",
                        path.display()
                    );
                }
            }
        }
        let mut st = self.state();
        st.stats.misses += 1;
        st.stats.flight_steals += u64::from(took_over);
        drop(st);
        Flight::Claimed(guard)
    }
}

/// Ownership of one in-flight cell.  Publish by [`CellCache::insert`], then
/// drop; dropping *without* publishing (panic, cancellation, terminal failure)
/// releases the claim so a waiter can take over.
#[derive(Debug)]
pub struct ClaimGuard {
    cache: Arc<CellCache>,
    key: CellKey,
    /// The cross-process half of the claim, when a disk layer backs it.
    lock: Option<CellLock>,
}

impl ClaimGuard {
    /// The claimed key.
    pub fn key(&self) -> CellKey {
        self.key
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        drop(self.lock.take());
        self.cache.state().flight.remove(&self.key);
        self.cache.wake.notify_all();
    }
}

/// An exclusive kernel lock on a claim's lock file.  Dropping it unlinks the
/// file while the lock is still held, then closes the file, which unlocks it.
#[derive(Debug)]
struct CellLock {
    path: PathBuf,
    _file: File,
}

impl CellLock {
    /// Open or create `path` and try to lock it.  `Ok(None)` means another
    /// process holds the lock; otherwise the flag says the file was already
    /// there and unheld, i.e. left behind by a claimant that died.
    fn try_take(path: &Path) -> io::Result<Option<(CellLock, bool)>> {
        loop {
            let (file, existed) = match OpenOptions::new().write(true).create_new(true).open(path) {
                Ok(file) => (file, false),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    match OpenOptions::new().write(true).open(path) {
                        Ok(file) => (file, true),
                        // Its holder unlinked it since our create failed.
                        Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            };
            match file.try_lock() {
                Ok(()) => {}
                Err(TryLockError::WouldBlock) => return Ok(None),
                Err(TryLockError::Error(e)) => return Err(e),
            }
            // A releaser unlinks before it unlocks, so a lock won on an inode the
            // path no longer names guards nothing: retry on the current file.
            if names_inode(path, &file)? {
                return Ok(Some((CellLock { path: path.to_path_buf(), _file: file }, existed)));
            }
        }
    }
}

impl Drop for CellLock {
    fn drop(&mut self) {
        // Unlinked under the lock: whoever locks this inode next finds that the
        // path no longer names it and retries on a fresh file.
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether `path` still names the file `file` has open.
#[cfg(unix)]
fn names_inode(path: &Path, file: &File) -> io::Result<bool> {
    use std::os::unix::fs::MetadataExt;
    let held = file.metadata()?;
    match fs::metadata(path) {
        Ok(named) => Ok((named.dev(), named.ino()) == (held.dev(), held.ino())),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Without inode numbers, assume it does: the race this check closes costs only
/// a duplicated computation, which the complete-or-absent publish makes harmless.
#[cfg(not(unix))]
fn names_inode(_path: &Path, _file: &File) -> io::Result<bool> {
    Ok(true)
}

/// A staging name no other writer uses: the pid separates processes, the
/// counter separates writers within one.
fn staging_path(dir: &Path, key: CellKey) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{}.{}.{seq}.tmp", key.file_name(), std::process::id()))
}

/// Binary row codec: `XPCC` magic, version, key echo, row/cell counts, tagged
/// values, and a trailing SipHash-128 checksum of everything before it.
fn encode_entry(key: CellKey, rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rows.len() * 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&key.hi.to_le_bytes());
    out.extend_from_slice(&key.lo.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        out.extend_from_slice(&(row.cells.len() as u32).to_le_bytes());
        for cell in &row.cells {
            match cell {
                Value::Str(s) => {
                    out.push(0);
                    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    out.extend_from_slice(s.as_bytes());
                }
                Value::Int(i) => {
                    out.push(1);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                // Bit pattern, not a decimal round-trip: cached floats are
                // bit-identical to computed ones by construction.
                Value::Float(f) => {
                    out.push(2);
                    out.extend_from_slice(&f.to_bits().to_le_bytes());
                }
            }
        }
    }
    let (c0, c1) = siphash::SipHash128::hash(KEY_K0, KEY_K1, &out);
    out.extend_from_slice(&c0.to_le_bytes());
    out.extend_from_slice(&c1.to_le_bytes());
    out
}

/// Decode and validate; `None` on any structural or checksum mismatch.
fn decode_entry(key: CellKey, bytes: &[u8]) -> Option<Vec<Row>> {
    if bytes.len() < 4 + 4 + 16 + 4 + 16 {
        return None;
    }
    let (body, checksum) = bytes.split_at(bytes.len() - 16);
    let (c0, c1) = siphash::SipHash128::hash(KEY_K0, KEY_K1, body);
    if checksum[..8] != c0.to_le_bytes() || checksum[8..] != c1.to_le_bytes() {
        return None;
    }
    let mut r = Reader { bytes: body, at: 0 };
    if r.take(4)? != MAGIC.as_slice() || r.u32()? != 1 {
        return None;
    }
    if (r.u64()?, r.u64()?) != (key.hi, key.lo) {
        return None;
    }
    let nrows = r.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1 << 16));
    for _ in 0..nrows {
        let ncells = r.u32()? as usize;
        let mut cells = Vec::with_capacity(ncells.min(1 << 10));
        for _ in 0..ncells {
            let cell = match r.u8()? {
                0 => {
                    let len = r.u32()? as usize;
                    Value::Str(String::from_utf8(r.take(len)?.to_vec()).ok()?)
                }
                1 => Value::Int(i64::from_le_bytes(r.take(8)?.try_into().ok()?)),
                2 => Value::Float(f64::from_bits(u64::from_le_bytes(r.take(8)?.try_into().ok()?))),
                _ => return None,
            };
            cells.push(cell);
        }
        rows.push(Row { cells });
    }
    (r.at == body.len()).then_some(rows)
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn demo_rows() -> Vec<Row> {
        vec![
            row!["water-sp", 16usize, 0.5f64],
            row!["barnes", 8usize, f64::NAN],
            row!["comma,quote\"", -3i64, 1.0e-300f64],
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_across_field_order() {
        let a = KeyBuilder::new("table2/grid")
            .field_str("app", "barnes")
            .field_u64("seed", 123)
            .field_usize("procs", 16)
            .finish();
        let b = KeyBuilder::new("table2/grid")
            .field_usize("procs", 16)
            .field_u64("seed", 123)
            .field_str("app", "barnes")
            .finish();
        assert_eq!(a, b);
    }

    #[test]
    fn keys_separate_domains_fields_and_values() {
        let base = || KeyBuilder::new("table2/grid").field_str("app", "barnes");
        let key = base().finish();
        assert_ne!(KeyBuilder::new("fig07/grid").field_str("app", "barnes").finish(), key);
        assert_ne!(base().field_u64("seed", 0).finish(), key, "extra field changes the key");
        assert_ne!(KeyBuilder::new("table2/grid").field_str("app", "water").finish(), key);
        // Same value under a different field name is a different cell.
        assert_ne!(KeyBuilder::new("table2/grid").field_str("ordering", "barnes").finish(), key);
    }

    #[test]
    fn float_fields_hash_by_bit_pattern() {
        let k = |v: f64| KeyBuilder::new("d").field_f64("x", v).finish();
        assert_eq!(k(f64::NAN), k(f64::NAN));
        assert_ne!(k(0.0), k(-0.0), "distinct bit patterns are distinct cells");
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let cache = CellCache::new();
        let key = KeyBuilder::new("t").field_u64("i", 1).finish();
        assert!(cache.get(key).is_none());
        cache.insert(key, Arc::new(demo_rows())).unwrap();
        let rows = cache.get(key).expect("hit");
        assert_eq!(rows.len(), 3);
        assert_eq!(
            cache.stats(),
            CacheStats { memory_hits: 1, disk_hits: 0, misses: 1, ..CacheStats::default() }
        );
    }

    #[test]
    fn disk_roundtrip_is_bit_identical_and_corruption_reads_as_a_miss() {
        let dir = temp_dir("roundtrip");
        let key = KeyBuilder::new("t").field_u64("i", 2).finish();
        {
            let cache = CellCache::with_disk(&dir).unwrap();
            cache.insert(key, Arc::new(demo_rows())).unwrap();
        }
        // A fresh cache (new process, in effect) reads the entry back.
        let cache = CellCache::with_disk(&dir).unwrap();
        let rows = cache.get(key).expect("disk hit");
        let original = demo_rows();
        assert_eq!(rows.len(), original.len());
        for (got, want) in rows.iter().zip(&original) {
            for (g, w) in got.cells.iter().zip(&want.cells) {
                match (g, w) {
                    (Value::Float(g), Value::Float(w)) => assert_eq!(g.to_bits(), w.to_bits()),
                    _ => assert_eq!(g, w),
                }
            }
        }
        assert_eq!(cache.stats().disk_hits, 1);

        // Truncate the entry: the next fresh cache must treat it as a miss.
        let path = dir.join(key.file_name());
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let cache = CellCache::with_disk(&dir).unwrap();
        assert!(cache.get(key).is_none(), "corrupt entries never decode");
        assert!(!path.exists(), "corrupt entries are removed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_do_not_decode_under_the_wrong_key() {
        let key = KeyBuilder::new("t").field_u64("i", 3).finish();
        let other = KeyBuilder::new("t").field_u64("i", 4).finish();
        let bytes = encode_entry(key, &demo_rows());
        assert!(decode_entry(key, &bytes).is_some());
        assert!(decode_entry(other, &bytes).is_none(), "key echo is validated");
    }

    #[test]
    fn acquire_single_flights_within_a_process() {
        let cache = Arc::new(
            CellCache::with_config(CacheConfig { single_flight: true, ..CacheConfig::default() })
                .unwrap(),
        );
        let key = KeyBuilder::new("sf").field_u64("i", 1).finish();
        let Flight::Claimed(guard) = cache.acquire(key) else { panic!("first acquire claims") };
        assert_eq!(guard.key(), key);
        assert!(matches!(cache.acquire(key), Flight::Busy), "second acquire parks");
        cache.insert(key, Arc::new(demo_rows())).unwrap();
        drop(guard);
        assert!(matches!(cache.acquire(key), Flight::Hit(_)), "published cell hits");
        // Abandoning a claim (drop without publish) releases it for the next caller.
        let key2 = KeyBuilder::new("sf").field_u64("i", 2).finish();
        let Flight::Claimed(guard) = cache.acquire(key2) else { panic!() };
        drop(guard);
        assert!(matches!(cache.acquire(key2), Flight::Claimed(_)), "released claim re-claims");
        let stats = cache.stats();
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.misses, 3, "each claim is one miss; Busy counts nothing");
    }

    #[test]
    fn acquire_parks_on_held_locks_and_takes_over_dead_ones() {
        let dir = temp_dir("lock");
        let mk = || {
            Arc::new(
                CellCache::with_config(CacheConfig {
                    disk: Some(dir.clone()),
                    single_flight: true,
                })
                .unwrap(),
            )
        };
        let key = KeyBuilder::new("lock").field_u64("i", 1).finish();
        let lock_path = dir.join(key.lock_file_name());

        // A second cache on the same dir (another process, in effect) parks
        // while the first holds the lock, and claims once it is released.
        let (a, b) = (mk(), mk());
        let Flight::Claimed(guard) = a.acquire(key) else { panic!("first acquire claims") };
        assert!(lock_path.exists());
        assert!(matches!(b.acquire(key), Flight::Busy), "b parks on a's lock");
        drop(guard);
        assert!(!lock_path.exists(), "a released claim unlinks its lock file");
        let Flight::Claimed(guard) = b.acquire(key) else { panic!("a released lock is free") };
        drop(guard);
        assert_eq!(b.stats().flight_steals, 0);

        // A leftover unheld lock file (its claimant died) is taken over at once.
        fs::write(&lock_path, b"").unwrap();
        let Flight::Claimed(guard) = b.acquire(key) else { panic!("a dead lock is taken over") };
        assert_eq!(b.stats().flight_steals, 1);
        drop(guard);
        assert!(!lock_path.exists());

        // A claimant that committed and died before unlinking: the entry lands
        // between b's lookup and b's lock, so the re-check hits and the leftover
        // lock file goes.
        fs::write(&lock_path, b"").unwrap();
        a.insert(key, Arc::new(demo_rows())).unwrap();
        assert!(b.state().flight.insert(key));
        assert!(matches!(b.claim(key), Flight::Hit(_)));
        assert!(!lock_path.exists(), "the leftover lock file is removed");
        assert!(b.state().flight.is_empty(), "the hit releases the claim");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_cache_instances_single_flight_against_each_other_via_lock_files() {
        let dir = temp_dir("xproc");
        let mk = || {
            Arc::new(
                CellCache::with_config(CacheConfig {
                    disk: Some(dir.clone()),
                    single_flight: true,
                })
                .unwrap(),
            )
        };
        let a = mk();
        let b = mk();
        let key = KeyBuilder::new("xproc").field_u64("i", 1).finish();
        let Flight::Claimed(guard) = a.acquire(key) else { panic!() };
        assert!(matches!(b.acquire(key), Flight::Busy), "b parks on a's lock");
        a.insert(key, Arc::new(demo_rows())).unwrap();
        drop(guard);
        assert!(matches!(b.acquire(key), Flight::Hit(_)), "b reads a's published cell");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_tmp_removed_when_commit_never_happens() {
        let dir = temp_dir("tmpdrop");
        fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("abandoned.cell");
        {
            let mut file =
                AtomicFile::create_staged(&dest, dir.join("abandoned.cell.tmp")).unwrap();
            file.write_all(b"partial bytes, never committed").unwrap();
            // Dropped without commit: an early-exit process must not litter.
        }
        assert!(!dest.exists(), "no partial entry");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(leftovers.is_empty(), "staging tmp removed on drop: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
