//! Content-addressed cell cache: canonical keys, a budgeted LRU memory store, an
//! optional crash-safe on-disk layer, and opt-in single-flight claims with
//! lease-based liveness.
//!
//! The paper's evaluation is a grid of cells (app × ordering × granularity ×
//! processor count), and overlapping sweeps recompute identical cells wholesale:
//! `fig02_05` at its default processor ladder covers every cell a later
//! `--procs 8` run needs, `fig07` reduces exactly the substrate runs `table2` does,
//! and a serve session replays the same submissions again and again.  This module gives
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
//!   not the `Option`: a run with `--procs 8` and a default-ladder run that happens
//!   to execute an 8-processor cell land on the same key (that overlap is the
//!   measured win in EXPERIMENTS.md's `serve-dedup`).
//! - **Domain separation.**  The domain names the row shape, so two domains with
//!   coincidentally identical knobs can never alias each other's rows.  It is the
//!   spec id, or a substrate-run domain (`origin_run`, `dsm_run`) whose rows the
//!   specs reducing the same runs share.
//!
//! # Memory budget
//!
//! The memory layer is an exact LRU keyed by a monotonic recency tick.  With a
//! [`MemBudget`] configured (bytes and/or entries), every store — computed *or*
//! disk-promoted, both charged through the same [`entry_cost`] model — evicts
//! least-recently-used entries until the budget holds again.  Eviction only
//! forgets rows (the disk layer, when present, still has them); it can never
//! change results, only hit rates.
//!
//! # Crash safety
//!
//! The disk layer stores one file per key (`<hex key>.cell`) written through
//! [`smtrace::AtomicFile`]: bytes stage into a `.tmp` sibling and rename onto the
//! final path only after an fsync.  The `serve/cache-commit` failpoint sits between
//! encode and commit, and `tests/failpoints_cache.rs` proves a crash there leaves
//! *no* partial entry — the final path is absent and the temp is cleaned up (or,
//! after SIGKILL, ignored by lookups and reaped by [`gc_dir`]), mirroring the PR 8
//! corpus contract.  A corrupt or truncated entry (bad magic, checksum, or key
//! echo) reads as a miss, never as wrong rows.  Disk *errors* (as opposed to
//! absence) are classified: the offending path is named on stderr and counted in
//! [`CacheStats::disk_errors`], and the lookup degrades to a miss.
//!
//! # Single-flight and leases
//!
//! [`CellCache::acquire`] is the opt-in dedup point for *in-flight* work: the
//! first caller to reach a missing key gets [`Flight::Claimed`] (a [`ClaimGuard`])
//! and computes; identical callers get [`Flight::Busy`] and park outside the wave
//! queue until the claimant publishes.  Liveness does not depend on the claimant
//! surviving:
//!
//! - **In-process**, the claim lives exactly as long as the guard — panic,
//!   cancellation, or a failed cell drops the guard and wakes waiters.
//! - **Cross-process**, a claim is a lease file (`<hex key>.lease`, single line
//!   `xp-lease v1 pid=<pid> nonce=<hex> expires_unix_ms=<ms>`) created atomically
//!   *with its content* by staging to a unique `.tmp` and `hard_link`ing onto the
//!   lease path (link onto an existing path fails, so exactly one creator wins).
//!   A background renewer thread extends the expiry every third of the lease
//!   period ([`default_lease`], `XP_CACHE_LEASE_MS`) via rename-replace, so a
//!   *live* claimant never expires — but a SIGKILLed one stops renewing and any
//!   waiter steals the lease after expiry and computes.  Stolen or duplicated
//!   compute is safe by construction: publishing is the existing idempotent
//!   complete-or-absent commit, so the worst case is wasted work, never wrong or
//!   partial rows.
//!
//! Every transition is failpoint-instrumented (`cache/claim`, `cache/lease-renew`,
//! `cache/lease-steal`, `cache/evict`, `cache/gc`) and exercised by the chaos
//! battery in `tests/failpoints_flight.rs`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use smtrace::AtomicFile;

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

    /// File name of this key's single-flight lease.
    pub fn lease_file_name(&self) -> String {
        format!("{self}.lease")
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
    /// Memory entries dropped to restore the [`MemBudget`].
    pub evictions: u64,
    /// Disk-layer I/O failures (read, commit, or lease) — absence is a miss,
    /// not an error.  Surfaced in the serve `done`/`bye` summaries so a sick
    /// cache dir is visible to operators.
    pub disk_errors: u64,
    /// Cells settled by parking on another job's in-flight claim instead of
    /// recomputing (single-flight wins).
    pub flight_waits: u64,
    /// Claims taken over from an expired lease (crashed or stalled claimant).
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

/// Byte/entry ceiling for the in-memory layer; `None` fields are unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemBudget {
    /// Maximum total [`entry_cost`] bytes held in memory.
    pub max_bytes: Option<u64>,
    /// Maximum number of memory entries.
    pub max_entries: Option<usize>,
}

impl MemBudget {
    /// Whether any ceiling is configured.
    pub fn is_bounded(&self) -> bool {
        self.max_bytes.is_some() || self.max_entries.is_some()
    }
}

/// Everything [`CellCache::with_config`] needs; `Default` is the PR 9 behaviour
/// (memory-only, unbounded, no single-flight).
#[derive(Debug, Clone, Default)]
pub struct CacheConfig {
    /// Disk layer directory (created if absent).
    pub disk: Option<PathBuf>,
    /// Enable in-flight claim/lease coordination ([`CellCache::acquire`]).
    pub single_flight: bool,
    /// Memory-layer LRU budget.
    pub mem_budget: MemBudget,
    /// Disk-layer byte budget: triggers [`gc_dir`] at open and periodically as
    /// writes accumulate.
    pub disk_budget: Option<u64>,
    /// Lease period override; defaults to [`default_lease`].
    pub lease: Option<Duration>,
}

/// The content-addressed cell store: an LRU in-memory layer, optionally backed
/// by a directory of crash-safe `.cell` files, optionally coordinating
/// in-flight work through claims and lease files.
#[derive(Debug)]
pub struct CellCache {
    inner: Mutex<CacheState>,
    /// Signalled whenever a cell is published or a claim is released, so
    /// single-flight waiters re-poll promptly instead of sleeping blind.
    wake: Condvar,
    disk: Option<PathBuf>,
    single_flight: bool,
    mem_budget: MemBudget,
    disk_budget: Option<u64>,
    lease: Duration,
    /// Bytes written to disk since the last GC (auto-GC trigger accumulator).
    since_gc: AtomicU64,
    /// Serializes auto-GC runs (skipped, not queued, when one is in progress).
    gc_running: Mutex<()>,
}

#[derive(Debug, Default)]
struct CacheState {
    memory: HashMap<CellKey, MemEntry>,
    /// Recency tick → key, exact LRU order (oldest first).
    recency: BTreeMap<u64, CellKey>,
    mem_bytes: u64,
    tick: u64,
    /// In-flight claims held by this process: key → owner nonce.
    flight: HashMap<CellKey, u64>,
    stats: CacheStats,
}

#[derive(Debug)]
struct MemEntry {
    rows: Arc<Vec<Row>>,
    cost: u64,
    tick: u64,
}

/// Deterministic memory charge for one entry: identical for computed and
/// disk-promoted rows, so warm and cold runs evict identically.
pub fn entry_cost(rows: &[Row]) -> u64 {
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

/// The lease period: `XP_CACHE_LEASE_MS` (default 2000 ms, clamped to ≥ 25 ms so
/// a renewer always gets several renewal windows before expiry).
pub fn default_lease() -> Duration {
    let ms = std::env::var("XP_CACHE_LEASE_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(2000);
    Duration::from_millis(ms.max(25))
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
    /// outside the wave queue and re-acquire after [`CellCache::wait_change`].
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

    /// Full-configuration constructor.  With a disk budget set, runs one GC pass
    /// at open so a restarted process starts inside budget.
    pub fn with_config(config: CacheConfig) -> io::Result<Self> {
        if let Some(dir) = &config.disk {
            fs::create_dir_all(dir).map_err(|e| {
                io::Error::new(e.kind(), format!("cache dir {}: {e}", dir.display()))
            })?;
        }
        let lease = config.lease.unwrap_or_else(default_lease);
        let cache = CellCache {
            inner: Mutex::new(CacheState::default()),
            wake: Condvar::new(),
            disk: config.disk,
            single_flight: config.single_flight,
            mem_budget: config.mem_budget,
            disk_budget: config.disk_budget,
            lease,
            since_gc: AtomicU64::new(0),
            gc_running: Mutex::new(()),
        };
        if let (Some(dir), Some(budget)) = (cache.disk.as_deref(), cache.disk_budget) {
            gc_dir(dir, Some(budget), cache.lease)?;
        }
        Ok(cache)
    }

    /// The disk directory, if this cache has one.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Whether in-flight claims are enabled (the scheduler routes through
    /// [`CellCache::acquire`] iff so).
    pub fn single_flight(&self) -> bool {
        self.single_flight
    }

    /// The lease period claims are renewed against.
    pub fn lease_period(&self) -> Duration {
        self.lease
    }

    /// Current memory-layer occupancy: `(entries, charged bytes)`.
    pub fn memory_usage(&self) -> (usize, u64) {
        let st = self.state();
        (st.memory.len(), st.mem_bytes)
    }

    /// Lock the state, recovering from poison: a failpoint-injected panic under
    /// the lock must degrade that one operation, never wedge every waiter.  The
    /// state is kept consistent *before* any panic point fires, so recovered
    /// state is always usable.
    fn state(&self) -> MutexGuard<'_, CacheState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Touch `key` in the memory layer (refreshing its recency) and return it.
    fn touch_locked(st: &mut CacheState, key: CellKey) -> Option<Arc<Vec<Row>>> {
        let CacheState { memory, recency, tick, .. } = st;
        let entry = memory.get_mut(&key)?;
        *tick += 1;
        recency.remove(&entry.tick);
        entry.tick = *tick;
        recency.insert(*tick, key);
        Some(Arc::clone(&entry.rows))
    }

    /// Store under the lock and restore the budget.  Used for both computed
    /// results and disk promotions so both are charged identically.
    fn store_locked(&self, st: &mut CacheState, key: CellKey, rows: Arc<Vec<Row>>) {
        let cost = entry_cost(&rows);
        st.tick += 1;
        let tick = st.tick;
        if let Some(old) = st.memory.insert(key, MemEntry { rows, cost, tick }) {
            st.recency.remove(&old.tick);
            st.mem_bytes -= old.cost;
        }
        st.recency.insert(tick, key);
        st.mem_bytes += cost;
        self.evict_locked(st);
    }

    /// Drop least-recently-used entries until the budget holds.  The failpoint
    /// fires *after* each removal, so an injected panic leaves the books
    /// balanced and strictly closer to budget; the next store finishes the job.
    fn evict_locked(&self, st: &mut CacheState) {
        let over = |st: &CacheState| {
            self.mem_budget.max_bytes.is_some_and(|b| st.mem_bytes > b)
                || self.mem_budget.max_entries.is_some_and(|n| st.memory.len() > n)
        };
        while over(st) {
            let Some((&tick, &key)) = st.recency.iter().next() else { break };
            st.recency.remove(&tick);
            if let Some(entry) = st.memory.remove(&key) {
                st.mem_bytes -= entry.cost;
            }
            st.stats.evictions += 1;
            failpoint::point!("cache/evict");
        }
    }

    /// Disk lookup under the lock: a hit is promoted into memory (budget
    /// charged), a corrupt entry is removed and misses, an I/O *error* is
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
                self.store_locked(st, key, Arc::clone(&rows));
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

    /// Look `key` up: memory, then disk.  A disk hit is promoted into memory; a
    /// corrupt disk entry counts as a miss.
    pub fn get(&self, key: CellKey) -> Option<Arc<Vec<Row>>> {
        let mut st = self.state();
        if let Some(rows) = Self::touch_locked(&mut st, key) {
            st.stats.memory_hits += 1;
            return Some(rows);
        }
        if let Some(rows) = self.disk_lookup(&mut st, key) {
            st.stats.disk_hits += 1;
            return Some(rows);
        }
        st.stats.misses += 1;
        None
    }

    /// Store computed rows under `key` (memory always; disk when configured,
    /// through [`AtomicFile`] so a crash mid-write leaves no partial entry).
    ///
    /// A disk error leaves the memory entry in place — persistence is an
    /// optimization, losing it must not fail the experiment — but is classified:
    /// the returned error names the offending path and `disk_errors` is counted.
    pub fn insert(&self, key: CellKey, rows: Arc<Vec<Row>>) -> io::Result<()> {
        {
            let mut st = self.state();
            self.store_locked(&mut st, key, Arc::clone(&rows));
        }
        // Wake single-flight waiters: the cell is available from memory now.
        self.wake.notify_all();
        if let Some(dir) = &self.disk {
            let path = dir.join(key.file_name());
            let staged = (|| -> io::Result<u64> {
                let bytes = encode_entry(key, &rows);
                let mut file = AtomicFile::create(&path)?;
                file.write_all(&bytes)?;
                // The crash window under test: the entry is fully staged but not
                // yet durable.  Killed here, the final path must stay absent.
                failpoint::point!("serve/cache-commit", |msg: String| Err(io::Error::other(msg)));
                file.commit()?;
                Ok(bytes.len() as u64)
            })();
            match staged {
                Ok(len) => self.note_disk_write(len),
                Err(e) => {
                    self.state().stats.disk_errors += 1;
                    return Err(io::Error::new(
                        e.kind(),
                        format!("cache entry {}: {e}", path.display()),
                    ));
                }
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
        let nonce = next_nonce();
        {
            let mut st = self.state();
            if let Some(rows) = Self::touch_locked(&mut st, key) {
                st.stats.memory_hits += 1;
                return Flight::Hit(rows);
            }
            if let Some(rows) = self.disk_lookup(&mut st, key) {
                st.stats.disk_hits += 1;
                return Flight::Hit(rows);
            }
            if st.flight.contains_key(&key) {
                return Flight::Busy;
            }
            // Claim locally *before* releasing the lock so no second thread of
            // this process races us to the lease file.
            st.flight.insert(key, nonce);
        }
        // Until the ClaimGuard exists, *this* guard owns the rollback: any
        // unwind below (e.g. an injected `cache/lease-steal` panic) must not
        // leak the flight entry, or same-process waiters would wedge forever.
        struct FlightRollback<'a> {
            cache: &'a CellCache,
            key: CellKey,
            nonce: u64,
            armed: bool,
        }
        impl Drop for FlightRollback<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut st = self.cache.state();
                if st.flight.get(&self.key) == Some(&self.nonce) {
                    st.flight.remove(&self.key);
                }
                drop(st);
                self.cache.wake.notify_all();
            }
        }
        let mut rollback = FlightRollback { cache: self, key, nonce, armed: true };
        // Lease-file I/O happens outside the memory lock so hits on other keys
        // never stall behind it.
        let (file_lease, stole) = match self.try_disk_claim(key, nonce) {
            DiskClaim::Won { lease, stole } => (lease, stole),
            // The rollback guard removes the flight entry on return.
            DiskClaim::Busy => return Flight::Busy,
        };
        if file_lease {
            // Another process may have published between our lookup and the
            // lease win (including a claimant that committed and then died
            // before removing its lease — we just stole a finished cell).
            let mut st = self.state();
            if let Some(rows) = self.disk_lookup(&mut st, key) {
                st.stats.disk_hits += 1;
                st.flight.remove(&key);
                drop(st);
                self.release_lease(key, nonce);
                self.wake.notify_all();
                return Flight::Hit(rows);
            }
        }
        {
            let mut st = self.state();
            st.stats.misses += 1;
            if stole {
                st.stats.flight_steals += 1;
            }
        }
        let renewer = if file_lease {
            self.disk.clone().map(|dir| spawn_renewer(dir, key, nonce, self.lease))
        } else {
            None
        };
        // The ClaimGuard takes over release duty from here.
        rollback.armed = false;
        let guard = ClaimGuard { cache: Arc::clone(self), key, nonce, file_lease, renewer };
        // Fires after the guard exists: an injected panic here unwinds through
        // the caller with the guard in scope, releasing the claim cleanly.
        failpoint::point!("cache/claim");
        Flight::Claimed(guard)
    }

    /// Try to take the cross-process lease for `key`.  No disk layer means the
    /// in-process flight table is the only claim; a disk *error* degrades the
    /// same way (named on stderr, `disk_errors` counted) rather than blocking.
    fn try_disk_claim(&self, key: CellKey, nonce: u64) -> DiskClaim {
        let Some(dir) = self.disk.as_deref() else {
            return DiskClaim::Won { lease: false, stole: false };
        };
        let degraded = |e: io::Error| {
            self.state().stats.disk_errors += 1;
            eprintln!(
                "xp: cannot write cache lease {}: {e} (single-flighting in-process only)",
                dir.join(key.lease_file_name()).display()
            );
            DiskClaim::Won { lease: false, stole: false }
        };
        match write_lease_excl(dir, key, nonce, self.lease) {
            Ok(true) => DiskClaim::Won { lease: true, stole: false },
            Ok(false) => {
                // Held.  Live holder → park; expired, corrupt, or vanished
                // holder → steal.  A corrupt lease reads as stale on purpose:
                // the idempotent publish makes a wrong steal cost only
                // duplicated compute, never wrong rows.
                let path = dir.join(key.lease_file_name());
                let live = read_lease(&path).is_some_and(|l| l.expires_unix_ms > now_unix_ms());
                if live {
                    return DiskClaim::Busy;
                }
                failpoint::point!("cache/lease-steal");
                match write_lease_replace(dir, key, nonce, self.lease) {
                    Ok(true) => DiskClaim::Won { lease: true, stole: true },
                    // A concurrent stealer's replace landed after ours: they own
                    // the claim now, we park.
                    Ok(false) => DiskClaim::Busy,
                    Err(e) => degraded(e),
                }
            }
            Err(e) => degraded(e),
        }
    }

    /// Remove `key`'s lease file iff it still carries `nonce` (never clobber a
    /// stealer's lease).
    fn release_lease(&self, key: CellKey, nonce: u64) {
        if let Some(dir) = &self.disk {
            let path = dir.join(key.lease_file_name());
            if read_lease(&path).is_some_and(|l| l.nonce == nonce) {
                let _ = fs::remove_file(&path);
            }
        }
    }

    /// Auto-GC: once enough bytes have landed since the last pass, run
    /// [`gc_dir`] (skipped when another thread is already collecting).
    fn note_disk_write(&self, bytes: u64) {
        let (Some(budget), Some(dir)) = (self.disk_budget, self.disk.as_deref()) else {
            return;
        };
        let trigger = (budget / 8).max(1);
        let since = self.since_gc.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if since < trigger {
            return;
        }
        if let Ok(_running) = self.gc_running.try_lock() {
            self.since_gc.store(0, Ordering::Relaxed);
            if let Err(e) = gc_dir(dir, Some(budget), self.lease) {
                self.state().stats.disk_errors += 1;
                eprintln!("xp: cache gc under {}: {e}", dir.display());
            }
        }
    }
}

/// Outcome of the cross-process lease attempt.
enum DiskClaim {
    /// We own the claim; `lease` says a lease file (with renewer) backs it.
    Won { lease: bool, stole: bool },
    /// A live claimant (here or elsewhere) owns it.
    Busy,
}

/// Ownership of one in-flight cell.  Publish by [`CellCache::insert`], then
/// drop; dropping *without* publishing (panic, cancellation, terminal failure)
/// releases the claim so a waiter can take over.  Never blocks on compute —
/// the renewer thread is signalled and joined, not the cell.
#[derive(Debug)]
pub struct ClaimGuard {
    cache: Arc<CellCache>,
    key: CellKey,
    nonce: u64,
    file_lease: bool,
    renewer: Option<Renewer>,
}

impl ClaimGuard {
    /// The claimed key.
    pub fn key(&self) -> CellKey {
        self.key
    }
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        // Stop renewing first so the release below cannot race our own renewer
        // re-creating the lease.
        drop(self.renewer.take());
        if self.file_lease {
            self.cache.release_lease(self.key, self.nonce);
        }
        let mut st = self.cache.state();
        if st.flight.get(&self.key) == Some(&self.nonce) {
            st.flight.remove(&self.key);
        }
        drop(st);
        self.cache.wake.notify_all();
    }
}

/// Background lease-renewal thread handle; signalled and joined on drop.
#[derive(Debug)]
struct Renewer {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Renewer {
    fn drop(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn spawn_renewer(dir: PathBuf, key: CellKey, nonce: u64, lease: Duration) -> Renewer {
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let signal = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("xp-cache-lease".into())
        .spawn(move || {
            // A third of the period gives a live claimant several renewal
            // windows before any waiter may legally steal.
            let interval = (lease / 3).max(Duration::from_millis(10));
            let (lock, cv) = &*signal;
            loop {
                {
                    let stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    let (stopped, _timeout) =
                        cv.wait_timeout(stopped, interval).unwrap_or_else(PoisonError::into_inner);
                    if *stopped {
                        return;
                    }
                    // Guard dropped before the file I/O below: renewal must not
                    // hold the stop lock (ClaimGuard::drop signals under it).
                }
                match renew_once(&dir, key, nonce, lease) {
                    RenewOutcome::Lost => return,
                    RenewOutcome::Renewed | RenewOutcome::Skipped => {}
                }
            }
        })
        .expect("spawn lease renewer");
    Renewer { stop, handle: Some(handle) }
}

/// One renewal attempt.  `Lost` means another nonce owns the lease (we were
/// stolen from — stop renewing, the computation still publishes idempotently);
/// `Skipped` means a transient failure, retried next interval.
enum RenewOutcome {
    Renewed,
    Skipped,
    Lost,
}

fn renew_once(dir: &Path, key: CellKey, nonce: u64, lease: Duration) -> RenewOutcome {
    failpoint::point!("cache/lease-renew", |_msg: String| RenewOutcome::Skipped);
    let path = dir.join(key.lease_file_name());
    match read_lease(&path) {
        Some(l) if l.nonce != nonce => RenewOutcome::Lost,
        Some(_ours) => match write_lease_replace(dir, key, nonce, lease) {
            Ok(true) => RenewOutcome::Renewed,
            Ok(false) => RenewOutcome::Lost,
            Err(_) => RenewOutcome::Skipped,
        },
        // Missing or unreadable: self-heal by re-creating — if someone else
        // beat us to it, the read-back tells us whether we were stolen from.
        None => match write_lease_excl(dir, key, nonce, lease) {
            Ok(true) => RenewOutcome::Renewed,
            Ok(false) => match read_lease(&path) {
                Some(l) if l.nonce == nonce => RenewOutcome::Renewed,
                Some(_) => RenewOutcome::Lost,
                None => RenewOutcome::Skipped,
            },
            Err(_) => RenewOutcome::Skipped,
        },
    }
}

/// A parsed lease file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lease {
    pid: u32,
    nonce: u64,
    expires_unix_ms: u128,
}

fn render_lease(nonce: u64, lease: Duration) -> String {
    format!(
        "xp-lease v1 pid={} nonce={:016x} expires_unix_ms={}\n",
        std::process::id(),
        nonce,
        now_unix_ms() + lease.as_millis()
    )
}

/// Tolerant token parser: unknown `k=v` pairs are ignored so the format can
/// grow; any missing or malformed required field reads as corrupt (→ stale).
fn parse_lease(text: &str) -> Option<Lease> {
    let mut words = text.split_whitespace();
    if words.next()? != "xp-lease" || words.next()? != "v1" {
        return None;
    }
    let (mut pid, mut nonce, mut expires) = (None, None, None);
    for word in words {
        let (k, v) = word.split_once('=')?;
        match k {
            "pid" => pid = Some(v.parse::<u32>().ok()?),
            "nonce" => nonce = Some(u64::from_str_radix(v, 16).ok()?),
            "expires_unix_ms" => expires = Some(v.parse::<u128>().ok()?),
            _ => {}
        }
    }
    Some(Lease { pid: pid?, nonce: nonce?, expires_unix_ms: expires? })
}

fn read_lease(path: &Path) -> Option<Lease> {
    parse_lease(&fs::read_to_string(path).ok()?)
}

/// Stage a lease to a unique temp (fsync'd).  Unique per nonce so two processes
/// renewing/stealing the same key never collide on a staging name.
fn write_lease_tmp(dir: &Path, key: CellKey, nonce: u64, lease: Duration) -> io::Result<PathBuf> {
    let tmp = dir.join(format!("{key}.lease.{nonce:016x}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(render_lease(nonce, lease).as_bytes())?;
    file.sync_all()?;
    Ok(tmp)
}

/// Atomic create-*with-content*: `hard_link` publishes the staged bytes under
/// the lease path only if nothing is there (link onto an existing path fails),
/// so a competitor can never observe a created-but-empty lease and treat it as
/// corrupt/stale.  `Ok(true)` = won, `Ok(false)` = already held.
fn write_lease_excl(dir: &Path, key: CellKey, nonce: u64, lease: Duration) -> io::Result<bool> {
    let tmp = write_lease_tmp(dir, key, nonce, lease)?;
    let result = match fs::hard_link(&tmp, dir.join(key.lease_file_name())) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(false),
        Err(e) => Err(e),
    };
    let _ = fs::remove_file(&tmp);
    result
}

/// Clobbering replace (steal or renew): rename onto the lease path, fsync the
/// directory, then read back.  `Ok(true)` = our nonce survived; `Ok(false)` = a
/// concurrent writer's rename landed after ours (they own the lease).
fn write_lease_replace(dir: &Path, key: CellKey, nonce: u64, lease: Duration) -> io::Result<bool> {
    let tmp = write_lease_tmp(dir, key, nonce, lease)?;
    let path = dir.join(key.lease_file_name());
    if let Err(e) = fs::rename(&tmp, &path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(read_lease(&path).is_some_and(|l| l.nonce == nonce))
}

fn now_unix_ms() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or(0)
}

/// Process-unique, collision-resistant claim nonces: a per-process random base
/// (time ⊕ pid through splitmix) advanced by a counter.
fn next_nonce() -> u64 {
    static BASE: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let base = *BASE.get_or_init(|| {
        let nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        splitmix(nanos ^ ((std::process::id() as u64) << 32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix(base.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What one [`gc_dir`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Stray staging files (older than one lease period) removed.
    pub reaped_tmp: u64,
    /// Expired or corrupt lease files removed.
    pub reaped_leases: u64,
    /// `.cell` entries removed to meet the byte budget (oldest first).
    pub evicted_entries: u64,
    /// Bytes those entries held.
    pub evicted_bytes: u64,
    /// Entries surviving the pass.
    pub kept_entries: u64,
    /// Bytes they hold.
    pub kept_bytes: u64,
}

/// Garbage-collect a cache directory: reap stray `*.tmp` older than one lease
/// period (a live writer stages and commits well within it), reap lease files
/// expired for more than a lease period (a live claimant renews every third),
/// and — with a byte budget — evict `.cell` entries oldest-first until the
/// directory fits.  Safe to run concurrently with active processes: everything
/// it removes is either provably abandoned or reproducible from recompute.
pub fn gc_dir(dir: &Path, budget: Option<u64>, lease: Duration) -> io::Result<GcReport> {
    failpoint::point!("cache/gc", |msg: String| Err(io::Error::other(msg)));
    let mut report = GcReport::default();
    let now_sys = SystemTime::now();
    let mut cells: Vec<(PathBuf, SystemTime, u64)> = Vec::new();
    let listing = fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("cache dir {}: {e}", dir.display())))?;
    for entry in listing {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        let modified = meta.modified().unwrap_or(UNIX_EPOCH);
        let age = now_sys.duration_since(modified).unwrap_or(Duration::ZERO);
        if name.ends_with(".tmp") {
            if age >= lease && fs::remove_file(&path).is_ok() {
                report.reaped_tmp += 1;
            }
        } else if name.ends_with(".lease") {
            let expired = match read_lease(&path) {
                Some(l) => now_unix_ms() >= l.expires_unix_ms.saturating_add(lease.as_millis()),
                // Unreadable/corrupt: reap once it is old enough that no live
                // renewer can still be about to fix it.
                None => age >= lease,
            };
            if expired && fs::remove_file(&path).is_ok() {
                report.reaped_leases += 1;
            }
        } else if name.ends_with(".cell") {
            cells.push((path, modified, meta.len()));
        }
    }
    // Oldest first; path as tie-break so the order is deterministic.
    cells.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
    let mut total: u64 = cells.iter().map(|(_, _, len)| len).sum();
    for (path, _modified, len) in cells {
        let over = budget.is_some_and(|b| total > b);
        if over && fs::remove_file(&path).is_ok() {
            total -= len;
            report.evicted_entries += 1;
            report.evicted_bytes += len;
        } else {
            report.kept_entries += 1;
            report.kept_bytes += len;
        }
    }
    Ok(report)
}

/// A point-in-time census of a cache directory (for `xp cache info`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskInfo {
    /// Committed `.cell` entries.
    pub entries: u64,
    /// Bytes they hold.
    pub bytes: u64,
    /// Staging `*.tmp` files present.
    pub staging: u64,
    /// Lease files present.
    pub leases: u64,
    /// Leases whose expiry is still in the future.
    pub live_leases: u64,
}

/// Census a cache directory without modifying it.
pub fn disk_info(dir: &Path) -> io::Result<DiskInfo> {
    let mut info = DiskInfo::default();
    let listing = fs::read_dir(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("cache dir {}: {e}", dir.display())))?;
    for entry in listing {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Ok(meta) = entry.metadata() else { continue };
        if !meta.is_file() {
            continue;
        }
        if name.ends_with(".tmp") {
            info.staging += 1;
        } else if name.ends_with(".lease") {
            info.leases += 1;
            if read_lease(&entry.path()).is_some_and(|l| l.expires_unix_ms > now_unix_ms()) {
                info.live_leases += 1;
            }
        } else if name.ends_with(".cell") {
            info.entries += 1;
            info.bytes += meta.len();
        }
    }
    Ok(info)
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
        assert!(!path.exists(), "corrupt entries are evicted");
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
    fn lru_keeps_recently_hit_entries_under_an_entry_budget() {
        let cache = CellCache::with_config(CacheConfig {
            mem_budget: MemBudget { max_entries: Some(2), ..MemBudget::default() },
            ..CacheConfig::default()
        })
        .unwrap();
        let k = |i: u64| KeyBuilder::new("lru").field_u64("i", i).finish();
        cache.insert(k(1), Arc::new(demo_rows())).unwrap();
        cache.insert(k(2), Arc::new(demo_rows())).unwrap();
        // Touch 1 so 2 is now least recently used.
        assert!(cache.get(k(1)).is_some());
        cache.insert(k(3), Arc::new(demo_rows())).unwrap();
        let (entries, _) = cache.memory_usage();
        assert_eq!(entries, 2, "budget holds after every op");
        assert!(cache.get(k(1)).is_some(), "most-recently-hit survives");
        assert!(cache.get(k(2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(k(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_byte_budget_never_exceeded_and_disk_promotions_charge_identically() {
        let one = entry_cost(&demo_rows());
        let dir = temp_dir("bytes");
        let config = || CacheConfig {
            disk: Some(dir.clone()),
            mem_budget: MemBudget { max_bytes: Some(one), ..MemBudget::default() },
            ..CacheConfig::default()
        };
        let k = |i: u64| KeyBuilder::new("bytes").field_u64("i", i).finish();
        {
            let cache = CellCache::with_config(config()).unwrap();
            cache.insert(k(1), Arc::new(demo_rows())).unwrap();
            cache.insert(k(2), Arc::new(demo_rows())).unwrap();
            let (entries, bytes) = cache.memory_usage();
            assert_eq!((entries, bytes), (1, one), "byte budget holds");
        }
        // A disk promotion is charged through the same cost model: promoting
        // entry 1 evicts the resident entry 2 under a one-entry-sized budget.
        let cache = CellCache::with_config(config()).unwrap();
        assert!(cache.get(k(2)).is_some(), "warm-up from disk");
        assert!(cache.get(k(1)).is_some(), "promotion works");
        let (entries, bytes) = cache.memory_usage();
        assert_eq!((entries, bytes), (1, one), "promotion respects the budget");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_format_roundtrips_and_tolerates_unknown_fields() {
        let text = render_lease(0xabcd, Duration::from_millis(500));
        let lease = parse_lease(&text).expect("own format parses");
        assert_eq!(lease.pid, std::process::id());
        assert_eq!(lease.nonce, 0xabcd);
        assert!(lease.expires_unix_ms > now_unix_ms());
        let extended = text.trim_end().to_string() + " future_field=7\n";
        assert_eq!(parse_lease(&extended), Some(lease), "unknown fields ignored");
        assert!(parse_lease("xp-lease v2 pid=1 nonce=0 expires_unix_ms=1").is_none());
        assert!(parse_lease("xp-lease v1 pid=1 nonce=zz expires_unix_ms=1").is_none());
        assert!(parse_lease("garbage").is_none());
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
    fn acquire_steals_expired_leases_and_parks_on_live_ones() {
        let dir = temp_dir("lease");
        let mk = || {
            Arc::new(
                CellCache::with_config(CacheConfig {
                    disk: Some(dir.clone()),
                    single_flight: true,
                    lease: Some(Duration::from_millis(60_000)),
                    ..CacheConfig::default()
                })
                .unwrap(),
            )
        };
        let key = KeyBuilder::new("steal").field_u64("i", 1).finish();
        let lease_path = dir.join(key.lease_file_name());

        // A live, far-future lease held by "another process" parks us.
        let cache = mk();
        fs::write(
            &lease_path,
            format!(
                "xp-lease v1 pid=1 nonce=00000000000000aa expires_unix_ms={}\n",
                now_unix_ms() + 60_000
            ),
        )
        .unwrap();
        assert!(matches!(cache.acquire(key), Flight::Busy));
        assert_eq!(cache.stats().flight_steals, 0);

        // An expired lease (dead claimant) is stolen.
        fs::write(&lease_path, "xp-lease v1 pid=1 nonce=00000000000000aa expires_unix_ms=1\n")
            .unwrap();
        let Flight::Claimed(guard) = cache.acquire(key) else { panic!("expired lease is stolen") };
        assert_eq!(cache.stats().flight_steals, 1);
        let stolen = read_lease(&lease_path).expect("our lease is in place");
        assert_eq!(stolen.pid, std::process::id());
        drop(guard);
        assert!(!lease_path.exists(), "released claim removes its lease");

        // A corrupt lease reads as stale and is stolen too.
        fs::write(&lease_path, "not a lease\n").unwrap();
        assert!(matches!(cache.acquire(key), Flight::Claimed(_)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_cache_instances_single_flight_against_each_other_via_lease_files() {
        let dir = temp_dir("xproc");
        let mk = || {
            Arc::new(
                CellCache::with_config(CacheConfig {
                    disk: Some(dir.clone()),
                    single_flight: true,
                    lease: Some(Duration::from_millis(60_000)),
                    ..CacheConfig::default()
                })
                .unwrap(),
            )
        };
        let a = mk();
        let b = mk();
        let key = KeyBuilder::new("xproc").field_u64("i", 1).finish();
        let Flight::Claimed(guard) = a.acquire(key) else { panic!() };
        assert!(matches!(b.acquire(key), Flight::Busy), "b parks on a's lease");
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
            let mut file = AtomicFile::create(&dest).unwrap();
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

    #[test]
    fn gc_reaps_stale_tmp_and_expired_leases_and_bounds_cells() {
        let dir = temp_dir("gc");
        let k = |i: u64| KeyBuilder::new("gc").field_u64("i", i).finish();
        {
            let cache = CellCache::with_disk(&dir).unwrap();
            for i in 0..4 {
                cache.insert(k(i), Arc::new(demo_rows())).unwrap();
            }
        }
        fs::write(dir.join("stray.cell.tmp"), b"abandoned staging").unwrap();
        fs::write(
            dir.join(k(9).lease_file_name()),
            "xp-lease v1 pid=1 nonce=0000000000000001 expires_unix_ms=1\n",
        )
        .unwrap();
        let live_lease = dir.join(k(8).lease_file_name());
        fs::write(
            &live_lease,
            format!(
                "xp-lease v1 pid=1 nonce=0000000000000002 expires_unix_ms={}\n",
                now_unix_ms() + 60_000
            ),
        )
        .unwrap();
        let cell_len = fs::metadata(dir.join(k(0).file_name())).unwrap().len();
        // Zero lease period: every tmp is "older than a lease", the expired
        // lease is reapable immediately, and the live one still is not.
        let budget = cell_len * 2;
        let report = gc_dir(&dir, Some(budget), Duration::ZERO).unwrap();
        assert_eq!(report.reaped_tmp, 1);
        assert_eq!(report.reaped_leases, 1);
        assert_eq!(report.evicted_entries, 2, "oldest cells evicted to budget");
        assert_eq!(report.kept_entries, 2);
        assert!(report.kept_bytes <= budget);
        assert!(live_lease.exists(), "live leases survive gc");
        let info = disk_info(&dir).unwrap();
        assert_eq!((info.entries, info.staging, info.leases), (2, 0, 1));
        assert_eq!(info.live_leases, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
