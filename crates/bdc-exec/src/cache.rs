//! Content-addressed, self-healing artifact cache under `results/cache/`.
//!
//! An artifact is any serialized flow product — a characterized library in
//! its Liberty-dialect text, a synthesized-core `(T_min, area)` record. The
//! key is an FNV-1a hash over every input that determines the artifact
//! (process, grid parameters, library fingerprint, design point) plus a
//! schema-version salt; the filename embeds the key, so *invalidation is
//! key change* — touching any input addresses a different file and the old
//! entry is simply never read again.
//!
//! On-disk format: a one-line header `bdc-artifact-v1 <fnv:016x> <len>`
//! followed by the payload. Writes go through a temp file + `fsync` +
//! rename (with a post-rename audit) so neither concurrent writers nor a
//! power cut can expose a torn artifact; reads verify the
//! header's version, length, and FNV-1a checksum, and any artifact that
//! fails verification — corrupt, truncated, or written by a different
//! format version — is moved to `quarantine/` under the cache root and
//! reported as a miss, so the caller transparently rebuilds it. Orphaned
//! `.tmp-*` files left by crashed runs are reaped when a store opens, and
//! quarantined artifacts older than [`QUARANTINE_REAP_GENERATIONS`] store
//! generations are reaped with them, so sustained corruption cannot grow
//! `quarantine/` without bound. All
//! I/O failures degrade to cache misses — the cache is an accelerator,
//! never a correctness dependency.
//!
//! **Disk budget.** Every successful store is stamped with a per-root
//! *store generation* (a persisted counter in `store.log`, never wall
//! clock). With `BDC_CACHE_BUDGET_MB` set, a store that pushes the root
//! past the budget evicts the lowest-generation entries first —
//! deterministic LRU, since recency is the generation ledger rather than
//! mtime — and never evicts an artifact whose single-flight lock is held
//! by an in-flight computation (the plan's working set stays pinned).
//!
//! Environment knobs: `BDC_CACHE_DIR` overrides the root directory,
//! `BDC_NO_CACHE=1` disables the cache entirely (every load misses, every
//! store is dropped), `BDC_CACHE_BUDGET_MB` bounds the store's disk
//! footprint, and `BDC_FAULTS` (see [`crate::faults`]) can inject
//! deterministic read corruption and synthetic ENOSPC (`disk_full=`) to
//! exercise the quarantine/rebuild and eviction paths.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use crate::faults;
use crate::memo::MemoTable;

/// On-disk artifact format version tag; bump on any framing change so
/// older entries quarantine-and-rebuild instead of misparsing.
const MAGIC: &str = "bdc-artifact-v1";

/// The per-root store-generation ledger: `<gen:020> <filename>` lines,
/// append-only, later mentions win. Recency for the LRU is read from
/// here, never from mtime, so eviction order is a pure function of the
/// store sequence.
const LEDGER_FILE: &str = "store.log";

/// The quarantine-stamp ledger inside `quarantine/`: `<gen:020>
/// <filename>` lines recording the store generation each artifact was
/// quarantined at.
const QUARANTINE_LEDGER: &str = "reap.log";

/// Quarantined artifacts older than this many store generations are
/// reaped at store-open — old enough that any forensic look has had its
/// chance, young enough that sustained corruption faults cannot grow
/// `quarantine/` without bound.
pub const QUARANTINE_REAP_GENERATIONS: u64 = 64;

/// FNV-1a 64-bit hash over a sequence of string parts. Parts are separated
/// by a 0xFF sentinel byte (which cannot occur in UTF-8), so `["ab", "c"]`
/// and `["a", "bc"]` hash differently.
pub fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for part in parts {
        for b in part.as_bytes() {
            eat(*b);
        }
        eat(0xFF);
    }
    h
}

/// Validates an explicitly requested cache root (`BDC_CACHE_DIR`): the
/// directory must exist or be creatable.
///
/// # Errors
/// A one-line diagnostic naming the knob, the path, and the OS error.
pub fn validate_cache_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.as_os_str().is_empty() {
        return Err(
            "BDC_CACHE_DIR is set but empty; unset it to use the default results/cache/"
                .to_string(),
        );
    }
    match std::fs::create_dir_all(dir) {
        Ok(()) => Ok(dir.to_path_buf()),
        Err(e) => Err(format!(
            "BDC_CACHE_DIR points at an uncreatable directory `{}`: {e}",
            dir.display()
        )),
    }
}

/// Parses a `BDC_CACHE_BUDGET_MB` value: a positive integer number of
/// megabytes.
///
/// # Errors
/// A one-line diagnostic naming the knob and the offending value.
pub fn parse_cache_budget_mb(raw: &str) -> Result<u64, String> {
    let raw = raw.trim();
    let bad = || {
        format!("BDC_CACHE_BUDGET_MB must be a positive integer number of megabytes, got `{raw}`")
    };
    let mb: u64 = raw.parse().map_err(|_| bad())?;
    if mb == 0 {
        return Err(bad());
    }
    Ok(mb)
}

/// The `BDC_CACHE_BUDGET_MB` disk budget in bytes, read once per process.
/// A malformed value exits with its diagnostic — binaries validate it up
/// front through [`crate::env_config`], so this is a backstop, and
/// silently ignoring an explicitly requested budget would let the store
/// grow unbounded against the operator's stated intent.
fn env_budget_bytes() -> Option<u64> {
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| match std::env::var("BDC_CACHE_BUDGET_MB") {
        Ok(raw) => match parse_cache_budget_mb(&raw) {
            Ok(mb) => Some(mb.saturating_mul(1024 * 1024)),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => None,
    })
}

/// Per-root next-store-generation counters, seeded from the ledger on
/// first use so generations keep monotonically increasing across process
/// restarts.
static NEXT_GEN: Mutex<Option<BTreeMap<PathBuf, u64>>> = Mutex::new(None);

/// Claims the next store generation for `root` (monotonic per process,
/// seeded from the persisted ledger).
fn bump_generation(root: &Path) -> u64 {
    let mut guard = NEXT_GEN.lock().unwrap_or_else(|p| p.into_inner());
    let next = guard
        .get_or_insert_with(BTreeMap::new)
        .entry(root.to_path_buf())
        .or_insert_with(|| {
            ledger_generations(root)
                .values()
                .copied()
                .max()
                .unwrap_or(0)
                + 1
        });
    let gen = *next;
    *next += 1;
    gen
}

/// The highest store generation claimed so far for `root` (0 for a fresh
/// root).
fn current_generation(root: &Path) -> u64 {
    let guard = NEXT_GEN.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(next) = guard.as_ref().and_then(|m| m.get(root)) {
        return next - 1;
    }
    drop(guard);
    ledger_generations(root)
        .values()
        .copied()
        .max()
        .unwrap_or(0)
}

/// Parses a `<gen:020> <filename>` ledger (store or quarantine); later
/// mentions of a filename win, which is exactly the LRU refresh.
fn read_gen_ledger(path: &Path) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some((gen, name)) = line.split_once(' ') {
                if let Ok(gen) = gen.parse::<u64>() {
                    map.insert(name.to_string(), gen);
                }
            }
        }
    }
    map
}

/// The store-generation ledger for `root`.
fn ledger_generations(root: &Path) -> BTreeMap<String, u64> {
    read_gen_ledger(&root.join(LEDGER_FILE))
}

/// Appends one `<gen> <filename>` line to a ledger (best effort — the
/// ledger is recency metadata, never a correctness dependency). The line
/// goes out in one `write` on an `O_APPEND` handle, so concurrent
/// appenders never interleave inside a line.
fn append_gen_ledger(path: &Path, gen: u64, filename: &str) {
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = f.write_all(format!("{gen:020} {filename}\n").as_bytes());
    }
}

/// Rewrites a ledger to exactly `entries` (compaction after eviction or
/// reaping), via temp + rename so a crash never leaves a torn ledger.
fn rewrite_gen_ledger(path: &Path, entries: &BTreeMap<String, u64>) {
    if entries.is_empty() {
        let _ = std::fs::remove_file(path);
        return;
    }
    let mut text = String::new();
    let mut rows: Vec<(&u64, &String)> = entries.iter().map(|(n, g)| (g, n)).collect();
    rows.sort();
    for (gen, name) in rows {
        text.push_str(&format!("{gen:020} {name}\n"));
    }
    let tmp = path.with_extension("log.tmp");
    if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// What a peer-fill fetch hook reports back to the cache.
#[derive(Debug, Clone)]
pub enum PeerFetch {
    /// No fetch was attempted (no peer owns this artifact, or this
    /// process *is* the owner). Not counted.
    NotAttempted,
    /// A fetch was attempted but produced nothing usable (owner down or
    /// artifact absent there). Counted as a peer miss.
    Miss,
    /// The owner answered with framed artifact text (`bdc-artifact-v1`
    /// header + payload). The cache verifies the frame before trusting it.
    Framed(String),
}

/// A `fetch` hook: ask the owning shard for `(name, key)` framed text.
pub type PeerFetchFn = Arc<dyn Fn(&str, u64) -> PeerFetch + Send + Sync>;

/// A `push` hook: offer `(name, key, payload)` to the owning shard.
pub type PeerPushFn = Arc<dyn Fn(&str, u64, &str) + Send + Sync>;

/// The peer-to-peer cache-fill hooks a sharded fleet installs (see
/// `bdc-cluster`): `fetch` asks the artifact's ring-owner shard for the
/// framed bytes on a local miss; `push` offers a freshly built artifact to
/// its owner so later misses on other shards hit there.
pub struct PeerHooks {
    /// Fetch `(name, key)` from the owning shard, returning *framed* text.
    pub fetch: PeerFetchFn,
    /// Offer `(name, key, payload)` to the owning shard (fire-and-forget).
    pub push: PeerPushFn,
}

static PEER_HOOKS: Mutex<Option<Arc<PeerHooks>>> = Mutex::new(None);

/// Installs (or, with `None`, removes) the process-wide peer cache-fill
/// hooks. Only the sharded `bdc_serve` worker installs these; every other
/// binary runs with the hooks absent and the cache behaves exactly as
/// before.
pub fn install_peer_hooks(hooks: Option<PeerHooks>) {
    let mut slot = PEER_HOOKS.lock().unwrap_or_else(|p| p.into_inner());
    *slot = hooks.map(Arc::new);
}

fn peer_hooks() -> Option<Arc<PeerHooks>> {
    PEER_HOOKS.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Artifacts quarantined by this process, by final path — lets `store`
/// distinguish a rebuild (count it) from a first build.
static QUARANTINED_PATHS: Mutex<Option<BTreeSet<PathBuf>>> = Mutex::new(None);

fn mark_quarantined(path: &Path) {
    let mut set = QUARANTINED_PATHS.lock().unwrap_or_else(|p| p.into_inner());
    set.get_or_insert_with(BTreeSet::new)
        .insert(path.to_path_buf());
}

fn take_quarantined(path: &Path) -> bool {
    let mut set = QUARANTINED_PATHS.lock().unwrap_or_else(|p| p.into_inner());
    set.as_mut().is_some_and(|s| s.remove(path))
}

/// A content-addressed, string-payload artifact cache rooted at one
/// directory.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
    enabled: bool,
    budget_bytes: Option<u64>,
}

/// Roots already swept for orphaned temp files by this process. The
/// sweep walks the whole cache directory, and hot paths construct
/// [`ArtifactCache::shared`] once per cache access — so the walk runs
/// once per root per process, not per construction.
static REAPED_ROOTS: MemoTable<PathBuf, ()> = MemoTable::new();

impl ArtifactCache {
    /// A cache rooted at an explicit directory (created lazily on first
    /// store), with the disk budget taken from `BDC_CACHE_BUDGET_MB`.
    /// The first open of a root in this process reaps `.tmp-*`
    /// files orphaned by crashed runs and quarantined artifacts older
    /// than [`QUARANTINE_REAP_GENERATIONS`] store generations.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_budget_bytes(root, env_budget_bytes())
    }

    /// A cache with an explicit disk budget in bytes (`None` = unbounded),
    /// overriding `BDC_CACHE_BUDGET_MB` — the testing seam for the
    /// eviction path.
    pub fn with_budget_bytes(root: impl Into<PathBuf>, budget_bytes: Option<u64>) -> Self {
        let cache = ArtifactCache {
            root: root.into(),
            enabled: true,
            budget_bytes,
        };
        REAPED_ROOTS.get_or_init(cache.root.clone(), || {
            cache.reap_orphaned_tmp();
            cache.reap_stale_quarantine(current_generation(&cache.root));
        });
        cache
    }

    /// A cache that never hits and never writes.
    pub fn disabled() -> Self {
        ArtifactCache {
            root: PathBuf::new(),
            enabled: false,
            budget_bytes: None,
        }
    }

    /// The process-wide shared cache: disabled under `BDC_NO_CACHE`,
    /// rooted at `BDC_CACHE_DIR` when set, else at `results/cache/` under
    /// the enclosing repository root (found by walking up from the current
    /// directory to the nearest `Cargo.lock`, so experiment binaries run
    /// from the checkout root and `cargo test` run from a crate directory
    /// share one cache).
    ///
    /// # Panics
    /// Panics with a diagnostic when `BDC_CACHE_DIR` is set but names an
    /// uncreatable directory (e.g. a path through an existing file).
    /// An explicitly requested cache root that silently degrades to
    /// all-miss behaviour would hide a misconfiguration; only the
    /// *default* root keeps the failures-are-misses contract.
    pub fn shared() -> Self {
        if std::env::var_os("BDC_NO_CACHE").is_some() {
            return Self::disabled();
        }
        if let Some(dir) = std::env::var_os("BDC_CACHE_DIR") {
            let root = validate_cache_dir(&PathBuf::from(dir)).unwrap_or_else(|e| panic!("{e}"));
            return Self::new(root);
        }
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let mut dir = cwd.as_path();
        loop {
            if dir.join("Cargo.lock").exists() {
                return Self::new(dir.join("results").join("cache"));
            }
            match dir.parent() {
                Some(p) => dir = p,
                None => return Self::new(cwd.join("results").join("cache")),
            }
        }
    }

    /// Whether loads can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a `(name, key)` pair addresses.
    pub fn path_for(&self, name: &str, key: u64) -> PathBuf {
        self.root.join(format!("{name}-{key:016x}.txt"))
    }

    /// The quarantine directory failed artifacts are moved to.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Removes `.tmp-{name}-{key}-{pid}` files whose writing process is
    /// gone — a crashed run leaks its temp file forever otherwise. A live
    /// sibling's in-flight temp is left alone (its pid still exists); if
    /// liveness cannot be established the file is only reclaimed when the
    /// pid differs from ours, which at worst turns a concurrent writer's
    /// rename into a silent re-store (the failures-are-misses contract).
    fn reap_orphaned_tmp(&self) {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        let own_pid = std::process::id();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(".tmp-") {
                continue;
            }
            let orphaned = match name
                .rsplit_once('-')
                .and_then(|(_, pid)| pid.parse::<u32>().ok())
            {
                // Malformed temp name: nobody will ever rename it.
                None => true,
                Some(pid) if pid == own_pid => false,
                Some(pid) => !pid_is_alive(pid),
            };
            if orphaned {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Loads the artifact addressed by `(name, key)`, or `None` on miss,
    /// any I/O failure, or a failed verification (in which case the
    /// artifact is quarantined first — see [`Self::quarantine_dir`]).
    ///
    /// When peer hooks are installed (a sharded fleet), a local miss — a
    /// missing file *or* a quarantined corrupt one — first asks the
    /// artifact's owning shard for the framed bytes; a verified peer copy
    /// is stored locally and returned, so the expensive recomputation is
    /// skipped.
    pub fn load(&self, name: &str, key: u64) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let path = self.path_for(name, key);
        // Read as bytes: corruption can produce invalid UTF-8, which must
        // quarantine like any other verification failure (a missing file
        // stays a plain miss).
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return self.peer_fill(name, key),
        };
        if faults::inject_cache_corrupt(name, key) {
            corrupt_in_place(&mut bytes);
        }
        match std::str::from_utf8(&bytes)
            .map_err(|_| "not UTF-8".to_string())
            .and_then(unframe_artifact)
        {
            Ok(payload) => Some(payload.to_string()),
            Err(_) => {
                self.quarantine(&path);
                self.peer_fill(name, key)
            }
        }
    }

    /// Attempts to satisfy a local miss from the owning peer shard.
    /// Returns the payload only when the fetched frame verifies; a bad
    /// frame is parked in quarantine (with a `peer-` prefix marking its
    /// provenance) and reported as a miss, the same contract as a corrupt
    /// local artifact.
    fn peer_fill(&self, name: &str, key: u64) -> Option<String> {
        let hooks = peer_hooks()?;
        match (hooks.fetch)(name, key) {
            PeerFetch::NotAttempted => None,
            PeerFetch::Miss => {
                faults::note_peer_miss();
                None
            }
            PeerFetch::Framed(raw) => match unframe_artifact(&raw) {
                Ok(payload) => {
                    let payload = payload.to_string();
                    self.store_replica(name, key, &payload);
                    faults::note_peer_hit();
                    Some(payload)
                }
                Err(_) => {
                    faults::note_peer_miss();
                    faults::note_quarantine();
                    let dir = self.quarantine_dir();
                    let file = format!("peer-{name}-{key:016x}.txt");
                    if std::fs::create_dir_all(&dir).is_ok()
                        && std::fs::write(dir.join(&file), raw).is_ok()
                    {
                        append_gen_ledger(
                            &dir.join(QUARANTINE_LEDGER),
                            current_generation(&self.root),
                            &file,
                        );
                    }
                    None
                }
            },
        }
    }

    /// Moves a failed artifact into the quarantine directory (best
    /// effort; on failure the file is removed so it cannot poison the
    /// next read either way).
    fn quarantine(&self, path: &Path) {
        faults::note_quarantine();
        mark_quarantined(path);
        let dir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&dir).is_ok()
            && path
                .file_name()
                .map(|f| std::fs::rename(path, dir.join(f)).is_ok())
                .unwrap_or(false);
        if !moved {
            let _ = std::fs::remove_file(path);
        } else if let Some(file) = path.file_name().and_then(|f| f.to_str()) {
            // Stamp the quarantined artifact with the store generation it
            // arrived at, so the store-open reaper can age it out.
            append_gen_ledger(
                &dir.join(QUARANTINE_LEDGER),
                current_generation(&self.root),
                file,
            );
        }
    }

    /// Reaps quarantined artifacts stamped more than
    /// [`QUARANTINE_REAP_GENERATIONS`] store generations before `current`,
    /// and adopts unstamped ones (quarantined by an older binary) at
    /// `current` so they age out on schedule rather than living forever.
    fn reap_stale_quarantine(&self, current: u64) {
        let qdir = self.quarantine_dir();
        let Ok(entries) = std::fs::read_dir(&qdir) else {
            return;
        };
        let ledger_path = qdir.join(QUARANTINE_LEDGER);
        let stamped = read_gen_ledger(&ledger_path);
        let mut survivors: BTreeMap<String, u64> = BTreeMap::new();
        for entry in entries.flatten() {
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            if file == QUARANTINE_LEDGER {
                continue;
            }
            match stamped.get(file) {
                Some(&gen) if current.saturating_sub(gen) > QUARANTINE_REAP_GENERATIONS => {
                    if std::fs::remove_file(entry.path()).is_ok() {
                        faults::note_quarantine_reaped();
                    } else {
                        survivors.insert(file.to_string(), gen);
                    }
                }
                Some(&gen) => {
                    survivors.insert(file.to_string(), gen);
                }
                None => {
                    survivors.insert(file.to_string(), current);
                }
            }
        }
        rewrite_gen_ledger(&ledger_path, &survivors);
    }

    /// Stores an artifact (framed with the version + checksum header).
    /// Returns whether the artifact is on disk afterwards; failures are
    /// silent by contract (a cache must never fail the flow). When peer
    /// hooks are installed, a successful store also offers the artifact to
    /// its ring-owner shard so later misses elsewhere hit there.
    pub fn store(&self, name: &str, key: u64, text: &str) -> bool {
        let stored = self.store_replica(name, key, text);
        if stored {
            if let Some(hooks) = peer_hooks() {
                (hooks.push)(name, key, text);
            }
        }
        stored
    }

    /// Stores an artifact *without* invoking the peer push hook. Peer-fill
    /// and the peer-store endpoint use this so a pushed artifact can never
    /// trigger a push chain (the owner would otherwise re-offer what it
    /// just received).
    ///
    /// The write is crash-consistent: framed bytes go to a temp file,
    /// `fsync`, then an atomic rename audited against the framed length —
    /// a torn final artifact can only mean filesystem corruption, which
    /// the read-side checksum still catches. A synthetic ENOSPC from the
    /// `disk_full=` fault kind fails the store silently, the same
    /// failures-are-misses contract as a real full disk.
    pub fn store_replica(&self, name: &str, key: u64, text: &str) -> bool {
        if !self.enabled {
            return false;
        }
        if faults::inject_disk_full(&format!("{name}-{key:016x}")) {
            return false;
        }
        if std::fs::create_dir_all(&self.root).is_err() {
            return false;
        }
        let final_path = self.path_for(name, key);
        let framed = frame_artifact(text);
        let tmp = self
            .root
            .join(format!(".tmp-{name}-{key:016x}-{}", std::process::id()));
        if !write_durable(&tmp, framed.as_bytes()) {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        if std::fs::rename(&tmp, &final_path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return final_path.exists();
        }
        // Rename audit: the bytes at the final address must be the frame
        // we just synced, not a leftover from a racing writer of a
        // different length. (Same-length racers wrote the same frame —
        // keys are content-addressed.)
        let audited = std::fs::metadata(&final_path)
            .map(|m| m.len() == framed.len() as u64)
            .unwrap_or(false);
        if !audited {
            return false;
        }
        let file = format!("{name}-{key:016x}.txt");
        append_gen_ledger(
            &self.root.join(LEDGER_FILE),
            bump_generation(&self.root),
            &file,
        );
        if take_quarantined(&final_path) {
            faults::note_rebuilt();
        }
        self.enforce_budget(&file);
        true
    }

    /// Evicts lowest-generation artifacts until the root's `*.txt`
    /// footprint fits the budget. `keep` (the artifact just stored) and
    /// any entry whose single-flight lock is held — the working set of an
    /// in-flight plan — are never evicted, so a tight budget degrades hit
    /// rate, never correctness.
    fn enforce_budget(&self, keep: &str) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        let mut files: Vec<(String, u64)> = Vec::new();
        for entry in entries.flatten() {
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            if !file.ends_with(".txt") {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    files.push((file.to_string(), meta.len()));
                }
            }
        }
        let mut total: u64 = files.iter().map(|(_, size)| size).sum();
        if total <= budget {
            return;
        }
        let mut ledger = ledger_generations(&self.root);
        let pinned = crate::memo::pinned_files(&self.root);
        // Oldest generation first; entries predating the ledger sort
        // before everything at generation 0, ties broken by filename so
        // the order is deterministic.
        files.sort_by(|(a, _), (b, _)| {
            let (ga, gb) = (
                ledger.get(a).copied().unwrap_or(0),
                ledger.get(b).copied().unwrap_or(0),
            );
            ga.cmp(&gb).then_with(|| a.cmp(b))
        });
        for (file, size) in files {
            if total <= budget {
                break;
            }
            if file == keep || pinned.contains(&file) {
                continue;
            }
            if std::fs::remove_file(self.root.join(&file)).is_ok() {
                total -= size;
                ledger.remove(&file);
                faults::note_evicted();
            }
        }
        rewrite_gen_ledger(&self.root.join(LEDGER_FILE), &ledger);
    }
}

/// Writes bytes and syncs them to stable storage; a crash after this
/// returns cannot tear the file.
fn write_durable(path: &Path, bytes: &[u8]) -> bool {
    let Ok(mut f) = std::fs::File::create(path) else {
        return false;
    };
    f.write_all(bytes).is_ok() && f.sync_all().is_ok()
}

/// Whether a process with this pid exists (Linux: `/proc/<pid>`;
/// elsewhere conservatively assume dead — the temp file is then reaped,
/// which only costs a concurrent writer one silent re-store).
#[cfg(target_os = "linux")]
fn pid_is_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

#[cfg(not(target_os = "linux"))]
fn pid_is_alive(_pid: u32) -> bool {
    false
}

/// Frames a payload with the `bdc-artifact-v1 <fnv> <len>` header — the
/// exact bytes the cache stores and the peer-fetch protocol ships.
pub fn frame_artifact(text: &str) -> String {
    format!("{MAGIC} {:016x} {}\n{text}", fnv1a(&[text]), text.len())
}

/// Parses and verifies a framed artifact, returning the payload slice.
///
/// # Errors
/// Names the first check that failed (version, framing, length,
/// checksum): the store quarantines on any of them, and peer endpoints
/// reject the frame with this diagnostic.
pub fn unframe_artifact(raw: &str) -> Result<&str, String> {
    let (header, payload) = raw
        .split_once('\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let mut parts = header.split(' ');
    let (magic, sum, len) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(s), Some(l), None) => (m, s, l),
        _ => return Err("malformed header".into()),
    };
    if magic != MAGIC {
        return Err(format!("version skew: `{magic}` != `{MAGIC}`"));
    }
    let expect_sum =
        u64::from_str_radix(sum, 16).map_err(|_| "unparseable checksum".to_string())?;
    let expect_len: usize = len.parse().map_err(|_| "unparseable length".to_string())?;
    if payload.len() != expect_len {
        return Err(format!(
            "truncated: payload {} bytes, header says {expect_len}",
            payload.len()
        ));
    }
    if fnv1a(&[payload]) != expect_sum {
        return Err("checksum mismatch".into());
    }
    Ok(payload)
}

/// Flips the low bit of the last byte (for injected read corruption) —
/// past the header, so the failure surfaces as a checksum mismatch,
/// exactly what real media corruption looks like. An empty file fails
/// framing instead.
fn corrupt_in_place(bytes: &mut [u8]) {
    if let Some(last) = bytes.last_mut() {
        *last ^= 0x01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("bdc-exec-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    /// Tests that assert on quarantine-counter deltas serialize here so a
    /// concurrently running quarantining test cannot skew the window.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn fnv_separator_disambiguates_parts() {
        assert_ne!(fnv1a(&["ab", "c"]), fnv1a(&["a", "bc"]));
        assert_ne!(fnv1a(&["a"]), fnv1a(&["a", ""]));
        assert_eq!(fnv1a(&["x", "y"]), fnv1a(&["x", "y"]));
    }

    #[test]
    fn store_then_load_round_trips() {
        let c = temp_cache("roundtrip");
        let key = fnv1a(&["organic", "v1"]);
        assert_eq!(c.load("lib", key), None);
        assert!(c.store("lib", key, "payload\nlines\n"));
        assert_eq!(c.load("lib", key).as_deref(), Some("payload\nlines\n"));
        // A different key misses — that is the whole invalidation story.
        assert_eq!(c.load("lib", fnv1a(&["organic", "v2"])), None);
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn disabled_cache_never_hits() {
        let c = ArtifactCache::disabled();
        assert!(!c.store("lib", 1, "x"));
        assert_eq!(c.load("lib", 1), None);
    }

    #[test]
    fn corrupt_artifact_is_quarantined_then_rebuilt() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let c = temp_cache("corrupt");
        let key = 0x1234;
        assert!(c.store("lib", key, "the real payload"));
        // Flip bytes on disk, as failing media would.
        let path = c.path_for("lib", key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let before = faults::counters();
        // The read detects the corruption, quarantines, and misses.
        assert_eq!(c.load("lib", key), None);
        assert!(!path.exists(), "corrupt artifact must leave the store");
        let quarantined: Vec<_> = std::fs::read_dir(c.quarantine_dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            quarantined.iter().any(|f| f.starts_with("lib-")),
            "{quarantined:?}"
        );
        // The rebuild stores cleanly and the second read hits.
        assert!(c.store("lib", key, "the real payload"));
        assert_eq!(c.load("lib", key).as_deref(), Some("the real payload"));
        let delta = faults::counters().since(&before);
        assert_eq!(delta.quarantined, 1);
        assert_eq!(delta.rebuilt, 1);
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn truncated_and_version_skewed_artifacts_miss() {
        // Quarantines twice; serialize so counter-delta tests stay exact.
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let c = temp_cache("skew");
        assert!(c.store("x", 1, "hello"));
        let path = c.path_for("x", 1);
        // Truncate mid-payload.
        let framed = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &framed[..framed.len() - 2]).unwrap();
        assert_eq!(c.load("x", 1), None);
        // A pre-header (legacy) artifact reads as version skew.
        assert!(c.store("x", 2, "hello"));
        std::fs::write(c.path_for("x", 2), "bare legacy payload\n").unwrap();
        assert_eq!(c.load("x", 2), None);
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn orphaned_tmp_files_are_reaped_on_open() {
        let dir = std::env::temp_dir().join(format!("bdc-exec-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An orphan from a dead pid (pid-space maxes out well below this),
        // a malformed orphan, and a live one from our own pid.
        let dead = dir.join(".tmp-lib-0000000000000001-4000000000");
        let malformed = dir.join(".tmp-lib-garbage");
        let ours = dir.join(format!(".tmp-lib-0000000000000002-{}", std::process::id()));
        for f in [&dead, &malformed, &ours] {
            std::fs::write(f, "partial").unwrap();
        }
        let c = ArtifactCache::new(&dir);
        assert!(!dead.exists(), "dead-pid orphan must be reaped");
        assert!(!malformed.exists(), "malformed orphan must be reaped");
        assert!(ours.exists(), "own in-flight tmp must survive");
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn peer_hooks_fill_misses_push_stores_and_reject_bad_frames() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let c = temp_cache("peer");
        // Hooks scoped to this test's artifact names so concurrently
        // running cache tests never observe them.
        let fetches = Arc::new(AtomicU64::new(0));
        let pushes = Arc::new(AtomicU64::new(0));
        let (f, p) = (Arc::clone(&fetches), Arc::clone(&pushes));
        install_peer_hooks(Some(PeerHooks {
            fetch: Arc::new(move |name, key| match name {
                "peerlib" => {
                    f.fetch_add(1, Ordering::Relaxed);
                    PeerFetch::Framed(frame_artifact("peer payload"))
                }
                "peerbad" => PeerFetch::Framed(format!("{MAGIC} 0000000000000000 4\nxxxx")),
                "peerdown" if key == 7 => PeerFetch::Miss,
                _ => PeerFetch::NotAttempted,
            }),
            push: Arc::new(move |name, _, _| {
                if name.starts_with("peer") {
                    p.fetch_add(1, Ordering::Relaxed);
                }
            }),
        }));

        let before = faults::counters();
        // A local miss fills from the peer, verifies, and stores locally…
        assert_eq!(c.load("peerlib", 1).as_deref(), Some("peer payload"));
        assert_eq!(fetches.load(Ordering::Relaxed), 1);
        // …so the second read is a plain local hit (no second fetch).
        assert_eq!(c.load("peerlib", 1).as_deref(), Some("peer payload"));
        assert_eq!(fetches.load(Ordering::Relaxed), 1);
        // A peer frame that fails verification is a miss, parked in
        // quarantine with its provenance in the filename.
        assert_eq!(c.load("peerbad", 2), None);
        assert!(c
            .quarantine_dir()
            .join(format!("peer-peerbad-{:016x}.txt", 2))
            .exists());
        // An owner that answers empty-handed is a counted peer miss.
        assert_eq!(c.load("peerdown", 7), None);
        // An unowned name falls through silently.
        assert_eq!(c.load("unrelated", 3), None);
        let delta = faults::counters().since(&before);
        assert_eq!(delta.peer_hits, 1);
        assert_eq!(delta.peer_misses, 2);
        assert_eq!(delta.quarantined, 1);

        // `store` offers the artifact to the owner; `store_replica` (the
        // peer-fill/endpoint path) must not, or pushes would cycle.
        assert!(c.store("peerstore", 4, "x"));
        assert!(c.store_replica("peerstore", 5, "y"));
        assert_eq!(pushes.load(Ordering::Relaxed), 1);

        install_peer_hooks(None);
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn frame_round_trips_through_the_public_wrappers() {
        let framed = frame_artifact("wire payload\n");
        assert_eq!(unframe_artifact(&framed), Ok("wire payload\n"));
        assert!(unframe_artifact("not a frame").is_err());
    }

    #[test]
    fn validate_cache_dir_accepts_creatable_paths() {
        let dir = std::env::temp_dir().join(format!("bdc-exec-validate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let nested = dir.join("a").join("b");
        assert_eq!(validate_cache_dir(&nested), Ok(nested.clone()));
        assert!(nested.is_dir());
        // Re-validating an existing directory is fine.
        assert!(validate_cache_dir(&nested).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_cache_budget_mb_accepts_positive_integers_only() {
        assert_eq!(parse_cache_budget_mb("64"), Ok(64));
        assert_eq!(parse_cache_budget_mb(" 1 "), Ok(1));
        for bad in ["", "0", "-8", "8.5", "64MB", "unbounded"] {
            let err = parse_cache_budget_mb(bad).expect_err(bad);
            assert!(err.contains("BDC_CACHE_BUDGET_MB"), "{bad}: {err}");
        }
    }

    #[test]
    fn budget_evicts_lowest_generation_first_and_restore_refreshes() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let dir = std::env::temp_dir().join(format!("bdc-exec-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // ~400-byte artifacts against a 1000-byte budget: two fit, three
        // do not.
        let c = ArtifactCache::with_budget_bytes(&dir, Some(1000));
        let payload = "x".repeat(400);
        let before = faults::counters();
        assert!(c.store("a", 1, &payload));
        assert!(c.store("b", 2, &payload));
        // Refresh `a` (re-store bumps its generation), then push over
        // budget: the LRU victim must now be `b`, not `a`.
        assert!(c.store("a", 1, &payload));
        assert!(c.store("c", 3, &payload));
        assert_eq!(c.load("b", 2), None, "oldest-generation entry evicted");
        assert_eq!(c.load("a", 1).as_deref(), Some(payload.as_str()));
        assert_eq!(c.load("c", 3).as_deref(), Some(payload.as_str()));
        let delta = faults::counters().since(&before);
        assert!(delta.evicted >= 1, "eviction must be counted");
        // The surviving footprint fits the budget.
        let total: u64 = std::fs::read_dir(c.root())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".txt"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= 1000, "footprint {total} exceeds the budget");
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn budget_never_evicts_in_flight_pins() {
        let dir = std::env::temp_dir().join(format!("bdc-exec-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = ArtifactCache::with_budget_bytes(&dir, Some(500));
        let payload = "y".repeat(400);
        assert!(c.store("pinned", 1, &payload));
        // Recompute `pinned` (an undecodable hit) under its single-flight
        // lock, as a cached stage would, and blow the budget with a second
        // store meanwhile: eviction must work around the pinned artifact.
        let survivor = crate::memo::cached_in(
            &c,
            "pinned",
            1,
            |_| None,
            |_| payload.clone(),
            || {
                assert!(c.store("other", 2, &payload));
                Ok::<_, std::convert::Infallible>(c.load("pinned", 1))
            },
        );
        assert_eq!(
            survivor,
            Ok(Some(payload)),
            "a pinned artifact must survive eviction"
        );
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn stale_quarantine_is_reaped_by_generation_age() {
        let _guard = COUNTER_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let c = temp_cache("qreap");
        assert!(c.store("lib", 1, "payload"));
        // Corrupt and load → quarantined + stamped at the current
        // generation.
        let path = c.path_for("lib", 1);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(c.load("lib", 1), None);
        let qfile = c.quarantine_dir().join(format!("lib-{:016x}.txt", 1));
        assert!(qfile.exists());

        let before = faults::counters();
        // Young: a reap at a nearby generation keeps it.
        c.reap_stale_quarantine(current_generation(c.root()) + QUARANTINE_REAP_GENERATIONS);
        assert!(qfile.exists(), "young quarantine must survive");
        // Old: a reap far in the generation future removes it.
        c.reap_stale_quarantine(current_generation(c.root()) + QUARANTINE_REAP_GENERATIONS + 2);
        assert!(!qfile.exists(), "stale quarantine must be reaped");
        let delta = faults::counters().since(&before);
        assert_eq!(delta.quarantine_reaped, 1);
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn concurrent_stores_append_whole_ledger_lines() {
        let c = temp_cache("ledger-race");
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (c, start) = (&c, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..100 {
                        assert!(c.store("race", t * 1000 + i, "payload"));
                    }
                });
            }
        });
        // Every line must be `^\d{20} \S+\.txt$`, and name each stored
        // artifact exactly once.
        let ledger = std::fs::read_to_string(c.root().join(LEDGER_FILE)).unwrap();
        let mut mentions: BTreeMap<&str, usize> = BTreeMap::new();
        for line in ledger.lines() {
            let (gen, file) = line.split_once(' ').unwrap_or((line, ""));
            let whole = gen.len() == 20
                && gen.bytes().all(|b| b.is_ascii_digit())
                && file.len() > ".txt".len()
                && file.ends_with(".txt")
                && !file.contains(char::is_whitespace);
            assert!(whole, "torn ledger line {line:?}");
            *mentions.entry(file).or_default() += 1;
        }
        let stored: Vec<String> = std::fs::read_dir(c.root())
            .unwrap()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|f| f.ends_with(".txt"))
            .collect();
        assert_eq!(stored.len(), 800);
        for file in &stored {
            assert_eq!(mentions.get(file.as_str()), Some(&1), "{file}");
        }
        assert_eq!(mentions.len(), stored.len());
        let _ = std::fs::remove_dir_all(c.root());
    }

    #[test]
    fn validate_cache_dir_rejects_with_a_diagnostic() {
        let dir =
            std::env::temp_dir().join(format!("bdc-exec-validate-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("occupied");
        std::fs::write(&file, "not a directory").unwrap();
        // A path routed *through* an existing file cannot be created.
        let err = validate_cache_dir(&file.join("sub")).expect_err("file in the way");
        assert!(err.contains("BDC_CACHE_DIR"), "{err}");
        assert!(err.contains("occupied"), "{err}");
        let err = validate_cache_dir(Path::new("")).expect_err("empty");
        assert!(err.contains("BDC_CACHE_DIR"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
