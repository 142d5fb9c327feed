//! The one caching path every flow stage shares: a per-key single-flight
//! memo table ([`MemoTable`]) and the artifact-store entry point built on
//! it ([`cached`]).
//!
//! A stage supplies only what is specific to it — its artifact name and
//! key, a codec, and the computation. Everything else (the shared store,
//! single-flight, decode-failure-is-a-miss, stage accounting, the store
//! write) lives here once.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::cache::ArtifactCache;
use crate::stages::note_stage;

/// One key's slot: its `Mutex` is the key's single-flight lock, and the
/// `Option` holds the memoized value once a computation succeeds.
type Slot<V> = Arc<Mutex<Option<V>>>;

/// A per-key single-flight memo table, usable as a `static`.
///
/// The table lock is held only to fetch a key's slot; the computation
/// runs under that slot's own lock. So N callers of one key compute once
/// (the rest block, then read the value), while callers of distinct keys
/// compute concurrently. An `Err` is never memoized: the next caller of
/// that key computes again. Entries are never evicted; a table is bounded
/// by the distinct keys a process touches.
pub struct MemoTable<K, V> {
    slots: Mutex<BTreeMap<K, Slot<V>>>,
}

impl<K: Ord + Clone, V: Clone> MemoTable<K, V> {
    /// An empty table.
    pub const fn new() -> Self {
        MemoTable {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    fn slot(&self, key: K) -> Slot<V> {
        self.slots
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(key)
            .or_default()
            .clone()
    }

    /// The value memoized under `key`, or `compute`'s, memoized on `Ok`.
    ///
    /// # Errors
    /// Propagates `compute`'s error, leaving the key unmemoized.
    pub fn get_or_try<E>(&self, key: K, compute: impl FnOnce() -> Result<V, E>) -> Result<V, E> {
        let slot = self.slot(key);
        let mut value = slot.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(hit) = value.as_ref() {
            return Ok(hit.clone());
        }
        let fresh = compute()?;
        *value = Some(fresh.clone());
        Ok(fresh)
    }

    /// [`MemoTable::get_or_try`] for an infallible computation.
    pub fn get_or_init(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let Ok(value) = self.get_or_try(key, || Ok::<_, Infallible>(compute()));
        value
    }
}

impl<K: Ord + Clone, V: Clone> Default for MemoTable<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One artifact's `(root, name, key)` address.
type ArtifactAddr = (PathBuf, String, u64);

/// The artifact single-flight: [`cached`] holds an artifact's slot lock
/// across load → compute → store, so when N workers miss one key at once,
/// one computes and the rest block briefly and then load the stored
/// artifact — a hit, not N duplicate computations. No value is ever
/// memoized here; the store is the memo.
static FLIGHTS: MemoTable<ArtifactAddr, ()> = MemoTable::new();

/// Artifact filenames under `root` whose single-flight lock is held right
/// now — exactly the keys pinned by in-flight computations, which the
/// store's disk budget never evicts.
pub(crate) fn pinned_files(root: &Path) -> BTreeSet<String> {
    FLIGHTS
        .slots
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .filter(|((r, _, _), slot)| r == root && slot.try_lock().is_err())
        .map(|((_, name, key), _)| format!("{name}-{key:016x}.txt"))
        .collect()
}

/// The cached value of artifact `(name, key)` in the shared store
/// ([`ArtifactCache::shared`]), computing and storing it on a miss.
///
/// A stored artifact that fails `decode` is a miss: it is recomputed and
/// rewritten. Every call records exactly one [`note_stage`] hit or miss
/// under `name`, and concurrent calls for one artifact are
/// single-flighted. A disabled store (`BDC_NO_CACHE`) computes on every
/// call. An `Err` from `compute` is returned and nothing is stored.
///
/// # Errors
/// Propagates `compute`'s error.
pub fn cached<T, E>(
    name: &str,
    key: u64,
    decode: impl FnOnce(&str) -> Option<T>,
    encode: impl FnOnce(&T) -> String,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    cached_in(&ArtifactCache::shared(), name, key, decode, encode, compute)
}

/// [`cached`] against an explicit store.
pub(crate) fn cached_in<T, E>(
    store: &ArtifactCache,
    name: &str,
    key: u64,
    decode: impl FnOnce(&str) -> Option<T>,
    encode: impl FnOnce(&T) -> String,
    compute: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    let flight = FLIGHTS.slot((store.root().to_path_buf(), name.to_string(), key));
    let _in_flight = flight.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(hit) = store.load(name, key).and_then(|text| decode(&text)) {
        note_stage(name, true);
        return Ok(hit);
    }
    note_stage(name, false);
    let value = compute()?;
    store.store(name, key, &encode(&value));
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::stage_counters;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::Duration;

    fn temp_store(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("bdc-exec-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    /// A stage name no other test records under.
    fn stage(tag: &str) -> String {
        format!("memo-test-{tag}-{:x}", std::process::id())
    }

    fn tally(name: &str) -> (u64, u64) {
        stage_counters().get(name).copied().unwrap_or((0, 0))
    }

    fn decode_u64(text: &str) -> Option<u64> {
        text.strip_prefix("v1 ")?.parse().ok()
    }

    fn encode_u64(v: &u64) -> String {
        format!("v1 {v}")
    }

    /// Runs `calls` sequential [`cached_in`] calls for one artifact whose
    /// compute yields 9, returning how many of them computed.
    fn cached_calls(store: &ArtifactCache, name: &str, calls: usize) -> usize {
        let computes = AtomicUsize::new(0);
        for _ in 0..calls {
            let got = cached_in(store, name, 1, decode_u64, encode_u64, || {
                computes.fetch_add(1, Ordering::SeqCst);
                Ok::<_, Infallible>(9)
            });
            assert_eq!(got, Ok(9));
        }
        computes.into_inner()
    }

    #[test]
    fn one_key_computes_once_under_many_threads() {
        let table: MemoTable<u32, u64> = MemoTable::new();
        let computes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = table.get_or_init(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        42
                    });
                    assert_eq!(v, 42);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn distinct_keys_compute_concurrently() {
        // A two-party barrier with a timeout: each compute arrives, then
        // waits for the other. Under a table-wide lock the second compute
        // could not start while the first waits, so the first would time out.
        let arrived = Mutex::new(0usize);
        let all_here = Condvar::new();
        let rendezvous = || {
            let mut n = arrived.lock().unwrap();
            *n += 1;
            all_here.notify_all();
            let waited = all_here.wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2);
            !waited.unwrap().1.timed_out()
        };
        let table: MemoTable<u32, bool> = MemoTable::new();
        let met = std::thread::scope(|s| {
            let first = s.spawn(|| table.get_or_init(1, rendezvous));
            let second = s.spawn(|| table.get_or_init(2, rendezvous));
            [first.join().unwrap(), second.join().unwrap()]
        });
        assert_eq!(met, [true, true], "distinct keys serialized");
    }

    #[test]
    fn errors_are_not_memoized() {
        let table: MemoTable<u32, u64> = MemoTable::new();
        assert_eq!(table.get_or_try(1, || Err("transient")), Err("transient"));
        assert_eq!(table.get_or_try(1, || Ok::<_, &str>(5)), Ok(5));
        assert_eq!(table.get_or_try(1, || Err("unreached")), Ok(5));
    }

    #[test]
    fn cached_notes_one_stage_per_call_and_hits_after_the_first() {
        let store = temp_store("tally");
        let name = stage("tally");
        assert_eq!(cached_calls(&store, &name, 3), 1);
        assert_eq!(tally(&name), (2, 1));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn undecodable_artifact_is_one_miss_then_rewritten() {
        let store = temp_store("undecodable");
        let name = stage("undecodable");
        assert!(store.store(&name, 1, "v0 stale format"));
        assert_eq!(cached_calls(&store, &name, 1), 1);
        assert_eq!(tally(&name), (0, 1));
        assert_eq!(store.load(&name, 1).as_deref(), Some("v1 9"));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn disabled_store_computes_every_call() {
        let name = stage("disabled");
        assert_eq!(cached_calls(&ArtifactCache::disabled(), &name, 3), 3);
        assert_eq!(tally(&name), (0, 3));
    }
}
