//! The concurrent project store: content-hashed cache entries keyed by
//! canonical path.
//!
//! One [`ProjectStore`] lives for the daemon's whole life. Each `.bang`
//! file gets one [`Entry`] slot; the slot survives evictions so that
//! per-path locks stay stable while the *state* inside (the parsed
//! [`Project`] with its own diagnose, compile and schedule caches, and
//! the warm [`Session`]) is rebuilt whenever the source bytes hash
//! differently.
//!
//! Locking is two-level: a brief store-wide lock to find or create the
//! slot, then a per-entry lock held for the duration of one request
//! against that project. Requests against *different* projects never
//! contend. The vendored `parking_lot` mutex is used deliberately — it
//! has no lock poisoning, so a panicking request (contained by the
//! server's `catch_unwind`) cannot wedge an entry; the poisoned *cache
//! state* is discarded explicitly via [`ProjectStore::evict`] instead.

use crate::document::parse_project;
use crate::project::Project;
use banger_exec::Session;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit over raw bytes: the content hash behind every cache
/// level. Dependency-free and stable across runs (unlike `DefaultHasher`,
/// which is randomly seeded per process).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything derived from one source snapshot. Dropped wholesale on
/// hash change or eviction — there is no partial invalidation.
pub struct EntryState {
    /// Hash of the source bytes this state was built from.
    pub source_hash: u64,
    /// The parsed project (diagnose, compile and schedule caches live
    /// inside it).
    pub project: Project,
    /// Warm executor session (parked worker pool, routing tables, slab
    /// store); opened lazily by the first `run` request.
    pub session: Option<Session>,
}

/// One per-path slot. `state: None` means cold: never built, evicted,
/// or poisoned by a panicking request.
pub struct Entry {
    /// Hash of the source bytes `state` was built from.
    pub source_hash: u64,
    /// The derived caches, absent when cold.
    pub state: Option<EntryState>,
}

impl Entry {
    /// Brings the entry in sync with the just-read source snapshot.
    /// Returns `(state, warm)` where `warm` is false when this call
    /// (re)built the project from source. Parse failures leave the
    /// entry cold so the next request retries.
    pub fn ensure(
        &mut self,
        source: &str,
        hash: u64,
        counters: &Counters,
    ) -> Result<(&mut EntryState, bool), String> {
        let stale = self.state.is_some() && self.source_hash != hash;
        if stale {
            counters.rebuilds.fetch_add(1, Ordering::Relaxed);
            self.state = None;
        }
        if let Some(ref mut state) = self.state {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((state, true));
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        let mut project = parse_project(source).map_err(|e| e.to_string())?;
        // Warm the parse-adjacent cache up front: diagnose memoizes
        // inside the Project and every command reads it.
        project.diagnose();
        self.source_hash = hash;
        self.state = Some(EntryState {
            source_hash: hash,
            project,
            session: None,
        });
        let state = self
            .state
            .as_mut()
            .ok_or("entry state vanished during rebuild")?;
        Ok((state, false))
    }
}

/// Monotonic daemon-lifetime counters, readable without any lock.
#[derive(Default)]
pub struct Counters {
    /// Requests dispatched (all verbs).
    pub requests: AtomicU64,
    /// Requests answered from a warm entry.
    pub hits: AtomicU64,
    /// Cold builds (first sight of a path, or rebuild after eviction).
    pub misses: AtomicU64,
    /// Rebuilds forced by a source-hash change (also counted in misses).
    pub rebuilds: AtomicU64,
    /// Explicit evictions (`evict` requests and panic poisoning).
    pub evictions: AtomicU64,
    /// Requests that panicked and were contained.
    pub panics: AtomicU64,
}

/// A point-in-time snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests dispatched (all verbs).
    pub requests: u64,
    /// Requests answered from a warm entry.
    pub hits: u64,
    /// Cold builds (first sight of a path, or rebuild after eviction).
    pub misses: u64,
    /// Rebuilds forced by a source-hash change (also counted in misses).
    pub rebuilds: u64,
    /// Explicit evictions (`evict` requests and panic poisoning).
    pub evictions: u64,
    /// Requests that panicked and were contained.
    pub panics: u64,
}

impl CacheStats {
    /// Renders the snapshot as the `stats` command's output.
    pub fn render(&self) -> String {
        format!(
            "requests {}  hits {}  misses {}  rebuilds {}  evictions {}  panics {}\n",
            self.requests, self.hits, self.misses, self.rebuilds, self.evictions, self.panics
        )
    }
}

/// The daemon's shared state: per-path entries plus lifetime counters.
pub struct ProjectStore {
    entries: Mutex<HashMap<PathBuf, Arc<Mutex<Entry>>>>,
    /// Lifetime counters (shared with request handlers).
    pub counters: Counters,
}

impl Default for ProjectStore {
    fn default() -> Self {
        ProjectStore::new()
    }
}

impl ProjectStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        ProjectStore {
            entries: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// Reads the current source snapshot and returns the entry slot for
    /// it: `(slot, canonical path, source text, content hash)`. The
    /// read-and-rehash *is* the invalidation probe — there is no file
    /// watcher; a stale entry is detected the moment the next request
    /// arrives. Canonicalization, which yields the store key, doubles as
    /// the per-request `stat` probe.
    #[allow(clippy::type_complexity)]
    pub fn lookup(
        &self,
        path: impl AsRef<Path>,
    ) -> io::Result<(Arc<Mutex<Entry>>, PathBuf, String, u64)> {
        let canon = path.as_ref().canonicalize()?;
        let source = std::fs::read_to_string(&canon)?;
        let hash = content_hash(source.as_bytes());
        let slot = {
            let mut map = self.entries.lock();
            Arc::clone(map.entry(canon.clone()).or_insert_with(|| {
                Arc::new(Mutex::new(Entry {
                    source_hash: 0,
                    state: None,
                }))
            }))
        };
        Ok((slot, canon, source, hash))
    }

    /// Discards the derived state for a path (the slot itself remains).
    /// Returns whether anything warm was actually dropped. Used by the
    /// `evict` verb, by panic poisoning, and by the bench to force cold
    /// measurements.
    pub fn evict(&self, path: impl AsRef<Path>) -> bool {
        let path = path.as_ref();
        let canon = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
        let slot = {
            let map = self.entries.lock();
            map.get(&canon).cloned()
        };
        match slot {
            Some(slot) => {
                let mut entry = slot.lock();
                let was_warm = entry.state.is_some();
                entry.state = None;
                if was_warm {
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                }
                was_warm
            }
            None => false,
        }
    }

    /// Snapshots the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            rebuilds: self.counters.rebuilds.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    const DESIGN: &str = "\
project store-test

machine single
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a 1
  task t1 1 prog Id
  storage r 1
  arc a -> t1
  arc t1 -> r
end

begin-program
task Id
  in a
  out r
begin
  r := a
end
end-program
";

    fn temp_bang(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("banger-store-{}-{name}.bang", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(body.as_bytes()).unwrap();
        path
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn warm_hit_then_rewrite_rebuilds() {
        let path = temp_bang("rebuild", DESIGN);
        let store = ProjectStore::new();
        let (slot, _, src, hash) = store.lookup(path.to_str().unwrap()).unwrap();
        {
            let mut entry = slot.lock();
            let (_, warm) = entry.ensure(&src, hash, &store.counters).unwrap();
            assert!(!warm, "first build is cold");
            let (_, warm) = entry.ensure(&src, hash, &store.counters).unwrap();
            assert!(warm, "same hash is a hit");
        }
        // Rewrite the file: next lookup + ensure must rebuild.
        std::fs::write(&path, DESIGN.replace("task t1 1", "task t1 2")).unwrap();
        let (slot2, _, src2, hash2) = store.lookup(path.to_str().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&slot, &slot2), "slot is stable across rewrites");
        {
            let mut entry = slot2.lock();
            let (_, warm) = entry.ensure(&src2, hash2, &store.counters).unwrap();
            assert!(!warm, "hash change forces a rebuild");
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rebuilds), (1, 2, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evict_drops_state_but_keeps_slot() {
        let path = temp_bang("evict", DESIGN);
        let store = ProjectStore::new();
        let (slot, _, src, hash) = store.lookup(path.to_str().unwrap()).unwrap();
        slot.lock().ensure(&src, hash, &store.counters).unwrap();
        assert!(store.evict(path.to_str().unwrap()));
        assert!(!store.evict(path.to_str().unwrap()), "already cold");
        assert!(slot.lock().state.is_none());
        assert_eq!(store.stats().evictions, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_failure_leaves_entry_cold() {
        let path = temp_bang("bad", "not a project at all");
        let store = ProjectStore::new();
        let (slot, _, src, hash) = store.lookup(path.to_str().unwrap()).unwrap();
        assert!(slot.lock().ensure(&src, hash, &store.counters).is_err());
        assert!(slot.lock().state.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        let store = ProjectStore::new();
        assert!(store.lookup("/nonexistent/banger-xyz.bang").is_err());
    }
}
