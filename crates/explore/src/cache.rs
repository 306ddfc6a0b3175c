//! Content-addressed memoization of sweep evaluations.
//!
//! Every (workload × design point × mapper) evaluation is keyed by a hash of
//! the *content* that determines its result — the workload descriptor, the
//! full architecture parameterization and the mapper choice — not by its
//! position in any particular sweep. Overlapping or repeated sweeps therefore
//! share results: a point evaluated once is never compiled again, whether the
//! second request comes from the same process or from a cache file persisted
//! by an earlier `plaid-dse` run.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use plaid::pipeline::{fnv1a64, MapperChoice};
use plaid_arch::DesignPoint;
use plaid_workloads::WorkloadDescriptor;

use crate::record::EvalRecord;
use crate::sweep::SweepPoint;

/// Computes the raw 64-bit content hash of a sweep point — the number behind
/// [`cache_key`]: FNV-1a ([`fnv1a64`]), stable across platforms and runs,
/// so keys are safe to persist.
///
/// The hash covers the workload identity (name, kernel, unroll, iteration
/// count), the complete architecture parameterization (class, dimensions,
/// configuration depth, communication spec — via the design point's JSON
/// form, which includes every `ArchParams` knob the builders consume) and the
/// mapper. It depends only on the point's *content*, never on its position in
/// a sweep plan, which is what makes it usable both as a cache key and as the
/// shard-assignment hash of [`crate::ShardSpec::contains`] (stable under
/// point reordering).
pub fn cache_key_hash(point: &SweepPoint) -> u64 {
    let descriptor = point.workload.descriptor();
    let canonical = format!(
        "v1|workload={}|kernel={}|unroll={}|iters={}|design={}|params={}|mapper={}",
        descriptor.name,
        descriptor.kernel,
        descriptor.unroll,
        descriptor.iterations,
        serde_json::to_string(&point.design).expect("design point serializes"),
        serde_json::to_string(&point.design.params()).expect("params serialize"),
        point.mapper.label(),
    );
    fnv1a64(canonical.as_bytes())
}

/// Computes the content-addressed cache key of a sweep point.
///
/// The key is the hex form of [`cache_key_hash`]. The `v1:` prefix versions
/// the scheme so a future format change invalidates old cache files instead
/// of aliasing them.
pub fn cache_key(point: &SweepPoint) -> String {
    format!("v1:{:016x}", cache_key_hash(point))
}

/// The identity of a cached record: the sweep point it was evaluated for.
/// A bucket holds at most one record per identity.
fn identity(record: &EvalRecord) -> (&DesignPoint, &MapperChoice, &WorkloadDescriptor) {
    (&record.design, &record.mapper, &record.workload)
}

/// Thread-safe, content-addressed result cache with hit/miss accounting.
///
/// Entries are stored in per-key *buckets*: two points whose content hashes
/// collide on the same 64-bit key coexist in one bucket (each record's full
/// identity disambiguates them) instead of evicting each other on every
/// insert.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: RwLock<HashMap<String, Vec<EvalRecord>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a cache persisted by [`ResultCache::save`] (`key -> [record,
    /// ...]`). A missing file yields an empty cache; a malformed file is an
    /// error. Whitespace between tokens is free, so a file saved in the
    /// earlier pretty-printed form, or re-indented by hand, loads to the
    /// same records.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the file exists but cannot be read or
    /// parsed.
    pub fn load(path: &Path) -> io::Result<Self> {
        if !path.exists() {
            return Ok(Self::new());
        }
        let text = std::fs::read_to_string(path)?;
        let entries: HashMap<String, Vec<EvalRecord>> = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(ResultCache {
            entries: RwLock::new(entries),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Persists the cache as compact JSON (object keyed by content hash, one
    /// bucket of identity-verified records per key, no whitespace): the
    /// bytes of `serde_json::to_string` of the entries. A cache is read by
    /// programs far more often than by eye, and indentation would make the
    /// file about three times as large; `jq .` pretty-prints it.
    ///
    /// The write is atomic: the JSON goes to a temporary file in the target's
    /// own directory which is then renamed over `path`, so a crash mid-save
    /// can never leave a truncated cache file behind for
    /// [`ResultCache::load`] to reject on every future run. The temporary
    /// file is created *next to the target* — resolved through
    /// [`Path::parent`], with an empty parent (a bare file name) meaning the
    /// current directory — rather than naively rewriting the path, so the
    /// rename never crosses a filesystem boundary and a bare-filename save
    /// from any working directory lands its temp file beside the cache.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the file cannot be written or renamed.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let entries = self.entries.read().expect("cache lock poisoned");
        let text = serde_json::to_string(&*entries)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        drop(entries);
        let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "cache path has no file name")
        })?;
        // `Path::parent` returns `Some("")` for a bare file name — an empty
        // parent means the current directory, made explicit as `.` so the
        // temp file verifiably lands beside the target.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        let tmp = parent.join(format!("{file_name}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Unions another cache's records into this one, returning how many
    /// records were *new* (an identity not previously present under its
    /// key). A record whose exact identity (workload × design × mapper)
    /// already exists is replaced by `other`'s copy — later merge inputs
    /// win — and colliding-key buckets union record-by-record, so two
    /// points sharing a 64-bit key never evict each other during a merge.
    ///
    /// This is the merge layer of sharded sweeps: shard-local caches are
    /// disjoint by construction ([`crate::ShardSpec::contains`] assigns
    /// each point to exactly one shard), so unioning them reconstructs the
    /// record set an unsharded sweep would have produced.
    pub fn union_merge(&self, other: &ResultCache) -> usize {
        // Merging a cache into itself is a no-op (union is idempotent);
        // without this check the read lock on `other` would deadlock
        // against the write lock on `self` — the same RwLock.
        if std::ptr::eq(self, other) {
            return 0;
        }
        let other_entries = other.entries.read().expect("cache lock poisoned");
        let mut entries = self.entries.write().expect("cache lock poisoned");
        let mut added = 0usize;
        for (key, bucket) in other_entries.iter() {
            let target = entries.entry(key.clone()).or_default();
            for record in bucket {
                match target.iter_mut().find(|r| identity(r) == identity(record)) {
                    Some(slot) => *slot = record.clone(),
                    None => {
                        target.push(record.clone());
                        added += 1;
                    }
                }
            }
        }
        added
    }

    /// All cached records in a canonical, content-determined order: keys
    /// ascending, and within a colliding-key bucket by serialized form. Two
    /// caches holding the same record set — regardless of the insertion or
    /// merge order that built them — return byte-identical snapshots, which
    /// is what makes merged-frontier output reproducible and lets tests
    /// compare caches for semantic equality.
    pub fn canonical_records(&self) -> Vec<EvalRecord> {
        let entries = self.entries.read().expect("cache lock poisoned");
        let mut keys: Vec<&String> = entries.keys().collect();
        keys.sort();
        let mut records = Vec::with_capacity(entries.values().map(Vec::len).sum());
        for key in keys {
            let bucket = &entries[key];
            if bucket.len() <= 1 {
                records.extend(bucket.iter().cloned());
            } else {
                let mut sorted: Vec<EvalRecord> = bucket.clone();
                sorted.sort_by_cached_key(|r| serde_json::to_string(r).expect("record serializes"));
                records.extend(sorted);
            }
        }
        records
    }

    /// Looks up a point by its content key, counting a hit or miss.
    ///
    /// The stored records' identities are verified against `point` before
    /// one is returned: a 64-bit key collision (or a corrupted/hand-edited
    /// cache file) is treated as a miss, so collisions degrade to
    /// recompilation instead of silently returning another point's result.
    pub fn lookup(&self, key: &str, point: &SweepPoint) -> Option<EvalRecord> {
        let workload = point.workload.descriptor();
        let wanted = (&point.design, &point.mapper, &workload);
        let entries = self.entries.read().expect("cache lock poisoned");
        match entries
            .get(key)
            .and_then(|bucket| bucket.iter().find(|r| identity(r) == wanted))
        {
            Some(record) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(record.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts an evaluated record into its key's bucket, replacing a stored
    /// record with the same identity and coexisting with colliding records
    /// of *different* identity (the historical behaviour overwrote them, so
    /// two colliding points evicted each other forever and one was silently
    /// lost on save).
    pub fn insert(&self, key: String, record: EvalRecord) {
        let mut entries = self.entries.write().expect("cache lock poisoned");
        let bucket = entries.entry(key).or_default();
        match bucket.iter_mut().find(|r| identity(r) == identity(&record)) {
            Some(slot) => *slot = record,
            None => bucket.push(record),
        }
    }

    /// Number of cached records (across all buckets).
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("cache lock poisoned")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry since construction (or the last
    /// [`ResultCache::reset_counters`]).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from cache (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Zeroes the hit/miss counters (entries are kept). Sweeps call this
    /// between passes so per-pass rates are meaningful.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plaid::pipeline::MapperChoice;
    use plaid_arch::{ArchClass, BwClass, CommSpec, DesignPoint, Topology};
    use plaid_workloads::find_workload;

    fn spec_point(workload: &str, comm: CommSpec) -> SweepPoint {
        SweepPoint {
            workload: find_workload(workload).unwrap(),
            design: DesignPoint {
                class: ArchClass::Plaid,
                rows: 2,
                cols: 2,
                config_entries: 16,
                comm,
            },
            mapper: MapperChoice::Plaid,
        }
    }

    #[test]
    fn keys_are_stable_and_content_sensitive() {
        let a = cache_key(&spec_point("dwconv", CommSpec::ALIGNED));
        let b = cache_key(&spec_point("dwconv", CommSpec::ALIGNED));
        assert_eq!(a, b, "same content, same key");
        let c = cache_key(&spec_point("dwconv", CommSpec::LEAN));
        assert_ne!(a, c, "different comm level, different key");
        let d = cache_key(&spec_point("fc", CommSpec::ALIGNED));
        assert_ne!(a, d, "different workload, different key");
        assert!(a.starts_with("v1:"));
    }

    #[test]
    fn cache_key_hash_is_pinned_on_the_default_plan() {
        // Shard assignment is `cache_key_hash % N`, so a change to the hash
        // moves points between shards (and with them the intra-shard
        // seeding of a sharded sweep) and orphans every persisted cache.
        let workloads: Vec<_> = plaid_workloads::table2_workloads()
            .into_iter()
            .step_by(8)
            .collect();
        let plan =
            crate::sweep::SweepPlan::cross(&workloads, &plaid_arch::SpaceSpec::default_grid());
        let first = &plan.points[0];
        assert_eq!(first.design.label(), "spatio-temporal-2x2/d8/lean");
        assert_eq!(cache_key_hash(first), 0x550e_7203_6208_9ba5);
        assert_eq!(cache_key(first), "v1:550e720362089ba5");
    }

    #[test]
    fn structured_comm_specs_never_alias_a_preset_key() {
        // Regression for the scalar-era latent bug: a key derived from a
        // 3-valued comm scalar cannot distinguish specs that share a
        // bandwidth level but differ in topology. The key must cover the
        // whole comm spec.
        let aligned = spec_point("dwconv", CommSpec::ALIGNED);
        let torus = spec_point("dwconv", CommSpec::uniform(Topology::Torus, BwClass::Base));
        let express = spec_point(
            "dwconv",
            CommSpec::uniform(Topology::Express { stride: 2 }, BwClass::Base),
        );
        let torus_half = spec_point("dwconv", CommSpec::uniform(Topology::Torus, BwClass::Half));
        let keys = [
            cache_key(&aligned),
            cache_key(&torus),
            cache_key(&express),
            cache_key(&torus_half),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "specs {i} and {j} alias one cache key");
                }
            }
        }
        // And even under a forced key collision, the bucket's identity check
        // keeps the records apart (the design embeds the full spec).
        let cache = ResultCache::new();
        cache.insert(keys[0].clone(), EvalRecord::failed(&torus, "torus"));
        assert!(
            cache.lookup(&keys[0], &aligned).is_none(),
            "a torus record must never serve an aligned lookup"
        );
    }

    #[test]
    fn hit_miss_accounting() {
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let key = cache_key(&p);
        assert!(cache.lookup(&key, &p).is_none());
        assert_eq!(cache.misses(), 1);
        let record = EvalRecord::failed(&p, "probe");
        cache.insert(key.clone(), record);
        assert!(cache.lookup(&key, &p).is_some());
        assert_eq!(cache.hits(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        cache.reset_counters();
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn colliding_key_with_wrong_identity_is_a_miss() {
        // Simulate a 64-bit hash collision: a record for a *different* point
        // stored under this point's key must not be returned.
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let other = spec_point("fc", CommSpec::RICH);
        let key = cache_key(&p);
        cache.insert(key.clone(), EvalRecord::failed(&other, "imposter"));
        assert!(
            cache.lookup(&key, &p).is_none(),
            "mismatched identity served"
        );
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn colliding_points_coexist_in_one_bucket() {
        // Regression: the historical cache stored one record per key, so on
        // a 64-bit collision `insert` overwrote the other point's entry and
        // the two points evicted each other forever.
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let other = spec_point("fc", CommSpec::RICH);
        let key = cache_key(&p);
        cache.insert(key.clone(), EvalRecord::failed(&p, "mine"));
        cache.insert(key.clone(), EvalRecord::failed(&other, "collider"));
        assert_eq!(cache.len(), 2, "both colliding records retained");
        let got_p = cache.lookup(&key, &p).expect("first record kept");
        assert_eq!(got_p.error.as_deref(), Some("mine"));
        let got_other = cache.lookup(&key, &other).expect("collider kept");
        assert_eq!(got_other.error.as_deref(), Some("collider"));
        // Same-identity insert replaces rather than appending.
        cache.insert(key.clone(), EvalRecord::failed(&p, "updated"));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup(&key, &p).unwrap().error.as_deref(),
            Some("updated")
        );
        // Both survive persistence.
        let dir = std::env::temp_dir().join("plaid-explore-collision-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert!(reloaded.lookup(&key, &p).is_some());
        assert!(reloaded.lookup(&key, &other).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn union_merge_unions_buckets_and_self_merge_is_a_noop() {
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let other_point = spec_point("fc", CommSpec::RICH);
        let key = cache_key(&p);
        cache.insert(key.clone(), EvalRecord::failed(&p, "mine"));
        // Self-merge must neither deadlock nor duplicate.
        assert_eq!(cache.union_merge(&cache), 0);
        assert_eq!(cache.len(), 1);
        // A colliding record of different identity arriving from another
        // cache joins the bucket instead of evicting.
        let incoming = ResultCache::new();
        incoming.insert(key.clone(), EvalRecord::failed(&other_point, "collider"));
        incoming.insert(key.clone(), EvalRecord::failed(&p, "updated"));
        assert_eq!(cache.union_merge(&incoming), 1, "only the collider is new");
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup(&key, &p).unwrap().error.as_deref(),
            Some("updated"),
            "same identity replaced by the merge input"
        );
        assert_eq!(
            cache.lookup(&key, &other_point).unwrap().error.as_deref(),
            Some("collider")
        );
        // Canonical snapshots are identical however the records arrived.
        let rebuilt = ResultCache::new();
        rebuilt.insert(key.clone(), EvalRecord::failed(&other_point, "collider"));
        rebuilt.insert(key, EvalRecord::failed(&p, "updated"));
        assert_eq!(cache.canonical_records(), rebuilt.canonical_records());
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::LEAN);
        cache.insert(cache_key(&p), EvalRecord::failed(&p, "v1"));
        let dir = std::env::temp_dir().join("plaid-explore-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        // Overwriting an existing file goes through the same tmp+rename.
        cache.insert(cache_key(&p), EvalRecord::failed(&p, "v2"));
        cache.save(&path).unwrap();
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(
            reloaded
                .lookup(&cache_key(&p), &p)
                .unwrap()
                .error
                .as_deref(),
            Some("v2")
        );
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flat_and_truncated_cache_files_are_invalid_data() {
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let key = cache_key(&p);
        let record = serde_json::to_string(&EvalRecord::failed(&p, "flat")).unwrap();
        let dir = std::env::temp_dir().join("plaid-explore-invalid-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        // The flat `key -> record` layout written before collision buckets
        // existed, and a file cut off mid-record.
        let bucketed = format!("{{\"{key}\": [{record}]}}");
        for text in [
            format!("{{\"{key}\": {record}}}"),
            bucketed[..bucketed.len() / 2].to_string(),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = ResultCache::load(&path).expect_err("malformed cache loaded");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seeds_with_fields_no_longer_captured_still_load() {
        // A record cached while seeds still carried each placement's
        // `fu_ordinal` and the seed's `fu_count`: loading reads declared
        // fields only, so the stale extras are ignored.
        let p = spec_point("dwconv", CommSpec::ALIGNED);
        let (record, _) = crate::sweep::evaluate_point(
            &p,
            &Default::default(),
            &Default::default(),
            &ResultCache::new(),
            None,
        );
        assert!(record.summary.as_ref().is_some_and(|s| s.seed.is_some()));
        let stale = serde_json::to_string(&record)
            .unwrap()
            .replace("\"canonical\":", "\"fu_count\":16,\"canonical\":")
            .replace("\"fu\":", "\"fu_ordinal\":0,\"fu\":");
        assert!(stale.contains("fu_ordinal") && stale.contains("fu_count"));
        let key = cache_key(&p);
        let dir = std::env::temp_dir().join("plaid-explore-stale-seed-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, format!("{{\"{key}\": [{stale}]}}")).unwrap();
        let cache = ResultCache::load(&path).expect("stale seed fields are ignored");
        assert_eq!(cache.lookup(&key, &p), Some(record));
        std::fs::remove_file(&path).ok();
    }

    /// A cache of a mapped point, placement seed included, and a failed one.
    fn evaluated_cache() -> ResultCache {
        let cache = ResultCache::new();
        let mapped = spec_point("dwconv", CommSpec::ALIGNED);
        let (record, _) = crate::sweep::evaluate_point(
            &mapped,
            &Default::default(),
            &Default::default(),
            &cache,
            None,
        );
        assert!(record.summary.as_ref().is_some_and(|s| s.seed.is_some()));
        cache.insert(cache_key(&mapped), record);
        let failed = spec_point("fc", CommSpec::LEAN);
        cache.insert(cache_key(&failed), EvalRecord::failed(&failed, "lean"));
        cache
    }

    #[test]
    fn save_writes_the_compact_json_of_the_entries() {
        let cache = evaluated_cache();
        let dir = std::env::temp_dir().join("plaid-explore-compact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let compact = serde_json::to_string(&*cache.entries.read().unwrap()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), compact);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pretty_caches_load_unchanged_and_resave_compact() {
        // Caches were saved two-space indented before the compact form.
        let cache = evaluated_cache();
        let dir = std::env::temp_dir().join("plaid-explore-pretty-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (pretty, compact, resaved) = (
            dir.join("pretty.json"),
            dir.join("compact.json"),
            dir.join("resaved.json"),
        );
        let old = serde_json::to_string_pretty(&*cache.entries.read().unwrap()).unwrap();
        std::fs::write(&pretty, old).unwrap();
        cache.save(&compact).unwrap();
        let from_pretty = ResultCache::load(&pretty).unwrap();
        assert_eq!(
            from_pretty.canonical_records(),
            ResultCache::load(&compact).unwrap().canonical_records()
        );
        assert_eq!(from_pretty.canonical_records(), cache.canonical_records());
        from_pretty.save(&resaved).unwrap();
        assert_eq!(
            std::fs::read(&resaved).unwrap(),
            std::fs::read(&compact).unwrap()
        );
        for path in [pretty, compact, resaved] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn save_and_load_round_trip() {
        let cache = ResultCache::new();
        let p = spec_point("dwconv", CommSpec::RICH);
        let key = cache_key(&p);
        cache.insert(key.clone(), EvalRecord::failed(&p, "persisted"));
        let dir = std::env::temp_dir().join("plaid-explore-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let reloaded = ResultCache::load(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert!(reloaded.lookup(&key, &p).is_some());
        std::fs::remove_file(&path).ok();
        // Missing file loads as empty.
        let empty = ResultCache::load(&dir.join("nonexistent.json")).unwrap();
        assert!(empty.is_empty());
    }
}
