//! The content-addressed result store.
//!
//! One directory per spec hash under the cache root:
//!
//! ```text
//! <cache-dir>/
//!   manifest.jsonl              version line + one line per entry
//!   <16-hex-hash>/
//!     spec.toml                 the canonical spec
//!     report.jsonl              the canonicalized run report
//! ```
//!
//! Snapshot discipline throughout: every file is written to a `.tmp`
//! sibling and atomically renamed into place, so a crash mid-write
//! leaves either the old bytes or the new bytes, never a torn file.
//! The manifest leads with a version line
//! (`{"kind":"serve_manifest","version":2}`) and is rewritten — also
//! atomically — on every mutation; entry count is bounded, so the
//! rewrite is cheap.
//!
//! Eviction is least-recently-used over *logical* sequence numbers: the
//! store stamps each touch with a monotonic counter persisted in the
//! manifest, never a wall clock (the workspace no-clock rule applies —
//! and logical time makes eviction order reproducible in tests).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use hotspots_scenario::HotspotsError;
use hotspots_telemetry::hash::{format_hash, parse_hash};
use hotspots_telemetry::json::{self, Json};

/// The manifest schema version this build reads and writes. Bumped
/// whenever the canonical spec form changes, because every content
/// address moves with it: version 1 caches hold specs with
/// `sim.threads`, and on study specs engine sections, which no longer
/// parse or hash the same.
pub const MANIFEST_VERSION: u64 = 2;

/// One cached entry: the spec's `meta.name` and its LRU stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    name: String,
    last_used: u64,
}

/// The content-addressed, LRU-bounded result store.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    max_entries: usize,
    /// Next logical timestamp; strictly greater than any `last_used`.
    seq: u64,
    entries: BTreeMap<u64, Entry>,
    evictions: u64,
}

fn io_err(context: impl Into<String>, source: io::Error) -> HotspotsError {
    HotspotsError::Io {
        context: context.into(),
        source,
    }
}

fn data_err(context: impl Into<String>, message: impl Into<String>) -> HotspotsError {
    HotspotsError::Io {
        context: context.into(),
        source: io::Error::new(io::ErrorKind::InvalidData, message.into()),
    }
}

/// Writes `bytes` to `path` via a `.tmp` sibling and atomic rename.
fn atomic_write(path: &Path, bytes: &str) -> Result<(), HotspotsError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| io_err(format!("writing {}", tmp.display()), e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(format!("renaming {} into place", tmp.display()), e))
}

impl ResultStore {
    /// Opens (or initializes) the store rooted at `dir`, replaying the
    /// manifest if one exists. Manifest entries whose directory, or
    /// either file in it, has vanished are dropped silently; `max_entries` is enforced on the
    /// next insert, not retroactively at open.
    ///
    /// # Errors
    ///
    /// I/O failure creating the root or reading the manifest, or a
    /// manifest whose version line this build does not understand.
    pub fn open(dir: &Path, max_entries: usize) -> Result<ResultStore, HotspotsError> {
        fs::create_dir_all(dir).map_err(|e| io_err(format!("creating {}", dir.display()), e))?;
        let mut store = ResultStore {
            dir: dir.to_path_buf(),
            max_entries: max_entries.max(1),
            seq: 1,
            entries: BTreeMap::new(),
            evictions: 0,
        };
        let manifest = store.manifest_path();
        let text = match fs::read_to_string(&manifest) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(io_err(format!("reading {}", manifest.display()), e)),
        };
        let context = || format!("parsing {}", manifest.display());
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| data_err(context(), "empty manifest"))?;
        let doc = json::parse(header).map_err(|e| data_err(context(), e.to_string()))?;
        if doc.get("kind").and_then(Json::as_str) != Some("serve_manifest") {
            return Err(data_err(
                context(),
                "first line is not a serve_manifest header",
            ));
        }
        match doc.get("version").and_then(Json::as_u64) {
            Some(MANIFEST_VERSION) => {}
            Some(v) => {
                return Err(data_err(
                    context(),
                    format!("manifest version {v} (this build reads {MANIFEST_VERSION})"),
                ))
            }
            None => return Err(data_err(context(), "header has no version field")),
        }
        for line in lines {
            let doc = json::parse(line).map_err(|e| data_err(context(), e.to_string()))?;
            let hash = doc
                .get("hash")
                .and_then(Json::as_str)
                .and_then(parse_hash)
                .ok_or_else(|| data_err(context(), format!("bad entry hash in {line:?}")))?;
            let name = doc
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| data_err(context(), format!("entry without a name in {line:?}")))?
                .to_owned();
            let last_used = doc
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| data_err(context(), format!("entry without a seq in {line:?}")))?;
            // An eviction cut short can leave part of the entry dir:
            // adopt only entries whose files are both in place.
            let dir = store.entry_dir(hash);
            if ["spec.toml", "report.jsonl"]
                .iter()
                .all(|f| dir.join(f).is_file())
            {
                store.seq = store.seq.max(last_used + 1);
                store.entries.insert(hash, Entry { name, last_used });
            }
        }
        Ok(store)
    }

    /// The cache root this store writes under.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the LRU policy over this store's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// True when `hash` is cached.
    #[must_use]
    pub fn contains(&self, hash: u64) -> bool {
        self.entries.contains_key(&hash)
    }

    /// The cached hashes with their spec names, in hash order.
    #[must_use]
    pub fn hashes(&self) -> Vec<(u64, String)> {
        self.entries
            .iter()
            .map(|(h, e)| (*h, e.name.clone()))
            .collect()
    }

    /// Reads the cached report for `hash`, stamping it most recently
    /// used. Returns `Ok(None)` on a miss.
    ///
    /// # Errors
    ///
    /// I/O failure reading the entry or rewriting the manifest.
    pub fn get(&mut self, hash: u64) -> Result<Option<String>, HotspotsError> {
        if !self.entries.contains_key(&hash) {
            return Ok(None);
        }
        let report = self.read_report(hash)?;
        let stamp = self.seq;
        self.seq += 1;
        if let Some(entry) = self.entries.get_mut(&hash) {
            entry.last_used = stamp;
        }
        self.write_manifest()?;
        Ok(Some(report))
    }

    /// Reads the cached report bytes without touching LRU state (used
    /// by `serve --check`, which must not reorder eviction history).
    ///
    /// # Errors
    ///
    /// I/O failure, including `hash` not being cached.
    pub fn read_report(&self, hash: u64) -> Result<String, HotspotsError> {
        let path = self.entry_dir(hash).join("report.jsonl");
        fs::read_to_string(&path).map_err(|e| io_err(format!("reading {}", path.display()), e))
    }

    /// Reads the canonical spec for `hash` without touching LRU state.
    ///
    /// # Errors
    ///
    /// I/O failure, including `hash` not being cached.
    pub fn read_spec(&self, hash: u64) -> Result<String, HotspotsError> {
        let path = self.entry_dir(hash).join("spec.toml");
        fs::read_to_string(&path).map_err(|e| io_err(format!("reading {}", path.display()), e))
    }

    /// Inserts an entry: writes `spec.toml` and `report.jsonl` under
    /// the hash directory (temp file + atomic rename each), stamps it
    /// most recently used, evicts least-recently-used entries past
    /// `max_entries`, and rewrites the manifest. Reinserting an
    /// existing hash refreshes its bytes and stamp.
    ///
    /// # Errors
    ///
    /// I/O failure writing the entry, evicting, or rewriting the
    /// manifest.
    pub fn insert(
        &mut self,
        hash: u64,
        name: &str,
        spec_toml: &str,
        report_jsonl: &str,
    ) -> Result<(), HotspotsError> {
        let dir = self.entry_dir(hash);
        fs::create_dir_all(&dir).map_err(|e| io_err(format!("creating {}", dir.display()), e))?;
        atomic_write(&dir.join("spec.toml"), spec_toml)?;
        atomic_write(&dir.join("report.jsonl"), report_jsonl)?;
        let stamp = self.seq;
        self.seq += 1;
        self.entries.insert(
            hash,
            Entry {
                name: name.to_owned(),
                last_used: stamp,
            },
        );
        while self.entries.len() > self.max_entries {
            self.evict_lru()?;
        }
        self.write_manifest()
    }

    /// Removes the least-recently-used entry (smallest logical stamp).
    fn evict_lru(&mut self) -> Result<(), HotspotsError> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(h, _)| *h);
        let Some(hash) = victim else { return Ok(()) };
        let dir = self.entry_dir(hash);
        fs::remove_dir_all(&dir).map_err(|e| io_err(format!("evicting {}", dir.display()), e))?;
        self.entries.remove(&hash);
        self.evictions += 1;
        Ok(())
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.jsonl")
    }

    fn entry_dir(&self, hash: u64) -> PathBuf {
        self.dir.join(format_hash(hash))
    }

    /// Rewrites the manifest atomically: header line, then entries in
    /// hash order (deterministic bytes for a given store state).
    fn write_manifest(&self) -> Result<(), HotspotsError> {
        let mut out = format!("{{\"kind\":\"serve_manifest\",\"version\":{MANIFEST_VERSION}}}\n");
        for (hash, entry) in &self.entries {
            out.push_str("{\"hash\":\"");
            out.push_str(&format_hash(*hash));
            out.push_str("\",\"name\":");
            json::write_str(&mut out, &entry.name);
            out.push_str(",\"seq\":");
            out.push_str(&entry.last_used.to_string());
            out.push_str("}\n");
        }
        atomic_write(&self.manifest_path(), &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{check, ServeConfig};
    use hotspots_scenario::{run_spec, RunContext, ScenarioSpec};

    fn temp_store(label: &str, max_entries: usize) -> (PathBuf, ResultStore) {
        let dir =
            std::env::temp_dir().join(format!("hotspots-store-{label}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let store = ResultStore::open(&dir, max_entries).expect("open");
        (dir, store)
    }

    #[test]
    fn insert_get_round_trips_and_persists() {
        let (dir, mut store) = temp_store("roundtrip", 8);
        store
            .insert(7, "fig2", "[meta]\n", "{\"kind\":\"run_report\"}")
            .expect("insert");
        assert_eq!(
            store.get(7).expect("get"),
            Some("{\"kind\":\"run_report\"}".to_owned())
        );
        assert_eq!(store.get(8).expect("get"), None);

        // a fresh open replays the manifest
        let mut reopened = ResultStore::open(&dir, 8).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert!(reopened.contains(7));
        assert_eq!(
            reopened.get(7).expect("get"),
            Some("{\"kind\":\"run_report\"}".to_owned())
        );
        assert_eq!(reopened.read_spec(7).expect("spec"), "[meta]\n");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let (dir, mut store) = temp_store("lru", 2);
        store.insert(1, "a", "a", "ra").expect("insert");
        store.insert(2, "b", "b", "rb").expect("insert");
        // touch 1 so 2 becomes the LRU victim
        store.get(1).expect("get");
        store.insert(3, "c", "c", "rc").expect("insert");
        assert_eq!(store.len(), 2);
        assert!(store.contains(1), "recently-used entry survived");
        assert!(!store.contains(2), "LRU entry evicted");
        assert!(store.contains(3));
        assert_eq!(store.evictions(), 1);
        assert!(!dir.join(format_hash(2)).exists(), "evicted dir removed");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn eviction_order_survives_reopen() {
        let (dir, mut store) = temp_store("lru-reopen", 2);
        store.insert(1, "a", "a", "ra").expect("insert");
        store.insert(2, "b", "b", "rb").expect("insert");
        store.get(1).expect("get");
        drop(store);
        // logical stamps persisted: 2 is still the victim after reopen
        let mut store = ResultStore::open(&dir, 2).expect("reopen");
        store.insert(3, "c", "c", "rc").expect("insert");
        assert!(store.contains(1) && store.contains(3) && !store.contains(2));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_manifest_versions_are_rejected() {
        // 1: a cache keyed by the older canonical spec form
        for version in [1, 999] {
            let (dir, store) = temp_store("version", 2);
            drop(store);
            fs::write(
                dir.join("manifest.jsonl"),
                format!("{{\"kind\":\"serve_manifest\",\"version\":{version}}}\n"),
            )
            .expect("write");
            let err = ResultStore::open(&dir, 2).expect_err("another version must not open");
            assert!(
                err.to_string().contains(&format!("version {version}")),
                "{err}"
            );
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn manifest_entries_with_missing_dirs_are_dropped() {
        let (dir, mut store) = temp_store("missing", 4);
        store.insert(1, "a", "a", "ra").expect("insert");
        store.insert(2, "b", "b", "rb").expect("insert");
        drop(store);
        fs::remove_dir_all(dir.join(format_hash(1))).expect("remove entry dir");
        let store = ResultStore::open(&dir, 4).expect("reopen");
        assert!(!store.contains(1));
        assert!(store.contains(2));
        fs::remove_dir_all(&dir).ok();
    }

    /// A spec that runs in milliseconds, for entries `check` re-runs.
    const TINY_SPEC: &str = "[meta]\nname = \"store-crash\"\n\n[worm]\nkind = \"uniform\"\n\n\
        [population]\nkind = \"range\"\nbase = \"10.0.0.0\"\ncount = 64\nstride = 1\n\n\
        [sim]\nscan_rate = 10.0\nseeds = 2\ndt = 1.0\nmax_time = 5.0\nrng_seed = 7\n";

    /// Lists a directory's file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("read dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        names.sort();
        names
    }

    /// Each write an insert, an eviction or a manifest rewrite makes is
    /// a `.tmp` sibling renamed into place, so a crash leaves one of
    /// the states below. From each, the store must open, answer a
    /// lookup (a miss or the stored report, never an error), take the
    /// same spec again, and pass `check` clean, with no `.tmp` file
    /// left behind.
    #[test]
    fn every_crash_point_reopens_and_checks_clean() {
        type Crash = fn(&Path, &Path, &str, &str);
        let spec = ScenarioSpec::from_toml(TINY_SPEC).expect("tiny spec parses");
        let (hash, name) = (spec.content_hash(), spec.meta.name.clone());
        let canonical = spec.canonical_toml();
        let run = run_spec(&spec, &RunContext::new("hotspots-serve")).expect("tiny spec runs");
        let report = run.report.build().canonicalized().to_jsonl();
        // (state, entry listed in the manifest before the crash, crash)
        let crashes: [(&str, bool, Crash); 6] = [
            (
                "insert died writing spec.toml",
                false,
                |_, entry, spec, _| {
                    fs::create_dir_all(entry).expect("mkdir");
                    fs::write(entry.join("spec.tmp"), &spec[..spec.len() / 2]).expect("write");
                },
            ),
            (
                "insert died writing report.jsonl",
                false,
                |_, entry, spec, report| {
                    fs::create_dir_all(entry).expect("mkdir");
                    fs::write(entry.join("spec.toml"), spec).expect("write");
                    fs::write(entry.join("report.tmp"), &report[..report.len() / 2])
                        .expect("write");
                },
            ),
            (
                "insert died before the manifest",
                false,
                |_, entry, spec, report| {
                    fs::create_dir_all(entry).expect("mkdir");
                    fs::write(entry.join("spec.toml"), spec).expect("write");
                    fs::write(entry.join("report.jsonl"), report).expect("write");
                },
            ),
            (
                "manifest rewrite died before its rename",
                true,
                |root, _, _, _| {
                    fs::write(root.join("manifest.tmp"), "{\"kind\":\"serve_man").expect("write");
                },
            ),
            (
                "eviction died before the manifest",
                true,
                |_, entry, _, _| {
                    fs::remove_dir_all(entry).expect("evict");
                },
            ),
            (
                "eviction died inside the entry dir",
                true,
                |_, entry, _, _| {
                    fs::remove_file(entry.join("report.jsonl")).expect("evict");
                },
            ),
        ];
        for (i, (state, listed, crash)) in crashes.into_iter().enumerate() {
            let (root, store) = temp_store(&format!("crash-{i}"), 4);
            let entry = root.join(format_hash(hash));
            if listed {
                let mut store = store;
                store
                    .insert(hash, &name, &canonical, &report)
                    .expect("insert");
            }
            crash(&root, &entry, &canonical, &report);

            let mut store = ResultStore::open(&root, 4).unwrap_or_else(|e| panic!("{state}: {e}"));
            match store.get(hash) {
                Ok(None) => {}
                Ok(Some(stored)) => assert_eq!(stored, report, "{state}"),
                Err(e) => panic!("{state}: lookup failed: {e}"),
            }
            store
                .insert(hash, &name, &canonical, &report)
                .unwrap_or_else(|e| panic!("{state}: re-insert failed: {e}"));
            drop(store);
            let config = ServeConfig {
                cache_dir: root.clone(),
                ..ServeConfig::default()
            };
            let outcomes = check(&config).unwrap_or_else(|e| panic!("{state}: check: {e}"));
            assert_eq!(outcomes.len(), 1, "{state}");
            assert_eq!(outcomes[0].failure, None, "{state}");
            let files = vec![format_hash(hash), "manifest.jsonl".to_owned()];
            assert_eq!(listing(&root), files, "{state}");
            assert_eq!(listing(&entry), ["report.jsonl", "spec.toml"], "{state}");
            fs::remove_dir_all(&root).ok();
        }
    }
}
