//! Multi-video repositories.
//!
//! §4.2: "it is very easy to add more videos or delete videos in this
//! setting … We just associate a video identifier for each cid in the
//! tables." A [`VideoRepository`] is that association made explicit: a
//! collection of per-video catalogs keyed by [`VideoId`], supporting
//! incremental addition and removal (each video's metadata is
//! self-contained, so maintenance is O(1) per video) and directory-based
//! persistence.
//!
//! Catalogs are held as `Arc<IngestedVideo>` behind per-slot lazy cells:
//! a repository opened with [`VideoRepository::open_dir`] knows every
//! video's identity and clip count from the manifest alone and reads a
//! catalog file only on the first [`VideoRepository::get`] that touches it,
//! so offline queries over a large repository no longer pay for loading
//! every video up front.

use crate::catalog::IngestedVideo;
use crate::sink::{read_manifest, CatalogSink, DirSink, SpillReport, MANIFEST_FILE};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use svq_types::{SvqError, SvqResult, VideoId};

/// Where one video's catalog currently lives.
#[derive(Debug)]
enum SlotState {
    /// Resident in memory.
    Loaded(Arc<IngestedVideo>),
    /// On disk, to be read on first access.
    OnDisk(PathBuf),
}

/// One video's entry: clip count (always known) + lazily loaded catalog.
#[derive(Debug)]
struct Slot {
    clips: u64,
    /// The catalog file backing this slot, retained after loading so a
    /// bounded hot cache can evict the slot back to [`SlotState::OnDisk`].
    /// `None` for catalogs added in memory ([`VideoRepository::add`]) —
    /// those are pinned and never evicted.
    path: Option<PathBuf>,
    state: Mutex<SlotState>,
}

/// The bounded hot-catalog cache: an LRU list over the *disk-backed*
/// resident slots, plus its observability counters.
#[derive(Debug)]
struct HotCache {
    /// Max disk-backed catalogs resident at once (≥ 1).
    cap: usize,
    /// Disk-backed resident videos, least recently used first. Guarded by
    /// its own leaf mutex — never held together with any slot's state
    /// lock, so two slots' loads can never deadlock through the cache.
    lru: Mutex<VecDeque<VideoId>>,
    evictions: AtomicU64,
}

impl HotCache {
    /// Mark `id` most recently used and return the videos now beyond the
    /// capacity bound, oldest first. Victim slots are flipped back to disk
    /// by the caller *after* this returns — no slot state lock is ever
    /// taken while the LRU lock is held.
    fn touch(&self, id: VideoId) -> Vec<VideoId> {
        let mut lru = self.lru.lock();
        if let Some(at) = lru.iter().position(|v| *v == id) {
            lru.remove(at);
        }
        lru.push_back(id);
        let mut victims = Vec::new();
        // `id` sits at the back and `cap >= 1`, so it is never its own
        // victim.
        while lru.len() > self.cap {
            if let Some(victim) = lru.pop_front() {
                victims.push(victim);
            }
        }
        victims
    }
}

/// Residency counters for [`VideoRepository::cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CatalogCacheStats {
    /// Accesses that found the catalog already resident.
    pub hits: u64,
    /// Accesses that had to read the catalog file.
    pub misses: u64,
    /// Resident catalogs evicted back to disk by the capacity bound.
    pub evictions: u64,
    /// The configured bound; `None` when residency is unbounded.
    pub capacity: Option<usize>,
}

/// A queryable collection of ingested videos.
#[derive(Debug, Default)]
pub struct VideoRepository {
    videos: BTreeMap<VideoId, Slot>,
    /// Present when a residency bound was configured via
    /// [`VideoRepository::with_cache_capacity`].
    cache: Option<HotCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl VideoRepository {
    /// An empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound how many *disk-backed* catalogs stay resident at once: the
    /// least recently used slot beyond `cap` is evicted back to
    /// [`SlotState::OnDisk`] (its next access re-reads the file). `0`
    /// removes the bound. Catalogs added in memory via
    /// [`VideoRepository::add`] have no backing file and are never
    /// evicted. Eviction only changes *when* a catalog is read, never what
    /// a query computes from it, so query outcomes are unaffected.
    pub fn with_cache_capacity(mut self, cap: usize) -> Self {
        self.cache = (cap > 0).then(|| HotCache {
            cap,
            lru: Mutex::new(VecDeque::new()),
            evictions: AtomicU64::new(0),
        });
        self
    }

    /// Hit/miss/eviction counters for the hot-catalog cache. Hits and
    /// misses are counted even without a configured bound (they describe
    /// residency, which exists regardless).
    pub fn cache_stats(&self) -> CatalogCacheStats {
        CatalogCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self
                .cache
                .as_ref()
                .map_or(0, |c| c.evictions.load(Ordering::Relaxed)),
            capacity: self.cache.as_ref().map(|c| c.cap),
        }
    }

    /// Add (or replace) one video's catalog. Returns the previous catalog
    /// if the video was already present *and* resident (a lazily opened,
    /// not-yet-loaded predecessor is discarded without reading it).
    pub fn add(&mut self, catalog: IngestedVideo) -> Option<Arc<IngestedVideo>> {
        let id = catalog.video;
        let slot = Slot {
            clips: catalog.clip_count,
            path: None,
            state: Mutex::new(SlotState::Loaded(Arc::new(catalog))),
        };
        self.videos
            .insert(id, slot)
            .and_then(|old| match old.state.into_inner() {
                SlotState::Loaded(c) => Some(c),
                SlotState::OnDisk(_) => None,
            })
    }

    /// Build a repository from catalogs arriving in *any* order — the merge
    /// point of concurrent ingestion. Storage is keyed by [`VideoId`], so
    /// the result (and its iteration order) is identical no matter how a
    /// parallel ingest interleaved its workers.
    pub fn from_catalogs(catalogs: impl IntoIterator<Item = IngestedVideo>) -> Self {
        let mut repo = Self::new();
        for catalog in catalogs {
            repo.add(catalog);
        }
        repo
    }

    /// Keep only the videos for which `keep` returns true — how a cluster
    /// shard restricts an opened repository to its hash slice before
    /// serving. Dropped slots release their resident catalogs; lazily
    /// backed slots simply forget their files (nothing on disk changes).
    pub fn retain_videos(&mut self, mut keep: impl FnMut(VideoId) -> bool) {
        self.videos.retain(|id, _| keep(*id));
        if let Some(cache) = &self.cache {
            cache.lru.lock().retain(|id| self.videos.contains_key(id));
        }
    }

    /// Remove a video. Returns its catalog if it was resident.
    pub fn remove(&mut self, video: VideoId) -> Option<Arc<IngestedVideo>> {
        self.videos
            .remove(&video)
            .and_then(|slot| match slot.state.into_inner() {
                SlotState::Loaded(c) => Some(c),
                SlotState::OnDisk(_) => None,
            })
    }

    /// Look up one video's catalog, reading it from disk on first access
    /// if the repository was opened lazily. `Ok(None)` means the video is
    /// not in the repository; `Err` means its catalog file could not be
    /// read (the slot stays on disk for a later retry).
    pub fn get(&self, video: VideoId) -> SvqResult<Option<Arc<IngestedVideo>>> {
        Ok(self.fetch(video)?.map(|(catalog, _hit)| catalog))
    }

    /// [`VideoRepository::get`] plus whether the catalog was already
    /// resident (`true` = cache hit) — what a serving layer wants for its
    /// hit/miss counters.
    pub fn fetch(&self, video: VideoId) -> SvqResult<Option<(Arc<IngestedVideo>, bool)>> {
        match self.videos.get(&video) {
            None => Ok(None),
            Some(slot) => self.fetch_slot(video, slot).map(Some),
        }
    }

    fn fetch_slot(&self, id: VideoId, slot: &Slot) -> SvqResult<(Arc<IngestedVideo>, bool)> {
        let (catalog, hit) = {
            let mut state = slot.state.lock();
            match &*state {
                SlotState::Loaded(c) => (c.clone(), true),
                SlotState::OnDisk(path) => {
                    // Deliberate: `Slot.state` is a per-video leaf mutex
                    // whose job is to serialize the one lazy disk read —
                    // concurrent readers of the same video must block until
                    // the catalog is resident rather than each re-reading
                    // it.
                    // svq-lint: allow(blocking-under-lock)
                    let catalog = Arc::new(IngestedVideo::load(path)?);
                    *state = SlotState::Loaded(catalog.clone());
                    (catalog, false)
                }
            }
            // The state guard drops here, before the cache bookkeeping:
            // the LRU mutex and the slot mutexes are never held together.
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        if slot.path.is_some() {
            if let Some(cache) = &self.cache {
                for victim in cache.touch(id) {
                    self.evict(cache, victim);
                }
            }
        }
        Ok((catalog, hit))
    }

    /// Flip one evicted video's slot back to [`SlotState::OnDisk`]. A
    /// query that already holds the catalog's `Arc` keeps it; only future
    /// accesses re-read the file.
    fn evict(&self, cache: &HotCache, victim: VideoId) {
        let Some(slot) = self.videos.get(&victim) else {
            return;
        };
        let Some(path) = &slot.path else { return };
        let mut state = slot.state.lock();
        if matches!(&*state, SlotState::Loaded(_)) {
            *state = SlotState::OnDisk(path.clone());
            cache.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Iterate catalogs in video-id order, loading lazily as needed.
    pub fn catalogs(&self) -> impl Iterator<Item = SvqResult<Arc<IngestedVideo>>> + '_ {
        self.videos
            .iter()
            .map(|(id, slot)| self.fetch_slot(*id, slot).map(|(catalog, _hit)| catalog))
    }

    /// The video ids present, in order.
    pub fn video_ids(&self) -> impl Iterator<Item = VideoId> + '_ {
        self.videos.keys().copied()
    }

    /// Number of videos.
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Total clips across the repository. Known without loading anything —
    /// lazy entries carry their clip counts in the manifest.
    pub fn total_clips(&self) -> u64 {
        self.videos.values().map(|s| s.clips).sum()
    }

    /// One video's clip count (without loading its catalog).
    pub fn clip_count(&self, video: VideoId) -> Option<u64> {
        self.videos.get(&video).map(|s| s.clips)
    }

    /// How many catalogs are currently resident in memory. A freshly
    /// [`VideoRepository::open_dir`]-ed repository reports 0.
    pub fn loaded_count(&self) -> usize {
        self.videos
            .values()
            .filter(|s| matches!(&*s.state.lock(), SlotState::Loaded(_)))
            .count()
    }

    /// Persist every catalog to `dir/video-<id>.svqc` plus a
    /// `manifest.json`, through the same [`DirSink`] streaming
    /// ingestion uses — the directory contents are byte-identical to a
    /// spilled ingest of the same catalogs.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> SvqResult<SpillReport> {
        let mut sink = DirSink::create(dir)?;
        for catalog in self.catalogs() {
            sink.accept((*catalog?).clone())?;
        }
        sink.finish()
    }

    /// Open a spilled directory lazily: read only `manifest.json`, defer
    /// each catalog file to the first [`VideoRepository::get`] (or
    /// [`VideoRepository::catalogs`] step) that touches it.
    pub fn open_dir(dir: impl AsRef<Path>) -> SvqResult<Self> {
        let dir = dir.as_ref();
        if !dir.join(MANIFEST_FILE).is_file() {
            return Err(SvqError::MissingMetadata(format!(
                "no {MANIFEST_FILE} under {} — re-ingest into it",
                dir.display()
            )));
        }
        let entries = read_manifest(dir)?;
        if entries.is_empty() {
            return Err(SvqError::MissingMetadata(format!(
                "empty manifest under {}",
                dir.display()
            )));
        }
        let mut videos = BTreeMap::new();
        for entry in entries {
            let path = dir.join(&entry.file);
            videos.insert(
                entry.video,
                Slot {
                    clips: entry.clips,
                    path: Some(path.clone()),
                    state: Mutex::new(SlotState::OnDisk(path)),
                },
            );
        }
        Ok(Self {
            videos,
            ..Self::default()
        })
    }

    /// Open whatever catalog artifact `path` names:
    ///
    /// * a directory → lazy [`Self::open_dir`] (it must hold a
    ///   `manifest.json`);
    /// * a single catalog file → a one-video repository.
    ///
    /// This is the service layer's entry point: `svqact serve --catalog`
    /// accepts either shape the ingestion commands produce.
    pub fn open_path(path: impl AsRef<Path>) -> SvqResult<Self> {
        let path = path.as_ref();
        if path.is_dir() {
            Self::open_dir(path)
        } else if path.is_file() {
            let mut repo = Self::new();
            repo.add(IngestedVideo::load(path)?);
            Ok(repo)
        } else {
            Err(SvqError::MissingMetadata(format!(
                "no catalog file or directory at {}",
                path.display()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqset::SequenceSet;
    use crate::table::ClipScoreTable;
    use svq_types::{ActionClass, ObjectClass, VideoGeometry, Vocabulary};

    fn empty_catalog(id: u64, clips: u64) -> IngestedVideo {
        IngestedVideo::new(
            VideoId::new(id),
            VideoGeometry::default(),
            clips,
            (0..ObjectClass::cardinality())
                .map(|_| ClipScoreTable::new(vec![]))
                .collect(),
            (0..ActionClass::cardinality())
                .map(|_| ClipScoreTable::new(vec![]))
                .collect(),
            vec![SequenceSet::empty(); ObjectClass::cardinality()],
            vec![SequenceSet::empty(); ActionClass::cardinality()],
        )
    }

    #[test]
    fn add_remove_and_totals() {
        let mut repo = VideoRepository::new();
        assert!(repo.is_empty());
        repo.add(empty_catalog(1, 10));
        repo.add(empty_catalog(2, 20));
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.total_clips(), 30);
        assert!(repo.get(VideoId::new(1)).unwrap().is_some());
        assert_eq!(repo.clip_count(VideoId::new(2)), Some(20));
        let removed = repo.remove(VideoId::new(1)).unwrap();
        assert_eq!(removed.video, VideoId::new(1));
        assert_eq!(repo.total_clips(), 20);
        // Replacement returns the old catalog.
        assert!(repo.add(empty_catalog(2, 25)).is_some());
        assert_eq!(repo.total_clips(), 25);
        assert_eq!(repo.loaded_count(), 1);
    }

    #[test]
    fn open_dir_is_lazy() {
        let mut repo = VideoRepository::new();
        repo.add(empty_catalog(3, 4));
        repo.add(empty_catalog(5, 9));
        let dir = std::env::temp_dir().join(format!("svq_repo_lazy_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        repo.save_dir(&dir).unwrap();

        let lazy = VideoRepository::open_dir(&dir).unwrap();
        // Identity and clip counts come from the manifest alone.
        assert_eq!(lazy.len(), 2);
        assert_eq!(lazy.total_clips(), 13);
        assert_eq!(lazy.loaded_count(), 0, "nothing read yet");
        // First get loads exactly one catalog.
        let c = lazy.get(VideoId::new(5)).unwrap().unwrap();
        assert_eq!(c.clip_count, 9);
        assert_eq!(lazy.loaded_count(), 1);
        // Second get of the same video hits the cache (same Arc).
        let again = lazy.get(VideoId::new(5)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&c, &again));
        // Absent video is None, not an error.
        assert!(lazy.get(VideoId::new(99)).unwrap().is_none());
        // Full iteration loads the rest.
        assert_eq!(lazy.catalogs().filter_map(Result::ok).count(), 2);
        assert_eq!(lazy.loaded_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bounded_cache_evicts_lru_and_counts() {
        let mut repo = VideoRepository::new();
        for id in 1..=3 {
            repo.add(empty_catalog(id, id));
        }
        let dir = std::env::temp_dir().join(format!("svq_repo_cache_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        repo.save_dir(&dir).unwrap();

        let lazy = VideoRepository::open_dir(&dir)
            .unwrap()
            .with_cache_capacity(2);
        let (v1, v2, v3) = (VideoId::new(1), VideoId::new(2), VideoId::new(3));
        // Fill the cache: two misses, both resident.
        let (_, hit) = lazy.fetch(v1).unwrap().unwrap();
        assert!(!hit, "first access reads the file");
        lazy.fetch(v2).unwrap().unwrap();
        assert_eq!(lazy.loaded_count(), 2);
        // Re-access v1 (a hit, and it becomes most recently used) …
        let (_, hit) = lazy.fetch(v1).unwrap().unwrap();
        assert!(hit, "second access is resident");
        // … so loading v3 evicts v2, the least recently used.
        lazy.fetch(v3).unwrap().unwrap();
        assert_eq!(lazy.loaded_count(), 2, "capacity bound holds");
        let stats = lazy.cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.capacity, Some(2));
        // The evicted catalog reloads transparently — a miss, another
        // eviction, same contents.
        let (c2, hit) = lazy.fetch(v2).unwrap().unwrap();
        assert!(!hit);
        assert_eq!(c2.clip_count, 2);
        assert_eq!(lazy.loaded_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_catalogs_are_pinned_and_unbounded_repos_never_evict() {
        // `add`ed catalogs have no backing file: the bound cannot apply.
        let mut repo = VideoRepository::new();
        for id in 1..=4 {
            repo.add(empty_catalog(id, 1));
        }
        let repo = repo.with_cache_capacity(2);
        for id in 1..=4 {
            repo.get(VideoId::new(id)).unwrap().unwrap();
        }
        assert_eq!(repo.loaded_count(), 4, "pinned slots never evict");
        assert_eq!(repo.cache_stats().evictions, 0);
        assert_eq!(repo.cache_stats().hits, 4);

        // Without a configured bound residency only grows, but the
        // hit/miss counters still answer.
        let dir =
            std::env::temp_dir().join(format!("svq_repo_unbounded_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut on_disk = VideoRepository::new();
        on_disk.add(empty_catalog(7, 1));
        on_disk.add(empty_catalog(8, 1));
        on_disk.save_dir(&dir).unwrap();
        let lazy = VideoRepository::open_dir(&dir).unwrap();
        lazy.get(VideoId::new(7)).unwrap().unwrap();
        lazy.get(VideoId::new(7)).unwrap().unwrap();
        lazy.get(VideoId::new(8)).unwrap().unwrap();
        let stats = lazy.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.capacity, None);
        assert_eq!(lazy.loaded_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_dir_surfaces_missing_catalog_files() {
        let mut repo = VideoRepository::new();
        repo.add(empty_catalog(1, 2));
        let dir =
            std::env::temp_dir().join(format!("svq_repo_missing_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        repo.save_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("video-1.svqc")).unwrap();
        let lazy = VideoRepository::open_dir(&dir).unwrap();
        // The manifest promised a file that is gone: get errs, membership
        // and clip counts still answer.
        assert_eq!(lazy.total_clips(), 2);
        assert!(lazy.get(VideoId::new(1)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_path_dispatches_on_artifact_shape() {
        let mut repo = VideoRepository::new();
        repo.add(empty_catalog(11, 3));
        repo.add(empty_catalog(12, 4));
        let dir =
            std::env::temp_dir().join(format!("svq_repo_open_path_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        repo.save_dir(&dir).unwrap();

        // Directory with manifest → lazy.
        let lazy = VideoRepository::open_path(&dir).unwrap();
        assert_eq!(lazy.total_clips(), 7);
        assert_eq!(lazy.loaded_count(), 0);

        // Single catalog file → one-video repository.
        let single = VideoRepository::open_path(dir.join("video-12.svqc")).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single.clip_count(VideoId::new(12)), Some(4));

        // Nothing there, or a directory without its manifest → error.
        assert!(VideoRepository::open_path(dir.join("absent")).is_err());
        std::fs::remove_file(dir.join("manifest.json")).unwrap();
        assert!(VideoRepository::open_path(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn opening_empty_dir_errors() {
        let dir = std::env::temp_dir().join(format!("svq_repo_empty_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(VideoRepository::open_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
