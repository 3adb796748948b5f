//! Streaming catalog persistence — the fan-in of parallel ingestion.
//!
//! The paper's ingestion phase (§4.1) materialises per-video metadata that
//! is meant to live on secondary storage: the offline evaluation charges
//! *disk* accesses, not RAM. A [`CatalogSink`] is the pluggable merge point
//! that decides where a finished [`IngestedVideo`] goes the moment a worker
//! completes it:
//!
//! * [`MemorySink`] keeps every catalog resident and finishes into a
//!   [`VideoRepository`] — the historical `Vec`-collect behaviour.
//! * [`DirSink`] streams each catalog straight to disk as
//!   `video-<id>.svqc` (crash-safe: temp file + rename) and records it in
//!   an append-only `manifest.json`, so repository scale is bounded by
//!   disk, not RAM. [`VideoRepository::open_dir`] reads the manifest back
//!   and loads catalogs lazily on first access.
//!
//! ## Manifest format
//!
//! `manifest.json` is a JSON-lines file: one object per ingested video,
//! `{"video":<id>,"file":"video-<id>.svqc","clips":<n>,"bytes":<len>}`.
//! `file` must be a bare file name: the manifest is read from disk, and an
//! entry that names anything outside its own directory is refused.
//! During ingestion it is strictly append-only — a line is appended (and
//! flushed) only *after* the catalog file was durably renamed into place,
//! so a crash mid-ingest leaves a manifest that lists exactly the videos
//! whose files are complete. [`CatalogSink::finish`] then compacts it into
//! `VideoId` order (again via temp file + rename), which makes the final
//! directory contents independent of worker interleaving.

use crate::catalog::IngestedVideo;
use crate::repository::VideoRepository;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use svq_types::{SvqError, SvqResult, VideoId};

/// File name of the ingestion manifest inside a spill directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One manifest line: a video catalog durably present in the directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// The video the catalog describes.
    pub video: VideoId,
    /// Catalog file name inside the directory (`video-<id>.svqc`).
    pub file: String,
    /// Clip count of the catalog (queryable without loading it).
    pub clips: u64,
    /// Content length of the catalog file in bytes.
    pub bytes: u64,
}

impl ManifestEntry {
    /// Render the canonical single-line JSON form (fixed key order, so the
    /// manifest is byte-deterministic).
    fn to_line(&self) -> String {
        format!(
            "{{\"video\":{},\"file\":{:?},\"clips\":{},\"bytes\":{}}}",
            self.video.raw(),
            self.file,
            self.clips,
            self.bytes
        )
    }
}

/// Parse `dir/manifest.json` — the one place a manifest enters the
/// program. Every reader goes on to `dir.join(entry.file)`, so an entry
/// whose `file` is not a bare file name (`../x`, `/abs`, `a/b`) is refused
/// here. With `forgive_torn_tail` (crash recovery) a *final* line that
/// fails to parse is the torn tail of an interrupted append and is dropped;
/// a malformed line anywhere else is real corruption and errors.
fn parse_manifest(dir: &Path, forgive_torn_tail: bool) -> SvqResult<Vec<ManifestEntry>> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let lines: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let mut entries = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let entry = match serde_json::from_str::<ManifestEntry>(line) {
            Ok(entry) => entry,
            Err(_) if forgive_torn_tail && at + 1 == lines.len() => break,
            Err(e) => return Err(SvqError::Storage(format!("manifest line {line:?}: {e}"))),
        };
        if Path::new(&entry.file).file_name() != Some(std::ffi::OsStr::new(&entry.file)) {
            return Err(SvqError::Storage(format!(
                "manifest entry for video {} names {:?}, which is not a bare file name",
                entry.video.raw(),
                entry.file
            )));
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Read and parse `dir/manifest.json`.
pub fn read_manifest(dir: impl AsRef<Path>) -> SvqResult<Vec<ManifestEntry>> {
    parse_manifest(dir.as_ref(), false)
}

/// Where finished catalogs go as ingestion workers complete them.
///
/// `accept` is called once per catalog, from a single consumer thread, in
/// whatever order workers finish; implementations must not depend on
/// arrival order for their final output. `finish` seals the sink and
/// returns its output.
pub trait CatalogSink {
    /// What sealing the sink yields (a repository, a spill report, …).
    type Output;

    /// Take ownership of one finished catalog.
    fn accept(&mut self, catalog: IngestedVideo) -> SvqResult<()>;

    /// Seal the sink and return its output.
    fn finish(self) -> SvqResult<Self::Output>;

    /// Bytes this sink has durably written so far (0 for in-memory sinks).
    fn bytes_written(&self) -> u64 {
        0
    }
}

/// Keep every catalog resident; finish into a [`VideoRepository`].
#[derive(Debug, Default)]
pub struct MemorySink {
    repo: VideoRepository,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CatalogSink for MemorySink {
    type Output = VideoRepository;

    fn accept(&mut self, catalog: IngestedVideo) -> SvqResult<()> {
        self.repo.add(catalog);
        Ok(())
    }

    fn finish(self) -> SvqResult<VideoRepository> {
        Ok(self.repo)
    }
}

/// Summary returned by [`DirSink::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillReport {
    /// The directory the catalogs were written to.
    pub dir: PathBuf,
    /// Number of catalogs spilled.
    pub videos: u64,
    /// Total clips across all spilled catalogs.
    pub clips: u64,
    /// Total catalog bytes written (manifest excluded).
    pub bytes_written: u64,
}

/// Stream every catalog straight to `dir/video-<id>.svqc`.
///
/// Crash-safety contract: each catalog is encoded to a hidden temp file
/// and atomically renamed into place, and only then recorded in the
/// append-only manifest (flushed per entry). At any instant the manifest
/// lists exactly the catalogs that are durably complete.
#[derive(Debug)]
pub struct DirSink {
    dir: PathBuf,
    manifest: std::fs::File,
    entries: Vec<ManifestEntry>,
    bytes_written: u64,
    clips: u64,
}

impl DirSink {
    /// Create `dir` (if needed) and start a fresh manifest. Any manifest
    /// from a previous run is truncated; catalog files are overwritten as
    /// their videos are re-ingested.
    pub fn create(dir: impl AsRef<Path>) -> SvqResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest = std::fs::File::create(dir.join(MANIFEST_FILE))?;
        Ok(Self {
            dir,
            manifest,
            entries: Vec::new(),
            bytes_written: 0,
            clips: 0,
        })
    }

    /// The directory being written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Reopen a spill directory a previous (possibly crashed) ingestion
    /// left behind and continue where it stopped.
    ///
    /// The manifest is read tolerantly — a torn final line (crash between
    /// append and flush) is dropped — and each surviving entry is verified
    /// against its catalog file on disk; entries whose file is missing or
    /// has the wrong length are discarded. The recovered manifest is then
    /// rewritten atomically (temp file + rename) before appends resume, so
    /// the directory is immediately back under the crash-safety contract.
    /// [`DirSink::recovered`] lists what survived, letting the caller
    /// skip videos that are already durable.
    ///
    /// A directory with no manifest resumes into an empty sink —
    /// equivalent to [`DirSink::create`].
    pub fn resume(dir: impl AsRef<Path>) -> SvqResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.join(MANIFEST_FILE).exists() {
            return Self::create(&dir);
        }
        let mut entries = Vec::new();
        for entry in parse_manifest(&dir, true)? {
            let durable = std::fs::metadata(dir.join(&entry.file))
                .map(|m| m.len() == entry.bytes)
                .unwrap_or(false);
            if durable {
                // A re-ingested video appears twice; the later line won.
                entries.retain(|e: &ManifestEntry| e.video != entry.video);
                entries.push(entry);
            }
        }
        let mut text = String::new();
        for entry in &entries {
            text.push_str(&entry.to_line());
            text.push('\n');
        }
        let tmp = dir.join(format!(".{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        let manifest = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(MANIFEST_FILE))?;
        let bytes_written = entries.iter().map(|e| e.bytes).sum();
        let clips = entries.iter().map(|e| e.clips).sum();
        Ok(Self {
            dir,
            manifest,
            entries,
            bytes_written,
            clips,
        })
    }

    /// Entries recovered by [`DirSink::resume`] (empty after
    /// [`DirSink::create`]): videos already durable in the directory.
    pub fn recovered(&self) -> &[ManifestEntry] {
        &self.entries
    }
}

/// A [`CatalogSink`] wrapper that fails deterministically after accepting
/// `fail_after` catalogs — the fault injector behind the crash-restart
/// property test and `svq-sim`'s `ingest_crash` scenario. The inner sink
/// is dropped mid-stream exactly as a crashed process would leave it.
#[derive(Debug)]
pub struct FailingSink<S> {
    inner: S,
    fail_after: u64,
    accepted: u64,
}

impl<S> FailingSink<S> {
    /// Wrap `inner`, erroring on accept number `fail_after` (0-based).
    pub fn new(inner: S, fail_after: u64) -> Self {
        Self {
            inner,
            fail_after,
            accepted: 0,
        }
    }
}

impl<S: CatalogSink> CatalogSink for FailingSink<S> {
    type Output = S::Output;

    fn accept(&mut self, catalog: IngestedVideo) -> SvqResult<()> {
        if self.accepted >= self.fail_after {
            return Err(SvqError::Storage(format!(
                "injected sink crash after {} catalogs",
                self.accepted
            )));
        }
        self.accepted += 1;
        self.inner.accept(catalog)
    }

    fn finish(self) -> SvqResult<S::Output> {
        self.inner.finish()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

impl CatalogSink for DirSink {
    type Output = SpillReport;

    fn accept(&mut self, catalog: IngestedVideo) -> SvqResult<()> {
        let id = catalog.video;
        let clips = catalog.clip_count;
        let bytes = catalog.encode()?;
        drop(catalog); // the catalog's memory is released before the write
        let file = format!("video-{}.svqc", id.raw());
        let tmp = self.dir.join(format!(".{file}.tmp"));
        let path = self.dir.join(&file);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        let entry = ManifestEntry {
            video: id,
            file,
            clips,
            bytes: bytes.len() as u64,
        };
        writeln!(self.manifest, "{}", entry.to_line())?;
        self.manifest.flush()?;
        self.bytes_written += entry.bytes;
        self.clips += entry.clips;
        self.entries.retain(|e| e.video != id);
        self.entries.push(entry);
        Ok(())
    }

    fn finish(mut self) -> SvqResult<SpillReport> {
        // Compact the append-order manifest into VideoId order so the final
        // directory is identical no matter how workers interleaved.
        self.entries.sort_by_key(|e| e.video);
        let mut text = String::new();
        for entry in &self.entries {
            text.push_str(&entry.to_line());
            text.push('\n');
        }
        let tmp = self.dir.join(format!(".{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        Ok(SpillReport {
            dir: self.dir,
            videos: self.entries.len() as u64,
            clips: self.clips,
            bytes_written: self.bytes_written,
        })
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqset::SequenceSet;
    use crate::table::ClipScoreTable;
    use svq_types::{ActionClass, ObjectClass, VideoGeometry, Vocabulary};

    fn catalog(id: u64, clips: u64) -> IngestedVideo {
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

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn memory_sink_collects_a_repository() {
        let mut sink = MemorySink::new();
        sink.accept(catalog(3, 5)).unwrap();
        sink.accept(catalog(1, 7)).unwrap();
        assert_eq!(sink.bytes_written(), 0);
        let repo = sink.finish().unwrap();
        assert_eq!(repo.len(), 2);
        assert_eq!(repo.total_clips(), 12);
    }

    #[test]
    fn dir_sink_writes_catalogs_and_manifest() {
        let dir = tmp_dir("svq_sink_basic");
        let mut sink = DirSink::create(&dir).unwrap();
        sink.accept(catalog(9, 4)).unwrap();
        sink.accept(catalog(2, 6)).unwrap();
        assert!(sink.bytes_written() > 0);
        let report = sink.finish().unwrap();
        assert_eq!(report.videos, 2);
        assert_eq!(report.clips, 10);
        assert!(dir.join("video-2.svqc").exists());
        assert!(dir.join("video-9.svqc").exists());
        let entries = read_manifest(&dir).unwrap();
        // Compacted into VideoId order regardless of arrival order.
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].video, VideoId::new(2));
        assert_eq!(entries[0].clips, 6);
        assert_eq!(entries[1].video, VideoId::new(9));
        assert_eq!(
            entries[1].bytes,
            std::fs::metadata(dir.join("video-9.svqc")).unwrap().len()
        );
        // No temp files linger.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "leftover temp file {name:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_is_append_only_until_finish() {
        let dir = tmp_dir("svq_sink_append");
        let mut sink = DirSink::create(&dir).unwrap();
        sink.accept(catalog(5, 3)).unwrap();
        // Pre-finish (crash window): the manifest already lists video 5.
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].video, VideoId::new(5));
        sink.accept(catalog(1, 2)).unwrap();
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries[0].video, VideoId::new(5), "append order pre-finish");
        sink.finish().unwrap();
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries[0].video, VideoId::new(1), "sorted post-finish");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn re_ingesting_a_video_replaces_its_entry() {
        let dir = tmp_dir("svq_sink_replace");
        let mut sink = DirSink::create(&dir).unwrap();
        sink.accept(catalog(4, 3)).unwrap();
        sink.accept(catalog(4, 8)).unwrap();
        let report = sink.finish().unwrap();
        assert_eq!(report.videos, 1);
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].clips, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_drops_a_torn_final_line_and_continues() {
        let dir = tmp_dir("svq_sink_resume_torn");
        let mut sink = DirSink::create(&dir).unwrap();
        sink.accept(catalog(1, 3)).unwrap();
        sink.accept(catalog(2, 4)).unwrap();
        drop(sink); // crash: no finish()
                    // Tear the manifest mid-append: keep the first line, truncate the
                    // second partway through.
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let second_start = text.find('\n').unwrap() + 1;
        let torn_at = second_start + (text.len() - second_start) / 2;
        std::fs::write(&path, &text.as_bytes()[..torn_at]).unwrap();

        let mut resumed = DirSink::resume(&dir).unwrap();
        let recovered: Vec<u64> = resumed.recovered().iter().map(|e| e.video.raw()).collect();
        assert_eq!(recovered, vec![1], "torn line dropped, durable line kept");
        resumed.accept(catalog(2, 4)).unwrap();
        let report = resumed.finish().unwrap();
        assert_eq!(report.videos, 2);
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_discards_entries_whose_file_is_missing() {
        let dir = tmp_dir("svq_sink_resume_missing");
        let mut sink = DirSink::create(&dir).unwrap();
        sink.accept(catalog(7, 2)).unwrap();
        sink.accept(catalog(8, 2)).unwrap();
        drop(sink);
        std::fs::remove_file(dir.join("video-8.svqc")).unwrap();
        let resumed = DirSink::resume(&dir).unwrap();
        let recovered: Vec<u64> = resumed.recovered().iter().map(|e| e.video.raw()).collect();
        assert_eq!(recovered, vec![7]);
        // The rewritten manifest no longer lists the lost file.
        let entries = read_manifest(&dir).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_a_fresh_directory_is_create() {
        let dir = tmp_dir("svq_sink_resume_fresh");
        let mut sink = DirSink::resume(&dir).unwrap();
        assert!(sink.recovered().is_empty());
        sink.accept(catalog(1, 1)).unwrap();
        assert_eq!(sink.finish().unwrap().videos, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_sink_crashes_on_schedule() {
        let dir = tmp_dir("svq_sink_failing");
        let mut sink = FailingSink::new(DirSink::create(&dir).unwrap(), 1);
        sink.accept(catalog(1, 2)).unwrap();
        let err = sink.accept(catalog(2, 2)).unwrap_err();
        assert!(err.to_string().contains("injected sink crash"), "{err}");
        // The first catalog is durable despite the crash.
        let resumed = DirSink::resume(&dir).unwrap();
        assert_eq!(resumed.recovered().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_entries_must_name_bare_files() {
        let dir = tmp_dir("svq_sink_escape");
        std::fs::create_dir_all(&dir).unwrap();
        for file in ["../x", "..", "/abs", "a/b", ""] {
            let line = format!("{{\"video\":3,\"file\":{file:?},\"clips\":1,\"bytes\":1}}\n");
            std::fs::write(dir.join(MANIFEST_FILE), &line).unwrap();
            // Strict and crash-recovery readers both refuse it — in final
            // position too: the line parsed, so it is not a torn tail.
            for result in [
                read_manifest(&dir).map(drop),
                DirSink::resume(&dir).map(drop),
                VideoRepository::open_dir(&dir).map(drop),
            ] {
                let err = result.unwrap_err();
                assert!(matches!(err, SvqError::Storage(_)), "{file:?}: {err}");
                assert!(err.to_string().contains("bare file name"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_lines_round_trip() {
        let entry = ManifestEntry {
            video: VideoId::new(17),
            file: "video-17.svqc".into(),
            clips: 42,
            bytes: 9001,
        };
        let line = entry.to_line();
        assert_eq!(
            line,
            "{\"video\":17,\"file\":\"video-17.svqc\",\"clips\":42,\"bytes\":9001}"
        );
        let back: ManifestEntry = serde_json::from_str(&line).unwrap();
        assert_eq!(back, entry);
    }
}
