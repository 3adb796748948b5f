//! The ingestion catalog: everything §4.2 materialises for one video.
//!
//! [`IngestedVideo`] bundles, per class supported by the deployed models,
//! the clip score table and the individual-sequence set, plus the video's
//! geometry. It is produced once by `svq-core::offline::ingest` (the
//! paper's ingestion phase), optionally persisted as one columnar binary
//! catalog file (layout and loader checks: `catalog/codec.rs`), and then
//! serves any number of ad-hoc queries. Repositories with several videos
//! are simply collections of `IngestedVideo`s — the paper associates a
//! video identifier with each clip id, which our per-video catalogs make
//! implicit.

use crate::seqset::SequenceSet;
use crate::table::ClipScoreTable;
use std::path::Path;
use svq_types::{
    ActionClass, ActionQuery, ClipInterval, Interval, ObjectClass, SvqError, SvqResult,
    VideoGeometry, VideoId, Vocabulary,
};

mod codec;

/// All offline metadata for one video.
#[derive(Debug, Clone)]
pub struct IngestedVideo {
    pub video: VideoId,
    pub geometry: VideoGeometry,
    pub clip_count: u64,
    /// One table per object class, indexed by class index.
    object_tables: Vec<ClipScoreTable>,
    /// One table per action class, indexed by class index.
    action_tables: Vec<ClipScoreTable>,
    /// Individual sequences `P_{o_i}` per object class.
    object_sequences: Vec<SequenceSet>,
    /// Individual sequences `P_{a_j}` per action class.
    action_sequences: Vec<SequenceSet>,
}

impl IngestedVideo {
    /// Assemble a catalog (called by the ingestion pipeline). Vectors must
    /// be indexed by class index and cover the full vocabularies.
    #[allow(clippy::too_many_arguments)] // mirrors the catalog's shape 1:1
    pub fn new(
        video: VideoId,
        geometry: VideoGeometry,
        clip_count: u64,
        object_tables: Vec<ClipScoreTable>,
        action_tables: Vec<ClipScoreTable>,
        object_sequences: Vec<SequenceSet>,
        action_sequences: Vec<SequenceSet>,
    ) -> Self {
        assert_eq!(object_tables.len(), ObjectClass::cardinality());
        assert_eq!(action_tables.len(), ActionClass::cardinality());
        assert_eq!(object_sequences.len(), ObjectClass::cardinality());
        assert_eq!(action_sequences.len(), ActionClass::cardinality());
        Self {
            video,
            geometry,
            clip_count,
            object_tables,
            action_tables,
            object_sequences,
            action_sequences,
        }
    }

    /// The clip score table of an object class.
    pub fn object_table(&self, class: ObjectClass) -> &ClipScoreTable {
        &self.object_tables[class.index()]
    }

    /// The clip score table of an action class.
    pub fn action_table(&self, class: ActionClass) -> &ClipScoreTable {
        &self.action_tables[class.index()]
    }

    /// The individual sequences of an object class.
    pub fn object_sequences(&self, class: ObjectClass) -> &SequenceSet {
        &self.object_sequences[class.index()]
    }

    /// The individual sequences of an action class.
    pub fn action_sequences(&self, class: ActionClass) -> &SequenceSet {
        &self.action_sequences[class.index()]
    }

    /// `P_q = P_a ⊗ P_{o_1} ⊗ … ⊗ P_{o_I}` (Eq. 12).
    pub fn result_sequences(&self, query: &ActionQuery) -> SequenceSet {
        let mut sets: Vec<&SequenceSet> = vec![self.action_sequences(query.action)];
        sets.extend(query.objects.iter().map(|&o| self.object_sequences(o)));
        SequenceSet::intersect_all(sets)
    }

    /// The whole video as one interval (for `C_skip` initialisation).
    pub fn all_clips(&self) -> Option<ClipInterval> {
        (self.clip_count > 0).then(|| {
            Interval::new(
                svq_types::ClipId::new(0),
                svq_types::ClipId::new(self.clip_count - 1),
            )
        })
    }

    /// The catalog file's bytes (layout: `catalog/codec.rs`). Errs only for a clip
    /// id or row count too large for the file's `u32` columns.
    pub fn encode(&self) -> SvqResult<Vec<u8>> {
        codec::encode(self)
    }

    /// Rebuild a catalog from a catalog file's bytes. This is where a file
    /// enters the program: anything but a well-formed catalog is a typed
    /// [`SvqError::Storage`].
    pub fn decode(bytes: &[u8]) -> SvqResult<Self> {
        codec::decode(bytes)
    }

    /// Persist as a catalog file.
    pub fn save(&self, path: impl AsRef<Path>) -> SvqResult<()> {
        std::fs::write(path, self.encode()?)?;
        Ok(())
    }

    /// Load a catalog file.
    pub fn load(path: impl AsRef<Path>) -> SvqResult<Self> {
        let path = path.as_ref();
        Self::decode(&std::fs::read(path)?).map_err(|e| match e {
            SvqError::Storage(msg) => SvqError::Storage(format!("{}: {msg}", path.display())),
            other => other,
        })
    }

    /// A catalog read from outside must keep every clip id it mentions
    /// inside `0..clip_count`: query processing sizes dense per-clip state
    /// by `clip_count` and indexes it by clip id.
    fn check_clip_range(&self) -> SvqResult<()> {
        let tables = self.object_tables.iter().chain(&self.action_tables);
        let sequences = self.object_sequences.iter().chain(&self.action_sequences);
        let last = tables
            .filter_map(ClipScoreTable::max_clip)
            .chain(sequences.filter_map(|s| s.intervals().last().map(|iv| iv.end)))
            .max();
        match last {
            Some(clip) if clip.raw() >= self.clip_count => Err(SvqError::Storage(format!(
                "catalog of {} clips mentions clip {}",
                self.clip_count,
                clip.raw()
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_types::ClipId;

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    pub(super) fn sample() -> IngestedVideo {
        let mut object_tables: Vec<ClipScoreTable> = (0..ObjectClass::cardinality())
            .map(|_| ClipScoreTable::new(vec![]))
            .collect();
        let mut action_tables: Vec<ClipScoreTable> = (0..ActionClass::cardinality())
            .map(|_| ClipScoreTable::new(vec![]))
            .collect();
        let mut object_sequences = vec![SequenceSet::empty(); ObjectClass::cardinality()];
        let mut action_sequences = vec![SequenceSet::empty(); ActionClass::cardinality()];

        let car = ObjectClass::named("car");
        let jumping = ActionClass::named("jumping");
        object_tables[car.index()] = ClipScoreTable::new(vec![
            (ClipId::new(2), 3.0),
            (ClipId::new(3), 5.0),
            (ClipId::new(7), 1.0),
        ]);
        action_tables[jumping.index()] =
            ClipScoreTable::new(vec![(ClipId::new(3), 2.0), (ClipId::new(4), 4.0)]);
        object_sequences[car.index()] = SequenceSet::new(vec![iv(2, 3), iv(7, 7)]);
        action_sequences[jumping.index()] = SequenceSet::new(vec![iv(3, 4)]);

        IngestedVideo::new(
            VideoId::new(1),
            VideoGeometry::default(),
            10,
            object_tables,
            action_tables,
            object_sequences,
            action_sequences,
        )
    }

    #[test]
    fn result_sequences_intersect_per_eq12() {
        let cat = sample();
        let q = ActionQuery::named("jumping", &["car"]);
        assert_eq!(cat.result_sequences(&q).intervals(), &[iv(3, 3)]);
        // Unqueried classes have empty sets: query on absent object is empty.
        let q2 = ActionQuery::named("jumping", &["dog"]);
        assert!(cat.result_sequences(&q2).is_empty());
        // Action-only query returns the action's own sequences.
        let q3 = ActionQuery::named("jumping", &[]);
        assert_eq!(cat.result_sequences(&q3).intervals(), &[iv(3, 4)]);
    }

    #[test]
    fn save_load_round_trip() {
        let cat = sample();
        let path =
            std::env::temp_dir().join(format!("svq_catalog_test_{}.svqc", std::process::id()));
        cat.save(&path).unwrap();
        let loaded = IngestedVideo::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.video, cat.video);
        assert_eq!(loaded.clip_count, 10);
        let car = ObjectClass::named("car");
        assert_eq!(loaded.object_table(car).len(), 3);
        assert_eq!(loaded.object_sequences(car), cat.object_sequences(car));
        assert_eq!(loaded.object_table(car).peek_score(ClipId::new(2)), 3.0);
    }

    #[test]
    fn load_names_the_file_it_refused() {
        let dir = std::env::temp_dir().join(format!("svq_catalog_refused_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svq_catalog_refused.svqc");
        let mut bytes = sample().encode().unwrap();
        bytes.truncate(bytes.len() - 1);
        std::fs::write(&path, bytes).unwrap();
        let err = IngestedVideo::load(&path).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, SvqError::Storage(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("svq_catalog_refused.svqc") && msg.contains("truncated"),
            "{msg}"
        );
        // A missing file stays an I/O error, not a storage one.
        assert!(!matches!(
            IngestedVideo::load(&path),
            Err(SvqError::Storage(_))
        ));
    }

    #[test]
    fn all_clips_interval() {
        let cat = sample();
        assert_eq!(cat.all_clips(), Some(iv(0, 9)));
    }
}
