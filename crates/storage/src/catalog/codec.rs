//! The catalog file — the one persisted shape of an [`IngestedVideo`].
//!
//! Ingestion (§4) materialises two fixed-width things per class: a
//! score-sorted `(clipId, score)` table and a list of `[start, end]`
//! sequences. The file stores exactly those, as little-endian columns:
//!
//! | offset | bytes | field                                             |
//! |-------:|------:|---------------------------------------------------|
//! |      0 |     4 | magic `SVQC`                                      |
//! |      4 |     4 | format version, `u32` (this build: 1)             |
//! |      8 |     8 | video id, `u64`                                   |
//! |     16 |    12 | geometry: frames/shot, shots/clip, fps, 3 × `u32` |
//! |     28 |     8 | `clip_count`, `u64`                               |
//! |     36 |     8 | object class count, action class count, 2 × `u32` |
//! |     44 |     … | one table per class, objects then actions         |
//! |      … |     … | one sequence list per class, objects then actions |
//!
//! A table is `rows: u32`, then `rows` × `u32` clip ids, then `rows` ×
//! `u64` score bits (`f64::to_bits`), both columns in the table's
//! `(score desc, clip asc)` order. A sequence list is `runs: u32`, then
//! `runs` × (`u32` start, `u32` end). Nothing follows the last list.
//!
//! A table is stored once, in row order; nothing clip-ordered is stored or
//! rebuilt at load. The loader sorts the clip ids alone, to refuse a clip
//! listed twice and to find the table's largest clip id. Scores travel as
//! bits because decimal text is neither exact nor cheap.
//!
//! [`decode`] is where a file enters the program. Every length is bounded
//! by the bytes actually present before anything is allocated for it, and
//! every invariant query processing relies on is checked — so a damaged
//! file is a typed [`SvqError::Storage`], never a panic and never a
//! silently wrong table.

use super::IngestedVideo;
use crate::seqset::SequenceSet;
use crate::table::ClipScoreTable;
use svq_types::{
    ActionClass, ClipId, Interval, ObjectClass, SvqError, SvqResult, VideoGeometry, VideoId,
    Vocabulary,
};

const MAGIC: [u8; 4] = *b"SVQC";
const VERSION: u32 = 1;
const HEADER_BYTES: usize = 44;

fn refuse(msg: String) -> SvqError {
    SvqError::Storage(format!("catalog file: {msg}"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A count or clip id on its way into a `u32` cell.
fn cell(v: u64, what: &str) -> SvqResult<u32> {
    u32::try_from(v).map_err(|_| refuse(format!("{what} {v} does not fit a u32 cell")))
}

pub(super) fn encode(catalog: &IngestedVideo) -> SvqResult<Vec<u8>> {
    let tables = || catalog.object_tables.iter().chain(&catalog.action_tables);
    let sequences = || {
        catalog
            .object_sequences
            .iter()
            .chain(&catalog.action_sequences)
    };
    let body: usize = tables().map(|t| 4 + 12 * t.len()).sum::<usize>()
        + sequences().map(|s| 4 + 8 * s.len()).sum::<usize>();
    let mut out = Vec::with_capacity(HEADER_BYTES + body);

    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, catalog.video.raw());
    put_u32(&mut out, catalog.geometry.frames_per_shot);
    put_u32(&mut out, catalog.geometry.shots_per_clip);
    put_u32(&mut out, catalog.geometry.fps);
    put_u64(&mut out, catalog.clip_count);
    put_u32(
        &mut out,
        cell(catalog.object_tables.len() as u64, "class count")?,
    );
    put_u32(
        &mut out,
        cell(catalog.action_tables.len() as u64, "class count")?,
    );

    for table in tables() {
        put_u32(&mut out, cell(table.len() as u64, "row count")?);
        for (clip, _) in table.iter_sorted() {
            put_u32(&mut out, cell(clip.raw(), "clip id")?);
        }
        for (_, score) in table.iter_sorted() {
            put_u64(&mut out, score.to_bits());
        }
    }
    for set in sequences() {
        put_u32(&mut out, cell(set.len() as u64, "sequence count")?);
        for iv in set.intervals() {
            put_u32(&mut out, cell(iv.start.raw(), "clip id")?);
            put_u32(&mut out, cell(iv.end.raw(), "clip id")?);
        }
    }
    Ok(out)
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// The unread tail of the file; every read is bounds-checked against it.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize, what: &str) -> SvqResult<&'a [u8]> {
        if len > self.rest.len() {
            return Err(refuse(format!(
                "truncated: {what} needs {len} bytes, {} remain",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(len);
        self.rest = tail;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> SvqResult<u32> {
        self.take(4, what).map(le_u32)
    }

    fn u64(&mut self, what: &str) -> SvqResult<u64> {
        self.take(8, what).map(le_u64)
    }

    /// `cells` fixed-width cells. The byte length is overflow-checked and
    /// must be present in the file before any caller allocates for it.
    fn column(&mut self, cells: u32, width: usize, what: &str) -> SvqResult<&'a [u8]> {
        let len = (cells as usize)
            .checked_mul(width)
            .ok_or_else(|| refuse(format!("{what} of {cells} cells overflows")))?;
        self.take(len, what)
    }

    fn table(&mut self) -> SvqResult<ClipScoreTable> {
        let rows = self.u32("row count")?;
        let clips = self.column(rows, 4, "clip-id column")?;
        let scores = self.column(rows, 8, "score column")?;
        let rows = clips
            .chunks_exact(4)
            .zip(scores.chunks_exact(8))
            .map(|(c, s)| (ClipId::new(le_u32(c).into()), f64::from_bits(le_u64(s))))
            .collect();
        ClipScoreTable::from_sorted_rows(rows)
    }

    fn sequences(&mut self) -> SvqResult<SequenceSet> {
        let runs = self.u32("sequence count")?;
        let intervals = self
            .column(runs, 8, "sequence list")?
            .chunks_exact(8)
            .map(|run| Interval {
                start: ClipId::new(le_u32(&run[..4]).into()),
                end: ClipId::new(le_u32(&run[4..]).into()),
            })
            .collect();
        SequenceSet::from_file(intervals)
    }
}

pub(super) fn decode(bytes: &[u8]) -> SvqResult<IngestedVideo> {
    let mut r = Reader { rest: bytes };
    if r.take(4, "magic")? != MAGIC {
        return Err(refuse(
            "bad magic: not an SVQC catalog (JSON catalogs are no longer read) — re-ingest".into(),
        ));
    }
    let version = r.u32("format version")?;
    if version != VERSION {
        return Err(refuse(format!(
            "format version {version} is not the version {VERSION} this build reads — re-ingest"
        )));
    }
    let video = VideoId::new(r.u64("video id")?);
    let geometry = VideoGeometry {
        frames_per_shot: r.u32("geometry")?,
        shots_per_clip: r.u32("geometry")?,
        fps: r.u32("geometry")?,
    };
    if geometry.frames_per_shot == 0 || geometry.shots_per_clip == 0 || geometry.fps == 0 {
        return Err(refuse(format!("zero in geometry {geometry:?}")));
    }
    let clip_count = r.u64("clip count")?;
    let classes = (
        r.u32("object class count")? as usize,
        r.u32("action class count")? as usize,
    );
    let (objects, actions) = (ObjectClass::cardinality(), ActionClass::cardinality());
    if classes != (objects, actions) {
        return Err(refuse(format!(
            "{} object and {} action classes, but the vocabulary has {objects} and {actions}",
            classes.0, classes.1
        )));
    }

    let mut tables = |n: usize| -> SvqResult<Vec<_>> { (0..n).map(|_| r.table()).collect() };
    let object_tables = tables(objects)?;
    let action_tables = tables(actions)?;
    let mut sequences = |n: usize| -> SvqResult<Vec<_>> { (0..n).map(|_| r.sequences()).collect() };
    let object_sequences = sequences(objects)?;
    let action_sequences = sequences(actions)?;
    if !r.rest.is_empty() {
        return Err(refuse(format!(
            "{} trailing bytes after the last sequence list",
            r.rest.len()
        )));
    }

    let catalog = IngestedVideo {
        video,
        geometry,
        clip_count,
        object_tables,
        action_tables,
        object_sequences,
        action_sequences,
    };
    catalog.check_clip_range()?;
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::super::tests::sample;
    use super::*;

    /// The file as the module docs describe it, written by hand — the
    /// encoder is checked against this, and every refusal below is one
    /// field of it bent out of shape.
    #[derive(Clone)]
    struct Raw {
        magic: [u8; 4],
        version: u32,
        video: u64,
        geometry: [u32; 3],
        clip_count: u64,
        classes: [u32; 2],
        tables: Vec<Vec<(u32, f64)>>,
        runs: Vec<Vec<(u32, u32)>>,
    }

    const CAR: usize = 2;

    impl Raw {
        /// [`sample`], spelled as bytes.
        fn sample() -> Raw {
            let (objects, actions) = (ObjectClass::cardinality(), ActionClass::cardinality());
            let jumping = objects + ActionClass::named("jumping").index();
            assert_eq!(ObjectClass::named("car").index(), CAR);
            let mut tables = vec![Vec::new(); objects + actions];
            let mut runs = vec![Vec::new(); objects + actions];
            tables[CAR] = vec![(3, 5.0), (2, 3.0), (7, 1.0)];
            tables[jumping] = vec![(4, 4.0), (3, 2.0)];
            runs[CAR] = vec![(2, 3), (7, 7)];
            runs[jumping] = vec![(3, 4)];
            Raw {
                magic: MAGIC,
                version: VERSION,
                video: 1,
                geometry: [10, 5, 25],
                clip_count: 10,
                classes: [objects as u32, actions as u32],
                tables,
                runs,
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut out = self.magic.to_vec();
            out.extend(self.version.to_le_bytes());
            out.extend(self.video.to_le_bytes());
            for g in self.geometry {
                out.extend(g.to_le_bytes());
            }
            out.extend(self.clip_count.to_le_bytes());
            for c in self.classes {
                out.extend(c.to_le_bytes());
            }
            for table in &self.tables {
                out.extend((table.len() as u32).to_le_bytes());
                for (clip, _) in table {
                    out.extend(clip.to_le_bytes());
                }
                for (_, score) in table {
                    out.extend(score.to_bits().to_le_bytes());
                }
            }
            for runs in &self.runs {
                out.extend((runs.len() as u32).to_le_bytes());
                for (start, end) in runs {
                    out.extend(start.to_le_bytes());
                    out.extend(end.to_le_bytes());
                }
            }
            out
        }
    }

    /// The file is refused with a typed storage error mentioning `needle`.
    fn refused(bytes: &[u8], needle: &str) {
        match decode(bytes) {
            Err(SvqError::Storage(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => unreachable!("expected a storage error, got {other:?}"),
        }
    }

    fn bent(bend: impl FnOnce(&mut Raw)) -> Vec<u8> {
        let mut raw = Raw::sample();
        bend(&mut raw);
        raw.bytes()
    }

    #[test]
    fn encoder_writes_the_documented_layout() {
        let bytes = encode(&sample()).unwrap();
        assert_eq!(bytes, Raw::sample().bytes());
        assert_eq!(&bytes[..4], b"SVQC");
        // Header, a row/sequence count per class, 5 rows, 3 sequences.
        let classes = ObjectClass::cardinality() + ActionClass::cardinality();
        assert_eq!(bytes.len(), 44 + 8 * classes + 5 * 12 + 3 * 8);
    }

    #[test]
    fn decode_inverts_encode_bit_for_bit() {
        let bytes = encode(&sample()).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(encode(&back).unwrap(), bytes);
        assert_eq!(back.video, VideoId::new(1));
        assert_eq!(back.geometry, VideoGeometry::default());
        // Scores read back from the rows alone.
        assert_eq!(
            back.object_table(ObjectClass::named("car"))
                .peek_score(ClipId::new(7)),
            1.0
        );
    }

    #[test]
    fn scores_round_trip_as_bits() {
        // Subnormals, the largest finite value, and neighbours one ulp
        // apart that shortest-decimal printing has to work to tell apart.
        let scores = [
            f64::MAX,
            0.1 + 0.2,
            0.3,
            f64::from_bits(0.3f64.to_bits() - 1),
            f64::MIN_POSITIVE,
            f64::from_bits(2), // subnormal
            f64::from_bits(1), // smallest subnormal
        ];
        let mut raw = Raw::sample();
        raw.clip_count = 100;
        raw.tables[CAR] = scores.iter().zip(10u32..).map(|(s, c)| (c, *s)).collect();
        let back = decode(&raw.bytes()).unwrap();
        let got: Vec<u64> = back
            .object_table(ObjectClass::named("car"))
            .iter_sorted()
            .map(|(_, s)| s.to_bits())
            .collect();
        let want: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(encode(&back).unwrap(), raw.bytes());
    }

    #[test]
    fn refuses_foreign_and_future_files() {
        refused(&bent(|r| r.magic = *b"SVQD"), "re-ingest");
        refused(b"{\"video\":1,\"geometry\":{}}", "re-ingest");
        refused(&bent(|r| r.version = 2), "re-ingest");
        refused(&bent(|r| r.version = 0), "version 0");
    }

    #[test]
    fn refuses_every_truncation_and_any_trailing_byte() {
        let bytes = Raw::sample().bytes();
        for keep in 0..bytes.len() {
            refused(&bytes[..keep], "truncated");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        refused(&longer, "1 trailing bytes");
    }

    #[test]
    fn refuses_lengths_that_overrun_the_file() {
        // A count no file could back must be refused before allocating.
        refused(&bent(|r| r.classes = [u32::MAX, u32::MAX]), "vocabulary");
        let at_first_row_count = HEADER_BYTES;
        let mut bytes = Raw::sample().bytes();
        bytes[at_first_row_count..at_first_row_count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        refused(&bytes, "clip-id column");
        // Same for a sequence count: the last class has no sequences, so
        // its count is the file's final four bytes.
        let mut bytes = Raw::sample().bytes();
        let at = bytes.len() - 4;
        bytes[at..].copy_from_slice(&0x2000_0000u32.to_le_bytes());
        refused(&bytes, "sequence list");
    }

    #[test]
    fn refuses_a_header_that_contradicts_the_program() {
        let objects = ObjectClass::cardinality() as u32;
        let actions = ActionClass::cardinality() as u32;
        refused(&bent(|r| r.classes = [objects - 1, actions]), "vocabulary");
        refused(&bent(|r| r.classes = [actions, objects]), "vocabulary");
        for axis in 0..3 {
            refused(&bent(|r| r.geometry[axis] = 0), "zero in geometry");
        }
    }

    #[test]
    fn refuses_tables_new_would_not_have_built() {
        refused(&bent(|r| r.tables[CAR][2].1 = 0.0), "non-positive");
        refused(&bent(|r| r.tables[CAR][0].1 = -5.0), "non-positive");
        refused(&bent(|r| r.tables[CAR][1].1 = f64::NAN), "non-positive");
        refused(&bent(|r| r.tables[CAR].swap(0, 1)), "out of");
        refused(&bent(|r| r.tables[CAR][2].0 = 3), "twice");
    }

    #[test]
    fn refuses_sequences_a_merger_would_not_have_emitted() {
        refused(&bent(|r| r.runs[CAR][0] = (3, 2)), "inverted");
        refused(&bent(|r| r.runs[CAR].swap(0, 1)), "unsorted");
        refused(&bent(|r| r.runs[CAR] = vec![(2, 5), (6, 7)]), "adjacent");
        refused(&bent(|r| r.runs[CAR] = vec![(2, 5), (4, 7)]), "overlapping");
    }

    #[test]
    fn refuses_clips_past_clip_count() {
        // The sample mentions clips up to 7: 8 clips hold them, 7 do not.
        assert!(decode(&bent(|r| r.clip_count = 8)).is_ok());
        refused(&bent(|r| r.clip_count = 7), "mentions clip 7");
        refused(&bent(|r| r.runs[CAR][1] = (7, 12)), "mentions clip 12");
        refused(
            &bent(|r| r.tables[CAR][0].0 = u32::MAX),
            "mentions clip 4294967295",
        );
    }

    #[test]
    fn encoder_refuses_a_clip_id_wider_than_its_column() {
        let mut cat = sample();
        let wide = ClipId::new(u64::from(u32::MAX) + 1);
        cat.clip_count = wide.raw() + 1;
        cat.object_tables[CAR] = ClipScoreTable::new(vec![(wide, 1.0)]);
        match encode(&cat) {
            Err(SvqError::Storage(msg)) => assert!(msg.contains("does not fit"), "{msg}"),
            other => unreachable!("expected a storage error, got {other:?}"),
        }
        // Same for a sequence bound.
        let mut cat = sample();
        cat.object_sequences[CAR] = SequenceSet::new(vec![Interval::new(ClipId::new(0), wide)]);
        assert!(matches!(encode(&cat), Err(SvqError::Storage(_))));
    }
}
