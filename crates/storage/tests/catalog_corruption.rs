//! What the catalog decoder does with a damaged file: a typed
//! `SvqError::Storage`, or — when the damage happens to spell another valid
//! file — a catalog that upholds every table/sequence invariant and
//! re-encodes to exactly the bytes it was decoded from. Never a panic.

use proptest::prelude::*;
use std::collections::BTreeMap;
use svq_storage::{ClipScoreTable, IngestedVideo, SequenceSet};
use svq_types::{
    ActionClass, ClipId, Interval, ObjectClass, SvqError, VideoGeometry, VideoId, Vocabulary,
};

const CLIPS: u64 = 64;

/// Scores worth a second look: subnormals, the extremes, and values whose
/// shortest decimal spelling differs from how they were computed.
const AWKWARD: [f64; 8] = [
    f64::MAX,
    f64::MIN_POSITIVE,
    5e-324,                 // smallest subnormal
    2.225073858507201e-308, // largest subnormal
    0.1 + 0.2,
    1.0 / 3.0,
    1e23,
    9007199254740992.0, // 2^53
];

/// A catalog whose first `filled` object and action classes carry non-empty
/// tables and sequences drawn from `rows`; every other class is empty, as
/// in an ingested video.
fn catalog(rows: &[(u64, u64, usize)], filled: usize) -> IngestedVideo {
    let table = |class: usize| {
        // Keyed by clip so ids stay unique; the last row guarantees the
        // table is never empty.
        let mut entries = BTreeMap::new();
        for &(clip, bits, awkward) in rows {
            let score = match AWKWARD.get(awkward) {
                Some(score) => *score,
                None => f64::from_bits(bits >> 2), // any positive bit pattern
            };
            if score > 0.0 && !score.is_nan() {
                entries.insert(ClipId::new((clip + class as u64) % CLIPS), score);
            }
        }
        entries.insert(ClipId::new(CLIPS - 1 - class as u64), 1.5);
        ClipScoreTable::new(entries.into_iter().collect())
    };
    let sequences = |class: usize| {
        SequenceSet::new(
            rows.iter()
                .map(|&(clip, bits, _)| {
                    let start = (clip + class as u64) % CLIPS;
                    let end = (start + bits % 4).min(CLIPS - 1);
                    Interval::new(ClipId::new(start), ClipId::new(end))
                })
                .collect(),
        )
    };
    let empty_table = || ClipScoreTable::new(vec![]);
    let tables = |n: usize, shift: usize| -> Vec<ClipScoreTable> {
        (0..n)
            .map(|i| {
                if i < filled {
                    table(i + shift)
                } else {
                    empty_table()
                }
            })
            .collect()
    };
    let sets = |n: usize, shift: usize| -> Vec<SequenceSet> {
        (0..n)
            .map(|i| {
                if i < filled {
                    sequences(i + shift)
                } else {
                    SequenceSet::empty()
                }
            })
            .collect()
    };
    IngestedVideo::new(
        VideoId::new(rows.len() as u64),
        VideoGeometry::default(),
        CLIPS,
        tables(ObjectClass::cardinality(), 0),
        tables(ActionClass::cardinality(), 7),
        sets(ObjectClass::cardinality(), 0),
        sets(ActionClass::cardinality(), 7),
    )
}

/// Everything query processing assumes of a catalog, checked through the
/// public surface only.
fn assert_invariants(cat: &IngestedVideo) {
    let tables = ObjectClass::all()
        .map(|c| cat.object_table(c))
        .chain(ActionClass::all().map(|c| cat.action_table(c)));
    for table in tables {
        let rows: Vec<(ClipId, f64)> = table.iter_sorted().collect();
        for (clip, score) in &rows {
            assert!(*score > 0.0, "non-positive score {score}");
            assert!(clip.raw() < cat.clip_count, "clip {clip} out of range");
            // The derived random-access mirror agrees with the row.
            assert_eq!(table.peek_score(*clip).to_bits(), score.to_bits());
        }
        for w in rows.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "rows out of order: {w:?}"
            );
        }
        let mut clips: Vec<ClipId> = rows.iter().map(|(c, _)| *c).collect();
        clips.sort();
        clips.dedup();
        assert_eq!(clips.len(), rows.len(), "duplicate clip id");
    }
    let sets = ObjectClass::all()
        .map(|c| cat.object_sequences(c))
        .chain(ActionClass::all().map(|c| cat.action_sequences(c)));
    for set in sets {
        for iv in set.intervals() {
            assert!(iv.start <= iv.end, "inverted {iv:?}");
            assert!(
                iv.end.raw() < cat.clip_count,
                "sequence {iv:?} out of range"
            );
        }
        for w in set.intervals().windows(2) {
            assert!(w[0].end.next() < w[1].start, "unsorted or adjacent: {w:?}");
        }
    }
    assert!(cat.geometry.frames_per_shot > 0 && cat.geometry.shots_per_clip > 0);
    assert!(cat.geometry.fps > 0);
}

/// The decoder's whole contract on arbitrary bytes.
fn assert_typed_or_faithful(bytes: &[u8]) {
    match IngestedVideo::decode(bytes) {
        Ok(cat) => {
            assert_invariants(&cat);
            assert_eq!(
                cat.encode().unwrap(),
                bytes,
                "accepted bytes do not round-trip"
            );
        }
        Err(SvqError::Storage(_)) => {}
        Err(other) => unreachable!("decode must fail with SvqError::Storage, got {other}"),
    }
}

fn rows() -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    prop::collection::vec((0..CLIPS, any::<u64>(), 0..2 * AWKWARD.len()), 1..24)
}

proptest! {
    /// `encode ∘ decode ∘ encode = encode`, every score bit-for-bit.
    #[test]
    fn round_trip_is_exact_to_the_bit(rows in rows(), filled in 1..4usize) {
        let cat = catalog(&rows, filled);
        assert_invariants(&cat);
        let bytes = cat.encode().unwrap();
        let back = IngestedVideo::decode(&bytes).unwrap();
        assert_invariants(&back);
        prop_assert_eq!(&back.encode().unwrap(), &bytes);
        for class in ObjectClass::all() {
            let want: Vec<(ClipId, u64)> =
                cat.object_table(class).iter_sorted().map(|(c, s)| (c, s.to_bits())).collect();
            let got: Vec<(ClipId, u64)> =
                back.object_table(class).iter_sorted().map(|(c, s)| (c, s.to_bits())).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(back.object_sequences(class), cat.object_sequences(class));
        }
        prop_assert_eq!((back.video, back.geometry, back.clip_count),
                        (cat.video, cat.geometry, cat.clip_count));
    }

    /// (a) Every strict prefix of a valid file is refused.
    #[test]
    fn every_truncation_is_a_typed_error(rows in rows(), filled in 1..4usize) {
        let bytes = catalog(&rows, filled).encode().unwrap();
        for keep in 0..bytes.len() {
            match IngestedVideo::decode(&bytes[..keep]) {
                Err(SvqError::Storage(_)) => {}
                other => unreachable!("prefix {keep}/{} gave {other:?}", bytes.len()),
            }
        }
    }

    /// (b) One flipped byte is refused, or decodes to a sound catalog that
    /// re-encodes to the flipped bytes.
    #[test]
    fn a_flipped_byte_is_typed_or_faithful(
        rows in rows(), filled in 1..4usize,
        flips in prop::collection::vec((any::<usize>(), 1..256u32), 32..33),
    ) {
        let bytes = catalog(&rows, filled).encode().unwrap();
        // Half the flips land where the non-empty classes live (header,
        // first tables) — uniform offsets would mostly hit empty counts.
        for (i, (at, mask)) in flips.into_iter().enumerate() {
            let span = if i % 2 == 0 { bytes.len() } else { bytes.len().min(400) };
            let mut bent = bytes.clone();
            bent[at % span] ^= mask as u8;
            assert_typed_or_faithful(&bent);
        }
    }

    /// (c) Appended bytes are refused.
    #[test]
    fn appended_bytes_are_a_typed_error(
        rows in rows(), filled in 1..4usize,
        tail in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let mut bytes = catalog(&rows, filled).encode().unwrap();
        bytes.extend(tail);
        prop_assert!(matches!(IngestedVideo::decode(&bytes), Err(SvqError::Storage(_))));
    }
}
