//! Differential test: the dense, lazily pruned [`TbClip`] against the
//! `BTreeMap` implementation it replaced (`reference/tbclip_btree.rs`).
//!
//! Both iterators are driven over the same random catalog with the same
//! skip schedule; after every call the delivered [`TbClipStep`] and the
//! sorted / random accesses each iterator charged to its own ledger for it
//! must be identical. The catalogs
//! are built to hit what the lazy pruning and the dense indexing could get
//! wrong: heavy score ties, empty tables, clips missing from some tables,
//! clip ids past `clip_count`, one to four tables, sequences skipped
//! between calls, and the noSkip set.

#[path = "reference/tbclip_btree.rs"]
mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::BTreeTbClip;
use svq_core::offline::{SkipSet, TbClip, TbClipStep};
use svq_storage::{ClipScoreTable, DiskStats, IngestedVideo, SequenceSet};
use svq_types::{
    ActionClass, ActionQuery, ClipId, Interval, MaxScoring, ObjectClass, PaperScoring,
    ScoringFunctions, VideoGeometry, VideoId, Vocabulary,
};

/// Additive `g`: unlike the paper's product it is not identically zero on
/// the action-only query, so that shape ranks by something.
#[derive(Debug)]
struct AdditiveScoring;

impl ScoringFunctions for AdditiveScoring {
    fn h_object(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }
    fn h_action(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }
    fn g(&self, object_scores: &[f64], action_score: f64) -> f64 {
        action_score + object_scores.iter().sum::<f64>()
    }
    fn f_identity(&self) -> f64 {
        0.0
    }
    fn f_combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        clip_score * n as f64
    }
}

/// One random table over clips `0..clips` (plus, sometimes, a few ids past
/// the end): empty one time in eight, otherwise each clip present with a
/// per-table probability and scored from a handful of values or a
/// continuum.
fn random_table(rng: &mut StdRng, clips: u64) -> ClipScoreTable {
    if rng.gen_range(0..8) == 0 {
        return ClipScoreTable::new(Vec::new());
    }
    let present = [0.3, 0.7, 1.0][rng.gen_range(0..3usize)];
    let tied = rng.gen_bool(0.6);
    let span = clips + rng.gen_range(0..4u64) * u64::from(rng.gen_bool(0.25));
    let rows = (0..span)
        .filter_map(|c| {
            let score = if tied {
                f64::from(rng.gen_range(1..5u32)) * 0.5
            } else {
                rng.gen_range(0.01..4.0)
            };
            rng.gen_bool(present).then_some((ClipId::new(c), score))
        })
        .collect();
    ClipScoreTable::new(rows)
}

/// A catalog whose tables for `query` are random and whose other tables
/// are empty.
fn random_catalog(rng: &mut StdRng, clips: u64, query: &ActionQuery) -> IngestedVideo {
    let objects = query
        .objects
        .iter()
        .map(|_| random_table(rng, clips))
        .collect();
    catalog_with(clips, query, objects, random_table(rng, clips))
}

/// A catalog holding `objects` (in query order) and `action` as `query`'s
/// tables, every other table empty. `TbClip` never reads the catalog's
/// sequence sets.
fn catalog_with(
    clips: u64,
    query: &ActionQuery,
    objects: Vec<ClipScoreTable>,
    action: ClipScoreTable,
) -> IngestedVideo {
    let empty = || ClipScoreTable::new(Vec::new());
    let mut object_tables: Vec<_> = (0..ObjectClass::cardinality()).map(|_| empty()).collect();
    let mut action_tables: Vec<_> = (0..ActionClass::cardinality()).map(|_| empty()).collect();
    for (o, table) in query.objects.iter().zip(objects) {
        object_tables[o.index()] = table;
    }
    action_tables[query.action.index()] = action;
    IngestedVideo::new(
        VideoId::new(0),
        VideoGeometry::default(),
        clips,
        object_tables,
        action_tables,
        vec![SequenceSet::empty(); ObjectClass::cardinality()],
        vec![SequenceSet::empty(); ActionClass::cardinality()],
    )
}

/// Random disjoint runs over `0..clips + 2` (so `P_q` may reach past the
/// catalog, as hand-built ones do).
fn random_pq(rng: &mut StdRng, clips: u64) -> SequenceSet {
    let mut intervals = Vec::new();
    let mut at = rng.gen_range(0..4u64);
    while at < clips + 2 {
        let end = at + rng.gen_range(0..6u64);
        intervals.push(Interval::new(ClipId::new(at), ClipId::new(end)));
        at = end + 2 + rng.gen_range(0..5u64);
    }
    SequenceSet::new(intervals)
}

/// What a ledger gained since `before`, which then moves up to it.
fn charged(ledger: DiskStats, before: &mut DiskStats) -> DiskStats {
    let delta = DiskStats {
        sorted_accesses: ledger.sorted_accesses - before.sorted_accesses,
        random_accesses: ledger.random_accesses - before.random_accesses,
    };
    *before = ledger;
    delta
}

/// One call of both iterators, which must deliver the same step and charge
/// the same accesses for it; `marks` are their ledgers before the call.
fn next_alike(
    dense: &mut TbClip,
    btree: &mut BTreeTbClip,
    skip: &SkipSet,
    marks: &mut (DiskStats, DiskStats),
    at: impl Fn() -> String,
) -> TbClipStep {
    let got = dense.next(skip);
    let got_cost = charged(dense.disk(), &mut marks.0);
    let want = btree.next(skip);
    let want_cost = charged(btree.disk(), &mut marks.1);
    assert_eq!(got, want, "{}: step", at());
    assert_eq!(got_cost, want_cost, "{}: accesses", at());
    got
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clips = rng.gen_range(1..48u64);
    let n_objects = rng.gen_range(0..4usize);
    let query = ActionQuery::new(
        ActionClass::from_index(rng.gen_range(0..ActionClass::cardinality())),
        (0..n_objects)
            .map(|i| ObjectClass::from_index(i * 3 + rng.gen_range(0..3usize)))
            .collect::<Vec<_>>(),
    );
    let catalog = random_catalog(&mut rng, clips, &query);
    let scoring: &dyn ScoringFunctions = match rng.gen_range(0..3u32) {
        0 => &PaperScoring,
        1 => &MaxScoring,
        _ => &AdditiveScoring,
    };
    let pq = random_pq(&mut rng, clips);
    let mut skip = if rng.gen_range(0..5u32) == 0 {
        SkipSet::disabled(pq)
    } else {
        SkipSet::new(pq)
    };

    let mut dense = TbClip::new(&catalog, &query, scoring);
    let mut btree = BTreeTbClip::new(&catalog, &query, scoring);
    let mut marks = (DiskStats::default(), DiskStats::default());
    for call in 0..2 * clips + 8 {
        // Between calls: sometimes conclude a sequence (C_skip only grows),
        // sometimes ask for a clip's exact score as RVAQ's exact pass does.
        if !skip.pq().is_empty() && rng.gen_bool(0.3) {
            skip.skip_sequence(rng.gen_range(0..skip.pq().len()));
        }
        if rng.gen_bool(0.2) {
            let clip = ClipId::new(rng.gen_range(0..clips + 6));
            assert_eq!(dense.score_cached(clip), btree.score_cached(clip));
            let got = dense.score_of(clip);
            let got_cost = charged(dense.disk(), &mut marks.0);
            let want = btree.score_of(clip);
            let want_cost = charged(btree.disk(), &mut marks.1);
            assert_eq!(
                (got.to_bits(), got_cost),
                (want.to_bits(), want_cost),
                "seed {seed} call {call}: score_of({clip:?})"
            );
        }
        let got = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
            format!("seed {seed} call {call}")
        });
        if got.top.is_none() && got.bottom.is_none() && rng.gen_bool(0.5) {
            break; // otherwise keep calling the exhausted iterators
        }
    }
}

/// Catalogs that broke step 2 / 4 rankings keyed by memoised scores, kept
/// so every run covers them whatever the property draws. The first needs a
/// memoised clip whose key moved off its bound to rank ahead of an unscored
/// clip at an equal key, and the winner among clips tied at the best score
/// to be the smallest id a bound-ordered walk reaches; the second needs the
/// bottom side's key to be `max(bound, score)`, not the bare score; the
/// third fails a winner taken as the smallest tied id the key-ordered walk
/// happened to score.
#[test]
fn tie_and_key_corners_match_the_btree_reference() {
    for seed in [
        10_499_185_409_087_727_473,
        11_053_443_083_976_518_240,
        14_208_915_743_331_490_756,
    ] {
        run_case(seed);
    }
}

/// A table from `(clip, score)` rows.
fn table(rows: &[(u64, f64)]) -> ClipScoreTable {
    ClipScoreTable::new(rows.iter().map(|&(c, s)| (ClipId::new(c), s)).collect())
}

/// Drive both iterators to exhaustion, comparing every step.
fn finish_alike(
    dense: &mut TbClip,
    btree: &mut BTreeTbClip,
    skip: &SkipSet,
    marks: &mut (DiskStats, DiskStats),
    case: &str,
) {
    for call in 0..64 {
        let step = next_alike(dense, btree, skip, marks, || format!("{case} call {call}"));
        if step.top.is_none() && step.bottom.is_none() {
            return;
        }
    }
    panic!("{case}: the iterators never ran dry");
}

/// A call in which no live clip of the top side has a memoised score, so
/// there is no cut and every live clip is a candidate: the walk must still
/// stop where the bound order stops and leave the clip past it unscored.
///
/// With `g = car + jumping`, call 0 delivers clip 0 from the top and clip 7
/// from the bottom, each the only clip its side has seen. Call 1 reads two
/// more rows from the top and sees clips 1 (exact 4.0) and 2 (exact 5.5),
/// neither memoised; it scores clip 2 and stops before clip 1, which call 2
/// then scores with again no cut.
#[test]
fn a_call_with_no_memoised_live_clip_matches_the_btree_reference() {
    let query = ActionQuery::named("jumping", &["car"]);
    let car = table(&[
        (0, 4.0),
        (1, 3.0),
        (2, 2.0),
        (3, 1.9),
        (4, 1.8),
        (5, 1.7),
        (6, 1.6),
        (7, 1.5),
    ]);
    let jumping = table(&[
        (0, 4.0),
        (2, 3.5),
        (1, 1.0),
        (3, 0.9),
        (4, 0.8),
        (5, 0.7),
        (6, 0.6),
        (7, 0.5),
    ]);
    let catalog = catalog_with(8, &query, vec![car], jumping);
    let skip = SkipSet::new(SequenceSet::new(vec![Interval::new(
        ClipId::new(0),
        ClipId::new(7),
    )]));
    let mut dense = TbClip::new(&catalog, &query, &AdditiveScoring);
    let mut btree = BTreeTbClip::new(&catalog, &query, &AdditiveScoring);
    let mut marks = (DiskStats::default(), DiskStats::default());
    let case = "no memoised live clip";
    let clip = ClipId::new;

    let first = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
        format!("{case} call 0")
    });
    assert_eq!(first.top, Some((clip(0), 8.0)));
    assert_eq!(first.bottom, Some((clip(7), 2.0)));
    assert!(!dense.score_cached(clip(1)) && !dense.score_cached(clip(2)));

    let second = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
        format!("{case} call 1")
    });
    assert_eq!(second.top, Some((clip(2), 5.5)));
    assert!(!dense.score_cached(clip(1)), "the walk stops before clip 1");

    let third = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
        format!("{case} call 2")
    });
    assert_eq!(third.top, Some((clip(1), 4.0)));
    finish_alike(&mut dense, &mut btree, &skip, &mut marks, case);
}

/// A clip the top side holds unscored whose score the bottom side
/// memoises between two top calls: the top side must re-key it from its
/// bound to its score.
///
/// With `g = car + jumping`, clip 0 sits high in `car` and last in
/// `jumping`. In call 0 the top side sees it in `car` with bound
/// 4.9 + 3.95 = 8.85, below clip 1's exact 8.95, so it delivers clip 1
/// without scoring clip 0. The bottom side then sees clip 0 first in
/// `jumping` with the lowest bound (0.1 + 0.3) and scores it (5.0). In
/// call 1 the top side ranks clip 0 by that memoised 5.0, behind clips 2
/// and 3, and delivers clip 2.
#[test]
fn a_clip_memoised_by_the_other_side_matches_the_btree_reference() {
    let query = ActionQuery::named("jumping", &["car"]);
    let car = table(&[
        (1, 5.0),
        (0, 4.9),
        (2, 4.8),
        (3, 4.0),
        (4, 3.0),
        (5, 2.5),
        (6, 2.0),
        (7, 1.0),
        (8, 0.3),
        (9, 0.2),
    ]);
    let jumping = table(&[
        (2, 4.0),
        (1, 3.95),
        (3, 3.5),
        (4, 3.0),
        (5, 2.6),
        (6, 2.1),
        (7, 1.5),
        (8, 0.6),
        (9, 0.5),
        (0, 0.1),
    ]);
    let catalog = catalog_with(10, &query, vec![car], jumping);
    let skip = SkipSet::new(SequenceSet::new(vec![Interval::new(
        ClipId::new(0),
        ClipId::new(9),
    )]));
    let mut dense = TbClip::new(&catalog, &query, &AdditiveScoring);
    let mut btree = BTreeTbClip::new(&catalog, &query, &AdditiveScoring);
    let mut marks = (DiskStats::default(), DiskStats::default());
    let case = "memoised by the other side";
    let clip = ClipId::new;

    let first = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
        format!("{case} call 0")
    });
    assert_eq!(first.top.map(|(c, _)| c), Some(clip(1)));
    assert_eq!(first.bottom.map(|(c, _)| c), Some(clip(9)));
    assert!(dense.score_cached(clip(0)), "the bottom side scored clip 0");

    let second = next_alike(&mut dense, &mut btree, &skip, &mut marks, || {
        format!("{case} call 1")
    });
    assert_eq!(second.top.map(|(c, _)| c), Some(clip(2)));
    finish_alike(&mut dense, &mut btree, &skip, &mut marks, case);
}

proptest! {
    #[test]
    fn dense_tbclip_matches_the_btree_reference_step_for_step(seed in any::<u64>()) {
        // The stand-in runs 64 cases per property; fan each out so a plain
        // `cargo test` covers a few thousand catalogs.
        for sub in 0..48u64 {
            run_case(seed ^ sub.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
    }
}
