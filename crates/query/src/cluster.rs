//! Cross-shard scatter-gather merge for cluster-wide top-K queries.
//!
//! A cluster query (`video: "all"` on the wire) runs the offline plan over
//! every video of a catalog that has been hash-partitioned across shards
//! (`svq_types::shard_index`). Each shard answers with its *local* top-K —
//! the merge of its videos' per-video RVAQ results — and the router merges
//! shard answers into the global top-K. This module defines the merge and
//! the invariant everything downstream leans on:
//!
//! **Associativity.** [`merge_cluster`] over per-video parts (what a single
//! process computes) and the two-level merge — per-video parts grouped into
//! shard-local merges, then merged again at the router — produce *identical*
//! [`ClusterTopK`] values, bytes included. Selection is the top-K of the
//! union of part entries under the strict total order [`cluster_order`]
//! (score desc, then video, then interval), and a shard-level truncation can
//! only drop entries that the flat merge drops too. The tail bound composes
//! the same way: entries dropped at a shard and entries dropped at the
//! router together are exactly the entries the flat merge drops.
//!
//! **Pruning (the Eq. 13–15 move, lifted to shards).** RVAQ stops scanning
//! a video when no unseen sequence's best-possible score can enter the
//! top-K; the router applies the same reasoning to whole shards. A part's
//! [`upper bound`](ClusterPart::upper) — the best score any of its entries
//! *or anything it truncated away* could have — is compared against the
//! running K-th selected score, and a part is skipped iff it is *strictly*
//! below. Ties are never pruned: an equal-score entry could still enter the
//! global top-K by the deterministic tiebreak, so pruning on a tie would
//! change bytes. Pruning therefore never alters the result — it only saves
//! work — and [`MergeStats`] (router-side observability, deliberately not
//! part of the wire payload) records how often it fired.
//!
//! The per-video reduction itself — global top-K ⊆ union of per-video
//! top-Ks, because scores are per-sequence and videos are disjoint — is the
//! same one `svq_core::offline::RepositoryRvaq` uses in-process; this
//! module adds the truncation bounds and the wire-stable payload that let
//! the reduction span processes.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use svq_core::offline::TopKResult;
use svq_types::{ClipInterval, VideoId};

/// One globally-ranked result sequence: a per-video interval qualified by
/// the video it came from, with the exact score RVAQ materialised.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterRanked {
    /// The video the sequence belongs to.
    pub video: VideoId,
    /// The ranked clip sequence within that video.
    pub interval: ClipInterval,
    /// Exact sequence score (RVAQ runs with exact scores materialised).
    pub score: f64,
}

/// Cluster-wide top-K payload — the `"cluster"` mode of a query outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterTopK {
    /// The requested K.
    pub k: usize,
    /// Global top-K across every video, best first under [`cluster_order`].
    pub ranked: Vec<ClusterRanked>,
    /// Upper bound on the score of any sequence *not* listed in `ranked`
    /// (`None` when nothing anywhere was truncated away). Grouping-
    /// independent, so it is byte-identical between single-process and
    /// routed execution.
    pub tail_bound: Option<f64>,
    /// Number of videos examined.
    pub videos: usize,
    /// Total candidate sequences `|P_q|` summed over all videos.
    pub total_sequences: usize,
    /// Wall-clock of the merge's enclosing execution, milliseconds
    /// (zeroed by canonicalisation).
    pub wall_ms: f64,
}

/// One mergeable input: a video's top-K, or a whole shard's local merge.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPart {
    /// The part's ranked entries (order within the part is irrelevant; the
    /// merge re-sorts the selection pool under [`cluster_order`]).
    pub ranked: Vec<ClusterRanked>,
    /// Upper bound on anything this part already truncated away.
    pub tail_bound: Option<f64>,
    /// Videos this part covers.
    pub videos: usize,
    /// Candidate sequences this part saw before ranking.
    pub total_sequences: usize,
}

impl ClusterPart {
    /// Best possible score of any sequence this part holds *or dropped* —
    /// the bound the router prunes on.
    pub fn upper(&self) -> Option<f64> {
        let best = self
            .ranked
            .iter()
            .map(|r| r.score)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });
        match (best, self.tail_bound) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }
}

impl From<ClusterTopK> for ClusterPart {
    /// A shard's local merge, re-entering the router's global merge.
    fn from(local: ClusterTopK) -> Self {
        ClusterPart {
            ranked: local.ranked,
            tail_bound: local.tail_bound,
            videos: local.videos,
            total_sequences: local.total_sequences,
        }
    }
}

/// Observability counters for one merge. Router-side only: deliberately
/// *not* serialized into the outcome, so the wire payload stays independent
/// of how the catalog happened to be sharded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Parts offered to the merge.
    pub parts: usize,
    /// Parts skipped because their upper bound could not crack the top-K.
    pub pruned: usize,
    /// Entries actually scanned into the selection pool.
    pub scanned: usize,
}

/// The strict total order ranking cluster results: score descending, then
/// video ascending, then interval ascending. `(video, interval)` pairs are
/// unique across parts, so no two distinct entries ever compare equal —
/// which is what makes the merge deterministic and associative.
pub fn cluster_order(a: &ClusterRanked, b: &ClusterRanked) -> Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| a.video.cmp(&b.video))
        .then_with(|| a.interval.cmp(&b.interval))
}

/// Convert one video's RVAQ answer into a mergeable part.
///
/// The part's tail bound is the video's K-th (worst listed) score whenever
/// RVAQ had more candidates than it listed — every unlisted sequence of the
/// video scores no better than the K-th by the top-K contract.
pub fn part_of_video(video: VideoId, topk: &TopKResult) -> ClusterPart {
    let ranked: Vec<ClusterRanked> = topk
        .ranked
        .iter()
        .map(|r| ClusterRanked {
            video,
            interval: r.interval,
            score: r.exact.unwrap_or(r.lower),
        })
        .collect();
    let tail_bound = (topk.total_sequences > ranked.len())
        .then(|| {
            ranked
                .iter()
                .map(|r| r.score)
                .fold(None, |acc: Option<f64>, s| {
                    Some(acc.map_or(s, |a| a.min(s)))
                })
        })
        .flatten();
    ClusterPart {
        ranked,
        tail_bound,
        videos: 1,
        total_sequences: topk.total_sequences,
    }
}

fn fold_tail(tail: &mut Option<f64>, bound: f64) {
    *tail = Some(tail.map_or(bound, |t| t.max(bound)));
}

/// Merge parts into the global top-K. Grouping-independent (see the module
/// docs for the argument); pruning fires iff provably safe.
pub fn merge_cluster(k: usize, parts: Vec<ClusterPart>) -> (ClusterTopK, MergeStats) {
    let mut stats = MergeStats {
        parts: parts.len(),
        ..MergeStats::default()
    };
    // Scan order: best-possible upper bound descending (empty parts last),
    // original position as the deterministic tiebreak. Scanning strong
    // parts first makes the K-th selected score climb fastest, which is
    // what lets later, weaker parts be pruned.
    let mut order: Vec<usize> = (0..parts.len()).collect();
    let upper_key = |i: usize| parts[i].upper().unwrap_or(f64::NEG_INFINITY);
    order.sort_by(|&a, &b| upper_key(b).total_cmp(&upper_key(a)).then(a.cmp(&b)));

    let mut pool: Vec<ClusterRanked> = Vec::new();
    let mut kth: Option<f64> = None; // K-th best selected score, once ≥ K scanned
    let mut tail: Option<f64> = None;
    let mut videos = 0usize;
    let mut total_sequences = 0usize;
    for i in order {
        let part = &parts[i];
        videos += part.videos;
        total_sequences += part.total_sequences;
        let prunable = match (part.upper(), kth) {
            // Strictly below the K-th selected score: nothing in the part
            // (nor anything it truncated) can enter the top-K, and nothing
            // can even tie — skipping is invisible in the output.
            (Some(upper), Some(kth)) => upper < kth,
            // An entirely empty part contributes nothing either way.
            (None, _) => true,
            _ => false,
        };
        if prunable {
            stats.pruned += 1;
            if let Some(upper) = part.upper() {
                fold_tail(&mut tail, upper);
            }
            continue;
        }
        stats.scanned += part.ranked.len();
        pool.extend(part.ranked.iter().copied());
        if let Some(bound) = part.tail_bound {
            fold_tail(&mut tail, bound);
        }
        pool.sort_by(cluster_order);
        if k > 0 && pool.len() >= k {
            kth = Some(pool[k - 1].score);
        }
    }
    // Everything beyond K folds into the tail bound — exactly the entries a
    // shard-local merge would have truncated before the router saw them.
    for dropped in pool.iter().skip(k) {
        fold_tail(&mut tail, dropped.score);
    }
    pool.truncate(k);
    (
        ClusterTopK {
            k,
            ranked: pool,
            tail_bound: tail,
            videos,
            total_sequences,
            wall_ms: 0.0,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_types::{shard_index, ClipId, Interval};

    fn entry(video: u64, start: u64, score: f64) -> ClusterRanked {
        ClusterRanked {
            video: VideoId::new(video),
            interval: Interval::new(ClipId::new(start), ClipId::new(start + 3)),
            score,
        }
    }

    fn part(entries: Vec<ClusterRanked>, tail: Option<f64>) -> ClusterPart {
        let n = entries.len();
        ClusterPart {
            ranked: entries,
            tail_bound: tail,
            videos: 1,
            total_sequences: n + usize::from(tail.is_some()),
        }
    }

    /// Reference implementation: sort the union, truncate, fold the rest
    /// (and every part tail) into the tail bound.
    fn brute_force(k: usize, parts: &[ClusterPart]) -> ClusterTopK {
        let mut all: Vec<ClusterRanked> = parts.iter().flat_map(|p| p.ranked.clone()).collect();
        all.sort_by(cluster_order);
        let mut tail = None;
        for part in parts {
            if let Some(b) = part.tail_bound {
                fold_tail(&mut tail, b);
            }
        }
        for dropped in all.iter().skip(k) {
            fold_tail(&mut tail, dropped.score);
        }
        all.truncate(k);
        ClusterTopK {
            k,
            ranked: all,
            tail_bound: tail,
            videos: parts.iter().map(|p| p.videos).sum(),
            total_sequences: parts.iter().map(|p| p.total_sequences).sum(),
            wall_ms: 0.0,
        }
    }

    #[test]
    fn merge_matches_brute_force() {
        let parts = vec![
            part(vec![entry(0, 0, 0.9), entry(0, 8, 0.4)], Some(0.3)),
            part(vec![entry(1, 2, 0.8), entry(1, 9, 0.7)], None),
            part(vec![entry(2, 4, 0.2)], Some(0.1)),
        ];
        let (merged, stats) = merge_cluster(3, parts.clone());
        assert_eq!(merged, brute_force(3, &parts));
        assert_eq!(stats.parts, 3);
        // The 0.2/0.1 part is strictly below the 3rd-best score (0.7).
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn pruning_is_safe_and_fires_only_strictly_below_kth() {
        // Tie with the K-th selected score: the tied part must be scanned,
        // because its entry (video 0 < video 9) wins the tiebreak.
        let strong = part(vec![entry(9, 0, 1.0), entry(9, 8, 0.5)], None);
        let tied = part(vec![entry(0, 4, 0.5)], None);
        let (merged, stats) = merge_cluster(2, vec![strong.clone(), tied.clone()]);
        assert_eq!(stats.pruned, 0, "a tie is never pruned");
        assert_eq!(merged.ranked[1], entry(0, 4, 0.5), "tiebreak by video id");
        assert_eq!(merged, brute_force(2, &[strong.clone(), tied]));

        // Strictly below: pruned, and the output is still the brute force.
        let below = part(vec![entry(0, 4, 0.4999)], None);
        let (merged, stats) = merge_cluster(2, vec![strong.clone(), below.clone()]);
        assert_eq!(stats.pruned, 1, "strictly dominated shard is skipped");
        assert_eq!(merged, brute_force(2, &[strong, below]));
    }

    #[test]
    fn tail_bound_can_forbid_pruning() {
        // The part's own entries are weak, but its truncation tail admits a
        // score above the K-th — upper() must keep it unpruned.
        let strong = part(vec![entry(9, 0, 1.0), entry(9, 8, 0.9)], None);
        let hidden = part(vec![entry(0, 4, 0.1)], Some(0.95));
        let (merged, stats) = merge_cluster(2, vec![strong, hidden]);
        assert_eq!(stats.pruned, 0);
        // And the unresolvable tail surfaces in the merged bound.
        assert_eq!(merged.tail_bound, Some(0.95));
    }

    #[test]
    fn two_level_merge_is_byte_identical_to_flat_merge() {
        let per_video = vec![
            part(vec![entry(0, 0, 0.9), entry(0, 8, 0.4)], Some(0.35)),
            part(vec![entry(1, 2, 0.8), entry(1, 9, 0.7)], None),
            part(vec![entry(2, 4, 0.7), entry(2, 9, 0.6)], Some(0.2)),
            part(vec![entry(3, 1, 0.5)], None),
        ];
        for k in [1, 2, 3, 4, 7] {
            let (flat, _) = merge_cluster(k, per_video.clone());
            // Group videos {0,1} and {2,3} into two shard-local merges,
            // then merge the shard answers — the router's actual shape.
            for split in 1..per_video.len() {
                let (left, _) = merge_cluster(k, per_video[..split].to_vec());
                let (right, _) = merge_cluster(k, per_video[split..].to_vec());
                let (routed, _) =
                    merge_cluster(k, vec![ClusterPart::from(left), ClusterPart::from(right)]);
                assert_eq!(routed, flat, "grouping changed the merge at k={k}");
                let flat_json = serde_json::to_string(&flat).unwrap();
                let routed_json = serde_json::to_string(&routed).unwrap();
                assert_eq!(routed_json, flat_json, "wire bytes diverged at k={k}");
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (merged, stats) = merge_cluster(3, vec![]);
        assert!(merged.ranked.is_empty());
        assert_eq!(merged.tail_bound, None);
        assert_eq!((stats.parts, stats.pruned), (0, 0));

        // An empty part (a shard owning no videos) is skipped harmlessly.
        let empty = ClusterPart {
            ranked: vec![],
            tail_bound: None,
            videos: 0,
            total_sequences: 0,
        };
        let one = part(vec![entry(0, 0, 0.5)], None);
        let (merged, _) = merge_cluster(2, vec![empty, one]);
        assert_eq!(merged.ranked.len(), 1);

        // k = 0 selects nothing and folds everything into the tail.
        let (merged, _) = merge_cluster(0, vec![part(vec![entry(0, 0, 0.5)], None)]);
        assert!(merged.ranked.is_empty());
        assert_eq!(merged.tail_bound, Some(0.5));
    }

    #[test]
    fn part_of_video_derives_the_tail_from_truncation() {
        use svq_core::offline::TopKResult;
        use svq_storage::DiskStats;
        let topk = TopKResult {
            ranked: vec![
                svq_core::offline::RankedSequence {
                    interval: Interval::new(ClipId::new(0), ClipId::new(3)),
                    lower: 0.8,
                    upper: 0.9,
                    exact: Some(0.85),
                },
                svq_core::offline::RankedSequence {
                    interval: Interval::new(ClipId::new(5), ClipId::new(7)),
                    lower: 0.55,
                    upper: 0.7,
                    exact: Some(0.6),
                },
            ],
            disk: DiskStats::default(),
            wall_ms: 1.0,
            io_ms: 0.5,
            iterations: 10,
            total_sequences: 5,
        };
        let part = part_of_video(VideoId::new(3), &topk);
        assert_eq!(part.ranked.len(), 2);
        assert_eq!(part.ranked[0].score, 0.85);
        // 5 candidates, 2 listed → the tail is bounded by the worst listed.
        assert_eq!(part.tail_bound, Some(0.6));
        assert_eq!(part.upper(), Some(0.85));

        // No truncation → no tail.
        let full = TopKResult {
            total_sequences: 2,
            ..topk
        };
        assert_eq!(part_of_video(VideoId::new(3), &full).tail_bound, None);
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sharded_merge_is_byte_identical_to_single_process(
            raw in prop::collection::vec((0u64..16, 0u64..64, 0.0f64..1.0), 0..32),
            k in 0usize..8,
        ) {
            // Unique (video, interval) pairs — the merge's uniqueness
            // precondition — grouped into per-video truncated parts, the
            // exact shape per-video RVAQ answers arrive in.
            let mut seen = std::collections::BTreeSet::new();
            let mut by_video: std::collections::BTreeMap<u64, Vec<ClusterRanked>> =
                Default::default();
            for (video, start, score) in raw {
                if seen.insert((video, start)) {
                    by_video
                        .entry(video)
                        .or_default()
                        .push(entry(video, start, score));
                }
            }
            let per_video: Vec<ClusterPart> = by_video
                .values()
                .map(|entries| {
                    let mut ranked = entries.clone();
                    ranked.sort_by(cluster_order);
                    let total = ranked.len();
                    ranked.truncate(k.max(1));
                    let tail = (total > ranked.len())
                        .then(|| {
                            ranked.iter().map(|r| r.score).fold(
                                None,
                                |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.min(s))),
                            )
                        })
                        .flatten();
                    ClusterPart {
                        ranked,
                        tail_bound: tail,
                        videos: 1,
                        total_sequences: total,
                    }
                })
                .collect();

            // Single-process: one flat merge over every per-video part.
            let (flat, _) = merge_cluster(k, per_video.clone());
            let flat_json = serde_json::to_string(&flat).unwrap();

            // Cluster: hash-place the videos on {1,2,4} shards, merge
            // shard-locally, then merge the shard answers at the router.
            for shards in [1usize, 2, 4] {
                let mut groups: Vec<Vec<ClusterPart>> = vec![Vec::new(); shards];
                for part in &per_video {
                    groups[shard_index(part.ranked[0].video, shards)].push(part.clone());
                }
                let shard_answers: Vec<ClusterPart> = groups
                    .into_iter()
                    .map(|group| ClusterPart::from(merge_cluster(k, group).0))
                    .collect();
                let (routed, _) = merge_cluster(k, shard_answers);
                prop_assert_eq!(&routed, &flat, "grouping changed the merge");
                let routed_json = serde_json::to_string(&routed).unwrap();
                prop_assert_eq!(
                    &routed_json, &flat_json,
                    "wire bytes diverged at {} shards", shards
                );
            }
        }
    }
}
