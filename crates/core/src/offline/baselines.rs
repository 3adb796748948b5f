//! The offline comparison baselines of §5.1.
//!
//! * [`PqTraverse`] — fetch the scores of *every* clip of every sequence in
//!   `P_q`, compute all sequence scores, return the best K. Its cost is a
//!   constant in K: proportional to the total number of clips in the result
//!   sequences.
//! * [`FaTopK`] — Fagin's Algorithm adapted as the paper describes: clips
//!   are produced in descending clip-score order over the *whole* tables
//!   (no skip set, no knowledge of `P_q` during access), each produced clip
//!   is discarded if it lies outside `P_q`, and the algorithm stops only
//!   when every sequence's score is complete — i.e. when the
//!   lowest-scoring clip of `P_q` has been produced, which typically means
//!   scanning deep into the tables. Each production round re-fetches the
//!   scores of the clips still in play by random access (the naive FA the
//!   paper measures — "no lower bounds can be obtained as well as there is
//!   no way to skip unnecessary clips"), which is what drives its access
//!   counts an order of magnitude past RVAQ's.
//! * `RVAQ-noSkip` is [`super::Rvaq`] with
//!   [`super::rvaq::RvaqOptions::without_skip`]; [`RvaqNoSkip::run`] is a
//!   convenience wrapper.

use super::column::{query_tables, ScoreColumn};
use super::rvaq::{RankedSequence, RvaqOptions, TopKResult};
use super::tbclip::SeenClips;
use super::Rvaq;
use svq_storage::{DiskCostProfile, DiskStats, IngestedVideo};
use svq_types::{ActionQuery, ClipId, Clock, ScoringFunctions};
use svq_vision::WallClock;

/// The `P_q`-Traverse baseline.
pub struct PqTraverse;

impl PqTraverse {
    /// Score every clip of every result sequence; return the top K.
    pub fn run<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        k: usize,
    ) -> TopKResult {
        Self::run_with_clock(catalog, query, scoring, k, &WallClock::new())
    }

    /// [`PqTraverse::run`] with an injected [`Clock`] charging `wall_ms`.
    pub fn run_with_clock<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        k: usize,
        clock: &dyn Clock,
    ) -> TopKResult {
        let start = clock.now_nanos();
        let mut disk = DiskStats::default();
        let pq = catalog.result_sequences(query);

        let tables = query_tables(catalog, query);
        let column = ScoreColumn::new(&tables, catalog.clip_count as usize);
        let mut coords = vec![0.0; tables.len()];
        let n_objects = query.objects.len();

        let mut scored: Vec<RankedSequence> = pq
            .intervals()
            .iter()
            .map(|iv| {
                let mut acc = scoring.f_identity();
                for clip in iv.iter() {
                    column.read(clip, &mut coords, &mut disk);
                    let s = scoring.g(&coords[..n_objects], coords[n_objects]);
                    acc = scoring.f_combine(acc, s);
                }
                RankedSequence {
                    interval: *iv,
                    lower: acc,
                    upper: acc,
                    exact: Some(acc),
                }
            })
            .collect();
        scored.sort_by(|a, b| {
            b.exact
                .unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&a.exact.unwrap_or(f64::NEG_INFINITY))
                .then(a.interval.start.cmp(&b.interval.start))
        });
        let total_sequences = scored.len();
        scored.truncate(k.min(total_sequences));

        TopKResult {
            ranked: scored,
            disk,
            wall_ms: clock.nanos_since(start) as f64 / 1e6,
            io_ms: DiskCostProfile::default().ms_of(disk),
            iterations: 0,
            total_sequences,
        }
    }
}

/// The Fagin's-Algorithm baseline.
pub struct FaTopK;

impl FaTopK {
    /// Produce top-ranked clips FA-style until every `P_q` sequence's score
    /// is complete; return the top-K sequences.
    pub fn run<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        k: usize,
    ) -> TopKResult {
        Self::run_with_clock(catalog, query, scoring, k, &WallClock::new())
    }

    /// [`FaTopK::run`] with an injected [`Clock`] charging `wall_ms`.
    pub fn run_with_clock<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        k: usize,
        clock: &dyn Clock,
    ) -> TopKResult {
        let start = clock.now_nanos();
        let mut disk = DiskStats::default();
        let pq = catalog.result_sequences(query);

        let tables = query_tables(catalog, query);
        let column = ScoreColumn::new(&tables, catalog.clip_count as usize);
        let mut coords = vec![0.0; tables.len()];
        let n_objects = query.objects.len();

        // Remaining P_q clips to produce, and per-sequence accumulators.
        let mut remaining: u64 = pq.clip_count();
        let mut seq_scores: Vec<f64> = vec![scoring.f_identity(); pq.len()];

        // Winners among score ties are chosen by clip id, never by the
        // order clips became candidates.
        let mut seen = SeenClips::new(tables.len(), column.span());
        let mut stamp = 0usize;
        let mut iterations = 0u64;

        while remaining > 0 {
            iterations += 1;
            // Sorted access in parallel until a fresh fully-seen clip
            // exists.
            let mut any_row = true;
            while !seen.has_fresh(|_| false) {
                any_row = false;
                for (i, t) in tables.iter().enumerate() {
                    if let Some((cid, s)) = t.sorted_row(stamp, &mut disk) {
                        seen.observe(i, cid, s);
                        any_row = true;
                    }
                }
                stamp += 1;
                if !any_row {
                    break;
                }
            }
            if !any_row {
                break; // tables exhausted — every produceable clip produced
            }
            // FA phase 2: random access completes the scores of the
            // fully-seen, unproduced clips — re-fetched each production
            // round (no memoisation across rounds: the baseline has no
            // bound state to justify caching against).
            let mut candidate: Option<(ClipId, f64)> = None;
            seen.for_each_fresh(
                |_| false,
                |c| {
                    column.read(c, &mut coords, &mut disk);
                    let s = scoring.g(&coords[..n_objects], coords[n_objects]);
                    if candidate.is_none_or(|(bc, best)| s > best || (s == best && c < bc)) {
                        candidate = Some((c, s));
                    }
                },
            );
            let Some((c, s)) = candidate else { break };
            seen.retire(c);
            if let Some(i) = pq.find_index(c) {
                seq_scores[i] = scoring.f_combine(seq_scores[i], s);
                remaining -= 1;
            }
        }

        let mut ranked: Vec<RankedSequence> = pq
            .intervals()
            .iter()
            .zip(seq_scores)
            .map(|(iv, s)| RankedSequence {
                interval: *iv,
                lower: s,
                upper: s,
                exact: Some(s),
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.exact
                .unwrap_or(f64::NEG_INFINITY)
                .total_cmp(&a.exact.unwrap_or(f64::NEG_INFINITY))
                .then(a.interval.start.cmp(&b.interval.start))
        });
        let total_sequences = ranked.len();
        ranked.truncate(k.min(total_sequences));

        TopKResult {
            ranked,
            disk,
            wall_ms: clock.nanos_since(start) as f64 / 1e6,
            io_ms: DiskCostProfile::default().ms_of(disk),
            iterations,
            total_sequences,
        }
    }
}

/// Convenience wrapper: RVAQ with the skip mechanism disabled.
pub struct RvaqNoSkip;

impl RvaqNoSkip {
    /// Run RVAQ without skipping.
    pub fn run<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        k: usize,
    ) -> TopKResult {
        Rvaq::run(catalog, query, scoring, RvaqOptions::new(k).without_skip())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::rvaq::RvaqOptions;
    use svq_types::{ClipInterval, Interval, PaperScoring};

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    fn split_catalog() -> IngestedVideo {
        // Reuse the fragmented catalog of the RVAQ tests via its builder.
        crate::offline::rvaq::tests::split_catalog_for_baselines()
    }

    #[test]
    fn all_methods_agree_on_the_top_sequence() {
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let cat = split_catalog();
        let rvaq = Rvaq::run(&cat, &q, &PaperScoring, RvaqOptions::new(1));
        let cat = split_catalog();
        let noskip = RvaqNoSkip::run(&cat, &q, &PaperScoring, 1);
        let cat = split_catalog();
        let trav = PqTraverse::run(&cat, &q, &PaperScoring, 1);
        let cat = split_catalog();
        let fa = FaTopK::run(&cat, &q, &PaperScoring, 1);
        assert_eq!(rvaq.ranked[0].interval, iv(3, 5));
        assert_eq!(noskip.ranked[0].interval, iv(3, 5));
        assert_eq!(trav.ranked[0].interval, iv(3, 5));
        assert_eq!(fa.ranked[0].interval, iv(3, 5));
        // Baselines compute exact scores; they must agree.
        assert_eq!(trav.ranked[0].exact, fa.ranked[0].exact);
    }

    #[test]
    fn pq_traverse_cost_is_constant_in_k() {
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let cat = split_catalog();
        let k1 = PqTraverse::run(&cat, &q, &PaperScoring, 1);
        let cat = split_catalog();
        let k3 = PqTraverse::run(&cat, &q, &PaperScoring, 3);
        assert_eq!(k1.disk, k3.disk);
        // 8 clips in P_q x 2 tables = 16 random accesses.
        assert_eq!(k1.disk.random_accesses, 16);
        assert_eq!(k1.disk.sorted_accesses, 0);
    }

    #[test]
    fn fa_is_more_expensive_than_rvaq() {
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let cat = split_catalog();
        let rvaq = Rvaq::run(&cat, &q, &PaperScoring, RvaqOptions::new(1));
        let cat = split_catalog();
        let fa = FaTopK::run(&cat, &q, &PaperScoring, 1);
        assert!(
            fa.disk.total() >= rvaq.disk.total(),
            "fa {:?} vs rvaq {:?}",
            fa.disk,
            rvaq.disk
        );
    }

    #[test]
    fn fa_ranks_all_sequences_exactly() {
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let cat = split_catalog();
        let fa = FaTopK::run(&cat, &q, &PaperScoring, 3);
        let scores: Vec<f64> = fa.ranked.iter().map(|r| r.exact.unwrap()).collect();
        assert_eq!(scores, vec![88.0, 52.0, 28.0]);
    }
}
