//! RVAQ — Algorithm 4.
//!
//! Top-K result sequences for a query over an ingested video:
//!
//! 1. `P_q = P_a ⊗ P_{o_1} ⊗ … ⊗ P_{o_I}` (Eq. 12, interval sweep).
//! 2. Drive the [`TbClip`] iterator; each delivered clip tightens every
//!    active sequence's score bounds (Eqs. 13-14).
//! 3. Maintain the `PQ_lo^K` / `PQ_up^¬K` split: the K sequences with the
//!    highest lower bounds versus the rest. Stop when
//!    `B_lo^K ≥ B_up^¬K` (Eq. 15).
//! 4. Sequences whose upper bound falls below `B_lo^K` are conclusively
//!    out; sequences whose lower bound exceeds `B_up^¬K` are conclusively
//!    in. Either way their clips join `C_skip` and stop costing accesses
//!    (the *skip mechanism* — disabled in the `RVAQ-noSkip` baseline).
//!
//! Implementation note on cost. The paper's cost model is table accesses,
//! and a run's bookkeeping is kept close to linear in them. Per call the
//! iterator re-keys only the live clips (seen by sorted access, still
//! deliverable) that can still lead, off a queue per side whose stored
//! keys never rank ahead of a clip's current one: a frontier only moves
//! away from its end, and memoising a score only moves a key back. On
//! svqbench's `topk_hot` that is 11.7 clips keyed per call where bounding
//! every live clip was 126; here the loop adds `O(calls · |P_q| log |P_q|)`.
//! A clip whose score is memoised ranks by that score from the top, which
//! never exceeds its optimistic bound, and by `max(bound, score)` from the
//! bottom, where a clip absent from a table scores 0 below the frontier
//! its bound used; the queue stops at the best memoised key. Two tie rules
//! keep each delivery identical to a walk in bound order: at equal keys a
//! memoised clip whose key moved off its bound ranks first, and among
//! clips tied at the best score the smallest id the bound-ordered walk
//! reaches wins (see the `tbclip` module docs). The iterator never rescans
//! its seen sets: it keeps dense per-clip state and drops dead clips
//! lazily, which is sound because of two monotonicity invariants this loop
//! upholds — a clip delivered by a side stays delivered, and `C_skip` only
//! grows (a sequence resolved in or out is skipped for good; nothing is
//! ever un-skipped). On this loop's own priority queues: Eq. 13
//! re-estimates the upper bound of *every* sequence whenever `c_top`
//! advances, so incremental heaps would be rebuilt wholesale each
//! iteration anyway; we keep the PQ
//! *semantics* (top-K by lower bound, max of the rest by upper bound) with
//! one selection per iteration (`select_nth_unstable_by`) over a reused
//! `order` buffer, whose first K entries are then `PQ_lo^K` — the split
//! needs the K-set and the K-th lower bound, not an order, and
//! result-sequence counts are tens, not millions. Only the final selection
//! sorts.

use super::bounds::SequenceBounds;
use super::skip::SkipSet;
use super::tbclip::TbClip;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use svq_storage::{DiskCostProfile, DiskStats, IngestedVideo};
use svq_types::{ActionQuery, ClipId, ClipInterval, Clock, ScoringFunctions};
use svq_vision::WallClock;

/// Options for one RVAQ execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvaqOptions {
    /// Number of results requested.
    pub k: usize,
    /// Compute exact scores for the top-K (costs the accesses the paper
    /// describes for large K; off by default, as in §4.3's skip rule).
    pub exact_scores: bool,
    /// Enable the skip mechanism (`false` reproduces the RVAQ-noSkip
    /// baseline).
    pub use_skip: bool,
}

impl RvaqOptions {
    /// Standard options for `k` results.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            exact_scores: false,
            use_skip: true,
        }
    }

    /// Request exact scores.
    pub fn with_exact_scores(mut self) -> Self {
        self.exact_scores = true;
        self
    }

    /// Disable the skip mechanism.
    pub fn without_skip(mut self) -> Self {
        self.use_skip = false;
        self
    }
}

/// One ranked result sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedSequence {
    pub interval: ClipInterval,
    /// Lower bound on the sequence score at stopping time.
    pub lower: f64,
    /// Upper bound at stopping time.
    pub upper: f64,
    /// Exact score, when requested or when bounds met.
    pub exact: Option<f64>,
}

/// Outcome of a top-K query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopKResult {
    /// The top-K sequences, best first.
    pub ranked: Vec<RankedSequence>,
    /// Disk accesses attributable to this query.
    pub disk: DiskStats,
    /// Wall-clock of the algorithm itself, milliseconds.
    pub wall_ms: f64,
    /// Simulated I/O latency of the accesses, milliseconds.
    pub io_ms: f64,
    /// Iterator invocations performed.
    pub iterations: u64,
    /// Total result sequences `|P_q|` before ranking.
    pub total_sequences: usize,
}

impl TopKResult {
    /// Simulated end-to-end latency (algorithm + I/O), milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.wall_ms + self.io_ms
    }
}

/// Algorithm 4.
pub struct Rvaq;

impl Rvaq {
    /// Run a top-K query against one ingested video.
    ///
    /// Generic over the scoring functions: a concrete `S` (the server's
    /// `PaperScoring`) has `g` and `f` inlined into the iterator and the
    /// bound refreshes, and a `&dyn ScoringFunctions` is one instance of
    /// the same code.
    pub fn run<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        options: RvaqOptions,
    ) -> TopKResult {
        Self::run_with_clock(catalog, query, scoring, options, &WallClock::new())
    }

    /// [`Rvaq::run`] with an injected [`Clock`] charging `wall_ms`.
    pub fn run_with_clock<S: ScoringFunctions + ?Sized>(
        catalog: &IngestedVideo,
        query: &ActionQuery,
        scoring: &S,
        options: RvaqOptions,
        clock: &dyn Clock,
    ) -> TopKResult {
        let start = clock.now_nanos();

        let pq = catalog.result_sequences(query);
        let total_sequences = pq.len();
        let k = options.k.min(total_sequences);
        let mut bounds: Vec<SequenceBounds> = pq
            .intervals()
            .iter()
            .map(|iv| SequenceBounds::new(*iv, scoring))
            .collect();
        let mut skip = if options.use_skip {
            SkipSet::new(pq)
        } else {
            SkipSet::disabled(pq)
        };
        let mut tb = TbClip::open(catalog, query, scoring);
        let mut absorbed = vec![false; catalog.clip_count as usize];
        let mut order: Vec<usize> = Vec::with_capacity(bounds.len());
        let mut iterations = 0u64;

        if k > 0 {
            loop {
                iterations += 1;
                let step = tb.next(&skip);
                let exhausted = step.top.is_none() && step.bottom.is_none();

                // Absorb delivered clips into their sequences.
                for delivered in [step.top, step.bottom].into_iter().flatten() {
                    let (clip, score) = delivered;
                    if absorb_once(&mut absorbed, clip) {
                        if let Some(i) = skip.sequence_of(clip) {
                            bounds[i].absorb(score, scoring);
                        }
                    }
                }
                // Refresh bounds of active sequences (Eqs. 13-14). A `None`
                // side is exhausted: every non-skipped clip is absorbed, so
                // the refreshed bound is exact regardless of the bound
                // score used.
                let top_score = step.top.map_or(0.0, |(_, s)| s);
                let btm_score = step.bottom.map_or(0.0, |(_, s)| s);
                for b in bounds.iter_mut().filter(|b| b.active()) {
                    b.refresh_upper(top_score, scoring);
                    b.refresh_lower(btm_score, scoring);
                }

                // PQ_lo^K / PQ_up^¬K: split non-excluded sequences by lower
                // bound; the first `k` of `order` are PQ_lo^K.
                order.clear();
                order.extend((0..bounds.len()).filter(|&i| !bounds[i].resolved_out));
                let (b_lo_k, b_up_not_k) = split_at_k(&mut order, &bounds, k);

                // Conclusive exclusion (Algorithm 4 lines 13-14).
                for (i, bound) in bounds.iter_mut().enumerate() {
                    if bound.active() && bound.b_up < b_lo_k {
                        bound.resolved_out = true;
                        if options.use_skip {
                            skip.skip_sequence(i);
                        }
                    }
                }
                // Conclusive inclusion (lines 19-20).
                for &i in order.iter().take(k) {
                    if bounds[i].active() && bounds[i].b_lo > b_up_not_k {
                        bounds[i].resolved_in = true;
                        if options.use_skip && !options.exact_scores {
                            skip.skip_sequence(i);
                        }
                    }
                }

                // Stopping condition (Eq. 15), or nothing left to refine.
                if b_lo_k >= b_up_not_k || exhausted {
                    break;
                }
            }
        }

        // Select the final top-K by lower bound, best first.
        order.clear();
        order.extend((0..bounds.len()).filter(|&i| !bounds[i].resolved_out));
        order.sort_by(by_lower(&bounds));
        order.truncate(k);

        // Optional exact-score pass over the winners.
        if options.exact_scores {
            for &i in &order {
                let interval = bounds[i].interval;
                for clip in interval.iter() {
                    if absorb_once(&mut absorbed, clip) {
                        let s = tb.score_of(clip);
                        bounds[i].absorb(s, scoring);
                    }
                }
                debug_assert_eq!(bounds[i].remaining, 0);
                bounds[i].b_up = bounds[i].s_known;
                bounds[i].b_lo = bounds[i].s_known;
            }
            order.sort_by(|&a, &b| {
                bounds[b]
                    .s_known
                    .total_cmp(&bounds[a].s_known)
                    .then(a.cmp(&b))
            });
        }

        let ranked = order
            .iter()
            .map(|&i| RankedSequence {
                interval: bounds[i].interval,
                lower: bounds[i].b_lo,
                upper: bounds[i].b_up,
                exact: bounds[i].exact(),
            })
            .collect();

        let disk = tb.disk();
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

/// Best-first order of sequences (indices into `bounds`) by lower bound,
/// ties to the smaller index: a total order.
fn by_lower(bounds: &[SequenceBounds]) -> impl Fn(&usize, &usize) -> Ordering + '_ {
    |&a, &b| bounds[b].b_lo.total_cmp(&bounds[a].b_lo).then(a.cmp(&b))
}

/// Split `order` (`k ≥ 1`) by lower bound: afterwards its first `k`
/// entries are `PQ_lo^K`, in no particular order, and the rest are
/// `PQ_up^¬K`. Returns `(B_lo^K, B_up^¬K)`, the K-th best lower bound and
/// the largest upper bound of the rest, each `-∞` when its set is short.
/// One selection rather than a sort: [`by_lower`] is a total order, so the
/// K-set and the K-th entry are the ones a full sort puts there.
fn split_at_k(order: &mut [usize], bounds: &[SequenceBounds], k: usize) -> (f64, f64) {
    if order.len() < k {
        return (f64::NEG_INFINITY, f64::NEG_INFINITY);
    }
    order.select_nth_unstable_by(k - 1, by_lower(bounds));
    let b_up_not_k = order[k..]
        .iter()
        .map(|&i| bounds[i].b_up)
        .fold(f64::NEG_INFINITY, f64::max);
    (bounds[order[k - 1]].b_lo, b_up_not_k)
}

/// Mark a clip absorbed into its sequence's bounds; `false` if it already
/// was. Dense by clip id, like `SeenClips`; ids past the catalog (hand-built
/// `P_q`s may reach them) grow the array.
fn absorb_once(absorbed: &mut Vec<bool>, clip: ClipId) -> bool {
    let c = clip.index();
    if c >= absorbed.len() {
        absorbed.resize(c + 1, false);
    }
    !std::mem::replace(&mut absorbed[c], true)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::offline::tbclip::tests::catalog;
    use proptest::prelude::*;
    use svq_types::{Interval, PaperScoring};

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    /// Exact sequence score under the toy catalog of `tbclip::tests`:
    /// clip i scores (i+1)(10-i); additive f.
    fn exact(interval: ClipInterval) -> f64 {
        interval
            .iter()
            .map(|c| (c.raw() as f64 + 1.0) * (10.0 - c.raw() as f64))
            .sum()
    }

    /// Shared with the baselines tests.
    pub(crate) fn split_catalog_for_baselines() -> IngestedVideo {
        split_catalog()
    }

    /// A catalog whose P_q splits into several sequences, by restricting
    /// the car sequences.
    fn split_catalog() -> IngestedVideo {
        use svq_storage::SequenceSet;
        use svq_types::{ObjectClass, VideoGeometry, VideoId, Vocabulary};
        let base = catalog();
        // Rebuild with fragmented car sequences: [0,1], [3,5], [7,9].
        let car = ObjectClass::named("car");
        let jumping = svq_types::ActionClass::named("jumping");
        let mut object_tables: Vec<_> = (0..ObjectClass::cardinality())
            .map(|_| svq_storage::ClipScoreTable::new(vec![]))
            .collect();
        let mut action_tables: Vec<_> = (0..svq_types::ActionClass::cardinality())
            .map(|_| svq_storage::ClipScoreTable::new(vec![]))
            .collect();
        object_tables[car.index()] =
            svq_storage::ClipScoreTable::new(base.object_table(car).iter_sorted().collect());
        action_tables[jumping.index()] =
            svq_storage::ClipScoreTable::new(base.action_table(jumping).iter_sorted().collect());
        let mut object_sequences = vec![SequenceSet::empty(); ObjectClass::cardinality()];
        let mut action_sequences =
            vec![SequenceSet::empty(); svq_types::ActionClass::cardinality()];
        object_sequences[car.index()] = SequenceSet::new(vec![iv(0, 1), iv(3, 5), iv(7, 9)]);
        action_sequences[jumping.index()] = SequenceSet::new(vec![iv(0, 9)]);
        IngestedVideo::new(
            VideoId::new(0),
            VideoGeometry::default(),
            10,
            object_tables,
            action_tables,
            object_sequences,
            action_sequences,
        )
    }

    #[test]
    fn top1_is_the_best_sequence() {
        let cat = split_catalog();
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        // P_q = [0,1], [3,5], [7,9]; exact scores: 10+18=28, 28+30+30=88,
        // 24+18+10=52. Top-1 = [3,5].
        let result = Rvaq::run(&cat, &q, &PaperScoring, RvaqOptions::new(1));
        assert_eq!(result.total_sequences, 3);
        assert_eq!(result.ranked.len(), 1);
        assert_eq!(result.ranked[0].interval, iv(3, 5));
        assert!(result.ranked[0].lower <= exact(iv(3, 5)) + 1e-9);
        assert!(result.ranked[0].upper + 1e-9 >= exact(iv(3, 5)));
    }

    #[test]
    fn top2_in_exact_order_with_exact_scores() {
        let cat = split_catalog();
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let result = Rvaq::run(
            &cat,
            &q,
            &PaperScoring,
            RvaqOptions::new(2).with_exact_scores(),
        );
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(result.ranked[0].interval, iv(3, 5));
        assert_eq!(result.ranked[0].exact, Some(exact(iv(3, 5))));
        assert_eq!(result.ranked[1].interval, iv(7, 9));
        assert_eq!(result.ranked[1].exact, Some(exact(iv(7, 9))));
    }

    #[test]
    fn k_larger_than_sequences_returns_all() {
        let cat = split_catalog();
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let result = Rvaq::run(
            &cat,
            &q,
            &PaperScoring,
            RvaqOptions::new(10).with_exact_scores(),
        );
        assert_eq!(result.ranked.len(), 3);
        let scores: Vec<f64> = result.ranked.iter().map(|r| r.exact.unwrap()).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn empty_pq_yields_empty_result() {
        let cat = split_catalog();
        let q = svq_types::ActionQuery::named("jumping", &["dog"]);
        let result = Rvaq::run(&cat, &q, &PaperScoring, RvaqOptions::new(3));
        assert!(result.ranked.is_empty());
        assert_eq!(result.total_sequences, 0);
    }

    #[test]
    fn skip_reduces_random_accesses() {
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let cat_a = split_catalog();
        let with_skip = Rvaq::run(&cat_a, &q, &PaperScoring, RvaqOptions::new(1));
        let cat_b = split_catalog();
        let no_skip = Rvaq::run(
            &cat_b,
            &q,
            &PaperScoring,
            RvaqOptions::new(1).without_skip(),
        );
        assert_eq!(with_skip.ranked[0].interval, no_skip.ranked[0].interval);
        assert!(
            with_skip.disk.random_accesses <= no_skip.disk.random_accesses,
            "skip {} vs noskip {}",
            with_skip.disk.random_accesses,
            no_skip.disk.random_accesses
        );
    }

    /// Bounds whose lower bounds come from a handful of values half the
    /// time, so many sequences tie on `b_lo`; some are resolved out. Up to
    /// 47 of them: on short slices selection is an insertion sort, which
    /// keeps tied entries in index order whatever the comparator says
    /// about ties.
    fn random_bounds() -> impl Strategy<Value = Vec<SequenceBounds>> {
        prop::collection::vec((0u32..4, 0.0f64..10.0, 0.0f64..5.0, 0u32..5), 0..48).prop_map(
            |rows| {
                rows.into_iter()
                    .enumerate()
                    .map(|(i, (tie, lo, width, out))| {
                        let b_lo = if tie < 2 { f64::from(tie) } else { lo };
                        let start = ClipId::new(2 * i as u64);
                        let mut b = SequenceBounds::new(Interval::new(start, start), &PaperScoring);
                        b.b_lo = b_lo;
                        b.b_up = b_lo + width;
                        b.resolved_out = out == 0;
                        b
                    })
                    .collect()
            },
        )
    }

    proptest::proptest! {
        /// `split_at_k` against the full sort it replaced, at every `k`
        /// from 1 to one past the number of live sequences.
        #[test]
        fn selection_split_matches_the_full_sort(bounds in random_bounds()) {
            let live: Vec<usize> = (0..bounds.len()).filter(|&i| !bounds[i].resolved_out).collect();
            let mut sorted = live.clone();
            sorted.sort_by(by_lower(&bounds));
            for k in 1..=live.len() + 1 {
                let b_lo_k = sorted.get(k - 1).map_or(f64::NEG_INFINITY, |&i| bounds[i].b_lo);
                let b_up_not_k = sorted
                    .iter()
                    .skip(k)
                    .map(|&i| bounds[i].b_up)
                    .fold(f64::NEG_INFINITY, f64::max);
                let mut order = live.clone();
                let (lo, up) = split_at_k(&mut order, &bounds, k);
                assert_eq!(
                    (lo.to_bits(), up.to_bits()),
                    (b_lo_k.to_bits(), b_up_not_k.to_bits()),
                    "k = {k} over {} live",
                    live.len()
                );
                let mut k_set = order[..k.min(order.len())].to_vec();
                k_set.sort_unstable();
                let mut want = sorted[..k.min(sorted.len())].to_vec();
                want.sort_unstable();
                assert_eq!(k_set, want, "k = {k} over {} live", live.len());
            }
        }
    }

    #[test]
    fn single_sequence_query_short_circuits() {
        let cat = catalog(); // P_q = [0,9], one sequence
        let q = svq_types::ActionQuery::named("jumping", &["car"]);
        let result = Rvaq::run(&cat, &q, &PaperScoring, RvaqOptions::new(1));
        assert_eq!(result.ranked.len(), 1);
        assert_eq!(result.ranked[0].interval, iv(0, 9));
        // With K = |P_q| = 1 the stopping condition fires immediately
        // (B_up^¬K over the empty set): one iteration.
        assert_eq!(result.iterations, 1);
    }
}
