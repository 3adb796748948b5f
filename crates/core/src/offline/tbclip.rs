//! The TBClip iterator — Algorithm 5.
//!
//! Each invocation delivers the next *top* clip (highest-scoring clip of
//! `P_q` not yet processed from the top) and the next *bottom* clip
//! (lowest-scoring not yet processed from the bottom), with scores computed
//! by the clip scoring function `g` over random accesses to the per-class
//! tables.
//!
//! The top side is Fagin's algorithm: sorted access in parallel over the
//! query's tables until at least one *new* clip has been seen in all of
//! them (step 1); then the scores of seen candidate clips are completed by
//! random access and the maximum is returned (step 2). By FA's classic
//! guarantee, once a clip has appeared in every list under sorted access,
//! the highest-scoring fully-scored candidate is the global maximum of the
//! remaining clips — `g` is monotone. The bottom side mirrors this with
//! reverse sorted access (steps 3-4).
//!
//! The iterator owns the run's access ledger ([`TbClip::disk`]): every
//! sorted, reverse and random access it makes is charged there, never to
//! the catalog, so any number of iterators may read one catalog at once.
//!
//! Differences from a textbook FA, per §4.4: clips in `C_skip` — outside
//! `P_q`, or in conclusively ranked sequences — are touched at most once by
//! sorted access and never random-accessed; completed clip scores are
//! memoised, so no clip's tables are random-accessed twice; and candidate
//! scoring applies the threshold-algorithm refinement — a seen clip is
//! random-accessed only when its optimistic bound (its seen table scores,
//! with unseen coordinates replaced by the table's current sorted-access
//! frontier) can beat the best fully-scored candidate of the call. `g` is
//! monotone, so the bound is sound and the delivered clip is still the true
//! maximum.
//!
//! Algorithm 5 walks candidates in bound order. Here a clip whose score is
//! memoised ranks by a key derived from that score instead, the worse of
//! its bound and its score from that side:
//!
//! - from the top, the score itself, which never exceeds the optimistic
//!   bound (`g` is monotone and the frontier tops every unseen coordinate);
//! - from the bottom, `max(bound, score)`: a clip absent from a table
//!   random-accesses as 0 while its unseen coordinate took the frontier,
//!   so its pessimistic bound can exceed its score.
//!
//! A bound-ordered walk scores an unscored clip unless some clip ahead of
//! it already scored at least as well as its bound. Such a clip ranks ahead
//! of it by key exactly when it did by bound, so walking by key random-
//! accesses the same clips and finds the same best score, and nothing
//! ranked past the best memoised key need be ranked at all. Two tie rules
//! keep each delivery identical to the bound-ordered walk:
//!
//! 1. at equal keys, a memoised clip whose key moved off its bound ranks
//!    ahead of the rest, as its bound did; otherwise the walk would
//!    random-access an unscored clip with a smaller id that the
//!    bound-ordered walk never reached;
//! 2. among clips tied at the best score, the winner is the smallest id a
//!    bound-ordered walk reaches: the first tied clip in bound order and
//!    every tied clip whose bound still beats the score. From the top these
//!    are the tied clips whose bound exceeds the score, or all of them if
//!    none does.
//!
//! `crates/core/tests/tbclip_differential.rs` holds these to the
//! bound-ordered reference step for step.
//!
//! # Cost
//!
//! The paper counts table accesses, and the bookkeeping here is kept
//! linear in them. Per-side state is dense, indexed by clip id
//! ([`SeenClips`]): the score seen in each table, how many tables have
//! shown the clip, and whether it has been delivered. The `full` worklist
//! (seen in every table) answers step 1's "is there a fresh clip in the
//! intersection?" in amortised `O(1)` per sorted access.
//!
//! Step 2's candidates come from a queue per side holding each live clip
//! — seen in any table, still deliverable — once, under the
//! `(key, moved, clip)` tuple last computed for it, packed into one `u128`
//! ([`Place`]) so the queue compares integers. A call re-keys only
//! the clips that can still lead, not every live clip. This is exact
//! because of one invariant: **a clip's tuple never ranks ahead of its
//! stored one**. Keys only get worse between calls:
//!
//! - a top frontier never rises, so a clip's coordinates, and with `g`
//!   monotone its bound, never rise; a clip first seen in a table trades
//!   the frontier for its own score there, which is no higher;
//! - memoising a score moves a key from the bound to `score ≤ bound`;
//! - the bottom side mirrors both, and its memoised key
//!   `max(bound, score)` is never below the bound.
//!
//! So the queue's top is re-keyed in place: its entry is overwritten with
//! the current tuple and sifts down, and a clip still on top afterwards
//! ranks ahead of every stored tuple, hence of every clip's current one,
//! so it is the true next candidate and leaves the queue. The first
//! memoised candidate sets the cut, and the walk stops once the top's
//! stored key is beaten by it. The queue thus yields, in walk order, the
//! same candidates a pass bounding every live clip would keep. Newly seen
//! clips are keyed once when they arrive. A delivered or skipped clip is
//! dropped when it reaches the top, never searched for. That is sound
//! because of two more monotonicity invariants:
//!
//! 1. a side's processed set only grows — a delivered clip is never
//!    un-delivered;
//! 2. `C_skip` only grows — [`SkipSet`] has no way to un-skip a sequence,
//!    and one iterator must be driven with one skip set.
//!
//! So a clip found dead once is dead for the rest of the run, and dropping
//! it can never hide a future candidate. Keying a clip costs `O(tables)`
//! and a queue operation `O(log |live|)`, paid per newly seen clip, per
//! re-key and per candidate rather than per live clip per call. On
//! svqbench's `topk_hot` a call keys 11.7 clips — 8.3 re-keyed and 3.4
//! newly seen — where bounding every live clip meant 126. The `full`
//! worklist keeps insertion (sorted-access) order, never hash order, and
//! every choice among candidates is made by an explicit
//! `(key, moved, clip)` or `(bound, clip)` comparison, so results do not
//! depend on either structure's layout.
//!
//! Random access reads one dense row per clip from the run's column of
//! the queried tables (`column.rs`), built when the iterator opens, instead
//! of binary-searching each table; the ledger is charged one random access
//! per table, as before. The iterator is generic over the scoring
//! functions, so `g` inlines where the caller names a concrete algebra.

use super::column::{query_tables, ScoreColumn};
use super::skip::SkipSet;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use svq_storage::{ClipScoreTable, DiskStats, IngestedVideo};
use svq_types::{ActionQuery, ClipId, ScoringFunctions};

/// One delivery of the iterator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TbClipStep {
    /// Highest-scoring unprocessed clip, if the top side is not exhausted.
    pub top: Option<(ClipId, f64)>,
    /// Lowest-scoring unprocessed clip, if the bottom side is not exhausted.
    pub bottom: Option<(ClipId, f64)>,
}

/// What sorted access in one direction has shown so far, dense by clip id,
/// plus the `full` worklist described in the module docs. Shared with the
/// FA baseline, which needs the same "fresh clip seen in every table"
/// question answered without rescanning.
pub(super) struct SeenClips {
    tables: usize,
    /// Score seen for `(clip, table)`, clip-major; NaN = not yet seen
    /// (table scores are finite: `ClipScoreTable` keeps only `s > 0`).
    scores: Vec<f64>,
    /// In how many tables each clip has been seen.
    seen_in: Vec<u32>,
    /// Clips the caller has delivered (processed / produced).
    retired: Vec<bool>,
    /// Clips seen in every table, in the order they got there.
    full: Vec<ClipId>,
}

impl SeenClips {
    /// Empty state for `tables` tables over clip ids `0..clips`, which must
    /// cover every id the tables hold ([`ScoreColumn::span`]).
    pub(super) fn new(tables: usize, clips: usize) -> Self {
        Self {
            tables,
            scores: vec![f64::NAN; clips * tables],
            seen_in: vec![0; clips],
            retired: vec![false; clips],
            full: Vec::new(),
        }
    }

    /// Record that sorted access on `table` delivered `(clip, score)`;
    /// `true` if no table had shown the clip before.
    pub(super) fn observe(&mut self, table: usize, clip: ClipId, score: f64) -> bool {
        let c = clip.index();
        let cell = &mut self.scores[c * self.tables + table];
        let first_sight = cell.is_nan();
        *cell = score;
        if !first_sight {
            return false;
        }
        self.seen_in[c] += 1;
        if self.seen_in[c] as usize == self.tables {
            self.full.push(clip);
        }
        self.seen_in[c] == 1
    }

    /// Mark a seen clip as delivered; it leaves the worklist lazily.
    pub(super) fn retire(&mut self, clip: ClipId) {
        self.retired[clip.index()] = true;
    }

    /// Whether a seen clip has been delivered.
    fn is_retired(&self, clip: ClipId) -> bool {
        self.retired[clip.index()]
    }

    /// A seen clip's per-table scores, NaN where unseen.
    fn row(&self, clip: ClipId) -> &[f64] {
        let c = clip.index();
        &self.scores[c * self.tables..(c + 1) * self.tables]
    }

    /// Whether some clip seen in every table is neither retired nor
    /// `skipped`. Dead entries are popped off the tail of `full` until a
    /// fresh one shows, so the cost is amortised against `observe`.
    pub(super) fn has_fresh(&mut self, skipped: impl Fn(ClipId) -> bool) -> bool {
        while let Some(&c) = self.full.last() {
            if !self.retired[c.index()] && !skipped(c) {
                return true;
            }
            self.full.pop();
        }
        false
    }

    /// Visit every clip seen in every table that is neither retired nor
    /// `skipped`, and drop the dead entries met on the way.
    pub(super) fn for_each_fresh(
        &mut self,
        skipped: impl Fn(ClipId) -> bool,
        mut visit: impl FnMut(ClipId),
    ) {
        let retired = &self.retired;
        self.full.retain(|&clip| {
            if retired[clip.index()] || skipped(clip) {
                return false;
            }
            visit(clip);
            true
        });
    }
}

/// Which end of the score order a [`Side`] reads from.
#[derive(Debug, Clone, Copy)]
enum End {
    Top,
    Bottom,
}

impl End {
    /// Whether `a` is strictly better than `b` from this end: higher from
    /// the top, lower from the bottom.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            End::Top => a > b,
            End::Bottom => a < b,
        }
    }

    /// Best-first order of two values from this end.
    fn rank(self, a: f64, b: f64) -> Ordering {
        match self {
            End::Top => b.total_cmp(&a),
            End::Bottom => a.total_cmp(&b),
        }
    }

    /// `key` as an integer that grows as the key gets better from this end,
    /// in [`f64::total_cmp`] order (the sign bit flips positives above
    /// negatives, and a negative's other bits flip so larger magnitudes
    /// sort lower).
    fn merit(self, key: f64) -> u64 {
        let bits = key.to_bits();
        let up = if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        };
        match self {
            End::Top => up,
            End::Bottom => !up,
        }
    }

    /// The key a merit was made from: the inverse of [`End::merit`].
    fn key_of(self, merit: u64) -> f64 {
        let up = match self {
            End::Top => merit,
            End::Bottom => !merit,
        };
        f64::from_bits(if up >> 63 == 1 { up & !(1 << 63) } else { !up })
    }

    /// The ranking key of a clip whose exact score is memoised: the worse
    /// of its bound and its score from this end (see the module docs). From
    /// the top that is always the score.
    fn memo_key(self, bound: f64, score: f64) -> f64 {
        match self {
            End::Top => score,
            End::Bottom => bound.max(score),
        }
    }
}

/// A step 2 / 4 candidate: a live clip, its bound, and the key it ranks by.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    clip: ClipId,
    /// `g` over the seen coordinates and the frontier where unseen.
    bound: f64,
    /// [`End::memo_key`] if the clip's score is memoised, else `bound`.
    key: f64,
}

impl Candidate {
    /// Whether the key moved off the bound (only a memoised clip's can):
    /// such a clip ranks ahead of the rest at an equal key.
    fn moved(&self) -> bool {
        self.key != self.bound
    }
}

/// The largest clip id a [`Place`] holds: its low 63 bits.
const MAX_CLIP: u64 = (1 << 63) - 1;

/// A clip's place in its side's walk order, packed into one integer so the
/// queue compares places with one `u128` comparison:
/// `merit << 64 | moved << 63 | (MAX_CLIP - clip)`. It orders exactly as
/// the tuple `(merit, moved, Reverse(clip))`: key best-first
/// ([`End::merit`]), then a moved key ahead of the rest, then the smaller
/// clip id. The greatest place walks first, and no two clips share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Place(u128);

impl Place {
    fn new(merit: u64, moved: bool, clip: ClipId) -> Self {
        debug_assert!(clip.raw() <= MAX_CLIP, "clip id past a place's 63 bits");
        Self(u128::from(merit) << 64 | u128::from(moved) << 63 | u128::from(MAX_CLIP - clip.raw()))
    }

    fn of(end: End, c: &Candidate) -> Self {
        Self::new(end.merit(c.key), c.moved(), c.clip)
    }

    fn merit(self) -> u64 {
        (self.0 >> 64) as u64
    }

    fn clip(self) -> ClipId {
        ClipId::new(MAX_CLIP - (self.0 as u64 & MAX_CLIP))
    }
}

/// One access direction of the iterator.
struct Side {
    end: End,
    /// Next row of every table to read.
    stamp: usize,
    /// Score of the last row read from each table.
    frontier: Vec<f64>,
    seen: SeenClips,
    /// Clips sorted access showed for the first time since the last call.
    arrived: Vec<ClipId>,
    /// Every seen clip not yet dropped, bar this call's arrivals and
    /// candidates, once each, under the place last computed for it: never
    /// ahead of its current one.
    queue: BinaryHeap<Place>,
    /// Scratch reused across calls: this call's ranked candidates.
    candidates: Vec<Candidate>,
}

impl Side {
    fn new(end: End, tables: usize, clips: usize) -> Self {
        let no_row_yet = match end {
            End::Top => f64::INFINITY,
            End::Bottom => 0.0,
        };
        Self {
            end,
            stamp: 0,
            frontier: vec![no_row_yet; tables],
            seen: SeenClips::new(tables, clips),
            arrived: Vec::new(),
            queue: BinaryHeap::new(),
            candidates: Vec::new(),
        }
    }

    /// Steps 1 / 3: sorted access in parallel until the *intersection* of
    /// the seen sets holds a fresh, unskipped clip — FA's guarantee that
    /// the extremum of the remaining clips is among the clips seen so far.
    /// `false` once every table is exhausted first: the side has nothing
    /// left to deliver. Every row read is charged to `disk`.
    fn read_until_fresh(
        &mut self,
        tables: &[&ClipScoreTable],
        skip: &SkipSet,
        disk: &mut DiskStats,
    ) -> bool {
        while !self.seen.has_fresh(|c| skip.contains(c)) {
            let mut any_row = false;
            for (i, t) in tables.iter().enumerate() {
                let row = match self.end {
                    End::Top => t.sorted_row(self.stamp, disk),
                    End::Bottom => t.reverse_row(self.stamp, disk),
                };
                if let Some((cid, s)) = row {
                    if self.seen.observe(i, cid, s) {
                        self.arrived.push(cid);
                    }
                    self.frontier[i] = s;
                    any_row = true;
                }
            }
            self.stamp += 1;
            if !any_row {
                return false;
            }
        }
        true
    }

    /// Steps 2 / 4, first half: fill [`Self::candidates`], in walk order,
    /// with the live clips — the *union* of seen clips, minus delivered and
    /// skipped ones — that rank no worse than the best memoised key (the
    /// cut). Each carries `g` over its seen coordinates and the table's
    /// frontier where unseen — an optimistic bound from the top, a
    /// pessimistic one from the bottom, `g` being monotone. Every frontier
    /// is a real row score here: [`Self::read_until_fresh`] returned
    /// `true`, so some clip has been seen in every table. The walk cannot
    /// pass the best memoised clip, so nothing ranked after it could be
    /// scored or win.
    ///
    /// Candidates come off [`Self::queue`] re-keyed in place: the top's
    /// entry takes its clip's current tuple and sifts down, and a clip
    /// still on top afterwards is the true next candidate, as no stored
    /// tuple ranks behind its clip's current one; any other stays queued
    /// under its new tuple. The first memoised candidate sets the cut, and
    /// the walk stops once the top's stored key is beaten by it. `coords`
    /// is scratch with one slot per table.
    fn rank_candidates<S: ScoringFunctions + ?Sized>(
        &mut self,
        skip: &SkipSet,
        scoring: &S,
        n_objects: usize,
        memo: &[Option<f64>],
        coords: &mut [f64],
    ) {
        let Self {
            end,
            frontier,
            seen,
            arrived,
            queue,
            candidates,
            ..
        } = self;
        let end = *end;
        let memoised = |clip: ClipId| matches!(memo.get(clip.index()), Some(Some(_)));
        let mut rekey = |clip: ClipId| {
            for (slot, (&seen, &unseen)) in
                coords.iter_mut().zip(seen.row(clip).iter().zip(&*frontier))
            {
                *slot = if seen.is_nan() { unseen } else { seen };
            }
            let bound = scoring.g(&coords[..n_objects], coords[n_objects]);
            let key = match memo.get(clip.index()) {
                Some(&Some(score)) => end.memo_key(bound, score),
                _ => bound,
            };
            Candidate { clip, bound, key }
        };
        for clip in arrived.drain(..) {
            if !skip.contains(clip) {
                queue.push(Place::of(end, &rekey(clip)));
            }
        }
        candidates.clear();
        let mut cut: Option<f64> = None;
        loop {
            let Some(mut top) = queue.peek_mut() else {
                break;
            };
            let stored = *top;
            if cut.is_some_and(|cut| end.beats(cut, end.key_of(stored.merit()))) {
                break;
            }
            let clip = stored.clip();
            if seen.is_retired(clip) || skip.contains(clip) {
                PeekMut::pop(top);
                continue;
            }
            let current = rekey(clip);
            let place = Place::of(end, &current);
            debug_assert!(
                place <= stored,
                "a re-keyed clip ranks ahead of its stored place: {place:?} > {stored:?}"
            );
            // Re-key in place: a changed entry sifts down when `top` drops,
            // and the clip leads exactly when it is still on top afterwards
            // (no two clips share a place).
            let top = if place == stored {
                top
            } else {
                *top = place;
                drop(top);
                match queue.peek_mut() {
                    Some(top) if *top == place => top,
                    _ => continue,
                }
            };
            if cut.is_some_and(|cut| end.beats(cut, current.key)) {
                break;
            }
            PeekMut::pop(top);
            if cut.is_none() && memoised(clip) {
                cut = Some(current.key);
            }
            candidates.push(current);
        }
    }

    /// Return this call's candidates to the queue, bar the delivered clip,
    /// which retires. Their tuples predate the walk's memoising, which only
    /// moves a key back, so each still ranks no worse than its clip's.
    fn requeue(&mut self, delivered: Option<ClipId>) {
        for c in self.candidates.drain(..) {
            if Some(c.clip) != delivered {
                self.queue.push(Place::of(self.end, &c));
            }
        }
        if let Some(clip) = delivered {
            self.seen.retire(clip);
        }
    }
}

/// Algorithm 5, operating over the tables of one query.
///
/// Drive one iterator with one [`SkipSet`]: the lazy pruning relies on
/// `C_skip` only growing between calls.
///
/// Generic over the scoring functions, so a caller holding a concrete one
/// (the server's [`svq_types::PaperScoring`]) gets `g` inlined; a
/// `&dyn ScoringFunctions` is one instance of the same code.
pub struct TbClip<'a, S: ScoringFunctions + ?Sized = dyn ScoringFunctions + 'a> {
    tables: Vec<&'a ClipScoreTable>,
    /// The queried tables, laid out for random access.
    column: ScoreColumn,
    scoring: &'a S,
    /// How many object tables precede the action table in `tables`.
    n_objects: usize,
    top: Side,
    btm: Side,
    /// Memoised complete clip scores (g over all queried tables), by clip
    /// id.
    scores: Vec<Option<f64>>,
    /// Scratch with one slot per table: a clip's coordinates for `g`.
    coords: Vec<f64>,
    /// Accesses this iterator has made.
    disk: DiskStats,
}

impl<'a> TbClip<'a> {
    /// Open the iterator over a catalog for one query, scoring through a
    /// trait object: [`TbClip::open`] with `S = dyn ScoringFunctions`.
    pub fn new(
        catalog: &'a IngestedVideo,
        query: &ActionQuery,
        scoring: &'a dyn ScoringFunctions,
    ) -> Self {
        Self::open(catalog, query, scoring)
    }
}

impl<'a, S: ScoringFunctions + ?Sized> TbClip<'a, S> {
    /// Open the iterator over a catalog for one query.
    ///
    /// # Panics
    ///
    /// If a queried table holds a clip id past 2⁶³ − 1, which a queue
    /// [`Place`] cannot hold.
    pub fn open(catalog: &'a IngestedVideo, query: &ActionQuery, scoring: &'a S) -> Self {
        let tables = query_tables(catalog, query);
        if let Some(clip) = tables.iter().filter_map(|t| t.max_clip()).max() {
            assert!(
                clip.raw() <= MAX_CLIP,
                "clip id {} does not fit TBClip's 63-bit queue key",
                clip.raw()
            );
        }
        let n = tables.len();
        let column = ScoreColumn::new(&tables, catalog.clip_count as usize);
        let clips = column.span();
        Self {
            tables,
            column,
            scoring,
            n_objects: query.objects.len(),
            top: Side::new(End::Top, n, clips),
            btm: Side::new(End::Bottom, n, clips),
            scores: vec![None; clips],
            coords: vec![0.0; n],
            disk: DiskStats::default(),
        }
    }

    /// The accesses this iterator has charged so far.
    pub fn disk(&self) -> DiskStats {
        self.disk
    }

    /// The memoised complete score of a clip: random-accesses each queried
    /// table once, ever.
    pub fn score_of(&mut self, clip: ClipId) -> f64 {
        let c = clip.index();
        if let Some(&Some(s)) = self.scores.get(c) {
            return s;
        }
        // Object tables first, then the action table.
        self.column.read(clip, &mut self.coords, &mut self.disk);
        let s = self
            .scoring
            .g(&self.coords[..self.n_objects], self.coords[self.n_objects]);
        if c >= self.scores.len() {
            self.scores.resize(c + 1, None);
        }
        self.scores[c] = Some(s);
        s
    }

    /// Whether a clip's score has already been memoised (no access charge).
    pub fn score_cached(&self, clip: ClipId) -> bool {
        matches!(self.scores.get(clip.index()), Some(Some(_)))
    }

    /// The state of one access direction.
    fn side(&mut self, end: End) -> &mut Side {
        match end {
            End::Top => &mut self.top,
            End::Bottom => &mut self.btm,
        }
    }

    /// Advance one side: sorted access in parallel until a new non-skipped
    /// candidate appears in all tables (steps 1 / 3), then return the
    /// best-scoring candidate (steps 2 / 4).
    fn next_from(&mut self, end: End, skip: &SkipSet) -> Option<(ClipId, f64)> {
        let side = match end {
            End::Top => &mut self.top,
            End::Bottom => &mut self.btm,
        };
        if !side.read_until_fresh(&self.tables, skip, &mut self.disk) {
            return None;
        }
        side.rank_candidates(
            skip,
            self.scoring,
            self.n_objects,
            &self.scores,
            &mut self.coords,
        );
        let candidates = std::mem::take(&mut side.candidates);
        // TA refinement: score candidates in key order and stop once a key
        // cannot beat the best completed score.
        let mut best: Option<f64> = None;
        for c in &candidates {
            if best.is_some_and(|bs| !end.beats(c.key, bs)) {
                break;
            }
            let s = self.score_of(c.clip);
            if best.is_none_or(|bs| end.beats(s, bs)) {
                best = Some(s);
            }
        }
        // Tie rule 2: a bound-ordered walk reaches the first clip tied at
        // `best` in bound order, then every tied clip whose bound still
        // beats `best`; the smallest id it reaches wins. When any bound
        // beats `best`, the first tied clip's does too.
        let winner = best.and_then(|best| {
            let tied = candidates
                .iter()
                .filter(|t| self.scores.get(t.clip.index()) == Some(&Some(best)));
            let first = tied
                .clone()
                .min_by(|a, b| end.rank(a.bound, b.bound).then(a.clip.cmp(&b.clip)))?;
            let beating = tied
                .filter(|t| end.beats(t.bound, best))
                .map(|t| t.clip)
                .min();
            Some((beating.unwrap_or(first.clip), best))
        });
        let side = self.side(end);
        side.candidates = candidates;
        side.requeue(winner.map(|(clip, _)| clip));
        winner
    }

    /// One invocation of the iterator: the next top and bottom clips.
    pub fn next(&mut self, skip: &SkipSet) -> TbClipStep {
        TbClipStep {
            top: self.next_from(End::Top, skip),
            bottom: self.next_from(End::Bottom, skip),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeSet;
    use svq_storage::SequenceSet;
    use svq_types::{
        ActionClass, ClipInterval, Interval, ObjectClass, PaperScoring, VideoGeometry, VideoId,
        Vocabulary,
    };

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    /// Catalog with known scores: clips 0..10.
    /// car:     clip i has score 10 - i  (i in 0..10)
    /// jumping: clip i has score i + 1   (i in 0..10)
    /// g = S_a * sum(S_o):  score(i) = (i+1) * (10-i).
    pub(crate) fn catalog() -> IngestedVideo {
        let car = ObjectClass::named("car");
        let jumping = ActionClass::named("jumping");
        let mut object_tables: Vec<_> = (0..ObjectClass::cardinality())
            .map(|_| svq_storage::ClipScoreTable::new(vec![]))
            .collect();
        let mut action_tables: Vec<_> = (0..ActionClass::cardinality())
            .map(|_| svq_storage::ClipScoreTable::new(vec![]))
            .collect();
        object_tables[car.index()] = svq_storage::ClipScoreTable::new(
            (0..10).map(|i| (ClipId::new(i), (10 - i) as f64)).collect(),
        );
        action_tables[jumping.index()] = svq_storage::ClipScoreTable::new(
            (0..10).map(|i| (ClipId::new(i), (i + 1) as f64)).collect(),
        );
        let mut object_sequences = vec![SequenceSet::empty(); ObjectClass::cardinality()];
        let mut action_sequences = vec![SequenceSet::empty(); ActionClass::cardinality()];
        object_sequences[car.index()] = SequenceSet::new(vec![iv(0, 9)]);
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

    fn g(i: u64) -> f64 {
        (i as f64 + 1.0) * (10.0 - i as f64)
    }

    #[test]
    fn delivers_clips_in_score_order_from_both_ends() {
        let cat = catalog();
        let query = ActionQuery::named("jumping", &["car"]);
        let skip = SkipSet::new(cat.result_sequences(&query));
        let mut tb = TbClip::new(&cat, &query, &PaperScoring);

        // Expected order: scores (i+1)(10-i) peak at i=4,5 (30), fall to 10
        // at i=0 and i=9.
        let mut tops = Vec::new();
        let mut btms = Vec::new();
        for _ in 0..5 {
            let step = tb.next(&skip);
            if let Some((c, s)) = step.top {
                assert!((s - g(c.raw())).abs() < 1e-9);
                tops.push(s);
            }
            if let Some((c, s)) = step.bottom {
                assert!((s - g(c.raw())).abs() < 1e-9);
                btms.push(s);
            }
        }
        // Tops non-increasing, bottoms non-decreasing.
        assert!(tops.windows(2).all(|w| w[0] >= w[1]), "{tops:?}");
        assert!(btms.windows(2).all(|w| w[0] <= w[1]), "{btms:?}");
        assert_eq!(tops[0], 30.0);
        assert_eq!(btms[0], 10.0);
    }

    #[test]
    fn exhausts_after_all_clips_processed() {
        let cat = catalog();
        let query = ActionQuery::named("jumping", &["car"]);
        let skip = SkipSet::new(cat.result_sequences(&query));
        let mut tb = TbClip::new(&cat, &query, &PaperScoring);
        let mut produced = BTreeSet::new();
        for _ in 0..20 {
            let step = tb.next(&skip);
            if let Some((c, _)) = step.top {
                produced.insert(c);
            }
            if let Some((c, _)) = step.bottom {
                produced.insert(c);
            }
            if step.top.is_none() && step.bottom.is_none() {
                break;
            }
        }
        // Every clip eventually delivered by one side or the other.
        assert_eq!(produced.len(), 10);
    }

    #[test]
    fn skipped_sequences_are_never_random_accessed() {
        let cat = catalog();
        let query = ActionQuery::named("jumping", &["car"]);
        let mut skip = SkipSet::new(SequenceSet::new(vec![iv(0, 4), iv(6, 9)]));
        skip.skip_sequence(0); // clips 0..=4 conclusively ranked
        let mut tb = TbClip::new(&cat, &query, &PaperScoring);
        let mut produced = Vec::new();
        loop {
            let step = tb.next(&skip);
            if let Some((c, _)) = step.top {
                produced.push(c.raw());
            }
            if step.top.is_none() && step.bottom.is_none() {
                break;
            }
        }
        assert!(produced.iter().all(|c| (6..=9).contains(c)), "{produced:?}");
        // Random accesses only for clips 6..=9 (2 tables each) = 8.
        assert_eq!(tb.disk().random_accesses, 8);
    }

    #[test]
    fn scores_memoised_across_calls() {
        let cat = catalog();
        let query = ActionQuery::named("jumping", &["car"]);
        let skip = SkipSet::new(cat.result_sequences(&query));
        let mut tb = TbClip::new(&cat, &query, &PaperScoring);
        for _ in 0..10 {
            tb.next(&skip);
        }
        // 10 clips x 2 tables = at most 20 random accesses ever.
        assert!(tb.disk().random_accesses <= 20);
        assert!(tb.score_cached(ClipId::new(4)));
    }

    #[test]
    fn merit_orders_keys_best_first_and_inverts() {
        let keys = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            1e-300,
            2.0,
            30.0,
            f64::INFINITY,
        ];
        for end in [End::Top, End::Bottom] {
            for a in keys {
                assert_eq!(end.key_of(end.merit(a)).to_bits(), a.to_bits());
                for b in keys {
                    assert_eq!(end.merit(a).cmp(&end.merit(b)), end.rank(b, a));
                }
            }
        }
    }

    /// Keys where `f64` bit patterns are easy to get wrong: both zeros,
    /// both infinities, subnormals, the extremes and neighbours of 1.
    const SPECIAL_KEYS: [f64; 12] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 2.0,
        -f64::MIN_POSITIVE / 2.0,
        f64::MAX,
        f64::MIN,
        1.0,
        1.0 + f64::EPSILON,
    ];

    /// Clip ids at both ends of what a place holds.
    const SPECIAL_CLIPS: [u64; 4] = [0, 1, MAX_CLIP - 1, MAX_CLIP];

    /// A special key half the time, any bit pattern otherwise.
    fn key() -> impl Strategy<Value = f64> {
        (0..2 * SPECIAL_KEYS.len(), any::<u64>())
            .prop_map(|(i, bits)| SPECIAL_KEYS.get(i).copied().unwrap_or(f64::from_bits(bits)))
    }

    /// A special clip id half the time, any 63-bit id otherwise.
    fn clip() -> impl Strategy<Value = ClipId> {
        (0..2 * SPECIAL_CLIPS.len(), any::<u64>()).prop_map(|(i, raw)| {
            ClipId::new(SPECIAL_CLIPS.get(i).copied().unwrap_or(raw & MAX_CLIP))
        })
    }

    proptest::proptest! {
        #[test]
        fn packed_place_orders_as_the_tuple(
            a in (key(), any::<bool>(), clip()),
            b in (key(), any::<bool>(), clip()),
            same_key in any::<bool>(),
        ) {
            // Half the pairs share a key, so `moved` and the clip id decide.
            let b = if same_key { (a.0, b.1, b.2) } else { b };
            for end in [End::Top, End::Bottom] {
                let place = |(key, moved, clip): (f64, bool, ClipId)| {
                    let p = Place::new(end.merit(key), moved, clip);
                    assert_eq!((p.merit(), p.clip()), (end.merit(key), clip));
                    (p, (end.merit(key), moved, Reverse(clip)))
                };
                let (pa, ta) = place(a);
                let (pb, tb) = place(b);
                assert_eq!(pa.cmp(&pb), ta.cmp(&tb), "{a:?} vs {b:?} from {end:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit TBClip's 63-bit queue key")]
    fn open_refuses_a_clip_id_past_the_queue_key() {
        let query = ActionQuery::named("jumping", &["car"]);
        let mut object_tables: Vec<_> = (0..ObjectClass::cardinality())
            .map(|_| svq_storage::ClipScoreTable::new(vec![]))
            .collect();
        object_tables[ObjectClass::named("car").index()] =
            svq_storage::ClipScoreTable::new(vec![(ClipId::new(MAX_CLIP + 1), 1.0)]);
        let cat = IngestedVideo::new(
            VideoId::new(0),
            VideoGeometry::default(),
            10,
            object_tables,
            (0..ActionClass::cardinality())
                .map(|_| svq_storage::ClipScoreTable::new(vec![]))
                .collect(),
            vec![SequenceSet::empty(); ObjectClass::cardinality()],
            vec![SequenceSet::empty(); ActionClass::cardinality()],
        );
        TbClip::open(&cat, &query, &PaperScoring);
    }

    #[test]
    fn absent_clip_scores_zero() {
        let cat = catalog();
        let query = ActionQuery::named("jumping", &["car"]);
        let mut tb = TbClip::new(&cat, &query, &PaperScoring);
        assert_eq!(tb.score_of(ClipId::new(99)), 0.0);
    }
}
