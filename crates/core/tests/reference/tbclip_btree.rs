//! The `BTreeMap`/`BTreeSet` implementation of the TBClip iterator that
//! `svq_core::offline::TbClip` replaced, kept verbatim (bar imports, the
//! struct name, two unused accessors, and its own access ledger, charged
//! by every table access exactly as `TbClip` charges its) as the oracle of
//! `tests/tbclip_differential.rs`: it re-derives the fresh intersection
//! and the candidate union from scratch on every step, so it cannot share
//! a bookkeeping bug with the dense, lazily pruned state of the real one.

use std::collections::{BTreeMap, BTreeSet};
use svq_core::offline::{SkipSet, TbClipStep};
use svq_storage::{ClipScoreTable, DiskStats, IngestedVideo};
use svq_types::{ActionQuery, ClipId, ScoringFunctions};

/// Algorithm 5, operating over the tables of one query.
pub struct BTreeTbClip<'a> {
    tables: Vec<&'a ClipScoreTable>,
    scoring: &'a dyn ScoringFunctions,
    /// How many object tables precede the action table in `tables`.
    n_objects: usize,
    // --- top-side state. BTree collections throughout: the candidate
    // scans iterate them, and stable iteration order is part of the
    // byte-identical-results contract enforced by svq-lint.
    stamp_top: usize,
    seen_top: Vec<BTreeMap<ClipId, f64>>,
    frontier_top: Vec<f64>,
    processed_top: BTreeSet<ClipId>,
    // --- bottom-side state.
    stamp_btm: usize,
    seen_btm: Vec<BTreeMap<ClipId, f64>>,
    frontier_btm: Vec<f64>,
    processed_btm: BTreeSet<ClipId>,
    /// Memoised complete clip scores (g over all queried tables).
    scores: BTreeMap<ClipId, f64>,
    /// Accesses this iterator has made.
    disk: DiskStats,
}

impl<'a> BTreeTbClip<'a> {
    /// Open the iterator over a catalog for one query.
    pub fn new(
        catalog: &'a IngestedVideo,
        query: &ActionQuery,
        scoring: &'a dyn ScoringFunctions,
    ) -> Self {
        let mut tables: Vec<&'a ClipScoreTable> = query
            .objects
            .iter()
            .map(|&o| catalog.object_table(o))
            .collect();
        tables.push(catalog.action_table(query.action));
        let n = tables.len();
        Self {
            tables,
            scoring,
            n_objects: query.objects.len(),
            stamp_top: 0,
            seen_top: vec![BTreeMap::new(); n],
            frontier_top: vec![f64::INFINITY; n],
            processed_top: BTreeSet::new(),
            stamp_btm: 0,
            seen_btm: vec![BTreeMap::new(); n],
            frontier_btm: vec![0.0; n],
            processed_btm: BTreeSet::new(),
            scores: BTreeMap::new(),
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
        if let Some(&s) = self.scores.get(&clip) {
            return s;
        }
        let mut object_scores = Vec::with_capacity(self.n_objects);
        for t in &self.tables[..self.n_objects] {
            object_scores.push(t.random_score(clip, &mut self.disk));
        }
        let action_score = self.tables[self.n_objects].random_score(clip, &mut self.disk);
        let s = self.scoring.g(&object_scores, action_score);
        self.scores.insert(clip, s);
        s
    }

    /// Whether a clip's score has already been memoised (no access charge).
    pub fn score_cached(&self, clip: ClipId) -> bool {
        self.scores.contains_key(&clip)
    }

    /// Advance the top side: sorted access in parallel until a new
    /// non-skipped candidate appears in all tables (step 1), then return
    /// the max-scoring candidate (step 2).
    fn next_top(&mut self, skip: &SkipSet) -> Option<(ClipId, f64)> {
        // Step 1 (loop guard): sorted access until the *intersection*
        // `C_∩^top` of the seen sets holds a fresh, unskipped clip — FA's
        // guarantee that the true maximum of the remaining clips is among
        // the clips seen so far.
        loop {
            let has_fresh_intersection = self.seen_top[0].keys().any(|c| {
                self.seen_top[1..].iter().all(|s| s.contains_key(c))
                    && !self.processed_top.contains(c)
                    && !skip.contains(*c)
            });
            if has_fresh_intersection {
                break;
            }
            // Parallel sorted access on row `stamp_top` of every table.
            let mut any_row = false;
            for (i, t) in self.tables.iter().enumerate() {
                if let Some((cid, s)) = t.sorted_row(self.stamp_top, &mut self.disk) {
                    self.seen_top[i].insert(cid, s);
                    self.frontier_top[i] = s;
                    any_row = true;
                }
            }
            self.stamp_top += 1;
            if !any_row {
                // Every table exhausted: no further top clips exist.
                return None;
            }
        }
        // Step 2: candidates are the *union* `C_∪^top` of seen clips (minus
        // processed and skipped). TA refinement: score candidates in
        // decreasing optimistic-bound order and stop once the bound cannot
        // beat the best completed score.
        let mut candidates: Vec<(ClipId, f64)> = Vec::new();
        let mut bound_scratch = vec![0.0f64; self.tables.len()];
        for (i, seen) in self.seen_top.iter().enumerate() {
            for (&c, &s) in seen {
                if self.processed_top.contains(&c) || skip.contains(c) {
                    continue;
                }
                if i > 0 && self.seen_top[..i].iter().any(|m| m.contains_key(&c)) {
                    continue; // already contributed by an earlier table
                }
                // Optimistic bound: seen coordinates, frontier elsewhere.
                for (j, slot) in bound_scratch.iter_mut().enumerate() {
                    *slot = self.seen_top[j].get(&c).copied().unwrap_or_else(|| {
                        if self.frontier_top[j].is_finite() {
                            self.frontier_top[j]
                        } else {
                            s // no frontier yet: fall back to own coordinate
                        }
                    });
                }
                let bound = self.scoring.g(
                    &bound_scratch[..self.n_objects],
                    bound_scratch[self.n_objects],
                );
                candidates.push((c, bound));
            }
        }
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut best: Option<(ClipId, f64)> = None;
        for (c, bound) in candidates {
            if let Some((_, bs)) = best {
                if bound <= bs {
                    break; // no remaining candidate can beat the best
                }
            }
            let s = if self.scores.contains_key(&c)
                || bound > best.map_or(f64::NEG_INFINITY, |(_, bs)| bs)
            {
                self.score_of(c)
            } else {
                continue;
            };
            if best.is_none_or(|(bc, bs)| s > bs || (s == bs && c < bc)) {
                best = Some((c, s));
            }
        }
        let best = best?;
        self.processed_top.insert(best.0);
        Some(best)
    }

    /// Mirror of [`Self::next_top`] from the bottom (steps 3-4).
    fn next_bottom(&mut self, skip: &SkipSet) -> Option<(ClipId, f64)> {
        loop {
            let has_fresh_intersection = self.seen_btm[0].keys().any(|c| {
                self.seen_btm[1..].iter().all(|s| s.contains_key(c))
                    && !self.processed_btm.contains(c)
                    && !skip.contains(*c)
            });
            if has_fresh_intersection {
                break;
            }
            let mut any_row = false;
            for (i, t) in self.tables.iter().enumerate() {
                if let Some((cid, s)) = t.reverse_row(self.stamp_btm, &mut self.disk) {
                    self.seen_btm[i].insert(cid, s);
                    self.frontier_btm[i] = s;
                    any_row = true;
                }
            }
            self.stamp_btm += 1;
            if !any_row {
                return None;
            }
        }
        // Mirror of the top side: pessimistic (lower) bounds — a clip's
        // unseen coordinates are at least the bottom frontier; clips whose
        // lower bound already exceeds the best minimum cannot win.
        let mut candidates: Vec<(ClipId, f64)> = Vec::new();
        let mut bound_scratch = vec![0.0f64; self.tables.len()];
        for (i, seen) in self.seen_btm.iter().enumerate() {
            for (&c, &s) in seen {
                if self.processed_btm.contains(&c) || skip.contains(c) {
                    continue;
                }
                if i > 0 && self.seen_btm[..i].iter().any(|m| m.contains_key(&c)) {
                    continue;
                }
                let _ = s;
                for (j, slot) in bound_scratch.iter_mut().enumerate() {
                    *slot = self.seen_btm[j]
                        .get(&c)
                        .copied()
                        .unwrap_or(self.frontier_btm[j]);
                }
                let bound = self.scoring.g(
                    &bound_scratch[..self.n_objects],
                    bound_scratch[self.n_objects],
                );
                candidates.push((c, bound));
            }
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut best: Option<(ClipId, f64)> = None;
        for (c, bound) in candidates {
            if let Some((_, bs)) = best {
                if bound >= bs {
                    break;
                }
            }
            let s = self.score_of(c);
            if best.is_none_or(|(bc, bs)| s < bs || (s == bs && c < bc)) {
                best = Some((c, s));
            }
        }
        let best = best?;
        self.processed_btm.insert(best.0);
        Some(best)
    }

    /// One invocation of the iterator: the next top and bottom clips.
    pub fn next(&mut self, skip: &SkipSet) -> TbClipStep {
        TbClipStep {
            top: self.next_top(skip),
            bottom: self.next_bottom(skip),
        }
    }
}
