//! Clip score tables — the `table_{o_i}` / `table_{a_j}` of §4.2.
//!
//! One table per class per video: rows `(cid, Score)` with `Score > 0`,
//! ordered by score descending. Three access paths, each charged to the
//! [`DiskStats`] ledger of the query run that makes it:
//!
//! * **sorted access** — the i-th highest-scoring row (TBClip's forward
//!   pass, Algorithm 5 step 1);
//! * **reverse access** — the i-th *lowest*-scoring row (TBClip's bottom
//!   pass, step 3);
//! * **random access** — the score of a given clip id (step 2/4), `0` for
//!   clips absent from the table (the class scored nothing there).

use crate::disk::DiskStats;
use svq_types::{ClipId, SvqError, SvqResult};

/// A per-class clip score table, sorted by score descending.
#[derive(Debug, Clone)]
pub struct ClipScoreTable {
    /// Rows ordered by score descending (ties broken by clip id for
    /// determinism).
    rows: Vec<(ClipId, f64)>,
    /// The largest clip id any row carries. Derived from `rows`, never
    /// persisted.
    max_clip: Option<ClipId>,
}

/// Row order: score descending, ties broken by clip id ascending.
fn row_order(a: &(ClipId, f64), b: &(ClipId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// The rows' clip ids in ascending order, or the first one listed twice.
fn sorted_clips(rows: &[(ClipId, f64)]) -> Result<Vec<ClipId>, ClipId> {
    let mut clips: Vec<ClipId> = rows.iter().map(|(c, _)| *c).collect();
    clips.sort_unstable();
    match clips.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(w[0]),
        None => Ok(clips),
    }
}

impl ClipScoreTable {
    /// Build from unordered `(clip, score)` pairs; zero/negative scores are
    /// dropped (absent rows mean "score 0" by convention).
    pub fn new(mut entries: Vec<(ClipId, f64)>) -> Self {
        entries.retain(|(_, s)| *s > 0.0);
        let clips = sorted_clips(&entries).expect("duplicate clip id in table");
        let mut rows = entries;
        rows.sort_by(row_order);
        Self {
            rows,
            max_clip: clips.last().copied(),
        }
    }

    /// Rebuild a table from rows read out of a catalog file. Nothing is
    /// repaired: the rows must already satisfy what [`ClipScoreTable::new`]
    /// establishes — every score positive, `(score desc, clip asc)` order,
    /// no clip twice — or the file is refused.
    pub(crate) fn from_sorted_rows(rows: Vec<(ClipId, f64)>) -> SvqResult<Self> {
        if let Some((clip, score)) = rows.iter().find(|(_, s)| s.is_nan() || *s <= 0.0) {
            return Err(SvqError::Storage(format!(
                "score table holds non-positive score {score} for clip {}",
                clip.raw()
            )));
        }
        if let Some(at) = rows
            .windows(2)
            .position(|w| row_order(&w[0], &w[1]).is_ge())
        {
            return Err(SvqError::Storage(format!(
                "score table rows {at} and {} are out of (score desc, clip asc) order",
                at + 1
            )));
        }
        let clips = sorted_clips(&rows).map_err(|clip| {
            SvqError::Storage(format!("score table lists clip {} twice", clip.raw()))
        })?;
        Ok(Self {
            rows,
            max_clip: clips.last().copied(),
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The largest clip id any row carries (unmetered: catalog validation,
    /// not query processing).
    pub fn max_clip(&self) -> Option<ClipId> {
        self.max_clip
    }

    /// Sorted access: the row with the i-th highest score, charged to
    /// `disk` when it exists.
    pub fn sorted_row(&self, i: usize, disk: &mut DiskStats) -> Option<(ClipId, f64)> {
        let row = self.rows.get(i).copied();
        if row.is_some() {
            disk.sorted_accesses += 1;
        }
        row
    }

    /// Reverse access: the row with the i-th lowest score, charged to
    /// `disk` as a sorted access when it exists.
    pub fn reverse_row(&self, i: usize, disk: &mut DiskStats) -> Option<(ClipId, f64)> {
        if i >= self.rows.len() {
            return None;
        }
        disk.sorted_accesses += 1;
        Some(self.rows[self.rows.len() - 1 - i])
    }

    /// Random access: the score of `clip`, `0.0` if absent. Always charges
    /// `disk` one random access — absence is only known after looking.
    /// A linear scan: the engines read scores through the dense column
    /// they build per run, and only tests and reference implementations
    /// call this.
    pub fn random_score(&self, clip: ClipId, disk: &mut DiskStats) -> f64 {
        disk.random_accesses += 1;
        self.peek_score(clip)
    }

    /// Unmetered score lookup for ground-truth computations in tests and
    /// metrics (not for use inside query algorithms).
    pub fn peek_score(&self, clip: ClipId) -> f64 {
        self.rows
            .iter()
            .find(|(c, _)| *c == clip)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Iterate rows in score order without charging (used by ingestion-side
    /// maintenance, not by query processing).
    pub fn iter_sorted(&self) -> impl Iterator<Item = (ClipId, f64)> + '_ {
        self.rows.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u64) -> ClipId {
        ClipId::new(i)
    }

    fn table() -> ClipScoreTable {
        ClipScoreTable::new(vec![
            (c(3), 1.0),
            (c(1), 5.0),
            (c(7), 3.0),
            (c(4), 0.0),
            (c(9), 3.0),
        ])
    }

    #[test]
    fn rows_sorted_by_score_desc_with_id_ties() {
        let mut disk = DiskStats::default();
        let t = table();
        assert_eq!(t.len(), 4); // zero-score row dropped
        assert_eq!(t.sorted_row(0, &mut disk), Some((c(1), 5.0)));
        assert_eq!(t.sorted_row(1, &mut disk), Some((c(7), 3.0))); // tie: lower id first
        assert_eq!(t.sorted_row(2, &mut disk), Some((c(9), 3.0)));
        assert_eq!(t.sorted_row(3, &mut disk), Some((c(3), 1.0)));
        assert_eq!(t.sorted_row(4, &mut disk), None);
    }

    #[test]
    fn reverse_access_walks_from_bottom() {
        let mut disk = DiskStats::default();
        let t = table();
        assert_eq!(t.reverse_row(0, &mut disk), Some((c(3), 1.0)));
        assert_eq!(t.reverse_row(3, &mut disk), Some((c(1), 5.0)));
        assert_eq!(t.reverse_row(4, &mut disk), None);
    }

    #[test]
    fn random_access_returns_zero_for_absent() {
        let mut disk = DiskStats::default();
        let t = table();
        assert_eq!(t.random_score(c(7), &mut disk), 3.0);
        assert_eq!(t.random_score(c(4), &mut disk), 0.0); // dropped zero-score row
        assert_eq!(t.random_score(c(100), &mut disk), 0.0);
    }

    #[test]
    fn accesses_are_metered() {
        let mut disk = DiskStats::default();
        let t = table();
        t.sorted_row(0, &mut disk);
        t.sorted_row(1, &mut disk);
        t.reverse_row(0, &mut disk);
        t.random_score(c(1), &mut disk);
        t.sorted_row(99, &mut disk); // out of range: no charge
        assert_eq!(disk.sorted_accesses, 3);
        assert_eq!(disk.random_accesses, 1);
        // peek is unmetered.
        t.peek_score(c(1));
        assert_eq!(disk.random_accesses, 1);
    }

    #[test]
    fn from_sorted_rows_accepts_only_what_new_would_build() {
        let t = table();
        let rows: Vec<_> = t.iter_sorted().collect();
        let back = ClipScoreTable::from_sorted_rows(rows.clone()).unwrap();
        assert_eq!(back.iter_sorted().collect::<Vec<_>>(), rows);
        assert_eq!(back.peek_score(c(9)), 3.0);
        assert_eq!(back.max_clip(), Some(c(9)));

        let refused = |rows: Vec<(ClipId, f64)>, needle: &str| {
            let err = ClipScoreTable::from_sorted_rows(rows).unwrap_err();
            assert!(matches!(err, SvqError::Storage(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        };
        refused(vec![(c(1), 0.0)], "non-positive");
        refused(vec![(c(1), -2.0)], "non-positive");
        refused(vec![(c(1), f64::NAN)], "non-positive");
        refused(vec![(c(1), 1.0), (c(2), 2.0)], "out of");
        refused(vec![(c(9), 3.0), (c(7), 3.0)], "out of"); // tie, ids descending
        refused(vec![(c(4), 3.0), (c(4), 3.0)], "out of"); // same row twice
        refused(vec![(c(4), 3.0), (c(5), 2.0), (c(4), 1.0)], "twice");
    }

    #[test]
    #[should_panic(expected = "duplicate clip id")]
    fn duplicate_clip_rejected() {
        ClipScoreTable::new(vec![(c(1), 1.0), (c(1), 2.0)]);
    }
}
