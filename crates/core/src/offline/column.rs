//! The dense random-access column of one run.
//!
//! Random access asks for one clip's score in each of the query's tables:
//! TBClip's steps 2 / 4, the FA baseline's score completion and
//! Pq-Traverse's full scan all do. A [`ClipScoreTable`] answers by binary
//! search over its clip-ordered mirror; a run instead lays the queried
//! tables out once, clip-major, and reads a clip's scores as one row. The
//! ledger is charged exactly as per-table random access charges it: one
//! random access per table per read, absence included.

use svq_storage::{ClipScoreTable, DiskStats, IngestedVideo};
use svq_types::{ActionQuery, ClipId};

/// The tables a query reads, in the order every engine keeps them: the
/// object tables in query order, then the action table.
pub(super) fn query_tables<'a>(
    catalog: &'a IngestedVideo,
    query: &ActionQuery,
) -> Vec<&'a ClipScoreTable> {
    let mut tables: Vec<_> = query
        .objects
        .iter()
        .map(|&o| catalog.object_table(o))
        .collect();
    tables.push(catalog.action_table(query.action));
    tables
}

/// The queried tables' scores, dense by clip id.
pub(super) struct ScoreColumn {
    tables: usize,
    /// Clip ids covered: `0..span`.
    span: usize,
    /// Score of `(clip, table)`, clip-major; 0 where the table has no row.
    scores: Vec<f64>,
}

impl ScoreColumn {
    /// Lay `tables` out over clip ids `0..clips` and every id a table holds
    /// (hand-built catalogs may hold ids past their clip count).
    pub(super) fn new(tables: &[&ClipScoreTable], clips: usize) -> Self {
        let n = tables.len();
        let span = tables
            .iter()
            .filter_map(|t| t.max_clip())
            .map(|c| c.index() + 1)
            .fold(clips, usize::max);
        let mut scores = vec![0.0; span * n];
        for (i, t) in tables.iter().enumerate() {
            for (clip, s) in t.iter_sorted() {
                scores[clip.index() * n + i] = s;
            }
        }
        Self {
            tables: n,
            span,
            scores,
        }
    }

    /// Clip ids `0..span` are laid out; every table row's id is below it.
    pub(super) fn span(&self) -> usize {
        self.span
    }

    /// Random access: `clip`'s score in each table, in table order, into
    /// `out` (0 where absent), charging `disk` one random access per table.
    pub(super) fn read(&self, clip: ClipId, out: &mut [f64], disk: &mut DiskStats) {
        disk.random_accesses += self.tables as u64;
        let c = clip.index();
        if c < self.span {
            out.copy_from_slice(&self.scores[c * self.tables..(c + 1) * self.tables]);
        } else {
            out.fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_per_table_random_access_reads_and_charges_alike() {
        let c = ClipId::new;
        let a = ClipScoreTable::new(vec![(c(1), 5.0), (c(3), 1.0), (c(7), 2.5)]);
        let b = ClipScoreTable::new(vec![(c(0), 0.5), (c(3), 4.0), (c(11), 3.0)]);
        let empty = ClipScoreTable::new(vec![]);
        let tables = [&a, &b, &empty];
        let column = ScoreColumn::new(&tables, 5);
        assert_eq!(column.span(), 12);
        let mut out = [f64::NAN; 3];
        for clip in (0..16).map(c) {
            let mut dense = DiskStats::default();
            let mut per_table = DiskStats::default();
            column.read(clip, &mut out, &mut dense);
            let want: Vec<f64> = tables
                .iter()
                .map(|t| t.random_score(clip, &mut per_table))
                .collect();
            assert_eq!(out.to_vec(), want, "{clip:?}");
            assert_eq!(dense, per_table, "{clip:?}");
        }
    }
}
