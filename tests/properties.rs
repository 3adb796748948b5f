//! Property-based tests over the core invariants, driven by proptest.

use proptest::prelude::*;
use svq_act::prelude::*;
use svq_storage::{ClipScoreTable, DiskStats};
use svq_types::scoring::MaxScoring;

fn iv(s: u64, e: u64) -> ClipInterval {
    Interval::new(ClipId::new(s), ClipId::new(e))
}

/// Arbitrary interval list with bounded coordinates.
fn intervals(max: u64) -> impl Strategy<Value = Vec<ClipInterval>> {
    prop::collection::vec((0..max, 0..20u64), 0..12).prop_map(move |pairs| {
        pairs
            .into_iter()
            .map(|(s, len)| iv(s, (s + len).min(max)))
            .collect()
    })
}

/// Reference membership set for a SequenceSet.
fn member_set(s: &SequenceSet) -> std::collections::BTreeSet<u64> {
    s.iter_clips().map(|c| c.raw()).collect()
}

proptest! {
    #[test]
    fn sequence_set_intersection_is_set_intersection(
        a in intervals(120),
        b in intervals(120),
    ) {
        let sa = SequenceSet::new(a);
        let sb = SequenceSet::new(b);
        let inter = sa.intersect(&sb);
        // Member-wise it is exactly set intersection…
        let expect: std::collections::BTreeSet<u64> = member_set(&sa)
            .intersection(&member_set(&sb))
            .copied()
            .collect();
        prop_assert_eq!(member_set(&inter), expect);
        // …and commutative.
        let flipped = sb.intersect(&sa);
        prop_assert_eq!(inter.intervals(), flipped.intervals());
        // Intervals are maximal runs: sorted, disjoint, non-adjacent.
        for w in inter.intervals().windows(2) {
            prop_assert!(w[0].end.raw() + 1 < w[1].start.raw());
        }
    }

    #[test]
    fn sequence_merger_equals_reference(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut merger = svq_core::online::SequenceMerger::new();
        let mut got = Vec::new();
        for (i, &b) in bits.iter().enumerate() {
            got.extend(merger.push(ClipId::new(i as u64), b));
        }
        got.extend(merger.finish());
        // Reference: group maximal true runs.
        let mut expect = Vec::new();
        let mut run: Option<(u64, u64)> = None;
        for (i, &b) in bits.iter().enumerate() {
            match (b, run) {
                (true, None) => run = Some((i as u64, i as u64)),
                (true, Some((s, _))) => run = Some((s, i as u64)),
                (false, Some((s, e))) => {
                    expect.push(iv(s, e));
                    run = None;
                }
                (false, None) => {}
            }
        }
        if let Some((s, e)) = run {
            expect.push(iv(s, e));
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn scan_tail_monotonicity(
        p in 1e-6f64..0.5,
        w in 2u32..80,
        l in 2.0f64..500.0,
    ) {
        // Non-increasing in k.
        let mut prev = 1.0;
        for k in 1..=w as u64 {
            let t = svq_scanstats::scan_tail_probability(k, p, w, l);
            prop_assert!((0.0..=1.0).contains(&t));
            prop_assert!(t <= prev + 1e-9, "k={k} tail {t} > prev {prev}");
            prev = t;
        }
        // Critical value is the threshold point.
        let alpha = 0.05;
        let k = svq_scanstats::critical_value(p, w, l, alpha);
        prop_assert!(k >= 1 && k <= w);
        if k < w {
            prop_assert!(svq_scanstats::scan_tail_probability(k as u64, p, w, l) <= alpha);
        }
    }

    #[test]
    fn clip_score_table_orders_and_answers(
        entries in prop::collection::vec((0u64..500, 0.01f64..100.0), 1..60),
    ) {
        // Dedup clip ids keeping the first occurrence.
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(ClipId, f64)> = entries
            .into_iter()
            .filter(|(c, _)| seen.insert(*c))
            .map(|(c, s)| (ClipId::new(c), s))
            .collect();
        let table = ClipScoreTable::new(entries.clone());
        let mut disk = DiskStats::default();
        prop_assert_eq!(table.len(), entries.len());
        // Sorted access is non-increasing and a permutation of the input.
        let mut last = f64::INFINITY;
        let mut total = 0usize;
        for i in 0..table.len() {
            let (cid, s) = table.sorted_row(i, &mut disk).unwrap();
            prop_assert!(s <= last);
            last = s;
            total += 1;
            // Random access agrees.
            prop_assert!((table.random_score(cid, &mut disk) - s).abs() < 1e-12);
        }
        prop_assert_eq!(total, entries.len());
        // Reverse access mirrors sorted access.
        for i in 0..table.len() {
            let a = table.sorted_row(table.len() - 1 - i, &mut disk).unwrap();
            let b = table.reverse_row(i, &mut disk).unwrap();
            prop_assert_eq!(a, b);
        }
        // Every access above landed in the caller's ledger.
        prop_assert_eq!(disk.sorted_accesses, 3 * entries.len() as u64);
        prop_assert_eq!(disk.random_accesses, entries.len() as u64);
    }

    #[test]
    fn scoring_bounds_bracket_exact(
        scores in prop::collection::vec(0.0f64..50.0, 1..20),
    ) {
        // For both algebras: absorbing clips in the iterator's delivery
        // order keeps B_lo <= exact <= B_up at every step (the Eq. 13-14
        // invariant RVAQ's correctness rests on).
        for scoring in [&PaperScoring as &dyn ScoringFunctions, &MaxScoring] {
            let exact = scoring.f(&scores);
            let mut desc = scores.clone();
            desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let n = scores.len();
            let mut bounds = svq_core::offline::SequenceBounds::new(
                iv(0, n as u64 - 1),
                scoring,
            );
            // Simulate the two-sided iterator: step i delivers the i-th
            // highest score from the top and the i-th lowest from the
            // bottom; each index is absorbed once.
            let mut known = std::collections::HashSet::new();
            for i in 0..n {
                for idx in [i, n - 1 - i] {
                    if known.insert(idx) {
                        bounds.absorb(desc[idx], scoring);
                    }
                }
                bounds.refresh_upper(desc[i], scoring);
                bounds.refresh_lower(desc[n - 1 - i], scoring);
                prop_assert!(bounds.b_up + 1e-9 >= exact);
                prop_assert!(bounds.b_lo <= exact + 1e-9);
            }
            prop_assert!((bounds.exact().unwrap() - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn kernel_estimator_stays_in_bounds(
        events in prop::collection::vec(any::<bool>(), 1..500),
        bandwidth in 10.0f64..5_000.0,
        prior in 0.0f64..1.0,
    ) {
        let mut est = svq_scanstats::KernelEstimator::new(bandwidth, prior);
        for &e in &events {
            est.observe(e);
            let p = est.estimate();
            prop_assert!((0.0..=1.0).contains(&p));
        }
        prop_assert_eq!(est.observed(), events.len() as u64);
        prop_assert_eq!(est.events(), events.iter().filter(|e| **e).count() as u64);
    }

    #[test]
    fn geometry_partitions_frames(
        fps in 1u32..120,
        frames_per_shot in 1u32..60,
        shots_per_clip in 1u32..20,
        total in 0u64..10_000,
    ) {
        let g = VideoGeometry::new(frames_per_shot, shots_per_clip, fps);
        // Every frame belongs to exactly the clip its range says.
        let clips = g.clip_count(total);
        let mut covered = 0u64;
        for c in 0..clips {
            let range = g.frames_of_clip(ClipId::new(c));
            covered += range.end - range.start;
            for f in [range.start, range.end - 1] {
                prop_assert_eq!(g.clip_of_frame(FrameId::new(f)), ClipId::new(c));
            }
        }
        prop_assert_eq!(covered, clips * g.frames_per_clip() as u64);
        prop_assert!(covered <= total);
        prop_assert!(total - covered < g.frames_per_clip() as u64);
    }
}
