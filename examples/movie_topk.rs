//! Offline scenario: ingest a feature-length movie once, then answer
//! ad-hoc top-K action queries against the materialised metadata — the
//! paper's §4 pipeline (ingestion → Eq. 12 intersection → RVAQ), including
//! a comparison against the Pq-Traverse baseline and catalog persistence.
//!
//! ```text
//! cargo run --release --example movie_topk
//! ```

use svq_act::prelude::*;
use svq_core::online::OnlineConfig;

fn main() {
    // --- 1. The "movie": 30 minutes of Coffee-and-Cigarettes-like footage
    // (smoking scenes with cups and wine glasses on tables).
    let movie = MovieSpec::new(
        VideoId::new(1),
        "Coffee and Cigarettes (synthetic)",
        30,
        ActionClass::named("smoking"),
        vec![
            ObjectSpec::scene(ObjectClass::named("wine glass")),
            ObjectSpec::scene(ObjectClass::named("cup")),
        ],
        7,
    )
    .generate();

    // --- 2. Ingestion: a single pass extracting clip score tables and
    // individual sequences for *every* class the models support — no query
    // knowledge needed.
    println!("ingesting {} frames…", movie.truth.total_frames);
    let started = std::time::Instant::now();
    let oracle = movie.oracle(ModelSuite::accurate());
    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
    println!(
        "ingested {} clips in {:.1}s (one-time cost)\n",
        catalog.clip_count,
        started.elapsed().as_secs_f64()
    );

    // --- 3. Catalogs persist: ingest once, query forever.
    let path = std::env::temp_dir().join("svq_movie_catalog.svqc");
    catalog.save(&path).expect("persist catalog");
    let catalog = IngestedVideo::load(&path).expect("reload catalog");
    println!("catalog persisted and reloaded from {}\n", path.display());

    // --- 4. Ad-hoc top-K queries. Each run counts its own table accesses
    // in `result.disk`; the catalog itself is read-only.
    let query = ActionQuery::named("smoking", &["wine glass", "cup"]);
    for k in [1usize, 3, 5] {
        let result = Rvaq::run(
            &catalog,
            &query,
            &PaperScoring,
            RvaqOptions::new(k).with_exact_scores(),
        );
        println!(
            "top-{k} of {} sequences ({} random accesses):",
            result.total_sequences, result.disk.random_accesses
        );
        for (rank, seq) in result.ranked.iter().enumerate() {
            println!(
                "  #{:<2} clips {:>4}..{:<4} score {:>8.1}",
                rank + 1,
                seq.interval.start.raw(),
                seq.interval.end.raw(),
                seq.exact.unwrap_or(seq.lower),
            );
        }
    }

    // --- 5. Versus the baseline that scores every result clip.
    let rvaq = Rvaq::run(&catalog, &query, &PaperScoring, RvaqOptions::new(1));
    let traverse = PqTraverse::run(&catalog, &query, &PaperScoring, 1);
    println!(
        "\nK=1 cost: RVAQ {} random accesses vs Pq-Traverse {} ({}x saved by bounds + skip)",
        rvaq.disk.random_accesses,
        traverse.disk.random_accesses,
        traverse.disk.random_accesses / rvaq.disk.random_accesses.max(1),
    );
    std::fs::remove_file(&path).ok();
}
