//! # svq-storage
//!
//! The offline substrate of §4: the metadata materialised by the ingestion
//! phase and the simulated secondary storage it lives on.
//!
//! * [`disk`] — [`disk::DiskStats`], one query run's ledger of sorted and
//!   random accesses, and [`disk::DiskCostProfile`], the latency charged
//!   per access. Tables 6-7 of the paper report *numbers of random disk
//!   accesses* — a substrate-independent quantity this layer reproduces
//!   exactly — and runtimes, whose shape the latency model reproduces.
//! * [`table`] — [`table::ClipScoreTable`], the per-class `(cid, Score)`
//!   tables of §4.2, ordered by score, supporting forward sorted access,
//!   reverse (bottom-up) sorted access, and random access by clip id, each
//!   charged to the caller's ledger. Tables and catalogs are immutable once
//!   built, so any number of runs share one behind an `Arc`.
//! * [`seqset`] — [`seqset::SequenceSet`], per-class *individual sequences*
//!   (`P_{o_i}`, `P_{a_j}`) and the interval-sweep intersection `⊗`
//!   (Eq. 12).
//! * [`catalog`] — [`catalog::IngestedVideo`], the bundle of tables and
//!   sequence sets for one video, plus file persistence so a repository can
//!   be ingested once and queried many times (the paper's single-time
//!   pre-processing contract).
//! * [`sink`] — [`sink::CatalogSink`], the streaming fan-in of parallel
//!   ingestion: [`sink::MemorySink`] keeps catalogs resident,
//!   [`sink::DirSink`] spills each straight to disk (temp-file +
//!   rename, append-only manifest) so repository scale is bounded by disk,
//!   not RAM.
//! * [`repository`] — [`repository::VideoRepository`], catalogs keyed by
//!   `VideoId` with lazy directory-backed loading
//!   ([`repository::VideoRepository::open_dir`]).
//!
//! The ingestion *pipeline* (which runs SVAQD per class to produce the
//! sequence sets) lives in `svq-core::offline::ingest`, since it reuses the
//! online machinery; this crate only defines the containers it fills.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod disk;
pub mod repository;
pub mod seqset;
pub mod sink;
pub mod table;

pub use catalog::IngestedVideo;
pub use disk::{DiskCostProfile, DiskStats};
pub use repository::VideoRepository;
pub use seqset::SequenceSet;
pub use sink::DirSink as JsonDirSink; // svqbench's name for it, until a benchmark-only PR drops it
pub use sink::{
    read_manifest, CatalogSink, DirSink, FailingSink, ManifestEntry, MemorySink, SpillReport,
};
pub use table::ClipScoreTable;
