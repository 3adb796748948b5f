//! # svq-exec — concurrent execution engine for SVQ-ACT
//!
//! The paper's engines are single-stream by construction: `Svaqd` consumes
//! one video's clips in order, ingestion builds one video's catalog at a
//! time. Real deployments watch many streams and answer many queries at
//! once. This crate adds that layer without touching the algorithms:
//!
//! * [`pool::WorkerPool`] — fixed worker threads behind a bounded job
//!   queue, with per-job panic isolation and graceful drain-then-join
//!   shutdown. A served `stream` request and each `svqact mux` stream are
//!   one pool job running `execute_online`.
//! * [`mux::SessionMux`] — the same shape behind a session handle: feeds
//!   append clip ids to the session's list, and end-of-stream submits one
//!   job that steps the engine over them in feed order, so results are
//!   byte-identical to sequential runs at any worker count.
//! * [`ingest::parallel_ingest_into`] — one job per video fanning into a
//!   pluggable [`svq_storage::CatalogSink`] through a bounded hand-off (at
//!   most `workers + 1` finished catalogs resident): `MemorySink` keeps
//!   today's in-RAM repository, `DirSink` streams every catalog
//!   straight to disk so repository scale is bounded by storage, not RAM.
//!   [`ingest::parallel_ingest`] is the memory-sink shorthand.
//! * [`metrics::ExecMetrics`] — atomics-only counter registry (clips/sec
//!   per session and pool-wide, queue depths, stage latencies) snapshotted
//!   by `svqact mux` and `svq-bench`. Its server part is the `stats` wire
//!   frame, [`metrics::StatsFrame`], declared here once.
//!
//! Everything is built on `crossbeam` channels and `parking_lot` locks;
//! `serde` only derives `StatsFrame`'s wire encoding.

#![forbid(unsafe_code)]

pub mod ingest;
pub mod metrics;
pub mod mux;
pub mod pool;

pub use ingest::{parallel_ingest, parallel_ingest_into};
pub use metrics::{
    ExecMetrics, IngestCounters, IngestSnapshot, LatencyHistogram, MetricsSnapshot, ServerCounters,
    SessionSnapshot, ShardSnapshot, StatsFrame,
};
pub use mux::{
    Backpressure, ClipNotice, FeedError, MuxOptions, SessionEngine, SessionError, SessionId,
    SessionMux, SessionResult, POISON_CLIP,
};
pub use pool::{Job, WorkerPool};
/// Re-exported from `svq-types` so callers keep the `svq_exec` path.
pub use svq_types::shard_index;

/// Compile-time thread-safety proofs for everything the executor moves
/// across threads. The engines were written single-threaded; these
/// assertions pin down — at compile time, with no test to forget to run —
/// that none of them ever grows an `Rc`/`RefCell`/raw-pointer field that
/// would silently make the multiplexer unsound.
#[allow(dead_code)]
mod thread_safety {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}

    const _: () = {
        // Online engine state: owned by one session, handed between workers.
        assert_send::<svq_core::Svaqd>();
        assert_send::<crate::mux::SessionEngine>();
        // Clip inputs: the oracle is shared read-only across sessions; an
        // owned view travels into whichever worker evaluates the clip.
        assert_send::<svq_vision::models::DetectionOracle>();
        assert_sync::<svq_vision::models::DetectionOracle>();
        assert_send::<svq_vision::OwnedClipView>();
        // Offline side: per-video catalogs cross the ingest fan-in channel;
        // the merged repository is read by query threads.
        assert_send::<svq_storage::IngestedVideo>();
        assert_send::<svq_storage::ClipScoreTable>();
        assert_send::<svq_storage::VideoRepository>();
        assert_sync::<svq_storage::VideoRepository>();
        // The executor's own shared surface.
        assert_send::<crate::ExecMetrics>();
        assert_sync::<crate::ExecMetrics>();
        assert_send::<crate::SessionMux>();
        assert_sync::<crate::SessionMux>();
    };
}
