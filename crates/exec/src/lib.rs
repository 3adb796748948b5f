//! # svq-exec — concurrent execution engine for SVQ-ACT
//!
//! The paper's engines are single-stream by construction: `Svaqd` consumes
//! one video's clips in order, ingestion builds one video's catalog at a
//! time. Real deployments watch many streams and answer many queries at
//! once. This crate adds that layer without touching the algorithms:
//!
//! * [`pool::WorkerPool`] — fixed worker threads behind a bounded job
//!   queue, with per-job panic isolation and graceful drain-then-join
//!   shutdown.
//! * [`mux::SessionMux`] — the session multiplexer: each (query, stream)
//!   pair owns its engine and a FIFO mailbox with a configurable
//!   backpressure policy; an atomic scheduled flag makes each session an
//!   actor, so results are byte-identical to sequential runs at any worker
//!   or shard count.
//! * [`ingress::Ingress`] — the sharded asynchronous ingress behind
//!   [`mux::SessionMux::feed`]: streams hash by `VideoId` to per-shard
//!   queues with one feeder thread each, so the accept path never blocks
//!   on a full mailbox and a stalled session stalls only its shard.
//! * [`ingest::parallel_ingest_into`] — one job per video fanning into a
//!   pluggable [`svq_storage::CatalogSink`] through a bounded hand-off (at
//!   most `workers + 1` finished catalogs resident): `MemorySink` keeps
//!   today's in-RAM repository, `DirSink` streams every catalog
//!   straight to disk so repository scale is bounded by storage, not RAM.
//!   [`ingest::parallel_ingest`] is the memory-sink shorthand.
//! * [`metrics::ExecMetrics`] — atomics-only counter registry (clips/sec
//!   per session and pool-wide, queue depths, stage latencies) snapshotted
//!   by `svqact mux` and `svq-bench`.
//!
//! Everything is built on `crossbeam` channels and `parking_lot` locks —
//! no other dependencies.

#![forbid(unsafe_code)]

pub mod ingest;
pub mod ingress;
pub mod metrics;
pub mod mux;
pub mod pool;

pub use ingest::{parallel_ingest, parallel_ingest_into};
pub use ingress::shard_index;
pub use metrics::{
    ExecMetrics, IngestCounters, IngestSnapshot, LatencyHistogram, MetricsSnapshot, ServerCounters,
    ServerSnapshot, SessionSnapshot, ShardSnapshot,
};
pub use mux::{
    Backpressure, ClipNotice, FeedError, MuxOptions, SessionEngine, SessionError, SessionId,
    SessionMux, SessionResult, POISON_CLIP,
};
pub use pool::{Job, WorkerPool};

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
