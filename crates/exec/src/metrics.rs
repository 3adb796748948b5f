//! Execution metrics registry.
//!
//! Each counter is declared once. [`StatsFrame`] and [`IngestSnapshot`]
//! are each written out in one `counted!` declaration, which also
//! generates the registry's relaxed `AtomicU64` for every field marked
//! `#[count]` ([`ServerCounters`], [`IngestCounters`]) and the copy from
//! those atomics into the snapshot. Workers and the service layer bump
//! the atomics; [`ExecMetrics::snapshot`] reads them into a plain-data
//! [`MetricsSnapshot`] (`parking_lot` only guards the session list). A
//! gauge with a bound is read from the structure that holds the bound:
//! the pool queue depth is the job channel's length. `svqact mux`,
//! `serve` and `route --metrics-every` print the snapshot; svqbench
//! reads its figures from it. Rates are computed at snapshot time from a
//! monotonic start instant, so reading metrics never perturbs the hot
//! path.

use crate::pool::Job;
use crossbeam::channel::Receiver;
use parking_lot::{rt, Condvar, Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Counters for one multiplexed session.
#[derive(Debug, Default)]
pub struct SessionCounters {
    /// Clips fully evaluated through the session's engine.
    pub clips_processed: AtomicU64,
    /// Nanoseconds workers spent running this session's stream.
    pub eval_nanos: AtomicU64,
}

/// Declares a snapshot struct and the registry struct that counts it from
/// one field list. Each `#[count]` field (a `u64`) gets a relaxed
/// `AtomicU64` of its name and doc in the registry, after the registry's
/// own fields, and `load_into` copies each into the snapshot; unmarked
/// fields are derived or filled at snapshot time. The macro takes the
/// fields one at a time, so the snapshot keeps its declared (wire) order.
macro_rules! counted {
    ($(#[$($attr:tt)*])* pub struct $snapshot:ident { $($fields:tt)* }
     $(#[doc = $rdoc:tt])* pub struct $registry:ident { $($own:tt)* }) => {
        counted!(@munch [$(#[$($attr)*])* pub struct $snapshot]
            [$(#[doc = $rdoc])* pub struct $registry { $($own)* }] [] [] $($fields)*);
    };
    (@munch $s:tt $r:tt [$($all:tt)*] [$($counted:tt)*]
        $(#[doc = $doc:tt])* #[count] pub $field:ident: u64, $($rest:tt)*) => {
        counted!(@munch $s $r [$($all)* $(#[doc = $doc])* pub $field: u64,]
            [$($counted)* { $(#[doc = $doc])* $field }] $($rest)*);
    };
    (@munch $s:tt $r:tt [$($all:tt)*] $counted:tt
        $(#[doc = $doc:tt])* pub $field:ident: $ty:ident, $($rest:tt)*) => {
        counted!(@munch $s $r [$($all)* $(#[doc = $doc])* pub $field: $ty,] $counted $($rest)*);
    };
    (@munch [$(#[$($attr:tt)*])* pub struct $snapshot:ident]
        [$(#[doc = $rdoc:tt])* pub struct $registry:ident { $($own:tt)* }]
        [$($all:tt)*] [$({ $(#[doc = $doc:tt])* $field:ident })*]) => {
        $(#[$($attr)*])*
        pub struct $snapshot { $($all)* }

        $(#[doc = $rdoc])*
        #[derive(Debug, Default)]
        pub struct $registry { $($own)* $($(#[doc = $doc])* pub $field: AtomicU64,)* }

        impl $registry {
            /// Copy every counter into the snapshot field of its name.
            fn load_into(&self, snapshot: &mut $snapshot) {
                $(snapshot.$field = self.$field.load(Ordering::Relaxed);)*
            }
        }
    };
}

counted! {
    /// The parallel-ingest fan-in at snapshot time.
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct IngestSnapshot {
        /// Catalogs completed by workers.
        #[count] pub catalogs_built: u64,
        /// Catalogs accepted by the sink.
        #[count] pub catalogs_sunk: u64,
        /// Bytes the sink reported durably written (0 for memory sinks).
        #[count] pub bytes_written: u64,
        /// Total time inside `CatalogSink::accept` (spill latency).
        pub sink_ms: f64,
        /// Finished catalogs not yet sunk (gauge).
        #[count] pub buffered: u64,
        /// Peak simultaneous waiting catalogs — bounded by `workers + 1`.
        #[count] pub buffered_high_water: u64,
    }

    /// Counters for the parallel-ingest fan-in (see `svq_exec::ingest`).
    ///
    /// "Buffered" counts catalogs a worker has finished building that the
    /// sink has not yet taken: on a blocked send, in the capacity-1 hand-off
    /// channel, or held by the consumer while the sink accepts it. It counts
    /// the hand-off's permits, of which there are `workers + 1`, so the
    /// high-water mark is bounded by `workers + 1` by construction — the
    /// invariant the spill path exists to enforce, asserted by tests and the
    /// `ingest-spill` bench.
    pub struct IngestCounters {
        /// Nanoseconds spent inside `CatalogSink::accept` (serialisation +
        /// write + rename + manifest append for the spill sink).
        pub sink_nanos: AtomicU64,
    }
}

impl IngestCounters {
    /// A worker finished a catalog and took a hand-off permit for it.
    pub(crate) fn enter_buffer(&self) {
        self.catalogs_built.fetch_add(1, Ordering::Relaxed);
        let depth = self.buffered.fetch_add(1, Ordering::Relaxed) + 1;
        self.buffered_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// The sink took a catalog (or it was dropped after a sink error);
    /// its permit is about to be returned.
    pub(crate) fn exit_buffer(&self) {
        self.buffered.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Number of fixed power-of-two latency buckets (bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds; the last bucket absorbs everything above).
const LATENCY_BUCKETS: usize = 32;

/// A hand-rolled fixed-bucket latency histogram.
///
/// Lock-free: `record` is two relaxed `fetch_add`s on the hot path.
/// Buckets are powers of two in microseconds, so 32 of them span 1 µs to
/// over an hour with ≤ 2× relative error — plenty for serving-latency
/// tails. Quantiles are read at snapshot time and report the *upper* edge
/// of the bucket holding the requested rank (a conservative estimate:
/// reported p99 is never below the true p99's bucket).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let idx = (micros.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`) in milliseconds: the upper edge of
    /// the bucket containing the rank-`ceil(q·n)` observation. 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return (1u128 << (i + 1)) as f64 / 1e3;
            }
        }
        // Unreachable while count tracks the buckets; degrade gracefully.
        (1u128 << LATENCY_BUCKETS) as f64 / 1e3
    }
}

counted! {
    /// The `svq-serve` service layer at snapshot time — also the `stats` wire
    /// frame, flattened to wire-stable scalars (`svq_serve` re-exports it).
    ///
    /// [`ExecMetrics::snapshot`] fills what the registry counts (the
    /// `#[count]` fields, kept by [`ServerCounters`]) plus `requests`,
    /// latency and `total_clips`. The rest is only known to whoever serves
    /// the frame: a server's backend completes it with `catalog_hits`/
    /// `catalog_misses` from its repository's `cache_stats()`, its inventory
    /// (`catalog_videos`, `live_streams`) and `subs_queue_depth`, both in
    /// its `stats` answer and in `ServerHandle::snapshot`. A router answers
    /// with the *cluster view*: its own front-door counters and latency (the
    /// service the client talks to), the execution counters and inventory
    /// (`catalog_hits`/`catalog_misses`, `catalog_videos`, `live_streams`,
    /// `total_clips`) summed over every reachable shard, and
    /// `shards`/`shards_up` for the fan-out. A plain server reports
    /// `shards = 0`.
    #[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
    pub struct StatsFrame {
        /// Connections currently admitted (gauge).
        #[count] pub active_conns: u64,
        /// Peak simultaneous admitted connections.
        #[count] pub peak_conns: u64,
        /// Total connections admitted.
        #[count] pub accepted: u64,
        /// Connections refused with a `busy` frame (all slots occupied).
        #[count] pub rejected_busy: u64,
        /// Connections refused with a `draining` frame (shutdown in progress).
        #[count] pub rejected_draining: u64,
        /// Connections closed by an expired read/write deadline.
        #[count] pub timed_out: u64,
        /// Malformed frames answered with typed errors (connection survived).
        #[count] pub malformed: u64,
        /// Listener `accept` failures survived with backoff (e.g. EMFILE).
        #[count] pub accept_errors: u64,
        /// Offline catalog fetches answered from resident memory.
        pub catalog_hits: u64,
        /// Offline catalog fetches that had to (re)load from disk.
        pub catalog_misses: u64,
        /// Videos the served catalog repository holds.
        pub catalog_videos: u64,
        /// Live streams (detection oracles) the server exposes.
        pub live_streams: u64,
        #[count] pub req_query: u64,
        #[count] pub req_stream: u64,
        #[count] pub req_subscribe: u64,
        #[count] pub req_unsubscribe: u64,
        #[count] pub req_stats: u64,
        #[count] pub req_shutdown: u64,
        /// All requests answered.
        pub requests: u64,
        /// Standing subscriptions currently registered (gauge).
        #[count] pub subs_active: u64,
        /// High-water mark of concurrently registered subscriptions.
        #[count] pub subs_peak: u64,
        /// Subscriptions ever registered.
        #[count] pub subs_opened: u64,
        /// `event` frames delivered to subscription push queues.
        #[count] pub subs_events: u64,
        /// `lagged` gap notices pushed after queue overflow.
        #[count] pub subs_lagged: u64,
        /// Events dropped (and counted) because a push queue was at budget.
        #[count] pub subs_missed: u64,
        /// Pushed lines currently resident in connection writers.
        pub subs_queue_depth: u64,
        pub latency_p50_ms: f64,
        pub latency_p95_ms: f64,
        pub latency_p99_ms: f64,
        /// Clips evaluated by stream sessions since the server started.
        pub total_clips: u64,
        /// Upstream shards configured (0 on a non-router server).
        pub shards: u64,
        /// Upstream shards that answered the aggregation sweep.
        pub shards_up: u64,
    }

    /// Counters for the `svq-serve` service layer.
    ///
    /// All updates are relaxed atomics on connection/request paths; the
    /// latency histogram covers successfully answered requests end-to-end
    /// (parse → execute → response flushed).
    pub struct ServerCounters {
        /// End-to-end latency of answered requests.
        pub latency: LatencyHistogram,
    }
}

impl ServerCounters {
    /// A connection was admitted: bump the gauge and its high-water mark.
    pub fn conn_opened(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let active = self.active_conns.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_conns.fetch_max(active, Ordering::Relaxed);
    }

    /// An admitted connection finished (any reason).
    pub fn conn_closed(&self) {
        self.active_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// A subscription was registered: bump the gauge and its high-water
    /// mark.
    pub fn sub_opened(&self) {
        self.subs_opened.fetch_add(1, Ordering::Relaxed);
        let active = self.subs_active.fetch_add(1, Ordering::Relaxed) + 1;
        self.subs_peak.fetch_max(active, Ordering::Relaxed);
    }

    /// A subscription was torn down (unsubscribe, connection close, or
    /// source end).
    pub fn sub_closed(&self) {
        self.subs_active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Counters for the worker pool itself.
#[derive(Default)]
pub struct PoolCounters {
    /// Jobs executed to completion (including panicked ones).
    pub jobs_executed: AtomicU64,
    /// Jobs that panicked.
    pub jobs_panicked: AtomicU64,
    /// The worker count and job channel of the first pool built on the
    /// registry. The queue depth is the channel's length, read under the
    /// channel's lock, so it never exceeds the channel's capacity.
    attached: OnceLock<(u64, Receiver<Job>)>,
}

/// The process-wide exec metrics registry.
///
/// Cheap to clone (`Arc` inside); one registry is shared by a pool, its
/// multiplexer, and whatever wants to print progress.
#[derive(Clone, Default)]
pub struct ExecMetrics {
    inner: Arc<MetricsInner>,
}

struct MetricsInner {
    started: Instant,
    pool: PoolCounters,
    ingest: IngestCounters,
    server: ServerCounters,
    /// Clips processed by sessions that have since been retired — folded
    /// in so `total_clips` stays monotonic across session churn.
    retired_clips: AtomicU64,
    sessions: RwLock<Vec<(String, Arc<SessionCounters>)>>,
}

impl Default for MetricsInner {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            pool: PoolCounters::default(),
            ingest: IngestCounters::default(),
            server: ServerCounters::default(),
            retired_clips: AtomicU64::new(0),
            sessions: RwLock::new(Vec::new()),
        }
    }
}

impl ExecMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool-level counters.
    pub fn pool(&self) -> &PoolCounters {
        &self.inner.pool
    }

    /// Parallel-ingest fan-in counters.
    pub fn ingest(&self) -> &IngestCounters {
        &self.inner.ingest
    }

    /// Service-layer counters.
    pub fn server(&self) -> &ServerCounters {
        &self.inner.server
    }

    /// Report `workers` and the length of `jobs` as the pool's. A registry
    /// describes the first pool built on it: a later one adds to the job
    /// counts, not to these two figures.
    pub(crate) fn attach_pool(&self, workers: usize, jobs: &Receiver<Job>) {
        let _ = self.inner.pool.attached.set((workers as u64, jobs.clone()));
    }

    /// Register a session's counter block under a display label.
    pub fn register_session(&self, label: String) -> Arc<SessionCounters> {
        let counters = Arc::new(SessionCounters::default());
        self.inner.sessions.write().push((label, counters.clone()));
        counters
    }

    /// Retire a session's counter block: drop its per-session snapshot line
    /// while folding its processed-clip total into a monotonic residue, so
    /// a long-lived server answering thousands of stream requests neither
    /// grows the snapshot without bound nor loses throughput history.
    pub fn retire_session(&self, counters: &Arc<SessionCounters>) {
        let mut sessions = self.inner.sessions.write();
        if let Some(at) = sessions.iter().position(|(_, c)| Arc::ptr_eq(c, counters)) {
            let (_, retired) = sessions.remove(at);
            self.inner.retired_clips.fetch_add(
                retired.clips_processed.load(Ordering::Relaxed),
                Ordering::Relaxed,
            );
        }
    }

    /// Point-in-time view of every counter plus derived rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let elapsed = self.inner.started.elapsed().as_secs_f64().max(1e-9);
        let sessions: Vec<SessionSnapshot> = self
            .inner
            .sessions
            .read()
            .iter()
            .map(|(label, c)| {
                let clips = c.clips_processed.load(Ordering::Relaxed);
                SessionSnapshot {
                    label: label.clone(),
                    clips_processed: clips,
                    clips_per_sec: clips as f64 / elapsed,
                    eval_ms: c.eval_nanos.load(Ordering::Relaxed) as f64 / 1e6,
                }
            })
            .collect();
        let total_clips: u64 = sessions.iter().map(|s| s.clips_processed).sum::<u64>()
            + self.inner.retired_clips.load(Ordering::Relaxed);
        let srv = &self.inner.server;
        let mut server = StatsFrame {
            latency_p50_ms: srv.latency.quantile_ms(0.50),
            latency_p95_ms: srv.latency.quantile_ms(0.95),
            latency_p99_ms: srv.latency.quantile_ms(0.99),
            total_clips,
            ..StatsFrame::default()
        };
        srv.load_into(&mut server);
        server.requests = server.req_query
            + server.req_stream
            + server.req_subscribe
            + server.req_unsubscribe
            + server.req_stats
            + server.req_shutdown;
        let ing = &self.inner.ingest;
        let mut ingest = IngestSnapshot {
            sink_ms: ing.sink_nanos.load(Ordering::Relaxed) as f64 / 1e6,
            ..IngestSnapshot::default()
        };
        ing.load_into(&mut ingest);
        let pool = &self.inner.pool;
        let (workers, pool_queue_depth) = pool
            .attached
            .get()
            .map_or((0, 0), |(workers, jobs)| (*workers, jobs.len() as u64));
        MetricsSnapshot {
            elapsed_sec: elapsed,
            workers,
            jobs_executed: pool.jobs_executed.load(Ordering::Relaxed),
            jobs_panicked: pool.jobs_panicked.load(Ordering::Relaxed),
            pool_queue_depth,
            total_clips_per_sec: total_clips as f64 / elapsed,
            ingest,
            server,
            shards: Vec::new(),
            sessions,
            lock_holds: lock_hold_snapshots(),
        }
    }

    /// Spawn a background thread delivering a fresh [`MetricsSnapshot`] to
    /// `sink` every `every` until the returned [`MetricsReporter`] is
    /// stopped (or dropped). Backs `svqact mux --metrics-every <secs>`.
    ///
    /// The reporter parks on a condvar rather than sleeping, so `stop()`
    /// returns promptly instead of waiting out the interval.
    pub fn spawn_reporter<F>(&self, every: Duration, mut sink: F) -> MetricsReporter
    where
        F: FnMut(MetricsSnapshot) + Send + 'static,
    {
        // Typed, so svq-lint's call graph links `metrics.snapshot()` and
        // sees the `stop` → `sessions` nesting below.
        let metrics: ExecMetrics = self.clone();
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let in_thread = shared.clone();
        let handle = rt::spawn("svq-metrics-reporter", move || {
            let (stop, cv) = &*in_thread;
            let mut stopped = stop.lock();
            loop {
                // Check before parking: a stop that lands before this
                // thread first takes the lock has already spent its
                // notification, and nothing else would wake the wait.
                if *stopped {
                    return;
                }
                let timed_out = cv.wait_for(&mut stopped, every).timed_out();
                if *stopped {
                    return;
                }
                if timed_out {
                    sink(metrics.snapshot());
                }
                // Spurious wake with no stop: park again.
            }
        })
        .expect("spawn metrics reporter");
        MetricsReporter {
            shared,
            handle: Some(handle),
        }
    }
}

/// Handle to a periodic reporter thread from [`ExecMetrics::spawn_reporter`].
/// Dropping it stops the thread.
pub struct MetricsReporter {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<rt::JoinHandle<()>>,
}

impl MetricsReporter {
    /// Stop the reporter and join its thread.
    pub fn stop(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        let (stop, cv) = &*self.shared;
        *stop.lock() = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsReporter {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

/// One session's metrics at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    pub label: String,
    pub clips_processed: u64,
    pub clips_per_sec: f64,
    /// Total worker time running the session's stream.
    pub eval_ms: f64,
}

/// Accepted and ignored; kept only until the benchmark stops naming it
/// (ROADMAP item 19).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    pub shard: usize,
    pub enqueued: u64,
    pub delivered: u64,
    pub ingress_depth: u64,
    pub feed_block_ms: f64,
}

/// Guard-lifetime statistics for one lock-acquisition site, from the
/// lock-order auditor. Only populated under `--features lock-audit`;
/// always empty otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct LockHoldSnapshot {
    /// `file:line:column` of the `#[track_caller]` acquisition site.
    pub site: String,
    /// Guards acquired (and released) at this site.
    pub count: u64,
    /// Total milliseconds guards from this site were held.
    pub total_ms: f64,
    /// Longest single hold, in milliseconds.
    pub max_ms: f64,
}

/// Whole-registry metrics at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub elapsed_sec: f64,
    pub workers: u64,
    pub jobs_executed: u64,
    pub jobs_panicked: u64,
    pub pool_queue_depth: u64,
    /// Pool-wide throughput across all sessions; the clip count itself is
    /// `server.total_clips`.
    pub total_clips_per_sec: f64,
    pub ingest: IngestSnapshot,
    pub server: StatsFrame,
    /// Always empty; kept only until the benchmark stops naming it
    /// (ROADMAP item 19).
    pub shards: Vec<ShardSnapshot>,
    pub sessions: Vec<SessionSnapshot>,
    /// Longest-held lock guards per acquisition site (lock-audit builds
    /// only; empty without the feature).
    pub lock_holds: Vec<LockHoldSnapshot>,
}

/// Guard-lifetime report from the lock auditor, longest hold first.
/// Compiled to an empty list without `--features lock-audit`.
fn lock_hold_snapshots() -> Vec<LockHoldSnapshot> {
    #[cfg(feature = "lock-audit")]
    {
        parking_lot::lock_audit::guard_report()
            .into_iter()
            .map(|h| LockHoldSnapshot {
                site: h.site,
                count: h.count,
                total_ms: h.total_nanos as f64 / 1e6,
                max_ms: h.max_nanos as f64 / 1e6,
            })
            .collect()
    }
    #[cfg(not(feature = "lock-audit"))]
    Vec::new()
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "exec: {} workers, {:.2}s elapsed, {} clips ({:.0} clips/s), \
             {} jobs ({} panicked), pool queue {}",
            self.workers,
            self.elapsed_sec,
            self.server.total_clips,
            self.total_clips_per_sec,
            self.jobs_executed,
            self.jobs_panicked,
            self.pool_queue_depth,
        )?;
        if self.server.accepted + self.server.rejected_busy + self.server.rejected_draining > 0 {
            writeln!(
                f,
                "  serve    {:>4} active (peak {})  {:>6} accepted  busy {:>4}  \
                 draining {:>4}  timeout {:>4}  malformed {:>4}",
                self.server.active_conns,
                self.server.peak_conns,
                self.server.accepted,
                self.server.rejected_busy,
                self.server.rejected_draining,
                self.server.timed_out,
                self.server.malformed,
            )?;
            let server = &self.server;
            if server.accept_errors
                + server.catalog_hits
                + server.catalog_misses
                + server.catalog_videos
                + server.live_streams
                > 0
            {
                writeln!(
                    f,
                    "  accept errors {:>4}  catalog hits {:>6}  misses {:>6}  videos {:>4}  \
                     live streams {:>2}",
                    server.accept_errors,
                    server.catalog_hits,
                    server.catalog_misses,
                    server.catalog_videos,
                    server.live_streams,
                )?;
            }
            writeln!(
                f,
                "  requests {:>6} ({:>6.0}/s)  query {:>5}  stream {:>5}  stats {:>5}  \
                 shutdown {:>2}  p50 {:>7.2} ms  p95 {:>7.2} ms  p99 {:>7.2} ms",
                self.server.requests,
                self.server.requests as f64 / self.elapsed_sec,
                self.server.req_query,
                self.server.req_stream,
                self.server.req_stats,
                self.server.req_shutdown,
                self.server.latency_p50_ms,
                self.server.latency_p95_ms,
                self.server.latency_p99_ms,
            )?;
            if self.server.subs_opened > 0 {
                writeln!(
                    f,
                    "  subs     {:>4} active (peak {})  {:>6} opened  events {:>8}  \
                     lagged {:>4}  missed {:>6}  queue depth {:>4}",
                    self.server.subs_active,
                    self.server.subs_peak,
                    self.server.subs_opened,
                    self.server.subs_events,
                    self.server.subs_lagged,
                    self.server.subs_missed,
                    self.server.subs_queue_depth,
                )?;
            }
        }
        if self.ingest.catalogs_built > 0 {
            writeln!(
                f,
                "  ingest   {:>8} built  {:>8} sunk  {:>10} bytes  sink {:>8.1} ms  \
                 buffered {} (peak {})",
                self.ingest.catalogs_built,
                self.ingest.catalogs_sunk,
                self.ingest.bytes_written,
                self.ingest.sink_ms,
                self.ingest.buffered,
                self.ingest.buffered_high_water,
            )?;
        }
        for s in &self.sessions {
            writeln!(
                f,
                "  {:<28} {:>8} clips ({:>8.0}/s)  eval {:>9.1} ms",
                s.label, s.clips_processed, s.clips_per_sec, s.eval_ms,
            )?;
        }
        // Top guard-hold sites (lock-audit builds only; the list is empty
        // otherwise). Five is enough to spot the contended lock.
        for h in self.lock_holds.iter().take(5) {
            writeln!(
                f,
                "  hold     {:<40} {:>8} holds  max {:>8.3} ms  total {:>8.1} ms",
                h.site, h.count, h.max_ms, h.total_ms,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_sessions() {
        let metrics = ExecMetrics::new();
        let _pool = crate::WorkerPool::new(4, 1, metrics.clone());
        let a = metrics.register_session("q0/v0".into());
        let b = metrics.register_session("q1/v0".into());
        a.clips_processed.store(30, Ordering::Relaxed);
        b.clips_processed.store(12, Ordering::Relaxed);
        let snap = metrics.snapshot();
        assert_eq!(snap.workers, 4);
        assert_eq!(snap.server.total_clips, 42);
        assert_eq!(snap.sessions.len(), 2);
        assert_eq!(snap.sessions[1].clips_processed, 12);
        assert!(snap.total_clips_per_sec > 0.0);
        let text = snap.to_string();
        assert!(text.contains("q0/v0"));
        assert!(text.contains("42 clips"));

        // Every counted field reaches the snapshot field of its name.
        macro_rules! bump_and_read {
            ($counters:expr, $snapshot:ident, $($field:ident = $n:expr),* $(,)?) => {{
                $($counters.$field.fetch_add($n, Ordering::Relaxed);)*
                let snap = metrics.snapshot();
                $(assert_eq!(snap.$snapshot.$field, $n, stringify!($field));)*
                snap
            }};
        }
        let snap = bump_and_read!(
            metrics.server(),
            server,
            active_conns = 101,
            peak_conns = 102,
            accepted = 103,
            rejected_busy = 104,
            rejected_draining = 105,
            timed_out = 106,
            malformed = 107,
            accept_errors = 108,
            req_query = 109,
            req_stream = 110,
            req_subscribe = 111,
            req_unsubscribe = 112,
            req_stats = 113,
            req_shutdown = 114,
            subs_active = 115,
            subs_peak = 116,
            subs_opened = 117,
            subs_events = 118,
            subs_lagged = 119,
            subs_missed = 120,
        );
        assert_eq!(snap.server.requests, (109..=114).sum::<u64>());
        // What the registry does not count stays 0 for the backend to fill.
        assert_eq!(snap.server.catalog_hits + snap.server.subs_queue_depth, 0);
        bump_and_read!(
            metrics.ingest(),
            ingest,
            catalogs_built = 201,
            catalogs_sunk = 202,
            bytes_written = 203,
            buffered = 204,
            buffered_high_water = 205,
        );
    }

    #[test]
    fn ingest_counters_track_hand_off_high_water() {
        let metrics = ExecMetrics::new();
        let ing = metrics.ingest();
        ing.enter_buffer();
        ing.enter_buffer();
        ing.exit_buffer();
        ing.enter_buffer(); // depth back to 2: peak stays 2
        ing.catalogs_sunk.store(1, Ordering::Relaxed);
        ing.bytes_written.store(4_096, Ordering::Relaxed);
        ing.sink_nanos.store(3_000_000, Ordering::Relaxed);
        let snap = metrics.snapshot();
        assert_eq!(snap.ingest.catalogs_built, 3);
        assert_eq!(snap.ingest.catalogs_sunk, 1);
        assert_eq!(snap.ingest.buffered, 2);
        assert_eq!(snap.ingest.buffered_high_water, 2);
        assert_eq!(snap.ingest.bytes_written, 4_096);
        assert!((snap.ingest.sink_ms - 3.0).abs() < 1e-9);
        let text = snap.to_string();
        assert!(text.contains("ingest"), "{text}");
        assert!(text.contains("peak 2"), "{text}");
        // Quiet registries do not print an ingest line.
        assert!(!ExecMetrics::new().snapshot().to_string().contains("ingest"));
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ms(0.5), 0.0, "empty histogram reads 0");
        // 99 fast observations (~100 µs) and one slow outlier (~50 ms).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.50);
        let p99 = h.quantile_ms(0.99);
        let p100 = h.quantile_ms(1.0);
        // Bucket upper edges: conservative but within 2x of the truth.
        assert!((0.1..=0.26).contains(&p50), "p50 = {p50}");
        assert!(p99 <= p100, "quantiles are monotonic");
        assert!((50.0..=140.0).contains(&p100), "p100 = {p100}");
    }

    #[test]
    fn server_counters_roll_up_into_the_snapshot() {
        let metrics = ExecMetrics::new();
        let srv = metrics.server();
        srv.conn_opened();
        srv.conn_opened();
        srv.conn_closed();
        srv.rejected_busy.fetch_add(1, Ordering::Relaxed);
        srv.req_query.fetch_add(3, Ordering::Relaxed);
        srv.req_stats.fetch_add(1, Ordering::Relaxed);
        srv.latency.record(Duration::from_micros(700));
        let snap = metrics.snapshot().server;
        assert_eq!(snap.active_conns, 1);
        assert_eq!(snap.peak_conns, 2);
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.rejected_busy, 1);
        assert_eq!(snap.requests, 4);
        assert!(snap.latency_p99_ms > 0.0);
        let text = metrics.snapshot().to_string();
        assert!(text.contains("serve"), "{text}");
        assert!(text.contains("p99"), "{text}");
        // Registries that never served do not print server lines.
        let quiet = ExecMetrics::new().snapshot().to_string();
        assert!(!quiet.contains("serve"), "{quiet}");
    }

    #[test]
    fn retiring_a_session_preserves_clip_totals() {
        let metrics = ExecMetrics::new();
        let a = metrics.register_session("stream/1".into());
        let b = metrics.register_session("stream/2".into());
        a.clips_processed.store(10, Ordering::Relaxed);
        b.clips_processed.store(5, Ordering::Relaxed);
        assert_eq!(metrics.snapshot().server.total_clips, 15);
        metrics.retire_session(&a);
        let snap = metrics.snapshot();
        assert_eq!(snap.sessions.len(), 1, "retired line is gone");
        assert_eq!(snap.server.total_clips, 15, "clip total stays monotonic");
        // Retiring twice (or an unknown block) is harmless.
        metrics.retire_session(&a);
        assert_eq!(metrics.snapshot().server.total_clips, 15);
    }

    #[test]
    fn reporter_delivers_snapshots_then_stops() {
        let metrics = ExecMetrics::new();
        let session = metrics.register_session("r/0".into());
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let reporter = metrics.spawn_reporter(Duration::from_millis(2), move |snap| {
            sink.lock().push(snap.server.total_clips);
        });
        session.clips_processed.store(7, Ordering::Relaxed);
        // Wait until at least one snapshot lands (bounded, not timing-exact).
        for _ in 0..500 {
            if !seen.lock().is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        reporter.stop();
        let delivered = seen.lock().len();
        assert!(delivered >= 1, "reporter never fired");
        // Stopped means stopped: no more deliveries.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(seen.lock().len(), delivered);
    }

    #[test]
    fn dropping_the_reporter_joins_promptly() {
        let metrics = ExecMetrics::new();
        let started = Instant::now();
        let reporter = metrics.spawn_reporter(Duration::from_secs(3600), |_| {});
        drop(reporter);
        // The condvar wakes the thread immediately; nothing close to the
        // hour-long interval.
        assert!(started.elapsed() < Duration::from_secs(60));
    }
    /// A snapshot with a distinct value in every printed counter.
    fn fixed_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            elapsed_sec: 12.5,
            workers: 3,
            jobs_executed: 40,
            jobs_panicked: 1,
            pool_queue_depth: 2,
            total_clips_per_sec: 72.0,
            ingest: IngestSnapshot {
                catalogs_built: 4,
                catalogs_sunk: 3,
                bytes_written: 65_536,
                sink_ms: 7.25,
                buffered: 1,
                buffered_high_water: 2,
            },
            server: StatsFrame {
                active_conns: 1,
                peak_conns: 2,
                accepted: 3,
                rejected_busy: 4,
                rejected_draining: 5,
                timed_out: 6,
                malformed: 7,
                accept_errors: 8,
                catalog_hits: 9,
                catalog_misses: 10,
                catalog_videos: 11,
                live_streams: 12,
                req_query: 13,
                req_stream: 14,
                req_subscribe: 15,
                req_unsubscribe: 16,
                req_stats: 17,
                req_shutdown: 18,
                requests: 19,
                subs_active: 20,
                subs_peak: 21,
                subs_opened: 22,
                subs_events: 23,
                subs_lagged: 24,
                subs_missed: 25,
                subs_queue_depth: 26,
                latency_p50_ms: 27.5,
                latency_p95_ms: 28.25,
                latency_p99_ms: 29.125,
                total_clips: 900,
                ..StatsFrame::default()
            },
            shards: Vec::new(),
            sessions: vec![SessionSnapshot {
                label: "conn4/r2".into(),
                clips_processed: 600,
                clips_per_sec: 48.0,
                eval_ms: 31.5,
            }],
            lock_holds: vec![LockHoldSnapshot {
                site: "crates/exec/src/pool.rs:10:5".into(),
                count: 11,
                total_ms: 2.5,
                max_ms: 0.125,
            }],
        }
    }

    #[test]
    fn display_text_is_stable() {
        let head =
            "exec: 3 workers, 12.50s elapsed, 900 clips (72 clips/s), 40 jobs (1 panicked), \
                    pool queue 2\n  \
                    serve       1 active (peak 2)       3 accepted  busy    4  draining    5  \
                    timeout    6  malformed    7\n";
        let catalog = "  accept errors    8  catalog hits      9  misses     10  videos   11  \
                       live streams 12\n";
        let requests = "  requests     19 (     2/s)  query    13  stream    14  stats    17  \
                        shutdown 18  p50   27.50 ms  p95   28.25 ms  p99   29.12 ms\n";
        let subs =
            "  subs       20 active (peak 21)      22 opened  events       23  lagged   24  \
                    missed     25  queue depth   26\n";
        let tail = "  ingest          4 built         3 sunk       65536 bytes  sink      7.2 ms  \
                    buffered 1 (peak 2)\n  \
                    conn4/r2                          600 clips (      48/s)  eval      31.5 ms\n  \
                    hold     crates/exec/src/pool.rs:10:5                   11 holds  max    \
                    0.125 ms  total      2.5 ms\n";
        let snap = fixed_snapshot();
        assert_eq!(
            snap.to_string(),
            [head, catalog, requests, subs, tail].concat()
        );
        // Without accept errors, catalog traffic or inventory, or
        // subscriptions, those two lines are left out.
        let mut quiet = snap;
        quiet.server.accept_errors = 0;
        quiet.server.catalog_hits = 0;
        quiet.server.catalog_misses = 0;
        quiet.server.catalog_videos = 0;
        quiet.server.live_streams = 0;
        quiet.server.subs_opened = 0;
        assert_eq!(quiet.to_string(), [head, requests, tail].concat());
    }

    #[test]
    fn display_text_names_the_backend_inventory() {
        // Each figure only a backend fills in shows up on its own.
        let mut snap = fixed_snapshot();
        snap.server = StatsFrame {
            accepted: 1,
            subs_opened: 1,
            ..StatsFrame::default()
        };
        snap.server.catalog_videos = 3;
        let text = snap.to_string();
        assert!(text.contains("videos    3"), "{text}");
        snap.server.catalog_videos = 0;
        snap.server.live_streams = 2;
        let text = snap.to_string();
        assert!(text.contains("live streams  2"), "{text}");
        snap.server.live_streams = 0;
        snap.server.subs_queue_depth = 5;
        let text = snap.to_string();
        assert!(text.contains("queue depth    5"), "{text}");
    }
}
