//! The benchmark's contract: workload names, metric names, units and
//! directions. `BENCHMARK.json` at the repository root lists exactly the
//! gated workloads and every metric (the crate's tests compare the two), so
//! a metric is added here and there together.

use std::collections::BTreeMap;

/// One workload: its name, the one-line reason it exists, and whether
/// `BENCHMARK.json` lists it, which makes its end-to-end metrics a gate for
/// later changes. A workload that is not listed still runs by name, in the
/// full report and in the tests.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "topk_hot",
        why: "engine-bound: offline top-K on 4 resident 1200-clip videos, 70% on one video, so RVAQ and its per-video gate do the work",
        gated: true,
    },
    WorkloadDef {
        name: "topk_cold",
        why: "storage-bound: offline top-K over 24 spilled catalogs behind a 4-slot cache, so most requests decode a catalog file",
        gated: true,
    },
    WorkloadDef {
        name: "routed_burst",
        why: "wire-bound: bursts of 8 id-tagged frames through the router to 2 shards, so frames, sockets and hops are the cost",
        gated: true,
    },
    WorkloadDef {
        name: "stream_online",
        why: "exec-bound: whole-stream SVAQD requests through SessionMux ingress shards, the pool used as sessions not jobs",
        gated: true,
    },
    WorkloadDef {
        name: "fanout_push",
        why: "open-loop push: a paced live source fans events out to 4096 subscriptions over 2 connections, no request path",
        // Its lag is decided by how two writers and two readers land on
        // two cores, which no run length inside the driver's budget
        // steadies; the budget goes to longer runs of the other four.
        gated: false,
    },
];

/// One metric: name, unit, which direction is better, and (end-to-end
/// only) the share of the parent's median it may worsen by.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. `failed_share` is reported through the
/// result's `attempted`/`failed` keys instead: the driver's contract
/// excludes metrics whose healthy value is 0.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("lat_p50_ms", "ms", "lower", 0.25),
    e2e("lat_p95_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single-layer metrics, layer = module. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 70] = [
    layer("vision.synth_ms_per_video", "ms", "lower"),
    layer("core.ingest.ms_per_video", "ms", "lower"),
    layer("core.ingest.clips_per_s", "1/s", "higher"),
    layer("storage.save_ms", "ms", "lower"),
    layer("storage.spill_bytes_per_clip", "B", "lower"),
    layer("storage.open_dir_ms", "ms", "lower"),
    layer("storage.load_ms", "ms", "lower"),
    layer("storage.fetch_hit_us", "us", "lower"),
    layer("storage.cache_hits", "count", "higher"),
    layer("storage.cache_misses", "count", "lower"),
    layer("storage.cache_evictions", "count", "lower"),
    layer("storage.hit_ratio", "ratio", "higher"),
    layer("query.parse_us", "us", "lower"),
    layer("query.plan_us", "us", "lower"),
    layer("query.merge_cluster_us", "us", "lower"),
    layer("core.offline.exec_ms", "ms", "lower"),
    layer("core.offline.served_wall_ms", "ms", "lower"),
    layer("core.offline.sorted_accesses", "count", "lower"),
    layer("core.offline.random_accesses", "count", "lower"),
    layer("core.offline.iterations", "count", "lower"),
    layer("core.online.exec_ms", "ms", "lower"),
    layer("core.online.clips_per_s", "1/s", "higher"),
    layer("core.online.sequences", "count", "higher"),
    layer("scanstats.critical_value_cold_us", "us", "lower"),
    layer("scanstats.critical_value_memo_us", "us", "lower"),
    layer("exec.mux_clips_per_s", "1/s", "higher"),
    layer("exec.mux_stream_ms", "ms", "lower"),
    layer("exec.session_eval_ms", "ms", "lower"),
    layer("exec.feed_block_ms", "ms", "lower"),
    layer("exec.pool_jobs", "count", "lower"),
    layer("exec.jobs_panicked", "count", "lower"),
    layer("exec.pool_queue_depth_max", "count", "lower"),
    layer("exec.ingress_depth_max", "count", "lower"),
    layer("exec.ingest_videos_per_s", "1/s", "higher"),
    layer("serve.protocol.decode_us", "us", "lower"),
    layer("serve.protocol.encode_us", "us", "lower"),
    layer("serve.protocol.request_bytes", "B", "lower"),
    layer("serve.protocol.response_bytes", "B", "lower"),
    layer("serve.protocol.push_encode_us", "us", "lower"),
    layer("serve.protocol.push_bytes", "B", "lower"),
    layer("serve.server.latency_p50_ms", "ms", "lower"),
    layer("serve.server.latency_p99_ms", "ms", "lower"),
    layer("serve.server.requests", "count", "higher"),
    layer("serve.server.malformed", "count", "lower"),
    layer("serve.server.timed_out", "count", "lower"),
    layer("serve.server.rejected_busy", "count", "lower"),
    layer("serve.server.drain_ms", "ms", "lower"),
    layer("serve.server.replay_p50_ms", "ms", "lower"),
    layer("serve.server.residual_ms", "ms", "lower"),
    layer("serve.router.serial_p50_ms", "ms", "lower"),
    layer("serve.router.hop_ms", "ms", "lower"),
    layer("serve.router.scatter_ms", "ms", "lower"),
    layer("serve.router.shards_up", "count", "higher"),
    layer("serve.subscribe.events", "count", "higher"),
    layer("serve.subscribe.missed", "count", "lower"),
    layer("serve.subscribe.lagged", "count", "lower"),
    layer("serve.subscribe.queue_depth_max", "count", "lower"),
    layer("serve.subscribe.subscribe_ack_ms", "ms", "lower"),
    layer("serve.subscribe.fanout_spread_p50_ms", "ms", "lower"),
    layer("serve.subscribe.source_clips_per_s", "1/s", "higher"),
    layer("client.samples", "count", "higher"),
    layer("client.lat_p50_ms", "ms", "lower"),
    layer("client.lat_p99_ms", "ms", "lower"),
    layer("client.lat_max_ms", "ms", "lower"),
    layer("client.encode_us", "us", "lower"),
    layer("client.decode_us", "us", "lower"),
    layer("client.verify_us", "us", "lower"),
    layer("client.cpu_share", "ratio", "lower"),
    layer("client.trace_overhead_pct", "%", "lower"),
    layer("bench.dominant_layer_share", "ratio", "higher"),
];

/// Metric values by name, as one run measured them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The driver-facing result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every metric of `defs`
    /// (a per-layer metric the workload did not exercise reads 0).
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let value = self.metrics.get(d.name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
