//! The `svqact` subcommands.

use crate::args::Flags;
use svq_core::offline::ingest as run_ingest;
use svq_core::online::OnlineConfig;
use svq_query::plan::{LogicalPlan, QueryMode};
use svq_storage::IngestedVideo;
use svq_types::{ActionClass, ObjectClass, PaperScoring, VideoGeometry, VideoId, Vocabulary};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec, SyntheticVideo};
use svq_vision::VideoStream;

pub type CliResult = Result<(), Box<dyn std::error::Error>>;

fn load_scene(path: &str) -> Result<SyntheticVideo, Box<dyn std::error::Error>> {
    let json = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&json)?)
}

/// Rewrite a builder validation message (`"serve: pipeline_depth must be
/// at least 1"`) into the flag spelling the operator typed
/// (`"--pipeline-depth must be at least 1"`), so CLI errors name CLI
/// surface rather than internal field names.
fn flag_named(err: svq_types::SvqError) -> Box<dyn std::error::Error> {
    let svq_types::SvqError::InvalidConfig(msg) = err else {
        return err.to_string().into();
    };
    let body = msg
        .strip_prefix("serve: ")
        .or_else(|| msg.strip_prefix("route: "))
        .unwrap_or(&msg);
    match body.split_once(' ') {
        Some((field, rest)) => format!("--{} {rest}", field.replace('_', "-")).into(),
        None => body.to_string().into(),
    }
}

/// `--metrics-every <secs>`: the interval between metrics snapshots on
/// stderr, `None` when 0 (off, the default). A negative, NaN, infinite or
/// out-of-range interval is refused.
fn metrics_interval(flags: &Flags) -> Result<Option<std::time::Duration>, String> {
    let secs: f64 = flags.get_parsed("metrics-every", 0.0)?;
    let every = std::time::Duration::try_from_secs_f64(secs).map_err(|_| {
        format!("--metrics-every must be a non-negative, finite number of seconds, got {secs}")
    })?;
    Ok((!every.is_zero()).then_some(every))
}

/// The scene files `--scenes a,b,…` (blank entries skipped) or `--scene`
/// names, `--scenes` winning; `None` when neither flag is given.
fn scene_paths(flags: &Flags) -> Option<Vec<String>> {
    match (flags.get("scenes"), flags.get("scene")) {
        (Some(list), _) => Some(
            list.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
        ),
        (None, Some(one)) => Some(vec![one.to_string()]),
        (None, None) => None,
    }
}

fn suite_named(name: &str) -> Result<ModelSuite, String> {
    match name {
        "accurate" => Ok(ModelSuite::accurate()),
        "fast" => Ok(ModelSuite::fast()),
        "ideal" => Ok(ModelSuite::ideal()),
        other => Err(format!(
            "unknown model suite {other:?} (accurate|fast|ideal)"
        )),
    }
}

/// `--minutes` of footage as a frame count at `geometry`'s rate. A value
/// that is not positive, not finite, or past a `u64` frame count is
/// refused, as `serve --source minutes=…` refuses one.
fn footage_frames(minutes: f64, geometry: VideoGeometry) -> Result<u64, String> {
    let frames = (minutes * 60.0 * f64::from(geometry.fps)).round();
    // 2^64, the first float past `u64::MAX`; NaN fails both tests.
    if (1.0..18_446_744_073_709_551_616.0).contains(&frames) {
        Ok(frames as u64)
    } else {
        Err(format!(
            "--minutes must be positive and fit a frame count, got {minutes}"
        ))
    }
}

/// The flags `svqact synth` reads; any other is refused.
pub const SYNTH_FLAGS: &str = "minutes action objects seed occupancy out";

/// `svqact synth` — generate a synthetic scene.
pub fn synth(flags: &Flags) -> CliResult {
    let geometry = VideoGeometry::default();
    let frames = footage_frames(flags.get_parsed("minutes", 5.0)?, geometry)?;
    let action = ActionClass::lookup(flags.require("action")?)
        .ok_or("unknown action label (try `svqact labels actions`)")?;
    let objects: Vec<ObjectSpec> = flags
        .get("objects")
        .map(|list| {
            list.split(',')
                .map(|o| {
                    ObjectClass::lookup(o.trim())
                        .map(ObjectSpec::scene)
                        .ok_or_else(|| format!("unknown object label {o:?}"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?
        .unwrap_or_default();
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let occupancy: f64 = flags.get_parsed("occupancy", 0.35)?;
    let out = flags.require("out")?;

    let mut spec = ScenarioSpec::activitynet(VideoId::new(seed), frames, action, objects, seed);
    spec.action_occupancy = occupancy;
    let video = spec.generate();
    std::fs::write(out, serde_json::to_string(&video)?)?;
    println!(
        "wrote {out}: {} frames, {} action episodes, {} object tracks",
        video.truth.total_frames,
        video.truth.actions.len(),
        video.truth.tracks.len()
    );
    Ok(())
}

/// The flags `svqact ingest` reads; any other is refused.
pub const INGEST_FLAGS: &str = "scene scenes models workers sink out";

/// `svqact ingest` — simulate models over one or more scenes and
/// materialise catalogs.
///
/// One scene with the defaults keeps the classic shape: a single catalog
/// file at `--out`. With `--scenes a.json,b.json`, `--workers N`, or
/// `--sink spill|mem`, ingestion fans out on the svq-exec pool and `--out`
/// names a *directory*: `spill` streams every finished catalog straight to
/// disk through a [`svq_storage::DirSink`] (bounded memory), `mem`
/// builds the in-RAM repository first and saves it — both produce
/// byte-identical directories loadable with `VideoRepository::open_dir`.
pub fn ingest(flags: &Flags) -> CliResult {
    use std::sync::Arc;
    use svq_exec::{parallel_ingest_into, ExecMetrics};
    use svq_storage::{DirSink, MemorySink};
    use svq_types::ScoringFunctions;

    let suite = suite_named(flags.get("models").unwrap_or("accurate"))?;
    let out = flags.require("out")?;
    let workers: usize = flags.get_parsed("workers", 1)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let scene_paths =
        scene_paths(flags).ok_or("ingest needs --scene <file> or --scenes <a,b,…>")?;
    if scene_paths.is_empty() {
        return Err("--scenes holds no scene path".into());
    }
    let config = OnlineConfig::default();
    let started = std::time::Instant::now();

    // Classic path: one scene, sequential, single catalog file.
    if scene_paths.len() == 1 && workers == 1 && flags.get("sink").is_none() {
        let video = load_scene(&scene_paths[0])?;
        let oracle = video.oracle(suite);
        let catalog = run_ingest(&oracle, &PaperScoring, &config);
        catalog.save(out)?;
        println!(
            "ingested {} clips with {} in {:.1}s -> {out}",
            catalog.clip_count,
            suite.name(),
            started.elapsed().as_secs_f64()
        );
        return Ok(());
    }

    let oracles: Vec<Arc<_>> = scene_paths
        .iter()
        .map(|p| load_scene(p).map(|v| Arc::new(v.oracle(suite))))
        .collect::<Result<_, _>>()?;
    let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
    let metrics = ExecMetrics::new();
    let report = match flags.get("sink").unwrap_or("spill") {
        "spill" => parallel_ingest_into(
            &oracles,
            scoring,
            config,
            workers,
            metrics.clone(),
            DirSink::create(out)?,
        )?,
        "mem" => {
            let repo = parallel_ingest_into(
                &oracles,
                scoring,
                config,
                workers,
                metrics.clone(),
                MemorySink::new(),
            )?;
            repo.save_dir(out)?
        }
        other => return Err(format!("unknown sink {other:?} (mem|spill)").into()),
    };
    let ing = metrics.snapshot().ingest;
    println!(
        "ingested {} catalogs ({} clips, {} bytes) with {} on {workers} workers -> {}",
        report.videos,
        report.clips,
        report.bytes_written,
        suite.name(),
        report.dir.display()
    );
    println!(
        "hand-off peak {} catalogs (bound {}), sink {:.1}ms, wall {:.2}s",
        ing.buffered_high_water,
        workers + 1,
        ing.sink_ms,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The flags `svqact query` reads; any other is refused.
pub const QUERY_FLAGS: &str = "sql scene catalog models";

/// `svqact query` — run a SQL statement online (against a scene) or
/// offline (against a catalog).
pub fn query(flags: &Flags) -> CliResult {
    let sql = flags.require("sql")?;
    let stmt = svq_query::parse(sql)?;
    let plan = LogicalPlan::from_statement(&stmt)?;
    match plan.mode {
        QueryMode::Online => {
            let video = load_scene(
                flags
                    .require("scene")
                    .map_err(|_| "online statements need --scene (no ORDER BY RANK … LIMIT)")?,
            )?;
            let suite = suite_named(flags.get("models").unwrap_or("accurate"))?;
            let oracle = video.oracle(suite);
            let mut stream = VideoStream::new(&oracle);
            let outcome = svq_query::execute_online(&plan, &mut stream, OnlineConfig::default())?;
            let (sequences, cost) = outcome.online().expect("online plan yields online results");
            println!("{} result sequences:", sequences.len());
            let geometry = video.truth.geometry;
            for s in sequences {
                let t0 = s.start.raw() * geometry.frames_per_clip() as u64 / geometry.fps as u64;
                println!("  clips {:>5}..{:<5} (+{t0}s)", s.start.raw(), s.end.raw());
            }
            println!(
                "simulated inference: {:.1}s; algorithm: {:.1}ms; wall: {:.1}ms",
                cost.inference_ms() / 1e3,
                cost.algorithm_ms,
                outcome.wall_ms
            );
        }
        QueryMode::Offline { k } => {
            let catalog = IngestedVideo::load(
                flags
                    .require("catalog")
                    .map_err(|_| "offline statements (ORDER BY RANK … LIMIT) need --catalog")?,
            )?;
            // The executor materialises exact scores so ranks are
            // user-meaningful.
            let outcome = svq_query::execute_offline(&plan, &catalog, &PaperScoring)?;
            let result = outcome
                .offline()
                .expect("offline plan yields offline results");
            println!(
                "top-{k} of {} sequences ({} random accesses, {:.1}ms):",
                result.total_sequences, outcome.disk.random_accesses, outcome.wall_ms
            );
            for (i, r) in result.ranked.iter().enumerate() {
                println!(
                    "  #{:<2} clips {:>5}..{:<5} score {:>10.1}",
                    i + 1,
                    r.interval.start.raw(),
                    r.interval.end.raw(),
                    r.exact.unwrap_or(r.lower)
                );
            }
        }
    }
    Ok(())
}

/// The flags `svqact mux` reads; any other is refused.
pub const MUX_FLAGS: &str = "sql streams workers minutes seed models action objects metrics-every";

/// `svqact mux` — run Q online statements over K synthetic streams
/// concurrently. Each (statement, stream) pair is one worker-pool job
/// running [`svq_query::execute_online`], the path a served `stream`
/// request takes, under a metrics session line while it runs.
pub fn mux(flags: &Flags) -> CliResult {
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Arc};
    use svq_exec::{ExecMetrics, WorkerPool};
    use svq_query::{execute_online, QueryResults};

    let streams: u64 = flags.get_parsed("streams", 4)?;
    let workers: usize = flags.get_parsed("workers", 4)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let geometry = VideoGeometry::default();
    let frames = footage_frames(flags.get_parsed("minutes", 2.0)?, geometry)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let metrics_every = metrics_interval(flags)?;
    let suite = suite_named(flags.get("models").unwrap_or("accurate"))?;

    // One or more online statements, semicolon-separated.
    let mut plans = Vec::new();
    for stmt in flags.require("sql")?.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        let plan = LogicalPlan::from_statement(&svq_query::parse(stmt)?)?;
        if !matches!(plan.mode, QueryMode::Online) {
            return Err("mux runs online statements only (no ORDER BY RANK … LIMIT)".into());
        }
        plans.push(Arc::new(plan));
    }
    if plans.is_empty() {
        return Err("--sql holds no statement".into());
    }

    // K synthetic surveillance streams. The scene's action/objects default
    // to a car-jumping scenario; override like `svqact synth`.
    let action = ActionClass::lookup(flags.get("action").unwrap_or("jumping"))
        .ok_or("unknown action label (try `svqact labels actions`)")?;
    let objects: Vec<ObjectSpec> = flags
        .get("objects")
        .unwrap_or("car")
        .split(',')
        .map(|o| {
            ObjectClass::lookup(o.trim())
                .map(ObjectSpec::scene)
                .ok_or_else(|| format!("unknown object label {o:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let oracles: Vec<Arc<_>> = (0..streams)
        .map(|i| {
            let spec = ScenarioSpec::activitynet(
                VideoId::new(i),
                frames,
                action,
                objects.clone(),
                seed + i,
            );
            Arc::new(spec.generate().oracle(suite))
        })
        .collect();

    // K × Q jobs over one pool; each reports its slot's outcome.
    let started = std::time::Instant::now();
    let metrics = ExecMetrics::new();
    let labels: Vec<String> = (0..oracles.len())
        .flat_map(|i| (0..plans.len()).map(move |j| format!("q{j}/v{i}")))
        .collect();
    let pool = WorkerPool::new(workers, labels.len(), metrics.clone());
    // Progress to stderr so stdout stays the final report.
    let reporter =
        metrics_every.map(|every| metrics.spawn_reporter(every, |snap| eprint!("{snap}")));
    let (tx, rx) = mpsc::channel();
    for (slot, label) in labels.iter().enumerate() {
        let (oracle, plan) = (
            oracles[slot / plans.len()].clone(),
            plans[slot % plans.len()].clone(),
        );
        let (tx, metrics, label) = (tx.clone(), metrics.clone(), label.clone());
        pool.submit(Box::new(move || {
            let session = metrics.register_session(label);
            let outcome = execute_online(
                &plan,
                &mut VideoStream::new(&oracle),
                OnlineConfig::default(),
            );
            if outcome.is_ok() {
                session
                    .clips_processed
                    .fetch_add(oracle.clip_count(), Ordering::Relaxed);
            }
            metrics.retire_session(&session);
            let _ = tx.send((slot, outcome));
        }));
    }
    drop(tx);
    // A panicking job drops its sender unsent, so its slot stays empty.
    let mut outcomes: Vec<Option<_>> = labels.iter().map(|_| None).collect();
    for (slot, outcome) in rx {
        outcomes[slot] = Some(outcome);
    }
    pool.shutdown();
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    let mut total_sequences = 0usize;
    let mut inference_ms = 0.0;
    for (label, outcome) in labels.iter().zip(outcomes) {
        match outcome {
            Some(Ok(outcome)) => {
                if let QueryResults::Online { sequences, cost } = outcome.results {
                    total_sequences += sequences.len();
                    inference_ms += cost.inference_ms();
                }
            }
            Some(Err(e)) => eprintln!("{label} failed: {e}"),
            None => eprintln!("{label} failed: its job panicked"),
        }
    }
    print!("{}", metrics.snapshot());
    println!(
        "{} jobs ({streams} streams x {} queries): {total_sequences} result \
         sequences, {:.1}s simulated inference, {:.2}s wall clock",
        labels.len(),
        plans.len(),
        inference_ms / 1e3,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Read the seven front-door flags `serve` and `route` share into either
/// config builder (both spell the setters alike).
macro_rules! serving_flags {
    ($builder:expr, $flags:expr) => {{
        let flags: &Flags = $flags;
        let ms = |key, default: u64| {
            flags
                .get_parsed(key, default)
                .map(std::time::Duration::from_millis)
        };
        $builder
            .addr(flags.get("addr").unwrap_or("127.0.0.1:0").to_string())
            .max_conns(flags.get_parsed("max-conns", 64)?)
            .read_timeout(ms("read-timeout-ms", 30_000)?)
            .write_timeout(ms("write-timeout-ms", 10_000)?)
            .drain_timeout(ms("drain-timeout-ms", 5_000)?)
            .max_line(flags.get_parsed("max-line", svq_serve::MAX_LINE_BYTES)?)
            .pipeline_depth(flags.get_parsed("pipeline-depth", 64)?)
    }};
}

/// The flags `svqact serve` reads; any other is refused.
pub const SERVE_FLAGS: &str = "catalog scene scenes models source addr addr-file max-conns \
    read-timeout-ms write-timeout-ms drain-timeout-ms max-line workers pipeline-depth \
    catalog-cache shard-index shard-count metrics-every";

/// `svqact serve` — run the TCP query service until a wire `shutdown`.
///
/// Serves offline `query` requests from `--catalog` (a single catalog file
/// or an ingested directory, loaded lazily) and online `stream` requests
/// from `--scene`/`--scenes` synthetic scenes; `stats` and `shutdown`
/// always work. The bound address (which resolves a `:0` ephemeral port)
/// goes to stderr — and, with `--addr-file`, to a file scripts can poll —
/// so stdout stays the final report.
pub fn serve(flags: &Flags) -> CliResult {
    use std::sync::Arc;
    use svq_exec::ExecMetrics;
    use svq_serve::{ServeConfig, Server};
    use svq_storage::VideoRepository;

    let metrics_every = metrics_interval(flags)?;
    let config = serving_flags!(ServeConfig::builder(), flags)
        .workers(flags.get_parsed("workers", 2)?)
        .build()
        .map_err(flag_named)?;
    // This process's slice of a hash-partitioned catalog: only the videos
    // with `shard_index(v, shard_count) == shard_index`.
    let shard_index: usize = flags.get_parsed("shard-index", 0)?;
    let shard_count: usize = flags.get_parsed("shard-count", 1)?;
    if shard_count == 0 {
        return Err("--shard-count must be at least 1".into());
    }
    if shard_index >= shard_count {
        return Err(format!(
            "--shard-index must be below --shard-count, got {shard_index}/{shard_count}"
        )
        .into());
    }
    // 0 slots leaves the catalog cache unbounded.
    let catalog_cache: usize = flags.get_parsed("catalog-cache", 0)?;
    let suite = suite_named(flags.get("models").unwrap_or("accurate"))?;
    let repo = flags
        .get("catalog")
        .map(VideoRepository::open_path)
        .transpose()?
        .map(|repo| {
            let mut repo = repo.with_cache_capacity(catalog_cache);
            if shard_count > 1 {
                repo.retain_videos(|v| svq_exec::shard_index(v, shard_count) == shard_index);
            }
            Arc::new(repo)
        });
    let oracles = scene_paths(flags)
        .unwrap_or_default()
        .iter()
        .map(|p| load_scene(p).map(|v| Arc::new(v.oracle(suite))))
        .collect::<Result<Vec<_>, _>>()?;
    // A paced live source for standing `subscribe` queries (see
    // DESIGN.md); a server may run on a source alone.
    let source = flags
        .get("source")
        .map(svq_serve::LiveSourceConfig::parse)
        .transpose()
        .map_err(|e| e.to_string())?;
    let source_note = source
        .as_ref()
        .map(|s| format!(", live source video {} at {} clips/s", s.video, s.rate))
        .unwrap_or_default();
    if repo.is_none() && oracles.is_empty() && source.is_none() {
        return Err(
            "serve needs --catalog (offline queries), --scene/--scenes (live \
                    streams), and/or --source (standing queries)"
                .into(),
        );
    }
    // The shard slice covers live streams too: a scene fed to every member
    // of a cluster is retained only by the video's hash owner, so the
    // cluster-wide inventory (which sole-video resolution consults) counts
    // each stream once.
    let oracles: Vec<_> = if shard_count > 1 {
        oracles
            .into_iter()
            .filter(|o| svq_exec::shard_index(o.truth().video, shard_count) == shard_index)
            .collect()
    } else {
        oracles
    };
    let catalog_videos = repo.as_ref().map_or(0, |r| r.len());
    let streams = oracles.len();
    let served_repo = repo.clone();

    let handle = Server::start_with_source(config, repo, oracles, source, ExecMetrics::new())?;
    let addr = handle.local_addr();
    eprintln!(
        "svqact serve: listening on {addr} ({catalog_videos} catalog videos, \
         {streams} live streams{source_note}); send a `shutdown` request to drain"
    );
    // The registry leaves catalog residency to the repository that counts
    // it; fill it in so the report shows catalog hits and misses.
    serve_until_drained(flags, &handle, metrics_every, move |snap| {
        if let Some(repo) = &served_repo {
            let cache = repo.cache_stats();
            snap.server.catalog_hits = cache.hits;
            snap.server.catalog_misses = cache.misses;
        }
    })
}

/// The tail `serve` and `route` share once listening: publish the bound
/// address to `--addr-file`, report metrics every `metrics_every` (after
/// `fill` completes each snapshot), wait for the drain, and print the
/// served/drain report.
fn serve_until_drained(
    flags: &Flags,
    handle: &svq_serve::ServerHandle,
    metrics_every: Option<std::time::Duration>,
    fill: impl Fn(&mut svq_exec::MetricsSnapshot) + Send + 'static,
) -> CliResult {
    if let Some(path) = flags.get("addr-file") {
        std::fs::write(path, handle.local_addr().to_string())?;
    }
    let reporter = metrics_every.map(|every| {
        handle.metrics().spawn_reporter(every, move |mut snap| {
            fill(&mut snap);
            eprint!("{snap}");
        })
    });
    let report = handle.wait();
    if let Some(reporter) = reporter {
        reporter.stop();
    }
    println!(
        "served {} requests over {} connections ({} busy, {} draining, \
         {} timed out, {} malformed)",
        report.requests,
        report.accepted,
        report.rejected_busy,
        report.rejected_draining,
        report.timed_out,
        report.malformed
    );
    println!(
        "drain: {} (force-closed {})",
        if report.drained_in_deadline {
            "clean within deadline"
        } else {
            "deadline expired"
        },
        report.forced_closes
    );
    Ok(())
}

/// The flags `svqact route` reads; any other is refused.
pub const ROUTE_FLAGS: &str = "shards addr addr-file max-conns read-timeout-ms write-timeout-ms \
    drain-timeout-ms max-line pipeline-depth upstream-timeout-ms connect-attempts metrics-every";

/// `svqact route` — run the cluster front door until a wire `shutdown`.
///
/// `--shards` lists the shard servers in placement order: the shard at
/// index `i` must serve the catalog slice started with
/// `--shard-index i --shard-count N`, because the router picks the owner
/// of video `v` with the same `shard_index(v, N)` hash. Offline
/// `query` frames without a `video` scatter to every shard and merge; a
/// shard that stays unreachable past `--connect-attempts` dials answers
/// as a typed `shard_unavailable` error, never a hang.
pub fn route(flags: &Flags) -> CliResult {
    use std::time::Duration;
    use svq_exec::ExecMetrics;
    use svq_serve::{RouteConfig, Router};

    let metrics_every = metrics_interval(flags)?;
    let shards: Vec<String> = flags
        .require("shards")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT entry".into());
    }
    let config = serving_flags!(RouteConfig::builder(), flags)
        .upstream_timeout(Duration::from_millis(
            flags.get_parsed("upstream-timeout-ms", 30_000u64)?,
        ))
        .connect_attempts(flags.get_parsed("connect-attempts", 5)?)
        .build()
        .map_err(flag_named)?;

    let handle = Router::start(config, &shards, ExecMetrics::new())?;
    let addr = handle.local_addr();
    eprintln!(
        "svqact route: listening on {addr}, fanning out to {} shard(s); \
         send a `shutdown` request to drain",
        shards.len()
    );
    serve_until_drained(flags, &handle, metrics_every, |_| {})
}

/// The flags `svqact request` reads; any other is refused.
pub const REQUEST_FLAGS: &str = "addr kind sql video repeat retries retry-backoff-ms timeout-ms";

/// `svqact request` — request/response exchanges against a running
/// `svqact serve`. Response frames are printed to stdout verbatim (one
/// JSON line each); an error frame additionally fails the process so
/// scripts can branch on the exit code.
///
/// `--repeat N` pipelines N copies of the request over one connection
/// using protocol v2 ids 0..N; responses are printed in completion order
/// with their ids, so the output doubles as a visible record of
/// out-of-order completion.
pub fn request(flags: &Flags) -> CliResult {
    use std::time::Duration;
    use svq_serve::{
        encode_line, encode_response_line, Client, Request, Response, RetryPolicy, VideoScope,
    };

    let addr = flags.require("addr")?;
    let timeout_ms: u64 = flags.get_parsed("timeout-ms", 30_000)?;
    let repeat: u64 = flags.get_parsed("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    // Bounded re-issues when a routed shard is down (`shard_unavailable`);
    // off by default because only the operator knows the request is safe
    // to repeat.
    let retries: u32 = flags.get_parsed("retries", 0)?;
    let retry_backoff_ms: u64 = flags.get_parsed("retry-backoff-ms", 100)?;
    let policy = RetryPolicy::new(retries, Duration::from_millis(retry_backoff_ms));
    // `--video all` is meaningful only for offline queries (cross-catalog
    // top-k); streams always target one live scene.
    let video = flags.get("video");
    let parse_video = |v: &str| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("--video has invalid value {v:?}"))
    };
    let request = match flags.get("kind").unwrap_or("query") {
        "query" => Request::Query {
            sql: flags.require("sql")?.to_string(),
            video: match video {
                None => VideoScope::Sole,
                Some("all") => VideoScope::All,
                Some(v) => VideoScope::One(parse_video(v)?),
            },
        },
        "stream" => Request::Stream {
            sql: flags.require("sql")?.to_string(),
            video: match video {
                None => None,
                Some("all") => {
                    return Err("--video all only applies to --kind query".into());
                }
                Some(v) => Some(parse_video(v)?),
            },
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(
                format!("unknown request kind {other:?} (query|stream|stats|shutdown)").into(),
            )
        }
    };
    let client = Client::connect_with_timeout(addr, Duration::from_millis(timeout_ms))?;
    if repeat == 1 && retries == 0 {
        let mut client = client;
        let response = client.request(&request)?;
        print!("{}", encode_line(&response));
        if let Response::Error { reason, message } = &response {
            return Err(format!("server refused ({reason}): {message}").into());
        }
        return Ok(());
    }
    let caller = client.into_caller()?;
    if retries > 0 {
        // Retrying mode is sequential: each exchange settles (retried under
        // the policy as needed) before the next goes out.
        let mut refusals = 0u64;
        for _ in 0..repeat {
            let response = caller.call_retrying(&request, policy)?;
            print!("{}", encode_line(&response));
            if matches!(response, Response::Error { .. }) {
                refusals += 1;
            }
        }
        if refusals > 0 {
            return Err(format!(
                "server refused {refusals} of {repeat} request(s) after {retries} retr(y/ies)"
            )
            .into());
        }
        return Ok(());
    }
    // Pipelined mode rides the typed `Caller`: every request goes out
    // before the first wait, ids are allocated by the handle and responses
    // matched out of order. Printing waits on each handle in turn, so lines
    // come out in submission order, each tagged with its id.
    let mut pending = Vec::with_capacity(repeat as usize);
    for _ in 0..repeat {
        pending.push(caller.call(&request)?);
    }
    let mut refusals = 0u64;
    for handle in pending {
        let id = handle.id();
        let response = handle.wait()?;
        print!("{}", encode_response_line(&response, Some(id)));
        if matches!(response, Response::Error { .. }) {
            refusals += 1;
        }
    }
    if refusals > 0 {
        return Err(format!("server refused {refusals} of {repeat} pipelined requests").into());
    }
    Ok(())
}

/// The flags `svqact subscribe` reads; any other is refused.
pub const SUBSCRIBE_FLAGS: &str = "addr sql video drift-every events timeout-ms";

/// `svqact subscribe` — open a standing query against a `serve --source`
/// server and stream its pushed frames.
///
/// Each pushed frame (`event`, `drift`, `lagged`, and the terminal
/// `unsubscribed`) is printed to stdout as one JSON line, in arrival
/// order. The stream ends when the source is exhausted, or — with
/// `--events N` — after N events, when an explicit `unsubscribe` is sent
/// and the tail drained through the terminal accounting frame.
pub fn subscribe(flags: &Flags) -> CliResult {
    use std::time::Duration;
    use svq_serve::{encode_line, Caller, Response};

    let addr = flags.require("addr")?;
    let sql = flags.require("sql")?;
    let timeout_ms: u64 = flags.get_parsed("timeout-ms", 120_000)?;
    let video: Option<u64> = flags.get("video").map(str::parse).transpose()?;
    let drift_every: u64 = flags.get_parsed("drift-every", 0)?;
    let events: u64 = flags.get_parsed("events", 0)?;

    let caller = Caller::connect(addr, Duration::from_millis(timeout_ms))?;
    let sub = caller.subscribe(sql, video, drift_every)?;
    eprintln!(
        "svqact subscribe: subscription {} open from seq {}",
        sub.sub(),
        sub.from_seq()
    );
    let mut seen = 0u64;
    let mut asked_close = false;
    while let Some(frame) = sub.next()? {
        let terminal = matches!(frame, Response::Unsubscribed { .. });
        if matches!(frame, Response::Event { .. }) {
            seen += 1;
        }
        print!("{}", encode_line(&frame));
        if terminal {
            break;
        }
        if events > 0 && seen >= events && !asked_close {
            // The ack duplicates the terminal frame already headed for the
            // push mailbox; the loop above prints that copy.
            let _ = sub.unsubscribe()?;
            asked_close = true;
        }
    }
    Ok(())
}

/// The flags `svqact explain` reads; any other is refused.
pub const EXPLAIN_FLAGS: &str = "sql";

/// `svqact explain` — print the logical plan.
pub fn explain(flags: &Flags) -> CliResult {
    let stmt = svq_query::parse(flags.require("sql")?)?;
    let plan = LogicalPlan::from_statement(&stmt)?;
    print!("{}", plan.explain());
    Ok(())
}

/// The flags `svqact sim` reads; any other is refused.
pub const SIM_FLAGS: &str = "scenario seed size faults trace schedules corpus";

/// `svqact sim` — run deterministic simulation schedules.
///
/// Three modes:
/// * `--scenario NAME --seed S` replays exactly one schedule (add
///   `--trace true` to print the full event trace; two runs of the same
///   spec print byte-identical output).
/// * `--schedules K` sweeps K seeds (over one `--scenario` or all of
///   them), shrinking any failure and printing its one-line repro.
/// * `--corpus true` replays every committed corpus schedule.
pub fn sim(flags: &Flags) -> CliResult {
    use svq_sim::{
        find, persist_trace, run_corpus_line, run_one, shrink, sweep_persisting, FaultPlan,
        RunSpec, CORPUS, SCENARIOS,
    };

    // Failing schedules persist their shrunk event trace here; the repro
    // line printed alongside names the file.
    let trace_dir = std::path::Path::new("results/sim-traces");

    let known = || {
        SCENARIOS
            .iter()
            .map(|s| s.name)
            .collect::<Vec<_>>()
            .join(", ")
    };

    if flags.get_parsed("corpus", false)? {
        let mut replayed = 0u64;
        let mut failed = 0u64;
        for line in CORPUS.lines() {
            let Some((spec, outcome)) = run_corpus_line(line)? else {
                continue;
            };
            replayed += 1;
            match &outcome.failure {
                None => println!("ok   {}", line.trim()),
                Some(f) => {
                    failed += 1;
                    println!("FAIL {} ({f})", line.trim());
                    println!("     repro: {}", spec.repro_line());
                }
            }
        }
        println!("corpus: {replayed} schedules replayed, {failed} failed");
        if failed > 0 {
            return Err("corpus schedules failed".into());
        }
        return Ok(());
    }

    let faults = FaultPlan::parse(flags.get("faults").unwrap_or("none"))?;
    let schedules: u64 = flags.get_parsed("schedules", 0)?;
    if schedules > 0 {
        let list: Vec<&svq_sim::Scenario> = match flags.get("scenario") {
            None | Some("all") => SCENARIOS.iter().collect(),
            Some(name) => vec![find(name)
                .ok_or_else(|| format!("unknown scenario {name:?} (known: {})", known()))?],
        };
        let base_seed: u64 = flags.get_parsed("seed", 0xBA5E)?;
        let mut failures = 0usize;
        for scenario in list {
            let size: u64 = flags.get_parsed("size", scenario.default_size)?;
            let report = sweep_persisting(
                scenario,
                base_seed,
                schedules,
                size,
                faults,
                3,
                Some(trace_dir),
            );
            println!(
                "{}: {} schedules, {} steps, {:.3}s virtual time, {} failure(s)",
                scenario.name,
                report.schedules,
                report.steps,
                report.virtual_nanos as f64 / 1e9,
                report.failures.len()
            );
            for failure in &report.failures {
                println!("  FAIL: {}", failure.detail);
                match &failure.trace {
                    Some(path) => {
                        println!("  repro: {}  # trace: {}", failure.repro, path.display())
                    }
                    None => println!("  repro: {}", failure.repro),
                }
            }
            failures += report.failures.len();
        }
        if failures > 0 {
            return Err(format!("{failures} failing schedule(s); repro lines above").into());
        }
        return Ok(());
    }

    let name = flags
        .get("scenario")
        .ok_or("sim needs --scenario NAME (plus --seed), --schedules K, or --corpus true")?;
    let scenario =
        find(name).ok_or_else(|| format!("unknown scenario {name:?} (known: {})", known()))?;
    let spec = RunSpec {
        scenario,
        seed: flags.get_parsed("seed", 1)?,
        size: flags.get_parsed("size", scenario.default_size)?,
        faults,
        keep_trace: true,
    };
    let outcome = run_one(&spec);
    if flags.get_parsed("trace", false)? {
        print!("{}", outcome.render_trace());
    }
    println!(
        "scenario={} seed={} size={} faults={} steps={} virtual_ns={} trace_hash={:016x}",
        scenario.name,
        spec.seed,
        spec.size,
        spec.faults.label(),
        outcome.steps,
        outcome.virtual_nanos,
        outcome.trace_hash
    );
    match outcome.failure {
        None => {
            println!("result: ok");
            Ok(())
        }
        Some(f) => {
            println!("result: FAIL ({f})");
            let (shrunk, _) = shrink(&spec);
            match persist_trace(&shrunk, trace_dir) {
                Ok(path) => println!(
                    "repro: {}  # trace: {}",
                    shrunk.repro_line(),
                    path.display()
                ),
                Err(_) => println!("repro: {}", shrunk.repro_line()),
            }
            Err("schedule failed; repro line above".into())
        }
    }
}

/// `svqact labels` — list the model vocabularies.
pub fn labels(rest: &[String]) -> CliResult {
    match rest.first().map(String::as_str) {
        Some("objects") => {
            for name in ObjectClass::names() {
                println!("{name}");
            }
        }
        Some("actions") => {
            for name in ActionClass::names() {
                println!("{name}");
            }
        }
        _ => return Err("usage: svqact labels objects|actions".into()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(known: &'static str, pairs: &[(&str, &str)]) -> Flags {
        let argv: Vec<String> = pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect();
        Flags::parse(&argv, known).unwrap()
    }

    #[test]
    fn synth_ingest_query_round_trip() {
        let dir = std::env::temp_dir().join(format!("svqact_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scene = dir.join("scene.json");
        let catalog = dir.join("catalog.svqc");

        synth(&flags(
            SYNTH_FLAGS,
            &[
                ("minutes", "2"),
                ("action", "archery"),
                ("objects", "person"),
                ("seed", "5"),
                ("out", scene.to_str().unwrap()),
            ],
        ))
        .expect("synth");
        assert!(scene.exists());

        ingest(&flags(
            INGEST_FLAGS,
            &[
                ("scene", scene.to_str().unwrap()),
                ("models", "ideal"),
                ("out", catalog.to_str().unwrap()),
            ],
        ))
        .expect("ingest");
        assert!(catalog.exists());

        // Offline statement against the catalog.
        query(&flags(
            QUERY_FLAGS,
            &[
                ("catalog", catalog.to_str().unwrap()),
                (
                    "sql",
                    "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='archery' AND obj.include('person') \
                 ORDER BY RANK(act,obj) LIMIT 2",
                ),
            ],
        ))
        .expect("offline query");

        // Online statement against the scene.
        query(&flags(
            QUERY_FLAGS,
            &[
                ("scene", scene.to_str().unwrap()),
                (
                    "sql",
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='archery' AND obj.include('person')",
                ),
            ],
        ))
        .expect("online query");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_ingest_spill_and_mem_dirs_match() {
        let dir =
            std::env::temp_dir().join(format!("svqact_cli_spill_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut scenes = Vec::new();
        for i in 0..3 {
            let scene = dir.join(format!("scene{i}.json"));
            synth(&flags(
                SYNTH_FLAGS,
                &[
                    ("minutes", "0.5"),
                    ("action", "archery"),
                    ("objects", "person"),
                    ("seed", &format!("{}", 20 + i)),
                    ("out", scene.to_str().unwrap()),
                ],
            ))
            .expect("synth");
            scenes.push(scene.to_str().unwrap().to_string());
        }
        let scenes = scenes.join(",");
        let spill = dir.join("spill");
        let mem = dir.join("mem");
        for (sink, out) in [("spill", &spill), ("mem", &mem)] {
            ingest(&flags(
                INGEST_FLAGS,
                &[
                    ("scenes", &scenes),
                    ("models", "ideal"),
                    ("workers", "2"),
                    ("sink", sink),
                    ("out", out.to_str().unwrap()),
                ],
            ))
            .expect(sink);
        }
        // Both sinks spell the same bytes onto disk.
        for name in [
            "manifest.json",
            "video-20.svqc",
            "video-21.svqc",
            "video-22.svqc",
        ] {
            let a = std::fs::read(spill.join(name)).expect(name);
            let b = std::fs::read(mem.join(name)).expect(name);
            assert_eq!(a, b, "{name} differs between sinks");
        }
        assert!(
            svq_storage::VideoRepository::open_dir(&spill)
                .unwrap()
                .len()
                == 3
        );
        // Degenerate worker counts are rejected up front.
        let err = ingest(&flags(
            INGEST_FLAGS,
            &[
                ("scenes", &scenes),
                ("workers", "0"),
                ("out", spill.to_str().unwrap()),
            ],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("workers"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mux_runs_multiple_streams() {
        // A sub-interval --metrics-every exercises reporter start/stop even
        // when the run finishes before the first periodic snapshot fires.
        mux(&flags(
            MUX_FLAGS,
            &[
                ("streams", "2"),
                ("workers", "2"),
                ("minutes", "0.5"),
                ("metrics-every", "0.01"),
                (
                    "sql",
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='jumping' AND obj.include('car')",
                ),
            ],
        ))
        .expect("mux");
        // A pool needs a worker: zero is refused, naming the flag.
        let err = mux(&flags(
            MUX_FLAGS,
            &[
                ("workers", "0"),
                (
                    "sql",
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='jumping' AND obj.include('car')",
                ),
            ],
        ))
        .unwrap_err();
        assert_eq!(err.to_string(), "--workers must be at least 1");
        // The former multiplexer knobs are unknown flags now.
        for gone in ["shards", "pacing", "mailbox", "policy"] {
            let argv = [format!("--{gone}"), "1".to_string()];
            assert!(Flags::parse(&argv, MUX_FLAGS).is_err(), "--{gone}");
        }
        // Negative interval is rejected up front.
        let err = mux(&flags(
            MUX_FLAGS,
            &[
                ("metrics-every", "-1"),
                (
                    "sql",
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='jumping' AND obj.include('car')",
                ),
            ],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("metrics-every"));
        // Offline statements are rejected with a pointer to the right mode.
        let err = mux(&flags(
            MUX_FLAGS,
            &[(
                "sql",
                "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('car') \
             ORDER BY RANK(act,obj) LIMIT 2",
            )],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("online"), "{err}");
    }

    #[test]
    fn serve_and_request_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("svqact_cli_serve_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let scene = dir.join("scene.json");
        let catalog = dir.join("catalog.svqc");
        synth(&flags(
            SYNTH_FLAGS,
            &[
                ("minutes", "0.5"),
                ("action", "archery"),
                ("objects", "person"),
                ("seed", "5"),
                ("out", scene.to_str().unwrap()),
            ],
        ))
        .expect("synth");
        ingest(&flags(
            INGEST_FLAGS,
            &[
                ("scene", scene.to_str().unwrap()),
                ("models", "ideal"),
                ("out", catalog.to_str().unwrap()),
            ],
        ))
        .expect("ingest");

        // The server blocks until a wire shutdown, so it runs on its own
        // thread and publishes its ephemeral port through --addr-file.
        let addr_file = dir.join("addr");
        let serve_flags = flags(
            SERVE_FLAGS,
            &[
                ("catalog", catalog.to_str().unwrap()),
                ("scene", scene.to_str().unwrap()),
                ("models", "ideal"),
                ("addr-file", addr_file.to_str().unwrap()),
                ("drain-timeout-ms", "10000"),
                ("pipeline-depth", "8"),
                ("catalog-cache", "1"),
            ],
        );
        let server = std::thread::spawn(move || serve(&serve_flags).map_err(|e| e.to_string()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(&addr_file) {
                Ok(s) if !s.is_empty() => break s,
                _ if std::time::Instant::now() > deadline => panic!("server never bound"),
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };

        // One exchange of every kind; video is inferred (one of each served).
        request(&flags(REQUEST_FLAGS, &[("addr", &addr), ("kind", "stats")])).expect("stats");
        request(&flags(
            REQUEST_FLAGS,
            &[
                ("addr", &addr),
                ("kind", "query"),
                (
                    "sql",
                    "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='archery' AND obj.include('person') \
                 ORDER BY RANK(act,obj) LIMIT 2",
                ),
            ],
        ))
        .expect("offline query over the wire");
        request(&flags(
            REQUEST_FLAGS,
            &[
                ("addr", &addr),
                ("kind", "stream"),
                (
                    "sql",
                    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='archery' AND obj.include('person')",
                ),
            ],
        ))
        .expect("online stream over the wire");

        // Pipelined repeats over one connection (protocol v2 ids).
        request(&flags(
            REQUEST_FLAGS,
            &[
                ("addr", &addr),
                ("kind", "query"),
                ("repeat", "3"),
                (
                    "sql",
                    "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
                 WHERE act='archery' AND obj.include('person') \
                 ORDER BY RANK(act,obj) LIMIT 2",
                ),
            ],
        ))
        .expect("pipelined queries over the wire");

        // An error frame also fails the process so scripts can branch.
        let err = request(&flags(
            REQUEST_FLAGS,
            &[
                ("addr", &addr),
                ("kind", "query"),
                ("sql", "SELECT nonsense"),
            ],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("server refused"), "{err}");
        let err = request(&flags(REQUEST_FLAGS, &[("addr", &addr), ("kind", "warp")])).unwrap_err();
        assert!(err.to_string().contains("unknown request kind"), "{err}");

        // A wire shutdown drains the server and unblocks `serve`.
        request(&flags(
            REQUEST_FLAGS,
            &[("addr", &addr), ("kind", "shutdown")],
        ))
        .expect("shutdown");
        server
            .join()
            .expect("serve thread")
            .expect("serve exits clean");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_degenerate_flags() {
        let err = serve(&flags(SERVE_FLAGS, &[])).unwrap_err();
        assert!(err.to_string().contains("--catalog"), "{err}");
        let err = serve(&flags(SERVE_FLAGS, &[("metrics-every", "-1")])).unwrap_err();
        assert!(err.to_string().contains("metrics-every"), "{err}");
        let err = serve(&flags(SERVE_FLAGS, &[("pipeline-depth", "0")])).unwrap_err();
        assert!(err.to_string().contains("pipeline-depth"), "{err}");
        let err = serve(&flags(SERVE_FLAGS, &[("shard-count", "0")])).unwrap_err();
        assert!(err.to_string().contains("--shard-count"), "{err}");
        let err = serve(&flags(
            SERVE_FLAGS,
            &[("shard-index", "2"), ("shard-count", "2")],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--shard-index"), "{err}");
        let err = request(&flags(
            REQUEST_FLAGS,
            &[("addr", "127.0.0.1:1"), ("repeat", "0")],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("repeat"), "{err}");
    }

    #[test]
    fn helpful_errors() {
        // Unknown labels are caught at synth time.
        assert!(synth(&flags(
            SYNTH_FLAGS,
            &[("action", "not an action"), ("out", "/dev/null")]
        ))
        .is_err());
        // Mode/flag mismatches are explained.
        let err = query(&flags(
            QUERY_FLAGS,
            &[(
                "sql",
                "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='archery'",
            )],
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--scene"), "{err}");
        assert!(suite_named("nonsense").is_err());
        // A length of footage that is not positive, not finite or past a
        // frame count is refused before any scene is generated.
        let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='jumping'";
        for minutes in ["-1", "0", "NaN", "inf", "-inf", "1e300"] {
            let err = synth(&flags(
                SYNTH_FLAGS,
                &[
                    ("minutes", minutes),
                    ("action", "jumping"),
                    ("out", "/dev/null"),
                ],
            ))
            .unwrap_err();
            assert!(err.to_string().contains("--minutes"), "{minutes}: {err}");
            let err = mux(&flags(MUX_FLAGS, &[("minutes", minutes), ("sql", sql)])).unwrap_err();
            assert!(err.to_string().contains("--minutes"), "{minutes}: {err}");
        }
        // A snapshot interval that is negative, NaN, infinite or past a
        // `Duration` is refused by every command that reports, before it
        // starts anything.
        for every in ["-1", "NaN", "inf", "1e30"] {
            for err in [
                mux(&flags(MUX_FLAGS, &[("metrics-every", every), ("sql", sql)])),
                serve(&flags(SERVE_FLAGS, &[("metrics-every", every)])),
                route(&flags(
                    ROUTE_FLAGS,
                    &[("metrics-every", every), ("shards", "127.0.0.1:1")],
                )),
            ] {
                let err = err.unwrap_err();
                assert!(
                    err.to_string().contains("--metrics-every"),
                    "{every}: {err}"
                );
            }
        }
    }
}
