//! The four closed-loop request workloads — `topk_hot`, `topk_cold`,
//! `routed_burst`, `stream_online` — share one driver: build the system,
//! precompute every distinct request's in-process answer, let two
//! generator threads issue seeded requests over two connections, verify
//! every response, and (traced runs) replay the same sequence through the
//! layers' public functions.

use crate::gen::{self, Deck};
use crate::layers;
use crate::schema::{Metrics, RunResult};
use crate::sys::{self, median, percentile, ratio, Mark, Sample};
use crate::trace::{self, SpanBuf};
use crate::{Args, Res};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_exec::{parallel_ingest_into, shard_index, ExecMetrics};
use svq_query::cluster::part_of_video;
use svq_query::{
    execute_offline, execute_offline_all, execute_online, merge_cluster, parse, LogicalPlan,
    QueryMode, QueryOutcome, QueryResults,
};
use svq_serve::protocol::{
    encode_request_line, encode_response_line, parse_request_frame, ResponseFrame,
};
use svq_serve::{
    Client, Request, Response, RouteConfig, Router, ServeConfig, ServeReport, Server, ServerHandle,
    StatsFrame, VideoScope,
};
use svq_storage::{DiskStats, JsonDirSink, VideoRepository};
use svq_types::{PaperScoring, ScoringFunctions, VideoId};
use svq_vision::models::DetectionOracle;
use svq_vision::VideoStream;

/// Generator threads = connections = cores of the sizing box.
const CLIENTS: usize = 2;
/// Frames one `routed_burst` iteration keeps in flight.
const BURST: usize = 8;
/// Client-side I/O deadline: far above any healthy latency, far below the
/// driver's per-run limit, so a hang becomes a counted failure.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);
/// The catalog cache of `topk_cold`: the working set is 6x this.
const COLD_CACHE: usize = 4;
/// Spans one generator thread may hold (~40 B each).
const SPAN_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TopkHot,
    TopkCold,
    RoutedBurst,
    StreamOnline,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::TopkHot => "topk_hot",
            Kind::TopkCold => "topk_cold",
            Kind::RoutedBurst => "routed_burst",
            Kind::StreamOnline => "stream_online",
        }
    }

    /// Whether the workload's rate and latency are set by a clock rather
    /// than by how fast the box computes (see [`sys::per_slice`]).
    /// `routed_burst` spends its bursts in the kernel's ~40 ms delayed-ACK
    /// timer (ROADMAP item 2) with the cores 8 % busy; when that stall is
    /// gone this turns false.
    fn timer_bound(self) -> bool {
        self == Kind::RoutedBurst
    }
}

/// Input sizes of one workload.
struct Shape {
    videos: u64,
    frames: u64,
    /// Operations the layer replay pushes through the public functions; a
    /// count, not a time, so the *(count)* metrics repeat exactly.
    replay_ops: usize,
}

fn shape(kind: Kind, quick: bool) -> Shape {
    let (videos, frames, replay_ops) = match (kind, quick) {
        (Kind::TopkHot, false) => (4, 60_000, 300),
        (Kind::TopkCold, false) => (24, 18_000, 600),
        (Kind::RoutedBurst, false) => (8, 9_000, 2_000),
        (Kind::StreamOnline, false) => (4, 60_000, 300),
        (Kind::TopkHot, true) => (4, 6_000, 40),
        (Kind::TopkCold, true) => (8, 3_000, 40),
        (Kind::RoutedBurst, true) => (4, 3_000, 80),
        (Kind::StreamOnline, true) => (4, 6_000, 40),
    };
    Shape {
        videos,
        frames,
        replay_ops,
    }
}

/// The server configuration is a constant of the benchmark, not of the
/// machine it runs on.
pub fn serve_config() -> Res<ServeConfig> {
    ServeConfig::builder()
        .max_conns(16)
        .workers(2)
        .shards(2)
        .read_timeout(Duration::from_secs(120))
        .write_timeout(Duration::from_secs(120))
        .drain_timeout(Duration::from_secs(30))
        .build()
        .map_err(|e| e.to_string())
}

/// What set-up measured about the layers it went through.
#[derive(Default)]
struct SetupFacts {
    synth_ms_per_video: f64,
    ingest_ms_per_video: f64,
    clips_per_video: f64,
    save_ms_per_video: f64,
    spill_bytes_per_clip: f64,
    open_dir_ms: f64,
    ingest_videos_per_s: f64,
}

/// The system under test: servers, the connections into it, and what it
/// serves.
struct System {
    front: ServerHandle,
    shards: Vec<ServerHandle>,
    /// Served repositories (one, or one per shard), for cache counters.
    repos: Vec<Arc<VideoRepository>>,
    clients: Vec<Client>,
    oracles: Vec<Arc<DetectionOracle>>,
    scratch: Option<Scratch>,
    facts: SetupFacts,
}

/// A spill directory that disappears with its owner.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl System {
    fn addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Servers that execute requests (the shards behind a router, else the
    /// front server itself).
    fn backends(&self) -> Vec<&ServerHandle> {
        if self.shards.is_empty() {
            vec![&self.front]
        } else {
            self.shards.iter().collect()
        }
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn build_system(kind: Kind, shape: &Shape) -> Res<System> {
    let mut facts = SetupFacts::default();
    let started = Instant::now();
    let oracles: Vec<_> = (0..shape.videos)
        .map(|v| gen::oracle(v, shape.frames))
        .collect();
    facts.synth_ms_per_video = started.elapsed().as_secs_f64() * 1e3 / shape.videos as f64;
    facts.clips_per_video = oracles.first().map_or(0.0, |o| o.clip_count() as f64);

    let ingest_all = |facts: &mut SetupFacts, keep: &dyn Fn(u64) -> bool| {
        let started = Instant::now();
        let catalogs: Vec<_> = oracles
            .iter()
            .filter(|o| keep(o.truth().video.raw()))
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default()))
            .collect();
        facts.ingest_ms_per_video += started.elapsed().as_secs_f64() * 1e3 / shape.videos as f64;
        Arc::new(VideoRepository::from_catalogs(catalogs))
    };

    let mut scratch = None;
    let mut shards = Vec::new();
    let mut repos = Vec::new();
    let front = match kind {
        Kind::TopkHot => {
            let repo = ingest_all(&mut facts, &|_| true);
            repos.push(repo.clone());
            start_server(Some(repo), Vec::new())?
        }
        Kind::TopkCold => {
            let dir = sys::out_dir().join(format!(
                "spill-{}-{}",
                std::process::id(),
                SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
            let ingest_metrics = ExecMetrics::new();
            let sink = JsonDirSink::create(&dir).map_err(|e| e.to_string())?;
            scratch = Some(Scratch(dir.clone()));
            let started = Instant::now();
            let report = parallel_ingest_into(
                &oracles,
                scoring,
                OnlineConfig::default(),
                CLIENTS,
                ingest_metrics.clone(),
                sink,
            )
            .map_err(|e| e.to_string())?;
            let wall = started.elapsed().as_secs_f64();
            facts.ingest_videos_per_s = ratio(report.videos as f64, wall);
            facts.save_ms_per_video = ratio(
                ingest_metrics.snapshot().ingest.sink_ms,
                report.videos as f64,
            );
            facts.spill_bytes_per_clip = ratio(report.bytes_written as f64, report.clips as f64);
            let started = Instant::now();
            let repo = Arc::new(
                VideoRepository::open_dir(&dir)
                    .map_err(|e| e.to_string())?
                    .with_cache_capacity(COLD_CACHE),
            );
            facts.open_dir_ms = started.elapsed().as_secs_f64() * 1e3;
            repos.push(repo.clone());
            start_server(Some(repo), Vec::new())?
        }
        Kind::RoutedBurst => {
            for index in 0..CLIENTS {
                let repo = ingest_all(&mut facts, &|v| {
                    shard_index(VideoId::new(v), CLIENTS) == index
                });
                repos.push(repo.clone());
                shards.push(start_server(Some(repo), Vec::new())?);
            }
            let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
            let config = RouteConfig::builder()
                .max_conns(16)
                .read_timeout(Duration::from_secs(120))
                .write_timeout(Duration::from_secs(120))
                .drain_timeout(Duration::from_secs(30))
                .upstream_timeout(Duration::from_secs(120))
                .build()
                .map_err(|e| e.to_string())?;
            Router::start(config, &addrs, ExecMetrics::new()).map_err(|e| e.to_string())?
        }
        Kind::StreamOnline => start_server(None, oracles.clone())?,
    };
    let clients = (0..CLIENTS)
        .map(|_| Client::connect_with_timeout(front.local_addr(), CLIENT_TIMEOUT))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(System {
        front,
        shards,
        repos,
        clients,
        oracles,
        scratch,
        facts,
    })
}

fn start_server(
    repo: Option<Arc<VideoRepository>>,
    oracles: Vec<Arc<DetectionOracle>>,
) -> Res<ServerHandle> {
    Server::start(serve_config()?, repo, oracles, ExecMetrics::new()).map_err(|e| e.to_string())
}

/// Close the connections, drain every server and check each closing
/// report. Returns the front door's `shutdown()`→`wait()` time and one
/// message per unclean drain (each a failed operation).
fn teardown(system: System) -> (f64, Vec<String>) {
    let System {
        front,
        shards,
        clients,
        ..
    } = system;
    drop(clients);
    let mut problems = Vec::new();
    let started = Instant::now();
    front.shutdown();
    let mut reports = vec![("front", front.wait())];
    let drain_ms = started.elapsed().as_secs_f64() * 1e3;
    for shard in &shards {
        shard.shutdown();
        reports.push(("shard", shard.wait()));
    }
    for (who, report) in reports {
        problems.extend(unclean_drain(who, &report));
    }
    (drain_ms, problems)
}

/// What is wrong with a server's closing report, if anything.
pub fn unclean_drain(who: &str, report: &ServeReport) -> Option<String> {
    (!report.drained_in_deadline || report.forced_closes > 0 || report.malformed > 0).then(|| {
        format!(
            "{who} drain unclean: in_deadline={} forced_closes={} malformed={}",
            report.drained_in_deadline, report.forced_closes, report.malformed
        )
    })
}

/// What a correct response to one request looks like.
enum Expect {
    /// Canonical JSON of the in-process outcome.
    Outcome(String),
    Stats,
    /// The injected fault: whatever comes back, the operation failed.
    Refusal,
}

/// How the layer replay executes one request in-process.
#[derive(Clone, Copy)]
enum Exec {
    Offline(u64),
    OfflineAll,
    Online(u64),
    Stats,
}

struct OpSpec {
    request: Request,
    expect: Expect,
    exec: Exec,
}

/// How the generators choose the next operation(s). Weights are per
/// entry of [`Reference::ops`], in its order.
enum Traffic {
    /// One request at a time, dealt by weight (v1, id-less).
    Serial { weights: Vec<u32> },
    /// Bursts of [`BURST`] id-tagged frames: 6 targeted top-3, one
    /// `video:"all"` scatter-gather, one `stats`, in seeded order.
    Burst {
        targeted: Vec<u32>,
        scatter: Vec<u32>,
        stats: usize,
    },
}

/// The in-process side: every distinct request with its verified answer,
/// and catalog instances of its own (a catalog's access meter is shared
/// by its clones, so replaying on the served instances would leak into
/// served outcomes).
struct Reference {
    ops: Vec<OpSpec>,
    traffic: Traffic,
    repo: Option<VideoRepository>,
    /// Index of the injected-fault operation in `ops`.
    fault: usize,
}

fn canonical_json(outcome: &QueryOutcome) -> Res<String> {
    serde_json::to_string(&outcome.canonical()).map_err(|e| e.to_string())
}

fn plan_of(sql: &str) -> Res<LogicalPlan> {
    let statement = parse(sql).map_err(|e| e.to_string())?;
    LogicalPlan::from_statement(&statement).map_err(|e| e.to_string())
}

fn build_reference(kind: Kind, system: &System) -> Res<Reference> {
    let videos = system.oracles.len() as u64;
    let repo = match kind {
        Kind::StreamOnline => None,
        Kind::TopkCold => {
            let dir = system.scratch.as_ref().ok_or("topk_cold has a spill dir")?;
            Some(
                VideoRepository::open_dir(&dir.0)
                    .map_err(|e| e.to_string())?
                    .with_cache_capacity(COLD_CACHE),
            )
        }
        Kind::TopkHot | Kind::RoutedBurst => Some(VideoRepository::from_catalogs(
            system
                .oracles
                .iter()
                .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
        )),
    };
    let offline_op = |repo: &VideoRepository, video: u64, sql: String| -> Res<OpSpec> {
        let catalog = repo
            .get(VideoId::new(video))
            .map_err(|e| e.to_string())?
            .ok_or("reference catalog present")?;
        let outcome =
            execute_offline(&plan_of(&sql)?, &catalog, &PaperScoring).map_err(|e| e.to_string())?;
        Ok(OpSpec {
            request: Request::Query {
                sql,
                video: VideoScope::One(video),
            },
            expect: Expect::Outcome(canonical_json(&outcome)?),
            exec: Exec::Offline(video),
        })
    };
    let mut ops = Vec::new();
    let traffic = match kind {
        Kind::TopkHot | Kind::TopkCold => {
            let repo = repo.as_ref().ok_or("offline workloads hold a repository")?;
            let mut weights = Vec::new();
            for video in 0..videos {
                for shape in gen::OBJECT_SHAPES {
                    for k in [1, 3, 10] {
                        ops.push(offline_op(repo, video, gen::offline_sql(shape, k))?);
                        // topk_hot: video 0 draws 70% of the requests.
                        weights.push(if kind == Kind::TopkHot && video == 0 {
                            7
                        } else {
                            1
                        });
                    }
                }
            }
            Traffic::Serial { weights }
        }
        Kind::RoutedBurst => {
            let repo = repo.as_ref().ok_or("routed_burst holds a repository")?;
            for video in 0..videos {
                for shape in gen::OBJECT_SHAPES {
                    ops.push(offline_op(repo, video, gen::offline_sql(shape, 3))?);
                }
            }
            let targeted = vec![1; ops.len()];
            let mut scatter = vec![0; ops.len()];
            for shape in gen::OBJECT_SHAPES {
                let sql = gen::offline_sql(shape, 3);
                let outcome = execute_offline_all(&plan_of(&sql)?, repo, &PaperScoring)
                    .map_err(|e| e.to_string())?;
                scatter.push(1);
                ops.push(OpSpec {
                    request: Request::Query {
                        sql,
                        video: VideoScope::All,
                    },
                    expect: Expect::Outcome(canonical_json(&outcome)?),
                    exec: Exec::OfflineAll,
                });
            }
            let stats = ops.len();
            ops.push(OpSpec {
                request: Request::Stats,
                expect: Expect::Stats,
                exec: Exec::Stats,
            });
            Traffic::Burst {
                targeted,
                scatter,
                stats,
            }
        }
        Kind::StreamOnline => {
            let mut weights = Vec::new();
            for (video, oracle) in system.oracles.iter().enumerate() {
                for which in 0..3 {
                    let sql = gen::online_sql(which);
                    let mut stream = VideoStream::new(oracle);
                    let outcome =
                        execute_online(&plan_of(&sql)?, &mut stream, OnlineConfig::default())
                            .map_err(|e| e.to_string())?;
                    ops.push(OpSpec {
                        request: Request::Stream {
                            sql,
                            video: Some(video as u64),
                        },
                        expect: Expect::Outcome(canonical_json(&outcome)?),
                        exec: Exec::Online(video as u64),
                    });
                    weights.push(1);
                }
            }
            Traffic::Serial { weights }
        }
    };
    // The injected fault: a request no video answers. Never dealt by the
    // traffic (it lies beyond every weight list).
    let fault = ops.len();
    ops.push(OpSpec {
        request: match kind {
            Kind::StreamOnline => Request::Stream {
                sql: gen::online_sql(0),
                video: Some(999_999),
            },
            _ => Request::Query {
                sql: gen::offline_sql(gen::OBJECT_SHAPES[0], 1),
                video: VideoScope::One(999_999),
            },
        },
        expect: Expect::Refusal,
        exec: Exec::Stats,
    });
    Ok(Reference {
        ops,
        traffic,
        repo,
        fault,
    })
}

/// The seeded sequence of operations one generator issues.
enum OpStream {
    Serial(Deck),
    Burst {
        targeted: Deck,
        scatter: Deck,
        stats: usize,
    },
}

impl OpStream {
    fn new(traffic: &Traffic, seed: u64, stream: u64) -> Self {
        match traffic {
            Traffic::Serial { weights } => OpStream::Serial(Deck::new(seed, stream, weights)),
            Traffic::Burst {
                targeted,
                scatter,
                stats,
            } => OpStream::Burst {
                targeted: Deck::new(seed, stream, targeted),
                scatter: Deck::new(seed, stream ^ 0x5ca7, scatter),
                stats: *stats,
            },
        }
    }

    /// Fill `batch` with the next operation indices: one, or a burst.
    fn next_batch(&mut self, batch: &mut Vec<usize>) {
        batch.clear();
        match self {
            OpStream::Serial(deck) => batch.push(deck.deal()),
            OpStream::Burst {
                targeted,
                scatter,
                stats,
            } => {
                for _ in 0..BURST - 2 {
                    batch.push(targeted.deal());
                }
                batch.push(scatter.deal());
                batch.push(*stats);
                targeted.shuffle(batch);
            }
        }
    }
}

/// What one generator thread observed in one pass.
#[derive(Default)]
struct ClientTally {
    /// One sample per verified response.
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Sum and count of `QueryOutcome.wall_ms` in verified responses.
    served_wall_ms: f64,
    served: u64,
    cpu_ms: f64,
    /// The first few failure messages, for the report.
    errors: Vec<String>,
}

impl ClientTally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }

    /// Compare one response with its precomputed answer; true when it
    /// is the answer.
    fn verify(&mut self, op: &OpSpec, response: Response) -> bool {
        let wrong = match (&op.expect, response) {
            (Expect::Outcome(expected), Response::Outcome(outcome)) => {
                match canonical_json(&outcome) {
                    Ok(got) if got == *expected => {
                        self.served_wall_ms += outcome.wall_ms;
                        self.served += 1;
                        return true;
                    }
                    Ok(_) => format!(
                        "{} outcome diverged from in-process execution",
                        op.request.kind()
                    ),
                    Err(e) => e,
                }
            }
            (Expect::Stats, Response::Stats(_)) => return true,
            (Expect::Refusal, other) => format!("injected fault answered {other:?}"),
            (_, Response::Error { reason, message }) => {
                format!("typed error {reason}: {message}")
            }
            (_, other) => format!("unexpected frame {other:?}"),
        };
        self.fail(wrong);
        false
    }
}

/// What the generators of one pass share.
#[derive(Clone, Copy)]
struct PassShared<'a> {
    addr: SocketAddr,
    reference: &'a Reference,
    epoch: Instant,
    deadline: Instant,
}

/// One generator: issue batches until the deadline, time and verify each
/// response. `inject` makes the very first operation the fault.
fn client_loop(
    client: &mut Client,
    shared: PassShared<'_>,
    mut stream: OpStream,
    buf: &mut SpanBuf,
    thread: u64,
    mut inject: bool,
) -> ClientTally {
    let PassShared {
        addr,
        reference,
        epoch,
        deadline,
    } = shared;
    let cpu_start = sys::thread_cpu_ms();
    let mut tally = ClientTally::default();
    let mut batch = Vec::with_capacity(BURST);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        stream.next_batch(&mut batch);
        if std::mem::take(&mut inject) {
            batch[0] = reference.fault;
        }
        let op_id = (thread << 48) | seq;
        seq += 1;
        tally.attempted += batch.len() as u64;
        let span = buf.open("op", None, op_id);
        let sent = Instant::now();
        let exchanged = if let [only] = batch[..] {
            // v1: id-less frame, strictly ordered response.
            let op = &reference.ops[only];
            buf.within("client.send", span, op_id, || {
                client.send(&op.request, None)
            })
            .and_then(|()| buf.within("client.recv", span, op_id, || client.read_response()))
            .map(|response| {
                let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
                if buf.within("client.verify", span, op_id, || tally.verify(op, response)) {
                    let at_s = epoch.elapsed().as_secs_f64();
                    tally.samples.push(Sample { at_s, lat_ms });
                }
            })
        } else {
            // v2: the whole burst in flight, matched back by id; each
            // request's latency runs from the burst's first write.
            let written = buf.within("client.send", span, op_id, || {
                batch.iter().enumerate().try_for_each(|(i, &idx)| {
                    client.send(&reference.ops[idx].request, Some(i as u64))
                })
            });
            written.and_then(|()| {
                (0..batch.len()).try_for_each(|_| {
                    let (id, response) =
                        buf.within("client.recv", span, op_id, || client.read_tagged())?;
                    let lat_ms = sent.elapsed().as_secs_f64() * 1e3;
                    match id.and_then(|i| batch.get(i as usize)) {
                        Some(&idx) => {
                            if buf.within("client.verify", span, op_id, || {
                                tally.verify(&reference.ops[idx], response)
                            }) {
                                let at_s = epoch.elapsed().as_secs_f64();
                                tally.samples.push(Sample { at_s, lat_ms });
                            }
                        }
                        None => tally.fail(format!("response with unknown id {id:?}")),
                    }
                    Ok(())
                })
            })
        };
        buf.close(span, None);
        if let Err(e) = exchanged {
            // A transport failure loses the batch; continue on a fresh
            // connection so one hiccup does not end the run.
            tally.fail(format!("transport: {e}"));
            tally.failed += batch.len() as u64 - 1;
            match Client::connect_with_timeout(addr, CLIENT_TIMEOUT) {
                Ok(fresh) => *client = fresh,
                Err(e) => {
                    tally.fail(format!("reconnect: {e}"));
                    tally.attempted += 1;
                    break;
                }
            }
        }
    }
    tally.cpu_ms = sys::thread_cpu_ms() - cpu_start;
    tally
}

/// Highest queue depths the sampler saw.
#[derive(Default, Clone, Copy)]
struct DepthMax {
    pool_queue: u64,
    ingress: u64,
}

/// One pass of both generators.
struct Pass {
    /// Verified responses in completion order per generator.
    samples: Vec<Sample>,
    /// Their latencies, ascending.
    lat_ms: Vec<f64>,
    /// Time and process CPU at every slice boundary.
    marks: Vec<Mark>,
    attempted: u64,
    failed: u64,
    served_wall_ms: f64,
    wall_s: f64,
    cpu_ms: f64,
    client_cpu_ms: f64,
    errors: Vec<String>,
    bufs: Vec<SpanBuf>,
    depths: DepthMax,
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        ratio(self.samples.len() as f64, self.wall_s)
    }
}

struct PassPlan {
    seconds: f64,
    /// Equal parts of the pass; more than one makes it a measured pass,
    /// whose per-part metrics are scaled and quartiled (`sys::per_slice`).
    slices: usize,
    /// Distinguishes the passes of one run so each draws its own sequence.
    phase: u64,
    traced: bool,
    /// Sample the servers' queue-depth gauges every 100 ms.
    sample: bool,
    inject: bool,
}

fn drive(system: &mut System, reference: &Reference, seed: u64, plan: &PassPlan) -> Pass {
    let epoch = Instant::now();
    let shared = PassShared {
        addr: system.addr(),
        reference,
        epoch,
        deadline: epoch + Duration::from_secs_f64(plan.seconds),
    };
    let backends: Vec<ExecMetrics> = system
        .backends()
        .iter()
        .map(|s| s.metrics().clone())
        .collect();
    let mut depths = DepthMax::default();
    // This thread's own CPU (the chore passes) is not the system's. A
    // pass of one slice is a warm-up or a traced pass: not scaled.
    let mut chore = (plan.slices > 1).then(sys::Chore::new);
    let mut mark = || Mark {
        at_s: epoch.elapsed().as_secs_f64(),
        cpu_ms: sys::process_cpu_ms() - sys::thread_cpu_ms(),
        slow: chore.as_mut().map_or(1.0, |c| c.slowness()),
    };
    let mut marks = vec![mark()];
    let outcomes: Vec<(ClientTally, SpanBuf)> = std::thread::scope(|scope| {
        let handles: Vec<_> = system
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let stream = OpStream::new(&reference.traffic, seed, plan.phase * 16 + i as u64);
                let inject = plan.inject && i == 0;
                let traced = plan.traced;
                scope.spawn(move || {
                    let mut buf = if traced {
                        SpanBuf::recording(SPAN_CAP, epoch)
                    } else {
                        SpanBuf::disabled()
                    };
                    let tally = client_loop(client, shared, stream, &mut buf, i as u64, inject);
                    (tally, buf)
                })
            })
            .collect();
        // This thread only marks the slice boundaries, timing a chore
        // pass at each (and, in the traced run, polls the queue gauges
        // every 100 ms).
        let slice_s = plan.seconds / plan.slices as f64;
        while marks.len() <= plan.slices {
            let due = epoch + Duration::from_secs_f64(slice_s * marks.len() as f64);
            let mut now = Instant::now();
            while now < due {
                let nap = due - now;
                if plan.sample {
                    for metrics in &backends {
                        let snap = metrics.snapshot();
                        depths.pool_queue = depths.pool_queue.max(snap.pool_queue_depth);
                        for shard in &snap.shards {
                            depths.ingress = depths.ingress.max(shard.ingress_depth);
                        }
                    }
                    std::thread::sleep(nap.min(Duration::from_millis(100)));
                } else {
                    std::thread::sleep(nap);
                }
                now = Instant::now();
            }
            marks.push(mark());
        }
        handles.into_iter().filter_map(|h| h.join().ok()).collect()
    });
    let cpu_ms = marks.last().map_or(0.0, |m| m.cpu_ms) - marks[0].cpu_ms;
    let mut pass = Pass {
        samples: Vec::new(),
        lat_ms: Vec::new(),
        marks,
        attempted: 0,
        // A generator thread that panicked lost its tally.
        failed: (CLIENTS - outcomes.len()) as u64,
        served_wall_ms: 0.0,
        wall_s: epoch.elapsed().as_secs_f64(),
        cpu_ms,
        client_cpu_ms: 0.0,
        errors: Vec::new(),
        bufs: Vec::new(),
        depths,
    };
    pass.attempted = pass.failed;
    let mut served = 0u64;
    for (tally, buf) in outcomes {
        pass.samples.extend(tally.samples);
        pass.attempted += tally.attempted;
        pass.failed += tally.failed;
        pass.served_wall_ms += tally.served_wall_ms;
        served += tally.served;
        pass.client_cpu_ms += tally.cpu_ms;
        pass.errors.extend(tally.errors);
        pass.bufs.push(buf);
    }
    pass.served_wall_ms = ratio(pass.served_wall_ms, served as f64);
    pass.lat_ms = pass.samples.iter().map(|s| s.lat_ms).collect();
    pass.lat_ms.sort_by(|a, b| a.total_cmp(b));
    pass
}

/// Per-query counts the layer replay observed, each a mean over the
/// replayed operations of its kind.
#[derive(Default)]
struct ReplayCounts {
    offline_queries: u64,
    sorted_accesses: u64,
    random_accesses: u64,
    iterations: u64,
    online_queries: u64,
    online_clips: u64,
    sequences: u64,
    request_bytes: u64,
    response_bytes: u64,
    ops: u64,
    /// Per operation: summed duration of its server-side spans, ms.
    server_ms: Vec<f64>,
    /// Per offline/online operation: engine span duration, ms.
    engine_ms: Vec<f64>,
    mismatches: u64,
    /// FNV-1a over the replayed operation indices: the request order, which
    /// is what the seed decides (the mix is the deck's, whatever the seed).
    order_hash: u64,
}

/// Push the first `n` operations of generator 0's measured sequence
/// through the layers' public functions on this thread, one span per call.
fn replay(
    reference: &Reference,
    oracles: &[Arc<DetectionOracle>],
    seed: u64,
    phase: u64,
    n: usize,
    buf: &mut SpanBuf,
) -> Res<ReplayCounts> {
    let mut counts = ReplayCounts::default();
    let mut stream = OpStream::new(&reference.traffic, seed, phase * 16);
    let mut batch = Vec::with_capacity(BURST);
    let fetch = |buf: &mut SpanBuf, span, op_id, video: u64| {
        let repo = reference
            .repo
            .as_ref()
            .ok_or("offline replay holds a repository")?;
        let id = buf.open("storage.fetch_hit", span, op_id);
        let fetched = repo.fetch(VideoId::new(video));
        let hit = matches!(&fetched, Ok(Some((_, true))));
        buf.close(id, (!hit).then_some("storage.load"));
        fetched
            .map_err(|e| e.to_string())?
            .map(|(catalog, _)| catalog)
            .ok_or_else(|| format!("video {video} missing from the reference repository"))
    };
    while (counts.ops as usize) < n {
        stream.next_batch(&mut batch);
        for (i, &idx) in batch.iter().enumerate() {
            if counts.ops as usize >= n {
                break;
            }
            let op = &reference.ops[idx];
            let op_id = (0xffff << 48) | counts.ops;
            counts.ops += 1;
            counts.order_hash = (counts.order_hash ^ idx as u64).wrapping_mul(0x0100_0000_01b3);
            let wire_id = matches!(reference.traffic, Traffic::Burst { .. }).then_some(i as u64);
            let span = buf.open("op.replay", None, op_id);
            let line = buf.within("client.encode", span, op_id, || {
                encode_request_line(&op.request, wire_id)
            });
            counts.request_bytes += line.len() as u64;
            let server_start = Instant::now();
            let frame = buf
                .within("serve.protocol.decode", span, op_id, || {
                    parse_request_frame(line.trim_end().as_bytes())
                })
                .map_err(|(reason, message)| format!("replay decode {reason}: {message}"))?;
            let sql = match &frame.request {
                Request::Query { sql, .. } | Request::Stream { sql, .. } => Some(sql.as_str()),
                _ => None,
            };
            let plan = match sql {
                Some(sql) => {
                    let statement = buf
                        .within("query.parse", span, op_id, || parse(sql))
                        .map_err(|e| e.to_string())?;
                    Some(
                        buf.within("query.plan", span, op_id, || {
                            LogicalPlan::from_statement(&statement)
                        })
                        .map_err(|e| e.to_string())?,
                    )
                }
                None => None,
            };
            let response = match (op.exec, &plan) {
                (Exec::Offline(video), Some(plan)) => {
                    let catalog = fetch(buf, span, op_id, video)?;
                    let outcome = buf
                        .within("core.offline.exec", span, op_id, || {
                            execute_offline(plan, &catalog, &PaperScoring)
                        })
                        .map_err(|e| e.to_string())?;
                    counts.engine_ms.push(outcome.wall_ms);
                    if let Some(topk) = outcome.offline() {
                        counts.offline_queries += 1;
                        counts.sorted_accesses += topk.disk.sorted_accesses;
                        counts.random_accesses += topk.disk.random_accesses;
                        counts.iterations += topk.iterations;
                    }
                    Response::Outcome(outcome)
                }
                (Exec::OfflineAll, Some(plan)) => {
                    let k = match plan.mode {
                        QueryMode::Offline { k } => k,
                        QueryMode::Online => return Err("scatter op plans offline".into()),
                    };
                    let repo = reference
                        .repo
                        .as_ref()
                        .ok_or("scatter replay holds a repository")?;
                    let mut parts = Vec::new();
                    let mut disk = DiskStats::default();
                    for video in repo.video_ids().collect::<Vec<_>>() {
                        let catalog = fetch(buf, span, op_id, video.raw())?;
                        let outcome = buf
                            .within("core.offline.exec", span, op_id, || {
                                execute_offline(plan, &catalog, &PaperScoring)
                            })
                            .map_err(|e| e.to_string())?;
                        let topk = outcome.offline().ok_or("offline outcome")?;
                        disk.sorted_accesses += topk.disk.sorted_accesses;
                        disk.random_accesses += topk.disk.random_accesses;
                        parts.push(part_of_video(video, topk));
                    }
                    let (merged, _) = buf.within("query.merge_cluster", span, op_id, || {
                        merge_cluster(k, parts)
                    });
                    Response::Outcome(QueryOutcome {
                        results: QueryResults::Cluster(merged),
                        disk,
                        wall_ms: 0.0,
                    })
                }
                (Exec::Online(video), Some(plan)) => {
                    let oracle = oracles
                        .get(video as usize)
                        .ok_or_else(|| format!("no oracle for video {video}"))?;
                    let mut stream = VideoStream::new(oracle);
                    let outcome = buf
                        .within("core.online.exec", span, op_id, || {
                            execute_online(plan, &mut stream, OnlineConfig::default())
                        })
                        .map_err(|e| e.to_string())?;
                    counts.engine_ms.push(outcome.wall_ms);
                    counts.online_queries += 1;
                    counts.online_clips += oracle.clip_count();
                    counts.sequences += outcome.sequences().len() as u64;
                    Response::Outcome(outcome)
                }
                _ => Response::Stats(StatsFrame::default()),
            };
            let encoded = buf.within("serve.protocol.encode", span, op_id, || {
                encode_response_line(&response, frame.id)
            });
            counts
                .server_ms
                .push(server_start.elapsed().as_secs_f64() * 1e3);
            counts.response_bytes += encoded.len() as u64;
            let decoded: ResponseFrame = buf
                .within("client.decode", span, op_id, || {
                    serde_json::from_str(encoded.trim_end())
                })
                .map_err(|e| e.to_string())?;
            let mut tally = ClientTally::default();
            buf.within("client.verify", span, op_id, || {
                tally.verify(op, decoded.response)
            });
            counts.mismatches += tally.failed;
            buf.close(span, None);
        }
    }
    Ok(counts)
}

/// `routed_burst` only: the same targeted requests serially through the
/// router and then straight to the owning shard, plus serial scatters.
/// Returns (routed p50, direct p50, scatter p50), milliseconds.
fn router_hops(
    system: &mut System,
    reference: &Reference,
    seed: u64,
    n: usize,
) -> Res<(f64, f64, f64)> {
    let Traffic::Burst {
        targeted, scatter, ..
    } = &reference.traffic
    else {
        return Ok((0.0, 0.0, 0.0));
    };
    let mut targeted = Deck::new(seed, 0xb0b, targeted);
    let mut scatter = Deck::new(seed, 0xb0b, scatter);
    let sequence: Vec<usize> = (0..n).map(|_| targeted.deal()).collect();
    let mut tally = ClientTally::default();
    let timed = |client: &mut Client, idx: usize, tally: &mut ClientTally| -> Res<f64> {
        let op = &reference.ops[idx];
        let sent = Instant::now();
        let response = client.request(&op.request).map_err(|e| e.to_string())?;
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        tally.verify(op, response);
        Ok(ms)
    };
    let shard_addrs: Vec<SocketAddr> = system.shards.iter().map(|s| s.local_addr()).collect();
    let mut direct: Vec<Client> = shard_addrs
        .iter()
        .map(|a| Client::connect_with_timeout(a, CLIENT_TIMEOUT))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let routed = &mut system.clients[0];
    let mut routed_ms = Vec::with_capacity(n);
    let mut direct_ms = Vec::with_capacity(n);
    let mut scatter_ms = Vec::new();
    for &idx in &sequence {
        routed_ms.push(timed(routed, idx, &mut tally)?);
    }
    for &idx in &sequence {
        let video = match reference.ops[idx].exec {
            Exec::Offline(v) => v,
            _ => continue,
        };
        let owner = shard_index(VideoId::new(video), direct.len());
        direct_ms.push(timed(&mut direct[owner], idx, &mut tally)?);
    }
    for _ in 0..(n / 4).max(8) {
        scatter_ms.push(timed(routed, scatter.deal(), &mut tally)?);
    }
    if tally.failed > 0 {
        return Err(format!("router hop pass: {:?}", tally.errors));
    }
    Ok((median(routed_ms), median(direct_ms), median(scatter_ms)))
}

/// Ask a server for its `stats` frame.
pub fn wire_stats(client: &mut Client) -> Res<StatsFrame> {
    match client.request(&Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats(frame) => Ok(frame),
        other => Err(format!("stats answered {other:?}")),
    }
}

fn report_errors(what: &str, errors: &[String]) {
    for e in errors {
        crate::say(&format!("  {what} failure: {e}"));
    }
}

/// Build the system and time it: wall seconds at reference speed, the box's
/// slowness taken as the mean of a chore pass before and one after.
fn timed_setup(kind: Kind, shape: &Shape, chore: &mut sys::Chore) -> Res<(System, f64)> {
    let before = chore.slowness();
    let started = Instant::now();
    let system = build_system(kind, shape)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((system, seconds * 2.0 / (before + chore.slowness())))
}

/// Untraced run: set-up, warm-up, the measured pass — and then the
/// remaining set-up repetitions. Building and dropping a system leaves
/// the allocator in a state that varies from run to run (`VmHWM` after
/// five set-ups of `topk_cold` ranged 54 to 101 MB, after one it is 51.4
/// every time), so the measured pass runs on the first system and the
/// peak is read before the repetitions.
pub fn run_measured(kind: Kind, args: &Args) -> Res<RunResult> {
    let shape = shape(kind, args.quick);
    let mut chore = sys::Chore::new();
    let (mut system, first_setup_s) = timed_setup(kind, &shape, &mut chore)?;
    let mut setups = vec![first_setup_s];
    let rss_setup = sys::peak_rss_mb();
    let reference = build_reference(kind, &system)?;
    let warm = PassPlan {
        seconds: args.warmup_s(),
        slices: 1,
        phase: 1,
        traced: false,
        sample: false,
        inject: false,
    };
    let warmup = drive(&mut system, &reference, args.seed, &warm);
    report_errors("warm-up", &warmup.errors);
    let measured = PassPlan {
        seconds: args.seconds,
        slices: args.slices(),
        phase: 2,
        inject: args.inject_fault,
        ..warm
    };
    let pass = drive(&mut system, &reference, args.seed, &measured);
    report_errors("measured", &pass.errors);
    let peak_rss_mb = sys::peak_rss_mb();
    let mut teardown_problems = teardown(system).1;
    drop(reference);
    for _ in 1..args.setup_reps() {
        let (again, setup_s) = timed_setup(kind, &shape, &mut chore)?;
        setups.push(setup_s);
        teardown_problems.extend(teardown(again).1);
    }
    report_errors("drain", &teardown_problems);

    let sliced = sys::sliced_quartiles(&pass.samples, &pass.marks, kind.timer_bound());
    let mut slows: Vec<f64> = pass.marks.iter().map(|m| m.slow).collect();
    slows.sort_by(|a, b| a.total_cmp(b));
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", median(setups));
    metrics.insert("ops_per_s", sliced.ops_per_s);
    metrics.insert("lat_p50_ms", sliced.lat_p50_ms);
    metrics.insert("lat_p95_ms", sliced.lat_p95_ms);
    metrics.insert("cpu_ms_per_op", sliced.cpu_ms_per_op);
    metrics.insert("peak_rss_mb", peak_rss_mb);
    crate::say(&format!(
        "  {} verified responses over {:.2} s in {} slices (box slowness {:.2} to {:.2}, median \
             {:.2}); as read: {:.1}/s overall, p50 {:.3} p95 {:.3} p99 {:.3} max {:.3} ms; \
             {:.3} CPU ms/op ({:.0}% in the generators); peak rss after set-up {rss_setup:.1} MB",
        pass.lat_ms.len(),
        pass.wall_s,
        pass.marks.len() - 1,
        percentile(&slows, 0.0),
        percentile(&slows, 1.0),
        percentile(&slows, 0.5),
        pass.ops_per_s(),
        percentile(&pass.lat_ms, 0.50),
        percentile(&pass.lat_ms, 0.95),
        percentile(&pass.lat_ms, 0.99),
        pass.lat_ms.last().copied().unwrap_or(0.0),
        ratio(pass.cpu_ms, pass.lat_ms.len() as f64),
        100.0 * ratio(pass.client_cpu_ms, pass.cpu_ms),
    ));
    Ok(RunResult {
        attempted: pass.attempted + teardown_problems.len() as u64,
        failed: pass.failed + teardown_problems.len() as u64,
        metrics,
    })
}

/// Traced run: one set-up, an untraced pass for the counters and the
/// overhead baseline, the traced wire pass, then the layer replay.
pub fn run_traced(kind: Kind, args: &Args) -> Res<RunResult> {
    let shape = shape(kind, args.quick);
    let mut system = build_system(kind, &shape)?;
    let reference = build_reference(kind, &system)?;
    let mut plan = PassPlan {
        seconds: args.warmup_s(),
        slices: 1,
        phase: 1,
        traced: false,
        sample: false,
        inject: false,
    };
    drive(&mut system, &reference, args.seed, &plan);

    plan = PassPlan {
        seconds: args.seconds * 0.4,
        phase: 2,
        sample: true,
        ..plan
    };
    let jobs_before: u64 = system
        .backends()
        .iter()
        .map(|s| s.metrics().snapshot().jobs_executed)
        .sum();
    let untraced = drive(&mut system, &reference, args.seed, &plan);
    report_errors("untraced", &untraced.errors);
    plan = PassPlan {
        traced: true,
        sample: false,
        ..plan
    };
    let traced = drive(&mut system, &reference, args.seed, &plan);
    report_errors("traced", &traced.errors);

    let stats = wire_stats(
        &mut Client::connect_with_timeout(system.addr(), CLIENT_TIMEOUT)
            .map_err(|e| e.to_string())?,
    )?;
    let snaps: Vec<_> = system
        .backends()
        .iter()
        .map(|s| s.metrics().snapshot())
        .collect();
    let cache: Vec<_> = system.repos.iter().map(|r| r.cache_stats()).collect();
    let hops = if kind == Kind::RoutedBurst {
        router_hops(&mut system, &reference, args.seed, shape.replay_ops / 4)?
    } else {
        (0.0, 0.0, 0.0)
    };
    let facts = std::mem::take(&mut system.facts);
    let oracles = system.oracles.clone();
    // The replay reads the spilled catalogs after the servers are gone.
    let _scratch = system.scratch.take();
    let (drain_ms, teardown_problems) = teardown(system);
    report_errors("drain", &teardown_problems);

    let epoch = Instant::now();
    let mut replay_buf = SpanBuf::recording(shape.replay_ops * 24 + 64, epoch);
    let counts = replay(
        &reference,
        &oracles,
        args.seed,
        2,
        shape.replay_ops,
        &mut replay_buf,
    )?;

    let mut m = Metrics::new();
    layers::probe_common(&mut m, &oracles, args.quick);
    if kind == Kind::StreamOnline {
        let statements: Vec<String> = (0..3).map(gen::online_sql).collect();
        layers::probe_mux(&mut m, &oracles, &statements, shape.replay_ops / 2)?;
    }

    m.insert("vision.synth_ms_per_video", facts.synth_ms_per_video);
    if facts.ingest_ms_per_video > 0.0 {
        m.insert("core.ingest.ms_per_video", facts.ingest_ms_per_video);
        m.insert(
            "core.ingest.clips_per_s",
            ratio(facts.clips_per_video * 1e3, facts.ingest_ms_per_video),
        );
    }
    m.insert("storage.save_ms", facts.save_ms_per_video);
    m.insert("storage.spill_bytes_per_clip", facts.spill_bytes_per_clip);
    m.insert("storage.open_dir_ms", facts.open_dir_ms);
    m.insert("exec.ingest_videos_per_s", facts.ingest_videos_per_s);
    let (hits, misses, evictions) = cache.iter().fold((0, 0, 0), |acc, c| {
        (acc.0 + c.hits, acc.1 + c.misses, acc.2 + c.evictions)
    });
    m.insert("storage.cache_hits", hits as f64);
    m.insert("storage.cache_misses", misses as f64);
    m.insert("storage.cache_evictions", evictions as f64);
    m.insert(
        "storage.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );

    let traced_ops_per_s = traced.ops_per_s();
    let mut all_bufs = traced.bufs;
    all_bufs.push(replay_buf);
    let totals = trace::totals_by_name(&all_bufs);
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    m.insert("storage.load_ms", mean_us("storage.load") / 1e3);
    m.insert("storage.fetch_hit_us", mean_us("storage.fetch_hit"));
    m.insert("query.parse_us", mean_us("query.parse"));
    m.insert("query.plan_us", mean_us("query.plan"));
    m.insert("query.merge_cluster_us", mean_us("query.merge_cluster"));
    m.insert("core.offline.exec_ms", mean_us("core.offline.exec") / 1e3);
    m.insert("core.online.exec_ms", mean_us("core.online.exec") / 1e3);
    m.insert("serve.protocol.decode_us", mean_us("serve.protocol.decode"));
    m.insert("serve.protocol.encode_us", mean_us("serve.protocol.encode"));
    m.insert("client.encode_us", mean_us("client.encode"));
    m.insert("client.decode_us", mean_us("client.decode"));
    m.insert("client.verify_us", mean_us("client.verify"));

    let per = |sum: u64, n: u64| ratio(sum as f64, n as f64);
    m.insert("core.offline.served_wall_ms", untraced.served_wall_ms);
    m.insert(
        "core.offline.sorted_accesses",
        per(counts.sorted_accesses, counts.offline_queries),
    );
    m.insert(
        "core.offline.random_accesses",
        per(counts.random_accesses, counts.offline_queries),
    );
    m.insert(
        "core.offline.iterations",
        per(counts.iterations, counts.offline_queries),
    );
    m.insert(
        "core.online.sequences",
        per(counts.sequences, counts.online_queries),
    );
    let online_ms = mean_us("core.online.exec") / 1e3 * counts.online_queries as f64;
    m.insert(
        "core.online.clips_per_s",
        ratio(counts.online_clips as f64 * 1e3, online_ms),
    );
    m.insert(
        "serve.protocol.request_bytes",
        per(counts.request_bytes, counts.ops),
    );
    m.insert(
        "serve.protocol.response_bytes",
        per(counts.response_bytes, counts.ops),
    );
    if kind == Kind::StreamOnline {
        // A stream response's wall time is its mux session's, not RVAQ's.
        m.insert("core.offline.served_wall_ms", 0.0);
    }

    let jobs_after: u64 = snaps.iter().map(|s| s.jobs_executed).sum();
    m.insert(
        "exec.pool_jobs",
        jobs_after.saturating_sub(jobs_before) as f64,
    );
    m.insert(
        "exec.jobs_panicked",
        snaps.iter().map(|s| s.jobs_panicked).sum::<u64>() as f64,
    );
    m.insert(
        "exec.feed_block_ms",
        snaps
            .iter()
            .flat_map(|s| s.shards.iter().map(|sh| sh.feed_block_ms))
            .sum(),
    );
    m.insert(
        "exec.pool_queue_depth_max",
        untraced.depths.pool_queue as f64,
    );
    m.insert("exec.ingress_depth_max", untraced.depths.ingress as f64);

    m.insert("serve.server.latency_p50_ms", stats.latency_p50_ms);
    m.insert("serve.server.latency_p99_ms", stats.latency_p99_ms);
    m.insert("serve.server.requests", stats.requests as f64);
    m.insert("serve.server.malformed", stats.malformed as f64);
    m.insert("serve.server.timed_out", stats.timed_out as f64);
    m.insert("serve.server.rejected_busy", stats.rejected_busy as f64);
    m.insert("serve.server.drain_ms", drain_ms);
    let lat_p50 = percentile(&untraced.lat_ms, 0.50);
    let replay_p50 = median(counts.server_ms.clone());
    m.insert("serve.server.replay_p50_ms", replay_p50);
    m.insert("serve.server.residual_ms", lat_p50 - replay_p50);
    m.insert("serve.router.serial_p50_ms", hops.0);
    m.insert(
        "serve.router.hop_ms",
        if hops.0 > 0.0 { hops.0 - hops.1 } else { 0.0 },
    );
    m.insert("serve.router.scatter_ms", hops.2);
    m.insert("serve.router.shards_up", stats.shards_up as f64);

    m.insert("client.samples", untraced.lat_ms.len() as f64);
    m.insert("client.lat_p50_ms", lat_p50);
    m.insert("client.lat_p99_ms", percentile(&untraced.lat_ms, 0.99));
    m.insert(
        "client.lat_max_ms",
        untraced.lat_ms.last().copied().unwrap_or(0.0),
    );
    m.insert(
        "client.cpu_share",
        ratio(untraced.client_cpu_ms, untraced.cpu_ms),
    );
    m.insert(
        "client.trace_overhead_pct",
        100.0 * (1.0 - ratio(traced_ops_per_s, untraced.ops_per_s())),
    );

    // Share of the median latency owned by the layer the workload was
    // built to stress.
    let dominant = match kind {
        Kind::TopkHot => median(counts.engine_ms.clone()),
        Kind::TopkCold => {
            mean_us("storage.load") / 1e3 * ratio(misses as f64, (hits + misses) as f64)
        }
        Kind::RoutedBurst => lat_p50 - replay_p50,
        Kind::StreamOnline => {
            m.get("exec.mux_stream_ms").copied().unwrap_or(0.0) - mean_us("core.online.exec") / 1e3
        }
    };
    m.insert("bench.dominant_layer_share", ratio(dominant, lat_p50));

    let dropped: u64 = all_bufs.iter().map(|b| b.dropped).sum();
    let path = sys::out_dir().join(format!("trace-{}.jsonl", kind.name()));
    trace::write_jsonl(&path, &all_bufs).map_err(|e| format!("{}: {e}", path.display()))?;
    crate::say(&format!(
        "  trace: {} spans ({dropped} dropped at the cap) -> {}",
        all_bufs.iter().map(|b| b.spans().len()).sum::<usize>(),
        path.display()
    ));
    crate::say(&format!(
        "  replay: {} operations, request order {:016x}",
        counts.ops, counts.order_hash
    ));
    crate::say(&format!(
        "  layer self time per span (us): {}",
        totals
            .iter()
            .map(|(name, t)| format!(
                "{name}={:.1}",
                ratio(t.self_ns as f64 / 1e3, t.count as f64)
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let failed =
        untraced.failed + traced.failed + teardown_problems.len() as u64 + counts.mismatches;
    Ok(RunResult {
        attempted: untraced.attempted
            + traced.attempted
            + counts.ops
            + teardown_problems.len() as u64,
        failed,
        metrics: m,
    })
}
