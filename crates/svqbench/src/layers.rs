//! Layer probes that need no server: timed calls into public functions of
//! `scanstats`, `serve.protocol`, `core.ingest` and `exec`, run on the
//! traced run's thread after the wire passes are over.

use crate::schema::Metrics;
use crate::sys::ratio;
use crate::Res;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use svq_core::expr::ExprSvaqd;
use svq_core::offline::ingest;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::{Backpressure, ExecMetrics, MuxOptions, SessionEngine, SessionId, SessionMux};
use svq_query::plan::PlannedPredicate;
use svq_query::{parse, LogicalPlan};
use svq_scanstats::{critical_value, CriticalValueTable, ScanConfig};
use svq_serve::protocol::encode_response_line;
use svq_serve::Response;
use svq_types::PaperScoring;
use svq_vision::models::DetectionOracle;

/// Probes every workload runs: critical values cold and memoised, the
/// push-frame encoder, and one sequential ingest.
pub fn probe_common(m: &mut Metrics, oracles: &[Arc<DetectionOracle>], quick: bool) {
    // A log grid of background probabilities, the range SVAQD's estimators
    // wander over; window and horizon are the online defaults.
    let config = OnlineConfig::default();
    let (window, grid) = (50u32, if quick { 40 } else { 200 });
    let ps: Vec<f64> = (0..grid)
        .map(|i| 1e-4 * (3e3f64).powf(i as f64 / grid as f64))
        .collect();
    let started = Instant::now();
    for &p in &ps {
        black_box(critical_value(
            black_box(p),
            window,
            config.horizon_windows,
            config.alpha,
        ));
    }
    m.insert(
        "scanstats.critical_value_cold_us",
        started.elapsed().as_secs_f64() * 1e6 / grid as f64,
    );
    let mut table = CriticalValueTable::new(ScanConfig::new(
        window,
        config.horizon_windows,
        config.alpha,
    ));
    for &p in &ps {
        table.critical_value(p);
    }
    let rounds = 50;
    let started = Instant::now();
    for _ in 0..rounds {
        for &p in &ps {
            black_box(table.critical_value(black_box(p)));
        }
    }
    m.insert(
        "scanstats.critical_value_memo_us",
        started.elapsed().as_secs_f64() * 1e6 / (grid * rounds) as f64,
    );

    let pushes = if quick { 200 } else { 2_000 };
    let started = Instant::now();
    let mut bytes = 0usize;
    for i in 0..pushes {
        let event = Response::Event {
            sub: i,
            seq: 1_000 + i,
            clip: 999 + i,
            first: 990 + i,
            last: 999 + i,
            at: 1_234_567_890_123 + i,
        };
        bytes += black_box(encode_response_line(&event, Some(i))).len();
    }
    m.insert(
        "serve.protocol.push_encode_us",
        started.elapsed().as_secs_f64() * 1e6 / pushes as f64,
    );
    m.insert(
        "serve.protocol.push_bytes",
        ratio(bytes as f64, pushes as f64),
    );

    if let Some(oracle) = oracles.first() {
        let started = Instant::now();
        let catalog = black_box(ingest(oracle, &PaperScoring, &config));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        m.insert("core.ingest.ms_per_video", ms);
        m.insert(
            "core.ingest.clips_per_s",
            ratio(catalog.clip_count as f64 * 1e3, ms),
        );
    }
}

/// The session engine the server builds for an online statement.
pub fn engine_of(sql: &str, oracle: &DetectionOracle) -> Res<SessionEngine> {
    let statement = parse(sql).map_err(|e| e.to_string())?;
    let plan = LogicalPlan::from_statement(&statement).map_err(|e| e.to_string())?;
    let geometry = oracle.truth().geometry;
    let config = OnlineConfig::default();
    Ok(match plan.predicate {
        PlannedPredicate::Simple(q) => {
            SessionEngine::Svaqd(Svaqd::new(q, geometry, config, 1e-4, 1e-4))
        }
        PlannedPredicate::Cnf(q) => {
            SessionEngine::Expr(ExprSvaqd::new(q, geometry, config, 1e-4, 1e-4))
        }
    })
}

/// A `SessionMux` shaped like the server's (2 workers, 2 ingress shards).
pub fn server_like_mux(metrics: ExecMetrics) -> SessionMux {
    SessionMux::with_options(MuxOptions::new(2).with_shards(2), metrics)
}

/// `exec` without sockets: `rounds` times, register two whole-stream
/// sessions (what the two wire clients keep in flight), feed, wait.
pub fn probe_mux(
    m: &mut Metrics,
    oracles: &[Arc<DetectionOracle>],
    statements: &[String],
    rounds: usize,
) -> Res<()> {
    let metrics = ExecMetrics::new();
    let mux = server_like_mux(metrics.clone());
    let mut clips = 0u64;
    let mut eval_ms = 0.0;
    let started = Instant::now();
    for round in 0..rounds {
        let ids: Vec<SessionId> = (0..2)
            .map(|slot| {
                let n = round * 2 + slot;
                let oracle = &oracles[n % oracles.len()];
                clips += oracle.clip_count();
                let sql = &statements[n % statements.len()];
                Ok(mux.register(
                    format!("probe/{n}"),
                    oracle.clone(),
                    engine_of(sql, oracle)?,
                    Backpressure::Block,
                    64,
                ))
            })
            .collect::<Res<_>>()?;
        mux.feed_streams(&ids);
        for &id in &ids {
            mux.wait(id).map_err(|e| e.to_string())?;
        }
        eval_ms += metrics
            .snapshot()
            .sessions
            .iter()
            .map(|s| s.eval_ms)
            .sum::<f64>();
        for id in ids {
            mux.release(id);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    mux.shutdown();
    m.insert("exec.mux_clips_per_s", ratio(clips as f64, wall));
    m.insert("exec.mux_stream_ms", ratio(wall * 1e3, rounds as f64));
    m.insert("exec.session_eval_ms", ratio(eval_ms, (rounds * 2) as f64));
    Ok(())
}
