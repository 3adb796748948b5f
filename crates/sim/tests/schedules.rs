//! Schedule-level integration tests: the real exec stack under the
//! simulated world — reproducibility, fault isolation, corpus health, and
//! randomized sweeps.

use svq_sim::{
    find, persist_trace, run_corpus_line, run_one, sweep, FaultPlan, RunSpec, CORPUS, SCENARIOS,
};

fn scenario(name: &str) -> &'static svq_sim::Scenario {
    find(name).expect("registered scenario")
}

/// Same (scenario, seed, size, faults) twice: byte-identical event traces,
/// not merely equal hashes.
#[test]
fn same_seed_replays_byte_identically() {
    for scenario in SCENARIOS {
        let name = scenario.name;
        let spec = RunSpec {
            keep_trace: true,
            ..RunSpec::new(scenario, 0xDECAF)
        };
        let a = run_one(&spec);
        let b = run_one(&spec);
        assert!(a.failure.is_none(), "{name}: {:?}", a.failure);
        assert!(b.failure.is_none(), "{name}: {:?}", b.failure);
        assert_eq!(a.trace_hash, b.trace_hash, "{name}: trace hash drifted");
        assert_eq!(
            a.render_trace(),
            b.render_trace(),
            "{name}: rendered traces drifted"
        );
        assert!(a.steps > 0 && a.steps == b.steps);
    }
}

/// Different seeds explore different interleavings (the whole point of the
/// sweep): with dozens of scheduling points the chance of an accidental
/// hash collision across 8 seeds is negligible.
#[test]
fn different_seeds_explore_different_interleavings() {
    let mut hashes = std::collections::BTreeSet::new();
    for seed in 0..8u64 {
        let outcome = run_one(&RunSpec::new(scenario("mux_pipeline"), seed));
        assert!(
            outcome.failure.is_none(),
            "seed {seed}: {:?}",
            outcome.failure
        );
        hashes.insert(outcome.trace_hash);
    }
    assert!(
        hashes.len() >= 6,
        "8 seeds produced only {} distinct interleavings",
        hashes.len()
    );
}

/// The worker-panic fault poisons exactly its target session and the
/// scenario's isolation assertions hold across seeds.
#[test]
fn worker_panic_fault_stays_isolated() {
    for seed in 0..4u64 {
        let spec = RunSpec {
            faults: FaultPlan {
                worker_panic: true,
                ..FaultPlan::none()
            },
            ..RunSpec::new(scenario("mux_pipeline"), seed)
        };
        let outcome = run_one(&spec);
        assert!(
            outcome.failure.is_none(),
            "seed {seed}: {:?}",
            outcome.failure
        );
    }
}

/// Connection faults against the in-memory server stay isolated: dropped
/// and stalled clients are refused/closed while well-behaved clients still
/// get byte-identical outcomes.
#[test]
fn serve_conn_faults_stay_isolated() {
    for seed in 0..3u64 {
        let spec = RunSpec {
            faults: FaultPlan {
                drop_conn: true,
                stall_client: true,
                ..FaultPlan::none()
            },
            size: 3,
            ..RunSpec::new(scenario("serve_mem"), seed)
        };
        let outcome = run_one(&spec);
        assert!(
            outcome.failure.is_none(),
            "seed {seed}: {:?}",
            outcome.failure
        );
    }
}

/// The sink-crash and torn-manifest faults recover byte-identically under
/// arbitrary worker interleavings.
#[test]
fn ingest_crash_faults_recover_byte_identically() {
    for seed in 0..3u64 {
        let spec = RunSpec {
            faults: FaultPlan {
                crash_sink: true,
                torn_manifest: seed % 2 == 1,
                ..FaultPlan::none()
            },
            size: 3,
            ..RunSpec::new(scenario("ingest_crash"), seed)
        };
        let outcome = run_one(&spec);
        assert!(
            outcome.failure.is_none(),
            "seed {seed}: {:?}",
            outcome.failure
        );
    }
}

/// Every committed corpus line replays green.
#[test]
fn corpus_stays_green() {
    let mut replayed = 0;
    for line in CORPUS.lines() {
        if let Some((spec, outcome)) = run_corpus_line(line).expect("corpus parses") {
            assert!(
                outcome.failure.is_none(),
                "corpus schedule failed; repro: {}\n{}",
                spec.repro_line(),
                outcome.failure.map(|f| f.to_string()).unwrap_or_default()
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 12, "corpus holds at least a dozen schedules");
}

/// A short randomized sweep per scenario finds no violations. (The
/// thousand-schedule sweep lives in `svq-bench`/CI; this is the
/// cargo-test-sized slice.)
#[test]
fn randomized_sweeps_find_no_violations() {
    for (name, schedules, size) in [
        ("mux_pipeline", 12u64, 6u64),
        ("double_wait", 12, 4),
        ("reporter", 12, 3),
        ("serve_mem", 8, 4),
        ("ingest_crash", 6, 3),
    ] {
        let report = sweep(
            scenario(name),
            0xBA5E ^ schedules,
            schedules,
            size,
            FaultPlan::none(),
            3,
        );
        assert_eq!(report.schedules, schedules);
        assert!(
            report.failures.is_empty(),
            "{name}: first repro: {}",
            report.failures[0].repro
        );
    }
}

/// Persisted traces are named by the schedule, carry the repro command as
/// their header, and are byte-stable across runs (determinism means a
/// persisted failure trace can be diffed against a later local replay).
#[test]
fn persisted_traces_are_named_and_byte_stable() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim-traces");
    let spec = RunSpec::new(scenario("mux_pipeline"), 0xFACE);
    let path = persist_trace(&spec, &dir).expect("trace persists");
    assert_eq!(
        path.file_name().and_then(|n| n.to_str()),
        Some("mux_pipeline-64206.txt")
    );
    let first = std::fs::read_to_string(&path).expect("trace readable");
    let mut lines = first.lines();
    assert_eq!(
        lines.next(),
        Some(spec.repro_line().as_str())
            .map(|l| format!("# {l}"))
            .as_deref()
    );
    assert_eq!(lines.next(), Some("# result: ok"));
    assert!(lines.next().is_some(), "trace body is non-empty");
    let again = persist_trace(&spec, &dir).expect("trace persists again");
    assert_eq!(again, path);
    assert_eq!(std::fs::read_to_string(&again).unwrap(), first);
}

/// Fault plans parse round-trip through their canonical labels.
#[test]
fn fault_plan_labels_round_trip() {
    for plan in [
        FaultPlan::none(),
        FaultPlan::all(),
        FaultPlan {
            worker_panic: true,
            stall_client: true,
            ..FaultPlan::none()
        },
    ] {
        let reparsed = FaultPlan::parse(&plan.label()).expect("canonical label parses");
        assert_eq!(plan, reparsed);
    }
}
